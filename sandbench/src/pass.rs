//! One pass: every lane's trainer runs the real `sand_train::Trainer`
//! over a fresh rig, closed loop — a trainer asks for its next batch only
//! when it is done with the previous one.

use crate::host::CpuClock;
use crate::loader::{digest64, is_sampled, BenchLoader};
use crate::rig::{planned_tasks, reference_engine, BoxError, Rig};
use crate::spans::Span;
use crate::workloads::{Spec, SCHED_THREADS};
use sand_codec::Dataset;
use sand_core::{EngineStats, Snapshot, StallReport};
use sand_sim::{GpuSim, GpuSpec, ModelProfile, PowerModel};
use sand_train::{Loader, Trainer, TrainerConfig};
use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// `(task index, epoch, global iteration)` → digest of the served bytes.
pub type Digests = BTreeMap<(usize, u64, u64), u64>;

/// What one pass measured.
pub struct PassResult {
    /// First trainer released → last trainer done, seconds.
    pub wall_s: f64,
    /// Share of the CPU time the pass asked for that the hypervisor
    /// granted (see [`crate::host`]).
    pub unstolen: f64,
    /// Batches the trainers asked for.
    pub attempted: u64,
    /// Batches delivered without error.
    pub delivered: u64,
    /// Time blocked in `next_batch`, per trainer, nanoseconds.
    pub waits_ns: Vec<Vec<u64>>,
    /// Each trainer's own start-to-done time, seconds.
    pub lane_walls_s: Vec<f64>,
    /// `RunReport::utilization`, mean over trainers.
    pub gpu_busy_frac: f64,
    /// The first wait of lane 0: cold start to first batch.
    pub first_batch_ms: f64,
    pub digests: Digests,
    /// Errors that ended a trainer early.
    pub errors: Vec<String>,
    /// `SandEngine::stats()` per engine, after the pool went idle.
    pub stats: Vec<EngineStats>,
    /// Per engine; `None` unless the rig has telemetry on.
    pub stall_reports: Vec<Option<StallReport>>,
    pub snapshots: Vec<Option<Snapshot>>,
    /// Bench-owned spans (empty unless traced).
    pub spans: Vec<Span>,
}

struct LaneOutcome {
    done: Instant,
    attempted: u64,
    delivered: u64,
    waits_ns: Vec<u64>,
    digests: Vec<(u64, u64, u64)>,
    utilization: f64,
    error: Option<String>,
    spans: Vec<Span>,
}

/// A trainer on a fresh simulated GPU.
#[must_use]
pub fn trainer() -> Trainer {
    Trainer::new(
        Arc::new(GpuSim::new(GpuSpec::a100())),
        PowerModel::default(),
    )
}

/// `epochs` epochs of `iters_per_epoch` iterations, each costing the GPU
/// `gpu_iter` (at `batch_size` samples, the only size it sees).
#[must_use]
pub fn trainer_config(
    name: &str,
    gpu_iter: Duration,
    batch_size: usize,
    epochs: u64,
    iters_per_epoch: u64,
) -> TrainerConfig {
    TrainerConfig {
        profile: ModelProfile {
            name: name.to_string(),
            iter_time: gpu_iter,
            ref_batch: batch_size.max(1),
            mem_bytes_per_pixel: 1.0,
            fixed_mem_bytes: 0,
        },
        epochs: 0..epochs,
        iters_per_epoch,
        train_model: false,
        vcpus: SCHED_THREADS,
        ..Default::default()
    }
}

/// Runs `epochs` epochs on every lane of `rig` with `gpu_iter` of GPU
/// time per iteration (zero = saturated: ask again immediately).
pub fn run_pass(
    spec: &Spec,
    rig: &Rig,
    epochs: u64,
    gpu_iter: Duration,
    traced: bool,
) -> PassResult {
    let origin = Instant::now();
    let barrier = Barrier::new(rig.lanes.len() + 1);
    let (started, unstolen, outcomes) = std::thread::scope(|scope| {
        let handles: Vec<_> = rig
            .lanes
            .iter()
            .enumerate()
            .map(|(lane_index, lane)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut loader = BenchLoader::start(
                        lane,
                        lane_index as u64,
                        epochs,
                        spec.epochs_per_chunk,
                        traced.then_some(origin),
                    );
                    let config = trainer_config(
                        spec.name,
                        gpu_iter,
                        lane.batch_size,
                        epochs,
                        lane.local_iters(),
                    );
                    barrier.wait();
                    let report = trainer().run(&mut loader as &mut dyn Loader, &config);
                    let done = Instant::now();
                    let spans = loader.finish();
                    LaneOutcome {
                        done,
                        attempted: epochs * lane.local_iters(),
                        delivered: loader.delivered,
                        waits_ns: std::mem::take(&mut loader.waits_ns),
                        digests: std::mem::take(&mut loader.digests),
                        utilization: report.as_ref().map_or(0.0, |r| r.utilization),
                        error: report.err().map(|e| format!("lane {lane_index}: {e}")),
                        spans,
                    }
                })
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        let clock = CpuClock::now();
        let outcomes: Vec<LaneOutcome> = handles
            .into_iter()
            .map(|h| h.join().expect("trainer thread panicked"))
            .collect();
        (started, clock.unstolen_since(), outcomes)
    });
    // Counters are read once queued materialization has drained, so a
    // count does not depend on where the pool happened to be.
    for e in &rig.engines {
        e.wait_idle();
    }
    let last_done = outcomes.iter().map(|o| o.done).max().unwrap_or(started);
    let mut result = PassResult {
        wall_s: (last_done - started).as_secs_f64(),
        unstolen,
        attempted: 0,
        delivered: 0,
        waits_ns: Vec::new(),
        gpu_busy_frac: outcomes.iter().map(|o| o.utilization).sum::<f64>()
            / outcomes.len().max(1) as f64,
        first_batch_ms: outcomes
            .first()
            .and_then(|o| o.waits_ns.first())
            .map_or(0.0, |&ns| ns as f64 / 1e6),
        lane_walls_s: outcomes
            .iter()
            .map(|o| (o.done - started).as_secs_f64())
            .collect(),
        digests: Digests::new(),
        errors: Vec::new(),
        stats: rig
            .engines
            .iter()
            .map(sand_core::SandEngine::stats)
            .collect(),
        stall_reports: rig
            .engines
            .iter()
            .map(sand_core::SandEngine::stall_report)
            .collect(),
        snapshots: rig
            .engines
            .iter()
            .map(sand_core::SandEngine::metrics_snapshot)
            .collect(),
        spans: Vec::new(),
    };
    for (lane, o) in rig.lanes.iter().zip(outcomes) {
        result.attempted += o.attempted;
        result.delivered += o.delivered;
        result.waits_ns.push(o.waits_ns);
        result.errors.extend(o.error);
        result.spans.extend(o.spans);
        for (epoch, iteration, digest) in o.digests {
            result
                .digests
                .insert((lane.task_index, epoch, iteration), digest);
        }
    }
    result
}

/// Serves every sampled batch of `epochs` epochs, and the batches named
/// in `extra`, on the sequential reference engine; returns the digests.
pub fn reference_digests(
    spec: &Spec,
    dataset: &Arc<Dataset>,
    seed: u64,
    epochs: u64,
    extra: &[(usize, u64, u64)],
) -> Result<Digests, BoxError> {
    let engine = reference_engine(spec, dataset, seed, epochs)?;
    let tags: Vec<String> = planned_tasks(spec)?.into_iter().map(|t| t.tag).collect();
    let mut out = Digests::new();
    for epoch in 0..epochs {
        for (task_index, tag) in tags.iter().enumerate() {
            let iters = engine.iterations_per_epoch(tag).unwrap_or(0);
            for iteration in 0..iters {
                if is_sampled(epoch, iteration, spec.epochs_per_chunk) {
                    let bytes = engine.serve_batch(tag, epoch, iteration)?;
                    out.insert((task_index, epoch, iteration), digest64(&bytes));
                }
            }
        }
    }
    for &(task_index, epoch, iteration) in extra {
        if let Some(tag) = tags.get(task_index) {
            let bytes = engine.serve_batch(tag, epoch, iteration)?;
            out.insert((task_index, epoch, iteration), digest64(&bytes));
        }
    }
    Ok(out)
}

/// Batches of `pass` whose digest differs from (or is missing in)
/// `reference`. A pass that ended early simply has fewer digests; the
/// batches it never delivered are counted by the caller.
#[must_use]
pub fn mismatches(pass: &Digests, reference: &Digests) -> Vec<(usize, u64, u64)> {
    pass.iter()
        .filter(|(key, digest)| reference.get(key) != Some(digest))
        .map(|(key, _)| *key)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rig::RigOptions;
    use crate::workloads::ALL;

    /// Every workload's builder, shrunk to 4 videos and one epoch: the
    /// engines come up, every batch is delivered, and what was served is
    /// what the sequential reference serves.
    #[test]
    fn each_workload_comes_up_and_matches_the_reference() {
        for spec in ALL {
            let small = Spec { videos: 4, ..*spec };
            let seed = 11;
            let dataset = Arc::new(Dataset::generate(&small.dataset(seed)).expect("dataset"));
            // One directory per workload: tests run in parallel threads.
            let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("..")
                .join(crate::run::OUT_DIR)
                .join(format!("test-{}-{}", small.name, std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let options = RigOptions {
                trace_cap: Some(64),
                store_dir: Some(dir.clone()),
            };
            let rig = Rig::build(&small, &dataset, seed, 1, &options).expect("rig");
            let pass = run_pass(&small, &rig, 1, Duration::ZERO, true);
            drop(rig);
            let _ = std::fs::remove_dir_all(&dir);
            assert!(pass.errors.is_empty(), "{}: {:?}", small.name, pass.errors);
            assert!(pass.attempted > 0, "{}", small.name);
            assert_eq!(pass.delivered, pass.attempted, "{}", small.name);
            // Epoch 0 is inside chunk 0: every batch is digested.
            assert_eq!(pass.digests.len() as u64, pass.attempted, "{}", small.name);
            let reference = reference_digests(&small, &dataset, seed, 1, &[]).expect("reference");
            assert_eq!(
                mismatches(&pass.digests, &reference),
                vec![],
                "{}",
                small.name
            );
            // One wait and six spans per batch; one engine trace per batch.
            assert_eq!(
                pass.waits_ns.iter().map(Vec::len).sum::<usize>() as u64,
                pass.attempted
            );
            assert_eq!(
                pass.spans.len() as u64,
                6 * pass.attempted,
                "{}",
                small.name
            );
            let traces: usize = pass
                .stall_reports
                .iter()
                .flatten()
                .map(|r| r.traces.len())
                .sum();
            assert_eq!(traces as u64, pass.attempted, "{}", small.name);
        }
    }

    #[test]
    fn a_wrong_or_missing_digest_is_a_mismatch() {
        let reference: Digests = [((0, 0, 0), 1), ((0, 0, 1), 2)].into_iter().collect();
        let good: Digests = [((0, 0, 1), 2)].into_iter().collect();
        let wrong: Digests = [((0, 0, 1), 3), ((0, 5, 0), 9)].into_iter().collect();
        assert!(mismatches(&good, &reference).is_empty());
        assert_eq!(mismatches(&wrong, &reference), vec![(0, 0, 1), (0, 5, 0)]);
    }
}
