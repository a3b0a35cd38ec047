//! Fleet benchmark: cross-tenant materialization dedup and weighted QoS
//! sharing.
//!
//! Two measurements back the multi-tenant fleet's claims:
//!
//! - **dedup** — K tenants submit the same pipeline to one fleet vs K
//!   isolated engines racing on private stores. The fleet must execute
//!   each shared augmentation node *once* (ops ratio = K) and finish the
//!   same batch schedule in less wall time, with the singleflight claim
//!   map (`fleet.dedup_wins`) carrying the traffic.
//! - **qos** — three tenants with weights 1/2/4 keep a deep backlog of
//!   equal-cost demand jobs on a two-worker scheduler; sampled mid-drain,
//!   each tenant's busy-time share must track its weight share (weighted
//!   start-time fair queueing, not FIFO luck).
//!
//! Set `SAND_BENCH_QUICK=1` for a short CI-smoke run.

#![allow(clippy::unwrap_used)]

use sand_codec::{Dataset, DatasetSpec};
use sand_core::fleet::{fleet_tag, Fleet, FleetConfig, TenantSpec};
use sand_core::{EngineConfig, SandEngine, TelemetryConfig};
use sand_sched::{Job, JobKind, SchedConfig, Scheduler};
use sand_storage::StoreConfig;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEED: u64 = 0x0f1ee7;
const TENANTS: usize = 3;

fn pipeline(videos_per_batch: u32) -> String {
    format!(
        r#"
dataset:
  tag: train
  input_source: file
  video_dataset_path: /dataset/fleet
  sampling:
    videos_per_batch: {videos_per_batch}
    frames_per_video: 4
    frame_stride: 2
  augmentation:
    - name: resize
      branch_type: single
      inputs: ["frame"]
      outputs: ["a0"]
      config:
        - resize:
            shape: [32, 32]
    - name: crop
      branch_type: single
      inputs: ["a0"]
      outputs: ["a1"]
      config:
        - random_crop:
            shape: [28, 28]
        - normalize:
            mean: [0.5, 0.5, 0.5]
            std: [0.25, 0.25, 0.25]
"#
    )
}

fn base_config() -> EngineConfig {
    EngineConfig {
        tasks: Vec::new(),
        seed: SEED,
        total_epochs: 2,
        epochs_per_chunk: 2,
        prematerialize: false,
        prefetch_depth: 0,
        store: StoreConfig {
            memory_budget: 512 << 20,
            shards: 4,
            ..Default::default()
        },
        telemetry: Some(TelemetryConfig::default()),
        ..Default::default()
    }
}

/// Serves every batch of every epoch on `threads` concurrent trainers,
/// one per tenant tag. Returns wall time.
fn drive<F>(iters: u64, serve: F) -> Duration
where
    F: Fn(usize, u64, u64) + Sync,
{
    let start = Instant::now();
    std::thread::scope(|s| {
        for k in 0..TENANTS {
            let serve = &serve;
            s.spawn(move || {
                for epoch in 0..2u64 {
                    for iteration in 0..iters {
                        serve(k, epoch, iteration);
                    }
                }
            });
        }
    });
    start.elapsed()
}

/// K isolated engines vs one fleet over the identical tenant mix.
fn bench_dedup(dataset: &Arc<Dataset>, vpb: u32) {
    // Isolated: each tenant pays for its whole pipeline on a private
    // engine (private store, private claim map).
    let engines: Vec<SandEngine> = (0..TENANTS)
        .map(|k| {
            let mut task = sand_config::parse_task_config(&pipeline(vpb)).unwrap();
            task.tag = fleet_tag(&format!("t{k}"), "train");
            let mut config = base_config();
            config.tasks = vec![task];
            let engine = SandEngine::new(config, Arc::clone(dataset)).unwrap();
            engine.start().unwrap();
            engine
        })
        .collect();
    let iters = engines[0]
        .iterations_per_epoch(&fleet_tag("t0", "train"))
        .unwrap();
    let isolated_wall = drive(iters, |k, epoch, iteration| {
        engines[k]
            .serve_batch(&fleet_tag(&format!("t{k}"), "train"), epoch, iteration)
            .unwrap();
    });
    let isolated_ops: u64 = engines.iter().map(|e| e.stats().aug_ops_applied).sum();

    // Fleet: same tenant mix, one engine, one store, one claim map.
    let fleet = Fleet::new(
        FleetConfig {
            base: base_config(),
            tenants: (0..TENANTS)
                .map(|k| TenantSpec {
                    name: format!("t{k}"),
                    weight: 1,
                    tasks: vec![sand_config::parse_task_config(&pipeline(vpb)).unwrap()],
                })
                .collect(),
            admission_budget: 0,
        },
        Arc::clone(dataset),
    )
    .unwrap();
    let fleet_wall = drive(iters, |k, epoch, iteration| {
        fleet
            .serve_batch(&format!("t{k}"), "train", epoch, iteration)
            .unwrap();
    });
    let fleet_ops = fleet.engine().stats().aug_ops_applied;
    let snapshot = fleet.engine().metrics_snapshot().unwrap();
    let wins = snapshot.counter("fleet.dedup_wins").unwrap_or(0);
    let adoptions = snapshot.counter("fleet.dedup_adoptions").unwrap_or(0);

    assert_eq!(
        isolated_ops,
        TENANTS as u64 * fleet_ops,
        "fleet must execute each shared node once, isolation K times"
    );
    let ratio = isolated_ops as f64 / fleet_ops as f64;
    let iso_ms = isolated_wall.as_secs_f64() * 1e3;
    let fl_ms = fleet_wall.as_secs_f64() * 1e3;
    println!(
        "bench fleet_qos/dedup vpb={vpb} fleet {fleet_ops} ops {fl_ms:.1} ms | \
         isolated {isolated_ops} ops {iso_ms:.1} ms | ratio {ratio:.1}x, \
         {wins} wins, {adoptions} adoptions"
    );
}

/// One mid-drain sample of the busy shares: equal backlogs, skewed
/// weights, snapshot taken while every tenant is still queued.
fn qos_sample(
    weights: &[u64; TENANTS],
    jobs_per_tenant: usize,
    spin: Duration,
) -> Vec<sand_sched::TenantShare> {
    let sched = Scheduler::new(SchedConfig {
        threads: 2,
        reserved_demand_threads: 0,
        ..Default::default()
    });
    sched.set_tenant_weights(weights);
    let (tx, rx) = crossbeam::channel::unbounded::<u32>();
    for i in 0..jobs_per_tenant {
        for t in 0..TENANTS {
            let tx = tx.clone();
            sched.submit(Job {
                kind: JobKind::Demand,
                deadline: i as u64,
                remaining_work: 1,
                affinity: None,
                tenant: Some(t as u32),
                run: Box::new(move || {
                    let start = Instant::now();
                    while start.elapsed() < spin {
                        std::hint::spin_loop();
                    }
                    let _ = tx.send(t as u32);
                }),
            });
        }
    }
    // Sample while every tenant still has a backlog: after a third of
    // the total work has drained, even the weight-4 tenant (taking up to
    // 4/7 of service) cannot have emptied its queue.
    let total = jobs_per_tenant * TENANTS;
    for _ in 0..total / 3 {
        rx.recv().unwrap();
    }
    let shares = sched.tenant_shares();
    sched.wait_idle();
    sched.shutdown();
    shares
}

/// Weighted fair sharing on the scheduler's demand band. The charge is
/// wall time, so a loaded host that preempts a 100 µs spin for
/// milliseconds can scramble the margin between adjacent weights — the
/// run retries a noisy sample and hard-asserts only the robust gap
/// (weight 4 vs weight 1); the exact-convergence gate is the
/// deterministic proptest in `crates/sched/tests/prop_sched.rs`.
fn bench_qos(jobs_per_tenant: usize, spin: Duration) {
    let weights: [u64; TENANTS] = [1, 2, 4];
    let mut shares = qos_sample(&weights, jobs_per_tenant, spin);
    for _ in 0..2 {
        let ordered =
            shares[0].busy_ns < shares[1].busy_ns && shares[1].busy_ns < shares[2].busy_ns;
        if ordered {
            break;
        }
        println!("bench fleet_qos/qos noisy sample (shares unordered), retrying");
        shares = qos_sample(&weights, jobs_per_tenant, spin);
    }

    let busy_total: u64 = shares.iter().map(|s| s.busy_ns).sum();
    let weight_total: u64 = weights.iter().sum();
    println!("bench fleet_qos/qos mid-drain busy shares vs weights {weights:?}:");
    for (t, s) in shares.iter().enumerate() {
        let expected = weights[t] as f64 / weight_total as f64;
        let measured = s.busy_ns as f64 / busy_total as f64;
        println!(
            "bench fleet_qos/qos tenant{t} weight {} share {measured:.3} (expected {expected:.3})",
            s.weight
        );
    }
    // The robust claim even on a noisy host: the 4x tenant received
    // decidedly more service than the 1x tenant at the sample point.
    assert!(
        shares[2].busy_ns > shares[0].busy_ns,
        "weight-4 tenant must out-serve weight-1: {shares:?}"
    );
}

fn main() {
    let quick = std::env::var("SAND_BENCH_QUICK").is_ok();
    let dataset = Arc::new(
        Dataset::generate(&DatasetSpec {
            num_videos: if quick { 6 } else { 8 },
            frames_per_video: 16,
            ..Default::default()
        })
        .unwrap(),
    );

    for vpb in if quick { vec![2] } else { vec![2, 3] } {
        bench_dedup(&dataset, vpb);
    }
    let (jobs, spin) = if quick {
        (120, Duration::from_micros(100))
    } else {
        (400, Duration::from_micros(200))
    };
    bench_qos(jobs, spin);
}
