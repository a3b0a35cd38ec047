//! Autotune parity and conservation: the adaptive control plane moves
//! *performance* knobs only, never behaviour. For any generated workload
//! and any runtime knob schedule — manual setter calls or real
//! controller ticks — the engine must serve bit-identical batch
//! sequences, and the prefetch outcome counters must keep partitioning
//! `scheduled` exactly across every depth resize.

#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use sand_codec::{Dataset, DatasetSpec, EncoderConfig};
use sand_config::parse_task_config;
use sand_core::{AutotuneConfig, EngineConfig, LintLevel, SandEngine, TelemetryConfig};
use sand_sched::SchedConfig;
use sand_telemetry::MetricValue;
use std::sync::Arc;

const TASK_YAML: &str = "dataset:\n  tag: t\n  input_source: file\n  video_dataset_path: /d\n  sampling:\n    videos_per_batch: 2\n    frames_per_video: 3\n    frame_stride: 1\n  augmentation:\n    - name: base\n      branch_type: single\n      inputs: [\"frame\"]\n      outputs: [\"s0\"]\n      config:\n        - resize:\n            shape: [16, 16]\n";

fn dataset(videos: usize, seed: u64) -> Arc<Dataset> {
    Arc::new(
        Dataset::generate(&DatasetSpec {
            num_videos: videos,
            num_classes: 2,
            width: 32,
            height: 32,
            frames_per_video: 12,
            seed,
            encoder: EncoderConfig {
                gop_size: 4,
                quantizer: 4,
                fps_milli: 30_000,
                b_frames: 0,
            },
            ..Default::default()
        })
        .unwrap(),
    )
}

fn base_config(epochs: u64, epochs_per_chunk: u64, seed: u64) -> EngineConfig {
    EngineConfig {
        tasks: vec![parse_task_config(TASK_YAML).unwrap()],
        prematerialize: true,
        total_epochs: epochs,
        epochs_per_chunk,
        seed,
        sched: SchedConfig {
            threads: 4,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn counter(e: &SandEngine, name: &str) -> u64 {
    match e.telemetry().snapshot().unwrap().get(name) {
        Some(MetricValue::Counter(v)) => *v,
        other => panic!("{name}: expected counter, got {other:?}"),
    }
}

fn assert_conservation(e: &SandEngine, context: &str) {
    let (scheduled, hit, late, miss, cancelled) = (
        counter(e, "prefetch.scheduled"),
        counter(e, "prefetch.hit"),
        counter(e, "prefetch.late"),
        counter(e, "prefetch.miss"),
        counter(e, "prefetch.cancelled"),
    );
    let pending = e.prefetch_pending() as u64;
    assert_eq!(
        scheduled,
        hit + late + miss + cancelled + pending,
        "{context}: scheduled {scheduled} != hit {hit} + late {late} + miss {miss} \
         + cancelled {cancelled} + pending {pending}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole's bit-identity bar, knob-schedule edition: a run
    /// whose prefetch depth and demand slack are retuned
    /// between every batch serves exactly the bytes the static engine
    /// serves, and the prefetch counters stay exactly conserved across
    /// every resize (including shrink-to-zero cancellations).
    #[test]
    fn prop_autotune_parity(
        videos in 2usize..=4,
        epochs in 1u64..=2,
        per_chunk in 1u64..=2,
        seed in 0u64..1000,
        depths in proptest::collection::vec(0usize..=4, 4..=8),
        slacks in proptest::collection::vec(0u64..=8, 4..=8),
    ) {
        let ds = dataset(videos, seed);
        // Baseline: static knobs.
        let baseline = {
            let e = SandEngine::new(
                base_config(epochs, per_chunk.min(epochs), seed),
                Arc::clone(&ds),
            ).unwrap();
            e.start().unwrap();
            e.wait_idle();
            let iters = e.iterations_per_epoch("t").unwrap();
            let mut batches = Vec::new();
            for epoch in 0..epochs {
                for it in 0..iters {
                    batches.push(e.serve_batch("t", epoch, it).unwrap());
                }
            }
            batches
        };
        // Tuned run: every knob retuned between batches, walking the
        // generated schedules.
        let config = EngineConfig {
            prefetch_depth: 2,
            telemetry: Some(TelemetryConfig::default()),
            autotune: Some(AutotuneConfig::default()),
            ..base_config(epochs, per_chunk.min(epochs), seed)
        };
        let e = SandEngine::new(config, Arc::clone(&ds)).unwrap();
        e.start().unwrap();
        e.wait_idle();
        let iters = e.iterations_per_epoch("t").unwrap();
        let mut tuned = Vec::new();
        let mut step = 0usize;
        for epoch in 0..epochs {
            for it in 0..iters {
                tuned.push(e.serve_batch("t", epoch, it).unwrap());
                e.set_prefetch_depth(depths[step % depths.len()]);
                e.set_demand_slack(slacks[step % slacks.len()]);
                step += 1;
            }
        }
        e.wait_idle();
        prop_assert_eq!(&baseline, &tuned, "knob schedule changed served bytes");
        assert_conservation(&e, "after knob schedule");
    }

    /// The real closed loop: controller ticks between batches drive the
    /// knobs from live telemetry, and the output still matches the
    /// static engine bit for bit.
    #[test]
    fn prop_closed_loop_parity(
        videos in 2usize..=3,
        seed in 0u64..1000,
    ) {
        let epochs = 2u64;
        let ds = dataset(videos, seed);
        let baseline = {
            let e = SandEngine::new(base_config(epochs, 1, seed), Arc::clone(&ds)).unwrap();
            e.start().unwrap();
            e.wait_idle();
            let iters = e.iterations_per_epoch("t").unwrap();
            let mut batches = Vec::new();
            for epoch in 0..epochs {
                for it in 0..iters {
                    batches.push(e.serve_batch("t", epoch, it).unwrap());
                }
            }
            batches
        };
        let config = EngineConfig {
            prefetch_depth: 2,
            telemetry: Some(TelemetryConfig::default()),
            autotune: Some(AutotuneConfig {
                interval_ms: 0, // explicit ticks only
                ..Default::default()
            }),
            ..base_config(epochs, 1, seed)
        };
        let e = SandEngine::new(config, Arc::clone(&ds)).unwrap();
        e.start().unwrap();
        e.wait_idle();
        let iters = e.iterations_per_epoch("t").unwrap();
        let mut tuned = Vec::new();
        let mut ticks = 0u64;
        for epoch in 0..epochs {
            for it in 0..iters {
                tuned.push(e.serve_batch("t", epoch, it).unwrap());
                prop_assert!(e.autotune_tick().is_some(), "tick refused with autotune on");
                ticks += 1;
            }
        }
        e.wait_idle();
        prop_assert_eq!(&baseline, &tuned, "closed-loop control changed served bytes");
        assert_conservation(&e, "after closed loop");
        // Decisions export: tick counter and knob gauges mirror reality.
        prop_assert_eq!(counter(&e, "autotune.ticks"), ticks);
        let snap = e.telemetry().snapshot().unwrap();
        prop_assert_eq!(
            snap.gauge("autotune.prefetch_depth"),
            Some(e.prefetch_depth() as i64)
        );
        prop_assert_eq!(
            snap.gauge("autotune.demand_slack"),
            Some(e.demand_slack() as i64)
        );
    }
}

/// A scripted mid-sweep resize 4 → 1 → 0 → 3: entries in flight at each
/// shrink must settle exactly once (consumed naturally at nonzero
/// depths, cancelled at zero), and the sweep still serves every batch.
#[test]
fn depth_resize_mid_sweep_conserves_every_entry() {
    let ds = dataset(3, 11);
    let config = EngineConfig {
        prefetch_depth: 4,
        telemetry: Some(TelemetryConfig::default()),
        autotune: Some(AutotuneConfig::default()),
        ..base_config(2, 2, 11)
    };
    let e = SandEngine::new(config, Arc::clone(&ds)).unwrap();
    e.start().unwrap();
    e.wait_idle();
    let iters = e.iterations_per_epoch("t").unwrap();
    let schedule = [4usize, 1, 0, 3];
    let mut served = 0u64;
    for epoch in 0..2 {
        for it in 0..iters {
            e.serve_batch("t", epoch, it).unwrap();
            e.set_prefetch_depth(schedule[served as usize % schedule.len()]);
            served += 1;
        }
    }
    e.wait_idle();
    assert!(served >= 4, "workload too small to exercise the schedule");
    assert!(
        counter(&e, "prefetch.scheduled") > 0,
        "schedule never prefetched"
    );
    assert!(
        counter(&e, "prefetch.cancelled") > 0,
        "shrink-to-zero never cancelled an in-flight entry"
    );
    assert_conservation(&e, "after resize schedule");
}

/// Without telemetry there are no signals: the controller must refuse to
/// tick (inert, not wrong) and leave every knob at its seed value.
#[test]
fn autotune_without_telemetry_is_inert() {
    let config = EngineConfig {
        prefetch_depth: 2,
        lint: LintLevel::Off, // SL034 would (rightly) deny this config
        autotune: Some(AutotuneConfig::default()),
        ..base_config(1, 1, 3)
    };
    let e = SandEngine::new(config, dataset(2, 3)).unwrap();
    e.start().unwrap();
    assert!(e.autotune_tick().is_none(), "ticked without a registry");
    assert_eq!(e.prefetch_depth(), 2);
    assert_eq!(e.demand_slack(), SchedConfig::default().demand_slack);
}

/// SL034 end to end: lint `Deny` + autotune without telemetry fails
/// startup with the lint report naming the code.
#[test]
fn autotune_without_telemetry_fails_deny_lint() {
    let config = EngineConfig {
        lint: LintLevel::Deny,
        autotune: Some(AutotuneConfig::default()),
        ..base_config(1, 1, 3)
    };
    let e = SandEngine::new(config, dataset(2, 3)).unwrap();
    let err = e
        .start()
        .expect_err("SL034 must deny autotune-sans-telemetry");
    let msg = err.to_string();
    assert!(msg.contains("SL034"), "{msg}");
}

/// SL035 end to end: an inverted clamp range (max < min) fails startup.
#[test]
fn inverted_clamp_range_fails_deny_lint() {
    let mut autotune = AutotuneConfig::default();
    autotune.demand_slack.min = 8;
    autotune.demand_slack.max = 2;
    let config = EngineConfig {
        lint: LintLevel::Deny,
        telemetry: Some(TelemetryConfig::default()),
        autotune: Some(autotune),
        ..base_config(1, 1, 3)
    };
    let e = SandEngine::new(config, dataset(2, 3)).unwrap();
    let err = e.start().expect_err("SL035 must deny an inverted clamp");
    let msg = err.to_string();
    assert!(msg.contains("SL035"), "{msg}");
    assert!(msg.contains("autotune.demand_slack"), "{msg}");
}

/// The background loop: a nonzero interval spawns the `sand-autotune`
/// thread, ticks accumulate without any explicit call, and dropping the
/// engine joins the thread cleanly (no hang, no leak).
#[test]
fn background_loop_ticks_and_joins_on_drop() {
    let config = EngineConfig {
        telemetry: Some(TelemetryConfig::default()),
        autotune: Some(AutotuneConfig {
            interval_ms: 5,
            ..Default::default()
        }),
        ..base_config(1, 1, 5)
    };
    let e = SandEngine::new(config, dataset(2, 5)).unwrap();
    e.start().unwrap();
    e.wait_idle();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        if counter(&e, "autotune.ticks") > 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "background loop never ticked"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    drop(e); // must join the control thread, not hang or panic
}

/// Decisions ride the stall report: a forced knob move shows up in the
/// report's `autotune decisions` log, rendered and in JSONL.
#[test]
fn decisions_ride_the_stall_report() {
    let ds = dataset(3, 13);
    let config = EngineConfig {
        prefetch_depth: 2,
        telemetry: Some(TelemetryConfig::default()),
        autotune: Some(AutotuneConfig {
            interval_ms: 0,
            ..Default::default()
        }),
        ..base_config(2, 1, 13)
    };
    let e = SandEngine::new(config, Arc::clone(&ds)).unwrap();
    e.start().unwrap();
    e.wait_idle();
    let iters = e.iterations_per_epoch("t").unwrap();
    // Drain between serves so every consumed entry is a guaranteed hit:
    // an all-hit window reads as near-zero prefetch pressure, which
    // deterministically drives at least one `Lower` decision.
    let mut decisions = Vec::new();
    for epoch in 0..2 {
        for it in 0..iters {
            e.serve_batch("t", epoch, it).unwrap();
            e.wait_idle();
            decisions.extend(e.autotune_tick().unwrap());
        }
    }
    assert!(
        !decisions.is_empty(),
        "all-hit windows committed no decision"
    );
    let report = e.stall_report().unwrap();
    assert_eq!(
        report.decisions.len(),
        decisions.len(),
        "stall report log out of sync with returned decisions"
    );
    for (logged, d) in report.decisions.iter().zip(&decisions) {
        assert_eq!(logged, &d.render());
    }
    if !decisions.is_empty() {
        assert!(report.render_table().contains("autotune decisions"));
        assert!(report.render_jsonl().contains("autotune_decision"));
    }
}
