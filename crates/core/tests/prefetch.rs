//! Prefetch and shard parity: `prefetch_depth` and `store.shards` are
//! performance knobs, never behaviour knobs. For any generated workload,
//! every depth must serve bit-identical batch sequences (the prefetcher
//! only moves *when* materialization runs, all consumption bookkeeping
//! stays at consume time in consume order), and a sharded store must
//! serve exactly what the single-lock store serves.

#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use sand_codec::{Dataset, DatasetSpec, EncoderConfig};
use sand_config::parse_task_config;
use sand_core::{EngineConfig, SandEngine, TelemetryConfig};
use sand_sched::SchedConfig;
use sand_storage::{StoreConfig, SyncPolicy};
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

/// Serves every batch of every epoch in consumption order.
fn serve_all(e: &SandEngine, epochs: u64) -> Vec<Vec<u8>> {
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
}

fn counter(e: &SandEngine, name: &str) -> u64 {
    match e.telemetry().snapshot().unwrap().get(name) {
        Some(MetricValue::Counter(v)) => *v,
        other => panic!("{name}: expected counter, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole's bit-identity bar: depth 0 (today's inline path),
    /// depth 1, and depth 4 serve identical byte sequences across
    /// multi-chunk runs (chunk rollover cancels, never corrupts).
    #[test]
    fn prop_prefetch_parity(
        videos in 2usize..=4,
        epochs in 1u64..=2,
        per_chunk in 1u64..=2,
        seed in 0u64..1000,
    ) {
        let ds = dataset(videos, seed);
        let mut runs = Vec::new();
        for depth in [0usize, 1, 4] {
            let config = EngineConfig {
                prefetch_depth: depth,
                telemetry: Some(TelemetryConfig::default()),
                ..base_config(epochs, per_chunk.min(epochs), seed)
            };
            let e = SandEngine::new(config, Arc::clone(&ds)).unwrap();
            runs.push(serve_all(&e, epochs));
            // Counter-conservation invariant: a full in-order sweep
            // consumes every entry the window ever registered, and each
            // settles exactly one outcome.
            let (scheduled, hit, late, miss, cancelled) = (
                counter(&e, "prefetch.scheduled"),
                counter(&e, "prefetch.hit"),
                counter(&e, "prefetch.late"),
                counter(&e, "prefetch.miss"),
                counter(&e, "prefetch.cancelled"),
            );
            prop_assert_eq!(
                scheduled,
                hit + late + miss + cancelled,
                "depth {}: scheduled {} != hit {} + late {} + miss {} + cancelled {}",
                depth, scheduled, hit, late, miss, cancelled
            );
        }
        prop_assert_eq!(&runs[0], &runs[1], "depth 1 changed served bytes");
        prop_assert_eq!(&runs[0], &runs[2], "depth 4 changed served bytes");
    }

    /// Engine-level shard invariance under real memory pressure: a tiny
    /// memory tier forces spills through Algorithm-1's coordinated
    /// sweep, and the 8-shard store must still serve exactly what the
    /// single-lock store serves.
    #[test]
    fn prop_sharded_store_serves_identical_batches(
        videos in 2usize..=3,
        seed in 0u64..1000,
    ) {
        let ds = dataset(videos, seed);
        let mut runs = Vec::new();
        let mut dirs = Vec::new();
        for shards in [1usize, 8] {
            let dir = std::env::temp_dir().join(format!(
                "sand_prefetch_shard{shards}_{}_{seed}_{videos}",
                std::process::id(),
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let config = EngineConfig {
                store_dir: Some(dir.clone()),
                store: StoreConfig {
                    memory_budget: 64 << 10,
                    disk_budget: 512 << 20,
                    memory_horizon: 1,
                    shards,
                    compact_threshold: 0.5,
                    sync: SyncPolicy::Never,
                },
                ..base_config(1, 1, seed)
            };
            let e = SandEngine::new(config, Arc::clone(&ds)).unwrap();
            runs.push(serve_all(&e, 1));
            dirs.push(dir);
        }
        prop_assert_eq!(&runs[0], &runs[1], "sharding changed served bytes");
        for dir in dirs {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// With telemetry on and a prefetch window, every *entry* settles in
/// exactly one of {hit, late, miss, cancelled} (partitioning
/// `scheduled`, which counts one per entry), and the `prefetch` trace
/// segment keeps the 8-segment breakdown summing exactly to serve
/// latency.
#[test]
fn prefetch_counters_and_traces_stay_exact() {
    let ds = dataset(3, 7);
    let config = EngineConfig {
        prefetch_depth: 2,
        telemetry: Some(TelemetryConfig::default()),
        ..base_config(2, 2, 7)
    };
    let e = SandEngine::new(config, Arc::clone(&ds)).unwrap();
    e.start().unwrap();
    e.wait_idle();
    let iters = e.iterations_per_epoch("t").unwrap();
    let mut served = 0u64;
    for epoch in 0..2 {
        for it in 0..iters {
            e.serve_batch("t", epoch, it).unwrap();
            served += 1;
            // Drain the freshly-scheduled prefetch jobs so the next
            // serve is a guaranteed *hit* (a trainer's GPU step plays
            // this role in production).
            e.wait_idle();
        }
    }
    assert!(served >= 2, "workload too small to exercise prefetching");
    let (scheduled, hit, late, miss, cancelled) = (
        counter(&e, "prefetch.scheduled"),
        counter(&e, "prefetch.hit"),
        counter(&e, "prefetch.late"),
        counter(&e, "prefetch.miss"),
        counter(&e, "prefetch.cancelled"),
    );
    // The first serve has nothing speculated (and counts nowhere); with
    // the pool drained between serves, every later serve is a hit on a
    // complete build.
    assert_eq!(
        hit,
        served - 1,
        "all but the cold-start serve must hit (hit {hit}, late {late}, miss {miss})"
    );
    assert_eq!(late + miss, 0, "drained windows never wait or fall back");
    assert_eq!(cancelled, 0, "in-order consumption never cancels");
    assert_eq!(
        scheduled,
        hit + late + miss + cancelled,
        "every entry must settle exactly one outcome"
    );
    let report = e.stall_report().unwrap();
    assert_eq!(report.traces.len(), served as usize);
    for t in &report.traces {
        assert_eq!(
            t.breakdown_sum_ns(),
            t.serve_ns,
            "trace breakdown must sum exactly to serve latency"
        );
    }
}

/// Skipping the rest of a chunk and jumping ahead strands the window's
/// speculative batches; the rollover serve must cancel (and count) them
/// rather than serving stale-plan bytes.
#[test]
fn chunk_rollover_cancels_stale_entries() {
    let ds = dataset(4, 11);
    let config = EngineConfig {
        prefetch_depth: 4,
        telemetry: Some(TelemetryConfig::default()),
        ..base_config(2, 1, 11)
    };
    let e = SandEngine::new(config, Arc::clone(&ds)).unwrap();
    e.start().unwrap();
    e.wait_idle();
    // Serve one batch of chunk 0: the window now speculates on the
    // remaining chunk-0 batches.
    e.serve_batch("t", 0, 0).unwrap();
    e.wait_idle();
    assert!(counter(&e, "prefetch.scheduled") > 0);
    // Jump straight into chunk 1 (epoch 1): the stranded entries are
    // stale and must be cancelled, not served.
    let jumped = e.serve_batch("t", 1, 0).unwrap();
    assert!(!jumped.is_empty());
    assert!(
        counter(&e, "prefetch.cancelled") > 0,
        "stranded chunk-0 entries must be cancelled on rollover"
    );
}
