//! Worker-count parity: for any generated single-chunk workload, an
//! engine with `sched.threads > 1` must serve bit-identical batches and
//! apply exactly as many augmentation ops as the one-worker engine — the
//! pool may only change *where* a (video, bucket) job runs, never what it
//! computes (the shared per-video scratch guarantees each node is computed
//! at most once per pass in both modes).

#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use sand_codec::{Dataset, DatasetSpec, EncoderConfig};
use sand_config::parse_task_config;
use sand_core::{EngineConfig, SandEngine};
use sand_sched::SchedConfig;
use std::sync::Arc;

#[derive(Debug, Clone)]
struct Spec {
    videos: usize,
    gop: usize,
    vpb: usize,
    fpv: usize,
    stride: usize,
    /// Crop sizes of the chained stages after the base 16x16 resize.
    crops: Vec<usize>,
    epochs: u64,
    seed: u64,
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    (
        2usize..=4,
        2usize..=8,
        1usize..=2,
        2usize..=4,
        1usize..=3,
        prop::collection::vec(6usize..=14, 0..=2),
        1u64..=2,
        0u64..1000,
    )
        .prop_map(
            |(videos, gop, vpb, fpv, stride, crops, epochs, seed)| Spec {
                videos,
                gop,
                vpb,
                fpv,
                stride,
                crops,
                epochs,
                seed,
            },
        )
}

fn render_task(spec: &Spec) -> String {
    let mut y = format!(
        "dataset:\n  tag: t\n  input_source: file\n  video_dataset_path: /d\n  sampling:\n    videos_per_batch: {}\n    frames_per_video: {}\n    frame_stride: {}\n  augmentation:\n    - name: base\n      branch_type: single\n      inputs: [\"frame\"]\n      outputs: [\"s0\"]\n      config:\n        - resize:\n            shape: [16, 16]\n",
        spec.vpb, spec.fpv, spec.stride
    );
    let mut cur = 16usize;
    for (i, &c) in spec.crops.iter().enumerate() {
        let c = c.min(cur);
        cur = c;
        y.push_str(&format!(
            "    - name: c{i}\n      branch_type: single\n      inputs: [\"s{i}\"]\n      outputs: [\"s{}\"]\n      config:\n        - center_crop:\n            shape: [{c}, {c}]\n",
            i + 1
        ));
    }
    y
}

/// Serves every batch of the (single) chunk; returns the raw batch bytes
/// and the engine's applied-op counter.
fn run(spec: &Spec, dataset: &Arc<Dataset>, threads: usize) -> (Vec<Vec<u8>>, u64) {
    let config = EngineConfig {
        tasks: vec![parse_task_config(&render_task(spec)).unwrap()],
        prematerialize: true,
        // One chunk only: premat for a later chunk racing the serve loop
        // would make op counts depend on timing, not correctness.
        total_epochs: spec.epochs,
        epochs_per_chunk: spec.epochs,
        seed: spec.seed,
        sched: SchedConfig {
            threads,
            ..Default::default()
        },
        ..Default::default()
    };
    let e = SandEngine::new(config, Arc::clone(dataset)).unwrap();
    e.start().unwrap();
    e.wait_idle();
    let iters = e.iterations_per_epoch("t").unwrap();
    let mut batches = Vec::new();
    for epoch in 0..spec.epochs {
        for it in 0..iters {
            batches.push(e.serve_batch("t", epoch, it).unwrap());
        }
    }
    (batches, e.stats().aug_ops_applied)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn worker_count_is_bit_identical(spec in spec_strategy()) {
        let dataset = Arc::new(
            Dataset::generate(&DatasetSpec {
                num_videos: spec.videos,
                num_classes: 2,
                width: 32,
                height: 32,
                frames_per_video: 24,
                seed: spec.seed,
                encoder: EncoderConfig {
                    gop_size: spec.gop,
                    quantizer: 4,
                    fps_milli: 30_000,
                    b_frames: 0,
                },
                ..Default::default()
            })
            .unwrap(),
        );
        let (seq, seq_ops) = run(&spec, &dataset, 1);
        let (par, par_ops) = run(&spec, &dataset, 4);
        prop_assert_eq!(seq, par, "worker count changed served bytes");
        prop_assert_eq!(
            seq_ops,
            par_ops,
            "worker count duplicated or skipped chain work"
        );
    }
}
