//! Golden digest of served batch bytes.
//!
//! The parity tests compare the engine against the sequential engine, and
//! the end-to-end benchmark's correctness check compares it against a
//! reference loader; both run the same normalize-and-stack code on both
//! sides, so a change to the served bytes that is consistent everywhere is
//! invisible to them. This test pins the bytes `serve_batch` returns for a
//! small fixed workload (three epochs, Gray8 and Rgb8, with and without a
//! `normalize` op) to a constant instead. Recompute it with
//! `cargo test -p sand-core --test golden_serve -- --nocapture` only when
//! the served bytes are meant to change.

#![allow(clippy::unwrap_used)]

use sand_codec::{Dataset, DatasetSpec, EncoderConfig};
use sand_config::parse_task_config;
use sand_core::{EngineConfig, SandEngine};
use sand_frame::PixelFormat;
use sand_sched::SchedConfig;
use std::sync::Arc;

/// FNV-1a, 64-bit: stable across toolchains, unlike `DefaultHasher`.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn task_yaml(normalize: Option<(&str, &str)>) -> String {
    let mut y = "dataset:\n  tag: t\n  input_source: file\n  video_dataset_path: /d\n  sampling:\n    videos_per_batch: 2\n    frames_per_video: 3\n    frame_stride: 2\n  augmentation:\n    - name: base\n      branch_type: single\n      inputs: [\"frame\"]\n      outputs: [\"s0\"]\n      config:\n        - resize:\n            shape: [20, 20]\n        - flip:\n            flip_prob: 0.5\n".to_string();
    if let Some((mean, std)) = normalize {
        y.push_str(&format!(
            "        - normalize:\n            mean: {mean}\n            std: {std}\n"
        ));
    }
    y
}

/// Serves every batch of every epoch in order and folds them into `h`.
fn digest(h: u64, format: PixelFormat, normalize: Option<(&str, &str)>) -> u64 {
    let dataset = Arc::new(
        Dataset::generate(&DatasetSpec {
            num_videos: 6,
            num_classes: 3,
            width: 32,
            height: 24,
            frames_per_video: 16,
            format,
            seed: 11,
            encoder: EncoderConfig {
                gop_size: 4,
                quantizer: 4,
                fps_milli: 30_000,
                b_frames: 1,
            },
            ..Default::default()
        })
        .unwrap(),
    );
    let epochs = 3;
    let config = EngineConfig {
        tasks: vec![parse_task_config(&task_yaml(normalize)).unwrap()],
        prematerialize: true,
        total_epochs: epochs,
        epochs_per_chunk: 2,
        seed: 5,
        sched: SchedConfig {
            threads: 2,
            ..Default::default()
        },
        ..Default::default()
    };
    let e = SandEngine::new(config, dataset).unwrap();
    e.start().unwrap();
    let iters = e.iterations_per_epoch("t").unwrap();
    let mut h = h;
    for epoch in 0..epochs {
        for it in 0..iters {
            let bytes = e.serve_batch("t", epoch, it).unwrap();
            h = fnv(h, &(bytes.len() as u64).to_le_bytes());
            h = fnv(h, &bytes);
        }
    }
    h
}

#[test]
fn served_bytes_match_golden_digest() {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    h = digest(
        h,
        PixelFormat::Rgb8,
        Some(("[0.485, 0.456, 0.406]", "[0.229, 0.224, 0.225]")),
    );
    h = digest(h, PixelFormat::Gray8, Some(("[0.45]", "[0.225]")));
    h = digest(h, PixelFormat::Rgb8, None);
    h = digest(h, PixelFormat::Gray8, None);
    println!("served digest: {h:#018x}");
    assert_eq!(h, 0x214d_9993_d41d_882e);
}
