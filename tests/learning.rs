//! Learning-centric integration tests: the synthetic classes are actually
//! learnable through the full SAND pipeline, and training survives heavy
//! storage pressure.

#![allow(clippy::unwrap_used)]

use sand::codec::{Dataset, DatasetSpec, EncoderConfig};
use sand::config::parse_task_config;
use sand::core::{EngineConfig, SandEngine};
use sand::sim::{GpuSim, GpuSpec, ModelProfile, PowerModel};
use sand::storage::StoreConfig;
use sand::train::loaders::SandLoader;
use sand::train::model::{OptimizerKind, SgdConfig};
use sand::train::{Trainer, TrainerConfig};
use std::sync::Arc;
use std::time::Duration;

const PIPELINE: &str = r#"
dataset:
  tag: learn
  input_source: file
  video_dataset_path: /dataset/learn
  sampling:
    videos_per_batch: 4
    frames_per_video: 6
    frame_stride: 3
  augmentation:
    - name: resize
      branch_type: single
      inputs: ["frame"]
      outputs: ["a0"]
      config:
        - resize:
            shape: [32, 32]
        - normalize:
            mean: [0.45, 0.45, 0.45]
            std: [0.225, 0.225, 0.225]
"#;

fn tiny_profile() -> ModelProfile {
    ModelProfile {
        name: "tiny".into(),
        iter_time: Duration::from_micros(500),
        ref_batch: 4,
        mem_bytes_per_pixel: 1.0,
        fixed_mem_bytes: 0,
    }
}

#[test]
fn model_learns_synthetic_classes_through_sand() {
    let dataset = Arc::new(
        Dataset::generate(&DatasetSpec {
            num_videos: 16,
            num_classes: 4,
            width: 48,
            height: 48,
            frames_per_video: 36,
            encoder: EncoderConfig {
                gop_size: 12,
                quantizer: 4,
                fps_milli: 30_000,
                b_frames: 0,
            },
            ..Default::default()
        })
        .unwrap(),
    );
    let epochs = 20u64;
    let engine = SandEngine::new(
        EngineConfig {
            tasks: vec![parse_task_config(PIPELINE).unwrap()],
            total_epochs: epochs,
            epochs_per_chunk: 5,
            seed: 7,
            ..Default::default()
        },
        dataset,
    )
    .unwrap();
    engine.start().unwrap();
    let mut loader = SandLoader::with_prefetch(engine, "learn", 0..epochs, 2);
    let trainer = Trainer::new(
        Arc::new(GpuSim::new(GpuSpec::a100())),
        PowerModel::default(),
    );
    let report = trainer
        .run(
            &mut loader,
            &TrainerConfig {
                profile: tiny_profile(),
                epochs: 0..epochs,
                iters_per_epoch: 4,
                train_model: true,
                classes: 4,
                opt: SgdConfig {
                    kind: OptimizerKind::Adam,
                    lr: 0.05,
                    ..Default::default()
                },
                vcpus: 4,
            },
        )
        .unwrap();
    // Loss fell meaningfully from ln(4) = 1.386 and the model classifies
    // most of the final batches correctly.
    let first: f32 = report.losses[..4].iter().sum::<f32>() / 4.0;
    let last: f32 = report.losses[report.losses.len() - 4..].iter().sum::<f32>() / 4.0;
    assert!(first > 1.2, "initial loss should be near ln(4): {first}");
    assert!(
        last < 0.8,
        "loss did not fall far enough: {first} -> {last}"
    );
    assert!(
        report.accuracy >= 0.75,
        "final batch accuracy {}",
        report.accuracy
    );
}

#[test]
fn training_survives_heavy_storage_pressure() {
    // A store far too small for the plan: eviction churns constantly and
    // demand recomputes, but every batch is still served correctly.
    let dataset = Arc::new(
        Dataset::generate(&DatasetSpec {
            num_videos: 8,
            num_classes: 4,
            width: 48,
            height: 48,
            frames_per_video: 36,
            encoder: EncoderConfig {
                gop_size: 12,
                quantizer: 4,
                fps_milli: 30_000,
                b_frames: 0,
            },
            ..Default::default()
        })
        .unwrap(),
    );
    let dir = std::env::temp_dir().join(format!("sand_pressure_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = SandEngine::new(
        EngineConfig {
            tasks: vec![parse_task_config(PIPELINE).unwrap()],
            total_epochs: 2,
            epochs_per_chunk: 2,
            seed: 7,
            cache_budget: 200 * 1024,
            store: StoreConfig {
                memory_budget: 96 * 1024,
                disk_budget: 200 * 1024,
                memory_horizon: 1,
                ..Default::default()
            },
            store_dir: Some(dir.clone()),
            ..Default::default()
        },
        Arc::clone(&dataset),
    )
    .unwrap();
    engine.start().unwrap();
    // A reference engine with unconstrained storage must agree bit-for-bit.
    let reference = SandEngine::new(
        EngineConfig {
            tasks: vec![parse_task_config(PIPELINE).unwrap()],
            total_epochs: 2,
            epochs_per_chunk: 2,
            seed: 7,
            prematerialize: false,
            ..Default::default()
        },
        dataset,
    )
    .unwrap();
    reference.start().unwrap();
    for epoch in 0..2u64 {
        for it in 0..2u64 {
            let constrained = engine.serve_batch("learn", epoch, it).unwrap();
            let unconstrained = reference.serve_batch("learn", epoch, it).unwrap();
            assert_eq!(constrained, unconstrained, "batch {epoch}/{it} diverged");
        }
    }
    let stats = engine.stats();
    assert!(
        stats.store.evictions > 0 || stats.store.spills > 0,
        "the budget was meant to force churn: {:?}",
        stats.store
    );
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}
