//! The four paper workloads, scaled for the simulator.
//!
//! The paper trains on Kinetics-400 (250k videos, 720p), HD-VILA (100k,
//! 720p), and 1080p YouTube video on A100 GPUs. Here each workload is a
//! synthetic dataset 3–4 orders of magnitude smaller with the *same
//! pipeline structure* (decode → resize → crop → flip/jitter →
//! normalize), and GPU iteration times chosen so the CPU-preprocess /
//! GPU-train ratio lands in the paper's measured 2.2–6.5x band (Fig. 2a)
//! on a dozen-vCPU host. All downstream ratios (utilization, speedups,
//! energy) follow from these two calibrations.

use sand_codec::{DatasetSpec, EncoderConfig};
use sand_config::{parse_task_config, TaskConfig};
use sand_sim::ModelProfile;
use std::time::Duration;

/// One end-to-end workload: pipeline + dataset + GPU profile.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name (matches the paper's model names).
    pub name: &'static str,
    /// The preprocessing pipeline.
    pub task: TaskConfig,
    /// GPU compute/memory profile (scaled).
    pub profile: ModelProfile,
    /// Synthetic dataset parameters.
    pub dataset: DatasetSpec,
    /// Classes in the dataset.
    pub classes: u32,
}

/// vCPUs per GPU in the paper's GCP A2 instances.
pub const VCPUS_PER_GPU: usize = 12;

/// CPU worker threads used by data pipelines in the experiments.
///
/// The experiments model the paper's constraint that preprocessing gets
/// only a few host CPUs per GPU; 4 workers keeps runs faithful on
/// many-core CI machines too.
pub const PIPELINE_WORKERS: usize = 2;

fn task(yaml: &str) -> TaskConfig {
    parse_task_config(yaml).expect("workload pipeline must parse")
}

fn profile_us(name: &str, iter_us: u64, mem_px: f64, fixed_gib: u64) -> ModelProfile {
    ModelProfile {
        name: name.into(),
        iter_time: Duration::from_micros(iter_us),
        ref_batch: 4,
        mem_bytes_per_pixel: mem_px,
        fixed_mem_bytes: fixed_gib << 30,
    }
}

/// SlowFast action recognition on a Kinetics-like dataset.
#[must_use]
pub fn slowfast() -> Workload {
    Workload {
        name: "SlowFast",
        task: task(
            r#"
dataset:
  tag: slowfast
  input_source: file
  video_dataset_path: /dataset/kinetics
  sampling:
    videos_per_batch: 4
    frames_per_video: 12
    frame_stride: 4
  augmentation:
    - name: resize
      branch_type: single
      inputs: ["frame"]
      outputs: ["a0"]
      config:
        - resize:
            shape: [48, 48]
            interpolation: ["bilinear"]
    - name: crop
      branch_type: single
      inputs: ["a0"]
      outputs: ["a1"]
      config:
        - random_crop:
            shape: [40, 40]
        - flip:
            flip_prob: 0.5
        - normalize:
            mean: [0.45, 0.45, 0.45]
            std: [0.225, 0.225, 0.225]
"#,
        ),
        profile: profile_us("SlowFast", 5_000, 48.0, 6),
        dataset: DatasetSpec {
            num_videos: 12,
            num_classes: 4,
            width: 96,
            height: 96,
            frames_per_video: 48,
            encoder: EncoderConfig {
                gop_size: 24,
                quantizer: 4,
                fps_milli: 30_000,
                b_frames: 0,
            },
            ..Default::default()
        },
        classes: 4,
    }
}

/// VideoMAE self-supervised pretraining (two clips per video).
#[must_use]
pub fn mae() -> Workload {
    Workload {
        name: "MAE",
        task: task(
            r#"
dataset:
  tag: mae
  input_source: file
  video_dataset_path: /dataset/kinetics
  sampling:
    videos_per_batch: 4
    frames_per_video: 8
    frame_stride: 2
    samples_per_video: 2
  augmentation:
    - name: resize
      branch_type: single
      inputs: ["frame"]
      outputs: ["a0"]
      config:
        - resize:
            shape: [48, 48]
            interpolation: ["bilinear"]
    - name: crop
      branch_type: single
      inputs: ["a0"]
      outputs: ["a1"]
      config:
        - random_crop:
            shape: [32, 32]
        - normalize:
            mean: [0.45, 0.45, 0.45]
            std: [0.225, 0.225, 0.225]
"#,
        ),
        profile: profile_us("MAE", 3_500, 36.0, 8),
        dataset: DatasetSpec {
            num_videos: 12,
            num_classes: 4,
            width: 96,
            height: 96,
            frames_per_video: 48,
            encoder: EncoderConfig {
                gop_size: 24,
                quantizer: 4,
                fps_milli: 30_000,
                b_frames: 0,
            },
            ..Default::default()
        },
        classes: 4,
    }
}

/// HD-VILA video captioning on 720p-like (here 96x96) video.
#[must_use]
pub fn hdvila() -> Workload {
    Workload {
        name: "HD-VILA",
        task: task(
            r#"
dataset:
  tag: hdvila
  input_source: file
  video_dataset_path: /dataset/hdvila
  sampling:
    videos_per_batch: 4
    frames_per_video: 8
    frame_stride: 8
  augmentation:
    - name: resize
      branch_type: single
      inputs: ["frame"]
      outputs: ["a0"]
      config:
        - resize:
            shape: [64, 64]
            interpolation: ["bilinear"]
    - name: jitter
      branch_type: single
      inputs: ["a0"]
      outputs: ["a1"]
      config:
        - center_crop:
            shape: [56, 56]
        - color_jitter:
            brightness: 0.2
            contrast: 0.2
            saturation: 0.1
        - normalize:
            mean: [0.48, 0.45, 0.41]
            std: [0.229, 0.224, 0.225]
"#,
        ),
        profile: profile_us("HD-VILA", 5_000, 56.0, 10),
        dataset: DatasetSpec {
            num_videos: 12,
            num_classes: 4,
            width: 96,
            height: 96,
            frames_per_video: 72,
            encoder: EncoderConfig {
                gop_size: 24,
                quantizer: 4,
                fps_milli: 30_000,
                b_frames: 0,
            },
            ..Default::default()
        },
        classes: 4,
    }
}

/// BasicVSR++ video super-resolution on 1080p-like (here 128x128) video.
#[must_use]
pub fn basicvsr() -> Workload {
    Workload {
        name: "BasicVSR++",
        task: task(
            r#"
dataset:
  tag: basicvsr
  input_source: file
  video_dataset_path: /dataset/yt1080
  sampling:
    videos_per_batch: 4
    frames_per_video: 10
    frame_stride: 2
  augmentation:
    - name: crop
      branch_type: single
      inputs: ["frame"]
      outputs: ["a0"]
      config:
        - random_crop:
            shape: [48, 48]
        - flip:
            flip_prob: 0.5
        - normalize:
            mean: [0.5, 0.5, 0.5]
            std: [0.5, 0.5, 0.5]
"#,
        ),
        profile: profile_us("BasicVSR++", 3_000, 90.0, 7),
        dataset: DatasetSpec {
            num_videos: 8,
            num_classes: 4,
            width: 160,
            height: 160,
            frames_per_video: 36,
            encoder: EncoderConfig {
                gop_size: 18,
                quantizer: 4,
                fps_milli: 30_000,
                b_frames: 0,
            },
            ..Default::default()
        },
        classes: 4,
    }
}

/// All four workloads, paper order.
#[must_use]
pub fn workloads() -> Vec<Workload> {
    vec![slowfast(), mae(), hdvila(), basicvsr()]
}

/// Finds a workload by (case-insensitive) name.
#[must_use]
pub fn workload_by_name(name: &str) -> Option<Workload> {
    workloads()
        .into_iter()
        .find(|w| w.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_workloads_validate() {
        for w in workloads() {
            w.task.validate().unwrap();
            assert!(w.dataset.validate().is_ok());
            assert!(w.profile.iter_time > Duration::ZERO);
        }
    }

    #[test]
    fn workload_names_unique_and_findable() {
        let ws = workloads();
        assert_eq!(ws.len(), 4);
        for w in &ws {
            assert_eq!(workload_by_name(w.name).unwrap().name, w.name);
        }
        assert!(workload_by_name("nope").is_none());
    }

    #[test]
    fn clip_spans_fit_videos() {
        for w in workloads() {
            assert!(
                w.task.sampling.clip_span() <= w.dataset.frames_per_video,
                "{}: span {} > video {}",
                w.name,
                w.task.sampling.clip_span(),
                w.dataset.frames_per_video
            );
        }
    }
}
