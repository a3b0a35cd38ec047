//! The four workloads: every size, epoch count and iteration time is a
//! constant here. Nothing is calibrated at run time and nothing is read
//! from the host, so two runs of one commit do the same work.

use sand_codec::{DatasetSpec, EncoderConfig};

/// Engine worker threads: fixed, not derived from the host.
pub const SCHED_THREADS: usize = 2;
/// Store index shards: fixed for the same reason.
pub const STORE_SHARDS: usize = 2;
/// Batches the bench-owned loader keeps ready ahead of the trainer (the
/// double buffering of Fig. 6's usage).
pub const LOADER_DEPTH: usize = 2;
/// After chunk 0, one batch in this many is compared with the reference.
pub const REFERENCE_SAMPLE_EVERY: u64 = 16;
/// `--seconds` value the epoch constants below are sized for on the
/// 2-core reference host; other values scale the work in proportion.
pub const REFERENCE_SECONDS: u64 = 20;

/// How trainers reach engines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// One untenanted engine, one trainer per task.
    Single,
    /// One engine shared through `Fleet`, one trainer per tenant.
    Fleet,
    /// Two engine nodes on loopback (`ViewServer` + `RemoteTier`),
    /// iteration `i` served by node `i % 2`, one trainer per node.
    Ddp,
}

/// One task of a workload: its tenant (used by `Fleet` only), QoS weight
/// and pipeline.
#[derive(Clone, Copy, Debug)]
pub struct TaskDef {
    pub tenant: &'static str,
    pub weight: u64,
    pub yaml: &'static str,
}

/// A workload: inputs, engine settings and pass lengths.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why the workload exists.
    pub why: &'static str,
    pub topology: Topology,
    pub tasks: &'static [TaskDef],
    pub videos: usize,
    pub width: usize,
    pub height: usize,
    pub frames_per_video: usize,
    pub gop: usize,
    pub memory_budget: u64,
    pub cache_budget: u64,
    /// Spill to a value log under the run's scratch directory
    /// (`SyncPolicy::Never`: the log is a cache, not a ledger).
    pub disk: bool,
    pub prefetch_depth: usize,
    pub epochs_per_chunk: u64,
    /// Epochs of the saturated pass of a `--trace 0` run at
    /// [`REFERENCE_SECONDS`].
    pub saturated_epochs: u64,
    /// Epochs of the paced pass of a `--trace 0` run.
    pub paced_epochs: u64,
    /// GPU time per iteration in the paced pass, microseconds.
    pub paced_gpu_iter_us: u64,
    /// Epochs of each of the two passes (untraced, traced) of a
    /// `--trace 1` run.
    pub traced_epochs: u64,
    /// Epochs of the on-demand CPU loader pass (0 = not run here).
    pub ondemand_epochs: u64,
    /// Layer probes whose home this workload is.
    pub probes: &'static [Probe],
    /// The stall segments (`sand_telemetry::STAGE_LABELS`) the workload
    /// exists to stress; `"vfs"` stands for the view filesystem's and the
    /// loader's own time around the engine's serve.
    pub dominant: &'static [&'static str],
}

/// The layer probes; each runs on one home workload only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Probe {
    Codec,
    Frame,
    Graph,
    StoreMem,
    Sched,
    Vfs,
    StoreDisk,
    Compress,
    Net,
}

impl Spec {
    #[must_use]
    pub fn dataset(&self, seed: u64) -> DatasetSpec {
        DatasetSpec {
            num_videos: self.videos,
            num_classes: 4,
            width: self.width,
            height: self.height,
            frames_per_video: self.frames_per_video,
            encoder: EncoderConfig {
                gop_size: self.gop,
                quantizer: 4,
                fps_milli: 30_000,
                b_frames: 0,
            },
            seed,
            ..Default::default()
        }
    }

    /// Scales an epoch constant from [`REFERENCE_SECONDS`] to `seconds`
    /// (at least one epoch).
    #[must_use]
    pub fn scaled(epochs: u64, seconds: u64) -> u64 {
        (epochs * seconds / REFERENCE_SECONDS).max(1)
    }
}

/// SlowFast-shaped pipeline (resize, random crop, flip, normalize) with
/// `$VPB` videos per batch.
macro_rules! slowfast_yaml {
    ($vpb:literal) => {
        concat!(
            r#"
dataset:
  tag: slowfast
  input_source: file
  video_dataset_path: /dataset/kinetics
  sampling:
    videos_per_batch: "#,
            $vpb,
            r#"
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
"#
        )
    };
}

/// VideoMAE-shaped pipeline: two clips per video, resize, random crop,
/// normalize. Shares the resize with the SlowFast task, so a fleet
/// merges it.
const MAE: &str = r#"
dataset:
  tag: mae
  input_source: file
  video_dataset_path: /dataset/kinetics
  sampling:
    videos_per_batch: 2
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
"#;

/// A two-stage pipeline for the two-node workload.
const DDP: &str = r#"
dataset:
  tag: ddp
  input_source: file
  video_dataset_path: /dataset/kinetics
  sampling:
    videos_per_batch: 2
    frames_per_video: 8
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
        - normalize:
            mean: [0.45, 0.45, 0.45]
            std: [0.225, 0.225, 0.225]
"#;

pub const FIG11_SINGLE_FIT: Spec = Spec {
    name: "fig11_single_fit",
    why: "Fig. 11 hit path: one SlowFast task, 64 videos of 96 px, a chunk's objects fit the 32 MiB memory tier three times, prefetch depth 2: serve, memory get/evict, vfs and tensor parsing do the work.",
    topology: Topology::Single,
    tasks: &[TaskDef {
        tenant: "",
        weight: 1,
        yaml: slowfast_yaml!(4),
    }],
    videos: 64,
    width: 96,
    height: 96,
    frames_per_video: 48,
    gop: 24,
    memory_budget: 32 << 20,
    cache_budget: 32 << 20,
    disk: false,
    prefetch_depth: 2,
    epochs_per_chunk: 2,
    saturated_epochs: 160,
    paced_epochs: 90,
    paced_gpu_iter_us: 3_000,
    traced_epochs: 80,
    ondemand_epochs: 4,
    probes: &[Probe::StoreMem, Probe::Sched, Probe::Vfs],
    dominant: &["plan", "prefetch", "finalize", "vfs"],
};

pub const FIG13_MULTI_CONSTRAINED: Spec = Spec {
    name: "fig13_multi_constrained",
    why: "Fig. 13 miss path: SlowFast + MAE tenants (weights 2:1) share 32 videos of 128 px through Fleet with 8 MiB budgets, a quarter of a chunk's objects: decode, augmentation, pruning and queueing dominate.",
    topology: Topology::Fleet,
    tasks: &[
        TaskDef {
            tenant: "sf",
            weight: 2,
            yaml: slowfast_yaml!(2),
        },
        TaskDef {
            tenant: "mae",
            weight: 1,
            yaml: MAE,
        },
    ],
    videos: 32,
    width: 128,
    height: 128,
    frames_per_video: 48,
    gop: 24,
    memory_budget: 8 << 20,
    cache_budget: 8 << 20,
    disk: false,
    prefetch_depth: 0,
    epochs_per_chunk: 2,
    saturated_epochs: 66,
    paced_epochs: 34,
    paced_gpu_iter_us: 8_000,
    traced_epochs: 33,
    ondemand_epochs: 2,
    probes: &[Probe::Codec, Probe::Frame, Probe::Graph],
    dominant: &["decode", "aug", "queue_wait"],
};

pub const DISK_SPILL: Spec = Spec {
    name: "disk_spill",
    why: "The Fig. 11 task with a 6 MiB memory tier over a value log (SyncPolicy::Never): spill, disk read-back, CRC, decompression and log replay dominate; the only workload that writes beside reading.",
    topology: Topology::Single,
    tasks: &[TaskDef {
        tenant: "",
        weight: 1,
        yaml: slowfast_yaml!(2),
    }],
    videos: 64,
    width: 96,
    height: 96,
    frames_per_video: 48,
    gop: 24,
    memory_budget: 6 << 20,
    cache_budget: 256 << 20,
    disk: true,
    prefetch_depth: 0,
    epochs_per_chunk: 2,
    saturated_epochs: 75,
    paced_epochs: 45,
    paced_gpu_iter_us: 2_200,
    traced_epochs: 38,
    ondemand_epochs: 0,
    probes: &[Probe::StoreDisk, Probe::Compress],
    dominant: &["store_io", "persist", "exec_other"],
};

pub const REMOTE_DDP: Spec = Spec {
    name: "remote_ddp",
    why: "Two engine nodes on loopback, iteration i on node i mod 2, 512 MiB stores that never evict in a pass: half of each node's objects come over the wire, so sand-net dominates; the other three bypass it.",
    topology: Topology::Ddp,
    tasks: &[TaskDef {
        tenant: "",
        weight: 1,
        yaml: DDP,
    }],
    videos: 48,
    width: 96,
    height: 96,
    frames_per_video: 32,
    gop: 16,
    memory_budget: 512 << 20,
    cache_budget: 512 << 20,
    disk: false,
    prefetch_depth: 0,
    epochs_per_chunk: 2,
    saturated_epochs: 400,
    paced_epochs: 200,
    paced_gpu_iter_us: 700,
    traced_epochs: 200,
    ondemand_epochs: 0,
    probes: &[Probe::Net],
    dominant: &["remote"],
};

/// The four workloads, in `BENCHMARK.json` order.
pub const ALL: [&Spec; 4] = [
    &FIG11_SINGLE_FIT,
    &FIG13_MULTI_CONSTRAINED,
    &DISK_SPILL,
    &REMOTE_DDP,
];

#[must_use]
pub fn by_name(name: &str) -> Option<&'static Spec> {
    ALL.iter().copied().find(|s| s.name == name)
}
