//! The training loop against a simulated GPU.
//!
//! The trainer pulls batches from a [`Loader`], accounts the wait as GPU
//! stall, bills GPU-side preprocessing (DALI baseline) and model compute
//! to the device, and — when configured — actually trains the tiny linear
//! model so loss curves come out. GPU compute is "executed" by sleeping
//! the wall clock 1:1 with the modeled time, which is what lets a real
//! prefetching loader overlap its CPU work with "training".

use crate::features::batch_features;
use crate::loaders::Loader;
use crate::model::{LinearSoftmax, SgdConfig};
use crate::Result;
use sand_core::{LoaderMetrics, Telemetry};
use sand_sim::{EnergyBreakdown, GpuSim, ModelProfile, PowerModel, UsageWindow};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Trainer configuration.
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    /// GPU compute/memory profile of the model being trained.
    pub profile: ModelProfile,
    /// Epoch span to run.
    pub epochs: Range<u64>,
    /// Iterations per epoch.
    pub iters_per_epoch: u64,
    /// Whether to actually update the linear model and record losses.
    pub train_model: bool,
    /// Number of classes (when training the model).
    pub classes: usize,
    /// Optimizer settings (when training the model).
    pub opt: SgdConfig,
    /// vCPUs available to the data pipeline (for energy accounting).
    pub vcpus: usize,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            profile: ModelProfile::slowfast(),
            epochs: 0..1,
            iters_per_epoch: 1,
            train_model: false,
            classes: 4,
            opt: SgdConfig::default(),
            vcpus: 12,
        }
    }
}

/// The outcome of one training run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Loader strategy name.
    pub loader: String,
    /// Model name.
    pub model: String,
    /// Total wall time of the run.
    pub wall: Duration,
    /// GPU busy time spent on training compute.
    pub gpu_compute: Duration,
    /// GPU busy time spent on preprocessing (GPU baseline only).
    pub gpu_preprocess: Duration,
    /// GPU time stalled waiting for data.
    pub gpu_stall: Duration,
    /// Training utilization: compute / (compute + preprocess + stall).
    pub utilization: f64,
    /// Cumulative CPU preprocessing work.
    pub cpu_work: Duration,
    /// Energy split over the run.
    pub energy: EnergyBreakdown,
    /// Iterations completed.
    pub iterations: u64,
    /// Per-iteration training losses (empty unless `train_model`).
    pub losses: Vec<f32>,
    /// Codec work counters.
    pub decode: sand_codec::DecodeStats,
    /// Final model accuracy on the last epoch's batches (when training).
    pub accuracy: f32,
}

impl RunReport {
    /// Speedup of this run relative to `other` (wall time ratio).
    #[must_use]
    pub fn speedup_over(&self, other: &RunReport) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        other.wall.as_secs_f64() / self.wall.as_secs_f64()
    }
}

/// Runs loaders against a simulated GPU.
pub struct Trainer {
    gpu: Arc<GpuSim>,
    power: PowerModel,
    telemetry: Telemetry,
}

impl Trainer {
    /// Creates a trainer on the given simulated GPU.
    #[must_use]
    pub fn new(gpu: Arc<GpuSim>, power: PowerModel) -> Self {
        Trainer {
            gpu,
            power,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Records into `telemetry`'s registry instead of the trainer's own:
    /// every run records `loader.<name>.{stall_us,batches,cpu_work_us}`,
    /// so SAND and the baseline loaders share one registry and stall
    /// attribution reads uniformly across strategies.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Runs one training job to completion.
    pub fn run(&self, loader: &mut dyn Loader, config: &TrainerConfig) -> Result<RunReport> {
        let loader_metrics = LoaderMetrics::register(&self.telemetry, loader.name());
        let cpu_work_before = loader.cpu_work();
        let mut model = if config.train_model {
            Some(LinearSoftmax::new(config.classes, config.opt)?)
        } else {
            None
        };
        let started = Instant::now();
        let mut gpu_compute = Duration::ZERO;
        let mut gpu_preprocess = Duration::ZERO;
        let mut gpu_stall = Duration::ZERO;
        let mut iterations = 0u64;
        let mut losses = Vec::new();
        let mut last_acc = 0.0f32;
        for epoch in config.epochs.clone() {
            for it in 0..config.iters_per_epoch {
                let wait_started = Instant::now();
                let batch = loader.next_batch(epoch, it)?;
                let stall = wait_started.elapsed();
                gpu_stall += stall;
                self.gpu.record_stall(stall);
                loader_metrics.stall_us.observe_duration(stall);
                loader_metrics.batches.inc();
                if !batch.gpu_preprocess.is_zero() {
                    // GPU-side preprocessing occupies the device before
                    // training can start.
                    gpu_preprocess += batch.gpu_preprocess;
                    std::thread::sleep(batch.gpu_preprocess);
                }
                let n = batch.tensor.shape().first().copied().unwrap_or(1);
                let compute = config.profile.compute_time(n);
                if let Some(m) = &mut model {
                    let feats = batch_features(&batch.tensor)?;
                    let loss = m.train_step(&feats, &batch.labels)?;
                    losses.push(loss);
                    last_acc = m.accuracy(&feats, &batch.labels);
                }
                self.gpu.record_compute(compute);
                std::thread::sleep(compute);
                gpu_compute += compute;
                iterations += 1;
            }
        }
        let wall = started.elapsed();
        let busy_total = gpu_compute + gpu_preprocess + gpu_stall;
        let utilization = if busy_total.is_zero() {
            0.0
        } else {
            gpu_compute.as_secs_f64() / busy_total.as_secs_f64()
        };
        let cpu_work = loader.cpu_work();
        // The loader's counter is lifetime-cumulative; bill only this
        // run's share so repeated runs don't double-count.
        loader_metrics
            .cpu_work_us
            .add(cpu_work.saturating_sub(cpu_work_before).as_micros() as u64);
        // Package-level CPU busy seconds: total work spread over vCPUs,
        // capped at the wall clock.
        let cpu_busy =
            (cpu_work.as_secs_f64() / config.vcpus.max(1) as f64).min(wall.as_secs_f64());
        let gpu_busy = (gpu_compute + gpu_preprocess)
            .as_secs_f64()
            .min(wall.as_secs_f64());
        let energy = self.power.energy(
            UsageWindow::new(cpu_busy, wall.as_secs_f64()),
            UsageWindow::new(gpu_busy, wall.as_secs_f64()),
        );
        Ok(RunReport {
            loader: loader.name().to_string(),
            model: config.profile.name.clone(),
            wall,
            gpu_compute,
            gpu_preprocess,
            gpu_stall,
            utilization,
            cpu_work,
            energy,
            iterations,
            losses,
            decode: loader.decode_stats(),
            accuracy: last_acc,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loaders::{
        IdealLoader, NaiveCacheLoader, OnDemandCpuLoader, OnDemandGpuLoader, SandLoader,
    };
    use crate::plan::TaskPlan;
    use sand_codec::{Dataset, DatasetSpec, EncoderConfig};
    use sand_config::parse_task_config;
    use sand_core::{EngineConfig, SandEngine};
    use sand_sim::{GpuSpec, NvdecModel};

    const TASK: &str = r#"
dataset:
  tag: train
  input_source: file
  video_dataset_path: /d
  sampling:
    videos_per_batch: 2
    frames_per_video: 4
    frame_stride: 2
  augmentation:
    - name: r
      branch_type: single
      inputs: ["frame"]
      outputs: ["a0"]
      config:
        - resize:
            shape: [16, 16]
    - name: c
      branch_type: single
      inputs: ["a0"]
      outputs: ["a1"]
      config:
        - random_crop:
            shape: [8, 8]
"#;

    fn dataset() -> Arc<Dataset> {
        Arc::new(
            Dataset::generate(&DatasetSpec {
                num_videos: 4,
                num_classes: 2,
                width: 32,
                height: 32,
                frames_per_video: 24,
                encoder: EncoderConfig {
                    gop_size: 6,
                    quantizer: 4,
                    fps_milli: 30_000,
                    b_frames: 0,
                },
                ..Default::default()
            })
            .unwrap(),
        )
    }

    fn tiny_profile() -> ModelProfile {
        ModelProfile {
            name: "tiny".into(),
            iter_time: Duration::from_millis(3),
            ref_batch: 2,
            mem_bytes_per_pixel: 1.0,
            fixed_mem_bytes: 0,
        }
    }

    fn config(epochs: Range<u64>) -> TrainerConfig {
        TrainerConfig {
            profile: tiny_profile(),
            epochs,
            iters_per_epoch: 2,
            train_model: true,
            classes: 2,
            vcpus: 4,
            ..Default::default()
        }
    }

    fn trainer() -> Trainer {
        Trainer::new(
            Arc::new(GpuSim::new(GpuSpec::a100())),
            PowerModel::default(),
        )
    }

    #[test]
    fn cpu_loader_trains_end_to_end() {
        let ds = dataset();
        let cfg = parse_task_config(TASK).unwrap();
        let plan = Arc::new(TaskPlan::single_task(&cfg, &ds, 0..2, 7).unwrap());
        let mut loader = OnDemandCpuLoader::new(Arc::clone(&ds), plan, 2, 2);
        let report = trainer().run(&mut loader, &config(0..2)).unwrap();
        assert_eq!(report.iterations, 4);
        assert_eq!(report.losses.len(), 4);
        assert!(report.decode.frames_decoded > 0);
        assert!(report.cpu_work > Duration::ZERO);
        assert!(report.energy.total() > 0.0);
    }

    #[test]
    fn ideal_loader_has_negligible_stall() {
        let ds = dataset();
        let cfg = parse_task_config(TASK).unwrap();
        let plan = TaskPlan::single_task(&cfg, &ds, 0..1, 7).unwrap();
        let mut loader = IdealLoader::new(&ds, &plan).unwrap();
        let report = trainer().run(&mut loader, &config(0..1)).unwrap();
        assert!(report.utilization > 0.9, "util {}", report.utilization);
    }

    #[test]
    fn gpu_loader_bills_device_preprocessing() {
        let ds = dataset();
        let cfg = parse_task_config(TASK).unwrap();
        let plan = Arc::new(TaskPlan::single_task(&cfg, &ds, 0..1, 7).unwrap());
        // A slow NVDEC makes the billing visible.
        let mut spec = GpuSpec::a100();
        spec.nvdec_pixels_per_sec = 5.0e6;
        let mut loader = OnDemandGpuLoader::new(Arc::clone(&ds), plan, NvdecModel::new(spec), 2, 2);
        let report = trainer().run(&mut loader, &config(0..1)).unwrap();
        assert!(report.gpu_preprocess > Duration::ZERO);
        assert_eq!(report.cpu_work, Duration::ZERO);
        assert!(report.utilization < 0.9);
    }

    #[test]
    fn naive_cache_gets_hits_within_epoch_overlap() {
        let ds = dataset();
        let cfg = parse_task_config(TASK).unwrap();
        let plan = Arc::new(TaskPlan::single_task(&cfg, &ds, 0..3, 7).unwrap());
        let mut loader = NaiveCacheLoader::new(Arc::clone(&ds), plan, 2, 2, 1 << 30);
        let report = trainer().run(&mut loader, &config(0..3)).unwrap();
        assert_eq!(report.iterations, 6);
        // Unlimited-ish budget: epochs 2-3 hit frames decoded earlier
        // whenever anchors overlap; at minimum the counters are sane.
        assert_eq!(loader.cache_hits() + loader.cache_misses(), 3 * 4 * 4);
    }

    #[test]
    fn sand_loader_beats_cpu_baseline_on_decodes() {
        let ds = dataset();
        let cfg = parse_task_config(TASK).unwrap();
        // SAND engine run.
        let engine = SandEngine::new(
            EngineConfig {
                tasks: vec![cfg.clone()],
                total_epochs: 4,
                epochs_per_chunk: 4,
                seed: 7,
                ..Default::default()
            },
            Arc::clone(&ds),
        )
        .unwrap();
        engine.start().unwrap();
        engine.wait_idle();
        let mut sand = SandLoader::new(engine, "train");
        let sand_report = trainer().run(&mut sand, &config(0..4)).unwrap();
        // CPU baseline run over the same plan seed.
        let plan = Arc::new(TaskPlan::single_task(&cfg, &ds, 0..4, 7).unwrap());
        let mut cpu = OnDemandCpuLoader::new(Arc::clone(&ds), plan, 2, 2);
        let cpu_report = trainer().run(&mut cpu, &config(0..4)).unwrap();
        assert!(
            sand_report.decode.frames_decoded < cpu_report.decode.frames_decoded,
            "sand {} vs cpu {}",
            sand_report.decode.frames_decoded,
            cpu_report.decode.frames_decoded
        );
        // Both strategies saw identical batches (same plan, same seed):
        // identical loss trajectories.
        for (a, b) in sand_report.losses.iter().zip(cpu_report.losses.iter()) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn baseline_loaders_record_into_telemetry_registry() {
        let ds = dataset();
        let cfg = parse_task_config(TASK).unwrap();
        let telemetry = sand_core::Telemetry::new(sand_core::TelemetryConfig::default());
        let t = trainer().with_telemetry(telemetry.clone());
        let plan = Arc::new(TaskPlan::single_task(&cfg, &ds, 0..1, 7).unwrap());
        let mut loader = OnDemandCpuLoader::new(Arc::clone(&ds), plan, 2, 2);
        let report = t.run(&mut loader, &config(0..1)).unwrap();
        let snap = telemetry.snapshot();
        let counter = |name: &str| match snap.get(name) {
            Some(sand_core::MetricValue::Counter(v)) => *v,
            other => panic!("{name}: expected counter, got {other:?}"),
        };
        assert_eq!(counter("loader.on-demand-cpu.batches"), report.iterations);
        assert!(counter("loader.on-demand-cpu.cpu_work_us") > 0);
        match snap.get("loader.on-demand-cpu.stall_us") {
            Some(sand_core::MetricValue::Histogram(h)) => {
                assert_eq!(h.count, report.iterations, "one stall sample per iteration");
            }
            other => panic!("loader.on-demand-cpu.stall_us: expected histogram, got {other:?}"),
        }
        // A disabled-telemetry trainer records nothing and still runs.
        let plan = Arc::new(TaskPlan::single_task(&cfg, &ds, 0..1, 7).unwrap());
        let mut loader = OnDemandCpuLoader::new(Arc::clone(&ds), plan, 2, 2);
        trainer().run(&mut loader, &config(0..1)).unwrap();
    }

    #[test]
    fn prefetching_engine_trains_identically_and_hits() {
        let ds = dataset();
        let cfg = parse_task_config(TASK).unwrap();
        let run = |prefetch_depth: usize| {
            let engine = SandEngine::new(
                EngineConfig {
                    tasks: vec![cfg.clone()],
                    total_epochs: 4,
                    epochs_per_chunk: 4,
                    seed: 7,
                    prefetch_depth,
                    telemetry: Some(sand_core::TelemetryConfig::default()),
                    ..Default::default()
                },
                Arc::clone(&ds),
            )
            .unwrap();
            engine.start().unwrap();
            engine.wait_idle();
            let telemetry = engine.telemetry().clone();
            let mut loader = SandLoader::new(engine, "train");
            let t = trainer().with_telemetry(telemetry.clone());
            let report = t.run(&mut loader, &config(0..4)).unwrap();
            (report, telemetry)
        };
        let (base, _) = run(0);
        let (pre, telemetry) = run(2);
        // The prefetch window only moves when materialization runs:
        // identical batches, identical loss trajectory.
        assert_eq!(base.losses.len(), pre.losses.len());
        for (a, b) in base.losses.iter().zip(pre.losses.iter()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
        let snap = telemetry.snapshot();
        let counter = |name: &str| match snap.get(name) {
            Some(sand_core::MetricValue::Counter(v)) => *v,
            other => panic!("{name}: expected counter, got {other:?}"),
        };
        // GPU compute sleeps give the window time to fill: the epoch-ahead
        // path must actually serve batches (hit or arrive-late), not
        // degenerate to all-miss inline serving.
        assert!(
            counter("prefetch.hit") + counter("prefetch.late") > 0,
            "prefetcher never served a batch (hit {}, late {}, miss {})",
            counter("prefetch.hit"),
            counter("prefetch.late"),
            counter("prefetch.miss"),
        );
        // Counter conservation: `scheduled` counts one per window entry
        // and every entry settles exactly one outcome. Serves that found
        // no entry (e.g. the cold start) count nowhere, so outcomes are
        // bounded by, not equal to, the iteration count.
        assert_eq!(
            counter("prefetch.scheduled"),
            counter("prefetch.hit")
                + counter("prefetch.late")
                + counter("prefetch.miss")
                + counter("prefetch.cancelled"),
            "every scheduled entry settles exactly one outcome"
        );
        assert!(
            counter("prefetch.hit") + counter("prefetch.late") + counter("prefetch.miss")
                <= base.iterations,
            "at most one outcome per serve"
        );
        // The SAND loader shares the registry with the baselines.
        assert_eq!(counter("loader.sand.batches"), pre.iterations);
    }

    #[test]
    fn loss_decreases_across_epochs() {
        // Needs a dataset big enough that an epoch is more than two
        // 2-sample batches: with only 4 videos, SGD memorizes each tiny
        // (often single-class) batch and forgets the previous one, so the
        // pre-update loss oscillates instead of decreasing.
        let ds = Arc::new(
            Dataset::generate(&DatasetSpec {
                num_videos: 8,
                num_classes: 2,
                width: 32,
                height: 32,
                frames_per_video: 24,
                encoder: EncoderConfig {
                    gop_size: 6,
                    quantizer: 4,
                    fps_milli: 30_000,
                    b_frames: 0,
                },
                ..Default::default()
            })
            .unwrap(),
        );
        let cfg = parse_task_config(TASK).unwrap();
        let plan = TaskPlan::single_task(&cfg, &ds, 0..8, 17).unwrap();
        let mut loader = IdealLoader::new(&ds, &plan).unwrap();
        let mut tc = config(0..8);
        tc.iters_per_epoch = 4;
        tc.opt.lr = 0.3;
        let report = trainer().run(&mut loader, &tc).unwrap();
        let first: f32 = report.losses[..4].iter().sum::<f32>() / 4.0;
        let last: f32 = report.losses[report.losses.len() - 4..].iter().sum::<f32>() / 4.0;
        assert!(last < first, "loss did not decrease: {first} -> {last}");
    }
}
