//! Distributed data-parallel training with remote storage (Fig. 14).
//!
//! Multiple single-GPU nodes train one model data-parallel: the dataset
//! is sharded across nodes, every iteration ends in an all-reduce
//! barrier, and the *source videos live in a WAN-attached remote store*
//! with limited bandwidth. The strategies differ in how they touch that
//! store:
//!
//! - **SAND**: each node fetches its shard once, then the engine caches
//!   and pre-materializes locally — WAN traffic is one pass over the
//!   encoded shard,
//! - **baseline**: on-demand pipelines stream the encoded videos from the
//!   remote store again every epoch (nothing is retained), so WAN bytes
//!   scale with the epoch count.

use crate::{RayError, Result};
use parking_lot::Mutex;
use sand_codec::{Dataset, EncodedVideo, VideoEntry};
use sand_config::TaskConfig;
use sand_core::{EngineConfig, SandEngine};
use sand_sim::{GpuSim, GpuSpec, ModelProfile, PowerModel, UsageWindow};
use sand_storage::{BandwidthModel, ModeledStore};
use sand_train::loaders::{OnDemandCpuLoader, SandLoader};
use sand_train::{Loader, TaskPlan};
use std::ops::Range;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// DDP experiment configuration.
#[derive(Debug, Clone)]
pub struct DdpConfig {
    /// Number of single-GPU nodes.
    pub nodes: usize,
    /// The training pipeline (same on every node).
    pub task: TaskConfig,
    /// GPU compute profile.
    pub profile: ModelProfile,
    /// Epoch span.
    pub epochs: Range<u64>,
    /// WAN link model between each node and the remote store.
    pub bandwidth: BandwidthModel,
    /// SAND (true) or the on-demand CPU baseline (false).
    pub use_sand: bool,
    /// Plan seed.
    pub seed: u64,
    /// CPU workers per node.
    pub workers_per_node: usize,
}

/// DDP experiment outcome.
#[derive(Debug, Clone)]
pub struct DdpOutcome {
    /// Wall time of the run.
    pub wall: Duration,
    /// Total bytes served by the remote store.
    pub bytes_fetched: u64,
    /// Total fetch requests.
    pub fetches: u64,
    /// Per-node GPU utilization.
    pub utilization: Vec<f64>,
    /// Iterations per node.
    pub iterations: u64,
    /// Total energy across nodes.
    pub energy_j: f64,
}

/// Fetches one shard from the remote store, sleeping the modeled WAN
/// time, and assembles a local dataset.
fn fetch_shard(remote: &ModeledStore, shard: &[String]) -> Result<Dataset> {
    let mut videos = Vec::with_capacity(shard.len());
    for key in shard {
        let (bytes, wan) = remote.fetch(key)?;
        std::thread::sleep(wan);
        let encoded = EncodedVideo::from_bytes(&bytes).map_err(|e| RayError::State {
            what: format!("bad remote video: {e}"),
        })?;
        videos.push(VideoEntry {
            video_id: encoded.header.video_id,
            class_id: encoded.header.class_id,
            name: sand_codec::dataset::video_name(encoded.header.video_id),
            encoded: Arc::new(encoded),
        });
    }
    Ok(Dataset::from_videos(videos))
}

/// Runs the DDP experiment over `dataset`.
pub fn run_ddp(config: &DdpConfig, dataset: &Dataset) -> Result<DdpOutcome> {
    if config.nodes == 0 || dataset.len() < config.nodes {
        return Err(RayError::State {
            what: "need >= 1 video per node".into(),
        });
    }
    // Stage the dataset in the remote store.
    let remote = Arc::new(ModeledStore::new(config.bandwidth));
    for v in dataset.videos() {
        remote.upload(
            &sand_codec::dataset::video_file_name(v.video_id),
            v.encoded.to_bytes(),
        );
    }
    // Shard round-robin.
    let shards: Vec<Vec<String>> = (0..config.nodes)
        .map(|n| {
            dataset
                .videos()
                .iter()
                .filter(|v| (v.video_id as usize) % config.nodes == n)
                .map(|v| sand_codec::dataset::video_file_name(v.video_id))
                .collect()
        })
        .collect();
    let shard_len = shards[0].len();
    let vpb = config.task.sampling.videos_per_batch;
    let iters_per_epoch = (shard_len as u64).div_ceil(vpb as u64);
    let total_iters = iters_per_epoch * (config.epochs.end - config.epochs.start);
    let barrier = Arc::new(Barrier::new(config.nodes));
    let gpus: Vec<Arc<GpuSim>> = (0..config.nodes)
        .map(|_| Arc::new(GpuSim::new(GpuSpec::a100())))
        .collect();
    let started = Instant::now();
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let cpu_work: Mutex<Duration> = Mutex::new(Duration::ZERO);
    std::thread::scope(|scope| {
        for node in 0..config.nodes {
            let remote = Arc::clone(&remote);
            let barrier = Arc::clone(&barrier);
            let gpu = Arc::clone(&gpus[node]);
            let shard = shards[node].clone();
            let config = config.clone();
            let errors = &errors;
            let cpu_work = &cpu_work;
            scope.spawn(move || {
                let run = || -> Result<Duration> {
                    let mut work = Duration::ZERO;
                    if config.use_sand {
                        // One WAN pass, then everything is local.
                        let local = Arc::new(fetch_shard(&remote, &shard)?);
                        let engine = SandEngine::new(
                            EngineConfig {
                                tasks: vec![config.task.clone()],
                                total_epochs: config.epochs.end,
                                seed: config.seed ^ node as u64,
                                sched: sand_sched::SchedConfig {
                                    threads: config.workers_per_node,
                                    ..Default::default()
                                },
                                ..Default::default()
                            },
                            local,
                        )?;
                        engine.start()?;
                        let mut loader = SandLoader::new(engine, &config.task.tag);
                        for epoch in config.epochs.clone() {
                            for it in 0..iters_per_epoch {
                                let wait = Instant::now();
                                let batch = loader.next_batch(epoch, it)?;
                                gpu.record_stall(wait.elapsed());
                                let n = batch.tensor.shape().first().copied().unwrap_or(1);
                                // All-reduce barrier.
                                barrier.wait();
                                let compute = config.profile.compute_time(n);
                                gpu.record_compute(compute);
                                std::thread::sleep(compute);
                            }
                        }
                        work = loader.cpu_work();
                    } else {
                        // Baseline: stream the shard from remote EVERY
                        // epoch, decode on demand.
                        for epoch in config.epochs.clone() {
                            let local = Arc::new(fetch_shard(&remote, &shard)?);
                            let plan = Arc::new(TaskPlan::single_task(
                                &config.task,
                                &local,
                                epoch..epoch + 1,
                                config.seed ^ node as u64,
                            )?);
                            let mut loader = OnDemandCpuLoader::new(
                                Arc::clone(&local),
                                plan,
                                config.workers_per_node,
                                2,
                            );
                            for it in 0..iters_per_epoch {
                                let wait = Instant::now();
                                let batch = loader.next_batch(epoch, it)?;
                                gpu.record_stall(wait.elapsed());
                                let n = batch.tensor.shape().first().copied().unwrap_or(1);
                                barrier.wait();
                                let compute = config.profile.compute_time(n);
                                gpu.record_compute(compute);
                                std::thread::sleep(compute);
                            }
                            work += loader.cpu_work();
                        }
                    }
                    Ok(work)
                };
                match run() {
                    Ok(w) => *cpu_work.lock() += w,
                    Err(e) => errors.lock().push(e.to_string()),
                }
            });
        }
    });
    let errors = errors.into_inner();
    if let Some(e) = errors.first() {
        return Err(RayError::State {
            what: format!("node failed: {e}"),
        });
    }
    let wall = started.elapsed();
    let power = PowerModel::default();
    let total_cpu = cpu_work.into_inner();
    let energy_j: f64 = gpus
        .iter()
        .map(|g| {
            let busy = g.busy_time().as_secs_f64().min(wall.as_secs_f64());
            let cpu_busy = (total_cpu.as_secs_f64()
                / (config.nodes * config.workers_per_node.max(1)) as f64)
                .min(wall.as_secs_f64());
            power
                .energy(
                    UsageWindow::new(cpu_busy, wall.as_secs_f64()),
                    UsageWindow::new(busy, wall.as_secs_f64()),
                )
                .total()
        })
        .sum();
    Ok(DdpOutcome {
        wall,
        bytes_fetched: remote.bytes_fetched(),
        fetches: remote.fetches(),
        utilization: gpus.iter().map(|g| g.utilization()).collect(),
        iterations: total_iters,
        energy_j,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sand_codec::DatasetSpec;
    use sand_config::parse_task_config;

    const TASK: &str = r#"
dataset:
  tag: ddp
  input_source: streaming
  video_dataset_path: /remote
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
"#;

    fn dataset() -> Dataset {
        Dataset::generate(&DatasetSpec {
            num_videos: 8,
            num_classes: 2,
            width: 32,
            height: 32,
            frames_per_video: 24,
            ..Default::default()
        })
        .unwrap()
    }

    fn config(use_sand: bool) -> DdpConfig {
        DdpConfig {
            nodes: 2,
            task: parse_task_config(TASK).unwrap(),
            profile: ModelProfile {
                name: "tiny".into(),
                iter_time: Duration::from_millis(2),
                ref_batch: 2,
                mem_bytes_per_pixel: 1.0,
                fixed_mem_bytes: 0,
            },
            epochs: 0..3,
            bandwidth: BandwidthModel {
                bytes_per_sec: 500.0e6,
                latency: Duration::from_micros(200),
            },
            use_sand,
            seed: 7,
            workers_per_node: 2,
        }
    }

    #[test]
    fn sand_fetches_shard_once_baseline_every_epoch() {
        let ds = dataset();
        let sand = run_ddp(&config(true), &ds).unwrap();
        let base = run_ddp(&config(false), &ds).unwrap();
        assert_eq!(sand.fetches, 8, "one fetch per video");
        assert_eq!(base.fetches, 8 * 3, "one fetch per video per epoch");
        assert!(sand.bytes_fetched * 2 < base.bytes_fetched);
        // WAN byte ratio should approximate 1/epochs.
        let ratio = sand.bytes_fetched as f64 / base.bytes_fetched as f64;
        assert!((ratio - 1.0 / 3.0).abs() < 0.05, "ratio {ratio}");
        assert_eq!(sand.iterations, base.iterations);
    }

    #[test]
    fn all_nodes_complete_same_iterations() {
        let ds = dataset();
        let out = run_ddp(&config(true), &ds).unwrap();
        assert_eq!(out.utilization.len(), 2);
        assert_eq!(out.iterations, 6); // 4 videos/shard / vpb 2 * 3 epochs
        assert!(out.energy_j > 0.0);
    }

    #[test]
    fn too_few_videos_rejected() {
        let ds = dataset();
        let mut cfg = config(true);
        cfg.nodes = 100;
        assert!(run_ddp(&cfg, &ds).is_err());
    }
}
