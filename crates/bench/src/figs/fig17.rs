//! Figure 17: preprocessing time under changing storage budgets.
//!
//! Object-graph pruning picks *which* objects to cache so the budget is
//! spent where recomputation is most expensive; the baseline caches only
//! final training objects and lets watermark eviction cope. Paper: at
//! 3 TB pruning cuts recompute 10%; at the tighter 1.5 TB, 25%.

use crate::strategies::HarnessResult;
use crate::table::Table;
use crate::workloads::PIPELINE_WORKERS;
use sand_codec::{Dataset, DatasetSpec, EncoderConfig};
use sand_config::parse_task_config;
use sand_core::{EngineConfig, SandEngine};
use sand_storage::StoreConfig;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The two co-trained tasks. The geometry puts the experiment in the
/// paper's regime: resized intermediates (56x56) are ~3x smaller than the
/// source frames (96x96) and each serves several epochs' crops, so the
/// pruning pass has a genuinely better-than-leaves option to pick.
fn fig17_task(tag: &str, crop: usize) -> sand_config::TaskConfig {
    parse_task_config(&format!(
        r#"
dataset:
  tag: {tag}
  input_source: file
  video_dataset_path: /dataset/shared
  sampling:
    videos_per_batch: 4
    frames_per_video: 12
    frame_stride: 3
  augmentation:
    - name: resize
      branch_type: single
      inputs: ["frame"]
      outputs: ["a0"]
      config:
        - resize:
            shape: [56, 56]
    - name: crop
      branch_type: single
      inputs: ["a0"]
      outputs: ["a1"]
      config:
        - random_crop:
            shape: [{crop}, {crop}]
"#
    ))
    .expect("fig17 task parses")
}

/// Serves every batch of both tasks and reports the mean demand latency.
fn mean_serve_latency(engine: &SandEngine, epochs: u64, tags: &[&str]) -> HarnessResult<Duration> {
    let mut total = Duration::ZERO;
    let mut count = 0u32;
    for epoch in 0..epochs {
        for tag in tags {
            let iters = engine.iterations_per_epoch(tag).unwrap_or(0);
            for it in 0..iters {
                let t0 = Instant::now();
                engine.serve_batch(tag, epoch, it)?;
                total += t0.elapsed();
                count += 1;
            }
        }
    }
    Ok(total / count.max(1))
}

fn run_case(
    ds: &Arc<Dataset>,
    tasks: &[sand_config::TaskConfig],
    epochs: u64,
    budget: u64,
    prune: bool,
) -> HarnessResult<Duration> {
    let dir = std::env::temp_dir().join(format!(
        "sand_fig17_{}_{}_{}",
        std::process::id(),
        budget,
        prune
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = SandEngine::new(
        EngineConfig {
            tasks: tasks.to_vec(),
            total_epochs: epochs,
            epochs_per_chunk: epochs,
            seed: 7,
            prune,
            naive_leaf_cache: !prune,
            cache_budget: budget,
            store: StoreConfig {
                memory_budget: 48 << 20,
                disk_budget: budget * 3 / 2,
                memory_horizon: 2,
                ..Default::default()
            },
            store_dir: Some(dir.clone()),
            sched: sand_sched::SchedConfig {
                threads: PIPELINE_WORKERS,
                ..Default::default()
            },
            ..Default::default()
        },
        Arc::clone(ds),
    )?;
    engine.start()?;
    engine.wait_idle();
    let tags: Vec<&str> = tasks.iter().map(|t| t.tag.as_str()).collect();
    let latency = mean_serve_latency(&engine, epochs, &tags)?;
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(latency)
}

/// Runs the storage-budget sweep.
pub fn run(quick: bool) -> HarnessResult<String> {
    let spec = DatasetSpec {
        num_videos: if quick { 4 } else { 12 },
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
    };
    let ds = Arc::new(Dataset::generate(&spec)?);
    // Enough epochs per chunk that the accumulated final training objects
    // outweigh the shared frame pool — the regime the paper's 1.5/3 TB
    // budgets live in (its leaves span k epochs of batches).
    let epochs = if quick { 3 } else { 6 };
    let tasks = vec![fig17_task("taskA", 48), fig17_task("taskB", 40)];
    // Budget reference: total bytes of the final training objects (leaf
    // nodes) of the real two-task plan.
    let videos: Vec<sand_graph::VideoMeta> = ds
        .videos()
        .iter()
        .map(|v| {
            let h = &v.encoded.header;
            sand_graph::VideoMeta {
                video_id: v.video_id,
                frames: v.encoded.frame_count(),
                width: h.width,
                height: h.height,
                channels: h.format.channels(),
                gop_size: h.gop_size,
                encoded_bytes: v.encoded.encoded_size(),
            }
        })
        .collect();
    let probe = sand_graph::Planner::new(
        tasks
            .iter()
            .enumerate()
            .map(|(i, t)| sand_graph::PlanInput {
                task_id: i as u32,
                config: t.clone(),
            })
            .collect(),
        videos,
        sand_graph::PlannerOptions {
            seed: 7,
            coordinate: true,
            epochs: 0..epochs,
        },
    )?
    .plan()?;
    let leaf_bytes: u64 = probe
        .nodes
        .iter()
        .filter(|n| n.children.is_empty())
        .map(|n| n.size_bytes)
        .sum();
    let mut table = Table::new(&[
        "budget",
        "prep/iter (no pruning)",
        "prep/iter (pruned)",
        "pruning saves",
        "paper",
    ]);
    for (name, frac, paper) in [
        ("3TB-like (60%)", 0.60, "-10%"),
        ("1.5TB-like (30%)", 0.30, "-25%"),
    ] {
        let budget = ((leaf_bytes as f64) * frac) as u64;
        let unpruned = run_case(&ds, &tasks, epochs, budget, false)?;
        let pruned = run_case(&ds, &tasks, epochs, budget, true)?;
        let saving = 1.0 - pruned.as_secs_f64() / unpruned.as_secs_f64().max(1e-12);
        table.row(vec![
            name.into(),
            format!("{:.2} ms", unpruned.as_secs_f64() * 1e3),
            format!("{:.2} ms", pruned.as_secs_f64() * 1e3),
            format!("-{:.0}%", saving * 100.0),
            paper.into(),
        ]);
    }
    Ok(format!(
        "Figure 17: mean preprocessing latency per iteration vs storage budget\n(SlowFast + MAE multi-task; pruning vs naive leaf-only caching)\n\n{}",
        table.render()
    ))
}
