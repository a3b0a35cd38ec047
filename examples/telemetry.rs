//! The telemetry subsystem as a command-line tool.
//!
//! Generates a synthetic dataset, runs a short training workload with
//! telemetry enabled, and prints the stall-attribution report plus the
//! full metric snapshot — as aligned tables, or as JSON lines with
//! `--json`.
//!
//! ```text
//! cargo run --release --example telemetry
//! cargo run --release --example telemetry -- --json > metrics.jsonl
//! cargo run --release --example telemetry -- --quick --check
//! cargo run --release --example telemetry -- --stall-budget-us 5000
//! ```
//!
//! `--check` validates the run instead of (only) printing it: the JSONL
//! export must parse, the expected metric families must be present, and
//! every batch trace's stage breakdown must sum to its serve latency.
//!
//! Exit status: `0` ok, `1` a `--check` validation failed, `2` usage
//! error.

#![allow(clippy::unwrap_used)]

use sand::codec::{Dataset, DatasetSpec};
use sand::core::{EngineConfig, SandEngine, TelemetryConfig};
use sand::frame::Tensor;
use sand::telemetry::validate_jsonl;
use sand::vfs::ViewPath;
use std::process::ExitCode;
use std::sync::Arc;

/// The same two-stage pipeline the quickstart example trains on.
const PIPELINE: &str = r#"
dataset:
  tag: "train"
  input_source: file
  video_dataset_path: /dataset/train
  sampling:
    videos_per_batch: 4
    frames_per_video: 8
    frame_stride: 4
  augmentation:
    - name: "augment_resize"
      branch_type: "single"
      inputs: ["frame"]
      outputs: ["augmented_frame_0"]
      config:
        - resize:
            shape: [48, 48]
            interpolation: ["bilinear"]
    - name: "augment_crop"
      branch_type: "single"
      inputs: ["augmented_frame_0"]
      outputs: ["augmented_frame_1"]
      config:
        - random_crop:
            shape: [40, 40]
        - flip:
            flip_prob: 0.5
        - normalize:
            mean: [0.45, 0.45, 0.45]
            std: [0.225, 0.225, 0.225]
"#;

struct Args {
    json: bool,
    check: bool,
    quick: bool,
    epochs: u64,
    videos: usize,
    frames: usize,
    stall_budget_us: u64,
}

const USAGE: &str = "usage: telemetry [options]\n\
  --json               emit JSON lines (metrics then traces) instead of tables\n\
  --check              validate the export and stall-attribution invariants\n\
  --quick              smaller workload (1 epoch, 4 videos)\n\
  --epochs N           total training epochs (default 2)\n\
  --videos N           synthetic dataset size (default 8)\n\
  --frames N           frames per synthetic video (default 48)\n\
  --stall-budget-us N  stall budget in microseconds; 0 reports every batch (default 0)";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        json: false,
        check: false,
        quick: false,
        epochs: 2,
        videos: 8,
        frames: 48,
        stall_budget_us: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut num = |name: &str| -> Result<u64, String> {
            it.next()
                .ok_or_else(|| format!("{name} needs a value"))?
                .parse::<u64>()
                .map_err(|e| format!("{name}: {e}"))
        };
        match a.as_str() {
            "--json" => args.json = true,
            "--check" => args.check = true,
            "--quick" => args.quick = true,
            "--epochs" => args.epochs = num("--epochs")?,
            "--videos" => args.videos = num("--videos")? as usize,
            "--frames" => args.frames = num("--frames")? as usize,
            "--stall-budget-us" => args.stall_budget_us = num("--stall-budget-us")?,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown option `{other}`\n{USAGE}")),
        }
    }
    if args.quick {
        args.epochs = args.epochs.min(1);
        args.videos = args.videos.min(4);
        args.frames = args.frames.min(32);
    }
    Ok(args)
}

/// Metric families the instrumented engine must always export.
const EXPECTED_FAMILIES: &[&str] = &["aug", "decode", "engine", "sched", "store", "vfs"];

/// Validate the JSONL export and the stall-attribution invariant: every
/// trace's ten µs stage segments must reassemble its serve latency
/// (each segment loses < 1 µs to ns→µs integer division).
fn check(metrics_jsonl: &str, traces_jsonl: &str, batches: u64) -> Result<(), String> {
    let metrics = validate_jsonl(metrics_jsonl).map_err(|e| format!("metrics export: {e}"))?;
    let traces = validate_jsonl(traces_jsonl).map_err(|e| format!("trace export: {e}"))?;
    for fam in EXPECTED_FAMILIES {
        let present = metrics
            .iter()
            .any(|m| m.get("family").and_then(|f| f.as_str()) == Some(fam));
        if !present {
            return Err(format!("metric family `{fam}` missing from export"));
        }
    }
    if traces.len() != batches as usize {
        return Err(format!(
            "expected {batches} batch traces, export has {}",
            traces.len()
        ));
    }
    for t in &traces {
        let field = |name: &str| -> Result<u64, String> {
            t.get(name)
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("trace missing numeric field `{name}`"))
        };
        let serve = field("serve_us")?;
        let sum = field("plan_us")?
            + field("prefetch_us")?
            + field("queue_wait_us")?
            + field("decode_us")?
            + field("store_io_us")?
            + field("remote_us")?
            + field("persist_us")?
            + field("aug_us")?
            + field("exec_other_us")?
            + field("finalize_us")?;
        // 10 segments, each rounded down independently of the total.
        if sum > serve || serve - sum > 10 {
            let batch = t.get("batch").and_then(|b| b.as_str()).unwrap_or("?");
            return Err(format!(
                "batch {batch}: stage breakdown sums to {sum} µs but serve latency is {serve} µs"
            ));
        }
    }
    Ok(())
}

fn run(args: &Args) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let dataset = Arc::new(Dataset::generate(&DatasetSpec {
        num_videos: args.videos,
        frames_per_video: args.frames,
        ..Default::default()
    })?);

    let engine = SandEngine::new(
        EngineConfig {
            tasks: vec![sand::config::parse_task_config(PIPELINE)?],
            total_epochs: args.epochs,
            telemetry: Some(TelemetryConfig {
                stall_budget_us: args.stall_budget_us,
                ..Default::default()
            }),
            ..Default::default()
        },
        dataset,
    )?;
    engine.start()?;
    let iters = engine.iterations_per_epoch("train").expect("task exists");
    let vfs = engine.mount();

    // The training loop: every batch read through the view filesystem.
    for epoch in 0..args.epochs {
        for iteration in 0..iters {
            let path = ViewPath::batch("train", epoch, iteration);
            let fd = vfs.open(&path)?;
            let bytes = vfs.read_to_end(fd)?;
            let _batch = Tensor::from_bytes(&bytes)?;
            vfs.close(fd)?;
        }
    }

    let snapshot = engine.metrics_snapshot().expect("telemetry is enabled");
    let report = engine.stall_report().expect("telemetry is enabled");

    if args.json {
        print!("{}", snapshot.render_jsonl());
        print!("{}", report.render_jsonl());
    } else {
        println!("{}", report.render_table());
        println!("{}", snapshot.render_table());
    }

    if args.check {
        let batches = args.epochs * iters;
        if let Err(msg) = check(&snapshot.render_jsonl(), &report.render_jsonl(), batches) {
            eprintln!("telemetry: check failed: {msg}");
            return Ok(ExitCode::from(1));
        }
        eprintln!(
            "telemetry: check ok — {} metric families, {} traces, breakdowns sum to serve latency",
            snapshot.families().len(),
            batches
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("telemetry: {e}");
            ExitCode::from(2)
        }
    }
}
