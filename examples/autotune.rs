//! The adaptive control plane as a command-line tool.
//!
//! Drives a [`Controller`] through a three-phase simulated signal
//! schedule — sustained pressure (every knob should rise), a dead-band
//! hold (nothing may move), then sustained relief (every knob should
//! fall) — and prints the decision log. This is the paper's closed-loop
//! story in miniature, with the engine replaced by a signal generator so
//! the run is deterministic.
//!
//! ```text
//! cargo run --release --example autotune
//! cargo run --release --example autotune -- --ticks 48 --report-json
//! cargo run --release --example autotune -- --engine
//! ```
//!
//! The run *validates* itself: each policy may reverse direction at most
//! once (the single pressure→relief regime change — anything more is
//! oscillation past its hysteresis band), and the hold phase must commit
//! no decisions. `--engine` additionally runs a real engine closed-loop
//! (telemetry + autotune, one explicit tick per batch) and checks the
//! prefetch conservation invariant and the `autotune.*` metric exports.
//!
//! Exit status: `0` ok, `1` a validation failed, `2` usage error.

#![allow(clippy::unwrap_used)]

use sand::autotune::{AutotuneConfig, Controller, Decision, KnobValues, Signals};
use sand::codec::{Dataset, DatasetSpec};
use sand::core::{EngineConfig, SandEngine, TelemetryConfig};
use sand::storage::StoreConfig;
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
        - normalize:
            mean: [0.45, 0.45, 0.45]
            std: [0.225, 0.225, 0.225]
"#;

struct Args {
    ticks: u64,
    report_json: bool,
    engine: bool,
}

const USAGE: &str = "usage: autotune [options]\n\
  --ticks N       simulated controller ticks across the three phases (default 48)\n\
  --report-json   emit decisions as JSON lines instead of a table\n\
  --engine        also run a real engine closed-loop and validate its exports";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        ticks: 48,
        report_json: false,
        engine: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--ticks" => {
                args.ticks = it
                    .next()
                    .ok_or("--ticks needs a value")?
                    .parse::<u64>()
                    .map_err(|e| format!("--ticks: {e}"))?;
            }
            "--report-json" => args.report_json = true,
            "--engine" => args.engine = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown option `{other}`\n{USAGE}")),
        }
    }
    if args.ticks < 3 {
        return Err("--ticks must be at least 3 (one tick per phase)".into());
    }
    Ok(args)
}

/// Signals for one phase of the simulated schedule.
fn phase_signals(phase: &str) -> Signals {
    match phase {
        // Sustained pressure: late/miss dominate, affinity misses pile
        // up, headroom is ample.
        "pressure" => Signals {
            prefetch_pressure: 0.9,
            prefetch_settled: 100,
            store_headroom: 0.9,
            demand_affinity_miss_ratio: 0.8,
            demand_picks: 50,
            ..Default::default()
        },
        // Dead band: every drive sits strictly inside its hysteresis
        // band, so a well-damped controller must hold every knob.
        "hold" => Signals {
            prefetch_pressure: 0.15,
            prefetch_settled: 100,
            store_headroom: 0.9,
            demand_affinity_miss_ratio: 0.3,
            demand_picks: 50,
            ..Default::default()
        },
        // Sustained relief: hits dominate, affinity hits dominate.
        _ => Signals {
            prefetch_pressure: 0.01,
            prefetch_settled: 100,
            store_headroom: 0.9,
            demand_affinity_miss_ratio: 0.02,
            demand_picks: 50,
            ..Default::default()
        },
    }
}

fn print_decisions(decisions: &[Decision], json: bool) {
    for d in decisions {
        if json {
            println!(
                "{{\"tick\": {}, \"knob\": \"{}\", \"from\": {}, \"to\": {}, \"reason\": \"{}\"}}",
                d.tick,
                d.knob.name(),
                d.from,
                d.to,
                d.reason.replace('"', "\\\"")
            );
        } else {
            println!("{}", d.render());
        }
    }
}

/// The simulated three-phase run; returns an error string on any
/// hysteresis violation.
fn run_simulated(args: &Args) -> Result<(), String> {
    let mut controller = Controller::new(
        AutotuneConfig::default(),
        KnobValues {
            prefetch_depth: 0,
            demand_slack: 0,
        },
    );
    let per_phase = args.ticks / 3;
    let mut all = Vec::new();
    let mut hold_decisions = 0usize;
    for (phase, ticks) in [
        ("pressure", per_phase),
        ("hold", per_phase),
        ("relief", args.ticks - 2 * per_phase),
    ] {
        let s = phase_signals(phase);
        for _ in 0..ticks {
            let decisions = controller.tick_with_signals(&s);
            if phase == "hold" {
                hold_decisions += decisions.len();
            }
            all.extend(decisions);
        }
    }
    print_decisions(&all, args.report_json);
    let v = controller.values();
    if !args.report_json {
        println!(
            "final knobs: prefetch_depth={} demand_slack={}",
            v.prefetch_depth, v.demand_slack
        );
    }
    if hold_decisions > 0 {
        return Err(format!(
            "{hold_decisions} decision(s) committed inside the dead-band hold phase"
        ));
    }
    for (knob, reversals) in controller.reversals() {
        // One regime change (pressure -> relief) permits one reversal;
        // more means the policy oscillated past its hysteresis band.
        if reversals > 1 {
            return Err(format!(
                "policy `{}` reversed direction {reversals} times across one regime change",
                knob.name()
            ));
        }
    }
    Ok(())
}

/// The real closed loop: a short training run with telemetry + autotune,
/// one explicit controller tick per batch.
fn run_engine(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let dataset = Arc::new(Dataset::generate(&DatasetSpec {
        num_videos: 4,
        frames_per_video: 32,
        ..Default::default()
    })?);
    let engine = SandEngine::new(
        EngineConfig {
            tasks: vec![sand::config::parse_task_config(PIPELINE)?],
            total_epochs: 2,
            epochs_per_chunk: 2,
            prefetch_depth: 2,
            store: StoreConfig {
                shards: 4,
                ..Default::default()
            },
            telemetry: Some(TelemetryConfig::default()),
            autotune: Some(AutotuneConfig {
                interval_ms: 0, // explicit ticks only
                ..Default::default()
            }),
            ..Default::default()
        },
        dataset,
    )?;
    engine.start()?;
    let iters = engine.iterations_per_epoch("train").expect("task exists");
    let mut decisions = Vec::new();
    for epoch in 0..2 {
        for iteration in 0..iters {
            engine.serve_batch("train", epoch, iteration)?;
            decisions.extend(engine.autotune_tick().expect("autotune is enabled"));
        }
    }
    engine.wait_idle();
    print_decisions(&decisions, args.report_json);

    let snapshot = engine.metrics_snapshot().expect("telemetry is enabled");
    // The controller exports its tick counter and knob gauges.
    let ticks = snapshot.counter("autotune.ticks").unwrap_or(0);
    if ticks != 2 * iters {
        return Err(format!("expected {} autotune ticks, exported {ticks}", 2 * iters).into());
    }
    let depth_gauge = snapshot
        .gauge("autotune.prefetch_depth")
        .ok_or("autotune.prefetch_depth gauge missing")?;
    if depth_gauge != engine.prefetch_depth() as i64 {
        return Err(format!(
            "prefetch_depth gauge {depth_gauge} != live depth {}",
            engine.prefetch_depth()
        )
        .into());
    }
    // Exact prefetch conservation must survive every depth decision the
    // controller made during the run.
    let scheduled = snapshot.counter("prefetch.scheduled").unwrap_or(0);
    let settled = snapshot.counter("prefetch.hit").unwrap_or(0)
        + snapshot.counter("prefetch.late").unwrap_or(0)
        + snapshot.counter("prefetch.miss").unwrap_or(0)
        + snapshot.counter("prefetch.cancelled").unwrap_or(0)
        + engine.prefetch_pending() as u64;
    if scheduled != settled {
        return Err(format!(
            "prefetch conservation violated: scheduled {scheduled} != settled+pending {settled}"
        )
        .into());
    }
    if !args.report_json {
        println!(
            "engine: {} ticks, {} decisions, conservation holds ({scheduled} scheduled)",
            ticks,
            decisions.len()
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if let Err(msg) = run_simulated(&args) {
        eprintln!("autotune: check failed: {msg}");
        return ExitCode::from(1);
    }
    if args.engine {
        if let Err(e) = run_engine(&args) {
            eprintln!("autotune: engine check failed: {e}");
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}
