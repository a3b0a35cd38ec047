//! Autotune overhead benchmark: the serve path with the adaptive control
//! plane disabled (the default) vs. enabled and ticking.
//!
//! The control plane promises two things this bench pins:
//!
//! 1. `EngineConfig::autotune = None` costs nothing — the serve path's
//!    only added branch short-circuits on a plain `Option::is_some`, so
//!    the disabled sweep must track the baseline, and a regression in the
//!    disabled number means the "off" path grew real work.
//! 2. Bit-identity — the controller only moves *performance* knobs, so a
//!    sweep with the controller ticking between batches serves exactly
//!    the bytes the static engine serves.
//!
//! The enabled engine uses `interval_ms = 0` (no background thread) and
//! one explicit [`SandEngine::autotune_tick`] per batch: deterministic,
//! and an upper bound on any sane tick rate.
//!
//! Set `SAND_BENCH_QUICK=1` for a short CI-smoke run.

#![allow(clippy::unwrap_used)]

use sand_bench::workloads::slowfast;
use sand_codec::Dataset;
use sand_core::{AutotuneConfig, EngineConfig, SandEngine, TelemetryConfig};
use std::sync::Arc;
use std::time::Instant;

/// Builds an engine, pre-materializes everything, then times the serve
/// sweep alone (one controller tick per batch when enabled); returns
/// (serve seconds, batch-bytes checksum).
fn serve_sweep(dataset: &Arc<Dataset>, epochs: u64, autotune: bool) -> (f64, u64) {
    let workload = slowfast();
    let engine = SandEngine::new(
        EngineConfig {
            tasks: vec![workload.task.clone()],
            total_epochs: epochs,
            epochs_per_chunk: epochs,
            telemetry: autotune.then(TelemetryConfig::default),
            autotune: autotune.then(|| AutotuneConfig {
                interval_ms: 0, // explicit ticks only
                ..Default::default()
            }),
            ..Default::default()
        },
        Arc::clone(dataset),
    )
    .unwrap();
    engine.start().unwrap();
    engine.wait_idle();
    let iters = engine.iterations_per_epoch(&workload.task.tag).unwrap();
    let mut checksum = 0u64;
    let mut ticked = 0u64;
    let start = Instant::now();
    for epoch in 0..epochs {
        for it in 0..iters {
            let bytes = engine.serve_batch(&workload.task.tag, epoch, it).unwrap();
            checksum = checksum.wrapping_mul(31).wrapping_add(
                bytes
                    .iter()
                    .fold(0u64, |a, &p| a.wrapping_mul(131).wrapping_add(u64::from(p))),
            );
            if autotune && engine.autotune_tick().is_some() {
                ticked += 1;
            }
        }
    }
    let secs = start.elapsed().as_secs_f64();
    if autotune {
        assert!(ticked > 0, "enabled engine never ticked");
    } else {
        // The disabled engine must refuse to tick at all.
        assert!(engine.autotune_tick().is_none());
    }
    (secs, checksum)
}

fn main() {
    let quick = std::env::var("SAND_BENCH_QUICK").is_ok();
    let mut spec = slowfast().dataset;
    if quick {
        spec.num_videos = 4;
    }
    let dataset = Arc::new(Dataset::generate(&spec).unwrap());
    let epochs = if quick { 2 } else { 4 };
    let iters = if quick { 3 } else { 8 };

    // Warm-up pass also pins output parity between the two modes.
    let (_, off_sum) = serve_sweep(&dataset, epochs, false);
    let (_, on_sum) = serve_sweep(&dataset, epochs, true);
    assert_eq!(
        off_sum, on_sum,
        "enabling the autotune controller changed the served bytes"
    );

    let mut off_secs = 0.0;
    let mut on_secs = 0.0;
    for _ in 0..iters {
        off_secs += serve_sweep(&dataset, epochs, false).0;
        on_secs += serve_sweep(&dataset, epochs, true).0;
    }
    let off_avg = off_secs / f64::from(iters);
    let on_avg = on_secs / f64::from(iters);
    let overhead_pct = (on_avg / off_avg - 1.0) * 100.0;

    println!("bench autotune/disabled             {off_avg:>12.4} s/sweep ({iters} iters)");
    println!("bench autotune/enabled              {on_avg:>12.4} s/sweep ({iters} iters)");
    println!("bench autotune/enabled_overhead     {overhead_pct:>12.2} %");
}
