//! Telemetry overhead benchmark: the serve path with telemetry disabled
//! (the default) vs. fully enabled.
//!
//! The telemetry subsystem promises zero overhead when `EngineConfig::
//! telemetry` is `None`: instrumented paths hold an `Option` that is
//! never `Some`, so they take no timestamps and touch no atomics. This
//! bench pins that promise by timing the same serve sweep in both modes,
//! asserting the served bytes are bit-identical, and printing the
//! disabled-mode absolute throughput — a regression in the disabled
//! number means the "off" path grew real work.
//!
//! Set `SAND_BENCH_QUICK=1` for a short CI-smoke run.

#![allow(clippy::unwrap_used)]

use sand_bench::workloads::slowfast;
use sand_codec::Dataset;
use sand_core::{EngineConfig, SandEngine, TelemetryConfig};
use std::sync::Arc;
use std::time::Instant;

/// Builds an engine, pre-materializes everything, then times the serve
/// sweep alone; returns (serve seconds, batch-bytes checksum).
fn serve_sweep(
    dataset: &Arc<Dataset>,
    epochs: u64,
    telemetry: Option<TelemetryConfig>,
) -> (f64, u64) {
    let workload = slowfast();
    let enabled = telemetry.is_some();
    let engine = SandEngine::new(
        EngineConfig {
            tasks: vec![workload.task.clone()],
            total_epochs: epochs,
            epochs_per_chunk: epochs,
            telemetry,
            ..Default::default()
        },
        Arc::clone(dataset),
    )
    .unwrap();
    engine.start().unwrap();
    engine.wait_idle();
    let iters = engine.iterations_per_epoch(&workload.task.tag).unwrap();
    let mut checksum = 0u64;
    let start = Instant::now();
    for epoch in 0..epochs {
        for it in 0..iters {
            let bytes = engine.serve_batch(&workload.task.tag, epoch, it).unwrap();
            checksum = checksum.wrapping_mul(31).wrapping_add(
                bytes
                    .iter()
                    .fold(0u64, |a, &p| a.wrapping_mul(131).wrapping_add(u64::from(p))),
            );
        }
    }
    let secs = start.elapsed().as_secs_f64();
    // Sanity: the disabled engine must expose no snapshot at all.
    assert_eq!(engine.metrics_snapshot().is_some(), enabled);
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
    let (_, off_sum) = serve_sweep(&dataset, epochs, None);
    let (_, on_sum) = serve_sweep(&dataset, epochs, Some(TelemetryConfig::default()));
    assert_eq!(
        off_sum, on_sum,
        "enabling telemetry changed the served bytes"
    );

    let mut off_secs = 0.0;
    let mut on_secs = 0.0;
    for _ in 0..iters {
        off_secs += serve_sweep(&dataset, epochs, None).0;
        on_secs += serve_sweep(&dataset, epochs, Some(TelemetryConfig::default())).0;
    }
    let off_avg = off_secs / f64::from(iters);
    let on_avg = on_secs / f64::from(iters);
    let overhead_pct = (on_avg / off_avg - 1.0) * 100.0;

    println!("bench telemetry/disabled            {off_avg:>12.4} s/sweep ({iters} iters)");
    println!("bench telemetry/enabled             {on_avg:>12.4} s/sweep ({iters} iters)");
    println!("bench telemetry/enabled_overhead    {overhead_pct:>12.2} %");
}
