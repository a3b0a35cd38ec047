//! Sanitizer passthrough benchmark: raw `parking_lot::Mutex` vs.
//! `sand_sanitizer::TrackedMutex` in this build's configuration.
//!
//! The tracked wrappers promise zero overhead when the `sanitize`
//! feature is off: every method is a direct delegation with no extra
//! branches, so an uncontended lock/unlock cycle must cost the same as
//! the raw lock it wraps. This bench pins that promise by hammering
//! both locks with the same contended increment workload and printing
//! the ratio. When the feature IS on the ratio is expected to be
//! well above 1 (the graph and held-stack bookkeeping are real work) —
//! the ratio line says which mode produced the numbers.
//!
//! Set `SAND_BENCH_QUICK=1` for a short CI-smoke run.

#![allow(clippy::unwrap_used)]

use parking_lot::Mutex;
use sand_sanitizer::TrackedMutex;
use std::sync::Arc;
use std::time::Instant;

/// Spawns `threads` workers each doing `iters` lock/increment/unlock
/// cycles against the shared counter behind `lock`; returns seconds.
fn hammer<L: Send + Sync + 'static>(
    lock: Arc<L>,
    threads: usize,
    iters: u64,
    bump: impl Fn(&L) + Send + Sync + Copy + 'static,
) -> f64 {
    let start = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let lock = Arc::clone(&lock);
            std::thread::spawn(move || {
                for _ in 0..iters {
                    bump(&lock);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    start.elapsed().as_secs_f64()
}

fn main() {
    let quick = std::env::var("SAND_BENCH_QUICK").is_ok();
    let threads = 4;
    let iters: u64 = if quick { 50_000 } else { 1_000_000 };
    let reps = if quick { 3 } else { 8 };
    let sanitize_on = sand_sanitizer::enabled();

    // Warm-up plus correctness: both locks count the same total.
    let raw = Arc::new(Mutex::new(0u64));
    let tracked = Arc::new(TrackedMutex::new("bench.counter", 0u64));
    hammer(Arc::clone(&raw), threads, iters, |l| *l.lock() += 1);
    hammer(Arc::clone(&tracked), threads, iters, |l| *l.lock() += 1);
    assert_eq!(*raw.lock(), *tracked.lock());

    let mut raw_secs = 0.0;
    let mut tracked_secs = 0.0;
    for _ in 0..reps {
        raw_secs += hammer(Arc::clone(&raw), threads, iters, |l| *l.lock() += 1);
        tracked_secs += hammer(Arc::clone(&tracked), threads, iters, |l| *l.lock() += 1);
    }
    let raw_avg = raw_secs / f64::from(reps);
    let tracked_avg = tracked_secs / f64::from(reps);
    let ratio = tracked_avg / raw_avg;

    println!("bench sanitizer/raw_mutex           {raw_avg:>12.4} s/rep ({threads} threads x {iters} iters)");
    println!("bench sanitizer/tracked_mutex       {tracked_avg:>12.4} s/rep ({threads} threads x {iters} iters)");
    println!(
        "bench sanitizer/tracked_ratio       {ratio:>12.3} x (sanitize {})",
        if sanitize_on { "on" } else { "off" }
    );
}
