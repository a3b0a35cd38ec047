//! Object-store contention benchmark: the decode/augment worker pool's
//! put/get/mark-used churn against a single-lock store (`shards = 1`)
//! vs the sharded store.
//!
//! Sharding splits the store's map by key hash so parallel producers
//! serialize only against keys on the same shard, while byte accounting
//! stays global (atomics) and Algorithm-1 pruning remains a coordinated
//! sweep with the single-lock victim ordering. This bench drives the
//! same mixed workload from `THREADS` threads at both shard counts,
//! and asserts the surviving key set and byte accounting are identical
//! (sharding is a contention knob, never a behaviour knob).
//!
//! Set `SAND_BENCH_QUICK=1` for a short CI-smoke run. On single-core
//! hosts the sharded store cannot beat the single lock wall-clock; the
//! speedup line prints `host_cpus` so readers can interpret it
//! honestly.

#![allow(clippy::unwrap_used)]

use sand_storage::{ObjectMeta, ObjectStore, StoreConfig};
use std::sync::Arc;
use std::time::Instant;

const SHARDED: usize = 8;

/// Per-thread op mix modeled on a decode worker: put this thread's own
/// objects (distinct keys), then re-read and burn uses on a shared
/// working set that every thread touches (the cross-thread contention).
fn churn(store: &Arc<ObjectStore>, threads: usize, rounds: usize, payload: usize) {
    std::thread::scope(|s| {
        for t in 0..threads {
            let store = Arc::clone(store);
            s.spawn(move || {
                for r in 0..rounds {
                    for k in 0..16u64 {
                        let key = format!("own/{t}/{r}/{k}");
                        let bytes: Vec<u8> = (0..payload).map(|i| (i as u8) ^ (k as u8)).collect();
                        let meta = ObjectMeta {
                            deadline: Some(r as u64 * 16 + k),
                            future_uses: 2,
                        };
                        store.put(&key, bytes.into(), meta).unwrap();
                        store.mark_used(&key);
                    }
                    for k in 0..16u64 {
                        let key = format!("shared/{k}");
                        let bytes: Vec<u8> = (0..payload)
                            .map(|i| (i as u8).wrapping_add(k as u8))
                            .collect();
                        let meta = ObjectMeta {
                            deadline: Some(1 << 20),
                            future_uses: u32::MAX / 2,
                        };
                        store.put(&key, bytes.into(), meta).unwrap();
                        let got = store.get(&key).unwrap();
                        assert_eq!(got.len(), payload);
                        store.mark_used(&key);
                    }
                }
            });
        }
    });
}

/// One timed pass at `shards`; returns (seconds, sorted keys, memory
/// bytes) for the parity check.
fn pass(shards: usize, threads: usize, rounds: usize, payload: usize) -> (f64, Vec<String>, u64) {
    let store = Arc::new(
        ObjectStore::memory_only(StoreConfig {
            // Generous budget: no eviction, so the surviving set is
            // interleaving-independent and comparable across shard
            // counts even under racing producers.
            memory_budget: 1 << 30,
            shards,
            ..Default::default()
        })
        .unwrap(),
    );
    let start = Instant::now();
    churn(&store, threads, rounds, payload);
    let secs = start.elapsed().as_secs_f64();
    let mut keys = store.keys();
    keys.sort();
    (secs, keys, store.stats().memory_bytes)
}

fn main() {
    let quick = std::env::var("SAND_BENCH_QUICK").is_ok();
    let host_cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let threads = host_cpus.clamp(2, 8);
    let rounds = if quick { 8 } else { 64 };
    let payload = if quick { 4 << 10 } else { 16 << 10 };
    let iters = if quick { 3 } else { 10 };

    // Warm-up pass also pins parity between the two shard counts.
    let (_, k1, b1) = pass(1, threads, rounds, payload);
    let (_, k8, b8) = pass(SHARDED, threads, rounds, payload);
    assert!(
        k1 == k8 && b1 == b8,
        "sharded store diverged from single-lock \
         ({} vs {} keys, {b1} vs {b8} bytes)",
        k1.len(),
        k8.len()
    );

    let mut single_secs = 0.0;
    let mut sharded_secs = 0.0;
    for _ in 0..iters {
        single_secs += pass(1, threads, rounds, payload).0;
        sharded_secs += pass(SHARDED, threads, rounds, payload).0;
    }
    let single_avg = single_secs / f64::from(iters);
    let sharded_avg = sharded_secs / f64::from(iters);
    let speedup = single_avg / sharded_avg;

    println!(
        "bench store_contention/single_lock         {single_avg:>12.4} s/pass ({iters} iters)"
    );
    println!("bench store_contention/shards={SHARDED}            {sharded_avg:>12.4} s/pass ({iters} iters)");
    println!(
        "bench store_contention/speedup             {speedup:>12.2}x (threads={threads}, host_cpus={host_cpus})"
    );
}
