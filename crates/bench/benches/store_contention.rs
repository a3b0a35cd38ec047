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
//! A second table times the Algorithm-1 sweep itself: a memory-only
//! store filled to its budget, so that every further put evicts, at
//! 1 024 and at 16 384 resident objects. The store picks victims from an
//! ordered per-shard index, so the cost per evicting put may grow like
//! log n — `ci.sh` fails if the larger figure exceeds 3× the smaller, a
//! gate that does not depend on host speed — and the retained set at
//! each size must equal that of the full-scan reference model in
//! `crates/storage/tests/scan_reference`.
//!
//! Set `SAND_BENCH_QUICK=1` for a short CI-smoke run. On single-core
//! hosts the sharded store cannot beat the single lock wall-clock; the
//! speedup line prints `host_cpus` so readers can interpret it
//! honestly.

#![allow(clippy::unwrap_used)]

// The model also answers the proptest's questions; this bench asks one.
#[allow(dead_code)]
#[path = "../../storage/tests/scan_reference/mod.rs"]
mod scan_reference;

use sand_storage::{ObjectMeta, ObjectStore, StoreConfig};
use scan_reference::ScanStore;
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

/// Payload of every eviction-churn object.
const CHURN_PAYLOAD: usize = 64;

/// A memory-only store whose budget is `resident` churn objects exactly.
fn churn_config(resident: u64) -> StoreConfig {
    StoreConfig {
        memory_budget: resident * CHURN_PAYLOAD as u64,
        ..Default::default()
    }
}

/// The `i`-th object of the eviction churn. Deadlines come from a fixed
/// LCG over a small range, with one in eight absent, so victims are
/// spread over the resident set and the key tie-break decides often.
fn churn_object(i: u64) -> (String, ObjectMeta) {
    let draw = i
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407)
        >> 33;
    let meta = ObjectMeta {
        deadline: (!draw.is_multiple_of(8)).then_some(draw % 4096),
        future_uses: 1,
    };
    (format!("churn/{i:08}"), meta)
}

/// Fills a single-threaded memory-only store to `resident` objects,
/// then times `puts` more, each of which evicts one. Returns µs per
/// evicting put and the sorted retained keys.
fn eviction_churn(resident: u64, puts: u64) -> (f64, Vec<String>) {
    let store = ObjectStore::memory_only(churn_config(resident)).unwrap();
    let payload = Arc::new(vec![0u8; CHURN_PAYLOAD]);
    for i in 0..resident {
        let (key, meta) = churn_object(i);
        store.put(&key, Arc::clone(&payload), meta).unwrap();
    }
    assert_eq!(store.stats().evictions, 0);
    let start = Instant::now();
    for i in resident..resident + puts {
        let (key, meta) = churn_object(i);
        store
            .put(std::hint::black_box(&key), Arc::clone(&payload), meta)
            .unwrap();
    }
    let us = start.elapsed().as_secs_f64() * 1e6 / puts as f64;
    assert_eq!(store.stats().evictions, puts, "every put must evict");
    let mut keys = store.keys();
    keys.sort();
    (us, keys)
}

/// What the full-scan reference retains after the same churn.
fn reference_churn(resident: u64, puts: u64) -> Vec<String> {
    let mut model = ScanStore::new(churn_config(resident), false);
    for i in 0..resident + puts {
        let (key, meta) = churn_object(i);
        assert!(model.put(&key, CHURN_PAYLOAD as u64, meta));
    }
    model.keys()
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

    // Eviction churn: best of `reps` fresh stores per size, so a
    // descheduled pass cannot decide the ratio.
    let puts: u64 = if quick { 4096 } else { 32_768 };
    let reps = if quick { 5 } else { 9 };
    let mut best = [f64::INFINITY; 2];
    for (slot, resident) in [1024u64, 16_384].into_iter().enumerate() {
        let want = reference_churn(resident, puts);
        for _ in 0..reps {
            let (us, keys) = eviction_churn(resident, puts);
            assert!(
                keys == want,
                "retained set at {resident} resident objects differs from the reference scan's"
            );
            best[slot] = best[slot].min(us);
        }
        println!(
            "bench store_contention/evict_put_{resident:<6}     {:>12.3} us/put (best of {reps}, {puts} evicting puts)",
            best[slot]
        );
    }
    println!(
        "bench store_contention/evict_put_ratio     {:>12.2}x (16384 vs 1024 resident; ci.sh gates at 3x)",
        best[1] / best[0]
    );
}
