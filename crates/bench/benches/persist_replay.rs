//! Persistent-tier benchmark: value-log append throughput, recovery
//! replay latency, and fsync-policy cost.
//!
//! The log-structured tier replaces file-per-object spill with one
//! append-only, checksummed log, so the numbers that matter are
//!
//! - **append throughput** — the write-through `put` path's durability
//!   cost (one sequential append per put, checksum committed last),
//! - **replay latency** — how long a restart spends scanning, validating
//!   and adopting records before the engine can serve, as a function of
//!   the object count, and
//! - **sync-policy cost** — what `SyncPolicy::Always` pays per append
//!   and how much of it `SyncPolicy::Group` claws back by coalescing
//!   concurrent appends into one fsync (the `fsyncs` column is the
//!   group-commit denominator: 4 threads × N appends under `group`
//!   should land far fewer fsyncs than `always`).
//!
//! Each replayed store is verified to serve every object bit-identically
//! before its timing is accepted, so the bench doubles as a recovery
//! parity check. Set `SAND_BENCH_QUICK=1` for a short CI-smoke run.

#![allow(clippy::unwrap_used)]

use sand_storage::{ObjectMeta, ObjectStore, StoreConfig, SyncPolicy};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

fn payload(i: u64, len: usize) -> Vec<u8> {
    (0..len).map(|p| (p as u64 ^ (i * 131)) as u8).collect()
}

fn cfg(sync: SyncPolicy) -> StoreConfig {
    StoreConfig {
        memory_budget: 8 << 20,
        disk_budget: 4 << 30,
        evict_watermark: 0.75,
        memory_horizon: 0, // every put is a pure disk-tier append
        shards: 4,
        compact_threshold: 1.0, // measure raw replay, not compaction
        sync,
    }
}

fn bench_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("sand_bench_persist_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Appends `objects` records of `payload_len` bytes; returns the elapsed
/// write time.
fn fill(dir: &Path, objects: u64, payload_len: usize) -> f64 {
    let store = ObjectStore::open(cfg(SyncPolicy::Never), Some(dir.to_path_buf())).unwrap();
    let start = Instant::now();
    for i in 0..objects {
        store
            .put(
                &format!("obj/{i}"),
                payload(i, payload_len).into(),
                ObjectMeta {
                    deadline: Some(i),
                    future_uses: 2,
                },
            )
            .unwrap();
    }
    start.elapsed().as_secs_f64()
}

/// Reopens the store (the full recovery replay) and verifies every
/// object serves bit-identically; returns the replay time alone.
fn replay(dir: &Path, objects: u64, payload_len: usize) -> f64 {
    let start = Instant::now();
    let store = ObjectStore::open(cfg(SyncPolicy::Never), Some(dir.to_path_buf())).unwrap();
    let secs = start.elapsed().as_secs_f64();
    let stats = store.stats();
    assert_eq!(stats.replayed_objects, objects, "replay lost objects");
    for i in (0..objects).step_by((objects / 16).max(1) as usize) {
        assert_eq!(
            *store.get(&format!("obj/{i}")).unwrap(),
            payload(i, payload_len),
            "replayed object differs"
        );
    }
    secs
}

/// `threads` concurrent appenders each writing `per_thread` objects
/// under `sync`; returns (elapsed seconds, fsyncs issued).
fn fill_concurrent(
    dir: &Path,
    threads: u64,
    per_thread: u64,
    payload_len: usize,
    sync: SyncPolicy,
) -> (f64, u64) {
    let store = Arc::new(ObjectStore::open(cfg(sync), Some(dir.to_path_buf())).unwrap());
    let start = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                for i in 0..per_thread {
                    let id = t * per_thread + i;
                    store
                        .put(
                            &format!("obj/{id}"),
                            payload(id, payload_len).into(),
                            ObjectMeta {
                                deadline: Some(id),
                                future_uses: 2,
                            },
                        )
                        .unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let secs = start.elapsed().as_secs_f64();
    (secs, store.stats().vlog_fsyncs)
}

fn sync_mode_name(sync: SyncPolicy) -> &'static str {
    match sync {
        SyncPolicy::Never => "never",
        SyncPolicy::Always => "always",
        SyncPolicy::Group { .. } => "group",
    }
}

fn main() {
    let quick = std::env::var("SAND_BENCH_QUICK").is_ok();
    let payload_len = if quick { 4 << 10 } else { 16 << 10 };
    let sizes: &[u64] = if quick {
        &[256, 1024]
    } else {
        &[1024, 4096, 16384]
    };

    for &objects in sizes {
        let dir = bench_dir(&objects.to_string());
        let write_secs = fill(&dir, objects, payload_len);
        let replay_secs = replay(&dir, objects, payload_len);
        let _ = std::fs::remove_dir_all(&dir);
        let appends_per_sec = objects as f64 / write_secs;
        let mib = (objects * payload_len as u64) as f64 / (1024.0 * 1024.0);
        let replay_mib_per_sec = mib / replay_secs;
        println!(
            "bench persist_replay/objects={objects:<6} append {appends_per_sec:>10.0}/s \
             ({:>7.1} MiB/s)  replay {:>8.1} ms ({replay_mib_per_sec:>7.1} MiB/s)",
            mib / write_secs,
            replay_secs * 1e3,
        );
    }

    // Sync-policy cost: the same concurrent workload under each policy.
    // 4 appender threads give group commit something to coalesce.
    let threads = 4u64;
    let per_thread: u64 = if quick { 64 } else { 512 };
    let group = SyncPolicy::Group {
        window_us: 50,
        max_bytes: 1 << 20,
    };
    for sync in [SyncPolicy::Never, SyncPolicy::Always, group] {
        let mode = sync_mode_name(sync);
        let dir = bench_dir(&format!("sync_{mode}"));
        let (secs, fsyncs) = fill_concurrent(&dir, threads, per_thread, payload_len, sync);
        let _ = std::fs::remove_dir_all(&dir);
        let objects = threads * per_thread;
        let appends_per_sec = objects as f64 / secs;
        let coalesce = if fsyncs == 0 {
            0.0
        } else {
            objects as f64 / fsyncs as f64
        };
        println!(
            "bench persist_replay/sync={mode:<6} {threads} threads × {per_thread} appends \
             {appends_per_sec:>10.0}/s  fsyncs {fsyncs:>6} (coalesce {coalesce:>6.1}×)"
        );
    }
}
