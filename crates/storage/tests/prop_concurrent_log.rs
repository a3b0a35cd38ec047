//! Recovery agreement under concurrency: whatever racing puts, removes
//! and compactions leave in a store's index is exactly what a reopened
//! store replays from its value log, with exact byte accounting and,
//! under the `sanitize` feature, no lock-order or lockset finding.

#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use sand_storage::{ObjectMeta, ObjectStore, StoreConfig, SyncPolicy};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

const THREADS: usize = 4;

/// Key ids below this are shared by every thread; the rest are each
/// thread's own.
const SHARED_KEYS: u8 = 3;

#[derive(Debug, Clone)]
enum Op {
    Put { key: u8, size: usize, near: bool },
    Remove { key: u8 },
    Compact,
}

/// Eight puts to two removes to one compaction.
fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..11, 0u8..8, 1usize..3000, any::<bool>()).prop_map(|(kind, key, size, near)| match kind {
        0..=7 => Op::Put { key, size, near },
        8 | 9 => Op::Remove { key },
        _ => Op::Compact,
    })
}

fn key_name(thread: usize, key: u8) -> String {
    if key < SHARED_KEYS {
        format!("shared/{key}")
    } else {
        format!("t{thread}/{key}")
    }
}

fn unique_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("sand_concurrent_log_{}_{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// One shard makes every put wait out every removal's tombstone and
/// every compaction's copying; `Always` puts the fsync between a put's
/// append and its install. Both widen the window in which another
/// writer overtakes a put's record.
fn config(shards: usize, sync: SyncPolicy) -> StoreConfig {
    StoreConfig {
        // Small enough that the sweep spills, large enough on disk that
        // nothing is evicted: every removal is one of the ops.
        memory_budget: 32 << 10,
        disk_budget: 1 << 30,
        memory_horizon: 2,
        shards,
        compact_threshold: 0.5,
        sync,
    }
}

fn open(dir: &Path, config: StoreConfig) -> ObjectStore {
    ObjectStore::open(config, Some(dir.to_path_buf())).unwrap()
}

/// The store's key → bytes map; every indexed key must read back.
fn contents(store: &ObjectStore) -> BTreeMap<String, Vec<u8>> {
    store
        .keys()
        .into_iter()
        .map(|key| {
            let bytes = store
                .get(&key)
                .unwrap_or_else(|e| panic!("indexed `{key}` does not read back: {e}"));
            (key, bytes.to_vec())
        })
        .collect()
}

fn run(store: &ObjectStore, thread: usize, ops: &[Op]) {
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Put { key, size, near } => {
                // Every put writes bytes no other put writes.
                let mut payload = vec![(thread * 61 + i) as u8; size];
                payload[0] = thread as u8;
                let deadline = if near { 0 } else { 100 };
                let meta = ObjectMeta {
                    deadline: Some(deadline),
                    future_uses: 1,
                };
                store
                    .put(&key_name(thread, key), payload.into(), meta)
                    .unwrap();
            }
            Op::Remove { key } => store.remove(&key_name(thread, key)).unwrap(),
            Op::Compact => {
                store.compact().unwrap();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Threads race puts of shared and private keys, removes and forced
    /// compactions on one store over a value log. At quiescence the index
    /// is consistent, `disk_bytes` is the live objects' bytes, and a
    /// reopened store holds exactly the same key → bytes map.
    #[test]
    fn racing_writers_leave_what_replay_recovers(
        ops in prop::collection::vec(prop::collection::vec(arb_op(), 50..200), THREADS),
        shards in prop_oneof![Just(1usize), Just(3)],
        always in any::<bool>(),
    ) {
        // Under `--features sanitize` the run is also checked for lock-order
        // cycles and lockset races.
        let _sanitizer = sand_sanitizer::exclusive();
        let sync = if always { SyncPolicy::Always } else { SyncPolicy::Never };
        let config = config(shards, sync);
        let dir = unique_dir();
        let store = open(&dir, config);
        let barrier = Barrier::new(THREADS);
        std::thread::scope(|s| {
            for (thread, ops) in ops.iter().enumerate() {
                let (store, barrier) = (&store, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    run(store, thread, ops);
                });
            }
        });
        store.check_index();
        let live = contents(&store);
        let live_bytes: u64 = live.values().map(|b| b.len() as u64).sum();
        prop_assert_eq!(store.stats().disk_bytes, live_bytes);
        drop(store);
        let reopened = open(&dir, config);
        reopened.check_index();
        prop_assert_eq!(reopened.stats().disk_bytes, live_bytes);
        let recovered = contents(&reopened);
        prop_assert_eq!(recovered, live);
        drop(reopened);
        let findings = sand_sanitizer::take_reports();
        prop_assert!(findings.is_empty(), "{:?}", findings);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
