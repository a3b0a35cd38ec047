//! Crash-recovery properties of the persistent tier.
//!
//! Every test here follows the same shape: run an arbitrary workload
//! against a store with a value log, damage the log the way a real
//! failure would (truncate at an arbitrary byte = crash mid-append; flip
//! an arbitrary bit = media rot), reopen, and check the two invariants
//! the tentpole pins:
//!
//! 1. **No invented bytes.** Every object the recovered store serves is
//!    bit-identical to some value that was actually `put` under that key.
//!    Torn or corrupt records are truncated away, never adopted.
//! 2. **Exact accounting.** `disk_bytes` equals the byte sum of exactly
//!    the objects the recovered store retains — rebuilt from validated
//!    records, not from file metadata.

#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use sand_storage::{ObjectMeta, ObjectStore, StorageError, StoreConfig, SyncPolicy};
use std::collections::HashMap;
use std::fs;
use std::path::PathBuf;

/// Deterministic payload for (key id, version): recovery checks recompute
/// it instead of remembering every write.
fn payload(key: u8, version: u8) -> Vec<u8> {
    let len = 64 + (usize::from(key) * 37 + usize::from(version) * 101) % 1024;
    (0..len)
        .map(|i| (i as u8) ^ key.wrapping_mul(31) ^ version)
        .collect()
}

fn key_name(key: u8) -> String {
    format!("obj/{key}")
}

fn unique_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "sand_persist_{tag}_{}_{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&d);
    d
}

fn disk_cfg() -> StoreConfig {
    StoreConfig {
        memory_budget: 1 << 20,
        disk_budget: 1 << 30,
        memory_horizon: 0, // everything lands on the disk tier
        shards: 4,
        compact_threshold: 1.0, // tests damage the log themselves
        sync: SyncPolicy::Never,
    }
}

/// Runs a put/re-put/remove workload; returns, per key, the set of
/// versions ever written (any of them is a legal survivor after a torn
/// tail rolled the key back).
fn run_workload(store: &ObjectStore, ops: &[(u8, u8, bool)]) -> HashMap<u8, Vec<u8>> {
    let mut versions: HashMap<u8, Vec<u8>> = HashMap::new();
    for &(key, version, remove) in ops {
        if remove {
            store.remove(&key_name(key)).unwrap();
        } else {
            store
                .put(
                    &key_name(key),
                    payload(key, version).into(),
                    ObjectMeta {
                        deadline: Some(100),
                        future_uses: 2,
                    },
                )
                .unwrap();
            versions.entry(key).or_default().push(version);
        }
    }
    versions
}

/// Every vlog segment path under `dir`, sorted.
fn segments(dir: &PathBuf) -> Vec<PathBuf> {
    let mut segs: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .and_then(sand_storage::vlog::parse_segment_name)
                .is_some()
        })
        .collect();
    segs.sort();
    segs
}

/// Checks invariants 1 and 2 against the recovered store. `versions`
/// maps each key to every payload version ever written for it.
fn check_recovered(
    store: &ObjectStore,
    versions: &HashMap<u8, Vec<u8>>,
) -> Result<(), TestCaseError> {
    let mut live_total = 0u64;
    for k in store.keys() {
        let id: u8 = k.strip_prefix("obj/").unwrap().parse().unwrap();
        let served = match store.get(&k) {
            Ok(b) => b,
            // A key indexed but unreadable would be a bug; recovery only
            // adopts validated records, so every get must succeed.
            Err(e) => return Err(TestCaseError::fail(format!("get({k}) failed: {e}"))),
        };
        let legal = versions
            .get(&id)
            .is_some_and(|vs| vs.iter().any(|v| payload(id, *v) == *served));
        prop_assert!(legal, "key {k} served bytes never written for it");
        live_total += served.len() as u64;
    }
    prop_assert_eq!(
        store.stats().disk_bytes,
        live_total,
        "disk_bytes not rebuilt from validated records"
    );
    Ok(())
}

/// Workload: (key in a small space, version, is_remove).
fn arb_ops() -> impl Strategy<Value = Vec<(u8, u8, bool)>> {
    prop::collection::vec(
        (0u8..12, any::<u8>(), any::<u8>()).prop_map(|(k, v, r)| (k, v, r < 40)),
        1..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Crash mid-append, anywhere: truncating the log at an arbitrary
    /// byte must recover to a store serving only bit-identical,
    /// actually-written values with exact accounting. This subsumes the
    /// "interrupted put" case — the checksum-last format makes a put cut
    /// at any byte indistinguishable from a torn tail.
    #[test]
    fn truncated_tail_recovers_consistent(ops in arb_ops(), cut in any::<prop::sample::Index>()) {
        let dir = unique_dir("trunc");
        let versions = {
            let store = ObjectStore::open(disk_cfg(), Some(dir.clone())).unwrap();
            run_workload(&store, &ops)
        };
        // Cut the (single) active segment at an arbitrary point past the
        // magic, as a kill mid-`write_all` would.
        let seg = segments(&dir).pop().unwrap();
        let len = fs::metadata(&seg).unwrap().len();
        if len > 8 {
            let at = 8 + cut.index((len - 8) as usize + 1) as u64;
            fs::OpenOptions::new()
                .write(true)
                .open(&seg)
                .unwrap()
                .set_len(at)
                .unwrap();
        }
        let store = ObjectStore::open(disk_cfg(), Some(dir.clone())).unwrap();
        check_recovered(&store, &versions)?;
        // The truncated log must stay writable.
        store
            .put("after/crash", vec![9; 32].into(), ObjectMeta::default())
            .unwrap();
        prop_assert_eq!(&*store.get("after/crash").unwrap(), &vec![9; 32]);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Bit rot: flipping any single bit anywhere in the log must never
    /// make the store serve wrong bytes — the flipped record (and
    /// everything after it, whose boundaries are no longer trustworthy)
    /// is rejected, survivors stay bit-identical, accounting stays exact.
    #[test]
    fn bit_flip_never_serves_wrong_bytes(
        ops in arb_ops(),
        at in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let dir = unique_dir("flip");
        let versions = {
            let store = ObjectStore::open(disk_cfg(), Some(dir.clone())).unwrap();
            run_workload(&store, &ops)
        };
        let seg = segments(&dir).pop().unwrap();
        let mut bytes = fs::read(&seg).unwrap();
        if bytes.len() > 8 {
            let idx = 8 + at.index(bytes.len() - 8);
            bytes[idx] ^= 1 << bit;
            fs::write(&seg, &bytes).unwrap();
        }
        let store = ObjectStore::open(disk_cfg(), Some(dir.clone())).unwrap();
        check_recovered(&store, &versions)?;
        let _ = fs::remove_dir_all(&dir);
    }

    /// Clean restart with churn (re-puts + removes, including a
    /// compaction pass): the survivor set is exactly the last-writer
    /// state, every object bit-identical to its final version, and both
    /// byte counters exact after overwrite.
    #[test]
    fn clean_restart_is_last_writer_exact(ops in arb_ops()) {
        let dir = unique_dir("clean");
        let mut last: HashMap<u8, Option<u8>> = HashMap::new();
        {
            let store = ObjectStore::open(disk_cfg(), Some(dir.clone())).unwrap();
            for &(key, version, remove) in &ops {
                if remove {
                    store.remove(&key_name(key)).unwrap();
                    last.insert(key, None);
                } else {
                    store
                        .put(
                            &key_name(key),
                            payload(key, version).into(),
                            ObjectMeta { deadline: Some(100), future_uses: 2 },
                        )
                        .unwrap();
                    last.insert(key, Some(version));
                }
            }
            store.compact().unwrap();
        }
        let store = ObjectStore::open(disk_cfg(), Some(dir.clone())).unwrap();
        let mut expect_bytes = 0u64;
        for (key, version) in &last {
            let name = key_name(*key);
            match version {
                Some(v) => {
                    let want = payload(*key, *v);
                    prop_assert_eq!(&*store.get(&name).unwrap(), &want, "key {}", name);
                    expect_bytes += want.len() as u64;
                }
                None => {
                    prop_assert!(!store.contains(&name), "removed key {} resurrected", name);
                    let miss = matches!(store.get(&name), Err(StorageError::NotFound { .. }));
                    prop_assert!(miss, "removed key {} did not miss", name);
                }
            }
        }
        prop_assert_eq!(store.stats().disk_bytes, expect_bytes);
        let _ = fs::remove_dir_all(&dir);
    }
}
