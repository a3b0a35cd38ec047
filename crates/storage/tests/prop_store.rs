//! Property-based tests for the object store: accounting exactness under
//! arbitrary operation sequences, and budget invariants.

#![allow(clippy::unwrap_used)]

mod scan_reference;

use proptest::prelude::*;
use sand_storage::{ObjectMeta, ObjectStore, StoreConfig, SyncPolicy};
use scan_reference::ScanStore;

#[derive(Debug, Clone)]
enum Op {
    Put {
        key: u8,
        size: usize,
        deadline: Option<u64>,
        uses: u32,
    },
    Get {
        key: u8,
    },
    Remove {
        key: u8,
    },
    MarkUsed {
        key: u8,
    },
    SetClock {
        clock: u64,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), 1usize..4096, any::<u64>(), 0u32..4).prop_map(
            |(key, size, deadline, uses)| {
                Op::Put {
                    key,
                    size,
                    // One put in five has no deadline: the farthest-future
                    // arm of the victim order.
                    deadline: (!deadline.is_multiple_of(5)).then_some(deadline / 5 % 1000),
                    uses,
                }
            }
        ),
        any::<u8>().prop_map(|key| Op::Get { key }),
        any::<u8>().prop_map(|key| Op::Remove { key }),
        any::<u8>().prop_map(|key| Op::MarkUsed { key }),
        (0u64..1000).prop_map(|clock| Op::SetClock { clock }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn memory_store_accounting_is_exact(ops in prop::collection::vec(arb_op(), 1..80)) {
        let store = ObjectStore::memory_only(StoreConfig {
            memory_budget: 64 * 1024,
            ..Default::default()
        })
        .unwrap();
        let mut live: std::collections::HashMap<u8, usize> = std::collections::HashMap::new();
        for op in ops {
            match op {
                Op::Put { key, size, deadline, uses } => {
                    let meta = ObjectMeta { deadline, future_uses: uses };
                    if store.put(&format!("k{key}"), vec![0u8; size].into(), meta).is_ok() {
                        live.insert(key, size);
                    }
                }
                Op::Get { key } => {
                    let result = store.get(&format!("k{key}"));
                    // Either the store evicted it (budget) or the bytes
                    // must be exactly what was put.
                    if let Ok(bytes) = result {
                        prop_assert_eq!(bytes.len(), live[&key]);
                    }
                }
                Op::Remove { key } => {
                    store.remove(&format!("k{key}")).unwrap();
                    live.remove(&key);
                }
                Op::MarkUsed { key } => store.mark_used(&format!("k{key}")),
                Op::SetClock { clock } => store.set_clock(clock),
            }
            // Invariant: memory accounting equals the sum of surviving
            // objects' sizes, and never exceeds the budget.
            let stats = store.stats();
            let held: u64 = store
                .keys()
                .iter()
                .map(|k| {
                    let id: u8 = k[1..].parse().unwrap();
                    live[&id] as u64
                })
                .sum();
            prop_assert_eq!(stats.memory_bytes, held);
            prop_assert!(stats.memory_bytes <= 64 * 1024);
        }
    }

    #[test]
    fn disk_store_roundtrips_under_churn(ops in prop::collection::vec(arb_op(), 1..40)) {
        let dir = std::env::temp_dir().join(format!(
            "sand_prop_store_{}_{}",
            std::process::id(),
            rand_suffix()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let store = ObjectStore::open(
                StoreConfig {
                    memory_budget: 16 * 1024,
                    disk_budget: 256 * 1024,
                    memory_horizon: 1,
                    ..Default::default()
                },
                Some(dir.clone()),
            )
            .unwrap();
            let mut content: std::collections::HashMap<u8, Vec<u8>> =
                std::collections::HashMap::new();
            for op in ops {
                match op {
                    Op::Put { key, size, deadline, uses } => {
                        let payload: Vec<u8> = (0..size).map(|i| (i as u8) ^ key).collect();
                        let meta = ObjectMeta { deadline, future_uses: uses };
                        if store.put(&format!("k{key}"), payload.clone().into(), meta).is_ok() {
                            content.insert(key, payload);
                        }
                    }
                    Op::Get { key } => {
                        if let Ok(bytes) = store.get(&format!("k{key}")) {
                            prop_assert_eq!(&*bytes, &content[&key]);
                        }
                    }
                    Op::Remove { key } => {
                        store.remove(&format!("k{key}")).unwrap();
                        content.remove(&key);
                    }
                    Op::MarkUsed { key } => store.mark_used(&format!("k{key}")),
                    Op::SetClock { clock } => store.set_clock(clock),
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The tentpole's shard-count invariance: the same operation
    /// sequence against a single-shard store and an 8-shard store must
    /// leave identical retained sets, identical tier placement, and
    /// identical byte accounting — sharding is a lock-contention knob,
    /// never a behaviour knob. Budgets are tight enough that spills and
    /// watermark evictions fire, so the coordinated sweep's global
    /// victim ordering is what's actually under test.
    #[test]
    fn prop_sharding_invariant(ops in prop::collection::vec(arb_op(), 1..60)) {
        let mut dirs = Vec::new();
        let mut stores = Vec::new();
        for shards in [1usize, 8] {
            let dir = std::env::temp_dir().join(format!(
                "sand_prop_shard{}_{}_{}",
                shards,
                std::process::id(),
                rand_suffix()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let store = ObjectStore::open(
                StoreConfig {
                    memory_budget: 8 * 1024,
                    disk_budget: 64 * 1024,
                    memory_horizon: 1,
                    shards,
                    compact_threshold: 0.5,
                    sync: SyncPolicy::Never,
                },
                Some(dir.clone()),
            )
            .unwrap();
            dirs.push(dir);
            stores.push(store);
        }
        for op in ops {
            for store in &stores {
                match op.clone() {
                    Op::Put { key, size, deadline, uses } => {
                        let payload: Vec<u8> = (0..size).map(|i| (i as u8) ^ key).collect();
                        let meta = ObjectMeta { deadline, future_uses: uses };
                        let _ = store.put(&format!("k{key}"), payload.into(), meta);
                    }
                    Op::Get { key } => {
                        let _ = store.get(&format!("k{key}"));
                    }
                    Op::Remove { key } => store.remove(&format!("k{key}")).unwrap(),
                    Op::MarkUsed { key } => store.mark_used(&format!("k{key}")),
                    Op::SetClock { clock } => store.set_clock(clock),
                }
            }
            // After every op: identical retained sets, tiers, accounting.
            let mut keys1 = stores[0].keys();
            let mut keys8 = stores[1].keys();
            keys1.sort();
            keys8.sort();
            prop_assert_eq!(&keys1, &keys8, "retained sets diverged");
            for k in &keys1 {
                prop_assert_eq!(stores[0].tier_of(k), stores[1].tier_of(k), "tier diverged for {}", k);
                prop_assert_eq!(
                    stores[0].future_uses_of(k),
                    stores[1].future_uses_of(k)
                );
            }
            let (s1, s8) = (stores[0].stats(), stores[1].stats());
            prop_assert_eq!(s1.memory_bytes, s8.memory_bytes);
            prop_assert_eq!(s1.disk_bytes, s8.disk_bytes);
        }
        // Served bytes identical for everything retained.
        for k in stores[0].keys() {
            let b1 = stores[0].get(&k);
            let b8 = stores[1].get(&k);
            match (b1, b8) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "bytes diverged for {}", k),
                (a, b) => prop_assert!(false, "get outcome diverged for {}: {:?} vs {:?}", k, a.is_ok(), b.is_ok()),
            }
        }
        drop(stores);
        for dir in dirs {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// The ordered victim index picks exactly the victims the full scan
    /// picked: after every op, a memory-only and a disk-backed store, at
    /// one shard and at eight, hold what a model that walks every record
    /// per victim (`scan_reference`) holds — same keys, tiers, use
    /// counts, bytes and victim counts — and every index still matches
    /// its records.
    #[test]
    fn prop_victim_order_matches_reference_scan(ops in prop::collection::vec(arb_op(), 1..60)) {
        for persistent in [false, true] {
            for shards in [1usize, 8] {
                let config = StoreConfig {
                    memory_budget: 8 * 1024,
                    disk_budget: 64 * 1024,
                    memory_horizon: 1,
                    shards,
                    compact_threshold: 0.5,
                    sync: SyncPolicy::Never,
                };
                let dir = persistent.then(|| {
                    std::env::temp_dir().join(format!(
                        "sand_prop_victims{}_{}_{}",
                        shards,
                        std::process::id(),
                        rand_suffix()
                    ))
                });
                if let Some(dir) = &dir {
                    let _ = std::fs::remove_dir_all(dir);
                }
                let store = ObjectStore::open(config, dir.clone()).unwrap();
                let mut model = ScanStore::new(config, persistent);
                for op in &ops {
                    match *op {
                        Op::Put { key, size, deadline, uses } => {
                            let name = format!("k{key}");
                            let meta = ObjectMeta { deadline, future_uses: uses };
                            let stored = store.put(&name, vec![key; size].into(), meta);
                            prop_assert_eq!(stored.is_ok(), model.put(&name, size as u64, meta));
                        }
                        Op::Get { key } => {
                            let name = format!("k{key}");
                            prop_assert_eq!(store.get(&name).is_ok(), model.tier_of(&name).is_some());
                        }
                        Op::Remove { key } => {
                            let name = format!("k{key}");
                            store.remove(&name).unwrap();
                            model.remove(&name);
                        }
                        Op::MarkUsed { key } => {
                            let name = format!("k{key}");
                            store.mark_used(&name);
                            model.mark_used(&name);
                        }
                        Op::SetClock { clock } => {
                            store.set_clock(clock);
                            model.set_clock(clock);
                        }
                    }
                    store.check_index();
                    let mut keys = store.keys();
                    keys.sort();
                    prop_assert_eq!(&keys, &model.keys(), "retained sets diverged");
                    for k in &keys {
                        prop_assert_eq!(store.tier_of(k), model.tier_of(k), "tier of {}", k);
                        prop_assert_eq!(store.future_uses_of(k), model.future_uses_of(k));
                    }
                    let stats = store.stats();
                    prop_assert_eq!(stats.memory_bytes, model.memory_bytes);
                    prop_assert_eq!(stats.disk_bytes, model.disk_bytes);
                    prop_assert_eq!(stats.evictions, model.evictions);
                    prop_assert_eq!(stats.spills, model.spills);
                }
                drop(store);
                if let Some(dir) = &dir {
                    let _ = std::fs::remove_dir_all(dir);
                }
            }
        }
    }
}

/// Cheap unique-ish suffix without depending on clocks in test names.
fn rand_suffix() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    N.fetch_add(1, Ordering::Relaxed)
}
