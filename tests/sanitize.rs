//! Sanitizer integration tests: deterministic schedule exploration over
//! the real object store, plus deliberately seeded hazards proving the
//! analyses fire (and fire deterministically).
//!
//! The explore-based tests run in every build — the interleaver works
//! without the `sanitize` feature; with it, each schedule additionally
//! collects lock-order and lockset findings. Tests that *assert on*
//! findings are gated on the feature and serialize through
//! [`sand::sanitizer::exclusive`] so parallel test threads cannot
//! cross-attribute reports.

#![allow(clippy::unwrap_used)]

use sand::sanitizer::{explore, ExploreConfig};
use sand::storage::{ObjectMeta, ObjectStore, StoreConfig};
use std::sync::{Arc, Mutex};

fn store(shards: usize, memory_budget: u64) -> Arc<ObjectStore> {
    Arc::new(
        ObjectStore::memory_only(StoreConfig {
            memory_budget,
            shards,
            ..StoreConfig::default()
        })
        .expect("memory-only store"),
    )
}

fn payload(tag: usize) -> Arc<Vec<u8>> {
    Arc::new(vec![tag as u8; 256])
}

/// Eight logical threads hammer `get`/`put`/`prune` across a sharded
/// store while a prefetcher-style thread speculatively inserts the keys
/// the others are about to demand — 64 seeded schedules, every
/// interleaving replayable by seed. Under `--features sanitize` each
/// schedule also runs the lock-order and lockset analyses over the
/// store's real locks. Whatever the interleaving did, each schedule's
/// store must end with its victim index matching its records.
#[test]
fn explore_store_stress_is_clean_over_64_schedules() {
    let stores = Mutex::new(Vec::new());
    let result = explore(&ExploreConfig::default(), |s| {
        // Small budget so `put`s trip the eviction sweep mid-schedule.
        let st = store(4, 16 << 10);
        stores.lock().unwrap().push(Arc::clone(&st));
        // One prefetcher: inserts keys ahead of the demand threads.
        {
            let st = Arc::clone(&st);
            s.spawn("prefetch", move |ctx| {
                for i in 0..6 {
                    ctx.step("put-ahead");
                    st.put(&format!("obj{i}"), payload(i), ObjectMeta::default())
                        .unwrap();
                }
            });
        }
        // Six demand threads: get-or-put their own key, read a
        // neighbour's, and mark uses (burning down future_uses prunes
        // the object — the demand-path `prune`).
        for t in 0..6usize {
            let st = Arc::clone(&st);
            s.spawn(&format!("demand{t}"), move |ctx| {
                let key = format!("obj{t}");
                ctx.step("get-or-put");
                if st.get(&key).is_err() {
                    st.put(&key, payload(t), ObjectMeta::default()).unwrap();
                }
                ctx.step("get-neighbour");
                let _ = st.get(&format!("obj{}", (t + 1) % 6));
                ctx.step("mark-used");
                st.mark_used(&key);
            });
        }
        // One pruner: advances the clock and forces budget sweeps
        // against the concurrent writers.
        {
            let st = Arc::clone(&st);
            s.spawn("prune", move |ctx| {
                for clock in 1..4u64 {
                    ctx.step("advance");
                    st.set_clock(clock);
                    ctx.step("sweep");
                    st.enforce_budgets().unwrap();
                }
                ctx.step("remove");
                let _ = st.remove("obj0");
            });
        }
    });
    result.assert_clean();
    for st in stores.into_inner().unwrap() {
        st.check_index();
    }
}

/// The same scenario must produce the identical interleaving when a
/// seed is replayed — that is what makes a failing seed actionable.
#[test]
fn explore_schedules_replay_identically() {
    use sand::sanitizer::run_schedule;
    let scenario = |s: &mut sand::sanitizer::Spawner| {
        let st = store(2, 64 << 10);
        for t in 0..3usize {
            let st = Arc::clone(&st);
            s.spawn(&format!("t{t}"), move |ctx| {
                ctx.step("put");
                st.put(&format!("k{t}"), payload(t), ObjectMeta::default())
                    .unwrap();
                ctx.step("get");
                st.get(&format!("k{t}")).unwrap();
            });
        }
    };
    let a = run_schedule(7, scenario);
    let b = run_schedule(7, scenario);
    assert!(a.panics.is_empty(), "{:?}", a.panics);
    assert_eq!(a.schedule, b.schedule, "replay must be bit-identical");
}

#[cfg(feature = "sanitize")]
mod findings {
    use sand::sanitizer::{exclusive, take_reports, ReportKind, ShadowCell, TrackedMutex};
    use std::sync::Arc;

    /// A deliberately seeded ABBA: two threads nest the same pair of
    /// locks in opposite orders, serialized so no deadlock ever fires —
    /// the order graph must still report the cycle, both times we look.
    #[test]
    fn seeded_abba_reports_deterministically() {
        for round in 0..2 {
            let _x = exclusive();
            let a = Arc::new(TrackedMutex::new("abba.first", ()));
            let b = Arc::new(TrackedMutex::new("abba.second", ()));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            std::thread::spawn(move || {
                let _ga = a2.lock();
                let _gb = b2.lock();
            })
            .join()
            .unwrap();
            let _gb = b.lock();
            let _ga = a.lock();
            let reports = take_reports();
            assert_eq!(reports.len(), 1, "round {round}: {reports:?}");
            assert_eq!(reports[0].kind, ReportKind::LockOrderCycle);
            assert!(
                reports[0].message.contains("abba.first")
                    && reports[0].message.contains("abba.second"),
                "round {round}: {}",
                reports[0].message
            );
        }
    }

    /// A deliberately seeded unlocked write: two threads mutate a
    /// shared cell with no lock held — the lockset checker must report
    /// exactly one race on the cell, deterministically.
    #[test]
    fn seeded_unlocked_write_reports_deterministically() {
        for round in 0..2 {
            let _x = exclusive();
            let cell = Arc::new(ShadowCell::new("race.cell"));
            let c2 = Arc::clone(&cell);
            cell.write();
            std::thread::spawn(move || c2.write()).join().unwrap();
            cell.write(); // still racy; must not double-report
            let reports = take_reports();
            assert_eq!(reports.len(), 1, "round {round}: {reports:?}");
            assert_eq!(reports[0].kind, ReportKind::LocksetRace);
            assert_eq!(reports[0].labels, vec!["race.cell".to_string()]);
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Rank-ordered acquisition of same-label locks (the store-shard
        /// pattern) stays clean for every ascending subset; one
        /// descending pair must trip the same-label analysis.
        #[test]
        fn prop_lock_order_ranked_shards(
            mut ranks in proptest::collection::vec(0u32..8, 2..5),
        ) {
            let _x = exclusive();
            let shards: Vec<TrackedMutex<()>> = (0..8)
                .map(|i| TrackedMutex::with_rank("prop.shard", i, ()))
                .collect();
            ranks.sort_unstable();
            ranks.dedup();
            let guards: Vec<_> =
                ranks.iter().map(|&r| shards[r as usize].lock()).collect();
            drop(guards);
            let ascending = take_reports();
            prop_assert!(ascending.is_empty(), "{ascending:?}");
            if ranks.len() >= 2 {
                let hi = *ranks.last().unwrap() as usize;
                let lo = ranks[0] as usize;
                let g1 = shards[hi].lock();
                let g2 = shards[lo].lock();
                let descending = take_reports();
                drop(g2);
                drop(g1);
                prop_assert_eq!(descending.len(), 1, "rank inversion must report");
                prop_assert_eq!(descending[0].kind, ReportKind::SameLabelOrder);
            }
        }
    }
}
