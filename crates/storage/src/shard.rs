//! One key-hash shard of the store's index: its records, and their
//! place in Algorithm 1's victim order.
//!
//! The order is the tuple `(deadline ∨ u64::MAX, key)`; the maximum is
//! pruned first (longest deadline, `None` farthest, key as the total
//! tie-break). A shard keeps that order in three ordered sets — the
//! memory-resident records, the spent ones (`future_uses == 0`) and all
//! of them — so the best candidate of a class is a `last()`, not a walk
//! over every record. A record's deadline and key never change between
//! its insertion and its removal, so an entry is never re-keyed: it
//! moves in or out of `memory` when the tier changes and into `spent`
//! when the last use burns.
//!
//! The fields are private so that the sets cannot drift from the map:
//! every mutation of a record goes through a method here, and the whole
//! shard sits behind its `TrackedMutex` in [`crate::store`].

use crate::store::{ObjectMeta, Tier};
use crate::vlog::Ptr;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// A record's place in the victim order. The key is shared with the map
/// and the other sets, so filing a record costs no string copy.
type VictimKey = (u64, Arc<str>);

/// Internal per-object record.
#[derive(Debug, Clone)]
pub(crate) struct Record {
    pub(crate) tier: Tier,
    pub(crate) size: u64,
    pub(crate) meta: ObjectMeta,
    /// Memory-resident bytes (None when on disk).
    pub(crate) bytes: Option<Arc<Vec<u8>>>,
    /// Location of the object's record in the value log (always `Some`
    /// when the store has a persistent tier).
    pub(crate) ptr: Option<Ptr>,
}

/// Which records a prune step chooses among.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Victims {
    /// Records with a memory-resident copy.
    Memory,
    /// Records whose planned uses are all burnt.
    Spent,
    /// Every record.
    All,
}

/// One shard of the key index. Byte accounting lives outside, in the
/// store-global atomics.
#[derive(Debug, Default)]
pub(crate) struct Shard {
    objects: HashMap<Arc<str>, Record>,
    memory: BTreeSet<VictimKey>,
    spent: BTreeSet<VictimKey>,
    all: BTreeSet<VictimKey>,
    /// The log position a record must lie past to be installed: the
    /// shard's latest tombstone, or the start of the segment a compaction
    /// copied the shard's records into, whichever is later.
    fence: (u64, u64),
}

fn place(key: &Arc<str>, rec: &Record) -> VictimKey {
    (rec.meta.deadline.unwrap_or(u64::MAX), Arc::clone(key))
}

impl Shard {
    pub(crate) fn get(&self, key: &str) -> Option<&Record> {
        self.objects.get(key)
    }

    pub(crate) fn contains(&self, key: &str) -> bool {
        self.objects.contains_key(key)
    }

    /// Every record, in no particular order.
    pub(crate) fn records(&self) -> impl Iterator<Item = (&str, &Record)> {
        self.objects.iter().map(|(k, r)| (&**k, r))
    }

    /// The shard's first victim among `class`, with its deadline.
    pub(crate) fn victim(&self, class: Victims) -> Option<(u64, &Arc<str>)> {
        let set = match class {
            Victims::Memory => &self.memory,
            Victims::Spent => &self.spent,
            Victims::All => &self.all,
        };
        set.last().map(|(deadline, key)| (*deadline, key))
    }

    /// Files `rec` under `key`, in place of any record already there.
    pub(crate) fn insert(&mut self, key: &str, rec: Record) {
        let key = self
            .take(key)
            .map_or_else(|| Arc::from(key), |(key, _)| key);
        let at = place(&key, &rec);
        if rec.tier == Tier::Memory {
            self.memory.insert(at.clone());
        }
        if rec.meta.future_uses == 0 {
            self.spent.insert(at.clone());
        }
        self.all.insert(at);
        self.objects.insert(key, rec);
    }

    pub(crate) fn remove(&mut self, key: &str) -> Option<Record> {
        self.take(key).map(|(_, rec)| rec)
    }

    fn take(&mut self, key: &str) -> Option<(Arc<str>, Record)> {
        let (key, rec) = self.objects.remove_entry(key)?;
        let at = place(&key, &rec);
        if rec.tier == Tier::Memory {
            self.memory.remove(&at);
        }
        if rec.meta.future_uses == 0 {
            self.spent.remove(&at);
        }
        self.all.remove(&at);
        Some((key, rec))
    }

    /// Drops the memory copy of `key` (the record stays, on the disk
    /// tier). Returns the bytes freed, `None` if `key` has no such copy.
    pub(crate) fn spill(&mut self, key: &str) -> Option<u64> {
        let (shared, rec) = self.objects.get_key_value(key)?;
        if rec.tier != Tier::Memory {
            return None;
        }
        let at = place(shared, rec);
        self.memory.remove(&at);
        let rec = self.objects.get_mut(key)?;
        rec.bytes = None;
        rec.tier = Tier::Disk;
        Some(rec.size)
    }

    /// Burns one planned use of `key`; the last one files it as spent.
    pub(crate) fn burn_use(&mut self, key: &str) {
        let Some(rec) = self.objects.get_mut(key) else {
            return;
        };
        let uses = rec.meta.future_uses;
        rec.meta.future_uses = uses.saturating_sub(1);
        if uses == 1 {
            if let Some((shared, rec)) = self.objects.get_key_value(key) {
                self.spent.insert(place(shared, rec));
            }
        }
    }

    /// True when a record of `key` appended at `ptr` is still the latest
    /// in log order: no record of `key` here lies past it, and neither
    /// does the fence. A put whose record a racing put, a compaction or
    /// one of this shard's tombstones overtook must append again, or
    /// replay would pick another record than the index names.
    pub(crate) fn admits(&self, key: &str, ptr: Ptr) -> bool {
        let at = ptr.log_pos();
        at > self.fence
            && self
                .objects
                .get(key)
                .and_then(|rec| rec.ptr)
                .is_none_or(|cur| cur.log_pos() < at)
    }

    /// Moves the fence up to `at` (never down).
    pub(crate) fn raise_fence(&mut self, at: (u64, u64)) {
        self.fence = self.fence.max(at);
    }

    /// Points `key`'s record at its new place in the value log.
    pub(crate) fn relocate(&mut self, key: &str, ptr: Ptr) {
        if let Some(rec) = self.objects.get_mut(key) {
            rec.ptr = Some(ptr);
        }
    }

    /// Panics unless the three sets are exactly what the records imply.
    pub(crate) fn check_index(&self) {
        let rebuilt = |keep: fn(&Record) -> bool| -> BTreeSet<VictimKey> {
            self.objects
                .iter()
                .filter(|(_, rec)| keep(rec))
                .map(|(key, rec)| place(key, rec))
                .collect()
        };
        assert_eq!(
            self.memory,
            rebuilt(|r| r.tier == Tier::Memory),
            "memory set"
        );
        assert_eq!(
            self.spent,
            rebuilt(|r| r.meta.future_uses == 0),
            "spent set"
        );
        assert_eq!(self.all, rebuilt(|_| true), "all set");
    }
}
