//! Reference oracle for the store's Algorithm-1 sweep: a single-threaded
//! model of `ObjectStore`'s placement and budget rules that picks every
//! victim the way the store did before it kept an ordered index — by
//! walking every record (`scan_victim`). Kept for
//! `prop_victim_order_matches_reference_scan` and the eviction-churn row
//! of the `store_contention` bench only; linear per victim, never
//! shipped.
//!
//! The model holds no bytes and no log: what it predicts is which keys
//! survive, on which tier, with how many uses left, and the byte and
//! victim counters.

use sand_storage::{ObjectMeta, StoreConfig, Tier};
use std::collections::HashMap;

/// The store's fixed disk-tier watermark (Algorithm 1's 75%).
const EVICT_WATERMARK: f64 = 0.75;

#[derive(Debug, Clone, Copy)]
struct Record {
    tier: Tier,
    size: u64,
    meta: ObjectMeta,
}

/// The model store.
#[derive(Debug)]
pub struct ScanStore {
    config: StoreConfig,
    /// Whether the modelled store has a disk tier under its memory tier.
    persistent: bool,
    clock: u64,
    objects: HashMap<String, Record>,
    pub memory_bytes: u64,
    pub disk_bytes: u64,
    pub evictions: u64,
    pub spills: u64,
}

impl ScanStore {
    pub fn new(config: StoreConfig, persistent: bool) -> Self {
        ScanStore {
            config,
            persistent,
            clock: 0,
            objects: HashMap::new(),
            memory_bytes: 0,
            disk_bytes: 0,
            evictions: 0,
            spills: 0,
        }
    }

    pub fn set_clock(&mut self, clock: u64) {
        self.clock = clock;
    }

    /// Models `ObjectStore::put`; false where the store returns
    /// `TooLarge`.
    pub fn put(&mut self, key: &str, size: u64, meta: ObjectMeta) -> bool {
        if size > self.config.memory_budget && !self.persistent {
            return false;
        }
        let near = match meta.deadline {
            Some(d) => d <= self.clock.saturating_add(self.config.memory_horizon),
            None => true,
        };
        self.forget(key);
        let tier = if near || !self.persistent {
            self.memory_bytes += size;
            Tier::Memory
        } else {
            Tier::Disk
        };
        if self.persistent {
            self.disk_bytes += size;
        }
        self.objects
            .insert(key.to_string(), Record { tier, size, meta });
        self.enforce_budgets();
        true
    }

    pub fn remove(&mut self, key: &str) {
        self.forget(key);
    }

    pub fn mark_used(&mut self, key: &str) {
        if let Some(rec) = self.objects.get_mut(key) {
            rec.meta.future_uses = rec.meta.future_uses.saturating_sub(1);
        }
    }

    pub fn keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self.objects.keys().cloned().collect();
        keys.sort();
        keys
    }

    pub fn tier_of(&self, key: &str) -> Option<Tier> {
        self.objects.get(key).map(|r| r.tier)
    }

    pub fn future_uses_of(&self, key: &str) -> Option<u32> {
        self.objects.get(key).map(|r| r.meta.future_uses)
    }

    /// Drops `key` and its bytes from the accounting.
    fn forget(&mut self, key: &str) {
        if let Some(rec) = self.objects.remove(key) {
            if rec.tier == Tier::Memory {
                self.memory_bytes -= rec.size;
            }
            if self.persistent {
                self.disk_bytes -= rec.size;
            }
        }
    }

    /// The full scan: the best prune candidate among records matching
    /// `eligible` is the maximum `(deadline, key)`, `None` deadlines
    /// farthest.
    fn scan_victim(&self, eligible: impl Fn(&Record) -> bool) -> Option<String> {
        let mut best: Option<(u64, &str)> = None;
        for (key, rec) in self.objects.iter().filter(|(_, r)| eligible(r)) {
            let at = (rec.meta.deadline.unwrap_or(u64::MAX), key.as_str());
            if best.is_none_or(|b| at > b) {
                best = Some(at);
            }
        }
        best.map(|(_, key)| key.to_string())
    }

    pub fn enforce_budgets(&mut self) {
        while self.memory_bytes > self.config.memory_budget {
            let Some(key) = self.scan_victim(|r| r.tier == Tier::Memory) else {
                break;
            };
            if self.persistent {
                if let Some(rec) = self.objects.get_mut(&key) {
                    rec.tier = Tier::Disk;
                    self.memory_bytes -= rec.size;
                    self.spills += 1;
                }
            } else {
                self.forget(&key);
                self.evictions += 1;
            }
        }
        let disk_limit = (self.config.disk_budget as f64 * EVICT_WATERMARK) as u64;
        while self.disk_bytes > disk_limit {
            let victim = self
                .scan_victim(|r| r.meta.future_uses == 0)
                .or_else(|| self.scan_victim(|_| true));
            let Some(key) = victim else {
                break;
            };
            self.forget(&key);
            self.evictions += 1;
        }
    }
}
