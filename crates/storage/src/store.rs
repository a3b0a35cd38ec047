//! The tiered, sharded object store with a crash-safe persistent tier.
//!
//! ## Sharding
//!
//! The index is split into `StoreConfig::shards` key-hash shards, each
//! behind its own lock, so parallel decode/augmentation workers touching
//! different keys no longer serialize on one mutex. Two properties keep
//! the sharded store observably identical to a single-lock store (and
//! therefore to itself at any shard count — pinned by the
//! `prop_sharding_invariant` property test):
//!
//! - **Byte accounting is global.** `memory_bytes`/`disk_bytes` are
//!   process-wide atomics, updated under the owning shard's lock, so the
//!   budgets of Algorithm 1 stay exact rather than per-shard
//!   approximations.
//! - **Victim ordering is global and deterministic.** The prune pass
//!   ([`ObjectStore::enforce_budgets`]) is a coordinated sweep: each
//!   round asks every shard for its best candidate under the paper's
//!   ordering (spent objects first, then longest deadline, with the key
//!   as a total-order tie-break) and applies the single global winner.
//!   A shard answers from an ordered index of its records
//!   ([`crate::shard`]), so a round costs O(shards · log n), not a walk
//!   over every resident object. Shard boundaries never influence which
//!   object is pruned.
//!
//! ## The persistent tier
//!
//! With a directory, durability comes from the append-only, checksummed
//! [`ValueLog`] (see [`crate::vlog`] for the record format): every `put`
//! appends one record whose CRC32 is written last, so a crash mid-write
//! can never leave an adoptable half-object — recovery truncates the
//! torn tail instead of resurrecting it. A `put` appends before it takes
//! its shard's lock and installs the record only if it is still the
//! key's latest in log order, appending again otherwise, so the index
//! always names the record replay would adopt. A disk read goes through
//! the segment's held read handle with no shard lock held. Removals
//! append tombstones; superseded and removed records become dead bytes,
//! and when the dead-byte ratio crosses `StoreConfig::compact_threshold`
//! (and the absolute garbage clears a small floor) the Algorithm-1 sweep
//! runs a **compaction**: seal the active segment, copy live records out
//! of the sealed ones (memory-resident objects re-append from their
//! in-memory bytes without a read), delete the sealed files. The store
//! reads and writes only the log's segment files and its `MANIFEST`;
//! anything else in the directory is not the store's and is left alone.

use crate::shard::{Record, Shard, Victims};
use crate::vlog::{RecordMeta, SyncPolicy, ValueLog};
use crate::{Result, StorageError};
use sand_sanitizer::{ShadowCell, TrackedMutex, TrackedMutexGuard};
use sand_telemetry::{record_stage, Stage, StoreMetrics, Telemetry};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Which tier an object currently occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Resident in memory.
    Memory,
    /// Persisted on disk.
    Disk,
}

/// Scheduling metadata attached to each object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectMeta {
    /// Global clock at which the object is next needed (`None` = unknown,
    /// treated as farthest-future for eviction).
    pub deadline: Option<u64>,
    /// How many future reads the plan still expects.
    pub future_uses: u32,
}

impl Default for ObjectMeta {
    fn default() -> Self {
        ObjectMeta {
            deadline: None,
            future_uses: 1,
        }
    }
}

impl ObjectMeta {
    fn to_record(self) -> RecordMeta {
        RecordMeta {
            deadline: self.deadline,
            future_uses: self.future_uses,
        }
    }

    fn from_record(m: RecordMeta) -> Self {
        ObjectMeta {
            deadline: m.deadline,
            future_uses: m.future_uses,
        }
    }
}

/// The default shard count: one per core, capped at 16.
#[must_use]
pub fn default_shards() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(16))
}

/// Store configuration.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Memory-tier byte budget.
    pub memory_budget: u64,
    /// Disk-tier byte budget (the "local SSD" of the paper). Counts
    /// **live object bytes**, not log-file bytes; dead log bytes are
    /// bounded separately by the compaction threshold.
    pub disk_budget: u64,
    /// Deadline horizon (clock ticks) within which new objects are kept
    /// in memory rather than parked on disk.
    pub memory_horizon: u64,
    /// Index shard count (default `min(16, cores)`). Behaviour is
    /// shard-count invariant; the knob only trades lock contention for
    /// sweep fan-out.
    pub shards: usize,
    /// Dead-byte ratio of the value log above which the budget sweep
    /// compacts it (rewrites live records, deletes sealed segments).
    /// Must be in (0, 1]; 1.0 effectively disables compaction.
    pub compact_threshold: f64,
    /// When value-log appends reach stable storage (see
    /// [`SyncPolicy`]). `Never` keeps the historical no-fsync put path;
    /// `Always` returns from a put only once an fsync covers it.
    pub sync: SyncPolicy,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            memory_budget: 64 << 20,
            disk_budget: 512 << 20,
            memory_horizon: 2,
            shards: default_shards(),
            compact_threshold: 0.5,
            sync: SyncPolicy::Never,
        }
    }
}

/// The disk tier evicts once its live bytes pass this fraction of
/// `disk_budget` (Algorithm 1's 75% watermark).
const EVICT_WATERMARK: f64 = 0.75;

/// Compaction only triggers once at least this much garbage exists, so
/// tiny stores don't churn the log over a few dead kilobytes.
const COMPACT_MIN_GARBAGE: u64 = 64 << 10;

/// Aggregate statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Bytes currently resident in memory.
    pub memory_bytes: u64,
    /// Live object bytes in the persistent tier.
    pub disk_bytes: u64,
    /// Memory-tier hits.
    pub memory_hits: u64,
    /// Disk-tier hits (object had to be read back from the log).
    pub disk_hits: u64,
    /// Misses (object absent from both tiers).
    pub misses: u64,
    /// Objects evicted entirely.
    pub evictions: u64,
    /// Objects spilled from memory to disk.
    pub spills: u64,
    /// Total record bytes in the value log, live + dead (0 without a
    /// persistent tier).
    pub log_bytes: u64,
    /// Dead record bytes in the value log awaiting compaction.
    pub garbage_bytes: u64,
    /// Log compactions run.
    pub compactions: u64,
    /// Torn tails truncated by the recovery replay.
    pub torn_truncations: u64,
    /// Records rejected for checksum mismatch (recovery + runtime).
    pub corrupt_records: u64,
    /// Objects adopted from the log on open.
    pub replayed_objects: u64,
    /// Bytes the recovery replay read from the log's segments.
    pub replayed_bytes: u64,
    /// Fsyncs issued by the value log (0 under `SyncPolicy::Never`).
    pub vlog_fsyncs: u64,
}

/// The tiered object store.
///
/// Thread-safe: materialization workers `put` while feeding threads
/// `get`, and the key-hash shards let disjoint keys proceed without
/// contending on one lock.
#[derive(Debug)]
pub struct ObjectStore {
    config: StoreConfig,
    dir: Option<PathBuf>,
    /// The persistent tier (`Some` exactly when `dir` is).
    vlog: Option<ValueLog>,
    shards: Vec<TrackedMutex<Shard>>,
    /// Global memory-tier residency, maintained under shard locks.
    memory_bytes: AtomicU64,
    /// Global live persistent bytes, maintained under shard locks.
    disk_bytes: AtomicU64,
    /// Serializes budget sweeps so concurrent `enforce_budgets` callers
    /// cannot race each other's victim selection. Taken only by a caller
    /// that finds a tier over its limit.
    sweep: TrackedMutex<()>,
    /// Sanitizer shadow for the global byte counters and the shards'
    /// victim index: every mutation must happen under some shard lock
    /// (the invariant `remove_locked` documents); the lockset checker
    /// enforces it.
    bytes_shadow: ShadowCell,
    /// Current global clock, advanced by the engine each iteration; used
    /// to decide near-future placement and "no longer needed" eviction.
    clock: AtomicU64,
    /// The store's counters: hits, misses, evictions, spills, the
    /// recovery outcome and the log's compactions and fsyncs are counted
    /// here once, and [`ObjectStore::stats`] reads them back.
    metrics: StoreMetrics,
}

impl ObjectStore {
    /// Creates a store. With `dir = Some(..)` the persistent tier is a
    /// checksummed value log under that directory (created if missing);
    /// records from a previous run are replayed and adopted (crash
    /// recovery), with torn tails truncated and corrupt records
    /// rejected. Files in `dir` other than the log's segments and
    /// `MANIFEST` are neither read nor touched. A `dir` with a zero
    /// `disk_budget` is rejected: the budget sweep would evict every
    /// object the moment it reached the log, so nothing would persist.
    /// The store counts into a registry of its own; an engine hands it
    /// the engine's handles with [`ObjectStore::with_metrics`].
    pub fn open(config: StoreConfig, dir: Option<PathBuf>) -> Result<Self> {
        let metrics = StoreMetrics::register(&Telemetry::disabled(), config.shards);
        Self::with_metrics(config, dir, metrics)
    }

    /// [`ObjectStore::open`], counting into `metrics`. The recovery
    /// replay's outcome is recorded into them before this returns.
    pub fn with_metrics(
        config: StoreConfig,
        dir: Option<PathBuf>,
        metrics: StoreMetrics,
    ) -> Result<Self> {
        if config.memory_budget == 0 {
            return Err(StorageError::InvalidConfig {
                what: "memory budget must be nonzero",
            });
        }
        if config.shards == 0 {
            return Err(StorageError::InvalidConfig {
                what: "shard count must be nonzero",
            });
        }
        if !(config.compact_threshold > 0.0 && config.compact_threshold <= 1.0) {
            return Err(StorageError::InvalidConfig {
                what: "compact threshold must be in (0,1]",
            });
        }
        if dir.is_some() && config.disk_budget == 0 {
            return Err(StorageError::InvalidConfig {
                what: "disk budget must be nonzero with a store directory",
            });
        }
        let mut store = ObjectStore {
            config,
            dir: dir.clone(),
            vlog: None,
            shards: (0..config.shards)
                .map(|i| TrackedMutex::with_rank("store.shard", i as u32, Shard::default()))
                .collect(),
            memory_bytes: AtomicU64::new(0),
            disk_bytes: AtomicU64::new(0),
            sweep: TrackedMutex::new("store.sweep", ()),
            bytes_shadow: ShadowCell::new("store.bytes"),
            clock: AtomicU64::new(0),
            metrics,
        };
        let m = &store.metrics;
        m.mem_budget.set(config.memory_budget as i64);
        if let Some(d) = &dir {
            let t0 = Instant::now();
            let (vlog, records, replay) = ValueLog::open(d, config.sync, m.vlog_fsyncs.clone())?;
            m.vlog_torn_truncations.add(replay.torn_truncations);
            m.vlog_corrupt_records.add(replay.corrupt_records);
            m.vlog_replayed_bytes.add(replay.bytes_read);
            // Adopt only records that survived checksum validation; the
            // byte accounting is rebuilt from the validated value
            // lengths, never from unvalidated file metadata.
            let mut adopted = 0u64;
            for rec in records {
                let Some((ptr, rmeta)) = rec.put else {
                    continue;
                };
                let idx = store.shard_of(&rec.key);
                store.shards[idx].lock().insert(
                    &rec.key,
                    Record {
                        tier: Tier::Disk,
                        size: u64::from(ptr.val_len),
                        meta: ObjectMeta::from_record(rmeta),
                        bytes: None,
                        ptr: Some(ptr),
                    },
                );
                store.bytes_shadow.write();
                store
                    .disk_bytes
                    .fetch_add(u64::from(ptr.val_len), Ordering::Relaxed);
                adopted += 1;
            }
            store.vlog = Some(vlog);
            m.vlog_replayed_objects.add(adopted);
            m.vlog_replay_us.observe_duration(t0.elapsed());
        }
        store.publish_mem_usage();
        store.publish_log_usage();
        Ok(store)
    }

    /// Publishes the memory-tier residency gauge after an accounting
    /// change.
    fn publish_mem_usage(&self) {
        self.metrics
            .mem_bytes
            .set(self.memory_bytes.load(Ordering::Relaxed) as i64);
    }

    /// Publishes the value-log size and garbage-ratio gauges (no-op
    /// without a persistent tier).
    fn publish_log_usage(&self) {
        if let Some(vlog) = &self.vlog {
            let (total, live) = vlog.byte_totals();
            self.metrics.vlog_log_bytes.set(total as i64);
            let pct = (total.saturating_sub(live) * 100)
                .checked_div(total)
                .unwrap_or(0) as i64;
            self.metrics.vlog_garbage_pct.set(pct);
        }
    }

    /// An in-memory-only store (no persistent tier).
    pub fn memory_only(config: StoreConfig) -> Result<Self> {
        ObjectStore::open(config, None)
    }

    /// Advances the engine clock (one tick per training iteration).
    pub fn set_clock(&self, clock: u64) {
        self.clock.store(clock, Ordering::Relaxed);
    }

    /// The current engine clock.
    #[must_use]
    pub fn clock(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    /// The number of index shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `key`. `DefaultHasher::new()` hashes with fixed
    /// keys, so placement is stable across runs.
    fn shard_of(&self, key: &str) -> usize {
        if self.shards.len() == 1 {
            return 0;
        }
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() % self.shards.len() as u64) as usize
    }

    /// Locks shard `idx`. A contended acquisition records its wait in
    /// the shard's lock-wait histogram; the uncontended fast path never
    /// reads the clock.
    fn lock_shard(&self, idx: usize) -> TrackedMutexGuard<'_, Shard> {
        if let Some(guard) = self.shards[idx].try_lock() {
            return guard;
        }
        let t0 = Instant::now();
        let guard = self.shards[idx].lock();
        if let Some(h) = self.metrics.shard_lock_wait_us.get(idx) {
            h.observe_duration(t0.elapsed());
        }
        guard
    }

    /// Inserts an object.
    ///
    /// Takes the bytes as an `Arc` so a producer (e.g. the decoder) can
    /// hand its buffer to the store without a copy: the memory tier keeps
    /// the same allocation that later [`ObjectStore::get`] calls (and,
    /// through them, VFS reads) share. Plain `Vec<u8>` callers can pass
    /// `bytes.into()`.
    ///
    /// When a persistent tier exists the write is **write-through**:
    /// every object is appended to the value log (the paper's
    /// fault-tolerance rule — "all unpruned objects persist to the file
    /// system") with its checksum committed last, and objects whose
    /// deadline falls within `memory_horizon` of the current clock
    /// additionally keep a memory-resident copy for fast reads. The
    /// append happens **before** the record it replaces is touched, so a
    /// failed write returns `Err` with the previous object — and its
    /// accounting — fully intact, and a crash mid-append leaves only a
    /// torn tail that recovery truncates. The append takes no shard
    /// lock: reads and probes of the shard do not wait behind the disk
    /// write. The owning shard is locked only to install the record, and
    /// only if nothing later in log order is there for it (a racing put
    /// of the key, a compaction's copy, one of the shard's tombstones);
    /// otherwise the put appends again, so the index names the record
    /// replay would pick. May spill or evict to stay within budgets.
    pub fn put(&self, key: &str, bytes: Arc<Vec<u8>>, meta: ObjectMeta) -> Result<()> {
        self.metrics.puts.inc();
        let size = bytes.len() as u64;
        if size > self.config.memory_budget && self.dir.is_none() {
            return Err(StorageError::TooLarge {
                key: key.to_string(),
                size,
                budget: self.config.memory_budget,
            });
        }
        let near = match meta.deadline {
            Some(d) => d <= self.clock().saturating_add(self.config.memory_horizon),
            None => true,
        };
        match &self.vlog {
            Some(vlog) => self.put_logged(vlog, key, bytes, meta, near)?,
            None => {
                // Memory-only: the replace is a single in-memory step
                // with no failure path between removal and insertion.
                let mut shard = self.lock_shard(self.shard_of(key));
                if let Some(old) = shard.remove(key) {
                    self.bytes_shadow.write();
                    self.memory_bytes.fetch_sub(old.size, Ordering::Relaxed);
                }
                self.bytes_shadow.write();
                self.memory_bytes.fetch_add(size, Ordering::Relaxed);
                shard.insert(
                    key,
                    Record {
                        tier: Tier::Memory,
                        size,
                        meta,
                        bytes: Some(bytes),
                        ptr: None,
                    },
                );
            }
        }
        self.publish_mem_usage();
        self.enforce_budgets()?;
        Ok(())
    }

    /// [`ObjectStore::put`] over a value log: append with no lock held,
    /// then install under the shard lock if the record is still the
    /// key's latest in log order ([`Shard::admits`]); otherwise retire it
    /// and append again.
    fn put_logged(
        &self,
        vlog: &ValueLog,
        key: &str,
        bytes: Arc<Vec<u8>>,
        meta: ObjectMeta,
        near: bool,
    ) -> Result<()> {
        let size = bytes.len() as u64;
        let idx = self.shard_of(key);
        loop {
            // Durability first: append the new record. On failure the old
            // record (still in the map, still accounted) survives
            // untouched — no data loss, no orphan final-path file.
            let t0 = Instant::now();
            let ptr = vlog.append(key, meta.to_record(), bytes.as_slice())?;
            let spent = t0.elapsed();
            self.metrics.vlog_append_us.observe_duration(spent);
            record_stage(Stage::Persist, spent);
            let mut shard = self.lock_shard(idx);
            if !shard.admits(key, ptr) {
                vlog.retire(u64::from(ptr.total_len));
                continue;
            }
            // Settle the replaced record (its log bytes become garbage)
            // and install the new one.
            if let Some(old) = shard.remove(key) {
                self.bytes_shadow.write();
                if old.tier == Tier::Memory {
                    self.memory_bytes.fetch_sub(old.size, Ordering::Relaxed);
                }
                self.disk_bytes.fetch_sub(old.size, Ordering::Relaxed);
                if let Some(optr) = old.ptr {
                    vlog.retire(u64::from(optr.total_len));
                }
            }
            self.bytes_shadow.write();
            self.disk_bytes.fetch_add(size, Ordering::Relaxed);
            let (tier, resident) = if near {
                self.memory_bytes.fetch_add(size, Ordering::Relaxed);
                (Tier::Memory, Some(bytes))
            } else {
                (Tier::Disk, None)
            };
            shard.insert(
                key,
                Record {
                    tier,
                    size,
                    meta,
                    bytes: resident,
                    ptr: Some(ptr),
                },
            );
            return Ok(());
        }
    }

    /// Fetches an object's bytes; disk-tier objects are read back from
    /// the value log (and the bytes returned without promoting, to avoid
    /// thrashing memory). Every log read re-validates the record's
    /// checksum: a mismatch (bit rot under the index) surfaces as a
    /// miss, so callers fall through to recompute instead of consuming
    /// corrupt frames.
    pub fn get(&self, key: &str) -> Result<Arc<Vec<u8>>> {
        let ptr = {
            let shard = self.lock_shard(self.shard_of(key));
            match shard.get(key) {
                Some(rec) => match (&rec.tier, &rec.bytes) {
                    (Tier::Memory, Some(b)) => {
                        self.metrics.mem_hits.inc();
                        return Ok(Arc::clone(b));
                    }
                    _ => rec.ptr,
                },
                None => {
                    return Err(self.record_miss(key));
                }
            }
        };
        let Some(ptr) = ptr else {
            return Err(self.record_miss(key));
        };
        let vlog = self.vlog.as_ref().ok_or_else(|| StorageError::NotFound {
            key: key.to_string(),
        })?;
        // The shard lock is released before the read, so a concurrent
        // compaction can delete the segment in between. A read that
        // already holds the segment's handle still reads the record's
        // bytes; one that finds the file gone is a miss, not an I/O
        // failure: callers fall through to recompute. Likewise a checksum
        // mismatch: corrupt bytes must never be served, so the read
        // degrades to a miss.
        let t0 = Instant::now();
        let bytes = match vlog.read(key, ptr) {
            Ok(bytes) => bytes,
            Err(StorageError::NotFound { .. }) => return Err(self.record_miss(key)),
            Err(StorageError::Corrupt { .. }) => {
                self.metrics.vlog_corrupt_records.inc();
                return Err(self.record_miss(key));
            }
            Err(e) => return Err(e),
        };
        let spent = t0.elapsed();
        self.metrics.disk_hits.inc();
        self.metrics.disk_read_us.observe_duration(spent);
        record_stage(Stage::StoreIo, spent);
        Ok(Arc::new(bytes))
    }

    /// Counts a miss and builds the NotFound error.
    fn record_miss(&self, key: &str) -> StorageError {
        self.metrics.misses.inc();
        StorageError::NotFound {
            key: key.to_string(),
        }
    }

    /// True when the store holds the object in either tier.
    #[must_use]
    pub fn contains(&self, key: &str) -> bool {
        self.lock_shard(self.shard_of(key)).contains(key)
    }

    /// Which tier an object occupies, if present.
    #[must_use]
    pub fn tier_of(&self, key: &str) -> Option<Tier> {
        self.lock_shard(self.shard_of(key)).get(key).map(|r| r.tier)
    }

    /// An object's remaining retained-use count, if present. Zero means
    /// the pruning pass may evict it ahead of any deadline ordering.
    #[must_use]
    pub fn future_uses_of(&self, key: &str) -> Option<u32> {
        self.lock_shard(self.shard_of(key))
            .get(key)
            .map(|r| r.meta.future_uses)
    }

    /// Records a consumption: decrements `future_uses`.
    pub fn mark_used(&self, key: &str) {
        let mut shard = self.lock_shard(self.shard_of(key));
        self.bytes_shadow.write();
        shard.burn_use(key);
    }

    /// Removes an object from both tiers.
    pub fn remove(&self, key: &str) -> Result<()> {
        let mut shard = self.lock_shard(self.shard_of(key));
        self.remove_locked(&mut shard, key)
    }

    /// Removes `key` from its (already locked) shard, settling the
    /// global byte accounting. Every add/sub of the atomics happens
    /// under the owning shard's lock, so the counters are exact. With a
    /// persistent tier the removal appends a tombstone so it survives
    /// restart; the dead record is garbage until compaction.
    fn remove_locked(&self, shard: &mut Shard, key: &str) -> Result<()> {
        if let Some(rec) = shard.remove(key) {
            self.bytes_shadow.write();
            if rec.tier == Tier::Memory {
                self.memory_bytes.fetch_sub(rec.size, Ordering::Relaxed);
                self.publish_mem_usage();
            }
            if let Some(vlog) = &self.vlog {
                self.disk_bytes.fetch_sub(rec.size, Ordering::Relaxed);
                if let Some(ptr) = rec.ptr {
                    vlog.retire(u64::from(ptr.total_len));
                }
                let tombstone = vlog.append_tombstone(key)?;
                shard.raise_fence(tombstone.log_pos());
            }
        }
        Ok(())
    }

    /// The global first victim among `class`: the maximum `(deadline,
    /// key)` — longest deadline first, key as a deterministic
    /// total-order tie-break (`None` deadlines sort farthest-future) —
    /// over the shards' own first victims. Shards are locked one at a
    /// time; the caller re-validates the winner under its shard lock
    /// before acting.
    fn pick_victim(&self, class: Victims) -> Option<(usize, Arc<str>)> {
        let mut best: Option<(u64, Arc<str>, usize)> = None;
        for idx in 0..self.shards.len() {
            let shard = self.lock_shard(idx);
            if let Some((deadline, key)) = shard.victim(class) {
                let better = best
                    .as_ref()
                    .is_none_or(|(bd, bk, _)| (deadline, &**key) > (*bd, &**bk));
                if better {
                    best = Some((deadline, Arc::clone(key), idx));
                }
            }
        }
        best.map(|(_, key, idx)| (idx, key))
    }

    /// Sheds one memory-resident object, longest deadline first. With a
    /// persistent tier that is a spill: the memory copy is dropped and
    /// the object stays in the log (write-through), so no data moves.
    /// Memory-only, the object is evicted. Part of the coordinated
    /// sweep: candidate selection spans all shards, application
    /// re-validates under the winner's shard lock and picks again if a
    /// concurrent put/remove got there first. Returns false when nothing
    /// is memory-resident.
    fn shed_memory_one(&self) -> Result<bool> {
        loop {
            let Some((idx, key)) = self.pick_victim(Victims::Memory) else {
                return Ok(false);
            };
            let mut shard = self.lock_shard(idx);
            if self.vlog.is_none() {
                if shard.get(&key).is_some_and(|r| r.tier == Tier::Memory) {
                    self.remove_locked(&mut shard, &key)?;
                    self.metrics.evictions.inc();
                    return Ok(true);
                }
            } else if let Some(size) = shard.spill(&key) {
                self.bytes_shadow.write();
                self.memory_bytes.fetch_sub(size, Ordering::Relaxed);
                self.publish_mem_usage();
                self.metrics.spills.inc();
                return Ok(true);
            }
            // The victim vanished or changed tier between the pick and
            // the shard lock: pick again.
        }
    }

    /// Evicts one object entirely, following the paper's order; returns
    /// false when nothing is evictable.
    fn evict_one(&self) -> Result<bool> {
        loop {
            // (1) used and not needed in future epochs, (2) longest
            // deadline.
            let victim = self
                .pick_victim(Victims::Spent)
                .or_else(|| self.pick_victim(Victims::All));
            let Some((idx, key)) = victim else {
                return Ok(false);
            };
            let mut shard = self.lock_shard(idx);
            if shard.contains(&key) {
                self.remove_locked(&mut shard, &key)?;
                self.metrics.evictions.inc();
                return Ok(true);
            }
        }
    }

    /// The disk tier's eviction watermark, in live object bytes.
    fn disk_limit(&self) -> u64 {
        (self.config.disk_budget as f64 * EVICT_WATERMARK) as u64
    }

    /// True when the log's dead-byte ratio crossed the configured
    /// threshold (and the absolute garbage clears the floor).
    fn compaction_due(&self) -> bool {
        let Some(vlog) = &self.vlog else {
            return false;
        };
        let (total, live) = vlog.byte_totals();
        let garbage = total.saturating_sub(live);
        garbage >= COMPACT_MIN_GARBAGE
            && (garbage as f64) >= self.config.compact_threshold * (total as f64)
    }

    /// Brings all three tiers under their budgets — the Algorithm-1
    /// prune pass as a coordinated cross-shard sweep, extended to the
    /// persistent tier's log-garbage accounting.
    ///
    /// A caller that finds every tier within its limit returns without
    /// taking a lock. That check cannot miss work: a byte budget is only
    /// ever exceeded by a `put`, which calls this after its own update
    /// and so sees it, and log garbage (which removals grow without
    /// enforcing, as they always have) is read by every caller.
    ///
    /// Otherwise the pass is serialized by the sweep lock; each round
    /// applies one globally best victim, so concurrent callers cannot
    /// interleave conflicting selections, and every successful round
    /// strictly shrinks the over-budget tier (the sweep terminates).
    /// After the byte budgets hold, the value log is compacted if its
    /// dead-byte ratio crossed the threshold.
    pub fn enforce_budgets(&self) -> Result<()> {
        let mem_limit = self.config.memory_budget;
        let disk_limit = self.disk_limit();
        if self.memory_bytes.load(Ordering::Relaxed) > mem_limit
            || self.disk_bytes.load(Ordering::Relaxed) > disk_limit
            || self.compaction_due()
        {
            let _sweep = self.sweep.lock();
            // Memory over budget: spill to disk (or evict when
            // memory-only).
            while self.memory_bytes.load(Ordering::Relaxed) > mem_limit {
                if !self.shed_memory_one()? {
                    break;
                }
            }
            // Disk over the 75% watermark: evict per policy.
            while self.disk_bytes.load(Ordering::Relaxed) > disk_limit {
                if !self.evict_one()? {
                    break;
                }
            }
            // Third tier: dead log bytes past the compaction threshold.
            if self.compaction_due() {
                self.compact_log_locked()?;
            }
        }
        self.publish_log_usage();
        Ok(())
    }

    /// Unconditionally compacts the log: rotates to a fresh active
    /// segment, copies every live record out of the sealed segments
    /// (memory-resident objects re-append straight from their in-memory
    /// bytes; disk-tier records are read back under checksum, and a
    /// record that fails validation is dropped — never re-adopted), then
    /// deletes the sealed files. Lock order is shard, then log writer
    /// (or read handles), as for removals, so the sweep can run
    /// concurrently with puts. Each shard's fence moves past the sealed
    /// segments, so a put that appended into one appends again.
    fn compact_log_locked(&self) -> Result<bool> {
        let Some(vlog) = &self.vlog else {
            return Ok(false);
        };
        let sealed = vlog.rotate()?;
        // Every record this pass copies lands past the start of the
        // segment after the sealed ones; a put still holding a record in
        // a sealed segment must append again.
        let fresh = (sealed.last().map_or(0, |&id| id + 1), 0);
        for idx in 0..self.shards.len() {
            let mut shard = self.lock_shard(idx);
            shard.raise_fence(fresh);
            let keys: Vec<String> = shard
                .records()
                .filter(|(_, r)| {
                    r.ptr
                        .is_some_and(|p| sealed.binary_search(&p.segment).is_ok())
                })
                .map(|(k, _)| k.to_string())
                .collect();
            for key in keys {
                let Some(rec) = shard.get(&key) else {
                    continue;
                };
                let Some(old_ptr) = rec.ptr else { continue };
                let payload = match &rec.bytes {
                    Some(b) => Ok(Arc::clone(b)),
                    None => vlog.read(&key, old_ptr).map(Arc::new),
                };
                match payload {
                    Ok(bytes) => {
                        let new_ptr = vlog.append(&key, rec.meta.to_record(), bytes.as_slice())?;
                        vlog.retire(u64::from(old_ptr.total_len));
                        shard.relocate(&key, new_ptr);
                    }
                    Err(StorageError::Corrupt { .. } | StorageError::NotFound { .. }) => {
                        // Bit rot under the index: the object is gone.
                        // Drop it rather than resurrect bad bytes.
                        self.metrics.vlog_corrupt_records.inc();
                        if let Some(old) = shard.remove(&key) {
                            self.bytes_shadow.write();
                            if old.tier == Tier::Memory {
                                self.memory_bytes.fetch_sub(old.size, Ordering::Relaxed);
                                self.publish_mem_usage();
                            }
                            self.disk_bytes.fetch_sub(old.size, Ordering::Relaxed);
                            vlog.retire(u64::from(old_ptr.total_len));
                        }
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        vlog.delete_segments(&sealed)?;
        self.metrics.vlog_compactions.inc();
        self.publish_log_usage();
        Ok(true)
    }

    /// Forces a log compaction regardless of the garbage ratio (tests,
    /// tooling, and explicit maintenance windows).
    pub fn compact(&self) -> Result<bool> {
        let _sweep = self.sweep.lock();
        self.compact_log_locked()
    }

    /// Lists every key currently held (both tiers). Used by recovery.
    #[must_use]
    pub fn keys(&self) -> Vec<String> {
        let mut keys = Vec::new();
        for idx in 0..self.shards.len() {
            keys.extend(self.lock_shard(idx).records().map(|(k, _)| k.to_string()));
        }
        keys
    }

    /// Panics unless every shard's victim index is exactly what its
    /// records imply. For tests and stress runs; walks every record.
    #[doc(hidden)]
    pub fn check_index(&self) {
        for idx in 0..self.shards.len() {
            self.lock_shard(idx).check_index();
        }
    }

    /// Aggregate statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let (log_bytes, live_bytes) = self.vlog.as_ref().map_or((0, 0), ValueLog::byte_totals);
        let m = &self.metrics;
        StoreStats {
            memory_bytes: self.memory_bytes.load(Ordering::Relaxed),
            disk_bytes: self.disk_bytes.load(Ordering::Relaxed),
            memory_hits: m.mem_hits.get(),
            disk_hits: m.disk_hits.get(),
            misses: m.misses.get(),
            evictions: m.evictions.get(),
            spills: m.spills.get(),
            log_bytes,
            garbage_bytes: log_bytes.saturating_sub(live_bytes),
            compactions: m.vlog_compactions.get(),
            torn_truncations: m.vlog_torn_truncations.get(),
            corrupt_records: m.vlog_corrupt_records.get(),
            replayed_objects: m.vlog_replayed_objects.get(),
            replayed_bytes: m.vlog_replayed_bytes.get(),
            vlog_fsyncs: m.vlog_fsyncs.get(),
        }
    }

    /// The configured budgets.
    #[must_use]
    pub const fn config(&self) -> &StoreConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vlog::segment_name;
    use std::fs;

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("sand_store_{}_{}", name, std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn meta(deadline: u64, uses: u32) -> ObjectMeta {
        ObjectMeta {
            deadline: Some(deadline),
            future_uses: uses,
        }
    }

    /// Deletes every vlog segment file behind the store's back — the
    /// compaction-vs-get race in miniature.
    fn delete_segments(dir: &std::path::Path) {
        for entry in fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_str().unwrap().to_string();
            if crate::vlog::parse_segment_name(&name).is_some() {
                fs::remove_file(&path).unwrap();
            }
        }
    }

    #[test]
    fn put_get_roundtrip_memory() {
        let s = ObjectStore::memory_only(StoreConfig::default()).unwrap();
        s.put("a/b", vec![1, 2, 3].into(), meta(0, 1)).unwrap();
        assert_eq!(*s.get("a/b").unwrap(), vec![1, 2, 3]);
        assert_eq!(s.tier_of("a/b"), Some(Tier::Memory));
        assert_eq!(s.stats().memory_hits, 1);
    }

    #[test]
    fn far_deadline_goes_to_disk() {
        let dir = tmp("far");
        let s = ObjectStore::open(StoreConfig::default(), Some(dir.clone())).unwrap();
        s.set_clock(0);
        s.put("later", vec![9; 100].into(), meta(100, 1)).unwrap();
        assert_eq!(s.tier_of("later"), Some(Tier::Disk));
        assert_eq!(*s.get("later").unwrap(), vec![9; 100]);
        assert_eq!(s.stats().disk_hits, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn near_deadline_stays_in_memory() {
        let dir = tmp("near");
        let s = ObjectStore::open(StoreConfig::default(), Some(dir.clone())).unwrap();
        s.set_clock(10);
        s.put("soon", vec![1].into(), meta(11, 1)).unwrap();
        assert_eq!(s.tier_of("soon"), Some(Tier::Memory));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_object_errors() {
        let s = ObjectStore::memory_only(StoreConfig::default()).unwrap();
        assert!(matches!(s.get("nope"), Err(StorageError::NotFound { .. })));
        assert_eq!(s.stats().misses, 1);
    }

    /// Deterministic reproduction of the get-vs-compaction race: the
    /// index says Disk, but the backing segment is already gone by the
    /// time the (lock-free) read happens. Must surface as a miss, not an
    /// I/O error, so callers fall through to recomputation.
    #[test]
    fn vanished_segment_reads_as_miss() {
        let dir = tmp("vanish");
        let s = ObjectStore::open(StoreConfig::default(), Some(dir.clone())).unwrap();
        s.set_clock(0);
        s.put("gone", vec![7; 64].into(), meta(100, 1)).unwrap();
        assert_eq!(s.tier_of("gone"), Some(Tier::Disk));
        // Delete the segment behind the store's back, exactly what a
        // compaction interleaved between the index lookup and the log
        // read does.
        delete_segments(&dir);
        assert!(matches!(s.get("gone"), Err(StorageError::NotFound { .. })));
        assert_eq!(s.stats().misses, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Bit rot under a live index entry must degrade to a miss (caller
    /// recomputes), never serve corrupt bytes or crash.
    #[test]
    fn corrupted_record_reads_as_miss() {
        let dir = tmp("rot");
        let s = ObjectStore::open(StoreConfig::default(), Some(dir.clone())).unwrap();
        s.set_clock(0);
        s.put("rotted", vec![5; 128].into(), meta(100, 1)).unwrap();
        assert_eq!(s.tier_of("rotted"), Some(Tier::Disk));
        // Flip one payload byte in the segment file.
        let seg = dir.join(segment_name(0));
        let mut bytes = fs::read(&seg).unwrap();
        let at = bytes.len() - 20;
        bytes[at] ^= 0x01;
        fs::write(&seg, &bytes).unwrap();
        assert!(matches!(
            s.get("rotted"),
            Err(StorageError::NotFound { .. })
        ));
        assert_eq!(s.stats().misses, 1);
        assert_eq!(s.stats().corrupt_records, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Hammer the actual interleaving: one thread churns put/remove on a
    /// disk-tier key while another gets it. Every failure must be
    /// NotFound; a hard I/O error means the race leaked through again.
    #[test]
    fn concurrent_prune_vs_get_never_hard_fails() {
        let dir = tmp("prune_race");
        let cfg = StoreConfig {
            memory_horizon: 0, // everything lands on the disk tier
            ..Default::default()
        };
        let s = Arc::new(ObjectStore::open(cfg, Some(dir.clone())).unwrap());
        s.set_clock(0);
        let churn = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                for _ in 0..500 {
                    s.put("hot", vec![3; 256].into(), meta(100, 1)).unwrap();
                    s.remove("hot").unwrap();
                }
            })
        };
        let mut hits = 0u32;
        let mut misses = 0u32;
        while !churn.is_finished() {
            match s.get("hot") {
                Ok(_) => hits += 1,
                Err(StorageError::NotFound { .. }) => misses += 1,
                Err(e) => panic!("prune-vs-get race surfaced as hard error: {e}"),
            }
        }
        churn.join().unwrap();
        // Sanity: the loop actually exercised both outcomes' code paths.
        assert!(hits + misses > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memory_pressure_spills_longest_deadline() {
        let dir = tmp("spill");
        let cfg = StoreConfig {
            memory_budget: 250,
            memory_horizon: 1000,
            ..Default::default()
        };
        let s = ObjectStore::open(cfg, Some(dir.clone())).unwrap();
        s.put("soon", vec![0; 100].into(), meta(1, 1)).unwrap();
        s.put("later", vec![0; 100].into(), meta(50, 1)).unwrap();
        s.put("third", vec![0; 100].into(), meta(5, 1)).unwrap(); // forces a spill
        assert_eq!(
            s.tier_of("later"),
            Some(Tier::Disk),
            "longest deadline spilled"
        );
        assert_eq!(s.tier_of("soon"), Some(Tier::Memory));
        assert_eq!(s.tier_of("third"), Some(Tier::Memory));
        assert!(s.stats().spills >= 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn watermark_eviction_prefers_fully_used_objects() {
        let dir = tmp("evict");
        let cfg = StoreConfig {
            memory_budget: 1 << 20,
            disk_budget: 400,
            memory_horizon: 0,
            ..Default::default()
        };
        let s = ObjectStore::open(cfg, Some(dir.clone())).unwrap();
        s.set_clock(0);
        // All go to disk (deadline far beyond horizon 0).
        s.put("used", vec![0; 150].into(), meta(10, 0)).unwrap(); // no future uses
        s.put("needed", vec![0; 150].into(), meta(5, 2)).unwrap();
        // 300 <= 300 watermark, nothing evicted yet.
        assert!(s.contains("used"));
        s.put("more", vec![0; 150].into(), meta(7, 1)).unwrap();
        // Over watermark: the used-up object goes first.
        assert!(!s.contains("used"));
        assert!(s.contains("needed"));
        assert!(s.contains("more"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn watermark_eviction_falls_back_to_longest_deadline() {
        let dir = tmp("evict2");
        let cfg = StoreConfig {
            memory_budget: 1 << 20,
            disk_budget: 400,
            memory_horizon: 0,
            ..Default::default()
        };
        let s = ObjectStore::open(cfg, Some(dir.clone())).unwrap();
        s.put("d5", vec![0; 150].into(), meta(5, 1)).unwrap();
        s.put("d99", vec![0; 150].into(), meta(99, 1)).unwrap();
        s.put("d7", vec![0; 150].into(), meta(7, 1)).unwrap();
        assert!(!s.contains("d99"), "longest deadline evicted");
        assert!(s.contains("d5"));
        assert!(s.contains("d7"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_adopts_log_records_with_meta() {
        let dir = tmp("recover");
        {
            let s = ObjectStore::open(StoreConfig::default(), Some(dir.clone())).unwrap();
            s.set_clock(0);
            s.put("video0001/frame3", vec![42; 64].into(), meta(1000, 3))
                .unwrap();
            assert_eq!(s.tier_of("video0001/frame3"), Some(Tier::Disk));
        }
        // "Crash" and reopen.
        let s2 = ObjectStore::open(StoreConfig::default(), Some(dir.clone())).unwrap();
        assert!(s2.contains("video0001/frame3"));
        assert_eq!(*s2.get("video0001/frame3").unwrap(), vec![42; 64]);
        assert_eq!(s2.stats().disk_bytes, 64);
        assert_eq!(s2.stats().replayed_objects, 1);
        // Replay restores the pruning inputs, not defaults.
        assert_eq!(s2.future_uses_of("video0001/frame3"), Some(3));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A removal must survive restart: the tombstone keeps the replay
    /// from resurrecting the put it shadowed.
    #[test]
    fn removal_survives_restart() {
        let dir = tmp("tombstone");
        {
            let cfg = StoreConfig {
                memory_horizon: 0,
                ..Default::default()
            };
            let s = ObjectStore::open(cfg, Some(dir.clone())).unwrap();
            s.put("kept", vec![1; 32].into(), meta(100, 1)).unwrap();
            s.put("gone", vec![2; 32].into(), meta(100, 1)).unwrap();
            s.remove("gone").unwrap();
        }
        let s2 = ObjectStore::open(StoreConfig::default(), Some(dir.clone())).unwrap();
        assert!(s2.contains("kept"));
        assert!(!s2.contains("gone"), "tombstoned key resurrected");
        assert_eq!(s2.stats().disk_bytes, 32);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The store directory is a value log: `open` reads segment files
    /// and `MANIFEST` and nothing else. Whatever else sits there — an
    /// operator's notes, an empty file, a `quarantine/` directory an
    /// older build left — is not adopted, not counted and not moved.
    #[test]
    fn stray_files_are_neither_adopted_nor_touched() {
        let dir = tmp("stray");
        fs::create_dir_all(dir.join("quarantine")).unwrap();
        fs::write(dir.join("notes.txt"), b"do not delete").unwrap();
        fs::write(dir.join("empty"), b"").unwrap();
        fs::write(dir.join("quarantine").join("old%2Fframe"), b"torn").unwrap();
        let s = ObjectStore::open(StoreConfig::default(), Some(dir.clone())).unwrap();
        for key in ["notes.txt", "empty", "quarantine", "old/frame"] {
            assert!(!s.contains(key), "stray `{key}` adopted as an object");
        }
        let st = s.stats();
        assert_eq!(st.disk_bytes, 0);
        assert_eq!(st.replayed_objects, 0);
        assert_eq!(st.log_bytes, 0, "a stray file was appended to the log");
        // Still usable as a store, and the strays survive that too.
        s.put("real", vec![1u8; 16].into(), meta(100, 1)).unwrap();
        drop(s);
        let s2 = ObjectStore::open(StoreConfig::default(), Some(dir.clone())).unwrap();
        assert_eq!(s2.stats().replayed_objects, 1);
        assert_eq!(fs::read(dir.join("notes.txt")).unwrap(), b"do not delete");
        assert_eq!(fs::read(dir.join("empty")).unwrap(), b"");
        assert_eq!(
            fs::read(dir.join("quarantine").join("old%2Fframe")).unwrap(),
            b"torn"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A torn tail on the log itself (crash mid-append) is truncated on
    /// open: the half-written object is NOT adopted, everything before
    /// it is, and a reopened store keeps appending cleanly.
    #[test]
    fn torn_log_tail_not_adopted() {
        let dir = tmp("torn_tail");
        {
            let cfg = StoreConfig {
                memory_horizon: 0,
                ..Default::default()
            };
            let s = ObjectStore::open(cfg, Some(dir.clone())).unwrap();
            s.put("whole", vec![1; 100].into(), meta(100, 1)).unwrap();
            s.put("torn", vec![2; 100].into(), meta(100, 1)).unwrap();
        }
        // Chop the tail mid-record, as a crash mid-`write_all` would.
        let seg = dir.join(segment_name(0));
        let len = fs::metadata(&seg).unwrap().len();
        fs::OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(len - 50)
            .unwrap();
        let s2 = ObjectStore::open(StoreConfig::default(), Some(dir.clone())).unwrap();
        assert!(s2.contains("whole"));
        assert!(!s2.contains("torn"), "torn record adopted as a valid hit");
        assert_eq!(s2.stats().disk_bytes, 100);
        assert_eq!(s2.stats().torn_truncations, 1);
        assert_eq!(*s2.get("whole").unwrap(), vec![1; 100]);
        s2.put("after", vec![3; 10].into(), meta(100, 1)).unwrap();
        assert_eq!(*s2.get("after").unwrap(), vec![3; 10]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replacing_object_updates_accounting() {
        let s = ObjectStore::memory_only(StoreConfig::default()).unwrap();
        s.put("k", vec![0; 100].into(), meta(0, 1)).unwrap();
        s.put("k", vec![0; 40].into(), meta(0, 1)).unwrap();
        assert_eq!(s.stats().memory_bytes, 40);
    }

    /// Re-putting the same key with a persistent tier must keep BOTH
    /// byte counters exact, and the superseded record becomes garbage
    /// that compaction reclaims without disturbing the live bytes.
    #[test]
    fn replacing_object_exact_accounting_and_garbage() {
        let dir = tmp("re_put");
        let cfg = StoreConfig {
            memory_horizon: 1000,
            ..Default::default()
        };
        let s = ObjectStore::open(cfg, Some(dir.clone())).unwrap();
        s.set_clock(0);
        s.put("k", vec![1; 100].into(), meta(1, 1)).unwrap();
        s.put("k", vec![2; 40].into(), meta(1, 1)).unwrap();
        let st = s.stats();
        assert_eq!(st.memory_bytes, 40);
        assert_eq!(st.disk_bytes, 40);
        assert!(st.garbage_bytes > 0, "superseded record must be garbage");
        assert_eq!(*s.get("k").unwrap(), vec![2; 40]);
        // Forced compaction drops the dead record; bytes stay exact and
        // the survivor is still served bit-identically.
        assert!(s.compact().unwrap());
        let st = s.stats();
        assert_eq!(st.memory_bytes, 40);
        assert_eq!(st.disk_bytes, 40);
        assert_eq!(st.garbage_bytes, 0);
        assert_eq!(st.compactions, 1);
        assert_eq!(*s.get("k").unwrap(), vec![2; 40]);
        // And the compacted log still recovers.
        drop(s);
        let s2 = ObjectStore::open(StoreConfig::default(), Some(dir.clone())).unwrap();
        assert_eq!(*s2.get("k").unwrap(), vec![2; 40]);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The third-tier extension of Algorithm 1: enough churn pushes the
    /// dead-byte ratio over the threshold and the budget sweep compacts
    /// on its own, shrinking the log while every live object survives
    /// bit-identically.
    #[test]
    fn budget_sweep_compacts_garbage() {
        let dir = tmp("auto_compact");
        let cfg = StoreConfig {
            memory_horizon: 0,
            compact_threshold: 0.5,
            ..Default::default()
        };
        let s = ObjectStore::open(cfg, Some(dir.clone())).unwrap();
        s.set_clock(0);
        // Live set: 8 keys, re-put 8 times each -> 7/8 of the log dead.
        for round in 0..8u8 {
            for k in 0..8u8 {
                s.put(
                    &format!("live/{k}"),
                    vec![round ^ k; 8 << 10].into(),
                    meta(100, 4),
                )
                .unwrap();
            }
        }
        let st = s.stats();
        assert!(st.compactions >= 1, "sweep never compacted: {st:?}");
        assert!(
            (st.garbage_bytes as f64)
                < 0.5 * (st.log_bytes as f64) + f64::from(u32::from(8u8)) * 1024.0,
            "garbage not reclaimed: {st:?}"
        );
        for k in 0..8u8 {
            assert_eq!(*s.get(&format!("live/{k}")).unwrap(), vec![7 ^ k; 8 << 10]);
        }
        assert_eq!(st.disk_bytes, 8 * (8 << 10));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn remove_clears_both_tiers() {
        let dir = tmp("remove");
        let cfg = StoreConfig {
            memory_horizon: 0,
            ..Default::default()
        };
        let s = ObjectStore::open(cfg, Some(dir.clone())).unwrap();
        s.put("disk", vec![0; 10].into(), meta(100, 1)).unwrap();
        s.put("mem", vec![0; 10].into(), meta(0, 1)).unwrap();
        s.remove("disk").unwrap();
        s.remove("mem").unwrap();
        assert!(!s.contains("disk"));
        assert!(!s.contains("mem"));
        let st = s.stats();
        assert_eq!(st.memory_bytes + st.disk_bytes, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mark_used_decrements() {
        let s = ObjectStore::memory_only(StoreConfig::default()).unwrap();
        s.put("k", vec![1].into(), meta(0, 2)).unwrap();
        s.mark_used("k");
        s.mark_used("k");
        s.mark_used("k"); // saturates at zero
        assert!(s.contains("k"));
    }

    #[test]
    fn oversized_object_rejected_in_memory_only() {
        let cfg = StoreConfig {
            memory_budget: 10,
            ..Default::default()
        };
        let s = ObjectStore::memory_only(cfg).unwrap();
        assert!(matches!(
            s.put("big", vec![0; 100].into(), ObjectMeta::default()),
            Err(StorageError::TooLarge { .. })
        ));
    }

    #[test]
    fn invalid_config_rejected() {
        assert!(ObjectStore::memory_only(StoreConfig {
            memory_budget: 0,
            ..Default::default()
        })
        .is_err());
        assert!(ObjectStore::memory_only(StoreConfig {
            shards: 0,
            ..Default::default()
        })
        .is_err());
        assert!(ObjectStore::memory_only(StoreConfig {
            compact_threshold: 0.0,
            ..Default::default()
        })
        .is_err());
        assert!(ObjectStore::memory_only(StoreConfig {
            compact_threshold: 1.5,
            ..Default::default()
        })
        .is_err());
    }

    #[test]
    fn zero_disk_budget_rejected_only_with_a_directory() {
        let dir = tmp("zero_disk_budget");
        let cfg = StoreConfig {
            disk_budget: 0,
            ..Default::default()
        };
        assert!(matches!(
            ObjectStore::open(cfg, Some(dir.clone())),
            Err(StorageError::InvalidConfig { what }) if what.contains("disk budget")
        ));
        assert!(
            !dir.exists(),
            "a rejected config must not create its directory"
        );
        // Memory-only: the disk budget is never consulted.
        ObjectStore::memory_only(cfg).unwrap();
    }

    #[test]
    fn concurrent_access_is_safe() {
        let s = Arc::new(ObjectStore::memory_only(StoreConfig::default()).unwrap());
        let mut handles = Vec::new();
        for t in 0..4 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let key = format!("t{t}/k{i}");
                    s.put(&key, vec![t as u8; 32].into(), meta(i, 1)).unwrap();
                    assert_eq!(s.get(&key).unwrap().len(), 32);
                    s.mark_used(&key);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.keys().len(), 200);
    }

    /// Recomputes the byte accounting from the shard maps themselves.
    fn recount(s: &ObjectStore) -> (u64, u64) {
        let mut mem = 0u64;
        let mut disk = 0u64;
        for idx in 0..s.shards.len() {
            let shard = s.shards[idx].lock();
            for (_, rec) in shard.records() {
                if rec.tier == Tier::Memory {
                    mem += rec.size;
                }
                if s.dir.is_some() {
                    disk += rec.size;
                }
            }
        }
        (mem, disk)
    }

    /// The satellite stress test: 8 threads hammer get/put/mark_used and
    /// explicit prune sweeps across shards. The disk tier is large enough
    /// that nothing is ever evicted, so at quiescence every object must
    /// survive with its exact bytes ("no lost objects"), the global
    /// atomics must equal a from-scratch recount of the shard maps, and
    /// the memory tier must sit within budget. Re-puts generate enough
    /// garbage that in-flight compactions race the workload too.
    #[test]
    fn shard_stress_keeps_budget_and_loses_nothing() {
        let dir = tmp("stress");
        let cfg = StoreConfig {
            memory_budget: 64 * 1024, // small: constant spill pressure
            disk_budget: 1 << 30,     // huge: no evictions, no losses
            memory_horizon: 4,
            shards: 8,
            compact_threshold: 0.5,
            sync: SyncPolicy::Never,
        };
        let s = Arc::new(ObjectStore::open(cfg, Some(dir.clone())).unwrap());
        const THREADS: usize = 8;
        const KEYS_PER_THREAD: usize = 40;
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for round in 0..3u64 {
                    for i in 0..KEYS_PER_THREAD {
                        let key = format!("t{t}/k{i}");
                        let size = 512 + (t * 131 + i * 17) % 2048;
                        let payload = vec![(t * 31 + i) as u8; size];
                        s.put(&key, payload.into(), meta((t + i) as u64 % 16, 3))
                            .unwrap();
                        if i % 3 == 0 {
                            let _ = s.get(&key);
                        }
                        if i % 5 == 0 {
                            s.mark_used(&key);
                        }
                        if i % 11 == 0 {
                            s.enforce_budgets().unwrap();
                        }
                        s.set_clock(round * 16 + i as u64 % 16);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        s.enforce_budgets().unwrap();
        // No lost objects: every key survives with its exact bytes.
        assert_eq!(s.keys().len(), THREADS * KEYS_PER_THREAD);
        for t in 0..THREADS {
            for i in 0..KEYS_PER_THREAD {
                let size = 512 + (t * 131 + i * 17) % 2048;
                let bytes = s.get(&format!("t{t}/k{i}")).unwrap();
                assert_eq!(bytes.len(), size);
                assert!(bytes.iter().all(|b| *b == (t * 31 + i) as u8));
            }
        }
        // Accounting exactness: global atomics == recount of shard maps.
        let stats = s.stats();
        let (mem, disk) = recount(&s);
        assert_eq!(stats.memory_bytes, mem, "memory accounting drifted");
        assert_eq!(stats.disk_bytes, disk, "disk accounting drifted");
        // Budget held after the final sweep.
        assert!(
            stats.memory_bytes <= cfg.memory_budget,
            "memory over budget: {} > {}",
            stats.memory_bytes,
            cfg.memory_budget
        );
        assert!(stats.spills > 0, "stress never exercised the sweep");
        // Two re-put rounds make two thirds of the appended bytes dead:
        // the third-tier sweep must have compacted at least once.
        assert!(stats.compactions > 0, "stress never compacted the log");
        s.check_index();
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A caller that finds nothing over budget takes no lock: with the
    /// sweep lock held elsewhere for the whole call, it still returns.
    #[test]
    fn under_budget_enforce_does_not_take_the_sweep_lock() {
        use std::sync::mpsc;
        use std::time::Duration;
        let s = Arc::new(ObjectStore::memory_only(StoreConfig::default()).unwrap());
        s.put("k", vec![0; 64].into(), meta(0, 1)).unwrap();
        let (held_tx, held_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let holder = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                let _sweep = s.sweep.lock();
                held_tx.send(()).unwrap();
                let _ = release_rx.recv();
            })
        };
        held_rx.recv().unwrap();
        let (done_tx, done_rx) = mpsc::channel();
        let caller = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || done_tx.send(s.enforce_budgets()).unwrap())
        };
        let returned = done_rx.recv_timeout(Duration::from_secs(10));
        release_tx.send(()).unwrap();
        holder.join().unwrap();
        caller.join().unwrap();
        returned
            .expect("enforce_budgets waited for the sweep lock")
            .unwrap();
    }

    /// A store counting into a registry the test can read.
    fn observed(cfg: StoreConfig, dir: Option<PathBuf>) -> (ObjectStore, Telemetry) {
        let telemetry = Telemetry::disabled();
        let m = StoreMetrics::register(&telemetry, cfg.shards);
        (ObjectStore::with_metrics(cfg, dir, m).unwrap(), telemetry)
    }

    /// Contended shard locks show up in the per-shard wait histograms
    /// (and `shard_count` reports the configured fan-out).
    #[test]
    fn shard_lock_waits_are_observable() {
        let cfg = StoreConfig {
            shards: 2,
            ..Default::default()
        };
        let (s, telemetry) = observed(cfg, None);
        let s = Arc::new(s);
        assert_eq!(s.shard_count(), 2);
        let mut handles = Vec::new();
        for t in 0..4 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for i in 0..200 {
                    // Two keys → both shards stay hot, so contended
                    // acquisitions happen on both histograms eventually.
                    let key = format!("k{}", (t + i) % 2);
                    s.put(&key, vec![0u8; 64].into(), meta(0, 1)).unwrap();
                    let _ = s.get(&key);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = telemetry.snapshot();
        // Contention is probabilistic per shard, but the histograms must
        // exist and puts must be mirrored.
        assert!(snap.histogram("store.shard0.lock_wait_us").is_some());
        assert!(snap.histogram("store.shard1.lock_wait_us").is_some());
        assert_eq!(snap.counter("store.puts"), Some(4 * 200));
    }

    /// The residency gauges track the store's own accounting, so budget
    /// headroom (`1 - mem_bytes/mem_budget`) is derivable from any
    /// snapshot.
    #[test]
    fn memory_gauges_track_accounting() {
        let cfg = StoreConfig {
            memory_budget: 10_000,
            ..Default::default()
        };
        let (s, telemetry) = observed(cfg, None);
        let snap = telemetry.snapshot();
        assert_eq!(
            snap.gauge("store.mem_budget"),
            Some(10_000),
            "open publishes the budget"
        );
        assert_eq!(snap.gauge("store.mem_bytes"), Some(0));
        s.put("early", vec![0u8; 100].into(), meta(0, 1)).unwrap();
        s.put("k1", vec![0u8; 400].into(), meta(0, 1)).unwrap();
        s.put("k2", vec![0u8; 300].into(), meta(0, 2)).unwrap();
        let snap = telemetry.snapshot();
        assert_eq!(snap.gauge("store.mem_bytes"), Some(800));
        s.remove("k1").unwrap();
        let snap = telemetry.snapshot();
        assert_eq!(snap.gauge("store.mem_bytes"), Some(400));
        assert_eq!(
            snap.gauge("store.mem_bytes").map(|b| b as u64),
            Some(s.stats().memory_bytes),
            "gauge mirrors the accounting exactly"
        );
    }

    /// The vlog telemetry family: appends feed the latency histogram,
    /// recovery records its outcome as the store opens, and the garbage
    /// gauges follow compaction.
    #[test]
    fn vlog_metrics_are_published() {
        let dir = tmp("vlog_metrics");
        {
            let cfg = StoreConfig {
                memory_horizon: 0,
                ..Default::default()
            };
            let s = ObjectStore::open(cfg, Some(dir.clone())).unwrap();
            s.put("a", vec![1; 64].into(), meta(100, 1)).unwrap();
            s.put("a", vec![2; 64].into(), meta(100, 1)).unwrap(); // garbage
        }
        let (s, telemetry) = observed(
            StoreConfig {
                memory_horizon: 0,
                ..Default::default()
            },
            Some(dir.clone()),
        );
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("store.vlog.replayed_objects"), Some(1));
        assert_eq!(snap.counter("store.vlog.torn_truncations"), Some(0));
        assert!(snap.gauge("store.vlog.log_bytes").unwrap_or(0) > 0);
        assert!(snap.gauge("store.vlog.garbage_pct").unwrap_or(0) > 0);
        s.put("b", vec![3; 32].into(), meta(100, 1)).unwrap();
        let snap = telemetry.snapshot();
        let appends = snap
            .histogram("store.vlog.append_us")
            .map(|h| h.count)
            .unwrap_or(0);
        assert!(appends >= 1, "append latency not observed");
        assert!(s.compact().unwrap());
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("store.vlog.compactions"), Some(1));
        assert_eq!(snap.gauge("store.vlog.garbage_pct"), Some(0));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The replay reports the size of the log it read: every segment's
    /// bytes, as the files hold them when the store reopens — one count,
    /// which `stats()` and the snapshot both read.
    #[test]
    fn replay_counts_the_bytes_it_read() {
        let dir = tmp("replayed_bytes");
        let cfg = StoreConfig {
            memory_horizon: 0,
            ..Default::default()
        };
        {
            let s = ObjectStore::open(cfg, Some(dir.clone())).unwrap();
            for i in 0..8u8 {
                s.put(
                    &format!("k{i}"),
                    vec![i; 100 + usize::from(i)].into(),
                    meta(100, 1),
                )
                .unwrap();
            }
            s.put("k0", vec![9; 40].into(), meta(100, 1)).unwrap();
        }
        let log_bytes: u64 = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap())
            .filter(|e| e.file_name().to_string_lossy().starts_with("vlog-"))
            .map(|e| e.metadata().unwrap().len())
            .sum();
        assert!(log_bytes > 8 * 100);
        let (s, telemetry) = observed(cfg, Some(dir.clone()));
        let stats = s.stats();
        assert_eq!(stats.replayed_bytes, log_bytes);
        assert_eq!(stats.replayed_objects, 8);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("store.vlog.replayed_bytes"), Some(log_bytes));
        assert_eq!(snap.counter("store.vlog.replayed_objects"), Some(8));
        assert_eq!(
            snap.histogram("store.vlog.replay_us").map(|h| h.count),
            Some(1)
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
