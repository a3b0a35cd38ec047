//! Epoch-ahead batch prefetching.
//!
//! With `EngineConfig::prefetch_depth = d > 0`, serving batch *n*
//! schedules speculative materialization of batches *n+1..n+d* (in the
//! trainer's consumption order, within the current plan chunk) as
//! [`sand_sched::JobKind::Prefetch`] jobs — strictly below demand
//! priority, so a blocked `read()` always wins the worker pool. While
//! the trainer consumes batch *n* on the GPU, the workers assemble the
//! next batches. The next `serve_batch` call then settles the entry:
//!
//! - **hit**: every sample was built when the serve arrived.
//! - **late**: the build was in flight. The serve claims each sample no
//!   worker has started and builds it on its own thread (a sample is
//!   claimed once, through [`BatchBuild::claim`], so a worker's job that
//!   comes up later returns at once), then waits for the samples the
//!   workers are building. All of that time is the trace's `prefetch`
//!   stall segment; `prefetch.serve_built` counts the samples the serve
//!   built.
//! - **miss**: the build was taken but a sample failed — a panic on the
//!   serve thread included, which is delivered as
//!   [`CoreError::JobPanicked`] — so the batch is served inline.
//!
//! A serve that finds no entry serves inline and counts nowhere here.
//!
//! ## Bit-identity
//!
//! Prefetching never changes served bytes ([`EngineConfig`]'s
//! `prefetch_depth = 0` default is exactly today's behaviour, and the
//! `prop_prefetch_parity` test pins depth ∈ {0, 1, 4} to identical
//! sequences). Two rules make that hold by construction:
//!
//! - Prefetch jobs only *materialize* (deterministic given plan + seed;
//!   the cache merely decides reuse vs. recompute). All consumption
//!   bookkeeping — clock advance, retained-use burn, budget enforcement
//!   — happens at **consume time, in consume order**, identically to
//!   the inline path.
//! - Each sample is one self-contained job (no nested fan-out), so a
//!   prefetch job never blocks on another job and the pool cannot
//!   deadlock at any worker count.
//!
//! Back-pressure: scheduling stops while the estimated bytes of
//! unconsumed entries (sized by the last served batch) would overrun
//! the store's memory budget, so the prefetcher cannot thrash the cache
//! it feeds. On chunk rollover, stale entries are cancelled (counted in
//! `prefetch.cancelled`) and their jobs bail without materializing.

use crate::CoreError;
use sand_frame::Tensor;
use sand_sanitizer::{ShadowCell, TrackedCondvar, TrackedMutex};
use sand_telemetry::PrefetchMetrics;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Identity of a prefetchable batch: (task id, epoch, iteration).
pub(crate) type PrefetchKey = (u32, u64, u64);

/// One batch under assembly: per-sample result slots filled by
/// independent jobs — prefetch jobs for a speculative build in the
/// window, demand jobs for the build an inline serve waits on.
pub(crate) struct BatchBuild {
    state: TrackedMutex<BuildState>,
    done: TrackedCondvar,
    cancelled: AtomicBool,
    /// One flag per sample, set by whoever builds it: the sample's job,
    /// or a serve that found the build late and took over the samples
    /// no worker had started.
    claimed: Vec<AtomicBool>,
    /// Lockset shadow for the result slots: every touch of `tensors`
    /// must hold the build lock.
    results_shadow: ShadowCell,
    /// Handoff shadow for consume-time bookkeeping: [`Prefetcher::take`]
    /// transfers ownership to the single consuming thread.
    consume_shadow: ShadowCell,
}

struct BuildState {
    tensors: Vec<Option<crate::Result<Tensor>>>,
    remaining: usize,
}

/// One job's hold on sample `i` of a build. A job that unwinds before
/// delivering delivers [`CoreError::JobPanicked`] instead, and one dropped
/// without a panic [`CoreError::JobLost`], so a serve waiting on the build
/// gets an error, never a hang.
pub(crate) struct SampleSlot {
    build: Arc<BatchBuild>,
    i: usize,
    delivered: bool,
}

impl SampleSlot {
    /// Claims the sample for this job. False when a serve already took
    /// it over: the job then returns, and dropping the slot delivers
    /// nothing (the serve does).
    pub(crate) fn claim(&mut self) -> bool {
        let won = self.build.claim(self.i);
        self.delivered |= !won;
        won
    }

    /// True once the build was discarded; the job bails without working.
    pub(crate) fn cancelled(&self) -> bool {
        self.build.cancelled()
    }

    pub(crate) fn fulfill(mut self, result: crate::Result<Tensor>) {
        self.build.fulfill(self.i, result);
        self.delivered = true;
    }
}

impl Drop for SampleSlot {
    fn drop(&mut self) {
        if !self.delivered {
            let lost = if std::thread::panicking() {
                CoreError::JobPanicked
            } else {
                CoreError::JobLost
            };
            self.build.fulfill(self.i, Err(lost));
        }
    }
}

impl BatchBuild {
    pub(crate) fn new(samples: usize) -> Self {
        BatchBuild {
            state: TrackedMutex::new(
                "prefetch.build",
                BuildState {
                    tensors: (0..samples).map(|_| None).collect(),
                    remaining: samples,
                },
            ),
            done: TrackedCondvar::new(),
            cancelled: AtomicBool::new(false),
            claimed: (0..samples).map(|_| AtomicBool::new(false)).collect(),
            results_shadow: ShadowCell::new("prefetch.results"),
            consume_shadow: ShadowCell::new("prefetch.consume"),
        }
    }

    /// True once the entry was discarded (chunk rollover); jobs check
    /// this before doing any work.
    pub(crate) fn cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
        self.done.notify_all();
    }

    /// Claims sample `i` for the caller; false if someone else holds it.
    /// The flag publishes no data (the result is delivered under the
    /// build's lock): the swap's atomicity alone elects one owner.
    pub(crate) fn claim(&self, i: usize) -> bool {
        !self.claimed[i].swap(true, Ordering::Relaxed)
    }

    /// The hold a job takes on sample `i`.
    pub(crate) fn slot(self: &Arc<Self>, i: usize) -> SampleSlot {
        SampleSlot {
            build: Arc::clone(self),
            i,
            delivered: false,
        }
    }

    /// Delivers sample `i`'s result (or registers a cancelled bail-out,
    /// which still counts toward completion so waiters never hang).
    pub(crate) fn fulfill(&self, i: usize, result: crate::Result<Tensor>) {
        let mut state = self.state.lock();
        self.results_shadow.write();
        if state.tensors[i].is_none() {
            state.tensors[i] = Some(result);
            state.remaining -= 1;
        }
        if state.remaining == 0 {
            self.done.notify_all();
        }
    }

    /// True when every sample slot is filled.
    pub(crate) fn is_complete(&self) -> bool {
        self.state.lock().remaining == 0
    }

    /// Blocks until every sample job delivered (or the build was
    /// cancelled).
    pub(crate) fn wait_complete(&self) {
        let mut state = self.state.lock();
        while state.remaining > 0 && !self.cancelled() {
            self.done.wait(&mut state);
        }
    }

    /// Takes the per-sample results; `None` slots mean a job never ran
    /// (only possible after cancellation).
    pub(crate) fn take_results(&self) -> Vec<Option<crate::Result<Tensor>>> {
        let mut state = self.state.lock();
        self.results_shadow.write();
        std::mem::take(&mut state.tensors)
    }

    /// Marks a consume-time bookkeeping step by the owning consumer;
    /// ownership was transferred by [`Prefetcher::take`]'s handoff.
    pub(crate) fn mark_consumed(&self) {
        self.consume_shadow.write();
    }
}

struct Entry {
    chunk_id: u64,
    build: Arc<BatchBuild>,
}

/// The epoch-ahead prefetcher: a window of speculative batch builds
/// keyed by (task, epoch, iteration).
pub(crate) struct Prefetcher {
    /// Look-ahead depth (`EngineConfig::prefetch_depth`).
    depth: usize,
    entries: TrackedMutex<HashMap<PrefetchKey, Entry>>,
    pub(crate) metrics: Option<PrefetchMetrics>,
}

impl Prefetcher {
    pub(crate) fn new(depth: usize, metrics: Option<PrefetchMetrics>) -> Self {
        Prefetcher {
            depth,
            entries: TrackedMutex::new("prefetch.entries", HashMap::new()),
            metrics,
        }
    }

    /// Whether prefetching is active (`prefetch_depth > 0`).
    pub(crate) fn enabled(&self) -> bool {
        self.depth() > 0
    }

    /// The look-ahead depth.
    pub(crate) fn depth(&self) -> usize {
        self.depth
    }

    /// Cancels an entry that left the window unconsumed, counting it.
    fn cancel(&self, entry: &Entry) {
        entry.build.cancel();
        if let Some(m) = &self.metrics {
            m.cancelled.inc();
        }
    }

    /// Unconsumed entries currently held (for back-pressure estimates).
    pub(crate) fn pending(&self) -> usize {
        self.entries.lock().len()
    }

    /// Registers a new build for `key` unless one exists; returns the
    /// build to hand to the per-sample jobs.
    pub(crate) fn begin(
        &self,
        key: PrefetchKey,
        chunk_id: u64,
        samples: usize,
    ) -> Option<Arc<BatchBuild>> {
        let mut entries = self.entries.lock();
        if entries.contains_key(&key) {
            return None;
        }
        let build = Arc::new(BatchBuild::new(samples));
        entries.insert(
            key,
            Entry {
                chunk_id,
                build: Arc::clone(&build),
            },
        );
        Some(build)
    }

    /// Removes and returns the build for `key` if one exists for the
    /// current chunk. A stale entry (older chunk) is cancelled instead.
    pub(crate) fn take(&self, key: PrefetchKey, chunk_id: u64) -> Option<Arc<BatchBuild>> {
        let mut entries = self.entries.lock();
        let entry = entries.remove(&key)?;
        if entry.chunk_id == chunk_id {
            // Removal under the entries lock is the ownership transfer:
            // exactly one caller gets the build; its consume-time
            // bookkeeping is single-threaded from here on.
            entry.build.consume_shadow.handoff();
            Some(entry.build)
        } else {
            self.cancel(&entry);
            None
        }
    }

    /// Cancels every entry not belonging to `chunk_id` (chunk rollover:
    /// the superseded plan's speculative batches are dead weight). Each
    /// cancelled entry is counted once.
    pub(crate) fn cancel_stale(&self, chunk_id: u64) {
        let mut entries = self.entries.lock();
        entries.retain(|_, entry| {
            if entry.chunk_id == chunk_id {
                return true;
            }
            self.cancel(entry);
            false
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tensor() -> Tensor {
        Tensor::zeros(vec![1]).expect("valid shape")
    }

    #[test]
    fn build_completes_when_all_samples_fulfilled() {
        let p = Prefetcher::new(2, None);
        assert!(p.enabled());
        assert_eq!(p.depth(), 2);
        let build = p.begin((0, 0, 1), 0, 2).expect("fresh key");
        assert!(p.begin((0, 0, 1), 0, 2).is_none(), "double begin");
        assert!(!build.is_complete());
        build.fulfill(0, Ok(tensor()));
        build.fulfill(1, Ok(tensor()));
        assert!(build.is_complete());
        build.wait_complete(); // must not block
        let taken = p.take((0, 0, 1), 0).expect("entry present");
        assert_eq!(taken.take_results().len(), 2);
        assert_eq!(p.pending(), 0);
    }

    #[test]
    fn stale_chunk_entries_are_cancelled_not_served() {
        let p = Prefetcher::new(1, None);
        let build = p.begin((0, 1, 0), 0, 1).expect("fresh key");
        // Rollover to chunk 1: the entry is stale.
        p.cancel_stale(1);
        assert!(build.cancelled());
        assert_eq!(p.pending(), 0);
        assert!(p.take((0, 1, 0), 1).is_none());
    }

    #[test]
    fn take_with_wrong_chunk_cancels() {
        let p = Prefetcher::new(1, None);
        let build = p.begin((0, 0, 0), 0, 1).expect("fresh key");
        assert!(p.take((0, 0, 0), 7).is_none());
        assert!(build.cancelled());
    }

    #[test]
    fn waiters_wake_on_cancellation() {
        let p = Prefetcher::new(1, None);
        let build = p.begin((0, 0, 0), 0, 1).expect("fresh key");
        let waiter = {
            let build = Arc::clone(&build);
            std::thread::spawn(move || build.wait_complete())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        p.cancel_stale(99);
        waiter.join().expect("waiter must wake after cancel");
    }

    #[test]
    fn a_slot_unwound_by_a_panic_delivers_job_panicked() {
        let build = Arc::new(BatchBuild::new(1));
        let slot = build.slot(0);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _slot = slot;
            panic!("the op under this sample failed");
        }));
        assert!(unwound.is_err());
        assert!(build.is_complete(), "the unwound slot must still deliver");
        assert!(matches!(
            build.take_results().pop(),
            Some(Some(Err(CoreError::JobPanicked)))
        ));
    }

    #[test]
    fn a_slot_dropped_without_a_panic_delivers_job_lost() {
        let build = Arc::new(BatchBuild::new(1));
        drop(build.slot(0));
        assert!(build.is_complete());
        assert!(matches!(
            build.take_results().pop(),
            Some(Some(Err(CoreError::JobLost)))
        ));
    }

    #[test]
    fn disabled_prefetcher_reports_depth_zero() {
        let p = Prefetcher::new(0, None);
        assert!(!p.enabled());
        assert_eq!(p.pending(), 0);
    }

    #[test]
    fn depth_bounds_scheduling_not_the_entries_held() {
        let p = Prefetcher::new(1, None);
        let a = p.begin((0, 0, 1), 0, 1).expect("fresh key");
        let b = p.begin((0, 0, 2), 0, 1).expect("fresh key");
        assert_eq!(p.depth(), 1);
        assert_eq!(p.pending(), 2);
        assert!(!a.cancelled() && !b.cancelled());
    }
}
