//! Priority-based materialization scheduling (Section 5.4 of the paper).
//!
//! The SAND engine runs two kinds of work on one CPU worker pool:
//!
//! - **demand-feeding** jobs: produce the batch the GPU is about to read —
//!   always the highest priority,
//! - **pre-materialization** jobs: produce objects for future iterations
//!   and epochs, prioritized *inversely to their deadline* (the number of
//!   iterations until the GPU needs them) so lagging subtrees get boosted.
//!
//! When memory pressure crosses the paper's 80% watermark, the
//! pre-materialization policy flips to **shortest job first** by remaining
//! unprocessed work, draining nearly-finished subtrees so their decoded
//! raw frames can be freed.
//!
//! Under the priority policy, [`Job::affinity`] is always honoured: a
//! pinned pre-materialization job is left for its preferred worker while
//! that worker is free, and only stolen once it is busy with something
//! else.
//!
//! The pool also supports a FIFO policy, which is the "without
//! scheduling" ablation of Fig. 18.
//!
//! **Multi-tenant QoS.** Demand picks are ordered by weighted virtual
//! time (start-time fair queueing) over the tenant table that
//! [`Scheduler::set_tenant_weights`] installs: each tenant accrues
//! `busy_ns × SCALE / weight` of virtual time as its jobs run, and the
//! demand band serves the tenant with the smallest virtual time first,
//! EDF within a tenant. A tenant that goes idle is lifted to the band's
//! virtual clock on its next submission, so it cannot bank service and
//! later monopolize the band. The table lives beside the queue, under
//! the queue's lock, which every pick holds anyway. An empty table (a
//! bare [`Scheduler::new`]) has no tenants: every job's virtual time is
//! 0 and the band is EDF. So is a table of one tenant, whose jobs all
//! share one virtual time. The demand band as a whole still preempts
//! prefetch and pre-materialization.

#![cfg_attr(test, allow(clippy::unwrap_used))]

use sand_sanitizer::{TrackedCondvar, TrackedMutex};
use sand_telemetry::{SchedMetrics, Telemetry};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Work category.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Data the GPU is waiting on right now.
    Demand,
    /// Speculative assembly of an upcoming batch (the epoch-ahead
    /// prefetcher). Strictly below demand — a GPU-blocking read never
    /// waits behind a prefetch — and above pre-materialization, whose
    /// deadlines are whole iterations further out. Reserved demand-only
    /// workers never pick prefetch work.
    Prefetch,
    /// Object generation for future iterations/epochs.
    PreMaterialize,
}

/// Scheduling policy for pre-materialization jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// SAND's dynamic policy: earliest deadline first, flipping to
    /// shortest-job-first under memory pressure.
    Priority,
    /// Submission order (the no-scheduling baseline).
    Fifo,
}

/// One schedulable job.
pub struct Job {
    /// Work category.
    pub kind: JobKind,
    /// Clock tick at which the result is needed (smaller = sooner).
    pub deadline: u64,
    /// Remaining unprocessed edges in the job's subtree (SJF key).
    pub remaining_work: u64,
    /// Sticky-affinity key (e.g. a video id). Jobs sharing a key map onto
    /// one stable preferred worker. The scheduler keeps no per-worker
    /// state for a key; the pin only decides which worker runs the job.
    /// `None` = any worker.
    pub affinity: Option<u64>,
    /// Owning tenant slot for weighted QoS (an index into the table set
    /// by [`Scheduler::set_tenant_weights`]); its runtime is charged to
    /// that tenant. `None` = work that belongs to no tenant (the engine's
    /// pre-materialization and plan-ahead jobs): it is charged to nobody
    /// and runs at virtual time 0, as does a slot the table lacks.
    pub tenant: Option<u32>,
    /// The work itself.
    pub run: Box<dyn FnOnce() + Send>,
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("kind", &self.kind)
            .field("deadline", &self.deadline)
            .field("remaining_work", &self.remaining_work)
            .field("affinity", &self.affinity)
            .finish_non_exhaustive()
    }
}

/// Scheduler configuration.
#[derive(Debug, Clone, Copy)]
pub struct SchedConfig {
    /// Worker thread count.
    pub threads: usize,
    /// Pre-materialization pick policy.
    pub policy: Policy,
    /// Workers reserved for demand-feeding (the paper's dedicated
    /// demand-feeding threads): these never pick pre-materialization
    /// work, so a read() is never stuck behind a long-running
    /// materialization job. Only honoured under [`Policy::Priority`];
    /// the FIFO ablation deliberately has no reservation.
    pub reserved_demand_threads: usize,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            threads: 4,
            policy: Policy::Priority,
            reserved_demand_threads: 1,
        }
    }
}

/// Pick-decision counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Demand jobs served.
    pub demand_served: u64,
    /// Prefetch jobs served.
    pub prefetch_served: u64,
    /// Pre-materialization jobs served.
    pub pre_served: u64,
    /// Picks made in deadline mode.
    pub deadline_picks: u64,
    /// Picks made in SJF mode (memory pressure).
    pub sjf_picks: u64,
    /// Picks made in FIFO mode.
    pub fifo_picks: u64,
    /// Cumulative worker busy time in nanoseconds (CPU work performed).
    pub busy_nanos: u64,
    /// Pinned pre-materialization jobs served by their preferred worker.
    pub affinity_hits: u64,
    /// Pinned pre-materialization jobs stolen by another worker because
    /// the preferred worker was backlogged.
    pub affinity_steals: u64,
}

/// Memory fraction above which pre-materialization picks flip to SJF
/// (the paper's 80%).
const MEMORY_HIGH_WATERMARK: f64 = 0.8;

/// How long [`Scheduler::wait_idle`] sleeps before re-checking, even
/// without a wakeup.
const IDLE_RECHECK: Duration = Duration::from_millis(20);

/// Virtual-time scale: one nanosecond of service at weight `SCALE`
/// advances virtual time by one unit. Keeps integer division honest for
/// weights up to ~1k without overflowing u64 on realistic busy times.
const VT_SCALE: u64 = 1024;

/// One tenant's weighted-sharing state, reported by
/// [`Scheduler::tenant_shares`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantShare {
    /// Configured weight (relative share of the demand band).
    pub weight: u64,
    /// Weight-scaled virtual time consumed so far.
    pub vtime: u64,
    /// Raw busy nanoseconds charged to this tenant.
    pub busy_ns: u64,
}

/// The demand band's fair-queueing state: one slot per tenant id plus
/// the band's virtual clock. Empty = no tenants.
#[derive(Default)]
struct TenantTable {
    shares: Vec<TenantShare>,
    /// Virtual time of the most recent demand pick. Newly submitted
    /// tenant work is lifted to at least this value, bounding the lag a
    /// tenant can accumulate while idle (CFS-style sleeper placement).
    vclock: u64,
}

impl TenantTable {
    fn vtime_of(&self, tenant: Option<u32>) -> u64 {
        tenant
            .and_then(|t| self.shares.get(t as usize))
            .map_or(0, |s| s.vtime)
    }

    fn share_mut(&mut self, tenant: Option<u32>) -> Option<&mut TenantShare> {
        self.shares.get_mut(tenant? as usize)
    }
}

/// What the queue lock guards: the queued jobs and the tenant table
/// their demand picks are ranked by.
#[derive(Default)]
struct Queue {
    entries: Vec<Entry>,
    tenants: TenantTable,
}

/// Queue entry with a stable submission sequence for FIFO.
struct Entry {
    seq: u64,
    job: Job,
    /// Submission timestamp: the queue wait is pick time minus this.
    submitted: Instant,
}

struct Shared {
    queue: TrackedMutex<Queue>,
    available: TrackedCondvar,
    shutdown: AtomicBool,
    /// Once `shutdown` is set: workers with this id or a higher one may
    /// exit (see [`Scheduler::stop_workers`]).
    leave_from: AtomicUsize,
    running: AtomicU64,
    memory_pressure_milli: AtomicU64,
    stats: TrackedMutex<SchedStats>,
    /// Notified when the last running job ends; [`Scheduler::wait_idle`]
    /// waits on it.
    idle: TrackedCondvar,
    config: SchedConfig,
    /// Per-worker "currently executing a job" flags, used by the sticky
    /// affinity policy: a pinned job may only be stolen while its
    /// preferred worker is busy (i.e. backlogged), otherwise it is left
    /// for that worker to pick up on its next dequeue.
    worker_busy: Vec<AtomicBool>,
    /// Queue depth, per-kind queue wait, and the affinity counters
    /// (`stats()` reads the pre-materialization ones back).
    metrics: SchedMetrics,
}

/// Identity of the worker asking for work.
#[derive(Clone, Copy)]
struct WorkerCtx {
    id: usize,
    demand_only: bool,
    /// Leading workers reserved for demand feeding; pinned
    /// pre-materialization jobs map onto the remaining pool.
    reserved: usize,
    threads: usize,
}

impl WorkerCtx {
    /// The stable worker a pinned job prefers. Reserved demand-only
    /// workers are excluded from the pool: mapping a PreMaterialize job
    /// onto one would strand it, since reserved workers never take
    /// pre-materialization work.
    fn preferred_worker(&self, affinity: u64) -> usize {
        let pool = self.threads.saturating_sub(self.reserved).max(1);
        self.reserved + (affinity as usize % pool)
    }

    /// Whether this worker is the preferred home for `e` (unpinned jobs
    /// are at home anywhere).
    fn prefers(&self, e: &Entry) -> bool {
        match e.job.affinity {
            Some(a) => self.preferred_worker(a) == self.id,
            None => true,
        }
    }
}

/// The materialization scheduler: a worker pool with dynamic priorities.
pub struct Scheduler {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    seq: AtomicU64,
}

impl Scheduler {
    /// Starts the worker pool, counting into a registry of its own.
    #[must_use]
    pub fn new(config: SchedConfig) -> Self {
        Self::with_metrics(config, SchedMetrics::register(&Telemetry::disabled()))
    }

    /// Starts the worker pool, counting into `metrics`.
    #[must_use]
    pub fn with_metrics(config: SchedConfig, metrics: SchedMetrics) -> Self {
        let threads = config.threads.max(1);
        let shared = Arc::new(Shared {
            queue: TrackedMutex::new("sched.queue", Queue::default()),
            available: TrackedCondvar::new(),
            shutdown: AtomicBool::new(false),
            leave_from: AtomicUsize::new(usize::MAX),
            running: AtomicU64::new(0),
            memory_pressure_milli: AtomicU64::new(0),
            stats: TrackedMutex::new("sched.stats", SchedStats::default()),
            idle: TrackedCondvar::new(),
            config,
            worker_busy: (0..threads).map(|_| AtomicBool::new(false)).collect(),
            metrics,
        });
        let reserved = if config.policy == Policy::Priority {
            config
                .reserved_demand_threads
                .min(threads.saturating_sub(1))
        } else {
            0
        };
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let ctx = WorkerCtx {
                    id: i,
                    demand_only: i < reserved,
                    reserved,
                    threads,
                };
                std::thread::spawn(move || worker_loop(&shared, ctx))
            })
            .collect();
        Scheduler {
            shared,
            workers,
            seq: AtomicU64::new(0),
        }
    }

    /// Submits a job.
    pub fn submit(&self, job: Job) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.shared.metrics.queue_depth.add(1);
        let submitted = Instant::now();
        {
            let mut q = self.shared.queue.lock();
            // Sleeper placement: lift the tenant to the band's virtual
            // clock so service it did not use while idle is forgotten,
            // not banked (a returning tenant competes from "now").
            let vclock = q.tenants.vclock;
            if let Some(s) = q.tenants.share_mut(job.tenant) {
                s.vtime = s.vtime.max(vclock);
            }
            q.entries.push(Entry {
                seq,
                job,
                submitted,
            });
        }
        // notify_all, not notify_one: a single wakeup can land on a
        // reserved demand-only worker that cannot take a PreMaterialize
        // job, which swallows the notification and strands the job.
        self.shared.available.notify_all();
    }

    /// Reports current memory pressure as a fraction in `[0, 1]`.
    pub fn set_memory_pressure(&self, frac: f64) {
        let milli = (frac.clamp(0.0, 1.0) * 1000.0) as u64;
        self.shared
            .memory_pressure_milli
            .store(milli, Ordering::Relaxed);
    }

    /// Installs the weighted-QoS tenant table (an empty slice empties
    /// it). `weights[i]` is tenant `i`'s relative share of the demand
    /// band; zero weights are clamped to 1 (`Fleet::new` rejects a
    /// weight-0 tenant before it gets here). Resets virtual times, so
    /// this is meant to be called once at engine construction.
    pub fn set_tenant_weights(&self, weights: &[u64]) {
        self.shared.queue.lock().tenants = TenantTable {
            shares: weights
                .iter()
                .map(|&w| TenantShare {
                    weight: w.max(1),
                    vtime: 0,
                    busy_ns: 0,
                })
                .collect(),
            vclock: 0,
        };
    }

    /// Snapshot of per-tenant weights, virtual times, and charged busy
    /// time, in tenant order; empty without tenants.
    #[must_use]
    pub fn tenant_shares(&self) -> Vec<TenantShare> {
        self.shared.queue.lock().tenants.shares.clone()
    }

    /// Number of queued (not yet started) jobs.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.shared.queue.lock().entries.len()
    }

    /// Blocks until the queue is empty and no job is running.
    pub fn wait_idle(&self) {
        let mut q = self.shared.queue.lock();
        while !(q.entries.is_empty() && self.shared.running.load(Ordering::SeqCst) == 0) {
            self.shared.idle.wait_for(&mut q, IDLE_RECHECK);
        }
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> SchedStats {
        let m = &self.shared.metrics;
        SchedStats {
            affinity_hits: m.affinity_hits.get(),
            affinity_steals: m.affinity_steals.get(),
            ..*self.shared.stats.lock()
        }
    }

    /// Stops the pool, waiting for in-flight jobs to finish. Queued jobs
    /// that have not started are dropped.
    pub fn shutdown(mut self) {
        self.stop_workers();
    }

    /// Signals shutdown and joins workers — except the current thread,
    /// which can happen when a job holds the last reference to the
    /// structure owning this scheduler (joining oneself would deadlock).
    ///
    /// Every worker stops taking jobs at once, but they exit one at a
    /// time, last spawned first, each joined before the next may go. The
    /// allocator hands a new thread the arena of the thread that exited
    /// last, and workers are not alike — the reserved demand workers
    /// allocate little, the others fill the object store — so when a
    /// process runs engines back to back, an exit order left to chance
    /// swaps the roles' arenas at random: the store then fills a second
    /// arena while the first sits idle, still resident. Leaving in the
    /// reverse of spawn order gives every new worker the arena its
    /// predecessor in the same role left.
    fn stop_workers(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let me = std::thread::current().id();
        for (id, w) in self.workers.drain(..).enumerate().rev() {
            self.shared.leave_from.store(id, Ordering::SeqCst);
            // A worker checks the flags and starts waiting under the
            // queue lock; passing through the lock here means the
            // notification cannot fall between its check and its wait
            // and be lost.
            drop(self.shared.queue.lock());
            self.shared.available.notify_all();
            if w.thread().id() != me {
                let _ = w.join();
            }
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

/// Picks the next entry index under the active policy.
fn pick_index(
    entries: &[Entry],
    config: &SchedConfig,
    pressure_milli: u64,
    w: WorkerCtx,
    worker_busy: &[AtomicBool],
    tenants: &TenantTable,
) -> Option<(usize, &'static str)> {
    if entries.is_empty() {
        return None;
    }
    // Sticky affinity is part of the priority policy; FIFO ignores hints.
    let sticky = config.policy == Policy::Priority;
    // Demand selection is weighted-fair across tenants, then earliest-
    // deadline-first within a virtual-time tie group, an affinity match
    // only breaking deadline ties — a GPU-blocking read never waits for
    // a particular worker. Where every demand entry has the same virtual
    // time (no tenants, or all of one tenant) the order is plain EDF.
    let vtime = |e: &Entry| tenants.vtime_of(e.job.tenant);
    let pick_demand = |entries: &[Entry]| {
        entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.job.kind == JobKind::Demand)
            .min_by_key(|(_, e)| {
                (
                    vtime(e),
                    e.job.deadline,
                    u8::from(sticky && !w.prefers(e)),
                    e.seq,
                )
            })
            .map(|(i, _)| (i, "demand"))
    };
    if w.demand_only {
        // Reserved workers serve demand only — prefetch is speculative
        // and must never occupy a thread set aside for GPU-blocking
        // reads.
        return pick_demand(entries);
    }
    // Under the priority policy, demand jobs always win (earliest
    // deadline first), then prefetch (speculative upcoming batches,
    // EDF with affinity as a tie-break), then pre-materialization. The
    // FIFO baseline deliberately lacks this preemption too: that is the
    // "without scheduling" ablation.
    if config.policy == Policy::Priority {
        if let Some(pick) = pick_demand(entries) {
            return Some(pick);
        }
        let prefetch = entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.job.kind == JobKind::Prefetch)
            .min_by_key(|(_, e)| (e.job.deadline, u8::from(sticky && !w.prefers(e)), e.seq))
            .map(|(i, _)| (i, "prefetch"));
        if let Some(pick) = prefetch {
            return Some(pick);
        }
    }
    match config.policy {
        Policy::Fifo => entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.seq)
            .map(|(i, _)| (i, "fifo")),
        Policy::Priority => {
            let sjf = pressure_milli as f64 / 1000.0 > MEMORY_HIGH_WATERMARK;
            let pick_pre = |eligible: &dyn Fn(&Entry) -> bool| {
                let iter = entries.iter().enumerate().filter(|(_, e)| eligible(e));
                if sjf {
                    iter.min_by_key(|(_, e)| (e.job.remaining_work, e.seq))
                        .map(|(i, _)| (i, "sjf"))
                } else {
                    iter.min_by_key(|(_, e)| (e.job.deadline, e.seq))
                        .map(|(i, _)| (i, "deadline"))
                }
            };
            // Sticky pass 1: own pinned jobs and unpinned jobs.
            if let Some(pick) = pick_pre(&|e| w.prefers(e)) {
                return Some(pick);
            }
            // Sticky pass 2 (steal): a foreign pinned job, but only while
            // its preferred worker is busy running something else — an
            // idle preferred worker was notified on submit and will take
            // its own job, so leaving it pinned costs nothing.
            pick_pre(&|e| {
                e.job
                    .affinity
                    .is_some_and(|a| worker_busy[w.preferred_worker(a)].load(Ordering::SeqCst))
            })
        }
    }
}

fn worker_loop(shared: &Arc<Shared>, w: WorkerCtx) {
    loop {
        let entry = {
            let mut q = shared.queue.lock();
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    while shared.leave_from.load(Ordering::SeqCst) > w.id {
                        shared.available.wait(&mut q);
                    }
                    return;
                }
                let pressure = shared.memory_pressure_milli.load(Ordering::Relaxed);
                let picked = pick_index(
                    &q.entries,
                    &shared.config,
                    pressure,
                    w,
                    &shared.worker_busy,
                    &q.tenants,
                );
                if let Some((idx, mode)) = picked {
                    let m = &shared.metrics;
                    let picked = &q.entries[idx];
                    let wait = picked.submitted.elapsed();
                    match picked.job.kind {
                        JobKind::Demand => m.demand_wait_us.observe_duration(wait),
                        JobKind::Prefetch => m.prefetch_wait_us.observe_duration(wait),
                        JobKind::PreMaterialize => m.pre_wait_us.observe_duration(wait),
                    }
                    m.queue_depth.sub(1);
                    if picked.job.kind == JobKind::Demand && picked.job.affinity.is_some() {
                        if w.prefers(picked) {
                            m.demand_affinity_hits.inc();
                        } else {
                            m.demand_affinity_misses.inc();
                        }
                    }
                    let entry = q.entries.swap_remove(idx);
                    // Advance the band's virtual clock to this pick's
                    // virtual time: it is the fair-queueing "now" that
                    // newly woken tenants are lifted to.
                    let table = &mut q.tenants;
                    table.vclock = table.vclock.max(table.vtime_of(entry.job.tenant));
                    // Account the pick while still holding the lock.
                    let mut stats = shared.stats.lock();
                    match entry.job.kind {
                        JobKind::Demand => stats.demand_served += 1,
                        JobKind::Prefetch => stats.prefetch_served += 1,
                        JobKind::PreMaterialize => stats.pre_served += 1,
                    }
                    match mode {
                        "sjf" => stats.sjf_picks += 1,
                        "deadline" => stats.deadline_picks += 1,
                        "fifo" => stats.fifo_picks += 1,
                        _ => {}
                    }
                    if entry.job.kind == JobKind::PreMaterialize
                        && shared.config.policy == Policy::Priority
                    {
                        if let Some(a) = entry.job.affinity {
                            if w.preferred_worker(a) == w.id {
                                m.affinity_hits.inc();
                            } else {
                                m.affinity_steals.inc();
                            }
                        }
                    }
                    drop(stats);
                    shared.running.fetch_add(1, Ordering::SeqCst);
                    // Flip the busy flag inside the queue lock so stealers
                    // never observe "idle" for a worker that has already
                    // committed to a job.
                    shared.worker_busy[w.id].store(true, Ordering::SeqCst);
                    break entry;
                }
                shared.available.wait(&mut q);
            }
        };
        let started = std::time::Instant::now();
        let tenant = entry.job.tenant;
        // A panicking job must not take its worker with it: the
        // accounting below runs either way, so `running` and the busy
        // flag come back down and the worker picks its next job. The
        // job's own state unwinds with it — a `SampleSlot` dropped by
        // the unwind fails its waiter with `CoreError::JobPanicked`.
        let _ = panic::catch_unwind(AssertUnwindSafe(entry.job.run));
        let busy = started.elapsed().as_nanos() as u64;
        shared.worker_busy[w.id].store(false, Ordering::SeqCst);
        if tenant.is_some() {
            // Charge the service: virtual time advances inversely to
            // weight, so heavier tenants stay eligible longer.
            if let Some(s) = shared.queue.lock().tenants.share_mut(tenant) {
                s.busy_ns += busy;
                s.vtime += busy.saturating_mul(VT_SCALE) / s.weight.max(1);
            }
        }
        shared.stats.lock().busy_nanos += busy;
        if shared.running.fetch_sub(1, Ordering::SeqCst) == 1 {
            // The pool may be idle now. `wait_idle` checks and starts
            // waiting under the queue lock; passing through it here means
            // the wakeup cannot fall between its check and its wait.
            drop(shared.queue.lock());
            shared.idle.notify_all();
        }
        // Wake peers: finishing a job can unblock pinned work for this
        // worker, and going idle changes what peers may steal.
        shared.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use proptest::prelude::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    fn job(kind: JobKind, deadline: u64, work: u64, f: impl FnOnce() + Send + 'static) -> Job {
        Job {
            kind,
            deadline,
            remaining_work: work,
            affinity: None,
            tenant: None,
            run: Box::new(f),
        }
    }

    fn pinned(affinity: u64, f: impl FnOnce() + Send + 'static) -> Job {
        Job {
            kind: JobKind::PreMaterialize,
            deadline: 1,
            remaining_work: 1,
            affinity: Some(affinity),
            tenant: None,
            run: Box::new(f),
        }
    }

    /// Single-threaded scheduler whose first job blocks until released,
    /// letting tests control pick order deterministically.
    fn gated_scheduler(policy: Policy) -> (Scheduler, Arc<AtomicBool>) {
        let sched = Scheduler::new(SchedConfig {
            threads: 1,
            policy,
            ..Default::default()
        });
        let gate = Arc::new(AtomicBool::new(false));
        let g = Arc::clone(&gate);
        sched.submit(job(JobKind::PreMaterialize, 0, 0, move || {
            while !g.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }));
        // Let the worker pick up the gate job.
        std::thread::sleep(Duration::from_millis(20));
        (sched, gate)
    }

    #[test]
    fn executes_submitted_jobs() {
        let sched = Scheduler::new(SchedConfig::default());
        let count = Arc::new(AtomicUsize::new(0));
        for _ in 0..32 {
            let c = Arc::clone(&count);
            sched.submit(job(JobKind::PreMaterialize, 1, 1, move || {
                c.fetch_add(1, Ordering::SeqCst);
            }));
        }
        sched.wait_idle();
        assert_eq!(count.load(Ordering::SeqCst), 32);
        assert_eq!(sched.stats().pre_served, 32);
        sched.shutdown();
    }

    #[test]
    fn worker_survives_a_panicking_job() {
        let sched = Scheduler::new(SchedConfig {
            threads: 1,
            ..Default::default()
        });
        sched.submit(job(JobKind::Demand, 1, 1, || {
            panic!("deliberate job failure")
        }));
        let ran = Arc::new(AtomicBool::new(false));
        let r = Arc::clone(&ran);
        sched.submit(job(JobKind::Demand, 2, 1, move || {
            r.store(true, Ordering::SeqCst);
        }));
        // Polled against a deadline: a dead worker fails the test
        // instead of hanging it.
        let deadline = Instant::now() + Duration::from_secs(10);
        while !ran.load(Ordering::SeqCst) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            ran.load(Ordering::SeqCst),
            "the worker died with the panicking job"
        );
        // The panicking job was accounted as finished: the pool drains.
        sched.wait_idle();
        assert_eq!(sched.stats().demand_served, 2);
        sched.shutdown();
    }

    #[test]
    fn demand_jobs_preempt_prematerialization() {
        let (sched, gate) = gated_scheduler(Policy::Priority);
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..3 {
            let o = Arc::clone(&order);
            sched.submit(job(JobKind::PreMaterialize, 10 + i, 1, move || {
                o.lock().push(format!("pre{i}"));
            }));
        }
        let o = Arc::clone(&order);
        sched.submit(job(JobKind::Demand, 999, 1, move || {
            o.lock().push("demand".into());
        }));
        gate.store(true, Ordering::SeqCst);
        sched.wait_idle();
        let order = order.lock().clone();
        assert_eq!(order[0], "demand", "order was {order:?}");
        sched.shutdown();
    }

    /// Prefetch is its own priority band: below demand, above
    /// pre-materialization, EDF within the band.
    #[test]
    fn prefetch_sits_between_demand_and_prematerialization() {
        let (sched, gate) = gated_scheduler(Policy::Priority);
        let order = Arc::new(Mutex::new(Vec::new()));
        let o = Arc::clone(&order);
        sched.submit(job(JobKind::PreMaterialize, 1, 1, move || {
            o.lock().push("pre");
        }));
        for (name, deadline) in [("prefetch-late", 9u64), ("prefetch-soon", 2)] {
            let o = Arc::clone(&order);
            sched.submit(Job {
                kind: JobKind::Prefetch,
                deadline,
                remaining_work: 1,
                affinity: None,
                tenant: None,
                run: Box::new(move || o.lock().push(name)),
            });
        }
        let o = Arc::clone(&order);
        sched.submit(job(JobKind::Demand, 999, 1, move || {
            o.lock().push("demand");
        }));
        gate.store(true, Ordering::SeqCst);
        sched.wait_idle();
        assert_eq!(
            *order.lock(),
            vec!["demand", "prefetch-soon", "prefetch-late", "pre"]
        );
        let stats = sched.stats();
        assert_eq!(stats.prefetch_served, 2);
        assert_eq!(stats.demand_served, 1);
        assert_eq!(stats.pre_served, 2); // gate job + "pre"
        sched.shutdown();
    }

    /// Prefetch waits land in their own histogram, not demand's or
    /// pre-materialization's.
    #[test]
    fn prefetch_waits_have_their_own_histogram() {
        let telemetry = Telemetry::disabled();
        let metrics = SchedMetrics::register(&telemetry);
        let sched = Scheduler::with_metrics(
            SchedConfig {
                threads: 2,
                ..Default::default()
            },
            metrics,
        );
        for i in 0..6 {
            sched.submit(Job {
                kind: JobKind::Prefetch,
                deadline: i,
                remaining_work: 1,
                affinity: None,
                tenant: None,
                run: Box::new(|| {}),
            });
        }
        sched.wait_idle();
        sched.shutdown();
        let snap = telemetry.snapshot().expect("a registry");
        assert_eq!(
            snap.histogram("sched.prefetch_wait_us").map(|h| h.count),
            Some(6)
        );
        assert_eq!(
            snap.histogram("sched.demand_wait_us").map(|h| h.count),
            Some(0)
        );
    }

    #[test]
    fn deadline_ordering_under_priority_policy() {
        let (sched, gate) = gated_scheduler(Policy::Priority);
        let order = Arc::new(Mutex::new(Vec::new()));
        for (name, deadline) in [("late", 50u64), ("soon", 5), ("mid", 20)] {
            let o = Arc::clone(&order);
            sched.submit(job(JobKind::PreMaterialize, deadline, 1, move || {
                o.lock().push(name);
            }));
        }
        gate.store(true, Ordering::SeqCst);
        sched.wait_idle();
        assert_eq!(*order.lock(), vec!["soon", "mid", "late"]);
        assert!(sched.stats().deadline_picks >= 3);
        sched.shutdown();
    }

    #[test]
    fn sjf_under_memory_pressure() {
        let (sched, gate) = gated_scheduler(Policy::Priority);
        sched.set_memory_pressure(0.95);
        let order = Arc::new(Mutex::new(Vec::new()));
        for (name, deadline, work) in [("big", 1u64, 100u64), ("small", 99, 1), ("mid", 50, 10)] {
            let o = Arc::clone(&order);
            sched.submit(job(JobKind::PreMaterialize, deadline, work, move || {
                o.lock().push(name);
            }));
        }
        gate.store(true, Ordering::SeqCst);
        sched.wait_idle();
        assert_eq!(*order.lock(), vec!["small", "mid", "big"]);
        assert!(sched.stats().sjf_picks >= 3);
        sched.shutdown();
    }

    #[test]
    fn pressure_release_returns_to_deadline_mode() {
        let (sched, gate) = gated_scheduler(Policy::Priority);
        sched.set_memory_pressure(0.95);
        sched.set_memory_pressure(0.2);
        let order = Arc::new(Mutex::new(Vec::new()));
        for (name, deadline, work) in [("a", 5u64, 100u64), ("b", 50, 1)] {
            let o = Arc::clone(&order);
            sched.submit(job(JobKind::PreMaterialize, deadline, work, move || {
                o.lock().push(name);
            }));
        }
        gate.store(true, Ordering::SeqCst);
        sched.wait_idle();
        assert_eq!(*order.lock(), vec!["a", "b"]);
        sched.shutdown();
    }

    #[test]
    fn fifo_policy_ignores_deadlines() {
        let (sched, gate) = gated_scheduler(Policy::Fifo);
        let order = Arc::new(Mutex::new(Vec::new()));
        for (name, deadline) in [("first", 99u64), ("second", 1)] {
            let o = Arc::clone(&order);
            sched.submit(job(JobKind::PreMaterialize, deadline, 1, move || {
                o.lock().push(name);
            }));
        }
        gate.store(true, Ordering::SeqCst);
        sched.wait_idle();
        assert_eq!(*order.lock(), vec!["first", "second"]);
        assert!(sched.stats().fifo_picks >= 2);
        sched.shutdown();
    }

    #[test]
    fn parallel_throughput_with_many_threads() {
        let sched = Scheduler::new(SchedConfig {
            threads: 8,
            ..Default::default()
        });
        let count = Arc::new(AtomicUsize::new(0));
        for i in 0..200 {
            let c = Arc::clone(&count);
            sched.submit(job(JobKind::PreMaterialize, i, 1, move || {
                c.fetch_add(1, Ordering::SeqCst);
            }));
        }
        sched.wait_idle();
        assert_eq!(count.load(Ordering::SeqCst), 200);
        sched.shutdown();
    }

    #[test]
    fn shutdown_drops_unstarted_jobs() {
        let (sched, gate) = gated_scheduler(Policy::Priority);
        let count = Arc::new(AtomicUsize::new(0));
        for _ in 0..5 {
            let c = Arc::clone(&count);
            sched.submit(job(JobKind::PreMaterialize, 1, 1, move || {
                c.fetch_add(1, Ordering::SeqCst);
            }));
        }
        gate.store(true, Ordering::SeqCst);
        // Shut down immediately; some queued jobs may be dropped, and that
        // must not hang or crash.
        sched.shutdown();
        assert!(count.load(Ordering::SeqCst) <= 5);
    }

    /// Teardown mirrors start-up: the last worker spawned is the first
    /// to exit, and each is gone — thread-locals destroyed — before the
    /// next leaves.
    #[test]
    fn workers_exit_in_reverse_spawn_order() {
        use std::cell::RefCell;
        use std::sync::{Barrier, Mutex};
        use std::thread::ThreadId;
        struct Exit(ThreadId, Arc<Mutex<Vec<ThreadId>>>);
        impl Drop for Exit {
            fn drop(&mut self) {
                self.1.lock().unwrap().push(self.0);
            }
        }
        thread_local! {
            static EXIT: RefCell<Option<Exit>> = const { RefCell::new(None) };
        }
        let sched = Scheduler::new(SchedConfig {
            threads: 3,
            ..Default::default()
        });
        let spawned: Vec<ThreadId> = sched.workers.iter().map(|w| w.thread().id()).collect();
        let exited = Arc::new(Mutex::new(Vec::new()));
        // The barrier holds each worker to one job, so all three plant
        // an exit marker.
        let barrier = Arc::new(Barrier::new(3));
        for _ in 0..3 {
            let (exited, barrier) = (Arc::clone(&exited), Arc::clone(&barrier));
            sched.submit(job(JobKind::Demand, 1, 1, move || {
                let marker = Exit(std::thread::current().id(), exited);
                EXIT.with(|slot| *slot.borrow_mut() = Some(marker));
                barrier.wait();
            }));
        }
        sched.wait_idle();
        sched.shutdown();
        let exited = exited.lock().unwrap().clone();
        assert_eq!(exited, spawned.into_iter().rev().collect::<Vec<_>>());
    }

    #[test]
    fn wait_idle_on_empty_pool_returns() {
        let sched = Scheduler::new(SchedConfig::default());
        sched.wait_idle();
        sched.shutdown();
    }

    /// With an idle pool, a pinned job always lands on its stable
    /// preferred worker: submitting one at a time with the same affinity
    /// key must execute every job on the same OS thread.
    #[test]
    fn pinned_jobs_stick_to_one_worker_when_idle() {
        let sched = Scheduler::new(SchedConfig {
            threads: 3,
            reserved_demand_threads: 1,
            ..Default::default()
        });
        let threads_seen = Arc::new(Mutex::new(Vec::new()));
        for _ in 0..8 {
            let t = Arc::clone(&threads_seen);
            sched.submit(pinned(7, move || {
                t.lock().push(std::thread::current().id());
            }));
            sched.wait_idle();
        }
        let seen = threads_seen.lock().clone();
        assert_eq!(seen.len(), 8);
        assert!(
            seen.iter().all(|id| *id == seen[0]),
            "pinned jobs hopped workers: {seen:?}"
        );
        let stats = sched.stats();
        assert_eq!(stats.affinity_hits, 8);
        assert_eq!(stats.affinity_steals, 0);
        sched.shutdown();
    }

    /// When the preferred worker is stuck on a long job, peers must steal
    /// its pinned backlog instead of letting it pile up.
    #[test]
    fn backlogged_pinned_jobs_are_stolen() {
        let sched = Scheduler::new(SchedConfig {
            threads: 3,
            reserved_demand_threads: 1,
            ..Default::default()
        });
        let gate = Arc::new(AtomicBool::new(false));
        let g = Arc::clone(&gate);
        // Occupy the preferred worker for affinity key 7.
        sched.submit(pinned(7, move || {
            while !g.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }));
        std::thread::sleep(Duration::from_millis(20));
        let count = Arc::new(AtomicUsize::new(0));
        for _ in 0..6 {
            let c = Arc::clone(&count);
            sched.submit(pinned(7, move || {
                c.fetch_add(1, Ordering::SeqCst);
            }));
        }
        // The stolen jobs finish while the gate job still holds the
        // preferred worker.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while count.load(Ordering::SeqCst) < 6 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(count.load(Ordering::SeqCst), 6, "pinned backlog starved");
        let stats = sched.stats();
        assert!(stats.affinity_steals >= 6, "stats: {stats:?}");
        gate.store(true, Ordering::SeqCst);
        sched.wait_idle();
        sched.shutdown();
    }

    /// Demand order exercised directly against `pick_index`: worker 2
    /// prefers affinity key 1 (threads=4, reserved=1 → preferred worker
    /// = 1 + key % 3).
    #[test]
    fn demand_is_strict_edf_with_affinity_as_tie_break() {
        let w = WorkerCtx {
            id: 2,
            demand_only: false,
            reserved: 1,
            threads: 4,
        };
        let busy: Vec<AtomicBool> = (0..4).map(|_| AtomicBool::new(false)).collect();
        let entries = |deadlines: [(u64, u64); 2]| -> Vec<Entry> {
            deadlines
                .iter()
                .enumerate()
                .map(|(i, &(deadline, affinity))| Entry {
                    seq: i as u64,
                    job: Job {
                        kind: JobKind::Demand,
                        deadline,
                        remaining_work: 1,
                        affinity: Some(affinity),
                        tenant: None,
                        run: Box::new(|| {}),
                    },
                    submitted: Instant::now(),
                })
                .collect()
        };
        let pick = |q: &[Entry]| {
            let config = SchedConfig::default();
            pick_index(q, &config, 0, w, &busy, &TenantTable::default()).map(|(i, _)| i)
        };
        // Key 0 → worker 1 (foreign), key 1 → worker 2 (at home).
        let q = entries([(5, 0), (6, 1)]);
        assert_eq!(pick(&q), Some(0), "strict EDF");
        let q = entries([(5, 0), (5, 1)]);
        assert_eq!(pick(&q), Some(1), "affinity breaks a deadline tie");
    }

    /// Telemetry wiring: queue depth returns to zero and every pick
    /// lands in a wait histogram.
    #[test]
    fn metrics_account_queue_depth_and_waits() {
        let telemetry = Telemetry::disabled();
        let metrics = SchedMetrics::register(&telemetry);
        let sched = Scheduler::with_metrics(
            SchedConfig {
                threads: 2,
                ..Default::default()
            },
            metrics,
        );
        for i in 0..10 {
            sched.submit(job(JobKind::Demand, i, 1, || {}));
            sched.submit(job(JobKind::PreMaterialize, i, 1, || {}));
        }
        sched.wait_idle();
        sched.shutdown();
        let snap = telemetry.snapshot().expect("a registry");
        assert_eq!(snap.gauge("sched.queue_depth"), Some(0));
        assert_eq!(
            snap.histogram("sched.demand_wait_us").map(|h| h.count),
            Some(10)
        );
        assert_eq!(
            snap.histogram("sched.pre_wait_us").map(|h| h.count),
            Some(10)
        );
    }

    /// Weighted virtual time dominates the demand order: the tenant that
    /// has consumed less weight-scaled service is picked first even when
    /// the other tenant's job has the earlier deadline; within one
    /// tenant the order is still EDF.
    #[test]
    fn tenant_virtual_time_orders_demand_band() {
        let w = WorkerCtx {
            id: 1,
            demand_only: false,
            reserved: 1,
            threads: 2,
        };
        let busy: Vec<AtomicBool> = (0..2).map(|_| AtomicBool::new(false)).collect();
        let entries = |jobs: &[(u64, Option<u32>)]| -> Vec<Entry> {
            jobs.iter()
                .enumerate()
                .map(|(i, &(deadline, tenant))| Entry {
                    seq: i as u64,
                    job: Job {
                        kind: JobKind::Demand,
                        deadline,
                        remaining_work: 1,
                        affinity: None,
                        tenant,
                        run: Box::new(|| {}),
                    },
                    submitted: Instant::now(),
                })
                .collect()
        };
        let table = TenantTable {
            shares: vec![
                TenantShare {
                    weight: 1,
                    vtime: 5000,
                    busy_ns: 0,
                },
                TenantShare {
                    weight: 4,
                    vtime: 100,
                    busy_ns: 0,
                },
            ],
            vclock: 0,
        };
        let solo = TenantTable {
            shares: vec![TenantShare {
                weight: 1,
                vtime: 5000,
                busy_ns: 0,
            }],
            vclock: 0,
        };
        let config = SchedConfig::default();
        let pick =
            |q: &[Entry], t: &TenantTable| pick_index(q, &config, 0, w, &busy, t).map(|(i, _)| i);
        // Tenant 1 is behind in virtual time: it wins despite the later
        // deadline. With one tenant, plain EDF picks the earlier one.
        let q = entries(&[(1, Some(0)), (9, Some(1))]);
        assert_eq!(pick(&q, &table), Some(1), "min vtime wins");
        let q = entries(&[(1, Some(0)), (9, Some(0))]);
        assert_eq!(pick(&q, &solo), Some(0), "one tenant: strict EDF");
        // Within one tenant: EDF.
        let q = entries(&[(7, Some(1)), (3, Some(1))]);
        assert_eq!(pick(&q, &table), Some(1));
        // Untenanted work has virtual time 0 and sorts first.
        let q = entries(&[(9, Some(1)), (9, None)]);
        assert_eq!(pick(&q, &table), Some(1 /* index of None entry */));
    }

    /// End-to-end charging: two tenants do the same amount of real work,
    /// and the lighter-weight tenant ends up with the larger virtual
    /// time (it consumed its smaller share faster).
    #[test]
    fn tenant_charges_scale_inversely_with_weight() {
        let sched = Scheduler::new(SchedConfig {
            threads: 1,
            ..Default::default()
        });
        sched.set_tenant_weights(&[1, 4]);
        for tenant in [0u32, 1] {
            for i in 0..4 {
                sched.submit(Job {
                    kind: JobKind::Demand,
                    deadline: i,
                    remaining_work: 1,
                    affinity: None,
                    tenant: Some(tenant),
                    run: Box::new(|| std::thread::sleep(Duration::from_millis(2))),
                });
            }
        }
        sched.wait_idle();
        let shares = sched.tenant_shares();
        assert_eq!(shares.len(), 2);
        assert!(shares[0].busy_ns > 0 && shares[1].busy_ns > 0);
        assert!(
            shares[0].vtime > shares[1].vtime,
            "weight-1 tenant must burn virtual time faster: {shares:?}"
        );
        // Weights are observable and zero weights are clamped.
        assert_eq!(shares[0].weight, 1);
        assert_eq!(shares[1].weight, 4);
        sched.set_tenant_weights(&[]);
        assert!(sched.tenant_shares().is_empty());
        sched.shutdown();
    }

    /// Every pinned pre-materialization pick is accounted as either a
    /// hit or a steal, never silently dropped from the counters.
    #[test]
    fn affinity_picks_are_fully_accounted() {
        let sched = Scheduler::new(SchedConfig {
            threads: 4,
            ..Default::default()
        });
        let count = Arc::new(AtomicUsize::new(0));
        for i in 0..40 {
            let c = Arc::clone(&count);
            sched.submit(pinned(i % 3, move || {
                c.fetch_add(1, Ordering::SeqCst);
            }));
        }
        sched.wait_idle();
        assert_eq!(count.load(Ordering::SeqCst), 40);
        let stats = sched.stats();
        assert_eq!(stats.affinity_hits + stats.affinity_steals, 40);
        sched.shutdown();
    }

    /// The demand ranking `pick_index` used while it still had a slack
    /// window, at slack 0: a first pass finds the most urgent queued
    /// demand deadline, a second ranks every demand entry by whether it
    /// is at home *and* at that deadline, then deadline, affinity and
    /// submission order. Kept only as the oracle of
    /// `single_pass_demand_pick_matches_two_pass_reference`.
    fn two_pass_demand_pick(
        entries: &[Entry],
        sticky: bool,
        w: WorkerCtx,
        tenants: Option<&TenantTable>,
    ) -> Option<usize> {
        let urgent = entries
            .iter()
            .filter(|e| e.job.kind == JobKind::Demand)
            .map(|e| e.job.deadline)
            .min()?;
        entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.job.kind == JobKind::Demand)
            .min_by_key(|(_, e)| {
                let at_home_in_window = sticky && e.job.deadline <= urgent && w.prefers(e);
                (
                    tenants.map_or(0, |t| t.vtime_of(e.job.tenant)),
                    u8::from(!at_home_in_window),
                    e.job.deadline,
                    u8::from(sticky && !w.prefers(e)),
                    e.seq,
                )
            })
            .map(|(i, _)| i)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Drains a random queue the way a worker does (pick, then
        /// `swap_remove`) and checks every pick against the two-pass
        /// reference: same index, same mode, so the pick sequence is
        /// the old one. Deadlines, virtual times and affinity keys come
        /// from small ranges so ties at every level of the key are common.
        #[test]
        fn single_pass_demand_pick_matches_two_pass_reference(
            jobs in prop::collection::vec(
                (0u8..3, 0u64..5, 0u64..4, any::<bool>(), 0u64..6, any::<bool>(), 0u32..4, any::<u32>()),
                0..24,
            ),
            (fifo, pressured) in (any::<bool>(), any::<bool>()),
            vtimes in prop::collection::vec(0u64..3, 0..4),
            threads in 1usize..5,
            reserved in 0usize..3,
            worker in any::<prop::sample::Index>(),
            busy in prop::collection::vec(any::<bool>(), 4),
        ) {
            // Distinct sequence numbers in an order unrelated to queue
            // order, as it is after a few `swap_remove`s.
            let mut queue: Vec<Entry> = jobs
                .iter()
                .enumerate()
                .map(|(i, &(kind, deadline, work, pin, key, tenanted, tenant, salt))| Entry {
                    seq: (u64::from(salt) << 8) | i as u64,
                    job: Job {
                        kind: [JobKind::Demand, JobKind::Prefetch, JobKind::PreMaterialize]
                            [kind as usize],
                        deadline,
                        remaining_work: work,
                        affinity: pin.then_some(key),
                        tenant: tenanted.then_some(tenant),
                        run: Box::new(|| {}),
                    },
                    submitted: Instant::now(),
                })
                .collect();
            let config = SchedConfig {
                threads,
                policy: if fifo { Policy::Fifo } else { Policy::Priority },
                ..Default::default()
            };
            let reserved = reserved.min(threads - 1);
            let id = worker.index(threads);
            let w = WorkerCtx { id, demand_only: id < reserved, reserved, threads };
            let busy: Vec<AtomicBool> = busy.into_iter().map(AtomicBool::new).collect();
            // An empty `vtimes` is an empty table: no tenants.
            let table = TenantTable {
                shares: vtimes
                    .iter()
                    .map(|&vtime| TenantShare { weight: 1, vtime, busy_ns: 0 })
                    .collect(),
                vclock: 0,
            };
            let pressure = if pressured { 950 } else { 0 };
            let demand_band = w.demand_only || !fifo;
            let sticky = !fifo;
            loop {
                let got = pick_index(&queue, &config, pressure, w, &busy, &table);
                let reference = two_pass_demand_pick(&queue, sticky, w, Some(&table));
                match reference.filter(|_| demand_band) {
                    Some(i) => prop_assert_eq!(got, Some((i, "demand"))),
                    // No demand pick is due: the other bands are the
                    // parent's code, and a reserved worker takes nothing.
                    None => {
                        let allowed = |mode| mode != "demand" && !w.demand_only;
                        prop_assert!(got.is_none_or(|(_, mode)| allowed(mode)));
                    }
                }
                match got {
                    Some((i, _)) => drop(queue.swap_remove(i)),
                    None => break,
                }
            }
        }
    }
}
