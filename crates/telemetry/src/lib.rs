//! # sand-telemetry — observability for the SAND engine
//!
//! A lock-cheap metrics layer shared by every crate in the workspace:
//!
//! - [`Counter`], [`Gauge`], [`Histogram`] — atomics all the way down.
//!   Handles are `Arc`-backed clones; recording never takes a lock.
//! - [`Registry`] — name → metric map. Registration takes a short lock
//!   (done once at startup per subsystem); the hot path only touches the
//!   handles it was given.
//! - [`Snapshot`] — a point-in-time copy of every registered metric with
//!   JSON-lines export ([`Snapshot::render_jsonl`]) and a human-readable
//!   table ([`Snapshot::render_table`]).
//! - [`Telemetry`] — the cheap-clone facade the engine threads through
//!   the workspace. Every handle owns a live registry, and every
//!   subsystem records into its metric bundle on every path: there is
//!   no "metrics off" branch, so what a snapshot reads is what runs.
//! - [`BatchProbe`] / [`BatchTrace`] / [`StallReport`] — per-batch
//!   critical-path timing used for stall attribution (see `report`).
//!   These are the one optional part: only a handle built with
//!   [`Telemetry::new`] keeps traces. The per-batch probe is what costs
//!   (DESIGN §9), the counters do not.
//!
//! The rule that holds either way: **tracing never changes what the
//! engine serves**, only what it reports.

mod json;
mod report;
mod snapshot;

pub use json::{parse_json, validate_jsonl, JsonValue};
pub use report::{
    record_stage, with_stage_cells, BatchMeta, BatchProbe, BatchTrace, ChunkPlans,
    PrefetchOutcomes, SampleProbe, Stage, StageCells, StallReport, STAGE_LABELS,
};
pub use snapshot::{HistogramSnapshot, MetricEntry, MetricValue, Snapshot};

use sand_sanitizer::TrackedMutex;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Primitive metrics
// ---------------------------------------------------------------------------

/// Monotonically increasing event count.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    v: Arc<AtomicU64>,
}

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.v.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// Instantaneous signed level (queue depth, resident bytes, ...).
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    v: Arc<AtomicI64>,
}

impl Gauge {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn set(&self, n: i64) {
        self.v.store(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: i64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn sub(&self, n: i64) {
        self.v.fetch_sub(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.v.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistState {
    /// One count per bucket plus a trailing overflow bucket.
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

/// Fixed-bucket histogram. `bounds` are inclusive upper bounds; a value
/// larger than every bound lands in the trailing overflow bucket. Bounds
/// are fixed at registration so observation is a binary search plus three
/// relaxed atomic adds — no locking, no allocation.
#[derive(Clone, Debug)]
pub struct Histogram {
    bounds: Arc<Vec<u64>>,
    state: Arc<HistState>,
}

impl Histogram {
    /// Bounds may come in any order and repeat: they are sorted and
    /// deduplicated here, so `observe`'s binary search always sees a
    /// strictly increasing list and no bucket is unreachable.
    pub fn new(bounds: &[u64]) -> Self {
        let bounds = sorted_unique(bounds);
        let counts = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Self {
            bounds: Arc::new(bounds),
            state: Arc::new(HistState {
                counts,
                sum: AtomicU64::new(0),
                count: AtomicU64::new(0),
            }),
        }
    }

    #[inline]
    pub fn observe(&self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.state.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.state.sum.fetch_add(value, Ordering::Relaxed);
        self.state.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a duration in microseconds (the workspace-wide convention
    /// for `*_us` histograms).
    #[inline]
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_micros() as u64);
    }

    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    pub fn count(&self) -> u64 {
        self.state.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.state.sum.load(Ordering::Relaxed)
    }

    pub fn snapshot_value(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.as_ref().clone(),
            counts: self
                .state
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            count: self.count(),
            sum: self.sum(),
        }
    }
}

/// `bounds` sorted, without repeats. Out of line and cold: it runs once
/// per registration, and the same sort inlined into `Histogram::new`
/// moved hot code in `sandbench`'s release build enough to cost
/// `fig13_multi_constrained` about 15 % of its batches/s (EXPERIMENTS.md).
#[cold]
#[inline(never)]
fn sorted_unique(bounds: &[u64]) -> Vec<u64> {
    let mut bounds = bounds.to_vec();
    bounds.sort_unstable();
    bounds.dedup();
    bounds
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// Name → metric map. Metric names follow a `family.name` convention
/// (`store.disk_hits`, `sched.queue_depth`); the family prefix is what the
/// JSON-lines export and CI validation group on.
///
/// Registration is idempotent: asking for an existing name returns a
/// handle to the same underlying atomics, so independent subsystems can
/// share a metric without coordination.
#[derive(Debug)]
pub struct Registry {
    metrics: TrackedMutex<BTreeMap<String, Metric>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self {
            metrics: TrackedMutex::new("telemetry.registry", BTreeMap::new()),
        }
    }
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.metrics.lock();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(c) => c.clone(),
            // Name collision across kinds: hand back a detached metric so
            // the caller still works; the first registration wins the name.
            _ => Counter::new(),
        }
    }

    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = self.metrics.lock();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::new()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => Gauge::new(),
        }
    }

    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        let mut m = self.metrics.lock();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::new(bounds)))
        {
            Metric::Histogram(h) => h.clone(),
            _ => Histogram::new(bounds),
        }
    }

    pub fn snapshot(&self) -> Snapshot {
        let m = self.metrics.lock();
        let entries = m
            .iter()
            .map(|(name, metric)| MetricEntry {
                name: name.clone(),
                value: match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot_value()),
                },
            })
            .collect();
        Snapshot { entries }
    }
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Upper bounds (µs) shared by every latency histogram.
const LATENCY_BUCKETS_US: [u64; 14] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000,
];

/// Telemetry configuration, carried by `EngineConfig::telemetry`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// A batch served slower than this is *stalled* and appears in the
    /// stall-attribution report. `0` means every batch is reported —
    /// useful for the example CLI and for tests.
    pub stall_budget_us: u64,
    /// Maximum number of per-batch traces retained (oldest dropped).
    pub trace_cap: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            stall_budget_us: 0,
            trace_cap: 1024,
        }
    }
}

// ---------------------------------------------------------------------------
// Facade
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct TelemetryCore {
    registry: Registry,
    /// The per-batch trace ring; `None` keeps no traces.
    traces: Option<TraceRing>,
}

#[derive(Debug)]
struct TraceRing {
    config: TelemetryConfig,
    traces: TrackedMutex<VecDeque<BatchTrace>>,
}

/// The cheap-clone handle the engine threads through the workspace.
///
/// Every handle owns a live [`Registry`]: the metric bundles register
/// into it and count on every engine. What `Telemetry::new` adds over
/// `Telemetry::disabled()` (also `Default`) is the per-batch trace ring:
/// only a traced handle hands out [`BatchProbe`]s, keeps
/// [`BatchTrace`]s and answers [`Telemetry::stall_report`].
#[derive(Clone, Debug)]
pub struct Telemetry {
    core: Arc<TelemetryCore>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::disabled()
    }
}

impl Telemetry {
    /// Metrics plus per-batch traces, kept as `config` says.
    pub fn new(config: TelemetryConfig) -> Self {
        Self::with_traces(Some(TraceRing {
            config,
            traces: TrackedMutex::new("telemetry.traces", VecDeque::new()),
        }))
    }

    /// Metrics only: keeps no per-batch traces.
    pub fn disabled() -> Self {
        Self::with_traces(None)
    }

    fn with_traces(traces: Option<TraceRing>) -> Self {
        Self {
            core: Arc::new(TelemetryCore {
                registry: Registry::new(),
                traces,
            }),
        }
    }

    /// The trace configuration; `None` when no traces are kept.
    pub fn config(&self) -> Option<&TelemetryConfig> {
        self.core.traces.as_ref().map(|t| &t.config)
    }

    pub fn registry(&self) -> &Registry {
        &self.core.registry
    }

    /// A per-batch critical-path probe over `samples` demand jobs whose
    /// batch started at `t0`; `None` when no traces are kept, so an
    /// untraced serve allocates no probe and records no stages.
    pub fn batch_probe(&self, t0: Instant, samples: usize) -> Option<Arc<BatchProbe>> {
        self.core
            .traces
            .as_ref()
            .map(|_| BatchProbe::starting_at(t0, samples))
    }

    pub fn push_trace(&self, trace: BatchTrace) {
        if let Some(ring) = &self.core.traces {
            let mut traces = ring.traces.lock();
            if traces.len() >= ring.config.trace_cap.max(1) {
                traces.pop_front();
            }
            traces.push_back(trace);
        }
    }

    /// Every registered metric, now. Always `Some`: every handle owns a
    /// registry.
    pub fn snapshot(&self) -> Option<Snapshot> {
        Some(self.core.registry.snapshot())
    }

    /// The stall-attribution report over the retained traces; `None`
    /// when no traces are kept.
    pub fn stall_report(&self) -> Option<StallReport> {
        let ring = self.core.traces.as_ref()?;
        let snap = self.core.registry.snapshot();
        Some(StallReport {
            budget_us: ring.config.stall_budget_us,
            traces: ring.traces.lock().iter().cloned().collect(),
            chunks: ChunkPlans::from_snapshot(&snap),
            prefetch: PrefetchOutcomes::from_snapshot(&snap),
        })
    }
}

// ---------------------------------------------------------------------------
// Per-subsystem metric bundles
// ---------------------------------------------------------------------------
//
// Each subsystem registers its handles once at startup via
// `XxxMetrics::register(&telemetry)` and records into them on every
// path. Centralising the names here keeps the metric namespace coherent
// across crates.

/// Decode-side metrics (`decode.*`), recorded inside `sand-codec`.
#[derive(Clone, Debug)]
pub struct CodecMetrics {
    /// Wall time decoding one GOP segment (a keyframe-aligned run of
    /// requested indices).
    pub segment_us: Histogram,
    /// GOP segments decoded.
    pub segments: Counter,
}

impl CodecMetrics {
    pub fn register(t: &Telemetry) -> Self {
        let r = t.registry();
        Self {
            segment_us: r.histogram("decode.segment_us", &LATENCY_BUCKETS_US),
            segments: r.counter("decode.segments"),
        }
    }
}

/// Object-store metrics (`store.*`), recorded inside `sand-storage`.
#[derive(Clone, Debug)]
pub struct StoreMetrics {
    pub mem_hits: Counter,
    pub disk_hits: Counter,
    pub misses: Counter,
    pub spills: Counter,
    pub evictions: Counter,
    pub puts: Counter,
    /// Disk-tier read latency (the `get` path).
    pub disk_read_us: Histogram,
    /// Per-shard lock-wait latency (`store.shard<i>.lock_wait_us`), one
    /// histogram per shard, recording only *contended* acquisitions —
    /// the uncontended fast path never reads the clock.
    pub shard_lock_wait_us: Vec<Histogram>,
    /// Value-log append latency (the write-through `put` path).
    pub vlog_append_us: Histogram,
    /// Replay latency of the crash recovery, recorded once when the
    /// store opens.
    pub vlog_replay_us: Histogram,
    /// Dead-byte percentage of the value log (0–100), updated after
    /// every accounting change that can move it materially.
    pub vlog_garbage_pct: Gauge,
    /// Total on-disk record bytes in the value log (live + dead).
    pub vlog_log_bytes: Gauge,
    /// Log compactions run.
    pub vlog_compactions: Counter,
    /// Fsyncs issued by the value log (0 under `SyncPolicy::Never`).
    pub vlog_fsyncs: Counter,
    /// Torn tails truncated during recovery.
    pub vlog_torn_truncations: Counter,
    /// Records rejected for checksum mismatch (recovery + runtime reads).
    pub vlog_corrupt_records: Counter,
    /// Objects adopted from the log by the recovery replay.
    pub vlog_replayed_objects: Counter,
    /// Bytes the recovery replay read from the log's segments.
    pub vlog_replayed_bytes: Counter,
    /// Bytes resident in the memory tier, published on every accounting
    /// change so budget headroom is derivable from any snapshot.
    pub mem_bytes: Gauge,
    /// The configured memory-tier budget, published once at open:
    /// `1 - mem_bytes/mem_budget` is the tier's headroom.
    pub mem_budget: Gauge,
}

impl StoreMetrics {
    /// `shards` is the store's shard count; one lock-wait histogram is
    /// registered per shard.
    pub fn register(t: &Telemetry, shards: usize) -> Self {
        let r = t.registry();
        Self {
            mem_hits: r.counter("store.mem_hits"),
            disk_hits: r.counter("store.disk_hits"),
            misses: r.counter("store.misses"),
            spills: r.counter("store.spills"),
            evictions: r.counter("store.evictions"),
            puts: r.counter("store.puts"),
            disk_read_us: r.histogram("store.disk_read_us", &LATENCY_BUCKETS_US),
            shard_lock_wait_us: (0..shards.max(1))
                .map(|i| r.histogram(&format!("store.shard{i}.lock_wait_us"), &LATENCY_BUCKETS_US))
                .collect(),
            vlog_append_us: r.histogram("store.vlog.append_us", &LATENCY_BUCKETS_US),
            vlog_replay_us: r.histogram("store.vlog.replay_us", &LATENCY_BUCKETS_US),
            vlog_garbage_pct: r.gauge("store.vlog.garbage_pct"),
            vlog_log_bytes: r.gauge("store.vlog.log_bytes"),
            vlog_compactions: r.counter("store.vlog.compactions"),
            vlog_fsyncs: r.counter("store.vlog.fsyncs"),
            vlog_torn_truncations: r.counter("store.vlog.torn_truncations"),
            vlog_corrupt_records: r.counter("store.vlog.corrupt_records"),
            vlog_replayed_objects: r.counter("store.vlog.replayed_objects"),
            vlog_replayed_bytes: r.counter("store.vlog.replayed_bytes"),
            mem_bytes: r.gauge("store.mem_bytes"),
            mem_budget: r.gauge("store.mem_budget"),
        }
    }
}

/// Scheduler metrics (`sched.*`), recorded inside `sand-sched`.
#[derive(Clone, Debug)]
pub struct SchedMetrics {
    /// Jobs currently queued (all kinds).
    pub queue_depth: Gauge,
    /// Queue wait of demand jobs, submission → pick.
    pub demand_wait_us: Histogram,
    /// Queue wait of pre-materialization jobs, submission → pick.
    pub pre_wait_us: Histogram,
    /// Queue wait of epoch-ahead prefetch jobs, submission → pick.
    pub prefetch_wait_us: Histogram,
    /// Pre-materialization jobs run on their preferred worker.
    pub affinity_hits: Counter,
    /// Pre-materialization jobs stolen from a busy preferred worker.
    pub affinity_steals: Counter,
    /// Pinned demand jobs run on their preferred worker.
    pub demand_affinity_hits: Counter,
    /// Pinned demand jobs run elsewhere.
    pub demand_affinity_misses: Counter,
}

impl SchedMetrics {
    pub fn register(t: &Telemetry) -> Self {
        let r = t.registry();
        Self {
            queue_depth: r.gauge("sched.queue_depth"),
            demand_wait_us: r.histogram("sched.demand_wait_us", &LATENCY_BUCKETS_US),
            pre_wait_us: r.histogram("sched.pre_wait_us", &LATENCY_BUCKETS_US),
            prefetch_wait_us: r.histogram("sched.prefetch_wait_us", &LATENCY_BUCKETS_US),
            affinity_hits: r.counter("sched.affinity_hits"),
            affinity_steals: r.counter("sched.affinity_steals"),
            demand_affinity_hits: r.counter("sched.demand_affinity_hits"),
            demand_affinity_misses: r.counter("sched.demand_affinity_misses"),
        }
    }
}

/// VFS metrics (`vfs.*`), recorded inside `sand-vfs`.
#[derive(Clone, Debug)]
pub struct VfsMetrics {
    /// Provider fetch latency per `open`.
    pub fetch_us: Histogram,
    pub fetches: Counter,
}

impl VfsMetrics {
    pub fn register(t: &Telemetry) -> Self {
        let r = t.registry();
        Self {
            fetch_us: r.histogram("vfs.fetch_us", &LATENCY_BUCKETS_US),
            fetches: r.counter("vfs.fetches"),
        }
    }
}

/// Materialize-pass metrics (`aug.*`), recorded by the engine.
#[derive(Clone, Debug)]
pub struct MaterializeMetrics {
    /// Wall time applying one augmentation op to one frame.
    pub op_us: Histogram,
    pub ops: Counter,
}

impl MaterializeMetrics {
    pub fn register(t: &Telemetry) -> Self {
        let r = t.registry();
        Self {
            op_us: r.histogram("aug.op_us", &LATENCY_BUCKETS_US),
            ops: r.counter("aug.ops"),
        }
    }
}

/// Engine-level metrics (`engine.*`).
#[derive(Clone, Debug)]
pub struct EngineMetrics {
    /// End-to-end latency serving one batch.
    pub serve_us: Histogram,
    pub batches_served: Counter,
    /// Batches served slower than `stall_budget_us`; counted only on an
    /// engine that keeps traces (the budget is a trace setting).
    pub batches_stalled: Counter,
    /// Decode latency: one `decode_indices` call over one video, a bulk
    /// pre-decode group or a single demand frame.
    pub decode_us: Histogram,
    /// `ViewProvider::fetch` calls served straight from the compressed
    /// cache (memory tier) without touching the decoder.
    pub compressed_hits_mem: Counter,
    /// Same, but re-read from the store's spilled disk tier.
    pub compressed_hits_disk: Counter,
    /// Local store objects the engine's lookup dropped because they did
    /// not decode to a frame (a torn write); the object is recomputed.
    pub corrupt_dropped_local: Counter,
    /// Ring-owner replies the lookup ignored for the same reason.
    pub corrupt_dropped_remote: Counter,
    /// Time to plan one chunk: plan, prune, index build.
    pub chunk_plan_us: Histogram,
    /// Chunks planned (a retired chunk planned again counts again).
    pub chunks_planned: Counter,
    /// Chunk boundaries the serve path crossed and found the plan ready.
    /// `hit + late + miss` is the number of boundaries crossed, the
    /// cold start included.
    pub chunk_plan_ahead_hit: Counter,
    /// Boundaries that waited on a plan still in flight.
    pub chunk_plan_ahead_late: Counter,
    /// Boundaries that planned inline (cold start, seek, straggler).
    pub chunk_plan_ahead_miss: Counter,
}

impl EngineMetrics {
    pub fn register(t: &Telemetry) -> Self {
        let r = t.registry();
        Self {
            serve_us: r.histogram("engine.serve_us", &LATENCY_BUCKETS_US),
            batches_served: r.counter("engine.batches_served"),
            batches_stalled: r.counter("engine.batches_stalled"),
            decode_us: r.histogram("engine.decode_us", &LATENCY_BUCKETS_US),
            compressed_hits_mem: r.counter("engine.compressed_hits_mem"),
            compressed_hits_disk: r.counter("engine.compressed_hits_disk"),
            corrupt_dropped_local: r.counter("engine.corrupt_dropped.local"),
            corrupt_dropped_remote: r.counter("engine.corrupt_dropped.remote"),
            chunk_plan_us: r.histogram("engine.chunk_plan_us", &LATENCY_BUCKETS_US),
            chunks_planned: r.counter("engine.chunks_planned"),
            chunk_plan_ahead_hit: r.counter("engine.chunk_plan_ahead_hit"),
            chunk_plan_ahead_late: r.counter("engine.chunk_plan_ahead_late"),
            chunk_plan_ahead_miss: r.counter("engine.chunk_plan_ahead_miss"),
        }
    }
}

/// Remote-tier metrics (`net.*`), recorded by `sand-net`'s client,
/// server, and `RemoteTier` paths. Counters split by outcome so the
/// cluster example can assert "shared ancestors materialized once"
/// (`fetch_hits > 0`) and "degradation happened" (`fetch_errors > 0`,
/// `peers_down > 0`) straight from a snapshot. A `Fetch` or `Put`
/// carries many keys: the outcome counters count keys, `fetch_us`
/// counts requests.
#[derive(Clone, Debug)]
pub struct NetMetrics {
    /// Keys a remote-tier fetch got the owner's bytes for.
    pub fetch_hits: Counter,
    /// Keys the owner answered with no bytes (a miss).
    pub fetch_misses: Counter,
    /// Keys of remote-tier fetches that failed at the transport layer
    /// after all retries (timeout, refused connection, protocol error).
    /// Each falls back to local materialization — never a wrong answer.
    pub fetch_errors: Counter,
    /// Transport-level retry attempts (all verbs).
    pub retries: Counter,
    /// Materialized objects pushed to their ring owner.
    pub pushes: Counter,
    /// Objects whose push was abandoned after retries (best effort; the
    /// object stays local).
    pub push_errors: Counter,
    /// End-to-end latency of one remote-tier `Fetch` request, however
    /// many keys it carries (connect + RPC + copy).
    pub fetch_us: Histogram,
    /// Peers currently marked down by the failure breaker.
    pub peers_down: Gauge,
    /// Payload bytes received from peers.
    pub bytes_rx: Counter,
    /// Payload bytes sent to peers.
    pub bytes_tx: Counter,
    /// Requests a `ViewServer` on this node has served.
    pub server_requests: Counter,
    /// Requests a `ViewServer` answered with an error response.
    pub server_errors: Counter,
}

impl NetMetrics {
    pub fn register(t: &Telemetry) -> Self {
        let r = t.registry();
        Self {
            fetch_hits: r.counter("net.fetch_hits"),
            fetch_misses: r.counter("net.fetch_misses"),
            fetch_errors: r.counter("net.fetch_errors"),
            retries: r.counter("net.retries"),
            pushes: r.counter("net.pushes"),
            push_errors: r.counter("net.push_errors"),
            fetch_us: r.histogram("net.fetch_us", &LATENCY_BUCKETS_US),
            peers_down: r.gauge("net.peers_down"),
            bytes_rx: r.counter("net.bytes_rx"),
            bytes_tx: r.counter("net.bytes_tx"),
            server_requests: r.counter("net.server_requests"),
            server_errors: r.counter("net.server_errors"),
        }
    }
}

/// Epoch-ahead prefetcher metrics (`prefetch.*`), recorded by the
/// engine's batch prefetch pipeline.
#[derive(Clone, Debug)]
pub struct PrefetchMetrics {
    /// Entries served straight from a fully materialized prefetch build.
    pub hit: Counter,
    /// Entries whose build was in flight — the trainer had to wait for
    /// it before serving.
    pub late: Counter,
    /// Entries discarded without serving: chunk rollover, a stale-chunk
    /// take, or a cancellation racing the consume path.
    pub cancelled: Counter,
    /// Entries consumed but unusable (a sample failed or never ran) —
    /// the batch was served inline instead.
    pub miss: Counter,
    /// Prefetch entries registered with the window (one per speculative
    /// batch). Every entry settles exactly one outcome counter, so
    /// `scheduled == hit + late + miss + cancelled` once all entries are
    /// consumed. Serves that never had an entry (cold start, window gap)
    /// count nowhere here.
    pub scheduled: Counter,
    /// Samples of a late entry that the serve built on its own thread,
    /// because no worker had started them when the trainer asked. The
    /// build is settled as `late` all the same, so the outcome identity
    /// above is unchanged. The workers' jobs for those samples are still
    /// picked later (the scheduler cannot cancel a job) and return at
    /// once, so `sched.prefetch_jobs_per_batch` counts them too.
    pub serve_built: Counter,
    /// Serve-thread time on an in-flight prefetched batch: building the
    /// samples no worker had started, then waiting for the rest. It is
    /// all the trace's `prefetch` segment, so the segments still sum
    /// exactly to the serve latency.
    pub wait_us: Histogram,
}

impl PrefetchMetrics {
    pub fn register(t: &Telemetry) -> Self {
        let r = t.registry();
        Self {
            hit: r.counter("prefetch.hit"),
            late: r.counter("prefetch.late"),
            cancelled: r.counter("prefetch.cancelled"),
            miss: r.counter("prefetch.miss"),
            scheduled: r.counter("prefetch.scheduled"),
            serve_built: r.counter("prefetch.serve_built"),
            wait_us: r.histogram("prefetch.wait_us", &LATENCY_BUCKETS_US),
        }
    }
}

/// Per-loader training metrics (`loader.<name>.*`), recorded by the
/// trainer for SAND and every baseline loader alike, so stall
/// attribution across loaders reads from one registry.
#[derive(Clone, Debug)]
pub struct LoaderMetrics {
    /// Trainer-observed stall per iteration (time blocked in
    /// `next_batch`).
    pub stall_us: Histogram,
    /// Batches delivered.
    pub batches: Counter,
    /// Cumulative loader CPU work at the end of the run, in
    /// microseconds.
    pub cpu_work_us: Counter,
}

impl LoaderMetrics {
    /// `loader` is the loader's `name()` (`sand`, `cpu`, `gpu`, ...);
    /// it becomes part of the metric names.
    pub fn register(t: &Telemetry, loader: &str) -> Self {
        let r = t.registry();
        Self {
            stall_us: r.histogram(&format!("loader.{loader}.stall_us"), &LATENCY_BUCKETS_US),
            batches: r.counter(&format!("loader.{loader}.batches")),
            cpu_work_us: r.counter(&format!("loader.{loader}.cpu_work_us")),
        }
    }
}

/// Per-tenant attribution metrics (`tenant.<id>.*`), registered by the
/// engine for every admitted fleet tenant so each tenant's service is
/// visible in any snapshot alongside the fleet-wide counters.
#[derive(Clone, Debug)]
pub struct TenantMetrics {
    /// Batches served to this tenant.
    pub batches_served: Counter,
    /// Per-batch serve latency for this tenant's batches.
    pub serve_us: Histogram,
    /// This tenant's batches that exceeded the stall budget; counted
    /// only on an engine that keeps traces.
    pub stalled: Counter,
}

impl TenantMetrics {
    /// `tenant` is the fleet-assigned tenant id; it becomes part of the
    /// metric names.
    pub fn register(t: &Telemetry, tenant: &str) -> Self {
        let r = t.registry();
        Self {
            batches_served: r.counter(&format!("tenant.{tenant}.batches_served")),
            serve_us: r.histogram(&format!("tenant.{tenant}.serve_us"), &LATENCY_BUCKETS_US),
            stalled: r.counter(&format!("tenant.{tenant}.stalled")),
        }
    }
}

/// Fleet-wide cross-job dedup metrics (`fleet.*`), recorded by the
/// engine's singleflight claim map: how many materializations were won
/// (computed once) versus adopted zero-copy by a racing tenant.
#[derive(Clone, Debug)]
pub struct FleetMetrics {
    /// Materializations computed by a singleflight winner.
    pub dedup_wins: Counter,
    /// Materializations adopted from a concurrent winner's `Arc` —
    /// work another tenant would otherwise have duplicated.
    pub dedup_adoptions: Counter,
    /// Time waiters spent blocked on a winner's in-flight computation.
    pub dedup_wait_us: Histogram,
    /// Tenants admitted by the fleet's admission control.
    pub admitted: Gauge,
    /// Tenants rejected because their working set would blow the budget.
    pub rejected: Counter,
}

impl FleetMetrics {
    pub fn register(t: &Telemetry) -> Self {
        let r = t.registry();
        Self {
            dedup_wins: r.counter("fleet.dedup_wins"),
            dedup_adoptions: r.counter("fleet.dedup_adoptions"),
            dedup_wait_us: r.histogram("fleet.dedup_wait_us", &LATENCY_BUCKETS_US),
            admitted: r.gauge("fleet.admitted"),
            rejected: r.counter("fleet.rejected"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("t.count");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = r.gauge("t.depth");
        g.add(7);
        g.sub(2);
        assert_eq!(g.get(), 5);
        g.set(-3);
        assert_eq!(g.get(), -3);
    }

    #[test]
    fn registry_is_idempotent() {
        let r = Registry::new();
        let a = r.counter("t.c");
        let b = r.counter("t.c");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        let snap = r.snapshot();
        assert_eq!(snap.counter("t.c"), Some(2));
    }

    #[test]
    fn histogram_buckets_values() {
        let h = Histogram::new(&[10, 100, 1000]);
        for v in [5, 10, 11, 100, 5000] {
            h.observe(v);
        }
        let s = h.snapshot_value();
        // counts: <=10 -> {5,10}, <=100 -> {11,100}, <=1000 -> {}, overflow -> {5000}
        assert_eq!(s.counts, vec![2, 2, 0, 1]);
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 5 + 10 + 11 + 100 + 5000);
    }

    #[test]
    fn histogram_bounds_are_sorted_and_deduplicated() {
        let h = Histogram::new(&[100, 50]);
        h.observe(60);
        let s = h.snapshot_value();
        assert_eq!(s.bounds, vec![50, 100]);
        // 60 lands under bound 100, not in the overflow bucket.
        assert_eq!(s.counts, vec![0, 1, 0]);
        // A repeated bound leaves no bucket that no value can reach.
        let h = Histogram::new(&[10, 10, 20]);
        for v in [5, 15, 25] {
            h.observe(v);
        }
        let s = h.snapshot_value();
        assert_eq!(s.bounds, vec![10, 20]);
        assert_eq!(s.counts, vec![1, 1, 1]);
    }

    #[test]
    fn disabled_telemetry_counts_but_keeps_no_traces() {
        let t = Telemetry::disabled();
        assert!(t.config().is_none());
        assert!(t.batch_probe(Instant::now(), 4).is_none());
        assert!(t.stall_report().is_none());
        CodecMetrics::register(&t).segments.inc();
        LoaderMetrics::register(&t, "cpu").batches.add(2);
        let snap = t.snapshot().expect("every handle has a registry");
        assert_eq!(snap.counter("decode.segments"), Some(1));
        assert_eq!(snap.counter("loader.cpu.batches"), Some(2));
    }

    #[test]
    fn store_metrics_register_one_lock_wait_histogram_per_shard() {
        let t = Telemetry::new(TelemetryConfig::default());
        let m = StoreMetrics::register(&t, 3);
        assert_eq!(m.shard_lock_wait_us.len(), 3);
        m.shard_lock_wait_us[2].observe(17);
        let snap = t.snapshot().expect("a registry");
        assert_eq!(
            snap.histogram("store.shard2.lock_wait_us").map(|h| h.count),
            Some(1)
        );
        assert_eq!(
            snap.histogram("store.shard0.lock_wait_us").map(|h| h.count),
            Some(0)
        );
    }

    #[test]
    fn trace_ring_respects_cap() {
        let t = Telemetry::new(TelemetryConfig {
            trace_cap: 2,
            ..TelemetryConfig::default()
        });
        for i in 0..5 {
            let probe = t.batch_probe(Instant::now(), 1).expect("traced");
            let trace = probe.finish(
                BatchMeta {
                    task: "t".into(),
                    tenant: None,
                    epoch: 0,
                    iteration: i,
                    clock: i,
                },
                0,
            );
            t.push_trace(trace);
        }
        let report = t.stall_report().expect("traced");
        assert_eq!(report.traces.len(), 2);
        assert_eq!(report.traces[0].iteration, 3);
        assert_eq!(report.traces[1].iteration, 4);
    }
}
