//! The SAND engine.

use crate::chunk::{Chunk, Chunks};
use crate::flight::Flight;
use crate::keys::store_key;
use crate::prefetch::Prefetcher;
use crate::{CoreError, Result};
use sand_autotune::{AutotuneConfig, Controller, Decision, KnobValues};
use sand_codec::{Dataset, DecodeStats, Decoder, WarmDecoder};
use sand_config::TaskConfig;
use sand_frame::tensor::{clip_refs_to_tensor, stack};
use sand_frame::{compress_frame, decompress_frame, Frame};
use sand_graph::{AbstractGraph, BatchRef, NodeId, ObjectKey, PlanInput, Planner, PlannerOptions};
use sand_lint::{lint_all, AutotuneClamp, FleetLint, LintLevel, LintOptions, RemoteLint};
use sand_net::{RemoteTier, RemoteTierConfig};
use sand_sanitizer::{ShadowCell, TrackedCondvar, TrackedMutex};
use sand_sched::{Job, JobKind, SchedConfig, Scheduler};
use sand_storage::{ObjectMeta, ObjectStore, StoreConfig, Tier};
use sand_telemetry::{
    record_stage, AutotuneMetrics, BatchMeta, BatchProbe, CodecMetrics, EngineMetrics,
    FleetMetrics, MaterializeMetrics, PrefetchMetrics, SchedMetrics, Snapshot, Stage, StallReport,
    StoreMetrics, Telemetry, TelemetryConfig, TenantMetrics, VfsMetrics,
};
use sand_vfs::{SandVfs, VfsError, ViewPath, ViewProvider};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// All tasks sharing this engine (and dataset).
    pub tasks: Vec<TaskConfig>,
    /// Object store tiers and budgets.
    pub store: StoreConfig,
    /// Disk-tier directory (`None` = memory-only store).
    pub store_dir: Option<PathBuf>,
    /// Worker pool configuration.
    pub sched: SchedConfig,
    /// Global seed for planning and coordinated draws.
    pub seed: u64,
    /// Coordinated randomization (SAND) vs. independent (ablation).
    pub coordinate: bool,
    /// Epochs per concrete-graph chunk (the paper's `k`).
    pub epochs_per_chunk: u64,
    /// Total training epochs.
    pub total_epochs: u64,
    /// Cache budget for Algorithm 1 pruning, in bytes.
    pub cache_budget: u64,
    /// Whether to run the pruning pass (off = naive leaf caching).
    pub prune: bool,
    /// Naive baseline: cache only the final (leaf) training objects,
    /// ignoring intermediates — the comparison point of Fig. 17.
    pub naive_leaf_cache: bool,
    /// Client of a running custom-augmentation service; required when any
    /// pipeline uses `custom:` ops.
    pub aug_service: Option<crate::service::AugClient>,
    /// Whether to pre-materialize ahead of demand.
    pub prematerialize: bool,
    /// Epoch-ahead batch prefetch depth: serving batch `n` speculatively
    /// materializes batches `n+1..=n+depth` (consumption order, within
    /// the current chunk) on the worker pool at a priority below demand,
    /// so the trainer's next read is a cache hit instead of an inline
    /// materialization. `0` (default) disables prefetching entirely —
    /// provably behaviour-identical: served bytes never depend on the
    /// depth (`prop_prefetch_parity`).
    pub prefetch_depth: usize,
    /// Threads used to decode independent keyframe segments of one video
    /// concurrently during pre-materialization (closed GOPs make the
    /// segments independent). `1` keeps decodes sequential.
    pub decode_threads: usize,
    /// Sub-jobs one video's materialize bucket fans out into: chains over
    /// different source frames run as independent scheduler jobs sharing
    /// a per-video scratch. `1` keeps each bucket a single job. Task
    /// configs may raise this via `execution.aug_threads`.
    pub aug_threads: usize,
    /// Bound on live warm demand-decode sessions; each holds at most one
    /// reconstructed frame. Least-recently-used sessions are evicted at
    /// the cap.
    pub warm_session_cap: usize,
    /// Static-analysis level for the startup lint pass: `Off` skips it,
    /// `Warn` reports findings to stderr, `Deny` additionally fails
    /// startup on any deny-severity finding.
    pub lint: LintLevel,
    /// Observability: `Some` enables the telemetry subsystem (metric
    /// registry, per-batch stall attribution, JSONL export); `None`
    /// (default) disables it entirely — instrumented paths never read
    /// the clock, pinned by `benches/telemetry_overhead.rs`.
    pub telemetry: Option<TelemetryConfig>,
    /// Closed-loop adaptive control: `Some` runs a controller that
    /// periodically reads the telemetry snapshot and retunes the runtime
    /// knobs (prefetch depth, demand slack, aug/decode thread split)
    /// online, with hysteresis and hard clamps. `None` (default) keeps
    /// every knob static and adds zero overhead to the serve path,
    /// pinned by `benches/autotune_overhead.rs`. Requires telemetry
    /// (lint SL034 denies the combination `autotune` without it).
    pub autotune: Option<AutotuneConfig>,
    /// Multi-node operation: `Some` joins a cluster of SAND engines on a
    /// consistent-hash placement ring and adds a **remote tier** below
    /// mem/disk — a local store miss consults the key's ring owner before
    /// materializing, and locally-computed remote-owned objects are
    /// pushed to their owner, so a shared-ancestor object materializes at
    /// most once cluster-wide. Degraded peers (timeouts, refused
    /// connections) fall back to local materialization — never a wrong
    /// answer. `None` (default) is single-process with zero overhead.
    pub remote: Option<RemoteTierConfig>,
    /// Multi-tenant operation: `Some` names the tenants sharing this
    /// engine, maps each task to its tenant, and installs the tenants'
    /// QoS weights on the scheduler's virtual-time ledger. Batches and
    /// demand jobs are attributed to their tenant (`tenant.<id>.*`
    /// metrics, per-tenant stall sections). `None` (default) is
    /// single-tenant; jobs run untenanted at zero virtual time —
    /// exactly the pre-fleet bounded-EDF order. Usually installed by
    /// [`crate::fleet::Fleet`], not by hand.
    pub tenancy: Option<crate::fleet::Tenancy>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            tasks: Vec::new(),
            store: StoreConfig::default(),
            store_dir: None,
            sched: SchedConfig::default(),
            seed: 0x5a4d,
            coordinate: true,
            epochs_per_chunk: 2,
            total_epochs: 4,
            cache_budget: 256 << 20,
            prune: true,
            naive_leaf_cache: false,
            aug_service: None,
            prematerialize: true,
            prefetch_depth: 0,
            decode_threads: 1,
            aug_threads: 1,
            warm_session_cap: WARM_SESSION_CAP,
            lint: LintLevel::default(),
            telemetry: None,
            autotune: None,
            remote: None,
            tenancy: None,
        }
    }
}

/// Aggregate engine statistics.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Codec work performed by this engine.
    pub decode: DecodeStats,
    /// Augmentation ops actually executed.
    pub aug_ops_applied: u64,
    /// Batches served through the view interface.
    pub batches_served: u64,
    /// Store counters.
    pub store: sand_storage::StoreStats,
    /// Scheduler counters.
    pub sched: sand_sched::SchedStats,
}

/// Shared engine state (jobs hold an `Arc` to this).
pub(crate) struct Inner {
    pub(crate) config: EngineConfig,
    pub(crate) dataset: Arc<Dataset>,
    pub(crate) store: Arc<ObjectStore>,
    pub(crate) sched: Scheduler,
    /// Planned chunks: once-slots by chunk id, retained by last use.
    pub(crate) chunks: Chunks,
    task_ids: HashMap<String, u32>,
    decode_stats: TrackedMutex<DecodeStats>,
    /// Warm per-video decode sessions for the demand paths: a single-frame
    /// read landing forward in the GOP a session last walked resumes the
    /// live anchor chain instead of re-decoding from the keyframe. The
    /// outer lock only guards the map, so decodes on different videos
    /// proceed concurrently.
    warm_decoders: TrackedMutex<WarmPool>,
    aug_ops_applied: AtomicU64,
    batches_served: AtomicU64,
    /// The epoch-ahead prefetcher (inert at `prefetch_depth = 0`).
    prefetcher: Prefetcher,
    /// Serialized size of the most recently served batch, the
    /// back-pressure estimate for in-flight prefetch bytes.
    last_batch_bytes: AtomicU64,
    telemetry: Telemetry,
    pub(crate) engine_metrics: Option<EngineMetrics>,
    pub(crate) mat_metrics: Option<MaterializeMetrics>,
    codec_metrics: Option<CodecMetrics>,
    /// Live materialize fan-out: the runtime value of the `aug_threads`
    /// knob. Seeded from the config; retuned by the controller or
    /// [`SandEngine::set_aug_threads`]. Folded with per-task
    /// `execution.aug_threads` hints at submit time.
    aug_threads_live: AtomicUsize,
    /// Live intra-video decode fan-out, read per pre-decode pass.
    decode_threads_live: AtomicUsize,
    /// The cluster cache tier (`None` unless `EngineConfig::remote`).
    remote: Option<Arc<RemoteTier>>,
    /// Engine-wide cross-job singleflight over canonical object keys
    /// ([`store_key`]): concurrent materializations of the same object —
    /// across passes, tenants, and serve paths — collapse to one
    /// computation, with the losers adopting the winner's `Arc`
    /// zero-copy. A `None` outcome means the winner failed; waiters then
    /// compute the node themselves (at-most-once only has to hold for
    /// successes).
    flight: Flight<String, Option<Arc<Frame>>>,
    /// Tenant attribution tables (`None` unless `EngineConfig::tenancy`).
    tenancy: Option<TenancyRuntime>,
    /// Fleet dedup/admission metrics (`None` unless tenancy + telemetry).
    fleet_metrics: Option<FleetMetrics>,
    /// The adaptive controller (`None` unless `EngineConfig::autotune`).
    autotune: Option<TrackedMutex<Controller>>,
    autotune_metrics: Option<AutotuneMetrics>,
    /// Shutdown flag for the background control thread.
    autotune_stop: Arc<AtomicBool>,
    /// Background control thread handle, joined on engine drop.
    autotune_thread: TrackedMutex<Option<std::thread::JoinHandle<()>>>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        // Stop and join the control thread. It only ever holds a `Weak`
        // to this `Inner` (a live upgrade would keep us from dropping),
        // so the join is bounded by one sleep step plus one tick.
        self.autotune_stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.autotune_thread.lock().take() {
            let _ = handle.join();
        }
    }
}

/// Default bound on live warm decode sessions; each holds at most one
/// reconstructed frame (`WarmDecoder::resident_bytes`).
const WARM_SESSION_CAP: usize = 64;

/// Warm demand-decode sessions, evicted least-recently-used at the cap so
/// a hot video's anchor chain survives a scan over many cold videos.
#[derive(Default)]
struct WarmPool {
    sessions: HashMap<u64, WarmSlot>,
    /// Monotonic use counter; cheaper than timestamps and immune to clock
    /// adjustments.
    tick: u64,
}

struct WarmSlot {
    session: Arc<TrackedMutex<WarmDecoder>>,
    last_used: u64,
}

/// Per-engine tenant attribution: which tenant each task belongs to and
/// each tenant's name + metric handles.
struct TenancyRuntime {
    /// `task_id` → tenant index (`None` = untenanted task).
    task_tenant: Vec<Option<u32>>,
    tenants: Vec<TenantRuntime>,
}

struct TenantRuntime {
    name: String,
    metrics: Option<TenantMetrics>,
}

/// A shared scratch of raw materialized frames for one materialize pass.
///
/// Every sub-job of a video shares one `Scratch`, so chains that meet at
/// a common ancestor (most often the decoded source frame) merge work: a
/// node is computed by exactly one job per pass, and everyone else either
/// reuses the result or blocks briefly while it is in flight.
///
/// Waiting is deadlock-free by construction: a claim is only ever held by
/// a *running* job, and a job only waits for slots strictly up the object
/// tree (toward smaller node ids) from claims it holds, so the wait graph
/// is acyclic and bottoms out at source-frame decodes, which never wait.
pub(crate) struct Scratch {
    slots: TrackedMutex<HashMap<NodeId, Slot>>,
    ready: TrackedCondvar,
    metrics: Option<MaterializeMetrics>,
    /// Lockset shadow for the once-claim map: every claim-state
    /// transition must hold the slots lock.
    claim_shadow: ShadowCell,
}

enum Slot {
    /// A running job claimed the node and is computing it.
    InFlight,
    /// Computed this pass.
    Ready(Arc<Frame>),
}

impl Scratch {
    pub(crate) fn new(metrics: Option<MaterializeMetrics>) -> Self {
        Scratch {
            slots: TrackedMutex::new("engine.scratch.slots", HashMap::new()),
            ready: TrackedCondvar::new(),
            metrics,
            claim_shadow: ShadowCell::new("engine.scratch.claim"),
        }
    }

    /// Returns the frame if ready; otherwise claims the slot and returns
    /// `None` — the caller now *must* call [`Scratch::fulfill`] or
    /// [`Scratch::abandon`] for this id. Blocks while another job holds
    /// the claim.
    fn get_or_claim(&self, id: NodeId) -> Option<Arc<Frame>> {
        let mut slots = self.slots.lock();
        let mut wait_t0: Option<Instant> = None;
        loop {
            match slots.get(&id) {
                Some(Slot::Ready(f)) => {
                    let f = Arc::clone(f);
                    drop(slots);
                    self.record_wait(wait_t0);
                    return Some(f);
                }
                Some(Slot::InFlight) => {
                    if wait_t0.is_none() {
                        wait_t0 = self.metrics.as_ref().map(|_| Instant::now());
                    }
                    self.ready.wait(&mut slots);
                }
                None => {
                    self.claim_shadow.write();
                    slots.insert(id, Slot::InFlight);
                    drop(slots);
                    self.record_wait(wait_t0);
                    return None;
                }
            }
        }
    }

    /// Accounts one blocked once-claim wait, if a wait actually happened.
    fn record_wait(&self, wait_t0: Option<Instant>) {
        if let (Some(m), Some(t0)) = (self.metrics.as_ref(), wait_t0) {
            m.scratch_wait_us.observe_duration(t0.elapsed());
            m.scratch_waits.inc();
        }
    }

    /// Claims `id` if it has no slot yet (non-blocking; the predecode
    /// pass uses this to take ownership of frame decodes without ever
    /// waiting on another job).
    fn try_claim(&self, id: NodeId) -> bool {
        let mut slots = self.slots.lock();
        if slots.contains_key(&id) {
            return false;
        }
        self.claim_shadow.write();
        slots.insert(id, Slot::InFlight);
        true
    }

    /// True when the node is ready or some job is computing it.
    fn covered(&self, id: NodeId) -> bool {
        self.slots.lock().contains_key(&id)
    }

    fn fulfill(&self, id: NodeId, f: Arc<Frame>) {
        let mut slots = self.slots.lock();
        self.claim_shadow.write();
        slots.insert(id, Slot::Ready(f));
        drop(slots);
        self.ready.notify_all();
    }

    /// Releases an unfulfilled claim (compute failed); ready slots are
    /// left intact so error cleanup can sweep candidates blindly.
    fn abandon(&self, id: NodeId) {
        let mut slots = self.slots.lock();
        if matches!(slots.get(&id), Some(Slot::InFlight)) {
            self.claim_shadow.write();
            slots.remove(&id);
        }
        drop(slots);
        self.ready.notify_all();
    }
}

/// Projects the dataset's per-video headers into the planner's metadata.
pub(crate) fn video_metas(dataset: &Dataset) -> Vec<sand_graph::VideoMeta> {
    dataset
        .videos()
        .iter()
        .map(|v| {
            let h = &v.encoded.header;
            sand_graph::VideoMeta {
                video_id: v.video_id,
                frames: v.encoded.frame_count(),
                width: h.width,
                height: h.height,
                channels: h.format.channels(),
                gop_size: h.gop_size,
                encoded_bytes: v.encoded.encoded_size(),
            }
        })
        .collect()
}

/// The SAND engine. Cheap to clone (shared state).
#[derive(Clone)]
pub struct SandEngine {
    inner: Arc<Inner>,
}

impl SandEngine {
    /// Creates an engine over a dataset.
    ///
    /// With a `store_dir` containing objects from a previous run, the
    /// engine adopts them (recovery): the deterministic plan re-derives
    /// the same keys, so surviving objects are never recomputed.
    pub fn new(config: EngineConfig, dataset: Arc<Dataset>) -> Result<Self> {
        if config.tasks.is_empty() {
            return Err(CoreError::State {
                what: "no tasks configured".into(),
            });
        }
        if config.epochs_per_chunk == 0 || config.total_epochs == 0 {
            return Err(CoreError::State {
                what: "epochs must be nonzero".into(),
            });
        }
        let mut task_ids = HashMap::new();
        for (i, t) in config.tasks.iter().enumerate() {
            t.validate()?;
            if task_ids.insert(t.tag.clone(), i as u32).is_some() {
                return Err(CoreError::State {
                    what: format!("duplicate task tag `{}`", t.tag),
                });
            }
        }
        let telemetry = config
            .telemetry
            .clone()
            .map_or_else(Telemetry::disabled, Telemetry::new);
        let store = Arc::new(ObjectStore::open(config.store, config.store_dir.clone())?);
        if let Some(m) = StoreMetrics::register(&telemetry, store.shard_count()) {
            store.set_metrics(m);
        }
        // Any task opting out of sticky affinity disables it globally:
        // tasks share the worker pool, so per-task stickiness is
        // meaningless.
        let mut sched_config = config.sched;
        sched_config.sticky_affinity = sched_config.sticky_affinity
            && config.tasks.iter().all(|t| t.execution.sticky_affinity);
        let sched = Scheduler::with_metrics(sched_config, SchedMetrics::register(&telemetry));
        let tenancy = config.tenancy.as_ref().map(|ten| {
            let weights: Vec<u64> = ten.tenants.iter().map(|t| t.weight).collect();
            sched.set_tenant_weights(&weights);
            TenancyRuntime {
                task_tenant: config
                    .tasks
                    .iter()
                    .map(|t| ten.task_tenant.get(&t.tag).copied())
                    .collect(),
                tenants: ten
                    .tenants
                    .iter()
                    .map(|t| TenantRuntime {
                        name: t.name.clone(),
                        metrics: TenantMetrics::register(&telemetry, &t.name),
                    })
                    .collect(),
            }
        });
        let fleet_metrics = if config.tenancy.is_some() {
            FleetMetrics::register(&telemetry)
        } else {
            None
        };
        let engine_metrics = EngineMetrics::register(&telemetry);
        let mat_metrics = MaterializeMetrics::register(&telemetry);
        let codec_metrics = CodecMetrics::register(&telemetry);
        let prefetcher =
            Prefetcher::new(config.prefetch_depth, PrefetchMetrics::register(&telemetry));
        let autotune = config.autotune.as_ref().map(|a| {
            TrackedMutex::new(
                "engine.autotune",
                Controller::new(
                    a.clone(),
                    KnobValues {
                        prefetch_depth: config.prefetch_depth as u64,
                        demand_slack: config.sched.demand_slack,
                        aug_threads: config.aug_threads.max(1) as u64,
                        decode_threads: config.decode_threads.max(1) as u64,
                    },
                ),
            )
        });
        let autotune_metrics = if config.autotune.is_some() {
            AutotuneMetrics::register(&telemetry)
        } else {
            None
        };
        let chunks = Chunks::new(config.tasks.len());
        let aug_threads_live = AtomicUsize::new(config.aug_threads.max(1));
        let decode_threads_live = AtomicUsize::new(config.decode_threads.max(1));
        let remote = config
            .remote
            .clone()
            .map(|rc| Arc::new(RemoteTier::new(rc, &telemetry)));
        let engine = SandEngine {
            inner: Arc::new(Inner {
                config,
                dataset,
                store,
                sched,
                chunks,
                task_ids,
                decode_stats: TrackedMutex::new("engine.decode_stats", DecodeStats::default()),
                warm_decoders: TrackedMutex::new("engine.warm_pool", WarmPool::default()),
                aug_ops_applied: AtomicU64::new(0),
                batches_served: AtomicU64::new(0),
                prefetcher,
                last_batch_bytes: AtomicU64::new(0),
                telemetry,
                engine_metrics,
                mat_metrics,
                codec_metrics,
                aug_threads_live,
                decode_threads_live,
                remote,
                flight: Flight::new("engine.flight.slots", "engine.flight.done"),
                tenancy,
                fleet_metrics,
                autotune,
                autotune_metrics,
                autotune_stop: Arc::new(AtomicBool::new(false)),
                autotune_thread: TrackedMutex::new("engine.autotune_thread", None),
            }),
        };
        Inner::publish_effective_knobs(&engine.inner);
        Self::spawn_autotune_loop(&engine.inner);
        Ok(engine)
    }

    /// Spawns the background control thread (only when autotune is
    /// configured with a nonzero interval). The thread holds a `Weak` to
    /// the engine state, so it never keeps a dropped engine alive; it
    /// wakes in 20 ms steps to observe shutdown promptly.
    fn spawn_autotune_loop(inner: &Arc<Inner>) {
        let Some(a) = &inner.config.autotune else {
            return;
        };
        if a.interval_ms == 0 {
            return;
        }
        let interval = Duration::from_millis(a.interval_ms);
        let stop = Arc::clone(&inner.autotune_stop);
        let weak = Arc::downgrade(inner);
        let handle = std::thread::Builder::new()
            .name("sand-autotune".into())
            .spawn(move || loop {
                let mut slept = Duration::ZERO;
                while slept < interval {
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    let step = (interval - slept).min(Duration::from_millis(20));
                    std::thread::sleep(step);
                    slept += step;
                }
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                match weak.upgrade() {
                    Some(inner) => {
                        let _ = Inner::autotune_tick(&inner);
                    }
                    None => return,
                }
            });
        if let Ok(h) = handle {
            *inner.autotune_thread.lock() = Some(h);
        }
    }

    /// Runs the startup lint pass (per `EngineConfig::lint`), then plans
    /// the first chunk and kicks off pre-materialization.
    pub fn start(&self) -> Result<()> {
        self.lint_check()?;
        Inner::ensure_chunk(&self.inner, 0)?;
        Ok(())
    }

    /// Lints the configured workload: config semantics, abstract- and
    /// concrete-graph invariants, resource feasibility, and sharing
    /// near-misses. Findings go to stderr; with [`LintLevel::Deny`], any
    /// deny-severity finding aborts startup with [`CoreError::Lint`].
    pub fn lint_check(&self) -> Result<()> {
        let config = &self.inner.config;
        if config.lint == LintLevel::Off {
            return Ok(());
        }
        let abstract_graphs: Vec<AbstractGraph> = config
            .tasks
            .iter()
            .map(AbstractGraph::from_config)
            .collect();
        let videos = video_metas(&self.inner.dataset);
        // Dry-plan the first chunk, unpruned, as the concrete-graph
        // specimen: deterministic planning makes it representative of
        // every later chunk.
        let end = config.epochs_per_chunk.min(config.total_epochs);
        let inputs: Vec<PlanInput> = config
            .tasks
            .iter()
            .enumerate()
            .map(|(i, t)| PlanInput {
                task_id: i as u32,
                config: t.clone(),
            })
            .collect();
        let concrete = Planner::new(
            inputs,
            videos.clone(),
            PlannerOptions {
                seed: config.seed,
                coordinate: config.coordinate,
                epochs: 0..end,
            },
        )
        .and_then(|p| p.plan())
        .ok();
        let iterations_per_epoch = config
            .tasks
            .iter()
            .map(|t| (videos.len() as u64).div_ceil(t.sampling.videos_per_batch as u64))
            .max();
        let threads = config.sched.threads.max(1);
        let reserved = if config.sched.policy == sand_sched::Policy::Priority {
            config.sched.reserved_demand_threads.min(threads - 1)
        } else {
            0
        };
        let opts = LintOptions {
            total_epochs: config.total_epochs,
            iterations_per_epoch,
            cache_budget: config.cache_budget,
            memory_budget: config.store.memory_budget,
            aug_threads: config.aug_threads.max(1),
            pre_workers: threads - reserved,
            telemetry: config.telemetry.clone(),
            prefetch_depth: config.prefetch_depth,
            store_shards: config.store.shards,
            decode_threads: config.decode_threads.max(1),
            sanitize: sand_sanitizer::enabled(),
            release_build: cfg!(not(debug_assertions)),
            persistent: config.store_dir.is_some(),
            disk_budget: config.store.disk_budget,
            autotune: config.autotune.as_ref().map(|a| {
                a.clamps()
                    .into_iter()
                    .map(|(knob, min, max)| AutotuneClamp {
                        knob: knob.to_string(),
                        min,
                        max,
                    })
                    .collect()
            }),
            fleet: config.tenancy.as_ref().map(|t| FleetLint {
                tenants: t.tenants.len(),
                weights: t.tenants.iter().map(|x| x.weight).collect(),
                admission_budget: t.admission_budget,
            }),
            remote: config.remote.as_ref().map(|r| RemoteLint {
                peers: r.peers.len(),
                // `PeerSpec::addr` is already a parsed `SocketAddr`, so
                // every configured peer is dialable by construction.
                resolvable_peers: r.peers.len(),
                fetch_timeout_ms: r.fetch_timeout.as_millis() as u64,
                retries: r.retries,
            }),
        };
        let report = lint_all(
            &config.tasks,
            &abstract_graphs,
            concrete.as_ref(),
            &videos,
            &opts,
        );
        if !report.is_clean() {
            eprintln!("{}", report.render_human());
        }
        let denies = report.deny_count();
        if config.lint == LintLevel::Deny && denies > 0 {
            return Err(CoreError::Lint {
                denies,
                report: report.render_human(),
            });
        }
        Ok(())
    }

    /// Mounts a VFS over this engine.
    #[must_use]
    pub fn mount(&self) -> SandVfs {
        SandVfs::with_metrics(
            Arc::new(self.clone()),
            VfsMetrics::register(&self.inner.telemetry),
        )
    }

    /// Serves a batch directly (the VFS route calls this too); returns
    /// the serialized batch tensor.
    pub fn serve_batch(&self, task: &str, epoch: u64, iteration: u64) -> Result<Vec<u8>> {
        Inner::serve_batch(&self.inner, task, epoch, iteration)
    }

    /// Blocks until all queued materialization work finished.
    pub fn wait_idle(&self) {
        self.inner.sched.wait_idle();
    }

    /// The iterations each task runs per epoch.
    #[must_use]
    pub fn iterations_per_epoch(&self, task: &str) -> Option<u64> {
        let id = *self.inner.task_ids.get(task)?;
        let vpb = self.inner.config.tasks[id as usize]
            .sampling
            .videos_per_batch;
        Some((self.inner.dataset.len() as u64).div_ceil(vpb as u64))
    }

    /// The engine's dataset.
    #[must_use]
    pub fn dataset(&self) -> &Arc<Dataset> {
        &self.inner.dataset
    }

    /// Aggregate statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            decode: *self.inner.decode_stats.lock(),
            aug_ops_applied: self.inner.aug_ops_applied.load(Ordering::Relaxed),
            batches_served: self.inner.batches_served.load(Ordering::Relaxed),
            store: self.inner.store.stats(),
            sched: self.inner.sched.stats(),
        }
    }

    /// Merge statistics of the chunk containing `epoch` (plans it if
    /// necessary).
    pub fn merge_stats(&self, epoch: u64) -> Result<sand_graph::MergeStats> {
        let chunk = Inner::ensure_chunk(&self.inner, epoch)?;
        Ok(chunk.graph.stats.clone())
    }

    /// The engine's object store (shared).
    #[must_use]
    pub fn store(&self) -> &Arc<ObjectStore> {
        &self.inner.store
    }

    /// The engine's telemetry handle (disabled unless
    /// `EngineConfig::telemetry` was set).
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.inner.telemetry
    }

    /// Point-in-time copy of every registered metric; `None` when
    /// telemetry is disabled.
    #[must_use]
    pub fn metrics_snapshot(&self) -> Option<Snapshot> {
        self.inner.telemetry.snapshot()
    }

    /// Stall-attribution report over every retained batch trace; `None`
    /// when telemetry is disabled.
    #[must_use]
    pub fn stall_report(&self) -> Option<StallReport> {
        self.inner.telemetry.stall_report()
    }

    /// The prefetch depth currently in effect (runtime value, not the
    /// config seed).
    #[must_use]
    pub fn prefetch_depth(&self) -> usize {
        self.inner.prefetcher.depth()
    }

    /// Prefetch entries currently in flight (scheduled but not yet
    /// settled into an outcome counter).
    #[must_use]
    pub fn prefetch_pending(&self) -> usize {
        self.inner.prefetcher.pending()
    }

    /// Retunes the prefetch window depth at runtime. Entries already in
    /// flight keep their exact-conservation accounting: growing or
    /// shrinking to a nonzero depth leaves them to be consumed normally;
    /// shrinking to `0` cancels them (each settles `cancelled` exactly
    /// once), and racing serves still drain any residue because the
    /// consume path stays open while entries are pending.
    pub fn set_prefetch_depth(&self, depth: usize) {
        self.inner.prefetcher.set_depth(depth);
        Inner::publish_effective_knobs(&self.inner);
    }

    /// The demand-slack window currently in effect.
    #[must_use]
    pub fn demand_slack(&self) -> u64 {
        self.inner.sched.demand_slack()
    }

    /// Retunes the scheduler's demand-slack window at runtime.
    pub fn set_demand_slack(&self, slack: u64) {
        self.inner.sched.set_demand_slack(slack);
        Inner::publish_effective_knobs(&self.inner);
    }

    /// The materialize fan-out knob currently in effect (before the
    /// per-task `execution.aug_threads` max-fold).
    #[must_use]
    pub fn aug_threads(&self) -> usize {
        self.inner.aug_threads_live.load(Ordering::Relaxed)
    }

    /// Retunes the materialize fan-out at runtime. Applies to buckets
    /// submitted from the next chunk on; the value participates in the
    /// same max-fold as per-task hints.
    pub fn set_aug_threads(&self, n: usize) {
        self.inner
            .aug_threads_live
            .store(n.max(1), Ordering::Relaxed);
        Inner::publish_effective_knobs(&self.inner);
    }

    /// The intra-video decode fan-out currently in effect.
    #[must_use]
    pub fn decode_threads(&self) -> usize {
        self.inner.decode_threads_live.load(Ordering::Relaxed)
    }

    /// Retunes the intra-video decode fan-out at runtime; read once per
    /// pre-decode pass.
    pub fn set_decode_threads(&self, n: usize) {
        self.inner
            .decode_threads_live
            .store(n.max(1), Ordering::Relaxed);
        Inner::publish_effective_knobs(&self.inner);
    }

    /// Runs one controller tick synchronously: snapshot the registry,
    /// advance the policies, apply the resulting knob values, and export
    /// decisions. Returns `None` when autotune or telemetry is disabled
    /// (the controller is inert without signals). The background loop
    /// (`autotune.interval_ms > 0`) calls exactly this; a zero interval
    /// plus explicit ticks gives deterministic, test-driven control.
    pub fn autotune_tick(&self) -> Option<Vec<Decision>> {
        Inner::autotune_tick(&self.inner)
    }

    /// The cluster remote tier (`None` for single-process engines).
    #[must_use]
    pub fn remote_tier(&self) -> Option<&Arc<RemoteTier>> {
        self.inner.remote.as_ref()
    }

    /// Per-tenant scheduler shares — weight, virtual time, accumulated
    /// busy nanoseconds — in tenancy order; `None` without tenancy.
    #[must_use]
    pub fn tenant_shares(&self) -> Option<Vec<sand_sched::TenantShare>> {
        self.inner.sched.tenant_shares()
    }

    /// The chunk table, for retention tests.
    #[cfg(test)]
    pub(crate) fn inner_chunks(&self) -> &Chunks {
        &self.inner.chunks
    }

    /// Fleet dedup/admission metric handles (`None` unless tenancy and
    /// telemetry are both configured).
    #[must_use]
    pub(crate) fn fleet_metrics(&self) -> Option<&FleetMetrics> {
        self.inner.fleet_metrics.as_ref()
    }
}

impl Inner {
    /// The materialize fan-out actually in effect: the *live* engine
    /// knob, maxed with every task-level `execution.aug_threads` hint.
    ///
    /// The fold starts from the runtime value (`aug_threads_live`), not
    /// the static config, so a controller- or API-driven override
    /// participates in the same max-fold as the per-task hints — raising
    /// the knob above every hint takes effect instead of being silently
    /// shadowed by a larger static hint.
    pub(crate) fn effective_aug_threads(inner: &Inner) -> usize {
        inner
            .config
            .tasks
            .iter()
            .map(|t| t.execution.aug_threads)
            .fold(inner.aug_threads_live.load(Ordering::Relaxed), usize::max)
            .max(1)
    }

    /// One closed-loop control tick: derive signals from the registry
    /// snapshot, advance every policy, apply the resulting knob values,
    /// and export the decisions (metrics + stall-report decision log).
    ///
    /// Returns `None` when autotune or telemetry is disabled — without a
    /// registry there are no signals, so the controller stays inert (lint
    /// SL034 denies that configuration up front).
    ///
    /// Bit-identity: every knob this tick can move is a *performance*
    /// knob — prefetch depth, demand slack, thread splits — none of which
    /// participate in planning, sampling, or augmentation math, so served
    /// bytes are unchanged under any decision schedule
    /// (`prop_autotune_parity`).
    fn autotune_tick(inner: &Arc<Inner>) -> Option<Vec<Decision>> {
        let controller = inner.autotune.as_ref()?;
        let snapshot = inner.telemetry.snapshot()?;
        let (decisions, values) = {
            let mut c = controller.lock();
            let decisions = c.tick(&snapshot);
            (decisions, c.values())
        };
        // Apply unconditionally (the setters are idempotent): the knob
        // values are the controller's single source of truth, so a
        // concurrent manual setter call is simply overridden at the next
        // tick.
        inner.prefetcher.set_depth(values.prefetch_depth as usize);
        inner.sched.set_demand_slack(values.demand_slack);
        inner
            .aug_threads_live
            .store((values.aug_threads as usize).max(1), Ordering::Relaxed);
        inner
            .decode_threads_live
            .store((values.decode_threads as usize).max(1), Ordering::Relaxed);
        for d in &decisions {
            inner.telemetry.push_decision(d.render());
        }
        if let Some(m) = &inner.autotune_metrics {
            m.ticks.inc();
            for d in &decisions {
                m.decisions.inc();
                if d.to > d.from {
                    m.raises.inc();
                } else {
                    m.lowers.inc();
                }
            }
            m.prefetch_depth.set(values.prefetch_depth as i64);
            m.demand_slack.set(values.demand_slack as i64);
            m.aug_threads.set(values.aug_threads as i64);
            m.decode_threads.set(values.decode_threads as i64);
        }
        Self::publish_effective_knobs(inner);
        Some(decisions)
    }

    /// Publishes the *live* knob values (not the config seeds) to the
    /// `engine.effective_*` gauges, so a snapshot always reports what the
    /// runtime is actually doing — after construction, a manual setter,
    /// or a controller tick. No-op with telemetry disabled.
    fn publish_effective_knobs(inner: &Inner) {
        let Some(m) = &inner.engine_metrics else {
            return;
        };
        m.effective_prefetch_depth
            .set(inner.prefetcher.depth() as i64);
        m.effective_demand_slack
            .set(inner.sched.demand_slack() as i64);
        m.effective_aug_threads
            .set(inner.aug_threads_live.load(Ordering::Relaxed) as i64);
        m.effective_decode_threads
            .set(inner.decode_threads_live.load(Ordering::Relaxed) as i64);
        match &inner.remote {
            Some(r) => {
                m.effective_remote_peers.set(r.peer_count() as i64);
                m.effective_remote_timeout_ms
                    .set(r.fetch_timeout().as_millis() as i64);
            }
            None => {
                m.effective_remote_peers.set(0);
                m.effective_remote_timeout_ms.set(0);
            }
        }
    }

    /// Reports store memory pressure to the scheduler.
    pub(crate) fn report_pressure(inner: &Arc<Inner>) {
        let stats = inner.store.stats();
        let frac = stats.memory_bytes as f64 / inner.config.store.memory_budget as f64;
        inner.sched.set_memory_pressure(frac);
    }

    /// Decodes one frame through the video's warm demand session,
    /// merging the session's work into the engine meter.
    fn decode_one(inner: &Arc<Inner>, video_id: u64, frame: usize) -> Result<Frame> {
        let session = {
            let mut warm = inner.warm_decoders.lock();
            warm.tick += 1;
            let tick = warm.tick;
            if let Some(slot) = warm.sessions.get_mut(&video_id) {
                slot.last_used = tick;
                Arc::clone(&slot.session)
            } else {
                let entry = inner
                    .dataset
                    .get(video_id)
                    .ok_or_else(|| CoreError::UnknownView {
                        what: format!("video {video_id} not in dataset"),
                    })?;
                if warm.sessions.len() >= inner.config.warm_session_cap.max(1) {
                    // Evict the least-recently-used session, so that under
                    // cap pressure the hottest videos keep their live
                    // anchor chains (evicting an arbitrary session would
                    // randomly cold-start a hot video).
                    if let Some(k) = warm
                        .sessions
                        .iter()
                        .min_by_key(|(_, s)| s.last_used)
                        .map(|(k, _)| *k)
                    {
                        warm.sessions.remove(&k);
                    }
                }
                let s = Arc::new(TrackedMutex::new(
                    "engine.warm_session",
                    WarmDecoder::new(Arc::clone(&entry.encoded)),
                ));
                warm.sessions.insert(
                    video_id,
                    WarmSlot {
                        session: Arc::clone(&s),
                        last_used: tick,
                    },
                );
                s
            }
        };
        let t0 = inner.engine_metrics.as_ref().map(|_| Instant::now());
        let mut dec = session.lock();
        let f = dec.decode_frame(frame)?;
        let stats = dec.take_stats();
        drop(dec);
        if let (Some(m), Some(t0)) = (inner.engine_metrics.as_ref(), t0) {
            let spent = t0.elapsed();
            m.demand_decode_us.observe_duration(spent);
            m.warm_hits.add(stats.warm_hits);
            m.cold_starts.add(stats.cold_starts);
            record_stage(Stage::Decode, spent);
        }
        inner.decode_stats.lock().merge(&stats);
        Ok(f)
    }

    /// Burns one retained use of every *strict* ancestor of `id` in the
    /// store (video roots are never stored, so marking them is a no-op).
    fn mark_used_ancestors(inner: &Arc<Inner>, chunk: &Chunk, id: NodeId) {
        let mut cur = chunk.graph.nodes[id].parent;
        while let Some(p) = cur {
            inner.store.mark_used(&store_key(&chunk.graph.nodes[p].key));
            cur = chunk.graph.nodes[p].parent;
        }
    }

    /// Materializes a node, consulting (and feeding) the store and the
    /// pass's shared scratch of raw frames.
    pub(crate) fn materialize_rec(
        inner: &Arc<Inner>,
        chunk: &Arc<Chunk>,
        id: NodeId,
        scratch: &Scratch,
    ) -> Result<Arc<Frame>> {
        if let Some(f) = scratch.get_or_claim(id) {
            return Ok(f);
        }
        // The claim is ours: compute, then fulfill or abandon it.
        let out = Self::materialize_flight(inner, chunk, id, scratch);
        match &out {
            Ok(f) => scratch.fulfill(id, Arc::clone(f)),
            Err(_) => scratch.abandon(id),
        }
        out
    }

    /// Cross-pass singleflight around [`Self::materialize_claimed`]: a
    /// node already in flight in *any* concurrent pass (another tenant's
    /// demand job, a prefetch build, pre-materialization) is awaited and
    /// its result adopted instead of recomputed, so a shared ancestor
    /// materializes at most once fleet-wide no matter how many tenants
    /// race for it. A failed winner publishes `None` and the waiter
    /// computes the node itself — duplicate work, never a lost serve.
    fn materialize_flight(
        inner: &Arc<Inner>,
        chunk: &Arc<Chunk>,
        id: NodeId,
        scratch: &Scratch,
    ) -> Result<Arc<Frame>> {
        let key = store_key(&chunk.graph.nodes[id].key);
        let (slot, winner) = inner.flight.claim_or_join(&key);
        if !winner {
            let t0 = inner.fleet_metrics.as_ref().map(|_| Instant::now());
            let (adopted, _) = slot.wait();
            if let (Some(m), Some(t0)) = (inner.fleet_metrics.as_ref(), t0) {
                m.dedup_wait_us.observe_duration(t0.elapsed());
            }
            if let Some(f) = adopted {
                if let Some(m) = &inner.fleet_metrics {
                    m.dedup_adoptions.inc();
                }
                return Ok(f);
            }
            return Self::materialize_claimed(inner, chunk, id, scratch);
        }
        let out = Self::materialize_claimed(inner, chunk, id, scratch);
        // Retire before publishing: a late arrival starts a fresh
        // flight (and hits the store for cached objects) instead of
        // adopting a slot whose object may since have been evicted.
        inner.flight.retire(&key);
        slot.publish(out.as_ref().ok().map(Arc::clone));
        if out.is_ok() {
            if let Some(m) = &inner.fleet_metrics {
                m.dedup_wins.inc();
            }
        }
        out
    }

    /// The tenant a task is attributed to (`None` = untenanted).
    fn tenant_of_task(inner: &Inner, task: &str) -> Option<u32> {
        let tenancy = inner.tenancy.as_ref()?;
        let task_id = *inner.task_ids.get(task)?;
        tenancy.task_tenant.get(task_id as usize).copied().flatten()
    }

    /// A tenant's display name (becomes the trace's `tenant` label).
    fn tenant_label(inner: &Inner, tenant: Option<u32>) -> Option<String> {
        let tenancy = inner.tenancy.as_ref()?;
        tenancy
            .tenants
            .get(tenant? as usize)
            .map(|t| t.name.clone())
    }

    /// Bumps a tenant's serve counters from a finished batch trace.
    fn record_tenant_serve(inner: &Inner, tenant: Option<u32>, serve_ns: u64, stalled: bool) {
        let Some(tenancy) = inner.tenancy.as_ref() else {
            return;
        };
        let Some(m) = tenant
            .and_then(|t| tenancy.tenants.get(t as usize))
            .and_then(|t| t.metrics.as_ref())
        else {
            return;
        };
        m.batches_served.inc();
        m.serve_us.observe(serve_ns / 1_000);
        if stalled {
            m.stalled.inc();
        }
    }

    /// Computes one claimed node (store hit, decode, or augmentation).
    fn materialize_claimed(
        inner: &Arc<Inner>,
        chunk: &Arc<Chunk>,
        id: NodeId,
        scratch: &Scratch,
    ) -> Result<Arc<Frame>> {
        let node = &chunk.graph.nodes[id];
        let key = store_key(&node.key);
        if inner.store.contains(&key) {
            if let Ok(bytes) = inner.store.get(&key) {
                match decompress_frame(&bytes) {
                    Ok(f) => return Ok(Arc::new(f)),
                    Err(_) => {
                        // A corrupt cached object (e.g. a torn write from
                        // a crash) must never fail serving: drop it and
                        // fall through to recomputation.
                        let _ = inner.store.remove(&key);
                    }
                }
            }
        }
        // Cluster tier, below mem/disk: the key's ring owner may already
        // hold the compressed object — fetch it instead of recomputing,
        // so a shared ancestor materializes at most once cluster-wide.
        // `None` covers every degraded case (self-owned, owner down,
        // clean miss) and falls through to local materialization; corrupt
        // remote bytes are dropped the same way — duplicate work, never
        // wrong bytes.
        if let Some(remote) = &inner.remote {
            if let Some(bytes) = remote.fetch(&key) {
                if let Ok(f) = decompress_frame(&bytes) {
                    if node.cached {
                        let meta = ObjectMeta {
                            deadline: chunk.deadlines[id],
                            future_uses: chunk.future_uses[id],
                        };
                        let _ = inner.store.put(&key, bytes.into(), meta);
                    }
                    return Ok(Arc::new(f));
                }
            }
        }
        let frame =
            match &node.key {
                ObjectKey::Video { .. } => {
                    return Err(CoreError::UnknownView {
                        what: "video roots are not frame objects".into(),
                    })
                }
                ObjectKey::Frame { video_id, frame } => Self::decode_one(inner, *video_id, *frame)?,
                ObjectKey::Aug { .. } => {
                    let parent = node.parent.ok_or_else(|| CoreError::State {
                        what: "aug node without parent".into(),
                    })?;
                    let src = Self::materialize_rec(inner, chunk, parent, scratch)?;
                    let op = node.op.as_ref().ok_or_else(|| CoreError::State {
                        what: "aug node without op".into(),
                    })?;
                    inner.aug_ops_applied.fetch_add(1, Ordering::Relaxed);
                    let t0 = inner.mat_metrics.as_ref().map(|_| Instant::now());
                    let applied =
                        if let sand_graph::ResolvedOp::Custom { name } = op {
                            // Custom ops execute through the RPC-style service.
                            let client = inner.config.aug_service.as_ref().ok_or_else(|| {
                                CoreError::State {
                                    what: format!(
                                        "pipeline uses custom op `{name}` but no augmentation \
                                 service is configured"
                                    ),
                                }
                            })?;
                            client.apply(name, &src)?
                        } else {
                            let frame_op = op.to_frame_op()?.ok_or_else(|| CoreError::State {
                                what: "normalize is not a frame op".into(),
                            })?;
                            frame_op.apply(&src)?
                        };
                    if let (Some(m), Some(t0)) = (inner.mat_metrics.as_ref(), t0) {
                        let spent = t0.elapsed();
                        m.op_us.observe_duration(spent);
                        m.ops.inc();
                        record_stage(Stage::Aug, spent);
                    }
                    applied
                }
            };
        if node.cached {
            let meta = ObjectMeta {
                deadline: chunk.deadlines[id],
                future_uses: chunk.future_uses[id],
            };
            let compressed: Arc<Vec<u8>> = compress_frame(&frame).into();
            inner.store.put(&key, Arc::clone(&compressed), meta)?;
            // We just materialized an object the ring owner didn't have
            // (the fetch above missed): push it so the next consumer
            // anywhere in the cluster hits. Best-effort — a failed push
            // leaves the object local.
            if let Some(remote) = &inner.remote {
                remote.offer(
                    &key,
                    chunk.deadlines[id],
                    chunk.future_uses[id],
                    &compressed,
                );
            }
        }
        Ok(Arc::new(frame))
    }

    /// Pre-decodes, in one GOP-efficient pass per video, every source
    /// frame the target nodes need that is not otherwise covered, filling
    /// `scratch` with the decoded frames.
    ///
    /// Frame slots are claimed non-blockingly (`try_claim`), so two
    /// sub-jobs whose targets overlap split the decode work instead of
    /// duplicating it; this pass itself never waits on another job.
    pub(crate) fn predecode_nodes(
        inner: &Arc<Inner>,
        chunk: &Arc<Chunk>,
        targets: &[NodeId],
        scratch: &Scratch,
    ) -> Result<()> {
        // (video, frame node, frame index) for every uncovered target.
        let mut missing: Vec<(u64, NodeId, usize)> = Vec::new();
        for &target in targets {
            // Walk up from the target: if any ancestor-or-self is in the
            // store or scratch, decode is unnecessary.
            let mut cur = Some(target);
            let mut frame_node: Option<(u64, NodeId, usize)> = None;
            let mut covered = false;
            while let Some(nid) = cur {
                if scratch.covered(nid)
                    || inner
                        .store
                        .contains(&store_key(&chunk.graph.nodes[nid].key))
                {
                    covered = true;
                    break;
                }
                if let ObjectKey::Frame { video_id, frame } = chunk.graph.nodes[nid].key {
                    frame_node = Some((video_id, nid, frame));
                }
                cur = chunk.graph.nodes[nid].parent;
            }
            if !covered {
                if let Some(fn_) = frame_node {
                    // Cluster tier: a frame the ring owner already holds
                    // is adopted instead of re-decoded — the bulk decode
                    // pass honors at-most-once the same way the per-node
                    // path does. Only cached nodes can exist remotely.
                    if chunk.graph.nodes[fn_.1].cached {
                        if let Some(remote) = &inner.remote {
                            let fkey = store_key(&chunk.graph.nodes[fn_.1].key);
                            if let Some(bytes) = remote.fetch(&fkey) {
                                if decompress_frame(&bytes).is_ok() {
                                    let meta = ObjectMeta {
                                        deadline: chunk.deadlines[fn_.1],
                                        future_uses: chunk.future_uses[fn_.1],
                                    };
                                    if inner.store.put(&fkey, bytes.into(), meta).is_ok() {
                                        continue;
                                    }
                                }
                            }
                        }
                    }
                    if !missing.contains(&fn_) && scratch.try_claim(fn_.1) {
                        missing.push(fn_);
                    }
                }
            }
        }
        if missing.is_empty() {
            return Ok(());
        }
        missing.sort_by_key(|&(v, _, f)| (v, f));
        let result = Self::predecode_claimed(inner, chunk, &missing, scratch);
        if result.is_err() {
            // Release any claims the failed pass left unfulfilled, so
            // other sub-jobs fall back to per-frame demand decodes
            // instead of blocking forever.
            for &(_, nid, _) in &missing {
                scratch.abandon(nid);
            }
        }
        result
    }

    /// Decodes the claimed frame nodes, grouped by video, one
    /// GOP-efficient pass per group.
    fn predecode_claimed(
        inner: &Arc<Inner>,
        chunk: &Arc<Chunk>,
        missing: &[(u64, NodeId, usize)],
        scratch: &Scratch,
    ) -> Result<()> {
        let mut i = 0;
        while i < missing.len() {
            let video_id = missing[i].0;
            let mut group = Vec::new();
            while i < missing.len() && missing[i].0 == video_id {
                group.push((missing[i].1, missing[i].2));
                i += 1;
            }
            let entry = inner
                .dataset
                .get(video_id)
                .ok_or_else(|| CoreError::UnknownView {
                    what: format!("video {video_id} not in dataset"),
                })?;
            let indices: Vec<usize> = group.iter().map(|&(_, f)| f).collect();
            let decode_threads = inner.decode_threads_live.load(Ordering::Relaxed);
            let mut dec = Decoder::with_threads(&entry.encoded, decode_threads)
                .with_metrics(inner.codec_metrics.clone());
            let t0 = inner.engine_metrics.as_ref().map(|_| Instant::now());
            let frames = dec.decode_indices(&indices)?;
            if let (Some(m), Some(t0)) = (inner.engine_metrics.as_ref(), t0) {
                let spent = t0.elapsed();
                m.predecode_us.observe_duration(spent);
                record_stage(Stage::Decode, spent);
            }
            inner.decode_stats.lock().merge(dec.stats());
            for ((nid, _), frame) in group.into_iter().zip(frames) {
                // Persist the decoded frame: whether or not the pruning
                // pass marked it cached, keeping it until its descendants
                // materialize saves re-decoding in later epoch buckets.
                // Objects whose future uses run out are first in the
                // eviction order, so this never outlives its usefulness.
                let node = &chunk.graph.nodes[nid];
                if !inner.store.contains(&store_key(&node.key)) {
                    let meta = ObjectMeta {
                        deadline: chunk.deadlines[nid],
                        future_uses: chunk.future_uses[nid],
                    };
                    inner
                        .store
                        .put(&store_key(&node.key), compress_frame(&frame).into(), meta)?;
                }
                scratch.fulfill(nid, Arc::new(frame));
            }
        }
        Ok(())
    }

    /// Materializes every frame of one sample (demand path).
    fn materialize_sample(
        inner: &Arc<Inner>,
        chunk: &Arc<Chunk>,
        plan: &sand_graph::SamplePlan,
    ) -> Result<Vec<Arc<Frame>>> {
        let scratch = Scratch::new(inner.mat_metrics.clone());
        Self::predecode_nodes(inner, chunk, &plan.frame_nodes, &scratch)?;
        plan.frame_nodes
            .iter()
            .map(|&t| Self::materialize_rec(inner, chunk, t, &scratch))
            .collect()
    }

    /// Finds the batch plan for (task tag, epoch, iteration).
    fn find_batch<'c>(
        inner: &Arc<Inner>,
        chunk: &'c Chunk,
        task: &str,
        epoch: u64,
        iteration: u64,
    ) -> Result<&'c BatchRef> {
        let task_id = *inner
            .task_ids
            .get(task)
            .ok_or_else(|| CoreError::UnknownView {
                what: format!("unknown task `{task}`"),
            })?;
        let idx = chunk
            .batch_index
            .get(&(task_id, epoch, iteration))
            .ok_or_else(|| CoreError::UnknownView {
                what: format!("no batch for {task}/{epoch}/{iteration}"),
            })?;
        Ok(&chunk.graph.batches[*idx])
    }

    /// One sample's final tensor: materialize the clip, then normalize
    /// and pack (the demand jobs, the prefetch jobs, and nobody else).
    fn sample_tensor(
        inner: &Arc<Inner>,
        chunk: &Arc<Chunk>,
        plan: &sand_graph::SamplePlan,
    ) -> Result<sand_frame::Tensor> {
        let clip = Self::materialize_sample(inner, chunk, plan)?;
        let channels = clip.first().map_or(3, |f| f.channels());
        let (mean, std) = match &plan.normalize {
            Some((m, s)) => (m.clone(), s.clone()),
            None => (vec![0.0; channels], vec![1.0; channels]),
        };
        let refs: Vec<&Frame> = clip.iter().map(Arc::as_ref).collect();
        Ok(clip_refs_to_tensor(&refs, &mean, &std)?)
    }

    /// Serves a training batch as serialized tensor bytes, via the
    /// prefetcher when it holds (or is assembling) this batch, inline
    /// otherwise. Either way, serving batch `n` tops the prefetch window
    /// back up to `n+1..=n+depth`.
    fn serve_batch(inner: &Arc<Inner>, task: &str, epoch: u64, iteration: u64) -> Result<Vec<u8>> {
        // The batch's t0 precedes the chunk lookup, so a boundary that
        // plans inline (or waits on an in-flight plan) books that time
        // to the trace's `plan` segment.
        let t0 = inner.telemetry.now();
        let chunk = Self::ensure_chunk(inner, epoch)?;
        Self::request_next_chunk(inner, &chunk, epoch);
        let chunk_id = epoch / inner.config.epochs_per_chunk;
        // The consume path stays open past `enabled()` while entries are
        // still pending: a controller shrinking the depth to 0 races the
        // serve loop, and entries scheduled before the shrink must still
        // settle exactly one outcome counter. The extra `pending()` probe
        // only runs with autotune configured, so the static
        // `prefetch_depth = 0` path keeps its zero extra locking.
        let consume = inner.prefetcher.enabled()
            || (inner.config.autotune.is_some() && inner.prefetcher.pending() > 0);
        if consume {
            // Chunk rollover: speculative batches built against the
            // previous chunk's plan are dead — cancel, never serve.
            inner.prefetcher.cancel_stale(chunk_id);
            if let Some(bytes) =
                Self::consume_prefetched(inner, &chunk, chunk_id, t0, task, epoch, iteration)?
            {
                if inner.prefetcher.enabled() {
                    Self::schedule_prefetch(inner, &chunk, chunk_id, task, epoch, iteration);
                }
                return Ok(bytes);
            }
        }
        let bytes = Self::serve_batch_inline(inner, &chunk, t0, task, epoch, iteration)?;
        if inner.prefetcher.enabled() {
            Self::schedule_prefetch(inner, &chunk, chunk_id, task, epoch, iteration);
        }
        Ok(bytes)
    }

    /// Consumes a prefetched batch if an entry exists for the current
    /// chunk: a complete build is a hit; an in-flight one is served late
    /// (the wait lands in the trace's `prefetch` segment). Returns
    /// `Ok(None)` on a miss — including a failed or cancelled build,
    /// which falls back to the inline path rather than erroring, since
    /// speculative work must never fail a serve the inline path could
    /// satisfy.
    fn consume_prefetched(
        inner: &Arc<Inner>,
        chunk: &Arc<Chunk>,
        chunk_id: u64,
        t0: Option<Instant>,
        task: &str,
        epoch: u64,
        iteration: u64,
    ) -> Result<Option<Vec<u8>>> {
        let Some(&task_id) = inner.task_ids.get(task) else {
            return Ok(None); // the inline path reports the unknown task
        };
        let Some(build) = inner.prefetcher.take((task_id, epoch, iteration), chunk_id) else {
            return Ok(None);
        };
        // From here the entry is consumed and must settle exactly one of
        // the outcome counters: `cancelled` (discarded unconsumable),
        // `miss` (taken but unusable, served inline), `hit`/`late`
        // (served from the build) — `scheduled` counts entries at
        // `begin`, so the four outcomes partition it.
        if build.cancelled() {
            // Cancelled between dequeue and materialize (e.g. a rollover
            // racing this serve): the rollover path never saw this entry
            // leave the map, so it is counted here.
            if let Some(m) = &inner.prefetcher.metrics {
                m.cancelled.inc();
            }
            return Ok(None);
        }
        // Zero-sample probe: no demand jobs run on a prefetch serve, so
        // the only attributable segments are `prefetch` (waited below)
        // and `plan`/`finalize` bookkeeping — the exact-sum invariant
        // over serve latency is preserved.
        let probe = t0.map(|t0| BatchProbe::starting_at(t0, 0));
        let was_complete = build.is_complete();
        if !was_complete {
            let t0 = inner.prefetcher.metrics.as_ref().map(|_| Instant::now());
            build.wait_complete();
            if let (Some(m), Some(t0)) = (inner.prefetcher.metrics.as_ref(), t0) {
                let waited = t0.elapsed();
                m.wait_us.observe_duration(waited);
                if let Some(p) = &probe {
                    p.record_prefetch_wait(waited);
                }
            }
        }
        if build.cancelled() {
            if let Some(m) = &inner.prefetcher.metrics {
                m.cancelled.inc();
            }
            return Ok(None);
        }
        let mut tensors = Vec::new();
        for slot in build.take_results() {
            match slot {
                Some(Ok(t)) => tensors.push(t),
                // A failed sample: recompute inline (the failure may have
                // been transient, and the inline path owns error
                // reporting). The entry was consumed but could not serve
                // the batch — that is the miss.
                Some(Err(_)) | None => {
                    if let Some(m) = &inner.prefetcher.metrics {
                        m.miss.inc();
                    }
                    return Ok(None);
                }
            }
        }
        // The build served the batch: settle hit vs. late only now, so a
        // post-wait cancellation or bad slot cannot double-count.
        if let Some(m) = &inner.prefetcher.metrics {
            if was_complete {
                m.hit.inc();
            } else {
                m.late.inc();
            }
        }
        let batch = Self::find_batch(inner, chunk, task, epoch, iteration)?.clone();
        // Consumption bookkeeping — identical to the inline path, at
        // consume time in consume order, so the store's clock/use/budget
        // timeline never depends on when speculation ran.
        build.mark_consumed();
        inner.store.set_clock(batch.clock);
        Self::report_pressure(inner);
        let batch_tensor = stack(&tensors)?;
        for plan in &batch.samples {
            for &t in &plan.frame_nodes {
                inner.store.mark_used(&store_key(&chunk.graph.nodes[t].key));
                Self::mark_used_ancestors(inner, chunk, t);
            }
        }
        inner.store.enforce_budgets()?;
        Self::report_pressure(inner);
        inner.batches_served.fetch_add(1, Ordering::Relaxed);
        let bytes = batch_tensor.to_bytes();
        inner
            .last_batch_bytes
            .store(bytes.len() as u64, Ordering::Relaxed);
        if let Some(p) = &probe {
            let budget_us = inner.telemetry.config().map_or(0, |c| c.stall_budget_us);
            let tenant = Self::tenant_of_task(inner, task);
            let trace = p.finish(
                BatchMeta {
                    task: task.to_string(),
                    epoch,
                    iteration,
                    clock: batch.clock,
                    tenant: Self::tenant_label(inner, tenant),
                },
                budget_us,
            );
            if let Some(m) = inner.engine_metrics.as_ref() {
                m.serve_us.observe(trace.serve_ns / 1_000);
                m.batches_served.inc();
                if trace.stalled {
                    m.batches_stalled.inc();
                }
            }
            Self::record_tenant_serve(inner, tenant, trace.serve_ns, trace.stalled);
            inner.telemetry.push_trace(trace);
        }
        Ok(Some(bytes))
    }

    /// Tops the prefetch window up to `depth` batches past the one just
    /// served, walking the trainer's consumption order (iterations, then
    /// the next epoch) without ever crossing the current chunk. Each
    /// sample becomes one self-contained [`JobKind::Prefetch`] job.
    /// Scheduling stops early under back-pressure: in-flight entries,
    /// sized by the last served batch, must fit the store's memory
    /// budget.
    fn schedule_prefetch(
        inner: &Arc<Inner>,
        chunk: &Arc<Chunk>,
        chunk_id: u64,
        task: &str,
        epoch: u64,
        iteration: u64,
    ) {
        let Some(&task_id) = inner.task_ids.get(task) else {
            return;
        };
        // Speculative work runs on the benefiting tenant's tab: prefetch
        // jobs carry the tenant so their worker time charges its virtual
        // clock — one tenant's deep prefetch window cannot eat another's
        // weighted share.
        let tenant = Self::tenant_of_task(inner, task);
        let est = inner.last_batch_bytes.load(Ordering::Relaxed);
        let (mut e, mut i) = (epoch, iteration);
        for _ in 0..inner.prefetcher.depth() {
            // Successor in consumption order.
            if chunk.batch_index.contains_key(&(task_id, e, i + 1)) {
                i += 1;
            } else {
                e += 1;
                i = 0;
            }
            if e >= inner.config.total_epochs || e / inner.config.epochs_per_chunk != chunk_id {
                break;
            }
            let Some(&idx) = chunk.batch_index.get(&(task_id, e, i)) else {
                break;
            };
            if est > 0 {
                let speculative = (inner.prefetcher.pending() as u64 + 1) * est;
                if speculative > inner.config.store.memory_budget {
                    break;
                }
            }
            let batch = chunk.graph.batches[idx].clone();
            let Some(build) =
                inner
                    .prefetcher
                    .begin((task_id, e, i), chunk_id, batch.samples.len())
            else {
                continue; // already in flight from an earlier serve
            };
            // One `scheduled` per batch entry (not per sample): the
            // outcome counters settle per entry, and
            // `scheduled == hit + late + miss + cancelled` must hold
            // once every entry is consumed.
            if let Some(m) = &inner.prefetcher.metrics {
                m.scheduled.inc();
            }
            for (si, plan) in batch.samples.iter().enumerate() {
                let inner2 = Arc::clone(inner);
                let chunk2 = Arc::clone(chunk);
                let plan2 = plan.clone();
                let build2 = Arc::clone(&build);
                inner.sched.submit(Job {
                    kind: JobKind::Prefetch,
                    deadline: batch.clock,
                    remaining_work: plan.frame_nodes.len() as u64,
                    affinity: Some(plan.video_id),
                    tenant,
                    run: Box::new(move || {
                        if build2.cancelled() {
                            build2.fulfill(
                                si,
                                Err(CoreError::State {
                                    what: "prefetch cancelled".into(),
                                }),
                            );
                            return;
                        }
                        let result = Self::sample_tensor(&inner2, &chunk2, &plan2);
                        build2.fulfill(si, result);
                    }),
                });
            }
        }
    }

    /// Serves a training batch inline (no prefetch entry): fan the
    /// samples out as demand jobs and assemble on this thread.
    fn serve_batch_inline(
        inner: &Arc<Inner>,
        chunk: &Arc<Chunk>,
        t0: Option<Instant>,
        task: &str,
        epoch: u64,
        iteration: u64,
    ) -> Result<Vec<u8>> {
        let chunk = Arc::clone(chunk);
        let batch = Self::find_batch(inner, &chunk, task, epoch, iteration)?.clone();
        let tenant = Self::tenant_of_task(inner, task);
        // Everything between the batch's t0 and each job's submission
        // is the `plan` segment of the batch's trace.
        let probe = t0.map(|t0| BatchProbe::starting_at(t0, batch.samples.len()));
        inner.store.set_clock(batch.clock);
        Self::report_pressure(inner);
        // Fan the samples out as demand jobs so feeding parallelizes and
        // preempts pre-materialization. Each job performs the final
        // normalization too, keeping the serving thread off the critical
        // path (the paper's demand-feeding threads perform "final steps
        // of the preprocessing pipeline").
        let (tx, rx) = crossbeam::channel::bounded(batch.samples.len());
        for (i, plan) in batch.samples.iter().enumerate() {
            let inner2 = Arc::clone(inner);
            let chunk2 = Arc::clone(&chunk);
            let plan2 = plan.clone();
            let tx2 = tx.clone();
            let probe2 = probe.clone();
            if let Some(p) = &probe {
                p.mark_submitted(i);
            }
            inner.sched.submit(Job {
                kind: JobKind::Demand,
                deadline: batch.clock,
                remaining_work: plan.frame_nodes.len() as u64,
                affinity: Some(plan.video_id),
                tenant,
                run: Box::new(move || {
                    let work = || Self::sample_tensor(&inner2, &chunk2, &plan2);
                    let result = match &probe2 {
                        Some(p) => p.run_sample(i, work),
                        None => work(),
                    };
                    let _ = tx2.send((i, result));
                }),
            });
        }
        drop(tx);
        let mut tensors: Vec<Option<sand_frame::Tensor>> = vec![None; batch.samples.len()];
        for (i, result) in rx.iter() {
            tensors[i] = Some(result?);
        }
        let tensors: Vec<sand_frame::Tensor> = tensors
            .into_iter()
            .map(|t| {
                t.ok_or_else(|| CoreError::State {
                    what: "demand job lost".into(),
                })
            })
            .collect::<Result<_>>()?;
        let batch_tensor = stack(&tensors)?;
        // Consumption bookkeeping: a consumed terminal burns one retained
        // use of itself *and of every ancestor*. `Chunk::build`
        // accumulates each node's `future_uses` as the total planned
        // consumptions in its subtree, so burning the whole chain on
        // every consumption — and nothing anywhere else — drives each
        // count to exactly zero when its last dependent batch is served,
        // making spent parents evictable (Algorithm 1's retained-use
        // accounting). Burning at build time instead would leak uses
        // whenever a descendant is later served from cache.
        for plan in &batch.samples {
            for &t in &plan.frame_nodes {
                inner.store.mark_used(&store_key(&chunk.graph.nodes[t].key));
                Self::mark_used_ancestors(inner, &chunk, t);
            }
        }
        inner.store.enforce_budgets()?;
        Self::report_pressure(inner);
        inner.batches_served.fetch_add(1, Ordering::Relaxed);
        let bytes = batch_tensor.to_bytes();
        inner
            .last_batch_bytes
            .store(bytes.len() as u64, Ordering::Relaxed);
        if let Some(p) = &probe {
            let budget_us = inner.telemetry.config().map_or(0, |c| c.stall_budget_us);
            let trace = p.finish(
                BatchMeta {
                    task: task.to_string(),
                    epoch,
                    iteration,
                    clock: batch.clock,
                    tenant: Self::tenant_label(inner, tenant),
                },
                budget_us,
            );
            if let Some(m) = inner.engine_metrics.as_ref() {
                m.serve_us.observe(trace.serve_ns / 1_000);
                m.batches_served.inc();
                if trace.stalled {
                    m.batches_stalled.inc();
                }
            }
            Self::record_tenant_serve(inner, tenant, trace.serve_ns, trace.stalled);
            inner.telemetry.push_trace(trace);
        }
        Ok(bytes)
    }

    /// Class labels of a batch, in sample order.
    fn batch_labels(
        inner: &Arc<Inner>,
        task: &str,
        epoch: u64,
        iteration: u64,
    ) -> Result<Vec<u32>> {
        let chunk = Self::ensure_chunk(inner, epoch)?;
        let batch = Self::find_batch(inner, &chunk, task, epoch, iteration)?;
        batch
            .samples
            .iter()
            .map(|s| {
                inner
                    .dataset
                    .get(s.video_id)
                    .map(|v| v.class_id)
                    .ok_or_else(|| CoreError::UnknownView {
                        what: format!("video {} not in dataset", s.video_id),
                    })
            })
            .collect()
    }
}

impl SandEngine {
    /// Accounts one `fetch` served straight from the compressed cache,
    /// split by the tier the object lived in *before* the read (reads
    /// may promote disk objects back to memory).
    fn count_compressed_hit(&self, tier: Option<Tier>) {
        if let Some(m) = self.inner.engine_metrics.as_ref() {
            match tier {
                Some(Tier::Disk) => m.compressed_hits_disk.inc(),
                _ => m.compressed_hits_mem.inc(),
            }
        }
    }
}

impl ViewProvider for SandEngine {
    fn fetch(&self, path: &ViewPath) -> sand_vfs::Result<Arc<Vec<u8>>> {
        let io = |e: CoreError| VfsError::Io {
            what: e.to_string(),
        };
        match path {
            ViewPath::Batch {
                task,
                epoch,
                iteration,
            } => Inner::serve_batch(&self.inner, task, *epoch, *iteration)
                .map(Arc::new)
                .map_err(io),
            ViewPath::Video { video, .. } => {
                let entry =
                    self.inner
                        .dataset
                        .get_by_name(video)
                        .ok_or_else(|| VfsError::NoSuchView {
                            path: path.to_string(),
                        })?;
                Ok(Arc::new(entry.encoded.to_bytes()))
            }
            ViewPath::Frame { video, index, .. } => {
                let entry =
                    self.inner
                        .dataset
                        .get_by_name(video)
                        .ok_or_else(|| VfsError::NoSuchView {
                            path: path.to_string(),
                        })?;
                // Zero-copy fast path: a materialized frame object in the
                // store is served as the very allocation the decoder put
                // there (validated, since store files can be torn).
                let key = store_key(&ObjectKey::Frame {
                    video_id: entry.video_id,
                    frame: *index as usize,
                });
                let tier = self.inner.store.tier_of(&key);
                if let Ok(bytes) = self.inner.store.get(&key) {
                    if decompress_frame(&bytes).is_ok() {
                        self.count_compressed_hit(tier);
                        return Ok(bytes);
                    }
                    let _ = self.inner.store.remove(&key);
                }
                // Cluster tier: the ring owner may hold the compressed
                // frame — serve (and adopt) its bytes before touching the
                // decoder. Validated like any store read; a degraded peer
                // falls through to the local decode.
                if let Some(remote) = &self.inner.remote {
                    if let Some(bytes) = remote.fetch(&key) {
                        if decompress_frame(&bytes).is_ok() {
                            let bytes: Arc<Vec<u8>> = Arc::new(bytes);
                            let meta = ObjectMeta {
                                deadline: None,
                                future_uses: 1,
                            };
                            let _ = self.inner.store.put(&key, Arc::clone(&bytes), meta);
                            return Ok(bytes);
                        }
                    }
                }
                let f =
                    Inner::decode_one(&self.inner, entry.video_id, *index as usize).map_err(io)?;
                Ok(Arc::new(compress_frame(&f)))
            }
            ViewPath::AugFrame {
                video,
                index,
                depth,
                ..
            } => {
                // Serve any planned augmented object at this (frame, depth)
                // from the chunk being served — not the newest plan, which
                // with plan-ahead is the *next* chunk's draws.
                let entry =
                    self.inner
                        .dataset
                        .get_by_name(video)
                        .ok_or_else(|| VfsError::NoSuchView {
                            path: path.to_string(),
                        })?;
                let chunk = self
                    .inner
                    .chunks
                    .last_served(&self.inner)
                    .map_err(io)?
                    .ok_or_else(|| VfsError::Io {
                        what: "no planned chunk".into(),
                    })?;
                let node = chunk
                    .graph
                    .nodes
                    .iter()
                    .find(|n| match &n.key {
                        ObjectKey::Aug {
                            video_id,
                            frame,
                            chain,
                        } => {
                            *video_id == entry.video_id
                                && *frame == *index as usize
                                && chain.len() == *depth as usize
                        }
                        _ => false,
                    })
                    .ok_or_else(|| VfsError::NoSuchView {
                        path: path.to_string(),
                    })?;
                let node_id = node.id;
                let node_key = store_key(&node.key);
                // Compressed-cache read path: a previously materialized
                // object — memory-resident or spilled to disk — is served
                // as its stored compressed bytes, with no decoder or
                // augmentation work at all.
                let tier = self.inner.store.tier_of(&node_key);
                if let Ok(bytes) = self.inner.store.get(&node_key) {
                    if decompress_frame(&bytes).is_ok() {
                        self.count_compressed_hit(tier);
                        return Ok(bytes);
                    }
                    // Corrupt cached object: drop and recompute below.
                    let _ = self.inner.store.remove(&node_key);
                }
                let scratch = Scratch::new(self.inner.mat_metrics.clone());
                let f =
                    Inner::materialize_rec(&self.inner, &chunk, node_id, &scratch).map_err(io)?;
                // Materialization caches planned objects; serve the stored
                // allocation when present instead of re-compressing.
                if let Ok(bytes) = self.inner.store.get(&node_key) {
                    if decompress_frame(&bytes).is_ok() {
                        return Ok(bytes);
                    }
                }
                Ok(Arc::new(compress_frame(&f)))
            }
        }
    }

    fn metadata(&self, path: &ViewPath, name: &str) -> sand_vfs::Result<String> {
        let no_attr = || VfsError::NoAttr {
            name: name.to_string(),
        };
        match path {
            ViewPath::Batch {
                task,
                epoch,
                iteration,
            } => match name {
                "shape" => {
                    let chunk =
                        Inner::ensure_chunk(&self.inner, *epoch).map_err(|e| VfsError::Io {
                            what: e.to_string(),
                        })?;
                    let batch = Inner::find_batch(&self.inner, &chunk, task, *epoch, *iteration)
                        .map_err(|e| VfsError::Io {
                            what: e.to_string(),
                        })?;
                    let n = batch.samples.len();
                    let (t, dims) = batch
                        .samples
                        .first()
                        .map(|s| {
                            let terminal = s.frame_nodes.last().copied();
                            let dims = terminal
                                .map(|id| chunk.graph.nodes[id].dims)
                                .unwrap_or((0, 0));
                            (s.frame_indices.len(), dims)
                        })
                        .unwrap_or((0, (0, 0)));
                    Ok(format!("{n},3,{t},{},{}", dims.1, dims.0))
                }
                "labels" => {
                    let labels = Inner::batch_labels(&self.inner, task, *epoch, *iteration)
                        .map_err(|e| VfsError::Io {
                            what: e.to_string(),
                        })?;
                    Ok(labels
                        .iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join(","))
                }
                "timestamps" => {
                    let chunk =
                        Inner::ensure_chunk(&self.inner, *epoch).map_err(|e| VfsError::Io {
                            what: e.to_string(),
                        })?;
                    let batch = Inner::find_batch(&self.inner, &chunk, task, *epoch, *iteration)
                        .map_err(|e| VfsError::Io {
                            what: e.to_string(),
                        })?;
                    Ok(batch
                        .samples
                        .iter()
                        .map(|s| {
                            s.frame_indices
                                .iter()
                                .map(ToString::to_string)
                                .collect::<Vec<_>>()
                                .join(":")
                        })
                        .collect::<Vec<_>>()
                        .join(","))
                }
                _ => Err(no_attr()),
            },
            ViewPath::Video { video, .. } => {
                let entry =
                    self.inner
                        .dataset
                        .get_by_name(video)
                        .ok_or_else(|| VfsError::NoSuchView {
                            path: path.to_string(),
                        })?;
                match name {
                    "frames" => Ok(entry.encoded.frame_count().to_string()),
                    "class" => Ok(entry.class_id.to_string()),
                    "width" => Ok(entry.encoded.header.width.to_string()),
                    "height" => Ok(entry.encoded.header.height.to_string()),
                    _ => Err(no_attr()),
                }
            }
            ViewPath::Frame { video, index, .. } => {
                let entry =
                    self.inner
                        .dataset
                        .get_by_name(video)
                        .ok_or_else(|| VfsError::NoSuchView {
                            path: path.to_string(),
                        })?;
                match name {
                    "timestamp_us" => Ok(entry
                        .encoded
                        .header
                        .timestamp_us(*index as usize)
                        .to_string()),
                    "video_id" => Ok(entry.video_id.to_string()),
                    _ => Err(no_attr()),
                }
            }
            ViewPath::AugFrame { .. } => Err(no_attr()),
        }
    }

    fn released(&self, path: &ViewPath) {
        // Closing a batch view ends its iteration: spent memory-tier
        // objects (future_uses == 0) are freed promptly by the watermark
        // machinery on the next enforce.
        if matches!(path, ViewPath::Batch { .. }) {
            let _ = self.inner.store.enforce_budgets();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sand_codec::{DatasetSpec, EncoderConfig};
    use sand_config::parse_task_config;
    use sand_frame::Tensor;

    const TASK: &str = r#"
dataset:
  tag: train
  input_source: file
  video_dataset_path: /d
  sampling:
    videos_per_batch: 2
    frames_per_video: 4
    frame_stride: 2
  augmentation:
    - name: r
      branch_type: single
      inputs: ["frame"]
      outputs: ["a0"]
      config:
        - resize:
            shape: [16, 16]
    - name: c
      branch_type: single
      inputs: ["a0"]
      outputs: ["a1"]
      config:
        - random_crop:
            shape: [8, 8]
        - normalize:
            mean: [0.45, 0.45, 0.45]
            std: [0.225, 0.225, 0.225]
"#;

    fn dataset() -> Arc<Dataset> {
        Arc::new(
            Dataset::generate(&DatasetSpec {
                num_videos: 4,
                num_classes: 2,
                width: 32,
                height: 32,
                frames_per_video: 24,
                encoder: EncoderConfig {
                    gop_size: 6,
                    quantizer: 4,
                    fps_milli: 30_000,
                    b_frames: 0,
                },
                ..Default::default()
            })
            .unwrap(),
        )
    }

    fn engine(prematerialize: bool) -> SandEngine {
        let config = EngineConfig {
            tasks: vec![parse_task_config(TASK).unwrap()],
            prematerialize,
            total_epochs: 4,
            epochs_per_chunk: 2,
            ..Default::default()
        };
        SandEngine::new(config, dataset()).unwrap()
    }

    #[test]
    fn runtime_aug_threads_override_joins_the_max_fold() {
        let mut task = parse_task_config(TASK).unwrap();
        task.execution.aug_threads = 4;
        let config = EngineConfig {
            tasks: vec![task],
            prematerialize: false,
            total_epochs: 4,
            epochs_per_chunk: 2,
            aug_threads: 1,
            ..Default::default()
        };
        let e = SandEngine::new(config, dataset()).unwrap();
        // The task hint dominates the static knob.
        assert_eq!(Inner::effective_aug_threads(&e.inner), 4);
        // A runtime override below the hint folds in but cannot shrink
        // past it (the hint is a per-task floor, not a suggestion).
        e.set_aug_threads(2);
        assert_eq!(Inner::effective_aug_threads(&e.inner), 4);
        // Raising above every hint takes effect — the override joins the
        // same max-fold instead of being shadowed by the static hint.
        e.set_aug_threads(8);
        assert_eq!(Inner::effective_aug_threads(&e.inner), 8);
        assert_eq!(e.aug_threads(), 8);
    }

    #[test]
    fn serves_batches_with_expected_shape() {
        let e = engine(false);
        e.start().unwrap();
        let bytes = e.serve_batch("train", 0, 0).unwrap();
        let t = Tensor::from_bytes(&bytes).unwrap();
        // 2 videos/batch, (C=3, T=4, H=8, W=8).
        assert_eq!(t.shape(), &[2, 3, 4, 8, 8]);
    }

    #[test]
    fn batches_cover_epoch_once() {
        let e = engine(false);
        e.start().unwrap();
        let iters = e.iterations_per_epoch("train").unwrap();
        assert_eq!(iters, 2);
        for it in 0..iters {
            e.serve_batch("train", 0, it).unwrap();
        }
        assert_eq!(e.stats().batches_served, 2);
    }

    #[test]
    fn serving_is_deterministic_given_seed() {
        let a = engine(false);
        a.start().unwrap();
        let b = engine(false);
        b.start().unwrap();
        assert_eq!(
            a.serve_batch("train", 0, 0).unwrap(),
            b.serve_batch("train", 0, 0).unwrap()
        );
        assert_eq!(
            a.serve_batch("train", 1, 1).unwrap(),
            b.serve_batch("train", 1, 1).unwrap()
        );
    }

    #[test]
    fn prematerialization_eliminates_demand_decode() {
        let e = engine(true);
        e.start().unwrap();
        e.wait_idle();
        let decoded_before = e.stats().decode.frames_decoded;
        assert!(decoded_before > 0, "pre-materialization decoded nothing");
        for it in 0..2 {
            e.serve_batch("train", 0, it).unwrap();
        }
        let decoded_after = e.stats().decode.frames_decoded;
        assert_eq!(
            decoded_before, decoded_after,
            "serving pre-materialized epoch must not decode"
        );
    }

    #[test]
    fn second_epoch_of_chunk_reuses_nothing_spurious() {
        // Serving both epochs of a chunk works and covers every video.
        let e = engine(true);
        e.start().unwrap();
        e.wait_idle();
        for epoch in 0..2 {
            for it in 0..2 {
                let bytes = e.serve_batch("train", epoch, it).unwrap();
                assert!(!bytes.is_empty());
            }
        }
    }

    #[test]
    fn next_chunk_planned_on_demand() {
        let e = engine(false);
        e.start().unwrap();
        // Epoch 2 is in chunk 1.
        let bytes = e.serve_batch("train", 2, 0).unwrap();
        assert!(!bytes.is_empty());
    }

    #[test]
    fn epoch_beyond_total_rejected() {
        let e = engine(false);
        e.start().unwrap();
        assert!(matches!(
            e.serve_batch("train", 99, 0),
            Err(CoreError::State { .. })
        ));
    }

    #[test]
    fn unknown_task_and_iteration_rejected() {
        let e = engine(false);
        e.start().unwrap();
        assert!(matches!(
            e.serve_batch("nope", 0, 0),
            Err(CoreError::UnknownView { .. })
        ));
        assert!(matches!(
            e.serve_batch("train", 0, 999),
            Err(CoreError::UnknownView { .. })
        ));
    }

    #[test]
    fn vfs_roundtrip_batch_and_metadata() {
        let e = engine(false);
        e.start().unwrap();
        let vfs = e.mount();
        let fd = vfs.open("/train/0/0/view").unwrap();
        let bytes = vfs.read_to_end(fd).unwrap();
        let t = Tensor::from_bytes(&bytes).unwrap();
        assert_eq!(t.shape()[0], 2);
        let labels = vfs.getxattr(fd, "labels").unwrap();
        assert_eq!(labels.split(',').count(), 2);
        let ts = vfs.getxattr(fd, "timestamps").unwrap();
        assert_eq!(ts.split(',').count(), 2);
        // The shape xattr matches the tensor actually served.
        let shape = vfs.getxattr(fd, "shape").unwrap();
        let dims: Vec<usize> = shape.split(',').map(|s| s.parse().unwrap()).collect();
        assert_eq!(&dims[..], t.shape());
        vfs.close(fd).unwrap();
    }

    #[test]
    fn vfs_serves_video_frame_and_aug_views() {
        let e = engine(false);
        e.start().unwrap();
        let vfs = e.mount();
        // Video view: container bytes round-trip.
        let fd = vfs.open("/train/video0001.svid").unwrap();
        let bytes = vfs.read_to_end(fd).unwrap();
        assert!(sand_codec::EncodedVideo::from_bytes(&bytes).is_ok());
        assert_eq!(vfs.getxattr(fd, "frames").unwrap(), "24");
        vfs.close(fd).unwrap();
        // Frame view: a self-describing compressed frame.
        let fd = vfs.open("/train/video0001/frame5").unwrap();
        let bytes = vfs.read_to_end(fd).unwrap();
        let f = decompress_frame(&bytes).unwrap();
        assert_eq!((f.width(), f.height()), (32, 32));
        assert_eq!(vfs.getxattr(fd, "video_id").unwrap(), "1");
        vfs.close(fd).unwrap();
    }

    #[test]
    fn warm_demand_reads_skip_keyframe_redecode() {
        let e = engine(false);
        e.start().unwrap();
        let vfs = e.mount();
        let read = |i: usize| {
            let fd = vfs.open(&format!("/train/video0001/frame{i}")).unwrap();
            let bytes = vfs.read_to_end(fd).unwrap();
            vfs.close(fd).unwrap();
            bytes
        };
        // Cold read: walks keyframe 0 then frame 1 (gop_size = 6).
        let first = read(1);
        let s1 = e.stats().decode;
        assert_eq!(s1.i_frames_decoded, 1);
        assert_eq!(s1.frames_decoded, 2);
        // Forward in the same GOP: the warm session resumes its chain at
        // frame 1 and decodes 2..=3 only — zero keyframe re-decodes.
        read(3);
        let s2 = e.stats().decode;
        assert_eq!(s2.i_frames_decoded, 1, "keyframe re-decoded on warm read");
        assert_eq!(s2.frames_decoded, 4);
        // A different GOP restarts cold from its own keyframe.
        read(13);
        assert_eq!(e.stats().decode.i_frames_decoded, 2);
        // Warm-session bytes equal a cold decode of the same frame.
        let ds = dataset();
        let entry = ds.get(1).unwrap();
        let mut cold = Decoder::new(&entry.encoded);
        let want = cold.decode_indices(&[1]).unwrap();
        assert_eq!(first, compress_frame(&want[0]));
    }

    #[test]
    fn aug_view_reachable_after_planning() {
        let e = engine(false);
        e.start().unwrap();
        let vfs = e.mount();
        // Find a planned frame index through batch timestamps.
        let ts = vfs.getxattr_path("/train/0/0/view", "timestamps").unwrap();
        let first_frame: u64 = ts
            .split(',')
            .next()
            .unwrap()
            .split(':')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        // Depth 1 = after resize.
        let path = format!("/train/video0000/frame{first_frame}/aug1");
        // The frame may belong to a different video in this batch; try all.
        let mut served = false;
        for v in 0..4 {
            let p = format!("/train/video{v:04}/frame{first_frame}/aug1");
            if let Ok(fd) = vfs.open(&p) {
                let bytes = vfs.read_to_end(fd).unwrap();
                let f = decompress_frame(&bytes).unwrap();
                assert_eq!((f.width(), f.height()), (16, 16));
                vfs.close(fd).unwrap();
                served = true;
                break;
            }
        }
        assert!(served, "no aug view served for {path}");
    }

    #[test]
    fn recovery_skips_recomputation() {
        let dir = std::env::temp_dir().join(format!("sand_recover_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mk = || {
            let config = EngineConfig {
                tasks: vec![parse_task_config(TASK).unwrap()],
                prematerialize: true,
                total_epochs: 2,
                epochs_per_chunk: 2,
                store_dir: Some(dir.clone()),
                store: StoreConfig {
                    // Small memory + horizon 0 pushes everything to disk.
                    memory_budget: 4 << 20,
                    disk_budget: 512 << 20,
                    evict_watermark: 0.75,
                    memory_horizon: 0,
                    ..Default::default()
                },
                ..Default::default()
            };
            SandEngine::new(config, dataset()).unwrap()
        };
        let first = mk();
        first.start().unwrap();
        first.wait_idle();
        let decoded_first = first.stats().decode.frames_decoded;
        assert!(decoded_first > 0);
        drop(first);
        // "Crash" and restart over the same store dir.
        let second = mk();
        second.start().unwrap();
        second.wait_idle();
        assert_eq!(
            second.stats().decode.frames_decoded,
            0,
            "recovery must not re-decode persisted objects"
        );
        // And the recovered engine still serves correct batches.
        let bytes = second.serve_batch("train", 0, 0).unwrap();
        assert!(!bytes.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(SandEngine::new(EngineConfig::default(), dataset()).is_err());
        let mut cfg = EngineConfig {
            tasks: vec![
                parse_task_config(TASK).unwrap(),
                parse_task_config(TASK).unwrap(),
            ],
            ..Default::default()
        };
        assert!(SandEngine::new(cfg.clone(), dataset()).is_err()); // duplicate tag
        cfg.tasks.pop();
        cfg.total_epochs = 0;
        assert!(SandEngine::new(cfg, dataset()).is_err());
    }

    #[test]
    fn custom_op_pipeline_serves_through_service() {
        const CUSTOM_TASK: &str = r#"
dataset:
  tag: custom
  input_source: file
  video_dataset_path: /d
  sampling:
    videos_per_batch: 2
    frames_per_video: 4
    frame_stride: 2
  augmentation:
    - name: r
      branch_type: single
      inputs: ["frame"]
      outputs: ["a0"]
      config:
        - resize:
            shape: [16, 16]
        - custom:
            name: invert_custom
"#;
        let service = crate::service::AugService::builder()
            .register(
                "invert_custom",
                Box::new(|mut f: Frame| {
                    for b in f.as_bytes_mut() {
                        *b = 255 - *b;
                    }
                    Ok(f)
                }),
            )
            .start();
        let config = EngineConfig {
            tasks: vec![parse_task_config(CUSTOM_TASK).unwrap()],
            total_epochs: 1,
            epochs_per_chunk: 1,
            aug_service: Some(service.client()),
            ..Default::default()
        };
        let e = SandEngine::new(config, dataset()).unwrap();
        e.start().unwrap();
        let bytes = e.serve_batch("custom", 0, 0).unwrap();
        let t = Tensor::from_bytes(&bytes).unwrap();
        assert_eq!(t.shape(), &[2, 3, 4, 16, 16]);
        // Without the service, the same pipeline fails with a clear error.
        let config = EngineConfig {
            tasks: vec![parse_task_config(CUSTOM_TASK).unwrap()],
            total_epochs: 1,
            epochs_per_chunk: 1,
            prematerialize: false,
            ..Default::default()
        };
        let e2 = SandEngine::new(config, dataset()).unwrap();
        e2.start().unwrap();
        let err = e2.serve_batch("custom", 0, 0).unwrap_err();
        assert!(err.to_string().contains("augmentation"), "{err}");
    }

    #[test]
    fn corrupt_cached_object_recomputed_not_fatal() {
        let dir = std::env::temp_dir().join(format!("sand_corrupt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = EngineConfig {
            tasks: vec![parse_task_config(TASK).unwrap()],
            total_epochs: 1,
            epochs_per_chunk: 1,
            store_dir: Some(dir.clone()),
            store: StoreConfig {
                memory_horizon: 0,
                ..Default::default()
            },
            ..Default::default()
        };
        let e = SandEngine::new(config, dataset()).unwrap();
        e.start().unwrap();
        e.wait_idle();
        // Corrupt every persisted object (simulating torn writes).
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_file() {
                std::fs::write(&path, b"garbage").unwrap();
            }
        }
        // Serving must still succeed by recomputing from source.
        let bytes = e.serve_batch("train", 0, 0).unwrap();
        assert!(!bytes.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn plan_checkpoints_written_and_reused() {
        let dir = std::env::temp_dir().join(format!("sand_ckpt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mk = || {
            let config = EngineConfig {
                tasks: vec![parse_task_config(TASK).unwrap()],
                total_epochs: 2,
                epochs_per_chunk: 2,
                store_dir: Some(dir.clone()),
                prematerialize: false,
                ..Default::default()
            };
            SandEngine::new(config, dataset()).unwrap()
        };
        let a = mk();
        a.start().unwrap();
        let first = a.serve_batch("train", 0, 0).unwrap();
        let ckpt = dir.join("_meta").join("graph_chunk_0.ckpt");
        assert!(ckpt.exists(), "checkpoint written at {}", ckpt.display());
        drop(a);
        // A restarted engine loads the checkpointed plan and serves the
        // same batch bytes.
        let b = mk();
        b.start().unwrap();
        assert_eq!(b.serve_batch("train", 0, 0).unwrap(), first);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn coordinated_two_tasks_share_store_objects() {
        let mut t2 = parse_task_config(TASK).unwrap();
        t2.tag = "second".into();
        let config = EngineConfig {
            tasks: vec![parse_task_config(TASK).unwrap(), t2],
            prematerialize: false,
            total_epochs: 1,
            epochs_per_chunk: 1,
            ..Default::default()
        };
        let e = SandEngine::new(config, dataset()).unwrap();
        e.start().unwrap();
        for it in 0..2 {
            e.serve_batch("train", 0, it).unwrap();
        }
        let decoded_after_first_task = e.stats().decode.frames_decoded;
        for it in 0..2 {
            e.serve_batch("second", 0, it).unwrap();
        }
        let decoded_after_second_task = e.stats().decode.frames_decoded;
        // The second task's identical pipeline reuses the first task's
        // cached terminals: no (or almost no) extra decoding.
        assert!(
            decoded_after_second_task <= decoded_after_first_task,
            "second task re-decoded: {decoded_after_first_task} -> {decoded_after_second_task}"
        );
    }

    #[test]
    fn lint_deny_fails_startup() {
        // A 1-byte cache budget cannot hold a single batch: SL020 at
        // deny level must reject startup before any chunk is planned.
        let config = EngineConfig {
            tasks: vec![parse_task_config(TASK).unwrap()],
            prematerialize: false,
            cache_budget: 1,
            prune: false,
            lint: LintLevel::Deny,
            ..Default::default()
        };
        let e = SandEngine::new(config, dataset()).unwrap();
        match e.start() {
            Err(CoreError::Lint { denies, report }) => {
                assert!(denies >= 1);
                assert!(report.contains("SL020"), "{report}");
            }
            other => panic!("expected CoreError::Lint, got {other:?}"),
        }
    }

    #[test]
    fn lint_warn_reports_but_serves() {
        // Same infeasible budget at warn level: startup succeeds.
        let config = EngineConfig {
            tasks: vec![parse_task_config(TASK).unwrap()],
            prematerialize: false,
            cache_budget: 1,
            lint: LintLevel::Warn,
            ..Default::default()
        };
        let e = SandEngine::new(config, dataset()).unwrap();
        e.start().unwrap();
        e.serve_batch("train", 0, 0).unwrap();
    }

    #[test]
    fn lint_clean_config_stays_silent() {
        let e = engine(false);
        // The default test workload is feasible; deny level still starts.
        let config = EngineConfig {
            tasks: vec![parse_task_config(TASK).unwrap()],
            prematerialize: false,
            lint: LintLevel::Deny,
            ..Default::default()
        };
        let strict = SandEngine::new(config, dataset()).unwrap();
        strict.start().unwrap();
        drop(e);
    }

    #[test]
    fn warm_eviction_is_lru_not_arbitrary() {
        let config = EngineConfig {
            tasks: vec![parse_task_config(TASK).unwrap()],
            prematerialize: false,
            warm_session_cap: 2,
            ..Default::default()
        };
        let e = SandEngine::new(config, dataset()).unwrap();
        // Warm the hot video's session and advance it mid-GOP (gop 6).
        Inner::decode_one(&e.inner, 0, 2).unwrap(); // decodes 0..=2
        Inner::decode_one(&e.inner, 0, 3).unwrap(); // +1, warm resume
        Inner::decode_one(&e.inner, 1, 0).unwrap(); // fills the cap
        Inner::decode_one(&e.inner, 0, 4).unwrap(); // refreshes the hot video
        Inner::decode_one(&e.inner, 2, 0).unwrap(); // at cap: must evict v1
        let before = e.stats().decode.frames_decoded;
        assert_eq!(before, 7);
        // The hot video's anchor chain survived cap pressure: the next
        // forward read resumes with a single incremental decode. (The old
        // arbitrary eviction could drop v0 here, forcing a 6-frame
        // keyframe re-walk.)
        Inner::decode_one(&e.inner, 0, 5).unwrap();
        assert_eq!(
            e.stats().decode.frames_decoded - before,
            1,
            "hot warm session was evicted under cap pressure"
        );
    }

    #[test]
    fn served_chunk_leaves_no_retained_uses() {
        // Serve every batch of a chunk; afterwards each surviving store
        // object must report zero future uses — the consumption-time
        // chain burn spends parents exactly, so Algorithm 1 may evict
        // everything. (The old build-time parent burn leaked uses when a
        // descendant was later served from cache.)
        let e = engine(true);
        e.start().unwrap();
        e.wait_idle();
        for epoch in 0..2 {
            for it in 0..2 {
                e.serve_batch("train", epoch, it).unwrap();
            }
        }
        let store = e.store();
        for key in store.keys() {
            assert_eq!(
                store.future_uses_of(&key),
                Some(0),
                "object `{key}` still holds retained uses after its chunk \
                 was fully served"
            );
        }
    }

    #[test]
    fn disabled_telemetry_invisible_and_bit_identical() {
        let serve_all = |telemetry: Option<TelemetryConfig>| {
            let config = EngineConfig {
                tasks: vec![parse_task_config(TASK).unwrap()],
                prematerialize: false,
                total_epochs: 2,
                epochs_per_chunk: 2,
                telemetry,
                ..Default::default()
            };
            let e = SandEngine::new(config, dataset()).unwrap();
            e.start().unwrap();
            let mut out = Vec::new();
            for epoch in 0..2 {
                for it in 0..2 {
                    out.push(e.serve_batch("train", epoch, it).unwrap());
                }
            }
            (e, out)
        };
        let (off, off_bytes) = serve_all(None);
        assert!(!off.telemetry().is_enabled());
        assert!(off.metrics_snapshot().is_none());
        assert!(off.stall_report().is_none());
        let (on, on_bytes) = serve_all(Some(TelemetryConfig::default()));
        assert_eq!(off_bytes, on_bytes, "telemetry changed served bytes");
        let snap = on.metrics_snapshot().expect("telemetry enabled");
        assert_eq!(snap.counter("engine.batches_served"), Some(4));
        assert_eq!(snap.histogram("engine.serve_us").map(|h| h.count), Some(4));
    }

    #[test]
    fn stall_report_breakdown_sums_to_serve_latency() {
        let config = EngineConfig {
            tasks: vec![parse_task_config(TASK).unwrap()],
            prematerialize: true,
            total_epochs: 2,
            epochs_per_chunk: 2,
            // Default stall budget is 0: every batch is traced as stalled,
            // which is exactly what this invariant check wants.
            telemetry: Some(TelemetryConfig::default()),
            ..Default::default()
        };
        let e = SandEngine::new(config, dataset()).unwrap();
        e.start().unwrap();
        e.wait_idle();
        for epoch in 0..2 {
            for it in 0..2 {
                e.serve_batch("train", epoch, it).unwrap();
            }
        }
        let report = e.stall_report().expect("telemetry enabled");
        assert_eq!(report.traces.len(), 4);
        assert_eq!(report.stalled().len(), 4);
        for t in &report.traces {
            assert_eq!(
                t.breakdown_sum_ns(),
                t.serve_ns,
                "stage breakdown of {} does not reassemble its serve latency",
                t.batch_id()
            );
            assert_eq!(t.samples, 2);
        }
        // The scheduler accounted every demand job under metrics.
        let snap = e.metrics_snapshot().expect("telemetry enabled");
        assert_eq!(
            snap.histogram("sched.demand_wait_us").map(|h| h.count),
            Some(8),
            "4 batches x 2 samples pass through the demand queue"
        );
    }

    #[test]
    fn compressed_cache_serves_spilled_frames_without_decode() {
        let dir = std::env::temp_dir().join(format!("sand_spill_fetch_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = EngineConfig {
            tasks: vec![parse_task_config(TASK).unwrap()],
            prematerialize: true,
            total_epochs: 2,
            epochs_per_chunk: 2,
            store_dir: Some(dir.clone()),
            store: StoreConfig {
                // Small memory + horizon 0 pushes everything to disk.
                memory_budget: 4 << 20,
                disk_budget: 512 << 20,
                evict_watermark: 0.75,
                memory_horizon: 0,
                ..Default::default()
            },
            telemetry: Some(TelemetryConfig::default()),
            ..Default::default()
        };
        let e = SandEngine::new(config, dataset()).unwrap();
        e.start().unwrap();
        e.wait_idle();
        // Pick a persisted source-frame object (key shape `vNNNN/fNNNNN`)
        // living on the disk tier. Horizon 0 pushes frames to disk, but
        // ones whose deadline equals the current clock keep a memory
        // copy, so filter by tier rather than assuming.
        let key = e
            .store()
            .keys()
            .into_iter()
            .find(|k| {
                k.contains("/f") && !k.contains("/a") && e.store().tier_of(k) == Some(Tier::Disk)
            })
            .expect("pre-materialization spilled no frame objects to disk");
        let video: u64 = key[1..5].parse().unwrap();
        let frame: usize = key[7..12].parse().unwrap();
        // Fetching the frame view must be served from the compressed
        // cache: zero new decoder work, one disk hit counted.
        let vfs = e.mount();
        let decoded_before = e.stats().decode.frames_decoded;
        let fd = vfs
            .open(&format!("/train/video{video:04}/frame{frame}"))
            .unwrap();
        let bytes = vfs.read_to_end(fd).unwrap();
        vfs.close(fd).unwrap();
        assert!(decompress_frame(&bytes).is_ok());
        assert_eq!(
            e.stats().decode.frames_decoded,
            decoded_before,
            "spilled frame went back through the decoder"
        );
        let snap = e.metrics_snapshot().expect("telemetry enabled");
        assert_eq!(snap.counter("engine.compressed_hits_disk"), Some(1));
        assert_eq!(snap.counter("vfs.fetches"), Some(1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parallel_materialize_matches_sequential() {
        let run = |aug_threads: usize| {
            let config = EngineConfig {
                tasks: vec![parse_task_config(TASK).unwrap()],
                prematerialize: true,
                total_epochs: 2,
                epochs_per_chunk: 2,
                aug_threads,
                sched: SchedConfig {
                    threads: 4,
                    ..Default::default()
                },
                ..Default::default()
            };
            let e = SandEngine::new(config, dataset()).unwrap();
            e.start().unwrap();
            e.wait_idle();
            let mut batches = Vec::new();
            for epoch in 0..2 {
                for it in 0..2 {
                    batches.push(e.serve_batch("train", epoch, it).unwrap());
                }
            }
            (batches, e.stats().aug_ops_applied)
        };
        let (seq, seq_ops) = run(1);
        let (par, par_ops) = run(4);
        assert_eq!(seq, par, "parallel materialize changed served bytes");
        assert_eq!(
            seq_ops, par_ops,
            "parallel materialize changed the op count (duplicated or \
             skipped chain work)"
        );
    }
}
