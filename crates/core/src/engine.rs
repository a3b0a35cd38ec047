//! The SAND engine: its shared state and public handle.
//!
//! What the engine *does* lives beside this file, one responsibility
//! each: `config` (configuration and the startup lint), `chunk`
//! (planning), `materialize` (lookup → decode/augment), `serve` (batch
//! assembly and prefetch) and `views` (the `ViewProvider` face).

pub use crate::config::EngineConfig;

use crate::chunk::Chunks;
use crate::flight::Flight;
use crate::materialize::Object;
use crate::prefetch::Prefetcher;
use crate::{invalid, Result};
use sand_codec::{Dataset, DecodeStats};
use sand_net::RemoteTier;
use sand_sanitizer::TrackedMutex;
use sand_sched::Scheduler;
use sand_storage::ObjectStore;
use sand_telemetry::{
    CodecMetrics, EngineMetrics, FleetMetrics, MaterializeMetrics, PrefetchMetrics, SchedMetrics,
    Snapshot, StallReport, StoreMetrics, Telemetry, TenantMetrics, VfsMetrics,
};
use sand_vfs::SandVfs;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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
    pub(crate) task_ids: HashMap<String, u32>,
    pub(crate) decode_stats: TrackedMutex<DecodeStats>,
    pub(crate) aug_ops_applied: AtomicU64,
    pub(crate) batches_served: AtomicU64,
    /// The epoch-ahead prefetcher (inert at `prefetch_depth = 0`).
    pub(crate) prefetcher: Prefetcher,
    /// Serialized size of the most recently served batch, the
    /// back-pressure estimate for in-flight prefetch bytes.
    pub(crate) last_batch_bytes: AtomicU64,
    pub(crate) telemetry: Telemetry,
    pub(crate) engine_metrics: Option<EngineMetrics>,
    pub(crate) mat_metrics: Option<MaterializeMetrics>,
    pub(crate) codec_metrics: Option<CodecMetrics>,
    /// The cluster cache tier (`None` unless `EngineConfig::remote`).
    pub(crate) remote: Option<Arc<RemoteTier>>,
    /// The engine's one singleflight over canonical object keys
    /// ([`crate::store_key`]): concurrent materializations of the same
    /// object — within a pass and across passes, tenants, serve paths and
    /// view reads — collapse to one lookup-or-computation, the losers
    /// adopting the winner's `Arc`s zero-copy.
    pub(crate) flight: Flight<String, Object>,
    /// The engine's tenants and which task belongs to whom.
    pub(crate) tenancy: TenancyRuntime,
    /// Dedup and admission metrics (`None` unless telemetry).
    pub(crate) fleet_metrics: Option<FleetMetrics>,
}

/// One tenant on an engine's roster. Its weight is its share of the
/// scheduler's demand band. Its name labels its traces and keys its
/// `tenant.<name>.*` metrics; the empty name (the bare engine's one
/// tenant; a fleet rejects it) labels and keys nothing.
pub(crate) struct TenantId {
    pub(crate) name: String,
    pub(crate) weight: u64,
}

/// Per-engine tenant attribution: which tenant each task belongs to and
/// each tenant's trace label + metric handles.
pub(crate) struct TenancyRuntime {
    /// `task_id` → tenant index.
    pub(crate) task_tenant: Vec<u32>,
    pub(crate) tenants: Vec<TenantRuntime>,
}

pub(crate) struct TenantRuntime {
    /// The trace label; `None` for an unnamed tenant.
    pub(crate) label: Option<String>,
    pub(crate) metrics: Option<TenantMetrics>,
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
    pub(crate) inner: Arc<Inner>,
}

impl SandEngine {
    /// Creates an engine over a dataset: a fleet of one, whose one
    /// unnamed tenant of weight 1 owns every task under its own tag.
    ///
    /// With a `store_dir` containing objects from a previous run, the
    /// engine adopts them (recovery): the deterministic plan re-derives
    /// the same keys, so surviving objects are never recomputed.
    pub fn new(config: EngineConfig, dataset: Arc<Dataset>) -> Result<Self> {
        let solo = TenantId {
            name: String::new(),
            weight: 1,
        };
        let task_tenant = vec![0; config.tasks.len()];
        Self::with_roster(config, dataset, vec![solo], task_tenant)
    }

    /// Creates an engine whose `tenants` share it, task `i` of
    /// `config.tasks` belonging to `tenants[task_tenant[i]]`.
    pub(crate) fn with_roster(
        config: EngineConfig,
        dataset: Arc<Dataset>,
        tenants: Vec<TenantId>,
        task_tenant: Vec<u32>,
    ) -> Result<Self> {
        if config.tasks.is_empty() {
            return invalid("tasks", "no tasks configured");
        }
        for (field, epochs) in [
            ("epochs_per_chunk", config.epochs_per_chunk),
            ("total_epochs", config.total_epochs),
        ] {
            if epochs == 0 {
                return invalid(field, "epochs must be nonzero");
            }
        }
        let mut task_ids = HashMap::new();
        for (i, t) in config.tasks.iter().enumerate() {
            t.validate()?;
            if task_ids.insert(t.tag.clone(), i as u32).is_some() {
                return invalid("tasks.tag", format!("duplicate task tag `{}`", t.tag));
            }
        }
        // A ring of this node alone: every fetch would short-circuit and
        // every offer would be a no-op.
        if config.remote.as_ref().is_some_and(|r| r.peers.is_empty()) {
            return invalid("remote.peers", "the remote tier needs at least one peer");
        }
        let telemetry = config
            .telemetry
            .clone()
            .map_or_else(Telemetry::disabled, Telemetry::new);
        let store = Arc::new(ObjectStore::open(config.store, config.store_dir.clone())?);
        if let Some(m) = StoreMetrics::register(&telemetry, store.shard_count()) {
            store.set_metrics(m);
        }
        let sched = Scheduler::with_metrics(config.sched, SchedMetrics::register(&telemetry));
        let weights: Vec<u64> = tenants.iter().map(|t| t.weight).collect();
        sched.set_tenant_weights(&weights);
        let tenancy = TenancyRuntime {
            task_tenant,
            tenants: tenants
                .into_iter()
                .map(|t| {
                    let label = (!t.name.is_empty()).then_some(t.name);
                    TenantRuntime {
                        metrics: label
                            .as_deref()
                            .and_then(|name| TenantMetrics::register(&telemetry, name)),
                        label,
                    }
                })
                .collect(),
        };
        let inner = Arc::new(Inner {
            store,
            sched,
            chunks: Chunks::new(config.tasks.len()),
            task_ids,
            decode_stats: TrackedMutex::new("engine.decode_stats", DecodeStats::default()),
            aug_ops_applied: AtomicU64::new(0),
            batches_served: AtomicU64::new(0),
            prefetcher: Prefetcher::new(
                config.prefetch_depth,
                PrefetchMetrics::register(&telemetry),
            ),
            last_batch_bytes: AtomicU64::new(0),
            engine_metrics: EngineMetrics::register(&telemetry),
            mat_metrics: MaterializeMetrics::register(&telemetry),
            codec_metrics: CodecMetrics::register(&telemetry),
            remote: config
                .remote
                .clone()
                .map(|rc| Arc::new(RemoteTier::new(rc, &telemetry))),
            flight: Flight::new("engine.flight.slots", "engine.flight.done"),
            tenancy,
            fleet_metrics: FleetMetrics::register(&telemetry),
            telemetry,
            config,
            dataset,
        });
        Ok(SandEngine { inner })
    }

    /// Runs the startup lint pass (per `EngineConfig::lint`), then plans
    /// the first chunk and kicks off pre-materialization.
    pub fn start(&self) -> Result<()> {
        self.lint_check()?;
        self.inner.ensure_chunk(0)?;
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
        self.inner.serve_batch(task, epoch, iteration)
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
        let chunk = self.inner.ensure_chunk(epoch)?;
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

    /// The cluster remote tier (`None` for single-process engines).
    #[must_use]
    pub fn remote_tier(&self) -> Option<&Arc<RemoteTier>> {
        self.inner.remote.as_ref()
    }

    /// Per-tenant scheduler shares — weight, virtual time, accumulated
    /// busy nanoseconds — in roster order; a bare engine has one.
    #[must_use]
    pub fn tenant_shares(&self) -> Vec<sand_sched::TenantShare> {
        self.inner.sched.tenant_shares()
    }

    /// The chunk table, for retention tests.
    #[cfg(test)]
    pub(crate) fn inner_chunks(&self) -> &Chunks {
        &self.inner.chunks
    }
}

impl Inner {
    /// Reports store memory pressure to the scheduler.
    pub(crate) fn report_pressure(&self) {
        let stats = self.store.stats();
        let frac = stats.memory_bytes as f64 / self.config.store.memory_budget as f64;
        self.sched.set_memory_pressure(frac);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sand_codec::{DatasetSpec, EncoderConfig};
    use sand_config::parse_task_config;
    use sand_storage::StoreConfig;
    use sand_telemetry::TelemetryConfig;

    pub(crate) const TASK: &str = r#"
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

    pub(crate) fn dataset() -> Arc<Dataset> {
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

    pub(crate) fn engine(prematerialize: bool) -> SandEngine {
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

    /// The singleflight's `fleet.dedup_*` metrics count on every traced
    /// engine, not only under a `Fleet`.
    #[test]
    fn a_traced_bare_engine_counts_dedup() {
        let config = EngineConfig {
            tasks: vec![parse_task_config(TASK).unwrap()],
            prematerialize: false,
            telemetry: Some(TelemetryConfig::default()),
            ..Default::default()
        };
        let e = SandEngine::new(config, dataset()).unwrap();
        e.start().unwrap();
        e.serve_batch("train", 0, 0).unwrap();
        let snap = e.metrics_snapshot().unwrap();
        assert!(snap.counter("fleet.dedup_wins").unwrap_or(0) > 0);
    }
}
