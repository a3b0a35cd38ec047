//! Engine configuration, and the startup lint pass assembled from it.

use crate::engine::{video_metas, SandEngine};
use crate::{CoreError, Result};
use sand_config::TaskConfig;
use sand_graph::{AbstractGraph, PlanInput, Planner, PlannerOptions};
use sand_lint::{lint_all, LintLevel, LintOptions};
use sand_net::RemoteTierConfig;
use sand_sched::SchedConfig;
use sand_storage::StoreConfig;
use sand_telemetry::TelemetryConfig;
use std::path::PathBuf;

/// Engine configuration.
///
/// Who shares the engine is not configuration: [`SandEngine::new`] runs
/// the tasks as one unnamed tenant of weight 1, and a
/// [`crate::fleet::Fleet`] passes its admitted roster to the engine it
/// builds. Either way the scheduler ranks demand work by the tenants'
/// virtual times; with one tenant that is plain EDF.
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
    /// Static-analysis level for the startup lint pass: `Off` skips it,
    /// `Warn` reports findings to stderr, `Deny` additionally fails
    /// startup on any deny-severity finding.
    pub lint: LintLevel,
    /// How many batch traces to keep and the stall budget they are
    /// judged against. Every engine traces every served batch, keeps the
    /// last `trace_cap` for `SandEngine::stall_report` and counts stalls
    /// against `stall_budget_us`; `None` (default) means
    /// `TelemetryConfig::default()`, so `None` and
    /// `Some(TelemetryConfig::default())` build the same engine. Every
    /// engine also counts into its registry
    /// (`SandEngine::metrics_snapshot`).
    pub telemetry: Option<TelemetryConfig>,
    /// Multi-node operation: `Some` joins a cluster of SAND engines on a
    /// consistent-hash placement ring and adds a **remote tier** below
    /// mem/disk — a local store miss consults the key's ring owner before
    /// materializing, and locally-computed remote-owned objects are
    /// pushed to their owner, so a shared-ancestor object materializes at
    /// most once cluster-wide. Degraded peers (timeouts, refused
    /// connections) fall back to local materialization — never a wrong
    /// answer. `None` (default) is single-process with zero overhead.
    pub remote: Option<RemoteTierConfig>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            tasks: Vec::new(),
            store: StoreConfig::default(),
            store_dir: None,
            sched: SchedConfig::default(),
            seed: 0x5a4d,
            epochs_per_chunk: 2,
            total_epochs: 4,
            cache_budget: 256 << 20,
            prune: true,
            naive_leaf_cache: false,
            aug_service: None,
            prematerialize: true,
            prefetch_depth: 0,
            lint: LintLevel::default(),
            telemetry: None,
            remote: None,
        }
    }
}

impl EngineConfig {
    /// The planner's view of the tasks: task ids are positions in `tasks`.
    pub(crate) fn plan_inputs(&self) -> Vec<PlanInput> {
        self.tasks
            .iter()
            .enumerate()
            .map(|(i, t)| PlanInput {
                task_id: i as u32,
                config: t.clone(),
            })
            .collect()
    }

    /// The domain and budgets the lint rules check the workload against,
    /// over a dataset of `videos` videos.
    fn lint_options(&self, videos: usize) -> LintOptions {
        LintOptions {
            total_epochs: self.total_epochs,
            iterations_per_epoch: self
                .tasks
                .iter()
                .map(|t| (videos as u64).div_ceil(t.sampling.videos_per_batch as u64))
                .max(),
            cache_budget: self.cache_budget,
            memory_budget: self.store.memory_budget,
            prefetch_depth: self.prefetch_depth,
        }
    }
}

impl SandEngine {
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
        let concrete = Planner::new(
            config.plan_inputs(),
            videos.clone(),
            PlannerOptions {
                seed: config.seed,
                coordinate: true,
                epochs: 0..config.epochs_per_chunk.min(config.total_epochs),
            },
        )
        .and_then(|p| p.plan())
        .ok();
        let report = lint_all(
            &config.tasks,
            &abstract_graphs,
            concrete.as_ref(),
            &videos,
            &config.lint_options(videos.len()),
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{dataset, engine, TASK};
    use sand_config::parse_task_config;

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

    /// A config that cannot run fails the constructor that reads the
    /// field, at every `LintLevel`: `Off` skips the lint pass and `Warn`
    /// only prints it, so neither may be what stops these.
    #[test]
    fn unrunnable_configs_fail_new_at_every_lint_level() {
        use crate::fleet::{Fleet, FleetConfig, TenantSpec};
        let dir = std::env::temp_dir().join(format!("sand_zero_disk_{}", std::process::id()));
        for lint in [LintLevel::Off, LintLevel::Warn] {
            let base = EngineConfig {
                tasks: vec![parse_task_config(TASK).unwrap()],
                prematerialize: false,
                store: StoreConfig {
                    memory_budget: 256 << 20,
                    ..Default::default()
                },
                lint,
                ..Default::default()
            };
            let fleet = |weight, admission_budget| {
                let tenants = vec![TenantSpec {
                    name: "solo".into(),
                    weight,
                    tasks: base.tasks.clone(),
                }];
                let config = FleetConfig {
                    base: base.clone(),
                    tenants,
                    admission_budget,
                };
                Fleet::new(config, dataset()).map(|_| ())
            };
            let engine = |edit: &dyn Fn(&mut EngineConfig)| {
                let mut config = base.clone();
                edit(&mut config);
                SandEngine::new(config, dataset()).map(|_| ())
            };
            let cases = [
                ("admission_budget", fleet(1, 512 << 20)),
                ("tenants.weight", fleet(0, 0)),
                (
                    "remote.peers",
                    engine(&|c| c.remote = Some(RemoteTierConfig::default())),
                ),
                (
                    "store.disk_budget",
                    engine(&|c| {
                        c.store_dir = Some(dir.clone());
                        c.store.disk_budget = 0;
                    }),
                ),
            ];
            for (field, got) in cases {
                match got {
                    Err(CoreError::InvalidConfig { field: f, .. }) => assert_eq!(f, field),
                    Err(CoreError::Storage(sand_storage::StorageError::InvalidConfig { what }))
                        if field == "store.disk_budget" =>
                    {
                        assert!(what.contains("disk budget"), "{what}");
                    }
                    other => panic!("{lint:?} {field}: expected a typed rejection, got {other:?}"),
                }
            }
        }
        assert!(
            !dir.exists(),
            "a rejected store must not create its directory"
        );
    }
}
