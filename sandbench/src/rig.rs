//! Builds a workload's engines and the lanes trainers read through.
//!
//! A *rig* is one fresh set of engines for one pass: a single engine, a
//! `Fleet` over one engine, or two engine nodes joined by `ViewServer` +
//! `RemoteTier` on loopback. A *lane* is what one trainer reads: an
//! engine to mount, a task tag, and which iterations of an epoch are its.

use crate::workloads::{Spec, Topology, SCHED_THREADS, STORE_SHARDS};
use sand_codec::Dataset;
use sand_config::{parse_task_config, TaskConfig};
use sand_core::fleet::fleet_tag;
use sand_core::{EngineConfig, Fleet, FleetConfig, SandEngine, TelemetryConfig, TenantSpec};
use sand_net::{PeerSpec, RemoteTierConfig, ServerConfig, ServerHandle, ViewServer};
use sand_sched::SchedConfig;
use sand_storage::{StoreConfig, SyncPolicy};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

pub type BoxError = Box<dyn std::error::Error + Send + Sync>;

/// What one trainer reads.
#[derive(Clone)]
pub struct Lane {
    pub engine: SandEngine,
    /// Task tag as the engine knows it (tenant-namespaced under `Fleet`).
    pub task: String,
    /// Index of the task in the workload's task list.
    pub task_index: usize,
    /// This lane serves iterations `offset, offset + stride, ...`.
    pub stride: u64,
    pub offset: u64,
    /// Iterations per epoch of the task (all lanes together).
    pub iters_per_epoch: u64,
    /// Samples per batch, for the GPU model's reference batch size.
    pub batch_size: usize,
}

impl Lane {
    /// Iterations per epoch this lane serves.
    #[must_use]
    pub fn local_iters(&self) -> u64 {
        (self.iters_per_epoch + self.stride - 1 - self.offset) / self.stride
    }

    /// Global iteration of this lane's `local`-th batch of an epoch.
    #[must_use]
    pub fn global_iteration(&self, local: u64) -> u64 {
        local * self.stride + self.offset
    }
}

/// Per-pass engine options.
#[derive(Clone, Debug, Default)]
pub struct RigOptions {
    /// `Some(cap)` turns engine telemetry on, retaining `cap` traces.
    pub trace_cap: Option<usize>,
    /// Value-log directory (only honoured when the workload spills).
    pub store_dir: Option<PathBuf>,
}

/// One pass's engines.
pub struct Rig {
    pub engines: Vec<SandEngine>,
    pub lanes: Vec<Lane>,
    /// `SandEngine::new` (or `Fleet::new`, which also starts) for every
    /// node, seconds.
    pub engine_new_s: f64,
    /// `start` plus, on the two-node workload, bringing the servers up.
    pub engine_start_s: f64,
    // Dropped after the engines' lanes are gone: servers hold engine
    // clones and must stop before the process exits.
    servers: Vec<ServerHandle>,
    _fleet: Option<Fleet>,
}

impl Drop for Rig {
    fn drop(&mut self) {
        for s in &mut self.servers {
            s.shutdown();
        }
    }
}

/// The workload's tasks, parsed.
pub fn parsed_tasks(spec: &Spec) -> Result<Vec<TaskConfig>, BoxError> {
    spec.tasks
        .iter()
        .map(|t| parse_task_config(t.yaml).map_err(Into::into))
        .collect()
}

/// The workload's tasks under the tags they are planned by: their own,
/// or `tenant.tag` under `Fleet`. The planner keys its shuffles by tag,
/// so whoever wants the same batches must plan under the same tags.
pub fn planned_tasks(spec: &Spec) -> Result<Vec<TaskConfig>, BoxError> {
    let mut tasks = parsed_tasks(spec)?;
    if spec.topology == Topology::Fleet {
        for (def, task) in spec.tasks.iter().zip(&mut tasks) {
            task.tag = fleet_tag(def.tenant, &task.tag);
        }
    }
    Ok(tasks)
}

fn telemetry(opts: &RigOptions) -> Option<TelemetryConfig> {
    opts.trace_cap.map(|cap| TelemetryConfig {
        trace_cap: cap,
        stall_budget_us: 0,
        ..Default::default()
    })
}

fn base_config(spec: &Spec, seed: u64, total_epochs: u64, opts: &RigOptions) -> EngineConfig {
    EngineConfig {
        store: StoreConfig {
            memory_budget: spec.memory_budget,
            shards: STORE_SHARDS,
            sync: SyncPolicy::Never,
            ..Default::default()
        },
        store_dir: if spec.disk {
            opts.store_dir.clone()
        } else {
            None
        },
        sched: SchedConfig {
            threads: SCHED_THREADS,
            ..Default::default()
        },
        seed,
        epochs_per_chunk: spec.epochs_per_chunk,
        total_epochs,
        cache_budget: spec.cache_budget,
        prefetch_depth: spec.prefetch_depth,
        telemetry: telemetry(opts),
        ..Default::default()
    }
}

/// The sequential reference: one worker, demand-only, no prefetch, no
/// disk, no remote, untenanted, budgets that never force an eviction
/// inside a chunk. Every pass must serve the bytes this engine serves.
pub fn reference_engine(
    spec: &Spec,
    dataset: &Arc<Dataset>,
    seed: u64,
    total_epochs: u64,
) -> Result<SandEngine, BoxError> {
    let engine = SandEngine::new(
        EngineConfig {
            tasks: planned_tasks(spec)?,
            store: StoreConfig {
                memory_budget: 512 << 20,
                shards: 1,
                ..Default::default()
            },
            sched: SchedConfig {
                threads: 1,
                ..Default::default()
            },
            seed,
            epochs_per_chunk: spec.epochs_per_chunk,
            total_epochs,
            cache_budget: 512 << 20,
            // Nothing to prune under ample budgets; skipping the pass
            // only makes the reference cheaper to build.
            prune: false,
            prematerialize: false,
            lint: sand_core::LintLevel::Off,
            ..Default::default()
        },
        Arc::clone(dataset),
    )?;
    engine.start()?;
    Ok(engine)
}

fn lane(
    engine: &SandEngine,
    task_index: usize,
    task: &str,
    cfg: &TaskConfig,
    stride: u64,
    offset: u64,
) -> Lane {
    Lane {
        engine: engine.clone(),
        task: task.to_string(),
        task_index,
        stride,
        offset,
        iters_per_epoch: engine.iterations_per_epoch(task).unwrap_or(0),
        batch_size: cfg.sampling.videos_per_batch * cfg.sampling.samples_per_video,
    }
}

impl Rig {
    /// Brings the workload's engines up over `dataset`, timing `new` and
    /// `start` apart.
    pub fn build(
        spec: &Spec,
        dataset: &Arc<Dataset>,
        seed: u64,
        total_epochs: u64,
        opts: &RigOptions,
    ) -> Result<Rig, BoxError> {
        let tasks = parsed_tasks(spec)?;
        let tags: Vec<String> = planned_tasks(spec)?.into_iter().map(|t| t.tag).collect();
        match spec.topology {
            Topology::Single => {
                let t0 = Instant::now();
                let engine = SandEngine::new(
                    EngineConfig {
                        tasks: tasks.clone(),
                        ..base_config(spec, seed, total_epochs, opts)
                    },
                    Arc::clone(dataset),
                )?;
                let engine_new_s = t0.elapsed().as_secs_f64();
                let t1 = Instant::now();
                engine.start()?;
                let engine_start_s = t1.elapsed().as_secs_f64();
                let lanes = tasks
                    .iter()
                    .zip(&tags)
                    .enumerate()
                    .map(|(i, (cfg, tag))| lane(&engine, i, tag, cfg, 1, 0))
                    .collect();
                Ok(Rig {
                    engines: vec![engine],
                    lanes,
                    engine_new_s,
                    engine_start_s,
                    servers: Vec::new(),
                    _fleet: None,
                })
            }
            Topology::Fleet => {
                // `Fleet::new` admits, builds and starts in one call, so
                // the whole of it is booked as `engine_new_s`.
                let t0 = Instant::now();
                let fleet = Fleet::new(
                    FleetConfig {
                        base: base_config(spec, seed, total_epochs, opts),
                        tenants: spec
                            .tasks
                            .iter()
                            .zip(&tasks)
                            .map(|(def, cfg)| TenantSpec {
                                name: def.tenant.to_string(),
                                weight: def.weight,
                                tasks: vec![cfg.clone()],
                            })
                            .collect(),
                        admission_budget: 0,
                    },
                    Arc::clone(dataset),
                )?;
                let engine_new_s = t0.elapsed().as_secs_f64();
                if let Some(r) = fleet.rejected().first() {
                    return Err(format!("tenant {} rejected: {}", r.name, r.reason).into());
                }
                let engine = fleet.engine().clone();
                let lanes = tasks
                    .iter()
                    .zip(&tags)
                    .enumerate()
                    .map(|(i, (cfg, tag))| lane(&engine, i, tag, cfg, 1, 0))
                    .collect();
                Ok(Rig {
                    engines: vec![engine],
                    lanes,
                    engine_new_s,
                    engine_start_s: 0.0,
                    servers: Vec::new(),
                    _fleet: Some(fleet),
                })
            }
            Topology::Ddp => {
                const NODES: usize = 2;
                // Bind every listener first so each node knows its peer's
                // address before any engine exists.
                let listeners: Vec<TcpListener> = (0..NODES)
                    .map(|_| TcpListener::bind("127.0.0.1:0"))
                    .collect::<std::io::Result<_>>()?;
                let addrs: Vec<_> = listeners
                    .iter()
                    .map(TcpListener::local_addr)
                    .collect::<std::io::Result<_>>()?;
                let t0 = Instant::now();
                let mut engines = Vec::with_capacity(NODES);
                for i in 0..NODES {
                    let remote = RemoteTierConfig {
                        node_id: format!("node{i}"),
                        peers: (0..NODES)
                            .filter(|&j| j != i)
                            .map(|j| PeerSpec {
                                node_id: format!("node{j}"),
                                addr: addrs[j],
                            })
                            .collect(),
                        ..Default::default()
                    };
                    engines.push(SandEngine::new(
                        EngineConfig {
                            tasks: tasks.clone(),
                            remote: Some(remote),
                            ..base_config(spec, seed, total_epochs, opts)
                        },
                        Arc::clone(dataset),
                    )?);
                }
                let engine_new_s = t0.elapsed().as_secs_f64();
                let t1 = Instant::now();
                let mut servers = Vec::with_capacity(NODES);
                for (engine, listener) in engines.iter().zip(listeners) {
                    servers.push(ViewServer::serve_on(
                        listener,
                        Arc::new(engine.clone()),
                        Some(Arc::clone(engine.store())),
                        ServerConfig {
                            workers: SCHED_THREADS,
                            ..Default::default()
                        },
                        engine.telemetry(),
                    )?);
                }
                for engine in &engines {
                    engine.start()?;
                }
                let engine_start_s = t1.elapsed().as_secs_f64();
                let lanes = engines
                    .iter()
                    .enumerate()
                    .map(|(i, e)| lane(e, 0, &tags[0], &tasks[0], NODES as u64, i as u64))
                    .collect();
                Ok(Rig {
                    engines,
                    lanes,
                    engine_new_s,
                    engine_start_s,
                    servers,
                    _fleet: None,
                })
            }
        }
    }
}
