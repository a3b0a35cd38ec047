//! Multi-tenant fleet front-end: K heterogeneous jobs, one engine.
//!
//! A [`Fleet`] admits several tenants — each a named bundle of task
//! configs with a QoS weight — against a *single* [`SandEngine`]
//! instance, so the engine's cross-task merging (Sec. 4 of the paper)
//! extends across tenants: a decode or augmentation ancestor shared by
//! two tenants' pipelines materializes at most once fleet-wide, however
//! many tenants race for it (the engine's singleflight claim map makes
//! concurrent duplicates collapse; the shared store makes serial ones
//! hit cache).
//!
//! Three mechanisms compose:
//!
//! 1. **Namespaced union planning** — every tenant's task tags are
//!    prefixed `"<tenant>.<tag>"` and the union is planned as one
//!    workload. Planning draws are task-set- and tag-independent, so a
//!    tenant's served bytes are bit-identical to the same tasks run on
//!    an isolated engine with the same seed (`tests/fleet.rs` pins
//!    this).
//! 2. **Admission control** — tenants are admitted in submission order
//!    while the running sum of their working-set estimates fits the
//!    admission budget; the rest are rejected up front with a reason,
//!    never degrading already-admitted tenants.
//! 3. **Weighted QoS** — admitted tenants' weights are installed on the
//!    scheduler's virtual-time ledger, so demand capacity divides in
//!    weight proportion under contention while `tenant.<id>.*` metrics
//!    and per-tenant stall sections attribute what each tenant got.
//!
//! A bare [`SandEngine`] is the same engine with a roster of one: an
//! unnamed tenant of weight 1 that owns every task under its own tag.

use crate::engine::{EngineConfig, SandEngine, TenantId};
use crate::{invalid, CoreError, Result};
use sand_codec::Dataset;
use sand_config::TaskConfig;
use sand_sched::TenantShare;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// One tenant submitted to the fleet: a name, a QoS weight, and the
/// tasks it wants to run.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Fleet-unique tenant name.
    pub name: String,
    /// QoS weight (>= 1); demand capacity divides proportionally under
    /// contention.
    pub weight: u64,
    /// The tenant's tasks, with *their own* tags (the fleet namespaces
    /// them before planning).
    pub tasks: Vec<TaskConfig>,
}

/// Fleet configuration: a base engine config plus the tenant roster.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Engine settings shared by every tenant. `tasks` is overwritten by
    /// the fleet (the union of admitted tenants' namespaced tasks).
    pub base: EngineConfig,
    /// Tenants in submission order (admission considers them in order).
    pub tenants: Vec<TenantSpec>,
    /// Admission working-set budget in bytes; `0` uses the store's
    /// memory budget. [`Fleet::new`] rejects a budget above the store's:
    /// admission would promise memory the store does not have.
    pub admission_budget: u64,
}

/// A tenant turned away by admission control.
#[derive(Debug, Clone)]
pub struct RejectedTenant {
    /// The tenant's name.
    pub name: String,
    /// Its working-set estimate in bytes.
    pub estimate: u64,
    /// Human-readable rejection reason.
    pub reason: String,
}

struct AdmittedTenant {
    name: String,
    estimate: u64,
    cancelled: AtomicBool,
}

/// The multi-tenant front-end over one shared engine.
pub struct Fleet {
    engine: SandEngine,
    admitted: Vec<AdmittedTenant>,
    rejected: Vec<RejectedTenant>,
    budget: u64,
}

/// The namespaced task tag a tenant's task is planned under.
#[must_use]
pub fn fleet_tag(tenant: &str, tag: &str) -> String {
    format!("{tenant}.{tag}")
}

impl Fleet {
    /// Admits tenants against the working-set budget, builds the union
    /// engine over the admitted set, and starts it.
    pub fn new(config: FleetConfig, dataset: Arc<Dataset>) -> Result<Fleet> {
        if config.tenants.is_empty() {
            return invalid("tenants", "fleet has no tenants");
        }
        let mut seen = std::collections::HashSet::new();
        for t in &config.tenants {
            if t.name.is_empty() {
                return invalid("tenants.name", "tenant with empty name");
            }
            if !seen.insert(t.name.as_str()) {
                return invalid(
                    "tenants.name",
                    format!("duplicate tenant name `{}`", t.name),
                );
            }
            if t.tasks.is_empty() {
                return invalid("tenants.tasks", format!("tenant `{}` has no tasks", t.name));
            }
            if t.weight == 0 {
                return invalid(
                    "tenants.weight",
                    format!("tenant `{}` has weight 0", t.name),
                );
            }
        }
        let memory_budget = config.base.store.memory_budget;
        if config.admission_budget > memory_budget {
            return invalid(
                "admission_budget",
                format!(
                    "{} B exceeds the store's {memory_budget} B memory budget",
                    config.admission_budget
                ),
            );
        }
        let budget = if config.admission_budget == 0 {
            memory_budget
        } else {
            config.admission_budget
        };
        // Admission in submission order: a tenant is admitted iff its
        // working set still fits what the budget has left. Later, smaller
        // tenants may still fit after a large rejection — admission never
        // punishes them for an earlier tenant's appetite.
        let mut admitted = Vec::new();
        let mut specs: Vec<&TenantSpec> = Vec::new();
        let mut rejected = Vec::new();
        let mut used = 0u64;
        for t in &config.tenants {
            let estimate = Self::working_set_estimate(t, &dataset);
            if used.saturating_add(estimate) > budget {
                rejected.push(RejectedTenant {
                    name: t.name.clone(),
                    estimate,
                    reason: format!(
                        "working-set estimate {estimate} B exceeds the {} B left of the \
                         {budget} B admission budget",
                        budget - used
                    ),
                });
                continue;
            }
            used += estimate;
            admitted.push(AdmittedTenant {
                name: t.name.clone(),
                estimate,
                cancelled: AtomicBool::new(false),
            });
            specs.push(t);
        }
        if admitted.is_empty() {
            return invalid(
                "admission_budget",
                format!(
                    "admission rejected every tenant (budget {budget} B): {}",
                    rejected
                        .iter()
                        .map(|r| format!("{} ({} B)", r.name, r.estimate))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            );
        }
        // Union workload: every admitted tenant's tasks, tags namespaced
        // so identical per-tenant configs coexist in one plan.
        let mut tasks = Vec::new();
        let mut task_tenant = Vec::new();
        let mut tenants = Vec::new();
        for (idx, spec) in specs.iter().enumerate() {
            tenants.push(TenantId {
                name: spec.name.clone(),
                weight: spec.weight,
            });
            for task in &spec.tasks {
                let mut task = task.clone();
                task.tag = fleet_tag(&spec.name, &task.tag);
                task_tenant.push(idx as u32);
                tasks.push(task);
            }
        }
        let mut engine_config = config.base;
        engine_config.tasks = tasks;
        let engine = SandEngine::with_roster(engine_config, dataset, tenants, task_tenant)?;
        engine.start()?;
        let m = &engine.inner.fleet_metrics;
        m.admitted.set(admitted.len() as i64);
        m.rejected.add(rejected.len() as u64);
        Ok(Fleet {
            engine,
            admitted,
            rejected,
            budget,
        })
    }

    /// A tenant's working-set estimate: per task, the raw f32 bytes of
    /// one in-flight batch (`videos_per_batch x frames_per_video` frames
    /// at the dataset's largest frame geometry) — the floor of what the
    /// store must hold to feed the tenant's demand path at all.
    fn working_set_estimate(spec: &TenantSpec, dataset: &Dataset) -> u64 {
        let frame_bytes: u64 = dataset
            .videos()
            .iter()
            .map(|v| {
                let h = &v.encoded.header;
                (h.width as u64) * (h.height as u64) * h.format.channels() as u64
            })
            .max()
            .unwrap_or(0);
        spec.tasks
            .iter()
            .map(|t| {
                (t.sampling.videos_per_batch as u64)
                    * (t.sampling.frames_per_video as u64)
                    * frame_bytes
                    * 4
            })
            .sum()
    }

    /// Serves one batch on behalf of `tenant` (its *original* task tag,
    /// pre-namespacing). Rejected tenants get [`CoreError::UnknownView`];
    /// cancelled tenants get [`CoreError::TenantCancelled`].
    pub fn serve_batch(
        &self,
        tenant: &str,
        task: &str,
        epoch: u64,
        iteration: u64,
    ) -> Result<Vec<u8>> {
        let t = self
            .admitted
            .iter()
            .find(|a| a.name == tenant)
            .ok_or_else(|| CoreError::UnknownView {
                what: format!("tenant `{tenant}` is not admitted"),
            })?;
        if t.cancelled.load(Ordering::Acquire) {
            return Err(CoreError::TenantCancelled {
                tenant: tenant.to_owned(),
            });
        }
        self.engine
            .serve_batch(&fleet_tag(tenant, task), epoch, iteration)
    }

    /// Cancels a tenant: subsequent serves error; in-flight serves
    /// complete. Other tenants are unaffected — materialization is
    /// per-node deterministic, so their bytes never depended on the
    /// cancelled tenant's progress. Returns `false` for unknown tenants.
    pub fn cancel(&self, tenant: &str) -> bool {
        match self.admitted.iter().find(|a| a.name == tenant) {
            Some(t) => {
                t.cancelled.store(true, Ordering::Release);
                true
            }
            None => false,
        }
    }

    /// Whether `tenant` was admitted (cancelled tenants stay admitted).
    #[must_use]
    pub fn is_admitted(&self, tenant: &str) -> bool {
        self.admitted.iter().any(|a| a.name == tenant)
    }

    /// Admitted tenant names with their working-set estimates, in
    /// admission order (the scheduler's tenant indices use this order).
    #[must_use]
    pub fn admitted(&self) -> Vec<(String, u64)> {
        self.admitted
            .iter()
            .map(|a| (a.name.clone(), a.estimate))
            .collect()
    }

    /// Tenants turned away by admission control.
    #[must_use]
    pub fn rejected(&self) -> &[RejectedTenant] {
        &self.rejected
    }

    /// The effective admission budget in bytes.
    #[must_use]
    pub fn admission_budget(&self) -> u64 {
        self.budget
    }

    /// Per-tenant scheduler shares (weight, virtual time, busy
    /// nanoseconds), in admission order.
    #[must_use]
    pub fn tenant_shares(&self) -> Vec<TenantShare> {
        self.engine.tenant_shares()
    }

    /// The shared engine (telemetry, stats, store access).
    #[must_use]
    pub fn engine(&self) -> &SandEngine {
        &self.engine
    }
}
