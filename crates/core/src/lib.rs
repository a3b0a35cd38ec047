//! The SAND engine: planning, materialization, serving, and recovery.
//!
//! This crate ties the workspace together into the system the paper
//! describes. A [`engine::SandEngine`]:
//!
//! 1. compiles every task's configuration into per-task abstract view
//!    dependency graphs and, chunk by chunk (`k` epochs at a time), into a
//!    unified concrete object dependency graph (`sand-graph`),
//! 2. prunes the cached-object set to the storage budget (Algorithm 1),
//! 3. drives a priority-scheduled worker pool (`sand-sched`) that
//!    pre-materializes objects into the tiered store (`sand-storage`)
//!    ahead of their deadlines while demand-feeding the batch the trainer
//!    is blocked on,
//! 4. serves everything through the POSIX-style view filesystem
//!    (`sand-vfs`): `open("/task/epoch/iter/view")` → `read` → tensors.
//!
//! Fault tolerance follows the paper's three-step recovery: the plan is
//! regenerated deterministically from configs and seed, the disk tier is
//! scanned for surviving objects, and only the gaps are recomputed.

#![cfg_attr(test, allow(clippy::unwrap_used))]

mod chunk;
mod cluster;
mod config;
pub mod engine;
pub mod fleet;
mod flight;
pub mod keys;
mod materialize;
mod prefetch;
mod serve;
pub mod service;
mod views;

pub use engine::{EngineConfig, EngineStats, SandEngine};
pub use fleet::{Fleet, FleetConfig, RejectedTenant, TenantSpec};
pub use keys::store_key;
pub use sand_lint::LintLevel;
pub use sand_sched::TenantShare;
pub use sand_telemetry::{
    LoaderMetrics, MetricValue, Snapshot, StallReport, Telemetry, TelemetryConfig,
};
pub use service::{AugClient, AugService, CustomOp};

use std::fmt;

/// Errors produced by the engine.
#[derive(Debug)]
pub enum CoreError {
    /// Configuration failed validation.
    Config(sand_config::ConfigError),
    /// Planning failed.
    Graph(sand_graph::GraphError),
    /// Codec failure while materializing.
    Codec(sand_codec::CodecError),
    /// Frame/tensor failure while materializing.
    Frame(sand_frame::FrameError),
    /// Storage failure.
    Storage(sand_storage::StorageError),
    /// A requested view is not part of any plan.
    UnknownView {
        /// Human-readable description.
        what: String,
    },
    /// A configuration no engine can run, rejected by the constructor
    /// that reads the field, whatever the `LintLevel`.
    InvalidConfig {
        /// The offending field, as a dotted config path.
        field: &'static str,
        /// Why the value cannot run.
        reason: String,
    },
    /// The job that owed a sample panicked before delivering it. The
    /// worker survives the panic; the sample does not.
    JobPanicked,
    /// The job that owed a sample was dropped without delivering it and
    /// without a panic (its queue went away, or it never ran).
    JobLost,
    /// A fleet serve for a tenant that was cancelled.
    TenantCancelled {
        /// The cancelled tenant's name.
        tenant: String,
    },
    /// Engine state error (e.g. epoch beyond `total_epochs`).
    State {
        /// Human-readable description.
        what: String,
    },
    /// The startup lint pass found deny-severity problems.
    Lint {
        /// Number of deny-severity findings.
        denies: usize,
        /// The rendered lint report.
        report: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Config(e) => write!(f, "config: {e}"),
            CoreError::Graph(e) => write!(f, "planning: {e}"),
            CoreError::Codec(e) => write!(f, "codec: {e}"),
            CoreError::Frame(e) => write!(f, "frame: {e}"),
            CoreError::Storage(e) => write!(f, "storage: {e}"),
            CoreError::UnknownView { what } => write!(f, "unknown view: {what}"),
            CoreError::InvalidConfig { field, reason } => {
                write!(f, "invalid config `{field}`: {reason}")
            }
            CoreError::JobPanicked => write!(f, "the job building a sample panicked"),
            CoreError::JobLost => write!(f, "the job building a sample was lost"),
            CoreError::TenantCancelled { tenant } => write!(f, "tenant `{tenant}` is cancelled"),
            CoreError::State { what } => write!(f, "engine state: {what}"),
            CoreError::Lint { denies, report } => {
                write!(
                    f,
                    "lint rejected the configuration ({denies} deny finding(s)):\n{report}"
                )
            }
        }
    }
}

impl std::error::Error for CoreError {}

impl From<sand_config::ConfigError> for CoreError {
    fn from(e: sand_config::ConfigError) -> Self {
        CoreError::Config(e)
    }
}

impl From<sand_graph::GraphError> for CoreError {
    fn from(e: sand_graph::GraphError) -> Self {
        CoreError::Graph(e)
    }
}

impl From<sand_codec::CodecError> for CoreError {
    fn from(e: sand_codec::CodecError) -> Self {
        CoreError::Codec(e)
    }
}

impl From<sand_frame::FrameError> for CoreError {
    fn from(e: sand_frame::FrameError) -> Self {
        CoreError::Frame(e)
    }
}

impl From<sand_storage::StorageError> for CoreError {
    fn from(e: sand_storage::StorageError) -> Self {
        CoreError::Storage(e)
    }
}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;

/// A constructor's rejection of `field`.
pub(crate) fn invalid<T>(field: &'static str, reason: impl Into<String>) -> Result<T> {
    Err(CoreError::InvalidConfig {
        field,
        reason: reason.into(),
    })
}
