//! Device models for SAND experiments.
//!
//! The paper's evaluation metrics — training time, GPU utilization, GPU
//! memory headroom, energy — are all functions of *when batches become
//! available* relative to *when the GPU wants them*. This crate provides
//! the device models that close that loop without real hardware:
//!
//! - [`gpu`]: a GPU with per-model compute profiles, a device-memory model
//!   (decode-on-GPU steals memory → smaller max batch, Fig. 4), an NVDEC
//!   hardware-decoder throughput model, and busy/stall accounting,
//! - [`power`]: CPU/GPU power draw and energy integration (Figs. 5/15),
//! - [`scale`]: Section 3's paper-scale arithmetic (dataset blow-up,
//!   remote bandwidth, vCPUs needed).
//!
//! Real preprocessing work (the codec and augmentations are genuinely
//! executed) meets modeled GPU compute through a configurable
//! [`gpu::TimeScale`], so experiments run wall-clock-fast while keeping
//! the contention and stall dynamics real.

#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod gpu;
pub mod power;
pub mod scale;

pub use gpu::{GpuSim, GpuSpec, MemoryModel, ModelProfile, NvdecModel, TimeScale};
pub use power::{EnergyBreakdown, PowerModel, UsageWindow};
pub use scale::{CorpusSpec, TrainingSpec};

use std::fmt;

/// Errors produced by the simulation layer.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Invalid model parameters.
    InvalidConfig {
        /// Human-readable description.
        what: String,
    },
    /// The requested workload cannot fit on the device.
    DoesNotFit {
        /// Human-readable description.
        what: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig { what } => write!(f, "invalid sim config: {what}"),
            SimError::DoesNotFit { what } => write!(f, "does not fit: {what}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, SimError>;
