//! View dependency graphs and materialization planning for SAND.
//!
//! This crate implements the paper's Section 5.2–5.3 machinery:
//!
//! - [`abstract_graph`]: the per-task *abstract view dependency graph*, a
//!   small template derived from a task configuration whose nodes are view
//!   *types* (video → frame → augmented frame → batch) and whose edges are
//!   operations,
//! - [`pool`]: the *shared frame pool* that coordinates temporal
//!   randomness across tasks (GCD sampling grid, shared clip anchors),
//! - [`resolve`]: resolution of configured (possibly stochastic)
//!   augmentations into deterministic op chains using *coordinated draws*,
//!   so tasks with identical configurations produce byte-identical — and
//!   therefore shareable — intermediate objects while every task's marginal
//!   randomness stays intact,
//! - [`concrete`]: the epoch-chunked *concrete object dependency graph*
//!   that unifies all tasks' plans, merges identical object nodes, and
//!   reports the merge statistics behind Fig. 16/19,
//! - [`prune`]: Algorithm 1 — greedy subtree collapse trading recompute
//!   cost for storage until the cached set fits the budget.

#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod abstract_graph;
pub mod concrete;
pub mod pool;
pub mod prune;
pub mod resolve;

pub use abstract_graph::{AbstractEdge, AbstractGraph, AbstractNode, AbstractOp, ViewType};
pub use concrete::{
    extend_chain_digest, BatchRef, ConcreteGraph, ConcreteNode, MergeStats, NodeId, ObjectKey,
    PlanInput, Planner, PlannerOptions, SamplePlan, VideoMeta, EMPTY_CHAIN_DIGEST,
};
pub use pool::FramePool;
pub use prune::{prune_to_budget, PruneOutcome};
pub use resolve::{coordinated_draw, ResolvedOp};

use std::fmt;

/// Errors produced during planning.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// Planning input was inconsistent.
    InvalidInput {
        /// Human-readable description.
        what: String,
    },
    /// A video is too short for the requested clip geometry.
    ClipTooLong {
        /// The video's frame count.
        video_frames: usize,
        /// Frames the clip span requires.
        needed: usize,
    },
    /// Augmentation resolution failed (bad geometry or branch).
    ResolveFailed {
        /// Human-readable description.
        what: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::InvalidInput { what } => write!(f, "invalid planning input: {what}"),
            GraphError::ClipTooLong {
                video_frames,
                needed,
            } => {
                write!(f, "clip needs {needed} frames but video has {video_frames}")
            }
            GraphError::ResolveFailed { what } => write!(f, "augmentation resolution: {what}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, GraphError>;
