//! # SAND — a view-based programming abstraction for video deep learning
//!
//! This facade crate re-exports the entire SAND workspace under one roof so
//! applications can depend on a single crate:
//!
//! - [`frame`] — frame buffers, augmentation ops, lossless compression
//! - [`codec`] — GOP-structured toy video codec and synthetic datasets
//! - [`config`] — YAML-subset pipeline configuration (Fig. 9 of the paper)
//! - [`graph`] — abstract/concrete view dependency graphs, pruning
//! - [`storage`] — tiered object store with budgets and eviction
//! - [`sched`] — priority-based materialization scheduling
//! - [`vfs`] — the POSIX-style view filesystem (Tables 1 and 2)
//! - [`net`] — multi-node SAND: RPC view serving, consistent-hash
//!   placement, and the cluster-wide remote cache tier
//! - [`telemetry`] — metrics registry, per-batch stall attribution
//! - [`sanitizer`] — tracked locks, lock-order/lockset analysis, schedule exploration
//! - [`sim`] — GPU / power / cluster models used by the experiments
//! - [`core`] — the SAND engine tying everything together
//! - [`train`] — training loop, baseline loaders, metrics
//! - [`ray`] — multi-job scenarios: ASHA search, multi-task, DDP
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs` for the end-to-end flow: generate a synthetic
//! dataset, write a pipeline config, mount the SAND engine, and read training
//! batches through `open`/`read`/`getxattr`/`close`.

pub use sand_codec as codec;
pub use sand_config as config;
pub use sand_core as core;
pub use sand_frame as frame;
pub use sand_graph as graph;
pub use sand_lint as lint;
pub use sand_net as net;
pub use sand_ray as ray;
pub use sand_sanitizer as sanitizer;
pub use sand_sched as sched;
pub use sand_sim as sim;
pub use sand_storage as storage;
pub use sand_telemetry as telemetry;
pub use sand_train as train;
pub use sand_vfs as vfs;
