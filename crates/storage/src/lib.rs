//! Tiered object storage for SAND.
//!
//! Materialized training objects (compressed frames, augmented frames,
//! batch tensors) live in a two-tier store:
//!
//! - a **memory tier** for objects needed in the current or near-future
//!   iterations,
//! - a **disk tier** for pre-materialized objects destined for later
//!   epochs: an append-only, checksummed value log ([`vlog`]) of segment
//!   files plus a `MANIFEST` ([`manifest`]), with a byte budget standing
//!   in for the 1.5–3 TB local SSD of the paper's GCP instances.
//!
//! The store implements the paper's eviction policy: when usage crosses
//! 75% of the budget it evicts, in order, (1) objects that have been used
//! and will not be needed again, then (2) objects with the longest
//! deadlines. Crash recovery is [`ObjectStore::open`] replaying the log:
//! every record carries its key, scheduling metadata and a CRC, so the
//! index is rebuilt from the segments alone and a torn tail is truncated
//! rather than adopted. The store reads nothing else in its directory.
//!
//! The [`modeled_link`] module models a WAN-attached dataset store
//! (Google Filestore in the paper) behind a link of configurable
//! bandwidth, used by the distributed-training experiment (Fig. 14). It
//! is a bandwidth *model*, not a network tier: the cluster cache tier
//! that really moves objects between nodes is `sand_net::RemoteTier`.

#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod manifest;
pub mod modeled_link;
mod shard;
pub mod store;
pub mod vlog;

pub use manifest::Manifest;
pub use modeled_link::{BandwidthModel, ModeledStore};
pub use store::{ObjectMeta, ObjectStore, StoreConfig, StoreStats, Tier};
pub use vlog::{ReplayStats, SyncPolicy, ValueLog};

use std::fmt;

/// Errors produced by the storage layer.
#[derive(Debug)]
pub enum StorageError {
    /// Filesystem I/O failed.
    Io(std::io::Error),
    /// The requested object does not exist.
    NotFound {
        /// The missing key.
        key: String,
    },
    /// The object cannot fit even an empty store.
    TooLarge {
        /// The offending key.
        key: String,
        /// Object size in bytes.
        size: u64,
        /// The budget it exceeds.
        budget: u64,
    },
    /// Invalid configuration.
    InvalidConfig {
        /// Human-readable description.
        what: &'static str,
    },
    /// Internal bookkeeping invariant broke (a bug, surfaced as an error
    /// instead of a panic so callers can fail the operation gracefully).
    Inconsistent {
        /// Human-readable description.
        what: String,
    },
    /// Persisted bytes failed checksum validation (torn write or bit
    /// rot). Recovery truncates the log at these; runtime reads treat
    /// them as misses so callers recompute instead of crashing.
    Corrupt {
        /// Human-readable description.
        what: String,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "io error: {e}"),
            StorageError::NotFound { key } => write!(f, "object not found: {key}"),
            StorageError::TooLarge { key, size, budget } => {
                write!(f, "object {key} ({size} B) exceeds budget {budget} B")
            }
            StorageError::InvalidConfig { what } => write!(f, "invalid store config: {what}"),
            StorageError::Inconsistent { what } => write!(f, "store inconsistency: {what}"),
            StorageError::Corrupt { what } => write!(f, "corrupt persisted data: {what}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, StorageError>;
