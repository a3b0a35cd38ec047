//! # sand-net — multi-node SAND
//!
//! The network boundary for the SAND engine: the paper's deployment
//! merges redundant materialization *within* one process and leans on
//! shared storage across machines; this crate makes SAND itself
//! distributable, so N decode nodes feed M trainers from one
//! deduplicated, cluster-wide cache.
//!
//! The pieces, bottom-up:
//!
//! - [`wire`] — a length-prefixed, CRC-32-checksummed binary frame
//!   format carrying the Table-2 verb set (`Open`/`Read`/`GetXattr`/
//!   `Close`) plus the inter-node object verbs (`Put`/`Fetch`/`Stat`);
//!   `Put` and `Fetch` carry lists, so one round trip moves many objects.
//!   Torn frames and bit flips are rejected before parsing; a receiver
//!   never sees a partial message.
//! - [`Placement`] — a deterministic consistent-hash ring over node ids
//!   that routes every object key to one owner node with no
//!   coordination service.
//! - [`ViewServer`] — exposes a node's [`sand_vfs::ViewProvider`] (and,
//!   optionally, its object store) over a TCP listener: bounded worker
//!   pool, per-connection fd tables, positional reads so retries are
//!   idempotent.
//! - [`ViewClient`] — connection-pooled client with one per-attempt
//!   timeout and bounded retry-with-backoff; [`RemoteProvider`] adapts
//!   it back into a `ViewProvider`, so a remote engine mounts like a
//!   local one.
//! - [`RemoteTier`] — the cluster cache tier the engine consults on a
//!   local store miss, *below* mem/disk and *above* materialization:
//!   consult the ring, fetch from the owners (one request per owning
//!   peer), and push local materializations of remotely-owned keys back
//!   to their owners, so a shared-ancestor object materializes at most
//!   once cluster-wide.
//!
//! **Failure contract:** every remote path degrades, never corrupts. A
//! fetch that times out, fails checksum, or finds the owner down falls
//! back to local materialization — the caller may do redundant work but
//! can never serve wrong bytes. Peer health is tracked with a
//! consecutive-failure breaker and cooldown so a dead node costs one
//! timeout per cooldown window, not one per object.

pub mod client;
pub mod placement;
pub mod remote;
pub mod server;
pub mod wire;

pub use client::{ClientConfig, RemoteProvider, ViewClient};
pub use placement::Placement;
pub use remote::{PeerSpec, RemoteTier, RemoteTierConfig};
pub use server::{ServerConfig, ServerHandle, ViewServer};
pub use wire::{PutObject, Request, Response};

use std::fmt;

/// Errors surfaced by the networking layer.
#[derive(Debug)]
pub enum NetError {
    /// Transport-level I/O failure (connect, read, write, timeout).
    Io {
        /// Human-readable description.
        what: String,
    },
    /// The peer sent bytes that do not parse as a valid frame/message
    /// (bad length, checksum mismatch, unknown tag, trailing bytes).
    Protocol {
        /// Human-readable description.
        what: String,
    },
    /// The peer processed the request and answered with an error.
    Remote {
        /// One of [`wire::err_code`].
        code: u8,
        /// The peer's description.
        what: String,
    },
    /// The peer answered with a response of the wrong kind for the
    /// request (e.g. `Data` for a `Close`).
    Unexpected {
        /// Human-readable description.
        what: String,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io { what } => write!(f, "net i/o error: {what}"),
            NetError::Protocol { what } => write!(f, "net protocol error: {what}"),
            NetError::Remote { code, what } => write!(f, "remote error (code {code}): {what}"),
            NetError::Unexpected { what } => write!(f, "unexpected response: {what}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io {
            what: e.to_string(),
        }
    }
}

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, NetError>;
