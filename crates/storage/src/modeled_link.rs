//! A dataset store behind a modeled WAN link (Google Filestore stand-in).
//!
//! The distributed-training experiment (Fig. 14) hinges on one resource:
//! the bandwidth between GPU nodes and the remote dataset store. This
//! module provides a byte-accounted in-process store whose `fetch`
//! reports the modeled transfer time for each read; callers either sleep
//! that long (real-time engine) or charge it to a virtual clock
//! (simulation). A shared token-less model keeps it simple:
//! `time = latency + bytes/bw`. Nothing here touches a socket — "remote"
//! in this workspace means `sand_net::RemoteTier`.

use crate::{Result, StorageError};
use sand_sanitizer::TrackedMutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Link model between a node and a [`ModeledStore`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthModel {
    /// Sustained link bandwidth in bytes per second.
    pub bytes_per_sec: f64,
    /// Fixed per-request latency.
    pub latency: Duration,
}

impl Default for BandwidthModel {
    fn default() -> Self {
        // Roughly EBS-like: 1 Gbps with 1 ms latency.
        BandwidthModel {
            bytes_per_sec: 125.0e6,
            latency: Duration::from_millis(1),
        }
    }
}

impl BandwidthModel {
    /// Modeled time to move `bytes` over this link.
    #[must_use]
    pub fn transfer_time(&self, bytes: u64) -> Duration {
        if self.bytes_per_sec <= 0.0 {
            return Duration::MAX;
        }
        self.latency + Duration::from_secs_f64(bytes as f64 / self.bytes_per_sec)
    }
}

/// A dataset store whose reads cost modeled link time.
#[derive(Debug)]
pub struct ModeledStore {
    objects: TrackedMutex<HashMap<String, Arc<Vec<u8>>>>,
    model: BandwidthModel,
    bytes_fetched: AtomicU64,
    fetches: AtomicU64,
}

impl ModeledStore {
    /// Creates an empty store behind the given link model.
    #[must_use]
    pub fn new(model: BandwidthModel) -> Self {
        ModeledStore {
            objects: TrackedMutex::new("remote.objects", HashMap::new()),
            model,
            bytes_fetched: AtomicU64::new(0),
            fetches: AtomicU64::new(0),
        }
    }

    /// Uploads an object (not bandwidth-accounted; datasets are staged
    /// out-of-band in the paper's setting too).
    pub fn upload(&self, key: &str, bytes: Vec<u8>) {
        self.objects.lock().insert(key.to_string(), Arc::new(bytes));
    }

    /// Fetches an object, returning its bytes and the modeled WAN time.
    ///
    /// The critical section only clones the `Arc` (a pointer bump), so
    /// concurrent DDP fetchers never serialize on a full-object memcpy;
    /// time modeling and accounting happen outside the lock.
    pub fn fetch(&self, key: &str) -> Result<(Arc<Vec<u8>>, Duration)> {
        let bytes = {
            let objects = self.objects.lock();
            objects
                .get(key)
                .map(Arc::clone)
                .ok_or_else(|| StorageError::NotFound {
                    key: key.to_string(),
                })?
        };
        let dur = self.model.transfer_time(bytes.len() as u64);
        self.bytes_fetched
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.fetches.fetch_add(1, Ordering::Relaxed);
        Ok((bytes, dur))
    }

    /// True when the remote holds `key`.
    #[must_use]
    pub fn contains(&self, key: &str) -> bool {
        self.objects.lock().contains_key(key)
    }

    /// Total bytes served so far.
    #[must_use]
    pub fn bytes_fetched(&self) -> u64 {
        self.bytes_fetched.load(Ordering::Relaxed)
    }

    /// Total fetch requests served so far.
    #[must_use]
    pub fn fetches(&self) -> u64 {
        self.fetches.load(Ordering::Relaxed)
    }

    /// Resets the transfer counters.
    pub fn reset_counters(&self) {
        self.bytes_fetched.store(0, Ordering::Relaxed);
        self.fetches.store(0, Ordering::Relaxed);
    }

    /// The configured link model.
    #[must_use]
    pub const fn model(&self) -> &BandwidthModel {
        &self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetch_returns_bytes_and_time() {
        let r = ModeledStore::new(BandwidthModel {
            bytes_per_sec: 1000.0,
            latency: Duration::from_millis(5),
        });
        r.upload("v", vec![7; 500]);
        let (bytes, dur) = r.fetch("v").unwrap();
        assert_eq!(bytes.len(), 500);
        // 5 ms latency + 500/1000 s transfer.
        assert!((dur.as_secs_f64() - 0.505).abs() < 1e-9);
    }

    #[test]
    fn byte_accounting_accumulates() {
        let r = ModeledStore::new(BandwidthModel::default());
        r.upload("a", vec![0; 100]);
        r.upload("b", vec![0; 50]);
        r.fetch("a").unwrap();
        r.fetch("b").unwrap();
        r.fetch("a").unwrap();
        assert_eq!(r.bytes_fetched(), 250);
        assert_eq!(r.fetches(), 3);
        r.reset_counters();
        assert_eq!(r.bytes_fetched(), 0);
    }

    #[test]
    fn missing_key_errors() {
        let r = ModeledStore::new(BandwidthModel::default());
        assert!(matches!(
            r.fetch("nope"),
            Err(StorageError::NotFound { .. })
        ));
    }

    #[test]
    fn transfer_time_scales_with_size() {
        let m = BandwidthModel {
            bytes_per_sec: 1e6,
            latency: Duration::ZERO,
        };
        assert!(m.transfer_time(2_000_000) > m.transfer_time(1_000_000));
        assert_eq!(m.transfer_time(1_000_000), Duration::from_secs(1));
    }

    #[test]
    fn zero_bandwidth_is_infinite() {
        let m = BandwidthModel {
            bytes_per_sec: 0.0,
            latency: Duration::ZERO,
        };
        assert_eq!(m.transfer_time(1), Duration::MAX);
    }
}
