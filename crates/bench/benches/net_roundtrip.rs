//! `sand-net` RPC round-trip benchmark: the per-call cost of the
//! length-prefixed, checksummed wire protocol over loopback TCP.
//!
//! Three shapes bracket the remote tier's traffic:
//!
//! - **stat** — the smallest request/response pair (a cache probe):
//!   pure protocol + syscall overhead, the RTT floor,
//! - **fetch hit** — the remote tier's hot path: one `Fetch` returning a
//!   compressed object payload, at several payload sizes,
//! - **put** — the owner-push path: one `Put` carrying the payload up.
//!
//! Throughput for the payload-carrying shapes is also reported as MiB/s
//! so regressions in framing (extra copies, allocation churn) show even
//! when the RTT floor hides them. Set `SAND_BENCH_QUICK=1` for a short
//! CI-smoke run.

#![allow(clippy::unwrap_used)]

use sand_net::{ClientConfig, ServerConfig, ViewClient, ViewServer};
use sand_storage::{ObjectMeta, ObjectStore, StoreConfig};
use sand_telemetry::Telemetry;
use sand_vfs::{ViewPath, ViewProvider};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The bench drives only the object-exchange verbs; view verbs 404.
struct NullProvider;

impl ViewProvider for NullProvider {
    fn fetch(&self, path: &ViewPath) -> sand_vfs::Result<Arc<Vec<u8>>> {
        Err(sand_vfs::VfsError::NoSuchView {
            path: path.to_string(),
        })
    }
    fn metadata(&self, path: &ViewPath, _name: &str) -> sand_vfs::Result<String> {
        Err(sand_vfs::VfsError::NoSuchView {
            path: path.to_string(),
        })
    }
}

fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|p| (p as u64 ^ 0x9e37) as u8).collect()
}

fn main() {
    let quick = std::env::var("SAND_BENCH_QUICK").is_ok();
    let iters: u64 = if quick { 200 } else { 2_000 };
    let sizes: &[usize] = if quick {
        &[4 << 10, 64 << 10]
    } else {
        &[4 << 10, 64 << 10, 1 << 20]
    };

    let telemetry = Telemetry::disabled();
    let store = Arc::new(
        ObjectStore::memory_only(StoreConfig {
            memory_budget: 256 << 20,
            ..StoreConfig::default()
        })
        .unwrap(),
    );
    let mut server = ViewServer::serve(
        "127.0.0.1:0",
        Arc::new(NullProvider),
        Some(Arc::clone(&store)),
        ServerConfig::default(),
        &telemetry,
    )
    .unwrap();
    let client = ViewClient::new(
        server.local_addr(),
        ClientConfig {
            io_timeout: Duration::from_secs(5),
            ..ClientConfig::default()
        },
        &telemetry,
    );

    // RTT floor: the smallest request/response pair, an empty-store probe.
    let start = Instant::now();
    for _ in 0..iters {
        assert!(client.stat("probe/absent").unwrap().is_none());
    }
    let rtt_us = start.elapsed().as_secs_f64() * 1e6 / iters as f64;
    println!("bench net_roundtrip/stat        {rtt_us:>8.1} µs/call");

    for &size in sizes {
        let bytes = payload(size);
        let meta = ObjectMeta {
            deadline: None,
            future_uses: 1,
        };
        store
            .put(&format!("obj/hot/{size}"), bytes.clone().into(), meta)
            .unwrap();

        // Fetch hit: the remote tier's hot path.
        let start = Instant::now();
        for _ in 0..iters {
            let got = client.fetch(&format!("obj/hot/{size}")).unwrap().unwrap();
            assert_eq!(got.len(), size);
        }
        let secs = start.elapsed().as_secs_f64();
        let us = secs * 1e6 / iters as f64;
        let mib = (iters as f64 * size as f64) / (1024.0 * 1024.0) / secs;
        println!("bench net_roundtrip/fetch {size:>8} B {us:>8.1} µs/call ({mib:>8.1} MiB/s)");

        // Put: the owner-push path (fresh key per call to avoid re-put
        // short-circuits in the store).
        let start = Instant::now();
        for i in 0..iters {
            client
                .put(&format!("obj/push/{size}/{i}"), None, 1, &bytes)
                .unwrap();
        }
        let secs = start.elapsed().as_secs_f64();
        let us = secs * 1e6 / iters as f64;
        let mib = (iters as f64 * size as f64) / (1024.0 * 1024.0) / secs;
        println!("bench net_roundtrip/put   {size:>8} B {us:>8.1} µs/call ({mib:>8.1} MiB/s)");
        // Keep the store's memory tier from accumulating push payloads.
        for i in 0..iters {
            let _ = store.remove(&format!("obj/push/{size}/{i}"));
        }
    }

    server.shutdown();
}
