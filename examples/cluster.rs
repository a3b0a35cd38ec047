//! Multi-node SAND on loopback: three engines, one placement ring.
//!
//! Three engine "nodes" share a dataset and a consistent-hash placement
//! ring. Each node runs a [`sand::net::ViewServer`] over its engine and
//! store; each engine's remote tier dials the other two. A sequential
//! trainer routes iteration `i` to node `i % 3` and compares every
//! served batch against a single-process reference engine.
//!
//! The run validates the cluster contract end to end:
//!
//! 1. **Bit-identical bytes** — every batch served by any node equals
//!    the reference engine's bytes exactly.
//! 2. **At-most-once materialization** — summed across the cluster, the
//!    augmentation ops executed equal the single-process count: shared
//!    ancestors are fetched from their ring owner, not recomputed
//!    (asserted via engine counters, with `net.fetch_hits > 0` proving
//!    the remote tier did the sharing).
//! 3. **Graceful degradation** — node 2's server is killed mid-run, the
//!    trainer re-routes to the survivors, and every batch is *still*
//!    bit-identical (`net.fetch_errors > 0` and an open breaker,
//!    `net.peers_down > 0`, prove the failure path actually ran).
//! 4. **Exact stall accounting** — every batch trace on every node
//!    reassembles its serve latency from the ten stall segments exactly
//!    (`breakdown_sum_ns == serve_ns`), including the new `remote`
//!    segment where degraded fetches park their timeouts.
//!
//! Loopback stands in for the cluster fabric — same protocol, same
//! failure handling, none of the latency (see EXPERIMENTS.md).
//!
//! ```text
//! cargo run --release --example cluster
//! ```
//!
//! Exit status: `0` ok, `1` a validation failed.

#![allow(clippy::unwrap_used)]

use sand::codec::{Dataset, DatasetSpec};
use sand::core::{EngineConfig, SandEngine, TelemetryConfig};
use sand::net::{PeerSpec, RemoteTierConfig, ServerConfig, ServerHandle, ViewServer};
use sand::storage::StoreConfig;
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// Two-stage augmentation over 8 videos: enough shared structure that
/// cross-node reuse is the common case, small enough to run in CI.
const PIPELINE: &str = r#"
dataset:
  tag: "train"
  input_source: file
  video_dataset_path: /dataset/train
  sampling:
    videos_per_batch: 2
    frames_per_video: 4
    frame_stride: 2
  augmentation:
    - name: "augment_resize"
      branch_type: "single"
      inputs: ["frame"]
      outputs: ["augmented_frame_0"]
      config:
        - resize:
            shape: [32, 32]
            interpolation: ["bilinear"]
    - name: "augment_crop"
      branch_type: "single"
      inputs: ["augmented_frame_0"]
      outputs: ["augmented_frame_1"]
      config:
        - random_crop:
            shape: [28, 28]
        - normalize:
            mean: [0.485, 0.456, 0.406]
            std: [0.229, 0.224, 0.225]
"#;

const NODES: usize = 3;
const SEED: u64 = 0xc1u64 << 8 | 0x05;

fn engine_config(remote: Option<RemoteTierConfig>) -> EngineConfig {
    EngineConfig {
        tasks: vec![sand::config::parse_task_config(PIPELINE).unwrap()],
        seed: SEED,
        total_epochs: 2,
        epochs_per_chunk: 2,
        // Demand-driven serving only: materialization happens exactly
        // when a batch needs an object, so the at-most-once counters are
        // attributable to the serve schedule below.
        prematerialize: false,
        prefetch_depth: 0,
        store: StoreConfig {
            memory_budget: 512 << 20, // no eviction: counters stay exact
            shards: 4,
            ..Default::default()
        },
        telemetry: Some(TelemetryConfig::default()),
        remote,
        ..Default::default()
    }
}

struct Node {
    engine: SandEngine,
    server: ServerHandle,
}

fn build_cluster(dataset: &Arc<Dataset>) -> Result<Vec<Node>, Box<dyn std::error::Error>> {
    // Bind every listener first (port 0) so the full peer map is known
    // before any engine exists.
    let listeners: Vec<TcpListener> = (0..NODES)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<std::io::Result<_>>()?;
    let addrs: Vec<_> = listeners
        .iter()
        .map(|l| l.local_addr())
        .collect::<std::io::Result<_>>()?;
    let mut nodes = Vec::with_capacity(NODES);
    for (i, listener) in listeners.into_iter().enumerate() {
        let peers = (0..NODES)
            .filter(|&j| j != i)
            .map(|j| PeerSpec {
                node_id: format!("node{j}"),
                addr: addrs[j],
            })
            .collect();
        let remote = RemoteTierConfig {
            node_id: format!("node{i}"),
            peers,
            // Fail fast on the killed node: the example's degradation
            // phase should spend milliseconds, not the default timeout.
            fetch_timeout: Duration::from_millis(200),
            retries: 0,
            failure_threshold: 2,
            failure_cooldown: Duration::from_secs(30),
            ..Default::default()
        };
        let engine = SandEngine::new(engine_config(Some(remote)), Arc::clone(dataset))?;
        engine.start()?;
        let server = ViewServer::serve_on(
            listener,
            Arc::new(engine.clone()),
            Some(Arc::clone(engine.store())),
            ServerConfig::default(),
            engine.telemetry(),
        )?;
        nodes.push(Node { engine, server });
    }
    Ok(nodes)
}

/// Sums a counter across every node's snapshot.
fn cluster_counter(nodes: &[Node], name: &str) -> u64 {
    nodes
        .iter()
        .filter_map(|n| n.engine.metrics_snapshot())
        .filter_map(|s| s.counter(name))
        .sum()
}

/// Every retained trace on every node must reassemble its serve latency
/// from the ten segments exactly.
fn check_stall_accounting(nodes: &[Node]) -> Result<usize, String> {
    let mut checked = 0;
    for (i, n) in nodes.iter().enumerate() {
        let report = n.engine.stall_report().ok_or("telemetry is enabled")?;
        for t in &report.traces {
            if t.breakdown_sum_ns() != t.serve_ns {
                return Err(format!(
                    "node{i} batch {}: segments sum to {} ns but serve took {} ns",
                    t.batch_id(),
                    t.breakdown_sum_ns(),
                    t.serve_ns
                ));
            }
            checked += 1;
        }
    }
    Ok(checked)
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = Arc::new(Dataset::generate(&DatasetSpec {
        num_videos: 8,
        frames_per_video: 16,
        ..Default::default()
    })?);

    // The single-process reference: same seed, same plan, no network.
    let reference = SandEngine::new(engine_config(None), Arc::clone(&dataset))?;
    reference.start()?;
    let iters = reference
        .iterations_per_epoch("train")
        .expect("task exists");
    let mut expected = Vec::new();
    for epoch in 0..2 {
        for iteration in 0..iters {
            expected.push(reference.serve_batch("train", epoch, iteration)?);
        }
    }
    let reference_aug_ops = reference.stats().aug_ops_applied;

    let mut nodes = build_cluster(&dataset)?;

    // Phase 1 — healthy cluster: iteration i of each epoch lands on node
    // i % 3. Every byte must match the reference, and summed aug ops must
    // equal the single-process count (at-most-once materialization).
    let mut k = 0;
    for epoch in 0..2u64 {
        for iteration in 0..iters {
            let node = &nodes[(iteration % NODES as u64) as usize];
            let bytes = node.engine.serve_batch("train", epoch, iteration)?;
            if bytes != expected[k] {
                return Err(format!(
                    "healthy cluster: batch train/{epoch}/{iteration} differs from reference"
                )
                .into());
            }
            k += 1;
        }
    }
    let cluster_aug_ops: u64 = nodes.iter().map(|n| n.engine.stats().aug_ops_applied).sum();
    if cluster_aug_ops != reference_aug_ops {
        return Err(format!(
            "at-most-once violated: cluster executed {cluster_aug_ops} aug ops, \
             single-process reference executed {reference_aug_ops}"
        )
        .into());
    }
    let fetch_hits = cluster_counter(&nodes, "net.fetch_hits");
    if fetch_hits == 0 {
        return Err("no remote fetch hits: the cluster never shared an object".into());
    }
    println!(
        "healthy:  {} batches bit-identical, {} aug ops (= reference), {} remote hits",
        expected.len(),
        cluster_aug_ops,
        fetch_hits
    );

    // Phase 2 — kill node 2 mid-run, then re-serve epoch 1 through the
    // two survivors. Keys owned by the dead node now time out; the
    // survivors must fall back to local materialization and still serve
    // bit-identical bytes.
    nodes[2].server.shutdown();
    let errors_before = cluster_counter(&nodes, "net.fetch_errors");
    for iteration in 0..iters {
        let node = &nodes[(iteration % 2) as usize];
        let bytes = node.engine.serve_batch("train", 1, iteration)?;
        if bytes != expected[(iters + iteration) as usize] {
            return Err(format!(
                "degraded cluster: batch train/1/{iteration} differs from reference"
            )
            .into());
        }
    }
    let fetch_errors = cluster_counter(&nodes, "net.fetch_errors") - errors_before;
    let peers_down: i64 = nodes[..2]
        .iter()
        .filter_map(|n| n.engine.metrics_snapshot())
        .filter_map(|s| s.gauge("net.peers_down"))
        .sum();
    if fetch_errors == 0 && peers_down == 0 {
        return Err(
            "killing node2 produced no fetch errors and no open breaker: \
                    the degradation path never ran"
                .into(),
        );
    }
    println!(
        "degraded: {iters} batches bit-identical after killing node2 \
         ({fetch_errors} fetch errors, {peers_down} peers held down)"
    );

    // Exact stall accounting on every node, including the degraded
    // serves whose remote timeouts landed in the `remote` segment.
    let checked = check_stall_accounting(&nodes)?;
    println!("traces:   {checked} batch traces sum exactly to their serve latency");

    for node in &mut nodes {
        node.server.shutdown();
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => {
            println!("cluster example: OK");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cluster example FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}
