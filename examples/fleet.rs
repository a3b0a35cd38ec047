//! Multi-tenant fleet on one engine: three tenants, one claim map.
//!
//! Three tenants with skewed QoS weights (1/2/4) submit the same
//! training pipeline to a single [`sand::core::Fleet`]; a fourth tenant
//! with an oversized working set is turned away by admission control. A
//! concurrent trainer per tenant then races all three against the shared
//! engine and compares every served batch against per-tenant isolated
//! reference engines.
//!
//! The run validates the fleet contract end to end:
//!
//! 1. **Bit-identical bytes** — every batch a tenant reads from the
//!    fleet equals what the same task would produce on a private engine
//!    with the same seed. Sharing is invisible in the data.
//! 2. **At-most-once materialization** — the tenants' pipelines share
//!    every augmentation ancestor, so the fleet executes the op set
//!    *once*, not three times: fleet aug ops equal a single isolated
//!    engine's, while the three isolated engines pay 3x between them
//!    (`fleet.dedup_wins` proves the claim map carried the traffic).
//! 3. **Admission control** — the oversized tenant is rejected up front
//!    with a reason, never degrading the admitted three.
//! 4. **Per-tenant attribution** — each tenant's stall segments
//!    reassemble its serve latency exactly, every tenant has a report
//!    section, and the scheduler's ledger carries the 1/2/4 weights.
//!
//! ```text
//! cargo run --release --example fleet
//! ```
//!
//! Exit status: `0` ok, `1` a validation failed.

#![allow(clippy::unwrap_used)]

use sand::codec::{Dataset, DatasetSpec};
use sand::core::fleet::{fleet_tag, Fleet, FleetConfig, TenantSpec};
use sand::core::{EngineConfig, SandEngine, TelemetryConfig};
use sand::storage::StoreConfig;
use std::process::ExitCode;
use std::sync::Arc;

/// Two-stage augmentation over 8 videos: every tenant draws the same
/// clips and chains, so cross-tenant reuse is total.
fn pipeline(videos_per_batch: u32) -> String {
    format!(
        r#"
dataset:
  tag: "train"
  input_source: file
  video_dataset_path: /dataset/train
  sampling:
    videos_per_batch: {videos_per_batch}
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
"#
    )
}

const SEED: u64 = 0xf1ee7;
const TENANTS: [(&str, u64); 3] = [("alpha", 1), ("beta", 2), ("gamma", 4)];

fn base_config() -> EngineConfig {
    EngineConfig {
        tasks: Vec::new(),
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
        ..Default::default()
    }
}

/// The tenant's task run on a private engine, planned under the same
/// namespaced tag the fleet uses — the parity baseline.
fn isolated_reference(
    dataset: &Arc<Dataset>,
    tenant: &str,
) -> Result<SandEngine, Box<dyn std::error::Error>> {
    let mut task = sand::config::parse_task_config(&pipeline(2))?;
    task.tag = fleet_tag(tenant, "train");
    let mut config = base_config();
    config.tasks = vec![task];
    let engine = SandEngine::new(config, Arc::clone(dataset))?;
    engine.start()?;
    Ok(engine)
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = Arc::new(Dataset::generate(&DatasetSpec {
        num_videos: 8,
        frames_per_video: 16,
        ..Default::default()
    })?);

    // Per-tenant isolated references: expected bytes plus the cost each
    // tenant would pay alone.
    let mut expected: Vec<Vec<Vec<u8>>> = Vec::new();
    let mut isolated_ops = Vec::new();
    let mut iters = 0;
    for (name, _) in TENANTS {
        let reference = isolated_reference(&dataset, name)?;
        let tag = fleet_tag(name, "train");
        iters = reference.iterations_per_epoch(&tag).expect("task exists");
        let mut bytes = Vec::new();
        for epoch in 0..2 {
            for iteration in 0..iters {
                bytes.push(reference.serve_batch(&tag, epoch, iteration)?);
            }
        }
        isolated_ops.push(reference.stats().aug_ops_applied);
        expected.push(bytes);
    }
    let isolated_total: u64 = isolated_ops.iter().sum();

    // The fleet roster: the three real tenants plus a hog whose working
    // set cannot fit the admission budget.
    let mut tenants: Vec<TenantSpec> = TENANTS
        .iter()
        .map(|&(name, weight)| TenantSpec {
            name: name.into(),
            weight,
            tasks: vec![sand::config::parse_task_config(&pipeline(2)).unwrap()],
        })
        .collect();
    tenants.push(TenantSpec {
        name: "hog".into(),
        weight: 1,
        tasks: vec![sand::config::parse_task_config(&pipeline(64)).unwrap()],
    });
    let fleet = Fleet::new(
        FleetConfig {
            base: base_config(),
            tenants,
            admission_budget: 2 << 20, // fits the three, not the hog
        },
        Arc::clone(&dataset),
    )?;

    // Admission: exactly the hog was turned away, up front and with a
    // reason; serving on its behalf is refused outright.
    let rejected = fleet.rejected();
    if rejected.len() != 1 || rejected[0].name != "hog" {
        return Err(format!("expected exactly `hog` rejected, got {rejected:?}").into());
    }
    if fleet.serve_batch("hog", "train", 0, 0).is_ok() {
        return Err("a rejected tenant was served".into());
    }
    println!(
        "admission: 3 tenants admitted, `hog` rejected ({} B estimate vs {} B budget)",
        rejected[0].estimate,
        fleet.admission_budget()
    );

    // Race all three tenants against the shared engine; every byte must
    // match the tenant's private-engine baseline.
    let mismatches: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = TENANTS
            .iter()
            .enumerate()
            .map(|(k, &(name, _))| {
                let fleet = &fleet;
                let expected = &expected;
                s.spawn(move || {
                    let mut bad = Vec::new();
                    for epoch in 0..2u64 {
                        for iteration in 0..iters {
                            match fleet.serve_batch(name, "train", epoch, iteration) {
                                Ok(b) if b == expected[k][(epoch * iters + iteration) as usize] => {
                                }
                                Ok(_) => bad.push(format!(
                                    "{name}/{epoch}/{iteration}: differs from isolated engine"
                                )),
                                Err(e) => bad.push(format!("{name}/{epoch}/{iteration}: {e}")),
                            }
                        }
                    }
                    bad
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    if let Some(first) = mismatches.first() {
        return Err(format!("{} parity failures, first: {first}", mismatches.len()).into());
    }
    let batches = 3 * 2 * iters;

    // At-most-once: the fleet paid one tenant's op bill for all three.
    let fleet_ops = fleet.engine().stats().aug_ops_applied;
    if fleet_ops != isolated_ops[0] {
        return Err(format!(
            "at-most-once violated: fleet executed {fleet_ops} aug ops, \
             one isolated engine executed {}",
            isolated_ops[0]
        )
        .into());
    }
    let snapshot = fleet.engine().metrics_snapshot().expect("telemetry on");
    let dedup_wins = snapshot.counter("fleet.dedup_wins").unwrap_or(0);
    if dedup_wins == 0 {
        return Err("the claim map never saw a materialization".into());
    }
    println!(
        "dedup:     {batches} batches bit-identical; fleet paid {fleet_ops} aug ops \
         where isolation pays {isolated_total} ({} claim-map wins, {} adoptions)",
        dedup_wins,
        snapshot.counter("fleet.dedup_adoptions").unwrap_or(0),
    );

    // Attribution: exact stall sums per trace, one section per tenant,
    // per-tenant serve counters, and the skewed weights on the ledger.
    let report = fleet.engine().stall_report().expect("telemetry on");
    for t in &report.traces {
        if t.breakdown_sum_ns() != t.serve_ns {
            return Err(format!(
                "batch {}: segments sum to {} ns but serve took {} ns",
                t.batch_id(),
                t.breakdown_sum_ns(),
                t.serve_ns
            )
            .into());
        }
    }
    let sections = report.tenant_sections();
    if sections.len() != TENANTS.len() {
        return Err(format!(
            "expected {} tenant sections, got {}",
            TENANTS.len(),
            sections.len()
        )
        .into());
    }
    for (name, _) in TENANTS {
        let served = snapshot
            .counter(&format!("tenant.{name}.batches_served"))
            .unwrap_or(0);
        if served != 2 * iters {
            return Err(format!("tenant {name}: served counter {served} != {}", 2 * iters).into());
        }
    }
    let shares = fleet.tenant_shares();
    let weights: Vec<u64> = shares.iter().map(|s| s.weight).collect();
    if weights != vec![1, 2, 4] {
        return Err(format!("scheduler weights {weights:?} != [1, 2, 4]").into());
    }
    println!(
        "tenants:   {} traces sum exactly; shares {}",
        report.traces.len(),
        shares
            .iter()
            .zip(TENANTS.iter())
            .map(|(s, (n, _))| format!("{n} w={} busy={}µs", s.weight, s.busy_ns / 1_000))
            .collect::<Vec<_>>()
            .join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => {
            println!("fleet example: OK");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fleet example FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}
