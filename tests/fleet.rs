//! Fleet parity and cross-job dedup: K tenants sharing one engine are
//! served bit-identical bytes to the same jobs run serially on isolated
//! engines — across randomized seeds, tenant counts, batch geometries,
//! and under mid-run tenant cancellation — while shared-ancestor
//! augmentation work executes at most once fleet-wide (each isolated
//! engine repeats all of it).
//!
//! The fleet is a pure *performance* layer, exactly like the remote
//! tier: admission, weighted QoS scheduling, and the singleflight claim
//! map may only change *when* work happens, never what bytes a tenant
//! reads.

#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use sand::codec::{Dataset, DatasetSpec};
use sand::core::fleet::{fleet_tag, Fleet, FleetConfig, TenantSpec};
use sand::core::{CoreError, EngineConfig, SandEngine};
use sand::storage::StoreConfig;
use sand::telemetry::TelemetryConfig;
use std::sync::Arc;

fn pipeline(videos_per_batch: u32) -> String {
    format!(
        r#"
dataset:
  tag: train
  input_source: file
  video_dataset_path: /dataset/fleet
  sampling:
    videos_per_batch: {videos_per_batch}
    frames_per_video: 3
    frame_stride: 2
  augmentation:
    - name: resize
      branch_type: single
      inputs: ["frame"]
      outputs: ["a0"]
      config:
        - resize:
            shape: [24, 24]
    - name: crop
      branch_type: single
      inputs: ["a0"]
      outputs: ["a1"]
      config:
        - random_crop:
            shape: [20, 20]
        - normalize:
            mean: [0.5, 0.5, 0.5]
            std: [0.25, 0.25, 0.25]
"#
    )
}

fn base_config(seed: u64) -> EngineConfig {
    EngineConfig {
        tasks: Vec::new(),
        seed,
        total_epochs: 2,
        epochs_per_chunk: 2,
        prematerialize: false,
        prefetch_depth: 0,
        store: StoreConfig {
            memory_budget: 256 << 20,
            shards: 2,
            ..Default::default()
        },
        telemetry: Some(TelemetryConfig::default()),
        lint: sand::lint::LintLevel::Off,
        ..Default::default()
    }
}

fn tenant_name(k: usize) -> String {
    format!("tenant{k}")
}

/// An isolated single-tenant reference engine: the same task, planned
/// under its fleet-namespaced tag, with nobody else on the engine.
fn reference_engine(dataset: &Arc<Dataset>, seed: u64, name: &str, vpb: u32) -> SandEngine {
    let mut task = sand::config::parse_task_config(&pipeline(vpb)).unwrap();
    task.tag = fleet_tag(name, "train");
    let mut config = base_config(seed);
    config.tasks = vec![task];
    let engine = SandEngine::new(config, Arc::clone(dataset)).unwrap();
    engine.start().unwrap();
    engine
}

proptest! {
    // Each case builds K isolated engines plus the fleet and serves
    // every batch twice; keep the count modest — coverage comes from
    // the randomized tenant mix and seeds.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Fleet serves == isolated serves, byte for byte, with K tenants
    /// racing concurrently; shared augmentation work runs at most once
    /// fleet-wide; cancelling a tenant mid-run never perturbs the
    /// survivors' bytes.
    #[test]
    fn fleet_serves_are_bit_identical_and_deduped(
        seed in 0u64..1 << 16,
        videos in 4usize..7,
        tenants in 2usize..4,
        vpbs in proptest::collection::vec(2u32..4, 3),
        weights in proptest::collection::vec(1u64..5, 3),
    ) {
        let dataset = Arc::new(Dataset::generate(&DatasetSpec {
            num_videos: videos,
            frames_per_video: 8,
            seed,
            ..Default::default()
        }).unwrap());

        // Serial isolated references: per tenant, every batch of both
        // epochs, plus the tenant's total augmentation-op count.
        let mut expected: Vec<Vec<Vec<u8>>> = Vec::new();
        let mut iters: Vec<u64> = Vec::new();
        let mut isolated_ops: Vec<u64> = Vec::new();
        for (k, &vpb) in vpbs.iter().enumerate().take(tenants) {
            let name = tenant_name(k);
            let reference = reference_engine(&dataset, seed, &name, vpb);
            let tag = fleet_tag(&name, "train");
            let it = reference.iterations_per_epoch(&tag).unwrap();
            let mut bytes = Vec::new();
            for epoch in 0..2u64 {
                for iteration in 0..it {
                    bytes.push(reference.serve_batch(&tag, epoch, iteration).unwrap());
                }
            }
            expected.push(bytes);
            iters.push(it);
            isolated_ops.push(reference.stats().aug_ops_applied);
        }

        let fleet = Fleet::new(FleetConfig {
            base: base_config(seed),
            tenants: (0..tenants).map(|k| TenantSpec {
                name: tenant_name(k),
                weight: weights[k],
                tasks: vec![sand::config::parse_task_config(&pipeline(vpbs[k])).unwrap()],
            }).collect(),
            admission_budget: 0,
        }, Arc::clone(&dataset)).unwrap();
        prop_assert_eq!(fleet.rejected().len(), 0, "nothing to reject under the default budget");

        // Healthy phase: every tenant serves epoch 0 concurrently.
        let serve_epoch = |epoch: u64, skip: Option<usize>| -> Vec<String> {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..tenants)
                    .filter(|k| Some(*k) != skip)
                    .map(|k| {
                        let fleet = &fleet;
                        let expected = &expected;
                        let iters = &iters;
                        s.spawn(move || -> Vec<String> {
                            let name = tenant_name(k);
                            let mut mismatches = Vec::new();
                            for iteration in 0..iters[k] {
                                let got = fleet.serve_batch(&name, "train", epoch, iteration);
                                let want = &expected[k][(epoch * iters[k] + iteration) as usize];
                                match got {
                                    Ok(b) if &b == want => {}
                                    Ok(_) => mismatches.push(format!(
                                        "{name}/{epoch}/{iteration}: bytes differ from isolated"
                                    )),
                                    Err(e) => mismatches.push(format!(
                                        "{name}/{epoch}/{iteration}: serve failed: {e}"
                                    )),
                                }
                            }
                            mismatches
                        })
                    })
                    .collect();
                handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
            })
        };
        let errs = serve_epoch(0, None);
        prop_assert!(errs.is_empty(), "healthy phase: {}", errs.join("; "));

        // Mid-run cancellation: tenant 0 goes away between epochs.
        prop_assert!(fleet.cancel(&tenant_name(0)));
        prop_assert!(fleet.serve_batch(&tenant_name(0), "train", 1, 0).is_err(),
            "cancelled tenant must not be served");

        // Survivors' epoch-1 bytes are unchanged by the cancellation.
        let errs = serve_epoch(1, Some(0));
        prop_assert!(errs.is_empty(), "post-cancel phase: {}", errs.join("; "));

        // At-most-once: the tenants' pipelines share identical draw
        // geometry, so every isolated engine computed the *same* unique
        // op set — and the fleet computed it exactly once, not K times.
        let fleet_ops = fleet.engine().stats().aug_ops_applied;
        prop_assert!(fleet_ops > 0, "no augmentation work at all?");
        for (k, &ops) in isolated_ops.iter().enumerate() {
            prop_assert_eq!(
                ops, fleet_ops,
                "tenant {}: isolated ops {} != fleet-wide ops {} (dedup broken)",
                k, ops, fleet_ops
            );
        }
        let isolated_total: u64 = isolated_ops.iter().sum();
        prop_assert_eq!(isolated_total, tenants as u64 * fleet_ops);

        // The singleflight layer saw the traffic (wins count successful
        // materializations under tenancy + telemetry).
        let snapshot = fleet.engine().metrics_snapshot().unwrap();
        prop_assert!(snapshot.counter("fleet.dedup_wins").unwrap_or(0) > 0);

        // Exact-sum stall attribution survives the fleet: every trace's
        // segments reassemble its serve latency to the nanosecond, and
        // every served tenant has a section.
        let report = fleet.engine().stall_report().unwrap();
        for t in &report.traces {
            prop_assert_eq!(
                t.breakdown_sum_ns(), t.serve_ns,
                "batch {}: stall segments do not reassemble serve latency", t.batch_id()
            );
        }
        prop_assert_eq!(report.tenant_sections().len(), tenants);
    }
}

/// Extracts `"key":<u64>` from a JSONL line.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

const SEGMENTS: [&str; 10] = [
    "plan_ns",
    "prefetch_ns",
    "queue_wait_ns",
    "decode_ns",
    "store_io_ns",
    "remote_ns",
    "persist_ns",
    "aug_ns",
    "exec_other_ns",
    "finalize_ns",
];

/// The JSONL export's per-tenant summaries are exact: each tenant line's
/// ten segment totals sum to its serve total, and the serve total equals
/// the sum of that tenant's per-trace serve latencies.
#[test]
fn tenant_jsonl_sections_sum_exactly() {
    let dataset = Arc::new(
        Dataset::generate(&DatasetSpec {
            num_videos: 4,
            frames_per_video: 8,
            seed: 11,
            ..Default::default()
        })
        .unwrap(),
    );
    let fleet = Fleet::new(
        FleetConfig {
            base: base_config(11),
            tenants: (0..2)
                .map(|k| TenantSpec {
                    name: tenant_name(k),
                    weight: 1 + k as u64,
                    tasks: vec![sand::config::parse_task_config(&pipeline(2)).unwrap()],
                })
                .collect(),
            admission_budget: 0,
        },
        dataset,
    )
    .unwrap();
    for k in 0..2 {
        let name = tenant_name(k);
        for iteration in 0..fleet
            .engine()
            .iterations_per_epoch(&fleet_tag(&name, "train"))
            .unwrap()
        {
            fleet.serve_batch(&name, "train", 0, iteration).unwrap();
        }
    }
    let report = fleet.engine().stall_report().unwrap();
    let sections = report.tenant_sections();
    assert_eq!(sections.len(), 2, "both tenants must have a section");
    let jsonl = report.render_jsonl();
    let summaries: Vec<&str> = jsonl
        .lines()
        .filter(|l| l.contains("\"type\":\"tenant_summary\""))
        .collect();
    assert_eq!(summaries.len(), 2, "one summary line per tenant");
    for line in summaries {
        let serve = field_u64(line, "serve_ns").unwrap();
        let segment_sum: u64 = SEGMENTS.iter().map(|s| field_u64(line, s).unwrap()).sum();
        assert_eq!(
            segment_sum, serve,
            "tenant segments must sum to serve latency exactly: {line}"
        );
        // The summary's serve total reassembles the tenant's traces.
        let tenant: &str = {
            let pat = "\"tenant\":\"";
            let start = line.find(pat).unwrap() + pat.len();
            &line[start..start + line[start..].find('"').unwrap()]
        };
        let (_, traces) = sections
            .iter()
            .find(|(name, _)| name == tenant)
            .expect("summary tenant has a section");
        let trace_sum: u64 = traces.iter().map(|t| t.serve_ns).sum();
        assert_eq!(serve, trace_sum, "summary != sum of tenant traces");
    }
    // Per-tenant counters exist and agree with what was served.
    let snapshot = fleet.engine().metrics_snapshot().unwrap();
    for k in 0..2u64 {
        let served = snapshot
            .counter(&format!("tenant.tenant{k}.batches_served"))
            .unwrap();
        assert_eq!(served, 2, "tenant{k} served 2 batches");
    }
}

/// Admission control turns away the tenant whose working set no longer
/// fits, without degrading the admitted ones.
#[test]
fn admission_rejects_over_budget_tenant() {
    let dataset = Arc::new(
        Dataset::generate(&DatasetSpec {
            num_videos: 4,
            frames_per_video: 8,
            seed: 3,
            ..Default::default()
        })
        .unwrap(),
    );
    // Per-task estimate: vpb(2) x fpv(3) x W x H x C x 4 bytes. Budget
    // fits exactly two such tenants.
    let h = &dataset.videos()[0].encoded.header;
    let per_tenant = 2 * 3 * (h.width as u64) * (h.height as u64) * 3 * 4;
    let fleet = Fleet::new(
        FleetConfig {
            base: base_config(3),
            tenants: (0..3)
                .map(|k| TenantSpec {
                    name: tenant_name(k),
                    weight: 1,
                    tasks: vec![sand::config::parse_task_config(&pipeline(2)).unwrap()],
                })
                .collect(),
            admission_budget: per_tenant * 2,
        },
        dataset,
    )
    .unwrap();
    assert_eq!(fleet.admitted().len(), 2);
    assert_eq!(fleet.rejected().len(), 1);
    assert_eq!(fleet.rejected()[0].name, "tenant2");
    assert!(!fleet.is_admitted("tenant2"));
    assert!(fleet.serve_batch("tenant2", "train", 0, 0).is_err());
    // Admitted tenants serve normally.
    fleet.serve_batch("tenant0", "train", 0, 0).unwrap();
    let snapshot = fleet.engine().metrics_snapshot().unwrap();
    assert_eq!(snapshot.gauge("fleet.admitted"), Some(2));
    assert_eq!(snapshot.counter("fleet.rejected"), Some(1));
    // The QoS ledger covers exactly the admitted tenants, weights
    // included.
    let shares = fleet.tenant_shares();
    assert_eq!(shares.len(), 2);
    assert!(shares.iter().all(|s| s.weight == 1));
}

/// An admission budget above the store's memory budget fails
/// `Fleet::new` with a typed error at every lint level (this fleet runs
/// with the lint pass off): admission must not promise memory the store
/// does not have.
#[test]
fn admission_budget_above_store_budget_is_rejected() {
    let dataset = Arc::new(
        Dataset::generate(&DatasetSpec {
            num_videos: 4,
            frames_per_video: 8,
            seed: 5,
            ..Default::default()
        })
        .unwrap(),
    );
    let err = Fleet::new(
        FleetConfig {
            base: base_config(5),
            tenants: vec![TenantSpec {
                name: "solo".into(),
                weight: 1,
                tasks: vec![sand::config::parse_task_config(&pipeline(2)).unwrap()],
            }],
            admission_budget: 512 << 20, // store budget is 256 MiB
        },
        dataset,
    )
    .map(|_| ())
    .unwrap_err();
    assert!(
        matches!(
            err,
            CoreError::InvalidConfig {
                field: "admission_budget",
                ..
            }
        ),
        "expected an admission_budget rejection, got: {err}"
    );
}

/// A bare engine is a fleet of one: the scheduler's ledger holds one
/// tenant of weight 1, charged for the demand work it ran, with no
/// `tenant.*` metric and no tenant section; and a one-tenant fleet
/// serves the bare engine's bytes over the namespaced task.
#[test]
fn a_bare_engine_is_a_fleet_of_one() {
    let seed = 21;
    let dataset = Arc::new(
        Dataset::generate(&DatasetSpec {
            num_videos: 5,
            frames_per_video: 8,
            seed,
            ..Default::default()
        })
        .unwrap(),
    );
    let name = tenant_name(0);
    let tag = fleet_tag(&name, "train");
    let bare = reference_engine(&dataset, seed, &name, 2);
    let iters = bare.iterations_per_epoch(&tag).unwrap();
    let mut expected = Vec::new();
    for epoch in 0..2 {
        for iteration in 0..iters {
            expected.push(bare.serve_batch(&tag, epoch, iteration).unwrap());
        }
    }
    let shares = bare.tenant_shares();
    assert_eq!(shares.len(), 1, "one tenant: {shares:?}");
    assert_eq!(shares[0].weight, 1);
    assert!(
        shares[0].busy_ns > 0,
        "demand serves went uncharged: {shares:?}"
    );
    let snapshot = bare.metrics_snapshot().unwrap();
    assert!(!snapshot.families().iter().any(|f| f == "tenant"));
    assert!(bare.stall_report().unwrap().tenant_sections().is_empty());

    let fleet = Fleet::new(
        FleetConfig {
            base: base_config(seed),
            tenants: vec![TenantSpec {
                name: name.clone(),
                weight: 1,
                tasks: vec![sand::config::parse_task_config(&pipeline(2)).unwrap()],
            }],
            admission_budget: 0,
        },
        Arc::clone(&dataset),
    )
    .unwrap();
    let mut got = Vec::new();
    for epoch in 0..2 {
        for iteration in 0..iters {
            got.push(fleet.serve_batch(&name, "train", epoch, iteration).unwrap());
        }
    }
    assert!(got == expected, "a one-tenant fleet served other bytes");
    assert_eq!(fleet.tenant_shares().len(), 1);
}

/// A cancelled tenant's serve is refused with its own error variant,
/// naming the tenant; its neighbours keep serving.
#[test]
fn a_cancelled_tenant_serve_is_a_typed_error() {
    let dataset = Arc::new(
        Dataset::generate(&DatasetSpec {
            num_videos: 4,
            frames_per_video: 8,
            seed: 9,
            ..Default::default()
        })
        .unwrap(),
    );
    let fleet = Fleet::new(
        FleetConfig {
            base: base_config(9),
            tenants: (0..2)
                .map(|k| TenantSpec {
                    name: tenant_name(k),
                    weight: 1,
                    tasks: vec![sand::config::parse_task_config(&pipeline(2)).unwrap()],
                })
                .collect(),
            admission_budget: 0,
        },
        dataset,
    )
    .unwrap();
    assert!(fleet.cancel("tenant0"));
    match fleet.serve_batch("tenant0", "train", 0, 0) {
        Err(CoreError::TenantCancelled { tenant }) => assert_eq!(tenant, "tenant0"),
        other => panic!("expected TenantCancelled, got {other:?}"),
    }
    fleet.serve_batch("tenant1", "train", 0, 0).unwrap();
}
