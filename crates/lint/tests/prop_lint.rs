//! Property tests for `sand-lint`.
//!
//! The central contract: any configuration the parser accepts — rendered
//! to YAML and round-tripped through `parse_task_config` — produces no
//! deny-severity findings (the linter never rejects a valid workload),
//! while a budget no plan can meet produces the `SL020` documented for it.
//! (Configs the parser would reject are `TaskConfig::validate`'s to
//! catch: `crates/config/tests/prop_config.rs`.)

#![allow(clippy::unwrap_used)]

#[path = "../../config/tests/spec_gen/mod.rs"]
mod spec_gen;

use proptest::prelude::*;
use sand_config::types::{Branch, BranchArm, BranchType, InputSource, SamplingConfig, TaskConfig};
use sand_config::{parse_task_config, Condition};
use sand_graph::{AbstractGraph, PlanInput, Planner, PlannerOptions, VideoMeta};
use sand_lint::{lint_all, lint_configs, LintOptions, Severity};
use spec_gen::{render, spec_strategy};

fn opts() -> LintOptions {
    LintOptions {
        total_epochs: 4,
        iterations_per_epoch: Some(8),
        cache_budget: 1 << 30,
        memory_budget: 1 << 30,
        ..Default::default()
    }
}

fn videos() -> Vec<VideoMeta> {
    (0..4u64)
        .map(|video_id| VideoMeta {
            video_id,
            frames: 64,
            width: 64,
            height: 64,
            channels: 3,
            gop_size: 8,
            encoded_bytes: 4096,
        })
        .collect()
}

/// Runs the complete pass — configs, both graphs, resources, sharing —
/// exactly as the engine does at startup.
fn full_lint(cfg: &TaskConfig, o: &LintOptions) -> sand_lint::LintReport {
    let graphs = vec![AbstractGraph::from_config(cfg)];
    let vs = videos();
    let planner = Planner::new(
        vec![PlanInput {
            task_id: 0,
            config: cfg.clone(),
        }],
        vs.clone(),
        PlannerOptions::default(),
    )
    .unwrap();
    let concrete = planner.plan().unwrap();
    lint_all(std::slice::from_ref(cfg), &graphs, Some(&concrete), &vs, o)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Parser-accepted configurations never produce deny findings.
    #[test]
    fn accepted_configs_lint_clean_at_deny(spec in spec_strategy()) {
        let yaml = render(&spec);
        let cfg = parse_task_config(&yaml).unwrap_or_else(|e| {
            panic!("generated YAML must parse: {e}\n{yaml}")
        });
        let report = full_lint(&cfg, &opts());
        prop_assert_eq!(
            report.deny_count(),
            0,
            "valid config produced denies:\n{}",
            report.render_human()
        );
    }

    /// A zero cache budget is unreachable for every planned workload.
    #[test]
    fn tiny_budget_fires_sl020(spec in spec_strategy()) {
        let yaml = render(&spec);
        let cfg = parse_task_config(&yaml).unwrap();
        let o = LintOptions { cache_budget: 0, ..opts() };
        let report = full_lint(&cfg, &o);
        prop_assert!(
            report.diagnostics.iter().any(|x| x.code == "SL020"),
            "expected SL020:\n{}",
            report.render_human()
        );
    }
}

/// Conditions outside the training domain warn (`SL001`) but never deny:
/// the workload still runs, just with a dead arm.
#[test]
fn dead_arm_is_warn_not_deny() {
    let cfg = TaskConfig {
        tag: "t".into(),
        input_source: InputSource::File,
        video_dataset_path: "/d".into(),
        sampling: SamplingConfig::default(),
        augmentation: vec![Branch {
            name: "c".into(),
            branch_type: BranchType::Conditional,
            inputs: vec!["frame".into()],
            outputs: vec!["a0".into()],
            arms: vec![
                BranchArm {
                    condition: Some(Condition::parse("epoch > 999").unwrap()),
                    prob: None,
                    ops: vec![],
                },
                BranchArm {
                    condition: Some(Condition::Else),
                    prob: None,
                    ops: vec![],
                },
            ],
        }],
    };
    let d = lint_configs(&[cfg], &LintOptions::default());
    assert_eq!(d.len(), 1);
    assert_eq!(d[0].code, "SL001");
    assert_eq!(d[0].severity, Severity::Warn);
}
