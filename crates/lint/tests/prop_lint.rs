//! Property tests for `sand-lint`.
//!
//! The central contract: any configuration the parser accepts — rendered
//! to YAML and round-tripped through `parse_task_config` — produces no
//! deny-severity findings (the linter never rejects a valid workload),
//! while targeted mutations that break invariants the parser cannot see
//! produce the specific `SL0xx` codes documented for them.

#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use sand_config::types::{Branch, BranchArm, BranchType, InputSource, SamplingConfig, TaskConfig};
use sand_config::{parse_task_config, Condition};
use sand_graph::{AbstractGraph, PlanInput, Planner, PlannerOptions, VideoMeta};
use sand_lint::{lint_all, lint_configs, LintOptions, Severity};

/// One generated augmentation stage (rendered to YAML below).
#[derive(Debug, Clone)]
enum BSpec {
    /// `single` with one crop op of the given size.
    Crop(usize),
    /// `random` with exact dyadic probabilities (sum exactly 1).
    Random(Vec<f64>),
    /// `conditional` on `epoch < k` with an `else` fallback.
    Cond(u64),
}

fn branch_strategy() -> impl Strategy<Value = BSpec> {
    prop_oneof![
        (8usize..=16).prop_map(BSpec::Crop),
        prop_oneof![
            Just(vec![0.5, 0.5]),
            Just(vec![0.25, 0.75]),
            Just(vec![0.25, 0.25, 0.5]),
        ]
        .prop_map(BSpec::Random),
        (1u64..=4).prop_map(BSpec::Cond),
    ]
}

#[derive(Debug, Clone)]
struct Spec {
    vpb: usize,
    fpv: usize,
    stride: usize,
    branches: Vec<BSpec>,
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    (
        1usize..=4,
        1usize..=4,
        1usize..=4,
        prop::collection::vec(branch_strategy(), 0..=3),
    )
        .prop_map(|(vpb, fpv, stride, branches)| Spec {
            vpb,
            fpv,
            stride,
            branches,
        })
}

/// Renders a spec to the YAML dialect `parse_task_config` accepts.
fn render(spec: &Spec) -> String {
    let mut y = format!(
        "dataset:\n  tag: t\n  input_source: file\n  video_dataset_path: /d\n  sampling:\n    videos_per_batch: {}\n    frames_per_video: {}\n    frame_stride: {}\n  augmentation:\n    - name: base\n      branch_type: single\n      inputs: [\"frame\"]\n      outputs: [\"s0\"]\n      config:\n        - resize:\n            shape: [32, 32]\n",
        spec.vpb, spec.fpv, spec.stride
    );
    // Track the working dims so chained crops never exceed their source.
    let mut cur = 32usize;
    for (i, b) in spec.branches.iter().enumerate() {
        let (inp, out) = (format!("s{i}"), format!("s{}", i + 1));
        match b {
            BSpec::Crop(wh) => {
                let wh = (*wh).min(cur);
                cur = wh;
                y.push_str(&format!(
                    "    - name: b{i}\n      branch_type: single\n      inputs: [\"{inp}\"]\n      outputs: [\"{out}\"]\n      config:\n        - center_crop:\n            shape: [{wh}, {wh}]\n"
                ));
            }
            BSpec::Random(probs) => {
                y.push_str(&format!(
                    "    - name: b{i}\n      branch_type: random\n      inputs: [\"{inp}\"]\n      outputs: [\"{out}\"]\n      branches:\n"
                ));
                for p in probs {
                    y.push_str(&format!(
                        "        - prob: {p}\n          config:\n            - flip:\n                flip_prob: 0.5\n"
                    ));
                }
            }
            BSpec::Cond(k) => {
                y.push_str(&format!(
                    "    - name: b{i}\n      branch_type: conditional\n      inputs: [\"{inp}\"]\n      outputs: [\"{out}\"]\n      branches:\n        - condition: \"epoch < {k}\"\n          config:\n            - inv_sample: true\n        - condition: \"else\"\n          config: None\n"
                ));
            }
        }
    }
    y
}

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

    /// Perturbing one arm probability past the tolerance (bypassing the
    /// parser, as a programmatic config constructor could) fires `SL005`.
    #[test]
    fn perturbed_probabilities_fire_sl005(
        spec in spec_strategy(),
        delta in 0.001f64..0.4,
    ) {
        let yaml = render(&spec);
        let mut cfg = parse_task_config(&yaml).unwrap();
        let Some(branch) = cfg
            .augmentation
            .iter_mut()
            .find(|b| b.branch_type == BranchType::Random)
        else {
            return Ok(()); // no random branch generated this round
        };
        if let Some(p) = &mut branch.arms[0].prob {
            *p += delta;
        }
        let d = lint_configs(&[cfg], &opts());
        prop_assert!(
            d.iter().any(|x| x.code == "SL005" && x.severity == Severity::Deny),
            "expected SL005, got {d:?}"
        );
    }

    /// Rewiring a branch input to an undefined stream fires `SL006`.
    #[test]
    fn dangling_inputs_fire_sl006(spec in spec_strategy()) {
        let yaml = render(&spec);
        let mut cfg = parse_task_config(&yaml).unwrap();
        cfg.augmentation[0].inputs = vec!["nope".to_string()];
        let d = lint_configs(&[cfg], &opts());
        prop_assert!(
            d.iter().any(|x| x.code == "SL006" && x.severity == Severity::Deny),
            "expected SL006, got {d:?}"
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

/// Direct-construction mutation: a config with probabilities summing to
/// 0.6 routed past the parser must be caught by the linter, not trusted.
#[test]
fn constructed_bad_distribution_fires_sl005() {
    let cfg = TaskConfig {
        tag: "t".into(),
        input_source: InputSource::File,
        video_dataset_path: "/d".into(),
        sampling: SamplingConfig::default(),
        augmentation: vec![Branch {
            name: "r".into(),
            branch_type: BranchType::Random,
            inputs: vec!["frame".into()],
            outputs: vec!["a0".into()],
            arms: vec![
                BranchArm {
                    condition: None,
                    prob: Some(0.3),
                    ops: vec![],
                },
                BranchArm {
                    condition: None,
                    prob: Some(0.3),
                    ops: vec![],
                },
            ],
        }],
    };
    let d = lint_configs(&[cfg], &LintOptions::default());
    assert!(d.iter().any(|x| x.code == "SL005"), "{d:?}");
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
