//! Config-semantics analyses (`SL001`–`SL004`).
//!
//! These run over the parsed [`TaskConfig`] set alone, before any graph is
//! built, and reason about the *training domain*: conditions are evaluated
//! symbolically over `epoch ∈ [0, total_epochs)` and (when the iteration
//! bound is known) `iteration ∈ [0, total_epochs × iterations_per_epoch)`,
//! matching exactly the values the planner later feeds to
//! `Condition::eval`. They assume a config that passed
//! `TaskConfig::validate` (probabilities form a distribution, every input
//! names an earlier stream); the parser and `SandEngine::new` both run it.

use crate::{Diagnostic, LintOptions, Severity};
use sand_config::condition::{CondOp, CondVar};
use sand_config::types::{BranchType, TaskConfig};
use sand_config::Condition;

/// Lints every task configuration.
#[must_use]
pub fn lint_configs(tasks: &[TaskConfig], opts: &LintOptions) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for task in tasks {
        lint_one(task, opts, &mut out);
    }
    out
}

/// Inclusive upper bound of a condition variable's domain, or `None` when
/// the domain is empty (zero epochs) or unbounded (unknown iterations).
fn domains(opts: &LintOptions) -> (Option<u64>, Option<u64>) {
    let epoch_max = opts.total_epochs.checked_sub(1);
    let iter_max = opts
        .iterations_per_epoch
        .and_then(|ipe| opts.total_epochs.checked_mul(ipe))
        .and_then(|n| n.checked_sub(1));
    (iter_max, epoch_max)
}

/// Whether `x <op> value` holds for *some* `x ∈ [0, max]`.
///
/// `max = None` means the variable is unbounded above.
fn exists_true(op: CondOp, value: u64, max: Option<u64>) -> bool {
    match op {
        CondOp::Lt => value >= 1,
        CondOp::Le => true,
        CondOp::Gt => max.is_none_or(|m| m > value),
        CondOp::Ge => max.is_none_or(|m| m >= value),
        CondOp::Eq => max.is_none_or(|m| value <= m),
    }
}

/// Whether `x <op> value` holds for *every* `x ∈ [0, max]`.
fn always_true(op: CondOp, value: u64, max: Option<u64>) -> bool {
    match op {
        CondOp::Lt => max.is_some_and(|m| m < value),
        CondOp::Le => max.is_some_and(|m| m <= value),
        CondOp::Gt => false, // x = 0 is never > value (u64).
        CondOp::Ge => value == 0,
        CondOp::Eq => value == 0 && max == Some(0),
    }
}

/// Symbolic reachability of one condition over the training domain:
/// `(can ever be true, is always true)`.
fn condition_range(cond: &Condition, opts: &LintOptions) -> (bool, bool) {
    match cond {
        Condition::Else => (true, true),
        Condition::Compare { var, op, value } => {
            let (iter_max, epoch_max) = domains(opts);
            let max = match var {
                CondVar::Iteration => iter_max,
                CondVar::Epoch => epoch_max,
            };
            (exists_true(*op, *value, max), always_true(*op, *value, max))
        }
    }
}

fn lint_one(task: &TaskConfig, opts: &LintOptions, out: &mut Vec<Diagnostic>) {
    let tag = &task.tag;
    for branch in &task.augmentation {
        let loc = |suffix: &str| format!("{tag}.augmentation.{}{suffix}", branch.name);
        match branch.branch_type {
            BranchType::Conditional => {
                // SL001: an arm is unreachable when its own condition can
                // never hold over the training domain, or when an earlier
                // arm's condition always holds (first match wins).
                let mut shadowed_by: Option<usize> = None;
                for (i, arm) in branch.arms.iter().enumerate() {
                    let Some(cond) = &arm.condition else { continue };
                    let (reachable, always) = condition_range(cond, opts);
                    if let Some(earlier) = shadowed_by {
                        out.push(Diagnostic {
                            code: "SL001",
                            severity: Severity::Warn,
                            location: loc(&format!(".arms[{i}]")),
                            message: format!(
                                "arm {i} of conditional branch `{}` can never be \
                                 taken: arm {earlier} always matches first",
                                branch.name
                            ),
                            help: "remove the dead arm or tighten the earlier \
                                   condition"
                                .into(),
                        });
                    } else if !reachable {
                        out.push(Diagnostic {
                            code: "SL001",
                            severity: Severity::Warn,
                            location: loc(&format!(".arms[{i}]")),
                            message: format!(
                                "arm {i} of conditional branch `{}` can never be \
                                 taken: `{}` is false over the whole run ({} \
                                 epochs)",
                                branch.name,
                                cond.canonical(),
                                opts.total_epochs
                            ),
                            help: "remove the dead arm or adjust the threshold to \
                                   fall inside the training domain"
                                .into(),
                        });
                    }
                    if always && !matches!(cond, Condition::Else) && shadowed_by.is_none() {
                        shadowed_by = Some(i);
                    }
                }
            }
            BranchType::Random => {
                // SL002: zero-probability arms are dead configuration.
                for (i, arm) in branch.arms.iter().enumerate() {
                    if arm.prob == Some(0.0) {
                        out.push(Diagnostic {
                            code: "SL002",
                            severity: Severity::Warn,
                            location: loc(&format!(".arms[{i}]")),
                            message: format!(
                                "arm {i} of random branch `{}` has \
                                 probability 0 and is never selected",
                                branch.name
                            ),
                            help: "remove the arm or give it nonzero \
                                   probability"
                                .into(),
                        });
                    }
                }
            }
            BranchType::Merge => {
                // SL003: a merge joining one distinct stream merges nothing.
                let mut distinct: Vec<&str> = Vec::new();
                for i in &branch.inputs {
                    if !distinct.iter().any(|d| d == i) {
                        distinct.push(i);
                    }
                }
                if distinct.len() < 2 {
                    out.push(Diagnostic {
                        code: "SL003",
                        severity: Severity::Warn,
                        location: loc(".inputs"),
                        message: format!(
                            "merge branch `{}` joins only one distinct stream \
                             ({:?})",
                            branch.name, branch.inputs
                        ),
                        help: "merge at least two distinct streams, or replace \
                               the merge with a single branch"
                            .into(),
                    });
                }
            }
            BranchType::Single | BranchType::Multi => {}
        }
    }
    // SL004: streams produced but never consumed. Unconsumed streams are
    // silently collated as extra batch variants; flag the ones that do not
    // look intentional (not from the final branch, not a multi fan-out).
    let consumed: Vec<&String> = task
        .augmentation
        .iter()
        .flat_map(|b| b.inputs.iter())
        .collect();
    let last = task.augmentation.len().saturating_sub(1);
    for (b_idx, branch) in task.augmentation.iter().enumerate() {
        if b_idx == last || branch.branch_type == BranchType::Multi {
            continue;
        }
        for o in &branch.outputs {
            if !consumed.contains(&o) {
                out.push(Diagnostic {
                    code: "SL004",
                    severity: Severity::Warn,
                    location: format!("{tag}.augmentation.{}.outputs", branch.name),
                    message: format!(
                        "stream `{o}` is produced by branch `{}` but never \
                         consumed; it will be collated as an extra batch variant",
                        branch.name
                    ),
                    help: "feed the stream into a later branch, or move the \
                           branch to the end of the pipeline if the extra \
                           variant is intended"
                        .into(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sand_config::parse_task_config;
    use sand_config::types::{AugOp, Branch, BranchArm, InputSource, SamplingConfig};

    fn opts() -> LintOptions {
        LintOptions {
            total_epochs: 4,
            iterations_per_epoch: Some(8),
            ..Default::default()
        }
    }

    fn base(aug: Vec<Branch>) -> TaskConfig {
        TaskConfig {
            tag: "t".into(),
            input_source: InputSource::File,
            video_dataset_path: "/d".into(),
            sampling: SamplingConfig::default(),
            augmentation: aug,
        }
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_config_yields_nothing() {
        let cfg = parse_task_config(
            "dataset:\n  tag: t\n  input_source: file\n  video_dataset_path: /d\n  sampling:\n    videos_per_batch: 2\n    frames_per_video: 4\n    frame_stride: 2\n  augmentation:\n    - name: r\n      branch_type: single\n      inputs: [\"frame\"]\n      outputs: [\"a0\"]\n      config:\n        - resize:\n            shape: [16, 16]\n",
        )
        .unwrap();
        assert!(lint_configs(&[cfg], &opts()).is_empty());
    }

    #[test]
    fn sl001_unreachable_condition_over_domain() {
        let cfg = base(vec![Branch {
            name: "c".into(),
            branch_type: BranchType::Conditional,
            inputs: vec!["frame".into()],
            outputs: vec!["a".into()],
            arms: vec![
                BranchArm {
                    condition: Some(Condition::parse("epoch > 100").unwrap()),
                    prob: None,
                    ops: vec![AugOp::Invert],
                },
                BranchArm {
                    condition: Some(Condition::Else),
                    prob: None,
                    ops: vec![],
                },
            ],
        }]);
        let d = lint_configs(&[cfg], &opts());
        assert_eq!(codes(&d), vec!["SL001"]);
        assert!(d[0].location.contains("arms[0]"), "{}", d[0].location);
        assert!(d[0].message.contains("epoch > 100"), "{}", d[0].message);
    }

    #[test]
    fn sl001_shadowed_by_always_true_arm() {
        let cfg = base(vec![Branch {
            name: "c".into(),
            branch_type: BranchType::Conditional,
            inputs: vec!["frame".into()],
            outputs: vec!["a".into()],
            arms: vec![
                // epoch < 100 is always true for a 4-epoch run.
                BranchArm {
                    condition: Some(Condition::parse("epoch < 100").unwrap()),
                    prob: None,
                    ops: vec![],
                },
                BranchArm {
                    condition: Some(Condition::parse("epoch == 2").unwrap()),
                    prob: None,
                    ops: vec![AugOp::Invert],
                },
                BranchArm {
                    condition: Some(Condition::Else),
                    prob: None,
                    ops: vec![],
                },
            ],
        }]);
        let d = lint_configs(&[cfg], &opts());
        // Arm 1 and the else arm are both shadowed.
        assert_eq!(codes(&d), vec!["SL001", "SL001"]);
        assert!(
            d[0].message.contains("always matches first"),
            "{}",
            d[0].message
        );
    }

    #[test]
    fn sl001_reachable_conditions_stay_silent() {
        let cfg = base(vec![Branch {
            name: "c".into(),
            branch_type: BranchType::Conditional,
            inputs: vec!["frame".into()],
            outputs: vec!["a".into()],
            arms: vec![
                BranchArm {
                    condition: Some(Condition::parse("epoch >= 2").unwrap()),
                    prob: None,
                    ops: vec![AugOp::Invert],
                },
                BranchArm {
                    condition: Some(Condition::Else),
                    prob: None,
                    ops: vec![],
                },
            ],
        }]);
        assert!(lint_configs(&[cfg], &opts()).is_empty());
    }

    #[test]
    fn sl001_unknown_iteration_bound_is_conservative() {
        let mk = |cond: &str| {
            base(vec![Branch {
                name: "c".into(),
                branch_type: BranchType::Conditional,
                inputs: vec!["frame".into()],
                outputs: vec!["a".into()],
                arms: vec![
                    BranchArm {
                        condition: Some(Condition::parse(cond).unwrap()),
                        prob: None,
                        ops: vec![],
                    },
                    BranchArm {
                        condition: Some(Condition::Else),
                        prob: None,
                        ops: vec![],
                    },
                ],
            }])
        };
        let no_bound = LintOptions {
            iterations_per_epoch: None,
            ..opts()
        };
        // Without a bound, `iteration > 10^9` cannot be disproven.
        assert!(lint_configs(&[mk("iteration > 1000000000")], &no_bound).is_empty());
        // `iteration < 0` is false regardless of any bound.
        let d = lint_configs(&[mk("iteration < 0")], &no_bound);
        assert_eq!(codes(&d), vec!["SL001"]);
        // With the bound (4 epochs x 8 iters = 32), `iteration > 100` dies.
        let d = lint_configs(&[mk("iteration > 100")], &opts());
        assert_eq!(codes(&d), vec!["SL001"]);
    }

    #[test]
    fn sl002_zero_probability_arm() {
        let cfg = base(vec![Branch {
            name: "r".into(),
            branch_type: BranchType::Random,
            inputs: vec!["frame".into()],
            outputs: vec!["a".into()],
            arms: vec![
                BranchArm {
                    condition: None,
                    prob: Some(1.0),
                    ops: vec![],
                },
                BranchArm {
                    condition: None,
                    prob: Some(0.0),
                    ops: vec![AugOp::Invert],
                },
            ],
        }]);
        let d = lint_configs(&[cfg], &opts());
        assert_eq!(codes(&d), vec!["SL002"]);
        assert!(d[0].location.ends_with("arms[1]"), "{}", d[0].location);
    }

    #[test]
    fn sl003_single_input_merge() {
        let cfg = base(vec![
            Branch {
                name: "m".into(),
                branch_type: BranchType::Multi,
                inputs: vec!["frame".into()],
                outputs: vec!["x".into(), "y".into()],
                arms: vec![
                    BranchArm {
                        condition: None,
                        prob: None,
                        ops: vec![],
                    },
                    BranchArm {
                        condition: None,
                        prob: None,
                        ops: vec![AugOp::Invert],
                    },
                ],
            },
            Branch {
                name: "j".into(),
                branch_type: BranchType::Merge,
                inputs: vec!["x".into(), "x".into()],
                outputs: vec!["z".into()],
                arms: vec![BranchArm {
                    condition: None,
                    prob: None,
                    ops: vec![],
                }],
            },
        ]);
        let d = lint_configs(&[cfg], &opts());
        // The duplicate-input merge fires SL003; `y` dangles, firing SL004.
        assert!(codes(&d).contains(&"SL003"), "{:?}", codes(&d));
    }

    #[test]
    fn sl004_dead_stream() {
        let cfg = base(vec![
            Branch {
                name: "a".into(),
                branch_type: BranchType::Single,
                inputs: vec!["frame".into()],
                outputs: vec!["a0".into()],
                arms: vec![BranchArm {
                    condition: None,
                    prob: None,
                    ops: vec![],
                }],
            },
            // Reads `frame` instead of `a0`: `a0` silently becomes a
            // second batch variant — the classic disconnected pipeline.
            Branch {
                name: "b".into(),
                branch_type: BranchType::Single,
                inputs: vec!["frame".into()],
                outputs: vec!["a1".into()],
                arms: vec![BranchArm {
                    condition: None,
                    prob: None,
                    ops: vec![AugOp::Invert],
                }],
            },
        ]);
        let d = lint_configs(&[cfg], &opts());
        assert_eq!(codes(&d), vec!["SL004"]);
        assert!(d[0].message.contains("`a0`"), "{}", d[0].message);
    }

    #[test]
    fn terminal_branch_output_is_not_dead() {
        // The final branch's output is the intended terminal stream.
        let cfg = base(vec![Branch {
            name: "a".into(),
            branch_type: BranchType::Single,
            inputs: vec!["frame".into()],
            outputs: vec!["a0".into()],
            arms: vec![BranchArm {
                condition: None,
                prob: None,
                ops: vec![],
            }],
        }]);
        assert!(lint_configs(&[cfg], &opts()).is_empty());
    }
}
