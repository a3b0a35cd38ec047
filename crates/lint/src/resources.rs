//! Resource-feasibility analyses (`SL020`–`SL022`, `SL025`).
//!
//! These bound, *statically*, what the runtime will need: the largest
//! single-batch working set is a hard lower bound on live bytes — no
//! pruning or eviction policy can serve that batch with less. Comparing
//! the bound against the Algorithm-1 cache budget predicts
//! `BudgetUnreachable` at lint time instead of mid-training, and comparing
//! it against the store's memory tier predicts disk spill. A dry
//! [`prune_to_budget`] run over a cloned graph backs the bound with the
//! real pruning algorithm.

use crate::{Diagnostic, LintOptions, Severity};
use sand_config::TaskConfig;
use sand_graph::{prune_to_budget, ConcreteGraph, VideoMeta};
use std::collections::HashSet;

/// Lints resource feasibility for the planned workload.
#[must_use]
pub fn lint_resources(
    tasks: &[TaskConfig],
    concrete: Option<&ConcreteGraph>,
    videos: &[VideoMeta],
    opts: &LintOptions,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if let Some(g) = concrete {
        lint_budgets(g, opts, &mut out);
    }
    lint_decode_amplification(tasks, videos, &mut out);
    lint_prefetch_store(concrete, opts, &mut out);
    out
}

/// `SL025`: a prefetch window of `prefetch_depth` batches, each needing up
/// to the largest single-batch working set, cannot fit the store's
/// memory budget alongside the batch being consumed — the prefetcher's
/// back-pressure would permanently stall it, or worse, speculative
/// materialization would evict the very objects the demand path needs.
fn lint_prefetch_store(
    concrete: Option<&ConcreteGraph>,
    opts: &LintOptions,
    out: &mut Vec<Diagnostic>,
) {
    if opts.prefetch_depth > 0 {
        if let Some((need, which)) = concrete.and_then(max_batch_working_set) {
            let window = (opts.prefetch_depth as u64).saturating_mul(need);
            if window > opts.memory_budget {
                out.push(Diagnostic {
                    code: "SL025",
                    severity: Severity::Deny,
                    location: format!("engine.prefetch_depth ({which})"),
                    message: format!(
                        "prefetch window of {} batch(es) x {need} bytes \
                         worst-case working set = {window} bytes exceeds the \
                         store's {}-byte memory budget; speculative batches \
                         would evict the objects the demand path needs",
                        opts.prefetch_depth, opts.memory_budget
                    ),
                    help: "lower prefetch_depth, raise the memory tier \
                           budget, or shrink the batch working set"
                        .into(),
                });
            }
        }
    }
}

/// Largest distinct-terminal working set of any single batch, in bytes,
/// together with the batch's identity for the report.
fn max_batch_working_set(g: &ConcreteGraph) -> Option<(u64, String)> {
    g.batches
        .iter()
        .map(|b| {
            let distinct: HashSet<usize> = b
                .samples
                .iter()
                .flat_map(|s| s.frame_nodes.iter().copied())
                .filter(|&n| n < g.nodes.len())
                .collect();
            let bytes: u64 = distinct.iter().map(|&n| g.nodes[n].size_bytes).sum();
            (
                bytes,
                format!("task {}, epoch {}, iter {}", b.task, b.epoch, b.iteration),
            )
        })
        .max_by_key(|(bytes, _)| *bytes)
}

fn lint_budgets(g: &ConcreteGraph, opts: &LintOptions, out: &mut Vec<Diagnostic>) {
    let Some((need, which)) = max_batch_working_set(g) else {
        return;
    };
    // SL020: the cache budget cannot cover even one batch's terminals.
    if need > opts.cache_budget {
        out.push(Diagnostic {
            code: "SL020",
            severity: Severity::Deny,
            location: format!("concrete.batches ({which})"),
            message: format!(
                "cache budget of {} bytes is unreachable: a single batch \
                 needs {need} bytes of terminal objects live at once",
                opts.cache_budget
            ),
            help: "raise cache_budget, shrink videos_per_batch / \
                   frames_per_video, or reduce augmented frame dims"
                .into(),
        });
    } else {
        // Back the lower bound with the real pruning pass on a throwaway
        // clone; Algorithm 1 reporting failure here means no cache plan
        // fits the budget even after collapsing to cheaper ancestors.
        let mut dry = g.clone();
        let outcome = prune_to_budget(&mut dry, opts.cache_budget);
        if !outcome.within_budget {
            out.push(Diagnostic {
                code: "SL020",
                severity: Severity::Deny,
                location: "concrete".into(),
                message: format!(
                    "pruning cannot reach the {}-byte cache budget: {} bytes \
                     remain cached after exhausting every collapse",
                    opts.cache_budget, outcome.cached_bytes
                ),
                help: "raise cache_budget or reduce the planned working set".into(),
            });
        }
    }
    // SL022: the batch fits the cache budget but not the memory tier, so
    // serving it will thrash the disk tier every iteration.
    if need <= opts.cache_budget && need > opts.memory_budget {
        out.push(Diagnostic {
            code: "SL022",
            severity: Severity::Warn,
            location: format!("concrete.batches ({which})"),
            message: format!(
                "a single batch needs {need} bytes but the store's memory \
                 tier holds only {}; every iteration will spill to disk",
                opts.memory_budget
            ),
            help: "raise the memory tier budget or shrink the batch working \
                   set"
            .into(),
        });
    }
}

/// `SL021`: sparse sampling relative to the GOP size forces the decoder
/// to walk long anchor chains for every selected frame.
fn lint_decode_amplification(
    tasks: &[TaskConfig],
    videos: &[VideoMeta],
    out: &mut Vec<Diagnostic>,
) {
    let Some(gop) = videos.iter().map(|v| v.gop_size).filter(|&g| g >= 2).min() else {
        return;
    };
    for task in tasks {
        let stride = task.sampling.frame_stride;
        if stride >= gop {
            // Consecutive selected frames land in different GOPs, so each
            // one restarts decoding from its GOP anchor: on average
            // (gop-1)/2 discarded frames per selected frame.
            let waste = (gop - 1) / 2;
            out.push(Diagnostic {
                code: "SL021",
                severity: Severity::Warn,
                location: format!("{}.sampling.frame_stride", task.tag),
                message: format!(
                    "frame_stride {stride} >= GOP size {gop}: every selected \
                     frame decodes from a fresh anchor, wasting ~{waste} \
                     frame decode(s) each"
                ),
                help: "lower frame_stride below the GOP size, or re-encode \
                       the dataset with a larger GOP"
                    .into(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sand_config::parse_task_config;
    use sand_graph::{PlanInput, Planner, PlannerOptions};

    fn yaml(stride: usize) -> String {
        format!(
            "dataset:\n  tag: t\n  input_source: file\n  video_dataset_path: /d\n  sampling:\n    videos_per_batch: 2\n    frames_per_video: 4\n    frame_stride: {stride}\n  augmentation:\n    - name: r\n      branch_type: single\n      inputs: [\"frame\"]\n      outputs: [\"a0\"]\n      config:\n        - resize:\n            shape: [32, 32]\n"
        )
    }

    fn videos(gop: usize) -> Vec<VideoMeta> {
        (0..4u64)
            .map(|video_id| VideoMeta {
                video_id,
                frames: 64,
                width: 64,
                height: 64,
                channels: 3,
                gop_size: gop,
                encoded_bytes: 4096,
            })
            .collect()
    }

    fn planned(stride: usize, gop: usize) -> (Vec<TaskConfig>, ConcreteGraph, Vec<VideoMeta>) {
        let cfg = parse_task_config(&yaml(stride)).unwrap();
        let vs = videos(gop);
        let planner = Planner::new(
            vec![PlanInput {
                task_id: 0,
                config: cfg.clone(),
            }],
            vs.clone(),
            PlannerOptions::default(),
        )
        .unwrap();
        (vec![cfg], planner.plan().unwrap(), vs)
    }

    #[test]
    fn generous_budgets_lint_clean() {
        let (tasks, g, vs) = planned(2, 8);
        let opts = LintOptions {
            cache_budget: 1 << 30,
            memory_budget: 1 << 30,
            ..Default::default()
        };
        assert!(lint_resources(&tasks, Some(&g), &vs, &opts).is_empty());
    }

    #[test]
    fn sl020_budget_below_single_batch() {
        let (tasks, g, vs) = planned(2, 8);
        // One 32x32x3 terminal is 3072 bytes; a batch of 2 videos x 4
        // frames needs ~24 KiB. A 1-byte budget is unreachable.
        let opts = LintOptions {
            cache_budget: 1,
            memory_budget: 1 << 30,
            ..Default::default()
        };
        let d = lint_resources(&tasks, Some(&g), &vs, &opts);
        assert!(
            d.iter()
                .any(|x| x.code == "SL020" && x.severity == Severity::Deny),
            "{d:?}"
        );
    }

    #[test]
    fn sl022_memory_tier_smaller_than_batch() {
        let (tasks, g, vs) = planned(2, 8);
        let opts = LintOptions {
            cache_budget: 1 << 30,
            memory_budget: 1024,
            ..Default::default()
        };
        let d = lint_resources(&tasks, Some(&g), &vs, &opts);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].code, "SL022");
        assert_eq!(d[0].severity, Severity::Warn);
    }

    #[test]
    fn sl021_stride_at_or_above_gop() {
        let (tasks, g, vs) = planned(8, 8);
        let opts = LintOptions {
            cache_budget: 1 << 30,
            memory_budget: 1 << 30,
            ..Default::default()
        };
        let d = lint_resources(&tasks, Some(&g), &vs, &opts);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].code, "SL021");
        assert_eq!(d[0].location, "t.sampling.frame_stride");
        // Works without a concrete graph too (config-only lint entry).
        let d = lint_resources(&tasks, None, &vs, &opts);
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn sl021_silent_when_dense() {
        let (tasks, _, vs) = planned(2, 8);
        assert!(lint_resources(&tasks, None, &vs, &LintOptions::default()).is_empty());
    }

    #[test]
    fn sl025_prefetch_window_exceeds_memory_budget() {
        let (tasks, g, vs) = planned(2, 8);
        // A batch of 2 videos x 4 frames of 32x32x3 terminals needs
        // ~24 KiB; 4 speculative batches overrun a 32 KiB memory tier.
        let opts = LintOptions {
            cache_budget: 1 << 30,
            memory_budget: 32 << 10,
            prefetch_depth: 4,
            ..Default::default()
        };
        let d = lint_resources(&tasks, Some(&g), &vs, &opts);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].code, "SL025");
        assert_eq!(d[0].severity, Severity::Deny);
        assert!(d[0].message.contains("prefetch window"), "{}", d[0].message);
    }

    #[test]
    fn sl025_silent_when_window_fits() {
        let (tasks, g, vs) = planned(2, 8);
        let opts = LintOptions {
            cache_budget: 1 << 30,
            memory_budget: 1 << 30,
            prefetch_depth: 4,
            ..Default::default()
        };
        assert!(lint_resources(&tasks, Some(&g), &vs, &opts).is_empty());
    }
}
