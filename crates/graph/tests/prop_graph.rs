//! Property-based tests for planning invariants: the Data Access Rule,
//! randomness preservation, merge monotonicity, and pruning budgets.

#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use sand_config::types::{
    AugOp, Branch, BranchArm, BranchType, InputSource, SamplingConfig, TaskConfig,
};
use sand_graph::{prune_to_budget, FramePool, ObjectKey, PlanInput, Planner, PlannerOptions};

mod prune_reference;

/// A random but always-valid task configuration over 32x32 sources.
fn arb_task(tag: &'static str) -> impl Strategy<Value = TaskConfig> {
    (
        1usize..4,
        2usize..6,
        1usize..5,
        1usize..3,
        prop::bool::ANY,
        prop::bool::ANY,
    )
        .prop_map(move |(vpb, fpv, stride, samples, with_resize, with_crop)| {
            let mut branches = Vec::new();
            let mut last = "frame".to_string();
            if with_resize {
                branches.push(Branch {
                    name: "r".into(),
                    branch_type: BranchType::Single,
                    inputs: vec![last.clone()],
                    outputs: vec!["a0".into()],
                    arms: vec![BranchArm {
                        condition: None,
                        prob: None,
                        ops: vec![AugOp::Resize {
                            w: 16,
                            h: 16,
                            interpolation: "bilinear".into(),
                        }],
                    }],
                });
                last = "a0".into();
            }
            if with_crop {
                branches.push(Branch {
                    name: "c".into(),
                    branch_type: BranchType::Single,
                    inputs: vec![last.clone()],
                    outputs: vec!["a1".into()],
                    arms: vec![BranchArm {
                        condition: None,
                        prob: None,
                        ops: vec![AugOp::RandomCrop { w: 8, h: 8 }],
                    }],
                });
            }
            TaskConfig {
                tag: tag.to_string(),
                input_source: InputSource::File,
                video_dataset_path: "/d".into(),
                sampling: SamplingConfig {
                    videos_per_batch: vpb,
                    frames_per_video: fpv,
                    frame_stride: stride,
                    samples_per_video: samples,
                },
                augmentation: branches,
            }
        })
}

fn videos(n: usize, frames: usize) -> Vec<sand_graph::VideoMeta> {
    (0..n as u64)
        .map(|video_id| sand_graph::VideoMeta {
            video_id,
            frames,
            width: 32,
            height: 32,
            channels: 3,
            gop_size: 8,
            encoded_bytes: 10_000,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_video_once_per_epoch(cfg in arb_task("t"), n_videos in 2usize..8, seed in any::<u64>()) {
        let planner = Planner::new(
            vec![PlanInput { task_id: 0, config: cfg.clone() }],
            videos(n_videos, 64),
            PlannerOptions { seed, coordinate: true, epochs: 0..2 },
        ).unwrap();
        let g = planner.plan().unwrap();
        for epoch in 0..2u64 {
            let mut counts = vec![0usize; n_videos];
            for b in g.batches.iter().filter(|b| b.epoch == epoch) {
                for s in &b.samples {
                    if s.sample == 0 && s.variant == 0 {
                        counts[s.video_id as usize] += 1;
                    }
                }
            }
            // Data Access Rule: exactly once per epoch.
            prop_assert!(counts.iter().all(|&c| c == 1), "counts={counts:?}");
        }
    }

    #[test]
    fn merging_never_increases_work(cfg in arb_task("t"), seed in any::<u64>()) {
        let mk = |coordinate: bool| {
            Planner::new(
                vec![
                    PlanInput { task_id: 0, config: cfg.clone() },
                    PlanInput { task_id: 1, config: cfg.clone() },
                ],
                videos(3, 64),
                PlannerOptions { seed, coordinate, epochs: 0..1 },
            ).unwrap().plan().unwrap()
        };
        let coord = mk(true);
        let indep = mk(false);
        // Identical request volume either way.
        prop_assert_eq!(coord.stats.decode_requests, indep.stats.decode_requests);
        // Coordination can only reduce unique work.
        prop_assert!(coord.stats.unique_frames <= indep.stats.unique_frames);
        prop_assert!(coord.stats.unique_aug_nodes <= indep.stats.unique_aug_nodes);
        // Unique work never exceeds requests.
        prop_assert!(coord.stats.unique_frames <= coord.stats.decode_requests);
    }

    #[test]
    fn pruning_respects_any_budget(cfg in arb_task("t"), seed in any::<u64>(), frac in 0.0f64..1.0) {
        let planner = Planner::new(
            vec![PlanInput { task_id: 0, config: cfg }],
            videos(3, 64),
            PlannerOptions { seed, coordinate: true, epochs: 0..2 },
        ).unwrap();
        let mut g = planner.plan().unwrap();
        let full = g.cached_bytes();
        let budget = (full as f64 * frac) as u64;
        let out = prune_to_budget(&mut g, budget);
        // The video roots are free, so every budget is reachable.
        prop_assert!(out.within_budget, "budget {budget} of {full} unreachable");
        prop_assert!(g.cached_bytes() <= budget);
        prop_assert_eq!(g.cached_bytes(), out.cached_bytes);
    }

    /// The near-linear pruning pass performs exactly the collapse
    /// sequence of the quadratic one it replaced.
    #[test]
    fn prop_prune_matches_reference(
        a in arb_task("a"),
        b in arb_task("b"),
        n_videos in 1usize..7,
        epochs in 1u64..3,
        seed in any::<u64>(),
        // Budget kind x task count x starting cached set.
        variant in 0usize..16,
        frac in 0.0f64..1.0,
    ) {
        let (budget_kind, two_tasks, leaves_only) = (variant % 4, variant & 4 != 0, variant & 8 != 0);
        let mut tasks = vec![PlanInput { task_id: 0, config: a }];
        if two_tasks {
            tasks.push(PlanInput { task_id: 1, config: b });
        }
        let mut g = Planner::new(
            tasks,
            videos(n_videos, 64),
            PlannerOptions { seed, coordinate: true, epochs: 0..epochs },
        ).unwrap().plan().unwrap();
        if leaves_only {
            // The naive-leaf-cache starting point: intermediates uncached.
            for id in 0..g.nodes.len() {
                if !matches!(g.nodes[id].key, ObjectKey::Video { .. }) {
                    g.nodes[id].cached = g.nodes[id].children.is_empty();
                }
            }
        }
        let full = g.cached_bytes();
        let budget = match budget_kind {
            0 => 0,
            1 => (full as f64 * frac * 0.3) as u64,
            2 => (full as f64 * (0.5 + frac / 2.0)) as u64,
            _ => u64::MAX,
        };
        let mut reference = g.clone();
        let want = prune_reference::prune_to_budget(&mut reference, budget);
        let got = prune_to_budget(&mut g, budget);
        let cached = |g: &sand_graph::ConcreteGraph| g.nodes.iter().map(|n| n.cached).collect::<Vec<_>>();
        prop_assert_eq!(cached(&g), cached(&reference));
        prop_assert_eq!(got.collapses, want.collapses);
        prop_assert_eq!(got.cached_bytes, want.cached_bytes);
        prop_assert_eq!(got.within_budget, want.within_budget);
        let tolerance = 1e-9 * want.recompute_cost_added.abs().max(1.0);
        prop_assert!(
            (got.recompute_cost_added - want.recompute_cost_added).abs() <= tolerance,
            "recompute cost {} vs reference {}", got.recompute_cost_added, want.recompute_cost_added
        );
    }

    #[test]
    fn pruning_preserves_serveability(cfg in arb_task("t"), seed in any::<u64>()) {
        let planner = Planner::new(
            vec![PlanInput { task_id: 0, config: cfg }],
            videos(2, 64),
            PlannerOptions { seed, coordinate: true, epochs: 0..1 },
        ).unwrap();
        let mut g = planner.plan().unwrap();
        let budget = g.cached_bytes() / 2;
        prune_to_budget(&mut g, budget);
        // Every terminal node must have a cached ancestor-or-self.
        for b in &g.batches {
            for s in &b.samples {
                for &leaf in &s.frame_nodes {
                    let mut cur = Some(leaf);
                    let mut ok = false;
                    while let Some(id) = cur {
                        if g.nodes[id].cached { ok = true; break; }
                        cur = g.nodes[id].parent;
                    }
                    prop_assert!(ok);
                }
            }
        }
    }

    #[test]
    fn pool_selection_always_in_bounds(
        frames in 20usize..200,
        fpv1 in 1usize..8, s1 in 1usize..5,
        fpv2 in 1usize..8, s2 in 1usize..5,
        u in 0.0f64..1.0,
    ) {
        let c1 = SamplingConfig { videos_per_batch: 1, frames_per_video: fpv1, frame_stride: s1, samples_per_video: 1 };
        let c2 = SamplingConfig { videos_per_batch: 1, frames_per_video: fpv2, frame_stride: s2, samples_per_video: 1 };
        let span = c1.clip_span().max(c2.clip_span());
        prop_assume!(span <= frames);
        let pool = FramePool::build(frames, &[c1, c2], u).unwrap();
        for cfg in [&c1, &c2] {
            let sel = pool.select(cfg, u);
            prop_assert_eq!(sel.len(), cfg.frames_per_video);
            for idx in &sel {
                prop_assert!(*idx < frames);
            }
            // Strictly increasing with the task's own stride.
            for w in sel.windows(2) {
                prop_assert_eq!(w[1] - w[0], cfg.frame_stride);
            }
        }
    }
}
