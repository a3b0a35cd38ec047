//! The planner against its reference: `Planner::plan` must build, node
//! for node, the graph the string-keyed planner in `plan_reference`
//! builds — same ids, parents, children order, consumers, sizes, costs,
//! dims and ops, the same batches, statistics and store keys — over random
//! task sets, video geometry, epoch ranges, coordination on and off,
//! several samples per video and multi-branch configurations.

#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use sand_config::types::{
    AugOp, Branch, BranchArm, BranchType, InputSource, SamplingConfig, TaskConfig,
};
use sand_graph::{
    BatchRef, ConcreteGraph, ObjectKey, PlanInput, Planner, PlannerOptions, VideoMeta,
};

mod plan_reference;

use plan_reference::{plan_reference, ref_store_key, RefGraph, RefKey};

fn single(name: &str, input: &str, output: &str, ops: Vec<AugOp>) -> Branch {
    Branch {
        name: name.into(),
        branch_type: BranchType::Single,
        inputs: vec![input.into()],
        outputs: vec![output.into()],
        arms: vec![BranchArm {
            condition: None,
            prob: None,
            ops,
        }],
    }
}

fn arm(prob: Option<f64>, ops: Vec<AugOp>) -> BranchArm {
    BranchArm {
        condition: None,
        prob,
        ops,
    }
}

/// The branches of a pipeline after its optional resize, reading `input`:
/// one kind per shape of branch (single, random, multi), 5 for none.
fn stage(kind: u8, input: &str) -> Vec<Branch> {
    let jitter = AugOp::ColorJitter {
        brightness: 0.3,
        contrast: 0.2,
        saturation: 0.1,
    };
    match kind {
        0 => vec![single(
            "c",
            input,
            "a1",
            vec![AugOp::RandomCrop { w: 8, h: 8 }],
        )],
        1 => vec![single(
            "j",
            input,
            "a1",
            vec![AugOp::Flip { prob: 0.5 }, jitter],
        )],
        2 => vec![Branch {
            name: "pick".into(),
            branch_type: BranchType::Random,
            inputs: vec![input.into()],
            outputs: vec!["a1".into()],
            arms: vec![
                arm(
                    Some(0.5),
                    vec![AugOp::Rotate { angles: vec![180] }, AugOp::Invert],
                ),
                arm(
                    Some(0.5),
                    vec![AugOp::Blur { radius: 1 }, AugOp::Flip { prob: 1.0 }],
                ),
            ],
        }],
        // Two parallel terminal streams: two variants per sample.
        3 => vec![Branch {
            name: "split".into(),
            branch_type: BranchType::Multi,
            inputs: vec![input.into()],
            outputs: vec!["x".into(), "y".into()],
            arms: vec![
                arm(None, vec![AugOp::CenterCrop { w: 8, h: 8 }]),
                arm(
                    None,
                    vec![AugOp::RandomCrop { w: 8, h: 8 }, AugOp::Flip { prob: 0.5 }],
                ),
            ],
        }],
        // Both arms of a split share a crop, then one flips.
        4 => vec![
            single("c", input, "a1", vec![AugOp::RandomCrop { w: 12, h: 12 }]),
            Branch {
                name: "split".into(),
                branch_type: BranchType::Multi,
                inputs: vec!["a1".into()],
                outputs: vec!["x".into(), "y".into()],
                arms: vec![
                    arm(None, vec![]),
                    arm(None, vec![AugOp::Flip { prob: 1.0 }]),
                ],
            },
        ],
        _ => Vec::new(),
    }
}

/// A random valid task, tagged by [`arb_tasks`]. `resize` 0 is none, 1
/// a square bilinear resize, 2 a nearest one.
fn arb_task() -> impl Strategy<Value = TaskConfig> {
    (
        (1usize..4, 1usize..5, 1usize..4, 1usize..4),
        0u8..3,
        0u8..6,
        prop::bool::ANY,
    )
        .prop_map(|((vpb, fpv, stride, samples), resize, kind, normalize)| {
            let mut augmentation = Vec::new();
            let mut last = "frame";
            if resize > 0 {
                let interpolation = if resize == 1 { "bilinear" } else { "nearest" };
                augmentation.push(single(
                    "r",
                    "frame",
                    "a0",
                    vec![AugOp::Resize {
                        w: 16,
                        h: 16,
                        interpolation: interpolation.into(),
                    }],
                ));
                last = "a0";
            }
            augmentation.extend(stage(kind, last));
            if normalize && kind == 0 {
                augmentation.push(single(
                    "n",
                    "a1",
                    "a2",
                    vec![AugOp::Normalize {
                        mean: vec![0.45; 3],
                        std: vec![0.225; 3],
                    }],
                ));
            }
            TaskConfig {
                tag: String::new(),
                input_source: InputSource::File,
                video_dataset_path: "/d".into(),
                sampling: SamplingConfig {
                    videos_per_batch: vpb,
                    frames_per_video: fpv,
                    frame_stride: stride,
                    samples_per_video: samples,
                },
                augmentation,
            }
        })
}

fn arb_tasks() -> impl Strategy<Value = Vec<PlanInput>> {
    prop::collection::vec(arb_task(), 1..4).prop_map(|configs| {
        configs
            .into_iter()
            .enumerate()
            .map(|(i, mut config)| {
                config.tag = format!("t{i}");
                PlanInput {
                    task_id: i as u32 * 3 + 1,
                    config,
                }
            })
            .collect()
    })
}

fn arb_videos() -> impl Strategy<Value = Vec<VideoMeta>> {
    (1u64..7, 20usize..64, 0usize..3, 1usize..4, 0usize..10).prop_map(
        |(n, frames, shape, channels, gop_size)| {
            let (width, height) = [(32, 32), (24, 40), (40, 24)][shape];
            (0..n)
                .map(|i| VideoMeta {
                    video_id: 10 * i + 3,
                    frames: frames + i as usize,
                    width,
                    height,
                    channels,
                    gop_size,
                    encoded_bytes: 10_000,
                })
                .collect()
        },
    )
}

/// The store key of a planned object, in `sand_core::store_key`'s format.
fn key_string(key: &ObjectKey) -> String {
    match key {
        ObjectKey::Video { video_id } => format!("v{video_id:04}/src"),
        ObjectKey::Frame { video_id, frame } => format!("v{video_id:04}/f{frame:05}"),
        ObjectKey::Aug {
            video_id,
            frame,
            digest,
            ..
        } => format!("v{video_id:04}/f{frame:05}/a{digest:016x}"),
    }
}

fn same_key(key: &ObjectKey, reference: &RefKey) -> bool {
    let shape = match (key, reference) {
        (ObjectKey::Video { video_id: a }, RefKey::Video { video_id: b }) => a == b,
        (
            ObjectKey::Frame {
                video_id: a,
                frame: f,
            },
            RefKey::Frame {
                video_id: b,
                frame: g,
            },
        ) => a == b && f == g,
        (
            ObjectKey::Aug {
                video_id: a,
                frame: f,
                depth,
                ..
            },
            RefKey::Aug {
                video_id: b,
                frame: g,
                chain,
            },
        ) => a == b && f == g && *depth as usize == chain.len(),
        _ => false,
    };
    shape && key_string(key) == ref_store_key(reference)
}

fn same_batches(a: &[BatchRef], b: &[BatchRef]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            (x.task, x.epoch, x.iteration, x.clock) == (y.task, y.epoch, y.iteration, y.clock)
                && x.samples.len() == y.samples.len()
                && x.samples.iter().zip(&y.samples).all(|(s, t)| {
                    (s.video_id, s.sample, s.variant) == (t.video_id, t.sample, t.variant)
                        && s.frame_nodes == t.frame_nodes
                        && s.frame_indices == t.frame_indices
                        && s.normalize == t.normalize
                })
        })
}

/// Asserts `graph` is `reference`, node for node.
fn assert_same(graph: &ConcreteGraph, reference: &RefGraph) -> Result<(), TestCaseError> {
    prop_assert_eq!(graph.nodes.len(), reference.nodes.len());
    for (id, (n, r)) in graph.nodes.iter().zip(&reference.nodes).enumerate() {
        prop_assert_eq!(n.id, id);
        prop_assert!(
            same_key(&n.key, &r.key),
            "node {}: {:?} vs {:?}",
            id,
            n.key,
            r.key
        );
        prop_assert_eq!(n.parent, r.parent, "node {}", id);
        prop_assert_eq!(&n.children, &r.children, "node {}", id);
        prop_assert_eq!(&n.consumers, &r.consumers, "node {}", id);
        prop_assert_eq!(n.size_bytes, r.size_bytes, "node {}", id);
        prop_assert_eq!(n.edge_cost.to_bits(), r.edge_cost.to_bits(), "node {}", id);
        prop_assert_eq!(n.cached, r.cached, "node {}", id);
        prop_assert_eq!(n.dims, r.dims, "node {}", id);
        prop_assert_eq!(&n.op, &r.op, "node {}", id);
    }
    for (&video_id, &root) in &graph.roots {
        prop_assert_eq!(&reference.nodes[root].key, &RefKey::Video { video_id });
    }
    prop_assert!(same_batches(&graph.batches, &reference.batches));
    let (s, r) = (&graph.stats, &reference.stats);
    prop_assert_eq!(
        (
            s.decode_requests,
            s.unique_frames,
            s.aug_requests,
            s.unique_aug_nodes
        ),
        (
            r.decode_requests,
            r.unique_frames,
            r.aug_requests,
            r.unique_aug_nodes
        )
    );
    let owned = |m: &std::collections::HashMap<&'static str, u64>| {
        m.iter()
            .map(|(k, v)| ((*k).to_string(), *v))
            .collect::<std::collections::HashMap<_, _>>()
    };
    prop_assert_eq!(owned(&s.op_requests), r.op_requests.clone());
    prop_assert_eq!(owned(&s.op_unique), r.op_unique.clone());
    prop_assert_eq!(&s.frame_selection, &r.frame_selection);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn prop_plan_matches_reference(
        tasks in arb_tasks(),
        videos in arb_videos(),
        start in 0u64..5,
        len in 1u64..4,
        coordinate in prop::bool::ANY,
        seed in any::<u64>(),
    ) {
        let options = PlannerOptions { seed, coordinate, epochs: start..start + len };
        let reference = plan_reference(&tasks, &videos, &options);
        let planner = Planner::new(tasks, videos, options);
        prop_assert!(planner.is_ok(), "{:?}", planner.err());
        match (planner.unwrap().plan(), reference) {
            (Ok(graph), Ok(reference)) => assert_same(&graph, &reference)?,
            (Err(_), Err(_)) => {}
            (planned, reference) => prop_assert!(
                false,
                "one planner failed: {:?} vs {:?}",
                planned.err(),
                reference.err()
            ),
        }
    }
}
