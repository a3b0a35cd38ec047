//! Golden store keys of a fixed plan.
//!
//! A store key names an object across chunks, restarts (the value log is
//! replayed under it) and cluster nodes, so the key a plan derives for an
//! object must never drift. This test plans a fixed two-task chunk — a
//! resize, random crop, flip, color jitter and a two-arm split — and pins
//! its keys: a few spelled out, and the count and FNV-1a digest of all of
//! them, in node order. Recompute with
//! `cargo test -p sand-core --test golden_keys -- --nocapture` only when the
//! keys are meant to change (which orphans every stored object).

#![allow(clippy::unwrap_used)]

use sand_config::parse_task_config;
use sand_core::store_key;
use sand_graph::{PlanInput, Planner, PlannerOptions, VideoMeta};

const TASK: &str = r#"
dataset:
  tag: TAG
  input_source: file
  video_dataset_path: /d
  sampling:
    videos_per_batch: 2
    frames_per_video: 3
    frame_stride: 2
    samples_per_video: SAMPLES
  augmentation:
    - name: base
      branch_type: single
      inputs: ["frame"]
      outputs: ["a0"]
      config:
        - resize:
            shape: [24, 24]
        - random_crop:
            shape: [16, 16]
    - name: split
      branch_type: multi
      inputs: ["a0"]
      outputs: ["x", "y"]
      branches:
        - config:
            - flip:
                flip_prob: 0.5
        - config:
            - color_jitter:
                brightness: 0.4
                contrast: 0.3
                saturation: 0.2
"#;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn planned_keys() -> Vec<String> {
    let tasks = [("a", 1), ("b", 2)]
        .iter()
        .enumerate()
        .map(|(i, (tag, samples))| PlanInput {
            task_id: i as u32,
            config: parse_task_config(
                &TASK
                    .replace("TAG", tag)
                    .replace("SAMPLES", &samples.to_string()),
            )
            .unwrap(),
        })
        .collect();
    let videos = [2, 12_345, 9]
        .into_iter()
        .map(|video_id| VideoMeta {
            video_id,
            frames: 40,
            width: 32,
            height: 32,
            channels: 3,
            gop_size: 8,
            encoded_bytes: 10_000,
        })
        .collect();
    let graph = Planner::new(
        tasks,
        videos,
        PlannerOptions {
            seed: 7,
            coordinate: true,
            epochs: 2..4,
        },
    )
    .unwrap()
    .plan()
    .unwrap();
    graph.nodes.iter().map(|n| store_key(&n.key)).collect()
}

/// The plan's first keys: the three video roots, then video 2's first
/// frames, each followed by its resize-and-crop object and the crop's.
const HEAD: [&str; 12] = [
    "v0002/src",
    "v12345/src",
    "v0009/src",
    "v0002/f00033",
    "v0002/f00033/a63d35066efb1875a",
    "v0002/f00033/a0d9c5b2f97c8fa9f",
    "v0002/f00035",
    "v0002/f00035/a63d35066efb1875a",
    "v0002/f00035/a0d9c5b2f97c8fa9f",
    "v0002/f00037",
    "v0002/f00037/a63d35066efb1875a",
    "v0002/f00037/a0d9c5b2f97c8fa9f",
];

/// The plan's last keys.
const TAIL: [&str; 3] = [
    "v12345/f00030/ab731f9eb5e452a1f",
    "v12345/f00032/ab731f9eb5e452a1f",
    "v12345/f00034/ab731f9eb5e452a1f",
];

const COUNT: usize = 121;
const DIGEST: u64 = 0x409d_eb25_8788_f976;

#[test]
fn store_keys_of_a_fixed_plan_are_pinned() {
    let keys = planned_keys();
    let digest = keys.iter().fold(0xcbf2_9ce4_8422_2325, |h, k| {
        fnv(fnv(h, k.as_bytes()), b"\n")
    });
    println!("{} keys, digest {digest:#018x}", keys.len());
    assert_eq!(keys[..HEAD.len()], HEAD);
    assert_eq!(keys[keys.len() - TAIL.len()..], TAIL);
    assert_eq!(keys.len(), COUNT);
    assert_eq!(digest, DIGEST);
}
