//! Generator of parser-accepted task configs, shared by the config and
//! lint property tests (`sand-lint` includes this file by path).

use proptest::prelude::*;

/// One generated augmentation stage (rendered to YAML below).
#[derive(Debug, Clone)]
pub enum BSpec {
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
pub struct Spec {
    vpb: usize,
    fpv: usize,
    stride: usize,
    branches: Vec<BSpec>,
}

pub fn spec_strategy() -> impl Strategy<Value = Spec> {
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
pub fn render(spec: &Spec) -> String {
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
