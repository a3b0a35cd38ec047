//! The typed configuration model.

use crate::condition::Condition;
use crate::{ConfigError, Result};

/// Where raw videos come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputSource {
    /// A directory of video files.
    File,
    /// A live/remote stream (modelled by the remote storage tier).
    Streaming,
}

impl InputSource {
    /// Parses the canonical string form.
    pub fn parse(s: &str) -> Result<Self> {
        match s {
            "file" => Ok(InputSource::File),
            "streaming" => Ok(InputSource::Streaming),
            _ => Err(ConfigError::InvalidField {
                field: "input_source".into(),
                what: format!("unknown input source `{s}`"),
            }),
        }
    }
}

/// Temporal sampling policy (the "video handling" half of Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingConfig {
    /// Videos drawn per mini-batch.
    pub videos_per_batch: usize,
    /// Frames selected per video clip.
    pub frames_per_video: usize,
    /// Stride between selected frames (in display-order frames).
    pub frame_stride: usize,
    /// Training samples drawn from each video per epoch (>=1; used by
    /// self-supervised tasks to cut several clips from one video).
    pub samples_per_video: usize,
}

impl SamplingConfig {
    /// Validates the sampling parameters.
    pub fn validate(&self) -> Result<()> {
        let check = |v: usize, field: &str| {
            if v == 0 {
                Err(ConfigError::InvalidField {
                    field: format!("sampling.{field}"),
                    what: "must be >= 1".into(),
                })
            } else {
                Ok(())
            }
        };
        check(self.videos_per_batch, "videos_per_batch")?;
        check(self.frames_per_video, "frames_per_video")?;
        check(self.frame_stride, "frame_stride")?;
        check(self.samples_per_video, "samples_per_video")
    }

    /// Span of display-order frames one clip covers.
    #[must_use]
    pub fn clip_span(&self) -> usize {
        (self.frames_per_video - 1) * self.frame_stride + 1
    }
}

impl Default for SamplingConfig {
    fn default() -> Self {
        SamplingConfig {
            videos_per_batch: 8,
            frames_per_video: 8,
            frame_stride: 4,
            samples_per_video: 1,
        }
    }
}

/// One augmentation operation, as configured (randomness unresolved).
///
/// The planner resolves each stochastic op into a deterministic
/// `sand_frame::ops` instance per (task, video, sample, epoch).
#[derive(Debug, Clone, PartialEq)]
pub enum AugOp {
    /// Resize to `w x h` with the given interpolation name.
    Resize {
        /// Target width.
        w: usize,
        /// Target height.
        h: usize,
        /// Interpolation: `bilinear` or `nearest`.
        interpolation: String,
    },
    /// Random crop of `w x h` (position drawn by the planner).
    RandomCrop {
        /// Crop width.
        w: usize,
        /// Crop height.
        h: usize,
    },
    /// Center crop of `w x h`.
    CenterCrop {
        /// Crop width.
        w: usize,
        /// Crop height.
        h: usize,
    },
    /// Horizontal flip applied with probability `prob`.
    Flip {
        /// Probability of flipping.
        prob: f64,
    },
    /// Color jitter with symmetric ranges around 1.0.
    ColorJitter {
        /// Max brightness deviation (factor in `[1-b, 1+b]`).
        brightness: f64,
        /// Max contrast deviation.
        contrast: f64,
        /// Max saturation deviation.
        saturation: f64,
    },
    /// Rotation by a right angle chosen uniformly from `angles`.
    Rotate {
        /// Allowed angles (each 90, 180, or 270).
        angles: Vec<u32>,
    },
    /// Pixel inversion (`inv_sample` in the paper's example).
    Invert,
    /// Box blur with a fixed radius.
    Blur {
        /// Kernel radius (>= 1).
        radius: usize,
    },
    /// A user-registered custom operation, executed through the engine's
    /// RPC-style augmentation service (Sec. 5.5 of the paper). Custom ops
    /// must preserve frame dimensions.
    Custom {
        /// Registered operation name.
        name: String,
    },
    /// Per-channel normalization into a float tensor (terminal op).
    Normalize {
        /// Per-channel means.
        mean: Vec<f64>,
        /// Per-channel standard deviations.
        std: Vec<f64>,
    },
}

impl AugOp {
    /// True when the op involves randomness that planning must resolve.
    #[must_use]
    pub fn is_stochastic(&self) -> bool {
        matches!(
            self,
            AugOp::RandomCrop { .. }
                | AugOp::Flip { .. }
                | AugOp::ColorJitter { .. }
                | AugOp::Rotate { .. }
        )
    }

    /// Stable operation name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            AugOp::Resize { .. } => "resize",
            AugOp::RandomCrop { .. } => "random_crop",
            AugOp::CenterCrop { .. } => "center_crop",
            AugOp::Flip { .. } => "flip",
            AugOp::ColorJitter { .. } => "color_jitter",
            AugOp::Rotate { .. } => "rotate",
            AugOp::Invert => "inv_sample",
            AugOp::Blur { .. } => "blur",
            AugOp::Custom { .. } => "custom",
            AugOp::Normalize { .. } => "normalize",
        }
    }

    /// Validates the op parameters.
    pub fn validate(&self) -> Result<()> {
        let bad = |what: String| {
            Err(ConfigError::InvalidField {
                field: self.name().to_string(),
                what,
            })
        };
        match self {
            AugOp::Resize {
                w,
                h,
                interpolation,
            } => {
                if *w == 0 || *h == 0 {
                    return bad("resize target must be nonzero".into());
                }
                if interpolation != "bilinear" && interpolation != "nearest" {
                    return bad(format!("unknown interpolation `{interpolation}`"));
                }
            }
            AugOp::RandomCrop { w, h } | AugOp::CenterCrop { w, h } => {
                if *w == 0 || *h == 0 {
                    return bad("crop size must be nonzero".into());
                }
            }
            AugOp::Flip { prob } => {
                if !(0.0..=1.0).contains(prob) {
                    return bad("flip probability must be in [0, 1]".into());
                }
            }
            AugOp::ColorJitter {
                brightness,
                contrast,
                saturation,
            } => {
                for (n, v) in [
                    ("brightness", brightness),
                    ("contrast", contrast),
                    ("saturation", saturation),
                ] {
                    if !(0.0..=1.0).contains(v) {
                        return bad(format!("{n} deviation must be in [0, 1]"));
                    }
                }
            }
            AugOp::Rotate { angles } => {
                if angles.is_empty() {
                    return bad("rotate needs at least one angle".into());
                }
                for a in angles {
                    if ![90, 180, 270].contains(a) {
                        return bad(format!("unsupported angle {a}"));
                    }
                }
            }
            AugOp::Invert => {}
            AugOp::Blur { radius } => {
                if *radius == 0 {
                    return bad("blur radius must be >= 1".into());
                }
            }
            AugOp::Custom { name } => {
                if name.is_empty() {
                    return bad("custom op name must be nonempty".into());
                }
            }
            AugOp::Normalize { mean, std } => {
                if mean.is_empty() || mean.len() != std.len() {
                    return bad("mean/std must be same nonzero length".into());
                }
                if std.contains(&0.0) {
                    return bad("std must be nonzero".into());
                }
            }
        }
        Ok(())
    }
}

/// The control-flow type of a branch (the paper's five kinds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchType {
    /// A straight sequence of ops.
    Single,
    /// Arms guarded by conditions; first match wins.
    Conditional,
    /// One arm chosen with configured probability.
    Random,
    /// Data flow splits into all arms in parallel.
    Multi,
    /// Parallel flows join into one output.
    Merge,
}

impl BranchType {
    /// Parses the canonical string form.
    pub fn parse(s: &str) -> Result<Self> {
        match s {
            "single" => Ok(BranchType::Single),
            "conditional" => Ok(BranchType::Conditional),
            "random" => Ok(BranchType::Random),
            "multi" => Ok(BranchType::Multi),
            "merge" => Ok(BranchType::Merge),
            _ => Err(ConfigError::InvalidField {
                field: "branch_type".into(),
                what: format!("unknown branch type `{s}`"),
            }),
        }
    }
}

/// One arm of a conditional/random/multi branch.
#[derive(Debug, Clone, PartialEq)]
pub struct BranchArm {
    /// Guard for conditional branches.
    pub condition: Option<Condition>,
    /// Selection probability for random branches.
    pub prob: Option<f64>,
    /// Ops applied when this arm is taken (empty = pass-through).
    pub ops: Vec<AugOp>,
}

/// One named augmentation stage.
#[derive(Debug, Clone, PartialEq)]
pub struct Branch {
    /// Stage name (unique within a task).
    pub name: String,
    /// Control-flow kind.
    pub branch_type: BranchType,
    /// Input stream names.
    pub inputs: Vec<String>,
    /// Output stream names.
    pub outputs: Vec<String>,
    /// Arms; `single` uses exactly one unconditioned arm.
    pub arms: Vec<BranchArm>,
}

/// A complete task configuration (one Fig. 9 file).
#[derive(Debug, Clone, PartialEq)]
pub struct TaskConfig {
    /// Task tag, e.g. `train`.
    pub tag: String,
    /// Input source kind.
    pub input_source: InputSource,
    /// Dataset path (view-root for this task).
    pub video_dataset_path: String,
    /// Temporal sampling policy.
    pub sampling: SamplingConfig,
    /// Augmentation dataflow stages.
    pub augmentation: Vec<Branch>,
}

impl TaskConfig {
    /// Validates the whole config, including the branch graph.
    ///
    /// Graph rules: stream names connect stages; the reserved name `frame`
    /// is the decoded-frame source. Every stage input must be `frame` or a
    /// previously produced output; outputs must be unique; every declared
    /// output except the final one(s) should be consumed; random arm
    /// probabilities must sum to 1; conditional arms must end with a
    /// catch-all (`else`) arm.
    pub fn validate(&self) -> Result<()> {
        if self.tag.is_empty() {
            return Err(ConfigError::InvalidField {
                field: "tag".into(),
                what: "empty".into(),
            });
        }
        if self.video_dataset_path.is_empty() {
            return Err(ConfigError::MissingField {
                field: "video_dataset_path".into(),
            });
        }
        self.sampling.validate()?;
        let mut produced: Vec<&str> = vec!["frame"];
        let mut names: Vec<&str> = Vec::new();
        for b in &self.augmentation {
            if names.contains(&b.name.as_str()) {
                return Err(ConfigError::InvalidGraph {
                    what: format!("duplicate branch name `{}`", b.name),
                });
            }
            names.push(&b.name);
            if b.inputs.is_empty() {
                return Err(ConfigError::InvalidGraph {
                    what: format!("branch `{}` has no inputs", b.name),
                });
            }
            if b.outputs.is_empty() {
                return Err(ConfigError::InvalidGraph {
                    what: format!("branch `{}` has no outputs", b.name),
                });
            }
            for i in &b.inputs {
                if !produced.contains(&i.as_str()) {
                    return Err(ConfigError::InvalidGraph {
                        what: format!("branch `{}` consumes undefined stream `{i}`", b.name),
                    });
                }
            }
            for o in &b.outputs {
                if produced.contains(&o.as_str()) {
                    return Err(ConfigError::InvalidGraph {
                        what: format!("stream `{o}` produced twice"),
                    });
                }
            }
            // Per-type arity rules.
            match b.branch_type {
                BranchType::Single => {
                    if b.arms.len() != 1 || b.inputs.len() != 1 || b.outputs.len() != 1 {
                        return Err(ConfigError::InvalidGraph {
                            what: format!("single branch `{}` must be 1-in/1-out/1-arm", b.name),
                        });
                    }
                }
                BranchType::Conditional => {
                    if b.arms.is_empty() || b.inputs.len() != 1 || b.outputs.len() != 1 {
                        return Err(ConfigError::InvalidGraph {
                            what: format!("conditional branch `{}` must be 1-in/1-out", b.name),
                        });
                    }
                    let n = b.arms.len();
                    for (i, arm) in b.arms.iter().enumerate() {
                        match arm.condition {
                            None => {
                                return Err(ConfigError::InvalidGraph {
                                    what: format!(
                                        "conditional branch `{}` arm {i} lacks a condition",
                                        b.name
                                    ),
                                })
                            }
                            Some(Condition::Else) if i != n - 1 => {
                                return Err(ConfigError::InvalidGraph {
                                    what: format!(
                                        "`else` must be the last arm of branch `{}`",
                                        b.name
                                    ),
                                })
                            }
                            _ => {}
                        }
                    }
                    if b.arms.last().map(|a| a.condition) != Some(Some(Condition::Else)) {
                        return Err(ConfigError::InvalidGraph {
                            what: format!("conditional branch `{}` must end with `else`", b.name),
                        });
                    }
                }
                BranchType::Random => {
                    if b.arms.len() < 2 || b.inputs.len() != 1 || b.outputs.len() != 1 {
                        return Err(ConfigError::InvalidGraph {
                            what: format!("random branch `{}` needs >= 2 arms, 1-in/1-out", b.name),
                        });
                    }
                    let mut sum = 0.0;
                    for (i, arm) in b.arms.iter().enumerate() {
                        let p = arm.prob.ok_or_else(|| ConfigError::InvalidGraph {
                            what: format!("random branch `{}` arm {i} lacks prob", b.name),
                        })?;
                        if !(0.0..=1.0).contains(&p) {
                            return Err(ConfigError::InvalidGraph {
                                what: format!(
                                    "random branch `{}` arm {i} prob out of range",
                                    b.name
                                ),
                            });
                        }
                        sum += p;
                    }
                    if (sum - 1.0).abs() > 1e-6 {
                        return Err(ConfigError::InvalidGraph {
                            what: format!("random branch `{}` probs sum to {sum}, not 1", b.name),
                        });
                    }
                }
                BranchType::Multi => {
                    if b.inputs.len() != 1 || b.outputs.len() < 2 || b.arms.len() != b.outputs.len()
                    {
                        return Err(ConfigError::InvalidGraph {
                            what: format!(
                                "multi branch `{}` needs 1 input and one arm per output",
                                b.name
                            ),
                        });
                    }
                }
                BranchType::Merge => {
                    if b.inputs.len() < 2 || b.outputs.len() != 1 || b.arms.len() != 1 {
                        return Err(ConfigError::InvalidGraph {
                            what: format!(
                                "merge branch `{}` needs >= 2 inputs, 1 output, 1 arm",
                                b.name
                            ),
                        });
                    }
                }
            }
            for arm in &b.arms {
                for op in &arm.ops {
                    op.validate()?;
                }
            }
            for o in &b.outputs {
                produced.push(o);
            }
        }
        Ok(())
    }

    /// Names of streams that are produced but never consumed — the task's
    /// final outputs feeding batch construction.
    #[must_use]
    pub fn terminal_streams(&self) -> Vec<String> {
        let mut produced: Vec<String> = Vec::new();
        let mut consumed: Vec<&String> = Vec::new();
        for b in &self.augmentation {
            consumed.extend(b.inputs.iter());
            produced.extend(b.outputs.iter().cloned());
        }
        if produced.is_empty() {
            return vec!["frame".to_string()];
        }
        produced.retain(|p| !consumed.contains(&p));
        produced
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn base_config(aug: Vec<Branch>) -> TaskConfig {
        TaskConfig {
            tag: "train".into(),
            input_source: InputSource::File,
            video_dataset_path: "/data".into(),
            sampling: SamplingConfig::default(),
            augmentation: aug,
        }
    }

    #[test]
    fn valid_linear_pipeline() {
        let cfg = base_config(vec![
            single(
                "r",
                "frame",
                "a0",
                vec![AugOp::Resize {
                    w: 64,
                    h: 64,
                    interpolation: "bilinear".into(),
                }],
            ),
            single("c", "a0", "a1", vec![AugOp::RandomCrop { w: 32, h: 32 }]),
        ]);
        cfg.validate().unwrap();
        assert_eq!(cfg.terminal_streams(), vec!["a1".to_string()]);
    }

    #[test]
    fn undefined_input_stream_rejected() {
        let cfg = base_config(vec![single("c", "nope", "a0", vec![])]);
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::InvalidGraph { .. })
        ));
    }

    #[test]
    fn duplicate_output_rejected() {
        let cfg = base_config(vec![
            single("a", "frame", "x", vec![]),
            single("b", "frame", "x", vec![]),
        ]);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn duplicate_branch_name_rejected() {
        let cfg = base_config(vec![
            single("a", "frame", "x", vec![]),
            single("a", "x", "y", vec![]),
        ]);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn random_probs_must_sum_to_one() {
        let mk = |p1: f64, p2: f64| {
            base_config(vec![Branch {
                name: "r".into(),
                branch_type: BranchType::Random,
                inputs: vec!["frame".into()],
                outputs: vec!["a".into()],
                arms: vec![
                    BranchArm {
                        condition: None,
                        prob: Some(p1),
                        ops: vec![],
                    },
                    BranchArm {
                        condition: None,
                        prob: Some(p2),
                        ops: vec![],
                    },
                ],
            }])
        };
        assert!(mk(0.5, 0.5).validate().is_ok());
        assert!(mk(0.6, 0.6).validate().is_err());
    }

    #[test]
    fn conditional_needs_trailing_else() {
        let mk = |conds: Vec<Condition>| {
            base_config(vec![Branch {
                name: "c".into(),
                branch_type: BranchType::Conditional,
                inputs: vec!["frame".into()],
                outputs: vec!["a".into()],
                arms: conds
                    .into_iter()
                    .map(|c| BranchArm {
                        condition: Some(c),
                        prob: None,
                        ops: vec![],
                    })
                    .collect(),
            }])
        };
        let gt = Condition::parse("iteration > 10").unwrap();
        assert!(mk(vec![gt, Condition::Else]).validate().is_ok());
        assert!(mk(vec![gt]).validate().is_err());
        assert!(mk(vec![Condition::Else, gt]).validate().is_err());
    }

    #[test]
    fn merge_arity_enforced() {
        let cfg = base_config(vec![
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
                inputs: vec!["x".into(), "y".into()],
                outputs: vec!["z".into()],
                arms: vec![BranchArm {
                    condition: None,
                    prob: None,
                    ops: vec![],
                }],
            },
        ]);
        cfg.validate().unwrap();
        assert_eq!(cfg.terminal_streams(), vec!["z".to_string()]);
    }

    #[test]
    fn op_validation() {
        assert!(AugOp::Resize {
            w: 0,
            h: 4,
            interpolation: "bilinear".into()
        }
        .validate()
        .is_err());
        assert!(AugOp::Resize {
            w: 4,
            h: 4,
            interpolation: "cubic".into()
        }
        .validate()
        .is_err());
        assert!(AugOp::Flip { prob: 1.5 }.validate().is_err());
        assert!(AugOp::Rotate { angles: vec![45] }.validate().is_err());
        assert!(AugOp::Rotate { angles: vec![] }.validate().is_err());
        assert!(AugOp::Normalize {
            mean: vec![0.5],
            std: vec![0.0]
        }
        .validate()
        .is_err());
        assert!(AugOp::Normalize {
            mean: vec![0.5],
            std: vec![0.5, 0.5]
        }
        .validate()
        .is_err());
        assert!(AugOp::ColorJitter {
            brightness: 2.0,
            contrast: 0.1,
            saturation: 0.1
        }
        .validate()
        .is_err());
        assert!(AugOp::Invert.validate().is_ok());
    }

    #[test]
    fn sampling_validation_and_span() {
        let mut s = SamplingConfig::default();
        s.validate().unwrap();
        assert_eq!(s.clip_span(), 29);
        s.frame_stride = 0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn empty_augmentation_terminal_is_frame() {
        let cfg = base_config(vec![]);
        cfg.validate().unwrap();
        assert_eq!(cfg.terminal_streams(), vec!["frame".to_string()]);
    }

    #[test]
    fn stochastic_classification() {
        assert!(AugOp::RandomCrop { w: 4, h: 4 }.is_stochastic());
        assert!(AugOp::Flip { prob: 0.5 }.is_stochastic());
        assert!(!AugOp::Resize {
            w: 4,
            h: 4,
            interpolation: "nearest".into()
        }
        .is_stochastic());
        assert!(!AugOp::Invert.is_stochastic());
        assert!(!AugOp::CenterCrop { w: 4, h: 4 }.is_stochastic());
    }
}
