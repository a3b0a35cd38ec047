//! Resolution of configured augmentations into deterministic op chains.
//!
//! Every stochastic choice in a pipeline (crop position, flip coin, jitter
//! factors, random-branch arm) is resolved through [`coordinated_draw`]: a
//! pure hash of `(seed, video, epoch, sample, op_index, salt)` mapped into
//! `[0, 1)`. The task identity is deliberately *absent* from the key, so
//! two tasks whose pipelines agree up to an op consume identical draws and
//! produce identical objects — the paper's "coordinated randomization".
//! Because the draw is uniform regardless of who consumes it, each task's
//! marginal distribution is exactly what independent sampling would give.
//!
//! The non-coordinated baseline (used for the ablations in Figs. 16/19/20)
//! mixes the task id into the key, which destroys cross-task sharing while
//! keeping everything else identical.

use crate::{GraphError, Result};
use sand_config::condition::Condition;
use sand_config::types::{AugOp, Branch, BranchType};
use sand_frame::ops::{
    Blur, ColorJitter, Crop, Flip, FlipAxis, FrameOp, Interpolation, Invert, Resize, Rotate,
    Rotation,
};

/// SplitMix64 finalizer: a high-quality 64-bit mixing function.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A coordinated uniform draw in `[0, 1)`.
///
/// The same key always yields the same value; distinct keys are
/// independent for all practical purposes.
#[must_use]
pub fn coordinated_draw(
    seed: u64,
    video_id: u64,
    epoch: u64,
    sample: u64,
    op_index: u64,
    salt: u64,
) -> f64 {
    let mut h = seed;
    for part in [video_id, epoch, sample, op_index, salt] {
        h = splitmix64(h ^ part.wrapping_mul(0xd134_2543_de82_ef95));
    }
    // 53 mantissa bits -> uniform in [0, 1).
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A fully resolved, deterministic augmentation operation.
#[derive(Debug, Clone, PartialEq)]
pub enum ResolvedOp {
    /// Resize to fixed dimensions.
    Resize {
        /// Target width.
        w: usize,
        /// Target height.
        h: usize,
        /// Interpolation mode.
        interp: Interpolation,
    },
    /// Crop at a resolved position.
    Crop {
        /// Left edge.
        x: usize,
        /// Top edge.
        y: usize,
        /// Crop width.
        w: usize,
        /// Crop height.
        h: usize,
    },
    /// Horizontal flip (the coin already came up heads).
    Flip,
    /// Color jitter with resolved factors.
    ColorJitter {
        /// Brightness factor.
        b: f32,
        /// Contrast factor.
        c: f32,
        /// Saturation factor.
        s: f32,
    },
    /// Right-angle rotation.
    Rotate {
        /// Resolved rotation.
        rot: Rotation,
    },
    /// Pixel inversion.
    Invert,
    /// Box blur with a fixed radius.
    Blur {
        /// Kernel radius.
        radius: usize,
    },
    /// A user-registered custom op, executed out-of-band through the
    /// engine's augmentation service (dimension-preserving).
    Custom {
        /// Registered operation name.
        name: String,
    },
    /// Normalization marker (applied at tensor conversion, not per frame).
    Normalize {
        /// Per-channel means.
        mean: Vec<f32>,
        /// Per-channel standard deviations.
        std: Vec<f32>,
    },
}

impl ResolvedOp {
    /// Stable op name (matches `sand_frame::ops` names).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ResolvedOp::Resize { .. } => "resize",
            ResolvedOp::Crop { .. } => "crop",
            ResolvedOp::Flip => "flip",
            ResolvedOp::ColorJitter { .. } => "color_jitter",
            ResolvedOp::Rotate { .. } => "rotate",
            ResolvedOp::Invert => "invert",
            ResolvedOp::Blur { .. } => "blur",
            ResolvedOp::Custom { .. } => "custom",
            ResolvedOp::Normalize { .. } => "normalize",
        }
    }

    /// Canonical parameter string; `(name, params)` identifies the op for
    /// node merging, matching [`sand_frame::ops::AugStep`] semantics.
    #[must_use]
    pub fn params(&self) -> String {
        match self {
            ResolvedOp::Resize { w, h, interp } => format!("{w}x{h}:{}", interp.as_str()),
            ResolvedOp::Crop { x, y, w, h } => format!("{x},{y}+{w}x{h}"),
            ResolvedOp::Flip => "horizontal".to_string(),
            ResolvedOp::ColorJitter { b, c, s } => format!("b{b:.4},c{c:.4},s{s:.4}"),
            ResolvedOp::Rotate { rot } => rot.as_str().to_string(),
            ResolvedOp::Invert => String::new(),
            ResolvedOp::Blur { radius } => format!("r{radius}"),
            ResolvedOp::Custom { name } => name.clone(),
            ResolvedOp::Normalize { mean, std } => format!("m{mean:?}s{std:?}"),
        }
    }

    /// Output dimensions after applying this op to a `(w, h)` input.
    #[must_use]
    pub fn out_dims(&self, in_w: usize, in_h: usize) -> (usize, usize) {
        match self {
            ResolvedOp::Resize { w, h, .. } => (*w, *h),
            ResolvedOp::Crop { w, h, .. } => (*w, *h),
            ResolvedOp::Rotate { rot } => match rot {
                Rotation::Cw90 | Rotation::Cw270 => (in_h, in_w),
                Rotation::Cw180 => (in_w, in_h),
            },
            _ => (in_w, in_h),
        }
    }

    /// Whether this op is a per-frame pixel transform (vs. the terminal
    /// normalization, which happens at tensor assembly).
    #[must_use]
    pub fn is_pixel_op(&self) -> bool {
        !matches!(self, ResolvedOp::Normalize { .. })
    }

    /// Instantiates the corresponding executable frame op.
    ///
    /// Returns `None` for [`ResolvedOp::Normalize`], which is not a
    /// frame-to-frame transform.
    pub fn to_frame_op(&self) -> Result<Option<Box<dyn FrameOp>>> {
        let err = |what: String| GraphError::ResolveFailed { what };
        Ok(match self {
            ResolvedOp::Resize { w, h, interp } => Some(Box::new(
                Resize::new(*w, *h, *interp).map_err(|e| err(e.to_string()))?,
            )),
            ResolvedOp::Crop { x, y, w, h } => Some(Box::new(
                Crop::new(*x, *y, *w, *h).map_err(|e| err(e.to_string()))?,
            )),
            ResolvedOp::Flip => Some(Box::new(Flip::new(FlipAxis::Horizontal))),
            ResolvedOp::ColorJitter { b, c, s } => Some(Box::new(
                ColorJitter::new(*b, *c, *s).map_err(|e| err(e.to_string()))?,
            )),
            ResolvedOp::Rotate { rot } => Some(Box::new(Rotate::new(*rot))),
            ResolvedOp::Invert => Some(Box::new(Invert::new())),
            ResolvedOp::Blur { radius } => Some(Box::new(
                Blur::new(*radius).map_err(|e| err(e.to_string()))?,
            )),
            ResolvedOp::Custom { name } => {
                return Err(err(format!(
                    "custom op `{name}` requires the engine's augmentation service"
                )))
            }
            ResolvedOp::Normalize { .. } => None,
        })
    }

    /// Abstract compute cost of this op on a `(w, h, c)` input.
    #[must_use]
    pub fn cost_units(&self, in_w: usize, in_h: usize, channels: usize) -> f64 {
        use sand_frame::cost::units;
        let (ow, oh) = self.out_dims(in_w, in_h);
        let out_px = (ow * oh * channels) as f64;
        let in_px = (in_w * in_h * channels) as f64;
        match self {
            ResolvedOp::Resize {
                interp: Interpolation::Bilinear,
                ..
            } => out_px * units::RESIZE_BILINEAR,
            ResolvedOp::Resize {
                interp: Interpolation::Nearest,
                ..
            } => out_px * units::RESIZE_NEAREST,
            ResolvedOp::Crop { .. } => out_px * units::CROP,
            ResolvedOp::Flip => in_px * units::FLIP,
            ResolvedOp::ColorJitter { .. } => in_px * units::COLOR_JITTER,
            ResolvedOp::Rotate { .. } => in_px * units::ROTATE,
            ResolvedOp::Invert => in_px * units::INVERT,
            ResolvedOp::Blur { radius } => in_px * units::BLUR * (2 * radius + 1) as f64 * 2.0,
            // Conservative default: custom work is assumed jitter-grade.
            ResolvedOp::Custom { .. } => in_px * units::COLOR_JITTER,
            ResolvedOp::Normalize { .. } => in_px * units::NORMALIZE,
        }
    }
}

/// Identity of a draw consumer, fixing every key component except the op.
#[derive(Debug, Clone, Copy)]
pub struct DrawCtx {
    /// Global planning seed.
    pub seed: u64,
    /// Video the clip comes from.
    pub video_id: u64,
    /// Epoch index.
    pub epoch: u64,
    /// Sample index within the video (for `samples_per_video > 1`).
    pub sample: u64,
    /// Extra key component: 0 in coordinated mode, or a per-task nonce in
    /// independent mode (destroying cross-task draw sharing).
    pub task_nonce: u64,
}

impl DrawCtx {
    fn draw(&self, op_index: u64, salt: u64) -> f64 {
        coordinated_draw(
            self.seed ^ self.task_nonce,
            self.video_id,
            self.epoch,
            self.sample,
            op_index,
            salt,
        )
    }
}

/// Tracks dimensions while resolving a chain.
#[derive(Debug, Clone, Copy)]
struct Dims {
    w: usize,
    h: usize,
}

/// Resolves one configured op into zero or one deterministic ops.
fn resolve_op(
    op: &AugOp,
    dims: &mut Dims,
    ctx: &DrawCtx,
    op_index: u64,
) -> Result<Option<ResolvedOp>> {
    let bad = |what: String| GraphError::ResolveFailed { what };
    let resolved = match op {
        AugOp::Resize {
            w,
            h,
            interpolation,
        } => {
            let interp = Interpolation::parse(interpolation)
                .ok_or_else(|| bad(format!("unknown interpolation `{interpolation}`")))?;
            Some(ResolvedOp::Resize {
                w: *w,
                h: *h,
                interp,
            })
        }
        AugOp::RandomCrop { w, h } => {
            if *w > dims.w || *h > dims.h {
                return Err(bad(format!(
                    "random crop {w}x{h} exceeds source {}x{}",
                    dims.w, dims.h
                )));
            }
            // Shared-window coordination: the normalized anchor is one
            // coordinated draw; every task maps it into its own valid
            // range. Identical geometry => identical crop.
            let ux = ctx.draw(op_index, 1);
            let uy = ctx.draw(op_index, 2);
            let x = (ux * (dims.w - w + 1) as f64) as usize;
            let y = (uy * (dims.h - h + 1) as f64) as usize;
            Some(ResolvedOp::Crop { x, y, w: *w, h: *h })
        }
        AugOp::CenterCrop { w, h } => {
            if *w > dims.w || *h > dims.h {
                return Err(bad(format!(
                    "center crop {w}x{h} exceeds source {}x{}",
                    dims.w, dims.h
                )));
            }
            Some(ResolvedOp::Crop {
                x: (dims.w - w) / 2,
                y: (dims.h - h) / 2,
                w: *w,
                h: *h,
            })
        }
        AugOp::Flip { prob } => {
            let u = ctx.draw(op_index, 3);
            if u < *prob {
                Some(ResolvedOp::Flip)
            } else {
                None
            }
        }
        AugOp::ColorJitter {
            brightness,
            contrast,
            saturation,
        } => {
            let f = |dev: f64, salt: u64| -> f32 {
                if dev == 0.0 {
                    1.0
                } else {
                    (1.0 + (2.0 * ctx.draw(op_index, salt) - 1.0) * dev) as f32
                }
            };
            Some(ResolvedOp::ColorJitter {
                b: f(*brightness, 4),
                c: f(*contrast, 5),
                s: f(*saturation, 6),
            })
        }
        AugOp::Rotate { angles } => {
            let u = ctx.draw(op_index, 7);
            let idx = ((u * angles.len() as f64) as usize).min(angles.len() - 1);
            let rot = match angles[idx] {
                90 => Rotation::Cw90,
                180 => Rotation::Cw180,
                270 => Rotation::Cw270,
                a => return Err(bad(format!("unsupported angle {a}"))),
            };
            Some(ResolvedOp::Rotate { rot })
        }
        AugOp::Invert => Some(ResolvedOp::Invert),
        AugOp::Blur { radius } => Some(ResolvedOp::Blur { radius: *radius }),
        AugOp::Custom { name } => Some(ResolvedOp::Custom { name: name.clone() }),
        AugOp::Normalize { mean, std } => Some(ResolvedOp::Normalize {
            mean: mean.iter().map(|v| *v as f32).collect(),
            std: std.iter().map(|v| *v as f32).collect(),
        }),
    };
    if let Some(r) = &resolved {
        let (w, h) = r.out_dims(dims.w, dims.h);
        dims.w = w;
        dims.h = h;
    }
    Ok(resolved)
}

/// Resolves a task's full augmentation dataflow into chains of
/// deterministic ops, one chain per terminal stream.
///
/// `iteration` is the task-local iteration at which this sample will be
/// consumed (needed by conditional branches); `src_w`/`src_h` are the
/// decoded frame dimensions.
#[allow(clippy::too_many_arguments)]
pub fn resolve_chains(
    branches: &[Branch],
    terminal_streams: &[String],
    src_w: usize,
    src_h: usize,
    iteration: u64,
    epoch: u64,
    ctx: &DrawCtx,
) -> Result<Vec<Vec<ResolvedOp>>> {
    // Stream name -> (resolved chain so far, current dims).
    //
    // Draw indices are the *position in the stream's chain*, not a global
    // counter: two tasks whose chains agree up to an op consume the same
    // draw for it even when the surrounding branch structure differs,
    // which is what lets their augmented objects merge.
    let mut streams: Vec<(String, Vec<ResolvedOp>, Dims)> =
        vec![("frame".to_string(), Vec::new(), Dims { w: src_w, h: src_h })];
    for branch in branches {
        let find = |streams: &[(String, Vec<ResolvedOp>, Dims)], name: &str| {
            streams
                .iter()
                .find(|(n, _, _)| n == name)
                .map(|(_, chain, dims)| (chain.clone(), *dims))
                .ok_or_else(|| GraphError::ResolveFailed {
                    what: format!("stream `{name}` not yet produced"),
                })
        };
        match branch.branch_type {
            BranchType::Single => {
                let (mut chain, mut dims) = find(&streams, &branch.inputs[0])?;
                let mut pos = chain.len() as u64;
                for op in &branch.arms[0].ops {
                    pos += 1;
                    if let Some(r) = resolve_op(op, &mut dims, ctx, pos)? {
                        chain.push(r);
                    }
                }
                streams.push((branch.outputs[0].clone(), chain, dims));
            }
            BranchType::Conditional => {
                let (mut chain, mut dims) = find(&streams, &branch.inputs[0])?;
                let arm = branch
                    .arms
                    .iter()
                    .find(|a| {
                        a.condition
                            .unwrap_or(Condition::Else)
                            .eval(iteration, epoch)
                    })
                    .ok_or_else(|| GraphError::ResolveFailed {
                        what: format!("no arm of `{}` matched", branch.name),
                    })?;
                let mut pos = chain.len() as u64;
                for op in &arm.ops {
                    pos += 1;
                    if let Some(r) = resolve_op(op, &mut dims, ctx, pos)? {
                        chain.push(r);
                    }
                }
                streams.push((branch.outputs[0].clone(), chain, dims));
            }
            BranchType::Random => {
                let (mut chain, mut dims) = find(&streams, &branch.inputs[0])?;
                let u = ctx.draw(chain.len() as u64 + 1, 8);
                let mut acc = 0.0;
                let mut chosen = branch.arms.len() - 1;
                for (i, arm) in branch.arms.iter().enumerate() {
                    acc += arm.prob.unwrap_or(0.0);
                    if u < acc {
                        chosen = i;
                        break;
                    }
                }
                let mut pos = chain.len() as u64;
                for op in &branch.arms[chosen].ops {
                    pos += 1;
                    if let Some(r) = resolve_op(op, &mut dims, ctx, pos)? {
                        chain.push(r);
                    }
                }
                streams.push((branch.outputs[0].clone(), chain, dims));
            }
            BranchType::Multi => {
                let (chain, dims) = find(&streams, &branch.inputs[0])?;
                for (arm, out) in branch.arms.iter().zip(branch.outputs.iter()) {
                    let mut c = chain.clone();
                    let mut d = dims;
                    let mut pos = c.len() as u64;
                    for op in &arm.ops {
                        pos += 1;
                        if let Some(r) = resolve_op(op, &mut d, ctx, pos)? {
                            c.push(r);
                        }
                    }
                    streams.push((out.clone(), c, d));
                }
            }
            BranchType::Merge => {
                // Merge concatenates its input streams; for chain purposes
                // the merged output carries each input's chain as a
                // separate variant. We model the merged stream by keeping
                // the *first* input's chain as the representative and
                // emitting the others as additional terminal variants.
                let (chain, dims) = find(&streams, &branch.inputs[0])?;
                for extra in &branch.inputs[1..] {
                    let (c2, d2) = find(&streams, extra)?;
                    streams.push((format!("{}#merge", branch.outputs[0]), c2, d2));
                }
                streams.push((branch.outputs[0].clone(), chain, dims));
            }
        }
    }
    let mut out = Vec::new();
    for term in terminal_streams {
        let mut found = false;
        for (name, chain, _) in &streams {
            if name == term || name.strip_suffix("#merge") == Some(term.as_str()) {
                out.push(chain.clone());
                found = true;
            }
        }
        if !found {
            return Err(GraphError::ResolveFailed {
                what: format!("terminal stream `{term}` not produced"),
            });
        }
    }
    if out.is_empty() {
        // No augmentation at all: the identity chain.
        out.push(Vec::new());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sand_config::parse_task_config;

    fn ctx(task_nonce: u64) -> DrawCtx {
        DrawCtx {
            seed: 42,
            video_id: 7,
            epoch: 3,
            sample: 0,
            task_nonce,
        }
    }

    #[test]
    fn coordinated_draw_is_deterministic_and_uniform() {
        let a = coordinated_draw(1, 2, 3, 4, 5, 6);
        let b = coordinated_draw(1, 2, 3, 4, 5, 6);
        assert_eq!(a, b);
        assert!((0.0..1.0).contains(&a));
        // Rough uniformity: mean of many draws near 0.5.
        let n = 10_000;
        let mean: f64 = (0..n)
            .map(|i| coordinated_draw(9, i, 0, 0, 0, 0))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean={mean}");
    }

    #[test]
    fn draws_differ_across_keys() {
        let base = coordinated_draw(1, 2, 3, 4, 5, 6);
        assert_ne!(base, coordinated_draw(1, 2, 3, 4, 5, 7));
        assert_ne!(base, coordinated_draw(1, 2, 3, 4, 6, 6));
        assert_ne!(base, coordinated_draw(1, 2, 3, 5, 5, 6));
        assert_ne!(base, coordinated_draw(1, 2, 4, 4, 5, 6));
        assert_ne!(base, coordinated_draw(1, 3, 3, 4, 5, 6));
        assert_ne!(base, coordinated_draw(2, 2, 3, 4, 5, 6));
    }

    fn cfg(text: &str) -> sand_config::TaskConfig {
        parse_task_config(text).unwrap()
    }

    const PIPE: &str = r#"
dataset:
  tag: t
  input_source: file
  video_dataset_path: /d
  sampling:
    videos_per_batch: 2
    frames_per_video: 4
    frame_stride: 2
  augmentation:
    - name: r
      branch_type: single
      inputs: ["frame"]
      outputs: ["a0"]
      config:
        - resize:
            shape: [32, 32]
            interpolation: bilinear
    - name: c
      branch_type: single
      inputs: ["a0"]
      outputs: ["a1"]
      config:
        - random_crop:
            shape: [16, 16]
"#;

    #[test]
    fn identical_tasks_resolve_identically_when_coordinated() {
        let c = cfg(PIPE);
        let terms = c.terminal_streams();
        let a = resolve_chains(&c.augmentation, &terms, 64, 64, 5, 3, &ctx(0)).unwrap();
        let b = resolve_chains(&c.augmentation, &terms, 64, 64, 5, 3, &ctx(0)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn task_nonce_breaks_sharing() {
        let c = cfg(PIPE);
        let terms = c.terminal_streams();
        let a = resolve_chains(&c.augmentation, &terms, 64, 64, 5, 3, &ctx(0)).unwrap();
        let b = resolve_chains(&c.augmentation, &terms, 64, 64, 5, 3, &ctx(1)).unwrap();
        // The crop position should (with overwhelming probability) differ.
        assert_ne!(a, b);
    }

    #[test]
    fn crop_position_uniform_over_range() {
        let c = cfg(PIPE);
        let terms = c.terminal_streams();
        let mut xs = Vec::new();
        for epoch in 0..500 {
            let ctx = DrawCtx {
                seed: 1,
                video_id: 3,
                epoch,
                sample: 0,
                task_nonce: 0,
            };
            let chains = resolve_chains(&c.augmentation, &terms, 64, 64, 0, epoch, &ctx).unwrap();
            if let ResolvedOp::Crop { x, .. } = chains[0][1] {
                xs.push(x);
            } else {
                panic!("expected crop");
            }
        }
        // Range is 0..=16; expect wide coverage.
        let min = *xs.iter().min().unwrap();
        let max = *xs.iter().max().unwrap();
        assert!(min <= 1, "min={min}");
        assert!(max >= 15, "max={max}");
        let mean = xs.iter().sum::<usize>() as f64 / xs.len() as f64;
        assert!((mean - 8.0).abs() < 1.5, "mean={mean}");
    }

    #[test]
    fn conditional_branch_tracks_iteration() {
        let text = r#"
dataset:
  tag: t
  input_source: file
  video_dataset_path: /d
  sampling:
    videos_per_batch: 1
    frames_per_video: 1
    frame_stride: 1
  augmentation:
    - name: c
      branch_type: conditional
      inputs: ["frame"]
      outputs: ["a"]
      branches:
        - condition: "iteration > 100"
          config:
            - inv_sample: true
        - condition: "else"
          config: None
"#;
        let c = cfg(text);
        let terms = c.terminal_streams();
        let early = resolve_chains(&c.augmentation, &terms, 8, 8, 50, 0, &ctx(0)).unwrap();
        let late = resolve_chains(&c.augmentation, &terms, 8, 8, 150, 0, &ctx(0)).unwrap();
        assert!(early[0].is_empty());
        assert_eq!(late[0], vec![ResolvedOp::Invert]);
    }

    #[test]
    fn random_branch_frequency_matches_prob() {
        let text = r#"
dataset:
  tag: t
  input_source: file
  video_dataset_path: /d
  sampling:
    videos_per_batch: 1
    frames_per_video: 1
    frame_stride: 1
  augmentation:
    - name: r
      branch_type: random
      inputs: ["frame"]
      outputs: ["a"]
      branches:
        - prob: 0.25
          config:
            - inv_sample: true
        - prob: 0.75
          config: None
"#;
        let c = cfg(text);
        let terms = c.terminal_streams();
        let mut hits = 0;
        let n = 2000;
        for epoch in 0..n {
            let ctx = DrawCtx {
                seed: 5,
                video_id: 0,
                epoch,
                sample: 0,
                task_nonce: 0,
            };
            let chains = resolve_chains(&c.augmentation, &terms, 8, 8, 0, epoch, &ctx).unwrap();
            if chains[0] == vec![ResolvedOp::Invert] {
                hits += 1;
            }
        }
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.25).abs() < 0.04, "freq={freq}");
    }

    #[test]
    fn flip_probability_respected() {
        let text = r#"
dataset:
  tag: t
  input_source: file
  video_dataset_path: /d
  sampling:
    videos_per_batch: 1
    frames_per_video: 1
    frame_stride: 1
  augmentation:
    - name: f
      branch_type: single
      inputs: ["frame"]
      outputs: ["a"]
      config:
        - flip:
            flip_prob: 0.5
"#;
        let c = cfg(text);
        let terms = c.terminal_streams();
        let mut flips = 0;
        let n = 2000;
        for epoch in 0..n {
            let ctx = DrawCtx {
                seed: 5,
                video_id: 0,
                epoch,
                sample: 0,
                task_nonce: 0,
            };
            let chains = resolve_chains(&c.augmentation, &terms, 8, 8, 0, epoch, &ctx).unwrap();
            if chains[0] == vec![ResolvedOp::Flip] {
                flips += 1;
            }
        }
        let freq = flips as f64 / n as f64;
        assert!((freq - 0.5).abs() < 0.04, "freq={freq}");
    }

    #[test]
    fn oversized_crop_rejected() {
        let c = cfg(PIPE);
        let terms = c.terminal_streams();
        // Source smaller than the configured resize is fine (resize first),
        // but a source smaller than a *crop* without resize fails:
        let text = r#"
dataset:
  tag: t
  input_source: file
  video_dataset_path: /d
  sampling:
    videos_per_batch: 1
    frames_per_video: 1
    frame_stride: 1
  augmentation:
    - name: c
      branch_type: single
      inputs: ["frame"]
      outputs: ["a"]
      config:
        - random_crop:
            shape: [128, 128]
"#;
        let c2 = cfg(text);
        assert!(resolve_chains(
            &c2.augmentation,
            &c2.terminal_streams(),
            64,
            64,
            0,
            0,
            &ctx(0)
        )
        .is_err());
        // And the original pipeline succeeds.
        assert!(resolve_chains(&c.augmentation, &terms, 64, 64, 0, 0, &ctx(0)).is_ok());
    }

    #[test]
    fn multi_branch_yields_parallel_chains() {
        let text = r#"
dataset:
  tag: t
  input_source: file
  video_dataset_path: /d
  sampling:
    videos_per_batch: 1
    frames_per_video: 1
    frame_stride: 1
  augmentation:
    - name: split
      branch_type: multi
      inputs: ["frame"]
      outputs: ["x", "y"]
      branches:
        - config: None
        - config:
            - inv_sample: true
"#;
        let c = cfg(text);
        let chains =
            resolve_chains(&c.augmentation, &c.terminal_streams(), 8, 8, 0, 0, &ctx(0)).unwrap();
        assert_eq!(chains.len(), 2);
        assert!(chains[0].is_empty());
        assert_eq!(chains[1], vec![ResolvedOp::Invert]);
    }

    #[test]
    fn merge_branch_collects_variants() {
        let text = r#"
dataset:
  tag: t
  input_source: file
  video_dataset_path: /d
  sampling:
    videos_per_batch: 1
    frames_per_video: 1
    frame_stride: 1
  augmentation:
    - name: split
      branch_type: multi
      inputs: ["frame"]
      outputs: ["x", "y"]
      branches:
        - config: None
        - config:
            - inv_sample: true
    - name: join
      branch_type: merge
      inputs: ["x", "y"]
      outputs: ["z"]
      config: None
"#;
        let c = cfg(text);
        let chains =
            resolve_chains(&c.augmentation, &c.terminal_streams(), 8, 8, 0, 0, &ctx(0)).unwrap();
        // Terminal `z` expands to both merged variants.
        assert_eq!(chains.len(), 2);
    }

    #[test]
    fn resolved_op_dims_and_cost() {
        let r = ResolvedOp::Resize {
            w: 10,
            h: 20,
            interp: Interpolation::Bilinear,
        };
        assert_eq!(r.out_dims(64, 64), (10, 20));
        let rot = ResolvedOp::Rotate {
            rot: Rotation::Cw90,
        };
        assert_eq!(rot.out_dims(10, 20), (20, 10));
        assert!(r.cost_units(64, 64, 3) > 0.0);
        assert!(ResolvedOp::Normalize {
            mean: vec![0.0],
            std: vec![1.0]
        }
        .to_frame_op()
        .unwrap()
        .is_none());
        assert!(r.to_frame_op().unwrap().is_some());
    }
}
