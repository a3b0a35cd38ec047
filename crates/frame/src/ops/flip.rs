//! Flip operator.

use crate::cost::{per_pixel_cost, units, OpCost};
use crate::frame::{Frame, PixelFormat};
use crate::ops::FrameOp;
use crate::Result;

/// Axis along which [`Flip`] mirrors the frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlipAxis {
    /// Mirror left-right.
    Horizontal,
    /// Mirror top-bottom.
    Vertical,
}

impl FlipAxis {
    /// Canonical string form.
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            FlipAxis::Horizontal => "horizontal",
            FlipAxis::Vertical => "vertical",
        }
    }
}

/// Mirrors a frame along one axis.
///
/// Like all SAND ops the flip is deterministic: a "random flip with
/// probability p" in a config resolves, during planning, to either this op
/// or no op at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flip {
    axis: FlipAxis,
}

impl Flip {
    /// Creates a flip along `axis`.
    #[must_use]
    pub const fn new(axis: FlipAxis) -> Self {
        Flip { axis }
    }
}

impl FrameOp for Flip {
    fn apply(&self, input: &Frame) -> Result<Frame> {
        let (w, h) = (input.width(), input.height());
        let (src, stride) = (input.as_bytes(), input.stride());
        let mut dst = vec![0u8; src.len()];
        match self.axis {
            FlipAxis::Horizontal => match input.format() {
                PixelFormat::Gray8 => mirror_rows::<1>(src, stride, &mut dst),
                PixelFormat::Rgb8 => mirror_rows::<3>(src, stride, &mut dst),
            },
            FlipAxis::Vertical => {
                for y in 0..h {
                    let s = y * stride;
                    let d = (h - 1 - y) * stride;
                    dst[d..d + stride].copy_from_slice(&src[s..s + stride]);
                }
            }
        }
        let mut out = Frame::from_vec(w, h, input.format(), dst)?;
        out.meta = input.meta;
        out.meta.aug_depth += 1;
        Ok(out)
    }

    fn cost(&self, width: usize, height: usize, channels: usize) -> OpCost {
        let pixels = (width * height) as u64;
        per_pixel_cost(
            pixels,
            channels as u64,
            units::FLIP,
            pixels * channels as u64,
        )
    }

    fn name(&self) -> &'static str {
        "flip"
    }

    fn params(&self) -> String {
        self.axis.as_str().to_string()
    }
}

/// Writes each `stride`-byte row of `src` into `dst` with its `C`-byte
/// pixels in reverse order.
fn mirror_rows<const C: usize>(src: &[u8], stride: usize, dst: &mut [u8]) {
    for (s, d) in src.chunks_exact(stride).zip(dst.chunks_exact_mut(stride)) {
        for (sp, dp) in s.chunks_exact(C).rev().zip(d.chunks_exact_mut(C)) {
            dp.copy_from_slice(sp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn marked() -> Frame {
        let mut f = Frame::zeroed(3, 2, PixelFormat::Gray8).unwrap();
        f.set_pixel(0, 0, &[1]).unwrap();
        f.set_pixel(2, 1, &[9]).unwrap();
        f
    }

    #[test]
    fn horizontal_flip_moves_corners() {
        let out = Flip::new(FlipAxis::Horizontal).apply(&marked()).unwrap();
        assert_eq!(out.pixel(2, 0).unwrap()[0], 1);
        assert_eq!(out.pixel(0, 1).unwrap()[0], 9);
    }

    #[test]
    fn vertical_flip_moves_corners() {
        let out = Flip::new(FlipAxis::Vertical).apply(&marked()).unwrap();
        assert_eq!(out.pixel(0, 1).unwrap()[0], 1);
        assert_eq!(out.pixel(2, 0).unwrap()[0], 9);
    }

    #[test]
    fn double_flip_is_identity() {
        let f = marked();
        for axis in [FlipAxis::Horizontal, FlipAxis::Vertical] {
            let op = Flip::new(axis);
            let twice = op.apply(&op.apply(&f).unwrap()).unwrap();
            assert_eq!(twice.as_bytes(), f.as_bytes());
        }
    }

    #[test]
    fn rgb_channels_stay_interleaved() {
        let mut f = Frame::zeroed(2, 1, PixelFormat::Rgb8).unwrap();
        f.set_pixel(0, 0, &[10, 20, 30]).unwrap();
        let out = Flip::new(FlipAxis::Horizontal).apply(&f).unwrap();
        assert_eq!(out.pixel(1, 0).unwrap(), &[10, 20, 30]);
    }
}
