//! Resize operators (bilinear and nearest-neighbour).

use crate::cost::{per_pixel_cost, units, OpCost};
use crate::frame::{Frame, PixelFormat};
use crate::ops::FrameOp;
use crate::{FrameError, Result};

/// Interpolation mode for [`Resize`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Interpolation {
    /// Bilinear filtering (four-tap weighted average).
    Bilinear,
    /// Nearest-neighbour sampling.
    Nearest,
}

impl Interpolation {
    /// Canonical string form used in op parameters and configs.
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            Interpolation::Bilinear => "bilinear",
            Interpolation::Nearest => "nearest",
        }
    }

    /// Parses the canonical string form.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "bilinear" => Some(Interpolation::Bilinear),
            "nearest" => Some(Interpolation::Nearest),
            _ => None,
        }
    }
}

/// Resizes a frame to fixed output dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resize {
    out_w: usize,
    out_h: usize,
    interp: Interpolation,
}

impl Resize {
    /// Creates a resize to `out_w x out_h`.
    pub fn new(out_w: usize, out_h: usize, interp: Interpolation) -> Result<Self> {
        if out_w == 0 || out_h == 0 {
            return Err(FrameError::InvalidDimension {
                what: "resize target must be nonzero",
            });
        }
        Ok(Resize {
            out_w,
            out_h,
            interp,
        })
    }

    /// Target width.
    #[must_use]
    pub const fn out_width(&self) -> usize {
        self.out_w
    }

    /// Target height.
    #[must_use]
    pub const fn out_height(&self) -> usize {
        self.out_h
    }
}

impl FrameOp for Resize {
    fn apply(&self, input: &Frame) -> Result<Frame> {
        let (iw, ih, c) = (input.width(), input.height(), input.channels());
        let (ow, oh) = (self.out_w, self.out_h);
        let src = input.as_bytes();
        let mut dst = vec![0u8; ow * oh * c];
        // Scale factors map output pixel centers back into source space.
        let sx = iw as f64 / ow as f64;
        let sy = ih as f64 / oh as f64;
        match self.interp {
            Interpolation::Nearest => {
                for oy in 0..oh {
                    let iy = (((oy as f64 + 0.5) * sy) as usize).min(ih - 1);
                    for ox in 0..ow {
                        let ix = (((ox as f64 + 0.5) * sx) as usize).min(iw - 1);
                        let s = (iy * iw + ix) * c;
                        let d = (oy * ow + ox) * c;
                        dst[d..d + c].copy_from_slice(&src[s..s + c]);
                    }
                }
            }
            Interpolation::Bilinear => match input.format() {
                PixelFormat::Gray8 => bilinear::<1>(input, (sx, sy), ow, &mut dst),
                PixelFormat::Rgb8 => bilinear::<3>(input, (sx, sy), ow, &mut dst),
            },
        }
        let mut out = Frame::from_vec(ow, oh, input.format(), dst)?;
        out.meta = input.meta;
        out.meta.aug_depth += 1;
        Ok(out)
    }

    fn cost(&self, _width: usize, _height: usize, channels: usize) -> OpCost {
        let pixels = (self.out_w * self.out_h) as u64;
        let unit = match self.interp {
            Interpolation::Bilinear => units::RESIZE_BILINEAR,
            Interpolation::Nearest => units::RESIZE_NEAREST,
        };
        per_pixel_cost(pixels, channels as u64, unit, pixels * channels as u64)
    }

    fn name(&self) -> &'static str {
        "resize"
    }

    fn params(&self) -> String {
        format!("{}x{}:{}", self.out_w, self.out_h, self.interp.as_str())
    }
}

/// One output column's bilinear tap: byte offsets of its left and right
/// source pixels within a row, and their weights `1 - wx` and `wx`.
#[derive(Clone, Copy)]
struct Tap {
    x0: usize,
    x1: usize,
    w0: f64,
    wx: f64,
}

/// Bilinear resize of `input` into `dst` (`ow` pixels of `C` channels per
/// row), row by row: a horizontal pass lerps source rows `y0` and `y1`
/// through the column taps into `top` and `bot`, and a vertical pass
/// combines them into the output row. Every `f64` expression is the
/// per-pixel kernel's, in its order, so the bytes are the same.
fn bilinear<const C: usize>(input: &Frame, (sx, sy): (f64, f64), ow: usize, dst: &mut [u8]) {
    let (iw, ih) = (input.width(), input.height());
    let taps: Vec<Tap> = (0..ow)
        .map(|ox| {
            let fx = ((ox as f64 + 0.5) * sx - 0.5).max(0.0);
            let x0 = (fx as usize).min(iw - 1);
            let x1 = (x0 + 1).min(iw - 1);
            let wx = fx - x0 as f64;
            Tap {
                x0: x0 * C,
                x1: x1 * C,
                w0: 1.0 - wx,
                wx,
            }
        })
        .collect();
    let row = |y: usize| &input.as_bytes()[y * iw * C..(y + 1) * iw * C];
    let mut top = vec![0.0; ow * C];
    let mut bot = vec![0.0; ow * C];
    for (oy, out) in dst.chunks_exact_mut(ow * C).enumerate() {
        let fy = ((oy as f64 + 0.5) * sy - 0.5).max(0.0);
        let y0 = (fy as usize).min(ih - 1);
        let y1 = (y0 + 1).min(ih - 1);
        let wy = fy - y0 as f64;
        lerp_row::<C>(row(y0), &taps, &mut top);
        lerp_row::<C>(row(y1), &taps, &mut bot);
        let w0 = 1.0 - wy;
        for ((o, &t), &b) in out.iter_mut().zip(&top).zip(&bot) {
            *o = round_u8(t * w0 + b * wy);
        }
    }
}

/// `f64::from(b)` for every byte `b`: one load, where the conversion is
/// the horizontal pass's most expensive instruction.
static AS_F64: [f64; 256] = {
    let mut t = [0.0; 256];
    let mut i = 0;
    while i < 256 {
        t[i] = i as f64;
        i += 1;
    }
    t
};

/// The horizontal pass: `out[x·C + ch]` is the lerp of `src`'s two tapped
/// pixels for output column `x`, channel `ch`.
fn lerp_row<const C: usize>(src: &[u8], taps: &[Tap], out: &mut [f64]) {
    for (t, o) in taps.iter().zip(out.chunks_exact_mut(C)) {
        let (a, b) = (&src[t.x0..t.x0 + C], &src[t.x1..t.x1 + C]);
        for ch in 0..C {
            o[ch] = AS_F64[usize::from(a[ch])] * t.w0 + AS_F64[usize::from(b[ch])] * t.wx;
        }
    }
}

/// Rounds half away from zero and saturates at 255, as libm's `round`
/// and a clamp would, for every `v >= 0`: truncation is the floor there,
/// and the fraction it leaves is exact.
#[inline]
fn round_u8(v: f64) -> u8 {
    let i = v as u32;
    (i + u32::from(v - f64::from(i) >= 0.5)).min(255) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The per-pixel bilinear body [`bilinear`] replaced, kept as its
    /// oracle.
    fn reference_bilinear(input: &Frame, ow: usize, oh: usize) -> Vec<u8> {
        let (iw, ih, c) = (input.width(), input.height(), input.channels());
        let src = input.as_bytes();
        let mut dst = vec![0u8; ow * oh * c];
        let sx = iw as f64 / ow as f64;
        let sy = ih as f64 / oh as f64;
        for oy in 0..oh {
            let fy = ((oy as f64 + 0.5) * sy - 0.5).max(0.0);
            let y0 = (fy as usize).min(ih - 1);
            let y1 = (y0 + 1).min(ih - 1);
            let wy = fy - y0 as f64;
            for ox in 0..ow {
                let fx = ((ox as f64 + 0.5) * sx - 0.5).max(0.0);
                let x0 = (fx as usize).min(iw - 1);
                let x1 = (x0 + 1).min(iw - 1);
                let wx = fx - x0 as f64;
                let d = (oy * ow + ox) * c;
                for ch in 0..c {
                    let p00 = f64::from(src[(y0 * iw + x0) * c + ch]);
                    let p01 = f64::from(src[(y0 * iw + x1) * c + ch]);
                    let p10 = f64::from(src[(y1 * iw + x0) * c + ch]);
                    let p11 = f64::from(src[(y1 * iw + x1) * c + ch]);
                    let top = p00 * (1.0 - wx) + p01 * wx;
                    let bot = p10 * (1.0 - wx) + p11 * wx;
                    let v = top * (1.0 - wy) + bot * wy;
                    dst[d + ch] = v.round().clamp(0.0, 255.0) as u8;
                }
            }
        }
        dst
    }

    /// `(iw, ih, ow, oh)` for one of the shape classes the kernel must
    /// agree on: arbitrary, 1 px at either end, identity, upscale, exact
    /// halves (every weight `.5`), odd integer ratios, and fig13's sizes.
    fn shape(class: u8, rng: &mut StdRng) -> (usize, usize, usize, usize) {
        let mut n = |lo: usize, hi: usize| rng.gen_range(lo..=hi);
        match class {
            0 => (n(1, 140), n(1, 140), n(1, 140), n(1, 140)),
            1 => (1, 1, n(1, 140), n(1, 140)),
            2 => (n(1, 140), n(1, 140), 1, 1),
            3 => {
                let (w, h) = (n(1, 140), n(1, 140));
                (w, h, w, h)
            }
            4 => {
                let (w, h) = (n(1, 70), n(1, 70));
                (w, h, n(w, 140), n(h, 140))
            }
            5 => {
                let (w, h) = (n(1, 70), n(1, 70));
                (2 * w, 2 * h, w, h)
            }
            6 => {
                let (w, h, k) = (n(1, 40), n(1, 40), n(3, 5));
                if n(0, 1) == 0 {
                    (k * w, k * h, w, h)
                } else {
                    (w, h, k * w, k * h)
                }
            }
            _ => {
                let s = [128, 96][n(0, 1)];
                (s, s, 48, 48)
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The row-pass kernel writes the per-pixel kernel's bytes, on
        /// random, saturated (0/255), flat-255 and mid-grey frames; and its
        /// rounding is `round().clamp()` for every `v >= 0`, including the
        /// exact halves and values past 255 the kernel itself never makes.
        #[test]
        fn bilinear_matches_reference(seed in any::<u64>(), class in 0u8..8, rgb in any::<bool>(), fill in 0u8..4, halves in 0u32..1024) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (iw, ih, ow, oh) = shape(class, &mut rng);
            let format = if rgb { PixelFormat::Rgb8 } else { PixelFormat::Gray8 };
            let data: Vec<u8> = (0..iw * ih * format.channels())
                .map(|_| match fill {
                    0 => rng.gen(),
                    1 => [0, 255][rng.gen_range(0..2usize)],
                    2 => 255,
                    _ => 128,
                })
                .collect();
            let f = Frame::from_vec(iw, ih, format, data).unwrap();
            let out = Resize::new(ow, oh, Interpolation::Bilinear).unwrap().apply(&f).unwrap();
            let want = reference_bilinear(&f, ow, oh);
            prop_assert_eq!(out.as_bytes(), want.as_slice(), "{}x{} -> {}x{} {:?}", iw, ih, ow, oh, format);
            for v in [f64::from(halves) / 2.0, rng.gen_range(0.0..300.0)] {
                prop_assert_eq!(round_u8(v), v.round().clamp(0.0, 255.0) as u8, "v = {}", v);
            }
        }
    }

    fn gradient(w: usize, h: usize) -> Frame {
        let mut f = Frame::zeroed(w, h, PixelFormat::Gray8).unwrap();
        for y in 0..h {
            for x in 0..w {
                f.set_pixel(x, y, &[((x * 255) / (w - 1).max(1)) as u8])
                    .unwrap();
            }
        }
        f
    }

    #[test]
    fn nearest_identity_when_same_size() {
        let f = gradient(8, 8);
        let out = Resize::new(8, 8, Interpolation::Nearest)
            .unwrap()
            .apply(&f)
            .unwrap();
        assert_eq!(out.as_bytes(), f.as_bytes());
    }

    #[test]
    fn bilinear_identity_when_same_size() {
        let f = gradient(8, 8);
        let out = Resize::new(8, 8, Interpolation::Bilinear)
            .unwrap()
            .apply(&f)
            .unwrap();
        assert_eq!(out.as_bytes(), f.as_bytes());
    }

    #[test]
    fn downscale_dimensions() {
        let f = gradient(16, 12);
        let out = Resize::new(8, 6, Interpolation::Bilinear)
            .unwrap()
            .apply(&f)
            .unwrap();
        assert_eq!((out.width(), out.height()), (8, 6));
    }

    #[test]
    fn upscale_preserves_flat_regions() {
        let mut f = Frame::zeroed(4, 4, PixelFormat::Rgb8).unwrap();
        for y in 0..4 {
            for x in 0..4 {
                f.set_pixel(x, y, &[100, 150, 200]).unwrap();
            }
        }
        let out = Resize::new(9, 9, Interpolation::Bilinear)
            .unwrap()
            .apply(&f)
            .unwrap();
        for y in 0..9 {
            for x in 0..9 {
                assert_eq!(out.pixel(x, y).unwrap(), &[100, 150, 200]);
            }
        }
    }

    #[test]
    fn bilinear_monotone_on_gradient() {
        let f = gradient(32, 4);
        let out = Resize::new(8, 4, Interpolation::Bilinear)
            .unwrap()
            .apply(&f)
            .unwrap();
        let row: Vec<u8> = (0..8).map(|x| out.pixel(x, 0).unwrap()[0]).collect();
        for w in row.windows(2) {
            assert!(w[1] >= w[0], "gradient must remain monotone: {row:?}");
        }
    }

    #[test]
    fn zero_target_rejected() {
        assert!(Resize::new(0, 4, Interpolation::Nearest).is_err());
    }

    #[test]
    fn cost_depends_on_output_size_and_mode() {
        let small = Resize::new(4, 4, Interpolation::Bilinear)
            .unwrap()
            .cost(100, 100, 3);
        let big = Resize::new(8, 8, Interpolation::Bilinear)
            .unwrap()
            .cost(100, 100, 3);
        assert!(big.compute_units > small.compute_units);
        let near = Resize::new(8, 8, Interpolation::Nearest)
            .unwrap()
            .cost(100, 100, 3);
        assert!(near.compute_units < big.compute_units);
    }

    #[test]
    fn interpolation_parse_roundtrip() {
        for i in [Interpolation::Bilinear, Interpolation::Nearest] {
            assert_eq!(Interpolation::parse(i.as_str()), Some(i));
        }
        assert_eq!(Interpolation::parse("cubic"), None);
    }
}
