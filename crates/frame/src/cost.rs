//! The operation cost model.
//!
//! Every preprocessing edge in SAND's concrete object dependency graph
//! carries a weight describing how expensive it is to recompute the child
//! object from its parent. The pruning pass (Algorithm 1 in the paper)
//! ranks subtrees by these weights, so the model must be *consistent*
//! (monotone in pixels touched) rather than perfectly accurate.
//!
//! Costs are expressed in abstract *cost units*; one unit corresponds to a
//! fixed amount of per-byte work. The constants below were calibrated once
//! against wall-clock measurements of the real implementations in this
//! workspace; `sandbench`'s `frame.aug_us_per_op` layer probe times the
//! same ops today.

/// Cost of recomputing an object, in abstract units plus output bytes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OpCost {
    /// Estimated compute cost, in abstract cost units.
    pub compute_units: f64,
    /// Size of the produced object in bytes.
    pub output_bytes: u64,
}

impl OpCost {
    /// Creates a cost record.
    #[must_use]
    pub const fn new(compute_units: f64, output_bytes: u64) -> Self {
        OpCost {
            compute_units,
            output_bytes,
        }
    }

    /// Sums two costs (sequential composition of two ops).
    #[must_use]
    pub fn combine(self, other: OpCost) -> OpCost {
        OpCost {
            compute_units: self.compute_units + other.compute_units,
            output_bytes: other.output_bytes,
        }
    }
}

/// Per-pixel cost multipliers for each operator family.
///
/// Relative magnitudes matter more than absolutes: decode is by far the
/// heaviest (inter-frame prediction + entropy decode), bilinear resampling
/// is heavier than cropping (which is a row-wise copy), and color ops sit
/// in between.
pub mod units {
    /// Decoding one pixel of a P-frame (prediction + residual + entropy).
    pub const DECODE_P: f64 = 6.0;
    /// Decoding one pixel of an I-frame (no prediction).
    pub const DECODE_I: f64 = 4.0;
    /// Bilinear resize, per output pixel.
    pub const RESIZE_BILINEAR: f64 = 2.0;
    /// Nearest-neighbour resize, per output pixel.
    pub const RESIZE_NEAREST: f64 = 0.6;
    /// Crop, per output pixel (memcpy-bound).
    pub const CROP: f64 = 0.25;
    /// Horizontal/vertical flip, per pixel.
    pub const FLIP: f64 = 0.4;
    /// Color jitter, per pixel (three fused multiplies).
    pub const COLOR_JITTER: f64 = 1.2;
    /// Right-angle rotation, per pixel.
    pub const ROTATE: f64 = 0.5;
    /// Pixel inversion, per pixel.
    pub const INVERT: f64 = 0.2;
    /// Box blur, per pixel per tap (multiplied by kernel taps).
    pub const BLUR: f64 = 0.3;
    /// Normalization to f32, per pixel-channel.
    pub const NORMALIZE: f64 = 0.8;
    /// Lossless compression, per input byte.
    pub const COMPRESS: f64 = 0.9;
    /// Lossless decompression, per output byte.
    pub const DECOMPRESS: f64 = 0.5;
}

/// Cost of an op that touches `pixels` pixels of `channels` channels with a
/// per-pixel multiplier `unit`, producing `output_bytes`.
#[must_use]
pub fn per_pixel_cost(pixels: u64, channels: u64, unit: f64, output_bytes: u64) -> OpCost {
    OpCost {
        compute_units: pixels as f64 * channels as f64 * unit,
        output_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combine_sums_compute_and_keeps_last_size() {
        let a = OpCost::new(10.0, 100);
        let b = OpCost::new(5.0, 40);
        let c = a.combine(b);
        assert!((c.compute_units - 15.0).abs() < 1e-12);
        assert_eq!(c.output_bytes, 40);
    }

    #[test]
    fn per_pixel_scales_linearly() {
        let small = per_pixel_cost(100, 3, units::RESIZE_BILINEAR, 300);
        let big = per_pixel_cost(200, 3, units::RESIZE_BILINEAR, 600);
        assert!((big.compute_units - 2.0 * small.compute_units).abs() < 1e-9);
    }

    #[test]
    fn decode_dominates_augmentation() {
        // The pruning heuristics rely on decode being the most expensive
        // per-pixel operation in the pipeline.
        for aug in [
            units::RESIZE_BILINEAR,
            units::RESIZE_NEAREST,
            units::CROP,
            units::FLIP,
            units::COLOR_JITTER,
            units::ROTATE,
            units::INVERT,
            units::NORMALIZE,
        ] {
            assert!(units::DECODE_I > aug);
            assert!(units::DECODE_P > aug);
        }
    }
}
