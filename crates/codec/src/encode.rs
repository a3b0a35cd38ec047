//! The encoder: closed-loop GOP encoding with residual quantization.

use crate::container::{ContainerHeader, EncodedFrame, EncodedVideo, FrameKind};
use crate::{CodecError, Result};
use sand_frame::wire::rle_pack;
use sand_frame::Frame;

/// Encoder parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncoderConfig {
    /// Group-of-pictures size: one I-frame every `gop_size` frames.
    pub gop_size: usize,
    /// Uniform quantizer step (1 = lossless, larger = lossier/smaller).
    pub quantizer: u8,
    /// Frames per second in millihertz.
    pub fps_milli: u32,
    /// Number of B-frames between consecutive anchors (0 = IPPP streams).
    ///
    /// With `b_frames = 2` a GOP looks like `I B B P B B P ...` in
    /// display order: anchors every 3 frames, bidirectionally predicted
    /// frames in between. B-frames reference both surrounding anchors
    /// and are never referenced themselves.
    pub b_frames: usize,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        EncoderConfig {
            gop_size: 12,
            quantizer: 4,
            fps_milli: 30_000,
            b_frames: 0,
        }
    }
}

impl EncoderConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.gop_size == 0 {
            return Err(CodecError::InvalidConfig {
                what: "gop_size must be >= 1",
            });
        }
        if self.quantizer == 0 {
            return Err(CodecError::InvalidConfig {
                what: "quantizer must be >= 1",
            });
        }
        if self.b_frames + 1 >= self.gop_size && self.gop_size > 1 {
            return Err(CodecError::InvalidConfig {
                what: "b_frames must leave room for at least one P anchor per GOP",
            });
        }
        Ok(())
    }

    /// Anchor spacing in display order (`b_frames + 1`).
    #[must_use]
    pub const fn anchor_spacing(&self) -> usize {
        self.b_frames + 1
    }
}

/// A GOP-structured video encoder.
///
/// Encoding is *closed-loop*: residuals for P-frames are computed against
/// the frame the decoder will reconstruct (not the pristine source), so
/// quantization error never accumulates across a GOP — reconstruction error
/// stays bounded by `quantizer / 2` per pixel.
#[derive(Debug, Clone)]
pub struct Encoder {
    config: EncoderConfig,
}

/// Escape marker in the residual stream: the next two bytes carry a raw
/// little-endian `i16` step count for residuals too large for one byte.
pub(crate) const RESIDUAL_ESCAPE: u8 = 255;

/// Quantizes a signed residual into step counts with a dead zone.
///
/// Truncation toward zero (rather than round-to-nearest) leaves residuals
/// smaller than one step at zero. This avoids the classic limit-cycle
/// artifact where a static region's intra quantization error oscillates
/// forever between +1 and -1 steps, and it is what keeps P-frames of
/// static content all-zero (and therefore tiny after RLE). The price is a
/// per-pixel error bound of `q - 1` instead of `q / 2`.
fn residual_steps(residual: i16, q: i16) -> i16 {
    residual / q
}

/// Appends the escape-coded representation of `steps` to `stream`.
///
/// Common steps (|steps| <= 126) take one biased byte (2..=254); rare large
/// steps take the [`RESIDUAL_ESCAPE`] marker plus two raw bytes. Zero
/// residuals map to byte 128, so static regions RLE-compress tightly.
fn put_steps(stream: &mut Vec<u8>, steps: i16) {
    if (-126..=126).contains(&steps) {
        stream.push((steps + 128) as u8);
    } else {
        stream.push(RESIDUAL_ESCAPE);
        stream.extend_from_slice(&steps.to_le_bytes());
    }
}

/// Reads one escape-coded step count from `stream` at `pos` (the
/// per-step reader; the decoder walks run-length blocks instead).
#[cfg(test)]
pub(crate) fn get_steps(stream: &[u8], pos: &mut usize) -> Option<i16> {
    let b = *stream.get(*pos)?;
    *pos += 1;
    if b == RESIDUAL_ESCAPE {
        let lo = *stream.get(*pos)?;
        let hi = *stream.get(*pos + 1)?;
        *pos += 2;
        Some(i16::from_le_bytes([lo, hi]))
    } else {
        Some(i16::from(b) - 128)
    }
}

/// Quantizes an intra pixel value, returning the quantization bucket.
fn quantize_intra(v: u8, q: u16) -> u8 {
    // The bucket index always fits in u8: (255 + q/2) / q <= 255 for q >= 1.
    ((u16::from(v) + q / 2) / q) as u8
}

/// Reverses [`quantize_intra`].
pub(crate) fn dequantize_intra(bucket: u8, q: u16) -> u8 {
    (u16::from(bucket) * q).min(255) as u8
}

impl Encoder {
    /// Creates an encoder after validating the configuration.
    pub fn new(config: EncoderConfig) -> Result<Self> {
        config.validate()?;
        Ok(Encoder { config })
    }

    /// The active configuration.
    #[must_use]
    pub const fn config(&self) -> &EncoderConfig {
        &self.config
    }

    /// Encodes a sequence of same-shaped frames into a video.
    ///
    /// `video_id` and `class_id` are carried verbatim into the header.
    pub fn encode(&self, frames: &[Frame], video_id: u64, class_id: u32) -> Result<EncodedVideo> {
        let first = frames.first().ok_or(CodecError::InvalidConfig {
            what: "cannot encode an empty video",
        })?;
        for f in frames {
            if !f.same_shape(first) {
                return Err(CodecError::InvalidConfig {
                    what: "all frames must share a shape",
                });
            }
        }
        let q = u16::from(self.config.quantizer);
        let qi = i16::from(self.config.quantizer);
        let gop = self.config.gop_size;
        let spacing = self.config.anchor_spacing();
        // Display-order frame kinds: I at GOP starts, anchors (P) every
        // `spacing` frames within the GOP, B in between. A GOP's trailing
        // frames past the last anchor become P-chained so no B-run ends a
        // stream without a following anchor.
        let kind_of = |i: usize| -> FrameKind {
            let pos = i % gop;
            if pos == 0 {
                FrameKind::Intra
            } else if pos.is_multiple_of(spacing) {
                FrameKind::Predicted
            } else {
                // Is there an anchor after this frame within the GOP (or
                // does the next GOP's I-frame follow the run)?
                let gop_start = i - pos;
                let gop_end = (gop_start + gop).min(frames.len());
                let next_anchor_in_gop =
                    (i + 1..gop_end).any(|k| (k - gop_start).is_multiple_of(spacing));
                let next_gop_follows = gop_end < frames.len();
                if next_anchor_in_gop || next_gop_follows {
                    FrameKind::Bidirectional
                } else {
                    FrameKind::Predicted
                }
            }
        };
        // Encode the residual of `src` against `predictor`, closed-loop;
        // returns (payload, reconstruction).
        let encode_residual = |src: &[u8], predictor: &[u8]| -> (Vec<u8>, Vec<u8>) {
            let mut stream = Vec::with_capacity(src.len());
            let mut recon = Vec::with_capacity(src.len());
            for (&v, &p) in src.iter().zip(predictor.iter()) {
                let residual = i16::from(v) - i16::from(p);
                let steps = residual_steps(residual, qi);
                put_steps(&mut stream, steps);
                recon.push((i16::from(p) + steps * qi).clamp(0, 255) as u8);
            }
            let mut payload = Vec::with_capacity(stream.len() / 2 + 8);
            sand_frame::wire::put_varint(&mut payload, stream.len() as u64);
            payload.extend_from_slice(&rle_pack(&stream));
            (payload, recon)
        };
        // Pass 1: anchors in display order (B slots left empty).
        let mut encoded: Vec<Option<EncodedFrame>> = vec![None; frames.len()];
        let mut anchor_recons: Vec<Option<Vec<u8>>> = vec![None; frames.len()];
        let mut prev_anchor: Option<usize> = None;
        for (i, frame) in frames.iter().enumerate() {
            match kind_of(i) {
                FrameKind::Intra => {
                    let src = frame.as_bytes();
                    let buckets: Vec<u8> = src.iter().map(|&v| quantize_intra(v, q)).collect();
                    let recon: Vec<u8> = buckets.iter().map(|&b| dequantize_intra(b, q)).collect();
                    let payload = rle_pack(&filter_rows(&buckets, frame.stride()));
                    encoded[i] = Some(EncodedFrame {
                        kind: FrameKind::Intra,
                        payload,
                    });
                    anchor_recons[i] = Some(recon);
                    prev_anchor = Some(i);
                }
                FrameKind::Predicted => {
                    let prev = prev_anchor.expect("P-frame always has a prior anchor");
                    let predictor = anchor_recons[prev].as_ref().expect("anchor recon kept");
                    let (payload, recon) = encode_residual(frame.as_bytes(), predictor);
                    encoded[i] = Some(EncodedFrame {
                        kind: FrameKind::Predicted,
                        payload,
                    });
                    anchor_recons[i] = Some(recon);
                    prev_anchor = Some(i);
                }
                FrameKind::Bidirectional => {}
            }
        }
        // Pass 2: B-frames predicted from the average of their anchors.
        for (i, frame) in frames.iter().enumerate() {
            if encoded[i].is_some() {
                continue;
            }
            let before = (0..i).rev().find(|&k| anchor_recons[k].is_some());
            let after = (i + 1..frames.len()).find(|&k| anchor_recons[k].is_some());
            let (before, after) = match (before, after) {
                (Some(b), Some(a)) => (b, a),
                _ => unreachable!("kind_of guarantees anchors around every B-frame"),
            };
            let pa = anchor_recons[before].as_ref().expect("anchor recon");
            let pb = anchor_recons[after].as_ref().expect("anchor recon");
            let predictor: Vec<u8> = pa
                .iter()
                .zip(pb.iter())
                .map(|(&a, &b)| ((u16::from(a) + u16::from(b)) / 2) as u8)
                .collect();
            let (payload, _) = encode_residual(frame.as_bytes(), &predictor);
            encoded[i] = Some(EncodedFrame {
                kind: FrameKind::Bidirectional,
                payload,
            });
        }
        let encoded: Vec<EncodedFrame> = encoded
            .into_iter()
            .map(|f| f.expect("all frames encoded"))
            .collect();
        Ok(EncodedVideo {
            header: ContainerHeader {
                video_id,
                class_id,
                width: first.width(),
                height: first.height(),
                fps_milli: self.config.fps_milli,
                gop_size: self.config.gop_size,
                format: first.format(),
                quantizer: self.config.quantizer,
            },
            frames: encoded,
        })
    }
}

/// Row-delta filter applied to I-frame buckets before entropy packing.
fn filter_rows(data: &[u8], stride: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len());
    out.extend_from_slice(&data[..stride.min(data.len())]);
    for y in 1..data.len() / stride {
        for x in 0..stride {
            out.push(data[y * stride + x].wrapping_sub(data[(y - 1) * stride + x]));
        }
    }
    out
}

/// Inverse of [`filter_rows`]; used by the decoder.
pub(crate) fn unfilter_rows(data: &mut [u8], stride: usize) {
    for y in 1..data.len() / stride {
        for x in 0..stride {
            let prev = data[(y - 1) * stride + x];
            data[y * stride + x] = data[y * stride + x].wrapping_add(prev);
        }
    }
}

/// Internal quantization hooks shared with the decoder.
pub(crate) mod q {
    pub(crate) use super::dequantize_intra;
}

#[cfg(test)]
mod tests {
    use super::*;
    use sand_frame::PixelFormat;

    fn flat(v: u8) -> Frame {
        let mut f = Frame::zeroed(8, 8, PixelFormat::Gray8).unwrap();
        for b in f.as_bytes_mut() {
            *b = v;
        }
        f
    }

    #[test]
    fn config_validation() {
        assert!(Encoder::new(EncoderConfig {
            gop_size: 0,
            ..Default::default()
        })
        .is_err());
        assert!(Encoder::new(EncoderConfig {
            quantizer: 0,
            ..Default::default()
        })
        .is_err());
        assert!(Encoder::new(EncoderConfig::default()).is_ok());
    }

    #[test]
    fn empty_video_rejected() {
        let enc = Encoder::new(EncoderConfig::default()).unwrap();
        assert!(enc.encode(&[], 0, 0).is_err());
    }

    #[test]
    fn mixed_shapes_rejected() {
        let enc = Encoder::new(EncoderConfig::default()).unwrap();
        let a = Frame::zeroed(8, 8, PixelFormat::Gray8).unwrap();
        let b = Frame::zeroed(4, 4, PixelFormat::Gray8).unwrap();
        assert!(enc.encode(&[a, b], 0, 0).is_err());
    }

    #[test]
    fn gop_structure_is_periodic() {
        let enc = Encoder::new(EncoderConfig {
            gop_size: 4,
            quantizer: 2,
            fps_milli: 30_000,
            b_frames: 0,
        })
        .unwrap();
        let frames: Vec<Frame> = (0..10).map(|i| flat(i * 10)).collect();
        let v = enc.encode(&frames, 1, 0).unwrap();
        for (i, f) in v.frames.iter().enumerate() {
            let expect = if i % 4 == 0 {
                FrameKind::Intra
            } else {
                FrameKind::Predicted
            };
            assert_eq!(f.kind, expect, "frame {i}");
        }
    }

    #[test]
    fn quantizer_roundtrip_error_bounded() {
        for q in [1u16, 2, 4, 8] {
            for v in 0..=255u8 {
                let back = dequantize_intra(quantize_intra(v, q), q);
                assert!(
                    u16::from(v.abs_diff(back)) <= q / 2 + 1,
                    "q={q} v={v} back={back}"
                );
            }
        }
    }

    #[test]
    fn residual_steps_roundtrip_via_escape_coding() {
        for q in [1i16, 2, 4, 8] {
            for r in [-255i16, -200, -100, -3, 0, 3, 100, 200, 255] {
                let steps = residual_steps(r, q);
                let mut stream = Vec::new();
                put_steps(&mut stream, steps);
                let mut pos = 0;
                assert_eq!(get_steps(&stream, &mut pos), Some(steps));
                assert_eq!(pos, stream.len());
                let back = steps * q;
                assert!((r - back).abs() < q, "q={q} r={r} back={back}");
            }
        }
    }

    #[test]
    fn escape_marker_used_only_for_large_steps() {
        let mut small = Vec::new();
        put_steps(&mut small, 126);
        assert_eq!(small.len(), 1);
        let mut large = Vec::new();
        put_steps(&mut large, 127);
        assert_eq!(large.len(), 3);
        assert_eq!(large[0], RESIDUAL_ESCAPE);
        let mut pos = 0;
        assert_eq!(get_steps(&large, &mut pos), Some(127));
    }

    #[test]
    fn b_frame_gop_pattern() {
        let enc = Encoder::new(EncoderConfig {
            gop_size: 12,
            quantizer: 2,
            fps_milli: 30_000,
            b_frames: 2,
        })
        .unwrap();
        let frames: Vec<Frame> = (0..14).map(|i| flat(i * 9)).collect();
        let v = enc.encode(&frames, 1, 0).unwrap();
        use FrameKind::{Bidirectional as B, Intra as I, Predicted as P};
        let kinds: Vec<FrameKind> = v.frames.iter().map(|f| f.kind).collect();
        // GOP 0: I B B P B B P B B P B B | GOP 1: I, then a trailing frame
        // with no following anchor becomes P.
        assert_eq!(kinds, vec![I, B, B, P, B, B, P, B, B, P, B, B, I, P]);
    }

    #[test]
    fn b_frames_must_leave_room_for_anchors() {
        assert!(Encoder::new(EncoderConfig {
            gop_size: 4,
            quantizer: 2,
            fps_milli: 30_000,
            b_frames: 3,
        })
        .is_err());
        assert!(Encoder::new(EncoderConfig {
            gop_size: 1,
            quantizer: 2,
            fps_milli: 30_000,
            b_frames: 0,
        })
        .is_ok());
    }

    #[test]
    fn static_video_compresses_tightly() {
        let enc = Encoder::new(EncoderConfig::default()).unwrap();
        let frames: Vec<Frame> = (0..24).map(|_| flat(100)).collect();
        let v = enc.encode(&frames, 1, 0).unwrap();
        // P-frames of a static scene are all-zero residuals -> tiny.
        let p_sizes: Vec<usize> = v
            .frames
            .iter()
            .filter(|f| f.kind == FrameKind::Predicted)
            .map(|f| f.payload.len())
            .collect();
        assert!(
            p_sizes.iter().all(|&s| s < 16),
            "p-frame sizes: {p_sizes:?}"
        );
    }
}
