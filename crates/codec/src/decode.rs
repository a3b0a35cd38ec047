//! The decoder, with dependency-aware random access and work metering.
//!
//! Decoding is the expensive operation whose redundancy SAND exists to
//! eliminate. The decoder therefore meters everything it does in a
//! [`DecodeStats`] record: how many frames were *requested* versus how many
//! were actually *decoded* (including the keyframe-to-target runs that real
//! codec dependencies force), split by frame kind, plus bytes touched and
//! abstract compute cost.
//!
//! Because the codec uses closed GOPs, the frames between two consecutive
//! keyframes form an independent decode unit: no reconstruction crosses a
//! keyframe boundary backwards. [`Decoder::decode_indices`] exploits this by
//! grouping sorted targets into keyframe segments and walking each segment's
//! anchor chain once.
//!
//! For single-frame demand reads, [`WarmDecoder`] keeps the newest
//! reconstructed anchor of the last GOP it walked, so a subsequent read
//! that lands *forward* in the same GOP resumes the anchor chain instead of
//! re-decoding from the keyframe.

use crate::container::{EncodedVideo, FrameKind};
use crate::encode::{q, unfilter_rows};
use crate::{CodecError, Result};
use sand_frame::cost::{per_pixel_cost, units, OpCost};
use sand_frame::wire::{get_varint, rle_unpack};
use sand_frame::{Frame, FrameMeta};
use std::collections::HashMap;
use std::sync::Arc;

/// Work counters accumulated by a [`Decoder`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// Frames the caller asked for.
    pub frames_requested: u64,
    /// Frames actually decoded (>= requested due to GOP dependencies).
    pub frames_decoded: u64,
    /// Of the decoded frames, how many were I-frames.
    pub i_frames_decoded: u64,
    /// Of the decoded frames, how many were P-frames.
    pub p_frames_decoded: u64,
    /// Of the decoded frames, how many were B-frames.
    pub b_frames_decoded: u64,
    /// Decoded frames that were *not* requested (pure dependency overhead).
    pub frames_discarded: u64,
    /// Compressed payload bytes consumed.
    pub payload_bytes: u64,
    /// Raw pixel bytes produced (including discarded frames).
    pub pixel_bytes: u64,
    /// [`WarmDecoder`] reads that resumed a live anchor chain (the
    /// keyframe re-decode was skipped).
    pub warm_hits: u64,
    /// [`WarmDecoder`] reads that had to restart from a keyframe.
    pub cold_starts: u64,
}

impl DecodeStats {
    /// Merges another stats record into this one.
    pub fn merge(&mut self, other: &DecodeStats) {
        self.frames_requested += other.frames_requested;
        self.frames_decoded += other.frames_decoded;
        self.i_frames_decoded += other.i_frames_decoded;
        self.p_frames_decoded += other.p_frames_decoded;
        self.b_frames_decoded += other.b_frames_decoded;
        self.frames_discarded += other.frames_discarded;
        self.payload_bytes += other.payload_bytes;
        self.pixel_bytes += other.pixel_bytes;
        self.warm_hits += other.warm_hits;
        self.cold_starts += other.cold_starts;
    }

    /// Ratio of decoded to requested frames (the waste factor).
    #[must_use]
    pub fn amplification(&self) -> f64 {
        if self.frames_requested == 0 {
            return 0.0;
        }
        self.frames_decoded as f64 / self.frames_requested as f64
    }
}

/// The anchor whose reconstruction a target needs before it can be
/// produced: itself for I/P, the *following* anchor for B (by which point
/// the preceding anchor is decoded too).
fn needed_anchor(video: &EncodedVideo, target: usize) -> Result<usize> {
    if video.frames[target].kind.is_anchor() {
        Ok(target)
    } else {
        video.anchor_after(target)?.ok_or(CodecError::Corrupt {
            what: "b-frame run with no following anchor",
        })
    }
}

/// Wraps a raw pixel buffer into a [`Frame`] with provenance metadata.
fn wrap_frame(video: &EncodedVideo, index: usize, pixels: Vec<u8>) -> Result<Frame> {
    let h = &video.header;
    let mut frame = Frame::from_vec(h.width, h.height, h.format, pixels)?;
    frame.meta = FrameMeta {
        index: index as u64,
        timestamp_us: h.timestamp_us(index),
        video_id: h.video_id,
        aug_depth: 0,
    };
    Ok(frame)
}

/// Walks one keyframe segment's anchor chain, decoding frames and
/// metering work. Owns the B-frame predictor scratch buffer so averaging
/// two anchors never allocates per frame.
struct ChainWalker<'v> {
    video: &'v EncodedVideo,
    stats: DecodeStats,
    scratch: Vec<u8>,
}

impl<'v> ChainWalker<'v> {
    fn new(video: &'v EncodedVideo) -> Self {
        ChainWalker {
            video,
            stats: DecodeStats::default(),
            scratch: Vec::new(),
        }
    }

    /// Decodes the I-frame at `index`.
    fn decode_intra(&mut self, index: usize) -> Result<Vec<u8>> {
        let h = &self.video.header;
        let expected = h.width * h.height * h.format.channels();
        let stride = h.width * h.format.channels();
        let f = &self.video.frames[index];
        self.stats.frames_decoded += 1;
        self.stats.i_frames_decoded += 1;
        self.stats.payload_bytes += f.payload.len() as u64;
        self.stats.pixel_bytes += expected as u64;
        let mut buckets = rle_unpack(&f.payload, expected).map_err(|_| CodecError::Corrupt {
            what: "bad i-frame payload",
        })?;
        if stride == 0 {
            return Err(CodecError::Corrupt {
                what: "zero stride",
            });
        }
        unfilter_rows(&mut buckets, stride);
        let qv = u16::from(h.quantizer);
        Ok(buckets
            .into_iter()
            .map(|b| q::dequantize_intra(b, qv))
            .collect())
    }

    /// Decodes a residual-coded frame at `index` against `predictor`.
    fn decode_residual(&mut self, index: usize, predictor: &[u8]) -> Result<Vec<u8>> {
        let h = &self.video.header;
        let expected = h.width * h.height * h.format.channels();
        let f = &self.video.frames[index];
        self.stats.frames_decoded += 1;
        match f.kind {
            FrameKind::Predicted => self.stats.p_frames_decoded += 1,
            FrameKind::Bidirectional => self.stats.b_frames_decoded += 1,
            FrameKind::Intra => {
                return Err(CodecError::Corrupt {
                    what: "intra frame in residual path",
                })
            }
        }
        self.stats.payload_bytes += f.payload.len() as u64;
        self.stats.pixel_bytes += expected as u64;
        let mut pos = 0usize;
        let stream_len = get_varint(&f.payload, &mut pos).map_err(|_| CodecError::Corrupt {
            what: "bad residual stream length",
        })? as usize;
        let stream =
            rle_unpack(&f.payload[pos..], stream_len).map_err(|_| CodecError::Corrupt {
                what: "bad residual payload",
            })?;
        let qi = i16::from(h.quantizer);
        let mut out = Vec::with_capacity(expected);
        let mut spos = 0usize;
        for &p in predictor.iter() {
            let steps = q::get_steps(&stream, &mut spos).ok_or(CodecError::Corrupt {
                what: "truncated residual stream",
            })?;
            // Widen: corrupted escape-coded streams can carry step counts
            // near i16::MAX, which would overflow in i16 arithmetic.
            let v = i32::from(p) + i32::from(steps) * i32::from(qi);
            out.push(v.clamp(0, 255) as u8);
        }
        if spos != stream.len() {
            return Err(CodecError::Corrupt {
                what: "residual stream length mismatch",
            });
        }
        Ok(out)
    }

    /// Decodes the B-frame at `index` predicted from the average of two
    /// anchor reconstructions, reusing the walker's scratch buffer for the
    /// averaged predictor.
    fn decode_b(&mut self, index: usize, pa: &[u8], pb: &[u8]) -> Result<Vec<u8>> {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.extend(
            pa.iter()
                .zip(pb.iter())
                .map(|(&x, &y)| ((u16::from(x) + u16::from(y)) / 2) as u8),
        );
        let out = self.decode_residual(index, &scratch);
        self.scratch = scratch;
        out
    }

    /// Decodes every target of one keyframe segment (`targets` sorted,
    /// deduplicated, all sharing `keyframe_before`). `requested` is the
    /// full sorted request set across *all* segments: discard accounting
    /// checks membership there.
    ///
    /// The walk keeps a single chain tip plus only the anchors that a
    /// still-pending target needs (counted up front), dropping every other
    /// reconstruction as soon as the chain moves past it, and moves — not
    /// copies — buffers into the output where possible.
    fn decode_segment(
        &mut self,
        targets: &[usize],
        requested: &[usize],
    ) -> Result<Vec<(usize, Vec<u8>)>> {
        let video = self.video;
        let first = match targets.first() {
            Some(&t) => t,
            None => return Ok(Vec::new()),
        };
        // Outstanding-use counts per anchor reconstruction.
        let mut needs: HashMap<usize, u32> = HashMap::new();
        for &t in targets {
            if video.frames[t].kind.is_anchor() {
                *needs.entry(t).or_insert(0) += 1;
            } else {
                *needs.entry(video.anchor_before(t)?).or_insert(0) += 1;
                *needs.entry(needed_anchor(video, t)?).or_insert(0) += 1;
            }
        }
        let kf = video.keyframe_before(first)?;
        let px = self.decode_intra(kf)?;
        if requested.binary_search(&kf).is_err() {
            self.stats.frames_discarded += 1;
        }
        let mut tip: (usize, Vec<u8>) = (kf, px);
        // Anchors the chain has passed that a later target still needs.
        let mut saved: HashMap<usize, Vec<u8>> = HashMap::new();
        let mut out = Vec::with_capacity(targets.len());
        for (ti, &target) in targets.iter().enumerate() {
            let needed = needed_anchor(video, target)?;
            while tip.0 < needed {
                let next = video.anchor_after(tip.0)?.ok_or(CodecError::Corrupt {
                    what: "anchor chain ends early",
                })?;
                // A trailing B-run's following anchor can be the next
                // GOP's I-frame, which decodes independently.
                let px = if video.frames[next].kind == FrameKind::Intra {
                    self.decode_intra(next)?
                } else {
                    self.decode_residual(next, &tip.1)?
                };
                if requested.binary_search(&next).is_err() {
                    self.stats.frames_discarded += 1;
                }
                let (old_idx, old_px) = std::mem::replace(&mut tip, (next, px));
                if needs.get(&old_idx).is_some_and(|&n| n > 0) {
                    saved.insert(old_idx, old_px);
                }
                // Otherwise `old_px` drops here: dead anchors are freed as
                // soon as the chain moves past them.
            }
            let last = ti + 1 == targets.len();
            let pixels = if video.frames[target].kind.is_anchor() {
                // Targets are sorted, so `needed` is monotone and the tip
                // is exactly this anchor.
                if let Some(n) = needs.get_mut(&target) {
                    *n = n.saturating_sub(1);
                }
                if last {
                    std::mem::take(&mut tip.1)
                } else {
                    tip.1.clone()
                }
            } else {
                let before = video.anchor_before(target)?;
                let produced = {
                    let pa = saved.get(&before).ok_or(CodecError::Corrupt {
                        what: "preceding anchor not decoded",
                    })?;
                    self.decode_b(target, pa, &tip.1)?
                };
                for a in [before, needed] {
                    if let Some(n) = needs.get_mut(&a) {
                        *n = n.saturating_sub(1);
                        if *n == 0 {
                            saved.remove(&a);
                        }
                    }
                }
                produced
            };
            out.push((target, pixels));
        }
        Ok(out)
    }
}

/// A decoder bound to one encoded video.
#[derive(Debug)]
pub struct Decoder<'a> {
    video: &'a EncodedVideo,
    stats: DecodeStats,
    /// Optional telemetry: per-GOP-segment decode timing. `None` (the
    /// default) takes no timestamps at all.
    metrics: Option<sand_telemetry::CodecMetrics>,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `video`.
    #[must_use]
    pub fn new(video: &'a EncodedVideo) -> Self {
        Decoder {
            video,
            stats: DecodeStats::default(),
            metrics: None,
        }
    }

    /// Attaches telemetry (builder-style): each decoded GOP segment is
    /// timed into `decode.segment_us`.
    #[must_use]
    pub fn with_metrics(mut self, metrics: Option<sand_telemetry::CodecMetrics>) -> Self {
        self.metrics = metrics;
        self
    }

    /// Work counters accumulated so far.
    #[must_use]
    pub const fn stats(&self) -> &DecodeStats {
        &self.stats
    }

    /// Resets the work counters.
    pub fn reset_stats(&mut self) {
        self.stats = DecodeStats::default();
    }

    /// Abstract compute cost of decoding one frame of the given kind at
    /// this video's dimensions (used as graph edge weight).
    #[must_use]
    pub fn frame_cost(&self, kind: FrameKind) -> OpCost {
        let h = &self.video.header;
        let pixels = (h.width * h.height) as u64;
        let ch = h.format.channels() as u64;
        let unit = match kind {
            FrameKind::Intra => units::DECODE_I,
            FrameKind::Predicted | FrameKind::Bidirectional => units::DECODE_P,
        };
        per_pixel_cost(pixels, ch, unit, pixels * ch)
    }

    /// Decodes exactly the frames at `indices` (display order, need not be
    /// sorted or unique), paying the full codec-dependency cost: anchors
    /// chain back to the GOP keyframe, B-frames additionally require the
    /// following anchor.
    ///
    /// Returns frames in the order requested. The stats record counts every
    /// intermediate frame that had to be decoded to reach the targets.
    pub fn decode_indices(&mut self, indices: &[usize]) -> Result<Vec<Frame>> {
        let len = self.video.frames.len();
        for &i in indices {
            if i >= len {
                return Err(CodecError::FrameOutOfRange { index: i, len });
            }
        }
        self.stats.frames_requested += indices.len() as u64;
        // Process targets in sorted order so one pass through each GOP's
        // anchor chain serves all targets inside it.
        let mut sorted: Vec<usize> = indices.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        // Group the sorted targets into keyframe segments (contiguous runs
        // sharing `keyframe_before`).
        let mut segments: Vec<Vec<usize>> = Vec::new();
        let mut cur_kf: Option<usize> = None;
        for &t in &sorted {
            let kf = self.video.keyframe_before(t)?;
            if cur_kf != Some(kf) {
                segments.push(Vec::new());
                cur_kf = Some(kf);
            }
            if let Some(seg) = segments.last_mut() {
                seg.push(t);
            }
        }
        let mut produced: HashMap<usize, Vec<u8>> = HashMap::with_capacity(sorted.len());
        let mut walker = ChainWalker::new(self.video);
        for seg in &segments {
            let t0 = self.metrics.as_ref().map(|_| std::time::Instant::now());
            produced.extend(walker.decode_segment(seg, &sorted)?);
            if let (Some(m), Some(t0)) = (&self.metrics, t0) {
                m.segment_us.observe_duration(t0.elapsed());
                m.segments.inc();
            }
        }
        self.stats.merge(&walker.stats);
        // Restore the caller's order (with possible duplicates), moving
        // each buffer out of the map on its last use.
        let mut remaining: HashMap<usize, usize> = HashMap::with_capacity(sorted.len());
        for &i in indices {
            *remaining.entry(i).or_insert(0) += 1;
        }
        let mut out = Vec::with_capacity(indices.len());
        for &i in indices {
            let uses = remaining.get_mut(&i).ok_or(CodecError::Corrupt {
                what: "request bookkeeping out of sync",
            })?;
            *uses -= 1;
            let pixels = if *uses == 0 {
                produced.remove(&i)
            } else {
                produced.get(&i).cloned()
            }
            .ok_or(CodecError::Corrupt {
                what: "target not decoded",
            })?;
            out.push(wrap_frame(self.video, i, pixels)?);
        }
        Ok(out)
    }

    /// Decodes every frame of the video in display order.
    pub fn decode_all(&mut self) -> Result<Vec<Frame>> {
        let all: Vec<usize> = (0..self.video.frames.len()).collect();
        self.decode_indices(&all)
    }

    /// Number of frames that would be decoded to satisfy `indices`,
    /// without doing any work. Used by planners for cost estimates.
    pub fn decode_span(&self, indices: &[usize]) -> Result<usize> {
        let len = self.video.frames.len();
        let mut sorted: Vec<usize> = indices.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut touched = 0usize;
        let mut chain_kf: Option<usize> = None;
        let mut chain_last: Option<usize> = None;
        for &target in &sorted {
            if target >= len {
                return Err(CodecError::FrameOutOfRange { index: target, len });
            }
            let kf = self.video.keyframe_before(target)?;
            let needed = needed_anchor(self.video, target)?;
            if chain_kf != Some(kf) {
                chain_kf = Some(kf);
                chain_last = None;
            }
            let mut at = match chain_last {
                Some(a) => a,
                None => {
                    touched += 1;
                    chain_last = Some(kf);
                    kf
                }
            };
            while at < needed {
                at = self.video.anchor_after(at)?.ok_or(CodecError::Corrupt {
                    what: "anchor chain ends early",
                })?;
                touched += 1;
                chain_last = Some(at);
            }
            if !self.video.frames[target].kind.is_anchor() {
                touched += 1;
            }
        }
        Ok(touched)
    }
}

/// A long-lived, owning decode session for single-frame demand reads.
///
/// Keeps the newest reconstructed anchor of the GOP it last walked. A read
/// that lands forward in the same GOP resumes the anchor chain from that
/// tip — zero keyframe re-decodes — while a read in a different GOP (or
/// behind the tip) falls back to a cold walk from the keyframe. Pixels are
/// bit-identical to a cold [`Decoder::decode_indices`] call either way.
#[derive(Debug)]
pub struct WarmDecoder {
    video: Arc<EncodedVideo>,
    /// Index + reconstruction of the live chain's newest anchor.
    tip: Option<(usize, Vec<u8>)>,
    stats: DecodeStats,
}

impl WarmDecoder {
    /// Creates a cold session over `video`.
    #[must_use]
    pub fn new(video: Arc<EncodedVideo>) -> Self {
        WarmDecoder {
            video,
            tip: None,
            stats: DecodeStats::default(),
        }
    }

    /// The video this session decodes.
    #[must_use]
    pub fn video(&self) -> &Arc<EncodedVideo> {
        &self.video
    }

    /// Work counters accumulated so far.
    #[must_use]
    pub const fn stats(&self) -> &DecodeStats {
        &self.stats
    }

    /// Returns the accumulated counters, resetting them to zero (so a
    /// caller can merge session work into a global meter incrementally).
    pub fn take_stats(&mut self) -> DecodeStats {
        std::mem::take(&mut self.stats)
    }

    /// Approximate resident size of the warm state in bytes.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.tip.as_ref().map_or(0, |(_, px)| px.len())
    }

    /// Decodes the single frame at `index`, resuming the live anchor chain
    /// when the request lands at or ahead of the tip in the same GOP.
    pub fn decode_frame(&mut self, index: usize) -> Result<Frame> {
        let video = Arc::clone(&self.video);
        let len = video.frames.len();
        if index >= len {
            return Err(CodecError::FrameOutOfRange { index, len });
        }
        self.stats.frames_requested += 1;
        let kf = video.keyframe_before(index)?;
        let needed = needed_anchor(&video, index)?;
        let is_anchor = video.frames[index].kind.is_anchor();
        let before = if is_anchor {
            None
        } else {
            Some(video.anchor_before(index)?)
        };
        // Warm iff the tip sits in the target's GOP at or before every
        // anchor the target still needs (for a B-frame the chain must
        // still pass its *preceding* anchor to capture it).
        let resume_limit = before.unwrap_or(index);
        let warm = match &self.tip {
            Some((t, _)) => *t <= resume_limit && video.keyframe_before(*t)? == kf,
            None => false,
        };
        if warm {
            self.stats.warm_hits += 1;
        } else {
            self.stats.cold_starts += 1;
        }
        let mut walker = ChainWalker::new(&video);
        let mut tip = if warm {
            self.tip.take().ok_or(CodecError::Corrupt {
                what: "warm tip vanished",
            })?
        } else {
            let px = walker.decode_intra(kf)?;
            if kf != index {
                walker.stats.frames_discarded += 1;
            }
            (kf, px)
        };
        let mut saved_before: Option<Vec<u8>> = None;
        while tip.0 < needed {
            let next = video.anchor_after(tip.0)?.ok_or(CodecError::Corrupt {
                what: "anchor chain ends early",
            })?;
            let px = if video.frames[next].kind == FrameKind::Intra {
                walker.decode_intra(next)?
            } else {
                walker.decode_residual(next, &tip.1)?
            };
            if next != index {
                walker.stats.frames_discarded += 1;
            }
            let old = std::mem::replace(&mut tip, (next, px));
            if Some(old.0) == before {
                saved_before = Some(old.1);
            }
        }
        let pixels = if is_anchor {
            tip.1.clone()
        } else {
            let pa = saved_before.as_deref().ok_or(CodecError::Corrupt {
                what: "preceding anchor not decoded",
            })?;
            walker.decode_b(index, pa, &tip.1)?
        };
        self.tip = Some(tip);
        self.stats.merge(&walker.stats);
        wrap_frame(&video, index, pixels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{Encoder, EncoderConfig};
    use sand_frame::{Frame, PixelFormat};

    fn gradient_video(frames: usize, w: usize, h: usize) -> Vec<Frame> {
        (0..frames)
            .map(|t| {
                let mut f = Frame::zeroed(w, h, PixelFormat::Gray8).unwrap();
                for y in 0..h {
                    for x in 0..w {
                        let v = ((x * 4 + y * 2 + t * 8) % 256) as u8;
                        f.set_pixel(x, y, &[v]).unwrap();
                    }
                }
                f
            })
            .collect()
    }

    fn encode(frames: &[Frame], gop: usize, q: u8) -> EncodedVideo {
        Encoder::new(EncoderConfig {
            gop_size: gop,
            quantizer: q,
            fps_milli: 30_000,
            b_frames: 0,
        })
        .unwrap()
        .encode(frames, 7, 2)
        .unwrap()
    }

    #[test]
    fn full_decode_error_bounded_by_quantizer() {
        let src = gradient_video(24, 16, 16);
        for q in [1u8, 2, 4, 8] {
            let v = encode(&src, 8, q);
            let mut dec = Decoder::new(&v);
            let out = dec.decode_all().unwrap();
            for (a, b) in src.iter().zip(out.iter()) {
                let mad = a.mean_abs_diff(b).unwrap();
                assert!(mad <= f64::from(q), "q={q} mad={mad}");
            }
        }
    }

    #[test]
    fn lossless_at_q1() {
        let src = gradient_video(12, 8, 8);
        let v = encode(&src, 6, 1);
        let mut dec = Decoder::new(&v);
        let out = dec.decode_all().unwrap();
        for (a, b) in src.iter().zip(out.iter()) {
            assert_eq!(a.as_bytes(), b.as_bytes());
        }
    }

    #[test]
    fn random_access_matches_sequential() {
        let src = gradient_video(30, 8, 8);
        let v = encode(&src, 10, 2);
        let mut dec_all = Decoder::new(&v);
        let all = dec_all.decode_all().unwrap();
        let mut dec = Decoder::new(&v);
        let picks = [25usize, 3, 17];
        let out = dec.decode_indices(&picks).unwrap();
        for (k, &i) in picks.iter().enumerate() {
            assert_eq!(out[k].as_bytes(), all[i].as_bytes(), "frame {i}");
            assert_eq!(out[k].meta.index, i as u64);
        }
    }

    #[test]
    fn dependency_amplification_measured() {
        let src = gradient_video(40, 8, 8);
        let v = encode(&src, 10, 2);
        let mut dec = Decoder::new(&v);
        // Frame 9 is the last of GOP 0: needs frames 0..=9.
        dec.decode_indices(&[9]).unwrap();
        assert_eq!(dec.stats().frames_requested, 1);
        assert_eq!(dec.stats().frames_decoded, 10);
        assert_eq!(dec.stats().frames_discarded, 9);
        assert!((dec.stats().amplification() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn keyframe_access_is_cheap() {
        let src = gradient_video(40, 8, 8);
        let v = encode(&src, 10, 2);
        let mut dec = Decoder::new(&v);
        dec.decode_indices(&[20]).unwrap(); // a keyframe
        assert_eq!(dec.stats().frames_decoded, 1);
        assert_eq!(dec.stats().frames_discarded, 0);
    }

    #[test]
    fn same_gop_targets_share_one_pass() {
        let src = gradient_video(40, 8, 8);
        let v = encode(&src, 10, 2);
        let mut dec = Decoder::new(&v);
        dec.decode_indices(&[12, 15, 18]).unwrap();
        // One pass 10..=18 decodes 9 frames.
        assert_eq!(dec.stats().frames_decoded, 9);
        assert_eq!(dec.stats().frames_discarded, 6);
    }

    #[test]
    fn decode_span_predicts_decode_work() {
        let src = gradient_video(40, 8, 8);
        let v = encode(&src, 10, 2);
        for picks in [vec![9usize], vec![20], vec![12, 15, 18], vec![3, 33]] {
            let mut dec = Decoder::new(&v);
            let predicted = dec.decode_span(&picks).unwrap();
            dec.decode_indices(&picks).unwrap();
            assert_eq!(
                predicted as u64,
                dec.stats().frames_decoded,
                "picks {picks:?}"
            );
        }
    }

    #[test]
    fn duplicate_and_unsorted_requests_served_in_order() {
        let src = gradient_video(20, 8, 8);
        let v = encode(&src, 5, 2);
        let mut dec = Decoder::new(&v);
        let out = dec.decode_indices(&[7, 2, 7]).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].meta.index, 7);
        assert_eq!(out[1].meta.index, 2);
        assert_eq!(out[0].as_bytes(), out[2].as_bytes());
    }

    #[test]
    fn out_of_range_rejected() {
        let src = gradient_video(10, 8, 8);
        let v = encode(&src, 5, 2);
        let mut dec = Decoder::new(&v);
        assert!(matches!(
            dec.decode_indices(&[10]),
            Err(CodecError::FrameOutOfRange { index: 10, len: 10 })
        ));
    }

    fn encode_b(frames: &[Frame], gop: usize, q: u8, b: usize) -> EncodedVideo {
        Encoder::new(EncoderConfig {
            gop_size: gop,
            quantizer: q,
            fps_milli: 30_000,
            b_frames: b,
        })
        .unwrap()
        .encode(frames, 7, 2)
        .unwrap()
    }

    #[test]
    fn b_frame_full_decode_error_bounded() {
        let src = gradient_video(24, 16, 16);
        for q in [1u8, 2, 4] {
            let v = encode_b(&src, 12, q, 2);
            let mut dec = Decoder::new(&v);
            let out = dec.decode_all().unwrap();
            for (a, b) in src.iter().zip(out.iter()) {
                let mad = a.mean_abs_diff(b).unwrap();
                // B-frames compound intra + anchor + own quantization.
                assert!(mad <= 2.0 * f64::from(q), "q={q} mad={mad}");
            }
            assert!(dec.stats().b_frames_decoded > 0);
        }
    }

    #[test]
    fn b_frame_random_access_decodes_anchor_chain() {
        let src = gradient_video(24, 8, 8);
        let v = encode_b(&src, 12, 2, 2);
        // Frame 4 is a B between anchors 3 and 6: needs I(0), P(3), P(6),
        // and itself = 4 decodes.
        let mut dec = Decoder::new(&v);
        dec.decode_indices(&[4]).unwrap();
        assert_eq!(dec.stats().frames_decoded, 4);
        assert_eq!(dec.stats().i_frames_decoded, 1);
        assert_eq!(dec.stats().p_frames_decoded, 2);
        assert_eq!(dec.stats().b_frames_decoded, 1);
        assert_eq!(dec.stats().frames_discarded, 3);
    }

    #[test]
    fn b_frame_skips_other_b_frames() {
        // Accessing a far P anchor never decodes intervening B-frames.
        let src = gradient_video(24, 8, 8);
        let v = encode_b(&src, 12, 2, 2);
        let mut dec = Decoder::new(&v);
        dec.decode_indices(&[9]).unwrap(); // P anchor at position 9
        assert_eq!(dec.stats().b_frames_decoded, 0);
        assert_eq!(dec.stats().frames_decoded, 4); // I0, P3, P6, P9
    }

    #[test]
    fn b_frame_decode_span_matches_work() {
        let src = gradient_video(36, 8, 8);
        let v = encode_b(&src, 12, 2, 2);
        for picks in [vec![4usize], vec![9], vec![4, 5], vec![1, 13, 26]] {
            let mut dec = Decoder::new(&v);
            let predicted = dec.decode_span(&picks).unwrap();
            dec.decode_indices(&picks).unwrap();
            assert_eq!(
                predicted as u64,
                dec.stats().frames_decoded,
                "picks {picks:?}"
            );
        }
    }

    #[test]
    fn b_frame_random_access_matches_full_decode() {
        let src = gradient_video(24, 8, 8);
        let v = encode_b(&src, 12, 2, 2);
        let mut dec_all = Decoder::new(&v);
        let all = dec_all.decode_all().unwrap();
        let mut dec = Decoder::new(&v);
        let picks = [4usize, 10, 13, 22];
        let out = dec.decode_indices(&picks).unwrap();
        for (k, &i) in picks.iter().enumerate() {
            assert_eq!(out[k].as_bytes(), all[i].as_bytes(), "frame {i}");
        }
    }

    #[test]
    fn warm_forward_read_skips_keyframe_redecode() {
        let src = gradient_video(40, 8, 8);
        let v = Arc::new(encode(&src, 10, 2));
        let mut warm = WarmDecoder::new(Arc::clone(&v));
        warm.decode_frame(12).unwrap();
        assert_eq!(warm.stats().i_frames_decoded, 1);
        assert_eq!(warm.stats().frames_decoded, 3); // 10, 11, 12
        warm.decode_frame(15).unwrap();
        // Forward in the same GOP: resumes at 12, decodes 13..=15 only.
        assert_eq!(warm.stats().i_frames_decoded, 1);
        assert_eq!(warm.stats().frames_decoded, 6);
        // Re-reading the tip itself decodes nothing.
        warm.decode_frame(15).unwrap();
        assert_eq!(warm.stats().frames_decoded, 6);
    }

    #[test]
    fn warm_backward_or_cross_gop_read_restarts_cold() {
        let src = gradient_video(40, 8, 8);
        let v = Arc::new(encode(&src, 10, 2));
        let mut warm = WarmDecoder::new(Arc::clone(&v));
        warm.decode_frame(15).unwrap();
        let base = warm.stats().frames_decoded;
        warm.decode_frame(12).unwrap(); // behind the tip: cold walk 10..=12
        assert_eq!(warm.stats().frames_decoded, base + 3);
        assert_eq!(warm.stats().i_frames_decoded, 2);
        warm.decode_frame(25).unwrap(); // different GOP: cold walk 20..=25
        assert_eq!(warm.stats().i_frames_decoded, 3);
    }

    #[test]
    fn warm_reads_match_cold_pixels() {
        let src = gradient_video(36, 8, 8);
        let v = Arc::new(encode_b(&src, 12, 2, 2));
        let mut dec_all = Decoder::new(&v);
        let all = dec_all.decode_all().unwrap();
        let mut warm = WarmDecoder::new(Arc::clone(&v));
        // A mix of warm resumes, B-frames, and cold restarts.
        for i in [0usize, 4, 6, 9, 10, 13, 2, 35] {
            let f = warm.decode_frame(i).unwrap();
            assert_eq!(f.as_bytes(), all[i].as_bytes(), "frame {i}");
            assert_eq!(f.meta.index, i as u64);
        }
    }

    #[test]
    fn warm_session_counts_hits_and_cold_starts() {
        let src = gradient_video(40, 8, 8);
        let v = Arc::new(encode(&src, 10, 2));
        let mut warm = WarmDecoder::new(Arc::clone(&v));
        warm.decode_frame(12).unwrap(); // first read: cold
        warm.decode_frame(15).unwrap(); // forward same GOP: warm
        warm.decode_frame(15).unwrap(); // tip itself: warm
        warm.decode_frame(12).unwrap(); // behind the tip: cold
        warm.decode_frame(25).unwrap(); // other GOP: cold
        assert_eq!(warm.stats().warm_hits, 2);
        assert_eq!(warm.stats().cold_starts, 3);
    }

    #[test]
    fn segment_timing_counts_gop_segments() {
        let telemetry = sand_telemetry::Telemetry::new(sand_telemetry::TelemetryConfig::default());
        let metrics = sand_telemetry::CodecMetrics::register(&telemetry).unwrap();
        let src = gradient_video(40, 8, 8);
        let v = encode(&src, 10, 2);
        // Targets span three distinct GOPs → three timed segments.
        let mut dec = Decoder::new(&v).with_metrics(Some(metrics));
        dec.decode_indices(&[3, 15, 27]).unwrap();
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.counter("decode.segments"), Some(3));
        assert_eq!(
            snap.histogram("decode.segment_us").map(|h| h.count),
            Some(3)
        );
    }

    #[test]
    fn warm_out_of_range_rejected() {
        let src = gradient_video(10, 8, 8);
        let v = Arc::new(encode(&src, 5, 2));
        let mut warm = WarmDecoder::new(v);
        assert!(matches!(
            warm.decode_frame(10),
            Err(CodecError::FrameOutOfRange { index: 10, len: 10 })
        ));
    }

    #[test]
    fn stats_merge_adds_counters() {
        let mut a = DecodeStats {
            frames_requested: 1,
            frames_decoded: 2,
            ..Default::default()
        };
        let b = DecodeStats {
            frames_requested: 3,
            frames_decoded: 4,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.frames_requested, 4);
        assert_eq!(a.frames_decoded, 6);
    }

    #[test]
    fn p_frame_cost_exceeds_i_frame_cost() {
        let src = gradient_video(5, 8, 8);
        let v = encode(&src, 5, 2);
        let dec = Decoder::new(&v);
        assert!(
            dec.frame_cost(FrameKind::Predicted).compute_units
                > dec.frame_cost(FrameKind::Intra).compute_units
        );
    }

    #[test]
    fn container_roundtrip_preserves_decodability() {
        let src = gradient_video(15, 8, 8);
        let v = encode(&src, 5, 2);
        let v2 = EncodedVideo::from_bytes(&v.to_bytes()).unwrap();
        let mut dec = Decoder::new(&v2);
        let out = dec.decode_all().unwrap();
        assert_eq!(out.len(), 15);
    }
}
