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
use crate::encode::{q, unfilter_rows, RESIDUAL_ESCAPE};
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

/// Reconstructs a residual-coded frame from its payload against
/// `predictor` in one pass over the payload's run-length blocks.
///
/// The payload is the step stream's length (a varint) followed by the
/// [`sand_frame::wire::rle_pack`] blocks of the stream. A run of the zero
/// step copies the predictor slice it covers, and a run of any other
/// one-byte step is one saturating add or subtract over that slice (equal
/// to the per-pixel `(p + steps * q).clamp(0, 255)`). Literal blocks and
/// runs of the escape byte go through [`Steps::byte`], so an escape triplet
/// may straddle blocks. The output never outgrows `predictor`, and nothing
/// is sized from a length read out of the payload.
///
/// Accepts exactly the payloads whose blocks unpack to the declared number
/// of bytes, forming one step per predictor byte and nothing more.
fn apply_residual(payload: &[u8], predictor: &[u8], quantizer: u8) -> Result<Vec<u8>> {
    let corrupt = |what| CodecError::Corrupt { what };
    let mut pos = 0usize;
    let mut left =
        get_varint(payload, &mut pos).map_err(|_| corrupt("bad residual stream length"))?;
    let mut steps = Steps {
        predictor,
        out: Vec::with_capacity(predictor.len()),
        q: i32::from(quantizer),
        escape: Escape::Idle,
    };
    while pos < payload.len() {
        let head = get_varint(payload, &mut pos).map_err(|_| corrupt("bad residual block"))?;
        let len = head >> 1;
        left = left
            .checked_sub(len)
            .ok_or(corrupt("residual block exceeds stream length"))?;
        if head & 1 == 1 {
            let b = *payload.get(pos).ok_or(corrupt("truncated residual run"))?;
            pos += 1;
            steps.run(b, len)?;
        } else {
            let end = usize::try_from(len)
                .ok()
                .and_then(|len| pos.checked_add(len))
                .filter(|&end| end <= payload.len())
                .ok_or(corrupt("truncated residual literal"))?;
            for &b in &payload[pos..end] {
                steps.byte(b)?;
            }
            pos = end;
        }
    }
    if left != 0 || steps.escape != Escape::Idle || steps.out.len() != predictor.len() {
        return Err(corrupt("residual stream length mismatch"));
    }
    Ok(steps.out)
}

/// Where [`Steps`] stands inside an escape triplet (marker, low, high).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Escape {
    /// The next byte starts a step.
    Idle,
    /// The marker was read; the low byte is next.
    Marker,
    /// The low byte was read; the high byte completes the step.
    Low(u8),
}

/// The step-stream reader of [`apply_residual`]: each completed step
/// reconstructs the next output pixel from its predictor pixel.
struct Steps<'p> {
    predictor: &'p [u8],
    out: Vec<u8>,
    q: i32,
    escape: Escape,
}

impl Steps<'_> {
    /// Reconstructs the next pixel as its predictor plus `steps * q`.
    fn push(&mut self, steps: i32) -> Result<()> {
        let p = *self
            .predictor
            .get(self.out.len())
            .ok_or(CodecError::Corrupt {
                what: "residual stream longer than the frame",
            })?;
        // Widened: an escape step near i16::MAX times q overflows i16.
        self.out
            .push((i32::from(p) + steps * self.q).clamp(0, 255) as u8);
        Ok(())
    }

    /// Feeds one byte of the step stream.
    fn byte(&mut self, b: u8) -> Result<()> {
        match self.escape {
            Escape::Idle if b == RESIDUAL_ESCAPE => self.escape = Escape::Marker,
            Escape::Idle => return self.push(i32::from(b) - 128),
            Escape::Marker => self.escape = Escape::Low(b),
            Escape::Low(lo) => {
                self.escape = Escape::Idle;
                return self.push(i32::from(i16::from_le_bytes([lo, b])));
            }
        }
        Ok(())
    }

    /// Feeds `len` copies of `b`. Bytes that finish a pending escape
    /// triplet, and escape runs, take the byte path (an escape run errs
    /// once it passes the frame, so it is bounded by the predictor); the
    /// rest is one slice operation over the predictor.
    fn run(&mut self, b: u8, mut len: u64) -> Result<()> {
        while len > 0 && (b == RESIDUAL_ESCAPE || self.escape != Escape::Idle) {
            self.byte(b)?;
            len -= 1;
        }
        if len == 0 {
            return Ok(());
        }
        let start = self.out.len();
        let end = usize::try_from(len)
            .ok()
            .and_then(|len| start.checked_add(len))
            .filter(|&end| end <= self.predictor.len())
            .ok_or(CodecError::Corrupt {
                what: "residual run longer than the frame",
            })?;
        let pred = &self.predictor[start..end];
        let delta = (i32::from(b) - 128) * self.q;
        // |delta| >= 255 saturates every pixel, as the clamp would.
        let mag = delta.unsigned_abs().min(255) as u8;
        match delta.signum() {
            0 => self.out.extend_from_slice(pred),
            1 => self.out.extend(pred.iter().map(|&p| p.saturating_add(mag))),
            _ => self.out.extend(pred.iter().map(|&p| p.saturating_sub(mag))),
        }
        Ok(())
    }
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
        apply_residual(&f.payload, predictor, h.quantizer)
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
    use crate::container::{ContainerHeader, EncodedFrame};
    use crate::encode::{get_steps, Encoder, EncoderConfig};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sand_frame::wire::{put_varint, rle_pack};
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

    /// The residual decoder [`apply_residual`] replaced, kept as its
    /// oracle: unpack the whole step stream, then read one step per pixel.
    fn reference_decode_residual(
        payload: &[u8],
        predictor: &[u8],
        quantizer: u8,
    ) -> Result<Vec<u8>> {
        let mut pos = 0usize;
        let stream_len = get_varint(payload, &mut pos).map_err(|_| CodecError::Corrupt {
            what: "bad residual stream length",
        })? as usize;
        let stream = rle_unpack(&payload[pos..], stream_len).map_err(|_| CodecError::Corrupt {
            what: "bad residual payload",
        })?;
        let qi = i16::from(quantizer);
        let mut out = Vec::with_capacity(predictor.len());
        let mut spos = 0usize;
        for &p in predictor.iter() {
            let steps = get_steps(&stream, &mut spos).ok_or(CodecError::Corrupt {
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

    /// The reference's verdict (`None` = rejected). The reference sizes a
    /// buffer from the declared stream length before it looks at the
    /// blocks, so a length over three bytes a pixel (which no accepted
    /// payload has: a step is one or three bytes) would abort on the
    /// allocation; the oracle returns the rejection the reference would
    /// reach.
    fn oracle(payload: &[u8], predictor: &[u8], q: u8) -> Option<Vec<u8>> {
        let mut pos = 0;
        if get_varint(payload, &mut pos).is_ok_and(|len| len > 3 * predictor.len() as u64) {
            return None;
        }
        reference_decode_residual(payload, predictor, q).ok()
    }

    /// One run-length block of a hand-built residual payload.
    #[derive(Debug, Clone)]
    enum Block {
        Lit(Vec<u8>),
        Run(u8, u64),
    }

    /// Serializes a declared stream length and `blocks` as a payload.
    fn pack(stream_len: u64, blocks: &[Block]) -> Vec<u8> {
        let mut out = Vec::new();
        put_varint(&mut out, stream_len);
        for b in blocks {
            match b {
                Block::Lit(bytes) => {
                    put_varint(&mut out, (bytes.len() as u64) << 1);
                    out.extend_from_slice(bytes);
                }
                Block::Run(b, len) => {
                    put_varint(&mut out, (len << 1) | 1);
                    out.push(*b);
                }
            }
        }
        out
    }

    /// Cuts `stream` into short literal blocks and runs at random places
    /// (so escape triplets straddle blocks), with an empty block now and then.
    fn split_blocks(stream: &[u8], rng: &mut StdRng) -> Vec<Block> {
        let mut blocks = Vec::new();
        let mut i = 0;
        while i < stream.len() {
            if rng.gen_bool(0.05) {
                blocks.push(if rng.gen_bool(0.5) {
                    Block::Lit(Vec::new())
                } else {
                    Block::Run(rng.gen(), 0)
                });
            }
            if rng.gen_bool(0.5) {
                let b = stream[i];
                let same = stream[i..].iter().take_while(|&&x| x == b).count();
                let len = rng.gen_range(1..=same);
                blocks.push(Block::Run(b, len as u64));
                i += len;
            } else {
                let len = rng.gen_range(1..=4usize).min(stream.len() - i);
                blocks.push(Block::Lit(stream[i..i + len].to_vec()));
                i += len;
            }
        }
        blocks
    }

    /// A small random video whose motion style yields zero runs (a moving
    /// patch on a still frame), runs of one nonzero step (a global shift),
    /// literals (fresh noise) or escape triplets (a few large jumps).
    fn random_frames(rng: &mut StdRng) -> Vec<Frame> {
        let (w, h, n) = (
            rng.gen_range(4..14usize),
            rng.gen_range(4..14usize),
            rng.gen_range(4..12usize),
        );
        let style = rng.gen_range(0..4u8);
        let mut cur: Vec<u8> = (0..w * h).map(|_| rng.gen()).collect();
        let mut frames = Vec::with_capacity(n);
        for _ in 0..n {
            frames.push(Frame::from_vec(w, h, PixelFormat::Gray8, cur.clone()).unwrap());
            match style {
                0 => {
                    let (x0, y0) = (rng.gen_range(0..w), rng.gen_range(0..h));
                    let v: u8 = rng.gen();
                    for y in y0..(y0 + 3).min(h) {
                        for x in x0..(x0 + 3).min(w) {
                            cur[y * w + x] = v;
                        }
                    }
                }
                1 => {
                    let d = rng.gen_range(-40..=40i32);
                    for p in &mut cur {
                        *p = (i32::from(*p) + d).clamp(0, 255) as u8;
                    }
                }
                2 => cur.iter_mut().for_each(|p| *p = rng.gen()),
                _ => {
                    for _ in 0..4 {
                        let i = rng.gen_range(0..cur.len());
                        cur[i] = if cur[i] < 128 { 255 } else { 0 };
                    }
                }
            }
        }
        frames
    }

    /// Each residual frame of `v` with the predictor the decoder uses for
    /// it, rebuilt from a full decode.
    fn residual_frames(v: &EncodedVideo) -> Vec<(usize, Vec<u8>)> {
        let all = Decoder::new(v).decode_all().unwrap();
        (1..v.frames.len())
            .filter_map(|i| match v.frames[i].kind {
                FrameKind::Intra => None,
                FrameKind::Predicted => {
                    let a = v.anchor_before(i - 1).unwrap();
                    Some((i, all[a].as_bytes().to_vec()))
                }
                FrameKind::Bidirectional => {
                    let a = all[v.anchor_before(i).unwrap()].as_bytes();
                    let b = all[v.anchor_after(i).unwrap().unwrap()].as_bytes();
                    let avg = a
                        .iter()
                        .zip(b)
                        .map(|(&x, &y)| ((u16::from(x) + u16::from(y)) / 2) as u8)
                        .collect();
                    Some((i, avg))
                }
            })
            .collect()
    }

    /// Applies mutation `kind` to an encoder-written `payload`, returning
    /// the payloads to try.
    fn mutate(payload: &[u8], kind: u8, rng: &mut StdRng) -> Vec<Vec<u8>> {
        let mut pos = 0;
        let stream_len = get_varint(payload, &mut pos).unwrap();
        let stream = rle_unpack(&payload[pos..], stream_len as usize).unwrap();
        match kind {
            // Bit flips.
            0 => {
                let mut p = payload.to_vec();
                for _ in 0..rng.gen_range(1..=3) {
                    let i = rng.gen_range(0..p.len());
                    p[i] ^= 1u8 << rng.gen_range(0..8u32);
                }
                vec![p]
            }
            // Every prefix.
            1 => (0..payload.len()).map(|n| payload[..n].to_vec()).collect(),
            // Appended bytes, raw or as a literal block the length counts.
            2 => {
                let extra: Vec<u8> = (0..rng.gen_range(1..=4)).map(|_| rng.gen()).collect();
                let mut raw = payload.to_vec();
                raw.extend_from_slice(&extra);
                let mut blocks = split_blocks(&stream, rng);
                let counted = stream_len + extra.len() as u64;
                blocks.push(Block::Lit(extra));
                vec![raw, pack(counted, &blocks)]
            }
            // The declared stream length off by a few.
            3 => {
                let k = rng.gen_range(1..=3u64);
                let blocks = split_blocks(&stream, rng);
                vec![
                    pack(stream_len + k, &blocks),
                    pack(stream_len.saturating_sub(k), &blocks),
                ]
            }
            // Escape-coded steps (some large) re-cut so triplets straddle blocks.
            4 => {
                let mut tokens = Vec::new();
                let mut spos = 0;
                while let Some(s) = get_steps(&stream, &mut spos) {
                    tokens.push(s);
                }
                for _ in 0..rng.gen_range(1..=4) {
                    let i = rng.gen_range(0..tokens.len());
                    tokens[i] = rng.gen::<u16>() as i16;
                }
                let mut escaped = Vec::new();
                for s in tokens {
                    escaped.push(RESIDUAL_ESCAPE);
                    escaped.extend_from_slice(&s.to_le_bytes());
                }
                vec![pack(escaped.len() as u64, &split_blocks(&escaped, rng))]
            }
            // A run of the escape byte between two blocks.
            5 => {
                let mut blocks = split_blocks(&stream, rng);
                let k = rng.gen_range(1..=9u64);
                let at = rng.gen_range(0..=blocks.len());
                blocks.insert(at, Block::Run(RESIDUAL_ESCAPE, k));
                vec![pack(stream_len, &blocks), pack(stream_len + k, &blocks)]
            }
            // Random blocks of random steps whose length is about the frame's.
            6 => {
                let mut blocks = Vec::new();
                let mut total = 0u64;
                while total < stream_len {
                    let b = match rng.gen_range(0..4) {
                        0 => 128,
                        1 => RESIDUAL_ESCAPE,
                        _ => rng.gen(),
                    };
                    let len = rng.gen_range(0..=6u64);
                    blocks.push(if rng.gen_bool(0.5) {
                        Block::Run(b, len)
                    } else {
                        Block::Lit((0..len).map(|_| rng.gen()).collect())
                    });
                    total += len;
                }
                vec![pack(total, &blocks)]
            }
            // Raw random bytes.
            _ => vec![(0..rng.gen_range(0..48)).map(|_| rng.gen()).collect()],
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The one-pass kernel returns the reference's bytes wherever the
        /// reference accepts, and rejects wherever it rejects: on encoder
        /// payloads with their real predictors, and on mutated payloads
        /// with random predictors.
        #[test]
        fn kernel_matches_reference(seed in any::<u64>(), q in 1u8..9, b in 0usize..3, kind in 0u8..8) {
            let mut rng = StdRng::seed_from_u64(seed);
            let frames = random_frames(&mut rng);
            let gop = rng.gen_range(b + 2..10);
            let cfg = EncoderConfig { gop_size: gop, quantizer: q, fps_milli: 30_000, b_frames: b };
            let v = Encoder::new(cfg).unwrap().encode(&frames, 1, 0).unwrap();
            for (i, predictor) in residual_frames(&v) {
                let payload = &v.frames[i].payload;
                let want = oracle(payload, &predictor, q);
                prop_assert!(want.is_some(), "reference rejects encoder output");
                prop_assert_eq!(apply_residual(payload, &predictor, q).ok(), want);
                for bad in mutate(payload, kind, &mut rng) {
                    let len = match rng.gen_range(0..8) {
                        0 => predictor.len() + 1,
                        1 => predictor.len() - 1,
                        _ => predictor.len(),
                    };
                    let random: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                    prop_assert_eq!(
                        apply_residual(&bad, &random, q).ok(),
                        oracle(&bad, &random, q),
                        "mutation {} of frame {}: {:?}", kind, i, bad
                    );
                }
            }
        }
    }

    /// A container frame whose residual payload claims 2^62 stream bytes.
    /// A decoder that sizes a buffer from that length aborts here
    /// (`memory allocation of 4611686018427387904 bytes failed`); an abort
    /// is no panic, so no worker could catch it.
    #[test]
    fn huge_declared_stream_length_is_corrupt_not_an_abort() {
        let src = gradient_video(2, 8, 8);
        let mut v = encode(&src, 8, 2);
        let mut payload = Vec::new();
        put_varint(&mut payload, 1 << 62);
        put_varint(&mut payload, (64 << 1) | 1);
        payload.push(128);
        v.frames[1].payload = payload;
        let parsed = EncodedVideo::from_bytes(&v.to_bytes()).unwrap();
        assert!(matches!(
            Decoder::new(&parsed).decode_indices(&[1]),
            Err(CodecError::Corrupt { .. })
        ));
    }

    /// A container whose `width * height` overflows is rejected when it is
    /// parsed. Accepted, it would overflow the decoder's frame-size
    /// multiplication (a panic in debug builds, a wrapped size in release).
    #[test]
    fn overflowing_dimensions_are_corrupt() {
        let v = EncodedVideo {
            header: ContainerHeader {
                video_id: 0,
                class_id: 0,
                width: 1 << 33,
                height: 1 << 33,
                fps_milli: 30_000,
                gop_size: 8,
                format: PixelFormat::Gray8,
                quantizer: 2,
            },
            frames: vec![EncodedFrame {
                kind: FrameKind::Intra,
                payload: vec![2, 0],
            }],
        };
        let decoded = EncodedVideo::from_bytes(&v.to_bytes())
            .and_then(|parsed| Decoder::new(&parsed).decode_all().map(drop));
        assert!(matches!(decoded, Err(CodecError::Corrupt { .. })));
    }

    /// A 2^25 × 2^25 container is corrupt, whether its I-frame is a
    /// short payload or well-formed runs that really add up to 2^50 bytes.
    /// Accepted, `decode_intra` reserves or expands to the declared size
    /// and aborts here (`memory allocation of 1125899906842624 bytes
    /// failed`).
    #[test]
    fn huge_declared_intra_frame_is_corrupt_not_an_abort() {
        let runs = |lens: &[u64]| {
            let mut out = Vec::new();
            for &len in lens {
                put_varint(&mut out, (len << 1) | 1);
                out.push(7);
            }
            out
        };
        let short = rle_pack(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14]);
        for payload in [short, runs(&[1 << 50]), runs(&[1 << 49, 1 << 49])] {
            let v = EncodedVideo {
                header: ContainerHeader {
                    video_id: 0,
                    class_id: 0,
                    width: 1 << 25,
                    height: 1 << 25,
                    fps_milli: 30_000,
                    gop_size: 8,
                    format: PixelFormat::Gray8,
                    quantizer: 2,
                },
                frames: vec![EncodedFrame {
                    kind: FrameKind::Intra,
                    payload,
                }],
            };
            let decoded = EncodedVideo::from_bytes(&v.to_bytes())
                .and_then(|parsed| Decoder::new(&parsed).decode_indices(&[0]).map(drop));
            assert!(matches!(decoded, Err(CodecError::Corrupt { .. })));
        }
    }
}
