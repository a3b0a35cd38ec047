//! Planar `f32` tensors for model input.
//!
//! After augmentation, SAND normalizes clips of frames into `(N, C, T, H, W)`
//! style batches. This module provides the minimal dense tensor needed for
//! that: a flat `f32` buffer with an explicit shape, plus batch assembly.

use crate::frame::Frame;
use crate::{FrameError, Result};

/// A dense row-major `f32` tensor with an explicit shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from a shape and matching buffer.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Result<Self> {
        let expected = checked_len(&shape)?;
        if data.len() != expected {
            return Err(FrameError::ShapeMismatch {
                expected,
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a zero-filled tensor.
    pub fn zeros(shape: Vec<usize>) -> Result<Self> {
        let n = checked_len(&shape)?;
        Tensor::from_vec(shape, vec![0.0; n])
    }

    /// The tensor shape.
    #[must_use]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements (never, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the element buffer.
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mean of all elements.
    #[must_use]
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().sum::<f32>() / self.data.len() as f32
    }

    /// Serializes the tensor to little-endian bytes (shape-prefixed).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.shape.len() * 8 + self.data.len() * 4);
        put_header(&mut out, &self.shape);
        put_f32s(&mut out, &self.data);
        out
    }

    /// Inverse of [`Tensor::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let read_u64 = |off: usize| -> Result<u64> {
            let end = off + 8;
            if end > bytes.len() {
                return Err(FrameError::CorruptData {
                    what: "truncated tensor header",
                });
            }
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[off..end]);
            Ok(u64::from_le_bytes(b))
        };
        let rank = read_u64(0)? as usize;
        if rank > 8 {
            return Err(FrameError::CorruptData {
                what: "tensor rank too large",
            });
        }
        let mut shape = Vec::with_capacity(rank);
        for i in 0..rank {
            shape.push(read_u64(8 + i * 8)? as usize);
        }
        let data_off = 8 + rank * 8;
        let n = element_count(&shape).ok_or(FrameError::CorruptData {
            what: "tensor shape overflows",
        })?;
        let need = n
            .checked_mul(4)
            .and_then(|b| b.checked_add(data_off))
            .ok_or(FrameError::CorruptData {
                what: "tensor shape overflows",
            })?;
        if bytes.len() < need {
            return Err(FrameError::CorruptData {
                what: "truncated tensor data",
            });
        }
        let mut data = Vec::with_capacity(n);
        data.extend(
            bytes[data_off..need]
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])),
        );
        Tensor::from_vec(shape, data)
    }
}

/// The element count a shape declares, or `None` when the product
/// overflows `usize`.
fn element_count(shape: &[usize]) -> Option<usize> {
    shape.iter().try_fold(1usize, |n, &d| n.checked_mul(d))
}

/// The element count of a valid tensor shape: every dim nonzero, and the
/// count and its byte length within `usize`.
fn checked_len(shape: &[usize]) -> Result<usize> {
    if shape.contains(&0) {
        return Err(FrameError::InvalidDimension {
            what: "tensor dims must be nonzero",
        });
    }
    element_count(shape)
        .filter(|n| n.checked_mul(4).is_some())
        .ok_or(FrameError::InvalidDimension {
            what: "tensor shape overflows",
        })
}

/// Appends the shape prefix of the wire format: the rank, then each dim,
/// as little-endian `u64`s.
fn put_header(out: &mut Vec<u8>, shape: &[usize]) {
    out.extend_from_slice(&(shape.len() as u64).to_le_bytes());
    for &d in shape {
        out.extend_from_slice(&(d as u64).to_le_bytes());
    }
}

/// Appends elements as little-endian `f32`s: the one element writer of
/// [`Tensor::to_bytes`] and [`stack_to_bytes`].
fn put_f32s(out: &mut Vec<u8>, data: &[f32]) {
    let base = out.len();
    out.resize(base + data.len() * 4, 0);
    for (chunk, v) in out[base..].chunks_exact_mut(4).zip(data) {
        chunk.copy_from_slice(&v.to_le_bytes());
    }
}

/// Converts a clip of same-shaped frames into a `(C, T, H, W)` tensor,
/// normalizing each channel as `(x / 255 - mean) / std`.
pub fn clip_to_tensor(frames: &[Frame], mean: &[f32], std: &[f32]) -> Result<Tensor> {
    let refs: Vec<&Frame> = frames.iter().collect();
    clip_refs_to_tensor(&refs, mean, std)
}

/// Reference-taking variant of [`clip_to_tensor`] (avoids cloning frames
/// that are shared through `Arc`s in the engine's cache).
pub fn clip_refs_to_tensor(frames: &[&Frame], mean: &[f32], std: &[f32]) -> Result<Tensor> {
    let first = *frames
        .first()
        .ok_or(FrameError::InvalidDimension { what: "empty clip" })?;
    let (w, h, c) = (first.width(), first.height(), first.channels());
    if mean.len() != c || std.len() != c {
        return Err(FrameError::ShapeMismatch {
            expected: c,
            actual: mean.len(),
        });
    }
    if std.contains(&0.0) {
        return Err(FrameError::InvalidDimension { what: "zero std" });
    }
    for f in frames {
        if !f.same_shape(first) {
            return Err(FrameError::IncompatibleFrames {
                what: "clip frames must share shape",
            });
        }
    }
    let (t, plane) = (frames.len(), h * w);
    let mut data = vec![0.0f32; c * t * plane];
    for (ch, planes) in data.chunks_exact_mut(t * plane).enumerate() {
        // One entry per byte value, each the per-element expression
        // `(x / 255 - mean) / std` itself, so a lookup is the same bits.
        let mut lut = [0.0f32; 256];
        for (v, b) in lut.iter_mut().zip(0..=u8::MAX) {
            *v = (f32::from(b) / 255.0 - mean[ch]) / std[ch];
        }
        // The channel's `(ch, t)` planes, each filled contiguously.
        for (out, f) in planes.chunks_exact_mut(plane).zip(frames) {
            for (o, px) in out.iter_mut().zip(f.as_bytes().chunks_exact(c)) {
                *o = lut[usize::from(px[ch])];
            }
        }
    }
    Tensor::from_vec(vec![c, t, h, w], data)
}

/// The batch shape `[N, ..]` of same-shaped samples.
fn batch_shape(samples: &[Tensor]) -> Result<Vec<usize>> {
    let first = samples.first().ok_or(FrameError::InvalidDimension {
        what: "empty batch",
    })?;
    for s in samples {
        if s.shape() != first.shape() {
            return Err(FrameError::IncompatibleFrames {
                what: "batch samples must share shape",
            });
        }
    }
    let mut shape = Vec::with_capacity(first.shape().len() + 1);
    shape.push(samples.len());
    shape.extend_from_slice(first.shape());
    Ok(shape)
}

/// Stacks per-sample tensors into a batch tensor with a leading N axis.
pub fn stack(samples: &[Tensor]) -> Result<Tensor> {
    let shape = batch_shape(samples)?;
    let mut data = Vec::with_capacity(samples.iter().map(Tensor::len).sum());
    for s in samples {
        data.extend_from_slice(s.as_slice());
    }
    Tensor::from_vec(shape, data)
}

/// `stack(samples)?.to_bytes()` in one allocation and one pass: the
/// batch header, then every sample's elements, written straight into the
/// buffer that is served.
pub fn stack_to_bytes(samples: &[Tensor]) -> Result<Vec<u8>> {
    let shape = batch_shape(samples)?;
    let elements: usize = samples.iter().map(Tensor::len).sum();
    let mut out = Vec::with_capacity(8 + shape.len() * 8 + elements * 4);
    put_header(&mut out, &shape);
    for s in samples {
        put_f32s(&mut out, s.as_slice());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::PixelFormat;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The per-element body the table kernel of [`clip_refs_to_tensor`]
    /// replaced, kept as its oracle.
    fn reference_clip_to_tensor(frames: &[&Frame], mean: &[f32], std: &[f32]) -> Result<Tensor> {
        let first = *frames
            .first()
            .ok_or(FrameError::InvalidDimension { what: "empty clip" })?;
        let (w, h, c) = (first.width(), first.height(), first.channels());
        if mean.len() != c || std.len() != c {
            return Err(FrameError::ShapeMismatch {
                expected: c,
                actual: mean.len(),
            });
        }
        if std.contains(&0.0) {
            return Err(FrameError::InvalidDimension { what: "zero std" });
        }
        for f in frames {
            if !f.same_shape(first) {
                return Err(FrameError::IncompatibleFrames {
                    what: "clip frames must share shape",
                });
            }
        }
        let frames = frames.iter().copied();
        let t = frames.len();
        let mut data = vec![0.0f32; c * t * h * w];
        for (ti, f) in frames.enumerate() {
            let src = f.as_bytes();
            for y in 0..h {
                for x in 0..w {
                    let base = (y * w + x) * c;
                    for ch in 0..c {
                        let v = f32::from(src[base + ch]) / 255.0;
                        let out_idx = ((ch * t + ti) * h + y) * w + x;
                        data[out_idx] = (v - mean[ch]) / std[ch];
                    }
                }
            }
        }
        Tensor::from_vec(vec![c, t, h, w], data)
    }

    /// A per-channel `std` of one of three classes: below 0.01, ordinary,
    /// or negative.
    fn random_std(rng: &mut StdRng) -> f32 {
        match rng.gen_range(0..3u8) {
            0 => rng.gen_range(0.000_1f32..0.01),
            1 => rng.gen_range(0.01f32..2.0),
            _ => -rng.gen_range(0.01f32..2.0),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The table kernel writes the per-element kernel's bits, on
        /// random, all-0 and all-255 clips of 1-64 px frames, T of 1-16,
        /// both pixel formats, and random mean (negative too) and std.
        #[test]
        fn lut_kernel_matches_reference(seed in any::<u64>(), rgb in any::<bool>(), fill in 0u8..3) {
            let mut rng = StdRng::seed_from_u64(seed);
            let format = if rgb { PixelFormat::Rgb8 } else { PixelFormat::Gray8 };
            let c = format.channels();
            let (w, h, t) = (rng.gen_range(1..=64usize), rng.gen_range(1..=64usize), rng.gen_range(1..=16usize));
            let frames: Vec<Frame> = (0..t)
                .map(|_| {
                    let data = (0..w * h * c)
                        .map(|_| match fill {
                            0 => rng.gen(),
                            1 => 0,
                            _ => 255,
                        })
                        .collect();
                    Frame::from_vec(w, h, format, data).unwrap()
                })
                .collect();
            let mean: Vec<f32> = (0..c).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
            let std: Vec<f32> = (0..c).map(|_| random_std(&mut rng)).collect();
            let refs: Vec<&Frame> = frames.iter().collect();
            let got = clip_refs_to_tensor(&refs, &mean, &std).unwrap();
            let want = reference_clip_to_tensor(&refs, &mean, &std).unwrap();
            prop_assert_eq!(got.shape(), want.shape());
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
            prop_assert_eq!(bits(&got), bits(&want));
        }

        /// One-pass batch serialization is `stack` then `to_bytes`, byte
        /// for byte, and fails exactly where `stack` fails: on an empty
        /// batch and on samples of different shapes.
        #[test]
        fn stack_to_bytes_matches_stack_then_to_bytes(seed in any::<u64>(), n in 0usize..6, mismatch in any::<bool>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let shape: Vec<usize> = (0..rng.gen_range(1..=4usize)).map(|_| rng.gen_range(1..=5usize)).collect();
            let samples: Vec<Tensor> = (0..n)
                .map(|i| {
                    let mut shape = shape.clone();
                    if mismatch && i == n - 1 && n > 1 {
                        shape[0] += 1;
                    }
                    let len = shape.iter().product();
                    Tensor::from_vec(shape, (0..len).map(|_| rng.gen_range(-1e3f32..1e3)).collect()).unwrap()
                })
                .collect();
            match stack(&samples) {
                Ok(t) => prop_assert_eq!(stack_to_bytes(&samples).unwrap(), t.to_bytes()),
                Err(e) => {
                    prop_assert!(n == 0 || (mismatch && n > 1));
                    prop_assert_eq!(stack_to_bytes(&samples).unwrap_err(), e);
                }
            }
        }
    }

    /// A header with the given dims and no payload.
    fn header(shape: &[u64]) -> Vec<u8> {
        let mut b = (shape.len() as u64).to_le_bytes().to_vec();
        for d in shape {
            b.extend_from_slice(&d.to_le_bytes());
        }
        b
    }

    #[test]
    fn from_bytes_rejects_an_element_count_that_overflows() {
        // 2^62 * 4 = 2^64 elements over an empty payload.
        let b = header(&[1 << 62, 4]);
        assert_eq!(b.len(), 24);
        assert!(matches!(
            Tensor::from_bytes(&b),
            Err(FrameError::CorruptData { .. })
        ));
    }

    #[test]
    fn from_bytes_rejects_a_byte_length_that_overflows() {
        // 2^62 elements fit in usize; their 2^64 bytes do not.
        assert!(matches!(
            Tensor::from_bytes(&header(&[1 << 31, 1 << 31])),
            Err(FrameError::CorruptData { .. })
        ));
    }

    #[test]
    fn from_vec_and_zeros_reject_a_shape_that_overflows() {
        assert!(matches!(
            Tensor::from_vec(vec![1 << 62, 4], vec![]),
            Err(FrameError::InvalidDimension { .. })
        ));
        assert!(matches!(
            Tensor::zeros(vec![1 << 31, 1 << 31]),
            Err(FrameError::InvalidDimension { .. })
        ));
    }

    #[test]
    fn from_vec_validates() {
        assert!(Tensor::from_vec(vec![2, 3], vec![0.0; 6]).is_ok());
        assert!(Tensor::from_vec(vec![2, 3], vec![0.0; 5]).is_err());
        assert!(Tensor::from_vec(vec![2, 0], vec![]).is_err());
    }

    #[test]
    fn bytes_roundtrip() {
        let t = Tensor::from_vec(vec![2, 2], vec![1.0, -2.5, 0.0, 42.0]).unwrap();
        assert_eq!(Tensor::from_bytes(&t.to_bytes()).unwrap(), t);
    }

    #[test]
    fn bytes_truncation_rejected() {
        let t = Tensor::zeros(vec![3, 3]).unwrap();
        let b = t.to_bytes();
        assert!(Tensor::from_bytes(&b[..b.len() - 1]).is_err());
        assert!(Tensor::from_bytes(&b[..4]).is_err());
    }

    #[test]
    fn clip_to_tensor_shape_and_values() {
        let mut f0 = Frame::zeroed(2, 2, PixelFormat::Gray8).unwrap();
        f0.set_pixel(0, 0, &[255]).unwrap();
        let f1 = Frame::zeroed(2, 2, PixelFormat::Gray8).unwrap();
        let t = clip_to_tensor(&[f0, f1], &[0.0], &[1.0]).unwrap();
        assert_eq!(t.shape(), &[1, 2, 2, 2]);
        assert!((t.as_slice()[0] - 1.0).abs() < 1e-6);
        assert_eq!(t.as_slice()[1], 0.0);
    }

    #[test]
    fn clip_to_tensor_normalization() {
        let mut f = Frame::zeroed(1, 1, PixelFormat::Rgb8).unwrap();
        f.set_pixel(0, 0, &[255, 128, 0]).unwrap();
        let t = clip_to_tensor(&[f], &[0.5, 0.5, 0.5], &[0.25, 0.25, 0.25]).unwrap();
        assert!((t.as_slice()[0] - 2.0).abs() < 1e-5);
        assert!(t.as_slice()[1].abs() < 0.01);
        assert!((t.as_slice()[2] + 2.0).abs() < 1e-5);
    }

    #[test]
    fn clip_rejects_mixed_shapes() {
        let a = Frame::zeroed(2, 2, PixelFormat::Gray8).unwrap();
        let b = Frame::zeroed(3, 2, PixelFormat::Gray8).unwrap();
        assert!(clip_to_tensor(&[a, b], &[0.0], &[1.0]).is_err());
    }

    #[test]
    fn clip_rejects_zero_std() {
        let a = Frame::zeroed(2, 2, PixelFormat::Gray8).unwrap();
        assert!(clip_to_tensor(&[a], &[0.0], &[0.0]).is_err());
    }

    #[test]
    fn stack_builds_batch_axis() {
        let a = Tensor::zeros(vec![2, 3]).unwrap();
        let b = Tensor::zeros(vec![2, 3]).unwrap();
        let s = stack(&[a, b]).unwrap();
        assert_eq!(s.shape(), &[2, 2, 3]);
    }

    #[test]
    fn stack_rejects_mismatched_and_empty() {
        let a = Tensor::zeros(vec![2, 3]).unwrap();
        let b = Tensor::zeros(vec![3, 2]).unwrap();
        assert!(stack(&[a, b]).is_err());
        assert!(stack(&[]).is_err());
    }

    #[test]
    fn mean_of_known_values() {
        let t = Tensor::from_vec(vec![4], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!((t.mean() - 2.5).abs() < 1e-6);
    }
}
