//! The [`Frame`] buffer type and its metadata.

use crate::{FrameError, Result};

/// Pixel layout of a [`Frame`] buffer.
///
/// Buffers are always interleaved row-major `u8`, so the format only decides
/// the channel count and the semantic interpretation of each channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PixelFormat {
    /// Single-channel luminance.
    Gray8,
    /// Three-channel red/green/blue.
    Rgb8,
}

impl PixelFormat {
    /// Number of interleaved channels per pixel.
    #[must_use]
    pub const fn channels(self) -> usize {
        match self {
            PixelFormat::Gray8 => 1,
            PixelFormat::Rgb8 => 3,
        }
    }

    /// Stable numeric tag used by the on-disk frame format.
    #[must_use]
    pub const fn tag(self) -> u8 {
        match self {
            PixelFormat::Gray8 => 1,
            PixelFormat::Rgb8 => 3,
        }
    }

    /// Inverse of [`PixelFormat::tag`].
    pub fn from_tag(tag: u8) -> Result<Self> {
        match tag {
            1 => Ok(PixelFormat::Gray8),
            3 => Ok(PixelFormat::Rgb8),
            _ => Err(FrameError::CorruptData {
                what: "unknown pixel format tag",
            }),
        }
    }
}

/// Provenance metadata attached to a frame.
///
/// SAND exposes this through `getxattr()` on frame views, so downstream
/// training code can recover timestamps and lineage without re-touching the
/// codec layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FrameMeta {
    /// Index of this frame within its source video (0-based display order).
    pub index: u64,
    /// Presentation timestamp in microseconds.
    pub timestamp_us: u64,
    /// Identifier of the source video within its dataset.
    pub video_id: u64,
    /// How many augmentation ops have been applied since decode.
    pub aug_depth: u32,
}

/// Largest `width × height × channels` a serialized frame or video header
/// may declare: 256 MiB, over twice an 8K RGB frame. The header parsers
/// (`decompress_frame` here, `EncodedVideo::from_bytes` in the codec)
/// reject more, so a few header bytes cannot make a decoder allocate an
/// arbitrary buffer.
pub const MAX_FRAME_BYTES: usize = 1 << 28;

/// An owned, contiguous, interleaved row-major `u8` image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    width: usize,
    height: usize,
    format: PixelFormat,
    /// Provenance metadata; mutated as ops are applied.
    pub meta: FrameMeta,
    data: Vec<u8>,
}

impl Frame {
    /// Creates a frame from an existing buffer.
    ///
    /// Returns [`FrameError::ShapeMismatch`] if `data.len()` is not
    /// `width * height * format.channels()`, and
    /// [`FrameError::InvalidDimension`] for zero-sized dimensions.
    pub fn from_vec(
        width: usize,
        height: usize,
        format: PixelFormat,
        data: Vec<u8>,
    ) -> Result<Self> {
        if width == 0 || height == 0 {
            return Err(FrameError::InvalidDimension {
                what: "width and height must be nonzero",
            });
        }
        let expected = width * height * format.channels();
        if data.len() != expected {
            return Err(FrameError::ShapeMismatch {
                expected,
                actual: data.len(),
            });
        }
        Ok(Frame {
            width,
            height,
            format,
            meta: FrameMeta::default(),
            data,
        })
    }

    /// Creates a zero-filled (black) frame.
    pub fn zeroed(width: usize, height: usize, format: PixelFormat) -> Result<Self> {
        if width == 0 || height == 0 {
            return Err(FrameError::InvalidDimension {
                what: "width and height must be nonzero",
            });
        }
        let data = vec![0u8; width * height * format.channels()];
        Frame::from_vec(width, height, format, data)
    }

    /// Frame width in pixels.
    #[must_use]
    pub const fn width(&self) -> usize {
        self.width
    }

    /// Frame height in pixels.
    #[must_use]
    pub const fn height(&self) -> usize {
        self.height
    }

    /// Pixel format.
    #[must_use]
    pub const fn format(&self) -> PixelFormat {
        self.format
    }

    /// Number of channels per pixel.
    #[must_use]
    pub const fn channels(&self) -> usize {
        self.format.channels()
    }

    /// Row stride in bytes.
    #[must_use]
    pub const fn stride(&self) -> usize {
        self.width * self.format.channels()
    }

    /// Total byte length of the pixel buffer.
    #[must_use]
    pub fn byte_len(&self) -> usize {
        self.data.len()
    }

    /// Read-only view of the pixel buffer.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Mutable view of the pixel buffer.
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Returns the channel values of the pixel at `(x, y)`.
    pub fn pixel(&self, x: usize, y: usize) -> Result<&[u8]> {
        if x >= self.width || y >= self.height {
            return Err(FrameError::OutOfBounds {
                what: "pixel coordinate",
            });
        }
        let c = self.channels();
        let off = (y * self.width + x) * c;
        Ok(&self.data[off..off + c])
    }

    /// Sets the channel values of the pixel at `(x, y)`.
    pub fn set_pixel(&mut self, x: usize, y: usize, value: &[u8]) -> Result<()> {
        if x >= self.width || y >= self.height {
            return Err(FrameError::OutOfBounds {
                what: "pixel coordinate",
            });
        }
        let c = self.channels();
        if value.len() != c {
            return Err(FrameError::ShapeMismatch {
                expected: c,
                actual: value.len(),
            });
        }
        let off = (y * self.width + x) * c;
        self.data[off..off + c].copy_from_slice(value);
        Ok(())
    }

    /// Returns one row of pixels as a byte slice.
    pub fn row(&self, y: usize) -> Result<&[u8]> {
        if y >= self.height {
            return Err(FrameError::OutOfBounds { what: "row index" });
        }
        let s = self.stride();
        Ok(&self.data[y * s..(y + 1) * s])
    }

    /// True when both frames have identical width, height, and format.
    #[must_use]
    pub fn same_shape(&self, other: &Frame) -> bool {
        self.width == other.width && self.height == other.height && self.format == other.format
    }

    /// Mean absolute per-byte difference against another frame.
    ///
    /// Used by codec round-trip tests to bound quantization error.
    pub fn mean_abs_diff(&self, other: &Frame) -> Result<f64> {
        if !self.same_shape(other) {
            return Err(FrameError::IncompatibleFrames {
                what: "mean_abs_diff shape",
            });
        }
        let sum: u64 = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| u64::from(a.abs_diff(*b)))
            .sum();
        Ok(sum as f64 / self.data.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_shape() {
        let err = Frame::from_vec(2, 2, PixelFormat::Rgb8, vec![0; 11]).unwrap_err();
        assert_eq!(
            err,
            FrameError::ShapeMismatch {
                expected: 12,
                actual: 11
            }
        );
        assert!(Frame::from_vec(2, 2, PixelFormat::Rgb8, vec![0; 12]).is_ok());
    }

    #[test]
    fn zero_dimensions_rejected() {
        assert!(matches!(
            Frame::zeroed(0, 4, PixelFormat::Gray8),
            Err(FrameError::InvalidDimension { .. })
        ));
        assert!(matches!(
            Frame::from_vec(4, 0, PixelFormat::Gray8, vec![]),
            Err(FrameError::InvalidDimension { .. })
        ));
    }

    #[test]
    fn pixel_roundtrip() {
        let mut f = Frame::zeroed(3, 2, PixelFormat::Rgb8).unwrap();
        f.set_pixel(2, 1, &[9, 8, 7]).unwrap();
        assert_eq!(f.pixel(2, 1).unwrap(), &[9, 8, 7]);
        assert_eq!(f.pixel(0, 0).unwrap(), &[0, 0, 0]);
    }

    #[test]
    fn pixel_out_of_bounds() {
        let f = Frame::zeroed(3, 2, PixelFormat::Gray8).unwrap();
        assert!(f.pixel(3, 0).is_err());
        assert!(f.pixel(0, 2).is_err());
    }

    #[test]
    fn set_pixel_wrong_channel_count() {
        let mut f = Frame::zeroed(3, 2, PixelFormat::Rgb8).unwrap();
        assert!(matches!(
            f.set_pixel(0, 0, &[1]),
            Err(FrameError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn row_access() {
        let mut f = Frame::zeroed(2, 2, PixelFormat::Gray8).unwrap();
        f.set_pixel(0, 1, &[5]).unwrap();
        f.set_pixel(1, 1, &[6]).unwrap();
        assert_eq!(f.row(1).unwrap(), &[5, 6]);
        assert!(f.row(2).is_err());
    }

    #[test]
    fn mean_abs_diff_exact() {
        let a = Frame::from_vec(2, 1, PixelFormat::Gray8, vec![10, 20]).unwrap();
        let b = Frame::from_vec(2, 1, PixelFormat::Gray8, vec![13, 18]).unwrap();
        assert!((a.mean_abs_diff(&b).unwrap() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn mean_abs_diff_rejects_shape_mismatch() {
        let a = Frame::zeroed(2, 1, PixelFormat::Gray8).unwrap();
        let b = Frame::zeroed(1, 2, PixelFormat::Gray8).unwrap();
        assert!(a.mean_abs_diff(&b).is_err());
    }

    #[test]
    fn format_tag_roundtrip() {
        for fmt in [PixelFormat::Gray8, PixelFormat::Rgb8] {
            assert_eq!(PixelFormat::from_tag(fmt.tag()).unwrap(), fmt);
        }
        assert!(PixelFormat::from_tag(0).is_err());
    }
}
