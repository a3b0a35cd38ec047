//! Lossless frame compression for the storage tier.
//!
//! SAND caches decoded and augmented frames (`u8` buffers) on disk; the
//! paper uses libpng for this. Here we implement an equivalent two-stage
//! scheme from scratch:
//!
//! 1. **Up filter** — each row is predicted from the row above (the first
//!    row from zero), storing residuals. Natural video rows are highly
//!    correlated vertically, so residuals cluster near zero.
//! 2. **Run-length + literal packing** — residual bytes are packed as
//!    `(run, byte)` pairs for repeats and literal blocks otherwise, with
//!    varint block headers.
//!
//! The format is self-describing: a header carries magic, dimensions,
//! pixel format, and metadata, so a frame can be recovered from bytes alone
//! (which the crash-recovery scan in `sand-core` relies on).

use crate::frame::{Frame, FrameMeta, PixelFormat, MAX_FRAME_BYTES};
use crate::wire::{get_varint, put_varint, rle_pack, rle_unpack};
use crate::{FrameError, Result};

/// Magic bytes identifying a SAND compressed frame ("SFRM").
pub const MAGIC: [u8; 4] = *b"SFRM";

/// Applies the up filter, producing vertical residuals.
fn up_filter(frame: &Frame) -> Vec<u8> {
    let stride = frame.stride();
    let src = frame.as_bytes();
    let mut out = Vec::with_capacity(src.len());
    out.extend_from_slice(&src[..stride]);
    for y in 1..frame.height() {
        let prev = &src[(y - 1) * stride..y * stride];
        let cur = &src[y * stride..(y + 1) * stride];
        out.extend(cur.iter().zip(prev.iter()).map(|(c, p)| c.wrapping_sub(*p)));
    }
    out
}

/// Inverts the up filter in place over a residual buffer.
fn up_unfilter(buf: &mut [u8], stride: usize) {
    let rows = buf.len() / stride;
    for y in 1..rows {
        for x in 0..stride {
            let prev = buf[(y - 1) * stride + x];
            buf[y * stride + x] = buf[y * stride + x].wrapping_add(prev);
        }
    }
}

/// Mode flag: pixels stored raw (filter/RLE would not pay off).
const MODE_RAW: u8 = 0;
/// Mode flag: pixels stored as up-filtered, RLE-packed residuals.
const MODE_RLE: u8 = 1;

/// Cheaply estimates whether filter+RLE will pay off, by sampling the
/// zero-run density of the vertical residuals over a few rows.
fn worth_compressing(frame: &Frame) -> bool {
    let stride = frame.stride();
    let src = frame.as_bytes();
    let rows = frame.height();
    if rows < 2 {
        return false;
    }
    // Sample up to 8 rows spread over the frame.
    let step = (rows / 8).max(1);
    let mut zeros = 0usize;
    let mut total = 0usize;
    let mut y = 1;
    while y < rows {
        let prev = &src[(y - 1) * stride..y * stride];
        let cur = &src[y * stride..(y + 1) * stride];
        zeros += cur.iter().zip(prev.iter()).filter(|(c, p)| c == p).count();
        total += stride;
        y += step;
    }
    // RLE needs runs; with fewer than ~35% zero residuals the packed
    // stream ends up nearly as large as raw while costing real CPU.
    zeros * 100 >= total * 35
}

/// Compresses a frame into a self-describing byte buffer.
///
/// Content that will not benefit from entropy packing (e.g. grainy
/// frames) is stored raw behind the same header, so the call is cheap in
/// the worst case. The result always round-trips exactly through
/// [`decompress_frame`].
///
/// # Examples
///
/// ```
/// use sand_frame::{compress_frame, decompress_frame, Frame, PixelFormat};
///
/// let frame = Frame::zeroed(16, 16, PixelFormat::Rgb8).unwrap();
/// let bytes = compress_frame(&frame);
/// assert_eq!(decompress_frame(&bytes).unwrap(), frame);
/// ```
#[must_use]
pub fn compress_frame(frame: &Frame) -> Vec<u8> {
    // A raw payload is borrowed from the frame, so either payload is
    // written into `out` exactly once.
    let packed = worth_compressing(frame).then(|| rle_pack(&up_filter(frame)));
    let (mode, payload) = match &packed {
        Some(packed) => (MODE_RLE, packed.as_slice()),
        None => (MODE_RAW, frame.as_bytes()),
    };
    let mut out = Vec::with_capacity(payload.len() + 48);
    out.extend_from_slice(&MAGIC);
    put_varint(&mut out, frame.width() as u64);
    put_varint(&mut out, frame.height() as u64);
    out.push(frame.format().tag());
    put_varint(&mut out, frame.meta.index);
    put_varint(&mut out, frame.meta.timestamp_us);
    put_varint(&mut out, frame.meta.video_id);
    put_varint(&mut out, u64::from(frame.meta.aug_depth));
    out.push(mode);
    put_varint(&mut out, payload.len() as u64);
    out.extend_from_slice(payload);
    out
}

/// Decompresses a buffer produced by [`compress_frame`].
///
/// A header declaring more than [`MAX_FRAME_BYTES`] is `CorruptData`
/// before anything is allocated.
pub fn decompress_frame(bytes: &[u8]) -> Result<Frame> {
    if bytes.len() < 4 || bytes[..4] != MAGIC {
        return Err(FrameError::CorruptData {
            what: "bad frame magic",
        });
    }
    let mut pos = 4;
    let width = get_varint(bytes, &mut pos)? as usize;
    let height = get_varint(bytes, &mut pos)? as usize;
    let tag = *bytes.get(pos).ok_or(FrameError::CorruptData {
        what: "truncated format tag",
    })?;
    pos += 1;
    let format = PixelFormat::from_tag(tag)?;
    let meta = FrameMeta {
        index: get_varint(bytes, &mut pos)?,
        timestamp_us: get_varint(bytes, &mut pos)?,
        video_id: get_varint(bytes, &mut pos)?,
        aug_depth: get_varint(bytes, &mut pos)? as u32,
    };
    let mode = *bytes.get(pos).ok_or(FrameError::CorruptData {
        what: "truncated mode flag",
    })?;
    pos += 1;
    let packed_len = get_varint(bytes, &mut pos)? as usize;
    let end = pos.checked_add(packed_len).ok_or(FrameError::CorruptData {
        what: "packed length overflow",
    })?;
    if end > bytes.len() {
        return Err(FrameError::CorruptData {
            what: "truncated packed data",
        });
    }
    let expected = width
        .checked_mul(height)
        .and_then(|p| p.checked_mul(format.channels()))
        .filter(|&n| n <= MAX_FRAME_BYTES)
        .ok_or(FrameError::CorruptData {
            what: "implausible frame dimensions",
        })?;
    let pixels = match mode {
        MODE_RAW => {
            if packed_len != expected {
                return Err(FrameError::CorruptData {
                    what: "raw length mismatch",
                });
            }
            bytes[pos..end].to_vec()
        }
        MODE_RLE => {
            let mut residuals = rle_unpack(&bytes[pos..end], expected)?;
            let stride = width * format.channels();
            if stride == 0 {
                return Err(FrameError::CorruptData {
                    what: "zero stride",
                });
            }
            up_unfilter(&mut residuals, stride);
            residuals
        }
        _ => {
            return Err(FrameError::CorruptData {
                what: "unknown storage mode",
            })
        }
    };
    let mut frame = Frame::from_vec(width, height, format, pixels)?;
    frame.meta = meta;
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{Frame, FrameMeta, PixelFormat};

    fn patterned(w: usize, h: usize) -> Frame {
        let mut f = Frame::zeroed(w, h, PixelFormat::Rgb8).unwrap();
        for y in 0..h {
            for x in 0..w {
                let v = [
                    ((x * 7 + y * 3) % 251) as u8,
                    ((x * 13) % 251) as u8,
                    ((y * 11) % 251) as u8,
                ];
                f.set_pixel(x, y, &v).unwrap();
            }
        }
        f
    }

    #[test]
    fn roundtrip_patterned() {
        let f = patterned(33, 17);
        let c = compress_frame(&f);
        assert_eq!(decompress_frame(&c).unwrap(), f);
    }

    #[test]
    fn roundtrip_preserves_meta() {
        let mut f = patterned(8, 8);
        f.meta = FrameMeta {
            index: 42,
            timestamp_us: 1_000_000,
            video_id: 7,
            aug_depth: 3,
        };
        let back = decompress_frame(&compress_frame(&f)).unwrap();
        assert_eq!(back.meta, f.meta);
    }

    #[test]
    fn flat_frames_compress_well() {
        let f = Frame::zeroed(128, 128, PixelFormat::Rgb8).unwrap();
        let c = compress_frame(&f);
        assert!(
            c.len() < f.byte_len() / 20,
            "flat frame should compress >20x, got {}",
            c.len()
        );
    }

    #[test]
    fn vertically_correlated_frames_compress() {
        // Every row identical: up filter zeroes all but the first row.
        let mut f = Frame::zeroed(64, 64, PixelFormat::Gray8).unwrap();
        for y in 0..64 {
            for x in 0..64 {
                f.set_pixel(x, y, &[(x % 256) as u8]).unwrap();
            }
        }
        let c = compress_frame(&f);
        assert!(c.len() < f.byte_len() / 4);
    }

    #[test]
    fn corrupt_magic_rejected() {
        let f = patterned(4, 4);
        let mut c = compress_frame(&f);
        c[0] = b'X';
        assert!(decompress_frame(&c).is_err());
    }

    #[test]
    fn truncation_rejected() {
        let f = patterned(16, 16);
        let c = compress_frame(&f);
        for cut in [4, 8, c.len() / 2, c.len() - 1] {
            assert!(decompress_frame(&c[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn trailing_garbage_in_packed_stream_detected() {
        let f = Frame::zeroed(4, 4, PixelFormat::Gray8).unwrap();
        let mut c = compress_frame(&f);
        // Extend packed section length illegitimately: flip a residual byte
        // into a huge literal header.
        let n = c.len();
        c[n - 1] ^= 0xff;
        // Either decodes to the same frame (benign) or errors; must not panic.
        let _ = decompress_frame(&c);
    }

    /// A stored frame with a `width × height` Gray8 header over an RLE
    /// payload.
    fn stored(width: u64, height: u64, packed: &[u8]) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        for v in [width, height] {
            put_varint(&mut bytes, v);
        }
        bytes.push(PixelFormat::Gray8.tag());
        for v in [0, 0, 0, 0] {
            put_varint(&mut bytes, v);
        }
        bytes.push(MODE_RLE);
        put_varint(&mut bytes, packed.len() as u64);
        bytes.extend_from_slice(packed);
        bytes
    }

    /// One RLE block per entry: a run of `len` copies of byte 7.
    fn runs(lens: &[u64]) -> Vec<u8> {
        let mut out = Vec::new();
        for &len in lens {
            put_varint(&mut out, (len << 1) | 1);
            out.push(7);
        }
        out
    }

    /// A header declaring a 2^25 × 2^25 frame is corrupt, over a short
    /// payload and over well-formed runs that really add up to 2^50
    /// bytes. Reserving or expanding to the declared size aborts here
    /// (`memory allocation of 1125899906842624 bytes failed`).
    #[test]
    fn huge_declared_frame_is_corrupt_not_an_abort() {
        let short = rle_pack(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14]);
        for packed in [short, runs(&[1 << 50]), runs(&[1 << 49, 1 << 49])] {
            assert!(matches!(
                decompress_frame(&stored(1 << 25, 1 << 25, &packed)),
                Err(FrameError::CorruptData {
                    what: "implausible frame dimensions"
                })
            ));
        }
    }

    /// `MAX_FRAME_BYTES` itself passes the header check (the short
    /// payload then fails on its own); one row more does not.
    #[test]
    fn frame_size_bound_is_inclusive() {
        let side = 1 << 14;
        assert_eq!((side * side) as usize, MAX_FRAME_BYTES);
        let short = runs(&[3]);
        let at = decompress_frame(&stored(side, side, &short));
        assert!(
            matches!(at, Err(FrameError::CorruptData { what }) if what != "implausible frame dimensions")
        );
        assert!(matches!(
            decompress_frame(&stored(side, side + 1, &short)),
            Err(FrameError::CorruptData {
                what: "implausible frame dimensions"
            })
        ));
    }
}
