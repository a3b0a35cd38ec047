//! Low-level wire primitives shared by SAND's on-disk formats.
//!
//! Both the frame cache format ([`crate::compress`]) and the video container
//! in `sand-codec` are built from the same two primitives: LEB128 varints
//! and a run-length/literal block packer. They live here so every format in
//! the workspace shares one implementation.

use crate::{FrameError, Result};

/// Appends a LEB128 varint to `out`.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint from `data` at `pos`, advancing `pos`.
pub fn get_varint(data: &[u8], pos: &mut usize) -> Result<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *data.get(*pos).ok_or(FrameError::CorruptData {
            what: "truncated varint",
        })?;
        *pos += 1;
        if shift >= 64 {
            return Err(FrameError::CorruptData {
                what: "varint overflow",
            });
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Minimum run length worth encoding as a run block.
const MIN_RUN: usize = 4;

/// RLE-packs `data`: alternating blocks, each headed by a varint whose low
/// bit selects run (1) or literal (0) and whose upper bits carry the length.
#[must_use]
pub fn rle_pack(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    let mut i = 0;
    let mut lit_start = 0;
    while i < data.len() {
        // Measure the run starting at i.
        let b = data[i];
        let mut j = i + 1;
        while j < data.len() && data[j] == b {
            j += 1;
        }
        let run = j - i;
        if run >= MIN_RUN {
            // Flush pending literals, then emit the run.
            if lit_start < i {
                let lit = &data[lit_start..i];
                put_varint(&mut out, (lit.len() as u64) << 1);
                out.extend_from_slice(lit);
            }
            put_varint(&mut out, ((run as u64) << 1) | 1);
            out.push(b);
            i = j;
            lit_start = i;
        } else {
            i = j;
        }
    }
    if lit_start < data.len() {
        let lit = &data[lit_start..];
        put_varint(&mut out, (lit.len() as u64) << 1);
        out.extend_from_slice(lit);
    }
    out
}

/// Inverse of [`rle_pack`]; `expected_len` bounds and checks the output.
///
/// The up-front reservation is capped at 64 output bytes per payload
/// byte, so an `expected_len` the blocks do not reach costs no large
/// allocation. Callers bound `expected_len` itself: the headers they parse
/// reject frames over [`MAX_FRAME_BYTES`](crate::frame::MAX_FRAME_BYTES).
pub fn rle_unpack(data: &[u8], expected_len: usize) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(expected_len.min(data.len().saturating_mul(64)));
    let mut pos = 0;
    while pos < data.len() {
        let head = get_varint(data, &mut pos)?;
        let len = (head >> 1) as usize;
        if out.len() + len > expected_len {
            return Err(FrameError::CorruptData {
                what: "rle block exceeds expected length",
            });
        }
        if head & 1 == 1 {
            let b = *data.get(pos).ok_or(FrameError::CorruptData {
                what: "truncated run byte",
            })?;
            pos += 1;
            out.resize(out.len() + len, b);
        } else {
            let end = pos + len;
            if end > data.len() {
                return Err(FrameError::CorruptData {
                    what: "truncated literal block",
                });
            }
            out.extend_from_slice(&data[pos..end]);
            pos = end;
        }
    }
    if out.len() != expected_len {
        return Err(FrameError::CorruptData {
            what: "rle output length mismatch",
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_edges() {
        for v in [
            0u64,
            1,
            127,
            128,
            16383,
            16384,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_truncation_detected() {
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        let mut pos = 0;
        assert!(get_varint(&buf[..buf.len() - 1], &mut pos).is_err());
    }

    #[test]
    fn varint_overflow_detected() {
        // Eleven continuation bytes exceed 64 bits.
        let buf = vec![0xffu8; 11];
        let mut pos = 0;
        assert!(get_varint(&buf, &mut pos).is_err());
    }

    #[test]
    fn rle_roundtrip_mixed_content() {
        let data: Vec<u8> = [vec![7u8; 10], vec![1, 2, 3], vec![0u8; 100], vec![9, 9, 9]].concat();
        let packed = rle_pack(&data);
        assert_eq!(rle_unpack(&packed, data.len()).unwrap(), data);
        assert!(packed.len() < data.len());
    }

    #[test]
    fn rle_empty_input() {
        assert!(rle_pack(&[]).is_empty());
        assert_eq!(rle_unpack(&[], 0).unwrap(), Vec::<u8>::new());
    }

    /// A stream whose blocks fall short of a declared 2^50 bytes is
    /// corrupt, and reserves at most 64 bytes per payload byte. Reserving
    /// the declared length first aborts here
    /// (`memory allocation of 1125899906842624 bytes failed`).
    #[test]
    fn huge_expected_length_is_corrupt_not_an_abort() {
        let short = rle_pack(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13]);
        assert!(rle_unpack(&short, 1 << 50).is_err());
    }

    #[test]
    fn rle_length_mismatch_detected() {
        let packed = rle_pack(&[1, 2, 3, 4, 5]);
        assert!(rle_unpack(&packed, 4).is_err());
        assert!(rle_unpack(&packed, 6).is_err());
    }
}
