//! The `.svid` container format.
//!
//! Layout (all integers LEB128 varints unless noted):
//!
//! ```text
//! magic "SVID" (4 bytes)
//! version (1 byte)
//! video_id, class_id, width, height, fps_milli, gop_size, format tag (1 byte)
//! frame_count
//! frame_count x { kind (1 byte), payload_len }      <- the frame index
//! concatenated frame payloads
//! ```
//!
//! The frame index lets a decoder locate the keyframe preceding any target
//! frame and skip directly to its payload, mirroring the seek tables of
//! real containers.

use crate::{CodecError, Result};
use sand_frame::wire::{get_varint, put_varint};
use sand_frame::{PixelFormat, MAX_FRAME_BYTES};

/// Magic bytes identifying a SAND video ("SVID").
pub const MAGIC: [u8; 4] = *b"SVID";

/// Container format version understood by this build.
pub const VERSION: u8 = 1;

/// How a coded frame is predicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameKind {
    /// Intra-coded keyframe: decodable on its own.
    Intra,
    /// Predicted frame: requires the previous reconstructed *anchor*
    /// (the I- or P-frame before it in display order).
    Predicted,
    /// Bidirectionally predicted frame: requires both the surrounding
    /// anchors. B-frames are never used as references themselves.
    Bidirectional,
}

impl FrameKind {
    /// Stable numeric tag for the container.
    #[must_use]
    pub const fn tag(self) -> u8 {
        match self {
            FrameKind::Intra => 0,
            FrameKind::Predicted => 1,
            FrameKind::Bidirectional => 2,
        }
    }

    /// Inverse of [`FrameKind::tag`].
    pub fn from_tag(tag: u8) -> Result<Self> {
        match tag {
            0 => Ok(FrameKind::Intra),
            1 => Ok(FrameKind::Predicted),
            2 => Ok(FrameKind::Bidirectional),
            _ => Err(CodecError::Corrupt {
                what: "unknown frame kind",
            }),
        }
    }

    /// True for frames other frames may reference (I and P).
    #[must_use]
    pub const fn is_anchor(self) -> bool {
        matches!(self, FrameKind::Intra | FrameKind::Predicted)
    }
}

/// One coded frame: kind plus entropy-packed payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedFrame {
    /// Keyframe or predicted.
    pub kind: FrameKind,
    /// Entropy-coded payload bytes.
    pub payload: Vec<u8>,
}

/// Stream-level metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContainerHeader {
    /// Identifier of this video within its dataset.
    pub video_id: u64,
    /// Ground-truth class label (used by the synthetic datasets).
    pub class_id: u32,
    /// Frame width in pixels.
    pub width: usize,
    /// Frame height in pixels.
    pub height: usize,
    /// Frames per second, in millihertz (e.g. 30000 = 30 fps).
    pub fps_milli: u32,
    /// Group-of-pictures size used at encode time.
    pub gop_size: usize,
    /// Pixel format of the decoded frames.
    pub format: PixelFormat,
    /// Quantizer step used at encode time.
    pub quantizer: u8,
}

impl ContainerHeader {
    /// Presentation timestamp of frame `index`, in microseconds.
    #[must_use]
    pub fn timestamp_us(&self, index: usize) -> u64 {
        if self.fps_milli == 0 {
            return 0;
        }
        (index as u64) * 1_000_000_000 / u64::from(self.fps_milli)
    }
}

/// A fully encoded video: header plus indexed frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedVideo {
    /// Stream metadata.
    pub header: ContainerHeader,
    /// Coded frames in display order.
    pub frames: Vec<EncodedFrame>,
}

impl EncodedVideo {
    /// Number of frames in the video.
    #[must_use]
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// Total size of the encoded representation in bytes.
    #[must_use]
    pub fn encoded_size(&self) -> u64 {
        let payload: usize = self.frames.iter().map(|f| f.payload.len()).sum();
        (payload + 64 + self.frames.len() * 3) as u64
    }

    /// Index of the keyframe at or before `index`.
    ///
    /// This is where any decode targeting `index` must start.
    pub fn keyframe_before(&self, index: usize) -> Result<usize> {
        if index >= self.frames.len() {
            return Err(CodecError::FrameOutOfRange {
                index,
                len: self.frames.len(),
            });
        }
        let mut k = index;
        loop {
            if self.frames[k].kind == FrameKind::Intra {
                return Ok(k);
            }
            if k == 0 {
                // Malformed stream: no leading keyframe.
                return Err(CodecError::Corrupt {
                    what: "stream does not start with a keyframe",
                });
            }
            k -= 1;
        }
    }

    /// Index of the anchor (I or P) at or before `index`.
    pub fn anchor_before(&self, index: usize) -> Result<usize> {
        if index >= self.frames.len() {
            return Err(CodecError::FrameOutOfRange {
                index,
                len: self.frames.len(),
            });
        }
        let mut k = index;
        loop {
            if self.frames[k].kind.is_anchor() {
                return Ok(k);
            }
            if k == 0 {
                return Err(CodecError::Corrupt {
                    what: "stream does not start with an anchor",
                });
            }
            k -= 1;
        }
    }

    /// Index of the anchor strictly after `index`, if any.
    ///
    /// Required to decode a B-frame at `index`; `None` for a trailing
    /// B-run (which a well-formed encoder never emits).
    pub fn anchor_after(&self, index: usize) -> Result<Option<usize>> {
        if index >= self.frames.len() {
            return Err(CodecError::FrameOutOfRange {
                index,
                len: self.frames.len(),
            });
        }
        Ok(self.frames[index + 1..]
            .iter()
            .position(|f| f.kind.is_anchor())
            .map(|off| index + 1 + off))
    }

    /// Serializes the video to container bytes.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_size() as usize);
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        let h = &self.header;
        put_varint(&mut out, h.video_id);
        put_varint(&mut out, u64::from(h.class_id));
        put_varint(&mut out, h.width as u64);
        put_varint(&mut out, h.height as u64);
        put_varint(&mut out, u64::from(h.fps_milli));
        put_varint(&mut out, h.gop_size as u64);
        out.push(h.format.tag());
        out.push(h.quantizer);
        put_varint(&mut out, self.frames.len() as u64);
        for f in &self.frames {
            out.push(f.kind.tag());
            put_varint(&mut out, f.payload.len() as u64);
        }
        for f in &self.frames {
            out.extend_from_slice(&f.payload);
        }
        out
    }

    /// Parses container bytes back into an [`EncodedVideo`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        if bytes.len() < 5 || bytes[..4] != MAGIC {
            return Err(CodecError::Corrupt {
                what: "bad container magic",
            });
        }
        if bytes[4] != VERSION {
            return Err(CodecError::Corrupt {
                what: "unsupported container version",
            });
        }
        let mut pos = 5;
        let gv = |pos: &mut usize| -> Result<u64> {
            get_varint(bytes, pos).map_err(|_| CodecError::Corrupt {
                what: "truncated header",
            })
        };
        let video_id = gv(&mut pos)?;
        let class_id = gv(&mut pos)? as u32;
        let width = gv(&mut pos)? as usize;
        let height = gv(&mut pos)? as usize;
        let fps_milli = gv(&mut pos)? as u32;
        let gop_size = gv(&mut pos)? as usize;
        let format = PixelFormat::from_tag(*bytes.get(pos).ok_or(CodecError::Corrupt {
            what: "truncated format",
        })?)
        .map_err(|_| CodecError::Corrupt {
            what: "bad pixel format",
        })?;
        pos += 1;
        // Every decoder buffer is `width * height * channels` bytes.
        if width
            .checked_mul(height)
            .and_then(|px| px.checked_mul(format.channels()))
            .is_none_or(|bytes| bytes == 0 || bytes > MAX_FRAME_BYTES)
        {
            return Err(CodecError::Corrupt {
                what: "implausible frame dimensions",
            });
        }
        let quantizer = *bytes.get(pos).ok_or(CodecError::Corrupt {
            what: "truncated quantizer",
        })?;
        pos += 1;
        let count = gv(&mut pos)? as usize;
        if count > 1 << 24 {
            return Err(CodecError::Corrupt {
                what: "implausible frame count",
            });
        }
        let mut kinds = Vec::with_capacity(count);
        let mut lens = Vec::with_capacity(count);
        for _ in 0..count {
            let kind = FrameKind::from_tag(*bytes.get(pos).ok_or(CodecError::Corrupt {
                what: "truncated frame index",
            })?)?;
            pos += 1;
            let len = gv(&mut pos)? as usize;
            kinds.push(kind);
            lens.push(len);
        }
        let mut frames = Vec::with_capacity(count);
        for i in 0..count {
            let end = pos.checked_add(lens[i]).ok_or(CodecError::Corrupt {
                what: "payload length overflow",
            })?;
            if end > bytes.len() {
                return Err(CodecError::Corrupt {
                    what: "truncated frame payload",
                });
            }
            frames.push(EncodedFrame {
                kind: kinds[i],
                payload: bytes[pos..end].to_vec(),
            });
            pos = end;
        }
        Ok(EncodedVideo {
            header: ContainerHeader {
                video_id,
                class_id,
                width,
                height,
                fps_milli,
                gop_size,
                format,
                quantizer,
            },
            frames,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EncodedVideo {
        EncodedVideo {
            header: ContainerHeader {
                video_id: 12,
                class_id: 3,
                width: 64,
                height: 48,
                fps_milli: 30_000,
                gop_size: 8,
                format: PixelFormat::Rgb8,
                quantizer: 4,
            },
            frames: vec![
                EncodedFrame {
                    kind: FrameKind::Intra,
                    payload: vec![1, 2, 3],
                },
                EncodedFrame {
                    kind: FrameKind::Predicted,
                    payload: vec![4, 5],
                },
                EncodedFrame {
                    kind: FrameKind::Predicted,
                    payload: vec![],
                },
                EncodedFrame {
                    kind: FrameKind::Intra,
                    payload: vec![6],
                },
            ],
        }
    }

    #[test]
    fn bytes_roundtrip() {
        let v = sample();
        let parsed = EncodedVideo::from_bytes(&v.to_bytes()).unwrap();
        assert_eq!(parsed, v);
    }

    #[test]
    fn keyframe_before_walks_back() {
        let v = sample();
        assert_eq!(v.keyframe_before(0).unwrap(), 0);
        assert_eq!(v.keyframe_before(2).unwrap(), 0);
        assert_eq!(v.keyframe_before(3).unwrap(), 3);
        assert!(v.keyframe_before(4).is_err());
    }

    #[test]
    fn missing_leading_keyframe_detected() {
        let mut v = sample();
        v.frames[0].kind = FrameKind::Predicted;
        assert!(matches!(
            v.keyframe_before(1),
            Err(CodecError::Corrupt { .. })
        ));
    }

    #[test]
    fn truncation_rejected() {
        let b = sample().to_bytes();
        for cut in [0, 3, 5, 10, b.len() - 1] {
            assert!(EncodedVideo::from_bytes(&b[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let mut b = sample().to_bytes();
        b[0] = b'Z';
        assert!(EncodedVideo::from_bytes(&b).is_err());
        let mut b2 = sample().to_bytes();
        b2[4] = 99;
        assert!(EncodedVideo::from_bytes(&b2).is_err());
    }

    #[test]
    fn timestamps_follow_fps() {
        let h = sample().header;
        assert_eq!(h.timestamp_us(0), 0);
        assert_eq!(h.timestamp_us(30), 1_000_000);
    }

    /// A header may declare up to `MAX_FRAME_BYTES` per frame, not one
    /// row more; the check counts channels.
    #[test]
    fn frame_size_bound_is_inclusive() {
        let parses = |width: usize, height: usize, format: PixelFormat| {
            let mut v = sample();
            v.header.width = width;
            v.header.height = height;
            v.header.format = format;
            EncodedVideo::from_bytes(&v.to_bytes()).is_ok()
        };
        let side = 1 << 14;
        assert_eq!(side * side, MAX_FRAME_BYTES);
        assert!(parses(side, side, PixelFormat::Gray8));
        assert!(!parses(side, side + 1, PixelFormat::Gray8));
        assert!(!parses(side, side, PixelFormat::Rgb8));
    }

    #[test]
    fn zero_fps_timestamp_is_zero() {
        let mut h = sample().header;
        h.fps_milli = 0;
        assert_eq!(h.timestamp_us(10), 0);
    }
}
