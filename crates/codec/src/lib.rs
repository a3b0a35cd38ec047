//! A complete, self-contained toy video codec with GOP structure.
//!
//! SAND's central systems claim — that sparse random frame selection forces
//! decoding (and discarding) many extra frames every epoch — depends on one
//! codec property: **inter-frame prediction**. Frames are grouped into GOPs
//! (groups of pictures); the first frame of each GOP is an *I-frame* coded
//! independently, and every following frame is a *P-frame* coded as a
//! quantized residual against the previous *reconstructed* frame. Decoding
//! frame `n` therefore requires decoding every frame from the preceding
//! keyframe, which this crate enforces and meters.
//!
//! The pipeline per frame is: closed-loop prediction → uniform residual
//! quantization → up-filter → run-length/varint entropy packing (shared
//! with `sand-frame`'s cache format). The codec is lossy with error bounded
//! by half the quantizer step, which mirrors real video codecs closely
//! enough for every experiment in the paper.
//!
//! The crate also provides:
//!
//! - [`container`]: a self-describing `.svid` byte/file format with a frame
//!   index enabling keyframe-aligned random access,
//! - [`synth`]: a procedural video generator whose motion statistics depend
//!   on a class label (so the tiny model in `sand-train` can learn),
//! - [`dataset`]: generation and loading of whole synthetic datasets.

#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod container;
pub mod dataset;
pub mod decode;
pub mod encode;
pub mod stream;
pub mod synth;

pub use container::{ContainerHeader, EncodedFrame, EncodedVideo, FrameKind};
pub use dataset::{Dataset, DatasetSpec, VideoEntry};
pub use decode::{DecodeStats, Decoder};
pub use encode::{Encoder, EncoderConfig};
pub use stream::{StreamAccumulator, VideoStream};
pub use synth::{SynthSpec, VideoSynthesizer};

use std::fmt;

/// Errors produced by the codec layer.
#[derive(Debug)]
pub enum CodecError {
    /// The container bytes were malformed or truncated.
    Corrupt {
        /// Human-readable description of the corruption.
        what: &'static str,
    },
    /// A frame index was outside the video.
    FrameOutOfRange {
        /// Requested frame index.
        index: usize,
        /// Number of frames in the video.
        len: usize,
    },
    /// Invalid encoder or synthesis parameters.
    InvalidConfig {
        /// Human-readable description of the invalid parameter.
        what: &'static str,
    },
    /// An underlying frame-buffer operation failed.
    Frame(sand_frame::FrameError),
    /// Filesystem I/O failed.
    Io(std::io::Error),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Corrupt { what } => write!(f, "corrupt video data: {what}"),
            CodecError::FrameOutOfRange { index, len } => {
                write!(f, "frame {index} out of range (video has {len} frames)")
            }
            CodecError::InvalidConfig { what } => write!(f, "invalid codec config: {what}"),
            CodecError::Frame(e) => write!(f, "frame error: {e}"),
            CodecError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Frame(e) => Some(e),
            CodecError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<sand_frame::FrameError> for CodecError {
    fn from(e: sand_frame::FrameError) -> Self {
        CodecError::Frame(e)
    }
}

impl From<std::io::Error> for CodecError {
    fn from(e: std::io::Error) -> Self {
        CodecError::Io(e)
    }
}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, CodecError>;
