//! Frame buffers, pixel math, augmentation operators, and lossless frame
//! compression for the SAND video deep-learning framework.
//!
//! This crate is the lowest layer of the SAND workspace. It defines:
//!
//! - [`Frame`]: an owned, contiguous, interleaved `u8` image buffer with
//!   shape and provenance metadata,
//! - [`Tensor`]: a planar `f32` buffer in `(C, H, W)` layout used as model
//!   input after normalization,
//! - the [`ops`] module: real (not modelled) augmentation implementations —
//!   resize, crop, flip, color jitter, rotation, invert, normalize — each
//!   reporting a deterministic [`cost::OpCost`] so upper layers can weigh
//!   recompute cost against storage during materialization planning,
//! - the [`compress`] module: a lossless filter+RLE codec used to park
//!   decoded or augmented frames in the storage tier (the paper uses libpng
//!   for the same purpose),
//! - the [`cost`] module: the edge-weight cost model consumed by the
//!   concrete object dependency graph.
//!
//! All APIs are fallible; no function in this crate panics on user input.

#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod compress;
pub mod cost;
pub mod frame;
pub mod ops;
pub mod tensor;
pub mod wire;

pub use compress::{compress_frame, decompress_frame};
pub use cost::OpCost;
pub use frame::{Frame, FrameMeta, PixelFormat, MAX_FRAME_BYTES};
pub use tensor::Tensor;

use std::fmt;

/// Errors produced by frame-level operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer length does not match `width * height * channels`.
    ShapeMismatch {
        /// Expected byte length derived from the dimensions.
        expected: usize,
        /// Actual byte length of the supplied buffer.
        actual: usize,
    },
    /// A requested region falls outside the frame bounds.
    OutOfBounds {
        /// Human-readable description of the violated bound.
        what: &'static str,
    },
    /// A dimension was zero or otherwise invalid.
    InvalidDimension {
        /// Human-readable description of the invalid dimension.
        what: &'static str,
    },
    /// Compressed data was malformed or truncated.
    CorruptData {
        /// Human-readable description of the corruption.
        what: &'static str,
    },
    /// Two frames that must agree in shape do not.
    IncompatibleFrames {
        /// Human-readable description of the mismatch.
        what: &'static str,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::ShapeMismatch { expected, actual } => {
                write!(
                    f,
                    "buffer shape mismatch: expected {expected} bytes, got {actual}"
                )
            }
            FrameError::OutOfBounds { what } => write!(f, "out of bounds: {what}"),
            FrameError::InvalidDimension { what } => write!(f, "invalid dimension: {what}"),
            FrameError::CorruptData { what } => write!(f, "corrupt data: {what}"),
            FrameError::IncompatibleFrames { what } => write!(f, "incompatible frames: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, FrameError>;
