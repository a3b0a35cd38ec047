//! Pipeline configuration for SAND.
//!
//! The paper (Fig. 9) configures the entire preprocessing pipeline in a
//! single YAML file with two sections: *video handling* (dataset path,
//! input source, sampling policy) and *augmentation* (a small dataflow
//! graph of augmentation steps built from five branch types: `single`,
//! `conditional`, `random`, `multi`, and `merge`).
//!
//! This crate provides:
//!
//! - [`yaml`]: a dependency-free parser for the YAML subset those configs
//!   use (indentation-based maps and lists, scalars with type inference,
//!   inline `[a, b]` lists, comments),
//! - [`types`]: the typed configuration model ([`TaskConfig`] and friends),
//! - [`parse`]: conversion from parsed YAML to the typed model, with full
//!   validation (branch graph connectivity, probability sums, condition
//!   syntax),
//! - [`condition`]: the tiny `iteration > 10000` expression language used
//!   by conditional branches.

#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod condition;
pub mod parse;
pub mod types;
pub mod yaml;

pub use condition::Condition;
pub use parse::parse_task_config;
pub use types::{AugOp, Branch, BranchArm, BranchType, InputSource, SamplingConfig, TaskConfig};
pub use yaml::Value;

use std::fmt;

/// Errors produced while parsing or validating configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The YAML text was syntactically malformed.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// Human-readable description.
        what: String,
    },
    /// A required field was missing.
    MissingField {
        /// Dotted path of the missing field.
        field: String,
    },
    /// A field had the wrong type or an invalid value.
    InvalidField {
        /// Dotted path of the offending field.
        field: String,
        /// Human-readable description.
        what: String,
    },
    /// The augmentation branch graph is inconsistent.
    InvalidGraph {
        /// Human-readable description.
        what: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Syntax { line, what } => write!(f, "syntax error at line {line}: {what}"),
            ConfigError::MissingField { field } => write!(f, "missing field `{field}`"),
            ConfigError::InvalidField { field, what } => {
                write!(f, "invalid field `{field}`: {what}")
            }
            ConfigError::InvalidGraph { what } => write!(f, "invalid augmentation graph: {what}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, ConfigError>;
