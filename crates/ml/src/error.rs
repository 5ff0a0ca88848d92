//! Typed errors for the ml crate.
//!
//! Hot-path kernels must not panic (amlint rule R8): APIs whose failure
//! is a caller-visible condition — not a programming error — surface it
//! through [`MlError`] instead.

use std::error::Error;
use std::fmt;

/// Recoverable ml-layer failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MlError {
    /// A ROC curve with no operating points was queried.
    EmptyCurve,
}

impl fmt::Display for MlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlError::EmptyCurve => write!(f, "ROC curve has no operating points"),
        }
    }
}

impl Error for MlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_human_readable() {
        assert_eq!(
            MlError::EmptyCurve.to_string(),
            "ROC curve has no operating points"
        );
    }
}
