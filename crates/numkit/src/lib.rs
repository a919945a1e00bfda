//! `numkit` — a small, dependency-light dense numerical kernel.
//!
//! This crate provides the numerical substrate used by the rest of the
//! workspace: a dense row-major [`Matrix`], LU / QR / Cholesky factorizations,
//! linear least squares, 1-D interpolation, basic descriptive statistics and
//! the workspace's one seeded generator ([`rng::SplitMix64`]).
//!
//! It is deliberately minimal: the dense paths serve the small systems
//! (regression problems with a few thousand rows and tens of columns) with
//! straightforward, auditable algorithms, while [`sparse`] carries the one
//! genuinely scale-sensitive workload — circuit MNA matrices, factored by a
//! left-looking Gilbert–Peierls LU with a fill-reducing ordering so that
//! thousands-of-unknowns systems stay O(flops into the factors). The
//! [`structure`] module adds combinatorial pattern analysis (structural rank
//! via maximum bipartite matching) used by the static lint rules.
//!
//! # Example
//!
//! ```
//! use numkit::{Matrix, lu::LuFactor};
//!
//! # fn main() -> Result<(), numkit::Error> {
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let lu = LuFactor::new(&a)?;
//! let x = lu.solve(&[1.0, 2.0])?;
//! assert!((4.0 * x[0] + 1.0 * x[1] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod cholesky;
pub mod interp;
pub mod lstsq;
pub mod lu;
pub mod matrix;
pub mod qr;
pub mod rng;
pub mod sparse;
pub mod stats;
pub mod structure;

pub use matrix::Matrix;

/// Errors produced by `numkit` routines.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Matrix dimensions are inconsistent with the requested operation.
    DimensionMismatch {
        /// Human-readable description of the expected shape.
        expected: String,
        /// Human-readable description of the shape that was provided.
        got: String,
    },
    /// A factorization encountered a (numerically) singular matrix.
    Singular {
        /// Pivot index at which rank deficiency was detected.
        pivot: usize,
    },
    /// The input matrix is not positive definite (Cholesky only).
    NotPositiveDefinite {
        /// Column at which a non-positive diagonal was found.
        column: usize,
    },
    /// An empty input was provided where data is required.
    EmptyInput,
    /// Interpolation abscissas are not strictly increasing.
    NonMonotonicAbscissa {
        /// Index of the first offending sample.
        index: usize,
    },
    /// A non-finite (NaN or infinite) value where finite data is required.
    NonFiniteValue {
        /// Index of the first offending sample.
        index: usize,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            Error::Singular { pivot } => {
                write!(
                    f,
                    "matrix is singular to working precision at pivot {pivot}"
                )
            }
            Error::NotPositiveDefinite { column } => {
                write!(f, "matrix is not positive definite at column {column}")
            }
            Error::EmptyInput => write!(f, "empty input where data is required"),
            Error::NonMonotonicAbscissa { index } => {
                write!(
                    f,
                    "abscissa values must be strictly increasing at index {index}"
                )
            }
            Error::NonFiniteValue { index } => {
                write!(f, "value at index {index} must be finite")
            }
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = Error::Singular { pivot: 3 };
        assert!(e.to_string().contains("singular"));
        let e = Error::DimensionMismatch {
            expected: "3x3".into(),
            got: "2x3".into(),
        };
        assert!(e.to_string().contains("expected 3x3"));
        assert!(Error::EmptyInput.to_string().contains("empty"));
        assert!(Error::NonMonotonicAbscissa { index: 1 }
            .to_string()
            .contains("increasing"));
        assert!(Error::NotPositiveDefinite { column: 0 }
            .to_string()
            .contains("positive definite"));
        assert!(Error::NonFiniteValue { index: 2 }
            .to_string()
            .contains("finite"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
