//! Small dense linear-algebra toolkit for the LKAS reproduction.
//!
//! This crate provides exactly the numerical machinery the rest of the
//! workspace needs, implemented from scratch on `f64`:
//!
//! * [`Mat`] — a dense row-major matrix with the usual arithmetic, plus
//!   the [`sgemm_grouped_nt`] `f32` grouped GEMM kernel backing the
//!   classifier MLPs,
//! * [`lu::Lu`] — LU factorization with partial pivoting (solve / inverse),
//! * [`expm::expm`] — matrix exponential (scaling & squaring + Padé), plus
//!   the block trick used for ZOH discretization with input delay,
//! * [`eig::eigenvalues`] — eigenvalues of small real matrices (Hessenberg
//!   reduction + shifted QR), used for stability checks,
//! * [`riccati::solve_dare`] — discrete algebraic Riccati equation solver,
//!   used for LQR/LQG design,
//! * [`lyapunov::solve_discrete_lyapunov`] — discrete Lyapunov solver used
//!   by the common-quadratic-Lyapunov-function (CQLF) search,
//! * [`polyfit::polyfit`] — least-squares polynomial fitting (Householder
//!   QR), used by the sliding-window lane detector,
//! * [`homography::Homography`] — 3×3 plane projective maps for the
//!   bird's-eye (inverse-perspective) transform.
//!
//! The matrices involved are tiny (n ≤ 12), so the implementations favour
//! clarity and robustness over asymptotic tricks.
//!
//! # Example
//!
//! ```
//! use lkas_linalg::Mat;
//!
//! let a = Mat::from_rows(&[&[0.0, 1.0], &[-2.0, -3.0]]);
//! let eigs = lkas_linalg::eig::eigenvalues(&a).unwrap();
//! // Stable continuous-time system: all real parts negative.
//! assert!(eigs.iter().all(|l| l.re < 0.0));
//! ```

#![forbid(unsafe_code)]

pub mod complex;
pub mod eig;
pub mod expm;
pub mod homography;
pub mod lu;
pub mod lyapunov;
pub mod mat;
pub mod polyfit;
pub mod riccati;

pub use complex::Complex;
pub use homography::Homography;
pub use mat::{sgemm_grouped_nt, Mat};

/// Errors produced by the numerical routines in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Matrix dimensions are incompatible with the requested operation.
    DimensionMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Dimensions of the left / first operand.
        lhs: (usize, usize),
        /// Dimensions of the right / second operand.
        rhs: (usize, usize),
    },
    /// The matrix is singular (or numerically singular) and cannot be
    /// factorized / inverted.
    Singular,
    /// An iterative solver failed to converge within its iteration budget.
    NoConvergence {
        /// Name of the solver.
        solver: &'static str,
        /// Number of iterations performed.
        iterations: usize,
    },
    /// The input violates a precondition (documented per function).
    InvalidInput(&'static str),
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::DimensionMismatch { op, lhs, rhs } => {
                write!(f, "dimension mismatch in {op}: {}x{} vs {}x{}", lhs.0, lhs.1, rhs.0, rhs.1)
            }
            LinalgError::Singular => write!(f, "matrix is singular"),
            LinalgError::NoConvergence { solver, iterations } => {
                write!(f, "{solver} did not converge after {iterations} iterations")
            }
            LinalgError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
