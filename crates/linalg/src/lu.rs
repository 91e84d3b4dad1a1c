//! LU factorization with partial pivoting.

use crate::{LinalgError, Mat, Result};

/// An LU factorization `P·A = L·U` of a square matrix, with partial
/// pivoting.
///
/// Use it to solve linear systems and invert matrices without
/// refactorizing.
///
/// # Example
///
/// ```
/// use lkas_linalg::{Mat, lu::Lu};
///
/// let a = Mat::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]]);
/// let lu = Lu::new(&a).unwrap();
/// let x = lu.solve(&Mat::col_vec(&[10.0, 12.0])).unwrap();
/// assert!((x[(0, 0)] - 1.0).abs() < 1e-12);
/// assert!((x[(1, 0)] - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    /// Combined L (strict lower, unit diagonal implied) and U (upper).
    factors: Mat,
    /// Row permutation: row `i` of the factorization came from row
    /// `perm[i]` of the original matrix.
    perm: Vec<usize>,
}

/// Pivots with absolute value below this threshold are treated as zero.
const SINGULARITY_TOL: f64 = 1e-13;

impl Lu {
    /// Factorizes a square matrix.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::InvalidInput`] if `a` is not square.
    /// * [`LinalgError::Singular`] if a pivot smaller than the internal
    ///   tolerance (relative to the matrix magnitude) is encountered.
    pub fn new(a: &Mat) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::InvalidInput("LU requires a square matrix"));
        }
        let n = a.rows();
        let scale = a.max_abs().max(1.0);
        let mut f = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();

        for k in 0..n {
            // Partial pivoting: pick the largest entry in column k below
            // (and including) the diagonal.
            let mut p = k;
            let mut pmax = f[(k, k)].abs();
            for i in (k + 1)..n {
                let v = f[(i, k)].abs();
                if v > pmax {
                    pmax = v;
                    p = i;
                }
            }
            if pmax < SINGULARITY_TOL * scale {
                return Err(LinalgError::Singular);
            }
            if p != k {
                for j in 0..n {
                    let t = f[(k, j)];
                    f[(k, j)] = f[(p, j)];
                    f[(p, j)] = t;
                }
                perm.swap(k, p);
            }
            let pivot = f[(k, k)];
            for i in (k + 1)..n {
                let m = f[(i, k)] / pivot;
                f[(i, k)] = m;
                for j in (k + 1)..n {
                    let fkj = f[(k, j)];
                    f[(i, j)] -= m * fkj;
                }
            }
        }
        Ok(Lu { factors: f, perm })
    }

    /// Order of the factorized matrix.
    pub fn order(&self) -> usize {
        self.factors.rows()
    }

    /// Solves `A·X = B` for (possibly multi-column) `B`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b` has the wrong row
    /// count.
    pub fn solve(&self, b: &Mat) -> Result<Mat> {
        let n = self.order();
        if b.rows() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "lu_solve",
                lhs: (n, n),
                rhs: b.shape(),
            });
        }
        let nrhs = b.cols();
        let mut x = Mat::zeros(n, nrhs);
        // Apply permutation.
        for i in 0..n {
            for j in 0..nrhs {
                x[(i, j)] = b[(self.perm[i], j)];
            }
        }
        // Forward substitution with unit-lower L.
        for k in 0..n {
            for i in (k + 1)..n {
                let m = self.factors[(i, k)];
                for j in 0..nrhs {
                    let xkj = x[(k, j)];
                    x[(i, j)] -= m * xkj;
                }
            }
        }
        // Back substitution with U.
        for k in (0..n).rev() {
            let d = self.factors[(k, k)];
            for j in 0..nrhs {
                x[(k, j)] /= d;
            }
            for i in 0..k {
                let m = self.factors[(i, k)];
                for j in 0..nrhs {
                    let xkj = x[(k, j)];
                    x[(i, j)] -= m * xkj;
                }
            }
        }
        Ok(x)
    }

    /// Inverse of the original matrix.
    ///
    /// # Errors
    ///
    /// Propagates solver errors (cannot occur for a successfully
    /// constructed factorization of well-scaled input).
    pub fn inverse(&self) -> Result<Mat> {
        self.solve(&Mat::identity(self.order()))
    }
}

/// Convenience: solves `A·X = B` with a fresh factorization.
///
/// # Errors
///
/// See [`Lu::new`] and [`Lu::solve`].
pub fn solve(a: &Mat, b: &Mat) -> Result<Mat> {
    Lu::new(a)?.solve(b)
}

/// Convenience: inverts `A` with a fresh factorization.
///
/// # Errors
///
/// See [`Lu::new`].
pub fn inverse(a: &Mat) -> Result<Mat> {
    Lu::new(a)?.inverse()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_known_system() {
        let a = Mat::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]);
        let b = Mat::col_vec(&[8.0, -11.0, -3.0]);
        let x = solve(&a, &b).unwrap();
        let expected = Mat::col_vec(&[2.0, 3.0, -1.0]);
        assert!(x.approx_eq(&expected, 1e-10));
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a = Mat::from_rows(&[&[4.0, 7.0], &[2.0, 6.0]]);
        let inv = inverse(&a).unwrap();
        let prod = a.matmul(&inv).unwrap();
        assert!(prod.approx_eq(&Mat::identity(2), 1e-12));
    }

    #[test]
    fn solve_with_row_swap() {
        // A zero leading pivot forces a row swap.
        let a = Mat::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = solve(&a, &Mat::col_vec(&[2.0, 3.0])).unwrap();
        assert!(x.approx_eq(&Mat::col_vec(&[3.0, 2.0]), 1e-12));
    }

    #[test]
    fn singular_detected() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(Lu::new(&a), Err(LinalgError::Singular)));
    }

    #[test]
    fn non_square_rejected() {
        let a = Mat::zeros(2, 3);
        assert!(matches!(Lu::new(&a), Err(LinalgError::InvalidInput(_))));
    }

    #[test]
    fn multi_rhs_solve() {
        let a = Mat::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]);
        let b = Mat::from_rows(&[&[9.0, 5.0], &[8.0, 5.0]]);
        let x = solve(&a, &b).unwrap();
        let back = a.matmul(&x).unwrap();
        assert!(back.approx_eq(&b, 1e-12));
    }

    #[test]
    fn ill_conditioned_still_solves() {
        // Hilbert 4x4 is ill-conditioned but not singular.
        let mut a = Mat::zeros(4, 4);
        for i in 0..4 {
            for j in 0..4 {
                a[(i, j)] = 1.0 / ((i + j + 1) as f64);
            }
        }
        let ones = Mat::col_vec(&[1.0, 1.0, 1.0, 1.0]);
        let b = a.matmul(&ones).unwrap();
        let x = solve(&a, &b).unwrap();
        assert!(x.approx_eq(&ones, 1e-8));
    }
}
