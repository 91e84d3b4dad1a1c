//! Discrete Lyapunov equation solver.
//!
//! Solves `Aᵀ P A − P + Q = 0` for `P`, the workhorse behind the
//! common-quadratic-Lyapunov-function (CQLF) search used to certify
//! stability of the paper's situation-switched controller
//! (Sec. III-D, refs. [15], [16]).

use crate::{lu, LinalgError, Mat, Result};

/// Solves the discrete Lyapunov equation `Aᵀ P A − P + Q = 0` exactly via
/// the Kronecker-product linearization `(I − Aᵀ⊗Aᵀ) vec(P) = vec(Q)`.
///
/// For the small state dimensions in this workspace (n ≤ 12 ⇒ a 144×144
/// linear solve) this is fast and exact.
///
/// # Errors
///
/// * [`LinalgError::InvalidInput`] if `a`/`q` are not square or shapes
///   disagree.
/// * [`LinalgError::Singular`] if `A` has an eigenvalue pair with
///   `λᵢ λⱼ = 1` (no unique solution, e.g. `A` not Schur stable with a
///   unit-modulus eigenvalue).
///
/// # Example
///
/// ```
/// use lkas_linalg::{Mat, lyapunov::solve_discrete_lyapunov};
///
/// let a = Mat::diag(&[0.5, 0.8]);
/// let q = Mat::identity(2);
/// let p = solve_discrete_lyapunov(&a, &q).unwrap();
/// // Verify: AᵀPA - P + Q = 0.
/// let res = a.transpose().matmul(&p).unwrap().matmul(&a).unwrap()
///     .sub_mat(&p).unwrap().add_mat(&q).unwrap();
/// assert!(res.max_abs() < 1e-10);
/// ```
pub fn solve_discrete_lyapunov(a: &Mat, q: &Mat) -> Result<Mat> {
    if !a.is_square() || !q.is_square() || a.rows() != q.rows() {
        return Err(LinalgError::InvalidInput(
            "solve_discrete_lyapunov requires square A and Q of equal order",
        ));
    }
    let n = a.rows();
    let at = a.transpose();
    // M = I_{n²} − Aᵀ⊗Aᵀ  acting on vec(P) with column-major vec; we use
    // row-major "vec" consistently on both sides so the identity still
    // holds: vec_rm(Aᵀ P A) = (Aᵀ ⊗ Aᵀ)_rm vec_rm(P) with
    // (X ⊗ Y)_rm[(i*n+j),(k*n+l)] = X[i,k] · Y[j,l] for vec_rm(P)[k*n+l] =
    // P[k,l], because (AᵀPA)[i,j] = Σ_{k,l} Aᵀ[i,k] P[k,l] A[l,j]
    //                            = Σ Aᵀ[i,k] · Aᵀ[j,l]ᵀ…
    // Note A[l,j] = Aᵀ[j,l], giving exactly X=Aᵀ, Y=Aᵀ.
    let n2 = n * n;
    let mut m = Mat::zeros(n2, n2);
    for i in 0..n {
        for j in 0..n {
            let row = i * n + j;
            for k in 0..n {
                for l in 0..n {
                    let col = k * n + l;
                    let v = at[(i, k)] * at[(j, l)];
                    m[(row, col)] = if row == col { 1.0 - v } else { -v };
                }
            }
        }
    }
    let rhs = Mat::from_vec(n2, 1, q.as_slice().to_vec())?;
    let p_vec = lu::solve(&m, &rhs)?;
    let mut p = Mat::from_vec(n, n, p_vec.as_slice().to_vec())?;
    p.symmetrize();
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eig;

    /// Residual `Aᵀ P A − P + Q` of a candidate solution.
    fn residual(a: &Mat, p: &Mat, q: &Mat) -> Mat {
        a.transpose().matmul(p).unwrap().matmul(a).unwrap().sub_mat(p).unwrap().add_mat(q).unwrap()
    }

    #[test]
    fn solves_diagonal_case() {
        let a = Mat::diag(&[0.9, 0.1]);
        let q = Mat::identity(2);
        let p = solve_discrete_lyapunov(&a, &q).unwrap();
        // Closed form for diagonal: p_ii = q_ii / (1 - a_ii^2).
        assert!((p[(0, 0)] - 1.0 / (1.0 - 0.81)).abs() < 1e-10);
        assert!((p[(1, 1)] - 1.0 / (1.0 - 0.01)).abs() < 1e-10);
    }

    #[test]
    fn residual_is_zero_for_random_stable_system() {
        let a = Mat::from_rows(&[&[0.4, 0.3, 0.0], &[-0.2, 0.5, 0.1], &[0.0, 0.2, -0.3]]);
        assert!(eig::is_schur_stable(&a).unwrap());
        let q = Mat::diag(&[1.0, 2.0, 0.5]);
        let p = solve_discrete_lyapunov(&a, &q).unwrap();
        let res = residual(&a, &p, &q);
        assert!(res.max_abs() < 1e-10);
        assert!(p.is_positive_definite(), "P must be PD for stable A, PD Q");
    }

    #[test]
    fn unstable_a_gives_non_pd_solution() {
        let a = Mat::diag(&[1.2, 0.5]);
        let q = Mat::identity(2);
        let p = solve_discrete_lyapunov(&a, &q).unwrap();
        assert!(!p.is_positive_definite());
    }

    #[test]
    fn unit_eigenvalue_is_singular() {
        let a = Mat::diag(&[1.0, 0.5]);
        let q = Mat::identity(2);
        assert!(matches!(solve_discrete_lyapunov(&a, &q), Err(LinalgError::Singular)));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = Mat::identity(2).scale(0.5);
        let q = Mat::identity(3);
        assert!(solve_discrete_lyapunov(&a, &q).is_err());
    }
}
