//! Eigenvalues of small real matrices via the shifted QR algorithm.
//!
//! The workspace uses eigenvalues for closed-loop stability analysis
//! (spectral radius of discrete-time closed-loop matrices, continuous-time
//! pole checks). Matrices are ≤ 12×12, so a straightforward
//! Hessenberg-plus-shifted-QR implementation with 1×1/2×2 deflation is
//! both fast and accurate enough.

use crate::{Complex, LinalgError, Mat, Result};

/// Maximum QR sweeps per eigenvalue before giving up.
const MAX_SWEEPS_PER_EIG: usize = 120;

/// Reduces a square matrix to upper Hessenberg form via Householder
/// similarity transforms. The eigenvalues are preserved.
///
/// # Errors
///
/// Returns [`LinalgError::InvalidInput`] if `a` is not square.
pub fn hessenberg(a: &Mat) -> Result<Mat> {
    if !a.is_square() {
        return Err(LinalgError::InvalidInput("hessenberg requires a square matrix"));
    }
    let n = a.rows();
    let mut h = a.clone();
    for k in 0..n.saturating_sub(2) {
        // Householder vector annihilating h[k+2.., k].
        let mut alpha = 0.0;
        for i in (k + 1)..n {
            alpha += h[(i, k)] * h[(i, k)];
        }
        alpha = alpha.sqrt();
        if alpha == 0.0 {
            continue;
        }
        if h[(k + 1, k)] > 0.0 {
            alpha = -alpha;
        }
        let mut v = vec![0.0; n];
        v[k + 1] = h[(k + 1, k)] - alpha;
        for i in (k + 2)..n {
            v[i] = h[(i, k)];
        }
        let vnorm2: f64 = v.iter().map(|x| x * x).sum();
        if vnorm2 < 1e-300 {
            continue;
        }
        // H = I - 2 v vᵀ / (vᵀv); apply H·A·H.
        // Left: A -= v (2 vᵀ A / vᵀv)
        for j in 0..n {
            let mut dot = 0.0;
            for i in (k + 1)..n {
                dot += v[i] * h[(i, j)];
            }
            let f = 2.0 * dot / vnorm2;
            for i in (k + 1)..n {
                h[(i, j)] -= f * v[i];
            }
        }
        // Right: A -= (2 A v / vᵀv) vᵀ
        for i in 0..n {
            let mut dot = 0.0;
            for j in (k + 1)..n {
                dot += h[(i, j)] * v[j];
            }
            let f = 2.0 * dot / vnorm2;
            for j in (k + 1)..n {
                h[(i, j)] -= f * v[j];
            }
        }
    }
    Ok(h)
}

/// Eigenvalues of the 2×2 block `[[a, b], [c, d]]`.
fn eig2(a: f64, b: f64, c: f64, d: f64) -> (Complex, Complex) {
    let tr = a + d;
    let det = a * d - b * c;
    let disc = tr * tr / 4.0 - det;
    if disc >= 0.0 {
        let sq = disc.sqrt();
        (Complex::from_real(tr / 2.0 + sq), Complex::from_real(tr / 2.0 - sq))
    } else {
        let sq = (-disc).sqrt();
        (Complex::new(tr / 2.0, sq), Complex::new(tr / 2.0, -sq))
    }
}

/// One explicit shifted QR sweep (Givens based) on the leading `m×m`
/// Hessenberg block of `h`.
fn qr_sweep(h: &mut Mat, m: usize, shift: f64) {
    // H - σI = Q R  (Givens), then H ← R Q + σI.
    let mut cs = vec![(1.0_f64, 0.0_f64); m.saturating_sub(1)];
    for i in 0..m {
        h[(i, i)] -= shift;
    }
    // Forward pass: zero the subdiagonal.
    for k in 0..m - 1 {
        let a = h[(k, k)];
        let b = h[(k + 1, k)];
        let r = a.hypot(b);
        let (c, s) = if r > 0.0 { (a / r, b / r) } else { (1.0, 0.0) };
        cs[k] = (c, s);
        for j in k..m {
            let t1 = h[(k, j)];
            let t2 = h[(k + 1, j)];
            h[(k, j)] = c * t1 + s * t2;
            h[(k + 1, j)] = -s * t1 + c * t2;
        }
    }
    // Backward pass: multiply by the transposed rotations on the right.
    for k in 0..m - 1 {
        let (c, s) = cs[k];
        for i in 0..=(k + 1).min(m - 1) {
            let t1 = h[(i, k)];
            let t2 = h[(i, k + 1)];
            h[(i, k)] = c * t1 + s * t2;
            h[(i, k + 1)] = -s * t1 + c * t2;
        }
    }
    for i in 0..m {
        h[(i, i)] += shift;
    }
}

/// Computes all eigenvalues of a real square matrix.
///
/// Complex eigenvalues come in conjugate pairs. The result is sorted by
/// descending modulus, which is convenient for spectral-radius checks.
///
/// # Errors
///
/// * [`LinalgError::InvalidInput`] if `a` is not square or has non-finite
///   entries.
/// * [`LinalgError::NoConvergence`] if the QR iteration stalls (does not
///   occur for the well-scaled matrices in this workspace).
///
/// # Example
///
/// ```
/// use lkas_linalg::{Mat, eig::eigenvalues};
///
/// let a = Mat::from_rows(&[&[0.0, -1.0], &[1.0, 0.0]]);
/// let e = eigenvalues(&a).unwrap();
/// assert!((e[0].abs() - 1.0).abs() < 1e-10); // eigenvalues ±i
/// assert!(e[0].im.abs() > 0.99);
/// ```
pub fn eigenvalues(a: &Mat) -> Result<Vec<Complex>> {
    if !a.is_square() {
        return Err(LinalgError::InvalidInput("eigenvalues requires a square matrix"));
    }
    if !a.is_finite() {
        return Err(LinalgError::InvalidInput("eigenvalues requires finite entries"));
    }
    let n = a.rows();
    let mut h = hessenberg(a)?;
    let scale = h.max_abs().max(1.0);
    let tol = 1e-12 * scale;
    let mut eigs: Vec<Complex> = Vec::with_capacity(n);
    let mut m = n; // active block is h[0..m, 0..m]
    let mut sweeps = 0usize;
    let budget = MAX_SWEEPS_PER_EIG * n;

    while m > 0 {
        if m == 1 {
            eigs.push(Complex::from_real(h[(0, 0)]));
            break;
        }
        // Deflation checks.
        if h[(m - 1, m - 2)].abs() <= tol {
            eigs.push(Complex::from_real(h[(m - 1, m - 1)]));
            m -= 1;
            continue;
        }
        if m == 2 || h[(m - 2, m - 3)].abs() <= tol {
            let (l1, l2) =
                eig2(h[(m - 2, m - 2)], h[(m - 2, m - 1)], h[(m - 1, m - 2)], h[(m - 1, m - 1)]);
            // Only deflate the pair when it is genuinely complex or the
            // block has effectively converged; otherwise keep sweeping so
            // real eigenvalues separate properly.
            if l1.im != 0.0 || h[(m - 1, m - 2)].abs() <= tol.max(1e-9 * scale) || m == 2 {
                eigs.push(l1);
                eigs.push(l2);
                m -= 2;
                continue;
            }
        }
        if sweeps >= budget {
            return Err(LinalgError::NoConvergence {
                solver: "qr_eigenvalues",
                iterations: sweeps,
            });
        }
        // Wilkinson shift: eigenvalue of the trailing 2×2 closest to the
        // bottom-right entry; use its real part (exceptional shift every
        // 24 sweeps to break symmetry cycles).
        let shift = if sweeps % 24 == 23 {
            h[(m - 1, m - 1)] + 0.9 * h[(m - 1, m - 2)].abs()
        } else {
            let (l1, l2) =
                eig2(h[(m - 2, m - 2)], h[(m - 2, m - 1)], h[(m - 1, m - 2)], h[(m - 1, m - 1)]);
            let hnn = h[(m - 1, m - 1)];
            if (l1.re - hnn).abs() <= (l2.re - hnn).abs() {
                l1.re
            } else {
                l2.re
            }
        };
        qr_sweep(&mut h, m, shift);
        sweeps += 1;
    }
    eigs.sort_by(|x, y| y.abs().partial_cmp(&x.abs()).unwrap_or(std::cmp::Ordering::Equal));
    Ok(eigs)
}

/// Spectral radius: `max |λᵢ(A)|`.
///
/// # Errors
///
/// See [`eigenvalues`].
pub fn spectral_radius(a: &Mat) -> Result<f64> {
    Ok(eigenvalues(a)?.first().map(|l| l.abs()).unwrap_or(0.0))
}

/// `true` if the discrete-time system `x[k+1] = A x[k]` is Schur stable
/// (spectral radius < 1).
///
/// # Errors
///
/// See [`eigenvalues`].
pub fn is_schur_stable(a: &Mat) -> Result<bool> {
    Ok(spectral_radius(a)? < 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sum of the diagonal entries of a square matrix.
    fn trace(a: &Mat) -> f64 {
        (0..a.rows()).map(|i| a[(i, i)]).sum()
    }

    fn sorted_reals(mut v: Vec<Complex>) -> Vec<f64> {
        v.sort_by(|a, b| a.re.partial_cmp(&b.re).unwrap());
        v.into_iter().map(|c| c.re).collect()
    }

    #[test]
    fn diagonal_eigenvalues() {
        let a = Mat::diag(&[3.0, -1.0, 0.5]);
        let e = eigenvalues(&a).unwrap();
        let re = sorted_reals(e);
        assert!((re[0] + 1.0).abs() < 1e-10);
        assert!((re[1] - 0.5).abs() < 1e-10);
        assert!((re[2] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn known_2x2_real() {
        // [[2,1],[1,2]] -> 1, 3
        let a = Mat::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let re = sorted_reals(eigenvalues(&a).unwrap());
        assert!((re[0] - 1.0).abs() < 1e-10);
        assert!((re[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn complex_pair() {
        // Companion of s^2 + 2s + 5 -> -1 ± 2i
        let a = Mat::from_rows(&[&[0.0, 1.0], &[-5.0, -2.0]]);
        let e = eigenvalues(&a).unwrap();
        assert!((e[0].re + 1.0).abs() < 1e-10);
        assert!((e[0].im.abs() - 2.0).abs() < 1e-10);
        assert!((e[1].im + e[0].im).abs() < 1e-12, "conjugate pair");
    }

    #[test]
    fn mixed_real_and_complex_4x4() {
        // Block diagonal: rotation(θ)*0.8 (complex pair with |λ|=0.8) and
        // diag(0.3, -0.9).
        let th = 1.1_f64;
        let mut a = Mat::zeros(4, 4);
        a.set_block(
            0,
            0,
            &Mat::from_rows(&[
                &[0.8 * th.cos(), -0.8 * th.sin()],
                &[0.8 * th.sin(), 0.8 * th.cos()],
            ]),
        );
        a[(2, 2)] = 0.3;
        a[(3, 3)] = -0.9;
        let e = eigenvalues(&a).unwrap();
        assert_eq!(e.len(), 4);
        // Largest modulus must be 0.9 (the -0.9 real eigenvalue).
        assert!((e[0].abs() - 0.9).abs() < 1e-8);
        let rho = spectral_radius(&a).unwrap();
        assert!((rho - 0.9).abs() < 1e-8);
        assert!(is_schur_stable(&a).unwrap());
    }

    #[test]
    fn similarity_invariance_under_hessenberg() {
        let a = Mat::from_rows(&[
            &[1.0, 2.0, 0.5, -1.0],
            &[0.3, -0.7, 1.1, 0.2],
            &[2.0, 0.1, 0.4, 0.9],
            &[-0.5, 1.3, 0.2, 0.6],
        ]);
        let h = hessenberg(&a).unwrap();
        // Trace is preserved by similarity.
        assert!((trace(&h) - trace(&a)).abs() < 1e-10);
        // Hessenberg structure: zeros below the first subdiagonal.
        for i in 2..4 {
            for j in 0..(i - 1) {
                assert!(h[(i, j)].abs() < 1e-10);
            }
        }
    }

    #[test]
    fn eigen_sum_matches_trace() {
        let a = Mat::from_rows(&[&[0.2, 1.0, 0.0], &[-1.0, 0.2, 0.5], &[0.1, 0.0, -0.6]]);
        let e = eigenvalues(&a).unwrap();
        let sum_re: f64 = e.iter().map(|c| c.re).sum();
        let sum_im: f64 = e.iter().map(|c| c.im).sum();
        assert!((sum_re - trace(&a)).abs() < 1e-8);
        assert!(sum_im.abs() < 1e-8);
    }

    #[test]
    fn repeated_eigenvalues() {
        // Jordan-ish block: eigenvalue 2 twice.
        let a = Mat::from_rows(&[&[2.0, 1.0], &[0.0, 2.0]]);
        let re = sorted_reals(eigenvalues(&a).unwrap());
        assert!((re[0] - 2.0).abs() < 1e-6);
        assert!((re[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn larger_companion_matrix() {
        // Companion matrix of (s-1)(s+2)(s-3)(s+4)(s-0.5)
        // = s^5 + 1.5 s^4 - 14 s^3 - 7.5 s^2 + 31 s - 12.
        // Roots: 1, -2, 3, -4, 0.5.
        let mut a = Mat::zeros(5, 5);
        for i in 0..4 {
            a[(i, i + 1)] = 1.0;
        }
        // last row = [-a0, -a1, -a2, -a3, -a4].
        a[(4, 0)] = 12.0;
        a[(4, 1)] = -31.0;
        a[(4, 2)] = 7.5;
        a[(4, 3)] = 14.0;
        a[(4, 4)] = -1.5;
        let re = sorted_reals(eigenvalues(&a).unwrap());
        let expected = [-4.0, -2.0, 0.5, 1.0, 3.0];
        for (got, want) in re.iter().zip(expected) {
            assert!((got - want).abs() < 1e-6, "got {got}, want {want}");
        }
    }
}
