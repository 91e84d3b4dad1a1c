//! Matrix exponential and ZOH discretization helpers.
//!
//! The controller design in [`lkas-control`] needs `e^{Ah}` and the input
//! integrals `∫ e^{As} ds · B` over sub-intervals of the sampling period
//! (to handle a sensor-to-actuation delay `τ` inside the period). Both are
//! computed here from a single matrix exponential of an augmented block
//! matrix, which is numerically robust even for singular `A`.
//!
//! [`lkas-control`]: https://docs.rs/lkas-control

use crate::{lu, LinalgError, Mat, Result};

/// Computes the matrix exponential `e^A` using scaling & squaring with a
/// diagonal Padé(6,6) approximant.
///
/// Accurate to ≈ 1e-12 for the well-scaled matrices used in this
/// workspace.
///
/// # Errors
///
/// * [`LinalgError::InvalidInput`] if `a` is not square or contains
///   non-finite entries.
/// * [`LinalgError::Singular`] if the Padé denominator is singular (does
///   not happen after scaling).
///
/// # Example
///
/// ```
/// use lkas_linalg::{Mat, expm::expm};
///
/// // exp(0) = I
/// let z = Mat::zeros(3, 3);
/// assert!(expm(&z).unwrap().approx_eq(&Mat::identity(3), 1e-14));
/// ```
pub fn expm(a: &Mat) -> Result<Mat> {
    if !a.is_square() {
        return Err(LinalgError::InvalidInput("expm requires a square matrix"));
    }
    if !a.is_finite() {
        return Err(LinalgError::InvalidInput("expm requires finite entries"));
    }
    let n = a.rows();

    // Scale so that ||A/2^s||_1 <= 0.5.
    let norm = a.norm_1();
    let s = if norm > 0.5 { ((norm / 0.5).log2().ceil() as i32).max(0) } else { 0 };
    let a_scaled = a.scale(0.5_f64.powi(s));

    // Padé(6,6): N = sum c_k A^k, D = sum (-1)^k c_k A^k.
    const C: [f64; 7] =
        [1.0, 0.5, 5.0 / 44.0, 1.0 / 66.0, 1.0 / 792.0, 1.0 / 15840.0, 1.0 / 665280.0];
    let mut num = Mat::identity(n).scale(C[0]);
    let mut den = Mat::identity(n).scale(C[0]);
    let mut power = Mat::identity(n);
    for (k, &c) in C.iter().enumerate().skip(1) {
        power = power.matmul(&a_scaled)?;
        num = num.add_mat(&power.scale(c))?;
        let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
        den = den.add_mat(&power.scale(sign * c))?;
    }
    let mut e = lu::solve(&den, &num)?;

    // Undo the scaling by repeated squaring.
    for _ in 0..s {
        e = e.matmul(&e)?;
    }
    Ok(e)
}

/// Result of a zero-order-hold discretization over one interval.
#[derive(Debug, Clone)]
pub struct ZohDiscretization {
    /// State transition matrix `e^{A·t}`.
    pub ad: Mat,
    /// Input matrix `∫₀ᵗ e^{A·s} ds · B`.
    pub bd: Mat,
}

/// Discretizes `ẋ = A x + B u` with a zero-order hold over an interval of
/// length `t`, returning `A_d = e^{At}` and `B_d = ∫₀ᵗ e^{As} ds · B`.
///
/// Uses the standard augmented-matrix identity
/// `exp([[A, B], [0, 0]]·t) = [[A_d, B_d], [0, I]]`, which is valid for
/// any (even singular) `A`.
///
/// # Errors
///
/// * [`LinalgError::DimensionMismatch`] if `b.rows() != a.rows()`.
/// * [`LinalgError::InvalidInput`] if `t` is negative or not finite, or if
///   `a` is not square.
///
/// # Example
///
/// ```
/// use lkas_linalg::{Mat, expm::zoh_discretize};
///
/// // Double integrator, h = 1: A_d = [[1,1],[0,1]], B_d = [[0.5],[1]].
/// let a = Mat::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]);
/// let b = Mat::col_vec(&[0.0, 1.0]);
/// let d = zoh_discretize(&a, &b, 1.0).unwrap();
/// assert!((d.bd[(0, 0)] - 0.5).abs() < 1e-12);
/// assert!((d.ad[(0, 1)] - 1.0).abs() < 1e-12);
/// ```
pub fn zoh_discretize(a: &Mat, b: &Mat, t: f64) -> Result<ZohDiscretization> {
    if !a.is_square() {
        return Err(LinalgError::InvalidInput("zoh_discretize requires square A"));
    }
    if b.rows() != a.rows() {
        return Err(LinalgError::DimensionMismatch {
            op: "zoh_discretize",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    if t < 0.0 || !t.is_finite() {
        return Err(LinalgError::InvalidInput("interval must be finite and nonnegative"));
    }
    let n = a.rows();
    let m = b.cols();
    let mut aug = Mat::zeros(n + m, n + m);
    aug.set_block(0, 0, &a.scale(t));
    aug.set_block(0, n, &b.scale(t));
    let e = expm(&aug)?;
    Ok(ZohDiscretization { ad: e.block(0, 0, n, n), bd: e.block(0, n, n, m) })
}

/// Discretizes `ẋ = A x + B u` over a period `h` with an input delay
/// `τ ∈ [0, h]`: the input applied during `[0, τ)` is the *previous*
/// sample `u[k−1]`, and during `[τ, h)` the *current* sample `u[k]`.
///
/// Returns `(A_d, B_prev, B_curr)` such that
/// `x[k+1] = A_d x[k] + B_prev u[k−1] + B_curr u[k]`.
///
/// This is the classical Åström–Wittenmark formulation used by the paper's
/// controller-design references for image-based control with
/// sensor-to-actuation delay `τ ≤ h`.
///
/// # Errors
///
/// * [`LinalgError::InvalidInput`] if `tau` is outside `[0, h]`.
/// * Propagates discretization errors from [`zoh_discretize`].
pub fn zoh_discretize_with_delay(a: &Mat, b: &Mat, h: f64, tau: f64) -> Result<(Mat, Mat, Mat)> {
    if !(0.0..=h).contains(&tau) {
        return Err(LinalgError::InvalidInput("delay must lie within [0, h]"));
    }
    // Over the full period: x[k+1] = e^{Ah} x[k] + contributions of the two
    // input segments.
    //   B_prev = e^{A(h-τ)} ∫₀^τ e^{As} ds B   (input u[k-1] active first)
    //   B_curr = ∫₀^{h-τ} e^{As} ds B          (input u[k] active last)
    let full = zoh_discretize(a, b, h)?;
    let head = zoh_discretize(a, b, tau)?;
    let tail = zoh_discretize(a, b, h - tau)?;
    let b_prev = tail.ad.matmul(&head.bd)?;
    let b_curr = tail.bd;
    Ok((full.ad, b_prev, b_curr))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expm_of_zero_is_identity() {
        let z = Mat::zeros(4, 4);
        assert!(expm(&z).unwrap().approx_eq(&Mat::identity(4), 1e-14));
    }

    #[test]
    fn expm_diagonal() {
        let a = Mat::diag(&[1.0, -2.0]);
        let e = expm(&a).unwrap();
        assert!((e[(0, 0)] - 1.0_f64.exp()).abs() < 1e-10);
        assert!((e[(1, 1)] - (-2.0_f64).exp()).abs() < 1e-10);
        assert!(e[(0, 1)].abs() < 1e-12);
    }

    #[test]
    fn expm_rotation() {
        // exp([[0,-θ],[θ,0]]) = rotation by θ.
        let theta = 0.7;
        let a = Mat::from_rows(&[&[0.0, -theta], &[theta, 0.0]]);
        let e = expm(&a).unwrap();
        assert!((e[(0, 0)] - theta.cos()).abs() < 1e-12);
        assert!((e[(1, 0)] - theta.sin()).abs() < 1e-12);
    }

    #[test]
    fn expm_additivity_for_commuting() {
        // exp(A) * exp(A) == exp(2A)
        let a = Mat::from_rows(&[&[0.1, 0.3], &[-0.2, 0.05]]);
        let e1 = expm(&a).unwrap();
        let e2 = expm(&a.scale(2.0)).unwrap();
        assert!(e1.matmul(&e1).unwrap().approx_eq(&e2, 1e-10));
    }

    #[test]
    fn expm_large_norm_scaled() {
        let a = Mat::from_rows(&[&[30.0, 1.0], &[0.0, 28.0]]);
        let e = expm(&a).unwrap();
        // Upper-triangular: diagonal is exp of diagonal.
        assert!((e[(0, 0)] / 30.0_f64.exp() - 1.0).abs() < 1e-8);
        assert!((e[(1, 1)] / 28.0_f64.exp() - 1.0).abs() < 1e-8);
    }

    #[test]
    fn zoh_double_integrator() {
        let a = Mat::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]);
        let b = Mat::col_vec(&[0.0, 1.0]);
        let h = 0.05;
        let d = zoh_discretize(&a, &b, h).unwrap();
        assert!((d.ad[(0, 1)] - h).abs() < 1e-14);
        assert!((d.bd[(0, 0)] - h * h / 2.0).abs() < 1e-14);
        assert!((d.bd[(1, 0)] - h).abs() < 1e-14);
    }

    #[test]
    fn delay_split_consistency() {
        // With τ = 0 the delayed form must reduce to plain ZOH on u[k].
        let a = Mat::from_rows(&[&[-1.0, 0.2], &[0.0, -0.5]]);
        let b = Mat::col_vec(&[1.0, 0.5]);
        let (ad, b_prev, b_curr) = zoh_discretize_with_delay(&a, &b, 0.1, 0.0).unwrap();
        let plain = zoh_discretize(&a, &b, 0.1).unwrap();
        assert!(ad.approx_eq(&plain.ad, 1e-12));
        assert!(b_curr.approx_eq(&plain.bd, 1e-12));
        assert!(b_prev.max_abs() < 1e-12);
    }

    #[test]
    fn delay_full_period() {
        // With τ = h the entire period is driven by u[k-1].
        let a = Mat::from_rows(&[&[-1.0, 0.0], &[1.0, -2.0]]);
        let b = Mat::col_vec(&[1.0, 0.0]);
        let (_, b_prev, b_curr) = zoh_discretize_with_delay(&a, &b, 0.1, 0.1).unwrap();
        let plain = zoh_discretize(&a, &b, 0.1).unwrap();
        assert!(b_prev.approx_eq(&plain.bd, 1e-12));
        assert!(b_curr.max_abs() < 1e-12);
    }

    #[test]
    fn delay_segments_sum_to_full_input_matrix() {
        // For any τ, B_prev + B_curr equals the full-period B_d (constant
        // input over the whole period).
        let a = Mat::from_rows(&[&[-0.3, 1.0], &[-2.0, -0.1]]);
        let b = Mat::col_vec(&[0.0, 1.0]);
        let h = 0.04;
        for tau in [0.0, 0.01, 0.025, 0.04] {
            let (_, bp, bc) = zoh_discretize_with_delay(&a, &b, h, tau).unwrap();
            let plain = zoh_discretize(&a, &b, h).unwrap();
            assert!(bp.add_mat(&bc).unwrap().approx_eq(&plain.bd, 1e-11));
        }
    }

    #[test]
    fn delay_out_of_range_rejected() {
        let a = Mat::identity(2);
        let b = Mat::col_vec(&[1.0, 1.0]);
        assert!(zoh_discretize_with_delay(&a, &b, 0.1, 0.2).is_err());
        assert!(zoh_discretize_with_delay(&a, &b, 0.1, -0.01).is_err());
    }
}
