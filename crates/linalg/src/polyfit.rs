//! Least-squares polynomial fitting via Householder QR.
//!
//! The sliding-window lane detector fits a second-order polynomial
//! `x(y) = a·y² + b·y + c` through candidate lane pixels (paper Sec. II,
//! "Perception"). This module provides the generic fit.

use crate::{LinalgError, Result};

/// Reusable workspace of [`polyfit_into`]: the Vandermonde matrix, the
/// reflected right-hand side and the Householder vector survive between
/// fits, so steady-state fitting at a stable sample count performs no
/// heap allocations. One scratch per fitting loop; contents carry no
/// state between calls.
#[derive(Debug, Clone, Default)]
pub struct PolyfitScratch {
    /// Vandermonde matrix, row-major n×m.
    v: Vec<f64>,
    /// Right-hand side (reflected in place).
    y: Vec<f64>,
    /// Householder vector.
    w: Vec<f64>,
}

impl PolyfitScratch {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        PolyfitScratch::default()
    }

    /// Creates a workspace already sized for fits of up to `samples`
    /// points and `coeffs` coefficients, so that no such fit allocates.
    pub fn with_capacity(samples: usize, coeffs: usize) -> Self {
        PolyfitScratch {
            v: Vec::with_capacity(samples * coeffs),
            y: Vec::with_capacity(samples),
            w: Vec::with_capacity(samples),
        }
    }
}

/// Fits a polynomial of the given `degree` through `(x, y)` samples in the
/// least-squares sense and returns its coefficients ordered from the
/// constant term upward: `c[0] + c[1]·x + c[2]·x² + …`.
///
/// Uses Householder QR on the Vandermonde matrix, which is numerically
/// preferable to normal equations.
///
/// # Errors
///
/// * [`LinalgError::InvalidInput`] if `xs.len() != ys.len()`, fewer than
///   `degree + 1` samples are given, or `degree + 1` exceeds the sample
///   count.
/// * [`LinalgError::Singular`] if the samples do not determine the
///   polynomial (e.g. all `x` identical).
///
/// # Example
///
/// ```
/// use lkas_linalg::polyfit::polyfit;
///
/// let xs = [0.0, 1.0, 2.0, 3.0];
/// let ys: Vec<f64> = xs.iter().map(|x| 2.0 + 3.0 * x).collect();
/// let c = polyfit(&xs, &ys, 1).unwrap();
/// assert!((c[0] - 2.0).abs() < 1e-10);
/// assert!((c[1] - 3.0).abs() < 1e-10);
/// ```
pub fn polyfit(xs: &[f64], ys: &[f64], degree: usize) -> Result<Vec<f64>> {
    let mut coeffs = vec![0.0; degree + 1];
    polyfit_into(xs, ys, &mut coeffs, &mut PolyfitScratch::new())?;
    Ok(coeffs)
}

/// [`polyfit`] with caller-owned outputs: the polynomial degree is
/// `coeffs.len() - 1` and the coefficients are written into `coeffs`
/// (constant term first). With a reused `scratch` this is the
/// allocation-free fitting path; results are bit-identical to
/// [`polyfit`].
///
/// # Errors
///
/// As [`polyfit`]; additionally rejects an empty `coeffs`. On error
/// `coeffs` is left unspecified.
pub fn polyfit_into(
    xs: &[f64],
    ys: &[f64],
    coeffs: &mut [f64],
    scratch: &mut PolyfitScratch,
) -> Result<()> {
    if xs.len() != ys.len() {
        return Err(LinalgError::InvalidInput("xs and ys must have equal length"));
    }
    if coeffs.is_empty() {
        return Err(LinalgError::InvalidInput("need at least one coefficient"));
    }
    let n = xs.len();
    let m = coeffs.len();
    if n < m {
        return Err(LinalgError::InvalidInput("need at least degree+1 samples"));
    }
    // Build Vandermonde V (n×m, row-major) and copy of y.
    scratch.v.clear();
    scratch.v.resize(n * m, 0.0);
    let v = &mut scratch.v;
    for (i, &x) in xs.iter().enumerate() {
        let mut p = 1.0;
        for j in 0..m {
            v[i * m + j] = p;
            p *= x;
        }
    }
    scratch.y.clear();
    scratch.y.extend_from_slice(ys);
    let y = &mut scratch.y;
    scratch.w.clear();
    scratch.w.resize(n, 0.0);
    let w = &mut scratch.w;

    // Householder QR: reduce V to upper triangular R while applying the
    // same reflections to y; then back-substitute R c = Qᵀ y.
    for k in 0..m {
        let mut norm = 0.0;
        for i in k..n {
            norm += v[i * m + k] * v[i * m + k];
        }
        let norm = norm.sqrt();
        if norm < 1e-12 {
            return Err(LinalgError::Singular);
        }
        let alpha = if v[k * m + k] > 0.0 { -norm } else { norm };
        for x in w.iter_mut() {
            *x = 0.0;
        }
        w[k] = v[k * m + k] - alpha;
        for i in (k + 1)..n {
            w[i] = v[i * m + k];
        }
        let wnorm2: f64 = w[k..].iter().map(|x| x * x).sum();
        if wnorm2 < 1e-300 {
            continue;
        }
        for j in k..m {
            let mut dot = 0.0;
            for i in k..n {
                dot += w[i] * v[i * m + j];
            }
            let f = 2.0 * dot / wnorm2;
            for i in k..n {
                v[i * m + j] -= f * w[i];
            }
        }
        let mut dot = 0.0;
        for i in k..n {
            dot += w[i] * y[i];
        }
        let f = 2.0 * dot / wnorm2;
        for i in k..n {
            y[i] -= f * w[i];
        }
    }
    // Back substitution on the m×m upper-triangular block.
    for c in coeffs.iter_mut() {
        *c = 0.0;
    }
    for k in (0..m).rev() {
        let mut s = y[k];
        for j in (k + 1)..m {
            s -= v[k * m + j] * coeffs[j];
        }
        let d = v[k * m + k];
        if d.abs() < 1e-12 {
            return Err(LinalgError::Singular);
        }
        coeffs[k] = s / d;
    }
    Ok(())
}

/// Evaluates a polynomial with coefficients ordered constant-first (as
/// returned by [`polyfit`]) at `x`, using Horner's rule.
///
/// # Example
///
/// ```
/// use lkas_linalg::polyfit::polyval;
///
/// // 1 + 2x + 3x² at x = 2 → 17.
/// assert_eq!(polyval(&[1.0, 2.0, 3.0], 2.0), 17.0);
/// ```
pub fn polyval(coeffs: &[f64], x: f64) -> f64 {
    coeffs.iter().rev().fold(0.0, |acc, &c| acc * x + c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_quadratic_recovered() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 1.5 - 0.5 * x + 0.25 * x * x).collect();
        let c = polyfit(&xs, &ys, 2).unwrap();
        assert!((c[0] - 1.5).abs() < 1e-9);
        assert!((c[1] + 0.5).abs() < 1e-9);
        assert!((c[2] - 0.25).abs() < 1e-9);
    }

    #[test]
    fn least_squares_minimizes_residual() {
        // Noisy line; LS fit must beat a deliberately offset candidate.
        let xs: Vec<f64> = (0..50).map(|i| i as f64 / 10.0).collect();
        let noise = |i: usize| if i % 2 == 0 { 0.05 } else { -0.05 };
        let ys: Vec<f64> = xs.iter().enumerate().map(|(i, x)| 2.0 * x + 1.0 + noise(i)).collect();
        let c = polyfit(&xs, &ys, 1).unwrap();
        let rss = |c0: f64, c1: f64| -> f64 {
            xs.iter().zip(&ys).map(|(x, y)| (y - c0 - c1 * x).powi(2)).sum()
        };
        assert!(rss(c[0], c[1]) <= rss(1.1, 2.0) + 1e-12);
        assert!((c[1] - 2.0).abs() < 0.05);
    }

    #[test]
    fn polyfit_into_matches_polyfit_bit_exactly() {
        let xs: Vec<f64> = (0..40).map(|i| i as f64 / 3.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 0.7 - 1.3 * x + 0.11 * x * x).collect();
        let reference = polyfit(&xs, &ys, 2).unwrap();
        let mut scratch = PolyfitScratch::new();
        let mut coeffs = [0.0f64; 3];
        // Reuse the scratch across calls; every fit must match exactly.
        for _ in 0..3 {
            polyfit_into(&xs, &ys, &mut coeffs, &mut scratch).unwrap();
            assert_eq!(coeffs.as_slice(), reference.as_slice());
        }
        assert!(polyfit_into(&xs, &ys, &mut [], &mut scratch).is_err());
    }

    #[test]
    fn underdetermined_rejected() {
        assert!(polyfit(&[1.0, 2.0], &[1.0, 2.0], 2).is_err());
    }

    #[test]
    fn degenerate_xs_rejected() {
        let xs = [3.0, 3.0, 3.0, 3.0];
        let ys = [1.0, 2.0, 3.0, 4.0];
        assert!(matches!(polyfit(&xs, &ys, 1), Err(LinalgError::Singular)));
    }

    #[test]
    fn mismatched_lengths_rejected() {
        assert!(polyfit(&[1.0], &[1.0, 2.0], 0).is_err());
    }

    #[test]
    fn polyval_horner() {
        assert_eq!(polyval(&[4.0], 10.0), 4.0);
        assert_eq!(polyval(&[0.0, 1.0], 7.0), 7.0);
        assert!((polyval(&[1.0, -2.0, 0.5], 3.0) - (1.0 - 6.0 + 4.5)).abs() < 1e-12);
    }

    #[test]
    fn high_degree_on_shifted_domain() {
        // Degree-4 exact fit on a domain away from zero.
        let xs: Vec<f64> = (0..12).map(|i| 100.0 + i as f64).collect();
        let f = |x: f64| 0.5 + x - 0.01 * x * x;
        let ys: Vec<f64> = xs.iter().map(|&x| f(x)).collect();
        let c = polyfit(&xs, &ys, 4).unwrap();
        for &x in &xs {
            assert!((polyval(&c, x) - f(x)).abs() < 1e-5);
        }
    }
}
