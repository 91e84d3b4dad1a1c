//! Least-squares polynomial fitting via Householder QR.
//!
//! The sliding-window lane detector fits a second-order polynomial
//! `x(y) = a·y² + b·y + c` through candidate lane pixels (paper Sec. II,
//! "Perception"). This module provides the generic fit
//! ([`polyfit_into`], any degree) and the degree-2 kernel the detector
//! runs ([`fit_quadratic_into`]), which gives the same bits in fewer
//! passes over the samples.

use crate::{LinalgError, Result};

/// Reusable workspace of [`polyfit_into`] and [`fit_quadratic_into`]:
/// the Vandermonde matrix, the reflected right-hand side and the
/// Householder vector survive between fits, so steady-state fitting at a stable sample count performs no
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

/// [`polyfit_into`] at degree 2, bit for bit: the same coefficients and
/// the same errors, in fewer passes over the samples.
///
/// The three Vandermonde columns are separate slices of the scratch.
/// Each Householder step makes one pass that accumulates ‖w‖², every
/// remaining column's dot with `w` and the right-hand side's dot with
/// `w`, all in locals, and then one pass that applies every reflection
/// and accumulates the next column's norm. Each accumulator takes the
/// same terms in the same order as in [`polyfit_into`], which runs one
/// pass per reduction; the reductions of one step are independent, so
/// sharing a pass changes no bit. Entries no later step or the back
/// substitution reads are not written: the reflected column below its
/// diagonal, and the right-hand side below row 2 after the last step.
///
/// # Errors
///
/// As [`polyfit_into`] with three coefficients.
///
/// # Example
///
/// ```
/// use lkas_linalg::polyfit::{fit_quadratic_into, polyfit_into, PolyfitScratch};
///
/// let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
/// let ys = [1.0, 0.5, 2.0, 4.5, 9.0];
/// let mut scratch = PolyfitScratch::new();
/// let (mut fast, mut generic) = ([0.0; 3], [0.0; 3]);
/// fit_quadratic_into(&xs, &ys, &mut fast, &mut scratch).unwrap();
/// polyfit_into(&xs, &ys, &mut generic, &mut scratch).unwrap();
/// assert_eq!(fast.map(f64::to_bits), generic.map(f64::to_bits));
/// ```
pub fn fit_quadratic_into(
    xs: &[f64],
    ys: &[f64],
    coeffs: &mut [f64; 3],
    scratch: &mut PolyfitScratch,
) -> Result<()> {
    if xs.len() != ys.len() {
        return Err(LinalgError::InvalidInput("xs and ys must have equal length"));
    }
    let n = xs.len();
    if n < 3 {
        return Err(LinalgError::InvalidInput("need at least degree+1 samples"));
    }
    // Vandermonde columns 1, x, x² (the powers `polyfit_into` forms).
    scratch.v.clear();
    scratch.v.resize(3 * n, 1.0);
    let (c0, rest) = scratch.v.split_at_mut(n);
    let (c1, c2) = rest.split_at_mut(n);
    for ((p1, p2), &x) in c1.iter_mut().zip(c2.iter_mut()).zip(xs) {
        *p1 = x;
        *p2 = x * x;
    }
    scratch.y.clear();
    scratch.y.extend_from_slice(ys);
    let y = scratch.y.as_mut_slice();

    // `polyfit_into` skips a step whose ‖w‖² is below 1e-300. That cannot
    // happen here: a step that passes the `norm < 1e-12` check has
    // |w_k| = |v_kk − α| ≥ norm, since α takes the opposite sign of v_kk,
    // so ‖w‖² ≥ w_k² ≥ 1e-24. (A NaN or infinite norm fails the
    // comparison as well.)

    // Step 0: reflect column 0 onto e₀.
    let mut norm = 0.0;
    for v in c0.iter() {
        norm += v * v;
    }
    let w0 = reflector_head(norm, c0[0])?;
    let mut wnorm2 = -0.0 + w0 * w0;
    let (mut d0, mut d1, mut d2, mut dy) =
        (0.0 + w0 * c0[0], 0.0 + w0 * c1[0], 0.0 + w0 * c2[0], 0.0 + w0 * y[0]);
    for (((&w, &a1), &a2), &b) in c0[1..].iter().zip(&c1[1..]).zip(&c2[1..]).zip(&y[1..]) {
        wnorm2 += w * w;
        d0 += w * w;
        d1 += w * a1;
        d2 += w * a2;
        dy += w * b;
    }
    let [f0, f1, f2, fy] = [d0, d1, d2, dy].map(|d| 2.0 * d / wnorm2);
    c0[0] -= f0 * w0;
    c1[0] -= f1 * w0;
    c2[0] -= f2 * w0;
    y[0] -= fy * w0;
    let mut norm = 0.0;
    for (((&w, a1), a2), b) in c0[1..].iter().zip(&mut c1[1..]).zip(&mut c2[1..]).zip(&mut y[1..]) {
        *a1 -= f1 * w;
        *a2 -= f2 * w;
        *b -= fy * w;
        norm += *a1 * *a1;
    }

    // Step 1: reflect column 1 below row 0.
    let w1 = reflector_head(norm, c1[1])?;
    let mut wnorm2 = -0.0 + w1 * w1;
    let (mut d1, mut d2, mut dy) = (0.0 + w1 * c1[1], 0.0 + w1 * c2[1], 0.0 + w1 * y[1]);
    for ((&w, &a2), &b) in c1[2..].iter().zip(&c2[2..]).zip(&y[2..]) {
        wnorm2 += w * w;
        d1 += w * w;
        d2 += w * a2;
        dy += w * b;
    }
    let [f1, f2, fy] = [d1, d2, dy].map(|d| 2.0 * d / wnorm2);
    c1[1] -= f1 * w1;
    c2[1] -= f2 * w1;
    y[1] -= fy * w1;
    let mut norm = 0.0;
    for ((&w, a2), b) in c1[2..].iter().zip(&mut c2[2..]).zip(&mut y[2..]) {
        *a2 -= f2 * w;
        *b -= fy * w;
        norm += *a2 * *a2;
    }

    // Step 2: reflect column 2 below row 1. Only row 2 of the result is
    // read afterwards.
    let w2 = reflector_head(norm, c2[2])?;
    let mut wnorm2 = -0.0 + w2 * w2;
    let (mut d2, mut dy) = (0.0 + w2 * c2[2], 0.0 + w2 * y[2]);
    for (&w, &b) in c2[3..].iter().zip(&y[3..]) {
        wnorm2 += w * w;
        d2 += w * w;
        dy += w * b;
    }
    let [f2, fy] = [d2, dy].map(|d| 2.0 * d / wnorm2);
    c2[2] -= f2 * w2;
    y[2] -= fy * w2;

    // Back substitution on the 3×3 upper-triangular block.
    *coeffs = [0.0; 3];
    let diagonal = |d: f64| if d.abs() < 1e-12 { Err(LinalgError::Singular) } else { Ok(d) };
    coeffs[2] = y[2] / diagonal(c2[2])?;
    let s = y[1] - c2[1] * coeffs[2];
    coeffs[1] = s / diagonal(c1[1])?;
    let s = y[0] - c1[0] * coeffs[1] - c2[0] * coeffs[2];
    coeffs[0] = s / diagonal(c0[0])?;
    Ok(())
}

/// The leading entry `w_k = v_kk − α` of a Householder vector, from the
/// squared norm of the column below the diagonal (`α = ∓norm`, opposite
/// in sign to `v_kk`), or [`LinalgError::Singular`] when that norm is
/// below 1e-12 — as in [`polyfit_into`].
#[inline(always)]
fn reflector_head(norm_squared: f64, v_kk: f64) -> Result<f64> {
    let norm = norm_squared.sqrt();
    if norm < 1e-12 {
        return Err(LinalgError::Singular);
    }
    let alpha = if v_kk > 0.0 { -norm } else { norm };
    Ok(v_kk - alpha)
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
        let noise = |i: usize| if i.is_multiple_of(2) { 0.05 } else { -0.05 };
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

    /// Seeded sample sets for the degree-2 kernel: BEV-like integer
    /// pixels, real-valued samples at tiny to huge spreads, all `x`
    /// equal, two distinct `x`, and constant `y`.
    fn quadratic_cases() -> Vec<(Vec<f64>, Vec<f64>)> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(26);
        let mut sizes: Vec<usize> = (0..=12).collect();
        sizes.extend([40, 199, 734, 809, 1024, 2048, 4999, 5000]);
        sizes.extend((0..40).map(|_| rng.gen_range(0..=5000usize)));
        let mut cases = Vec::new();
        for &n in &sizes {
            for kind in 0..6 {
                let (c0, c1, c2): (f64, f64, f64) = (
                    rng.gen_range(0.0..160.0),
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-0.01..0.01),
                );
                let scale = [1e-9, 1e-3, 1.0, 1e3, 1e9][rng.gen_range(0..5usize)];
                let xs: Vec<f64> = (0..n)
                    .map(|i| match kind {
                        0 | 5 => rng.gen_range(0..192usize) as f64,
                        1 => scale * rng.gen_range(-50.0..50.0),
                        2 => 37.0,
                        3 => [12.0, 13.0][i % 2],
                        _ => (i / 3) as f64,
                    })
                    .collect();
                let ys: Vec<f64> = xs
                    .iter()
                    .map(|&x| match kind {
                        0 | 4 => (c0 + c1 * x + c2 * x * x + rng.gen_range(-3.0..3.0f64)).round(),
                        5 => 80.0,
                        _ => scale * (c0 + c1 * x + c2 * x * x) + rng.gen_range(-1.0..1.0f64),
                    })
                    .collect();
                cases.push((xs, ys));
            }
        }
        cases
    }

    #[test]
    fn quadratic_kernel_matches_degree_two_polyfit_bit_for_bit() {
        let mut fused_scratch = PolyfitScratch::new();
        let mut generic_scratch = PolyfitScratch::new();
        let (mut fits, mut errors) = (0, 0);
        let mut cases = quadratic_cases();
        cases.push((vec![1.0, 2.0, 3.0], vec![1.0, 2.0]));
        cases.push((vec![1.0, 2.0, 3.0, 4.0], vec![]));
        for (c, (xs, ys)) in cases.iter().enumerate() {
            let (mut fused, mut generic) = ([f64::NAN; 3], [f64::NAN; 3]);
            let a = fit_quadratic_into(xs, ys, &mut fused, &mut fused_scratch);
            let b = polyfit_into(xs, ys, &mut generic, &mut generic_scratch);
            assert_eq!(a, b, "case {c} (n = {}): result kind", xs.len());
            if a.is_ok() {
                assert_eq!(fused.map(f64::to_bits), generic.map(f64::to_bits), "case {c}");
                fits += 1;
            } else {
                errors += 1;
            }
        }
        // Every set kind lands on both sides of the singularity checks.
        assert!(fits > 150 && errors > 100, "{fits} fits, {errors} errors");
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
