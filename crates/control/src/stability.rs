//! Switched-system stability: CQLF search (paper Sec. III-D).
//!
//! The runtime reconfiguration switches between situation-specific
//! controllers with different `(h_i, τ_i)` designs. Following the
//! paper's references [15], [16], stability under arbitrary switching is
//! certified by a *common quadratic Lyapunov function* (CQLF): a single
//! `P ≻ 0` with `AᵢᵀPAᵢ − P ≺ 0` for every closed-loop mode `Aᵢ`.
//!
//! [`find_cqlf`] searches for such a `P` by solving each mode's
//! discrete Lyapunov equation and testing the candidates (including
//! their normalized sum, which frequently certifies families of
//! similarly damped modes). The search is sound — a returned `P` always
//! satisfies the inequalities — but incomplete: `None` means "no
//! certificate found", not "unstable".

use lkas_linalg::{eig, lyapunov, Mat};

/// Margin for the strict Lyapunov decrease: we require
/// `λmax(AᵀPA − P) < −margin·λmin(P)` scaled check via eigenvalues.
const DECREASE_TOL: f64 = 1e-9;

/// Verifies that `P` is a CQLF for all `modes`: `P ≻ 0` and
/// `AᵢᵀPAᵢ − P ≺ 0`.
pub fn verify_cqlf(modes: &[Mat], p: &Mat) -> bool {
    if !p.is_positive_definite() {
        return false;
    }
    modes.iter().all(|a| {
        let Ok(apa) = a.transpose().matmul(p).and_then(|m| m.matmul(a)) else {
            return false;
        };
        let Ok(mut diff) = apa.sub_mat(p) else { return false };
        diff.symmetrize();
        // Negative definite ⇔ −diff positive definite (with tolerance).
        let mut neg = diff.scale(-1.0);
        for i in 0..neg.rows() {
            neg[(i, i)] -= DECREASE_TOL;
        }
        neg.is_positive_definite()
    })
}

/// Searches for a common quadratic Lyapunov function across closed-loop
/// modes.
///
/// Candidates tried, in order:
/// 1. each mode's own Lyapunov solution `Pᵢ` (with `Q = I`),
/// 2. the sum `Σ Pᵢ`,
/// 3. iterative refinement: `P ← Σᵢ AᵢᵀPAᵢ/N + I` (a contraction
///    whenever the switched system is "jointly" stable enough), up to 64
///    rounds.
///
/// Returns a verified `P`, or `None` if no candidate certifies.
///
/// # Example
///
/// ```
/// use lkas_control::stability::{find_cqlf, verify_cqlf};
/// use lkas_linalg::Mat;
///
/// let modes = vec![Mat::diag(&[0.5, 0.8]), Mat::diag(&[0.7, 0.3])];
/// let p = find_cqlf(&modes).expect("diagonal stable modes share a CQLF");
/// assert!(verify_cqlf(&modes, &p));
/// ```
pub fn find_cqlf(modes: &[Mat]) -> Option<Mat> {
    if modes.is_empty() {
        return None;
    }
    let n = modes[0].rows();
    // Every mode must itself be Schur; otherwise no CQLF can exist.
    for a in modes {
        if a.rows() != n || !a.is_square() {
            return None;
        }
        if !eig::is_schur_stable(a).unwrap_or(false) {
            return None;
        }
    }
    // Search with a relative contraction margin ε: find P for the
    // inflated modes Aᵢ/√(1−ε), so the returned P certifies the real
    // modes with slack ε·P (robust against the tiny mode differences of
    // a (h, τ) family). Fall back to smaller margins if the inflated
    // family is too hot.
    for eps in [0.04_f64, 0.015, 0.005, 0.0] {
        let factor = 1.0 / (1.0 - eps).sqrt();
        let scaled: Vec<Mat> = modes.iter().map(|a| a.scale(factor)).collect();
        if !scaled.iter().all(|a| eig::is_schur_stable(a).unwrap_or(false)) {
            continue;
        }
        if let Some(p) = find_cqlf_inner(&scaled) {
            if verify_cqlf(modes, &p) {
                return Some(p);
            }
        }
    }
    None
}

/// The candidate pipeline on an already-margin-inflated mode family.
fn find_cqlf_inner(modes: &[Mat]) -> Option<Mat> {
    let n = modes[0].rows();
    let identity = Mat::identity(n);

    // Candidate 1: per-mode Lyapunov solutions.
    let mut per_mode: Vec<Mat> = Vec::new();
    for a in modes {
        if let Ok(p) = lyapunov::solve_discrete_lyapunov(a, &identity) {
            if verify_cqlf(modes, &p) {
                return Some(p);
            }
            per_mode.push(p);
        }
    }
    // Candidate 2: the sum of the per-mode solutions.
    if !per_mode.is_empty() {
        let mut sum = per_mode[0].clone();
        for p in &per_mode[1..] {
            sum = sum.add_mat(p).ok()?;
        }
        if verify_cqlf(modes, &sum) {
            return Some(sum);
        }
    }
    // Candidate 3: multiplicative-weights search. Maintain mode weights
    // θᵢ; solve the weighted Lyapunov fixed point
    // `P = I + Σ θᵢ AᵢᵀPAᵢ` and boost the weights of violating modes.
    let n_modes = modes.len();
    let mut theta = vec![1.0 / n_modes as f64; n_modes];
    for _round in 0..60 {
        // Fixed-point solve of the weighted equation.
        let mut p = identity.clone();
        for _ in 0..400 {
            let mut next = identity.clone();
            for (a, &w) in modes.iter().zip(&theta) {
                let apa = a.transpose().matmul(&p).ok()?.matmul(a).ok()?;
                next = next.add_mat(&apa.scale(w)).ok()?;
            }
            next.symmetrize();
            let diff = next.sub_mat(&p).ok()?.max_abs();
            let scale = next.max_abs().max(1.0);
            p = next;
            if !p.is_finite() {
                break;
            }
            if diff < 1e-11 * scale {
                break;
            }
        }
        if !p.is_finite() {
            // Weighted joint dynamics too hot; cool the weights.
            for w in &mut theta {
                *w *= 0.5;
            }
            continue;
        }
        if verify_cqlf(modes, &p) {
            return Some(p);
        }
        // Estimate each mode's violation λmax(AᵀPA − P) and reweight.
        let mut violations = Vec::with_capacity(n_modes);
        for a in modes {
            let apa = a.transpose().matmul(&p).ok()?.matmul(a).ok()?;
            let mut diff = apa.sub_mat(&p).ok()?;
            diff.symmetrize();
            violations.push(sym_lambda_max(&diff));
        }
        let vmax = violations.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        if vmax <= 0.0 {
            // Numerically certified but verify_cqlf's tolerance said no;
            // nudge and re-verify once.
            let mut padded = p.clone();
            for i in 0..padded.rows() {
                padded[(i, i)] += 1e-9;
            }
            if verify_cqlf(modes, &padded) {
                return Some(padded);
            }
        }
        let norm = p.max_abs().max(1.0);
        for (w, v) in theta.iter_mut().zip(&violations) {
            *w *= (1.5 * v / norm).exp().clamp(0.25, 4.0);
        }
        let total: f64 = theta.iter().sum();
        for w in &mut theta {
            *w /= total;
        }
    }
    None
}

/// Largest eigenvalue of a symmetric matrix via shifted power iteration.
fn sym_lambda_max(m: &Mat) -> f64 {
    let n = m.rows();
    let shift = m.norm_1() + 1.0;
    // Power iteration on M + shift·I (positive definite dominant).
    let mut v = vec![1.0 / (n as f64).sqrt(); n];
    let mut lambda = 0.0;
    for _ in 0..200 {
        let mut next = vec![0.0f64; n];
        for i in 0..n {
            let mut acc = shift * v[i];
            for j in 0..n {
                acc += m[(i, j)] * v[j];
            }
            next[i] = acc;
        }
        let norm: f64 = next.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm < 1e-300 {
            return -shift;
        }
        for x in &mut next {
            *x /= norm;
        }
        let prev = lambda;
        lambda = norm;
        v = next;
        if (lambda - prev).abs() < 1e-12 * lambda.abs().max(1.0) {
            break;
        }
    }
    lambda - shift
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_stable_mode_always_certifies() {
        let a = Mat::from_rows(&[&[0.5, 0.2], &[0.0, 0.6]]);
        let p = find_cqlf(std::slice::from_ref(&a)).expect("stable mode");
        assert!(verify_cqlf(&[a], &p));
    }

    #[test]
    fn unstable_mode_rejected() {
        let good = Mat::diag(&[0.5, 0.5]);
        let bad = Mat::diag(&[1.1, 0.5]);
        assert!(find_cqlf(&[good, bad]).is_none());
    }

    #[test]
    fn commuting_stable_modes_certify() {
        // Diagonal (hence commuting) stable matrices always share a CQLF.
        let modes = vec![
            Mat::diag(&[0.9, 0.2, 0.5]),
            Mat::diag(&[0.1, 0.8, 0.6]),
            Mat::diag(&[0.4, 0.4, 0.9]),
        ];
        let p = find_cqlf(&modes).expect("commuting modes");
        assert!(verify_cqlf(&modes, &p));
    }

    #[test]
    fn verify_rejects_non_pd() {
        let a = Mat::diag(&[0.5, 0.5]);
        let p = Mat::diag(&[1.0, -1.0]);
        assert!(!verify_cqlf(&[a], &p));
    }

    #[test]
    fn verify_rejects_non_decreasing() {
        // P = I does not certify a rotation-scaled matrix with ρ close
        // to 1 along a skewed direction.
        let a = Mat::from_rows(&[&[0.0, 2.0], &[-0.3, 0.0]]); // ρ(A)=0.77 but ‖A‖ > 1
        let p = Mat::identity(2);
        assert!(!verify_cqlf(std::slice::from_ref(&a), &p));
        // The proper Lyapunov solution certifies it.
        let found = find_cqlf(std::slice::from_ref(&a)).expect("stable");
        assert!(verify_cqlf(&[a], &found));
    }

    #[test]
    fn similar_damped_modes_certify() {
        // Two moderately damped rotations with slightly different
        // frequencies — the shape of the paper's (h, τ) mode family.
        let rot = |r: f64, th: f64| {
            Mat::from_rows(&[&[r * th.cos(), -r * th.sin()], &[r * th.sin(), r * th.cos()]])
        };
        let modes = vec![rot(0.8, 0.3), rot(0.85, 0.25), rot(0.75, 0.4)];
        let p = find_cqlf(&modes).expect("similar modes");
        assert!(verify_cqlf(&modes, &p));
    }

    #[test]
    fn empty_input_returns_none() {
        assert!(find_cqlf(&[]).is_none());
    }
}
