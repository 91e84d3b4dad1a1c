//! Delay-aware discrete LQR design (paper refs. [14]–[16]).
//!
//! A controller is annotated with a pair `(h, τ)` — sampling period and
//! worst-case sensor-to-actuation delay, both derived from the platform
//! schedule — plus the vehicle speed `v`. Discretization splits each
//! period into a `[0, τ)` segment driven by the previous input and a
//! `[τ, h)` segment driven by the current one; LQR gains are computed
//! for the delay-augmented state `[x; u_prev]`.

use crate::controller::Controller;
use crate::model::{kmph_to_mps, VehicleParams};
use lkas_linalg::expm::zoh_discretize_with_delay;
use lkas_linalg::{riccati, LinalgError, Mat};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// A control design point: the paper's `[v, h, τ]` triple (Table III).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Vehicle speed (km/h) — 30 or 50 in the paper.
    pub speed_kmph: f64,
    /// Sampling period (ms).
    pub h_ms: f64,
    /// Worst-case sensor-to-actuation delay (ms), `0 < τ ≤ h`.
    pub tau_ms: f64,
}

/// LQR weights; the defaults are used for every experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LqrWeights {
    /// Weight on the squared look-ahead deviation `y_L²`.
    pub q_yl: f64,
    /// Damping weight on the yaw rate.
    pub q_r: f64,
    /// Weight on the squared steering input.
    pub r_steer: f64,
}

impl Default for LqrWeights {
    fn default() -> Self {
        LqrWeights { q_yl: 8.0, q_r: 0.8, r_steer: 18.0 }
    }
}

/// Designs the runtime controller for a `(v, h, τ)` configuration with
/// the default vehicle and weights.
///
/// # Errors
///
/// Returns [`LinalgError`] if the configuration is invalid (τ outside
/// `(0, h]`) or the Riccati recursion fails (cannot happen for the
/// vehicle model in its valid speed range).
pub fn design_controller(config: &ControllerConfig) -> Result<Controller, LinalgError> {
    design_controller_with(config, &VehicleParams::default(), &LqrWeights::default())
}

/// Designs the runtime controller with explicit vehicle parameters and
/// weights.
///
/// # Errors
///
/// See [`design_controller`].
pub fn design_controller_with(
    config: &ControllerConfig,
    vehicle: &VehicleParams,
    weights: &LqrWeights,
) -> Result<Controller, LinalgError> {
    let h = config.h_ms / 1000.0;
    let tau = config.tau_ms / 1000.0;
    if !(tau > 0.0 && tau <= h) {
        return Err(LinalgError::InvalidInput("τ must lie in (0, h]"));
    }
    let vx = kmph_to_mps(config.speed_kmph);
    // Design plant includes the first-order steering actuator: states
    // [v_y, r, Δψ, y, δ].
    let a = vehicle.a_matrix_with_actuator(vx, crate::ACTUATOR_TIME_CONSTANT_S);
    let b = VehicleParams::b_matrix_with_actuator(crate::ACTUATOR_TIME_CONSTANT_S);

    // Discretize with the intra-period delay.
    let (ad, b_prev, b_curr) = zoh_discretize_with_delay(&a, &b, h, tau)?;

    // Delay-augmented system: z = [x; u_prev].
    //   z[k+1] = [Ad  B_prev; 0  0] z[k] + [B_curr; I] u[k]
    let n = 5;
    let mut a_aug = Mat::zeros(n + 1, n + 1);
    a_aug.set_block(0, 0, &ad);
    a_aug.set_block(0, n, &b_prev);
    let mut b_aug = Mat::zeros(n + 1, 1);
    b_aug.set_block(0, 0, &b_curr);
    b_aug[(n, 0)] = 1.0;

    // Cost: q_yl·y_L² + q_r·r² + r_steer·u², with a tiny regularization
    // keeping Q_aug positive semidefinite-detectable.
    let c = VehicleParams::c_look_ahead_act();
    let mut q = c.transpose().matmul(&c)?.scale(weights.q_yl);
    q[(1, 1)] += weights.q_r;
    let mut q_aug = Mat::zeros(n + 1, n + 1);
    q_aug.set_block(0, 0, &q);
    q_aug[(n, n)] = 1e-6;
    let r = Mat::from_rows(&[&[weights.r_steer]]);

    let (k_aug, _) = riccati::lqr(&a_aug, &b_aug, &q_aug, &r)?;

    // Observer: predictor-form Luenberger gain from the dual Riccati
    // with nominal noise levels (vision y_L noise dominates). The
    // actuator state is driven by our own commands, hence near-zero
    // process noise.
    let c_meas = VehicleParams::c_measurements_act();
    let w = Mat::diag(&[1e-3, 1e-3, 1e-5, 1e-4, 1e-7]);
    let v = Mat::diag(&[2e-3, 1e-6]);
    let l = riccati::kalman_gain(&ad, &c_meas, &w, &v)?;

    Ok(Controller::from_design(*config, ad, b_prev, b_curr, k_aug, l, c_meas))
}

/// Quantized design-point key for the memoizing cache: 0.1 km/h speed
/// resolution, 1 µs timing resolution — well below anything that
/// changes a designed gain, and exact for every knob-space value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct DesignKey {
    speed_dkmph: u32,
    h_us: u32,
    tau_us: u32,
}

impl DesignKey {
    fn of(config: &ControllerConfig) -> Self {
        DesignKey {
            speed_dkmph: (config.speed_kmph * 10.0).round() as u32,
            h_us: (config.h_ms * 1000.0).round() as u32,
            tau_us: (config.tau_ms * 1000.0).round() as u32,
        }
    }
}

static DESIGN_CACHE: OnceLock<Mutex<HashMap<DesignKey, Controller>>> = OnceLock::new();

fn design_cache() -> &'static Mutex<HashMap<DesignKey, Controller>> {
    DESIGN_CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Like [`design_controller`], but memoized process-wide on the
/// quantized `(v, h, τ)` design point, so sweeps that revisit the same
/// configuration (every HiL run does, thousands of times across a
/// characterization) skip the Riccati recursions entirely.
///
/// Returns the controller plus `true` when it was served from the
/// cache.
///
/// # Errors
///
/// See [`design_controller`]. Failures are not cached.
pub fn design_controller_cached(
    config: &ControllerConfig,
) -> Result<(Controller, bool), LinalgError> {
    let key = DesignKey::of(config);
    if let Some(found) = design_cache().lock().expect("design cache lock").get(&key) {
        return Ok((found.clone(), true));
    }
    // Design outside the lock: a Riccati solve is ~ms-scale and would
    // serialize every sweep worker behind one mutex. Concurrent misses
    // on the same key just both derive; the results are identical.
    let controller = design_controller(config)?;
    design_cache()
        .lock()
        .expect("design cache lock")
        .entry(key)
        .or_insert_with(|| controller.clone());
    Ok((controller, false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkas_linalg::eig;

    fn case1() -> ControllerConfig {
        ControllerConfig { speed_kmph: 50.0, h_ms: 25.0, tau_ms: 24.6 }
    }

    #[test]
    fn design_succeeds_for_table3_configs() {
        for (v, h, tau) in [
            (50.0, 25.0, 23.1),
            (50.0, 25.0, 22.4),
            (30.0, 25.0, 23.1),
            (30.0, 45.0, 40.7),
            (50.0, 35.0, 30.1),
            (50.0, 40.0, 35.6),
        ] {
            let cfg = ControllerConfig { speed_kmph: v, h_ms: h, tau_ms: tau };
            let c = design_controller(&cfg).expect("design must succeed");
            let rho = eig::spectral_radius(&c.closed_loop_matrix()).unwrap();
            assert!(rho < 1.0, "unstable for [{v}, {h}, {tau}]");
        }
    }

    #[test]
    fn closed_loop_is_schur() {
        let c = design_controller(&case1()).unwrap();
        let rho = eig::spectral_radius(&c.closed_loop_matrix()).unwrap();
        assert!(rho < 1.0, "spectral radius {rho}");
        // And reasonably damped — the loop must settle within ~2 s at
        // 40 Hz.
        assert!(rho < 0.999, "spectral radius {rho} too close to 1");
    }

    #[test]
    fn invalid_tau_rejected() {
        let bad = ControllerConfig { speed_kmph: 50.0, h_ms: 25.0, tau_ms: 30.0 };
        assert!(design_controller(&bad).is_err());
        let zero = ControllerConfig { speed_kmph: 50.0, h_ms: 25.0, tau_ms: 0.0 };
        assert!(design_controller(&zero).is_err());
    }

    #[test]
    fn larger_delay_gives_more_conservative_gain() {
        // With a bigger τ (same h), the first gain entry on y_L shrinks —
        // the classic delay-robustness trade-off.
        let fast =
            design_controller(&ControllerConfig { speed_kmph: 50.0, h_ms: 25.0, tau_ms: 5.0 })
                .unwrap();
        let slow = design_controller(&case1()).unwrap();
        let norm = |c: &Controller| c.gain().as_slice().iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(
            norm(&slow) <= norm(&fast) * 1.5,
            "slow-gain {} vs fast-gain {}",
            norm(&slow),
            norm(&fast)
        );
    }

    #[test]
    fn both_speeds_design() {
        for v in [30.0, 50.0] {
            let cfg = ControllerConfig { speed_kmph: v, h_ms: 25.0, tau_ms: 23.0 };
            let c = design_controller(&cfg).unwrap();
            assert!(eig::is_schur_stable(&c.closed_loop_matrix()).unwrap());
        }
    }

    #[test]
    fn cached_design_hits_on_revisit() {
        // A design point unique to this test so other tests sharing the
        // process-wide cache can't pre-populate it.
        let cfg = ControllerConfig { speed_kmph: 49.7, h_ms: 25.0, tau_ms: 21.3 };
        let (first, first_hit) = design_controller_cached(&cfg).unwrap();
        assert!(!first_hit, "first lookup must derive");
        let (second, second_hit) = design_controller_cached(&cfg).unwrap();
        assert!(second_hit, "second lookup must hit");
        assert_eq!(first.config(), second.config());
    }

    #[test]
    fn cached_design_propagates_errors() {
        let bad = ControllerConfig { speed_kmph: 50.0, h_ms: 25.0, tau_ms: 30.0 };
        assert!(design_controller_cached(&bad).is_err());
    }
}
