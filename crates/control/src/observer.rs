//! Steady-state Kalman lane observer for coasting through perception
//! outages.
//!
//! The degradation policy's original coast was a hold-and-extrapolate
//! of the *measurement* — a crude observer with no model. This module
//! replaces it with a principled one (the `u = Gr − K x̂` observer
//! structure of the LQG literature): a steady-state Kalman estimator of
//! the 4-state chassis `[v_y, r, Δψ, y]`, driven by the commanded
//! steering and corrected by whatever measurements survive the outage.
//!
//! Two correction gains are designed from the same dual Riccati
//! equation ([`lkas_linalg::riccati::kalman_gain`]):
//!
//! * `L_full` — vision `y_L` + gyro yaw rate, used while perception
//!   delivers; its vision-channel variance comes from the fitted
//!   [`PerceptionErrorProfile`], so a noisy cell trusts vision less;
//! * `L_gyro` — gyro-only, used while perception misses: the camera
//!   path is down but the inertial sensor is a separate device, so the
//!   coast stays closed-loop in heading while the lane offset runs
//!   open-loop on the model.
//!
//! Re-acquisition after a long coast is *innovation-gated* by the
//! caller (`crates/core/src/degrade.rs`): a returning measurement that
//! disagrees wildly with `x̂` is rejected as a perception glitch
//! instead of being allowed to yank the loop sideways — exactly the
//! stale-hold destabilization documented in `degrade.rs`.

use crate::errprofile::PerceptionErrorProfile;
use crate::model::{kmph_to_mps, VehicleParams, LOOK_AHEAD_M};
use lkas_linalg::expm::zoh_discretize;
use lkas_linalg::{riccati, LinalgError, Mat};

/// Steady-state Kalman estimator of the chassis state, designed for
/// one `(speed, h)` operating point and one perception error profile.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneObserver {
    ad: Mat,
    bd: Mat,
    c_meas: Mat,
    l_full: Mat,
    l_gyro: Mat,
    x_hat: Mat,
    speed_kmph: f64,
    h_ms: f64,
}

impl LaneObserver {
    /// Designs the observer for a `(speed, h)` operating point. The
    /// vision-channel measurement variance comes from `profile`; gyro
    /// and process noise use the nominal hardware levels of
    /// [`crate::lqg::NoiseModel`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError`] for non-positive speed/period or Riccati
    /// failures (cannot happen inside the knob space's speed range).
    pub fn design(
        speed_kmph: f64,
        h_ms: f64,
        profile: &PerceptionErrorProfile,
    ) -> Result<Self, LinalgError> {
        // A NaN speed or period is not positive either.
        let positive = |v: f64| v.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater);
        if !positive(speed_kmph) || !positive(h_ms) {
            return Err(LinalgError::InvalidInput("observer needs positive speed and period"));
        }
        let vehicle = VehicleParams::default();
        let h = h_ms / 1000.0;
        let vx = kmph_to_mps(speed_kmph);
        let d = zoh_discretize(&vehicle.a_matrix(vx), &vehicle.b_matrix(), h)?;

        // Process noise: lateral-force disturbances along the steering
        // direction, same shaping as the LQG design.
        let sigma_process = 0.05;
        let b4 = vehicle.b_matrix();
        let mut g = Mat::zeros(4, 1);
        for i in 0..4 {
            g[(i, 0)] = b4[(i, 0)] * sigma_process * h;
        }
        let mut w = g.matmul(&g.transpose())?;
        for i in 0..4 {
            w[(i, i)] += 1e-8;
        }
        let sigma_yaw = 0.002;
        let c_meas = VehicleParams::c_measurements();
        let v_full = Mat::diag(&[profile.measurement_variance(), sigma_yaw * sigma_yaw]);
        let l_full = riccati::kalman_gain(&d.ad, &c_meas, &w, &v_full)?;

        // Gyro-only coast gain. With the camera down, Δψ and y are pure
        // integrators invisible to the yaw-rate channel (the pair is
        // undetectable, the dual DARE diverges) — so the gain is
        // designed on the observable (v_y, r) subsystem alone and the
        // heading/offset states integrate open-loop, which is exactly
        // what coasting means. The chassis A is block-lower-triangular,
        // so the discretized (v_y, r) block is the discretization of
        // the continuous 2×2 block.
        let a2 = vehicle.a_matrix(vx).block(0, 0, 2, 2);
        let b2 = Mat::col_vec(&[b4[(0, 0)], b4[(1, 0)]]);
        let d2 = zoh_discretize(&a2, &b2, h)?;
        let mut w2 = Mat::zeros(2, 2);
        for i in 0..2 {
            for j in 0..2 {
                w2[(i, j)] = w[(i, j)];
            }
        }
        let c_gyro = Mat::from_rows(&[&[0.0, 1.0]]);
        let v_gyro = Mat::diag(&[sigma_yaw * sigma_yaw]);
        let l2 = riccati::kalman_gain(&d2.ad, &c_gyro, &w2, &v_gyro)?;
        let l_gyro = Mat::col_vec(&[l2[(0, 0)], l2[(1, 0)], 0.0, 0.0]);

        Ok(LaneObserver {
            ad: d.ad,
            bd: d.bd,
            c_meas,
            l_full,
            l_gyro,
            x_hat: Mat::zeros(4, 1),
            speed_kmph,
            h_ms,
        })
    }

    /// The operating point this observer was designed for.
    pub fn operating_point(&self) -> (f64, f64) {
        (self.speed_kmph, self.h_ms)
    }

    /// The current look-ahead estimate `ŷ_L = ŷ + L_L·Δψ̂` (m).
    pub fn y_l_estimate(&self) -> f64 {
        self.x_hat[(3, 0)] + LOOK_AHEAD_M * self.x_hat[(2, 0)]
    }

    /// The vision innovation a measurement `y_l` would produce (m).
    /// The caller gates re-acquisition on its magnitude.
    pub fn innovation(&self, y_l: f64) -> f64 {
        y_l - self.y_l_estimate()
    }

    /// Advances the estimate one period, predictor-form:
    /// `x̂⁺ = A_d x̂ + B_d u + L (y − C x̂)`. With a vision measurement
    /// the full gain corrects both channels; during a miss only the
    /// gyro channel corrects and the lane offset coasts on the model.
    pub fn step(&mut self, u: f64, y_l: Option<f64>, yaw_rate: f64) {
        let innovation_correction = match y_l {
            Some(y) => {
                let innov = Mat::col_vec(&[y - self.y_l_estimate(), yaw_rate - self.x_hat[(1, 0)]]);
                self.l_full.matmul(&innov).expect("observer gain shape")
            }
            None => {
                let innov = Mat::col_vec(&[yaw_rate - self.x_hat[(1, 0)]]);
                self.l_gyro.matmul(&innov).expect("gyro gain shape")
            }
        };
        let mut next = self.ad.matmul(&self.x_hat).expect("observer A shape");
        for i in 0..4 {
            next[(i, 0)] += self.bd[(i, 0)] * u + innovation_correction[(i, 0)];
        }
        self.x_hat = next;
    }

    /// Re-acquisition after a gated outage: snap the directly
    /// measurable channels to the accepted measurement (lane offset
    /// via `y = y_L − L_L·Δψ̂`, yaw rate from the gyro) and keep the
    /// unobservable velocity estimate.
    pub fn rebase(&mut self, y_l: f64, yaw_rate: f64) {
        self.x_hat[(3, 0)] = y_l - LOOK_AHEAD_M * self.x_hat[(2, 0)];
        self.x_hat[(1, 0)] = yaw_rate;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkas_linalg::eig;

    fn observer(speed: f64) -> LaneObserver {
        LaneObserver::design(speed, 25.0, &PerceptionErrorProfile::nominal()).unwrap()
    }

    #[test]
    fn designs_at_both_paper_speeds() {
        for speed in [30.0, 50.0] {
            let obs = observer(speed);
            assert_eq!(obs.operating_point(), (speed, 25.0));
            // Both error dynamics A − LC must be Schur stable.
            let a_full = obs.ad.sub_mat(&obs.l_full.matmul(&obs.c_meas).unwrap()).unwrap();
            assert!(eig::is_schur_stable(&a_full).unwrap(), "full gain unstable at {speed}");
            // The gyro coast corrects the (v_y, r) block; Δψ and y
            // integrate open-loop, so the full error dynamics are
            // marginally stable (unit integrator eigenvalues), never
            // expanding.
            let c_gyro = Mat::from_rows(&[&[0.0, 1.0, 0.0, 0.0]]);
            let a_gyro = obs.ad.sub_mat(&obs.l_gyro.matmul(&c_gyro).unwrap()).unwrap();
            assert!(
                eig::is_schur_stable(&a_gyro.block(0, 0, 2, 2)).unwrap(),
                "gyro-corrected chassis block unstable at {speed}"
            );
            // The defective unit eigenvalue pair perturbs O(√ε) under
            // the QR iteration (see the model's integrator test),
            // hence the loose tolerance.
            let rho = eig::spectral_radius(&a_gyro).unwrap();
            assert!(rho <= 1.0 + 1e-6, "coast error dynamics expand at {speed}: rho {rho}");
        }
    }

    #[test]
    fn gain_converges_to_the_steady_state_riccati_fixed_point() {
        // Iterate the filter Riccati difference equation from P₀ = W
        // and check the time-varying gain L_k converges to the
        // steady-state gain the design solved for — the observer really
        // is the stationary limit of the optimal filter.
        let obs = observer(50.0);
        let vehicle = VehicleParams::default();
        let h = 0.025;
        let sigma_process = 0.05;
        let b4 = vehicle.b_matrix();
        let mut g = Mat::zeros(4, 1);
        for i in 0..4 {
            g[(i, 0)] = b4[(i, 0)] * sigma_process * h;
        }
        let mut w = g.matmul(&g.transpose()).unwrap();
        for i in 0..4 {
            w[(i, i)] += 1e-8;
        }
        let v =
            Mat::diag(&[PerceptionErrorProfile::nominal().measurement_variance(), 0.002 * 0.002]);
        let (a, c) = (&obs.ad, &obs.c_meas);
        let mut p = w.clone();
        let mut l_k = Mat::zeros(4, 2);
        for _ in 0..2000 {
            // L = A P Cᵀ (V + C P Cᵀ)⁻¹, P⁺ = A P Aᵀ − L C P Aᵀ + W.
            let s = v.add_mat(&c.matmul(&p).unwrap().matmul(&c.transpose()).unwrap()).unwrap();
            let apc = a.matmul(&p).unwrap().matmul(&c.transpose()).unwrap();
            l_k = lkas_linalg::lu::solve(&s.transpose(), &apc.transpose()).unwrap().transpose();
            let apa = a.matmul(&p).unwrap().matmul(&a.transpose()).unwrap();
            let lcpa = l_k.matmul(c).unwrap().matmul(&p).unwrap().matmul(&a.transpose()).unwrap();
            p = apa.sub_mat(&lcpa).unwrap().add_mat(&w).unwrap();
            p.symmetrize();
        }
        let diff = l_k.sub_mat(&obs.l_full).unwrap().max_abs();
        assert!(diff < 1e-6, "recursive gain must converge to the design gain (diff {diff})");
    }

    #[test]
    fn estimate_converges_on_the_true_plant() {
        // Track a noiseless simulated plant from a wrong initial guess:
        // the estimation error must decay to numerical dust.
        let mut obs = observer(50.0);
        let mut x = Mat::col_vec(&[0.1, 0.02, 0.03, 0.4]);
        let u = 0.01;
        for _ in 0..400 {
            let y_l = x[(3, 0)] + LOOK_AHEAD_M * x[(2, 0)];
            let yaw = x[(1, 0)];
            obs.step(u, Some(y_l), yaw);
            let mut xn = obs.ad.matmul(&x).unwrap();
            for i in 0..4 {
                xn[(i, 0)] += obs.bd[(i, 0)] * u;
            }
            x = xn;
        }
        let y_true = x[(3, 0)] + LOOK_AHEAD_M * x[(2, 0)];
        assert!(
            (obs.y_l_estimate() - y_true).abs() < 1e-3,
            "estimate {} vs true {y_true}",
            obs.y_l_estimate()
        );
    }

    #[test]
    fn gyro_coast_tracks_heading_through_a_vision_outage() {
        // Converge with vision, then cut it: the gyro-corrected coast
        // must stay far closer to the truth than a frozen estimate.
        let mut obs = observer(50.0);
        let mut x = Mat::col_vec(&[0.0, 0.0, 0.0, 0.2]);
        let u = 0.02;
        let plant = |x: &Mat, u: f64, obs: &LaneObserver| {
            let mut xn = obs.ad.matmul(x).unwrap();
            for i in 0..4 {
                xn[(i, 0)] += obs.bd[(i, 0)] * u;
            }
            xn
        };
        for _ in 0..200 {
            let y_l = x[(3, 0)] + LOOK_AHEAD_M * x[(2, 0)];
            obs.step(u, Some(y_l), x[(1, 0)]);
            x = plant(&x, u, &obs);
        }
        let frozen = obs.y_l_estimate();
        for _ in 0..40 {
            obs.step(u, None, x[(1, 0)]);
            x = plant(&x, u, &obs);
        }
        let y_true = x[(3, 0)] + LOOK_AHEAD_M * x[(2, 0)];
        assert!(
            (obs.y_l_estimate() - y_true).abs() < (frozen - y_true).abs(),
            "coast {} vs frozen {frozen}, true {y_true}",
            obs.y_l_estimate()
        );
        assert!((obs.y_l_estimate() - y_true).abs() < 0.05);
    }

    #[test]
    fn rebase_snaps_the_measured_channels() {
        let mut obs = observer(30.0);
        obs.rebase(0.3, 0.01);
        assert!((obs.y_l_estimate() - 0.3).abs() < 1e-12);
        assert!((obs.x_hat[(1, 0)] - 0.01).abs() < 1e-12);
    }

    #[test]
    fn invalid_operating_point_rejected() {
        assert!(LaneObserver::design(0.0, 25.0, &PerceptionErrorProfile::nominal()).is_err());
        assert!(LaneObserver::design(50.0, 0.0, &PerceptionErrorProfile::nominal()).is_err());
    }

    #[test]
    fn noisier_profile_trusts_vision_less() {
        let clean = observer(50.0);
        let noisy =
            LaneObserver::design(50.0, 25.0, &PerceptionErrorProfile::noisy_vision()).unwrap();
        // The vision column of the gain shrinks on the lane-offset row.
        assert!(noisy.l_full[(3, 0)].abs() < clean.l_full[(3, 0)].abs());
    }
}
