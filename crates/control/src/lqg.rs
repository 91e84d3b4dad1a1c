//! LQG design — the paper's stated future work (Sec. IV-C).
//!
//! The static-situation analysis observes that left turns suffer extra
//! *sensor noise* (the dotted right lane drifts out of frame) and
//! suggests "modeling the sensor noise in a linear-quadratic gaussian
//! (LQG) controller" as a future research direction. This module
//! implements that extension: the same delay-augmented LQR gain, but the
//! observer gain is a steady-state Kalman gain computed from explicit
//! process / measurement noise covariances — in particular a per-design
//! vision-noise level σ(y_L) that a fitted
//! [`PerceptionErrorProfile`] sets per `(situation, knob-config)` cell.
//!
//! Designs are configured through the [`LqgDesign`] builder (the
//! `HilConfig`/`CharacterizeConfig` idiom): construct with
//! [`LqgDesign::new`], override the noise model with
//! [`LqgDesign::with_noise`], and call [`LqgDesign::design`].

use crate::controller::Controller;
use crate::design::{ControllerConfig, LqrWeights};
use crate::errprofile::PerceptionErrorProfile;
use crate::model::{kmph_to_mps, VehicleParams};
use lkas_linalg::expm::zoh_discretize_with_delay;
use lkas_linalg::{riccati, LinalgError, Mat};
use serde::{Deserialize, Serialize};

/// Noise model for the LQG design.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseModel {
    /// Standard deviation of the vision measurement `y_L` (m).
    pub sigma_y_l: f64,
    /// Standard deviation of the gyro yaw-rate measurement (rad/s).
    pub sigma_yaw: f64,
    /// Process-noise intensity (lateral acceleration disturbances,
    /// m/s²).
    pub sigma_process: f64,
}

impl Default for NoiseModel {
    fn default() -> Self {
        NoiseModel::from_profile(&PerceptionErrorProfile::nominal())
    }
}

impl NoiseModel {
    /// Noise model for left turns with dotted lanes, where the paper
    /// observes substantially higher vision noise (Sec. IV-C,
    /// situations 15 & 16; Sec. IV-E, sectors 4 & 6). Derived from the
    /// documented default [`PerceptionErrorProfile::noisy_vision`]
    /// profile (σ(y_L) = 0.20 m).
    pub fn noisy_vision() -> Self {
        NoiseModel::from_profile(&PerceptionErrorProfile::noisy_vision())
    }

    /// A noise model whose vision channel comes from a fitted
    /// perception error profile: σ(y_L) is the profile's
    /// (floor-clamped) noise std, while the gyro and process channels
    /// keep their nominal hardware levels — perception fitting says
    /// nothing about them.
    pub fn from_profile(profile: &PerceptionErrorProfile) -> Self {
        NoiseModel {
            sigma_y_l: profile.measurement_variance().sqrt(),
            sigma_yaw: 0.002,
            sigma_process: 0.05,
        }
    }
}

/// Builder-configured LQG design: LQR gain identical to
/// [`crate::design::design_controller_with`], observer gain from an
/// explicit noise model.
///
/// The struct is `#[non_exhaustive]`; construct with [`LqgDesign::new`]
/// and [`LqgDesign::with_noise`] (fields stay readable). The design
/// plant is the default vehicle under the default LQR weights.
///
/// # Example
///
/// ```
/// use lkas_control::design::ControllerConfig;
/// use lkas_control::lqg::{LqgDesign, NoiseModel};
///
/// let cfg = ControllerConfig { speed_kmph: 30.0, h_ms: 25.0, tau_ms: 23.1 };
/// let ctl = LqgDesign::new(cfg).with_noise(NoiseModel::noisy_vision()).design().unwrap();
/// let rho = lkas_linalg::eig::spectral_radius(&ctl.closed_loop_matrix()).unwrap();
/// assert!(rho < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct LqgDesign {
    /// The `(v, h, τ)` design point.
    pub config: ControllerConfig,
    /// Process / measurement noise covariances for the Kalman observer.
    pub noise: NoiseModel,
}

impl LqgDesign {
    /// A design for a `(v, h, τ)` point with the default noise model.
    pub fn new(config: ControllerConfig) -> Self {
        LqgDesign { config, noise: NoiseModel::default() }
    }

    /// Replaces the noise model (builder style).
    pub fn with_noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// Designs the controller: delay-augmented LQR gain plus a
    /// steady-state Kalman observer gain from the configured noise
    /// model.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError`] for invalid `(h, τ)` or Riccati
    /// failures.
    pub fn design(&self) -> Result<Controller, LinalgError> {
        let config = &self.config;
        let h = config.h_ms / 1000.0;
        let tau = config.tau_ms / 1000.0;
        if !(tau > 0.0 && tau <= h) {
            return Err(LinalgError::InvalidInput("τ must lie in (0, h]"));
        }
        let (vehicle, weights) = (VehicleParams::default(), LqrWeights::default());
        let vx = kmph_to_mps(config.speed_kmph);
        let a = vehicle.a_matrix_with_actuator(vx, crate::ACTUATOR_TIME_CONSTANT_S);
        let b = VehicleParams::b_matrix_with_actuator(crate::ACTUATOR_TIME_CONSTANT_S);
        let (ad, b_prev, b_curr) = zoh_discretize_with_delay(&a, &b, h, tau)?;

        // Identical LQR synthesis to the nominal design.
        let n = 5;
        let mut a_aug = Mat::zeros(n + 1, n + 1);
        a_aug.set_block(0, 0, &ad);
        a_aug.set_block(0, n, &b_prev);
        let mut b_aug = Mat::zeros(n + 1, 1);
        b_aug.set_block(0, 0, &b_curr);
        b_aug[(n, 0)] = 1.0;
        let c = VehicleParams::c_look_ahead_act();
        let mut q = c.transpose().matmul(&c)?.scale(weights.q_yl);
        q[(1, 1)] += weights.q_r;
        let mut q_aug = Mat::zeros(n + 1, n + 1);
        q_aug.set_block(0, 0, &q);
        q_aug[(n, n)] = 1e-6;
        let r = Mat::from_rows(&[&[weights.r_steer]]);
        let (k_aug, _) = riccati::lqr(&a_aug, &b_aug, &q_aug, &r)?;

        // Kalman observer from the explicit noise model. Process noise
        // enters as lateral-force disturbances along the steering-force
        // direction of the 4-state chassis (the actuator state is
        // driven by our own commands and carries no disturbance).
        let c_meas = VehicleParams::c_measurements_act();
        let b4 = vehicle.b_matrix();
        let mut g = Mat::zeros(n, 1);
        for i in 0..4 {
            g[(i, 0)] = b4[(i, 0)] * self.noise.sigma_process * h;
        }
        let mut w = g.matmul(&g.transpose())?;
        for i in 0..n {
            w[(i, i)] += 1e-8; // keep W strictly PD for the dual DARE
        }
        let noise = &self.noise;
        let v = Mat::diag(&[noise.sigma_y_l * noise.sigma_y_l, noise.sigma_yaw * noise.sigma_yaw]);
        let l = riccati::kalman_gain(&ad, &c_meas, &w, &v)?;

        Ok(Controller::from_design(*config, ad, b_prev, b_curr, k_aug, l, c_meas))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::Measurement;
    use lkas_linalg::eig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn cfg() -> ControllerConfig {
        ControllerConfig { speed_kmph: 30.0, h_ms: 25.0, tau_ms: 23.1 }
    }

    #[test]
    fn lqg_design_is_stable() {
        for noise in [NoiseModel::default(), NoiseModel::noisy_vision()] {
            let ctl = LqgDesign::new(cfg()).with_noise(noise).design().unwrap();
            assert!(eig::is_schur_stable(&ctl.closed_loop_matrix()).unwrap());
        }
    }

    #[test]
    fn noise_model_derives_from_profiles() {
        // The documented default profiles reproduce the historical
        // hard-coded numbers exactly.
        assert_eq!(NoiseModel::default().sigma_y_l, 0.05);
        assert_eq!(NoiseModel::noisy_vision().sigma_y_l, 0.20);
        // A fitted profile flows into the vision channel, floored away
        // from zero.
        let fitted = PerceptionErrorProfile::from_moments(0.01, 0.12, 0.0);
        assert!((NoiseModel::from_profile(&fitted).sigma_y_l - 0.12).abs() < 1e-12);
        let degenerate = PerceptionErrorProfile::from_moments(0.0, 0.0, 0.0);
        assert!(NoiseModel::from_profile(&degenerate).sigma_y_l > 0.0);
    }

    #[test]
    fn noisy_vision_trusts_measurements_less() {
        // Higher σ(y_L) shrinks the observer gain on the vision channel.
        let trusting = LqgDesign::new(cfg()).design().unwrap();
        let wary = LqgDesign::new(cfg()).with_noise(NoiseModel::noisy_vision()).design().unwrap();
        // The correction a unit y_L innovation makes to the lane-offset
        // estimate.
        let probe = |c: Controller| c.observer_gain()[(3, 0)].abs();
        assert!(probe(wary) < probe(trusting));
    }

    #[test]
    fn lqg_attenuates_measurement_noise_better() {
        // Closed-loop on the true plant with noisy y_L: the
        // noise-matched LQG produces a calmer steering signal than the
        // nominal design.
        let sim = |mut ctl: Controller| -> f64 {
            let p = VehicleParams::default();
            let vx = kmph_to_mps(30.0);
            let (ad, bp, bc) =
                zoh_discretize_with_delay(&p.a_matrix(vx), &p.b_matrix(), 0.025, 0.0231).unwrap();
            let c = VehicleParams::c_measurements().block(0, 0, 1, 4);
            let mut x = Mat::col_vec(&[0.0, 0.0, 0.0, 0.2]);
            let mut rng = StdRng::seed_from_u64(7);
            let mut u_prev = 0.0;
            let mut steer_energy = 0.0;
            for _ in 0..400 {
                let noise = (rng.gen::<f64>() - 0.5) * 2.0 * 0.3; // ±0.3 m
                let y_l = c.matmul(&x).unwrap()[(0, 0)] + noise;
                let u = ctl.step(&Measurement { y_l: Some(y_l), yaw_rate: x[(1, 0)] });
                steer_energy += u * u;
                let mut xn = ad.matmul(&x).unwrap();
                for i in 0..4 {
                    xn[(i, 0)] += bp[(i, 0)] * u_prev + bc[(i, 0)] * u;
                }
                x = xn;
                u_prev = u;
            }
            steer_energy
        };
        let nominal = crate::design::design_controller(&cfg()).unwrap();
        let lqg = LqgDesign::new(cfg()).with_noise(NoiseModel::noisy_vision()).design().unwrap();
        assert!(sim(lqg) < sim(nominal), "LQG must spend less steering energy under vision noise");
    }

    #[test]
    fn invalid_config_rejected() {
        let bad = ControllerConfig { speed_kmph: 30.0, h_ms: 25.0, tau_ms: 26.0 };
        assert!(LqgDesign::new(bad).design().is_err());
    }
}
