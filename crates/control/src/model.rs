//! Continuous-time single-track (bicycle) lateral dynamics.
//!
//! States `x = [v_y, r, Δψ, y]ᵀ`:
//!
//! * `v_y` — lateral velocity in the body frame (m/s),
//! * `r` — yaw rate (rad/s),
//! * `Δψ` — heading error w.r.t. the lane tangent (rad),
//! * `y` — lateral offset of the CG from the lane center (m).
//!
//! Input `u = δ_f` (front steering angle, rad); disturbance `κ` (road
//! curvature, 1/m) enters the heading-error dynamics. The vision output
//! is the look-ahead lateral deviation `y_L = y + L_L·Δψ` ([13]).

use lkas_linalg::Mat;
use serde::{Deserialize, Serialize};

/// Look-ahead distance used for the controller design (paper Sec. II:
/// `L_L = 5.5 m`).
pub const LOOK_AHEAD_M: f64 = 5.5;

/// Physical parameters of the single-track model (BMW X5-class SUV, as
/// used by the paper's Webots model).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VehicleParams {
    /// Vehicle mass (kg).
    pub mass: f64,
    /// Yaw moment of inertia (kg·m²).
    pub inertia_z: f64,
    /// CG-to-front-axle distance (m).
    pub lf: f64,
    /// CG-to-rear-axle distance (m).
    pub lr: f64,
    /// Front cornering stiffness (N/rad).
    pub cf: f64,
    /// Rear cornering stiffness (N/rad).
    pub cr: f64,
}

impl VehicleParams {
    /// The BMW X5-class parameter set used throughout the experiments.
    pub fn bmw_x5() -> Self {
        VehicleParams { mass: 2000.0, inertia_z: 3900.0, lf: 1.40, lr: 1.60, cf: 1.2e5, cr: 1.1e5 }
    }

    /// Continuous-time state matrix `A` at longitudinal speed `vx`
    /// (m/s).
    ///
    /// # Panics
    ///
    /// Panics if `vx <= 0`.
    pub fn a_matrix(&self, vx: f64) -> Mat {
        assert!(vx > 0.0, "speed must be positive");
        let VehicleParams { mass: m, inertia_z: iz, lf, lr, cf, cr } = *self;
        Mat::from_rows(&[
            &[-(cf + cr) / (m * vx), (cr * lr - cf * lf) / (m * vx) - vx, 0.0, 0.0],
            &[
                (cr * lr - cf * lf) / (iz * vx),
                -(cf * lf * lf + cr * lr * lr) / (iz * vx),
                0.0,
                0.0,
            ],
            &[0.0, 1.0, 0.0, 0.0],
            &[1.0, 0.0, vx, 0.0],
        ])
    }

    /// Continuous-time input matrix `B` (steering angle).
    pub fn b_matrix(&self) -> Mat {
        Mat::col_vec(&[self.cf / self.mass, self.cf * self.lf / self.inertia_z, 0.0, 0.0])
    }

    /// Measurement matrix for the runtime observer: vision `y_L` plus
    /// the gyro yaw rate `r`.
    pub fn c_measurements() -> Mat {
        Mat::from_rows(&[&[0.0, 0.0, LOOK_AHEAD_M, 1.0], &[0.0, 1.0, 0.0, 0.0]])
    }

    /// Continuous-time state matrix of the *design plant* including the
    /// first-order steering actuator (the paper models actuation after
    /// its ref. [18]): states `[v_y, r, Δψ, y, δ]`, input = commanded
    /// steering. `t_act` is the actuator time constant (s).
    ///
    /// Ignoring the actuator in the LQR design leaves ≈50 ms of
    /// unmodeled phase lag, which destabilizes the more aggressive
    /// short-delay designs — so every controller in this workspace is
    /// designed against this augmented plant.
    ///
    /// # Panics
    ///
    /// Panics if `vx <= 0` or `t_act <= 0`.
    pub fn a_matrix_with_actuator(&self, vx: f64, t_act: f64) -> Mat {
        assert!(t_act > 0.0, "actuator time constant must be positive");
        let a4 = self.a_matrix(vx);
        let b4 = self.b_matrix();
        let mut a = Mat::zeros(5, 5);
        a.set_block(0, 0, &a4);
        for i in 0..4 {
            a[(i, 4)] = b4[(i, 0)];
        }
        a[(4, 4)] = -1.0 / t_act;
        a
    }

    /// Input matrix of the design plant with actuator: the command
    /// drives the actuator state.
    pub fn b_matrix_with_actuator(t_act: f64) -> Mat {
        assert!(t_act > 0.0, "actuator time constant must be positive");
        Mat::col_vec(&[0.0, 0.0, 0.0, 0.0, 1.0 / t_act])
    }

    /// Look-ahead output row for the actuator-augmented plant.
    pub fn c_look_ahead_act() -> Mat {
        Mat::from_rows(&[&[0.0, 0.0, LOOK_AHEAD_M, 1.0, 0.0]])
    }

    /// Measurement matrix (vision `y_L` + gyro `r`) for the
    /// actuator-augmented plant.
    pub fn c_measurements_act() -> Mat {
        Mat::from_rows(&[&[0.0, 0.0, LOOK_AHEAD_M, 1.0, 0.0], &[0.0, 1.0, 0.0, 0.0, 0.0]])
    }
}

impl Default for VehicleParams {
    fn default() -> Self {
        VehicleParams::bmw_x5()
    }
}

/// Converts km/h to m/s.
pub fn kmph_to_mps(kmph: f64) -> f64 {
    kmph / 3.6
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkas_linalg::eig;

    #[test]
    fn dimensions() {
        let p = VehicleParams::bmw_x5();
        assert_eq!(p.a_matrix(13.9).shape(), (4, 4));
        assert_eq!(p.b_matrix().shape(), (4, 1));
        assert_eq!(VehicleParams::c_measurements().shape(), (2, 4));
    }

    #[test]
    fn lateral_subsystem_is_stable() {
        // The (v_y, r) subsystem of a passive understeering car is
        // Hurwitz at any sensible speed.
        let p = VehicleParams::bmw_x5();
        for v in [8.33, 13.89, 25.0] {
            let a = p.a_matrix(v).block(0, 0, 2, 2);
            let hurwitz = eig::eigenvalues(&a).unwrap().iter().all(|l| l.re < 0.0);
            assert!(hurwitz, "unstable at {v} m/s");
        }
    }

    #[test]
    fn full_state_matrix_has_integrators() {
        // Δψ and y are integrators: the 4-state A has (at least) two
        // eigenvalues at the origin.
        let p = VehicleParams::bmw_x5();
        let eigs = eig::eigenvalues(&p.a_matrix(13.9)).unwrap();
        // A defective zero eigenvalue pair perturbs to O(√ε) under the
        // QR iteration, hence the loose tolerance.
        let zeros = eigs.iter().filter(|l| l.abs() < 1e-3).count();
        assert_eq!(zeros, 2);
    }

    #[test]
    fn steering_produces_positive_yaw() {
        // Positive steering yields positive yaw acceleration.
        let p = VehicleParams::bmw_x5();
        let b = p.b_matrix();
        assert!(b[(1, 0)] > 0.0);
        assert!(b[(0, 0)] > 0.0);
    }

    #[test]
    fn kmph_conversion() {
        assert!((kmph_to_mps(50.0) - 13.888_9).abs() < 1e-3);
        assert!((kmph_to_mps(30.0) - 8.333_3).abs() < 1e-3);
    }

    #[test]
    #[should_panic]
    fn zero_speed_panics() {
        let _ = VehicleParams::bmw_x5().a_matrix(0.0);
    }
}
