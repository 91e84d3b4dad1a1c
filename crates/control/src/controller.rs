//! The runtime steering controller: observer + delay-augmented LQR gain.

use crate::design::ControllerConfig;
use crate::MAX_STEER_RAD;
use lkas_linalg::Mat;

/// One sample of sensor data available to the controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Vision-estimated look-ahead lateral deviation (m). `None` if the
    /// perception stage failed this frame — the observer then runs on
    /// its prediction alone (the paper's Case 1/2 failure mode).
    pub y_l: Option<f64>,
    /// Gyro yaw rate (rad/s).
    pub yaw_rate: f64,
}

/// Runtime state-feedback controller with a Luenberger observer.
///
/// Created by [`crate::design::design_controller`]. Internally it tracks
/// the state estimate `x̂ = [v_y, r, Δψ, y, δ]` (the last entry is the
/// modeled actuator angle) and the previously applied steering command
/// (the delay-augmentation state).
#[derive(Debug, Clone)]
pub struct Controller {
    config: ControllerConfig,
    ad: Mat,
    b_prev: Mat,
    b_curr: Mat,
    /// LQR gain on `[x; u_prev]` (1×(n+1)).
    k: Mat,
    /// Observer (predictor) gain (n×2).
    l: Mat,
    c_meas: Mat,
    x_hat: Mat,
    u_prev: f64,
    /// Consecutive gated measurements; after `MAX_CONSECUTIVE_REJECTS`
    /// the next measurement is accepted unconditionally so the observer
    /// can re-acquire after a genuine jump.
    rejects: u32,
}

/// Re-acquisition threshold for the innovation gate.
const MAX_CONSECUTIVE_REJECTS: u32 = 8;

/// Innovation gate on the vision channel (m): measurements whose `y_L`
/// innovation exceeds this are treated as outliers (lane
/// mis-association) and dropped.
const GATE_Y_L: f64 = 0.5;

impl Controller {
    /// Assembles a controller from design artifacts (used by the design
    /// module and the LQG extension).
    pub(crate) fn from_design(
        config: ControllerConfig,
        ad: Mat,
        b_prev: Mat,
        b_curr: Mat,
        k: Mat,
        l: Mat,
        c_meas: Mat,
    ) -> Self {
        let n = ad.rows();
        Controller {
            config,
            ad,
            b_prev,
            b_curr,
            k,
            l,
            c_meas,
            x_hat: Mat::zeros(n, 1),
            u_prev: 0.0,
            rejects: 0,
        }
    }

    /// The design point this controller was computed for.
    pub fn config(&self) -> ControllerConfig {
        self.config
    }

    /// The LQR gain row `[k_x | k_u_prev]`.
    pub fn gain(&self) -> &Mat {
        &self.k
    }

    /// The observer (predictor) gain `L` (n×2, columns: vision `y_L`,
    /// gyro yaw rate). Measurement error enters the closed loop through
    /// this gain — the robustness certificate propagates a perception
    /// error envelope through its vision column.
    pub fn observer_gain(&self) -> &Mat {
        &self.l
    }

    /// Adopts the state estimate and pending input of a previous
    /// controller — used on situation switches so the plant estimate
    /// survives the gain change (Sec. III-D).
    pub fn adopt_state(&mut self, previous: &Controller) {
        self.x_hat = previous.x_hat.clone();
        self.u_prev = previous.u_prev;
    }

    /// Runs one control period: consumes the measurement taken at the
    /// start of the period and returns the steering angle to apply
    /// `τ` after the sample instant (the delayed actuation).
    ///
    /// The returned angle is saturated to [`MAX_STEER_RAD`].
    pub fn step(&mut self, measurement: &Measurement) -> f64 {
        // Control law on the augmented state (current estimate + pending
        // input).
        let n = self.x_hat.rows();
        let mut u = 0.0;
        for i in 0..n {
            u -= self.k[(0, i)] * self.x_hat[(i, 0)];
        }
        u -= self.k[(0, n)] * self.u_prev;
        let u = u.clamp(-MAX_STEER_RAD, MAX_STEER_RAD);

        // Predictor-form observer update with innovation gating on the
        // vision channel (rejects lane mis-associations).
        let mut x_next = self.ad.matmul(&self.x_hat).expect("n×n · n×1");
        for i in 0..n {
            x_next[(i, 0)] += self.b_prev[(i, 0)] * self.u_prev + self.b_curr[(i, 0)] * u;
        }
        if let Some(y_l) = measurement.y_l {
            let y = Mat::col_vec(&[y_l, measurement.yaw_rate]);
            let innov =
                y.sub_mat(&self.c_meas.matmul(&self.x_hat).expect("2×n · n×1")).expect("2x1 − 2x1");
            if innov[(0, 0)].abs() > GATE_Y_L && self.rejects < MAX_CONSECUTIVE_REJECTS {
                self.rejects += 1;
            } else {
                self.rejects = 0;
                let corr = self.l.matmul(&innov).expect("n×2 · 2×1");
                x_next = x_next.add_mat(&corr).expect("n×1 + n×1");
            }
        }
        self.x_hat = x_next;
        self.u_prev = u;
        u
    }

    /// The closed-loop matrix of plant ⊕ observer ⊕ gain, used for
    /// stability certification. State ordering:
    /// `[x (n) ; x̂ (n) ; u_prev (1)]`.
    pub fn closed_loop_matrix(&self) -> Mat {
        // u = −Kx̂ − k_u u_prev (ignoring saturation)
        // x⁺  = Ad x + B_prev u_prev + B_curr u
        // x̂⁺ = Ad x̂ + B_prev u_prev + B_curr u + L C (x − x̂)
        // u_prev⁺ = u
        let n = self.ad.rows();
        let mut acl = Mat::zeros(2 * n + 1, 2 * n + 1);
        let kx = self.k.block(0, 0, 1, n);
        let ku = self.k[(0, n)];
        let lc = self.l.matmul(&self.c_meas).expect("n×2 · 2×n");
        // Row block for x⁺.
        acl.set_block(0, 0, &self.ad);
        let bk = self.b_curr.matmul(&kx).expect("n×1 · 1×n");
        for i in 0..n {
            for j in 0..n {
                acl[(i, n + j)] -= bk[(i, j)];
            }
            acl[(i, 2 * n)] = self.b_prev[(i, 0)] - self.b_curr[(i, 0)] * ku;
        }
        // Row block for x̂⁺.
        for i in 0..n {
            for j in 0..n {
                acl[(n + i, j)] = lc[(i, j)];
                acl[(n + i, n + j)] = self.ad[(i, j)] - lc[(i, j)] - bk[(i, j)];
            }
            acl[(n + i, 2 * n)] = self.b_prev[(i, 0)] - self.b_curr[(i, 0)] * ku;
        }
        // Row for u_prev⁺.
        for j in 0..n {
            acl[(2 * n, n + j)] = -kx[(0, j)];
        }
        acl[(2 * n, 2 * n)] = -ku;
        acl
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{design_controller, ControllerConfig};
    use crate::model::{kmph_to_mps, VehicleParams};
    use lkas_linalg::expm::zoh_discretize;

    fn controller() -> Controller {
        design_controller(&ControllerConfig { speed_kmph: 50.0, h_ms: 25.0, tau_ms: 24.6 }).unwrap()
    }

    /// Simulate the true plant at the controller's rate with perfect
    /// measurements derived from the true state.
    fn simulate(mut ctl: Controller, x0: [f64; 4], steps: usize) -> Vec<f64> {
        let p = VehicleParams::default();
        let vx = kmph_to_mps(50.0);
        let h = 0.025;
        let tau = 0.0246;
        let (ad, b_prev, b_curr) =
            lkas_linalg::expm::zoh_discretize_with_delay(&p.a_matrix(vx), &p.b_matrix(), h, tau)
                .unwrap();
        let mut x = Mat::col_vec(&x0);
        let mut u_prev = 0.0;
        let c = VehicleParams::c_measurements().block(0, 0, 1, 4);
        let mut y_ls = Vec::new();
        for _ in 0..steps {
            let y_l = c.matmul(&x).unwrap()[(0, 0)];
            y_ls.push(y_l);
            let u = ctl.step(&Measurement { y_l: Some(y_l), yaw_rate: x[(1, 0)] });
            let mut xn = ad.matmul(&x).unwrap();
            for i in 0..4 {
                xn[(i, 0)] += b_prev[(i, 0)] * u_prev + b_curr[(i, 0)] * u;
            }
            x = xn;
            u_prev = u;
        }
        y_ls
    }

    #[test]
    fn regulates_initial_offset_to_zero() {
        let y_ls = simulate(controller(), [0.0, 0.0, 0.0, 0.5], 400);
        let tail: f64 = y_ls[350..].iter().map(|v| v.abs()).sum::<f64>() / 50.0;
        assert!(tail < 0.02, "did not settle: tail MAE = {tail}");
        // And it actually started away from zero.
        assert!(y_ls[0].abs() > 0.4);
    }

    #[test]
    fn regulates_heading_error() {
        let y_ls = simulate(controller(), [0.0, 0.0, 0.05, 0.0], 400);
        let tail: f64 = y_ls[350..].iter().map(|v| v.abs()).sum::<f64>() / 50.0;
        assert!(tail < 0.02, "did not settle: tail MAE = {tail}");
    }

    #[test]
    fn output_saturates() {
        let mut ctl = controller();
        let u = ctl.step(&Measurement { y_l: Some(100.0), yaw_rate: 0.0 });
        assert!(u.abs() <= MAX_STEER_RAD + 1e-12);
    }

    #[test]
    fn missing_measurement_runs_open_loop() {
        let mut ctl = controller();
        // Feed a few measurements, then drop them; the controller must
        // keep producing finite commands.
        for _ in 0..5 {
            ctl.step(&Measurement { y_l: Some(0.3), yaw_rate: 0.01 });
        }
        for _ in 0..20 {
            let u = ctl.step(&Measurement { y_l: None, yaw_rate: 0.01 });
            assert!(u.is_finite());
        }
    }

    #[test]
    fn adopt_state_transfers_estimate() {
        let mut a = controller();
        for _ in 0..10 {
            a.step(&Measurement { y_l: Some(0.4), yaw_rate: 0.02 });
        }
        let mut b = controller();
        b.adopt_state(&a);
        assert_eq!(a.x_hat, b.x_hat);
        assert_eq!(a.u_prev, b.u_prev);
    }

    #[test]
    fn observer_tracks_true_state() {
        // Drive the plant open-loop with a small steering wiggle and
        // check the observer's y estimate converges to the truth.
        let p = VehicleParams::default();
        let vx = kmph_to_mps(50.0);
        let d = zoh_discretize(&p.a_matrix(vx), &p.b_matrix(), 0.025).unwrap();
        let mut ctl = controller();
        let mut x = Mat::col_vec(&[0.0, 0.0, 0.0, 0.3]);
        let c = VehicleParams::c_measurements().block(0, 0, 1, 4);
        for k in 0..200 {
            let y_l = c.matmul(&x).unwrap()[(0, 0)];
            let _ = ctl.step(&Measurement { y_l: Some(y_l), yaw_rate: x[(1, 0)] });
            // Plant follows the *controller's* commands so estimate and
            // truth share the input history; here emulate by applying
            // the same u the controller issued (stored as u_prev).
            let mut xn = d.ad.matmul(&x).unwrap();
            for i in 0..4 {
                xn[(i, 0)] += d.bd[(i, 0)] * ctl.u_prev;
            }
            x = xn;
            if k > 150 {
                assert!((ctl.x_hat[(3, 0)] - x[(3, 0)]).abs() < 0.1, "y estimate diverged");
            }
        }
    }
}
