//! Frenet-frame vehicle simulation at the 5 ms physics step.

use crate::actuation::{ActuatorFault, SteeringActuator};
use crate::{DEPARTURE_LIMIT_M, PHYSICS_STEP_S};
use lkas_control::model::{kmph_to_mps, VehicleParams, LOOK_AHEAD_M};
use lkas_scene::situation::SituationFeatures;
use lkas_scene::track::Track;
use serde::{Deserialize, Serialize};

/// The vehicle's state in the track's Frenet frame.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VehicleState {
    /// Arc position along the lane center (m).
    pub s: f64,
    /// Lateral offset of the CG from the lane center (m, left positive).
    pub d: f64,
    /// Heading error w.r.t. the lane tangent (rad, left positive).
    pub psi: f64,
    /// Body-frame lateral velocity (m/s).
    pub vy: f64,
    /// Yaw rate (rad/s).
    pub r: f64,
    /// Longitudinal speed (m/s).
    pub vx: f64,
    /// Commanded longitudinal speed (m/s); `vx` tracks it first-order.
    pub vx_target: f64,
}

impl VehicleState {
    /// A lane-centered state at the track start with the given speed in
    /// km/h.
    pub fn centered(speed_kmph: f64) -> Self {
        let vx = kmph_to_mps(speed_kmph);
        VehicleState { s: 0.0, d: 0.0, psi: 0.0, vy: 0.0, r: 0.0, vx, vx_target: vx }
    }
}

/// The vehicle simulator: RK4 single-track dynamics on a track, with
/// actuation dynamics and departure detection.
#[derive(Debug, Clone)]
pub struct VehicleSim {
    track: Track,
    params: VehicleParams,
    actuator: SteeringActuator,
    state: VehicleState,
    departed: bool,
    time_s: f64,
}

impl VehicleSim {
    /// Creates a simulator on a track with an initial state.
    pub fn new(track: Track, state: VehicleState) -> Self {
        VehicleSim {
            track,
            params: VehicleParams::default(),
            actuator: SteeringActuator::default(),
            state,
            departed: false,
            time_s: 0.0,
        }
    }

    /// Borrow the track.
    pub fn track(&self) -> &Track {
        &self.track
    }

    /// Current state.
    pub fn state(&self) -> &VehicleState {
        &self.state
    }

    /// Elapsed simulation time (s).
    pub fn time_s(&self) -> f64 {
        self.time_s
    }

    /// `true` once the vehicle has left the lane (crash, Fig. 8).
    /// Latching: a departed run stays departed.
    pub fn departed(&self) -> bool {
        self.departed
    }

    /// `true` once the vehicle has passed the end of the track.
    pub fn finished(&self) -> bool {
        self.state.s >= self.track.total_length()
    }

    /// Sets the commanded longitudinal speed (km/h); the actual speed
    /// tracks it with a first-order lag (≈ 1 s), modeling the paper's
    /// per-situation speed knob.
    pub fn set_target_speed_kmph(&mut self, kmph: f64) {
        self.state.vx_target = kmph_to_mps(kmph);
    }

    /// Injects (or clears) a steering-actuator failure mode — the
    /// actuation hook of the fault-injection campaign.
    pub fn set_actuator_fault(&mut self, fault: Option<ActuatorFault>) {
        self.actuator.set_fault(fault);
    }

    /// The currently injected actuator failure mode.
    pub fn actuator_fault(&self) -> Option<ActuatorFault> {
        self.actuator.fault()
    }

    /// The ground-truth look-ahead lateral deviation `y_L` (m) — the
    /// quantity whose |·| the QoC metric averages (Eq. (1)), and exactly
    /// what an ideal perception stage would measure.
    pub fn true_y_l(&self) -> f64 {
        let kappa = self.track.curvature_at(self.state.s + LOOK_AHEAD_M);
        self.state.d + LOOK_AHEAD_M * self.state.psi - kappa * LOOK_AHEAD_M * LOOK_AHEAD_M / 2.0
    }

    /// The situation visible in the camera's preview region, `preview_m`
    /// ahead of the vehicle — what a perfect frame classifier would
    /// report (it sees the upcoming curve before the wheels reach it).
    pub fn preview_situation(&self, preview_m: f64) -> SituationFeatures {
        self.track.situation_at(self.state.s + preview_m)
    }

    /// Index of the current track sector.
    pub fn sector_index(&self) -> usize {
        self.track.sector_index_at(self.state.s)
    }

    /// Frenet pose for the renderer: `(s, d, ψ)`.
    pub fn camera_pose(&self) -> (f64, f64, f64) {
        (self.state.s, self.state.d, self.state.psi)
    }

    /// Advances one 5 ms physics step under the given steering command
    /// (rad). Returns the achieved front-wheel angle.
    ///
    /// After a departure the state freezes (the run is over), matching
    /// the paper's treatment of crashed cases.
    pub fn step(&mut self, steering_command: f64) -> f64 {
        if self.departed {
            return self.actuator.angle();
        }
        let dt = PHYSICS_STEP_S;
        let delta = self.actuator.step(steering_command, dt);
        let kappa = self.track.curvature_at(self.state.s);

        // RK4 on [s, d, psi, vy, r]; vx follows its target first-order.
        let deriv = |st: &VehicleState| -> [f64; 5] {
            let VehicleParams { mass: m, inertia_z: iz, lf, lr, cf, cr } = self.params;
            let vx = st.vx.max(1.0);
            let (sin_psi, cos_psi) = st.psi.sin_cos();
            let s_dot = vx * cos_psi - st.vy * sin_psi;
            let d_dot = vx * sin_psi + st.vy * cos_psi;
            let psi_dot = st.r - kappa * s_dot;
            let vy_dot = -(cf + cr) / (m * vx) * st.vy
                + ((cr * lr - cf * lf) / (m * vx) - vx) * st.r
                + cf / m * delta;
            let r_dot = (cr * lr - cf * lf) / (iz * vx) * st.vy
                - (cf * lf * lf + cr * lr * lr) / (iz * vx) * st.r
                + cf * lf / iz * delta;
            [s_dot, d_dot, psi_dot, vy_dot, r_dot]
        };
        let add = |st: &VehicleState, k: &[f64; 5], f: f64| -> VehicleState {
            VehicleState {
                s: st.s + k[0] * f,
                d: st.d + k[1] * f,
                psi: st.psi + k[2] * f,
                vy: st.vy + k[3] * f,
                r: st.r + k[4] * f,
                ..*st
            }
        };
        let k1 = deriv(&self.state);
        let k2 = deriv(&add(&self.state, &k1, dt / 2.0));
        let k3 = deriv(&add(&self.state, &k2, dt / 2.0));
        let k4 = deriv(&add(&self.state, &k3, dt));
        let mut next = self.state;
        next.s += dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]);
        next.d += dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]);
        next.psi += dt / 6.0 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2]);
        next.vy += dt / 6.0 * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3]);
        next.r += dt / 6.0 * (k1[4] + 2.0 * k2[4] + 2.0 * k3[4] + k4[4]);
        // Longitudinal speed tracking (1 s lag).
        next.vx += (next.vx_target - next.vx) * (dt / 1.0);

        self.state = next;
        self.time_s += dt;
        if self.state.d.abs() > DEPARTURE_LIMIT_M {
            self.departed = true;
        }
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkas_scene::situation::{
        LaneColor, LaneForm, RoadLayout, SceneKind, SituationFeatures, TABLE3_SITUATIONS,
    };

    fn straight_track() -> Track {
        Track::for_situation(&TABLE3_SITUATIONS[0], 2000.0)
    }

    #[test]
    fn straight_driving_stays_centered() {
        let mut sim = VehicleSim::new(straight_track(), VehicleState::centered(50.0));
        for _ in 0..1000 {
            sim.step(0.0);
        }
        assert!(sim.state().d.abs() < 1e-6);
        assert!((sim.state().s - 5.0 * 13.889).abs() < 0.5, "s = {}", sim.state().s);
        assert!(!sim.departed());
    }

    #[test]
    fn uncontrolled_turn_departs() {
        // Straight steering on a curve leaves the lane — the Fig. 8
        // Case 1 crash mechanism.
        let sit = SituationFeatures::new(
            LaneColor::White,
            LaneForm::Continuous,
            RoadLayout::RightTurn,
            SceneKind::Day,
        );
        let mut sim =
            VehicleSim::new(Track::for_situation(&sit, 2000.0), VehicleState::centered(50.0));
        for _ in 0..2000 {
            sim.step(0.0);
            if sim.departed() {
                break;
            }
        }
        assert!(sim.departed(), "vehicle must leave the lane on an unsteered curve");
    }

    #[test]
    fn steering_left_moves_left() {
        let mut sim = VehicleSim::new(straight_track(), VehicleState::centered(50.0));
        for _ in 0..100 {
            sim.step(0.05);
        }
        assert!(sim.state().d > 0.01, "d = {}", sim.state().d);
        assert!(sim.state().psi > 0.0);
    }

    #[test]
    fn true_y_l_combines_offset_and_heading() {
        let mut sim = VehicleSim::new(
            straight_track(),
            VehicleState { d: 0.3, ..VehicleState::centered(50.0) },
        );
        assert!((sim.true_y_l() - 0.3).abs() < 1e-9);
        sim.state.psi = 0.02;
        assert!((sim.true_y_l() - (0.3 + 5.5 * 0.02)).abs() < 1e-9);
    }

    #[test]
    fn true_y_l_accounts_for_curvature() {
        let sit = SituationFeatures::new(
            LaneColor::White,
            LaneForm::Continuous,
            RoadLayout::LeftTurn,
            SceneKind::Day,
        );
        let sim = VehicleSim::new(Track::for_situation(&sit, 2000.0), VehicleState::centered(30.0));
        // Centered on a left turn, the look-ahead point of the lane
        // center is left of the vehicle axis ⇒ y_L < 0.
        assert!(sim.true_y_l() < -0.05);
    }

    #[test]
    fn departure_latches_and_freezes() {
        let mut sim = VehicleSim::new(
            straight_track(),
            VehicleState { d: 5.0, ..VehicleState::centered(50.0) },
        );
        sim.step(0.0);
        assert!(sim.departed());
        let s_at_crash = sim.state().s;
        sim.step(0.0);
        assert_eq!(sim.state().s, s_at_crash, "state frozen after departure");
    }

    #[test]
    fn speed_tracks_target() {
        let mut sim = VehicleSim::new(straight_track(), VehicleState::centered(50.0));
        sim.set_target_speed_kmph(30.0);
        for _ in 0..1000 {
            sim.step(0.0);
        }
        assert!((sim.state().vx - kmph_to_mps(30.0)).abs() < 0.1);
    }

    #[test]
    fn sector_tracking_on_fig7() {
        let mut sim = VehicleSim::new(Track::fig7_track(), VehicleState::centered(50.0));
        assert_eq!(sim.sector_index(), 0);
        sim.state.s = 200.0;
        assert_eq!(sim.sector_index(), 1);
    }
}
