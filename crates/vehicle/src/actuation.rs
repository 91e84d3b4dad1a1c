//! Steering actuation dynamics.
//!
//! The paper models actuation after an automotive electric power
//! steering system (ref. [18]): the commanded front-wheel angle is
//! tracked through a first-order lag with a slew-rate limit.

use lkas_control::MAX_STEER_RAD;
use serde::{Deserialize, Serialize};

/// An injectable actuator failure mode (the `lkas-faults` actuation
/// hook).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ActuatorFault {
    /// The wheel holds its current angle; commands are ignored.
    Stuck,
    /// The actuator responds, but slower: the time constant is inflated
    /// and the slew limit reduced by `response_scale` ∈ (0, 1].
    Sluggish {
        /// Fraction of nominal responsiveness that remains.
        response_scale: f64,
    },
}

/// A first-order, rate-limited steering actuator.
///
/// # Example
///
/// ```
/// use lkas_vehicle::actuation::SteeringActuator;
///
/// let mut act = SteeringActuator::default();
/// // A step command is tracked gradually, not instantaneously.
/// let first = act.step(0.3, 0.005);
/// assert!(first > 0.0 && first < 0.3);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SteeringActuator {
    /// First-order time constant (s).
    pub time_constant: f64,
    /// Maximum slew rate (rad/s).
    pub max_rate: f64,
    angle: f64,
    fault: Option<ActuatorFault>,
}

impl SteeringActuator {
    /// Creates an actuator with the given lag and rate limit.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is non-positive.
    pub fn new(time_constant: f64, max_rate: f64) -> Self {
        assert!(time_constant > 0.0 && max_rate > 0.0, "actuator parameters must be positive");
        SteeringActuator { time_constant, max_rate, angle: 0.0, fault: None }
    }

    /// Current front-wheel angle (rad).
    pub fn angle(&self) -> f64 {
        self.angle
    }

    /// Injects (or, with `None`, clears) a failure mode. The wheel angle
    /// is continuous across injection and recovery — only the response
    /// changes.
    pub fn set_fault(&mut self, fault: Option<ActuatorFault>) {
        self.fault = fault;
    }

    /// The currently injected failure mode.
    pub fn fault(&self) -> Option<ActuatorFault> {
        self.fault
    }

    /// Advances the actuator by `dt` seconds toward `command` (rad) and
    /// returns the achieved angle.
    pub fn step(&mut self, command: f64, dt: f64) -> f64 {
        let scale = match self.fault {
            Some(ActuatorFault::Stuck) => return self.angle,
            Some(ActuatorFault::Sluggish { response_scale }) => response_scale.clamp(1e-3, 1.0),
            None => 1.0,
        };
        let command = command.clamp(-MAX_STEER_RAD, MAX_STEER_RAD);
        let desired_rate = (command - self.angle) / self.time_constant * scale;
        let limit = self.max_rate * scale;
        let rate = desired_rate.clamp(-limit, limit);
        self.angle = (self.angle + rate * dt).clamp(-MAX_STEER_RAD, MAX_STEER_RAD);
        self.angle
    }
}

impl Default for SteeringActuator {
    fn default() -> Self {
        // ~50 ms lag, 0.8 rad/s slew — typical EPS characteristics.
        SteeringActuator::new(0.05, 0.8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_to_command() {
        let mut act = SteeringActuator::default();
        for _ in 0..400 {
            act.step(0.2, 0.005);
        }
        assert!((act.angle() - 0.2).abs() < 1e-3);
    }

    #[test]
    fn rate_limit_respected() {
        let mut act = SteeringActuator::default();
        let before = act.angle();
        let after = act.step(0.5, 0.005);
        assert!((after - before).abs() <= 0.8 * 0.005 + 1e-12);
    }

    #[test]
    fn saturates_at_max_steer() {
        let mut act = SteeringActuator::default();
        for _ in 0..2000 {
            act.step(10.0, 0.005);
        }
        assert!(act.angle() <= MAX_STEER_RAD + 1e-12);
    }

    #[test]
    fn starts_centered() {
        assert_eq!(SteeringActuator::default().angle(), 0.0);
    }

    #[test]
    #[should_panic]
    fn invalid_params_panic() {
        let _ = SteeringActuator::new(0.0, 1.0);
    }

    #[test]
    fn stuck_fault_freezes_the_wheel() {
        let mut act = SteeringActuator::default();
        for _ in 0..100 {
            act.step(0.2, 0.005);
        }
        let frozen = act.angle();
        act.set_fault(Some(ActuatorFault::Stuck));
        for _ in 0..100 {
            assert_eq!(act.step(-0.3, 0.005), frozen);
        }
        // Recovery: the wheel moves again from where it froze.
        act.set_fault(None);
        let next = act.step(-0.3, 0.005);
        assert!(next < frozen, "must resume tracking after the fault clears");
    }

    #[test]
    fn sluggish_fault_slows_convergence() {
        let track_for = |fault: Option<ActuatorFault>| {
            let mut act = SteeringActuator::default();
            act.set_fault(fault);
            for _ in 0..60 {
                act.step(0.2, 0.005);
            }
            act.angle()
        };
        let nominal = track_for(None);
        let lagged = track_for(Some(ActuatorFault::Sluggish { response_scale: 0.25 }));
        assert!(lagged > 0.0, "a sluggish actuator still moves");
        assert!(lagged < nominal / 2.0, "but markedly slower ({lagged} vs {nominal})");
    }
}
