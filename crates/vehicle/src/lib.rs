//! Vehicle substrate: the physics half of the Webots substitution.
//!
//! Integrates the single-track vehicle dynamics in the track's Frenet
//! frame with an RK4 scheme at the Webots simulation step (5 ms), models
//! the steering actuation (first-order lag + rate limit, after the
//! electric-power-steering characteristics of the paper's ref. [18]),
//! and detects lane departures (the Fig. 8 "crash" events).
//!
//! The camera/processing timing lives in the `lkas` core crate; this
//! crate only advances physics and answers geometric queries (true
//! look-ahead deviation, current situation).
//!
//! # Example
//!
//! ```
//! use lkas_vehicle::sim::{VehicleSim, VehicleState};
//! use lkas_scene::track::Track;
//! use lkas_scene::situation::TABLE3_SITUATIONS;
//!
//! let track = Track::for_situation(&TABLE3_SITUATIONS[0], 500.0);
//! let mut sim = VehicleSim::new(track, VehicleState::centered(50.0));
//! for _ in 0..100 {
//!     sim.step(0.0); // steer straight for half a second
//! }
//! assert!(sim.state().s > 5.0); // ≈ 6.9 m at 50 km/h
//! assert!(!sim.departed());
//! ```

#![forbid(unsafe_code)]

pub mod actuation;
pub mod sim;

pub use actuation::{ActuatorFault, SteeringActuator};
pub use sim::{VehicleSim, VehicleState};

/// Physics integration step (s) — the Webots world step of 5 ms
/// (paper Sec. IV-A).
pub const PHYSICS_STEP_S: f64 = 0.005;

/// Lane departure threshold: the CG leaving the lane center by more
/// than this distance counts as a crash (half lane width plus a small
/// margin before hitting the adjacent lane/shoulder).
pub const DEPARTURE_LIMIT_M: f64 = lkas_scene::track::LANE_WIDTH / 2.0 + 0.45;
