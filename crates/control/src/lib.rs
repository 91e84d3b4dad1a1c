//! Control substrate: lateral vehicle dynamics and delay-aware LQR.
//!
//! The paper's controller (Sec. II, "Discrete-time control") is an
//! optimal LQR for the vision-based lateral dynamics of a bicycle-model
//! vehicle, designed per `(h, τ)` pair — sampling period and worst-case
//! sensor-to-actuation delay — following refs. [13]–[16]. This crate
//! implements:
//!
//! * [`model`] — the continuous-time single-track (bicycle) lateral
//!   dynamics with the look-ahead output `y_L = y + L_L·Δψ`,
//! * [`design`] — ZOH discretization with intra-period input delay,
//!   delay-augmented LQR gain design, and a Luenberger observer driven
//!   by the vision measurement `y_L` and the gyro yaw rate,
//! * [`controller`] — the runtime controller (estimate → gain → steer),
//! * [`lqg`] — the LQG variant the paper names as future work
//!   (Sec. IV-C): the observer gain becomes a steady-state Kalman gain
//!   for explicit sensor-noise models, configured through the
//!   [`lqg::LqgDesign`] builder,
//! * [`errprofile`] — measured perception error profiles (bias, noise
//!   std, miss rate of `y_L` vs ground truth) feeding the LQG noise
//!   model, the coasting observer, and the certificates,
//! * [`observer`] — the steady-state Kalman [`observer::LaneObserver`]
//!   the degradation policy coasts on through perception outages,
//! * [`certify`] — propagation of an error profile through the closed
//!   loop into a per-cell robustness margin against the lane
//!   half-width,
//! * [`stability`] — closed-loop Schur checks and the common quadratic
//!   Lyapunov function (CQLF) search certifying switched stability
//!   across situation-specific `(h_i, τ_i)` modes (Sec. III-D).
//!
//! # Example
//!
//! ```
//! use lkas_control::design::{design_controller, ControllerConfig};
//!
//! // Case 1 of Table V: 50 km/h, h = 25 ms, τ = 24.6 ms.
//! let config = ControllerConfig { speed_kmph: 50.0, h_ms: 25.0, tau_ms: 24.6 };
//! let controller = design_controller(&config).unwrap();
//! let rho = lkas_linalg::eig::spectral_radius(&controller.closed_loop_matrix()).unwrap();
//! assert!(rho < 1.0);
//! ```

#![forbid(unsafe_code)]

pub mod certify;
pub mod controller;
pub mod design;
pub mod errprofile;
pub mod lqg;
pub mod model;
pub mod observer;
pub mod stability;

pub use certify::{certify, RobustnessCertificate, LANE_HALF_WIDTH_M};
pub use controller::{Controller, Measurement};
pub use design::{design_controller, ControllerConfig};
pub use errprofile::PerceptionErrorProfile;
pub use model::{VehicleParams, LOOK_AHEAD_M};
pub use observer::LaneObserver;

/// Steering-angle saturation applied by the controller and the plant
/// (rad, ≈ 30°).
pub const MAX_STEER_RAD: f64 = 0.52;

/// First-order time constant of the steering actuator (s), shared by
/// the design plant and the `lkas-vehicle` actuation model.
pub const ACTUATOR_TIME_CONSTANT_S: f64 = 0.05;
