//! Platform substrate: the NVIDIA AGX Xavier timing and mapping model.
//!
//! The paper deploys the LKAS on an NVIDIA AGX Xavier (8-core Carmel
//! CPU + 512-core Volta GPU, 30 W budget) and reasons about the design
//! exclusively through *profiled runtimes* (Table II), the CPU/GPU task
//! mapping (Fig. 4(b)), and the derived sensor-to-actuation delay `τ`
//! and sampling period `h`. This crate reproduces that analytical layer:
//!
//! * [`resources`] — the platform's processing resources and power
//!   budget,
//! * [`profiles`] — the Table II runtime database (ISP configs S0–S8,
//!   perception, the three classifiers, control) plus the Fig. 1
//!   baseline detector runtimes,
//! * [`schedule`] — the pipeline schedule deriving `τ`, `h`
//!   (ceiled to the 5 ms simulation step, footnote 5 of the paper),
//!   achievable FPS and a power estimate.
//!
//! No real hardware is touched; see DESIGN.md §2 for why the timing
//! numbers are all the closed-loop method consumes.
//!
//! # Example
//!
//! ```
//! use lkas_platform::schedule::{LkasSchedule, ClassifierSet};
//! use lkas_imaging::isp::IspConfig;
//!
//! // Case 1 of Table V: full ISP, no classifiers.
//! let sched = LkasSchedule::new(IspConfig::S0, ClassifierSet::none());
//! let t = sched.timing();
//! assert!((t.tau_ms - 24.6).abs() < 0.2);
//! assert_eq!(t.h_ms, 25.0);
//! ```

#![forbid(unsafe_code)]

pub mod profiles;
pub mod resources;
pub mod schedule;

pub use profiles::{ClassifierKind, TaskKind};
pub use resources::{ProcessingResource, XavierPlatform};
pub use schedule::{ClassifierSet, LkasSchedule, TimingProfile};

/// The Webots simulation step (ms); `h` and `τ` are ceiled to multiples
/// of it (paper footnote 5).
pub const SIM_STEP_MS: f64 = 5.0;
