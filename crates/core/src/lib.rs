//! # lkas — hardware- and situation-aware sensing for closed-loop control
//!
//! Reproduction of *"Hardware- and Situation-Aware Sensing for Robust
//! Closed-Loop Control Systems"* (De, Huang, Mohamed, Goswami,
//! Corporaal — DATE 2021). The crate implements the paper's method on
//! top of the workspace substrates:
//!
//! * **Situation definition** (Sec. III-A): [`lkas_scene::situation`],
//!   re-exported here.
//! * **Hardware- and situation-aware characterization** (Sec. III-B):
//!   [`characterize`] sweeps the configurable knobs (ISP approximation
//!   S0–S8, perception ROI 1–5, vehicle speed) per situation through
//!   closed-loop simulations and records the best-QoC tunings —
//!   regenerating Table III.
//! * **Situation identification** (Sec. III-C): [`identify`] wraps the
//!   three light-weight classifiers of `lkas-nn`.
//! * **Dynamic runtime reconfiguration** (Sec. III-D): the [`hil`]
//!   closed-loop simulator applies PR/control knobs in the same cycle
//!   and ISP knobs one cycle later, switching LQR controllers designed
//!   per `(v, h, τ)`.
//! * **Classifier invocation tuning** (Sec. IV-E): [`invocation`]
//!   implements the every-frame scheme and the paper's 300 ms
//!   round-robin scheme (and an extensible trait for richer schemes —
//!   the paper's "future work").
//! * **QoC metric** (Sec. IV-B): [`qoc`] computes the mean absolute
//!   error of the look-ahead deviation, per track sector and overall.
//! * **Online re-characterization** (beyond the paper): [`tuner`]
//!   refines the characterized table at runtime with a seeded,
//!   deterministic bandit warm-started from the [`characterize`]
//!   output's versioned [`KnobStore`], falling back to the prior in
//!   safe mode.
//! * **Evaluation cases** (Table V): [`cases`].
//! * **Switched stability** (Sec. III-D): [`stability`] certifies the
//!   mode family with a common quadratic Lyapunov function.
//!
//! # Quickstart
//!
//! ```no_run
//! use lkas::cases::Case;
//! use lkas::hil::{HilConfig, HilSimulator, SituationSource};
//! use lkas_scene::track::Track;
//!
//! // Drive the Fig. 7 nine-sector track with the robust baseline
//! // (Case 3: road + lane classifiers, full ISP).
//! let config = HilConfig::new(Case::Case3, SituationSource::Oracle);
//! let result = HilSimulator::new(Track::fig7_track(), config).run();
//! println!("crashed: {}, overall MAE: {:?}", result.crashed, result.overall_mae());
//! ```

#![forbid(unsafe_code)]

pub mod cases;
pub mod characterize;
pub mod degrade;
pub mod errprofile;
pub mod hil;
pub mod identify;
pub mod invocation;
pub mod knobs;
pub mod qoc;
pub mod stability;
pub mod tuner;

pub use cases::Case;
pub use characterize::{CharacterizeConfig, Characterizer, KnobStore, KNOB_STORE_SCHEMA};
pub use degrade::{CoastPolicy, DegradationConfig, DegradationMode, DegradationPolicy};
pub use errprofile::{ErrorProfileStore, ProfileFitter, ERROR_PROFILE_SCHEMA};
pub use hil::{HilConfig, HilResult, HilSimulator, SituationSource};
pub use knobs::{KnobTable, KnobTuning};
pub use tuner::{KnobTuner, TunerConfig};

// Re-export the situation taxonomy: it is the crate's core vocabulary.
pub use lkas_scene::situation::{
    LaneColor, LaneForm, RoadLayout, SceneKind, SituationFeatures, TABLE3_SITUATIONS,
};
