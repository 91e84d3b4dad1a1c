//! # lkas-faults — deterministic fault injection for the HiL loop
//!
//! The paper's claim is *robustness* of the closed-up LKAS pipeline, but
//! a nominal reproduction can only observe failures, never provoke them.
//! This crate provides the provocation side: a seed-driven [`FaultPlan`]
//! DSL describing *which* fault hits *which* control cycles, and the
//! per-cycle [`CycleFaults`] view the HiL simulator consumes.
//!
//! Supported fault classes (one per stage of the sensing→actuation
//! chain):
//!
//! * **camera frame drop** — the frame never arrives; classifiers cannot
//!   run and perception has nothing to measure;
//! * **Bayer-domain corruption** — hot pixels, row banding, exposure
//!   glitches applied to the RAW frame between sensor and ISP (the
//!   primitives live in [`lkas_imaging::sensor`]);
//! * **classifier misprediction** — the situation estimate is forced to
//!   a wrong value for the faulted cycles (either an explicit situation
//!   or a deterministic confusion of the truth);
//! * **perception timeout** — the cycle's actuation lands `extra_ms`
//!   after the designed sensor-to-actuator delay `τ`, violating the
//!   delay bound the controller was designed for;
//! * **actuation faults** — a stuck or sluggish steering actuator
//!   ([`lkas_vehicle::ActuatorFault`]).
//!
//! Everything is a pure function of the plan (and its seed): the same
//! plan replays bit-identically, across runs and across executor thread
//! counts, which is what makes fault campaigns usable as regression
//! tests.

#![forbid(unsafe_code)]

mod inject;
mod plan;

pub use inject::{apply_bayer_fault, apply_bayer_fault_window, derive_cycle_seed, BayerFaultKind};
pub use plan::{
    ActuationFault, CycleFaults, FaultKind, FaultPlan, FaultWindow, Misprediction,
    FAULT_PLAN_SCHEMA,
};
