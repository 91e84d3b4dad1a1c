//! Workspace umbrella crate for the DATE 2021 LKAS reproduction.
//!
//! Re-exports every workspace crate so the runnable examples and the
//! cross-crate integration tests in `tests/` can reach the whole stack
//! through one dependency. Library users should depend on the individual
//! crates (most importantly [`lkas`]) directly.

#![forbid(unsafe_code)]

pub use lkas;
pub use lkas_control as control;
pub use lkas_imaging as imaging;
pub use lkas_linalg as linalg;
pub use lkas_nn as nn;
pub use lkas_perception as perception;
pub use lkas_platform as platform;
pub use lkas_scene as scene;
pub use lkas_vehicle as vehicle;
