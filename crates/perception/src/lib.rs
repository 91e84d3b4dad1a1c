//! Perception (PR) substrate: lateral-deviation estimation from frames.
//!
//! Implements the paper's perception stage (Sec. II, Fig. 3(b)):
//!
//! 1. **ROI selection** — one of five regions of interest ([`roi::Roi`],
//!    Table II) chosen per situation;
//! 2. **perspective transform** — the ROI ground region is rectified into
//!    a bird's-eye view ([`bev`]) through a plane homography;
//! 3. **binarization** — dynamic (statistics-based) thresholding of a
//!    marking-likelihood score ([`threshold`]);
//! 4. **sliding windows** — candidate lane pixels are collected bottom-up
//!    ([`sliding`]);
//! 5. **curve fitting** — a second-order polynomial per lane, from which
//!    the lateral deviation `y_L` at the look-ahead distance
//!    (`L_L = 5.5 m`) is computed ([`pipeline`]).
//!
//! The [`baselines`] module adds the two Fig. 1 comparison points: a
//! classical Sobel+Hough detector (fast, brittle) and a dense
//! full-frame scanline detector standing in for the CNN-segmentation
//! approaches (robust, expensive).
//!
//! # Example
//!
//! ```
//! use lkas_perception::pipeline::{Perception, PerceptionConfig};
//! use lkas_perception::roi::Roi;
//! use lkas_scene::{camera::Camera, render::SceneRenderer, track::Track};
//! use lkas_scene::situation::TABLE3_SITUATIONS;
//! use lkas_imaging::{isp::{IspConfig, IspPipeline}, sensor::{Sensor, SensorConfig}};
//!
//! let cam = Camera::default_automotive();
//! let track = Track::for_situation(&TABLE3_SITUATIONS[0], 500.0);
//! let frame = SceneRenderer::new(cam.clone()).render(&track, 10.0, 0.2, 0.0);
//! let raw = Sensor::new(SensorConfig::default(), 1).capture(&frame, 1.0);
//! let rgb = IspPipeline::new(IspConfig::S0).process(&raw);
//! let pr = Perception::new(PerceptionConfig::new(Roi::Roi1), cam);
//! let out = pr.process(&rgb).unwrap();
//! // Vehicle is 0.2 m left of center ⇒ y_L ≈ +0.2 m.
//! assert!((out.y_l - 0.2).abs() < 0.2);
//! ```

// `unsafe` is allowed in one module only, `bev`'s lane kernel, and each
// of its blocks must say why it is sound.
#![deny(unsafe_code, unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

pub mod baselines;
pub mod bev;
pub mod pipeline;
pub mod roi;
pub mod sliding;
pub mod threshold;

pub use pipeline::{
    Perception, PerceptionConfig, PerceptionError, PerceptionOutput, PerceptionScratch,
};
pub use roi::Roi;

/// Look-ahead distance at which the lateral deviation is evaluated
/// (paper Sec. II: `L_L = 5.5 m`).
pub const LOOK_AHEAD: f64 = 5.5;
