//! Scene substrate: situations, tracks, and the synthetic camera world.
//!
//! The paper runs its LKAS against the Webots physics simulator, which
//! supplies camera frames of a road world and receives steering commands.
//! This crate is the camera-world half of that substitution:
//!
//! * [`situation`] — the environmental feature taxonomy of Table I
//!   (lane color/form, road layout, scene/weather) and the 21 evaluated
//!   situations of Table III,
//! * [`track`] — arc-length parameterized tracks built from sectors,
//!   including the nine-sector dynamic track of Fig. 7,
//! * [`camera`] — a pinhole camera with ground-plane back-projection,
//! * [`render`] — the renderer producing scene-referred linear RGB
//!   irradiance frames (lane markings, asphalt, sky, head-light and
//!   street-light illumination) from a vehicle pose in track coordinates.
//!
//! Pair the renderer with [`lkas_imaging::Sensor`] to obtain the RAW
//! Bayer frames the ISP consumes.
//!
//! [`lkas_imaging::Sensor`]: lkas_imaging::sensor::Sensor
//!
//! # Example
//!
//! ```
//! use lkas_scene::situation::TABLE3_SITUATIONS;
//! use lkas_scene::track::Track;
//! use lkas_scene::render::SceneRenderer;
//! use lkas_scene::camera::Camera;
//!
//! let track = Track::for_situation(&TABLE3_SITUATIONS[0], 200.0);
//! let renderer = SceneRenderer::new(Camera::default_automotive());
//! let frame = renderer.render(&track, 10.0, 0.1, 0.0);
//! assert_eq!(frame.width(), 512);
//! ```

#![forbid(unsafe_code)]

pub mod camera;
pub mod render;
pub mod situation;
pub mod track;

pub use camera::Camera;
pub use render::{RenderError, SceneRenderer};
pub use situation::{LaneColor, LaneForm, RoadLayout, SceneKind, SituationFeatures};
pub use track::{LaneSpec, Sector, Track};
