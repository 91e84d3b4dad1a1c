//! Imaging substrate: RAW sensor frames and the five-stage ISP pipeline.
//!
//! The paper's LKAS processes camera frames through an image signal
//! processor (ISP) with five essential stages (Sec. II, Fig. 3(a)):
//! **demosaic** (DM), **denoise** (DN), **color map** (CM), **gamut map**
//! (GM) and **tone map** (TM). The hardware- and situation-aware method
//! *approximates* the ISP by skipping stages — configurations S0–S8 of
//! Table II — trading image quality for latency.
//!
//! This crate implements:
//!
//! * [`image`] — the [`RawImage`](image::RawImage) (Bayer RGGB mosaic),
//!   [`RgbImage`](image::RgbImage) and [`GrayImage`](image::GrayImage)
//!   containers and the [`PixelWindow`](image::PixelWindow) that
//!   capture and the ISP compute,
//! * [`sensor`] — the camera sensor model (spectral crosstalk,
//!   illumination-scaled shot/read noise, Bayer sampling) used by the
//!   scene renderer,
//! * [`isp`] — the five stages, the [`IspStage`](isp::IspStage) /
//!   [`IspConfig`](isp::IspConfig) knobs (S0–S8) and the
//!   [`IspPipeline`](isp::IspPipeline),
//! * [`kernel`] — the [`KernelBackend`](kernel::KernelBackend) toggle
//!   selecting scalar-reference vs. chunked-lane interiors for the hot
//!   kernels,
//! * [`scratch`] — the [`Scratch`](scratch::Scratch) working memory of
//!   the zero-allocation `*_into` frame path: the denoise intermediate
//!   and the tiling executor.
//!
//! # Example
//!
//! ```
//! use lkas_imaging::image::RgbImage;
//! use lkas_imaging::isp::{IspConfig, IspPipeline};
//! use lkas_imaging::sensor::{Sensor, SensorConfig};
//!
//! // Capture a flat mid-gray scene and run the full ISP (S0).
//! let scene = RgbImage::filled(64, 32, [0.4, 0.4, 0.4]);
//! let mut sensor = Sensor::new(SensorConfig::default(), 42);
//! let raw = sensor.capture(&scene, 1.0);
//! let rgb = IspPipeline::new(IspConfig::S0).process(&raw);
//! assert_eq!((rgb.width(), rgb.height()), (64, 32));
//! ```

#![forbid(unsafe_code)]

pub mod image;
pub mod isp;
pub mod kernel;
pub mod scratch;
pub mod sensor;

pub use image::{GrayImage, PixelWindow, RawImage, RgbImage};
pub use isp::{IspConfig, IspPipeline, IspStage};
pub use kernel::KernelBackend;
pub use scratch::Scratch;
pub use sensor::{Sensor, SensorConfig};
