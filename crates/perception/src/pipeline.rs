//! The full perception pipeline: frame in, lateral deviation out.

use crate::bev::{BevImage, BirdsEye, RectifyTaps};
use crate::roi::Roi;
use crate::sliding::{sliding_window_search_with, SlidingScratch, SlidingWindowResult};
use crate::threshold::{binarize_into_with, BinaryMask};
use crate::LOOK_AHEAD;
use lkas_imaging::image::{PixelWindow, RgbImage};
use lkas_imaging::kernel::KernelBackend;
use lkas_scene::camera::Camera;
use lkas_scene::track::LANE_WIDTH;
use serde::{Deserialize, Serialize};

/// Errors of the perception stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PerceptionError {
    /// No lane boundary passed the fit-quality gates — the controller
    /// must reuse its previous measurement (and will eventually fail if
    /// this persists, which is the paper's Case 1/2 crash mechanism).
    NoLaneDetected,
}

impl std::fmt::Display for PerceptionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PerceptionError::NoLaneDetected => write!(f, "no lane boundary detected"),
        }
    }
}

impl std::error::Error for PerceptionError {}

/// Configuration knobs of the perception stage (the paper's "PR knobs").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PerceptionConfig {
    /// Active region of interest.
    pub roi: Roi,
    /// Look-ahead distance at which `y_L` is evaluated (m).
    pub look_ahead: f64,
}

impl PerceptionConfig {
    /// Creates a configuration with the paper's look-ahead (5.5 m).
    pub fn new(roi: Roi) -> Self {
        PerceptionConfig { roi, look_ahead: LOOK_AHEAD }
    }
}

/// Output of one perception invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct PerceptionOutput {
    /// Lateral deviation of the vehicle from the lane center at the
    /// look-ahead distance (m, positive = vehicle left of center).
    pub y_l: f64,
    /// Number of lane boundaries used (1 or 2).
    pub lanes_used: usize,
    /// Total supporting pixels across the used fits.
    pub support: usize,
}

/// Reusable intermediates of one perception invocation: the bird's-eye
/// grid, the binary mask and the sliding-window/fit workspace. Holding
/// one `PerceptionScratch` across frames makes
/// [`Perception::process_into`] allocation-free in the steady state; the
/// scratch carries no state between calls, so results are identical to
/// [`Perception::process`]. It outlives ROI reconfigurations — a rebuilt
/// `Perception` reuses the same buffers.
#[derive(Debug, Clone)]
pub struct PerceptionScratch {
    bev: BevImage,
    mask: BinaryMask,
    sliding: SlidingScratch,
    taps: RectifyTaps,
}

impl PerceptionScratch {
    /// Creates an empty scratch; buffers grow to steady-state size on
    /// first use.
    pub fn new() -> Self {
        PerceptionScratch {
            bev: BevImage::empty(),
            mask: BinaryMask::empty(),
            sliding: SlidingScratch::new(),
            taps: RectifyTaps::empty(),
        }
    }
}

impl Default for PerceptionScratch {
    fn default() -> Self {
        PerceptionScratch::new()
    }
}

/// The perception pipeline (ROI → bird's-eye → binarize → sliding
/// windows → polynomial fit → `y_L`).
///
/// Rebuilding is cheap; the runtime reconfiguration logic constructs a
/// new `Perception` whenever the situation changes the ROI knob.
#[derive(Debug, Clone)]
pub struct Perception {
    config: PerceptionConfig,
    birds_eye: BirdsEye,
    backend: KernelBackend,
}

impl Perception {
    /// Creates the pipeline for a camera and configuration, on the
    /// default (exact lane) kernel backend.
    ///
    /// # Panics
    ///
    /// Panics if the ROI cannot be rectified with this camera (does not
    /// happen for the built-in ROIs and the default camera).
    pub fn new(config: PerceptionConfig, camera: Camera) -> Self {
        let birds_eye =
            BirdsEye::new(camera, config.roi).expect("built-in ROIs must be rectifiable");
        Perception { config, birds_eye, backend: KernelBackend::default() }
    }

    /// Selects the kernel backend (builder style). Every perception
    /// backend is bit-identical — the toggle exists so the scalar
    /// reference stays exercised end to end.
    pub fn with_backend(mut self, backend: KernelBackend) -> Self {
        self.backend = backend;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> PerceptionConfig {
        self.config
    }

    /// The pixels of a `w`×`h` ISP frame this pipeline reads: a window
    /// holding every bilinear tap of the active ROI's rectifier (see
    /// [`BirdsEye::pixel_window`]). Perception's output depends on no
    /// pixel outside it.
    ///
    /// # Panics
    ///
    /// Panics if `w` or `h` is zero.
    pub fn pixel_window(&self, w: usize, h: usize) -> PixelWindow {
        self.birds_eye.pixel_window(w, h)
    }

    /// Processes one ISP output frame.
    ///
    /// Convenience wrapper over [`Perception::process_into`] that
    /// allocates one-shot intermediates per call.
    ///
    /// # Errors
    ///
    /// Returns [`PerceptionError::NoLaneDetected`] when no boundary
    /// passes the quality gates (wrong ROI, unusable image, etc.).
    pub fn process(&self, frame: &RgbImage) -> Result<PerceptionOutput, PerceptionError> {
        self.process_into(frame, &mut PerceptionScratch::new())
    }

    /// Processes one ISP output frame reusing caller-owned intermediates
    /// — the allocation-free perception path. Results are identical to
    /// [`Perception::process`].
    ///
    /// # Errors
    ///
    /// As [`Perception::process`].
    pub fn process_into(
        &self,
        frame: &RgbImage,
        scratch: &mut PerceptionScratch,
    ) -> Result<PerceptionOutput, PerceptionError> {
        self.birds_eye.rectify_into_with(frame, &mut scratch.bev, self.backend, &mut scratch.taps);
        binarize_into_with(&scratch.bev, &mut scratch.mask, self.backend);
        let fits = sliding_window_search_with(&scratch.bev, &scratch.mask, &mut scratch.sliding);
        self.deviation_from_fits(&scratch.bev, &fits)
    }

    /// Converts lane fits to the lateral deviation at the look-ahead.
    fn deviation_from_fits(
        &self,
        bev: &crate::bev::BevImage,
        fits: &SlidingWindowResult,
    ) -> Result<PerceptionOutput, PerceptionError> {
        let row_la = bev.row_of_forward(self.config.look_ahead);
        let (center_lateral, lanes_used, support) = match (&fits.left, &fits.right) {
            (Some(l), Some(r)) => {
                let cl = bev.lateral_of_col(l.col_at(row_la));
                let cr = bev.lateral_of_col(r.col_at(row_la));
                ((cl + cr) / 2.0, 2, l.n_pixels + r.n_pixels)
            }
            (Some(l), None) => {
                let cl = bev.lateral_of_col(l.col_at(row_la));
                (cl - LANE_WIDTH / 2.0, 1, l.n_pixels)
            }
            (None, Some(r)) => {
                let cr = bev.lateral_of_col(r.col_at(row_la));
                (cr + LANE_WIDTH / 2.0, 1, r.n_pixels)
            }
            (None, None) => return Err(PerceptionError::NoLaneDetected),
        };
        // The lane center appearing at lateral `c` in the vehicle frame
        // means the vehicle sits at `−c` relative to the lane center.
        Ok(PerceptionOutput { y_l: -center_lateral, lanes_used, support })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkas_imaging::isp::{IspConfig, IspPipeline};
    use lkas_imaging::sensor::{Sensor, SensorConfig};
    use lkas_scene::render::SceneRenderer;
    use lkas_scene::situation::{
        LaneColor, LaneForm, RoadLayout, SceneKind, SituationFeatures, TABLE3_SITUATIONS,
    };
    use lkas_scene::track::Track;

    fn measure(
        track: &Track,
        s: f64,
        d: f64,
        psi: f64,
        roi: Roi,
        isp: IspConfig,
        seed: u64,
    ) -> Result<PerceptionOutput, PerceptionError> {
        let cam = Camera::default_automotive();
        let frame = SceneRenderer::new(cam.clone()).render(track, s, d, psi);
        let raw = Sensor::new(SensorConfig::default(), seed).capture(&frame, 1.0);
        let rgb = IspPipeline::new(isp).process(&raw);
        Perception::new(PerceptionConfig::new(roi), cam).process(&rgb)
    }

    #[test]
    fn centered_vehicle_measures_near_zero() {
        let track = Track::for_situation(&TABLE3_SITUATIONS[0], 500.0);
        let out = measure(&track, 10.0, 0.0, 0.0, Roi::Roi1, IspConfig::S0, 1).unwrap();
        assert!(out.y_l.abs() < 0.15, "y_L = {}", out.y_l);
        assert_eq!(out.lanes_used, 2);
    }

    #[test]
    fn offset_sign_convention() {
        let track = Track::for_situation(&TABLE3_SITUATIONS[0], 500.0);
        // Vehicle left of center ⇒ positive y_L.
        let left = measure(&track, 10.0, 0.4, 0.0, Roi::Roi1, IspConfig::S0, 2).unwrap();
        assert!(left.y_l > 0.2, "y_L = {}", left.y_l);
        let right = measure(&track, 10.0, -0.4, 0.0, Roi::Roi1, IspConfig::S0, 3).unwrap();
        assert!(right.y_l < -0.2, "y_L = {}", right.y_l);
    }

    #[test]
    fn heading_error_contributes_to_y_l() {
        // y_L ≈ y + L_L·ψ: a pure heading error reads as deviation.
        let track = Track::for_situation(&TABLE3_SITUATIONS[0], 500.0);
        let psi = 0.05; // nose pointing left
        let out = measure(&track, 10.0, 0.0, psi, Roi::Roi1, IspConfig::S0, 4).unwrap();
        let expected = LOOK_AHEAD * psi;
        assert!((out.y_l - expected).abs() < 0.2, "y_L = {}, expected ≈ {expected}", out.y_l);
    }

    #[test]
    fn accuracy_across_day_situations_with_correct_roi() {
        // With the situation-correct ROI and full ISP, daytime situations
        // measure |y_L error| < 0.3 m — the Fig. 1 "accuracy" criterion.
        for (idx, roi) in [(0usize, Roi::Roi1), (7, Roi::Roi2), (14, Roi::Roi4), (12, Roi::Roi3)] {
            let track = Track::for_situation(&TABLE3_SITUATIONS[idx], 1000.0);
            let out = measure(&track, 60.0, 0.0, 0.0, roi, IspConfig::S0, 5).unwrap();
            // On turns the look-ahead point sits on a curve; the true
            // y_L for a centered vehicle is ≈ −κ·L²/2 relative error.
            assert!(out.y_l.abs() < 0.35, "situation {idx} with {roi}: y_L = {}", out.y_l);
        }
    }

    #[test]
    fn wrong_roi_on_turn_fails_or_degrades() {
        let sit = SituationFeatures::new(
            LaneColor::White,
            LaneForm::Dotted,
            RoadLayout::RightTurn,
            SceneKind::Day,
        );
        let track = Track::for_situation(&sit, 1000.0);
        // ROI 1 on a dotted right turn: either no detection or a clearly
        // worse estimate than ROI 3.
        let wrong = measure(&track, 60.0, 0.0, 0.0, Roi::Roi1, IspConfig::S0, 6);
        let fine = measure(&track, 60.0, 0.0, 0.0, Roi::Roi3, IspConfig::S0, 6).unwrap();
        match wrong {
            Err(PerceptionError::NoLaneDetected) => {}
            Ok(w) => assert!(
                w.support < fine.support,
                "wrong ROI support {} must trail correct ROI {}",
                w.support,
                fine.support
            ),
        }
    }

    #[test]
    fn process_into_matches_process_with_reused_scratch() {
        let cam = Camera::default_automotive();
        let track = Track::for_situation(&TABLE3_SITUATIONS[0], 500.0);
        let pr = Perception::new(PerceptionConfig::new(Roi::Roi1), cam.clone());
        let mut scratch = PerceptionScratch::new();
        for (seed, s) in [(1u64, 10.0), (2, 20.0), (3, 30.0)] {
            let frame = SceneRenderer::new(cam.clone()).render(&track, s, 0.1, 0.0);
            let raw = Sensor::new(SensorConfig::default(), seed).capture(&frame, 1.0);
            let rgb = IspPipeline::new(IspConfig::S0).process(&raw);
            let fresh = pr.process(&rgb);
            let reused = pr.process_into(&rgb, &mut scratch);
            assert_eq!(fresh, reused);
        }
    }

    #[test]
    fn backends_agree_end_to_end() {
        let cam = Camera::default_automotive();
        let track = Track::for_situation(&TABLE3_SITUATIONS[0], 500.0);
        let frame = SceneRenderer::new(cam.clone()).render(&track, 10.0, 0.1, 0.0);
        let raw = Sensor::new(SensorConfig::default(), 9).capture(&frame, 1.0);
        let rgb = IspPipeline::new(IspConfig::S0).process(&raw);
        let config = PerceptionConfig::new(Roi::Roi1);
        let reference = Perception::new(config, cam.clone())
            .with_backend(lkas_imaging::KernelBackend::Scalar)
            .process(&rgb);
        for backend in lkas_imaging::KernelBackend::ALL {
            let out = Perception::new(config, cam.clone())
                .with_backend(backend)
                .process_into(&rgb, &mut PerceptionScratch::new());
            assert_eq!(reference, out, "{backend}");
        }
    }

    #[test]
    fn flat_frame_errors() {
        let cam = Camera::default_automotive();
        let pr = Perception::new(PerceptionConfig::new(Roi::Roi1), cam);
        let err = pr.process(&RgbImage::filled(512, 256, [0.5; 3])).unwrap_err();
        assert_eq!(err, PerceptionError::NoLaneDetected);
    }
}
