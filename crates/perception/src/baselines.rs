//! Baseline lane detectors for the Fig. 1 trade-off study.
//!
//! The paper's Fig. 1 compares lane-detection techniques on an
//! accuracy-vs-FPS plane:
//!
//! * CNN segmentation approaches (VPGNet, LaneNet): robust across
//!   situations but slow on the edge device (< 10 FPS);
//! * classical pipelines (Sobel/color cues): ~40 FPS but brittle;
//! * the paper's sliding-window pipeline: fast, and robust once
//!   situation-aware.
//!
//! TensorRT CNNs are not portable to this pure-Rust reproduction, so the
//! robust-but-expensive corner is filled by [`DenseScanlineDetector`]: a
//! full-frame detector with per-row contrast normalization (no fixed ROI,
//! no global threshold) whose *modeled* runtime on the platform model
//! matches segmentation-CNN cost. The brittle-but-fast corner is
//! [`SobelHoughDetector`], a classical fixed-threshold gradient + Hough
//! pipeline. See DESIGN.md §2 for the substitution argument.

use crate::pipeline::{Perception, PerceptionConfig, PerceptionError};
use crate::roi::Roi;
use crate::LOOK_AHEAD;
use lkas_imaging::image::RgbImage;
use lkas_linalg::polyfit::{polyfit, polyval};
use lkas_scene::camera::Camera;
use lkas_scene::track::LANE_WIDTH;

/// A lane detector estimating the lateral deviation `y_L` from a frame.
pub trait LaneDetector {
    /// Human-readable technique name (used by the Fig. 1 harness).
    fn name(&self) -> &'static str;

    /// Estimates `y_L` (m, positive = vehicle left of lane center).
    ///
    /// # Errors
    ///
    /// Returns [`PerceptionError::NoLaneDetected`] if the technique finds
    /// no usable lane evidence in the frame.
    fn estimate(&self, frame: &RgbImage) -> Result<f64, PerceptionError>;
}

/// The paper's sliding-window pipeline wrapped as a [`LaneDetector`]
/// (fixed ROI 1, i.e. the situation-*unaware* variant plotted in Fig. 1).
#[derive(Debug, Clone)]
pub struct SlidingWindowDetector {
    perception: Perception,
}

impl SlidingWindowDetector {
    /// Creates the detector with ROI 1 and the default look-ahead.
    pub fn new(camera: Camera) -> Self {
        SlidingWindowDetector {
            perception: Perception::new(PerceptionConfig::new(Roi::Roi1), camera),
        }
    }
}

impl LaneDetector for SlidingWindowDetector {
    fn name(&self) -> &'static str {
        "sliding-window (fixed ROI)"
    }

    fn estimate(&self, frame: &RgbImage) -> Result<f64, PerceptionError> {
        Ok(self.perception.process(frame)?.y_l)
    }
}

/// Classical Sobel-gradient + Hough-line detector.
///
/// Deliberately situation-blind: a *fixed* gradient threshold and a
/// straight-line lane model. Fast, and accurate on bright straight
/// roads — the brittle corner of Fig. 1.
#[derive(Debug, Clone)]
pub struct SobelHoughDetector {
    camera: Camera,
    /// Fixed gradient-magnitude threshold (not adaptive — that is the
    /// point).
    pub threshold: f32,
}

impl SobelHoughDetector {
    /// Creates the detector with the stock threshold (tuned for day).
    pub fn new(camera: Camera) -> Self {
        SobelHoughDetector { camera, threshold: 0.35 }
    }
}

impl LaneDetector for SobelHoughDetector {
    fn name(&self) -> &'static str {
        "Sobel+Hough (classical)"
    }

    fn estimate(&self, frame: &RgbImage) -> Result<f64, PerceptionError> {
        let gray = frame.to_gray();
        let w = gray.width();
        let h = gray.height();
        let horizon = self.camera.horizon_row().ceil() as usize + 2;

        // Sobel edge magnitude below the horizon.
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for y in horizon.max(1)..h - 1 {
            for x in 1..w - 1 {
                let gx = gray.get(x + 1, y - 1) + 2.0 * gray.get(x + 1, y) + gray.get(x + 1, y + 1)
                    - gray.get(x - 1, y - 1)
                    - 2.0 * gray.get(x - 1, y)
                    - gray.get(x - 1, y + 1);
                let gy = gray.get(x - 1, y + 1) + 2.0 * gray.get(x, y + 1) + gray.get(x + 1, y + 1)
                    - gray.get(x - 1, y - 1)
                    - 2.0 * gray.get(x, y - 1)
                    - gray.get(x + 1, y - 1);
                if (gx * gx + gy * gy).sqrt() > self.threshold {
                    edges.push((x, y));
                }
            }
        }
        if edges.len() < 20 {
            return Err(PerceptionError::NoLaneDetected);
        }

        // Hough transform over (θ, ρ) with θ limited to lane-like
        // orientations (lines substantially off-horizontal).
        const N_THETA: usize = 48;
        const N_RHO: usize = 160;
        let diag = ((w * w + h * h) as f64).sqrt();
        let mut acc = vec![0u32; N_THETA * N_RHO];
        let thetas: Vec<f64> = (0..N_THETA)
            .map(|i| -1.2 + 2.4 * i as f64 / (N_THETA - 1) as f64) // rad around vertical
            .collect();
        for &(x, y) in &edges {
            for (ti, &th) in thetas.iter().enumerate() {
                let rho = x as f64 * th.cos() + y as f64 * th.sin();
                let ri = ((rho + diag) / (2.0 * diag) * N_RHO as f64) as usize;
                if ri < N_RHO {
                    acc[ti * N_RHO + ri] += 1;
                }
            }
        }
        // Two strongest lines with distinct orientations (left/right lane
        // edges converge toward the vanishing point with opposite tilt).
        let mut best: Vec<(u32, usize, usize)> = Vec::new();
        for ti in 0..N_THETA {
            for ri in 0..N_RHO {
                let v = acc[ti * N_RHO + ri];
                if v > 25 {
                    best.push((v, ti, ri));
                }
            }
        }
        best.sort_unstable_by_key(|b| std::cmp::Reverse(b.0));
        let first = *best.first().ok_or(PerceptionError::NoLaneDetected)?;
        let second =
            best.iter().find(|&&(_, ti, _)| (thetas[ti] - thetas[first.1]).abs() > 0.3).copied();

        // Intersect each line with the look-ahead image row and average.
        let (_, v_la) =
            self.camera.project_ground(LOOK_AHEAD, 0.0).ok_or(PerceptionError::NoLaneDetected)?;
        let line_u = |(_, ti, ri): (u32, usize, usize)| -> Option<f64> {
            let th: f64 = thetas[ti];
            let rho = ri as f64 / N_RHO as f64 * 2.0 * diag - diag;
            let c = th.cos();
            if c.abs() < 1e-6 {
                return None;
            }
            Some((rho - v_la * th.sin()) / c)
        };
        let u_first = line_u(first).ok_or(PerceptionError::NoLaneDetected)?;
        let center_u = match second.and_then(line_u) {
            Some(u2) => (u_first + u2) / 2.0,
            None => {
                // One boundary: offset by half a lane width in pixels.
                let mpp = self.camera.ground_meters_per_pixel(LOOK_AHEAD);
                let offset_px = LANE_WIDTH / 2.0 / mpp;
                if u_first > w as f64 / 2.0 {
                    u_first - offset_px
                } else {
                    u_first + offset_px
                }
            }
        };
        let (_, lateral) =
            self.camera.ground_from_pixel(center_u, v_la).ok_or(PerceptionError::NoLaneDetected)?;
        Ok(-lateral)
    }
}

/// Dense full-frame scanline detector — the robust/expensive corner of
/// Fig. 1 (CNN-segmentation stand-in).
///
/// For every image row below the horizon it normalizes contrast locally
/// (so global illumination cancels), extracts marking-like peaks, maps
/// them to ground coordinates, splits them into left/right boundary sets
/// and fits a quadratic per boundary over the *whole* visible road —
/// no fixed ROI, no global threshold, hence the robustness; touching
/// every pixel several times is what makes it expensive on the platform
/// model.
#[derive(Debug, Clone)]
pub struct DenseScanlineDetector {
    camera: Camera,
}

impl DenseScanlineDetector {
    /// Creates the detector.
    pub fn new(camera: Camera) -> Self {
        DenseScanlineDetector { camera }
    }
}

impl LaneDetector for DenseScanlineDetector {
    fn name(&self) -> &'static str {
        "dense scanline (segmentation-style)"
    }

    fn estimate(&self, frame: &RgbImage) -> Result<f64, PerceptionError> {
        let w = frame.width();
        let h = frame.height();
        let horizon = self.camera.horizon_row().ceil() as usize + 6;

        // Score image with vertical pooling: markings are vertically
        // coherent structures, pixel noise is not, so a 5-row column
        // average buys ~√5 SNR before the scan (the analogue of a
        // segmentation network's pooling).
        let pool_start = horizon.saturating_sub(2);
        let mut score = vec![0.0f32; w * h];
        for v in pool_start..h {
            for u in 0..w {
                score[v * w + u] = crate::bev::marking_score(frame.get(u, v));
            }
        }
        let pooled = |u: usize, v: usize| -> f32 {
            let v0 = v.saturating_sub(2).max(pool_start);
            let v1 = (v + 2).min(h - 1);
            let mut acc = 0.0;
            for vv in v0..=v1 {
                acc += score[vv * w + u];
            }
            acc / (v1 - v0 + 1) as f32
        };

        // Collect ground-frame boundary evidence.
        let mut pts_left: Vec<(f64, f64)> = Vec::new(); // (x fwd, y lat)
        let mut pts_right: Vec<(f64, f64)> = Vec::new();
        let mut score_row = vec![0.0f32; w];
        for v in horizon..h {
            for (u, s) in score_row.iter_mut().enumerate() {
                *s = pooled(u, v);
            }
            // Per-row z-score normalization.
            let mean = score_row.iter().sum::<f32>() / w as f32;
            let var = score_row.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / w as f32;
            let std = var.sqrt().max(1e-4);
            // Peak extraction: local maxima at least 3σ above the row
            // mean.
            for u in 2..w - 2 {
                let z = (score_row[u] - mean) / std;
                if z > 3.0
                    && score_row[u] >= score_row[u - 1]
                    && score_row[u] >= score_row[u + 1]
                    && score_row[u] > score_row[u - 2]
                    && score_row[u] > score_row[u + 2]
                {
                    if let Some((x, y)) = self.camera.ground_from_pixel(u as f64, v as f64) {
                        if x > 2.0 && x < 35.0 && y.abs() < 6.0 {
                            if y >= 0.0 {
                                pts_left.push((x, y));
                            } else {
                                pts_right.push((x, y));
                            }
                        }
                    }
                }
            }
        }

        let fit = |pts: &[(f64, f64)]| -> Option<[f64; 3]> {
            if pts.len() < 12 {
                return None;
            }
            let xs: Vec<f64> = pts.iter().map(|p| p.0).collect();
            let ys: Vec<f64> = pts.iter().map(|p| p.1).collect();
            // Sparse evidence (partially lit boundaries at night) cannot
            // support a stable curvature term; fall back to a line.
            let span = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
                - xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let degree = if pts.len() >= 30 && span >= 12.0 { 2 } else { 1 };
            let c = {
                let mut c = polyfit(&xs, &ys, degree).ok()?;
                c.resize(3, 0.0);
                c
            };
            // Residual-trimmed refit: in low light only part of a
            // boundary is lit, and stray peaks otherwise skew the fit.
            let res: Vec<f64> =
                xs.iter().zip(&ys).map(|(x, y)| (y - polyval(&c, *x)).abs()).collect();
            let mut sorted = res.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let gate = (2.5 * sorted[sorted.len() / 2]).max(0.08);
            let keep: Vec<usize> = (0..xs.len()).filter(|&i| res[i] <= gate).collect();
            if keep.len() >= 8 && keep.len() < xs.len() {
                let xs2: Vec<f64> = keep.iter().map(|&i| xs[i]).collect();
                let ys2: Vec<f64> = keep.iter().map(|&i| ys[i]).collect();
                if let Ok(c2) = polyfit(&xs2, &ys2, 2) {
                    return Some([c2[0], c2[1], c2[2]]);
                }
            }
            Some([c[0], c[1], c[2]])
        };
        let left = fit(&pts_left);
        let right = fit(&pts_right);
        let center = match (left, right) {
            (Some(l), Some(r)) => (polyval(&l, LOOK_AHEAD) + polyval(&r, LOOK_AHEAD)) / 2.0,
            (Some(l), None) => polyval(&l, LOOK_AHEAD) - LANE_WIDTH / 2.0,
            (None, Some(r)) => polyval(&r, LOOK_AHEAD) + LANE_WIDTH / 2.0,
            (None, None) => return Err(PerceptionError::NoLaneDetected),
        };
        Ok(-center)
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

    fn frame_for(track: &Track, s: f64, d: f64, seed: u64) -> RgbImage {
        let cam = Camera::default_automotive();
        let scene = SceneRenderer::new(cam).render(track, s, d, 0.0);
        let raw = Sensor::new(SensorConfig::default(), seed).capture(&scene, 1.0);
        IspPipeline::new(IspConfig::S0).process(&raw)
    }

    #[test]
    fn sobel_hough_works_on_straight_day() {
        let track = Track::for_situation(&TABLE3_SITUATIONS[0], 500.0);
        let det = SobelHoughDetector::new(Camera::default_automotive());
        let y = det.estimate(&frame_for(&track, 10.0, 0.0, 1)).unwrap();
        assert!(y.abs() < 0.5, "y_L = {y}");
    }

    #[test]
    fn sobel_hough_is_less_accurate_than_dense_on_turns() {
        // The straight-line Hough model biases on curves — the
        // brittleness that costs the classical detectors their accuracy
        // in Fig. 1.
        let sit = SituationFeatures::new(
            LaneColor::White,
            LaneForm::Continuous,
            RoadLayout::RightTurn,
            SceneKind::Day,
        );
        let track = Track::for_situation(&sit, 1000.0);
        let cam = Camera::default_automotive();
        let classical = SobelHoughDetector::new(cam.clone());
        let dense = DenseScanlineDetector::new(cam);
        // For a centered vehicle on a curve the lane center at look-ahead
        // is offset by κ·L²/2 from the vehicle axis, so the true y_L is
        // −κ·L²/2 with this crate's sign conventions (right turn ⇒
        // positive y_L).
        let kappa = track.curvature_at(50.0);
        let y_true = -kappa * LOOK_AHEAD * LOOK_AHEAD / 2.0;
        let mut err_classical = 0.0;
        let mut err_dense = 0.0;
        for (i, s) in [40.0, 60.0, 80.0].iter().enumerate() {
            let frame = frame_for(&track, *s, 0.0, 100 + i as u64);
            err_classical += classical.estimate(&frame).map(|y| (y - y_true).abs()).unwrap_or(2.0);
            err_dense += dense.estimate(&frame).map(|y| (y - y_true).abs()).unwrap_or(2.0);
        }
        assert!(
            err_classical > err_dense,
            "classical {err_classical} must trail dense {err_dense} on turns"
        );
    }

    #[test]
    fn dense_scanline_survives_the_dark() {
        let track = Track::for_situation(&TABLE3_SITUATIONS[6], 500.0);
        let det = DenseScanlineDetector::new(Camera::default_automotive());
        let y = det.estimate(&frame_for(&track, 10.0, 0.0, 3)).unwrap();
        assert!(y.abs() < 0.5, "y_L = {y}");
    }

    #[test]
    fn dense_scanline_handles_turns_without_roi() {
        let sit = SituationFeatures::new(
            LaneColor::White,
            LaneForm::Continuous,
            RoadLayout::RightTurn,
            SceneKind::Day,
        );
        let track = Track::for_situation(&sit, 1000.0);
        let det = DenseScanlineDetector::new(Camera::default_automotive());
        let y = det.estimate(&frame_for(&track, 60.0, 0.0, 4)).unwrap();
        assert!(y.abs() < 0.6, "y_L = {y}");
    }

    #[test]
    fn detectors_report_names() {
        let cam = Camera::default_automotive();
        assert!(SlidingWindowDetector::new(cam.clone()).name().contains("sliding"));
        assert!(SobelHoughDetector::new(cam.clone()).name().contains("Sobel"));
        assert!(DenseScanlineDetector::new(cam).name().contains("dense"));
    }
}
