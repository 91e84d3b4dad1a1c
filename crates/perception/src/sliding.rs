//! Sliding-window lane-pixel search and polynomial lane fitting.
//!
//! Works bottom-up through the binarized bird's-eye mask (paper Sec. II:
//! "candidate lane pixels are determined using sliding windows from
//! bottom to top of the image, and curve fitting is done using a
//! second-order polynomial").
//!
//! The search does only the arithmetic its outputs need: the base
//! histogram and each window walk mask rows as slices, the residual
//! median is selected rather than sorted, and both fits of a lane run
//! the fused degree-2 QR ([`fit_quadratic_into`]). Every step visits
//! the same cells in the same order and performs the same floating-point
//! operations as the formulation it replaced, which is kept in
//! `lkas_bench::reference` and matches it bit for bit.

use crate::bev::BevImage;
use crate::threshold::BinaryMask;
use lkas_linalg::polyfit::{fit_quadratic_into, polyval, PolyfitScratch};

/// Number of vertical windows.
pub const N_WINDOWS: usize = 12;
/// Search margin around the running center, in meters of ground.
pub const MARGIN_M: f64 = 0.55;
/// Minimum pixels inside a window to recenter on them.
pub const MIN_PIX_RECENTER: usize = 12;
/// Minimum pixels for a lane fit to be accepted.
pub const MIN_PIX_FIT: usize = 40;
/// Minimum row span (fraction of grid height) for a fit to be accepted.
pub const MIN_ROW_SPAN: f64 = 0.25;

/// A fitted lane boundary `col(row) = c0 + c1·row + c2·row²`.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneFit {
    /// Polynomial coefficients, constant term first.
    pub coeffs: [f64; 3],
    /// Number of pixels supporting the fit.
    pub n_pixels: usize,
    /// Row span of the supporting pixels (max − min).
    pub row_span: usize,
    /// Base (bottom) column where the search started.
    pub base_col: usize,
}

impl LaneFit {
    /// Evaluates the fitted boundary column at a (fractional) row.
    pub fn col_at(&self, row: f64) -> f64 {
        polyval(&self.coeffs, row)
    }
}

/// Result of the sliding-window search: up to two lane boundaries,
/// labeled by their side of the vehicle.
#[derive(Debug, Clone, Default)]
pub struct SlidingWindowResult {
    /// The boundary left of the vehicle (higher ground lateral).
    pub left: Option<LaneFit>,
    /// The boundary right of the vehicle.
    pub right: Option<LaneFit>,
}

/// Reusable workspace of [`sliding_window_search_with`]: histograms,
/// candidate-pixel lists and the polynomial-fit workspace survive between
/// frames, so the steady-state search performs no heap allocations. One
/// scratch per perception loop; contents carry no state between calls.
#[derive(Debug, Clone, Default)]
pub struct SlidingScratch {
    hist: Vec<usize>,
    hist2: Vec<usize>,
    cols: Vec<f64>,
    rows: Vec<f64>,
    res: Vec<f64>,
    /// A copy of `res` that the median selection reorders.
    ranked: Vec<f64>,
    cols2: Vec<f64>,
    rows2: Vec<f64>,
    polyfit: PolyfitScratch,
}

impl SlidingScratch {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        SlidingScratch::default()
    }
}

/// Runs the sliding-window lane search over a binarized bird's-eye view.
///
/// Base positions come from a column histogram over the lower half of
/// the mask; the two strongest, sufficiently separated peaks seed the
/// left/right searches. Sides are assigned by the ground lateral position
/// of the base column (positive = left of the vehicle).
///
/// Convenience wrapper over [`sliding_window_search_with`] that allocates
/// a one-shot workspace per call.
pub fn sliding_window_search(bev: &BevImage, mask: &BinaryMask) -> SlidingWindowResult {
    sliding_window_search_with(bev, mask, &mut SlidingScratch::new())
}

/// [`sliding_window_search`] with a caller-owned workspace — the
/// allocation-free search path. Results are identical.
pub fn sliding_window_search_with(
    bev: &BevImage,
    mask: &BinaryMask,
    scratch: &mut SlidingScratch,
) -> SlidingWindowResult {
    let w = mask.width();
    let h = mask.height();
    debug_assert_eq!(w, bev.width());
    debug_assert_eq!(h, bev.height());

    // Column histogram over the lower half.
    scratch.hist.clear();
    scratch.hist.resize(w, 0);
    for row in h / 2..h {
        for (count, &set) in scratch.hist.iter_mut().zip(mask.row(row)) {
            *count += usize::from(set);
        }
    }
    let min_sep = (2.0 / bev.meters_per_col()).round() as usize; // ≥ 2 m apart
    let peak1 = argmax(&scratch.hist);
    let mut result = SlidingWindowResult::default();
    let Some((p1, v1)) = peak1 else { return result };
    if v1 == 0 {
        return result;
    }
    // Suppress around the first peak, find the second.
    scratch.hist2.clear();
    scratch.hist2.extend_from_slice(&scratch.hist);
    let lo = p1.saturating_sub(min_sep / 2);
    let hi = (p1 + min_sep / 2).min(w - 1);
    for v in &mut scratch.hist2[lo..=hi] {
        *v = 0;
    }
    let peak2 = argmax(&scratch.hist2).filter(|&(_, v)| v >= 3);

    for base in std::iter::once(p1).chain(peak2.map(|(p, _)| p)) {
        let Some(fit) = track_lane(bev, mask, base, scratch) else { continue };
        let lateral = bev.lateral_of_col(fit.base_col as f64);
        let slot = if lateral >= 0.0 { &mut result.left } else { &mut result.right };
        // Keep the better-supported fit if both peaks land on one side.
        let better = match slot {
            Some(existing) => fit.n_pixels > existing.n_pixels,
            None => true,
        };
        if better {
            *slot = Some(fit);
        }
    }
    result
}

/// Index and value of the maximum entry.
fn argmax(values: &[usize]) -> Option<(usize, usize)> {
    values.iter().enumerate().max_by_key(|&(_, v)| *v).map(|(i, &v)| (i, v))
}

/// Tracks one lane upward from `base` and fits the polynomial.
fn track_lane(
    bev: &BevImage,
    mask: &BinaryMask,
    base: usize,
    scratch: &mut SlidingScratch,
) -> Option<LaneFit> {
    let w = mask.width();
    let h = mask.height();
    let margin = (MARGIN_M / bev.meters_per_col()).round().max(2.0) as i64;
    let win_h = h / N_WINDOWS;
    let mut center = base as i64;
    scratch.cols.clear();
    scratch.rows.clear();

    for win in 0..N_WINDOWS {
        let row_hi = h - win * win_h; // exclusive
        let row_lo = row_hi.saturating_sub(win_h);
        let c_lo = (center - margin).clamp(0, w as i64 - 1) as usize;
        let c_hi = (center + margin).clamp(0, w as i64 - 1) as usize;
        let mut sum_c = 0.0;
        let mut cnt = 0usize;
        for row in row_lo..row_hi {
            for (col, &set) in (c_lo..).zip(&mask.row(row)[c_lo..=c_hi]) {
                if set {
                    scratch.cols.push(col as f64);
                    scratch.rows.push(row as f64);
                    sum_c += col as f64;
                    cnt += 1;
                }
            }
        }
        if cnt >= MIN_PIX_RECENTER {
            center = (sum_c / cnt as f64).round() as i64;
        }
    }

    let (cols, rows) = (&scratch.cols, &scratch.rows);
    if cols.len() < MIN_PIX_FIT {
        return None;
    }
    let row_min = rows.iter().cloned().fold(f64::INFINITY, f64::min);
    let row_max = rows.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (row_max - row_min) as usize;
    if (span as f64) < MIN_ROW_SPAN * h as f64 {
        return None;
    }
    let mut coeffs = [0.0f64; 3];
    fit_quadratic_into(rows, cols, &mut coeffs, &mut scratch.polyfit).ok()?;
    // Residual-trimmed refit: window-edge pixels and stray blobs (dash
    // ends, noise) otherwise swing the curvature term, which the
    // look-ahead extrapolation then amplifies.
    scratch.res.clear();
    scratch.res.extend(rows.iter().zip(cols).map(|(r, c)| (c - polyval(&coeffs, *r)).abs()));
    scratch.ranked.clear();
    scratch.ranked.extend_from_slice(&scratch.res);
    // Residuals are absolute values of finite numbers, so the comparator
    // is a total order on them and the value selected at len/2 is the
    // one a full sort would put there.
    let mid = scratch.ranked.len() / 2;
    let (_, &mut median, _) = scratch
        .ranked
        .select_nth_unstable_by(mid, |a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let sigma = median.max(1.0); // robust scale (median)
    let gate = 2.5 * sigma;
    scratch.cols2.clear();
    scratch.rows2.clear();
    for i in 0..cols.len() {
        if scratch.res[i] <= gate {
            scratch.cols2.push(cols[i]);
            scratch.rows2.push(rows[i]);
        }
    }
    if scratch.cols2.len() >= MIN_PIX_FIT / 2 && scratch.cols2.len() < cols.len() {
        let mut refit = [0.0f64; 3];
        if fit_quadratic_into(&scratch.rows2, &scratch.cols2, &mut refit, &mut scratch.polyfit)
            .is_ok()
        {
            coeffs = refit;
        }
    }
    Some(LaneFit { coeffs, n_pixels: scratch.cols.len(), row_span: span, base_col: base })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bev::BirdsEye;
    use crate::roi::Roi;
    use crate::threshold::binarize;
    use lkas_imaging::isp::{IspConfig, IspPipeline};
    use lkas_imaging::sensor::{Sensor, SensorConfig};
    use lkas_scene::camera::Camera;
    use lkas_scene::render::SceneRenderer;
    use lkas_scene::situation::{
        LaneColor, LaneForm, RoadLayout, SceneKind, SituationFeatures, TABLE3_SITUATIONS,
    };
    use lkas_scene::track::{Track, LANE_WIDTH};

    fn search_for(
        track: &Track,
        s: f64,
        d: f64,
        roi: Roi,
        seed: u64,
    ) -> (BevImage, SlidingWindowResult) {
        let cam = Camera::default_automotive();
        let frame = SceneRenderer::new(cam.clone()).render(track, s, d, 0.0);
        let raw = Sensor::new(SensorConfig::default(), seed).capture(&frame, 1.0);
        let rgb = IspPipeline::new(IspConfig::S0).process(&raw);
        let be = BirdsEye::new(cam, roi).unwrap();
        let bev = be.rectify(&rgb);
        let mask = binarize(&bev);
        let result = sliding_window_search(&bev, &mask);
        (bev, result)
    }

    #[test]
    fn detects_both_lanes_on_straight_day() {
        let track = Track::for_situation(&TABLE3_SITUATIONS[0], 500.0);
        let (bev, res) = search_for(&track, 10.0, 0.0, Roi::Roi1, 1);
        assert!(res.left.is_some() && res.right.is_some(), "both lanes expected");
        let left = res.left.unwrap();
        let right = res.right.unwrap();
        // Bottom row: boundaries near ±LANE_WIDTH/2.
        let bot = bev.height() as f64 - 1.0;
        let l_lat = bev.lateral_of_col(left.col_at(bot));
        let r_lat = bev.lateral_of_col(right.col_at(bot));
        assert!((l_lat - LANE_WIDTH / 2.0).abs() < 0.25, "left at {l_lat}");
        assert!((r_lat + LANE_WIDTH / 2.0).abs() < 0.25, "right at {r_lat}");
    }

    #[test]
    fn lateral_offset_is_reflected_in_fits() {
        let track = Track::for_situation(&TABLE3_SITUATIONS[0], 500.0);
        let (bev, res) = search_for(&track, 10.0, 0.5, Roi::Roi1, 2);
        let left = res.left.expect("left lane");
        let bot = bev.height() as f64 - 1.0;
        let l_lat = bev.lateral_of_col(left.col_at(bot));
        // Vehicle 0.5 m left of center ⇒ left marking appears at
        // LANE_WIDTH/2 − 0.5 in the vehicle frame.
        assert!((l_lat - (LANE_WIDTH / 2.0 - 0.5)).abs() < 0.25, "left at {l_lat}");
    }

    #[test]
    fn right_turn_with_wrong_roi_degrades() {
        // On a right turn, ROI 1 loses the lanes at preview distance;
        // the correct ROI 2 keeps more supporting pixels.
        let sit = SituationFeatures::new(
            LaneColor::White,
            LaneForm::Continuous,
            RoadLayout::RightTurn,
            SceneKind::Day,
        );
        let track = Track::for_situation(&sit, 1000.0);
        let (_, res_wrong) = search_for(&track, 50.0, 0.0, Roi::Roi1, 3);
        let (_, res_right) = search_for(&track, 50.0, 0.0, Roi::Roi2, 3);
        let support = |r: &SlidingWindowResult| {
            r.left.as_ref().map_or(0, |f| f.n_pixels) + r.right.as_ref().map_or(0, |f| f.n_pixels)
        };
        assert!(
            support(&res_right) > support(&res_wrong),
            "ROI 2 support {} must beat ROI 1 support {}",
            support(&res_right),
            support(&res_wrong)
        );
    }

    #[test]
    fn dotted_lanes_have_fewer_pixels_than_continuous() {
        let cont = Track::for_situation(&TABLE3_SITUATIONS[0], 500.0);
        let dotted = Track::for_situation(&TABLE3_SITUATIONS[1], 500.0);
        let (_, rc) = search_for(&cont, 10.0, 0.0, Roi::Roi1, 4);
        let (_, rd) = search_for(&dotted, 10.0, 0.0, Roi::Roi1, 4);
        let left_pix = |r: &SlidingWindowResult| r.left.as_ref().map_or(0, |f| f.n_pixels);
        assert!(left_pix(&rc) > left_pix(&rd), "{} vs {}", left_pix(&rc), left_pix(&rd));
    }

    #[test]
    fn empty_mask_detects_nothing() {
        let cam = Camera::default_automotive();
        let be = BirdsEye::new(cam, Roi::Roi1).unwrap();
        let bev = be.rectify(&lkas_imaging::image::RgbImage::filled(512, 256, [0.3; 3]));
        let mask = binarize(&bev);
        let res = sliding_window_search(&bev, &mask);
        assert!(res.left.is_none() && res.right.is_none());
    }
}
