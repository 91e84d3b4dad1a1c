//! Dynamic-threshold binarization of the bird's-eye score map.
//!
//! The paper's perception uses "binarization using dynamic thresholding"
//! (Sec. II). The threshold adapts to the frame statistics so that a
//! single parameterization works from day to dark — but the *quality* of
//! the statistics still depends on what the ISP delivered, which is where
//! the situation-specific ISP knobs earn their keep.
//!
//! The mean comes from the score sum the rectifier accumulated while it
//! wrote the grid ([`BevImage`]), so binarization folds the grid once,
//! for the variance, and then compares. The two-fold formulation it
//! replaced is kept in `lkas_bench::reference` and matches it bit for
//! bit.

use crate::bev::BevImage;
use lkas_imaging::kernel::KernelBackend;

/// Multiplier on the standard deviation in the adaptive threshold.
pub const K_SIGMA: f32 = 1.8;

/// Minimum admissible threshold: below this the frame is considered too
/// dark/flat to binarize meaningfully, which naturally yields empty masks
/// for unusable frames instead of noise explosions.
pub const MIN_THRESHOLD: f32 = 0.04;

/// A binary marking mask over a bird's-eye grid.
#[derive(Debug, Clone)]
pub struct BinaryMask {
    width: usize,
    height: usize,
    data: Vec<bool>,
    threshold: f32,
}

impl BinaryMask {
    /// An empty (0×0) mask — the reusable target of [`binarize_into`].
    pub fn empty() -> Self {
        BinaryMask { width: 0, height: 0, data: Vec::new(), threshold: 0.0 }
    }

    /// Grid width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// The threshold that produced this mask.
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// Mask value at `(col, row)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, col: usize, row: usize) -> bool {
        self.data[row * self.width + col]
    }

    /// The cells of one row, left to right.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    #[inline]
    pub(crate) fn row(&self, row: usize) -> &[bool] {
        &self.data[row * self.width..(row + 1) * self.width]
    }

    /// Number of set cells.
    pub fn count(&self) -> usize {
        self.data.iter().filter(|&&b| b).count()
    }
}

/// Binarizes a bird's-eye score map with the adaptive threshold
/// `t = max(μ + K_SIGMA·σ, MIN_THRESHOLD)`.
///
/// # Example
///
/// ```
/// use lkas_perception::bev::BirdsEye;
/// use lkas_perception::roi::Roi;
/// use lkas_perception::threshold::binarize;
/// use lkas_scene::camera::Camera;
/// use lkas_imaging::image::RgbImage;
///
/// let be = BirdsEye::new(Camera::default_automotive(), Roi::Roi1).unwrap();
/// let bev = be.rectify(&RgbImage::filled(512, 256, [0.2, 0.2, 0.2]));
/// let mask = binarize(&bev);
/// // A flat frame has no markings above the adaptive threshold.
/// assert_eq!(mask.count(), 0);
/// ```
pub fn binarize(bev: &BevImage) -> BinaryMask {
    let mut mask = BinaryMask::empty();
    binarize_into(bev, &mut mask);
    mask
}

/// [`binarize`] into a caller-owned mask (resized as needed) — the
/// allocation-free binarization path (scalar reference kernel).
pub fn binarize_into(bev: &BevImage, mask: &mut BinaryMask) {
    binarize_into_with(bev, mask, KernelBackend::Scalar);
}

/// [`binarize_into`] with an explicit [`KernelBackend`].
///
/// Both backends compute the mean/variance statistics with the *same
/// sequential folds*: the threshold is a global statistic, and a
/// lane-reassociated reduction would move it by a few ULPs — enough to
/// flip borderline mask bits, which is a discrete (untolerable) change.
/// The mean's fold is the one the rectifier already ran while writing
/// the grid (its sum, divided by the cell count here); the variance
/// fold runs here. The lane restructure is confined to the elementwise
/// compare, which becomes a flat store loop over a pre-sized buffer
/// (compare + pack, no per-element push); output is bit-identical
/// across backends.
pub fn binarize_into_with(bev: &BevImage, mask: &mut BinaryMask, backend: KernelBackend) {
    let data = bev.as_slice();
    let n = data.len() as f32;
    let mean = bev.score_sum() / n;
    let var = data.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
    let threshold = (mean + K_SIGMA * var.sqrt()).max(MIN_THRESHOLD);
    mask.width = bev.width();
    mask.height = bev.height();
    mask.threshold = threshold;
    match backend {
        KernelBackend::Scalar => {
            mask.data.clear();
            mask.data.extend(data.iter().map(|&v| v > threshold));
        }
        KernelBackend::Lanes => {
            mask.data.resize(data.len(), false);
            for (d, &v) in mask.data.iter_mut().zip(data) {
                *d = v > threshold;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bev::BirdsEye;
    use crate::roi::Roi;
    use lkas_imaging::isp::{IspConfig, IspPipeline};
    use lkas_imaging::sensor::{Sensor, SensorConfig};
    use lkas_scene::camera::Camera;
    use lkas_scene::render::SceneRenderer;
    use lkas_scene::situation::TABLE3_SITUATIONS;
    use lkas_scene::track::Track;

    fn bev_for_situation(idx: usize, isp: IspConfig, seed: u64) -> BinaryMask {
        let cam = Camera::default_automotive();
        let track = Track::for_situation(&TABLE3_SITUATIONS[idx], 500.0);
        let frame = SceneRenderer::new(cam.clone()).render(&track, 10.0, 0.0, 0.0);
        let raw = Sensor::new(SensorConfig::default(), seed).capture(&frame, 1.0);
        let rgb = IspPipeline::new(isp).process(&raw);
        let be = BirdsEye::new(cam, Roi::Roi1).unwrap();
        binarize(&be.rectify(&rgb))
    }

    #[test]
    fn day_markings_are_segmented() {
        let mask = bev_for_situation(0, IspConfig::S0, 1);
        // Markings cover a few percent of the ROI.
        let density = mask.count() as f64 / mask.data.len() as f64;
        assert!(density > 0.01 && density < 0.30, "density {density}");
    }

    #[test]
    fn mask_marks_actual_marking_columns() {
        use lkas_scene::track::LANE_WIDTH;
        let cam = Camera::default_automotive();
        let track = Track::for_situation(&TABLE3_SITUATIONS[0], 500.0);
        let frame = SceneRenderer::new(cam.clone()).render(&track, 10.0, 0.0, 0.0);
        let raw = Sensor::new(SensorConfig::default(), 2).capture(&frame, 1.0);
        let rgb = IspPipeline::new(IspConfig::S0).process(&raw);
        let be = BirdsEye::new(cam, Roi::Roi1).unwrap();
        let bev = be.rectify(&rgb);
        let mask = binarize(&bev);
        // Column (fractional) of a vehicle-frame lateral position.
        let g = Roi::Roi1.ground_extent();
        let col_of =
            |lateral: f64| (g.y_left - lateral) / (g.y_left - g.y_right) * bev.width() as f64 - 0.5;
        let left_col = col_of(LANE_WIDTH / 2.0).round() as usize;
        let mid_col = col_of(0.0).round() as usize;
        let col_hits = |c: usize| (0..mask.height()).filter(|&r| mask.get(c, r)).count();
        let left_hits = (left_col.saturating_sub(2)..=left_col + 2).map(col_hits).sum::<usize>();
        let mid_hits = (mid_col.saturating_sub(2)..=mid_col + 2).map(col_hits).sum::<usize>();
        assert!(left_hits > 10 * (mid_hits + 1), "left {left_hits}, mid {mid_hits}");
    }

    #[test]
    fn full_isp_beats_bare_isp_in_the_dark() {
        // Situation 7: straight, white continuous, dark. With the full
        // ISP the marking mask stays coherent; with DM-only (S5 drops
        // tone map) the 8-bit output crushes shadows.
        let full = bev_for_situation(6, IspConfig::S0, 3);
        let bare = bev_for_situation(6, IspConfig::S4, 3); // no tone map
        assert!(full.count() >= bare.count(), "full {} vs bare {}", full.count(), bare.count());
    }

    #[test]
    fn lane_binarize_is_bit_identical_to_scalar() {
        let cam = Camera::default_automotive();
        let track = Track::for_situation(&TABLE3_SITUATIONS[0], 500.0);
        let frame = SceneRenderer::new(cam.clone()).render(&track, 10.0, 0.0, 0.0);
        let raw = Sensor::new(SensorConfig::default(), 7).capture(&frame, 1.0);
        let rgb = IspPipeline::new(IspConfig::S0).process(&raw);
        let bev = BirdsEye::new(cam, Roi::Roi1).unwrap().rectify(&rgb);
        let scalar = binarize(&bev);
        // Through a stale, larger reused mask so the resize path shrinks.
        let mut lanes = BinaryMask::empty();
        lanes.data = vec![true; bev.as_slice().len() + 64];
        binarize_into_with(&bev, &mut lanes, lkas_imaging::KernelBackend::Lanes);
        assert_eq!(scalar.data, lanes.data);
        assert_eq!(scalar.threshold, lanes.threshold);
    }

    #[test]
    fn flat_input_yields_empty_mask() {
        let be = BirdsEye::new(Camera::default_automotive(), Roi::Roi1).unwrap();
        let bev = be.rectify(&lkas_imaging::image::RgbImage::filled(512, 256, [0.5; 3]));
        assert_eq!(binarize(&bev).count(), 0);
    }

    #[test]
    fn threshold_respects_floor() {
        let be = BirdsEye::new(Camera::default_automotive(), Roi::Roi1).unwrap();
        let bev = be.rectify(&lkas_imaging::image::RgbImage::filled(512, 256, [0.001; 3]));
        let mask = binarize(&bev);
        assert!(mask.threshold() >= MIN_THRESHOLD);
    }
}
