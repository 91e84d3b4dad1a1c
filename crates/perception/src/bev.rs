//! Bird's-eye-view rectification through a plane homography.
//!
//! The ROI's ground rectangle is resampled into a top-down grid in which
//! lane markings appear as (nearly) vertical curves — the domain of the
//! sliding-window search. The ground→image map of a pinhole camera over
//! a flat road is a homography; it is estimated once per (camera, ROI)
//! pair from the four corner correspondences, exactly like the
//! `warpPerspective` step of the classical pipelines the paper builds on.
//!
//! Every producer of a [`BevImage`] also adds each cell's score to a
//! running `f32` sum in the loop that writes the cell, in row-major
//! order from `-0.0` — the operations `Iterator::sum` performs over the
//! finished grid. Binarization reads its mean from that sum instead of
//! folding the grid a second time.

use crate::roi::Roi;
use lkas_imaging::image::{PixelWindow, RgbImage};
use lkas_imaging::kernel::KernelBackend;
use lkas_linalg::Homography;
use lkas_scene::camera::Camera;

#[allow(unsafe_code)]
mod lanes;

pub use lanes::RectifyTaps;

/// Default bird's-eye grid width (lateral samples).
pub const BEV_WIDTH: usize = 160;
/// Default bird's-eye grid height (longitudinal samples).
pub const BEV_HEIGHT: usize = 192;

/// A rectified top-down view of an ROI with its ground geometry.
///
/// Row 0 is the *far* edge; the bottom row is the *near* edge. Column 0
/// is the *left* edge of the ROI.
#[derive(Debug, Clone)]
pub struct BevImage {
    width: usize,
    height: usize,
    /// Marking-likelihood score per cell (higher = more marking-like).
    score: Vec<f32>,
    /// `score.iter().sum::<f32>()`, accumulated while the cells are
    /// written.
    sum: f32,
    roi: Roi,
}

impl BevImage {
    /// An empty (0×0) view — the reusable target of
    /// [`BirdsEye::rectify_into`]. The ROI is a placeholder until the
    /// first rectification overwrites it.
    pub fn empty() -> Self {
        BevImage { width: 0, height: 0, score: Vec::new(), sum: -0.0, roi: Roi::Roi1 }
    }

    /// Resizes the grid (keeping the score buffer's capacity) and adopts
    /// the producing rectifier's ROI. Contents and sum are unspecified
    /// afterwards; the rectifier overwrites every cell and then the sum.
    fn reshape(&mut self, width: usize, height: usize, roi: Roi) {
        self.width = width;
        self.height = height;
        self.roi = roi;
        self.score.resize(width * height, 0.0);
    }

    /// The sum of all scores, bit-identical to
    /// `self.as_slice().iter().sum::<f32>()`.
    pub fn score_sum(&self) -> f32 {
        self.sum
    }

    /// Grid width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Score at `(col, row)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, col: usize, row: usize) -> f32 {
        self.score[row * self.width + col]
    }

    /// Borrow all scores (row-major).
    pub fn as_slice(&self) -> &[f32] {
        &self.score
    }

    /// Vehicle-frame lateral position (m, left positive) of a column
    /// center.
    pub fn lateral_of_col(&self, col: f64) -> f64 {
        let g = self.roi.ground_extent();
        g.y_left - (col + 0.5) * (g.y_left - g.y_right) / self.width as f64
    }

    /// Row (fractional) of a vehicle-frame forward distance.
    pub fn row_of_forward(&self, forward: f64) -> f64 {
        let g = self.roi.ground_extent();
        (g.x_far - forward) / (g.x_far - g.x_near) * self.height as f64 - 0.5
    }

    /// Meters of lateral ground per column.
    pub fn meters_per_col(&self) -> f64 {
        let g = self.roi.ground_extent();
        (g.y_left - g.y_right) / self.width as f64
    }
}

/// Rectifier caching the homography for one (camera, ROI) pair.
///
/// # Example
///
/// ```
/// use lkas_perception::bev::BirdsEye;
/// use lkas_perception::roi::Roi;
/// use lkas_scene::camera::Camera;
/// use lkas_imaging::image::RgbImage;
///
/// let be = BirdsEye::new(Camera::default_automotive(), Roi::Roi1).unwrap();
/// let frame = RgbImage::filled(512, 256, [0.2, 0.2, 0.2]);
/// let bev = be.rectify(&frame);
/// assert_eq!(bev.width(), lkas_perception::bev::BEV_WIDTH);
/// ```
#[derive(Debug, Clone)]
pub struct BirdsEye {
    roi: Roi,
    /// Precomputed image-space sample points `(u, v)` of the default
    /// `BEV_WIDTH`×`BEV_HEIGHT` grid (row-major). The homography and the
    /// grid are both fixed per rectifier, so the projection arithmetic is
    /// hoisted out of the per-frame loop; values are computed with the
    /// same expressions as the on-the-fly path, keeping outputs
    /// bit-identical.
    samples: Vec<(f64, f64)>,
    /// Image positions `(u, v)` of the ROI's four ground corners. The
    /// homography maps the ROI rectangle onto the convex quadrilateral
    /// they span, so they bound every sample point.
    corners: [(f64, f64); 4],
}

impl BirdsEye {
    /// Builds the rectifier, estimating the ground→image homography from
    /// the ROI's four corners.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`lkas_linalg::LinalgError`] if the ROI
    /// corners project degenerately (cannot happen for the built-in ROIs
    /// with the default camera).
    pub fn new(camera: Camera, roi: Roi) -> Result<Self, lkas_linalg::LinalgError> {
        let g = roi.ground_extent();
        let corners_ground = [
            (g.x_far, g.y_left),
            (g.x_far, g.y_right),
            (g.x_near, g.y_right),
            (g.x_near, g.y_left),
        ];
        let mut corners_px = [(0.0, 0.0); 4];
        for (i, &(x, y)) in corners_ground.iter().enumerate() {
            corners_px[i] = camera
                .project_ground(x, y)
                .ok_or(lkas_linalg::LinalgError::InvalidInput("ROI corner behind camera"))?;
        }
        let ground_to_image = Homography::from_points(&corners_ground, &corners_px)?;
        let mut samples = Vec::with_capacity(BEV_WIDTH * BEV_HEIGHT);
        let g = roi.ground_extent();
        for row in 0..BEV_HEIGHT {
            let x = g.x_far - (row as f64 + 0.5) * (g.x_far - g.x_near) / BEV_HEIGHT as f64;
            for col in 0..BEV_WIDTH {
                let y = g.y_left - (col as f64 + 0.5) * (g.y_left - g.y_right) / BEV_WIDTH as f64;
                samples.push(ground_to_image.apply(x, y));
            }
        }
        Ok(BirdsEye { roi, samples, corners: corners_px })
    }

    /// A window of a `w`×`h` frame holding every pixel the bilinear taps
    /// of this rectifier read. Computed in O(1) from the projected ROI
    /// corners, which bound every sample point: the columns run from the
    /// tap of the leftmost possible sample to one past the right
    /// neighbor of the rightmost one, `[⌊clamp(u_min − ½)⌋,
    /// ⌊clamp(u_max − ½)⌋ + 2) ∩ [0, w)`, and the rows likewise.
    ///
    /// # Panics
    ///
    /// Panics if `w` or `h` is zero.
    pub fn pixel_window(&self, w: usize, h: usize) -> PixelWindow {
        assert!(w > 0 && h > 0, "frame dimensions must be nonzero");
        let (mut u_min, mut u_max) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut v_min, mut v_max) = (f64::INFINITY, f64::NEG_INFINITY);
        for &(u, v) in &self.corners {
            (u_min, u_max) = (u_min.min(u), u_max.max(u));
            (v_min, v_max) = (v_min.min(v), v_max.max(v));
        }
        // The same clamp-and-floor as `bilin_tap`, at the extremes.
        let span = |lo: f64, hi: f64, n: usize| {
            let tap = |c: f64| (c - 0.5).clamp(0.0, (n - 1) as f64).floor() as usize;
            (tap(lo), (tap(hi) + 2).min(n))
        };
        let (x0, x1) = span(u_min, u_max, w);
        let (y0, y1) = span(v_min, v_max, h);
        PixelWindow { x0, y0, x1, y1 }
    }

    /// Rectifies a camera frame into the ROI's bird's-eye grid, computing
    /// the marking-likelihood score per cell.
    ///
    /// Convenience wrapper over [`BirdsEye::rectify_into`] that allocates
    /// a fresh grid per call.
    pub fn rectify(&self, frame: &RgbImage) -> BevImage {
        let mut bev = BevImage::empty();
        self.rectify_into(frame, &mut bev);
        bev
    }

    /// Rectifies a camera frame into a caller-owned bird's-eye grid
    /// (resized to the default `BEV_WIDTH`×`BEV_HEIGHT`) — the
    /// allocation-free rectification path, using the sample points
    /// precomputed at construction. This is the scalar reference kernel.
    pub fn rectify_into(&self, frame: &RgbImage, out: &mut BevImage) {
        out.reshape(BEV_WIDTH, BEV_HEIGHT, self.roi);
        let mut sum = -0.0f32;
        for (cell, &(u, v)) in out.score.iter_mut().zip(&self.samples) {
            *cell = marking_score(sample_bilinear(frame, u, v));
            sum += *cell;
        }
        out.sum = sum;
    }

    /// [`BirdsEye::rectify_into`] with an explicit [`KernelBackend`].
    ///
    /// The lane backend routes through a cached tap table
    /// ([`RectifyTaps`], rebuilt only when the frame dimensions or ROI
    /// change): the per-cell clamp/floor/cast coordinate arithmetic is
    /// hoisted out of the frame loop. On x86_64 an SSE2 kernel then
    /// interpolates each tap's R, G and B from one 4-float load and
    /// scores four cells at once, with the scalar operations in their
    /// order (DESIGN.md §10); elsewhere, for cells past the last group
    /// of four, and for a table that reaches the frame's last pixel, a
    /// loop over [`bilin_eval`] does. Tap weights are shared with the
    /// scalar path ([`bilin_tap`]), so both backends are bit-identical.
    pub fn rectify_into_with(
        &self,
        frame: &RgbImage,
        out: &mut BevImage,
        backend: KernelBackend,
        taps: &mut RectifyTaps,
    ) {
        match backend {
            KernelBackend::Scalar => self.rectify_into(frame, out),
            KernelBackend::Lanes => {
                out.reshape(BEV_WIDTH, BEV_HEIGHT, self.roi);
                taps.ensure(frame, &self.samples, self.roi);
                out.sum = taps.rectify(frame.as_slice(), &mut out.score);
            }
        }
    }
}

/// Marking-likelihood score of an RGB sample: bright pixels (white
/// markings) and yellow pixels (yellow markings) both score high; asphalt
/// and grass score low.
///
/// The yellowness term `(R+G)/2 − B` is what makes the ISP's color map
/// matter for yellow lanes: without the CCM, sensor crosstalk halves the
/// yellow-vs-road separation in this channel.
pub fn marking_score(rgb: [f32; 3]) -> f32 {
    let luma = 0.299 * rgb[0] + 0.587 * rgb[1] + 0.114 * rgb[2];
    let yellowness = ((rgb[0] + rgb[1]) / 2.0 - rgb[2]).max(0.0);
    luma.max(1.6 * yellowness)
}

/// One resolved bilinear sample: the four interleaved-RGB base offsets
/// and the two interpolation weights. Depends only on the sample point
/// and the frame dimensions, so it can be computed once and replayed
/// per frame.
#[derive(Debug, Clone, Copy)]
struct BilinTap {
    base00: u32,
    base10: u32,
    base01: u32,
    base11: u32,
    fx: f32,
    fy: f32,
}

/// Resolves a continuous image coordinate (pixel `i` covers `[i, i+1)`,
/// center at `i + 0.5`) into a clamped-border [`BilinTap`]. All
/// coordinate arithmetic of the rectification lives here; both the
/// scalar and the cached lane kernels consume its output.
#[inline(always)]
fn bilin_tap(w: usize, h: usize, u: f64, v: f64) -> BilinTap {
    let uc = (u - 0.5).clamp(0.0, (w - 1) as f64);
    let vc = (v - 0.5).clamp(0.0, (h - 1) as f64);
    let x0 = uc.floor() as usize;
    let y0 = vc.floor() as usize;
    let x1 = (x0 + 1).min(w - 1);
    let y1 = (y0 + 1).min(h - 1);
    let fx = (uc - x0 as f64) as f32;
    let fy = (vc - y0 as f64) as f32;
    BilinTap {
        base00: ((y0 * w + x0) * 3) as u32,
        base10: ((y0 * w + x1) * 3) as u32,
        base01: ((y1 * w + x0) * 3) as u32,
        base11: ((y1 * w + x1) * 3) as u32,
        fx,
        fy,
    }
}

/// Evaluates a [`BilinTap`] against an interleaved-RGB pixel slice —
/// the single bilinear-interpolation expression of the crate (shared by
/// both kernel backends, so they agree bit-for-bit).
#[inline(always)]
fn bilin_eval(data: &[f32], t: &BilinTap) -> [f32; 3] {
    let p00 = &data[t.base00 as usize..t.base00 as usize + 3];
    let p10 = &data[t.base10 as usize..t.base10 as usize + 3];
    let p01 = &data[t.base01 as usize..t.base01 as usize + 3];
    let p11 = &data[t.base11 as usize..t.base11 as usize + 3];
    let mut out = [0.0f32; 3];
    for c in 0..3 {
        let top = p00[c] * (1.0 - t.fx) + p10[c] * t.fx;
        let bot = p01[c] * (1.0 - t.fx) + p11[c] * t.fx;
        out[c] = top * (1.0 - t.fy) + bot * t.fy;
    }
    out
}

/// Bilinear sample with clamped borders (scalar reference path).
fn sample_bilinear(img: &RgbImage, u: f64, v: f64) -> [f32; 3] {
    let t = bilin_tap(img.width(), img.height(), u, v);
    bilin_eval(img.as_slice(), &t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkas_scene::render::SceneRenderer;
    use lkas_scene::situation::TABLE3_SITUATIONS;
    use lkas_scene::track::{Track, LANE_WIDTH};

    fn rendered_frame() -> RgbImage {
        let track = Track::for_situation(&TABLE3_SITUATIONS[0], 500.0);
        SceneRenderer::new(Camera::default_automotive()).render(&track, 10.0, 0.0, 0.0)
    }

    /// Column (fractional) of a vehicle-frame lateral position: the
    /// inverse of [`BevImage::lateral_of_col`].
    fn col_of_lateral(bev: &BevImage, lateral: f64) -> f64 {
        let g = bev.roi.ground_extent();
        (g.y_left - lateral) / (g.y_left - g.y_right) * bev.width as f64 - 0.5
    }

    /// Vehicle-frame forward distance (m) of a row center: the inverse
    /// of [`BevImage::row_of_forward`].
    fn forward_of_row(bev: &BevImage, row: f64) -> f64 {
        let g = bev.roi.ground_extent();
        g.x_far - (row + 0.5) * (g.x_far - g.x_near) / bev.height as f64
    }

    #[test]
    fn geometry_roundtrip() {
        let be = BirdsEye::new(Camera::default_automotive(), Roi::Roi1).unwrap();
        let bev = be.rectify(&RgbImage::filled(512, 256, [0.0; 3]));
        for lateral in [-3.0, -1.0, 0.0, 2.5] {
            let col = col_of_lateral(&bev, lateral);
            assert!((bev.lateral_of_col(col) - lateral).abs() < 1e-9);
        }
        for fwd in [5.0, 10.0, 25.0] {
            let row = bev.row_of_forward(fwd);
            assert!((forward_of_row(&bev, row) - fwd).abs() < 1e-9);
        }
    }

    #[test]
    fn markings_appear_as_vertical_stripes() {
        // On a straight road centered in the lane, the left marking lies
        // at lateral +LANE_WIDTH/2 in *every* BEV row (that's the whole
        // point of the rectification).
        let be = BirdsEye::new(Camera::default_automotive(), Roi::Roi1).unwrap();
        let bev = be.rectify(&rendered_frame());
        let expect_col = col_of_lateral(&bev, LANE_WIDTH / 2.0).round() as usize;
        // Skip the farthest rows: at 30 m the camera resolves only
        // ≈0.1 m/px, so the peak can sit a few BEV columns off.
        for row in (40..bev.height() - 10).step_by(20) {
            // Find the brightest column in the left half of this row.
            let mut best = 0;
            let mut best_v = -1.0;
            for col in 0..bev.width() / 2 {
                let v = bev.get(col, row);
                if v > best_v {
                    best_v = v;
                    best = col;
                }
            }
            assert!(
                (best as i64 - expect_col as i64).abs() <= 3,
                "row {row}: marking at col {best}, expected ≈{expect_col}"
            );
        }
    }

    #[test]
    fn marking_score_prefers_markings() {
        use lkas_scene::render::albedo;
        let white = marking_score(albedo::WHITE_MARKING);
        let yellow = marking_score(albedo::YELLOW_MARKING);
        let road = marking_score(albedo::ROAD);
        let grass = marking_score(albedo::GRASS);
        assert!(white > 2.0 * road);
        assert!(yellow > 2.0 * road);
        assert!(grass < 2.0 * road);
    }

    #[test]
    fn yellow_score_drops_without_color_map() {
        // Push the yellow albedo through the sensor crosstalk (what the
        // ISP sees with CM skipped): the yellowness channel collapses.
        use lkas_imaging::sensor::CROSSTALK;
        use lkas_scene::render::albedo;
        let y = albedo::YELLOW_MARKING;
        let mut mixed = [0.0f32; 3];
        for c in 0..3 {
            mixed[c] = CROSSTALK[c][0] * y[0] + CROSSTALK[c][1] * y[1] + CROSSTALK[c][2] * y[2];
        }
        let yellowness = |p: [f32; 3]| ((p[0] + p[1]) / 2.0 - p[2]).max(0.0);
        assert!(yellowness(mixed) < 0.6 * yellowness(y));
    }

    #[test]
    fn bilinear_sampling_interpolates() {
        let mut img = RgbImage::new(2, 1);
        img.set(0, 0, [0.0, 0.0, 0.0]);
        img.set(1, 0, [1.0, 1.0, 1.0]);
        // Image coordinate 1.0 is the border between the two pixels.
        let mid = sample_bilinear(&img, 1.0, 0.5);
        assert!((mid[0] - 0.5).abs() < 1e-6, "got {}", mid[0]);
        // Pixel centers reproduce the pixel values exactly.
        let left = sample_bilinear(&img, 0.5, 0.5);
        assert_eq!(left, [0.0, 0.0, 0.0]);
        // Clamped outside.
        let out = sample_bilinear(&img, 5.0, 0.5);
        assert_eq!(out, [1.0, 1.0, 1.0]);
    }

    #[test]
    fn rectify_into_matches_rectify() {
        let frame = rendered_frame();
        let be = BirdsEye::new(Camera::default_automotive(), Roi::Roi1).unwrap();
        let fresh = be.rectify(&frame);
        // Reused buffer arrives with another rectifier's stale contents
        // and ROI; the result must still match exactly.
        let mut reused = BevImage::empty();
        BirdsEye::new(Camera::default_automotive(), Roi::Roi2)
            .unwrap()
            .rectify_into(&frame, &mut reused);
        be.rectify_into(&frame, &mut reused);
        assert_eq!(reused.as_slice(), fresh.as_slice());
        assert_eq!(reused.roi, Roi::Roi1);
    }

    /// The two cameras of the workspace: the default and hilbench's
    /// 256×128 one.
    fn cameras() -> [Camera; 2] {
        [Camera::default_automotive(), Camera::new(256, 128, 150.0, 1.3, 6.0_f64.to_radians())]
    }

    /// Bits of every cell, then of the accumulated sum.
    fn grid_bits(bev: &BevImage) -> Vec<u32> {
        bev.as_slice().iter().map(|v| v.to_bits()).chain([bev.score_sum().to_bits()]).collect()
    }

    /// Rectifies `frame` with both backends and asserts the grids and
    /// sums agree bit for bit; returns the scalar grid and whether the
    /// lane arm ran the SSE2 kernel.
    fn assert_lanes_match_scalar(be: &BirdsEye, frame: &RgbImage, what: &str) -> (BevImage, bool) {
        let scalar = be.rectify(frame);
        let (mut lanes, mut taps) = (BevImage::empty(), RectifyTaps::empty());
        // Twice through the same cache: cold build, then warm replay.
        for pass in 0..2 {
            be.rectify_into_with(frame, &mut lanes, KernelBackend::Lanes, &mut taps);
            assert!(grid_bits(&scalar) == grid_bits(&lanes), "{what} pass {pass}");
        }
        (scalar, taps.vectorized())
    }

    #[test]
    fn lane_rectify_is_bit_identical_to_scalar() {
        use lkas_imaging::isp::{IspConfig, IspPipeline};
        use lkas_imaging::sensor::{Sensor, SensorConfig};
        let track = Track::for_situation(&TABLE3_SITUATIONS[0], 500.0);
        for cam in cameras() {
            let scene = SceneRenderer::new(cam.clone()).render(&track, 10.0, 0.1, 0.02);
            let raw = Sensor::new(SensorConfig::default(), 3).capture(&scene, 1.0);
            let frame = IspPipeline::new(IspConfig::S0).process(&raw);
            for roi in Roi::ALL {
                let be = BirdsEye::new(cam.clone(), roi).unwrap();
                let what = format!("{roi} on {}x{}", cam.width(), cam.height());
                let (_, vectorized) = assert_lanes_match_scalar(&be, &frame, &what);
                // No built-in ROI reaches the last pixel, so a silent
                // fallback to the loop fails here.
                assert_eq!(vectorized, cfg!(target_arch = "x86_64"), "{what}");
            }
        }
    }

    #[test]
    fn taps_reaching_the_last_pixel_take_the_loop() {
        // The default camera's samples lie far outside a 64×32 frame, so
        // clamping sends taps to its last pixel, whose 4-float load would
        // read one float past the end.
        let mut frame = RgbImage::new(64, 32);
        for (i, v) in frame.as_mut_slice().iter_mut().enumerate() {
            *v = (i % 97) as f32 / 96.0;
        }
        let be = BirdsEye::new(Camera::default_automotive(), Roi::Roi2).unwrap();
        let (_, vectorized) = assert_lanes_match_scalar(&be, &frame, "64x32");
        assert!(!vectorized, "a table reaching the last pixel must not run the kernel");
    }

    #[test]
    fn nan_and_signed_zero_taps_score_like_scalar() {
        let specials = [
            0.0,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            -0.75,
            f32::from_bits(1),
            -f32::NAN,
            f32::NEG_INFINITY,
            1.0,
            -f32::from_bits(1),
        ];
        let cam = cameras()[1].clone();
        let be = BirdsEye::new(cam.clone(), Roi::Roi1).unwrap();
        let (w, h) = (cam.width(), cam.height());
        let mut seen = Vec::new();
        // Uniform frames: every cell scores one (r, g, b) of the first
        // six specials.
        let uniform = &specials[..6];
        for &r in uniform {
            for &g in uniform {
                for &b in uniform {
                    let frame = RgbImage::filled(w, h, [r, g, b]);
                    let (scalar, vectorized) =
                        assert_lanes_match_scalar(&be, &frame, &format!("[{r}, {g}, {b}]"));
                    assert_eq!(vectorized, cfg!(target_arch = "x86_64"));
                    seen.push(scalar.get(0, 0).to_bits());
                }
            }
        }
        // A frame mixing them tap by tap, channel by channel.
        let mut frame = RgbImage::new(w, h);
        for (i, v) in frame.as_mut_slice().iter_mut().enumerate() {
            *v = specials[(i * 7 + i / 5) % specials.len()];
        }
        assert_lanes_match_scalar(&be, &frame, "mixed");
        // Both zeros and NaN luma reached the score: -0.0 comes from the
        // all--0.0 frame (luma's sign), +0.0 from the all-NaN one.
        assert!(seen.contains(&(-0.0f32).to_bits()) && seen.contains(&0.0f32.to_bits()));
    }

    #[test]
    fn tap_cache_rebuilds_on_frame_and_roi_change() {
        let frame = rendered_frame();
        let mut taps = RectifyTaps::empty();
        let mut lanes = BevImage::empty();
        // Prime the cache with a *smaller* frame and a different ROI…
        let small = RgbImage::filled(64, 32, [0.3, 0.3, 0.3]);
        let be2 = BirdsEye::new(Camera::default_automotive(), Roi::Roi2).unwrap();
        be2.rectify_into_with(&small, &mut lanes, KernelBackend::Lanes, &mut taps);
        // …then rectify the real frame with another ROI through the same
        // cache: it must rebuild and match the scalar reference exactly.
        let be = BirdsEye::new(Camera::default_automotive(), Roi::Roi1).unwrap();
        be.rectify_into_with(&frame, &mut lanes, KernelBackend::Lanes, &mut taps);
        assert_eq!(be.rectify(&frame).as_slice(), lanes.as_slice());
    }

    #[test]
    fn every_producer_carries_the_sum_of_its_scores() {
        let sum_of = |bev: &BevImage| bev.as_slice().iter().sum::<f32>().to_bits();
        let empty = BevImage::empty();
        assert_eq!(empty.score_sum().to_bits(), sum_of(&empty), "the empty grid's -0.0");
        let frame = rendered_frame();
        let mut taps = RectifyTaps::empty();
        for roi in Roi::ALL {
            let be = BirdsEye::new(Camera::default_automotive(), roi).unwrap();
            let scalar = be.rectify(&frame);
            assert_eq!(scalar.score_sum().to_bits(), sum_of(&scalar), "{roi} scalar");
            let mut lanes = BevImage::empty();
            be.rectify_into_with(&frame, &mut lanes, KernelBackend::Lanes, &mut taps);
            assert_eq!(lanes.score_sum().to_bits(), sum_of(&lanes), "{roi} lanes");
        }
    }

    #[test]
    fn pixel_window_holds_every_bilinear_tap() {
        for cam in cameras() {
            let (w, h) = (cam.width(), cam.height());
            for roi in Roi::ALL {
                let be = BirdsEye::new(cam.clone(), roi).unwrap();
                let window = be.pixel_window(w, h);
                assert!(PixelWindow::full(w, h).contains(&window), "{roi} {window:?}");
                let mut taps = PixelWindow { x0: w, y0: h, x1: 0, y1: 0 };
                for &(u, v) in &be.samples {
                    let t = bilin_tap(w, h, u, v);
                    for base in [t.base00, t.base10, t.base01, t.base11] {
                        let (x, y) = ((base as usize / 3) % w, (base as usize / 3) / w);
                        taps.x0 = taps.x0.min(x);
                        taps.y0 = taps.y0.min(y);
                        taps.x1 = taps.x1.max(x + 1);
                        taps.y1 = taps.y1.max(y + 1);
                    }
                }
                assert!(window.contains(&taps), "{roi} on {w}x{h}: {window:?} misses {taps:?}");
                // A bound, not a blanket: within a few rows and columns.
                assert!(window.area() < taps.area() + (w + h) * 4, "{roi} on {w}x{h}");
            }
        }
    }

    #[test]
    fn all_rois_build_homographies() {
        for roi in Roi::ALL {
            assert!(BirdsEye::new(Camera::default_automotive(), roi).is_ok(), "{roi}");
        }
    }
}
