//! Feature extraction from ISP output frames.
//!
//! Stands in for the ResNet-18 convolutional trunk. Instead of learned
//! convolutions, the extractor combines photometric statistics with a
//! geometry-aware analysis of the marking evidence on the ground plane:
//!
//! * a coarse **luma grid** (global scene structure / brightness field),
//! * **color statistics** with illumination-normalized chroma ratios
//!   (lane color and scene tint survive brightness changes),
//! * a **brightness histogram** (day / night / dark / dawn / dusk
//!   separation),
//! * **ground-plane lane geometry**: every road pixel is back-projected
//!   onto the ground, marking-like evidence is z-score gated per
//!   longitudinal band, and the per-band left/right marking centroids
//!   yield a lane-center track whose quadratic fit exposes heading
//!   (linear term) and road curvature (quadratic term) independent of
//!   the vehicle's lateral pose; per-side masses, spreads and
//!   band-to-band mass variation expose the lane form (dotted vs
//!   continuous vs double).
//!
//! The three photometric statistics come from one row-major pass: luma
//! is computed once per pixel, the grid cell follows from per-row and
//! per-column cell bounds, and the histogram counts in `u32`. Every
//! accumulator still takes its terms in the order a separate pass over
//! its region would give it, so each f32 sum is bit-identical to the
//! three-pass formulation. The ground pass uses the camera's split
//! back-projection ([`Camera::ground_row`], [`Camera::ground_column`]):
//! a row's forward distance decides its band, so rows outside the
//! analyzed 4–28 m are skipped whole. [`extract_into`] with a reused
//! [`FeatureScratch`] allocates nothing once the buffers have grown to
//! the frame's size; [`extract`] allocates both.

use lkas_imaging::image::RgbImage;
use lkas_linalg::polyfit::{polyfit_into, PolyfitScratch};
use lkas_scene::camera::Camera;

/// Number of luma-grid cells (8 × 4).
const GRID_W: usize = 8;
const GRID_H: usize = 4;
/// Brightness histogram bins.
const HIST_BINS: usize = 8;
/// Longitudinal ground bands (3 m each, from `X_NEAR`).
const BANDS: usize = 8;
/// Near edge of the analyzed ground region (m).
const X_NEAR: f64 = 4.0;
/// Band length (m).
const BAND_LEN: f64 = 3.0;
/// Lateral half-extent of the analyzed ground region (m).
const Y_HALF: f64 = 7.0;
/// Geometry feature count (see `geometry_features`).
const GEOM_FEATURES: usize = 11;

/// Total feature dimensionality produced by [`extract`].
pub const FEATURE_DIM: usize = GRID_W * GRID_H + 6 + HIST_BINS + GEOM_FEATURES;

/// Reusable buffers of [`extract_into`]: the back-projection's column
/// terms, the ground samples, the gated samples, the per-band lateral
/// histograms and the lane-track fit. The first extraction sizes them
/// for the frame dimensions; from then on, extraction at those
/// dimensions allocates nothing, whatever the frame shows. The contents
/// carry no state between calls.
#[derive(Debug, Clone)]
pub struct FeatureScratch {
    /// `Camera::ground_column(u)` per integer column `u`.
    columns: Vec<f64>,
    /// Ground samples of the analyzed region: (band, y, score).
    samples: Vec<(usize, f64, f64)>,
    /// Samples that pass the z-score gate: (band, y, z).
    gated: Vec<(usize, f64, f64)>,
    /// Per-band lateral histograms, band after band.
    hists: Vec<f64>,
    polyfit: PolyfitScratch,
}

impl FeatureScratch {
    /// Creates empty buffers; the lane-track fit's are sized for its
    /// largest fit up front.
    pub fn new() -> Self {
        FeatureScratch {
            columns: Vec::new(),
            samples: Vec::new(),
            gated: Vec::new(),
            hists: Vec::new(),
            polyfit: PolyfitScratch::with_capacity(BANDS, 3),
        }
    }
}

impl Default for FeatureScratch {
    fn default() -> Self {
        FeatureScratch::new()
    }
}

/// Extracts the feature vector of a frame.
///
/// The camera supplies the ground-plane back-projection; it must be the
/// camera the frame was captured with. Allocates the vector and a
/// fresh [`FeatureScratch`]; [`extract_into`] reuses both.
///
/// # Panics
///
/// Panics if the frame is smaller than 8×4 pixels.
///
/// # Example
///
/// ```
/// use lkas_imaging::image::RgbImage;
/// use lkas_nn::features::{extract, FEATURE_DIM};
/// use lkas_scene::camera::Camera;
///
/// let cam = Camera::default_automotive();
/// let frame = RgbImage::filled(512, 256, [0.4, 0.4, 0.4]);
/// let f = extract(&frame, &cam);
/// assert_eq!(f.len(), FEATURE_DIM);
/// ```
pub fn extract(frame: &RgbImage, camera: &Camera) -> Vec<f32> {
    let mut features = Vec::with_capacity(FEATURE_DIM);
    extract_into(frame, camera, &mut FeatureScratch::new(), &mut features);
    features
}

/// [`extract`] into a caller-owned vector (cleared first) with
/// caller-owned buffers: the allocation-free extraction path, bit for
/// bit the same features.
///
/// # Panics
///
/// Panics if the frame is smaller than 8×4 pixels.
pub fn extract_into(
    frame: &RgbImage,
    camera: &Camera,
    scratch: &mut FeatureScratch,
    features: &mut Vec<f32>,
) {
    let w = frame.width();
    let h = frame.height();
    assert!(w >= GRID_W && h >= GRID_H, "frame too small for feature grid");
    features.clear();
    let horizon = camera.horizon_row();

    // --- One photometric pass ---------------------------------------------
    // Row-major, so each accumulator below takes its terms in the order
    // of a separate pass over its own region: every cell's pixels row by
    // row, the road region and the whole frame in raster order.
    let x_cells: [usize; GRID_W + 1] = std::array::from_fn(|gx| gx * w / GRID_W);
    let y_cells: [usize; GRID_H + 1] = std::array::from_fn(|gy| gy * h / GRID_H);
    let road_start = (horizon.max(0.0) as usize).min(h - 1);
    let mut cell_sums = [0.0f32; GRID_W * GRID_H];
    let mut means = [0.0f32; 3];
    let mut yellow = 0.0f32;
    let mut hist = [0u32; HIST_BINS];
    let mut gy = 0;
    for (y, row) in frame.as_slice().chunks_exact(3 * w).enumerate() {
        while y >= y_cells[gy + 1] {
            gy += 1;
        }
        let road = y >= road_start;
        for gx in 0..GRID_W {
            let sum = &mut cell_sums[gy * GRID_W + gx];
            for p in row[3 * x_cells[gx]..3 * x_cells[gx + 1]].chunks_exact(3) {
                let luma = 0.299 * p[0] + 0.587 * p[1] + 0.114 * p[2];
                *sum += luma;
                hist[(luma.clamp(0.0, 0.999) * HIST_BINS as f32) as usize] += 1;
                if road {
                    for c in 0..3 {
                        means[c] += p[c];
                    }
                    yellow += ((p[0] + p[1]) / 2.0 - p[2]).max(0.0);
                }
            }
        }
    }

    // --- Luma grid -------------------------------------------------------
    for gy in 0..GRID_H {
        for gx in 0..GRID_W {
            let n = ((x_cells[gx + 1] - x_cells[gx]) * (y_cells[gy + 1] - y_cells[gy])) as u32;
            let sum = cell_sums[gy * GRID_W + gx];
            features.push(if n > 0 { sum / n as f32 } else { 0.0 });
        }
    }

    // --- Color statistics (road region only) ------------------------------
    let n = ((h - road_start) * w) as u32;
    let nf = (n.max(1)) as f32;
    let (mr, mg, mb) = (means[0] / nf, means[1] / nf, means[2] / nf);
    let luma_mean = (0.299 * mr + 0.587 * mg + 0.114 * mb).max(1e-4);
    features.extend_from_slice(&[mr, mg, mb, 4.0 * yellow / nf]);
    // Illumination-normalized chroma ratios: survive the ambient level,
    // expose the scene tint and lane color.
    features.push((mr - mb) / luma_mean);
    features.push((yellow / nf) / luma_mean);

    // --- Brightness histogram (whole frame) -------------------------------
    // An f32 count of ones is exact up to 2^24 and stays there.
    let total = (w * h) as f32;
    features.extend(hist.iter().map(|&count| count.min(1 << 24) as f32 / total));

    // --- Ground-plane lane geometry ---------------------------------------
    features.extend_from_slice(&geometry_features(frame, camera, scratch));

    debug_assert_eq!(features.len(), FEATURE_DIM);
}

/// A marking cluster found in one band: gated-evidence mass (normalized
/// per band pixel), lateral centroid and spread.
#[derive(Debug, Clone, Copy, Default)]
struct Cluster {
    mass: f64,
    centroid: f64,
    spread: f64,
}

/// The up to two marking clusters of one band.
#[derive(Debug, Clone, Copy, Default)]
struct BandClusters {
    found: [Cluster; 2],
    len: usize,
}

impl BandClusters {
    fn push(&mut self, cluster: Cluster) {
        self.found[self.len] = cluster;
        self.len += 1;
    }

    fn get(&self) -> &[Cluster] {
        &self.found[..self.len]
    }
}

/// Lateral histogram resolution for cluster extraction (m).
const Y_BIN: f64 = 0.25;
/// Minimum lateral separation between the two marking clusters (m).
const MIN_CLUSTER_SEP: f64 = 2.0;
/// Half-window around a histogram peak used to refine the cluster (m).
const CLUSTER_WIN: f64 = 0.6;

/// The lane-center track `c(x) = c0 + c1·x + c2·x²` through the band
/// centers `(xs, cs)`: quadratic with four or more bands spanning 12 m,
/// linear with two or more, zero otherwise (or when the fit fails).
fn fit_track(xs: &[f64], cs: &[f64], scratch: &mut PolyfitScratch) -> (f64, f64, f64) {
    let span = if xs.is_empty() {
        0.0
    } else {
        xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - xs.iter().cloned().fold(f64::INFINITY, f64::min)
    };
    // A quadratic needs longitudinal leverage; with a short span the
    // curvature term just amplifies noise.
    let mut c = [0.0; 3];
    if xs.len() >= 4 && span >= 12.0 {
        match polyfit_into(xs, cs, &mut c, scratch) {
            Ok(()) => (c[0], c[1], c[2]),
            Err(_) => (0.0, 0.0, 0.0),
        }
    } else if xs.len() >= 2 {
        match polyfit_into(xs, cs, &mut c[..2], scratch) {
            Ok(()) => (c[0], c[1], 0.0),
            Err(_) => (0.0, 0.0, 0.0),
        }
    } else {
        (0.0, 0.0, 0.0)
    }
}

/// The 11 ground-plane geometry features:
/// `[c0, c1·10, c2·200, massL, massR, mass_ratio, spreadL·5, spreadR·5,
/// cvL, cvR, density·20]`, where `c(x) = c0 + c1·x + c2·x²` is the lane
/// center track fitted over the longitudinal bands.
fn geometry_features(
    frame: &RgbImage,
    camera: &Camera,
    scratch: &mut FeatureScratch,
) -> [f32; GEOM_FEATURES] {
    let w = frame.width();
    let h = frame.height();
    let horizon = camera.horizon_row().max(0.0) as usize;

    // Pass 1: back-project road pixels, collect per-band score stats and
    // the ground samples for gating. The back-projection is split: a
    // row's forward distance decides its band (rows outside the analyzed
    // region are skipped whole), a column's term scales into the lateral
    // offset.
    scratch.columns.clear();
    scratch.columns.extend((0..w).map(|u| camera.ground_column(u as f64)));
    let samples = &mut scratch.samples;
    samples.clear();
    let mut band_sum = [0.0f64; BANDS];
    let mut band_sum2 = [0.0f64; BANDS];
    let mut band_cnt = [0u32; BANDS];
    for v in horizon..h {
        let Some((gx, t)) = camera.ground_row(v as f64) else {
            continue;
        };
        if gx < X_NEAR || gx >= X_NEAR + BANDS as f64 * BAND_LEN {
            continue;
        }
        let band = ((gx - X_NEAR) / BAND_LEN) as usize;
        let row = &frame.as_slice()[3 * w * v..3 * w * (v + 1)];
        for (ry, p) in scratch.columns.iter().zip(row.chunks_exact(3)) {
            let gy = t * ry;
            if gy.abs() > Y_HALF {
                continue;
            }
            let s = score_of([p[0], p[1], p[2]]) as f64;
            band_sum[band] += s;
            band_sum2[band] += s * s;
            band_cnt[band] += 1;
            samples.push((band, gy, s));
        }
    }

    // Pass 2: gate by per-band z-score into per-band lateral histograms.
    let n_bins = (2.0 * Y_HALF / Y_BIN) as usize;
    let hists = &mut scratch.hists;
    hists.clear();
    hists.resize(BANDS * n_bins, 0.0);
    // Room for every sample to pass, so no frame outgrows the buffers.
    let gated_samples = &mut scratch.gated;
    gated_samples.clear();
    gated_samples.reserve(samples.len());
    let mut gated = 0u32;
    for &(band, gy, s) in samples.iter() {
        let cnt = band_cnt[band].max(1) as f64;
        let mean = band_sum[band] / cnt;
        let std = ((band_sum2[band] / cnt - mean * mean).max(0.0)).sqrt().max(1e-5);
        let z = (s - mean) / std;
        if z > 2.0 {
            gated += 1;
            let bin = (((gy + Y_HALF) / Y_BIN) as usize).min(n_bins - 1);
            hists[band * n_bins + bin] += z;
            gated_samples.push((band, gy, z));
        }
    }

    // Per-band cluster extraction: up to two histogram peaks separated by
    // at least MIN_CLUSTER_SEP, refined by local moments.
    let refine = |band: usize, peak_y: f64| -> Cluster {
        let mut mass = 0.0;
        let mut my = 0.0;
        let mut my2 = 0.0;
        for &(b, y, z) in gated_samples.iter() {
            if b == band && (y - peak_y).abs() <= CLUSTER_WIN {
                mass += z;
                my += z * y;
                my2 += z * y * y;
            }
        }
        let centroid = if mass > 1e-9 { my / mass } else { peak_y };
        let spread =
            if mass > 1e-9 { (my2 / mass - centroid * centroid).max(0.0).sqrt() } else { 0.0 };
        Cluster { mass: mass / band_cnt[band].max(1) as f64, centroid, spread }
    };
    let mut clusters = [BandClusters::default(); BANDS];
    for (band, found) in clusters.iter_mut().enumerate() {
        let hist = &hists[band * n_bins..(band + 1) * n_bins];
        let peak1 = hist
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, &v)| (i, v));
        if let Some((i1, v1)) = peak1 {
            if v1 > 1.0 {
                let y1 = -Y_HALF + (i1 as f64 + 0.5) * Y_BIN;
                found.push(refine(band, y1));
                // Second peak, excluding the neighborhood of the first.
                let sep_bins = (MIN_CLUSTER_SEP / Y_BIN) as usize;
                let peak2 = hist
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i.abs_diff(i1) >= sep_bins)
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(i, &v)| (i, v));
                if let Some((i2, v2)) = peak2 {
                    if v2 > 1.0 {
                        let y2 = -Y_HALF + (i2 as f64 + 0.5) * Y_BIN;
                        found.push(refine(band, y2));
                    }
                }
            }
        }
    }

    // Validate two-cluster bands: the pair must be about one lane width
    // apart, otherwise one "cluster" is noise — keep only the stronger.
    for cl in &mut clusters {
        if let [a, b] = *cl.get() {
            let sep = (a.centroid - b.centroid).abs();
            if (sep - lkas_scene::track::LANE_WIDTH).abs() > 1.2 {
                let keep = if a.mass >= b.mass { a } else { b };
                *cl = BandClusters::default();
                cl.push(keep);
            }
        }
    }

    // Lane-center track from validated two-cluster bands.
    let band_x = |band: usize| X_NEAR + (band as f64 + 0.5) * BAND_LEN;
    let mut xs = [0.0f64; BANDS];
    let mut cs = [0.0f64; BANDS];
    let mut n_track = 0;
    for (band, cl) in clusters.iter().enumerate() {
        if let [a, b] = cl.get() {
            xs[n_track] = band_x(band);
            cs[n_track] = (a.centroid + b.centroid) / 2.0;
            n_track += 1;
        }
    }
    let (xs, cs) = (&xs[..n_track], &cs[..n_track]);
    let (mut c0, mut c1, mut c2) = fit_track(xs, cs, &mut scratch.polyfit);
    // Robust refit: drop bands whose center deviates > 0.5 m from the
    // first fit (dash-phase and noise outliers).
    if xs.len() >= 4 {
        let mut xs2 = [0.0f64; BANDS];
        let mut cs2 = [0.0f64; BANDS];
        let mut kept = 0;
        for i in 0..xs.len() {
            if (cs[i] - (c0 + c1 * xs[i] + c2 * xs[i] * xs[i])).abs() < 0.5 {
                xs2[kept] = xs[i];
                cs2[kept] = cs[i];
                kept += 1;
            }
        }
        if kept >= 3 && kept < xs.len() {
            let refit = fit_track(&xs2[..kept], &cs2[..kept], &mut scratch.polyfit);
            c0 = refit.0;
            c1 = refit.1;
            c2 = refit.2;
        }
    }
    let center_at = |x: f64| c0 + c1 * x + c2 * x * x;
    let have_center = xs.len() >= 2;

    // Assign clusters to the left/right marking per band.
    let mut mass_l = [0.0f64; BANDS];
    let mut mass_r = [0.0f64; BANDS];
    let mut spread_l = (0.0f64, 0.0f64); // (weighted sum, mass)
    let mut spread_r = (0.0f64, 0.0f64);
    for (band, cl) in clusters.iter().enumerate() {
        match cl.get() {
            [a, b] => {
                let (l, r) = if a.centroid >= b.centroid { (a, b) } else { (b, a) };
                mass_l[band] = l.mass;
                mass_r[band] = r.mass;
                spread_l.0 += l.spread * l.mass;
                spread_l.1 += l.mass;
                spread_r.0 += r.spread * r.mass;
                spread_r.1 += r.mass;
            }
            [c] if have_center => {
                if c.centroid >= center_at(band_x(band)) {
                    mass_l[band] = c.mass;
                    spread_l.0 += c.spread * c.mass;
                    spread_l.1 += c.mass;
                } else {
                    mass_r[band] = c.mass;
                    spread_r.0 += c.spread * c.mass;
                    spread_r.1 += c.mass;
                }
            }
            _ => {}
        }
    }

    let total_px: u32 = band_cnt.iter().sum();
    let sum_l: f64 = mass_l.iter().sum();
    let sum_r: f64 = mass_r.iter().sum();
    let ratio = sum_l / (sum_l + sum_r + 1e-9);
    let cv = |masses: &[f64]| -> f64 {
        let m = masses.iter().sum::<f64>() / masses.len() as f64;
        if m <= 1e-9 {
            return 0.0;
        }
        let var = masses.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / masses.len() as f64;
        var.sqrt() / m
    };
    let wavg = |(sum, mass): (f64, f64)| if mass > 1e-9 { sum / mass } else { 0.0 };

    // Clamped so residual outlier fits cannot dominate the normalized
    // feature distribution.
    [
        (c0.clamp(-4.0, 4.0)) as f32,
        (c1 * 10.0).clamp(-5.0, 5.0) as f32,
        (c2 * 200.0).clamp(-3.0, 3.0) as f32,
        (sum_l * 20.0) as f32,
        (sum_r * 20.0) as f32,
        ratio as f32,
        (wavg(spread_l) * 5.0) as f32,
        (wavg(spread_r) * 5.0) as f32,
        cv(&mass_l) as f32,
        cv(&mass_r) as f32,
        (gated as f64 / total_px.max(1) as f64 * 20.0) as f32,
    ]
}

/// Marking-likelihood score of one pixel (luma or boosted yellowness).
#[inline]
fn score_of(p: [f32; 3]) -> f32 {
    let luma = 0.299 * p[0] + 0.587 * p[1] + 0.114 * p[2];
    let yell = ((p[0] + p[1]) / 2.0 - p[2]).max(0.0);
    luma.max(1.6 * yell)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkas_imaging::isp::{IspConfig, IspPipeline};
    use lkas_imaging::sensor::{Sensor, SensorConfig};
    use lkas_scene::render::SceneRenderer;
    use lkas_scene::situation::TABLE3_SITUATIONS;
    use lkas_scene::track::Track;

    const GEOM_BASE: usize = GRID_W * GRID_H + 6 + HIST_BINS;

    fn features_for_situation(idx: usize, seed: u64) -> Vec<f32> {
        features_at(idx, 60.0, 0.0, seed)
    }

    fn features_at(idx: usize, s: f64, d: f64, seed: u64) -> Vec<f32> {
        let cam = Camera::default_automotive();
        let track = Track::for_situation(&TABLE3_SITUATIONS[idx], 1000.0);
        let frame = SceneRenderer::new(cam.clone()).render(&track, s, d, 0.0);
        let raw = Sensor::new(SensorConfig::default(), seed).capture(&frame, 1.0);
        let rgb = IspPipeline::new(IspConfig::S0).process(&raw);
        extract(&rgb, &cam)
    }

    #[test]
    fn dimension_is_stable() {
        let f = features_for_situation(0, 1);
        assert_eq!(f.len(), FEATURE_DIM);
        assert!(f.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn day_and_dark_differ_in_histogram() {
        let day = features_for_situation(0, 1);
        let dark = features_for_situation(6, 1);
        let base = GRID_W * GRID_H + 6;
        let day_low: f32 = day[base..base + 2].iter().sum();
        let dark_low: f32 = dark[base..base + 2].iter().sum();
        assert!(dark_low > day_low, "dark scenes concentrate in low bins");
    }

    #[test]
    fn yellow_lane_raises_chroma_ratio() {
        let white = features_for_situation(0, 2);
        let yellow = features_for_situation(2, 2);
        let idx = GRID_W * GRID_H + 5; // normalized yellowness ratio
        assert!(yellow[idx] > white[idx]);
    }

    #[test]
    fn yellow_ratio_survives_night() {
        let white_night = features_for_situation(4, 3);
        let yellow_night = features_for_situation(5, 3);
        let idx = GRID_W * GRID_H + 5;
        assert!(yellow_night[idx] > white_night[idx]);
    }

    #[test]
    fn curvature_feature_orders_layouts() {
        // c2 (index GEOM_BASE + 2) is the quadratic lane-center
        // coefficient: positive for left turns, negative for right.
        let right = features_for_situation(7, 3);
        let left = features_for_situation(14, 3);
        let straight = features_for_situation(0, 3);
        let c2 = |f: &[f32]| f[GEOM_BASE + 2];
        assert!(
            c2(&left) > c2(&straight) + 0.1
                && c2(&straight) > c2(&right) - 0.1
                && c2(&left) > c2(&right) + 0.3,
            "c2 ordering: left {} straight {} right {}",
            c2(&left),
            c2(&straight),
            c2(&right)
        );
    }

    #[test]
    fn curvature_feature_tolerates_lateral_pose() {
        let centered = features_at(7, 60.0, 0.0, 9)[GEOM_BASE + 2];
        let offset = features_at(7, 60.0, 0.4, 9)[GEOM_BASE + 2];
        assert!(
            (centered - offset).abs() < 0.5 * centered.abs().max(0.2),
            "c2 {centered} vs {offset} should be pose-tolerant"
        );
    }

    #[test]
    fn dotted_left_lane_raises_left_cv() {
        let cont = features_for_situation(0, 4);
        let dotted = features_for_situation(1, 4);
        let cv_l = |f: &[f32]| f[GEOM_BASE + 8];
        assert!(
            cv_l(&dotted) > cv_l(&cont),
            "dotted CV {} must exceed continuous {}",
            cv_l(&dotted),
            cv_l(&cont)
        );
    }

    #[test]
    fn double_lane_raises_left_spread() {
        let single = features_for_situation(2, 5); // yellow continuous
        let double = features_for_situation(3, 5); // yellow double
        let spread_l = |f: &[f32]| f[GEOM_BASE + 6];
        assert!(
            spread_l(&double) > spread_l(&single),
            "double spread {} vs single {}",
            spread_l(&double),
            spread_l(&single)
        );
    }
}
