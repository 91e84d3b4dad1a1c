//! Reference formulations of the renderer, the sensor's exposure, the
//! feature extractor, perception's binarize and sliding-window search,
//! and the sequential classifier update.
//!
//! `lkas_scene::render::SceneRenderer` and `lkas_nn::features` do each
//! pose-independent computation once per camera, frame or sector;
//! `lkas_imaging::sensor` draws its normals a row chunk at a time with
//! exact ports of glibc's `logf` and `cosf`; `lkas_perception` binarizes
//! with the mean the rectifier accumulated and searches with row-slice
//! mask walks, a median selection and the fused degree-2 QR;
//! `lkas::identify` runs the invoked classifiers as one batched, grouped
//! GEMM. The functions here are the plain formulations they replaced,
//! kept verbatim: every pixel back-projected with its own `sin_cos`, two
//! sector searches per ground pixel, one `rem_euclid` per dotted line,
//! one libm `ln` and `cos` per photosite, three photometric passes over
//! the frame, two folds over the bird's-eye grid, `get(col, row)` per
//! mask cell, a full sort for the residual median, the generic
//! `polyfit_into`, and one forward pass per invoked classifier. Where a
//! library type keeps its fields private they work on plain values
//! ([`Mask`], [`SearchScratch`], a sensor's noise counter) or through its
//! public accessors. They exist to be compared against —
//! `kernel_equivalence` requires bit-identical frames, RAW captures,
//! feature vectors, masks, fits, perception outputs and situation
//! estimates, and `isp_throughput` times the library against them in one
//! process — and nothing in the program calls them.

use lkas::identify::{ClassifierBundle, SituationEstimate};
use lkas_imaging::image::{BayerChannel, PixelWindow, RawImage, RgbImage};
use lkas_imaging::sensor::{SensorConfig, CROSSTALK};
use lkas_linalg::polyfit::{polyfit, polyfit_into, polyval, PolyfitScratch};
use lkas_perception::bev::BevImage;
use lkas_perception::pipeline::{PerceptionConfig, PerceptionError, PerceptionOutput};
use lkas_perception::sliding::{
    LaneFit, SlidingWindowResult, MARGIN_M, MIN_PIX_FIT, MIN_PIX_RECENTER, MIN_ROW_SPAN, N_WINDOWS,
};
use lkas_perception::threshold::{K_SIGMA, MIN_THRESHOLD};
use lkas_platform::schedule::ClassifierSet;
use lkas_scene::camera::Camera;
use lkas_scene::render::{albedo, HEADLIGHT_FALLOFF, SHOULDER};
use lkas_scene::situation::{LaneColor, LaneForm, SceneKind};
use lkas_scene::track::{
    LaneSpec, Track, DASH_GAP, DASH_LENGTH, DOUBLE_GAP, LANE_WIDTH, MARKING_WIDTH,
};

/// Back-projects the pixel `(u, v)` onto the ground plane: the
/// `(x_forward, y_left)` ground point, or `None` at or above the
/// horizon.
pub fn ground_from_pixel(camera: &Camera, u: f64, v: f64) -> Option<(f64, f64)> {
    let (cu, cv) = camera.principal_point();
    let un = (u - cu) / camera.focal(); // right
    let vn = (v - cv) / camera.focal(); // down
    let (sp, cp) = camera.pitch().sin_cos();
    let rx = cp - vn * sp;
    let ry = -un;
    let rz = -sp - vn * cp;
    if rz >= -1e-9 {
        return None; // at or above the horizon
    }
    let t = camera.mount_height() / -rz;
    Some((t * rx, t * ry))
}

/// `true` if a marking of `form` is painted at arc position `s`.
fn marking_painted_at(form: LaneForm, s: f64) -> bool {
    match form {
        LaneForm::Continuous | LaneForm::DoubleContinuous => true,
        LaneForm::Dotted => {
            let period = DASH_LENGTH + DASH_GAP;
            s.rem_euclid(period) < DASH_LENGTH
        }
    }
}

/// The full frame seen from pose `(s, d, psi)`.
///
/// # Panics
///
/// Panics if the camera is invalid.
pub fn render(camera: &Camera, track: &Track, s: f64, d: f64, psi: f64) -> RgbImage {
    let mut img = RgbImage::new(camera.width(), camera.height());
    render_window(
        camera,
        track,
        s,
        d,
        psi,
        PixelWindow::full(camera.width(), camera.height()),
        &mut img,
    );
    img
}

/// The pixels of `window` seen from pose `(s, d, psi)`; every other
/// pixel of `img` keeps its contents.
///
/// # Panics
///
/// Panics if the camera is invalid or the window leaves the frame.
pub fn render_window(
    camera: &Camera,
    track: &Track,
    s: f64,
    d: f64,
    psi: f64,
    window: PixelWindow,
    img: &mut RgbImage,
) {
    camera.validate().expect("valid camera");
    let w = camera.width();
    let h = camera.height();
    window.assert_within(w, h);
    img.reshape(w, h);
    let (sin_psi, cos_psi) = psi.sin_cos();
    let scene = track.sector_at(s).scene;

    for v in window.rows() {
        for u in window.columns() {
            let color = match ground_from_pixel(camera, u as f64 + 0.5, v as f64 + 0.5) {
                None => sky_color(scene),
                Some((xf, yl)) => {
                    // Rotate the vehicle-frame ground point into the
                    // lane-aligned frame.
                    let xa = xf * cos_psi - yl * sin_psi;
                    let ya = xf * sin_psi + yl * cos_psi;
                    if xa <= 0.1 {
                        // Directly under the bumper; treat as road.
                        lit(albedo::ROAD, scene, 0.0)
                    } else {
                        let sp = s + xa;
                        // Offset from the (curving) lane center: the
                        // centerline bends by ~κ·xa²/2 over the preview
                        // distance.
                        let kappa = track.curvature_at(sp);
                        let lateral = d + ya - kappa * xa * xa / 2.0;
                        let albedo = surface_albedo(camera, track, sp, lateral, xa);
                        lit(albedo, scene, xa)
                    }
                }
            };
            img.set(u, v, color);
        }
    }
}

/// Albedo of the ground at arc position `sp`, lateral offset `lateral`
/// from the lane center, seen from forward distance `xa` (for
/// anti-aliasing footprint).
fn surface_albedo(camera: &Camera, track: &Track, sp: f64, lateral: f64, xa: f64) -> [f32; 3] {
    let sector = track.sector_at(sp);
    let footprint = camera.ground_meters_per_pixel(xa);
    let half_marking = MARKING_WIDTH / 2.0;

    // Candidate marking line centers (lateral offsets from the lane
    // center) and their specs.
    let mut lines: [(f64, LaneSpec); 4] = [
        (LANE_WIDTH / 2.0, sector.left_lane),
        (f64::NAN, sector.left_lane),
        (-LANE_WIDTH / 2.0, sector.right_lane),
        (f64::NAN, sector.right_lane),
    ];
    if sector.left_lane.form == LaneForm::DoubleContinuous {
        let off = (MARKING_WIDTH + DOUBLE_GAP) / 2.0;
        lines[0].0 = LANE_WIDTH / 2.0 - off;
        lines[1].0 = LANE_WIDTH / 2.0 + off;
    }
    if sector.right_lane.form == LaneForm::DoubleContinuous {
        let off = (MARKING_WIDTH + DOUBLE_GAP) / 2.0;
        lines[2].0 = -LANE_WIDTH / 2.0 + off;
        lines[3].0 = -LANE_WIDTH / 2.0 - off;
    }

    // Base surface.
    let road_half = LANE_WIDTH / 2.0 + SHOULDER;
    let base = if lateral.abs() <= road_half { albedo::ROAD } else { albedo::GRASS };

    // Blend in the nearest marking line by its pixel coverage.
    let mut best_cover = 0.0f64;
    let mut best_color = base;
    for (center, spec) in lines {
        if center.is_nan() {
            continue;
        }
        if !marking_painted_at(spec.form, sp) {
            continue;
        }
        let dist = (lateral - center).abs();
        let cover = ((half_marking + footprint / 2.0 - dist) / footprint).clamp(0.0, 1.0);
        if cover > best_cover {
            best_cover = cover;
            best_color = match spec.color {
                LaneColor::White => albedo::WHITE_MARKING,
                LaneColor::Yellow => albedo::YELLOW_MARKING,
            };
        }
    }
    if best_cover <= 0.0 {
        return base;
    }
    let c = best_cover as f32;
    [
        base[0] * (1.0 - c) + best_color[0] * c,
        base[1] * (1.0 - c) + best_color[1] * c,
        base[2] * (1.0 - c) + best_color[2] * c,
    ]
}

/// Applies scene illumination (ambient + head-lights) and tint to an
/// albedo at forward distance `xf`.
fn lit(albedo: [f32; 3], scene: SceneKind, xf: f64) -> [f32; 3] {
    let ambient = scene.ambient_illumination();
    let head = scene.headlight_gain() * (-xf / HEADLIGHT_FALLOFF).exp() as f32;
    let level = (ambient + head).min(1.2);
    let tint = scene.tint();
    [albedo[0] * level * tint[0], albedo[1] * level * tint[1], albedo[2] * level * tint[2]]
}

/// Sky irradiance for a scene.
fn sky_color(scene: SceneKind) -> [f32; 3] {
    let level = scene.ambient_illumination() * 0.9;
    let tint = scene.tint();
    [
        albedo::SKY[0] * level * tint[0],
        albedo::SKY[1] * level * tint[1],
        albedo::SKY[2] * level * tint[2],
    ]
}

/// Counter increment of one splitmix64 draw (the golden-ratio gamma).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 output at counter `state` — the draw `StdRng` returns
/// once its state has advanced to `state`.
#[inline(always)]
fn splitmix64(state: u64) -> u64 {
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `gen_range(lo..hi)` over f32 applied to the 64 bits `z`: the top 24
/// bits scaled into `[0, 1)`, then mapped onto the range.
#[inline(always)]
fn uniform(lo: f32, hi: f32, z: u64) -> f32 {
    let unit = (z >> 40) as f32 * (1.0 / (1u32 << 24) as f32);
    lo + unit * (hi - lo)
}

/// Standard normal noise of pixel `i` of the frame whose noise starts at
/// counter `start` (Box–Muller over the pixel's two keyed draws).
#[inline(always)]
fn pixel_gaussian(start: u64, i: usize) -> f32 {
    let first = start.wrapping_add((2 * i as u64 + 1).wrapping_mul(GAMMA));
    let u1 = uniform(f32::EPSILON, 1.0, splitmix64(first));
    let u2 = uniform(0.0, 1.0, splitmix64(first.wrapping_add(GAMMA)));
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// The photosites of `window` of the frame captured with `config` whose
/// noise starts at counter `start` — the first frame of
/// `Sensor::new(config, start)`; every other photosite of `raw` keeps its
/// contents.
///
/// # Panics
///
/// Panics if the scene dimensions are odd or the window does not lie
/// inside the frame.
pub fn capture_window(
    config: &SensorConfig,
    start: u64,
    scene: &RgbImage,
    illumination: f32,
    window: PixelWindow,
    raw: &mut RawImage,
) {
    let (w, h) = (scene.width(), scene.height());
    raw.reshape(w, h);
    window.assert_within(w, h);
    let g = config.gain;
    for y in window.rows() {
        for x in window.columns() {
            let px = scene.get(x, y);
            // Illumination scaling happens in the scene-referred
            // domain (light level), then sensor crosstalk.
            let lit = [px[0] * illumination, px[1] * illumination, px[2] * illumination];
            let row = match raw.channel_at(x, y) {
                BayerChannel::Red => CROSSTALK[0],
                BayerChannel::GreenR | BayerChannel::GreenB => CROSSTALK[1],
                BayerChannel::Blue => CROSSTALK[2],
            };
            let signal = (row[0] * lit[0] + row[1] * lit[1] + row[2] * lit[2]) * g;
            let var = config.read_noise.powi(2) + config.shot_noise.powi(2) * signal.max(0.0);
            let noise = pixel_gaussian(start, y * w + x) * var.sqrt();
            raw.set(x, y, (signal + noise).clamp(0.0, 1.0));
        }
    }
}

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

/// The feature vector of an ISP output frame.
///
/// # Panics
///
/// Panics if the frame is smaller than 8×4 pixels.
pub fn extract(frame: &RgbImage, camera: &Camera) -> Vec<f32> {
    let w = frame.width();
    let h = frame.height();
    assert!(w >= GRID_W && h >= GRID_H, "frame too small for feature grid");
    let mut features = Vec::with_capacity(FEATURE_DIM);
    let horizon = camera.horizon_row();

    // --- Luma grid -------------------------------------------------------
    for gy in 0..GRID_H {
        for gx in 0..GRID_W {
            let x0 = gx * w / GRID_W;
            let x1 = (gx + 1) * w / GRID_W;
            let y0 = gy * h / GRID_H;
            let y1 = (gy + 1) * h / GRID_H;
            let mut sum = 0.0f32;
            let mut n = 0u32;
            for y in y0..y1 {
                for x in x0..x1 {
                    let p = frame.get(x, y);
                    sum += 0.299 * p[0] + 0.587 * p[1] + 0.114 * p[2];
                    n += 1;
                }
            }
            features.push(if n > 0 { sum / n as f32 } else { 0.0 });
        }
    }

    // --- Color statistics (road region only) ------------------------------
    let road_start = (horizon.max(0.0) as usize).min(h - 1);
    let mut means = [0.0f32; 3];
    let mut yellow = 0.0f32;
    let mut n = 0u32;
    for y in road_start..h {
        for x in 0..w {
            let p = frame.get(x, y);
            for c in 0..3 {
                means[c] += p[c];
            }
            yellow += ((p[0] + p[1]) / 2.0 - p[2]).max(0.0);
            n += 1;
        }
    }
    let nf = (n.max(1)) as f32;
    let (mr, mg, mb) = (means[0] / nf, means[1] / nf, means[2] / nf);
    let luma_mean = (0.299 * mr + 0.587 * mg + 0.114 * mb).max(1e-4);
    features.extend_from_slice(&[mr, mg, mb, 4.0 * yellow / nf]);
    // Illumination-normalized chroma ratios: survive the ambient level,
    // expose the scene tint and lane color.
    features.push((mr - mb) / luma_mean);
    features.push((yellow / nf) / luma_mean);

    // --- Brightness histogram (whole frame) -------------------------------
    let mut hist = [0.0f32; HIST_BINS];
    for y in 0..h {
        for x in 0..w {
            let p = frame.get(x, y);
            let l = (0.299 * p[0] + 0.587 * p[1] + 0.114 * p[2]).clamp(0.0, 0.999);
            hist[(l * HIST_BINS as f32) as usize] += 1.0;
        }
    }
    let total = (w * h) as f32;
    features.extend(hist.iter().map(|v| v / total));

    // --- Ground-plane lane geometry ---------------------------------------
    features.extend_from_slice(&geometry_features(frame, camera));

    debug_assert_eq!(features.len(), FEATURE_DIM);
    features
}

/// A marking cluster found in one band: gated-evidence mass (normalized
/// per band pixel), lateral centroid and spread.
#[derive(Debug, Clone, Copy)]
struct Cluster {
    mass: f64,
    centroid: f64,
    spread: f64,
}

/// Lateral histogram resolution for cluster extraction (m).
const Y_BIN: f64 = 0.25;
/// Minimum lateral separation between the two marking clusters (m).
const MIN_CLUSTER_SEP: f64 = 2.0;
/// Half-window around a histogram peak used to refine the cluster (m).
const CLUSTER_WIN: f64 = 0.6;

/// The 11 ground-plane geometry features:
/// `[c0, c1·10, c2·200, massL, massR, mass_ratio, spreadL·5, spreadR·5,
/// cvL, cvR, density·20]`, where `c(x) = c0 + c1·x + c2·x²` is the lane
/// center track fitted over the longitudinal bands.
fn geometry_features(frame: &RgbImage, camera: &Camera) -> [f32; GEOM_FEATURES] {
    let w = frame.width();
    let h = frame.height();
    let horizon = camera.horizon_row().max(0.0) as usize;

    // Pass 1: back-project road pixels, collect per-band score stats and
    // the ground samples for gating.
    let mut samples: Vec<(usize, f64, f64)> = Vec::new(); // band, y, score
    let mut band_sum = [0.0f64; BANDS];
    let mut band_sum2 = [0.0f64; BANDS];
    let mut band_cnt = [0u32; BANDS];
    for v in horizon..h {
        for u in 0..w {
            let Some((gx, gy)) = ground_from_pixel(camera, u as f64, v as f64) else {
                continue;
            };
            if gx < X_NEAR || gx >= X_NEAR + BANDS as f64 * BAND_LEN || gy.abs() > Y_HALF {
                continue;
            }
            let band = ((gx - X_NEAR) / BAND_LEN) as usize;
            let s = score_of(frame.get(u, v)) as f64;
            band_sum[band] += s;
            band_sum2[band] += s * s;
            band_cnt[band] += 1;
            samples.push((band, gy, s));
        }
    }

    // Pass 2: gate by per-band z-score into per-band lateral histograms.
    let n_bins = (2.0 * Y_HALF / Y_BIN) as usize;
    let mut hists = vec![vec![0.0f64; n_bins]; BANDS];
    let mut gated_samples: Vec<(usize, f64, f64)> = Vec::new(); // band, y, z
    let mut gated = 0u32;
    for &(band, gy, s) in &samples {
        let cnt = band_cnt[band].max(1) as f64;
        let mean = band_sum[band] / cnt;
        let std = ((band_sum2[band] / cnt - mean * mean).max(0.0)).sqrt().max(1e-5);
        let z = (s - mean) / std;
        if z > 2.0 {
            gated += 1;
            let bin = (((gy + Y_HALF) / Y_BIN) as usize).min(n_bins - 1);
            hists[band][bin] += z;
            gated_samples.push((band, gy, z));
        }
    }

    // Per-band cluster extraction: up to two histogram peaks separated by
    // at least MIN_CLUSTER_SEP, refined by local moments.
    let refine = |band: usize, peak_y: f64| -> Cluster {
        let mut mass = 0.0;
        let mut my = 0.0;
        let mut my2 = 0.0;
        for &(b, y, z) in &gated_samples {
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
    let mut clusters: Vec<Vec<Cluster>> = Vec::with_capacity(BANDS);
    for (band, hist) in hists.iter().enumerate() {
        let mut found = Vec::new();
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
        clusters.push(found);
    }

    // Validate two-cluster bands: the pair must be about one lane width
    // apart, otherwise one "cluster" is noise — keep only the stronger.
    for cl in &mut clusters {
        if cl.len() == 2 {
            let sep = (cl[0].centroid - cl[1].centroid).abs();
            if (sep - LANE_WIDTH).abs() > 1.2 {
                let keep = if cl[0].mass >= cl[1].mass { cl[0] } else { cl[1] };
                cl.clear();
                cl.push(keep);
            }
        }
    }

    // Lane-center track from validated two-cluster bands.
    let band_x = |band: usize| X_NEAR + (band as f64 + 0.5) * BAND_LEN;
    let mut xs: Vec<f64> = Vec::new();
    let mut cs: Vec<f64> = Vec::new();
    for (band, cl) in clusters.iter().enumerate() {
        if cl.len() == 2 {
            xs.push(band_x(band));
            cs.push((cl[0].centroid + cl[1].centroid) / 2.0);
        }
    }
    let fit_track = |xs: &[f64], cs: &[f64]| -> (f64, f64, f64) {
        let span = if xs.is_empty() {
            0.0
        } else {
            xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
                - xs.iter().cloned().fold(f64::INFINITY, f64::min)
        };
        // A quadratic needs longitudinal leverage; with a short span the
        // curvature term just amplifies noise.
        if xs.len() >= 4 && span >= 12.0 {
            match polyfit(xs, cs, 2) {
                Ok(c) => (c[0], c[1], c[2]),
                Err(_) => (0.0, 0.0, 0.0),
            }
        } else if xs.len() >= 2 {
            match polyfit(xs, cs, 1) {
                Ok(c) => (c[0], c[1], 0.0),
                Err(_) => (0.0, 0.0, 0.0),
            }
        } else {
            (0.0, 0.0, 0.0)
        }
    };
    let (mut c0, mut c1, mut c2) = fit_track(&xs, &cs);
    // Robust refit: drop bands whose center deviates > 0.5 m from the
    // first fit (dash-phase and noise outliers).
    if xs.len() >= 4 {
        let keep: Vec<usize> = (0..xs.len())
            .filter(|&i| (cs[i] - (c0 + c1 * xs[i] + c2 * xs[i] * xs[i])).abs() < 0.5)
            .collect();
        if keep.len() >= 3 && keep.len() < xs.len() {
            let xs2: Vec<f64> = keep.iter().map(|&i| xs[i]).collect();
            let cs2: Vec<f64> = keep.iter().map(|&i| cs[i]).collect();
            let refit = fit_track(&xs2, &cs2);
            c0 = refit.0;
            c1 = refit.1;
            c2 = refit.2;
        }
    }
    let center_at = |x: f64| c0 + c1 * x + c2 * x * x;
    let have_center = xs.len() >= 2;

    // Assign clusters to the left/right marking per band.
    let mut mass_l = vec![0.0f64; BANDS];
    let mut mass_r = vec![0.0f64; BANDS];
    let mut spread_l = (0.0f64, 0.0f64); // (weighted sum, mass)
    let mut spread_r = (0.0f64, 0.0f64);
    for (band, cl) in clusters.iter().enumerate() {
        match cl.len() {
            2 => {
                let (a, b) = (&cl[0], &cl[1]);
                let (l, r) = if a.centroid >= b.centroid { (a, b) } else { (b, a) };
                mass_l[band] = l.mass;
                mass_r[band] = r.mass;
                spread_l.0 += l.spread * l.mass;
                spread_l.1 += l.mass;
                spread_r.0 += r.spread * r.mass;
                spread_r.1 += r.mass;
            }
            1 if have_center => {
                let c = &cl[0];
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

/// A binarized bird's-eye grid as plain values: the fields of
/// `lkas_perception::threshold::BinaryMask`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Mask {
    /// Grid width.
    pub width: usize,
    /// Grid height.
    pub height: usize,
    /// Cell bits, row-major.
    pub bits: Vec<bool>,
    /// The threshold that produced the bits.
    pub threshold: f32,
}

impl Mask {
    /// Mask value at `(col, row)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, col: usize, row: usize) -> bool {
        self.bits[row * self.width + col]
    }
}

/// Binarizes with the adaptive threshold
/// `t = max(μ + K_SIGMA·σ, MIN_THRESHOLD)`, folding the grid once for
/// the mean and once for the variance.
pub fn binarize_into(bev: &BevImage, mask: &mut Mask) {
    let data = bev.as_slice();
    let n = data.len() as f32;
    let mean = data.iter().sum::<f32>() / n;
    let var = data.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
    let threshold = (mean + K_SIGMA * var.sqrt()).max(MIN_THRESHOLD);
    mask.width = bev.width();
    mask.height = bev.height();
    mask.threshold = threshold;
    mask.bits.clear();
    mask.bits.extend(data.iter().map(|&v| v > threshold));
}

/// The workspace of [`sliding_window_search_with`]: the fields of
/// `lkas_perception::sliding::SlidingScratch`.
#[derive(Debug, Clone, Default)]
pub struct SearchScratch {
    hist: Vec<usize>,
    hist2: Vec<usize>,
    cols: Vec<f64>,
    rows: Vec<f64>,
    res: Vec<f64>,
    sorted: Vec<f64>,
    cols2: Vec<f64>,
    rows2: Vec<f64>,
    polyfit: PolyfitScratch,
}

/// The sliding-window lane search over a binarized bird's-eye view,
/// reading the mask one `get(col, row)` at a time, sorting the
/// residuals for their median and fitting with the generic
/// `polyfit_into`.
pub fn sliding_window_search_with(
    bev: &BevImage,
    mask: &Mask,
    scratch: &mut SearchScratch,
) -> SlidingWindowResult {
    let w = mask.width;
    let h = mask.height;
    debug_assert_eq!(w, bev.width());
    debug_assert_eq!(h, bev.height());

    // Column histogram over the lower half.
    scratch.hist.clear();
    scratch.hist.resize(w, 0);
    for row in h / 2..h {
        for col in 0..w {
            if mask.get(col, row) {
                scratch.hist[col] += 1;
            }
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
    mask: &Mask,
    base: usize,
    scratch: &mut SearchScratch,
) -> Option<LaneFit> {
    let w = mask.width;
    let h = mask.height;
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
            for col in c_lo..=c_hi {
                if mask.get(col, row) {
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
    polyfit_into(rows, cols, &mut coeffs, &mut scratch.polyfit).ok()?;
    // Residual-trimmed refit: window-edge pixels and stray blobs (dash
    // ends, noise) otherwise swing the curvature term, which the
    // look-ahead extrapolation then amplifies.
    scratch.res.clear();
    scratch.res.extend(rows.iter().zip(cols).map(|(r, c)| (c - polyval(&coeffs, *r)).abs()));
    scratch.sorted.clear();
    scratch.sorted.extend_from_slice(&scratch.res);
    // Unstable sort: no temporary buffer, and for plain finite values the
    // sorted sequence (hence the median) is the same as a stable sort's.
    scratch.sorted.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let sigma = scratch.sorted[scratch.sorted.len() / 2].max(1.0); // robust scale (median)
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
        if polyfit_into(&scratch.rows2, &scratch.cols2, &mut refit, &mut scratch.polyfit).is_ok() {
            coeffs = refit;
        }
    }
    Some(LaneFit { coeffs, n_pixels: scratch.cols.len(), row_span: span, base_col: base })
}

/// The lateral deviation at the look-ahead from a search's lane fits:
/// `Perception`'s private conversion, copied unchanged.
///
/// # Errors
///
/// [`PerceptionError::NoLaneDetected`] when neither fit exists.
pub fn lateral_deviation(
    config: PerceptionConfig,
    bev: &BevImage,
    fits: &SlidingWindowResult,
) -> Result<PerceptionOutput, PerceptionError> {
    let row_la = bev.row_of_forward(config.look_ahead);
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

/// Updates the feature groups of `estimate` covered by the invoked
/// classifiers, sharing one feature extraction across the classifiers
/// that ran, each classifying on its own: the sequential formulation of
/// `SituationEstimate::update_from_frame_with`, written through the
/// estimate's `current` and `force`.
pub fn update_from_frame(
    estimate: &mut SituationEstimate,
    bundle: &ClassifierBundle,
    frame: &RgbImage,
    camera: &Camera,
    invoked: ClassifierSet,
) {
    if invoked.count() == 0 {
        return;
    }
    let features = lkas_nn::features::extract(frame, camera);
    let mut current = estimate.current();
    if invoked.road {
        current.layout = bundle.road.classify_features(&features);
    }
    if invoked.lane {
        let (color, form) = bundle.lane.classify_features(&features);
        current.lane_color = color;
        current.lane_form = form;
    }
    if invoked.scene {
        current.scene = bundle.scene.classify_features(&features);
    }
    estimate.force(current);
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkas_imaging::isp::{IspConfig, IspPipeline};
    use lkas_imaging::sensor::{Sensor, SensorConfig};
    use lkas_scene::render::SceneRenderer;
    use lkas_scene::situation::TABLE3_SITUATIONS;

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn library_render_and_features_equal_the_references() {
        let cam = Camera::new(128, 64, 75.0, 1.3, 6.0_f64.to_radians());
        let renderer = SceneRenderer::new(cam.clone());
        let mut tracks = vec![Track::fig7_track()];
        // Situation 3 is the yellow double line.
        tracks.extend([0, 3, 6, 13].map(|i| Track::for_situation(&TABLE3_SITUATIONS[i], 200.0)));
        for (t, track) in tracks.iter().enumerate() {
            for (p, s) in [-4.0, 3.0, 151.0, 598.5, 1165.0, 1400.0].into_iter().enumerate() {
                let (d, psi) = (0.2 - 0.1 * p as f64, 0.05 * (p as f64 - 2.5));
                let frame = renderer.render(track, s, d, psi);
                let expect = render(&cam, track, s, d, psi);
                assert_eq!(bits(frame.as_slice()), bits(expect.as_slice()), "track {t}, s {s}");
                let raw = Sensor::new(SensorConfig::default(), p as u64).capture(&frame, 1.0);
                let rgb = IspPipeline::new(IspConfig::ALL[p]).process(&raw);
                let features = lkas_nn::features::extract(&rgb, &cam);
                assert_eq!(bits(&features), bits(&extract(&rgb, &cam)), "track {t}, s {s}");
            }
        }
    }

    #[test]
    fn library_binarize_and_search_equal_the_references() {
        use lkas_perception::pipeline::Perception;
        use lkas_perception::roi::Roi;
        use lkas_perception::sliding::sliding_window_search;
        use lkas_perception::threshold::binarize;
        let key = |fit: &Option<LaneFit>| {
            fit.as_ref().map(|f| (f.coeffs.map(f64::to_bits), f.n_pixels, f.row_span, f.base_col))
        };
        let cam = Camera::new(256, 128, 150.0, 1.3, 6.0_f64.to_radians());
        let renderer = SceneRenderer::new(cam.clone());
        let track = Track::fig7_track();
        for (p, s) in [3.0, 151.0, 598.5, 1165.0].into_iter().enumerate() {
            let frame = renderer.render(&track, s, 0.1, 0.01);
            let raw = Sensor::new(SensorConfig::default(), 40 + p as u64).capture(&frame, 1.0);
            let rgb = IspPipeline::new(IspConfig::ALL[2 * p]).process(&raw);
            for roi in Roi::ALL {
                let bev =
                    lkas_perception::bev::BirdsEye::new(cam.clone(), roi).unwrap().rectify(&rgb);
                let mask = binarize(&bev);
                let mut expect = Mask::default();
                binarize_into(&bev, &mut expect);
                assert_eq!(mask.threshold().to_bits(), expect.threshold.to_bits(), "s {s} {roi}");
                let bits: Vec<bool> = (0..mask.height())
                    .flat_map(|row| (0..mask.width()).map(move |col| (col, row)))
                    .map(|(col, row)| mask.get(col, row))
                    .collect();
                assert_eq!(bits, expect.bits, "s {s} {roi}");
                let fits = sliding_window_search(&bev, &mask);
                let want = sliding_window_search_with(&bev, &expect, &mut SearchScratch::default());
                assert_eq!(key(&fits.left), key(&want.left), "s {s} {roi}");
                assert_eq!(key(&fits.right), key(&want.right), "s {s} {roi}");
                let config = PerceptionConfig::new(roi);
                let output = Perception::new(config, cam.clone()).process(&rgb);
                assert_eq!(output, lateral_deviation(config, &bev, &want), "s {s} {roi}");
            }
        }
    }

    #[test]
    fn split_back_projection_equals_the_reference() {
        for cam in [Camera::default_automotive(), Camera::new(64, 32, 40.0, 1.1, -0.05)] {
            for v in 0..cam.height() {
                for u in 0..cam.width() {
                    for (x, y) in [(u as f64, v as f64), (u as f64 + 0.5, v as f64 + 0.5)] {
                        let fast =
                            cam.ground_from_pixel(x, y).map(|(a, b)| (a.to_bits(), b.to_bits()));
                        let slow =
                            ground_from_pixel(&cam, x, y).map(|(a, b)| (a.to_bits(), b.to_bits()));
                        assert_eq!(fast, slow, "pixel ({x}, {y})");
                    }
                }
            }
        }
    }

    #[test]
    fn batched_update_matches_sequential() {
        use lkas::identify::BundleBatch;
        use lkas_nn::classifiers::{
            ClassifierSpec, LaneClassifier, RoadClassifier, SceneClassifier,
        };
        use lkas_platform::profiles::ClassifierKind;
        use lkas_scene::situation::{LaneColor, RoadLayout, SituationFeatures};

        // A deliberately tiny bundle: agreement between the batched and
        // sequential paths is what's under test, not accuracy.
        let spec = ClassifierSpec {
            train_per_class: 12,
            val_per_class: 0,
            epochs: 6,
            hidden: 12,
            camera: Camera::new(256, 128, 150.0, 1.3, 6.0_f64.to_radians()),
        };
        let (road, _) = RoadClassifier::train(&spec, 41);
        let (lane, _) = LaneClassifier::train(&spec, 42);
        let (scene, _) = SceneClassifier::train(&spec, 43);
        let bundle = ClassifierBundle { road, lane, scene };
        let mut batch = BundleBatch::new(&bundle);

        // Every set the invocation schemes issue, applied to an estimate
        // that starts away from the benign default, so a group the
        // batched path wrongly touched (or left alone) shows.
        let start = SituationFeatures::new(
            LaneColor::Yellow,
            LaneForm::Dotted,
            RoadLayout::LeftTurn,
            SceneKind::Night,
        );
        let sets = [
            ClassifierSet::road_only(),
            ClassifierSet::road_lane(),
            ClassifierSet::single(ClassifierKind::Lane),
            ClassifierSet::single(ClassifierKind::Scene),
            ClassifierSet::all(),
        ];
        let isp = IspPipeline::new(IspConfig::S0);
        for (i, sit) in TABLE3_SITUATIONS.iter().enumerate() {
            let track = Track::for_situation(sit, 500.0);
            let frame = SceneRenderer::new(spec.camera.clone()).render(&track, 20.0, 0.05, 0.0);
            let raw = Sensor::new(SensorConfig::default(), i as u64).capture(&frame, 1.0);
            let rgb = isp.process(&raw);
            for invoked in sets {
                let mut seq = SituationEstimate::with_initial(start);
                update_from_frame(&mut seq, &bundle, &rgb, &spec.camera, invoked);
                let mut batched = SituationEstimate::with_initial(start);
                batched.update_from_frame_with(&bundle, &mut batch, &rgb, &spec.camera, invoked);
                assert_eq!(seq.current(), batched.current(), "situation {i}, {invoked:?}");
            }
        }
    }
}
