//! Camera sensor model: spectral crosstalk, noise, Bayer sampling.
//!
//! The scene renderer in `lkas-scene` produces *scene-referred* linear RGB
//! irradiance. This module turns that irradiance into the RAW Bayer frame
//! an automotive sensor would deliver:
//!
//! 1. scale by the illumination level (exposure is held fixed, as in the
//!    paper's HiL setup where the ISP must cope with night scenes),
//! 2. mix channels through the sensor's spectral-crosstalk matrix (the
//!    inverse of which is the ISP's *color map* CCM),
//! 3. add photon shot noise (variance ∝ signal) and read noise
//!    (constant variance),
//! 4. sample the RGGB mosaic.
//!
//! # Keyed noise
//!
//! The noise is the seeded splitmix64 stream of the workspace's `StdRng`,
//! addressed by counter instead of drawn in sequence: the k-th draw of a
//! stream seeded with `s` is the splitmix64 output of counter
//! `s + k·γ`. Each frame starts at a counter; pixel `i = y·w + x`
//! draws its Box–Muller pair at `start + (2i+1)·γ` and `start + (2i+2)·γ`,
//! and every capture advances the counter by `2·w·h` draws. A pixel's
//! noise therefore depends only on (frame, pixel), never on which other
//! pixels were captured, so [`Sensor::capture_window_into`] computes any
//! [`PixelWindow`] of a frame bit-identically to the full capture. The
//! hot-pixel fault primitive is keyed the same way (photosite `i` draws
//! at `seed + (i+1)·γ`), and all three fault primitives take a window.
//!
//! Each pixel's normal is `(-2·ln u1).sqrt() · cos(2π·u2)` in f32, with
//! the bits glibc's `logf` and `cosf` give it. A capture computes them a
//! row chunk at a time with exact, branch-free ports of those two
//! functions (the private `normal` module), in passes LLVM vectorizes;
//! `u1` and `u2` are functions of 24-bit draws, so a unit test compares
//! the ports with `f32::ln` and `f32::cos` on every input the sensor can
//! produce, and frames do not depend on the platform's libm.

use crate::image::{PixelWindow, RawImage, RgbImage};
use serde::{Deserialize, Serialize};

mod normal;

/// Spectral crosstalk matrix of the modeled sensor (rows: sensor R/G/B
/// response; columns: scene R/G/B). Deliberately leaky so that the ISP's
/// color-map stage (which applies the inverse) visibly matters for
/// color contrast — exactly the behaviour the paper exploits for yellow
/// lanes (Table III rows with S3/S4 keep CM; S7/S8 drop it).
pub const CROSSTALK: [[f32; 3]; 3] = [[0.66, 0.26, 0.08], [0.22, 0.62, 0.16], [0.10, 0.30, 0.60]];

/// Configuration of the sensor model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensorConfig {
    /// Standard deviation of the signal-independent read noise, in
    /// full-well-normalized units.
    pub read_noise: f32,
    /// Photon-shot-noise coefficient: noise variance contribution is
    /// `shot_noise² · signal`.
    pub shot_noise: f32,
    /// Fixed analog gain applied after exposure (models the camera's
    /// fixed operating point in the HiL setup).
    pub gain: f32,
}

impl Default for SensorConfig {
    fn default() -> Self {
        // Tuned so that daytime SNR is high (~40 dB) while `dark`
        // (illumination 0.15) scenes drop to a regime where denoise and
        // tone map visibly change detection quality.
        SensorConfig { read_noise: 0.012, shot_noise: 0.02, gain: 1.0 }
    }
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

/// A deterministic (seeded) camera sensor.
///
/// # Example
///
/// ```
/// use lkas_imaging::image::{PixelWindow, RawImage, RgbImage};
/// use lkas_imaging::sensor::{Sensor, SensorConfig};
///
/// let scene = RgbImage::filled(8, 8, [0.5, 0.5, 0.5]);
/// let raw = Sensor::new(SensorConfig::default(), 7).capture(&scene, 1.0);
/// assert_eq!((raw.width(), raw.height()), (8, 8));
///
/// // A window of the frame carries the full capture's noise.
/// let mut part = RawImage::new(8, 8);
/// let window = PixelWindow { x0: 2, y0: 1, x1: 6, y1: 5 };
/// Sensor::new(SensorConfig::default(), 7).capture_window_into(&scene, 1.0, window, &mut part);
/// assert_eq!(part.get(3, 2), raw.get(3, 2));
/// ```
#[derive(Debug, Clone)]
pub struct Sensor {
    config: SensorConfig,
    /// Noise counter at which the next captured frame starts.
    next_frame: u64,
}

impl Sensor {
    /// Creates a sensor with the given configuration and RNG seed.
    pub fn new(config: SensorConfig, seed: u64) -> Self {
        Sensor { config, next_frame: seed }
    }

    /// Borrow the sensor configuration.
    pub fn config(&self) -> &SensorConfig {
        &self.config
    }

    /// Captures a scene-referred linear RGB frame into a RAW Bayer frame
    /// under the given `illumination` scale (1.0 = full daylight).
    ///
    /// Convenience wrapper over [`Sensor::capture_into`] that allocates a
    /// fresh RAW frame per call.
    ///
    /// # Panics
    ///
    /// Panics if the scene dimensions are odd (Bayer frames need even
    /// dimensions).
    pub fn capture(&mut self, scene: &RgbImage, illumination: f32) -> RawImage {
        let mut raw = RawImage::new(scene.width(), scene.height());
        self.capture_into(scene, illumination, &mut raw);
        raw
    }

    /// Captures a scene-referred linear RGB frame into a caller-owned RAW
    /// Bayer frame (resized as needed) — the allocation-free capture
    /// path: [`Sensor::capture_window_into`] on the full frame.
    ///
    /// # Panics
    ///
    /// Panics if the scene dimensions are odd (Bayer frames need even
    /// dimensions).
    pub fn capture_into(&mut self, scene: &RgbImage, illumination: f32, raw: &mut RawImage) {
        let window = PixelWindow::full(scene.width(), scene.height());
        self.capture_window_into(scene, illumination, window, raw);
    }

    /// Captures the next frame on `window` only: the window's photosites
    /// get exactly the values a full capture of this frame gives them,
    /// and every other photosite of `raw` keeps its previous contents.
    /// The noise counter advances by the whole frame, whatever the
    /// window.
    ///
    /// # Panics
    ///
    /// Panics if the scene dimensions are odd or the window does not lie
    /// inside the frame.
    pub fn capture_window_into(
        &mut self,
        scene: &RgbImage,
        illumination: f32,
        window: PixelWindow,
        raw: &mut RawImage,
    ) {
        let start = self.next_frame;
        let draws = 2 * (scene.width() * scene.height()) as u64;
        self.next_frame = start.wrapping_add(draws.wrapping_mul(GAMMA));
        self.expose(start, scene, illumination, window, raw);
    }

    /// Exposes the photosites of `window` of the frame whose noise
    /// starts at counter `start`, a row chunk at a time: the chunk's
    /// normals ([`normal::fill`]), then the exposure over the row's scene
    /// and RAW slices with the row's two crosstalk rows.
    fn expose(
        &self,
        start: u64,
        scene: &RgbImage,
        illumination: f32,
        window: PixelWindow,
        raw: &mut RawImage,
    ) {
        let (w, h) = (scene.width(), scene.height());
        raw.reshape(w, h);
        window.assert_within(w, h);
        let g = self.config.gain;
        let read_var = self.config.read_noise.powi(2);
        let shot_var = self.config.shot_noise.powi(2);
        let mut gauss = [0f32; normal::CHUNK];
        for y in window.rows() {
            // RGGB: even rows alternate red and green photosites, odd rows
            // green and blue, starting at an even column.
            let phase = if y % 2 == 0 {
                [CROSSTALK[0], CROSSTALK[1]]
            } else {
                [CROSSTALK[1], CROSSTALK[2]]
            };
            let row = y * w + window.x0..y * w + window.x1;
            let lights = &scene.as_slice()[3 * row.start..3 * row.end];
            let photosites = &mut raw.as_mut_slice()[row.clone()];
            for (c, (lights, photosites)) in lights
                .chunks(3 * normal::CHUNK)
                .zip(photosites.chunks_mut(normal::CHUNK))
                .enumerate()
            {
                let x0 = window.x0 + c * normal::CHUNK;
                let first = (2 * (y * w + x0) as u64 + 1).wrapping_mul(GAMMA);
                let gauss = &mut gauss[..photosites.len()];
                normal::fill(start.wrapping_add(first), gauss);
                for (j, ((v, px), &gauss)) in
                    photosites.iter_mut().zip(lights.chunks_exact(3)).zip(&*gauss).enumerate()
                {
                    // Illumination scaling happens in the scene-referred
                    // domain (light level), then sensor crosstalk.
                    let lit = [px[0] * illumination, px[1] * illumination, px[2] * illumination];
                    let row = phase[(x0 + j) % 2];
                    let signal = (row[0] * lit[0] + row[1] * lit[1] + row[2] * lit[2]) * g;
                    let var = read_var + shot_var * signal.max(0.0);
                    let noise = gauss * var.sqrt();
                    *v = (signal + noise).clamp(0.0, 1.0);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// RAW-domain fault primitives
//
// Deterministic Bayer-frame corruptions applied *between* sensor capture
// and the ISP — the hardware failure modes (defective photosites, readout
// interference, auto-exposure glitches) that the `lkas-faults` campaign
// injects. They live here because they are operations on `RawImage`,
// mirroring the real corruption point in the imaging chain.
// ---------------------------------------------------------------------

/// Saturates a deterministic pseudo-random subset of the photosites of
/// `window` to full well ("hot" pixels). `density` is the expected
/// fraction of affected photosites. Photosite `i = y·w + x` is hot when
/// its own draw falls below `density`: the splitmix64 output at counter
/// `seed + (i+1)·γ`, which is draw `i` (counting from zero) of a
/// `StdRng` seeded with `seed`. The affected set is a pure function of `seed`, and a window
/// gets exactly the full frame's pattern on its photosites.
///
/// # Panics
///
/// Panics if the window does not lie inside the frame.
pub fn inject_hot_pixels(raw: &mut RawImage, window: PixelWindow, density: f32, seed: u64) {
    let w = raw.width();
    window.assert_within(w, raw.height());
    let data = raw.as_mut_slice();
    for y in window.rows() {
        let row = y * w + window.x0..y * w + window.x1;
        for (i, v) in row.clone().zip(&mut data[row]) {
            let draw = splitmix64(seed.wrapping_add((i as u64 + 1).wrapping_mul(GAMMA)));
            if uniform(0.0, 1.0, draw) < density {
                *v = 1.0;
            }
        }
    }
}

/// Scales every `period`-th row (offset by `phase`) of `window` by
/// `gain` — the horizontal banding of readout interference.
/// `period == 0` is a no-op.
///
/// # Panics
///
/// Panics if the window does not lie inside the frame.
pub fn inject_row_banding(
    raw: &mut RawImage,
    window: PixelWindow,
    period: usize,
    gain: f32,
    phase: usize,
) {
    window.assert_within(raw.width(), raw.height());
    if period == 0 {
        return;
    }
    for y in window.rows() {
        if (y + phase).is_multiple_of(period) {
            for x in window.columns() {
                let v = raw.get(x, y);
                raw.set(x, y, (v * gain).clamp(0.0, 1.0));
            }
        }
    }
}

/// Scales the photosites of `window` by `gain`, clamping into the
/// sensor's unit range — an auto-exposure glitch. Gains above 1 clip
/// highlights, gains below 1 crush the frame toward the noise floor.
///
/// # Panics
///
/// Panics if the window does not lie inside the frame.
pub fn inject_exposure_glitch(raw: &mut RawImage, window: PixelWindow, gain: f32) {
    window.assert_within(raw.width(), raw.height());
    for y in window.rows() {
        for x in window.columns() {
            raw.set(x, y, (raw.get(x, y) * gain).clamp(0.0, 1.0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::BayerChannel;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn flat_scene(v: f32) -> RgbImage {
        RgbImage::filled(64, 64, [v, v, v])
    }

    /// A scene with per-pixel structure, so window mix-ups show.
    fn gradient_scene(w: usize, h: usize) -> RgbImage {
        let mut scene = RgbImage::new(w, h);
        for y in 0..h {
            for x in 0..w {
                let t = (x + 3 * y) as f32 / (w + 3 * h) as f32;
                scene.set(x, y, [t, 1.0 - t, 0.5 * t]);
            }
        }
        scene
    }

    /// The sequential reference capture: one `StdRng` stream seeded like
    /// the sensor, two draws per photosite in row-major order, frame
    /// after frame.
    fn reference_captures(config: &SensorConfig, seed: u64, frames: &[RgbImage]) -> Vec<RawImage> {
        let mut stream = StdRng::seed_from_u64(seed);
        let mut gaussian = || {
            let u1: f32 = stream.gen_range(f32::EPSILON..1.0);
            let u2: f32 = stream.gen_range(0.0..1.0);
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
        };
        frames
            .iter()
            .map(|scene| {
                let (w, h) = (scene.width(), scene.height());
                let mut raw = RawImage::new(w, h);
                for y in 0..h {
                    for x in 0..w {
                        let px = scene.get(x, y);
                        let row = match raw.channel_at(x, y) {
                            BayerChannel::Red => CROSSTALK[0],
                            BayerChannel::GreenR | BayerChannel::GreenB => CROSSTALK[1],
                            BayerChannel::Blue => CROSSTALK[2],
                        };
                        let signal =
                            (row[0] * px[0] + row[1] * px[1] + row[2] * px[2]) * config.gain;
                        let var =
                            config.read_noise.powi(2) + config.shot_noise.powi(2) * signal.max(0.0);
                        let noise = gaussian() * var.sqrt();
                        raw.set(x, y, (signal + noise).clamp(0.0, 1.0));
                    }
                }
                raw
            })
            .collect()
    }

    #[test]
    fn keyed_capture_equals_the_sequential_stream() {
        // Including a seed whose counter wraps past u64::MAX mid-frame.
        let frames = [gradient_scene(16, 8), flat_scene(0.3), gradient_scene(16, 8)];
        for seed in [0, 1, 42, 0xDEAD_BEEF, u64::MAX - 100, u64::MAX] {
            let config = SensorConfig::default();
            let mut sensor = Sensor::new(config.clone(), seed);
            for (f, reference) in reference_captures(&config, seed, &frames).iter().enumerate() {
                assert_eq!(&sensor.capture(&frames[f], 1.0), reference, "seed {seed} frame {f}");
            }
        }
    }

    #[test]
    fn window_capture_matches_full_capture_and_advances_a_whole_frame() {
        let scene = gradient_scene(24, 16);
        let window = PixelWindow { x0: 5, y0: 3, x1: 18, y1: 11 };
        let mut full = Sensor::new(SensorConfig::default(), 9);
        let mut windowed = Sensor::new(SensorConfig::default(), 9);
        for frame in 0..3 {
            let reference = full.capture(&scene, 1.0);
            let mut raw = RawImage::new(24, 16);
            raw.as_mut_slice().fill(-1.0);
            windowed.capture_window_into(&scene, 1.0, window, &mut raw);
            for y in 0..16 {
                for x in 0..24 {
                    let inside = window.rows().contains(&y) && window.columns().contains(&x);
                    let expect = if inside { reference.get(x, y) } else { -1.0 };
                    assert_eq!(raw.get(x, y), expect, "frame {frame} ({x}, {y})");
                }
            }
        }
    }

    #[test]
    fn chunked_windows_match_the_full_capture() {
        let scene = gradient_scene(200, 12);
        let reference = Sensor::new(SensorConfig::default(), 5).capture(&scene, 1.0);
        // Odd first columns, widths around the 64-photosite chunk, a row.
        let mut windows: Vec<PixelWindow> = [1, 63, 64, 65, 129]
            .map(|width| PixelWindow { x0: 3, y0: 2, x1: 3 + width, y1: 7 })
            .to_vec();
        windows.push(PixelWindow { x0: 1, y0: 9, x1: 199, y1: 10 });
        for window in windows {
            let mut raw = RawImage::new(200, 12);
            raw.as_mut_slice().fill(-1.0);
            Sensor::new(SensorConfig::default(), 5)
                .capture_window_into(&scene, 1.0, window, &mut raw);
            for y in 0..12 {
                for x in 0..200 {
                    let inside = window.rows().contains(&y) && window.columns().contains(&x);
                    let expect = if inside { reference.get(x, y) } else { -1.0 };
                    assert_eq!(raw.get(x, y).to_bits(), expect.to_bits(), "{window:?} ({x}, {y})");
                }
            }
        }
    }

    #[test]
    fn capture_preserves_dimensions() {
        let mut s = Sensor::new(SensorConfig::default(), 1);
        let raw = s.capture(&flat_scene(0.5), 1.0);
        assert_eq!((raw.width(), raw.height()), (64, 64));
    }

    #[test]
    fn deterministic_given_seed() {
        let scene = flat_scene(0.3);
        let a = Sensor::new(SensorConfig::default(), 99).capture(&scene, 1.0);
        let b = Sensor::new(SensorConfig::default(), 99).capture(&scene, 1.0);
        assert_eq!(a, b);
    }

    #[test]
    fn capture_into_matches_capture() {
        // Same seed, same scene: the out-param path must consume the RNG
        // identically and produce a bit-identical frame, even when the
        // destination buffer arrives with stale contents and the wrong
        // dimensions.
        let scene = flat_scene(0.3);
        let fresh = Sensor::new(SensorConfig::default(), 99).capture(&scene, 1.0);
        let mut reused = RawImage::new(8, 8);
        Sensor::new(SensorConfig::default(), 99).capture_into(&scene, 1.0, &mut reused);
        assert_eq!(fresh, reused);
    }

    #[test]
    fn different_seeds_differ() {
        let scene = flat_scene(0.3);
        let a = Sensor::new(SensorConfig::default(), 1).capture(&scene, 1.0);
        let b = Sensor::new(SensorConfig::default(), 2).capture(&scene, 1.0);
        assert_ne!(a, b);
    }

    #[test]
    fn illumination_scales_signal() {
        let mut s = Sensor::new(SensorConfig { read_noise: 0.0, shot_noise: 0.0, gain: 1.0 }, 0);
        let day = s.capture(&flat_scene(0.5), 1.0);
        let night = s.capture(&flat_scene(0.5), 0.2);
        let day_mean: f32 = day.as_slice().iter().sum::<f32>() / day.as_slice().len() as f32;
        let night_mean: f32 = night.as_slice().iter().sum::<f32>() / night.as_slice().len() as f32;
        assert!((night_mean / day_mean - 0.2).abs() < 1e-3);
    }

    #[test]
    fn snr_degrades_in_low_light() {
        // Relative noise (std/mean) must be higher at low illumination:
        // that is what makes denoise matter at night.
        let cfg = SensorConfig::default();
        let snr = |illum: f32| -> f32 {
            let mut s = Sensor::new(cfg.clone(), 5);
            let raw = s.capture(&flat_scene(0.4), illum);
            // Use only red photosites so the Bayer pattern does not
            // inflate the variance estimate.
            let mut vals = Vec::new();
            for y in (0..64).step_by(2) {
                for x in (0..64).step_by(2) {
                    vals.push(raw.get(x, y));
                }
            }
            let m = vals.iter().sum::<f32>() / vals.len() as f32;
            let var = vals.iter().map(|v| (v - m) * (v - m)).sum::<f32>() / vals.len() as f32;
            m / var.sqrt()
        };
        assert!(snr(1.0) > 2.0 * snr(0.15));
    }

    #[test]
    fn crosstalk_desaturates_colors() {
        // A pure red scene must leak into green/blue photosites.
        let mut s = Sensor::new(SensorConfig { read_noise: 0.0, shot_noise: 0.0, gain: 1.0 }, 0);
        let scene = RgbImage::filled(4, 4, [1.0, 0.0, 0.0]);
        let raw = s.capture(&scene, 1.0);
        let red = raw.get(0, 0);
        let green = raw.get(1, 0);
        let blue = raw.get(1, 1);
        assert!(red > green && green > blue);
        assert!(green > 0.1, "crosstalk must leak red into green photosites");
    }

    #[test]
    fn values_clamped_to_unit_range() {
        let mut s = Sensor::new(SensorConfig { read_noise: 0.5, shot_noise: 0.5, gain: 2.0 }, 3);
        let raw = s.capture(&flat_scene(1.0), 1.0);
        assert!(raw.as_slice().iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn hot_pixels_saturate_about_density_and_are_deterministic() {
        let mut s = Sensor::new(SensorConfig { read_noise: 0.0, shot_noise: 0.0, gain: 1.0 }, 0);
        let mut a = s.capture(&flat_scene(0.2), 1.0);
        let mut b = a.clone();
        let full = PixelWindow::full(64, 64);
        inject_hot_pixels(&mut a, full, 0.05, 77);
        inject_hot_pixels(&mut b, full, 0.05, 77);
        assert_eq!(a, b, "same seed ⇒ same hot-pixel set");
        let hot = a.as_slice().iter().filter(|&&v| v == 1.0).count();
        let n = a.as_slice().len();
        let expected = (n as f32 * 0.05) as usize;
        assert!(
            hot > expected / 2 && hot < expected * 2,
            "hot count {hot} should be near {expected}"
        );
        let mut c = s.capture(&flat_scene(0.2), 1.0);
        inject_hot_pixels(&mut c, full, 0.05, 78);
        assert_ne!(a, c, "different seeds pick different photosites");
    }

    #[test]
    fn keyed_hot_pixels_equal_the_sequential_stream() {
        // The sequential form: one `StdRng` draw per photosite of the
        // whole buffer, in row-major order.
        let sequential = |raw: &mut RawImage, density: f32, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            for v in raw.as_mut_slice() {
                if rng.gen_range(0.0f32..1.0) < density {
                    *v = 1.0;
                }
            }
        };
        let mut s = Sensor::new(SensorConfig::default(), 4);
        let clean = s.capture(&gradient_scene(24, 16), 1.0);
        for seed in [0, 77, 1 << 40, u64::MAX - 4096, u64::MAX] {
            for density in [0.03, 0.5] {
                let mut keyed = clean.clone();
                let mut reference = clean.clone();
                inject_hot_pixels(&mut keyed, PixelWindow::full(24, 16), density, seed);
                sequential(&mut reference, density, seed);
                assert_eq!(keyed, reference, "seed {seed}, density {density}");
            }
        }
    }

    #[test]
    fn row_banding_hits_only_the_period_rows() {
        let mut s = Sensor::new(SensorConfig { read_noise: 0.0, shot_noise: 0.0, gain: 1.0 }, 0);
        let clean = s.capture(&flat_scene(0.4), 1.0);
        let mut banded = clean.clone();
        let full = PixelWindow::full(64, 64);
        inject_row_banding(&mut banded, full, 4, 0.2, 1);
        for y in 0..banded.height() {
            for x in 0..banded.width() {
                if (y + 1) % 4 == 0 {
                    assert!(banded.get(x, y) < clean.get(x, y), "row {y} must be darkened");
                } else {
                    assert_eq!(banded.get(x, y), clean.get(x, y), "row {y} must be untouched");
                }
            }
        }
        // Degenerate period is a no-op rather than a divide-by-zero.
        let mut untouched = clean.clone();
        inject_row_banding(&mut untouched, full, 0, 0.2, 0);
        assert_eq!(untouched, clean);
    }

    #[test]
    fn exposure_glitch_scales_and_clips() {
        let mean = |r: &RawImage| r.as_slice().iter().sum::<f32>() / r.as_slice().len() as f32;
        let mut s = Sensor::new(SensorConfig { read_noise: 0.0, shot_noise: 0.0, gain: 1.0 }, 0);
        let clean = s.capture(&flat_scene(0.4), 1.0);
        let mut over = clean.clone();
        let full = PixelWindow::full(64, 64);
        inject_exposure_glitch(&mut over, full, 4.0);
        assert!(over.as_slice().iter().all(|&v| v <= 1.0), "over-exposure clips at full well");
        assert!(mean(&over) > mean(&clean));
        let mut under = clean.clone();
        inject_exposure_glitch(&mut under, full, 0.25);
        let ratio = mean(&under) / mean(&clean);
        assert!((ratio - 0.25).abs() < 1e-3, "under-exposure scales linearly (ratio {ratio})");
    }
}
