//! RAW-frame fault application: the bridge between a [`crate::FaultPlan`]
//! and the Bayer-domain corruption primitives of [`lkas_imaging::sensor`].

use lkas_imaging::image::{PixelWindow, RawImage};
use lkas_imaging::sensor::{inject_exposure_glitch, inject_hot_pixels, inject_row_banding};
use serde::{Deserialize, Serialize};

/// A Bayer-domain corruption mode.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BayerFaultKind {
    /// A fraction `density` of photosites saturates to full well.
    HotPixels {
        /// Expected fraction of affected photosites.
        density: f32,
    },
    /// Every `period`-th row is scaled by `gain` (readout interference).
    RowBanding {
        /// Row period of the banding pattern.
        period: usize,
        /// Gain applied to affected rows.
        gain: f32,
    },
    /// The whole frame is scaled by `gain` and clipped (AE glitch).
    ExposureGlitch {
        /// Exposure multiplier (>1 clips highlights, <1 crushes).
        gain: f32,
    },
}

/// Mixes a plan seed and a cycle index into the per-cycle RNG seed used
/// by stochastic corruptions (hot-pixel placement). Pure and collision
/// -scattered (splitmix64 finalizer), so per-cycle corruption is
/// deterministic yet decorrelated across cycles.
pub fn derive_cycle_seed(plan_seed: u64, cycle: u64) -> u64 {
    let mut z = plan_seed ^ cycle.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Applies a Bayer corruption to a captured RAW frame. The hot-pixel
/// pattern varies per cycle (a real defect map would be static, but a
/// per-cycle pattern is the harsher test: perception cannot learn to
/// mask it), while banding phase walks with the cycle index the way
/// readout interference drifts. This is [`apply_bayer_fault_window`] on
/// the full frame.
pub fn apply_bayer_fault(kind: BayerFaultKind, raw: &mut RawImage, plan_seed: u64, cycle: u64) {
    let window = PixelWindow::full(raw.width(), raw.height());
    apply_bayer_fault_window(kind, raw, window, plan_seed, cycle);
}

/// Applies a Bayer corruption to the photosites of `window` only: each
/// gets exactly the value [`apply_bayer_fault`] gives it, and every
/// other photosite keeps its contents. Apply it once to freshly
/// captured photosites — banding and exposure glitches are not
/// idempotent.
///
/// # Panics
///
/// Panics if the window does not lie inside the frame.
pub fn apply_bayer_fault_window(
    kind: BayerFaultKind,
    raw: &mut RawImage,
    window: PixelWindow,
    plan_seed: u64,
    cycle: u64,
) {
    match kind {
        BayerFaultKind::HotPixels { density } => {
            inject_hot_pixels(raw, window, density, derive_cycle_seed(plan_seed, cycle));
        }
        BayerFaultKind::RowBanding { period, gain } => {
            let phase = if period == 0 { 0 } else { (cycle as usize) % period };
            inject_row_banding(raw, window, period, gain, phase);
        }
        BayerFaultKind::ExposureGlitch { gain } => inject_exposure_glitch(raw, window, gain),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_raw(seed: u64) -> RawImage {
        let mut raw = RawImage::new(16, 16);
        for (i, v) in raw.as_mut_slice().iter_mut().enumerate() {
            *v = ((derive_cycle_seed(seed, i as u64) % 1000) as f32) / 2000.0;
        }
        raw
    }

    #[test]
    fn cycle_seed_is_pure_and_scattered() {
        assert_eq!(derive_cycle_seed(7, 3), derive_cycle_seed(7, 3));
        assert_ne!(derive_cycle_seed(7, 3), derive_cycle_seed(7, 4));
        assert_ne!(derive_cycle_seed(7, 3), derive_cycle_seed(8, 3));
    }

    #[test]
    fn bayer_application_is_deterministic_per_cycle() {
        for kind in [
            BayerFaultKind::HotPixels { density: 0.1 },
            BayerFaultKind::RowBanding { period: 3, gain: 0.4 },
            BayerFaultKind::ExposureGlitch { gain: 2.0 },
        ] {
            let mut a = noisy_raw(1);
            let mut b = noisy_raw(1);
            apply_bayer_fault(kind, &mut a, 42, 9);
            apply_bayer_fault(kind, &mut b, 42, 9);
            assert_eq!(a, b, "{kind:?} must replay identically");
            let clean = noisy_raw(1);
            assert_ne!(a, clean, "{kind:?} must actually corrupt the frame");
        }
    }

    #[test]
    fn windowed_fault_is_the_full_fault_restricted_to_the_window() {
        let window = PixelWindow { x0: 3, y0: 5, x1: 14, y1: 11 };
        for kind in [
            BayerFaultKind::HotPixels { density: 0.3 },
            BayerFaultKind::RowBanding { period: 3, gain: 0.4 },
            BayerFaultKind::ExposureGlitch { gain: 2.0 },
        ] {
            let clean = noisy_raw(2);
            let mut full = clean.clone();
            apply_bayer_fault(kind, &mut full, 42, 7);
            let mut part = clean.clone();
            apply_bayer_fault_window(kind, &mut part, window, 42, 7);
            for y in 0..16 {
                for x in 0..16 {
                    let inside = window.rows().contains(&y) && window.columns().contains(&x);
                    let expect = if inside { full.get(x, y) } else { clean.get(x, y) };
                    assert_eq!(
                        part.get(x, y).to_bits(),
                        expect.to_bits(),
                        "{kind:?} at ({x}, {y})"
                    );
                }
            }
            assert_ne!(part, clean, "{kind:?} must corrupt the window");
        }
    }

    #[test]
    fn hot_pixel_pattern_moves_between_cycles() {
        let mut a = noisy_raw(1);
        let mut b = noisy_raw(1);
        apply_bayer_fault(BayerFaultKind::HotPixels { density: 0.05 }, &mut a, 42, 1);
        apply_bayer_fault(BayerFaultKind::HotPixels { density: 0.05 }, &mut b, 42, 2);
        assert_ne!(a, b, "the defect pattern is per-cycle");
    }
}
