//! Property tests for the kernel backends (DESIGN.md §17).
//!
//! The lane backend must be *bit-identical* to the scalar reference on
//! arbitrary mosaics — not just the rendered frames the equivalence
//! gate replays.

use lkas_imaging::image::{RawImage, RgbImage};
use lkas_imaging::isp::{IspConfig, IspPipeline};
use lkas_imaging::{KernelBackend, Scratch};
use proptest::prelude::*;

/// Largest mosaic the frame strategy produces (width × height).
const MAX_W: usize = 12;
const MAX_H: usize = 8;

/// Builds an RGGB mosaic of `2wp × 2hp` photosites from the shared
/// data pool. Values span slightly negative (read noise below the
/// black level) through above-white highlights — the range the sensor
/// model actually produces.
fn raw_from(wp: usize, hp: usize, data: &[f32]) -> RawImage {
    let (w, h) = (wp * 2, hp * 2);
    let mut raw = RawImage::new(w, h);
    raw.as_mut_slice().copy_from_slice(&data[..w * h]);
    raw
}

fn max_abs_diff(a: &RgbImage, b: &RgbImage) -> f32 {
    a.as_slice().iter().zip(b.as_slice()).map(|(x, y)| (x - y).abs()).fold(0.0f32, f32::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The lane backend is bit-identical to the scalar reference
    /// through every full ISP configuration, on arbitrary mosaics.
    #[test]
    fn lanes_full_pipeline_is_bit_identical(
        wp in 1usize..MAX_W / 2 + 1,
        hp in 1usize..MAX_H / 2 + 1,
        data in proptest::collection::vec(-0.05f32..1.3, MAX_W * MAX_H),
    ) {
        let raw = raw_from(wp, hp, &data);
        for cfg in IspConfig::ALL {
            let mut outs = Vec::new();
            for backend in KernelBackend::ALL {
                let isp = IspPipeline::new(cfg).with_backend(backend);
                let mut scratch = Scratch::new();
                let mut out = RgbImage::new(2, 2);
                isp.process_into(&raw, &mut scratch, &mut out);
                outs.push(out);
            }
            prop_assert!(
                outs[0].as_slice() == outs[1].as_slice(),
                "{}: lanes differs from scalar by {}",
                cfg.name(),
                max_abs_diff(&outs[0], &outs[1])
            );
        }
    }
}
