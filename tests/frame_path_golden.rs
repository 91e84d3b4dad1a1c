//! Golden equivalence of the in-place pooled frame path.
//!
//! The zero-allocation redesign must be an *observationally invisible*
//! change: for every ISP configuration (S0…S8), every ROI, and any
//! executor thread count, `process_into` writing into reused pooled
//! buffers must produce bit-identical pixels (and identical perception
//! measurements) to the one-shot allocating path — on the default lane
//! kernels and on the scalar reference kernels alike.

use lkas_imaging::image::RgbImage;
use lkas_imaging::isp::{IspConfig, IspPipeline};
use lkas_imaging::sensor::{Sensor, SensorConfig};
use lkas_imaging::{KernelBackend, Scratch};
use lkas_perception::pipeline::{Perception, PerceptionConfig, PerceptionScratch};
use lkas_perception::roi::Roi;
use lkas_scene::camera::Camera;
use lkas_scene::render::SceneRenderer;
use lkas_scene::situation::TABLE3_SITUATIONS;
use lkas_scene::track::Track;

/// Renders one sensor RAW frame of the reference scene.
fn reference_raw(seed: u64, s: f64) -> lkas_imaging::image::RawImage {
    let cam = Camera::default_automotive();
    let track = Track::for_situation(&TABLE3_SITUATIONS[7], 500.0);
    let frame = SceneRenderer::new(cam).render(&track, s, 0.15, 0.01);
    Sensor::new(SensorConfig::default(), seed).capture(&frame, 1.0)
}

fn assert_bit_identical(a: &RgbImage, b: &RgbImage, what: &str) {
    assert_eq!((a.width(), a.height()), (b.width(), b.height()), "{what}: dimensions");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: pixel word {i}: {x} vs {y}");
    }
}

#[test]
fn process_into_is_bit_identical_for_every_config_and_thread_count() {
    let raw = reference_raw(11, 25.0);
    for threads in [1usize, 4] {
        let mut scratch = Scratch::with_threads(threads);
        // One output buffer reused (stale) across all nine configs.
        let mut out = RgbImage::new(2, 2);
        for cfg in IspConfig::ALL {
            let reference = IspPipeline::new(cfg).process(&raw);
            for backend in KernelBackend::ALL {
                let isp = IspPipeline::new(cfg).with_backend(backend);
                // Twice per config: the second pass runs fully pooled.
                for pass in 0..2 {
                    isp.process_into(&raw, &mut scratch, &mut out);
                    assert_bit_identical(
                        &reference,
                        &out,
                        &format!("{cfg:?} {backend} at {threads} threads, pass {pass}"),
                    );
                }
            }
        }
    }
}

#[test]
fn perception_matches_for_every_roi_with_pooled_frames() {
    let cam = Camera::default_automotive();
    let raw = reference_raw(23, 40.0);
    // One scratch pair survives all ROI "reconfigurations", as in the
    // HiL loop.
    let mut scratch = Scratch::new();
    let mut pscratch = PerceptionScratch::new();
    let mut frame = RgbImage::new(2, 2);
    for roi in Roi::ALL {
        let isp = IspPipeline::new(IspConfig::S0);
        let reference_frame = isp.process(&raw);
        isp.process_into(&raw, &mut scratch, &mut frame);
        assert_bit_identical(&reference_frame, &frame, &format!("S0 frame for {roi:?}"));

        let pr = Perception::new(PerceptionConfig::new(roi), cam.clone());
        let fresh = pr.process(&reference_frame);
        let pooled = pr.process_into(&frame, &mut pscratch);
        assert_eq!(fresh, pooled, "perception output for {roi:?}");
    }
}

#[test]
fn thread_counts_agree_with_each_other_per_config() {
    // 1-thread and 4-thread pooled paths agree pixel-for-pixel on a
    // second, differently-seeded frame (both already match `process`
    // above; this pins the tiling seam handling directly).
    let raw = reference_raw(42, 60.0);
    let mut serial = Scratch::with_threads(1);
    let mut tiled = Scratch::with_threads(4);
    let mut out_serial = RgbImage::new(2, 2);
    let mut out_tiled = RgbImage::new(2, 2);
    for cfg in IspConfig::ALL {
        let isp = IspPipeline::new(cfg);
        isp.process_into(&raw, &mut serial, &mut out_serial);
        isp.process_into(&raw, &mut tiled, &mut out_tiled);
        assert_bit_identical(&out_serial, &out_tiled, &format!("{cfg:?} 1 vs 4 threads"));
    }
}
