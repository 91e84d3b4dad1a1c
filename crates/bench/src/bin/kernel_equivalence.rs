//! Kernel-equivalence gate: Scalar vs Lanes, end to end.
//!
//! The CI stage `gate-kernel-equivalence` runs this binary; it exits
//! non-zero on the first class of mismatch. Three claims are checked
//! (DESIGN.md §17):
//!
//! 1. **ISP lanes are bit-identical.** For every ISP configuration
//!    S0–S8 the `lanes` backend's full `process_into` output equals the
//!    scalar path byte for byte, on multiple frames/seeds.
//! 2. **Perception lanes are bit-identical.** Rectify + binarize under
//!    the lane backend reproduce the scalar BEV scores, mask bits, and
//!    threshold exactly, for every ROI.
//! 3. **Batched classifier inference ≡ sequential.** On a fixed-seed
//!    window set, stacking the three classifiers into one grouped GEMM
//!    per layer yields the same logits-level decisions as three
//!    independent forward passes.
//!
//! Flags: `--frames N` (frames per cell, default 3).

use lkas::identify::{BundleBatch, ClassifierBundle, SituationEstimate};
use lkas_bench::{arg_value, load_or_train_bundle};
use lkas_imaging::image::RgbImage;
use lkas_imaging::isp::{IspConfig, IspPipeline};
use lkas_imaging::sensor::{Sensor, SensorConfig};
use lkas_imaging::{KernelBackend, Scratch};
use lkas_perception::pipeline::{Perception, PerceptionConfig, PerceptionScratch};
use lkas_perception::roi::Roi;
use lkas_platform::schedule::ClassifierSet;
use lkas_scene::camera::Camera;
use lkas_scene::render::SceneRenderer;
use lkas_scene::situation::TABLE3_SITUATIONS;
use lkas_scene::track::Track;

fn max_abs_diff(a: &RgbImage, b: &RgbImage) -> f32 {
    a.as_slice().iter().zip(b.as_slice()).map(|(x, y)| (x - y).abs()).fold(0.0f32, f32::max)
}

fn main() {
    let frames: usize = arg_value("--frames").and_then(|v| v.parse().ok()).unwrap_or(3);
    let cam = Camera::default_automotive();
    let mut failures = 0usize;

    // --- 1: ISP backends, S0–S8 × frames -------------------------------
    for cfg in IspConfig::ALL {
        for f in 0..frames {
            let sit = &TABLE3_SITUATIONS[f % TABLE3_SITUATIONS.len()];
            let track = Track::for_situation(sit, 500.0);
            let frame =
                SceneRenderer::new(cam.clone()).render(&track, 30.0 + 40.0 * f as f64, 0.0, 0.0);
            let raw = Sensor::new(SensorConfig::default(), 100 + f as u64).capture(&frame, 1.0);

            let mut outs: Vec<RgbImage> = Vec::new();
            for backend in KernelBackend::ALL {
                let isp = IspPipeline::new(cfg).with_backend(backend);
                let mut scratch = Scratch::new();
                let mut out = RgbImage::new(2, 2);
                isp.process_into(&raw, &mut scratch, &mut out);
                outs.push(out);
            }
            let [scalar, lanes] = <[RgbImage; 2]>::try_from(outs).unwrap();
            if scalar.as_slice() != lanes.as_slice() {
                eprintln!(
                    "FAIL: {} frame {f}: lanes differs from scalar (max |Δ| = {})",
                    cfg.name(),
                    max_abs_diff(&scalar, &lanes)
                );
                failures += 1;
            }
        }
    }
    eprintln!("[1/3] ISP: {} configs × {frames} frames checked", IspConfig::ALL.len());

    // --- 2: perception backends, every ROI -----------------------------
    let track = Track::for_situation(&TABLE3_SITUATIONS[0], 500.0);
    let frame = SceneRenderer::new(cam.clone()).render(&track, 25.0, 0.05, 0.0);
    let raw = Sensor::new(SensorConfig::default(), 9).capture(&frame, 1.0);
    let rgb = IspPipeline::new(IspConfig::S0).process(&raw);
    for roi in Roi::ALL {
        let scalar_pr = Perception::new(PerceptionConfig::new(roi), cam.clone())
            .with_backend(KernelBackend::Scalar);
        let lanes_pr = Perception::new(PerceptionConfig::new(roi), cam.clone())
            .with_backend(KernelBackend::Lanes);
        let mut s_scratch = PerceptionScratch::new();
        let mut l_scratch = PerceptionScratch::new();
        // Two passes: the second exercises the warmed tap cache.
        for pass in 0..2 {
            let s = scalar_pr.process_into(&rgb, &mut s_scratch);
            let l = lanes_pr.process_into(&rgb, &mut l_scratch);
            if s != l {
                eprintln!("FAIL: {} pass {pass}: lane perception output differs", roi.name());
                failures += 1;
            }
        }
    }
    eprintln!("[2/3] perception: {} ROIs × 2 passes checked", Roi::ALL.len());

    // --- 3: batched vs sequential classifiers --------------------------
    let bundle: &ClassifierBundle = &load_or_train_bundle();
    let mut batch = BundleBatch::new(bundle);
    let isp = IspPipeline::new(IspConfig::S0);
    let mut windows = 0usize;
    for (i, sit) in TABLE3_SITUATIONS.iter().enumerate() {
        let track = Track::for_situation(sit, 500.0);
        for seed in 0..2u64 {
            let frame = SceneRenderer::new(cam.clone()).render(
                &track,
                20.0 + 15.0 * seed as f64,
                0.02,
                0.0,
            );
            let raw =
                Sensor::new(SensorConfig::default(), 31 * i as u64 + seed).capture(&frame, 1.0);
            let rgb = isp.process(&raw);
            let mut seq = SituationEstimate::new();
            seq.update_from_frame(bundle, &rgb, &cam, ClassifierSet::all());
            let mut batched = SituationEstimate::new();
            batched.update_from_frame_with(bundle, &mut batch, &rgb, &cam, ClassifierSet::all());
            if seq.current() != batched.current() {
                eprintln!(
                    "FAIL: situation {i} seed {seed}: batched {:?} vs sequential {:?}",
                    batched.current(),
                    seq.current()
                );
                failures += 1;
            }
            windows += 1;
        }
    }
    eprintln!("[3/3] classifiers: {windows} full windows checked");

    if failures > 0 {
        eprintln!("kernel_equivalence: {failures} FAILURE(S)");
        std::process::exit(1);
    }
    eprintln!("kernel_equivalence: all backends equivalent");
}
