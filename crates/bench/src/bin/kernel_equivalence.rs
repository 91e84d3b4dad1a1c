//! Kernel-equivalence gate: Scalar vs Lanes, end to end.
//!
//! The CI stage `gate-kernel-equivalence` runs this binary; it exits
//! non-zero on the first class of mismatch. Seven claims are checked
//! (DESIGN.md §10 and §17):
//!
//! 1. **ISP lanes are bit-identical.** For every ISP configuration
//!    S0–S8 the `lanes` backend's full `process_into` output equals the
//!    scalar path byte for byte, on multiple frames/seeds.
//! 2. **Perception lanes are bit-identical.** Rectify + binarize under
//!    the lane backend reproduce the scalar BEV scores, mask bits, and
//!    threshold exactly, for every ROI.
//! 3. **The windowed frame path ≡ the full one.** On the 512×256 and
//!    the 256×128 camera, for S0–S8 × ROI 1–5 × frames, with no fault
//!    and with each Bayer fault kind, at 1 and 4 tile threads: render,
//!    capture, fault and ISP on the ROI's tap window grown by the
//!    stencil halo, the fault applied to the window only — into buffers
//!    poisoned with NaN outside it — give
//!    byte-identical ISP pixels on the tap window and the identical
//!    perception output. On those NaN-poisoned frames the lane
//!    rectifier also reproduces the scalar grid bit for bit, every cell
//!    and the score sum, with the SSE2 kernel running on x86_64: its
//!    4-float loads read one pixel past each tap, which may lie in the
//!    NaN outside the window.
//! 4. **Keyed sensor noise ≡ the sequential stream and the libm
//!    exposure.** Captures equal a sequential `StdRng` Box–Muller
//!    reference frame after frame, for several seeds including ones whose
//!    counter wraps past `u64::MAX`; and on both cameras, for the nine
//!    Fig. 7 scenes and one poisoned with NaN, ±∞ and negative values, at
//!    those seeds, `Sensor::capture_window_into` equals
//!    `lkas_bench::reference::capture_window` (one libm `ln` and `cos`
//!    per photosite) bit for bit on the full frame, the five ROI windows
//!    grown by the stencil halo and windows on the normals' chunk edges,
//!    into RAW frames poisoned with NaN outside the window.
//! 5. **Batched classifier inference ≡ sequential.** On a fixed-seed
//!    window set and for every classifier set the invocation schemes
//!    issue, stacking the three classifiers into one grouped GEMM per
//!    layer and writing the invoked groups yields the same estimate as
//!    the invoked classifiers' independent forward passes
//!    (`lkas_bench::reference::update_from_frame`).
//! 6. **Render and features ≡ their per-pixel references.** On both
//!    cameras, `--frames` poses in each sector of the Fig. 7 track (plus
//!    negative `s` and `s` past its end) and on each Table III
//!    situation: full renders and the five ROI windows (into NaN
//!    buffers) equal `lkas_bench::reference::render_window` bit for bit,
//!    and `extract` equals `lkas_bench::reference::extract` on each
//!    frame's ISP output, the configuration cycling through S0–S8.
//! 7. **Binarize and the sliding-window search ≡ their references.** On
//!    both cameras, at the poses of claim 6 on the Fig. 7 track, with no
//!    fault and with each Bayer fault kind, for S0–S8 × ROI 1–5: the
//!    library's mask bits and threshold equal
//!    `lkas_bench::reference::binarize_into`'s, both lane fits
//!    (coefficient bits, `n_pixels`, `row_span`, `base_col`) equal
//!    `lkas_bench::reference::sliding_window_search_with`'s, and
//!    `Perception::process_into` equals the reference deviation of those
//!    fits. The rectifier backend alternates by pose, so both arms'
//!    accumulated score sums are read.
//!
//! Flags: `--frames N` (frames per cell, default 3).

use lkas::identify::{BundleBatch, ClassifierBundle, SituationEstimate};
use lkas_bench::{load_or_train_bundle, reference, Args};
use lkas_faults::{apply_bayer_fault, apply_bayer_fault_window, BayerFaultKind};
use lkas_imaging::image::{BayerChannel, PixelWindow, RawImage, RgbImage};
use lkas_imaging::isp::{IspConfig, IspPipeline, STENCIL_HALO};
use lkas_imaging::sensor::{Sensor, SensorConfig, CROSSTALK};
use lkas_imaging::{KernelBackend, Scratch};
use lkas_nn::features::extract;
use lkas_perception::bev::{BevImage, BirdsEye, RectifyTaps};
use lkas_perception::pipeline::{Perception, PerceptionConfig, PerceptionScratch};
use lkas_perception::roi::Roi;
use lkas_perception::sliding::{sliding_window_search_with, LaneFit, SlidingScratch};
use lkas_perception::threshold::{binarize_into_with, BinaryMask};
use lkas_platform::profiles::ClassifierKind;
use lkas_platform::schedule::ClassifierSet;
use lkas_scene::camera::Camera;
use lkas_scene::render::SceneRenderer;
use lkas_scene::situation::TABLE3_SITUATIONS;
use lkas_scene::track::Track;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn max_abs_diff(a: &RgbImage, b: &RgbImage) -> f32 {
    a.as_slice().iter().zip(b.as_slice()).map(|(x, y)| (x - y).abs()).fold(0.0f32, f32::max)
}

/// Bit-compares two frames on one window.
fn same_on(a: &RgbImage, b: &RgbImage, window: PixelWindow) -> bool {
    window.rows().all(|y| {
        window.columns().all(|x| {
            let (p, q) = (a.get(x, y), b.get(x, y));
            (0..3).all(|c| p[c].to_bits() == q[c].to_bits())
        })
    })
}

/// A RAW frame of NaN: whatever a windowed producer leaves untouched
/// stays NaN, and any NaN read into the checked window shows.
fn poisoned_raw(w: usize, h: usize) -> RawImage {
    let mut raw = RawImage::new(w, h);
    raw.as_mut_slice().fill(f32::NAN);
    raw
}

/// The Bayer faults the loop injects, plus the fault-free case.
const FAULTS: [Option<BayerFaultKind>; 4] = [
    None,
    Some(BayerFaultKind::HotPixels { density: 0.03 }),
    Some(BayerFaultKind::RowBanding { period: 3, gain: 0.4 }),
    Some(BayerFaultKind::ExposureGlitch { gain: 2.2 }),
];

/// [`FAULTS`] plus exposure glitches that crush the frame to black and
/// clip it to white: the grids whose masks come out empty.
const PERCEPTION_FAULTS: [Option<BayerFaultKind>; 6] = [
    FAULTS[0],
    FAULTS[1],
    FAULTS[2],
    FAULTS[3],
    Some(BayerFaultKind::ExposureGlitch { gain: 0.02 }),
    Some(BayerFaultKind::ExposureGlitch { gain: 50.0 }),
];

/// Rectifies `rgb` with both backends: true when every cell and the
/// score sum agree bit for bit and, on x86_64, the lane arm ran the SSE2
/// kernel (a silent fallback would leave it unchecked).
fn same_grids(
    birds_eye: &BirdsEye,
    rgb: &RgbImage,
    taps: &mut RectifyTaps,
    [scalar, lanes]: &mut [BevImage; 2],
) -> bool {
    birds_eye.rectify_into(rgb, scalar);
    birds_eye.rectify_into_with(rgb, lanes, KernelBackend::Lanes, taps);
    fn bits(b: &BevImage) -> impl Iterator<Item = u32> + '_ {
        b.as_slice().iter().map(|v| v.to_bits()).chain([b.score_sum().to_bits()])
    }
    bits(scalar).eq(bits(lanes)) && taps.vectorized() == cfg!(target_arch = "x86_64")
}

/// Windowed render → capture → fault → ISP against the full path, per
/// camera, frame pose, fault, ROI, ISP configuration and tile-thread
/// count, and the lane rectifier against the scalar one on each
/// windowed frame. Returns the number of mismatching cells.
fn check_windows(frames: usize) -> usize {
    let cameras =
        [Camera::default_automotive(), Camera::new(256, 128, 150.0, 1.3, 6.0_f64.to_radians())];
    let mut failures = 0;
    let mut cells = 0;
    let mut grids = [BevImage::empty(), BevImage::empty()];
    for cam in &cameras {
        let (w, h) = (cam.width(), cam.height());
        let renderer = SceneRenderer::new(cam.clone());
        let perceptions: Vec<Perception> = Roi::ALL
            .iter()
            .map(|&roi| Perception::new(PerceptionConfig::new(roi), cam.clone()))
            .collect();
        let taps: Vec<PixelWindow> = perceptions.iter().map(|p| p.pixel_window(w, h)).collect();
        let windows: Vec<PixelWindow> = taps.iter().map(|t| t.grow(STENCIL_HALO, w, h)).collect();
        let birds_eyes: Vec<BirdsEye> = Roi::ALL
            .iter()
            .map(|&roi| BirdsEye::new(cam.clone(), roi).expect("built-in ROI"))
            .collect();
        let mut tables: Vec<RectifyTaps> = Roi::ALL.iter().map(|_| RectifyTaps::empty()).collect();
        for f in 0..frames {
            let sit = &TABLE3_SITUATIONS[(3 * f + 1) % TABLE3_SITUATIONS.len()];
            let track = Track::for_situation(sit, 500.0);
            let pose = (25.0 + 35.0 * f as f64, 0.1 - 0.08 * f as f64, 0.01 * f as f64);
            let seed = 500 + f as u64;
            let full_scene = renderer.render(&track, pose.0, pose.1, pose.2);
            let win_scenes: Vec<RgbImage> = windows
                .iter()
                .map(|&window| {
                    let mut scene = RgbImage::filled(w, h, [f32::NAN; 3]);
                    renderer
                        .render_window_into(&track, pose.0, pose.1, pose.2, window, &mut scene)
                        .expect("valid camera");
                    scene
                })
                .collect();
            for fault in FAULTS {
                let mut full_raw =
                    Sensor::new(SensorConfig::default(), seed).capture(&full_scene, 1.0);
                if let Some(kind) = fault {
                    apply_bayer_fault(kind, &mut full_raw, 77, f as u64);
                }
                let win_raws: Vec<RawImage> = windows
                    .iter()
                    .zip(&win_scenes)
                    .map(|(&window, scene)| {
                        let mut raw = poisoned_raw(w, h);
                        Sensor::new(SensorConfig::default(), seed)
                            .capture_window_into(scene, 1.0, window, &mut raw);
                        if let Some(kind) = fault {
                            apply_bayer_fault_window(kind, &mut raw, window, 77, f as u64);
                        }
                        raw
                    })
                    .collect();
                for cfg in IspConfig::ALL {
                    let full_rgb = IspPipeline::new(cfg).process(&full_raw);
                    for (r, roi) in Roi::ALL.iter().enumerate() {
                        let expect = perceptions[r].process(&full_rgb);
                        for threads in [1, 4] {
                            let mut rgb = RgbImage::filled(w, h, [f32::NAN; 3]);
                            IspPipeline::new(cfg).process_window_into(
                                &win_raws[r],
                                windows[r],
                                &mut Scratch::with_threads(threads),
                                &mut rgb,
                            );
                            let pixels_ok = same_on(&full_rgb, &rgb, taps[r]);
                            let output = perceptions[r].process(&rgb);
                            let grids_ok =
                                same_grids(&birds_eyes[r], &rgb, &mut tables[r], &mut grids);
                            if !pixels_ok || output != expect || !grids_ok {
                                eprintln!(
                                    "FAIL: {w}x{h} frame {f} {fault:?} {} {} at {threads} \
                                     threads: tap pixels equal {pixels_ok}, lane grid equal \
                                     {grids_ok}, perception {output:?} vs full {expect:?}",
                                    cfg.name(),
                                    roi.name()
                                );
                                failures += 1;
                            }
                            cells += 1;
                        }
                    }
                }
            }
        }
    }
    eprintln!(
        "[3/7] windows: {cells} cells (2 cameras × {frames} frames × {} faults × S0–S8 × {} ROIs \
         × 1/4 threads) checked, each with its lane grid against the scalar one",
        FAULTS.len(),
        Roi::ALL.len()
    );
    failures
}

/// The sequential reference the keyed sensor noise must reproduce: one
/// `StdRng` stream seeded like the sensor, a Box–Muller pair per
/// photosite in row-major order, frame after frame.
fn sequential_captures(seed: u64, frames: &[RgbImage]) -> Vec<RawImage> {
    let config = SensorConfig::default();
    let mut stream = StdRng::seed_from_u64(seed);
    let mut gaussian = || {
        let u1: f32 = stream.gen_range(f32::EPSILON..1.0);
        let u2: f32 = stream.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    };
    frames
        .iter()
        .map(|scene| {
            let mut raw = RawImage::new(scene.width(), scene.height());
            for y in 0..scene.height() {
                for x in 0..scene.width() {
                    let px = scene.get(x, y);
                    let row = match raw.channel_at(x, y) {
                        BayerChannel::Red => CROSSTALK[0],
                        BayerChannel::GreenR | BayerChannel::GreenB => CROSSTALK[1],
                        BayerChannel::Blue => CROSSTALK[2],
                    };
                    let signal = (row[0] * px[0] + row[1] * px[1] + row[2] * px[2]) * config.gain;
                    let var =
                        config.read_noise.powi(2) + config.shot_noise.powi(2) * signal.max(0.0);
                    raw.set(x, y, (signal + gaussian() * var.sqrt()).clamp(0.0, 1.0));
                }
            }
            raw
        })
        .collect()
}

/// Keyed capture against [`sequential_captures`]; returns the number of
/// mismatching frames.
fn check_keyed_noise() -> usize {
    let cam = Camera::new(64, 32, 40.0, 1.3, 0.1);
    let frames: Vec<RgbImage> = (0..4)
        .map(|f| {
            let track = Track::for_situation(&TABLE3_SITUATIONS[f * 5], 300.0);
            SceneRenderer::new(cam.clone()).render(&track, 10.0 + 20.0 * f as f64, 0.0, 0.0)
        })
        .collect();
    let seeds = [0, 9, 1 << 40, u64::MAX - 4096, u64::MAX];
    let mut failures = 0;
    for seed in seeds {
        let mut sensor = Sensor::new(SensorConfig::default(), seed);
        for (f, reference) in sequential_captures(seed, &frames).iter().enumerate() {
            if &sensor.capture(&frames[f], 1.0) != reference {
                eprintln!("FAIL: seed {seed} frame {f}: keyed capture differs from the stream");
                failures += 1;
            }
        }
    }
    eprintln!("[4/7] keyed noise: {} seeds × {} frames checked", seeds.len(), frames.len());
    failures + check_keyed_windows(&seeds)
}

/// Windowed captures against `lkas_bench::reference::capture_window`, per
/// camera, scene, seed and window: the whole RAW frame, poisoned with NaN
/// outside the window, compared bit for bit. Returns the number of
/// mismatching captures.
fn check_keyed_windows(seeds: &[u64]) -> usize {
    let cameras =
        [Camera::default_automotive(), Camera::new(256, 128, 150.0, 1.3, 6.0_f64.to_radians())];
    let track = Track::fig7_track();
    let config = SensorConfig::default();
    let (mut failures, mut captures) = (0, 0);
    for cam in &cameras {
        let (w, h) = (cam.width(), cam.height());
        let renderer = SceneRenderer::new(cam.clone());
        let mut scenes: Vec<RgbImage> = (0..track.sectors().len())
            .map(|k| renderer.render(&track, track.sector_start(k) + 40.0, 0.1, 0.01))
            .collect();
        let mut poisoned = scenes[0].clone();
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.25, -0.0];
        for (i, v) in poisoned.as_mut_slice().iter_mut().enumerate() {
            if i % 7 < specials.len() && i % 3 != 0 {
                *v = specials[(i / 7) % specials.len()];
            }
        }
        scenes.push(poisoned);
        let mut windows: Vec<PixelWindow> = Roi::ALL
            .iter()
            .map(|&roi| {
                let p = Perception::new(PerceptionConfig::new(roi), cam.clone());
                p.pixel_window(w, h).grow(STENCIL_HALO, w, h)
            })
            .chain([PixelWindow::full(w, h), PixelWindow { x0: 1, y0: 7, x1: w - 2, y1: 8 }])
            .collect();
        // Chunk edges: the normals run 64 photosites at a time.
        windows.extend([1, 63, 64, 65, 129].map(|width| PixelWindow {
            x0: 3,
            y0: 10,
            x1: 3 + width,
            y1: 13,
        }));
        for (n, scene) in scenes.iter().enumerate() {
            for &seed in seeds {
                for &window in &windows {
                    let (mut library, mut reference) = (poisoned_raw(w, h), poisoned_raw(w, h));
                    Sensor::new(config.clone(), seed).capture_window_into(
                        scene,
                        0.8,
                        window,
                        &mut library,
                    );
                    reference::capture_window(&config, seed, scene, 0.8, window, &mut reference);
                    let bits = |raw: &RawImage| -> Vec<u32> {
                        raw.as_slice().iter().map(|v| v.to_bits()).collect()
                    };
                    if bits(&library) != bits(&reference) {
                        eprintln!(
                            "FAIL: {w}x{h} scene {n} seed {seed} window {window:?}: capture \
                             differs from the libm reference"
                        );
                        failures += 1;
                    }
                    captures += 1;
                }
            }
        }
    }
    eprintln!(
        "[4/7] keyed windows: {captures} captures (2 cameras × 10 scenes × {} seeds × full, 5 ROI, \
         row and 5 chunk-edge windows) checked against the libm reference",
        seeds.len()
    );
    failures
}

/// Poses `(s, d, psi)` on `track`: `frames` spread over each sector, a
/// negative `s` and an `s` past the end.
fn reference_poses(track: &Track, frames: usize) -> Vec<(f64, f64, f64)> {
    let mut poses = Vec::new();
    for (k, sector) in track.sectors().iter().enumerate() {
        for f in 0..frames {
            let s = track.sector_start(k) + sector.length * (f as f64 + 0.37) / frames as f64;
            poses.push((s, 0.3 - 0.2 * f as f64, 0.04 * (f as f64 - 1.0)));
        }
    }
    poses.push((-12.0, 0.1, 0.0));
    poses.push((track.total_length() + 20.0, -0.1, 0.1));
    poses
}

/// Renders and features against `lkas_bench::reference`, per camera,
/// track, pose and ROI window. Returns the number of mismatches.
fn check_references(frames: usize) -> usize {
    let cameras =
        [Camera::default_automotive(), Camera::new(256, 128, 150.0, 1.3, 6.0_f64.to_radians())];
    let mut tracks = vec![Track::fig7_track()];
    tracks.extend(TABLE3_SITUATIONS.iter().map(|sit| Track::for_situation(sit, 300.0)));
    let mut failures = 0;
    let (mut renders, mut extracts) = (0usize, 0usize);
    for cam in &cameras {
        let (w, h) = (cam.width(), cam.height());
        let renderer = SceneRenderer::new(cam.clone());
        let windows: Vec<PixelWindow> = Roi::ALL
            .iter()
            .map(|&roi| {
                let p = Perception::new(PerceptionConfig::new(roi), cam.clone());
                p.pixel_window(w, h).grow(STENCIL_HALO, w, h)
            })
            .chain([PixelWindow::full(w, h)])
            .collect();
        for (t, track) in tracks.iter().enumerate() {
            for (p, &(s, d, psi)) in reference_poses(track, frames).iter().enumerate() {
                for &window in &windows {
                    let mut fast = RgbImage::filled(w, h, [f32::NAN; 3]);
                    let mut slow = fast.clone();
                    renderer
                        .render_window_into(track, s, d, psi, window, &mut fast)
                        .expect("valid camera");
                    reference::render_window(cam, track, s, d, psi, window, &mut slow);
                    let same = fast
                        .as_slice()
                        .iter()
                        .zip(slow.as_slice())
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    if !same {
                        eprintln!(
                            "FAIL: {w}x{h} track {t} pose {p} (s {s}, d {d}, psi {psi}) \
                             window {window:?}: render differs from the reference"
                        );
                        failures += 1;
                    }
                    renders += 1;
                }
                let frame = renderer.render(track, s, d, psi);
                let seed = 7000 + 100 * t as u64 + p as u64;
                let raw = Sensor::new(SensorConfig::default(), seed).capture(&frame, 1.0);
                let cfg = IspConfig::ALL[(t + p) % IspConfig::ALL.len()];
                let rgb = IspPipeline::new(cfg).process(&raw);
                let (fast, slow) = (extract(&rgb, cam), reference::extract(&rgb, cam));
                if fast.iter().map(|v| v.to_bits()).ne(slow.iter().map(|v| v.to_bits())) {
                    eprintln!(
                        "FAIL: {w}x{h} track {t} pose {p} {}: features differ from the reference",
                        cfg.name()
                    );
                    failures += 1;
                }
                extracts += 1;
            }
        }
    }
    eprintln!(
        "[6/7] references: {renders} renders (full and 5 ROI windows) and {extracts} feature \
         vectors (S0–S8) checked on 2 cameras × the Fig. 7 track and {} Table III tracks",
        TABLE3_SITUATIONS.len()
    );
    failures
}

/// The bits of a lane fit that perception's output depends on.
fn fit_key(fit: &Option<LaneFit>) -> Option<([u64; 3], usize, usize, usize)> {
    fit.as_ref().map(|f| (f.coeffs.map(f64::to_bits), f.n_pixels, f.row_span, f.base_col))
}

/// Binarize, the sliding-window search and the perception output
/// against `lkas_bench::reference`, per camera, Fig. 7 pose, fault, ISP
/// configuration and ROI. Returns the number of mismatching cells.
fn check_perception(frames: usize) -> usize {
    let cameras =
        [Camera::default_automotive(), Camera::new(256, 128, 150.0, 1.3, 6.0_f64.to_radians())];
    let track = Track::fig7_track();
    let (mut bev, mut taps) = (BevImage::empty(), RectifyTaps::empty());
    let (mut mask, mut sliding) = (BinaryMask::empty(), SlidingScratch::new());
    let (mut ref_mask, mut ref_search) = (reference::Mask::default(), Default::default());
    let (mut isp_scratch, mut rgb, mut pscratch) =
        (Scratch::new(), RgbImage::new(2, 2), PerceptionScratch::new());
    let (mut failures, mut cells, mut empty, mut dense) = (0, 0, 0, 0);
    for cam in &cameras {
        let renderer = SceneRenderer::new(cam.clone());
        let stages: Vec<(BirdsEye, [Perception; 2])> = Roi::ALL
            .iter()
            .map(|&roi| {
                let pr = Perception::new(PerceptionConfig::new(roi), cam.clone());
                let backends = KernelBackend::ALL.map(|b| pr.clone().with_backend(b));
                (BirdsEye::new(cam.clone(), roi).expect("built-in ROI"), backends)
            })
            .collect();
        for (p, &(s, d, psi)) in reference_poses(&track, frames).iter().enumerate() {
            let backend = KernelBackend::ALL[p % KernelBackend::ALL.len()];
            let scene = renderer.render(&track, s, d, psi);
            for fault in PERCEPTION_FAULTS {
                let mut raw =
                    Sensor::new(SensorConfig::default(), 8000 + p as u64).capture(&scene, 1.0);
                if let Some(kind) = fault {
                    apply_bayer_fault(kind, &mut raw, 91, p as u64);
                }
                for cfg in IspConfig::ALL {
                    IspPipeline::new(cfg).process_into(&raw, &mut isp_scratch, &mut rgb);
                    for (birds_eye, perceptions) in &stages {
                        let pr = &perceptions[p % KernelBackend::ALL.len()];
                        birds_eye.rectify_into_with(&rgb, &mut bev, backend, &mut taps);
                        binarize_into_with(&bev, &mut mask, backend);
                        reference::binarize_into(&bev, &mut ref_mask);
                        let bits_ok = mask.threshold().to_bits() == ref_mask.threshold.to_bits()
                            && (0..mask.height()).all(|row| {
                                (0..mask.width())
                                    .all(|col| mask.get(col, row) == ref_mask.get(col, row))
                            });
                        let fits = sliding_window_search_with(&bev, &mask, &mut sliding);
                        let ref_fits =
                            reference::sliding_window_search_with(&bev, &ref_mask, &mut ref_search);
                        let fits_ok = fit_key(&fits.left) == fit_key(&ref_fits.left)
                            && fit_key(&fits.right) == fit_key(&ref_fits.right);
                        let output = pr.process_into(&rgb, &mut pscratch);
                        let expect = reference::lateral_deviation(pr.config(), &bev, &ref_fits);
                        if !bits_ok || !fits_ok || output != expect {
                            eprintln!(
                                "FAIL: {}x{} pose {p} (s {s}) {fault:?} {} {} {backend}: mask \
                                 and threshold equal {bits_ok}, fits equal {fits_ok}, \
                                 perception {output:?} vs reference {expect:?}",
                                cam.width(),
                                cam.height(),
                                cfg.name(),
                                pr.config().roi.name()
                            );
                            failures += 1;
                        }
                        let set = ref_mask.bits.iter().filter(|&&b| b).count();
                        empty += usize::from(set == 0);
                        dense += usize::from(set * 10 > ref_mask.bits.len());
                        cells += 1;
                    }
                }
            }
        }
    }
    eprintln!(
        "[7/7] binarize and search: {cells} cells (2 cameras × {} Fig. 7 poses × {} faults × \
         S0–S8 × {} ROIs) checked; {empty} empty masks, {dense} over 10% set",
        reference_poses(&track, frames).len(),
        PERCEPTION_FAULTS.len(),
        Roi::ALL.len()
    );
    failures
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&argv, "--frames", "", false);
    let frames: usize = args.parsed("--frames").unwrap_or(3);
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
    eprintln!("[1/7] ISP: {} configs × {frames} frames checked", IspConfig::ALL.len());

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
    eprintln!("[2/7] perception: {} ROIs × 2 passes checked", Roi::ALL.len());

    // --- 3–4: windowed frame path, keyed noise -------------------------
    failures += check_windows(frames);
    failures += check_keyed_noise();

    // --- 5: batched vs sequential classifiers, for every set the
    // invocation schemes issue, from an estimate that is not the frame's
    // situation, so a group written or kept wrongly shows.
    let bundle: &ClassifierBundle = &load_or_train_bundle();
    let mut batch = BundleBatch::new(bundle);
    let isp = IspPipeline::new(IspConfig::S0);
    let sets = [
        ClassifierSet::road_only(),
        ClassifierSet::road_lane(),
        ClassifierSet::single(ClassifierKind::Lane),
        ClassifierSet::single(ClassifierKind::Scene),
        ClassifierSet::all(),
    ];
    let mut windows = 0usize;
    for (i, sit) in TABLE3_SITUATIONS.iter().enumerate() {
        let track = Track::for_situation(sit, 500.0);
        let start = TABLE3_SITUATIONS[(i + 10) % TABLE3_SITUATIONS.len()];
        for seed in 0..2u64 {
            let s = 20.0 + 15.0 * seed as f64;
            let frame = SceneRenderer::new(cam.clone()).render(&track, s, 0.02, 0.0);
            let raw =
                Sensor::new(SensorConfig::default(), 31 * i as u64 + seed).capture(&frame, 1.0);
            let rgb = isp.process(&raw);
            for invoked in sets {
                let mut seq = SituationEstimate::with_initial(start);
                reference::update_from_frame(&mut seq, bundle, &rgb, &cam, invoked);
                let mut batched = SituationEstimate::with_initial(start);
                batched.update_from_frame_with(bundle, &mut batch, &rgb, &cam, invoked);
                let (got, want) = (batched.current(), seq.current());
                if got != want {
                    eprintln!("FAIL: situation {i} seed {seed} {invoked:?}: {got:?} vs {want:?}");
                    failures += 1;
                }
                windows += 1;
            }
        }
    }
    eprintln!("[5/7] classifiers: {windows} invocations checked ({} sets)", sets.len());

    // --- 6: render and features against the per-pixel references -------
    failures += check_references(frames);

    // --- 7: binarize and the sliding-window search against theirs ------
    failures += check_perception(frames);

    if failures > 0 {
        eprintln!("kernel_equivalence: {failures} FAILURE(S)");
        std::process::exit(1);
    }
    eprintln!("kernel_equivalence: all backends equivalent");
}
