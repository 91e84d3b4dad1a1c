//! Golden equivalence of the in-place pooled frame path.
//!
//! The zero-allocation redesign must be an *observationally invisible*
//! change: for every ISP configuration (S0…S8), every ROI, and any
//! executor thread count, `process_into` writing into reused pooled
//! buffers must produce bit-identical pixels (and identical perception
//! measurements) to the one-shot allocating path — on the default lane
//! kernels and on the scalar reference kernels alike. So must the
//! windowed frame path, which renders, captures and processes only the
//! active ROI's tap window plus the ISP's stencil halo.

use lkas_imaging::image::{RawImage, RgbImage};
use lkas_imaging::isp::{IspConfig, IspPipeline, STENCIL_HALO};
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

/// [`reference_raw`] produced on one pixel window only, into buffers
/// poisoned with NaN outside it.
fn windowed_raw(seed: u64, s: f64, window: lkas_imaging::PixelWindow) -> RawImage {
    let cam = Camera::default_automotive();
    let (w, h) = (cam.width(), cam.height());
    let track = Track::for_situation(&TABLE3_SITUATIONS[7], 500.0);
    let mut frame = RgbImage::filled(w, h, [f32::NAN; 3]);
    SceneRenderer::new(cam).render_window_into(&track, s, 0.15, 0.01, window, &mut frame).unwrap();
    let mut raw = RawImage::new(w, h);
    raw.as_mut_slice().fill(f32::NAN);
    Sensor::new(SensorConfig::default(), seed).capture_window_into(&frame, 1.0, window, &mut raw);
    raw
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

        // The windowed frame: only the ROI's taps plus the halo exist.
        let (w, h) = (cam.width(), cam.height());
        let window = pr.pixel_window(w, h).grow(STENCIL_HALO, w, h);
        let mut windowed = RgbImage::filled(w, h, [f32::NAN; 3]);
        isp.process_window_into(
            &windowed_raw(23, 40.0, window),
            window,
            &mut scratch,
            &mut windowed,
        );
        assert!(windowed.as_slice().iter().any(|v| v.is_nan()), "pixels outside stay unmade");
        let windowed = pr.process_into(&windowed, &mut pscratch);
        assert_eq!(fresh, windowed, "windowed perception output for {roi:?}");
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

/// The loop-level golden: a Case 4 oracle run through a ROI switch, a
/// frame-drop burst and a storm of every Bayer fault kind. Every field
/// of every `TraceSample` and every counter of the `HilResult` is folded
/// into one fingerprint, and the constant below was recorded with the
/// full-frame loop, before the frame path computed pixel windows. The
/// windowed loop must reproduce it bit for bit.
///
/// The same run also writes a Chrome trace and a metrics-free stream.
/// Their fingerprints were recorded with the loop that produced each
/// oracle frame before the knob decision (and again on a ROI switch
/// that needed more pixels), so a reordered span, instant or label
/// fails here. `frame_pixels` is left out of the stream: it counts the
/// window a cycle computed, which is what that change moved.
#[test]
fn windowed_loop_reproduces_the_full_frame_golden() {
    use lkas::cases::Case;
    use lkas::hil::{HilConfig, HilSimulator, SituationSource};
    use lkas_faults::FaultPlan;
    use lkas_runtime::{Fingerprint, TelemetryBus, TraceRecorder};
    use lkas_scene::track::Sector;
    use std::sync::Arc;

    let plan = FaultPlan::named("window-golden", 5)
        .drop_burst(60, 8)
        .hot_pixels(90, 20, 0.03)
        .row_banding(124, 10, 3, 0.4)
        .exposure_glitch(134, 12, 1.8);
    let track = Track::new(vec![
        Sector::for_situation(&TABLE3_SITUATIONS[0], 60.0),
        Sector::for_situation(&TABLE3_SITUATIONS[7], 60.0),
    ]);
    let recorder = TraceRecorder::new();
    let bus = Arc::new(TelemetryBus::new(1 << 12));
    let stream = bus.subscribe();
    let config = HilConfig::new(Case::Case4, SituationSource::Oracle)
        .with_camera(Camera::new(256, 128, 150.0, 1.3, 6.0_f64.to_radians()))
        .with_seed(11)
        .with_fault_plan(Arc::new(plan))
        .with_trace(true)
        .with_trace_sink(recorder.sink(1, "window-golden"))
        .with_stream(Arc::clone(&bus));
    let r = HilSimulator::new(track, config).run();
    assert!(r.trace.windows(2).any(|p| p[0].roi != p[1].roi), "the ROI knob must switch");
    assert_eq!(r.frame_drops, 8, "the drop burst must land inside the run");
    assert_eq!(r.faulted_cycles, 50, "every fault window must land inside the run");

    let mut fp = Fingerprint::new();
    for s in &r.trace {
        fp = fp
            .push_f64(s.t_ms)
            .push_u64(s.y_l_measured.map_or(0, |_| 1))
            .push_f64(s.y_l_measured.unwrap_or(0.0))
            .push_f64(s.y_l_true)
            .push_f64(s.steering)
            .push_str(s.isp.name())
            .push_str(s.roi.name())
            .push_f64(s.vx)
            .push_u64(s.sector as u64);
    }
    for n in [
        u64::from(r.crashed),
        r.crash_sector.map_or(u64::MAX, |s| s as u64),
        r.samples,
        r.perception_failures,
        r.reconfigurations,
        r.misidentifications,
        r.frame_drops,
        r.faulted_cycles,
        r.degraded_samples,
        r.degraded_entries,
        r.measurement_holds,
        r.observer_coasts,
        r.observer_reacquisitions,
        r.render_errors,
        r.tuner_decisions,
        r.tuner_explorations,
        r.tuner_fallbacks,
    ] {
        fp = fp.push_u64(n);
    }
    fp = fp.push_f64(r.time_s).push_f64(r.overall_mae().unwrap_or(f64::NAN));
    assert_eq!(fp.finish(), "a9d741c218db923a", "trajectory of {} samples", r.samples);

    let trace = Fingerprint::new().push_str(&recorder.chrome_trace_json()).finish();
    let deltas = stream.drain();
    assert_eq!((deltas.len() as u64, stream.dropped()), (r.samples, 0), "one line per cycle");
    let mut lines = Fingerprint::new();
    for mut delta in deltas {
        delta.counters.retain(|(name, _)| name != "frame_pixels");
        lines = lines.push_str(&serde_json::to_string(&delta).unwrap());
    }
    assert_eq!(trace, "9a02818d89d08232", "Chrome trace of {} samples", r.samples);
    assert_eq!(lines.finish(), "4fac8b8c5da2cea3", "stream of {} samples", r.samples);
}

/// The poses of the render/feature golden on the Fig. 7 track: every
/// sector start ± 1e-6 (sector 1's minus side is negative `s`), dash
/// edges where `s mod 7.5` sits at 0 and 3 on dotted sectors, negative
/// `s`, `s` past the track end, ψ = ±0.2, and the night and dark
/// head-light sectors.
fn golden_poses(track: &Track) -> Vec<(f64, f64, f64)> {
    let mut poses = Vec::new();
    for i in 0..track.sectors().len() {
        let start = track.sector_start(i);
        let d = 0.1 * (i % 3) as f64 - 0.1;
        poses.push((start - 1e-6, d, 0.01));
        poses.push((start + 1e-6, -d, -0.01));
    }
    for edge in [97.5, 100.5, 600.0, 603.0, 757.5, 760.5] {
        poses.push((edge - 1e-9, 0.05, 0.0));
        poses.push((edge + 1e-9, 0.05, 0.0));
    }
    let end = track.total_length();
    for (s, d, psi) in [
        (-25.0, 0.0, 0.0),
        (end + 30.0, 0.2, 0.0),
        (end + 90.0, -0.2, 0.05),
        (300.0, 0.3, 0.2),
        (800.0, -0.3, -0.2),
        (1050.0, 0.0, 0.02),
        (1200.0, 0.4, -0.03),
    ] {
        poses.push((s, d, psi));
    }
    poses
}

/// Bit-level golden of the renderer and the feature extractor. Both
/// cameras render the Fig. 7 track at [`golden_poses`]; each frame goes
/// through the sensor and S0, and `extract` reads the result. The render
/// bits and the feature bits fold into one fingerprint each. The two
/// constants were recorded with the per-pixel renderer (a full
/// back-projection, two sector searches and one `rem_euclid` per dotted
/// line at every pixel) and the three-pass feature extractor, before
/// the pose-independent work was hoisted out of their loops.
#[test]
fn render_and_features_reproduce_the_per_pixel_golden() {
    use lkas_nn::features::extract;
    use lkas_runtime::Fingerprint;

    let track = Track::fig7_track();
    let cameras =
        [Camera::default_automotive(), Camera::new(256, 128, 150.0, 1.3, 6.0_f64.to_radians())];
    let isp = IspPipeline::new(IspConfig::S0);
    let mut frames = Fingerprint::new();
    let mut features = Fingerprint::new();
    let mut n = 0u64;
    for cam in &cameras {
        let renderer = SceneRenderer::new(cam.clone());
        for (s, d, psi) in golden_poses(&track) {
            let frame = renderer.render(&track, s, d, psi);
            for v in frame.as_slice() {
                frames = frames.push_bytes(&v.to_bits().to_le_bytes());
            }
            let raw = Sensor::new(SensorConfig::default(), 900 + n).capture(&frame, 1.0);
            for v in extract(&isp.process(&raw), cam) {
                features = features.push_bytes(&v.to_bits().to_le_bytes());
            }
            n += 1;
        }
    }
    assert_eq!(frames.finish(), "e346adbea83eac49", "render bits over {n} frames");
    assert_eq!(features.finish(), "b6f4546a099df948", "feature bits over {n} frames");
}

/// Bit-level golden of binarize and the sliding-window search. On the
/// 256×128 camera, one pose in each Fig. 7 sector goes through the
/// sensor, a Bayer fault (none, each kind, or an exposure crushed to
/// black; by sector) and one ISP configuration (by sector); then, for
/// every ROI, the mask bits, the
/// threshold, both lane fits and the perception output fold into one
/// fingerprint. The constant was recorded with the binarize that folded
/// the grid twice and the search that read the mask one `get(col, row)`
/// at a time, sorted the residuals for their median and fitted with the
/// generic `polyfit_into`.
#[test]
fn binarize_and_search_reproduce_the_golden() {
    use lkas_faults::{apply_bayer_fault, BayerFaultKind};
    use lkas_perception::bev::BirdsEye;
    use lkas_perception::sliding::sliding_window_search;
    use lkas_perception::threshold::binarize;
    use lkas_runtime::Fingerprint;

    let cam = Camera::new(256, 128, 150.0, 1.3, 6.0_f64.to_radians());
    let renderer = SceneRenderer::new(cam.clone());
    let track = Track::fig7_track();
    let faults = [
        None,
        Some(BayerFaultKind::HotPixels { density: 0.03 }),
        Some(BayerFaultKind::RowBanding { period: 3, gain: 0.4 }),
        Some(BayerFaultKind::ExposureGlitch { gain: 2.2 }),
        Some(BayerFaultKind::ExposureGlitch { gain: 0.02 }),
    ];
    let mut fp = Fingerprint::new();
    let (mut fits, mut misses) = (0, 0);
    for (k, sector) in track.sectors().iter().enumerate() {
        let s = track.sector_start(k) + 0.4 * sector.length;
        let scene = renderer.render(&track, s, 0.1, 0.01);
        let mut raw = Sensor::new(SensorConfig::default(), 300 + k as u64).capture(&scene, 1.0);
        if let Some(kind) = faults[k % faults.len()] {
            apply_bayer_fault(kind, &mut raw, 5, k as u64);
        }
        let rgb = IspPipeline::new(IspConfig::ALL[k % IspConfig::ALL.len()]).process(&raw);
        for roi in Roi::ALL {
            let bev = BirdsEye::new(cam.clone(), roi).unwrap().rectify(&rgb);
            let mask = binarize(&bev);
            fp = fp.push_u64(u64::from(mask.threshold().to_bits()));
            for row in 0..mask.height() {
                let bits: Vec<u8> =
                    (0..mask.width()).map(|col| u8::from(mask.get(col, row))).collect();
                fp = fp.push_bytes(&bits);
            }
            let search = sliding_window_search(&bev, &mask);
            for fit in [&search.left, &search.right] {
                fp = match fit {
                    None => fp.push_u64(u64::MAX),
                    Some(f) => {
                        fits += 1;
                        let fp = f.coeffs.iter().fold(fp, |fp, &c| fp.push_f64(c));
                        fp.push_u64(f.n_pixels as u64)
                            .push_u64(f.row_span as u64)
                            .push_u64(f.base_col as u64)
                    }
                };
            }
            fp = match Perception::new(PerceptionConfig::new(roi), cam.clone()).process(&rgb) {
                Ok(out) => fp
                    .push_f64(out.y_l)
                    .push_u64(out.lanes_used as u64)
                    .push_u64(out.support as u64),
                Err(_) => {
                    misses += 1;
                    fp.push_u64(u64::MAX)
                }
            };
        }
    }
    assert!(fits > 20 && misses > 0, "{fits} lane fits, {misses} perception misses");
    assert_eq!(fp.finish(), "25ef12b4dbcf5fa9", "binarize and search over {fits} fits");
}
