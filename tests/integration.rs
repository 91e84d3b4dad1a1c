//! Cross-crate integration tests: the full stack wired end-to-end at a
//! reduced camera resolution (so they stay fast in CI), exercising the
//! seams between the substrates rather than re-testing each module.

use lkas::cases::Case;
use lkas::hil::{knobs_for_case, HilConfig, HilSimulator, SituationSource};
use lkas::invocation::InvocationScheme;
use lkas::knobs::{KnobTable, KnobTuning};
use lkas::{LaneColor, LaneForm, RoadLayout, SceneKind, SituationFeatures, TABLE3_SITUATIONS};
use lkas_imaging::image::RgbImage;
use lkas_imaging::isp::{IspConfig, IspPipeline};
use lkas_imaging::sensor::{Sensor, SensorConfig};
use lkas_perception::pipeline::{Perception, PerceptionConfig};
use lkas_perception::roi::Roi;
use lkas_platform::schedule::{ClassifierSet, LkasSchedule};
use lkas_scene::camera::Camera;
use lkas_scene::render::SceneRenderer;
use lkas_scene::track::{Sector, Track};

fn test_camera() -> Camera {
    Camera::new(256, 128, 150.0, 1.3, 6.0_f64.to_radians())
}

/// Renderer → sensor → ISP → perception, measured against ground truth.
#[test]
fn full_sensing_chain_measures_true_deviation() {
    // Full-resolution camera here: the reduced test camera carries a
    // ~0.15 m perception bias that the closed-loop tests tolerate but
    // this open-loop accuracy check should not.
    let cam = Camera::default_automotive();
    let track = Track::for_situation(&TABLE3_SITUATIONS[0], 500.0);
    let renderer = SceneRenderer::new(cam.clone());
    let mut sensor = Sensor::new(SensorConfig::default(), 5);
    let perception = Perception::new(PerceptionConfig::new(Roi::Roi1), cam);
    // Average over several longitudinal positions: at this reduced
    // resolution individual frames carry dash-phase noise from the
    // dotted right lane.
    for (d, psi) in [(0.0, 0.0), (0.25, 0.0), (-0.2, 0.01)] {
        let expected = d + 5.5 * psi;
        let mut err_sum = 0.0;
        let mut n = 0;
        for k in 0..6 {
            let frame = renderer.render(&track, 60.0 + 7.0 * k as f64, d, psi);
            let rgb = IspPipeline::new(IspConfig::S0).process(&sensor.capture(&frame, 1.0));
            let out = perception.process(&rgb).expect("detectable");
            err_sum += (out.y_l - expected).abs();
            n += 1;
        }
        let mean_err = err_sum / n as f64;
        assert!(mean_err < 0.12, "mean |error| {mean_err} for (d={d}, psi={psi})");
    }
}

/// The Table V timing pipeline: knobs → schedule → controller design →
/// stable closed loop, for every Table III tuning.
#[test]
fn every_table3_tuning_designs_a_stable_controller() {
    let table = KnobTable::paper_table3();
    for (situation, tuning) in table.iter() {
        let cfg = tuning.controller_config(ClassifierSet::all());
        let controller = lkas_control::design::design_controller(&cfg)
            .unwrap_or_else(|e| panic!("{situation}: {e}"));
        let stable = lkas_linalg::eig::is_schur_stable(&controller.closed_loop_matrix()).unwrap();
        assert!(stable, "{situation} yields unstable loop");
    }
}

/// Closed loop at reduced resolution: the robust baseline survives a
/// situation transition with the ground-truth oracle.
#[test]
fn case3_survives_mixed_track() {
    let s1 = Sector::for_situation(&TABLE3_SITUATIONS[0], 120.0);
    let s2 = Sector::for_situation(&TABLE3_SITUATIONS[7], 150.0);
    let s3 = Sector::for_situation(&TABLE3_SITUATIONS[1], 100.0);
    let track = Track::new(vec![s1, s2, s3]);
    let config = HilConfig::new(Case::Case3, SituationSource::Oracle)
        .with_camera(test_camera())
        .with_seed(11);
    let result = HilSimulator::new(track, config).run();
    assert!(!result.crashed, "crashed at {:?}", result.crash_sector);
    assert!(result.reconfigurations >= 2, "must reconfigure across sectors");
    assert!(result.overall_mae().expect("samples") < 0.4);
}

/// Knob policies are consistent with the schedule-derived Table V rows.
#[test]
fn case_policies_produce_paper_timings() {
    let table = KnobTable::paper_table3();
    let benign = TABLE3_SITUATIONS[0];
    // Case 1 pins the conservative knobs.
    let k1 = knobs_for_case(Case::Case1, &benign, &table);
    assert_eq!(k1, KnobTuning::conservative());
    let t1 = LkasSchedule::new(k1.isp, Case::Case1.delay_classifier_set()).timing();
    assert!((t1.tau_ms - 24.6).abs() < 0.2);
    // Case 3 on a dotted left turn picks the fine ROI 5.
    let dotted_left = SituationFeatures::new(
        LaneColor::White,
        LaneForm::Dotted,
        RoadLayout::LeftTurn,
        SceneKind::Day,
    );
    let k3 = knobs_for_case(Case::Case3, &dotted_left, &table);
    assert_eq!(k3.roi, Roi::Roi5);
    assert_eq!(k3.isp, IspConfig::S0, "case 3 never approximates the ISP");
    // Case 4 pulls the Table III tuning.
    let k4 = knobs_for_case(Case::Case4, &dotted_left, &table);
    assert_eq!(k4, table.lookup(&dotted_left));
}

/// The round-robin scheme really leaves lane knowledge stale between
/// lane-classifier frames — observable as delayed fine-ROI switching.
#[test]
fn round_robin_scheme_defers_lane_updates() {
    let scheme = InvocationScheme::round_robin_300ms();
    let h = 25.0_f64;
    let road_frames = (300.0_f64 / h).ceil() as u64;
    let mut lane_frames = 0;
    for frame in 0..3 * (road_frames + 2) {
        if scheme.classifiers_for_frame(frame, h).lane {
            lane_frames += 1;
        }
    }
    assert_eq!(lane_frames, 3, "one lane frame per 300 ms window");
}

/// Determinism across the whole stack: identical seeds give identical
/// closed-loop results.
#[test]
fn end_to_end_determinism() {
    let run = || {
        let track = Track::for_situation(&TABLE3_SITUATIONS[7], 150.0);
        let config = HilConfig::new(Case::Case4, SituationSource::Oracle)
            .with_camera(test_camera())
            .with_seed(77);
        HilSimulator::new(track, config).run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.overall_mae(), b.overall_mae());
    assert_eq!(a.samples, b.samples);
    assert_eq!(a.reconfigurations, b.reconfigurations);
}

/// Peak signal-to-noise ratio in dB between two unit-range RGB frames of
/// equal size; `f64::INFINITY` for identical frames.
fn psnr_rgb(a: &RgbImage, b: &RgbImage) -> f64 {
    assert_eq!((a.width(), a.height()), (b.width(), b.height()), "PSNR needs equal sizes");
    let sum: f64 = a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| {
            let d = (*x - *y) as f64;
            d * d
        })
        .sum();
    let mse = sum / a.as_slice().len() as f64;
    if mse == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (1.0 / mse).log10()
    }
}

/// ISP approximation quality ordering is visible through PSNR: the exact
/// pipeline is closest to itself, approximations add measurable error.
#[test]
fn isp_approximation_error_is_measurable() {
    let cam = test_camera();
    let track = Track::for_situation(&TABLE3_SITUATIONS[0], 500.0);
    let frame = SceneRenderer::new(cam).render(&track, 60.0, 0.0, 0.0);
    let raw = Sensor::new(SensorConfig::default(), 3).capture(&frame, 1.0);
    let reference = IspPipeline::new(IspConfig::S0).process(&raw);
    let mut worse_than_reference = 0;
    for cfg in [IspConfig::S3, IspConfig::S5, IspConfig::S6, IspConfig::S7, IspConfig::S8] {
        let approx = IspPipeline::new(cfg).process(&raw);
        let psnr = psnr_rgb(&reference, &approx);
        assert!(psnr.is_finite(), "{cfg} output must differ from S0");
        if psnr < 40.0 {
            worse_than_reference += 1;
        }
    }
    assert!(worse_than_reference >= 3, "approximations must cost image quality");
}
