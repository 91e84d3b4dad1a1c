//! Frame-path throughput: allocating vs in-place, scalar vs lane kernels.
//!
//! Measures the steady-state cost of each ISP configuration (S0–S8)
//! along two axes — the memory path (one-shot allocating `process`,
//! in-place `process_into` with a reused scratch, row-tiled
//! `process_into` on worker threads) and the kernel backend (`scalar`
//! reference, bit-exact `lanes`) — plus demosaic alone and the
//! perception pipeline (rectify + binarize + search) per backend, and
//! the renderer, the feature extractor, lane rectification and
//! perception's binarize + sliding-window search against their
//! references (`lkas_bench::reference`, or the scalar backend for
//! rectify) on the 256×128 camera. Every scalar/lanes and
//! reference/library pair is timed in alternating rounds in this one
//! process, and each side reports its median round. This is the harness
//! behind the README "Steady-state frame path" table and DESIGN.md
//! §10/§17.
//!
//! Flags: `--iters N` (timed iterations or rounds per cell, default
//! 40), `--threads N` (tiled-path worker count, default 4).
//!
//! Subcommand: `isp_throughput check --baseline PATH [--max-rel X]`
//! re-measures and fails (exit 1) when a speedup measured in this one
//! process falls below 0.75× its baseline value: each config's
//! lanes-over-scalar ISP speedup, perception's lanes-over-scalar
//! speedup, and the render, feature-extraction, rectify and binarize +
//! search speedups over their references. A ratio cancels the host's
//! speed, so that bound can be tight. As a backstop it also fails if
//! any pooled-lanes ISP median or pooled perception median exceeds `X`
//! times its baseline value (default 4.0: order-of-magnitude
//! regressions, not scheduler noise), and it refuses a baseline of
//! another schema (one recorded with means, say).

use lkas_bench::{fail, reference, render_table, write_result, Args};
use lkas_imaging::image::{PixelWindow, RgbImage};
use lkas_imaging::isp::{demosaic_into_with, IspConfig, IspPipeline};
use lkas_imaging::sensor::{Sensor, SensorConfig};
use lkas_imaging::{KernelBackend, Scratch};
use lkas_nn::features::{extract_into, FeatureScratch};
use lkas_perception::bev::{BevImage, BirdsEye, RectifyTaps};
use lkas_perception::pipeline::{Perception, PerceptionConfig, PerceptionScratch};
use lkas_perception::roi::Roi;
use lkas_perception::sliding::{sliding_window_search_with, SlidingScratch};
use lkas_perception::threshold::{binarize_into_with, BinaryMask};
use lkas_scene::camera::Camera;
use lkas_scene::render::SceneRenderer;
use lkas_scene::situation::TABLE3_SITUATIONS;
use lkas_scene::track::Track;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One ISP configuration: mean µs per call of the allocating and the
/// tiled path, median µs per call of the scalar and the lanes backend.
#[derive(Serialize, Deserialize)]
struct ConfigRow {
    config: String,
    alloc_us: f64,
    scalar_us: f64,
    lanes_us: f64,
    tiled_us: f64,
    lanes_speedup: f64,
}

/// Perception on one backend: median µs per pooled call.
#[derive(Serialize, Deserialize)]
struct PerceptionRow {
    backend: String,
    pooled_us: f64,
}

/// A library stage timed against its reference.
#[derive(Serialize, Deserialize)]
struct FastPathRow {
    /// `render`, `extract`, `binarize+search` or `rectify`.
    stage: String,
    /// Median µs per call of the reference.
    reference_us: f64,
    /// Median µs per call of the library.
    library_us: f64,
    /// `reference_us / library_us`.
    speedup: f64,
}

#[derive(Serialize, Deserialize)]
struct Report {
    schema: String,
    iters: usize,
    tile_threads: usize,
    isp: Vec<ConfigRow>,
    perception: Vec<PerceptionRow>,
    fast_paths: Vec<FastPathRow>,
}

/// The fraction of its baseline speedup a fast path must keep.
const MIN_SPEEDUP_KEPT: f64 = 0.75;

/// The report schema. v3 times every backend and reference pair as
/// medians of alternating rounds; v2 baselines hold block means.
const SCHEMA: &str = "lkas-isp-throughput-v3";

/// Mean microseconds per call of `f` over `iters` timed iterations
/// (after 3 warm-up calls that also size any reused buffers).
fn time_us(iters: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..3 {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() * 1e6 / iters as f64
}

/// Median µs per call of `reference` and of `library`, timed in
/// alternating rounds of `calls` calls each after 3 warm-up rounds.
fn time_pair(
    iters: usize,
    calls: usize,
    mut reference: impl FnMut(usize),
    mut library: impl FnMut(usize),
) -> (f64, f64) {
    let round = |f: &mut dyn FnMut(usize)| {
        let start = Instant::now();
        for i in 0..calls {
            f(i);
        }
        start.elapsed().as_secs_f64() * 1e6 / calls as f64
    };
    for _ in 0..3 {
        round(&mut reference);
        round(&mut library);
    }
    let (mut slow, mut fast) = (Vec::with_capacity(iters), Vec::with_capacity(iters));
    for _ in 0..iters {
        slow.push(round(&mut reference));
        fast.push(round(&mut library));
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    (median(&mut slow), median(&mut fast))
}

/// Render, feature extraction, binarize + sliding-window search and
/// lane rectification against their references on the 256×128 camera,
/// over poses in each sector of the Fig. 7 track (the search and
/// rectify on each pose's five ROIs).
fn measure_fast_paths(iters: usize) -> Vec<FastPathRow> {
    let cam = Camera::new(256, 128, 150.0, 1.3, 6.0_f64.to_radians());
    let track = Track::fig7_track();
    let poses: Vec<(f64, f64, f64)> =
        (0..track.sectors().len()).map(|k| (track.sector_start(k) + 40.0, 0.1, 0.01)).collect();
    let renderer = SceneRenderer::new(cam.clone());
    let full = PixelWindow::full(cam.width(), cam.height());
    let (mut ref_frame, mut frame) = (RgbImage::new(2, 2), RgbImage::new(2, 2));
    let (ref_render, lib_render) = time_pair(
        iters,
        poses.len(),
        |i| {
            let (s, d, psi) = poses[i];
            reference::render_window(&cam, &track, s, d, psi, full, &mut ref_frame);
            std::hint::black_box(&ref_frame);
        },
        |i| {
            let (s, d, psi) = poses[i];
            renderer.render_into(&track, s, d, psi, &mut frame).expect("valid camera");
            std::hint::black_box(&frame);
        },
    );
    let isp = IspPipeline::new(IspConfig::S0);
    let frames: Vec<RgbImage> = poses
        .iter()
        .enumerate()
        .map(|(i, &(s, d, psi))| {
            let scene = renderer.render(&track, s, d, psi);
            isp.process(&Sensor::new(SensorConfig::default(), 60 + i as u64).capture(&scene, 1.0))
        })
        .collect();
    let mut scratch = FeatureScratch::new();
    let mut features = Vec::new();
    let (ref_extract, lib_extract) = time_pair(
        iters,
        frames.len(),
        |i| {
            std::hint::black_box(reference::extract(&frames[i], &cam));
        },
        |i| {
            extract_into(&frames[i], &cam, &mut scratch, &mut features);
            std::hint::black_box(&features);
        },
    );
    let birds_eyes = Roi::ALL.map(|roi| BirdsEye::new(cam.clone(), roi).expect("built-in ROI"));
    let grids: Vec<BevImage> =
        frames.iter().flat_map(|rgb| birds_eyes.iter().map(|be| be.rectify(rgb))).collect();
    // Grid `i` is ROI `i % 5` of frame `i / 5`; one tap table per ROI, so
    // no call rebuilds one.
    let rois = birds_eyes.len();
    let (mut ref_bev, mut lib_bev) = (BevImage::empty(), BevImage::empty());
    let mut taps = Roi::ALL.map(|_| RectifyTaps::empty());
    let (ref_rectify, lib_rectify) = time_pair(
        iters,
        grids.len(),
        |i| {
            let (rgb, be) = (&frames[i / rois], &birds_eyes[i % rois]);
            be.rectify_into(rgb, &mut ref_bev);
            std::hint::black_box(&ref_bev);
        },
        |i| {
            let (rgb, be) = (&frames[i / rois], &birds_eyes[i % rois]);
            be.rectify_into_with(rgb, &mut lib_bev, KernelBackend::Lanes, &mut taps[i % rois]);
            std::hint::black_box(&lib_bev);
        },
    );
    let (mut ref_mask, mut ref_search) = (reference::Mask::default(), Default::default());
    let (mut mask, mut sliding) = (BinaryMask::empty(), SlidingScratch::new());
    let (ref_search_us, lib_search_us) = time_pair(
        iters,
        grids.len(),
        |i| {
            reference::binarize_into(&grids[i], &mut ref_mask);
            let fits = reference::sliding_window_search_with(&grids[i], &ref_mask, &mut ref_search);
            std::hint::black_box(fits);
        },
        |i| {
            binarize_into_with(&grids[i], &mut mask, KernelBackend::default());
            std::hint::black_box(sliding_window_search_with(&grids[i], &mask, &mut sliding));
        },
    );
    [
        ("render", ref_render, lib_render),
        ("extract", ref_extract, lib_extract),
        ("binarize+search", ref_search_us, lib_search_us),
        ("rectify", ref_rectify, lib_rectify),
    ]
    .into_iter()
    .map(|(stage, reference_us, library_us)| FastPathRow {
        stage: stage.to_string(),
        reference_us,
        library_us,
        speedup: reference_us / library_us,
    })
    .collect()
}

fn measure(iters: usize, tile_threads: usize) -> Report {
    let cam = Camera::default_automotive();
    let track = Track::for_situation(&TABLE3_SITUATIONS[0], 500.0);
    let frame = SceneRenderer::new(cam.clone()).render(&track, 50.0, 0.0, 0.0);
    let raw = Sensor::new(SensorConfig::default(), 1).capture(&frame, 1.0);

    let mut rows = Vec::new();
    let mut table = Vec::new();
    for cfg in IspConfig::ALL {
        let alloc_us = time_us(iters, || {
            std::hint::black_box(IspPipeline::new(cfg).process(&raw));
        });
        let [scalar, lanes] = KernelBackend::ALL.map(|b| IspPipeline::new(cfg).with_backend(b));
        let (mut scalar_scratch, mut lanes_scratch) = (Scratch::new(), Scratch::new());
        let (mut scalar_out, mut lanes_out) = (RgbImage::new(2, 2), RgbImage::new(2, 2));
        let (scalar_us, lanes_us) = time_pair(
            iters,
            1,
            |_| {
                scalar.process_into(&raw, &mut scalar_scratch, &mut scalar_out);
                std::hint::black_box(&scalar_out);
            },
            |_| {
                lanes.process_into(&raw, &mut lanes_scratch, &mut lanes_out);
                std::hint::black_box(&lanes_out);
            },
        );
        let isp = IspPipeline::new(cfg);
        let mut tiled_scratch = Scratch::with_threads(tile_threads);
        let mut out = RgbImage::new(2, 2);
        let tiled_us = time_us(iters, || {
            isp.process_into(&raw, &mut tiled_scratch, &mut out);
            std::hint::black_box(&out);
        });
        let row = ConfigRow {
            config: cfg.name().to_string(),
            alloc_us,
            scalar_us,
            lanes_us,
            tiled_us,
            lanes_speedup: scalar_us / lanes_us,
        };
        table.push(vec![
            row.config.clone(),
            format!("{alloc_us:.0}"),
            format!("{scalar_us:.0}"),
            format!("{lanes_us:.0}"),
            format!("{tiled_us:.0}"),
            format!("{:.2}x", row.lanes_speedup),
        ]);
        rows.push(row);
    }

    let demosaic_us = KernelBackend::ALL.map(|backend| {
        let mut scratch = Scratch::new();
        let mut out = RgbImage::new(2, 2);
        time_us(iters, || {
            demosaic_into_with(&raw, &mut scratch, &mut out, backend);
            std::hint::black_box(&out);
        })
    });

    let rgb = IspPipeline::new(IspConfig::S0).process(&raw);
    let [scalar_pr, lanes_pr] = KernelBackend::ALL
        .map(|b| Perception::new(PerceptionConfig::new(Roi::Roi1), cam.clone()).with_backend(b));
    let (mut scalar_scratch, mut lanes_scratch) =
        (PerceptionScratch::new(), PerceptionScratch::new());
    let (scalar_us, lanes_us) = time_pair(
        iters,
        1,
        |_| {
            std::hint::black_box(scalar_pr.process_into(&rgb, &mut scalar_scratch).ok());
        },
        |_| {
            std::hint::black_box(lanes_pr.process_into(&rgb, &mut lanes_scratch).ok());
        },
    );
    let perception: Vec<PerceptionRow> = KernelBackend::ALL
        .into_iter()
        .zip([scalar_us, lanes_us])
        .map(|(b, pooled_us)| PerceptionRow { backend: b.name().to_string(), pooled_us })
        .collect();

    println!(
        "{}",
        render_table(&["config", "alloc µs", "scalar µs", "lanes µs", "tiled µs", "lanes"], &table,)
    );
    let [dm_scalar, dm_lanes] = demosaic_us;
    println!("demosaic: scalar {dm_scalar:.0} µs, lanes {dm_lanes:.0} µs");
    for p in &perception {
        println!("perception[{}]: pooled {:.0} µs", p.backend, p.pooled_us);
    }
    let fast_paths = measure_fast_paths(iters);
    for f in &fast_paths {
        println!(
            "{}[256x128]: reference {:.0} µs, library {:.0} µs, {:.2}x",
            f.stage, f.reference_us, f.library_us, f.speedup
        );
    }

    Report { schema: SCHEMA.to_string(), iters, tile_threads, isp: rows, perception, fast_paths }
}

/// What `check` compares, by name: each pooled-lanes ISP median and
/// pooled perception median (µs), and each speedup measured in
/// alternating rounds in this one process — a config's and perception's
/// lanes over scalar, a fast path's library over its reference.
type Gauges = Vec<(String, f64)>;

fn gauges(report: &Report) -> (Gauges, Gauges) {
    let (mut means, mut speedups) = (Vec::new(), Vec::new());
    for r in &report.isp {
        means.push((format!("{} lanes µs", r.config), r.lanes_us));
        speedups.push((format!("{} lanes speedup", r.config), r.scalar_us / r.lanes_us));
    }
    let pooled = |b: &str| report.perception.iter().find(|p| p.backend == b).map(|p| p.pooled_us);
    for p in &report.perception {
        means.push((format!("perception[{}] µs", p.backend), p.pooled_us));
    }
    if let (Some(scalar), Some(lanes)) = (pooled("scalar"), pooled("lanes")) {
        speedups.push(("perception lanes speedup".to_string(), scalar / lanes));
    }
    for f in &report.fast_paths {
        speedups.push((format!("{} speedup", f.stage), f.reference_us / f.library_us));
    }
    (means, speedups)
}

/// `check` subcommand: compare a fresh measurement against a recorded
/// baseline, allowing each median µs to grow to `max_rel`× its baseline
/// and each speedup to fall to [`MIN_SPEEDUP_KEPT`]× its baseline.
/// Returns the number of violated bounds; a baseline of another schema
/// is one violation, compared no further.
fn check(report: &Report, baseline: &Report, max_rel: f64) -> usize {
    if baseline.schema != report.schema {
        eprintln!(
            "[check] FAIL: baseline schema {} is not {}; re-record it",
            baseline.schema, report.schema
        );
        return 1;
    }
    let ((means, speedups), (base_means, base_speedups)) = (gauges(report), gauges(baseline));
    let mut failures = 0;
    let mut verdict = |name: &str, current: &Gauges, bound: f64, ceiling: bool| {
        let cur = current.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
        let ok = cur.is_some_and(|c| if ceiling { c <= bound } else { c >= bound });
        let relation = if ceiling { "≤" } else { "≥" };
        let verdict = if ok { "ok" } else { "FAIL" };
        eprintln!("[check] {verdict}: {name} {cur:.2?} must be {relation} {bound:.2}");
        failures += usize::from(!ok);
    };
    for (name, base) in &base_means {
        verdict(name, &means, base * max_rel, true);
    }
    for (name, base) in &base_speedups {
        verdict(name, &speedups, base * MIN_SPEEDUP_KEPT, false);
    }
    failures
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&argv, "--iters --threads --baseline --max-rel", "", true);
    let check_mode = match args.positional.as_slice() {
        [] => false,
        [command] if command == "check" => true,
        _ => fail("expected no subcommand or `check`"),
    };
    let iters: usize = args.parsed("--iters").unwrap_or(40);
    let tile_threads: usize = args.parsed("--threads").unwrap_or(4);
    let baseline_path = args.value("--baseline");
    let max_rel: f64 = args.parsed("--max-rel").unwrap_or(4.0);
    if check_mode != baseline_path.is_some() {
        fail("`check` and --baseline PATH go together");
    }

    eprintln!("[isp_throughput] {iters} iters/cell, tiled path on {tile_threads} threads");
    let report = measure(iters, tile_threads);
    let Some(path) = baseline_path else {
        write_result("isp_throughput", &report);
        return;
    };
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read baseline {path}: {e}")));
    let baseline: Report =
        serde_json::from_str(&text).unwrap_or_else(|e| fail(&format!("bad baseline JSON: {e}")));
    let failures = check(&report, &baseline, max_rel);
    if failures > 0 {
        eprintln!("[check] {failures} bound violation(s) against {path}");
        std::process::exit(1);
    }
    eprintln!(
        "[check] all medians within {max_rel}× and all speedups above {MIN_SPEEDUP_KEPT}× of {path}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline() -> Report {
        serde_json::from_str(include_str!("../../../../BENCH_isp_baseline.json")).unwrap()
    }

    #[test]
    fn check_fails_when_one_config_loses_a_third_of_its_lanes_speed() {
        assert_eq!(check(&baseline(), &baseline(), 4.0), 0, "the baseline passes itself");
        let mut slowed = baseline();
        slowed.isp[4].lanes_us *= 1.5;
        assert_eq!(check(&slowed, &baseline(), 4.0), 1, "only the S4 ratio falls");
    }

    #[test]
    fn check_fails_when_binarize_and_search_lose_a_third_of_their_speed() {
        let mut slowed = baseline();
        let row = slowed.fast_paths.iter_mut().find(|f| f.stage == "binarize+search");
        row.expect("the baseline has a binarize+search row").library_us *= 1.5;
        assert_eq!(check(&slowed, &baseline(), 4.0), 1, "only the search ratio falls");
    }

    #[test]
    fn check_fails_when_rectify_loses_a_third_of_its_speed() {
        let mut slowed = baseline();
        let row = slowed.fast_paths.iter_mut().find(|f| f.stage == "rectify");
        row.expect("the baseline has a rectify row").library_us *= 1.5;
        assert_eq!(check(&slowed, &baseline(), 4.0), 1, "only the rectify ratio falls");
    }

    #[test]
    fn check_refuses_a_baseline_of_another_schema() {
        let mut means = baseline();
        means.schema = "lkas-isp-throughput-v2".to_string();
        assert_eq!(check(&baseline(), &means, 4.0), 1);
    }
}
