//! Frame-path throughput: allocating vs pooled, scalar vs lane kernels.
//!
//! Measures the steady-state cost of each ISP configuration (S0–S8)
//! along two axes — the memory path (one-shot allocating `process`,
//! pooled in-place `process_into`, row-tiled `process_into` on worker
//! threads) and the kernel backend (`scalar` reference, bit-exact
//! `lanes`) — plus the perception pipeline
//! (rectify + binarize) per backend, and the renderer and feature
//! extractor against their per-pixel references
//! (`lkas_bench::reference`), interleaved round by round in this one
//! process on the 256×128 camera. This is the harness behind the
//! README "Steady-state frame path" table and DESIGN.md §10/§17.
//!
//! Flags: `--iters N` (timed iterations per cell, default 40),
//! `--threads N` (tiled-path worker count, default 4).
//!
//! Subcommand: `isp_throughput check --baseline PATH [--max-rel X]`
//! re-measures and fails (exit 1) if any pooled-lanes ISP mean or the
//! pooled perception mean exceeds `X` times its baseline value
//! (default 4.0 — a deliberately generous bound in the gate-telemetry
//! philosophy: the gate exists to catch order-of-magnitude perf
//! regressions, not scheduler noise on a busy CI box). It also fails
//! when the render or the feature-extraction speedup over its reference
//! falls below 0.75× the baseline's: a ratio measured in one process
//! cancels the host's speed, so that bound can be tight.

use lkas_bench::{arg_value, reference, render_table, write_result};
use lkas_imaging::image::{PixelWindow, RgbImage};
use lkas_imaging::isp::{IspConfig, IspPipeline};
use lkas_imaging::sensor::{Sensor, SensorConfig};
use lkas_imaging::{KernelBackend, Scratch};
use lkas_nn::features::{extract_into, FeatureScratch};
use lkas_perception::pipeline::{Perception, PerceptionConfig, PerceptionScratch};
use lkas_perception::roi::Roi;
use lkas_scene::camera::Camera;
use lkas_scene::render::SceneRenderer;
use lkas_scene::situation::TABLE3_SITUATIONS;
use lkas_scene::track::Track;
use serde::{Deserialize, Serialize};
use std::time::Instant;

#[derive(Serialize, Deserialize)]
struct ConfigRow {
    config: String,
    alloc_us: f64,
    scalar_us: f64,
    lanes_us: f64,
    tiled_us: f64,
    lanes_speedup: f64,
}

#[derive(Serialize, Deserialize)]
struct PerceptionRow {
    backend: String,
    pooled_us: f64,
}

/// A library stage timed against its per-pixel reference.
#[derive(Serialize, Deserialize)]
struct FastPathRow {
    /// `render` or `extract`.
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

/// Mean microseconds per call of `f` over `iters` timed iterations
/// (after 3 warm-up calls that also size any pooled buffers).
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

/// Render and feature extraction against their per-pixel references on
/// the 256×128 camera, over poses in each sector of the Fig. 7 track.
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
    [("render", ref_render, lib_render), ("extract", ref_extract, lib_extract)]
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
        let mut backend_us = [0.0f64; 2];
        for (i, backend) in KernelBackend::ALL.into_iter().enumerate() {
            let isp = IspPipeline::new(cfg).with_backend(backend);
            let mut scratch = Scratch::new();
            let mut out = RgbImage::new(2, 2);
            backend_us[i] = time_us(iters, || {
                isp.process_into(&raw, &mut scratch, &mut out);
                std::hint::black_box(&out);
            });
        }
        let [scalar_us, lanes_us] = backend_us;
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

    let rgb = IspPipeline::new(IspConfig::S0).process(&raw);
    let mut perception = Vec::new();
    for backend in KernelBackend::ALL {
        let pr =
            Perception::new(PerceptionConfig::new(Roi::Roi1), cam.clone()).with_backend(backend);
        let mut pscratch = PerceptionScratch::new();
        let pooled_us = time_us(iters, || {
            std::hint::black_box(pr.process_into(&rgb, &mut pscratch).ok());
        });
        perception.push(PerceptionRow { backend: backend.name().to_string(), pooled_us });
    }

    println!(
        "{}",
        render_table(&["config", "alloc µs", "scalar µs", "lanes µs", "tiled µs", "lanes"], &table,)
    );
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

    Report {
        schema: "lkas-isp-throughput-v2".to_string(),
        iters,
        tile_threads,
        isp: rows,
        perception,
        fast_paths,
    }
}

/// `check` subcommand: compare a fresh measurement against a recorded
/// baseline, allowing each tracked mean to grow by at most `max_rel`×.
fn check(report: &Report, baseline_path: &str, max_rel: f64) -> i32 {
    let text = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("cannot read baseline {baseline_path}: {e}"));
    let baseline: Report =
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("bad baseline JSON: {e}"));
    let mut failures = 0;
    for base in &baseline.isp {
        let Some(cur) = report.isp.iter().find(|r| r.config == base.config) else {
            eprintln!("[check] FAIL: config {} missing from fresh report", base.config);
            failures += 1;
            continue;
        };
        let bound = base.lanes_us * max_rel;
        if cur.lanes_us > bound {
            eprintln!(
                "[check] FAIL: {} lanes {:.0} µs > {:.0} µs ({}× baseline {:.0} µs)",
                base.config, cur.lanes_us, bound, max_rel, base.lanes_us
            );
            failures += 1;
        } else {
            eprintln!("[check] ok: {} lanes {:.0} µs ≤ {:.0} µs", base.config, cur.lanes_us, bound);
        }
    }
    for base in &baseline.perception {
        let Some(cur) = report.perception.iter().find(|r| r.backend == base.backend) else {
            eprintln!("[check] FAIL: perception backend {} missing", base.backend);
            failures += 1;
            continue;
        };
        let bound = base.pooled_us * max_rel;
        if cur.pooled_us > bound {
            eprintln!(
                "[check] FAIL: perception[{}] {:.0} µs > {:.0} µs",
                base.backend, cur.pooled_us, bound
            );
            failures += 1;
        } else {
            eprintln!(
                "[check] ok: perception[{}] {:.0} µs ≤ {:.0} µs",
                base.backend, cur.pooled_us, bound
            );
        }
    }
    for base in &baseline.fast_paths {
        let Some(cur) = report.fast_paths.iter().find(|r| r.stage == base.stage) else {
            eprintln!("[check] FAIL: fast path {} missing", base.stage);
            failures += 1;
            continue;
        };
        let floor = base.speedup * MIN_SPEEDUP_KEPT;
        if cur.speedup < floor {
            eprintln!(
                "[check] FAIL: {} speedup {:.2}x < {:.2}x ({MIN_SPEEDUP_KEPT}× baseline {:.2}x)",
                base.stage, cur.speedup, floor, base.speedup
            );
            failures += 1;
        } else {
            eprintln!("[check] ok: {} speedup {:.2}x ≥ {:.2}x", base.stage, cur.speedup, floor);
        }
    }
    if failures > 0 {
        eprintln!("[check] {failures} bound violation(s) against {baseline_path}");
        1
    } else {
        eprintln!(
            "[check] all means within {max_rel}× and all speedups above {MIN_SPEEDUP_KEPT}× of \
             {baseline_path}"
        );
        0
    }
}

fn main() {
    let iters: usize = arg_value("--iters").and_then(|v| v.parse().ok()).unwrap_or(40);
    let tile_threads: usize = arg_value("--threads").and_then(|v| v.parse().ok()).unwrap_or(4);
    let check_mode = std::env::args().nth(1).is_some_and(|a| a == "check");

    eprintln!("[isp_throughput] {iters} iters/cell, tiled path on {tile_threads} threads");
    let report = measure(iters, tile_threads);

    if check_mode {
        let baseline = arg_value("--baseline").expect("check requires --baseline PATH");
        let max_rel: f64 = arg_value("--max-rel").and_then(|v| v.parse().ok()).unwrap_or(4.0);
        std::process::exit(check(&report, &baseline, max_rel));
    }
    write_result("isp_throughput", &report);
}
