//! Frame-path throughput: allocating vs pooled, scalar vs lane kernels.
//!
//! Measures the steady-state cost of each ISP configuration (S0–S8)
//! along two axes — the memory path (one-shot allocating `process`,
//! pooled in-place `process_into`, row-tiled `process_into` on worker
//! threads) and the kernel backend (`scalar` reference, bit-exact
//! `lanes`) — plus the perception pipeline
//! (rectify + binarize) per backend. This is the harness behind the
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
//! regressions, not scheduler noise on a busy CI box).

use lkas_bench::{arg_value, render_table, write_result};
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

#[derive(Serialize, Deserialize)]
struct Report {
    schema: String,
    iters: usize,
    tile_threads: usize,
    isp: Vec<ConfigRow>,
    perception: Vec<PerceptionRow>,
}

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

    Report {
        schema: "lkas-isp-throughput-v2".to_string(),
        iters,
        tile_threads,
        isp: rows,
        perception,
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
    if failures > 0 {
        eprintln!("[check] {failures} bound violation(s) against {baseline_path}");
        1
    } else {
        eprintln!("[check] all means within {max_rel}× of {baseline_path}");
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
