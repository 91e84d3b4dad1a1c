//! Fig. 6 — static per-situation robustness and QoC.
//!
//! Runs Cases 1–4 on each of the 21 Table III situations separately
//! (single-sector tracks) and reports the MAE per (situation, case),
//! normalized to Case 3 — the paper's presentation. Crashed runs are
//! reported as `FAIL`, reproducing the robustness half of the figure.
//!
//! By default the situation source is the trained classifier bundle
//! (cached by `table4_classifiers`, or trained on the fly at quick
//! scale); `--oracle` uses ground-truth situation decisions. Pass
//! `--characterized` to use the regenerated Table III from
//! `table3_characterization` instead of the paper's tunings.
//!
//! Usage: `cargo run --release -p lkas-bench --bin fig6_static [--oracle] [--characterized]`

use lkas::cases::Case;
use lkas::hil::{HilConfig, HilSimulator, SituationSource};
use lkas::knobs::KnobTable;
use lkas::TABLE3_SITUATIONS;
use lkas_bench::{
    arg_value, default_threads, load_or_train_bundle, oracle_flag, render_table, write_metrics,
    write_result, Executor, Metrics, ARTIFACTS_DIR,
};
use lkas_scene::camera::Camera;
use lkas_scene::track::Track;
use serde::Serialize;
use std::sync::Arc;

const CASES: [Case; 4] = [Case::Case1, Case::Case2, Case::Case3, Case::Case4];

#[derive(Serialize)]
struct SituationRow {
    situation: usize,
    description: String,
    mae: [Option<f64>; 4],
    normalized_to_case3: [Option<f64>; 4],
    crashed: [bool; 4],
}

fn main() {
    let source = if oracle_flag() {
        SituationSource::Oracle
    } else {
        SituationSource::Trained(load_or_train_bundle())
    };
    let knob_table = load_knob_table();
    let threads =
        arg_value("--threads").and_then(|v| v.parse().ok()).unwrap_or_else(default_threads);
    let track_length: f64 = arg_value("--length").and_then(|v| v.parse().ok()).unwrap_or(250.0);
    // On single-core machines `--half-res` quarters the per-frame cost;
    // the case orderings are unchanged (see EXPERIMENTS.md).
    let camera = if std::env::args().any(|a| a == "--half-res") {
        Camera::new(256, 128, 150.0, 1.3, 6.0_f64.to_radians())
    } else {
        Camera::default_automotive()
    };

    let metrics = Arc::new(Metrics::new());
    let mut jobs = Vec::new();
    for (si, situation) in TABLE3_SITUATIONS.iter().enumerate() {
        for case in CASES {
            let config = HilConfig::new(case, source.clone())
                .with_seed(1000 + si as u64)
                .with_knob_table(knob_table.clone())
                .with_camera(camera.clone())
                .with_metrics(Arc::clone(&metrics));
            let label = format!("situation {} / {}", si + 1, case);
            jobs.push((jobs.len(), label, Track::for_situation(situation, track_length), config));
        }
    }
    let total = jobs.len();
    let results = Executor::new(threads).run(jobs, |(i, label, track, config)| {
        eprintln!("[run {}/{total}] {label}", i + 1);
        HilSimulator::new(track, config).run()
    });

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for (si, situation) in TABLE3_SITUATIONS.iter().enumerate() {
        let slice = &results[si * CASES.len()..(si + 1) * CASES.len()];
        let mae: Vec<Option<f64>> =
            slice.iter().map(|r| if r.crashed { None } else { r.overall_mae() }).collect();
        let case3 = mae[2];
        let norm: Vec<Option<f64>> = mae
            .iter()
            .map(|m| match (m, case3) {
                (Some(v), Some(base)) if base > 0.0 => Some(v / base),
                _ => None,
            })
            .collect();
        let cell = |i: usize| match (mae[i], norm[i]) {
            (Some(_), Some(n)) => format!("{n:.2}"),
            (Some(v), None) => format!("{v:.3}m"),
            _ => "FAIL".to_string(),
        };
        rows.push(vec![
            format!("{}", si + 1),
            situation.describe(),
            cell(0),
            cell(1),
            cell(2),
            cell(3),
        ]);
        json_rows.push(SituationRow {
            situation: si + 1,
            description: situation.describe(),
            mae: [mae[0], mae[1], mae[2], mae[3]],
            normalized_to_case3: [norm[0], norm[1], norm[2], norm[3]],
            crashed: [slice[0].crashed, slice[1].crashed, slice[2].crashed, slice[3].crashed],
        });
    }
    println!("Fig. 6 — static per-situation MAE normalized to Case 3 (FAIL = lane departure)");
    println!(
        "{}",
        render_table(&["#", "situation", "case 1", "case 2", "case 3", "case 4"], &rows)
    );

    // Paper-shape summary: which situations fail per case.
    for (ci, case) in CASES.iter().enumerate() {
        let fails: Vec<String> =
            json_rows.iter().filter(|r| r.crashed[ci]).map(|r| r.situation.to_string()).collect();
        println!(
            "{case}: {} failures{}",
            fails.len(),
            if fails.is_empty() {
                String::new()
            } else {
                format!(" (situations {})", fails.join(", "))
            }
        );
    }
    let better = json_rows
        .iter()
        .filter(|r| matches!((r.mae[3], r.mae[2]), (Some(a), Some(b)) if a < b))
        .count();
    let comparable = json_rows.iter().filter(|r| r.mae[3].is_some() && r.mae[2].is_some()).count();
    println!("case 4 beats case 3 in {better}/{comparable} comparable situations (paper: all but situation 15)");
    write_result("fig6_static", &json_rows);
    write_metrics("fig6_static", &metrics);
}

fn load_knob_table() -> KnobTable {
    if std::env::args().any(|a| a == "--characterized") {
        let path = std::path::Path::new(ARTIFACTS_DIR).join("table3.json");
        let json = std::fs::read_to_string(&path)
            .expect("run table3_characterization first to produce artifacts/table3.json");
        serde_json::from_str(&json).expect("parse regenerated Table III")
    } else {
        KnobTable::paper_table3()
    }
}
