//! Fig. 7 + Fig. 8 — dynamic switching on the nine-sector track.
//!
//! Drives all five designs (Cases 1–4 and the variable-invocation
//! scheme of Sec. IV-E) around the Fig. 7 world and reports per-sector
//! MAE normalized to Case 3, crash locations, and the average QoC
//! relations the paper quotes:
//!
//! * Case 3 performs worse than Cases 1 / 2 on the sectors all complete
//!   (paper: −55 % / −22 %),
//! * Case 4 improves ≈30 % over Case 3,
//! * the variable scheme improves ≈32 % / ≈3 % over Cases 3 / 4, except
//!   in the left-turn sectors 4 & 6.
//!
//! Also prints the switched-stability certification (CQLF per mode
//! family + dwell bound across families, Sec. III-D).
//!
//! Usage: `cargo run --release -p lkas-bench --bin fig8_dynamic [--oracle] [--characterized] [--seeds N]`

use lkas::cases::Case;
use lkas::hil::{HilConfig, HilSimulator, SituationSource};
use lkas::knobs::KnobTable;
use lkas::stability::{certify_switching, minimum_dwell_intervals};
use lkas_bench::{
    arg_value, default_threads, load_or_train_bundle, oracle_flag, render_table, trace_out_path,
    write_metrics, write_result, write_trace, Executor, Metrics, TraceRecorder, ARTIFACTS_DIR,
};
use lkas_platform::schedule::ClassifierSet;
use lkas_scene::track::Track;
use serde::Serialize;
use std::sync::Arc;

#[derive(Serialize)]
struct CaseResult {
    case: String,
    crashed: bool,
    crash_sector: Option<usize>,
    sector_mae: Vec<Option<f64>>,
    mae_completed: Option<f64>,
    perception_failures: u64,
    misidentifications: u64,
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
    let seeds: u64 = arg_value("--seeds").and_then(|v| v.parse().ok()).unwrap_or(1);

    let metrics = Arc::new(Metrics::new());
    let trace_out = trace_out_path();
    let recorder = trace_out.as_ref().map(|_| TraceRecorder::new());
    let mut jobs = Vec::new();
    for seed in 0..seeds {
        for case in Case::ALL {
            let label = format!("{case} (seed {seed})");
            let mut config = HilConfig::new(case, source.clone())
                .with_seed(9 + seed * 7)
                .with_knob_table(knob_table.clone())
                .with_metrics(Arc::clone(&metrics));
            if let Some(rec) = &recorder {
                // pid = stable job index, so the export's process order
                // matches the sweep order whatever the thread count.
                config = config.with_trace_sink(rec.sink(jobs.len() as u64, label.clone()));
            }
            jobs.push((jobs.len(), label, config));
        }
    }
    let total = jobs.len();
    let results = Executor::new(threads).run(jobs, |(i, label, config)| {
        eprintln!("[run {}/{total}] {label}", i + 1);
        HilSimulator::new(Track::fig7_track(), config).run()
    });
    if let (Some(rec), Some(path)) = (&recorder, &trace_out) {
        write_trace(rec, path);
    }

    // Aggregate over seeds: report seed 0 per-sector detail, crash = any.
    let n_cases = Case::ALL.len();
    let mut case_results = Vec::new();
    for (ci, case) in Case::ALL.iter().enumerate() {
        let r = &results[ci]; // seed 0 detail
        let sector_mae: Vec<Option<f64>> = r.qoc.sectors().iter().map(|s| s.mae()).collect();
        case_results.push(CaseResult {
            case: case.name().to_string(),
            crashed: r.crashed,
            crash_sector: r.crash_sector,
            sector_mae,
            mae_completed: r.mae_excluding_crashed(),
            perception_failures: r.perception_failures,
            misidentifications: r.misidentifications,
        });
        if seeds > 1 {
            let crashes =
                (0..seeds).filter(|s| results[(*s as usize) * n_cases + ci].crashed).count();
            eprintln!("{case}: crashed in {crashes}/{seeds} seeds");
        }
    }

    // Per-sector table normalized to Case 3 (index 2).
    let case3 = &case_results[2];
    let mut rows = Vec::new();
    for (ci, cr) in case_results.iter().enumerate() {
        let mut cells = vec![cr.case.clone()];
        for (si, m) in cr.sector_mae.iter().enumerate() {
            let crashed_here = cr.crash_sector == Some(si);
            cells.push(match (m, case3.sector_mae[si]) {
                _ if crashed_here => "CRASH".to_string(),
                (Some(v), Some(base)) if base > 0.0 => format!("{:.2}", v / base),
                (Some(v), _) => format!("{v:.3}m"),
                _ => "-".to_string(),
            });
        }
        cells.push(cr.mae_completed.map(|m| format!("{m:.3}")).unwrap_or_else(|| "-".into()));
        rows.push(cells);
        let _ = ci;
    }
    println!("Fig. 8 — per-sector MAE normalized to Case 3 (seed 0)");
    println!(
        "{}",
        render_table(
            &["case", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "MAE (done)"],
            &rows
        )
    );

    // Average QoC relations on mutually completed sectors.
    let completed = |cr: &CaseResult| -> Vec<usize> {
        (0..9).filter(|&si| cr.sector_mae[si].is_some() && cr.crash_sector != Some(si)).collect()
    };
    let pair_avg = |a: &CaseResult, b: &CaseResult| -> Option<(f64, f64)> {
        let sa = completed(a);
        let sb = completed(b);
        let common: Vec<usize> = sa.into_iter().filter(|s| sb.contains(s)).collect();
        if common.is_empty() {
            return None;
        }
        let avg = |c: &CaseResult| {
            common.iter().map(|&s| c.sector_mae[s].unwrap()).sum::<f64>() / common.len() as f64
        };
        Some((avg(a), avg(b)))
    };
    let describe = |label: &str, i: usize, j: usize, paper: &str| {
        if let Some((a, b)) = pair_avg(&case_results[i], &case_results[j]) {
            let pct = (b - a) / b * 100.0;
            println!("{label}: {pct:+.1}% (ours) vs {paper} (paper) [avg MAE {a:.3} vs {b:.3} on common sectors]");
        } else {
            println!("{label}: not comparable (no common sectors)");
        }
    };
    describe("case 1 vs case 3", 0, 2, "+55 %"); // case 3 worse than case 1
    describe("case 2 vs case 3", 1, 2, "+22 %");
    describe("case 4 vs case 3", 3, 2, "+30 %");
    describe("variable vs case 3", 4, 2, "+32 %");
    describe("variable vs case 4", 4, 3, "+3 %");

    // Switched-stability certification.
    println!("\nSwitched-stability certification (Sec. III-D):");
    let configs: Vec<_> =
        knob_table.iter().map(|(_, t)| t.controller_config(ClassifierSet::all())).collect();
    for (speed, h) in [(50.0, 25.0), (30.0, 25.0), (30.0, 45.0)] {
        let family: Vec<_> =
            configs.iter().cloned().filter(|c| c.speed_kmph == speed && c.h_ms == h).collect();
        if family.is_empty() {
            continue;
        }
        match certify_switching(&family) {
            Some(cert) => {
                println!("  family v={speed} h={h}: CQLF found over {} modes", cert.modes)
            }
            None => println!("  family v={speed} h={h}: no CQLF found"),
        }
    }
    match minimum_dwell_intervals(&configs, 20) {
        Some(k) => {
            println!("  full mode set: dwell-time certificate at {k} common-horizon interval(s)")
        }
        None => println!("  full mode set: no dwell certificate within 20 intervals"),
    }

    write_result("fig8_dynamic", &case_results);
    write_metrics("fig8_dynamic", &metrics);
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
