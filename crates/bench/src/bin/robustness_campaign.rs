//! Robustness campaign — fault-plan grid × evaluation cases, with the
//! graceful-degradation policy off and on.
//!
//! Emits `artifacts/robustness_report.json` (crash rates, MAE
//! degradation, time in degraded mode) and a telemetry artifact with
//! the aggregated fault/degradation counters. The report is a pure
//! function of `(--seed, --quick)`: any `--threads` value produces the
//! identical bytes, and so does any `--shard i/N` split merged back
//! with the `merge` subcommand.
//!
//! Usage:
//! `cargo run --release -p lkas-bench --bin robustness_campaign
//!  [-- --seed 7 --threads 4 --quick --out PATH --metrics-out PATH]`
//!
//! Sharded (each shard writes a mergeable artifact instead of the
//! report; `--checkpoint` + `--resume` let a killed shard pick up where
//! it stopped):
//! `robustness_campaign --quick --shard 0/2 --checkpoint ckpt0.jsonl --resume
//!  --shard-out shard0.json`
//!
//! Merge (validates the shards form one complete partition of the same
//! configuration, then emits the byte-identical report plus the merged
//! telemetry):
//! `robustness_campaign merge shard0.json shard1.json --out PATH
//!  --metrics-out PATH`
//!
//! Drift axis, standalone (one run of the drifted-sensor scenario; the
//! report is purely behavioral so `--knobs static` and `--knobs tuned
//! --epsilon 0` are byte-identical — the CI equivalence gate):
//! `robustness_campaign drift [--seed 7 --quick --knobs static|tuned
//!  --epsilon 0.1 --situation IDX --out PATH --stream-out PATH.jsonl
//!  --metrics-out PATH --flight-out PATH --tile-threads N]`
//! `--situation` picks the Table 3 situation the drifted sensor runs
//! in (default: the campaign's primary drift situation).
//! `--stream-out` captures the per-cycle telemetry stream as JSONL
//! (one `lkas-stream-v1` `CycleDelta` per line; byte-identical across
//! `--tile-threads` values), `--metrics-out` the end-of-run telemetry
//! snapshot (`telemetry_report fold` of the stream reproduces it
//! byte-for-byte), and `--flight-out` arms a flight recorder that
//! dumps its ring if the loop enters degraded mode.
//! `robustness_campaign drift --compare` runs both knob sources and
//! exits non-zero unless the tuned loop strictly improves the MAE.
//!
//! Every subcommand rejects an unknown flag, a missing or unparsable
//! value, and `--resume` without `--checkpoint` with exit status 2
//! before anything runs.

use lkas::hil::HilSimulator;
use lkas_bench::robustness::{
    assemble_report, build_job, config_from_params, drift_report_for, drift_report_json, run_drift,
    write_report, CampaignConfig, CampaignJob, DriftKnobs, RobustnessReport, DRIFT_SITUATIONS,
};
use lkas_bench::{
    default_threads, fail, merge_shards_cli, render_table, run_sharded, write_metrics, Args,
    Metrics, ARTIFACTS_DIR,
};
use lkas_runtime::{FlightRecorder, TelemetryBus, DEFAULT_FLIGHT_CAPACITY};
use std::path::PathBuf;
use std::sync::Arc;

fn report_out_path(args: &Args) -> PathBuf {
    args.value("--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(ARTIFACTS_DIR).join("robustness_report.json"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("merge") {
        merge(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("drift") {
        drift(&args[1..]);
        return;
    }

    let value_flags = "--seed --threads --out --metrics-out --shard --checkpoint --shard-out";
    let args = Args::parse(&args, value_flags, "--quick --resume", false);
    let cfg = CampaignConfig::new(args.parsed("--seed").unwrap_or(7))
        .with_threads(args.parsed("--threads").unwrap_or_else(default_threads))
        .with_quick(args.has("--quick"));
    let metrics = Arc::new(Metrics::new());
    if let Some(entries) = run_sharded(&args, &cfg, "robustness", &metrics) {
        let report = assemble_report(&cfg, entries);
        print_report(&cfg, &report);
        write_report(&report, &report_out_path(&args));
        write_metrics(&args, "robustness_campaign", &metrics);
    }
}

/// `robustness_campaign merge SHARD...`: fold shard artifacts into the
/// full report and the merged telemetry artifact.
fn merge(args: &[String]) {
    let args = Args::parse(args, "--out --metrics-out", "", true);
    let merged = merge_shards_cli(&args.positional);
    let cfg = config_from_params(&merged.params).unwrap_or_else(|e| fail(&e));
    let report = assemble_report(&cfg, merged.entries(&cfg).unwrap_or_else(|e| fail(&e)));
    eprintln!(
        "[merge] {} shard file(s), {} grid entries",
        args.positional.len(),
        report.entries.len()
    );
    print_report(&cfg, &report);
    write_report(&report, &report_out_path(&args));
    write_metrics(&args, "robustness_campaign", &merged.metrics);
}

/// `robustness_campaign drift ...`: one standalone run of the
/// drifted-sensor scenario, or a static-vs-tuned comparison with
/// `--compare`.
fn drift(args: &[String]) {
    let value_flags = "--seed --knobs --epsilon --situation --out --stream-out --metrics-out \
                       --flight-out --tile-threads";
    let args = Args::parse(args, value_flags, "--quick --compare", false);
    let cfg =
        CampaignConfig::new(args.parsed("--seed").unwrap_or(7)).with_quick(args.has("--quick"));
    let epsilon: Option<f64> = args.parsed("--epsilon");
    let situation = match args.parsed::<usize>("--situation") {
        Some(i) if i < lkas::TABLE3_SITUATIONS.len() => i,
        Some(i) => {
            fail(&format!("bad --situation `{i}` (want 0..{})", lkas::TABLE3_SITUATIONS.len()))
        }
        None => DRIFT_SITUATIONS[0],
    };
    let knobs = match args.value("--knobs") {
        None | Some("static") => DriftKnobs::Static,
        Some("tuned") => DriftKnobs::Tuned { epsilon },
        Some(other) => fail(&format!("bad --knobs `{other}` (want static|tuned)")),
    };
    let tile_threads: Option<usize> = args.parsed("--tile-threads");

    if args.has("--compare") {
        let stat = run_drift(&cfg, DriftKnobs::Static, situation);
        let tuned = run_drift(&cfg, DriftKnobs::Tuned { epsilon }, situation);
        let fmt = |r: &lkas_bench::robustness::DriftReport| {
            if r.crashed {
                "CRASH".to_string()
            } else {
                r.mae.map_or("-".to_string(), |m| format!("{m:.6}"))
            }
        };
        println!(
            "drift (seed {}, {} track): static MAE {} -> tuned MAE {}",
            cfg.seed,
            if cfg.quick { "quick" } else { "full" },
            fmt(&stat),
            fmt(&tuned)
        );
        match (stat.crashed, tuned.crashed, stat.mae, tuned.mae) {
            (false, false, Some(s), Some(t)) if t < s => {
                println!("online re-characterization improves the drifted loop ({:.1}%)", {
                    (1.0 - t / s) * 100.0
                });
            }
            _ => fail("online tuner did not strictly improve on the frozen table"),
        }
        return;
    }

    let stream_out = args.value("--stream-out").map(PathBuf::from);
    let metrics_out = args.value("--metrics-out").map(PathBuf::from);
    let flight_out = args.value("--flight-out").map(PathBuf::from);

    // One ring big enough for every cycle of the run: the stream is
    // drained after the loop finishes, so any eviction would leave a
    // hole in the folded artifact.
    let bus = stream_out.as_ref().map(|_| Arc::new(TelemetryBus::new(1 << 17)));
    let sub = bus.as_ref().map(|bus| bus.subscribe());
    let flight = flight_out
        .as_ref()
        .map(|path| Arc::new(FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY).with_auto_dump(path)));
    let metrics = metrics_out.as_ref().map(|_| Arc::new(Metrics::new()));

    let (track, mut config) = build_job(&cfg, &CampaignJob::Drift { situation, knobs }, None);
    config.stream = bus;
    config.flight = flight.clone();
    config.metrics = metrics.clone();
    if let Some(threads) = tile_threads {
        config = config.with_tile_threads(threads);
    }
    let result = HilSimulator::new(track, config).run();
    let report = drift_report_for(&cfg, &result);
    println!("{}", drift_report_json(&report));
    if let Some(out) = args.value("--out").map(PathBuf::from) {
        lkas_runtime::write_atomic(&out, drift_report_json(&report).as_bytes())
            .unwrap_or_else(|e| fail(&format!("write {}: {e}", out.display())));
        eprintln!("[drift] {}", out.display());
    }
    if let (Some(sub), Some(path)) = (sub, stream_out) {
        if sub.dropped() > 0 {
            fail(&format!("stream ring overflowed ({} events evicted)", sub.dropped()));
        }
        let mut lines = String::new();
        let mut count = 0u64;
        for delta in sub.drain() {
            lines.push_str(&serde_json::to_string(&delta).expect("serialize cycle delta"));
            lines.push('\n');
            count += 1;
        }
        lkas_runtime::write_atomic(&path, lines.as_bytes())
            .unwrap_or_else(|e| fail(&format!("write {}: {e}", path.display())));
        eprintln!("[stream] {} ({count} cycles)", path.display());
    }
    if let (Some(metrics), Some(path)) = (metrics, metrics_out) {
        metrics
            .write_json(&path)
            .unwrap_or_else(|e| fail(&format!("write {}: {e}", path.display())));
        eprintln!("[telemetry] {}", path.display());
    }
    if let (Some(flight), Some(path)) = (flight, flight_out) {
        if flight.dumps() > 0 {
            eprintln!("[flight] {} ({} dump(s))", path.display(), flight.dumps());
        }
    }
}

fn print_report(cfg: &CampaignConfig, report: &RobustnessReport) {
    let rows: Vec<Vec<String>> = report
        .entries
        .iter()
        .map(|e| {
            vec![
                e.case.clone(),
                e.plan.clone(),
                e.coast.clone(),
                e.knobs.clone(),
                if e.crashed { "CRASH" } else { "ok" }.to_string(),
                e.mae.map_or("-".to_string(), |m| format!("{m:.4}")),
                e.degraded_samples.to_string(),
                e.measurement_holds.to_string(),
                e.observer_coasts.to_string(),
                e.certificate.map_or("-".to_string(), |m| format!("{m:.3}")),
            ]
        })
        .collect();
    println!(
        "Robustness campaign (seed {}, {} grid)",
        cfg.seed,
        if cfg.quick { "quick" } else { "full" }
    );
    println!(
        "{}",
        render_table(
            &[
                "case", "plan", "coast", "knobs", "outcome", "MAE (m)", "degraded", "holds",
                "coasts", "cert",
            ],
            &rows
        )
    );
    let s = &report.summary;
    println!(
        "crash rate: {:.2} (off) -> {:.2} (hold) -> {:.2} (observer); time degraded: {:.1}%",
        s.crash_rate_policy_off,
        s.crash_rate_policy_on,
        s.crash_rate_observer,
        s.time_in_degraded_frac * 100.0
    );
    println!(
        "certificates: {}/{} cells certified (worst margin {})",
        s.certified_cells,
        s.certificate_cells,
        s.worst_certificate.map_or("-".to_string(), |m| format!("{m:.3}")),
    );
    if let Some(burst) = &s.blind_burst {
        let outcome = |crashed: bool, samples: u64, mae: Option<f64>| {
            if crashed {
                format!("CRASH after {samples} samples")
            } else {
                format!("survived (MAE {})", mae.map_or("-".to_string(), |m| format!("{m:.4}")))
            }
        };
        println!(
            "blind burst ({}, {}): hold {} vs observer {} -> observer_beats_hold={}",
            burst.case,
            burst.plan,
            outcome(burst.hold_crashed, burst.hold_samples, burst.hold_mae),
            outcome(burst.observer_crashed, burst.observer_samples, burst.observer_mae),
            burst.observer_beats_hold
        );
    }
    if let (Some(stat), Some(tuned)) = (s.drift_mae_static, s.drift_mae_tuned) {
        println!(
            "sensor-drift axis: frozen table MAE {stat:.4} -> online-tuned MAE {tuned:.4} ({}{:.1}%)",
            if tuned <= stat { "-" } else { "+" },
            (1.0 - tuned / stat).abs() * 100.0
        );
    }
}
