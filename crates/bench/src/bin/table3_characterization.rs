//! Table III — hardware- and situation-aware characterization.
//!
//! Re-runs the design-time characterization (Sec. III-B) on this
//! workspace's substrates: for each of the 21 situations, every
//! candidate knob tuning is evaluated in a closed-loop simulation and
//! the best-QoC tuning recorded. The output is this reproduction's
//! Table III, printed next to the paper's published tunings.
//!
//! The regenerated table is cached under `artifacts/table3.json` and is
//! consumed by `fig6_static`/`fig8_dynamic` when `--characterized` is
//! passed to them.
//!
//! Usage: `cargo run --release -p lkas-bench --bin table3_characterization [--quick]`
//!
//! The sweep runs through the sharded campaign engine, so it can be
//! split across processes or machines and resumed after a kill:
//! `table3_characterization --quick --shard 0/2 --checkpoint ckpt0.jsonl
//!  --resume --shard-out shard0.json`, then
//! `table3_characterization merge shard0.json shard1.json` reassembles
//! the byte-identical table and sweep data. `--checkpoint` (with
//! `--resume`) also works on the unsharded run. An unknown flag, a
//! missing or unparsable value, or `--resume` without `--checkpoint`
//! exits with status 2 before anything runs.

use lkas::characterize::{Characterization, CharacterizeConfig, Characterizer, Sweep};
use lkas::knobs::KnobTable;
use lkas::TABLE3_SITUATIONS;
use lkas_bench::{
    default_threads, fail, merge_shards_cli, render_table, run_sharded, write_result, Args,
    Metrics, ARTIFACTS_DIR,
};
use lkas_control::design_controller;
use lkas_platform::schedule::ClassifierSet;
use std::path::Path;
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("merge") {
        merge(&args[1..]);
        return;
    }

    let args =
        Args::parse(&args, "--threads --shard --checkpoint --shard-out", "--quick --resume", false);
    let mut config = CharacterizeConfig::new()
        .with_threads(args.parsed("--threads").unwrap_or_else(default_threads));
    if args.has("--quick") {
        config = config.with_track_length(120.0);
    }
    let characterizer = Characterizer::new(config);
    eprintln!(
        "[characterize] 21 situations, track {} m, {} threads",
        characterizer.config().track_length_m,
        characterizer.config().threads
    );
    let sweep = Sweep { characterizer: &characterizer, situations: &TABLE3_SITUATIONS };
    if let Some(outcomes) = run_sharded(&args, &sweep, "table3", &Arc::new(Metrics::new())) {
        print_and_cache(&sweep.assemble(outcomes), &characterizer);
    }
}

/// `table3_characterization merge SHARD...`: fold shard artifacts into
/// the full characterization.
fn merge(args: &[String]) {
    let args = Args::parse(args, "", "", true);
    let merged = merge_shards_cli(&args.positional);
    let characterizer = Characterizer::from_params(&merged.params).unwrap_or_else(|e| fail(&e));
    let sweep = Sweep { characterizer: &characterizer, situations: &TABLE3_SITUATIONS };
    let out = sweep.assemble(merged.entries(&sweep).unwrap_or_else(|e| fail(&e)));
    eprintln!("[merge] {} shard file(s), {} situations", args.positional.len(), out.sweeps.len());
    print_and_cache(&out, &characterizer);
}

fn print_and_cache(out: &Characterization, characterizer: &Characterizer) {
    let paper = KnobTable::paper_table3();
    let mut rows = Vec::new();
    let mut isp_matches = 0;
    let mut roi_matches = 0;
    for (i, situation) in TABLE3_SITUATIONS.iter().enumerate() {
        let ours = out.table.get(situation);
        let theirs = paper.get(situation).expect("paper covers all 21");
        let (isp, roi, speed, cfg_str, cert) = match ours {
            Some(t) => {
                let cfg = t.controller_config(ClassifierSet::all());
                // The winning cell's robustness certificate: the
                // perception-error profile fitted during its sweep run,
                // propagated through the closed loop designed at the
                // cell's own [v, h, τ] operating point.
                let cert = out
                    .sweeps
                    .iter()
                    .find(|(s, _)| s == situation)
                    .and_then(|(_, outcomes)| outcomes.iter().find(|c| c.tuning == t))
                    .and_then(|c| {
                        let profile = c.moments.fit();
                        design_controller(&cfg)
                            .ok()
                            .map(|ctl| lkas_control::certify(&ctl, &profile).margin)
                    })
                    .map(|m| format!("{m:.3}"))
                    .unwrap_or_else(|| "-".into());
                (
                    t.isp.name().to_string(),
                    t.roi.name().to_string(),
                    format!("{:.0}", t.speed_kmph),
                    format!("[{:.0}, {:.0}, {:.0}]", cfg.speed_kmph, cfg.h_ms, cfg.tau_ms),
                    cert,
                )
            }
            None => ("-".into(), "-".into(), "-".into(), "-".into(), "-".into()),
        };
        if let Some(t) = ours {
            if t.isp == theirs.isp {
                isp_matches += 1;
            }
            if t.roi == theirs.roi {
                roi_matches += 1;
            }
        }
        let mae = out.best_mae(situation).map(|m| format!("{m:.3}")).unwrap_or_else(|| "-".into());
        rows.push(vec![
            format!("{}", i + 1),
            situation.describe(),
            isp,
            roi,
            speed,
            cfg_str,
            mae,
            cert,
            format!("{} {}", theirs.isp.name(), theirs.roi.name()),
        ]);
    }
    println!("Table III — regenerated situation-specific knob tunings (best QoC per situation)");
    println!(
        "{}",
        render_table(
            &["#", "situation", "ISP", "ROI", "v", "[v,h,τ]", "MAE", "cert", "paper (ISP ROI)"],
            &rows
        )
    );
    println!(
        "agreement with the paper's table: ROI {}/21, ISP {}/21 \
         (ISP choices depend on the substituted sensor/ISP models; the ROI and speed \
         structure is the transferable part — see EXPERIMENTS.md).",
        roi_matches, isp_matches
    );

    // Cache for the downstream figures, plus the versioned knob store
    // the online tuner warm-starts from. Atomic writes: a run killed
    // mid-write must not leave a torn table for `--characterized`.
    let cache = |name: &str, json: &str| {
        let path = Path::new(ARTIFACTS_DIR).join(name);
        lkas_runtime::write_atomic(&path, json.as_bytes())
            .unwrap_or_else(|e| fail(&format!("write {}: {e}", path.display())));
        eprintln!("[cached] {}", path.display());
    };
    cache("table3.json", &serde_json::to_string_pretty(&out.table).expect("serialize table"));
    cache("error_profiles.json", &out.error_profiles(&characterizer.fingerprint()).to_json());
    cache("knob_store.json", &out.clone().into_store(&characterizer.fingerprint()).to_json());
    write_result("table3_characterization", &out.sweeps);
}
