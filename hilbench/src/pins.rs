//! Pinned outcomes: what every run of a workload must produce at the
//! pinned seeds, checked behind `fail_frac` and `correct`.
//!
//! `expected.json` is compiled in. `hilbench repin` rewrites it from
//! fresh runs; that is only for a declared change of behaviour, and the
//! rebuilt benchmark then checks against the new pins.

use crate::workload::{prepare, run_pass, train_bundle, Options, RunOutcome, Workload};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Seeds whose outcomes are pinned.
pub const PINNED_SEEDS: [u64; 2] = [1, 7];

const EXPECTED_JSON: &str = include_str!("../expected.json");
const EXPECTED_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/expected.json");
const SCHEMA: &str = "hilbench-expected-v1";

/// The pinned outcomes of one workload at one seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PinEntry {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Every run of one pass, in job order.
    pub runs: Vec<RunOutcome>,
    /// `characterize`: the winning tuning per situation.
    pub winners: Vec<String>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Pins {
    schema: String,
    entries: Vec<PinEntry>,
}

/// Compares one pass's outcomes against the pins; empty when they
/// match or the seed is not pinned.
pub fn check(
    workload: Workload,
    seed: u64,
    runs: &[RunOutcome],
    winners: &[String],
) -> Vec<String> {
    if !PINNED_SEEDS.contains(&seed) {
        return Vec::new();
    }
    let pins: Pins = match serde_json::from_str(EXPECTED_JSON) {
        Ok(p) => p,
        Err(e) => return vec![format!("expected.json does not parse: {e}")],
    };
    let Some(entry) = pins.entries.iter().find(|e| e.workload == workload.name() && e.seed == seed)
    else {
        return vec![format!("no pins for {} at seed {seed}", workload.name())];
    };
    let mut problems = Vec::new();
    if entry.runs.len() != runs.len() {
        problems.push(format!("{} runs, {} pinned", runs.len(), entry.runs.len()));
    }
    for (got, want) in runs.iter().zip(&entry.runs) {
        if got != want {
            problems.push(format!("pinned {want:?}, got {got:?}"));
        }
    }
    if entry.winners != winners {
        problems.push(format!("pinned winners {:?}, got {winners:?}", entry.winners));
    }
    problems.truncate(5);
    problems
}

/// Reruns every workload at the pinned seeds and rewrites
/// `expected.json`.
///
/// # Errors
///
/// Returns a message when the file cannot be written.
pub fn repin() -> Result<(), String> {
    let mut entries = Vec::new();
    for seed in PINNED_SEEDS {
        for workload in Workload::ALL {
            let opts = Options { seed, smoke: false };
            let bundle =
                (workload == Workload::Fig8Trained).then(|| Arc::new(train_bundle(opts).0));
            let pass = run_pass(&prepare(workload, opts, bundle.as_ref()), false);
            eprintln!("[repin] {} seed {seed}: {} cycles", workload.name(), pass.cycles());
            entries.push(PinEntry {
                workload: workload.name().to_string(),
                seed,
                runs: pass.runs.iter().map(|r| r.outcome.clone()).collect(),
                winners: pass.winners,
            });
        }
    }
    let pins = Pins { schema: SCHEMA.to_string(), entries };
    let json = serde_json::to_string_pretty(&pins).map_err(|e| e.to_string())?;
    std::fs::write(EXPECTED_PATH, json + "\n").map_err(|e| format!("{EXPECTED_PATH}: {e}"))?;
    eprintln!("[repin] wrote {EXPECTED_PATH}; rebuild to check against it");
    Ok(())
}
