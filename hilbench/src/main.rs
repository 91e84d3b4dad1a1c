//! Command line of the HiL benchmark. `run.sh` builds it and is the
//! usual entry point; see `README.md`.
//!
//! ```text
//! hilbench run --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--log FILE]
//! hilbench compare BASE.jsonl NEW.jsonl
//! hilbench repin
//! hilbench pass --workload NAME --seed N [--smoke]   (one measured pass; internal)
//! ```

use hilbench::compare::{compare, parse_log, render, Verdict};
use hilbench::measure::{light_setups, pass_report, result_json, run_traced, run_untraced};
use hilbench::workload::{Options, Workload};
use hilbench::{benchmark, pins};
use lkas::identify::ClassifierBundle;
use std::io::{Read, Write};
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "usage: hilbench run --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
                     [--smoke] [--log FILE] | compare BASE.jsonl NEW.jsonl | repin";

/// Parsed `--flag value` / `--flag` arguments.
struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        self.0.iter().position(|a| a == flag).and_then(|i| self.0.get(i + 1)).map(String::as_str)
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.value("--workload").ok_or("--workload is required")?;
        Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))
    }

    fn options(&self) -> Result<Options, String> {
        let seed = match self.value("--seed") {
            Some(s) => s.parse().map_err(|_| format!("--seed {s:?} is not an integer"))?,
            None => 1,
        };
        Ok(Options { seed, smoke: self.has("--smoke") })
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_default();
    let args = Args(argv.collect());
    let outcome = match command.as_str() {
        "run" => cmd_run(&args),
        "pass" => cmd_pass(&args),
        "compare" => cmd_compare(&args),
        "repin" => pins::repin().map(|()| true),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("hilbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// One benchmark run; the last stdout line is the result JSON.
fn cmd_run(args: &Args) -> Result<bool, String> {
    let workload = args.workload()?;
    let opts = args.options()?;
    let bench = benchmark();
    let seconds = match args.value("--seconds") {
        Some(s) => s.parse::<f64>().map_err(|_| format!("--seconds {s:?} is not a number"))?,
        None => bench.run_seconds as f64,
    };
    let traced = match args.value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let out =
        if traced { run_traced(workload, opts) } else { run_untraced(workload, opts, seconds) };
    let declared = if traced { &bench.per_layer } else { &bench.end_to_end };
    let kind = if traced { "traced" } else { "untraced" };
    println!("== {} seed {} ({kind})", workload.name(), opts.seed);
    for line in &out.lines {
        println!("{line}");
    }
    for d in declared {
        if let Some(v) = out.metrics.get(&d.name) {
            println!("{:<28} {v:>14.4} {}", d.name, d.unit);
        }
    }
    for p in &out.problems {
        println!("CHECK FAILED: {p}");
    }
    let json = result_json(&out, declared)?;
    if let Some(path) = args.value("--log") {
        let line = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{traced},\"result\":{json}}}\n",
            workload.name(),
            opts.seed
        );
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(line.as_bytes()))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{json}");
    Ok(out.correct())
}

/// One measured pass in this fresh process; the trained bundle, if
/// any, arrives on stdin.
fn cmd_pass(args: &Args) -> Result<bool, String> {
    let workload = args.workload()?;
    let opts = args.options()?;
    let mut stdin = String::new();
    std::io::stdin().read_to_string(&mut stdin).map_err(|e| format!("stdin: {e}"))?;
    let bundle = if stdin.is_empty() {
        None
    } else {
        let b = ClassifierBundle::from_json(&stdin).map_err(|e| format!("bundle: {e}"))?;
        Some(Arc::new(b))
    };
    if workload == Workload::Fig8Trained && bundle.is_none() {
        return Err("fig8-trained needs the classifier bundle on stdin".into());
    }
    let (inputs, setup_s) = light_setups(workload, opts, bundle.as_ref());
    let report = pass_report(&inputs, setup_s);
    println!("{}", serde_json::to_string(&report).map_err(|e| e.to_string())?);
    Ok(true)
}

/// Compares two set logs; fails when any metric regressed or is
/// unresolved.
fn cmd_compare(args: &Args) -> Result<bool, String> {
    let (Some(base), Some(new)) = (args.0.first(), args.0.get(1)) else {
        return Err(USAGE.to_string());
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let rows = compare(&benchmark(), &parse_log(&read(base)?)?, &parse_log(&read(new)?)?);
    print!("{}", render(&rows));
    let bad = rows
        .iter()
        .filter(|r| matches!(r.verdict, Verdict::Regressed | Verdict::Unresolved))
        .count();
    println!("{} rows, {bad} regressed or unresolved", rows.len());
    Ok(bad == 0)
}
