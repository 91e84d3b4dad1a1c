//! `fleetctl` — command-line client for the fleet daemon.
//!
//! Subcommands (all take `--addr HOST:PORT`):
//!
//! * `submit` — submit a job spec and (by default) wait for the result:
//!   `fleetctl submit --addr A --spec '{"kind":"campaign","quick":true}'
//!    [--spec-file PATH] [--tenant T] [--priority N] [--no-wait]
//!    [--out PATH]`
//!   Progress events stream to stderr; the result payload
//!   prints to stdout as pretty JSON (byte-identical between a cold run
//!   and a cache replay).
//! * `status` — print the daemon's queue/cache/job table.
//! * `watch --job N [--follow] [--json|--human]` — attach to a job and
//!   stream it to completion. `--follow` prints the job's live
//!   per-cycle telemetry (`CycleDelta` frames) as they arrive; without
//!   it per-cycle frames are counted but not printed. `--json` emits
//!   every event as one compact JSON line on stdout (machine
//!   consumption); `--human` (the default) renders one-line summaries.
//! * `cancel --job N` — cancel a queued job.
//! * `shutdown` — ask the daemon to drain and exit.
//!
//! Exit codes (submit/watch): `0` result delivered, `3` submission
//! rejected by admission control, `4` job failed, `5` job cancelled,
//! `6` connection to the daemon lost mid-stream, `2` usage or other
//! transport errors.

use lkas_bench::{arg_value, fail, render_table};
use lkas_fleet::{ClientError, Event, FleetClient, RequestOp, SubmitRequest};
use serde::Value;
use std::path::PathBuf;

/// Exit code when the daemon connection died mid-stream (distinct from
/// the job-failed code so scripts can retry connection losses).
const EXIT_CONNECTION_LOST: i32 = 6;

fn connect() -> FleetClient {
    let addr = arg_value("--addr").unwrap_or_else(|| fail("missing --addr HOST:PORT"));
    FleetClient::connect(&addr).unwrap_or_else(|e| fail(&format!("connect {addr}: {e}")))
}

fn job_flag() -> u64 {
    let text = arg_value("--job").unwrap_or_else(|| fail("missing --job N"));
    text.parse().unwrap_or_else(|_| fail(&format!("bad --job `{text}`")))
}

fn main() {
    let command = std::env::args().nth(1).unwrap_or_default();
    match command.as_str() {
        "submit" => submit(),
        "status" => status(),
        "watch" => watch(),
        "cancel" => cancel(),
        "shutdown" => shutdown(),
        other => {
            fail(&format!("unknown command `{other}` (want submit|status|watch|cancel|shutdown)"))
        }
    }
}

/// How watched events render.
#[derive(Clone, Copy)]
struct WatchMode {
    /// Print live per-cycle `CycleDelta` frames (not just count them).
    follow: bool,
    /// Emit every event as one compact JSON line instead of one-line
    /// human summaries.
    json: bool,
}

impl WatchMode {
    fn human() -> WatchMode {
        WatchMode { follow: false, json: false }
    }

    fn from_args() -> WatchMode {
        let json = std::env::args().any(|a| a == "--json");
        if json && std::env::args().any(|a| a == "--human") {
            fail("--json and --human are mutually exclusive");
        }
        WatchMode { follow: std::env::args().any(|a| a == "--follow"), json }
    }
}

/// One-line human rendering of a live `CycleDelta` frame.
fn render_cycle(job: u64, delta: &Value) {
    let field = |name: &str| match delta {
        Value::Object(fields) => fields.iter().find(|(n, _)| n == name).map(|(_, v)| v),
        _ => None,
    };
    let num = |name: &str| field(name).and_then(Value::as_u64).unwrap_or(0);
    let offset = |name: &str| match field(name) {
        Some(Value::Null) | None => "-".to_string(),
        Some(v) => v.as_f64().map_or("-".to_string(), |y| format!("{y:+.4}")),
    };
    let labels = match field("labels") {
        Some(Value::Array(items)) => items
            .iter()
            .filter_map(|v| match v {
                Value::Str(s) => Some(s.as_str()),
                _ => None,
            })
            .collect::<Vec<_>>()
            .join(","),
        _ => String::new(),
    };
    eprintln!(
        "[job {job}] cycle {} t={}us y_l={} true={}{}{}",
        num("cycle"),
        num("ts_us"),
        offset("y_l_measured"),
        offset("y_l_true"),
        if labels.is_empty() { "" } else { " " },
        labels
    );
}

/// Streams a submitted or watched job to its terminal event; returns
/// the process exit code.
fn stream_to_terminal(client: &mut FleetClient, out: Option<&PathBuf>, mode: WatchMode) -> i32 {
    let mut cycles = 0u64;
    let terminal = client.wait_terminal(|event| {
        if mode.json {
            println!("{}", serde_json::to_string(event).expect("serialize event"));
            return;
        }
        match event {
            Event::Progress { job, completed, total } => {
                eprintln!("[job {job}] progress {completed}/{total}");
            }
            Event::CycleDelta { job, delta } => {
                cycles += 1;
                if mode.follow {
                    render_cycle(*job, delta);
                }
            }
            _ => {}
        }
    });
    let terminal = match terminal {
        Ok(terminal) => terminal,
        Err(e) if e.is_connection_lost() => {
            eprintln!("error: {e}");
            return EXIT_CONNECTION_LOST;
        }
        Err(e) => fail(&format!("stream: {e}")),
    };
    if mode.json {
        println!("{}", serde_json::to_string(&terminal).expect("serialize event"));
    }
    if cycles > 0 && !mode.follow {
        eprintln!("[stream] {cycles} per-cycle events (re-run with --follow to print them)");
    }
    match terminal {
        Event::Result { job, cached, payload } => {
            eprintln!("[job {job}] done (cached: {cached})");
            let pretty = serde_json::to_string_pretty(&payload).expect("serialize payload");
            match out {
                Some(path) => {
                    // Exactly the payload bytes (no trailing newline), so a
                    // campaign payload `cmp`s clean against the report the
                    // single-process binary writes.
                    lkas_runtime::write_atomic(path, pretty.as_bytes())
                        .unwrap_or_else(|e| fail(&format!("write {}: {e}", path.display())));
                    eprintln!("[result] {}", path.display());
                }
                None if mode.json => {}
                None => println!("{pretty}"),
            }
            0
        }
        Event::Failed { job, message } => {
            eprintln!("[job {job}] FAILED: {message}");
            4
        }
        Event::Cancelled { job } => {
            eprintln!("[job {job}] cancelled");
            5
        }
        other => fail(&format!("unexpected terminal event {other:?}")),
    }
}

fn submit() {
    let spec_text = match (arg_value("--spec"), arg_value("--spec-file")) {
        (Some(text), None) => text,
        (None, Some(path)) => {
            std::fs::read_to_string(&path).unwrap_or_else(|e| fail(&format!("read {path}: {e}")))
        }
        _ => fail("need exactly one of --spec JSON or --spec-file PATH"),
    };
    let spec: Value =
        serde_json::from_str(&spec_text).unwrap_or_else(|e| fail(&format!("bad spec: {e}")));
    let priority = match arg_value("--priority") {
        None => 0,
        Some(text) => text.parse().unwrap_or_else(|_| fail(&format!("bad --priority `{text}`"))),
    };
    let wait = !std::env::args().any(|a| a == "--no-wait");
    let out = arg_value("--out").map(PathBuf::from);

    let mut client = connect();
    let first = client
        .submit(SubmitRequest { tenant: arg_value("--tenant"), priority, wait, spec })
        .unwrap_or_else(|e| fail(&format!("submit: {e}")));
    let code = match first {
        Event::Accepted { job, key, .. } => {
            eprintln!("[job {job}] accepted: {key}");
            if wait {
                stream_to_terminal(&mut client, out.as_ref(), WatchMode::human())
            } else {
                println!("{job}");
                0
            }
        }
        Event::Rejected { reason, queued, capacity } => {
            eprintln!("rejected: {reason} (queued {queued}/{capacity})");
            3
        }
        Event::Error(err) => {
            eprintln!("error: {:?}: {}", err.kind, err.message);
            2
        }
        other => fail(&format!("unexpected submit answer {other:?}")),
    };
    std::process::exit(code);
}

fn status() {
    let mut client = connect();
    client.send(RequestOp::Status).unwrap_or_else(|e| fail(&format!("status: {e}")));
    match client.next_event() {
        Ok(Event::Status(info)) => {
            println!(
                "queue {}/{} | workers {} | cache entries {}",
                info.queued, info.capacity, info.workers, info.cache_entries
            );
            let rows: Vec<Vec<String>> = info
                .jobs
                .iter()
                .map(|j| {
                    vec![
                        j.job.to_string(),
                        format!("{:?}", j.state),
                        j.priority.to_string(),
                        j.started_order.map_or("-".to_string(), |o| o.to_string()),
                        if j.cached { "yes" } else { "no" }.to_string(),
                        j.tenant.clone().unwrap_or_else(|| "-".to_string()),
                        j.key.clone(),
                    ]
                })
                .collect();
            println!(
                "{}",
                render_table(&["job", "state", "prio", "order", "cached", "tenant", "key"], &rows)
            );
            let counters: Vec<String> = info
                .counters
                .iter()
                .filter(|(name, count)| name.starts_with("fleet_") && *count > 0)
                .map(|(name, count)| format!("{name}={count}"))
                .collect();
            if !counters.is_empty() {
                println!("{}", counters.join(" "));
            }
        }
        Ok(other) => fail(&format!("unexpected status answer {other:?}")),
        Err(e) => fail(&format!("status: {e}")),
    }
}

fn watch() {
    let job = job_flag();
    let out = arg_value("--out").map(PathBuf::from);
    let mut client = connect();
    client.send(RequestOp::Watch { job }).unwrap_or_else(|e| fail(&format!("watch: {e}")));
    std::process::exit(stream_to_terminal(&mut client, out.as_ref(), WatchMode::from_args()));
}

fn cancel() {
    let job = job_flag();
    let mut client = connect();
    client.send(RequestOp::Cancel { job }).unwrap_or_else(|e| fail(&format!("cancel: {e}")));
    match client.next_event() {
        Ok(Event::Cancelled { job }) => println!("job {job} cancelled"),
        Ok(Event::Error(err)) => fail(&format!("{:?}: {}", err.kind, err.message)),
        Ok(other) => fail(&format!("unexpected cancel answer {other:?}")),
        Err(e) => fail(&format!("cancel: {e}")),
    }
}

fn shutdown() {
    let mut client = connect();
    client.send(RequestOp::Shutdown).unwrap_or_else(|e| fail(&format!("shutdown: {e}")));
    match client.next_event() {
        Ok(Event::ShuttingDown) => println!("daemon shutting down"),
        Ok(other) => fail(&format!("unexpected shutdown answer {other:?}")),
        Err(ClientError::Protocol(_) | ClientError::Disconnected(_)) => {
            println!("daemon shutting down")
        }
        Err(e) => fail(&format!("shutdown: {e}")),
    }
}
