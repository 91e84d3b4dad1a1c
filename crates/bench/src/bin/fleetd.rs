//! `fleetd` — the lane-keeping fleet daemon.
//!
//! Binds a TCP listener and serves the fleet protocol (line-delimited
//! JSON, see DESIGN.md §14) with the [`BenchRunner`] job plug-in:
//! robustness-campaign grid points, whole campaigns, and ad-hoc drift
//! scenarios, with per-job priorities, bounded-queue admission control,
//! a fingerprint-keyed results cache, and per-tenant persisted knob
//! stores.
//!
//! Usage:
//! `cargo run --release -p lkas-bench --bin fleetd
//!  [-- --addr 127.0.0.1:0 --workers 1 --queue-capacity 64
//!   --cache-capacity 256 --max-line-bytes 1048576 --store-dir artifacts
//!   --watch-capacity 4096 --flight-dir artifacts/flight]`
//!
//! `--watch-capacity` bounds each watcher's event ring (a slow watcher
//! loses its oldest events — counted under `stream_dropped` — instead
//! of ever stalling a job). `--flight-dir` enables per-job flight
//! recording: the ring of recent per-cycle events is dumped to
//! `<dir>/job<N>-flight.json` on safe-mode entry, a runner panic, or a
//! cancellation request against the running job.
//!
//! The daemon prints `fleetd listening on <ADDR>` to stdout once bound
//! (scripts scrape the ephemeral port from it) and runs until a client
//! sends a `shutdown` request.

use lkas_bench::fleet::BenchRunner;
use lkas_bench::{fail, Args};
use lkas_fleet::{serve, FleetConfig};
use std::io::Write;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value_flags = "--addr --workers --queue-capacity --max-line-bytes --cache-capacity \
                       --store-dir --watch-capacity --flight-dir";
    let args = Args::parse(&argv, value_flags, "", false);
    let defaults = FleetConfig::default();
    let config = FleetConfig {
        workers: args.parsed("--workers").unwrap_or(defaults.workers),
        queue_capacity: args.parsed("--queue-capacity").unwrap_or(defaults.queue_capacity),
        max_line_bytes: args.parsed("--max-line-bytes").unwrap_or(defaults.max_line_bytes),
        cache_capacity: args.parsed("--cache-capacity").unwrap_or(defaults.cache_capacity),
        store_dir: args.value("--store-dir").map(PathBuf::from),
        watch_capacity: args.parsed("--watch-capacity").unwrap_or(defaults.watch_capacity),
        flight_dir: args.value("--flight-dir").map(PathBuf::from),
    };
    if let Some(dir) = &config.store_dir {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| fail(&format!("create store dir {}: {e}", dir.display())));
    }
    if let Some(dir) = &config.flight_dir {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| fail(&format!("create flight dir {}: {e}", dir.display())));
    }

    let addr = args.value("--addr").unwrap_or("127.0.0.1:0");
    let listener = TcpListener::bind(addr).unwrap_or_else(|e| fail(&format!("bind {addr}: {e}")));
    let bound = listener.local_addr().unwrap_or_else(|e| fail(&format!("local addr: {e}")));
    println!("fleetd listening on {bound}");
    std::io::stdout().flush().expect("flush stdout");
    let dir_or_none = |dir: &Option<PathBuf>| {
        dir.as_ref().map_or("(none)".to_string(), |d| d.display().to_string())
    };
    eprintln!(
        "[fleetd] workers={} queue-capacity={} cache-capacity={} store-dir={} \
         watch-capacity={} flight-dir={}",
        config.workers,
        config.queue_capacity,
        config.cache_capacity,
        dir_or_none(&config.store_dir),
        config.watch_capacity,
        dir_or_none(&config.flight_dir)
    );

    serve(listener, Arc::new(BenchRunner), config).unwrap_or_else(|e| fail(&format!("serve: {e}")));
    eprintln!("[fleetd] shut down");
}
