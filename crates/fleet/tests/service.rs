//! End-to-end tests of the fleet daemon over a real TCP socket, using
//! a lightweight mock runner so scheduling, caching, admission
//! control, and framing robustness are exercised without simulation
//! cost. (The full simulation path is covered by `lkas-bench`'s fleet
//! acceptance test.)

use lkas_fleet::proto::{ErrorKind, Event, JobState, RequestOp, SubmitRequest, PROTO_SCHEMA};
use lkas_fleet::{serve, FleetClient, FleetConfig, JobContext, JobKey, JobRunner, TenantStores};
use serde::Value;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A runner whose jobs are JSON objects: `name` keys the job, `cfg`
/// supplies the config hash, and `block: true` parks the job until the
/// test releases the gate (for holding a worker busy deterministically).
struct MockRunner {
    runs: AtomicU64,
    gate: Mutex<bool>,
    released: Condvar,
}

impl MockRunner {
    fn new() -> Self {
        MockRunner { runs: AtomicU64::new(0), gate: Mutex::new(false), released: Condvar::new() }
    }

    fn release(&self) {
        *self.gate.lock().unwrap() = true;
        self.released.notify_all();
    }

    fn field<'v>(spec: &'v Value, name: &str) -> Option<&'v Value> {
        match spec {
            Value::Object(fields) => fields.iter().find(|(n, _)| n == name).map(|(_, v)| v),
            _ => None,
        }
    }
}

impl JobRunner for MockRunner {
    fn job_key(
        &self,
        spec: &Value,
        _stores: &TenantStores,
        _tenant: Option<&str>,
    ) -> Result<JobKey, String> {
        let Some(Value::Str(name)) = Self::field(spec, "name") else {
            return Err("spec needs a string `name`".to_string());
        };
        let cfg = match Self::field(spec, "cfg") {
            Some(Value::Str(cfg)) => cfg.clone(),
            _ => "default-cfg".to_string(),
        };
        Ok(JobKey { key: format!("mock/{name}"), config_hash: cfg })
    }

    fn run(&self, spec: &Value, ctx: &JobContext) -> Result<Value, String> {
        if matches!(Self::field(spec, "block"), Some(Value::Bool(true))) {
            let mut released = self.gate.lock().unwrap();
            while !*released {
                released = self.released.wait(released).unwrap();
            }
        }
        if matches!(Self::field(spec, "fail"), Some(Value::Bool(true))) {
            return Err("mock job failure".to_string());
        }
        let run = self.runs.fetch_add(1, Ordering::SeqCst);
        ctx.emit_progress(1, 2);
        // `cycles: "<n>"` emits n per-cycle stream events; `fat: true`
        // pads each one so a stalled watcher's transport backs up fast.
        let cycles = match Self::field(spec, "cycles") {
            Some(Value::Str(n)) => n.parse::<u64>().unwrap_or(0),
            _ => 0,
        };
        let fat = matches!(Self::field(spec, "fat"), Some(Value::Bool(true)));
        for i in 0..cycles {
            let mut delta = lkas_runtime::CycleDelta::new(i);
            if fat {
                delta.labels.push("x".repeat(8192));
            }
            ctx.emit_cycle(&delta);
        }
        ctx.emit_progress(2, 2);
        let name = match Self::field(spec, "name") {
            Some(Value::Str(name)) => name.clone(),
            _ => String::new(),
        };
        // `run` makes fresh executions distinguishable: if a cache hit
        // ever re-ran the job, the payload bytes would differ.
        Ok(Value::Object(vec![
            ("name".to_string(), Value::Str(name)),
            ("run".to_string(), Value::U64(run)),
        ]))
    }
}

struct Daemon {
    addr: std::net::SocketAddr,
    runner: Arc<MockRunner>,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    fn start(config: FleetConfig) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let runner = Arc::new(MockRunner::new());
        let serving = Arc::clone(&runner);
        let thread =
            std::thread::spawn(move || serve(listener, serving as Arc<dyn JobRunner>, config));
        Daemon { addr, runner, thread: Some(thread) }
    }

    fn client(&self) -> FleetClient {
        FleetClient::connect(self.addr).unwrap()
    }

    fn submit(name: &str, priority: u8, wait: bool) -> SubmitRequest {
        SubmitRequest {
            tenant: None,
            priority,
            wait,
            spec: Value::Object(vec![("name".to_string(), Value::Str(name.to_string()))]),
        }
    }

    fn shutdown(mut self) {
        let mut client = self.client();
        client.send(RequestOp::Shutdown).unwrap();
        assert!(matches!(client.next_event().unwrap(), Event::ShuttingDown));
        self.thread.take().unwrap().join().unwrap().unwrap();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            // Best-effort shutdown so a failed test doesn't hang the
            // suite on join.
            if let Ok(mut client) = FleetClient::connect(self.addr) {
                let _ = client.send(RequestOp::Shutdown);
            }
            self.runner.release();
            let _ = thread.join();
        }
    }
}

#[test]
fn submit_streams_progress_telemetry_and_result() {
    let daemon = Daemon::start(FleetConfig::default());
    let mut client = daemon.client();
    let spec = Value::Object(vec![
        ("name".to_string(), Value::Str("solo".to_string())),
        ("cycles".to_string(), Value::Str("3".to_string())),
    ]);
    let accepted =
        client.submit(SubmitRequest { tenant: None, priority: 1, wait: true, spec }).unwrap();
    let Event::Accepted { job, key, config_hash } = accepted else {
        panic!("expected Accepted, got {accepted:?}");
    };
    assert_eq!(key, "mock/solo");
    assert_eq!(config_hash, "default-cfg");

    let mut progress = Vec::new();
    let mut cycles = Vec::new();
    let terminal = client
        .wait_terminal(|event| match event {
            Event::Progress { completed, total, .. } => progress.push((*completed, *total)),
            Event::CycleDelta { delta, .. } => {
                // Telemetry travels as per-cycle `lkas-stream-v1` frames.
                let delta: lkas_runtime::CycleDelta =
                    serde::Deserialize::from_value(delta).expect("frame must be a cycle delta");
                cycles.push(delta.cycle);
            }
            other => panic!("unexpected event {other:?}"),
        })
        .unwrap();
    assert_eq!(progress, [(1, 2), (2, 2)]);
    assert_eq!(cycles, [0, 1, 2]);
    let Event::Result { job: done, cached, .. } = terminal else {
        panic!("expected Result, got {terminal:?}");
    };
    assert_eq!(done, job);
    assert!(!cached);
    daemon.shutdown();
}

#[test]
fn cache_hit_is_byte_identical_and_config_hash_invalidates() {
    let daemon = Daemon::start(FleetConfig::default());

    let spec_v1 = |name: &str, cfg: &str| {
        Value::Object(vec![
            ("name".to_string(), Value::Str(name.to_string())),
            ("cfg".to_string(), Value::Str(cfg.to_string())),
        ])
    };
    let run = |spec: Value| {
        let mut client = daemon.client();
        let accepted =
            client.submit(SubmitRequest { tenant: None, priority: 0, wait: true, spec }).unwrap();
        assert!(matches!(accepted, Event::Accepted { .. }), "got {accepted:?}");
        let terminal = client.wait_terminal(|_| {}).unwrap();
        let Event::Result { cached, payload, .. } = terminal else {
            panic!("expected Result, got {terminal:?}");
        };
        (cached, serde_json::to_string_pretty(&payload).unwrap())
    };

    let (cached_cold, bytes_cold) = run(spec_v1("job", "cfg-a"));
    assert!(!cached_cold);
    let (cached_warm, bytes_warm) = run(spec_v1("job", "cfg-a"));
    assert!(cached_warm, "identical (config-hash, job-key) must be served from cache");
    assert_eq!(bytes_warm, bytes_cold, "cached payload must be byte-identical");

    // Same job key under a new config hash: the cache must not answer.
    let (cached_new_cfg, bytes_new_cfg) = run(spec_v1("job", "cfg-b"));
    assert!(!cached_new_cfg, "config-hash change must invalidate the cache entry");
    assert_ne!(bytes_new_cfg, bytes_cold, "fresh run is observable via the run counter");

    assert_eq!(daemon.runner.runs.load(Ordering::SeqCst), 2);
    daemon.shutdown();
}

#[test]
fn saturated_queue_rejects_with_reason() {
    let config = FleetConfig { workers: 1, queue_capacity: 1, ..FleetConfig::default() };
    let daemon = Daemon::start(config);

    // Occupy the single worker with a gated job...
    let mut blocker = daemon.client();
    let spec = Value::Object(vec![
        ("name".to_string(), Value::Str("blocker".to_string())),
        ("block".to_string(), Value::Bool(true)),
    ]);
    let accepted =
        blocker.submit(SubmitRequest { tenant: None, priority: 9, wait: true, spec }).unwrap();
    assert!(matches!(accepted, Event::Accepted { .. }));
    // ... wait for it to leave the queue and start running ...
    let mut status_client = daemon.client();
    for _ in 0..200 {
        status_client.send(RequestOp::Status).unwrap();
        let Event::Status(info) = status_client.next_event().unwrap() else { panic!() };
        if info.jobs.iter().any(|j| j.state == JobState::Running) {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    // ... fill the queue's one slot ...
    let mut filler = daemon.client();
    assert!(matches!(
        filler.submit(Daemon::submit("queued", 1, false)).unwrap(),
        Event::Accepted { .. }
    ));
    // ... and the next submission must be refused with a reason.
    let mut overflow = daemon.client();
    let rejected = overflow.submit(Daemon::submit("overflow", 1, false)).unwrap();
    let Event::Rejected { reason, queued, capacity } = rejected else {
        panic!("expected Rejected, got {rejected:?}");
    };
    assert_eq!((queued, capacity), (1, 1));
    assert!(reason.contains("saturated"), "reason: {reason}");

    daemon.runner.release();
    let terminal = blocker.wait_terminal(|_| {}).unwrap();
    assert!(matches!(terminal, Event::Result { .. }));
    daemon.shutdown();
}

#[test]
fn queued_jobs_run_in_priority_order_and_cancel_works() {
    let config = FleetConfig { workers: 1, queue_capacity: 16, ..FleetConfig::default() };
    let daemon = Daemon::start(config);

    let mut blocker = daemon.client();
    let spec = Value::Object(vec![
        ("name".to_string(), Value::Str("gate".to_string())),
        ("block".to_string(), Value::Bool(true)),
    ]);
    assert!(matches!(
        blocker.submit(SubmitRequest { tenant: None, priority: 9, wait: true, spec }).unwrap(),
        Event::Accepted { .. }
    ));

    // Queue jobs in an order that differs from their priorities.
    let mut client = daemon.client();
    let mut ids = Vec::new();
    for (name, priority) in [("low", 1u8), ("high", 7), ("mid-a", 4), ("mid-b", 4), ("top", 9)] {
        let accepted = client.submit(Daemon::submit(name, priority, false)).unwrap();
        let Event::Accepted { job, .. } = accepted else { panic!("got {accepted:?}") };
        ids.push((name, job));
    }
    // Cancel one mid-priority job while it is still queued.
    let cancel_id = ids.iter().find(|(n, _)| *n == "mid-b").unwrap().1;
    client.send(RequestOp::Cancel { job: cancel_id }).unwrap();
    assert!(matches!(client.next_event().unwrap(), Event::Cancelled { job } if job == cancel_id));

    daemon.runner.release();
    // Wait until everything ran.
    let mut done = false;
    for _ in 0..400 {
        client.send(RequestOp::Status).unwrap();
        let Event::Status(info) = client.next_event().unwrap() else { panic!() };
        let finished = info
            .jobs
            .iter()
            .filter(|j| matches!(j.state, JobState::Done | JobState::Cancelled))
            .count();
        if finished == info.jobs.len() {
            done = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(done, "jobs did not drain");

    client.send(RequestOp::Status).unwrap();
    let Event::Status(info) = client.next_event().unwrap() else { panic!() };
    let order_of = |name: &str| {
        let id = ids.iter().find(|(n, _)| *n == name).unwrap().1;
        info.jobs.iter().find(|j| j.job == id).unwrap().started_order.unwrap()
    };
    // The gate ran first; the queued jobs then drained by priority,
    // ties in submission order, with the cancelled job never starting.
    assert!(order_of("top") < order_of("high"));
    assert!(order_of("high") < order_of("mid-a"));
    assert!(order_of("mid-a") < order_of("low"));
    let cancelled = info.jobs.iter().find(|j| j.job == cancel_id).unwrap();
    assert_eq!(cancelled.state, JobState::Cancelled);
    assert_eq!(cancelled.started_order, None);

    let _ = blocker.wait_terminal(|_| {}).unwrap();
    daemon.shutdown();
}

/// A connection that writes arbitrary bytes, framed or not, and reads
/// the daemon's typed answers: the malformed-traffic side of the wire
/// that [`FleetClient`] never produces.
struct RawConnection {
    writer: TcpStream,
    reader: std::io::BufReader<TcpStream>,
}

impl RawConnection {
    fn open(addr: std::net::SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).unwrap();
        let writer = stream.try_clone().unwrap();
        RawConnection { writer, reader: std::io::BufReader::new(stream) }
    }

    fn send_raw(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.flush().unwrap();
    }

    fn next_event(&mut self) -> Event {
        match lkas_fleet::read_frame(&mut self.reader, 1 << 20).unwrap() {
            lkas_fleet::FrameRead::Frame(line) => lkas_fleet::decode_response(&line).unwrap().event,
            other => panic!("expected a response frame, got {other:?}"),
        }
    }
}

#[test]
fn framing_failures_get_typed_errors_not_hangs() {
    let config = FleetConfig { max_line_bytes: 256, ..FleetConfig::default() };
    let daemon = Daemon::start(config);

    // Malformed JSON.
    let mut client = RawConnection::open(daemon.addr);
    client.send_raw("{definitely not json}\n");
    let Event::Error(err) = client.next_event() else { panic!() };
    assert_eq!(err.kind, ErrorKind::MalformedJson);

    // Unknown schema version.
    client.send_raw("{\"schema\":\"lkas-fleet-v0\",\"op\":\"Status\"}\n");
    let Event::Error(err) = client.next_event() else { panic!() };
    assert_eq!(err.kind, ErrorKind::UnsupportedSchema);

    // Right schema, nonsense shape.
    client.send_raw(&format!("{{\"schema\":\"{PROTO_SCHEMA}\",\"op\":\"Explode\"}}\n"));
    let Event::Error(err) = client.next_event() else { panic!() };
    assert_eq!(err.kind, ErrorKind::BadRequest);

    // Oversized line: drained, answered, and the connection stays
    // usable for a well-formed follow-up.
    let huge = format!("{{\"pad\":\"{}\"}}\n", "x".repeat(4096));
    client.send_raw(&huge);
    let Event::Error(err) = client.next_event() else { panic!() };
    assert_eq!(err.kind, ErrorKind::OversizedLine);
    client.send_raw(&lkas_fleet::proto::encode_request(&lkas_fleet::proto::Request::new(
        RequestOp::Status,
    )));
    assert!(matches!(client.next_event(), Event::Status(_)));

    // Truncated request: half a frame then write-side close.
    let mut stream = TcpStream::connect(daemon.addr).unwrap();
    stream.write_all(b"{\"schema\":\"lkas-fl").unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut reader = std::io::BufReader::new(stream);
    match lkas_fleet::read_frame(&mut reader, 1 << 20).unwrap() {
        lkas_fleet::FrameRead::Frame(line) => {
            let response = lkas_fleet::decode_response(&line).unwrap();
            let Event::Error(err) = response.event else { panic!("got {:?}", response.event) };
            assert_eq!(err.kind, ErrorKind::TruncatedRequest);
        }
        other => panic!("expected error frame, got {other:?}"),
    }

    // Unknown job ids are a typed BadRequest, not a hang.
    let mut client = daemon.client();
    client.send(RequestOp::Watch { job: 999 }).unwrap();
    let Event::Error(err) = client.next_event().unwrap() else { panic!() };
    assert_eq!(err.kind, ErrorKind::BadRequest);
    client.send(RequestOp::Cancel { job: 999 }).unwrap();
    let Event::Error(err) = client.next_event().unwrap() else { panic!() };
    assert_eq!(err.kind, ErrorKind::BadRequest);

    daemon.shutdown();
}

#[test]
fn failed_jobs_report_failure_and_watch_replays_terminal_state() {
    let daemon = Daemon::start(FleetConfig::default());
    let mut client = daemon.client();
    let spec = Value::Object(vec![
        ("name".to_string(), Value::Str("doomed".to_string())),
        ("fail".to_string(), Value::Bool(true)),
    ]);
    let accepted =
        client.submit(SubmitRequest { tenant: None, priority: 0, wait: true, spec }).unwrap();
    let Event::Accepted { job, .. } = accepted else { panic!("got {accepted:?}") };
    let terminal = client.wait_terminal(|_| {}).unwrap();
    let Event::Failed { message, .. } = terminal else { panic!("got {terminal:?}") };
    assert_eq!(message, "mock job failure");

    // A later Watch of the failed job replays its terminal event.
    let mut watcher = daemon.client();
    watcher.send(RequestOp::Watch { job }).unwrap();
    let Event::Failed { job: replayed, .. } = watcher.next_event().unwrap() else { panic!() };
    assert_eq!(replayed, job);
    daemon.shutdown();
}

fn stream_dropped(info: &lkas_fleet::proto::StatusInfo) -> u64 {
    info.counters.iter().find(|(name, _)| name == "stream_dropped").map(|(_, v)| *v).unwrap_or(0)
}

#[test]
fn slow_watcher_never_blocks_the_job_and_drops_are_accounted() {
    // A tiny ring plus fat per-cycle frames: the submitting client
    // never reads while the job runs, so its transport backs up, the
    // ring overflows, and the daemon must drop-oldest rather than
    // stall the worker.
    let config = FleetConfig { watch_capacity: 8, ..FleetConfig::default() };
    let daemon = Daemon::start(config);
    let mut client = daemon.client();
    let cycles = 3000u64;
    let spec = Value::Object(vec![
        ("name".to_string(), Value::Str("firehose".to_string())),
        ("cycles".to_string(), Value::Str(cycles.to_string())),
        ("fat".to_string(), Value::Bool(true)),
    ]);
    let accepted =
        client.submit(SubmitRequest { tenant: None, priority: 0, wait: true, spec }).unwrap();
    let Event::Accepted { job, .. } = accepted else { panic!("got {accepted:?}") };

    // The job must reach Done while its watcher is still stalled.
    let mut status_client = daemon.client();
    let mut done = false;
    for _ in 0..2000 {
        status_client.send(RequestOp::Status).unwrap();
        let Event::Status(info) = status_client.next_event().unwrap() else { panic!() };
        if info.jobs.iter().any(|j| j.job == job && j.state == JobState::Done) {
            done = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(done, "job must finish even though its watcher never reads");

    // Drain the stalled watcher: whatever survived the ring arrives,
    // ending in the terminal event (which is never evicted by later
    // pushes because it is the last one).
    let mut received = 0u64;
    let terminal = client.wait_terminal(|_| received += 1).unwrap();
    assert!(matches!(terminal, Event::Result { .. }), "got {terminal:?}");

    status_client.send(RequestOp::Status).unwrap();
    let Event::Status(info) = status_client.next_event().unwrap() else { panic!() };
    let dropped = stream_dropped(&info);
    assert!(dropped > 0, "the stalled watcher must have overflowed its ring");
    // Conservation: the job emitted two progress frames, `cycles`
    // cycle deltas, and one terminal event; every one of them was
    // either delivered or accounted as dropped.
    assert_eq!(received + 1 + dropped, cycles + 3);
    daemon.shutdown();
}

#[test]
fn disconnected_watcher_is_pruned_and_daemon_stays_healthy() {
    let daemon = Daemon::start(FleetConfig::default());

    // A gated job so a watcher can attach while it is running.
    let mut submitter = daemon.client();
    let spec = Value::Object(vec![
        ("name".to_string(), Value::Str("observed".to_string())),
        ("block".to_string(), Value::Bool(true)),
        ("cycles".to_string(), Value::Str("200".to_string())),
    ]);
    let accepted =
        submitter.submit(SubmitRequest { tenant: None, priority: 0, wait: false, spec }).unwrap();
    let Event::Accepted { job, .. } = accepted else { panic!("got {accepted:?}") };
    let mut status_client = daemon.client();
    for _ in 0..200 {
        status_client.send(RequestOp::Status).unwrap();
        let Event::Status(info) = status_client.next_event().unwrap() else { panic!() };
        if info.jobs.iter().any(|j| j.job == job && j.state == JobState::Running) {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    // Attach a watcher, then vanish before any event flows.
    {
        let mut watcher = daemon.client();
        watcher.send(RequestOp::Watch { job }).unwrap();
    }

    daemon.runner.release();
    let mut done = false;
    for _ in 0..400 {
        status_client.send(RequestOp::Status).unwrap();
        let Event::Status(info) = status_client.next_event().unwrap() else { panic!() };
        if info.jobs.iter().any(|j| j.job == job && j.state == JobState::Done) {
            done = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(done, "job must finish after its watcher disconnected");

    // The daemon is still fully serviceable afterwards.
    let mut client = daemon.client();
    let accepted = client.submit(Daemon::submit("aftermath", 1, true)).unwrap();
    assert!(matches!(accepted, Event::Accepted { .. }), "got {accepted:?}");
    let terminal = client.wait_terminal(|_| {}).unwrap();
    assert!(matches!(terminal, Event::Result { .. }), "got {terminal:?}");
    daemon.shutdown();
}

mod watcher_props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// For any ring capacity and event volume, delivered events
        /// plus the daemon's `stream_dropped` counter exactly equals
        /// the number of events the job emitted.
        #[test]
        fn delivered_plus_dropped_equals_emitted(
            capacity in 1usize..12,
            cycles in 1u64..150,
        ) {
            let config = FleetConfig { watch_capacity: capacity, ..FleetConfig::default() };
            let daemon = Daemon::start(config);
            let mut client = daemon.client();
            let spec = Value::Object(vec![
                ("name".to_string(), Value::Str(format!("prop-{capacity}-{cycles}"))),
                ("cycles".to_string(), Value::Str(cycles.to_string())),
            ]);
            let accepted = client
                .submit(SubmitRequest { tenant: None, priority: 0, wait: true, spec })
                .unwrap();
            prop_assert!(matches!(accepted, Event::Accepted { .. }), "got {:?}", accepted);
            let mut received = 0u64;
            let terminal = client.wait_terminal(|_| received += 1).unwrap();
            prop_assert!(matches!(terminal, Event::Result { .. }), "got {:?}", terminal);

            let mut status_client = daemon.client();
            status_client.send(RequestOp::Status).unwrap();
            let Event::Status(info) = status_client.next_event().unwrap() else { panic!() };
            prop_assert_eq!(received + 1 + stream_dropped(&info), cycles + 3);
            daemon.shutdown();
        }
    }
}
