//! End-to-end acceptance for the fleet service with the real
//! lane-keeping runner: ≥8 mixed-priority grid jobs over the socket,
//! priority-ordered scheduling, streamed per-cycle telemetry, a
//! reassembled report byte-identical to the single-process campaign,
//! cache replay with `CampaignEvaluations` unchanged, and an
//! admission-control rejection.

use lkas_bench::fleet::{BenchRunner, FleetSpec, ENTRY_SCHEMA};
use lkas_bench::robustness::{
    assemble_report, report_json, run_campaign, CampaignConfig, CampaignEntry,
};
use lkas_fleet::{
    serve, Event, FleetClient, FleetConfig, JobState, RequestOp, StatusInfo, SubmitRequest,
};
use lkas_runtime::Campaign;
use serde::Value;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn start_daemon(config: FleetConfig) -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || {
        serve(listener, Arc::new(BenchRunner), config).expect("serve");
    });
    (addr, handle)
}

fn client(addr: SocketAddr) -> FleetClient {
    FleetClient::connect(addr).expect("connect")
}

fn status_of(addr: SocketAddr) -> StatusInfo {
    let mut c = client(addr);
    c.send(RequestOp::Status).expect("send status");
    match c.next_event().expect("status event") {
        Event::Status(info) => info,
        other => panic!("unexpected status answer {other:?}"),
    }
}

fn counter(info: &StatusInfo, name: &str) -> u64 {
    info.counters.iter().find(|(n, _)| n == name).map(|(_, c)| *c).unwrap_or(0)
}

fn wait_until(deadline: Duration, mut done: impl FnMut() -> bool) {
    let start = Instant::now();
    while !done() {
        assert!(start.elapsed() < deadline, "timed out waiting for daemon state");
        std::thread::sleep(Duration::from_millis(100));
    }
}

fn shutdown(addr: SocketAddr, handle: JoinHandle<()>) {
    let mut c = client(addr);
    c.send(RequestOp::Shutdown).expect("send shutdown");
    let _ = c.next_event();
    handle.join().expect("daemon thread");
}

/// Unwraps a grid-job payload into its canonical key and entry.
fn decode_entry(payload: &Value) -> (String, CampaignEntry) {
    let Value::Object(fields) = payload else { panic!("payload is not an object") };
    let get =
        |name: &str| fields.iter().find(|(n, _)| n == name).map(|(_, v)| v).expect("payload field");
    assert_eq!(get("schema"), &Value::Str(ENTRY_SCHEMA.to_string()));
    let Value::Str(key) = get("key") else { panic!("key is not a string") };
    (key.clone(), serde_json::from_value(get("entry")).expect("decode entry"))
}

#[test]
fn fleet_reassembles_the_campaign_byte_identically_and_replays_from_cache() {
    let cfg = CampaignConfig::new(7).with_quick(true);
    let grid = cfg.grid();
    assert!(grid.len() >= 8, "the quick grid must give us ≥8 jobs (got {})", grid.len());

    let (addr, handle) = start_daemon(FleetConfig { workers: 1, ..FleetConfig::default() });

    // Occupy the single worker with the first grid point so everything
    // submitted afterwards queues up and drains strictly by priority.
    let mut submitter = client(addr);
    let submit = |submitter: &mut FleetClient, index: usize, priority: u8| -> u64 {
        let spec = FleetSpec::GridPoint { cfg, index }.to_value();
        match submitter
            .submit(SubmitRequest { tenant: None, priority, wait: false, spec })
            .expect("submit")
        {
            Event::Accepted { job, .. } => job,
            other => panic!("unexpected submit answer {other:?}"),
        }
    };
    let first_job = submit(&mut submitter, 0, 0);
    wait_until(Duration::from_secs(60), || {
        status_of(addr).jobs.iter().any(|j| j.job == first_job && j.state == JobState::Running)
    });

    // The remaining grid points at mixed priorities, all queued behind
    // the running job on one connection (submission order is the
    // priority tie-breaker).
    let priorities: Vec<u8> =
        (1..grid.len()).map(|index| [0u8, 3, 1, 4, 2, 5][index % 6]).collect();
    let queued_jobs: Vec<(u64, u8)> = priorities
        .iter()
        .enumerate()
        .map(|(offset, &priority)| (submit(&mut submitter, offset + 1, priority), priority))
        .collect();

    // Attach a watcher to the job that must run next (highest priority,
    // earliest submission) while it is still queued: its progress and
    // per-cycle telemetry frames must stream to us before its result.
    let &(watched_job, _) = queued_jobs
        .iter()
        .max_by_key(|(job, priority)| (*priority, std::cmp::Reverse(*job)))
        .expect("queued jobs");
    let streamed = std::thread::spawn(move || {
        let mut watcher = client(addr);
        watcher.send(RequestOp::Watch { job: watched_job }).expect("send watch");
        let mut progress = 0usize;
        let mut cycles = 0usize;
        let terminal = watcher
            .wait_terminal(|event| match event {
                Event::Progress { .. } => progress += 1,
                Event::CycleDelta { job, delta } => {
                    cycles += 1;
                    // Live per-cycle frames carry the stream schema's
                    // virtual-timestamp invariant over the wire.
                    let Value::Object(fields) = delta else { panic!("cycle delta shape") };
                    let num = |name: &str| {
                        fields
                            .iter()
                            .find(|(n, _)| n == name)
                            .and_then(|(_, v)| v.as_u64())
                            .expect("cycle delta field")
                    };
                    assert_eq!(num("ts_us"), num("cycle") * lkas_runtime::CYCLE_TICKS);
                    assert_eq!(*job, watched_job);
                }
                _ => {}
            })
            .expect("watch stream");
        assert!(matches!(terminal, Event::Result { cached: false, .. }));
        (progress, cycles)
    });

    // Drain: every job reaches a terminal state.
    wait_until(Duration::from_secs(600), || {
        status_of(addr).jobs.iter().all(|j| j.state == JobState::Done)
    });
    let (progress, cycles) = streamed.join().expect("watcher thread");
    assert!(progress >= 1, "watched job streamed no progress");
    assert!(cycles >= 1, "watched job streamed no live per-cycle events");

    // Priority-ordered scheduling: among the jobs that queued behind
    // the blocker, dispatch order must be (priority desc, submission
    // asc).
    let info = status_of(addr);
    let mut dispatched: Vec<(u64, u8, u64)> = queued_jobs
        .iter()
        .map(|&(job, priority)| {
            let row = info.jobs.iter().find(|j| j.job == job).expect("job row");
            (job, priority, row.started_order.expect("dispatched"))
        })
        .collect();
    dispatched.sort_by_key(|&(_, _, order)| order);
    let mut expected = queued_jobs.clone();
    expected.sort_by_key(|&(job, priority)| (std::cmp::Reverse(priority), job));
    assert_eq!(
        dispatched.iter().map(|&(job, priority, _)| (job, priority)).collect::<Vec<_>>(),
        expected,
        "queued jobs must drain by (priority desc, submission asc)"
    );

    // Telemetry accounting: one evaluation per grid point, no cache
    // traffic yet beyond the 14 misses.
    assert_eq!(counter(&info, "campaign_evaluations"), grid.len() as u64);
    assert_eq!(counter(&info, "fleet_jobs_accepted"), grid.len() as u64);
    assert_eq!(counter(&info, "fleet_cache_misses"), grid.len() as u64);
    assert_eq!(counter(&info, "fleet_cache_hits"), 0);

    // Collect every entry (watch replays the terminal result for done
    // jobs) and reassemble the report in canonical grid order.
    let mut all_jobs: Vec<u64> = vec![first_job];
    all_jobs.extend(queued_jobs.iter().map(|&(job, _)| job));
    let mut by_key: HashMap<String, (CampaignEntry, String)> = HashMap::new();
    for job in all_jobs {
        let mut c = client(addr);
        c.send(RequestOp::Watch { job }).expect("send watch");
        match c.wait_terminal(|_| {}).expect("replay") {
            Event::Result { payload, .. } => {
                let (key, entry) = decode_entry(&payload);
                let pretty = serde_json::to_string_pretty(&payload).expect("pretty");
                by_key.insert(key, (entry, pretty));
            }
            other => panic!("unexpected terminal {other:?}"),
        }
    }
    let entries: Vec<CampaignEntry> =
        grid.iter().map(|(key, _)| by_key.get(key).expect("grid key covered").0.clone()).collect();
    let fleet_report = report_json(&assemble_report(&cfg, entries));
    let reference = report_json(&run_campaign(&cfg, None));
    assert_eq!(
        fleet_report.as_bytes(),
        reference.as_bytes(),
        "fleet-assembled report must be byte-identical to the single-process campaign"
    );

    // Resubmitting a grid point is served from the fingerprint cache:
    // byte-identical payload, no new evaluation.
    let resubmit_index = 3;
    let spec = FleetSpec::GridPoint { cfg, index: resubmit_index }.to_value();
    let mut c = client(addr);
    match c.submit(SubmitRequest { tenant: None, priority: 0, wait: true, spec }).expect("resubmit")
    {
        Event::Accepted { .. } => {}
        other => panic!("unexpected resubmit answer {other:?}"),
    }
    match c.wait_terminal(|_| {}).expect("cached result") {
        Event::Result { cached, payload, .. } => {
            assert!(cached, "resubmission must be served from the cache");
            let pretty = serde_json::to_string_pretty(&payload).expect("pretty");
            assert_eq!(
                pretty, by_key[&grid[resubmit_index].0].1,
                "cache replay must be byte-identical to the cold result"
            );
        }
        other => panic!("unexpected terminal {other:?}"),
    }
    let after = status_of(addr);
    assert_eq!(
        counter(&after, "campaign_evaluations"),
        grid.len() as u64,
        "a cache hit must not re-evaluate"
    );
    assert_eq!(counter(&after, "fleet_cache_hits"), 1);

    shutdown(addr, handle);
}

#[test]
fn saturated_daemon_rejects_submissions_with_reason() {
    // Capacity 0: admission control rejects before any simulation runs.
    let (addr, handle) =
        start_daemon(FleetConfig { workers: 1, queue_capacity: 0, ..FleetConfig::default() });
    let cfg = CampaignConfig::new(7).with_quick(true);
    let spec = FleetSpec::GridPoint { cfg, index: 0 }.to_value();
    let mut c = client(addr);
    match c.submit(SubmitRequest { tenant: None, priority: 9, wait: true, spec }).expect("submit") {
        Event::Rejected { reason, queued, capacity } => {
            assert!(reason.contains("saturated"), "reason: {reason}");
            assert_eq!((queued, capacity), (0, 0));
        }
        other => panic!("unexpected answer {other:?}"),
    }
    let info = status_of(addr);
    assert_eq!(counter(&info, "fleet_jobs_rejected"), 1);
    assert_eq!(counter(&info, "campaign_evaluations"), 0);
    shutdown(addr, handle);
}
