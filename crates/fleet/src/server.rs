//! The fleet daemon: TCP accept loop, job registry, and dispatch.
//!
//! [`serve`] wires the crate's pieces together: every accepted
//! connection gets a thread speaking the line-delimited protocol
//! ([`crate::proto`]); submissions flow through admission control into
//! the bounded priority [`JobQueue`]; a [`WorkerPool`] drains it,
//! running each job through a pluggable [`JobRunner`]; results are
//! memoized in the fingerprint-keyed [`ResultsCache`] so identical
//! `(config-hash, job-key)` submissions are answered without
//! re-simulation; and per-tenant [`KnobStore`]s learned by jobs persist
//! through [`TenantStores`].
//!
//! The daemon is generic over the work: it knows nothing about lane
//! keeping. A [`JobRunner`] supplies the two domain operations —
//! canonical job identity and execution — which is how `lkas-bench`
//! plugs the robustness campaign and ad-hoc scenarios in without this
//! crate depending on the simulator.

use crate::cache::{CacheKey, ResultsCache};
use crate::proto::{
    decode_request, encode_response, read_frame, ErrorKind, Event, FrameRead, JobState, JobStatus,
    Request, RequestOp, Response, StatusInfo, SubmitRequest, WireError, DEFAULT_MAX_LINE_BYTES,
};
use crate::queue::JobQueue;
use crate::store::TenantStores;
use crate::worker::WorkerPool;
use lkas::characterize::KnobStore;
use lkas_runtime::{
    Counter, CycleDelta, FlightRecorder, Metrics, DEFAULT_FLIGHT_CAPACITY, DEFAULT_STREAM_CAPACITY,
};
use serde::Value;
use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Admission bound: pending jobs beyond this are rejected.
    pub queue_capacity: usize,
    /// Frame-size cap for incoming request lines.
    pub max_line_bytes: usize,
    /// Results-cache entry bound (0 disables caching).
    pub cache_capacity: usize,
    /// Directory for per-tenant persisted knob stores (`None` keeps
    /// stores session-lived).
    pub store_dir: Option<PathBuf>,
    /// Per-watcher event-ring bound. A watcher that cannot keep up
    /// loses its oldest buffered events (accounted under the daemon's
    /// `stream_dropped` counter) instead of ever blocking the job.
    pub watch_capacity: usize,
    /// Directory for per-job flight-recorder artifacts (`None`
    /// disables flight recording). A job's ring is dumped to
    /// `job<N>-flight.json` on safe-mode entry, a runner panic, or a
    /// cancellation request against the running job.
    pub flight_dir: Option<PathBuf>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: 1,
            queue_capacity: 64,
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            cache_capacity: 256,
            store_dir: None,
            watch_capacity: DEFAULT_STREAM_CAPACITY,
            flight_dir: None,
        }
    }
}

/// The path a job's flight-recorder artifact is dumped to.
fn flight_path(dir: &std::path::Path, job: u64) -> PathBuf {
    dir.join(format!("job{job}-flight.json"))
}

/// The canonical identity a runner assigns a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobKey {
    /// Canonical content key (stable across submissions of the same
    /// work).
    pub key: String,
    /// Configuration fingerprint the result will be cached under.
    pub config_hash: String,
}

/// Execution context handed to a [`JobRunner`] for one job.
pub struct JobContext {
    job: u64,
    tenant: Option<String>,
    metrics: Arc<Metrics>,
    stores: Arc<TenantStores>,
    flight: Option<Arc<FlightRecorder>>,
    emit: Box<dyn Fn(Event) + Send + Sync>,
}

impl JobContext {
    /// The server-assigned job id.
    pub fn job(&self) -> u64 {
        self.job
    }

    /// The submitting tenant, if any.
    pub fn tenant(&self) -> Option<&str> {
        self.tenant.as_deref()
    }

    /// The job's private telemetry registry. Runners record simulation
    /// telemetry here; the daemon merges it into its own registry when
    /// the job finishes.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// The submitting tenant's current persisted knob store.
    pub fn tenant_store(&self) -> Option<KnobStore> {
        self.stores.get(self.tenant.as_deref()?)
    }

    /// Persists an evolved knob store for the submitting tenant
    /// (version-monotonic merge + atomic write). A no-op without a
    /// tenant.
    ///
    /// # Errors
    ///
    /// Returns a message on a filesystem failure.
    pub fn record_store(&self, evolved: &KnobStore) -> Result<(), String> {
        match &self.tenant {
            Some(tenant) => self.stores.absorb(tenant, evolved),
            None => Ok(()),
        }
    }

    /// The job's flight recorder, when the daemon was configured with
    /// a flight directory. Runners attach it to their simulations so
    /// the ring holds real cycle events when a post-mortem dump fires.
    pub fn flight_recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.flight.as_ref()
    }

    /// Streams a progress event to the job's watchers.
    pub fn emit_progress(&self, completed: u64, total: u64) {
        (self.emit)(Event::Progress { job: self.job, completed, total });
    }

    /// Streams one per-cycle telemetry event to the job's watchers.
    pub fn emit_cycle(&self, delta: &CycleDelta) {
        (self.emit)(Event::CycleDelta { job: self.job, delta: serde::Serialize::to_value(delta) });
    }
}

/// A bounded, drop-oldest event channel from a job to one watcher
/// connection. The sending side (the worker running the job) never
/// blocks: when the watcher's connection thread cannot drain fast
/// enough the ring evicts its oldest event and reports the eviction,
/// which [`Shared::notify`] accounts under `stream_dropped`.
struct WatcherChannel {
    state: Mutex<WatcherRing>,
    ready: Condvar,
    capacity: usize,
}

struct WatcherRing {
    events: VecDeque<Event>,
    sender_closed: bool,
    receiver_closed: bool,
}

struct WatcherSender(Arc<WatcherChannel>);
struct WatcherReceiver(Arc<WatcherChannel>);

fn watcher_channel(capacity: usize) -> (WatcherSender, WatcherReceiver) {
    let channel = Arc::new(WatcherChannel {
        state: Mutex::new(WatcherRing {
            events: VecDeque::new(),
            sender_closed: false,
            receiver_closed: false,
        }),
        ready: Condvar::new(),
        capacity: capacity.max(1),
    });
    (WatcherSender(Arc::clone(&channel)), WatcherReceiver(channel))
}

impl WatcherSender {
    /// Enqueues without ever blocking: a full ring evicts its oldest
    /// event first. Returns the eviction count, or `Err(())` once the
    /// watcher's connection is gone (the caller prunes the sender).
    fn send(&self, event: Event) -> Result<u64, ()> {
        let mut state = self.0.state.lock().expect("watcher ring lock");
        if state.receiver_closed {
            return Err(());
        }
        let mut evicted = 0u64;
        while state.events.len() >= self.0.capacity {
            state.events.pop_front();
            evicted += 1;
        }
        state.events.push_back(event);
        drop(state);
        self.0.ready.notify_one();
        Ok(evicted)
    }
}

impl Drop for WatcherSender {
    fn drop(&mut self) {
        self.0.state.lock().expect("watcher ring lock").sender_closed = true;
        self.0.ready.notify_all();
    }
}

impl WatcherReceiver {
    /// Blocks for the next buffered event; `None` once the sender side
    /// closed and the ring is drained.
    fn recv(&self) -> Option<Event> {
        let mut state = self.0.state.lock().expect("watcher ring lock");
        loop {
            if let Some(event) = state.events.pop_front() {
                return Some(event);
            }
            if state.sender_closed {
                return None;
            }
            state = self.0.ready.wait(state).expect("watcher ring lock");
        }
    }
}

impl Drop for WatcherReceiver {
    fn drop(&mut self) {
        self.0.state.lock().expect("watcher ring lock").receiver_closed = true;
    }
}

/// The domain plug-in: canonical job identity plus execution.
pub trait JobRunner: Send + Sync {
    /// Derives the canonical `(key, config-hash)` identity of `spec`.
    /// Identity must be a pure function of the spec and any state the
    /// result depends on (e.g. the tenant's store version for
    /// store-dependent runs), because it is the cache key.
    ///
    /// # Errors
    ///
    /// Returns a message for an invalid spec (surfaced to the client as
    /// a [`ErrorKind::BadRequest`]).
    fn job_key(
        &self,
        spec: &Value,
        stores: &TenantStores,
        tenant: Option<&str>,
    ) -> Result<JobKey, String>;

    /// Executes the job, emitting progress/telemetry through `ctx`.
    /// The returned document is what clients receive (and what the
    /// cache replays byte-identically).
    ///
    /// # Errors
    ///
    /// Returns a message on failure (surfaced as [`Event::Failed`]).
    fn run(&self, spec: &Value, ctx: &JobContext) -> Result<Value, String>;
}

struct JobRecord {
    key: String,
    config_hash: String,
    tenant: Option<String>,
    priority: u8,
    spec: Value,
    state: JobState,
    started_order: Option<u64>,
    cached: bool,
    result: Option<Arc<Value>>,
    error: Option<String>,
    watchers: Vec<WatcherSender>,
    flight: Option<Arc<FlightRecorder>>,
}

impl JobRecord {
    fn terminal_event(&self, job: u64) -> Option<Event> {
        match self.state {
            JobState::Done => Some(Event::Result {
                job,
                cached: self.cached,
                payload: self.result.as_deref().cloned().unwrap_or(Value::Null),
            }),
            JobState::Failed => {
                Some(Event::Failed { job, message: self.error.clone().unwrap_or_default() })
            }
            JobState::Cancelled => Some(Event::Cancelled { job }),
            JobState::Queued | JobState::Running => None,
        }
    }
}

struct Shared {
    config: FleetConfig,
    runner: Arc<dyn JobRunner>,
    queue: Arc<JobQueue<u64>>,
    cache: ResultsCache,
    stores: Arc<TenantStores>,
    metrics: Metrics,
    jobs: Mutex<HashMap<u64, JobRecord>>,
    next_job: AtomicU64,
    dispatch: AtomicU64,
    shutdown: AtomicBool,
    addr: SocketAddr,
}

impl Shared {
    /// Sends `event` to every watcher of `job` without ever blocking:
    /// a watcher whose ring is full loses its oldest buffered event
    /// (accounted under `stream_dropped`), and watchers whose
    /// connections went away are pruned. A terminal event also ends
    /// the watch list.
    fn notify(&self, job: u64, event: Event) {
        let mut dropped = 0u64;
        {
            let mut jobs = self.jobs.lock().expect("jobs lock");
            if let Some(record) = jobs.get_mut(&job) {
                record.watchers.retain(|w| match w.send(event.clone()) {
                    Ok(evicted) => {
                        dropped += evicted;
                        true
                    }
                    Err(()) => false,
                });
                if event.is_terminal() {
                    record.watchers.clear();
                }
            }
        }
        if dropped > 0 {
            self.metrics.add(Counter::StreamDropped, dropped);
        }
    }

    fn status(&self) -> StatusInfo {
        let jobs = self.jobs.lock().expect("jobs lock");
        let mut ids: Vec<u64> = jobs.keys().copied().collect();
        ids.sort_unstable();
        let rows = ids
            .iter()
            .map(|&id| {
                let r = &jobs[&id];
                JobStatus {
                    job: id,
                    key: r.key.clone(),
                    tenant: r.tenant.clone(),
                    priority: r.priority,
                    state: r.state,
                    started_order: r.started_order,
                    cached: r.cached,
                }
            })
            .collect();
        drop(jobs);
        StatusInfo {
            queued: self.queue.len(),
            capacity: self.queue.capacity(),
            workers: self.config.workers,
            cache_entries: self.cache.len(),
            jobs: rows,
            counters: self.metrics.snapshot().counters,
        }
    }
}

/// Runs the daemon on `listener` until a client requests shutdown:
/// accepts connections, schedules jobs through the bounded priority
/// queue, and drains in-flight work before returning.
///
/// # Errors
///
/// Returns the listener's address-resolution error, if any; per-
/// connection I/O errors only end their own connection.
pub fn serve(
    listener: TcpListener,
    runner: Arc<dyn JobRunner>,
    config: FleetConfig,
) -> std::io::Result<()> {
    let addr = listener.local_addr()?;
    let queue = Arc::new(JobQueue::new(config.queue_capacity));
    let shared = Arc::new(Shared {
        runner,
        queue: Arc::clone(&queue),
        cache: ResultsCache::new(config.cache_capacity),
        stores: Arc::new(TenantStores::new(config.store_dir.clone())),
        metrics: Metrics::new(),
        jobs: Mutex::new(HashMap::new()),
        next_job: AtomicU64::new(1),
        dispatch: AtomicU64::new(0),
        shutdown: AtomicBool::new(false),
        addr,
        config,
    });

    let pool = {
        let shared = Arc::clone(&shared);
        WorkerPool::spawn(shared.config.workers, queue, move |job| run_job(&shared, job))
    };

    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("fleet-conn".to_string())
            .spawn(move || handle_connection(&shared, stream))
            .expect("spawn fleet connection thread");
    }

    shared.queue.close();
    pool.join();
    Ok(())
}

/// Executes one dequeued job on a worker thread.
fn run_job(shared: &Arc<Shared>, job: u64) {
    let flight = shared.config.flight_dir.as_ref().map(|dir| {
        Arc::new(FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY).with_auto_dump(flight_path(dir, job)))
    });
    let (spec, tenant) = {
        let mut jobs = shared.jobs.lock().expect("jobs lock");
        let Some(record) = jobs.get_mut(&job) else { return };
        if record.state != JobState::Queued {
            // Cancelled between queue removal racing and dispatch.
            return;
        }
        record.state = JobState::Running;
        record.started_order = Some(shared.dispatch.fetch_add(1, Ordering::SeqCst));
        // Held in the record so a cancellation request against the
        // running job can dump the ring from the connection thread.
        record.flight = flight.clone();
        (record.spec.clone(), record.tenant.clone())
    };

    let metrics = Arc::new(Metrics::new());
    let ctx = JobContext {
        job,
        tenant,
        metrics: Arc::clone(&metrics),
        stores: Arc::clone(&shared.stores),
        flight: flight.clone(),
        emit: {
            let shared = Arc::clone(shared);
            Box::new(move |event| shared.notify(job, event))
        },
    };
    shared.metrics.incr(Counter::FleetCacheMisses);
    let runner = Arc::clone(&shared.runner);
    let outcome = match catch_unwind(AssertUnwindSafe(|| runner.run(&spec, &ctx))) {
        Ok(outcome) => outcome,
        Err(_) => {
            // Post-mortem: the ring holds the cycles leading up to the
            // panic (best-effort — the job is already failed).
            if let (Some(f), Some(dir)) = (&flight, &shared.config.flight_dir) {
                let _ = f.dump(flight_path(dir, job), "runner_panic");
            }
            Err("job runner panicked".to_string())
        }
    };
    shared.metrics.merge_from(&metrics);
    if let Some(f) = &flight {
        // Dump accounting happens daemon-side only, never inside a
        // job's own registry, so cached/streamed result identity is
        // unaffected.
        shared.metrics.add(Counter::FlightDumps, f.dumps());
    }

    let event = {
        let mut jobs = shared.jobs.lock().expect("jobs lock");
        let Some(record) = jobs.get_mut(&job) else { return };
        record.flight = None;
        match outcome {
            Ok(payload) => {
                let payload = Arc::new(payload);
                shared.cache.put(
                    CacheKey {
                        config_hash: record.config_hash.clone(),
                        job_key: record.key.clone(),
                    },
                    Arc::clone(&payload),
                );
                record.state = JobState::Done;
                record.result = Some(payload);
                record.terminal_event(job)
            }
            Err(message) => {
                record.state = JobState::Failed;
                record.error = Some(message);
                record.terminal_event(job)
            }
        }
    };
    if let Some(event) = event {
        shared.notify(job, event);
    }
}

fn write_event(stream: &mut TcpStream, event: Event) -> std::io::Result<()> {
    let frame = encode_response(&Response::new(event));
    stream.write_all(frame.as_bytes())?;
    stream.flush()
}

/// Speaks the protocol on one accepted connection until EOF, a fatal
/// framing error, or shutdown.
fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        let line = match read_frame(&mut reader, shared.config.max_line_bytes) {
            Ok(FrameRead::Frame(line)) => line,
            Ok(FrameRead::Eof) => return,
            Ok(FrameRead::Truncated) => {
                // Mid-line disconnect: answer (best-effort) and close.
                let err = WireError::new(
                    ErrorKind::TruncatedRequest,
                    "connection closed mid-frame; request discarded",
                );
                let _ = write_event(&mut writer, Event::Error(err));
                return;
            }
            Ok(FrameRead::Oversized { at_least }) => {
                let err = WireError::new(
                    ErrorKind::OversizedLine,
                    format!(
                        "frame of at least {at_least} bytes exceeds the {} byte cap",
                        shared.config.max_line_bytes
                    ),
                );
                if write_event(&mut writer, Event::Error(err)).is_err() {
                    return;
                }
                continue;
            }
            Err(_) => return,
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = match decode_request(&line) {
            Ok(request) => request,
            Err(err) => {
                if write_event(&mut writer, Event::Error(err)).is_err() {
                    return;
                }
                continue;
            }
        };
        if handle_request(shared, &mut writer, request).is_err() {
            return;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}

fn handle_request(
    shared: &Arc<Shared>,
    writer: &mut TcpStream,
    request: Request,
) -> std::io::Result<()> {
    match request.op {
        RequestOp::Status => write_event(writer, Event::Status(shared.status())),
        RequestOp::Submit(submit) => handle_submit(shared, writer, submit),
        RequestOp::Watch { job } => handle_watch(shared, writer, job),
        RequestOp::Cancel { job } => handle_cancel(shared, writer, job),
        RequestOp::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            shared.queue.close();
            let ack = write_event(writer, Event::ShuttingDown);
            // Unblock the accept loop so `serve` can notice the flag.
            let _ = TcpStream::connect(shared.addr);
            ack
        }
    }
}

fn handle_submit(
    shared: &Arc<Shared>,
    writer: &mut TcpStream,
    submit: SubmitRequest,
) -> std::io::Result<()> {
    let SubmitRequest { tenant, priority, wait, spec } = submit;
    let identity = shared.runner.job_key(&spec, &shared.stores, tenant.as_deref());
    let JobKey { key, config_hash } = match identity {
        Ok(identity) => identity,
        Err(message) => {
            return write_event(
                writer,
                Event::Error(WireError::new(ErrorKind::BadRequest, message)),
            );
        }
    };

    let cache_key = CacheKey { config_hash: config_hash.clone(), job_key: key.clone() };
    if let Some(payload) = shared.cache.get(&cache_key) {
        // Served straight from the fingerprint cache: the job never
        // touches the queue or a worker, and the payload is the very
        // Value the cold run produced — byte-identical on the wire.
        shared.metrics.incr(Counter::FleetCacheHits);
        let job = shared.next_job.fetch_add(1, Ordering::SeqCst);
        shared.jobs.lock().expect("jobs lock").insert(
            job,
            JobRecord {
                key: key.clone(),
                config_hash: config_hash.clone(),
                tenant,
                priority,
                spec,
                state: JobState::Done,
                started_order: None,
                cached: true,
                result: Some(Arc::clone(&payload)),
                error: None,
                watchers: Vec::new(),
                flight: None,
            },
        );
        write_event(writer, Event::Accepted { job, key, config_hash })?;
        if wait {
            write_event(writer, Event::Result { job, cached: true, payload: (*payload).clone() })?;
        }
        return Ok(());
    }

    let job = shared.next_job.fetch_add(1, Ordering::SeqCst);
    let receiver = {
        let mut jobs = shared.jobs.lock().expect("jobs lock");
        let mut record = JobRecord {
            key: key.clone(),
            config_hash: config_hash.clone(),
            tenant,
            priority,
            spec,
            state: JobState::Queued,
            started_order: None,
            cached: false,
            result: None,
            error: None,
            watchers: Vec::new(),
            flight: None,
        };
        let receiver = wait.then(|| {
            let (sender, receiver) = watcher_channel(shared.config.watch_capacity);
            record.watchers.push(sender);
            receiver
        });
        jobs.insert(job, record);
        receiver
    };

    if let Err(admission) = shared.queue.push(priority, job) {
        shared.metrics.incr(Counter::FleetJobsRejected);
        shared.jobs.lock().expect("jobs lock").remove(&job);
        let (queued, capacity) = (shared.queue.len(), shared.queue.capacity());
        return write_event(
            writer,
            Event::Rejected { reason: admission.reason(), queued, capacity },
        );
    }
    shared.metrics.incr(Counter::FleetJobsAccepted);
    write_event(writer, Event::Accepted { job, key, config_hash })?;

    if let Some(receiver) = receiver {
        stream_events(writer, &receiver)?;
    }
    Ok(())
}

/// Forwards watcher events onto the wire until a terminal one.
fn stream_events(writer: &mut TcpStream, receiver: &WatcherReceiver) -> std::io::Result<()> {
    while let Some(event) = receiver.recv() {
        let terminal = event.is_terminal();
        write_event(writer, event)?;
        if terminal {
            break;
        }
    }
    Ok(())
}

fn handle_watch(shared: &Arc<Shared>, writer: &mut TcpStream, job: u64) -> std::io::Result<()> {
    let outcome = {
        let mut jobs = shared.jobs.lock().expect("jobs lock");
        match jobs.get_mut(&job) {
            None => Err(WireError::new(ErrorKind::BadRequest, format!("unknown job {job}"))),
            Some(record) => match record.terminal_event(job) {
                Some(event) => Ok(Err(event)),
                None => {
                    let (sender, receiver) = watcher_channel(shared.config.watch_capacity);
                    record.watchers.push(sender);
                    Ok(Ok(receiver))
                }
            },
        }
    };
    match outcome {
        Err(err) => write_event(writer, Event::Error(err)),
        Ok(Err(terminal)) => write_event(writer, terminal),
        Ok(Ok(receiver)) => stream_events(writer, &receiver),
    }
}

fn handle_cancel(shared: &Arc<Shared>, writer: &mut TcpStream, job: u64) -> std::io::Result<()> {
    let removed = shared.queue.remove_if(|&id| id == job);
    let mut post_mortem: Option<Arc<FlightRecorder>> = None;
    let event = {
        let mut jobs = shared.jobs.lock().expect("jobs lock");
        match jobs.get_mut(&job) {
            None => {
                Event::Error(WireError::new(ErrorKind::BadRequest, format!("unknown job {job}")))
            }
            Some(record) if record.state == JobState::Queued && !removed.is_empty() => {
                record.state = JobState::Cancelled;
                Event::Cancelled { job }
            }
            Some(record) => {
                // A running job finishes, but the cancellation request
                // is a post-mortem trigger: its flight ring is dumped
                // (outside the lock) so the requester can inspect what
                // the job was doing.
                if record.state == JobState::Running {
                    post_mortem = record.flight.clone();
                }
                Event::Error(WireError::new(
                    ErrorKind::BadRequest,
                    format!("job {job} is {:?} and cannot be cancelled", record.state),
                ))
            }
        }
    };
    if let (Some(f), Some(dir)) = (post_mortem, &shared.config.flight_dir) {
        let _ = f.dump(flight_path(dir, job), "cancel_requested");
    }
    if matches!(event, Event::Cancelled { .. }) {
        shared.notify(job, Event::Cancelled { job });
    }
    write_event(writer, event)
}
