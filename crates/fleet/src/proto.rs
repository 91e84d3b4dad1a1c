//! The fleet wire protocol: line-delimited JSON over a byte stream.
//!
//! Every frame is one JSON document followed by `\n`. Requests carry an
//! explicit `schema` tag so a daemon can refuse frames from a client it
//! cannot interpret with a *typed* error instead of a guess; responses
//! echo the same tag. Framing failures — malformed JSON, a line longer
//! than the negotiated cap, a request truncated by a mid-line
//! disconnect, an unknown schema — are all surfaced as
//! [`Event::Error`] responses with a machine-readable [`ErrorKind`],
//! never as a panic, a hang, or a silently dropped connection.
//!
//! The protocol is deliberately std-only (it rides the vendored serde
//! stand-in), so a client is ~20 lines in any language: write one JSON
//! line, read JSON lines back until a terminal event.

use serde::{Deserialize, Serialize, Value};
use std::io::BufRead;

/// Schema tag every request and response carries. Bump it whenever a
/// frame's shape changes, so a peer of another version is refused on
/// its first request rather than mid-stream.
pub const PROTO_SCHEMA: &str = "lkas-fleet-v2";

/// Default cap on one frame's byte length (1 MiB). A line longer than
/// the cap is drained to its newline and answered with
/// [`ErrorKind::OversizedLine`], so one hostile client cannot balloon
/// server memory.
pub const DEFAULT_MAX_LINE_BYTES: usize = 1 << 20;

/// One client request frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Always [`PROTO_SCHEMA`]; anything else is refused with
    /// [`ErrorKind::UnsupportedSchema`].
    pub schema: String,
    /// The operation requested.
    pub op: RequestOp,
}

impl Request {
    /// Wraps an operation in a current-schema frame.
    pub fn new(op: RequestOp) -> Self {
        Request { schema: PROTO_SCHEMA.to_string(), op }
    }
}

/// The operations a client can request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RequestOp {
    /// Submit a job for execution (or a cache answer).
    Submit(SubmitRequest),
    /// Report queue, worker, cache, and per-job state.
    Status,
    /// Subscribe to a job's event stream until it reaches a terminal
    /// state.
    Watch {
        /// The job to watch.
        job: u64,
    },
    /// Cancel a job that is still queued (running jobs finish).
    Cancel {
        /// The job to cancel.
        job: u64,
    },
    /// Stop accepting work, drain the queue, and exit the daemon.
    Shutdown,
}

/// A job submission.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubmitRequest {
    /// Tenant the job belongs to; tenants get isolated persisted
    /// [`KnobStore`](lkas::characterize::KnobStore)s.
    pub tenant: Option<String>,
    /// Scheduling priority: higher runs first; ties run in submission
    /// order.
    pub priority: u8,
    /// `true` streams the job's events (progress, telemetry, result)
    /// back on this connection; `false` answers with
    /// [`Event::Accepted`] only (poll with `Status`/`Watch`).
    pub wait: bool,
    /// Runner-interpreted job specification (see the daemon's runner
    /// docs for the accepted shapes).
    pub spec: Value,
}

/// One server response frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// Always [`PROTO_SCHEMA`].
    pub schema: String,
    /// The event carried by this frame.
    pub event: Event,
}

impl Response {
    /// Wraps an event in a current-schema frame.
    pub fn new(event: Event) -> Self {
        Response { schema: PROTO_SCHEMA.to_string(), event }
    }
}

/// Server-to-client events.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// The job was admitted to the queue.
    Accepted {
        /// Server-assigned job id.
        job: u64,
        /// Canonical content key of the job.
        key: String,
        /// Configuration fingerprint the job will be cached under.
        config_hash: String,
    },
    /// Admission control refused the job.
    Rejected {
        /// Human-readable refusal reason (e.g. queue saturation).
        reason: String,
        /// Jobs pending at refusal time.
        queued: usize,
        /// The queue's admission capacity.
        capacity: usize,
    },
    /// Execution progress of a running job.
    Progress {
        /// The job reporting progress.
        job: u64,
        /// Work units completed so far.
        completed: u64,
        /// Total work units.
        total: u64,
    },
    /// One per-cycle telemetry event from a running job's stream
    /// (`fleetctl watch` renders these live). Forwarded with
    /// drop-oldest backpressure: a slow watcher loses old frames —
    /// accounted under the daemon's `stream_dropped` counter — but
    /// never stalls the job. Folding a complete capture
    /// ([`fold`](lkas_runtime::fold)) rebuilds what the job's runs
    /// recorded.
    CycleDelta {
        /// The job the cycle belongs to.
        job: u64,
        /// A serialized [`CycleDelta`](lkas_runtime::CycleDelta)
        /// (`lkas-stream-v1`).
        delta: Value,
    },
    /// The job finished; `payload` is the runner's result document.
    Result {
        /// The finished job.
        job: u64,
        /// `true` when the payload was served from the results cache
        /// without re-simulation.
        cached: bool,
        /// The result document (byte-identical whether fresh or
        /// cached).
        payload: Value,
    },
    /// The job's runner failed.
    Failed {
        /// The failed job.
        job: u64,
        /// The runner's error message.
        message: String,
    },
    /// The job was cancelled while still queued.
    Cancelled {
        /// The cancelled job.
        job: u64,
    },
    /// Answer to a `Status` request.
    Status(StatusInfo),
    /// A typed protocol error.
    Error(WireError),
    /// Acknowledgement of a `Shutdown` request.
    ShuttingDown,
}

impl Event {
    /// `true` for events that end a job's stream (nothing follows).
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            Event::Result { .. }
                | Event::Failed { .. }
                | Event::Cancelled { .. }
                | Event::Rejected { .. }
        )
    }
}

/// Daemon-wide and per-job state, for `Status`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatusInfo {
    /// Jobs pending in the admission queue.
    pub queued: usize,
    /// The queue's admission capacity.
    pub capacity: usize,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Entries currently held by the results cache.
    pub cache_entries: usize,
    /// Every job the daemon has seen, in submission order.
    pub jobs: Vec<JobStatus>,
    /// The daemon's merged telemetry counters (`(name, value)` pairs;
    /// running jobs fold in when they finish).
    pub counters: Vec<(String, u64)>,
}

/// One job's lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    /// Admitted, waiting for a worker.
    Queued,
    /// Executing on a worker.
    Running,
    /// Finished with a result payload.
    Done,
    /// The runner returned an error.
    Failed,
    /// Cancelled while queued.
    Cancelled,
}

/// One job's row in a `Status` answer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobStatus {
    /// Server-assigned job id.
    pub job: u64,
    /// Canonical content key.
    pub key: String,
    /// Owning tenant, if any.
    pub tenant: Option<String>,
    /// Scheduling priority.
    pub priority: u8,
    /// Lifecycle state.
    pub state: JobState,
    /// Global dispatch sequence number (0-based) — the order workers
    /// *started* jobs, which is how priority scheduling is observed.
    pub started_order: Option<u64>,
    /// `true` when the result came from the cache.
    pub cached: bool,
}

/// A typed protocol-level error.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireError {
    /// Machine-readable failure class.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    /// Builds an error of `kind`.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        WireError { kind, message: message.into() }
    }
}

/// The failure classes a frame can be refused with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorKind {
    /// The line was not valid JSON.
    MalformedJson,
    /// The line exceeded the frame-size cap.
    OversizedLine,
    /// The connection closed mid-line (no terminating newline).
    TruncatedRequest,
    /// The request's `schema` tag is not one this daemon speaks.
    UnsupportedSchema,
    /// Valid JSON of the wrong shape, an unknown job id, or an invalid
    /// job specification.
    BadRequest,
}

/// Encodes a request as one wire frame (compact JSON + `\n`).
pub fn encode_request(request: &Request) -> String {
    let mut line = serde_json::to_string(request).expect("request serializes");
    line.push('\n');
    line
}

/// Encodes a response as one wire frame (compact JSON + `\n`).
pub fn encode_response(response: &Response) -> String {
    let mut line = serde_json::to_string(response).expect("response serializes");
    line.push('\n');
    line
}

/// Decodes one request frame, classifying every failure.
///
/// # Errors
///
/// [`ErrorKind::MalformedJson`] when the line is not JSON,
/// [`ErrorKind::UnsupportedSchema`] when the tag is not
/// [`PROTO_SCHEMA`], and [`ErrorKind::BadRequest`] when the JSON does
/// not have a request's shape.
pub fn decode_request(line: &str) -> Result<Request, WireError> {
    let value: Value = serde_json::from_str(line)
        .map_err(|e| WireError::new(ErrorKind::MalformedJson, e.message()))?;
    // Check the schema tag before the full shape so an old/new client
    // gets the precise "speak another version" error, not shape noise.
    if let Value::Object(fields) = &value {
        match fields.iter().find(|(name, _)| name == "schema") {
            Some((_, Value::Str(schema))) if schema != PROTO_SCHEMA => {
                return Err(WireError::new(
                    ErrorKind::UnsupportedSchema,
                    format!("schema `{schema}` is not supported (daemon speaks `{PROTO_SCHEMA}`)"),
                ));
            }
            Some((_, Value::Str(_))) => {}
            _ => {
                return Err(WireError::new(
                    ErrorKind::BadRequest,
                    "request lacks a string `schema` field",
                ));
            }
        }
    }
    serde_json::from_value(&value).map_err(|e| WireError::new(ErrorKind::BadRequest, e.message()))
}

/// Decodes one response frame.
///
/// # Errors
///
/// Same classes as [`decode_request`].
pub fn decode_response(line: &str) -> Result<Response, WireError> {
    let value: Value = serde_json::from_str(line)
        .map_err(|e| WireError::new(ErrorKind::MalformedJson, e.message()))?;
    serde_json::from_value(&value).map_err(|e| WireError::new(ErrorKind::BadRequest, e.message()))
}

/// The outcome of pulling one frame off a stream.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameRead {
    /// A complete line (without its newline).
    Frame(String),
    /// The stream ended cleanly on a frame boundary.
    Eof,
    /// The stream ended mid-line; the partial bytes are discarded.
    Truncated,
    /// The line exceeded the cap; it was drained to its newline (or
    /// EOF) so the stream stays frame-aligned.
    Oversized {
        /// Bytes the line had consumed when it was abandoned.
        at_least: usize,
    },
}

/// Reads one newline-terminated frame with a hard byte cap.
///
/// Never allocates more than `max_len` bytes for the frame. An
/// over-long line is consumed through its newline and reported as
/// [`FrameRead::Oversized`], leaving the reader aligned on the next
/// frame.
///
/// # Errors
///
/// Propagates transport I/O errors.
pub fn read_frame<R: BufRead>(reader: &mut R, max_len: usize) -> std::io::Result<FrameRead> {
    let mut buf: Vec<u8> = Vec::new();
    let mut dropped = 0usize;
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            // EOF mid-frame is a truncated request; EOF on a boundary
            // is a clean close.
            return Ok(if dropped > 0 {
                FrameRead::Oversized { at_least: dropped }
            } else if buf.is_empty() {
                FrameRead::Eof
            } else {
                FrameRead::Truncated
            });
        }
        if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
            if dropped == 0 {
                buf.extend_from_slice(&chunk[..pos]);
            }
            reader.consume(pos + 1);
            return Ok(if dropped > 0 {
                FrameRead::Oversized { at_least: dropped }
            } else if buf.len() > max_len {
                FrameRead::Oversized { at_least: buf.len() }
            } else {
                FrameRead::Frame(String::from_utf8_lossy(&buf).into_owned())
            });
        }
        if dropped == 0 {
            buf.extend_from_slice(chunk);
            if buf.len() > max_len {
                dropped = buf.len();
                buf = Vec::new();
            }
        } else {
            dropped = dropped.saturating_add(chunk.len());
        }
        let consumed = chunk.len();
        reader.consume(consumed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn submit(spec: Value) -> Request {
        Request::new(RequestOp::Submit(SubmitRequest {
            tenant: Some("acme".to_string()),
            priority: 3,
            wait: true,
            spec,
        }))
    }

    #[test]
    fn request_frames_round_trip() {
        for op in [
            RequestOp::Status,
            RequestOp::Watch { job: 9 },
            RequestOp::Cancel { job: 2 },
            RequestOp::Shutdown,
            submit(Value::Object(vec![("kind".into(), Value::Str("campaign".into()))])).op,
        ] {
            let request = Request::new(op);
            let line = encode_request(&request);
            assert!(line.ends_with('\n'));
            let back = decode_request(line.trim_end()).unwrap();
            assert_eq!(back, request);
        }
    }

    #[test]
    fn response_frames_round_trip() {
        for event in [
            Event::Accepted { job: 1, key: "k".into(), config_hash: "abc".into() },
            Event::Rejected { reason: "full".into(), queued: 4, capacity: 4 },
            Event::Progress { job: 1, completed: 3, total: 10 },
            Event::CycleDelta { job: 1, delta: Value::Object(vec![]) },
            Event::Result { job: 1, cached: true, payload: Value::Str("report".into()) },
            Event::Failed { job: 1, message: "boom".into() },
            Event::Cancelled { job: 1 },
            Event::Error(WireError::new(ErrorKind::BadRequest, "nope")),
            Event::ShuttingDown,
        ] {
            let response = Response::new(event);
            let back = decode_response(encode_response(&response).trim_end()).unwrap();
            assert_eq!(back, response);
        }
    }

    #[test]
    fn malformed_json_is_typed() {
        let err = decode_request("{not json").unwrap_err();
        assert_eq!(err.kind, ErrorKind::MalformedJson);
    }

    #[test]
    fn unknown_schema_is_typed() {
        let err = decode_request(r#"{"schema":"lkas-fleet-v99","op":"Status"}"#).unwrap_err();
        assert_eq!(err.kind, ErrorKind::UnsupportedSchema);
        assert!(err.message.contains("lkas-fleet-v99"));
        let err = decode_request(r#"{"schema":"lkas-fleet-v1","op":"Status"}"#).unwrap_err();
        assert_eq!(err.kind, ErrorKind::UnsupportedSchema, "v1 frames have another shape");
    }

    #[test]
    fn missing_schema_and_bad_shape_are_typed() {
        assert_eq!(decode_request(r#"{"op":"Status"}"#).unwrap_err().kind, ErrorKind::BadRequest);
        assert_eq!(decode_request("42").unwrap_err().kind, ErrorKind::BadRequest);
        let err = decode_request(&format!(r#"{{"schema":"{PROTO_SCHEMA}","op":"Nonsense"}}"#))
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadRequest);
    }

    #[test]
    fn frames_split_on_newlines() {
        let mut cursor = Cursor::new(b"one\ntwo\n".to_vec());
        assert_eq!(read_frame(&mut cursor, 64).unwrap(), FrameRead::Frame("one".into()));
        assert_eq!(read_frame(&mut cursor, 64).unwrap(), FrameRead::Frame("two".into()));
        assert_eq!(read_frame(&mut cursor, 64).unwrap(), FrameRead::Eof);
    }

    #[test]
    fn truncated_frame_is_reported() {
        let mut cursor = Cursor::new(b"complete\npartial".to_vec());
        assert_eq!(read_frame(&mut cursor, 64).unwrap(), FrameRead::Frame("complete".into()));
        assert_eq!(read_frame(&mut cursor, 64).unwrap(), FrameRead::Truncated);
    }

    #[test]
    fn oversized_frame_is_drained_and_reported() {
        let mut bytes = vec![b'x'; 100];
        bytes.push(b'\n');
        bytes.extend_from_slice(b"next\n");
        let mut cursor = Cursor::new(bytes);
        match read_frame(&mut cursor, 10).unwrap() {
            FrameRead::Oversized { at_least } => assert!(at_least > 10),
            other => panic!("expected oversized, got {other:?}"),
        }
        // The stream realigns on the following frame.
        assert_eq!(read_frame(&mut cursor, 10).unwrap(), FrameRead::Frame("next".into()));
    }

    #[test]
    fn oversized_frame_at_eof_still_reports_oversized() {
        let mut cursor = Cursor::new(vec![b'y'; 50]);
        match read_frame(&mut cursor, 10).unwrap() {
            FrameRead::Oversized { at_least } => assert!(at_least >= 50),
            other => panic!("expected oversized, got {other:?}"),
        }
    }
}
