//! Per-cycle trace recording, exportable as Chrome trace-event JSON.
//!
//! A [`TraceRecorder`] collects bounded per-run ring buffers of trace
//! events: one *span* per pipeline [`Stage`] per control cycle, plus
//! *instant* events for situation switches, knob reconfigurations,
//! injected-fault activations, and degradation entries/exits. Every
//! HiL run gets its own [`TraceSink`] (one Chrome `pid`), so a sweep's
//! runs land in separate process tracks of the same trace.
//!
//! Timestamps are **virtual**: a control cycle occupies
//! [`CYCLE_TICKS`] microseconds of trace time, each stage a fixed
//! [`STAGE_TICKS`]-wide slot in pipeline order, and instants an ordered
//! sequence near the end of the cycle. Nothing wall-clock enters the
//! export, so the trace of a given run is **byte-identical** across
//! repetitions and executor thread counts (asserted in
//! `crates/bench/tests/telemetry_gate.rs`) — the trace shows *what
//! happened in which cycle*, while the latency histograms of
//! [`Metrics`] carry the real timing distribution.
//!
//! The per-cycle telemetry stream ([`crate::TelemetryBus`]) stamps its
//! [`crate::CycleDelta`] events in the same tick base
//! (`cycle × CYCLE_TICKS`), so trace spans and streamed events line up
//! on a common virtual clock.
//!
//! Open an exported `.trace.json` in Perfetto
//! (<https://ui.perfetto.dev>, "Open trace file") or
//! `chrome://tracing`.
//!
//! [`Metrics`]: crate::Metrics

use crate::metrics::Stage;
use std::collections::VecDeque;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Virtual trace microseconds occupied by one control cycle.
pub const CYCLE_TICKS: u64 = 1000;

/// Virtual width of one stage's span slot within a cycle.
pub const STAGE_TICKS: u64 = 120;

/// Offset of the instant-event area within a cycle's tick window.
const INSTANT_BASE: u64 = 850;

/// Default per-run event capacity of the ring buffer.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

#[derive(Debug, Clone)]
enum Event {
    /// One pipeline stage ran in `cycle`.
    Span { cycle: u64, stage: Stage },
    /// A point event (`seq`-th of its cycle, for stable ordering).
    Instant { cycle: u64, seq: u64, name: &'static str, detail: Option<String> },
}

#[derive(Debug, Default)]
struct RunTrace {
    events: VecDeque<Event>,
    dropped: u64,
    last_cycle: u64,
    next_seq: u64,
}

/// One registered run: its id, its name and its trace buffer.
type RunSlot = (u64, String, Arc<Mutex<RunTrace>>);

/// Collects the per-run trace buffers of one sweep and renders them as
/// a single Chrome trace-event JSON document.
#[derive(Debug)]
pub struct TraceRecorder {
    capacity: usize,
    runs: Mutex<Vec<RunSlot>>,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        TraceRecorder::new()
    }
}

impl TraceRecorder {
    /// A recorder with the default per-run capacity
    /// ([`DEFAULT_TRACE_CAPACITY`] events; oldest events are evicted
    /// first once a run exceeds it).
    pub fn new() -> Self {
        TraceRecorder::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// A recorder bounding each run to `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceRecorder { capacity: capacity.max(1), runs: Mutex::new(Vec::new()) }
    }

    /// Registers a new run and returns its sink. `pid` becomes the
    /// Chrome process id (runs are exported in ascending `pid` order);
    /// `name` labels the process track in Perfetto.
    pub fn sink(&self, pid: u64, name: impl Into<String>) -> TraceSink {
        let inner = Arc::new(Mutex::new(RunTrace::default()));
        self.runs.lock().expect("trace run list lock").push((pid, name.into(), Arc::clone(&inner)));
        TraceSink { capacity: self.capacity, inner }
    }

    /// Total events currently buffered across runs.
    pub fn event_count(&self) -> usize {
        let runs = self.runs.lock().expect("trace run list lock");
        runs.iter().map(|(_, _, r)| r.lock().expect("trace run lock").events.len()).sum()
    }

    /// Renders the whole recording as a Chrome trace-event JSON
    /// document (deterministic bytes: runs sorted by `pid`, events in
    /// emission order, virtual timestamps only).
    pub fn chrome_trace_json(&self) -> String {
        let runs = self.runs.lock().expect("trace run list lock");
        let mut sorted: Vec<_> = runs.iter().collect();
        sorted.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));

        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let mut first = true;
        let mut push = |line: String, out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&line);
        };
        for (pid, name, run) in sorted {
            let run = run.lock().expect("trace run lock");
            push(
                format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                     \"args\":{{\"name\":\"{}\",\"dropped_events\":{}}}}}",
                    escape_json(name),
                    run.dropped
                ),
                &mut out,
            );
            for event in &run.events {
                push(render_event(*pid, event), &mut out);
            }
        }
        out.push_str("\n]}\n");
        out
    }

    /// Writes [`TraceRecorder::chrome_trace_json`] to `path` atomically
    /// (temp file + rename), creating parent directories as needed.
    ///
    /// # Errors
    ///
    /// Returns any underlying filesystem error.
    pub fn write_json(&self, path: impl AsRef<Path>) -> io::Result<()> {
        crate::metrics::write_atomic(path.as_ref(), self.chrome_trace_json().as_bytes())
    }
}

/// The per-run event sink handed to one HiL simulation. Cloning shares
/// the underlying buffer (the sink is used from a single run, so the
/// internal mutex is uncontended).
#[derive(Debug, Clone)]
pub struct TraceSink {
    capacity: usize,
    inner: Arc<Mutex<RunTrace>>,
}

impl TraceSink {
    /// Records that `stage` ran in `cycle` (one fixed-width span in the
    /// cycle's stage slot).
    pub fn span(&self, cycle: u64, stage: Stage) {
        self.push(Event::Span { cycle, stage });
    }

    /// Records an instant event in `cycle`. Events of one cycle keep
    /// their emission order in the export.
    pub fn instant(&self, cycle: u64, name: &'static str, detail: Option<String>) {
        let mut run = self.inner.lock().expect("trace run lock");
        if cycle != run.last_cycle {
            run.last_cycle = cycle;
            run.next_seq = 0;
        }
        let seq = run.next_seq;
        run.next_seq += 1;
        push_bounded(&mut run, self.capacity, Event::Instant { cycle, seq, name, detail });
    }

    fn push(&self, event: Event) {
        let mut run = self.inner.lock().expect("trace run lock");
        push_bounded(&mut run, self.capacity, event);
    }
}

fn push_bounded(run: &mut RunTrace, capacity: usize, event: Event) {
    if run.events.len() >= capacity {
        run.events.pop_front();
        run.dropped += 1;
    }
    run.events.push_back(event);
}

fn render_event(pid: u64, event: &Event) -> String {
    match event {
        Event::Span { cycle, stage } => {
            let ts = cycle * CYCLE_TICKS + (*stage as u64) * STAGE_TICKS;
            format!(
                "{{\"name\":\"{}\",\"cat\":\"stage\",\"ph\":\"X\",\"ts\":{ts},\
                 \"dur\":{STAGE_TICKS},\"pid\":{pid},\"tid\":0,\"args\":{{\"cycle\":{cycle}}}}}",
                stage.name()
            )
        }
        Event::Instant { cycle, seq, name, detail } => {
            // Instants squeeze into the tail of the cycle window; the
            // clamp keeps a pathological burst from leaking into the
            // next cycle's slot.
            let ts =
                cycle * CYCLE_TICKS + INSTANT_BASE + (*seq).min(CYCLE_TICKS - INSTANT_BASE - 1);
            let args = match detail {
                Some(d) => format!("{{\"cycle\":{cycle},\"detail\":\"{}\"}}", escape_json(d)),
                None => format!("{{\"cycle\":{cycle}}}"),
            };
            format!(
                "{{\"name\":\"{}\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"p\",\"ts\":{ts},\
                 \"pid\":{pid},\"tid\":0,\"args\":{args}}}",
                escape_json(name)
            )
        }
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_and_instants_render_deterministically() {
        let make = || {
            let rec = TraceRecorder::new();
            let sink = rec.sink(1, "run-a");
            sink.span(0, Stage::Render);
            sink.span(0, Stage::Control);
            sink.instant(0, "situation_switch", Some("curved \"right\"".into()));
            sink.instant(1, "fault:frame_drop", None);
            rec.chrome_trace_json()
        };
        let a = make();
        assert_eq!(a, make(), "same emission sequence must render identical bytes");
        assert!(a.contains("\"traceEvents\""));
        assert!(a.contains("\"name\":\"render\""));
        assert!(a.contains("\\\"right\\\""), "details are JSON-escaped: {a}");
        // Render span sits at the cycle origin; control at its slot.
        assert!(a.contains(&format!("\"ts\":{}", Stage::Control as u64 * STAGE_TICKS)));
    }

    #[test]
    fn instants_order_within_cycle_and_reset_across() {
        let rec = TraceRecorder::new();
        let sink = rec.sink(7, "seq");
        sink.instant(3, "a", None);
        sink.instant(3, "b", None);
        sink.instant(4, "c", None);
        let json = rec.chrome_trace_json();
        let ts_a = 3 * CYCLE_TICKS + INSTANT_BASE;
        assert!(json.contains(&format!("\"ts\":{ts_a}")));
        assert!(json.contains(&format!("\"ts\":{}", ts_a + 1)));
        assert!(json.contains(&format!("\"ts\":{}", 4 * CYCLE_TICKS + INSTANT_BASE)));
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let rec = TraceRecorder::with_capacity(2);
        let sink = rec.sink(1, "tiny");
        sink.span(0, Stage::Render);
        sink.span(1, Stage::Render);
        sink.span(2, Stage::Render);
        assert_eq!(rec.event_count(), 2);
        let json = rec.chrome_trace_json();
        assert!(!json.contains("\"cycle\":0"), "oldest event must be evicted");
        assert!(json.contains("\"dropped_events\":1"));
    }

    #[test]
    fn runs_export_in_pid_order() {
        let rec = TraceRecorder::new();
        let late = rec.sink(9, "late");
        let early = rec.sink(2, "early");
        late.span(0, Stage::Isp);
        early.span(0, Stage::Isp);
        let json = rec.chrome_trace_json();
        let pos_early = json.find("\"early\"").unwrap();
        let pos_late = json.find("\"late\"").unwrap();
        assert!(pos_early < pos_late, "pid 2 must precede pid 9");
    }

    #[test]
    fn write_json_lands_on_disk() {
        let dir = std::env::temp_dir().join("lkas-runtime-test-trace");
        let _ = std::fs::remove_dir_all(&dir);
        let rec = TraceRecorder::new();
        rec.sink(1, "empty").span(0, Stage::Sensor);
        let path = dir.join("nested/run.trace.json");
        rec.write_json(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, rec.chrome_trace_json());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
