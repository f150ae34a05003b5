//! Request-level tracing: an allocation-conscious per-request context
//! ([`RequestTrace`]) threaded through the serving path, plus a process
//! sink that writes one JSONL record per *finished* request with
//! tail-based sampling.
//!
//! # Design
//!
//! Tracing has its own process-global switch, independent of the metrics
//! switch: it is on exactly while a sink is installed ([`active`]). Every
//! entry point checks that switch first, so the disabled path costs one
//! relaxed atomic load and performs no allocation. A live trace is a flat
//! struct — a handful of integers plus one `Vec` of `(&'static str, u64)`
//! timeline events — rendered to JSON only at submission, and only for
//! traces the sampler keeps.
//!
//! Tracing never changes control flow or floating-point work on the
//! serving path: predictions are bitwise identical with tracing on or
//! off (covered by `tests/tracing.rs`).
//!
//! # Lifecycle
//!
//! The admission path calls [`RequestTrace::begin`] and attaches the
//! trace to the queued job; the shard worker marks timeline events as the
//! request moves through dequeue → search → prediction, sets exactly one
//! terminal outcome, and hands the trace to [`submit`]. Code deep inside
//! the predictor (the degradation ladder) reaches the trace of the request
//! it is serving through a thread-local installed by the worker
//! ([`set_current`] / [`take_current`]), which survives `catch_unwind` so a
//! panicking prediction still yields its terminal record.
//!
//! # Sampling
//!
//! Sampling is tail-based: the decision is made at submission, when the
//! outcome is known. Requests that were slow, degraded below the full
//! ensemble, shed, faulted, aborted, or missed their deadline are always
//! kept; only fast, healthy, full-ensemble responses are thinned to
//! 1-in-N ([`TraceConfig::sample_every`]).

use crate::stamp;
use parking_lot::Mutex;
use serde::Content;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Schema version stamped into every trace record.
pub const TRACE_SCHEMA_VERSION: u64 = 2;

/// Memory-sink retention bound; lines beyond it are dropped and counted
/// as write errors.
const MEMORY_SINK_CAPACITY: usize = 1_048_576;

static ACTIVE: AtomicBool = AtomicBool::new(false);
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// Whether a trace sink is installed. One relaxed atomic load; gate any
/// per-request trace work on this.
#[inline(always)]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// One timeline event: a static label plus microseconds since the trace
/// began.
#[derive(Debug, Clone, Copy)]
struct TraceEvent {
    label: &'static str,
    at_us: u64,
}

/// The per-request trace context. Created at admission, carried with the
/// queued job, finished with exactly one terminal outcome, then handed to
/// [`submit`].
#[derive(Debug)]
pub struct RequestTrace {
    id: u64,
    sensor: u64,
    horizon: u64,
    shard: u64,
    started: Instant,
    events: Vec<TraceEvent>,
    outcome: Option<&'static str>,
    rung: Option<&'static str>,
    reason: Option<&'static str>,
    deadline_missed: bool,
    aborted: bool,
}

impl RequestTrace {
    /// Begin tracing one request. The single allocation is the timeline
    /// `Vec`; callers gate on [`active`] so no trace exists while no sink
    /// is installed.
    pub fn begin(sensor: usize, horizon: usize, shard: usize) -> RequestTrace {
        let mut trace = RequestTrace {
            id: NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed),
            sensor: sensor as u64,
            horizon: horizon as u64,
            shard: shard as u64,
            started: Instant::now(),
            events: Vec::with_capacity(16),
            outcome: None,
            rung: None,
            reason: None,
            deadline_missed: false,
            aborted: false,
        };
        trace.mark("submit");
        trace
    }

    /// This trace's process-unique id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Append a timeline event at the current offset.
    pub fn mark(&mut self, label: &'static str) {
        let at_us = self.started.elapsed().as_micros() as u64;
        self.events.push(TraceEvent { label, at_us });
    }

    /// Record why the request left the full-ensemble rung (first reason
    /// wins: the earliest degradation decision is the one that matters).
    pub fn set_reason(&mut self, reason: &'static str) {
        if self.reason.is_none() {
            self.reason = Some(reason);
        }
    }

    /// Flag that serving this request panicked (its span/work unwound).
    pub fn set_aborted(&mut self) {
        self.aborted = true;
    }

    /// Terminal: answered at `rung` (a `DegradationLevel::as_str` value).
    pub fn finish_served(&mut self, rung: &'static str, deadline_missed: bool) {
        self.outcome = Some("served");
        self.rung = Some(rung);
        self.deadline_missed = deadline_missed;
        self.mark("finish");
    }

    /// Terminal: rejected at admission (queue full).
    pub fn finish_shed(&mut self) {
        self.outcome = Some("shed");
        self.mark("finish");
    }

    /// Terminal: answered with a typed fault (`kind` says which).
    pub fn finish_fault(&mut self, kind: &'static str) {
        self.outcome = Some("fault");
        self.reason = Some(kind);
        self.mark("finish");
    }

    /// Terminal: failed outside the predict path (unknown sensor,
    /// shutdown race, ...).
    pub fn finish_error(&mut self, kind: &'static str) {
        self.outcome = Some("error");
        self.reason = Some(kind);
        self.mark("finish");
    }

    /// Microseconds spent before the worker dequeued the request (0 when
    /// it never reached a worker).
    fn queue_us(&self) -> u64 {
        self.events.iter().find(|e| e.label == "dequeue").map_or(0, |e| e.at_us)
    }

    /// Render the record as one compact JSON line, written straight into
    /// one buffer: this runs once per kept request, so it builds no
    /// intermediate document.
    fn render(&self, total_us: u64) -> String {
        let mut out = String::with_capacity(320 + 24 * self.events.len());
        let _ = write!(
            out,
            "{{\"type\":\"request_trace\",\"schema\":{},\"seq\":{},\"t_wall_ms\":{},\
             \"t_mono_s\":{:?},\"trace_id\":{},\"sensor\":{},\"horizon\":{},\"shard\":{}",
            TRACE_SCHEMA_VERSION,
            stamp::next_export_seq(),
            stamp::wall_clock_ms(),
            stamp::mono_seconds(),
            self.id,
            self.sensor,
            self.horizon,
            self.shard,
        );
        out.push_str(",\"outcome\":");
        push_json_str(&mut out, Some(self.outcome.unwrap_or("abandoned")));
        out.push_str(",\"rung\":");
        push_json_str(&mut out, self.rung);
        out.push_str(",\"reason\":");
        push_json_str(&mut out, self.reason);
        let _ = write!(
            out,
            ",\"deadline_missed\":{},\"aborted\":{},\"queue_us\":{},\"total_us\":{},\"events\":[",
            self.deadline_missed,
            self.aborted,
            self.queue_us(),
            total_us,
        );
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"l\":");
            push_json_str(&mut out, Some(e.label));
            let _ = write!(out, ",\"us\":{}}}", e.at_us);
        }
        out.push_str("]}");
        out
    }
}

/// Append `value` as a JSON string literal, or `null` when absent.
fn push_json_str(out: &mut String, value: Option<&str>) {
    let Some(value) = value else {
        out.push_str("null");
        return;
    };
    out.push('"');
    for ch in value.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

thread_local! {
    /// The trace of the request the current thread is serving, installed
    /// by the shard worker around the prediction call so ladder decisions
    /// deep in the predictor can annotate it without plumbing.
    static CURRENT: RefCell<Option<RequestTrace>> = const { RefCell::new(None) };
}

/// Install `trace` as the current thread's active request trace.
pub fn set_current(trace: Option<RequestTrace>) {
    CURRENT.with(|c| *c.borrow_mut() = trace);
}

/// Remove and return the current thread's active request trace. Survives
/// `catch_unwind`: a panicking prediction leaves the trace installed, so
/// the worker can still finish and submit it.
pub fn take_current() -> Option<RequestTrace> {
    CURRENT.with(|c| c.borrow_mut().take())
}

/// Append a timeline event to the current thread's trace, if any. One
/// relaxed atomic load when tracing is off.
pub fn mark_current(label: &'static str) {
    if !active() {
        return;
    }
    CURRENT.with(|c| {
        if let Some(trace) = c.borrow_mut().as_mut() {
            trace.mark(label);
        }
    });
}

/// Record a degradation reason on the current thread's trace, if any.
pub fn reason_current(reason: &'static str) {
    if !active() {
        return;
    }
    CURRENT.with(|c| {
        if let Some(trace) = c.borrow_mut().as_mut() {
            trace.set_reason(reason);
        }
    });
}

/// Sampling and retention policy of a trace sink.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Keep 1-in-N fast, healthy, full-ensemble traces (1 keeps all).
    /// Slow, degraded, shed, faulted, or deadline-missing requests are
    /// always kept regardless.
    pub sample_every: u64,
    /// A request at least this slow (µs, admission → terminal) is always
    /// kept.
    pub slow_us: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { sample_every: 1, slow_us: 50_000 }
    }
}

/// Counters of an installed trace sink.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct TraceSinkStats {
    /// Records written.
    pub emitted: u64,
    /// Finished traces thinned out by the sampler.
    pub sampled_out: u64,
    /// Records lost to I/O errors or memory-sink overflow.
    pub write_errors: u64,
}

enum SinkOut {
    File(std::io::BufWriter<std::fs::File>),
    Memory(Vec<String>),
}

struct Sink {
    out: SinkOut,
    config: TraceConfig,
    stats: TraceSinkStats,
}

static SINK: Mutex<Option<Sink>> = Mutex::new(None);

fn install(out: SinkOut, config: TraceConfig) {
    let mut cfg = config;
    cfg.sample_every = cfg.sample_every.max(1);
    *SINK.lock() = Some(Sink { out, config: cfg, stats: TraceSinkStats::default() });
    ACTIVE.store(true, Ordering::Relaxed);
}

/// Install a JSONL file sink at `path` (truncates) and activate tracing.
pub fn install_file_sink(path: &std::path::Path, config: TraceConfig) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    install(SinkOut::File(std::io::BufWriter::new(file)), config);
    Ok(())
}

/// Install an in-memory sink (tests and benches) and activate tracing.
pub fn install_memory_sink(config: TraceConfig) {
    install(SinkOut::Memory(Vec::new()), config);
}

/// Drain the lines retained by an installed memory sink (empty for file
/// sinks or when no sink is installed).
pub fn take_memory_lines() -> Vec<String> {
    let mut guard = SINK.lock();
    match guard.as_mut() {
        Some(Sink { out: SinkOut::Memory(lines), .. }) => std::mem::take(lines),
        _ => Vec::new(),
    }
}

/// Flush a file sink's buffer to disk (no-op otherwise).
pub fn flush_sink() {
    let mut guard = SINK.lock();
    if let Some(Sink { out: SinkOut::File(writer), stats, .. }) = guard.as_mut() {
        if writer.flush().is_err() {
            stats.write_errors += 1;
        }
    }
}

/// Counters of the installed sink, or `None` when tracing is off.
pub fn sink_stats() -> Option<TraceSinkStats> {
    SINK.lock().as_ref().map(|s| s.stats)
}

/// Deactivate tracing and drop the sink (flushing file sinks first).
pub fn clear_sink() {
    ACTIVE.store(false, Ordering::Relaxed);
    flush_sink();
    *SINK.lock() = None;
}

pub(crate) fn reset() {
    clear_sink();
    NEXT_TRACE_ID.store(1, Ordering::Relaxed);
}

/// Hand a finished trace to the sink. The tail-based sampling decision
/// happens here, where the outcome is known; kept traces are rendered to
/// one JSON line. No-op when no sink is installed.
pub fn submit(trace: RequestTrace) {
    let mut guard = SINK.lock();
    let Some(sink) = guard.as_mut() else {
        return;
    };
    let total_us = trace.started.elapsed().as_micros() as u64;
    let healthy_fast = trace.outcome == Some("served")
        && trace.rung == Some("full_ensemble")
        && !trace.deadline_missed
        && !trace.aborted
        && total_us < sink.config.slow_us;
    if healthy_fast && sink.config.sample_every > 1 && trace.id % sink.config.sample_every != 0 {
        sink.stats.sampled_out += 1;
        return;
    }
    let line = trace.render(total_us);
    match &mut sink.out {
        SinkOut::File(writer) => {
            if writeln!(writer, "{line}").is_ok() {
                sink.stats.emitted += 1;
            } else {
                sink.stats.write_errors += 1;
            }
        }
        SinkOut::Memory(lines) => {
            if lines.len() < MEMORY_SINK_CAPACITY {
                lines.push(line);
                sink.stats.emitted += 1;
            } else {
                sink.stats.write_errors += 1;
            }
        }
    }
}

/// Validate one JSONL line against the request-trace schema. Used by the
/// test suite and CI's serve smoke; returns the first problem found.
pub fn validate_trace_line(line: &str) -> Result<(), String> {
    struct Parsed(Content);
    impl serde::Deserialize for Parsed {
        fn from_content(c: &Content) -> Result<Self, serde::DeError> {
            Ok(Parsed(c.clone()))
        }
    }
    let doc: Parsed = serde_json::from_str(line).map_err(|e| format!("invalid JSON: {e}"))?;
    let map = doc.0.as_map().ok_or("record is not an object")?;
    let get = |name: &str| serde::content_field(map, name);
    let need_u64 = |name: &str| get(name).as_u64().ok_or(format!("`{name}` missing or not u64"));
    let need_bool = |name: &str| get(name).as_bool().ok_or(format!("`{name}` missing or not bool"));

    if get("type").as_str() != Some("request_trace") {
        return Err("`type` is not \"request_trace\"".to_string());
    }
    if need_u64("schema")? != TRACE_SCHEMA_VERSION {
        return Err(format!("unknown schema version (expected {TRACE_SCHEMA_VERSION})"));
    }
    for name in ["seq", "t_wall_ms", "trace_id", "sensor", "horizon", "shard"] {
        need_u64(name)?;
    }
    if get("t_mono_s").as_f64().is_none() {
        return Err("`t_mono_s` missing or not a number".to_string());
    }
    let queue_us = need_u64("queue_us")?;
    let total_us = need_u64("total_us")?;
    if queue_us > total_us {
        return Err(format!("queue_us {queue_us} exceeds total_us {total_us}"));
    }
    need_bool("deadline_missed")?;
    need_bool("aborted")?;

    let outcome = get("outcome").as_str().ok_or("`outcome` missing or not a string")?;
    if !["served", "shed", "fault", "error", "abandoned"].contains(&outcome) {
        return Err(format!("unknown outcome `{outcome}`"));
    }
    let rung = get("rung");
    match rung.as_str() {
        Some(r) if !["full_ensemble", "cached_hyper", "aggregation", "last_value"].contains(&r) => {
            return Err(format!("unknown rung `{r}`"));
        }
        None if outcome == "served" => return Err("served trace without a rung".to_string()),
        _ => {}
    }

    let events = get("events").as_seq().ok_or("`events` missing or not an array")?;
    if events.is_empty() {
        return Err("empty event timeline".to_string());
    }
    let mut prev_us = 0u64;
    for (i, e) in events.iter().enumerate() {
        let emap = e.as_map().ok_or(format!("event {i} is not an object"))?;
        if serde::content_field(emap, "l").as_str().is_none() {
            return Err(format!("event {i} lacks a string label `l`"));
        }
        let us = serde::content_field(emap, "us")
            .as_u64()
            .ok_or(format!("event {i} lacks a u64 offset `us`"))?;
        if us < prev_us {
            return Err(format!("event offsets not monotone at index {i}"));
        }
        prev_us = us;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::lock_global;

    #[test]
    fn inactive_tracing_is_a_no_op() {
        let _g = lock_global();
        assert!(!active());
        mark_current("ignored");
        let mut t = RequestTrace::begin(0, 1, 0);
        t.finish_served("full_ensemble", false);
        submit(t);
        assert_eq!(sink_stats(), None);
        assert!(take_memory_lines().is_empty());
    }

    #[test]
    fn memory_sink_round_trips_a_valid_record() {
        let _g = lock_global();
        install_memory_sink(TraceConfig::default());
        let mut t = RequestTrace::begin(3, 2, 1);
        t.mark("dequeue");
        t.mark("predict.done");
        t.finish_served("cached_hyper", false);
        let id = t.id();
        submit(t);
        let lines = take_memory_lines();
        clear_sink();
        assert_eq!(lines.len(), 1);
        validate_trace_line(&lines[0]).unwrap();
        assert!(lines[0].contains(&format!("\"trace_id\":{id}")));
        assert!(lines[0].contains("\"l\":\"dequeue\""));
        assert!(lines[0].contains("\"rung\":\"cached_hyper\""));
    }

    #[test]
    fn sampler_keeps_tail_and_thins_healthy_traffic() {
        let _g = lock_global();
        install_memory_sink(TraceConfig { sample_every: 1_000_000, slow_us: u64::MAX });
        // Healthy fast full-ensemble trace: sampled out (id won't divide).
        let mut healthy = RequestTrace::begin(0, 1, 0);
        healthy.finish_served("full_ensemble", false);
        submit(healthy);
        // Degraded trace: always kept.
        let mut degraded = RequestTrace::begin(1, 1, 0);
        degraded.finish_served("last_value", false);
        submit(degraded);
        // Shed trace: always kept.
        let mut shed = RequestTrace::begin(2, 1, 0);
        shed.finish_shed();
        submit(shed);
        let stats = sink_stats().unwrap();
        assert_eq!((stats.emitted, stats.sampled_out, stats.write_errors), (2, 1, 0));
        let lines = take_memory_lines();
        clear_sink();
        assert!(lines[0].contains("\"rung\":\"last_value\""));
        assert!(lines[1].contains("\"outcome\":\"shed\""));
        for line in &lines {
            validate_trace_line(line).unwrap();
        }
    }

    #[test]
    fn current_trace_survives_unwind() {
        let _g = lock_global();
        install_memory_sink(TraceConfig::default());
        let trace = RequestTrace::begin(0, 1, 0);
        set_current(Some(trace));
        let panicked = std::panic::catch_unwind(|| {
            mark_current("before_panic");
            panic!("injected");
        });
        assert!(panicked.is_err());
        let mut trace = take_current().expect("trace survives the unwind");
        trace.set_aborted();
        trace.finish_fault("panic");
        submit(trace);
        let lines = take_memory_lines();
        clear_sink();
        assert_eq!(lines.len(), 1);
        validate_trace_line(&lines[0]).unwrap();
        assert!(lines[0].contains("\"aborted\":true"));
        assert!(lines[0].contains("before_panic"));
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate_trace_line("not json").is_err());
        assert!(validate_trace_line("{\"type\":\"event\"}").is_err());
        let _g = lock_global();
        install_memory_sink(TraceConfig::default());
        let mut t = RequestTrace::begin(0, 1, 0);
        t.finish_served("full_ensemble", false);
        submit(t);
        let lines = take_memory_lines();
        clear_sink();
        validate_trace_line(&lines[0]).unwrap();
        // A record of an earlier schema version is rejected.
        let old = lines[0].replace("\"schema\":2", "\"schema\":1");
        assert!(validate_trace_line(&old).unwrap_err().contains("schema"));
    }

    #[test]
    fn file_sink_writes_and_flushes() {
        let _g = lock_global();
        let path =
            std::env::temp_dir().join(format!("smiler_trace_test_{}.jsonl", std::process::id()));
        install_file_sink(&path, TraceConfig::default()).unwrap();
        let mut t = RequestTrace::begin(0, 1, 0);
        t.finish_served("aggregation", false);
        submit(t);
        clear_sink();
        let contents = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = contents.lines().collect();
        assert_eq!(lines.len(), 1);
        validate_trace_line(lines[0]).unwrap();
    }
}
