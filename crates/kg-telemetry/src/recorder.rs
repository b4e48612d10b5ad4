//! Structured spans and events: a thread-safe [`Recorder`] with ring-buffer
//! retention, span IDs with parent links, monotonic timestamps, and a
//! JSON-lines sink.
//!
//! # Model
//!
//! The recorder is a bounded in-memory ring of [`Event`]s. Three kinds of
//! event exist: a *span start*, the matching *span end* (same span ID,
//! carrying the duration), and a *point* event with no duration. Span
//! parentage is tracked per thread: starting a span makes it the current
//! span of the calling thread until its [`SpanGuard`] drops, and any span
//! or point recorded meanwhile links to it. A request-scoped *trace ID*
//! rides the same thread-local (see [`Recorder::with_trace`]) and stamps
//! every event recorded while it is set, which is how the service
//! correlates everything a single request did across subsystems.
//!
//! # Overhead
//!
//! When the recorder is disabled (the default) every emit call is a single
//! relaxed atomic load and an immediate return — instrumented hot loops
//! cost ~nothing. Timestamps come from a monotonic [`Instant`] epoch, and
//! the recorder never draws randomness, so enabling it cannot perturb RNG
//! streams or result bitwise-identity.

use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Default ring-buffer capacity of a [`Recorder`] (events retained).
pub const DEFAULT_CAPACITY: usize = 8192;

/// A typed field value attached to an event.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// An unsigned integer (counts, sizes, round numbers).
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float (estimates, margins, milliseconds).
    F64(f64),
    /// A string (tenant names, predicates, served-from labels).
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// What an [`Event`] marks: the start of a span, its end, or a point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A span began; `span_id` names it, `parent_id` its enclosing span.
    SpanStart,
    /// The matching end; carries a `duration_ns` field.
    SpanEnd,
    /// An instantaneous event inside the current span.
    Point,
}

impl EventKind {
    /// The JSON-lines encoding of the kind.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::SpanStart => "span_start",
            EventKind::SpanEnd => "span_end",
            EventKind::Point => "point",
        }
    }
}

/// One recorded entry in the ring buffer.
#[derive(Clone, Debug)]
pub struct Event {
    /// Globally monotonic sequence number (total order across threads).
    pub seq: u64,
    /// Start/end/point discriminator.
    pub kind: EventKind,
    /// Static event name, dot-namespaced by subsystem (`"aqp.round"`).
    pub name: &'static str,
    /// Request-scoped trace ID (0 when recorded outside any trace).
    pub trace_id: u64,
    /// The span this event belongs to (its own ID for span start/end;
    /// 0 at top level).
    pub span_id: u64,
    /// The enclosing span at record time (0 at top level).
    pub parent_id: u64,
    /// Small per-thread index (assigned on first use, not an OS TID).
    pub thread: u64,
    /// Monotonic nanoseconds since the recorder's epoch.
    pub at_ns: u64,
    /// Typed key/value payload.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl Event {
    /// Encodes the event as one JSON-lines record (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push_str("{\"seq\":");
        out.push_str(&self.seq.to_string());
        out.push_str(",\"kind\":\"");
        out.push_str(self.kind.as_str());
        out.push_str("\",\"name\":\"");
        push_escaped(&mut out, self.name);
        out.push_str("\",\"trace\":\"");
        out.push_str(&trace_hex(self.trace_id));
        out.push_str("\",\"span\":");
        out.push_str(&self.span_id.to_string());
        out.push_str(",\"parent\":");
        out.push_str(&self.parent_id.to_string());
        out.push_str(",\"thread\":");
        out.push_str(&self.thread.to_string());
        out.push_str(",\"at_ns\":");
        out.push_str(&self.at_ns.to_string());
        out.push_str(",\"fields\":{");
        for (i, (key, value)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            push_escaped(&mut out, key);
            out.push_str("\":");
            match value {
                FieldValue::U64(v) => out.push_str(&v.to_string()),
                FieldValue::I64(v) => out.push_str(&v.to_string()),
                FieldValue::F64(v) => {
                    if v.is_finite() {
                        out.push_str(&v.to_string());
                    } else {
                        out.push_str("null");
                    }
                }
                FieldValue::Str(v) => {
                    out.push('"');
                    push_escaped(&mut out, v);
                    out.push('"');
                }
            }
        }
        out.push_str("}}");
        out
    }
}

/// Formats a trace ID the way the wire does: 16 lowercase hex digits.
pub fn trace_hex(id: u64) -> String {
    format!("{id:016x}")
}

/// JSON string escaping for the hand-rolled JSON-lines encoder.
fn push_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

thread_local! {
    /// `(trace_id, current_span_id)` of the calling thread.
    static CONTEXT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

static NEXT_THREAD_INDEX: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_INDEX: u64 = NEXT_THREAD_INDEX.fetch_add(1, Ordering::Relaxed);
}

fn thread_index() -> u64 {
    THREAD_INDEX.with(|t| *t)
}

/// A thread-safe span/event recorder with bounded retention.
///
/// Most callers use the process-wide instance via [`global`] (and the
/// module-level [`enable`]/[`point`]/[`span`] helpers); dedicated
/// instances exist for tests and embedding.
pub struct Recorder {
    enabled: AtomicBool,
    seq: AtomicU64,
    next_span: AtomicU64,
    epoch: Instant,
    capacity: usize,
    buffer: Mutex<VecDeque<Event>>,
    sink: Mutex<Option<Box<dyn Write + Send>>>,
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.enabled.load(Ordering::Relaxed))
            .field("capacity", &self.capacity)
            .field("seq", &self.seq.load(Ordering::Relaxed))
            .finish()
    }
}

impl Recorder {
    /// Creates a disabled recorder retaining at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Recorder {
            enabled: AtomicBool::new(false),
            seq: AtomicU64::new(1),
            next_span: AtomicU64::new(1),
            epoch: Instant::now(),
            capacity: capacity.max(1),
            buffer: Mutex::new(VecDeque::new()),
            sink: Mutex::new(None),
        }
    }

    /// Whether emit calls record anything (single relaxed load).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off. Spans already open keep their IDs and
    /// still emit their end events so the buffer stays well-formed.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Records a point event in the current thread's trace/span context.
    /// No-op (one atomic load) while disabled.
    pub fn point(&self, name: &'static str, fields: &[(&'static str, FieldValue)]) {
        if !self.enabled() {
            return;
        }
        let (trace_id, parent_id) = CONTEXT.with(Cell::get);
        self.push(Event {
            seq: 0,
            kind: EventKind::Point,
            name,
            trace_id,
            span_id: parent_id,
            parent_id,
            thread: thread_index(),
            at_ns: self.now_ns(),
            fields: fields.to_vec(),
        });
    }

    /// Starts a span: records the start event, makes the span current on
    /// this thread, and returns a guard whose drop records the end event
    /// (with a `duration_ns` field) and restores the previous span.
    /// While disabled the guard is inert and nothing is recorded.
    pub fn span(&self, name: &'static str, fields: &[(&'static str, FieldValue)]) -> SpanGuard<'_> {
        if !self.enabled() {
            return SpanGuard {
                recorder: None,
                name,
                span_id: 0,
                parent_id: 0,
                trace_id: 0,
                start_ns: 0,
            };
        }
        let (trace_id, parent_id) = CONTEXT.with(Cell::get);
        let span_id = self.next_span.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        self.push(Event {
            seq: 0,
            kind: EventKind::SpanStart,
            name,
            trace_id,
            span_id,
            parent_id,
            thread: thread_index(),
            at_ns: start_ns,
            fields: fields.to_vec(),
        });
        CONTEXT.with(|c| c.set((trace_id, span_id)));
        SpanGuard {
            recorder: Some(self),
            name,
            span_id,
            parent_id,
            trace_id,
            start_ns,
        }
    }

    /// Sets the calling thread's trace ID until the guard drops; spans and
    /// points recorded meanwhile are stamped with it. Nesting restores the
    /// previous trace on drop. Cheap enough to call unconditionally.
    pub fn with_trace(&self, trace_id: u64) -> TraceGuard {
        let prev = CONTEXT.with(Cell::get);
        CONTEXT.with(|c| c.set((trace_id, prev.1)));
        TraceGuard { prev }
    }

    /// Copies the buffered events oldest-first without clearing them.
    pub fn snapshot(&self) -> Vec<Event> {
        self.buffer.lock().unwrap().iter().cloned().collect()
    }

    /// Removes and returns all buffered events, oldest first.
    pub fn drain(&self) -> Vec<Event> {
        self.buffer.lock().unwrap().drain(..).collect()
    }

    /// Drops all buffered events.
    pub fn clear(&self) {
        self.buffer.lock().unwrap().clear();
    }

    /// The next sequence number to be assigned (monotonically increasing;
    /// usable as a progress counter even after ring eviction).
    pub fn seq_watermark(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Routes [`Recorder::log_line`] output to `sink` (pass `None` to fall
    /// back to stderr). The sink is shared by the slow-query log.
    pub fn set_sink(&self, sink: Option<Box<dyn Write + Send>>) {
        *self.sink.lock().unwrap() = sink;
    }

    /// Writes one line to the JSON-lines sink (stderr when none is set).
    /// Works even while recording is disabled: structured logs like the
    /// slow-query log are opt-in at the call site, not gated here.
    pub fn log_line(&self, line: &str) {
        let mut sink = self.sink.lock().unwrap();
        match sink.as_mut() {
            Some(out) => {
                let _ = writeln!(out, "{line}");
                let _ = out.flush();
            }
            None => eprintln!("{line}"),
        }
    }

    /// Monotonic nanoseconds since this recorder was created.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&self, mut event: Event) {
        let mut buffer = self.buffer.lock().unwrap();
        // Numbered under the buffer lock: buffer order is `seq` order. The
        // counter stays atomic only so `seq_watermark` reads it lock-free.
        event.seq = self.seq.fetch_add(1, Ordering::Relaxed);
        if buffer.len() >= self.capacity {
            buffer.pop_front();
        }
        buffer.push_back(event);
    }
}

/// RAII guard returned by [`Recorder::span`]; records the span-end event
/// on drop and restores the thread's previous span.
#[must_use = "a span lasts until its guard is dropped"]
pub struct SpanGuard<'a> {
    recorder: Option<&'a Recorder>,
    name: &'static str,
    span_id: u64,
    parent_id: u64,
    trace_id: u64,
    start_ns: u64,
}

impl SpanGuard<'_> {
    /// The span's ID (0 for an inert guard created while disabled).
    pub fn id(&self) -> u64 {
        self.span_id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(recorder) = self.recorder else {
            return;
        };
        CONTEXT.with(|c| {
            let (trace, _) = c.get();
            c.set((trace, self.parent_id));
        });
        let end_ns = recorder.now_ns();
        recorder.push(Event {
            seq: 0,
            kind: EventKind::SpanEnd,
            name: self.name,
            trace_id: self.trace_id,
            span_id: self.span_id,
            parent_id: self.parent_id,
            thread: thread_index(),
            at_ns: end_ns,
            fields: vec![(
                "duration_ns",
                FieldValue::U64(end_ns.saturating_sub(self.start_ns)),
            )],
        });
    }
}

/// RAII guard returned by [`Recorder::with_trace`]; restores the thread's
/// previous trace context on drop.
#[must_use = "a trace context lasts until its guard is dropped"]
pub struct TraceGuard {
    prev: (u64, u64),
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        CONTEXT.with(|c| c.set(self.prev));
    }
}

static GLOBAL: OnceLock<Recorder> = OnceLock::new();

/// The process-wide recorder every subsystem emits into.
pub fn global() -> &'static Recorder {
    GLOBAL.get_or_init(|| Recorder::new(DEFAULT_CAPACITY))
}

/// Enables the global recorder.
pub fn enable() {
    global().set_enabled(true);
}

/// Disables the global recorder (emit calls return immediately again).
pub fn disable() {
    global().set_enabled(false);
}

/// Whether the global recorder is currently recording.
pub fn enabled() -> bool {
    global().enabled()
}

/// Records a point event on the global recorder.
pub fn point(name: &'static str, fields: &[(&'static str, FieldValue)]) {
    global().point(name, fields);
}

/// Starts a span on the global recorder.
pub fn span(name: &'static str, fields: &[(&'static str, FieldValue)]) -> SpanGuard<'static> {
    global().span(name, fields)
}

/// Sets the calling thread's trace ID on the global recorder.
pub fn with_trace(trace_id: u64) -> TraceGuard {
    global().with_trace(trace_id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::new(16);
        rec.point("noop", &[("k", 1u64.into())]);
        {
            let _span = rec.span("noop_span", &[]);
            rec.point("inner", &[]);
        }
        assert!(rec.snapshot().is_empty());
        assert_eq!(rec.seq_watermark(), 1);
    }

    #[test]
    fn spans_nest_and_link_parents() {
        let rec = Recorder::new(64);
        rec.set_enabled(true);
        let _trace = rec.with_trace(0xabcd);
        {
            let outer = rec.span("outer", &[]);
            let outer_id = outer.id();
            {
                let inner = rec.span("inner", &[("round", 3usize.into())]);
                assert_ne!(inner.id(), outer_id);
                rec.point("tick", &[]);
            }
            rec.point("after_inner", &[]);
        }
        let events = rec.drain();
        assert_eq!(events.len(), 6);
        let outer_start = &events[0];
        let inner_start = &events[1];
        let tick = &events[2];
        let inner_end = &events[3];
        let after = &events[4];
        let outer_end = &events[5];
        assert_eq!(outer_start.kind, EventKind::SpanStart);
        assert_eq!(outer_start.parent_id, 0);
        assert_eq!(inner_start.parent_id, outer_start.span_id);
        assert_eq!(tick.parent_id, inner_start.span_id);
        assert_eq!(inner_end.kind, EventKind::SpanEnd);
        assert_eq!(inner_end.span_id, inner_start.span_id);
        assert_eq!(after.parent_id, outer_start.span_id);
        assert_eq!(outer_end.span_id, outer_start.span_id);
        for event in &events {
            assert_eq!(event.trace_id, 0xabcd);
        }
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted, "events drain in seq order");
    }

    #[test]
    fn trace_guard_restores_previous_context() {
        let rec = Recorder::new(16);
        rec.set_enabled(true);
        {
            let _outer = rec.with_trace(7);
            {
                let _inner = rec.with_trace(9);
                rec.point("in_inner", &[]);
            }
            rec.point("back_in_outer", &[]);
        }
        rec.point("no_trace", &[]);
        let events = rec.drain();
        assert_eq!(events[0].trace_id, 9);
        assert_eq!(events[1].trace_id, 7);
        assert_eq!(events[2].trace_id, 0);
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let rec = Recorder::new(4);
        rec.set_enabled(true);
        for _ in 0..10 {
            rec.point("tick", &[]);
        }
        let events = rec.snapshot();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].seq, 7);
        assert_eq!(events[3].seq, 10);
    }

    #[test]
    fn json_lines_escape_and_encode_fields() {
        let rec = Recorder::new(4);
        rec.set_enabled(true);
        rec.point(
            "weird",
            &[
                ("s", "quote\" slash\\ nl\n".into()),
                ("u", 42u64.into()),
                ("f", 1.5f64.into()),
                ("nan", f64::NAN.into()),
                ("i", (-3i64).into()),
            ],
        );
        let line = rec.drain()[0].to_json_line();
        assert!(line.contains("\"name\":\"weird\""));
        assert!(line.contains("\"s\":\"quote\\\" slash\\\\ nl\\n\""));
        assert!(line.contains("\"u\":42"));
        assert!(line.contains("\"f\":1.5"));
        assert!(line.contains("\"nan\":null"));
        assert!(line.contains("\"i\":-3"));
        assert!(line.contains(&format!("\"trace\":\"{}\"", trace_hex(0))));
    }

    #[test]
    fn sink_receives_log_lines() {
        #[derive(Clone)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let rec = Recorder::new(4);
        let shared = Shared(Arc::new(Mutex::new(Vec::new())));
        rec.set_sink(Some(Box::new(shared.clone())));
        rec.log_line("{\"slow_query\":true}");
        let text = String::from_utf8(shared.0.lock().unwrap().clone()).unwrap();
        assert_eq!(text, "{\"slow_query\":true}\n");
    }

    /// Emitters released together, round after round: any window between
    /// taking a sequence number and enqueueing the event shows up as a
    /// drained event whose `seq` is below its predecessor's.
    #[test]
    fn contended_emitters_drain_in_seq_order() {
        const EMITTERS: usize = 4;
        for round in 0..200 {
            let rec = Recorder::new(1 << 14);
            rec.set_enabled(true);
            let barrier = std::sync::Barrier::new(EMITTERS);
            std::thread::scope(|scope| {
                for _ in 0..EMITTERS {
                    scope.spawn(|| {
                        barrier.wait();
                        for _ in 0..1_000 {
                            rec.point("tick", &[]);
                        }
                    });
                }
            });
            let events = rec.drain();
            assert_eq!(events.len(), EMITTERS * 1_000);
            for pair in events.windows(2) {
                assert!(
                    pair[1].seq > pair[0].seq,
                    "round {round}: seq {} drained after {}",
                    pair[1].seq,
                    pair[0].seq
                );
            }
            assert_eq!(rec.seq_watermark(), events.last().unwrap().seq + 1);
        }
    }

    #[test]
    fn concurrent_emitters_keep_seq_monotone() {
        let rec = Arc::new(Recorder::new(1 << 14));
        rec.set_enabled(true);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let rec = Arc::clone(&rec);
            handles.push(std::thread::spawn(move || {
                for i in 0..500usize {
                    let _span = rec.span("work", &[("i", i.into())]);
                    rec.point("tick", &[]);
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        let events = rec.drain();
        assert_eq!(events.len(), 4 * 500 * 3);
        let mut last = 0;
        for event in &events {
            assert!(event.seq > last, "seq must strictly increase");
            last = event.seq;
        }
    }
}
