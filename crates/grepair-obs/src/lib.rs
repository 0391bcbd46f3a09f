//! # grepair-obs
//!
//! The in-process observability substrate for the grepair stack: a
//! structured tracing layer, a metrics registry, and the glue that turns
//! both into stable machine-readable output. Hand-rolled and
//! dependency-free (like every shim in this tree) so any crate can link
//! it without cycles.
//!
//! ## Tracing
//!
//! [`span`] returns a guard that records a complete ("X") event into a
//! thread-local buffer when dropped; [`instant`] records a point event.
//! Tracing is **off by default** and gated on one global atomic: a
//! disabled span site costs a single relaxed load (no clock read, no
//! allocation), which is what keeps the matching hot path within the
//! <5% disabled-overhead budget. [`take_events`] drains every thread's
//! buffer; [`chrome_trace_json`] renders the result in Chrome trace
//! format (loadable in `chrome://tracing` / Perfetto).
//!
//! ```
//! grepair_obs::set_tracing(true);
//! {
//!     let _outer = grepair_obs::span("engine.repair", "engine");
//!     let _inner = grepair_obs::span("match.find_all", "match");
//! }
//! grepair_obs::set_tracing(false);
//! let events = grepair_obs::take_events();
//! assert_eq!(events.len(), 2);
//! grepair_obs::spans_well_formed(&events).unwrap();
//! let json = grepair_obs::chrome_trace_json(&events);
//! assert!(json.contains("\"traceEvents\""));
//! ```
//!
//! ## Metrics
//!
//! [`counter`]/[`gauge`]/[`histogram`] intern named instruments in the
//! global [`Registry`]. Counters are plain always-on atomics; a
//! [`Counter::child`] is an unregistered counter that propagates every
//! increment to its registered parent — the substrate for per-run /
//! per-planner deltas (`RepairReport` counters) over process-global
//! totals. Histograms use fixed log-linear buckets (4 linear sub-buckets
//! per power of two) and report p50/p90/p99 from bucket lower bounds.
//! [`Registry::snapshot_json`] has a stable schema:
//! `{"counters":{..},"gauges":{..},"histograms":{name:{count,sum,max,p50,p90,p99}},"events":[..]}`.
//!
//! Latency histograms on hot paths should be recorded through
//! [`timer`]/[`record_since`], which skip the clock read entirely while
//! telemetry is disabled; counters stay always-on (they are the backing
//! store for report fields that must work untelemetered).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

pub mod budget;

pub use budget::{Budget, CancelToken, TestClock, TripReason};

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// Global telemetry switch (spans + latency histograms).
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Timestamp origin for all trace events (first use of the subsystem).
static EPOCH: OnceLock<Instant> = OnceLock::new();
/// Trace-local thread id allocator (0 is never issued).
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
/// Every thread's event buffer ever registered, for [`take_events`].
static BUFFERS: Mutex<Vec<Arc<ThreadBuf>>> = Mutex::new(Vec::new());

struct ThreadBuf {
    tid: u64,
    events: Mutex<Vec<TraceEvent>>,
}

thread_local! {
    static LOCAL_BUF: Arc<ThreadBuf> = {
        let buf = Arc::new(ThreadBuf {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            events: Mutex::new(Vec::new()),
        });
        BUFFERS.lock().unwrap().push(Arc::clone(&buf));
        buf
    };
}

/// Turn tracing (and gated latency histograms) on or off globally.
pub fn set_tracing(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether telemetry is currently enabled. One relaxed load — safe to
/// call on hot paths.
#[inline]
pub fn tracing_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

#[inline]
fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One trace event (complete span or instant).
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Span name, e.g. `"match.find_all"`.
    pub name: &'static str,
    /// Category (the layer: `"engine"`, `"match"`, `"store"`, …).
    pub cat: &'static str,
    /// Chrome trace phase: `'X'` (complete) or `'i'` (instant).
    pub ph: char,
    /// Start timestamp, nanoseconds since the process trace epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds (0 for instants).
    pub dur_ns: u64,
    /// Trace-local thread id (small dense integers, not OS tids).
    pub tid: u64,
}

/// RAII guard recording a complete span event on drop. A disabled guard
/// is inert (no clock read at construction or drop).
#[must_use = "a span guard records its duration when dropped"]
pub struct SpanGuard {
    name: &'static str,
    cat: &'static str,
    start_ns: u64,
    active: bool,
}

/// Open a span. Near-zero cost when tracing is disabled.
#[inline]
pub fn span(name: &'static str, cat: &'static str) -> SpanGuard {
    if !tracing_enabled() {
        return SpanGuard {
            name,
            cat,
            start_ns: 0,
            active: false,
        };
    }
    SpanGuard {
        name,
        cat,
        start_ns: now_ns(),
        active: true,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end = now_ns();
        let ev = TraceEvent {
            name: self.name,
            cat: self.cat,
            ph: 'X',
            ts_ns: self.start_ns,
            dur_ns: end.saturating_sub(self.start_ns),
            tid: 0, // filled below from the thread-local
        };
        LOCAL_BUF.with(|b| {
            b.events.lock().unwrap().push(TraceEvent { tid: b.tid, ..ev });
        });
    }
}

/// Record an instant (point-in-time) event, e.g. a cache hit or a
/// warning. No-op while tracing is disabled.
pub fn instant(name: &'static str, cat: &'static str) {
    if !tracing_enabled() {
        return;
    }
    let ts = now_ns();
    LOCAL_BUF.with(|b| {
        b.events.lock().unwrap().push(TraceEvent {
            name,
            cat,
            ph: 'i',
            ts_ns: ts,
            dur_ns: 0,
            tid: b.tid,
        });
    });
}

/// Drain every thread's buffered events, sorted by `(tid, ts)` with
/// longer spans first at equal timestamps (so parents precede their
/// children in the output).
pub fn take_events() -> Vec<TraceEvent> {
    let buffers = BUFFERS.lock().unwrap();
    let mut out = Vec::new();
    for b in buffers.iter() {
        out.append(&mut b.events.lock().unwrap());
    }
    out.sort_by_key(|e| (e.tid, e.ts_ns, std::cmp::Reverse(e.dur_ns)));
    out
}

/// Render events as Chrome trace format JSON
/// (`{"traceEvents":[{name,cat,ph,ts,dur,pid,tid},..]}`), timestamps in
/// microseconds. Loadable in `chrome://tracing` and Perfetto.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ts_us = e.ts_ns as f64 / 1_000.0;
        out.push_str(&format!(
            "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{ts_us:.3},",
            json_escape(e.name),
            json_escape(e.cat),
            e.ph
        ));
        if e.ph == 'X' {
            out.push_str(&format!("\"dur\":{:.3},", e.dur_ns as f64 / 1_000.0));
        } else {
            // Instant events carry a scope instead of a duration.
            out.push_str("\"s\":\"t\",");
        }
        out.push_str(&format!("\"pid\":1,\"tid\":{}}}", e.tid));
    }
    out.push_str("\n]}\n");
    out
}

/// Check that the complete (`'X'`) spans of every thread form a proper
/// nesting: within one tid, two spans either disjoint or one strictly
/// contains the other. Instants are ignored. Returns the first violation
/// found.
pub fn spans_well_formed(events: &[TraceEvent]) -> Result<(), String> {
    let mut spans: Vec<&TraceEvent> = events.iter().filter(|e| e.ph == 'X').collect();
    spans.sort_by_key(|e| (e.tid, e.ts_ns, std::cmp::Reverse(e.dur_ns)));
    let mut stack: Vec<(&TraceEvent, u64)> = Vec::new(); // (span, end_ns)
    let mut cur_tid = u64::MAX;
    for e in spans {
        if e.tid != cur_tid {
            stack.clear();
            cur_tid = e.tid;
        }
        let end = e.ts_ns + e.dur_ns;
        while matches!(stack.last(), Some(&(_, top_end)) if top_end <= e.ts_ns) {
            stack.pop();
        }
        if let Some(&(top, top_end)) = stack.last() {
            if end > top_end {
                return Err(format!(
                    "span {:?} [{}..{}] partially overlaps enclosing {:?} [{}..{}] on tid {}",
                    e.name, e.ts_ns, end, top.name, top.ts_ns, top_end, e.tid
                ));
            }
        }
        stack.push((e, end));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Metrics: counters, gauges, histograms
// ---------------------------------------------------------------------------

/// Monotonic counter. Always-on (one relaxed `fetch_add`); cheap enough
/// to back report bookkeeping unconditionally.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
    parent: Option<Arc<Counter>>,
}

impl Counter {
    /// A free-standing counter (no parent).
    pub fn new() -> Self {
        Counter::default()
    }

    /// An unregistered child whose increments also propagate to `self`
    /// (and transitively to its parents). Reading the child gives a
    /// local delta; the registered ancestor keeps the process total.
    pub fn child(self: &Arc<Self>) -> Counter {
        Counter {
            value: AtomicU64::new(0),
            parent: Some(Arc::clone(self)),
        }
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
        let mut up = &self.parent;
        while let Some(p) = up {
            p.value.fetch_add(n, Ordering::Relaxed);
            up = &p.parent;
        }
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Last-write-wins signed gauge.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: values 0..=3 map to themselves, then 4
/// linear sub-buckets per power of two up to `u64::MAX` (index 251).
const HIST_BUCKETS: usize = 256;

/// Log-linear latency/size histogram with lock-free recording.
///
/// Buckets are fixed: exact for 0..=3, then each power-of-two range
/// `[2^m, 2^{m+1})` is split into 4 equal sub-buckets — ~12% worst-case
/// relative quantile error, no allocation, no locks.
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .field("max", &self.max())
            .finish()
    }
}

fn bucket_index(v: u64) -> usize {
    if v < 4 {
        return v as usize;
    }
    let m = 63 - v.leading_zeros() as u64; // >= 2
    let sub = (v >> (m - 2)) & 3;
    ((m - 2) * 4 + sub + 4) as usize
}

fn bucket_lower(idx: usize) -> u64 {
    if idx < 4 {
        return idx as u64;
    }
    let b = (idx - 4) as u64;
    let m = b / 4 + 2;
    let sub = b % 4;
    (1u64 << m) + (sub << (m - 2))
}

impl Histogram {
    /// A fresh histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one value.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Approximate `q`-quantile (lower bound of the bucket holding the
    /// rank). `q` in `[0, 1]`; returns 0 for an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cum = 0u64;
        for (idx, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= rank {
                return bucket_lower(idx);
            }
        }
        self.max()
    }
}

/// Start a latency measurement if telemetry is enabled: `None` skips
/// the clock read entirely on disabled hot paths.
#[inline]
pub fn timer() -> Option<Instant> {
    if tracing_enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

/// Record the elapsed nanoseconds since [`timer`] into `h` (no-op for a
/// disabled `None` timer).
#[inline]
pub fn record_since(h: &Histogram, started: Option<Instant>) {
    if let Some(t) = started {
        h.record(t.elapsed().as_nanos() as u64);
    }
}

/// [`record_since`] against a registry histogram looked up by name —
/// the lookup itself is skipped for a disabled `None` timer, so inline
/// call sites pay nothing when tracing is off.
#[inline]
pub fn record_since_named(name: &str, started: Option<Instant>) {
    if let Some(t) = started {
        histogram(name).record(t.elapsed().as_nanos() as u64);
    }
}

// ---------------------------------------------------------------------------
// Events + registry
// ---------------------------------------------------------------------------

/// Event severity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Level {
    /// Informational.
    Info,
    /// Something a production operator should look at.
    Warn,
}

impl Level {
    /// Stable lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Info => "info",
            Level::Warn => "warn",
        }
    }
}

/// One recorded registry event.
#[derive(Clone, Debug)]
pub struct EventRecord {
    /// Severity.
    pub level: Level,
    /// Stable event name (e.g. `"store.log_growth"`).
    pub name: String,
    /// Human-readable details.
    pub message: String,
}

/// Cap on buffered events; older process phases should not starve the
/// snapshot of recent ones, so the buffer drops *new* events past the
/// cap and counts the drops.
const MAX_EVENTS: usize = 4096;

/// The process-wide instrument registry.
///
/// Instruments are interned by name; handles are `Arc`s, so call sites
/// can cache them and record lock-free. Obtain it via [`global`] or the
/// [`counter`]/[`gauge`]/[`histogram`]/[`event`] shorthands.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    events: Mutex<Vec<EventRecord>>,
    events_dropped: AtomicU64,
}

/// The global registry.
pub fn global() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Intern a named counter in the global registry.
pub fn counter(name: &str) -> Arc<Counter> {
    global().counter(name)
}

/// Intern a named gauge in the global registry.
pub fn gauge(name: &str) -> Arc<Gauge> {
    global().gauge(name)
}

/// Intern a named histogram in the global registry.
pub fn histogram(name: &str) -> Arc<Histogram> {
    global().histogram(name)
}

/// Record an event in the global registry (also mirrored as a trace
/// instant when tracing is on).
pub fn event(level: Level, name: &'static str, message: impl Into<String>) {
    instant(name, "event");
    global().event(level, name, message.into());
}

/// The global registry's snapshot in the stable JSON schema.
pub fn snapshot_json() -> String {
    global().snapshot_json()
}

/// The global registry's snapshot as human-readable text.
pub fn snapshot_text() -> String {
    global().snapshot_text()
}

impl Registry {
    /// Intern a named counter.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().unwrap();
        match map.get(name) {
            Some(c) => Arc::clone(c),
            None => {
                let c = Arc::new(Counter::new());
                map.insert(name.to_owned(), Arc::clone(&c));
                c
            }
        }
    }

    /// Intern a named gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().unwrap();
        match map.get(name) {
            Some(g) => Arc::clone(g),
            None => {
                let g = Arc::new(Gauge::default());
                map.insert(name.to_owned(), Arc::clone(&g));
                g
            }
        }
    }

    /// Intern a named histogram.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().unwrap();
        match map.get(name) {
            Some(h) => Arc::clone(h),
            None => {
                let h = Arc::new(Histogram::new());
                map.insert(name.to_owned(), Arc::clone(&h));
                h
            }
        }
    }

    /// Record an event (bounded buffer of 4096 events; drops past it are
    /// counted, not silently lost).
    pub fn event(&self, level: Level, name: impl Into<String>, message: impl Into<String>) {
        let mut events = self.events.lock().unwrap();
        if events.len() >= MAX_EVENTS {
            self.events_dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        events.push(EventRecord {
            level,
            name: name.into(),
            message: message.into(),
        });
    }

    /// Snapshot of buffered events (does not drain).
    pub fn events(&self) -> Vec<EventRecord> {
        self.events.lock().unwrap().clone()
    }

    /// Stable JSON snapshot of every instrument:
    /// `{"counters":{..},"gauges":{..},"histograms":{name:{count,sum,max,p50,p90,p99}},"events":[{level,name,message}]}`.
    pub fn snapshot_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, c)) in self.counters.lock().unwrap().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", json_escape(name), c.get()));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, g)) in self.gauges.lock().unwrap().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", json_escape(name), g.get()));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.lock().unwrap().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"max\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                json_escape(name),
                h.count(),
                h.sum(),
                h.max(),
                h.percentile(0.50),
                h.percentile(0.90),
                h.percentile(0.99),
            ));
        }
        out.push_str("\n  },\n  \"events\": [");
        let events = self.events.lock().unwrap();
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"level\": \"{}\", \"name\": \"{}\", \"message\": \"{}\"}}",
                e.level.as_str(),
                json_escape(&e.name),
                json_escape(&e.message)
            ));
        }
        drop(events);
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Human-readable snapshot (one instrument per line).
    pub fn snapshot_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, c) in self.counters.lock().unwrap().iter() {
            writeln!(out, "counter   {name:<32} {}", c.get()).unwrap();
        }
        for (name, g) in self.gauges.lock().unwrap().iter() {
            writeln!(out, "gauge     {name:<32} {}", g.get()).unwrap();
        }
        for (name, h) in self.histograms.lock().unwrap().iter() {
            writeln!(
                out,
                "histogram {name:<32} count {} p50 {} p90 {} p99 {} max {}",
                h.count(),
                h.percentile(0.50),
                h.percentile(0.90),
                h.percentile(0.99),
                h.max()
            )
            .unwrap();
        }
        for e in self.events.lock().unwrap().iter() {
            writeln!(out, "event[{}] {}: {}", e.level.as_str(), e.name, e.message).unwrap();
        }
        out
    }
}

fn json_escape(s: &str) -> String {
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

    /// Tracing state is process-global; tests that toggle it serialize
    /// here so parallel test threads cannot interleave drains.
    static TRACE_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = TRACE_LOCK.lock().unwrap();
        set_tracing(false);
        let _ = take_events();
        {
            let _s = span("noop", "test");
            instant("noop.i", "test");
        }
        assert!(take_events().is_empty());
    }

    #[test]
    fn spans_nest_and_export_chrome_format() {
        let _guard = TRACE_LOCK.lock().unwrap();
        set_tracing(true);
        let _ = take_events();
        {
            let _outer = span("outer", "test");
            {
                let _inner = span("inner", "test");
            }
            instant("mark", "test");
        }
        set_tracing(false);
        let events = take_events();
        assert_eq!(events.len(), 3);
        spans_well_formed(&events).unwrap();
        // Sorted with the enclosing span first.
        let spans: Vec<&TraceEvent> = events.iter().filter(|e| e.ph == 'X').collect();
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].name, "inner");
        assert!(spans[0].ts_ns <= spans[1].ts_ns);
        assert!(spans[0].ts_ns + spans[0].dur_ns >= spans[1].ts_ns + spans[1].dur_ns);
        let json = chrome_trace_json(&events);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"name\":\"outer\""));
    }

    #[test]
    fn well_formedness_rejects_partial_overlap() {
        let mk = |name: &'static str, ts, dur| TraceEvent {
            name,
            cat: "t",
            ph: 'X',
            ts_ns: ts,
            dur_ns: dur,
            tid: 1,
        };
        // Proper nesting passes.
        spans_well_formed(&[mk("a", 0, 100), mk("b", 10, 20), mk("c", 40, 20)]).unwrap();
        // Partial overlap fails.
        let err = spans_well_formed(&[mk("a", 0, 50), mk("b", 25, 50)]).unwrap_err();
        assert!(err.contains("partially overlaps"), "{err}");
        // Different tids never interact.
        let mut cross = vec![mk("a", 0, 50), mk("b", 25, 50)];
        cross[1].tid = 2;
        spans_well_formed(&cross).unwrap();
    }

    #[test]
    fn per_thread_buffers_drain_from_all_threads() {
        let _guard = TRACE_LOCK.lock().unwrap();
        set_tracing(true);
        let _ = take_events();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    let _s = span("worker", "test");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        set_tracing(false);
        let events = take_events();
        assert_eq!(events.len(), 4);
        let tids: std::collections::BTreeSet<u64> = events.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 4, "one tid per thread: {tids:?}");
        spans_well_formed(&events).unwrap();
    }

    #[test]
    fn counters_propagate_to_parents() {
        let parent = Arc::new(Counter::new());
        let child_a = parent.child();
        let child_b = parent.child();
        child_a.add(3);
        child_b.inc();
        assert_eq!(child_a.get(), 3);
        assert_eq!(child_b.get(), 1);
        assert_eq!(parent.get(), 4);
        // Grandchildren propagate transitively.
        let mid = Arc::new(parent.child());
        let leaf = mid.child();
        leaf.add(10);
        assert_eq!(leaf.get(), 10);
        assert_eq!(mid.get(), 10);
        assert_eq!(parent.get(), 14);
    }

    #[test]
    fn histogram_buckets_and_percentiles() {
        // Bucket index is monotone and the lower bound round-trips.
        let mut last = 0usize;
        for v in [0u64, 1, 2, 3, 4, 5, 7, 8, 15, 16, 100, 1000, 1 << 20, u64::MAX] {
            let idx = bucket_index(v);
            assert!(idx >= last, "index not monotone at {v}");
            assert!(bucket_lower(idx) <= v, "lower bound above value at {v}");
            assert!(idx < HIST_BUCKETS);
            last = idx;
        }
        // Exact small values.
        for v in 0..4u64 {
            assert_eq!(bucket_lower(bucket_index(v)), v);
        }

        let h = Histogram::new();
        assert_eq!(h.percentile(0.5), 0);
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        assert_eq!(h.max(), 1000);
        let p50 = h.percentile(0.50);
        let p99 = h.percentile(0.99);
        // Log-linear bucketing: lower bound within ~25% below the true
        // quantile, never above it.
        assert!((375..=500).contains(&p50), "p50 = {p50}");
        assert!((744..=990).contains(&p99), "p99 = {p99}");
        assert!(p50 <= h.percentile(0.90) && h.percentile(0.90) <= p99);
    }

    #[test]
    fn registry_interns_and_snapshots() {
        let reg = Registry::default();
        let c = reg.counter("test.counter");
        assert!(Arc::ptr_eq(&c, &reg.counter("test.counter")));
        c.add(7);
        reg.gauge("test.gauge").set(-3);
        reg.histogram("test.hist").record(42);
        reg.event(Level::Warn, "test.warn", "log \"growth\" high");

        let json = reg.snapshot_json();
        assert!(json.contains("\"test.counter\": 7"), "{json}");
        assert!(json.contains("\"test.gauge\": -3"), "{json}");
        assert!(json.contains("\"count\": 1"), "{json}");
        assert!(json.contains("\"level\": \"warn\""), "{json}");
        assert!(json.contains("log \\\"growth\\\" high"), "{json}");

        let text = reg.snapshot_text();
        assert!(text.contains("test.counter"), "{text}");
        assert!(text.contains("event[warn] test.warn"), "{text}");
    }

    #[test]
    fn event_buffer_is_bounded() {
        let reg = Registry::default();
        for i in 0..(MAX_EVENTS + 10) {
            reg.event(Level::Info, "spam", format!("{i}"));
        }
        assert_eq!(reg.events().len(), MAX_EVENTS);
        assert_eq!(reg.events_dropped.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn timer_skips_clock_when_disabled() {
        let _guard = TRACE_LOCK.lock().unwrap();
        set_tracing(false);
        assert!(timer().is_none());
        let h = Histogram::new();
        record_since(&h, timer());
        assert_eq!(h.count(), 0);
        set_tracing(true);
        let t = timer();
        assert!(t.is_some());
        record_since(&h, t);
        assert_eq!(h.count(), 1);
        set_tracing(false);
    }
}
