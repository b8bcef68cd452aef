//! # mcs-telemetry
//!
//! Dependency-free structured observability for the code-massage
//! workspace: lightweight **spans** (RAII-timed or pre-measured),
//! monotonic **counters**, log₂-bucketed **histograms**, and a JSON-lines
//! exporter the test suite and benchmark trajectory can consume.
//!
//! The crate talks to one process-global, thread-safe collector. Every
//! entry point exists in two builds selected by the `enabled` cargo
//! feature (on by default):
//!
//! * **enabled** — spans push records into a mutex-guarded buffer;
//!   counters and histograms aggregate in-place. The collector is only
//!   touched at phase granularity (per sort round, per query, per planner
//!   doubling), never per row, so the overhead is nanoseconds per event.
//! * **disabled** (`--no-default-features` on the top-level crate) — the
//!   same API compiles to empty inline functions and zero-sized guards;
//!   hot paths pay nothing, and callers need no `cfg`.
//!
//! ```
//! let mut g = mcs_telemetry::span("example.work");
//! g.attr("rows", 128u64);
//! drop(g); // records the span (no-op when the feature is off)
//! mcs_telemetry::counter_add("example.invocations", 1);
//! ```
//!
//! Library crates declare no feature of their own: the top-level crate's
//! `telemetry` feature turns on `mcs-telemetry/enabled` and cargo's
//! feature unification carries it to every crate in the build, so `cargo
//! test --workspace --no-default-features` exercises the no-op path end
//! to end.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};

/// An attribute value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String (query names, plan notations).
    Str(String),
}

macro_rules! attr_from {
    ($($t:ty => $v:ident via $conv:expr),*) => {
        $(impl From<$t> for AttrValue {
            fn from(x: $t) -> AttrValue { AttrValue::$v($conv(x)) }
        })*
    };
}
attr_from!(
    u64 => U64 via (|x| x),
    u32 => U64 via (|x: u32| x as u64),
    usize => U64 via (|x: usize| x as u64),
    i64 => I64 via (|x| x),
    f64 => F64 via (|x| x),
    bool => Bool via (|x| x),
    String => Str via (|x| x)
);
impl From<&str> for AttrValue {
    fn from(x: &str) -> AttrValue {
        AttrValue::Str(x.to_string())
    }
}

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name, e.g. `"mcs.round.sort"`.
    pub name: &'static str,
    /// Start offset from the collector epoch (first telemetry use), ns.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
    /// Small dense id of the emitting thread.
    pub thread: u64,
    /// Attributes, in insertion order.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

/// Aggregated histogram state: log₂ buckets plus exact count/sum/min/max.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value.
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// `buckets[i]` counts values with `i` significant bits
    /// (bucket 0 holds the value 0).
    pub buckets: Vec<u64>,
}

#[cfg(feature = "enabled")]
impl HistogramSummary {
    fn new() -> HistogramSummary {
        HistogramSummary {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: vec![0; 65],
        }
    }

    fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[(64 - v.leading_zeros()) as usize] += 1;
    }
}

/// Everything the collector holds, drained atomically by [`take_all`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// Finished spans in completion order.
    pub spans: Vec<SpanRecord>,
    /// Counter totals.
    pub counters: Vec<(&'static str, u64)>,
    /// Histogram summaries.
    pub histograms: Vec<(&'static str, HistogramSummary)>,
    /// Spans discarded because the in-memory cap was reached.
    pub spans_dropped: u64,
}

#[cfg(feature = "enabled")]
mod active {
    use super::{AttrValue, HistogramSummary, SpanRecord, TelemetrySnapshot};
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex, OnceLock};
    use std::time::Instant;

    /// Upper bound on buffered spans; beyond it spans are counted but
    /// dropped, so long benchmark loops cannot exhaust memory.
    const MAX_SPANS: usize = 1 << 20;

    #[derive(Default)]
    struct Collector {
        spans: Vec<SpanRecord>,
        counters: BTreeMap<&'static str, u64>,
        histograms: BTreeMap<&'static str, HistogramSummary>,
        spans_dropped: u64,
    }

    fn collector() -> &'static Mutex<Collector> {
        static C: OnceLock<Mutex<Collector>> = OnceLock::new();
        C.get_or_init(|| Mutex::new(Collector::default()))
    }

    fn epoch() -> Instant {
        static E: OnceLock<Instant> = OnceLock::new();
        *E.get_or_init(Instant::now)
    }

    fn thread_id() -> u64 {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        thread_local! {
            static ID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
        }
        ID.with(|id| *id)
    }

    /// RAII span: measures from construction to drop.
    #[must_use = "a span measures until it is dropped"]
    pub struct SpanGuard {
        name: &'static str,
        start: Instant,
        start_ns: u64,
        attrs: Vec<(&'static str, AttrValue)>,
    }

    impl SpanGuard {
        /// Attach an attribute.
        pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
            self.attrs.push((key, value.into()));
        }
    }

    impl Drop for SpanGuard {
        fn drop(&mut self) {
            push_span(SpanRecord {
                name: self.name,
                start_ns: self.start_ns,
                dur_ns: self.start.elapsed().as_nanos() as u64,
                thread: thread_id(),
                attrs: std::mem::take(&mut self.attrs),
            });
        }
    }

    fn push_span(rec: SpanRecord) {
        let mut c = collector().lock().unwrap();
        if c.spans.len() >= MAX_SPANS {
            c.spans_dropped += 1;
        } else {
            c.spans.push(rec);
        }
    }

    /// Start a span.
    pub fn span(name: &'static str) -> SpanGuard {
        let e = epoch();
        SpanGuard {
            name,
            start: Instant::now(),
            start_ns: e.elapsed().as_nanos() as u64,
            attrs: Vec::new(),
        }
    }

    /// Record a span whose duration was measured by the caller.
    pub fn record_span(name: &'static str, dur_ns: u64, attrs: Vec<(&'static str, AttrValue)>) {
        let start_ns = epoch().elapsed().as_nanos() as u64;
        push_span(SpanRecord {
            name,
            start_ns: start_ns.saturating_sub(dur_ns),
            dur_ns,
            thread: thread_id(),
            attrs,
        });
    }

    /// Add to a monotonic counter.
    pub fn counter_add(name: &'static str, delta: u64) {
        let mut c = collector().lock().unwrap();
        *c.counters.entry(name).or_insert(0) += delta;
    }

    /// Record one value into a histogram.
    pub fn histogram_record(name: &'static str, value: u64) {
        let mut c = collector().lock().unwrap();
        c.histograms
            .entry(name)
            .or_insert_with(HistogramSummary::new)
            .record(value);
    }

    /// Whether this build collects telemetry.
    pub const fn is_enabled() -> bool {
        true
    }

    /// Drop everything collected so far.
    pub fn reset() {
        let mut c = collector().lock().unwrap();
        *c = Collector::default();
    }

    /// Drain the collector: spans, counters, and histograms, atomically.
    pub fn take_all() -> TelemetrySnapshot {
        let mut c = collector().lock().unwrap();
        let taken = std::mem::take(&mut *c);
        TelemetrySnapshot {
            spans: taken.spans,
            counters: taken.counters.into_iter().collect(),
            histograms: taken.histograms.into_iter().collect(),
            spans_dropped: taken.spans_dropped,
        }
    }

    /// Copy the collector contents without draining.
    pub fn snapshot() -> TelemetrySnapshot {
        let c = collector().lock().unwrap();
        TelemetrySnapshot {
            spans: c.spans.clone(),
            counters: c.counters.iter().map(|(&k, &v)| (k, v)).collect(),
            histograms: c.histograms.iter().map(|(&k, v)| (k, v.clone())).collect(),
            spans_dropped: c.spans_dropped,
        }
    }
}

#[cfg(not(feature = "enabled"))]
mod active {
    use super::{AttrValue, TelemetrySnapshot};

    /// Zero-sized stand-in for the RAII span guard.
    #[must_use = "a span measures until it is dropped"]
    pub struct SpanGuard;

    impl SpanGuard {
        /// No-op.
        #[inline(always)]
        pub fn attr(&mut self, _key: &'static str, _value: impl Into<AttrValue>) {}
    }

    /// No-op span.
    #[inline(always)]
    pub fn span(_name: &'static str) -> SpanGuard {
        SpanGuard
    }

    /// No-op.
    #[inline(always)]
    pub fn record_span(_name: &'static str, _dur_ns: u64, _attrs: Vec<(&'static str, AttrValue)>) {}

    /// No-op.
    #[inline(always)]
    pub fn counter_add(_name: &'static str, _delta: u64) {}

    /// No-op.
    #[inline(always)]
    pub fn histogram_record(_name: &'static str, _value: u64) {}

    /// Whether this build collects telemetry.
    #[inline(always)]
    pub const fn is_enabled() -> bool {
        false
    }

    /// No-op.
    #[inline(always)]
    pub fn reset() {}

    /// Always empty.
    #[inline(always)]
    pub fn take_all() -> TelemetrySnapshot {
        TelemetrySnapshot::default()
    }

    /// Always empty.
    #[inline(always)]
    pub fn snapshot() -> TelemetrySnapshot {
        TelemetrySnapshot::default()
    }
}

pub use active::{
    counter_add, histogram_record, is_enabled, record_span, reset, snapshot, span, take_all,
    SpanGuard,
};

// ---------------------------------------------------------------------------
// JSON-lines export (works in both builds; empty report when disabled).
// ---------------------------------------------------------------------------

fn json_escape(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

fn attr_json(v: &AttrValue, out: &mut String) {
    match v {
        AttrValue::U64(x) => out.push_str(&x.to_string()),
        AttrValue::I64(x) => out.push_str(&x.to_string()),
        AttrValue::F64(x) if x.is_finite() => out.push_str(&format!("{x}")),
        AttrValue::F64(_) => out.push_str("null"),
        AttrValue::Bool(x) => out.push_str(if *x { "true" } else { "false" }),
        AttrValue::Str(s) => {
            out.push('"');
            json_escape(s, out);
            out.push('"');
        }
    }
}

/// Render a snapshot as JSON lines: one `span` object per span, then one
/// `counter` object per counter, one `histogram` per histogram, and a
/// final `meta` line with totals.
pub fn render_jsonl(snap: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    for s in &snap.spans {
        out.push_str("{\"type\":\"span\",\"name\":\"");
        json_escape(s.name, &mut out);
        out.push_str(&format!(
            "\",\"start_ns\":{},\"dur_ns\":{},\"thread\":{}",
            s.start_ns, s.dur_ns, s.thread
        ));
        if !s.attrs.is_empty() {
            out.push_str(",\"attrs\":{");
            for (i, (k, v)) in s.attrs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                json_escape(k, &mut out);
                out.push_str("\":");
                attr_json(v, &mut out);
            }
            out.push('}');
        }
        out.push_str("}\n");
    }
    for (name, v) in &snap.counters {
        out.push_str("{\"type\":\"counter\",\"name\":\"");
        json_escape(name, &mut out);
        out.push_str(&format!("\",\"value\":{v}}}\n"));
    }
    for (name, h) in &snap.histograms {
        out.push_str("{\"type\":\"histogram\",\"name\":\"");
        json_escape(name, &mut out);
        out.push_str(&format!(
            "\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
            h.count,
            h.sum,
            if h.count == 0 { 0 } else { h.min },
            h.max
        ));
        let mut first = true;
        for (bit, &c) in h.buckets.iter().enumerate() {
            if c > 0 {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!("[{bit},{c}]"));
            }
        }
        out.push_str("]}\n");
    }
    out.push_str(&format!(
        "{{\"type\":\"meta\",\"spans\":{},\"counters\":{},\"histograms\":{},\"spans_dropped\":{},\"enabled\":{}}}\n",
        snap.spans.len(),
        snap.counters.len(),
        snap.histograms.len(),
        snap.spans_dropped,
        is_enabled()
    ));
    out
}

/// Drain the collector and write it to `path` as JSON lines, creating
/// parent directories as needed. With telemetry disabled this writes a
/// report containing only the `meta` line.
pub fn export_jsonl(path: impl AsRef<Path>) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, render_jsonl(&take_all()))
}

/// Drain the collector into `dir/<run>.jsonl` (the run-report convention:
/// `results/telemetry/*.jsonl`) and return the path written.
pub fn write_run_report(dir: impl AsRef<Path>, run: &str) -> std::io::Result<PathBuf> {
    let path = dir.as_ref().join(format!("{run}.jsonl"));
    export_jsonl(&path)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(feature = "enabled")]
    mod enabled {
        use super::super::*;
        use std::sync::{Mutex, OnceLock};

        /// Tests in this module share the process-global collector;
        /// serialize them.
        fn lock() -> std::sync::MutexGuard<'static, ()> {
            static L: OnceLock<Mutex<()>> = OnceLock::new();
            L.get_or_init(|| Mutex::new(()))
                .lock()
                .unwrap_or_else(|e| e.into_inner())
        }

        #[test]
        fn spans_record_names_attrs_and_duration() {
            let _g = lock();
            reset();
            {
                let mut s = span("test.outer");
                s.attr("rows", 42u64);
                s.attr("label", "hello");
                let _inner = span("test.inner");
            }
            record_span("test.manual", 123, vec![("k", AttrValue::U64(7))]);
            let snap = take_all();
            let names: Vec<&str> = snap.spans.iter().map(|s| s.name).collect();
            // Inner drops before outer; manual comes last.
            assert_eq!(names, vec!["test.inner", "test.outer", "test.manual"]);
            let outer = &snap.spans[1];
            assert_eq!(outer.attrs[0], ("rows", AttrValue::U64(42)));
            assert_eq!(outer.attrs[1], ("label", AttrValue::Str("hello".into())));
            assert_eq!(snap.spans[2].dur_ns, 123);
            assert!(take_all().spans.is_empty(), "take_all drains");
        }

        #[test]
        fn counters_and_histograms_aggregate() {
            let _g = lock();
            reset();
            counter_add("test.ctr", 2);
            counter_add("test.ctr", 3);
            for v in [0u64, 1, 1, 7, 1024] {
                histogram_record("test.hist", v);
            }
            let snap = take_all();
            assert_eq!(snap.counters, vec![("test.ctr", 5)]);
            let (name, h) = &snap.histograms[0];
            assert_eq!(*name, "test.hist");
            assert_eq!(h.count, 5);
            assert_eq!(h.sum, 1033);
            assert_eq!(h.min, 0);
            assert_eq!(h.max, 1024);
            assert_eq!(h.buckets[0], 1); // the value 0
            assert_eq!(h.buckets[1], 2); // the two 1s
            assert_eq!(h.buckets[3], 1); // 7
            assert_eq!(h.buckets[11], 1); // 1024
        }

        #[test]
        fn spans_from_threads_all_arrive() {
            let _g = lock();
            reset();
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| drop(span("test.worker")));
                }
            });
            let snap = take_all();
            assert_eq!(snap.spans.len(), 4);
            // Thread ids are distinct per worker.
            let mut tids: Vec<u64> = snap.spans.iter().map(|s| s.thread).collect();
            tids.sort_unstable();
            tids.dedup();
            assert_eq!(tids.len(), 4);
        }

        #[test]
        fn jsonl_escapes_and_shapes() {
            let _g = lock();
            reset();
            record_span(
                "test.json",
                5,
                vec![
                    ("s", AttrValue::Str("a\"b\\c\nd".into())),
                    ("f", AttrValue::F64(1.5)),
                    ("b", AttrValue::Bool(true)),
                ],
            );
            counter_add("c", 1);
            let text = render_jsonl(&take_all());
            let lines: Vec<&str> = text.lines().collect();
            assert_eq!(lines.len(), 3); // span + counter + meta
            assert!(lines[0].contains("\"attrs\":{\"s\":\"a\\\"b\\\\c\\nd\",\"f\":1.5,\"b\":true}"));
            assert!(lines[1].contains("\"type\":\"counter\""));
            assert!(lines[2].contains("\"enabled\":true"));
        }

        #[test]
        fn export_writes_file() {
            let _g = lock();
            reset();
            drop(span("test.export"));
            let dir = std::env::temp_dir().join("mcs-telemetry-test");
            let path = write_run_report(&dir, "unit").unwrap();
            let text = std::fs::read_to_string(&path).unwrap();
            assert!(text.contains("test.export"));
            std::fs::remove_file(path).ok();
        }
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_build_is_inert() {
        let mut s = span("ignored");
        s.attr("k", 1u64);
        drop(s);
        counter_add("c", 1);
        histogram_record("h", 1);
        assert!(!is_enabled());
        let snap = take_all();
        assert!(snap.spans.is_empty() && snap.counters.is_empty());
        let text = render_jsonl(&snap);
        assert!(text.contains("\"enabled\":false"));
        assert_eq!(text.lines().count(), 1);
    }

    #[test]
    fn attr_conversions() {
        assert_eq!(AttrValue::from(3u32), AttrValue::U64(3));
        assert_eq!(AttrValue::from(3usize), AttrValue::U64(3));
        assert_eq!(AttrValue::from(true), AttrValue::Bool(true));
        assert_eq!(AttrValue::from("x"), AttrValue::Str("x".into()));
    }
}
