//! # cbsp-trace — pipeline observability
//!
//! Zero-dependency (std-only) instrumentation layer for the CBSP
//! pipeline: span timers with hierarchical `stage/substage` names,
//! monotonic counters, gauges and log-bucket histograms, with two
//! exporters — Chrome trace-event JSON (loadable in `chrome://tracing`
//! or Perfetto) and a flat machine-readable `metrics.json` snapshot.
//!
//! ## Recorders
//!
//! Everything is recorded into a [`Recorder`]. Instrumented code never
//! names one: the free functions ([`span`], [`add`], [`gauge`], …)
//! record into the recorder installed on the calling thread
//! ([`Recorder::install`]), or into the process-global one ([`global`])
//! when none is installed. The `cbsp-par` pool installs its caller's
//! recorder in every scoped worker. A server keeps its own recorder and
//! folds short-lived per-batch ones into it
//! ([`Recorder::merge_totals_into`]); tests install private recorders
//! and assert exact counts without serializing against each other.
//!
//! ## Overhead contract
//!
//! The global recorder is **disabled by default** ([`enable`]). Every
//! instrumentation entry point starts with two relaxed atomic loads —
//! is a recorder installed on any thread, is the global one enabled —
//! and when both are false that is the *entire* cost: no allocation,
//! no lock, no clock read. An installed recorder always records.
//! Instrumentation never branches on pipeline data, so recording cannot
//! change any computed result: the 1-vs-8-thread byte-identical
//! determinism guarantees hold with tracing on or off.
//!
//! ## Model
//!
//! - **Spans** measure wall-clock duration of a named scope, recorded
//!   when the guard drops into the recorder current at its start, and
//!   tagged with a small sequential id for the recording thread. Names
//!   are `'static` paths (`"stage/profile"`); an optional label carries
//!   dynamic context (a binary name, a store stage key).
//! - **Counters** are monotonic `u64` sums; concurrent increments from
//!   pool workers total correctly.
//! - **Gauges** are last-write-wins `f64` observations.
//! - **Histograms** ([`Histogram`]) count `u64` samples in power-of-two
//!   buckets, with an exact sum and maximum.
//!
//! [`chrome_trace_json`] emits complete (`"ph": "X"`) events in
//! microseconds relative to the recorder epoch; [`metrics_json`] emits
//! `{schema, counters, gauges, spans}` where `spans` aggregates
//! per-name `{count, total_ns}`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// On/off switch of the process-global recorder.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Installed-recorder guards alive on any thread; while zero, no
/// thread-local lookup happens at all. Relaxed suffices: a thread only
/// ever reads its own installs through it.
static INSTALLED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static CURRENT: RefCell<Option<Arc<Recorder>>> = const { RefCell::new(None) };
}

/// Returns whether the process-global recorder is enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Returns whether instrumentation on the calling thread records: a
/// recorder is installed here, or the global one is enabled. Use this
/// to skip *preparing* expensive labels or clock readings.
#[inline]
pub fn recording() -> bool {
    current().is_some() || enabled()
}

/// Turns the global recorder on. Events recorded after this call are
/// kept until [`reset`].
pub fn enable() {
    global(); // materialize the recorder (and its epoch) eagerly
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns the global recorder off. Already-recorded data is retained
/// and still exportable; in-flight span guards created while enabled
/// will still record on drop.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// The process-global recorder.
pub fn global() -> &'static Recorder {
    static GLOBAL: OnceLock<Recorder> = OnceLock::new();
    GLOBAL.get_or_init(Recorder::new)
}

/// The recorder installed on the calling thread, if any.
#[inline]
pub fn current() -> Option<Arc<Recorder>> {
    if INSTALLED.load(Ordering::Relaxed) == 0 {
        return None;
    }
    CURRENT.with(|c| c.borrow().clone())
}

/// Runs `f` on the recorder instrumentation writes to right now, if
/// anything records.
#[inline]
fn with_target(f: impl FnOnce(&Recorder)) {
    match current() {
        Some(rec) => f(&rec),
        None if enabled() => f(global()),
        None => {}
    }
}

/// Runs `f` on the installed recorder, or on the global one.
fn with_current<R>(f: impl FnOnce(&Recorder) -> R) -> R {
    match current() {
        Some(rec) => f(&rec),
        None => f(global()),
    }
}

/// Clears the current recorder (installed, else global) and restarts
/// its epoch. Does not change the enabled flag.
pub fn reset() {
    with_current(Recorder::reset);
}

/// One completed span occurrence.
#[derive(Clone)]
struct Event {
    name: &'static str,
    label: Option<String>,
    tid: u64,
    start: Instant,
    dur_ns: u64,
}

/// Everything one recorder holds, behind its one lock.
struct Data {
    epoch: Instant,
    events: Vec<Event>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Data {
    fn new() -> Data {
        Data {
            epoch: Instant::now(),
            events: Vec::new(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }

    fn add(&mut self, name: &str, delta: u64) {
        match self.counters.get_mut(name) {
            Some(v) => *v = v.saturating_add(delta),
            None => {
                self.counters.insert(name.to_string(), delta);
            }
        }
    }
}

/// A set of spans, counters, gauges and histograms, safe to share
/// across threads.
pub struct Recorder(Mutex<Data>);

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

/// Guard returned by [`Recorder::install`]; restores the previously
/// installed recorder when dropped, on the thread that installed it.
#[must_use = "the recorder is uninstalled when this guard drops"]
pub struct Installed {
    prev: Option<Arc<Recorder>>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for Installed {
    fn drop(&mut self) {
        let prev = self.prev.take();
        let _ = CURRENT.try_with(|c| *c.borrow_mut() = prev);
        INSTALLED.fetch_sub(1, Ordering::Relaxed);
    }
}

impl Recorder {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Recorder {
        Recorder(Mutex::new(Data::new()))
    }

    fn data(&self) -> MutexGuard<'_, Data> {
        self.0.lock().expect("trace recorder lock")
    }

    /// Makes this the calling thread's recorder until the guard drops:
    /// the free instrumentation functions record here, whatever the
    /// global enabled flag says. Installs nest.
    pub fn install(self: &Arc<Self>) -> Installed {
        INSTALLED.fetch_add(1, Ordering::Relaxed);
        let prev = CURRENT.with(|c| c.replace(Some(Arc::clone(self))));
        Installed {
            prev,
            _not_send: PhantomData,
        }
    }

    /// Adds `delta` to the named monotonic counter.
    pub fn add(&self, name: &str, delta: u64) {
        self.data().add(name, delta);
    }

    fn gauge(&self, name: &str, value: f64) {
        self.data().gauges.insert(name.to_string(), value);
    }

    /// Records one sample in the named histogram.
    pub fn observe(&self, name: &str, value: u64) {
        let mut data = self.data();
        data.histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// A copy of the named histogram (empty when never observed).
    pub fn histogram(&self, name: &str) -> Histogram {
        let data = self.data();
        data.histograms.get(name).copied().unwrap_or_default()
    }

    /// Clears everything recorded and restarts the epoch.
    pub fn reset(&self) {
        *self.data() = Data::new();
    }

    /// Adds this recorder's counters and histogram samples to `dst`.
    pub fn merge_totals_into(&self, dst: &Recorder) {
        let (src, mut dst) = (self.data(), dst.data());
        for (name, &v) in &src.counters {
            dst.add(name, v);
        }
        for (name, h) in &src.histograms {
            dst.histograms.entry(name.clone()).or_default().merge(h);
        }
    }

    /// Adds everything this recorder holds to `dst`: counters and
    /// histograms, gauges (last write wins), and span events.
    pub fn merge_into(&self, dst: &Recorder) {
        self.merge_totals_into(dst);
        let (src, mut dst) = (self.data(), dst.data());
        dst.gauges.extend(src.gauges.clone());
        dst.events.extend(src.events.iter().cloned());
    }

    /// Counters, gauges and per-name span totals.
    pub fn snapshot(&self) -> Snapshot {
        let data = self.data();
        let mut spans: BTreeMap<String, SpanTotal> = BTreeMap::new();
        for ev in &data.events {
            let slot = spans.entry(ev.name.to_string()).or_default();
            slot.count += 1;
            slot.total_ns = slot.total_ns.saturating_add(ev.dur_ns);
        }
        Snapshot {
            counters: data.counters.clone(),
            gauges: data.gauges.clone(),
            spans,
        }
    }

    /// This recorder's spans as a Chrome trace-event document (see
    /// [`chrome_trace_json`]).
    fn chrome_trace_json(&self) -> String {
        let data = self.data();
        // A span that started before a reset() moved the epoch is
        // clamped to the epoch.
        let start_ns =
            |ev: &Event| saturating_ns(ev.start.saturating_duration_since(data.epoch).as_nanos());
        let mut events: Vec<&Event> = data.events.iter().collect();
        events.sort_by_key(|ev| (start_ns(ev), ev.tid));

        let mut out = String::with_capacity(256 + events.len() * 128);
        out.push_str("{\"traceEvents\":[");
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"cbsp\"}}",
        );
        for ev in events {
            out.push(',');
            out.push_str("{\"name\":");
            push_str_value(&mut out, ev.name);
            out.push_str(",\"cat\":\"cbsp\",\"ph\":\"X\",\"pid\":1,\"tid\":");
            let _ = write!(out, "{}", ev.tid);
            out.push_str(",\"ts\":");
            push_f64(&mut out, start_ns(ev) as f64 / 1000.0);
            out.push_str(",\"dur\":");
            push_f64(&mut out, ev.dur_ns as f64 / 1000.0);
            if let Some(label) = &ev.label {
                out.push_str(",\"args\":{\"label\":");
                push_str_value(&mut out, label);
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

/// Number of power-of-two buckets: bucket `i` counts samples in
/// `[2^i, 2^(i+1))`.
const BUCKETS: usize = 36;

/// A power-of-two histogram of `u64` samples, with an exact count, sum
/// and maximum. Quantile estimates return the upper bound of the
/// containing bucket, i.e. they are conservative to within a factor of
/// two — plenty for the "did p95 regress 10x" question latency
/// histograms exist to answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = (63 - u64::leading_zeros(value.max(1)) as usize).min(BUCKETS - 1);
        self.buckets[idx] += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Upper bound of the bucket holding the `q`-quantile
    /// (`0.0..=1.0`), or 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return 1u64 << (i + 1);
            }
        }
        1u64 << BUCKETS
    }
}

/// Small sequential id for the calling thread (1, 2, 3, ... in first
/// instrumentation-call order). Chrome trace `tid`s stay readable this
/// way, unlike the opaque 64-bit OS thread ids.
fn thread_tag() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TAG: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TAG.with(|t| *t)
}

/// RAII span guard: records a completed event when dropped. A no-op
/// (and allocation-free) when nothing recorded at its start.
#[must_use = "a span measures the scope it lives in; binding it to _ drops it immediately"]
pub struct Span {
    rec: Option<SpanRec>,
}

struct SpanRec {
    /// The installed recorder at creation; `None` means the global one.
    into: Option<Arc<Recorder>>,
    name: &'static str,
    label: Option<String>,
    start: Instant,
}

/// Starts a span with a static hierarchical name, e.g.
/// `"stage/simpoint"`.
#[inline]
pub fn span(name: &'static str) -> Span {
    span_with(name, None::<fn() -> String>)
}

/// Starts a span with a dynamic label. The label closure only runs
/// when something records, so formatting costs nothing when off.
#[inline]
pub fn span_labeled<F: FnOnce() -> String>(name: &'static str, label: F) -> Span {
    span_with(name, Some(label))
}

#[inline]
fn span_with<F: FnOnce() -> String>(name: &'static str, label: Option<F>) -> Span {
    let into = current();
    if into.is_none() && !enabled() {
        return Span { rec: None };
    }
    Span {
        rec: Some(SpanRec {
            into,
            name,
            label: label.map(|f| f()),
            start: Instant::now(),
        }),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(rec) = self.rec.take() else { return };
        let event = Event {
            name: rec.name,
            label: rec.label,
            tid: thread_tag(),
            start: rec.start,
            dur_ns: saturating_ns(rec.start.elapsed().as_nanos()),
        };
        let recorder = rec.into.as_deref().unwrap_or_else(|| global());
        // A poisoned lock drops the event rather than panic in drop.
        if let Ok(mut data) = recorder.0.lock() {
            data.events.push(event);
        };
    }
}

fn saturating_ns(ns: u128) -> u64 {
    u64::try_from(ns).unwrap_or(u64::MAX)
}

/// Adds `delta` to the named monotonic counter. No-op when nothing
/// records or `delta` is zero.
#[inline]
pub fn add(name: &str, delta: u64) {
    if delta != 0 {
        with_target(|r| r.add(name, delta));
    }
}

/// Records a last-write-wins gauge observation. No-op when nothing
/// records.
#[inline]
pub fn gauge(name: &str, value: f64) {
    with_target(|r| r.gauge(name, value));
}

/// Aggregate of all occurrences of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotal {
    /// Number of recorded occurrences.
    pub count: u64,
    /// Sum of recorded durations, nanoseconds.
    pub total_ns: u64,
}

/// Point-in-time copy of a recorder's aggregates, in plain
/// `BTreeMap`s so downstream crates can embed them with whatever
/// serializer they use.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges by name.
    pub gauges: BTreeMap<String, f64>,
    /// Per-span-name totals.
    pub spans: BTreeMap<String, SpanTotal>,
}

/// Snapshot of the current recorder (installed, else global).
pub fn snapshot() -> Snapshot {
    with_current(Recorder::snapshot)
}

// ---------------------------------------------------------------------
// Exporters (hand-written JSON; this crate stays std-only)
// ---------------------------------------------------------------------

/// Escapes `s` as the body of a JSON string literal.
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn push_str_value(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Formats an `f64` so it parses back as a JSON *float* (a trailing
/// `.0` is kept for integral values); non-finite values become `null`.
fn push_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 1e15 {
        let _ = write!(out, "{v:.1}");
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Renders the current recorder's spans (installed, else global) as a
/// Chrome trace-event JSON document: `{"traceEvents": [...],
/// "displayTimeUnit": "ms"}` with complete (`"ph": "X"`) events,
/// timestamps in microseconds since the recorder epoch. Load the
/// output in `chrome://tracing` or <https://ui.perfetto.dev>.
pub fn chrome_trace_json() -> String {
    with_current(Recorder::chrome_trace_json)
}

/// Renders the current recorder's [`Snapshot`] (installed, else
/// global) as flat machine-readable JSON: `{"schema": 1, "counters":
/// {...}, "gauges": {...}, "spans": {"name": {"count": n, "total_ns":
/// n}, ...}}`.
pub fn metrics_json() -> String {
    snapshot().to_json()
}

impl Snapshot {
    /// Serializes this snapshot in the `metrics.json` format.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"schema\":1,\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_str_value(&mut out, name);
            let _ = write!(out, ":{v}");
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_str_value(&mut out, name);
            out.push(':');
            push_f64(&mut out, *v);
        }
        out.push_str("},\"spans\":{");
        for (i, (name, t)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_str_value(&mut out, name);
            let _ = write!(
                out,
                ":{{\"count\":{},\"total_ns\":{}}}",
                t.count, t.total_ns
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `f` with a fresh private recorder installed and returns the
    /// recorder.
    fn recorded(f: impl FnOnce()) -> Arc<Recorder> {
        let rec = Arc::new(Recorder::new());
        {
            let _installed = rec.install();
            f();
        }
        rec
    }

    #[test]
    fn disabled_is_inert_and_allocation_free() {
        // No test in this binary enables the global recorder, and
        // nothing is installed on this thread.
        assert!(!enabled() && current().is_none());
        {
            let s = span("stage/test");
            assert!(s.rec.is_none(), "no record captured while disabled");
        }
        let _ = span_labeled("stage/test", || unreachable!("label closure must not run"));
        add("counter/test", 5);
        gauge("gauge/test", 1.5);
        assert!(!recording());
        assert_eq!(global().snapshot(), Snapshot::default());
    }

    #[test]
    fn records_spans_counters_gauges() {
        let snap = recorded(|| {
            {
                let _outer = span("stage/outer");
                let _inner = span_labeled("stage/inner", || "gcc".to_string());
            }
            add("pipeline/intervals_produced", 7);
            add("pipeline/intervals_produced", 3);
            gauge("pipeline/dims", 15.0);
        })
        .snapshot();
        assert_eq!(snap.counters["pipeline/intervals_produced"], 10);
        assert_eq!(snap.gauges["pipeline/dims"], 15.0);
        assert_eq!(snap.spans["stage/outer"].count, 1);
        assert_eq!(snap.spans["stage/inner"].count, 1);
        // Inner closed first, so outer's duration dominates.
        assert!(snap.spans["stage/outer"].total_ns >= snap.spans["stage/inner"].total_ns);
    }

    #[test]
    fn zero_delta_add_does_not_create_counter() {
        let snap = recorded(|| add("counter/zero", 0)).snapshot();
        assert!(!snap.counters.contains_key("counter/zero"));
    }

    #[test]
    fn json_escaping_handles_special_characters() {
        let mut out = String::new();
        push_str_value(&mut out, "a\"b\\c\nd\te\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn f64_formatting_round_trips_as_float() {
        let mut out = String::new();
        push_f64(&mut out, 2.0);
        assert_eq!(out, "2.0");
        out.clear();
        push_f64(&mut out, 0.125);
        assert_eq!(out, "0.125");
        out.clear();
        push_f64(&mut out, f64::NAN);
        assert_eq!(out, "null");
    }

    #[test]
    fn chrome_trace_shape_is_stable() {
        let rec = recorded(|| {
            let _s = span_labeled("stage/compile", || "O0".to_string());
        });
        let json = {
            let _installed = rec.install();
            chrome_trace_json()
        };
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"stage/compile\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"args\":{\"label\":\"O0\"}"));
        assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}"));
    }

    #[test]
    fn metrics_json_shape_is_stable() {
        let rec = recorded(|| {
            add("store/hits", 2);
            gauge("pool/threads", 8.0);
            let _s = span("stage/map");
        });
        let json = rec.snapshot().to_json();
        assert!(json.starts_with("{\"schema\":1,\"counters\":{"));
        assert!(json.contains("\"store/hits\":2"));
        assert!(json.contains("\"pool/threads\":8.0"));
        assert!(json.contains("\"stage/map\":{\"count\":1,\"total_ns\":"));
    }

    #[test]
    fn concurrent_counter_adds_merge_exactly() {
        let rec = Arc::new(Recorder::new());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let rec = &rec;
                scope.spawn(move || {
                    let _installed = rec.install();
                    for _ in 0..1000 {
                        add("test/merge", 1);
                    }
                });
            }
        });
        assert_eq!(rec.snapshot().counters["test/merge"], 8000);
    }

    #[test]
    fn reset_restarts_epoch_and_clears() {
        let rec = recorded(|| {
            add("a", 1);
            {
                let _s = span("b");
            }
            reset();
        });
        let snap = rec.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.spans.is_empty());
    }

    #[test]
    fn installs_nest_and_restore() {
        let outer = Arc::new(Recorder::new());
        let inner = Arc::new(Recorder::new());
        {
            let _o = outer.install();
            add("x", 1);
            {
                let _i = inner.install();
                add("x", 10);
                let _s = span("held/across/uninstall");
            }
            add("x", 100);
        }
        assert!(current().is_none());
        assert_eq!(outer.snapshot().counters["x"], 101);
        assert_eq!(inner.snapshot().counters["x"], 10);
        // The span recorded into the recorder current at its start.
        assert_eq!(inner.snapshot().spans["held/across/uninstall"].count, 1);
        assert!(outer.snapshot().spans.is_empty());
    }

    #[test]
    fn merges_fold_totals_or_everything() {
        let batch = recorded(|| {
            add("store/hits", 2);
            gauge("pool/threads", 4.0);
            let _s = span("stage/map");
        });
        batch.observe("latency", 1_000);
        let totals = Recorder::new();
        batch.merge_totals_into(&totals);
        batch.merge_totals_into(&totals);
        let snap = totals.snapshot();
        assert_eq!(snap.counters["store/hits"], 4);
        assert!(snap.gauges.is_empty() && snap.spans.is_empty());
        assert_eq!(totals.histogram("latency").count(), 2);

        let all = Recorder::new();
        batch.merge_into(&all);
        let snap = all.snapshot();
        assert_eq!(snap.counters["store/hits"], 2);
        assert_eq!(snap.gauges["pool/threads"], 4.0);
        assert_eq!(snap.spans["stage/map"].count, 1);
    }

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let mut h = Histogram::default();
        for _ in 0..99 {
            h.record(1_000); // ~1 ms in µs
        }
        h.record(1_000_000); // ~1 s straggler
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 99 * 1_000 + 1_000_000);
        assert_eq!(h.max(), 1_000_000);
        let p50 = h.quantile(0.50);
        assert!((1_000..=2_048).contains(&p50), "p50 = {p50}");
        let p95 = h.quantile(0.95);
        assert!(p95 <= 2_048, "p95 = {p95}");
        let p100 = h.quantile(1.0);
        assert!(p100 >= 1_000_000, "p100 = {p100}");
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.95), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn histogram_max_and_sum_are_exact() {
        let rec = Recorder::new();
        for n in [3, 1, 7, 2] {
            rec.observe("batch", n);
        }
        let h = rec.histogram("batch");
        assert_eq!((h.count(), h.sum(), h.max), (4, 13, 7));
    }
}
