//! `ca-obs`: observability on **simulated time**.
//!
//! The solver stack (`ca-gmres` drivers on top of the `ca-gpusim` substrate)
//! models time with deterministic per-device clocks. This crate records what
//! happened against those clocks without ever advancing them:
//!
//! - **Spans** — nestable named intervals (`span_begin`/`span_end`) on a
//!   [`Track`] (host, device queue, or copy link). Begin/end timestamps are
//!   caller-supplied simulated times, so recording is a pure observation and
//!   an instrumented run stays bit-identical to an uninstrumented one.
//! - **Instants** — point events with an optional `cause` annotation
//!   (watchdog escalations, retune decisions, rollbacks).
//! - **Metrics** — a typed registry of counters, gauges, and histograms
//!   ([`metrics::MetricsSnapshot`]) with a deterministic hand-rolled JSON
//!   encoding and FNV-1a content hash.
//! - **Counter samples** — time-series values rendered as Perfetto counter
//!   tracks (e.g. relative residual per restart cycle).
//!
//! Recording state is **thread-local**: a session is opened with [`start`]
//! and drained with [`finish`], which returns an immutable [`Recording`].
//! When no session is active every recording call is a no-op behind a single
//! thread-local boolean check, so uninstrumented runs pay (almost) nothing.
//! The driver code runs on the caller's thread and is the only emitter, so
//! the event order is that of the program.
//!
//! Exporters live in [`export`] (Perfetto `chrome://tracing` JSON with
//! process/thread metadata and counter tracks; folded stacks for flamegraph
//! tools) and the per-phase time shares of a restart cycle in [`report`].

pub mod export;
pub mod jsonv;
pub mod metrics;
pub mod names;
pub mod report;

use std::cell::RefCell;
use std::collections::BTreeMap;

pub use jsonv::Jv;
pub use metrics::{
    fnv1a, fnv1a_words, Fnv1a, HistogramData, MetricValue, MetricsSnapshot, MetricsView,
};
pub use report::PhaseRatios;

/// Timeline a span or instant is attributed to.
///
/// The numbering mirrors the `ca-gpusim` trace exporter: one host row, one
/// row per device command queue, one row per device's PCIe copy engine.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub enum Track {
    /// The host thread driving the solve.
    Host,
    /// Command queue of device `d`.
    Device(u32),
    /// Copy engine (PCIe link) of device `d`.
    Link(u32),
}

impl Track {
    /// Stable per-track id used as the `tid` in Perfetto exports
    /// (host = 0, device `d` queue = `2d+1`, device `d` link = `2d+2`).
    pub fn tid(self) -> u64 {
        match self {
            Track::Host => 0,
            Track::Device(d) => 2 * u64::from(d) + 1,
            Track::Link(d) => 2 * u64::from(d) + 2,
        }
    }

    /// Human-readable label used for thread names and folded-stack roots.
    pub fn label(self) -> String {
        match self {
            Track::Host => "host".to_string(),
            Track::Device(d) => format!("gpu{d} queue"),
            Track::Link(d) => format!("gpu{d} copy engine"),
        }
    }
}

/// Handle to an open span, returned by [`span_begin`].
///
/// When recording is disabled the sentinel [`SpanId::NONE`] is returned and
/// [`span_end`] ignores it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpanId(u32);

impl SpanId {
    /// Sentinel meaning "recording was disabled at begin time".
    pub const NONE: SpanId = SpanId(u32::MAX);
}

/// A closed named interval on a [`Track`], in simulated seconds.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span name (dot-separated by convention, e.g. `mpk.exchange`).
    pub name: String,
    /// Timeline this span belongs to.
    pub track: Track,
    /// Simulated begin time (seconds).
    pub t0: f64,
    /// Simulated end time (seconds).
    pub t1: f64,
    /// Nesting depth under other spans open on the same track at begin time.
    pub depth: u32,
}

/// A point event with an optional cause annotation.
#[derive(Clone, Debug)]
pub struct InstantEvent {
    /// Event name.
    pub name: String,
    /// Timeline the event belongs to.
    pub track: Track,
    /// Simulated time (seconds).
    pub t: f64,
    /// Free-form cause annotation (empty if none).
    pub cause: String,
}

/// A sampled time-series value, rendered as a Perfetto counter track.
#[derive(Clone, Debug)]
pub struct CounterSample {
    /// Counter-track name.
    pub name: String,
    /// Simulated time (seconds).
    pub t: f64,
    /// Sampled value.
    pub value: f64,
}

/// Immutable result of a recording session, returned by [`finish`].
#[derive(Clone, Debug, Default)]
pub struct Recording {
    /// Closed spans in begin order (per track, begin times are monotone).
    pub spans: Vec<Span>,
    /// Point events in emission order.
    pub instants: Vec<InstantEvent>,
    /// Counter-track samples in emission order.
    pub samples: Vec<CounterSample>,
    /// Final state of the metric registry.
    pub metrics: MetricsSnapshot,
}

impl Recording {
    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.instants.is_empty()
            && self.samples.is_empty()
            && self.metrics.values.is_empty()
    }

    /// Verify that on every track the recorded spans form a well-nested
    /// forest consistent with their timestamps: begin times are monotone in
    /// record order, each span's recorded `depth` matches the set of
    /// still-open ancestors, and every span lies within its parent.
    pub fn check_well_nested(&self) -> Result<(), String> {
        let mut by_track: BTreeMap<Track, Vec<&Span>> = BTreeMap::new();
        for s in &self.spans {
            by_track.entry(s.track).or_default().push(s);
        }
        for (track, spans) in &by_track {
            // Stack of (t0, t1, name) for currently-open ancestors.
            let mut stack: Vec<&Span> = Vec::new();
            let mut prev_t0 = f64::NEG_INFINITY;
            for s in spans {
                if !(s.t0.is_finite() && s.t1.is_finite()) {
                    return Err(format!("{:?}: span '{}' has non-finite bounds", track, s.name));
                }
                if s.t1 < s.t0 {
                    return Err(format!(
                        "{:?}: span '{}' ends before it begins ({} < {})",
                        track, s.name, s.t1, s.t0
                    ));
                }
                if s.t0 < prev_t0 {
                    return Err(format!(
                        "{:?}: span '{}' begins at {} before previous begin {}",
                        track, s.name, s.t0, prev_t0
                    ));
                }
                prev_t0 = s.t0;
                stack.truncate(s.depth as usize);
                if stack.len() != s.depth as usize {
                    return Err(format!(
                        "{:?}: span '{}' has depth {} but only {} open ancestors",
                        track,
                        s.name,
                        s.depth,
                        stack.len()
                    ));
                }
                if let Some(parent) = stack.last() {
                    if s.t0 < parent.t0 || s.t1 > parent.t1 {
                        return Err(format!(
                            "{:?}: span '{}' [{}, {}] escapes parent '{}' [{}, {}]",
                            track, s.name, s.t0, s.t1, parent.name, parent.t0, parent.t1
                        ));
                    }
                }
                stack.push(s);
            }
        }
        Ok(())
    }
}

#[derive(Default)]
struct Recorder {
    enabled: bool,
    spans: Vec<Span>,
    open: BTreeMap<Track, Vec<u32>>,
    instants: Vec<InstantEvent>,
    samples: Vec<CounterSample>,
    metrics: metrics::Registry,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// True if a recording session is active on this thread.
pub fn enabled() -> bool {
    RECORDER.with(|r| r.borrow().enabled)
}

/// Begin a recording session on this thread, discarding any previous state.
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Recorder { enabled: true, ..Recorder::default() };
    });
}

/// End the session and return everything recorded since [`start`].
///
/// Spans still open (e.g. because an instrumented solve aborted early) are
/// discarded; use [`close_open`] on error-recovery paths to keep them.
pub fn finish() -> Recording {
    RECORDER.with(|r| {
        let rec = std::mem::take(&mut *r.borrow_mut());
        let open: std::collections::BTreeSet<u32> = rec.open.values().flatten().copied().collect();
        let spans = rec
            .spans
            .into_iter()
            .enumerate()
            .filter(|(i, _)| !open.contains(&(*i as u32)))
            .map(|(_, s)| s)
            .collect();
        Recording {
            spans,
            instants: rec.instants,
            samples: rec.samples,
            metrics: rec.metrics.snapshot(),
        }
    })
}

/// `f` applied to this thread's recorder when a session is active, `None`
/// otherwise: every recording entry's one borrow and one flag test, all an
/// entry costs with recording off.
#[inline]
fn recording<T>(f: impl FnOnce(&mut Recorder) -> T) -> Option<T> {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.enabled.then(|| f(&mut r))
    })
}

/// Open a span named `name` on `track` at simulated time `t`.
pub fn span_begin(name: &str, track: Track, t: f64) -> SpanId {
    recording(|r| {
        let depth = r.open.get(&track).map_or(0, Vec::len) as u32;
        let idx = r.spans.len() as u32;
        r.spans.push(Span { name: name.to_string(), track, t0: t, t1: f64::NAN, depth });
        r.open.entry(track).or_default().push(idx);
        SpanId(idx)
    })
    .unwrap_or(SpanId::NONE)
}

/// Close the span `id` at simulated time `t`. No-op for [`SpanId::NONE`].
pub fn span_end(id: SpanId, t: f64) {
    if id == SpanId::NONE {
        return;
    }
    recording(|r| {
        let slot = id.0 as usize;
        let track = r.spans[slot].track;
        if let Some(stack) = r.open.get_mut(&track) {
            debug_assert_eq!(stack.last(), Some(&id.0), "span_end out of order on {track:?}");
            stack.retain(|&i| i != id.0);
        }
        let span = &mut r.spans[slot];
        span.t1 = if t >= span.t0 { t } else { span.t0 };
    });
}

/// Record an already-closed span `[t0, t1]` (used when ingesting device
/// command traces after the fact). Nests under any spans currently open on
/// the same track.
pub fn span(name: &str, track: Track, t0: f64, t1: f64) {
    recording(|r| {
        let depth = r.open.get(&track).map_or(0, Vec::len) as u32;
        r.spans.push(Span { name: name.to_string(), track, t0, t1: t1.max(t0), depth });
    });
}

/// Close every still-open span at simulated time `t` (clamped to each span's
/// begin time). Call on error-recovery paths before recording continues.
pub fn close_open(t: f64) {
    recording(|r| {
        let open = std::mem::take(&mut r.open);
        for idx in open.into_values().flatten() {
            let span = &mut r.spans[idx as usize];
            span.t1 = if t >= span.t0 { t } else { span.t0 };
        }
    });
}

/// Run `f` with recording paused on this thread, then resume the session
/// if one was active. For work on clocks of its own (e.g. pricing a kernel
/// on a cost-only machine whose clocks start at zero, or replaying a solve),
/// which would otherwise record timestamps that jump backwards on the
/// timeline.
pub fn unobserved<T>(f: impl FnOnce() -> T) -> T {
    let was = RECORDER.with(|r| std::mem::replace(&mut r.borrow_mut().enabled, false));
    let out = f();
    if was {
        RECORDER.with(|r| r.borrow_mut().enabled = true);
    }
    out
}

/// Record a point event.
pub fn instant(name: &str, track: Track, t: f64) {
    instant_cause(name, track, t, "");
}

/// Record a point event with a cause annotation.
pub fn instant_cause(name: &str, track: Track, t: f64, cause: &str) {
    recording(|r| {
        r.instants.push(InstantEvent {
            name: name.to_string(),
            track,
            t,
            cause: cause.to_string(),
        });
    });
}

/// Add `delta` to the counter `name` in the metric registry.
pub fn counter_add(name: &str, delta: u64) {
    recording(|r| r.metrics.counter_add(name, delta));
}

/// Set the gauge `name` to `value`.
pub fn gauge_set(name: &str, value: f64) {
    recording(|r| r.metrics.gauge_set(name, value));
}

/// Record `value` into the histogram `name`.
pub fn observe(name: &str, value: f64) {
    recording(|r| r.metrics.observe(name, value));
}

/// Record a counter-track sample (time-series value at simulated time `t`).
pub fn sample(name: &str, t: f64, value: f64) {
    recording(|r| r.samples.push(CounterSample { name: name.to_string(), t, value }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_noop() {
        assert!(!enabled());
        let id = span_begin("x", Track::Host, 0.0);
        assert_eq!(id, SpanId::NONE);
        span_end(id, 1.0);
        counter_add("c", 1);
        observe("h", 0.5);
        sample("s", 0.0, 1.0);
        let rec = finish();
        assert!(rec.is_empty());
    }

    #[test]
    fn spans_nest_and_close() {
        start();
        let a = span_begin("cycle", Track::Host, 0.0);
        let b = span_begin("spmv", Track::Host, 0.0);
        span("mpk.exchange", Track::Host, 0.1, 0.2);
        span_end(b, 0.5);
        let c = span_begin("orth", Track::Host, 0.5);
        span_end(c, 0.9);
        span_end(a, 1.0);
        let rec = finish();
        assert_eq!(rec.spans.len(), 4);
        assert_eq!(rec.spans[0].depth, 0);
        assert_eq!(rec.spans[1].depth, 1);
        assert_eq!(rec.spans[2].depth, 2);
        assert_eq!(rec.spans[3].depth, 1);
        rec.check_well_nested().unwrap();
    }

    #[test]
    fn open_spans_are_discarded_at_finish() {
        start();
        let _outer = span_begin("never-closed-outer", Track::Host, 0.0);
        span("leaf", Track::Host, 0.0, 0.5);
        let _leak = span_begin("never-closed-inner", Track::Host, 0.6);
        let rec = finish();
        let names: Vec<&str> = rec.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["leaf"]);
    }

    #[test]
    fn close_open_clamps_and_keeps() {
        start();
        let a = span_begin("outer", Track::Host, 1.0);
        close_open(0.5); // earlier than begin: clamped to zero duration
        let rec = finish();
        assert_eq!(rec.spans.len(), 1);
        assert_eq!(rec.spans[0].t1, 1.0);
        let _ = a;
    }

    #[test]
    fn nesting_violation_detected() {
        start();
        let a = span_begin("p", Track::Host, 0.0);
        let b = span_begin("child-escapes", Track::Host, 0.5);
        span_end(b, 2.0);
        span_end(a, 1.0);
        let rec = finish();
        assert!(rec.check_well_nested().is_err());
    }

    #[test]
    fn tracks_are_independent() {
        start();
        let a = span_begin("host-phase", Track::Host, 0.0);
        span("k", Track::Device(0), 0.2, 0.4);
        span("k", Track::Device(1), 0.1, 0.9);
        span_end(a, 1.0);
        let rec = finish();
        rec.check_well_nested().unwrap();
        assert_eq!(rec.spans.iter().filter(|s| s.depth == 0).count(), 3);
    }

    #[test]
    fn unobserved_suppresses_recording() {
        start();
        span("kept", Track::Host, 0.0, 1.0);
        let out = unobserved(|| {
            assert!(!enabled());
            span("dropped", Track::Host, 9.0, 10.0); // a dry-run at reset clocks
            counter_add("dropped", 1);
            7
        });
        assert_eq!(out, 7);
        assert!(enabled());
        span("kept-too", Track::Host, 1.0, 2.0);
        let rec = finish();
        let names: Vec<&str> = rec.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["kept", "kept-too"]);
        assert!(rec.metrics.values.is_empty());
        // with no session at all, the scope leaves recording off
        unobserved(|| assert!(!enabled()));
        assert!(!enabled());
    }

    #[test]
    fn metrics_accumulate() {
        start();
        counter_add("c", 2);
        counter_add("c", 3);
        gauge_set("g", 1.5);
        observe("h", 1.0);
        observe("h", 3.0);
        let rec = finish();
        assert_eq!(rec.metrics.values["c"], MetricValue::Counter(5));
        assert_eq!(rec.metrics.values["g"], MetricValue::Gauge(1.5));
        match &rec.metrics.values["h"] {
            MetricValue::Histogram(h) => {
                assert_eq!(h.count, 2);
                assert_eq!(h.sum, 4.0);
                assert_eq!(h.min, 1.0);
                assert_eq!(h.max, 3.0);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }
}
