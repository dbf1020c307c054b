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
//! Long-running sessions (e.g. a service processing thousands of jobs) can
//! stream instead of accumulating: [`drain_sealed`] hands back the closed
//! prefix of the span log in batches for [`export::StreamingTrace`] to
//! flush, and [`finish`] then returns only the tail.
//! When no session is active every recording call is a no-op behind a single
//! thread-local boolean check, so uninstrumented runs pay (almost) nothing.
//! The driver code runs on the caller's thread and is the only emitter, so
//! the event order is that of the program.
//!
//! Exporters live in [`export`] (Perfetto `chrome://tracing` JSON with
//! process/thread metadata and counter tracks; folded stacks for flamegraph
//! tools) and aggregation helpers in [`report`].

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
    /// Session-absolute index of `spans[0]`: [`drain_sealed`] removes a
    /// prefix of `spans` and advances this, so outstanding [`SpanId`]s
    /// (which are session-absolute) stay valid across drains.
    base: u32,
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
        let base = rec.base;
        let spans = rec
            .spans
            .into_iter()
            .enumerate()
            .filter(|(i, _)| !open.contains(&(base + *i as u32)))
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

/// Open a span named `name` on `track` at simulated time `t`.
pub fn span_begin(name: &str, track: Track, t: f64) -> SpanId {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return SpanId::NONE;
        }
        let depth = r.open.get(&track).map_or(0, Vec::len) as u32;
        let idx = r.base + r.spans.len() as u32;
        r.spans.push(Span { name: name.to_string(), track, t0: t, t1: f64::NAN, depth });
        r.open.entry(track).or_default().push(idx);
        SpanId(idx)
    })
}

/// Close the span `id` at simulated time `t`. No-op for [`SpanId::NONE`].
pub fn span_end(id: SpanId, t: f64) {
    if id == SpanId::NONE {
        return;
    }
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return;
        }
        if id.0 < r.base {
            // Already sealed (by `close_open`) and flushed by `drain_sealed`.
            return;
        }
        let slot = (id.0 - r.base) as usize;
        let track = r.spans[slot].track;
        if let Some(stack) = r.open.get_mut(&track) {
            debug_assert_eq!(stack.last(), Some(&id.0), "span_end out of order on {track:?}");
            stack.retain(|&i| i != id.0);
        }
        let span = &mut r.spans[slot];
        span.t1 = if t >= span.t0 { t } else { span.t0 };
    })
}

/// Record an already-closed span `[t0, t1]` (used when ingesting device
/// command traces after the fact). Nests under any spans currently open on
/// the same track.
pub fn span(name: &str, track: Track, t0: f64, t1: f64) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return;
        }
        let depth = r.open.get(&track).map_or(0, Vec::len) as u32;
        r.spans.push(Span { name: name.to_string(), track, t0, t1: t1.max(t0), depth });
    })
}

/// Close every still-open span at simulated time `t` (clamped to each span's
/// begin time). Call on error-recovery paths before recording continues.
pub fn close_open(t: f64) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return;
        }
        let open = std::mem::take(&mut r.open);
        let base = r.base;
        for idx in open.into_values().flatten() {
            let span = &mut r.spans[(idx - base) as usize];
            span.t1 = if t >= span.t0 { t } else { span.t0 };
        }
    })
}

/// Remove and return the *sealed prefix* of the session's span log: every
/// span recorded before the earliest still-open span (all of which are
/// closed, since an open span blocks the drain at its own slot). Repeated
/// calls stream a long session out in batches — the incremental Perfetto
/// writer ([`export::StreamingTrace`]) feeds on this — while outstanding
/// [`SpanId`]s stay valid and [`finish`] later returns only the tail.
///
/// Within each track the concatenated batches preserve record order, so a
/// streamed export is byte-identical to a batch export of the same session.
/// Returns an empty vector when recording is disabled or nothing is sealed.
pub fn drain_sealed() -> Vec<Span> {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return Vec::new();
        }
        let min_open = r.open.values().flat_map(|s| s.iter().copied()).min();
        let k = match min_open {
            Some(i) => (i - r.base) as usize,
            None => r.spans.len(),
        };
        r.base += k as u32;
        r.spans.drain(..k).collect()
    })
}

/// Temporarily stop recording on this thread, returning whether a session
/// was active (pass that to [`resume`]). Used around work on clocks of its
/// own (e.g. pricing a kernel on a cost-only machine whose clocks start at
/// zero), which would otherwise record timestamps that jump backwards on
/// the timeline.
pub fn pause() -> bool {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let was = r.enabled;
        r.enabled = false;
        was
    })
}

/// Re-enable recording paused by [`pause`] (no-op when `was` is false).
pub fn resume(was: bool) {
    if was {
        RECORDER.with(|r| r.borrow_mut().enabled = true);
    }
}

/// Record a point event.
pub fn instant(name: &str, track: Track, t: f64) {
    instant_cause(name, track, t, "");
}

/// Record a point event with a cause annotation.
pub fn instant_cause(name: &str, track: Track, t: f64, cause: &str) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return;
        }
        r.instants.push(InstantEvent {
            name: name.to_string(),
            track,
            t,
            cause: cause.to_string(),
        });
    })
}

/// Add `delta` to the counter `name` in the metric registry.
pub fn counter_add(name: &str, delta: u64) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return;
        }
        r.metrics.counter_add(name, delta);
    })
}

/// Set the gauge `name` to `value`.
pub fn gauge_set(name: &str, value: f64) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return;
        }
        r.metrics.gauge_set(name, value);
    })
}

/// Record `value` into the histogram `name`.
pub fn observe(name: &str, value: f64) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return;
        }
        r.metrics.observe(name, value);
    })
}

/// Record a counter-track sample (time-series value at simulated time `t`).
pub fn sample(name: &str, t: f64, value: f64) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return;
        }
        r.samples.push(CounterSample { name: name.to_string(), t, value });
    })
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
    fn pause_suppresses_recording() {
        start();
        span("kept", Track::Host, 0.0, 1.0);
        let was = pause();
        assert!(was && !enabled());
        span("dropped", Track::Host, 9.0, 10.0); // a dry-run at reset clocks
        counter_add("dropped", 1);
        resume(was);
        span("kept-too", Track::Host, 1.0, 2.0);
        let rec = finish();
        let names: Vec<&str> = rec.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["kept", "kept-too"]);
        assert!(rec.metrics.values.is_empty());
        // with no session at all, pause reports inactive and resume is a no-op
        assert!(!pause());
        resume(false);
        assert!(!enabled());
    }

    #[test]
    fn drain_sealed_stops_at_first_open_span() {
        start();
        let outer = span_begin("outer", Track::Host, 0.0);
        span("leaf", Track::Host, 0.1, 0.2); // sealed, but after the open outer
        assert!(drain_sealed().is_empty(), "open prefix must block the drain");
        span_end(outer, 1.0);
        let batch = drain_sealed();
        let names: Vec<&str> = batch.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "leaf"]);
        assert!(drain_sealed().is_empty());
        let rec = finish();
        assert!(rec.spans.is_empty(), "drained spans must not reappear at finish");
    }

    #[test]
    fn span_ids_survive_drains() {
        start();
        let a = span_begin("a", Track::Host, 0.0);
        span_end(a, 0.5);
        assert_eq!(drain_sealed().len(), 1);
        // New spans index correctly even though the log was rebased.
        let b = span_begin("b", Track::Host, 1.0);
        let c = span_begin("c", Track::Device(0), 1.1);
        span_end(c, 1.2);
        span_end(b, 2.0);
        let batch = drain_sealed();
        let names: Vec<&str> = batch.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["b", "c"]);
        assert_eq!(batch[0].t1, 2.0);
        // A stale id sealed by close_open and already drained is ignored.
        let d = span_begin("d", Track::Host, 3.0);
        close_open(3.5);
        assert_eq!(drain_sealed().len(), 1);
        span_end(d, 9.0); // must not panic or corrupt later spans
        span("e", Track::Host, 4.0, 5.0);
        let rec = finish();
        assert_eq!(rec.spans.len(), 1);
        assert_eq!(rec.spans[0].name, "e");
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
