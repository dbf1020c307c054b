//! Exporters: Perfetto (`chrome://tracing`) JSON and folded stacks.
//!
//! The Perfetto export renders spans as duration (`"X"`) events, instants as
//! `"i"` events carrying their cause in `args`, and counter samples as
//! `"C"` counter tracks. Process/thread `metadata` events name and order the
//! rows (host, per-device queue, per-device copy engine) so the timeline is
//! readable without knowing the tid scheme. All output is deterministic:
//! event order follows record order and floats use fixed-precision
//! microsecond formatting.

use crate::{Recording, Span, Track};
use std::collections::{BTreeMap, BTreeSet};

fn us(t: f64) -> String {
    format!("{:.3}", t * 1e6)
}

fn push_event(out: &mut Vec<String>, body: String) {
    out.push(format!("  {{{body}}}"));
}

/// Render a [`Recording`] as Perfetto/`chrome://tracing` JSON.
pub fn chrome_trace(rec: &Recording) -> String {
    let mut tracks: BTreeSet<Track> = rec.spans.iter().map(|s| s.track).collect();
    tracks.insert(Track::Host);
    tracks.extend(rec.instants.iter().map(|i| i.track));

    let mut events: Vec<String> = Vec::new();
    push_event(
        &mut events,
        "\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,\"tid\":0,\
         \"args\":{\"name\":\"ca-gmres simulated timeline\"}"
            .to_string(),
    );
    push_event(
        &mut events,
        "\"ph\":\"M\",\"name\":\"process_sort_index\",\"pid\":0,\"tid\":0,\
         \"args\":{\"sort_index\":0}"
            .to_string(),
    );
    for track in &tracks {
        let tid = track.tid();
        push_event(
            &mut events,
            format!(
                "\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":{tid},\
                 \"args\":{{\"name\":{}}}",
                crate::metrics::json_string(&track.label())
            ),
        );
        push_event(
            &mut events,
            format!(
                "\"ph\":\"M\",\"name\":\"thread_sort_index\",\"pid\":0,\"tid\":{tid},\
                 \"args\":{{\"sort_index\":{tid}}}"
            ),
        );
    }
    for s in &rec.spans {
        push_event(&mut events, span_event(s));
    }
    for i in &rec.instants {
        let args = if i.cause.is_empty() {
            String::from("{}")
        } else {
            format!("{{\"cause\":{}}}", crate::metrics::json_string(&i.cause))
        };
        push_event(
            &mut events,
            format!(
                "\"ph\":\"i\",\"s\":\"t\",\"name\":{},\"pid\":0,\"tid\":{},\"ts\":{},\
                 \"args\":{args}",
                crate::metrics::json_string(&i.name),
                i.track.tid(),
                us(i.t)
            ),
        );
    }
    for c in &rec.samples {
        push_event(
            &mut events,
            format!(
                "\"ph\":\"C\",\"name\":{},\"pid\":0,\"tid\":0,\"ts\":{},\
                 \"args\":{{\"value\":{}}}",
                crate::metrics::json_string(&c.name),
                us(c.t),
                crate::metrics::json_f64(c.value)
            ),
        );
    }

    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

fn span_event(s: &Span) -> String {
    format!(
        "\"ph\":\"X\",\"name\":{},\"pid\":0,\"tid\":{},\"ts\":{},\"dur\":{}",
        crate::metrics::json_string(&s.name),
        s.track.tid(),
        us(s.t0),
        us(s.t1 - s.t0)
    )
}

/// Render span self-times as folded stacks (`root;a;b <nanoseconds>` lines),
/// the input format of flamegraph tools. One root per track; a span's
/// self-time is its duration minus the durations of its direct children.
pub fn folded_stacks(rec: &Recording) -> String {
    let mut folded: BTreeMap<String, f64> = BTreeMap::new();
    let mut by_track: BTreeMap<Track, Vec<&Span>> = BTreeMap::new();
    for s in &rec.spans {
        by_track.entry(s.track).or_default().push(s);
    }
    for (track, spans) in &by_track {
        // Stack of path strings for currently-open ancestors.
        let mut paths: Vec<String> = vec![track.label().replace(';', ",")];
        for s in spans {
            paths.truncate(s.depth as usize + 1);
            let path = format!("{};{}", paths.last().expect("root path"), s.name.replace(';', ","));
            let dur = (s.t1 - s.t0).max(0.0);
            *folded.entry(path.clone()).or_insert(0.0) += dur;
            if s.depth > 0 {
                *folded.entry(paths.last().expect("parent").clone()).or_insert(0.0) -= dur;
            }
            paths.push(path);
        }
    }
    let mut out = String::new();
    for (path, secs) in &folded {
        let ns = (secs.max(0.0) * 1e9).round() as u64;
        if ns > 0 {
            out.push_str(&format!("{path} {ns}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CounterSample, InstantEvent, MetricsSnapshot};

    fn sample_recording() -> Recording {
        Recording {
            spans: vec![
                Span { name: "cycle".into(), track: Track::Host, t0: 0.0, t1: 1.0, depth: 0 },
                Span { name: "spmv".into(), track: Track::Host, t0: 0.0, t1: 0.6, depth: 1 },
                Span {
                    name: "mpk.exchange".into(),
                    track: Track::Host,
                    t0: 0.1,
                    t1: 0.3,
                    depth: 2,
                },
                Span { name: "orth".into(), track: Track::Host, t0: 0.6, t1: 1.0, depth: 1 },
                Span { name: "spmv".into(), track: Track::Device(0), t0: 0.05, t1: 0.5, depth: 0 },
            ],
            instants: vec![InstantEvent {
                name: "watchdog.hang".into(),
                track: Track::Device(1),
                t: 0.7,
                cause: "overshoot".into(),
            }],
            samples: vec![CounterSample { name: "relres".into(), t: 1.0, value: 0.5 }],
            metrics: MetricsSnapshot::default(),
        }
    }

    #[test]
    fn chrome_trace_has_metadata_and_counters() {
        let json = chrome_trace(&sample_recording());
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"gpu0 queue\""));
        assert!(json.contains("\"gpu1 copy engine\"") || json.contains("\"gpu1 queue\""));
        assert!(json.contains("\"thread_sort_index\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"cause\":\"overshoot\""));
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        assert_eq!(json, chrome_trace(&sample_recording()));
    }

    #[test]
    fn folded_stacks_self_time() {
        let folded = folded_stacks(&sample_recording());
        // cycle self-time = 1.0 - (0.6 + 0.4) = 0 → omitted entirely.
        assert!(!folded.contains("host;cycle "));
        // spmv self-time = 0.6 - 0.2 exchange = 0.4s.
        assert!(folded.contains("host;cycle;spmv 400000000\n"), "{folded}");
        assert!(folded.contains("host;cycle;spmv;mpk.exchange 200000000\n"), "{folded}");
        assert!(folded.contains("host;cycle;orth 400000000\n"), "{folded}");
        assert!(folded.contains("gpu0 queue;spmv 450000000\n"), "{folded}");
    }
}
