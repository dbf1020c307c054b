//! The harness's own spans: both clocks at every layer boundary.
//!
//! Spans are recorded around the calls the benchmark makes into a layer,
//! never inside the crates. They stay in memory and are written once, at
//! the end of the traced run. `run` uses [`Tracer::off`], which records
//! nothing.

use ca_obs::Jv;
use std::time::Instant;

/// One closed interval. `parent` is the span that was open when this one
/// began (the span that caused it); `req` is the request it belongs to
/// (`workload/rep`).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub layer: &'static str,
    pub req: String,
    /// Host nanoseconds since the tracer was created.
    pub wall_ns: (u64, u64),
    /// Simulated seconds, where a `MultiGpu` was in scope.
    pub sim_s: Option<(f64, f64)>,
}

impl Span {
    pub fn wall_s(&self) -> f64 {
        (self.wall_ns.1 - self.wall_ns.0) as f64 * 1e-9
    }

    pub fn sim_dur_s(&self) -> f64 {
        self.sim_s.map_or(0.0, |(a, b)| b - a)
    }
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
#[must_use = "a span that is never ended is dropped from the trace"]
pub struct Open(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    req: String,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn on() -> Self {
        Tracer {
            origin: Instant::now(),
            enabled: true,
            req: String::new(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer { enabled: false, ..Tracer::on() }
    }

    /// Request identifier stamped on the spans begun from now on.
    pub fn set_request(&mut self, req: String) {
        self.req = req;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one. `sim` is the simulated
    /// clock now, if one is in scope.
    pub fn begin(&mut self, name: &str, layer: &'static str, sim: Option<f64>) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name: name.to_string(),
            layer,
            req: self.req.clone(),
            wall_ns: (now, now),
            sim_s: sim.map(|t| (t, t)),
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open, sim: Option<f64>) {
        let Some(id) = open.0 else { return };
        assert_eq!(self.stack.pop(), Some(id), "spans must close innermost first");
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.wall_ns.1 = now;
        if let (Some((_, end)), Some(t)) = (span.sim_s.as_mut(), sim) {
            *end = t;
        }
    }

    /// Run `f` inside a span that has no simulated clock.
    pub fn scope<R>(&mut self, name: &str, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, layer, None);
        let out = f();
        self.end(open, None);
        out
    }

    /// The closed spans, in begin order.
    pub fn spans(&self) -> &[Span] {
        assert!(self.stack.is_empty(), "spans still open");
        &self.spans
    }
}

/// Host nanoseconds of each span not covered by its children.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.wall_ns.1 - s.wall_ns.0).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.wall_ns.1 - s.wall_ns.0);
        }
    }
    own
}

/// Check the tree: ids are positions, every parent exists, began earlier
/// and encloses its child on both clocks, and siblings do not overlap
/// (which makes the self times add up to the roots' durations).
pub fn check_well_nested(spans: &[Span]) -> Result<(), String> {
    let mut last_child_end: Vec<u64> = spans.iter().map(|s| s.wall_ns.0).collect();
    for (i, s) in spans.iter().enumerate() {
        if s.id != i {
            return Err(format!("span {i} carries id {}", s.id));
        }
        if s.wall_ns.1 < s.wall_ns.0 {
            return Err(format!("span {i} '{}' ends before it begins", s.name));
        }
        let Some(p) = s.parent else { continue };
        if p >= i {
            return Err(format!("span {i} '{}' has parent {p}, which began later", s.name));
        }
        let parent = &spans[p];
        if s.wall_ns.0 < parent.wall_ns.0 || s.wall_ns.1 > parent.wall_ns.1 {
            return Err(format!("span {i} '{}' is not enclosed by '{}'", s.name, parent.name));
        }
        if let (Some(c), Some(ps)) = (s.sim_s, parent.sim_s) {
            if c.0 < ps.0 || c.1 > ps.1 {
                return Err(format!(
                    "span {i} '{}' leaves '{}' on the simulated clock",
                    s.name, parent.name
                ));
            }
        }
        if s.wall_ns.0 < last_child_end[p] {
            return Err(format!("span {i} '{}' overlaps an earlier sibling", s.name));
        }
        last_child_end[p] = s.wall_ns.1;
    }
    let self_sum: u64 = self_times_ns(spans).iter().sum();
    let root_sum: u64 =
        spans.iter().filter(|s| s.parent.is_none()).map(|s| s.wall_ns.1 - s.wall_ns.0).sum();
    if self_sum != root_sum {
        return Err(format!("self times sum to {self_sum} ns, the roots last {root_sum} ns"));
    }
    Ok(())
}

/// One row of the self-time table: a span name with its totals.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfRow {
    pub name: String,
    pub layer: &'static str,
    pub calls: usize,
    pub wall_s: f64,
    pub self_s: f64,
    pub sim_s: f64,
}

/// Spans grouped by name in order of first appearance.
pub fn self_time_table(spans: &[Span]) -> Vec<SelfRow> {
    let own = self_times_ns(spans);
    let mut rows: Vec<SelfRow> = Vec::new();
    for (s, own_ns) in spans.iter().zip(own) {
        let row = match rows.iter_mut().position(|r| r.name == s.name) {
            Some(i) => &mut rows[i],
            None => {
                rows.push(SelfRow {
                    name: s.name.clone(),
                    layer: s.layer,
                    calls: 0,
                    wall_s: 0.0,
                    self_s: 0.0,
                    sim_s: 0.0,
                });
                rows.last_mut().expect("just pushed")
            }
        };
        row.calls += 1;
        row.wall_s += s.wall_s();
        row.self_s += own_ns as f64 * 1e-9;
        row.sim_s += s.sim_dur_s();
    }
    rows
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// event per span on the host clock, the simulated interval and the tree
/// links in `args`, and the self-time table beside the events.
pub fn chrome_trace(spans: &[Span]) -> Jv {
    let events = spans
        .iter()
        .map(|s| {
            let mut args = vec![
                ("id".to_string(), Jv::Int(s.id as i128)),
                ("parent".to_string(), s.parent.map_or(Jv::Null, |p| Jv::Int(p as i128))),
                ("request".to_string(), Jv::Str(s.req.clone())),
            ];
            if let Some((t0, t1)) = s.sim_s {
                args.push(("sim_start_s".to_string(), Jv::Num(t0)));
                args.push(("sim_end_s".to_string(), Jv::Num(t1)));
            }
            Jv::Obj(vec![
                ("name".into(), Jv::Str(s.name.clone())),
                ("cat".into(), Jv::Str(s.layer.to_string())),
                ("ph".into(), Jv::Str("X".into())),
                ("ts".into(), Jv::Num(s.wall_ns.0 as f64 / 1e3)),
                ("dur".into(), Jv::Num((s.wall_ns.1 - s.wall_ns.0) as f64 / 1e3)),
                ("pid".into(), Jv::Int(1)),
                ("tid".into(), Jv::Int(1)),
                ("args".into(), Jv::Obj(args)),
            ])
        })
        .collect();
    let table = self_time_table(spans)
        .into_iter()
        .map(|r| {
            Jv::Obj(vec![
                ("name".into(), Jv::Str(r.name)),
                ("layer".into(), Jv::Str(r.layer.to_string())),
                ("calls".into(), Jv::Int(r.calls as i128)),
                ("wall_s".into(), Jv::Num(r.wall_s)),
                ("self_s".into(), Jv::Num(r.self_s)),
                ("sim_s".into(), Jv::Num(r.sim_s)),
            ])
        })
        .collect();
    Jv::Obj(vec![
        ("displayTimeUnit".into(), Jv::Str("ms".into())),
        ("traceEvents".into(), Jv::Arr(events)),
        ("selfTime".into(), Jv::Arr(table)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &str, wall_ns: (u64, u64)) -> Span {
        Span {
            id,
            parent,
            name: name.into(),
            layer: "test",
            req: "w/0".into(),
            wall_ns,
            sim_s: None,
        }
    }

    /// run[0,100] → setup[10,40] → {a[10,20], b[25,40]}, solve[50,90]
    fn tree() -> Vec<Span> {
        vec![
            span(0, None, "run", (0, 100)),
            span(1, Some(0), "setup", (10, 40)),
            span(2, Some(1), "a", (10, 20)),
            span(3, Some(1), "b", (25, 40)),
            span(4, Some(0), "solve", (50, 90)),
        ]
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = tree();
        assert_eq!(self_times_ns(&spans), vec![30, 5, 10, 15, 40]);
        assert_eq!(check_well_nested(&spans), Ok(()));
        let table = self_time_table(&spans);
        assert_eq!(table.len(), 5);
        assert_eq!(table[1].name, "setup");
        assert!((table[1].self_s - 5e-9).abs() < 1e-18);
        assert!((table[1].wall_s - 30e-9).abs() < 1e-18);
    }

    #[test]
    fn broken_trees_are_rejected() {
        let mut escaping = tree();
        escaping[3].wall_ns.1 = 45; // b outlives setup
        assert!(check_well_nested(&escaping).unwrap_err().contains("not enclosed"));
        let mut overlapping = tree();
        overlapping[3].wall_ns.0 = 15; // b begins inside a
        assert!(check_well_nested(&overlapping).unwrap_err().contains("overlaps"));
        let mut orphan = tree();
        orphan[2].parent = Some(9);
        assert!(check_well_nested(&orphan).unwrap_err().contains("began later"));
        let mut sim = tree();
        sim[0].sim_s = Some((0.0, 1.0));
        sim[4].sim_s = Some((0.5, 1.5));
        assert!(check_well_nested(&sim).unwrap_err().contains("simulated clock"));
    }

    #[test]
    fn tracer_nests_and_off_records_nothing() {
        let mut tr = Tracer::on();
        tr.set_request("w/1".into());
        let run = tr.begin("run", "harness", Some(0.0));
        let got = tr.scope("inner", "core", || 7);
        assert_eq!(got, 7);
        tr.end(run, Some(2.5));
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].sim_s, Some((0.0, 2.5)));
        assert_eq!(spans[1].req, "w/1");
        assert_eq!(check_well_nested(spans), Ok(()));
        assert_eq!(spans[0].sim_dur_s(), 2.5);

        let mut off = Tracer::off();
        let o = off.begin("run", "harness", None);
        off.end(o, None);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_trace_parses_back() {
        let mut spans = tree();
        spans[4].sim_s = Some((0.25, 0.75));
        let text = chrome_trace(&spans).render_pretty();
        let doc = Jv::parse(&text).unwrap();
        let events = doc.get("traceEvents").and_then(Jv::as_arr).unwrap();
        assert_eq!(events.len(), 5);
        assert_eq!(events[4].get("name").and_then(Jv::as_str), Some("solve"));
        assert_eq!(events[4].get("dur").and_then(Jv::as_f64), Some(0.04));
        let args = events[4].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Jv::as_u64), Some(0));
        assert_eq!(args.get("sim_end_s").and_then(Jv::as_f64), Some(0.75));
        assert_eq!(doc.get("selfTime").and_then(Jv::as_arr).unwrap().len(), 5);
    }
}
