//! `compare A.json B.json`: the before/after table. One row per
//! (end-to-end metric, workload), judged against the metric's bound.

use crate::record::{Metric, Record};
use crate::report::fmt_value;
use crate::spec::{Better, EndToEnd, END_TO_END};

/// How B stands against A on one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows (exact metrics and hashes: equal).
    Ok,
    /// An exact metric or a hash differs, within the bound or for the
    /// better: a host-only change must not show this.
    Changed,
    /// Worse by more than the bound.
    Regressed,
    /// On either side the median repetition is further from the best one
    /// than the bound: too noisy a run to tell "unchanged" from "regressed".
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Changed => "changed",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much of A's median B is worse (negative: better).
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if a == b { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn judge(def: &EndToEnd, a: &Metric, b: &Metric) -> (f64, Verdict) {
    let delta = worse_by(def.better, a.value, b.value);
    let verdict = if def.exact {
        if a.value.to_bits() == b.value.to_bits() {
            Verdict::Ok
        } else if delta > def.bound {
            Verdict::Regressed
        } else {
            Verdict::Changed
        }
    } else if a.spread().max(b.spread()) > def.bound {
        Verdict::Unresolved
    } else if delta > def.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (delta, verdict)
}

/// Print the table; `Err` if a workload is missing from B, `Ok(true)` if
/// nothing regressed.
pub fn compare(a: &[Record], b: &[Record]) -> Result<bool, String> {
    let mut worst = Vec::new();
    println!(
        "{:<22} {:<14} {:>12} {:>12} {:>8} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict",
        "metric",
        "workload",
        "A value",
        "A q1..q3",
        "A noise",
        "B value",
        "B q1..q3",
        "B noise",
        "B worse",
        "bound"
    );
    for ra in a {
        let rb = b
            .iter()
            .find(|r| r.workload == ra.workload)
            .ok_or_else(|| format!("workload '{}' is missing from B", ra.workload))?;
        for def in &END_TO_END {
            let (Some(ma), Some(mb)) = (ra.metric(def.name), rb.metric(def.name)) else {
                return Err(format!("'{}' lacks metric '{}'", ra.workload, def.name));
            };
            let (delta, verdict) = judge(def, ma, mb);
            let iqr = |m: &Metric| match &m.reps {
                Some(s) => format!("{:.3}..{:.3}", s.q1 / s.median, s.q3 / s.median),
                None => "-".into(),
            };
            println!(
                "{:<22} {:<14} {:>12} {:>12} {:>7.2}% {:>12} {:>12} {:>7.2}% {:>+7.2}% {:>5.0}%  {}",
                def.name,
                ra.workload,
                fmt_value(ma.value),
                iqr(ma),
                100.0 * ma.spread(),
                fmt_value(mb.value),
                iqr(mb),
                100.0 * mb.spread(),
                100.0 * delta,
                100.0 * def.bound,
                verdict.as_str()
            );
            worst.push(verdict);
        }
        // failures have no allowance: more of them is a regression
        let verdict =
            if rb.fail_frac() > ra.fail_frac() { Verdict::Regressed } else { Verdict::Ok };
        println!(
            "{:<22} {:<14} {:>12} {:>12} {:>8} {:>12} {:>12} {:>8} {:>8} {:>6}  {}",
            "fail_frac",
            ra.workload,
            fmt_value(ra.fail_frac()),
            "",
            "",
            fmt_value(rb.fail_frac()),
            "",
            "",
            "",
            "0",
            verdict.as_str()
        );
        worst.push(verdict);
        for (name, va) in &ra.checks {
            let vb =
                rb.checks.iter().find(|(n, _)| n == name).map_or("missing", |(_, v)| v.as_str());
            let verdict = if va == vb { Verdict::Ok } else { Verdict::Changed };
            println!(
                "{:<22} {:<14} {:>12} {:>34} {:>39}  {}",
                name,
                ra.workload,
                "",
                va,
                vb,
                verdict.as_str()
            );
            worst.push(verdict);
        }
    }
    let count = |v: Verdict| worst.iter().filter(|&&w| w == v).count();
    println!(
        "{} rows: {} ok, {} changed, {} unresolved, {} regressed",
        worst.len(),
        count(Verdict::Ok),
        count(Verdict::Changed),
        count(Verdict::Unresolved),
        count(Verdict::Regressed)
    );
    Ok(count(Verdict::Regressed) == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;

    fn def(exact: bool, better: Better) -> EndToEnd {
        EndToEnd { name: "m", unit: "s", better, bound: 0.10, exact }
    }

    /// A metric whose best repetition is `value` and whose median is
    /// `median` times that.
    fn repeated(value: f64, median: f64) -> Metric {
        let reps = Summary::of(&[value, value * median, value * median * median]);
        Metric { reps: Some(reps), ..Metric::layer("m", "s", value) }
    }

    #[test]
    fn wall_metrics_are_judged_against_bound_and_spread() {
        let d = def(false, Better::Lower);
        let tight = |v: f64| repeated(v, 1.02);
        assert_eq!(judge(&d, &tight(1.0), &tight(1.05)).1, Verdict::Ok);
        assert_eq!(judge(&d, &tight(1.0), &tight(0.5)).1, Verdict::Ok);
        assert_eq!(judge(&d, &tight(1.0), &tight(1.2)).1, Verdict::Regressed);
        assert_eq!(judge(&d, &tight(1.0), &repeated(1.0, 1.3)).1, Verdict::Unresolved);
        // higher is better: a drop is the regression
        let up = def(false, Better::Higher);
        assert_eq!(judge(&up, &tight(100.0), &tight(80.0)).1, Verdict::Regressed);
        assert_eq!(judge(&up, &tight(100.0), &tight(120.0)).1, Verdict::Ok);
        assert!((judge(&up, &tight(100.0), &tight(80.0)).0 - 0.2).abs() < 1e-12);
    }

    #[test]
    fn exact_metrics_compare_with_equality() {
        let d = def(true, Better::Lower);
        let v = |value: f64| Metric::layer("m", "sim_s", value);
        assert_eq!(judge(&d, &v(0.1959), &v(0.1959)).1, Verdict::Ok);
        assert_eq!(judge(&d, &v(0.1959), &v(0.1960)).1, Verdict::Changed);
        assert_eq!(judge(&d, &v(0.1959), &v(0.15)).1, Verdict::Changed);
        assert_eq!(judge(&d, &v(0.1959), &v(0.25)).1, Verdict::Regressed);
    }
}
