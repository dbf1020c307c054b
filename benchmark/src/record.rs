//! What one workload reported, and its JSON forms: the full record the
//! ledger files keep and the one-line result the driver reads.

use crate::stats::Summary;
use ca_obs::Jv;

/// A reported metric. `exact` values come from the simulated clock or a
/// counter and must repeat bit for bit at the same seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub exact: bool,
    /// The reported number. Of a repeated timing it is the best
    /// repetition (interference only ever adds time), see `reps`.
    pub value: f64,
    /// Spread of the repetitions behind `value`, if it was repeated.
    pub reps: Option<Summary>,
}

impl Metric {
    /// A per-layer number: one value, no spread.
    pub fn layer(name: &str, unit: &str, value: f64) -> Self {
        Metric { name: name.into(), unit: unit.into(), exact: false, value, reps: None }
    }

    /// How far the median repetition lies from the reported best one, as a
    /// share of the median: the noise the value was taken under. 0 for a
    /// single value.
    pub fn spread(&self) -> f64 {
        self.reps.as_ref().map_or(0.0, |s| (s.median - self.value).abs() / s.median.abs())
    }
}

/// Result of one workload run.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    /// Operations whose output was checked, and how many failed the check.
    pub attempted: u64,
    pub failed: u64,
    /// Reason of each failure, first ones only.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Hashes and digests that must repeat exactly (`x_hash`, `digest_*`).
    pub checks: Vec<(String, String)>,
    /// Context that is not a metric (sizes, repetition counts).
    pub notes: Vec<(String, Jv)>,
}

impl Record {
    pub fn new(workload: &str, seed: u64, seconds: f64) -> Self {
        Record {
            workload: workload.into(),
            seed,
            seconds,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: Vec::new(),
            checks: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Count one checked operation; `failure` says why it failed, if it did.
    pub fn check(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(why) = failure {
            self.failed += 1;
            self.note_failure(why);
        }
    }

    /// Count `attempted` checked operations of which `failed` failed.
    pub fn count(&mut self, attempted: u64, failed: u64, why: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.note_failure(format!("{failed} {why}"));
        }
    }

    fn note_failure(&mut self, why: String) {
        eprintln!("[{}] FAILED: {why}", self.workload);
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The line the driver reads: `correct`, `attempted`, `failed`, and for
    /// each metric its value and unit.
    pub fn contract_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let body = vec![
                    ("value".to_string(), Jv::Num(m.value)),
                    ("unit".to_string(), Jv::Str(m.unit.clone())),
                ];
                (m.name.clone(), Jv::Obj(body))
            })
            .collect();
        Jv::Obj(vec![
            ("correct".into(), Jv::Bool(self.failed == 0)),
            ("attempted".into(), Jv::Int(i128::from(self.attempted.max(1)))),
            ("failed".into(), Jv::Int(i128::from(self.failed))),
            ("metrics".into(), Jv::Obj(metrics)),
        ])
        .render()
    }

    pub fn to_jv(&self) -> Jv {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut body = vec![
                    ("unit".to_string(), Jv::Str(m.unit.clone())),
                    ("exact".to_string(), Jv::Bool(m.exact)),
                    ("value".to_string(), Jv::Num(m.value)),
                ];
                body.extend(m.reps.iter().flat_map(Summary::to_jv));
                (m.name.clone(), Jv::Obj(body))
            })
            .collect();
        let strs = |v: &[String]| Jv::Arr(v.iter().cloned().map(Jv::Str).collect());
        Jv::Obj(vec![
            ("workload".into(), Jv::Str(self.workload.clone())),
            ("seed".into(), Jv::Int(i128::from(self.seed))),
            ("seconds".into(), Jv::Num(self.seconds)),
            ("attempted".into(), Jv::Int(i128::from(self.attempted))),
            ("failed".into(), Jv::Int(i128::from(self.failed))),
            ("fail_frac".into(), Jv::Num(self.fail_frac())),
            ("failures".into(), strs(&self.failures)),
            ("metrics".into(), Jv::Obj(metrics)),
            (
                "checks".into(),
                Jv::Obj(self.checks.iter().map(|(k, v)| (k.clone(), Jv::Str(v.clone()))).collect()),
            ),
            ("notes".into(), Jv::Obj(self.notes.clone())),
        ])
    }

    pub fn from_jv(v: &Jv) -> Result<Self, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("record lacks '{k}'"));
        let int =
            |k: &str| field(k)?.as_u64().ok_or_else(|| format!("'{k}' is not a whole number"));
        let metrics = field("metrics")?
            .as_obj()
            .ok_or("'metrics' is not an object")?
            .iter()
            .map(|(name, m)| {
                Ok(Metric {
                    name: name.clone(),
                    unit: m
                        .get("unit")
                        .and_then(Jv::as_str)
                        .ok_or("metric lacks 'unit'")?
                        .to_string(),
                    exact: matches!(m.get("exact"), Some(Jv::Bool(true))),
                    value: m
                        .get("value")
                        .and_then(Jv::as_f64)
                        .ok_or_else(|| format!("metric '{name}' lacks 'value'"))?,
                    reps: Summary::from_jv(m),
                })
            })
            .collect::<Result<_, String>>()?;
        let checks = field("checks")?
            .as_obj()
            .ok_or("'checks' is not an object")?
            .iter()
            .map(|(k, s)| (k.clone(), s.as_str().unwrap_or_default().to_string()))
            .collect();
        let failures = field("failures")?
            .as_arr()
            .ok_or("'failures' is not an array")?
            .iter()
            .filter_map(|s| s.as_str().map(str::to_string))
            .collect();
        Ok(Record {
            workload: field("workload")?.as_str().ok_or("'workload' is not a string")?.to_string(),
            seed: int("seed")?,
            seconds: field("seconds")?.as_f64().ok_or("'seconds' is not a number")?,
            attempted: int("attempted")?,
            failed: int("failed")?,
            failures,
            metrics,
            checks,
            notes: field("notes")?.as_obj().ok_or("'notes' is not an object")?.to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Record {
        let mut r = Record::new("cant_mpk", 7, 2.0);
        r.check(None);
        r.check(Some("own residual too large".into()));
        r.count(10, 0, "jobs failed");
        r.metrics = vec![
            Metric {
                name: "solve_wall_s".into(),
                unit: "s".into(),
                exact: false,
                value: 0.5,
                reps: Some(Summary::of(&[0.5, 0.75, 0.625])),
            },
            Metric::layer("dense.dot_gbs", "GB/s", 12.5),
        ];
        r.checks.push(("x_hash".into(), "00ff".into()));
        r.notes.push(("reps".into(), Jv::Int(3)));
        r
    }

    #[test]
    fn record_round_trips_through_json() {
        let r = sample();
        assert_eq!((r.attempted, r.failed), (12, 1));
        let back = Record::from_jv(&Jv::parse(&r.to_jv().render_pretty()).unwrap()).unwrap();
        assert_eq!(back, r);
        assert!(Record::from_jv(&Jv::parse("{\"workload\":\"w\"}").unwrap()).is_err());
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let line = sample().contract_line();
        assert!(!line.contains('\n'));
        let doc = Jv::parse(&line).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Jv::Bool(false)));
        assert_eq!(doc.get("attempted").and_then(Jv::as_u64), Some(12));
        let m = doc.get("metrics").and_then(|m| m.get("solve_wall_s")).unwrap();
        assert_eq!(m.get("value").and_then(Jv::as_f64), Some(0.5));
        assert_eq!(m.get("unit").and_then(Jv::as_str), Some("s"));
    }
}
