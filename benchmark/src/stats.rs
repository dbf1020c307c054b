//! Order statistics for repeated timings.

use ca_obs::Jv;

/// `statistics.quantiles(values, n=4)` of Python (the exclusive method),
/// so the spreads printed here are the ones the driver computes.
/// `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: usize| {
        let pos = q * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        // not clamped: like Python, short samples extrapolate
        let frac = pos as f64 / 4.0 - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    Some([at(1), at(2), at(3)])
}

/// Median; 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Nearest-rank percentile (`p` in 0..=100); 0 for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// The spread of a repeated measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        let med = median(values);
        let [q1, _, q3] = quartiles(values).unwrap_or([med; 3]);
        Summary {
            n: values.len(),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            q1,
            median: med,
            q3,
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    pub fn to_jv(&self) -> Vec<(String, Jv)> {
        vec![
            ("n".into(), Jv::Int(self.n as i128)),
            ("min".into(), Jv::Num(self.min)),
            ("q1".into(), Jv::Num(self.q1)),
            ("median".into(), Jv::Num(self.median)),
            ("q3".into(), Jv::Num(self.q3)),
            ("max".into(), Jv::Num(self.max)),
        ]
    }

    /// `None` where `v` carries no repetition statistics.
    pub fn from_jv(v: &Jv) -> Option<Self> {
        let f = |k: &str| v.get(k).and_then(Jv::as_f64);
        Some(Summary {
            n: v.get("n").and_then(Jv::as_u64)? as usize,
            min: f("min")?,
            q1: f("q1")?,
            median: f("median")?,
            q3: f("q3")?,
            max: f("max")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let v: Vec<f64> = (1..=300).map(f64::from).collect();
        // 15 samples lie beyond the p95 of 300
        assert_eq!(percentile(&v, 95.0), 285.0);
        assert_eq!(percentile(&v, 100.0), 300.0);
        assert_eq!(percentile(&[2.0, 1.0], 50.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn summary_round_trips_through_json() {
        let s = Summary::of(&[0.11, 0.12, 0.10, 0.14, 0.13]);
        assert_eq!(s.n, 5);
        assert_eq!(s.median, 0.12);
        assert_eq!((s.min, s.max), (0.10, 0.14));
        assert!((s.spread() - (0.135 - 0.105) / 0.12).abs() < 1e-12);
        let text = Jv::Obj(s.to_jv()).render();
        assert_eq!(Summary::from_jv(&Jv::parse(&text).unwrap()), Some(s));
        assert_eq!(Summary::from_jv(&Jv::parse("{\"value\":7}").unwrap()), None);
    }
}
