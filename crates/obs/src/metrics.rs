//! Typed metric registry with a deterministic JSON encoding.
//!
//! Three metric kinds: monotone `u64` counters, last-write-wins `f64`
//! gauges, and log-bucketed quantile histograms (count/sum/min/max plus a
//! sparse bucket vector, so p50/p99 are answerable after the fact). The
//! snapshot serializes to hand-rolled JSON with `BTreeMap`-sorted keys
//! and Rust's
//! shortest-roundtrip float formatting, so the same run always produces
//! byte-identical output; an FNV-1a hash of those bytes ties bench
//! artifacts to the exact run.
//!
//! ## Bucketing scheme
//!
//! Bucket boundaries are derived from the IEEE-754 bit pattern: the
//! biased exponent selects an octave and the top [`SUB_BITS`] mantissa
//! bits split it into [`SUBS_PER_OCTAVE`] linear sub-buckets (HDR-style).
//! The index is a pure function of the bits — no `log` call, no libm, no
//! platform variance — so two runs always bucket identically, whatever
//! the order of their observations. Relative bucket width is at most `1/16` of an octave (≈ 6.3%),
//! so a midpoint representative answers quantile queries within ~3.2%.
//! Zero, negative, and non-finite observations land in the
//! [`SENTINEL_BUCKET`].

use std::collections::BTreeMap;

/// Mantissa bits used for sub-bucketing (16 linear buckets per octave).
pub const SUB_BITS: u32 = 4;

/// Number of sub-buckets per power-of-two octave.
pub const SUBS_PER_OCTAVE: i32 = 1 << SUB_BITS;

/// Bucket index for observations outside `(0, +inf)`: zero, negative,
/// and non-finite values. Sorts before every real bucket.
pub const SENTINEL_BUCKET: i32 = i32::MIN;

/// Log-bucket index of a value. Positive finite values map to
/// `(unbiased_exponent * 16) | top-4-mantissa-bits`; subnormals collapse
/// into the lowest normal bucket; everything else hits
/// [`SENTINEL_BUCKET`].
#[must_use]
pub fn bucket_index(v: f64) -> i32 {
    if !v.is_finite() || v <= 0.0 {
        return SENTINEL_BUCKET;
    }
    let bits = v.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i32;
    if exp == 0 {
        // subnormal: below every normal bucket; fold into the first one
        return (1 - 1023) * SUBS_PER_OCTAVE;
    }
    let sub = ((bits >> (52 - SUB_BITS)) & (SUBS_PER_OCTAVE as u64 - 1)) as i32;
    (exp - 1023) * SUBS_PER_OCTAVE + sub
}

/// Inclusive lower bound of bucket `idx` (0 for the sentinel).
#[must_use]
pub fn bucket_lo(idx: i32) -> f64 {
    if idx == SENTINEL_BUCKET {
        return 0.0;
    }
    let exp = idx.div_euclid(SUBS_PER_OCTAVE) + 1023;
    let sub = idx.rem_euclid(SUBS_PER_OCTAVE) as u64;
    if exp <= 0 {
        return 0.0;
    }
    if exp >= 2047 {
        return f64::MAX;
    }
    f64::from_bits(((exp as u64) << 52) | (sub << (52 - SUB_BITS)))
}

/// Exclusive upper bound of bucket `idx` (0 for the sentinel, whose
/// members are all ≤ 0 or non-finite).
#[must_use]
pub fn bucket_hi(idx: i32) -> f64 {
    if idx == SENTINEL_BUCKET {
        return 0.0;
    }
    bucket_lo(idx.saturating_add(1))
}

/// Summary statistics plus log-bucket counts of an observed distribution.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistogramData {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observed value (0 when `count == 0`).
    pub min: f64,
    /// Largest observed value (0 when `count == 0`).
    pub max: f64,
    /// Sparse `(bucket_index, count)` pairs, sorted by index. The counts
    /// always sum to `count`, and the vector is invariant to observation
    /// order.
    pub buckets: Vec<(i32, u64)>,
}

impl HistogramData {
    /// Record one observation.
    pub fn observe(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        self.bucket_add(bucket_index(v), 1);
    }

    fn bucket_add(&mut self, idx: i32, n: u64) {
        match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
            Ok(slot) => self.buckets[slot].1 += n,
            Err(slot) => self.buckets.insert(slot, (idx, n)),
        }
    }

    /// Mean of the observations (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Nearest-rank quantile from the bucket counts: the midpoint of the
    /// bucket holding the `ceil(q·count)`-th observation, clamped to the
    /// observed `[min, max]`. `q ≤ 0` returns `min`, `q ≥ 1` returns
    /// `max`, and an empty histogram returns 0.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if q <= 0.0 {
            return self.min;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for &(idx, n) in &self.buckets {
            cum += n;
            if cum >= rank {
                let rep = if idx == SENTINEL_BUCKET {
                    0.0
                } else {
                    0.5 * (bucket_lo(idx) + bucket_hi(idx))
                };
                return rep.max(self.min).min(self.max);
            }
        }
        self.max
    }

    /// Median ([`Self::quantile`] at 0.5).
    #[must_use]
    pub fn p50(&self) -> f64 {
        self.quantile(0.5)
    }

    /// 99th percentile ([`Self::quantile`] at 0.99).
    #[must_use]
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// One typed metric value.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Monotone accumulator.
    Counter(u64),
    /// Last written value.
    Gauge(f64),
    /// Distribution summary.
    Histogram(HistogramData),
}

/// Mutable metric store used inside the recorder.
#[derive(Clone, Debug, Default)]
pub(crate) struct Registry {
    values: BTreeMap<String, MetricValue>,
}

impl Registry {
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        match self.values.entry(name.to_string()).or_insert(MetricValue::Counter(0)) {
            MetricValue::Counter(c) => *c += delta,
            other => panic!("metric '{name}' is {other:?}, not a counter"),
        }
    }

    pub fn gauge_set(&mut self, name: &str, value: f64) {
        match self.values.entry(name.to_string()).or_insert(MetricValue::Gauge(0.0)) {
            MetricValue::Gauge(g) => *g = value,
            other => panic!("metric '{name}' is {other:?}, not a gauge"),
        }
    }

    pub fn observe(&mut self, name: &str, value: f64) {
        match self
            .values
            .entry(name.to_string())
            .or_insert_with(|| MetricValue::Histogram(HistogramData::default()))
        {
            MetricValue::Histogram(h) => h.observe(value),
            other => panic!("metric '{name}' is {other:?}, not a histogram"),
        }
    }

    pub fn snapshot(self) -> MetricsSnapshot {
        MetricsSnapshot { values: self.values }
    }
}

/// Immutable snapshot of the registry at [`crate::finish`] time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Metric name → value, sorted by name.
    pub values: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    /// Deterministic JSON encoding: sorted keys, stable float formatting.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let mut first = true;
        for (name, value) in &self.values {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str("  ");
            out.push_str(&json_string(name));
            out.push_str(": ");
            match value {
                MetricValue::Counter(c) => {
                    out.push_str(&format!("{{\"type\":\"counter\",\"value\":{c}}}"));
                }
                MetricValue::Gauge(g) => {
                    out.push_str(&format!("{{\"type\":\"gauge\",\"value\":{}}}", json_f64(*g)));
                }
                MetricValue::Histogram(h) => {
                    let mut buckets = String::from("[");
                    for (i, (idx, n)) in h.buckets.iter().enumerate() {
                        if i > 0 {
                            buckets.push(',');
                        }
                        buckets.push_str(&format!("[{idx},{n}]"));
                    }
                    buckets.push(']');
                    out.push_str(&format!(
                        "{{\"type\":\"histogram\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\
                         \"buckets\":{buckets}}}",
                        h.count,
                        json_f64(h.sum),
                        json_f64(h.min),
                        json_f64(h.max)
                    ));
                }
            }
        }
        out.push_str("\n}\n");
        out
    }

    /// Read-only query view over this snapshot.
    #[must_use]
    pub fn view(&self) -> MetricsView<'_> {
        MetricsView { snap: self }
    }

    /// FNV-1a (64-bit) hash of [`Self::to_json`], as 16 lowercase hex digits.
    pub fn hash_hex(&self) -> String {
        format!("{:016x}", fnv1a(self.to_json().as_bytes()))
    }
}

/// Typed query API over a [`MetricsSnapshot`]: the read side of the
/// observability loop. `ca-tune`'s metrics calibration and `ca-serve`'s
/// SLO reports consume snapshots exclusively through this view, so the
/// snapshot's storage can evolve without touching them.
#[derive(Clone, Copy, Debug)]
pub struct MetricsView<'a> {
    snap: &'a MetricsSnapshot,
}

impl<'a> MetricsView<'a> {
    /// Counter value (`None` if absent or a different kind).
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.snap.values.get(name) {
            Some(MetricValue::Counter(c)) => Some(*c),
            _ => None,
        }
    }

    /// Gauge value (`None` if absent or a different kind).
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.snap.values.get(name) {
            Some(MetricValue::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// Histogram (`None` if absent or a different kind).
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&'a HistogramData> {
        match self.snap.values.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// All metric names, sorted.
    pub fn names(&self) -> impl Iterator<Item = &'a str> {
        self.snap.values.keys().map(String::as_str)
    }

    /// Histograms whose name starts with `prefix`, sorted by name.
    #[must_use]
    pub fn histograms_with_prefix(&self, prefix: &str) -> Vec<(&'a str, &'a HistogramData)> {
        self.snap
            .values
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .filter_map(|(k, v)| match v {
                MetricValue::Histogram(h) => Some((k.as_str(), h)),
                _ => None,
            })
            .collect()
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit over a byte stream fed in pieces — the digest primitive
/// of every replay-identity token in the workspace.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self(FNV_OFFSET)
    }
}

impl Fnv1a {
    /// Absorb `bytes`.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorb the little-endian bytes of `w`.
    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    /// The hash of everything absorbed so far.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a 64-bit hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.bytes(bytes);
    h.finish()
}

/// The word-wise x-hash of the study DIGEST lines: FNV-1a's fold with one
/// whole 64-bit word (an `f64::to_bits`) absorbed per step instead of one
/// byte. Not the byte-wise [`fnv1a`] — the two give different digests.
pub fn fnv1a_words(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(FNV_OFFSET, |h, w| (h ^ w).wrapping_mul(FNV_PRIME))
}

/// JSON-escape and quote a string.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Format a float as a JSON value (`null` for non-finite).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn snapshot_json_is_sorted_and_stable() {
        let mut reg = Registry::default();
        reg.counter_add("z.count", 7);
        reg.gauge_set("a.gauge", 2.5);
        reg.observe("m.hist", 1.0);
        reg.observe("m.hist", 2.0);
        let snap = reg.snapshot();
        let json = snap.to_json();
        let a = json.find("a.gauge").unwrap();
        let m = json.find("m.hist").unwrap();
        let z = json.find("z.count").unwrap();
        assert!(a < m && m < z, "keys must be sorted: {json}");
        assert_eq!(json, snap.to_json());
        assert_eq!(snap.hash_hex().len(), 16);
    }

    #[test]
    fn empty_snapshot_hashes() {
        let snap = MetricsSnapshot::default();
        assert_eq!(snap.to_json(), "{\n\n}\n");
        assert_eq!(snap.hash_hex(), format!("{:016x}", fnv1a(b"{\n\n}\n")));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(3.0), "3");
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn type_confusion_panics() {
        let mut reg = Registry::default();
        reg.gauge_set("x", 1.0);
        reg.counter_add("x", 1);
    }

    #[test]
    fn bucket_index_is_monotone_and_tight() {
        // indices are monotone in the value and bounds bracket the value
        let mut prev = i32::MIN;
        let mut v = 1e-12;
        while v < 1e12 {
            let idx = bucket_index(v);
            assert!(idx >= prev, "bucket index must be monotone at {v}");
            assert!(bucket_lo(idx) <= v && v < bucket_hi(idx), "bounds miss {v}");
            // relative bucket width stays under 1/16 of an octave
            assert!(bucket_hi(idx) / bucket_lo(idx) <= 1.0 + 1.0 / 16.0 + 1e-12);
            prev = idx;
            v *= 1.37;
        }
        // boundary values land exactly on their own lower bound
        for idx in [-160, -1, 0, 1, 160] {
            assert_eq!(bucket_index(bucket_lo(idx)), idx);
        }
    }

    #[test]
    fn sentinel_bucket_catches_nonpositive_and_nonfinite() {
        for v in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(bucket_index(v), SENTINEL_BUCKET, "{v}");
        }
        assert_eq!(bucket_index(5e-324), (1 - 1023) * SUBS_PER_OCTAVE); // subnormal
        let mut h = HistogramData::default();
        h.observe(0.0);
        h.observe(2.0);
        assert_eq!(h.buckets.len(), 2);
        assert_eq!(h.buckets[0], (SENTINEL_BUCKET, 1));
        assert_eq!(h.count, 2);
    }

    #[test]
    fn quantiles_are_exact_on_bucket_representatives() {
        let mut h = HistogramData::default();
        // 100 observations of 1.0: every quantile is within its bucket
        for _ in 0..100 {
            h.observe(1.0);
        }
        assert_eq!(h.p50(), 1.0); // clamped to [min, max]
        assert_eq!(h.p99(), 1.0);
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(1.0), 1.0);

        // bimodal: 90 fast at ~1ms, 10 slow at ~1s. p50 must sit in the
        // fast mode's bucket, p99 in the slow mode's.
        let mut h = HistogramData::default();
        for _ in 0..90 {
            h.observe(1e-3);
        }
        for _ in 0..10 {
            h.observe(1.0);
        }
        let p50 = h.p50();
        let p99 = h.p99();
        assert!((p50 - 1e-3).abs() / 1e-3 < 1.0 / 16.0, "p50 {p50}");
        assert_eq!(p99, 1.0, "p99 must clamp to the observed max");
        // exact nearest-rank boundary: rank 90 is still the fast mode,
        // rank 91 the slow one
        assert!(h.quantile(0.90) < 1e-2);
        assert!(h.quantile(0.91) > 0.5);
    }

    #[test]
    fn quantile_error_is_bounded_by_bucket_width() {
        let mut h = HistogramData::default();
        let mut v = 3.7e-4;
        let mut values = Vec::new();
        for _ in 0..500 {
            h.observe(v);
            values.push(v);
            v *= 1.01;
        }
        values.sort_by(f64::total_cmp);
        for q in [0.1, 0.5, 0.9, 0.99] {
            let exact = values[((q * 500.0_f64).ceil() as usize).clamp(1, 500) - 1];
            let approx = h.quantile(q);
            assert!(
                (approx - exact).abs() / exact < 0.04,
                "q={q}: approx {approx} vs exact {exact}"
            );
        }
    }

    /// `values` observed in the order of `order`.
    fn observed(values: &[f64], order: impl Iterator<Item = usize>) -> HistogramData {
        let mut h = HistogramData::default();
        order.for_each(|i| h.observe(values[i]));
        h
    }

    #[test]
    fn buckets_are_invariant_to_observation_order() {
        let values: Vec<f64> = (0..200).map(|i| 1e-6 * (1.1f64).powi(i % 37) + i as f64).collect();
        let whole = observed(&values, 0..200);
        // reversed, and four interleaved shards one after another
        let rev = observed(&values, (0..200).rev());
        let sharded = observed(&values, (0..4).flat_map(|k| (k..200).step_by(4)));
        // bucket counts and extrema are exactly order-invariant; the sum
        // is a float accumulation, so it only agrees to rounding
        for h in [&rev, &sharded] {
            assert_eq!(h.buckets, whole.buckets);
            assert_eq!((h.count, h.min, h.max), (whole.count, whole.min, whole.max));
            assert!((h.sum - whole.sum).abs() <= 1e-9 * whole.sum.abs());
        }
        assert_eq!(whole.buckets.iter().map(|&(_, n)| n).sum::<u64>(), 200);
    }

    #[test]
    fn histogram_json_carries_its_buckets() {
        let mut reg = Registry::default();
        reg.counter_add("jobs", 3);
        reg.gauge_set("load", 0.75);
        for v in [1e-3, 2e-3, 0.5, 0.0, 17.0] {
            reg.observe("tts.s", v);
        }
        let json = reg.snapshot().to_json();
        assert!(json.contains("\"buckets\":[["), "bucket field missing: {json}");
        // a non-finite observation lands in the sentinel bucket
        let mut reg = Registry::default();
        reg.observe("h", f64::NAN);
        let json = reg.snapshot().to_json();
        assert!(json.contains(&format!("\"buckets\":[[{SENTINEL_BUCKET},1]]")), "{json}");
    }

    #[test]
    fn golden_snapshot_bytes() {
        // byte-exact golden: any change to key order, float formatting,
        // or the histogram bucket encoding is a schema change and must
        // show up here (and bump consumers) before it ships
        let mut reg = Registry::default();
        reg.counter_add("jobs", 2);
        reg.gauge_set("load", 0.5);
        reg.observe("lat.s", 1.0);
        reg.observe("lat.s", 4.0);
        let snap = reg.snapshot();
        let golden = format!(
            "{{\n  \"jobs\": {{\"type\":\"counter\",\"value\":2}},\n  \
             \"lat.s\": {{\"type\":\"histogram\",\"count\":2,\"sum\":5,\"min\":1,\"max\":4,\
             \"buckets\":[[0,1],[{},1]]}},\n  \
             \"load\": {{\"type\":\"gauge\",\"value\":0.5}}\n}}\n",
            2 * SUBS_PER_OCTAVE
        );
        assert_eq!(snap.to_json(), golden);
    }

    /// Any sharded order of any observation sequence buckets exactly as
    /// the sequential order, and the bucket counts always sum to `count`.
    #[test]
    fn sharded_order_buckets_match_sequential() {
        ca_scalar::cases(256, |rng| {
            // log-uniform over 1e-9..1e9: every octave of the bucket grid
            let n = rng.index(1..200);
            let values: Vec<f64> = (0..n).map(|_| 10f64.powf(rng.in_range(-9.0, 9.0))).collect();
            let nshards = rng.index(1..8);
            let seq = observed(&values, 0..n);
            let sharded = observed(&values, (0..nshards).flat_map(|k| (k..n).step_by(nshards)));
            assert_eq!(sharded.buckets, seq.buckets);
            assert_eq!(sharded.count, n as u64);
            assert_eq!(sharded.buckets.iter().map(|&(_, n)| n).sum::<u64>(), sharded.count);
        });
    }

    #[test]
    fn view_queries_by_kind_and_prefix() {
        let mut reg = Registry::default();
        reg.counter_add("kernel.spmv.calls", 4);
        reg.observe("kernel.spmv.s", 0.25);
        reg.observe("kernel.axpy.s", 0.001);
        reg.gauge_set("solve.t_total_s", 9.0);
        let snap = reg.snapshot();
        let view = snap.view();
        assert_eq!(view.counter("kernel.spmv.calls"), Some(4));
        assert_eq!(view.counter("kernel.spmv.s"), None, "kind mismatch is None");
        assert_eq!(view.gauge("solve.t_total_s"), Some(9.0));
        assert_eq!(view.histogram("kernel.spmv.s").map(|h| h.count), Some(1));
        let hists = view.histograms_with_prefix("kernel.");
        assert_eq!(
            hists.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec!["kernel.axpy.s", "kernel.spmv.s"]
        );
        assert_eq!(view.names().count(), 4);
    }
}
