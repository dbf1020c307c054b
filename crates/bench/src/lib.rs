//! # ca-bench — harness regenerating every table and figure of the paper
//!
//! One binary per figure (see `src/bin/`); this library holds the shared
//! pieces: the test-matrix suite (synthetic analogs of the paper's Fig. 12
//! matrices), table formatting, and JSON result emission for
//! `EXPERIMENTS.md`.
//!
//! Run any figure with, e.g.:
//! ```text
//! cargo run --release -p ca-bench --bin fig08_mpk_performance
//! cargo run --release -p ca-bench --bin fig14_cagmres_table -- --large
//! ```
//! `--large` switches from the laptop-scale default to near-paper sizes.

#![allow(clippy::needless_range_loop)]

use ca_sparse::{gen, Csr};

pub mod trend;

pub use ca_obs::Jv;

/// Conversion into the shared [`Jv`] JSON value type — how results are
/// emitted (the workspace has no serde: every artifact is rendered and
/// parsed by `ca_obs::Jv`). Implement via [`jv_struct!`] for payload row
/// structs.
pub trait ToJv {
    /// The JSON value for `self`.
    fn to_jv(&self) -> Jv;
}

impl ToJv for Jv {
    fn to_jv(&self) -> Jv {
        self.clone()
    }
}
impl ToJv for bool {
    fn to_jv(&self) -> Jv {
        Jv::Bool(*self)
    }
}
impl ToJv for f64 {
    fn to_jv(&self) -> Jv {
        Jv::Num(*self)
    }
}
impl ToJv for u64 {
    fn to_jv(&self) -> Jv {
        Jv::Int(i128::from(*self))
    }
}
impl ToJv for u32 {
    fn to_jv(&self) -> Jv {
        Jv::Int(i128::from(*self))
    }
}
impl ToJv for u8 {
    fn to_jv(&self) -> Jv {
        Jv::Int(i128::from(*self))
    }
}
impl ToJv for i32 {
    fn to_jv(&self) -> Jv {
        Jv::Int(i128::from(*self))
    }
}
impl ToJv for i64 {
    fn to_jv(&self) -> Jv {
        Jv::Int(i128::from(*self))
    }
}
impl ToJv for usize {
    fn to_jv(&self) -> Jv {
        Jv::Int(*self as i128)
    }
}
impl ToJv for String {
    fn to_jv(&self) -> Jv {
        Jv::Str(self.clone())
    }
}
impl ToJv for &str {
    fn to_jv(&self) -> Jv {
        Jv::Str((*self).to_string())
    }
}
impl<T: ToJv> ToJv for Option<T> {
    fn to_jv(&self) -> Jv {
        match self {
            Some(v) => v.to_jv(),
            None => Jv::Null,
        }
    }
}
impl<T: ToJv> ToJv for Vec<T> {
    fn to_jv(&self) -> Jv {
        Jv::Arr(self.iter().map(ToJv::to_jv).collect())
    }
}
impl<T: ToJv> ToJv for [T] {
    fn to_jv(&self) -> Jv {
        Jv::Arr(self.iter().map(ToJv::to_jv).collect())
    }
}
impl<T: ToJv + ?Sized> ToJv for &T {
    fn to_jv(&self) -> Jv {
        (*self).to_jv()
    }
}

/// Implement [`ToJv`] for a payload struct, serializing the listed
/// fields in order as a JSON object keyed by field name.
#[macro_export]
macro_rules! jv_struct {
    ($t:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::ToJv for $t {
            fn to_jv(&self) -> $crate::Jv {
                $crate::Jv::Obj(vec![
                    $((stringify!($field).to_string(), $crate::ToJv::to_jv(&self.$field)),)+
                ])
            }
        }
    };
}

// Foreign report types that ride inside bench payloads (the orphan rule
// keeps bins from implementing the bench-local trait for them).
jv_struct!(ca_chaos::Violation { index, problems, schedule, shrunk });
jv_struct!(ca_chaos::CampaignReport {
    seed,
    schedules,
    passed,
    panics,
    converged,
    typed_breakdowns,
    zero_rate_checked,
    probe_armed,
    in_cycle_escalations,
    block_resumes,
    mid_cycle_rebalances,
    ladder_escalations,
    ladder_reorths,
    ladder_throttles,
    ladder_basis_switches,
    ladder_promotions,
    detections,
    detection_latency_mean_s,
    detection_latency_max_s,
    span_nesting_error,
    digest,
    violation_count,
    violations,
});

/// Problem-size scale for the suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Laptop-scale (default): every figure regenerates in seconds–minutes.
    Small,
    /// Near-paper sizes (row counts within ~2-25x of Fig. 12; the circuit
    /// analog is kept at 400k rows to bound memory).
    Large,
}

impl Scale {
    /// Parse from process args: `--large` selects [`Scale::Large`].
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--large") {
            Scale::Large
        } else {
            Scale::Small
        }
    }
}

/// The value following `flag` in `args`, parsed; `None` when the flag is
/// absent. A flag that is last on the line, or whose value does not parse,
/// is a usage error.
fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else { return Ok(None) };
    let value = args.get(i + 1).ok_or_else(|| format!("usage: {flag} <value> (value missing)"))?;
    value.parse().map(Some).map_err(|_| format!("usage: {flag} <value> (cannot read {value:?})"))
}

/// The value following `flag` on a study binary's command line, parsed
/// (`None`: flag absent). A flag without a readable value is a usage error:
/// it is printed to standard error and ends the process with status 2.
pub fn flag_value<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    parse_flag(args, flag).unwrap_or_else(|usage| {
        eprintln!("{usage}");
        std::process::exit(2)
    })
}

/// A suite entry: the matrix analog plus the paper's per-matrix restart
/// length (§VI chose the best `m` per matrix; Fig. 14 reports
/// cant: 60, G3_circuit: 30, dielFilterV2real: 180, nlpkkt120: 120).
pub struct TestMatrix {
    /// Paper matrix this stands in for.
    pub name: &'static str,
    /// The analog.
    pub a: Csr,
    /// Restart length the paper used for it.
    pub m: usize,
}

/// The `cant` analog (FEM cantilever, banded, nnz/n ≈ 64).
pub fn cant(scale: Scale) -> TestMatrix {
    let d = match scale {
        Scale::Small => 14,
        Scale::Large => 28,
    };
    TestMatrix { name: "cant", a: gen::cantilever(d, d, d), m: 60 }
}

/// The `G3_circuit` analog (irregular circuit graph, nnz/n ≈ 4.8).
pub fn g3_circuit(scale: Scale) -> TestMatrix {
    let n = match scale {
        Scale::Small => 40_000,
        Scale::Large => 400_000,
    };
    TestMatrix { name: "G3_circuit", a: gen::circuit(n, 20140527), m: 30 }
}

/// The `dielFilterV2real` analog (FEM electromagnetics, nnz/n ≈ 42).
pub fn diel_filter(scale: Scale) -> TestMatrix {
    let d = match scale {
        Scale::Small => 26,
        Scale::Large => 40,
    };
    TestMatrix { name: "dielFilterV2real", a: gen::diel_filter(d, d, d), m: 180 }
}

/// The `nlpkkt120` analog (KKT saddle point, nnz/n ≈ 27).
pub fn nlpkkt(scale: Scale) -> TestMatrix {
    let d = match scale {
        Scale::Small => 18,
        Scale::Large => 44,
    };
    TestMatrix { name: "nlpkkt120", a: gen::kkt(d, d, d), m: 120 }
}

/// The full four-matrix suite in the paper's order.
pub fn suite(scale: Scale) -> Vec<TestMatrix> {
    vec![cant(scale), g3_circuit(scale), diel_filter(scale), nlpkkt(scale)]
}

/// A spectrally flat pseudo-random right-hand side. A structured rhs (all
/// ones, smooth sinusoid) only excites a sliver of the spectrum and lets
/// GMRES converge in a handful of steps; a flat one forces the solver
/// through the near-null modes, giving paper-like restart counts.
pub fn rhs_for(a: &Csr) -> Vec<f64> {
    let n = a.nrows();
    let mut state = 0x853c49e6748fea9bu64;
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
        .collect()
}

/// The paper's §VI preprocessing: balance the matrix (rows scaled by their
/// norms, then columns by theirs) and scale the rhs to match. Benches
/// solve the balanced system — without this the Newton basis norms grow
/// like `||A||^s` and the Gram matrices overflow double precision.
pub fn balanced_problem(a: &Csr) -> (Csr, Vec<f64>) {
    let (ab, bal) = ca_sparse::balance::balance(a);
    let b = bal.scale_rhs(&rhs_for(a));
    (ab, b)
}

/// Render an aligned text table.
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncol = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncol) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:>width$}", c, width = widths[i]));
        }
        line.push('\n');
        line
    };
    let hdr: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&hdr, &widths));
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncol - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// The PCG stream constant behind [`rhs_for`] — the de-facto seed of
/// every suite run, stamped into result envelopes unless overridden.
pub const SUITE_SEED: u64 = 0x853c49e6748fea9b;

/// Per-run metadata stamped into every JSON artifact's envelope.
#[derive(Debug, Clone)]
pub struct RunMeta {
    /// RNG seed the run's inputs were generated from.
    pub seed: u64,
    /// `MachineProfile::hash_hex()` of the calibrated profile in use,
    /// if the study tunes against one.
    pub profile_hash: Option<String>,
    /// `MetricsSnapshot::hash_hex()` of the observability metrics the run
    /// recorded, if it ran under a `ca-obs` session — ties the artifact to
    /// the exact counter/gauge/histogram state that produced it.
    pub metrics_hash: Option<String>,
    /// Seed of the open-loop arrival stream, for service studies driven
    /// by `ca_serve::open_loop_arrivals` (null for solver-only figures).
    pub arrival_seed: Option<u64>,
    /// Offered load of that stream, jobs per simulated second (null for
    /// solver-only figures). Together with `arrival_seed` this pins the
    /// exact request trace an artifact was measured under.
    pub offered_load_jobs_per_s: Option<f64>,
}

impl Default for RunMeta {
    fn default() -> Self {
        Self {
            seed: SUITE_SEED,
            profile_hash: None,
            metrics_hash: None,
            arrival_seed: None,
            offered_load_jobs_per_s: None,
        }
    }
}

static RUN_META: std::sync::Mutex<Option<RunMeta>> = std::sync::Mutex::new(None);

/// Override the metadata stamped by subsequent [`write_json`] calls
/// (e.g. a tuning study records its profile hash before writing).
pub fn set_run_meta(meta: RunMeta) {
    *RUN_META.lock().unwrap() = Some(meta);
}

fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Directory result artifacts are written to: `CA_BENCH_DIR` when set
/// (the trend gate routes fresh smoke runs to a scratch dir this way),
/// otherwise `bench_results/` (repo root when run via cargo; cwd
/// otherwise).
pub fn bench_dir() -> std::path::PathBuf {
    std::env::var_os("CA_BENCH_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("bench_results"))
}

/// Build the full result envelope for `value` as a [`Jv`] document.
/// Exposed for the trend gate's tests; studies go through [`write_json`].
pub fn result_envelope<T: ToJv>(figure: &str, value: &T) -> Jv {
    let meta = RUN_META.lock().unwrap().clone().unwrap_or_default();
    let opt_str = |o: &Option<String>| match o {
        Some(s) => Jv::Str(s.clone()),
        None => Jv::Null,
    };
    Jv::Obj(vec![
        ("schema".into(), Jv::Str("ca-bench/result".into())),
        ("schema_version".into(), Jv::Int(1)),
        ("figure".into(), Jv::Str(figure.to_string())),
        ("git".into(), Jv::Str(git_describe())),
        // host threads the study ran on: the executor has one
        ("threads".into(), Jv::Int(1)),
        ("seed".into(), Jv::Int(i128::from(meta.seed))),
        ("profile_hash".into(), opt_str(&meta.profile_hash)),
        ("metrics_hash".into(), opt_str(&meta.metrics_hash)),
        (
            "arrival_seed".into(),
            match meta.arrival_seed {
                Some(s) => Jv::Int(i128::from(s)),
                None => Jv::Null,
            },
        ),
        (
            "offered_load_jobs_per_s".into(),
            match meta.offered_load_jobs_per_s {
                Some(r) => Jv::Num(r),
                None => Jv::Null,
            },
        ),
        ("payload".into(), value.to_jv()),
    ])
}

/// Write a JSON result blob under [`bench_dir`]. Every figure and
/// extension study shares this writer, so every artifact carries the
/// same envelope: schema version, figure name, seed, thread count,
/// `git describe`, and — for tuned runs — the machine-profile hash.
/// The whole document is rendered through the hand-rolled [`Jv`]
/// writer.
pub fn write_json<T: ToJv>(figure: &str, value: &T) {
    let dir = bench_dir();
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join(format!("{figure}.json"));
    let mut doc = result_envelope(figure, value).render_pretty();
    doc.push('\n');
    let _ = std::fs::write(&path, doc);
    eprintln!("[ca-bench] wrote {}", path.display());
}

/// Write a plain-text table/report next to the JSON artifact of the
/// same figure, honoring the [`bench_dir`] override.
pub fn write_text(figure: &str, contents: &str) {
    let dir = bench_dir();
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join(format!("{figure}.txt"));
    let _ = std::fs::write(&path, contents);
    eprintln!("[ca-bench] wrote {}", path.display());
}

/// GMRES flop count for effective-Gflop/s reporting (Fig. 3/11 style):
/// `iters * (2 nnz + 4 n k_avg)` with `k_avg ≈ m/2` orthogonalization
/// columns per iteration.
pub fn gmres_flops(nnz: usize, n: usize, m: usize, iters: usize) -> f64 {
    iters as f64 * (2.0 * nnz as f64 + 4.0 * n as f64 * (m as f64 / 2.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_flag_without_a_readable_value_is_a_usage_error_not_a_panic() {
        let args = |line: &str| line.split(' ').map(String::from).collect::<Vec<_>>();
        let line = args("bin --smoke --matrix cant --schedules 40");
        assert_eq!(parse_flag::<String>(&line, "--matrix"), Ok(Some("cant".into())));
        assert_eq!(parse_flag::<u64>(&line, "--schedules"), Ok(Some(40)));
        assert_eq!(parse_flag::<String>(&line, "--only"), Ok(None));
        // the flag last on the line: what `args[i + 1]` used to index past
        assert!(parse_flag::<String>(&args("bin --smoke --matrix"), "--matrix").is_err());
        assert!(parse_flag::<u64>(&args("bin --schedules many"), "--schedules").is_err());
    }

    #[test]
    fn suite_has_paper_character() {
        for t in suite(Scale::Small) {
            assert!(t.a.nrows() > 1000, "{} too small", t.name);
            assert!(t.m >= 30);
        }
        let c = cant(Scale::Small);
        assert!(c.a.avg_row_nnz() > 45.0);
        let g = g3_circuit(Scale::Small);
        assert!(g.a.avg_row_nnz() < 8.0);
    }

    #[test]
    fn table_formats_aligned() {
        let s = format_table(
            &["a", "bbb"],
            &[vec!["1".into(), "2".into()], vec!["10".into(), "20".into()]],
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[2].ends_with('2'));
    }

    #[test]
    fn rhs_is_flat_and_deterministic() {
        let t = cant(Scale::Small);
        let b1 = rhs_for(&t.a);
        let b2 = rhs_for(&t.a);
        assert_eq!(b1, b2);
        assert_eq!(b1.len(), t.a.nrows());
        let mean: f64 = b1.iter().sum::<f64>() / b1.len() as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
    }

    struct EnvRow {
        matrix: String,
        t_total_s: f64,
        iters: usize,
        digest: Option<String>,
    }
    jv_struct!(EnvRow { matrix, t_total_s, iters, digest });

    #[test]
    fn envelope_round_trips_real_payload() {
        let rows = vec![
            EnvRow {
                matrix: "cant".into(),
                t_total_s: 0.125,
                iters: 42,
                digest: Some("00ff".into()),
            },
            EnvRow { matrix: "G3_circuit".into(), t_total_s: 1.5, iters: 7, digest: None },
        ];
        let txt = result_envelope("test_fig", &rows).render_pretty();
        assert!(!txt.contains("stub"), "serde stub leaked into the artifact path:\n{txt}");
        let doc = Jv::parse(&txt).expect("envelope must be valid JSON");
        assert_eq!(doc.get("schema").and_then(Jv::as_str), Some("ca-bench/result"));
        assert_eq!(doc.get("figure").and_then(Jv::as_str), Some("test_fig"));
        let payload = match doc.get("payload") {
            Some(Jv::Arr(rows)) => rows,
            other => panic!("payload should be an array, got {other:?}"),
        };
        assert_eq!(payload.len(), 2);
        assert_eq!(payload[0].get("matrix").and_then(Jv::as_str), Some("cant"));
        assert_eq!(payload[0].get("t_total_s").and_then(Jv::as_f64), Some(0.125));
        assert_eq!(payload[0].get("iters").and_then(Jv::as_u64), Some(42));
        assert!(matches!(payload[1].get("digest"), Some(Jv::Null)));
    }
}
