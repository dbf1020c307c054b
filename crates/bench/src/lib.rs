//! # ca-bench — harness regenerating every table and figure of the paper
//!
//! One binary per figure or extension study (see `src/bin/`), each a
//! `main` over one [`Study`]: the study's flags, the suite entries it
//! covers, and its artifacts. A result row is declared once with [`row!`]
//! — every field a key of the JSON payload, every bracketed column a
//! column of the aligned table — and [`table`] renders the rows.
//!
//! Run any figure with, e.g.:
//! ```text
//! cargo run --release -p ca-bench --bin fig08_mpk_performance
//! cargo run --release -p ca-bench --bin fig14_cagmres_table -- --large --matrix cant
//! ```
//! A study takes only the flags it declares — from `--large` (near-paper
//! sizes), `--smoke` (its CI-sized run) and `--matrix <name>` (one suite
//! entry), plus any of its own; every other argument is a usage error.

use ca_gmres::prelude::*;
use ca_gpusim::{MatId, MultiGpu};
use ca_sparse::{gen, Csr};

pub mod pool;

pub use ca_obs::Jv;

/// Conversion into the shared [`Jv`] JSON value type — how results are
/// emitted (the workspace has no serde: every artifact is rendered by
/// `ca_obs::Jv`). Row types get it from [`row!`].
pub trait ToJv {
    /// The JSON value for `self`.
    fn to_jv(&self) -> Jv;
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
macro_rules! int_to_jv {
    ($($t:ty),+) => {
        $(impl ToJv for $t {
            fn to_jv(&self) -> Jv {
                Jv::Int(*self as i128)
            }
        })+
    };
}
int_to_jv!(u8, u64, usize);
impl ToJv for String {
    fn to_jv(&self) -> Jv {
        Jv::Str(self.clone())
    }
}
impl<T: ToJv> ToJv for Option<T> {
    fn to_jv(&self) -> Jv {
        self.as_ref().map_or(Jv::Null, ToJv::to_jv)
    }
}
impl<T: ToJv> ToJv for Vec<T> {
    fn to_jv(&self) -> Jv {
        Jv::Arr(self.iter().map(ToJv::to_jv).collect())
    }
}

/// The table side of a [`row!`] type.
pub trait Columns {
    /// Column headers, in table order.
    const HEADERS: &'static [&'static str];
    /// This row's cells, one per header.
    fn cells(&self) -> Vec<String>;
}

/// Declare a result row once. Every field is a key of the JSON payload,
/// in declaration order; each bracketed column after a field is a column
/// of the aligned [`table`], in declaration order: its header, then the
/// cell — the field's `Display` by default, a format string applied to
/// the field, or a `fn(&Row) -> String` for a cell built from several
/// fields. A field without brackets is JSON-only.
///
/// ```
/// ca_bench::row!(Row {
///     matrix: String ["matrix"],
///     time_ms: f64 ["sim ms" "{:.3}"],
///     converged: bool ["conv" |r| if r.converged { "yes".into() } else { "NO".into() }],
///     iters: usize,
/// });
/// let rows = [Row { matrix: "cant".into(), time_ms: 1.0, converged: true, iters: 7 }];
/// assert!(ca_bench::table(&rows).ends_with("cant   1.000   yes\n"));
/// ```
#[macro_export]
macro_rules! row {
    (@cell $r:ident, $f:ident) => { $r.$f.to_string() };
    (@cell $r:ident, $f:ident $fmt:literal) => { format!($fmt, $r.$f) };
    (@cell $r:ident, $f:ident $($cell:tt)+) => {{
        let cell: fn(&Self) -> String = $($cell)+;
        cell($r)
    }};
    ($(#[$m:meta])* $vis:vis $name:ident {
        $($(#[$fm:meta])* $fvis:vis $field:ident: $ty:ty $([$hdr:literal $($cell:tt)*])*),* $(,)?
    }) => {
        $(#[$m])*
        $vis struct $name {
            $($(#[$fm])* $fvis $field: $ty,)*
        }
        impl $crate::ToJv for $name {
            fn to_jv(&self) -> $crate::Jv {
                $crate::Jv::Obj(vec![
                    $((stringify!($field).to_string(), $crate::ToJv::to_jv(&self.$field)),)*
                ])
            }
        }
        impl $crate::Columns for $name {
            const HEADERS: &'static [&'static str] = &[$($($hdr,)*)*];
            fn cells(&self) -> Vec<String> {
                vec![$($($crate::row!(@cell self, $field $($cell)*),)*)*]
            }
        }
    };
}

/// Render `rows` as an aligned text table: right-aligned cells two spaces
/// apart, the header underlined with dashes.
pub fn table<'a, R: Columns + 'a>(rows: impl IntoIterator<Item = &'a R>) -> String {
    let rows: Vec<Vec<String>> = rows.into_iter().map(Columns::cells).collect();
    let mut widths: Vec<usize> = R::HEADERS.iter().map(|h| h.len()).collect();
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    fn line<'s>(cells: impl Iterator<Item = &'s str>, widths: &[usize]) -> String {
        let padded: Vec<String> = cells.zip(widths).map(|(c, &w)| format!("{c:>w$}")).collect();
        padded.join("  ") + "\n"
    }
    let mut out = line(R::HEADERS.iter().copied(), &widths);
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in &rows {
        out.push_str(&line(row.iter().map(String::as_str), &widths));
    }
    out
}

// Foreign report types that ride inside bench payloads (the orphan rule
// keeps [`row!`] from declaring them).
macro_rules! foreign_to_jv {
    ($t:ty { $($field:ident),+ $(,)? }) => {
        impl ToJv for $t {
            fn to_jv(&self) -> Jv {
                Jv::Obj(vec![$((stringify!($field).to_string(), self.$field.to_jv()),)+])
            }
        }
    };
}
foreign_to_jv!(ca_chaos::Violation { index, problems, schedule, shrunk });
foreign_to_jv!(ca_chaos::CampaignReport {
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

/// The full four-matrix suite in the paper's order, built lazily.
fn suite(scale: Scale) -> impl Iterator<Item = TestMatrix> {
    [cant, g3_circuit, diel_filter, nlpkkt].into_iter().map(move |entry| entry(scale))
}

/// The PCG stream constant behind [`rhs_for`] — the de-facto seed of
/// every suite run, stamped into result envelopes unless overridden.
pub const SUITE_SEED: u64 = 0x853c49e6748fea9b;
/// The PCG increment of [`rhs_for`].
pub const PCG_INC: u64 = 1442695040888963407;

/// `n` values uniform in `[-0.5, 0.5)` from the linear congruential stream
/// `state ← 6364136223846793005·state + inc` started at `seed` (the top
/// 53 bits of each state).
pub fn lcg_vec(seed: u64, inc: u64, n: usize) -> Vec<f64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(inc);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
        .collect()
}

/// A spectrally flat pseudo-random right-hand side. A structured rhs (all
/// ones, smooth sinusoid) only excites a sliver of the spectrum and lets
/// GMRES converge in a handful of steps; a flat one forces the solver
/// through the near-null modes, giving paper-like restart counts.
pub fn rhs_for(a: &Csr) -> Vec<f64> {
    lcg_vec(SUITE_SEED, PCG_INC, a.nrows())
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

/// A suite problem as the solver studies run it: balanced
/// ([`balanced_problem`]), reordered by an [`Ordering`] for a device
/// count, the rhs permuted to match.
pub struct Problem {
    /// The balanced, reordered matrix.
    pub a: Csr,
    /// The balanced rhs in the reordered numbering.
    pub b: Vec<f64>,
    /// `perm[new] = old`.
    pub perm: Vec<usize>,
    /// The block-row layout over the devices.
    pub layout: Layout,
}

impl Problem {
    /// Balance `a`, reorder it by `ordering` for `ndev` devices.
    pub fn new(a: &Csr, ordering: Ordering, ndev: usize) -> Self {
        let (ab, bb) = balanced_problem(a);
        let (a, perm, layout) = prepare(&ab, ordering, ndev);
        Problem { b: ca_sparse::perm::permute_vec(&bb, &perm), a, perm, layout }
    }

    /// Distribute the problem onto `mg` — basis room for `m` vectors, an
    /// `s`-step MPK plan when `s` is given — with the rhs loaded.
    pub fn load(&self, mg: &mut MultiGpu, m: usize, s: Option<usize>) -> System {
        let sys = System::new(mg, &self.a, self.layout.clone(), m, s).expect("fits the devices");
        sys.load_rhs(mg, &self.b).expect("rhs loads");
        sys
    }

    /// Standard GMRES on a fresh default machine, one device per layout
    /// block.
    pub fn gmres(&self, cfg: &GmresConfig) -> GmresOutcome {
        let mut mg = MultiGpu::with_defaults(self.layout.ndev());
        let sys = self.load(&mut mg, cfg.m, None);
        gmres(&mut mg, &sys, cfg)
    }

    /// CA-GMRES on a fresh default machine, one device per layout block. An
    /// s-step solve (`s > 1`) starts from clocks at zero, where the
    /// committed tables recorded it: a solve's times are differences of
    /// absolute clock readings, whose last bits depend on where the clock
    /// stood.
    pub fn ca_gmres(&self, cfg: &CaGmresConfig) -> CaGmresOutcome {
        let mut mg = MultiGpu::with_defaults(self.layout.ndev());
        let sys = self.load(&mut mg, cfg.m, Some(cfg.s));
        if cfg.s > 1 {
            mg.reset_time();
        }
        ca_gmres(&mut mg, &sys, cfg)
    }

    /// The generator an `s`-step CA-GMRES runs faster on the default
    /// machine of [`Problem::ca_gmres`] ([`ca_gmres::mpk::fastest_kernel`]).
    pub fn fastest_kernel(&self, s: usize) -> KernelMode {
        let mg = MultiGpu::with_defaults(self.layout.ndev());
        ca_gmres::mpk::fastest_kernel(&mg, &self.a, &self.layout, s)
    }
}

/// The `xhash` of DIGEST lines: FNV-1a over the bits of a solution.
pub fn xhash(x: &[f64]) -> u64 {
    ca_obs::fnv1a_words(x.iter().map(|v| v.to_bits()))
}

/// The true relative residual `‖b − A x‖ / ‖b‖`, recomputed on the host —
/// independent of the solver's own recurrence.
pub fn true_relres(a: &Csr, b: &[f64], x: &[f64]) -> f64 {
    let mut r = vec![0.0; b.len()];
    ca_sparse::spmv::spmv(a, x, &mut r);
    for (ri, bi) in r.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
    ca_dense::blas1::nrm2(&r) / ca_dense::blas1::nrm2(b)
}

/// A tall-skinny `n × cols` block split evenly over `mg`'s devices,
/// device `d`'s slice filled column by column from [`lcg_vec`] seeded
/// `(d + 1)·0x9E3779B97F4A7C15`.
pub fn random_block(mg: &mut MultiGpu, n: usize, cols: usize, inc: u64) -> Vec<MatId> {
    let ndev = mg.n_gpus();
    let nl = n / ndev;
    (0..ndev)
        .map(|d| {
            let dev = mg.device_mut(d);
            let v = dev.alloc_mat(nl, cols).expect("block fits");
            let vals = lcg_vec((d as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15), inc, nl * cols);
            for (j, col) in vals.chunks(nl).enumerate() {
                dev.mat_mut(v).set_col(j, col);
            }
            v
        })
        .collect()
}

/// GMRES flop count for effective-Gflop/s reporting (Fig. 3/11 style):
/// `iters * (2 nnz + 4 n k_avg)` with `k_avg ≈ m/2` orthogonalization
/// columns per iteration.
pub fn gmres_flops(nnz: usize, n: usize, m: usize, iters: usize) -> f64 {
    iters as f64 * (2.0 * nnz as f64 + 4.0 * n as f64 * (m as f64 / 2.0))
}

row!(
    /// Per-run metadata stamped into every JSON artifact's envelope.
    #[derive(Debug, Clone)]
    pub RunMeta {
        /// RNG seed the run's inputs were generated from.
        pub seed: u64,
        /// `MachineProfile::hash_hex()` of the calibrated profile in use,
        /// if the study tunes against one.
        pub profile_hash: Option<String>,
        /// `MetricsSnapshot::hash_hex()` of the observability metrics the
        /// run recorded, if it ran under a `ca-obs` session — ties the
        /// artifact to the exact counter/gauge/histogram state that
        /// produced it.
        pub metrics_hash: Option<String>,
        /// Seed of the open-loop arrival stream, for service studies driven
        /// by `ca_serve::open_loop_arrivals` (null for solver-only figures).
        pub arrival_seed: Option<u64>,
        /// Offered load of that stream, jobs per simulated second (null for
        /// solver-only figures). Together with `arrival_seed` this pins the
        /// exact request trace an artifact was measured under.
        pub offered_load_jobs_per_s: Option<f64>,
    }
);

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

/// One study binary's run: its command line, the suite entries it covers,
/// and the artifacts it writes. Every `main` in `src/bin/` starts with
/// [`Study::new`].
pub struct Study {
    name: &'static str,
    usage: String,
    values: Vec<(String, String)>,
    /// `--large`: near-paper sizes instead of the laptop-scale default.
    pub scale: Scale,
    /// `--smoke`: the study's CI-sized run — the first suite entry,
    /// canonical `DIGEST` lines, and `<name>_smoke.json` in place of
    /// `<name>.json` for the studies that write one.
    pub smoke: bool,
    /// `--matrix <name>`: the one suite entry to run (exact name).
    pub matrix: Option<String>,
    /// Stamped into the envelope of every JSON artifact the study writes.
    pub meta: RunMeta,
}

impl Study {
    /// Read the command line against the flags study `name` takes:
    /// `--large`, `--smoke`, `--matrix <name>`, or a value flag of its own
    /// spelled with its value (`"--schedules <n>"`). Any other argument, or
    /// a value flag without its value, prints the usage line to standard
    /// error and exits with status 2 before any work.
    pub fn new(name: &'static str, flags: &[&str]) -> Study {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Study::parse(name, flags, &args).unwrap_or_else(|usage| exit_usage(&usage))
    }

    fn parse(name: &'static str, flags: &[&str], args: &[String]) -> Result<Study, String> {
        let spec: String = flags.iter().map(|f| format!(" [{f}]")).collect();
        let mut study = Study {
            name,
            usage: format!("usage: {name}{spec}"),
            values: Vec::new(),
            scale: Scale::Small,
            smoke: false,
            matrix: None,
            meta: RunMeta::default(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let flag = flags.iter().find(|f| f.split(' ').next() == Some(arg.as_str()));
            match flag.copied() {
                Some("--large") => study.scale = Scale::Large,
                Some("--smoke") => study.smoke = true,
                Some(flag) => match it.next() {
                    Some(value) => study.values.push((arg.clone(), value.clone())),
                    None => return Err(format!("{}\n{flag}: value missing", study.usage)),
                },
                None => return Err(format!("{}\nunknown argument {arg:?}", study.usage)),
            }
        }
        study.matrix = study.parse_value("--matrix")?;
        Ok(study)
    }

    fn parse_value<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        let Some((_, v)) = self.values.iter().rev().find(|(f, _)| f == flag) else {
            return Ok(None);
        };
        v.parse().map(Some).map_err(|_| format!("{}\n{flag}: cannot read {v:?}", self.usage))
    }

    /// The value of one of the study's own value flags, parsed (`None`:
    /// flag absent). An unreadable value is a usage error (status 2).
    pub fn value<T: std::str::FromStr>(&self, flag: &str) -> Option<T> {
        self.parse_value(flag).unwrap_or_else(|usage| exit_usage(&usage))
    }

    /// Whether `--matrix` lets suite entry `name` run.
    pub fn selects(&self, name: &str) -> bool {
        self.matrix.as_deref().is_none_or(|m| m == name)
    }

    /// The suite entries this run covers, in the paper's order: all four,
    /// the one `--matrix` names, and under `--smoke` only the first.
    pub fn suite(&self) -> Vec<TestMatrix> {
        let picked = suite(self.scale).filter(|t| self.selects(t.name));
        picked.take(if self.smoke { 1 } else { usize::MAX }).collect()
    }

    /// Print `DIGEST <line>` on a `--smoke` run: the canonical lines CI
    /// pins.
    pub fn digest(&self, line: std::fmt::Arguments) {
        if self.smoke {
            println!("DIGEST {line}");
        }
    }

    /// Write `contents` to `file` under the artifact directory —
    /// `CA_BENCH_DIR` when set, otherwise `bench_results/` (the repo root
    /// when run via cargo) — creating subdirectories.
    pub fn write(&self, file: &str, contents: &str) {
        let dir = std::env::var_os("CA_BENCH_DIR").unwrap_or_else(|| "bench_results".into());
        let path = std::path::Path::new(&dir).join(file);
        let dir = path.parent().expect("a file under the artifact directory");
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, contents)) {
            Ok(()) => eprintln!("[ca-bench] wrote {}", path.display()),
            Err(e) => eprintln!("[ca-bench] cannot write {}: {e}", path.display()),
        }
    }

    /// Write the plain-text report `<name>.txt`.
    pub fn write_text(&self, contents: &str) {
        self.write(&format!("{}.txt", self.name), contents);
    }

    /// Write `payload` inside the result envelope to `<name>.json`
    /// (`<name>_smoke.json` under `--smoke`).
    pub fn write_json<T: ToJv + ?Sized>(&self, payload: &T) {
        let figure = if self.smoke { format!("{}_smoke", self.name) } else { self.name.into() };
        let doc = self.envelope(&figure, payload).render_pretty() + "\n";
        self.write(&format!("{figure}.json"), &doc);
    }

    /// The result envelope every artifact shares: schema, figure name,
    /// `git describe`, host threads (the executor has one), the run
    /// metadata, then the payload.
    fn envelope<T: ToJv + ?Sized>(&self, figure: &str, payload: &T) -> Jv {
        let mut doc = vec![
            ("schema".into(), Jv::Str("ca-bench/result".into())),
            ("schema_version".into(), Jv::Int(1)),
            ("figure".into(), Jv::Str(figure.into())),
            ("git".into(), Jv::Str(git_describe())),
            ("threads".into(), Jv::Int(1)),
        ];
        if let Jv::Obj(meta) = self.meta.to_jv() {
            doc.extend(meta);
        }
        doc.push(("payload".into(), payload.to_jv()));
        Jv::Obj(doc)
    }
}

fn exit_usage(usage: &str) -> ! {
    eprintln!("{usage}");
    std::process::exit(2)
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

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn a_study_takes_only_the_flags_it_declares() {
        let flags = ["--large", "--smoke", "--matrix <name>", "--schedules <n>"];
        let st = Study::parse("s", &flags, &args("--smoke --matrix cant --schedules 40")).unwrap();
        assert!(st.smoke && st.scale == Scale::Small);
        assert_eq!(st.matrix.as_deref(), Some("cant"));
        assert_eq!(st.parse_value::<u64>("--schedules"), Ok(Some(40)));
        assert!(st.selects("cant") && !st.selects("G3_circuit"));
        for bad in ["--smok", "--only cant", "--smoke --matrix", "extra", "--large --schedules"] {
            let usage = Study::parse("s", &flags, &args(bad)).err().expect(bad);
            assert!(usage.starts_with("usage: s [--large] [--smoke]"), "{bad}: {usage}");
        }
        let st = Study::parse("s", &flags, &args("--schedules many")).unwrap();
        assert!(st.parse_value::<u64>("--schedules").is_err());
        assert!(Study::parse("s", &["--smoke"], &args("--large")).is_err());
    }

    #[test]
    fn suite_has_paper_character() {
        let study = Study::parse("s", &[], &[]).unwrap();
        let names: Vec<&str> = study.suite().iter().map(|t| t.name).collect();
        assert_eq!(names, ["cant", "G3_circuit", "dielFilterV2real", "nlpkkt120"]);
        for t in study.suite() {
            assert!(t.a.nrows() > 1000, "{} too small", t.name);
            assert!(t.m >= 30);
        }
        let c = cant(Scale::Small);
        assert!(c.a.avg_row_nnz() > 45.0);
        let g = g3_circuit(Scale::Small);
        assert!(g.a.avg_row_nnz() < 8.0);
    }

    #[test]
    fn smoke_and_matrix_pick_one_entry() {
        let smoke = Study::parse("s", &["--smoke"], &args("--smoke")).unwrap();
        assert_eq!(smoke.suite().iter().map(|t| t.name).collect::<Vec<_>>(), ["cant"]);
        let one = Study::parse("s", &["--matrix <name>"], &args("--matrix nlpkkt120")).unwrap();
        assert_eq!(one.suite().iter().map(|t| t.name).collect::<Vec<_>>(), ["nlpkkt120"]);
    }

    row!(EnvRow {
        matrix: String ["matrix"],
        t_total_s: f64 ["t" "{:.2}"],
        iters: usize,
        digest: Option<String> ["digest" |r| r.digest.clone().unwrap_or_else(|| "-".into())],
    });

    #[test]
    fn one_row_declaration_yields_table_and_payload() {
        let rows = vec![
            EnvRow {
                matrix: "cant".into(),
                t_total_s: 0.25,
                iters: 42,
                digest: Some("00ff".into()),
            },
            EnvRow { matrix: "G3_circuit".into(), t_total_s: 1.5, iters: 7, digest: None },
        ];
        let rule = "-".repeat(24);
        let want = [
            "    matrix     t  digest",
            &rule,
            "      cant  0.25    00ff",
            "G3_circuit  1.50       -",
        ];
        assert_eq!(table(&rows).lines().collect::<Vec<_>>(), want);

        let study = Study::parse("test_fig", &[], &[]).unwrap();
        let doc = Jv::parse(&study.envelope("test_fig", &rows).render_pretty()).unwrap();
        assert_eq!(doc.get("schema").and_then(Jv::as_str), Some("ca-bench/result"));
        assert_eq!(doc.get("figure").and_then(Jv::as_str), Some("test_fig"));
        assert_eq!(doc.get("seed").and_then(Jv::as_u64), Some(SUITE_SEED));
        let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys[5..],
            [
                "seed",
                "profile_hash",
                "metrics_hash",
                "arrival_seed",
                "offered_load_jobs_per_s",
                "payload"
            ]
        );
        let payload = doc.get("payload").and_then(Jv::as_arr).expect("an array payload");
        assert_eq!(payload.len(), 2);
        assert_eq!(payload[0].get("matrix").and_then(Jv::as_str), Some("cant"));
        assert_eq!(payload[0].get("t_total_s").and_then(Jv::as_f64), Some(0.25));
        assert_eq!(payload[0].get("iters").and_then(Jv::as_u64), Some(42));
        assert!(matches!(payload[1].get("digest"), Some(Jv::Null)));
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
}
