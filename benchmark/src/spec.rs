//! What is measured: the four workloads, the metric tables and the seeded
//! input generators. `BENCHMARK.json` at the repository root lists the
//! same names; `tests/cli.rs` keeps the two in step.

use ca_gmres::prelude::{CaGmresConfig, KernelMode, Ordering};
use ca_serve::JobRequest;
use ca_sparse::{gen, Csr};

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 20140527;
/// Seconds one run measures when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 20.0;
/// `--seconds` default under `--quick`.
pub const QUICK_SECONDS: f64 = 2.0;

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may get worse.
    pub bound: f64,
    /// Computed on the simulated clock or counted: the same seed must give
    /// the same value bit for bit, so `compare` tests it with `==`.
    pub exact: bool,
}

/// The end-to-end metrics, in print order. Simulated seconds carry the unit
/// `sim_s` so that no reader takes them for host time.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25, exact: false },
    EndToEnd { name: "solve_wall_s", unit: "s", better: Better::Lower, bound: 0.25, exact: false },
    EndToEnd {
        name: "solve_sim_s",
        unit: "sim_s",
        better: Better::Lower,
        bound: 0.05,
        exact: true,
    },
    EndToEnd {
        name: "solve_iters",
        unit: "count",
        better: Better::Lower,
        bound: 0.05,
        exact: true,
    },
    EndToEnd {
        name: "serve_wall_jobs_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "serve_sim_jobs_per_s",
        unit: "1/sim_s",
        better: Better::Higher,
        bound: 0.10,
        exact: true,
    },
    EndToEnd {
        name: "serve_sim_p95_tts_s",
        unit: "sim_s",
        better: Better::Lower,
        bound: 0.10,
        exact: true,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.05,
        exact: false,
    },
];

/// The per-layer metrics of the traced run: name, unit, direction.
/// A workload that does not exercise a layer reports 0 for its rows
/// (`serve.*` on the three solves, `core.ft_tax` off `cant_mpk`).
pub const PER_LAYER: &[(&str, &str, Better)] = {
    use Better::{Higher as H, Lower as L};
    &[
        ("ref.triad_gbs", "GB/s", H),
        ("ref.gmres_cpu_cycle_wall_s", "s", L),
        ("dense.dot_gbs", "GB/s", H),
        ("dense.axpy_gbs", "GB/s", H),
        ("dense.gemv_t_gbs", "GB/s", H),
        ("dense.syrk_tn_gfs", "GF/s", H),
        ("dense.syrk_tn_roof_frac", "ratio", H),
        ("dense.gemm_tn_gfs", "GF/s", H),
        ("dense.gemm_tn_wide_gfs", "GF/s", H),
        ("dense.gemm_nn_gfs", "GF/s", H),
        ("dense.trsm_gfs", "GF/s", H),
        ("dense.small_factor_us", "us", L),
        ("sparse.spmv_csr_gbs", "GB/s", H),
        ("sparse.spmv_ell_gbs", "GB/s", H),
        ("sparse.spmv_hyb_gbs", "GB/s", H),
        ("sparse.spmv_csr_f32_gbs", "GB/s", H),
        ("sparse.ell_pad_ratio", "ratio", L),
        ("sparse.balance_s", "s", L),
        ("sparse.partition_s", "s", L),
        ("gpusim.cmd_ns", "ns", L),
        ("gpusim.run_ns", "ns", L),
        ("gpusim.xfer_ns", "ns", L),
        ("gpusim.syrk_cols_gfs", "GF/s", H),
        ("gpusim.gemm_tn_cols_gfs", "GF/s", H),
        ("gpusim.gemm_tn_cols_wide_gfs", "GF/s", H),
        ("gpusim.gemm_nn_update_gfs", "GF/s", H),
        ("gpusim.trsm_cols_gfs", "GF/s", H),
        ("gpusim.spmv_gbs", "GB/s", H),
        ("gpusim.cmds", "count", L),
        ("gpusim.msgs", "count", L),
        ("gpusim.bytes", "B", L),
        ("gpusim.sim_imbalance", "ratio", L),
        ("gpusim.host_per_sim", "ratio", L),
        ("core.mpk_plan_s", "s", L),
        ("core.system_new_s", "s", L),
        ("core.load_rhs_s", "s", L),
        ("core.mpk_redundancy", "ratio", L),
        ("core.halo_rows", "count", L),
        ("core.cycle_gen_wall_s", "s", L),
        ("core.cycle_gen_sim_s", "sim_s", L),
        ("core.cycle_borth_wall_s", "s", L),
        ("core.cycle_borth_sim_s", "sim_s", L),
        ("core.cycle_tsqr_wall_s", "s", L),
        ("core.cycle_tsqr_sim_s", "sim_s", L),
        ("core.first_cycle_wall_s", "s", L),
        ("core.ca_cycle_wall_s", "s", L),
        ("core.ca_cycle_sim_s", "sim_s", L),
        ("core.cycle_other_frac", "ratio", L),
        ("core.sim_spmv_frac", "ratio", L),
        ("core.sim_orth_frac", "ratio", L),
        ("core.sim_tsqr_frac", "ratio", L),
        ("core.sim_small_frac", "ratio", L),
        ("core.restarts", "count", L),
        ("core.ca_over_gmres_wall", "ratio", L),
        ("core.ca_over_gmres_sim", "ratio", L),
        ("core.ft_tax", "ratio", L),
        ("tune.plan_wall_ms", "ms", L),
        ("tune.plan_candidates", "count", H),
        ("tune.plan_us_per_cand", "us", L),
        ("tune.admit_plan_us", "us", L),
        ("tune.predict_rel_err", "ratio", L),
        ("serve.wall_ms_per_job", "ms", L),
        ("serve.cold_wall_ms_per_job", "ms", L),
        ("serve.warm_hit_frac", "ratio", H),
        ("serve.batched_frac", "ratio", H),
        ("serve.deadline_miss_frac", "ratio", L),
        ("serve.planner_misses", "count", L),
        ("serve.evictions", "count", L),
        ("serve.backfill_hits", "count", H),
        ("serve.max_queue_depth", "count", L),
        ("serve.sim_util", "ratio", H),
        ("serve.sim_p50_tts_s", "sim_s", L),
        ("obs.session_tax", "ratio", L),
        ("obs.spans", "count", L),
        ("trace.tax", "ratio", L),
        ("trace.spans", "count", L),
    ]
};

/// Generator and size of a solver workload's matrix.
#[derive(Debug, Clone, Copy)]
pub enum MatrixGen {
    /// `gen::cantilever(d, d, d)`: banded FEM analog, ~72 nnz per row.
    Cantilever(usize),
    /// `gen::convection_diffusion(d, d, 2.0)`: five-point, non-symmetric.
    ConvDiff(usize),
    /// `gen::circuit(n, GRAPH_SEED)`: irregular G3_circuit analog.
    Circuit(usize),
}

/// Seed of every generated circuit graph. It is a constant and not
/// `--seed`: across ten seeds a seeded graph moves `solve_iters` by 18 %
/// (first to third quartile), which no bound could gate.
pub const GRAPH_SEED: u64 = 20140527;

impl MatrixGen {
    pub fn build(self) -> Csr {
        match self {
            MatrixGen::Cantilever(d) => gen::cantilever(d, d, d),
            MatrixGen::ConvDiff(d) => gen::convection_diffusion(d, d, 2.0),
            MatrixGen::Circuit(n) => gen::circuit(n, GRAPH_SEED),
        }
    }

    pub fn describe(self) -> String {
        match self {
            MatrixGen::Cantilever(d) => format!("cantilever({d},{d},{d})"),
            MatrixGen::ConvDiff(d) => format!("convection_diffusion({d},{d},2.0)"),
            MatrixGen::Circuit(n) => format!("circuit({n})"),
        }
    }
}

/// One CA-GMRES solve, repeated.
#[derive(Debug, Clone, Copy)]
pub struct SolverSpec {
    pub matrix: MatrixGen,
    pub ordering: Ordering,
    pub ndev: usize,
    pub cfg: CaGmresConfig,
    /// Share of the right-hand side drawn from `--seed`; the rest is the
    /// fixed reference stream. Restarted GMRES is chaotic in `b`: a fully
    /// seeded rhs moves the iteration count by 3 % (`convdiff_orth`) to 9 %
    /// (`g3_exch`) between seeds, so those two take 1 % and the count stays
    /// within an iteration or two of the reference.
    pub seed_weight: f64,
    /// Timed repetitions at most (the time budget may stop earlier).
    pub max_reps: usize,
}

/// One open-loop arrival stream.
#[derive(Debug, Clone, Copy)]
pub struct Arm {
    pub name: &'static str,
    /// Offered load, jobs per simulated second.
    pub rate: f64,
}

/// The multi-tenant service replaying seeded arrival streams.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Matrix classes as `(name, generator argument)`, see [`ServeSpec::pool`].
    pub dims: [usize; 4],
    pub slices: [usize; 2],
    pub m: usize,
    pub rtol: f64,
    pub jobs: usize,
    /// `light` has no backlog (latency), `sat` offers about twice the
    /// pool's capacity (throughput).
    pub arms: [Arm; 2],
    /// Jobs of the cold whole-pool FIFO probe in the traced run.
    pub cold_jobs: usize,
    pub max_passes: usize,
}

impl ServeSpec {
    /// The unbalanced matrix pool: `ext_service`'s four down-scaled classes.
    pub fn pool(&self) -> Vec<(String, Csr)> {
        let [c, g, d, k] = self.dims;
        vec![
            ("cant".to_string(), gen::cantilever(c, c, c)),
            ("G3_circuit".to_string(), gen::circuit(g, GRAPH_SEED)),
            ("dielFilterV2real".to_string(), gen::diel_filter(d, d, d)),
            ("nlpkkt120".to_string(), gen::kkt(k, k, k)),
        ]
    }
}

/// What a workload runs.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    Solver(SolverSpec),
    Serve(ServeSpec),
}

/// A named workload with the reason it exists (the `why` of
/// `BENCHMARK.json`).
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
}

/// The four workloads; `quick` shrinks the inputs and fixes three reps.
pub fn workloads(quick: bool) -> [Workload; 4] {
    let size = |full: usize, small: usize| if quick { small } else { full };
    let reps = |full: usize| if quick { 3 } else { full };
    let solver = |s, m, rtol, kernel| CaGmresConfig { s, m, rtol, kernel, ..Default::default() };
    [
        Workload {
            name: "cant_mpk",
            why: "SpMV/MPK-bound: banded, tiny halos; the MPK is ~9/10 of a CA cycle",
            kind: Kind::Solver(SolverSpec {
                matrix: MatrixGen::Cantilever(size(24, 10)),
                ordering: Ordering::Natural,
                ndev: 3,
                cfg: solver(15, 60, 1e-10, KernelMode::Mpk),
                seed_weight: 1.0,
                max_reps: reps(20),
            }),
        },
        Workload {
            name: "convdiff_orth",
            why: "orthogonalization-bound: BOrth+TSQR are ~3/4 of a CA cycle, 16 steady cycles",
            kind: Kind::Solver(SolverSpec {
                matrix: MatrixGen::ConvDiff(size(300, 100)),
                ordering: Ordering::Kway,
                ndev: 3,
                cfg: solver(10, 60, 1e-8, KernelMode::Mpk),
                seed_weight: 0.01,
                max_reps: reps(8),
            }),
        },
        Workload {
            name: "g3_exch",
            why: "same layers, other regime: a halo exchange per basis vector (0.6 GB/solve), narrow m=30 panels, k-way setup",
            kind: Kind::Solver(SolverSpec {
                matrix: MatrixGen::Circuit(size(200_000, 20_000)),
                ordering: Ordering::Kway,
                ndev: 3,
                cfg: solver(15, 30, 1e-8, KernelMode::Spmv),
                seed_weight: 0.01,
                max_reps: reps(10),
            }),
        },
        Workload {
            name: "serve_mix",
            why: "latency-bound: n<=4000 jobs through planner, scheduler, FT driver and residency",
            kind: Kind::Serve(ServeSpec {
                dims: [8, 4000, 12, 10],
                slices: [2, 2],
                m: 50,
                rtol: 1e-6,
                jobs: size(300, 40),
                arms: [Arm { name: "light", rate: 60.0 }, Arm { name: "sat", rate: 240.0 }],
                cold_jobs: size(60, 12),
                max_passes: 3,
            }),
        },
    ]
}

/// The benchmark's own generator: a 64-bit LCG read from its top bits.
#[derive(Debug, Clone)]
pub struct Lcg(u64);

impl Lcg {
    pub fn new(seed: u64) -> Self {
        Lcg(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x853c_49e6_748f_ea9b)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n - 1)
    }
}

/// The fixed part of every right-hand side. Of the streams 1..=8 it is the
/// one that puts `g3_exch`'s iteration count (323) in the middle of an
/// s-step block, where a few iterations more or fewer — another seed, a
/// reordered sum — do not change the number of blocks and with it
/// `solve_sim_s` by 5 %.
const REFERENCE_STREAM: u64 = 2;

/// Spectrally flat right-hand side in `[-0.5, 0.5)`: `seed_weight` of it
/// from `seed`, the rest from [`REFERENCE_STREAM`].
pub fn rhs(n: usize, seed: u64, seed_weight: f64) -> Vec<f64> {
    let mut reference = Lcg::new(REFERENCE_STREAM);
    let mut seeded = Lcg::new(seed ^ 0x5eed_0000_0000_0001);
    (0..n)
        .map(|_| {
            (1.0 - seed_weight) * (reference.unit() - 0.5) + seed_weight * (seeded.unit() - 0.5)
        })
        .collect()
}

/// Seeded Poisson open-loop arrivals in simulated time, `rate` jobs per
/// simulated second. Tenant, right-hand side and deadline are drawn per
/// job; the matrix class is stratified — every block of `classes.len()`
/// jobs is a seeded shuffle of all classes — so each seed offers the same
/// amount of work and only its order and timing differ.
pub fn arrivals(
    classes: &[(String, usize)],
    seed: u64,
    jobs: usize,
    rate: f64,
    rtol: f64,
) -> Vec<JobRequest> {
    const TENANTS: [&str; 3] = ["acme", "globex", "initech"];
    // a quarter of the jobs carry a deadline 20..100 simulated ms out
    const DEADLINE_FRACTION: f64 = 0.25;
    const HEADROOM_S: (f64, f64) = (0.02, 0.1);
    let mut g = Lcg::new(seed);
    let mut t = 0.0f64;
    let mut order: Vec<usize> = (0..classes.len()).collect();
    (0..jobs)
        .map(|i| {
            t += -(1.0 - g.unit()).ln() / rate;
            let tenant = TENANTS[g.below(TENANTS.len())].to_string();
            let k = i % classes.len();
            if k == 0 {
                for hi in (1..order.len()).rev() {
                    order.swap(hi, g.below(hi + 1));
                }
            }
            let (matrix, n) = &classes[order[k]];
            let rhs = (0..*n).map(|_| 2.0 * g.unit() - 1.0).collect();
            let deadline = g.unit() < DEADLINE_FRACTION;
            let headroom = HEADROOM_S.0 + (HEADROOM_S.1 - HEADROOM_S.0) * g.unit();
            JobRequest {
                id: i as u64,
                tenant,
                matrix: matrix.clone(),
                rhs,
                rtol,
                arrival_s: t,
                deadline_s: deadline.then_some(t + headroom),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_obs::Jv;

    #[test]
    fn tables_agree_with_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Jv::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| doc.get(key).and_then(Jv::as_arr).unwrap().to_vec();
        let text = |e: &Jv, key: &str| e.get(key).and_then(Jv::as_str).unwrap().to_string();

        assert_eq!(doc.get("run_seconds").and_then(Jv::as_f64), Some(DEFAULT_SECONDS));
        assert_eq!(list("paths"), [Jv::Str("benchmark".into())]);
        let listed: Vec<(String, String)> =
            list("workloads").iter().map(|w| (text(w, "name"), text(w, "why"))).collect();
        let ours: Vec<(String, String)> =
            workloads(false).iter().map(|w| (w.name.into(), w.why.into())).collect();
        assert_eq!(listed, ours);
        assert_eq!(workloads(true).map(|w| w.name), workloads(false).map(|w| w.name));

        let listed: Vec<_> = list("end_to_end")
            .iter()
            .map(|e| {
                (
                    text(e, "name"),
                    text(e, "unit"),
                    text(e, "better"),
                    e.get("bound").and_then(Jv::as_f64).unwrap(),
                )
            })
            .collect();
        let ours: Vec<_> = END_TO_END
            .iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.as_str().into(), d.bound))
            .collect();
        assert_eq!(listed, ours);
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s" && d.bound >= 0.25));

        let listed: Vec<_> = list("per_layer")
            .iter()
            .map(|e| (text(e, "name"), text(e, "unit"), text(e, "better")))
            .collect();
        let ours: Vec<(String, String, String)> =
            PER_LAYER.iter().map(|&(n, u, b)| (n.into(), u.into(), b.as_str().into())).collect();
        assert_eq!(listed, ours);
    }

    #[test]
    fn generators_are_functions_of_the_seed() {
        assert_eq!(rhs(100, 7, 1.0), rhs(100, 7, 1.0));
        assert_ne!(rhs(100, 7, 1.0), rhs(100, 8, 1.0));
        // a 1 % seed share stays within 1 % of the reference stream
        let (reference, near) = (rhs(100, 1, 0.0), rhs(100, 8, 0.01));
        assert_ne!(reference, near);
        assert!(reference.iter().zip(&near).all(|(r, n)| (r - n).abs() <= 0.01));
        assert!(rhs(1000, 3, 1.0).iter().all(|v| (-0.5..0.5).contains(v)));

        let classes: Vec<(String, usize)> =
            ["a", "b", "c", "d"].iter().map(|c| (c.to_string(), 5)).collect();
        let jobs = arrivals(&classes, 9, 40, 60.0, 1e-6);
        assert_eq!(jobs.len(), 40);
        assert!(jobs
            .windows(2)
            .all(|w| w[0].arrival_s <= w[1].arrival_s && w[0].id + 1 == w[1].id));
        // stratified: every block of four holds each class once
        for block in jobs.chunks(4) {
            let mut seen: Vec<&str> = block.iter().map(|j| j.matrix.as_str()).collect();
            seen.sort_unstable();
            assert_eq!(seen, ["a", "b", "c", "d"]);
        }
        assert!(jobs
            .iter()
            .all(|j| j.rhs.len() == 5 && j.deadline_s.is_none_or(|d| d > j.arrival_s)));
        let again = arrivals(&classes, 9, 40, 60.0, 1e-6);
        assert!(jobs
            .iter()
            .zip(&again)
            .all(|(x, y)| x.rhs == y.rhs && x.arrival_s == y.arrival_s && x.tenant == y.tenant));
        let other = arrivals(&classes, 10, 40, 60.0, 1e-6);
        assert!(jobs.iter().zip(&other).any(|(x, y)| x.arrival_s != y.arrival_s));
    }
}
