//! Extension study: fail-slow stragglers — static even partition vs
//! health-driven throughput rebalancing.
//!
//! One of three GPUs runs at a sustained compute slowdown (the fail-slow
//! fault of [`ca_gpusim::Slowdown`]: clock-only, arithmetic untouched).
//! Every suite matrix is solved three ways with a fixed work budget
//! (`rtol = 0`, 12 restart cycles, so all runs execute the identical
//! iteration path and the comparison is pure time-to-solution):
//!
//! * **ideal** — no fault: the even partition is optimal;
//! * **static** — straggler present, even partition kept: every cycle
//!   waits for the slow device;
//! * **rebalanced** — [`FtConfig::rebalance`] armed: after the first
//!   cycle the per-device EWMA slowdown trips the imbalance threshold
//!   and rows are repartitioned proportionally to each device's measured
//!   throughput (migration traffic charged over the PCIe links).
//!
//! Asserted invariants: the static run's iterates are bit-identical to
//! the ideal run's (performance faults never touch arithmetic); under a
//! zero-rate plan the rebalanced driver replays the static run bit for
//! bit (health imbalance is exactly 1.0, the rebalancer is inert); and at
//! a 4x slowdown rebalancing recovers at least half of the
//! time-to-solution lost to the straggler on every matrix.
//!
//! Flags: `--large` near-paper sizes; `--matrix <name>` one suite entry;
//! `--smoke` first matrix only, canonical DIGEST lines, no files written
//! (CI pins the output to `bench_results/smoke/ext_straggler.txt`).
//! A side artifact `bench_results/ext_straggler_trace.json` renders one
//! straggled run as a Perfetto/`chrome://tracing` timeline.

use ca_bench::{balanced_problem, table, Scale, Study, TestMatrix};
use ca_gmres::prelude::*;
use ca_gpusim::{obs_ingest_traces, FaultPlan, MultiGpu};

const NDEV: usize = 3;
const SLOW_DEV: usize = 1;

ca_bench::row!(Row {
    matrix: String ["matrix"],
    factor: f64 ["slow" "{:.0}x"],
    t_ideal_ms: f64 ["ideal ms" "{:.3}"],
    t_static_ms: f64 ["static ms" "{:.3}"],
    t_rebal_ms: f64 ["rebal ms" "{:.3}"],
    rebalances: usize ["rebal#"],
    static_imbalance: f64 ["imb(stat)" "{:.2}"],
    rebal_imbalance: f64 ["imb(reb)" "{:.2}"],
    recovered_frac: f64 ["recovered" |r| format!("{:.0}%", r.recovered_frac * 100.0)],
});

struct Out {
    t: f64,
    x_bits: Vec<u64>,
    iters: usize,
    msgs: u64,
    bytes: u64,
    rebalances: usize,
    imbalance: f64,
}

fn ft_cfg(m: usize, rebalance: bool) -> FtConfig {
    FtConfig {
        // SpMV kernel: per-device work scales with owned rows, so row
        // rebalancing can actually shed the straggler's load. (MPK's
        // redundant ghost computation is a fixed bandwidth-proportional
        // cost per device — at small scale it is immune to row counts,
        // which caps what any rebalancer could recover.)
        solver: CaGmresConfig {
            s: 6,
            m,
            kernel: KernelMode::Spmv,
            rtol: 0.0,
            max_restarts: 12,
            ..Default::default()
        },
        // pure timing study: detection layers off so the three runs share
        // one arithmetic path
        verify: false,
        rebalance,
        ..Default::default()
    }
}

fn solve(a: &ca_sparse::Csr, b: &[f64], m: usize, plan: Option<FaultPlan>, rebalance: bool) -> Out {
    let mut mg = MultiGpu::with_defaults(NDEV);
    if let Some(p) = plan {
        mg.set_fault_plan(p);
    }
    let out = ca_gmres_ft(mg, a, b, &ft_cfg(m, rebalance));
    assert!(out.stats.breakdown.is_none(), "{:?}", out.stats.breakdown);
    Out {
        t: out.stats.t_total,
        x_bits: out.x.iter().map(|v| v.to_bits()).collect(),
        iters: out.stats.total_iters,
        msgs: out.stats.comm_msgs,
        bytes: out.stats.comm_bytes,
        rebalances: out.report.rebalances,
        imbalance: out.stats.device_imbalance,
    }
}

fn digest(study: &Study, label: &str, o: &Out) {
    study.digest(format_args!(
        "{label} iters={} msgs={} bytes={} rebalances={} xhash={:016x} t_bits={:016x}",
        o.iters,
        o.msgs,
        o.bytes,
        o.rebalances,
        ca_obs::fnv1a_words(o.x_bits.iter().copied()),
        o.t.to_bits()
    ));
}

fn compare(study: &Study, t: &TestMatrix, rows: &mut Vec<Row>) {
    let (a, b) = balanced_problem(&t.a);
    let ideal = solve(&a, &b, t.m, None, false);
    // zero-rate plan + rebalancer armed: must replay the ideal run
    // bit for bit — the health imbalance of a healthy machine is 1.0
    let inert = solve(&a, &b, t.m, Some(FaultPlan::new(1)), true);
    assert_eq!(inert.rebalances, 0, "{}: rebalanced a healthy machine", t.name);
    assert_eq!(ideal.x_bits, inert.x_bits, "{}: zero-fault rebalancing not inert", t.name);
    assert_eq!(ideal.t.to_bits(), inert.t.to_bits(), "{}: clock drift", t.name);
    digest(study, &format!("{} ideal", t.name), &ideal);
    for factor in [2.0f64, 4.0] {
        let plan = FaultPlan::new(1).with_slowdown(SLOW_DEV, factor, 0);
        let stat = solve(&a, &b, t.m, Some(plan.clone()), false);
        let rebal = solve(&a, &b, t.m, Some(plan), true);
        // fail-slow is clock-only: the static run's arithmetic is the
        // ideal run's, just late
        assert_eq!(stat.x_bits, ideal.x_bits, "{}: slowdown touched arithmetic", t.name);
        assert_eq!(stat.iters, ideal.iters, "{}: iteration path drifted", t.name);
        assert!(rebal.rebalances > 0, "{}: {factor}x straggler not rebalanced", t.name);
        let recovered = (stat.t - rebal.t) / (stat.t - ideal.t);
        if factor >= 4.0 {
            assert!(
                recovered >= 0.5,
                "{}: rebalancing recovered only {:.0}% of the {factor}x straggler loss",
                t.name,
                recovered * 100.0
            );
        }
        digest(study, &format!("{} static@{factor}", t.name), &stat);
        digest(study, &format!("{} rebal@{factor}", t.name), &rebal);
        rows.push(Row {
            matrix: t.name.to_string(),
            factor,
            t_ideal_ms: ideal.t * 1e3,
            t_static_ms: stat.t * 1e3,
            t_rebal_ms: rebal.t * 1e3,
            rebalances: rebal.rebalances,
            static_imbalance: stat.imbalance,
            rebal_imbalance: rebal.imbalance,
            recovered_frac: recovered,
        });
    }
}

/// Render one short straggled CA-GMRES run (4x slowdown on one device) as
/// a Chrome/Perfetto trace: the slow queue's stretched kernel slices are
/// the fail-slow fault made visible.
fn emit_trace(study: &Study, t: &TestMatrix) {
    let (a, b) = balanced_problem(&t.a);
    let n = a.nrows();
    let mut mg = MultiGpu::with_defaults(NDEV);
    mg.set_fault_plan(FaultPlan::new(1).with_slowdown(SLOW_DEV, 4.0, 0));
    mg.enable_trace();
    let cfg = CaGmresConfig {
        s: 6,
        m: 30,
        kernel: KernelMode::Mpk,
        rtol: 0.0,
        max_restarts: 1,
        ..Default::default()
    };
    let sys = System::new(&mut mg, &a, Layout::even(n, NDEV), cfg.m, Some(cfg.s)).unwrap();
    sys.load_rhs(&mut mg, &b).unwrap();
    let _ = ca_gmres(&mut mg, &sys, &cfg);
    ca_obs::start();
    obs_ingest_traces(&mg.take_traces());
    study.write("ext_straggler_trace.json", &ca_obs::export::chrome_trace(&ca_obs::finish()));
}

fn main() {
    let study = Study::new("ext_straggler", &["--large", "--smoke", "--matrix <name>"]);
    let mut rows: Vec<Row> = Vec::new();
    for mut t in study.suite() {
        if t.name == "nlpkkt120" && study.scale == Scale::Small {
            // At the default tiny scale the KKT analog's per-row work is
            // swamped by fixed per-kernel launch overhead (m = 120 steps
            // per cycle), a per-cycle device cost no row rebalancing can
            // shed. Size it so compute is row-dominated, matching the
            // paper-scale regime the study models.
            t.a = ca_sparse::gen::kkt(24, 24, 24);
        }
        compare(&study, &t, &mut rows);
    }

    println!(
        "Extension — fail-slow straggler: CA-GMRES(6, m) on {NDEV} GPUs, device {SLOW_DEV} slowed"
    );
    println!("(fixed 12-cycle work budget; static iterates asserted bit-identical to ideal)\n");
    println!("{}", table(&rows));

    if !study.smoke {
        study.write_json(&rows);
        emit_trace(&study, &ca_bench::g3_circuit(study.scale));
    }
}
