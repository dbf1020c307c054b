//! The traced run: one repetition of the gated path under spans, then the
//! per-layer probes — a restart cycle replayed by shape through the public
//! `mpk`/`borth`/`tsqr`, fixed-cycle solves, and every kernel, executor
//! and planner call timed on its own.
//!
//! Everything below the gated surface (`mpk`, `borth`, `tsqr`, `Device::*`,
//! `blas3::*`, `Planner`, `ca_obs`) is called from here only, so a refactor
//! of those layers can break a probe but not `run`.
//!
//! Shapes are the workload's own: `nl` rows per device, narrow panels of
//! `k = s + 1` columns, wide panels of `c0 = m - s`. Rates use *computed*
//! bytes and flops (array sizes, not hardware counters) and the best of
//! the repetitions that fit the probe's slice of the time budget.

use crate::gate::{self, Solved, SolverInputs};
use crate::record::{Metric, Record};
use crate::report::llc_bytes;
use crate::span::{self, Tracer};
use crate::spec::{self, Kind, MatrixGen, ServeSpec, SolverSpec, Workload, PER_LAYER};
use ca_dense::hessenberg::GivensLsq;
use ca_dense::{blas1, blas2, blas3, chol, qr, Mat};
use ca_gmres::ft::{ca_gmres_ft, FtConfig};
use ca_gmres::mpk::{dist_spmv, mpk, MpkPlan};
use ca_gmres::orth::{borth, tsqr};
use ca_gmres::prelude::*;
use ca_gpusim::{KernelConfig, MatId, MultiGpu, PerfModel};
use ca_obs::Jv;
use ca_serve::ServeConfig;
use ca_sparse::{spmv, Csr, Ell, Hyb};
use ca_tune::{CandidateSpace, Planner};
use std::hint::black_box;
use std::time::Instant;

/// Collects the per-layer metrics and records a leaf span per probe.
struct Probe {
    tr: Tracer,
    out: Vec<Metric>,
    /// The run's time budget, host seconds.
    seconds: f64,
}

impl Probe {
    /// Host seconds one timed probe may repeat for.
    fn slice_s(&self) -> f64 {
        self.seconds / 100.0
    }

    /// Report `value` under `name`; a later report replaces an earlier one.
    fn put(&mut self, name: &str, value: f64) {
        let unit = PER_LAYER
            .iter()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("'{name}' is not in the per-layer table"))
            .1;
        self.out.retain(|m| m.name != name);
        self.out.push(Metric::layer(name, unit, value));
    }

    /// Repeat `f`, which returns the seconds it measured, for the probe's
    /// time slice (three times at least) inside one leaf span called
    /// `name`; the fastest repetition counts.
    fn best(&mut self, name: &str, mut f: impl FnMut() -> f64) -> f64 {
        const LAYERS: [&str; 8] =
            ["ref", "dense", "sparse", "gpusim", "core", "tune", "serve", "obs"];
        let layer =
            LAYERS.into_iter().find(|l| name.starts_with(l)).expect("probes are named layer.what");
        let open = self.tr.begin(name, layer, None);
        let t = Instant::now();
        let (mut best, mut n) = (f64::INFINITY, 0);
        while n < 3 || (t.elapsed().as_secs_f64() < self.slice_s() && n < 10_000) {
            best = best.min(f());
            n += 1;
        }
        self.tr.end(open, None);
        best
    }

    /// [`Probe::best`] of a closure that is timed as a whole.
    fn best_whole(&mut self, name: &str, mut f: impl FnMut()) -> f64 {
        self.best(name, || {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
    }

    /// Spans recorded so far (all are closed between calls into the gate).
    fn span_count(&self) -> usize {
        self.tr.spans().len()
    }

    /// Host seconds of the first span called `name` at or after `from`.
    fn wall_since(&self, from: usize, name: &str) -> f64 {
        self.tr.spans()[from..].iter().find(|s| s.name == name).map_or(0.0, span::Span::wall_s)
    }
}

/// Trace one workload: its record holds every per-layer metric, in table
/// order, and the spans are written to `out_dir/trace-<workload>.json`.
pub fn trace_workload(w: &Workload, seed: u64, seconds: f64, out_dir: &std::path::Path) -> Record {
    let mut rec = Record::new(w.name, seed, seconds);
    let mut probe = Probe { tr: Tracer::on(), out: Vec::new(), seconds };
    match &w.kind {
        Kind::Solver(spec) => {
            let inp = SolverInputs::generate(spec, seed);
            solver_layers(spec, &inp, w.name, &mut probe, &mut rec);
        }
        Kind::Serve(spec) => serve_layers(spec, seed, w.name, &mut probe, &mut rec),
    }

    probe.put("trace.spans", probe.span_count() as f64);
    let spans = probe.tr.spans();
    rec.check(span::check_well_nested(spans).err().map(|e| format!("span tree: {e}")));
    let path = out_dir.join(format!("trace-{}.json", w.name));
    let mut text = span::chrome_trace(spans).render_pretty();
    text.push('\n');
    let written = std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&path, text));
    rec.check(written.err().map(|e| format!("cannot write {}: {e}", path.display())));
    rec.notes.push(("trace_file".into(), Jv::Str(path.display().to_string())));
    print_self_times(w.name, spans);

    // every per-layer metric, in table order; unexercised layers read 0
    rec.metrics = PER_LAYER
        .iter()
        .map(|(name, unit, _)| {
            let found = probe.out.iter().find(|m| m.name == *name).cloned();
            found.unwrap_or_else(|| Metric::layer(name, unit, 0.0))
        })
        .collect();
    rec
}

fn print_self_times(workload: &str, spans: &[span::Span]) {
    eprintln!("[{workload}] self time by span (host seconds; sim = simulated seconds)");
    eprintln!("  {:<34} {:>6} {:>11} {:>11} {:>11}", "span", "calls", "wall", "self", "sim");
    for r in span::self_time_table(spans) {
        eprintln!(
            "  {:<34} {:>6} {:>11.6} {:>11.6} {:>11.6}",
            r.name, r.calls, r.wall_s, r.self_s, r.sim_s
        );
    }
}

/// The solver path, traced and probed. Also used on `serve_mix` for the
/// pool's largest class, so that the service's small cache-resident shapes
/// get the same layer rows as the big solves.
fn solver_layers(
    spec: &SolverSpec,
    inp: &SolverInputs,
    req: &str,
    probe: &mut Probe,
    rec: &mut Record,
) {
    // warm-up, then untraced and traced repetitions in turn: as many pairs
    // (three at most) as fit a quarter of the budget
    let (warm, _) = gate::solve_once(spec, inp, &mut Tracer::off());
    rec.check(warm.failure(spec, None));
    let pairs =
        ((0.25 * probe.seconds / (2.0 * (warm.setup_s + warm.solve_wall_s))) as usize).clamp(1, 3);
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut last = None;
    let first_span = probe.span_count();
    for pair in 0..pairs {
        // free the previous pair's system before the next is built
        drop(last.take());
        let (plain, _) = gate::solve_once(spec, inp, &mut Tracer::off());
        rec.check(plain.failure(spec, Some(&warm)));
        plain_walls.push(plain.solve_wall_s);
        probe.tr.set_request(format!("{req}/traced{pair}"));
        let (traced, solved) = gate::solve_once(spec, inp, &mut probe.tr);
        rec.check(traced.failure(spec, Some(&warm)));
        traced_walls.push(traced.solve_wall_s);
        last = Some((traced, solved));
    }
    let (traced, solved) = last.expect("one pair at least");
    let plain_wall_s = fastest(&plain_walls);
    for (metric, span) in [
        ("sparse.balance_s", "sparse.balance"),
        ("sparse.partition_s", "sparse.partition"),
        ("core.system_new_s", "core.system_new"),
        ("core.load_rhs_s", "core.load_rhs"),
    ] {
        probe.put(metric, probe.wall_since(first_span, span));
    }
    probe.put("trace.tax", fastest(&traced_walls) / plain_wall_s - 1.0);

    let st = &traced.stats;
    let cmds: u64 = (0..spec.ndev).map(|d| solved.mg.device(d).ops()).sum();
    probe.put("gpusim.cmds", cmds as f64);
    probe.put("gpusim.msgs", st.comm_msgs as f64);
    probe.put("gpusim.bytes", st.comm_bytes as f64);
    probe.put("gpusim.sim_imbalance", st.device_imbalance);
    probe.put("gpusim.host_per_sim", plain_wall_s / st.t_total);
    probe.put("core.sim_spmv_frac", st.t_spmv / st.t_total);
    probe.put("core.sim_orth_frac", (st.t_orth - st.t_tsqr) / st.t_total);
    probe.put("core.sim_tsqr_frac", st.t_tsqr / st.t_total);
    probe.put("core.sim_small_frac", st.t_small / st.t_total);
    probe.put("core.restarts", st.restarts as f64);

    probe.tr.set_request(format!("{req}/probes"));
    let p = Problem { spec, solved: &solved };
    p.print_shapes(req);
    let replay = p.replay_cycle(probe);
    p.fixed_cycles(probe, replay);
    p.reference(probe);
    p.dense(probe);
    p.sparse(probe);
    p.gpusim(probe);
    p.tune(probe);
    if spec.ordering == Ordering::Natural {
        // `ca_gmres_ft` lays rows out evenly itself, as `Natural` does
        let build_s = probe.wall_since(first_span, "core.system_new")
            + probe.wall_since(first_span, "core.load_rhs");
        p.ft_tax(probe, pairs, build_s + plain_wall_s);
    }
}

/// A solved system and its spec: the shapes the probes run at.
struct Problem<'a> {
    spec: &'a SolverSpec,
    solved: &'a Solved,
}

/// Deterministic filler in `[-0.5, 0.5)` for probe operands.
fn noise(len: usize, salt: u64) -> Vec<f64> {
    let mut g = spec::Lcg::new(0x0b5e_55ed ^ salt);
    (0..len).map(|_| g.unit() - 0.5).collect()
}

fn fastest(seconds: &[f64]) -> f64 {
    seconds.iter().copied().fold(f64::INFINITY, f64::min)
}

fn gbs(bytes: f64, seconds: f64) -> f64 {
    bytes / seconds / 1e9
}

/// `I` plus a small strictly upper part: a well-conditioned `k x k`
/// triangle for the triangular solves.
fn unit_upper(k: usize) -> Mat {
    Mat::from_fn(k, k, |i, j| match i.cmp(&j) {
        std::cmp::Ordering::Less => 0.01,
        std::cmp::Ordering::Equal => 1.0,
        std::cmp::Ordering::Greater => 0.0,
    })
}

impl Problem<'_> {
    fn a(&self) -> &Csr {
        &self.solved.a
    }

    fn cfg(&self) -> &CaGmresConfig {
        &self.spec.cfg
    }

    /// Rows of device 0, narrow width `s + 1`, wide width `m - s`.
    fn shape(&self) -> (usize, usize, usize) {
        let cfg = self.cfg();
        (self.solved.sys.layout.nlocal(0), cfg.s + 1, cfg.m - cfg.s)
    }

    fn print_shapes(&self, req: &str) {
        let (nl, k, c0) = self.shape();
        let mib = |bytes: usize| bytes as f64 / (1u64 << 20) as f64;
        let a = self.a();
        eprintln!(
            "[{req}] probe shapes: {nl} rows/device, narrow k={k}, wide c0={c0}; narrow panel {:.1} MiB, \
             basis {:.1} MiB/device, CSR {:.1} MiB; last-level cache {:.0} MiB — nothing here is 4x the \
             cache, so bandwidth rows are cache-assisted and only comparable with ref.triad_gbs of the same run",
            mib(8 * nl * k),
            mib(8 * nl * (self.cfg().m + 1)),
            mib(12 * a.nnz() + 8 * a.nrows()),
            mib(llc_bytes().unwrap_or(0) as usize),
        );
    }

    /// A loaded system on fresh devices.
    fn system(&self) -> (MultiGpu, System) {
        let cfg = self.cfg();
        let mut mg = MultiGpu::with_defaults(self.spec.ndev);
        let with_mpk = (cfg.kernel != KernelMode::Spmv).then_some(cfg.s);
        let sys = System::new(&mut mg, self.a(), self.solved.sys.layout.clone(), cfg.m, with_mpk)
            .expect("the system fits the devices");
        sys.load_rhs(&mut mg, &self.solved.b).expect("no faults are installed");
        (mg, sys)
    }

    /// One full restart cycle by shape: `ceil(m/s)` blocks of basis
    /// generation, BOrth and TSQR on the workload's own system, both clocks.
    /// The block's columns are refilled with noise before it is
    /// orthogonalized (untimed), so CholQR sees a well-conditioned panel.
    /// The cycle is replayed for the probe's time slice (twice at least, the
    /// first pass warms the buffers) and the fastest pass counts, as for the
    /// fixed-cycle solves it is compared with. Returns the host seconds of
    /// the three phases together.
    fn replay_cycle(&self, probe: &mut Probe) -> f64 {
        let (mut mg, sys) = self.system();
        let t = Instant::now();
        let mut best: Option<[(f64, f64); 3]> = None;
        let total = |p: &[(f64, f64); 3]| p.iter().map(|(wall, _)| wall).sum::<f64>();
        let mut passes = 0;
        while passes < 2 || (t.elapsed().as_secs_f64() < 4.0 * probe.slice_s() && passes < 8) {
            let pass = self.replay_pass(&mut probe.tr, &mut mg, &sys);
            if best.as_ref().is_none_or(|b| total(&pass) < total(b)) {
                best = Some(pass);
            }
            passes += 1;
        }
        let best = best.expect("two passes at least");
        for (phase, (wall, sim)) in ["gen", "borth", "tsqr"].iter().zip(best) {
            probe.put(&format!("core.cycle_{phase}_wall_s"), wall);
            probe.put(&format!("core.cycle_{phase}_sim_s"), sim);
        }
        total(&best)
    }

    /// One pass of [`Problem::replay_cycle`]: `(host s, simulated s)` of
    /// generation, BOrth and TSQR, summed over the blocks.
    fn replay_pass(&self, tr: &mut Tracer, mg: &mut MultiGpu, sys: &System) -> [(f64, f64); 3] {
        let cfg = *self.cfg();
        let fill = |mg: &mut MultiGpu, cols: std::ops::Range<usize>| {
            for d in 0..sys.layout.ndev() {
                let m = mg.device_mut(d).mat_mut(sys.v[d]);
                for j in cols.clone() {
                    let col = noise(m.nrows(), (d * 1000 + j) as u64);
                    let scale = 1.0 / blas1::nrm2(&col);
                    m.col_mut(j).iter_mut().zip(&col).for_each(|(v, c)| *v = c * scale);
                }
            }
        };
        // one phase of one block under a span, on both clocks
        let mut phases = [(0.0, 0.0); 3];
        let mut timed =
            |tr: &mut Tracer, mg: &mut MultiGpu, phase: usize, f: &mut dyn FnMut(&mut MultiGpu)| {
                const SPANS: [&str; 3] = ["core.gen_block", "core.borth", "core.tsqr"];
                mg.sync();
                let (t, sim) = (Instant::now(), mg.time());
                let sp = tr.begin(SPANS[phase], "core", Some(sim));
                f(mg);
                mg.sync();
                tr.end(sp, Some(mg.time()));
                phases[phase].0 += t.elapsed().as_secs_f64();
                phases[phase].1 += mg.time() - sim;
            };
        // real shifts inside the balanced spectrum: the Newton steps of a CA cycle
        let basis = BasisSpec::newton(&vec![(0.5, 0.0); cfg.s], cfg.s);
        fill(mg, 0..1);
        let cycle = tr.begin("replay.cycle", "core", Some(mg.time()));
        let (mut ncols, mut block) = (1usize, 0usize);
        while ncols - 1 < cfg.m {
            let s_blk = cfg.s.min(cfg.m + 1 - ncols);
            let start = ncols - 1;
            let sp_block = tr.begin(&format!("block[{block}]"), "core", Some(mg.time()));
            timed(tr, mg, 0, &mut |mg| {
                if cfg.kernel == KernelMode::Spmv {
                    for j in start..start + s_blk {
                        dist_spmv(mg, &sys.spmv, &sys.v, j, j + 1)
                            .expect("no faults are installed");
                    }
                } else {
                    let st = sys.mpk.as_ref().expect("MPK workloads load an MPK plan");
                    mpk(mg, st, &sys.v, start, &basis.truncate(s_blk))
                        .expect("no faults are installed");
                }
            });
            let (c0, c1) = if block == 0 { (0, s_blk + 1) } else { (ncols, ncols + s_blk) };
            fill(mg, c0.max(1)..c1);
            timed(tr, mg, 1, &mut |mg| {
                borth(mg, &sys.v, c0, c1, cfg.orth.borth).expect("BOrth on a noise panel");
            });
            timed(tr, mg, 2, &mut |mg| {
                tsqr(mg, &sys.v, c0, c1, cfg.orth.tsqr, cfg.orth.svqr_scaled)
                    .expect("TSQR on a noise panel");
            });
            tr.end(sp_block, Some(mg.time()));
            ncols += s_blk;
            block += 1;
        }
        tr.end(cycle, Some(mg.time()));
        phases
    }

    /// Fixed-cycle solves (rtol 0, as Fig. 14's timing runs): the standard
    /// first cycle, a steady CA cycle on both clocks, the same under a
    /// `ca_obs` session, and standard GMRES at the same `m`.
    fn fixed_cycles(&self, probe: &mut Probe, replay_wall_s: f64) {
        let (mut mg, sys) = self.system();
        let mut ca = |probe: &mut Probe, name: &str, restarts: usize| {
            let cfg = CaGmresConfig { rtol: 0.0, max_restarts: restarts, ..*self.cfg() };
            let mut out = None;
            let wall = probe.best(name, || {
                sys.load_rhs(&mut mg, &self.solved.b).expect("no faults are installed");
                let t = Instant::now();
                out = Some(ca_gmres(&mut mg, &sys, &cfg));
                t.elapsed().as_secs_f64()
            });
            (wall, out.expect("ran at least once"))
        };
        let (first_wall, _) = ca(probe, "core.first_cycle", 1);
        let (three_wall, three) = ca(probe, "core.three_cycles", 3);
        ca_obs::start();
        let (obs_wall, _) = ca(probe, "obs.three_cycles", 3);
        let recording = ca_obs::finish();

        let ca_cycles = three.ca_stats.restarts.max(1) as f64;
        let ca_wall = (three_wall - first_wall) / ca_cycles;
        let ca_sim = three.ca_stats.t_total / ca_cycles;
        probe.put("core.first_cycle_wall_s", first_wall);
        probe.put("core.ca_cycle_wall_s", ca_wall);
        probe.put("core.ca_cycle_sim_s", ca_sim);
        probe.put("core.cycle_other_frac", 1.0 - replay_wall_s / ca_wall);
        probe.put("obs.session_tax", obs_wall / three_wall - 1.0);
        probe.put("obs.spans", recording.spans.len() as f64);

        let cfg = GmresConfig {
            m: self.cfg().m,
            orth: self.cfg().orth.borth,
            rtol: 0.0,
            max_restarts: 2,
        };
        let mut out = None;
        let wall = probe.best("core.gmres_two_cycles", || {
            sys.load_rhs(&mut mg, &self.solved.b).expect("no faults are installed");
            let t = Instant::now();
            out = Some(gmres(&mut mg, &sys, &cfg));
            t.elapsed().as_secs_f64()
        });
        let std_sim = out.expect("ran at least once").stats.t_total / 2.0;
        probe.put("core.ca_over_gmres_wall", ca_wall / (wall / 2.0));
        probe.put("core.ca_over_gmres_sim", ca_sim / std_sim);
    }

    /// The roofline denominator and the plain CPU baseline.
    fn reference(&self, probe: &mut Probe) {
        let (nl, k, _) = self.shape();
        let len = nl * k;
        let (b, c) = (noise(len, 1), noise(len, 2));
        let mut a = vec![0.0; len];
        let t = probe.best_whole("ref.triad", || {
            for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
                *ai = bi + 3.0 * ci;
            }
            black_box(&mut a);
        });
        probe.put("ref.triad_gbs", gbs(24.0 * len as f64, t));

        let cfg = self.cfg();
        let model = PerfModel::default();
        let t = probe.best_whole("ref.gmres_cpu_cycle", || {
            black_box(gmres_cpu(self.a(), &self.solved.b, cfg.m, cfg.orth.borth, 0.0, 1, &model));
        });
        probe.put("ref.gmres_cpu_cycle_wall_s", t);
    }

    /// `ca-dense` on host panels of the workload's shape.
    fn dense(&self, probe: &mut Probe) {
        let (nl, k, c0) = self.shape();
        let m = self.cfg().m;
        let f = |x: usize| x as f64;
        let narrow = Mat::from_col_major(nl, k, noise(nl * k, 3)).expect("sized to fit");
        let wide = Mat::from_col_major(nl, c0, noise(nl * c0, 4)).expect("sized to fit");

        let t = probe.best_whole("dense.dot", || {
            black_box(blas1::dot(narrow.col(0), narrow.col(1)));
        });
        probe.put("dense.dot_gbs", gbs(16.0 * f(nl), t));

        let mut y = noise(nl, 5);
        let t =
            probe.best_whole("dense.axpy", || blas1::axpy(1e-3, narrow.col(0), black_box(&mut y)));
        probe.put("dense.axpy_gbs", gbs(24.0 * f(nl), t));

        let mut coeffs = vec![0.0; k];
        let t = probe.best_whole("dense.gemv_t", || {
            blas2::gemv_t(1.0, &narrow, wide.col(0), 0.0, black_box(&mut coeffs));
        });
        probe.put("dense.gemv_t_gbs", gbs(8.0 * f(nl) * f(k + 1), t));

        let mut gram = Mat::zeros(k, k);
        let t = probe.best_whole("dense.syrk_tn", || {
            blas3::syrk_tn(1.0, &narrow, 0.0, black_box(&mut gram))
        });
        probe.put("dense.syrk_tn_gfs", f(nl) * f(k) * f(k + 1) / t / 1e9);
        let triad = probe.out.iter().find(|m| m.name == "ref.triad_gbs").map_or(0.0, |m| m.value);
        // a blocked kernel reads the panel once; this is how close it is to that
        probe.put("dense.syrk_tn_roof_frac", gbs(8.0 * f(nl) * f(k), t) / triad);

        let mut c = Mat::zeros(k, k);
        let t = probe.best_whole("dense.gemm_tn", || {
            blas3::gemm_tn(1.0, &narrow, &narrow, 0.0, black_box(&mut c))
        });
        probe.put("dense.gemm_tn_gfs", 2.0 * f(nl) * f(k) * f(k) / t / 1e9);

        let mut c = Mat::zeros(c0, k);
        let t = probe.best_whole("dense.gemm_tn_wide", || {
            blas3::gemm_tn(1.0, &wide, &narrow, 0.0, black_box(&mut c))
        });
        probe.put("dense.gemm_tn_wide_gfs", 2.0 * f(nl) * f(c0) * f(k) / t / 1e9);

        let small = Mat::from_col_major(c0, k, noise(c0 * k, 6)).expect("sized to fit");
        let mut update = Mat::zeros(nl, k);
        let t = probe.best_whole("dense.gemm_nn", || {
            blas3::gemm_nn(1.0, &wide, &small, 0.0, black_box(&mut update))
        });
        probe.put("dense.gemm_nn_gfs", 2.0 * f(nl) * f(c0) * f(k) / t / 1e9);

        let r = unit_upper(k);
        let mut panel = narrow.clone();
        let t = probe.best("dense.trsm", || {
            panel.as_mut_slice().copy_from_slice(narrow.as_slice());
            let t = Instant::now();
            blas3::trsm_right_upper(&mut panel, &r).expect("R is not singular");
            t.elapsed().as_secs_f64()
        });
        probe.put("dense.trsm_gfs", f(nl) * f(k) * f(k) / t / 1e9);

        // the host-side small factorizations of one block: Cholesky of the
        // Gram matrix, CAQR's stacked-R QR, and the Givens least squares
        let spd = Mat::from_fn(k, k, |i, j| if i == j { 2.0 } else { 0.01 });
        let stacked = Mat::from_col_major(3 * k, k, noise(3 * k * k, 7)).expect("sized to fit");
        let hcols: Vec<Vec<f64>> = (0..m).map(|j| noise(j + 2, 8 + j as u64)).collect();
        let t = probe.best_whole("dense.small_factor", || {
            black_box(chol::cholesky_upper(&spd).expect("positive definite"));
            black_box(qr::householder_qr(&stacked));
            let mut lsq = GivensLsq::new(1.0);
            hcols.iter().for_each(|h| lsq.push_column(h));
            black_box(lsq.solve());
        });
        probe.put("dense.small_factor_us", t * 1e6);
    }

    /// `ca-sparse` SpMV in each storage format on the whole matrix.
    fn sparse(&self, probe: &mut Probe) {
        let a = self.a();
        let (n, nnz) = (a.nrows() as f64, a.nnz() as f64);
        let x = noise(a.ncols(), 9);
        let mut y = vec![0.0; a.nrows()];
        // computed traffic: values + column indices, x read and y written once
        let vectors = 16.0 * n;

        let t = probe.best_whole("sparse.spmv_csr", || spmv::spmv(a, &x, black_box(&mut y)));
        probe.put("sparse.spmv_csr_gbs", gbs(12.0 * nnz + 8.0 * n + vectors, t));

        let ell = Ell::from_csr(a);
        let padded = ell.padded_nnz() as f64;
        probe.put("sparse.ell_pad_ratio", padded / nnz);
        let t = probe.best_whole("sparse.spmv_ell", || ell.spmv(&x, black_box(&mut y)));
        probe.put("sparse.spmv_ell_gbs", gbs(12.0 * padded + vectors, t));
        drop(ell);

        let hyb = Hyb::from_csr(a, 0.9);
        let t = probe.best_whole("sparse.spmv_hyb", || hyb.spmv(&x, black_box(&mut y)));
        probe.put("sparse.spmv_hyb_gbs", gbs(hyb.bytes() as f64 + vectors, t));
        drop(hyb);

        let a32 = a.cast::<f32>();
        let x32: Vec<f32> = x.iter().map(|&v| v as f32).collect();
        let mut y32 = vec![0.0f32; a.nrows()];
        let t =
            probe.best_whole("sparse.spmv_csr_f32", || spmv::spmv(&a32, &x32, black_box(&mut y32)));
        probe.put("sparse.spmv_csr_f32_gbs", gbs(8.0 * nnz + 8.0 * n + 8.0 * n, t));

        let cfg = self.cfg();
        let layout = &self.solved.sys.layout;
        let steps = if cfg.kernel == KernelMode::Spmv { 1 } else { cfg.s };
        let mut plan = None;
        let t = probe.best_whole("core.mpk_plan", || plan = Some(MpkPlan::new(a, layout, steps)));
        let plan = plan.expect("ran at least once");
        probe.put("core.mpk_plan_s", t);
        probe.put("core.halo_rows", plan.devs.iter().map(|d| d.need.len()).sum::<usize>() as f64);
        // flops beyond `s` plain SpMVs over the flops of those SpMVs; the
        // s = 1 exchange computes nothing twice
        let extra: usize = plan.devs.iter().map(|d| d.extra_work()).sum();
        let redundancy = if steps == 1 { 0.0 } else { extra as f64 / (2.0 * steps as f64 * nnz) };
        probe.put("core.mpk_redundancy", redundancy);
    }

    /// `ca-gpusim`: what a command, a `run` round and a transfer round cost
    /// the host with nothing to compute, then the device kernels through
    /// `mg.run` on every device at the workload's shape.
    fn gpusim(&self, probe: &mut Probe) {
        let (_, k, c0) = self.shape();
        let (m, ndev) = (self.cfg().m, self.spec.ndev);
        let layout = &self.solved.sys.layout;
        let mut mg = MultiGpu::with_defaults(ndev);
        let gemm = mg.config.gemm;
        let f = |x: usize| x as f64;

        const CMDS: usize = 10_000;
        let tiny = mg.device_mut(0).alloc_mat(1, 2).expect("two numbers fit");
        let t = probe.best_whole("gpusim.cmd", || {
            let dev = mg.device_mut(0);
            (0..CMDS).for_each(|_| dev.copy_col(tiny, 0, 1));
        });
        probe.put("gpusim.cmd_ns", t / f(CMDS) * 1e9);

        const ROUNDS: usize = 2_000;
        let t = probe.best_whole("gpusim.run", || {
            (0..ROUNDS).for_each(|_| {
                mg.run(|d, _| {
                    black_box(d);
                })
            })
        });
        probe.put("gpusim.run_ns", t / f(ROUNDS) * 1e9);

        let word = vec![8usize; ndev];
        let t = probe.best_whole("gpusim.xfer", || {
            for _ in 0..ROUNDS {
                mg.to_host(&word).expect("no faults are installed");
                mg.to_devices(&word).expect("no faults are installed");
            }
        });
        probe.put("gpusim.xfer_ns", t / f(ROUNDS) * 1e9);

        // one basis-shaped matrix per device: columns 0..c0 wide, c0..=m narrow
        let v: Vec<MatId> = (0..ndev)
            .map(|d| mg.device_mut(d).alloc_mat(layout.nlocal(d), m + 1).expect("the basis fits"))
            .collect();
        let panels: Vec<Vec<f64>> =
            (0..ndev).map(|d| noise(layout.nlocal(d) * (m + 1), 100 + d as u64)).collect();
        let refill = |mg: &mut MultiGpu| {
            for d in 0..ndev {
                mg.device_mut(d).mat_mut(v[d]).as_mut_slice().copy_from_slice(&panels[d]);
            }
        };
        refill(&mut mg);
        let rows = f(layout.n());

        let t = probe.best_whole("gpusim.syrk_cols", || {
            black_box(mg.run_map(|d, dev| dev.syrk_cols(v[d], c0, m + 1, gemm)));
        });
        probe.put("gpusim.syrk_cols_gfs", rows * f(k) * f(k + 1) / t / 1e9);

        let t = probe.best_whole("gpusim.gemm_tn_cols", || {
            black_box(mg.run_map(|d, dev| dev.gemm_tn_cols(v[d], (0, k), (c0, m + 1), gemm)));
        });
        probe.put("gpusim.gemm_tn_cols_gfs", 2.0 * rows * f(k) * f(k) / t / 1e9);

        let t = probe.best_whole("gpusim.gemm_tn_cols_wide", || {
            black_box(mg.run_map(|d, dev| dev.gemm_tn_cols(v[d], (0, c0), (c0, m + 1), gemm)));
        });
        probe.put("gpusim.gemm_tn_cols_wide_gfs", 2.0 * rows * f(c0) * f(k) / t / 1e9);

        let coeffs = Mat::from_col_major(c0, k, noise(c0 * k, 10)).expect("sized to fit");
        let t = probe.best("gpusim.gemm_nn_update", || {
            refill(&mut mg);
            let t = Instant::now();
            mg.run(|d, dev| dev.gemm_nn_update(v[d], (0, c0), (c0, m + 1), &coeffs, gemm));
            t.elapsed().as_secs_f64()
        });
        probe.put("gpusim.gemm_nn_update_gfs", 2.0 * rows * f(c0) * f(k) / t / 1e9);

        let r = unit_upper(k);
        let t = probe.best("gpusim.trsm_cols", || {
            refill(&mut mg);
            let t = Instant::now();
            mg.run(|d, dev| dev.trsm_cols(v[d], c0, m + 1, &r).expect("R is not singular"));
            t.elapsed().as_secs_f64()
        });
        probe.put("gpusim.trsm_cols_gfs", rows * f(k) * f(k) / t / 1e9);

        // each device's diagonal block as an ELLPACK slice, as the solver loads it
        let a = self.a();
        let x0 = noise(a.ncols(), 11);
        let mut padded = 0usize;
        let slices: Vec<_> = (0..ndev)
            .map(|d| {
                let rows: Vec<usize> = layout.range(d).collect();
                let ell = Ell::from_csr(&a.select_rows(&rows));
                padded += ell.padded_nnz();
                let dev = mg.device_mut(d);
                let x = dev.alloc_vec(a.ncols()).expect("a vector fits");
                dev.vec_mut(x).copy_from_slice(&x0);
                let rows = rows.iter().map(|&r| r as u32).collect();
                (dev.load_slice(ell, rows).expect("the slice fits"), x)
            })
            .collect();
        let t = probe.best_whole("gpusim.spmv", || {
            mg.run(|d, dev| dev.spmv_to_mat_col(slices[d].0, slices[d].1, v[d], 0));
        });
        probe.put("gpusim.spmv_gbs", gbs(12.0 * f(padded) + 16.0 * rows, t));
    }

    /// `ca-tune`: what planning costs the host, and the model's error
    /// against the simulator for its own top pick.
    fn tune(&self, probe: &mut Probe) {
        let cfg = self.cfg();
        let planner = Planner::new(self.a(), cfg.m, PerfModel::default(), KernelConfig::default());
        let space = CandidateSpace::paper(self.spec.ndev);
        let mut plan = None;
        let t = probe.best_whole("tune.plan", || plan = Some(planner.plan(&space)));
        let plan = plan.expect("ran at least once");
        let candidates = plan.ranked.len() + plan.pruned.len();
        probe.put("tune.plan_wall_ms", t * 1e3);
        probe.put("tune.plan_candidates", candidates as f64);
        probe.put("tune.plan_us_per_cand", t * 1e6 / candidates.max(1) as f64);

        // what one admission-cache miss of the service costs on this matrix
        let admit = CandidateSpace {
            ndevs: vec![self.spec.ndev],
            ..ServeConfig::default_admission_space()
        };
        let t = probe.best_whole("tune.admit_plan", || {
            black_box(planner.plan(&admit));
        });
        probe.put("tune.admit_plan_us", t * 1e6);

        let open = probe.tr.begin("tune.cross_validate", "tune", None);
        let rel_err = plan
            .best()
            .map_or(0.0, |best| planner.cross_validate(&best.cand, &self.solved.b, 3).rel_err);
        probe.tr.end(open, None);
        probe.put("tune.predict_rel_err", rel_err);
    }

    /// The fault-tolerant driver's host cost over the plain one, both from
    /// the balanced matrix to the solution: `ca_gmres_ft` builds its own
    /// system, so `plain_wall_s` includes `System::new` and `load_rhs`. It is
    /// the fastest of `reps` solves, as `plain_wall_s` is.
    fn ft_tax(&self, probe: &mut Probe, reps: usize, plain_wall_s: f64) {
        let cfg = FtConfig { solver: *self.cfg(), ..FtConfig::default() };
        let open = probe.tr.begin("core.ca_gmres_ft", "core", None);
        let walls: Vec<f64> = (0..reps)
            .map(|_| {
                let mg = MultiGpu::with_defaults(self.spec.ndev);
                let t = Instant::now();
                let out = ca_gmres_ft(mg, self.a(), &self.solved.b, &cfg);
                assert!(out.stats.converged, "the fault-tolerant solve did not converge");
                t.elapsed().as_secs_f64()
            })
            .collect();
        probe.tr.end(open, None);
        probe.put("core.ft_tax", fastest(&walls) / plain_wall_s);
    }
}

/// The service, traced: one untraced pass as the reference, one under
/// spans, the cold FIFO path, then the solver layers at the shape of the
/// pool's largest class.
fn serve_layers(spec: &ServeSpec, seed: u64, req: &str, probe: &mut Probe, rec: &mut Record) {
    // the G3_circuit class on one two-device slice, at the admission
    // grid's largest step size
    let class = SolverSpec {
        matrix: MatrixGen::Circuit(spec.dims[1]),
        ordering: Ordering::Natural,
        ndev: spec.slices[0],
        cfg: CaGmresConfig { s: 10, m: spec.m, rtol: spec.rtol, ..Default::default() },
        seed_weight: 1.0,
        max_reps: 1,
    };
    let inp = SolverInputs::generate(&class, seed);
    solver_layers(&class, &inp, &format!("{req}/class"), probe, rec);

    let raw_pool = spec.pool();
    let plain = gate::serve_pass(spec, &raw_pool, seed, &mut Tracer::off());
    probe.tr.set_request(format!("{req}/traced"));
    let first_span = probe.span_count();
    let traced = gate::serve_pass(spec, &raw_pool, seed, &mut probe.tr);
    let jobs = spec.jobs as f64;
    for (p, t) in plain.arms.iter().zip(&traced.arms) {
        rec.count(spec.jobs as u64, t.failed_jobs as u64, "jobs failed or were lost");
        let same = p.report.digest() == t.report.digest();
        rec.check((!same).then(|| format!("{} digest differs between passes", t.arm.name)));
    }
    let wall = |arms: &[gate::ArmRun]| arms.iter().map(|a| a.wall_s).sum::<f64>();
    probe.put("trace.tax", wall(&traced.arms) / wall(&plain.arms) - 1.0);
    probe.put("sparse.balance_s", probe.wall_since(first_span, "sparse.balance"));
    probe.put("serve.wall_ms_per_job", wall(&traced.arms) / (2.0 * jobs) * 1e3);

    let (light, sat) = (&traced.arms[0].report, &traced.arms[1].report);
    // deadlines are a latency matter: at saturation most are missed by design
    let deadlines = light.jobs.iter().filter(|j| j.deadline_met.is_some()).count().max(1) as f64;
    probe.put("serve.warm_hit_frac", sat.warm_hits as f64 / jobs);
    probe.put("serve.batched_frac", sat.batched_jobs as f64 / jobs);
    probe.put("serve.deadline_miss_frac", light.deadline_misses as f64 / deadlines);
    probe.put("serve.planner_misses", sat.planner_misses as f64);
    probe.put("serve.evictions", sat.evictions as f64);
    probe.put("serve.backfill_hits", sat.backfill_hits as f64);
    probe.put("serve.max_queue_depth", sat.max_queue_depth as f64);
    probe.put(
        "serve.sim_util",
        sat.utilization.iter().sum::<f64>() / sat.utilization.len().max(1) as f64,
    );
    probe.put("serve.sim_p50_tts_s", light.p50_tts_s);

    probe.tr.set_request(format!("{req}/probes"));
    let open = probe.tr.begin("serve.cold_fifo", "serve", None);
    let cold = gate::cold_fifo_wall_s(spec, &raw_pool, seed);
    probe.tr.end(open, None);
    probe.put("serve.cold_wall_ms_per_job", cold / spec.cold_jobs as f64 * 1e3);
}
