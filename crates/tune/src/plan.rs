//! The planner: a pruned search over CA-GMRES configurations scored by a
//! closed-form prediction of the time per restart cycle.
//!
//! [`Planner::predict_cycle`] rolls up, per candidate, exactly the
//! charges one CA restart cycle issues on the simulated machine — the
//! MPK scatter/exchange/step sequence of `ca_gmres::mpk` (a step priced by
//! the function the device charges it with, `PerfModel::mpk_step_time`), the
//! BOrth/TSQR reduction trees of `ca_gmres::orth`, and the seed /
//! update / residual traffic of `ca_gmres::system` — walked on one
//! flattened clock per device plus a host clock, without executing any
//! arithmetic. Under the executor's default `Schedule::Barrier` the
//! solver syncs at every phase boundary, which is what makes the
//! flattened-clock roll-up exact rather than an estimate: the only
//! sources of error are data-dependent branches the planner cannot see
//! (Newton shift structure, reorthogonalization fallbacks).
//!
//! The search space is pruned by the paper's stability constraints
//! before scoring (§IV-A: the monomial basis loses full rank beyond
//! small `s`; §V-C: CholQR squares the basis condition number, so its
//! usable `s` is capped harder), and by a device-memory feasibility
//! check. The result is a ranked list; [`Planner::cross_validate`]
//! replays the top pick through one real simulated solve and reports
//! the prediction error.

use crate::profile::MachineProfile;
use ca_gmres::mpk::SpmvFormat;
use ca_gmres::prelude::*;
use ca_gpusim::{GemmVariant, KernelConfig, MultiGpu, PerfModel, SpmvShape};
use ca_scalar::Precision;
use ca_sparse::Csr;

/// Stability and feasibility caps that prune the search space (the
/// paper's §IV-A / §V-C guidance turned into hard bounds).
#[derive(Debug, Clone, Copy)]
pub struct PlannerLimits {
    /// Max `s` for the monomial basis (condition grows like `kappa^s`).
    pub s_cap_monomial: usize,
    /// Max `s` for the Newton/Chebyshev bases.
    pub s_cap_shifted: usize,
    /// Max `s` for CholQR on a monomial basis (Gram condition is the
    /// square of the basis condition — the guard trips far earlier).
    pub cholqr_s_cap_monomial: usize,
    /// Max `s` for CholQR on shifted bases.
    pub cholqr_s_cap_shifted: usize,
    /// Max `s` for a monomial basis generated in f32: the same
    /// `kappa^s` growth eats the 2^-24 unit roundoff roughly twice as
    /// fast as it eats 2^-53, so the cap tightens well below
    /// [`PlannerLimits::s_cap_monomial`].
    pub s_cap_monomial_f32: usize,
    /// Max `s` for CholQR on an f32-generated monomial basis (the
    /// squared Gram condition meets the halved mantissa).
    pub cholqr_s_cap_monomial_f32: usize,
    /// Fraction of device memory a candidate may plan to use.
    pub mem_frac: f64,
}

impl Default for PlannerLimits {
    fn default() -> Self {
        Self {
            s_cap_monomial: 8,
            s_cap_shifted: 20,
            cholqr_s_cap_monomial: 5,
            cholqr_s_cap_shifted: 12,
            s_cap_monomial_f32: 6,
            cholqr_s_cap_monomial_f32: 3,
            mem_frac: 0.9,
        }
    }
}

/// One point of the search space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Step size.
    pub s: usize,
    /// Basis polynomial family.
    pub basis: BasisChoice,
    /// Intra-block orthogonalization.
    pub tsqr: TsqrKind,
    /// Inter-block orthogonalization.
    pub borth: BorthKind,
    /// Basis-generation kernel (`Mpk` collapses to `Spmv` when `s == 1`).
    pub kernel: KernelMode,
    /// Device count.
    pub ndev: usize,
    /// Row partitioner.
    pub ordering: Ordering,
    /// The "2x" reorthogonalization wrapper.
    pub reorth: bool,
    /// Precision of MPK basis generation (`F32` demotes the s-step
    /// slices and halo traffic; the s = 1 residual path stays f64).
    pub prec: Precision,
}

impl Candidate {
    /// Whether this candidate generates basis blocks with the matrix
    /// powers kernel (mirrors the driver's collapse of `Mpk` at `s = 1`).
    #[must_use]
    pub fn uses_mpk(&self) -> bool {
        self.s > 1 && !matches!(self.kernel, KernelMode::Spmv)
    }

    /// Materialize the solver configuration this candidate describes.
    #[must_use]
    pub fn solver_config(&self, m: usize, rtol: f64, max_restarts: usize) -> CaGmresConfig {
        CaGmresConfig {
            s: self.s,
            m,
            basis: self.basis,
            kernel: if self.uses_mpk() { KernelMode::Mpk } else { KernelMode::Spmv },
            orth: OrthConfig {
                tsqr: self.tsqr,
                borth: self.borth,
                reorth: self.reorth,
                ..OrthConfig::default()
            },
            rtol,
            max_restarts,
            mpk_prec: self.prec,
            ..CaGmresConfig::default()
        }
    }

    /// Compact human-readable identifier, stable across runs (used in
    /// bench tables and digests).
    #[must_use]
    pub fn label(&self) -> String {
        let basis = match self.basis {
            BasisChoice::Monomial => "monomial",
            BasisChoice::Newton => "newton",
            BasisChoice::Chebyshev => "chebyshev",
        };
        let ordering = match self.ordering {
            Ordering::Natural => "natural",
            Ordering::Rcm => "rcm",
            Ordering::Kway => "kway",
            Ordering::Bisection => "bisection",
            Ordering::Hypergraph => "hypergraph",
        };
        let kernel = if self.uses_mpk() { "mpk" } else { "spmv" };
        let reorth = if self.reorth { "+2x" } else { "" };
        let borth = match self.borth {
            BorthKind::Cgs => "bcgs",
            BorthKind::Mgs => "bmgs",
        };
        // f64 labels keep their historical spelling so committed digests
        // survive the precision dimension; f32 candidates are marked.
        let prec = match self.prec {
            Precision::F64 => "",
            Precision::F32 => " f32",
        };
        format!(
            "s={} {} {}+{}{} {}{} d={} {}",
            self.s, basis, self.tsqr, borth, reorth, kernel, prec, self.ndev, ordering
        )
    }
}

/// The grid [`Planner::plan`] enumerates.
#[derive(Debug, Clone)]
pub struct CandidateSpace {
    /// Step sizes to try.
    pub s_values: Vec<usize>,
    /// Basis families to try.
    pub bases: Vec<BasisChoice>,
    /// TSQR algorithms to try.
    pub tsqrs: Vec<TsqrKind>,
    /// BOrth algorithms to try.
    pub borths: Vec<BorthKind>,
    /// Basis-generation kernels to try.
    pub kernels: Vec<KernelMode>,
    /// Device counts to try.
    pub ndevs: Vec<usize>,
    /// Row partitioners to try.
    pub orderings: Vec<Ordering>,
    /// Whether to also arm the "2x" reorthogonalization wrapper.
    pub reorth: bool,
    /// MPK basis-generation precisions to try. `F32` points are skipped
    /// for candidates that do not run MPK (the s = 1 / pure-SpMV path
    /// always stays f64, so those spellings would be duplicates).
    pub precisions: Vec<Precision>,
}

impl CandidateSpace {
    /// The space the paper tunes over: `s` up to 20, monomial vs Newton,
    /// the TSQR algorithms (including the fused-CGS and batched-tree CAQR
    /// variants), MPK vs SpMV generation, and every device count up to
    /// `max_ndev`.
    #[must_use]
    pub fn paper(max_ndev: usize) -> Self {
        Self {
            s_values: vec![2, 3, 5, 8, 10, 15, 20],
            bases: vec![BasisChoice::Newton, BasisChoice::Monomial],
            tsqrs: vec![
                TsqrKind::Cgs,
                TsqrKind::CgsFused,
                TsqrKind::CholQr,
                TsqrKind::SvQr,
                TsqrKind::Caqr,
                TsqrKind::CaqrTree,
                TsqrKind::Mgs,
            ],
            borths: vec![BorthKind::Cgs],
            kernels: vec![KernelMode::Mpk, KernelMode::Spmv],
            ndevs: (1..=max_ndev.max(1)).collect(),
            orderings: vec![Ordering::Natural],
            reorth: false,
            precisions: vec![Precision::F64],
        }
    }

    /// [`CandidateSpace::paper`] widened with the mixed-precision basis:
    /// every MPK candidate is also scored with f32 slices and halos.
    #[must_use]
    pub fn mixed(max_ndev: usize) -> Self {
        Self { precisions: vec![Precision::F64, Precision::F32], ..Self::paper(max_ndev) }
    }

    /// A small smoke grid for CI.
    #[must_use]
    pub fn smoke(ndev: usize) -> Self {
        Self {
            s_values: vec![2, 5, 10],
            bases: vec![BasisChoice::Newton],
            tsqrs: vec![TsqrKind::Cgs, TsqrKind::CholQr, TsqrKind::Caqr],
            borths: vec![BorthKind::Cgs],
            kernels: vec![KernelMode::Mpk],
            ndevs: vec![ndev.max(1)],
            orderings: vec![Ordering::Natural],
            reorth: false,
            precisions: vec![Precision::F64],
        }
    }
}

/// A scored survivor of the pruned search.
#[derive(Debug, Clone)]
pub struct RankedCandidate {
    /// The configuration.
    pub cand: Candidate,
    /// Predicted time of one CA restart cycle, seconds.
    pub predicted_cycle_s: f64,
}

/// Output of [`Planner::plan`]: survivors ranked fastest-first, plus the
/// pruned candidates with the constraint that removed each.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Feasible candidates, ascending predicted cycle time.
    pub ranked: Vec<RankedCandidate>,
    /// Pruned candidates and why.
    pub pruned: Vec<(Candidate, String)>,
}

impl Plan {
    /// The planner's pick.
    #[must_use]
    pub fn best(&self) -> Option<&RankedCandidate> {
        self.ranked.first()
    }
}

/// Cross-validation of a prediction against one real simulated run.
#[derive(Debug, Clone, Copy)]
pub struct CrossCheck {
    /// The planner's closed-form cycle time.
    pub predicted_cycle_s: f64,
    /// Mean simulated CA-cycle time (`ca_stats.t_total / restarts`).
    pub actual_cycle_s: f64,
    /// `|predicted - actual| / actual`.
    pub rel_err: f64,
    /// End-to-end simulated time of the validation run.
    pub tts_s: f64,
}

/// Predicted per-phase split of one CA restart cycle — the closed-form
/// mirror of the host phase spans the solver emits (`spmv`, `borth`,
/// `tsqr`, `small`). Produced by [`Planner::predict_phases`]; the
/// [`crate::retune::Retuner`] compares these shares against the live
/// phase-time deltas the fault-tolerant driver feeds it
/// ([`ca_gmres::ft::RestartTuner::observe_phases`]) to catch drift — e.g. a
/// degraded PCIe link — that the kernel-only busy-time EWMA cannot see.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhasePrediction {
    /// The predicted cycle in the shape observations arrive in
    /// (`cycles == 1`): `cycle_s` is the end-to-end cycle span; `spmv_s`
    /// basis generation (MPK or shifted-SpMV blocks) plus the final
    /// explicit residual; `borth_s` the block-orthogonalization projection
    /// passes; `tsqr_s` the panel factorizations; `small_s` the host dense
    /// math (Hessenberg reconstruction, least squares, solution update).
    ///
    /// `spmv_s + borth_s + tsqr_s + small_s <= cycle_s`: seed/bookkeeping
    /// charges stay unattributed, exactly as the solver's span attribution
    /// leaves gaps inside its `cycle` span, so predicted and observed
    /// shares are computed against the same kind of denominator.
    pub phases: PhaseRatios,
    /// Total PCIe link occupancy charged across all transfers (the sum
    /// of per-copy link seconds, not wall time) — the denominator for
    /// inferring a link slowdown from excess cycle time.
    pub comm_s: f64,
}

/// Cost-model planner for one matrix and restart length.
#[derive(Debug)]
pub struct Planner<'a> {
    a: &'a Csr,
    m: usize,
    model: PerfModel,
    config: KernelConfig,
    /// Pruning thresholds.
    pub limits: PlannerLimits,
}

/// Everything the walker needs about one device's share of a plan.
#[derive(Debug, Clone)]
struct DevShapes {
    nl: usize,
    /// Padded-ELL shapes of the local block, then of every level, nearest
    /// first (as `MpkState` orders the slices it loads).
    slices: Vec<SpmvShape>,
    nsend: usize,
    nneed: usize,
    slice_bytes: usize,
}

impl<'a> Planner<'a> {
    /// Planner against an explicit performance model.
    #[must_use]
    pub fn new(a: &'a Csr, m: usize, model: PerfModel, config: KernelConfig) -> Self {
        Self { a, m, model, config, limits: PlannerLimits::default() }
    }

    /// Planner against a calibrated profile: the profile's fitted
    /// parameters override `hint`'s built-in constants.
    #[must_use]
    pub fn with_profile(
        a: &'a Csr,
        m: usize,
        profile: &MachineProfile,
        hint: &PerfModel,
        config: KernelConfig,
    ) -> Self {
        Self::new(a, m, profile.to_model(hint).0, config)
    }

    /// The model predictions are computed against.
    #[must_use]
    pub fn model(&self) -> &PerfModel {
        &self.model
    }

    /// The kernel configuration predictions assume (GEMM/GEMV variants).
    #[must_use]
    pub fn config(&self) -> KernelConfig {
        self.config
    }

    /// Restart length this planner scores cycles for.
    #[must_use]
    pub fn m(&self) -> usize {
        self.m
    }

    /// The matrix this planner scores against.
    #[must_use]
    pub fn matrix(&self) -> &'a Csr {
        self.a
    }

    /// Enumerate `space`, prune, score, and rank.
    #[must_use]
    pub fn plan(&self, space: &CandidateSpace) -> Plan {
        let mut ranked = Vec::new();
        let mut pruned = Vec::new();
        let reorths: &[bool] = if space.reorth { &[false, true] } else { &[false] };
        for &ordering in &space.orderings {
            for &ndev in &space.ndevs {
                if ndev == 0 || ndev > self.a.nrows() {
                    continue;
                }
                let (ap, _perm, layout) = prepare(self.a, ordering, ndev);
                let s1 = shapes(&ap, &layout, 1);
                for &s in &space.s_values {
                    if s < 1 {
                        continue;
                    }
                    let mut mpk_shapes: Option<Vec<DevShapes>> = None;
                    for &kernel in &space.kernels {
                        for &basis in &space.bases {
                            for &tsqr in &space.tsqrs {
                                for &borth in &space.borths {
                                    for &reorth in reorths {
                                        for &prec in &space.precisions {
                                            let cand = Candidate {
                                                s,
                                                basis,
                                                tsqr,
                                                borth,
                                                kernel,
                                                ndev,
                                                ordering,
                                                reorth,
                                                prec,
                                            };
                                            // `Mpk` at s = 1 collapses to `Spmv`:
                                            // keep only the canonical spelling
                                            if s == 1 && !matches!(kernel, KernelMode::Spmv) {
                                                continue;
                                            }
                                            // f32 only touches the MPK path;
                                            // non-MPK candidates stay in their
                                            // canonical f64 spelling
                                            if prec == Precision::F32 && !cand.uses_mpk() {
                                                continue;
                                            }
                                            if let Some(reason) = self.prune_reason(&cand) {
                                                pruned.push((cand, reason));
                                                continue;
                                            }
                                            let mpkc = if cand.uses_mpk() {
                                                Some(
                                                    mpk_shapes
                                                        .get_or_insert_with(|| {
                                                            shapes(&ap, &layout, s)
                                                        })
                                                        .as_slice(),
                                                )
                                            } else {
                                                None
                                            };
                                            if let Some(reason) =
                                                self.mem_infeasible(&cand, &s1, mpkc)
                                            {
                                                pruned.push((cand, reason));
                                                continue;
                                            }
                                            let slow = vec![1.0; ndev];
                                            let t = self.predict_on(&s1, mpkc, &cand, &slow);
                                            ranked.push(RankedCandidate {
                                                cand,
                                                predicted_cycle_s: t.phases.cycle_s,
                                            });
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        ranked.sort_by(|x, y| {
            x.predicted_cycle_s
                .total_cmp(&y.predicted_cycle_s)
                .then_with(|| x.cand.label().cmp(&y.cand.label()))
        });
        Plan { ranked, pruned }
    }

    /// Predicted time of one CA restart cycle for `cand` on a healthy
    /// machine.
    #[must_use]
    pub fn predict_cycle(&self, cand: &Candidate) -> f64 {
        let (ap, _perm, layout) = prepare(self.a, cand.ordering, cand.ndev);
        self.predict_for_layout(&ap, &layout, cand, &vec![1.0; cand.ndev])
    }

    /// Predicted cycle time on an explicit layout of an
    /// already-distributed matrix, with per-device kernel slowdown
    /// multipliers (the [`crate::retune::Retuner`] entry point:
    /// `slow[d]` is the health report's latency EWMA for device `d`).
    /// `cand.ordering` and `cand.ndev` are ignored in favor of `layout`.
    #[must_use]
    pub fn predict_for_layout(
        &self,
        a: &Csr,
        layout: &Layout,
        cand: &Candidate,
        slow: &[f64],
    ) -> f64 {
        assert_eq!(slow.len(), layout.ndev());
        self.predict_phases_for_layout(a, layout, cand, slow).phases.cycle_s
    }

    /// Per-phase split of [`Planner::predict_cycle`]: the same walk, with
    /// every charge attributed to the host phase span the solver would
    /// bracket it with. `cycle_s` equals `predict_cycle` exactly.
    #[must_use]
    pub fn predict_phases(&self, cand: &Candidate) -> PhasePrediction {
        let (ap, _perm, layout) = prepare(self.a, cand.ordering, cand.ndev);
        self.predict_phases_for_layout(&ap, &layout, cand, &vec![1.0; cand.ndev])
    }

    /// Per-phase split of [`Planner::predict_for_layout`] (same walk,
    /// same slowdown multipliers).
    #[must_use]
    pub fn predict_phases_for_layout(
        &self,
        a: &Csr,
        layout: &Layout,
        cand: &Candidate,
        slow: &[f64],
    ) -> PhasePrediction {
        assert_eq!(slow.len(), layout.ndev());
        let s1 = shapes(a, layout, 1);
        let mpkc = cand.uses_mpk().then(|| shapes(a, layout, cand.s));
        self.predict_on(&s1, mpkc.as_deref(), cand, slow)
    }

    /// Replay `cand` through one real simulated solve (fixed budget of
    /// `restarts`, `rtol = 0` so every cycle runs the full `m` columns)
    /// and compare against the prediction.
    #[must_use]
    pub fn cross_validate(&self, cand: &Candidate, b: &[f64], restarts: usize) -> CrossCheck {
        let (ap, perm, layout) = prepare(self.a, cand.ordering, cand.ndev);
        let bp = ca_sparse::perm::permute_vec(b, &perm);
        let mut mg = MultiGpu::new(cand.ndev, self.model.clone(), self.config);
        let cfg = cand.solver_config(self.m, 0.0, restarts);
        let sys = System::new_with_format_prec(
            &mut mg,
            &ap,
            layout,
            cfg.m,
            Some(cfg.s),
            SpmvFormat::Ell,
            cand.prec,
        )
        .expect("validation system fits device memory");
        sys.load_rhs(&mut mg, &bp).expect("no faults installed");
        let out = ca_gmres(&mut mg, &sys, &cfg);
        let actual = if out.ca_stats.restarts > 0 {
            out.ca_stats.t_total / out.ca_stats.restarts as f64
        } else {
            f64::NAN
        };
        let predicted = self.predict_cycle(cand);
        CrossCheck {
            predicted_cycle_s: predicted,
            actual_cycle_s: actual,
            rel_err: ((predicted - actual) / actual).abs(),
            tts_s: out.stats.t_total,
        }
    }

    /// Stability pruning (the paper's §IV-A and §V-C constraints):
    /// `Some(reason)` if `c` is rejected before scoring.
    pub fn prune_reason(&self, c: &Candidate) -> Option<String> {
        if c.s > self.m {
            return Some(format!("s={} exceeds restart length m={}", c.s, self.m));
        }
        let l = &self.limits;
        let (cap, cholqr_cap, basis) = match (c.basis, c.prec) {
            (BasisChoice::Monomial, Precision::F32) => {
                (l.s_cap_monomial_f32, l.cholqr_s_cap_monomial_f32, "f32 monomial")
            }
            (BasisChoice::Monomial, Precision::F64) => {
                (l.s_cap_monomial, l.cholqr_s_cap_monomial, "monomial")
            }
            _ => (l.s_cap_shifted, l.cholqr_s_cap_shifted, "shifted"),
        };
        if c.s > cap {
            return Some(format!(
                "{basis}-basis step cap: condition grows like kappa^s, s={} > {cap} (paper §IV-A)",
                c.s
            ));
        }
        if matches!(c.tsqr, TsqrKind::CholQr | TsqrKind::CholQrMixed) && c.s > cholqr_cap {
            return Some(format!(
                "CholQR condition guard: Gram matrix squares the block condition, \
                 s={} > {cholqr_cap} for a {basis} basis (paper §V-C)",
                c.s
            ));
        }
        None
    }

    /// Planned device-memory footprint of `cand` in bytes, per device:
    /// the basis panel (`m + 4` columns), the SpMV/MPK work vectors, and
    /// the loaded sparse slices — the same roll-up the feasibility pruner
    /// applies against [`PlannerLimits::mem_frac`]. The service admission
    /// controller uses this to decide whether an operator fits next to
    /// the tenants already resident on a pool (the estimate is advisory:
    /// the simulator's own memory accounting is authoritative at build
    /// time, and eviction reacts to the actual allocation failure).
    #[must_use]
    pub fn mem_estimate(&self, cand: &Candidate) -> Vec<f64> {
        let (ap, _perm, layout) = prepare(self.a, cand.ordering, cand.ndev);
        let s1 = shapes(&ap, &layout, 1);
        let mpkc = cand.uses_mpk().then(|| shapes(&ap, &layout, cand.s));
        self.mem_bytes_per_dev(cand, &s1, mpkc.as_deref())
    }

    /// Shared roll-up behind [`Planner::mem_estimate`] and the pruner.
    fn mem_bytes_per_dev(
        &self,
        c: &Candidate,
        s1: &[DevShapes],
        mpkc: Option<&[DevShapes]>,
    ) -> Vec<f64> {
        let n = self.a.nrows();
        s1.iter()
            .enumerate()
            .map(|(d, sh)| {
                // basis + x/b/r columns, two work vectors per loaded plan
                let mut bytes = 8.0 * sh.nl as f64 * (self.m + 4) as f64 + 16.0 * n as f64;
                bytes += sh.slice_bytes as f64;
                if let Some(ms) = mpkc {
                    // f32 slices shrink each padded (value, index) slot
                    // from 12 bytes to 8; `slice_bytes` is 12 per slot
                    let slice = match c.prec {
                        Precision::F64 => ms[d].slice_bytes,
                        Precision::F32 => ms[d].slice_bytes / 12 * 8,
                    };
                    bytes += 16.0 * n as f64 + slice as f64;
                }
                bytes
            })
            .collect()
    }

    /// Device-memory feasibility: basis panel + work vectors + loaded
    /// slices must fit in `mem_frac` of each device's memory.
    fn mem_infeasible(
        &self,
        c: &Candidate,
        s1: &[DevShapes],
        mpkc: Option<&[DevShapes]>,
    ) -> Option<String> {
        let cap =
            self.model.param("dev_mem_capacity").unwrap_or(f64::INFINITY) * self.limits.mem_frac;
        for (d, bytes) in self.mem_bytes_per_dev(c, s1, mpkc).into_iter().enumerate() {
            if bytes > cap {
                return Some(format!(
                    "device {d} needs {:.1} MiB of {:.1} MiB budget",
                    bytes / (1 << 20) as f64,
                    cap / (1 << 20) as f64
                ));
            }
        }
        None
    }

    // ---------- the flattened-clock walker ----------

    /// Walk every charge of one CA restart cycle and return its span,
    /// split by solver phase. `attr` snapshots the walk frontier between
    /// segments; deltas partition the cycle exactly, so the phase parts
    /// plus the unattributed seed/bookkeeping slack sum to `cycle_s`.
    fn predict_on(
        &self,
        s1: &[DevShapes],
        mpkc: Option<&[DevShapes]>,
        cand: &Candidate,
        slow: &[f64],
    ) -> PhasePrediction {
        let mut w = Walk::new(&self.model, s1.len(), slow);
        let m = self.m;
        let s = cand.s;
        let mut ph = PhaseRatios { cycles: 1, ..PhaseRatios::default() };
        let mut mark = 0.0_f64;

        // seed_basis: broadcast beta, copy + scale the residual column —
        // before the solver opens its first phase span (unattributed)
        w.broadcast(8);
        w.each(s1, |_, sh| self.model.blas1_time(2 * sh.nl) + self.model.blas1_time(2 * sh.nl));
        attr(&w, &mut mark);

        // basis blocks
        let mut ncols = 1usize;
        let mut first_block = true;
        while ncols - 1 < m {
            let s_blk = s.min(m + 1 - ncols);
            w.sync();
            if cand.uses_mpk() {
                self.walk_mpk_block(&mut w, mpkc.expect("mpk shapes built"), s_blk, cand.prec);
            } else {
                self.walk_spmv_block(&mut w, s1, s_blk);
            }
            w.sync();
            ph.spmv_s += attr(&w, &mut mark);
            let (c0, k) = if first_block { (0, s_blk + 1) } else { (ncols, s_blk) };
            self.walk_orth_block(&mut w, &mut ph, &mut mark, s1, c0, k, cand);
            // Hessenberg reconstruction + least squares on the host
            w.sync();
            w.host_compute(
                2.0 * ((ncols + s_blk) * s_blk * s_blk) as f64 + (3 * m * s_blk) as f64,
                (16 * (ncols + s_blk) * s_blk) as f64,
            );
            w.sync();
            ph.small_s += attr(&w, &mut mark);
            ncols += s_blk;
            first_block = false;
        }

        // final least-squares solve, update, explicit residual
        w.host_compute((3 * (m + 1) * (m + 1)) as f64, (16 * m) as f64);
        w.sync();
        w.broadcast(8 * m);
        w.each(s1, |_, sh| {
            self.model.gemv_t_time(ca_gpusim::GemvVariant::MagmaTallSkinny, sh.nl, m)
        });
        w.sync();
        ph.small_s += attr(&w, &mut mark);
        self.walk_dist_spmv(&mut w, s1);
        ph.spmv_s += attr(&w, &mut mark);
        w.each(s1, |_, sh| self.model.blas1_time(2 * sh.nl) + self.model.blas1_time(3 * sh.nl));
        w.each(s1, |_, sh| self.model.blas1_time(2 * sh.nl));
        w.uplink(s1, |_| 8);
        w.host_compute(s1.len() as f64, 0.0);
        w.sync();
        attr(&w, &mut mark); // residual-norm bookkeeping: unattributed
        ph.cycle_s = w.span();
        PhasePrediction { phases: ph, comm_s: w.comm }
    }

    /// One `dist_spmv`: scatter, halo exchange, local SpMV. Always f64 —
    /// the s = 1 residual plan is never demoted.
    fn walk_dist_spmv(&self, w: &mut Walk<'_>, s1: &[DevShapes]) {
        w.each(s1, |_, sh| self.model.blas1_time(2 * sh.nl));
        self.walk_exchange(w, s1, Precision::F64);
        w.each(s1, |_, sh| self.model.spmv_time_at(sh.slices[0], Precision::F64));
    }

    /// The halo exchange compound (compress, uplink, host expand,
    /// downlink, device expand) at the plan's wire precision. Nothing to
    /// do on one device.
    fn walk_exchange(&self, w: &mut Walk<'_>, sh: &[DevShapes], prec: Precision) {
        if sh.len() == 1 {
            return;
        }
        w.each(sh, |_, s| self.model.blas1_time_at(prec, 2 * s.nsend));
        w.uplink(sh, |s| prec.bytes() * s.nsend);
        let moved: usize = sh.iter().map(|s| s.nsend).sum();
        w.host_compute(0.0, 2.0 * prec.bytes() as f64 * moved as f64);
        w.downlink(sh, |s| prec.bytes() * s.nneed);
        w.each(sh, |_, s| self.model.blas1_time_at(prec, 2 * s.nneed));
    }

    /// One MPK block of `s_run <= s_plan` steps at the plan's precision:
    /// column load, exchange, then one launch per step over the local block
    /// and the levels later steps still read.
    fn walk_mpk_block(&self, w: &mut Walk<'_>, mpkc: &[DevShapes], s_run: usize, prec: Precision) {
        w.sync();
        w.each(mpkc, |_, sh| self.model.blas1_time_at(prec, 2 * sh.nl));
        self.walk_exchange(w, mpkc, prec);
        w.sync();
        for k in 1..=s_run {
            w.each(mpkc, |_, sh| {
                self.model.mpk_step_time(sh.slices[..=s_run - k].iter().copied(), sh.nl, prec)
            });
        }
        w.sync();
    }

    /// One SpMV-generated block: the column load, then per vector an
    /// exchange and one launch on the local block, whatever the basis —
    /// the shift rides in the kernel. Always f64, like [`Self::walk_dist_spmv`].
    fn walk_spmv_block(&self, w: &mut Walk<'_>, s1: &[DevShapes], s_blk: usize) {
        w.each(s1, |_, sh| self.model.blas1_time(2 * sh.nl));
        for _ in 0..s_blk {
            self.walk_exchange(w, s1, Precision::F64);
            w.each(s1, |_, sh| {
                self.model.mpk_step_time(sh.slices[..1].iter().copied(), sh.nl, Precision::F64)
            });
        }
    }

    /// BOrth + TSQR (+ optional "2x" pass) for one block of `k` new
    /// columns against `c0` existing ones, attributing each stage to its
    /// phase (`borth`, `tsqr`; the pass-2 merge is host dense math).
    #[allow(clippy::too_many_arguments)]
    fn walk_orth_block(
        &self,
        w: &mut Walk<'_>,
        ph: &mut PhaseRatios,
        mark: &mut f64,
        s1: &[DevShapes],
        c0: usize,
        k: usize,
        cand: &Candidate,
    ) {
        let passes = if cand.reorth { 2 } else { 1 };
        for pass in 1..=passes {
            w.sync();
            self.walk_borth(w, s1, c0, k, cand.borth);
            w.sync();
            ph.borth_s += attr(w, mark);
            self.walk_tsqr(w, s1, c0, k, cand.tsqr);
            w.sync();
            ph.tsqr_s += attr(w, mark);
            if pass == 2 {
                w.host_compute(2.0 * ((c0 + k) * k * k) as f64, (24 * k * k) as f64);
                w.sync();
                ph.small_s += attr(w, mark);
            }
        }
    }

    fn walk_borth(&self, w: &mut Walk<'_>, s1: &[DevShapes], c0: usize, k: usize, kind: BorthKind) {
        if c0 == 0 {
            return;
        }
        match kind {
            BorthKind::Cgs => {
                w.each(s1, |_, sh| self.model.gemm_tn_time(self.config.gemm, sh.nl, c0, k));
                self.walk_reduce(w, s1, c0 * k);
                w.broadcast(8 * c0 * k);
                w.each(s1, |_, sh| self.model.gemm_nn_time(self.config.gemm, sh.nl, c0, k));
            }
            BorthKind::Mgs => {
                for _l in 0..c0 {
                    w.each(s1, |_, sh| self.model.gemv_t_time(self.config.gemv, sh.nl, k));
                    self.walk_reduce(w, s1, k);
                    w.broadcast(8 * k);
                    w.each(s1, |_, sh| {
                        self.model.gemv_t_time(ca_gpusim::GemvVariant::MagmaTallSkinny, sh.nl, k)
                    });
                }
            }
        }
    }

    fn walk_tsqr(&self, w: &mut Walk<'_>, s1: &[DevShapes], _c0: usize, k: usize, kind: TsqrKind) {
        let ndev = s1.len();
        match kind {
            TsqrKind::Mgs => {
                for col in 0..k {
                    for _prev in 0..col {
                        w.each(s1, |_, sh| self.model.blas1_time(2 * sh.nl));
                        self.walk_reduce(w, s1, 1);
                        w.broadcast(8);
                        w.each(s1, |_, sh| self.model.blas1_time(3 * sh.nl));
                    }
                    self.walk_normalize(w, s1);
                }
            }
            TsqrKind::Cgs => {
                for col in 0..k {
                    if col > 0 {
                        w.each(s1, |_, sh| self.model.gemv_t_time(self.config.gemv, sh.nl, col));
                        self.walk_reduce(w, s1, col);
                        w.broadcast(8 * col);
                        w.each(s1, |_, sh| {
                            self.model.gemv_t_time(
                                ca_gpusim::GemvVariant::MagmaTallSkinny,
                                sh.nl,
                                col,
                            )
                        });
                    }
                    self.walk_normalize(w, s1);
                }
            }
            // Mirror of the executor's fused-CGS fast path: per column,
            // one fused reduction `[Vᵀv ; vᵀv]` (projection GEMV + squared
            // norm launched back-to-back), one combined (col+1)-word
            // broadcast, one fused update + scale — two sync points per
            // column instead of CGS's four.
            TsqrKind::CgsFused => {
                for col in 0..k {
                    if col == 0 {
                        self.walk_normalize(w, s1);
                        continue;
                    }
                    w.each(s1, |_, sh| {
                        self.model.gemv_t_time(self.config.gemv, sh.nl, col)
                            + self.model.blas1_time(2 * sh.nl)
                    });
                    self.walk_reduce(w, s1, col + 1);
                    w.broadcast(8 * (col + 1));
                    w.each(s1, |_, sh| {
                        self.model.gemv_t_time(ca_gpusim::GemvVariant::MagmaTallSkinny, sh.nl, col)
                            + self.model.blas1_time(2 * sh.nl)
                    });
                }
            }
            TsqrKind::CholQr | TsqrKind::CholQrMixed => {
                w.each(s1, |_, sh| {
                    if kind == TsqrKind::CholQrMixed {
                        self.model.gemm_tn_time_f32(self.config.gemm, sh.nl, k, k)
                    } else {
                        self.model.gemm_tn_time(self.config.gemm, sh.nl, k, k)
                    }
                });
                self.walk_reduce(w, s1, k * k);
                w.host_compute((k * k * k) as f64 / 3.0, (8 * k * k) as f64);
                w.broadcast(8 * k * k);
                w.each(s1, |_, sh| self.model.trsm_time(sh.nl, k));
            }
            TsqrKind::SvQr => {
                w.each(s1, |_, sh| self.model.gemm_tn_time(self.config.gemm, sh.nl, k, k));
                self.walk_reduce(w, s1, k * k);
                w.host_compute(14.0 * (k * k * k) as f64, (24 * k * k) as f64);
                w.broadcast(8 * k * k);
                w.each(s1, |_, sh| self.model.trsm_time(sh.nl, k));
            }
            // Identical sequences except for the local factorization:
            // CaqrTree's batched-panel leaf QRs charge the executor's
            // `geqr2_batched_time` (h = 512 panels, the device default)
            // instead of the flat GEQR2.
            TsqrKind::Caqr | TsqrKind::CaqrTree => {
                w.each(s1, |_, sh| {
                    if kind == TsqrKind::CaqrTree {
                        self.model.geqr2_batched_time(sh.nl, k, 512)
                    } else {
                        self.model.geqr2_time(sh.nl, k)
                    }
                });
                w.uplink(s1, |_| 8 * k * k);
                w.host_compute(
                    4.0 * (ndev * k) as f64 * (k * k) as f64,
                    (16 * ndev * k * k) as f64,
                );
                w.downlink(s1, |_| 8 * k * k);
                w.each(s1, |_, sh| {
                    self.model.gemm_nn_time(GemmVariant::Batched { h: 384 }, sh.nl, k, k)
                });
            }
        }
    }

    /// Norm reduction + broadcast + scale of one column.
    fn walk_normalize(&self, w: &mut Walk<'_>, s1: &[DevShapes]) {
        w.each(s1, |_, sh| self.model.blas1_time(2 * sh.nl));
        self.walk_reduce(w, s1, 1);
        w.broadcast(8);
        w.each(s1, |_, sh| self.model.blas1_time(2 * sh.nl));
    }

    /// Butterfly reduce of `len` doubles per device: per-link uploads the
    /// host waits on, then a host-side combine.
    fn walk_reduce(&self, w: &mut Walk<'_>, s1: &[DevShapes], len: usize) {
        w.uplink(s1, |_| 8 * len);
        let n = s1.len();
        w.host_compute((n * len) as f64, (16 * n * len) as f64);
    }
}

/// Per-device clocks walked through one cycle's charge sequence —
/// the closed-form mirror of the executor's `Schedule::Barrier`
/// accounting.
struct Walk<'m> {
    model: &'m PerfModel,
    dev: Vec<f64>,
    host: f64,
    slow: Vec<f64>,
    /// Total PCIe link occupancy charged (sum over copies of per-copy
    /// link seconds) — [`PhasePrediction::comm_s`].
    comm: f64,
}

impl<'m> Walk<'m> {
    fn new(model: &'m PerfModel, ndev: usize, slow: &[f64]) -> Self {
        Self { model, dev: vec![0.0; ndev], host: 0.0, slow: slow.to_vec(), comm: 0.0 }
    }

    /// Charge a device kernel, scaled by the device's slowdown.
    fn each<F: Fn(usize, &DevShapes) -> f64>(&mut self, shapes: &[DevShapes], f: F) {
        for (d, sh) in shapes.iter().enumerate() {
            self.dev[d] += f(d, sh) * self.slow[d];
        }
    }

    /// Synchronous per-device uploads: the host waits on every arrival,
    /// then pays one message cost per non-empty payload.
    fn uplink<F: Fn(&DevShapes) -> usize>(&mut self, shapes: &[DevShapes], bytes: F) {
        let mut ready = self.host;
        let mut msgs = 0usize;
        for (d, sh) in shapes.iter().enumerate() {
            let b = bytes(sh);
            if b > 0 {
                let t = self.model.pcie_time(b);
                ready = ready.max(self.dev[d] + t);
                self.comm += t;
                msgs += 1;
            }
        }
        self.host = ready + msgs as f64 * self.model.param("host_msg_s").unwrap_or(0.0);
    }

    /// Synchronous per-device downloads: each device waits only for its
    /// own arrival; the host pays the message costs in parallel.
    fn downlink<F: Fn(&DevShapes) -> usize>(&mut self, shapes: &[DevShapes], bytes: F) {
        let mut msgs = 0usize;
        for (d, sh) in shapes.iter().enumerate() {
            let b = bytes(sh);
            if b > 0 {
                let t = self.model.pcie_time(b);
                self.dev[d] = self.dev[d].max(self.host + t);
                self.comm += t;
                msgs += 1;
            }
        }
        self.host += msgs as f64 * self.model.param("host_msg_s").unwrap_or(0.0);
    }

    fn broadcast(&mut self, b: usize) {
        let msgs = self.dev.len();
        let t = self.model.pcie_time(b);
        for d in 0..msgs {
            self.dev[d] = self.dev[d].max(self.host + t);
        }
        self.comm += msgs as f64 * t;
        self.host += msgs as f64 * self.model.param("host_msg_s").unwrap_or(0.0);
    }

    fn host_compute(&mut self, flops: f64, bytes: f64) {
        self.host += self.model.host_time(flops, bytes);
    }

    /// Barrier: flatten every clock to the running max.
    fn sync(&mut self) {
        let t = self.span();
        self.host = t;
        for d in &mut self.dev {
            *d = t;
        }
    }

    fn span(&self) -> f64 {
        self.dev.iter().fold(self.host, |a, &b| a.max(b))
    }
}

/// Advance the phase mark to the walk's current frontier, returning the
/// delta. Consecutive calls partition the cycle span exactly (the
/// frontier is monotone), so phase attributions never overlap.
fn attr(w: &Walk<'_>, mark: &mut f64) -> f64 {
    let t = w.span();
    let d = t - *mark;
    *mark = t;
    d
}

/// Extract the walker's shape summary from a real `MpkPlan` analysis —
/// the same boundary-set computation the executor will load, so padded
/// widths and halo sizes match exactly.
fn shapes(a: &Csr, layout: &Layout, s: usize) -> Vec<DevShapes> {
    let plan = MpkPlan::new(a, layout, s);
    plan.devs
        .iter()
        .map(|dp| {
            let nl = dp.local.len();
            let shape = |rows: usize, width: Option<usize>| SpmvShape {
                slots: width.unwrap_or(0) * rows,
                spilled: 0,
                rows,
            };
            let local = shape(nl, dp.local.clone().map(|i| a.row_nnz(i)).max());
            let levels = dp
                .levels
                .iter()
                .map(|lv| shape(lv.len(), lv.iter().map(|&r| a.row_nnz(r as usize)).max()));
            let slices: Vec<SpmvShape> = std::iter::once(local).chain(levels).collect();
            let slice_bytes = 12 * slices.iter().map(|sl| sl.slots).sum::<usize>();
            DevShapes { nl, slices, nsend: dp.send.len(), nneed: dp.need.len(), slice_bytes }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_sparse::gen::laplace2d;

    fn rhs(n: usize) -> Vec<f64> {
        (0..n).map(|i| 1.0 + (i as f64 * 0.37).sin()).collect()
    }

    fn planner(a: &Csr, m: usize) -> Planner<'_> {
        Planner::new(a, m, PerfModel::default(), KernelConfig::default())
    }

    #[test]
    fn prediction_matches_simulation_within_tolerance() {
        // the acceptance bar is 25%; the walker should be far tighter on
        // a healthy machine with a Newton basis
        let a = laplace2d(24, 24);
        let p = planner(&a, 20);
        for cand in [
            Candidate {
                s: 5,
                basis: BasisChoice::Newton,
                tsqr: TsqrKind::CholQr,
                borth: BorthKind::Cgs,
                kernel: KernelMode::Mpk,
                ndev: 3,
                ordering: Ordering::Natural,
                reorth: false,
                prec: Precision::F64,
            },
            Candidate {
                s: 4,
                basis: BasisChoice::Monomial,
                tsqr: TsqrKind::Caqr,
                borth: BorthKind::Cgs,
                kernel: KernelMode::Spmv,
                ndev: 2,
                ordering: Ordering::Natural,
                reorth: false,
                prec: Precision::F64,
            },
            Candidate {
                s: 5,
                basis: BasisChoice::Newton,
                tsqr: TsqrKind::Mgs,
                borth: BorthKind::Cgs,
                kernel: KernelMode::Mpk,
                ndev: 1,
                ordering: Ordering::Natural,
                reorth: false,
                prec: Precision::F64,
            },
            Candidate {
                s: 5,
                basis: BasisChoice::Newton,
                tsqr: TsqrKind::CgsFused,
                borth: BorthKind::Cgs,
                kernel: KernelMode::Mpk,
                ndev: 2,
                ordering: Ordering::Natural,
                reorth: false,
                prec: Precision::F64,
            },
            Candidate {
                s: 5,
                basis: BasisChoice::Newton,
                tsqr: TsqrKind::CaqrTree,
                borth: BorthKind::Cgs,
                kernel: KernelMode::Mpk,
                ndev: 3,
                ordering: Ordering::Natural,
                reorth: false,
                prec: Precision::F64,
            },
        ] {
            let chk = p.cross_validate(&cand, &rhs(a.nrows()), 5);
            assert!(
                chk.rel_err < 0.10,
                "{}: predicted {:.3e} actual {:.3e} (rel {:.3})",
                cand.label(),
                chk.predicted_cycle_s,
                chk.actual_cycle_s,
                chk.rel_err
            );
        }
    }

    #[test]
    fn plan_ranks_and_prunes() {
        let a = laplace2d(16, 16);
        let p = planner(&a, 20);
        let plan = p.plan(&CandidateSpace::paper(3));
        assert!(!plan.ranked.is_empty());
        // ranked ascending
        for w in plan.ranked.windows(2) {
            assert!(w[0].predicted_cycle_s <= w[1].predicted_cycle_s);
        }
        // monomial s=20 must be pruned by the basis cap, and CholQR at
        // s=8 monomial by the condition guard
        assert!(plan.pruned.iter().any(|(c, r)| {
            matches!(c.basis, BasisChoice::Monomial) && c.s == 20 && r.contains("IV-A")
        }));
        assert!(plan.pruned.iter().any(|(c, r)| {
            matches!(c.basis, BasisChoice::Monomial)
                && c.tsqr == TsqrKind::CholQr
                && c.s == 8
                && r.contains("CholQR")
        }));
        // no pruned candidate violates the caps silently in ranked
        let l = PlannerLimits::default();
        for r in &plan.ranked {
            let cap = match r.cand.basis {
                BasisChoice::Monomial => l.s_cap_monomial,
                _ => l.s_cap_shifted,
            };
            assert!(r.cand.s <= cap);
        }
    }

    #[test]
    fn slowdown_shifts_the_prediction() {
        let a = laplace2d(16, 16);
        let p = planner(&a, 10);
        let cand = Candidate {
            s: 5,
            basis: BasisChoice::Newton,
            tsqr: TsqrKind::CholQr,
            borth: BorthKind::Cgs,
            kernel: KernelMode::Mpk,
            ndev: 2,
            ordering: Ordering::Natural,
            reorth: false,
            prec: Precision::F64,
        };
        let (ap, _perm, layout) = prepare(&a, Ordering::Natural, 2);
        let healthy = p.predict_for_layout(&ap, &layout, &cand, &[1.0, 1.0]);
        let degraded = p.predict_for_layout(&ap, &layout, &cand, &[1.0, 4.0]);
        assert!(degraded > healthy * 1.5, "degraded {degraded:e} vs healthy {healthy:e}");
    }

    #[test]
    fn f32_mpk_candidate_predicts_faster_and_cross_validates() {
        let a = laplace2d(24, 24);
        let p = planner(&a, 20);
        let f64_cand = Candidate {
            s: 5,
            basis: BasisChoice::Newton,
            tsqr: TsqrKind::CholQr,
            borth: BorthKind::Cgs,
            kernel: KernelMode::Mpk,
            ndev: 3,
            ordering: Ordering::Natural,
            reorth: false,
            prec: Precision::F64,
        };
        let f32_cand = Candidate { prec: Precision::F32, ..f64_cand };
        let t64 = p.predict_cycle(&f64_cand);
        let t32 = p.predict_cycle(&f32_cand);
        assert!(
            t32 < t64,
            "f32 MPK slices and halos must predict a faster cycle: {t32:e} vs {t64:e}"
        );
        // the walker mirrors the executor's f32 charges, so the
        // prediction must hold up against a real simulated f32 run too
        let chk = p.cross_validate(&f32_cand, &rhs(a.nrows()), 5);
        assert!(
            chk.rel_err < 0.10,
            "{}: predicted {:.3e} actual {:.3e} (rel {:.3})",
            f32_cand.label(),
            chk.predicted_cycle_s,
            chk.actual_cycle_s,
            chk.rel_err
        );
    }

    #[test]
    fn f32_monomial_caps_prune_harder_than_f64() {
        let a = laplace2d(16, 16);
        let p = planner(&a, 20);
        let base = Candidate {
            s: 8,
            basis: BasisChoice::Monomial,
            tsqr: TsqrKind::Cgs,
            borth: BorthKind::Cgs,
            kernel: KernelMode::Mpk,
            ndev: 2,
            ordering: Ordering::Natural,
            reorth: false,
            prec: Precision::F64,
        };
        // s = 8 monomial: at the f64 cap, over the f32 cap
        assert!(p.prune_reason(&base).is_none());
        let f32_cand = Candidate { prec: Precision::F32, ..base };
        let reason = p.prune_reason(&f32_cand).expect("f32 monomial s=8 must be pruned");
        assert!(reason.contains("f32 monomial"), "{reason}");
        // CholQR monomial: s = 5 survives in f64, trips the f32 guard
        let chol = Candidate { s: 5, tsqr: TsqrKind::CholQr, ..base };
        assert!(p.prune_reason(&chol).is_none());
        let chol32 = Candidate { prec: Precision::F32, ..chol };
        let reason = p.prune_reason(&chol32).expect("f32 CholQR monomial s=5 must be pruned");
        assert!(reason.contains("CholQR"), "{reason}");
        // shifted bases keep the f64 caps in f32
        let newton32 = Candidate { s: 15, basis: BasisChoice::Newton, ..f32_cand };
        assert!(p.prune_reason(&newton32).is_none());
    }

    #[test]
    fn mixed_space_ranks_f32_variants_without_duplicates() {
        let a = laplace2d(16, 16);
        let p = planner(&a, 20);
        let plan = p.plan(&CandidateSpace::mixed(2));
        // every f32 survivor runs MPK and is marked in its label
        let f32_ranked: Vec<_> =
            plan.ranked.iter().filter(|r| r.cand.prec == Precision::F32).collect();
        assert!(!f32_ranked.is_empty());
        for r in &f32_ranked {
            assert!(r.cand.uses_mpk(), "{}", r.cand.label());
            assert!(r.cand.label().contains(" f32"), "{}", r.cand.label());
        }
        // labels stay unique across the precision dimension
        let mut labels: Vec<String> = plan.ranked.iter().map(|r| r.cand.label()).collect();
        let total = labels.len();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), total);
        // an f32 candidate outranks its own f64 spelling whenever both
        // survive (halved MPK bytes can only help the predicted cycle)
        for r in &f32_ranked {
            let twin = Candidate { prec: Precision::F64, ..r.cand };
            if let Some(t) = plan.ranked.iter().find(|x| x.cand == twin) {
                assert!(r.predicted_cycle_s < t.predicted_cycle_s, "{}", r.cand.label());
            }
        }
        // the f64 half of the mixed plan is exactly the f64-only plan
        let f64_only = p.plan(&CandidateSpace::paper(2));
        let f64_ranked: Vec<_> =
            plan.ranked.iter().filter(|r| r.cand.prec == Precision::F64).collect();
        assert_eq!(f64_only.ranked.len(), f64_ranked.len());
        for (a, b) in f64_only.ranked.iter().zip(&f64_ranked) {
            assert_eq!(a.cand, b.cand);
            assert_eq!(a.predicted_cycle_s.to_bits(), b.predicted_cycle_s.to_bits());
        }
    }

    #[test]
    fn solver_config_carries_the_candidate_precision() {
        let cand = Candidate {
            s: 5,
            basis: BasisChoice::Newton,
            tsqr: TsqrKind::CholQr,
            borth: BorthKind::Cgs,
            kernel: KernelMode::Mpk,
            ndev: 2,
            ordering: Ordering::Natural,
            reorth: false,
            prec: Precision::F32,
        };
        assert_eq!(cand.solver_config(20, 1e-8, 50).mpk_prec, Precision::F32);
        let f64_cand = Candidate { prec: Precision::F64, ..cand };
        assert_eq!(f64_cand.solver_config(20, 1e-8, 50).mpk_prec, Precision::F64);
        // f64 labels keep the pre-precision spelling
        assert_eq!(f64_cand.label(), "s=5 newton CholQR+bcgs mpk d=2 natural");
        assert_eq!(cand.label(), "s=5 newton CholQR+bcgs mpk f32 d=2 natural");
    }

    #[test]
    fn candidate_labels_are_unique_in_a_plan() {
        let a = laplace2d(12, 12);
        let p = planner(&a, 10);
        let plan = p.plan(&CandidateSpace::smoke(2));
        let mut labels: Vec<String> = plan.ranked.iter().map(|r| r.cand.label()).collect();
        let total = labels.len();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), total);
    }

    #[test]
    fn phase_prediction_partitions_the_cycle() {
        let a = laplace2d(24, 24);
        let p = planner(&a, 20);
        let cand = Candidate {
            s: 5,
            basis: BasisChoice::Newton,
            tsqr: TsqrKind::CholQr,
            borth: BorthKind::Cgs,
            kernel: KernelMode::Mpk,
            ndev: 3,
            ordering: Ordering::Natural,
            reorth: false,
            prec: Precision::F64,
        };
        let pred = p.predict_phases(&cand);
        let ph = pred.phases;
        assert_eq!(ph.cycles, 1);
        // the scalar prediction is the phase prediction's span, exactly
        assert_eq!(ph.cycle_s.to_bits(), p.predict_cycle(&cand).to_bits());
        // phases are non-negative and sum to at most the cycle (seed and
        // residual-norm bookkeeping stay unattributed)
        for t in [ph.spmv_s, ph.borth_s, ph.tsqr_s, ph.small_s] {
            assert!(t >= 0.0);
        }
        let parts = ph.spmv_s + ph.borth_s + ph.tsqr_s + ph.small_s;
        assert!(parts <= ph.cycle_s * (1.0 + 1e-12), "{parts} > {}", ph.cycle_s);
        assert!(parts >= 0.9 * ph.cycle_s, "phases cover most of the cycle");
        // a 3-device plan moves real bytes
        assert!(pred.comm_s > 0.0);
        // shares are a probability-like split
        let shares = [ph.spmv_share(), ph.borth_share(), ph.tsqr_share(), ph.small_share()];
        assert!(shares.iter().all(|&s| (0.0..=1.0).contains(&s)));
        assert_eq!(ph.max_share_deviation(&ph), 0.0);
    }

    #[test]
    fn degraded_link_shifts_predicted_shares_toward_comm_phases() {
        let a = laplace2d(24, 24);
        let cand = Candidate {
            s: 5,
            basis: BasisChoice::Newton,
            tsqr: TsqrKind::CholQr,
            borth: BorthKind::Cgs,
            kernel: KernelMode::Mpk,
            ndev: 3,
            ordering: Ordering::Natural,
            reorth: false,
            prec: Precision::F64,
        };
        let clean = planner(&a, 20).predict_phases(&cand);
        // mirror the executor's link fail-slow: the whole per-copy time
        // (latency + transfer) scales by the multiplier
        let mut slow_model = PerfModel::default();
        let bw = slow_model.param("pcie_bw").unwrap();
        let lat = slow_model.param("pcie_latency_s").unwrap();
        assert!(slow_model.set_param("pcie_bw", bw / 8.0));
        assert!(slow_model.set_param("pcie_latency_s", lat * 8.0));
        let p = Planner::new(&a, 20, slow_model, KernelConfig::default());
        let degraded = p.predict_phases(&cand);
        assert!(degraded.phases.cycle_s > clean.phases.cycle_s);
        assert!(degraded.comm_s > clean.comm_s);
        // the phase mix visibly drifts — the signal the retuner keys on
        let dev = degraded.phases.max_share_deviation(&clean.phases);
        assert!(dev > 0.01, "share deviation {dev} too small to detect");
    }
}
