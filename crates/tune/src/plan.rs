//! The planner: a pruned search over CA-GMRES configurations scored by
//! running each one.
//!
//! Prediction is execution on a cost-only machine. For every layout the
//! planner builds ([`ca_gpusim::MultiGpu::cost_only`]) the simulated machine
//! the solve would run on once, with buffers that carry their shape and no
//! storage and kernels that are charged and compute nothing; for every
//! candidate it loads the shape-only [`System`] onto it — the `MpkPlan`
//! analysis is the real one, nothing is converted or stored — reads what
//! each device holds, and runs one restart cycle of the solver itself
//! ([`ca_gmres::cagmres::ca_cycle`], the body of `ca_gmres`'s restart loop)
//! under `Schedule::Barrier` ([`Planner::predict`]). The cycle's end-to-end
//! span and the solver's own phase timers are the prediction. Nothing here knows
//! which kernels a cycle launches or in what order: the charge sequence
//! exists once, in `ca-gmres`, and what the planner reads is what a real
//! simulated solve measures wherever the solver's charges do not depend on
//! data (the exceptions are breakdowns and fused-CGS's cancellation
//! fallback, which the neutral kernel values never take).
//!
//! The search space is pruned by the paper's stability constraints
//! before scoring (§IV-A: the monomial basis loses full rank beyond
//! small `s`; §V-C: CholQR squares the basis condition number, so its
//! usable `s` is capped harder), and by a device-memory feasibility
//! check. The result is a ranked list; [`Planner::cross_validate`]
//! replays a pick through one real simulated solve and reports the
//! prediction error.

use crate::profile::MachineProfile;
use crate::rig::Rig;
use ca_gmres::mpk::SpmvFormat;
use ca_gmres::prelude::*;
use ca_gpusim::faults::Result as GpuResult;
use ca_gpusim::{GpuSimError, KernelConfig, MultiGpu, PerfModel};
use ca_obs::unobserved;
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
}

/// Fraction of device memory a candidate may plan to use.
pub const MEM_FRAC: f64 = 0.9;

impl Default for PlannerLimits {
    fn default() -> Self {
        Self {
            s_cap_monomial: 8,
            s_cap_shifted: 20,
            cholqr_s_cap_monomial: 5,
            cholqr_s_cap_shifted: 12,
            s_cap_monomial_f32: 6,
            cholqr_s_cap_monomial_f32: 3,
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

    /// The points of the grid on one `(ordering, ndev)` layout, deepest `s`
    /// first and grouped by `(s, precision)`, the order one machine prices
    /// them in with the fewest MPK analyses and loads. `Mpk` at `s = 1`
    /// collapses to `Spmv`, and f32 only touches the MPK path: only the
    /// canonical spellings are listed.
    fn grid(&self, ordering: Ordering, ndev: usize) -> Vec<Candidate> {
        let mut s_values: Vec<usize> = self.s_values.iter().copied().filter(|&s| s >= 1).collect();
        s_values.sort_unstable_by(|x, y| y.cmp(x));
        let reorths: &[bool] = if self.reorth { &[false, true] } else { &[false] };
        let mut grid = Vec::new();
        for s in s_values {
            for &prec in &self.precisions {
                for &kernel in &self.kernels {
                    for &basis in &self.bases {
                        for &tsqr in &self.tsqrs {
                            for &borth in &self.borths {
                                for &reorth in reorths {
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
                                    let mpk_spelled = !matches!(kernel, KernelMode::Spmv);
                                    let duplicate = (s == 1 && mpk_spelled)
                                        || (prec == Precision::F32 && !cand.uses_mpk());
                                    if !duplicate {
                                        grid.push(cand);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        grid
    }
}

/// A scored survivor of the pruned search.
#[derive(Debug, Clone)]
pub struct RankedCandidate {
    /// The configuration.
    pub cand: Candidate,
    /// Predicted time of one CA restart cycle, seconds.
    pub predicted_cycle_s: f64,
    /// Device-memory footprint, bytes per device, read where the cycle was
    /// timed ([`Planner::predict`]).
    pub mem_bytes_per_dev: Vec<usize>,
}

/// Why [`Planner::plan`] dropped a candidate instead of scoring it.
/// `Display` prints the sentence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PruneReason {
    /// `s` exceeds the restart length.
    StepExceedsRestart {
        /// The candidate's step size.
        s: usize,
        /// The planner's restart length.
        m: usize,
    },
    /// Basis step cap (paper §IV-A): the basis condition grows like
    /// `kappa^s`.
    BasisStepCap {
        /// The basis context the cap belongs to.
        basis: &'static str,
        /// The candidate's step size.
        s: usize,
        /// The largest step size allowed.
        cap: usize,
    },
    /// CholQR condition guard (paper §V-C): the Gram matrix squares the
    /// block condition.
    CholQrGuard {
        /// The basis context the cap belongs to.
        basis: &'static str,
        /// The candidate's step size.
        s: usize,
        /// The largest step size allowed.
        cap: usize,
    },
    /// A device cannot hold the candidate's basis, work vectors and slices.
    DeviceMemory {
        /// The (first) device over budget.
        device: usize,
        /// Bytes the candidate needs there.
        need: f64,
        /// Bytes it may use.
        budget: f64,
    },
}

impl std::fmt::Display for PruneReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Self::StepExceedsRestart { s, m } => write!(f, "s={s} exceeds restart length m={m}"),
            Self::BasisStepCap { basis, s, cap } => write!(
                f,
                "{basis}-basis step cap: condition grows like kappa^s, s={s} > {cap} (paper §IV-A)"
            ),
            Self::CholQrGuard { basis, s, cap } => write!(
                f,
                "CholQR condition guard: Gram matrix squares the block condition, \
                 s={s} > {cap} for a {basis} basis (paper §V-C)"
            ),
            Self::DeviceMemory { device, need, budget } => {
                let mib = (1 << 20) as f64;
                write!(
                    f,
                    "device {device} needs {:.1} MiB of {:.1} MiB budget",
                    need / mib,
                    budget / mib
                )
            }
        }
    }
}

/// Output of [`Planner::plan`]: survivors ranked fastest-first, plus the
/// pruned candidates with the constraint that removed each.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Feasible candidates, ascending predicted cycle time.
    pub ranked: Vec<RankedCandidate>,
    /// Pruned candidates and why.
    pub pruned: Vec<(Candidate, PruneReason)>,
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
    /// The planner's predicted cycle time.
    pub predicted_cycle_s: f64,
    /// Mean simulated CA-cycle time (`ca_stats.t_total / restarts`).
    pub actual_cycle_s: f64,
    /// `|predicted - actual| / actual`.
    pub rel_err: f64,
    /// End-to-end simulated time of the validation run.
    pub tts_s: f64,
}

/// Cost-model planner for one matrix and restart length.
#[derive(Debug, Clone)]
pub struct Planner<'a> {
    pub(crate) a: &'a Csr,
    pub(crate) m: usize,
    pub(crate) model: PerfModel,
    config: KernelConfig,
    /// Pruning thresholds.
    pub limits: PlannerLimits,
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

    /// Enumerate `space`, prune, score, and rank. Each `(ordering, ndev)`
    /// layout's survivors of the stability caps are priced on one machine
    /// ([`Planner::predict`]), deepest `s` first so that one MPK analysis
    /// serves every shallower plan, and held against [`MEM_FRAC`].
    #[must_use]
    pub fn plan(&self, space: &CandidateSpace) -> Plan {
        let mut plan = Plan { ranked: Vec::new(), pruned: Vec::new() };
        for &ordering in &space.orderings {
            for &ndev in space.ndevs.iter().filter(|&&d| d > 0 && d <= self.a.nrows()) {
                let (ap, _perm, layout) = prepare(self.a, ordering, ndev);
                let cands = space.grid(ordering, ndev);
                let reasons: Vec<_> = cands.iter().map(|c| self.prune_reason(c)).collect();
                let survivors: Vec<Candidate> = cands
                    .iter()
                    .zip(&reasons)
                    .filter(|(_, r)| r.is_none())
                    .map(|(c, _)| *c)
                    .collect();
                let mut priced =
                    self.predict(&ap, &layout, &survivors, &vec![1.0; ndev]).into_iter();
                for (cand, reason) in cands.into_iter().zip(reasons) {
                    let scored = match reason {
                        Some(reason) => Err(reason),
                        None => match priced.next().expect("a price per survivor") {
                            Err(e) => Err(self.out_of_memory(&e)),
                            Ok((phases, bytes)) => match self.mem_infeasible(&bytes) {
                                Some(reason) => Err(reason),
                                None => Ok(RankedCandidate {
                                    cand,
                                    predicted_cycle_s: phases.cycle_s,
                                    mem_bytes_per_dev: bytes,
                                }),
                            },
                        },
                    };
                    match scored {
                        Ok(ranked) => plan.ranked.push(ranked),
                        Err(reason) => plan.pruned.push((cand, reason)),
                    }
                }
            }
        }
        plan.ranked.sort_by(|x, y| {
            x.predicted_cycle_s
                .total_cmp(&y.predicted_cycle_s)
                .then_with(|| x.cand.label().cmp(&y.cand.label()))
        });
        plan
    }

    /// Predict by execution: build the cost-only machine for `layout` of the
    /// already-distributed matrix `a` once (see [`crate::rig`]), then, for
    /// each of `cands` in turn, load the shape-only system it runs on, read
    /// what each device holds, and time one restart cycle of the solver
    /// itself there. `slow[d]` multiplies device `d`'s kernel times (the
    /// [`crate::retune::Retuner`] passes the health report's latency EWMA);
    /// the candidates' `ordering` and `ndev` are ignored in favor of
    /// `layout`. A candidate's price does not depend on the ones before it:
    /// each is what a machine built for it alone reads, to the bit. Listing
    /// the deepest `s` first analyses the MPK plan once.
    ///
    /// The bytes are the footprint per device: the basis panel (`m + 4`
    /// columns), the SpMV/MPK work vectors and the plans' sparse slices —
    /// to the byte what an arithmetic machine accounts after
    /// `System::with_format`. Service admission evicts by them before a
    /// cold build (a solve also holds what its driver adds, e.g. the ABFT
    /// checksum vectors; an allocation that still fails is typed).
    ///
    /// The phases come in the shape the solver's host phase spans (`spmv`,
    /// `borth`, `tsqr`, `small`) are observed in, as an observation of one
    /// cycle (`cycles == 1`): `cycle_s` is the end-to-end span, closing
    /// residual included; the parts are what the solver's own phase timers
    /// read (`SolveStats`): `spmv_s` basis generation plus the explicit
    /// residual, `borth_s` the block-orthogonalization projection passes,
    /// `tsqr_s` the panel factorizations, `small_s` the host dense math. The
    /// [`crate::retune::Retuner`] compares these shares against the live
    /// phase-time deltas the fault-tolerant driver feeds it
    /// ([`ca_gmres::ft::RestartTuner::observe_phases`]) to catch drift — e.g.
    /// a degraded PCIe link — that the kernel-only busy-time EWMA cannot see.
    /// What comes back is what a real simulated solve measures per CA cycle,
    /// by construction, wherever the solver's charges do not depend on data.
    ///
    /// `spmv_s + borth_s + tsqr_s + small_s <= cycle_s`: the seed and the
    /// solution update sit in no phase, exactly as in the solver's span
    /// attribution, so predicted and observed shares share a denominator.
    ///
    /// # Errors
    /// Per candidate, [`GpuSimError::OutOfMemory`] when a device cannot hold
    /// it.
    pub fn predict(
        &self,
        a: &Csr,
        layout: &Layout,
        cands: &[Candidate],
        slow: &[f64],
    ) -> Vec<GpuResult<(PhaseRatios, Vec<usize>)>> {
        assert_eq!(slow.len(), layout.ndev());
        let mut rig = match Rig::new(a, layout, self.m, &self.model, self.config) {
            Ok(rig) => rig,
            Err(e) => return vec![Err(e); cands.len()],
        };
        let mut price = |cand: &Candidate| {
            rig.load_mpk(cand)?;
            let bytes = rig.mem_used();
            Ok((unobserved(|| rig.time_cycle(cand, slow)), bytes))
        };
        cands.iter().map(&mut price).collect()
    }

    /// Replay `cand` through one real simulated solve — the same build and
    /// the same cycles as the prediction, on an arithmetic machine, with a
    /// fixed budget of `restarts` and `rtol = 0` so every cycle runs the
    /// full `m` columns — and compare. The fields of a candidate the
    /// machine cannot hold are not numbers ([`Planner::predict`] says why).
    #[must_use]
    pub fn cross_validate(&self, cand: &Candidate, b: &[f64], restarts: usize) -> CrossCheck {
        let (ap, perm, layout) = prepare(self.a, cand.ordering, cand.ndev);
        let priced = self.predict(&ap, &layout, &[*cand], &vec![1.0; cand.ndev]);
        let predicted = priced[0].as_ref().map_or(f64::INFINITY, |(phases, _)| phases.cycle_s);
        let bp = ca_sparse::perm::permute_vec(b, &perm);
        let cfg = cand.solver_config(self.m, 0.0, restarts);
        let solve = || -> GpuResult<CaGmresOutcome> {
            let mut mg = MultiGpu::new(cand.ndev, self.model.clone(), self.config);
            let (s, format) = (Some(cfg.s), SpmvFormat::Ell);
            let sys = System::with_format(&mut mg, &ap, layout, cfg.m, s, format, cand.prec)?;
            sys.load_rhs(&mut mg, &bp)?;
            Ok(ca_gmres(&mut mg, &sys, &cfg))
        };
        let (actual, tts_s) = match solve() {
            Ok(out) if out.ca_stats.restarts > 0 => {
                (out.ca_stats.t_total / out.ca_stats.restarts as f64, out.stats.t_total)
            }
            Ok(out) => (f64::NAN, out.stats.t_total),
            Err(_) => (f64::NAN, f64::NAN),
        };
        CrossCheck {
            predicted_cycle_s: predicted,
            actual_cycle_s: actual,
            rel_err: ((predicted - actual) / actual).abs(),
            tts_s,
        }
    }

    /// Stability pruning (the paper's §IV-A and §V-C constraints):
    /// `Some(reason)` if `c` is rejected before scoring.
    pub fn prune_reason(&self, c: &Candidate) -> Option<PruneReason> {
        if c.s > self.m {
            return Some(PruneReason::StepExceedsRestart { s: c.s, m: self.m });
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
            return Some(PruneReason::BasisStepCap { basis, s: c.s, cap });
        }
        if matches!(c.tsqr, TsqrKind::CholQr | TsqrKind::CholQrMixed) && c.s > cholqr_cap {
            return Some(PruneReason::CholQrGuard { basis, s: c.s, cap: cholqr_cap });
        }
        None
    }

    /// Device-memory feasibility: what a candidate holds on each device —
    /// its basis panel, work vectors and slices — must fit in [`MEM_FRAC`]
    /// of that device's memory.
    fn mem_infeasible(&self, bytes: &[usize]) -> Option<PruneReason> {
        let budget = self.model.dev_mem_capacity as f64 * MEM_FRAC;
        let over = |(device, &need): (usize, &usize)| {
            let need = need as f64;
            (need > budget).then_some(PruneReason::DeviceMemory { device, need, budget })
        };
        bytes.iter().enumerate().find_map(over)
    }

    /// A failed build as the prune reason it is: the device was asked for
    /// more than its whole memory has left.
    fn out_of_memory(&self, e: &GpuSimError) -> PruneReason {
        let GpuSimError::OutOfMemory { device, requested, free } = *e else {
            unreachable!("building on a machine without a fault plan fails for memory only")
        };
        let capacity = self.model.dev_mem_capacity;
        let need = (capacity - free + requested) as f64;
        PruneReason::DeviceMemory { device, need, budget: capacity as f64 }
    }
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

    /// [`Planner::predict`] of `cand` alone, on its own ordering and device
    /// count of `p`'s matrix, on a healthy machine.
    fn priced(p: &Planner<'_>, cand: &Candidate) -> GpuResult<(PhaseRatios, Vec<usize>)> {
        let (ap, _perm, layout) = prepare(p.a, cand.ordering, cand.ndev);
        p.predict(&ap, &layout, &[*cand], &vec![1.0; cand.ndev]).remove(0)
    }

    /// The phases [`priced`] reads.
    fn phases(p: &Planner<'_>, cand: &Candidate) -> PhaseRatios {
        priced(p, cand).expect("the machine holds it").0
    }

    /// Every orthogonalization, generator, precision and device count on a
    /// matrix, against the arithmetic run: cycle time and every phase part.
    fn assert_prediction_is_exact(a: &Csr) {
        let p = planner(a, 12);
        let b = rhs(a.nrows());
        let tsqrs = [
            TsqrKind::Mgs,
            TsqrKind::Cgs,
            TsqrKind::CgsFused,
            TsqrKind::CholQr,
            TsqrKind::CholQrMixed,
            TsqrKind::SvQr,
            TsqrKind::Caqr,
            TsqrKind::CaqrTree,
        ];
        let generators = [
            (KernelMode::Mpk, Precision::F64),
            (KernelMode::Mpk, Precision::F32),
            (KernelMode::Spmv, Precision::F64),
        ];
        for tsqr in tsqrs {
            for borth in [BorthKind::Cgs, BorthKind::Mgs] {
                for (kernel, prec) in generators {
                    for reorth in [false, true] {
                        for ndev in 1..=3 {
                            let cand = Candidate {
                                s: 4,
                                basis: BasisChoice::Newton,
                                tsqr,
                                borth,
                                kernel,
                                ndev,
                                ordering: Ordering::Natural,
                                reorth,
                                prec,
                            };
                            let label = cand.label();
                            let chk = p.cross_validate(&cand, &b, 3);
                            if tsqr == TsqrKind::CgsFused {
                                // the one charge that depends on data: a column
                                // that cancels pays the footnote-5 fallback's
                                // extra reduction, which no neutral value takes
                                // (exact without it: see the next test)
                                assert!(chk.predicted_cycle_s <= chk.actual_cycle_s, "{label}");
                                continue;
                            }
                            assert!(
                                chk.rel_err <= 1e-12,
                                "{label}: predicted {:e}, actual {:e}",
                                chk.predicted_cycle_s,
                                chk.actual_cycle_s
                            );
                            // the parts, against the arithmetic run's own timers
                            let (ap, perm, layout) = prepare(a, cand.ordering, ndev);
                            let bp = ca_sparse::perm::permute_vec(&b, &perm);
                            let mut mg = MultiGpu::with_defaults(ndev);
                            let cfg = cand.solver_config(12, 0.0, 3);
                            let (s, format) = (Some(cfg.s), SpmvFormat::Ell);
                            let sys =
                                System::with_format(&mut mg, &ap, layout, 12, s, format, prec)
                                    .unwrap();
                            sys.load_rhs(&mut mg, &bp).unwrap();
                            let ca = ca_gmres(&mut mg, &sys, &cfg).ca_stats;
                            let per_cycle = |t: f64| t / ca.restarts as f64;
                            let ph = phases(&p, &cand);
                            // a part is a sum of differences of clock reads:
                            // its rounding scales with the cycle, not with itself
                            let close = |x: f64, y: f64| (x - y).abs() <= 1e-12 * ph.cycle_s;
                            assert!(close(ph.spmv_s, per_cycle(ca.t_spmv)), "{label}: spmv");
                            assert!(close(ph.tsqr_s, per_cycle(ca.t_tsqr)), "{label}: tsqr");
                            assert!(
                                close(ph.borth_s, per_cycle(ca.t_orth - ca.t_tsqr)),
                                "{label}: borth"
                            );
                            assert!(close(ph.small_s, per_cycle(ca.t_small)), "{label}: small");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fused_cgs_prediction_is_exact_when_no_column_cancels() {
        // a cyclic shift started from e_0 generates e_1, e_2, ...: every
        // projection is zero and the Pythagorean norm never cancels
        let n = 600;
        let cols: Vec<u32> = (0..n as u32).map(|i| (i + n as u32 - 1) % n as u32).collect();
        let a = Csr::from_raw(n, n, (0..=n).collect(), cols, vec![1.0; n]);
        let mut b = vec![0.0; n];
        b[0] = 1.0;
        let p = planner(&a, 12);
        for (kernel, reorth, ndev) in
            [(KernelMode::Mpk, false, 1), (KernelMode::Spmv, true, 2), (KernelMode::Mpk, true, 3)]
        {
            let cand = Candidate {
                s: 4,
                basis: BasisChoice::Monomial,
                tsqr: TsqrKind::CgsFused,
                borth: BorthKind::Cgs,
                kernel,
                ndev,
                ordering: Ordering::Natural,
                reorth,
                prec: Precision::F64,
            };
            let chk = p.cross_validate(&cand, &b, 3);
            assert!(chk.rel_err <= 1e-12, "{}: {chk:?}", cand.label());
        }
    }

    #[test]
    fn prediction_is_exact_on_laplace2d() {
        assert_prediction_is_exact(&laplace2d(24, 24));
    }

    #[test]
    fn prediction_is_exact_on_convection_diffusion() {
        assert_prediction_is_exact(&ca_sparse::gen::convection_diffusion(24, 24, 2.0));
    }

    /// What an arithmetic machine accounts as allocated, per device, once
    /// the system `cand` solves on is built.
    fn arithmetic_mem_used(a: &Csr, m: usize, cand: &Candidate) -> Vec<usize> {
        let (ap, _perm, layout) = prepare(a, cand.ordering, cand.ndev);
        let mut mg = MultiGpu::with_defaults(cand.ndev);
        let s = cand.uses_mpk().then_some(cand.s);
        System::with_format(&mut mg, &ap, layout, m, s, SpmvFormat::Ell, cand.prec).unwrap();
        (0..cand.ndev).map(|d| mg.device(d).mem_used()).collect()
    }

    #[test]
    fn mem_estimate_is_the_executors_own_byte_count() {
        let m = 12;
        for a in [laplace2d(24, 24), ca_sparse::gen::cantilever(6, 5, 4)] {
            let p = planner(&a, m);
            for ndev in 1..=3 {
                // one machine serving MPK f64, SpMV and MPK f32 in turn: an
                // MPK candidate's s-step slices must be gone when the SpMV
                // candidate after it is measured
                let space = CandidateSpace {
                    s_values: vec![4],
                    tsqrs: vec![TsqrKind::CholQr],
                    kernels: vec![KernelMode::Mpk, KernelMode::Spmv],
                    precisions: vec![Precision::F64, Precision::F32],
                    ..CandidateSpace::smoke(ndev)
                };
                let plan = p.plan(&space);
                assert_eq!(plan.ranked.len(), 3);
                let mut read: Vec<_> =
                    plan.ranked.iter().map(|r| (r.cand, r.mem_bytes_per_dev.clone())).collect();
                // and the spelling `plan` does not list, priced alone
                let prec = Precision::F32;
                let spmv_f32 = Candidate { kernel: KernelMode::Spmv, prec, ..read[0].0 };
                read.push((spmv_f32, priced(&p, &spmv_f32).unwrap().1));
                for (cand, bytes) in read {
                    assert_eq!(bytes, arithmetic_mem_used(&a, m, &cand), "{}", cand.label());
                }
            }
        }
    }

    /// The invariant [`Planner::predict`] rests on: a list priced on one
    /// machine is each of its candidates priced alone on a machine of its
    /// own, to the bit — the cycle, every phase part and the bytes —
    /// whatever ran on the shared machine before it.
    #[test]
    fn one_rig_prices_a_list_as_fresh_rigs_price_each() {
        let a = laplace2d(24, 24);
        let p = planner(&a, 12);
        let layouts = [Layout::even(a.nrows(), 3), Layout::proportional_nnz(&a, &[1.0, 1.0, 0.25])];
        let mut cands = Vec::new();
        for s in [2, 3, 5, 8] {
            for (kernel, prec) in [
                (KernelMode::Mpk, Precision::F64),
                (KernelMode::Spmv, Precision::F64),
                (KernelMode::Mpk, Precision::F32),
            ] {
                for tsqr in [TsqrKind::Cgs, TsqrKind::CholQr, TsqrKind::Caqr] {
                    cands.push(Candidate {
                        s,
                        basis: BasisChoice::Newton,
                        tsqr,
                        borth: BorthKind::Cgs,
                        kernel,
                        ndev: 3,
                        ordering: Ordering::Natural,
                        reorth: false,
                        prec,
                    });
                }
            }
        }
        let bits = |priced: &GpuResult<(PhaseRatios, Vec<usize>)>| {
            let (ph, bytes) = priced.as_ref().expect("the machine holds it");
            let parts = [ph.cycle_s, ph.spmv_s, ph.borth_s, ph.tsqr_s, ph.small_s];
            (ph.cycles, parts.map(f64::to_bits), bytes.clone())
        };
        for layout in &layouts {
            for slow in [[1.0; 3], [1.0, 1.0, 4.0]] {
                let alone: Vec<_> =
                    cands.iter().map(|c| bits(&p.predict(&a, layout, &[*c], &slow)[0])).collect();
                for descending in [false, true] {
                    let (mut list, mut want) = (cands.clone(), alone.clone());
                    if descending {
                        list.reverse();
                        want.reverse();
                    }
                    let shared: Vec<_> =
                        p.predict(&a, layout, &list, &slow).iter().map(bits).collect();
                    for ((c, got), want) in list.iter().zip(&shared).zip(&want) {
                        assert_eq!(
                            got,
                            want,
                            "{} slow {slow:?} descending {descending}",
                            c.label()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn mem_estimate_of_a_candidate_no_device_can_hold_is_a_typed_error() {
        let a = laplace2d(24, 24);
        let small = PerfModel { dev_mem_capacity: 16 << 10, ..PerfModel::default() };
        let p = Planner::new(&a, 20, small, KernelConfig::default());
        let plan = p.plan(&CandidateSpace::smoke(1));
        assert!(plan.best().is_none());
        let (cand, reason) = &plan.pruned[0];
        assert!(matches!(reason, PruneReason::DeviceMemory { .. }), "{reason}");
        let err = priced(&p, cand).unwrap_err();
        assert!(matches!(err, GpuSimError::OutOfMemory { device: 0, .. }), "{err}");
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
            matches!(c.basis, BasisChoice::Monomial)
                && c.s == 20
                && matches!(r, PruneReason::BasisStepCap { .. })
        }));
        assert!(plan.pruned.iter().any(|(c, r)| {
            matches!(c.basis, BasisChoice::Monomial)
                && c.tsqr == TsqrKind::CholQr
                && c.s == 8
                && matches!(r, PruneReason::CholQrGuard { .. })
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
        let cycle =
            |slow: &[f64]| p.predict(&ap, &layout, &[cand], slow)[0].as_ref().unwrap().0.cycle_s;
        let (healthy, degraded) = (cycle(&[1.0, 1.0]), cycle(&[1.0, 4.0]));
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
        let t64 = phases(&p, &f64_cand).cycle_s;
        let t32 = phases(&p, &f32_cand).cycle_s;
        assert!(
            t32 < t64,
            "f32 MPK slices and halos must predict a faster cycle: {t32:e} vs {t64:e}"
        );
        // the prediction runs the executor's f32 charges, so it must hold
        // up against a real simulated f32 run too
        let chk = p.cross_validate(&f32_cand, &rhs(a.nrows()), 5);
        assert!(
            chk.rel_err < 1e-12,
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
        assert_eq!(reason, PruneReason::BasisStepCap { basis: "f32 monomial", s: 8, cap: 6 });
        assert_eq!(
            reason.to_string(),
            "f32 monomial-basis step cap: condition grows like kappa^s, s=8 > 6 (paper §IV-A)"
        );
        // CholQR monomial: s = 5 survives in f64, trips the f32 guard
        let chol = Candidate { s: 5, tsqr: TsqrKind::CholQr, ..base };
        assert!(p.prune_reason(&chol).is_none());
        let chol32 = Candidate { prec: Precision::F32, ..chol };
        let reason = p.prune_reason(&chol32).expect("f32 CholQR monomial s=5 must be pruned");
        assert!(matches!(reason, PruneReason::CholQrGuard { s: 5, cap: 3, .. }), "{reason}");
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
        let ph = phases(&p, &cand);
        assert_eq!(ph.cycles, 1);
        // the plan's cycle time is the phase prediction's span, exactly
        let plan = p.plan(&CandidateSpace::smoke(3));
        let ranked = plan.ranked.iter().find(|r| r.cand == cand).expect("in the smoke grid");
        assert_eq!(ph.cycle_s.to_bits(), ranked.predicted_cycle_s.to_bits());
        // phases are non-negative and sum to at most the cycle (seed and
        // residual-norm bookkeeping stay unattributed)
        for t in [ph.spmv_s, ph.borth_s, ph.tsqr_s, ph.small_s] {
            assert!(t >= 0.0);
        }
        let parts = ph.spmv_s + ph.borth_s + ph.tsqr_s + ph.small_s;
        assert!(parts <= ph.cycle_s * (1.0 + 1e-12), "{parts} > {}", ph.cycle_s);
        assert!(parts >= 0.9 * ph.cycle_s, "phases cover most of the cycle");
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
        let clean = phases(&planner(&a, 20), &cand);
        // mirror the executor's link fail-slow: the whole per-copy time
        // (latency + transfer) scales by the multiplier
        let mut slow_model = PerfModel::default();
        let bw = slow_model.param("pcie_bw").unwrap();
        let lat = slow_model.param("pcie_latency_s").unwrap();
        assert!(slow_model.set_param("pcie_bw", bw / 8.0));
        assert!(slow_model.set_param("pcie_latency_s", lat * 8.0));
        let p = Planner::new(&a, 20, slow_model, KernelConfig::default());
        let degraded = phases(&p, &cand);
        assert!(degraded.cycle_s > clean.cycle_s);
        // the phase mix visibly drifts — the signal the retuner keys on
        let dev = degraded.max_share_deviation(&clean);
        assert!(dev > 0.01, "share deviation {dev} too small to detect");
    }
}
