//! Prediction by execution: the cost-only machine candidates are timed on.
//!
//! A `Rig` is the simulated machine one layout's solves would run on,
//! built cost-only ([`MultiGpu::cost_only`]): its buffers carry their shape
//! and no storage, its kernels are charged and compute nothing. It holds a
//! shape-only [`System`] — the `MpkPlan` analysis is the real one, nothing
//! is converted or stored — and `Rig::time_cycle` runs one restart cycle
//! of the solver itself on it ([`ca_cycle`], the body of `ca_gmres`'s
//! restart loop). The cycle's span and the solver's own phase timers are the
//! prediction. Nothing here knows which kernels a cycle launches or in what
//! order: the charge sequence exists once, in `ca-gmres`.

use crate::plan::Candidate;
use ca_gmres::mpk::SpmvFormat;
use ca_gmres::prelude::*;
use ca_gpusim::faults::Result as GpuResult;
use ca_gpusim::{KernelConfig, MultiGpu, PerfModel};
use ca_sparse::Csr;

/// Cost-only devices holding a shape-only [`System`]: the basis panel and
/// the s = 1 plan, plus — exactly while the candidate loaded last runs MPK —
/// its s-step plan. What the devices account as allocated is therefore what
/// a solve of that candidate holds ([`Rig::mem_used`]).
pub(crate) struct Rig<'a> {
    a: &'a Csr,
    mg: MultiGpu,
    sys: System,
    /// The deepest s-step analysis made so far: shallower ones are read
    /// off it.
    deepest: Option<MpkPlan>,
}

impl<'a> Rig<'a> {
    /// The machine for `layout` of the (already reordered) matrix `a`, with
    /// the basis panel of restart length `m` and the s = 1 plan loaded.
    pub(crate) fn new(
        a: &'a Csr,
        layout: &Layout,
        m: usize,
        model: &PerfModel,
        config: KernelConfig,
    ) -> GpuResult<Self> {
        let mut mg = MultiGpu::cost_only(layout.ndev(), model.clone(), config);
        let sys = System::new(&mut mg, a, layout.clone(), m, None)?;
        Ok(Self { a, mg, sys, deepest: None })
    }

    /// Bytes allocated on each device: the footprint of the candidate
    /// loaded last, by the executor's own accounting.
    pub(crate) fn mem_used(&self) -> Vec<usize> {
        (0..self.mg.n_gpus()).map(|d| self.mg.device(d).mem_used()).collect()
    }

    /// Have loaded what `cand` runs on and nothing else: the s-step plan of
    /// an MPK candidate — once per `(s, precision)` as long as candidates
    /// arrive grouped by them, and analysed once per layout when the deepest
    /// `s` arrives first — and no s-step plan for any other (the one an
    /// earlier candidate left is released, so that it is not counted against
    /// this one). A failed load leaves no plan loaded.
    pub(crate) fn load_mpk(&mut self, cand: &Candidate) -> GpuResult<()> {
        let (a, mg) = (self.a, &mut self.mg);
        let loaded = |st: &MpkState| (st.plan.s, st.prec) == (cand.s, cand.prec);
        if cand.uses_mpk() && self.sys.mpk.as_ref().is_some_and(loaded) {
            return Ok(());
        }
        if let Some(old) = self.sys.mpk.take() {
            old.release(mg);
        }
        if !cand.uses_mpk() {
            return Ok(());
        }
        let deep = match self.deepest.take() {
            Some(deep) if deep.s >= cand.s => deep,
            _ => MpkPlan::new(a, &self.sys.layout, cand.s),
        };
        let plan = deep.truncated(cand.s);
        self.deepest = Some(deep);
        let marks: Vec<_> = (0..mg.n_gpus()).map(|d| mg.device(d).mem_checkpoint()).collect();
        let resident = Some(&self.sys.spmv);
        let loaded = MpkState::load_as(mg, a, plan, SpmvFormat::Ell, cand.prec, resident);
        if loaded.is_err() {
            marks.iter().enumerate().for_each(|(d, mark)| mg.device_mut(d).mem_rollback(mark));
        }
        self.sys.mpk = Some(loaded?);
        Ok(())
    }

    /// One restart cycle of `cand`, its s-step plan loaded: the solver's own
    /// cycle, every kernel and copy charged and none computed, under
    /// `Schedule::Barrier` from clocks at zero. `slow[d]` multiplies device
    /// `d`'s kernel times, as a fail-slow fault would. The shifts change no
    /// charge, so the basis is spelled monomial; the target is unreachable,
    /// so all `m` columns run.
    pub(crate) fn time_cycle(&mut self, cand: &Candidate, slow: &[f64]) -> PhaseRatios {
        let Rig { mg, sys, .. } = self;
        mg.reset_time();
        slow.iter().enumerate().for_each(|(d, &factor)| mg.device_mut(d).set_slowdown(factor));
        let cfg = cand.solver_config(sys.m, 0.0, 1);
        let mut stats = SolveStats::default();
        ca_cycle(mg, sys, &cfg, &BasisSpec::monomial(cand.s), (1.0, -1.0), &mut stats)
            .expect("nothing fails on a machine without a fault plan");
        PhaseRatios {
            cycles: 1,
            cycle_s: mg.time(),
            spmv_s: stats.t_spmv,
            borth_s: stats.t_orth - stats.t_tsqr,
            tsqr_s: stats.t_tsqr,
            small_s: stats.t_small,
        }
    }
}
