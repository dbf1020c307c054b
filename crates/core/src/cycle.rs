//! The restart loop and the cycle engine it drives — the paper's Fig. 2,
//! written once for every GMRES entry and the eigensolver.
//!
//! [`Solve::run`] drives restart cycles until the residual meets its target,
//! the restart budget is spent, the solve stagnates or a breakdown is typed:
//! first one standard GMRES cycle that harvests the Ritz values
//! ([`crate::gmres::harvest_cycle`]), then CA cycles — or, for the baseline,
//! the standard cycle ([`crate::gmres::gmres_cycle`]) every time. One CA cycle
//! ([`run_cycle`]) builds the Krylov space in blocks: shape the block (`s`
//! steps, or what is left of `m`), generate it with MPK or shifted SpMVs,
//! orthogonalize it (BOrth + TSQR), extend the Hessenberg matrix, push the
//! new columns through the Givens least-squares recurrence, and — once the
//! target is met or `m` columns exist — solve for the update `y`. The cycle
//! returns `y`; the loop applies it to `x` ([`Solve::cycle`]).
//!
//! What differs between the entries is the [`CycleGuard`], every hook of
//! which is a no-op by default, and whether the solve owns its system
//! ([`Sys`]; only an owned system is ever rebuilt):
//!
//! * [`crate::gmres::gmres`] runs the loop on the caller's system under
//!   [`NoGuard`], standard cycles only;
//! * [`crate::cagmres::ca_gmres`] runs it on the caller's system under the
//!   plain guard, whose one in-cycle act is `adaptive_s`'s throttle;
//! * [`crate::mixed::ca_gmres_mixed`] runs it on a system it built, where the
//!   plain guard may also promote an f32 basis that broke down;
//! * the fault-tolerant entries ([`crate::ft`]) run it on a system they
//!   built under `FtGuard`: ABFT verification, retry budget, health probe,
//!   basis monitor, escalation ladder and block checkpoints inside the
//!   cycle; residual backstop, iterate checkpoint, watchdog, tuner,
//!   rebalancer and the hand-back arms at its boundary;
//! * [`crate::eigs::arnoldi_eigs`] runs it on the caller's system under
//!   its Ritz guard, which closes every cycle on Ritz pairs instead of a
//!   residual: a CA cycle hands its Hessenberg matrix back before the
//!   update is solved for, the harvest cycle's is read at `close`, and the
//!   next cycle starts from a Ritz vector (a zero norm once they converged).
//!
//! The cycle hook points are part of the contract — a guard sees the cycle
//! at exactly these places, in this order, per block attempt:
//!
//! 1. [`CycleGuard::poll`] after the block's last generation kernel
//!    (`MpkBlock`/`SpmvBlock`), then [`CycleGuard::after_generate`] (ABFT
//!    `verify_block` runs here, so the poll precedes it);
//! 2. inside [`orth_block`], [`CycleGuard::poll`]`(Orth)` between BOrth's
//!    update and its ABFT checksum compare, and [`CycleGuard::r_diag`] on
//!    TSQR's `R` before the Gram checksum compare (the estimate is taken
//!    on the unverified factor);
//! 3. [`CycleGuard::on_block_error`] when anything in the attempt failed;
//! 4. [`CycleGuard::block_done`] after the block's Hessenberg columns are
//!    pushed.
//!
//! The standard first cycle ([`crate::gmres::gmres_cycle`]) polls once per
//! SpMV step through the same trait. The restart hooks follow the loop:
//! the initial residual, every system build, every CA cycle entered, every
//! cycle finished (closed, then accepted or rejected), handed back or
//! aborted by a fault, and every accepted restart boundary. Every rebuild
//! ends in [`Solve::restore`]: the checkpointed iterate goes back up, then
//! the interrupted cycle is re-entered at its last verified block or,
//! without a checkpoint, the residual is recomputed and charged.
//!
//! Exactly one thing depends on *which* guard is in charge, and it is a
//! literal, not a knob: [`CycleGuard::FLATTEN`]. The plain guard flattens
//! every clock (`MultiGpu::sync`) at phase boundaries so its per-phase
//! times attribute cleanly; the fault-tolerant guard never did, and both
//! clock sequences are pinned by golden digests. Phase attribution itself
//! (`SolveStats::{t_spmv, t_small}`, the host phase spans) is the same for
//! both — a boundary is a clock *read* either way.

use crate::cagmres::{BasisChoice, CaGmresConfig, KernelMode, TsqrErrorSample};
use crate::ft::PollPoint;
use crate::gmres::{gmres_cycle, harvest_cycle};
use crate::hess::BlockArnoldi;
use crate::layout::Layout;
use crate::mpk::{mpk_prefetch, mpk_with_prefetch, spmv_block, PrefetchedHalo, SpmvFormat};
use crate::newton::BasisSpec;
use crate::orth::{self, tsqr_with_hook, BorthKind, OrthConfig, OrthError, PrefetchHook};
use crate::stats::{BreakdownKind, SolveStats};
use crate::system::System;
use ca_dense::hessenberg::{Complex, GivensLsq};
use ca_dense::{blas3, Mat};
use ca_gpusim::faults::Result as GpuResult;
use ca_gpusim::{GpuSimError, MultiGpu, Schedule};
use ca_obs as obs;
use ca_scalar::Precision;
use ca_sparse::Csr;
use obs::Track::Host as HOST;
use std::ops::Deref;

/// The explicit solve context threaded down the call chain: the executor,
/// the distributed system, and what the solve accumulates.
pub(crate) struct SolveCtx<'a> {
    pub mg: &'a mut MultiGpu,
    pub sys: &'a System,
    pub stats: &'a mut SolveStats,
    /// Fig. 13 TSQR error capture, when requested.
    pub tsqr_errors: Option<&'a mut Vec<TsqrErrorSample>>,
}

/// What is fixed for the duration of one restart cycle.
pub(crate) struct CycleParams<'a> {
    /// Restart length.
    pub m: usize,
    /// Block size the cycle starts with (a guard may throttle it).
    pub s: usize,
    /// Shift schedule for a full `s`-step block.
    pub spec: &'a BasisSpec,
    pub orth: &'a OrthConfig,
    /// Generate with the matrix powers kernel (else `s` shifted SpMVs).
    pub use_mpk: bool,
    /// Issue the next block's halo exchange from inside TSQR (Fig. 14).
    pub prefetch: bool,
    /// Stop once the implicit residual reaches this.
    pub target: f64,
}

/// One block attempt, as the guard sees it.
pub(crate) struct Block<'a> {
    /// Source column: the block generates `start + 1 ..= start + s`.
    pub start: usize,
    /// First column the orthogonalization touches (0 in the first block).
    pub c0: usize,
    /// Steps in this block.
    pub s: usize,
    /// Block size the cycle is currently running at.
    pub s_cycle: usize,
    pub spec: &'a BasisSpec,
    /// First block of the cycle (column 0 is the seeded residual).
    pub first: bool,
    /// Regenerations of this block so far.
    pub attempt: usize,
    /// Residual norm that seeded the cycle.
    pub beta: f64,
}

/// What a guard wants done with a generated block.
pub(crate) enum Verdict<H> {
    /// Orthogonalize it (with a second CGS2-style pass when `reorth`).
    Accept {
        reorth: bool,
    },
    Redo(Redo<H>),
}

/// Ways a guard can send a block attempt back.
pub(crate) enum Redo<H> {
    /// Generate the block again from its source column (re-seeded first
    /// when the source is column 0).
    Regenerate,
    /// Drop the panel and finish the cycle in blocks of this many steps;
    /// verified columns stay.
    Throttle(usize),
    /// Leave the cycle mid-flight; the driver acts and may resume.
    HandBack(H),
    /// Stop building and close the cycle with the columns verified so far.
    Break,
}

/// Per-entry hooks into [`run_cycle`] and the restart loop
/// ([`Solve::run`]). Every default is a no-op, so the empty guard
/// reproduces the unguarded loop.
pub(crate) trait CycleGuard: Sized {
    /// Mid-cycle hand-back payload.
    type HandBack;
    /// Flatten clocks at phase boundaries (see the module docs).
    const FLATTEN: bool;

    /// In-cycle health observation.
    fn poll(&mut self, _mg: &mut MultiGpu, _at: PollPoint) -> GpuResult<()> {
        Ok(())
    }

    /// The block's columns exist and are not yet orthogonalized.
    fn after_generate(
        &mut self,
        _cx: &mut SolveCtx<'_>,
        _blk: &Block<'_>,
    ) -> GpuResult<Verdict<Self::HandBack>> {
        Ok(Verdict::Accept { reorth: false })
    }

    /// TSQR's `R`, before any checksum has vouched for it.
    fn r_diag(&mut self, _r: &Mat) {}

    /// A block attempt failed — a GPU fault anywhere in it, or an
    /// orthogonalization failure. `None` declines: GPU faults propagate,
    /// anything else ends the cycle as [`CycleEnd::OrthFailed`].
    fn on_block_error(
        &mut self,
        _cx: &mut SolveCtx<'_>,
        _blk: &Block<'_>,
        _err: &OrthError,
    ) -> Option<Redo<Self::HandBack>> {
        None
    }

    /// A block is verified and its Hessenberg columns are pushed. `more`
    /// says further blocks follow in this cycle.
    fn block_done(
        &mut self,
        _cx: &mut SolveCtx<'_>,
        _state: &CycleState,
        _more: bool,
    ) -> Option<Self::HandBack> {
        None
    }

    // --- restart hooks, called by the restart loop (`Solve::run`) ---

    /// The explicit residual norm the solve starts from.
    fn initial_residual(&mut self, cx: &mut SolveCtx<'_>) -> GpuResult<f64> {
        residual(cx, Self::FLATTEN)
    }

    /// The solve (re)built its system for the operator `a`.
    fn on_build(&mut self, _mg: &mut MultiGpu, _a: &Csr, _sys: &mut System) -> GpuResult<()> {
        Ok(())
    }

    /// A CA cycle is about to run: fresh, or resumed at the checkpoint `ck`.
    fn begin_cycle(&mut self, _sv: &Solve<'_>, _ck: Option<CycleCkpt>) {}

    /// A cycle reached its restart boundary: the norm the next cycle starts
    /// from. By default the explicit residual, inside the cycle's `span`.
    fn close(&mut self, sv: &mut Solve<'_>, span: obs::SpanId) -> GpuResult<f64> {
        sv.end_cycle::<Self>(span)
    }

    /// A cycle reached its restart boundary with explicit residual norm
    /// `beta` (`implied` by the least squares). `false` rejects it: the
    /// guard rolled the solve back, and the loop enters the next cycle from
    /// there.
    fn cycle_done(&mut self, _sv: &mut Solve<'_>, _beta: f64, _implied: f64) -> GpuResult<bool> {
        Ok(true)
    }

    /// The cycle handed `h` back mid-flight: act on it (the loop then
    /// enters the next cycle, or resumes this one from its checkpoint).
    fn hand_back(&mut self, sv: &mut Solve<'_>, h: Self::HandBack) -> GpuResult<()>;

    /// A fault escaped the cycle entered at `t_entry`; by default it ends
    /// the solve.
    fn on_fault(&mut self, _sv: &mut Solve<'_>, e: GpuSimError, _t_entry: f64) -> GpuResult<()> {
        Err(e)
    }

    /// The restart boundary after an accepted cycle entered at `t_entry`.
    fn at_boundary(&mut self, _sv: &mut Solve<'_>, _t_entry: f64) -> GpuResult<()> {
        Ok(())
    }
}

/// The guard with nothing in a cycle: the standard GMRES baseline's, whose
/// restart hooks sample the relative residual, and the one a system build
/// runs under (which samples nothing).
pub(crate) struct NoGuard;

impl CycleGuard for NoGuard {
    type HandBack = std::convert::Infallible;
    const FLATTEN: bool = true;

    fn initial_residual(&mut self, cx: &mut SolveCtx<'_>) -> GpuResult<f64> {
        let beta0 = residual(cx, true)?;
        if beta0.is_finite() {
            obs::sample(obs::names::RELRES, cx.mg.time(), 1.0);
        }
        Ok(beta0)
    }

    fn cycle_done(&mut self, sv: &mut Solve<'_>, beta: f64, _implied: f64) -> GpuResult<bool> {
        // a cycle runs only from a positive `beta0`
        obs::sample(obs::names::RELRES, sv.mg.time(), beta / sv.beta0);
        Ok(true)
    }

    fn hand_back(&mut self, _: &mut Solve<'_>, h: Self::HandBack) -> GpuResult<()> {
        match h {}
    }
}

/// One attributed phase: a host span plus the simulated seconds between
/// its two boundaries. A boundary is a clock read, preceded — when
/// `flatten` — by a barrier that aligns every clock; `G::FLATTEN` is the one
/// place the calling driver shows. Each phase times itself, so a clock
/// rewound between phases (watchdog reclaim, executor rebuild) never
/// reaches a timer.
pub(crate) struct Phase {
    span: obs::SpanId,
    t0: f64,
    flatten: bool,
}

impl Phase {
    fn boundary(mg: &mut MultiGpu, flatten: bool) -> f64 {
        if flatten {
            mg.sync();
        }
        mg.time()
    }

    pub(crate) fn begin(mg: &mut MultiGpu, name: &str, flatten: bool) -> Self {
        let now = Self::boundary(mg, flatten);
        Self { span: obs::span_begin(name, HOST, now), t0: now, flatten }
    }

    /// Close the phase and return its seconds.
    pub(crate) fn end(self, mg: &mut MultiGpu) -> f64 {
        let now = Self::boundary(mg, self.flatten);
        obs::span_end(self.span, now);
        let dt = now - self.t0;
        debug_assert!(dt >= -1e-12, "clock went backwards: {dt}");
        dt.max(0.0)
    }
}

/// Explicit residual norm `||b - A x||`, attributed to the SpMV phase.
pub(crate) fn residual(cx: &mut SolveCtx<'_>, flatten: bool) -> GpuResult<f64> {
    let ph = Phase::begin(cx.mg, "spmv", flatten);
    let beta = cx.sys.residual_norm(cx.mg)?;
    cx.stats.t_spmv += ph.end(cx.mg);
    Ok(beta)
}

/// Krylov state of the cycle in flight.
pub(crate) struct CycleState {
    lsq: GivensLsq,
    /// Block-Arnoldi recurrence (the Hessenberg columns so far).
    pub arn: BlockArnoldi,
    /// Orthonormal basis columns built so far.
    pub ncols: usize,
    /// Hessenberg columns pushed through the least-squares recurrence.
    pub k_used: usize,
    /// Residual norm that seeded the cycle.
    pub beta: f64,
}

impl CycleState {
    /// Re-enter an interrupted cycle at its last verified block. The
    /// least-squares recurrence is rebuilt from the preserved Hessenberg
    /// columns — host work paid again, though the columns were already
    /// counted as iterations.
    pub(crate) fn resume(mg: &mut MultiGpu, ck: &CycleCkpt) -> Self {
        let mut lsq = GivensLsq::new(ck.beta);
        for col in ck.arn.columns().iter().take(ck.k_used) {
            lsq.push_column(col);
        }
        mg.host_compute((3 * (ck.k_used + 1) * (ck.k_used + 1)) as f64, (16 * ck.k_used) as f64);
        Self { lsq, arn: ck.arn.clone(), ncols: ck.ncols, k_used: ck.k_used, beta: ck.beta }
    }
}

/// Partial-cycle checkpoint: everything needed to resume an interrupted
/// cycle from its last *verified* block boundary instead of redoing it.
/// The basis columns are held layout-agnostic (full-length host vectors),
/// so the same checkpoint restores onto a repartitioned or degraded
/// executor.
pub(crate) struct CycleCkpt {
    /// Verified, orthonormalized basis columns `V[:, 0..ncols]`.
    vhost: Vec<Vec<f64>>,
    arn: BlockArnoldi,
    /// Basis columns built so far.
    pub ncols: usize,
    k_used: usize,
    beta: f64,
    /// Machine time of the capture — the left edge of the work-lost
    /// bracket for anything that fails after it.
    pub t_ckpt: f64,
}

impl CycleCkpt {
    /// Extend (or create) the checkpoint with the newly verified columns.
    /// Earlier columns are never mutated by later blocks (BOrth projects
    /// the *new* panel against them; TSQR factors only the new panel), so
    /// the capture is incremental.
    ///
    /// The host read is deliberately **uncharged**: checkpoint drains are
    /// modeled as overlapped with the next block's compute on the per-link
    /// copy engines, and — decisively — only an armed guard captures, so
    /// charging it would break the armed-on-healthy bit-invisibility
    /// contract. The restore path, which only runs after a real fault, is
    /// charged in full.
    pub(crate) fn update(slot: &mut Option<Self>, mg: &MultiGpu, sys: &System, st: &CycleState) {
        let mut vhost = slot.take().map_or_else(Vec::new, |ck| ck.vhost);
        for c in vhost.len()..st.ncols {
            let mut col = vec![0.0f64; sys.n];
            for d in 0..sys.layout.ndev() {
                let r = sys.layout.range(d);
                col[r].copy_from_slice(mg.device(d).mat(sys.v[d]).col(c));
            }
            vhost.push(col);
        }
        let (arn, t_ckpt) = (st.arn.clone(), mg.time());
        *slot =
            Some(Self { vhost, arn, ncols: st.ncols, k_used: st.k_used, beta: st.beta, t_ckpt });
    }

    /// Scatter the checkpointed columns back onto the (possibly rebuilt,
    /// possibly repartitioned) executor, charged like any other
    /// host→device staging.
    pub(crate) fn restore(&self, mg: &mut MultiGpu, sys: &System) -> GpuResult<()> {
        let ndev = sys.layout.ndev();
        let mut bytes = vec![0usize; ndev];
        for d in 0..ndev {
            let r = sys.layout.range(d);
            for (c, col) in self.vhost.iter().enumerate() {
                mg.device_mut(d).mat_mut(sys.v[d]).set_col(c, &col[r.clone()]);
            }
            bytes[d] = 8 * r.len() * self.vhost.len();
        }
        mg.to_devices(&bytes)
    }
}

/// How a cycle ended.
pub(crate) enum CycleEnd<H> {
    /// Ran to the restart boundary. [`run_cycle`] leaves the update and the
    /// restart count to its caller ([`SolveCtx::finish_cycle`]); from
    /// [`Solve::cycle`] both are done. The `cycle` host span is still open:
    /// the caller's explicit residual ([`residual`]) belongs inside it, then
    /// the span is ended.
    Done {
        /// Implicit (least-squares) residual norm.
        implied: f64,
        /// The update `x += V y`; its length is the Krylov dimensions it
        /// uses (empty: no progress possible).
        y: Vec<f64>,
        span: obs::SpanId,
    },
    /// Orthogonalization failed at `column` and the guard declined:
    /// nothing was applied to `x`.
    OrthFailed {
        column: usize,
        err: OrthError,
    },
    HandBack(H),
}

/// Run one CA restart cycle from the residual of norm `beta` (or from
/// `resume`, whose basis columns must already be on the devices).
pub(crate) fn run_cycle<G: CycleGuard>(
    cx: &mut SolveCtx<'_>,
    p: &CycleParams<'_>,
    beta: f64,
    resume: Option<CycleState>,
    guard: &mut G,
) -> GpuResult<CycleEnd<G::HandBack>> {
    let mut span = obs::span_begin("cycle", HOST, cx.mg.time());
    let mut st = match resume {
        Some(st) => st,
        None => {
            cx.sys.seed_basis(cx.mg, beta)?;
            let (lsq, arn) = (GivensLsq::new(beta), BlockArnoldi::new());
            CycleState { lsq, arn, ncols: 1, k_used: 0, beta }
        }
    };
    let mut s_cycle = p.s;
    let mut hit_target = false;
    // halo exchange issued ahead of the next MPK block (Fig. 14 overlap);
    // armed from inside the previous block's TSQR
    let mut pending: Option<PrefetchedHalo> = None;

    'blocks: while st.ncols - 1 < p.m && !hit_target {
        let first = st.ncols == 1;
        let s_blk = s_cycle.min(p.m + 1 - st.ncols);
        let spec_blk = p.spec.truncate(s_blk);
        let start = st.ncols - 1;
        let c0 = if first { 0 } else { st.ncols };
        let mut blk = Block {
            start,
            c0,
            s: s_blk,
            s_cycle,
            spec: &spec_blk,
            first,
            attempt: 0,
            beta: st.beta,
        };

        let (c_eff, r_eff) = loop {
            // `panel_dirty`: the attempt died inside the orthogonalization,
            // which may have scaled columns in place
            let (redo, panel_dirty) = match attempt_block(cx, p, &blk, &mut pending, guard) {
                Ok(Attempt::Orthogonalized(c, r)) => break (c, r),
                Ok(Attempt::Redo(redo)) => (redo, false),
                Err(err) => {
                    // the attempt returned through `?`, leaving its phase
                    // spans open: seal them — and with them the cycle's —
                    // so whatever follows lands on a clean track
                    obs::close_open(cx.mg.time());
                    span = obs::SpanId::NONE;
                    match guard.on_block_error(cx, &blk, &err) {
                        Some(redo) => (redo, true),
                        None => {
                            return match err {
                                OrthError::Gpu(e) => Err(e),
                                err => Ok(CycleEnd::OrthFailed { column: c0, err }),
                            }
                        }
                    }
                }
            };
            match redo {
                Redo::Regenerate => blk.attempt += 1,
                Redo::Throttle(s) => {
                    s_cycle = s;
                    if panel_dirty && first {
                        // the failed factorization may have scaled
                        // column 0 in place: restore it
                        cx.sys.seed_basis(cx.mg, st.beta)?;
                    }
                    continue 'blocks;
                }
                Redo::HandBack(h) => {
                    obs::span_end(span, cx.mg.time());
                    return Ok(CycleEnd::HandBack(h));
                }
                Redo::Break => break 'blocks,
            }
        };
        if pending.is_some() {
            cx.stats.prefetches += 1;
        }

        // Hessenberg reconstruction + least squares (host)
        let ph = Phase::begin(cx.mg, "small", G::FLATTEN);
        let c_for_hess = if first { Mat::zeros(0, 0) } else { c_eff };
        let new_cols = st.arn.extend_block(&c_for_hess, &r_eff, &spec_blk.change_matrix());
        cx.mg.host_compute(
            2.0 * ((st.ncols + s_blk) * s_blk * s_blk) as f64 + (3 * p.m * s_blk) as f64,
            (16 * (st.ncols + s_blk) * s_blk) as f64,
        );
        for col in &new_cols {
            st.lsq.push_column(col);
            st.k_used += 1;
            cx.stats.total_iters += 1;
            if st.lsq.residual_norm() <= p.target {
                hit_target = true;
                break;
            }
        }
        cx.stats.t_small += ph.end(cx.mg);

        st.ncols += s_blk;
        let more = !hit_target && st.ncols - 1 < p.m;
        if let Some(h) = guard.block_done(cx, &st, more) {
            obs::span_end(span, cx.mg.time());
            return Ok(CycleEnd::HandBack(h));
        }
    }

    // the recurrence holds exactly the `k_used` columns pushed
    let y = lsq_solution(cx, &st.lsq, G::FLATTEN);
    let implied = if y.is_empty() { st.beta } else { st.lsq.residual_norm() };
    Ok(CycleEnd::Done { implied, y, span })
}

/// The least-squares solution `y` of a cycle's recurrence (empty when no
/// column was pushed), its host solve charged to the "small" phase.
pub(crate) fn lsq_solution(cx: &mut SolveCtx<'_>, lsq: &GivensLsq, flatten: bool) -> Vec<f64> {
    let k = lsq.ncols();
    if k == 0 {
        return Vec::new();
    }
    let y = lsq.solve();
    let ph = Phase::begin(cx.mg, "small", flatten);
    cx.mg.host_compute((3 * (k + 1) * (k + 1)) as f64, (16 * k) as f64);
    cx.stats.t_small += ph.end(cx.mg);
    y
}

impl SolveCtx<'_> {
    /// Close a finished cycle: apply its update `x += V y` and count the
    /// restart.
    pub(crate) fn finish_cycle(&mut self, y: &[f64]) -> GpuResult<()> {
        if !y.is_empty() {
            self.sys.update_x(self.mg, y)?;
        }
        self.stats.restarts += 1;
        Ok(())
    }
}

/// Outcome of one block attempt that did not fail outright.
enum Attempt<H> {
    /// Generated and orthogonalized: `(C_eff, R_eff)` for the Hessenberg
    /// extension.
    Orthogonalized(Mat, Mat),
    Redo(Redo<H>),
}

/// Generate the block (consuming a prefetched halo when one is pending),
/// let the guard judge it, orthogonalize it.
fn attempt_block<G: CycleGuard>(
    cx: &mut SolveCtx<'_>,
    p: &CycleParams<'_>,
    blk: &Block<'_>,
    pending: &mut Option<PrefetchedHalo>,
    guard: &mut G,
) -> Result<Attempt<G::HandBack>, OrthError> {
    let sys = cx.sys;
    if blk.attempt > 0 && blk.first {
        // the source column of a later block is never mutated by its
        // orthogonalization; column 0 is, so restore it from the residual
        sys.seed_basis(cx.mg, blk.beta)?;
    }
    let ph = Phase::begin(cx.mg, "spmv", G::FLATTEN);
    if p.use_mpk {
        let st = sys.mpk.as_ref().expect("MPK requested but no MPK plan loaded");
        mpk_with_prefetch(cx.mg, st, &sys.v, blk.start, blk.spec, pending.take())?;
        guard.poll(cx.mg, PollPoint::MpkBlock)?;
    } else {
        spmv_block(cx.mg, &sys.spmv, &sys.v, blk.start, blk.spec)?;
        guard.poll(cx.mg, PollPoint::SpmvBlock)?;
    }
    let verdict = guard.after_generate(cx, blk)?;
    cx.stats.t_spmv += ph.end(cx.mg);
    let reorth = match verdict {
        Verdict::Accept { reorth } => reorth,
        Verdict::Redo(redo) => return Ok(Attempt::Redo(redo)),
    };

    // orthogonalize: BOrth against previous, TSQR within block. When
    // another MPK block follows in this cycle, arm the prefetch hook: the
    // instant TSQR finalizes this block's last column (= the next block's
    // start vector), the next halo exchange is issued and hides under the
    // remaining updates.
    let next_start = blk.start + blk.s;
    let arm =
        p.prefetch && p.use_mpk && cx.mg.schedule() == Schedule::EventDriven && next_start < p.m;
    let mut issue = |mg: &mut MultiGpu| -> GpuResult<()> {
        let st = sys.mpk.as_ref().expect("armed only with an MPK plan");
        *pending = Some(mpk_prefetch(mg, st, &sys.v, next_start)?);
        Ok(())
    };
    let ocfg = OrthConfig { reorth: p.orth.reorth || reorth, ..*p.orth };
    let hook: Option<PrefetchHook<'_>> = if arm { Some(&mut issue) } else { None };
    let (c, r) = orth_block(cx, blk.c0, next_start + 1, &ocfg, hook, guard)?;
    Ok(Attempt::Orthogonalized(c, r))
}

/// Gather the distributed block `V[:, c0..c1]` to the host (free
/// instrumentation read — no transfer charge).
pub(crate) fn gather_block(mg: &MultiGpu, sys: &System, c0: usize, c1: usize) -> Mat {
    let mut out = Mat::zeros(sys.n, c1 - c0);
    for d in 0..sys.layout.ndev() {
        let lo = sys.layout.range(d).start;
        let m = mg.device(d).mat(sys.v[d]);
        for (jj, j) in (c0..c1).enumerate() {
            out.col_mut(jj)[lo..lo + m.nrows()].copy_from_slice(m.col(j));
        }
    }
    out
}

/// BOrth + TSQR (+ optional "2x" reorthogonalization) for one block, with
/// per-phase timing and optional Fig. 13 error capture. Clocks are
/// flattened around both stages for every caller — that sequence predates
/// the guard and both drivers' digests pin it.
/// On a system that carries the ABFT checksum (a verifying FT solve builds
/// it and hands it back with the system), whoever runs the cycle, both
/// block reductions are checked against scalar checksums (`1ᵀC1` against
/// `(V_a 1)ᵀ(V_b 1)`, `1ᵀB1` against `‖R1‖²`): [`OrthError::ChecksumMismatch`].
pub(crate) fn orth_block<G: CycleGuard>(
    cx: &mut SolveCtx<'_>,
    c0: usize,
    c1: usize,
    cfg: &OrthConfig,
    mut prefetch: Option<PrefetchHook<'_>>,
    guard: &mut G,
) -> Result<(Mat, Mat), OrthError> {
    let (mg, sys, v) = (&mut *cx.mg, cx.sys, &cx.sys.v[..]);
    let abft = sys.checksum.is_some();
    let passes = if cfg.reorth { 2 } else { 1 };
    let mut c_eff = Mat::zeros(0, 0);
    let mut r_eff = Mat::identity(c1 - c0);
    for pass in 1..=passes {
        let ph = Phase::begin(mg, "borth", true);
        // the checksum of V_prev^T W must be read BEFORE the update
        // subtracts the projection from W in place (CGS only — MGS's
        // per-vector reductions are covered by the residual guard)
        let borth_sum = if abft && c0 > 0 && cfg.borth == BorthKind::Cgs {
            Some(orth::block_checksum(mg, v, (0, c0), (c0, c1))?)
        } else {
            None
        };
        let c = orth::borth(mg, v, c0, c1, cfg.borth)?;
        if c0 > 0 {
            guard.poll(mg, PollPoint::Orth)?;
        }
        if let Some(sum) = borth_sum {
            orth::check_borth(mg, &c, sum)?;
        }
        cx.stats.t_orth += ph.end(mg);

        let ph = Phase::begin(mg, "tsqr", true);
        let snapshot = cx.tsqr_errors.as_ref().map(|_| gather_block(mg, sys, c0, c1));
        let gram_sum =
            if abft { Some(orth::block_checksum(mg, v, (c0, c1), (c0, c1))?) } else { None };
        // the prefetch window opens on the *final* pass only — earlier
        // passes leave the last column non-final — and never under ABFT
        let hook = if !abft && pass == passes { prefetch.take() } else { None };
        let r = tsqr_with_hook(mg, v, c0, c1, cfg.tsqr, cfg.svqr_scaled, hook)?;
        guard.r_diag(&r);
        if let Some(sum) = gram_sum {
            orth::check_gram(mg, &r, cfg.tsqr, sum)?;
        }
        let dt = ph.end(mg);
        cx.stats.t_orth += dt;
        cx.stats.t_tsqr += dt;

        if let Some(errs) = cx.tsqr_errors.as_deref_mut() {
            let vin = snapshot.expect("captured with the same switch");
            let q = gather_block(mg, sys, c0, c1);
            let orth_err = ca_dense::norms::orthogonality_error(&q);
            obs::observe(obs::names::ORTH_ERROR, orth_err);
            errs.push(TsqrErrorSample {
                orth_err,
                fact_err: ca_dense::norms::factorization_error(&vin, &q, &r),
                elem_err: ca_dense::norms::elementwise_error(&vin, &q, &r),
                pass,
                block_cols: c1 - c0,
            });
        }

        if pass == 1 {
            c_eff = c;
            r_eff = r;
        } else {
            // W = Qp (C1 + C2 R1) + Qn (R2 R1)
            if c_eff.nrows() > 0 {
                blas3::gemm_nn(1.0, &c, &r_eff, 1.0, &mut c_eff);
            }
            let mut r2r1 = Mat::zeros(r.nrows(), r_eff.ncols());
            blas3::gemm_nn(1.0, &r, &r_eff, 0.0, &mut r2r1);
            r_eff = r2r1;
            let k = c1 - c0;
            let ph = Phase::begin(mg, "small", true);
            mg.host_compute(2.0 * ((c0 + k) * k * k) as f64, (24 * k * k) as f64);
            cx.stats.t_small += ph.end(mg);
        }
    }
    Ok((c_eff, r_eff))
}

/// Why `cfg` cannot run — on `sys`, when the caller supplies the system —
/// or `None` when it can. Every entry asks before it touches a device.
pub(crate) fn invalid(cfg: &CaGmresConfig, sys: Option<&System>) -> Option<String> {
    let (s, m) = (cfg.s, cfg.m);
    if s == 0 || m < s {
        return Some(format!("need 1 <= s <= m, got s = {s}, m = {m}"));
    }
    if cfg.rtol.is_nan() || cfg.rtol < 0.0 {
        // zero is the planner's fixed budget: every restart runs
        return Some(format!("need rtol >= 0, got rtol = {}", cfg.rtol));
    }
    let sys = sys?;
    let plan_s = sys.mpk.as_ref().map_or(0, |st| st.plan.s);
    if m > sys.m {
        Some(format!("m = {m} exceeds the system's basis room of {}", sys.m))
    } else if cfg.kernel == KernelMode::Mpk && s > 1 && plan_s < s {
        Some(format!("MPK at s = {s} needs an s-step plan; the system's covers {plan_s} steps"))
    } else {
        None
    }
}

/// The MPK step count a system for step size `s` loads a plan for (`None`:
/// plain SpMV blocks).
pub(crate) fn mpk_steps(kernel: KernelMode, s: usize) -> Option<usize> {
    (s > 1 && kernel == KernelMode::Mpk).then_some(s)
}

/// The problem an owned system is built from, kept to rebuild it.
#[derive(Clone, Copy)]
pub(crate) struct Operator<'a> {
    /// The operator, already reordered to match every layout it is built on.
    pub a: &'a Csr,
    pub b: &'a [f64],
}

impl Operator<'_> {
    /// Stage the system in ELLPACK on `layout` at step size `s` and MPK
    /// precision `prec`, with the right-hand side loaded, and let `guard`
    /// add what it keeps per system.
    pub(crate) fn build<G: CycleGuard>(
        &self,
        mg: &mut MultiGpu,
        layout: Layout,
        cfg: &CaGmresConfig,
        (s, prec): (usize, Precision),
        guard: &mut G,
    ) -> GpuResult<System> {
        let steps = mpk_steps(cfg.kernel, s);
        let mut sys = System::with_format(mg, self.a, layout, cfg.m, steps, SpmvFormat::Ell, prec)?;
        sys.load_rhs(mg, self.b)?;
        guard.on_build(mg, self.a, &mut sys)?;
        Ok(sys)
    }
}

/// The system a solve runs on.
// one per solve, built once and moved rarely: boxing the owned variant
// would only add an allocation beside the system's long-lived arrays
#[allow(clippy::large_enum_variant)]
pub(crate) enum Sys<'a> {
    /// The caller's, never rebuilt.
    Borrowed(&'a System),
    /// Built by the solve from the operator beside it; a rebuild (device
    /// loss, repartition, precision promotion) replaces it.
    Owned(System, Operator<'a>),
}

impl Deref for Sys<'_> {
    type Target = System;

    fn deref(&self) -> &System {
        match self {
            Sys::Borrowed(sys) => sys,
            Sys::Owned(sys, _) => sys,
        }
    }
}

impl<'a> Sys<'a> {
    /// The operator an owned system was built from.
    pub(crate) fn operator(&self) -> Operator<'a> {
        match self {
            Sys::Owned(_, op) => *op,
            Sys::Borrowed(_) => unreachable!("only an owned system is rebuilt"),
        }
    }

    /// The system, when the solve owns it.
    pub(crate) fn into_owned(self) -> Option<System> {
        match self {
            Sys::Owned(sys, _) => Some(sys),
            Sys::Borrowed(_) => None,
        }
    }
}

/// Where an interrupted cycle resumes. `reupload` is false when the
/// executor survived untouched (a basis switch, a hysteresis-rejected
/// rebalance): the device-resident basis columns are still valid, so the
/// resume is free.
pub(crate) struct Resume {
    pub ck: CycleCkpt,
    pub reupload: bool,
}

/// One solve: the machine it runs on, what is in effect right now (step
/// size, precision, basis family, shift schedule), the residual the next
/// cycle starts from, the checkpoint it resumes at, the last accepted
/// iterate, and what the solve accumulates.
pub(crate) struct Solve<'a> {
    /// The executor; a rebuild replaces it.
    pub mg: &'a mut MultiGpu,
    pub sys: Sys<'a>,
    pub cfg: &'a CaGmresConfig,
    /// Step size in effect; a retune may change it.
    pub s_cur: usize,
    /// Basis precision in effect; the Promote rung raises it.
    pub prec_cur: Precision,
    /// Basis family in effect; the BasisSwitch rung moves a monomial solve
    /// onto the harvested Newton shifts.
    pub basis_cur: BasisChoice,
    pub shifts: Option<Vec<Complex>>,
    pub spec_full: BasisSpec,
    pub harvested: bool,
    /// Run the standard cycle in every restart (the GMRES baseline).
    pub standard: bool,
    /// Hessenberg matrix of the first standard cycle.
    pub first_hessenberg: Option<Mat>,
    /// Explicit residual norm the solve started from.
    pub beta0: f64,
    /// Explicit residual norm the next cycle starts from.
    pub beta: f64,
    /// Checkpoint to re-enter an interrupted cycle at (`None`: the next
    /// cycle starts fresh).
    pub resume: Option<Resume>,
    /// Last accepted iterate, the one every rebuild restores (a guard that
    /// does not checkpoint it fills it before it rebuilds).
    pub x_ckpt: Vec<f64>,
    pub stats: SolveStats,
    /// Fig. 13 TSQR error samples, when requested.
    pub tsqr_errors: Option<Vec<TsqrErrorSample>>,
    /// Executor rebuilds so far.
    pub rebuilds: usize,
}

impl<'a> Solve<'a> {
    /// A solve of `cfg` on `sys` and `mg` at step size `s`, before anything
    /// ran.
    pub(crate) fn new(
        mg: &'a mut MultiGpu,
        sys: Sys<'a>,
        cfg: &'a CaGmresConfig,
        s: usize,
    ) -> Self {
        Self {
            mg,
            sys,
            cfg,
            s_cur: s,
            prec_cur: cfg.mpk_prec,
            basis_cur: cfg.basis,
            shifts: None,
            spec_full: BasisSpec::monomial(s),
            harvested: false,
            standard: false,
            first_hessenberg: None,
            beta0: 0.0,
            beta: 0.0,
            resume: None,
            x_ckpt: Vec::new(),
            stats: SolveStats::default(),
            tsqr_errors: cfg.capture_tsqr_errors.then(Vec::new),
            rebuilds: 0,
        }
    }

    fn ctx(&mut self) -> SolveCtx<'_> {
        SolveCtx {
            mg: &mut *self.mg,
            sys: &self.sys,
            stats: &mut self.stats,
            tsqr_errors: self.tsqr_errors.as_mut(),
        }
    }

    /// The restart loop. What the guard does not absorb escapes as an
    /// error (a fault it declines, a fault during recovery itself);
    /// otherwise the loop ends on convergence, an exhausted budget,
    /// stagnation or a typed breakdown, with `converged` and
    /// `final_relres` set.
    pub(crate) fn run<G: CycleGuard>(&mut self, guard: &mut G) -> GpuResult<()> {
        let beta0 = guard.initial_residual(&mut self.ctx())?;
        (self.beta0, self.beta) = (beta0, beta0);
        if !beta0.is_finite() {
            let reason =
                format!("the initial residual norm is {beta0}: A, b or x holds a non-finite value");
            self.stats.breakdown = Some(BreakdownKind::InvalidInput { reason });
            self.stats.final_relres = f64::NAN;
            return Ok(());
        }
        let target = self.cfg.rtol * beta0;
        while self.beta > target && self.stats.restarts < self.cfg.max_restarts {
            let t_entry = self.mg.time();
            match self.cycle(target, guard) {
                Ok(CycleEnd::Done { implied, y, span }) => {
                    let beta = guard.close(self, span)?;
                    if !guard.cycle_done(self, beta, implied)? {
                        continue;
                    }
                    self.beta = beta;
                    if !beta.is_finite() {
                        let restarts = self.stats.restarts;
                        self.stats.breakdown = Some(BreakdownKind::NonFinite { restarts });
                    }
                    if self.stats.breakdown.is_some() || y.is_empty() {
                        break; // numerical breakdown or stagnation: stop honestly
                    }
                }
                Ok(CycleEnd::OrthFailed { column, err }) => {
                    let reason = err.to_string();
                    self.stats.breakdown =
                        Some(BreakdownKind::Orthogonalization { column, reason });
                    break;
                }
                Ok(CycleEnd::HandBack(h)) => {
                    guard.hand_back(self, h)?;
                    continue;
                }
                Err(e) => {
                    guard.on_fault(self, e, t_entry)?;
                    continue;
                }
            }
            guard.at_boundary(self, t_entry)?;
        }
        self.stats.converged = self.beta <= target;
        self.stats.final_relres = if beta0 > 0.0 { self.beta / beta0 } else { 0.0 };
        Ok(())
    }

    /// One restart cycle under `guard`, its update applied and counted: the
    /// standard cycle in a `standard` solve; otherwise the standard first
    /// cycle, which harvests the Ritz values, until they exist, and after
    /// that a CA cycle, entered fresh from `self.beta` or at the checkpoint
    /// in `self.resume`. Under the plain guard this is
    /// [`crate::cagmres::ca_cycle`].
    pub(crate) fn cycle<G: CycleGuard>(
        &mut self,
        target: f64,
        guard: &mut G,
    ) -> GpuResult<CycleEnd<G::HandBack>> {
        let (cfg, beta, s) = (self.cfg, self.beta, self.s_cur);
        if self.standard || !self.harvested {
            debug_assert!(self.resume.is_none(), "block checkpoints exist only in CA cycles");
            let cycle = if self.standard {
                gmres_cycle(&mut self.ctx(), cfg.m, cfg.orth.borth, beta, target, guard)?
            } else {
                let (cycle, shifts, spec) =
                    harvest_cycle(&mut self.ctx(), cfg, s, (beta, target), guard)?;
                (self.shifts, self.spec_full, self.harvested) = (shifts, spec, true);
                cycle
            };
            self.first_hessenberg.get_or_insert(cycle.hessenberg);
            let span = obs::SpanId::NONE; // the standard cycle closed its own
            return Ok(CycleEnd::Done { implied: cycle.implied, y: cycle.y, span });
        }
        let state = match self.resume.take() {
            Some(Resume { ck, reupload }) => {
                if reupload {
                    ck.restore(self.mg, &self.sys)?;
                }
                let state = CycleState::resume(self.mg, &ck);
                guard.begin_cycle(self, Some(ck));
                Some(state)
            }
            None => {
                guard.begin_cycle(self, None);
                None
            }
        };
        let p = CycleParams {
            m: cfg.m,
            s,
            spec: &self.spec_full,
            orth: &cfg.orth,
            use_mpk: cfg.kernel == KernelMode::Mpk && self.sys.mpk.is_some() && s > 1,
            prefetch: cfg.prefetch,
            target,
        };
        let mut cx = SolveCtx {
            mg: &mut *self.mg,
            sys: &self.sys,
            stats: &mut self.stats,
            tsqr_errors: self.tsqr_errors.as_mut(),
        };
        let end = run_cycle(&mut cx, &p, beta, state, guard)?;
        if let CycleEnd::Done { y, .. } = &end {
            cx.finish_cycle(y)?;
        }
        Ok(end)
    }

    /// The explicit residual norm that closes a finished cycle, inside its
    /// `cycle` span.
    pub(crate) fn end_cycle<G: CycleGuard>(&mut self, span: obs::SpanId) -> GpuResult<f64> {
        let beta = residual(&mut self.ctx(), G::FLATTEN)?;
        obs::span_end(span, self.mg.time());
        Ok(beta)
    }

    /// Respawn the executor ([`MultiGpu::respawn`]: simulated time,
    /// policies, traces and traffic counters carry over) and rebuild the
    /// system on `layout`. `lost` names dead devices, whose pending loss
    /// and perf faults are stripped from the reinstalled plan (empty: the
    /// plan is reinstalled verbatim). A fresh executor also resets the op
    /// counters and health EWMAs, so post-rebuild health reflects the new
    /// partition rather than stale history.
    pub(crate) fn rebuild<G: CycleGuard>(
        &mut self,
        layout: Layout,
        lost: &[usize],
        guard: &mut G,
    ) -> GpuResult<()> {
        self.rebuilds += 1;
        let mg = &mut *self.mg;
        let plan = mg.fault_plan().cloned();
        mg.respawn(layout.ndev());
        if let Some(p) = plan {
            // a loss already happened; survivors keep the rest of the plan
            // (SDC, transfer faults) active
            let p = if lost.is_empty() { p } else { p.without_device_loss() };
            mg.set_fault_plan(lost.iter().fold(p, |p, &d| p.without_perf_faults_on(d)));
        }
        let op = self.sys.operator();
        let sys = op.build(mg, layout, self.cfg, (self.s_cur, self.prec_cur), guard)?;
        self.sys = Sys::Owned(sys, op);
        Ok(())
    }

    /// Last step of every rebuild (and of a backstop rollback): restore the
    /// checkpointed iterate, then either re-enter the interrupted cycle at
    /// `ck`'s last verified block (its columns re-uploaded) or — no
    /// checkpoint: the same global problem, the same target — recompute
    /// (and charge) where we are.
    pub(crate) fn restore(&mut self, ck: Option<CycleCkpt>) -> GpuResult<()> {
        self.sys.upload_x(self.mg, &self.x_ckpt)?;
        match ck {
            Some(ck) => self.resume = Some(Resume { ck, reupload: true }),
            None => self.beta = self.sys.residual_norm(self.mg)?,
        }
        Ok(())
    }

    /// The precision-promotion rung, whichever guard climbs it: the basis
    /// goes f32 → f64 — a rebuild on the same layout, slice re-upload
    /// charged — and the solve resumes at `ck` or, without one, from the
    /// last accepted iterate.
    pub(crate) fn promote<G: CycleGuard>(
        &mut self,
        ck: Option<CycleCkpt>,
        guard: &mut G,
    ) -> GpuResult<()> {
        obs::instant_cause(
            "ft.escalate",
            obs::Track::Host,
            self.mg.time(),
            "basis precision promoted f32 -> f64 after condition trigger",
        );
        self.prec_cur = Precision::F64;
        let layout = self.sys.layout.clone();
        self.rebuild(layout, &[], guard)?;
        self.restore(ck)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Layout;
    use crate::orth::TsqrKind;
    use ca_gpusim::{FaultPlan, SdcTargets};
    use ca_sparse::gen::laplace2d;
    use std::collections::VecDeque;

    const M: usize = 20;
    const S: usize = 5;

    /// A scripted guard: answers the i-th `after_generate` from `script`
    /// (`None` or exhausted: accept), scaling basis column `mangle` by 3
    /// before its first redo; logs every hook; checkpoints every block and
    /// can hand the checkpoint back after a number of them.
    #[derive(Default)]
    struct Fake {
        script: VecDeque<Option<Redo<CycleCkpt>>>,
        mangle: Option<usize>,
        log: Vec<String>,
        /// `(start, s, attempt)` of every generated block.
        blocks: Vec<(usize, usize, usize)>,
        /// `ncols` after every finished block.
        ncols: Vec<usize>,
        ckpt: Option<CycleCkpt>,
        hand_back_after: Option<usize>,
    }

    impl Fake {
        fn scripted(script: impl IntoIterator<Item = Option<Redo<CycleCkpt>>>) -> Self {
            Self { script: script.into_iter().collect(), ..Self::default() }
        }
    }

    impl CycleGuard for Fake {
        type HandBack = CycleCkpt;
        const FLATTEN: bool = true;

        fn hand_back(&mut self, _: &mut Solve<'_>, _: CycleCkpt) -> GpuResult<()> {
            unreachable!("the cycle tests run single cycles, not the restart loop")
        }

        fn poll(&mut self, _mg: &mut MultiGpu, at: PollPoint) -> GpuResult<()> {
            self.log.push(format!("poll:{at:?}"));
            Ok(())
        }

        fn after_generate(
            &mut self,
            cx: &mut SolveCtx<'_>,
            blk: &Block<'_>,
        ) -> GpuResult<Verdict<CycleCkpt>> {
            self.log.push("after_generate".into());
            self.blocks.push((blk.start, blk.s, blk.attempt));
            let Some(Some(redo)) = self.script.pop_front() else {
                return Ok(Verdict::Accept { reorth: false });
            };
            if let Some(col) = self.mangle.take() {
                for d in 0..cx.sys.layout.ndev() {
                    let mat = cx.mg.device_mut(d).mat_mut(cx.sys.v[d]);
                    mat.col_mut(col).iter_mut().for_each(|v| *v *= 3.0);
                }
            }
            Ok(Verdict::Redo(redo))
        }

        fn r_diag(&mut self, _r: &Mat) {
            self.log.push("r_diag".into());
        }

        fn on_block_error(
            &mut self,
            _cx: &mut SolveCtx<'_>,
            _blk: &Block<'_>,
            err: &OrthError,
        ) -> Option<Redo<CycleCkpt>> {
            let OrthError::ChecksumMismatch { what, .. } = err else { return None };
            self.log.push(format!("mismatch:{what}"));
            Some(Redo::Regenerate)
        }

        fn block_done(
            &mut self,
            cx: &mut SolveCtx<'_>,
            state: &CycleState,
            _more: bool,
        ) -> Option<CycleCkpt> {
            self.log.push("block_done".into());
            self.ncols.push(state.ncols);
            CycleCkpt::update(&mut self.ckpt, cx.mg, cx.sys, state);
            if self.hand_back_after == Some(self.ncols.len()) {
                return self.ckpt.take();
            }
            None
        }
    }

    /// laplace2d 12x12 on two devices with the right-hand side loaded;
    /// returns the initial residual norm alongside.
    fn machine(schedule: Schedule, plan: Option<FaultPlan>) -> (MultiGpu, System, f64) {
        let a = laplace2d(12, 12);
        let n = a.nrows();
        let mut mg = MultiGpu::with_defaults(2);
        mg.set_schedule(schedule);
        if let Some(p) = plan {
            mg.set_fault_plan(p);
        }
        let sys = System::new(&mut mg, &a, Layout::even(n, 2), M, Some(S)).unwrap();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 3) % 11) as f64 * 0.2).collect();
        sys.load_rhs(&mut mg, &b).unwrap();
        let beta = sys.residual_norm(&mut mg).unwrap();
        (mg, sys, beta)
    }

    struct Ran<H> {
        end: CycleEnd<H>,
        /// Bits of the iterate afterwards.
        x: Vec<u64>,
        /// Messages the cycle cost.
        msgs: u64,
        stats: SolveStats,
    }

    /// One MPK cycle of the full length (`target = 0`) under `guard`, its
    /// update applied as the restart loop applies it.
    fn cycle<G: CycleGuard>(
        mg: &mut MultiGpu,
        sys: &System,
        (orth, prefetch): (&OrthConfig, bool),
        (beta, resume): (f64, Option<CycleState>),
        guard: &mut G,
    ) -> Ran<G::HandBack> {
        let spec = BasisSpec::monomial(S);
        let p = CycleParams { m: M, s: S, spec: &spec, orth, use_mpk: true, prefetch, target: 0.0 };
        let mut stats = SolveStats::default();
        let before = mg.counters().total_msgs();
        let mut cx = SolveCtx { mg: &mut *mg, sys, stats: &mut stats, tsqr_errors: None };
        let end = run_cycle(&mut cx, &p, beta, resume, guard).unwrap();
        if let CycleEnd::Done { y, .. } = &end {
            cx.finish_cycle(y).unwrap();
        }
        let x = sys.download_x(mg).unwrap().iter().map(|v| v.to_bits()).collect();
        let msgs = mg.counters().total_msgs() - before - 2; // less the download
        Ran { end, x, msgs, stats }
    }

    fn full_cycle<G: CycleGuard>(
        schedule: Schedule,
        how: (&OrthConfig, bool),
        guard: &mut G,
    ) -> Ran<G::HandBack> {
        let (mut mg, sys, beta) = machine(schedule, None);
        let ran = cycle(&mut mg, &sys, how, (beta, None), guard);
        assert!(matches!(&ran.end, CycleEnd::Done { y, .. } if y.len() == M));
        ran
    }

    #[test]
    fn regenerate_reseeds_column_zero_in_the_first_block_only() {
        let how = (&OrthConfig::default(), false);
        let clean = full_cycle(Schedule::Barrier, how, &mut NoGuard);
        // first block: the guard scales the seeded column 0 and asks again;
        // only a re-seed can put the residual back
        let mut fake = Fake::scripted([Some(Redo::Regenerate)]);
        fake.mangle = Some(0);
        let first = full_cycle(Schedule::Barrier, how, &mut fake);
        assert_eq!(&fake.blocks[..3], [(0, S, 0), (0, S, 1), (S, S, 0)]);
        assert_eq!(first.x, clean.x, "column 0 was not restored before regenerating");
        // later block: the guard scales a *generated* column; the source
        // column is verified and stays as it is, so regenerating from it
        // reproduces the clean cycle
        let mut fake = Fake::scripted([None, Some(Redo::Regenerate)]);
        fake.mangle = Some(S + 2);
        let later = full_cycle(Schedule::Barrier, how, &mut fake);
        assert_eq!(&fake.blocks[..4], [(0, S, 0), (S, S, 0), (S, S, 1), (2 * S, S, 0)]);
        assert_eq!(later.x, clean.x, "the source column of a later block must be left alone");
        // both pay one more halo exchange; only the first also re-seeds
        // (one broadcast message per device)
        assert_eq!(later.msgs, clean.msgs + 4);
        assert_eq!(first.msgs, later.msgs + 2);
    }

    #[test]
    fn throttle_keeps_verified_columns_and_finishes_in_shorter_blocks() {
        let how = (&OrthConfig::default(), false);
        let mut fake = Fake::scripted([None, Some(Redo::Throttle(2))]);
        let ran = full_cycle(Schedule::Barrier, how, &mut fake);
        // block 2 is generated at s = 5, dropped, and regenerated at s = 2
        // from the same source column; attempts restart with the new shape
        let shapes: Vec<(usize, usize)> = fake.blocks.iter().map(|&(st, s, _)| (st, s)).collect();
        assert_eq!(
            shapes,
            [(0, 5), (5, 5), (5, 2), (7, 2), (9, 2), (11, 2), (13, 2), (15, 2), (17, 2), (19, 1)]
        );
        assert!(fake.blocks.iter().all(|&(_, _, attempt)| attempt == 0));
        assert_eq!(fake.ncols, [6, 8, 10, 12, 14, 16, 18, 20, 21], "verified columns stay");
        assert_eq!(ran.stats.total_iters, M);
        assert_eq!(ran.stats.restarts, 1);
    }

    #[test]
    fn hand_back_then_resume_on_a_rebuilt_executor_matches_the_uninterrupted_cycle() {
        let how = (&OrthConfig::default(), false);
        let clean = full_cycle(Schedule::Barrier, how, &mut NoGuard);

        let (mut mg, sys, beta) = machine(Schedule::Barrier, None);
        let mut fake = Fake { hand_back_after: Some(2), ..Fake::default() };
        let ran = cycle(&mut mg, &sys, how, (beta, None), &mut fake);
        let CycleEnd::HandBack(ck) = ran.end else { panic!("expected a hand-back") };
        assert_eq!((ck.ncols, ran.stats.restarts), (2 * S + 1, 0));

        // a fresh executor: nothing of the interrupted cycle survives on
        // the devices, only the checkpoint on the host
        drop((mg, sys));
        let (mut mg, sys, _) = machine(Schedule::Barrier, None);
        ck.restore(&mut mg, &sys).unwrap();
        let state = CycleState::resume(&mut mg, &ck);
        let mut fake = Fake::default();
        let ran = cycle(&mut mg, &sys, how, (beta, Some(state)), &mut fake);
        assert!(matches!(&ran.end, CycleEnd::Done { y, .. } if y.len() == M));
        assert_eq!(fake.blocks, [(2 * S, S, 0), (3 * S, S, 0)], "resumed at the third block");
        assert_eq!(ran.x, clean.x, "resumed iterate differs from the uninterrupted one");
        assert_eq!(ran.stats.total_iters, M - 2 * S, "verified columns are not recounted");
    }

    #[test]
    fn regenerate_consumes_a_prefetched_halo_once_and_exchanges_normally_after() {
        // CAQR under the event-driven schedule opens the prefetch window
        let orth = OrthConfig { tsqr: TsqrKind::Caqr, ..OrthConfig::default() };
        let plain = full_cycle(Schedule::EventDriven, (&orth, false), &mut NoGuard);
        let clean = full_cycle(Schedule::EventDriven, (&orth, true), &mut NoGuard);
        assert_eq!(clean.stats.prefetches, 3, "every block but the last issues the next halo");
        assert_eq!(clean.msgs, plain.msgs, "a consumed prefetch is the same exchange, earlier");
        assert_eq!(clean.x, plain.x);
        // the second block starts from the halo prefetched during the
        // first; asked to regenerate, it finds the token gone and runs the
        // whole exchange again
        let mut fake = Fake::scripted([None, Some(Redo::Regenerate)]);
        let ran = full_cycle(Schedule::EventDriven, (&orth, true), &mut fake);
        assert_eq!(&fake.blocks[1..3], [(S, S, 0), (S, S, 1)]);
        assert_eq!(ran.x, clean.x);
        assert_eq!(ran.stats.prefetches, clean.stats.prefetches);
        assert_eq!(ran.msgs, clean.msgs + 4, "exactly one more exchange: 2 up, 2 down");
    }

    /// Give the system of `machine` its ABFT checksum, which arms the
    /// orthogonalization's checks.
    fn verified((mut mg, mut sys, beta): (MultiGpu, System, f64)) -> (MultiGpu, System, f64) {
        sys.checksum = Some(crate::ft::checksum(&mut mg, &laplace2d(12, 12), &sys.layout).unwrap());
        (mg, sys, beta)
    }

    #[test]
    fn hooks_fire_in_the_contracted_order() {
        let (mut mg, sys, beta) = verified(machine(Schedule::Barrier, None));
        let mut fake = Fake::default();
        let ran = cycle(&mut mg, &sys, (&OrthConfig::default(), false), (beta, None), &mut fake);
        assert!(matches!(&ran.end, CycleEnd::Done { y, .. } if y.len() == M));
        let per_block = ["poll:MpkBlock", "after_generate", "poll:Orth", "r_diag", "block_done"];
        // the first block has nothing to project against: BOrth is skipped
        // and so is its poll
        let first: Vec<&str> = per_block.iter().copied().filter(|&e| e != "poll:Orth").collect();
        let log: Vec<&str> = fake.log.iter().map(String::as_str).collect();
        assert_eq!(log[..4], first[..]);
        for block in log[4..].chunks(5) {
            assert_eq!(block, per_block);
        }
    }

    #[test]
    fn probe_and_monitor_see_the_block_before_its_checksums_do() {
        // silent corruption in the GEMM/SYRK kernels makes the ABFT
        // compares fail; whenever one does, the hook that precedes it in
        // the contract must already have fired in that attempt:
        // poll(Orth) before BOrth's compare, r_diag before the Gram compare
        let (mut borth_seen, mut gram_seen) = (0, 0);
        for seed in 0..40 {
            let plan = FaultPlan::new(seed).with_sdc(0.03, SdcTargets::gemm_only());
            let (mut mg, sys, beta) = verified(machine(Schedule::Barrier, Some(plan)));
            let mut fake = Fake::default();
            cycle(&mut mg, &sys, (&OrthConfig::default(), false), (beta, None), &mut fake);
            for (i, event) in fake.log.iter().enumerate() {
                match event.as_str() {
                    "mismatch:borth" => {
                        assert_eq!(fake.log[i - 1], "poll:Orth", "seed {seed}: {:?}", fake.log);
                        borth_seen += 1;
                    }
                    "mismatch:gram" => {
                        assert_eq!(fake.log[i - 1], "r_diag", "seed {seed}: {:?}", fake.log);
                        gram_seen += 1;
                    }
                    _ => {}
                }
            }
        }
        assert!(borth_seen > 0 && gram_seen > 0, "borth {borth_seen}, gram {gram_seen}");
    }

    #[test]
    fn reorth_coefficients_reconstruct_the_block() {
        let (mut mg, sys, _) = machine(Schedule::Barrier, None);
        let (n, cols) = (sys.n, 7);
        // an arbitrary full-rank panel in the first seven basis columns
        let orig = Mat::from_fn(n, cols, |i, j| ((i * (j + 2) + 3 * j) % 17) as f64 / 17.0 - 0.4);
        for d in 0..2 {
            let r = sys.layout.range(d);
            for j in 0..cols {
                mg.device_mut(d).mat_mut(sys.v[d]).set_col(j, &orig.col(j)[r.clone()]);
            }
        }
        orth::tsqr(&mut mg, &sys.v, 0, 3, TsqrKind::CholQr, true).unwrap();
        let qprev = gather_block(&mg, &sys, 0, 3);
        let cfg = OrthConfig { reorth: true, ..OrthConfig::default() };
        let mut stats = SolveStats::default();
        let mut cx = SolveCtx { mg: &mut mg, sys: &sys, stats: &mut stats, tsqr_errors: None };
        let (c_eff, r_eff) = orth_block(&mut cx, 3, cols, &cfg, None, &mut NoGuard).unwrap();
        // W_orig = Qprev C_eff + Qnew R_eff
        let qnew = gather_block(&mg, &sys, 3, cols);
        let mut rec = Mat::zeros(n, 4);
        blas3::gemm_nn(1.0, &qprev, &c_eff, 0.0, &mut rec);
        blas3::gemm_nn(1.0, &qnew, &r_eff, 1.0, &mut rec);
        for j in 0..4 {
            for i in 0..n {
                let (got, want) = (rec[(i, j)], orig[(i, 3 + j)]);
                assert!((got - want).abs() < 1e-11, "({i},{j}): {got} vs {want}");
            }
        }
        // and the second pass left the block orthogonal to the previous one
        for jo in 0..3 {
            for jn in 0..4 {
                let d = ca_dense::blas1::dot(qprev.col(jo), qnew.col(jn));
                assert!(d.abs() < 1e-13, "<q{jo}, w{jn}> = {d}");
            }
        }
    }

    #[test]
    fn standard_cycle_polls_once_per_spmv_step() {
        let (mut mg, sys, beta) = machine(Schedule::Barrier, None);
        let mut stats = SolveStats::default();
        let mut cx = SolveCtx { mg: &mut mg, sys: &sys, stats: &mut stats, tsqr_errors: None };
        let mut fake = Fake::default();
        let out = gmres_cycle(&mut cx, M, BorthKind::Cgs, beta, 0.0, &mut fake).unwrap();
        assert_eq!(out.y.len(), M);
        assert_eq!(fake.log, vec!["poll:SpmvBlock"; M]);
    }

    #[test]
    fn back_to_back_phases_split_the_clock_between_their_boundaries() {
        let mut mg = MultiGpu::with_defaults(2);
        let t0 = mg.time();
        let ph = Phase::begin(&mut mg, "small", true);
        mg.host_compute(1e6, 0.0);
        let (first, t1) = (ph.end(&mut mg), mg.time());
        let ph = Phase::begin(&mut mg, "small", true);
        mg.host_compute(3e6, 0.0);
        let second = ph.end(&mut mg);
        assert_eq!((first, second), (t1 - t0, mg.time() - t1));
        assert!(first > 0.0 && second > first);
    }
}
