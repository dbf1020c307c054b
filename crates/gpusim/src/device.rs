//! A simulated GPU device: private memory, real arithmetic, modeled time.
//!
//! A [`Device`] owns vectors ([`VecId`]), tall dense matrices ([`MatId`],
//! used for the Krylov basis blocks) and sparse slices ([`SpId`], ELLPACK
//! with *global* column indices plus the global row ids of the slice).
//! Every kernel method performs the actual arithmetic (so numerics are
//! real) and advances the device's private clock by the calibrated
//! [`PerfModel`] cost. Dense containers are `f64`; a sparse slice carries
//! its own [`Precision`] — an f32 slice runs its SpMV genuinely in single
//! precision (operands rounded to f32, f32 accumulation, result widened
//! back to f64) and is charged the f32 kernel cost. Host-side data
//! plumbing (reading results, uploads) is free here; PCIe costs are
//! charged by [`MultiGpu`](crate::multi::MultiGpu)'s transfer methods.
//!
//! A *cost-only* device ([`MultiGpu::cost_only`](crate::multi::MultiGpu))
//! keeps the second half of that sentence and drops the first: its buffers
//! are shapes, its kernels advance the clock by the same cost and return
//! the neutral value of their contract. `Device::try_launch` is the one
//! place that tells the two apart.

use crate::faults::{FaultPlan, GpuSimError, Result, SdcEvent, SdcKind};
use crate::model::{GemmVariant, GemvVariant, PerfModel, SpmvShape};
use crate::multi::PAR_ROWS;
use crate::stream::{Cmd, Event, StreamTrace};
use crate::team::{share, Loan};
use ca_dense::tile::UPDATE_ROWS;
use ca_dense::{blas1, blas3, qr, tile, Cols, Mat};
use ca_scalar::Precision;
use ca_sparse::ell::WINDOW_ROWS;
use ca_sparse::{Csr, Ell, Hyb};
use std::ops::Range;
use std::sync::{Arc, LazyLock};

/// Handle to a device vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VecId(pub(crate) usize);

/// Handle to a device dense matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatId(pub(crate) usize);

/// Handle to a device sparse slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpId(pub(crate) usize);

/// Allocation watermark of one device, taken with
/// [`Device::mem_checkpoint`] and restored with [`Device::mem_rollback`]
/// when a multi-object build fails partway.
#[derive(Debug, Clone, Copy)]
pub struct MemMark {
    vecs: usize,
    mats: usize,
    slices: usize,
    bytes: usize,
}

/// Sparse storage of a device slice: plain ELLPACK (the paper's GPU
/// format) or hybrid ELL + COO (CUSP-style, robust to hub rows), each at
/// either supported precision. The interface stays `f64`-valued: an f32
/// slice rounds its input vector to f32 per gathered element, accumulates
/// in f32, and widens the finished rows back to f64 — genuine
/// single-precision arithmetic behind a double-precision data plane.
#[derive(Debug, Clone)]
pub enum SpStorage {
    /// ELLPACK: width = longest row, padding priced like real data.
    Ell(Ell),
    /// Hybrid: bounded-width ELL part plus a COO tail.
    Hyb(Hyb),
    /// Single-precision ELLPACK (the mixed-precision MPK operator).
    EllF32(Ell<f32>),
    /// Single-precision hybrid.
    HybF32(Hyb<f32>),
    /// What a cost-only device keeps of any of the above, and what an MPK
    /// level slice is until a device first computes it
    /// ([`Device::fill_slice`]): the shape the SpMV model
    /// prices and the precision it runs at. Holds no entries; multiplying
    /// by it panics.
    Shape(SpmvShape, Precision),
}

impl SpStorage {
    /// Rows in the slice.
    pub fn nrows(&self) -> usize {
        match self {
            SpStorage::Ell(e) => e.nrows(),
            SpStorage::Hyb(h) => h.nrows(),
            SpStorage::EllF32(e) => e.nrows(),
            SpStorage::HybF32(h) => h.nrows(),
            SpStorage::Shape(sh, _) => sh.rows,
        }
    }

    /// Device bytes occupied.
    pub fn bytes(&self) -> usize {
        match self {
            SpStorage::Ell(e) => e.bytes(),
            SpStorage::Hyb(h) => h.bytes(),
            SpStorage::EllF32(e) => e.bytes(),
            SpStorage::HybF32(h) => h.bytes(),
            // a value and a column index per slot, a value and two
            // coordinates per spilled entry — as `Ell`/`Hyb::bytes`
            SpStorage::Shape(sh, p) => sh.slots * (p.bytes() + 4) + sh.spilled * (p.bytes() + 8),
        }
    }

    /// Precision the slice's arithmetic runs at.
    pub fn prec(&self) -> Precision {
        match self {
            SpStorage::Ell(_) | SpStorage::Hyb(_) => Precision::F64,
            SpStorage::EllF32(_) | SpStorage::HybF32(_) => Precision::F32,
            SpStorage::Shape(_, p) => *p,
        }
    }

    /// What the SpMV cost model prices this slice on.
    pub fn shape(&self) -> SpmvShape {
        let (slots, spilled) = match self {
            SpStorage::Ell(e) => (e.padded_nnz(), 0),
            SpStorage::EllF32(e) => (e.padded_nnz(), 0),
            SpStorage::Hyb(h) => (h.width() * h.nrows(), h.spilled()),
            SpStorage::HybF32(h) => (h.width() * h.nrows(), h.spilled()),
            SpStorage::Shape(sh, _) => return *sh,
        };
        SpmvShape { slots, spilled, rows: self.nrows() }
    }

    /// Rows `[window0 * σ, window0 * σ + y.len())` of `y := A x`, σ =
    /// [`WINDOW_ROWS`]: whole windows, but for the last of the slice (see
    /// [`Ell::spmv_window`]), with the bits the whole product gives them.
    /// For f32 storage the product is computed entirely in f32: each
    /// gathered element of `x` is rounded to f32 (the explicit rounding
    /// point of the mixed-precision path), the row accumulates in f32 and
    /// the finished sum is widened on the store.
    pub fn spmv_window(&self, x: &[f64], y: &mut [f64], window0: usize) {
        match self {
            SpStorage::Ell(e) => e.spmv_window(x, y, window0),
            SpStorage::Hyb(h) => h.spmv_window(x, y, window0),
            SpStorage::EllF32(e) => e.spmv_window(x, y, window0),
            SpStorage::HybF32(h) => h.spmv_window(x, y, window0),
            SpStorage::Shape(..) => panic!("a shape-only slice holds no entries to multiply"),
        }
    }
}

/// Rows of a streamed vector one piece of a shared kernel updates: eight
/// L1-sized chunks of the dense kernels.
const ROW_PIECE: usize = 8 * UPDATE_ROWS;

/// Outputs of a reduction one piece of a shared kernel computes: the rows
/// `i` of `C = A^T B` (or entries of `A^T x`) one `8 x 1` register block of
/// the tall-skinny dot kernels covers.
const OUT_PIECE: usize = 8;

/// The storage of `cols.len() / ld` columns of `rows` live entries each, cut
/// into windows of [`ROW_PIECE`] rows: `(first row, that window of every
/// column)`.
fn row_pieces(
    cols: &mut [f64],
    ld: usize,
    rows: usize,
) -> impl Iterator<Item = (usize, Vec<&mut [f64]>)> + Send {
    let mut windows: Vec<_> =
        cols.chunks_mut(ld).map(|c| c.split_at_mut(rows).0.chunks_mut(ROW_PIECE)).collect();
    (0..rows).step_by(ROW_PIECE).map(move |r0| {
        let window = windows.iter_mut().map(|w| w.next().expect("every column has the window"));
        (r0, window.collect())
    })
}

/// `V[:, dst] += V[:, src] * factor` ([`blas3::update_cols`]), in row
/// windows shared with `crew` when no source is a destination.
fn update_shared(
    crew: Option<&Loan>,
    v: &mut Mat,
    (s0, s1): (usize, usize),
    (d0, d1): (usize, usize),
    factor: impl Fn(usize, usize) -> f64 + Sync,
) {
    if !(s1 <= d0 || d1 <= s0) {
        return blas3::update_cols(v, (s0, s1), (d0, d1), factor);
    }
    let (rows, ld) = (v.nrows(), v.ld());
    let (left, dst, right) = v.split_cols_mut(d0, d1);
    let src = if s1 <= d0 { left.cols(s0, s1) } else { right.cols(s0 - d1, s1 - d1) };
    share(crew, row_pieces(dst, ld, rows), |(r0, mut dst)| {
        let r1 = r0 + dst.first().map_or(0, |c| c.len());
        blas3::update_rows(src.rows(r0, r1), &mut dst, &factor);
    });
}

/// `V[:, j0 + c0..j0 + c1] := (V[:, j0..j1] * Q)[:, c0..c1]` with small
/// `k x k` `Q`, the block read with its last column replaced by `last` when
/// given — the body of CAQR's local update and of both halves of its split.
/// Each output column of `gemm_nn` is accumulated on its own, so a column
/// range has the bits it has in the whole product.
fn right_small_cols(
    m: &mut Mat,
    (j0, j1): (usize, usize),
    q: &Mat,
    (c0, c1): (usize, usize),
    last: Option<&[f64]>,
) {
    let k = j1 - j0;
    assert_eq!((q.nrows(), q.ncols()), (k, k));
    let mut block = m.cols_copy(j0, j1);
    if let Some(last) = last {
        block.set_col(k - 1, last);
    }
    let mut out = Mat::zeros(m.nrows(), c1 - c0);
    blas3::gemm_nn(1.0, &block, &q.cols_copy(c0, c1), 0.0, &mut out);
    for j in c0..c1 {
        m.set_col(j0 + j, out.col(j - c0));
    }
}

/// `C := A^T B` over the panels of `panel_rows` ([`blas3::gemm_tn_rows`]),
/// in blocks of [`OUT_PIECE`] rows shared with `crew`. With `upper` (`a` and
/// `b` the same columns) the lower triangle mirrors the upper one.
fn gemm_tn_shared(
    crew: Option<&Loan>,
    a: Cols<'_>,
    b: Cols<'_>,
    panel_rows: Option<usize>,
    upper: bool,
) -> Mat {
    let (ka, kb) = (a.ncols(), b.ncols());
    let mut ct = vec![0.0; ka * kb];
    let pieces = ct.chunks_mut((OUT_PIECE * kb).max(1)).enumerate();
    share(crew, pieces, |(p, ct)| {
        blas3::gemm_tn_rows(a, b, p * OUT_PIECE, panel_rows, upper, ct);
    });
    Mat::from_fn(ka, kb, |i, j| if upper && i > j { ct[i + j * kb] } else { ct[j + i * kb] })
}

/// Slots an SpMV piece streams at least: 64 sorting windows of single-slot
/// rows, a few hundred KB of storage, so that handing a piece to a helper
/// costs little against computing it even on a five-point stencil.
const PIECE_SLOTS: usize = 64 * WINDOW_ROWS;

/// `y := A x` cut into the pieces a shared kernel hands out: whole sorting
/// windows of the slice's host storage, as many as [`PIECE_SLOTS`] asks
/// for at the slice's average row width — `(A, first window, its rows of
/// y)`.
fn spmv_pieces<'a>(
    a: &'a SpStorage,
    y: &'a mut [f64],
) -> impl Iterator<Item = (&'a SpStorage, usize, &'a mut [f64])> + Send {
    let sh = a.shape();
    let width = (sh.slots + sh.spilled).div_ceil(sh.rows.max(1)).max(1);
    let windows = (PIECE_SLOTS / (width * WINDOW_ROWS)).max(1);
    y.chunks_mut(windows * WINDOW_ROWS).enumerate().map(move |(k, y)| (a, k * windows, y))
}

/// A sparse slice: rows `rows[i]` (global ids) of some global matrix,
/// stored with global column indices.
#[derive(Debug, Clone)]
pub struct SpSlice {
    /// Sparse storage (ncols = global n). Immutable once loaded, so the
    /// host keeps one copy however many slices — each with its own id and
    /// its own charged device bytes — were loaded from it.
    pub storage: Arc<SpStorage>,
    /// Global row ids, one per local row (none on a cost-only device).
    pub rows: Vec<u32>,
}

/// What a freed slice slot holds: no rows, no bytes, one allocation for
/// every tombstone there will ever be.
static EMPTY_STORAGE: LazyLock<Arc<SpStorage>> = LazyLock::new(|| {
    Arc::new(SpStorage::Ell(Ell::from_csr(&Csr::from_raw(0, 0, vec![0], vec![], vec![]))))
});

/// One simulated GPU.
#[derive(Debug)]
pub struct Device {
    id: usize,
    clock: f64,
    model: Arc<PerfModel>,
    /// Cost-only: buffers carry their shape and no storage, launches are
    /// charged and compute nothing. Fixed by the `MultiGpu` constructor.
    shape_only: bool,
    /// Device vectors, each a one-column matrix.
    vecs: Vec<Mat>,
    mats: Vec<Mat>,
    /// Live matrices of at least [`PAR_ROWS`] rows: the grain
    /// [`MultiGpu::run_map`](crate::multi::MultiGpu::run_map) threads on.
    par_panels: usize,
    slices: Vec<SpSlice>,
    mem_bytes: usize,
    /// Kernel ops completed (fault-plan coordinate; counted always so a
    /// zero-rate plan is bit-identical to no plan).
    ops: u64,
    /// Allocations attempted (fault-plan coordinate).
    allocs: u64,
    /// Installed fault schedule, if any.
    faults: Option<Arc<FaultPlan>>,
    /// Persistent device loss: clock frozen, transfers fail.
    lost: bool,
    /// Sustained kernel-latency multiplier (1.0 = healthy), applied as a
    /// fault plan's fail-slow factor is.
    slowdown: f64,
    /// Silent corruptions injected so far (study bookkeeping).
    sdc_injected: u64,
    /// Optional command-queue trace (off by default).
    stream: StreamTrace,
    /// Observed kernel seconds (includes injected fail-slow perturbation).
    busy_s: f64,
    /// Modeled kernel seconds (what a healthy device would have taken).
    modeled_busy_s: f64,
    /// EWMA of per-command observed/modeled latency (1.0 = healthy).
    ewma_slowdown: f64,
    /// Worst single-command overshoot (observed − modeled seconds) — the
    /// hang detector's evidence.
    max_overshoot_s: f64,
    /// Where the scatter kernels' SpMV lands before its rows are placed:
    /// host scratch kept between commands, not device memory (never
    /// charged).
    spmv_out: Vec<f64>,
    /// Where this device's owner lends pieces of a kernel to the host
    /// threads of its machine's team that have no device left to run (set
    /// when the team starts; none on a machine that never threads).
    pub(crate) crew: Option<Arc<Loan>>,
}

/// EWMA smoothing for the per-command latency ratio: small enough to ride
/// out one noisy command, large enough to converge within a few dozen ops.
const EWMA_ALPHA: f64 = 0.125;

/// One row of the basis recurrence [`Device::mpk_step`] fuses into its
/// SpMV: `scale * (y - re * cur) + im2 * old`, each half skipped when it is
/// the identity, in the arithmetic of the slice the row belongs to.
#[inline(always)]
fn recurrence(
    prec: Precision,
    (re, im2, scale): (f64, f64, f64),
    y: f64,
    cur: f64,
    old: f64,
) -> f64 {
    let (shift, mix) = (re != 0.0 || scale != 1.0, im2 != 0.0);
    match prec {
        Precision::F64 => {
            let v = if shift { scale * (y - re * cur) } else { y };
            if mix {
                v + im2 * old
            } else {
                v
            }
        }
        Precision::F32 => {
            let (re, im2, scale) = (re as f32, im2 as f32, scale as f32);
            let v = if shift { (scale * (y as f32 - re * cur as f32)) as f64 } else { y };
            if mix {
                (v as f32 + im2 * old as f32) as f64
            } else {
                v
            }
        }
    }
}

/// The neutral value of a kernel that returns nothing.
fn nothing() {}

impl Device {
    pub(crate) fn new(id: usize, model: Arc<PerfModel>, shape_only: bool) -> Self {
        Self {
            id,
            clock: 0.0,
            model,
            shape_only,
            vecs: Vec::new(),
            mats: Vec::new(),
            par_panels: 0,
            slices: Vec::new(),
            mem_bytes: 0,
            ops: 0,
            allocs: 0,
            faults: None,
            lost: false,
            slowdown: 1.0,
            sdc_injected: 0,
            stream: StreamTrace::default(),
            busy_s: 0.0,
            modeled_busy_s: 0.0,
            ewma_slowdown: 1.0,
            max_overshoot_s: 0.0,
            spmv_out: Vec::new(),
            crew: None,
        }
    }

    /// Device index (0-based).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Simulated seconds this device has been busy.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    pub(crate) fn set_clock(&mut self, t: f64) {
        if self.lost {
            return; // a dead device's clock stays frozen
        }
        self.clock = t;
    }

    pub(crate) fn advance(&mut self, name: &'static str, dt: f64) {
        debug_assert!(dt >= 0.0);
        if self.lost {
            return;
        }
        self.ops += 1;
        if let Some(p) = &self.faults {
            if p.loses_device(self.id, self.ops) {
                self.lost = true;
                return; // the op that kills the device never completes
            }
        }
        // fail-slow perturbation: a pure function of (seed, device, op).
        // Both branches are gated on a non-neutral draw so a zero-rate
        // plan leaves `actual` bit-identical to `dt`.
        let mut actual = dt * self.slowdown;
        if let Some(p) = &self.faults {
            let m = p.compute_multiplier(self.id, self.ops);
            if m != 1.0 {
                actual *= m;
            }
            let stall = p.stall_time(self.id, self.ops);
            if stall > 0.0 {
                actual += stall;
            }
        }
        let start = self.clock;
        self.clock += actual;
        self.busy_s += actual;
        self.modeled_busy_s += dt;
        if actual > dt {
            self.max_overshoot_s = self.max_overshoot_s.max(actual - dt);
        }
        if dt > 0.0 {
            self.ewma_slowdown += EWMA_ALPHA * (actual / dt - self.ewma_slowdown);
        }
        if self.stream.is_enabled() {
            self.stream.push(Cmd::Kernel { name, start, dur: actual, modeled: dt });
        }
    }

    /// Make this queue wait for an event: the next command starts no
    /// earlier than `t` (the `waited_events` term of the start-time rule).
    /// No-op on a lost device — its clock stays frozen.
    pub(crate) fn wait_until(&mut self, t: f64, ev: Event) {
        if self.lost {
            return;
        }
        self.clock = self.clock.max(t);
        if self.stream.is_enabled() {
            self.stream.push(Cmd::WaitEvent { event: ev, until: self.clock });
        }
    }

    pub(crate) fn log_cmd(&mut self, cmd: Cmd) {
        if self.stream.is_enabled() {
            self.stream.push(cmd);
        }
    }

    /// Start recording commands issued to this device's stream.
    pub fn enable_trace(&mut self) {
        self.stream.enable();
    }

    /// Whether this device's commands are being recorded.
    pub(crate) fn is_tracing(&self) -> bool {
        self.stream.is_enabled()
    }

    /// Commands recorded since trace enablement.
    pub fn trace(&self) -> &[Cmd] {
        self.stream.cmds()
    }

    /// Drain the recorded command trace.
    pub fn take_trace(&mut self) -> Vec<Cmd> {
        self.stream.take()
    }

    /// Drop buffered trace commands (recording stays on).
    pub fn clear_trace(&mut self) {
        self.stream.clear();
    }

    /// Whether this device is cost-only (see [`crate::MultiGpu::cost_only`]).
    pub fn is_cost_only(&self) -> bool {
        self.shape_only
    }

    /// Run every later kernel `factor` times its modeled duration — a
    /// known sustained slowdown (a planner's what-if, a measured latency
    /// EWMA), charged like a fault plan's fail-slow factor. 1.0 is inert.
    pub fn set_slowdown(&mut self, factor: f64) {
        assert!(factor > 0.0);
        self.slowdown = factor;
    }

    /// Install (or clear) the fault schedule.
    pub fn set_faults(&mut self, plan: Option<Arc<FaultPlan>>) {
        self.faults = plan;
    }

    /// Whether a fault plan is installed, a zero-rate one included.
    pub(crate) fn has_faults(&self) -> bool {
        self.faults.is_some()
    }

    /// Has this device suffered persistent loss?
    pub fn is_lost(&self) -> bool {
        self.lost
    }

    /// Declare this device lost (watchdog verdict): the clock freezes and
    /// every subsequent command or transfer is refused, exactly as if the
    /// fault plan had killed it.
    pub(crate) fn mark_lost(&mut self) {
        self.lost = true;
    }

    /// Kernel ops completed so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Observed kernel seconds, including injected fail-slow time.
    pub fn busy_time(&self) -> f64 {
        self.busy_s
    }

    /// Modeled kernel seconds (what a healthy device would have taken).
    pub fn modeled_busy_time(&self) -> f64 {
        self.modeled_busy_s
    }

    /// EWMA of per-command observed/modeled latency. 1.0 on a healthy
    /// device; converges toward the slowdown factor on a degraded one.
    pub fn ewma_slowdown(&self) -> f64 {
        self.ewma_slowdown
    }

    /// Worst single-command overshoot (observed − modeled seconds) seen so
    /// far — what the watchdog compares against its hang timeout.
    pub fn max_overshoot(&self) -> f64 {
        self.max_overshoot_s
    }

    /// Silent corruptions injected into this device's kernel outputs.
    pub fn sdc_injected(&self) -> u64 {
        self.sdc_injected
    }

    /// The corruption the plan holds for the current op, if it is hit:
    /// a function of `self.ops` (the *current* op's index, advance() bumps
    /// after) alone, so a kernel can draw it before it computes and apply
    /// it to its output in place.
    fn sdc_draw(&mut self, kind: SdcKind) -> Option<SdcEvent> {
        let e = self.faults.as_ref()?.sdc_event(self.id, self.ops, kind)?;
        self.sdc_injected += 1;
        Some(e)
    }

    /// Corrupt one element of a kernel output if the plan says this op is
    /// hit.
    fn maybe_corrupt(&mut self, kind: SdcKind, data: &mut [f64]) {
        if let Some(e) = self.sdc_draw(kind) {
            e.apply(data);
        }
    }

    /// [`Device::maybe_corrupt`] for a small dense output matrix.
    fn maybe_corrupt_mat(&mut self, kind: SdcKind, m: &mut Mat) {
        if let Some(p) = &self.faults {
            if let Some(e) = p.sdc_event(self.id, self.ops, kind) {
                let (r, c) = (m.nrows(), m.ncols());
                if r * c > 0 {
                    let idx = (e.lane % (r * c) as u64) as usize;
                    let (i, j) = (idx % r, idx / r);
                    m[(i, j)] = f64::from_bits(m[(i, j)].to_bits() ^ (1u64 << e.bit));
                    self.sdc_injected += 1;
                }
            }
        }
    }

    /// Bytes of device memory currently allocated (the paper's MPK storage
    /// overhead discussion, §IV-A).
    pub fn mem_used(&self) -> usize {
        self.mem_bytes
    }

    /// Bytes still available before the modeled capacity is exhausted.
    pub fn mem_free(&self) -> usize {
        self.model.dev_mem_capacity.saturating_sub(self.mem_bytes)
    }

    fn charge_mem(&mut self, bytes: usize) -> Result<()> {
        let alloc_index = self.allocs;
        self.allocs += 1;
        if self.lost {
            return Err(GpuSimError::DeviceLost { device: self.id });
        }
        let injected = self.faults.as_ref().is_some_and(|p| p.fails_alloc(self.id, alloc_index));
        if injected || self.mem_bytes + bytes > self.model.dev_mem_capacity {
            return Err(GpuSimError::OutOfMemory {
                device: self.id,
                requested: bytes,
                free: self.mem_free(),
            });
        }
        self.mem_bytes += bytes;
        Ok(())
    }

    // ---------- allocation (free: matches the paper excluding setup) ----------

    /// A zeroed `rows x cols` buffer — on a cost-only device, its shape.
    fn buffer(&self, rows: usize, cols: usize) -> Mat {
        if self.shape_only {
            Mat::shape_only(rows, cols)
        } else {
            Mat::zeros(rows, cols)
        }
    }

    /// Allocate a zeroed device vector.
    ///
    /// # Errors
    /// [`GpuSimError::OutOfMemory`] when the modeled device memory capacity
    /// would be exceeded (or an allocation fault is injected).
    pub fn alloc_vec(&mut self, len: usize) -> Result<VecId> {
        self.charge_mem(len * 8)?;
        self.vecs.push(self.buffer(len, 1));
        Ok(VecId(self.vecs.len() - 1))
    }

    /// Allocate a zeroed `rows x cols` device matrix.
    ///
    /// # Errors
    /// [`GpuSimError::OutOfMemory`] when the modeled device memory capacity
    /// would be exceeded (or an allocation fault is injected).
    pub fn alloc_mat(&mut self, rows: usize, cols: usize) -> Result<MatId> {
        self.charge_mem(rows * cols * 8)?;
        self.mats.push(self.buffer(rows, cols));
        self.par_panels += usize::from(rows >= PAR_ROWS);
        Ok(MatId(self.mats.len() - 1))
    }

    /// Whether this device holds a dense panel of at least [`PAR_ROWS`]
    /// rows.
    pub(crate) fn holds_par_panel(&self) -> bool {
        self.par_panels > 0
    }

    /// Load an ELLPACK sparse slice into device memory.
    ///
    /// # Errors
    /// [`GpuSimError::OutOfMemory`] when the modeled device memory capacity
    /// would be exceeded (or an allocation fault is injected).
    pub fn load_slice(&mut self, ell: Ell, rows: Vec<u32>) -> Result<SpId> {
        self.load_slice_storage(SpStorage::Ell(ell), rows)
    }

    /// Load a sparse slice in any storage format. Loading an `Arc` that
    /// another slice (on this or another device) already holds is a load
    /// like any other — a new id, the full bytes charged — for which the
    /// host stores nothing twice.
    ///
    /// # Errors
    /// [`GpuSimError::OutOfMemory`] when the modeled device memory capacity
    /// would be exceeded (or an allocation fault is injected).
    pub fn load_slice_storage(
        &mut self,
        storage: impl Into<Arc<SpStorage>>,
        rows: Vec<u32>,
    ) -> Result<SpId> {
        let mut storage = storage.into();
        let mut rows = rows;
        if self.shape_only {
            // keep what the model prices, drop what the host would multiply
            storage = Arc::new(SpStorage::Shape(storage.shape(), storage.prec()));
            rows = Vec::new();
        } else {
            assert_eq!(storage.nrows(), rows.len());
        }
        self.charge_mem(storage.bytes() + storage.nrows() * 4)?;
        self.slices.push(SpSlice { storage, rows });
        Ok(SpId(self.slices.len() - 1))
    }

    /// Give a slice loaded as its priced shape ([`SpStorage::Shape`]) the
    /// entries it stands for, built on the host after the load. `storage`
    /// must have the shape and precision it replaces: the slice keeps its
    /// id, rows and charged bytes, and nothing is charged.
    pub fn fill_slice(&mut self, s: SpId, storage: SpStorage) {
        assert!(!self.shape_only, "a cost-only device keeps shapes");
        let sl = &mut self.slices[s.0];
        let priced = (storage.shape(), storage.prec());
        assert!(
            matches!(*sl.storage, SpStorage::Shape(sh, p) if (sh, p) == priced),
            "slice {} is no shape of {priced:?}",
            s.0
        );
        sl.storage = Arc::new(storage);
    }

    // ---------- deallocation (multi-tenant residency management) ----------
    //
    // One-shot solves never free: the executor is dropped wholesale at the
    // end, matching the paper's setup-excluded methodology. A *service*
    // that keeps operators resident across jobs needs to return memory
    // when a cold matrix is evicted, without invalidating the ids other
    // resident systems hold — so frees tombstone the slot in place (ids
    // are indices and must stay stable) and only the byte accounting and
    // the backing host storage are released. Double-frees are idempotent:
    // an already-empty slot releases zero bytes.

    /// Free a device vector: release its bytes and tombstone the slot.
    pub fn free_vec(&mut self, v: VecId) {
        let bytes = self.vecs[v.0].nrows() * 8;
        self.mem_bytes = self.mem_bytes.saturating_sub(bytes);
        self.vecs[v.0] = Mat::zeros(0, 1);
    }

    /// Free a device matrix: release its bytes and tombstone the slot.
    pub fn free_mat(&mut self, m: MatId) {
        let mat = &self.mats[m.0];
        let bytes = mat.nrows() * mat.ncols() * 8;
        self.par_panels -= usize::from(mat.nrows() >= PAR_ROWS);
        self.mem_bytes = self.mem_bytes.saturating_sub(bytes);
        self.mats[m.0] = Mat::zeros(0, 0);
    }

    /// Free a sparse slice: release its bytes and tombstone the slot.
    pub fn free_slice(&mut self, s: SpId) {
        let sl = &self.slices[s.0];
        let bytes = sl.storage.bytes() + sl.storage.nrows() * 4;
        self.mem_bytes = self.mem_bytes.saturating_sub(bytes);
        self.slices[s.0] = SpSlice { storage: Arc::clone(&EMPTY_STORAGE), rows: Vec::new() };
    }

    /// Snapshot the allocation state before a fallible multi-object build
    /// (e.g. loading a new operator under memory pressure). If the build
    /// fails partway, [`Device::mem_rollback`] discards everything
    /// allocated since — otherwise the half-built object's charges would
    /// leak, since its ids never escaped to be freed.
    pub fn mem_checkpoint(&self) -> MemMark {
        MemMark {
            vecs: self.vecs.len(),
            mats: self.mats.len(),
            slices: self.slices.len(),
            bytes: self.mem_bytes,
        }
    }

    /// Roll allocations back to `mark`. Only valid when nothing allocated
    /// *before* the mark was freed in between (the service's
    /// evict-then-build ordering guarantees this), and when no id handed
    /// out after the mark survives the rollback.
    pub fn mem_rollback(&mut self, mark: &MemMark) {
        debug_assert!(self.vecs.len() >= mark.vecs);
        debug_assert!(self.mats.len() >= mark.mats);
        debug_assert!(self.slices.len() >= mark.slices);
        let dropped = self.mats.iter().skip(mark.mats).filter(|m| m.nrows() >= PAR_ROWS);
        self.par_panels -= dropped.count();
        self.vecs.truncate(mark.vecs);
        self.mats.truncate(mark.mats);
        self.slices.truncate(mark.slices);
        self.mem_bytes = mark.bytes;
    }

    fn spmv_cost(&self, s: SpId) -> f64 {
        let storage = &self.slices[s.0].storage;
        let sh = storage.shape();
        self.model.spmv_hyb_time(sh.slots, sh.spilled, sh.rows, storage.prec())
    }

    // ---------- host-side inspection (free) ----------

    /// Read a device vector (host-side debugging/assembly; no cost — pair
    /// with a `MultiGpu` transfer charge when modeling a real download).
    pub fn vec(&self, v: VecId) -> &[f64] {
        self.vecs[v.0].col(0)
    }

    /// Mutable host-side access to a device vector.
    pub fn vec_mut(&mut self, v: VecId) -> &mut [f64] {
        self.vecs[v.0].col_mut(0)
    }

    /// Read a device matrix.
    pub fn mat(&self, m: MatId) -> &Mat {
        &self.mats[m.0]
    }

    /// Mutable host-side access to a device matrix.
    pub fn mat_mut(&mut self, m: MatId) -> &mut Mat {
        &mut self.mats[m.0]
    }

    /// Read a sparse slice.
    pub fn slice(&self, s: SpId) -> &SpSlice {
        &self.slices[s.0]
    }

    // ---------- the launch rule ----------
    //
    // Every kernel entry point is a command issued to this device's
    // stream: it performs the real arithmetic immediately (issue order =
    // program order) and advances the queue tail (`clock`) by the modeled
    // cost. Whether a launch computes is decided here and nowhere else.

    /// Issue one kernel launch of `dt` modeled seconds. A lost device
    /// accepts no commands — the same liveness rule transfers enforce:
    /// nothing is charged, no state changes, and the first transfer that
    /// touches the device surfaces the loss as `GpuSimError::DeviceLost`. A
    /// cost-only device is charged and touches no data. Either answers with
    /// `neutral`, the well-posed value of the kernel's contract (identity
    /// Gram and `R` factors, unit norms, zero projections), so the host-side
    /// factorizations that consume it run unmodified. Otherwise `compute`
    /// does the arithmetic and the launch is charged — unless it fails,
    /// which aborts the launch.
    fn try_launch<T, E>(
        &mut self,
        name: &'static str,
        dt: f64,
        neutral: impl FnOnce() -> T,
        compute: impl FnOnce(&mut Self) -> std::result::Result<T, E>,
    ) -> std::result::Result<T, E> {
        if self.lost {
            return Ok(neutral());
        }
        let out = if self.shape_only { neutral() } else { compute(self)? };
        self.advance(name, dt);
        Ok(out)
    }

    /// [`Device::try_launch`] for a kernel that cannot fail.
    fn launch<T>(
        &mut self,
        name: &'static str,
        dt: f64,
        neutral: impl FnOnce() -> T,
        compute: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let ok = |dev: &mut Self| Ok::<T, std::convert::Infallible>(compute(dev));
        self.try_launch(name, dt, neutral, ok).unwrap_or_else(|never| match never {})
    }

    /// [`Device::launch`] for a kernel that returns nothing.
    fn run(&mut self, name: &'static str, dt: f64, compute: impl FnOnce(&mut Self)) {
        self.launch(name, dt, nothing, compute);
    }

    fn rows(&self, v: MatId) -> usize {
        self.mats[v.0].nrows()
    }

    // ---------- BLAS-1 kernels ----------

    /// `V[:, dst] += alpha * V[:, src]`.
    pub fn axpy_cols(&mut self, v: MatId, alpha: f64, src: usize, dst: usize) {
        let dt = self.model.blas1_time(3 * self.rows(v), Precision::F64);
        self.run("axpy", dt, |dev| {
            let (s, d) = if src < dst {
                let (a, b) = dev.mats[v.0].two_cols_mut(src, dst);
                (a, b)
            } else {
                let (a, b) = dev.mats[v.0].two_cols_mut(dst, src);
                (b, a)
            };
            blas1::axpy(alpha, s, d);
        });
    }

    /// `V[:, col] *= alpha`.
    pub fn scal_col(&mut self, v: MatId, col: usize, alpha: f64) {
        let dt = self.model.blas1_time(2 * self.rows(v), Precision::F64);
        self.run("scal", dt, |dev| blas1::scal(alpha, dev.mats[v.0].col_mut(col)));
    }

    /// Local dot product `V[:, a] . V[:, b]` (the MGS building block).
    /// Neutral value: a unit norm (`a == b`), a zero projection otherwise.
    pub fn dot_cols(&mut self, v: MatId, a: usize, b: usize) -> f64 {
        let dt = self.model.blas1_time(2 * self.rows(v), Precision::F64);
        let neutral = || if a == b { 1.0 } else { 0.0 };
        self.launch("dot", dt, neutral, |dev| {
            let m = &dev.mats[v.0];
            let mut out = [blas1::dot(m.col(a), m.col(b))];
            dev.maybe_corrupt(SdcKind::Dot, &mut out);
            out[0]
        })
    }

    /// Squared norm of `V[:, col]` (same cost as a dot).
    pub fn norm2_sq_col(&mut self, v: MatId, col: usize) -> f64 {
        self.dot_cols(v, col, col)
    }

    /// Copy `V[:, src]` to `V[:, dst]`.
    pub fn copy_col(&mut self, v: MatId, src: usize, dst: usize) {
        let dt = self.model.blas1_time(2 * self.rows(v), Precision::F64);
        self.run("copy_col", dt, |dev| {
            let m = &mut dev.mats[v.0];
            if src < dst {
                let (s, d) = m.two_cols_mut(src, dst);
                d.copy_from_slice(s);
            } else if dst < src {
                let (d, s) = m.two_cols_mut(dst, src);
                d.copy_from_slice(s);
            }
        });
    }

    // ---------- ABFT detector kernels ----------
    //
    // Checksum reductions used by the fault-tolerance layer. They are real
    // kernels (they advance the clock, so detection overhead is priced) but
    // they are never SDC-injection targets: a corrupted detector would turn
    // every experiment into a study of the detector, not the solver. Their
    // neutral value is zero: nothing verifies data a device does not hold.

    /// `(sum V[:, col], sum |V[:, col]|)` — the `1^T v` checksum plus the
    /// magnitude scale its verification tolerance is relative to.
    pub fn sum_col_abs(&mut self, v: MatId, col: usize) -> [f64; 2] {
        let dt = self.model.blas1_time(self.rows(v), Precision::F64);
        let neutral = || [0.0; 2];
        self.launch("abft_colsum", dt, neutral, |dev| {
            let mut s = 0.0;
            let mut a = 0.0;
            for &x in dev.mats[v.0].col(col) {
                s += x;
                a += x.abs();
            }
            [s, a]
        })
    }

    /// `(z[..rows] . V[:, col], sum |z_i * V[i, col]|)` — dot of a
    /// device-resident checksum vector against a basis column.
    pub fn dot_vec_col_abs(&mut self, z: VecId, v: MatId, col: usize) -> [f64; 2] {
        assert!(self.vecs[z.0].nrows() >= self.rows(v), "checksum vector shorter than column");
        let dt = self.model.blas1_time(2 * self.rows(v), Precision::F64);
        let neutral = || [0.0; 2];
        self.launch("abft_dot", dt, neutral, |dev| {
            let mut s = 0.0;
            let mut a = 0.0;
            for (&x, &y) in dev.vecs[z.0].col(0).iter().zip(dev.mats[v.0].col(col)) {
                s += x * y;
                a += (x * y).abs();
            }
            [s, a]
        })
    }

    /// `((V_a 1)^T (V_b 1), sum |(V_a 1)_i (V_b 1)_i|)` over the column
    /// ranges `a` and `b` — the scalar checksum `1^T (V_a^T V_b) 1` of a
    /// Gram/projection reduction, computed independently of the GEMM it
    /// verifies.
    pub fn block_sum_dot(&mut self, v: MatId, a: (usize, usize), b: (usize, usize)) -> [f64; 2] {
        let rows = self.rows(v);
        let dt = self.model.blas1_time(rows * ((a.1 - a.0) + (b.1 - b.0)), Precision::F64);
        let neutral = || [0.0; 2];
        self.launch("abft_block_dot", dt, neutral, |dev| {
            let m = &dev.mats[v.0];
            // Row sums of both blocks a chunk of rows at a time: each column is
            // streamed once, every row sum adds its columns in `j` order and the
            // rows fold in `i` order, as a row-by-row walk would.
            const CHUNK: usize = 512;
            let row_sums = |(j0, j1): (usize, usize), r0: usize, out: &mut [f64]| {
                out.fill(0.0);
                for j in j0..j1 {
                    for (o, &x) in out.iter_mut().zip(&m.col(j)[r0..]) {
                        *o += x;
                    }
                }
            };
            let (mut pa, mut pb) = ([0.0; CHUNK], [0.0; CHUNK]);
            let mut dot = 0.0;
            let mut abs = 0.0;
            for r0 in (0..rows).step_by(CHUNK) {
                let len = CHUNK.min(rows - r0);
                row_sums(a, r0, &mut pa[..len]);
                row_sums(b, r0, &mut pb[..len]);
                for (x, y) in pa[..len].iter().zip(&pb[..len]) {
                    dot += x * y;
                    abs += (x * y).abs();
                }
            }
            [dot, abs]
        })
    }

    // ---------- BLAS-2 kernels ----------

    /// `r := V[:, j0..j1]^T V[:, x]` — CGS's projection GEMV.
    pub fn gemv_t_cols(
        &mut self,
        v: MatId,
        j0: usize,
        j1: usize,
        x: usize,
        variant: GemvVariant,
    ) -> Vec<f64> {
        let dt = self.model.gemv_t_time(variant, self.rows(v), j1 - j0);
        let neutral = || vec![0.0; j1 - j0];
        self.launch("gemv_t", dt, neutral, |dev| {
            let m = &dev.mats[v.0];
            let mut r = vec![0.0; j1 - j0];
            share(dev.crew.as_deref(), r.chunks_mut(OUT_PIECE).enumerate(), |(p, r)| {
                let i0 = j0 + p * OUT_PIECE;
                let a = m.cols(i0, i0 + r.len());
                tile::dots_tn(a, m.cols(x, x + 1), false, |k, _, d| r[k] = d);
            });
            r
        })
    }

    /// `V[:, dst] -= V[:, j0..j1] * coeffs` — the Gram-Schmidt update GEMV.
    pub fn gemv_n_update(&mut self, v: MatId, j0: usize, j1: usize, coeffs: &[f64], dst: usize) {
        // modeled as one fused GEMV-like streaming pass
        let dt = self.model.gemv_t_time(GemvVariant::MagmaTallSkinny, self.rows(v), j1 - j0);
        self.run("gemv_n", dt, |dev| {
            assert_eq!(coeffs.len(), j1 - j0);
            let (crew, m) = (dev.crew.as_deref(), &mut dev.mats[v.0]);
            update_shared(crew, m, (j0, j1), (dst, dst + 1), |k, _| -coeffs[k]);
        });
    }

    /// Rank-1 update `V[:, c0..c1] -= V[:, src] * coeffs^T` — MGS-style
    /// block orthogonalization against a single previous vector, charged
    /// like one streaming GEMV pass.
    pub fn rank1_update(&mut self, v: MatId, src: usize, c0: usize, c1: usize, coeffs: &[f64]) {
        let dt = self.model.gemv_t_time(GemvVariant::MagmaTallSkinny, self.rows(v), c1 - c0);
        self.run("rank1_update", dt, |dev| {
            assert_eq!(coeffs.len(), c1 - c0);
            blas3::update_cols(&mut dev.mats[v.0], (src, src + 1), (c0, c1), |_, k| -coeffs[k]);
        });
    }

    // ---------- BLAS-3 kernels ----------

    /// Gram matrix `B := V[:, j0..j1]^T V[:, j0..j1]` (CholQR/SVQR step 1).
    /// The batched variant computes panel-partial sums in the batched
    /// order — numerically distinct from the flat order, as on the GPU.
    /// Neutral value: the identity.
    pub fn syrk_cols(&mut self, v: MatId, j0: usize, j1: usize, variant: GemmVariant) -> Mat {
        let k = j1 - j0;
        let dt = self.model.gemm_tn_time(variant, self.rows(v), k, k, Precision::F64);
        let neutral = || Mat::identity(k);
        self.launch("syrk", dt, neutral, |dev| {
            let block = dev.mats[v.0].cols(j0, j1);
            let mut b =
                gemm_tn_shared(dev.crew.as_deref(), block, block, variant.panel_rows(), true);
            dev.maybe_corrupt_mat(SdcKind::Gemm, &mut b);
            b
        })
    }

    /// Gram matrix accumulated in **single precision** — the
    /// mixed-precision CholQR variant of \[23\]: entries are rounded to f32
    /// and the partial sums accumulate in f32, so the result carries
    /// genuine single-precision rounding. About half the cost of the f64
    /// kernel on Fermi-class hardware. Neutral value: the identity.
    pub fn syrk_cols_f32(&mut self, v: MatId, j0: usize, j1: usize, variant: GemmVariant) -> Mat {
        let k = j1 - j0;
        let rows = self.rows(v);
        let dt = self.model.gemm_tn_time(variant, rows, k, k, Precision::F32);
        let neutral = || Mat::identity(k);
        self.launch("syrk_f32", dt, neutral, |dev| {
            let m = &dev.mats[v.0];
            let mut b = Mat::zeros(k, k);
            let h = variant.panel_rows().unwrap_or(rows.max(1));
            let nb = rows.div_ceil(h).max(1);
            for p in 0..nb {
                let r0 = p * h;
                let r1 = (r0 + h).min(rows);
                for jj in 0..k {
                    let cj = &m.col(j0 + jj)[r0..r1];
                    for ii in 0..=jj {
                        let ci = &m.col(j0 + ii)[r0..r1];
                        let mut acc = 0.0f32;
                        for (x, y) in ci.iter().zip(cj) {
                            acc += (*x as f32) * (*y as f32);
                        }
                        b[(ii, jj)] += acc as f64; // panel sums reduced in f64
                    }
                }
            }
            for jj in 0..k {
                for ii in 0..jj {
                    b[(jj, ii)] = b[(ii, jj)];
                }
            }
            dev.maybe_corrupt_mat(SdcKind::Gemm, &mut b);
            b
        })
    }

    /// `C := V[:, a0..a1]^T V[:, b0..b1]` — BOrth's block projection.
    pub fn gemm_tn_cols(
        &mut self,
        v: MatId,
        (a0, a1): (usize, usize),
        (b0, b1): (usize, usize),
        variant: GemmVariant,
    ) -> Mat {
        let (ka, kb) = (a1 - a0, b1 - b0);
        let dt = self.model.gemm_tn_time(variant, self.rows(v), ka, kb, Precision::F64);
        let neutral = || Mat::zeros(ka, kb);
        self.launch("gemm_tn", dt, neutral, |dev| {
            let (m, panels) = (&dev.mats[v.0], variant.panel_rows());
            let (a, b) = (m.cols(a0, a1), m.cols(b0, b1));
            let mut c = gemm_tn_shared(dev.crew.as_deref(), a, b, panels, false);
            dev.maybe_corrupt_mat(SdcKind::Gemm, &mut c);
            c
        })
    }

    /// `V[:, b0..b1] -= V[:, a0..a1] * C` — BOrth's block update.
    pub fn gemm_nn_update(
        &mut self,
        v: MatId,
        (a0, a1): (usize, usize),
        (b0, b1): (usize, usize),
        c: &Mat,
        variant: GemmVariant,
    ) {
        let dt = self.model.gemm_nn_time(variant, self.rows(v), a1 - a0, b1 - b0);
        self.run("gemm_nn", dt, |dev| {
            assert_eq!(c.nrows(), a1 - a0);
            assert_eq!(c.ncols(), b1 - b0);
            let (crew, m) = (dev.crew.as_deref(), &mut dev.mats[v.0]);
            update_shared(crew, m, (a0, a1), (b0, b1), |ja, jb| -c[(ja, jb)]);
        });
    }

    /// `V[:, j0..j1] := V[:, j0..j1] R^{-1}` (CholQR/SVQR step 3, DTRSM).
    /// A singular `R` aborts the launch: it is reported and not charged.
    pub fn trsm_cols(&mut self, v: MatId, j0: usize, j1: usize, r: &Mat) -> ca_dense::Result<()> {
        let dt = self.model.trsm_time(self.rows(v), j1 - j0);
        self.try_launch("trsm", dt, nothing, |dev| {
            assert_eq!(r.ncols(), j1 - j0);
            let m = &mut dev.mats[v.0];
            let (rows, ld) = (m.nrows(), m.ld());
            let (_, block, _) = m.split_cols_mut(j0, j1);
            share(dev.crew.as_deref(), row_pieces(block, ld, rows), |(_, mut cols)| {
                blas3::trsm_rows(&mut cols, r);
            });
            blas3::trsm_pivots(r)
        })
    }

    /// `V[:, j0..j1] := V[:, j0..j1] * Q` with small `k x k` `Q` (CAQR's
    /// final local update). Charged like an NN gemm.
    pub fn gemm_right_small(&mut self, v: MatId, j0: usize, j1: usize, q: &Mat) {
        let k = j1 - j0;
        let dt = self.model.gemm_nn_time(GemmVariant::Batched { h: 384 }, self.rows(v), k, k);
        self.run("gemm_q_small", dt, |dev| {
            right_small_cols(&mut dev.mats[v.0], (j0, j1), q, (0, k), None);
        });
    }

    /// First half of the split CAQR update used by the async-prefetch
    /// path: compute only the *last* output column of `V[:, j0..j1] * Q`,
    /// write it in place, and return the overwritten original column so
    /// [`Device::gemm_right_small_rest`] can reconstruct the input block
    /// (neutral value: no column).
    ///
    /// One output column of the product is a tall-skinny mat-vec
    /// (`V_block * q_last`), so it is charged as one; `gemm_nn` computes
    /// every output column independently in the same accumulation order,
    /// so splitting the update is bitwise-invisible to the numerics.
    pub fn gemm_right_small_last(&mut self, v: MatId, j0: usize, j1: usize, q: &Mat) -> Vec<f64> {
        let k = j1 - j0;
        let dt = self.model.gemv_t_time(GemvVariant::MagmaTallSkinny, self.rows(v), k);
        self.launch("gemm_q_last", dt, Vec::new, |dev| {
            let m = &mut dev.mats[v.0];
            let orig = m.col(j1 - 1).to_vec();
            right_small_cols(m, (j0, j1), q, (k - 1, k), None);
            orig
        })
    }

    /// Second half of the split CAQR update: the remaining `k - 1` output
    /// columns of `V[:, j0..j1] * Q`, reading the original last column
    /// from `last` (its slot already holds the new value written by
    /// [`Device::gemm_right_small_last`]). Nothing to launch when `k == 1`.
    pub fn gemm_right_small_rest(&mut self, v: MatId, j0: usize, j1: usize, q: &Mat, last: &[f64]) {
        let k = j1 - j0;
        if k == 1 {
            return;
        }
        let dt = self.model.gemm_nn_time(GemmVariant::Batched { h: 384 }, self.rows(v), k, k - 1);
        self.run("gemm_q_rest", dt, |dev| {
            right_small_cols(&mut dev.mats[v.0], (j0, j1), q, (0, k - 1), Some(last));
        });
    }

    /// Local Householder QR of `V[:, j0..j1]`: Q replaces the columns, R is
    /// returned (CAQR's per-device factorization; BLAS-1/2 cost). A device
    /// with `r < k` rows has an `r x r` Q and an `r x k` R: it writes back
    /// its `r` columns, and the zero rows [`qr::tsqr_root`] gives its block
    /// past `r` leave the other `k - r` out of the final update. Neutral
    /// value: the identity.
    pub fn local_qr_cols(&mut self, v: MatId, j0: usize, j1: usize) -> Mat {
        let k = j1 - j0;
        let dt = self.model.geqr2_time(self.rows(v), k);
        let neutral = || Mat::identity(k);
        self.launch("geqr2", dt, neutral, |dev| {
            let m = &mut dev.mats[v.0];
            let f = qr::householder_qr(&m.cols_copy(j0, j1));
            for j in 0..f.q.ncols() {
                m.set_col(j0 + j, f.q.col(j));
            }
            f.r
        })
    }

    /// Tree (batched-panel) local TSQR of `V[:, j0..j1]` — the paper's
    /// footnote-6 "batched QRs on a GPU": factor `h`-row panels
    /// independently (one batched launch in the model), reduce the panel
    /// R's with [`qr::tsqr_root`], and apply the small Q back per panel. Q
    /// replaces the columns; R is returned (neutral value: the identity).
    /// Numerically a genuine TSQR binary tree of depth 2, so the result
    /// differs from [`Device::local_qr_cols`] at the rounding level only.
    pub fn local_qr_tree_cols(&mut self, v: MatId, j0: usize, j1: usize, h: usize) -> Mat {
        let k = j1 - j0;
        let rows = self.rows(v);
        let h = h.max(k).max(1);
        let dt = self.model.geqr2_batched_time(rows, k, h);
        let neutral = || Mat::identity(k);
        self.launch("geqr2_tree", dt, neutral, |dev| {
            let m = &mut dev.mats[v.0];
            let block = m.cols_copy(j0, j1);
            // leaf panels
            let (panel_qs, panel_rs): (Vec<Mat>, Vec<Mat>) = (0..rows.div_ceil(h).max(1))
                .map(|p| {
                    let (r0, r1) = (p * h, ((p + 1) * h).min(rows));
                    let f =
                        qr::householder_qr(&Mat::from_fn(r1 - r0, k, |i, j| block[(r0 + i, j)]));
                    (f.q, f.r)
                })
                .unzip();
            let (root_r, qroot) = qr::tsqr_root(&panel_rs);
            // apply: Q panel_p := Q_p * Qroot[p*k..(p+1)*k, :]
            for (p, (qp, qroot_p)) in panel_qs.iter().zip(&qroot).enumerate() {
                let mut out = Mat::zeros(qp.nrows(), k);
                blas3::gemm_nn(1.0, qp, &qroot_p.top_left(qp.ncols(), k), 0.0, &mut out);
                for j in 0..k {
                    m.col_mut(j0 + j)[p * h..p * h + out.nrows()].copy_from_slice(out.col(j));
                }
            }
            root_r
        })
    }

    // ---------- sparse kernels ----------
    //
    // None of these allocates: the SpMV lands in the basis column or in
    // `spmv_out`, and the slice's row ids are read where they are.

    /// `V[:, col] := A_slice * x` where the slice's rows coincide 1:1 with
    /// the matrix rows (the local diagonal block of SpMV/MPK).
    pub fn spmv_to_mat_col(&mut self, s: SpId, x: VecId, v: MatId, col: usize) {
        let dt = self.spmv_cost(s);
        self.run("spmv", dt, |dev| {
            let flip = dev.sdc_draw(SdcKind::Spmv);
            let out = dev.mats[v.0].col_mut(col);
            let xs = dev.vecs[x.0].col(0);
            let pieces = spmv_pieces(&dev.slices[s.0].storage, &mut *out);
            share(dev.crew.as_deref(), pieces, |(a, w, y)| a.spmv_window(xs, y, w));
            if let Some(e) = flip {
                e.apply(out);
            }
        });
    }

    /// One matrix-powers step (Fig. 4, body of the main loop) as one
    /// kernel. For every slice of `parts` — the local block first, then the
    /// boundary levels later steps still read — and each of its rows
    /// `r = rows[i]`:
    /// `z_next[r] := scale * ((A_slice * z_cur)_i - re * z_cur[r]) + im2 * z_next[r]`;
    /// the local rows (one contiguous range, in no level) also land in
    /// `V[:, col]`.
    ///
    /// With `re = im2 = 0, scale = 1` this is the monomial step; a real
    /// Newton shift `theta` uses `re = theta`; the second step of a
    /// complex-conjugate shift pair passes `im2 = b^2` (the
    /// real-arithmetic rearrangement of §IV-A / \[4, §7.3.2\]), reading the
    /// two-steps-ago vector still resident in the `z_next` double buffer;
    /// the Chebyshev recurrence uses `scale = 2/delta, im2 = -1`. On f32
    /// slices the recurrence runs in f32 like the SpMV it is fused with.
    ///
    /// One launch, one op, [`PerfModel::mpk_step_time`] seconds, and one
    /// SDC draw: a hit flips one element of the SpMV outputs taken
    /// together — the local block's rows in slice order, then level 1's,
    /// level 2's, … — before the recurrence reads them.
    ///
    /// `given` computes each row once: `Some((rows, vals))` first writes
    /// `vals` into `z_cur[rows]` — the level-1 rows, as their owners
    /// computed them — and then computes the local block alone. The launch
    /// is still priced over every slice of `parts`. Only a device without a
    /// fault plan may be given its boundary: with one, its private copy of
    /// a boundary row is part of what a fault can hit.
    pub fn mpk_step(
        &mut self,
        parts: &[SpId],
        z_cur: VecId,
        z_next: VecId,
        step: (f64, f64, f64),
        (v, col): (MatId, usize),
        given: Option<(&[u32], &[f64])>,
    ) {
        assert_ne!(z_cur.0, z_next.0, "MPK needs distinct double buffers");
        debug_assert!(given.is_none() || !self.has_faults(), "a faulty device computes its own");
        let local = &self.slices[parts.first().expect("an MPK step has a local block").0].storage;
        let shapes = parts.iter().map(|s| self.slices[s.0].storage.shape());
        let dt = self.model.mpk_step_time(shapes, local.nrows(), local.prec());
        self.run("mpk_step", dt, |dev| {
            let flip = dev.sdc_draw(SdcKind::Spmv);
            let (local, mut levels) = parts.split_first().expect("an MPK step has a local block");
            if let Some((rows, vals)) = given {
                assert_eq!(rows.len(), vals.len());
                let zc = dev.vecs[z_cur.0].col_mut(0);
                rows.iter().zip(vals).for_each(|(&r, &x)| zc[r as usize] = x);
                levels = &[];
            }
            let local = &dev.slices[local.0];
            let slices = &dev.slices;
            let levels = || levels.iter().map(|s| &slices[s.0]);
            let (zc, zn): (&[f64], &mut [f64]) = if z_cur.0 < z_next.0 {
                let (lo, hi) = dev.vecs.split_at_mut(z_next.0);
                (lo[z_cur.0].col(0), hi[0].col_mut(0))
            } else {
                let (lo, hi) = dev.vecs.split_at_mut(z_cur.0);
                (hi[0].col(0), lo[z_next.0].col_mut(0))
            };
            // every SpMV reads `z_cur` alone: the local block's lands in the
            // basis column, the levels' one after the other in the scratch,
            // each a window at a time on whoever helps
            let column = dev.mats[v.0].col_mut(col);
            dev.spmv_out.resize(levels().map(|sl| sl.rows.len()).sum(), 0.0);
            let mut scratch = &mut dev.spmv_out[..];
            let level_outs = levels().flat_map(|sl| {
                let (y, rest) = std::mem::take(&mut scratch).split_at_mut(sl.rows.len());
                scratch = rest;
                spmv_pieces(&sl.storage, y)
            });
            let crew = dev.crew.as_deref();
            let pieces = spmv_pieces(&local.storage, &mut *column).chain(level_outs);
            share(crew, pieces, |(a, w, y)| a.spmv_window(zc, y, w));
            if let Some(e) = flip {
                e.apply_chained(column, &mut dev.spmv_out);
            }
            // the local rows are contiguous: the recurrence streams them
            let prec = local.storage.prec();
            let first = local.rows.first().map_or(0, |&r| r as usize);
            let rows = first..first + local.rows.len();
            let (olds, curs) = (zn[rows.clone()].chunks_mut(ROW_PIECE), zc[rows].chunks(ROW_PIECE));
            let pieces = column.chunks_mut(ROW_PIECE).zip(olds).zip(curs);
            share(crew, pieces, |((ys, olds), curs)| {
                for ((y, old), &cur) in ys.iter_mut().zip(olds).zip(curs) {
                    *y = recurrence(prec, step, *y, cur, *old);
                    *old = *y;
                }
            });
            let mut ys = &dev.spmv_out[..];
            for sl in levels() {
                let (y, rest) = ys.split_at(sl.rows.len());
                ys = rest;
                for (&r, &yi) in sl.rows.iter().zip(y) {
                    let r = r as usize;
                    zn[r] = recurrence(sl.storage.prec(), step, yi, zc[r], zn[r]);
                }
            }
        });
    }

    // ---------- halo and column-load kernels ----------
    //
    // The MPK work vectors and the halo wire carry the plan's `Precision`:
    // these kernels quantize what they move through it (the explicit
    // rounding point; the identity for `F64`) and are charged at its width.

    /// Compress selected entries of a device vector into a contiguous host
    /// buffer (the "compress ... into w" kernel of Fig. 4), rounded to `prec`
    /// as they are packed (neutral value: no payload). PCIe cost is charged
    /// separately by the `MultiGpu` transfer that ships the result.
    pub fn compress_p(&mut self, z: VecId, idxs: &[u32], prec: Precision) -> Vec<f64> {
        let dt = self.model.blas1_time(2 * idxs.len(), prec);
        self.launch("halo_pack", dt, Vec::new, |dev| {
            let zv = dev.vecs[z.0].col(0);
            idxs.iter().map(|&i| prec.quantize(zv[i as usize])).collect()
        })
    }

    /// Expand host values into selected entries of a device vector (the
    /// "expand w into a full vector" kernel of Fig. 4), rounded to `prec`
    /// before they land.
    pub fn expand_p(&mut self, z: VecId, idxs: &[u32], vals: &[f64], prec: Precision) {
        let dt = self.model.blas1_time(2 * idxs.len(), prec);
        self.run("halo_unpack", dt, |dev| {
            assert_eq!(idxs.len(), vals.len());
            let zv = dev.vecs[z.0].col_mut(0);
            for (&i, &v) in idxs.iter().zip(vals) {
                zv[i as usize] = prec.quantize(v);
            }
        });
    }

    /// Copy `V[:, col]` into `z[rows]` — load a basis column into a
    /// full-length work vector before SpMV/MPK, rounded to `prec` (where the
    /// f64 basis enters an f32 recurrence).
    pub fn scatter_col_to_vec_p(
        &mut self,
        v: MatId,
        col: usize,
        z: VecId,
        rows: Range<usize>,
        prec: Precision,
    ) {
        let dt = self.model.blas1_time(2 * rows.len(), prec);
        self.run("scatter_col", dt, |dev| {
            let (src, dst) = (dev.mats[v.0].col(col), &mut dev.vecs[z.0].col_mut(0)[rows]);
            match prec {
                Precision::F64 => dst.copy_from_slice(src),
                Precision::F32 => {
                    assert_eq!(src.len(), dst.len());
                    dst.iter_mut().zip(src).for_each(|(zi, &ci)| *zi = prec.quantize(ci));
                }
            }
        });
    }
}

/// The per-slice command sequence [`Device::mpk_step`] replaced, kept as
/// the oracle of its bits, clock and op count: one `spmv_shift_scatter`
/// launch per slice, then `gather_vec_to_col`.
#[cfg(test)]
impl Device {
    /// `spmv_out := A_slice * x`, SDC hit included.
    fn spmv_to_scratch(&mut self, s: SpId, x: VecId) {
        let flip = self.sdc_draw(SdcKind::Spmv);
        let storage = &self.slices[s.0].storage;
        self.spmv_out.resize(storage.nrows(), 0.0);
        storage.spmv_window(self.vecs[x.0].col(0), &mut self.spmv_out, 0);
        if let Some(e) = flip {
            e.apply(&mut self.spmv_out);
        }
    }

    /// What a scatter kernel on slice `s` is charged: the SpMV with the
    /// expand (or shift + expand) fused into the same launch.
    fn spmv_scatter_cost(&self, s: SpId) -> f64 {
        let sl = &self.slices[s.0];
        self.spmv_cost(s) + self.model.blas1_time(2 * sl.rows.len(), sl.storage.prec())
            - self.model.launch_s
    }

    /// Fused basis-recurrence MPK step for one slice:
    /// `z_next[r] := scale * ((A_slice * z_cur)_i - re * z_cur[r]) + im2 * z_next[r]`
    /// for each slice row `r = rows[i]`.
    ///
    /// With `re = im2 = 0, scale = 1` this is the monomial step; a real
    /// Newton shift `theta` uses `re = theta`; the second step of a
    /// complex-conjugate shift pair passes `im2 = b^2` (the
    /// real-arithmetic rearrangement of §IV-A / \[4, §7.3.2\]), reading the
    /// two-steps-ago vector still resident in the `z_next` double buffer;
    /// the Chebyshev recurrence uses `scale = 2/delta, im2 = -1`.
    pub(crate) fn spmv_shift_scatter(
        &mut self,
        s: SpId,
        z_cur: VecId,
        z_next: VecId,
        re: f64,
        im2: f64,
        scale: f64,
    ) {
        if self.lost {
            return;
        }
        assert_ne!(z_cur.0, z_next.0, "MPK needs distinct double buffers");
        self.spmv_to_scratch(s, z_cur);
        let sl = &self.slices[s.0];
        let (zc, zn): (&[f64], &mut [f64]) = if z_cur.0 < z_next.0 {
            let (lo, hi) = self.vecs.split_at_mut(z_next.0);
            (lo[z_cur.0].col(0), hi[0].col_mut(0))
        } else {
            let (lo, hi) = self.vecs.split_at_mut(z_cur.0);
            (hi[0].col(0), lo[z_next.0].col_mut(0))
        };
        let shift = re != 0.0 || scale != 1.0;
        let mix = im2 != 0.0;
        // On an f32 slice the fused shift/recurrence arithmetic also runs
        // in f32 — the recurrence is part of the same kernel as the SpMV.
        match sl.storage.prec() {
            Precision::F64 => {
                for (&r, &yi) in sl.rows.iter().zip(&self.spmv_out) {
                    let r = r as usize;
                    let v = if shift { scale * (yi - re * zc[r]) } else { yi };
                    zn[r] = if mix { v + im2 * zn[r] } else { v };
                }
            }
            Precision::F32 => {
                let (re, im2, scale) = (re as f32, im2 as f32, scale as f32);
                for (&r, &yi) in sl.rows.iter().zip(&self.spmv_out) {
                    let r = r as usize;
                    let v =
                        if shift { (scale * (yi as f32 - re * zc[r] as f32)) as f64 } else { yi };
                    zn[r] = if mix { (v as f32 + im2 * zn[r] as f32) as f64 } else { v };
                }
            }
        }
        self.advance("mpk_step", self.spmv_scatter_cost(s));
    }

    /// Copy `z[rows]` into `V[:, col]` — MPK's "copy the local part of y
    /// into v" step (a device's own rows are one contiguous range).
    pub(crate) fn gather_vec_to_col(&mut self, z: VecId, rows: Range<usize>, v: MatId, col: usize) {
        if self.lost {
            return;
        }
        let words = 2 * rows.len();
        self.mats[v.0].col_mut(col).copy_from_slice(&self.vecs[z.0].col(0)[rows]);
        self.advance("gather_col", self.model.blas1_time(words, Precision::F64));
    }

    /// [`Device::mpk_step`] as the commands it replaced.
    pub(crate) fn mpk_step_unfused(
        &mut self,
        parts: &[SpId],
        z_cur: VecId,
        z_next: VecId,
        (re, im2, scale): (f64, f64, f64),
        v: MatId,
        col: usize,
    ) {
        for &s in parts {
            self.spmv_shift_scatter(s, z_cur, z_next, re, im2, scale);
        }
        let local = &self.slices[parts[0].0].rows;
        let first = local.first().map_or(0, |&r| r as usize);
        self.gather_vec_to_col(z_next, first..first + local.len(), v, col);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::SdcTargets;
    use ca_sparse::gen::laplace2d;

    fn dev() -> Device {
        Device::new(0, Arc::new(PerfModel::default()), false)
    }

    #[test]
    fn free_returns_bytes_and_keeps_ids_stable() {
        let mut d = dev();
        let v0 = d.alloc_vec(100).unwrap();
        let m0 = d.alloc_mat(50, 4).unwrap();
        let a = laplace2d(8, 8);
        let ell = Ell::from_csr(&a);
        let ell_bytes = ell.bytes();
        let s0 = d.load_slice(ell, (0..64).collect()).unwrap();
        let used = d.mem_used();
        assert_eq!(used, 100 * 8 + 50 * 4 * 8 + ell_bytes + 64 * 4);
        d.free_vec(v0);
        assert_eq!(d.mem_used(), used - 800);
        d.free_mat(m0);
        assert_eq!(d.mem_used(), used - 800 - 1600);
        d.free_slice(s0);
        assert_eq!(d.mem_used(), 0);
        // double-free is idempotent (tombstoned slots release zero bytes)
        d.free_vec(v0);
        d.free_mat(m0);
        d.free_slice(s0);
        assert_eq!(d.mem_used(), 0);
        // later allocations get fresh ids; earlier ids stay valid indices
        let v1 = d.alloc_vec(10).unwrap();
        assert_ne!(v1, v0);
        assert_eq!(d.vec(v0).len(), 0);
        assert_eq!(d.vec(v1).len(), 10);
    }

    #[test]
    fn aliased_slices_are_charged_and_freed_one_by_one() {
        let mut d = dev();
        let a = laplace2d(8, 8);
        let storage = Arc::new(SpStorage::Ell(Ell::from_csr(&a)));
        let charge = storage.bytes() + 64 * 4;
        let s0 = d.load_slice_storage(Arc::clone(&storage), (0..64).collect()).unwrap();
        let s1 = d.load_slice_storage(storage, (0..64).collect()).unwrap();
        // two ids, two charges, one host copy
        assert_ne!(s0, s1);
        assert_eq!(d.mem_used(), 2 * charge);
        assert!(Arc::ptr_eq(&d.slice(s0).storage, &d.slice(s1).storage));

        let x = d.alloc_vec(64).unwrap();
        let v = d.alloc_mat(64, 2).unwrap();
        d.vec_mut(x).iter_mut().enumerate().for_each(|(i, xi)| *xi = (i as f64 * 0.3).sin());
        d.spmv_to_mat_col(s1, x, v, 0);
        let used = d.mem_used();
        d.free_slice(s0);
        assert_eq!(d.mem_used(), used - charge, "a free returns its own charge, no more");
        assert_eq!(d.slice(s0).rows.len(), 0);
        // the survivor still multiplies, to the same bits
        d.spmv_to_mat_col(s1, x, v, 1);
        assert_eq!(d.mat(v).col(0), d.mat(v).col(1));
        assert!(d.mat(v).col(1).iter().any(|&y| y != 0.0));
        d.free_slice(s1);
        assert_eq!(d.mem_used(), used - 2 * charge);
        // every tombstone is the same empty storage
        assert!(Arc::ptr_eq(&d.slice(s0).storage, &d.slice(s1).storage));
        assert_eq!((d.slice(s1).storage.nrows(), d.slice(s1).storage.bytes()), (0, 0));
    }

    #[test]
    fn freed_memory_is_reusable() {
        let mut d = Device::new(
            0,
            Arc::new(PerfModel { dev_mem_capacity: 4096, ..PerfModel::default() }),
            false,
        );
        let v = d.alloc_vec(400).unwrap(); // 3200 of 4096 bytes
        assert!(d.alloc_vec(400).is_err());
        d.free_vec(v);
        assert!(d.alloc_vec(400).is_ok());
    }

    #[test]
    fn mem_rollback_discards_partial_build() {
        let mut d = dev();
        let keep = d.alloc_vec(64).unwrap();
        let mark = d.mem_checkpoint();
        let used = d.mem_used();
        let _v = d.alloc_vec(128).unwrap();
        let _m = d.alloc_mat(16, 16).unwrap();
        d.mem_rollback(&mark);
        assert_eq!(d.mem_used(), used);
        assert_eq!(d.vec(keep).len(), 64);
        // the slots themselves are gone, so the next alloc reuses them
        let v2 = d.alloc_vec(1).unwrap();
        assert_eq!(d.vec(v2).len(), 1);
    }

    #[test]
    fn cost_only_device_accounts_and_charges_like_an_arithmetic_one() {
        let a = laplace2d(8, 8);
        let run = |shape_only: bool| {
            let mut d = Device::new(0, Arc::new(PerfModel::default()), shape_only);
            d.enable_trace();
            let z = d.alloc_vec(64).unwrap();
            let v = d.alloc_mat(64, 3).unwrap();
            let mark = d.mem_checkpoint();
            let s = d.load_slice(Ell::from_csr(&a), (0..64).collect()).unwrap();
            let full = d.mem_used();
            d.scatter_col_to_vec_p(v, 0, z, 0..64, Precision::F64);
            d.spmv_to_mat_col(s, z, v, 1);
            let (nrm, gram) = (d.norm2_sq_col(v, 1), d.syrk_cols(v, 0, 2, GemmVariant::Cublas));
            d.free_slice(s);
            let freed = d.mem_used();
            d.mem_rollback(&mark);
            d.free_vec(z);
            d.free_mat(v);
            ((full, freed, d.mem_used()), d.take_trace(), d.ops(), (nrm, gram))
        };
        let (mem, trace, ops, (nrm, gram)) = run(true);
        let (mem_arith, trace_arith, ops_arith, _) = run(false);
        assert_eq!((mem, trace, ops), (mem_arith, trace_arith, ops_arith));
        assert_eq!(mem.2, 0);
        // no data: the answers are the neutral ones, and a slice is its shape
        assert_eq!((nrm, gram), (1.0, Mat::identity(2)));
        let mut d = Device::new(0, Arc::new(PerfModel::default()), true);
        let s = d.load_slice(Ell::from_csr(&a), (0..64).collect()).unwrap();
        assert!(
            matches!(*d.slice(s).storage, SpStorage::Shape(sh, Precision::F64) if sh.rows == 64)
        );
        assert!(d.slice(s).rows.is_empty());
    }

    #[test]
    fn clock_advances_on_kernels() {
        let mut d = dev();
        let v = d.alloc_mat(1000, 4).unwrap();
        assert_eq!(d.clock(), 0.0);
        d.dot_cols(v, 0, 1);
        let t1 = d.clock();
        assert!(t1 > 0.0);
        d.dot_cols(v, 0, 1);
        assert!((d.clock() - 2.0 * t1).abs() < 1e-15);
    }

    #[test]
    fn dot_and_axpy_compute() {
        let mut d = dev();
        let v = d.alloc_mat(3, 2).unwrap();
        d.mat_mut(v).set_col(0, &[1.0, 2.0, 3.0]);
        d.mat_mut(v).set_col(1, &[4.0, 5.0, 6.0]);
        assert_eq!(d.dot_cols(v, 0, 1), 32.0);
        d.axpy_cols(v, 2.0, 0, 1);
        assert_eq!(d.mat(v).col(1), &[6.0, 9.0, 12.0]);
        d.scal_col(v, 0, -1.0);
        assert_eq!(d.mat(v).col(0), &[-1.0, -2.0, -3.0]);
    }

    #[test]
    fn gemv_t_matches_dots() {
        let mut d = dev();
        let v = d.alloc_mat(5, 3).unwrap();
        for j in 0..3 {
            let col: Vec<f64> = (0..5).map(|i| (i + j) as f64).collect();
            d.mat_mut(v).set_col(j, &col);
        }
        let r = d.gemv_t_cols(v, 0, 2, 2, GemvVariant::MagmaTallSkinny);
        let m = d.mat(v);
        assert_eq!(r[0], blas1::dot(m.col(0), m.col(2)));
        assert_eq!(r[1], blas1::dot(m.col(1), m.col(2)));
    }

    #[test]
    fn gemv_update_orthogonalizes() {
        let mut d = dev();
        let v = d.alloc_mat(4, 2).unwrap();
        d.mat_mut(v).set_col(0, &[1.0, 0.0, 0.0, 0.0]);
        d.mat_mut(v).set_col(1, &[3.0, 1.0, 0.0, 0.0]);
        let r = d.gemv_t_cols(v, 0, 1, 1, GemvVariant::Cublas);
        d.gemv_n_update(v, 0, 1, &r, 1);
        assert_eq!(d.mat(v).col(1), &[0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn syrk_variants_agree_numerically() {
        let mut d = dev();
        let v = d.alloc_mat(100, 4).unwrap();
        for j in 0..4 {
            let col: Vec<f64> = (0..100).map(|i| ((i * (j + 1)) as f64 * 0.01).sin()).collect();
            d.mat_mut(v).set_col(j, &col);
        }
        let b1 = d.syrk_cols(v, 0, 4, GemmVariant::Cublas);
        let b2 = d.syrk_cols(v, 0, 4, GemmVariant::Batched { h: 32 });
        for i in 0..4 {
            for j in 0..4 {
                assert!((b1[(i, j)] - b2[(i, j)]).abs() < 1e-12);
                assert_eq!(b2[(i, j)], b2[(j, i)]);
            }
        }
    }

    #[test]
    fn batched_syrk_charges_less_time_than_cublas() {
        let mut d = dev();
        let v = d.alloc_mat(100_000, 8).unwrap();
        let t0 = d.clock();
        d.syrk_cols(v, 0, 8, GemmVariant::Cublas);
        let t_cublas = d.clock() - t0;
        let t1 = d.clock();
        d.syrk_cols(v, 0, 8, GemmVariant::Batched { h: 384 });
        let t_batched = d.clock() - t1;
        assert!(t_batched < t_cublas, "batched {t_batched} vs cublas {t_cublas}");
    }

    #[test]
    fn trsm_applies_inverse() {
        let mut d = dev();
        let v = d.alloc_mat(3, 2).unwrap();
        d.mat_mut(v).set_col(0, &[2.0, 4.0, 6.0]);
        d.mat_mut(v).set_col(1, &[3.0, 3.0, 3.0]);
        let mut r = Mat::zeros(2, 2);
        r[(0, 0)] = 2.0;
        r[(0, 1)] = 1.0;
        r[(1, 1)] = 3.0;
        d.trsm_cols(v, 0, 2, &r).unwrap();
        // col0 /= 2 -> [1,2,3]; col1 = (col1 - 1*col0_orig/2... forward sweep:
        // col1 -= r01 * col0_new = [3,3,3] - [1,2,3] = [2,1,0]; /3 -> [2/3,1/3,0]
        assert_eq!(d.mat(v).col(0), &[1.0, 2.0, 3.0]);
        let c1 = d.mat(v).col(1);
        assert!((c1[0] - 2.0 / 3.0).abs() < 1e-15);
        assert!((c1[2] - 0.0).abs() < 1e-15);
    }

    #[test]
    fn local_qr_leaves_orthonormal_q() {
        let mut d = dev();
        let v = d.alloc_mat(50, 3).unwrap();
        for j in 0..3 {
            let col: Vec<f64> = (0..50).map(|i| ((i * 7 + j * 3) % 13) as f64 - 6.0).collect();
            d.mat_mut(v).set_col(j, &col);
        }
        let orig = d.mat(v).cols_copy(0, 3);
        let r = d.local_qr_cols(v, 0, 3);
        let q = d.mat(v).cols_copy(0, 3);
        assert!(ca_dense::norms::orthogonality_error(&q) < 1e-12);
        assert!(ca_dense::norms::factorization_error(&orig, &q, &r) < 1e-13);
    }

    #[test]
    fn mpk_step_places_local_and_level_rows() {
        let mut d = dev();
        let a = laplace2d(4, 4); // n = 16
        let local =
            d.load_slice(Ell::from_csr(&a.select_rows(&[4, 5, 6, 7])), vec![4, 5, 6, 7]).unwrap();
        let level = d.load_slice(Ell::from_csr(&a.select_rows(&[2, 9])), vec![2, 9]).unwrap();
        let x = d.alloc_vec(16).unwrap();
        for (i, xv) in d.vec_mut(x).iter_mut().enumerate() {
            *xv = i as f64;
        }
        let z = d.alloc_vec(16).unwrap();
        let v = d.alloc_mat(4, 2).unwrap();
        d.mpk_step(&[local, level], x, z, (0.0, 0.0, 1.0), (v, 1), None);
        let mut y = vec![0.0; 16];
        let xs: Vec<f64> = (0..16).map(|i| i as f64).collect();
        ca_sparse::spmv::spmv(&a, &xs, &mut y);
        for r in [2, 4, 5, 6, 7, 9] {
            assert_eq!(d.vec(z)[r], y[r], "row {r}");
        }
        assert_eq!(d.vec(z)[0], 0.0); // untouched
        assert_eq!(d.mat(v).col(1), &y[4..8], "the local rows are the basis column");
        assert_eq!(d.mat(v).col(0), &[0.0; 4]);
        assert_eq!(d.ops(), 1, "one launch");

        // given its level-1 rows, the step writes them into `z_cur`, computes
        // the local rows alone and is charged as the step over both slices
        let z2 = d.alloc_vec(16).unwrap();
        d.vec_mut(x)[3] = -1.0;
        let clock = d.clock();
        d.mpk_step(&[local, level], x, z2, (0.0, 0.0, 1.0), (v, 1), Some((&[3, 8], &[3.0, 8.0])));
        assert_eq!(d.vec(x)[3], 3.0, "the given values land in z_cur");
        assert_eq!(&d.vec(z2)[4..8], &y[4..8]);
        assert_eq!(d.mat(v).col(1), &y[4..8]);
        assert_eq!((d.vec(z2)[2], d.vec(z2)[9]), (0.0, 0.0), "no level row computed");
        assert_eq!(d.clock() - clock, clock, "priced as the step over every slice");
        assert_eq!(d.ops(), 2);
    }

    #[test]
    fn compress_expand_roundtrip() {
        let mut d = dev();
        let z = d.alloc_vec(10).unwrap();
        for (i, v) in d.vec_mut(z).iter_mut().enumerate() {
            *v = i as f64;
        }
        let idxs = vec![1u32, 3, 8];
        let w = d.compress_p(z, &idxs, Precision::F64);
        assert_eq!(w, vec![1.0, 3.0, 8.0]);
        let z2 = d.alloc_vec(10).unwrap();
        d.expand_p(z2, &idxs, &w, Precision::F64);
        assert_eq!(d.vec(z2)[3], 3.0);
        assert_eq!(d.vec(z2)[0], 0.0);
    }

    #[test]
    fn capacity_enforced() {
        let model = PerfModel { dev_mem_capacity: 1 << 20, ..Default::default() }; // 1 MiB toy
        let mut d = Device::new(0, Arc::new(model), false);
        d.alloc_vec(100_000).unwrap(); // 800 KB fits
        let err = d.alloc_vec(100_000).unwrap_err(); // 1.6 MB total: typed error
        assert_eq!(
            err,
            GpuSimError::OutOfMemory { device: 0, requested: 800_000, free: (1 << 20) - 800_000 }
        );
        assert!(err.to_string().contains("out of memory"));
    }

    #[test]
    fn injected_alloc_fault_fires_once() {
        let mut d = dev();
        d.set_faults(Some(Arc::new(crate::faults::FaultPlan::new(1).with_alloc_fault(0, 1))));
        d.alloc_vec(10).unwrap(); // alloc 0 fine
        let err = d.alloc_vec(10).unwrap_err(); // alloc 1 injected
        assert!(matches!(err, GpuSimError::OutOfMemory { device: 0, .. }));
        d.alloc_vec(10).unwrap(); // alloc 2 fine again
    }

    #[test]
    fn sdc_perturbs_one_spmv_element() {
        let a = laplace2d(4, 4);
        let run = |faults: Option<Arc<crate::faults::FaultPlan>>| {
            let mut d = dev();
            d.set_faults(faults);
            let s = d.load_slice(Ell::from_csr(&a), (0..16).collect()).unwrap();
            let x = d.alloc_vec(16).unwrap();
            for (i, xv) in d.vec_mut(x).iter_mut().enumerate() {
                *xv = 1.0 + i as f64;
            }
            let z = d.alloc_vec(16).unwrap();
            let v = d.alloc_mat(16, 1).unwrap();
            d.mpk_step(&[s], x, z, (0.0, 0.0, 1.0), (v, 0), None);
            assert_eq!(d.mat(v).col(0), d.vec(z), "the column carries the hit too");
            (d.vec(z).to_vec(), d.sdc_injected(), d.clock())
        };
        let (clean, n0, t0) = run(None);
        let plan = crate::faults::FaultPlan::new(9).with_sdc(1.0, SdcTargets::spmv_only());
        let (dirty, n1, t1) = run(Some(Arc::new(plan)));
        assert_eq!(n0, 0);
        assert_eq!(n1, 1);
        assert_eq!(t0, t1, "SDC must not change the clock");
        let ndiff = clean.iter().zip(&dirty).filter(|(a, b)| a != b).count();
        assert_eq!(ndiff, 1, "exactly one element corrupted");
    }

    #[test]
    fn device_loss_freezes_clock_and_ops() {
        let mut d = dev();
        d.set_faults(Some(Arc::new(crate::faults::FaultPlan::new(0).with_device_loss(0, 2))));
        let v = d.alloc_mat(100, 2).unwrap();
        d.dot_cols(v, 0, 1); // op 1
        d.dot_cols(v, 0, 1); // op 2 — completes
        assert!(!d.is_lost());
        let t = d.clock();
        d.dot_cols(v, 0, 1); // op 3 — kills the device
        assert!(d.is_lost());
        assert_eq!(d.clock(), t, "dead device's clock is frozen");
        d.dot_cols(v, 0, 1);
        assert_eq!(d.clock(), t);
    }

    #[test]
    fn lost_device_kernels_are_inert() {
        let mut d = dev();
        d.set_faults(Some(Arc::new(crate::faults::FaultPlan::new(0).with_device_loss(0, 0))));
        let v = d.alloc_mat(16, 3).unwrap();
        d.mat_mut(v).set_col(0, &[2.0; 16]);
        d.mat_mut(v).set_col(1, &[3.0; 16]);
        d.scal_col(v, 0, 1.0); // first op kills the device
        assert!(d.is_lost());
        let ops = d.ops();
        // a dead device accepts no commands: neutral returns, no mutation
        assert_eq!(d.dot_cols(v, 0, 1), 0.0);
        assert_eq!(d.norm2_sq_col(v, 0), 1.0);
        assert_eq!(d.sum_col_abs(v, 0), [0.0; 2]);
        assert_eq!(d.gemv_t_cols(v, 0, 2, 1, GemvVariant::Cublas), vec![0.0; 2]);
        assert_eq!(d.syrk_cols(v, 0, 2, GemmVariant::Cublas), Mat::identity(2));
        d.axpy_cols(v, 5.0, 0, 1);
        d.copy_col(v, 0, 2);
        assert_eq!(d.mat(v).col(1), &[3.0; 16], "no mutation after loss");
        assert_eq!(d.mat(v).col(2), &[0.0; 16]);
        assert!(d.compress_p(VecId(0), &[0], Precision::F64).is_empty());
        assert_eq!(d.ops(), ops, "op counter frozen after loss");
        assert_eq!(d.clock(), 0.0, "clock frozen after loss");
    }

    #[test]
    fn zero_rate_plan_is_bit_identical() {
        let run = |faults: Option<Arc<crate::faults::FaultPlan>>| {
            let mut d = dev();
            d.set_faults(faults);
            let v = d.alloc_mat(500, 4).unwrap();
            for j in 0..4 {
                let col: Vec<f64> = (0..500).map(|i| ((i * (j + 2)) as f64 * 0.01).cos()).collect();
                d.mat_mut(v).set_col(j, &col);
            }
            let r = d.dot_cols(v, 0, 1);
            let b = d.syrk_cols(v, 0, 4, GemmVariant::Batched { h: 64 });
            (r, b, d.clock())
        };
        let (r0, b0, t0) = run(None);
        let (r1, b1, t1) = run(Some(Arc::new(crate::faults::FaultPlan::new(123))));
        assert_eq!(r0.to_bits(), r1.to_bits());
        assert_eq!(t0.to_bits(), t1.to_bits());
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(b0[(i, j)].to_bits(), b1[(i, j)].to_bits());
            }
        }
    }

    #[test]
    fn f32_slice_spmv_matches_f32_reference_and_costs_less() {
        let a = laplace2d(6, 6); // n = 36
        let xs: Vec<f64> = (0..36).map(|i| (1.0 + i as f64 * 0.37).sin()).collect();

        let run = |storage: SpStorage| {
            let mut d = dev();
            let s = d.load_slice_storage(storage, (0..36).collect()).unwrap();
            let x = d.alloc_vec(36).unwrap();
            d.vec_mut(x).copy_from_slice(&xs);
            let z = d.alloc_vec(36).unwrap();
            let v = d.alloc_mat(36, 1).unwrap();
            d.mpk_step(&[s], x, z, (0.0, 0.0, 1.0), (v, 0), None);
            (d.vec(z).to_vec(), d.clock())
        };
        let (y64, t64) = run(SpStorage::Ell(Ell::from_csr(&a)));
        let (y32, t32) = run(SpStorage::EllF32(Ell::from_csr(&a.cast::<f32>())));

        // reference: same kernel written directly in f32
        let e32: Ell<f32> = Ell::from_csr(&a.cast::<f32>());
        let xf: Vec<f32> = xs.iter().map(|&v| v as f32).collect();
        let mut yf = vec![0.0f32; 36];
        e32.spmv(&xf, &mut yf);
        for i in 0..36 {
            assert_eq!(y32[i].to_bits(), (yf[i] as f64).to_bits(), "row {i}");
            assert!((y32[i] - y64[i]).abs() < 1e-5 * y64[i].abs().max(1.0));
        }
        assert!(t32 < t64, "f32 SpMV must be cheaper: {t32} vs {t64}");
    }

    #[test]
    fn f32_storage_is_half_the_value_bytes() {
        let a = laplace2d(5, 5);
        let e64 = SpStorage::Ell(Ell::from_csr(&a));
        let e32 = SpStorage::EllF32(Ell::from_csr(&a.cast::<f32>()));
        assert_eq!(e64.prec(), Precision::F64);
        assert_eq!(e32.prec(), Precision::F32);
        let slots = Ell::from_csr(&a).padded_nnz();
        assert_eq!(e64.bytes(), slots * 12);
        assert_eq!(e32.bytes(), slots * 8);
        assert_eq!(e64.bytes() - e32.bytes(), slots * 4);
    }

    #[test]
    fn mpk_step_f32_quantizes_recurrence() {
        let a = laplace2d(4, 4);
        let xs: Vec<f64> = (0..16).map(|i| (0.3 + i as f64 * 0.21).cos()).collect();
        let (re, im2, scale) = (0.125f64, 0.5f64, 1.5f64);

        let run = |storage: SpStorage| {
            let mut d = dev();
            let s = d.load_slice_storage(storage, (0..16).collect()).unwrap();
            let zc = d.alloc_vec(16).unwrap();
            d.vec_mut(zc).copy_from_slice(&xs);
            let zn = d.alloc_vec(16).unwrap();
            for (i, v) in d.vec_mut(zn).iter_mut().enumerate() {
                *v = 0.01 * i as f64;
            }
            let v = d.alloc_mat(16, 1).unwrap();
            d.mpk_step(&[s], zc, zn, (re, im2, scale), (v, 0), None);
            d.vec(zn).to_vec()
        };
        let z32 = run(SpStorage::EllF32(Ell::from_csr(&a.cast::<f32>())));

        // reference computed explicitly in f32
        let e32: Ell<f32> = Ell::from_csr(&a.cast::<f32>());
        let xf: Vec<f32> = xs.iter().map(|&v| v as f32).collect();
        let mut yf = vec![0.0f32; 16];
        e32.spmv(&xf, &mut yf);
        for i in 0..16 {
            let shifted = scale as f32 * (yf[i] - re as f32 * xs[i] as f32);
            let expect = shifted + im2 as f32 * (0.01 * i as f64) as f32;
            assert_eq!(z32[i].to_bits(), (expect as f64).to_bits(), "row {i}");
        }
    }

    #[test]
    fn precision_tagged_kernels_are_the_identity_on_f64_and_quantize_on_f32() {
        let vals: Vec<f64> = (0..12).map(|i| 0.1 + i as f64 * 0.07).collect();
        let idxs: Vec<u32> = vec![0, 3, 7, 11];

        // F64: the values as they are, two f64 streaming passes
        let mut d = dev();
        let z = d.alloc_vec(12).unwrap();
        d.vec_mut(z).copy_from_slice(&vals);
        let w = d.compress_p(z, &idxs, Precision::F64);
        let z2 = d.alloc_vec(12).unwrap();
        d.expand_p(z2, &idxs, &w, Precision::F64);
        for &i in &idxs {
            assert_eq!(d.vec(z2)[i as usize].to_bits(), vals[i as usize].to_bits());
        }
        let pass = PerfModel::default().blas1_time(2 * idxs.len(), Precision::F64);
        assert_eq!(d.clock().to_bits(), (pass + pass).to_bits());
        let ta = d.clock();

        // F32 variants quantize through f32 and charge less
        let mut d = dev();
        let z = d.alloc_vec(12).unwrap();
        d.vec_mut(z).copy_from_slice(&vals);
        let w = d.compress_p(z, &idxs, Precision::F32);
        let t32 = d.clock();
        for (k, &i) in idxs.iter().enumerate() {
            assert_eq!(w[k].to_bits(), (vals[i as usize] as f32 as f64).to_bits());
        }
        assert!(2.0 * t32 < ta, "f32 pack cheaper than f64: {t32} vs {ta} for pack and unpack");

        // scatter_col_to_vec_p rounds the basis column on load
        let mut d = dev();
        let v = d.alloc_mat(4, 1).unwrap();
        d.mat_mut(v).set_col(0, &vals[..4]);
        let z = d.alloc_vec(8).unwrap();
        d.scatter_col_to_vec_p(v, 0, z, 3..7, Precision::F32);
        for (i, r) in (3..7).enumerate() {
            assert_eq!(d.vec(z)[r].to_bits(), (vals[i] as f32 as f64).to_bits());
        }
        assert_eq!((d.vec(z)[2], d.vec(z)[7]), (0.0, 0.0), "rows outside the range untouched");
    }

    #[test]
    fn mem_free_reports_headroom() {
        let model = PerfModel { dev_mem_capacity: 1 << 20, ..Default::default() };
        let mut d = Device::new(0, Arc::new(model), false);
        assert_eq!(d.mem_free(), 1 << 20);
        d.alloc_vec(1000).unwrap();
        assert_eq!(d.mem_free(), (1 << 20) - 8000);
    }

    #[test]
    fn memory_accounting() {
        let mut d = dev();
        let before = d.mem_used();
        d.alloc_vec(100).unwrap();
        assert_eq!(d.mem_used() - before, 800);
        let a = laplace2d(3, 3);
        let e = Ell::from_csr(&a);
        let bytes = e.bytes();
        d.load_slice(e, (0..9).collect()).unwrap();
        assert_eq!(d.mem_used() - before, 800 + bytes + 9 * 4);
    }
}
