//! Orthogonalization kernels: *BOrth* (block orthogonalization against the
//! previously-generated basis) and *TSQR* (orthonormalization within a
//! block) in the five variants of the paper's §V and Fig. 9:
//! MGS, CGS, CholQR, SVQR and CAQR, plus the "2x" reorthogonalization
//! wrapper of Fig. 14.
//!
//! All variants follow the paper's communication structure exactly —
//! per-device partial results, host reduction, broadcast, device update —
//! so the `MultiGpu` message counters reproduce the "# GPU-CPU comm."
//! column of Fig. 10.

use ca_dense::{chol, jacobi, qr, Mat};
use ca_gpusim::{GpuSimError, MatId, MultiGpu};
use ca_obs as obs;
use ca_scalar::Precision;

/// TSQR algorithm selection (Fig. 9 / Fig. 10 rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TsqrKind {
    /// Modified Gram-Schmidt: BLAS-1, one reduction per column pair.
    Mgs,
    /// Classical Gram-Schmidt: BLAS-2, one reduction per column.
    Cgs,
    /// Fused classical Gram-Schmidt (the paper's footnote 5): the column
    /// norm is fused into the projection reduction, halving the round
    /// trips to the 2(s+1) of Fig. 10. The post-update norm comes from the
    /// Pythagorean identity `||v'||^2 = ||v||^2 - ||r||^2`, guarded by a
    /// cancellation check that falls back to an explicit reduction.
    CgsFused,
    /// Cholesky QR: BLAS-3, a single reduction; may break down when the
    /// Gram matrix's squared condition number exhausts double precision.
    CholQr,
    /// Mixed-precision Cholesky QR (the \[23\] follow-up the paper cites):
    /// the Gram matrix accumulates in single precision (about half the
    /// kernel time on Fermi), the factorization and solve stay in double.
    /// Pair with `reorth` to recover full orthogonality.
    CholQrMixed,
    /// Singular-value QR: like CholQR but factorizes the Gram matrix via
    /// its SVD, surviving rank deficiency.
    SvQr,
    /// Communication-avoiding QR: local Householder QRs + a QR of the
    /// stacked R factors on the host.
    Caqr,
    /// CAQR with batched panel QRs on each device (the paper's footnote-6
    /// follow-up): a depth-2 TSQR tree per device, then the host root.
    CaqrTree,
}

impl std::fmt::Display for TsqrKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TsqrKind::Mgs => write!(f, "MGS"),
            TsqrKind::Cgs => write!(f, "CGS"),
            TsqrKind::CgsFused => write!(f, "fused-CGS"),
            TsqrKind::CholQr => write!(f, "CholQR"),
            TsqrKind::CholQrMixed => write!(f, "CholQR-f32"),
            TsqrKind::SvQr => write!(f, "SVQR"),
            TsqrKind::Caqr => write!(f, "CAQR"),
            TsqrKind::CaqrTree => write!(f, "CAQR-tree"),
        }
    }
}

/// Block-orthogonalization (BOrth) algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BorthKind {
    /// One reduction per previous vector (BLAS-2 per step).
    Mgs,
    /// A single block reduction (BLAS-3).
    Cgs,
}

/// Orthogonalization strategy: TSQR kind + BOrth kind + optional
/// reorthogonalization pass (the paper's "2x" rows).
#[derive(Debug, Clone, Copy)]
pub struct OrthConfig {
    /// TSQR variant.
    pub tsqr: TsqrKind,
    /// BOrth variant (the paper's Fig. 14 uses CGS).
    pub borth: BorthKind,
    /// Run BOrth+TSQR twice ("2x").
    pub reorth: bool,
    /// Apply the diagonal-scaling stabilization \[20\] inside SVQR.
    pub svqr_scaled: bool,
}

impl Default for OrthConfig {
    fn default() -> Self {
        Self { tsqr: TsqrKind::CholQr, borth: BorthKind::Cgs, reorth: false, svqr_scaled: true }
    }
}

/// Orthogonalization failures.
#[derive(Debug, Clone)]
pub enum OrthError {
    /// CholQR's Cholesky factorization hit a non-positive pivot — the
    /// basis block was numerically rank deficient (squared condition
    /// number overflow, §V-C).
    GramNotPositiveDefinite {
        /// Failing pivot index within the block.
        index: usize,
        /// The offending pivot value.
        pivot: f64,
    },
    /// A vector norm collapsed to zero or non-finite during Gram-Schmidt.
    ZeroNorm {
        /// Column (block-relative) whose norm vanished.
        column: usize,
    },
    /// A triangular factor was exactly singular.
    SingularR {
        /// Zero-diagonal index.
        index: usize,
    },
    /// An ABFT scalar checksum disagreed with the block reduction it
    /// verifies — silent data corruption in a GEMM/SYRK kernel.
    ChecksumMismatch {
        /// Which reduction failed ("borth" or "gram").
        what: &'static str,
        /// Checksum computed independently of the reduction.
        expected: f64,
        /// Checksum of the reduction's actual output.
        got: f64,
    },
    /// A simulated GPU fault (transfer failure, device loss, allocation
    /// failure) surfaced mid-orthogonalization.
    Gpu(GpuSimError),
}

impl From<GpuSimError> for OrthError {
    fn from(e: GpuSimError) -> Self {
        OrthError::Gpu(e)
    }
}

impl std::fmt::Display for OrthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OrthError::GramNotPositiveDefinite { index, pivot } => {
                write!(f, "Gram matrix not positive definite (pivot {pivot:e} at {index})")
            }
            OrthError::ZeroNorm { column } => write!(f, "zero norm at block column {column}"),
            OrthError::SingularR { index } => write!(f, "singular R factor at index {index}"),
            OrthError::ChecksumMismatch { what, expected, got } => {
                write!(f, "ABFT checksum mismatch in {what}: expected {expected:e}, got {got:e}")
            }
            OrthError::Gpu(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for OrthError {}

// ---------- reduction helpers (host side of the butterfly) ----------
//
// Each reduce is an async per-link upload of the per-device partials; the
// host waits on the arrival events (the real dependency of its summation)
// and combines them. Device queues never block here — under
// `Schedule::EventDriven` the devices keep running whatever is next in
// their streams while the reduction drains over PCIe.

/// The traffic and host work of reducing `len` words from each of `ndev`
/// devices.
fn charge_reduce(mg: &mut MultiGpu, ndev: usize, len: usize) -> Result<(), OrthError> {
    let up = mg.to_host_async(&vec![8 * len; ndev], Precision::F64)?;
    mg.host_wait_all(&up);
    mg.host_compute((ndev * len) as f64, (16 * ndev * len) as f64);
    Ok(())
}

fn reduce_scalar(mg: &mut MultiGpu, parts: &[f64]) -> Result<f64, OrthError> {
    charge_reduce(mg, parts.len(), 1)?;
    Ok(parts.iter().sum())
}

fn reduce_vec(mg: &mut MultiGpu, parts: &[Vec<f64>]) -> Result<Vec<f64>, OrthError> {
    charge_reduce(mg, parts.len(), parts[0].len())?;
    let mut out = vec![0.0; parts[0].len()];
    for p in parts {
        for (o, &v) in out.iter_mut().zip(p) {
            *o += v;
        }
    }
    Ok(out)
}

fn reduce_mat(mg: &mut MultiGpu, parts: &[Mat]) -> Result<Mat, OrthError> {
    let (r, c) = (parts[0].nrows(), parts[0].ncols());
    charge_reduce(mg, parts.len(), r * c)?;
    let mut out = Mat::zeros(r, c);
    for p in parts {
        out.axpy(1.0, p);
    }
    Ok(out)
}

// ---------- ABFT checksums ----------

/// Relative tolerance for checksum verification: well above the `O(n eps)`
/// rounding gap between the two evaluation orders, well below the change a
/// mid-mantissa bit flip makes to any numerically significant entry.
const ABFT_RTOL: f64 = 1e-10;

/// Scalar checksum `(V[:, a0..a1] 1)^T (V[:, b0..b1] 1)` reduced across
/// devices, with the magnitude scale its verification is relative to.
/// Equals `1^T (V_a^T V_b) 1` in exact arithmetic — computed here without
/// the GEMM it verifies.
///
/// # Errors
/// Propagates simulated transfer failures and device loss.
pub fn block_checksum(
    mg: &mut MultiGpu,
    v: &[MatId],
    a: (usize, usize),
    b: (usize, usize),
) -> Result<(f64, f64), OrthError> {
    let parts = mg.run_map(|d, dev| dev.block_sum_dot(v[d], a, b));
    let bytes = vec![16usize; parts.len()];
    mg.to_host(&bytes)?;
    mg.host_compute(2.0 * parts.len() as f64, 32.0 * parts.len() as f64);
    let dot = parts.iter().map(|p| p[0]).sum();
    let scale = parts.iter().map(|p| p[1]).sum();
    Ok((dot, scale))
}

/// Verify `got` against `expected` at [`ABFT_RTOL`] relative to `scale`.
pub(crate) fn checksums_agree(expected: f64, got: f64, scale: f64) -> bool {
    (expected - got).abs() <= ABFT_RTOL * scale.max(f64::MIN_POSITIVE)
}

// ---------- BOrth ----------

/// Orthogonalize basis columns `c0..c1` against columns `0..c0` on all
/// devices, returning the projection coefficients `C = V_{0:c0}^T W`
/// (`c0 x (c1-c0)`), which the Hessenberg reconstruction consumes.
///
/// # Errors
/// Propagates simulated transfer failures and device loss.
pub fn borth(
    mg: &mut MultiGpu,
    v: &[MatId],
    c0: usize,
    c1: usize,
    kind: BorthKind,
) -> Result<Mat, OrthError> {
    assert!(c0 < c1);
    if c0 == 0 {
        return Ok(Mat::zeros(0, c1));
    }
    Ok(match kind {
        BorthKind::Mgs => {
            // one reduction per previous vector (still j reductions, §V-A)
            let mut c = Mat::zeros(c0, c1 - c0);
            for l in 0..c0 {
                let gemv = mg.config.gemv;
                let parts = mg.run_map(|d, dev| dev.gemv_t_cols(v[d], c0, c1, l, gemv));
                let row = reduce_vec(mg, &parts)?;
                mg.broadcast(8 * row.len())?;
                mg.run(|d, dev| dev.rank1_update(v[d], l, c0, c1, &row));
                for (k, &val) in row.iter().enumerate() {
                    c[(l, k)] = val;
                }
            }
            c
        }
        BorthKind::Cgs => {
            // single block reduction (§V-B)
            let gemm = mg.config.gemm;
            let parts = mg.run_map(|d, dev| dev.gemm_tn_cols(v[d], (0, c0), (c0, c1), gemm));
            let c = reduce_mat(mg, &parts)?;
            mg.broadcast(8 * c0 * (c1 - c0))?;
            mg.run(|d, dev| dev.gemm_nn_update(v[d], (0, c0), (c0, c1), &c, gemm));
            c
        }
    })
}

/// Verify the BOrth projection reduction `c` against the independently
/// computed `(expected, scale)` checksum that [`block_checksum`] read from
/// `V_prev` and `W` before the update subtracted the projection in place.
///
/// # Errors
/// [`OrthError::ChecksumMismatch`] when the reduction disagrees.
pub(crate) fn check_borth(mg: &mut MultiGpu, c: &Mat, sum: (f64, f64)) -> Result<(), OrthError> {
    let (expected, scale) = sum;
    let mut got = 0.0;
    for j in 0..c.ncols() {
        for i in 0..c.nrows() {
            got += c[(i, j)];
        }
    }
    mg.host_compute((c.nrows() * c.ncols()) as f64, (8 * c.nrows() * c.ncols()) as f64);
    obs::counter_add(obs::names::ABFT_BORTH_CHECKS, 1);
    if !checksums_agree(expected, got, scale) {
        if obs::enabled() {
            obs::instant_cause(
                "abft.checksum_mismatch",
                obs::Track::Host,
                mg.time(),
                &format!("borth projection checksum: expected {expected:.6e}, got {got:.6e}"),
            );
        }
        return Err(OrthError::ChecksumMismatch { what: "borth", expected, got });
    }
    Ok(())
}

/// Verify TSQR's `r` against the Gram checksum `1^T (W^T W) 1 = ||R 1||^2`
/// (any QR of W satisfies `W^T W = R^T R`), `(expected, scale)` being what
/// [`block_checksum`] read from W before the in-place factorization.
///
/// # Errors
/// [`OrthError::ChecksumMismatch`] when `R` disagrees with the checksum.
pub(crate) fn check_gram(
    mg: &mut MultiGpu,
    r: &Mat,
    kind: TsqrKind,
    sum: (f64, f64),
) -> Result<(), OrthError> {
    let (expected, scale) = sum;
    let k = r.ncols();
    let mut got = 0.0;
    for i in 0..k {
        let mut row = 0.0;
        for j in i..k {
            row += r[(i, j)];
        }
        got += row * row;
    }
    mg.host_compute((k * k) as f64, (8 * k * k) as f64);
    // mixed-precision Gram accumulates in f32: widen the tolerance to the
    // f32 rounding scale so the checksum flags corruption, not precision
    let tol_scale =
        if kind == TsqrKind::CholQrMixed { scale * (f32::EPSILON as f64 / 1e-10) } else { scale };
    obs::counter_add(obs::names::ABFT_GRAM_CHECKS, 1);
    if !checksums_agree(expected, got, tol_scale) {
        if obs::enabled() {
            obs::instant_cause(
                "abft.checksum_mismatch",
                obs::Track::Host,
                mg.time(),
                &format!("TSQR Gram checksum: expected {expected:.6e}, got {got:.6e}"),
            );
        }
        return Err(OrthError::ChecksumMismatch { what: "gram", expected, got });
    }
    Ok(())
}

// ---------- TSQR ----------

/// Callback opening the CAQR overlap window: invoked by
/// [`tsqr_with_hook`] after the block's *last* output column holds its
/// final values but before the remaining columns are updated. The hook
/// typically issues the next MPK block's halo exchange
/// ([`crate::mpk::mpk_prefetch`]); the remaining column updates — and
/// everything up to the next block's first halo use — then hide the
/// transfer time. Only the CAQR kinds can open the window: their final
/// update computes output columns independently, whereas the triangular
/// solve of CholQR/SVQR and the column recurrences of MGS/CGS finalize
/// the last column last.
pub type PrefetchHook<'a> = &'a mut dyn FnMut(&mut MultiGpu) -> Result<(), GpuSimError>;

/// Orthonormalize basis columns `c0..c1` in place across all devices and
/// return the `(c1-c0) x (c1-c0)` upper-triangular `R` with
/// `W_old = W_new R`.
pub fn tsqr(
    mg: &mut MultiGpu,
    v: &[MatId],
    c0: usize,
    c1: usize,
    kind: TsqrKind,
    svqr_scaled: bool,
) -> Result<Mat, OrthError> {
    tsqr_with_hook(mg, v, c0, c1, kind, svqr_scaled, None)
}

/// [`tsqr`] with an optional prefetch hook (see [`PrefetchHook`]). The
/// hook fires at most once, only on the CAQR paths, and only after the
/// rank check — once it fires, the factorization can no longer fail, so
/// a speculatively issued exchange is never orphaned by a TSQR breakdown.
pub fn tsqr_with_hook(
    mg: &mut MultiGpu,
    v: &[MatId],
    c0: usize,
    c1: usize,
    kind: TsqrKind,
    svqr_scaled: bool,
    prefetch: Option<PrefetchHook<'_>>,
) -> Result<Mat, OrthError> {
    assert!(c0 < c1);
    let k = c1 - c0;
    Ok(match kind {
        TsqrKind::Mgs | TsqrKind::Cgs => {
            let gs = if kind == TsqrKind::Mgs { BorthKind::Mgs } else { BorthKind::Cgs };
            let mut r = Mat::zeros(k, k);
            for col in c0..c1 {
                for (i, rho) in orth_column(mg, v, c0, col, gs)?.into_iter().enumerate() {
                    r[(i, col - c0)] = rho;
                }
                nonzero(r[(col - c0, col - c0)], col - c0)?;
            }
            r
        }
        TsqrKind::CgsFused => {
            let mut r = Mat::zeros(k, k);
            for col in c0..c1 {
                if col == c0 {
                    r[(0, 0)] = nonzero(normalize_col(mg, v, col, c0)?, 0)?;
                    continue;
                }
                // single fused reduction: [V^T v ; v^T v]
                let gemv = mg.config.gemv;
                let parts = mg.run_map(|d, dev| {
                    let mut p = dev.gemv_t_cols(v[d], c0, col, col, gemv);
                    p.push(dev.norm2_sq_col(v[d], col));
                    p
                });
                let mut fused = reduce_vec(mg, &parts)?;
                let vnorm_sq = fused.pop().expect("fused entry present");
                let coeffs = fused;
                for (i, &rho) in coeffs.iter().enumerate() {
                    r[(i, col - c0)] = rho;
                }
                // Pythagorean norm with the paper's stability check: when
                // cancellation ate too many digits, fall back to an
                // explicit reduction after the update.
                let proj_sq: f64 = coeffs.iter().map(|c| c * c).sum();
                let rest = vnorm_sq - proj_sq;
                if rest > 0.25 * vnorm_sq && rest.is_finite() {
                    // fast path: one combined broadcast (coefficients +
                    // norm), one fused device update+scale — 2 phases/col
                    let norm = nonzero(rest.sqrt(), col - c0)?;
                    mg.broadcast(8 * (coeffs.len() + 1))?;
                    mg.run(|d, dev| {
                        dev.gemv_n_update(v[d], c0, col, &coeffs, col);
                        dev.scal_col(v[d], col, 1.0 / norm);
                    });
                    r[(col - c0, col - c0)] = norm;
                } else {
                    // stability fallback: the extra synchronization the
                    // paper's footnote 5 describes
                    mg.broadcast(8 * coeffs.len())?;
                    mg.run(|d, dev| dev.gemv_n_update(v[d], c0, col, &coeffs, col));
                    r[(col - c0, col - c0)] = nonzero(normalize_col(mg, v, col, c0)?, col - c0)?;
                }
            }
            r
        }
        TsqrKind::CholQr | TsqrKind::CholQrMixed => {
            let gemm = mg.config.gemm;
            let parts = if kind == TsqrKind::CholQrMixed {
                mg.run_map(|d, dev| dev.syrk_cols_f32(v[d], c0, c1, gemm))
            } else {
                mg.run_map(|d, dev| dev.syrk_cols(v[d], c0, c1, gemm))
            };
            let mut b = reduce_mat(mg, &parts)?;
            maybe_nudge_gram(mg, &mut b);
            let r = match chol::cholesky_upper(&b) {
                Ok(r) => r,
                Err(ca_dense::DenseError::NotPositiveDefinite { index, pivot }) => {
                    return Err(OrthError::GramNotPositiveDefinite { index, pivot })
                }
                Err(_) => unreachable!("cholesky only fails with NotPositiveDefinite"),
            };
            mg.host_compute((k * k * k) as f64 / 3.0, (8 * k * k) as f64);
            mg.broadcast(8 * k * k)?;
            apply_trsm(mg, v, c0, c1, &r)?;
            r
        }
        TsqrKind::SvQr => {
            let gemm = mg.config.gemm;
            let parts = mg.run_map(|d, dev| dev.syrk_cols(v[d], c0, c1, gemm));
            let mut b = reduce_mat(mg, &parts)?;
            maybe_nudge_gram(mg, &mut b);
            // SVD of the Gram matrix (optionally after diagonal scaling,
            // the [20] stabilization), then R := qr(Sigma^{1/2} U^T D).
            let (dscale, svd) = if svqr_scaled {
                jacobi::sym_svd_scaled(&b)
            } else {
                (vec![1.0; k], jacobi::sym_svd(&b)) // scaling by 1.0 is exact
            };
            let smax = svd.sigma.first().copied().unwrap_or(0.0);
            let floor = smax * f64::EPSILON * f64::EPSILON;
            let msvd = Mat::from_fn(k, k, |i, j| {
                svd.sigma[i].max(floor).sqrt() * svd.u[(j, i)] * dscale[j]
            });
            let r = qr::householder_qr(&msvd).r;
            mg.host_compute(14.0 * (k * k * k) as f64, (24 * k * k) as f64);
            mg.broadcast(8 * k * k)?;
            apply_trsm(mg, v, c0, c1, &r)?;
            r
        }
        TsqrKind::Caqr | TsqrKind::CaqrTree => {
            // local QRs (Q in place), gather R factors
            let local_rs = if kind == TsqrKind::CaqrTree {
                mg.run_map(|d, dev| dev.local_qr_tree_cols(v[d], c0, c1, 512))
            } else {
                mg.run_map(|d, dev| dev.local_qr_cols(v[d], c0, c1))
            };
            let ndev = local_rs.len();
            mg.to_host(&vec![8 * k * k; ndev])?;
            // host: QR of the stacked R factors, one Q block per device
            let (r, qblocks) = qr::tsqr_root(&local_rs);
            mg.host_compute(4.0 * (ndev * k) as f64 * (k * k) as f64, (16 * ndev * k * k) as f64);
            // scatter the Q blocks, apply on devices
            mg.to_devices(&vec![8 * k * k; ndev])?;
            // rank deficiency shows up as a (near-)zero diagonal of R —
            // the other TSQR variants surface this via their own errors.
            // Threshold: numerical rank at ~100 eps relative to r_00.
            let r00 = r[(0, 0)].abs().max(f64::MIN_POSITIVE);
            for jdiag in 0..k {
                let d = r[(jdiag, jdiag)].abs();
                if d < 100.0 * f64::EPSILON * r00 || !d.is_finite() {
                    return Err(OrthError::SingularR { index: jdiag });
                }
            }
            match prefetch {
                Some(hook) => {
                    // Overlap window (Fig. 14 mechanism): finalize the
                    // block's last basis column first, let the hook issue
                    // the next block's halo exchange, then update the
                    // remaining columns — flops the transfers hide under.
                    let origs =
                        mg.run_map(|d, dev| dev.gemm_right_small_last(v[d], c0, c1, &qblocks[d]));
                    hook(mg)?;
                    mg.run(|d, dev| {
                        dev.gemm_right_small_rest(v[d], c0, c1, &qblocks[d], &origs[d]);
                    });
                }
                None => mg.run(|d, dev| dev.gemm_right_small(v[d], c0, c1, &qblocks[d])),
            }
            r
        }
    })
}

/// Numerical fault injection ([`ca_gpusim::faults::GramNudge`]): pull the
/// host-reduced Gram matrix toward rank deficiency — its last row/column
/// toward a scaled copy of the first — when the installed plan says so.
/// Indexed by the executor's monotone message counter, so a replay nudges
/// the same factorizations; the injection itself mutates host data only
/// (like an SDC bit flip) and charges nothing.
fn maybe_nudge_gram(mg: &MultiGpu, b: &mut Mat) {
    let Some(w) = mg.fault_plan().and_then(|p| p.gram_nudge_event(mg.counters().total_msgs()))
    else {
        return;
    };
    let k = b.nrows();
    if k < 2 {
        return;
    }
    // target: column k-1 = alpha * column 0 (alpha preserves the diagonal
    // magnitude), blended by w — exactly singular at w = 1, condition
    // blow-up below it. Row mirrored to keep B symmetric.
    let alpha = (b[(k - 1, k - 1)].abs() / b[(0, 0)].abs().max(f64::MIN_POSITIVE)).sqrt();
    for i in 0..k {
        let target = alpha * b[(i, 0)];
        let v = (1.0 - w) * b[(i, k - 1)] + w * target;
        b[(i, k - 1)] = v;
        b[(k - 1, i)] = v;
    }
}

/// Reduce the norm of `col` and normalize it on every device; returns the
/// norm. An exactly zero column is left as it is and its norm, 0, returned;
/// a norm that is not a number is [`OrthError::ZeroNorm`]. `c0` is the
/// block's first column (errors are block-relative).
fn normalize_col(mg: &mut MultiGpu, v: &[MatId], col: usize, c0: usize) -> Result<f64, OrthError> {
    let parts = mg.run_map(|d, dev| dev.norm2_sq_col(v[d], col));
    let nsq = reduce_scalar(mg, &parts)?;
    let norm = nsq.max(0.0).sqrt();
    if nsq.is_nan() || !norm.is_finite() {
        return Err(OrthError::ZeroNorm { column: col - c0 });
    }
    if norm > 0.0 {
        mg.broadcast(8)?;
        mg.run(|d, dev| dev.scal_col(v[d], col, 1.0 / norm));
    }
    Ok(norm)
}

/// A block's diagonal entry of `R`: a zero one is rank deficiency.
fn nonzero(norm: f64, column: usize) -> Result<f64, OrthError> {
    (norm != 0.0).then_some(norm).ok_or(OrthError::ZeroNorm { column })
}

fn apply_trsm(
    mg: &mut MultiGpu,
    v: &[MatId],
    c0: usize,
    c1: usize,
    r: &Mat,
) -> Result<(), OrthError> {
    let results = mg.run_map(|d, dev| dev.trsm_cols(v[d], c0, c1, r));
    for res in results {
        if let Err(ca_dense::DenseError::SingularTriangular { index }) = res {
            return Err(OrthError::SingularR { index });
        }
    }
    Ok(())
}

/// One Gram–Schmidt column: orthogonalize column `col` against columns
/// `c0..col` and normalize it. With `c0 = 0` this is the *Orth* step of
/// standard GMRES (§III) and the result is the Hessenberg column
/// `[h_0 .. h_{col-1}, h_col]`; MGS and CGS TSQR are this routine over the
/// columns of a block starting at `c0`, the result being that column of `R`.
/// A column that lies exactly in the span of the others ends in `h_col = 0`
/// and stays zero (an invariant Krylov space); only a norm that is not a
/// number is an error.
pub fn orth_column(
    mg: &mut MultiGpu,
    v: &[MatId],
    c0: usize,
    col: usize,
    kind: BorthKind,
) -> Result<Vec<f64>, OrthError> {
    let mut h = Vec::with_capacity(col - c0 + 1);
    match kind {
        BorthKind::Mgs => {
            for prev in c0..col {
                let parts = mg.run_map(|d, dev| dev.dot_cols(v[d], prev, col));
                let rho = reduce_scalar(mg, &parts)?;
                mg.broadcast(8)?;
                mg.run(|d, dev| dev.axpy_cols(v[d], -rho, prev, col));
                h.push(rho);
            }
        }
        // nothing to project out of a block's first column: no launch
        BorthKind::Cgs if col > c0 => {
            let gemv = mg.config.gemv;
            let parts = mg.run_map(|d, dev| dev.gemv_t_cols(v[d], c0, col, col, gemv));
            h.extend(reduce_vec(mg, &parts)?);
            mg.broadcast(8 * h.len())?;
            mg.run(|d, dev| dev.gemv_n_update(v[d], c0, col, &h, col));
        }
        BorthKind::Cgs => {}
    }
    h.push(normalize_col(mg, v, col, c0)?);
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_dense::norms::{factorization_error, orthogonality_error};
    use ca_scalar::rng::SplitMix64;

    /// Distribute a deterministic tall matrix over `ndev` devices and
    /// return (mg, per-device MatIds, the full matrix).
    fn setup(n: usize, cols: usize, ndev: usize, seed: u64) -> (MultiGpu, Vec<MatId>, Mat) {
        let mut rng = SplitMix64::new(seed);
        let full = Mat::from_fn(n, cols, |_, _| rng.in_range(-0.5, 0.5));
        let mut mg = MultiGpu::with_defaults(ndev);
        let mut ids = Vec::new();
        for d in 0..ndev {
            let lo = d * n / ndev;
            let hi = (d + 1) * n / ndev;
            let dev = mg.device_mut(d);
            let v = dev.alloc_mat(hi - lo, cols).unwrap();
            for j in 0..cols {
                dev.mat_mut(v).set_col(j, &full.col(j)[lo..hi]);
            }
            ids.push(v);
        }
        (mg, ids, full)
    }

    fn collect(mg: &MultiGpu, ids: &[MatId], n: usize, cols: usize) -> Mat {
        let ndev = ids.len();
        let mut out = Mat::zeros(n, cols);
        for d in 0..ndev {
            let lo = d * n / ndev;
            let m = mg.device(d).mat(ids[d]);
            for j in 0..cols {
                out.col_mut(j)[lo..lo + m.nrows()].copy_from_slice(m.col(j));
            }
        }
        out
    }

    fn check_tsqr(kind: TsqrKind, ndev: usize) {
        let (n, k) = (120, 5);
        let (mut mg, ids, orig) = setup(n, k, ndev, 42);
        let r = tsqr(&mut mg, &ids, 0, k, kind, true).unwrap();
        let q = collect(&mg, &ids, n, k);
        assert!(
            orthogonality_error(&q) < 1e-10,
            "{kind} on {ndev} devs: orth err {}",
            orthogonality_error(&q)
        );
        assert!(
            factorization_error(&orig, &q, &r) < 1e-12,
            "{kind} on {ndev} devs: fact err {}",
            factorization_error(&orig, &q, &r)
        );
        // R upper triangular
        for j in 0..k {
            for i in j + 1..k {
                assert_eq!(r[(i, j)], 0.0, "{kind}: R not triangular");
            }
        }
    }

    #[test]
    fn all_tsqr_kinds_factor_correctly() {
        for kind in [
            TsqrKind::Mgs,
            TsqrKind::Cgs,
            TsqrKind::CgsFused,
            TsqrKind::CholQr,
            TsqrKind::SvQr,
            TsqrKind::Caqr,
            TsqrKind::CaqrTree,
        ] {
            for ndev in [1, 3] {
                check_tsqr(kind, ndev);
            }
        }
    }

    #[test]
    fn caqr_tree_faster_than_plain_caqr() {
        let (n, k) = (90_000, 16);
        let t_of = |kind| {
            let (mut mg, ids, _) = setup(n, k, 1, 5);
            mg.reset_time();
            tsqr(&mut mg, &ids, 0, k, kind, true).unwrap();
            mg.sync();
            mg.time()
        };
        let t_plain = t_of(TsqrKind::Caqr);
        let t_tree = t_of(TsqrKind::CaqrTree);
        assert!(t_tree < t_plain, "tree {t_tree} vs plain {t_plain}");
    }

    #[test]
    fn caqr_tree_r_matches_plain_caqr() {
        let (n, k) = (200, 5);
        let (mut mg1, ids1, _) = setup(n, k, 2, 9);
        let r1 = tsqr(&mut mg1, &ids1, 0, k, TsqrKind::Caqr, true).unwrap();
        let (mut mg2, ids2, _) = setup(n, k, 2, 9);
        let r2 = tsqr(&mut mg2, &ids2, 0, k, TsqrKind::CaqrTree, true).unwrap();
        for i in 0..k {
            for j in 0..k {
                assert!(
                    (r1[(i, j)] - r2[(i, j)]).abs() < 1e-10 * r1[(i, j)].abs().max(1.0),
                    "R({i},{j}): {} vs {}",
                    r1[(i, j)],
                    r2[(i, j)]
                );
            }
        }
    }

    #[test]
    fn mixed_precision_cholqr_factors_with_f32_accuracy() {
        let (n, k) = (120, 5);
        let (mut mg, ids, orig) = setup(n, k, 2, 42);
        let r = tsqr(&mut mg, &ids, 0, k, TsqrKind::CholQrMixed, true).unwrap();
        let q = collect(&mg, &ids, n, k);
        // single-precision Gram: orthogonality limited to ~sqrt(eps32)-ish,
        // far looser than f64 CholQR but still a valid factorization
        let oerr = orthogonality_error(&q);
        assert!(oerr < 1e-5, "orth err {oerr}");
        assert!(oerr > 1e-13, "should show f32 rounding, got {oerr}");
        assert!(factorization_error(&orig, &q, &r) < 1e-4);
    }

    #[test]
    fn mixed_precision_cholqr_cheaper_than_f64() {
        let (n, k) = (60_000, 12);
        let t_of = |kind| {
            let (mut mg, ids, _) = setup(n, k, 1, 7);
            mg.reset_time();
            tsqr(&mut mg, &ids, 0, k, kind, true).unwrap();
            mg.sync();
            mg.time()
        };
        let t64 = t_of(TsqrKind::CholQr);
        let t32 = t_of(TsqrKind::CholQrMixed);
        assert!(t32 < 0.8 * t64, "f32 Gram {t32} not well below f64 {t64}");
    }

    #[test]
    fn mixed_precision_with_reorth_recovers_orthogonality() {
        let (n, k) = (100, 6);
        let (mut mg, ids, _) = setup(n, k, 2, 11);
        tsqr(&mut mg, &ids, 0, k, TsqrKind::CholQrMixed, true).unwrap();
        tsqr(&mut mg, &ids, 0, k, TsqrKind::CholQrMixed, true).unwrap();
        let q = collect(&mg, &ids, n, k);
        assert!(orthogonality_error(&q) < 1e-6, "second pass should clean up");
    }

    #[test]
    fn tsqr_sub_block_leaves_other_columns() {
        let (mut mg, ids, orig) = setup(60, 6, 2, 7);
        tsqr(&mut mg, &ids, 2, 5, TsqrKind::CholQr, true).unwrap();
        let after = collect(&mg, &ids, 60, 6);
        for j in [0usize, 1, 5] {
            for i in 0..60 {
                assert_eq!(after[(i, j)], orig[(i, j)]);
            }
        }
    }

    #[test]
    fn cholqr_breaks_down_on_dependent_columns() {
        let (mut mg, ids, _) = setup(80, 3, 2, 9);
        // make column 2 = column 0 exactly on every device
        for d in 0..2 {
            let dev = mg.device_mut(d);
            let c0 = dev.mat(ids[d]).col_to_vec(0);
            dev.mat_mut(ids[d]).set_col(2, &c0);
        }
        match tsqr(&mut mg, &ids, 0, 3, TsqrKind::CholQr, true) {
            Err(OrthError::GramNotPositiveDefinite { .. }) => {}
            other => panic!("expected breakdown, got {other:?}"),
        }
    }

    #[test]
    fn caqr_detects_dependent_columns() {
        let (mut mg, ids, _) = setup(80, 3, 2, 9);
        for d in 0..2 {
            let dev = mg.device_mut(d);
            let c0 = dev.mat(ids[d]).col_to_vec(0);
            dev.mat_mut(ids[d]).set_col(2, &c0);
        }
        for kind in [TsqrKind::Caqr, TsqrKind::CaqrTree] {
            let (mut mg2, ids2, _) = setup(80, 3, 2, 9);
            for d in 0..2 {
                let dev = mg2.device_mut(d);
                let c0 = dev.mat(ids2[d]).col_to_vec(0);
                dev.mat_mut(ids2[d]).set_col(2, &c0);
            }
            match tsqr(&mut mg2, &ids2, 0, 3, kind, true) {
                Err(OrthError::SingularR { .. }) => {}
                other => panic!("{kind}: expected SingularR, got {other:?}"),
            }
        }
        let _ = tsqr(&mut mg, &ids, 0, 2, TsqrKind::Caqr, true).unwrap();
    }

    #[test]
    fn svqr_survives_dependent_columns() {
        let (mut mg, ids, _) = setup(80, 3, 2, 9);
        for d in 0..2 {
            let dev = mg.device_mut(d);
            let c0 = dev.mat(ids[d]).col_to_vec(0);
            dev.mat_mut(ids[d]).set_col(2, &c0);
        }
        // SVQR completes (Q is not fully orthonormal in the null direction,
        // but no breakdown) — its §V-D selling point.
        let r = tsqr(&mut mg, &ids, 0, 3, TsqrKind::SvQr, true).unwrap();
        assert!(r[(0, 0)].is_finite());
    }

    #[test]
    fn message_counts_match_fig10() {
        // Fig. 10: per TSQR of s+1 columns, round trips are
        // MGS: (s+1)(s+2)/2, CGS: ~2(s+1), CholQR/SVQR/CAQR: 2.
        let k = 4; // s + 1
        let per_kind = |kind| {
            let (mut mg, ids, _) = setup(40, k, 2, 3);
            mg.reset_counters();
            tsqr(&mut mg, &ids, 0, k, kind, true).unwrap();
            let c = mg.counters();
            // round trips = host-bound message bursts; each burst has
            // ndev messages, and every reduction is followed by one bcast
            (c.msgs_to_host / 2, c.msgs_to_dev / 2)
        };
        let (mgs_up, _) = per_kind(TsqrKind::Mgs);
        assert_eq!(mgs_up as usize, k * (k + 1) / 2);
        let (cgs_up, _) = per_kind(TsqrKind::Cgs);
        assert_eq!(cgs_up as usize, 2 * k - 1);
        // fused CGS: one reduce per column (paper footnote 5) => the
        // Fig. 10 count 2(s+1) in one-way phases
        let (fused_up, fused_down) = per_kind(TsqrKind::CgsFused);
        assert_eq!(fused_up as usize, k);
        assert!(fused_down as usize <= k + 1);
        for kind in [TsqrKind::CholQr, TsqrKind::SvQr, TsqrKind::Caqr] {
            let (up, down) = per_kind(kind);
            assert_eq!(up, 1, "{kind}");
            assert_eq!(down, 1, "{kind}");
        }
    }

    #[test]
    fn borth_projects_out_previous_block() {
        let (n, cols) = (90, 6);
        let (mut mg, ids, _) = setup(n, cols, 3, 11);
        // orthonormalize the first 3 columns, then BOrth the rest
        tsqr(&mut mg, &ids, 0, 3, TsqrKind::CholQr, true).unwrap();
        for kind in [BorthKind::Mgs, BorthKind::Cgs] {
            let (mut mg2, ids2, _) = setup(n, cols, 3, 11);
            tsqr(&mut mg2, &ids2, 0, 3, TsqrKind::CholQr, true).unwrap();
            let c = borth(&mut mg2, &ids2, 3, 6, kind).unwrap();
            assert_eq!(c.nrows(), 3);
            assert_eq!(c.ncols(), 3);
            let q = collect(&mg2, &ids2, n, cols);
            // new block orthogonal to old block
            for jold in 0..3 {
                for jnew in 3..6 {
                    let d = ca_dense::blas1::dot(q.col(jold), q.col(jnew));
                    assert!(d.abs() < 1e-10, "{kind:?}: <q{jold}, w{jnew}> = {d}");
                }
            }
        }
    }

    #[test]
    fn orth_column_produces_hessenberg_coeffs() {
        let (n, cols) = (70, 4);
        for kind in [BorthKind::Mgs, BorthKind::Cgs] {
            let (mut mg, ids, orig) = setup(n, cols, 2, 21);
            // col 0: normalize by hand via tsqr of single column
            tsqr(&mut mg, &ids, 0, 1, TsqrKind::Mgs, true).unwrap();
            let h = orth_column(&mut mg, &ids, 0, 1, kind).unwrap();
            assert_eq!(h.len(), 2);
            let q = collect(&mg, &ids, n, cols);
            // reconstruction: orig col1 = h[0] q0 + h[1] q1
            for i in 0..n {
                let rec = h[0] * q[(i, 0)] + h[1] * q[(i, 1)];
                assert!((rec - orig[(i, 1)]).abs() < 1e-12, "{kind:?}");
            }
            assert!(ca_dense::blas1::dot(q.col(0), q.col(1)).abs() < 1e-12);
        }
    }
}
