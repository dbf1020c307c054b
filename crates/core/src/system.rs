//! Device-resident solver state: the distributed basis, right-hand side,
//! iterate, SpMV/MPK plans and (under the fault-tolerant driver) ABFT
//! checksum for one linear system.

use crate::layout::Layout;
use crate::mpk::{dist_spmv, MpkPlan, MpkState, SpmvFormat};
use ca_gpusim::faults::Result;
use ca_gpusim::{MatId, MultiGpu, VecId};
use ca_scalar::Precision;
use ca_sparse::Csr;

/// Everything a solver needs on the devices for `A x = b`.
///
/// The per-device basis matrix has `m + 4` columns: columns `0..=m` hold
/// the Krylov basis `V`, followed by the iterate `x`, the right-hand side
/// `b`, and a residual scratch column. The service keeps a finished
/// solve's system resident and hands it to the next job on its matrix.
#[derive(Debug)]
pub struct System {
    /// Block-row distribution.
    pub layout: Layout,
    /// Per-device basis + state matrix.
    pub v: Vec<MatId>,
    /// s = 1 exchange plan (standard SpMV, residuals).
    pub spmv: MpkState,
    /// s-step plan, present when CA-GMRES will run MPK.
    pub mpk: Option<MpkState>,
    /// Restart length.
    pub m: usize,
    /// Global dimension.
    pub n: usize,
    /// Per-device row slices of the ABFT checksum `c = Aᵀ1`, when the
    /// fault-tolerant driver verifies its solves on this system.
    pub(crate) checksum: Option<Vec<VecId>>,
}

impl System {
    /// Build the device state: allocate the basis, load the SpMV plan and
    /// (when `s > 1`) the MPK plan, in ELLPACK and f64. `a` must already be
    /// reordered to match `layout` (see [`crate::layout::prepare`]).
    ///
    /// # Errors
    /// Propagates simulated allocation failures ([`ca_gpusim::GpuSimError`]).
    pub fn new(
        mg: &mut MultiGpu,
        a: &Csr,
        layout: Layout,
        m: usize,
        s: Option<usize>,
    ) -> Result<Self> {
        Self::with_format(mg, a, layout, m, s, SpmvFormat::Ell, Precision::F64)
    }

    /// [`System::new`] with an explicit sparse storage format for the
    /// SpMV/MPK slices (e.g. `SpmvFormat::Hyb` for hub-heavy matrices) and
    /// an explicit precision for the *MPK* slices and halos. The s = 1 SpMV
    /// plan — used for explicit residuals and the refinement anchor —
    /// always stays f64; only the basis-generation operator (and its halo
    /// traffic) is demoted when `mpk_prec` is [`Precision::F32`].
    ///
    /// On a cost-only machine ([`MultiGpu::cost_only`]) the system is
    /// shape-only: the plans' analysis is real, nothing is converted or
    /// stored (see [`MpkState::load_as`]), and the methods below that move
    /// a right-hand side or an iterate charge their transfers and move
    /// nothing.
    ///
    /// # Errors
    /// Propagates simulated allocation failures ([`ca_gpusim::GpuSimError`]).
    pub fn with_format(
        mg: &mut MultiGpu,
        a: &Csr,
        layout: Layout,
        m: usize,
        s: Option<usize>,
        format: SpmvFormat,
        mpk_prec: Precision,
    ) -> Result<Self> {
        assert_eq!(a.nrows(), layout.n());
        assert_eq!(mg.n_gpus(), layout.ndev());
        let n = a.nrows();
        // Analyse first, load second. The plans' breadth-first searches grow
        // and drop hundreds of small vectors; run between the two loads they
        // leave allocator-cached fragments among the long-lived slice
        // arrays, and the heap of a process that builds system after system
        // no longer coalesces (EXPERIMENTS.md, PR 20: 22 MiB on `cant_mpk`).
        // An s-step plan holds the s = 1 analysis: its first level.
        let plan_s = s.filter(|&s| s > 1).map(|s| MpkPlan::new(a, &layout, s));
        let plan1 = plan_s.as_ref().map_or_else(|| MpkPlan::new(a, &layout, 1), |p| p.truncated(1));
        let v: Vec<MatId> = (0..layout.ndev())
            .map(|d| mg.device_mut(d).alloc_mat(layout.nlocal(d), m + 4))
            .collect::<Result<_>>()?;
        let spmv = MpkState::load_as(mg, a, plan1, format, Precision::F64, None)?;
        // both plans multiply by the same local blocks: the s-step plan
        // loads the ones the s = 1 plan built (an f32 plan builds its own)
        let mpk = plan_s
            .map(|plan| MpkState::load_as(mg, a, plan, format, mpk_prec, Some(&spmv)))
            .transpose()?;
        Ok(Self { layout, v, spmv, mpk, m, n, checksum: None })
    }

    /// The devices whose buffers hold data for the host to move: all of
    /// them, or none on a cost-only machine.
    fn holding(&self, mg: &MultiGpu) -> std::ops::Range<usize> {
        0..if mg.is_cost_only() { 0 } else { self.layout.ndev() }
    }

    /// Column index of the iterate `x`.
    pub fn x_col(&self) -> usize {
        self.m + 1
    }

    /// Column index of the right-hand side `b`.
    pub fn b_col(&self) -> usize {
        self.m + 2
    }

    /// Column index of the residual scratch.
    pub fn r_col(&self) -> usize {
        self.m + 3
    }

    /// Upload `b` (and zero `x`) to the devices, charging the transfers.
    ///
    /// # Errors
    /// Propagates simulated transfer failures and device loss.
    pub fn load_rhs(&self, mg: &mut MultiGpu, b: &[f64]) -> Result<()> {
        assert_eq!(b.len(), self.n);
        let bytes: Vec<usize> =
            (0..self.layout.ndev()).map(|d| 8 * self.layout.nlocal(d)).collect();
        mg.to_devices(&bytes)?;
        self.set_rhs_uncharged(mg, b);
        Ok(())
    }

    /// Set `b` (and zero `x`) on the devices *without* charging the
    /// transfer. The multi-tenant service front-end batches the right-hand
    /// sides of co-resident jobs into one aggregated upload (charged once,
    /// by the caller, at the full payload size) and then installs each
    /// solve's RHS from that staging buffer with this host-side poke —
    /// charging per-solve transfers again would double-count the traffic.
    /// Single solves should use [`System::load_rhs`].
    pub fn set_rhs_uncharged(&self, mg: &mut MultiGpu, b: &[f64]) {
        assert_eq!(b.len(), self.n);
        let (bc, xc) = (self.b_col(), self.x_col());
        for d in self.holding(mg) {
            let v = mg.device_mut(d).mat_mut(self.v[d]);
            v.set_col(bc, &b[self.layout.range(d)]);
            v.col_mut(xc).fill(0.0);
        }
    }

    /// Free every device allocation this system owns (the basis matrices,
    /// both SpMV/MPK plans and the ABFT checksum), returning the bytes to
    /// the simulator's memory accounting. Used by the service residency
    /// manager when a cold operator is evicted to make room for an incoming
    /// tenant.
    pub fn release(self, mg: &mut MultiGpu) {
        for (d, &v) in self.v.iter().enumerate() {
            mg.device_mut(d).free_mat(v);
        }
        self.spmv.release(mg);
        if let Some(mpk) = self.mpk {
            mpk.release(mg);
        }
        for (d, &c) in self.checksum.iter().flatten().enumerate() {
            mg.device_mut(d).free_vec(c);
        }
    }

    /// Upload an explicit iterate `x` to the devices (checkpoint restore
    /// for the fault-tolerant driver), charging the transfers.
    ///
    /// # Errors
    /// Propagates simulated transfer failures and device loss.
    pub fn upload_x(&self, mg: &mut MultiGpu, x: &[f64]) -> Result<()> {
        assert_eq!(x.len(), self.n);
        let bytes: Vec<usize> =
            (0..self.layout.ndev()).map(|d| 8 * self.layout.nlocal(d)).collect();
        mg.to_devices(&bytes)?;
        let xc = self.x_col();
        for d in self.holding(mg) {
            let lo = self.layout.range(d).start;
            let nl = self.layout.nlocal(d);
            mg.device_mut(d).mat_mut(self.v[d]).set_col(xc, &x[lo..lo + nl]);
        }
        Ok(())
    }

    /// Download the iterate `x`, charging the transfers.
    ///
    /// # Errors
    /// Propagates simulated transfer failures and device loss.
    pub fn download_x(&self, mg: &mut MultiGpu) -> Result<Vec<f64>> {
        let bytes: Vec<usize> =
            (0..self.layout.ndev()).map(|d| 8 * self.layout.nlocal(d)).collect();
        mg.to_host(&bytes)?;
        let mut x = vec![0.0; self.n];
        let xc = self.x_col();
        for d in self.holding(mg) {
            let lo = self.layout.range(d).start;
            let col = mg.device(d).mat(self.v[d]).col(xc);
            x[lo..lo + col.len()].copy_from_slice(col);
        }
        Ok(x)
    }

    /// Compute the explicit residual `r := b - A x` into the scratch
    /// column and return its 2-norm.
    ///
    /// # Errors
    /// Propagates simulated transfer failures and device loss.
    pub fn residual_norm(&self, mg: &mut MultiGpu) -> Result<f64> {
        let (xc, bc, rc) = (self.x_col(), self.b_col(), self.r_col());
        dist_spmv(mg, &self.spmv, &self.v, xc, rc)?; // r = A x
        mg.run(|d, dev| {
            dev.scal_col(self.v[d], rc, -1.0); // r = -A x
            dev.axpy_cols(self.v[d], 1.0, bc, rc); // r += b
        });
        let parts = mg.run_map(|d, dev| dev.norm2_sq_col(self.v[d], rc));
        let bytes = vec![8usize; parts.len()];
        mg.to_host(&bytes)?;
        mg.host_compute(parts.len() as f64, 0.0);
        // a NaN must reach the convergence test: `max` would turn it into 0
        let ss: f64 = parts.iter().sum();
        Ok(if ss.is_nan() { ss } else { ss.max(0.0) }.sqrt())
    }

    /// Start a restart cycle: copy the residual into basis column 0 and
    /// normalize by `beta` (its norm, already reduced).
    ///
    /// # Errors
    /// Propagates simulated transfer failures and device loss.
    pub fn seed_basis(&self, mg: &mut MultiGpu, beta: f64) -> Result<()> {
        let rc = self.r_col();
        mg.broadcast(8)?;
        mg.run(|d, dev| {
            dev.copy_col(self.v[d], rc, 0);
            dev.scal_col(self.v[d], 0, 1.0 / beta);
        });
        Ok(())
    }

    /// Apply the correction `x += V_{0..k} y` after the least-squares
    /// solve (broadcasts `y`, then one fused device GEMV).
    ///
    /// # Errors
    /// Propagates simulated transfer failures and device loss.
    pub fn update_x(&self, mg: &mut MultiGpu, y: &[f64]) -> Result<()> {
        let k = y.len();
        assert!(k <= self.m);
        let neg: Vec<f64> = y.iter().map(|v| -v).collect();
        mg.broadcast(8 * k)?;
        let xc = self.x_col();
        mg.run(|d, dev| dev.gemv_n_update(self.v[d], 0, k, &neg, xc));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_sparse::gen::laplace2d;
    use ca_sparse::Ell;
    use std::sync::Arc;

    fn setup() -> (MultiGpu, System, Csr) {
        let a = laplace2d(6, 6);
        let layout = Layout::even(36, 2);
        let mut mg = MultiGpu::with_defaults(2);
        let sys = System::new(&mut mg, &a, layout, 5, Some(3)).unwrap();
        (mg, sys, a)
    }

    /// What the devices were charged before the plans shared anything: the
    /// basis, and per plan its own local block, level slices and work
    /// vectors, every slice at the GPU format's bytes plus its row ids.
    fn charged_unshared(
        a: &Csr,
        layout: &Layout,
        m: usize,
        plans: &[(usize, Precision)],
    ) -> Vec<usize> {
        let n = a.nrows();
        (0..layout.ndev())
            .map(|d| {
                let slices: usize = plans
                    .iter()
                    .map(|&(s, prec)| {
                        let dp = &MpkPlan::new(a, layout, s).devs[d];
                        let local: Vec<u32> = dp.local.clone().map(|r| r as u32).collect();
                        let slice = |rows: &[u32]| {
                            let ell: Ell = Ell::from_csr_rows(a, rows.iter().map(|&r| r as usize));
                            ell.padded_nnz() * (prec.bytes() + 4) + 4 * rows.len()
                        };
                        let levels: usize = dp.levels[..s - 1].iter().map(|lv| slice(lv)).sum();
                        slice(&local) + levels + 2 * 8 * n
                    })
                    .sum();
                8 * layout.nlocal(d) * (m + 4) + slices
            })
            .collect()
    }

    #[test]
    fn sharing_the_local_block_moves_no_modelled_byte() {
        let a = ca_sparse::gen::cantilever(4, 4, 3);
        let n = a.nrows();
        let layout = Layout::even(n, 3);
        let used = |mg: &MultiGpu| (0..3).map(|d| mg.device(d).mem_used()).collect::<Vec<_>>();
        let local = |mg: &MultiGpu, st: &MpkState, d: usize| {
            Arc::clone(&mg.device(d).slice(st.local_slice(d)).storage)
        };

        // an MPK system: both plans charged in full, one local block held
        let mut mg = MultiGpu::with_defaults(3);
        let sys = System::new(&mut mg, &a, layout.clone(), 12, Some(4)).unwrap();
        let plans = [(1, Precision::F64), (4, Precision::F64)];
        assert_eq!(used(&mg), charged_unshared(&a, &layout, 12, &plans));
        let mpk = sys.mpk.as_ref().unwrap();
        for d in 0..3 {
            assert_ne!(sys.spmv.local_slice(d), mpk.local_slice(d));
            assert!(Arc::ptr_eq(&local(&mg, &sys.spmv, d), &local(&mg, mpk, d)));
        }
        sys.release(&mut mg);
        assert_eq!(used(&mg), [0, 0, 0]);

        // SpMV only: one plan, nothing to share
        let mut mg = MultiGpu::with_defaults(3);
        System::new(&mut mg, &a, layout.clone(), 12, None).unwrap();
        assert_eq!(used(&mg), charged_unshared(&a, &layout, 12, &plans[..1]));

        // an f32 MPK plan multiplies by other values: it builds its own
        let mut mg = MultiGpu::with_defaults(3);
        let (format, f32) = (SpmvFormat::Ell, Precision::F32);
        let sys =
            System::with_format(&mut mg, &a, layout.clone(), 12, Some(4), format, f32).unwrap();
        assert_eq!(used(&mg), charged_unshared(&a, &layout, 12, &[plans[0], (4, f32)]));
        let mpk = sys.mpk.as_ref().unwrap();
        for d in 0..3 {
            assert!(!Arc::ptr_eq(&local(&mg, &sys.spmv, d), &local(&mg, mpk, d)));
            assert_eq!(local(&mg, mpk, d).prec(), f32);
        }
    }

    #[test]
    fn rhs_roundtrip() {
        let (mut mg, sys, _) = setup();
        let b: Vec<f64> = (0..36).map(|i| i as f64).collect();
        sys.load_rhs(&mut mg, &b).unwrap();
        // x starts at zero
        let x = sys.download_x(&mut mg).unwrap();
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn residual_of_zero_x_is_norm_b() {
        let (mut mg, sys, _) = setup();
        let b: Vec<f64> = (0..36).map(|i| (i as f64 * 0.1).sin()).collect();
        sys.load_rhs(&mut mg, &b).unwrap();
        let r = sys.residual_norm(&mut mg).unwrap();
        let nb = ca_dense::blas1::nrm2(&b);
        assert!((r - nb).abs() < 1e-12 * nb);
    }

    #[test]
    fn residual_of_exact_solution_is_zero() {
        let (mut mg, sys, a) = setup();
        // choose x_true, b = A x_true, then poke x onto the devices
        let x_true: Vec<f64> = (0..36).map(|i| 1.0 + (i % 5) as f64).collect();
        let mut b = vec![0.0; 36];
        ca_sparse::spmv::spmv(&a, &x_true, &mut b);
        sys.load_rhs(&mut mg, &b).unwrap();
        let xc = sys.x_col();
        for d in 0..2 {
            let lo = sys.layout.range(d).start;
            let nl = sys.layout.nlocal(d);
            mg.device_mut(d).mat_mut(sys.v[d]).set_col(xc, &x_true[lo..lo + nl]);
        }
        let r = sys.residual_norm(&mut mg).unwrap();
        assert!(r < 1e-11, "residual {r}");
    }

    #[test]
    fn seed_and_update() {
        let (mut mg, sys, _) = setup();
        let b = vec![2.0; 36];
        sys.load_rhs(&mut mg, &b).unwrap();
        let beta = sys.residual_norm(&mut mg).unwrap();
        sys.seed_basis(&mut mg, beta).unwrap();
        // basis col 0 should be unit: b / ||b||
        let expect = 2.0 / beta;
        for d in 0..2 {
            for &v in mg.device(d).mat(sys.v[d]).col(0) {
                assert!((v - expect).abs() < 1e-14);
            }
        }
        // x += V0 * 3 => x = 3 * expect everywhere
        sys.update_x(&mut mg, &[3.0]).unwrap();
        let x = sys.download_x(&mut mg).unwrap();
        for v in x {
            assert!((v - 3.0 * expect).abs() < 1e-13);
        }
    }
}
