//! Performance model of one NVIDIA M2090 (Fermi) GPU, its PCIe gen-2 link,
//! and the host's 16 Sandy Bridge cores.
//!
//! Every simulated kernel charges
//! `t = launches * launch_latency + flops / throughput + bytes / bandwidth`,
//! with per-kernel-variant `(throughput, bandwidth)` pairs. The variants and
//! their relative calibration reproduce the *shapes* of the paper's
//! Figure 11:
//!
//! * CUBLAS 4.2 DGEMM is terrible on tall-skinny operands ("the performance
//!   of CUBLAS DGEMM was lower than that of MKL or that of MAGMA DGEMV"),
//! * the paper's batched DGEMM with h-row panels "outperforms the other
//!   implementations",
//! * CUBLAS DGEMV is similarly poor and the optimized MAGMA tall-skinny
//!   DGEMV "improves the performance of DGEMV by a factor of about five",
//! * DDOT sits between the two GEMV variants,
//! * local Householder QR (xGEQR2, BLAS-1/2) "obtains only a fraction of
//!   the BLAS-3 performance" — which is why CAQR tracks MGS in Fig. 11c.
//!
//! Absolute constants are the M2090's public specs (665 Gflop/s DP peak,
//! 177 GB/s memory bandwidth) derated by typical achievable efficiencies,
//! and PCIe gen 2 x16 (~6 GB/s effective, ~10 us end-to-end latency).

use ca_scalar::Precision;

/// Dense-kernel variants for the Gram-forming / projection GEMMs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmVariant {
    /// Plain CUBLAS 4.2-like DGEMM: poor on tall-skinny shapes.
    Cublas,
    /// The paper's batched DGEMM: the tall matrix is cut into panels of
    /// `h` rows (rounded up to a multiple of 32), one small DGEMM per
    /// panel, then a reduction.
    Batched {
        /// Panel height before rounding to a multiple of 32.
        h: usize,
    },
}

impl GemmVariant {
    /// Panel height after the paper's round-up-to-32 alignment rule.
    pub fn panel_rows(&self) -> Option<usize> {
        match self {
            GemmVariant::Cublas => None,
            GemmVariant::Batched { h } => Some(h.div_ceil(32).max(1) * 32),
        }
    }
}

/// Dense-kernel variants for the tall-skinny matrix-vector product.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemvVariant {
    /// Plain CUBLAS 4.2-like DGEMV.
    Cublas,
    /// The paper's optimized MAGMA kernel: one thread block per column,
    /// each computing a dot product (§V-F).
    MagmaTallSkinny,
}

/// Which kernels an orthogonalization routine should use.
#[derive(Debug, Clone, Copy)]
pub struct KernelConfig {
    /// GEMM variant for Gram products and block updates.
    pub gemm: GemmVariant,
    /// GEMV variant for CGS's projections.
    pub gemv: GemvVariant,
}

impl Default for KernelConfig {
    /// The paper's optimized configuration: batched DGEMM (h = 384) and
    /// the MAGMA tall-skinny DGEMV.
    fn default() -> Self {
        Self { gemm: GemmVariant::Batched { h: 384 }, gemv: GemvVariant::MagmaTallSkinny }
    }
}

/// What an SpMV over one sparse slice is priced on, in the GPU format:
/// ELLPACK slots (`width x rows`, padding included), entries spilled to a
/// COO tail (0 for plain ELLPACK) and rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpmvShape {
    /// ELLPACK slots, padding included.
    pub slots: usize,
    /// Entries in the COO tail.
    pub spilled: usize,
    /// Rows of the slice.
    pub rows: usize,
}

/// Calibrated machine constants (seconds, bytes, flop/s).
///
/// A fitted machine profile (see the `ca-tune` crate) persists these
/// constants by name and reloads them bit-identically; use
/// [`PerfModel::param`] / [`PerfModel::set_param`] / [`PerfModel::params`] /
/// [`PerfModel::apply_overrides`] to introspect or replace individual
/// constants without depending on the struct layout.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfModel {
    /// Kernel-launch latency per launch.
    pub launch_s: f64,
    /// PCIe per-message latency (one direction).
    pub pcie_latency_s: f64,
    /// PCIe effective bandwidth, bytes/s (per-GPU link; links overlap).
    pub pcie_bw: f64,
    /// Host-side per-message handling overhead (drives the benefit of
    /// aggregating messages even when links overlap).
    pub host_msg_s: f64,
    /// Inter-node network per-message latency (the §VII outlook: "GPUs
    /// distributed over multiple compute nodes, where the communication is
    /// more expensive"). Applied on top of PCIe for devices off node 0.
    pub net_latency_s: f64,
    /// Inter-node network bandwidth, bytes/s.
    pub net_bw: f64,

    /// Device memory capacity in bytes (the M2090 carries 6 GiB; MPK's
    /// boundary slices must fit alongside the basis, §IV-A).
    pub dev_mem_capacity: usize,
    /// Device DP peak, flop/s.
    pub dev_peak_flops: f64,
    /// Device memory bandwidth, bytes/s (peak).
    pub dev_mem_bw: f64,

    /// ELL SpMV streaming efficiency (fraction of dev_mem_bw).
    pub eff_spmv: f64,
    /// Single-precision ELL SpMV streaming efficiency (fraction of
    /// dev_mem_bw). Slightly above `eff_spmv`: the 8-byte (value, index)
    /// slots coalesce better than the 12-byte DP ones on Fermi.
    pub eff_spmv_f32: f64,
    /// CUBLAS tall-skinny DGEMM: (flop/s cap, bytes/s cap).
    pub gemm_cublas: (f64, f64),
    /// Batched DGEMM: (flop/s cap, bytes/s cap).
    pub gemm_batched: (f64, f64),
    /// CUBLAS DGEMV bytes/s cap.
    pub gemv_cublas_bw: f64,
    /// MAGMA tall-skinny DGEMV bytes/s cap.
    pub gemv_magma_bw: f64,
    /// DDOT/AXPY/SCAL (BLAS-1) bytes/s cap.
    pub blas1_bw: f64,
    /// Local Householder QR (xGEQR2/xORGQR): (flop/s cap, bytes/s cap).
    pub geqr2: (f64, f64),
    /// Tall-skinny DTRSM bytes/s cap.
    pub trsm_bw: f64,

    /// Host (16-core Sandy Bridge + MKL): DP flop/s for small dense math.
    pub host_flops: f64,
    /// Host memory bandwidth, bytes/s.
    pub host_mem_bw: f64,
    /// Host MKL DGEMM throughput on tall-skinny shapes, flop/s.
    pub host_gemm_flops: f64,
    /// Host threaded-MKL SpMV bandwidth, bytes/s (the CPU baseline of Fig. 3).
    pub host_spmv_bw: f64,
}

impl Default for PerfModel {
    fn default() -> Self {
        Self {
            launch_s: 7e-6,
            pcie_latency_s: 11e-6,
            pcie_bw: 5.8e9,
            host_msg_s: 1.5e-6,
            net_latency_s: 25e-6,
            net_bw: 4.5e9,

            dev_mem_capacity: 6 * (1 << 30),
            dev_peak_flops: 665e9,
            dev_mem_bw: 177e9,

            eff_spmv: 0.52,
            eff_spmv_f32: 0.54,
            gemm_cublas: (24e9, 45e9),
            gemm_batched: (175e9, 132e9),
            gemv_cublas_bw: 18e9,
            gemv_magma_bw: 95e9,
            blas1_bw: 58e9,
            geqr2: (9e9, 26e9),
            trsm_bw: 85e9,

            host_flops: 120e9,
            host_mem_bw: 55e9,
            host_gemm_flops: 48e9,
            host_spmv_bw: 28e9,
        }
    }
}

impl PerfModel {
    /// Time of one device kernel with the given launch count, flops and
    /// bytes against a `(throughput, bandwidth)` cap pair. Compute and
    /// memory phases are charged additively (a pessimistic-but-stable
    /// roofline; the fitted caps already fold in overlap).
    #[inline]
    pub fn kernel_time(&self, launches: usize, flops: f64, tput: f64, bytes: f64, bw: f64) -> f64 {
        launches as f64 * self.launch_s + flops / tput + bytes / bw
    }

    /// ELL SpMV time at `prec`: streams `padded_nnz` (value, 4-byte index)
    /// slots, gathers `padded_nnz` vector entries (half-efficiency random
    /// access), writes `rows` results. Single precision halves the value
    /// traffic and runs against its own efficiency (`eff_spmv_f32`).
    pub fn spmv_time(&self, padded_nnz: usize, rows: usize, prec: Precision) -> f64 {
        let word = prec.bytes() as f64;
        let stream = padded_nnz as f64 * (word + 4.0) + rows as f64 * word;
        let gather = padded_nnz as f64 * word * 2.0; // random-access penalty x2
        self.launch_s + (stream + gather) / (self.spmv_eff(prec) * self.dev_mem_bw)
    }

    /// HYB (ELL + COO) SpMV time at `prec`: the regular part streams like
    /// ELL, the COO tail pays scalar random access (triplets of 8-byte
    /// coordinates and a value, plus the gathered entry, atomic-update
    /// flavored at 1/3 streaming efficiency) and its own launch. Plain
    /// ELLPACK is the hybrid format without a tail, to the bit.
    pub fn spmv_hyb_time(
        &self,
        ell_padded: usize,
        coo_nnz: usize,
        rows: usize,
        prec: Precision,
    ) -> f64 {
        let mut t = self.spmv_time(ell_padded, rows, prec);
        if coo_nnz > 0 {
            let word = prec.bytes() as f64;
            t += self.launch_s
                + coo_nnz as f64 * ((8.0 + word) + word)
                    / (self.spmv_eff(prec) * self.dev_mem_bw / 3.0);
        }
        t
    }

    /// SpMV streaming efficiency (fraction of `dev_mem_bw`) at `prec`.
    fn spmv_eff(&self, prec: Precision) -> f64 {
        match prec {
            Precision::F64 => self.eff_spmv,
            Precision::F32 => self.eff_spmv_f32,
        }
    }

    /// One matrix-powers step as the single kernel of the paper's Fig. 4:
    /// one launch, then what its parts stream — each part (the local block,
    /// then every boundary level still alive) its SpMV and the `2 x rows`
    /// words of the recurrence epilogue that places its rows in the next
    /// work vector, both at `prec`, and the `2 x nlocal` f64 words of the
    /// basis-column write. Each term is the stand-alone kernel's time less
    /// its launch, so no constant and no per-byte formula is new; a hybrid
    /// part that spills keeps its COO tail's launch (the tail is an
    /// atomic-update pass of its own). The device charges this and the
    /// planner predicts with it.
    pub fn mpk_step_time(
        &self,
        parts: impl IntoIterator<Item = SpmvShape>,
        nlocal: usize,
        prec: Precision,
    ) -> f64 {
        let streamed = |kernel: f64| kernel - self.launch_s;
        let mut t = self.launch_s;
        for p in parts {
            t += streamed(self.spmv_hyb_time(p.slots, p.spilled, p.rows, prec))
                + streamed(self.blas1_time(2 * p.rows, prec));
        }
        t + streamed(self.blas1_time(2 * nlocal, Precision::F64))
    }

    /// Gram-product (`C := V1^T V2`, `m` rows, `k1 x k2` output) time for a
    /// GEMM variant at `prec`. Bytes modeled as one streaming read of both
    /// operands; single precision (the \[23\] mixed-precision
    /// orthogonalization) is half the memory traffic and double the Fermi
    /// arithmetic rate.
    ///
    /// A skinny-operand penalty (`k2/(k2+2)`) derates the achievable
    /// bandwidth when the second operand has very few columns: GEMM tiles
    /// run mostly empty. This is the effect behind the paper's observation
    /// that CA-GMRES with s = 1 is much slower than GMRES — "these kernels
    /// are not optimized for orthogonalizing one vector at a time" (§VI-B).
    pub fn gemm_tn_time(
        &self,
        variant: GemmVariant,
        m: usize,
        k1: usize,
        k2: usize,
        prec: Precision,
    ) -> f64 {
        let word = prec.bytes() as f64;
        let rate = 8.0 / word;
        let flops = 2.0 * m as f64 * k1 as f64 * k2 as f64;
        let skinny = k2 as f64 / (k2 as f64 + 2.0);
        match variant {
            GemmVariant::Cublas => {
                let bytes = word * m as f64 * (k1 + k2) as f64;
                let (t, b) = self.gemm_cublas;
                self.kernel_time(1, flops, rate * t, bytes, b * skinny)
            }
            GemmVariant::Batched { .. } => {
                let rows = variant.panel_rows().unwrap();
                let nbatch = m.div_ceil(rows).max(1);
                // padded to a multiple of the panel height
                let padded = (nbatch * rows) as f64;
                let bytes = word * padded * (k1 + k2) as f64 + word * (nbatch * k1 * k2) as f64; // partial-result traffic
                let (t, b) = self.gemm_batched;
                // batched call + reduction kernel
                self.kernel_time(2, flops, rate * t, bytes, b * skinny)
            }
        }
    }

    /// Tall dense update `V2 -= V1 C` (`m` rows, `k1` source cols, `k2`
    /// destination cols) with a GEMM variant.
    pub fn gemm_nn_time(&self, variant: GemmVariant, m: usize, k1: usize, k2: usize) -> f64 {
        // Same traffic pattern as the Gram product plus the destination write.
        self.gemm_tn_time(variant, m, k1, k2, Precision::F64)
            + 8.0 * m as f64 * k2 as f64 / self.dev_mem_bw
    }

    /// Tall-skinny GEMV (`y := V^T x`, `m` rows, `k` cols) for a variant.
    pub fn gemv_t_time(&self, variant: GemvVariant, m: usize, k: usize) -> f64 {
        let bytes = 8.0 * m as f64 * (k as f64 + 1.0);
        let bw = match variant {
            GemvVariant::Cublas => self.gemv_cublas_bw,
            GemvVariant::MagmaTallSkinny => self.gemv_magma_bw,
        };
        self.launch_s + bytes / bw
    }

    /// BLAS-1 op over `words` reads+writes total at `prec`. Single
    /// precision is half the traffic against the same bandwidth cap (BLAS-1
    /// is purely streaming, so no separate efficiency constant is
    /// warranted).
    pub fn blas1_time(&self, words: usize, prec: Precision) -> f64 {
        self.launch_s + prec.bytes() as f64 * words as f64 / self.blas1_bw
    }

    /// Local Householder QR of an `m x k` block, explicit Q formed
    /// (4 m k^2 flops, per the paper's Fig. 10 CAQR row).
    pub fn geqr2_time(&self, m: usize, k: usize) -> f64 {
        let flops = 4.0 * m as f64 * (k * k) as f64;
        let bytes = 8.0 * m as f64 * k as f64 * (k as f64 / 2.0); // k/2 passes
        let (t, b) = self.geqr2;
        self.kernel_time(k, flops, t, bytes, b)
    }

    /// Batched panel Householder QR (the paper's footnote-6 idea: "the
    /// potential of using batched QRs on a GPU"): `nb` independent `h x k`
    /// panel factorizations launched together. Same flops as the monolithic
    /// xGEQR2 but ~3x the throughput (panels saturate the SMs) and O(1)
    /// launches instead of O(k).
    pub fn geqr2_batched_time(&self, rows: usize, k: usize, h: usize) -> f64 {
        let nb = rows.div_ceil(h.max(k)).max(1);
        let flops = 4.0 * rows as f64 * (k * k) as f64;
        let bytes = 8.0 * rows as f64 * k as f64 * (k as f64 / 2.0);
        let (t, b) = self.geqr2;
        // + the k x k tree reduction and the per-panel Q application
        let tree_flops = 4.0 * (nb * k) as f64 * (k * k) as f64;
        let apply =
            self.gemm_tn_time(GemmVariant::Batched { h: h.max(32) }, rows, k, k, Precision::F64);
        self.kernel_time(4, flops + tree_flops, 3.0 * t, bytes, 2.0 * b) + apply
    }

    /// Tall-skinny right triangular solve (`m x k` block, `k x k` factor).
    pub fn trsm_time(&self, m: usize, k: usize) -> f64 {
        let bytes = 8.0 * m as f64 * k as f64 * 2.0;
        self.launch_s + bytes / self.trsm_bw
    }

    /// One PCIe message of `bytes` in either direction.
    pub fn pcie_time(&self, bytes: usize) -> f64 {
        self.pcie_latency_s + bytes as f64 / self.pcie_bw
    }

    /// One device<->root-host message when the device lives on a remote
    /// compute node: PCIe hop plus a network hop.
    pub fn remote_link_time(&self, bytes: usize) -> f64 {
        self.pcie_time(bytes) + self.net_latency_s + bytes as f64 / self.net_bw
    }

    /// Host dense compute (Cholesky/QR/SVD of small matrices, reductions).
    pub fn host_time(&self, flops: f64, bytes: f64) -> f64 {
        flops / self.host_flops + bytes / self.host_mem_bw
    }

    /// Host threaded SpMV (the CPU GMRES baseline): CSR streaming.
    pub fn host_spmv_time(&self, nnz: usize, rows: usize) -> f64 {
        (nnz as f64 * 12.0 + rows as f64 * 16.0) / self.host_spmv_bw
    }

    /// Host tall-skinny GEMM (MKL line of Fig. 11a).
    pub fn host_gemm_time(&self, m: usize, k1: usize, k2: usize) -> f64 {
        let flops = 2.0 * m as f64 * k1 as f64 * k2 as f64;
        let bytes = 8.0 * m as f64 * (k1 + k2) as f64;
        flops / self.host_gemm_flops + bytes / self.host_mem_bw
    }
}

/// One named constant: its name, how to read it and how to overwrite it.
type Param = (&'static str, fn(&PerfModel) -> f64, fn(&mut PerfModel, f64));

/// Every constant [`PerfModel::param`] / [`PerfModel::set_param`] accept,
/// in the order a machine profile stores them (its JSON and its hash depend
/// on this order). Tuple-valued constants are flattened as `name.tput` /
/// `name.bw`; `dev_mem_capacity` is reported in bytes as `f64`.
const PARAMS: &[Param] = &[
    ("launch_s", |m| m.launch_s, |m, v| m.launch_s = v),
    ("pcie_latency_s", |m| m.pcie_latency_s, |m, v| m.pcie_latency_s = v),
    ("pcie_bw", |m| m.pcie_bw, |m, v| m.pcie_bw = v),
    ("host_msg_s", |m| m.host_msg_s, |m, v| m.host_msg_s = v),
    ("net_latency_s", |m| m.net_latency_s, |m, v| m.net_latency_s = v),
    ("net_bw", |m| m.net_bw, |m, v| m.net_bw = v),
    ("dev_mem_capacity", |m| m.dev_mem_capacity as f64, |m, v| m.dev_mem_capacity = v as usize),
    ("dev_peak_flops", |m| m.dev_peak_flops, |m, v| m.dev_peak_flops = v),
    ("dev_mem_bw", |m| m.dev_mem_bw, |m, v| m.dev_mem_bw = v),
    ("eff_spmv", |m| m.eff_spmv, |m, v| m.eff_spmv = v),
    ("eff_spmv_f32", |m| m.eff_spmv_f32, |m, v| m.eff_spmv_f32 = v),
    ("gemm_cublas.tput", |m| m.gemm_cublas.0, |m, v| m.gemm_cublas.0 = v),
    ("gemm_cublas.bw", |m| m.gemm_cublas.1, |m, v| m.gemm_cublas.1 = v),
    ("gemm_batched.tput", |m| m.gemm_batched.0, |m, v| m.gemm_batched.0 = v),
    ("gemm_batched.bw", |m| m.gemm_batched.1, |m, v| m.gemm_batched.1 = v),
    ("gemv_cublas_bw", |m| m.gemv_cublas_bw, |m, v| m.gemv_cublas_bw = v),
    ("gemv_magma_bw", |m| m.gemv_magma_bw, |m, v| m.gemv_magma_bw = v),
    ("blas1_bw", |m| m.blas1_bw, |m, v| m.blas1_bw = v),
    ("geqr2.tput", |m| m.geqr2.0, |m, v| m.geqr2.0 = v),
    ("geqr2.bw", |m| m.geqr2.1, |m, v| m.geqr2.1 = v),
    ("trsm_bw", |m| m.trsm_bw, |m, v| m.trsm_bw = v),
    ("host_flops", |m| m.host_flops, |m, v| m.host_flops = v),
    ("host_mem_bw", |m| m.host_mem_bw, |m, v| m.host_mem_bw = v),
    ("host_gemm_flops", |m| m.host_gemm_flops, |m, v| m.host_gemm_flops = v),
    ("host_spmv_bw", |m| m.host_spmv_bw, |m, v| m.host_spmv_bw = v),
];

impl PerfModel {
    /// Read one named constant; `None` for an unknown name.
    pub fn param(&self, name: &str) -> Option<f64> {
        PARAMS.iter().find(|p| p.0 == name).map(|p| p.1(self))
    }

    /// Overwrite one named constant; returns whether the name was known.
    pub fn set_param(&mut self, name: &str, value: f64) -> bool {
        let known = PARAMS.iter().find(|p| p.0 == name);
        if let Some(p) = known {
            p.2(self, value);
        }
        known.is_some()
    }

    /// Snapshot every named constant, in profile order.
    pub fn params(&self) -> Vec<(&'static str, f64)> {
        PARAMS.iter().map(|p| (p.0, p.1(self))).collect()
    }

    /// Apply `(name, value)` overrides in order (a loaded machine profile
    /// replacing the built-in constants); returns how many names matched.
    pub fn apply_overrides<'a, I>(&mut self, overrides: I) -> usize
    where
        I: IntoIterator<Item = (&'a str, f64)>,
    {
        overrides.into_iter().filter(|(n, v)| self.set_param(n, *v)).count()
    }
}

/// A fitted efficiency curve: the achieved rate measured at a few values
/// of a shape parameter (rows, column count, message size, ...), kept as
/// `(shape, rate)` knots sorted by shape.
#[derive(Debug, Clone, PartialEq)]
pub struct EffCurve {
    knots: Vec<(f64, f64)>,
}

impl EffCurve {
    /// Build a curve from `(shape, rate)` knots (sorted internally).
    ///
    /// # Panics
    /// If `knots` is empty or any coordinate is not finite.
    pub fn from_knots(mut knots: Vec<(f64, f64)>) -> Self {
        assert!(!knots.is_empty(), "EffCurve needs at least one knot");
        assert!(
            knots.iter().all(|&(x, y)| x.is_finite() && y.is_finite()),
            "EffCurve knots must be finite"
        );
        knots.sort_by(|a, b| a.0.total_cmp(&b.0));
        Self { knots }
    }

    /// The fitted `(shape, rate)` knots, sorted by shape.
    pub fn knots(&self) -> &[(f64, f64)] {
        &self.knots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_scalar::cases;
    use Precision::{F32, F64};

    #[test]
    fn batched_panel_rounds_to_32() {
        assert_eq!(GemmVariant::Batched { h: 100 }.panel_rows(), Some(128));
        assert_eq!(GemmVariant::Batched { h: 32 }.panel_rows(), Some(32));
        assert_eq!(GemmVariant::Batched { h: 1 }.panel_rows(), Some(32));
        assert_eq!(GemmVariant::Cublas.panel_rows(), None);
    }

    #[test]
    fn fig11a_ordering_batched_beats_mkl_beats_cublas() {
        // effective Gflop/s of the Gram product, n = 200k rows, s+1 = 30.
        let m = PerfModel::default();
        let (n, s1) = (200_000, 30);
        let flops = 2.0 * n as f64 * (s1 * s1) as f64;
        let g_cublas = flops / m.gemm_tn_time(GemmVariant::Cublas, n, s1, s1, F64) / 1e9;
        let g_batched =
            flops / m.gemm_tn_time(GemmVariant::Batched { h: 384 }, n, s1, s1, F64) / 1e9;
        let g_mkl = flops / m.host_gemm_time(n, s1, s1) / 1e9;
        assert!(g_batched > g_mkl, "batched {g_batched} <= mkl {g_mkl}");
        assert!(g_mkl > g_cublas, "mkl {g_mkl} <= cublas {g_cublas}");
    }

    #[test]
    fn fig11b_magma_gemv_about_5x_cublas() {
        let m = PerfModel::default();
        let (n, k) = (500_000, 30);
        let t_cublas = m.gemv_t_time(GemvVariant::Cublas, n, k);
        let t_magma = m.gemv_t_time(GemvVariant::MagmaTallSkinny, n, k);
        let ratio = t_cublas / t_magma;
        assert!(ratio > 3.5 && ratio < 7.0, "ratio {ratio}");
    }

    #[test]
    fn latency_dominates_small_transfers() {
        let m = PerfModel::default();
        let t_small = m.pcie_time(8);
        assert!(t_small < 1.05 * m.pcie_latency_s);
        // and bandwidth dominates big ones
        let t_big = m.pcie_time(100_000_000);
        assert!(t_big > 1_000.0 * m.pcie_latency_s);
    }

    #[test]
    fn spmv_time_scales_with_nnz() {
        let m = PerfModel::default();
        let t1 = m.spmv_time(1_000_000, 100_000, F64);
        let t2 = m.spmv_time(2_000_000, 100_000, F64);
        assert!(t2 > 1.8 * t1);
    }

    #[test]
    fn costs_monotone_in_problem_size() {
        let m = PerfModel::default();
        assert!(m.spmv_time(2_000_000, 100_000, F64) > m.spmv_time(1_000_000, 100_000, F64));
        assert!(
            m.gemm_tn_time(GemmVariant::Batched { h: 384 }, 200_000, 30, 30, F64)
                > m.gemm_tn_time(GemmVariant::Batched { h: 384 }, 100_000, 30, 30, F64)
        );
        assert!(m.pcie_time(1000) > m.pcie_time(100));
        assert!(m.remote_link_time(1000) > m.pcie_time(1000));
        assert!(m.trsm_time(100_000, 30) > m.trsm_time(50_000, 30));
    }

    #[test]
    fn skinny_gemm_penalty_hurts_single_column() {
        // per-flop cost at k2 = 1 must exceed k2 = 30 (the §VI-B effect)
        let m = PerfModel::default();
        let per_flop = |k2: usize| {
            let t = m.gemm_tn_time(GemmVariant::Batched { h: 384 }, 100_000, 30, k2, F64);
            t / (2.0 * 100_000.0 * 30.0 * k2 as f64)
        };
        assert!(per_flop(1) > 1.8 * per_flop(30));
    }

    #[test]
    fn f32_gram_cheaper_than_f64() {
        let m = PerfModel::default();
        let t64 = m.gemm_tn_time(GemmVariant::Batched { h: 384 }, 200_000, 30, 30, F64);
        let t32 = m.gemm_tn_time(GemmVariant::Batched { h: 384 }, 200_000, 30, 30, F32);
        assert!(t32 < 0.75 * t64, "f32 {t32} vs f64 {t64}");
    }

    #[test]
    fn f32_spmv_cheaper_than_f64() {
        // the Fig. 12 lever: halved value traffic must show up as a
        // strictly faster basis-generation kernel at every scale
        let m = PerfModel::default();
        for (nnz, rows) in [(100_000, 10_000), (1_000_000, 100_000), (20_000_000, 1_500_000)] {
            assert!(m.spmv_time(nnz, rows, F32) < m.spmv_time(nnz, rows, F64));
            assert!(
                m.spmv_hyb_time(nnz, rows / 10, rows, F32)
                    < m.spmv_hyb_time(nnz, rows / 10, rows, F64)
            );
        }
        assert!(m.blas1_time(300_000, F32) < m.blas1_time(300_000, F64));
    }

    #[test]
    fn hyb_beats_ell_when_padding_dominates() {
        let m = PerfModel::default();
        // 100k rows, true width 5 but one hub row forces ELL width 200
        let ell = m.spmv_time(200 * 100_000, 100_000, F64);
        let hyb = m.spmv_hyb_time(5 * 100_000, 200, 100_000, F64);
        assert!(hyb < ell / 5.0);
    }

    #[test]
    fn geqr2_slower_than_batched_gemm_per_flop() {
        // CAQR's local QR must be far off BLAS-3 speed (paper §V-E).
        let m = PerfModel::default();
        let (n, k) = (100_000, 30);
        let qr_flops = 4.0 * n as f64 * (k * k) as f64;
        let qr_gfs = qr_flops / m.geqr2_time(n, k) / 1e9;
        let gemm_flops = 2.0 * n as f64 * (k * k) as f64;
        let gemm_gfs =
            gemm_flops / m.gemm_tn_time(GemmVariant::Batched { h: 384 }, n, k, k, F64) / 1e9;
        assert!(gemm_gfs > 3.0 * qr_gfs, "gemm {gemm_gfs} vs qr {qr_gfs}");
    }

    #[test]
    fn param_introspection_roundtrips_every_name() {
        let mut m = PerfModel::default();
        for (name, v) in m.params() {
            assert_eq!(m.param(name), Some(v), "unknown param {name}");
            assert!(m.set_param(name, v * 2.0), "set_param rejected {name}");
            assert_eq!(m.param(name).unwrap(), v * 2.0, "{name} did not stick");
            m.set_param(name, v);
        }
        assert_eq!(m, PerfModel::default());
        assert!(m.param("no_such_param").is_none());
        assert!(!m.set_param("no_such_param", 1.0));
        let n = m.apply_overrides([("eff_spmv", 0.4), ("bogus", 1.0)]);
        assert_eq!(n, 1);
        assert_eq!(m.eff_spmv, 0.4);
    }

    fn sample_times(m: &PerfModel) -> Vec<f64> {
        vec![
            m.spmv_time(1_234_567, 98_765, F64),
            m.spmv_time(1_234_567, 98_765, F32),
            m.spmv_hyb_time(543_210, 777, 98_765, F64),
            m.spmv_hyb_time(543_210, 777, 98_765, F32),
            m.gemm_tn_time(GemmVariant::Cublas, 200_000, 30, 30, F64),
            m.gemm_tn_time(GemmVariant::Batched { h: 384 }, 200_000, 31, 11, F64),
            m.gemm_tn_time(GemmVariant::Batched { h: 384 }, 200_000, 30, 30, F32),
            m.gemm_nn_time(GemmVariant::Batched { h: 384 }, 150_000, 20, 10),
            m.gemv_t_time(GemvVariant::Cublas, 500_000, 30),
            m.gemv_t_time(GemvVariant::MagmaTallSkinny, 500_000, 30),
            m.blas1_time(300_000, F64),
            m.blas1_time(300_000, F32),
            m.geqr2_time(100_000, 30),
            m.geqr2_batched_time(100_000, 30, 256),
            m.trsm_time(100_000, 30),
            m.pcie_time(1_000_000),
            m.remote_link_time(1_000_000),
            m.host_time(1e9, 1e8),
            m.host_spmv_time(4_000_000, 100_000),
            m.host_gemm_time(200_000, 30, 30),
        ]
    }

    /// Profile round-trip: every constant rendered as its shortest
    /// decimal form (what the machine-profile JSON stores) and parsed
    /// back must leave every predicted time bit-identical, even after
    /// perturbing the constants.
    #[test]
    fn profile_roundtrip_bit_identical() {
        cases(256, |rng| {
            let mut m = PerfModel::default();
            for (name, v) in m.params() {
                m.set_param(name, v * rng.in_range(0.25, 4.0));
            }
            let mut m2 = PerfModel::default();
            for (name, v) in m.params() {
                let text = format!("{v:?}");
                let back: f64 = text.parse().unwrap();
                m2.set_param(name, back);
            }
            assert_eq!(&m, &m2);
            for (a, b) in sample_times(&m).iter().zip(sample_times(&m2).iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        });
    }
}
