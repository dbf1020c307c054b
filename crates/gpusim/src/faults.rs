//! Deterministic fault injection for the simulated multi-GPU machine.
//!
//! A [`FaultPlan`] makes the simulator *hostile on demand*: silent data
//! corruption in kernel outputs (SpMV, GEMM, DOT), transient transfer
//! failures that stall the PCIe link, persistent device loss after a given
//! op count, and allocation failures. Every decision is a pure hash of
//! `(seed, device, op_index)` — no wall-clock randomness — so a faulty run
//! is exactly reproducible and a plan with all rates at zero is bit-
//! identical to running with no plan at all (clocks, counters, numerics).
//!
//! Failures surface as the typed [`GpuSimError`] instead of panics, so
//! solver layers can retry transfers, recompute corrupted blocks, or
//! redistribute a lost device's slice and keep going.

use std::fmt;

/// Typed failures of the simulated machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GpuSimError {
    /// Allocation would exceed the modeled device memory capacity (or an
    /// injected allocation fault fired).
    OutOfMemory {
        /// Device that refused the allocation.
        device: usize,
        /// Bytes requested.
        requested: usize,
        /// Bytes still free before the request.
        free: usize,
    },
    /// A transfer involving this device failed even after retries.
    TransferFailed {
        /// Device whose link failed.
        device: usize,
        /// Attempts made (including the first).
        attempts: u32,
    },
    /// The device died (persistent loss) and can no longer be reached.
    DeviceLost {
        /// The lost device.
        device: usize,
    },
}

impl fmt::Display for GpuSimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpuSimError::OutOfMemory { device, requested, free } => write!(
                f,
                "device {device} out of memory: {requested} bytes requested, {free} free \
                 (MPK boundary storage grows with s — see paper §IV-A; reduce s, \
                 use more GPUs, or raise PerfModel::dev_mem_capacity)"
            ),
            GpuSimError::TransferFailed { device, attempts } => {
                write!(f, "transfer on device {device} link failed after {attempts} attempts")
            }
            GpuSimError::DeviceLost { device } => write!(f, "device {device} lost"),
        }
    }
}

impl std::error::Error for GpuSimError {}

/// Result alias for simulator operations.
pub type Result<T> = std::result::Result<T, GpuSimError>;

/// Which kernel classes are eligible for silent data corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SdcTargets {
    /// Sparse matrix-vector kernels (SpMV / MPK steps).
    pub spmv: bool,
    /// Dense block products (SYRK / GEMM — the Gram matrices).
    pub gemm: bool,
    /// Scalar reductions (DOT / NRM2).
    pub dot: bool,
}

impl SdcTargets {
    /// Corrupt every eligible kernel class.
    pub fn all() -> Self {
        SdcTargets { spmv: true, gemm: true, dot: true }
    }

    /// Corrupt SpMV outputs only.
    pub fn spmv_only() -> Self {
        SdcTargets { spmv: true, ..Default::default() }
    }

    /// Corrupt GEMM/SYRK outputs only.
    pub fn gemm_only() -> Self {
        SdcTargets { gemm: true, ..Default::default() }
    }

    fn covers(&self, kind: SdcKind) -> bool {
        match kind {
            SdcKind::Spmv => self.spmv,
            SdcKind::Gemm => self.gemm,
            SdcKind::Dot => self.dot,
        }
    }
}

/// Kernel class of a corruption site (salts the hash so distinct kernel
/// classes draw independent streams).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SdcKind {
    /// SpMV / MPK step output.
    Spmv,
    /// SYRK / GEMM output.
    Gemm,
    /// DOT / reduction output.
    Dot,
}

impl SdcKind {
    fn salt(self) -> u64 {
        match self {
            SdcKind::Spmv => 0x5350_4d56,
            SdcKind::Gemm => 0x4745_4d4d,
            SdcKind::Dot => 0x0044_4f54,
        }
    }
}

/// One drawn corruption: which element of the kernel output to hit and
/// which bit of its f64 representation to flip.
#[derive(Debug, Clone, Copy)]
pub struct SdcEvent {
    /// Hash used to pick the element index (`lane % len`).
    pub lane: u64,
    /// Bit to flip (mantissa or low exponent; never the sign bit).
    pub bit: u32,
}

impl SdcEvent {
    /// Flip the planned bit of one element of `data`. No-op on empty data.
    pub fn apply(&self, data: &mut [f64]) {
        self.apply_chained(data, &mut []);
    }

    /// [`SdcEvent::apply`] to `head` followed by `tail` as one array.
    pub fn apply_chained(&self, head: &mut [f64], tail: &mut [f64]) {
        let len = head.len() + tail.len();
        if len == 0 {
            return;
        }
        let i = (self.lane % len as u64) as usize;
        let hit = if i < head.len() { &mut head[i] } else { &mut tail[i - head.len()] };
        *hit = f64::from_bits(hit.to_bits() ^ (1u64 << self.bit));
    }
}

/// Persistent device loss: the device executes `after_op` kernel ops, then
/// dies. Its clock freezes and any transfer touching it fails with
/// [`GpuSimError::DeviceLost`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceLoss {
    /// Device to kill.
    pub device: usize,
    /// Kernel ops the device completes before dying.
    pub after_op: u64,
}

/// Injected allocation failure: the `at_alloc`-th allocation on `device`
/// reports [`GpuSimError::OutOfMemory`] regardless of capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocFault {
    /// Device whose allocation fails.
    pub device: usize,
    /// Zero-based allocation index that fails.
    pub at_alloc: u64,
}

/// Sustained compute slowdown (fail-slow): every kernel on `device` from
/// op `after_op + 1` on takes `factor` times its modeled duration. The
/// arithmetic is untouched — only the clock runs slow, the signature of a
/// thermally throttled or partially degraded part.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slowdown {
    /// Device that runs slow.
    pub device: usize,
    /// Duration multiplier (≥ 1 models degradation; 1.0 is inert).
    pub factor: f64,
    /// Kernel ops the device completes at full speed before degrading.
    pub after_op: u64,
}

/// Degraded PCIe/NIC link (fail-slow): every transfer message touching
/// `device`'s link takes `factor` times its modeled duration — a flaky
/// riser, a renegotiated lane width, a congested NIC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkDegrade {
    /// Device whose link is degraded.
    pub device: usize,
    /// Transfer-duration multiplier (≥ 1; 1.0 is inert).
    pub factor: f64,
}

/// Intermittent queue stalls (fail-slow): each kernel op on `device`
/// independently freezes the queue for `stall_s` extra seconds with
/// probability `rate` (drawn from the seeded hash, so replays are
/// bit-identical). `rate = 1.0` with a large `stall_s` models a hung
/// device the watchdog must convert into a loss.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StallPlan {
    /// Device whose queue stalls.
    pub device: usize,
    /// Per-op stall probability.
    pub rate: f64,
    /// Fixed duration of each stall, seconds.
    pub stall_s: f64,
}

/// Seeded ill-conditioned basis perturbation (numerical fault): after a
/// generated s-step basis block passes its ABFT check, the last column of
/// the block is nudged toward its predecessor with weight drawn from the
/// plan hash, making the block nearly rank-deficient. This models the
/// numerical reality the paper's §IV-A caps guard against — monomial basis
/// vectors aligning with the dominant eigenvector — but on demand and
/// reproducibly, so the escalation ladder's cheap rungs can be exercised.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BasisPerturb {
    /// Per-block probability that the perturbation fires.
    pub rate: f64,
    /// Alignment strength in [0, 1]: the faulted column becomes
    /// `(1 - magnitude) * v_last + magnitude * v_prev` (1.0 = exact copy
    /// of the previous column, an instant rank deficiency).
    pub magnitude: f64,
}

/// Seeded near-singular Gram nudge (numerical fault): after the Gram
/// matrix `B = Vᵀ V` is reduced to the host inside CholQR/SVQR, its last
/// row/column is pulled toward a scaled copy of the first, driving the
/// smallest pivot toward zero. Exercises the Cholesky-breakdown path and
/// the condition monitor without touching device state (the nudge lives in
/// host arithmetic, exactly where a catastrophically cancelled reduction
/// would surface).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GramNudge {
    /// Per-factorization probability that the nudge fires.
    pub rate: f64,
    /// Blend weight in [0, 1] toward the rank-deficient Gram matrix
    /// (1.0 = exactly singular).
    pub scale: f64,
}

/// A seeded, deterministic fault schedule for one run.
///
/// The default plan (any seed, all rates zero, no loss) injects nothing
/// and perturbs nothing: op counting happens whether or not a plan is
/// installed, so `Some(FaultPlan::new(seed))` and `None` are bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed all decisions derive from.
    pub seed: u64,
    /// Per-eligible-kernel probability of corrupting one output element.
    pub sdc_rate: f64,
    /// Which kernel classes SDC may hit.
    pub sdc_targets: SdcTargets,
    /// Per-message probability that a transfer attempt fails.
    pub transfer_fail_rate: f64,
    /// Extra simulated seconds a failed transfer attempt costs (timeout +
    /// reissue), on top of the wasted link time.
    pub transfer_stall_s: f64,
    /// Optional persistent device loss.
    pub device_loss: Option<DeviceLoss>,
    /// Optional injected allocation failure.
    pub alloc_fault: Option<AllocFault>,
    /// Optional sustained compute slowdown (fail-slow).
    pub slowdown: Option<Slowdown>,
    /// Optional degraded transfer link (fail-slow).
    pub link_degrade: Option<LinkDegrade>,
    /// Optional intermittent queue stalls (fail-slow).
    pub stalls: Option<StallPlan>,
    /// Optional ill-conditioned basis perturbations (numerical fault).
    pub basis_perturb: Option<BasisPerturb>,
    /// Optional near-singular Gram nudges (numerical fault).
    pub gram_nudge: Option<GramNudge>,
    /// Optional forced cap-violating step size: the solver is made to run
    /// with this `s` regardless of what the planner chose, driving it past
    /// the static §IV-A stability caps so the escalation ladder (not the
    /// planner) has to save the run.
    pub s_override: Option<usize>,
}

impl FaultPlan {
    /// An inert plan: nothing fails until rates are raised.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            sdc_rate: 0.0,
            sdc_targets: SdcTargets::default(),
            transfer_fail_rate: 0.0,
            transfer_stall_s: 200e-6,
            device_loss: None,
            alloc_fault: None,
            slowdown: None,
            link_degrade: None,
            stalls: None,
            basis_perturb: None,
            gram_nudge: None,
            s_override: None,
        }
    }

    /// Builder: corrupt `targets` kernels with probability `rate` per op.
    pub fn with_sdc(mut self, rate: f64, targets: SdcTargets) -> Self {
        assert!((0.0..=1.0).contains(&rate));
        self.sdc_rate = rate;
        self.sdc_targets = targets;
        self
    }

    /// Builder: fail transfer attempts with probability `rate` per message.
    pub fn with_transfer_faults(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate));
        self.transfer_fail_rate = rate;
        self
    }

    /// Builder: kill `device` after it completes `after_op` kernel ops.
    pub fn with_device_loss(mut self, device: usize, after_op: u64) -> Self {
        self.device_loss = Some(DeviceLoss { device, after_op });
        self
    }

    /// Builder: fail the `at_alloc`-th allocation on `device`.
    pub fn with_alloc_fault(mut self, device: usize, at_alloc: u64) -> Self {
        self.alloc_fault = Some(AllocFault { device, at_alloc });
        self
    }

    /// Builder: slow `device`'s kernels by `factor` after it completes
    /// `after_op` ops at full speed. `factor = 1.0` is inert.
    pub fn with_slowdown(mut self, device: usize, factor: f64, after_op: u64) -> Self {
        assert!(factor >= 1.0, "a slowdown factor below 1 would be a speedup");
        self.slowdown = Some(Slowdown { device, factor, after_op });
        self
    }

    /// Builder: multiply every transfer duration on `device`'s link by
    /// `factor`. `factor = 1.0` is inert.
    pub fn with_link_degrade(mut self, device: usize, factor: f64) -> Self {
        assert!(factor >= 1.0, "a link factor below 1 would be a speedup");
        self.link_degrade = Some(LinkDegrade { device, factor });
        self
    }

    /// Builder: freeze `device`'s queue for `stall_s` extra seconds on
    /// each kernel op with probability `rate`.
    pub fn with_stalls(mut self, device: usize, rate: f64, stall_s: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate));
        assert!(stall_s >= 0.0);
        self.stalls = Some(StallPlan { device, rate, stall_s });
        self
    }

    /// Builder: align the last column of generated basis blocks with their
    /// predecessor with probability `rate` per block. `magnitude` in
    /// [0, 1] sets how close to exact rank deficiency the block is pushed.
    pub fn with_basis_perturb(mut self, rate: f64, magnitude: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate));
        assert!((0.0..=1.0).contains(&magnitude));
        self.basis_perturb = Some(BasisPerturb { rate, magnitude });
        self
    }

    /// Builder: pull the host-reduced Gram matrix toward singularity with
    /// probability `rate` per factorization. `scale` in [0, 1] sets how
    /// singular (1.0 = exactly).
    pub fn with_gram_nudge(mut self, rate: f64, scale: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate));
        assert!((0.0..=1.0).contains(&scale));
        self.gram_nudge = Some(GramNudge { rate, scale });
        self
    }

    /// Builder: force the solver to run with step size `s`, ignoring the
    /// configured/planned value — the chaos harness uses this to march the
    /// basis past the static stability caps.
    pub fn with_s_override(mut self, s: usize) -> Self {
        assert!(s >= 1);
        self.s_override = Some(s);
        self
    }

    /// Builder: drop any scheduled device loss — used when re-installing a
    /// plan on the surviving devices after a degradation recovery (the
    /// loss already happened; SDC and transfer faults stay active).
    pub fn without_device_loss(mut self) -> Self {
        self.device_loss = None;
        self
    }

    /// Builder: drop the performance faults (slowdown, link degradation,
    /// stalls) targeting `device` — used when that device has been
    /// declared lost and a rebuilt executor renumbers the survivors (a
    /// fault aimed at the dead device must not land on whichever survivor
    /// inherits its index).
    pub fn without_perf_faults_on(mut self, device: usize) -> Self {
        if matches!(self.slowdown, Some(s) if s.device == device) {
            self.slowdown = None;
        }
        if matches!(self.link_degrade, Some(l) if l.device == device) {
            self.link_degrade = None;
        }
        if matches!(self.stalls, Some(s) if s.device == device) {
            self.stalls = None;
        }
        self
    }

    /// SplitMix64 over the seed and the decision coordinates.
    fn hash(&self, salt: u64, device: usize, index: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_mul(0x9e3779b97f4a7c15)
            .wrapping_add(salt.wrapping_mul(0xbf58476d1ce4e5b9))
            .wrapping_add((device as u64).wrapping_mul(0x94d049bb133111eb))
            .wrapping_add(index);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn u01(h: u64) -> f64 {
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Does kernel op `op` of class `kind` on `device` get corrupted, and
    /// if so, how?
    pub fn sdc_event(&self, device: usize, op: u64, kind: SdcKind) -> Option<SdcEvent> {
        if self.sdc_rate <= 0.0 || !self.sdc_targets.covers(kind) {
            return None;
        }
        let h = self.hash(kind.salt(), device, op);
        if Self::u01(h) >= self.sdc_rate {
            return None;
        }
        let h2 = self.hash(kind.salt() ^ 0xface, device, op);
        // bits 20..62: low-mantissa flips are harmless noise, high-exponent
        // flips are catastrophic — both realistic SDC outcomes.
        SdcEvent { lane: h, bit: 20 + (h2 % 42) as u32 }.into()
    }

    /// Does attempt `attempt` of transfer message `msg` on `device`'s link
    /// fail?
    pub fn transfer_fails(&self, device: usize, msg: u64, attempt: u32) -> bool {
        if self.transfer_fail_rate <= 0.0 {
            return false;
        }
        let h = self.hash(0x7866_6572 ^ ((attempt as u64) << 40), device, msg);
        Self::u01(h) < self.transfer_fail_rate
    }

    /// Has `device` died by the time it has completed `ops_done` kernel ops?
    pub fn loses_device(&self, device: usize, ops_done: u64) -> bool {
        matches!(self.device_loss, Some(l) if l.device == device && ops_done > l.after_op)
    }

    /// Does allocation number `alloc_index` on `device` fail by injection?
    pub fn fails_alloc(&self, device: usize, alloc_index: u64) -> bool {
        matches!(self.alloc_fault, Some(a) if a.device == device && a.at_alloc == alloc_index)
    }

    /// Compute-duration multiplier for kernel op `op` on `device`
    /// (1.0 = full speed). Pure in `(seed, device, op)`.
    pub fn compute_multiplier(&self, device: usize, op: u64) -> f64 {
        match self.slowdown {
            Some(s) if s.device == device && op > s.after_op => s.factor,
            _ => 1.0,
        }
    }

    /// Transfer-duration multiplier for a message on `device`'s link
    /// (1.0 = healthy link).
    pub fn link_multiplier(&self, device: usize) -> f64 {
        match self.link_degrade {
            Some(l) if l.device == device => l.factor,
            _ => 1.0,
        }
    }

    /// Extra queue-freeze seconds kernel op `op` on `device` suffers
    /// (0.0 = no stall). Pure in `(seed, device, op)`.
    pub fn stall_time(&self, device: usize, op: u64) -> f64 {
        let Some(st) = self.stalls else {
            return 0.0;
        };
        if st.device != device || st.rate <= 0.0 || st.stall_s <= 0.0 {
            return 0.0;
        }
        let h = self.hash(0x5354_414c, device, op);
        if Self::u01(h) < st.rate {
            st.stall_s
        } else {
            0.0
        }
    }

    /// Does basis block number `block` (a per-solve monotone counter) on
    /// `device` get an ill-conditioning perturbation, and how strong?
    /// Returns the alignment weight in (0, 1]. Pure in
    /// `(seed, device, block)`; `None`/zero rate/zero magnitude is inert.
    pub fn basis_perturb_event(&self, device: usize, block: u64) -> Option<f64> {
        let bp = self.basis_perturb?;
        if bp.rate <= 0.0 || bp.magnitude <= 0.0 {
            return None;
        }
        let h = self.hash(0x4241_5349, device, block);
        if Self::u01(h) < bp.rate {
            Some(bp.magnitude)
        } else {
            None
        }
    }

    /// Does host-side Gram factorization number `index` (a per-solve
    /// monotone counter) get nudged toward singularity, and how far?
    /// Returns the blend weight in (0, 1]. Device-independent (the Gram
    /// factorization is a host step); `None`/zero rate/zero scale is inert.
    pub fn gram_nudge_event(&self, index: u64) -> Option<f64> {
        let gn = self.gram_nudge?;
        if gn.rate <= 0.0 || gn.scale <= 0.0 {
            return None;
        }
        let h = self.hash(0x4752_414d, 0, index);
        if Self::u01(h) < gn.rate {
            Some(gn.scale)
        } else {
            None
        }
    }

    /// Forced step size, if this plan overrides the solver's `s`.
    pub fn forced_s(&self) -> Option<usize> {
        self.s_override
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let p = FaultPlan::new(42).with_sdc(0.5, SdcTargets::all()).with_transfer_faults(0.5);
        for op in 0..64 {
            let a = p.sdc_event(1, op, SdcKind::Spmv).map(|e| (e.lane, e.bit));
            let b = p.sdc_event(1, op, SdcKind::Spmv).map(|e| (e.lane, e.bit));
            assert_eq!(a, b);
            assert_eq!(p.transfer_fails(0, op, 0), p.transfer_fails(0, op, 0));
        }
    }

    #[test]
    fn rate_extremes() {
        let off = FaultPlan::new(7);
        let on = FaultPlan::new(7).with_sdc(1.0, SdcTargets::all()).with_transfer_faults(1.0);
        for op in 0..32 {
            assert!(off.sdc_event(0, op, SdcKind::Gemm).is_none());
            assert!(!off.transfer_fails(0, op, 0));
            assert!(on.sdc_event(0, op, SdcKind::Gemm).is_some());
            assert!(on.transfer_fails(0, op, 0));
        }
    }

    #[test]
    fn seeds_decorrelate() {
        let a = FaultPlan::new(1).with_sdc(0.5, SdcTargets::all());
        let b = FaultPlan::new(2).with_sdc(0.5, SdcTargets::all());
        let hits_a: Vec<bool> =
            (0..256).map(|op| a.sdc_event(0, op, SdcKind::Spmv).is_some()).collect();
        let hits_b: Vec<bool> =
            (0..256).map(|op| b.sdc_event(0, op, SdcKind::Spmv).is_some()).collect();
        assert_ne!(hits_a, hits_b);
        let frac = hits_a.iter().filter(|&&h| h).count() as f64 / 256.0;
        assert!((0.3..0.7).contains(&frac), "rate 0.5 drew {frac}");
    }

    #[test]
    fn sdc_flips_exactly_one_bit() {
        let p = FaultPlan::new(3).with_sdc(1.0, SdcTargets::all());
        let e = p.sdc_event(0, 0, SdcKind::Spmv).unwrap();
        let mut data = vec![1.0, 2.0, 3.0, 4.0];
        let before = data.clone();
        e.apply(&mut data);
        let changed: Vec<usize> =
            (0..4).filter(|&i| data[i].to_bits() != before[i].to_bits()).collect();
        assert_eq!(changed.len(), 1);
        let i = changed[0];
        assert_eq!((data[i].to_bits() ^ before[i].to_bits()).count_ones(), 1);
        // sign bit never flips
        assert_eq!(data[i].is_sign_negative(), before[i].is_sign_negative());
    }

    #[test]
    fn device_loss_threshold() {
        let p = FaultPlan::new(0).with_device_loss(2, 10);
        assert!(!p.loses_device(2, 10));
        assert!(p.loses_device(2, 11));
        assert!(!p.loses_device(1, 1000));
    }

    #[test]
    fn error_display_mentions_out_of_memory() {
        let e = GpuSimError::OutOfMemory { device: 0, requested: 100, free: 10 };
        assert!(e.to_string().contains("out of memory"));
    }

    #[test]
    fn slowdown_applies_after_threshold_on_target_only() {
        let p = FaultPlan::new(1).with_slowdown(1, 4.0, 10);
        assert_eq!(p.compute_multiplier(1, 10), 1.0);
        assert_eq!(p.compute_multiplier(1, 11), 4.0);
        assert_eq!(p.compute_multiplier(0, 1000), 1.0);
        assert_eq!(p.compute_multiplier(2, 1000), 1.0);
    }

    #[test]
    fn link_degrade_targets_one_link() {
        let p = FaultPlan::new(1).with_link_degrade(2, 3.0);
        assert_eq!(p.link_multiplier(2), 3.0);
        assert_eq!(p.link_multiplier(0), 1.0);
    }

    #[test]
    fn stalls_are_deterministic_and_rate_faithful() {
        let p = FaultPlan::new(9).with_stalls(0, 0.5, 1e-3);
        let a: Vec<f64> = (0..256).map(|op| p.stall_time(0, op)).collect();
        let b: Vec<f64> = (0..256).map(|op| p.stall_time(0, op)).collect();
        assert_eq!(a, b);
        let frac = a.iter().filter(|&&s| s > 0.0).count() as f64 / 256.0;
        assert!((0.3..0.7).contains(&frac), "rate 0.5 drew {frac}");
        // other devices never stall
        assert!((0..256).all(|op| p.stall_time(1, op) == 0.0));
        // zero rate and unit factors are inert
        let inert = FaultPlan::new(9).with_stalls(0, 0.0, 1.0);
        assert!((0..64).all(|op| inert.stall_time(0, op) == 0.0));
        assert_eq!(FaultPlan::new(9).with_slowdown(0, 1.0, 0).compute_multiplier(0, 5), 1.0);
    }

    #[test]
    fn numerical_faults_are_deterministic_and_rate_faithful() {
        let p = FaultPlan::new(11).with_basis_perturb(0.5, 0.9).with_gram_nudge(0.5, 0.99);
        let a: Vec<Option<f64>> = (0..256).map(|b| p.basis_perturb_event(0, b)).collect();
        let b: Vec<Option<f64>> = (0..256).map(|b| p.basis_perturb_event(0, b)).collect();
        assert_eq!(a, b);
        let frac = a.iter().filter(|e| e.is_some()).count() as f64 / 256.0;
        assert!((0.3..0.7).contains(&frac), "rate 0.5 drew {frac}");
        assert!(a.iter().flatten().all(|&m| m == 0.9));
        let g: Vec<Option<f64>> = (0..256).map(|i| p.gram_nudge_event(i)).collect();
        assert_eq!(g, (0..256).map(|i| p.gram_nudge_event(i)).collect::<Vec<_>>());
        let gfrac = g.iter().filter(|e| e.is_some()).count() as f64 / 256.0;
        assert!((0.3..0.7).contains(&gfrac), "rate 0.5 drew {gfrac}");
        // the two kinds draw independent streams
        let hits_b: Vec<bool> = a.iter().map(|e| e.is_some()).collect();
        let hits_g: Vec<bool> = g.iter().map(|e| e.is_some()).collect();
        assert_ne!(hits_b, hits_g);
    }

    #[test]
    fn numerical_faults_inert_when_unset_or_zero() {
        let off = FaultPlan::new(11);
        assert!((0..64).all(|b| off.basis_perturb_event(0, b).is_none()));
        assert!((0..64).all(|i| off.gram_nudge_event(i).is_none()));
        assert!(off.forced_s().is_none());
        let zero = FaultPlan::new(11).with_basis_perturb(0.0, 1.0).with_gram_nudge(1.0, 0.0);
        assert!((0..64).all(|b| zero.basis_perturb_event(0, b).is_none()));
        assert!((0..64).all(|i| zero.gram_nudge_event(i).is_none()));
        let on = FaultPlan::new(11).with_basis_perturb(1.0, 0.5).with_s_override(16);
        assert!((0..64).all(|b| on.basis_perturb_event(0, b) == Some(0.5)));
        assert_eq!(on.forced_s(), Some(16));
    }

    #[test]
    fn perf_faults_cleared_per_device() {
        let p = FaultPlan::new(3)
            .with_slowdown(1, 2.0, 0)
            .with_link_degrade(1, 2.0)
            .with_stalls(2, 1.0, 1.0);
        let q = p.clone().without_perf_faults_on(1);
        assert_eq!(q.compute_multiplier(1, 5), 1.0);
        assert_eq!(q.link_multiplier(1), 1.0);
        assert!(q.stall_time(2, 0) > 0.0, "faults on other devices survive");
        let r = p.without_perf_faults_on(2);
        assert_eq!(r.compute_multiplier(1, 5), 2.0);
        assert_eq!(r.stall_time(2, 0), 0.0);
    }
}
