//! Solver instrumentation matching the columns of the paper's Fig. 14:
//! restart counts, per-phase simulated times, and communication traffic.

use ca_gpusim::GpuSimError;

/// Why a solve stopped before reaching its tolerance — either a numerical
/// breakdown in the orthogonalization or a (simulated) hardware fault that
/// surfaced through [`GpuSimError`].
#[derive(Debug, Clone, PartialEq)]
pub enum BreakdownKind {
    /// Orthogonalization failure (CholQR pivot, zero norm, singular R,
    /// ABFT checksum mismatch) at the block starting at `column`.
    Orthogonalization {
        /// First basis column of the failing block.
        column: usize,
        /// Human-readable reason from the orthogonalization layer.
        reason: String,
    },
    /// A PCIe transfer exhausted its retry budget.
    TransferFailed {
        /// Device on the failing link.
        device: usize,
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// A device stopped responding (persistent loss).
    DeviceLost {
        /// The lost device.
        device: usize,
    },
    /// A device allocation failed.
    OutOfMemory {
        /// The device that refused the allocation.
        device: usize,
    },
    /// The explicit residual norm turned NaN or infinite after a restart
    /// cycle: the iterate is not a solution, whatever the target says.
    NonFinite {
        /// Restart cycles completed, the one that produced it included.
        restarts: usize,
    },
    /// The solve was asked for something it cannot run (e.g. `s = 0`, a
    /// restart length the system has no room for, or a non-finite
    /// right-hand side); no restart cycle ran.
    InvalidInput {
        /// What is wrong with the input.
        reason: String,
    },
}

impl std::fmt::Display for BreakdownKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BreakdownKind::Orthogonalization { column, reason } => {
                write!(f, "block at col {column}: {reason}")
            }
            BreakdownKind::TransferFailed { device, attempts } => {
                write!(f, "transfer to/from device {device} failed after {attempts} attempts")
            }
            BreakdownKind::DeviceLost { device } => write!(f, "device {device} lost"),
            BreakdownKind::OutOfMemory { device } => write!(f, "device {device} out of memory"),
            BreakdownKind::NonFinite { restarts } => {
                write!(f, "the residual norm turned non-finite after {restarts} restarts")
            }
            BreakdownKind::InvalidInput { reason } => write!(f, "invalid input: {reason}"),
        }
    }
}

impl From<GpuSimError> for BreakdownKind {
    fn from(e: GpuSimError) -> Self {
        match e {
            GpuSimError::OutOfMemory { device, .. } => BreakdownKind::OutOfMemory { device },
            GpuSimError::TransferFailed { device, attempts } => {
                BreakdownKind::TransferFailed { device, attempts }
            }
            GpuSimError::DeviceLost { device } => BreakdownKind::DeviceLost { device },
        }
    }
}

/// Timing/convergence record for one solve.
#[derive(Debug, Clone, Default)]
pub struct SolveStats {
    /// Whether the residual reduction target was met.
    pub converged: bool,
    /// Restart cycles executed ("Rest." in Fig. 14).
    pub restarts: usize,
    /// Total Krylov dimensions built (≈ SpMV count).
    pub total_iters: usize,
    /// Simulated end-to-end solve time, seconds.
    pub t_total: f64,
    /// Simulated time in SpMV or MPK ("SpMV/Res" numerator).
    pub t_spmv: f64,
    /// Simulated time in all orthogonalization (BOrth + TSQR + Orth;
    /// "Ortho. Total" numerator).
    pub t_orth: f64,
    /// Simulated time in TSQR only ("TSQR" column).
    pub t_tsqr: f64,
    /// Simulated host time in the small dense math (least squares,
    /// Hessenberg reconstruction, shift computation).
    pub t_small: f64,
    /// Simulated seconds the watchdog took back from the end-to-end clock
    /// by rewinding a hung device's projected (never completed) stall
    /// tail to its detection instant. Phase timers that sampled the clock
    /// before the rewind may have charged up to this much wall time that
    /// `t_total` no longer covers; [`SolveStats::phases_consistent`]
    /// grants exactly this slack. Zero on solves without a watchdog.
    pub t_reclaimed: f64,
    /// Final residual norm relative to the initial one.
    pub final_relres: f64,
    /// Halo exchanges issued asynchronously ahead of their MPK block by
    /// the overlap path (0 unless the schedule is event-driven and a CAQR
    /// block is followed by another MPK block).
    pub prefetches: u64,
    /// Total PCIe messages (both directions).
    pub comm_msgs: u64,
    /// Total PCIe bytes (both directions).
    pub comm_bytes: u64,
    /// Breakdown reason when the solve aborted (e.g. CholQR failure,
    /// exhausted transfer retries, device loss).
    pub breakdown: Option<BreakdownKind>,
    /// Observed busy seconds per device (kernel time including any
    /// injected fail-slow perturbation), indexed by device of the final
    /// executor. Load imbalance is measurable here without a trace viewer.
    pub device_busy_s: Vec<f64>,
    /// Max/min of `device_busy_s` over the devices that did any work
    /// (1.0 = perfectly balanced; 0.0 when unrecorded).
    pub device_imbalance: f64,
}

impl SolveStats {
    /// The record of a solve refused before it ran: no residual, so a NaN
    /// relative residual that no convergence test reads as met.
    pub(crate) fn invalid(reason: String) -> Self {
        let breakdown = Some(BreakdownKind::InvalidInput { reason });
        Self { breakdown, final_relres: f64::NAN, ..Self::default() }
    }

    /// What the solve accumulated since the snapshot `earlier` of the same
    /// solve: restarts, iterations, end-to-end and phase times, prefetches;
    /// every other field is `self`'s.
    #[must_use]
    pub fn since(&self, earlier: &SolveStats) -> SolveStats {
        SolveStats {
            restarts: self.restarts - earlier.restarts,
            total_iters: self.total_iters - earlier.total_iters,
            t_total: self.t_total - earlier.t_total,
            t_spmv: self.t_spmv - earlier.t_spmv,
            t_orth: self.t_orth - earlier.t_orth,
            t_tsqr: self.t_tsqr - earlier.t_tsqr,
            t_small: self.t_small - earlier.t_small,
            prefetches: self.prefetches - earlier.prefetches,
            ..self.clone()
        }
    }

    /// Record per-device observed busy times and derive the imbalance
    /// ratio (max/min over devices with nonzero busy time).
    pub fn record_device_times(&mut self, busy: Vec<f64>) {
        let worked: Vec<f64> = busy.iter().copied().filter(|&b| b > 0.0).collect();
        self.device_imbalance = if worked.is_empty() {
            0.0
        } else {
            let max = worked.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let min = worked.iter().cloned().fold(f64::INFINITY, f64::min);
            max / min
        };
        self.device_busy_s = busy;
    }

    /// Average orthogonalization time per restart cycle, ms
    /// (Fig. 14 "Ortho/Res").
    pub fn orth_per_restart_ms(&self) -> f64 {
        1e3 * self.t_orth / (self.restarts.max(1) as f64)
    }

    /// Average TSQR time per restart cycle, ms.
    pub fn tsqr_per_restart_ms(&self) -> f64 {
        1e3 * self.t_tsqr / (self.restarts.max(1) as f64)
    }

    /// Average SpMV/MPK time per restart cycle, ms (Fig. 14 "SpMV/Res").
    pub fn spmv_per_restart_ms(&self) -> f64 {
        1e3 * self.t_spmv / (self.restarts.max(1) as f64)
    }

    /// Average total time per restart cycle, ms (Fig. 14 "Total/Res").
    pub fn total_per_restart_ms(&self) -> f64 {
        1e3 * self.t_total / (self.restarts.max(1) as f64)
    }

    /// Consistency of the phase attribution: every phase time is
    /// non-negative, TSQR time is contained in orthogonalization time, and
    /// the disjoint phases (`t_spmv + t_orth + t_small`; `t_tsqr` is a
    /// subset of `t_orth`) sum to at most `t_total` up to float-
    /// accumulation slack. Each phase attributes the delta between its two
    /// boundaries, so a missing boundary double-counts an interval into two
    /// phases — the bug class this catches.
    ///
    /// A watchdog rewind is the one legitimate exception: a phase that
    /// contained a hung device's stall charged the projected queue tail
    /// the watchdog later took back from the end-to-end clock, so the
    /// budget is widened by exactly [`SolveStats::t_reclaimed`].
    pub fn phases_consistent(&self) -> bool {
        let slack = 1e-9 * self.t_total.abs().max(1.0);
        self.t_spmv >= 0.0
            && self.t_orth >= 0.0
            && self.t_tsqr >= 0.0
            && self.t_small >= 0.0
            && self.t_reclaimed >= 0.0
            && self.t_tsqr <= self.t_orth + slack
            && self.t_spmv + self.t_orth + self.t_small <= self.t_total + self.t_reclaimed + slack
    }

    /// Debug-mode assertion of [`SolveStats::phases_consistent`]; compiled
    /// out in release builds. Drivers call this once per finished solve.
    pub fn debug_check_phases(&self) {
        debug_assert!(
            self.phases_consistent(),
            "phase times inconsistent: spmv={} orth={} (tsqr={}) small={} total={} reclaimed={}",
            self.t_spmv,
            self.t_orth,
            self.t_tsqr,
            self.t_small,
            self.t_total,
            self.t_reclaimed
        );
    }
}

/// Figure 15-style phase breakdown derived **purely from spans** recorded
/// by `ca-obs` during an instrumented solve — no phase timer involved.
///
/// The drivers bracket every phase with host-track spans named `spmv`,
/// `borth`, `tsqr`, `orth` (standard GMRES), and `small`; this summer maps
/// them back onto the `SolveStats` buckets (`t_orth` accumulates BOrth,
/// TSQR, and standard-GMRES orthogonalization; `t_tsqr` only the TSQR
/// spans), so the two attributions can be cross-validated: they must agree
/// to float-accumulation precision (≤ 1e-9 s) or one of the two
/// instrumentation paths is lying.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanBreakdown {
    /// Σ host `spmv` span durations (SpMV/MPK phase).
    pub spmv: f64,
    /// Σ host `borth` + `tsqr` + `orth` span durations.
    pub orth: f64,
    /// Σ host `tsqr` span durations only.
    pub tsqr: f64,
    /// Σ host `small` span durations (host dense math).
    pub small: f64,
    /// Number of `cycle` spans (restart cycles observed).
    pub cycles: usize,
}

impl SpanBreakdown {
    /// Sum the host-track phase spans of a recording.
    pub fn from_recording(rec: &ca_obs::Recording) -> Self {
        let mut out = Self::default();
        for s in rec.spans.iter().filter(|s| s.track == ca_obs::Track::Host) {
            let dur = (s.t1 - s.t0).max(0.0);
            match s.name.as_str() {
                "spmv" => out.spmv += dur,
                "borth" | "orth" => out.orth += dur,
                "tsqr" => {
                    out.orth += dur;
                    out.tsqr += dur;
                }
                "small" => out.small += dur,
                "cycle" => out.cycles += 1,
                _ => {}
            }
        }
        out
    }

    /// Largest absolute disagreement (seconds) against a
    /// phase-timer-accumulated [`SolveStats`].
    pub fn max_abs_diff(&self, stats: &SolveStats) -> f64 {
        (self.spmv - stats.t_spmv)
            .abs()
            .max((self.orth - stats.t_orth).abs())
            .max((self.tsqr - stats.t_tsqr).abs())
            .max((self.small - stats.t_small).abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_restart_averages() {
        let s = SolveStats {
            restarts: 4,
            t_orth: 0.4,
            t_tsqr: 0.2,
            t_spmv: 0.08,
            t_total: 1.0,
            ..Default::default()
        };
        assert!((s.orth_per_restart_ms() - 100.0).abs() < 1e-12);
        assert!((s.tsqr_per_restart_ms() - 50.0).abs() < 1e-12);
        assert!((s.spmv_per_restart_ms() - 20.0).abs() < 1e-12);
        assert!((s.total_per_restart_ms() - 250.0).abs() < 1e-12);
    }

    #[test]
    fn zero_restarts_does_not_divide_by_zero() {
        let s = SolveStats { t_total: 1.0, ..Default::default() };
        assert!(s.total_per_restart_ms().is_finite());
    }

    #[test]
    fn device_times_and_imbalance() {
        let mut s = SolveStats::default();
        s.record_device_times(vec![2.0, 1.0, 4.0]);
        assert_eq!(s.device_busy_s, vec![2.0, 1.0, 4.0]);
        assert!((s.device_imbalance - 4.0).abs() < 1e-15);
        // idle devices (e.g. freshly degraded) don't zero the ratio
        s.record_device_times(vec![3.0, 0.0, 3.0]);
        assert!((s.device_imbalance - 1.0).abs() < 1e-15);
        // nothing recorded
        s.record_device_times(vec![0.0, 0.0]);
        assert_eq!(s.device_imbalance, 0.0);
    }

    #[test]
    fn phases_consistent_accepts_valid_attribution() {
        let s = SolveStats {
            t_total: 1.0,
            t_spmv: 0.3,
            t_orth: 0.5,
            t_tsqr: 0.2,
            t_small: 0.2,
            ..Default::default()
        };
        assert!(s.phases_consistent());
        s.debug_check_phases();
    }

    #[test]
    fn phases_consistent_rejects_double_counting() {
        // the phase-timer bug class: a missing boundary attributes one interval
        // to two phases, pushing the sum past the end-to-end time
        let s = SolveStats {
            t_total: 1.0,
            t_spmv: 0.7,
            t_orth: 0.5,
            t_small: 0.2,
            ..Default::default()
        };
        assert!(!s.phases_consistent());
        // TSQR exceeding its containing orthogonalization bucket
        let s = SolveStats { t_total: 1.0, t_orth: 0.1, t_tsqr: 0.4, ..Default::default() };
        assert!(!s.phases_consistent());
        // negative phase time
        let s = SolveStats { t_total: 1.0, t_spmv: -0.1, ..Default::default() };
        assert!(!s.phases_consistent());
    }

    #[test]
    fn phases_consistent_grants_watchdog_reclaimed_slack() {
        // a phase that straddled a hung device charged the projected queue
        // tail; the watchdog later rewound the clock, so the attributed sum
        // exceeds the final end-to-end time by exactly the reclaimed tail
        let s = SolveStats { t_total: 0.5, t_spmv: 0.8, t_reclaimed: 0.4, ..Default::default() };
        assert!(s.phases_consistent());
        // but the slack is a budget, not a blank check
        let s = SolveStats { t_total: 0.5, t_spmv: 1.0, t_reclaimed: 0.4, ..Default::default() };
        assert!(!s.phases_consistent());
        // and it must itself be non-negative
        let s = SolveStats { t_total: 1.0, t_reclaimed: -0.1, ..Default::default() };
        assert!(!s.phases_consistent());
    }

    #[test]
    fn span_breakdown_sums_host_phase_spans() {
        ca_obs::start();
        let c = ca_obs::span_begin("cycle", ca_obs::Track::Host, 0.0);
        ca_obs::span("spmv", ca_obs::Track::Host, 0.0, 0.3);
        ca_obs::span("borth", ca_obs::Track::Host, 0.3, 0.5);
        ca_obs::span("tsqr", ca_obs::Track::Host, 0.5, 0.8);
        ca_obs::span("small", ca_obs::Track::Host, 0.8, 0.9);
        // device spans and unknown names are ignored
        ca_obs::span("spmv", ca_obs::Track::Device(0), 0.0, 0.25);
        ca_obs::span("mpk.exchange", ca_obs::Track::Host, 0.0, 0.1);
        ca_obs::span_end(c, 1.0);
        let rec = ca_obs::finish();
        let b = SpanBreakdown::from_recording(&rec);
        assert!((b.spmv - 0.3).abs() < 1e-15);
        assert!((b.orth - 0.5).abs() < 1e-15);
        assert!((b.tsqr - 0.3).abs() < 1e-15);
        assert!((b.small - 0.1).abs() < 1e-15);
        assert_eq!(b.cycles, 1);
        let stats = SolveStats {
            t_total: 1.0,
            t_spmv: 0.3,
            t_orth: 0.5,
            t_tsqr: 0.3,
            t_small: 0.1,
            ..Default::default()
        };
        assert!(b.max_abs_diff(&stats) < 1e-15);
    }
}
