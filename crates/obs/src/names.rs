//! Canonical metric-key registry.
//!
//! Every metric recorded anywhere in the stack (`ca-core`, `ca-gpusim`,
//! `ca-serve`) has its key declared here, either as a constant or as a
//! parameterized family with a builder. Emission sites reference these
//! instead of free-form string literals — a typo'd key would otherwise
//! silently open a brand-new series and every downstream consumer
//! (calibration, SLO reports, the pinned metrics hashes of the committed
//! study artifacts) would read zeros.
//! [`is_registered`] is the enforcement hook: the `ca-core` observability
//! suite runs a profiled solve and asserts every key in the snapshot
//! resolves against this registry.

// ---- solver outcome gauges (ca-core) ----

/// Total simulated solve time, seconds (gauge).
pub const SOLVE_T_TOTAL_S: &str = "solve.t_total_s";
/// Final relative residual (gauge).
pub const SOLVE_FINAL_RELRES: &str = "solve.final_relres";
/// Restart cycles executed (gauge).
pub const SOLVE_RESTARTS: &str = "solve.restarts";
/// Total inner iterations (gauge).
pub const SOLVE_TOTAL_ITERS: &str = "solve.total_iters";
/// Max/mean device busy-time ratio (gauge).
pub const SOLVE_DEVICE_IMBALANCE: &str = "solve.device_imbalance";

// ---- numerical health (ca-core) ----

/// Estimated basis condition number (histogram).
pub const HEALTH_COND_EST: &str = "health.cond_est";
/// Condition-estimate probes run (counter).
pub const HEALTH_COND_CHECKS: &str = "health.cond_checks";
/// Basis column-norm growth factor (histogram).
pub const HEALTH_BASIS_GROWTH: &str = "health.basis_growth";
/// Growth probes run (counter).
pub const HEALTH_GROWTH_CHECKS: &str = "health.growth_checks";
/// Escalation-ladder activations, all rungs (counter).
pub const HEALTH_ESCALATIONS: &str = "health.escalations";
/// Per-rung escalation counter family: `health.escalations.<rung>`.
pub fn health_escalations_rung(rung: &str) -> String {
    format!("{HEALTH_ESCALATIONS}.{rung}")
}
/// Rung labels used by [`health_escalations_rung`].
pub const ESCALATION_RUNGS: &[&str] = &["reorth", "throttle", "basis-switch", "promote"];

// ---- orthogonalization quality (ca-core) ----

/// Orthogonality error of the final basis (histogram).
pub const ORTH_ERROR: &str = "orth.error";
/// ABFT checksum verifications in BOrth (counter).
pub const ABFT_BORTH_CHECKS: &str = "abft.borth_checks";
/// ABFT checksum verifications on Gram matrices (counter).
pub const ABFT_GRAM_CHECKS: &str = "abft.gram_checks";

// ---- matrix powers kernel (ca-core) ----

/// Halo prefetches issued by the MPK pipeline (counter).
pub const MPK_PREFETCHES: &str = "mpk.prefetches";

// ---- fault tolerance (ca-core) ----

/// Fault detection latency, seconds (histogram).
pub const FT_DETECTION_LATENCY_S: &str = "ft.detection_latency_s";
/// In-cycle escalations taken at poll points (counter).
pub const FT_IN_CYCLE_ESCALATIONS: &str = "ft.in_cycle_escalations";
/// Restart cycles re-executed after a fault (counter).
pub const FT_CYCLES_REDONE: &str = "ft.cycles_redone";
/// Devices declared lost (counter).
pub const FT_DEVICE_LOSSES: &str = "ft.device_losses";
/// Row-rebalance events (counter).
pub const FT_REBALANCES: &str = "ft.rebalances";
/// Rows migrated by rebalances (counter).
pub const FT_REBALANCE_ROWS_MOVED: &str = "ft.rebalance.rows_moved";
/// Autotuner re-plan events (counter).
pub const FT_RETUNES: &str = "ft.retunes";
/// Block-granular recovery resumes (counter).
pub const FT_BLOCK_RESUMES: &str = "ft.block_resumes";
/// Silent-data-corruption detections (counter).
pub const FT_SDC_DETECTED: &str = "ft.sdc_detected";
/// Basis blocks recomputed after SDC (counter).
pub const FT_BLOCKS_RECOMPUTED: &str = "ft.blocks_recomputed";
/// Final step size after retuning (gauge).
pub const FT_S_FINAL: &str = "ft.s_final";
/// Surviving device count at convergence (gauge).
pub const FT_NDEV_FINAL: &str = "ft.ndev_final";

// ---- simulator watchdog & transfers (ca-gpusim) ----

/// Watchdog-triggered escalations (counter).
pub const WATCHDOG_ESCALATIONS: &str = "watchdog.escalations";
/// Transfer retries after link faults (counter).
pub const COMM_TRANSFER_RETRIES: &str = "comm.transfer_retries";
/// Transfers abandoned after retry exhaustion (counter).
pub const COMM_TRANSFERS_ABANDONED: &str = "comm.transfers_abandoned";
/// Device-to-host messages (counter).
pub const COMM_D2H_MSGS: &str = "comm.d2h.msgs";
/// Device-to-host bytes, f64 payloads (counter).
pub const COMM_D2H_BYTES: &str = "comm.d2h.bytes";
/// Device-to-host bytes, f32 payloads (counter).
pub const COMM_D2H_BYTES_F32: &str = "comm.d2h.bytes_f32";
/// Host-to-device messages (counter).
pub const COMM_H2D_MSGS: &str = "comm.h2d.msgs";
/// Host-to-device bytes, f64 payloads (counter).
pub const COMM_H2D_BYTES: &str = "comm.h2d.bytes";
/// Host-to-device bytes, f32 payloads (counter).
pub const COMM_H2D_BYTES_F32: &str = "comm.h2d.bytes_f32";
/// Per-link byte-counter family: `comm.link<d>.<dir>_bytes[_f32]`.
/// `dir` is `"d2h"` or `"h2d"`; set `f32` for single-precision payloads.
pub fn comm_link_bytes(device: u32, dir: &str, f32: bool) -> String {
    let suffix = if f32 { "_bytes_f32" } else { "_bytes" };
    format!("comm.link{device}.{dir}{suffix}")
}

// ---- trace-derived kernel & copy series (ca-gpusim trace ingest) ----

/// Seconds spent in kernel `<name>` (histogram family `kernel.<name>.s`).
pub fn kernel_seconds(name: &str) -> String {
    format!("kernel.{name}.s")
}
/// Fault-free modeled seconds for kernel `<name>` (histogram family
/// `kernel.<name>.modeled_s`). Paired with [`kernel_seconds`], the ratio
/// is the observed slowdown `ca-tune` fits calibration factors from.
pub fn kernel_modeled_seconds(name: &str) -> String {
    format!("kernel.{name}.modeled_s")
}
/// Invocations of kernel `<name>` (counter family `kernel.<name>.calls`).
pub fn kernel_calls(name: &str) -> String {
    format!("kernel.{name}.calls")
}
/// Every kernel name charged via `Device::advance`. New kernels must be
/// added here or the registration test fails.
pub const KERNELS: &[&str] = &[
    "abft_block_dot",
    "abft_colsum",
    "abft_dot",
    "axpy",
    "copy_col",
    "dot",
    "gemm_nn",
    "gemm_q_last",
    "gemm_q_rest",
    "gemm_q_small",
    "gemm_tn",
    "gemv_n",
    "gemv_t",
    "geqr2",
    "geqr2_tree",
    "halo_pack",
    "halo_unpack",
    "mpk_step",
    "rank1_update",
    "scal",
    "scatter_col",
    "spmv",
    "syrk",
    "syrk_f32",
    "trsm",
];
/// Seconds spent in device-to-host copies (histogram).
pub const COPY_D2H_S: &str = "copy.d2h.s";
/// Seconds spent in host-to-device copies (histogram).
pub const COPY_H2D_S: &str = "copy.h2d.s";

// ---- service scheduler (ca-serve) ----

/// Queue depth sampled at ingest/dispatch (sample series and histogram).
pub const SERVE_QUEUE_DEPTH: &str = "serve.queue_depth";
/// Jobs dispatched by backfill (counter).
pub const SERVE_BACKFILL_HITS: &str = "serve.backfill_hits";
/// Residency evictions (counter).
pub const SERVE_EVICTIONS: &str = "serve.evictions";
/// Jobs that hit a resident matrix (counter).
pub const SERVE_WARM_HITS: &str = "serve.warm_hits";
/// Completed jobs per simulated second (gauge).
pub const SERVE_THROUGHPUT_JOBS_PER_S: &str = "serve.throughput_jobs_per_s";
/// Median time-to-solution, seconds (gauge).
pub const SERVE_P50_TTS_S: &str = "serve.p50_tts_s";
/// 99th-percentile time-to-solution, seconds (gauge).
pub const SERVE_P99_TTS_S: &str = "serve.p99_tts_s";
/// Peak queue depth over the run (gauge).
pub const SERVE_MAX_QUEUE_DEPTH: &str = "serve.max_queue_depth";
/// Per-tenant SLO families: `serve.tenant.<t>.<leaf>`. Leaves:
/// `tts_s` (histogram), `queue_delay_s` (histogram), `deadline_hits` /
/// `deadline_misses` / `jobs` (counters), `hit_rate` (gauge).
pub fn serve_tenant(tenant: &str, leaf: &str) -> String {
    format!("serve.tenant.{tenant}.{leaf}")
}
/// Leaf names accepted under [`serve_tenant`].
pub const TENANT_LEAVES: &[&str] =
    &["tts_s", "queue_delay_s", "deadline_hits", "deadline_misses", "jobs", "hit_rate"];
/// SLO-burn alert instants (instant name, also a counter).
pub const SERVE_SLO_BURN: &str = "serve.slo_burn";

// ---- sample-series names (time series, not registry metrics) ----

/// Relative residual per restart cycle (counter-track sample).
pub const RELRES: &str = "relres";

/// True when `key` is a registered metric name: either one of the scalar
/// constants above or a well-formed member of a registered family
/// (`kernel.<known>.{s,modeled_s,calls}`, `comm.link<d>.*`,
/// `health.escalations.<rung>`, `serve.tenant.<t>.<leaf>`).
#[must_use]
pub fn is_registered(key: &str) -> bool {
    const SCALARS: &[&str] = &[
        SOLVE_T_TOTAL_S,
        SOLVE_FINAL_RELRES,
        SOLVE_RESTARTS,
        SOLVE_TOTAL_ITERS,
        SOLVE_DEVICE_IMBALANCE,
        HEALTH_COND_EST,
        HEALTH_COND_CHECKS,
        HEALTH_BASIS_GROWTH,
        HEALTH_GROWTH_CHECKS,
        HEALTH_ESCALATIONS,
        ORTH_ERROR,
        ABFT_BORTH_CHECKS,
        ABFT_GRAM_CHECKS,
        MPK_PREFETCHES,
        FT_DETECTION_LATENCY_S,
        FT_IN_CYCLE_ESCALATIONS,
        FT_CYCLES_REDONE,
        FT_DEVICE_LOSSES,
        FT_REBALANCES,
        FT_REBALANCE_ROWS_MOVED,
        FT_RETUNES,
        FT_BLOCK_RESUMES,
        FT_SDC_DETECTED,
        FT_BLOCKS_RECOMPUTED,
        FT_S_FINAL,
        FT_NDEV_FINAL,
        WATCHDOG_ESCALATIONS,
        COMM_TRANSFER_RETRIES,
        COMM_TRANSFERS_ABANDONED,
        COMM_D2H_MSGS,
        COMM_D2H_BYTES,
        COMM_D2H_BYTES_F32,
        COMM_H2D_MSGS,
        COMM_H2D_BYTES,
        COMM_H2D_BYTES_F32,
        COPY_D2H_S,
        COPY_H2D_S,
        SERVE_QUEUE_DEPTH,
        SERVE_BACKFILL_HITS,
        SERVE_EVICTIONS,
        SERVE_WARM_HITS,
        SERVE_THROUGHPUT_JOBS_PER_S,
        SERVE_P50_TTS_S,
        SERVE_P99_TTS_S,
        SERVE_MAX_QUEUE_DEPTH,
        SERVE_SLO_BURN,
        RELRES,
    ];
    if SCALARS.contains(&key) {
        return true;
    }
    if let Some(rest) = key.strip_prefix("kernel.") {
        return KERNELS.iter().any(|k| {
            rest.strip_prefix(k).is_some_and(|leaf| matches!(leaf, ".s" | ".modeled_s" | ".calls"))
        });
    }
    if let Some(rest) = key.strip_prefix("comm.link") {
        if let Some(dot) = rest.find('.') {
            let (dev, leaf) = rest.split_at(dot);
            return !dev.is_empty()
                && dev.bytes().all(|b| b.is_ascii_digit())
                && matches!(
                    leaf,
                    ".d2h_bytes" | ".d2h_bytes_f32" | ".h2d_bytes" | ".h2d_bytes_f32"
                );
        }
        return false;
    }
    if let Some(rung) = key.strip_prefix("health.escalations.") {
        return ESCALATION_RUNGS.contains(&rung);
    }
    if let Some(rest) = key.strip_prefix("serve.tenant.") {
        if let Some(dot) = rest.rfind('.') {
            let (tenant, leaf) = rest.split_at(dot);
            return !tenant.is_empty() && TENANT_LEAVES.contains(&&leaf[1..]);
        }
        return false;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_constants_are_registered() {
        for key in [SOLVE_T_TOTAL_S, HEALTH_ESCALATIONS, SERVE_P99_TTS_S, COPY_H2D_S, RELRES] {
            assert!(is_registered(key), "{key}");
        }
    }

    #[test]
    fn families_resolve_only_for_known_members() {
        assert!(is_registered(&kernel_seconds("spmv")));
        assert!(is_registered(&kernel_modeled_seconds("geqr2_tree")));
        assert!(is_registered(&kernel_calls("axpy")));
        assert!(!is_registered("kernel.warp_shuffle.s"), "unknown kernel");
        assert!(!is_registered("kernel.spmv.ns"), "unknown leaf");
        assert!(is_registered(&comm_link_bytes(3, "d2h", false)));
        assert!(is_registered(&comm_link_bytes(0, "h2d", true)));
        assert!(!is_registered("comm.linkX.d2h_bytes"), "non-numeric device");
        for rung in ESCALATION_RUNGS {
            assert!(is_registered(&health_escalations_rung(rung)));
        }
        assert!(!is_registered("health.escalations.panic"));
        assert!(is_registered(&serve_tenant("acme", "tts_s")));
        assert!(is_registered(&serve_tenant("globex", "hit_rate")));
        assert!(!is_registered("serve.tenant.acme.uptime"));
        assert!(!is_registered("serve.tenant."));
    }

    #[test]
    fn typos_are_rejected() {
        for key in ["solve.ttotal_s", "ft.retune", "serve.p95_tts_s", "kernal.spmv.s", ""] {
            assert!(!is_registered(key), "{key}");
        }
    }
}
