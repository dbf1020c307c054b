//! # ca-serve — multi-tenant solver-as-a-service over the shared GPU pool
//!
//! The repo's solver stack answers "how fast is one CA-GMRES solve on
//! `d` GPUs?". This crate answers the question a shared installation
//! actually faces: hundreds of tenants submitting solve requests against
//! a small set of operators, all contending for the same devices. It is
//! a deterministic, simulated-time service front-end in four pieces:
//!
//! * **Admission** ([`admission`]) — every `(matrix, device-count)` job
//!   class is planned once through the `ca-tune` planner; the cached
//!   prediction prices the queue (cycle-time × expected-cycles ETA for
//!   deadline-aware ordering) and the pool (per-device memory footprint
//!   for eviction decisions). Tenants share the pool under start-time
//!   fair queueing, every tenant weighing the same.
//! * **Residency** ([`residency`]) — finished solves leave their
//!   operator (basis panel, MPK plans, ABFT checksums) resident on the
//!   slice; follow-up jobs on the same matrix skip slice staging
//!   entirely and batch right-hand sides through one aggregated upload.
//!   Cold builds evict least-recently-used operators under the
//!   simulator's byte-accurate device-memory accounting; an in-flight
//!   matrix is pinned and never evicted.
//! * **Scheduling** ([`scheduler`]) — the pool is partitioned into
//!   slices, each an independent event-driven executor with its own
//!   clocks; the dispatcher always serves the slice whose host clock is
//!   lowest, so one tenant's device tail (MPK still draining the queues)
//!   overlaps the next tenant's host-side staging — backfill the
//!   dispatcher detects and counts. Fault tolerance passes through
//!   per job: a device loss degrades the slice it happened on and the
//!   jobs resident there, nothing else.
//! * **Observability** ([`metrics`], [`slo`], plus `ca-obs`
//!   integration) — queue depth, per-slice utilization, p50/p99
//!   time-to-solution, eviction / backfill / warm-hit counters, and an
//!   order-sensitive FNV digest that CI pins in the committed
//!   `ext_service` smoke output.
//!   [`slo::SloMonitor`] keeps per-tenant books (rolling deadline-hit
//!   rate with edge-triggered `serve.slo_burn` alerts, TTS and
//!   queue-delay quantile histograms) and lands one [`slo::TenantSlo`]
//!   row per tenant in the report.
//!
//! Everything is bit-deterministic in (arrival seed, configuration):
//! scheduling state lives in `BTreeMap`s and logical counters, every
//! ordering breaks ties on job id, and no decision reads wall-clock
//! time or thread count.

pub mod admission;
pub mod job;
pub mod metrics;
pub mod residency;
pub mod scheduler;
pub mod slo;

use ca_gmres::ft::FtConfig;
use ca_gmres::prelude::*;
use ca_gpusim::{FaultPlan, PerfModel};
use ca_tune::CandidateSpace;

pub use admission::{AdmissionCache, FairQueue};
pub use job::{open_loop_arrivals, ArrivalSpec, JobRequest};
pub use metrics::{hash_solution, percentile, JobRecord, JobStatus, ServiceReport};
pub use residency::{Lru, Residency};
pub use scheduler::Service;
pub use slo::{SloConfig, SloMonitor, TenantSlo};

/// Queue discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Start-time fair queueing across tenants, with a deadline-urgency
    /// bucket and residency-affinity tie-breaking.
    Sfq,
    /// Strict arrival order — the naive baseline arm.
    Fifo,
}

/// Residency-affinity window: a warm job may be served before the
/// fair-queue head if its finish tag is within `(1 + AFFINITY_SLACK)` of it.
pub const AFFINITY_SLACK: f64 = 0.25;

/// EWMA factor of the expected-cycles forecast.
pub const EWMA_ALPHA: f64 = 0.3;

/// Cold-start expected cycles (the ETA multiplier before observations).
pub const EXPECTED_CYCLES_INIT: f64 = 4.0;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Device counts of the pool slices. Each slice is an independent
    /// executor; a job runs on exactly one slice.
    pub slices: Vec<usize>,
    /// Machine model every slice is built from (each with the default
    /// [`ca_gpusim::KernelConfig`] and [`ca_gpusim::Schedule::EventDriven`]
    /// — backfill needs device tails to outlive the host's view of a
    /// solve).
    pub model: PerfModel,
    /// Per-job template: restart length, iteration caps, and all
    /// fault-tolerance knobs come from here; `s`, basis, kernel, and
    /// TSQR choice are overridden by the admission plan, `rtol` by the
    /// job.
    pub base: FtConfig,
    /// Queue discipline.
    pub policy: Policy,
    /// Keep operators warm between same-matrix jobs.
    pub residency: bool,
    /// Max jobs per multi-RHS batch (1 disables batching).
    pub batch_max: usize,
    /// Simulated host seconds charged per planner invocation (admission
    /// cache miss). Never leaks into device clocks or solver stats.
    pub admission_cost_s: f64,
    /// Simulated host seconds charged per dispatch.
    pub dispatch_cost_s: f64,
    /// Keep full solution vectors in [`JobRecord::x`] (tests; heavy).
    pub keep_solutions: bool,
    /// Fault plans installed per slice index at pool construction
    /// (chaos / degradation studies).
    pub fault_plans: Vec<(usize, FaultPlan)>,
    /// Record per-kernel device traces on every slice and ingest them
    /// into the ambient `ca-obs` session (when one is active) at the end
    /// of the run — `kernel.*` / `copy.*` metrics over the whole stream,
    /// the feed for trace-driven calibration. Purely observational:
    /// simulated clocks and results are bit-identical either way.
    pub record_kernel_traces: bool,
}

impl ServeConfig {
    /// Full-featured service defaults on the given slice partition.
    #[must_use]
    pub fn new(slices: Vec<usize>) -> Self {
        assert!(!slices.is_empty() && slices.iter().all(|&d| d > 0));
        Self {
            slices,
            model: PerfModel::default(),
            base: FtConfig::default(),
            policy: Policy::Sfq,
            residency: true,
            batch_max: 8,
            admission_cost_s: 100e-6,
            dispatch_cost_s: 20e-6,
            keep_solutions: false,
            fault_plans: Vec::new(),
            record_kernel_traces: false,
        }
    }

    /// The baseline arm: the whole pool is one slice, jobs run strictly
    /// in arrival order, one at a time, cold every time — no residency,
    /// no batching. What `ext_service` compares the scheduler against.
    #[must_use]
    pub fn naive_fifo(pool_devices: usize) -> Self {
        Self {
            policy: Policy::Fifo,
            residency: false,
            batch_max: 1,
            ..Self::new(vec![pool_devices])
        }
    }

    /// The admission planner's grid (its `ndevs` field is ignored; each
    /// lookup restricts to the slice's device count): small, with an SpMV
    /// fallback, so a class whose MPK candidates are all pruned still
    /// admits.
    #[must_use]
    pub fn default_admission_space() -> CandidateSpace {
        CandidateSpace {
            s_values: vec![2, 5, 10],
            kernels: vec![KernelMode::Mpk, KernelMode::Spmv],
            tsqrs: vec![TsqrKind::Cgs, TsqrKind::CholQr],
            ..CandidateSpace::smoke(1)
        }
    }
}
