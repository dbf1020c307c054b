//! # ca-gpusim — simulated multi-GPU substrate
//!
//! The paper runs on three NVIDIA M2090 (Fermi) GPUs attached to a 16-core
//! Sandy Bridge host over PCIe gen 2. This crate substitutes that hardware
//! with a *discrete-cost simulation* that keeps everything the paper
//! measures observable:
//!
//! * **real arithmetic** — every kernel computes actual IEEE f64 results on
//!   the host, in the same order the distributed algorithm prescribes
//!   (per-device partial sums, host reductions, batched-GEMM panel sums),
//!   so numerical phenomena (CholQR breakdown, CGS reorthogonalization,
//!   Newton-basis conditioning) are genuine;
//! * **modeled time** — each kernel and transfer advances simulated clocks
//!   using the calibrated [`model::PerfModel`] (M2090 flops/bandwidth,
//!   PCIe latency/bandwidth, per-kernel-variant efficiency caps fitted to
//!   the paper's Fig. 11 shapes);
//! * **concurrency on the simulated clock** — the device clocks of a
//!   device phase ([`MultiGpu::run_map`]) advance independently, so
//!   communication-free MPK flops overlap in simulated time and transfers
//!   create the only synchronization points. On the host, a phase runs
//!   whole devices on the machine's persistent thread team when the machine
//!   is above a size grain (every device holds a panel of ≥ 4096 rows, the
//!   machine is not cost-only, the host has more than one core); one thread
//!   issues all of a device's commands, and a thread with no device left
//!   helps with row windows and output blocks of the others' kernels, each
//!   computed whole, so the split changes no bit, clock or trace;
//! * **streams and events** — each device clock is the tail of an in-order
//!   command queue (a CUDA stream); copies occupy per-link copy engines
//!   and record [`stream::Event`]s other queues can wait on, and the
//!   scheduler resolves every command's start time as
//!   `max(queue_predecessor_finish, waited_events)`. Under
//!   [`stream::Schedule::EventDriven`] global barriers vanish and
//!   end-to-end time emerges from the dependency graph alone (see
//!   [`stream`]).
//!
//! See `DESIGN.md` (repo root) for the substitution argument.
//!
//! ```
//! use ca_gpusim::MultiGpu;
//!
//! let mut mg = MultiGpu::with_defaults(3);
//! // allocate a tall block on each device and reduce per-device dots
//! let ids: Vec<_> = (0..3)
//!     .map(|d| {
//!         let dev = mg.device_mut(d);
//!         let v = dev.alloc_mat(1000, 2).unwrap();
//!         dev.mat_mut(v).set_col(0, &vec![1.0; 1000]);
//!         dev.mat_mut(v).set_col(1, &vec![2.0; 1000]);
//!         v
//!     })
//!     .collect();
//! let parts = mg.run_map(|d, dev| dev.dot_cols(ids[d], 0, 1));
//! mg.to_host(&[8, 8, 8]).unwrap(); // charge the PCIe reduction
//! assert_eq!(parts.iter().sum::<f64>(), 6000.0);
//! assert!(mg.time() > 0.0); // simulated, deterministic
//! ```
//!
//! ## The cost-only machine
//!
//! The two halves above — functional emulation and timing simulation —
//! separate. [`MultiGpu::cost_only`] builds the same machine with the
//! first half taken out: a buffer carries its shape and no storage
//! (`Mat::shape_only`, [`device::SpStorage::Shape`]), and every kernel is
//! charged its modeled time through the same queue — op count, fault-plan
//! draws, clock, trace entry — without touching data, answering with the
//! *neutral value* of its contract (identity Gram and `R` factors, unit
//! norms, zero projections) so that host-side factorizations downstream
//! still run. Memory accounting, links, events, counters and `Cmd` traces
//! are those of an arithmetic machine running the same program; a program
//! timed here is predicted there, which is how `ca-tune` scores candidate
//! configurations (it runs the solver's own restart cycle). Whether a
//! launch computes is decided in one place, `Device::try_launch`, next to
//! the rule that a lost device accepts no commands; which machine you get
//! is decided by the constructor alone.
//!
//! ## Fault injection
//!
//! [`faults::FaultPlan`] deterministically injects silent data corruption,
//! transient transfer failures, device loss, allocation failure, and
//! fail-*slow* performance faults (sustained compute slowdown, degraded
//! links, intermittent queue stalls), all derived from `(seed, device,
//! op index)` — never wall-clock randomness — so every faulty run replays
//! bit-identically. A plan with all rates zero is indistinguishable from
//! no plan at all. [`MultiGpu::health_report`](multi::MultiGpu) and the
//! [`MultiGpu::watchdog`](multi::MultiGpu) convert the observed-vs-modeled
//! latency drift back into driver-visible health state, and
//! [`trace::obs_ingest_traces`] hands recorded command queues to `ca-obs`,
//! whose exporter renders them as a Perfetto/`chrome://tracing` timeline.

// Numeric kernels index several parallel slices at once; iterator
// rewrites would obscure the stride arithmetic the cost model mirrors.
#![allow(clippy::needless_range_loop)]

pub mod device;
pub mod faults;
#[cfg(test)]
mod kernel_bits;
pub mod model;
pub mod multi;
pub mod retry;
#[cfg(test)]
mod sparse_bits;
pub mod stream;
mod team;
pub mod trace;

pub use device::{Device, MatId, MemMark, SpId, SpSlice, VecId};
pub use faults::{
    AllocFault, BasisPerturb, DeviceLoss, FaultPlan, GpuSimError, GramNudge, LinkDegrade, SdcKind,
    SdcTargets, Slowdown, StallPlan,
};
pub use model::{EffCurve, GemmVariant, GemvVariant, KernelConfig, PerfModel, SpmvShape};
pub use multi::{CommCounters, DeviceHealth, HealthReport, MultiGpu};
pub use retry::RetryPolicy;
pub use stream::{Cmd, CopyEngine, Event, EventTable, Schedule, StreamTrace};
pub use trace::obs_ingest_traces;
