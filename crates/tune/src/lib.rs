//! # ca-tune — calibration and cost-model-driven autotuning for CA-GMRES
//!
//! The paper's Figure 12 table is the product of hand-tuning: for every
//! matrix the authors searched over the step size `s`, the basis, the
//! orthogonalization strategy, and the device count until the
//! time-per-restart-cycle stopped improving. This crate automates that
//! search against the simulated machine, in three layers:
//!
//! * [`calibrate()`] — replay a fixed set of micro-kernel shapes (the
//!   Figure 11 GEMM sweep plus, optionally, the target matrix's actual
//!   MPK/BOrth/TSQR shapes) through the simulator and fit per-kernel
//!   efficiency parameters and achieved-rate curves. The result is a
//!   versioned, deterministically serialized [`profile::MachineProfile`];
//!   loading one onto a [`ca_gpusim::PerfModel`] (via
//!   [`profile::MachineProfile::to_model`]) replaces the built-in
//!   constants with the fitted ones.
//! * [`plan`] — a pruned search over `(s, basis, TSQR kind, device
//!   count, partitioner, precision)` that predicts the time of one restart
//!   cycle by *running it* on a cost-only machine ([`rig`]): the simulated
//!   devices hold shape-only buffers, every kernel and copy the solver's
//!   own cycle issues is charged and none is computed, and the cycle's
//!   span and the solver's phase timers are the prediction. The charge
//!   sequence of `ca_gmres::mpk` / `ca_gmres::orth` / `ca_gmres::system`
//!   is stated nowhere in this crate. One routine prices
//!   ([`plan::Planner::predict`]): it builds a layout's machine once and
//!   reads each candidate's cycle, phase parts and per-device footprint off
//!   it in turn. Stability constraints (the paper's §IV monomial-basis step
//!   cap and the CholQR condition-number guard) prune the space before it
//!   is scored, each with a typed [`plan::PruneReason`], and so does the
//!   device-memory budget after. A service admits a job with the plan's
//!   pick at one device count ([`plan::Plan::best`]: its cycle time prices
//!   the queue, its footprint the pool), and a pick can be cross-validated
//!   against one real simulated run ([`plan::Planner::cross_validate`]).
//! * [`retune`] — runtime adaptation: [`retune::Retuner`] implements
//!   [`ca_gmres::ft::RestartTuner`], so a fault-tolerant solve handed one
//!   ([`ca_gmres::ft::ca_gmres_ft_session`]) re-plans `(s, layout)` at
//!   restart boundaries from the live [`ca_gpusim::HealthReport`]. On a healthy
//!   machine it returns `None` without touching the solver state, so a
//!   tuned run replays an untuned run bit for bit.
//! * [`feedback`] — closed-loop calibration: fit a
//!   [`profile::MachineProfile`] from the metrics snapshot of an
//!   instrumented *production* run (per-kernel observed-vs-modeled time
//!   histograms, link byte counters) instead of a synthetic replay, so
//!   the planner can be re-grounded from whatever traffic the machine
//!   actually served.

pub mod calibrate;
pub mod feedback;
pub mod plan;
pub mod profile;
pub mod retune;
pub mod rig;

pub use calibrate::calibrate;
pub use feedback::{calibrate_from_metrics, observed_slowdowns, FamilySlowdown};
pub use plan::{
    Candidate, CandidateSpace, CrossCheck, Plan, Planner, PlannerLimits, PruneReason,
    RankedCandidate,
};
pub use profile::{MachineProfile, NamedCurve, ParamSource, ProfileParam};
pub use retune::Retuner;
