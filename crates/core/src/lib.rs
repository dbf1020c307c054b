//! # ca-gmres — Communication-Avoiding GMRES on (simulated) multi-GPU
//!
//! The primary contribution of Yamazaki, Anzt, Tomov, Hoemmen & Dongarra,
//! *"Improving the Performance of CA-GMRES on Multicores with Multiple
//! GPUs"* (IPDPS 2014), reproduced in Rust:
//!
//! * [`gmres`] — standard restarted GMRES(m) on the multi-GPU substrate
//!   (the baseline) and [`cpu`], the threaded-CPU reference;
//! * [`mpk`] — the matrix powers kernel: boundary-set analysis, one
//!   exchange per `s` SpMVs (Fig. 4), and the Fig. 15 choice between it
//!   and plain SpMVs, priced on a cost-only twin of the machine;
//! * [`newton`] — Newton-basis shifts, Leja ordering, conjugate-pair fused
//!   real arithmetic (§IV-A);
//! * [`orth`] — BOrth and the five TSQR algorithms (MGS, CGS, CholQR,
//!   SVQR, CAQR) with the "2x" reorthogonalization wrapper (§V);
//! * [`hess`] — Hessenberg reconstruction from the block coefficients;
//! * [`cagmres`] — CA-GMRES(s, m) (Fig. 2) with Fig. 13 error
//!   instrumentation, [`mixed`] — its f32-basis variant — and [`ft`], the
//!   fault-tolerant solve: every one of them is the same restart loop and
//!   cycle engine (`cycle.rs`), run under the guard that says what differs;
//! * [`layout`], [`system`], [`stats`] — distribution, device state, and
//!   the Fig. 14 timing columns.
//!
//! ## Quick start
//!
//! ```
//! use ca_gmres::prelude::*;
//!
//! let a = ca_sparse::gen::laplace2d(16, 16);
//! let (a, _perm, layout) = prepare(&a, Ordering::Natural, 2);
//! let mut mg = ca_gpusim::MultiGpu::with_defaults(2);
//! let cfg = CaGmresConfig { s: 5, m: 20, rtol: 1e-6, ..Default::default() };
//! let sys = System::new(&mut mg, &a, layout, cfg.m, Some(cfg.s)).unwrap();
//! let b = vec![1.0; a.nrows()];
//! sys.load_rhs(&mut mg, &b).unwrap();
//! let out = ca_gmres(&mut mg, &sys, &cfg);
//! assert!(out.stats.converged);
//! ```

// Numeric kernels index several parallel slices at once; iterator
// rewrites would obscure the stride arithmetic the cost model mirrors.
#![allow(clippy::needless_range_loop)]

pub mod cagmres;
pub mod cpu;
mod cycle;
pub mod eigs;
pub mod ft;
pub mod gmres;
pub mod health;
pub mod hess;
pub mod layout;
pub mod mixed;
pub mod mpk;
pub mod newton;
pub mod orth;
pub mod precond;
pub mod stats;
pub mod system;

/// Common imports for solver users.
pub mod prelude {
    pub use crate::cagmres::{
        ca_cycle, ca_gmres, BasisChoice, CaGmresConfig, CaGmresOutcome, KernelMode,
    };
    pub use crate::cpu::gmres_cpu;
    pub use crate::eigs::{arnoldi_eigs, ArnoldiConfig, EigsOutcome, RitzPair};
    pub use crate::ft::{
        ca_gmres_ft, ca_gmres_ft_session, FtConfig, FtOutcome, FtReport, HealthProbe, PollPoint,
        RestartTuner, RetuneDecision,
    };
    pub use crate::gmres::{gmres, GmresConfig, GmresOutcome};
    pub use crate::health::{BasisMonitor, EscalationEvent, EscalationRung, Ladder};
    pub use crate::layout::{prepare, Layout, Ordering};
    pub use crate::mixed::{ca_gmres_mixed, MixedOutcome};
    pub use crate::mpk::{MpkPlan, MpkState};
    pub use crate::newton::BasisSpec;
    pub use crate::orth::{BorthKind, OrthConfig, TsqrKind};
    pub use crate::precond::{Applied as AppliedPrecond, Precond};
    pub use crate::stats::{BreakdownKind, SolveStats};
    pub use crate::system::System;
    pub use ca_obs::PhaseRatios;
    pub use ca_scalar::Precision;
}
