//! The matrix powers kernel (paper §IV).
//!
//! Given a start vector, MPK computes `s` (shifted) matrix-vector products
//! without any communication between the initial exchange and the end of
//! the block: each device receives, up front, every remote vector element
//! reachable within `s` hops of its local rows (the boundary sets
//! `delta^(d,k)`), then runs `s` purely local SpMV steps over its local
//! block plus progressively fewer boundary rows.
//!
//! [`MpkPlan`] performs the setup analysis (the reverse-BFS recursion of
//! §IV-A) on the reordered matrix; [`MpkState`] loads the slices into
//! device memory; [`mpk`] executes the Fig. 4 pseudocode; [`dist_spmv`] is
//! the s = 1 specialization used by standard GMRES (without MPK's extra
//! local copy, per footnote 4).
//!
//! A basis vector is one kernel launch, as in Fig. 4: step `k` of a block
//! is one [`Device::mpk_step`] charged over `A(i^(d,k+1), :)` — the local
//! block and the boundary levels still alive — with the basis recurrence
//! and the basis-column write in its epilogue. The clocks price the
//! redundant boundary flops; the host computes each row once when no fault
//! can tell the copies apart (see `mpk_steps`). The boundary levels are
//! loaded as their priced shapes alone, and get their entries at the first
//! block that computes them redundantly ([`MpkState::load_as`]).
//! [`spmv_block`], the generator that exchanges halos per vector instead of
//! per block, launches the same kernel on the local block alone. The
//! launch-per-slice sequence the kernel replaced survives in the tests
//! below as the oracle of both.
//!
//! [`Device::mpk_step`]: ca_gpusim::Device::mpk_step

use crate::cagmres::KernelMode;
use crate::layout::Layout;
use crate::newton::{BasisSpec, Step};
use crate::system::System;
use ca_gpusim::faults::Result;
use ca_gpusim::{device::SpStorage, MatId, MultiGpu, SpId, SpmvShape, VecId};
use ca_obs as obs;
use ca_scalar::{Precision, Scalar};
use ca_sparse::{Csr, Ell, Hyb};
use obs::Track::Host as HOST;
use std::sync::Arc;

/// Per-device MPK analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct DevicePlan {
    /// Contiguous global row range owned by this device (`i^(d,s+1)`).
    pub local: std::ops::Range<usize>,
    /// BFS levels of the reverse dependency expansion: `levels[t-1]` holds
    /// the global rows at distance `t` from the local set, i.e. the paper's
    /// boundary set `delta^(d, s+1-t)`. Sorted ascending.
    pub levels: Vec<Vec<u32>>,
    /// All remote rows this device must receive before a block
    /// (`delta^(d,1:s)` = concatenation of all levels), sorted.
    pub need: Vec<u32>,
    /// Local rows other devices need (sorted) — the "compress" set.
    pub send: Vec<u32>,
    /// nnz of the local block `A^(d)`.
    pub local_nnz: usize,
    /// nnz of each level's slice `A(levels[t-1], :)`.
    pub level_nnz: Vec<usize>,
}

impl DevicePlan {
    /// `nnz(A(delta^(d,k:s), :))` — the boundary rows still alive at MPK
    /// step `k` (`delta^(d,k:s)` = levels `1..=s+1-k`).
    pub fn boundary_nnz_from(&self, k: usize) -> usize {
        let s = self.levels.len();
        debug_assert!(k >= 1 && k <= s + 1);
        self.level_nnz.iter().take(s + 1 - k).sum()
    }

    /// The paper's surface-to-volume ratio
    /// `nnz(A(delta^(d,1:s), :)) / nnz(A^(d))` (Fig. 6).
    pub fn surface_to_volume(&self) -> f64 {
        if self.local_nnz == 0 {
            0.0
        } else {
            self.boundary_nnz_from(1) as f64 / self.local_nnz as f64
        }
    }

    /// The extra flops `W^(d,s) = 2 sum_k nnz(A(delta^(d,k:s), :))`
    /// MPK performs beyond `s` plain SpMVs (Fig. 6's shaded area).
    pub fn extra_work(&self) -> usize {
        let s = self.levels.len();
        (1..=s).map(|k| 2 * self.boundary_nnz_from(k)).sum()
    }
}

/// Full MPK analysis for one matrix, layout, and step count `s`.
#[derive(Debug, Clone, PartialEq)]
pub struct MpkPlan {
    /// Steps per block.
    pub s: usize,
    /// Per-device plans.
    pub devs: Vec<DevicePlan>,
    /// `|union_d delta^(d,1:s)|` — distinct rows gathered to the host per
    /// block (first term of the paper's communication-volume formula, §IV-B).
    pub gather_union: usize,
}

impl MpkPlan {
    /// Analyze `a` (already reordered so each device's rows are the
    /// contiguous `layout` blocks) for `s` MPK steps.
    pub fn new(a: &Csr, layout: &Layout, s: usize) -> Self {
        assert!(s >= 1);
        assert_eq!(a.nrows(), layout.n());
        let ndev = layout.ndev();
        let mut devs = Vec::with_capacity(ndev);
        // the one row-sized scratch of the analysis: the rows the device in
        // hand has reached (its own included), cleared behind it; then the
        // rows anybody asked for
        let mut mark = vec![false; a.nrows()];

        for d in 0..ndev {
            let local = layout.range(d);
            mark[local.clone()].fill(true);
            let mut levels: Vec<Vec<u32>> = Vec::with_capacity(s);
            for _t in 1..=s {
                let mut next = match levels.last() {
                    None => unreached_neighbours(a, local.clone(), &mut mark),
                    Some(lv) => unreached_neighbours(a, lv.iter().map(|&r| r as usize), &mut mark),
                };
                next.sort_unstable();
                levels.push(next);
            }
            let mut need: Vec<u32> = levels.iter().flatten().copied().collect();
            need.sort_unstable();
            mark[local.clone()].fill(false);
            need.iter().for_each(|&r| mark[r as usize] = false);
            let local_nnz = local.clone().map(|r| a.row_nnz(r)).sum();
            let level_nnz =
                levels.iter().map(|lv| lv.iter().map(|&r| a.row_nnz(r as usize)).sum()).collect();
            devs.push(DevicePlan { local, levels, need, send: Vec::new(), local_nnz, level_nnz });
        }

        let gather_union = set_sends(&mut devs, &mut mark);
        Self { s, devs, gather_union }
    }

    /// The analysis of the same matrix and layout for `s <= self.s` steps,
    /// read off this one: the levels of a shallower search are a prefix of
    /// a deeper one's. Equal to `MpkPlan::new(a, layout, s)`.
    pub fn truncated(&self, s: usize) -> Self {
        assert!(s >= 1 && s <= self.s);
        let shallow = |dp: &DevicePlan| {
            let levels = dp.levels[..s].to_vec();
            let mut need: Vec<u32> = levels.iter().flatten().copied().collect();
            need.sort_unstable();
            let (local, local_nnz) = (dp.local.clone(), dp.local_nnz);
            let level_nnz = dp.level_nnz[..s].to_vec();
            DevicePlan { local, levels, need, send: Vec::new(), local_nnz, level_nnz }
        };
        let mut devs: Vec<DevicePlan> = self.devs.iter().map(shallow).collect();
        let n = devs.last().map_or(0, |dp| dp.local.end);
        let gather_union = set_sends(&mut devs, &mut vec![false; n]);
        Self { s, devs, gather_union }
    }

    /// Per-block communication volume `(gather, scatter)` in vector
    /// elements: `(|union_d delta^(d,1:s)|, sum_d |delta^(d,1:s)|)`.
    pub fn comm_volume_per_block(&self) -> (usize, usize) {
        (self.gather_union, self.devs.iter().map(|d| d.need.len()).sum())
    }

    /// Total communication volume in elements to generate `m` vectors
    /// (`ceil(m/s)` blocks) — the quantity plotted in Fig. 7.
    pub fn comm_volume_total(&self, m: usize) -> usize {
        let blocks = m.div_ceil(self.s);
        let (g, sc) = self.comm_volume_per_block();
        blocks * (g + sc)
    }
}

/// One level of the reverse-dependency search: the columns of `rows` not
/// yet in `mark`, marked as they are found.
fn unreached_neighbours(a: &Csr, rows: impl Iterator<Item = usize>, mark: &mut [bool]) -> Vec<u32> {
    let mut next = Vec::new();
    for r in rows {
        for &c in a.row(r).0 {
            if !mark[c as usize] {
                mark[c as usize] = true;
                next.push(c);
            }
        }
    }
    next
}

/// Fill in the send sets — the local rows of each device that any other
/// device needs — using `mark` (all `false`, one entry per row) as scratch.
/// Every requested row is in exactly one of them, so together they are the
/// union of the need sets, whose size is returned.
fn set_sends(devs: &mut [DevicePlan], mark: &mut [bool]) -> usize {
    for dp in devs.iter() {
        dp.need.iter().for_each(|&r| mark[r as usize] = true);
    }
    for dp in devs.iter_mut() {
        dp.send = dp.local.clone().filter(|&r| mark[r]).map(|r| r as u32).collect();
    }
    devs.iter().map(|dp| dp.send.len()).sum()
}

/// Sparse storage format for the device slices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpmvFormat {
    /// Plain ELLPACK (the paper's format; padding priced like real data).
    Ell,
    /// Hybrid ELL + COO with the width at the given row-length quantile —
    /// robust to hub rows (CUSP-style).
    Hyb {
        /// Fraction of rows kept fully inside the ELL part.
        quantile: f64,
    },
}

/// What the SpMV model prices `A(rows, :)` on in ELLPACK, at any precision:
/// every row padded to the longest.
fn ell_shape(a: &Csr, rows: impl ExactSizeIterator<Item = usize>) -> SpmvShape {
    let n = rows.len();
    let width = rows.map(|r| a.row_nnz(r)).max().unwrap_or(0);
    SpmvShape { slots: width * n, spilled: 0, rows: n }
}

impl SpmvFormat {
    /// The slice `A(rows, :)` in this format at `prec`, built straight from
    /// the rows of `a`, its values cast to `prec`.
    fn build<T: Scalar, I>(&self, a: &Csr<T>, rows: I, prec: Precision) -> SpStorage
    where
        I: ExactSizeIterator<Item = usize> + Clone,
    {
        match (*self, prec) {
            (SpmvFormat::Ell, Precision::F64) => SpStorage::Ell(Ell::from_csr_rows(a, rows)),
            (SpmvFormat::Hyb { quantile }, Precision::F64) => {
                SpStorage::Hyb(Hyb::from_csr_rows(a, rows, quantile))
            }
            (SpmvFormat::Ell, Precision::F32) => SpStorage::EllF32(Ell::from_csr_rows(a, rows)),
            (SpmvFormat::Hyb { quantile }, Precision::F32) => {
                SpStorage::HybF32(Hyb::from_csr_rows(a, rows, quantile))
            }
        }
    }

    /// What [`SpmvFormat::build`] gives, as its priced shape alone: for
    /// ELLPACK without the conversion.
    fn priced<I>(&self, a: &Csr, rows: I, prec: Precision) -> SpStorage
    where
        I: ExactSizeIterator<Item = usize> + Clone,
    {
        let shape = match self {
            SpmvFormat::Ell => ell_shape(a, rows),
            SpmvFormat::Hyb { .. } => self.build(a, rows, prec).shape(),
        };
        SpStorage::Shape(shape, prec)
    }
}

/// Device-resident MPK data: slices loaded, work vectors allocated.
#[derive(Debug)]
pub struct MpkState {
    /// The analysis this state realizes.
    pub plan: MpkPlan,
    /// Precision the slices are stored at (and the halos travel at).
    pub prec: Precision,
    /// Storage format the slices were converted to.
    format: SpmvFormat,
    /// Per device: the local block `A^(d)`, then the level slices, nearest
    /// first — so the slices step `k` multiplies are a prefix.
    slices: Vec<Vec<SpId>>,
    /// Per device: the two full-length work vectors of the Fig. 4 double
    /// buffer.
    z: Vec<[VecId; 2]>,
    /// The entry count of each row of `A`, by global row id: what a level
    /// row's storage is built from (empty on a cost-only machine, and when
    /// the plan has no level).
    row_len: Vec<u32>,
    /// Where each halo value comes from: for device `d`, entry `i` says
    /// which device owns row `plan.devs[d].need[i]` and where that row sits
    /// in the owner's `send` list (= in its uplinked payload).
    halo_src: Vec<Vec<(u32, u32)>>,
}

impl MpkState {
    /// Load slices and work vectors for `plan` onto the devices of `mg`
    /// (ELLPACK storage in f64, the paper's default).
    ///
    /// Levels `1..s-1` get slices (level `s` rows are inputs only, never
    /// outputs, so no slice is needed for them); every device gets two
    /// full-length work vectors (the Fig. 4 double buffer).
    ///
    /// # Errors
    /// Propagates simulated allocation failures ([`ca_gpusim::GpuSimError`]).
    pub fn load(mg: &mut MultiGpu, a: &Csr, plan: MpkPlan) -> Result<Self> {
        Self::load_as(mg, a, plan, SpmvFormat::Ell, Precision::F64, None)
    }

    /// [`MpkState::load`] in an explicit storage format and slice
    /// precision. With [`Precision::F32`] the operator is cast element-wise
    /// to f32 before conversion to the device format: the MPK steps then
    /// run genuine single-precision arithmetic and the halo exchange moves
    /// 4-byte elements.
    ///
    /// `resident` is a state already loaded on `mg` from the same matrix
    /// `a`: at equal format and precision its local blocks `A^(d)` are the
    /// ones this plan needs, so they are loaded a second time — a slice id
    /// and the full device bytes each, like any load — without being
    /// converted or stored a second time on the host. A `resident` of
    /// another format or precision is ignored; one of another layout is a
    /// bug and panics.
    ///
    /// The level slices are loaded as their priced shapes, with their row
    /// ids: a fault-free machine computes each row once and multiplies by no
    /// level (see [`mpk`]). The first block that finds a fault plan
    /// installed or a device lost builds them from the owners' local blocks
    /// in this state, to the storage a build from `a` gives — the same bits
    /// on every input — and charges nothing: a shape is charged the bytes
    /// of its storage.
    ///
    /// On a cost-only machine ([`MultiGpu::cost_only`]) the state is
    /// shape-only: the analysis in `plan` is the real one, the slices are
    /// their priced shapes and no row ids are kept.
    ///
    /// # Errors
    /// Propagates simulated allocation failures ([`ca_gpusim::GpuSimError`]).
    pub fn load_as(
        mg: &mut MultiGpu,
        a: &Csr,
        plan: MpkPlan,
        format: SpmvFormat,
        prec: Precision,
        resident: Option<&MpkState>,
    ) -> Result<Self> {
        assert_eq!(mg.n_gpus(), plan.devs.len());
        let n = a.nrows();
        let s = plan.s;
        let shape_only = mg.is_cost_only();
        let ids = |rows: &mut dyn Iterator<Item = u32>| -> Vec<u32> {
            if shape_only {
                Vec::new()
            } else {
                rows.collect()
            }
        };
        let resident = resident.filter(|r| r.prec == prec && r.format == format);
        let mut slices = Vec::with_capacity(plan.devs.len());
        let mut z = Vec::with_capacity(plan.devs.len());
        for (d, dp) in plan.devs.iter().enumerate() {
            let dev = mg.device_mut(d);
            let local = match resident {
                Some(r) => {
                    assert_eq!(r.plan.devs[d].local, dp.local, "device {d}: another layout");
                    Arc::clone(&dev.slice(r.local_slice(d)).storage)
                }
                None if shape_only => Arc::new(format.priced(a, dp.local.clone(), prec)),
                None => Arc::new(format.build(a, dp.local.clone(), prec)),
            };
            // sized up front: a list that grew would leave its small freed
            // buffers between the slices' long-lived arrays
            let mut dev_slices = Vec::with_capacity(s);
            let rows = ids(&mut dp.local.clone().map(|r| r as u32));
            dev_slices.push(dev.load_slice_storage(local, rows)?);
            for lv in &dp.levels[..s - 1] {
                let slice = format.priced(a, lv.iter().map(|&r| r as usize), prec);
                dev_slices.push(dev.load_slice_storage(slice, ids(&mut lv.iter().copied()))?);
            }
            slices.push(dev_slices);
            z.push([dev.alloc_vec(n)?, dev.alloc_vec(n)?]);
        }
        // (no values travel on a cost-only machine: nothing to route)
        let halo_src = if shape_only { Vec::new() } else { halo_sources(&plan) };
        let row_len =
            if s > 1 { ids(&mut (0..n).map(|r| a.row_nnz(r) as u32)) } else { Vec::new() };
        Ok(Self { plan, prec, format, slices, z, row_len, halo_src })
    }

    /// The slice holding device `d`'s local block `A^(d)`.
    pub fn local_slice(&self, d: usize) -> SpId {
        self.slices[d][0]
    }

    /// Free every device allocation this state owns (slices and the
    /// double-buffer work vectors), returning the bytes to the simulator's
    /// per-device memory accounting. Used by the multi-tenant residency
    /// manager when a cold operator is evicted; deallocation is free in
    /// simulated time, like allocation (the paper excludes setup).
    pub fn release(self, mg: &mut MultiGpu) {
        for (d, dev_slices) in self.slices.iter().enumerate() {
            for sl in dev_slices {
                mg.device_mut(d).free_slice(*sl);
            }
        }
        for (d, z) in self.z.iter().enumerate() {
            z.iter().for_each(|&half| mg.device_mut(d).free_vec(half));
        }
    }

    /// Give every level slice still loaded as its priced shape its entries,
    /// read from the owners' local blocks in this state: they hold the same
    /// rows at the same format, precision and cast values. Each level row's
    /// entries, in CSR order, go through the conversion a build of the slice
    /// from `A` runs, so the slice gets the slots, widths, padding and bytes
    /// that build gives it. A host build: nothing is charged.
    fn fill_levels(&self, mg: &mut MultiGpu) {
        for (d, dev_slices) in self.slices.iter().enumerate() {
            for (t, &sl) in dev_slices.iter().enumerate().skip(1) {
                if matches!(*mg.device(d).slice(sl).storage, SpStorage::Shape(..)) {
                    let storage = self.level_storage(mg, &self.plan.devs[d].levels[t - 1]);
                    mg.device_mut(d).fill_slice(sl, storage);
                }
            }
        }
    }

    /// The slice `A(rows, :)` in this state's format and precision, its row
    /// `r` read from the local block of `r`'s owner.
    fn level_storage(&self, mg: &MultiGpu, rows: &[u32]) -> SpStorage {
        let devs = &self.plan.devs;
        let block = |r: u32| {
            let o = devs.partition_point(|dp| dp.local.end <= r as usize);
            (&*mg.device(o).slice(self.slices[o][0]).storage, r as usize - devs[o].local.start)
        };
        match self.prec {
            Precision::F64 => {
                let a = gather(&self.row_len, rows, |r, len, out| match block(r) {
                    (SpStorage::Ell(e), i) => out.extend(e.row_entries(i, len)),
                    (SpStorage::Hyb(h), i) => out.extend(h.row_entries(i, len)),
                    _ => unreachable!("an f64 state multiplies by f64 blocks"),
                });
                self.format.build(&a, 0..a.nrows(), Precision::F64)
            }
            Precision::F32 => {
                let a = gather(&self.row_len, rows, |r, len, out| match block(r) {
                    (SpStorage::EllF32(e), i) => out.extend(e.row_entries(i, len)),
                    (SpStorage::HybF32(h), i) => out.extend(h.row_entries(i, len)),
                    _ => unreachable!("an f32 state multiplies by f32 blocks"),
                });
                self.format.build(&a, 0..a.nrows(), Precision::F32)
            }
        }
    }

    /// Load basis column `col` into the local rows of the first `z` buffer
    /// (rounded to the plan's precision): where a block, or a lone SpMV,
    /// starts from.
    fn load_column(&self, mg: &mut MultiGpu, v: &[MatId], col: usize) {
        mg.run(|d, dev| {
            let local = self.plan.devs[d].local.clone();
            dev.scatter_col_to_vec_p(v[d], col, self.z[d][0], local, self.prec);
        });
    }

    /// Exchange phase (the Fig. 4 "Setup"): bring the start vector's value
    /// at every needed remote row into each device's `z_cur` buffer.
    /// `z_cur` must already hold the local values.
    ///
    /// Expressed as explicit stream dependencies: per-link async uploads
    /// whose events the host waits on before expanding `w`, then per-link
    /// async downloads with each device waiting only on *its own* arrival
    /// event before expanding — so under `Schedule::EventDriven` a device
    /// whose halo lands early resumes its MPK steps while slower links are
    /// still draining.
    pub(crate) fn exchange(&self, mg: &mut MultiGpu, cur: usize) -> Result<()> {
        match self.exchange_issue(mg, cur)? {
            Some(inflight) => self.exchange_consume(mg, cur, inflight),
            None => Ok(()),
        }
    }

    /// Issue half of the exchange: compress, uplink, host-side routing of
    /// the payloads, and start the per-link downloads. Returns the
    /// in-flight halos (`None` on a single device, where there is nothing
    /// to exchange).
    /// The caller may enqueue arbitrary device work before consuming —
    /// that work is what the transfers hide under.
    fn exchange_issue(&self, mg: &mut MultiGpu, cur: usize) -> Result<Option<InflightHalo>> {
        let ndev = mg.n_gpus();
        if ndev == 1 {
            return Ok(None);
        }
        // compress + async send to host (Fig. 4 setup, first two loops)
        let payloads =
            mg.run_map(|d, dev| dev.compress_p(self.z[d][cur], &self.plan.devs[d].send, self.prec));
        let bytes_up: Vec<usize> =
            self.plan.devs.iter().map(|d| d.send.len() * self.prec.bytes()).collect();
        let up = mg.to_host_async(&bytes_up, self.prec)?;
        // the host needs every payload before it can route one
        mg.host_wait_all(&up);
        // host: expand into a full vector w (Fig. 4, third loop) — charged as
        // that, executed by reading each halo value from its place in the
        // owner's payload
        let moved: usize = self.plan.devs.iter().map(|d| d.send.len()).sum();
        mg.host_compute(0.0, 2.0 * self.prec.bytes() as f64 * moved as f64);
        // compress per-destination + send down (Fig. 4, fourth loop); a
        // cost-only machine packed no values, so there are none to route
        let vals = if mg.is_cost_only() {
            vec![Vec::new(); ndev]
        } else {
            route_halos(&self.halo_src, &payloads)
        };
        let bytes_down: Vec<usize> =
            self.plan.devs.iter().map(|d| d.need.len() * self.prec.bytes()).collect();
        let down = mg.to_devices_async(&bytes_down, self.prec)?;
        let msgs = down.iter().flatten().count() as u64;
        mg.advance_host(msgs as f64 * mg.model().host_msg_s);
        Ok(Some(InflightHalo { events: down, vals }))
    }

    /// Consume half of the exchange: each device waits on *its own*
    /// arrival event only, then expands the halo values into `z`.
    fn exchange_consume(
        &self,
        mg: &mut MultiGpu,
        cur: usize,
        inflight: InflightHalo,
    ) -> Result<()> {
        for (d, ev) in inflight.events.iter().enumerate() {
            if let Some(ev) = ev {
                mg.wait_event(d, *ev)?; // each queue waits for its own halo only
            }
        }
        mg.run(|d, dev| {
            dev.expand_p(self.z[d][cur], &self.plan.devs[d].need, &inflight.vals[d], self.prec);
        });
        Ok(())
    }
}

/// The rows `rows` of a square matrix whose row `r` has `row_len[r]`
/// entries, as CSR: row `r`'s entries appended by `row(r, row_len[r], ..)`.
fn gather<T: Scalar>(
    row_len: &[u32],
    rows: &[u32],
    mut row: impl FnMut(u32, usize, &mut (Vec<u32>, Vec<T>)),
) -> Csr<T> {
    let nnz = rows.iter().map(|&r| row_len[r as usize] as usize).sum();
    let mut entries = (Vec::with_capacity(nnz), Vec::with_capacity(nnz));
    let mut row_ptr = Vec::with_capacity(rows.len() + 1);
    row_ptr.push(0);
    for &r in rows {
        row(r, row_len[r as usize] as usize, &mut entries);
        row_ptr.push(entries.0.len());
    }
    Csr::from_raw(rows.len(), row_len.len(), row_ptr, entries.0, entries.1)
}

/// For each device, the (owner device, index in the owner's `send`) of every
/// row in its `need` list.
fn halo_sources(plan: &MpkPlan) -> Vec<Vec<(u32, u32)>> {
    let locate = |r: u32| {
        let o = plan.devs.partition_point(|dp| dp.local.end <= r as usize);
        let i = plan.devs[o].send.binary_search(&r).expect("send sets cover every need");
        (o as u32, i as u32)
    };
    plan.devs.iter().map(|dp| dp.need.iter().map(|&r| locate(r)).collect()).collect()
}

/// Each device's halo values, in `need` order, read from the uplinked
/// payloads. A lost owner uplinked nothing: its rows read `0.0`, as the
/// entries of `w` nobody wrote did.
fn route_halos(halo_src: &[Vec<(u32, u32)>], payloads: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let value = |&(o, i): &(u32, u32)| payloads[o as usize].get(i as usize).copied().unwrap_or(0.0);
    halo_src.iter().map(|src| src.iter().map(value).collect()).collect()
}

/// Downloads in flight from an issued-but-not-consumed halo exchange.
#[derive(Debug)]
struct InflightHalo {
    events: Vec<Option<ca_gpusim::Event>>,
    vals: Vec<Vec<f64>>,
}

/// A halo exchange issued *ahead* of its MPK block — the Fig. 14 overlap
/// mechanism. [`mpk_prefetch`] scatters the block's start column (which
/// must already hold its final values), compresses and uplinks the
/// boundary entries, expands them on the host, and starts the per-link
/// downloads; [`mpk_with_prefetch`] later consumes the token, waiting
/// only on each device's own arrival event. Every enqueued device command
/// and host computation in between is time the transfers hide under.
#[derive(Debug)]
pub struct PrefetchedHalo {
    start_col: usize,
    inflight: Option<InflightHalo>,
}

/// Issue the halo exchange for the MPK block that will start from basis
/// column `start_col` (its local values must be final in `v`). Pass the
/// returned token to [`mpk_with_prefetch`] for the matching block.
///
/// The transfers are counted when issued, so a token that is never
/// consumed (e.g. the solver converged first) leaves the communication
/// counters showing one speculative exchange — exactly what a real
/// prefetch would have cost.
///
/// # Errors
/// Propagates simulated transfer failures ([`ca_gpusim::GpuSimError`]).
pub fn mpk_prefetch(
    mg: &mut MultiGpu,
    st: &MpkState,
    v: &[MatId],
    start_col: usize,
) -> Result<PrefetchedHalo> {
    st.load_column(mg, v, start_col);
    let inflight = st.exchange_issue(mg, 0)?;
    if obs::enabled() {
        obs::instant_cause(
            "mpk.prefetch_issue",
            HOST,
            mg.time(),
            &format!("halo exchange issued ahead of block at column {start_col}"),
        );
        obs::counter_add(obs::names::MPK_PREFETCHES, 1);
    }
    Ok(PrefetchedHalo { start_col, inflight })
}

/// Simulated-time split of one MPK block (Fig. 8's solid-vs-dashed lines).
#[derive(Debug, Clone, Copy, Default)]
pub struct MpkPhaseTimes {
    /// Setup + halo exchange time (the communication the kernel batches).
    pub exchange: f64,
    /// Pure SpMV-step time (local + boundary multiplications).
    pub steps: f64,
}

/// Execute one MPK block: starting from the basis column `start_col`
/// (whose local values live in each device's `v[d]`), generate columns
/// `start_col + 1 ..= start_col + spec.s()` of the basis. Returns the
/// exchange/compute time split.
///
/// Under `Schedule::Barrier` (default) the split is exact — the `sync()`
/// boundaries align every clock. Under `Schedule::EventDriven` the syncs
/// are no-ops, phases genuinely overlap, and the split reported is the
/// growth of end-to-end time per phase (totals stay exact).
///
/// `spec.s()` may be smaller than the plan's `s` (the short final block of
/// a restart cycle); it must never exceed it.
///
/// # Errors
/// Propagates simulated transfer failures and device loss from the halo
/// exchange ([`ca_gpusim::GpuSimError`]).
pub fn mpk(
    mg: &mut MultiGpu,
    st: &MpkState,
    v: &[MatId],
    start_col: usize,
    spec: &BasisSpec,
) -> Result<MpkPhaseTimes> {
    mpk_with_prefetch(mg, st, v, start_col, spec, None)
}

/// [`mpk`] with an optionally prefetched halo exchange: when `halo` is a
/// token from [`mpk_prefetch`] for the same `start_col`, the setup phase
/// reduces to waiting on each device's own (long-issued) arrival event
/// and expanding — the transfer time itself was overlapped with whatever
/// ran since the issue.
///
/// # Errors
/// Propagates simulated transfer failures and device loss from the halo
/// exchange ([`ca_gpusim::GpuSimError`]).
pub fn mpk_with_prefetch(
    mg: &mut MultiGpu,
    st: &MpkState,
    v: &[MatId],
    start_col: usize,
    spec: &BasisSpec,
    halo: Option<PrefetchedHalo>,
) -> Result<MpkPhaseTimes> {
    let s_run = spec.s();
    let s_plan = st.plan.s;
    assert!(s_run >= 1 && s_run <= s_plan, "block of {s_run} steps exceeds plan s = {s_plan}");
    let mut phases = MpkPhaseTimes::default();
    mg.sync();
    let t0 = mg.time();

    match halo {
        Some(h) => {
            // start column already scattered and halos in flight
            assert_eq!(h.start_col, start_col, "prefetched halo is for a different block");
            if let Some(inflight) = h.inflight {
                st.exchange_consume(mg, 0, inflight)?;
            }
        }
        None => {
            st.load_column(mg, v, start_col);
            st.exchange(mg, 0)?;
        }
    }
    mg.sync();
    phases.exchange = mg.time() - t0;
    let t1 = mg.time();
    obs::span("mpk.exchange", HOST, t0, t1);

    mpk_steps(mg, st, v, start_col, spec);
    mg.sync();
    let t2 = mg.time();
    phases.steps = t2 - t1;
    obs::span("mpk.steps", HOST, t1, t2);
    Ok(phases)
}

/// The matrix-powers steps of a block (Fig. 4, main loop), double-buffering
/// `z`: step `k` is one [`ca_gpusim::Device::mpk_step`] per device over the
/// local block and the levels later steps still read, its local rows also
/// into basis column `start_col + k`.
///
/// On a fault-free machine ([`MultiGpu::is_fault_free`]) each row is
/// computed once: a step computes its device's local block alone, and
/// before step `k >= 2` each device is given the level-1 rows of `z_{k-1}`,
/// read from their owners' buffers (a host read, not charged). They are the
/// bits the device would have computed itself (DESIGN.md, "Host threads"):
/// for finite inputs a row's sum is the same sequence of operations in
/// every slice that holds it, and the recurrence is per row. With a fault
/// plan installed or a device lost, every device computes every live level,
/// as Fig. 4 does, and a fault can hit its private copy of a boundary row;
/// the level slices still loaded as shapes are built first. Either way a
/// step is charged over every live slice.
fn mpk_steps(mg: &mut MultiGpu, st: &MpkState, v: &[MatId], start_col: usize, spec: &BasisSpec) {
    let cost_only = mg.is_cost_only();
    let once = mg.is_fault_free() && !cost_only;
    // (a cost-only machine computes nothing: its slices stay shapes)
    if !once && !cost_only {
        st.fill_levels(mg);
    }
    let mut given: Vec<Vec<f64>> =
        st.plan.devs.iter().map(|dp| Vec::with_capacity(dp.levels[0].len())).collect();
    for k in 1..=spec.s() {
        // (at step 1 nothing: the exchange delivered every level of z_0)
        if once && k >= 2 {
            owners_level1(mg, st, (k - 1) % 2, &mut given);
        }
        let Step { re, im2, scale } = spec.steps[k - 1];
        mg.run(|d, dev| {
            // level t feeds steps up to s_run - t
            let parts = &st.slices[d][..=spec.s() - k];
            let vals = &given[d][..];
            let given = once.then(|| (&st.plan.devs[d].levels[0][..vals.len()], vals));
            let (zc, zn) = (st.z[d][(k - 1) % 2], st.z[d][k % 2]);
            dev.mpk_step(parts, zc, zn, (re, im2, scale), (v[d], start_col + k), given);
        });
    }
}

/// Into `given[d]`, for every device `d`, the level-1 rows of the vector in
/// half `cur` of the `z` double buffers, in `levels[0]` order, as their
/// owners hold them.
fn owners_level1(mg: &MultiGpu, st: &MpkState, cur: usize, given: &mut [Vec<f64>]) {
    let devs = &st.plan.devs;
    for (dp, vals) in devs.iter().zip(given) {
        vals.clear();
        vals.extend(dp.levels[0].iter().map(|&r| {
            let o = devs.partition_point(|dp| dp.local.end <= r as usize);
            mg.device(o).vec(st.z[o][cur])[r as usize]
        }));
    }
}

/// The block [`mpk`] generates — columns `start_col + 1 ..= start_col +
/// spec.s()` — as shifted distributed SpMVs on an `s = 1` plan: one halo
/// exchange and one [`ca_gpusim::Device::mpk_step`] on the local block per
/// vector, the step's shift in the kernel's epilogue. The `z` double buffer
/// carries over between the steps — the rows a step wrote are the next
/// step's source, and the two-steps-ago vector of the step after — so only
/// the first step loads a basis column.
///
/// # Errors
/// Propagates simulated transfer failures and device loss from the halo
/// exchanges ([`ca_gpusim::GpuSimError`]).
pub fn spmv_block(
    mg: &mut MultiGpu,
    st: &MpkState,
    v: &[MatId],
    start_col: usize,
    spec: &BasisSpec,
) -> Result<()> {
    assert_eq!(st.plan.s, 1, "a shifted-SpMV block wants an s = 1 plan");
    st.load_column(mg, v, start_col);
    for k in 1..=spec.s() {
        let sp = obs::span_begin("dist_spmv", HOST, mg.time());
        st.exchange(mg, (k - 1) % 2)?;
        let Step { re, im2, scale } = spec.steps[k - 1];
        mg.run(|d, dev| {
            let (zc, zn) = (st.z[d][(k - 1) % 2], st.z[d][k % 2]);
            dev.mpk_step(&st.slices[d][..1], zc, zn, (re, im2, scale), (v[d], start_col + k), None);
        });
        obs::span_end(sp, mg.time());
    }
    Ok(())
}

/// The faster generator of an `s`-step basis block of `a` (reordered to
/// match `layout`) on `mg`'s machine — the Fig. 15 rule, "if SpMV is faster
/// than MPK, then CA-GMRES uses SpMV". One [`mpk`] block and one
/// [`spmv_block`] are timed on [`MultiGpu::cost_only_twin`]: nothing runs
/// on `mg`, and nothing is recorded. MPK wins ties; `s <= 1` is SpMV.
pub fn fastest_kernel(mg: &MultiGpu, a: &Csr, layout: &Layout, s: usize) -> KernelMode {
    if s <= 1 {
        return KernelMode::Spmv;
    }
    let mut twin = mg.cost_only_twin();
    let times = obs::unobserved(|| -> Result<(f64, f64)> {
        let sys = System::new(&mut twin, a, layout.clone(), s, Some(s))?;
        let (spec, bc) = (BasisSpec::monomial(s), sys.b_col());
        twin.sync();
        twin.run(|d, dev| dev.copy_col(sys.v[d], bc, 0));
        let t0 = twin.time();
        mpk(&mut twin, sys.mpk.as_ref().expect("planned above"), &sys.v, 0, &spec)?;
        twin.sync();
        let t1 = twin.time();
        spmv_block(&mut twin, &sys.spmv, &sys.v, 0, &spec)?;
        twin.sync();
        Ok((t1 - t0, twin.time() - t1))
    });
    match times {
        Ok((t_mpk, t_spmv)) if t_mpk <= t_spmv => KernelMode::Mpk,
        _ => KernelMode::Spmv,
    }
}

/// Distributed SpMV (the s = 1 path standard GMRES uses): computes
/// `V[:, dst] := A V[:, src]` across all devices, one halo exchange.
/// `st` must be built with `s = 1`: its halo is level 1 alone.
///
/// # Errors
/// Propagates simulated transfer failures and device loss from the halo
/// exchange ([`ca_gpusim::GpuSimError`]).
pub fn dist_spmv(
    mg: &mut MultiGpu,
    st: &MpkState,
    v: &[MatId],
    src: usize,
    dst: usize,
) -> Result<()> {
    assert_eq!(st.plan.s, 1, "dist_spmv wants an s = 1 plan");
    let sp = obs::span_begin("dist_spmv", HOST, mg.time());
    st.load_column(mg, v, src);
    st.exchange(mg, 0)?;
    mg.run(|d, dev| {
        dev.spmv_to_mat_col(st.local_slice(d), st.z[d][0], v[d], dst);
    });
    obs::span_end(sp, mg.time());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Layout;
    use ca_gpusim::{Device, MultiGpu, PerfModel};
    use ca_sparse::gen::laplace2d;

    fn setup(nx: usize, ny: usize, ndev: usize, s: usize) -> (Csr, Layout, MpkPlan) {
        let a = laplace2d(nx, ny);
        let layout = Layout::even(a.nrows(), ndev);
        let plan = MpkPlan::new(&a, &layout, s);
        (a, layout, plan)
    }

    #[test]
    fn levels_are_grid_distances() {
        // 2 devices on a 4x4 grid, natural order: device 0 owns rows 0..8
        // (top two grid rows). Level 1 = rows 8..12, level 2 = rows 12..16.
        let (_, _, plan) = setup(4, 4, 2, 2);
        let d0 = &plan.devs[0];
        assert_eq!(d0.levels[0], vec![8, 9, 10, 11]);
        assert_eq!(d0.levels[1], vec![12, 13, 14, 15]);
        assert_eq!(d0.need.len(), 8);
    }

    #[test]
    fn a_truncated_plan_is_the_shallow_analysis() {
        let a = ca_sparse::gen::convection_diffusion(14, 11, 2.0);
        for ndev in 1..=4 {
            let layout = Layout::even(a.nrows(), ndev);
            let deep = MpkPlan::new(&a, &layout, 6);
            for s in 1..=6 {
                assert_eq!(
                    deep.truncated(s),
                    MpkPlan::new(&a, &layout, s),
                    "{ndev} devices, s = {s}"
                );
            }
        }
    }

    #[test]
    fn single_device_needs_nothing() {
        let (_, _, plan) = setup(5, 5, 1, 3);
        assert!(plan.devs[0].need.is_empty());
        assert!(plan.devs[0].send.is_empty());
        assert_eq!(plan.gather_union, 0);
    }

    #[test]
    fn need_grows_with_s() {
        let (_, _, p1) = setup(10, 10, 2, 1);
        let (_, _, p3) = setup(10, 10, 2, 3);
        assert!(p3.devs[0].need.len() > p1.devs[0].need.len());
        // and per-block volume grows while per-vector volume shrinks
        let (g1, s1) = p1.comm_volume_per_block();
        let (g3, s3) = p3.comm_volume_per_block();
        assert!(g3 + s3 > g1 + s1);
        assert!((g3 + s3) as f64 / 3.0 < (g1 + s1) as f64 + 1e-9);
    }

    #[test]
    fn send_sets_cover_needs() {
        let (_, layout, plan) = setup(8, 8, 3, 2);
        for dp in &plan.devs {
            for &r in &dp.need {
                let owner = layout.owner(r as usize);
                assert!(plan.devs[owner].send.contains(&r), "row {r} not in owner's send set");
            }
        }
    }

    #[test]
    fn surface_to_volume_monotone_in_s() {
        let a = laplace2d(12, 12);
        let layout = Layout::even(144, 3);
        let mut prev = 0.0;
        for s in 1..=4 {
            let plan = MpkPlan::new(&a, &layout, s);
            let r = plan.devs[1].surface_to_volume();
            assert!(r >= prev, "s={s}: {r} < {prev}");
            prev = r;
        }
        assert!(prev > 0.0);
    }

    #[test]
    fn mpk_matches_repeated_spmv_monomial() {
        // MPK across 3 devices must equal s sequential SpMVs exactly at the
        // local rows (same fp order per row: ELL slot order is identical).
        let a = laplace2d(9, 7);
        let n = a.nrows();
        let layout = Layout::even(n, 3);
        let s = 3;
        let plan = MpkPlan::new(&a, &layout, s);
        let mut mg = MultiGpu::with_defaults(3);
        let st = MpkState::load(&mut mg, &a, plan).unwrap();
        // basis matrices, start col = unit-ish vector
        let x0: Vec<f64> = (0..n).map(|i| ((i * 13 % 17) as f64) - 8.0).collect();
        let v_ids: Vec<MatId> = (0..3)
            .map(|d| {
                let nl = layout.nlocal(d);
                let dev = mg.device_mut(d);
                let v = dev.alloc_mat(nl, s + 1).unwrap();
                let lo = layout.range(d).start;
                dev.mat_mut(v).set_col(0, &x0[lo..lo + nl]);
                v
            })
            .collect();
        mpk(&mut mg, &st, &v_ids, 0, &BasisSpec::monomial(s)).unwrap();
        // reference: repeated CSR spmv
        let mut xk = x0.clone();
        for k in 1..=s {
            let mut y = vec![0.0; n];
            ca_sparse::spmv::spmv(&a, &xk, &mut y);
            for d in 0..3 {
                let lo = layout.range(d).start;
                let col = mg.device(d).mat(v_ids[d]).col(k);
                for (i, &cv) in col.iter().enumerate() {
                    assert!(
                        (cv - y[lo + i]).abs() < 1e-12 * y[lo + i].abs().max(1.0),
                        "k={k} dev={d} row={i}: {cv} vs {}",
                        y[lo + i]
                    );
                }
            }
            xk = y;
        }
    }

    #[test]
    fn mpk_f32_close_to_f64_and_halo_bytes_exactly_halved() {
        let a = laplace2d(9, 7);
        let n = a.nrows();
        let layout = Layout::even(n, 3);
        let s = 3;
        let x0: Vec<f64> = (0..n).map(|i| ((i * 13 % 17) as f64) - 8.0).collect();
        let run = |prec: Precision| {
            let plan = MpkPlan::new(&a, &layout, s);
            let mut mg = MultiGpu::with_defaults(3);
            let st = MpkState::load_as(&mut mg, &a, plan, SpmvFormat::Ell, prec, None).unwrap();
            let v_ids: Vec<MatId> = (0..3)
                .map(|d| {
                    let nl = layout.nlocal(d);
                    let dev = mg.device_mut(d);
                    let v = dev.alloc_mat(nl, s + 1).unwrap();
                    let lo = layout.range(d).start;
                    dev.mat_mut(v).set_col(0, &x0[lo..lo + nl]);
                    v
                })
                .collect();
            mg.reset_counters();
            mpk(&mut mg, &st, &v_ids, 0, &BasisSpec::monomial(s)).unwrap();
            let cols: Vec<Vec<f64>> = (0..3)
                .flat_map(|d| (1..=s).map(move |k| (d, k)))
                .map(|(d, k)| mg.device(d).mat(v_ids[d]).col(k).to_vec())
                .collect();
            (cols, mg.counters())
        };
        let (c64, n64) = run(Precision::F64);
        let (c32, n32) = run(Precision::F32);
        // f32 basis stays within single-precision distance of the f64 one
        for (a64, a32) in c64.iter().zip(&c32) {
            for (&v64, &v32) in a64.iter().zip(a32) {
                assert!(
                    (v64 - v32).abs() <= 1e-3 * v64.abs().max(1.0),
                    "f32 basis too far from f64: {v32} vs {v64}"
                );
            }
        }
        // same message pattern, exactly half the halo bytes, all tagged f32
        assert_eq!(n32.total_msgs(), n64.total_msgs());
        assert_eq!(2 * n32.total_bytes(), n64.total_bytes());
        assert_eq!(n32.total_bytes_f32(), n32.total_bytes());
        assert_eq!(n64.total_bytes_f32(), 0);
    }

    #[test]
    fn mpk_newton_real_shift_matches_reference() {
        let a = laplace2d(6, 6);
        let n = a.nrows();
        let layout = Layout::even(n, 2);
        let s = 2;
        let plan = MpkPlan::new(&a, &layout, s);
        let mut mg = MultiGpu::with_defaults(2);
        let st = MpkState::load(&mut mg, &a, plan).unwrap();
        let x0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).cos()).collect();
        let v_ids: Vec<MatId> = (0..2)
            .map(|d| {
                let nl = layout.nlocal(d);
                let dev = mg.device_mut(d);
                let v = dev.alloc_mat(nl, s + 1).unwrap();
                let lo = layout.range(d).start;
                dev.mat_mut(v).set_col(0, &x0[lo..lo + nl]);
                v
            })
            .collect();
        let spec = crate::newton::BasisSpec::newton(&[(1.5, 0.0), (-0.5, 0.0)], 2);
        mpk(&mut mg, &st, &v_ids, 0, &spec).unwrap();
        // reference v2 = (A - 1.5 I) x0; v3 = (A + 0.5 I) v2
        let mut v2 = vec![0.0; n];
        ca_sparse::spmv::spmv(&a, &x0, &mut v2);
        for i in 0..n {
            v2[i] -= 1.5 * x0[i];
        }
        let mut v3 = vec![0.0; n];
        ca_sparse::spmv::spmv(&a, &v2, &mut v3);
        for i in 0..n {
            v3[i] += 0.5 * v2[i];
        }
        for d in 0..2 {
            let lo = layout.range(d).start;
            for (i, (&c1, &c2)) in mg
                .device(d)
                .mat(v_ids[d])
                .col(1)
                .iter()
                .zip(mg.device(d).mat(v_ids[d]).col(2))
                .enumerate()
            {
                assert!((c1 - v2[lo + i]).abs() < 1e-12);
                assert!((c2 - v3[lo + i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn mpk_complex_pair_matches_reference() {
        let a = laplace2d(5, 5);
        let n = a.nrows();
        let layout = Layout::even(n, 2);
        let plan = MpkPlan::new(&a, &layout, 2);
        let mut mg = MultiGpu::with_defaults(2);
        let st = MpkState::load(&mut mg, &a, plan).unwrap();
        let x0: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let v_ids: Vec<MatId> = (0..2)
            .map(|d| {
                let nl = layout.nlocal(d);
                let dev = mg.device_mut(d);
                let v = dev.alloc_mat(nl, 3).unwrap();
                let lo = layout.range(d).start;
                dev.mat_mut(v).set_col(0, &x0[lo..lo + nl]);
                v
            })
            .collect();
        // pair 2 +- 3i: v2 = (A-2)x; v3 = (A-2)v2 + 9x
        let spec = crate::newton::BasisSpec::newton(&[(2.0, 3.0), (2.0, -3.0)], 2);
        mpk(&mut mg, &st, &v_ids, 0, &spec).unwrap();
        let mut v2 = vec![0.0; n];
        ca_sparse::spmv::spmv(&a, &x0, &mut v2);
        for i in 0..n {
            v2[i] -= 2.0 * x0[i];
        }
        let mut v3 = vec![0.0; n];
        ca_sparse::spmv::spmv(&a, &v2, &mut v3);
        for i in 0..n {
            v3[i] = v3[i] - 2.0 * v2[i] + 9.0 * x0[i];
        }
        for d in 0..2 {
            let lo = layout.range(d).start;
            for (i, &c2) in mg.device(d).mat(v_ids[d]).col(2).iter().enumerate() {
                assert!((c2 - v3[lo + i]).abs() < 1e-10, "row {i}: {c2} vs {}", v3[lo + i]);
            }
        }
    }

    #[test]
    fn mpk_chebyshev_matches_reference_recurrence() {
        let a = laplace2d(6, 5);
        let n = a.nrows();
        let layout = Layout::even(n, 2);
        let s = 3;
        let plan = MpkPlan::new(&a, &layout, s);
        let mut mg = MultiGpu::with_defaults(2);
        let st = MpkState::load(&mut mg, &a, plan).unwrap();
        let x0: Vec<f64> = (0..n).map(|i| 0.5 + ((i * 5) % 7) as f64).collect();
        let v_ids: Vec<MatId> = (0..2)
            .map(|d| {
                let nl = layout.nlocal(d);
                let dev = mg.device_mut(d);
                let v = dev.alloc_mat(nl, s + 1).unwrap();
                let lo = layout.range(d).start;
                dev.mat_mut(v).set_col(0, &x0[lo..lo + nl]);
                v
            })
            .collect();
        let (c, delta) = (4.0, 3.5);
        let spec = crate::newton::BasisSpec::chebyshev(c, delta, s);
        mpk(&mut mg, &st, &v_ids, 0, &spec).unwrap();
        // reference: v1 = (1/d)(A-c)v0; v_{k+1} = (2/d)(A-c)v_k - v_{k-1}
        let shift_mul = |x: &[f64]| {
            let mut y = vec![0.0; n];
            ca_sparse::spmv::spmv(&a, x, &mut y);
            for i in 0..n {
                y[i] -= c * x[i];
            }
            y
        };
        let mut vm1 = x0.clone();
        let mut vk: Vec<f64> = shift_mul(&x0).iter().map(|v| v / delta).collect();
        for k in 1..=s {
            for d in 0..2 {
                let lo = layout.range(d).start;
                for (i, &cv) in mg.device(d).mat(v_ids[d]).col(k).iter().enumerate() {
                    assert!(
                        (cv - vk[lo + i]).abs() < 1e-10 * vk[lo + i].abs().max(1.0),
                        "k={k} row {i}: {cv} vs {}",
                        vk[lo + i]
                    );
                }
            }
            if k < s {
                let av: Vec<f64> = shift_mul(&vk);
                let next: Vec<f64> = (0..n).map(|i| 2.0 / delta * av[i] - vm1[i]).collect();
                vm1 = vk;
                vk = next;
            }
        }
    }

    #[test]
    fn dist_spmv_matches_csr() {
        let a = laplace2d(7, 6);
        let n = a.nrows();
        let layout = Layout::even(n, 3);
        let plan = MpkPlan::new(&a, &layout, 1);
        let mut mg = MultiGpu::with_defaults(3);
        let st = MpkState::load(&mut mg, &a, plan).unwrap();
        let x: Vec<f64> = (0..n).map(|i| (i as f64).sqrt()).collect();
        let v_ids: Vec<MatId> = (0..3)
            .map(|d| {
                let nl = layout.nlocal(d);
                let dev = mg.device_mut(d);
                let v = dev.alloc_mat(nl, 2).unwrap();
                let lo = layout.range(d).start;
                dev.mat_mut(v).set_col(0, &x[lo..lo + nl]);
                v
            })
            .collect();
        dist_spmv(&mut mg, &st, &v_ids, 0, 1).unwrap();
        let mut y = vec![0.0; n];
        ca_sparse::spmv::spmv(&a, &x, &mut y);
        for d in 0..3 {
            let lo = layout.range(d).start;
            for (i, &c) in mg.device(d).mat(v_ids[d]).col(1).iter().enumerate() {
                assert!((c - y[lo + i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn a_resident_state_is_shared_only_at_its_own_format_and_precision() {
        let (a, layout, plan1) = setup(7, 6, 3, 1);
        let mut mg = MultiGpu::with_defaults(3);
        let resident = MpkState::load(&mut mg, &a, plan1).unwrap();
        let hyb = SpmvFormat::Hyb { quantile: 0.5 };
        for (format, prec, shared) in [
            (SpmvFormat::Ell, Precision::F64, true),
            (SpmvFormat::Ell, Precision::F32, false),
            (hyb, Precision::F64, false),
        ] {
            let plan = MpkPlan::new(&a, &layout, 3);
            let st = MpkState::load_as(&mut mg, &a, plan, format, prec, Some(&resident)).unwrap();
            for d in 0..3 {
                let local = |st: &MpkState| &mg.device(d).slice(st.local_slice(d)).storage;
                let same = Arc::ptr_eq(local(&st), local(&resident));
                assert_eq!(same, shared, "{format:?} {prec:?}");
                assert_eq!(local(&st).prec(), prec);
            }
            st.release(&mut mg);
        }
    }

    #[test]
    #[should_panic(expected = "another layout")]
    fn sharing_across_layouts_panics() {
        let (a, _, plan1) = setup(7, 6, 2, 1);
        let mut mg = MultiGpu::with_defaults(2);
        let resident = MpkState::load(&mut mg, &a, plan1).unwrap();
        let uneven = Layout::from_sizes(&[10, 32]);
        let plan = MpkPlan::new(&a, &uneven, 2);
        let _ =
            MpkState::load_as(&mut mg, &a, plan, SpmvFormat::Ell, Precision::F64, Some(&resident));
    }

    #[test]
    fn mpk_charges_fewer_messages_than_repeated_spmv() {
        let a = laplace2d(10, 10);
        let n = a.nrows();
        let layout = Layout::even(n, 2);
        let s = 4;
        // MPK path
        let mut mg = MultiGpu::with_defaults(2);
        let st = MpkState::load(&mut mg, &a, MpkPlan::new(&a, &layout, s)).unwrap();
        let v_ids: Vec<MatId> = (0..2)
            .map(|d| {
                let nl = layout.nlocal(d);
                let dev = mg.device_mut(d);
                let v = dev.alloc_mat(nl, s + 1).unwrap();
                dev.mat_mut(v).set_col(0, &vec![1.0; nl]);
                v
            })
            .collect();
        mg.reset_counters();
        mpk(&mut mg, &st, &v_ids, 0, &BasisSpec::monomial(s)).unwrap();
        let mpk_msgs = mg.counters().total_msgs();

        // repeated SpMV path
        let mut mg2 = MultiGpu::with_defaults(2);
        let st2 = MpkState::load(&mut mg2, &a, MpkPlan::new(&a, &layout, 1)).unwrap();
        let v2: Vec<MatId> = (0..2)
            .map(|d| {
                let nl = layout.nlocal(d);
                let dev = mg2.device_mut(d);
                let v = dev.alloc_mat(nl, s + 1).unwrap();
                dev.mat_mut(v).set_col(0, &vec![1.0; nl]);
                v
            })
            .collect();
        mg2.reset_counters();
        for k in 0..s {
            dist_spmv(&mut mg2, &st2, &v2, k, k + 1).unwrap();
        }
        let spmv_msgs = mg2.counters().total_msgs();
        assert_eq!(spmv_msgs, s as u64 * mpk_msgs, "latency reduced by factor s");
    }

    // ---------- one launch per basis vector ----------

    /// A machine with `a` loaded on `layout` for `s`-step blocks in `format`
    /// at `prec`, and a basis of `cols` columns per device whose column 0
    /// holds `x0`.
    fn loaded(
        a: &Csr,
        (layout, s, cols): (&Layout, usize, usize),
        (format, prec): (SpmvFormat, Precision),
        x0: &[f64],
    ) -> (MultiGpu, MpkState, Vec<MatId>) {
        let mg = MultiGpu::with_defaults(layout.ndev());
        loaded_on(mg, a, (layout, s, cols), (format, prec), x0)
    }

    /// [`loaded`] on the machine `mg`, as it is.
    fn loaded_on(
        mut mg: MultiGpu,
        a: &Csr,
        (layout, s, cols): (&Layout, usize, usize),
        (format, prec): (SpmvFormat, Precision),
        x0: &[f64],
    ) -> (MultiGpu, MpkState, Vec<MatId>) {
        let ndev = layout.ndev();
        let plan = MpkPlan::new(a, layout, s);
        let st = MpkState::load_as(&mut mg, a, plan, format, prec, None).unwrap();
        let v = (0..ndev)
            .map(|d| {
                let dev = mg.device_mut(d);
                let v = dev.alloc_mat(layout.nlocal(d), cols).unwrap();
                dev.mat_mut(v).set_col(0, &x0[layout.range(d)]);
                v
            })
            .collect();
        (mg, st, v)
    }

    /// Bits of every basis column and of the local rows of both work
    /// vectors of every device: all of a block anything reads later (the
    /// boundary rows of `z` are scratch, computed on a faulty machine only).
    fn device_bits(mg: &MultiGpu, st: &MpkState, v: &[MatId]) -> Vec<Vec<u64>> {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        (0..mg.n_gpus())
            .flat_map(|d| {
                let (dev, local) = (mg.device(d), st.plan.devs[d].local.clone());
                [
                    bits(&dev.vec(st.z[d][0])[local.clone()]),
                    bits(&dev.vec(st.z[d][1])[local]),
                    bits(dev.mat(v[d]).as_slice()),
                ]
            })
            .collect()
    }

    /// [`Device::mpk_step`] as the sequence it replaced — slice by slice an
    /// SpMV and the recurrence over its rows, then the local rows into the
    /// basis column — on the host's view of the device: the bits and no
    /// command.
    fn mpk_step_unfused(
        dev: &mut Device,
        parts: &[SpId],
        z: [VecId; 2],
        v: MatId,
        start_col: usize,
        spec: &BasisSpec,
        k: usize,
    ) {
        let crate::newton::Step { re, im2, scale } = spec.steps[k - 1];
        let (zc, zn) = (z[(k - 1) % 2], z[k % 2]);
        let cur = dev.vec(zc).to_vec();
        let mut next = dev.vec(zn).to_vec();
        for &s in parts {
            let sl = dev.slice(s);
            let mut y = vec![0.0; sl.rows.len()];
            sl.storage.spmv_window(&cur, &mut y, 0);
            for (&r, yi) in sl.rows.iter().zip(y) {
                let r = r as usize;
                let shifted = match sl.storage.prec() {
                    _ if re == 0.0 && scale == 1.0 => yi,
                    Precision::F64 => scale * (yi - re * cur[r]),
                    Precision::F32 => {
                        (scale as f32 * (yi as f32 - re as f32 * cur[r] as f32)) as f64
                    }
                };
                next[r] = match sl.storage.prec() {
                    _ if im2 == 0.0 => shifted,
                    Precision::F64 => shifted + im2 * next[r],
                    Precision::F32 => (shifted as f32 + im2 as f32 * next[r] as f32) as f64,
                };
            }
        }
        let rows = &dev.slice(parts[0]).rows;
        let local = rows.first().map_or(0..0, |&r| r as usize..r as usize + rows.len());
        dev.mat_mut(v).col_mut(start_col + k).copy_from_slice(&next[local]);
        dev.vec_mut(zn).copy_from_slice(&next);
    }

    /// A real shift, a conjugate pair, a scaled step: every branch of the
    /// recurrence.
    fn every_branch(s: usize) -> BasisSpec {
        let mut spec = BasisSpec::newton(&[(1.5, 0.0), (2.0, 3.0), (2.0, -3.0), (0.0, 0.0)], s);
        spec.steps[s - 1].scale = 0.5;
        spec
    }

    #[test]
    fn fused_steps_equal_the_per_slice_sequence_and_cost_one_launch_each() {
        // hub rows give the hybrid format a tail; device 1 owns no row, so
        // its local block and all its levels are empty
        let a = ca_sparse::gen::circuit(600, 20140527);
        let n = a.nrows();
        let x0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() * 1e2).collect();
        let layout = Layout::from_sizes(&[200, 0, 250, 150]);
        let (ndev, s) = (layout.ndev(), 4);
        let mut blocks = 0;
        for format in [SpmvFormat::Ell, SpmvFormat::Hyb { quantile: 0.9 }] {
            for prec in [Precision::F64, Precision::F32] {
                for spec in [BasisSpec::monomial(s), every_branch(s), every_branch(s - 1)] {
                    let what = format!("{format:?} {prec:?} {} of {s} steps", spec.s());
                    let run = |fused: bool| {
                        let (mut mg, st, v) = loaded(&a, (&layout, s, s + 2), (format, prec), &x0);
                        st.load_column(&mut mg, &v, 0);
                        st.exchange(&mut mg, 0).unwrap();
                        let before: Vec<(u64, f64)> =
                            (0..ndev).map(|d| (mg.device(d).ops(), mg.device(d).clock())).collect();
                        if fused {
                            mpk_steps(&mut mg, &st, &v, 0, &spec);
                        } else {
                            // the oracle multiplies by every level itself
                            st.fill_levels(&mut mg);
                            mg.run(|d, dev| {
                                for k in 1..=spec.s() {
                                    let parts = &st.slices[d][..=spec.s() - k];
                                    mpk_step_unfused(dev, parts, st.z[d], v[d], 0, &spec, k);
                                }
                            });
                        }
                        (device_bits(&mg, &st, &v), mg, st, before)
                    };
                    let (bits, mg, st, before) = run(true);
                    assert_eq!(bits, run(false).0, "{what}");
                    // one launch per step, charged what the model says one
                    // launch over the slices still alive costs
                    for (d, &(ops, clock)) in before.iter().enumerate() {
                        let dev = mg.device(d);
                        assert_eq!(dev.ops() - ops, spec.s() as u64, "{what}: device {d}");
                        let mut want = clock;
                        for k in 1..=spec.s() {
                            let alive = &st.slices[d][..=spec.s() - k];
                            let shapes = alive.iter().map(|&sl| dev.slice(sl).storage.shape());
                            let nlocal = st.plan.devs[d].local.len();
                            want += mg.model().mpk_step_time(shapes, nlocal, prec);
                        }
                        assert_eq!(dev.clock(), want, "{what}: device {d}");
                    }
                    blocks += 1;
                }
            }
        }
        assert_eq!(blocks, 12);
    }

    /// [`spmv_block`] as it was: per vector a [`dist_spmv`], then the shift
    /// as up to three BLAS-1 kernels on the basis columns.
    fn spmv_block_unfused(
        mg: &mut MultiGpu,
        st: &MpkState,
        v: &[MatId],
        start: usize,
        spec: &BasisSpec,
    ) {
        for (k, step) in spec.steps.iter().enumerate() {
            let (src, dst) = (start + k, start + k + 1);
            dist_spmv(mg, st, v, src, dst).unwrap();
            let (re, im2, scale) = (step.re, step.im2, step.scale);
            mg.run(|d, dev| {
                if re != 0.0 {
                    dev.axpy_cols(v[d], -re, src, dst);
                }
                if scale != 1.0 {
                    dev.scal_col(v[d], dst, scale);
                }
                if im2 != 0.0 {
                    dev.axpy_cols(v[d], im2, src - 1, dst);
                }
            });
        }
    }

    #[test]
    fn spmv_block_equals_dist_spmv_plus_blas1_shifts_less_launches_and_passes() {
        let a = ca_sparse::gen::circuit(600, 20140527);
        let n = a.nrows();
        let x0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() * 1e2).collect();
        let s = 5;
        for ndev in [1, 3] {
            for spec in [BasisSpec::monomial(s), every_branch(s), BasisSpec::chebyshev(4.0, 3.5, s)]
            {
                let what = format!("{ndev} devices, {:?}", spec.steps);
                let run = |fused: bool| {
                    let (mut mg, st, v) = loaded(
                        &a,
                        (&Layout::even(n, ndev), 1, s + 2),
                        (SpmvFormat::Ell, Precision::F64),
                        &x0,
                    );
                    mg.reset_counters();
                    if fused {
                        spmv_block(&mut mg, &st, &v, 0, &spec).unwrap();
                    } else {
                        spmv_block_unfused(&mut mg, &st, &v, 0, &spec);
                    }
                    let cols: Vec<Vec<u64>> = (0..ndev)
                        .map(|d| mg.device(d).mat(v[d]).as_slice().iter().map(|x| x.to_bits()))
                        .map(Iterator::collect)
                        .collect();
                    let busy: Vec<f64> =
                        (0..ndev).map(|d| mg.device(d).modeled_busy_time()).collect();
                    let ops: Vec<u64> = (0..ndev).map(|d| mg.device(d).ops()).collect();
                    (cols, mg.counters(), busy, ops, st.plan.clone())
                };
                let (cols, comm, busy, ops, plan) = run(true);
                let (cols_want, comm_want, busy_was, ops_was, _) = run(false);
                assert_eq!(cols, cols_want, "{what}");
                assert_eq!(comm.total_msgs(), comm_want.total_msgs(), "{what}");
                assert_eq!(comm.total_bytes(), comm_want.total_bytes(), "{what}");

                let model = PerfModel::default();
                let launch = model.launch_s;
                let axpys = spec.steps.iter().filter(|st| st.re != 0.0).count()
                    + spec.steps.iter().filter(|st| st.im2 != 0.0).count();
                let scals = spec.steps.iter().filter(|st| st.scale != 1.0).count();
                for d in 0..ndev {
                    let nl = plan.devs[d].local.len();
                    // gone: the column load of every step but the first and
                    // every BLAS-1 shift kernel, launch and bytes; new: the
                    // two epilogue streams of the fused kernel (next work
                    // vector, basis column), no launch
                    let gone = (s - 1) as f64 * model.blas1_time(2 * nl, Precision::F64)
                        + axpys as f64 * model.blas1_time(3 * nl, Precision::F64)
                        + scals as f64 * model.blas1_time(2 * nl, Precision::F64);
                    let new = s as f64 * 2.0 * (model.blas1_time(2 * nl, Precision::F64) - launch);
                    let saved = busy_was[d] - busy[d];
                    assert!(
                        (saved - (gone - new)).abs() < 1e-12 * busy_was[d],
                        "{what}: device {d} saved {saved}, want {}",
                        gone - new
                    );
                    let halo_ops = if ndev == 1 { 0 } else { 2 * s as u64 };
                    assert_eq!(ops[d], 1 + s as u64 + halo_ops, "{what}: device {d}");
                    assert_eq!(ops_was[d] - ops[d], (s - 1 + axpys + scals) as u64, "{what}");
                }
            }
        }
    }

    /// The kernels in a device's recorded stream, by name.
    fn kernel_names(trace: &[ca_gpusim::Cmd]) -> Vec<&'static str> {
        trace
            .iter()
            .filter_map(|c| match c {
                ca_gpusim::Cmd::Kernel { name, .. } => Some(*name),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_traced_block_is_one_mpk_step_per_vector() {
        let a = laplace2d(12, 11);
        let n = a.nrows();
        let x0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).cos()).collect();
        let (ndev, s) = (3, 5);
        let spec = every_branch(s);

        // MPK: load, exchange, then s launches and nothing else
        let (mut mg, st, v) =
            loaded(&a, (&Layout::even(n, ndev), s, s + 2), (SpmvFormat::Ell, Precision::F64), &x0);
        mg.enable_trace();
        mpk(&mut mg, &st, &v, 0, &spec).unwrap();
        for trace in mg.take_traces() {
            let mut want = vec!["scatter_col", "halo_pack", "halo_unpack"];
            want.extend(["mpk_step"; 5]);
            assert_eq!(kernel_names(&trace), want);
        }

        // shifted SpMVs: one load, then an exchange and one launch per vector
        let (mut mg, st, v) =
            loaded(&a, (&Layout::even(n, ndev), 1, s + 2), (SpmvFormat::Ell, Precision::F64), &x0);
        mg.enable_trace();
        spmv_block(&mut mg, &st, &v, 0, &spec).unwrap();
        for trace in mg.take_traces() {
            let mut want = vec!["scatter_col"];
            for _ in 0..s {
                want.extend(["halo_pack", "halo_unpack", "mpk_step"]);
            }
            assert_eq!(kernel_names(&trace), want);
        }
    }

    /// Basis bits, op count, clock and command stream of every device, and
    /// the machine's message and byte counts.
    type Outcome = (Vec<(Vec<u64>, u64, u64)>, Vec<Vec<ca_gpusim::Cmd>>, (u64, u64));

    fn outcome(mg: &mut MultiGpu, v: &[MatId]) -> Outcome {
        let devices = (0..mg.n_gpus())
            .map(|d| {
                let dev = mg.device(d);
                let bits = dev.mat(v[d]).as_slice().iter().map(|x| x.to_bits()).collect();
                (bits, dev.ops(), dev.clock().to_bits())
            })
            .collect();
        let comm = (mg.counters().total_msgs(), mg.counters().total_bytes());
        (devices, mg.take_traces(), comm)
    }

    #[test]
    fn rows_computed_once_equal_rows_computed_by_every_device_that_reads_them() {
        // the circuit layout with an empty device, and 4200 rows a device:
        // above the 4096-row grain, where idle team members help
        let cases = [
            (ca_sparse::gen::circuit(600, 20140527), Layout::from_sizes(&[200, 0, 250, 150])),
            (ca_sparse::gen::circuit(12_600, 7), Layout::even(12_600, 3)),
        ];
        let s = 4;
        let mut blocks = 0;
        for (a, layout) in &cases {
            let x0: Vec<f64> = (0..a.nrows()).map(|i| (i as f64 * 0.37).sin() * 1e2).collect();
            for format in [SpmvFormat::Ell, SpmvFormat::Hyb { quantile: 0.9 }] {
                for prec in [Precision::F64, Precision::F32] {
                    for spec in [BasisSpec::monomial(s), every_branch(s), every_branch(s - 1)] {
                        // two blocks, a zero-rate fault plan installed before
                        // block `faulty_from`, if any (a plan forces every
                        // device to compute every live level)
                        let run = |faulty_from: Option<usize>| {
                            let (mut mg, st, v) =
                                loaded(a, (layout, s, 2 * s + 1), (format, prec), &x0);
                            mg.enable_trace();
                            for b in 0..2 {
                                if faulty_from == Some(b) {
                                    mg.set_fault_plan(ca_gpusim::FaultPlan::new(20140527));
                                }
                                assert_eq!(mg.is_fault_free(), faulty_from.is_none_or(|f| b < f));
                                mpk(&mut mg, &st, &v, b * spec.s(), &spec).unwrap();
                            }
                            outcome(&mut mg, &v)
                        };
                        let what = format!("{} rows, {format:?} {prec:?}, {:?}", a.nrows(), spec);
                        let redundant = run(Some(0));
                        assert!(run(None) == redundant, "shared blocks: {what}");
                        assert!(
                            run(Some(1)) == redundant,
                            "a shared, then a redundant block: {what}"
                        );
                        blocks += 1;
                    }
                }
            }
        }
        assert_eq!(blocks, 24);
    }

    #[test]
    fn a_device_lost_mid_block_leaves_the_survivors_the_clean_block() {
        let a = laplace2d(19, 17);
        let n = a.nrows();
        let (ndev, s) = (3, 4);
        let layout = Layout::even(n, ndev);
        let x0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() * 1e2).collect();
        let spec = BasisSpec::newton(&[(1.5, 0.0), (2.0, 3.0), (2.0, -3.0), (-0.5, 0.0)], s);
        // columns, ops and clock of every device after one block whose
        // device 1 dies `loss` ops into its steps (`None`: nobody dies, and
        // with no fault plan each row is computed once)
        let run = |loss: Option<u64>| -> Vec<(Vec<u64>, u64, u64, bool)> {
            let (mut mg, st, v) =
                loaded(&a, (&layout, s, s + 1), (SpmvFormat::Ell, Precision::F64), &x0);
            st.load_column(&mut mg, &v, 0);
            st.exchange(&mut mg, 0).unwrap();
            if let Some(after) = loss {
                let plan = ca_gpusim::FaultPlan::new(20140527)
                    .with_device_loss(1, mg.device(1).ops() + after);
                mg.device_mut(1).set_faults(Some(std::sync::Arc::new(plan)));
            }
            mpk_steps(&mut mg, &st, &v, 0, &spec);
            (0..ndev)
                .map(|d| {
                    let dev = mg.device(d);
                    let bits = dev.mat(v[d]).as_slice().iter().map(|x| x.to_bits()).collect();
                    (bits, dev.ops(), dev.clock().to_bits(), dev.is_lost())
                })
                .collect()
        };
        let clean = run(None);
        // the block is s launches per device: kill device 1 after each of
        // them in turn
        let mut died_mid_block = 0;
        for after in 0..=s as u64 {
            let got = run(Some(after));
            assert_eq!((&got[0], &got[2]), (&clean[0], &clean[2]), "device 1 lost {after} ops in");
            died_mid_block += usize::from(got[1].3 && got[1].0 != clean[1].0);
        }
        // (the launch that kills still wrote: a loss at the last one shows
        // in `is_lost` alone)
        assert_eq!(died_mid_block, s - 1, "the loss must land inside the block");
    }

    /// Device memory the model charges, per device.
    fn mem_used(mg: &MultiGpu) -> Vec<usize> {
        (0..mg.n_gpus()).map(|d| mg.device(d).mem_used()).collect()
    }

    /// Every level slice of `st`, device by device, nearest level first.
    fn level_storages(mg: &MultiGpu, st: &MpkState) -> Vec<Arc<SpStorage>> {
        let slices = st.slices.iter().enumerate();
        let levels = slices.flat_map(|(d, sls)| sls[1..].iter().map(move |&sl| (d, sl)));
        levels.map(|(d, sl)| Arc::clone(&mg.device(d).slice(sl).storage)).collect()
    }

    #[test]
    fn levels_built_at_the_first_redundant_block_equal_a_build_from_the_matrix() {
        // the circuit layout with an empty device, and one above the team grain
        let cases = [
            (ca_sparse::gen::circuit(600, 20140527), Layout::from_sizes(&[200, 0, 250, 150])),
            (ca_sparse::gen::circuit(12_600, 7), Layout::even(12_600, 3)),
        ];
        let s = 4;
        let spec = every_branch(s);
        let (mut blocks, mut hit) = (0, 0);
        for (a, layout) in &cases {
            let n = a.nrows();
            let x0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() * 1e2).collect();
            // non-finite values and -0.0 at the padding columns `i % n` of
            // the first rows of every slice, and all over
            let poisoned: Vec<f64> = (0..n)
                .map(|i| match i % 7 {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    3 => -0.0,
                    _ => x0[i],
                })
                .collect();
            // a level multiplied on its own, poisoned
            let product = |storage: &SpStorage| -> Vec<u64> {
                let mut y = vec![0.0; storage.nrows()];
                storage.spmv_window(&poisoned, &mut y, 0);
                y.iter().map(|y| y.to_bits()).collect()
            };
            for format in [SpmvFormat::Ell, SpmvFormat::Hyb { quantile: 0.9 }] {
                for prec in [Precision::F64, Precision::F32] {
                    let zero = ca_gpusim::FaultPlan::new(20140527);
                    let sdc = zero.clone().with_sdc(0.5, ca_gpusim::SdcTargets::spmv_only());
                    for plan in [zero, sdc] {
                        let what = format!("{n} rows, {format:?} {prec:?}, {plan:?}");
                        // the plan installed after the load or before it
                        let run = |after_load: bool| {
                            let mut mg = MultiGpu::with_defaults(layout.ndev());
                            if !after_load {
                                mg.set_fault_plan(plan.clone());
                            }
                            let (mut mg, st, v) =
                                loaded_on(mg, a, (layout, s, s + 1), (format, prec), &x0);
                            let loaded = level_storages(&mg, &st);
                            assert!(loaded.iter().all(|l| matches!(**l, SpStorage::Shape(..))));
                            let mem_before = mem_used(&mg);
                            if after_load {
                                mg.set_fault_plan(plan.clone());
                            }
                            mpk(&mut mg, &st, &v, 0, &spec).unwrap();
                            assert_eq!(mem_used(&mg), mem_before, "{what}");
                            let levels = st.plan.devs.iter().flat_map(|dp| &dp.levels[..s - 1]);
                            let built = level_storages(&mg, &st);
                            let mut poison_shows = false;
                            for ((lv, shape), got) in levels.zip(&loaded).zip(&built) {
                                let want = format.build(a, lv.iter().map(|&r| r as usize), prec);
                                assert_eq!(shape.shape(), want.shape(), "{what}");
                                assert_eq!(got.shape(), want.shape(), "{what}");
                                let y = product(got);
                                assert!(y == product(&want), "{what}: a level's bits moved");
                                poison_shows |= y.iter().any(|y| f64::from_bits(*y).is_nan());
                            }
                            assert!(poison_shows, "{what}");
                            let clocks: Vec<(u64, u64)> = (0..mg.n_gpus())
                                .map(|d| (mg.device(d).ops(), mg.device(d).clock().to_bits()))
                                .collect();
                            (mem_before, clocks, device_bits(&mg, &st, &v))
                        };
                        let late = run(true);
                        assert!(late == run(false), "{what}");
                        hit += usize::from(late.2 != run_clean(a, layout, s, format, prec, &x0));
                        blocks += 1;
                    }
                }
            }
        }
        assert_eq!(blocks, 16);
        assert!(hit >= 4, "the SDC plan must reach the blocks it runs: {hit} of 8 did");
    }

    /// [`device_bits`] after a clean block of [`every_branch`]`(s)` steps.
    fn run_clean(
        a: &Csr,
        layout: &Layout,
        s: usize,
        format: SpmvFormat,
        prec: Precision,
        x0: &[f64],
    ) -> Vec<Vec<u64>> {
        let (mut mg, st, v) = loaded(a, (layout, s, s + 1), (format, prec), x0);
        mpk(&mut mg, &st, &v, 0, &every_branch(s)).unwrap();
        device_bits(&mg, &st, &v)
    }

    #[test]
    fn a_solve_whose_plan_came_after_the_build_is_the_solve_built_under_it() {
        use crate::cagmres::{ca_gmres, CaGmresConfig};
        let a = laplace2d(40, 36);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 3) % 11) as f64 * 0.2).collect();
        let cfg = CaGmresConfig { s: 5, m: 20, rtol: 1e-8, max_restarts: 60, ..Default::default() };
        let plan = ca_gpusim::FaultPlan::new(7).with_sdc(0.02, ca_gpusim::SdcTargets::spmv_only());
        let solve = |plan_first: bool| {
            let mut mg = MultiGpu::with_defaults(3);
            if plan_first {
                mg.set_fault_plan(plan.clone());
            }
            let sys = System::new(&mut mg, &a, Layout::even(n, 3), cfg.m, Some(cfg.s)).unwrap();
            if !plan_first {
                mg.set_fault_plan(plan.clone());
            }
            let mem = mem_used(&mg);
            sys.load_rhs(&mut mg, &b).unwrap();
            let out = ca_gmres(&mut mg, &sys, &cfg);
            let x = sys.download_x(&mut mg).unwrap();
            let bits: Vec<u64> = x.iter().map(|x| x.to_bits()).collect();
            (bits, format!("{:?}", out.stats), mem, mem_used(&mg), mg.time().to_bits())
        };
        let late = solve(false);
        assert!(late == solve(true));
        // (and the faults did reach the solve)
        let clean = {
            let mut mg = MultiGpu::with_defaults(3);
            let sys = System::new(&mut mg, &a, Layout::even(n, 3), cfg.m, Some(cfg.s)).unwrap();
            sys.load_rhs(&mut mg, &b).unwrap();
            ca_gmres(&mut mg, &sys, &cfg);
            sys.download_x(&mut mg).unwrap()
        };
        assert_ne!(late.0, clean.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
    }

    /// The exchange's old host side: expand every payload into a zeroed
    /// full-length `w`, then gather each device's `need` rows from it.
    fn ref_route(plan: &MpkPlan, n: usize, payloads: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let mut w = vec![0.0f64; n];
        for (dp, pl) in plan.devs.iter().zip(payloads) {
            for (&r, &v) in dp.send.iter().zip(pl) {
                w[r as usize] = v;
            }
        }
        plan.devs.iter().map(|dp| dp.need.iter().map(|&r| w[r as usize]).collect()).collect()
    }

    #[test]
    fn payload_indexed_halos_equal_the_expanded_w() {
        let mats = [laplace2d(13, 11), ca_sparse::gen::circuit(600, 20140527)];
        let mut plans = 0;
        for a in &mats {
            let n = a.nrows();
            // -0.0, NaN and values f32 cannot hold among the halo rows
            let x: Vec<f64> = (0..n)
                .map(|i| match i % 11 {
                    0 => -0.0,
                    1 => f64::NAN,
                    2 => 1e-300,
                    _ => (i as f64 * 0.618).sin() * 1e3,
                })
                .collect();
            for ndev in 2..=4 {
                for s in 1..=4 {
                    for prec in [Precision::F64, Precision::F32] {
                        for lost in (0..ndev).map(Some).chain([None]) {
                            let plan = MpkPlan::new(a, &Layout::even(n, ndev), s);
                            let mut mg = MultiGpu::with_defaults(ndev);
                            let format = SpmvFormat::Ell;
                            let st =
                                MpkState::load_as(&mut mg, a, plan, format, prec, None).unwrap();
                            for d in 0..ndev {
                                mg.device_mut(d).vec_mut(st.z[d][0]).copy_from_slice(&x);
                            }
                            if let Some(d) = lost {
                                let plan = ca_gpusim::FaultPlan::new(0).with_device_loss(d, 0);
                                mg.device_mut(d).set_faults(Some(std::sync::Arc::new(plan)));
                                mg.device_mut(d).compress_p(st.z[d][0], &[0], prec); // its last op
                                assert!(mg.device(d).is_lost());
                            }
                            let payloads = mg.run_map(|d, dev| {
                                dev.compress_p(st.z[d][0], &st.plan.devs[d].send, prec)
                            });
                            let got = route_halos(&st.halo_src, &payloads);
                            let want = ref_route(&st.plan, n, &payloads);
                            let what =
                                format!("n {n}, {ndev} devices, s {s}, {prec:?}, lost {lost:?}");
                            for d in 0..ndev {
                                assert_eq!(got[d].len(), st.plan.devs[d].need.len(), "{what}");
                                for (i, (g, w)) in got[d].iter().zip(&want[d]).enumerate() {
                                    assert!(
                                        g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                                        "{what}: device {d}, halo {i}: {g} vs {w}"
                                    );
                                }
                                // a lost owner's rows read +0.0
                                for (&(o, _), g) in st.halo_src[d].iter().zip(&got[d]) {
                                    if Some(o as usize) == lost {
                                        assert_eq!(g.to_bits(), 0, "{what}: device {d}");
                                    }
                                }
                            }
                            plans += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(plans, 2 * 4 * 2 * (3 + 4 + 5));
    }

    #[test]
    fn exchange_delivers_the_owners_values() {
        // end to end through issue + consume: every device's z holds the
        // owner's value at each of its halo rows, rounded once in f32
        let a = ca_sparse::gen::circuit(900, 7);
        let n = a.nrows();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).cos() * 1e2).collect();
        for prec in [Precision::F64, Precision::F32] {
            let layout = Layout::even(n, 3);
            let plan = MpkPlan::new(&a, &layout, 2);
            let mut mg = MultiGpu::with_defaults(3);
            let st = MpkState::load_as(&mut mg, &a, plan, SpmvFormat::Ell, prec, None).unwrap();
            for d in 0..3 {
                let local = layout.range(d);
                mg.device_mut(d).vec_mut(st.z[d][0])[local.clone()].copy_from_slice(&x[local]);
            }
            st.exchange(&mut mg, 0).unwrap();
            for d in 0..3 {
                let z = mg.device(d).vec(st.z[d][0]);
                for &r in &st.plan.devs[d].need {
                    assert_eq!(z[r as usize].to_bits(), prec.quantize(x[r as usize]).to_bits());
                }
            }
        }
    }
}
