//! A warmed-up MPK block, `spmv_block` and `dist_spmv` allocate nothing
//! vector-sized.
//!
//! Every MPK step used to build five n-length temporaries per slice (a
//! zeroed SpMV output, a clone of the slice's row ids, the shifted values,
//! the gathered column, an `f32` copy of `x` on mixed slices) and every halo
//! exchange a zeroed n-length staging vector. This binary counts heap
//! requests through its own `#[global_allocator]` and asserts that, once the
//! per-device scratch has its size, no request reaches the smallest buffer
//! that could hold one element per local row. The halo payloads themselves
//! (boundary-sized) are still allocated per exchange and stay below it.
//! On a fault-free machine each step hands every device the level-1 rows
//! its owners computed, through a halo-sized buffer per device and block,
//! which must not have brought vector-sized staging back. The block update BOrth runs next, two
//! destinations per pass over the sources, requests nothing at all: no
//! factor table, no list of source slices, per call or per row chunk.
//!
//! The same allocator keeps a live-bytes high-water mark, which pins what
//! `System::new` holds on the host: the s-step plan multiplies by the local
//! blocks the s = 1 plan built, and on a fault-free machine its level slices
//! are priced shapes until a block computes them redundantly, so the peak is
//! the device memory the model charges *less one copy of the local blocks
//! and every level slice* — the model prices both loads and the levels, the
//! host stores one local block and no level entry.
//!
//! One `#[test]` only: the counters are process-wide.

use ca_gmres_repro::dense::{blas3, Mat};
use ca_gmres_repro::gmres::mpk::{dist_spmv, mpk as mpk_block, spmv_block, SpmvFormat};
use ca_gmres_repro::gmres::prelude::*;
use ca_gmres_repro::gpusim::MultiGpu;
use ca_gmres_repro::sparse::gen::{cantilever, laplace2d};
use ca_gmres_repro::sparse::Ell;
use std::alloc::{GlobalAlloc, Layout as AllocLayout, System as SystemAlloc};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);
/// Bytes requested and not yet returned, and the most that ever was.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    PEAK.fetch_max(LIVE.fetch_add(by, Relaxed) + by, Relaxed);
}

// SAFETY: every request is forwarded unchanged to the system allocator; the
// counters are statistics that publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        if ARMED.load(Relaxed) {
            LARGEST.fetch_max(layout.size(), Relaxed);
        }
        grew(layout.size());
        SystemAlloc.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        SystemAlloc.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        if ARMED.load(Relaxed) {
            LARGEST.fetch_max(new_size, Relaxed);
        }
        LIVE.fetch_sub(layout.size(), Relaxed);
        grew(new_size);
        SystemAlloc.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Largest single heap request `f` makes, in bytes.
fn largest_request(f: impl FnOnce()) -> usize {
    LARGEST.store(0, Relaxed);
    ARMED.store(true, Relaxed);
    f();
    ARMED.store(false, Relaxed);
    LARGEST.load(Relaxed)
}

/// What `f` returns, and by how many bytes the heap stood above its level
/// at entry at the worst moment of `f`.
fn peak_growth<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let r = f();
    (r, PEAK.load(Relaxed) - base)
}

fn system_new_holds_each_local_block_once() {
    let a = cantilever(10, 10, 10); // 3000 rows of up to 81 entries
    let (n, ndev, m, s) = (a.nrows(), 3, 30, 5);
    let layout = Layout::even(n, ndev);
    let mut mg = MultiGpu::with_defaults(ndev);
    let (_, peak) = peak_growth(|| System::new(&mut mg, &a, layout.clone(), m, Some(s)).unwrap());
    // the model's side: basis, work vectors, level slices, and the local
    // blocks twice — one load per plan
    let charged: usize = (0..ndev).map(|d| mg.device(d).mem_used()).sum();
    let local: usize = (0..ndev)
        .map(|d| Ell::<f64>::from_csr_rows(&a, layout.range(d)).bytes() + 4 * layout.nlocal(d))
        .sum();
    // (a second host copy would have to show: it is a quarter of the total)
    assert!(4 * local > charged, "local blocks {local} B of {charged} B charged");
    // the level slices are priced shapes on a fault-free machine: charged,
    // and not held
    let levels: usize = MpkPlan::new(&a, &layout, s)
        .devs
        .iter()
        .flat_map(|dp| &dp.levels[..s - 1])
        .map(|lv| {
            Ell::<f64>::from_csr_rows(&a, lv.iter().map(|&r| r as usize)).bytes() + 4 * lv.len()
        })
        .sum();
    let held = charged - local - levels;
    let bound = held + held / 10;
    assert!(
        peak < bound,
        "System::new peaked at {peak} B, without levels and a local block {bound} B"
    );
}

#[test]
fn warm_mpk_and_dist_spmv_allocate_nothing_vector_sized() {
    system_new_holds_each_local_block_once();

    let a = laplace2d(96, 90); // 8640 rows, halos of a few hundred
    let n = a.nrows();
    let ndev = 3;
    let layout = Layout::even(n, ndev);
    // the narrowest per-row buffer there was: u32 row ids / an f32 copy
    let nlocal_bytes = (0..ndev).map(|d| layout.nlocal(d)).min().unwrap() * 4;
    let x0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.01).sin()).collect();

    for prec in [Precision::F64, Precision::F32] {
        for format in [SpmvFormat::Ell, SpmvFormat::Hyb { quantile: 0.5 }] {
            let s = 4;
            let mut mg = MultiGpu::with_defaults(ndev);
            // both plans as a solver gets them: at f64 the s-step plan
            // multiplies by the s = 1 plan's local blocks, at f32 by its own
            let sys =
                System::with_format(&mut mg, &a, layout.clone(), s, Some(s), format, prec).unwrap();
            let (st, v) = (sys.mpk.as_ref().unwrap(), &sys.v);
            for d in 0..ndev {
                let local = |st: &MpkState| &mg.device(d).slice(st.local_slice(d)).storage;
                let shared = Arc::ptr_eq(local(st), local(&sys.spmv));
                assert_eq!(shared, prec == Precision::F64, "{prec:?} {format:?} device {d}");
            }
            // the system's s = 1 plan is always f64: an s = 1 plan of its own
            // at `prec` keeps the f32 `dist_spmv` path under the counter
            let plan1 = MpkPlan::new(&a, &layout, 1);
            let own1 = MpkState::load_as(&mut mg, &a, plan1, format, prec, None).unwrap();
            let halo = st.plan.devs.iter().map(|d| d.need.len().max(d.send.len())).max().unwrap();
            assert!(halo * 8 < nlocal_bytes, "the halo payloads must sit below the threshold");
            for d in 0..ndev {
                mg.device_mut(d).mat_mut(v[d]).set_col(0, &x0[layout.range(d)]);
            }
            // shifts, a scale and a conjugate pair: every recurrence branch
            let spec = BasisSpec::newton(&[(1.5, 0.0), (2.0, 3.0), (2.0, -3.0), (-0.5, 0.0)], s);

            // warm-up: the per-device scratch takes its size here
            mpk_block(&mut mg, st, v, 0, &spec).unwrap();
            for st1 in [&sys.spmv, &own1] {
                dist_spmv(&mut mg, st1, v, 0, 1).unwrap();
                spmv_block(&mut mg, st1, v, 0, &spec).unwrap();
            }

            let what = format!("{prec:?} {format:?}");
            let big = largest_request(|| {
                mpk_block(&mut mg, st, v, 0, &spec).unwrap();
            });
            assert!(big < nlocal_bytes, "{what}: an MPK block requested {big} B at once");
            for st1 in [&sys.spmv, &own1] {
                let big = largest_request(|| dist_spmv(&mut mg, st1, v, 0, 1).unwrap());
                let p1 = st1.prec;
                assert!(big < nlocal_bytes, "{what}: {p1:?} dist_spmv requested {big} B at once");
                let big = largest_request(|| spmv_block(&mut mg, st1, v, 0, &spec).unwrap());
                assert!(big < nlocal_bytes, "{what}: {p1:?} spmv_block requested {big} B at once");
            }
        }
    }

    // the paired block update: sources left and right of an odd and an even
    // number of destinations, a zero factor (the one-destination fallback),
    // and a source among the destinations (the unpaired path)
    let mut v: Mat = Mat::from_fn(1300, 12, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0);
    let factor =
        |l: usize, d: usize| if (l, d) == (1, 1) { 0.0 } else { 0.01 * (l + 2 * d) as f64 };
    for (src, dst) in [((0, 7), (7, 12)), ((6, 12), (0, 6)), ((2, 5), (0, 12))] {
        let big = largest_request(|| blas3::update_cols(&mut v, src, dst, factor));
        assert_eq!(big, 0, "update_cols {src:?} -> {dst:?} requested {big} B");
    }
}
