//! A warmed-up MPK block and `dist_spmv` allocate nothing vector-sized.
//!
//! Every MPK step used to build five n-length temporaries per slice (a
//! zeroed SpMV output, a clone of the slice's row ids, the shifted values,
//! the gathered column, an `f32` copy of `x` on mixed slices) and every halo
//! exchange a zeroed n-length staging vector. This binary counts heap
//! requests through its own `#[global_allocator]` and asserts that, once the
//! per-device scratch has its size, no request reaches the smallest buffer
//! that could hold one element per local row. The halo payloads themselves
//! (boundary-sized) are still allocated per exchange and stay below it.
//! The block runs its steps device-outermost, which must not have brought
//! per-device staging back. The block update BOrth runs next, two
//! destinations per pass over the sources, requests nothing at all: no
//! factor table, no list of source slices, per call or per row chunk.
//!
//! One `#[test]` only: the counter is process-wide.

use ca_gmres_repro::dense::{blas3, Mat};
use ca_gmres_repro::gmres::mpk::{dist_spmv, mpk, SpmvFormat};
use ca_gmres_repro::gmres::prelude::*;
use ca_gmres_repro::gpusim::{MatId, MultiGpu};
use ca_gmres_repro::sparse::gen::laplace2d;
use std::alloc::{GlobalAlloc, Layout as AllocLayout, System as SystemAlloc};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};

struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every request is forwarded unchanged to the system allocator; the
// counters are statistics that publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        if ARMED.load(Relaxed) {
            LARGEST.fetch_max(layout.size(), Relaxed);
        }
        SystemAlloc.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        SystemAlloc.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        if ARMED.load(Relaxed) {
            LARGEST.fetch_max(new_size, Relaxed);
        }
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

#[test]
fn warm_mpk_and_dist_spmv_allocate_nothing_vector_sized() {
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
            let load = |mg: &mut MultiGpu, s: usize| {
                let plan = MpkPlan::new(&a, &layout, s);
                MpkState::load_with_format_prec(mg, &a, plan, format, prec).unwrap()
            };
            let st = load(&mut mg, s);
            let st1 = load(&mut mg, 1);
            let halo = st.plan.devs.iter().map(|d| d.need.len().max(d.send.len())).max().unwrap();
            assert!(halo * 8 < nlocal_bytes, "the halo payloads must sit below the threshold");
            let v: Vec<MatId> = (0..ndev)
                .map(|d| {
                    let dev = mg.device_mut(d);
                    let v = dev.alloc_mat(layout.nlocal(d), s + 1).unwrap();
                    dev.mat_mut(v).set_col(0, &x0[layout.range(d)]);
                    v
                })
                .collect();
            // shifts, a scale and a conjugate pair: every recurrence branch
            let spec = BasisSpec::newton(&[(1.5, 0.0), (2.0, 3.0), (2.0, -3.0), (-0.5, 0.0)], s);

            // warm-up: the per-device scratch takes its size here
            mpk(&mut mg, &st, &v, 0, &spec).unwrap();
            dist_spmv(&mut mg, &st1, &v, 0, 1).unwrap();

            let what = format!("{prec:?} {format:?}");
            let big = largest_request(|| {
                mpk(&mut mg, &st, &v, 0, &spec).unwrap();
            });
            assert!(big < nlocal_bytes, "{what}: an MPK block requested {big} B at once");
            let big = largest_request(|| dist_spmv(&mut mg, &st1, &v, 0, 1).unwrap());
            assert!(big < nlocal_bytes, "{what}: dist_spmv requested {big} B at once");
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
