//! Synthetic matrix generators.
//!
//! No network access means no University of Florida collection, so the
//! benchmarks run on structural analogs of the paper's four matrices
//! (Fig. 12) plus standard PDE stencils used by the test-suite. The
//! analogs match the *character* that drives the paper's results: average
//! row density, banded vs irregular structure (which controls the MPK
//! surface-to-volume ratio of Fig. 6), and symmetric vs saddle-point
//! spectra (which control GMRES convergence). See DESIGN.md for the
//! mapping table.

use crate::{Coo, Csr};
use ca_scalar::rng::Xoshiro256pp;

/// 2-D 5-point Laplacian on an `nx x ny` grid (row-major vertex order).
/// The canonical well-behaved SPD test matrix.
pub fn laplace2d(nx: usize, ny: usize) -> Csr {
    let n = nx * ny;
    let mut c = Coo::new(n, n);
    c.reserve(5 * n);
    let idx = |i: usize, j: usize| i * ny + j;
    for i in 0..nx {
        for j in 0..ny {
            let v = idx(i, j);
            c.add(v, v, 4.0);
            if i > 0 {
                c.add(v, idx(i - 1, j), -1.0);
            }
            if i + 1 < nx {
                c.add(v, idx(i + 1, j), -1.0);
            }
            if j > 0 {
                c.add(v, idx(i, j - 1), -1.0);
            }
            if j + 1 < ny {
                c.add(v, idx(i, j + 1), -1.0);
            }
        }
    }
    c.to_csr()
}

/// 3-D 7-point Laplacian on an `nx x ny x nz` grid.
pub fn laplace3d(nx: usize, ny: usize, nz: usize) -> Csr {
    let n = nx * ny * nz;
    let mut c = Coo::new(n, n);
    c.reserve(7 * n);
    let idx = |i: usize, j: usize, k: usize| (i * ny + j) * nz + k;
    for i in 0..nx {
        for j in 0..ny {
            for k in 0..nz {
                let v = idx(i, j, k);
                c.add(v, v, 6.0);
                if i > 0 {
                    c.add(v, idx(i - 1, j, k), -1.0);
                }
                if i + 1 < nx {
                    c.add(v, idx(i + 1, j, k), -1.0);
                }
                if j > 0 {
                    c.add(v, idx(i, j - 1, k), -1.0);
                }
                if j + 1 < ny {
                    c.add(v, idx(i, j + 1, k), -1.0);
                }
                if k > 0 {
                    c.add(v, idx(i, j, k - 1), -1.0);
                }
                if k + 1 < nz {
                    c.add(v, idx(i, j, k + 1), -1.0);
                }
            }
        }
    }
    c.to_csr()
}

/// 2-D convection-diffusion (upwind) — a genuinely *nonsymmetric* matrix,
/// the natural habitat of GMRES. `peclet` controls the convection
/// strength (0 = pure diffusion).
pub fn convection_diffusion(nx: usize, ny: usize, peclet: f64) -> Csr {
    let n = nx * ny;
    let mut c = Coo::new(n, n);
    c.reserve(5 * n);
    let idx = |i: usize, j: usize| i * ny + j;
    // upwind discretization of u_x + u_y with wind (1, 0.5)
    let (bx, by) = (peclet, 0.5 * peclet);
    for i in 0..nx {
        for j in 0..ny {
            let v = idx(i, j);
            c.add(v, v, 4.0 + bx + by);
            if i > 0 {
                c.add(v, idx(i - 1, j), -1.0 - bx);
            }
            if i + 1 < nx {
                c.add(v, idx(i + 1, j), -1.0);
            }
            if j > 0 {
                c.add(v, idx(i, j - 1), -1.0 - by);
            }
            if j + 1 < ny {
                c.add(v, idx(i, j + 1), -1.0);
            }
        }
    }
    c.to_csr()
}

/// Deterministic log-uniform "material coefficient" for the edge (u, w):
/// spans about two orders of magnitude. Heterogeneous element stiffness is
/// what makes real FEM matrices hard for unpreconditioned Krylov methods —
/// it fills the low end of the spectrum densely instead of leaving one
/// isolated near-null mode.
fn edge_coeff(u: usize, w: usize) -> f64 {
    let (a, b) = (u.min(w) as u64, u.max(w) as u64);
    let mut h = a.wrapping_mul(0x9E3779B97F4A7C15) ^ b.wrapping_mul(0xC2B2AE3D27D4EB4F);
    h ^= h >> 29;
    h = h.wrapping_mul(0xBF58476D1CE4E5B9);
    h ^= h >> 32;
    let u01 = (h >> 11) as f64 / (1u64 << 53) as f64;
    // log-uniform in [0.01, 1]
    (u01 * (100f64).ln()).exp() / 100.0
}

/// Visit every node `u` of an `nx x ny x nz` brick mesh (node
/// `(i, j, k)` is `(i * ny + j) * nz + k`) and each in-bounds neighbour
/// `w = u + (di, dj, dk)` of its 27-point neighbourhood, in `(i, j, k)`
/// then `(di, dj, dk)` lexicographic order, skipping `u` itself.
fn brick_neighbours(nx: usize, ny: usize, nz: usize, mut f: impl FnMut(usize, usize, [i64; 3])) {
    let idx = |i: usize, j: usize, k: usize| (i * ny + j) * nz + k;
    for i in 0..nx {
        for j in 0..ny {
            for k in 0..nz {
                for d in 0..27i64 {
                    let (di, dj, dk) = (d / 9 - 1, d / 3 % 3 - 1, d % 3 - 1);
                    let (ni, nj, nk) = (i as i64 + di, j as i64 + dj, k as i64 + dk);
                    let inside = |x: i64, len: usize| (0..len as i64).contains(&x);
                    if d != 13 && inside(ni, nx) && inside(nj, ny) && inside(nk, nz) {
                        f(idx(i, j, k), idx(ni as usize, nj as usize, nk as usize), [di, dj, dk]);
                    }
                }
            }
        }
    }
}

/// `cant` analog — FEM cantilever (Fig. 12: n = 62k, nnz/n = 64.2,
/// naturally banded). We emulate 3-D brick-element elasticity: 3 degrees
/// of freedom per node, nodes coupled to their 27-point neighborhood, all
/// 3x3 dof blocks dense. Interior rows get 81 nonzeros; the matrix is
/// symmetric positive definite and, in the natural node ordering, banded —
/// which is why the paper finds MPK works well on it.
///
/// `nx, ny, nz` are node counts; rows = `3 * nx * ny * nz`.
pub fn cantilever(nx: usize, ny: usize, nz: usize) -> Csr {
    let nodes = nx * ny * nz;
    let n = 3 * nodes;
    let mut c = Coo::new(n, n);
    c.reserve(81 * n / 2);
    // Stiffness-matrix conditioning: the diagonal equals the absolute
    // off-diagonal row sum plus a small elastic "support" term, giving the
    // near-singular smooth modes (and hundreds of GMRES iterations) real
    // FEM cantilevers exhibit.
    let mut diag = vec![0.0f64; n];
    brick_neighbours(nx, ny, nz, |u, w, [di, dj, dk]| {
        let dist = (di.abs() + dj.abs() + dk.abs()) as f64;
        // thin-beam anisotropy: the cantilever is much stiffer along its
        // axis than across it, which packs the low spectrum densely (slow
        // Krylov convergence, like the real cant matrix)
        let aniso = 0.03f64.powi(di.abs() as i32) * 0.2f64.powi(dj.abs() as i32);
        let coeff = aniso * edge_coeff(u, w);
        for a in 0..3usize {
            for b in 0..3usize {
                let base = if a == b { -1.0 } else { -0.25 };
                let val = coeff * base / (1.0 + dist);
                c.add(3 * u + a, 3 * w + b, val);
                diag[3 * u + a] += val.abs();
            }
        }
    });
    for (r, &d) in diag.iter().enumerate() {
        c.add(r, r, d + 0.01);
    }
    c.to_csr()
}

/// `G3_circuit` analog — circuit simulation (Fig. 12: n = 1.58M,
/// nnz/n = 4.8, very irregular under natural ordering). Construction:
/// nodes mostly connect to a few *random nearby* nodes (local nets) plus a
/// small fraction of *long-range* nets spanning the whole index space —
/// so the natural block-row distribution has a terrible surface-to-volume
/// ratio that partitioning dramatically improves, exactly the behaviour of
/// Fig. 6's G3_circuit panel. Symmetric and diagonally dominant.
pub fn circuit(n: usize, seed: u64) -> Csr {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    // Scramble node labels: real netlists carry no index locality, which is
    // exactly why the paper's G3_circuit has a terrible surface-to-volume
    // ratio under the natural ordering (Fig. 6) until RCM/k-way rescue it.
    let mut label: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.index(0..i + 1);
        label.swap(i, j);
    }
    let mut c = Coo::new(n, n);
    c.reserve(6 * n);
    let mut degree = vec![0.0f64; n];
    // Bounded fan-in like a real netlist: without a cap, random hub nodes
    // blow up the ELLPACK width (padding is priced like real data) and the
    // SpMV cost loses the real matrix's character.
    let mut conn = vec![0u8; n];
    const MAX_DEG: u8 = 7;
    let add_edge =
        |c: &mut Coo, degree: &mut [f64], conn: &mut [u8], a: usize, b: usize, w: f64| {
            if a != b && conn[a] < MAX_DEG && conn[b] < MAX_DEG {
                c.add(label[a] as usize, label[b] as usize, -w);
                c.add(label[b] as usize, label[a] as usize, -w);
                degree[a] += w;
                degree[b] += w;
                conn[a] += 1;
                conn[b] += 1;
            }
        };
    for v in 0..n {
        // ~1.6 local nets per node (gives ~4.8 nnz/row with both directions
        // plus the diagonal).
        let nlocal = if rng.chance(0.6) { 2 } else { 1 };
        for _ in 0..nlocal {
            // neighbor within a window; window size scales with sqrt(n) to
            // mimic a 2-D-ish layout locality.
            let win = ((n as f64).sqrt() as usize).max(4);
            let off = rng.index(1..win + 1);
            let b = if rng.chance(0.5) { v.saturating_sub(off) } else { (v + off).min(n - 1) };
            add_edge(&mut c, &mut degree, &mut conn, v, b, 1.0 + rng.unit());
        }
        // 5% long-range nets (power rails / global signals).
        if rng.chance(0.05) {
            let b = rng.index(0..n);
            add_edge(&mut c, &mut degree, &mut conn, v, b, 0.5 + rng.unit());
        }
    }
    // Diagonally dominant diagonal (ground conductance keeps it SPD).
    for v in 0..n {
        c.add(label[v] as usize, label[v] as usize, degree[v] + 0.005);
    }
    c.to_csr()
}

/// Circuit analog **with hub nets**: like [`circuit`] but without the
/// fan-in cap, plus a few clock-tree-like nets touching hundreds of
/// nodes. Real netlists contain such high-fanout nets; they wreck pure
/// ELLPACK storage (one hub row sets every row's slot count), which is
/// what the HYB format exists for.
pub fn circuit_hubbed(n: usize, seed: u64) -> Csr {
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0xDEADBEEF);
    let base = circuit(n, seed);
    let mut c = Coo::new(n, n);
    c.reserve(base.nnz() + 8 * 260);
    let mut extra_deg = vec![0.0f64; n];
    // a handful of high-fanout nets (clock trees / power rails)
    let nhubs = (n / 5000).clamp(2, 8);
    for _ in 0..nhubs {
        let hub = rng.index(0..n);
        let fanout = rng.index(120..260);
        for _ in 0..fanout {
            let b = rng.index(0..n);
            if b != hub {
                let w = 0.2 + rng.unit();
                c.add(hub, b, -w);
                c.add(b, hub, -w);
                extra_deg[hub] += w;
                extra_deg[b] += w;
            }
        }
    }
    for i in 0..n {
        let (cols, vals) = base.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            // bump the diagonal to absorb the new edges' weight
            let v = if i == j as usize { v + extra_deg[i] } else { v };
            c.add(i, j as usize, v);
        }
    }
    c.to_csr()
}

/// `dielFilterV2real` analog — FEM electromagnetics (Fig. 12: n = 1.16M,
/// nnz/n = 41.9). Emulated as a 3-D vector-element mesh: 2 unknowns per
/// node coupled across the 27-point neighborhood with indefinite-leaning
/// off-diagonal weights (EM stiffness-minus-mass character), giving ~54
/// nnz/row interior and a banded-but-wide profile. Symmetric.
pub fn diel_filter(nx: usize, ny: usize, nz: usize) -> Csr {
    diel_filter_with(nx, ny, nz, 0.675)
}

/// [`diel_filter`] with an explicit diagonal "mass shave" factor: the
/// diagonal is `shave * sum|offdiag| + coupling`; below ~0.9 the matrix
/// goes indefinite (deeper shaves = harder GMRES problems). Exposed for
/// the conditioning ablation benches.
pub fn diel_filter_with(nx: usize, ny: usize, nz: usize, shave: f64) -> Csr {
    let nodes = nx * ny * nz;
    let n = 2 * nodes;
    let mut c = Coo::new(n, n);
    c.reserve(54 * n / 2);
    // Stiffness-minus-mass character: diagonal barely above the absolute
    // off-diagonal row sum so the spectrum reaches close to zero (EM FEM
    // systems make GMRES work hard: the paper needs ~176 restarts of
    // GMRES(180) on the real matrix).
    let mut diag = vec![0.0f64; n];
    brick_neighbours(nx, ny, nz, |u, w, [di, dj, dk]| {
        let dist = (di * di + dj * dj + dk * dk) as f64;
        // layered-dielectric anisotropy
        let aniso = 0.08f64.powi(di.abs() as i32);
        let coeff = aniso * edge_coeff(u, w);
        for a in 0..2usize {
            for b in 0..2usize {
                // stiffness minus a mass-like term: mildly oscillating sign
                // with distance
                let base = if a == b { -1.0 } else { -0.3 };
                let val = coeff * base * (1.2 - 0.2 * dist);
                c.add(2 * u + a, 2 * w + b, val);
                diag[2 * u + a] += val.abs();
            }
        }
    });
    for (r, &d) in diag.iter().enumerate() {
        // the intra-node coupling sits on the 2x2 diagonal block
        let other = r ^ 1;
        c.add(r, other, 0.4);
        // stiffness MINUS mass: shaving a slice off the diagonal pushes a
        // thin band of the spectrum below zero — EM filter matrices are
        // mildly indefinite, which is what makes the real dielFilter need
        // very many GMRES restarts
        c.add(r, r, shave * d + 0.4);
    }
    c.to_csr()
}

/// `nlpkkt120` analog — KKT optimization matrix (Fig. 12: n = 3.54M,
/// nnz/n = 26.9, saddle-point). Built as the symmetric indefinite block
/// system `[[H, A^T], [A, -delta I]]` with `H` a (shifted) 3-D Laplacian
/// Hessian and `A` a 1-point-per-constraint sampling operator; `delta`
/// regularizes so GMRES converges without a preconditioner at test scale.
pub fn kkt(nx: usize, ny: usize, nz: usize) -> Csr {
    let h = laplace3d(nx, ny, nz);
    let nh = h.nrows();
    let ncon = nh / 3; // one constraint per three states
    let n = nh + ncon;
    let mut c = Coo::new(n, n);
    c.reserve(h.nnz() + 8 * ncon + n);
    // H block (shifted to improve conditioning like an interior-point
    // barrier Hessian).
    for i in 0..nh {
        let (cols, vals) = h.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            c.add(i, j as usize, v);
        }
        c.add(i, i, 0.02);
    }
    // A couples each constraint row to three consecutive states.
    for r in 0..ncon {
        for t in 0..3usize {
            let s = 3 * r + t;
            if s < nh {
                let w = (0.2 + 3.0 * edge_coeff(r, s)) * (1.0 + 0.3 * t as f64);
                c.add(nh + r, s, w); // A
                c.add(s, nh + r, w); // A^T
            }
        }
        c.add(nh + r, nh + r, -0.02); // -delta I regularization
    }
    c.to_csr()
}

/// Random sparse matrix with about `row_nnz` off-diagonal entries per row
/// and a dominant diagonal — well-conditioned, nonsymmetric, for tests.
pub fn random_diag_dominant(n: usize, row_nnz: usize, seed: u64) -> Csr {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut c = Coo::new(n, n);
    c.reserve(n * (row_nnz + 1));
    for i in 0..n {
        let mut rowsum = 0.0;
        for _ in 0..row_nnz {
            let j = rng.index(0..n);
            if j != i {
                let v = rng.in_range(-1.0, 1.0);
                c.add(i, j, v);
                rowsum += v.abs();
            }
        }
        c.add(i, i, rowsum + 1.0 + rng.unit());
    }
    c.to_csr()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laplace2d_properties() {
        let a = laplace2d(10, 10);
        assert_eq!(a.nrows(), 100);
        assert!(a.is_structurally_symmetric());
        assert_eq!(a.get(0, 0), 4.0);
        assert_eq!(a.nnz(), 100 + 2 * (2 * 10 * 9)); // diag + 2 per interior edge
    }

    #[test]
    fn laplace3d_row_sums_nonneg() {
        let a = laplace3d(4, 4, 4);
        // Laplacian row sums are >= 0 (boundary rows positive).
        for i in 0..a.nrows() {
            let s: f64 = a.row(i).1.iter().sum();
            assert!(s >= -1e-12);
        }
    }

    #[test]
    fn convection_diffusion_is_nonsymmetric() {
        let a = convection_diffusion(6, 6, 2.0);
        assert!((a.get(1, 0) - a.get(0, 1)).abs() > 0.5);
        // rows remain weakly diagonally dominant
        for i in 0..a.nrows() {
            let (cols, vals) = a.row(i);
            let mut diag = 0.0;
            let mut off = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                if c as usize == i {
                    diag = v;
                } else {
                    off += v.abs();
                }
            }
            assert!(diag >= off - 1e-12, "row {i}: {diag} < {off}");
        }
    }

    #[test]
    fn cantilever_density_matches_paper_character() {
        let a = cantilever(6, 6, 6);
        assert_eq!(a.nrows(), 3 * 216);
        // interior rows have 81 nnz; average should be in the 50-81 range
        let avg = a.avg_row_nnz();
        assert!(avg > 45.0 && avg <= 81.0, "avg nnz/row {avg}");
        assert!(a.is_structurally_symmetric());
        // banded in natural order: bandwidth ~ 3 * (ny*nz + nz + 1)
        assert!(a.bandwidth() <= 3 * (6 * 6 + 6 + 1) + 3);
    }

    #[test]
    fn circuit_density_matches_paper_character() {
        let a = circuit(4000, 7);
        let avg = a.avg_row_nnz();
        assert!(avg > 3.0 && avg < 8.0, "avg nnz/row {avg}");
        assert!(a.is_structurally_symmetric());
        // has at least one genuinely long-range edge
        assert!(a.bandwidth() > 1000, "bandwidth {}", a.bandwidth());
    }

    #[test]
    fn circuit_is_diagonally_dominant() {
        let a = circuit(500, 3);
        for i in 0..a.nrows() {
            let (cols, vals) = a.row(i);
            let mut diag = 0.0;
            let mut off = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                if c as usize == i {
                    diag = v;
                } else {
                    off += v.abs();
                }
            }
            assert!(diag > off, "row {i} not dominant");
        }
    }

    #[test]
    fn circuit_hubbed_has_hub_rows() {
        let a = circuit_hubbed(20_000, 3);
        assert!(a.max_row_nnz() > 100, "max row {}", a.max_row_nnz());
        assert!(a.avg_row_nnz() < 10.0);
        assert!(a.is_structurally_symmetric());
        // still diagonally dominant (solvable)
        for i in 0..a.nrows() {
            let (cols, vals) = a.row(i);
            let mut diag = 0.0;
            let mut off = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                if c as usize == i {
                    diag = v;
                } else {
                    off += v.abs();
                }
            }
            assert!(diag > off - 1e-9, "row {i}");
        }
    }

    #[test]
    fn diel_filter_density() {
        let a = diel_filter(5, 5, 5);
        assert_eq!(a.nrows(), 250);
        let avg = a.avg_row_nnz();
        assert!(avg > 30.0 && avg <= 54.0, "avg nnz/row {avg}");
        assert!(a.is_structurally_symmetric());
    }

    #[test]
    fn kkt_is_saddle_point() {
        let a = kkt(4, 4, 4);
        let nh = 64;
        assert!(a.is_structurally_symmetric());
        // trailing block diagonal is negative (indefinite!)
        assert!(a.get(nh, nh) < 0.0);
        // Hessian diagonal positive
        assert!(a.get(0, 0) > 0.0);
    }

    #[test]
    fn random_diag_dominant_is_dominant() {
        let a = random_diag_dominant(200, 5, 3);
        for i in 0..200 {
            let (cols, vals) = a.row(i);
            let mut diag = 0.0;
            let mut off = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                if c as usize == i {
                    diag = v;
                } else {
                    off += v.abs();
                }
            }
            assert!(diag > off);
        }
    }

    #[test]
    fn generators_deterministic() {
        assert_eq!(circuit(300, 5), circuit(300, 5));
        assert_eq!(random_diag_dominant(50, 3, 1), random_diag_dominant(50, 3, 1));
    }

    /// The `ca-perf` x-hashes and `serve_mix` digests stand on this matrix:
    /// the word-wise FNV of its CSR arrays, recorded at the parent commit
    /// from the `rand` stand-in the benchmark built with.
    #[test]
    fn circuit_instance_is_pinned() {
        let a = circuit(4000, 20140527);
        let words = (a.row_ptr().iter().map(|&p| p as u64))
            .chain(a.col_idx().iter().map(|&c| u64::from(c)))
            .chain(a.values().iter().map(|v| v.to_bits()));
        assert_eq!(a.nnz(), 16996);
        assert_eq!(ca_obs::metrics::fnv1a_words(words), 0x4a581a4d54e0526e);
    }
}
