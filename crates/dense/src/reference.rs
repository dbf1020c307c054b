//! Test oracles: the per-entry level-1 loops the tiled kernels replaced,
//! kept verbatim, and the seeded bit-equality suite that pins every
//! rewritten routine to them (`to_bits()` equality, `f64` and `f32`) — on
//! every kernel instantiation this host can run ([`Isa::all_on_this_host`]),
//! not only the one [`Isa::detect`] would pick.

use crate::blas1::{axpy, dot, scal};
use crate::mat::Cols;
use crate::tile::Isa;
use crate::{blas2, blas3, tile, DenseError, Mat};
use ca_scalar::{rng::SplitMix64, Scalar};

// ---------- the retained reference loops ----------

fn gemm_tn<T: Scalar>(alpha: T, a: &Mat<T>, b: &Mat<T>, beta: T, c: &mut Mat<T>) {
    for j in 0..b.ncols() {
        let bj = b.col(j);
        for i in 0..a.ncols() {
            let d = dot(a.col(i), bj);
            let cij = &mut c[(i, j)];
            *cij = alpha * d + if beta == T::ZERO { T::ZERO } else { beta * *cij };
        }
    }
}

fn gemm_nn<T: Scalar>(alpha: T, a: &Mat<T>, b: &Mat<T>, beta: T, c: &mut Mat<T>) {
    for j in 0..b.ncols() {
        let bj = b.col(j).to_vec();
        let cj = c.col_mut(j);
        if beta == T::ZERO {
            cj.iter_mut().for_each(|v| *v = T::ZERO);
        } else if beta != T::ONE {
            cj.iter_mut().for_each(|v| *v *= beta);
        }
        for (l, &blj) in bj.iter().enumerate() {
            let f = alpha * blj;
            if f != T::ZERO {
                let al = a.col(l);
                for (ci, &ail) in cj.iter_mut().zip(al) {
                    *ci += f * ail;
                }
            }
        }
    }
}

fn syrk_tn<T: Scalar>(alpha: T, a: &Mat<T>, beta: T, c: &mut Mat<T>) {
    let k = a.ncols();
    for j in 0..k {
        for i in 0..=j {
            let d = dot(a.col(i), a.col(j));
            let v = alpha * d + if beta == T::ZERO { T::ZERO } else { beta * c[(i, j)] };
            c[(i, j)] = v;
            c[(j, i)] = v;
        }
    }
}

fn trsm_right_upper<T: Scalar>(b: &mut Mat<T>, r: &Mat<T>) -> crate::Result<()> {
    let k = r.ncols();
    for j in 0..k {
        for l in 0..j {
            let rlj = r[(l, j)];
            if rlj != T::ZERO {
                let (bl, bj) = b.two_cols_mut(l, j);
                axpy(-rlj, bl, bj);
            }
        }
        let d = r[(j, j)];
        if d == T::ZERO {
            return Err(DenseError::SingularTriangular { index: j });
        }
        scal(T::ONE / d, b.col_mut(j));
    }
    Ok(())
}

fn gemv_t<T: Scalar>(alpha: T, a: &Mat<T>, x: &[T], beta: T, y: &mut [T]) {
    for j in 0..a.ncols() {
        let d = dot(a.col(j), x);
        y[j] = alpha * d + if beta == T::ZERO { T::ZERO } else { beta * y[j] };
    }
}

/// The device's old Gram loop: per output column, flat dots or panel dots
/// added up from zero in panel order.
fn gemm_tn_panels<T: Scalar>(
    v: &Mat<T>,
    (a0, a1): (usize, usize),
    (b0, b1): (usize, usize),
    panel_rows: Option<usize>,
) -> Mat<T> {
    let rows = v.nrows();
    let mut c = Mat::zeros(a1 - a0, b1 - b0);
    for jb in 0..b1 - b0 {
        let cb_full = v.col(b0 + jb);
        for ja in 0..a1 - a0 {
            match panel_rows {
                None => c[(ja, jb)] = dot(v.col(a0 + ja), cb_full),
                Some(h) => {
                    let nb = rows.div_ceil(h).max(1);
                    for p in 0..nb {
                        let r0 = p * h;
                        let r1 = (r0 + h).min(rows);
                        c[(ja, jb)] += dot(&v.col(a0 + ja)[r0..r1], &cb_full[r0..r1]);
                    }
                }
            }
        }
    }
    c
}

/// The device's old update loop: one `axpy` per (destination, source).
fn update_cols<T: Scalar>(
    v: &mut Mat<T>,
    (s0, s1): (usize, usize),
    (d0, d1): (usize, usize),
    factor: impl Fn(usize, usize) -> T,
) {
    for d in d0..d1 {
        for l in s0..s1 {
            let f = factor(l - s0, d - d0);
            if f != T::ZERO && l != d {
                let (src, dst) = if l < d {
                    v.two_cols_mut(l, d)
                } else {
                    let (x, y) = v.two_cols_mut(d, l);
                    (y, x)
                };
                axpy(f, src, dst);
            }
        }
    }
}

// ---------- seeded inputs ----------

/// Uniform in `[-1, 1)`, with a wide dynamic range every eighth draw so
/// that rounding differs between summation orders.
fn value<T: Scalar>(rng: &mut SplitMix64) -> T {
    T::from_f64(rng.wide())
}

fn mat<T: Scalar>(rng: &mut SplitMix64, rows: usize, cols: usize) -> Mat<T> {
    Mat::from_fn(rows, cols, |_, _| value(rng))
}

/// A coefficient matrix sprinkled with zeros and non-finite values.
fn coeffs<T: Scalar>(rng: &mut SplitMix64, rows: usize, cols: usize) -> Mat<T> {
    Mat::from_fn(rows, cols, |_, _| match rng.next_u64() % 12 {
        0 | 1 => T::ZERO,
        2 => T::from_f64(-0.0),
        3 => T::from_f64(f64::NAN),
        4 => T::from_f64(f64::INFINITY),
        5 => T::from_f64(f64::NEG_INFINITY),
        _ => value(rng),
    })
}

/// Around the lane count, the panel heights and the 512-row update chunk.
const ROWS: [usize; 12] = [0, 1, 3, 4, 5, 383, 384, 385, 511, 512, 513, 1000];
/// (columns of `a`, columns of `b`): no multiples of the 4 x 2 block only.
const WIDTHS: [(usize, usize); 7] = [(1, 1), (2, 3), (5, 2), (7, 1), (9, 5), (11, 11), (13, 6)];
const PANELS: [Option<usize>; 4] = [None, Some(32), Some(100), Some(384)];

/// Bit equality, except that any NaN equals any NaN: which operand's
/// payload survives `NaN + NaN` is the instruction selector's choice, not
/// part of the operation sequence the kernels promise.
fn same_bits<T: Scalar>(x: T, y: T) -> bool {
    x.to_bits_u64() == y.to_bits_u64() || (x.to_f64().is_nan() && y.to_f64().is_nan())
}

fn assert_bits<T: Scalar>(got: &Mat<T>, want: &Mat<T>, what: &str) {
    assert_eq!((got.nrows(), got.ncols()), (want.nrows(), want.ncols()), "{what}: shape");
    for j in 0..want.ncols() {
        for i in 0..want.nrows() {
            let (g, w) = (got[(i, j)], want[(i, j)]);
            assert!(same_bits(g, w), "{what}: entry ({i},{j}) {g} vs {w}");
        }
    }
}

/// `cols.len() / ld` columns of `rows` live entries each, cut into windows
/// of `w` rows: `(first row, that window of every column)` — the pieces a
/// shared device kernel hands out.
fn row_windows<T: Scalar>(
    cols: &mut [T],
    ld: usize,
    rows: usize,
    w: usize,
) -> Vec<(usize, Vec<&mut [T]>)> {
    let mut per_col: Vec<_> =
        cols.chunks_mut(ld).map(|c| c.split_at_mut(rows).0.chunks_mut(w)).collect();
    (0..rows)
        .step_by(w)
        .map(|r0| (r0, per_col.iter_mut().map(|c| c.next().unwrap()).collect()))
        .collect()
}

// ---------- the suite ----------

fn products_match<T: Scalar>() -> usize {
    let mut rng = SplitMix64::new(0x13);
    let mut shapes = 0;
    for rows in ROWS {
        for (ka, kb) in WIDTHS {
            let a: Mat<T> = mat(&mut rng, rows, ka);
            let b: Mat<T> = mat(&mut rng, rows, kb);
            let what = format!("rows {rows}, {ka} x {kb}");
            let (alpha, beta) = (T::from_f64(-1.5), T::from_f64(0.25));
            for beta in [T::ZERO, beta] {
                let seed_c: Mat<T> = mat(&mut rng, ka, kb);
                let (mut got, mut want) = (seed_c.clone(), seed_c);
                blas3::gemm_tn(alpha, &a, &b, beta, &mut got);
                gemm_tn(alpha, &a, &b, beta, &mut want);
                assert_bits(&got, &want, &format!("gemm_tn {what}"));

                let seed_g: Mat<T> = mat(&mut rng, ka, ka);
                // syrk reads the upper triangle only: start symmetric
                let seed_g = Mat::from_fn(ka, ka, |i, j| seed_g[(i.min(j), i.max(j))]);
                let (mut got, mut want) = (seed_g.clone(), seed_g);
                blas3::syrk_tn(alpha, &a, beta, &mut got);
                syrk_tn(alpha, &a, beta, &mut want);
                assert_bits(&got, &want, &format!("syrk_tn {what}"));

                let x = b.col(0);
                let seed_y: Vec<T> = (0..ka).map(|_| value(&mut rng)).collect();
                let (mut got, mut want) = (seed_y.clone(), seed_y);
                blas2::gemv_t(alpha, &a, x, beta, &mut got);
                gemv_t(alpha, &a, x, beta, &mut want);
                assert!(got.iter().zip(&want).all(|(&g, &w)| same_bits(g, w)), "gemv_t {what}");
            }
            shapes += 1;
        }
    }
    shapes
}

fn panelled_products_match<T: Scalar>(isa: Isa) -> usize {
    let mut rng = SplitMix64::new(0x2014);
    let mut shapes = 0;
    for rows in ROWS {
        for (ka, kb) in WIDTHS {
            // one basis-like matrix; the a-block left and right of the b-block
            let v: Mat<T> = mat(&mut rng, rows, ka + kb + 1);
            for (a, b) in [((0, ka), (ka + 1, ka + 1 + kb)), ((kb + 1, kb + 1 + ka), (0, kb))] {
                for h in PANELS {
                    let what = format!("rows {rows}, a {a:?}, b {b:?}, h {h:?}");
                    let (va, vb) = (v.cols(a.0, a.1), v.cols(b.0, b.1));
                    // whole (the product and the Gram matrix), then in
                    // blocks of output rows, as a shared device kernel
                    // computes them, each block on its own
                    for (rows_of, upper) in
                        [(ka, false), (ka, true), (1, false), (3, true), (8, false), (8, true)]
                    {
                        let (b, vb) = if upper { (a, va) } else { (b, vb) };
                        let kb = vb.ncols();
                        let mut ct = vec![T::ZERO; ka * kb];
                        for (p, ct) in ct.chunks_mut((rows_of * kb).max(1)).enumerate() {
                            blas3::gemm_tn_rows_with(isa, va, vb, p * rows_of, h, upper, ct);
                        }
                        let got = Mat::from_fn(ka, kb, |i, j| {
                            if upper && i > j {
                                ct[i + j * kb]
                            } else {
                                ct[j + i * kb]
                            }
                        });
                        let what = format!("gemm_tn_rows {what}, {rows_of} rows, upper {upper}");
                        assert_bits(&got, &gemm_tn_panels(&v, a, b, h), &what);
                    }
                    shapes += 1;
                }
            }
        }
    }
    shapes
}

fn updates_match<T: Scalar>(isa: Isa) -> usize {
    let mut rng = SplitMix64::new(0x108);
    let mut shapes = 0;
    for rows in ROWS {
        for (ka, kb) in WIDTHS {
            let mut v: Mat<T> = mat(&mut rng, rows, ka + kb + 1);
            if rows > 0 {
                // a poisoned source that only a zero coefficient may hide
                v[(rows / 2, 0)] = T::from_f64(f64::NAN);
            }
            let c: Mat<T> = coeffs(&mut rng, ka, kb);
            for (a, b) in [((0, ka), (ka + 1, ka + 1 + kb)), ((kb + 1, kb + 1 + ka), (0, kb))] {
                let (mut got, mut want) = (v.clone(), v.clone());
                blas3::update_cols_with(isa, &mut got, a, b, |i, j| -c[(i, j)]);
                update_cols(&mut want, a, b, |i, j| -c[(i, j)]);
                assert_bits(&got, &want, &format!("update_cols rows {rows}, a {a:?}, b {b:?}"));
                // in row windows, as a shared device kernel runs it
                for w in [1, 5, 512, 700] {
                    let mut got = v.clone();
                    let ld = got.ld();
                    let (left, dst, right) = got.split_cols_mut(b.0, b.1);
                    let src = if a.1 <= b.0 {
                        left.cols(a.0, a.1)
                    } else {
                        right.cols(a.0 - b.1, a.1 - b.1)
                    };
                    for (r0, mut cols) in row_windows(dst, ld, rows, w) {
                        let r1 = r0 + cols[0].len();
                        blas3::update_rows_with(isa, src.rows(r0, r1), &mut cols, |i, j| {
                            -c[(i, j)]
                        });
                    }
                    let what = format!("update_rows rows {rows}, a {a:?}, b {b:?}, windows {w}");
                    assert_bits(&got, &want, &what);
                }
                shapes += 1;
            }
            // one source inside the destination range (rank-1 update), then
            // several: destinations then depend on each other, which only
            // the one-destination path gets right
            let (mut got, mut want) = (v.clone(), v.clone());
            let src = ka / 2;
            blas3::update_cols_with(isa, &mut got, (src, src + 1), (0, ka), |_, j| -c[(j, 0)]);
            update_cols(&mut want, (src, src + 1), (0, ka), |_, j| -c[(j, 0)]);
            assert_bits(&got, &want, &format!("rank-1 rows {rows}, {ka} columns"));
            let (mut got, mut want) = (v.clone(), v.clone());
            let (s, d) = ((src, ka), (0, ka + kb));
            blas3::update_cols_with(isa, &mut got, s, d, |i, j| -c[(i, j % kb)]);
            update_cols(&mut want, s, d, |i, j| -c[(i, j % kb)]);
            assert_bits(&got, &want, &format!("overlapping rows {rows}, s {s:?}, d {d:?}"));

            let mut a: Mat<T> = mat(&mut rng, rows, ka);
            if rows > 0 {
                a[(rows / 2, 0)] = T::from_f64(f64::INFINITY);
            }
            for beta in [T::ZERO, T::ONE, T::from_f64(0.5)] {
                let seed_c: Mat<T> = mat(&mut rng, rows, kb);
                let (mut got, mut want) = (seed_c.clone(), seed_c);
                blas3::gemm_nn(T::from_f64(2.0), &a, &c, beta, &mut got);
                gemm_nn(T::from_f64(2.0), &a, &c, beta, &mut want);
                assert_bits(&got, &want, &format!("gemm_nn rows {rows}, {ka} x {kb}, beta {beta}"));
            }
        }
    }
    shapes
}

fn triangular_solves_match<T: Scalar>(isa: Isa) -> usize {
    let mut rng = SplitMix64::new(0x7);
    let mut shapes = 0;
    for rows in ROWS {
        for k in [1, 2, 5, 11] {
            let b: Mat<T> = mat(&mut rng, rows, k);
            let mut r: Mat<T> = coeffs(&mut rng, k, k);
            for j in 0..k {
                r[(j, j)] = T::from_f64(1.0 + j as f64);
            }
            // the last round has a zero pivot: same error, same partial state
            for singular in [None, Some(k / 2)] {
                if let Some(j) = singular {
                    r[(j, j)] = T::ZERO;
                }
                let (mut got, mut want) = (b.clone(), b.clone());
                let res = blas3::trsm_right_upper_with(isa, &mut got, &r);
                assert_eq!(res, trsm_right_upper(&mut want, &r));
                assert_eq!(res.is_err(), singular.is_some());
                assert_bits(
                    &got,
                    &want,
                    &format!("trsm rows {rows}, k {k}, singular {singular:?}"),
                );
                // in row windows, as a shared device kernel runs it
                for w in [1, 5, 700] {
                    let mut got = b.clone();
                    let ld = got.ld();
                    for (_, mut cols) in row_windows(got.as_mut_slice(), ld, rows, w) {
                        blas3::trsm_rows_with(isa, &mut cols, &r);
                    }
                    assert_eq!(blas3::trsm_pivots(&r), res);
                    assert_bits(&got, &want, &format!("trsm_rows rows {rows}, k {k}, windows {w}"));
                }
                shapes += 1;
            }
        }
    }
    shapes
}

#[test]
fn tiled_kernels_match_the_per_entry_loops_bit_for_bit() {
    // the public entry points, on whatever instantiation the CPU selects
    let mut shapes = products_match::<f64>();
    products_match::<f32>();
    let isas = Isa::all_on_this_host();
    for &isa in &isas {
        shapes += panelled_products_match::<f64>(isa)
            + updates_match::<f64>(isa)
            + triangular_solves_match::<f64>(isa);
        panelled_products_match::<f32>(isa);
        updates_match::<f32>(isa);
        triangular_solves_match::<f32>(isa);
    }
    assert!(shapes >= 200 * isas.len(), "only {shapes} shapes");
    // CI greps for this line: a host that silently falls back to one path
    // must not pass for one that tested both
    let names: Vec<&str> = isas.iter().map(|isa| isa.name()).collect();
    println!("isa paths exercised: {}", names.join(", "));
}

#[test]
fn zero_factor_hides_a_non_finite_source() {
    let poisoned = [f64::NAN, f64::INFINITY, 1.0];
    let clean = [1.0, 2.0, 3.0];
    for isa in Isa::all_on_this_host() {
        let mut dst = [10.0, 20.0, 30.0];
        let terms = [(0.0, &poisoned[..]), (2.0, &clean[..]), (-0.0, &poisoned[..])];
        tile::fused_axpy_with(isa, &mut dst, terms.into_iter());
        assert_eq!(dst, [12.0, 24.0, 36.0], "{}", isa.name());
    }
}

/// In a pair of destinations, a zero, `-0.0`, NaN or infinite factor in one
/// of them must act on that destination alone: zeros hide the poisoned
/// source there and only there, non-finite factors poison it there and only
/// there — wherever in a group of four, or in the last short group, the
/// source sits.
#[test]
fn a_special_factor_in_one_destination_of_a_pair_stays_there() {
    let mut rng = SplitMix64::new(0x16);
    let specials = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    for isa in Isa::all_on_this_host() {
        for (rows, nsrc) in [(5, 1), (5, 4), (513, 6), (5, 7)] {
            let clean: Mat = mat(&mut rng, rows, nsrc + 3);
            let c: Mat = mat(&mut rng, nsrc, 3);
            // destinations right of the sources, then left of them
            for (s, d) in [((0, nsrc), (nsrc, nsrc + 3)), ((3, nsrc + 3), (0, 3))] {
                for at in 0..nsrc {
                    let mut v = clean.clone();
                    v[(rows / 2, s.0 + at)] = f64::NAN;
                    v[(rows - 1, s.0 + at)] = f64::INFINITY;
                    for (special, which) in specials.iter().flat_map(|&x| [(x, 0), (x, 1)]) {
                        let factor =
                            |i, j| if i == at && j == which { special } else { -c[(i, j)] };
                        let (mut got, mut want) = (v.clone(), v.clone());
                        blas3::update_cols_with(isa, &mut got, s, d, factor);
                        update_cols(&mut want, s, d, factor);
                        let what = format!(
                            "{}: rows {rows}, sources {s:?}, poisoned {at}, factor {special} \
                             in destination {which}",
                            isa.name()
                        );
                        assert_bits(&got, &want, &what);
                        let finite = |j: usize| got.col(d.0 + j).iter().all(|x| x.is_finite());
                        assert_eq!(finite(which), special == 0.0, "{what}: that destination");
                        assert!(!finite(1 - which), "{what}: the other destination");
                    }
                }
            }
        }
    }
}

/// Operands for which a fused multiply-add rounds differently from a
/// multiply followed by an add: with `a = 1 + e`, `e * e` below half an ulp
/// of `1 + 2e`, `fl(a * a) = 1 + 2e` and `fl(a * a) - fl(a * a) = 0`, but
/// `fma(-a, a, fl(a * a)) = -e * e`. Rows alternating `a, -a` against a
/// column of `a` therefore leave every lane, and the tail, at exactly zero
/// if and only if no multiply-add was contracted.
fn fma_canary<T: Scalar>(e: f64) {
    let a = T::from_f64(1.0 + e);
    // the exact square is 1 + 2e + e^2: the product must have lost the e^2
    assert_eq!(a * a, T::from_f64(1.0 + 2.0 * e), "e^2 must round away");
    for isa in Isa::all_on_this_host() {
        // six whole chunks (a, -a, a, ...) and a two-row tail (a, -a)
        let rows = 26;
        let plus = |i: usize| (if i < 24 { i / 4 } else { i }).is_multiple_of(2);
        let x: Mat<T> = Mat::from_fn(rows, 9, |i, _| if plus(i) { a } else { -a });
        let y: Mat<T> = Mat::from_fn(rows, 3, |_, _| a);
        tile::dots_tn_with(isa, x.cols(0, 9), y.cols(0, 3), false, |i, j, d| {
            assert_eq!(d.to_bits_u64(), 0, "{}: dot ({i},{j}) = {d}", isa.name());
        });

        // an axpy chain a, -a, a, -a, a, -a over sources of a, from zero:
        // one destination, then two (a full group and a short one each)
        let src: Mat<T> = Mat::from_fn(13, 6, |_, _| a);
        let f = |k: usize| if k.is_multiple_of(2) { a } else { -a };
        let mut dst = vec![T::ZERO; 13];
        tile::fused_axpy_with(isa, &mut dst, (0..6).map(|k| (f(k), src.col(k))));
        assert!(dst.iter().all(|d| d.to_bits_u64() == 0), "{}: axpy chain {dst:?}", isa.name());
        let mut v: Mat<T> = Mat::zeros(13, 8);
        for k in 0..6 {
            v.set_col(k, src.col(k));
        }
        blas3::update_cols_with(isa, &mut v, (0, 6), (6, 8), |k, _| f(k));
        for j in 6..8 {
            let zero = v.col(j).iter().all(|d| d.to_bits_u64() == 0);
            assert!(zero, "{}: paired axpy chain, destination {j}", isa.name());
        }
    }
}

#[test]
fn no_multiply_add_is_contracted_on_any_path() {
    fma_canary::<f64>(2f64.powi(-27));
    fma_canary::<f32>(2f64.powi(-13));
}

#[test]
fn dots_tn_visits_each_wanted_entry_once() {
    let mut rng = SplitMix64::new(3);
    for isa in Isa::all_on_this_host() {
        for (ka, kb) in [(1, 1), (8, 1), (9, 1), (4, 2), (5, 3), (17, 17)] {
            let a: Mat = mat(&mut rng, 10, ka);
            let b: Mat = mat(&mut rng, 10, kb);
            for upper in [false, ka == kb] {
                let mut seen = Mat::<f64>::zeros(ka, kb);
                tile::dots_tn_with(isa, a.cols(0, ka), b.cols(0, kb), upper, |i, j, d| {
                    seen[(i, j)] += 1.0;
                    assert_eq!(d.to_bits(), dot(a.col(i), b.col(j)).to_bits());
                });
                for j in 0..kb {
                    for i in 0..ka {
                        let wanted = !upper || i <= j;
                        assert_eq!(
                            seen[(i, j)],
                            if wanted { 1.0 } else { 0.0 },
                            "({i},{j}) upper={upper}"
                        );
                    }
                }
            }
        }
    }
    // a one-column view of a plain slice is a column like any other
    let x = [1.0, 2.0, 3.0, 4.0, 5.0];
    tile::dots_tn(Cols::single(&x), Cols::single(&x), false, |_, _, d| assert_eq!(d, 55.0));
}
