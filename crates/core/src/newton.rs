//! Newton-basis machinery: Ritz shifts, Leja ordering, the per-step shift
//! schedule, and the change-of-basis matrix `B` with `A V_{1:s} = V B`.
//!
//! The monomial basis `v_{k+1} = A v_k` loses linear independence at the
//! rate `|lambda_2 / lambda_1|` (§IV-A), so CA-GMRES runs its first restart
//! cycle as standard GMRES, takes the eigenvalues of the resulting
//! Hessenberg matrix as shifts, orders them in a Leja ordering, and
//! thereafter generates `v_{k+1} = (A - theta_k I) v_k`. Complex shifts
//! come in conjugate pairs and are fused into one real quadratic step.

use crate::cagmres::BasisChoice;
use ca_dense::hessenberg::{hessenberg_eigenvalues, Complex};
use ca_dense::leja::{conjugate_pairs_adjacent, leja_order};
use ca_dense::Mat;

/// One MPK step in real arithmetic:
/// `v_{k+1} = scale * (A - re I) v_k + im2 * v_{k-1}`.
///
/// `scale = 1` covers the monomial and Newton bases; the Chebyshev basis
/// uses its three-term recurrence's `2/delta` factor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// Real shift applied this step.
    pub re: f64,
    /// Coefficient on `v_{k-1}`: `b^2` for the second half of a Newton
    /// complex pair `a ± bi`, `-scale_k/scale_{k-1}`-style terms for
    /// Chebyshev, zero otherwise.
    pub im2: f64,
    /// Multiplier on the shifted product.
    pub scale: f64,
}

/// The shift schedule for generating `s` new vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct BasisSpec {
    /// Per-step shift data, length `s`.
    pub steps: Vec<Step>,
}

impl BasisSpec {
    /// Monomial basis: all-zero shifts.
    pub fn monomial(s: usize) -> Self {
        Self { steps: vec![Step { re: 0.0, im2: 0.0, scale: 1.0 }; s] }
    }

    /// Build the schedule for `s` steps from Leja-ordered shifts.
    ///
    /// A complex pair `(a + bi, a - bi)` occupying steps `k, k+1` becomes
    /// `Step{a, 0}` then `Step{a, b^2}` (the §IV-A real-arithmetic
    /// rearrangement). If the *last* step would be the first half of a
    /// pair, the pair cannot be completed inside the block, so the shift
    /// degrades to its real part — the same truncation Hoemmen describes.
    pub fn newton(shifts: &[Complex], s: usize) -> Self {
        debug_assert!(conjugate_pairs_adjacent(shifts));
        let mut steps = Vec::with_capacity(s);
        let mut k = 0usize;
        while steps.len() < s {
            // cycle through the shift list if s exceeds it
            let (re, im) = if shifts.is_empty() { (0.0, 0.0) } else { shifts[k % shifts.len()] };
            if im == 0.0 {
                steps.push(Step { re, im2: 0.0, scale: 1.0 });
                k += 1;
            } else if steps.len() + 2 <= s {
                steps.push(Step { re, im2: 0.0, scale: 1.0 });
                steps.push(Step { re, im2: im * im, scale: 1.0 });
                k += 2; // skip the conjugate
            } else {
                // truncated pair: use the real part only
                steps.push(Step { re, im2: 0.0, scale: 1.0 });
                k += 2;
            }
        }
        Self { steps }
    }

    /// Number of steps.
    pub fn s(&self) -> usize {
        self.steps.len()
    }

    /// The change-of-basis matrix `B` ((s+1) x s) with `A V_{1:s} = V B`.
    ///
    /// From `v_{k+1} = scale_k (A - re_k) v_k + im2_k v_{k-1}`:
    /// `A v_k = re_k v_k + (1/scale_k) v_{k+1} - (im2_k/scale_k) v_{k-1}`,
    /// so column `k` carries `re_k` on the diagonal, `1/scale_k` on the
    /// subdiagonal, and `-im2_k/scale_k` on the superdiagonal.
    pub fn change_matrix(&self) -> Mat {
        let s = self.s();
        let mut b = Mat::zeros(s + 1, s);
        for (k, st) in self.steps.iter().enumerate() {
            b[(k, k)] = st.re;
            b[(k + 1, k)] = 1.0 / st.scale;
            if st.im2 != 0.0 {
                debug_assert!(k > 0);
                b[(k - 1, k)] = -st.im2 / st.scale;
            }
        }
        b
    }

    /// Chebyshev basis for a spectrum enclosed in the real interval
    /// `[c - delta, c + delta]` (Hoemmen ch. 7's other well-conditioned
    /// choice): `v_1 = (1/delta)(A - c) v_0`, then
    /// `v_{k+1} = (2/delta)(A - c) v_k - v_{k-1}` — the shifted-and-scaled
    /// Chebyshev three-term recurrence, whose boundedness on the spectral
    /// interval keeps the basis condition number growing only
    /// polynomially.
    pub fn chebyshev(center: f64, delta: f64, s: usize) -> Self {
        assert!(delta > 0.0, "Chebyshev needs a positive spectral half-width");
        let mut steps = Vec::with_capacity(s);
        for k in 0..s {
            if k == 0 {
                steps.push(Step { re: center, im2: 0.0, scale: 1.0 / delta });
            } else {
                steps.push(Step { re: center, im2: -1.0, scale: 2.0 / delta });
            }
        }
        Self { steps }
    }

    /// Chebyshev basis on the real interval enclosing the Ritz values
    /// `shifts` (which must not be empty).
    pub(crate) fn chebyshev_enclosing(shifts: &[Complex], s: usize) -> Self {
        let lo = shifts.iter().map(|&(re, _)| re).fold(f64::INFINITY, f64::min);
        let hi = shifts.iter().map(|&(re, _)| re).fold(f64::NEG_INFINITY, f64::max);
        let center = 0.5 * (lo + hi);
        let delta = (0.5 * (hi - lo)).max(1e-8 * center.abs()).max(1e-300);
        Self::chebyshev(center, delta, s)
    }

    /// The `s`-step schedule of `basis` over harvested Ritz values;
    /// monomial when there is nothing to shift by.
    pub(crate) fn from_shifts(shifts: Option<&[Complex]>, basis: BasisChoice, s: usize) -> Self {
        match (shifts, basis) {
            (Some(sh), BasisChoice::Newton) => Self::newton(sh, s),
            (Some(sh), BasisChoice::Chebyshev) if !sh.is_empty() => {
                Self::chebyshev_enclosing(sh, s)
            }
            _ => Self::monomial(s),
        }
    }

    /// Truncated schedule for a short final block (`s' <= s` steps),
    /// never splitting a complex pair.
    pub fn truncate(&self, s_new: usize) -> Self {
        assert!(s_new <= self.s());
        let mut steps = self.steps[..s_new].to_vec();
        // if the cut separated a pair, demote the dangling first half
        if let Some(last) = steps.last().copied() {
            let next_is_pair_tail = self.steps.get(s_new).map(|n| n.im2 != 0.0).unwrap_or(false);
            if last.im2 == 0.0 && next_is_pair_tail {
                let fixed = Step { re: last.re, im2: 0.0, scale: last.scale };
                *steps.last_mut().unwrap() = fixed;
            }
        }
        Self { steps }
    }
}

/// Compute `s` Leja-ordered Newton shifts from the first restart cycle's
/// Hessenberg matrix (its square top `m x m` block).
///
/// Following \[17\] and \[4, §7.3\], the Ritz values approximate extreme
/// eigenvalues of `A`; Leja ordering maximizes consecutive shift
/// distances. Conjugate pairs are kept intact.
pub fn newton_shifts_from_hessenberg(h: &Mat, s: usize) -> ca_dense::Result<Vec<Complex>> {
    let m = h.ncols().min(h.nrows());
    let hsq = h.top_left(m, m);
    let eigs = hessenberg_eigenvalues(&hsq)?;
    let ordered = leja_order(&eigs);
    // Take the first s in Leja order without splitting a trailing pair.
    let mut out: Vec<Complex> = Vec::with_capacity(s);
    let mut i = 0usize;
    while out.len() < s && i < ordered.len() {
        let (re, im) = ordered[i];
        if im == 0.0 {
            out.push((re, 0.0));
            i += 1;
        } else if out.len() + 2 <= s {
            out.push((re, im));
            out.push((re, -im));
            i += 2;
        } else {
            out.push((re, 0.0)); // demote dangling half-pair to real
            i += 2;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monomial_change_matrix_is_shift() {
        let b = BasisSpec::monomial(3).change_matrix();
        assert_eq!(b.nrows(), 4);
        assert_eq!(b.ncols(), 3);
        for k in 0..3 {
            assert_eq!(b[(k, k)], 0.0);
            assert_eq!(b[(k + 1, k)], 1.0);
        }
    }

    #[test]
    fn newton_real_shifts() {
        let spec = BasisSpec::newton(&[(2.0, 0.0), (-1.0, 0.0)], 4);
        assert_eq!(spec.steps.len(), 4);
        assert_eq!(spec.steps[0], Step { re: 2.0, im2: 0.0, scale: 1.0 });
        assert_eq!(spec.steps[1], Step { re: -1.0, im2: 0.0, scale: 1.0 });
        // cycles
        assert_eq!(spec.steps[2], Step { re: 2.0, im2: 0.0, scale: 1.0 });
        let b = spec.change_matrix();
        assert_eq!(b[(0, 0)], 2.0);
        assert_eq!(b[(1, 0)], 1.0);
    }

    #[test]
    fn complex_pair_fused() {
        let spec = BasisSpec::newton(&[(1.0, 2.0), (1.0, -2.0)], 2);
        assert_eq!(spec.steps[0], Step { re: 1.0, im2: 0.0, scale: 1.0 });
        assert_eq!(spec.steps[1], Step { re: 1.0, im2: 4.0, scale: 1.0 });
        let b = spec.change_matrix();
        assert_eq!(b[(0, 1)], -4.0);
        assert_eq!(b[(1, 1)], 1.0);
        assert_eq!(b[(2, 1)], 1.0);
    }

    #[test]
    fn dangling_pair_demoted_to_real() {
        let spec = BasisSpec::newton(&[(1.0, 2.0), (1.0, -2.0)], 1);
        assert_eq!(spec.steps.len(), 1);
        assert_eq!(spec.steps[0], Step { re: 1.0, im2: 0.0, scale: 1.0 });
    }

    #[test]
    fn truncate_never_leaves_orphan_im2() {
        let spec = BasisSpec::newton(&[(0.0, 1.0), (0.0, -1.0), (3.0, 0.0)], 3);
        let t = spec.truncate(1);
        assert_eq!(t.steps.len(), 1);
        assert_eq!(t.steps[0].im2, 0.0);
        let t2 = spec.truncate(2);
        assert_eq!(t2.steps[1].im2, 1.0); // full pair kept
    }

    #[test]
    fn chebyshev_change_matrix_consistent() {
        let spec = BasisSpec::chebyshev(2.0, 0.5, 3);
        let b = spec.change_matrix();
        // step 0: scale 1/delta = 2 -> subdiag 1/2
        assert!((b[(1, 0)] - 0.5).abs() < 1e-15);
        assert_eq!(b[(0, 0)], 2.0);
        // step 1: scale 4, im2 -1 -> superdiag 1/4
        assert!((b[(2, 1)] - 0.25).abs() < 1e-15);
        assert!((b[(0, 1)] - 0.25).abs() < 1e-15);
    }

    #[test]
    fn shifts_from_known_hessenberg() {
        // diag(5, 1, 3) -> eigenvalues 5, 1, 3; Leja order starts at 5, then 1.
        let mut h = Mat::zeros(3, 3);
        h[(0, 0)] = 5.0;
        h[(1, 1)] = 1.0;
        h[(2, 2)] = 3.0;
        let s = newton_shifts_from_hessenberg(&h, 2).unwrap();
        assert_eq!(s, vec![(5.0, 0.0), (1.0, 0.0)]);
    }

    #[test]
    fn shifts_keep_conjugate_pairs() {
        // companion of (x^2 + 1)(x - 3): eigenvalues 3, i, -i
        let mut h = Mat::zeros(3, 3);
        // companion matrix for x^3 - 3x^2 + x - 3
        h[(0, 2)] = 3.0;
        h[(1, 2)] = -1.0;
        h[(2, 2)] = 3.0;
        h[(1, 0)] = 1.0;
        h[(2, 1)] = 1.0;
        let s = newton_shifts_from_hessenberg(&h, 3).unwrap();
        assert_eq!(s.len(), 3);
        let spec = BasisSpec::newton(&s, 3);
        // no orphaned pair halves
        let n_im2: usize = spec.steps.iter().filter(|st| st.im2 != 0.0).count();
        let n_pairs = s.iter().filter(|&&(_, im)| im > 0.0).count();
        assert_eq!(n_im2, n_pairs);
    }

    #[test]
    fn an_s_step_newton_schedule_reads_the_first_s_of_every_ritz_value() {
        // the identity that lets every driver harvest all `m` Ritz values:
        // the schedule over the full Leja order is the schedule over an
        // `s`-value harvest, a pair cut at step `s` demoted either way
        let (mut real_cases, mut straddles) = (0, 0);
        ca_scalar::cases(64, |rng| {
            let m = rng.index(2..14);
            let symmetric = rng.chance(0.5);
            let mut h = Mat::zeros(m + 1, m);
            for j in 0..m {
                h[(j + 1, j)] = rng.in_range(0.1, 1.0);
                for i in 0..=j {
                    h[(i, j)] = rng.in_range(-1.0, 1.0);
                }
            }
            if symmetric {
                // symmetric tridiagonal: a real spectrum
                for j in 1..m {
                    (0..j - 1).for_each(|i| h[(i, j)] = 0.0);
                    h[(j - 1, j)] = h[(j, j - 1)];
                }
            }
            let full = newton_shifts_from_hessenberg(&h, m).unwrap();
            real_cases += usize::from(full.iter().all(|&(_, im)| im == 0.0));
            for s in 1..=m {
                let harvest = newton_shifts_from_hessenberg(&h, s).unwrap();
                straddles += usize::from(harvest[s - 1].1 == 0.0 && full[s - 1].1 != 0.0);
                assert_eq!(
                    BasisSpec::from_shifts(Some(&harvest), BasisChoice::Newton, s),
                    BasisSpec::from_shifts(Some(&full), BasisChoice::Newton, s),
                    "m = {m}, s = {s}"
                );
            }
        });
        assert!(real_cases > 0 && straddles > 0, "real {real_cases}, straddling {straddles}");
    }
}
