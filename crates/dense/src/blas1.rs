//! BLAS level-1: vector-vector operations.
//!
//! These are the primitives the paper's MGS implementation is built from
//! (`xDOT` in Fig. 10). Loops are written to auto-vectorize; nothing here
//! is `unsafe` (the crate's only `unsafe` is [`tile`](crate::tile)'s calls
//! into its AVX2 instantiations, after the CPU reported the feature).
//!
//! All routines are generic over [`Scalar`]; the `f64` instantiation
//! performs exactly the operation sequence of the original hand-written
//! `f64` kernels (same 4-way unrolled accumulation in [`dot`], same
//! scaled-ssq recurrence in [`nrm2`]), so results are bit-identical.
//!
//! The level-2/3 routines no longer call [`dot`] and [`axpy`] once per
//! entry — they run the register-tiled kernels of [`tile`](crate::tile) —
//! but these two remain the *definition* of what every entry must equal:
//! [`dot`]'s four lanes, tail and fold, and [`axpy`]'s multiply-then-add,
//! are the summation-order contract the golden digests pin (DESIGN.md,
//! "Host kernels and the summation-order contract").

use ca_scalar::Scalar;

/// Dot product `x . y`.
#[inline]
pub fn dot<T: Scalar>(x: &[T], y: &[T]) -> T {
    debug_assert_eq!(x.len(), y.len());
    // 4-way unrolled accumulation: keeps the dependency chain short enough
    // for the compiler to vectorize while staying deterministic.
    let mut acc = [T::ZERO; 4];
    let chunks = x.len() / 4;
    for c in 0..chunks {
        let b = c * 4;
        acc[0] += x[b] * y[b];
        acc[1] += x[b + 1] * y[b + 1];
        acc[2] += x[b + 2] * y[b + 2];
        acc[3] += x[b + 3] * y[b + 3];
    }
    let mut tail = T::ZERO;
    for i in chunks * 4..x.len() {
        tail += x[i] * y[i];
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Euclidean norm `||x||_2`, computed with scaling to avoid overflow.
pub fn nrm2<T: Scalar>(x: &[T]) -> T {
    let mut scale = T::ZERO;
    let mut ssq = T::ONE;
    for &v in x {
        if v != T::ZERO {
            let a = v.abs();
            if scale < a {
                let r = scale / a;
                ssq = T::ONE + ssq * r * r;
                scale = a;
            } else {
                let r = a / scale;
                ssq += r * r;
            }
        }
    }
    scale * ssq.sqrt()
}

/// `y += alpha * x`.
#[inline]
pub fn axpy<T: Scalar>(alpha: T, x: &[T], y: &mut [T]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `x *= alpha`.
#[inline]
pub fn scal<T: Scalar>(alpha: T, x: &mut [T]) {
    for xi in x {
        *xi *= alpha;
    }
}

/// `y = x`.
#[inline]
pub fn copy<T: Scalar>(x: &[T], y: &mut [T]) {
    y.copy_from_slice(x);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_naive() {
        let x: Vec<f64> = (0..37).map(|i| i as f64 * 0.5).collect();
        let y: Vec<f64> = (0..37).map(|i| (i as f64).sin()).collect();
        let naive: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!((dot(&x, &y) - naive).abs() < 1e-10 * naive.abs().max(1.0));
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot::<f64>(&[], &[]), 0.0);
    }

    #[test]
    fn dot_f32_matches_f32_naive_accumulation() {
        let x: Vec<f32> = (0..23).map(|i| i as f32 * 0.25).collect();
        let y: Vec<f32> = (0..23).map(|i| 1.0 - i as f32 * 0.125).collect();
        // reference: the same unrolled schedule written directly in f32
        let mut acc = [0.0f32; 4];
        let chunks = x.len() / 4;
        for c in 0..chunks {
            let b = c * 4;
            for l in 0..4 {
                acc[l] += x[b + l] * y[b + l];
            }
        }
        let mut tail = 0.0f32;
        for i in chunks * 4..x.len() {
            tail += x[i] * y[i];
        }
        let reference = (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail;
        assert_eq!(dot(&x, &y).to_bits(), reference.to_bits());
    }

    #[test]
    fn nrm2_is_sqrt_dot() {
        let x = [3.0, 4.0];
        assert!((nrm2(&x) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn nrm2_avoids_overflow() {
        let x = [1e200, 1e200];
        let n = nrm2(&x);
        assert!(n.is_finite());
        assert!((n - 1e200 * 2.0f64.sqrt()).abs() / n < 1e-14);
    }

    #[test]
    fn nrm2_zero_vector() {
        assert_eq!(nrm2(&[0.0f64; 5]), 0.0);
    }

    #[test]
    fn nrm2_f32_avoids_overflow() {
        // naive sum-of-squares would overflow f32 (4e76), the norm itself fits
        let x = [2e38f32, 1e38f32];
        let n = nrm2(&x);
        assert!(n.is_finite());
        assert!((n.to_f64() - (5.0f64.sqrt() * 1e38)).abs() / n.to_f64() < 1e-6);
    }

    #[test]
    fn axpy_accumulates() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
    }

    #[test]
    fn scal_scales() {
        let mut x = [1.0, -2.0];
        scal(-3.0, &mut x);
        assert_eq!(x, [-3.0, 6.0]);
    }
}
