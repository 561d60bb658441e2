//! Level-1 BLAS: vector-vector operations.
//!
//! These are the primitives unblocked panel factorization (`getf2`) is made
//! of: pivot search (`idamax`), column scaling (`scal`), row exchange
//! (`swap`) and the AXPY underlying the rank-1 update.

use crate::Body;
use phi_matrix::Scalar;

/// Index of the element with the largest absolute value (BLAS `IxAMAX`).
/// Returns `None` for an empty slice. Ties resolve to the lowest index, as
/// in the reference BLAS.
pub fn iamax<T: Scalar>(x: &[T]) -> Option<usize> {
    if x.is_empty() {
        return None;
    }
    let mut best = 0usize;
    let mut best_val = x[0].abs();
    for (i, v) in x.iter().enumerate().skip(1) {
        let a = v.abs();
        if a > best_val {
            best = i;
            best_val = a;
        }
    }
    Some(best)
}

/// `x := alpha * x` (BLAS `xSCAL`).
pub fn scal<T: Scalar>(alpha: T, x: &mut [T]) {
    for v in x {
        *v *= alpha;
    }
}

/// `y := alpha * x + y` (BLAS `xAXPY`): the row update of `ger`, of both
/// left-sided `trsm` solves and of `getf2`'s elimination step.
///
/// # Panics
/// Panics when the slices have different lengths.
pub fn axpy<T: Scalar>(alpha: T, x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    crate::dispatch(Axpy { alpha, x, y });
}

/// The arguments of one [`axpy`] call: the body the crate's
/// instruction-set dispatch runs.
pub(crate) struct Axpy<'a, T> {
    pub(crate) alpha: T,
    pub(crate) x: &'a [T],
    pub(crate) y: &'a mut [T],
}

impl<T: Scalar> Body for Axpy<'_, T> {
    #[inline(always)]
    fn run(self) {
        for (yi, xi) in self.y.iter_mut().zip(self.x) {
            *yi = xi.mul_add(self.alpha, *yi);
        }
    }
}

/// Dot product `xᵀ y` accumulated in the element type (BLAS `xDOT`).
pub fn dot<T: Scalar>(x: &[T], y: &[T]) -> T {
    assert_eq!(x.len(), y.len(), "dot length mismatch");
    let mut acc = T::ZERO;
    for (xi, yi) in x.iter().zip(y) {
        acc = xi.mul_add(*yi, acc);
    }
    acc
}

/// Swaps the contents of two equal-length vectors (BLAS `xSWAP`).
pub fn swap<T: Scalar>(x: &mut [T], y: &mut [T]) {
    assert_eq!(x.len(), y.len(), "swap length mismatch");
    x.swap_with_slice(y);
}

/// Copies `x` into `y` (BLAS `xCOPY`).
pub fn copy<T: Scalar>(x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), y.len(), "copy length mismatch");
    y.copy_from_slice(x);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iamax_finds_largest_magnitude() {
        assert_eq!(iamax(&[1.0f64, -5.0, 3.0]), Some(1));
        assert_eq!(iamax(&[-2.0f64, 2.0]), Some(0), "tie keeps lowest index");
        assert_eq!(iamax::<f64>(&[]), None);
    }

    #[test]
    fn scal_scales() {
        let mut x = [1.0f64, -2.0, 4.0];
        scal(0.5, &mut x);
        assert_eq!(x, [0.5, -1.0, 2.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let x = [1.0f64, 2.0, 3.0];
        let mut y = [10.0f64, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
    }

    #[test]
    fn dot_small() {
        assert_eq!(dot(&[1.0f64, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(dot::<f64>(&[], &[]), 0.0);
    }

    #[test]
    fn swap_and_copy() {
        let mut x = [1.0f32, 2.0];
        let mut y = [3.0f32, 4.0];
        swap(&mut x, &mut y);
        assert_eq!(x, [3.0, 4.0]);
        copy(&x, &mut y);
        assert_eq!(y, [3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "axpy length mismatch")]
    fn axpy_mismatch_panics() {
        let mut y = [0.0f64; 2];
        axpy(1.0, &[1.0; 3], &mut y);
    }
}
