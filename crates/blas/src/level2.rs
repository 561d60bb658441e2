//! Level-2 BLAS: matrix-vector operations.
//!
//! `ger` is the workhorse of unblocked panel factorization: each
//! elimination step applies a rank-1 update to the remaining panel.
//! `gemv`/`trsv` support the solve path and the reference checks.

use crate::level1::axpy;
use phi_matrix::{MatrixView, MatrixViewMut, Scalar};

/// Rank-1 update `A := A + alpha * x yᵀ` (BLAS `xGER`).
///
/// # Panics
/// Panics when `x.len() != A.rows()` or `y.len() != A.cols()`.
pub fn ger<T: Scalar>(alpha: T, x: &[T], y: &[T], a: &mut MatrixViewMut<'_, T>) {
    assert_eq!(x.len(), a.rows(), "ger: x length");
    assert_eq!(y.len(), a.cols(), "ger: y length");
    for (i, &xi) in x.iter().enumerate() {
        axpy(alpha * xi, y, a.row_mut(i));
    }
}

/// Matrix-vector product `y := alpha * A x + beta * y` (BLAS `xGEMV`,
/// no-transpose).
pub fn gemv<T: Scalar>(alpha: T, a: &MatrixView<'_, T>, x: &[T], beta: T, y: &mut [T]) {
    assert_eq!(x.len(), a.cols(), "gemv: x length");
    assert_eq!(y.len(), a.rows(), "gemv: y length");
    for (i, yi) in y.iter_mut().enumerate() {
        let mut acc = T::ZERO;
        for (aij, &xj) in a.row(i).iter().zip(x) {
            acc = aij.mul_add(xj, acc);
        }
        *yi = alpha * acc + beta * *yi;
    }
}

/// Solves `L x = b` in place where `L` is lower triangular; `unit` selects
/// an implicit unit diagonal (BLAS `xTRSV`, lower/no-trans).
pub fn trsv_lower<T: Scalar>(l: &MatrixView<'_, T>, x: &mut [T], unit: bool) {
    let n = l.rows();
    assert_eq!(l.cols(), n, "trsv: square");
    assert_eq!(x.len(), n, "trsv: x length");
    for i in 0..n {
        let mut acc = x[i];
        for (j, &xj) in x.iter().enumerate().take(i) {
            acc -= l.at(i, j) * xj;
        }
        x[i] = if unit { acc } else { acc / l.at(i, i) };
    }
}

/// Solves `U x = b` in place where `U` is upper triangular with explicit
/// diagonal (BLAS `xTRSV`, upper/no-trans).
pub fn trsv_upper<T: Scalar>(u: &MatrixView<'_, T>, x: &mut [T]) {
    let n = u.rows();
    assert_eq!(u.cols(), n, "trsv: square");
    assert_eq!(x.len(), n, "trsv: x length");
    for i in (0..n).rev() {
        let mut acc = x[i];
        for (j, &xj) in x.iter().enumerate().skip(i + 1) {
            acc -= u.at(i, j) * xj;
        }
        x[i] = acc / u.at(i, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_matrix::Matrix;

    #[test]
    fn ger_rank1() {
        let mut a = Matrix::<f64>::zeros(2, 3);
        ger(2.0, &[1.0, 2.0], &[3.0, 4.0, 5.0], &mut a.view_mut());
        assert_eq!(a.row(0), &[6.0, 8.0, 10.0]);
        assert_eq!(a.row(1), &[12.0, 16.0, 20.0]);
    }

    #[test]
    fn gemv_matches_manual() {
        let a = Matrix::<f64>::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut y = vec![1.0, 1.0];
        gemv(2.0, &a.view(), &[1.0, 1.0], 0.5, &mut y);
        // 2*A*[1,1] + 0.5*[1,1] = [6.5, 14.5]
        assert_eq!(y, vec![6.5, 14.5]);
    }

    #[test]
    fn trsv_lower_unit_and_nonunit() {
        let l = Matrix::<f64>::from_rows(&[&[2.0, 0.0], &[3.0, 4.0]]);
        let mut x = vec![2.0, 11.0];
        trsv_lower(&l.view(), &mut x, false);
        assert_eq!(x, vec![1.0, 2.0]);

        let mut xu = vec![5.0, 17.0];
        trsv_lower(&l.view(), &mut xu, true); // diagonal treated as 1
        assert_eq!(xu, vec![5.0, 2.0]);
    }

    #[test]
    fn trsv_upper_solves() {
        let u = Matrix::<f64>::from_rows(&[&[2.0, 1.0], &[0.0, 4.0]]);
        let mut x = vec![4.0, 8.0];
        trsv_upper(&u.view(), &mut x);
        assert_eq!(x, vec![1.0, 2.0]);
    }
}
