//! Partial-pivot LU factorization and the full `Ax = b` solve path.
//!
//! [`getf2`] is the unblocked kernel that factorizes one column panel —
//! the paper's `Task1` / `DGETRF` node in the dependency DAG (Fig. 5b).
//! [`getrf`] is the blocked right-looking driver: at each stage it factors
//! the panel `[D L]ᵢ`, swaps rows from the pivot vector, forward-solves the
//! row panel `Uᵢ` and GEMM-updates the trailing sub-matrix `Aᵢ` (Fig. 5a).
//! This sequential driver is the reference the parallel schedulers in
//! `phi-hpl` are validated against: every scheduling flavour must produce
//! the same factors and pivots.

use crate::gemm::{gemm_with, BlockSizes};
use crate::laswp::{laswp_forward, laswp_vec};
use crate::level1::axpy;
use crate::trsm::{trsm_left_lower_unit, trsm_left_upper};
use phi_matrix::{Matrix, MatrixViewMut, Scalar};

/// Failure modes of the factorization.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LuError {
    /// A zero pivot was encountered at the given global column: the matrix
    /// is singular to working precision.
    Singular {
        /// Global column index of the zero pivot.
        col: usize,
    },
}

impl std::fmt::Display for LuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LuError::Singular { col } => write!(f, "matrix is singular at column {col}"),
        }
    }
}

impl std::error::Error for LuError {}

/// Unblocked partial-pivot LU of an `m × n` panel, in place.
///
/// On return the panel holds `L` (unit lower, implicit diagonal) below and
/// `U` on/above the diagonal; `ipiv[j]` records the row swapped with row
/// `j` (indices local to the panel). `col_offset` is only used to report
/// the global column in errors.
pub fn getf2<T: Scalar>(
    a: &mut MatrixViewMut<'_, T>,
    ipiv: &mut Vec<usize>,
    col_offset: usize,
) -> Result<(), LuError> {
    let (m, n) = (a.rows(), a.cols());
    let steps = m.min(n);
    ipiv.clear();
    ipiv.reserve(steps);
    for j in 0..steps {
        // Pivot search in column j, rows j..m, in place; ties keep the
        // lowest index, as `iamax` does.
        let mut piv = j;
        let mut best = a.at(j, j).abs();
        for i in j + 1..m {
            let v = a.at(i, j).abs();
            if v > best {
                piv = i;
                best = v;
            }
        }
        ipiv.push(piv);
        let pval = a.at(piv, j);
        if pval == T::ZERO {
            return Err(LuError::Singular {
                col: col_offset + j,
            });
        }
        // Swap rows j and piv across the full panel width.
        a.swap_rows(j, piv);
        // Scale each multiplier, then apply the rank-1 update of the
        // trailing part, A[i, j+1..] -= l[i] * u[j+1..], row by row; the
        // coefficient is formed as `-1 · l[i]`, the way `ger(-1, ..)` does.
        let inv = T::ONE / a.at(j, j);
        let (top, mut below) = a.reborrow().split_rows_mut(j + 1);
        let u = &top.row(j)[j + 1..];
        for r in 0..below.rows() {
            let row = below.row_mut(r);
            row[j] *= inv;
            axpy(-T::ONE * row[j], u, &mut row[j + 1..]);
        }
    }
    Ok(())
}

/// The result of a full factorization: the packed `LU` factors and the
/// pivot sequence.
#[derive(Clone, Debug)]
pub struct LuFactors<T: Scalar> {
    /// `L\U` packed in one matrix (unit diagonal of `L` implicit).
    pub lu: Matrix<T>,
    /// `ipiv[i]` = row swapped with row `i` (absolute indices).
    pub ipiv: Vec<usize>,
}

impl<T: Scalar> LuFactors<T> {
    /// Solves `A x = b` using the stored factors:
    /// apply `P`, forward-solve `L y = Pb`, back-solve `U x = y`.
    pub fn solve(&self, b: &[T]) -> Vec<T> {
        let n = self.lu.rows();
        assert_eq!(b.len(), n, "rhs length");
        let mut x = b.to_vec();
        laswp_vec(&mut x, &self.ipiv);
        let mut xm = Matrix::<T>::from_fn(n, 1, |i, _| x[i]);
        trsm_left_lower_unit(&self.lu.view(), &mut xm.view_mut());
        trsm_left_upper(&self.lu.view(), &mut xm.view_mut());
        (0..n).map(|i| xm[(i, 0)]).collect()
    }

    /// Extracts the explicit unit-lower factor (tests/debugging).
    pub fn l_matrix(&self) -> Matrix<T> {
        let n = self.lu.rows();
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                T::ONE
            } else if j < i {
                self.lu[(i, j)]
            } else {
                T::ZERO
            }
        })
    }

    /// Extracts the explicit upper factor (tests/debugging).
    pub fn u_matrix(&self) -> Matrix<T> {
        let n = self.lu.rows();
        Matrix::from_fn(n, n, |i, j| if j >= i { self.lu[(i, j)] } else { T::ZERO })
    }
}

/// One stage of the blocked right-looking LU: factor the panel starting
/// at column `j`, swap, forward-solve the row panel and GEMM-update the
/// trailing sub-matrix. Returns the next stage's starting column.
///
/// The factorization state between stages is fully captured by
/// `(a, ipiv, j)`: checkpoint those three, and the factorization can be
/// resumed from the checkpoint — after a crash, on another host — and
/// produce factors bit-identical to an uninterrupted [`getrf`]. That
/// resumability is the numeric ground truth behind the analytic
/// host-death recovery model in `phi-hpl`.
pub fn getrf_stage<T: Scalar>(
    a: &mut MatrixViewMut<'_, T>,
    j: usize,
    nb: usize,
    bs: &BlockSizes,
    ipiv: &mut [usize],
) -> Result<usize, LuError> {
    let (m, n) = (a.rows(), a.cols());
    assert!(nb > 0, "panel width must be positive");
    let steps = m.min(n);
    assert!(j < steps, "stage start {j} out of range (steps = {steps})");
    assert_eq!(ipiv.len(), steps, "pivot buffer length");
    let jb = nb.min(steps - j);
    let mut panel_piv = Vec::with_capacity(jb);

    // 1. Factor the current panel: rows j..m, cols j..j+jb.
    {
        let mut panel = a.sub_mut(j, j, m - j, jb);
        getf2(&mut panel, &mut panel_piv, j)?;
    }
    // Record absolute pivots.
    for (t, &p) in panel_piv.iter().enumerate() {
        ipiv[j + t] = j + p;
    }
    // 2. Apply the swaps to the columns left and right of the panel
    //    (the panel itself was swapped during factorization).
    if j > 0 {
        let mut left = a.sub_mut(j, 0, m - j, j);
        laswp_forward(&mut left, &panel_piv);
    }
    if j + jb < n {
        let mut right = a.sub_mut(j, j + jb, m - j, n - j - jb);
        laswp_forward(&mut right, &panel_piv);

        // 3. Forward solve the row panel: U12 := L11^{-1} A12.
        //    L11 is the unit-lower jb×jb block of the factored panel.
        let (panel_rows, mut right_all) =
            a.reborrow().into_sub(j, j, m - j, n - j).split_cols_mut(jb);
        let l11 = panel_rows.as_view().sub(0, 0, jb, jb);
        {
            let mut u12 = right_all.sub_mut(0, 0, jb, n - j - jb);
            trsm_left_lower_unit(&l11, &mut u12);
        }
        // 4. Trailing update: A22 -= L21 * U12.
        if j + jb < m {
            let l21 = panel_rows.as_view().sub(jb, 0, m - j - jb, jb);
            let (u12_rows, mut a22) = right_all.split_rows_mut(jb);
            let u12 = u12_rows.as_view();
            gemm_with(-T::ONE, &l21, &u12, T::ONE, &mut a22, bs);
        }
    }
    Ok(j + jb)
}

/// Blocked right-looking LU with partial pivoting, in place, with panel
/// width `nb` — the sequential reference for every parallel Linpack
/// flavour in the workspace. Drives [`getrf_stage`] to completion.
///
/// Returns the absolute pivot sequence.
pub fn getrf<T: Scalar>(
    a: &mut MatrixViewMut<'_, T>,
    nb: usize,
    bs: &BlockSizes,
) -> Result<Vec<usize>, LuError> {
    let (m, n) = (a.rows(), a.cols());
    assert!(nb > 0, "panel width must be positive");
    let steps = m.min(n);
    let mut ipiv = vec![0usize; steps];
    let mut j = 0;
    while j < steps {
        j = getrf_stage(a, j, nb, bs, &mut ipiv)?;
    }
    Ok(ipiv)
}

/// Factorizes a copy of `a` and solves `A x = b` — the convenience entry
/// point used by examples and tests.
pub fn lu_solve<T: Scalar>(a: &Matrix<T>, b: &[T], nb: usize) -> Result<Vec<T>, LuError> {
    assert_eq!(a.rows(), a.cols(), "lu_solve requires a square matrix");
    let mut lu = a.clone();
    let ipiv = getrf(&mut lu.view_mut(), nb, &BlockSizes::default())?;
    Ok(LuFactors { lu, ipiv }.solve(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm_naive;
    use phi_matrix::{hpl_residual, MatGen, Matrix};

    #[test]
    fn getf2_reproduces_plu() {
        let a0 = MatGen::new(1).matrix::<f64>(8, 8);
        let mut a = a0.clone();
        let mut piv = Vec::new();
        getf2(&mut a.view_mut(), &mut piv, 0).unwrap();
        let f = LuFactors {
            lu: a,
            ipiv: piv.clone(),
        };
        // P*A0 must equal L*U.
        let mut pa = a0.clone();
        laswp_forward(&mut pa.view_mut(), &piv);
        let mut lu_prod = Matrix::<f64>::zeros(8, 8);
        gemm_naive(
            1.0,
            &f.l_matrix().view(),
            &f.u_matrix().view(),
            0.0,
            &mut lu_prod.view_mut(),
        );
        assert!(pa.approx_eq(&lu_prod, 1e-12));
    }

    #[test]
    fn getrf_matches_getf2_factors() {
        let a0 = MatGen::new(2).matrix::<f64>(40, 40);
        let mut unblocked = a0.clone();
        let mut piv_u = Vec::new();
        getf2(&mut unblocked.view_mut(), &mut piv_u, 0).unwrap();

        let mut blocked = a0.clone();
        let piv_b = getrf(&mut blocked.view_mut(), 8, &BlockSizes::default()).unwrap();

        assert_eq!(piv_u, piv_b, "pivot sequences must agree");
        assert!(
            blocked.approx_eq(&unblocked, 1e-10),
            "diff = {}",
            blocked.max_abs_diff(&unblocked)
        );
    }

    #[test]
    fn solve_passes_hpl_residual() {
        for n in [1usize, 2, 13, 64, 100] {
            let a = MatGen::new(7).matrix::<f64>(n, n);
            let b = MatGen::new(8).rhs::<f64>(n);
            let x = lu_solve(&a, &b, 16).unwrap();
            let report = hpl_residual(&a.view(), &x, &b);
            assert!(
                report.passed,
                "n={n}: scaled residual {}",
                report.scaled_residual
            );
        }
    }

    #[test]
    fn checkpoint_restore_resumes_bit_identically() {
        // The host-death recovery story in numbers: factor three panels,
        // checkpoint (a, ipiv, j), lose the live state, restore the
        // checkpoint on a "survivor" and finish. The factors must be
        // bit-identical to an uninterrupted run and the solve must pass
        // the HPL residual test.
        let (n, nb) = (96usize, 16usize);
        let a0 = MatGen::new(21).matrix::<f64>(n, n);
        let b = MatGen::new(22).rhs::<f64>(n);
        let bs = BlockSizes::default();

        let mut full = a0.clone();
        let piv_full = getrf(&mut full.view_mut(), nb, &bs).unwrap();

        let mut a = a0.clone();
        let mut ipiv = vec![0usize; n];
        let mut j = 0;
        for _ in 0..3 {
            j = getrf_stage(&mut a.view_mut(), j, nb, &bs, &mut ipiv).unwrap();
        }
        let (ckpt_a, ckpt_piv, ckpt_j) = (a.clone(), ipiv.clone(), j);
        // The crash: the in-flight state is gone.
        for i in 0..n {
            for c in 0..n {
                a[(i, c)] = f64::NAN;
            }
        }
        ipiv.fill(usize::MAX);
        // Restore and resume to completion.
        let (mut a, mut ipiv, mut j) = (ckpt_a, ckpt_piv, ckpt_j);
        while j < n {
            j = getrf_stage(&mut a.view_mut(), j, nb, &bs, &mut ipiv).unwrap();
        }

        assert_eq!(ipiv, piv_full, "pivot sequences must agree");
        for i in 0..n {
            for c in 0..n {
                assert_eq!(
                    a[(i, c)].to_bits(),
                    full[(i, c)].to_bits(),
                    "factor bits diverged at ({i},{c})"
                );
            }
        }
        let x = LuFactors { lu: a, ipiv }.solve(&b);
        let report = hpl_residual(&a0.view(), &x, &b);
        assert!(report.passed, "scaled residual {}", report.scaled_residual);
    }

    #[test]
    fn singular_matrix_detected() {
        let mut a = MatGen::new(9).matrix::<f64>(6, 6);
        // Zero out column 3: rank-1 updates keep it exactly zero, so the
        // pivot search at step 3 finds nothing.
        for i in 0..6 {
            a[(i, 3)] = 0.0;
        }
        let err = lu_solve(&a, &[1.0; 6], 2).unwrap_err();
        match err {
            LuError::Singular { .. } => {}
        }
    }

    #[test]
    fn rectangular_panels_factor() {
        // Tall panel (m > n) — the shape getf2 sees inside HPL.
        let a0 = MatGen::new(11).matrix::<f64>(20, 4);
        let mut a = a0.clone();
        let mut piv = Vec::new();
        getf2(&mut a.view_mut(), &mut piv, 0).unwrap();
        assert_eq!(piv.len(), 4);
        // Check P*A = L*U on the 20×4 panel: L is 20×4 unit-lower
        // trapezoidal, U is 4×4 upper.
        let mut pa = a0.clone();
        laswp_forward(&mut pa.view_mut(), &piv);
        for i in 0..20 {
            for j in 0..4 {
                let mut acc = 0.0;
                for p in 0..=j.min(i) {
                    let l = if p == i { 1.0 } else { a[(i, p)] };
                    let u = a[(p, j)];
                    acc += if p <= j && p <= i { l * u } else { 0.0 };
                }
                assert!((pa[(i, j)] - acc).abs() < 1e-12, "({i},{j})");
            }
        }
    }

    #[test]
    fn wide_matrix_getrf() {
        // m < n exercises the final panel + trailing row band.
        let a0 = MatGen::new(13).matrix::<f64>(12, 20);
        let mut a = a0.clone();
        let piv = getrf(&mut a.view_mut(), 5, &BlockSizes::default()).unwrap();
        assert_eq!(piv.len(), 12);
        let mut reference = a0.clone();
        let mut piv_ref = Vec::new();
        getf2(&mut reference.view_mut(), &mut piv_ref, 0).unwrap();
        assert_eq!(piv, piv_ref);
        assert!(a.approx_eq(&reference, 1e-11));
    }

    #[test]
    fn pivots_actually_pivot() {
        // First column forces a swap: |a[2,0]| is the largest.
        let a = Matrix::<f64>::from_rows(&[&[1.0, 2.0, 3.0], &[2.0, 5.0, 1.0], &[-9.0, 1.0, 4.0]]);
        let mut f = a.clone();
        let mut piv = Vec::new();
        getf2(&mut f.view_mut(), &mut piv, 0).unwrap();
        assert_eq!(piv[0], 2);
        // All multipliers bounded by 1 in magnitude (partial pivoting
        // invariant).
        for i in 0..3 {
            for j in 0..i {
                assert!(f[(i, j)].abs() <= 1.0 + 1e-15);
            }
        }
    }
}
