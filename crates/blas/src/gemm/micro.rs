//! Register-blocked microkernels mirroring Fig. 2 of the paper.
//!
//! Each call multiplies one packed `MR × depth` tile of `A` (column-major)
//! by one packed `depth × NR` tile of `B` (row-major), accumulating into an
//! `MR × NR` block of "registers" — on Knights Corner these are the vector
//! registers `v0..v30`; here they are a stack array. On x86-64 with AVX2
//! and FMA the tile product runs through the crate's FMA-compiled copy, in
//! which each accumulator row's `NR` lanes become `vfmadd` vector
//! instructions (kept in registers for the small host blocks, spilled for
//! the 30- and 31-row KNC blocks); otherwise every `mul_add` is a call to
//! the software `fma`. Both give identical bits.
//!
//! Two variants are provided, matching the paper's Basic Kernel 1 (Fig. 2b)
//! and Basic Kernel 2 (Fig. 2c):
//!
//! * **Kernel 1** broadcasts every element of the current `a` column
//!   straight from memory (the `1to8` broadcast). 31 of 32 vector
//!   instructions per iteration are multiply-adds → 96.9% theoretical
//!   efficiency, but every instruction touches the L1 read port, so
//!   prefetch fills stall the core (Section II, Fig. 1c).
//! * **Kernel 2** first load-broadcasts the leading four elements of the
//!   column into a register (`4to8` broadcast) and *swizzles* them out for
//!   the first four multiply-adds. Those four instructions do not touch
//!   memory, opening "holes" for the two prefetch fills each iteration
//!   needs → 93.7% theoretical efficiency but no port-conflict stalls.
//!
//! Numerically the two variants are identical (asserted by tests); the
//! *timing* difference is modeled by the cycle-accurate emulator in
//! `phi-knc`, which executes the same two instruction schedules.

use crate::Body;
use phi_matrix::{MatrixViewMut, Scalar};

/// Selects the instruction schedule of the microkernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MicroKernelKind {
    /// Fig. 2b: all `a` elements broadcast from memory; 31 FMAs / 32 ops.
    Kernel1,
    /// Fig. 2c: leading 4 `a` elements register-swizzled; 30 FMAs / 32 ops
    /// but leaves L1 ports free for prefetch fills. The paper's production
    /// choice, hence the default.
    #[default]
    Kernel2,
}

/// Monomorphic inner loop for a fixed register block.
#[inline(always)]
fn run<T: Scalar, const MR: usize, const NR: usize>(
    kind: MicroKernelKind,
    depth: usize,
    a_tile: &[T],
    b_tile: &[T],
    alpha: T,
    beta: T,
    c: &mut MatrixViewMut<'_, T>,
) {
    debug_assert!(a_tile.len() >= depth * MR);
    debug_assert!(b_tile.len() >= depth * NR);
    let mut acc = [[T::ZERO; NR]; MR];

    match kind {
        MicroKernelKind::Kernel1 => {
            for p in 0..depth {
                // Load the 8-wide row of b into "v31".
                let brow: &[T] = &b_tile[p * NR..p * NR + NR];
                let acol: &[T] = &a_tile[p * MR..p * MR + MR];
                for i in 0..MR {
                    // 1to8 memory broadcast of a[i].
                    let aip = acol[i];
                    for j in 0..NR {
                        acc[i][j] = aip.mul_add(brow[j], acc[i][j]);
                    }
                }
            }
        }
        MicroKernelKind::Kernel2 => {
            for p in 0..depth {
                let brow: &[T] = &b_tile[p * NR..p * NR + NR];
                let acol: &[T] = &a_tile[p * MR..p * MR + MR];
                // 4to8 broadcast: pull the first four elements of the a
                // column into "v30" with a single memory access...
                let head = if MR >= 4 { 4 } else { MR };
                let mut v30 = [T::ZERO; 4];
                v30[..head].copy_from_slice(&acol[..head]);
                // ...then SWIZZLE them out of the register (no memory
                // traffic for these four FMAs).
                for i in 0..head {
                    let aip = v30[i];
                    for j in 0..NR {
                        acc[i][j] = aip.mul_add(brow[j], acc[i][j]);
                    }
                }
                for i in head..MR {
                    let aip = acol[i];
                    for j in 0..NR {
                        acc[i][j] = aip.mul_add(brow[j], acc[i][j]);
                    }
                }
            }
        }
    }

    // Update C with the register block: c := alpha*acc + beta*c, masking
    // out tile padding via the window's true shape.
    let live_r = c.rows().min(MR);
    let live_c = c.cols().min(NR);
    for (i, acc_row) in acc.iter().enumerate().take(live_r) {
        let row = c.row_mut(i);
        if beta == T::ZERO {
            for j in 0..live_c {
                row[j] = alpha * acc_row[j];
            }
        } else if beta == T::ONE {
            for j in 0..live_c {
                row[j] = alpha.mul_add(acc_row[j], row[j]);
            }
        } else {
            for j in 0..live_c {
                row[j] = alpha * acc_row[j] + beta * row[j];
            }
        }
    }
}

/// Fully dynamic fallback for register blocks without a monomorphized
/// instantiation.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn run_dyn<T: Scalar>(
    mr: usize,
    nr: usize,
    depth: usize,
    a_tile: &[T],
    b_tile: &[T],
    alpha: T,
    beta: T,
    c: &mut MatrixViewMut<'_, T>,
) {
    let live_r = c.rows().min(mr);
    let live_c = c.cols().min(nr);
    for i in 0..live_r {
        for j in 0..live_c {
            let mut acc = T::ZERO;
            for p in 0..depth {
                acc = a_tile[p * mr + i].mul_add(b_tile[p * nr + j], acc);
            }
            let out = c.at_mut(i, j);
            *out = if beta == T::ZERO {
                alpha * acc
            } else {
                alpha * acc + beta * *out
            };
        }
    }
}

/// The arguments of one [`micro_kernel_into`] call: the body the crate's
/// instruction-set dispatch runs.
pub(crate) struct TileProduct<'a, 'c, T: Scalar> {
    pub(crate) kind: MicroKernelKind,
    pub(crate) mr: usize,
    pub(crate) nr: usize,
    pub(crate) depth: usize,
    pub(crate) a_tile: &'a [T],
    pub(crate) b_tile: &'a [T],
    pub(crate) alpha: T,
    pub(crate) beta: T,
    pub(crate) c: &'a mut MatrixViewMut<'c, T>,
}

impl<T: Scalar> Body for TileProduct<'_, '_, T> {
    /// Dispatches to monomorphized loops for the register blocks used in
    /// this workspace: the paper's native KNC shapes (31×8 for Kernel 1's
    /// natural block, 30×8 for Kernel 2's) and host-friendly shapes.
    #[inline(always)]
    fn run(self) {
        let Self {
            kind,
            mr,
            nr,
            depth,
            a_tile: a,
            b_tile: b,
            alpha,
            beta,
            c,
        } = self;
        match (mr, nr) {
            (4, 4) => run::<T, 4, 4>(kind, depth, a, b, alpha, beta, c),
            (8, 8) => run::<T, 8, 8>(kind, depth, a, b, alpha, beta, c),
            (16, 8) => run::<T, 16, 8>(kind, depth, a, b, alpha, beta, c),
            (30, 8) => run::<T, 30, 8>(kind, depth, a, b, alpha, beta, c),
            (31, 8) => run::<T, 31, 8>(kind, depth, a, b, alpha, beta, c),
            _ => run_dyn(mr, nr, depth, a, b, alpha, beta, c),
        }
    }
}

/// Runs the microkernel for one `(mr × depth) · (depth × nr)` tile product,
/// updating the `c` window (`c := alpha * a_tile * b_tile + beta * c`).
///
/// `c` may be smaller than `mr × nr` at ragged edges; the padded part of
/// the accumulators is discarded. Any `(mr, nr)` works; the paper's native
/// KNC shapes (31×8, 30×8) and the host shapes 4×4, 8×8 and 16×8 have
/// monomorphized register blocks.
#[allow(clippy::too_many_arguments)]
pub fn micro_kernel_into<T: Scalar>(
    kind: MicroKernelKind,
    mr: usize,
    nr: usize,
    depth: usize,
    a_tile: &[T],
    b_tile: &[T],
    alpha: T,
    beta: T,
    c: &mut MatrixViewMut<'_, T>,
) {
    crate::dispatch(TileProduct {
        kind,
        mr,
        nr,
        depth,
        a_tile,
        b_tile,
        alpha,
        beta,
        c,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::pack::{pack_a, pack_b};
    use phi_matrix::{MatGen, Matrix};

    /// Compares one tile product against a naive computation, for a given
    /// block shape and edge configuration.
    fn check_tile(mr: usize, nr: usize, rows: usize, cols: usize, depth: usize) {
        let a = MatGen::new(10).matrix::<f64>(rows, depth);
        let b = MatGen::new(11).matrix::<f64>(depth, cols);
        let pa = pack_a(&a.view(), mr);
        let pb = pack_b(&b.view(), nr);

        for kind in [MicroKernelKind::Kernel1, MicroKernelKind::Kernel2] {
            let mut c = Matrix::<f64>::zeros(rows, cols);
            micro_kernel_into(
                kind,
                mr,
                nr,
                depth,
                pa.tile(0),
                pb.tile(0),
                1.0,
                0.0,
                &mut c.view_mut(),
            );
            for i in 0..rows {
                for j in 0..cols {
                    let expect: f64 = (0..depth).map(|p| a[(i, p)] * b[(p, j)]).sum();
                    assert!(
                        (c[(i, j)] - expect).abs() < 1e-12,
                        "{kind:?} ({mr},{nr}) at ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn full_tiles_all_shapes() {
        check_tile(4, 4, 4, 4, 9);
        check_tile(8, 8, 8, 8, 17);
        check_tile(16, 8, 16, 8, 5);
        check_tile(30, 8, 30, 8, 12);
        check_tile(31, 8, 31, 8, 12);
    }

    #[test]
    fn ragged_edges_masked() {
        check_tile(30, 8, 7, 3, 10); // partial in both dims
        check_tile(8, 8, 8, 1, 4);
        check_tile(4, 4, 1, 4, 4);
    }

    #[test]
    fn dynamic_fallback_shape() {
        check_tile(5, 3, 5, 3, 7);
        check_tile(5, 3, 2, 2, 7);
    }

    #[test]
    fn alpha_beta_combination() {
        let depth = 6;
        let a = MatGen::new(1).matrix::<f64>(8, depth);
        let b = MatGen::new(2).matrix::<f64>(depth, 8);
        let pa = pack_a(&a.view(), 8);
        let pb = pack_b(&b.view(), 8);
        let mut c = MatGen::new(3).matrix::<f64>(8, 8);
        let c0 = c.clone();
        micro_kernel_into(
            MicroKernelKind::Kernel2,
            8,
            8,
            depth,
            pa.tile(0),
            pb.tile(0),
            2.0,
            -1.0,
            &mut c.view_mut(),
        );
        for i in 0..8 {
            for j in 0..8 {
                let prod: f64 = (0..depth).map(|p| a[(i, p)] * b[(p, j)]).sum();
                let expect = 2.0 * prod - c0[(i, j)];
                assert!((c[(i, j)] - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn zero_depth_only_applies_beta() {
        let pa: Vec<f64> = vec![];
        let pb: Vec<f64> = vec![];
        let mut c = Matrix::<f64>::from_rows(&[&[2.0, 4.0]]);
        micro_kernel_into(
            MicroKernelKind::Kernel1,
            1,
            2,
            0,
            &pa,
            &pb,
            1.0,
            0.5,
            &mut c.view_mut(),
        );
        assert_eq!(c.row(0), &[1.0, 2.0]);
    }
}
