//! From-scratch dense linear algebra kernels for the `phi-hpl` workspace.
//!
//! This crate implements, in plain Rust without intrinsics, every
//! BLAS/LAPACK routine the paper's Linpack flavours call:
//!
//! * [`level1`] — `idamax`, `dscal`, `daxpy`, `dswap`, `ddot`, `dcopy`.
//! * [`level2`] — `dger` (the rank-1 update inside unblocked panel
//!   factorization), `dgemv`, `dtrsv`.
//! * [`gemm`](mod@gemm) — the paper's DGEMM structure (Section III): the general
//!   product decomposed into a sequence of rank-k outer products, operands
//!   packed into the *Knights Corner-friendly* tile layout of Fig. 3
//!   (`MR × k` column-major tiles of `A`, `k × NR` row-major tiles of `B`),
//!   and a register-blocked microkernel mirroring Basic Kernels 1/2 of
//!   Fig. 2. Both `f64` (DGEMM) and `f32` (SGEMM) instantiations.
//! * [`trsm`] — the triangular solves HPL needs (`DTRSM` for the `U` panel
//!   update and for blocked back-substitution).
//! * [`laswp`] — row interchanges from a pivot vector (`DLASWP`).
//! * [`lu`] — unblocked (`getf2`) and blocked right-looking (`getrf`)
//!   partial-pivot LU, plus the full `Ax = b` solve path used by the
//!   numeric backends.
//! * [`recursive`] — GEMM-rich recursive panel factorization (how
//!   production HPL panels are actually factored) and the multi-RHS
//!   `getrs` solve.
//! * [`colmajor`] — zero-copy column-major adapters via the paper's
//!   footnote-3 transpose identity.
//!
//! The two hot loop bodies — the GEMM microkernel and the AXPY row update
//! shared by `ger`, `trsm` and `getf2` — are each written once and, on
//! x86-64, also compiled for AVX2 + FMA and picked at run time (the
//! `fma` module). Both copies give identical bits.
//!
//! Numerical behaviour is validated against naive reference implementations
//! by unit and property tests; the HPL residual criterion is checked in the
//! integration suites of `phi-hpl`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod colmajor;
pub mod condest;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod fma;
pub mod gemm;
pub mod laswp;
pub mod level1;
pub mod level2;
pub mod lu;
pub mod recursive;
pub mod trsm;

pub use condest::{condest_1, inverse_norm1_estimate};
pub use gemm::{gemm, gemm_naive, BlockSizes, MicroKernelKind};
pub use laswp::{laswp_forward, laswp_inverse};
pub use lu::{getf2, getrf, lu_solve, LuError, LuFactors};
pub use recursive::{getf2_recursive, getrs, solve_multi};
pub use trsm::{trsm_left_lower_unit, trsm_left_upper, trsm_right_upper};

/// A hot loop body, written once and run by [`dispatch`]. Implementors
/// mark `run` `#[inline(always)]` so every wrapper that calls it gets its
/// own copy of the code, compiled for that wrapper's instruction set.
pub(crate) trait Body {
    /// Executes the loop.
    fn run(self);
}

#[cfg(target_arch = "x86_64")]
pub(crate) use fma::dispatch;

/// Runs `body`; only x86-64 has a second, FMA-compiled copy to pick.
#[cfg(not(target_arch = "x86_64"))]
#[inline]
pub(crate) fn dispatch<B: Body>(body: B) {
    body.run();
}
