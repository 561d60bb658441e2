//! Runtime instruction-set dispatch for the hot loop bodies.
//!
//! The x86-64 baseline target has no FMA, so `Scalar::mul_add` compiles
//! to a call into the software `fma` routine and nothing around it
//! vectorises. Each hot body (a [`Body`]) is therefore compiled twice
//! from the same source: once for the baseline target and once inside a
//! `#[target_feature(enable = "avx2,fma")]` wrapper, where `mul_add`
//! lowers to `vfmadd` and the loops over the register block's `NR`
//! columns vectorise. [`dispatch`] picks the wrapper from
//! `is_x86_feature_detected!` on every call (the detection result is
//! cached by `std`).
//!
//! Both copies produce identical bits: hardware `vfmadd` and the software
//! `fma` are both correctly rounded, no `a * b + c` is contracted (Rust
//! never fuses separate operations), and vectorising across columns keeps
//! every element's own sequence of operations — no reduction is reordered.
//!
//! The calls into the wrapper are this crate's only `unsafe` code.

use crate::Body;

/// Runs `body` with FMA and AVX2 when this CPU has them, portably
/// otherwise.
#[inline]
pub(crate) fn dispatch<B: Body>(body: B) {
    if let Err(body) = try_fma(body) {
        body.run();
    }
}

/// Runs `body` through the `avx2,fma` wrapper, or hands it back untouched
/// when this CPU lacks either feature.
#[inline]
pub(crate) fn try_fma<B: Body>(body: B) -> Result<(), B> {
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        // SAFETY: `run_fma` only requires the `avx2` and `fma` target
        // features, and both were detected on this CPU just above.
        unsafe { run_fma(body) };
        Ok(())
    } else {
        Err(body)
    }
}

/// The body compiled with AVX2 and FMA enabled; `Body::run` is
/// `#[inline(always)]`, so its code is generated here for that target.
#[target_feature(enable = "avx2,fma")]
fn run_fma<B: Body>(body: B) {
    body.run();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::micro::{MicroKernelKind, TileProduct};
    use crate::gemm::pack::{pack_a, pack_b};
    use crate::level1::Axpy;
    use phi_matrix::{MatGen, Matrix, Scalar};

    /// Says why a comparison did not run; true when it can.
    fn fma_available() -> bool {
        let ok = is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma");
        if !ok {
            println!("skipped: this CPU lacks avx2+fma, so only the portable copy exists");
        }
        ok
    }

    fn bits<T: Scalar>(v: &[T]) -> Vec<u64> {
        v.iter().map(|x| x.to_f64().to_bits()).collect()
    }

    /// One `rows × cols` window of a tile product with register block
    /// `mr × nr`, run portably and through the FMA wrapper.
    fn compare_tile<T: Scalar>(mr: usize, nr: usize, rows: usize, cols: usize, depth: usize) {
        let a = MatGen::new(21).matrix::<T>(rows, depth);
        let b = MatGen::new(22).matrix::<T>(depth, cols);
        let (pa, pb) = (pack_a(&a.view(), mr), pack_b(&b.view(), nr));
        let c0 = MatGen::new(23).matrix::<T>(rows, cols);
        for kind in [MicroKernelKind::Kernel1, MicroKernelKind::Kernel2] {
            for beta in [0.0, 1.0, -0.5].map(T::from_f64) {
                let run = |c: &mut Matrix<T>, fma: bool| {
                    let body = TileProduct {
                        kind,
                        mr,
                        nr,
                        depth,
                        a_tile: pa.tile(0),
                        b_tile: pb.tile(0),
                        alpha: T::from_f64(1.5),
                        beta,
                        c: &mut c.view_mut(),
                    };
                    if fma {
                        assert!(try_fma(body).is_ok());
                    } else {
                        body.run();
                    }
                };
                let (mut portable, mut fast) = (c0.clone(), c0.clone());
                run(&mut portable, false);
                run(&mut fast, true);
                assert_eq!(
                    bits(portable.as_slice()),
                    bits(fast.as_slice()),
                    "{kind:?} {mr}x{nr} window {rows}x{cols} beta {}",
                    beta.to_f64()
                );
            }
        }
    }

    fn compare_all_tiles<T: Scalar>() {
        // The monomorphized blocks, then a shape only `run_dyn` handles.
        for (mr, nr) in [(4, 4), (8, 8), (16, 8), (30, 8), (31, 8), (5, 3)] {
            compare_tile::<T>(mr, nr, mr, nr, 37);
            compare_tile::<T>(mr, nr, mr - 1, nr - 1, 37);
            compare_tile::<T>(mr, nr, 1, nr, 5);
        }
    }

    #[test]
    fn micro_kernel_fma_copy_is_bit_identical_f64() {
        if fma_available() {
            compare_all_tiles::<f64>();
        }
    }

    #[test]
    fn micro_kernel_fma_copy_is_bit_identical_f32() {
        if fma_available() {
            compare_all_tiles::<f32>();
        }
    }

    fn compare_axpy<T: Scalar>() {
        // Lengths around the 4- and 8-lane vector widths and their tails.
        for len in [0, 1, 3, 4, 7, 8, 9, 16, 31, 100] {
            let x = MatGen::new(31).rhs::<T>(len);
            let y0 = MatGen::new(32).rhs::<T>(len);
            for alpha in [1.0, -1.0, 0.37].map(T::from_f64) {
                let (mut portable, mut fast) = (y0.clone(), y0.clone());
                Axpy {
                    alpha,
                    x: &x,
                    y: &mut portable,
                }
                .run();
                let fma = Axpy {
                    alpha,
                    x: &x,
                    y: &mut fast,
                };
                assert!(try_fma(fma).is_ok());
                assert_eq!(bits(&portable), bits(&fast), "len {len}");
            }
        }
    }

    #[test]
    fn axpy_fma_copy_is_bit_identical() {
        if fma_available() {
            compare_axpy::<f64>();
            compare_axpy::<f32>();
        }
    }
}
