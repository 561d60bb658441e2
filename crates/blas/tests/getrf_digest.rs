//! Pins the exact bits of blocked LU factors and pivots.
//!
//! The digests below were captured from the portable (software `fma`)
//! build of the BLAS before the host kernels gained an FMA-dispatched
//! path. Any change to the order or rounding of an operation anywhere in
//! `getf2`/`laswp`/`trsm`/`gemm` moves them, so a kernel rewrite that is
//! merely "close" fails here.

use phi_blas::gemm::BlockSizes;
use phi_blas::lu::getrf;
use phi_matrix::{MatGen, Scalar};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

fn fnv(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(FNV_PRIME)
}

/// Factors an `n × n` seeded matrix with panel width 64 and digests every
/// factor element's bits followed by the pivot sequence.
fn getrf_digest<T: Scalar>(n: usize, seed: u64, bits: impl Fn(T) -> u64) -> u64 {
    let mut a = MatGen::new(seed).matrix::<T>(n, n);
    let ipiv = getrf(&mut a.view_mut(), 64, &BlockSizes::default()).expect("nonsingular");
    let h = (0..n)
        .flat_map(|i| a.row(i).to_vec())
        .fold(FNV_OFFSET, |h, v| fnv(h, bits(v)));
    ipiv.iter().fold(h, |h, &p| fnv(h, p as u64))
}

#[test]
fn getrf_f64_n256_digest_is_pinned() {
    let d = getrf_digest::<f64>(256, 2013, f64::to_bits);
    assert_eq!(d, 0xc99f_2fa8_5e3f_ab56, "getrf f64 N=256 digest {d:#018x}");
}

#[test]
fn getrf_f64_ragged_n131_digest_is_pinned() {
    let d = getrf_digest::<f64>(131, 7, f64::to_bits);
    assert_eq!(d, 0xf21c_94a3_c005_56c3, "getrf f64 N=131 digest {d:#018x}");
}

#[test]
fn getrf_f32_ragged_n131_digest_is_pinned() {
    let d = getrf_digest::<f32>(131, 7, |v| u64::from(v.to_bits()));
    assert_eq!(d, 0xb4cf_9dba_7abd_1f89, "getrf f32 N=131 digest {d:#018x}");
}
