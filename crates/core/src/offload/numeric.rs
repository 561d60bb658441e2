//! Functional offload DGEMM: real matrices, real threads, real stealing.
//!
//! The card is played by one thread running the KNC-shaped GEMM
//! (30×8 register blocks); host workers run the host-shaped GEMM. All
//! sides steal tiles from the shared [`TileDeque`] — card from the front
//! in column-major order, host from the back — and each tile's `C` block
//! is written by exactly one thief, so the final matrix must equal the
//! reference product exactly.

use super::tile_spans;
use phi_blas::gemm::{gemm_with, BlockSizes};
use phi_matrix::{Matrix, MatrixViewMut};
use phi_sched::TileDeque;
use std::cell::UnsafeCell;
use std::sync::Barrier;

/// C windows are disjoint per tile; tiles are claimed exactly once.
struct SharedC {
    cell: UnsafeCell<Matrix<f64>>,
}
unsafe impl Sync for SharedC {}

impl SharedC {
    #[allow(clippy::mut_from_ref)]
    unsafe fn window(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> MatrixViewMut<'_, f64> {
        // SAFETY: the caller guarantees disjoint tile windows — the
        // stealing counters hand each (r0, c0) tile to exactly one
        // worker, so the exclusive reborrow never aliases.
        unsafe { (*self.cell.get()).sub_mut(r0, c0, nr, nc) }
    }
}

/// Computes `C := C - A · B` by tile stealing: `card_threads` "cards"
/// steal forward with the KNC blocking, `host_threads` host workers steal
/// backward with the host blocking. `grid` is the tile grid (rows, cols).
///
/// Returns the number of tiles each side processed: `(card, host)`.
pub fn offload_gemm_numeric(
    a: &Matrix<f64>,
    b: &Matrix<f64>,
    c: &mut Matrix<f64>,
    grid: (usize, usize),
    card_threads: usize,
    host_threads: usize,
) -> (usize, usize) {
    let (m, k) = (a.rows(), a.cols());
    let n = b.cols();
    assert_eq!(b.rows(), k);
    assert_eq!((c.rows(), c.cols()), (m, n));
    assert!(card_threads + host_threads > 0);

    let rows = tile_spans(m, grid.0);
    let cols = tile_spans(n, grid.1);
    // Column-major tile order: the card walks C00, C10, ... (paper
    // Fig. 10a shows column-major stealing from the upper-left corner).
    let tiles: Vec<(usize, usize)> = (0..cols.len())
        .flat_map(|j| (0..rows.len()).map(move |i| (i, j)))
        .collect();
    let deque = TileDeque::new(tiles.len());
    let shared = SharedC {
        cell: UnsafeCell::new(std::mem::replace(c, Matrix::zeros(0, 0))),
    };

    let knc_bs = BlockSizes::knc();
    let host_bs = BlockSizes::default();
    let run_tile = |idx: usize, bs: &BlockSizes| {
        let (ti, tj) = tiles[idx];
        let (r0, nr) = rows[ti];
        let (c0, nc) = cols[tj];
        let a_strip = a.sub(r0, 0, nr, k);
        let b_strip = b.sub(0, c0, k, nc);
        // SAFETY: tile (ti, tj) is claimed exactly once; C windows of
        // distinct tiles are disjoint.
        let mut cwin = unsafe { shared.window(r0, c0, nr, nc) };
        gemm_with(-1.0, &a_strip, &b_strip, 1.0, &mut cwin, bs);
    };

    // No worker steals before every worker is running: with fast tiles
    // the first thread spawned could otherwise drain the whole deque
    // while the others are still starting, so the split would measure
    // spawn latency instead of each side's speed.
    let start = Barrier::new(card_threads + host_threads);
    let (card_count, host_count) = std::thread::scope(|s| {
        let mut card_handles = Vec::new();
        for _ in 0..card_threads {
            card_handles.push(s.spawn(|| {
                start.wait();
                let mut done = 0;
                while let Some(idx) = deque.steal_front() {
                    run_tile(idx, &knc_bs);
                    done += 1;
                }
                done
            }));
        }
        let mut host_handles = Vec::new();
        for _ in 0..host_threads {
            host_handles.push(s.spawn(|| {
                start.wait();
                let mut done = 0;
                while let Some(idx) = deque.steal_back() {
                    run_tile(idx, &host_bs);
                    done += 1;
                }
                done
            }));
        }
        (
            card_handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum::<usize>(),
            host_handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum::<usize>(),
        )
    });

    *c = shared.cell.into_inner();
    assert_eq!(card_count + host_count, tiles.len(), "every tile computed");
    (card_count, host_count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_blas::gemm::gemm_naive;
    use phi_matrix::MatGen;

    fn reference(a: &Matrix<f64>, b: &Matrix<f64>, c0: &Matrix<f64>) -> Matrix<f64> {
        let mut r = c0.clone();
        gemm_naive(-1.0, &a.view(), &b.view(), 1.0, &mut r.view_mut());
        r
    }

    #[test]
    fn stolen_tiles_reassemble_exact_product() {
        let (m, n, k) = (61, 47, 33);
        let a = MatGen::new(1).matrix::<f64>(m, k);
        let b = MatGen::new(2).matrix::<f64>(k, n);
        let c0 = MatGen::new(3).matrix::<f64>(m, n);
        let expect = reference(&a, &b, &c0);

        for (grid, card, host) in [
            ((4, 4), 1, 1),
            ((3, 5), 1, 3),
            ((1, 1), 1, 0),
            ((2, 2), 0, 2),
        ] {
            let mut c = c0.clone();
            let (nc, nh) = offload_gemm_numeric(&a, &b, &mut c, grid, card, host);
            assert_eq!(nc + nh, grid.0.min(m) * grid.1.min(n));
            let diff = c.max_abs_diff(&expect);
            assert!(diff < 1e-11, "grid {grid:?}: diff {diff}");
        }
    }

    #[test]
    fn ragged_tiles_merge_and_stay_exact() {
        // Sizes chosen so tiles are ragged in both dimensions.
        let (m, n, k) = (103, 57, 19);
        let a = MatGen::new(5).matrix::<f64>(m, k);
        let b = MatGen::new(6).matrix::<f64>(k, n);
        let c0 = MatGen::new(7).matrix::<f64>(m, n);
        let expect = reference(&a, &b, &c0);
        let mut c = c0.clone();
        offload_gemm_numeric(&a, &b, &mut c, (4, 4), 2, 2);
        assert!(c.max_abs_diff(&expect) < 1e-11);
    }

    #[test]
    fn both_sides_get_work_on_big_grids() {
        // Thread scheduling decides the split, so one side occasionally
        // drains the deque before the other starts (especially in release
        // builds where tiles are fast); retry until both participate.
        let (m, n, k) = (96, 96, 24);
        let a = MatGen::new(8).matrix::<f64>(m, k);
        let b = MatGen::new(9).matrix::<f64>(k, n);
        let expect = reference(&a, &b, &Matrix::<f64>::zeros(m, n));
        for attempt in 0..20 {
            let mut c = Matrix::<f64>::zeros(m, n);
            let (card, host) = offload_gemm_numeric(&a, &b, &mut c, (12, 12), 1, 1);
            assert_eq!(card + host, 144);
            assert!(c.max_abs_diff(&expect) < 1e-10);
            if card > 0 && host > 0 {
                return;
            }
            let _ = attempt;
        }
        panic!("one side starved in 20 consecutive runs");
    }
}
