//! `emulate`: the cycle-level KNC interpreter on the paper's DGEMM
//! kernels and on two bandwidth-bound kernels.
//!
//! All of the time is in `knc` (emulator, pipeline, caches, TLB). The
//! compute-bound tile products and the fill-heavy SpMV and stencil sweeps
//! use that layer differently, so a speed-up tuned to one that costs the
//! other shows up as a slower sibling leg. Only the default interpreter
//! entry points are called; the block-trace fast path is not.

use crate::harness::{self, fact, Facts, Outcome};
use crate::reference::Timing;
use crate::report::Checks;
use crate::trace::RoundProfile;
use crate::Args;
use linpack_phi::blas::gemm::{gemm, MicroKernelKind};
use linpack_phi::knc::kernels::{kernel_mr, NR};
use linpack_phi::knc::spmv::{banded_csr, reference_spmv, spmv_listing, uniform_rect_csr};
use linpack_phi::knc::stencil::{reference_stencil, seeded_grid, stencil_listing};
use linpack_phi::knc::{
    build_basic_kernel, run_spmv, run_stencil, run_tile_product, Csr, KernelReport, PipelineConfig,
    RunStats, StarStencil,
};
use linpack_phi::matrix::{HplRng, Matrix};

/// Inner dimension of both tile products: deep enough that the steady
/// loop, not the cold start, dominates.
const DEPTH: usize = 4096;
/// Banded SpMV: order and nonzeros per row.
const BANDED: (usize, usize) = (16_384, 27);
/// Uniform SpMV: rows and nonzeros per row.
const UNIFORM: (usize, usize) = (2_048, 256);
/// Stencil grid `(nx, ny, lz)`; the z extent is `8·lz`.
const GRID: (usize, usize, usize) = (64, 64, 4);

struct Tile {
    kind: MicroKernelKind,
    a: Vec<f64>,
    bs: [Vec<f64>; 4],
}

struct Inputs {
    tiles: [Tile; 2],
    spmv: [(Csr, Vec<f64>); 2],
    stencil: (StarStencil, Vec<f64>),
}

/// Expected outputs, computed on the host outside the rounds.
struct Expected {
    /// Per kernel, per emulated thread: the `MR × 8` product, row-major.
    tiles: [Vec<Vec<f64>>; 2],
    spmv: [Vec<f64>; 2],
    stencil: Vec<f64>,
}

/// Builds the kernel listings (discarded: the entry points build their
/// own) and the seeded inputs.
fn build(seed: u64) -> Inputs {
    std::hint::black_box([
        build_basic_kernel(MicroKernelKind::Kernel1),
        build_basic_kernel(MicroKernelKind::Kernel2),
        spmv_listing(),
        stencil_listing(),
    ]);
    let mut rng = HplRng::new(seed);
    let mut values = |n: usize| -> Vec<f64> { (0..n).map(|_| rng.next_value()).collect() };
    let tiles = [MicroKernelKind::Kernel1, MicroKernelKind::Kernel2].map(|kind| Tile {
        kind,
        a: values(kernel_mr(kind) * DEPTH),
        bs: std::array::from_fn(|_| values(DEPTH * NR)),
    });
    let banded = banded_csr(BANDED.0, BANDED.1, seed);
    let uniform = uniform_rect_csr(UNIFORM.0, UNIFORM.1, seed);
    let (xb, xu) = (values(banded.cols), values(uniform.cols));
    let coeffs = values(2);
    Inputs {
        tiles,
        spmv: [(banded, xb), (uniform, xu)],
        stencil: (
            StarStencil::seven_point(coeffs[0], coeffs[1]),
            seeded_grid(GRID, seed),
        ),
    }
}

fn expected(inp: &Inputs) -> Expected {
    let tile = |t: &Tile| -> Vec<Vec<f64>> {
        let mr = kernel_mr(t.kind);
        // `a` is column-major MR × DEPTH; `b` is row-major DEPTH × 8.
        let a = Matrix::from_fn(mr, DEPTH, |i, p| t.a[p * mr + i]);
        t.bs.iter()
            .map(|b| {
                let b = Matrix::from_fn(DEPTH, NR, |p, j| b[p * NR + j]);
                let mut c = Matrix::<f64>::zeros(mr, NR);
                gemm(1.0, &a.view(), &b.view(), 0.0, &mut c.view_mut());
                c.as_slice().to_vec()
            })
            .collect()
    };
    Expected {
        tiles: [tile(&inp.tiles[0]), tile(&inp.tiles[1])],
        spmv: inp.spmv.each_ref().map(|(a, x)| reference_spmv(a, x)),
        stencil: reference_stencil(&inp.stencil.0, GRID, &inp.stencil.1),
    }
}

/// One round's emulator reports.
struct Reports {
    tiles: [KernelReport; 2],
    spmv: [(u64, RunStats, Vec<f64>); 2],
    stencil: (u64, RunStats, Vec<f64>),
}

fn tile_product(t: &Tile) -> KernelReport {
    run_tile_product(t.kind, DEPTH, &t.a, &t.bs, PipelineConfig::default())
}

fn spmv(s: &(Csr, Vec<f64>)) -> (u64, RunStats, Vec<f64>) {
    let r = run_spmv(&s.0, &s.1, PipelineConfig::default());
    (r.cycles_total, r.stats, r.y)
}

fn stencil(inp: &Inputs) -> (u64, RunStats, Vec<f64>) {
    let (st, grid) = &inp.stencil;
    let r = run_stencil(st, GRID, grid, PipelineConfig::default());
    (r.cycles_total, r.stats, r.out)
}

/// Checks one round's outputs against the host references, and its
/// simulated cycle counts against the first round's: a simulator-speed
/// change must leave every simulated statistic unchanged.
fn check(checks: &mut Checks, r: &Reports, want: &Expected, first: &mut Option<[u64; 5]>) {
    for (rep, want) in r.tiles.iter().zip(&want.tiles) {
        let close = rep.c_tiles.iter().zip(want).all(|(got, want)| {
            got.len() == want.len()
                && got
                    .iter()
                    .zip(want)
                    .all(|(g, w)| (g - w).abs() <= 1e-9 * w.abs().max(1.0))
        });
        checks.check(close, || {
            format!("{:?}: emulated C tiles differ from the host GEMM", rep.kind)
        });
    }
    for ((_, _, y), want) in r.spmv.iter().zip(&want.spmv) {
        checks.check(y == want, || "SpMV differs from reference_spmv".into());
    }
    checks.check(r.stencil.2 == want.stencil, || {
        "stencil differs from reference_stencil".into()
    });
    let cycles = [
        r.tiles[0].cycles_total,
        r.tiles[1].cycles_total,
        r.spmv[0].0,
        r.spmv[1].0,
        r.stencil.0,
    ];
    let first = first.get_or_insert(cycles);
    checks.check(*first == cycles, || {
        format!("simulated cycles changed between rounds: {first:?} vs {cycles:?}")
    });
}

pub fn run(args: &Args) -> Outcome {
    let (inp, setup_times) = harness::setup(|| build(args.seed));
    let want = expected(&inp);
    if args.trace {
        return traced(args, &want);
    }
    let mut checks = Checks::default();
    let mut first = None;
    let mut cycles = [0u64; 4];
    let legs = harness::rounds(args.seconds, |_| {
        let (t1, k1) = Timing::of(|| tile_product(&inp.tiles[0]));
        let (t2, k2) = Timing::of(|| tile_product(&inp.tiles[1]));
        let (t3, sp) = Timing::of(|| inp.spmv.each_ref().map(spmv));
        let (t4, st) = Timing::of(|| stencil(&inp));
        let r = Reports {
            tiles: [k1, k2],
            spmv: sp,
            stencil: st,
        };
        cycles = [
            r.tiles[0].cycles_total,
            r.tiles[1].cycles_total,
            r.spmv[0].0 + r.spmv[1].0,
            r.stencil.0,
        ];
        check(&mut checks, &r, &want, &mut first);
        [t1, t2, t3, t4]
    });
    let what = [
        format!("Kernel 1 tile product, depth {DEPTH}"),
        format!("Kernel 2 tile product, depth {DEPTH}"),
        format!(
            "SpMV banded {}x{} + uniform {}x{}",
            BANDED.0, BANDED.1, UNIFORM.0, UNIFORM.1
        ),
        format!("7-point stencil {GRID:?}"),
    ];
    let metrics = harness::end_to_end(&setup_times, &legs, |k, secs| {
        format!(
            "{}: {:.4} Mcycles/s",
            what[k],
            cycles[k] as f64 / secs * 1e-6
        )
    });
    Outcome {
        metrics,
        checks,
        tracer: None,
    }
}

fn traced(args: &Args, want: &Expected) -> Outcome {
    let mut checks = Checks::default();
    let mut first = None;
    let run = harness::traced_rounds(args.seconds, |_, t| {
        let inp = t.span("knc.build", || build(args.seed));
        let k1 = t.span("knc.k1", || tile_product(&inp.tiles[0]));
        let k2 = t.span("knc.k2", || tile_product(&inp.tiles[1]));
        let sp = inp.spmv.each_ref().map(|s| t.span("knc.spmv", || spmv(s)));
        let st = t.span("knc.stencil", || stencil(&inp));
        let r = Reports {
            tiles: [k1, k2],
            spmv: sp,
            stencil: st,
        };
        check(&mut checks, &r, want, &mut first);
        let mut facts: Facts = vec![
            ("k1_cycles", r.tiles[0].cycles_total as f64),
            ("k2_cycles", r.tiles[1].cycles_total as f64),
            ("spmv_cycles", (r.spmv[0].0 + r.spmv[1].0) as f64),
            ("stencil_cycles", r.stencil.0 as f64),
            ("knc.k2_steady_efficiency", r.tiles[1].steady_efficiency),
        ];
        let gemm = [r.tiles[0].stats, r.tiles[1].stats];
        let spmv = [r.spmv[0].1, r.spmv[1].1];
        for (family, stats) in [
            (FAMILY_GEMM, &gemm[..]),
            (FAMILY_SPMV, &spmv[..]),
            (FAMILY_STENCIL, &[r.stencil.1][..]),
        ] {
            let sum = |f: fn(&RunStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
            facts.extend([
                (family[0], sum(|s| s.cycles)),
                (family[1], sum(|s| s.vector_issued)),
                (family[2], sum(|s| s.fmadds)),
                (family[3], sum(|s| s.fills_completed)),
                (family[4], sum(|s| s.fill_stall_cycles)),
                (family[5], sum(|s| s.demand_stall_cycles)),
            ]);
        }
        facts
    });
    let metrics = harness::per_layer(&run, derive);
    Outcome {
        metrics,
        checks,
        tracer: Some(run.tracer),
    }
}

/// Names of the exact `RunStats` counts of one kernel family.
type Family = [&'static str; 6];
const FAMILY_GEMM: Family = [
    "knc.gemm.sim_cycles",
    "knc.gemm.vector_issued",
    "knc.gemm.fmadds",
    "knc.gemm.l1_fills",
    "knc.gemm.fill_stall_cycles",
    "knc.gemm.demand_stall_cycles",
];
const FAMILY_SPMV: Family = [
    "knc.spmv.sim_cycles",
    "knc.spmv.vector_issued",
    "knc.spmv.fmadds",
    "knc.spmv.l1_fills",
    "knc.spmv.fill_stall_cycles",
    "knc.spmv.demand_stall_cycles",
];
const FAMILY_STENCIL: Family = [
    "knc.stencil.sim_cycles",
    "knc.stencil.vector_issued",
    "knc.stencil.fmadds",
    "knc.stencil.l1_fills",
    "knc.stencil.fill_stall_cycles",
    "knc.stencil.demand_stall_cycles",
];

fn derive(p: &RoundProfile, facts: &Facts) -> Vec<(&'static str, f64)> {
    let rate = |cycles: &str, span: &str| fact(facts, cycles) / p.self_s(span) * 1e-6;
    let mut out = vec![
        ("knc.build_s", p.self_s("knc.build")),
        ("knc.k1_mcycles_per_s", rate("k1_cycles", "knc.k1")),
        ("knc.k2_mcycles_per_s", rate("k2_cycles", "knc.k2")),
        ("knc.spmv_mcycles_per_s", rate("spmv_cycles", "knc.spmv")),
        (
            "knc.stencil_mcycles_per_s",
            rate("stencil_cycles", "knc.stencil"),
        ),
    ];
    out.extend(
        facts
            .iter()
            .filter(|(name, _)| name.starts_with("knc."))
            .copied(),
    );
    out
}
