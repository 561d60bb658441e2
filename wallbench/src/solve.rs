//! `solve`: the paper's Linpack run on the real numeric path.
//!
//! A seeded HPL system is solved by the DAG-scheduled `solve_parallel`
//! with one and with two threads, at N = 1024 and at N = 512. Nearly all
//! of the time is `blas` GEMM, panel work and `sched` threading, which
//! the other workloads never touch.
//!
//! The traced round adds a sequential blocked LU driven from here through
//! `getf2`, `laswp`, `trsm` and `gemm`, so each BLAS routine gets its own
//! span; it must reproduce `getrf`'s pivots and factors bit for bit.

use crate::harness::{self, fact, Facts, Outcome};
use crate::reference::Timing;
use crate::report::Checks;
use crate::trace::{RoundProfile, Tracer};
use crate::Args;
use linpack_phi::blas::gemm::{gemm_with, micro_kernel_into, pack_a, pack_b, BlockSizes};
use linpack_phi::blas::{getf2, getrf, laswp_forward, trsm_left_lower_unit, LuFactors};
use linpack_phi::hpl::native::solve_parallel;
use linpack_phi::matrix::{hpl_residual, MatGen, Matrix};
use linpack_phi::sched::GroupPlan;
use std::hint::black_box;

/// Order of the large system, the one the traced round decomposes.
const N: usize = 1024;
/// Order of the small system: a working set four times smaller.
const N_SMALL: usize = 512;
/// Panel width.
const NB: usize = 64;
/// Calls of the L1-resident micro-kernel loop in a traced round.
const MICRO_CALLS: usize = 4096;

/// `(system, threads)` of each leg; system 0 is order [`N`], 1 is [`N_SMALL`].
const LEGS: [(usize, usize); 4] = [(0, 1), (0, 2), (1, 1), (1, 2)];

struct System {
    a: Matrix<f64>,
    b: Vec<f64>,
}

fn system(n: usize, seed: u64) -> System {
    let g = MatGen::new(seed);
    System {
        a: g.matrix(n, n),
        b: g.rhs(n),
    }
}

/// HPL's operation count for an order-`n` solve.
fn lu_flops(n: usize) -> f64 {
    let n = n as f64;
    2.0 / 3.0 * n * n * n + 2.0 * n * n
}

fn check_solution(checks: &mut Checks, sys: &System, x: &[f64], what: &str) {
    let r = hpl_residual(&sys.a.view(), x, &sys.b);
    checks.check(r.passed, || {
        format!("{what}: scaled residual {}", r.scaled_residual)
    });
}

pub fn run(args: &Args) -> Outcome {
    let seed = args.seed;
    let (systems, setup_times) =
        harness::setup(|| [system(N, seed), system(N_SMALL, seed.wrapping_add(1))]);
    if args.trace {
        return traced(args, &systems[0]);
    }
    let mut checks = Checks::default();
    let legs = harness::rounds(args.seconds, |_| {
        LEGS.map(|(s, threads)| {
            let sys = &systems[s];
            let plan = GroupPlan::new(threads, 1);
            let (t, x) = Timing::of(|| solve_parallel(&sys.a, &sys.b, NB, &plan));
            match x {
                Ok(x) => check_solution(&mut checks, sys, &x, "solve_parallel"),
                Err(e) => checks.check(false, || format!("solve_parallel: {e}")),
            }
            t
        })
    });
    let metrics = harness::end_to_end(&setup_times, &legs, |k, secs| {
        let (s, threads) = LEGS[k];
        let n = systems[s].a.rows();
        let name = match k {
            0 => " [solve_gflops]",
            1 => " [solve_gflops_2t]",
            _ => "",
        };
        format!(
            "solve_parallel {threads}x1 N={n} nb={NB}: {:.4} GFLOP/s{name}",
            lu_flops(n) / secs * 1e-9
        )
    });
    Outcome {
        metrics,
        checks,
        tracer: None,
    }
}

/// Sequential blocked right-looking LU of `a` in place, one span per
/// BLAS call, in exactly `getrf`'s order of operations. Returns the
/// absolute pivots and the GEMM flop count.
fn replay(a: &mut Matrix<f64>, bs: &BlockSizes, t: &mut Tracer) -> (Vec<usize>, f64) {
    let n = a.rows();
    let mut view = a.view_mut();
    let mut ipiv = vec![0; n];
    let mut gemm_flops = 0.0;
    let mut j = 0;
    while j < n {
        let jb = NB.min(n - j);
        let rest = n - j - jb;
        let mut piv = Vec::with_capacity(jb);
        t.span("blas.getf2", || {
            getf2(&mut view.sub_mut(j, j, n - j, jb), &mut piv, j)
        })
        .expect("HPL matrices are nonsingular");
        for (k, &p) in piv.iter().enumerate() {
            ipiv[j + k] = j + p;
        }
        t.span("blas.laswp", || {
            if j > 0 {
                laswp_forward(&mut view.sub_mut(j, 0, n - j, j), &piv);
            }
            if rest > 0 {
                laswp_forward(&mut view.sub_mut(j, j + jb, n - j, rest), &piv);
            }
        });
        if rest > 0 {
            let (panel, right) = view
                .reborrow()
                .into_sub(j, j, n - j, n - j)
                .split_cols_mut(jb);
            let (mut u12, mut a22) = right.split_rows_mut(jb);
            let l11 = panel.as_view().sub(0, 0, jb, jb);
            let l21 = panel.as_view().sub(jb, 0, rest, jb);
            t.span("blas.trsm", || trsm_left_lower_unit(&l11, &mut u12));
            let u12 = u12.as_view();
            t.span("blas.pack", || {
                black_box((pack_a(&l21, bs.mr), pack_b(&u12, bs.nr)));
            });
            t.span("blas.gemm", || {
                gemm_with(-1.0, &l21, &u12, 1.0, &mut a22, bs)
            });
            gemm_flops += 2.0 * (rest * rest * jb) as f64;
        }
        j += jb;
    }
    (ipiv, gemm_flops)
}

/// The micro-kernel on one L1-resident tile pair, [`MICRO_CALLS`] times.
/// Returns the flops performed.
fn micro_loop(bs: &BlockSizes, seed: u64) -> f64 {
    let g = MatGen::new(seed);
    let a = pack_a(&g.matrix::<f64>(bs.mr, bs.kc).view(), bs.mr);
    let b = pack_b(
        &MatGen::new(seed ^ 1).matrix::<f64>(bs.kc, bs.nr).view(),
        bs.nr,
    );
    let mut c = Matrix::<f64>::zeros(bs.mr, bs.nr);
    for _ in 0..MICRO_CALLS {
        micro_kernel_into(
            bs.kernel,
            bs.mr,
            bs.nr,
            bs.kc,
            black_box(a.tile(0)),
            black_box(b.tile(0)),
            1.0,
            1.0,
            &mut c.view_mut(),
        );
    }
    black_box(&c);
    (2 * bs.mr * bs.nr * bs.kc * MICRO_CALLS) as f64
}

fn traced(args: &Args, sys: &System) -> Outcome {
    let bs = BlockSizes::default();
    let mut checks = Checks::default();
    // The reference the replay must match, computed outside the rounds.
    let mut reference = sys.a.clone();
    let ref_piv = getrf(&mut reference.view_mut(), NB, &bs).expect("nonsingular");

    let run = harness::traced_rounds(args.seconds, |_, t| {
        let sys = t.span("matrix.gen", || system(N, args.seed));
        let x1 = t.span("hpl.solve_1t", || {
            solve_parallel(&sys.a, &sys.b, NB, &GroupPlan::new(1, 1))
        });
        let x2 = t.span("hpl.solve_2t", || {
            solve_parallel(&sys.a, &sys.b, NB, &GroupPlan::new(2, 1))
        });
        let mut lu = sys.a.clone();
        let (ipiv, gemm_flops) = replay(&mut lu, &bs, t);
        let factors = LuFactors { lu, ipiv };
        let x3 = t.span("hpl.lu_solve", || factors.solve(&sys.b));
        let micro_flops = t.span("blas.micro_kernel", || micro_loop(&bs, args.seed));

        for (x, what) in [(x1, "solve_parallel 1x1"), (x2, "solve_parallel 2x1")] {
            match x {
                Ok(x) => check_solution(&mut checks, &sys, &x, what),
                Err(e) => checks.check(false, || format!("{what}: {e}")),
            }
        }
        check_solution(&mut checks, &sys, &x3, "replayed LU");
        checks.check(
            factors.ipiv == ref_piv && factors.lu.as_slice() == reference.as_slice(),
            || "replayed LU differs from getrf's pivots or factors".into(),
        );
        vec![("gemm_flops", gemm_flops), ("micro_flops", micro_flops)]
    });
    let metrics = harness::per_layer(&run, derive);
    Outcome {
        metrics,
        checks,
        tracer: Some(run.tracer),
    }
}

fn derive(p: &RoundProfile, facts: &Facts) -> Vec<(&'static str, f64)> {
    let s = |name| p.self_s(name);
    let gemm_s = s("blas.gemm");
    let lu_s = s("blas.getf2") + s("blas.laswp") + s("blas.trsm") + gemm_s;
    let gemm_gflops = fact(facts, "gemm_flops") / gemm_s * 1e-9;
    let micro_gflops = fact(facts, "micro_flops") / s("blas.micro_kernel") * 1e-9;
    vec![
        ("matrix.gen_s", s("matrix.gen")),
        ("blas.gemm_s", gemm_s),
        ("blas.gemm_gflops", gemm_gflops),
        ("blas.gemm_share", gemm_s / lu_s),
        ("blas.pack_s", s("blas.pack")),
        ("blas.micro_kernel_gflops", micro_gflops),
        ("blas.gemm_efficiency", gemm_gflops / micro_gflops),
        ("blas.getf2_s", s("blas.getf2")),
        ("blas.trsm_s", s("blas.trsm")),
        ("blas.laswp_s", s("blas.laswp")),
        (
            "sched.dag_overhead",
            s("hpl.solve_1t") / (lu_s + s("hpl.lu_solve")),
        ),
        ("sched.speedup_2t", s("hpl.solve_1t") / s("hpl.solve_2t")),
        ("hpl.lu_solve_s", s("hpl.lu_solve")),
        ("solve.flops", lu_flops(N)),
    ]
}
