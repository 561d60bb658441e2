//! `workload-diff` — the workload-conformance gate CI runs.
//!
//! Four checks, all deterministic (see `phi_bench::workloads`):
//!
//! 1. SpMV differential equivalence — interpreter vs pure-Rust
//!    reference, bit for bit;
//! 2. stencil differential equivalence — emulated sweep vs reference;
//! 3. zero lint diagnostics on both shipped listings under their
//!    declared roofline class;
//! 4. rank-by-rank halo-volume conservation on the reference
//!    decomposition.
//!
//! `--inject` is the must-fail self-test: a flipped SpMV result bit and
//! a phantom halo message are injected; the gate must catch both or it
//! is comparing nothing. CI runs that mode and requires non-zero exit.

use phi_bench::workloads::{workload_diff, SPMV_DIVERGED};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut inject = false;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--inject" => inject = true,
            other => {
                eprintln!("workload-diff: unrecognized argument `{other}` (expected --inject)");
                return ExitCode::FAILURE;
            }
        }
    }
    let fails = workload_diff(inject);
    if inject {
        let caught_spmv = fails.iter().any(|f| f == SPMV_DIVERGED);
        let caught_halo = fails.iter().any(|f| f.starts_with("halo:"));
        if caught_spmv && caught_halo {
            println!("workload-diff --inject: both injected divergences caught");
            return ExitCode::FAILURE; // non-zero by contract: divergence present
        }
        eprintln!(
            "workload-diff --inject: injected divergence NOT caught \
             (spmv={caught_spmv} halo={caught_halo})"
        );
        // A zero exit tells CI the self-test failed (CI inverts it).
        return ExitCode::SUCCESS;
    }
    if fails.is_empty() {
        println!(
            "workload-diff: PASS — spmv/stencil bit-identical to the references, \
             listings lint clean, halo volumes conserved"
        );
        ExitCode::SUCCESS
    } else {
        for f in &fails {
            eprintln!("workload-diff: FAIL — {f}");
        }
        ExitCode::FAILURE
    }
}
