//! Golden architectural-state snapshots of the performance-lab kernels
//! (SpMV and stencil), mirroring `golden_state.rs` for the DGEMM
//! kernels: fixed deterministic inputs, every public counter, and a
//! checksum of the results, compared line-by-line against a checked-in
//! fixture.
//!
//! To regenerate after an intentional model change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p phi-knc --test golden_workloads
//! ```

use phi_knc::emu::RunStats;
use phi_knc::spmv::{run_spmv, uniform_rect_csr};
use phi_knc::stencil::{run_stencil, StarStencil};
use phi_knc::PipelineConfig;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

fn fnv_bits(vals: &[f64]) -> u64 {
    vals.iter()
        .fold(FNV_OFFSET, |h, v| (h ^ v.to_bits()).wrapping_mul(FNV_PRIME))
}

fn stat_lines(tag: &str, cycles: u64, s: &RunStats, checksum: u64) -> Vec<String> {
    vec![
        format!("{tag} cycles={cycles}"),
        format!(
            "{tag} issue vector={} fmadds={} vpipe={}",
            s.vector_issued, s.fmadds, s.vpipe_issued
        ),
        format!(
            "{tag} stalls fill={} demand={} fills_in_holes={} fills_completed={}",
            s.fill_stall_cycles, s.demand_stall_cycles, s.fills_in_holes, s.fills_completed
        ),
        format!("{tag} result={checksum:#018x}"),
    ]
}

fn spmv_snapshot() -> Vec<String> {
    let a = uniform_rect_csr(96, 160, 0x5EED);
    let x: Vec<f64> = (0..a.cols)
        .map(|i| ((i * 3 + 1) % 11) as f64 - 5.0)
        .collect();
    let rep = run_spmv(&a, &x, PipelineConfig::default());
    let mut lines = stat_lines("spmv", rep.cycles_total, &rep.stats, fnv_bits(&rep.y));
    lines.insert(
        1,
        format!(
            "spmv shape rows={} nnz={} padded={}",
            rep.rows, rep.nnz, rep.padded_nnz
        ),
    );
    lines
}

fn stencil_snapshot() -> Vec<String> {
    let st = StarStencil::seven_point(-6.0, 1.0);
    let dims = (16, 12, 2);
    let grid: Vec<f64> = (0..dims.0 * dims.1 * 8 * dims.2)
        .map(|i| ((i * 7 + 1) % 13) as f64 - 6.0)
        .collect();
    let rep = run_stencil(&st, dims, &grid, PipelineConfig::default());
    let mut lines = stat_lines("stencil", rep.cycles_total, &rep.stats, fnv_bits(&rep.out));
    lines.insert(
        1,
        format!(
            "stencil dims={}x{}x{} taps={}",
            dims.0,
            dims.1,
            8 * dims.2,
            rep.taps
        ),
    );
    lines
}

#[test]
fn workload_state_matches_golden() {
    let mut lines = spmv_snapshot();
    lines.extend(stencil_snapshot());
    let rendered = lines.join("\n") + "\n";
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/workload_state.txt"
    );
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &rendered).expect("write golden fixture");
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden fixture missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        rendered, golden,
        "workload architectural state drifted from the golden snapshot; \
         if the change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}
