//! Golden architectural-state snapshots of the paper kernels.
//!
//! Each kernel variant runs for a fixed number of inner-loop iterations
//! on deterministic inputs; the resulting architectural +
//! micro-architectural state (full state digest, every public counter,
//! cache/TLB hit/miss tallies, and a checksum of the C tiles) is
//! compared line-by-line against a checked-in fixture, so any drift in
//! the interpreter or the digest itself shows up as a readable diff.
//!
//! To regenerate after an intentional model change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p phi-knc --test golden_state
//! ```

use phi_blas::gemm::MicroKernelKind;
use phi_knc::emu::{CoreSim, StreamBases};
use phi_knc::kernels::{build_basic_kernel, kernel_mr, A_COL_STRIDE, NR};
use phi_knc::PipelineConfig;

const DEPTH: usize = 96;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

fn fnv(h: u64, x: u64) -> u64 {
    let mut h = h ^ x;
    h = h.wrapping_mul(FNV_PRIME);
    h
}

/// Packs deterministic `a`/`b` tiles into a fresh memory image and
/// returns the sim plus per-thread bases (mirrors the layout the kernel
/// driver uses: padded 32-element `a` columns, per-thread `b`/`c`).
fn build_sim(kind: MicroKernelKind) -> (CoreSim, [StreamBases; 4], usize) {
    let mr = kernel_mr(kind);
    let a_len = A_COL_STRIDE * DEPTH;
    let b_len = NR * DEPTH;
    let c_len = A_COL_STRIDE * NR;
    let total = a_len + 4 * (b_len + c_len) + 64;
    let mut mem = vec![0.0; total];
    for p in 0..DEPTH {
        for r in 0..mr {
            mem[p * A_COL_STRIDE + r] = ((p * mr + r) * 7 % 23) as f64 - 11.0;
        }
    }
    let mut bases = [StreamBases::default(); 4];
    let mut cursor = a_len;
    for (t, b) in bases.iter_mut().enumerate() {
        b.a = 0;
        b.b = cursor;
        for i in 0..b_len {
            mem[cursor + i] = ((i * 5 + t) % 17) as f64 - 8.0;
        }
        cursor += b_len;
    }
    let c_base = cursor;
    for (t, b) in bases.iter_mut().enumerate() {
        b.c = c_base + t * c_len;
    }
    (CoreSim::new(PipelineConfig::default(), mem), bases, c_base)
}

fn snapshot(kind: MicroKernelKind) -> Vec<String> {
    let (body, epi) = build_basic_kernel(kind);
    let (mut sim, bases, c_base) = build_sim(kind);
    let cycles = sim.run(&body, &epi, DEPTH, &bases);
    let s = sim.stats();
    let (l1h, l1m) = sim.l1_stats();
    let (l2h, l2m) = sim.l2_stats();
    let (tlbh, tlbm) = sim.tlb_stats();
    let c_sum = sim.mem()[c_base..]
        .iter()
        .fold(FNV_OFFSET, |h, v| fnv(h, v.to_bits()));
    let tag = format!("{kind:?}").to_lowercase();
    vec![
        format!(
            "{tag} depth={DEPTH} cycles={cycles} digest={:#018x}",
            sim.state_digest()
        ),
        format!(
            "{tag} issue vector={} fmadds={} vpipe={}",
            s.vector_issued, s.fmadds, s.vpipe_issued
        ),
        format!(
            "{tag} stalls fill={} demand={} fills_in_holes={} fills_completed={}",
            s.fill_stall_cycles, s.demand_stall_cycles, s.fills_in_holes, s.fills_completed
        ),
        format!("{tag} l1={l1h}/{l1m} l2={l2h}/{l2m} tlb={tlbh}/{tlbm}"),
        format!("{tag} c_tiles={c_sum:#018x}"),
    ]
}

#[test]
fn kernel_state_matches_golden() {
    let mut lines = Vec::new();
    for kind in [MicroKernelKind::Kernel1, MicroKernelKind::Kernel2] {
        lines.extend(snapshot(kind));
    }
    let rendered = lines.join("\n") + "\n";
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/kernel_state.txt");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &rendered).expect("write golden fixture");
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden fixture missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        rendered, golden,
        "architectural state drifted from the golden snapshot; if the \
         change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}
