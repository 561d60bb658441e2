//! ISA conformance suite: executable behavior tables.
//!
//! Every `tests/isa/*.md` file documents one instruction family with a
//! markdown table whose rows are *runnable test cases*: a program in the
//! Fig. 2 listing syntax (parsed by `phi_knc::disasm::parse_instr`), an
//! iteration count, and concrete architectural expectations. This
//! harness parses the tables, executes every case on the emulator and
//! asserts that the documented expectations hold.
//!
//! Standard environment for every case: a 1024-double memory image with
//! `mem[i] = i`, one hardware thread, stream bases `rA = 0`, `rB = 256`,
//! `rC = 512`, and the default pipeline configuration. Check syntax (the
//! `checks` column, whitespace-separated):
//!
//! * `m[IDX]=V` — memory cell `IDX` equals `V` after the run;
//! * `m[LO..HI]=V` — every cell in the half-open range equals `V`;
//! * `cycles=N` — total cycles of the run;
//! * `fmas=N`, `vector=N`, `vpipe=N` — instruction-mix counters;
//! * `l1_hits=N`, `l1_misses=N`, `l2_hits=N`, `l2_misses=N`,
//!   `tlb_misses=N`, `fill_stalls=N`, `demand_stalls=N` — memory-system
//!   counters.
//!
//! Add a case by adding a row — no Rust required. The `probe_` test
//! (ignored by default) prints every case's measured counters to make
//! authoring timing expectations easy:
//! `cargo test -p phi-knc --test isa_conformance -- --ignored --nocapture`.

use phi_knc::disasm::parse_instr;
use phi_knc::emu::StreamBases;
use phi_knc::{CoreSim, PipelineConfig, Program};

const MEM_WORDS: usize = 1024;
const BASES: StreamBases = StreamBases {
    a: 0,
    b: 256,
    c: 512,
};

#[derive(Debug)]
enum Check {
    Mem { lo: usize, hi: usize, val: f64 },
    Counter { name: String, want: u64 },
}

struct Case {
    file: String,
    name: String,
    body: Program,
    epilogue: Program,
    iters: usize,
    checks: Vec<Check>,
}

fn strip_ticks(s: &str) -> &str {
    s.trim().trim_matches('`').trim()
}

/// Parses a semicolon-separated instruction list (`-` = empty program).
fn parse_listing(cell: &str, ctx: &str) -> Program {
    let mut p = Program::new();
    let cell = strip_ticks(cell);
    if cell == "-" || cell.is_empty() {
        return p;
    }
    for part in cell.split(';') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        p.push(parse_instr(part).unwrap_or_else(|e| panic!("{ctx}: bad instruction: {e}")));
    }
    p
}

fn parse_checks(cell: &str, ctx: &str) -> Vec<Check> {
    let mut out = Vec::new();
    for tok in strip_ticks(cell).split_whitespace() {
        let (lhs, rhs) = tok
            .split_once('=')
            .unwrap_or_else(|| panic!("{ctx}: check `{tok}` has no `=`"));
        if let Some(range) = lhs.strip_prefix("m[").and_then(|s| s.strip_suffix(']')) {
            let (lo, hi) = match range.split_once("..") {
                Some((l, h)) => (
                    l.parse()
                        .unwrap_or_else(|_| panic!("{ctx}: bad index in `{tok}`")),
                    h.parse()
                        .unwrap_or_else(|_| panic!("{ctx}: bad index in `{tok}`")),
                ),
                None => {
                    let i: usize = range
                        .parse()
                        .unwrap_or_else(|_| panic!("{ctx}: bad index in `{tok}`"));
                    (i, i + 1)
                }
            };
            let val: f64 = rhs
                .parse()
                .unwrap_or_else(|_| panic!("{ctx}: bad value in `{tok}`"));
            assert!(
                lo < hi && hi <= MEM_WORDS,
                "{ctx}: range out of bounds in `{tok}`"
            );
            out.push(Check::Mem { lo, hi, val });
        } else {
            let want: u64 = rhs
                .parse()
                .unwrap_or_else(|_| panic!("{ctx}: bad counter value in `{tok}`"));
            out.push(Check::Counter {
                name: lhs.to_string(),
                want,
            });
        }
    }
    out
}

/// Loads every case from every `tests/isa/*.md` table.
fn load_cases() -> Vec<Case> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/isa");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("tests/isa directory")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "md"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no behavior tables found in {dir}");

    let mut cases = Vec::new();
    for path in files {
        let file = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).expect("readable table");
        for line in text.lines() {
            let line = line.trim();
            if !line.starts_with('|') {
                continue;
            }
            let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
            if cells.len() != 5 || cells[0] == "case" || cells[0].starts_with('-') {
                continue;
            }
            let name = cells[0].to_string();
            let ctx = format!("{file}/{name}");
            cases.push(Case {
                body: parse_listing(cells[1], &ctx),
                epilogue: parse_listing(cells[2], &ctx),
                iters: strip_ticks(cells[3])
                    .parse()
                    .unwrap_or_else(|_| panic!("{ctx}: bad iteration count")),
                checks: parse_checks(cells[4], &ctx),
                file: file.clone(),
                name,
            });
        }
    }
    assert!(cases.len() >= 12, "suspiciously few cases: {}", cases.len());
    cases
}

fn run_case(case: &Case) -> CoreSim {
    let mem: Vec<f64> = (0..MEM_WORDS).map(|i| i as f64).collect();
    let mut sim = CoreSim::new(PipelineConfig::default(), mem);
    sim.run(&case.body, &case.epilogue, case.iters, &[BASES]);
    sim
}

fn counter(sim: &CoreSim, name: &str) -> Option<u64> {
    let s = sim.stats();
    Some(match name {
        "cycles" => s.cycles,
        "fmas" => s.fmadds,
        "vector" => s.vector_issued,
        "vpipe" => s.vpipe_issued,
        "fill_stalls" => s.fill_stall_cycles,
        "demand_stalls" => s.demand_stall_cycles,
        "l1_hits" => sim.l1_stats().0,
        "l1_misses" => sim.l1_stats().1,
        "l2_hits" => sim.l2_stats().0,
        "l2_misses" => sim.l2_stats().1,
        "tlb_misses" => sim.tlb_stats().1,
        _ => return None,
    })
}

fn apply_checks(case: &Case, sim: &CoreSim) {
    let ctx = format!("{}/{}", case.file, case.name);
    for check in &case.checks {
        match check {
            Check::Mem { lo, hi, val } => {
                for i in *lo..*hi {
                    assert_eq!(
                        sim.mem()[i].to_bits(),
                        val.to_bits(),
                        "{ctx}: m[{i}] = {} (want {val})",
                        sim.mem()[i]
                    );
                }
            }
            Check::Counter { name, want } => {
                let got =
                    counter(sim, name).unwrap_or_else(|| panic!("{ctx}: unknown counter `{name}`"));
                assert_eq!(got, *want, "{ctx}: {name} = {got} (want {want})");
            }
        }
    }
}

#[test]
fn behavior_tables_hold() {
    for case in &load_cases() {
        apply_checks(case, &run_case(case));
    }
}

#[test]
fn every_family_has_a_table_and_every_table_has_cases() {
    let cases = load_cases();
    for family in [
        "fmadd.md",
        "loadstore.md",
        "broadcast.md",
        "arith.md",
        "prefetch.md",
        "scalar_issue.md",
        "spmv.md",
        "stencil.md",
    ] {
        assert!(
            cases.iter().any(|c| c.file == family),
            "no cases found for {family}"
        );
    }
}

/// Authoring aid: prints measured counters for every case so timing
/// expectations can be transcribed into the tables. Ignored by default.
#[test]
#[ignore = "authoring aid"]
fn probe_counters() {
    for case in &load_cases() {
        let sim = run_case(case);
        let s = sim.stats();
        println!(
            "{}/{}: cycles={} fmas={} vector={} vpipe={} l1={:?} l2={:?} tlb={:?} fill_stalls={} demand_stalls={}",
            case.file,
            case.name,
            s.cycles,
            s.fmadds,
            s.vector_issued,
            s.vpipe_issued,
            sim.l1_stats(),
            sim.l2_stats(),
            sim.tlb_stats(),
            s.fill_stall_cycles,
            s.demand_stall_cycles,
        );
    }
}
