//! The reference computations end-to-end times are normalised by.
//!
//! On a shared host the speed of this machine drifts by tens of percent
//! within minutes, and different kinds of work drift differently. The
//! emulator, an interpreter, drifts most: on the reference host one
//! Kernel 1 tile product ranged 0.056–0.067 s across 7-second windows
//! of one process, and 0.038–0.061 s across back-to-back processes. A
//! small bytecode interpreter written here, run right before each timed
//! leg, slows down with it: the ratio of the two stayed within 0.77–0.81
//! over the same windows. Store reads drift with the cost of system calls
//! instead, which the interpreter does not track; they are compared with
//! reads of one small file. Each end-to-end time is reported as
//! `wall × nominal / reference`, the seconds the work would take on a
//! host where the reference takes its nominal time. The references are
//! the benchmark's own code, so no change to the program moves them.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Interpreter steps of one reference run.
const STEPS: usize = 2_500_000;
/// Reads of the reference file in one reference run.
const READS: usize = 2000;
/// Instructions in the reference program.
const PROGRAM: usize = 512;
/// Words of reference memory.
const MEMORY: usize = 8192;

/// One instruction: opcode, two registers, an immediate.
type Instr = (u8, usize, usize, usize);

/// A fixed, seeded program of loads, stores, arithmetic and
/// data-dependent branches.
fn program() -> Vec<Instr> {
    let mut x = 0x1234_5678_9abc_def0u64;
    (0..PROGRAM)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (
                (x % 12) as u8,
                (x >> 8) as usize % 16,
                (x >> 16) as usize % 16,
                (x >> 24) as usize % 4096,
            )
        })
        .collect()
}

/// Interprets `steps` instructions of `prog`; returns a digest of the state.
fn interpret(prog: &[Instr], steps: usize) -> u64 {
    let mut mem = vec![0u64; MEMORY];
    let mut reg = [1u64; 16];
    let mut pc = 0;
    for _ in 0..steps {
        let (op, a, b, imm) = prog[pc];
        pc = (pc + 1) % PROGRAM;
        match op {
            0 => reg[a] = reg[a].wrapping_add(reg[b]),
            1 => reg[a] = reg[a].wrapping_mul(reg[b] | 1),
            2 => reg[a] ^= reg[b].rotate_left(7),
            3 => reg[a] = mem[(reg[b] as usize).wrapping_add(imm) % MEMORY],
            4 => mem[(reg[a] as usize).wrapping_add(imm) % MEMORY] = reg[b],
            5 if reg[a] & 1 == 0 => pc = (pc + imm) % PROGRAM,
            6 if reg[a] > reg[b] => pc = (pc + 2) % PROGRAM,
            7 => reg[a] = reg[a].wrapping_sub(imm as u64),
            8 => reg[a] = (reg[a] as f64 * 1.000001 + reg[b] as f64).to_bits() >> 12,
            9 => reg[a] = reg[b] >> (imm % 13),
            10 => reg[a] = reg[a].wrapping_add(imm as u64),
            11 => reg[a] = reg[b] ^ 0x9e37,
            _ => {}
        }
    }
    reg.iter().fold(mem[17], |h, r| h ^ r)
}

/// What a timed piece of work is compared with.
pub enum Reference<'a> {
    /// The bytecode interpreter: compute-bound work.
    Interpreter,
    /// Reads of one small file: work dominated by file-system calls.
    FileReads(&'a Path),
}

impl Reference<'_> {
    /// The reference's time on the reference host, s.
    fn nominal_s(&self) -> f64 {
        match self {
            Reference::Interpreter => 0.008,
            Reference::FileReads(_) => 0.007,
        }
    }

    /// Runs the reference once; returns its wall time, s.
    fn run(&self) -> f64 {
        let t0 = Instant::now();
        match self {
            Reference::Interpreter => {
                black_box(interpret(black_box(&program()), black_box(STEPS)));
            }
            Reference::FileReads(path) => {
                for _ in 0..READS {
                    black_box(std::fs::read_to_string(path).expect("reference file"));
                }
            }
        }
        t0.elapsed().as_secs_f64()
    }
}

/// A timed piece of work with a reference run just before it.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// Wall time of the work, s.
    pub wall_s: f64,
    /// Wall time of the reference run before it, s.
    pub reference_s: f64,
    /// The reference's nominal time, s.
    nominal_s: f64,
}

impl Timing {
    /// Runs the interpreter reference, then times `f`.
    pub fn of<R>(f: impl FnOnce() -> R) -> (Self, R) {
        Self::against(&Reference::Interpreter, f)
    }

    /// Runs `reference`, then times `f`.
    pub fn against<R>(reference: &Reference, f: impl FnOnce() -> R) -> (Self, R) {
        let reference_s = reference.run();
        let t0 = Instant::now();
        let r = black_box(f());
        let wall_s = t0.elapsed().as_secs_f64();
        let t = Self {
            wall_s,
            reference_s,
            nominal_s: reference.nominal_s(),
        };
        (t, r)
    }

    /// The wall time at the reference host's speed, s.
    pub fn normalised_s(&self) -> f64 {
        self.wall_s * self.nominal_s / self.reference_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_is_deterministic_work() {
        let prog = program();
        assert_eq!(interpret(&prog, 10_000), interpret(&prog, 10_000));
        assert_ne!(interpret(&prog, 10_000), interpret(&prog, 10_001));
    }

    #[test]
    fn normalising_scales_by_the_reference() {
        let (t, x) = Timing::of(|| 7);
        assert_eq!(x, 7);
        assert!(t.reference_s > 0.0);
        let slower = Timing {
            wall_s: 2.0 * t.wall_s,
            reference_s: 2.0 * t.reference_s,
            ..t
        };
        assert!((slower.normalised_s() - t.normalised_s()).abs() < 1e-12);
    }
}
