//! The run loop the three workloads share.
//!
//! An untraced run repeats set-up a few times, then repeats whole rounds
//! until `--seconds` have passed; every metric is the median over those
//! repetitions, never one interval and never the best one. A traced run
//! alternates an untraced and a traced execution of the same round, so
//! the per-layer numbers come from the traced half and the tracing
//! overhead from comparing the two halves.

use crate::reference::Timing;
use crate::report::{Checks, Metric, END_TO_END, PER_LAYER};
use crate::stats::median;
use crate::trace::{RoundProfile, Tracer};
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-up repetitions whose median is `setup_s`.
pub const SETUP_REPS: usize = 7;
/// Fewest rounds of an untraced run, however short `--seconds` is.
pub const MIN_ROUNDS: usize = 3;
/// Fewest untraced/traced pairs of a traced run.
pub const MIN_PAIRS: usize = 2;
/// Name of the span wrapping a whole round.
pub const ROOT: &str = "round";

/// Values a traced round hands to its metric derivation: exact counts
/// and computed work that spans do not carry.
pub type Facts = Vec<(&'static str, f64)>;

/// What a workload run produced.
pub struct Outcome {
    /// Metrics in declaration order.
    pub metrics: Vec<Metric>,
    /// Output checks.
    pub checks: Checks,
    /// Recorded spans of a traced run.
    pub tracer: Option<Tracer>,
}

/// Builds the workload's inputs [`SETUP_REPS`] times and keeps the last.
/// Returns the inputs and the timing of each build.
pub fn setup<T>(mut build: impl FnMut() -> T) -> (T, Vec<Timing>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        // Free the previous copy first, so every build pays for fresh memory.
        drop(last.take());
        let (t, inputs) = Timing::of(&mut build);
        times.push(t);
        last = Some(inputs);
    }
    (last.expect("at least one set-up"), times)
}

/// Runs `round` until `seconds` have passed and at least [`MIN_ROUNDS`]
/// ran. `round` gets its index and returns the timings of its four legs.
pub fn rounds(seconds: f64, mut round: impl FnMut(usize) -> [Timing; 4]) -> Vec<[Timing; 4]> {
    let start = Instant::now();
    let mut legs = Vec::new();
    while legs.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        legs.push(round(legs.len()));
    }
    legs
}

/// The end-to-end metrics of an untraced run, each the median of its
/// normalised per-round times. `notes` say what each leg did in this
/// workload, given the leg's median wall seconds.
pub fn end_to_end(
    setup: &[Timing],
    legs: &[[Timing; 4]],
    notes: impl Fn(usize, f64) -> String,
) -> Vec<Metric> {
    let rss = crate::host::peak_rss_mib().unwrap_or(f64::NAN);
    let describe = |ts: &[Timing], what: String| {
        let wall: Vec<f64> = ts.iter().map(|t| t.wall_s).collect();
        let reference: Vec<f64> = ts.iter().map(|t| t.reference_s).collect();
        format!(
            "{what}; wall {:.6} s, reference {:.6} s",
            median(&wall),
            median(&reference)
        )
    };
    // END_TO_END lists set-up, peak RSS, then the four legs in order.
    END_TO_END
        .iter()
        .enumerate()
        .map(|(i, &(name, unit))| {
            let (samples, note) = match i {
                0 => (
                    setup.iter().map(Timing::normalised_s).collect(),
                    describe(setup, format!("{SETUP_REPS} set-ups")),
                ),
                1 => (vec![rss], "VmHWM at the end of the rounds".into()),
                _ => {
                    let k = i - 2;
                    let ts: Vec<Timing> = legs.iter().map(|l| l[k]).collect();
                    let wall: Vec<f64> = ts.iter().map(|t| t.wall_s).collect();
                    (
                        ts.iter().map(Timing::normalised_s).collect(),
                        describe(&ts, notes(k, median(&wall))),
                    )
                }
            };
            Metric {
                name,
                unit,
                samples,
                note,
            }
        })
        .collect()
}

/// A finished traced run.
pub struct TracedRun {
    /// The recorder, holding every span of the traced rounds.
    pub tracer: Tracer,
    /// `(round id, facts)` of each traced round.
    pub traced: Vec<(usize, Facts)>,
    /// Wall seconds of each untraced round.
    pub untraced_s: Vec<f64>,
}

/// Alternates untraced (even ids) and traced (odd ids) executions of
/// `round` until `seconds` have passed and at least [`MIN_PAIRS`] pairs
/// ran. `round` wraps each call into a layer in [`Tracer::span`].
pub fn traced_rounds(
    seconds: f64,
    mut round: impl FnMut(usize, &mut Tracer) -> Facts,
) -> TracedRun {
    let mut tracer = Tracer::new();
    let mut traced = Vec::new();
    let mut untraced_s = Vec::new();
    let start = Instant::now();
    let mut id = 0;
    while traced.len() < MIN_PAIRS || start.elapsed().as_secs_f64() < seconds {
        for on in [false, true] {
            tracer.set(on, id);
            let t0 = Instant::now();
            let root = tracer.enter(ROOT);
            let facts = round(id, &mut tracer);
            tracer.exit(root);
            if on {
                traced.push((id, facts));
            } else {
                untraced_s.push(t0.elapsed().as_secs_f64());
            }
            id += 1;
        }
    }
    tracer.set(false, id);
    TracedRun {
        tracer,
        traced,
        untraced_s,
    }
}

/// The per-layer metrics of a traced run: `derive` turns one traced
/// round's profile and facts into metric values; each metric is the
/// median over traced rounds. Every name in [`PER_LAYER`] is reported,
/// as 0 where this workload does not produce it.
pub fn per_layer(
    run: &TracedRun,
    derive: impl Fn(&RoundProfile, &Facts) -> Vec<(&'static str, f64)>,
) -> Vec<Metric> {
    let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (k, (id, facts)) in run.traced.iter().enumerate() {
        let p = RoundProfile::of(run.tracer.spans(), *id, ROOT);
        let mut values = derive(&p, facts);
        values.push(("trace.layer_share", p.layer_s() / p.wall_s));
        values.push(("trace.overhead", p.wall_s / run.untraced_s[k] - 1.0));
        for (name, v) in values {
            assert!(
                PER_LAYER.iter().any(|m| m.0 == name),
                "undeclared per-layer metric {name}"
            );
            samples.entry(name).or_default().push(v);
        }
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let (samples, note) = match samples.remove(name) {
                Some(s) => (s, String::new()),
                None => (vec![0.0], "not exercised".into()),
            };
            Metric {
                name,
                unit,
                samples,
                note,
            }
        })
        .collect()
}

/// Looks up a fact by name (0 when absent).
pub fn fact(facts: &Facts, name: &str) -> f64 {
    facts.iter().find(|f| f.0 == name).map_or(0.0, |f| f.1)
}
