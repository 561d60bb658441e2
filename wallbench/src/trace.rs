//! In-memory span recorder for the traced run.
//!
//! A span is opened around each call into a layer's public functions. It
//! records its name, start, end, parent span and round id; spans stay in
//! memory and are written out once, when the run ends. Recording is off
//! in the untraced rounds, where [`Tracer::span`] is a plain call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `blas.gemm`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Round the span belongs to.
    pub round: usize,
}

impl Span {
    /// Wall duration, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. Off by default.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    round: usize,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer with recording off.
    pub fn new() -> Self {
        Self {
            on: false,
            epoch: Instant::now(),
            round: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off for the following spans and sets the
    /// round id they carry.
    pub fn set(&mut self, on: bool, round: usize) {
        assert!(self.open.is_empty(), "round switched inside an open span");
        self.on = on;
        self.round = round;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its index (meaningless when recording is off).
    pub fn enter(&mut self, name: &'static str) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            round: self.round,
        });
        self.open.push(idx);
        idx
    }

    /// Closes the innermost open span, which must be `idx`.
    pub fn exit(&mut self, idx: usize) {
        if !self.on {
            return;
        }
        assert_eq!(self.open.pop(), Some(idx), "spans must nest");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let idx = self.enter(name);
        let r = f();
        self.exit(idx);
        r
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as tab-separated text: `id parent round name start_ns end_ns`.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tparent\tround\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.round, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover. Children of one parent never overlap, since
/// spans are recorded on one thread and nest.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Per-name totals of one round: self seconds and span durations.
#[derive(Clone, Debug, Default)]
pub struct RoundProfile {
    /// Wall time of the round's root span, s.
    pub wall_s: f64,
    self_s: BTreeMap<&'static str, f64>,
    durations: BTreeMap<&'static str, Vec<f64>>,
}

impl RoundProfile {
    /// Groups the spans of round `round` under the root span `root`:
    /// the root's own duration is the round's wall time, every other
    /// span adds its self time to its name.
    pub fn of(spans: &[Span], round: usize, root: &str) -> Self {
        let own = self_times(spans);
        let mut p = Self::default();
        for (s, own) in spans.iter().zip(own) {
            if s.round != round {
                continue;
            }
            if s.name == root {
                p.wall_s += s.duration_ns() as f64 * 1e-9;
                continue;
            }
            *p.self_s.entry(s.name).or_default() += own as f64 * 1e-9;
            p.durations
                .entry(s.name)
                .or_default()
                .push(s.duration_ns() as f64 * 1e-9);
        }
        p
    }

    /// Summed self time of spans named `name`, s.
    pub fn self_s(&self, name: &str) -> f64 {
        self.self_s.get(name).copied().unwrap_or(0.0)
    }

    /// Durations of the individual spans named `name`, s.
    pub fn durations(&self, name: &str) -> &[f64] {
        self.durations.get(name).map_or(&[], Vec::as_slice)
    }

    /// Sum of every non-root span's self time, s.
    pub fn layer_s(&self) -> f64 {
        self.self_s.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            round: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("round", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 20, 30, Some(1)),
            span("c", 60, 90, Some(0)),
        ];
        // round: 100 - 40 - 30; a: 40 - 10; b and c are leaves.
        assert_eq!(self_times(&spans), vec![30, 30, 10, 30]);
    }

    #[test]
    fn round_profile_sums_self_time_by_name() {
        let spans = [
            span("round", 0, 1_000_000_000, None),
            span("blas.gemm", 0, 400_000_000, Some(0)),
            span("blas.gemm", 500_000_000, 700_000_000, Some(0)),
            span("blas.getf2", 700_000_000, 900_000_000, Some(0)),
        ];
        let p = RoundProfile::of(&spans, 1, "round");
        assert!((p.wall_s - 1.0).abs() < 1e-12);
        assert!((p.self_s("blas.gemm") - 0.6).abs() < 1e-12);
        assert_eq!(p.durations("blas.gemm").len(), 2);
        assert_eq!(p.self_s("blas.trsm"), 0.0);
        assert!((p.layer_s() - 0.8).abs() < 1e-12);
        assert!(RoundProfile::of(&spans, 2, "round").layer_s() == 0.0);
    }

    #[test]
    fn recording_off_records_nothing_and_nesting_is_kept() {
        let mut t = Tracer::new();
        assert_eq!(t.span("x", || 7), 7);
        assert!(t.spans().is_empty());
        t.set(true, 3);
        let root = t.enter("round");
        t.span("inner", || ());
        t.exit(root);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].round, 3);
        assert!(t
            .to_tsv()
            .lines()
            .nth(2)
            .unwrap()
            .starts_with("1\t0\t3\tinner\t"));
    }
}
