//! Metric names, output checks and the result line.
//!
//! The names here are the ones `BENCHMARK.json` declares; a test keeps
//! the two in step.

use crate::stats::{median, quartiles};
use std::fmt::Write as _;

/// End-to-end metrics, `(name, unit)`. Every workload reports all of
/// them, each measured on its own layers; the README maps each leg to
/// its work per workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("leg1_s", "s"),
    ("leg2_s", "s"),
    ("leg3_s", "s"),
    ("leg4_s", "s"),
];

/// Per-layer metrics of the traced run, `(name, unit)`. A workload that
/// does not call a layer reports its metrics as 0.
pub const PER_LAYER: [(&str, &str); 61] = [
    // solve
    ("matrix.gen_s", "s"),
    ("blas.gemm_s", "s"),
    ("blas.gemm_gflops", "GFLOP/s"),
    ("blas.gemm_share", "ratio"),
    ("blas.pack_s", "s"),
    ("blas.micro_kernel_gflops", "GFLOP/s"),
    ("blas.gemm_efficiency", "ratio"),
    ("blas.getf2_s", "s"),
    ("blas.trsm_s", "s"),
    ("blas.laswp_s", "s"),
    ("sched.dag_overhead", "ratio"),
    ("sched.speedup_2t", "ratio"),
    ("hpl.lu_solve_s", "s"),
    ("solve.flops", "flop"),
    // emulate
    ("knc.build_s", "s"),
    ("knc.k1_mcycles_per_s", "Mcycles/s"),
    ("knc.k2_mcycles_per_s", "Mcycles/s"),
    ("knc.spmv_mcycles_per_s", "Mcycles/s"),
    ("knc.stencil_mcycles_per_s", "Mcycles/s"),
    ("knc.k2_steady_efficiency", "ratio"),
    ("knc.gemm.sim_cycles", "count"),
    ("knc.gemm.vector_issued", "count"),
    ("knc.gemm.fmadds", "count"),
    ("knc.gemm.l1_fills", "count"),
    ("knc.gemm.fill_stall_cycles", "count"),
    ("knc.gemm.demand_stall_cycles", "count"),
    ("knc.spmv.sim_cycles", "count"),
    ("knc.spmv.vector_issued", "count"),
    ("knc.spmv.fmadds", "count"),
    ("knc.spmv.l1_fills", "count"),
    ("knc.spmv.fill_stall_cycles", "count"),
    ("knc.spmv.demand_stall_cycles", "count"),
    ("knc.stencil.sim_cycles", "count"),
    ("knc.stencil.vector_issued", "count"),
    ("knc.stencil.fmadds", "count"),
    ("knc.stencil.l1_fills", "count"),
    ("knc.stencil.fill_stall_cycles", "count"),
    ("knc.stencil.demand_stall_cycles", "count"),
    // campaign
    ("bench.fleet_cold_s", "s"),
    ("bench.fleet_warm_s", "s"),
    ("faults.plan_s", "s"),
    ("faults.events_per_plan", "count"),
    ("hpl.faulty_patch_s", "s"),
    ("hpl.faulty_wholesale_s", "s"),
    ("hpl.native_ft_s", "s"),
    ("hpl.analytic_s", "s"),
    ("hpl.calibrated_s", "s"),
    ("tune.coarse_s", "s"),
    ("tune.refine_s", "s"),
    ("tune.candidates", "count"),
    ("serve.store_put_s", "s"),
    ("serve.store_load_s", "s"),
    ("serve.store_bytes", "B"),
    ("serve.store_hit_ratio_cold", "ratio"),
    ("serve.store_hit_ratio_warm", "ratio"),
    ("serve.executed", "count"),
    ("serve.mem_hits", "count"),
    ("serve.request_p50_us", "us"),
    ("serve.request_p99_us", "us"),
    // every workload
    ("trace.overhead", "ratio"),
    ("trace.layer_share", "ratio"),
];

#[cfg(test)]
/// True when `name` is a valid metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Output checks, counted against the operations they cover.
#[derive(Default)]
pub struct Checks {
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose output was wrong.
    pub failed: u64,
    /// The first few failures, described.
    pub problems: Vec<String>,
}

impl Checks {
    /// Counts one checked operation; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 16 {
                self.problems.push(what());
            }
        }
    }
}

/// One reported metric: the median of its per-round samples.
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// One value per round (or per set-up repetition).
    pub samples: Vec<f64>,
    /// What the metric measured in this workload.
    pub note: String,
}

impl Metric {
    /// The reported value.
    pub fn value(&self) -> f64 {
        median(&self.samples)
    }

    /// The human-readable line: median, quartiles and round count.
    pub fn line(&self) -> String {
        let (q1, q3) = quartiles(&self.samples);
        format!(
            "{:<30} {:>14.6} {:<10} q1 {:<12.6} q3 {:<12.6} n {:<4} {}",
            self.name,
            self.value(),
            self.unit,
            q1,
            q3,
            self.samples.len(),
            self.note
        )
    }
}

/// The last line of the run: exactly `correct`, `attempted`, `failed`
/// and `metrics`. A value that is not finite cannot be written as JSON;
/// it is written as 0 and makes the result incorrect.
pub fn result_line(checks: &Checks, metrics: &[Metric]) -> String {
    let finite = metrics.iter().all(|m| m.value().is_finite());
    let correct = checks.failed == 0 && finite && checks.attempted > 0;
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.attempted.max(1),
        checks.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let v = m.value();
        let v = if v.is_finite() { v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_grammar() {
        for ok in ["setup_s", "blas.gemm_s", "knc.gemm.sim_cycles", "9a-b"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn declared_names_are_valid_and_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        assert!(names.iter().all(|n| valid_name(n)));
        let unit_ok = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(END_TO_END.iter().chain(&PER_LAYER).all(|m| unit_ok(m.1)));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let section = |key: &str| {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let rest = &json[start..];
            rest[..rest.find(']').expect("section closes")].to_string()
        };
        for (key, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let sec = section(key);
            assert_eq!(sec.matches("\"name\"").count(), list.len(), "{key} count");
            for (name, unit) in list {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(sec.contains(&entry), "{key} lacks {entry}");
            }
        }
    }

    #[test]
    fn result_line_shape() {
        let mut c = Checks::default();
        c.check(true, String::new);
        let m = Metric {
            name: "setup_s",
            unit: "s",
            samples: vec![0.25, 0.5, 1.0],
            note: String::new(),
        };
        assert_eq!(
            result_line(&c, &[m]),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        c.check(false, || "bad".into());
        assert!(result_line(&c, &[])
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }
}
