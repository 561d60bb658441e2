//! `wallbench` — wall-clock benchmark of this program's own speed.
//!
//! ```text
//! cargo run --release --manifest-path wallbench/Cargo.toml -- \
//!     --workload solve|emulate|campaign --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints the host fingerprint, one line per metric (median, quartiles
//! and round count) and, as the last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 1` reports
//! the per-layer metrics of a traced run instead of the end-to-end ones
//! and writes its spans to `.wallbench/spans-<workload>-<seed>.tsv`.
//! See `wallbench/README.md` for what each workload measures and why.

mod campaign;
mod emulate;
mod harness;
mod host;
mod reference;
mod report;
mod solve;
mod stats;
mod trace;

use std::io::Write as _;
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    /// `solve`, `emulate` or `campaign`.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the rounds run, s.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["solve", "emulate", "campaign"];

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
        };
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => args.workload = value,
                "--seed" => args.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    args.seconds = value.parse().map_err(|_| bad())?;
                    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                        return Err(bad());
                    }
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}",
                WORKLOADS.join(", ")
            ));
        }
        Ok(args)
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wallbench: {e}");
            eprintln!(
                "usage: wallbench --workload solve|emulate|campaign --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let scratch = match host::ScratchDir::create() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("wallbench: cannot create the scratch directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "wallbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("host {}", host::Fingerprint::probe().to_json());

    let outcome = match args.workload.as_str() {
        "solve" => solve::run(&args),
        "emulate" => emulate::run(&args),
        _ => campaign::run(&args, scratch.path()),
    };

    if let Some(tracer) = &outcome.tracer {
        let path = std::path::Path::new(host::OUT_DIR)
            .join(format!("spans-{}-{}.tsv", args.workload, args.seed));
        match std::fs::write(&path, tracer.to_tsv()) {
            Ok(()) => println!("spans {} ({} spans)", path.display(), tracer.spans().len()),
            Err(e) => eprintln!("wallbench: cannot write {}: {e}", path.display()),
        }
    }
    for m in &outcome.metrics {
        println!("{}", m.line());
    }
    for p in &outcome.checks.problems {
        println!("check failed: {p}");
    }
    drop(scratch);
    println!("{}", report::result_line(&outcome.checks, &outcome.metrics));
    let _ = std::io::stdout().flush();
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse("--workload emulate --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("emulate", 7, 10.0, true)
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope",
            "--workload solve --trace 2",
            "--workload solve --seed -1",
            "--workload solve --seconds",
            "--workload solve --bogus 1",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
