//! `campaign`: the fault-campaign and service stack.
//!
//! One round runs phi-bench's fleet driver on an empty store (simulations
//! plus record writes), repeats it on the now-full store (pure reads),
//! tunes both paper machines from scratch on one thread, and replays a
//! seeded closed-loop request stream (one client, one worker) through an
//! in-memory campaign service. All of its time is in `faults`, the `hpl`
//! hybrid/native/calibrated simulations, `tune`, `serve` and `bench`.
//!
//! The traced round also drives each fleet seed through the fault and
//! cluster entry points from here, one span per call; those per-seed
//! results must reproduce `run_fleet`'s fingerprints.

use crate::harness::{self, Facts, Outcome};
use crate::reference::{Reference, Timing};
use crate::report::Checks;
use crate::stats::percentile;
use crate::trace::RoundProfile;
use crate::Args;
use linpack_phi::faults::FaultPlan;
use linpack_phi::hpl::hybrid::{simulate_cluster, simulate_cluster_calibrated};
use linpack_phi::hpl::native::{simulate_native_cluster, simulate_native_cluster_ft};
use linpack_phi::hpl::{simulate_cluster_faulty, FtPolicy, RemapStrategy};
use linpack_phi::serve::{CampaignService, CampaignSpec, Fnv, ResultStore};
use linpack_phi::tune::{tune, MachineConfig, TuneOptions, TuneOutcome, TuneSpace};
use phi_bench::faults::paper_cluster;
use phi_bench::fleet::{
    fleet_native_cluster, run_fleet, run_fleet_stored, FleetOptions, FleetResult, FleetStoreStats,
    SeedOutcome,
};
use phi_bench::serve::{build_specs, ServeLoadOptions};
use std::path::Path;

/// Fleet seeds per round.
const SEEDS: usize = 400;
/// Warm fleet calls per round: one warm call is ~100x faster than a cold
/// one, so it is repeated to time more than a few milliseconds.
const WARM_CALLS: usize = 25;
/// Distinct campaign specs in the service stream.
const SPECS: usize = 48;
/// Times the stream asks for each spec.
const ASKS: usize = 4;

struct Inputs {
    fleet: FleetOptions,
    /// Healthy completion times of the fleet's hybrid and native systems,
    /// s: the fault horizons of every campaign scale from them.
    healthy_s: (f64, f64),
    machines: [(MachineConfig, TuneSpace); 2],
    tune: TuneOptions,
    specs: Vec<CampaignSpec>,
    /// Request `i` asks for `specs[stream[i]]`.
    stream: Vec<usize>,
}

/// SplitMix64: the benchmark's own seeded stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn build(seed: u64) -> Inputs {
    let mut rng = seed;
    let fleet = FleetOptions {
        seeds: SEEDS,
        seed0: splitmix(&mut rng),
        threads: 1,
        ..FleetOptions::default()
    };
    let healthy_s = (
        simulate_cluster(&paper_cluster(), false).report.time_s,
        simulate_native_cluster(&fleet_native_cluster()).time_s,
    );
    let machines = [
        MachineConfig::paper_single_node(),
        MachineConfig::paper_cluster_100(),
    ]
    .map(|m| (m, TuneSpace::coarse(&m)));
    let tune = TuneOptions {
        seed: splitmix(&mut rng),
        threads: 1,
        ..TuneOptions::default()
    };
    let mut specs = build_specs(&ServeLoadOptions {
        space: SPECS,
        seed0: splitmix(&mut rng),
        ..ServeLoadOptions::default()
    });
    // A quarter of the load generator's panel widths: four times the
    // stages, so each executed request simulates for milliseconds and the
    // leg is not dominated by the two thread wake-ups each execution costs.
    for s in &mut specs {
        s.nb /= 4;
    }
    // Every spec ASKS times, in a seeded order (Fisher-Yates).
    let mut stream: Vec<usize> = (0..SPECS * ASKS).map(|i| i % SPECS).collect();
    for i in (1..stream.len()).rev() {
        let j = (splitmix(&mut rng) % (i as u64 + 1)) as usize;
        stream.swap(i, j);
    }
    Inputs {
        fleet,
        healthy_s,
        machines,
        tune,
        specs,
        stream,
    }
}

fn tune_both(inp: &Inputs, coarse_only: bool) -> [TuneOutcome; 2] {
    let opts = TuneOptions {
        coarse_only,
        ..inp.tune
    };
    inp.machines
        .each_ref()
        .map(|(m, space)| tune(m, space, &opts))
}

/// Digest of one replay of the request stream, and the service's
/// executed and memory-hit counts.
struct Served {
    digest: u64,
    executed: usize,
    mem_hits: usize,
    errors: usize,
}

fn fold_served(service: &CampaignService, answers: Vec<Option<(u64, u64, f64)>>) -> Served {
    let mut h = Fnv::new();
    let mut errors = 0;
    for (i, a) in answers.iter().enumerate() {
        h.write_u64(i as u64);
        match a {
            Some((key, fp, gflops)) => {
                h.write_u64(*key);
                h.write_u64(*fp);
                h.write_u64(gflops.to_bits());
            }
            None => errors += 1,
        }
    }
    let stats = service.stats();
    Served {
        digest: h.finish(),
        executed: stats.executed,
        mem_hits: stats.mem_hits,
        errors,
    }
}

fn ask(service: &CampaignService, spec: &CampaignSpec) -> Option<(u64, u64, f64)> {
    service
        .get(spec)
        .ok()
        .map(|o| (o.key, o.fingerprint, o.gflops))
}

/// Cross-round expectations: every round replays identical inputs, so its
/// fleet digest and its stream digest must equal the first round's.
#[derive(Default)]
struct Replays {
    fleet: Option<u64>,
    serve: Option<u64>,
}

/// Records the first round's digest in `first`; checks later ones against it.
fn same_as_first(first: &mut Option<u64>, digest: u64, checks: &mut Checks, what: &str) {
    match *first {
        None => *first = Some(digest),
        Some(d) => checks.check(d == digest, || {
            format!("{what} digest {digest:#018x} differs from the first round's {d:#018x}")
        }),
    }
}

fn check_fleet(
    checks: &mut Checks,
    cold: &(FleetResult, FleetStoreStats),
    warm: &[(FleetResult, FleetStoreStats)],
    replays: &mut Replays,
) {
    checks.check(cold.1.hits == 0 && cold.1.misses == SEEDS, || {
        format!("cold fleet on an empty store: {:?}", cold.1)
    });
    for (w, stats) in warm {
        checks.check(stats.hits == SEEDS && w.digest == cold.0.digest, || {
            format!(
                "warm fleet: {stats:?}, digest {:#x} vs cold {:#x}",
                w.digest, cold.0.digest
            )
        });
    }
    same_as_first(&mut replays.fleet, cold.0.digest, checks, "fleet");
}

fn check_tune(checks: &mut Checks, outs: &[TuneOutcome; 2]) {
    for o in outs {
        checks.check(o.tuned_report.gflops >= o.baseline_report.gflops, || {
            format!(
                "tuned {} GFLOPS below the baseline's {}",
                o.tuned_report.gflops, o.baseline_report.gflops
            )
        });
    }
}

fn check_served(checks: &mut Checks, s: &Served, replays: &mut Replays) {
    let requests = SPECS * ASKS;
    checks.check(
        s.errors == 0 && s.executed == SPECS && s.mem_hits == requests - SPECS,
        || {
            format!(
                "serve: {} errors, {} executed, {} memory hits for {SPECS} specs x {ASKS}",
                s.errors, s.executed, s.mem_hits
            )
        },
    );
    same_as_first(&mut replays.serve, s.digest, checks, "serve stream");
}

/// A fresh, empty store directory for one round. Round stores are kept
/// until the run's scratch directory is removed at exit, so no deletion
/// runs between timed legs.
///
/// The file system is flushed first. Creating a file on ext4 gets slower
/// the more metadata earlier creations left dirty (0.2 to 0.65 ms of
/// kernel time per record file instead of ~0.03 ms on the reference
/// host), so without the flush a round's store writes would cost what
/// the previous rounds left behind. Best effort: without a `sync`
/// program the rounds run unflushed.
fn round_store(scratch: &Path, name: String) -> ResultStore {
    let _ = std::process::Command::new("sync").status();
    ResultStore::open(scratch.join(name)).expect("scratch store directory")
}

pub fn run(args: &Args, scratch: &Path) -> Outcome {
    let (inp, setup_times) = harness::setup(|| build(args.seed));
    if args.trace {
        return traced(args, &inp, scratch);
    }
    let mut checks = Checks::default();
    let mut replays = Replays::default();
    // The warm leg reads records; it is compared with reads of one file
    // the size of a record.
    let record = scratch.join("reference-record.txt");
    std::fs::write(&record, [b'x'; 192]).expect("scratch reference file");
    let reads = Reference::FileReads(&record);
    let legs = harness::rounds(args.seconds, |i| {
        let store = round_store(scratch, format!("round-{i}"));
        let (t1, cold) = Timing::of(|| run_fleet_stored(&inp.fleet, &store));
        let (t2, warm) = Timing::against(&reads, || {
            (0..WARM_CALLS)
                .map(|_| run_fleet_stored(&inp.fleet, &store))
                .collect::<Vec<_>>()
        });
        let (t3, tuned) = Timing::of(|| tune_both(&inp, false));
        let (t4, served) = Timing::of(|| {
            let service = CampaignService::in_memory(1);
            let answers = inp
                .stream
                .iter()
                .map(|&k| ask(&service, &inp.specs[k]))
                .collect();
            fold_served(&service, answers)
        });
        check_fleet(&mut checks, &cold, &warm, &mut replays);
        check_tune(&mut checks, &tuned);
        check_served(&mut checks, &served, &mut replays);
        [t1, t2, t3, t4]
    });
    let metrics = harness::end_to_end(&setup_times, &legs, |k, secs| {
        let rate = |work: usize| work as f64 / secs;
        match k {
            0 => format!("cold fleet: {:.1} seeds/s [fleet_seeds_per_s]", rate(SEEDS)),
            1 => format!(
                "warm fleet: {:.0} seeds/s [fleet_warm_seeds_per_s]",
                rate(WARM_CALLS * SEEDS)
            ),
            2 => "uncached tune of both paper machines [tune_s]".into(),
            _ => format!(
                "serve, 1 client, 1 worker: {:.1} req/s [serve_requests_per_s]",
                rate(SPECS * ASKS)
            ),
        }
    });
    Outcome {
        metrics,
        checks,
        tracer: None,
    }
}

/// Folds `x` into an FNV-1a hash, byte by byte (the fleet's fingerprint mix).
fn fnv_mix(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100000001b3);
    }
}

/// Store key of a decomposed seed's record.
fn seed_key(seed: u64) -> u64 {
    let mut h = 0xcbf29ce484222325;
    fnv_mix(&mut h, seed ^ 0x3a11_b3c5);
    h
}

fn traced(args: &Args, inp: &Inputs, scratch: &Path) -> Outcome {
    let mut checks = Checks::default();
    let mut replays = Replays::default();
    // The per-seed reference, computed outside the rounds.
    let reference: Vec<u64> = run_fleet(&inp.fleet)
        .outcomes
        .iter()
        .map(|o| o.fingerprint)
        .collect();
    let cfg = paper_cluster();
    let ncfg = fleet_native_cluster();
    let opts = &inp.fleet;

    let run = harness::traced_rounds(args.seconds, |i, t| {
        let store_a = round_store(scratch, format!("round-{i}-driver"));
        let store_b = round_store(scratch, format!("round-{i}-seeds"));

        // bench: the fleet driver, cold then warm.
        let cold = t.span("bench.fleet_cold", || run_fleet_stored(opts, &store_a));
        let warm: Vec<_> = (0..WARM_CALLS)
            .map(|_| t.span("bench.fleet_warm", || run_fleet_stored(opts, &store_a)))
            .collect();

        // The same seeds, one call per layer.
        let (healthy_s, native_healthy_s) = inp.healthy_s;
        let mut events = 0usize;
        let mut outcomes = Vec::with_capacity(SEEDS);
        for k in 0..SEEDS {
            let seed = opts.seed0.wrapping_add(k as u64);
            let (plan, nplan) = t.span("faults.plan", || {
                (
                    FaultPlan::fleet_campaign(
                        seed,
                        healthy_s * 1.2,
                        opts.events,
                        cfg.grid.size(),
                        cfg.cards_per_node,
                        opts.scope,
                    ),
                    FaultPlan::fleet_campaign(
                        seed,
                        native_healthy_s * 1.2,
                        opts.events,
                        ncfg.grid.size(),
                        1,
                        opts.scope,
                    ),
                )
            });
            events += plan.events().len() + nplan.events().len();
            let patch = t.span("hpl.faulty_patch", || {
                simulate_cluster_faulty(&cfg, &plan, &FtPolicy::default(), false)
            });
            let whsl = t.span("hpl.faulty_wholesale", || {
                let policy = FtPolicy::default().with_remap(RemapStrategy::Wholesale);
                simulate_cluster_faulty(&cfg, &plan, &policy, false)
            });
            let native = t.span("hpl.native_ft", || {
                simulate_native_cluster_ft(&ncfg, &nplan, true, RemapStrategy::Patch)
            });
            let f = patch
                .result
                .report
                .faults
                .expect("faulty runs carry accounting");
            let mut fingerprint = patch.run_fingerprint();
            fnv_mix(&mut fingerprint, whsl.run_fingerprint());
            fnv_mix(&mut fingerprint, native.time_s.to_bits());
            let out = SeedOutcome {
                seed,
                hosts_lost: f.hosts_lost,
                cards_lost: f.cards_lost,
                patch_time_s: patch.result.report.time_s,
                patch_gflops: patch.result.report.gflops,
                whsl_time_s: whsl.result.report.time_s,
                native_time_s: native.time_s,
                fingerprint,
            };
            let put = t.span("serve.store_put", || store_b.put(seed_key(seed), &out));
            checks.check(put.is_ok(), || format!("store put of seed {seed}: {put:?}"));
            outcomes.push(out);
        }
        for out in &outcomes {
            let back = t.span("serve.store_load", || {
                store_b.load::<SeedOutcome>(seed_key(out.seed))
            });
            checks.check(matches!(&back, Ok(Some(b)) if b == out), || {
                format!("store load of seed {} returned {back:?}", out.seed)
            });
        }

        // tune: coarse, then full; the full run's final table re-scored
        // at both fidelities.
        let coarse = t.span("tune.coarse", || tune_both(inp, true));
        let full = t.span("tune.full", || tune_both(inp, false));
        for (out, (m, _)) in full.iter().zip(&inp.machines) {
            for sc in &out.table {
                let cfg = sc.candidate.config(m);
                t.span("hpl.analytic", || simulate_cluster(&cfg, false));
                let cal = t.span("hpl.calibrated", || {
                    simulate_cluster_calibrated(&cfg, inp.tune.sample_every)
                });
                checks.check(cal.report.gflops == sc.report.gflops, || {
                    format!("calibrated re-score of {} differs", sc.candidate.describe())
                });
            }
        }

        // serve: the request stream, one span per request.
        let service = CampaignService::in_memory(1);
        let answers: Vec<_> = inp
            .stream
            .iter()
            .map(|&k| t.span("serve.get", || ask(&service, &inp.specs[k])))
            .collect();
        let served = fold_served(&service, answers);
        drop(service);

        check_fleet(&mut checks, &cold, &warm, &mut replays);
        check_tune(&mut checks, &coarse);
        check_tune(&mut checks, &full);
        check_served(&mut checks, &served, &mut replays);
        let fps: Vec<u64> = outcomes.iter().map(|o| o.fingerprint).collect();
        checks.check(fps == reference, || {
            "per-seed calls differ from run_fleet's fingerprints".into()
        });
        let store_bytes: u64 = outcomes
            .iter()
            .filter_map(|o| {
                std::fs::metadata(store_b.record_path::<SeedOutcome>(seed_key(o.seed))).ok()
            })
            .map(|m| m.len())
            .sum();

        let warm_hits: usize = warm.iter().map(|w| w.1.hits).sum();
        vec![
            ("faults.events_per_plan", events as f64 / (2 * SEEDS) as f64),
            (
                "tune.candidates",
                full.iter().map(|o| o.candidates_evaluated).sum::<usize>() as f64,
            ),
            ("serve.store_bytes", store_bytes as f64),
            (
                "serve.store_hit_ratio_cold",
                cold.1.hits as f64 / SEEDS as f64,
            ),
            (
                "serve.store_hit_ratio_warm",
                warm_hits as f64 / (WARM_CALLS * SEEDS) as f64,
            ),
            ("serve.executed", served.executed as f64),
            ("serve.mem_hits", served.mem_hits as f64),
        ]
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
    let us: Vec<f64> = p.durations("serve.get").iter().map(|d| d * 1e6).collect();
    let mut out = vec![
        ("bench.fleet_cold_s", s("bench.fleet_cold")),
        ("bench.fleet_warm_s", s("bench.fleet_warm")),
        ("faults.plan_s", s("faults.plan")),
        ("hpl.faulty_patch_s", s("hpl.faulty_patch")),
        ("hpl.faulty_wholesale_s", s("hpl.faulty_wholesale")),
        ("hpl.native_ft_s", s("hpl.native_ft")),
        ("hpl.analytic_s", s("hpl.analytic")),
        ("hpl.calibrated_s", s("hpl.calibrated")),
        ("tune.coarse_s", s("tune.coarse")),
        ("tune.refine_s", s("tune.full") - s("tune.coarse")),
        ("serve.store_put_s", s("serve.store_put")),
        ("serve.store_load_s", s("serve.store_load")),
        ("serve.request_p50_us", percentile(&us, 50.0)),
        ("serve.request_p99_us", percentile(&us, 99.0)),
    ];
    out.extend(facts.iter().copied());
    out
}
