//! `perfbench` — the repository's benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--node-bin <path>]
//! ```
//!
//! Four workloads, each driven from this one process through the crates'
//! public APIs:
//!
//! * `sim-skeap-sync` — Skeap on the synchronous scheduler, open loop,
//!   Poisson arrivals at 128 per tick, Zipf(1.0) over 16 priorities,
//!   n = 1024. Loads the protocol handlers and the round scheduler; no
//!   faults, no transport, no KSelect, no sockets.
//! * `sim-seap-sync` — Seap on the same scheduler, 4 arrivals per tick,
//!   uniform priorities over 2^20, n = 256. The only workload where
//!   KSelect and Seap's phases do the work.
//! * `sim-skeap-async-faulty` — Skeap over `Reliable` links (RTO 1024
//!   steps) on the random adversary with 5% drop, 2% duplication and delay
//!   inflation, n = 64, 256 steps per tick, 1 arrival per tick — well
//!   below the retransmit collapse, which a guard turns into failed ops.
//! * `wire-skeap-uds` — three `dpq-node` daemons over UDS with a WAL,
//!   driven closed loop by one client holding ctl connections to nodes 0
//!   and 1. The only workload that exercises sockets, the WAL and the
//!   runtime's tick.
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it reports the per-layer ledger, timed from outside the
//! program (see `ledger.rs` and `wire.rs`). Correctness is checked in the
//! same run, outside the timed region; the process exits 1 if a check
//! fails, after printing the result line with `"correct": false`.

mod calib;
mod ledger;
mod report;
mod sim;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{median, Report};
use sim::{Rep, SimKind};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    node_bin: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut node_bin) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => seed = Some(val()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(val()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--trace" => {
                trace = Some(match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v:?}")),
                })
            }
            "--node-bin" => node_bin = Some(PathBuf::from(val()?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        node_bin,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let report = match args.workload.as_str() {
        "sim-skeap-sync" => run_sim(SimKind::SkeapSync, &args, budget),
        "sim-seap-sync" => run_sim(SimKind::SeapSync, &args, budget),
        "sim-skeap-async-faulty" => run_sim(SimKind::SkeapAsyncFaulty, &args, budget),
        "wire-skeap-uds" => match &args.node_bin {
            Some(bin) => wire::run(bin, args.seed, budget, args.trace),
            None => {
                eprintln!("perfbench: wire-skeap-uds needs --node-bin <dpq-node>");
                return ExitCode::from(2);
            }
        },
        other => {
            eprintln!(
                "perfbench: unknown workload {other:?} (sim-skeap-sync, sim-seap-sync, \
                 sim-skeap-async-faulty, wire-skeap-uds)"
            );
            return ExitCode::from(2);
        }
    };
    let mut report = report;
    report.conform(if args.trace { PER_LAYER } else { END_TO_END });
    report.print();
    if report.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The end-to-end metrics (`--trace 0`), as `BENCHMARK.json` lists them.
/// Each is defined, and never zero, on every workload.
const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("latency_p50_ticks", "ticks"),
    ("latency_p99_ticks", "ticks"),
    ("msgs_per_op", "msgs/op"),
    ("bits_per_op", "bits/op"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics (`--trace 1`), as `BENCHMARK.json` lists them. A
/// layer a workload does not run reads zero there.
const PER_LAYER: &[(&str, &str)] = &[
    ("workload.schedule_s", "s"),
    ("cluster.build_s", "s"),
    ("sched_sync.step_s", "s"),
    ("sched_sync.self_s", "s"),
    ("sched_sync.round_p99_us", "us"),
    ("sched_async.self_s", "s"),
    ("flightset.in_flight_peak", "msgs"),
    ("sim.steps_per_op", "steps/op"),
    ("reliable.self_s", "s"),
    ("reliable.retransmits_per_op", "frames/op"),
    ("reliable.dup_suppressed", "count"),
    ("reliable.useful_ratio", "ratio"),
    ("faults.dropped", "count"),
    ("faults.duplicated", "count"),
    ("faults.delayed", "count"),
    ("skeap.tree_s", "s"),
    ("skeap.tree_msgs", "msgs"),
    ("dht.handler_s", "s"),
    ("dht.msgs", "msgs"),
    ("seap.phase_s", "s"),
    ("seap.phase_msgs", "msgs"),
    ("kselect.handler_s", "s"),
    ("kselect.msgs", "msgs"),
    ("proto.activate_s", "s"),
    ("driver.inject_s", "s"),
    ("unattributed_s", "s"),
    ("trace.overhead_pct", "%"),
    ("congestion", "msgs"),
    ("latency_p999_ticks", "ticks"),
    ("ctl.issue_rtt_p50_us", "us"),
    ("ctl.issue_rtt_p99_us", "us"),
    ("ctl.poll_rtt_p50_us", "us"),
    ("ctl.polls_per_op", "polls/op"),
    ("node.cpu_ms_per_op", "ms/op"),
    ("net.tx_frames_per_op", "frames/op"),
    ("net.tx_bytes_per_op", "bytes/op"),
    ("wal.bytes_per_op", "bytes/op"),
    ("net.op_latency_ticks_mean", "ticks"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
];

/// Repetitions below this are too few for a median, whatever the budget.
const MIN_REPS: usize = 3;
/// Set-ups timed on their own, on top of one per repetition, in groups
/// that share one host-speed probe. A set-up takes about a millisecond,
/// so these cost little and steady the median.
const EXTRA_SETUP_GROUPS: usize = 4;
const SETUPS_PER_GROUP: usize = 8;

fn run_sim(kind: SimKind, args: &Args, budget: Duration) -> Report {
    let mut r = Report::default();
    let started = Instant::now();
    let (mut plain, mut traced): (Vec<Rep>, Vec<Rep>) = (Vec::new(), Vec::new());
    // The traced run alternates untraced and traced repetitions, so the
    // overhead compares like with like under the same host conditions.
    while started.elapsed() < budget || plain.len() < MIN_REPS {
        let first = plain.is_empty();
        plain.push(sim::rep(kind, args.seed, false, first));
        if args.trace {
            traced.push(sim::rep(kind, args.seed, true, false));
        }
    }
    let base = &plain[0].exact;
    if let Some(Err(e)) = &plain[0].check {
        r.fail(e.clone());
    }
    for (i, rep) in plain.iter().enumerate().skip(1) {
        if rep.exact != *base {
            r.fail(format!(
                "repetition {i} diverged from repetition 0: not deterministic"
            ));
        }
    }
    for (i, rep) in traced.iter().enumerate() {
        if rep.exact != *base {
            r.fail(format!(
                "traced repetition {i} differs from the untraced run: {:?} vs {:?}",
                summary(&rep.exact),
                summary(base)
            ));
        }
    }
    r.attempted = plain.iter().map(|p| p.exact.offered).sum();
    r.failed = plain
        .iter()
        .map(|p| p.exact.offered - p.exact.completed)
        .sum();
    let reps = plain.len() as u64;
    r.notes.push(format!(
        "{kind:?} seed {}: {} ops/rep, {} reps, {} {}",
        args.seed,
        base.offered,
        reps,
        base.time,
        if base.lat_scale == 1 {
            "rounds"
        } else {
            "steps"
        }
    ));
    if args.trace {
        sim_layers(&mut r, base, &plain, &traced);
    } else {
        let ops = base.completed.max(1) as f64;
        let raw_rates: Vec<f64> = plain.iter().map(|p| ops / p.phases.drive_s).collect();
        let rates: Vec<f64> = plain
            .iter()
            .map(|p| ops / p.phases.drive_nominal_s)
            .collect();
        let mut setups: Vec<(f64, f64)> = plain
            .iter()
            .map(|p| {
                (
                    p.phases.schedule_s + p.phases.build_s,
                    p.phases.setup_slowdown,
                )
            })
            .collect();
        for _ in 0..EXTRA_SETUP_GROUPS {
            let s = calib::slowdown();
            setups.extend((0..SETUPS_PER_GROUP).map(|_| (sim::setup_secs(kind, args.seed), s)));
        }
        let raw_setup: Vec<f64> = setups.iter().map(|x| x.0).collect();
        let setup: Vec<f64> = setups.iter().map(|(t, s)| t / s).collect();
        let slowdowns: Vec<f64> = setups.iter().map(|x| x.1).collect();
        r.notes.push(format!(
            "unscaled medians: ops_per_s {:.1}, setup_s {:.7}; host slowdown at set-up: \
             median {:.3} (min {:.3}, max {:.3})",
            median(&raw_rates),
            median(&raw_setup),
            median(&slowdowns),
            report::quantile(&slowdowns, 0.0),
            report::quantile(&slowdowns, 1.0)
        ));
        r.notes.push(format!(
            "scaled ops_per_s over reps: min {:.0} q1 {:.0} median {:.0} q3 {:.0} max {:.0}",
            report::quantile(&rates, 0.0),
            report::quantile(&rates, 0.25),
            median(&rates),
            report::quantile(&rates, 0.75),
            report::quantile(&rates, 1.0)
        ));
        let lat_n = base.latency.count();
        r.push("ops_per_s", median(&rates), "1/s", reps);
        r.push("latency_p50_ticks", base.lat_ticks(0.50), "ticks", lat_n);
        r.push("latency_p99_ticks", base.lat_ticks(0.99), "ticks", lat_n);
        r.push("msgs_per_op", base.messages as f64 / ops, "msgs/op", lat_n);
        r.push("bits_per_op", base.bits as f64 / ops, "bits/op", lat_n);
        r.push("setup_s", median(&setup), "s", setup.len() as u64);
        r.push("peak_rss_mb", report::self_peak_rss_mb(), "MB", 1);
    }
    r
}

fn summary(e: &sim::Exact) -> (u64, u64, u64, u64, u64) {
    (e.completed, e.time, e.messages, e.bits, e.latency.sum())
}

/// The per-layer ledger of the simulator workloads: times are medians over
/// the traced repetitions, counts are exact. Layers the workload does not
/// run are left out here and read zero in the output.
fn sim_layers(r: &mut Report, base: &sim::Exact, plain: &[Rep], traced: &[Rep]) {
    use ledger::Slot;
    let n = traced.len() as u64;
    let ops = base.completed.max(1) as f64;
    let layers: Vec<&sim::Layers> = traced.iter().filter_map(|t| t.layers.as_ref()).collect();
    let med = |f: &dyn Fn(&Rep, &sim::Layers) -> f64| -> f64 {
        let v: Vec<f64> = traced
            .iter()
            .zip(&layers)
            .map(|(rep, l)| f(rep, l))
            .collect();
        median(&v)
    };
    let secs = |l: &sim::Layers, s: Slot| l.slots[s as usize].secs;
    let handlers = |l: &sim::Layers| -> f64 { Slot::HANDLERS.iter().map(|&s| secs(l, s)).sum() };
    let first = layers.first().copied().cloned().unwrap_or_default();
    let calls = |s: Slot| first.slots[s as usize].calls as f64;

    r.push(
        "workload.schedule_s",
        med(&|rep, _| rep.phases.schedule_s),
        "s",
        n,
    );
    r.push("cluster.build_s", med(&|rep, _| rep.phases.build_s), "s", n);
    if base.lat_scale > 1 {
        // Async: the scheduler calls into `Reliable`, which calls the
        // handlers; self times peel off one layer each.
        let reliable = |l: &sim::Layers| secs(l, Slot::Reliable);
        r.push(
            "sched_async.self_s",
            med(&|_, l| l.step_s - reliable(l)),
            "s",
            n,
        );
        r.push(
            "reliable.self_s",
            med(&|_, l| reliable(l) - handlers(l)),
            "s",
            n,
        );
        r.push(
            "flightset.in_flight_peak",
            first.in_flight_peak as f64,
            "msgs",
            1,
        );
        r.push("sim.steps_per_op", base.time as f64 / ops, "steps/op", 1);
        let (retx, dups) = base.transport;
        r.push(
            "reliable.retransmits_per_op",
            retx as f64 / ops,
            "frames/op",
            1,
        );
        r.push("reliable.dup_suppressed", dups as f64, "count", 1);
        let inner: f64 = [Slot::SkeapTree, Slot::SeapPhase, Slot::KSelect, Slot::Dht]
            .into_iter()
            .map(calls)
            .sum();
        // Every `Reliable` activation activates the inner node once.
        let frames = calls(Slot::Reliable) - calls(Slot::Activate);
        r.push("reliable.useful_ratio", inner / frames.max(1.0), "ratio", 1);
        let (dropped, duplicated, delayed) = base.faults;
        r.push("faults.dropped", dropped as f64, "count", 1);
        r.push("faults.duplicated", duplicated as f64, "count", 1);
        r.push("faults.delayed", delayed as f64, "count", 1);
    } else {
        r.push("sched_sync.step_s", med(&|_, l| l.step_s), "s", n);
        r.push(
            "sched_sync.self_s",
            med(&|_, l| l.step_s - handlers(l)),
            "s",
            n,
        );
        r.push(
            "sched_sync.round_p99_us",
            med(&|_, l| l.round_ns.quantile(0.99) as f64 / 1e3),
            "us",
            first.round_ns.count(),
        );
        r.push("congestion", base.congestion as f64, "msgs", 1);
    }
    for (name_s, name_m, s) in [
        ("skeap.tree_s", "skeap.tree_msgs", Slot::SkeapTree),
        ("dht.handler_s", "dht.msgs", Slot::Dht),
        ("seap.phase_s", "seap.phase_msgs", Slot::SeapPhase),
        ("kselect.handler_s", "kselect.msgs", Slot::KSelect),
    ] {
        if calls(s) > 0.0 {
            r.push(name_s, med(&|_, l| secs(l, s)), "s", n);
            r.push(name_m, calls(s), "msgs", 1);
        }
    }
    r.push(
        "proto.activate_s",
        med(&|_, l| secs(l, Slot::Activate)),
        "s",
        n,
    );
    r.push("driver.inject_s", med(&|_, l| l.inject_s), "s", n);
    // Traced wall time minus the layers' self times, which sum to the
    // injections plus the scheduler calls.
    r.push(
        "unattributed_s",
        med(&|rep, l| rep.phases.drive_s - l.inject_s - l.step_s),
        "s",
        n,
    );
    let drive = |reps: &[Rep]| median(&reps.iter().map(|p| p.phases.drive_s).collect::<Vec<_>>());
    r.push(
        "trace.overhead_pct",
        (drive(traced) / drive(plain) - 1.0) * 100.0,
        "%",
        n,
    );
    let lat_n = base.latency.count();
    // Only with at least ten samples beyond it.
    if lat_n >= 10_000 {
        r.push("latency_p999_ticks", base.lat_ticks(0.999), "ticks", lat_n);
    }
}
