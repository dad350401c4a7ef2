//! The `wire-skeap-uds` workload: three `dpq-node` daemons over Unix
//! sockets, each with a WAL and the default tick, driven closed loop by one
//! client thread holding ctl connections to entry nodes 0 and 1.
//!
//! The client keeps one op outstanding: it sends an Enqueue or Dequeue
//! (60/40, priorities Zipf(1.0) over 16, from the seed's schedule) to the
//! op's entry node, then polls `Status` on that node until `all_complete`.
//! Latency runs from the send to the poll that shows the op complete. The
//! daemons are built from the simulators' fixed cluster seed; the run's
//! seed draws only the op sequence.
//!
//! An untraced run is three segments, each on a freshly spawned cluster (a
//! traced run alternates two untraced and two traced ones), and the
//! end-to-end latencies in ticks come from the daemons' own op-latency
//! histograms, merged. The client's wall-clock latencies, in ms, are
//! per-layer figures: on the simulator workloads they have no meaning.
//!
//! Everything per-layer is read from outside the daemons: the client's own
//! request round trips, `/proc/<pid>/task/*/schedstat` CPU time, the
//! daemons' Prometheus text (`dpq_net_tx_*_total`, their op-latency
//! histogram in ticks) and the WAL file sizes.
//!
//! Sockets, WALs and traces live in a fresh directory under the working
//! directory; [`Cluster`]'s `Drop` kills and reaps every daemon and removes
//! the directory on every exit path, a panic included.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use dpq_core::{History, NodeHistory};
use dpq_net::ctl::{CtlClient, CtlReq, CtlResp, StatusInfo};
use dpq_net::trace::parse_trace;
use dpq_net::{cluster_fingerprint, Addr, ProtoId};
use dpq_semantics::{check_local_consistency, rank_error, replay, RankOrder, ReplayMode};
use dpq_telemetry::parse_prometheus;
use dpq_workload::{MixKind, OpenLoopSpec, Schedule, WorkOp};

use crate::calib;
use crate::report::{self, median, quantile, Report};
use crate::sim::CLUSTER_SEED;

const N: usize = 3;
const N_PRIOS: u64 = 16;
/// An op not complete after this long is failed and ends the segment.
const OP_TIMEOUT: Duration = Duration::from_secs(5);
/// How long to wait for a daemon to come up or to exit.
const PROC_TIMEOUT: Duration = Duration::from_secs(10);
/// Set-ups timed on their own (spawn, handshake, kill) on top of one per
/// segment, for a steadier `setup_s` median.
const EXTRA_SETUPS: usize = 8;

/// A running daemon cluster in its own directory.
struct Cluster {
    dir: PathBuf,
    procs: Vec<Child>,
    fingerprint: u64,
    ctl: Vec<Addr>,
}

impl Cluster {
    fn spawn(bin: &Path, tag: &str) -> std::io::Result<Cluster> {
        // Relative to the working directory: sockets stay inside the
        // checkout and well under the UDS path limit.
        let dir = PathBuf::from(format!(".perfbench-run-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        let listen: Vec<Addr> = (0..N)
            .map(|i| Addr::Uds(dir.join(format!("n{i}.sock"))))
            .collect();
        let ctl: Vec<Addr> = (0..N)
            .map(|i| Addr::Uds(dir.join(format!("n{i}.ctl"))))
            .collect();
        let mut cluster = Cluster {
            dir,
            procs: Vec::new(),
            fingerprint: cluster_fingerprint(ProtoId::Skeap, N, CLUSTER_SEED),
            ctl,
        };
        for i in 0..N {
            let file = |ext: &str| {
                cluster
                    .dir
                    .join(format!("n{i}.{ext}"))
                    .display()
                    .to_string()
            };
            let mut cmd = Command::new(bin);
            cmd.args([
                "--proto",
                "skeap",
                "--n",
                &N.to_string(),
                "--id",
                &i.to_string(),
            ])
            .args(["--seed", &CLUSTER_SEED.to_string()])
            .args(["--n-prios", &N_PRIOS.to_string()])
            .args(["--listen", &listen[i].to_string()])
            .args(["--ctl", &cluster.ctl[i].to_string()])
            .args(["--wal", &file("wal"), "--trace", &file("jsonl")]);
            for (j, addr) in listen.iter().enumerate() {
                if j != i {
                    cmd.args(["--peer", &format!("{j}={addr}")]);
                }
            }
            cluster
                .procs
                .push(cmd.stdout(Stdio::null()).stderr(Stdio::inherit()).spawn()?);
        }
        Ok(cluster)
    }

    /// Connect to node `i`'s control plane, retrying while it boots.
    fn client(&self, i: usize) -> Result<CtlClient, String> {
        let deadline = Instant::now() + PROC_TIMEOUT;
        loop {
            match CtlClient::connect(&self.ctl[i], self.fingerprint) {
                Ok(c) => return Ok(c),
                Err(e) if Instant::now() >= deadline => {
                    return Err(format!("connect ctl of node {i}: {e}"))
                }
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    fn pid(&self, i: usize) -> u32 {
        self.procs[i].id()
    }

    fn wal_bytes(&self) -> u64 {
        (0..N)
            .filter_map(|i| std::fs::metadata(self.dir.join(format!("n{i}.wal"))).ok())
            .map(|m| m.len())
            .sum()
    }

    /// Summed `VmHWM` of the daemons, MB.
    fn peak_rss_mb(&self) -> f64 {
        (0..N)
            .map(|i| {
                let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid(i)));
                report::peak_rss_mb(&status.unwrap_or_default())
            })
            .sum()
    }

    /// Nanoseconds the daemons' threads have run on a CPU.
    fn cpu_ns(&self) -> u64 {
        let mut total = 0;
        for i in 0..N {
            let tasks = format!("/proc/{}/task", self.pid(i));
            for t in std::fs::read_dir(tasks).into_iter().flatten().flatten() {
                let stat = std::fs::read_to_string(t.path().join("schedstat")).unwrap_or_default();
                total += stat
                    .split_whitespace()
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(0);
            }
        }
        total
    }

    /// Graceful shutdown; `Drop` kills whatever does not exit in time.
    fn shutdown(&mut self) {
        for i in 0..N {
            if let Ok(mut c) = self.client(i) {
                let _ = c.request(&CtlReq::Shutdown);
            }
        }
        let deadline = Instant::now() + PROC_TIMEOUT;
        for p in &mut self.procs {
            while Instant::now() < deadline {
                match p.try_wait() {
                    Ok(Some(_)) | Err(_) => break,
                    Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for p in &mut self.procs {
            let _ = p.kill();
            let _ = p.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn status(c: &mut CtlClient) -> Result<StatusInfo, String> {
    match c.request(&CtlReq::Status) {
        Ok(CtlResp::Status(s)) => Ok(s),
        other => Err(format!("status: {other:?}")),
    }
}

/// The daemons' scraped counters.
#[derive(Debug, Clone, Default)]
struct Scrape {
    tx_frames: u64,
    tx_bytes: u64,
    /// Op latency in ticks: (bucket upper bound, count in bucket).
    lat_buckets: Vec<(u64, u64)>,
    lat_sum: u64,
}

fn scrape(clients: &mut [CtlClient]) -> Result<Scrape, String> {
    let mut s = Scrape::default();
    for (i, c) in clients.iter_mut().enumerate() {
        let text = match c.request(&CtlReq::Metrics) {
            Ok(CtlResp::Metrics(t)) => t,
            other => return Err(format!("metrics of node {i}: {other:?}")),
        };
        let doc = parse_prometheus(&text).map_err(|e| format!("metrics of node {i}: {e}"))?;
        s.tx_frames += doc.family_total("dpq_net_tx_frames_total").unwrap_or(0);
        s.tx_bytes += doc.family_total("dpq_net_tx_bytes_total").unwrap_or(0);
        s.lat_sum += doc.value("dpq_net_op_latency_ticks_sum").unwrap_or(0);
        let mut prev = 0;
        for smp in doc.families.iter().flat_map(|f| &f.samples) {
            if smp.name != "dpq_net_op_latency_ticks_bucket" {
                continue;
            }
            let (Some(le), Ok(cum)) = (
                smp.labels
                    .iter()
                    .find(|(k, _)| k == "le")
                    .and_then(|(_, v)| v.parse::<u64>().ok()),
                smp.value.parse::<u64>(),
            ) else {
                continue;
            };
            s.lat_buckets.push((le, cum - prev));
            prev = cum;
        }
    }
    Ok(s)
}

/// Quantile of merged `(upper bound, count)` buckets.
fn bucket_quantile(buckets: &[(u64, u64)], q: f64) -> f64 {
    let mut b = buckets.to_vec();
    b.sort_unstable();
    let total: u64 = b.iter().map(|x| x.1).sum();
    let rank = ((q * total as f64).ceil() as u64).max(1);
    let mut cum = 0;
    for (le, c) in b {
        cum += c;
        if cum >= rank {
            return le as f64;
        }
    }
    0.0
}

/// Spawn the daemons and complete every ctl handshake: the workload's
/// set-up. Returns the cluster, its clients and the host seconds taken.
fn bring_up(bin: &Path, tag: &str) -> Result<(Cluster, Vec<CtlClient>, f64), String> {
    let t = Instant::now();
    let cluster = Cluster::spawn(bin, tag).map_err(|e| format!("spawn dpq-node: {e}"))?;
    let mut clients = (0..N)
        .map(|i| cluster.client(i))
        .collect::<Result<Vec<_>, _>>()?;
    for c in &mut clients {
        status(c)?;
    }
    Ok((cluster, clients, t.elapsed().as_secs_f64()))
}

/// One segment's measurements.
#[derive(Default)]
struct Segment {
    traced: bool,
    schedule_s: f64,
    setup_s: f64,
    /// Host slowdown probed just before the set-up (see `calib.rs`).
    setup_slowdown: f64,
    drive_s: f64,
    ops: u64,
    failed: u64,
    lat_ms: Vec<f64>,
    issue_us: Vec<f64>,
    poll_us: Vec<f64>,
    polls: u64,
    cpu_ns: u64,
    wal_bytes: u64,
    before: Scrape,
    after: Scrape,
    peak_rss_mb: f64,
    errors: Vec<String>,
}

fn segment(bin: &Path, seed: u64, tag: &str, budget: Duration, traced: bool) -> Segment {
    let mut seg = Segment {
        traced,
        ..Segment::default()
    };
    if let Err(e) = segment_inner(bin, seed, tag, budget, &mut seg) {
        seg.errors.push(e);
    }
    seg
}

fn segment_inner(
    bin: &Path,
    seed: u64,
    tag: &str,
    budget: Duration,
    seg: &mut Segment,
) -> Result<(), String> {
    let t0 = Instant::now();
    // Two entry nodes; the horizon far exceeds what a segment can issue,
    // and the client wraps around if it ever gets there.
    let schedule = Schedule::generate(&OpenLoopSpec {
        n: 2,
        clients: 100_000,
        rate: 1.0,
        ticks: 100_000,
        ticks_per_round: 1,
        insert_ratio: 0.6,
        n_prios: N_PRIOS,
        arrivals: dpq_workload::ArrivalSpec::Poisson,
        mix: MixKind::Zipf { s: 1.0 },
        seed,
    });
    seg.schedule_s = t0.elapsed().as_secs_f64();

    seg.setup_slowdown = calib::slowdown();
    let (mut cluster, mut clients, setup_s) = bring_up(bin, tag)?;
    seg.setup_s = setup_s;

    seg.before = scrape(&mut clients)?;
    let (cpu0, wal0) = if seg.traced {
        (cluster.cpu_ns(), cluster.wal_bytes())
    } else {
        (0, 0)
    };
    let t_drive = Instant::now();
    let mut k = 0usize;
    while t_drive.elapsed() < budget {
        let inj = schedule.injections[k % schedule.injections.len()];
        k += 1;
        let c = &mut clients[inj.node.index()];
        let req = match inj.op {
            WorkOp::Insert { prio } => CtlReq::Enqueue {
                prio,
                payload: inj.client,
            },
            WorkOp::DeleteMin => CtlReq::Dequeue,
        };
        let sent = Instant::now();
        match c.request(&req) {
            Ok(CtlResp::Issued { .. }) => {}
            other => {
                seg.failed += 1;
                return Err(format!("issue {req:?}: {other:?}"));
            }
        }
        seg.issue_us.push(sent.elapsed().as_secs_f64() * 1e6);
        loop {
            let p = Instant::now();
            let s = status(c)?;
            seg.poll_us.push(p.elapsed().as_secs_f64() * 1e6);
            seg.polls += 1;
            if s.all_complete {
                break;
            }
            if sent.elapsed() > OP_TIMEOUT {
                seg.failed += 1;
                return Err(format!("op {k} incomplete after {OP_TIMEOUT:?}"));
            }
        }
        seg.lat_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        seg.ops += 1;
    }
    seg.drive_s = t_drive.elapsed().as_secs_f64();
    if seg.traced {
        seg.cpu_ns = cluster.cpu_ns() - cpu0;
        seg.wal_bytes = cluster.wal_bytes() - wal0;
    }
    seg.after = scrape(&mut clients)?;
    seg.peak_rss_mb = cluster.peak_rss_mb();
    check(&cluster, &mut clients)?;
    drop(clients);
    cluster.shutdown();
    Ok(())
}

/// Every node complete, then the dumped records must replay (FIFO within
/// a priority), rank error 0, and conserve elements against the residual.
fn check(cluster: &Cluster, clients: &mut [CtlClient]) -> Result<(), String> {
    let mut nodes = Vec::new();
    let mut residual = Vec::new();
    for (i, c) in clients.iter_mut().enumerate() {
        let deadline = Instant::now() + OP_TIMEOUT;
        while !status(c)?.all_complete {
            if Instant::now() > deadline {
                return Err(format!("node {i} never reported all_complete"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        match c.request(&CtlReq::Dump) {
            Ok(CtlResp::Dumped { .. }) => {}
            other => return Err(format!("dump of node {i}: {other:?}")),
        }
        let path = cluster.dir.join(format!("n{i}.jsonl"));
        let text = std::fs::read_to_string(&path).map_err(|e| format!("read trace: {e}"))?;
        let (records, res) = parse_trace(&text)?;
        nodes.push(NodeHistory { ops: records });
        residual.extend(res);
    }
    let history = History::merge(nodes);
    replay(&history, ReplayMode::Fifo).map_err(|e| format!("wire witness replay: {e:?}"))?;
    check_local_consistency(&history).map_err(|e| format!("wire local order: {e:?}"))?;
    let rank = rank_error(&history, RankOrder::Fifo).map_err(|e| format!("{e:?}"))?;
    if !rank.is_strict() {
        return Err(format!("wire rank error max {}", rank.max));
    }
    crate::sim::conserved(&history, &residual)
}

/// Run the workload for `budget` and report it.
pub fn run(bin: &Path, seed: u64, budget: Duration, trace: bool) -> Report {
    // Untraced: three segments, each on a fresh cluster, so set-up is
    // measured three times. Traced: untraced and traced segments alternate
    // so the overhead compares like with like.
    let plan: &[bool] = if trace {
        &[false, true, false, true]
    } else {
        &[false, false, false]
    };
    let per = budget / plan.len() as u32;
    let segs: Vec<Segment> = plan
        .iter()
        .enumerate()
        .map(|(i, &t)| segment(bin, seed, &i.to_string(), per, t))
        .collect();

    let mut r = Report {
        attempted: segs.iter().map(|s| s.ops + s.failed).sum::<u64>().max(1),
        failed: segs.iter().map(|s| s.failed).sum(),
        ..Report::default()
    };
    for s in &segs {
        for e in &s.errors {
            r.fail(e.clone());
        }
    }
    let ops: u64 = segs.iter().map(|s| s.ops).sum();
    r.notes.push(format!(
        "wire-skeap-uds seed {seed}: {ops} ops over {} segments",
        segs.len()
    ));
    let n = segs.len() as u64;
    let per_seg = |f: &dyn Fn(&Segment) -> f64, which: &dyn Fn(&Segment) -> bool| {
        median(&segs.iter().filter(|s| which(s)).map(f).collect::<Vec<_>>())
    };
    let all = |_: &Segment| true;
    let rate = |s: &Segment| s.ops as f64 / s.drive_s.max(1e-9);
    let delta = |f: &dyn Fn(&Scrape) -> u64| -> f64 {
        segs.iter()
            .map(|s| f(&s.after).saturating_sub(f(&s.before)))
            .sum::<u64>() as f64
    };
    let per_op = |x: f64| x / ops.max(1) as f64;
    let mut buckets: Vec<(u64, u64)> = Vec::new();
    for s in &segs {
        buckets.extend(&s.after.lat_buckets);
    }
    let lat_count: u64 = buckets.iter().map(|b| b.1).sum();

    if !trace {
        r.push("ops_per_s", per_seg(&rate, &all), "1/s", n);
        r.push(
            "latency_p50_ticks",
            bucket_quantile(&buckets, 0.50),
            "ticks",
            lat_count,
        );
        r.push(
            "latency_p99_ticks",
            bucket_quantile(&buckets, 0.99),
            "ticks",
            lat_count,
        );
        r.push(
            "msgs_per_op",
            per_op(delta(&|s| s.tx_frames)),
            "msgs/op",
            ops,
        );
        r.push(
            "bits_per_op",
            per_op(8.0 * delta(&|s| s.tx_bytes)),
            "bits/op",
            ops,
        );
        // Set-up is process start-up and handshakes, CPU-bound, so it is
        // scaled to nominal host speed like the simulators' set-up; the
        // drive waits on the daemons' 2 ms tick and is reported unscaled.
        let mut setups: Vec<(f64, f64)> =
            segs.iter().map(|s| (s.setup_s, s.setup_slowdown)).collect();
        for i in 0..EXTRA_SETUPS {
            let slowdown = calib::slowdown();
            match bring_up(bin, &format!("setup{i}")) {
                Ok((cluster, clients, t)) => {
                    drop(clients);
                    drop(cluster);
                    setups.push((t, slowdown));
                }
                Err(e) => r.fail(e),
            }
        }
        let raw: Vec<f64> = setups.iter().map(|x| x.0).collect();
        let scaled: Vec<f64> = setups.iter().map(|(t, s)| t / s).collect();
        r.notes
            .push(format!("unscaled median setup_s {:.7}", median(&raw)));
        r.push("setup_s", median(&scaled), "s", scaled.len() as u64);
        r.push("peak_rss_mb", per_seg(&|s| s.peak_rss_mb, &all), "MB", n);
        return r;
    }

    let traced: Vec<&Segment> = segs.iter().filter(|s| s.traced).collect();
    let t_ops: u64 = traced.iter().map(|s| s.ops).sum::<u64>().max(1);
    let nt = traced.len() as u64;
    let pool = |f: &dyn Fn(&Segment) -> &Vec<f64>| -> Vec<f64> {
        traced.iter().flat_map(|s| f(s).iter().copied()).collect()
    };
    let issue = pool(&|s| &s.issue_us);
    let poll = pool(&|s| &s.poll_us);
    let lat = pool(&|s| &s.lat_ms);
    r.push(
        "workload.schedule_s",
        per_seg(&|s| s.schedule_s, &all),
        "s",
        n,
    );
    r.push("cluster.build_s", per_seg(&|s| s.setup_s, &all), "s", n);
    r.push(
        "ctl.issue_rtt_p50_us",
        quantile(&issue, 0.50),
        "us",
        issue.len() as u64,
    );
    r.push(
        "ctl.issue_rtt_p99_us",
        quantile(&issue, 0.99),
        "us",
        issue.len() as u64,
    );
    r.push(
        "ctl.poll_rtt_p50_us",
        quantile(&poll, 0.50),
        "us",
        poll.len() as u64,
    );
    let polls: u64 = traced.iter().map(|s| s.polls).sum();
    r.push(
        "ctl.polls_per_op",
        polls as f64 / t_ops as f64,
        "polls/op",
        t_ops,
    );
    let cpu: u64 = traced.iter().map(|s| s.cpu_ns).sum();
    r.push(
        "node.cpu_ms_per_op",
        cpu as f64 / 1e6 / t_ops as f64,
        "ms/op",
        t_ops,
    );
    r.push(
        "net.tx_frames_per_op",
        per_op(delta(&|s| s.tx_frames)),
        "frames/op",
        ops,
    );
    r.push(
        "net.tx_bytes_per_op",
        per_op(delta(&|s| s.tx_bytes)),
        "bytes/op",
        ops,
    );
    let wal: u64 = traced.iter().map(|s| s.wal_bytes).sum();
    r.push(
        "wal.bytes_per_op",
        wal as f64 / t_ops as f64,
        "bytes/op",
        t_ops,
    );
    let lat_sum: u64 = segs.iter().map(|s| s.after.lat_sum).sum();
    r.push(
        "net.op_latency_ticks_mean",
        lat_sum as f64 / lat_count.max(1) as f64,
        "ticks",
        lat_count,
    );
    r.push(
        "latency_p50_ms",
        quantile(&lat, 0.50),
        "ms",
        lat.len() as u64,
    );
    r.push(
        "latency_p99_ms",
        quantile(&lat, 0.99),
        "ms",
        lat.len() as u64,
    );
    let client_s: f64 = traced
        .iter()
        .map(|s| (s.issue_us.iter().sum::<f64>() + s.poll_us.iter().sum::<f64>()) * 1e-6)
        .sum();
    let drive_s: f64 = traced.iter().map(|s| s.drive_s).sum();
    r.push("unattributed_s", drive_s - client_s, "s", nt);
    let plain_rate = per_seg(&rate, &|s| !s.traced);
    let traced_rate = per_seg(&rate, &|s| s.traced);
    r.push(
        "trace.overhead_pct",
        (plain_rate / traced_rate.max(1e-9) - 1.0) * 100.0,
        "%",
        nt,
    );
    r
}
