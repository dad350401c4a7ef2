#!/usr/bin/env bash
# Repo-wide quality gate. Run before pushing; CI runs the same steps.
#
#   ./scripts/check.sh           # fmt + clippy + build + tests + fault smoke
#   ./scripts/check.sh telemetry # the above, plus the telemetry tier
#   ./scripts/check.sh perf      # the above, plus the performance tier
#   ./scripts/check.sh mc        # the above, plus schedule-space model checking
#   ./scripts/check.sh coverage  # the above, plus per-crate coverage floors
#   ./scripts/check.sh net       # the above, plus the wire-conformance smoke
#   ./scripts/check.sh churn     # the above, plus the bounded churn storm
#   ./scripts/check.sh workload  # the above, plus the E19 open-loop smoke
#   ./scripts/check.sh bench     # the above, plus a short run of every benchmark workload
set -euo pipefail
cd "$(dirname "$0")/.."

TIER=${1:-}

cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
cargo build --workspace --release
cargo test --workspace -q

# Proptest regression hygiene: every *committed* seed in
# tests/*.proptest-regressions is replayed by tests/regressions.rs (part of
# the test step above). An *uncommitted* entry means a property failed
# locally and its seed was neither fixed nor committed with a replay —
# refuse to pass until it is dealt with.
if [ -n "$(git status --porcelain -- 'tests/*.proptest-regressions' 'crates/*/tests/*.proptest-regressions')" ]; then
  echo "error: uncommitted proptest regression entries:" >&2
  git status --porcelain -- 'tests/*.proptest-regressions' 'crates/*/tests/*.proptest-regressions' >&2
  echo "fix the failing property, or commit the seed together with a replay" >&2
  echo "arm in tests/regressions.rs" >&2
  exit 1
fi

# Fault-matrix smoke tier: the E16 recovery table driven through a custom
# TOML plan — exercises the --faults parsing and the fault-injection path
# end to end in release mode (the full conformance grid runs in the test
# step above, via tests/faults.rs).
cargo run -q -p dpq-bench --release --bin experiments -- e16 --faults scripts/faults-smoke.toml

# Telemetry tier (opt-in: `./scripts/check.sh telemetry`): re-run the
# dpq-telemetry suite explicitly — histogram merge/quantile proptests, the
# Prometheus exposition golden (byte-for-byte, parse → re-render
# round-trip) — and the instrumented E16 smoke with a metrics stream, so
# the JSONL exporter path is driven end to end in release mode.
if [ "$TIER" = "telemetry" ]; then
  cargo test -q -p dpq-telemetry --test hist_props --test exposition_golden
  MROOT=$(mktemp -d)
  cargo run -q -p dpq-bench --release --bin experiments -- e16 --metrics "$MROOT/metrics.jsonl"
  test -s "$MROOT/metrics.jsonl" || { echo "telemetry tier: empty metrics stream" >&2; exit 1; }
  rm -rf "$MROOT"
fi

# Perf tier (opt-in: `./scripts/check.sh perf`): criterion smoke benches
# (including the telemetry-enabled cases), then re-measure scheduler
# stepping throughput and fail if any headline metric fell more than 5%
# below the committed BENCH_pr3.json snapshot — the telemetry hooks are
# compiled into every path now, and with the sink disabled they must be
# free. The perf bin retries metrics below the floor (best of three), so
# a transient load spike on shared hardware does not fail the tier.
# Refresh the snapshot with scripts/bench-snapshot.sh when a deliberate
# perf change moves the baseline.
#
# The tier also holds the memory floor: memprobe re-measures live heap
# bytes/node at the n=100k frontier point and fails if the node core
# regressed more than 20% over the committed BENCH_pr8.json
# (`after_p100k_bytes_per_node`) — so a stray per-node Vec or map creeping
# back into the hot structs fails the gate, not just the RSS of the next
# million-node run.
if [ "$TIER" = "perf" ]; then
  cargo bench -q -p dpq-bench --bench sched_step
  cargo run -q -p dpq-bench --release --bin perf -- --check BENCH_pr3.json --floor 0.95
  cargo run -q -p dpq-bench --release --bin memprobe -- --check BENCH_pr8.json
fi

# Model-checking tier (opt-in: `./scripts/check.sh mc`): bounded DFS over
# message-delivery interleavings plus seeded random walks, per scenario.
# The clean scenarios carry the coverage bar — at least 10k distinct
# schedules per protocol, zero violations; the drops scenarios add
# fault-path interleavings at a smaller budget. Then the mutation smoke: a
# seeded witness bug (compiled only under --cfg mc_mutate, in a separate
# target dir so caches stay intact) must be found, shrunk to at most 15
# delivery decisions, and reproduced bit-for-bit from schedule.json.
# Budgets are tuned to keep the whole tier under five minutes in release;
# see docs/TESTING.md for the tier's reproduction recipes.
if [ "$TIER" = "mc" ]; then
  MC=target/release/dpq-mc
  "$MC" explore --scenario skeap_clean \
    --max-depth 26 --max-branch 5 --runs 60000 --walks 5000 --min-distinct 10000
  "$MC" explore --scenario seap_clean \
    --max-depth 22 --max-branch 4 --runs 30000 --walks 3000 --min-distinct 10000
  "$MC" explore --scenario kselect_clean \
    --max-depth 22 --max-branch 4 --runs 30000 --walks 3000 --min-distinct 10000
  "$MC" explore --scenario skeap_drops \
    --max-depth 12 --max-branch 4 --runs 4000 --walks 400
  "$MC" explore --scenario seap_drops \
    --max-depth 12 --max-branch 4 --runs 4000 --walks 400
  "$MC" explore --scenario kselect_drops \
    --max-depth 10 --max-branch 3 --runs 1500 --walks 200
  mkdir -p target/mc-mutate
  CARGO_TARGET_DIR=target/mc-mutate RUSTFLAGS="--cfg mc_mutate" \
    cargo run -q -p dpq-mc --release --bin dpq-mc -- \
    smoke --scenario skeap_clean --max-shrunk 15 --out target/mc-mutate/schedule.json
fi

# Wire-conformance tier (opt-in: `./scripts/check.sh net`): the 3-process
# loopback smoke from crates/net/tests/wire_conformance.rs — real dpq-node
# daemons on Unix sockets, driven through the control plane, traces replayed
# through the sim oracles. A hard timeout guards against a wedged cluster
# (a live-locked retransmit loop would otherwise hang CI), and the trap
# reaps any dpq-node orphans the timeout may strand: the harness kills its
# children on drop, but a SIGKILLed test binary cannot run destructors.
if [ "$TIER" = "net" ]; then
  cleanup_net() { pkill -f "$PWD/target/[^ ]*/dpq-node" 2>/dev/null || true; }
  trap cleanup_net EXIT
  timeout --signal=KILL 180 \
    cargo test -q -p dpq-net --test wire_conformance smoke_three_process_uds
  cleanup_net
  trap - EXIT
fi

# Churn tier (opt-in: `./scripts/check.sh churn`): the bounded membership
# storm from crates/gossip/tests/storm_release.rs — 256 nodes plus 128
# spares, a crash or join every 5 rounds for 1200 scheduled rounds under
# 5% drop, membership driven end to end by the phi-accrual detector, with
# the element-conservation and placement oracles scanned continuously.
# Release-only (about ten seconds in release, minutes in debug); the
# full-scale n=2048 headline storm lives in the same file
# (churn_storm_full_scale) and runs on demand.
if [ "$TIER" = "churn" ]; then
  cargo test --release -q -p dpq-gossip --test storm_release -- --ignored --exact churn_storm_bounded
fi

# Workload tier (opt-in: `./scripts/check.sh workload`): the E19 rank-error
# shootout driven through a custom open-loop spec (n = 32 <= 64) — exercises
# the --workload TOML parsing, the schedule generator, both strict drivers
# and both relaxed executors end to end in release mode. E19 itself asserts
# the headline invariant (strict protocols rank-error 0 in every cell), so
# a nonzero exit here means the semantics regressed, not just the harness.
if [ "$TIER" = "workload" ]; then
  cargo run -q -p dpq-bench --release --bin experiments -- e19 --workload scripts/workload-smoke.toml
fi

# Benchmark tier (opt-in: `./scripts/check.sh bench`): a 2-second run of
# each workload BENCHMARK.json declares, plus one traced run. perfbench/ is
# a workspace of its own that builds against the crates by path and reads
# their public surface (node histories and shards, `NodeHistory` literals,
# `Reliable::stats`), so an API change that breaks it fails here rather
# than first in the benchmark pipeline. Every run checks its own results
# (witness replay, rank error 0, conservation, traced == untraced) and must
# end on a result line reading `"correct": true`.
if [ "$TIER" = "bench" ]; then
  bench_run() {
    local line
    line=$(python3 perfbench/run.py --seed 1 --seconds 2 "$@" | tail -n 1) || true
    echo "$line"
    case "$line" in
      *'"correct": true'*) ;;
      *) echo "bench tier: run $* did not report \"correct\": true" >&2; exit 1 ;;
    esac
  }
  for w in sim-skeap-sync sim-seap-sync sim-skeap-async-faulty wire-skeap-uds; do
    bench_run --workload "$w" --trace 0
  done
  bench_run --workload sim-skeap-async-faulty --trace 1
fi

# Coverage tier (opt-in: `./scripts/check.sh coverage`): per-crate line
# coverage against the floors committed in scripts/coverage-floors.txt
# (warn-only for dpq-bench), snapshot written to COVERAGE_pr4.json next to
# BENCH_pr3.json. Requires cargo-llvm-cov; when it is not installed (e.g.
# offline containers) the tier warns and skips rather than failing.
if [ "$TIER" = "coverage" ]; then
  if command -v cargo-llvm-cov >/dev/null 2>&1; then
    cargo llvm-cov --workspace --json --output-path COVERAGE_pr4.json
    python3 scripts/coverage_floor.py COVERAGE_pr4.json scripts/coverage-floors.txt
  else
    echo "warning: cargo-llvm-cov not installed; skipping the coverage tier" >&2
    echo "         (cargo install cargo-llvm-cov, then re-run)" >&2
  fi
fi
