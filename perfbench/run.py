#!/usr/bin/env python3
"""Build the benchmark and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds, in release mode, the `perfbench`
package (a workspace of its own, see perfbench/Cargo.toml) and the
repository's `dpq-node` daemon, which the `wire-skeap-uds` workload
spawns. Artifacts go to $CARGO_TARGET_DIR (default `.bench_build`).
Build output goes to stderr; stdout is the benchmark's, whose last line
is the JSON result. The exit code is the benchmark's (1 when a
correctness check fails), or 1 when a build fails.

The benchmark runs in a process group of its own, which is killed when
this script exits for any reason it can catch (including SIGTERM and
Ctrl-C), so no `dpq-node` daemon outlives an interrupted run; the
daemons' scratch directories are removed with it.
"""

import glob
import os
import shutil
import signal
import subprocess
import sys


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    here = os.path.dirname(os.path.abspath(__file__))
    repo = os.path.dirname(here)
    builds = [
        ["--manifest-path", os.path.join(here, "Cargo.toml")],
        ["--manifest-path", os.path.join(repo, "Cargo.toml"), "-p", "dpq-net", "--bin", "dpq-node"],
    ]
    for extra in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *extra]
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--node-bin", os.path.join(release, "dpq-node")]
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait()
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        for d in glob.glob(f".perfbench-run-{proc.pid}-*"):
            shutil.rmtree(d, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
