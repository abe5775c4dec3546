#!/usr/bin/env python3
"""Builds the served-path benchmark from source and runs it.

    python3 perfbench/run.py --workload reddit-ingest --seed 1 --seconds 20 --trace 0

Every argument is passed to the benchmark binary (see perfbench/src/main.rs).
The build goes to $CARGO_TARGET_DIR, by default .bench_build at the root of
the checkout, and scratch files of a run go under .bench_build as well.  The
binary runs in a session of its own, so that a run overstaying its time is
stopped together with the server processes it started.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = 3
# Per workload, beyond twice its timed phase (the phase itself and the
# offline replay the correctness gate checks it against): input
# generation, set-up and the traced ladder.
OVERHEAD_S = 120


def run_timeout(argv: list) -> int:
    """Seconds the binary may run, from the flags it was given.  Flags it
    rejects are left for it to report."""
    seconds, workloads = 20, 1
    for flag, value in zip(argv, argv[1:]):
        if flag == "--seconds" and value.isdigit():
            seconds = int(value)
        elif flag == "--workload" and value == "all":
            workloads = WORKLOADS
    if "--selftest" in argv:
        workloads = WORKLOADS
    return workloads * (2 * seconds + OVERHEAD_S)


def main() -> int:
    os.chdir(ROOT)
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    manifest = os.path.join("perfbench", "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    timeout = run_timeout(sys.argv[1:])
    proc = subprocess.Popen([exe] + sys.argv[1:], env=env, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {timeout} s", file=sys.stderr)
        return 1
    finally:
        # Nothing the run started may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


if __name__ == "__main__":
    sys.exit(main())
