#!/usr/bin/env python3
"""Build and run the perfbench benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <halo256|pingpong|kill256> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark package (perfbench/Cargo.toml, which compiles the
simulator's crates from source) into $CARGO_TARGET_DIR, default
`.bench_build`, pins this process to one CPU and runs the benchmark in
its place. The last line of standard output is the JSON result; the exit
code is the benchmark's (0 correct, 1 a gate failed, 2 bad arguments) or
the build's.

Why pin: every simulated process is an OS thread and exactly one runs at
a time, so the run is a chain of thread handoffs. On one CPU each handoff
is a plain context switch; spread over CPUs it becomes a cross-CPU wakeup
whose cost depends on where the scheduler put each thread, which made
run-to-run wall time both slower and far noisier on a 2-CPU machine.
The last CPU the process may use is taken, so the pin stays inside any
CPU set the caller imposes.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    exe = os.path.join(target, "release", "perfbench")
    argv = [exe, *sys.argv[1:], "--out", os.path.join(here, "out")]
    sys.stdout.flush()
    os.execv(exe, argv)
    return 1  # not reached: execv replaces this process


if __name__ == "__main__":
    sys.exit(main())
