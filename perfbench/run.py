#!/usr/bin/env python3
"""Build and run the HabSense benchmark.

    python3 perfbench/run.py --workload <habitat-mesh|icares-replay|fleet-mixed>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds
perfbench/ (the src/ libraries plus the habbench harness) into
.bench_build/; later calls rebuild incrementally. habbench's output is
passed through, with the host context (nproc, 1-minute load average at
start and end) added, and its last line is the result JSON. The exit code
is habbench's: 0 when every output check passed, 1 when one failed.
A failed build exits 2 and prints no result.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "habbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def build():
    """Configure (once) and build; False on any failure."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: build step failed: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            print(f"perfbench: '{' '.join(step)}' exited {done.returncode}", file=sys.stderr)
            return False
    return os.path.exists(BINARY)


def load1():
    return os.getloadavg()[0]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["habitat-mesh", "icares-replay", "fleet-mixed"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that the output checks fire and that fleet-mixed is "
                             "byte-identical at 1 and 2 threads")
    args = parser.parse_args()
    if not args.self_test and (args.workload is None or args.seconds is None):
        parser.error("--workload and --seconds are required")

    if not build():
        return 2
    if args.self_test:
        return subprocess.run([BINARY, "--self-test"], cwd=ROOT).returncode

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    load_start = load1()
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = done.stdout.rstrip("\n").split("\n")
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        print(f"perfbench: habbench exited {done.returncode} without a result", file=sys.stderr)
        return done.returncode or 3
    for line in lines[:-1]:
        print(line)
    print(f"# host: nproc {len(os.sched_getaffinity(0))}, load1 at start {load_start:.2f}, "
          f"at end {load1():.2f}")
    print(lines[-1], flush=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
