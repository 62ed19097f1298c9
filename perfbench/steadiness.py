#!/usr/bin/env python3
"""Measure how steady the benchmark is, and compare two sets of runs.

    python3 perfbench/steadiness.py run --seeds 1-10 --out set_a.jsonl
    python3 perfbench/steadiness.py report set_a.jsonl set_b.jsonl

`run` runs every workload of BENCHMARK.json once per seed for its
run_seconds (untraced) through perfbench/run.py and appends one JSON
line per run to --out. `report` prints, per workload and end-to-end metric, each set's
median and quartiles (statistics.quantiles, n=4), the quartile spread
as a share of the median, and the gap between each later set's median
and the first set's, next to the metric's bound from BENCHMARK.json. Two
rows without a bound follow: habitat_days_per_s as measured, before it
is scaled to the reference host speed, and the host probe time.
Take the sets at different times, not back to back.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Printed beside habitat_days_per_s: the rate before it is scaled to the
# reference host speed, and the run's median host probe time. Reported
# as two extra rows, with no bound.
MEASURED = re.compile(r"^habitat_days_per_s .*\(measured ([\d.]+),.*probe median ([\d.]+) s")
EXTRA = {"measured_days_per_s": {"bound": "-", "better": "higher"},
         "host_probe_s": {"bound": "-", "better": "lower"}}


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(args):
    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    with open(args.out, "a") as out:
        for seed in parse_seeds(args.seeds):
            for workload in workloads:
                started = time.time()
                done = subprocess.run(
                    [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload",
                     workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                    cwd=ROOT, stdout=subprocess.PIPE, text=True)
                lines = done.stdout.strip().split("\n")
                result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
                record = {"workload": workload, "seed": seed, "exit": done.returncode,
                          "wall_s": round(time.time() - started, 2),
                          "started": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(started)),
                          "notes": lines[:-1],
                          "result": result}
                out.write(json.dumps(record) + "\n")
                out.flush()
                metrics = {k: v["value"] for k, v in (result or {}).get("metrics", {}).items()}
                host = [l for l in record["notes"] if l.startswith("# host")]
                print(workload, seed, done.returncode, metrics, host, flush=True)


def values(path):
    """{workload: {metric: [values]}} of the runs that passed their checks."""
    table = {}
    with open(path) as f:
        for line in f:
            record = json.loads(line)
            result = record["result"]
            if record["exit"] != 0 or not result or not result["correct"]:
                continue
            row = table.setdefault(record["workload"], {})
            for name, metric in result["metrics"].items():
                row.setdefault(name, []).append(metric["value"])
            for note in record["notes"]:
                if m := MEASURED.match(note):
                    row.setdefault("measured_days_per_s", []).append(float(m.group(1)))
                    row.setdefault("host_probe_s", []).append(float(m.group(2)))
    return table


def summary(vals):
    q1, _, q3 = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    return med, q1, q3, (q3 - q1) / med


def report(args):
    bench = load_benchmark()
    metrics = {m["name"]: m for m in bench["end_to_end"]} | EXTRA
    sets = [values(p) for p in args.sets]
    print("| workload | metric | bound | set | n | median | q1 | q3 | spread |")
    print("|---|---|---|---|---|---|---|---|---|")
    for workload in [w["name"] for w in bench["workloads"]]:
        for name, spec in metrics.items():
            medians = []
            for label, table in zip("ABCDEFGH", sets):
                vals = table.get(workload, {}).get(name, [])
                if len(vals) < 2:
                    continue
                med, q1, q3, spread = summary(vals)
                medians.append(med)
                print(f"| {workload} | {name} | {spec['bound']} | {label} | {len(vals)} | "
                      f"{med:.6g} | {q1:.6g} | {q3:.6g} | {100 * spread:.2f}% |")
            sign = 1 if spec["better"] == "lower" else -1
            for label, med in zip("BCDEFGH", medians[1:]):
                gap = (med - medians[0]) / medians[0]
                verdict = "worse" if sign * gap > 0 else "not worse"
                print(f"| {workload} | {name} | {spec['bound']} | {label} vs A | | "
                      f"gap {100 * gap:+.2f}% | | | {label} {verdict} by {100 * abs(gap):.2f}% |")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,7")
    p_run.add_argument("--out", required=True)
    p_report = sub.add_parser("report")
    p_report.add_argument("sets", nargs="+")
    args = parser.parse_args()
    if args.command == "run":
        run(args)
    else:
        report(args)


if __name__ == "__main__":
    main()
