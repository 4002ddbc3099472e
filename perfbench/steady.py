"""Steadiness check: run the benchmark repeatedly and summarise each metric.

    python3 perfbench/steady.py --runs 10                # every workload
    python3 perfbench/steady.py --runs 5 --workloads matrix-enum
    python3 perfbench/steady.py --runs 1                 # one pass: all metrics

Runs perfbench/run.py once per seed (seeds first-seed .. first-seed+runs-1),
one process at a time, and prints for every end-to-end metric its median,
quartiles and quartile spread as a share of the median, next to the bound
in BENCHMARK.json.  The bounds rest on these spreads: each spread should
stay within a third of its bound.  Exits 1 when one does not.  setup_s is
printed but not checked: starting a process follows the host's load more
than the calibration loop does, so over sets of ten runs its spread ranged
from 0.03 to 0.13 even as the median of 31 starts per run, and what guards it
is that the medians of two sets agree within its bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, (q3 - q1) / median)."""
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    record = {}
    steady = True
    seeds = range(args.first_seed, args.first_seed + args.runs)
    for workload in args.workloads.split(","):
        results = [one_run(workload, seed, args.seconds) for seed in seeds]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{workload}: seeds {seeds.start}..{seeds.stop - 1}, "
              f"failed_frac {failed / attempted:.4g} ({failed}/{attempted}), "
              f"all correct: {all(r['correct'] for r in results)}")
        print(f"  {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, share = spread(values)
            flag = ""
            if name != "setup_s" and share > bounds[name] / 3:
                flag, steady = "  > bound/3", False
            print(f"  {name:<20} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {share:>8.3f} "
                  f"{bounds[name]:>6} {first['unit']}{flag}")
            record.setdefault(workload, {})[name] = values
    (BENCH / "out").mkdir(exist_ok=True)
    (BENCH / "out" / "steady.json").write_text(json.dumps(record, indent=1))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
