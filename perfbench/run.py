"""Benchmark harness for evainject: one closed-loop client, in one process.

    python3 perfbench/run.py --workload decide-mix --seed 1 --seconds 10 --trace 0

Run from the repository root (the program is imported from ./src).  The
client issues the next decision only when the previous one has returned: a
decision is one in-process cli.main(argv) call with --output json, or one
call of a library-only oracle.  Whole rounds of seeded inputs (gen.py) run
until --seconds have passed.  Afterwards every output is checked against
the independent reference in refcheck.py.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1
wraps evainject's public functions (tracer.py), reports calls and self time
per layer, then replays the same decisions untraced to report the tracing
overhead.  The last line of stdout is one JSON object: correct, attempted,
failed and metrics.  A fuller record goes to perfbench/out/.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import calib  # noqa: E402
import gen  # noqa: E402
import refcheck  # noqa: E402
import tracer  # noqa: E402

# Percentile reported as decision_ms_tail.  Fixed per workload so that a
# faster program (more samples per run) does not move to a higher
# percentile; each leaves at least ten samples beyond it at today's speed.
TAIL_PERCENTILE = {"decide-mix": 95.0, "rational-search": 80.0, "matrix-enum": 90.0}
# Process start-up drifts more than decisions do.  Over sets of ten runs the
# median of 11 starts spread by 0.11-0.16 of itself, that of 31 by 0.03-0.13.
SETUP_REPEATS = 31

# Set-up as a user pays it: a fresh interpreter imports evainject, builds
# the argument parser and the field specs the workload uses, and parses a
# polynomial over each.  It prints "ready" when a decision could be issued.
SETUP_CHILD = r"""
import sys
sys.path.insert(0, sys.argv[1])
from evainject import cli
cli.build_parser()
rationals = cli.parse_field("Q")
for name in sys.argv[2:]:
    spec = cli.parse_field(name)
    cli.parse_poly("x^2+1", rationals if spec.is_symbolic else spec)
print("ready", flush=True)
"""


@dataclass
class Outcome:
    decision: gen.Decision
    ms: float
    rc: int | None          # exit code of cli.main; None for the oracle
    result: object          # JSON text, or the oracle's matrices as entry strings
    error: str | None       # an exception that escaped the program
    calls: dict | None = None   # traced runs: calls per wrapped function


def load_program():
    sys.path.insert(0, str(SRC))
    try:
        import evainject
        from evainject import cli, engine, fields
        from evainject.polynomials import UniPoly
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import evainject from {SRC}: {exc}")
    if Path(evainject.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"perfbench: evainject was imported from {evainject.__file__}, not {SRC}")
    return cli, engine, fields, UniPoly


class Client:
    """Issues decisions one at a time and times each."""

    def __init__(self):
        self.cli, self.engine, self.fields, self.UniPoly = load_program()
        self._specs = {}

    def _spec(self, field: gen.Field):
        if field not in self._specs:
            self._specs[field] = (self.fields.ExtensionField(field.p, field.modulus)
                                  if field.modulus else self.fields.PrimeField(field.p))
        return self._specs[field]

    def _prepare(self, d: gen.Decision):
        if d.verb == "zero_fiber":
            f = self.UniPoly.from_ints(self._spec(d.field), list(d.coeffs))
            return lambda: self.engine.brute_force_zero_fiber(f, d.n)
        argv = d.argv()
        return lambda: self.cli.main(argv)

    def execute(self, d: gen.Decision) -> Outcome:
        call = self._prepare(d)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                value = call()
            error = None
        except Exception:  # a crash fails this decision, not the run
            value, error = None, traceback.format_exc()
        ms = (time.perf_counter() - start) * 1e3
        if d.verb != "zero_fiber":
            return Outcome(d, ms, value, out.getvalue(), error)
        rows = None if value is None else [
            [[str(e) for e in row] for row in m.entries] for m in value]
        return Outcome(d, ms, None, rows, error)


def run_rounds(workload: str, seed: int, seconds: float, execute):
    """Whole rounds, at least one, until `seconds` of wall time have passed.

    Returns the outcomes, the calibration loop times (one before each
    decision and one after the last) and the peak RSS in MiB at the end of
    the first round.  Every decision type runs in that round; later rounds
    only add the outcomes the harness keeps, so a faster program would
    otherwise show a larger peak.
    """
    outcomes, loops = [], []
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        for d in gen.round_inputs(workload, seed, index):
            loops.append(calib.loop_ms())
            outcomes.append(execute(d))
        if index == 0:
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        index += 1
    loops.append(calib.loop_ms())
    return outcomes, loops, peak_rss_mib


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Times over fresh processes until a decision could be issued: raw, and
    each scaled by the calibration loop timed around it."""
    fields = sorted({d.field.name for d in gen.round_inputs(workload, seed, 0)})
    raw, times = [], []
    for _ in range(SETUP_REPEATS):
        loops = [calib.loop_ms() for _ in range(3)]
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CHILD, str(SRC), *fields],
                              stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
        if line.strip() != "ready" or child.returncode != 0:
            sys.exit(f"perfbench: set-up process failed (exit {child.returncode})")
        loops += [calib.loop_ms() for _ in range(3)]
        raw.append(elapsed)
        times.append(elapsed * calib.NOMINAL_MS / statistics.median(loops))
    return raw, times


def tail_latency(samples: list[float], preferred: float) -> tuple[float, float]:
    """(percentile, value) by nearest rank; falls back to the highest
    percentile that still has ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    pct = preferred if n * (1 - preferred / 100) >= 10 else max(0.0, 100.0 * (n - 10) / n)
    rank = min(n, max(1, math.ceil(pct / 100 * n)))
    return pct, ordered[rank - 1]


def check_outcomes(outcomes: list[Outcome]) -> tuple[list[list[str]], int]:
    """Problems per outcome, and the scan evaluations the decisions covered."""
    import jsonschema
    schema = json.loads((SRC / "evainject" / "report_schema.json").read_text())
    validator = jsonschema.Draft7Validator(schema)
    problems, evals = [], 0
    for o in outcomes:
        found, n = refcheck.check(o.decision, o, validator)
        problems.append(found)
        evals += n
    return problems, evals


def commit_id() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------

def untraced_run(args, client: Client) -> dict:
    setup_raw, setup_times = measure_setup(args.workload, args.seed)
    outcomes, loops, peak_rss_mib = run_rounds(args.workload, args.seed, args.seconds,
                                               client.execute)
    problems, evals = check_outcomes(outcomes)
    samples = [o.ms * k for o, k in zip(outcomes, calib.scales(loops, len(outcomes)))]
    busy_s = sum(samples) / 1e3
    pct, tail = tail_latency(samples, TAIL_PERCENTILE[args.workload])
    metrics = {
        "decision_ms_p50": metric(statistics.median(samples), "ms"),
        "decision_ms_tail": metric(tail, "ms"),
        "decisions_per_s": metric(len(samples) / busy_s, "1/s"),
        "evals_per_s": metric(evals / busy_s, "1/s"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "peak_rss_mib": metric(peak_rss_mib, "MiB"),
    }
    notes = {"samples": len(samples), "tail_percentile": pct, "evals": evals,
             "timed_s": busy_s, "wall_timed_s": sum(o.ms for o in outcomes) / 1e3,
             "wall_decision_ms_p50": statistics.median(o.ms for o in outcomes),
             "calibration_loop_ms_median": statistics.median(loops),
             "setup_s_scaled": setup_times, "setup_s_raw": setup_raw,
             "decision_ms": samples}
    return finish(args, outcomes, problems, metrics, notes)


# Counts snapshotted around each decision, for the per-decision ratios.
_PER_DECISION = ("engine.verify_witness", "polynomials.factor.factor_profile",
                 "engine.rational_grid")


def _is_search(d: gen.Decision) -> bool:
    return d.verb == "search" or (d.verb == "analyze" and not d.field.finite)


def traced_run(args, client: Client) -> dict:
    tr = tracer.Tracer()
    tr.install()
    ids = {name: tr.name_id(name) for name in _PER_DECISION}

    def execute(d):
        before = {name: tr.calls[i] for name, i in ids.items()}
        with tr.span("bench.decision"):
            o = client.execute(d)
        o.calls = {name: tr.calls[i] - before[name] for name, i in ids.items()}
        return o

    try:
        outcomes, _, _ = run_rounds(args.workload, args.seed, args.seconds, execute)
    finally:
        tr.uninstall()
    traced_s = sum(o.ms for o in outcomes) / 1e3
    untraced_s = sum(client.execute(o.decision).ms for o in outcomes) / 1e3
    problems, _ = check_outcomes(outcomes)

    # Soundness guard: every NotInjective verdict re-verified its witness.
    not_injective = 0
    for o, found in zip(outcomes, problems):
        if o.rc == 1:
            not_injective += 1
            if o.calls["engine.verify_witness"] < 1:
                found.append("NotInjective verdict without a verify_witness call")
    tree = tr.tree_problems()
    OUT.mkdir(exist_ok=True)
    tr.write(OUT / f"{args.workload}.spans")     # the latest traced run per workload

    stats = tr.per_name()
    metrics = {}
    for layer, qual, mode in tracer.TARGETS:
        name = f"{layer}.{qual}"
        calls, self_ms = stats[name]
        metrics[f"{name}.calls"] = metric(calls, "count")
        if mode == "span":
            metrics[f"{name}.self_ms"] = metric(self_ms, "ms")
    matrix = [o for o in outcomes if o.decision.verb == "matrix"]
    searches = [o for o in outcomes if _is_search(o.decision)]
    metrics.update({
        "bench.decision.calls": metric(stats["bench.decision"][0], "count"),
        "bench.decision.self_ms": metric(stats["bench.decision"][1], "ms"),
        "bench.notinjective_verdicts": metric(not_injective, "count"),
        "polynomials.factor.factor_profile.calls_per_matrix_decision": metric(
            sum(o.calls["polynomials.factor.factor_profile"] for o in matrix)
            / max(len(matrix), 1), "calls/decision"),
        "engine.rational_grid.calls_per_search": metric(
            sum(o.calls["engine.rational_grid"] for o in searches)
            / max(len(searches), 1), "calls/decision"),
        "trace.spans": metric(len(tr.span_name), "count"),
        "trace.traced_s": metric(traced_s, "s"),
        "trace.untraced_s": metric(untraced_s, "s"),
        "trace.overhead_s": metric(traced_s - untraced_s, "s"),
    })
    notes = {"samples": len(outcomes), "matrix_decisions": len(matrix),
             "search_decisions": len(searches), "span_tree_problems": tree[:10]}
    return finish(args, outcomes, problems, metrics, notes, extra_failure=bool(tree))


def finish(args, outcomes, problems, metrics, notes, extra_failure=False) -> dict:
    failed = sum(1 for found in problems if found)
    notes["failed_frac"] = failed / len(outcomes)
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "commit": commit_id(),
            "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0))}
    failures = [{"argv": o.decision.argv(), "problems": found}
                for o, found in zip(outcomes, problems) if found]
    OUT.mkdir(exist_ok=True)
    record = {"meta": meta, "notes": notes, "metrics": metrics, "failures": failures}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))

    print(" ".join(f"{k}={v}" for k, v in meta.items()))
    for key, value in notes.items():
        if not isinstance(value, list):
            print(f"  {key}: {value}")
    for name, m in metrics.items():
        print(f"  {name:<64} {m['value']:>14.6g} {m['unit']}")
    for fail in failures[:20]:
        print(f"FAILED {' '.join(fail['argv'])}: {'; '.join(fail['problems'])}",
              file=sys.stderr)
    return {"correct": failed == 0 and not extra_failure, "attempted": len(outcomes),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    client = Client()
    result = traced_run(args, client) if args.trace else untraced_run(args, client)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
