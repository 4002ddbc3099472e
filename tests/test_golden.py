"""Replay the golden report corpus through the CLI.

tests/golden/reports.json holds, for each invocation in CASES, the exit
code, stderr and JSON report (timing_ms removed) that the CLI produced
when the corpus was recorded; cases that ask for text output store stdout
without its time: line instead of the report.  Every report must also
conform to the shipped report_schema.json.  A refactor must reproduce
every record exactly; a change in behaviour re-records the cases it
changes on purpose, each named by its argv joined by spaces, with

    PYTHONPATH=src python tests/test_golden.py "simpleroots --poly x^2 --field ACF"

and says so in CHANGES.md.  That re-records the named cases and every CASES
entry the corpus does not hold yet.  It writes nothing, and names the
cases, when any other record differs from a fresh run.
"""
import contextlib
import io
import json
import pathlib
import sys

import jsonschema
import pytest

from evainject.cli import main, report_schema

CORPUS = pathlib.Path(__file__).parent / "golden" / "reports.json"

_VERIFY_LHS = '[["0","1/2"],["1","-1"]]'
_VERIFY_RHS = '[["0","-3/2"],["1","1"]]'

CASES = [
    # analyze: scalar over finite fields (first collision in element order)
    ["analyze", "--poly", "x^3", "--field", "F7"],
    ["analyze", "--poly", "x^3", "--field", "F5"],
    ["analyze", "--poly", "x^2", "--field", "F9:modulus=x^2+1"],
    ["analyze", "--poly", "x^3+x^2", "--field", "F4"],
    ["analyze", "--poly", "x", "--field", "F8:modulus=x^3+x^2+1"],
    # analyze: F^m pigeonhole scans and Q^m / RCF^m / ACF^m tuple searches
    ["analyze", "--poly", "x1+x2", "--field", "F3", "--vars", "2"],
    ["analyze", "--poly", "x1^2+x2^3", "--field", "F5", "--vars", "2"],
    ["analyze", "--poly", "x1*x2", "--field", "Q", "--vars", "2", "--height", "3"],
    ["analyze", "--poly", "x1^2+x2^2", "--field", "RCF", "--vars", "2", "--height", "2"],
    ["analyze", "--poly", "x1^3+x2", "--field", "ACF", "--vars", "2", "--height", "2"],
    # analyze: scalar over Q, RCF, ACF
    ["analyze", "--poly", "x^4+2*x", "--field", "Q", "--height", "6"],
    ["analyze", "--poly", "x^2-x", "--field", "Q"],
    ["analyze", "--poly", "2*x+1", "--field", "Q"],
    ["analyze", "--poly", "3", "--field", "F5"],
    ["analyze", "--poly", "x^3+x", "--field", "R"],
    ["analyze", "--poly", "x^3-2*x", "--field", "R", "--height", "5"],
    ["analyze", "--poly", "x^5-x^3+1/3*x", "--field", "RCF", "--height", "4"],
    ["analyze", "--poly", "x^2+1", "--field", "ACF"],
    ["analyze", "--poly", "x^2-3*x+2", "--field", "ACF"],
    ["analyze", "--poly", "x^3+x+1", "--field", "ACF", "--height", "3"],
    # matrix: rational factoring, including Hensel lifts of 4 modular factors
    ["matrix", "--poly", "x^4+2*x", "--field", "Q", "--n", "2"],
    ["matrix", "--poly", "x^9+x^5+x", "--field", "Q", "--n", "2"],
    ["matrix", "--poly", "x^9-40*x^7+352*x^5-960*x^3+576*x", "--field", "Q", "--n", "3"],
    ["matrix", "--poly", "x^7-x", "--field", "Q", "--n", "2"],
    ["matrix", "--poly", "x^3", "--field", "Q", "--n", "2"],
    ["matrix", "--poly", "x^3+x", "--field", "F3", "--n", "2"],
    ["matrix", "--poly", "x^2+1", "--field", "ACF", "--n", "2"],
    ["matrix", "--poly", "x^3+x+1", "--field", "RCF", "--n", "2"],
    # permcheck
    ["permcheck", "--poly", "x^2", "--field", "F5"],
    ["permcheck", "--poly", "x^3", "--field", "F5"],
    ["permcheck", "--poly", "x^5", "--field", "F16"],
    # simpleroots
    ["simpleroots", "--poly", "x^2", "--field", "Q"],
    ["simpleroots", "--poly", "x^3", "--field", "F3"],
    ["simpleroots", "--poly", "x^3+x", "--field", "F5"],
    # bruteforce: scalar and matrix scans
    ["bruteforce", "--poly", "x^2", "--field", "F5"],
    ["bruteforce", "--poly", "x^3", "--field", "F5"],
    ["bruteforce", "--poly", "x^2", "--field", "F3", "--n", "2"],
    ["bruteforce", "--poly", "x^2+x", "--field", "F2", "--n", "2"],
    ["bruteforce", "--poly", "x", "--field", "F2", "--n", "2"],
    ["bruteforce", "--poly", "x^4+x^2+x", "--field", "F4", "--n", "2"],
    ["bruteforce", "--poly", "x^7+x^5+x", "--field", "F2", "--n", "2"],
    # search: rational grid and matrix grid scans
    ["search", "--poly", "x^2", "--field", "Q", "--height", "3"],
    ["search", "--poly", "x^4+2*x", "--field", "Q", "--height", "5"],
    ["search", "--poly", "x^4+2*x", "--field", "Q", "--n", "2", "--height", "2"],
    ["search", "--poly", "x^3", "--field", "Q", "--n", "2", "--height", "1"],
    ["search", "--poly", "x^4+2*x", "--field", "Q", "--n", "2", "--height", "1"],
    # verify
    ["verify", "--poly", "x^4+2*x", "--field", "Q",
     "--lhs", _VERIFY_LHS, "--rhs", _VERIFY_RHS],
    ["verify", "--poly", "x1^2+x2^2", "--field", "Q", "--vars", "2",
     "--lhs", '["1","0"]', "--rhs", '["0","1"]'],
    ["verify", "--poly", "x", "--field", "Q", "--lhs", "0", "--rhs", "1"],
    # errors: exit 64 with the message on stderr
    ["analyze", "--poly", "x", "--field", "F6"],
    ["analyze", "--poly", "x", "--field", "F0"],
    ["analyze", "--poly", "x", "--field", "F1"],
    ["analyze", "--poly", "x", "--field", "F125"],
    ["analyze", "--poly", "x", "--field", "F4294967296"],
    ["analyze", "--poly", "x", "--field", "F4294967311"],
    ["analyze", "--poly", "x", "--field", "F9:modulus=x^2+2"],
    ["analyze", "--poly", "x^", "--field", "Q"],
    ["bruteforce", "--poly", "x^2", "--field", "Q"],
    ["search", "--poly", "x^2", "--field", "Q", "--n", "2", "--height", "5"],
    # verdicts built from engine evidence: matrix profile, permcheck, simpleroots
    ["matrix", "--poly", "2*x+1", "--field", "Q", "--n", "2"],
    ["matrix", "--poly", "x^2", "--field", "F3", "--n", "1"],
    ["permcheck", "--poly", "x^2", "--field", "Q"],
    ["simpleroots", "--poly", "x^2", "--field", "ACF"],
    ["search", "--poly", "x^2", "--field", "F5"],
    ["verify", "--poly", "x^2", "--field", "F5", "--lhs", '[["1"]]', "--rhs", '[["4"]]'],
    ["verify", "--poly", "x^2", "--field", "Q", "--lhs", '["1","0"]', "--rhs", '[["1"]]'],
    ["verify", "--poly", "x^2", "--field", "Q", "--lhs", '[["1","0"],["0","1"]]',
     "--rhs", '[["1"]]'],
    # text output
    ["matrix", "--poly", "x^3+x", "--field", "F3", "--n", "2", "--output", "text"],
    ["permcheck", "--poly", "x^2", "--field", "F5", "--output", "text"],
    ["simpleroots", "--poly", "x^3+x", "--field", "F5", "--output", "text"],
    # rational grid scans: the integer kernel's edge cases
    ["search", "--poly", "0", "--field", "Q", "--height", "2"],
    ["search", "--poly", "7/3", "--field", "Q", "--height", "1"],
    ["search", "--poly", "1/2*x^3-2/3*x", "--field", "Q", "--height", "6"],
    ["search", "--poly", "x-3/4*x^4", "--field", "Q", "--height", "4"],
    ["analyze", "--poly", "2/3*x^5-x^3+1/2*x", "--field", "RCF", "--height", "5"],
    ["analyze", "--poly", "x^5-3/2*x^3+x", "--field", "Q", "--height", "5"],
    ["analyze", "--poly", "x^4-1/2*x^2+1/3", "--field", "ACF", "--height", "4"],
    ["analyze", "--poly", "1/2*x1^2-1/3*x2^3", "--field", "Q", "--vars", "2", "--height", "3"],
    ["analyze", "--poly", "x1*x2*x3+1/2*x1", "--field", "Q", "--vars", "3", "--height", "1"],
    ["analyze", "--poly", "x1-x1", "--field", "Q", "--vars", "2", "--height", "1"],
    # a printed F_{p^k} coefficient outside F_p is bracketed: chosen_q x+[x], not x+x
    ["matrix", "--poly", "x^3+x^2+x", "--field", "F4", "--n", "2"],
    # matrix scans need n >= 1: no empty scan answers, exit 64
    ["bruteforce", "--poly", "x^2", "--field", "F3", "--n", "0"],
    ["search", "--poly", "x^2", "--field", "Q", "--n", "0", "--height", "2"],
    ["bruteforce", "--poly", "x^2", "--field", "F3", "--n", "-1"],
    # scans of a power past the cap's bits: refused before it is built, exit 64
    ["bruteforce", "--poly", "x", "--field", "F2", "--n", "200"],
    ["search", "--poly", "x", "--field", "Q", "--n", "100", "--height", "2"],
    ["analyze", "--poly", "x1+x2", "--vars", "20000", "--field", "F3"],
    ["analyze", "--poly", "x1+x2", "--vars", "20000", "--field", "Q"],
    # input nested deeper than the parsers follow: exit 64, no traceback
    ["analyze", "--field", "Q", "--poly", "(" * 200 + "x" + ")" * 200],
    ["analyze", "--field", "Q", "--poly=" + "-" * 2000 + "x"],
    ["verify", "--poly", "x", "--field", "Q", "--rhs", "1", "--lhs", "[" * 3000 + "]" * 3000],
    # constant terms near 10^24: rational roots by p-adic lifting answer at once
    ["analyze", "--poly", "x^3+1000000000000000000000000*x", "--field", "Q"],
    ["analyze", "--poly", "x^3+1000000000000000000000000*x", "--field", "ACF"],
    ["analyze", "--poly", "x^2+1000000000000000000000001", "--field", "ACF"],
    ["simpleroots", "--poly", "x^3-300000000000000*x", "--field", "Q"],
    # scalar grid scans past the cap: refused after --matrix-cap points, exit 64
    ["search", "--poly", "x^3", "--field", "Q", "--height", "100000", "--matrix-cap", "10000"],
    ["analyze", "--poly", "x^3", "--field", "Q", "--height", "100000", "--matrix-cap", "10000"],
    ["analyze", "--poly", "x^3-2*x", "--field", "RCF", "--height", "100000",
     "--matrix-cap", "10000"],
    ["analyze", "--poly", "x^3+x+1", "--field", "ACF", "--height", "100000",
     "--matrix-cap", "10000"],
    # Hermite's test over a field of more than --matrix-cap elements: refused, exit 64
    ["analyze", "--poly", "x^2", "--field", "F2147483647"],
    ["permcheck", "--poly", "x^1001+x", "--field", "F1000003"],
    # Hermite's sums would pass --matrix-cap below it: the scan decides, hermite null
    ["permcheck", "--poly", "x^3", "--field", "F2003"],
    # a rational coefficient past the int-to-string limit: a parse error, exit 64
    ["analyze", "--poly=3^10000+x", "--field=Q"],
    # simpleroots over F_q by gcd(f', x^q - x): f' = x^5 - x vanishes on F5 (every
    # element a root), and an f' of degree 10 >= 9 with the two roots x, 2x in F9
    ["simpleroots", "--poly", "x^6-3*x^2", "--field", "F5"],
    ["simpleroots", "--poly", "2*x^11+x", "--field", "F9"],
    # ... and over F_(2^31 - 1), far past any scan of the field for a root of f'
    ["simpleroots", "--poly", "x^3+x", "--field", "F2147483647"],
    # a root's multiplicity by division by x - b: orders 3 and 4, a char-p
    # power, a rational root, and a centred even power over ACF
    ["simpleroots", "--poly", "(x-2)^5+x^11", "--field", "F13"],
    ["simpleroots", "--poly", "(x-1)^3", "--field", "F25"],
    ["simpleroots", "--poly", "x^7+x^4", "--field", "F11"],
    ["simpleroots", "--poly", "(x-1/3)^3*(x^2+1)^2", "--field", "Q"],
    ["analyze", "--poly", "(2*x-1)^4+3", "--field", "ACF"],
    ["analyze", "--poly", "(x-1)^4+x", "--field", "ACF", "--height", "3"],
    # ... and of a degree-16000 f, which the Taylor shift took seconds on
    ["simpleroots", "--poly", "x^16000+x^2", "--field", "F7"],
]


def run_case(argv):
    """One in-process CLI run: the record the corpus stores for argv.

    JSON runs (the default) keep the report, checked against the schema;
    runs that name their --output keep stdout minus its time: line."""
    text = "--output" in argv
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv if text else argv + ["--output", "json"])
    record = {"argv": argv, "exit": code, "stderr": err.getvalue()}
    if text:
        record["stdout"] = "".join(line for line in out.getvalue().splitlines(True)
                                   if not line.startswith("time: "))
        return record
    report = json.loads(out.getvalue()) if out.getvalue().strip() else None
    if report is not None:
        jsonschema.validate(report, report_schema())
        del report["timing_ms"]
    record["report"] = report
    return record


def _canonical(record) -> str:
    return json.dumps(record, sort_keys=True)


def test_golden_corpus_replays_exactly():
    records = json.loads(CORPUS.read_text())
    assert [r["argv"] for r in records] == CASES, "re-record the corpus"
    changed = [r["argv"] for r in records if _canonical(run_case(r["argv"])) != _canonical(r)]
    assert not changed, f"reports differ from the corpus for {changed}"


def rerecord(names):
    """Write the corpus afresh for CASES, allowing changes only in the cases
    named (argv joined by spaces) and in cases the corpus lacks."""
    keys = {" ".join(argv) for argv in CASES}
    unknown = [name for name in names if name not in keys]
    if unknown:
        raise SystemExit(f"not in CASES: {unknown}")
    records = json.loads(CORPUS.read_text()) if CORPUS.exists() else []
    old = {" ".join(r["argv"]): _canonical(r) for r in records}
    fresh = {" ".join(argv): run_case(argv) for argv in CASES}
    drifted = [key for key, r in fresh.items()
               if key in old and key not in names and _canonical(r) != old[key]]
    if drifted:
        raise SystemExit(f"not written: records not named differ from a fresh run: {drifted}")
    CORPUS.write_text(json.dumps(list(fresh.values()), indent=1, sort_keys=True) + "\n")


def test_rerecord_writes_only_named_changes(tmp_path, monkeypatch):
    tool = sys.modules[__name__]  # rerecord reads CASES and CORPUS from here
    cases = [["analyze", "--poly", "x^3", "--field", "F7"],
             ["analyze", "--poly", "x^3", "--field", "F5"]]
    monkeypatch.setattr(tool, "CASES", cases)
    monkeypatch.setattr(tool, "CORPUS", tmp_path / "reports.json")
    tool.rerecord([])  # an empty corpus: both cases are new
    good = tool.CORPUS.read_text()
    records = json.loads(good)
    records[1]["stderr"] = "stale"
    stale = json.dumps(records)
    tool.CORPUS.write_text(stale)
    with pytest.raises(SystemExit, match="analyze --poly x\\^3 --field F5"):
        tool.rerecord([])
    assert tool.CORPUS.read_text() == stale
    with pytest.raises(SystemExit, match="not in CASES"):
        tool.rerecord(["analyze --poly x^3 --field F3"])
    tool.rerecord(["analyze --poly x^3 --field F5"])
    assert tool.CORPUS.read_text() == good


if __name__ == "__main__":
    rerecord(sys.argv[1:])
