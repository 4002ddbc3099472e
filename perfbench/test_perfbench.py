"""Tests of the benchmark itself: seeded inputs, the reference checker and
the span tree.  Run with: python3 -m pytest -q perfbench"""
from __future__ import annotations

import json

import jsonschema

import gen
import refcheck
import run
import tracer


def _validator():
    schema = json.loads((run.SRC / "evainject" / "report_schema.json").read_text())
    return jsonschema.Draft7Validator(schema)


def test_same_seed_gives_same_inputs():
    for workload in gen.WORKLOADS:
        first = [gen.round_inputs(workload, 7, i) for i in range(2)]
        again = [gen.round_inputs(workload, 7, i) for i in range(2)]
        assert first == again
        assert first[0] != first[1]
        assert gen.round_inputs(workload, 8, 0) != first[0]


def test_checker_accepts_right_outcomes_and_flags_planted_errors():
    client, validator = run.Client(), _validator()
    d = gen.Decision("analyze", gen.prime_field(7), (0, 0, 1))     # x^2: not injective
    good = client.execute(d)
    assert refcheck.check(d, good, validator)[0] == []

    report = json.loads(good.result)
    wrong = json.loads(good.result)
    wrong["verdict"].update(status="Injective", witness=None)
    assert refcheck.check(d, run.Outcome(d, 1.0, 0, json.dumps(wrong), None), validator)[0]

    tampered = json.loads(good.result)
    tampered["verdict"]["witness"]["rhs"] = "3" if report["verdict"]["witness"]["rhs"] != "3" else "2"
    problems = refcheck.check(d, run.Outcome(d, 1.0, 1, json.dumps(tampered), None), validator)[0]
    assert any("witness" in p for p in problems)

    exited = run.Outcome(d, 1.0, 0, good.result, None)              # exit code 0 for NotInjective
    assert refcheck.check(d, exited, validator)[0]


def test_checker_flags_wrong_profile_and_wrong_zero_fiber():
    client, validator = run.Client(), _validator()
    d = gen.Decision("matrix", gen.Q, (0, 1, 0, 1), n=2)           # x^3 + x
    good = client.execute(d)
    assert refcheck.check(d, good, validator)[0] == []
    report = json.loads(good.result)
    report["extra"]["d"] += 1
    assert refcheck.check(d, run.Outcome(d, 1.0, good.rc, json.dumps(report), None),
                          validator)[0]

    z = gen.Decision("zero_fiber", gen.prime_field(3), (0, 1, 1), n=2)
    fiber = client.execute(z)
    assert fiber.result and refcheck.check(z, fiber, validator)[0] == []
    short = run.Outcome(z, 1.0, None, fiber.result[1:], None)
    assert refcheck.check(z, short, validator)[0]
    doubled = run.Outcome(z, 1.0, None, fiber.result[1:] + fiber.result[:1] * 2, None)
    assert refcheck.check(z, doubled, validator)[0]
    reordered = run.Outcome(z, 1.0, None, fiber.result[::-1], None)   # a set: order is free
    assert refcheck.check(z, reordered, validator)[0] == []


def test_span_tree_is_well_formed():
    client = run.Client()
    tr = tracer.Tracer()
    original = client.cli.parse_poly
    tr.install()
    try:
        for d in gen.round_inputs("decide-mix", 3, 0)[:12]:
            with tr.span("bench.decision"):
                client.execute(d)
    finally:
        tr.uninstall()
    assert client.cli.parse_poly is original
    assert len(tr.span_name) > 12
    assert tr.tree_problems() == []
    assert all(t >= 0 for t in tr.self_times_ns())
    stats = tr.per_name()
    assert stats["bench.decision"][0] == 12
    assert stats["cli.main"][0] == 12


def test_self_time_subtracts_child_coverage():
    tr = tracer.Tracer()
    nid = tr.name_id("x")
    # parent [0, 100] with children [10, 30] and [50, 60]; grandchild [12, 20]
    for start, end, parent in ((0, 100, -1), (10, 30, 0), (12, 20, 1), (50, 60, 0)):
        tr.span_name.append(nid)
        tr.span_parent.append(parent)
        tr.span_start.append(start)
        tr.span_end.append(end)
    assert list(tr.self_times_ns()) == [70, 12, 8, 10]
    assert tr.tree_problems() == []
    tr.span_end[3] = 120                                          # child outlives parent
    assert tr.tree_problems()
