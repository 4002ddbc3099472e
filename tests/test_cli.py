import json
import random
import threading
from fractions import Fraction

import jsonschema
import pytest

from evainject import QQ, ExtensionField, Matrix, PrimeField, UniPoly
from evainject.cli import (
    main,
    parse_field,
    parse_matrix,
    parse_operand,
    parse_poly,
    report_schema,
)
from evainject.errors import ParseError, ValueTooLongError

F5 = PrimeField(5)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _run_json(capsys, argv):
    code, out, err = _run(capsys, argv + ["--output", "json"])
    return code, (json.loads(out) if out.strip() else None), err


def _main_within(capsys, argv, failure):
    """Run main(argv) on a daemon thread and join it for 2 s; fail with
    `failure` if it is still running, else return (code, stdout, stderr)."""
    result = {}
    worker = threading.Thread(target=lambda: result.update(code=main(argv)), daemon=True)
    worker.start()
    worker.join(timeout=2)
    assert not worker.is_alive(), failure
    out = capsys.readouterr()
    return result["code"], out.out, out.err


def test_parse_poly_examples():
    f = parse_poly("x^4+2*x+7", QQ)
    assert f == UniPoly.from_ints(QQ, [7, 2, 0, 0, 1])
    g = parse_poly("x1*x2+x1", QQ, nvars=2)
    assert dict((e, c.value) for e, c in g.terms.items()) == {(1, 1): 1, (1, 0): 1}
    assert parse_poly("3/4*x^2 - 1/2", QQ) == \
        UniPoly(QQ, [QQ.element(Fraction(-1, 2)), QQ.zero(), QQ.element(Fraction(3, 4))])
    assert parse_poly("-(x-1)*(x+1)", QQ) == UniPoly.from_ints(QQ, [1, 0, -1])


def test_parse_poly_over_finite_fields():
    assert parse_poly("x^2+4*x+9", F5) == UniPoly.from_ints(F5, [4, 4, 1])
    # 1/2 = inv(2) = 3 mod 5
    assert parse_poly("1/2", F5) == UniPoly.constant(F5, F5.element(3))
    with pytest.raises(ParseError):
        parse_poly("1/5", F5)


def test_parse_poly_errors_carry_positions():
    with pytest.raises(ParseError) as exc:
        parse_poly("x^4+2y", QQ)
    assert exc.value.position == 5
    with pytest.raises(ParseError):
        parse_poly("", QQ)
    with pytest.raises(ParseError):
        parse_poly("x^-2", QQ)
    with pytest.raises(ParseError):
        parse_poly("2x", QQ)  # implicit multiplication is not in the grammar


def test_parse_field_grammar():
    assert parse_field("Q") == QQ
    assert parse_field("F7") == PrimeField(7)
    f9 = parse_field("F9:modulus=x^2+1")
    assert isinstance(f9, ExtensionField) and f9.order == 9
    assert parse_field("F4").order == 4
    assert str(parse_field("R")) == "RCF"
    assert str(parse_field("ACF")) == "ACF"
    for bad in ("F6", "F9:modulus=x^2+2", "F0", "G5", "F9:modulus=x^3+1"):
        with pytest.raises(Exception):
            parse_field(bad)


def test_cli_rejects_huge_field_order_promptly(capsys):
    # 2^61 - 1 is prime but far above the 2^31 characteristic cap; the
    # order must be rejected without trial division up to its square root.
    argv = ["analyze", "--poly", "x", "--field", "F2305843009213693951"]
    code, _, err = _main_within(capsys, argv, "parse_field did not answer within 2 s")
    assert code == 64
    assert "exceeds the 2^31 cap" in err


def test_cli_rejects_a_4000_digit_field_order_promptly(capsys):
    # only exponents k with log2(q)/k < 31 can give a base under the cap,
    # so prime_power takes no big-integer k-th roots before refusing
    argv = ["analyze", "--poly", "x", "--field", "F" + "9" * 4000]
    code, _, err = _main_within(capsys, argv, "prime_power did not answer within 2 s")
    assert code == 64
    assert "exceeds the 2^31 cap" in err


# Rational roots come from p-adic lifting, not from divisors of a0 and an,
# so a constant term near 10^24 no longer hangs the Q and ACF decisions.
HUGE_ROOT_TERMS = [
    (["analyze", "--poly", "x^3+1000000000000000000000000*x", "--field", "Q"],
     2, "Undecided", "SearchExhausted"),
    (["analyze", "--poly", "x^3+1000000000000000000000000*x", "--field", "ACF"],
     2, "NecessaryConditionFails", "RootsOutsideComputableField"),
    (["analyze", "--poly", "x^2+1000000000000000000000001", "--field", "ACF"],
     1, "NotInjective", "RepeatedRootWitness"),
    (["simpleroots", "--poly", "x^3-300000000000000*x", "--field", "Q"],
     2, "NecessaryConditionFails", "SimpleRootsFail"),
]


@pytest.mark.parametrize("argv,exit_code,status,reason", HUGE_ROOT_TERMS,
                         ids=[" ".join(case[0]) for case in HUGE_ROOT_TERMS])
def test_cli_answers_huge_constant_terms_promptly(capsys, argv, exit_code, status, reason):
    code, out, _ = _main_within(capsys, argv + ["--output", "json"],
                                "the rational roots did not come within 2 s")
    verdict = json.loads(out)["verdict"]
    assert (code, verdict["status"], verdict["reason"]) == (exit_code, status, reason)


def test_cli_simple_roots_over_a_huge_prime_field_promptly(capsys):
    # the root of f' = 3x^2 + 1 comes from gcd(f', x^p - x), not from a scan
    # of the 2^31 - 1 elements
    p = 2 ** 31 - 1
    argv = ["simpleroots", "--poly", "x^3+x", "--field", f"F{p}", "--output", "json"]
    code, out, _ = _main_within(capsys, argv, "simpleroots did not answer within 2 s")
    report = json.loads(out)
    assert (code, report["verdict"]["status"]) == (2, "NecessaryConditionFails")
    extra = report["extra"]
    assert (extra["b"], extra["lambda"], extra["multiplicity"]) == \
        ("1008985157", "2104312536", 2)
    b = int(extra["b"])
    assert (3 * b * b + 1) % p == 0 and b < p - b   # the lesser root of f'
    assert (b ** 3 + b) % p == int(extra["lambda"])


def test_cli_simple_roots_multiplicity_of_a_high_degree_promptly(capsys):
    # the multiplicity of b = 0 in f - f(0) comes from dividing by x - b
    # until a remainder is nonzero, not from the Taylor shift f(x + b)
    argv = ["simpleroots", "--poly", "x^16000+x^2", "--field", "F7", "--output", "json"]
    code, out, _ = _main_within(capsys, argv, "simpleroots did not answer within 2 s")
    extra = json.loads(out)["extra"]
    assert (code, extra["b"], extra["lambda"], extra["multiplicity"]) == (2, "0", "0", 2)


def test_cli_matrix_search_refuses_a_huge_height_promptly(capsys):
    # the height-100000 grid size comes from a totient sieve, not from
    # counting gcds up to the height squared, so the cap refuses at once
    argv = ["search", "--poly", "x^2", "--field", "Q", "--n", "2", "--height", "100000"]
    code, _, err = _main_within(capsys, argv, "the search did not refuse within 2 s")
    assert code == 64
    assert "exceed the cap" in err


def test_cli_matrix_search_refuses_before_sieving_a_huge_height(capsys):
    # the grid has at least 2h^2 + 1 points, so a height whose bound already
    # exceeds the cap is refused before the totient sieve lists h + 1 ints
    argv = ["search", "--poly", "x^2", "--field", "Q", "--n", "2", "--height", "3000000"]
    code, _, err = _main_within(capsys, argv, "the search did not refuse within 2 s")
    assert code == 64
    assert "exceed the cap" in err


SCALAR_SCANS_PAST_THE_CAP = [
    ["search", "--poly", "x^3", "--field", "Q", "--height", "100000", "--matrix-cap", "10000"],
    ["analyze", "--poly", "x^3", "--field", "Q", "--height", "100000", "--matrix-cap", "10000"],
    ["analyze", "--poly", "x^3-2*x", "--field", "RCF", "--height", "100000",
     "--matrix-cap", "10000"],
    ["analyze", "--poly", "x^3+x+1", "--field", "ACF", "--height", "100000",
     "--matrix-cap", "10000"],
]


@pytest.mark.parametrize("argv", SCALAR_SCANS_PAST_THE_CAP, ids=" ".join)
def test_cli_scalar_search_refuses_after_cap_points(capsys, argv):
    # the rational grid is streamed, but at most --matrix-cap points of it:
    # none of these f has a rational collision, so the scan stops at the
    # cap and refuses, without sieving the height-100000 grid
    code, _, err = _main_within(capsys, argv, "the search did not refuse within 2 s")
    assert code == 64
    assert "at least 20000000001 grid points exceed the cap 10000" in err
    assert "Traceback" not in err


def test_cli_scalar_search_cuts_a_row_longer_than_the_cap(capsys):
    # the grid's first row alone has 2 * 10^7 + 1 points; the scan builds
    # only the first --matrix-cap of them, so it refuses at once
    argv = ["search", "--poly", "x^3", "--field", "Q", "--height", "10000000",
            "--matrix-cap", "100000"]
    code, out, err = _main_within(capsys, argv, "the search did not refuse within 2 s")
    assert code == 64 and out == ""
    assert "at least 200000000000001 grid points exceed the cap 100000" in err
    assert "Traceback" not in err


HUGE_SCANS = [
    ["bruteforce", "--poly", "x", "--field", "F2", "--n", "200"],
    ["search", "--poly", "x", "--field", "Q", "--n", "100", "--height", "2"],
    ["analyze", "--poly", "x1+x2", "--vars", "20000", "--field", "F3"],
    ["analyze", "--poly", "x1+x2", "--vars", "20000", "--field", "Q"],
    ["bruteforce", "--poly", "x", "--field", "F2", "--n", "1000000"],
    ["search", "--poly", "x", "--field", "Q", "--n", "1000000", "--height", "1"],
]


@pytest.mark.parametrize("argv", HUGE_SCANS, ids=" ".join)
def test_cli_refuses_a_scan_of_a_huge_power_promptly(capsys, argv):
    # the cap is compared before the power is built, and the message names
    # a power past 4,096 bits as base^exponent instead of printing it
    code, _, err = _main_within(capsys, argv, "the cap check did not refuse within 2 s")
    assert code == 64
    assert "exceed the cap" in err and "^" in err and "Traceback" not in err


HERMITE_PAST_THE_CAP = [
    ["analyze", "--poly", "x^2", "--field", "F2147483647"],
    ["permcheck", "--poly", "x^1001+x", "--field", "F1000003"],
]


@pytest.mark.parametrize("argv", HERMITE_PAST_THE_CAP, ids=" ".join)
def test_cli_permutation_test_refuses_a_field_past_the_cap_promptly(capsys, argv):
    # Hermite's test tabulates all q elements, so a field of more than
    # --matrix-cap elements is refused before any table is built
    code, _, err = _main_within(capsys, argv, "the permutation test did not refuse within 2 s")
    assert code == 64
    assert "field elements exceed the cap 1000000" in err and "Traceback" not in err


def test_cli_refuses_a_rational_too_long_to_print(capsys):
    # 3^10000 has 4,772 digits, past Python's int-to-string limit, so the
    # report could not print it; 3^(10^9) is refused before it is built
    for poly in ("3^10000+x", "3^1000000000+x", "(1/3^2000)^5*x"):
        code, out, err = _main_within(capsys, ["analyze", "--poly", poly, "--field", "Q"],
                                      "the parser did not refuse within 2 s")
        assert code == 64 and out == ""
        assert "digits, the int-to-string limit" in err and "Traceback" not in err
    assert parse_poly("3^8000+x", QQ).constant_term == QQ.element(3 ** 8000)


def test_cli_refuses_an_image_too_long_to_print(capsys):
    # each point of the pair prints, but f(N) = N^4 has about 4,800 digits,
    # past Python's int-to-string limit: refused before anything is printed
    n = "7" * 1200
    code, out, err = _run(capsys, ["verify", "--poly", "x^4", "--field", "Q",
                                   "--lhs", n, "--rhs", "-" + n])
    assert code == 64 and out == ""
    assert err.startswith("error: a rational value has more than")
    assert "digits, the int-to-string limit" in err and "Traceback" not in err
    with pytest.raises(ValueTooLongError):
        str(QQ.element(int(n) ** 4))
    assert str(QQ.element(Fraction(1, int(n)))) == "1/" + n


NESTED_TOO_DEEPLY = [
    ["analyze", "--field", "Q", "--poly", "(" * 200 + "x" + ")" * 200],
    ["analyze", "--field", "Q", "--poly=" + "-" * 2000 + "x"],
    ["verify", "--poly", "x", "--field", "Q", "--rhs", "1", "--lhs", "[" * 3000 + "]" * 3000],
]


@pytest.mark.parametrize("argv", NESTED_TOO_DEEPLY)
def test_cli_input_nested_too_deeply_is_a_parse_error(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 64
    assert "nested too deeply" in err and "Traceback" not in err
    assert out == ""


def test_parser_follows_moderate_nesting():
    assert parse_poly("(" * 50 + "x" + ")" * 50, QQ) == UniPoly.x(QQ)
    assert parse_poly("-" * 50 + "x", QQ) == UniPoly.x(QQ)


def test_cli_pigeonhole_answers_a_huge_exponent_promptly(capsys):
    # exponents fold below q before the F_q^m scan, so x1^(10^8) costs
    # no more than x1^k for some k < 7
    argv = ["analyze", "--poly", "x1^100000000+x2", "--vars", "2", "--field", "F7",
            "--output", "json"]
    code, out, _ = _main_within(capsys, argv, "the pigeonhole scan did not answer within 2 s")
    assert code == 1
    witness = json.loads(out)["verdict"]["witness"]
    assert (witness["lhs"], witness["rhs"]) == (["0", "1"], ["1", "0"])


def test_cli_refuses_a_huge_univariate_degree_promptly(capsys):
    # x^(10^8) is one sparse term while parsing, but a UniPoly is dense:
    # the degree cap refuses it before the coefficient list is built
    argv = ["analyze", "--poly", "x^100000000", "--field", "F7"]
    code, _, err = _main_within(capsys, argv, "the parser did not refuse within 2 s")
    assert code == 64
    assert "exceeds the univariate cap" in err


def test_univariate_degree_cap_covers_every_polynomial_entry_point():
    assert parse_poly("x^10000001-x^10000001+x^2", QQ) == UniPoly.from_ints(QQ, [0, 0, 1])
    with pytest.raises(ParseError, match="univariate cap"):
        parse_poly("(x^10000)^1001", F5)
    with pytest.raises(ParseError, match="univariate cap"):
        parse_field("F4:modulus=x^100000000")
    with pytest.raises(ParseError, match="univariate cap"):
        parse_matrix('[["x^100000000"]]', parse_field("F9"))


def test_cli_rational_search_stops_at_first_collision_promptly(capsys):
    # The height-2000 grid has billions of points; x^2 collides at (-1, 1)
    # within its first 2,002, so the scan must not build the grid first.
    argv = ["search", "--poly", "x^2", "--field", "Q", "--height", "2000",
            "--output", "json"]
    code, out, _ = _main_within(capsys, argv, "the search did not answer within 2 s")
    assert code == 1
    witness = json.loads(out)["verdict"]["witness"]
    assert (witness["lhs"], witness["rhs"], witness["image"]) == ("-1", "1", "1")


def test_parse_field_roundtrip():
    for s in ("Q", "F7", "F9:modulus=x^2+1", "ACF", "RCF"):
        assert str(parse_field(str(parse_field(s)))) == str(parse_field(s))


def test_parse_matrix_and_operands():
    m = parse_matrix('[["0","1/2"],["1","-1"]]', QQ)
    assert m == Matrix.from_rows(QQ, [["0", "1/2"], ["1", "-1"]])
    f9 = parse_field("F9:modulus=x^2+1")
    m = parse_matrix('[["x+1","0"],["2","x"]]', f9)
    assert m.entries[0][0] == f9.element([1, 1])
    t = parse_operand('["1","2"]', QQ, 2)
    assert t == (QQ.one(), QQ.element(2))
    s = parse_operand("-3/2", QQ, None)
    assert s == QQ.element(Fraction(-3, 2))


def test_printer_parser_roundtrip_random():
    rng = random.Random(17)
    for spec in (QQ, F5):
        for _ in range(40):
            deg = rng.randint(0, 6)
            if spec.is_finite:
                coeffs = [spec.element_from_index(rng.randrange(spec.order))
                          for _ in range(deg + 1)]
            else:
                coeffs = [spec.element(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                          for _ in range(deg + 1)]
            f = UniPoly(spec, coeffs)
            assert parse_poly(str(f), spec) == f
            assert parse_poly(f.format(descending=False), spec) == f


def test_cli_spec_examples(capsys):
    code, out, _ = _run(capsys, ["analyze", "--poly", "x^3", "--field", "F7"])
    assert code == 1
    assert 'witness lhs: "1"' in out and 'witness rhs: "2"' in out

    code, report, _ = _run_json(capsys, ["matrix", "--poly", "x^4+2*x",
                                         "--field", "Q", "--n", "2"])
    assert code == 2
    assert report["verdict"]["reason"] == "OpenCaseBelowD"
    assert report["extra"]["d"] == 3

    code, report, _ = _run_json(capsys, [
        "verify", "--poly", "x^4+2*x", "--field", "Q",
        "--lhs", '[["0","1/2"],["1","-1"]]',
        "--rhs", '[["0","-3/2"],["1","1"]]'])
    assert code == 1
    assert report["verdict"]["witness"]["image"] == [["3/4", "0"], ["0", "3/4"]]


def test_cli_exit_codes(capsys):
    code, _, _ = _run(capsys, ["analyze", "--poly", "2*x+1", "--field", "Q"])
    assert code == 0
    code, _, _ = _run(capsys, ["analyze", "--poly", "x^3", "--field", "Q"])
    assert code == 2
    code, _, err = _run(capsys, ["analyze", "--poly", "x^", "--field", "Q"])
    assert code == 64 and "parse error" in err
    code, _, err = _run(capsys, ["analyze", "--poly", "x", "--field", "F6"])
    assert code == 64
    code, _, err = _run(capsys, ["bruteforce", "--poly", "x^2", "--field", "Q"])
    assert code == 64  # brute force needs a finite field
    code, _, err = _run(capsys, ["analyze", "--poly", "x"])
    assert code == 64  # missing --field


def test_cli_reports_validate_against_schema(capsys):
    schema = report_schema()
    commands = [
        ["analyze", "--poly", "x^3", "--field", "F7"],
        ["analyze", "--poly", "x^3+x", "--field", "R"],
        ["analyze", "--poly", "x1+x2", "--field", "F3", "--vars", "2"],
        ["matrix", "--poly", "x^2+1", "--field", "Q", "--n", "2"],
        ["permcheck", "--poly", "x^2", "--field", "F5"],
        ["simpleroots", "--poly", "x^2", "--field", "Q"],
        ["bruteforce", "--poly", "x^2", "--field", "F3", "--n", "2"],
        ["search", "--poly", "x^2", "--field", "Q", "--height", "3"],
        ["verify", "--poly", "x^2", "--field", "Q", "--lhs", "1", "--rhs", "-1"],
    ]
    for argv in commands:
        _, report, _ = _run_json(capsys, argv)
        jsonschema.validate(report, schema)


def test_cli_report_inputs_reproduce_run(capsys):
    argv = ["matrix", "--poly", "x^3 + x", "--field", "Q", "--n", "2"]
    code1, report1, _ = _run_json(capsys, argv)
    echoed = ["matrix", "--poly", report1["inputs"]["poly"],
              "--field", report1["inputs"]["field"],
              "--n", str(report1["inputs"]["n"])]
    code2, report2, _ = _run_json(capsys, echoed)
    assert code1 == code2
    assert report1["verdict"] == report2["verdict"]
    assert report1["inputs"] == report2["inputs"]


def test_cli_simpleroots_and_permcheck_payloads(capsys):
    code, report, _ = _run_json(capsys, ["simpleroots", "--poly", "x^2",
                                         "--field", "Q"])
    assert code == 2
    assert report["extra"] == {"holds": False, "b": "0", "lambda": "0",
                               "multiplicity": 2, "char_p_degenerate": False}
    code, report, _ = _run_json(capsys, ["permcheck", "--poly", "x^3",
                                         "--field", "F5"])
    assert code == 0
    assert report["extra"] == {"hermite": True, "exhaustive": True}


def test_cli_simpleroots_over_a_tag_needs_a_concrete_field(capsys):
    for tag in ("ACF", "RCF"):
        code, _, err = _run(capsys, ["simpleroots", "--poly", "x^2", "--field", tag])
        assert code == 64
        assert err == "error: simple-roots check needs a concrete field\n"


def test_cli_has_no_seed_flag_or_env(capsys, monkeypatch):
    # factoring is canonical, so nothing a seed could change is left to set
    argv = ["matrix", "--poly", "x^4+2*x", "--field", "Q", "--n", "3"]
    code, _, err = _run(capsys, argv + ["--seed", "5"])
    assert code == 64
    assert err.startswith("usage error: unrecognized arguments: --seed 5")
    _, plain, _ = _run_json(capsys, argv)
    monkeypatch.setenv("EVA_INJECT_SEED", "junk")
    code, report, _ = _run_json(capsys, argv)
    assert code == 1
    assert "seed" not in report["bounds"]
    del plain["timing_ms"], report["timing_ms"]
    assert report == plain


def test_cli_verify_rejects_non_witness(capsys):
    code, report, _ = _run_json(capsys, ["verify", "--poly", "x", "--field", "Q",
                                         "--lhs", "0", "--rhs", "1"])
    assert code == 2
    assert report["verdict"]["reason"] == "NotAWitness"


def test_cli_search_verbs(capsys):
    code, report, _ = _run_json(capsys, ["search", "--poly", "x^2", "--field", "Q",
                                         "--height", "1"])
    assert code == 1
    assert report["verdict"]["witness"]["kind"] == "scalar"
    code, report, _ = _run_json(capsys, ["search", "--poly", "x^4+2*x",
                                         "--field", "Q", "--height", "20"])
    assert code == 2
    code, report, _ = _run_json(capsys, ["search", "--poly", "x^4+2*x",
                                         "--field", "Q", "--n", "2", "--height", "2"])
    assert code == 1
    assert report["verdict"]["witness"]["kind"] == "matrix"


def test_cli_unknown_verb_is_usage_error(capsys):
    code, _, err = _run(capsys, ["decide", "--poly", "x", "--field", "Q"])
    assert code == 64


def test_cli_internal_invariant_maps_to_70(capsys, monkeypatch):
    from evainject.cli import engine as cli_engine
    from evainject.errors import InconsistentMethodsError

    def boom(*args, **kwargs):
        raise InconsistentMethodsError("forced for the exit-code test")

    monkeypatch.setattr(cli_engine, "permutation_check", boom)
    code, _, err = _run(capsys, ["permcheck", "--poly", "x^2", "--field", "F5"])
    assert code == 70
    assert "internal invariant failure" in err


def test_cli_uncaught_exception_maps_to_70(capsys, monkeypatch):
    # exit 1 means NotInjective, so a crash must not exit with Python's 1
    from evainject.cli import engine as cli_engine

    def boom(*args, **kwargs):
        raise RuntimeError("forced for the exit-code test")

    monkeypatch.setattr(cli_engine, "permutation_verdict", boom)
    code, out, err = _run(capsys, ["permcheck", "--poly", "x^2", "--field", "F5"])
    assert code == 70
    assert "Traceback" in err and "RuntimeError: forced for the exit-code test" in err
    assert out == ""


def test_cli_extension_field_run(capsys):
    # gcd(3, 8) = 1, so the cube map permutes F9
    code, report, _ = _run_json(capsys, ["analyze", "--poly", "x^3",
                                         "--field", "F9:modulus=x^2+1"])
    assert code == 0
    assert report["inputs"]["field"] == "F9:modulus=x^2+1"
    # the square map cannot permute any odd-order field
    code, report, _ = _run_json(capsys, ["analyze", "--poly", "x^2",
                                         "--field", "F9:modulus=x^2+1"])
    assert code == 1
    assert report["verdict"]["witness"]["kind"] == "scalar"


@pytest.mark.parametrize("argv", [
    ["analyze", "--poly", "x", "--field", "F" + "9" * 5000],
    ["analyze", "--poly", "x+" + "1" * 5000, "--field", "Q"],
    ["verify", "--poly", "x^2", "--field", "Q", "--lhs", "[1,", "--rhs", "2"],
], ids=["field-size-digits", "coefficient-digits", "operand-json"])
def test_cli_bad_numeric_input_is_parse_error(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 64 and out == ""
    assert err.startswith("parse error: ")


@pytest.mark.parametrize("flag, value", [
    ("--height", "0"), ("--scalar-cap", "0"), ("--matrix-cap", "-3")])
def test_cli_rejects_bounds_below_one(capsys, flag, value):
    code, out, err = _run(capsys, ["analyze", "--poly", "x^2", "--field", "ACF",
                                   flag, value])
    assert code == 64 and out == ""
    assert err == f"usage error: {flag} must be at least 1\n"


def test_cli_matrix_factors_f_once(capsys, monkeypatch):
    from evainject import cli as cli_module
    from evainject import engine

    calls = []
    original = engine.factor_profile

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(engine, "factor_profile", counting)
    monkeypatch.setattr(cli_module, "factor_profile", counting, raising=False)
    code, report, _ = _run_json(capsys, ["matrix", "--poly", "x^4+2*x",
                                         "--field", "Q", "--n", "2"])
    assert code == 2 and report["extra"]["d"] == 3
    assert len(calls) == 1


def test_cli_reuses_one_parser(capsys, monkeypatch):
    # main shares one parser per process; a usage error on it changes
    # nothing for later calls, which answer as on a fresh parser
    from evainject import cli
    assert cli.build_parser() is cli.build_parser()
    argvs = [["permcheck", "--poly", "x^3", "--field", "F7"],
             ["analyze", "--poly", "x^3", "--field", "F5", "--vars", "0"],
             ["matrix", "--poly", "x^2", "--field", "Q"],
             ["analyze", "--poly", "x1*x2", "--vars", "2", "--field", "F3"],
             ["simpleroots", "--poly", "x^3+2*x", "--field", "F7"],
             ["bruteforce", "--poly", "x^2+x", "--field", "F2", "--n", "2"],
             ["verify", "--poly", "x^2", "--field", "Q", "--lhs", "1", "--rhs", "-1"]]

    def answers():
        out = []
        for argv in argvs:
            code, report, err = _run_json(capsys, argv)
            if report is not None:
                report.pop("timing_ms")
            out.append((code, report, err))
        return out
    shared = answers()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert shared == answers()
    assert [code for code, _, _ in shared] == [1, 64, 64, 1, 2, 1, 1]
