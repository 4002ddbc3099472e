import math
import random
from fractions import Fraction

import pytest

from evainject import (
    ACF,
    QQ,
    RCF,
    Bounds,
    ExtensionField,
    PrimeField,
    Reason,
    Status,
    UniPoly,
    brute_force_scalar,
    permutation_check,
    scalar_injectivity,
    simple_roots_condition,
    verify_witness,
)
from evainject import engine
from evainject.engine import PermutationCheck, permutation_verdict
from evainject.errors import (
    ConstantPolynomialError,
    EnumerationCapExceededError,
    NotAWitnessError,
    SpecMismatchError,
)
from evainject.fields import is_prime

from oracles import (
    all_polys,
    degree_reduction_is_permutation,
    divmod_root_multiplicity,
    elements_built,
    image_is_injective,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)
F4 = ExtensionField(2, [1, 1, 1])

U = UniPoly.from_ints


def _recheck(f, verdict):
    w = verdict.witness
    assert w.lhs != w.rhs
    if hasattr(w.lhs, "spec") and not isinstance(w.lhs, tuple):
        assert f.eval(w.lhs) == f.eval(w.rhs) == w.image


def test_verify_witness_examples():
    f = U(QQ, [0, 0, 1])
    w = verify_witness(f, QQ.element(1), QQ.element(-1))
    assert w.image == QQ.one()
    with pytest.raises(NotAWitnessError):
        verify_witness(U(QQ, [0, 1]), QQ.zero(), QQ.one())
    with pytest.raises(NotAWitnessError):
        verify_witness(f, QQ.one(), QQ.one())


def test_affine_injective_everywhere():
    for spec in (QQ, F5, F4, ACF, RCF):
        f = U(QQ if spec.is_symbolic else spec, [5, 3])
        v = scalar_injectivity(f, spec)
        assert v.status is Status.INJECTIVE
        assert v.reason == Reason.DEGREE_ONE


def test_constant_not_injective():
    for spec in (QQ, F5, ACF, RCF):
        f = U(QQ if spec.is_symbolic else spec, [4])
        v = scalar_injectivity(f, spec)
        assert v.status is Status.NOT_INJECTIVE
        assert v.reason == Reason.CONSTANT
        _recheck(f, v)


def test_cube_over_f7():
    v = scalar_injectivity(U(F7, [0, 0, 0, 1]))
    assert v.status is Status.NOT_INJECTIVE
    assert (v.witness.lhs, v.witness.rhs) == (F7.element(1), F7.element(2))
    assert v.witness.image == F7.element(1)


def test_cube_over_f5_injective():
    v = scalar_injectivity(U(F5, [0, 0, 0, 1]))
    assert v.status is Status.INJECTIVE
    assert v.reason == Reason.PERMUTATION_POLYNOMIAL


def test_extension_field_scalar():
    # the cube map collapses the three units of F4
    v = scalar_injectivity(U(F4, [0, 0, 0, 1]))
    assert v.status is Status.NOT_INJECTIVE
    _recheck(U(F4, [0, 0, 0, 1]), v)


def test_real_line_dispatch():
    assert scalar_injectivity(U(QQ, [0, 1, 0, 1]), RCF).status is Status.INJECTIVE
    v = scalar_injectivity(U(QQ, [0, -1, 0, 1]), RCF)
    assert v.status is Status.NOT_INJECTIVE
    assert v.reason == Reason.NOT_MONOTONE
    _recheck(U(QQ, [0, -1, 0, 1]), v)
    v = scalar_injectivity(U(QQ, [0, 0, 1]), RCF)
    assert v.status is Status.NOT_INJECTIVE


def test_real_line_quartic_without_rational_collision():
    # not monotone, hence not injective on R, yet no collision has rational
    # coordinates; the honest verdict carries no witness
    f = U(QQ, [0, 2, 0, 0, 1])
    v = scalar_injectivity(f, RCF)
    assert v.status is Status.NECESSARY_CONDITION_FAILS
    assert v.reason == Reason.NOT_MONOTONE
    assert v.witness is None
    assert "monotonicity violation" in v.detail


def test_acf_dispatch():
    v = scalar_injectivity(U(QQ, [0, 0, 1]), ACF)
    assert v.status is Status.NOT_INJECTIVE
    assert v.reason == Reason.REPEATED_ROOT_WITNESS
    assert {v.witness.lhs.value, v.witness.rhs.value} == {Fraction(-1), Fraction(1)}

    v = scalar_injectivity(U(QQ, [2, -3, 1]), ACF)  # (x-1)(x-2)
    assert v.status is Status.NOT_INJECTIVE
    assert v.reason == Reason.DISTINCT_ROOTS_WITNESS
    assert v.witness.image == QQ.zero()

    v = scalar_injectivity(U(QQ, [1, 0, 1]), ACF)  # shifted even power x^2+1
    assert v.status is Status.NOT_INJECTIVE
    assert v.reason == Reason.REPEATED_ROOT_WITNESS

    # x^3 collapses roots of unity, none of which are rational
    v = scalar_injectivity(U(QQ, [0, 0, 0, 1]), ACF)
    assert v.status is Status.NECESSARY_CONDITION_FAILS
    assert v.reason == Reason.ROOTS_OUTSIDE_COMPUTABLE_FIELD


def test_rationals_never_injective_for_higher_degree():
    # x^3 is injective on Q, but no implemented criterion proves it
    v = scalar_injectivity(U(QQ, [0, 0, 0, 1]))
    assert v.status is Status.UNDECIDED
    assert v.reason == Reason.SEARCH_EXHAUSTED

    v = scalar_injectivity(U(QQ, [0, 0, 1]))
    assert v.status is Status.NOT_INJECTIVE
    assert v.reason == Reason.SEARCH_COLLISION
    _recheck(U(QQ, [0, 0, 1]), v)


def test_pairing_validation():
    with pytest.raises(SpecMismatchError):
        scalar_injectivity(U(F5, [0, 1, 1]), ACF)
    with pytest.raises(SpecMismatchError):
        scalar_injectivity(U(QQ, [0, 1, 1]), F5)


def test_permutation_check_examples():
    assert permutation_check(U(F5, [0, 0, 0, 1])).is_permutation
    assert not permutation_check(U(F5, [0, 0, 1])).is_permutation
    for spec in (F2, F3, F5, F7, F4):
        check = permutation_check(UniPoly.x(spec))
        assert check.is_permutation and check.hermite and check.exhaustive


def test_permutation_check_methods_agree_exhaustively():
    # the value-level Hermite test, cross-check scan and brute-force oracle
    # against a boxed image scan, on every f of degree <= 3
    for spec in (F2, F3, F4, F5, F7, ExtensionField.from_order(8),
                 ExtensionField.from_order(9)):
        for f in all_polys(spec, 3):
            check = permutation_check(f)
            injective = image_is_injective(f)
            assert check.exhaustive is not None
            assert check.hermite == check.exhaustive == injective
            assert (check.collision is None) == injective
            assert (brute_force_scalar(f).status is Status.INJECTIVE) == injective


def test_permuting_binomials_above_the_scalar_cap():
    # a*x^k + b with gcd(k, q - 1) = 1 permutes F_q; both methods and the
    # oracle must say so for q up to 64
    rng = random.Random(64)
    bounds = Bounds(scalar_cap=64)
    for q in (53, 16, 27, 32, 49, 64):
        spec = PrimeField(q) if q == 53 else ExtensionField.from_order(q)
        ks = [k for k in range(1, q) if math.gcd(k, q - 1) == 1]
        for k in rng.sample(ks, 4):
            a = spec.element_from_index(rng.randrange(1, q))
            b = spec.element_from_index(rng.randrange(q))
            f = UniPoly.constant(spec, b) + UniPoly.constant(spec, a) * UniPoly.x(spec) ** k
            check = permutation_check(f, cross_check_cap=bounds.scalar_cap)
            assert check.hermite and check.exhaustive and check.collision is None
            assert image_is_injective(f)
            assert brute_force_scalar(f, bounds).status is Status.INJECTIVE


def test_permutation_check_boxes_only_witnesses(monkeypatch):
    # the root count, Hermite test and cross-check scan run on canonical
    # values: a permutation monomial over F53 boxes next to nothing
    f = U(PrimeField(53), [0, 0, 0, 0, 0, 0, 0, 1])  # gcd(7, 52) = 1
    check, built = elements_built(monkeypatch, lambda: permutation_check(f, 53))
    assert check.hermite and check.exhaustive
    assert built <= 8
    g = U(PrimeField(53), [0, 0, 0, 1])  # gcd(3, 52) = 1
    check, built = elements_built(monkeypatch, lambda: permutation_check(g))
    assert check.hermite and check.exhaustive is None
    assert built <= 8


def test_permutation_check_hermite_only_above_cap():
    check = permutation_check(U(F7, [0, 0, 0, 0, 0, 1]), cross_check_cap=5)
    assert check.exhaustive is None
    assert check.is_permutation == check.hermite == True  # gcd(5, 6) = 1


def _finite_field(q):
    return PrimeField(q) if is_prime(q) else ExtensionField.from_order(q)


def _random_poly(rng, spec, degree):
    return UniPoly._from_values(spec, [spec._value_from_index(rng.randrange(spec.order))
                                       for _ in range(degree)]
                                + [spec._value_from_index(rng.randrange(1, spec.order))])


def _binomial(spec, a, k, b):
    """a*x^k + b for element indices a, b."""
    zero = spec.zero().value
    return UniPoly._from_values(spec, [spec._value_from_index(b)] + [zero] * (k - 1)
                                + [spec._value_from_index(a)])


def test_hermite_power_sums_match_degree_reduction_on_small_fields():
    # every f of degree <= 4 over F2-F5; over F7, F8 and F9, where all of
    # them would take about 30 s, a seeded sample of degree 4 and every
    # binomial a*x^k + b with k <= 4
    rng = random.Random(9)
    for q in (2, 3, 4, 5, 7, 8, 9):
        spec = _finite_field(q)
        if q <= 5:
            polys = list(all_polys(spec, 4))
        else:
            polys = [_random_poly(rng, spec, 4) for _ in range(300)]
            polys += [_binomial(spec, a, k, b) for a in range(1, q) for k in range(1, 5)
                      for b in range(q)]
        for f in polys:
            assert engine._hermite_is_permutation(f) == degree_reduction_is_permutation(f), f


def test_hermite_power_sums_match_degree_reduction_on_larger_fields():
    # seeded f of degree <= 8, and binomials a*x^k + b: permutations when
    # gcd(k, q - 1) = 1 (k past q folds), non-permutations with one root
    # otherwise; the oracle's boxed root count keeps k small on F101, F251
    rng = random.Random(251)
    for q in (53, 64, 101, 251):
        spec = _finite_field(q)
        polys = [_random_poly(rng, spec, rng.randint(2, 8)) for _ in range(6)]
        coprime = [k for k in range(2, 2 * q if q < 100 else 20) if math.gcd(k, q - 1) == 1]
        polys += [_binomial(spec, rng.randrange(1, q), k, rng.randrange(q))
                  for k in rng.sample(coprime, 3)]
        polys.append(_binomial(spec, 1, next(k for k in range(2, q) if math.gcd(k, q - 1) > 1), 0))
        expected = [True] * 3 + [False]
        for f in polys:
            assert engine._hermite_is_permutation(f) == degree_reduction_is_permutation(f), f
        assert [engine._hermite_is_permutation(f) for f in polys[-4:]] == expected


def test_hermite_shares_no_evaluator_with_the_cross_check(monkeypatch):
    # the root count and the power sums read f's values from the log table,
    # so a broken _scalar_image cannot make both methods agree on a mistake
    def broken(f):
        raise AssertionError("Hermite's test called _scalar_image")
    monkeypatch.setattr(engine, "_scalar_image", broken)
    for q, a, k, b in ((7, 1, 5, 0), (7, 1, 3, 2), (53, 2, 3, 3), (64, 2, 5, 1), (9, 1, 2, 0)):
        f = _binomial(_finite_field(q), a, k, b)
        assert engine._hermite_is_permutation(f) == (math.gcd(k, q - 1) == 1)


def test_hermite_counts_its_sums_against_the_cap():
    # over F7, x^5 sums 6 terms to evaluate f, then 6 for each S_t with
    # t = 2..5: 30 terms in all, which a cap of 30 allows; under a cap of
    # 29 Hermite's test does not run and the scan decides alone
    f = U(F7, [0, 0, 0, 0, 0, 1])
    assert permutation_check(f, cap=30) == PermutationCheck(True, True, None)
    assert permutation_check(f, 2, cap=30) == PermutationCheck(True, None, None)
    assert permutation_check(f, 2, cap=29) == PermutationCheck(None, True, None)
    with pytest.raises(EnumerationCapExceededError, match="7 field elements exceed the cap 6"):
        permutation_check(f, cap=6)
    big = U(PrimeField(1000003), [0, 1] + [0] * 999 + [1])
    with pytest.raises(EnumerationCapExceededError, match="1000003 field elements"):
        permutation_check(big)


def test_scan_decides_where_hermite_would_pass_the_cap(monkeypatch):
    # x^3 over F2003 would sum 2002 * (1 + 1334) terms, past the default
    # cap: no table is built and the scan finds it a permutation; x^14 + x^3
    # is not one, and the scan's first collision says so
    def no_table(spec):
        raise AssertionError("built a discrete-log table past the cap")
    monkeypatch.setattr(engine, "_generator_powers", no_table)
    spec = PrimeField(2003)
    check = permutation_check(U(spec, [0, 0, 0, 1]))
    assert check == PermutationCheck(None, True, None) and check.is_permutation
    g = U(spec, [0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1])  # x^14 + x^3
    check = permutation_check(g)
    assert check.hermite is None and check.exhaustive is False and not check.is_permutation
    assert g.eval(check.collision.lhs) == g.eval(check.collision.rhs) == check.collision.image


def test_finite_field_scalar_verdict_is_permutation_verdict():
    # analyze and permcheck share one decision over F_q: status, reason,
    # detail, witness and the PermutationCheck evidence all agree
    rng = random.Random(1907)
    F9 = ExtensionField(3, [1, 0, 1])
    F16 = ExtensionField(2, [1, 1, 0, 0, 1])
    F49 = ExtensionField(7, [1, 0, 1])
    F53 = PrimeField(53)
    cases = [f for spec in (F2, F3, F4, F5) for f in all_polys(spec, 3) if f.degree >= 2]
    for spec, k in ((F9, 3), (F16, 7), (F49, 5)):  # gcd(k, q - 1) = 1: x^k permutes
        cases.append(UniPoly.x(spec) ** k)
        for _ in range(6):
            coeffs = [spec.element_from_index(rng.randrange(spec.order))
                      for _ in range(rng.randint(2, 4))]
            cases.append(UniPoly(spec, coeffs + [spec.element_from_index(
                rng.randrange(1, spec.order))]))
    cases += [U(F53, [1, 0, 0, 1]), U(F53, [0, 0, 1])]  # above scalar_cap
    bounds = Bounds()
    for f in cases:
        v = scalar_injectivity(f, f.spec, bounds)
        assert v == permutation_verdict(f, bounds)
        assert v.evidence.is_permutation == (v.status is Status.INJECTIVE)
        assert (v.evidence.exhaustive is None) == (f.spec.order > bounds.scalar_cap)


def test_non_permutation_witness_is_scanned_and_verified_once(monkeypatch):
    from evainject import engine

    calls = []

    def counting(f, lhs, rhs):
        calls.append((lhs, rhs))
        return verify_witness(f, lhs, rhs)

    monkeypatch.setattr(engine, "verify_witness", counting)
    v = scalar_injectivity(U(F7, [0, 0, 0, 1]), F7)
    assert v.status is Status.NOT_INJECTIVE
    assert calls == [(v.witness.lhs, v.witness.rhs)]


def test_frobenius_is_permutation_but_fails_simple_roots():
    for p in (2, 3, 5):
        spec = PrimeField(p)
        xp = UniPoly.x(spec) ** p
        assert scalar_injectivity(xp).status is Status.INJECTIVE
        report = simple_roots_condition(xp)
        assert not report.holds
        assert report.char_p_degenerate
        assert report.multiplicity_k == p


def test_simple_roots_examples():
    r = simple_roots_condition(U(QQ, [0, 0, 1]))
    assert (r.holds, r.violating_b, r.lam, r.multiplicity_k) == \
        (False, QQ.zero(), QQ.zero(), 2)
    assert simple_roots_condition(U(QQ, [0, 1, 0, 1])).holds
    r = simple_roots_condition(U(F5, [0, 2, 0, 1]))
    assert not r.holds
    assert (r.violating_b, r.lam, r.multiplicity_k) == (F5.element(1), F5.element(3), 2)


def _multiplicity_inputs(rng):
    """Seeded f over F_p, F4, F9 and Q whose derivative has a root in the
    field: random f over the finite fields, f = g(x^p) with f' = 0, and
    over Q f = c (x - r)^k g + t with k >= 2."""
    for spec in (F2, F3, F5, F7, F4, ExtensionField(3, [1, 0, 1])):
        elements, p = list(spec.elements()), spec.characteristic
        for _ in range(40):
            g = [rng.choice(elements) for _ in range(rng.randint(1, 6))] + [spec.one()]
            yield UniPoly(spec, g)
            spread = [spec.zero()] * (p * (len(g) - 1) + 1)
            spread[::p] = g
            yield UniPoly(spec, spread)
    for _ in range(60):
        r, t = Fraction(rng.randint(-5, 5), rng.randint(1, 3)), rng.randint(-3, 3)
        g = U(QQ, [Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(3)] + [1])
        yield U(QQ, [-r, 1]) ** rng.randint(2, 4) * g.scale(QQ.element(rng.randint(1, 3))) \
            + U(QQ, [t])


def test_simple_roots_multiplicity_matches_divmod_reference():
    degenerate = failing = 0
    for f in _multiplicity_inputs(random.Random(41)):
        report = simple_roots_condition(f)
        if not report.holds:
            b, lam = report.violating_b, report.lam
            expected = divmod_root_multiplicity(f - UniPoly.constant(f.spec, lam), b)
            assert report.multiplicity_k == expected >= 2, (f, b)
            failing += 1
            degenerate += report.char_p_degenerate
    assert failing > 300 and degenerate >= 200


def test_simple_roots_validation():
    with pytest.raises(ConstantPolynomialError):
        simple_roots_condition(U(QQ, [3]))
    for tag in (ACF, RCF):
        with pytest.raises(SpecMismatchError, match="needs a concrete field"):
            simple_roots_condition(U(QQ, [0, 1, 1]), tag)
    with pytest.raises(SpecMismatchError, match="must match the coefficient field"):
        simple_roots_condition(U(QQ, [0, 1, 1]), F5)


def test_oracle_agreement_small_fields():
    for spec in (F2, F3, F5):
        for f in all_polys(spec, 3):
            fast = scalar_injectivity(f)
            oracle = brute_force_scalar(f)
            assert fast.status == oracle.status
            if oracle.status is Status.NOT_INJECTIVE:
                _recheck(f, oracle)


def test_brute_force_examples():
    assert brute_force_scalar(U(F2, [0, 0, 0, 1])).status is Status.INJECTIVE
    with pytest.raises(EnumerationCapExceededError):
        brute_force_scalar(U(PrimeField(53), [0, 0, 1]))
    assert brute_force_scalar(U(PrimeField(53), [0, 0, 1]),
                              Bounds(scalar_cap=60)).status is Status.NOT_INJECTIVE


def test_degree_one_sufficiency_randomized():
    rng = random.Random(77)
    for spec in (F2, F3, F5, F4):
        for _ in range(20):
            a = spec.element_from_index(rng.randrange(1, spec.order))
            b = spec.element_from_index(rng.randrange(spec.order))
            f = UniPoly(spec, [b, a])
            assert brute_force_scalar(f).status is Status.INJECTIVE
