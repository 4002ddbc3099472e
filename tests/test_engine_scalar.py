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
from evainject.engine import permutation_verdict
from evainject.errors import (
    ConstantPolynomialError,
    EnumerationCapExceededError,
    NotAWitnessError,
    SpecMismatchError,
)

from oracles import all_polys, divmod_root_multiplicity, elements_built, image_is_injective

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
