import random
from fractions import Fraction

import pytest

from evainject import (
    QQ,
    ExtensionField,
    PrimeField,
    UniPoly,
    factor_finite,
    factor_profile,
    factor_rationals,
    squarefree_decomposition,
)
from evainject.errors import ConstantPolynomialError, DegreeCapExceededError
from evainject.polynomials import factor as factor_module

from oracles import all_polys, trial_division_factor

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F4 = ExtensionField(2, [1, 1, 1])
F9 = ExtensionField(3, [1, 0, 1])

U = UniPoly.from_ints


def _reassemble(spec, unit, factors):
    out = UniPoly.constant(spec, unit)
    for q, e in factors:
        out = out * q ** e
    return out


def test_factor_finite_examples():
    unit, fac = factor_finite(U(F2, [1, 0, 1]))
    assert unit == F2.one()
    assert fac == ((U(F2, [1, 1]), 2),)

    _, fac = factor_finite(U(F3, [0, -1, 0, 1]))
    assert [(str(q), e) for q, e in fac] == [("x", 1), ("x+1", 1), ("x+2", 1)]

    _, fac = factor_finite(U(F5, [1, 0, 1]))
    assert [(str(q), e) for q, e in fac] == [("x+2", 1), ("x+3", 1)]


def test_factor_finite_rejects_constants():
    with pytest.raises(ConstantPolynomialError):
        factor_finite(U(F2, [1]))


def test_factor_finite_against_trial_division():
    # exhaustive sweep: every monic polynomial of degree <= 4 over F2 and F3
    for spec in (F2, F3):
        for f in all_polys(spec, 4):
            if f.degree < 1 or not f.is_monic():
                continue
            unit, fac = factor_finite(f)
            oracle_unit, oracle_fac = trial_division_factor(f)
            assert unit == oracle_unit
            assert dict(fac) == oracle_fac
            assert _reassemble(spec, unit, fac) == f


def test_factor_finite_extension_reconstruction():
    rng = random.Random(11)
    for spec in (F4, F9):
        for _ in range(40):
            deg = rng.randint(1, 5)
            coeffs = [spec.element_from_index(rng.randrange(spec.order))
                      for _ in range(deg)] + [spec.one()]
            f = UniPoly(spec, coeffs)
            unit, fac = factor_finite(f)
            assert _reassemble(spec, unit, fac) == f
            for q, _ in fac:
                assert q.is_monic()


def test_factor_finite_deterministic_across_seeds(monkeypatch):
    # the split seed is private because no value of it changes the output
    cases = [U(F5, [2, 3, 0, 1, 1, 2]), U(F5, [4, 0, 0, 0, 1])]  # x^4-1: four linear factors
    outputs = []
    for seed in (1, 999):
        monkeypatch.setattr(factor_module, "_SPLIT_SEED", seed)
        outputs.append([factor_finite(f) for f in cases])
    assert outputs[0] == outputs[1]


def test_factor_rationals_examples():
    _, fac = factor_rationals(U(QQ, [2, 0, 0, 1]))
    assert fac == ((U(QQ, [2, 0, 0, 1]), 1),)

    _, fac = factor_rationals(U(QQ, [0, 2, 0, 0, 1]))
    assert [(str(q), e) for q, e in fac] == [("x", 1), ("x^3+2", 1)]

    _, fac = factor_rationals(U(QQ, [-1, 0, 1]))
    assert [(str(q), e) for q, e in fac] == [("x-1", 1), ("x+1", 1)]


def test_factor_rationals_units_and_fractions():
    # 6x^2 - 6 = 6 (x-1)(x+1)
    unit, fac = factor_rationals(U(QQ, [-6, 0, 6]))
    assert unit == QQ.element(6)
    assert [(str(q), e) for q, e in fac] == [("x-1", 1), ("x+1", 1)]
    # x^2 - 1/4 = (x-1/2)(x+1/2)
    unit, fac = factor_rationals(U(QQ, [Fraction(-1, 4), 0, 1]))
    assert [(str(q), e) for q, e in fac] == [("x-1/2", 1), ("x+1/2", 1)]


def test_factor_rationals_multiplicities():
    f = U(QQ, [-1, 1]) ** 3 * U(QQ, [1, 0, 1]) ** 2 * U(QQ, [5, 1])
    unit, fac = factor_rationals(f)
    assert dict((str(q), e) for q, e in fac) == {"x-1": 3, "x^2+1": 2, "x+5": 1}
    assert _reassemble(QQ, unit, fac) == f


def test_factor_rationals_irreducible_quartic():
    # x^4 + 1 has no factor of degree <= 2 over Q
    _, fac = factor_rationals(U(QQ, [1, 0, 0, 0, 1]))
    assert fac == ((U(QQ, [1, 0, 0, 0, 1]), 1),)


def test_factor_rationals_random_reconstruction():
    rng = random.Random(12)
    for _ in range(60):
        deg = rng.randint(1, 6)
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(deg)]
        coeffs.append(Fraction(rng.choice([1, 2, 3, -1])))
        f = U(QQ, coeffs)
        unit, fac = factor_rationals(f)
        assert _reassemble(QQ, unit, fac) == f
        for q, _ in fac:
            assert q.is_monic()


def test_factor_rationals_degree_cap():
    with pytest.raises(DegreeCapExceededError):
        factor_rationals(UniPoly.x(QQ) ** 17)


def test_squarefree_decomposition():
    f = U(QQ, [-1, 1]) ** 2 * U(QQ, [1, 1])
    parts = squarefree_decomposition(f)
    assert [(str(s), m) for s, m in parts] == [("x+1", 1), ("x-1", 2)]
    out = UniPoly.constant(QQ, QQ.one())
    for s, m in parts:
        out = out * s ** m
    assert out == f.monic()


def test_factor_profile_examples():
    p = factor_profile(U(QQ, [7, 2, 0, 0, 1]))
    assert (str(p.c), p.m_mult, str(p.h), p.d, str(p.chosen_q)) == \
        ("7", 1, "x^3+2", 3, "x^3+2")

    p = factor_profile(U(QQ, [1, 0, 1]))
    assert (str(p.c), p.m_mult, str(p.h), p.d, p.chosen_q) == ("1", 2, "1", None, None)

    p = factor_profile(U(QQ, [0, 1, 0, 1]))
    assert (str(p.c), p.m_mult, str(p.h), p.d, str(p.chosen_q)) == \
        ("0", 1, "x^2+1", 2, "x^2+1")


def test_factor_profile_finite_and_reconstruction():
    rng = random.Random(13)
    for spec in (F2, F3, F5):
        for _ in range(30):
            deg = rng.randint(1, 5)
            coeffs = [spec.element_from_index(rng.randrange(spec.order))
                      for _ in range(deg + 1)]
            f = UniPoly(spec, coeffs)
            if f.degree < 1:
                continue
            p = factor_profile(f)
            rebuilt = p.h.shift_up(p.m_mult) + UniPoly.constant(spec, p.c)
            assert rebuilt == f
            if p.factors:
                assert p.d == min(q.degree for q, _ in p.factors)
                assert p.chosen_q.degree == p.d


def test_factor_profile_chosen_q_tiebreak():
    # h = (x+1)(x+2): two degree-1 factors; the canonically least is chosen
    f = U(F5, [0, 2, 3, 1])  # x * (x^2+3x+2) = x(x+1)(x+2)
    p = factor_profile(f)
    assert p.d == 1
    assert str(p.chosen_q) == "x+1"
