import random
from fractions import Fraction

import pytest
from oracles import boxed_powmod, elements_built

from evainject import (
    QQ,
    ExtensionField,
    MultiPoly,
    PrimeField,
    UniPoly,
    extended_gcd,
    gcd_poly,
    rational_roots,
    zero_multiplicity,
)
from evainject.errors import (
    ArityMismatchError,
    BothZeroError,
    DivisionByZeroError,
    SpecMismatchError,
    ZeroPolynomialError,
)
from evainject.fields import _poly_powmod

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)
F9 = ExtensionField(3, [1, 0, 1])

U = UniPoly.from_ints


def _values(f):
    return [c.value for c in f.coeffs]


def _random_poly(spec, rng, max_deg):
    deg = rng.randint(0, max_deg)
    if spec.is_finite:
        coeffs = [spec.element_from_index(rng.randrange(spec.order))
                  for _ in range(deg + 1)]
    else:
        coeffs = [spec.element(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                  for _ in range(deg + 1)]
    return UniPoly(spec, coeffs)


def test_eval_examples():
    assert U(QQ, [1, 0, 1]).eval(QQ.element(2)) == QQ.element(5)
    assert U(QQ, [0, 2, 0, 0, 1]).eval(QQ.zero()) == QQ.zero()
    assert U(F7, [0, 0, 0, 1]).eval(F7.element(2)) == F7.element(1)


def test_eval_spec_mismatch():
    with pytest.raises(SpecMismatchError):
        U(QQ, [1, 1]).eval(F5.element(1))


def test_derivative_examples():
    assert U(QQ, [0, 2, 0, 0, 1]).derivative() == U(QQ, [2, 0, 0, 4])
    assert U(F3, [0, 1, 0, 1]).derivative() == U(F3, [1])
    for p in (2, 3, 5):
        spec = PrimeField(p)
        xp = UniPoly.x(spec) ** p
        assert xp.derivative().is_zero()


def test_gcd_examples():
    assert gcd_poly(U(QQ, [-1, 0, 1]), U(QQ, [-1, 1])) == U(QQ, [-1, 1])
    assert gcd_poly(U(QQ, [2, 0, 0, 1]), U(QQ, [0, 0, 1])).degree == 0
    f = U(QQ, [2, 4])
    assert gcd_poly(f, f) == f.monic()
    with pytest.raises(BothZeroError):
        gcd_poly(UniPoly.zero(QQ), UniPoly.zero(QQ))


def test_extended_gcd_example():
    g, u, v = extended_gcd(U(QQ, [0, 1]), U(QQ, [-1, 1]))
    assert g == U(QQ, [1])
    assert u == U(QQ, [1]) and v == U(QQ, [-1])


def test_extended_gcd_random_pairs():
    rng = random.Random(5)
    for spec in (F2, F3, F5, QQ):
        for _ in range(60):
            a = _random_poly(spec, rng, 5)
            b = _random_poly(spec, rng, 5)
            if a.is_zero() and b.is_zero():
                continue
            g, u, v = extended_gcd(a, b)
            assert u * a + v * b == g
            assert g.is_monic()
            if not (b % g if not b.is_zero() else b).is_zero():
                pass  # g divides both; nothing more to pin
            if not b.is_zero() and not (a % b).is_zero() and g.degree < b.degree:
                assert u.degree < b.degree - g.degree


def test_divmod_random():
    rng = random.Random(6)
    for spec in (F2, F5, QQ):
        for _ in range(80):
            a = _random_poly(spec, rng, 7)
            b = _random_poly(spec, rng, 4)
            if b.is_zero():
                with pytest.raises(DivisionByZeroError):
                    divmod(a, b)
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.is_zero() or r.degree < b.degree


def test_unipoly_arithmetic_boxes_only_its_output(monkeypatch):
    # polynomials store canonical values and their arithmetic runs on them:
    # products, division and gcds build no FieldElement at all
    rng = random.Random(12)
    for spec in (PrimeField(53), QQ):
        a = U(spec, [1] + [rng.randint(-9, 9) for _ in range(11)] + [3])
        b = U(spec, [1] * 7 + [2])
        for call in (lambda: (a * b,), lambda: divmod(a, b),
                     lambda: (gcd_poly(a, b),), lambda: extended_gcd(a, b)):
            call()  # the spec's cached zero and one exist from here on
            _, built = elements_built(monkeypatch, call)
            assert built == 0


def test_zero_multiplicity():
    assert zero_multiplicity(U(QQ, [0, 2, 0, 0, 1])) == (1, U(QQ, [2, 0, 0, 1]))
    assert zero_multiplicity(U(QQ, [0, 0, 0, 1])) == (3, U(QQ, [1]))
    assert zero_multiplicity(U(QQ, [1, 0, 1])) == (0, U(QQ, [1, 0, 1]))
    with pytest.raises(ZeroPolynomialError):
        zero_multiplicity(UniPoly.zero(QQ))


def test_zero_multiplicity_roundtrip():
    rng = random.Random(8)
    for _ in range(100):
        f = _random_poly(QQ, rng, 6)
        if f.degree < 1:
            continue
        g = f - UniPoly.constant(QQ, f.constant_term)
        if g.is_zero():
            continue
        m, h = zero_multiplicity(g)
        assert h.shift_up(m) == g
        assert not h.constant_term.is_zero()


def test_rational_roots():
    assert rational_roots(U(QQ, [-2, 1])) == [Fraction(2)]
    assert rational_roots(U(QQ, [0, -1, 0, 1])) == [Fraction(-1), Fraction(0), Fraction(1)]
    assert rational_roots(U(QQ, [2, 0, 0, 1])) == []
    assert rational_roots(U(QQ, [1, 0, 1])) == []
    # 6x^2 - x - 1 = (2x - 1)(3x + 1)
    assert rational_roots(U(QQ, [-1, -1, 6])) == [Fraction(-1, 3), Fraction(1, 2)]


def test_powmod_matches_pow():
    # the value-level powmod of the F[x] kernel, against e boxed products
    # and divisions (f ** e % mod would run on the kernel itself)
    rng = random.Random(9)
    for spec in (F5, F9):
        for _ in range(40):
            f = _random_poly(spec, rng, 4)
            mod = _random_poly(spec, rng, 3)
            if mod.degree < 1:
                continue
            e = rng.randint(0, 12)
            assert _poly_powmod(spec, _values(f), e, _values(mod)) == _values(
                boxed_powmod(f, e, mod))


def test_printer_basics():
    assert str(U(QQ, [7, 2, 0, 0, 1])) == "x^4+2*x+7"
    assert str(U(QQ, [0])) == "0"
    assert str(U(QQ, [Fraction(-3, 4), 1])) == "x-3/4"
    assert U(QQ, [7, 2, 0, 0, 1]).format(descending=False) == "7+2*x+x^4"


def test_printer_brackets_extension_coefficients():
    # the generator prints as x, like the polynomial's variable, so a
    # coefficient outside the prime field goes in brackets: x + a is not x+x
    a = F9.element([0, 1])
    assert str(UniPoly(F9, [a, F9.one()])) == "x+[x]"
    assert str(UniPoly(F9, [F9.zero(), a])) == "[x]*x"
    assert str(UniPoly(F9, [a + 1, F9.element(2), 2 * a + 1])) == "[2*x+1]*x^2+2*x+[x+1]"
    assert str(MultiPoly(F9, 2, {(1, 1): a, (0, 0): F9.element(2)})) == "[x]*x1*x2+2"
    assert str(U(F9, [1, 2, 1])) == str(U(F3, [1, 2, 1])) == "x^2+2*x+1"


def test_multipoly_eval_examples():
    f = MultiPoly.from_ints(F3, 2, {(1, 0): 1, (0, 1): 1})
    assert f.eval((F3.element(1), F3.element(2))) == F3.zero()
    g = MultiPoly.from_ints(QQ, 2, {(1, 1): 1})
    assert g.eval((QQ.zero(), QQ.element(17))) == QQ.zero()
    h = MultiPoly.from_ints(QQ, 2, {(2, 0): 1, (0, 2): 1})
    assert h.eval((QQ.element(3), QQ.element(4))) == QQ.element(25)


def test_multipoly_arity_checks():
    f = MultiPoly.from_ints(QQ, 2, {(1, 0): 1})
    with pytest.raises(ArityMismatchError):
        f.eval((QQ.one(),))
    with pytest.raises(ArityMismatchError):
        MultiPoly.from_ints(QQ, 2, {(1, 0, 0): 1})


def test_multipoly_ring_ops():
    x1 = MultiPoly.variable(QQ, 2, 0)
    x2 = MultiPoly.variable(QQ, 2, 1)
    f = (x1 + x2) * (x1 - x2)
    assert f == x1 * x1 - x2 * x2
    assert f.total_degree() == 2
    assert str(x1 * x2 + x1) == "x1*x2+x1"
