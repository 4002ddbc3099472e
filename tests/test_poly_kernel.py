"""The one F[x] kernel (fields._poly_*) against independent oracles.

Over F_p and Q, long division, the monic gcd, the extended gcd and modular
powers must equal the installed sympy's div, gcd, gcdex and rem of a
power.  Over F4, F8 and F9, where sympy has no counterpart, they must equal
long division and Euclid on boxed FieldElements (tests/oracles.py).  Over
every field the results must satisfy a = q*b + r with deg r < deg b, and
s*a + t*b = g with g monic and dividing both.  Distinct-degree splitting,
which decides whether an extension modulus is irreducible, must agree with
sympy's irreducibility test on every monic polynomial of small degree over
small primes.  The fold modulo x^q - x must keep every value on F_q.
"""
import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import boxed_divmod, boxed_gcd, boxed_mul, boxed_uni_eval, boxed_xgcd, field_elements

from evainject import QQ, ExtensionField, FieldElement, PrimeField, UniPoly
from evainject.errors import InvalidFieldError
from evainject.fields import (
    _poly_distinct_degree,
    _poly_divmod,
    _poly_fold,
    _poly_gcd,
    _poly_powmod,
    _poly_trim,
    _poly_xgcd,
)

BOUNDED = settings(max_examples=60, deadline=None, derandomize=True, database=None)
X = sympy.Symbol("x")
SYMPY_FIELDS = [PrimeField(p) for p in (2, 3, 5, 7, 53)] + [QQ]
EXTENSIONS = [ExtensionField.from_order(q) for q in (4, 8, 9)]


def _entries(spec):
    if spec is QQ:
        return st.fractions(min_value=-9, max_value=9, max_denominator=4)
    return st.integers(0, spec.order - 1).map(spec._value_from_index)


def _poly(spec, values):
    return UniPoly(spec, [FieldElement(spec, v) for v in values])


def _values(f):
    return [c.value for c in f.coeffs]


@st.composite
def operands(draw, fields):
    """(spec, a, b) as trimmed value lists, b of degree >= 0 and, half the
    time, both multiplied by a common factor of degree >= 1."""
    spec = draw(st.sampled_from(fields))
    entries = _entries(spec)
    nonzero = entries.filter(lambda v: v != spec.zero().value)
    a = _poly(spec, draw(st.lists(entries, max_size=8)))
    b = _poly(spec, draw(st.lists(entries, max_size=5)) + [draw(nonzero)])
    if draw(st.booleans()):
        common = _poly(spec, draw(st.lists(entries, min_size=1, max_size=3)) + [draw(nonzero)])
        a, b = boxed_mul(a, common), boxed_mul(b, common)
    return spec, _values(a), _values(b)


def _to_sympy(spec, values):
    if spec is QQ:
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in values[::-1]]
                          or [0], X, domain=sympy.QQ)
    return sympy.Poly(values[::-1] or [0], X, modulus=spec.characteristic)


def _from_sympy(spec, poly):
    if spec is QQ:
        coeffs = [Fraction(int(c.p), int(c.q)) for c in poly.all_coeffs()]
    else:
        coeffs = [int(c) % spec.characteristic for c in poly.all_coeffs()]
    return _poly_trim(coeffs[::-1], spec.zero().value)


@BOUNDED
@given(operands(SYMPY_FIELDS))
def test_division_and_gcds_match_sympy(operand):
    spec, a, b = operand
    fa, fb = _to_sympy(spec, a), _to_sympy(spec, b)
    q, r = _poly_divmod(spec, a, b)
    assert [q, r] == [_from_sympy(spec, v) for v in sympy.div(fa, fb)]
    assert _poly_gcd(spec, a, b) == _from_sympy(spec, sympy.gcd(fa, fb))
    s, t, g = sympy.gcdex(fa, fb)
    assert list(_poly_xgcd(spec, a, b)) == [_from_sympy(spec, v) for v in (g, s, t)]


@BOUNDED
@given(operands(SYMPY_FIELDS), st.integers(0, 9))
def test_powmod_matches_sympy(operand, e):
    spec, a, mod = operand
    if len(mod) < 2:
        return
    expected = sympy.rem(_to_sympy(spec, a) ** e, _to_sympy(spec, mod))
    assert _poly_powmod(spec, a, e, mod) == _from_sympy(spec, expected)


@BOUNDED
@given(operands(EXTENSIONS))
def test_extension_kernel_matches_boxed_euclid(operand):
    spec, a, b = operand
    pa, pb = _poly(spec, a), _poly(spec, b)
    assert [_poly(spec, v) for v in _poly_divmod(spec, a, b)] == list(boxed_divmod(pa, pb))
    assert _poly(spec, _poly_gcd(spec, a, b)) == boxed_gcd(pa, pb)
    assert [_poly(spec, v) for v in _poly_xgcd(spec, a, b)] == list(boxed_xgcd(pa, pb))


@BOUNDED
@given(operands(SYMPY_FIELDS + EXTENSIONS))
def test_division_and_bezout_identities(operand):
    spec, a, b = operand
    pa, pb = _poly(spec, a), _poly(spec, b)
    q, r = (_poly(spec, v) for v in _poly_divmod(spec, a, b))
    assert boxed_mul(q, pb) + r == pa
    assert r.degree < pb.degree
    g, s, t = (_poly(spec, v) for v in _poly_xgcd(spec, a, b))
    assert boxed_mul(s, pa) + boxed_mul(t, pb) == g
    assert g.is_monic()
    assert boxed_divmod(pa, g)[1].is_zero() and boxed_divmod(pb, g)[1].is_zero()
    assert _poly(spec, _poly_gcd(spec, a, b)) == g


@pytest.mark.parametrize("p, degrees", [(2, (2, 3, 4)), (3, (2, 3, 4)),
                                        (5, (2, 3)), (7, (2, 3))])
def test_distinct_degree_irreducibility_matches_sympy_on_every_small_monic(p, degrees):
    for k in degrees:
        for low in itertools.product(range(p), repeat=k):
            m = list(low) + [1]
            irreducible = sympy.Poly(m[::-1], X, modulus=p).is_irreducible
            assert (_poly_distinct_degree(PrimeField(p), m) == [(m, k)]) == irreducible, m
            if irreducible:
                assert ExtensionField(p, m).order == p ** k
            else:
                with pytest.raises(InvalidFieldError):
                    ExtensionField(p, m)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 13, 16, 25, 27])
def test_fold_keeps_every_value_on_the_field(q):
    spec = PrimeField(q) if q in (2, 3, 5, 13) else ExtensionField.from_order(q)
    rng = random.Random(q)
    for _ in range(8):
        degree = rng.randrange(3 * q)
        values = [spec._value_from_index(rng.randrange(q)) for _ in range(degree)]
        values.append(spec._value_from_index(rng.randrange(1, q)))
        folded = _poly_fold(spec, values)
        assert len(folded) <= q and folded == _poly_trim(list(folded), spec.zero().value)
        if degree < q:
            assert folded == values
        f, g = _poly(spec, values), _poly(spec, folded)
        assert all(boxed_uni_eval(f, c) == boxed_uni_eval(g, c) for c in field_elements(spec))
