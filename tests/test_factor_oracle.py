"""Factoring against independent oracles.

factor_finite over F_p and factor_rationals over Q are compared with the
installed sympy's factor_list (of a Poly with modulus=p, and over QQ) on
hypothesis-drawn polynomials, squares of random factors mixed in so that
multiplicities above one and characteristic-p derivatives that vanish both
occur.  Over F4, F8 and F9, where sympy has no counterpart, the factors
must rebuild the input, and those of degree 2 or 3 must have no root in the
field (so they are irreducible).  factor_profile is pinned on a fixed list.
rational_roots is compared with sympy's roots over QQ on seeded
polynomials up to degree about 40 with repeated roots, roots near 10^20 and
denominators, and with the divisor test of tests/oracles.py on small
coefficients; its squarefree fallback and a degree-200 input are pinned.
The rest of the Q[x] path is compared with sympy on seeded products of
repeated rational factors up to degree 20: the Z[x] gcd and squarefree part
with sympy's gcd and sqf_part over ZZ, Sturm counts with count_roots, and
the monotonicity test with the odd-multiplicity parts of sqf_list; so are
seeded sparse polynomials with coefficients from 10^20 to 10^21 and
negative leading coefficients, whose Sturm chains drop degrees unevenly.
The roots in F_q (factor._fq_roots) must be those a plain enumeration of
F_q finds by boxed Horner, in the same order, over every F_p with p <= 61,
every built-in F_{p^k} and two explicit moduli, on seeded polynomials up to
degree 2q: repeated roots, constants, zero and multiples of x^q - x.
"""
import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from evainject import (
    QQ,
    ExtensionField,
    PrimeField,
    UniPoly,
    factor_finite,
    factor_profile,
    factor_rationals,
    is_strictly_monotone,
    rational_roots,
    sturm_real_roots,
)
from evainject.cli import parse_field, parse_poly
from evainject.fields import BUILTIN_MODULI
from evainject.polynomials.factor import (
    _fq_roots,
    _good_prime,
    _zx_from_rationals,
    _zx_gcd,
    _zx_squarefree_part,
)
from oracles import boxed_uni_eval, divisor_rational_roots, field_elements

BOUNDED = settings(max_examples=60, deadline=None, derandomize=True, database=None)
X = sympy.Symbol("x")


def _sympy_expr(f: UniPoly):
    return sum(sympy.Rational(c.value.numerator, c.value.denominator) * X ** i
               for i, c in enumerate(f.coeffs))


@st.composite
def _factored(draw, spec, entries, nonzero, p_th_power):
    """A drawn f, times the square of a drawn factor or, over F_p with small
    p, times the p-th power of one (whose derivative vanishes), or not."""
    def draw_poly(max_size):
        return UniPoly.from_ints(spec, draw(st.lists(entries, max_size=max_size))
                                 + [draw(nonzero)])
    f = draw_poly(9)
    power = draw(st.sampled_from([1, 2] + ([spec.characteristic] if p_th_power else [])))
    return f * draw_poly(2) ** power if power > 1 else f


@st.composite
def finite_inputs(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 43]))
    return draw(_factored(PrimeField(p), st.integers(0, p - 1), st.integers(1, p - 1), p <= 7))


rational_entries = st.fractions(min_value=-9, max_value=9, max_denominator=4)
rational_inputs = _factored(QQ, rational_entries, rational_entries.filter(bool), False)


def _as_dict(factors):
    return {tuple(c.value for c in q.coeffs): e for q, e in factors}


@BOUNDED
@given(finite_inputs())
def test_factor_finite_matches_sympy(f):
    p = f.spec.characteristic
    if f.degree < 1:
        return
    unit, factors = factor_finite(f)
    _, expected = sympy.Poly(_sympy_expr(f), X, modulus=p).factor_list()
    oracle = {}
    for g, e in expected:
        ints = [int(c) % p for c in sympy.Poly(g, X).all_coeffs()[::-1]]
        inv = pow(ints[-1], -1, p)
        oracle[tuple(c * inv % p for c in ints)] = e
    assert _as_dict(factors) == oracle
    assert unit == f.leading


@BOUNDED
@given(rational_inputs)
def test_factor_rationals_matches_sympy(f):
    if f.degree < 1:
        return
    unit, factors = factor_rationals(f)
    _, expected = sympy.factor_list(_sympy_expr(f), X)
    oracle = {}
    for g, e in expected:
        ints = [int(c) for c in sympy.Poly(g, X).all_coeffs()[::-1]]
        oracle[tuple(Fraction(c, ints[-1]) for c in ints)] = e
    assert _as_dict(factors) == oracle
    assert unit == f.leading


@BOUNDED
@given(st.sampled_from([ExtensionField.from_order(q) for q in (4, 8, 9)]), st.data())
def test_factor_finite_extension_factors_are_irreducible(spec, data):
    indices = data.draw(st.lists(st.integers(0, spec.order - 1), min_size=2, max_size=7))
    f = UniPoly(spec, [spec.element_from_index(i) for i in indices])
    if f.degree < 1:
        return
    if data.draw(st.booleans()):
        f = f * f
    unit, factors = factor_finite(f)
    rebuilt = UniPoly.constant(spec, unit)
    for q, e in factors:
        rebuilt = rebuilt * q ** e
        assert q.is_monic()
        if 2 <= q.degree <= 3:
            assert not any(q.eval(a).is_zero() for a in spec.elements())
    assert rebuilt == f
    assert len({q for q, _ in factors}) == len(factors)


# (field, f) -> (c, m, h, unit, d, chosen_q, factors), as printed
PROFILES = [
    ("Q", "x^4+2*x", ("0", 1, "x^3+2", "1", 3, "x^3+2", [("x^3+2", 1)])),
    ("Q", "x^9-40*x^7+352*x^5-960*x^3+576*x",
     ("0", 1, "x^8-40*x^6+352*x^4-960*x^2+576", "1", 8, "x^8-40*x^6+352*x^4-960*x^2+576",
      [("x^8-40*x^6+352*x^4-960*x^2+576", 1)])),
    ("Q", "3*x^16+7*x^15+5*x^14+2*x^13+x^11-4*x^10-8*x^9-7*x^8+3",
     ("3", 8, "3*x^8+7*x^7+5*x^6+2*x^5+x^3-4*x^2-8*x-7", "3", 8,
      "x^8+7/3*x^7+5/3*x^6+2/3*x^5+1/3*x^3-4/3*x^2-8/3*x-7/3",
      [("x^8+7/3*x^7+5/3*x^6+2/3*x^5+1/3*x^3-4/3*x^2-8/3*x-7/3", 1)])),
    ("Q", "x^7-x", ("0", 1, "x^6-1", "1", 1, "x-1",
                    [("x-1", 1), ("x+1", 1), ("x^2-x+1", 1), ("x^2+x+1", 1)])),
    ("Q", "2*(x^2-1)^3*(x+3)+5",
     ("-1", 1, "2*x^6+6*x^5-6*x^4-18*x^3+6*x^2+18*x-2", "2", 6,
      "x^6+3*x^5-3*x^4-9*x^3+3*x^2+9*x-1", [("x^6+3*x^5-3*x^4-9*x^3+3*x^2+9*x-1", 1)])),
    ("Q", "1/2*x^5-3/4*x^3", ("0", 3, "1/2*x^2-3/4", "1/2", 2, "x^2-3/2", [("x^2-3/2", 1)])),
    ("F2", "x^8+x^4+x^2+x", ("0", 1, "x^7+x^3+x+1", "1", 1, "x+1",
                             [("x+1", 1), ("x^2+x+1", 1), ("x^4+x+1", 1)])),
    ("F3", "x^9+x^3+x+1", ("1", 1, "x^8+x^2+1", "1", 1, "x+1",
                           [("x+1", 1), ("x+2", 1), ("x^3+2*x+1", 1), ("x^3+2*x+2", 1)])),
    ("F5", "(x^2+2)^5*(x+1)^2*x", ("0", 1, "x^12+2*x^11+x^10+2*x^2+4*x+2", "1", 1, "x+1",
                                   [("x+1", 2), ("x^2+2", 5)])),
    ("F53", "x^16+3*x^9+5*x+7",
     ("7", 1, "x^15+3*x^8+5", "1", 1, "x+38",
      [("x+38", 1), ("x^14+15*x^13+13*x^12+36*x^11+10*x^10+44*x^9+24*x^8+45*x^7+39*x^6"
                     "+2*x^5+30*x^4+26*x^3+19*x^2+20*x+35", 1)])),
    ("F4", "x^3+x^2+x", ("0", 1, "x^2+x+1", "1", 1, "x+[x]", [("x+[x]", 1), ("x+[x+1]", 1)])),
    ("F8", "x^7+x^3+x", ("0", 1, "x^6+x^2+1", "1", 1, "x+[x]",
                         [("x+[x]", 2), ("x+[x^2]", 2), ("x+[x^2+x]", 2)])),
    ("F9", "x^8+x^4+2*x^2+x", ("0", 1, "x^7+x^3+2*x+1", "1", 1, "x+1",
                               [("x+1", 4), ("x^3+2*x^2+x+1", 1)])),
    ("F16", "x^15+x", ("0", 1, "x^14+1", "1", 1, "x+1",
                       [("x+1", 2), ("x^3+x^2+1", 2), ("x^3+x+1", 2)])),
    ("F27", "(x^3+x+1)^3*x^2+2", ("2", 2, "x^9+x^3+1", "1", 1, "x+2",
                                  [("x+2", 3), ("x^2+x+2", 3)])),
]


def test_factor_profile_fixed_expectations():
    for field, text, expected in PROFILES:
        p = factor_profile(parse_poly(text, parse_field(field)))
        got = (str(p.c), p.m_mult, str(p.h), str(p.unit), p.d, str(p.chosen_q),
               [(str(q), e) for q, e in p.factors])
        assert got == expected, (field, text)


def _with_roots(cofactor, roots):
    """cofactor times (v x - u)^e for each (u, v, e) in roots."""
    f = UniPoly.from_ints(QQ, cofactor)
    for u, v, e in roots:
        f = f * UniPoly.from_ints(QQ, [-u, v]) ** e
    return f


def test_rational_roots_match_sympy():
    rng = random.Random(19)
    for _ in range(25):
        cofactor = [Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                    for _ in range(rng.randint(0, 30))] + [rng.randint(1, 9)]
        roots = [(rng.choice([rng.randint(-50, 50), rng.randint(-10 ** 20, 10 ** 20)]),
                  rng.randint(1, 7), rng.randint(1, 2)) for _ in range(rng.randint(0, 3))]
        f = _with_roots(cofactor, roots) * UniPoly.x(QQ) ** rng.randint(0, 2)
        if f.degree >= 1:
            dense = [sympy.Rational(c.numerator, c.denominator) for c in reversed(f.values)]
            expected = sympy.Poly(dense, X, domain="QQ").ground_roots()
            assert rational_roots(f) == sorted(Fraction(int(r.p), int(r.q)) for r in expected)


def test_rational_roots_match_the_divisor_test():
    rng = random.Random(23)
    for _ in range(1000):
        cofactor = [Fraction(rng.randint(-5, 5), rng.randint(1, 2))
                    for _ in range(rng.randint(0, 3))] + [rng.randint(1, 4)]
        roots = [(rng.randint(-6, 6), rng.randint(1, 3), rng.randint(1, 2))
                 for _ in range(rng.randint(0, 2))]
        f = _with_roots(cofactor, roots)
        if f.degree >= 1:
            assert rational_roots(f) == divisor_rational_roots(f), f


def test_rational_roots_squarefree_fallback():
    # s is squarefree modulo no prime, so no prime below 50 is good and the
    # roots come from s / gcd(s, s')
    f = parse_poly("(x-1)^2*(3*x+2)^3*(x^2+5)", QQ)
    assert _good_prime(_zx_from_rationals(f), 50) is None
    assert rational_roots(f) == [Fraction(-2, 3), Fraction(1)]
    # squarefree, but lc(s) is divisible by every odd prime below 50
    lc = 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43 * 47
    g = UniPoly.from_ints(QQ, [1, lc]) * UniPoly.from_ints(QQ, [-7, 2])
    assert _good_prime(_zx_from_rationals(g), 50) is None
    assert rational_roots(g) == [Fraction(-1, lc), Fraction(7, 2)]


def test_rational_roots_of_degree_200_are_prompt():
    rng = random.Random(29)
    f = _with_roots([rng.randint(-5, 5) for _ in range(197)] + [1],
                    [(3, 1, 1), (-10 ** 20, 3, 1), (5, 7, 1)])
    start = time.perf_counter()
    roots = rational_roots(f)
    assert time.perf_counter() - start < 1.0
    assert roots == [Fraction(-10 ** 20, 3), Fraction(5, 7), Fraction(3)]


ROOT_FIELDS = ([PrimeField(p) for p in range(2, 62) if sympy.isprime(p)]
               + [ExtensionField(p, m) for (p, _), m in sorted(BUILTIN_MODULI.items())]
               + [parse_field("F8:modulus=x^3+x^2+1"), parse_field("F25:modulus=x^2+x+2")])


@pytest.mark.parametrize("spec", ROOT_FIELDS, ids=str)
def test_fq_roots_match_a_plain_enumeration(spec):
    q, rng = spec.order, random.Random(str(spec))
    elements = field_elements(spec)

    def draw(degree):
        return UniPoly(spec, [rng.choice(elements) for _ in range(degree)]
                       + [rng.choice(elements[1:])])

    x_q_minus_x = UniPoly.x(spec) ** q - UniPoly.x(spec)
    cases = [draw(rng.randrange(2 * q + 1)) for _ in range(3)]
    cases.append(draw(0))                                    # a nonzero constant
    cases.append(UniPoly.zero(spec))                         # every element is a root
    cases.append(x_q_minus_x * draw(rng.randrange(q + 1)))   # folds to zero
    for _ in range(2):                                       # repeated roots
        f = draw(rng.randrange(3))
        for r in rng.sample(elements, min(3, q)):
            f = f * UniPoly(spec, [-r, spec.one()]) ** rng.randint(1, 3)
        cases.append(f)
    for f in cases:
        expected = [c.value for c in elements if boxed_uni_eval(f, c).is_zero()]
        assert list(_fq_roots(spec, f.values)) == expected, f


def _repeated_factors(rng, max_degree=20):
    """(f, roots): f = c * prod q_i^e_i over Q of degree 1..max_degree, each
    q_i a random linear, quadratic or cubic factor with rational
    coefficients and e_i in 1..4, so repeated factors are common; roots
    are the roots of the linear q_i."""
    f, roots = UniPoly.from_ints(QQ, [Fraction(rng.choice([-5, -2, 1, 3]), rng.randint(1, 4))]), []
    while True:
        q = [Fraction(rng.randint(-6, 6), rng.randint(1, 2))
             for _ in range(rng.randint(1, 3))] + [rng.randint(1, 2)]
        g = f * UniPoly.from_ints(QQ, q) ** rng.randint(1, 4)
        if g.degree > max_degree:
            return (f, roots) if f.degree >= 1 else (UniPoly.from_ints(QQ, q), [])
        f = g
        if len(q) == 2:
            roots.append(-q[0] / q[1])


_RNG = random.Random(47)
Q_PRODUCTS = [_repeated_factors(_RNG, _RNG.randint(3, 20)) for _ in range(100)]


def _sympy_poly(f: UniPoly):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(f.values)], X, domain="QQ")


def _primitive_ints(poly):
    """A sympy polynomial over ZZ as ascending ints: primitive, with a
    positive leading coefficient."""
    prim = poly.primitive()[1]
    return [int(c) for c in reversed((prim if prim.LC() > 0 else -prim).all_coeffs())]


def test_zx_gcd_and_squarefree_part_match_sympy():
    rng = random.Random(43)
    for _ in range(100):
        common = _repeated_factors(rng, rng.randint(1, 8))[0]
        a = _zx_from_rationals(common * _repeated_factors(rng, rng.randint(1, 12))[0])
        b = _zx_from_rationals(common * _repeated_factors(rng, rng.randint(1, 12))[0])
        za, zb = (sympy.Poly(c[::-1], X, domain="ZZ") for c in (a, b))
        assert _zx_gcd(a, b) == _primitive_ints(sympy.gcd(za, zb))
        assert _zx_squarefree_part(a) == _primitive_ints(za.sqf_part())


def test_sturm_counts_match_sympy():
    rng = random.Random(47)
    for f, roots in Q_PRODUCTS:
        poly = _sympy_poly(f)
        assert sturm_real_roots(f) == poly.count_roots()
        ends = roots + [Fraction(rng.randint(-20, 20), rng.randint(1, 4)) for _ in range(2)]
        lo, hi = sorted(rng.sample(ends, 2))
        assert sturm_real_roots(f, (lo, hi)) == poly.count_roots(lo, hi), (f, lo, hi)


def test_monotonicity_matches_sympy():
    # f is strictly monotone exactly when no real root of f' has odd
    # multiplicity; f is an antiderivative of a product f' drawn above
    rng = random.Random(53)
    verdicts = []
    for df, _ in Q_PRODUCTS:
        f = UniPoly.from_ints(QQ, [rng.randint(-3, 3)] + [c / (i + 1)
                                                          for i, c in enumerate(df.values)])
        expected = all(g.count_roots() == 0
                       for g, e in _sympy_poly(df).sqf_list()[1] if e % 2)
        assert is_strictly_monotone(f) == expected, f
        verdicts.append(expected)
    assert 10 <= sum(verdicts) <= 90


def test_sturm_on_sparse_huge_coefficients_matches_sympy():
    # sparse f with coefficients from 10^20 to 10^21, negative leading ones
    # included, some times a squared sparse factor: their chains drop two or
    # more degrees at once, where only the scale |lc|^(delta+1), not
    # lc^(delta+1), keeps every sign
    rng = random.Random(59)

    def sparse(top):
        coeffs = [0] * (top + 1)
        for e in [top] + rng.sample(range(top), min(top, rng.randint(1, 3))):
            coeffs[e] = rng.choice([-1, 1]) * rng.randint(10 ** 20, 10 ** 21)
        return UniPoly.from_ints(QQ, coeffs)

    verdicts = []
    for _ in range(150):
        f = sparse(rng.randint(3, 9))
        if rng.random() < 0.3:
            f = f * sparse(rng.randint(1, 2)) ** 2
        poly = _sympy_poly(f)
        assert sturm_real_roots(f) == poly.count_roots(), f
        lo, hi = sorted(Fraction(rng.randint(-30, 30), rng.randint(1, 5)) for _ in range(2))
        assert sturm_real_roots(f, (lo, hi)) == poly.count_roots(lo, hi), (f, lo, hi)
        expected = f.degree % 2 == 1 and all(
            g.count_roots() == 0 for g, e in _sympy_poly(f.derivative()).sqf_list()[1] if e % 2)
        assert is_strictly_monotone(f) == expected, f
        verdicts.append(expected)
    assert 10 <= sum(verdicts) <= 140
