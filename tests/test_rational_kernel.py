"""The rational-grid scans, which run on plain ints, against boxed oracles.

search_rational_collisions, search_tuple_collisions and
monotonicity_violation key grid points by integers derived from f's value
instead of evaluating f on field elements: the scalar scan and the
monotonicity check run row by row, by finite differences, with a bucket and
a key per point.  Over random f with rational coefficients (the zero
polynomial, constants, zero constant terms, negative leading coefficients
and leading coefficients sharing factors with the denominators included),
each must report exactly what a boxed evaluation over the same points
reports: with a cap that cuts the grid mid-row, and with blocks small
enough that one row spans several of them.
"""
import itertools
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import first_collision, rational_points

from evainject import (
    QQ,
    MultiPoly,
    UniPoly,
    engine,
    monotonicity_violation,
    rational_grid,
    search_rational_collisions,
    search_tuple_collisions,
)
from evainject.errors import EnumerationCapExceededError

BOUNDED = settings(max_examples=60, deadline=None, derandomize=True, database=None)

coefficients = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-6, max_value=6, max_denominator=6))
univariate = st.lists(coefficients, max_size=8).map(lambda cs: UniPoly.from_ints(QQ, cs))
# leading coefficients whose numerator, once the denominators are cleared,
# shares factors with the grid's denominators 2..5
leads = st.sampled_from([2, -3, 4, 6, -12, 30, Fraction(9, 2), Fraction(-4, 3), Fraction(5, 6)])
shared_lead = st.tuples(st.lists(coefficients, max_size=5), leads).map(
    lambda t: UniPoly.from_ints(QQ, t[0] + [t[1]]))
polynomials = st.one_of(univariate, shared_lead)


def _pair(w):
    return None if w is None else (w.lhs, w.rhs)


def _multivariate(m):
    exponents = st.tuples(*[st.integers(0, 3)] * m)
    return st.dictionaries(exponents, coefficients, max_size=4).map(
        lambda terms: MultiPoly.from_ints(QQ, m, terms))


@BOUNDED
@given(polynomials, st.integers(1, 5), st.one_of(st.none(), st.integers(1, 80)),
       st.sampled_from([1, 2, 3, engine._BLOCK]))
@example(UniPoly.from_ints(QQ, [0, Fraction(-1, 2), 1]), 2, None, engine._BLOCK)  # f(2) = f(-3/2)
@example(UniPoly.from_ints(QQ, []), 3, None, 2)  # the zero polynomial
@example(UniPoly.from_ints(QQ, [Fraction(-5, 3)]), 1, 2, 1)  # a constant
@example(UniPoly.from_ints(QQ, [0, 0, 0, 1]), 4, 30, 3)  # x^3: the cap cuts row 2
@example(UniPoly.from_ints(QQ, [0, Fraction(1, 3), 0, 6]), 5, None, 2)  # 6 shares with b
def test_scalar_search_matches_boxed_scan(f, height, cap, block):
    # the first cap points of the grid hold the oracle's collision, or the
    # scan refuses a grid of more than cap points
    points = rational_points(QQ, height)
    expected = first_collision(f, points[:cap])
    with patch.object(engine, "_BLOCK", block):
        if cap is None:
            assert _pair(search_rational_collisions(f, height)) == expected
        elif expected is None and cap < len(points):
            with pytest.raises(EnumerationCapExceededError,
                               match=f"exceed the cap {cap}, and the first {cap} hold"):
                search_rational_collisions(f, height, cap)
        else:
            assert _pair(search_rational_collisions(f, height, cap)) == expected


def test_scalar_search_finds_a_repeat_past_a_rows_first_block():
    # f(a) = f(860 - a): the first repeat of row 1 (the integers -600..600,
    # more points than one block) is 431, its 1,032nd point, with 429
    f = UniPoly.from_ints(QQ, [0, -860, 1])
    row = [QQ.element(a) for a in range(-600, 601)]
    assert engine._BLOCK < 1031 < len(row)
    expected = first_collision(f, row[:1040])
    assert expected == (QQ.element(429), QQ.element(431))
    assert _pair(search_rational_collisions(f, 600, cap=2000)) == expected


@BOUNDED
@given(st.sampled_from([2, 3]).flatmap(_multivariate), st.integers(1, 2),
       st.sampled_from([30, 10_000]))
@example(MultiPoly.from_ints(QQ, 2, {(2, 0): 1, (1, 0): Fraction(-1, 2), (0, 3): 100}),
         2, 10_000)  # first collision (2, -2), (-3/2, -2)
def test_tuple_search_matches_boxed_scan(f, height, cap):
    m = f.m
    used = max(h for h in range(1, height + 1)
               if h == 1 or len(rational_points(QQ, h)) ** m <= cap)
    w, used_height = search_tuple_collisions(f, height, cap=cap)
    assert used_height == used
    points = itertools.product(rational_points(QQ, used), repeat=m)
    assert _pair(w) == first_collision(f, points)


def _boxed_monotonicity_violation(f, height):
    points = sorted(rational_grid(height))
    values = [f.eval(QQ.element(x)).value for x in points]
    last_sign, last_start = 0, 0
    for i in range(len(values) - 1):
        delta = values[i + 1] - values[i]
        sign = (delta > 0) - (delta < 0)
        if sign == 0:
            continue
        if last_sign != 0 and sign != last_sign:
            return (points[last_start], points[i], points[i + 1])
        if sign != last_sign:
            last_sign, last_start = sign, i
    return None


@BOUNDED
@given(polynomials, st.integers(1, 5))
@example(UniPoly.from_ints(QQ, []), 2)
@example(UniPoly.from_ints(QQ, [Fraction(7, 2)]), 2)
def test_monotonicity_violation_matches_boxed_values(f, height):
    assert monotonicity_violation(f, height) == _boxed_monotonicity_violation(f, height)
