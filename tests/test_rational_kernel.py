"""The rational-grid scans, which run on plain ints, against boxed oracles.

search_rational_collisions, search_tuple_collisions and
monotonicity_violation key grid points by the reduced integer pair of
f's value instead of evaluating f on field elements.  Over random f with
rational coefficients (the zero polynomial, zero constant terms and
negative leading coefficients included), each must report exactly what a
boxed evaluation over the same points reports.
"""
import itertools
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import first_collision, rational_points

from evainject import (
    QQ,
    MultiPoly,
    UniPoly,
    monotonicity_violation,
    rational_grid,
    search_rational_collisions,
    search_tuple_collisions,
)

BOUNDED = settings(max_examples=60, deadline=None, derandomize=True, database=None)

coefficients = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-6, max_value=6, max_denominator=6))
univariate = st.lists(coefficients, max_size=8).map(lambda cs: UniPoly.from_ints(QQ, cs))


def _pair(w):
    return None if w is None else (w.lhs, w.rhs)


def _multivariate(m):
    exponents = st.tuples(*[st.integers(0, 3)] * m)
    return st.dictionaries(exponents, coefficients, max_size=4).map(
        lambda terms: MultiPoly.from_ints(QQ, m, terms))


@BOUNDED
@given(univariate, st.integers(1, 5))
@example(UniPoly.from_ints(QQ, [0, Fraction(-1, 2), 1]), 2)  # f(2) = f(-3/2) first
def test_scalar_search_matches_boxed_scan(f, height):
    expected = first_collision(f, rational_points(QQ, height))
    assert _pair(search_rational_collisions(f, height)) == expected


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
@given(univariate, st.integers(1, 5))
def test_monotonicity_violation_matches_boxed_values(f, height):
    assert monotonicity_violation(f, height) == _boxed_monotonicity_violation(f, height)
