"""parse_poly against a plain evaluator of the same expression tree.

Hypothesis draws expression trees (integer and a/b literals, the
variables, unary minus, +, -, *, powers of any subexpression and
redundant parentheses) and renders each in the polynomial grammar with as
few parentheses as its precedence allows.  The parsed polynomial must take
the tree's value, computed with ints modulo p or with Fractions, at every
point of F_2..F_7 (F_p^m with m variables) and at a few rationals; an a/b
whose b vanishes mod p must be a ParseError.  Printing and parsing again
must give the same polynomial over Q and over F_p.
"""
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evainject import QQ, MultiPoly, PrimeField
from evainject.cli import parse_poly
from evainject.errors import ParseError

BOUNDED = settings(max_examples=60, deadline=None, derandomize=True, database=None)
RATIONAL_POINTS = [Fraction(-2), Fraction(-1, 2), Fraction(0), Fraction(1, 3), Fraction(3, 2)]

# Precedence levels of the grammar: expr := term (+- term)*; term := unary
# (* unary)*; unary := - unary | atom [^ INT]; atom := rational | var | (expr)
EXPR, TERM, UNARY, POWER, ATOM = range(5)


@st.composite
def _trees(draw, nvars, depth=4, root=True):
    """An operator at the root (+, -, *, unary minus, parentheses or a
    power), a leaf with chance 3/10 at each inner node, leaves at depth 0."""
    kind = draw(st.integers(3 if root else 0, 9 if depth else 2))
    if kind == 0:  # variable 0 is the name "x": x itself, or x1 in m variables
        return ("var", draw(st.integers(0 if nvars > 1 else 1, nvars)))
    if kind == 1:
        return ("int", draw(st.integers(0, 12)))
    if kind == 2:
        return ("rat", draw(st.integers(0, 12)), draw(st.integers(1, 6)))
    sub = _trees(nvars, depth - 1, root=False)
    if kind <= 6:
        return ("+-*"[kind % 3], draw(sub), draw(sub))
    if kind == 9:
        return ("^", draw(sub), draw(st.integers(0, 4)))
    return ("neg" if kind == 7 else "()", draw(sub))


def _render(tree, nvars) -> tuple[str, int]:
    """(text, precedence level of its outermost construct)."""
    def at_least(sub, level):
        text, own = _render(sub, nvars)
        return text if own >= level else f"({text})"
    kind = tree[0]
    if kind == "int":
        return str(tree[1]), ATOM
    if kind == "rat":
        return f"{tree[1]}/{tree[2]}", ATOM
    if kind == "var":
        return ("x" if nvars == 1 or tree[1] == 0 else f"x{tree[1]}"), ATOM
    if kind == "neg":
        return "-" + at_least(tree[1], UNARY), UNARY
    if kind == "()":
        return f"({_render(tree[1], nvars)[0]})", ATOM
    if kind == "^":
        return f"{at_least(tree[1], ATOM)}^{tree[2]}", POWER
    if kind == "*":
        return f"{at_least(tree[1], TERM)}*{at_least(tree[2], UNARY)}", TERM
    return f"{at_least(tree[1], EXPR)}{kind}{at_least(tree[2], TERM)}", EXPR


def _value(tree, point, p=None):
    """The tree at point with Fractions (p None) or ints mod p; an a/b with
    b = 0 mod p raises ZeroDivisionError."""
    kind = tree[0]
    if kind == "int":
        return tree[1] if p is None else tree[1] % p
    if kind == "rat":
        if p is None:
            return Fraction(tree[1], tree[2])
        if tree[2] % p == 0:
            raise ZeroDivisionError
        return tree[1] * pow(tree[2], -1, p) % p
    if kind == "var":
        return point[max(tree[1], 1) - 1]
    if kind == "neg":
        v = -_value(tree[1], point, p)
        return v if p is None else v % p
    if kind == "()":
        return _value(tree[1], point, p)
    if kind == "^":
        base = _value(tree[1], point, p)
        return base ** tree[2] if p is None else pow(base, tree[2], p)
    a, b = _value(tree[1], point, p), _value(tree[2], point, p)
    v = a + b if kind == "+" else a - b if kind == "-" else a * b
    return v if p is None else v % p


def _eval(f, point, spec):
    if isinstance(f, MultiPoly):
        return f.eval(tuple(spec.element(a) for a in point))
    return f.eval(spec.element(point[0]))


@st.composite
def expressions(draw):
    nvars = draw(st.sampled_from([1, 2, 3]))
    return nvars, draw(_trees(nvars))


@BOUNDED
@given(expressions())
def test_parse_poly_evaluates_like_the_expression_tree(case):
    nvars, tree = case
    text = _render(tree, nvars)[0]
    ring = None if nvars == 1 else nvars
    for p in (2, 3, 5, 7):
        spec = PrimeField(p)
        points = list(itertools.product(range(p), repeat=nvars))
        try:
            expected = [_value(tree, point, p) for point in points]
        except ZeroDivisionError:
            with pytest.raises(ParseError):
                parse_poly(text, spec, ring)
            continue
        f = parse_poly(text, spec, ring)
        assert [_eval(f, point, spec) for point in points] == expected, (text, p)
        assert parse_poly(str(f), spec, ring) == f, (text, p)
    f = parse_poly(text, QQ, ring)
    for point in itertools.product(RATIONAL_POINTS, repeat=nvars):
        assert _eval(f, point, QQ) == _value(tree, point), (text, point)
    assert parse_poly(str(f), QQ, ring) == f, text
