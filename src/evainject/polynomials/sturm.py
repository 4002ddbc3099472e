"""Exact real root counting via Sturm chains, and strict monotonicity.

Everything runs on factor.py's integer polynomials.  The chain of a
squarefree s in Z[x] is s, s', and then signed pseudo-remainders: minus the
remainder of |lc(s_i)|^(delta+1) * s_(i-1) by s_i (_zx_divmod, no
fractions) over its positive content, a positive multiple of the classical
-rem(s_(i-1), s_i), so every sign and Sturm's theorem hold: V(a) - V(b)
counts the distinct real roots in (a, b) when s(a), s(b) != 0.  s is the
squarefree part of f (factor._zx_squarefree_part).  Signs at +-infinity come
from leading ints and degrees, at a rational num/den from den^deg *
s(num/den) in ints; endpoint roots are divided out by den*x - num in Z[x]
first, so the closed-interval count is exact.

f over Q is strictly monotone on the real line exactly when deg f is odd
and every real root of f' has even multiplicity: the product of the odd
parts of Yun's decomposition of f' in Z[x], squarefree, has no real root.
"""
from __future__ import annotations

import math
from fractions import Fraction

from ..errors import AlgebraError, ConstantPolynomialError, SpecMismatchError, ZeroPolynomialError
from ..fields import Rationals
from .core import UniPoly
from .factor import (_zx_derivative, _zx_divmod, _zx_exact_div, _zx_from_rationals, _zx_mul,
                     _zx_primitive, _zx_squarefree, _zx_squarefree_part)


def _sturm_chain(s: list[int]) -> list[list[int]]:
    chain = [s, _zx_derivative(s)]
    while len(chain[-1]) > 1:
        a, b = chain[-2:]
        r = _zx_divmod([abs(b[-1]) ** (len(a) - len(b) + 1) * c for c in a], b)[1]
        content = math.gcd(*r)   # unused when r = 0, which ends the chain
        chain.append([-c // content for c in r])
    return [p for p in chain if p]


def _variations(values: list[int]) -> int:
    """Sign changes along values, zeros skipped."""
    nz = [v for v in values if v]
    return sum(1 for a, b in zip(nz, nz[1:]) if (a < 0) != (b < 0))


def _scaled_value(p: list[int], x: Fraction) -> int:
    """den^deg * p(num/den) by Horner in ints: the sign of p(x), as den > 0."""
    acc, scale = 0, 1
    for c in reversed(p):
        acc = acc * x.numerator + c * scale
        scale *= x.denominator
    return acc


def _real_root_count(s: list[int]) -> int:
    """Distinct real roots of a squarefree s: V(-infinity) - V(+infinity)."""
    chain = _sturm_chain(s)
    return (_variations([p[-1] * (-1) ** (len(p) - 1) for p in chain])
            - _variations([p[-1] for p in chain]))


def sturm_real_roots(f: UniPoly, interval: tuple | None = None) -> int:
    """Count distinct real roots of f, on the whole line or a closed [lo, hi].

    Exact integer arithmetic throughout; interval endpoints may themselves
    be roots and are counted when they are.
    """
    if not isinstance(f.spec, Rationals):
        raise SpecMismatchError("Sturm counting works over Q")
    if f.is_zero():
        raise ZeroPolynomialError("the zero polynomial has every real as a root")
    s = _zx_squarefree_part(_zx_from_rationals(f))
    if interval is None:
        return _real_root_count(s)
    lo, hi = Fraction(interval[0]), Fraction(interval[1])
    if lo > hi:
        raise AlgebraError("interval endpoints out of order")
    roots = [x for x in {lo, hi} if _scaled_value(s, x) == 0]
    for x in roots:
        s = _zx_exact_div(s, [-x.numerator, x.denominator])
    if lo == hi or len(s) == 1:
        return len(roots)
    chain = _sturm_chain(s)
    return (len(roots) + _variations([_scaled_value(p, lo) for p in chain])
            - _variations([_scaled_value(p, hi) for p in chain]))


def is_strictly_monotone(f: UniPoly) -> bool:
    """True iff f is strictly monotone on the whole real line.

    Equivalent to: deg f is odd (or 1) and the odd-multiplicity part of f'
    has no real root, so f' keeps one sign everywhere.
    """
    if not isinstance(f.spec, Rationals):
        raise SpecMismatchError("monotonicity test works over Q")
    if f.degree < 1:
        raise ConstantPolynomialError("monotonicity needs a nonconstant polynomial")
    if f.degree % 2 == 0:
        return False
    odd_part = [1]
    for s, mult in _zx_squarefree(_zx_primitive(_zx_derivative(_zx_from_rationals(f)))):
        if mult % 2 == 1:
            odd_part = _zx_mul(odd_part, s)
    return _real_root_count(odd_part) == 0
