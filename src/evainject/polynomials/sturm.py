"""Exact real root counting via Sturm chains, and strict monotonicity.

The Sturm chain of a squarefree p is p_0 = p, p_1 = p', and then
p_{i+1} = -rem(p_{i-1}, p_i) until the remainder vanishes.  For a < b with
p(a) != 0 and p(b) != 0, the drop in sign variations V(a) - V(b) equals the
number of distinct real roots in (a, b).  The squarefree part p of f comes
from factor.py's Z[x] helpers (f / gcd(f, f') on the primitive integer
multiple of f); the chain and its signs are exact over Q, signs at
+-infinity come from leading terms, and endpoint roots are divided out
before the chain is consulted, so the closed-interval count is exact.

A polynomial f with rational coefficients is strictly monotone on the whole
real line exactly when its derivative never changes sign, equivalently when
every real root of f' has even multiplicity.  The test multiplies the parts
of odd multiplicity in Yun's decomposition of f' (in Z[x], boxed once) and
counts real roots of that product; zero roots plus odd degree of f gives
monotonicity.
"""
from __future__ import annotations

from fractions import Fraction

from ..errors import ConstantPolynomialError, SpecMismatchError, ZeroPolynomialError
from ..fields import Rationals
from .core import UniPoly
from .factor import _zx_from_rationals, _zx_mul, _zx_squarefree, _zx_squarefree_part, _zx_to_monic


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _sturm_chain(p: UniPoly) -> list[UniPoly]:
    chain = [p, p.derivative()]
    while not chain[-1].is_zero() and chain[-1].degree > 0:
        chain.append(-(chain[-2] % chain[-1]))
    if chain[-1].is_zero():
        chain.pop()
    return chain


def _variations(signs: list[int]) -> int:
    nz = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nz, nz[1:]) if a * b < 0)


def _variations_at(chain: list[UniPoly], x: Fraction) -> int:
    return _variations([_sign(p.eval(x).value) for p in chain])


def _variations_at_infinity(chain: list[UniPoly], positive: bool) -> int:
    signs = []
    for p in chain:
        if p.is_zero():
            signs.append(0)
        elif positive:
            signs.append(_sign(p.values[-1]))
        else:
            signs.append(_sign(p.values[-1]) * (-1) ** p.degree)
    return _variations(signs)


def sturm_real_roots(f: UniPoly, interval: tuple | None = None) -> int:
    """Count distinct real roots of f, on the whole line or a closed [lo, hi].

    Exact rational arithmetic throughout; interval endpoints may themselves
    be roots and are counted when they are.
    """
    if not isinstance(f.spec, Rationals):
        raise SpecMismatchError("Sturm counting works over Q")
    if f.is_zero():
        raise ZeroPolynomialError("the zero polynomial has every real as a root")
    spec = f.spec
    s = _zx_to_monic(_zx_squarefree_part(_zx_from_rationals(f)))
    if interval is None:
        chain = _sturm_chain(s)
        return _variations_at_infinity(chain, False) - _variations_at_infinity(chain, True)
    lo, hi = Fraction(interval[0]), Fraction(interval[1])
    if lo > hi:
        raise ValueError("interval endpoints out of order")
    count = 0
    for endpoint in {lo, hi}:
        if s.eval(spec.element(endpoint)).is_zero():
            count += 1
            s = s // UniPoly.from_ints(spec, [-endpoint, 1])
    if lo == hi or s.degree == 0:
        return count
    chain = _sturm_chain(s)
    return count + _variations_at(chain, lo) - _variations_at(chain, hi)


def odd_multiplicity_part(f: UniPoly) -> UniPoly:
    """Monic product of the squarefree factors of f over Q that occur to an
    odd power, multiplied in Z[x] from Yun's primitive parts."""
    part = [1]
    if f.degree >= 1:
        for s, mult in _zx_squarefree(_zx_from_rationals(f)):
            if mult % 2 == 1:
                part = _zx_mul(part, s)
    return _zx_to_monic(part)


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
    return sturm_real_roots(odd_multiplicity_part(f.derivative())) == 0
