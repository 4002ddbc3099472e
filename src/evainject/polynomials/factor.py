"""Complete polynomial factorization and the (c, m, h, d) profile.

Finite fields: squarefree decomposition (with the characteristic-p root
extraction step when the derivative vanishes), then distinct-degree
splitting, then randomized equal-degree splitting.  The factor list is
sorted into a canonical order, so the output does not depend on the random
path at all.

Rationals: Yun squarefree decomposition, then for each squarefree part the
classical lift-and-recombine method on the primitive integer polynomial:
factor modulo a good prime, Hensel-lift the factors to a power of that
prime exceeding twice the coefficient bound, and search factor subsets with
trial division in Z[x].  Degree is capped at 16 and coefficients at 256
bits; the inputs this package cares about are tiny.

factor_profile decomposes f as c + x^m * h with h(0) != 0, factors h, and
records d, the least degree among the irreducible factors of h, plus the
canonical factor of that degree.  This tuple is exactly the case split the
matrix engine dispatches on.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Sequence

from ..errors import (
    CoefficientCapExceededError,
    ConstantPolynomialError,
    DegreeCapExceededError,
    InternalInvariantError,
    SpecMismatchError,
    SymbolicFieldError,
)
from ..fields import (
    FieldElement,
    FieldSpec,
    PrimeField,
    Rationals,
    _gf_trim,
    _gf_xgcd,
    is_prime,
)
from .core import UniPoly, gcd_poly, zero_multiplicity

# Equal-degree splitting draws from Random(_SPLIT_SEED), made fresh per call.
# Any value gives the same output: every split is a true factorization, the
# irreducible factors of a polynomial are unique, and they are sorted.
_SPLIT_SEED = 1729
DEGREE_CAP = 16
COEFF_BIT_CAP = 256


# ---------------------------------------------------------------------------
# Finite fields
# ---------------------------------------------------------------------------

def _pth_root_coeff(a: FieldElement) -> FieldElement:
    # Frobenius is inverted by a -> a^(p^(k-1)); for F_p this is a itself.
    spec = a.spec
    k = getattr(spec, "k", 1)
    if k == 1:
        return a
    return a ** (spec.characteristic ** (k - 1))


def _pth_root_poly(f: UniPoly) -> UniPoly:
    """For f with f' = 0, return g with g(x^p) = f."""
    p = f.spec.characteristic
    out = []
    for i in range(0, len(f.coeffs), p):
        out.append(_pth_root_coeff(f.coeffs[i]))
    return UniPoly(f.spec, out)


def _squarefree_finite(f: UniPoly) -> list[tuple[UniPoly, int]]:
    """Monic f over F_q -> coprime monic squarefree parts with multiplicities."""
    p = f.spec.characteristic
    out: list[tuple[UniPoly, int]] = []
    fp = f.derivative()
    if fp.is_zero():
        for s, m in _squarefree_finite(_pth_root_poly(f)):
            out.append((s, m * p))
        return out
    c = gcd_poly(f, fp)
    w = f // c
    i = 1
    while w.degree > 0:
        y = gcd_poly(w, c)
        z = w // y
        if z.degree > 0:
            out.append((z.monic(), i))
        w = y
        c = c // y
        i += 1
    if c.degree > 0:
        for s, m in _squarefree_finite(_pth_root_poly(c)):
            out.append((s, m * p))
    return out


def _distinct_degree(f: UniPoly) -> list[tuple[UniPoly, int]]:
    """Squarefree monic f -> [(product of irreducibles of degree d, d)]."""
    spec = f.spec
    q = spec.order
    x = UniPoly.x(spec)
    out: list[tuple[UniPoly, int]] = []
    h = x % f
    i = 1
    while f.degree >= 2 * i:
        h = h.powmod(q, f)
        g = gcd_poly(f, h - x)
        if g.degree > 0:
            out.append((g.monic(), i))
            f = f // g
            h = h % f
        i += 1
    if f.degree > 0:
        out.append((f.monic(), f.degree))
    return out


def _random_nonconstant(spec: FieldSpec, below_degree: int, rng: Random) -> UniPoly:
    q = spec.order
    while True:
        a = UniPoly(spec, [spec.element_from_index(rng.randrange(q))
                           for _ in range(below_degree)])
        if a.degree >= 1:
            return a


def _equal_degree(f: UniPoly, d: int, rng: Random) -> list[UniPoly]:
    """Split a squarefree product of degree-d irreducibles (Cantor-Zassenhaus)."""
    if f.degree == d:
        return [f.monic()]
    spec = f.spec
    q = spec.order
    p = spec.characteristic
    while True:
        a = _random_nonconstant(spec, f.degree, rng)
        g = gcd_poly(a, f)
        if 0 < g.degree < f.degree:
            pass  # lucky gcd split
        elif p != 2:
            b = a.powmod((q ** d - 1) // 2, f) - UniPoly.constant(spec, spec.one())
            if b.is_zero():
                continue
            g = gcd_poly(b, f)
        else:
            # characteristic 2: additive trace map over F_2
            k = round(math.log2(q))
            t = a
            acc = a
            for _ in range(k * d - 1):
                t = (t * t) % f
                acc = (acc + t) % f
            if acc.is_zero():
                continue
            g = gcd_poly(acc, f)
        if 0 < g.degree < f.degree:
            return _equal_degree(g, d, rng) + _equal_degree(f // g, d, rng)


def _sorted_factors(factors: dict[UniPoly, int]) -> tuple[tuple[UniPoly, int], ...]:
    return tuple(sorted(factors.items(), key=lambda item: item[0].sort_key()))


def factor_finite(f: UniPoly):
    """Factor f over a finite field.

    Returns (unit, factors) where unit is the leading coefficient and
    factors is a canonically sorted tuple of (monic irreducible,
    multiplicity) pairs whose product times unit reconstructs f.
    """
    if not f.spec.is_finite:
        raise SpecMismatchError("factor_finite needs a finite-field polynomial")
    if f.degree < 1:
        raise ConstantPolynomialError("cannot factor a constant polynomial")
    rng = Random(_SPLIT_SEED)
    unit = f.leading
    collected: dict[UniPoly, int] = {}
    for part, mult in _squarefree_finite(f.monic()):
        for prod, d in _distinct_degree(part):
            for irr in _equal_degree(prod, d, rng):
                collected[irr] = collected.get(irr, 0) + mult
    return unit, _sorted_factors(collected)


# ---------------------------------------------------------------------------
# Rationals: Yun squarefree decomposition
# ---------------------------------------------------------------------------

def squarefree_decomposition(f: UniPoly) -> list[tuple[UniPoly, int]]:
    """Yun's algorithm over Q: monic squarefree s_i with f = lc * prod s_i^i."""
    if not isinstance(f.spec, Rationals):
        raise SpecMismatchError("squarefree decomposition over Q only")
    if f.degree < 1:
        raise ConstantPolynomialError("constant polynomial")
    fm = f.monic()
    a0 = gcd_poly(fm, fm.derivative())
    if a0.degree == 0:
        return [(fm, 1)]
    out: list[tuple[UniPoly, int]] = []
    b = fm // a0
    d = (fm.derivative() // a0) - b.derivative()
    i = 1
    while b.degree > 0:
        s = gcd_poly(b, d)
        if s.degree > 0:
            out.append((s.monic(), i))
        b = b // s
        d = (d // s) - b.derivative()
        i += 1
    return out


# ---------------------------------------------------------------------------
# Rationals: integer-polynomial helpers (ascending int lists)
# ---------------------------------------------------------------------------

def _zx_deg(a: Sequence[int]) -> int:
    return len(a) - 1


def _zx_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _gf_trim(out)


def _zx_add(a: Sequence[int], b: Sequence[int]) -> list[int]:
    n = max(len(a), len(b))
    return _gf_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                     for i in range(n)])


def _zx_sub(a: Sequence[int], b: Sequence[int]) -> list[int]:
    return _zx_add(a, [-c for c in b])


def _zx_primitive(a: Sequence[int]) -> list[int]:
    """Primitive part with positive leading coefficient."""
    a = _gf_trim(list(a))
    if not a:
        return []
    g = 0
    for c in a:
        g = math.gcd(g, c)
    if a[-1] < 0:
        g = -g
    return [c // g for c in a]


def _trunc_sym(a: Sequence[int], m: int) -> list[int]:
    """Coefficients reduced to the symmetric range (-m/2, m/2]."""
    out = []
    half = m // 2
    for c in a:
        c %= m
        if c > half:
            c -= m
        out.append(c)
    return _gf_trim(out)


def _zp_mul(a: Sequence[int], b: Sequence[int], m: int) -> list[int]:
    return _trunc_sym(_zx_mul(a, b), m)


def _zx_divmod(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int]] | None:
    """(q, r) with a = q*b + r and deg r < deg b in Z[x], or None when some
    step's leading coefficient is not divisible by lc(b).

    Long division fixes q from the top down, so that step rules out any
    quotient in Z[x]; a monic b always divides.
    """
    r = _gf_trim(list(a))
    q = [0] * max(len(r) - len(b) + 1, 0)
    while len(r) >= len(b):
        c, rest = divmod(r[-1], b[-1])
        if rest:
            return None
        shift = len(r) - len(b)
        q[shift] = c
        for i, bi in enumerate(b):
            r[shift + i] -= c * bi
        _gf_trim(r)
    return _gf_trim(q), r


def _zx_try_div(a: Sequence[int], b: Sequence[int]) -> list[int] | None:
    """Quotient a/b in Z[x] if b divides a exactly, else None."""
    qr = _zx_divmod(a, b) if b else None
    return qr[0] if qr is not None and not qr[1] else None


# ---------------------------------------------------------------------------
# Hensel lifting (quadratic, multifactor by divide and conquer)
# ---------------------------------------------------------------------------

def _hensel_step(m: int, f, g, h, s, t):
    """One quadratic lift: from f = g*h, s*g + t*h = 1 (mod m) to mod m^2.

    Requires h monic and keeps it monic; g carries the leading coefficient
    of f throughout.
    """
    mm = m * m
    e = _trunc_sym(_zx_sub(f, _zx_mul(g, h)), mm)
    q, r = _zx_divmod(_zx_mul(s, e), h)
    q, r = _trunc_sym(q, mm), _trunc_sym(r, mm)
    big_g = _trunc_sym(_zx_add(_zx_add(g, _zx_mul(t, e)), _zx_mul(q, g)), mm)
    big_h = _trunc_sym(_zx_add(h, r), mm)
    b = _trunc_sym(_zx_sub(_zx_add(_zx_mul(s, big_g), _zx_mul(t, big_h)), [1]), mm)
    c, d = _zx_divmod(_zx_mul(s, b), big_h)
    c, d = _trunc_sym(c, mm), _trunc_sym(d, mm)
    big_s = _trunc_sym(_zx_sub(s, d), mm)
    big_t = _trunc_sym(_zx_sub(_zx_sub(t, _zx_mul(t, b)), _zx_mul(c, big_g)), mm)
    return big_g, big_h, big_s, big_t


def _hensel_lift(p: int, f: list[int], modular: list[list[int]], l: int) -> list[list[int]]:
    """Lift monic factors of f mod p to monic factors mod p^l."""
    r = len(modular)
    lc = f[-1]
    if r == 1:
        inv = pow(lc, -1, p ** l)
        return [_trunc_sym([c * inv for c in f], p ** l)]
    k = r // 2
    steps = max(math.ceil(math.log2(l)), 1)
    g = _trunc_sym([lc], p)
    for fk in modular[:k]:
        g = _zp_mul(g, fk, p)
    h = _trunc_sym(modular[k], p)
    for fk in modular[k + 1:]:
        h = _zp_mul(h, fk, p)
    one, s, t = _gf_xgcd([c % p for c in g], [c % p for c in h], p)
    if one != [1]:
        raise InternalInvariantError("modular factors are not coprime")
    s, t = _trunc_sym(s, p), _trunc_sym(t, p)
    m = p
    for _ in range(steps):
        g, h, s, t = _hensel_step(m, f, g, h, s, t)
        m = m * m
    return _hensel_lift(p, g, modular[:k], l) + _hensel_lift(p, h, modular[k:], l)


# ---------------------------------------------------------------------------
# Zassenhaus on a primitive squarefree integer polynomial
# ---------------------------------------------------------------------------

def _good_prime(s: list[int]) -> int:
    lc = s[-1]
    p = 3
    while p < 100_000:
        if is_prime(p) and lc % p != 0:
            smod = _gf_trim([c % p for c in s])
            dmod = _gf_trim([(i * s[i]) % p for i in range(1, len(s))])
            if dmod and len(_gf_xgcd(smod, dmod, p)[0]) == 1:
                return p
        p += 2
    raise InternalInvariantError("no usable prime below 100000")


def _zassenhaus(s: list[int]) -> list[list[int]]:
    """Irreducible primitive factors of a primitive squarefree s, deg >= 1."""
    n = _zx_deg(s)
    if n == 1:
        return [s]
    p = _good_prime(s)
    lc = s[-1]
    a_norm = max(abs(c) for c in s)
    bound = (math.isqrt(n + 1) + 1) * (1 << n) * a_norm * abs(lc)
    l = 1
    while p ** l <= 2 * bound:
        l += 1
    spec = PrimeField(p)
    smod = UniPoly.from_ints(spec, [c % p for c in s]).monic()
    _, modular_factors = factor_finite(smod)
    if any(mult != 1 for _, mult in modular_factors):
        raise InternalInvariantError("repeated factor modulo a good prime")
    modular = [[c.value for c in q.coeffs] for q, _ in modular_factors]
    if len(modular) == 1:
        return [s]
    lifted = _hensel_lift(p, list(s), modular, l)
    pl = p ** l
    remaining = list(range(len(lifted)))
    cur = list(s)
    out: list[list[int]] = []
    size = 1
    while 2 * size <= len(remaining):
        found = False
        for combo in itertools.combinations(remaining, size):
            cand = _trunc_sym([cur[-1]], pl)
            for i in combo:
                cand = _zp_mul(cand, lifted[i], pl)
            cand = _zx_primitive(cand)
            quotient = _zx_try_div(cur, cand)
            if quotient is not None:
                out.append(cand)
                cur = quotient
                remaining = [i for i in remaining if i not in combo]
                found = True
                break
        if not found:
            size += 1
    if _zx_deg(cur) >= 1:
        out.append(_zx_primitive(cur))
    return out


def factor_rationals(f: UniPoly):
    """Factor f over Q into monic irreducibles times the leading unit.

    Returns (unit, factors) with unit = lc(f) and factors a canonically
    sorted tuple of (monic irreducible over Q, multiplicity) pairs.
    """
    if not isinstance(f.spec, Rationals):
        raise SpecMismatchError("factor_rationals needs a polynomial over Q")
    if f.degree < 1:
        raise ConstantPolynomialError("cannot factor a constant polynomial")
    if f.degree > DEGREE_CAP:
        raise DegreeCapExceededError(
            f"degree {f.degree} exceeds the factorization cap {DEGREE_CAP}")
    spec = f.spec
    unit = f.leading
    collected: dict[UniPoly, int] = {}
    for part, mult in squarefree_decomposition(f):
        den = math.lcm(*(c.value.denominator for c in part.coeffs))
        ints = _zx_primitive([int(c.value * den) for c in part.coeffs])
        if max(abs(c) for c in ints).bit_length() > COEFF_BIT_CAP:
            raise CoefficientCapExceededError(
                f"coefficients exceed {COEFF_BIT_CAP} bits after clearing denominators")
        for g in _zassenhaus(ints):
            monic = UniPoly.from_ints(spec, [Fraction(c, g[-1]) for c in g])
            collected[monic] = collected.get(monic, 0) + mult
    return unit, _sorted_factors(collected)


# ---------------------------------------------------------------------------
# The decomposition profile f = c + x^m * h
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FactorProfile:
    """Case-split data for the matrix dichotomy.

    f = c + x^m_mult * h with h(0) != 0; h = unit * prod q_i^e_i over the
    coefficient field; d = min deg q_i (None when h is constant); chosen_q
    is the canonically least factor of degree d.
    """

    c: FieldElement
    m_mult: int
    h: UniPoly
    unit: FieldElement
    factors: tuple[tuple[UniPoly, int], ...]
    d: int | None
    chosen_q: UniPoly | None


def factor_profile(f: UniPoly) -> FactorProfile:
    """Decompose f = c + x^m * h and factor h over its coefficient field."""
    if f.degree < 1:
        raise ConstantPolynomialError("profile needs a nonconstant polynomial")
    spec = f.spec
    if spec.is_symbolic:
        raise SymbolicFieldError("profile needs exact coefficients")
    c = f.constant_term
    g = f - UniPoly.constant(spec, c)
    m_mult, h = zero_multiplicity(g)
    if h.degree < 1:
        profile = FactorProfile(c, m_mult, h, h.constant_term, (), None, None)
    else:
        if spec.is_finite:
            unit, factors = factor_finite(h)
        else:
            unit, factors = factor_rationals(h)
        d = min(q.degree for q, _ in factors)
        chosen = min((q for q, _ in factors if q.degree == d),
                     key=lambda q: q.sort_key())
        profile = FactorProfile(c, m_mult, h, unit, factors, d, chosen)
    if h.shift_up(m_mult) + UniPoly.constant(spec, c) != f:
        raise InternalInvariantError("profile does not reconstruct the input")
    return profile
