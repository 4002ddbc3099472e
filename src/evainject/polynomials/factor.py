"""Complete polynomial factorization and the (c, m, h, d) profile.

Everything below runs on canonical values and plain ints; only the sorted
output factors become UniPolys.

Finite fields: one path for F_p and F_{p^k}, the _fq_* functions, on lists
of canonical values through the F[x] kernel of fields.py (fields._poly_*),
which also owns the derivative and distinct-degree splitting: squarefree
decomposition (with the characteristic-p root extraction step when the
derivative vanishes), then distinct-degree splitting
(fields._poly_distinct_degree, also the extension-modulus irreducibility
test), then equal-degree splitting (Cantor-Zassenhaus) seeded by a private
constant.  The factor list is sorted into a canonical order, so the output
does not depend on the random path at all.  _fq_roots, the one root
finder on F_q (simpleroots, rational_roots mod p), splits gcd(f, x^q - x).

Rationals: everything runs on primitive integer polynomials (the _zx_*
functions): one long division, gcds by primitive remainder sequences on it,
the squarefree part s / gcd(s, s') and Yun's decomposition, all of which
sturm.py uses too.  Each of Yun's parts is factored by lift and recombine:
factor modulo a good prime with the finite-field path, Hensel-lift the
factors to a power of that prime exceeding twice the coefficient bound, and
search factor subsets with trial division in Z[x].  Degree is capped at 16
and coefficients at 256 bits.  rational_roots lifts only the roots mod p,
each by Newton's step, so it needs no recombination, no Yun and no cap.

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
from typing import Iterable, Sequence

from ..errors import (
    CoefficientCapExceededError,
    ConstantPolynomialError,
    DegreeCapExceededError,
    InternalInvariantError,
    SpecMismatchError,
    SymbolicFieldError,
)
from ..fields import (
    QQ,
    FieldElement,
    FieldSpec,
    PrimeField,
    Rationals,
    _poly_add,
    _poly_derivative,
    _poly_distinct_degree,
    _poly_divmod,
    _poly_fold,
    _poly_gcd,
    _poly_monic,
    _poly_mul,
    _poly_powmod,
    _poly_trim,
    _poly_xgcd,
    _power,
    is_prime,
)
from .core import UniPoly, zero_multiplicity

# Equal-degree splitting draws from Random(_SPLIT_SEED), made fresh per call.
# Any value gives the same output: every split is a true factorization, the
# irreducible factors of a polynomial are unique, and they are sorted.
_SPLIT_SEED = 1729
DEGREE_CAP = 16
COEFF_BIT_CAP = 256


# ---------------------------------------------------------------------------
# Finite fields, on lists of canonical values (ascending degree, trimmed)
# through the fields._poly_* kernel: one path for F_p and F_{p^k}
# ---------------------------------------------------------------------------

def _fq_pth_root(spec: FieldSpec, a: Sequence) -> list:
    """g with g(x^p) = a, for a with a' = 0: Frobenius c -> c^p is inverted
    on F_q by c -> c^(q/p), which is the identity on F_p."""
    p, e, one = spec.characteristic, spec.order // spec.characteristic, spec.one().value
    return [_power(c, one, e, spec._mul) for c in a[::p]]


def _fq_squarefree(spec: FieldSpec, f: list) -> list[tuple[list, int]]:
    """Monic f -> coprime monic squarefree parts with multiplicities.
    Quotients of monic polynomials are monic, so no part needs rescaling."""
    p = spec.characteristic
    fp = _poly_derivative(spec, f)
    if not fp:
        return [(s, m * p) for s, m in _fq_squarefree(spec, _fq_pth_root(spec, f))]
    out: list[tuple[list, int]] = []
    c = _poly_gcd(spec, f, fp)
    w = _poly_divmod(spec, f, c)[0]
    i = 1
    while len(w) > 1:
        y = _poly_gcd(spec, w, c)
        z = _poly_divmod(spec, w, y)[0]
        if len(z) > 1:
            out.append((z, i))
        w = y
        c = _poly_divmod(spec, c, y)[0]
        i += 1
    if len(c) > 1:
        out.extend((s, m * p) for s, m in _fq_squarefree(spec, _fq_pth_root(spec, c)))
    return out


def _fq_equal_degree(spec: FieldSpec, f: list, d: int, rng: Random) -> list[list]:
    """Split a squarefree monic product of degree-d irreducibles (Cantor-Zassenhaus)."""
    n = len(f) - 1
    if n == d:
        return [f]
    q, p, zero = spec.order, spec.characteristic, spec.zero().value
    minus_one = [spec._neg(spec.one().value)]
    while True:
        a = _poly_trim([spec._value_from_index(rng.randrange(q)) for _ in range(n)], zero)
        if len(a) < 2:
            continue
        g = _poly_gcd(spec, a, f)
        if not 1 < len(g) <= n:   # no lucky gcd split
            if p != 2:
                b = _poly_add(spec, _poly_powmod(spec, a, (q ** d - 1) // 2, f), minus_one)
            else:
                # characteristic 2: the trace a + a^2 + ... + a^(2^(kd-1)) mod f
                b = t = a
                for _ in range((q.bit_length() - 1) * d - 1):
                    t = _poly_divmod(spec, _poly_mul(spec, t, t), f)[1]
                    b = _poly_add(spec, b, t)
            if not b:
                continue
            g = _poly_gcd(spec, b, f)
        if 1 < len(g) <= n:
            return (_fq_equal_degree(spec, g, d, rng)
                    + _fq_equal_degree(spec, _poly_divmod(spec, f, g)[0], d, rng))


def _fq_roots(spec: FieldSpec, f: Sequence) -> Iterable:
    """The distinct roots in F_q of the value list f in scan order (by
    spec._sort_key): lazily every element when f folds to 0 modulo x^q - x,
    else the linear factors of gcd(fold, x^q - x) by _fq_equal_degree."""
    g, zero, one = _poly_fold(spec, f), spec.zero().value, spec.one().value
    if not g:
        return map(spec._value_from_index, range(spec.order))
    if len(g) > 1:
        x_q = _poly_powmod(spec, [zero, one], spec.order, g)
        g = _poly_gcd(spec, g, _poly_add(spec, x_q, [zero, spec._neg(one)]))
    linear = _fq_equal_degree(spec, g, 1, Random(_SPLIT_SEED)) if len(g) > 1 else []
    return sorted((spec._neg(u[0]) for u in linear), key=spec._sort_key)


def _fq_factor(spec: FieldSpec, f: list) -> list[tuple[tuple, int]]:
    """Monic f of degree >= 1 over F_q -> its (monic irreducible, multiplicity)
    pairs as value tuples, sorted by degree, then by coefficient sort keys."""
    rng = Random(_SPLIT_SEED)
    collected: dict[tuple, int] = {}
    for part, mult in _fq_squarefree(spec, f):
        for prod, d in _poly_distinct_degree(spec, part):
            for irr in _fq_equal_degree(spec, prod, d, rng):
                key = tuple(irr)
                collected[key] = collected.get(key, 0) + mult
    sort_key = spec._sort_key
    return sorted(collected.items(),
                  key=lambda item: (len(item[0]), [sort_key(c) for c in item[0]]))


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
    spec = f.spec
    factors = _fq_factor(spec, _poly_monic(spec, f.values))
    return f.leading, tuple((UniPoly._from_values(spec, q), mult) for q, mult in factors)


# ---------------------------------------------------------------------------
# Rationals: integer-polynomial helpers (ascending int lists)
# ---------------------------------------------------------------------------

def _zx_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _poly_trim(out, 0)


def _zx_add(a: Sequence[int], b: Sequence[int]) -> list[int]:
    n = max(len(a), len(b))
    return _poly_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                     for i in range(n)], 0)


def _zx_sub(a: Sequence[int], b: Sequence[int]) -> list[int]:
    return _zx_add(a, [-c for c in b])


def _zx_primitive(a: Sequence[int]) -> list[int]:
    """Primitive part with positive leading coefficient."""
    a = _poly_trim(list(a), 0)
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
    return _poly_trim(out, 0)


def _zp_mul(a: Sequence[int], b: Sequence[int], m: int) -> list[int]:
    return _trunc_sym(_zx_mul(a, b), m)


def _zx_divmod(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int]] | None:
    """(q, r) with a = q*b + r and deg r < deg b in Z[x], or None when some
    step's leading coefficient is not divisible by lc(b).

    Long division fixes q from the top down, so that step rules out any
    quotient in Z[x]; a monic b always divides.
    """
    r = _poly_trim(list(a), 0)
    q = [0] * max(len(r) - len(b) + 1, 0)
    while len(r) >= len(b):
        c, rest = divmod(r[-1], b[-1])
        if rest:
            return None
        shift = len(r) - len(b)
        q[shift] = c
        for i, bi in enumerate(b):
            r[shift + i] -= c * bi
        _poly_trim(r, 0)
    return _poly_trim(q, 0), r


def _zx_try_div(a: Sequence[int], b: Sequence[int]) -> list[int] | None:
    """Quotient a/b in Z[x] if b divides a exactly, else None."""
    qr = _zx_divmod(a, b) if b else None
    return qr[0] if qr is not None and not qr[1] else None


def _zx_derivative(a: Sequence[int]) -> list[int]:
    return _poly_trim([i * a[i] for i in range(1, len(a))], 0)


def _zx_exact_div(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """a/b for a b known to divide a in Z[x]; InternalInvariantError if not."""
    quotient = _zx_try_div(a, b)
    if quotient is None:
        raise InternalInvariantError("inexact division in Z[x]")
    return quotient


def _zx_gcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Primitive gcd with positive leading coefficient (primitive remainder
    sequence: the primitive part of the remainder of lc(b)^(deg a - deg b + 1)
    * a by b, a product _zx_divmod divides without fractions)."""
    a, b = _zx_primitive(a), _zx_primitive(b)
    while b:
        scale = b[-1] ** max(len(a) - len(b) + 1, 0)
        a, b = b, _zx_primitive(_zx_divmod([scale * c for c in a], b)[1])
    return a


def _zx_squarefree_part(s: Sequence[int]) -> list[int]:
    """s / gcd(s, s'): the primitive product of the distinct irreducible
    factors of a nonzero primitive s ([1] for a constant)."""
    return _zx_exact_div(s, _zx_gcd(s, _zx_derivative(s)))


def _zx_from_rationals(f: UniPoly) -> list[int]:
    """The primitive integer polynomial with positive leading coefficient
    that is a rational multiple of f over Q."""
    den = math.lcm(*(c.denominator for c in f.values))
    return _zx_primitive([c.numerator * (den // c.denominator) for c in f.values])


def _zx_to_monic(a: Sequence[int]) -> UniPoly:
    return UniPoly._from_values(QQ, [Fraction(c, a[-1]) for c in a])


# ---------------------------------------------------------------------------
# Rationals: Yun squarefree decomposition on primitive Z[x] polynomials
# ---------------------------------------------------------------------------

def _zx_squarefree(f: list[int]) -> list[tuple[list[int], int]]:
    """Yun's algorithm on a primitive f of degree >= 1 with positive leading
    coefficient: the primitive squarefree parts s_i, positive leading
    coefficients, with f = prod s_i^i.

    Each division is exact in Z[x]: a primitive divisor over Q of an integer
    polynomial divides it over Z (Gauss's lemma).
    """
    b = _zx_squarefree_part(f)
    a0 = _zx_exact_div(f, b)  # gcd(f, f')
    d = _zx_sub(_zx_exact_div(_zx_derivative(f), a0), _zx_derivative(b))
    out: list[tuple[list[int], int]] = []
    i = 1
    while len(b) > 1:
        s = _zx_gcd(b, d)
        if len(s) > 1:
            out.append((s, i))
        b = _zx_exact_div(b, s)
        d = _zx_sub(_zx_exact_div(d, s), _zx_derivative(b))
        i += 1
    return out


def squarefree_decomposition(f: UniPoly) -> list[tuple[UniPoly, int]]:
    """Yun's algorithm over Q: monic squarefree s_i with f = lc * prod s_i^i."""
    if not isinstance(f.spec, Rationals):
        raise SpecMismatchError("squarefree decomposition over Q only")
    if f.degree < 1:
        raise ConstantPolynomialError("constant polynomial")
    return [(_zx_to_monic(s), i) for s, i in _zx_squarefree(_zx_from_rationals(f))]


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
    one, s, t = _poly_xgcd(PrimeField(p), [c % p for c in g], [c % p for c in h])
    if one != [1]:
        raise InternalInvariantError("modular factors are not coprime")
    s, t = _trunc_sym(s, p), _trunc_sym(t, p)
    m = p
    for _ in range(steps):
        g, h, s, t = _hensel_step(m, f, g, h, s, t)
        m = m * m
    return _hensel_lift(p, g, modular[:k], l) + _hensel_lift(p, h, modular[k:], l)


# ---------------------------------------------------------------------------
# Zassenhaus on a primitive squarefree integer polynomial, and its linear
# case without recombination: rational roots
# ---------------------------------------------------------------------------

def _good_prime(s: list[int], limit: int) -> int | None:
    """The least odd prime p < limit with lc(s) a unit mod p and s squarefree
    mod p, or None.  For a squarefree s, only divisors of lc(s)*disc(s) fail."""
    lc = s[-1]
    for p in range(3, limit, 2):
        if is_prime(p) and lc % p != 0:
            spec = PrimeField(p)
            smod = [c % p for c in s]   # lc(s) is a unit mod p: no trimming
            dmod = _poly_derivative(spec, smod)
            if dmod and len(_poly_gcd(spec, smod, dmod)) == 1:
                return p
    return None


def _zassenhaus(s: list[int]) -> list[list[int]]:
    """Irreducible primitive factors of a primitive squarefree s, deg >= 1."""
    n = len(s) - 1
    if n == 1:
        return [s]
    p = _good_prime(s, 100_000)
    if p is None:
        raise InternalInvariantError("no usable prime below 100000")
    lc = s[-1]
    a_norm = max(abs(c) for c in s)
    bound = (math.isqrt(n + 1) + 1) * (1 << n) * a_norm * abs(lc)
    l = 1
    while p ** l <= 2 * bound:
        l += 1
    spec = PrimeField(p)
    modular_factors = _fq_factor(spec, _poly_monic(spec, [c % p for c in s]))
    if any(mult != 1 for _, mult in modular_factors):
        raise InternalInvariantError("repeated factor modulo a good prime")
    modular = [list(q) for q, _ in modular_factors]
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
    if len(cur) > 1:
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
    collected: dict[UniPoly, int] = {}
    for part, mult in _zx_squarefree(_zx_from_rationals(f)):
        if max(abs(c) for c in part).bit_length() > COEFF_BIT_CAP:
            raise CoefficientCapExceededError(
                f"coefficients exceed {COEFF_BIT_CAP} bits after clearing denominators")
        for g in _zassenhaus(part):
            monic = _zx_to_monic(g)
            collected[monic] = collected.get(monic, 0) + mult
    return f.leading, tuple(sorted(collected.items(), key=lambda item: item[0].sort_key()))


def rational_roots(f: UniPoly) -> list[Fraction]:
    """The distinct rational roots of f over Q, sorted; no degree cap.

    Loos's p-adic method, 1983: with s the primitive part of f / x^m, each
    root of s mod a good prime p is simple, so Newton's step lifts it mod
    p^k > 2|s(0) lc(s)|.  A root u/v in lowest terms has u | s(0) and
    v | lc(s), so lc(s) times its lift is (lc(s)/v) u in symmetric range;
    it is kept if v x - u divides s.  Only when no prime below 50 is good
    does s become its squarefree part.
    """
    if not isinstance(f.spec, Rationals):
        raise SpecMismatchError("rational root extraction needs a polynomial over Q")
    m, h = zero_multiplicity(f)
    roots = [Fraction(0)] if m else []
    if h.degree < 1:
        return roots
    s = _zx_from_rationals(h)
    p = _good_prime(s, 50)
    if p is None:
        s = _zx_squarefree_part(s)
        p = _good_prime(s, 100_000)
        if p is None:
            raise InternalInvariantError("no usable prime below 100000")
    lc = s[-1]
    for r in _fq_roots(PrimeField(p), [c % p for c in s]):
        pk = p
        while pk <= 2 * abs(s[0] * lc):
            pk *= pk    # Newton's step, with s(r) and s'(r) by one Horner pass
            v = dv = 0
            for c in reversed(s):
                v, dv = (v * r + c) % pk, (dv * r + v) % pk
            r = (r - v * pow(dv, -1, pk)) % pk
        num = lc * r % pk
        root = Fraction(num - pk if 2 * num > pk else num, lc)
        if _zx_try_div(s, [-root.numerator, root.denominator]) is not None:
            roots.append(root)
    return sorted(roots)


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
