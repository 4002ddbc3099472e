"""Dense univariate and sparse multivariate polynomials over a FieldSpec.

UniPoly stores ascending-degree coefficients with trailing zeros stripped;
the zero polynomial has an empty coefficient tuple and degree -1.  Products,
division and gcds run on the coefficients' canonical values through the
F[x] kernel of fields.py (fields._poly_*), and evaluation and the shift
f(x + b) run on values through the spec's hooks; each boxes only its result.
MultiPoly stores a sparse map from exponent tuples to nonzero coefficients.
All arithmetic is exact.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from ..errors import (
    ArityMismatchError,
    BothZeroError,
    DivisionByZeroError,
    SpecMismatchError,
    ZeroPolynomialError,
)
from ..fields import (
    ExtensionField,
    FieldElement,
    FieldSpec,
    Rationals,
    _poly_add,
    _poly_divmod,
    _poly_gcd,
    _poly_mul,
    _poly_xgcd,
    _power,
)


class UniPoly:
    """Univariate polynomial with exact coefficients in one field."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs: Iterable[FieldElement]):
        cs = list(coeffs)
        for c in cs:
            if c.spec != spec:
                raise SpecMismatchError("coefficient from a different field")
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    # -- construction helpers ----------------------------------------------
    @classmethod
    def from_ints(cls, spec: FieldSpec, ints: Sequence) -> "UniPoly":
        """Build from ascending int (or Fraction, over Q) coefficients."""
        return cls(spec, [spec.element(c) for c in ints])

    @classmethod
    def zero(cls, spec: FieldSpec) -> "UniPoly":
        return cls(spec, [])

    @classmethod
    def constant(cls, spec: FieldSpec, c) -> "UniPoly":
        return cls(spec, [c if isinstance(c, FieldElement) else spec.element(c)])

    @classmethod
    def x(cls, spec: FieldSpec) -> "UniPoly":
        return cls(spec, [spec.zero(), spec.one()])

    # -- basic queries -------------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    @property
    def leading(self) -> FieldElement:
        if self.is_zero():
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> FieldElement:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.spec.zero()

    @property
    def constant_term(self) -> FieldElement:
        return self.coeff(0)

    def is_monic(self) -> bool:
        return not self.is_zero() and self.leading == self.spec.one()

    # -- ring operations -----------------------------------------------------
    def _check(self, other: "UniPoly"):
        if other.spec != self.spec:
            raise SpecMismatchError(f"mixed fields: {self.spec} and {other.spec}")

    def __add__(self, other: "UniPoly") -> "UniPoly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(self.spec, [self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(self.spec, [self.coeff(i) - other.coeff(i) for i in range(n)])

    def __neg__(self) -> "UniPoly":
        return UniPoly(self.spec, [-c for c in self.coeffs])

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        self._check(other)
        return _boxed(self.spec, _poly_mul(self.spec, _values(self), _values(other)))

    def scale(self, c: FieldElement) -> "UniPoly":
        return UniPoly(self.spec, [c * a for a in self.coeffs])

    def shift_up(self, k: int) -> "UniPoly":
        """Multiply by x^k."""
        if self.is_zero():
            return self
        return UniPoly(self.spec, [self.spec.zero()] * k + list(self.coeffs))

    def __pow__(self, e: int) -> "UniPoly":
        return _power(self, UniPoly.constant(self.spec, self.spec.one()), e)

    def __divmod__(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        self._check(other)
        if other.is_zero():
            raise DivisionByZeroError("polynomial division by zero")
        q, r = _poly_divmod(self.spec, _values(self), _values(other))
        return _boxed(self.spec, q), _boxed(self.spec, r)

    def __floordiv__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[1]

    def divides(self, other: "UniPoly") -> bool:
        return (other % self).is_zero()

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        return self.scale(self.leading.inv())

    # -- calculus and evaluation ----------------------------------------------
    def eval(self, a: FieldElement) -> FieldElement:
        """Horner evaluation on canonical values; boxes only the result."""
        spec = self.spec
        if isinstance(a, FieldElement):
            if a.spec != spec:
                raise SpecMismatchError("evaluation point from a different field")
        else:
            a = spec.element(a)
        if not self.coeffs:
            return spec.zero()
        add, mul, x = spec._add, spec._mul, a.value
        acc = self.coeffs[-1].value
        for c in self.coeffs[-2::-1]:
            acc = add(mul(acc, x), c.value)
        return FieldElement(spec, acc)

    def __call__(self, a) -> FieldElement:
        return self.eval(a)

    def derivative(self) -> "UniPoly":
        """Formal derivative; characteristic-p cancellation applies."""
        return UniPoly(
            self.spec,
            [self.spec.element(i) * self.coeffs[i] for i in range(1, len(self.coeffs))],
        )

    def compose_shift(self, b: FieldElement) -> "UniPoly":
        """Return f(x + b), by Horner on coefficient values."""
        spec = self.spec
        if b.spec != spec:
            raise SpecMismatchError("shift from a different field")
        x_plus_b = [b.value, spec.one().value]
        acc = []
        for c in reversed(self.coeffs):
            acc = _poly_add(spec, _poly_mul(spec, acc, x_plus_b), [c.value])
        return _boxed(spec, acc)

    # -- comparison and printing ----------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return other.spec == self.spec and other.coeffs == self.coeffs

    def __hash__(self):
        return hash((self.spec, self.coeffs))

    def sort_key(self):
        """Total order on canonical coefficient sequences (degree first)."""
        return (self.degree, tuple(c.sort_key() for c in self.coeffs))

    def format(self, descending: bool = True, var: str = "x") -> str:
        if self.is_zero():
            return "0"
        idx = range(len(self.coeffs) - 1, -1, -1) if descending else range(len(self.coeffs))
        return _join_terms(
            _term_str(self.coeffs[i], "" if i == 0 else (var if i == 1 else f"{var}^{i}"))
            for i in idx if not self.coeffs[i].is_zero())

    def __str__(self):
        return self.format()

    def __repr__(self):
        return f"UniPoly({self.spec}, {self})"


def _values(f: UniPoly) -> list:
    return [c.value for c in f.coeffs]


def _boxed(spec: FieldSpec, values: Sequence) -> UniPoly:
    """The UniPoly with these canonical coefficient values."""
    return UniPoly(spec, [FieldElement(spec, v) for v in values])


def _term_str(c: FieldElement, body: str) -> str:
    """One printed term c*body (body "" for the constant term); negative
    rationals keep their sign on the coefficient.  A coefficient of F_{p^k}
    outside F_p prints as its generator polynomial in brackets, "[x+1]",
    which no variable x of the polynomial can be read into."""
    cs = str(c)
    if isinstance(c.spec, ExtensionField) and any(c.value[1:]):
        cs = f"[{cs}]"
    if not body:
        return cs
    if cs == "1":
        return body
    if cs == "-1":
        return "-" + body
    return f"{cs}*{body}"


def _join_terms(parts: Iterable[str]) -> str:
    """Terms joined by "+", except before a term that carries its own sign."""
    parts = list(parts)
    out = parts[0]
    for p in parts[1:]:
        out += p if p.startswith("-") else "+" + p
    return out


def gcd_poly(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd by the Euclidean algorithm."""
    if a.spec != b.spec:
        raise SpecMismatchError("gcd of polynomials over different fields")
    if a.is_zero() and b.is_zero():
        raise BothZeroError("gcd(0, 0) is undefined")
    return _boxed(a.spec, _poly_gcd(a.spec, _values(a), _values(b)))


def extended_gcd(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly, UniPoly]:
    """Return (g, u, v) with u*a + v*b = g, g the monic gcd.

    With b not dividing a, the iteration keeps deg u < deg b - deg g,
    the usual normalized Bezout pair.
    """
    if a.spec != b.spec:
        raise SpecMismatchError("gcd of polynomials over different fields")
    if a.is_zero() and b.is_zero():
        raise BothZeroError("gcd(0, 0) is undefined")
    return tuple(_boxed(a.spec, v) for v in _poly_xgcd(a.spec, _values(a), _values(b)))


def zero_multiplicity(f: UniPoly) -> tuple[int, UniPoly]:
    """Write f = x^m * h with h(0) != 0 and return (m, h)."""
    if f.is_zero():
        raise ZeroPolynomialError("zero polynomial has no such decomposition")
    m = 0
    while f.coeffs[m].is_zero():
        m += 1
    return m, UniPoly(f.spec, f.coeffs[m:])


def _int_divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def rational_roots(f: UniPoly) -> list[Fraction]:
    """All rational roots of f over Q, by the divisor test on num/den.

    Clears denominators first; candidates are +-p/q with p dividing the
    constant term and q dividing the leading coefficient.
    """
    if not isinstance(f.spec, Rationals):
        raise SpecMismatchError("rational root extraction needs a polynomial over Q")
    if f.is_zero():
        raise ZeroPolynomialError("every rational is a root of 0")
    roots: list[Fraction] = []
    m, h = zero_multiplicity(f)
    if m > 0:
        roots.append(Fraction(0))
    if h.degree < 1:
        return roots
    den_lcm = math.lcm(*(c.value.denominator for c in h.coeffs))
    ints = [int(c.value * den_lcm) for c in h.coeffs]
    a0, an = ints[0], ints[-1]
    for p in _int_divisors(a0):
        for q in _int_divisors(an):
            if math.gcd(p, q) != 1:
                continue
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if h.eval(f.spec.element(cand)).is_zero() and cand not in roots:
                    roots.append(cand)
    return sorted(roots)


def root_multiplicity(f: UniPoly, b: FieldElement) -> int:
    """Multiplicity of b as a root of f (0 if not a root)."""
    if f.is_zero():
        raise ZeroPolynomialError("multiplicity in the zero polynomial")
    linear = UniPoly(f.spec, [-b, f.spec.one()])
    k = 0
    while True:
        q, r = divmod(f, linear)
        if not r.is_zero():
            return k
        f = q
        k += 1


class MultiPoly:
    """Sparse polynomial in m >= 1 commuting variables."""

    __slots__ = ("spec", "m", "terms")

    def __init__(self, spec: FieldSpec, m: int, terms: dict[tuple[int, ...], FieldElement]):
        if m < 1:
            raise ArityMismatchError("need at least one variable")
        clean: dict[tuple[int, ...], FieldElement] = {}
        for exps, c in terms.items():
            if len(exps) != m:
                raise ArityMismatchError(
                    f"exponent tuple {exps} does not have length {m}")
            if c.spec != spec:
                raise SpecMismatchError("coefficient from a different field")
            if not c.is_zero():
                clean[tuple(exps)] = c
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    @classmethod
    def from_ints(cls, spec: FieldSpec, m: int, terms: dict) -> "MultiPoly":
        return cls(spec, m, {tuple(e): spec.element(c) for e, c in terms.items()})

    @classmethod
    def constant(cls, spec: FieldSpec, m: int, c) -> "MultiPoly":
        el = c if isinstance(c, FieldElement) else spec.element(c)
        return cls(spec, m, {(0,) * m: el})

    @classmethod
    def variable(cls, spec: FieldSpec, m: int, i: int) -> "MultiPoly":
        exps = [0] * m
        exps[i] = 1
        return cls(spec, m, {tuple(exps): spec.one()})

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def _check(self, other: "MultiPoly"):
        if other.spec != self.spec or other.m != self.m:
            raise SpecMismatchError("mixed polynomial rings")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, self.spec.zero()) + c
        return MultiPoly(self.spec, self.m, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.spec, self.m, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out: dict[tuple[int, ...], FieldElement] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                out[e] = out.get(e, self.spec.zero()) + prod
        return MultiPoly(self.spec, self.m, out)

    def __pow__(self, e: int) -> "MultiPoly":
        return _power(self, MultiPoly.constant(self.spec, self.m, self.spec.one()), e)

    def eval(self, point: Sequence[FieldElement]) -> FieldElement:
        """Evaluation on canonical values; boxes only the result."""
        if len(point) != self.m:
            raise ArityMismatchError(
                f"point has {len(point)} coordinates, polynomial has {self.m} variables")
        spec = self.spec
        for a in point:
            if a.spec != spec:
                raise SpecMismatchError("evaluation point from a different field")
        add, mul = spec._add, spec._mul
        xs = [a.value for a in point]
        acc = spec.zero().value
        for exps, c in self.terms.items():
            term = c.value
            for x, e in zip(xs, exps):
                if e:
                    term = _power(x, term, e, mul)  # term * x^e
            acc = add(acc, term)
        return FieldElement(spec, acc)

    def __call__(self, point) -> FieldElement:
        return self.eval(tuple(point))

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return other.spec == self.spec and other.m == self.m and other.terms == self.terms

    def __hash__(self):
        return hash((self.spec, self.m, tuple(sorted(self.terms.items()))))

    def format(self) -> str:
        if not self.terms:
            return "0"
        def key(item):
            exps, _ = item
            return (sum(exps), exps)
        return _join_terms(
            _term_str(c, "*".join((f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}")
                                  for i, e in enumerate(exps) if e > 0))
            for exps, c in sorted(self.terms.items(), key=key, reverse=True))

    def __str__(self):
        return self.format()

    def __repr__(self):
        return f"MultiPoly({self.spec}, m={self.m}, {self})"
