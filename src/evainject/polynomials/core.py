"""Dense univariate and sparse multivariate polynomials over a FieldSpec.

UniPoly stores the canonical values of its coefficients (fields.py) as a
tuple, ascending degree, with trailing zeros stripped; the zero polynomial
has an empty tuple and degree -1.  MultiPoly stores a map from exponent
tuples to nonzero canonical values.  All arithmetic runs on these values:
products, division, gcds and the derivative through the F[x] kernel of
fields.py (fields._poly_*), everything else through the spec's hooks; both
classes print through the kernel's term printer.  A FieldElement is built
only where the API hands one out: coeffs, leading, coeff(i), constant_term
and terms box on every read, and eval boxes its result.  All arithmetic is
exact.
"""
from __future__ import annotations

import operator
from typing import Iterable, Sequence

from ..errors import (
    ArityMismatchError,
    BothZeroError,
    DivisionByZeroError,
    SpecMismatchError,
    ZeroPolynomialError,
)
from ..fields import (
    FieldElement,
    FieldSpec,
    _join_terms,
    _poly_add,
    _poly_derivative,
    _poly_divmod,
    _poly_gcd,
    _poly_monic,
    _poly_mul,
    _poly_str,
    _poly_trim,
    _poly_xgcd,
    _power,
    _term_str,
)


def _value_in(spec: FieldSpec, a, what: str):
    """The canonical value of a FieldElement of spec, or of spec.element(a)."""
    if not isinstance(a, FieldElement):
        return spec.element(a).value
    if a.spec != spec:
        raise SpecMismatchError(f"{what} from a different field")
    return a.value


class _Frozen:
    """Immutable container: the unchecked _from_values builds every instance
    through _make, and the public constructor, __new__, checks first."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _make(cls, **slots):
        obj = object.__new__(cls)
        for name, value in slots.items():
            object.__setattr__(obj, name, value)
        return obj


class UniPoly(_Frozen):
    """Univariate polynomial with exact coefficients in one field."""

    __slots__ = ("spec", "values")

    def __new__(cls, spec: FieldSpec, coeffs: Iterable[FieldElement]):
        coeffs = list(coeffs)
        if any(c.spec != spec for c in coeffs):
            raise SpecMismatchError("coefficient from a different field")
        return cls._from_values(spec, [c.value for c in coeffs])

    # -- construction helpers ----------------------------------------------
    @classmethod
    def _from_values(cls, spec: FieldSpec, values: Iterable) -> "UniPoly":
        """Ascending canonical values of spec, trailing zeros stripped; no checks."""
        values = list(values)
        if values:  # a verdict-only tag has no zero, and no nonzero polynomial
            _poly_trim(values, spec.zero().value)
        return cls._make(spec=spec, values=tuple(values))

    @classmethod
    def from_ints(cls, spec: FieldSpec, ints: Sequence) -> "UniPoly":
        """Build from ascending int (or Fraction, over Q) coefficients."""
        return cls(spec, [spec.element(c) for c in ints])

    @classmethod
    def zero(cls, spec: FieldSpec) -> "UniPoly":
        return cls._from_values(spec, ())

    @classmethod
    def constant(cls, spec: FieldSpec, c) -> "UniPoly":
        return cls._from_values(spec, [_value_in(spec, c, "coefficient")])

    @classmethod
    def x(cls, spec: FieldSpec) -> "UniPoly":
        return cls._from_values(spec, [spec.zero().value, spec.one().value])

    # -- basic queries, boxing what they hand out ----------------------------
    @property
    def degree(self) -> int:
        return len(self.values) - 1

    def is_zero(self) -> bool:
        return not self.values

    def is_constant(self) -> bool:
        return len(self.values) <= 1

    @property
    def coeffs(self) -> tuple[FieldElement, ...]:
        return tuple(FieldElement(self.spec, v) for v in self.values)

    @property
    def leading(self) -> FieldElement:
        if self.is_zero():
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return FieldElement(self.spec, self.values[-1])

    def coeff(self, i: int) -> FieldElement:
        values = self.values
        return FieldElement(self.spec, values[i]) if 0 <= i < len(values) else self.spec.zero()

    @property
    def constant_term(self) -> FieldElement:
        return self.coeff(0)

    def is_monic(self) -> bool:
        return not self.is_zero() and self.values[-1] == self.spec.one().value

    # -- ring operations -----------------------------------------------------
    def _check(self, other: "UniPoly"):
        if other.spec != self.spec:
            raise SpecMismatchError(f"mixed fields: {self.spec} and {other.spec}")

    def __add__(self, other: "UniPoly") -> "UniPoly":
        self._check(other)
        return UniPoly._from_values(self.spec, _poly_add(self.spec, self.values, other.values))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __neg__(self) -> "UniPoly":
        neg = self.spec._neg
        return UniPoly._from_values(self.spec, [neg(c) for c in self.values])

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        self._check(other)
        return UniPoly._from_values(self.spec, _poly_mul(self.spec, self.values, other.values))

    def scale(self, c: FieldElement) -> "UniPoly":
        mul, v = self.spec._mul, _value_in(self.spec, c, "scalar")
        return UniPoly._from_values(self.spec, [mul(v, a) for a in self.values])

    def shift_up(self, k: int) -> "UniPoly":
        """Multiply by x^k."""
        if self.is_zero():
            return self
        return UniPoly._from_values(self.spec, (self.spec.zero().value,) * k + self.values)

    def __pow__(self, e: int) -> "UniPoly":
        return _power(self, UniPoly.constant(self.spec, self.spec.one()), e)

    def __divmod__(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        self._check(other)
        if other.is_zero():
            raise DivisionByZeroError("polynomial division by zero")
        q, r = _poly_divmod(self.spec, self.values, other.values)
        return UniPoly._from_values(self.spec, q), UniPoly._from_values(self.spec, r)

    def __floordiv__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[1]

    def divides(self, other: "UniPoly") -> bool:
        return (other % self).is_zero()

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        return UniPoly._from_values(self.spec, _poly_monic(self.spec, self.values))

    # -- calculus and evaluation ----------------------------------------------
    def eval(self, a: FieldElement) -> FieldElement:
        """Horner evaluation on canonical values; boxes only the result."""
        spec = self.spec
        x = _value_in(spec, a, "evaluation point")
        if not self.values:
            return spec.zero()
        add, mul = spec._add, spec._mul
        acc = self.values[-1]
        for c in self.values[-2::-1]:
            acc = add(mul(acc, x), c)
        return FieldElement(spec, acc)

    def __call__(self, a) -> FieldElement:
        return self.eval(a)

    def derivative(self) -> "UniPoly":
        """Formal derivative; characteristic-p cancellation applies."""
        return UniPoly._from_values(self.spec, _poly_derivative(self.spec, self.values))

    # -- comparison and printing ----------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return other.spec == self.spec and other.values == self.values

    def __hash__(self):
        return hash((self.spec, self.values))

    def sort_key(self):
        """Total order on canonical coefficient sequences (degree first)."""
        return (self.degree, tuple(map(self.spec._sort_key, self.values)))

    def format(self, descending: bool = True) -> str:
        return _poly_str(self.spec, self.values, descending)

    def __str__(self):
        return self.format()

    def __repr__(self):
        return f"UniPoly({self.spec}, {self})"


def gcd_poly(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd by the Euclidean algorithm."""
    if a.spec != b.spec:
        raise SpecMismatchError("gcd of polynomials over different fields")
    if a.is_zero() and b.is_zero():
        raise BothZeroError("gcd(0, 0) is undefined")
    return UniPoly._from_values(a.spec, _poly_gcd(a.spec, a.values, b.values))


def extended_gcd(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly, UniPoly]:
    """Return (g, u, v) with u*a + v*b = g, g the monic gcd.

    With b not dividing a, the iteration keeps deg u < deg b - deg g,
    the usual normalized Bezout pair.
    """
    if a.spec != b.spec:
        raise SpecMismatchError("gcd of polynomials over different fields")
    if a.is_zero() and b.is_zero():
        raise BothZeroError("gcd(0, 0) is undefined")
    return tuple(UniPoly._from_values(a.spec, v)
                 for v in _poly_xgcd(a.spec, a.values, b.values))


def zero_multiplicity(f: UniPoly) -> tuple[int, UniPoly]:
    """Write f = x^m * h with h(0) != 0 and return (m, h)."""
    if f.is_zero():
        raise ZeroPolynomialError("zero polynomial has no such decomposition")
    zero = f.spec.zero().value
    m = 0
    while f.values[m] == zero:
        m += 1
    return m, UniPoly._from_values(f.spec, f.values[m:])


class MultiPoly(_Frozen):
    """Sparse polynomial in m >= 1 commuting variables."""

    __slots__ = ("spec", "m", "values")

    def __new__(cls, spec: FieldSpec, m: int, terms: dict[tuple[int, ...], FieldElement]):
        if m < 1:
            raise ArityMismatchError("need at least one variable")
        values = {}
        for exps, c in terms.items():
            if len(exps) != m:
                raise ArityMismatchError(
                    f"exponent tuple {exps} does not have length {m}")
            if c.spec != spec:
                raise SpecMismatchError("coefficient from a different field")
            if not c.is_zero():
                values[tuple(exps)] = c.value
        return cls._from_values(spec, m, values)

    @classmethod
    def _from_values(cls, spec: FieldSpec, m: int, values: dict) -> "MultiPoly":
        """An {exponent tuple: canonical value} map without zeros, kept; no checks."""
        return cls._make(spec=spec, m=m, values=values)

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

    @property
    def terms(self) -> dict[tuple[int, ...], FieldElement]:
        return {e: FieldElement(self.spec, c) for e, c in self.values.items()}

    def is_zero(self) -> bool:
        return not self.values

    def total_degree(self) -> int:
        if not self.values:
            return -1
        return max(sum(e) for e in self.values)

    def _check(self, other: "MultiPoly"):
        if other.spec != self.spec or other.m != self.m:
            raise SpecMismatchError("mixed polynomial rings")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        return MultiPoly._from_values(self.spec, self.m,
                                      _sparse_add(self.spec, self.values, other.values))

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._from_values(self.spec, self.m, _sparse_neg(self.spec, self.values))

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        return MultiPoly._from_values(self.spec, self.m,
                                      _sparse_mul(self.spec, self.values, other.values))

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
        for exps, term in self.values.items():
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
        return other.spec == self.spec and other.m == self.m and other.values == self.values

    def __hash__(self):
        return hash((self.spec, self.m, frozenset(self.values.items())))

    def format(self) -> str:
        if not self.values:
            return "0"
        return _join_terms(
            _term_str(self.spec, self.values[exps],
                      "*".join((f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}")
                               for i, e in enumerate(exps) if e > 0))
            for exps in sorted(self.values, key=lambda e: (sum(e), e), reverse=True))

    def __str__(self):
        return self.format()

    def __repr__(self):
        return f"MultiPoly({self.spec}, m={self.m}, {self})"


# Sparse arithmetic on {exponent tuple: canonical value} maps without zero
# values, through the spec's hooks: MultiPoly's and the parser's.

def _sparse_add(spec: FieldSpec, a: dict, b: dict) -> dict:
    add, zero, out = spec._add, spec.zero().value, dict(a)
    for e, c in b.items():
        c = add(out[e], c) if e in out else c
        if c != zero:
            out[e] = c
        else:
            del out[e]
    return out


def _sparse_neg(spec: FieldSpec, a: dict) -> dict:
    neg = spec._neg
    return {e: neg(c) for e, c in a.items()}


def _sparse_mul(spec: FieldSpec, a: dict, b: dict) -> dict:
    add, mul, zero, out = spec._add, spec._mul, spec.zero().value, {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(operator.add, e1, e2))
            c = mul(c1, c2)
            out[e] = add(out[e], c) if e in out else c
    return {e: c for e, c in out.items() if c != zero}
