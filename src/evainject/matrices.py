"""Dense n x n matrices over a concrete field, with exact arithmetic.

Includes polynomial evaluation at a matrix (Horner), the companion matrix
of a monic polynomial (coefficients negated in the last column, ones on the
subdiagonal, the convention under which q(C) = 0), the index-2 nilpotent
with a single 1 in the upper-right of the leading 2 x 2 block, block
embedding A -> A + 0, the minimal polynomial by the first linear dependence
among I, A, A^2, ... over the n^2-dimensional matrix space, and the
row-major flatten / unflatten bijections between matrices and vectors.

A Matrix stores n and the flat row-major tuple of its entries' canonical
values (fields.py).  Products, sums, scaling, polynomial evaluation and the
elimination behind the minimal polynomial run on those values through the
spec's _add/_neg/_mul/_inv hooks, reading each right-hand factor as sparse
columns of nonzero entries.  A FieldElement is built only where the API
hands one out: entries and flatten box on every read.
"""
from __future__ import annotations

import math
from typing import Sequence

from .errors import (
    ConstantPolynomialError,
    DimensionTooSmallError,
    InternalInvariantError,
    LengthMismatchError,
    NotMonicError,
    SpecMismatchError,
    TargetTooSmallError,
)
from .fields import FieldElement, FieldSpec
from .polynomials.core import UniPoly, _Frozen


class Matrix(_Frozen):
    """Immutable n x n matrix over one FieldSpec, stored as the flat
    row-major tuple of its entries' canonical values."""

    __slots__ = ("spec", "n", "values")

    def __new__(cls, spec: FieldSpec, entries: Sequence[Sequence[FieldElement]]):
        rows = tuple(tuple(row) for row in entries)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise LengthMismatchError("entries must form a square n x n grid")
        for row in rows:
            for e in row:
                if not isinstance(e, FieldElement) or e.spec != spec:
                    raise SpecMismatchError(f"entry {e!r} is not an element of {spec}")
        return cls._from_values(spec, n, [e.value for row in rows for e in row])

    @classmethod
    def _from_values(cls, spec: FieldSpec, n: int, values: Sequence) -> "Matrix":
        """A flat row-major sequence of n^2 canonical values of spec; no checks."""
        return cls._make(spec=spec, n=n, values=tuple(values))

    @classmethod
    def from_rows(cls, spec: FieldSpec, rows: Sequence[Sequence]) -> "Matrix":
        return cls(spec, [[c if isinstance(c, FieldElement) else spec.element(c)
                           for c in row] for row in rows])

    @classmethod
    def zeros(cls, spec: FieldSpec, n: int) -> "Matrix":
        z = spec.zero()
        return cls(spec, [[z] * n for _ in range(n)])

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "Matrix":
        z, o = spec.zero(), spec.one()
        return cls(spec, [[o if i == j else z for j in range(n)] for i in range(n)])

    @property
    def entries(self) -> tuple[tuple[FieldElement, ...], ...]:
        """The rows of boxed entries, built on every read."""
        n, spec = self.n, self.spec
        return tuple(tuple(FieldElement(spec, v) for v in self.values[i:i + n])
                     for i in range(0, n * n, n))

    def _check(self, other: "Matrix"):
        if other.spec != self.spec:
            raise SpecMismatchError("matrices over different fields")
        if other.n != self.n:
            raise LengthMismatchError(f"dimension mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        add = self.spec._add
        return Matrix._from_values(self.spec, self.n, map(add, self.values, other.values))

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return Matrix._from_values(self.spec, self.n, map(self.spec._neg, self.values))

    def __mul__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        spec, n = self.spec, self.n
        zero = spec.zero().value
        return Matrix._from_values(spec, n, _product(spec, n, self.values, _columns(other), zero))

    def scale(self, c: FieldElement) -> "Matrix":
        if not isinstance(c, FieldElement) or c.spec != self.spec:
            raise SpecMismatchError(f"scalar {c!r} is not an element of {self.spec}")
        mul, v = self.spec._mul, c.value
        return Matrix._from_values(self.spec, self.n, [mul(v, x) for x in self.values])

    def is_zero(self) -> bool:
        zero = self.spec.zero().value
        return all(v == zero for v in self.values)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (other.spec == self.spec and other.n == self.n
                and other.values == self.values)

    def __hash__(self):
        return hash((self.spec, self.values))

    def __str__(self):
        n, fmt = self.n, self.spec._format
        rows = ["[" + ",".join(f'"{fmt(v)}"' for v in self.values[i:i + n]) + "]"
                for i in range(0, n * n, n)]
        return "[" + ",".join(rows) + "]"

    def __repr__(self):
        return f"Matrix({self.spec}, {self})"


def _columns(b: Matrix) -> list[list[tuple[int, object]]]:
    """Each column of b as its (row index, value) pairs of nonzero entries."""
    n, values, zero = b.n, b.values, b.spec.zero().value
    return [[(k, values[k * n + j]) for k in range(n) if values[k * n + j] != zero]
            for j in range(n)]


def _product(spec: FieldSpec, n: int, a: Sequence, columns: list, c) -> list:
    """Flat row-major values of a * b + c * I, for a flat row-major and b
    given by _columns; each entry costs one product per nonzero in b's column."""
    add, mul, zero = spec._add, spec._mul, spec.zero().value
    out = []
    for i in range(n):
        row = i * n
        for j, column in enumerate(columns):
            entry = c if i == j else zero
            for k, y in column:
                entry = add(entry, mul(a[row + k], y))
            out.append(entry)
    return out


def mat_poly_eval(f: UniPoly, a: Matrix) -> Matrix:
    """Evaluate f at a matrix by Horner; the constant term becomes c * I."""
    if f.spec != a.spec:
        raise SpecMismatchError("polynomial and matrix over different fields")
    spec, n = a.spec, a.n
    zero = spec.zero().value
    lead, *rest = f.values[::-1] or [zero]
    acc = [lead if i == j else zero for i in range(n) for j in range(n)]
    columns = _columns(a)
    for c in rest:  # acc = acc * a + c * I
        acc = _product(spec, n, acc, columns, c)
    return Matrix._from_values(spec, n, acc)


def companion(q: UniPoly) -> Matrix:
    """Companion matrix of a monic q of degree d >= 1; q(C) = 0 holds."""
    if q.is_zero() or q.degree < 1:
        raise ConstantPolynomialError("companion matrix needs degree >= 1")
    if not q.is_monic():
        raise NotMonicError("companion matrix needs a monic polynomial")
    spec = q.spec
    d = q.degree
    zero, one, neg = spec.zero().value, spec.one().value, spec._neg
    values = [zero] * (d * d)
    for i in range(1, d):
        values[i * d + i - 1] = one
    for i in range(d):
        values[i * d + d - 1] = neg(q.values[i])
    c = Matrix._from_values(spec, d, values)
    if not mat_poly_eval(q, c).is_zero():
        raise InternalInvariantError("companion matrix does not annihilate q")
    return c


def jordan_nilpotent_embed(n: int, spec: FieldSpec) -> Matrix:
    """The n x n nilpotent of index 2: a single 1 at position (1, 2)."""
    if n < 2:
        raise DimensionTooSmallError("an index-2 nilpotent needs n >= 2")
    values = [spec.zero().value] * (n * n)
    values[1] = spec.one().value
    return Matrix._from_values(spec, n, values)


def block_embed(c: Matrix, n: int) -> Matrix:
    """Embed a d x d block into the upper-left of an n x n zero matrix."""
    if n < c.n:
        raise TargetTooSmallError(f"cannot embed a {c.n} x {c.n} block into n={n}")
    values = [c.spec.zero().value] * (n * n)
    for i in range(c.n):
        values[i * n:i * n + c.n] = c.values[i * c.n:(i + 1) * c.n]
    return Matrix._from_values(c.spec, n, values)


def flatten(a: Matrix) -> tuple[FieldElement, ...]:
    """Row-major vector of the n^2 entries."""
    return tuple(FieldElement(a.spec, v) for v in a.values)


def unflatten(v: Sequence[FieldElement], n: int | None = None,
              spec: FieldSpec | None = None) -> Matrix:
    """Rebuild the n x n matrix from a row-major vector of length n^2."""
    if n is None:
        n = math.isqrt(len(v))
    if n * n != len(v):
        raise LengthMismatchError(f"vector of length {len(v)} is not an n x n grid")
    if spec is None:
        if not v:
            raise LengthMismatchError("empty vector needs an explicit spec")
        spec = v[0].spec
    return Matrix(spec, [list(v[i * n:(i + 1) * n]) for i in range(n)])


def _solve_linear(spec: FieldSpec, columns: list[Sequence], target: Sequence) -> list | None:
    """Solve sum_j x_j * columns[j] = target for linearly independent columns
    by Gauss-Jordan elimination on canonical values; None when target lies
    outside their span.  Independence gives column j its pivot in row j."""
    add, neg, mul, zero = spec._add, spec._neg, spec._mul, spec.zero().value
    k = len(columns)
    aug = [[column[i] for column in columns] + [t] for i, t in enumerate(target)]
    for j in range(k):
        pivot = next(i for i in range(j, len(aug)) if aug[i][j] != zero)
        aug[j], aug[pivot] = aug[pivot], aug[j]
        inv = spec._inv(aug[j][j])
        aug[j] = [mul(inv, x) for x in aug[j]]
        for i, row in enumerate(aug):
            if i != j and row[j] != zero:
                factor = neg(row[j])
                aug[i] = [add(x, mul(factor, y)) for x, y in zip(row, aug[j])]
    if any(row[k] != zero for row in aug[k:]):
        return None
    return [row[k] for row in aug[:k]]


def minimal_polynomial(a: Matrix) -> UniPoly:
    """Least-degree monic polynomial annihilating a.

    Finds the first linear dependence among I, a, a^2, ... inside the full
    n^2-dimensional matrix space by exact Gaussian elimination.
    """
    spec = a.spec
    power = Matrix.identity(spec, a.n)
    vectors = [power.values]
    while True:
        power = power * a
        combo = _solve_linear(spec, vectors, power.values)
        if combo is not None:
            m = UniPoly._from_values(spec, [spec._neg(c) for c in combo] + [spec.one().value])
            if not mat_poly_eval(m, a).is_zero():
                raise InternalInvariantError("minimal polynomial fails to annihilate")
            return m
        vectors.append(power.values)
