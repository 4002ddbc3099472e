"""Dense n x n matrices over a concrete field, with exact arithmetic.

Includes polynomial evaluation at a matrix (Horner), the companion matrix
of a monic polynomial (coefficients negated in the last column, ones on the
subdiagonal, the convention under which q(C) = 0), the index-2 nilpotent
with a single 1 in the upper-right of the leading 2 x 2 block, block
embedding A -> A + 0, the minimal polynomial by the first linear dependence
among I, A, A^2, ... over the n^2-dimensional matrix space, and the
row-major flatten / unflatten bijections between matrices and vectors.

Products, sums, scaling and polynomial evaluation run on the entries'
canonical values through the spec's _add/_neg/_mul hooks, reading each
right-hand factor as sparse columns of nonzero entries, and box only the
resulting matrix.
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
from .polynomials.core import UniPoly


class Matrix:
    """Immutable n x n matrix; entries share one FieldSpec."""

    __slots__ = ("spec", "n", "entries")

    def __init__(self, spec: FieldSpec, entries: Sequence[Sequence[FieldElement]]):
        rows = tuple(tuple(row) for row in entries)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise LengthMismatchError("entries must form a square n x n grid")
        for row in rows:
            for e in row:
                if not isinstance(e, FieldElement) or e.spec != spec:
                    raise SpecMismatchError(f"entry {e!r} is not an element of {spec}")
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

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

    def _check(self, other: "Matrix"):
        if other.spec != self.spec:
            raise SpecMismatchError("matrices over different fields")
        if other.n != self.n:
            raise LengthMismatchError(f"dimension mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        add = self.spec._add
        return _boxed(self.spec, self.n,
                      [add(x, y) for x, y in zip(_values(self), _values(other))])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        add, neg = self.spec._add, self.spec._neg
        return _boxed(self.spec, self.n,
                      [add(x, neg(y)) for x, y in zip(_values(self), _values(other))])

    def __neg__(self) -> "Matrix":
        neg = self.spec._neg
        return _boxed(self.spec, self.n, [neg(x) for x in _values(self)])

    def __mul__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        spec, n = self.spec, self.n
        zero = spec.zero().value
        return _boxed(spec, n, _product(spec, n, _values(self), _columns(other), zero))

    def scale(self, c: FieldElement) -> "Matrix":
        if not isinstance(c, FieldElement) or c.spec != self.spec:
            raise SpecMismatchError(f"scalar {c!r} is not an element of {self.spec}")
        mul, v = self.spec._mul, c.value
        return _boxed(self.spec, self.n, [mul(v, x) for x in _values(self)])

    def is_zero(self) -> bool:
        zero = self.spec.zero().value
        return all(e.value == zero for row in self.entries for e in row)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (other.spec == self.spec and other.n == self.n
                and other.entries == self.entries)

    def __hash__(self):
        return hash((self.spec, self.entries))

    def __str__(self):
        rows = ["[" + ",".join(f'"{e}"' for e in row) + "]" for row in self.entries]
        return "[" + ",".join(rows) + "]"

    def __repr__(self):
        return f"Matrix({self.spec}, {self})"


def _values(a: Matrix) -> list:
    """a's canonical entry values, flat and row-major."""
    return [e.value for row in a.entries for e in row]


def _boxed(spec: FieldSpec, n: int, values: Sequence) -> Matrix:
    """The n x n Matrix of a flat row-major sequence of canonical values of
    spec; builds one FieldElement per entry and checks nothing else."""
    m = object.__new__(Matrix)
    object.__setattr__(m, "spec", spec)
    object.__setattr__(m, "n", n)
    object.__setattr__(m, "entries", tuple(
        tuple([FieldElement(spec, v) for v in values[i:i + n]])
        for i in range(0, n * n, n)))
    return m


def _columns(b: Matrix) -> list[list[tuple[int, object]]]:
    """Each column of b as its (row index, value) pairs of nonzero entries."""
    zero = b.spec.zero().value
    return [[(k, row[j].value) for k, row in enumerate(b.entries) if row[j].value != zero]
            for j in range(b.n)]


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
    lead, *rest = [c.value for c in reversed(f.coeffs)] or [zero]
    acc = [lead if i == j else zero for i in range(n) for j in range(n)]
    columns = _columns(a)
    for c in rest:  # acc = acc * a + c * I
        acc = _product(spec, n, acc, columns, c)
    return _boxed(spec, n, acc)


def companion(q: UniPoly) -> Matrix:
    """Companion matrix of a monic q of degree d >= 1; q(C) = 0 holds."""
    if q.is_zero() or q.degree < 1:
        raise ConstantPolynomialError("companion matrix needs degree >= 1")
    if not q.is_monic():
        raise NotMonicError("companion matrix needs a monic polynomial")
    spec = q.spec
    d = q.degree
    z = spec.zero()
    grid = [[z] * d for _ in range(d)]
    for i in range(1, d):
        grid[i][i - 1] = spec.one()
    for i in range(d):
        grid[i][d - 1] = -q.coeffs[i]
    c = Matrix(spec, grid)
    if not mat_poly_eval(q, c).is_zero():
        raise InternalInvariantError("companion matrix does not annihilate q")
    return c


def jordan_nilpotent_embed(n: int, spec: FieldSpec) -> Matrix:
    """The n x n nilpotent of index 2: a single 1 at position (1, 2)."""
    if n < 2:
        raise DimensionTooSmallError("an index-2 nilpotent needs n >= 2")
    z = spec.zero()
    grid = [[z] * n for _ in range(n)]
    grid[0][1] = spec.one()
    return Matrix(spec, grid)


def block_embed(c: Matrix, n: int) -> Matrix:
    """Embed a d x d block into the upper-left of an n x n zero matrix."""
    if n < c.n:
        raise TargetTooSmallError(f"cannot embed a {c.n} x {c.n} block into n={n}")
    z = c.spec.zero()
    grid = [[z] * n for _ in range(n)]
    for i in range(c.n):
        for j in range(c.n):
            grid[i][j] = c.entries[i][j]
    return Matrix(c.spec, grid)


def flatten(a: Matrix) -> tuple[FieldElement, ...]:
    """Row-major vector of the n^2 entries."""
    return tuple(e for row in a.entries for e in row)


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


def _solve_linear(columns: list[tuple[FieldElement, ...]],
                  target: tuple[FieldElement, ...],
                  spec: FieldSpec) -> list[FieldElement] | None:
    """Solve sum_j x_j * columns[j] = target by Gaussian elimination."""
    rows = len(target)
    k = len(columns)
    aug = [[columns[j][i] for j in range(k)] + [target[i]] for i in range(rows)]
    pivots = []
    r = 0
    for col in range(k):
        pivot = next((i for i in range(r, rows) if not aug[i][col].is_zero()), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = aug[r][col].inv()
        aug[r] = [inv * x for x in aug[r]]
        for i in range(rows):
            if i != r and not aug[i][col].is_zero():
                factor = aug[i][col]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if not aug[i][k].is_zero():
            return None
    solution = [spec.zero()] * k
    for row_idx, col in enumerate(pivots):
        solution[col] = aug[row_idx][k]
    return solution


def minimal_polynomial(a: Matrix) -> UniPoly:
    """Least-degree monic polynomial annihilating a.

    Finds the first linear dependence among I, a, a^2, ... inside the full
    n^2-dimensional matrix space by exact Gaussian elimination.
    """
    spec = a.spec
    powers = [Matrix.identity(spec, a.n)]
    vectors = [flatten(powers[0])]
    while True:
        nxt = powers[-1] * a
        target = flatten(nxt)
        combo = _solve_linear(vectors, target, spec)
        if combo is not None:
            coeffs = [-c for c in combo] + [spec.one()]
            m = UniPoly(spec, coeffs)
            if not mat_poly_eval(m, a).is_zero():
                raise InternalInvariantError("minimal polynomial fails to annihilate")
            return m
        powers.append(nxt)
        vectors.append(target)
