"""Injectivity decision procedures with machine-verified counterexamples.

Verdict semantics
-----------------
* Injective is emitted only where a proof of sufficiency exists: degree-1
  affine maps over any field, permutation polynomials over a finite field
  (scalar case), strict monotonicity over the reals (scalar case), and
  complete enumeration in the brute-force oracles.
* NotInjective always carries a Witness, a pair of distinct inputs with
  equal images that is re-verified at construction.  A non-injectivity
  claim without a checkable witness is never emitted with this status.
* NecessaryConditionFails records that injectivity is impossible (or a
  necessary condition is violated) without an exact witness in reach, for
  example over the closed-field tags where the colliding points need not
  have rational coordinates.
* Undecided is the honest fallback: notably the n < d matrix case, where
  no nonzero A satisfies f(A) = f(0) * I (certified by the Bezout
  identity on minimal polynomials) but collisions between two nonzero
  matrices are not ruled out, and the scalar case over Q, where no
  sufficient criterion is implemented.

Dispatch by base field (scalar case): algebraically closed -> injective
iff degree 1; finite -> injective iff permutation polynomial (Hermite's
criterion in power-sum form, after Lidl and Niederreiter, Finite Fields,
Lemma 7.3 and Theorem 7.4: exactly one root, and sum_c f(c)^t = 0 for
1 <= t <= q - 2 with p not dividing t, the sums read from a discrete-log
table of F_q^*; cross-checked by the first-collision scan at small q, and
replaced by that scan when the sums would pass the matrix cap; a field of
more elements than the cap is refused); the reals ->
injective iff strictly monotone; Q -> bounded search only, never Injective
for degree at least 2.

Evidence
--------
A verdict carries the intermediate result it was read from in its
evidence field: the FactorProfile on every matrix_injectivity verdict, the
PermutationCheck on permutation_verdict's, which scalar_injectivity returns
over a finite field, and the SimpleRootsReport on simple_roots_verdict's.
The other verdicts and the brute-force oracles carry none.

Everything is a pure function of its inputs and the bounds;
enumerations report the first collision in a documented scan order, so
witnesses are reproducible.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .errors import (
    AlgebraError,
    ArityMismatchError,
    ConstantPolynomialError,
    DimensionTooSmallError,
    EnumerationCapExceededError,
    GcdNotOneError,
    InconsistentMethodsError,
    InternalInvariantError,
    NotAWitnessError,
    SpecMismatchError,
)
from .fields import (
    QQ,
    AlgClosedTag,
    FieldElement,
    FieldSpec,
    Rationals,
    RealClosedTag,
    _poly_add,
    _poly_fold,
    _poly_root_order,
    _power,
    _prime_divisors,
    prime_power,
)
from .matrices import (
    Matrix,
    block_embed,
    companion,
    jordan_nilpotent_embed,
    mat_poly_eval,
    minimal_polynomial,
)
from .polynomials import (
    FactorProfile,
    MultiPoly,
    UniPoly,
    extended_gcd,
    factor_profile,
    is_strictly_monotone,
    rational_roots,
)
from .polynomials.factor import _fq_roots, _zx_from_rationals

__all__ = [
    "Bounds",
    "DEFAULT_BOUNDS",
    "Status",
    "Reason",
    "Witness",
    "Verdict",
    "PermutationCheck",
    "SimpleRootsReport",
    "BezoutCertificate",
    "verify_witness",
    "coefficient_spec",
    "scalar_injectivity",
    "permutation_check",
    "simple_roots_condition",
    "matrix_injectivity",
    "bezout_noncollision_certificate",
    "multivariate_injectivity",
    "brute_force_scalar",
    "brute_force_matrix",
    "brute_force_zero_fiber",
    "search_rational_collisions",
    "search_matrix_collisions",
    "search_tuple_collisions",
    "rational_grid",
    "monotonicity_violation",
    "permutation_verdict",
    "simple_roots_verdict",
    "search_verdict",
    "verify_verdict",
]


@dataclass(frozen=True)
class Bounds:
    """Search and enumeration limits; all overridable from the CLI."""

    height: int = 20
    scalar_cap: int = 49
    matrix_cap: int = 1_000_000


DEFAULT_BOUNDS = Bounds()


class Status(str, Enum):
    INJECTIVE = "Injective"
    NOT_INJECTIVE = "NotInjective"
    NECESSARY_CONDITION_FAILS = "NecessaryConditionFails"
    UNDECIDED = "Undecided"


class Reason:
    """Stable tags naming the criterion that produced a verdict."""

    DEGREE_ONE = "DegreeOne"
    CONSTANT = "ConstantPolynomial"
    REPEATED_ROOT_WITNESS = "RepeatedRootWitness"
    DISTINCT_ROOTS_WITNESS = "DistinctRootsWitness"
    NILPOTENT_WITNESS = "NilpotentWitness"
    COMPANION_WITNESS = "CompanionWitness"
    PIGEONHOLE = "Pigeonhole"
    OPEN_CASE_BELOW_D = "OpenCaseBelowD"
    CHAR_P_DEGENERATE = "CharPDegenerate"
    SEARCH_EXHAUSTED = "SearchExhausted"
    SEARCH_COLLISION = "SearchCollision"
    ROOTS_OUTSIDE_COMPUTABLE_FIELD = "RootsOutsideComputableField"
    PERMUTATION_POLYNOMIAL = "PermutationPolynomial"
    NOT_PERMUTATION = "NotPermutation"
    STRICTLY_MONOTONE = "StrictlyMonotone"
    NOT_MONOTONE = "NotMonotone"
    TOPOLOGICAL_ARGUMENT = "TopologicalArgument"
    INFINITE_ROOT_LOCUS = "InfiniteRootLocus"
    EXHAUSTIVE = "Exhaustive"
    SIMPLE_ROOTS_HOLD = "SimpleRootsHold"
    SIMPLE_ROOTS_FAIL = "SimpleRootsFail"
    NOT_A_WITNESS = "NotAWitness"
    VERIFIED_PAIR = "VerifiedPair"


@dataclass(frozen=True)
class Witness:
    """Verified collision: lhs != rhs and both map to image under f.

    Build through verify_witness, which re-checks the claim exactly;
    nothing else in the engine constructs these directly.
    """

    lhs: object
    rhs: object
    image: object


@dataclass(frozen=True)
class Verdict:
    status: Status
    reason: str
    detail: str
    witness: Witness | None = None
    evidence: FactorProfile | PermutationCheck | SimpleRootsReport | None = None

    def __post_init__(self):
        if self.status is Status.NOT_INJECTIVE and self.witness is None:
            raise InternalInvariantError(
                "NotInjective requires a verified witness")
        if self.status is not Status.NOT_INJECTIVE and self.witness is not None:
            raise InternalInvariantError(
                f"{self.status.value} must not carry a witness")


@dataclass(frozen=True)
class PermutationCheck:
    """Whether f permutes F_q: hermite, Hermite's criterion read from power
    sums of f's values on a discrete-log table, decides, or is None when
    its sums would pass the matrix cap; exhaustive is the first-collision
    scan's answer, which decides when hermite is None, or None when that
    scan did not cross-check (q above the scalar cap), and collision is
    the scan's verified first collision, if any."""

    hermite: bool | None
    exhaustive: bool | None
    collision: Witness | None

    @property
    def is_permutation(self) -> bool:
        return self.exhaustive if self.hermite is None else self.hermite


@dataclass(frozen=True)
class SimpleRootsReport:
    """Whether every f - t (t in F) has only simple roots in F.

    When the condition fails, violating_b is a repeated root of f - lam
    with the recorded multiplicity.  char_p_degenerate marks the f' = 0
    case, where every root of every f - t has multiplicity divisible by
    the characteristic.
    """

    holds: bool
    violating_b: FieldElement | None = None
    lam: FieldElement | None = None
    multiplicity_k: int | None = None
    char_p_degenerate: bool = False


@dataclass(frozen=True)
class BezoutCertificate:
    """u * m_a + v * g = 1, checked at A: u(A) m_a(A) + v(A) g(A) = I.

    Since m_a(A) = 0, the identity shows g(A) is invertible and therefore
    nonzero, so f(A) != f(0) * I.
    """

    u: UniPoly
    v: UniPoly
    m_a: UniPoly
    g: UniPoly


# ---------------------------------------------------------------------------
# Witness verification
# ---------------------------------------------------------------------------

def _evaluate(f, point):
    if isinstance(f, MultiPoly):
        if not isinstance(point, tuple):
            raise NotAWitnessError("multivariate inputs must be tuples")
        return f.eval(point)
    if isinstance(point, Matrix):
        return mat_poly_eval(f, point)
    if isinstance(point, FieldElement):
        return f.eval(point)
    raise NotAWitnessError(f"cannot evaluate at {type(point).__name__}")


def verify_witness(f, lhs, rhs) -> Witness:
    """Check lhs != rhs and f(lhs) = f(rhs); return the verified Witness."""
    if type(lhs) is not type(rhs) or (isinstance(lhs, Matrix) and lhs.n != rhs.n):
        raise NotAWitnessError("witness sides have different shapes")
    if lhs == rhs:
        raise NotAWitnessError("witness sides are equal")
    left = _evaluate(f, lhs)
    right = _evaluate(f, rhs)
    if left != right:
        raise NotAWitnessError(f"images differ: {left} vs {right}")
    return Witness(lhs, rhs, left)


def _first_collision(f, blocks: Iterable, box) -> Witness | None:
    """The first collision of f along blocks of points, re-checked by
    verify_witness.

    This is the one scan behind every reported collision.  Each block is
    (bucket, keys, points): points a list, and keys an iterable, possibly
    lazy, of the key of f at each point in turn.  Two points collide when
    both their bucket and their key match, so a key need only be exact
    within its bucket.  Points are taken in block order, and within a block
    in list order; the first point whose bucket and key were seen before is
    the witness rhs, and the earliest point with them is its lhs.  A block
    runs at C speed: each key goes into its bucket's table by setdefault,
    which keeps the earliest point, and the block stops at the first point
    for which setdefault returns another point (points of one scan are
    distinct objects), so a lazy key past the witness is never computed.
    The callers fix the order of points:

    * F_q: FieldSpec.values(), by index (the int itself for F_p; for
      F_{p^k} the coefficient tuple read as base-p digits, lowest first);
    * rational grid: rational_grid(height), by denominator, then numerator;
    * F^m and Q^m: itertools.product over the coordinate list, the last
      coordinate changing fastest;
    * n x n matrices: flat row-major entry tuples, itertools.product over
      the entries (F_q by index, the rational grid in its order), the last
      entry changing fastest.

    Every scan brings its own keys.  The scalar rational scan runs on the
    grid's rows (_rational_blocks): a point's bucket is the part of the
    reduced denominator of P(a/b) prime to P's leading coefficient, P the
    primitive integer multiple of f, and its key the rest of the value, an
    int or a reduced pair.  Every other scan goes through
    _keyed_blocks, in one bucket, with blocks of 16, 32, ... up to _BLOCK
    points and keys from an image function: a matrix of grid pairs is keyed
    by the reduced integer matrix and denominator of f(A), Q^m tuples by
    f's reduced pair, finite-field scalar and F_q^m points by f's canonical
    value (or tuples of them), and M_n(F_q) index tuples into
    FieldSpec.values() by f(A)'s index tuple, through q x q tables.  Only
    the two witness points are then boxed, by box, and verify_witness
    re-checks them with its own evaluator, which shares no code with the
    keys.
    """
    tables = {}
    for bucket, keys, points in blocks:
        firsts, check = itertools.tee(map(tables.setdefault(bucket, {}).setdefault, keys, points))
        hit = next(itertools.compress(zip(firsts, points), map(operator.is_not, check, points)),
                   None)
        if hit is not None:
            return verify_witness(f, box(hit[0]), box(hit[1]))
    return None


# The most points in one block of _first_collision.
_BLOCK = 1024


def _keyed_blocks(points: Iterable, image) -> Iterator[tuple]:
    """points for _first_collision, in one bucket and in blocks of 16, 32,
    64, ... up to _BLOCK points, each point keyed lazily by image(point).
    Since _first_collision computes no key past the witness, a block costs
    at most the listing of points past it, and the blocks grow from 16 so
    that a scan that collides early lists few of them."""
    points, size = iter(points), 16
    while block := list(itertools.islice(points, size)):
        yield None, map(image, block), block
        size = min(2 * size, _BLOCK)


def verify_verdict(f, lhs, rhs) -> Verdict:
    """NotInjective with the checked pair as witness, or Undecided if it fails."""
    try:
        w = verify_witness(f, lhs, rhs)
    except AlgebraError as e:
        return Verdict(Status.UNDECIDED, Reason.NOT_A_WITNESS,
                       f"the claimed pair does not verify: {e}")
    return Verdict(Status.NOT_INJECTIVE, Reason.VERIFIED_PAIR,
                   "the claimed pair verifies: distinct inputs, equal images", w)


# ---------------------------------------------------------------------------
# Rational search grids
# ---------------------------------------------------------------------------

def _grid_rows(height: int) -> Iterator[tuple[int, int, int, list[bool]]]:
    """rational_grid(height) row by row, lazily: for each denominator b in
    1..height, the row's first numerator -height*b, its length 2*height*b + 1
    and, since that first numerator is 0 mod b, the flags gcd(j, b) == 1 for
    j = 0..b-1, which itertools.compress cycles to keep the reduced a/b."""
    if height < 1:
        raise AlgebraError("search height must be at least 1")
    for b in range(1, height + 1):
        yield b, -height * b, 2 * height * b + 1, [math.gcd(j, b) == 1 for j in range(b)]


def _grid_pairs(height: int) -> Iterator[tuple[int, int]]:
    """rational_grid(height) as (num, den) int pairs, in its order, lazily."""
    return ((num, den) for den, start, length, coprime in _grid_rows(height)
            for num in itertools.compress(range(start, start + length),
                                          itertools.cycle(coprime)))


def rational_grid(height: int) -> list[Fraction]:
    """Reduced fractions a/b with 1 <= b <= height and |a/b| <= height.

    Ordered by (denominator, numerator); this order fixes which collision
    a search reports.
    """
    return [Fraction(num, den) for num, den in _grid_pairs(height)]


def _grid_size(height: int) -> int:
    """len(rational_grid(height)) = 1 + 2h(phi(1) + ... + phi(h)), by a totient sieve."""
    phi = list(range(height + 1))
    for k in range(2, height + 1):
        if phi[k] == k:  # untouched, so k is prime
            for multiple in range(k, height + 1, k):
                phi[multiple] -= phi[multiple] // k
    return 1 + 2 * height * sum(phi[1:])


_PRINTED_BITS = 4096


def _scan_size(base: int, exponent: int, cap: int, what: str, hint: str = "") -> int:
    """base ** exponent, the number of points a complete scan visits, if it
    is at most cap; else EnumerationCapExceededError, exit 64 in the CLI.

    The message prints the size in full up to _PRINTED_BITS bits, far below
    the 4,300 digits int-to-str allows, and as base^exponent past that.
    Since base ** exponent >= 2^(exponent * (bit_length(base) - 1)), a power
    whose bound passes both cap and that limit is refused before it is
    built, so a huge exponent costs nothing.
    """
    size = f"{base}^{exponent}"
    if exponent * (base.bit_length() - 1) <= max(cap.bit_length(), _PRINTED_BITS):
        total = base ** exponent
        if total <= cap:
            return total
        if total.bit_length() <= _PRINTED_BITS:
            size = str(total)
    raise EnumerationCapExceededError(f"{size} {what} exceed the cap {cap}{hint}")


def _row_values(coeffs: list[int], b: int, start: int, length: int) -> Iterator[int]:
    """N(a) = sum P_i a^i b^(d-i) for the length ints a from start on, lazily,
    P = coeffs of degree d; so P(a/b) = N(a) / b^d.

    N is a polynomial of degree d in a.  Its first d + 1 values come by
    Horner; past them, their forward differences at start are summed back
    up by d chained itertools.accumulate (Knuth, TAOCP vol. 2, 4.6.4), so
    each further value costs d additions at C speed."""
    d = len(coeffs) - 1
    weights = [c * b ** (d - i) for i, c in enumerate(coeffs)][::-1]
    values = []
    for a in range(start, start + min(length, d + 1)):
        acc = 0
        for c in weights:
            acc = acc * a + c
        values.append(acc)
    if length <= d + 1:
        return iter(values)
    for k in range(1, d + 1):  # values[k] becomes the k-th difference at start
        for j in range(d, k - 1, -1):
            values[j] -= values[j - 1]
    row = itertools.repeat(values.pop())
    for first in reversed(values):
        row = itertools.accumulate(row, initial=first)
    return itertools.islice(row, length)


def _rational_blocks(f: UniPoly, height: int, cap: int) -> Iterator[tuple]:
    """The first cap points of rational_grid(height) as _first_collision
    blocks, row by row and at most _BLOCK points each: a point a/b travels
    as the int a*(height+1) + b.  A row is cut where the cap runs out, so
    no row is built past it.

    P = c*f is the primitive integer multiple of f, of degree d, so f(u) =
    f(v) iff P(u) = P(v), and P(a/b) = N / b^d for N from _row_values.
    Split b = b1*b2, b1 made of the primes of P's leading coefficient P_d
    and b2 prime to P_d.  For a prime to b, N = P_d a^d (mod b2) is prime
    to b2, so b2^d is the part of P(a/b)'s reduced denominator prime to
    P_d: a function of the value, and its bucket.  Within the bucket the
    value is keyed by N / b1^d in lowest terms: the int N // g when g =
    gcd(N, b1^d) is b1^d, else the pair (N // g, b1^d // g).  Where b1 = 1,
    which includes every b when P_d = 1, the keys are the ints N
    themselves, taken lazily, and no gcd is taken."""
    coeffs = _zx_from_rationals(f) or [0]
    d, lead, scale, left = len(coeffs) - 1, coeffs[-1], height + 1, cap
    for b, start, length, coprime in _grid_rows(height):
        free = b
        while (g := math.gcd(free, lead)) > 1:
            free //= g
        shared, bucket = (b // free) ** d, free ** d
        nums = itertools.compress(_row_values(coeffs, b, start, length),
                                  itertools.cycle(coprime))
        points = itertools.compress(range(start * scale + b, (start + length) * scale + b, scale),
                                    itertools.cycle(coprime))
        while left and (block := list(itertools.islice(points, min(left, _BLOCK)))):
            left -= len(block)
            keys = itertools.islice(nums, len(block))
            if shared > 1:
                keys = [n // g if g == shared else (n // g, shared // g)
                        for n in keys for g in (math.gcd(n, shared),)]
            yield bucket, keys, block
        if not left:
            return


def _search_spec(f) -> Rationals:
    """f's coefficient field, which a rational collision search needs to be Q."""
    if not isinstance(f.spec, Rationals):
        raise SpecMismatchError("rational collision search needs coefficients in Q")
    return f.spec


def search_rational_collisions(f: UniPoly, height: int,
                               cap: int = DEFAULT_BOUNDS.matrix_cap) -> Witness | None:
    """Scan the rational grid for two points with equal values under f.

    Returns the first verified collision in grid order, or None.  The grid
    is streamed, and at most its first cap points are scanned: with no
    collision among them, a grid of more than cap points raises
    EnumerationCapExceededError.  The grid has at least 2h^2 + 1 points,
    so a height past that bound raises before its size is sieved.
    """
    _search_spec(f)
    w = _first_collision(f, _rational_blocks(f, height, cap),
                         lambda point: QQ.element(Fraction(*divmod(point, height + 1))))
    if w is None:
        least = 2 * height * height + 1
        size = f"at least {least}" if least > cap else _grid_size(height)
        if least > cap or size > cap:
            raise EnumerationCapExceededError(
                f"{size} grid points exceed the cap {cap}, and the first {cap} "
                "hold no collision; lower the height")
    return w


def _scalar_image(f: UniPoly):
    """f on a canonical value of its field: Horner through the spec's value
    hooks, returning f(a)'s canonical value."""
    add, mul = f.spec._add, f.spec._mul
    lead, *rest = f.values[::-1] or [f.spec.zero().value]

    def image(a):
        acc = lead
        for c in rest:
            acc = add(mul(acc, a), c)
        return acc
    return image


def _multi_image(f: MultiPoly):
    """f on a tuple of canonical values of F_q: the sum of c_e * prod a_i^e_i
    through the spec's value hooks, each power by repeated squaring.  Since
    a^e = a^((e-1) mod (q-1) + 1) on F_q for e >= 1, exponents are folded
    below q first."""
    spec = f.spec
    add, mul, zero, q = spec._add, spec._mul, spec.zero().value, spec.order
    terms = [(tuple(e and (e - 1) % (q - 1) + 1 for e in exps), c)
             for exps, c in f.values.items()]

    def image(point: tuple):
        acc = zero
        for exps, c in terms:
            for a, e in zip(point, exps):
                if e:
                    c = _power(a, c, e, mul)  # c * a^e
            acc = add(acc, c)
        return acc
    return image


def _matrix_cells(n: int) -> list[tuple[bool, list[tuple[int, int]]]]:
    """Entry (i, j) of a product of flat row-major n x n matrices X * A:
    whether it is on the diagonal, and the flat positions (i*n+k, k*n+j)
    of the factors X[i][k] * A[k][j] that sum to it."""
    return [(i == j, [(i * n + k, k * n + j) for k in range(n)])
            for i in range(n) for j in range(n)]


def _table_matrix_image(f: UniPoly, n: int, values: list):
    """The key of f(A) over F_q for A's flat row-major tuple of indices into
    values = list(f.spec.values()): the flat index tuple of f(A), by Horner
    on q x q addition and multiplication tables of indices.  The tables are
    built here from the spec's value hooks, so the scan itself calls none."""
    spec = f.spec
    index = {v: i for i, v in enumerate(values)}
    add = [[index[spec._add(a, b)] for b in values] for a in values]
    mul = [[index[spec._mul(a, b)] for b in values] for a in values]
    zero = index[spec.zero().value]
    lead, *rest = [index[c] for c in reversed(f.values)] or [zero]
    cells = _matrix_cells(n)
    start = [lead if on_diagonal else zero for on_diagonal, _ in cells]

    def image(a: tuple) -> tuple:
        times = [mul[y] for y in a]  # times[y][x] is the index of x * a[y]
        acc = start
        for c in rest:  # acc = acc * a + c * I
            product = []
            for on_diagonal, pairs in cells:
                entry = c if on_diagonal else zero
                for x, y in pairs:
                    entry = add[entry][times[y][acc[x]]]
                product.append(entry)
            acc = product
        return tuple(acc)
    return image


def _rational_matrix_image(f: UniPoly, n: int):
    """The key of f(A) over Q for A's flat row-major tuple of (num, den)
    grid pairs: with f = P/D, P in Z[x], d = deg f, L the lcm of A's
    denominators and B = L*A in Z^(n x n), the int matrix N = sum P_i B^i
    L^(d-i), by homogenized Horner, over D*L^d, reduced by the gcd of the
    denominator and every entry.  That reduced pair is canonical."""
    lcm = math.lcm(*(c.denominator for c in f.values))
    lead, *rest = [int(c * lcm) for c in reversed(f.values)] or [0]
    cells = _matrix_cells(n)
    start = [lead if on_diagonal else 0 for on_diagonal, _ in cells]

    def image(point: tuple) -> tuple:
        common = math.lcm(*[den for _, den in point])
        scaled = [num * (common // den) for num, den in point]  # B
        acc, power = start, 1
        for c in rest:  # acc = acc * B + c * L^k * I at the k-th step
            power *= common
            acc = [sum([acc[x] * scaled[y] for x, y in pairs], c * power if on_diagonal else 0)
                   for on_diagonal, pairs in cells]
        den = lcm * power
        g = math.gcd(den, *acc)
        return tuple([x // g for x in acc]), den // g
    return image


def search_matrix_collisions(f: UniPoly, n: int, height: int,
                             cap: int = DEFAULT_BOUNDS.matrix_cap) -> Witness | None:
    """Scan n x n matrices with grid entries for f(A) = f(B), A != B.

    The scan runs over itertools.product of the rational_grid(height) pairs
    (num, den), so matrices come in the documented order; each is keyed on
    plain ints by _rational_matrix_image and only the two witness matrices
    are boxed.  The grid has len(rational_grid(height)) ** (n * n) points;
    exceeding the cap raises before any grid point is built.  The grid has
    at least 2h^2 + 1 points (each phi(k) >= 1), so a height past that bound
    raises before its size is sieved.
    """
    spec = _search_spec(f)
    _check_dimension(n)
    least = 2 * height * height + 1
    if least > cap:
        raise EnumerationCapExceededError(
            f"at least {least} candidate matrices exceed the cap {cap}; lower the height")
    _scan_size(_grid_size(height), n * n, cap, "candidate matrices", "; lower the height")
    points = itertools.product(list(_grid_pairs(height)), repeat=n * n)
    return _first_collision(
        f, _keyed_blocks(points, _rational_matrix_image(f, n)),
        lambda point: Matrix._from_values(spec, n, [Fraction(*p) for p in point]))


def search_verdict(f: UniPoly, n: int | None,
                   bounds: Bounds = DEFAULT_BOUNDS) -> Verdict:
    """Bounded collision search on the rational grid, or on n x n matrices
    with grid entries when n is given."""
    if n is None:
        w = search_rational_collisions(f, bounds.height, bounds.matrix_cap)
    else:
        w = search_matrix_collisions(f, n, bounds.height, bounds.matrix_cap)
    if w is not None:
        return Verdict(Status.NOT_INJECTIVE, Reason.SEARCH_COLLISION,
                       f"collision found at height {bounds.height}", w)
    return Verdict(Status.UNDECIDED, Reason.SEARCH_EXHAUSTED,
                   f"no collision up to height {bounds.height}")


def search_tuple_collisions(f: MultiPoly, height: int,
                            cap: int = DEFAULT_BOUNDS.matrix_cap
                            ) -> tuple[Witness | None, int]:
    """Bounded collision search on Q^m at the largest height <= height whose
    grid has at most cap m-tuples, counted up from 1 before any grid is built.

    Returns (witness or None, effective height used).
    """
    _search_spec(f)
    _scan_size(_grid_size(1), f.m, cap, "points even at height 1")
    h = 1
    while h < height and _grid_size(h + 1) ** f.m <= cap:
        h += 1
    points = rational_grid(h)
    return _first_collision(
        f, _keyed_blocks(itertools.product(range(len(points)), repeat=f.m),
                         _tuple_image(f, points)),
        lambda index: tuple(QQ.element(points[i]) for i in index)), h


def _tuple_image(f: MultiPoly, points: list[Fraction]):
    """The key of f at an index tuple into points: with d_i f's degree in
    x_i, the reduced pair of sum D*c_e prod a_i^e_i b_i^(d_i-e_i) over
    D prod b_i^d_i.  Each point's row a^k b^(d-k) is computed once."""
    lcm = math.lcm(*(c.denominator for c in f.values.values()))
    terms = [(e, int(c * lcm)) for e, c in f.values.items()]
    degrees = [max((e[i] for e in f.values), default=0) for i in range(f.m)]
    rows = {d: [[r.numerator ** k * r.denominator ** (d - k) for k in range(d + 1)]
                for r in points] for d in set(degrees)}
    variable_rows = [rows[d] for d in degrees]

    def image(index: tuple[int, ...]) -> tuple[int, int]:
        point = [variable_rows[i][j] for i, j in enumerate(index)]
        num = sum(c * math.prod(row[e] for row, e in zip(point, exps)) for exps, c in terms)
        den = lcm * math.prod(row[0] for row in point)
        g = math.gcd(num, den)
        return num // g, den // g
    return image


def monotonicity_violation(f: UniPoly, height: int) -> tuple[Fraction, ...] | None:
    """Rational u < v < w showing f is not monotone: strict rise and fall.

    Used to document a NecessaryConditionFails verdict when no exact
    collision exists at the search height.  The grid is sorted by the int
    a * (L // b) = L * a/b, L the lcm of 1..height; each value is
    P(a/b) = N / b^d from _row_values, P = c*f the primitive integer
    multiple of f, and neighbours are compared by cross-multiplication.
    A negative c flips every sign but moves no sign change.  Only the
    returned points become Fractions.
    """
    _search_spec(f)
    coeffs = _zx_from_rationals(f) or [0]
    d = len(coeffs) - 1
    scale = math.lcm(*range(1, height + 1))
    keys, nums, dens = [], [], []
    for b, start, length, coprime in _grid_rows(height):
        step = scale // b
        keys += itertools.compress(range(start * step, (start + length) * step, step),
                                   itertools.cycle(coprime))
        nums += itertools.compress(_row_values(coeffs, b, start, length),
                                   itertools.cycle(coprime))
        dens += itertools.repeat(b ** d, len(keys) - len(dens))
    keys, nums, dens = zip(*sorted(zip(keys, nums, dens)))
    deltas = map(operator.sub, map(operator.mul, nums[1:], dens[:-1]),
                 map(operator.mul, nums[:-1], dens[1:]))
    last_sign = 0
    last_start = 0
    for i, delta in enumerate(deltas):
        sign = (delta > 0) - (delta < 0)
        if sign == 0:
            continue
        if last_sign != 0 and sign != last_sign:
            return tuple(Fraction(keys[j], scale) for j in (last_start, i, i + 1))
        if sign != last_sign:
            last_sign = sign
            last_start = i
    return None


# ---------------------------------------------------------------------------
# Scalar decisions
# ---------------------------------------------------------------------------

def coefficient_spec(spec: FieldSpec) -> FieldSpec:
    """The field that polynomials analyzed over spec take coefficients from:
    spec itself, or Q for the verdict-only ACF and RCF tags."""
    return QQ if spec.is_symbolic else spec


def _check_pairing(f, spec: FieldSpec):
    if f.spec != coefficient_spec(spec):
        raise SpecMismatchError(
            f"a polynomial over {f.spec} cannot be analyzed over {spec}; "
            "symbolic tags take rational coefficients")


def _generator_powers(spec: FieldSpec) -> list:
    """[g^0, g^1, ..., g^(q-2)] as canonical values, for g the first value
    in index order that generates F_q^*: g^((q-1)/r) != 1 for every prime r
    dividing q - 1."""
    q, mul, one = spec.order, spec._mul, spec.one().value
    cofactors = [(q - 1) // r for r in _prime_divisors(q - 1)]
    g = next(v for v in itertools.islice(spec.values(), 1, None)
             if all(_power(v, one, e, mul) != one for e in cofactors))
    powers = [one]
    for _ in range(q - 2):
        powers.append(mul(powers[-1], g))
    return powers


def _hermite_is_permutation(f: UniPoly, cap: int = DEFAULT_BOUNDS.matrix_cap) -> bool | None:
    """Hermite's criterion over F_q in power-sum form (Lidl and Niederreiter,
    Finite Fields, Lemma 7.3 and Theorem 7.4).

    f permutes F_q iff it has exactly one root in F_q and, for every t
    with 1 <= t <= q - 2 not divisible by the characteristic p, the
    reduction of f^t modulo x^q - x has no x^(q-1) term.  That coefficient
    is -S_t, S_t the sum of f(c)^t over c in F_q.  fields._poly_fold folds
    each exponent e >= q of f to (e-1) mod (q-1) + 1, which keeps f's
    values; after it, f^t has degree at most q - 2 while t * deg f <= q - 2,
    so S_t = 0 there and t starts at ceil((q-1) / deg f).

    The values come from a table of the powers of a generator g of F_q^*,
    built through the spec's hooks, and its inverse, the discrete log:
    f(g^j) = sum of f_i g^(i*j) and f(c)^t = g^(t * log f(c)).  A value's
    base-p digits are packed into k slots of w bits with 2^w > q(p-1), so
    one int sum of at most q packed values adds slot by slot and is
    reduced mod p once.  This evaluator shares no code with _scalar_image,
    the cross-check scan's, which runs Horner on f itself and never on the
    fold, so a fold bug cannot make the two agree on a wrong answer.

    Bounded work: the test sums q - 1 terms per nonzero non-constant
    coefficient of the folded f to evaluate it, and q - 1 per S_t.  When
    that count passes cap, it returns None before any table is built, and
    the caller decides by the O(q) scan instead.
    """
    spec = f.spec
    q, (p, k) = spec.order, prime_power(spec.order)
    m, zero = q - 1, spec.zero().value
    folded = _poly_fold(spec, f.values)
    terms = [(e, c) for e, c in enumerate(folded) if e and c != zero]
    if not terms:
        return False  # a constant; q >= 2
    constant = spec._sort_key(folded[0])
    t0 = -(-m // terms[-1][0])
    sums = (m - t0) - ((m - 1) // p - (t0 - 1) // p)  # t in [t0, q - 2], p not dividing t
    if m * (len(terms) + sums) > cap:
        return None
    w = (q * (p - 1)).bit_length()
    mask, slots = (1 << w) - 1, [(i * w, p ** i) for i in range(k)]

    def pack(index: int) -> int:
        """The element of that enumeration index, one base-p digit per slot."""
        out = 0
        for shift, _ in slots:
            index, digit = divmod(index, p)
            out |= digit << shift
        return out

    def index(s: int) -> int:
        """The enumeration index of the element a sum of packed values is."""
        return sum(((s >> shift) & mask) % p * weight for shift, weight in slots)

    log, powers = [0] * q, []  # log[index of g^j] = j; powers[j] = g^j packed
    for j, i in enumerate(map(spec._sort_key, _generator_powers(spec))):
        log[i] = j
        powers.append(pack(i))
    terms = [(e, log[spec._sort_key(c)]) for e, c in terms]
    base = pack(constant)
    roots, logs = (0, [log[constant]]) if constant else (1, [])
    for j in range(m):  # f(g^j)
        i = index(base + sum([powers[(lc + e * j) % m] for e, lc in terms]))
        if i:
            logs.append(log[i])
        elif roots:
            return False  # a second root
        else:
            roots = 1
    if not roots:
        return False
    for t in range(t0, m):
        if t % p and index(sum([powers[lt * t % m] for lt in logs])):
            return False
    return True


def permutation_check(f: UniPoly, cross_check_cap: int = DEFAULT_BOUNDS.scalar_cap,
                      cap: int = DEFAULT_BOUNDS.matrix_cap) -> PermutationCheck:
    """Run Hermite's test, cross-checked by the first-collision scan.

    Hermite's test sums powers of f's values read from a discrete-log
    table.  A field of more than cap elements is refused at once
    (EnumerationCapExceededError, exit 64 in the CLI).  When the test
    would sum more than cap terms, it does not run and the scan decides
    alone.  Otherwise the scan runs once, when q <= cross_check_cap or
    when the test says f is not a permutation, so a non-permutation
    always carries its first collision; a disagreement between the two
    methods is an implementation bug and raises loudly.
    """
    spec = f.spec
    if not spec.is_finite:
        raise SpecMismatchError("permutation polynomials live over finite fields")
    _scan_size(spec.order, 1, cap, "field elements",
               "; the permutation test tabulates or scans them all")
    hermite = _hermite_is_permutation(f, cap)
    cross_check = hermite is None or spec.order <= cross_check_cap
    collision = None
    if cross_check or not hermite:
        collision = _first_collision(f, _keyed_blocks(spec.values(), _scalar_image(f)),
                                     spec.element)
        if hermite is not None and (collision is None) != hermite:
            raise InconsistentMethodsError(
                f"Hermite's test says {hermite}, exhaustive scan says "
                f"{collision is None} for {f} over {spec}")
    return PermutationCheck(hermite, collision is None if cross_check else None, collision)


def permutation_verdict(f: UniPoly, bounds: Bounds = DEFAULT_BOUNDS) -> Verdict:
    """Injective iff f permutes F_q, else the first collision; carries the check."""
    check = permutation_check(f, bounds.scalar_cap, bounds.matrix_cap)
    if check.is_permutation:
        return Verdict(Status.INJECTIVE, Reason.PERMUTATION_POLYNOMIAL,
                       f"f permutes the {f.spec.order} elements of {f.spec}",
                       evidence=check)
    return Verdict(Status.NOT_INJECTIVE, Reason.NOT_PERMUTATION,
                   "f is not a permutation polynomial", check.collision, check)


def simple_roots_condition(f: UniPoly, spec: FieldSpec | None = None) -> SimpleRootsReport:
    """Check that f - t has only simple roots in F for every t.

    A root b of f' in F violates the condition with t = f(b), since b then
    has multiplicity at least 2 in f - f(b).  b is the least root of f':
    over F_q the first in scan order from gcd(f', x^q - x) (factor._fq_roots,
    no scan of F_q); over Q the least of rational_roots (p-adic).  When f'
    vanishes identically (char p), b = 0 and the condition fails degenerately.
    Its multiplicity k in f - f(b) comes from fields._poly_root_order.
    """
    spec = spec or f.spec
    if spec.is_symbolic:
        raise SpecMismatchError("simple-roots check needs a concrete field")
    if spec != f.spec:
        raise SpecMismatchError("report field must match the coefficient field")
    if f.degree < 1:
        raise ConstantPolynomialError("simple-roots check needs degree >= 1")
    fp = f.derivative()
    roots = _fq_roots(spec, fp.values) if spec.is_finite else rational_roots(fp)
    b = next((spec.element(r) for r in roots), None)
    if b is None:
        return SimpleRootsReport(True)
    lam = f.eval(b)
    k = _poly_root_order(spec, _poly_add(spec, f.values, [spec._neg(lam.value)]), b.value)
    return SimpleRootsReport(False, b, lam, k, char_p_degenerate=fp.is_zero())


def simple_roots_verdict(f: UniPoly, spec: FieldSpec | None = None) -> Verdict:
    """The simple-roots necessary condition as a verdict; carries the report."""
    report = simple_roots_condition(f, spec)
    if report.holds:
        return Verdict(Status.UNDECIDED, Reason.SIMPLE_ROOTS_HOLD,
                       "every f - t has only simple roots in the field; "
                       "this necessary condition decides nothing alone",
                       evidence=report)
    reason = (Reason.CHAR_P_DEGENERATE if report.char_p_degenerate
              else Reason.SIMPLE_ROOTS_FAIL)
    return Verdict(Status.NECESSARY_CONDITION_FAILS, reason,
                   f"f - {report.lam} has the root {report.violating_b} with "
                   f"multiplicity {report.multiplicity_k}; the map cannot be "
                   "injective on any algebra containing an index-2 nilpotent",
                   evidence=report)


def _pure_power_center(f: UniPoly) -> FieldElement | None:
    """b with f = lc * (x - b)^deg + f(b), if f over Q is a shifted pure
    power: b = -c_(deg-1) / (deg * lc) is then a root of order deg of f - f(b)."""
    spec, a, d = f.spec, f.values, f.degree
    b = spec.element(-a[d - 1] / (d * a[d]))
    g = _poly_add(spec, a, [-f.eval(b).value])
    return b if _poly_root_order(spec, g, b.value) == d else None


def scalar_injectivity(f: UniPoly, spec: FieldSpec | None = None,
                       bounds: Bounds = DEFAULT_BOUNDS) -> Verdict:
    """Decide injectivity of the evaluation map on the base field itself."""
    spec = spec or f.spec
    _check_pairing(f, spec)
    cspec = f.spec
    if f.degree < 1:
        w = verify_witness(f, cspec.zero(), cspec.one())
        return Verdict(Status.NOT_INJECTIVE, Reason.CONSTANT,
                       "a constant map collides everywhere", w)
    if f.degree == 1:
        return Verdict(Status.INJECTIVE, Reason.DEGREE_ONE,
                       "an affine map a*x+b with a != 0 is injective on any "
                       "algebra over the field")

    if spec.is_finite:
        return permutation_verdict(f, bounds)

    if isinstance(spec, RealClosedTag):
        if is_strictly_monotone(f):
            return Verdict(Status.INJECTIVE, Reason.STRICTLY_MONOTONE,
                           "the derivative keeps one sign on the whole real "
                           "line and deg f is odd, so f is strictly monotone")
        w = search_rational_collisions(f, bounds.height, bounds.matrix_cap)
        if w is not None:
            return Verdict(Status.NOT_INJECTIVE, Reason.NOT_MONOTONE,
                           "f is not strictly monotone; rational collision "
                           f"found at height {bounds.height}", w)
        detail = ("f is not strictly monotone on the real line, so it is not "
                  "injective on R, but no collision with rational coordinates "
                  f"was found at height {bounds.height}")
        triple = monotonicity_violation(f, min(bounds.height, 10))
        if triple is not None:
            u, v, x = triple
            detail += (f"; monotonicity violation at u={u}, v={v}, w={x}: "
                       f"f(u)={f.eval(cspec.element(u))}, "
                       f"f(v)={f.eval(cspec.element(v))}, "
                       f"f(w)={f.eval(cspec.element(x))}")
        return Verdict(Status.NECESSARY_CONDITION_FAILS, Reason.NOT_MONOTONE, detail)

    if isinstance(spec, AlgClosedTag):
        roots = rational_roots(f)
        if len(roots) >= 2:
            w = verify_witness(f, cspec.element(roots[0]), cspec.element(roots[1]))
            return Verdict(Status.NOT_INJECTIVE, Reason.DISTINCT_ROOTS_WITNESS,
                           "two distinct rational roots map to 0", w)
        if f.degree % 2 == 0:
            center = _pure_power_center(f)
            if center is not None:
                one = cspec.one()
                w = verify_witness(f, center - one, center + one)
                return Verdict(Status.NOT_INJECTIVE, Reason.REPEATED_ROOT_WITNESS,
                               "f is a shifted even power, so points placed "
                               "symmetrically around the repeated root collide", w)
        w = search_rational_collisions(f, bounds.height, bounds.matrix_cap)
        if w is not None:
            return Verdict(Status.NOT_INJECTIVE, Reason.SEARCH_COLLISION,
                           "degree >= 2 is never injective over an "
                           "algebraically closed field; rational collision "
                           "found by search", w)
        return Verdict(
            Status.NECESSARY_CONDITION_FAILS, Reason.ROOTS_OUTSIDE_COMPUTABLE_FIELD,
            "over an algebraically closed field a polynomial of degree >= 2 "
            "always takes some value twice, but the colliding points need "
            "not have rational coordinates; no exact witness was constructed "
            f"(search height {bounds.height})")

    # Q: no sufficient criterion for degree >= 2, so never Injective here.
    w = search_rational_collisions(f, bounds.height, bounds.matrix_cap)
    if w is not None:
        return Verdict(Status.NOT_INJECTIVE, Reason.SEARCH_COLLISION,
                       f"collision found by rational search at height {bounds.height}", w)
    report = simple_roots_condition(f, spec)
    if report.holds:
        extra = "the simple-roots necessary condition holds"
    else:
        extra = (f"the simple-roots condition fails at b={report.violating_b} "
                 f"(multiplicity {report.multiplicity_k} in f - {report.lam}), "
                 "which rules out injectivity on any algebra containing an "
                 "index-2 nilpotent but decides nothing on Q itself")
    return Verdict(Status.UNDECIDED, Reason.SEARCH_EXHAUSTED,
                   f"no rational collision with denominator and magnitude up "
                   f"to {bounds.height}; {extra}")


# ---------------------------------------------------------------------------
# Matrix algebra decisions
# ---------------------------------------------------------------------------

def matrix_injectivity(f: UniPoly, n: int, spec: FieldSpec | None = None) -> Verdict:
    """Decide injectivity of A -> f(A) on the n x n matrices over F.

    Writes f = c + x^m * h with h(0) != 0 and d the least degree among the
    irreducible factors of h.  m >= 2 gives the nilpotent witness, d <= n
    the embedded-companion witness (both collide with the zero matrix);
    n < d leaves injectivity undecided, although no nonzero A can collide
    with 0 there.  Every verdict carries the profile as its evidence.
    """
    spec = spec or f.spec
    _check_pairing(f, spec)
    if n < 2:
        raise DimensionTooSmallError("matrix analysis needs n >= 2; use the "
                                     "scalar analysis for n = 1")
    if f.degree < 1:
        raise ConstantPolynomialError("matrix analysis needs degree >= 1")
    profile = factor_profile(f)
    if f.degree == 1:
        return Verdict(Status.INJECTIVE, Reason.DEGREE_ONE,
                       "an affine map a*x+b with a != 0 is injective on any "
                       "algebra over the field", evidence=profile)
    cspec = f.spec
    closed = isinstance(spec, AlgClosedTag)
    kind = "algebraically closed" if closed else "real closed"
    tag_note = (" (the witness has coordinates in Q, which embeds in any "
                f"{kind} field of characteristic 0)" if spec.is_symbolic else "")

    if profile.m_mult >= 2:
        nilpotent = jordan_nilpotent_embed(n, cspec)
        w = verify_witness(f, nilpotent, Matrix.zeros(cspec, n))
        return Verdict(Status.NOT_INJECTIVE, Reason.NILPOTENT_WITNESS,
                       f"0 has multiplicity m={profile.m_mult} >= 2 in f - f(0), "
                       "so the index-2 nilpotent N satisfies f(N) = f(0)*I"
                       + tag_note, w, profile)
    if profile.d is not None and profile.d <= n:
        comp = companion(profile.chosen_q)
        w = verify_witness(f, block_embed(comp, n), Matrix.zeros(cspec, n))
        return Verdict(Status.NOT_INJECTIVE, Reason.COMPANION_WITNESS,
                       f"h has an irreducible factor q = {profile.chosen_q} of "
                       f"minimal degree d={profile.d} <= n={n}; its companion "
                       "block C' satisfies f(C') = f(0)*I" + tag_note, w, profile)

    if spec.is_symbolic:
        return Verdict(
            Status.NECESSARY_CONDITION_FAILS, Reason.ROOTS_OUTSIDE_COMPUTABLE_FIELD,
            f"over a {kind} field every irreducible factor has degree "
            f"{'1' if closed else 'at most 2'} <= n={n}, "
            "so the map is not injective, but the companion construction needs "
            f"a factor over that field and the factors over Q all have degree "
            f">= {profile.d}; no exact witness was constructed", evidence=profile)
    return Verdict(
        Status.UNDECIDED, Reason.OPEN_CASE_BELOW_D,
        f"n={n} < d={profile.d}: every nonzero A has f(A) != f(0)*I, because "
        "gcd(m_A, f - f(0)) = 1 would be contradicted (Bezout identity on the "
        "minimal polynomial); collisions between two nonzero matrices remain "
        "undecided", evidence=profile)


def bezout_noncollision_certificate(f: UniPoly, a: Matrix) -> BezoutCertificate:
    """Certificate that f(A) != f(0) * I for a nonzero A in the n < d case.

    Computes u, v with u * m_A + v * g = 1 (g = f - f(0)) and checks the
    identity at A exactly.  The gcd is 1 precisely when A is nonsingular:
    a singular A shares the factor x with g, and the certificate then does
    not exist (GcdNotOneError), although the non-collision conclusion still
    holds.
    """
    if a.is_zero():
        raise AlgebraError("the certificate concerns nonzero matrices")
    profile = factor_profile(f)
    if profile.m_mult >= 2 or profile.d is None or profile.d <= a.n:
        raise AlgebraError("the certificate applies only to profiles with n < d")
    spec = f.spec
    m_a = minimal_polynomial(a)
    g = f - UniPoly.constant(spec, f.constant_term)
    gcd, u, v = extended_gcd(m_a, g)
    if gcd.degree != 0:
        raise GcdNotOneError(
            f"gcd(m_A, g) = {gcd} is not 1; A is singular and shares the "
            "factor x with g")
    identity = Matrix.identity(spec, a.n)
    lhs = mat_poly_eval(u, a) * mat_poly_eval(m_a, a) + mat_poly_eval(v, a) * mat_poly_eval(g, a)
    if lhs != identity:
        raise InternalInvariantError("Bezout identity fails at A")
    return BezoutCertificate(u, v, m_a, g)


# ---------------------------------------------------------------------------
# Multivariate decisions
# ---------------------------------------------------------------------------

def multivariate_injectivity(f: MultiPoly, spec: FieldSpec | None = None,
                             bounds: Bounds = DEFAULT_BOUNDS) -> Verdict:
    """Decide injectivity of F^m -> F for m >= 2 variables.

    Finite fields: q^m > q forces a collision; enumeration finds the first
    one.  The reals: never injective (a continuity argument on the sphere);
    a rational collision is searched.  Algebraically closed: never
    injective (the zero locus in the last nonconstant variable is
    infinite); same search.  Q: bounded search only.
    """
    spec = spec or f.spec
    _check_pairing(f, spec)
    if f.m < 2:
        raise ArityMismatchError("multivariate analysis needs m >= 2 variables")

    if spec.is_finite:
        q = spec.order
        total = _scan_size(q, f.m, bounds.matrix_cap, "points")
        values = list(spec.values())
        w = _first_collision(f, _keyed_blocks(itertools.product(values, repeat=f.m),
                                              _multi_image(f)),
                             lambda point: tuple(map(spec.element, point)))
        if w is None:
            raise InternalInvariantError("no collision in a full scan of F^m")
        return Verdict(Status.NOT_INJECTIVE, Reason.PIGEONHOLE,
                       f"|F^{f.m}| = {total} exceeds |F| = {q}, so the "
                       "map cannot be injective; first collision in "
                       "enumeration order", w)

    w, used_height = search_tuple_collisions(f, bounds.height, bounds.matrix_cap)
    if isinstance(spec, RealClosedTag):
        if w is not None:
            return Verdict(Status.NOT_INJECTIVE, Reason.TOPOLOGICAL_ARGUMENT,
                           "a polynomial in m >= 2 variables is never injective "
                           "on R^m (restricting to the unit sphere gives a "
                           "continuous injection of a connected compact space "
                           "into R, which cannot exist); collision found at "
                           f"height {used_height}", w)
        return Verdict(Status.NECESSARY_CONDITION_FAILS, Reason.TOPOLOGICAL_ARGUMENT,
                       "a polynomial in m >= 2 variables is never injective on "
                       "R^m, but no collision with rational coordinates was "
                       f"found up to height {used_height}")
    if isinstance(spec, AlgClosedTag):
        if w is not None:
            return Verdict(Status.NOT_INJECTIVE, Reason.INFINITE_ROOT_LOCUS,
                           "over an algebraically closed field a nonconstant "
                           "polynomial in m >= 2 variables has an infinite "
                           "fiber, so the map is never injective; collision "
                           f"found at height {used_height}", w)
        return Verdict(Status.NECESSARY_CONDITION_FAILS, Reason.INFINITE_ROOT_LOCUS,
                       "never injective over an algebraically closed field for "
                       "m >= 2, but no collision with rational coordinates was "
                       f"found up to height {used_height}")
    if w is not None:
        return Verdict(Status.NOT_INJECTIVE, Reason.SEARCH_COLLISION,
                       f"collision found by rational search at height {used_height}", w)
    return Verdict(Status.UNDECIDED, Reason.SEARCH_EXHAUSTED,
                   f"no collision among rational points up to height {used_height}; "
                   "no criterion for Q^m is implemented")


# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------

def brute_force_scalar(f: UniPoly, bounds: Bounds = DEFAULT_BOUNDS) -> Verdict:
    """Exhaustive scalar oracle: scan all of F_q and compare image size."""
    spec = f.spec
    if not spec.is_finite:
        raise SpecMismatchError("brute force enumerates finite fields")
    if spec.order > bounds.scalar_cap:
        raise EnumerationCapExceededError(
            f"q = {spec.order} exceeds the scalar cap {bounds.scalar_cap}")
    w = _first_collision(f, _keyed_blocks(spec.values(), _scalar_image(f)), spec.element)
    return _exhaustive_verdict(w, spec.order)


def _exhaustive_verdict(w: Witness | None, total: int) -> Verdict:
    """The oracles' verdict on a complete scan of total points that found w."""
    if w is not None:
        return Verdict(Status.NOT_INJECTIVE, Reason.EXHAUSTIVE,
                       "collision found by complete enumeration", w)
    return Verdict(Status.INJECTIVE, Reason.EXHAUSTIVE,
                   f"all {total} values are distinct")


def _check_dimension(n: int):
    """Matrix scans need n >= 1: below that there is no matrix to scan."""
    if n < 1:
        raise DimensionTooSmallError(f"matrix dimension n={n} must be at least 1")


def _oracle_matrices(f: UniPoly, n: int, spec: FieldSpec | None, bounds: Bounds
                     ) -> tuple[int, Iterator[tuple], Callable, Callable]:
    """For the oracles below, once the field and the cap allow a complete
    enumeration of M_n(F_q): its size, its matrices in scan order, their
    key and their boxing.

    A matrix is its flat row-major tuple of indices into list(spec.values()),
    and itertools.product(range(q), repeat=n*n) lists them, so the scan
    order is the documented one on values.  Index 0 is zero, so the first
    point is the zero matrix.  For n >= 2 the key is _table_matrix_image on
    q x q tables, whose q^2 entries are at most the q^(n^2) points; for n = 1,
    where q may reach the cap, M_1(F_q) = F_q is keyed by _scalar_image.
    box turns an index tuple back into a Matrix of values.
    """
    spec = spec or f.spec
    if spec != f.spec:
        raise SpecMismatchError("oracle field must match the coefficient field")
    if not spec.is_finite:
        raise SpecMismatchError("brute force enumerates finite fields")
    _check_dimension(n)
    q = spec.order
    total = _scan_size(q, n * n, bounds.matrix_cap, "matrices")
    values = list(spec.values())
    if n > 1:
        image = _table_matrix_image(f, n, values)
    else:
        scalar = _scalar_image(f)

        def image(a: tuple):
            return scalar(values[a[0]])

    def box(a: tuple) -> Matrix:
        return Matrix._from_values(spec, n, [values[i] for i in a])
    return total, itertools.product(range(q), repeat=n * n), image, box


def brute_force_matrix(f: UniPoly, n: int, spec: FieldSpec | None = None,
                       bounds: Bounds = DEFAULT_BOUNDS) -> Verdict:
    """Exhaustive matrix oracle over a finite field: scan all of M_n(F_q)."""
    total, matrices, image, box = _oracle_matrices(f, n, spec, bounds)
    return _exhaustive_verdict(_first_collision(f, _keyed_blocks(matrices, image), box),
                               total)


def brute_force_zero_fiber(f: UniPoly, n: int, spec: FieldSpec | None = None,
                           bounds: Bounds = DEFAULT_BOUNDS) -> list[Matrix]:
    """All nonzero A with f(A) = f(0) * I, by complete enumeration.

    Empty exactly when no nonzero matrix collides with 0; confirms the
    n < d conclusion on small instances.
    """
    _, matrices, image, box = _oracle_matrices(f, n, spec, bounds)
    zero = next(matrices)
    target = image(zero)
    return [box(a) for a in matrices if image(a) == target]
