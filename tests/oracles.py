"""Independent brute-force oracles used only by the tests.

These deliberately avoid the library's own algorithms: the characteristic
polynomial comes from cofactor expansion (the minimal polynomial uses
Krylov elimination), factorization comes from trial division over all
monic polynomials (the library uses distinct/equal-degree splitting),
injectivity comes from complete image scans, and polynomial products,
long division, Euclid and extended Euclid, matrix products and the
evaluation of polynomials at scalars, points, matrices and x + b run on
boxed FieldElements (the library runs them on canonical values:
fields._poly_*, matrices._product, UniPoly.eval and MultiPoly.eval).  Each read of coeffs or entries boxes the whole container,
so the oracles read each container once per call.  elements_built counts
the FieldElements a call builds, for the tests that keep work on values.
Permutations of F_q come from Hermite's criterion by degree reduction of
sparse powers of f (the library reads the same coefficients as power sums
from a discrete-log table).  Rational roots come from the divisor test and
prime powers from exact integer k-th roots (the library lifts roots modulo
a prime and takes rounded float roots).  A root's multiplicity comes from
repeated boxed division by x - b, and independently from the order at 0 of
the boxed Taylor shift f(x + b) (the library divides by x - b on values,
fields._poly_root_order).
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

from evainject import FieldElement, Matrix, UniPoly
from evainject.fields import is_prime


def all_polys(spec, max_degree):
    """Every polynomial with deg <= max_degree, as coefficient sweeps."""
    elements = list(spec.elements())
    for coeffs in itertools.product(elements, repeat=max_degree + 1):
        yield UniPoly(spec, list(coeffs))


def monic_polys(spec, degree):
    elements = list(spec.elements())
    for coeffs in itertools.product(elements, repeat=degree):
        yield UniPoly(spec, list(coeffs) + [spec.one()])


def boxed_mul(a, b):
    """a * b by the schoolbook product on FieldElements."""
    spec, a, b = a.spec, a.coeffs, b.coeffs
    if not a or not b:
        return UniPoly.zero(spec)
    out = [spec.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return UniPoly(spec, out)


def boxed_divmod(a, b):
    """(q, r) with a = q*b + r, deg r < deg b, by long division on
    FieldElements; b nonzero."""
    spec, r, b = a.spec, list(a.coeffs), b.coeffs
    q = [spec.zero()] * max(len(r) - len(b) + 1, 0)
    inv_lead = b[-1].inv()
    while len(r) >= len(b):
        shift = len(r) - len(b)
        c = r[-1] * inv_lead
        q[shift] = c
        for i, bi in enumerate(b):
            r[shift + i] = r[shift + i] - c * bi
        while r and r[-1].is_zero():
            r.pop()
    return UniPoly(spec, q), UniPoly(spec, r)


def boxed_gcd(a, b):
    """Monic gcd of a and b, not both zero, by Euclid on FieldElements."""
    while not b.is_zero():
        a, b = b, boxed_divmod(a, b)[1]
    return a.monic()


def boxed_xgcd(a, b):
    """(g, u, v) with u*a + v*b = g, g the monic gcd of a and b, not both
    zero, by extended Euclid on FieldElements."""
    spec = a.spec
    one, zero = UniPoly.constant(spec, spec.one()), UniPoly.zero(spec)
    r0, r1, u0, u1, v0, v1 = a, b, one, zero, zero, one
    while not r1.is_zero():
        q, r = boxed_divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - boxed_mul(q, u1)
        v0, v1 = v1, v0 - boxed_mul(q, v1)
    lead_inv = r0.leading.inv()
    return r0.scale(lead_inv), u0.scale(lead_inv), v0.scale(lead_inv)


def divmod_root_multiplicity(f, b) -> int:
    """Multiplicity of b as a root of a nonzero f (0 if not a root), by
    boxed division by x - b until a remainder is nonzero."""
    linear = UniPoly(f.spec, [-b, f.spec.one()])
    k = 0
    while True:
        q, r = boxed_divmod(f, linear)
        if not r.is_zero():
            return k
        f = q
        k += 1


def boxed_powmod(a, e, mod):
    """a^e modulo mod (deg mod >= 1) by e boxed products and divisions."""
    result = UniPoly.constant(a.spec, a.spec.one())
    for _ in range(e):
        result = boxed_divmod(boxed_mul(result, a), mod)[1]
    return result


def boxed_matmul(a, b):
    """a * b for n x n matrices by the triple loop on FieldElements."""
    n, spec, a, b = a.n, a.spec, a.entries, b.entries
    out = [[spec.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i][j] = out[i][j] + a[i][k] * b[k][j]
    return Matrix(spec, out)


def boxed_mat_poly_eval(f, a):
    """f(A) by Horner on FieldElements: acc = acc * A + c * I, with the
    product from boxed_matmul."""
    n, spec = a.n, a.spec
    acc = Matrix.zeros(spec, n)
    for c in reversed(f.coeffs):
        product = boxed_matmul(acc, a).entries
        acc = Matrix(spec, [[product[i][j] + (c if i == j else spec.zero())
                             for j in range(n)] for i in range(n)])
    return acc


def boxed_uni_eval(f, x):
    """f(x) by Horner on FieldElements."""
    acc = f.spec.zero()
    for c in reversed(f.coeffs):
        acc = acc * x + c
    return acc


def boxed_compose_shift(f, b):
    """f(x + b) by Horner on polynomials with boxed coefficients."""
    spec = f.spec
    x_plus_b = UniPoly(spec, [b, spec.one()])
    acc = UniPoly.zero(spec)
    for c in reversed(f.coeffs):
        acc = boxed_mul(acc, x_plus_b)
        acc = UniPoly(spec, [acc.coeff(0) + c] + list(acc.coeffs[1:]))
    return acc


def boxed_multi_eval(f, point):
    """f(point) as the sum of c * x1^e1 * ... * xm^em on FieldElements,
    each power by FieldElement's square-and-multiply."""
    acc = f.spec.zero()
    for exps, c in f.terms.items():
        term = c
        for x, e in zip(point, exps):
            term = term * x ** e
        acc = acc + term
    return acc


def trial_division_factor(f):
    """Factor a finite-field polynomial by dividing out monic polynomials
    in ascending degree order; only irreducibles survive the sweep."""
    unit = f.leading
    g = f.monic()
    factors = {}
    d = 1
    while g.degree > 0:
        for p in monic_polys(f.spec, d):
            count = 0
            while g.degree >= p.degree:
                q, r = boxed_divmod(g, p)
                if not r.is_zero():
                    break
                g = q
                count += 1
            if count:
                factors[p] = count
        d += 1
    return unit, factors


def charpoly_cofactor(a: Matrix) -> UniPoly:
    """det(x*I - A) by cofactor expansion along the first row."""
    spec = a.spec
    x, entries = UniPoly.x(spec), a.entries
    grid = [[x - UniPoly.constant(spec, entries[i][j])
             if i == j else -UniPoly.constant(spec, entries[i][j])
             for j in range(a.n)] for i in range(a.n)]
    return _det(grid, spec)


def _det(rows, spec):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = UniPoly.zero(spec)
    for j in range(n):
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = rows[0][j] * _det(minor, spec)
        total = total + term if j % 2 == 0 else total - term
    return total


def image_is_injective(f) -> bool:
    """Scalar injectivity by a complete image scan."""
    seen = set()
    for a in f.spec.elements():
        v = f.eval(a)
        if v in seen:
            return False
        seen.add(v)
    return True


def degree_reduction_is_permutation(f) -> bool:
    """Hermite's criterion by degree reduction: f permutes F_q iff it has
    exactly one root in F_q (by boxed Horner) and, for every t with
    1 <= t <= q - 2 not divisible by the characteristic, f^t reduced
    modulo x^q - x has no x^(q-1) term.

    Powers are sparse {exponent: canonical value} maps without zero values,
    each f^t the product of f^(t-1) and f; an exponent e >= q folds to
    ((e-1) mod (q-1)) + 1.  (The library reads the same coefficient as
    -sum f(c)^t from a discrete-log table.)
    """
    spec = f.spec
    q, p = spec.order, spec.characteristic
    add, mul, zero = spec._add, spec._mul, spec.zero().value
    if sum(1 for a in spec.elements() if boxed_uni_eval(f, a).is_zero()) != 1:
        return False

    def reduced(pairs) -> dict:
        out = {}
        for e, c in pairs:
            if e >= q:
                e = (e - 1) % (q - 1) + 1
            out[e] = add(out.get(e, zero), c)
        return {e: c for e, c in out.items() if c != zero}

    terms = reduced(enumerate(f.values))
    ft = terms
    for t in range(1, q - 1):
        if t > 1:
            ft = reduced((e1 + e2, mul(c1, c2))
                         for e1, c1 in ft.items() for e2, c2 in terms.items())
        if t % p != 0 and q - 1 in ft:
            return False
    return True


def power_sum_eval(f, point):
    """f at a scalar, a tuple or a matrix as sum c_i * point^i, no Horner."""
    if isinstance(point, tuple):
        return boxed_multi_eval(f, point)
    if isinstance(point, Matrix):
        n = point.n
        acc = Matrix.zeros(point.spec, n)
        power = Matrix.identity(point.spec, n)
        for c in f.coeffs:
            acc_rows, power_rows = acc.entries, power.entries
            acc = Matrix(point.spec, [[acc_rows[i][j] + c * power_rows[i][j]
                                       for j in range(n)] for i in range(n)])
            power = boxed_matmul(power, point)
        return acc
    acc = f.spec.zero()
    for i, c in enumerate(f.coeffs):
        acc = acc + c * point ** i
    return acc


def first_collision(f, points):
    """(a, b) for the first point b whose image some earlier point a shares,
    a the earliest such; None if all images differ.  Compares every pair."""
    earlier = []
    for b in points:
        fb = power_sum_eval(f, b)
        for a, fa in earlier:
            if fa == fb:
                return a, b
        earlier.append((b, fb))
    return None


def field_elements(spec):
    """F_q by index: element_from_index(0), ..., element_from_index(q - 1)."""
    return [spec.element_from_index(i) for i in range(spec.order)]


def rational_points(spec, height):
    """Reduced a/b with 1 <= b <= height, |a/b| <= height, by (b, a)."""
    return [spec.element(Fraction(a, b))
            for b in range(1, height + 1)
            for a in range(-height * b, height * b + 1)
            if math.gcd(a, b) == 1]


def grid_matrices(spec, n, entries):
    """n x n matrices over the entry list, row-major, last entry fastest;
    lazily, so a scan that stops early builds only what it reads."""
    return (Matrix(spec, [flat[i * n:(i + 1) * n] for i in range(n)])
            for flat in itertools.product(entries, repeat=n * n))


def zero_fiber(f, n):
    """Nonzero A in M_n(F_q) with f(A) = f(0) * I, in grid_matrices order,
    by boxed Horner on every matrix."""
    spec = f.spec
    zero = Matrix.zeros(spec, n)
    target = boxed_mat_poly_eval(f, zero)
    return [a for a in grid_matrices(spec, n, field_elements(spec))
            if a != zero and boxed_mat_poly_eval(f, a) == target]


def elements_built(monkeypatch, call):
    """call()'s result and the number of FieldElements it built."""
    built = []
    init = FieldElement.__init__

    def counting_init(self, spec, value):
        built.append(value)
        init(self, spec, value)
    monkeypatch.setattr(FieldElement, "__init__", counting_init)
    result = call()
    monkeypatch.undo()
    return result, len(built)


def _divisors(n: int) -> set[int]:
    n = abs(n)
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return set(small + [n // d for d in small])


def divisor_rational_roots(f) -> list[Fraction]:
    """The distinct rational roots of f over Q by the divisor test: with
    denominators cleared and x^m divided out, a root u/v in lowest terms has
    u | a0 and v | an, so every coprime +-u/v is tried by integer Horner on
    the homogenized sum of c_i u^i v^(n-i)."""
    values = [c.value for c in f.coeffs]
    m = next(i for i, c in enumerate(values) if c)
    h = values[m:]
    den = math.lcm(*(c.denominator for c in h))
    ints = [int(c * den) for c in h]
    roots = [Fraction(0)] if m else []
    for u in _divisors(ints[0]):
        for v in _divisors(ints[-1]):
            for w in (u, -u):
                acc, scale = 0, 1
                for c in reversed(ints):
                    acc, scale = acc * w + c * scale, scale * v
                if acc == 0 and math.gcd(u, v) == 1:
                    roots.append(Fraction(w, v))
    return sorted(roots)


def _iroot(n: int, k: int) -> int:
    """Largest r >= 0 with r**k <= n, by integer Newton steps from above."""
    if n < 2:
        return n
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def iroot_prime_power(q: int):
    """(p, k) with q = p^k and p prime, or None, by an exact integer k-th
    root for every exponent from the largest down: the first exact root is
    the least base, and is_prime raises for a base at or above its cap."""
    for k in range(max(q.bit_length() - 1, 1), 0, -1):
        p = _iroot(q, k)
        if p ** k == q:
            return (p, k) if is_prime(p) else None
    return None
