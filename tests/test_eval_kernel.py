"""Evaluation and matrix arithmetic on canonical values against boxed oracles.

mat_poly_eval, Matrix products, sums and scaling, UniPoly.eval,
MultiPoly.eval and the root order fields._poly_root_order run on the
canonical values the containers store.  Over F2, F3, F4, F9, F53 and Q,
with n = 1..4, they must equal Horner, the triple loop, power products and
the order at 0 of the Taylor shift on boxed FieldElements
(tests/oracles.py), on dense and on sparse matrices (zero, the index-2
nilpotent, a block-embedded companion), for the zero and constant
polynomials, for roots of order 3 to 5 and, in characteristic 2 and 3, for
g(x^p), whose roots have orders divisible by p.  The re-check must reject a
pair whose images differ in one off-diagonal entry; a degree-16 evaluation
at a 3 x 3 matrix must build no FieldElement, and a scalar evaluation only
the one it returns.  The boxed reads coeffs, entries and terms must give back
equal containers with equal hashes through the public constructors.
"""
import random
from fractions import Fraction

import pytest
from oracles import (
    boxed_compose_shift,
    boxed_mat_poly_eval,
    boxed_matmul,
    boxed_multi_eval,
    boxed_uni_eval,
    elements_built,
)

from evainject import (
    QQ,
    ExtensionField,
    Matrix,
    MultiPoly,
    PrimeField,
    UniPoly,
    block_embed,
    companion,
    jordan_nilpotent_embed,
    mat_poly_eval,
    verify_witness,
    zero_multiplicity,
)
from evainject.errors import NotAWitnessError
from evainject.fields import _poly_root_order

FIELDS = [PrimeField(2), PrimeField(3), ExtensionField.from_order(4),
          ExtensionField.from_order(9), PrimeField(53), QQ]
IDS = [repr(spec) for spec in FIELDS]
# x^16-5x^15-7x^14+6x^13+x^12+2x^11+9x^10-6x^9-6x^8+3x^6+8x^5+x^4+4x^3+7x^2-3
DEGREE_16 = [-3, 0, 7, 4, 1, 8, 3, 0, -6, -6, 9, 2, 1, 6, -7, -5, 1]


def _draw(spec, rng):
    if spec is QQ:
        return QQ.element(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
    return spec.element_from_index(rng.randrange(spec.order))


def _poly(spec, rng, degree):
    return UniPoly(spec, [_draw(spec, rng) for _ in range(degree + 1)])


def _matrices(spec, n, rng):
    """Dense random matrices, the zero matrix, the index-2 nilpotent and a
    companion block of every degree d <= n embedded in M_n."""
    out = [Matrix(spec, [[_draw(spec, rng) for _ in range(n)] for _ in range(n)])
           for _ in range(3)]
    out.append(Matrix.zeros(spec, n))
    if n >= 2:
        out.append(jordan_nilpotent_embed(n, spec))
    for d in range(1, n + 1):
        q = UniPoly(spec, [_draw(spec, rng) for _ in range(d)] + [spec.one()])
        out.append(block_embed(companion(q), n))
    return out


def _polys(spec, rng):
    """The zero polynomial, a nonzero constant, x and random degrees 1-6."""
    return ([UniPoly.zero(spec), UniPoly.constant(spec, spec.element(2) or spec.one()),
             UniPoly.x(spec)] + [_poly(spec, rng, rng.randint(1, 6)) for _ in range(3)])


def _repeated_root_polys(spec, rng, points):
    """(x - b)^k * h for k = 3, 4, 5 at points b, h of degree 2, and in
    characteristic p <= 3 some g(x^p), g of degree 1-3."""
    out = [UniPoly(spec, [-rng.choice(points), spec.one()]) ** k * _poly(spec, rng, 2)
           for k in (3, 4, 5)]
    p = spec.characteristic
    if 0 < p <= 3:
        for _ in range(2):
            g = _poly(spec, rng, rng.randint(1, 3)).coeffs
            out.append(UniPoly(spec, [g[i // p] if i % p == 0 else spec.zero()
                                      for i in range(p * len(g) - p + 1)]))
    return out


@pytest.mark.parametrize("spec", FIELDS, ids=IDS)
def test_mat_poly_eval_and_products_match_boxed(spec):
    rng = random.Random(61)
    for n in range(1, 5):
        matrices = _matrices(spec, n, rng)
        for a in matrices:
            for f in _polys(spec, rng):
                assert mat_poly_eval(f, a) == boxed_mat_poly_eval(f, a), (f, a)
            for b in matrices:
                assert a * b == boxed_matmul(a, b), (a, b)


@pytest.mark.parametrize("spec", FIELDS, ids=IDS)
def test_matrix_sums_and_scaling_match_boxed(spec):
    rng = random.Random(62)
    for n in range(1, 5):
        a, b, *_ = _matrices(spec, n, rng)
        c = _draw(spec, rng)
        rows = range(n)
        assert a + b == Matrix(spec, [[a.entries[i][j] + b.entries[i][j] for j in rows]
                                      for i in rows])
        assert a - b == Matrix(spec, [[a.entries[i][j] - b.entries[i][j] for j in rows]
                                      for i in rows])
        assert -a == Matrix(spec, [[-a.entries[i][j] for j in rows] for i in rows])
        assert a.scale(c) == Matrix(spec, [[c * a.entries[i][j] for j in rows]
                                           for i in rows])


@pytest.mark.parametrize("spec", FIELDS, ids=IDS)
def test_polynomial_evaluation_matches_boxed(spec):
    rng = random.Random(63)
    points = list(spec.elements()) if spec.is_finite else [_draw(spec, rng)
                                                            for _ in range(12)]
    for f in _polys(spec, rng) + [_poly(spec, rng, 16)] + _repeated_root_polys(spec, rng, points):
        for x in points:
            assert f.eval(x) == boxed_uni_eval(f, x)
            if f.degree >= 1:
                # the order of x as a root of g = f - f(x) is the order at 0 of g(t + x)
                g = f - UniPoly.constant(spec, f.eval(x))
                order = zero_multiplicity(boxed_compose_shift(g, x))[0]
                assert _poly_root_order(spec, g.values, x.value) == order, (f, x)
    for _ in range(20):
        m = rng.randint(1, 3)
        g = MultiPoly(spec, m, {tuple(rng.randint(0, 4) for _ in range(m)): _draw(spec, rng)
                                for _ in range(rng.randint(0, 5))})
        point = tuple(_draw(spec, rng) for _ in range(m))
        assert g.eval(point) == boxed_multi_eval(g, point)


@pytest.mark.parametrize("spec", [QQ, PrimeField(53), ExtensionField.from_order(9)],
                         ids=repr)
def test_recheck_rejects_images_differing_off_the_diagonal(spec):
    # f = x^16 at A = I + E_02 and B = I: f(A) = I + 16 E_02 differs from
    # f(B) = I in the one entry (0, 2), and 16 != 0 in these fields
    f = UniPoly(spec, [spec.zero()] * 16 + [spec.one()])
    b = Matrix.identity(spec, 3)
    a = Matrix(spec, [[spec.one() if i == j or (i, j) == (0, 2) else spec.zero()
                       for j in range(3)] for i in range(3)])
    fa, fb = boxed_mat_poly_eval(f, a), boxed_mat_poly_eval(f, b)
    differing = [(i, j) for i in range(3) for j in range(3)
                 if fa.entries[i][j] != fb.entries[i][j]]
    assert differing == [(0, 2)]
    with pytest.raises(NotAWitnessError, match="images differ"):
        verify_witness(f, a, b)


@pytest.mark.parametrize("spec", [QQ, PrimeField(53)], ids=repr)
def test_evaluation_boxes_only_its_result(spec, monkeypatch):
    f = UniPoly.from_ints(spec, DEGREE_16)
    rng = random.Random(64)
    for a in _matrices(spec, 3, rng):
        value, built = elements_built(monkeypatch, lambda: mat_poly_eval(f, a))
        assert value == boxed_mat_poly_eval(f, a)
        assert built == 0
        _, built = elements_built(monkeypatch, lambda: a * a)
        assert built == 0
    x = spec.element(3)
    value, built = elements_built(monkeypatch, lambda: f.eval(x))
    assert value == boxed_uni_eval(f, x)
    assert built == 1
    g = MultiPoly.from_ints(spec, 2, {(3, 5): 2, (0, 7): -1, (1, 0): 4})
    point = (x, spec.element(5))
    value, built = elements_built(monkeypatch, lambda: g.eval(point))
    assert value == boxed_multi_eval(g, point)
    assert built == 1


@pytest.mark.parametrize("spec", [PrimeField(2), PrimeField(53), ExtensionField.from_order(4),
                                  ExtensionField.from_order(9), QQ], ids=repr)
def test_boxed_reads_rebuild_equal_containers(spec):
    # coeffs, entries and terms box the stored values; the public
    # constructors take them back to an equal object with an equal hash
    rng = random.Random(65)
    for f in _polys(spec, rng):
        g = UniPoly(spec, f.coeffs)
        assert g == f and hash(g) == hash(f)
    for n in range(1, 4):
        for a in _matrices(spec, n, rng):
            b = Matrix(spec, a.entries)
            assert b == a and hash(b) == hash(a)
    for _ in range(10):
        m = rng.randint(1, 3)
        g = MultiPoly(spec, m, {tuple(rng.randint(0, 4) for _ in range(m)): _draw(spec, rng)
                                for _ in range(rng.randint(0, 5))})
        h = MultiPoly(spec, m, g.terms)
        assert h == g and hash(h) == hash(g)
