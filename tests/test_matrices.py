import random
from fractions import Fraction

import pytest

from evainject import (
    QQ,
    Matrix,
    PrimeField,
    UniPoly,
    block_embed,
    companion,
    flatten,
    jordan_nilpotent_embed,
    mat_poly_eval,
    minimal_polynomial,
    unflatten,
)
from evainject.errors import (
    ConstantPolynomialError,
    DimensionTooSmallError,
    LengthMismatchError,
    NotMonicError,
    SpecMismatchError,
    TargetTooSmallError,
)

from oracles import charpoly_cofactor

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)

U = UniPoly.from_ints


def _random_matrix(spec, n, rng):
    if spec.is_finite:
        draw = lambda: spec.element_from_index(rng.randrange(spec.order))
    else:
        draw = lambda: spec.element(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
    return Matrix(spec, [[draw() for _ in range(n)] for _ in range(n)])


def _random_poly(spec, rng, max_deg):
    deg = rng.randint(0, max_deg)
    if spec.is_finite:
        coeffs = [spec.element_from_index(rng.randrange(spec.order))
                  for _ in range(deg + 1)]
    else:
        coeffs = [spec.element(rng.randint(-4, 4)) for _ in range(deg + 1)]
    return UniPoly(spec, coeffs)


def test_golden_quartic_evaluation():
    f = U(QQ, [0, 2, 0, 0, 1])
    a = Matrix.from_rows(QQ, [["0", "1/2"], ["1", "-1"]])
    b = Matrix.from_rows(QQ, [["0", "-3/2"], ["1", "1"]])
    expected = Matrix.identity(QQ, 2).scale(QQ.element(Fraction(3, 4)))
    assert mat_poly_eval(f, a) == expected
    assert mat_poly_eval(f, b) == expected
    assert a != b


def test_eval_identity_and_nilpotent():
    a = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    assert mat_poly_eval(UniPoly.x(QQ), a) == a
    n = Matrix.from_rows(QQ, [[0, 1], [0, 0]])
    assert mat_poly_eval(U(QQ, [1, 0, 1]), n) == Matrix.identity(QQ, 2)


def test_eval_constant_becomes_scalar_matrix():
    a = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    assert mat_poly_eval(U(QQ, [7]), a) == Matrix.identity(QQ, 2).scale(QQ.element(7))


def test_ring_homomorphism_property():
    rng = random.Random(41)
    for spec in (F2, F5, QQ):
        for _ in range(30):
            n = rng.randint(1, 3)
            a = _random_matrix(spec, n, rng)
            f = _random_poly(spec, rng, 4)
            g = _random_poly(spec, rng, 4)
            assert mat_poly_eval(f + g, a) == mat_poly_eval(f, a) + mat_poly_eval(g, a)
            assert mat_poly_eval(f * g, a) == mat_poly_eval(f, a) * mat_poly_eval(g, a)


def test_companion_examples():
    assert companion(U(QQ, [1, 0, 1])) == Matrix.from_rows(QQ, [[0, -1], [1, 0]])
    assert companion(U(QQ, [-3, 1])) == Matrix.from_rows(QQ, [[3]])
    c = companion(U(QQ, [2, 0, 0, 1]))
    assert mat_poly_eval(U(QQ, [2, 0, 0, 1]), c).is_zero()


def test_companion_validation():
    with pytest.raises(NotMonicError):
        companion(U(QQ, [1, 2]))
    with pytest.raises(ConstantPolynomialError):
        companion(U(QQ, [1]))


def test_companion_annihilates_all_monic_up_to_degree_6():
    # companion() checks q(C) = 0 internally and raises if it ever fails
    import itertools

    for spec in (F2, F3):
        elements = list(spec.elements())
        for d in range(1, 7):
            for coeffs in itertools.product(elements, repeat=d):
                companion(UniPoly(spec, list(coeffs) + [spec.one()]))
    rng = random.Random(42)
    for _ in range(60):
        d = rng.randint(1, 6)
        coeffs = [QQ.element(Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
                  for _ in range(d)]
        q = UniPoly(QQ, coeffs + [QQ.one()])
        assert mat_poly_eval(q, companion(q)).is_zero()


def test_nilpotent_embed():
    for n in range(2, 7):
        nmat = jordan_nilpotent_embed(n, QQ)
        assert not nmat.is_zero()
        assert (nmat * nmat).is_zero()
    assert jordan_nilpotent_embed(2, F3).entries[0][1] == F3.one()
    with pytest.raises(DimensionTooSmallError):
        jordan_nilpotent_embed(1, QQ)


def test_block_embed():
    c = companion(U(QQ, [1, 0, 1]))
    assert block_embed(c, 2) == c
    e = block_embed(c, 3)
    assert e.n == 3
    assert all(e.entries[i][2].is_zero() and e.entries[2][i].is_zero() for i in range(3))
    with pytest.raises(TargetTooSmallError):
        block_embed(c, 1)


def test_block_embed_preserves_annihilation_with_zero_constant():
    # g(C') = 0 whenever g(C) = 0 and g(0) = 0
    q = U(QQ, [1, 0, 1])
    c = companion(q)
    g = q * UniPoly.x(QQ)
    assert mat_poly_eval(g, block_embed(c, 4)).is_zero()


def test_minimal_polynomial_examples():
    assert minimal_polynomial(Matrix.zeros(QQ, 2)) == U(QQ, [0, 1])
    assert minimal_polynomial(Matrix.identity(QQ, 2)) == U(QQ, [-1, 1])
    q = U(QQ, [2, 0, 0, 1])
    assert minimal_polynomial(companion(q)) == q
    n = jordan_nilpotent_embed(3, QQ)
    assert minimal_polynomial(n) == U(QQ, [0, 0, 1])


def test_minimal_polynomial_divides_charpoly():
    rng = random.Random(43)
    for spec in (F2, F3, F5, QQ):
        for _ in range(30):
            n = rng.randint(1, 4)
            a = _random_matrix(spec, n, rng)
            m = minimal_polynomial(a)
            chi = charpoly_cofactor(a)
            assert (chi % m).is_zero()
            assert m.degree <= n
            assert mat_poly_eval(m, a).is_zero()


def test_flatten_unflatten():
    a = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    v = flatten(a)
    assert [e.value for e in v] == [1, 2, 3, 4]
    assert unflatten(v, 2) == a
    assert unflatten(v) == a  # n inferred
    with pytest.raises(LengthMismatchError):
        unflatten(tuple([QQ.one()] * 5))
    with pytest.raises(LengthMismatchError):
        unflatten(v, 3)


def test_flatten_roundtrip_random():
    rng = random.Random(44)
    for spec in (F3, QQ):
        for _ in range(40):
            n = rng.randint(1, 4)
            a = _random_matrix(spec, n, rng)
            assert unflatten(flatten(a), n) == a
            vec = tuple(_random_matrix(spec, n, rng).entries[0]) * n
            assert flatten(unflatten(vec, n)) == vec


def test_matrix_shape_validation():
    with pytest.raises(LengthMismatchError):
        Matrix.from_rows(QQ, [[1, 2], [3]])


def test_matrix_entries_must_be_elements_of_its_field():
    with pytest.raises(SpecMismatchError):
        Matrix(QQ, [[1]])
    with pytest.raises(SpecMismatchError):
        Matrix(QQ, [[F5.one()]])
    with pytest.raises(SpecMismatchError):
        Matrix.identity(QQ, 2).scale(F5.one())
