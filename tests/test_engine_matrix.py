import random
from fractions import Fraction

import pytest

from evainject import (
    ACF,
    QQ,
    RCF,
    ExtensionField,
    Matrix,
    PrimeField,
    Reason,
    Status,
    UniPoly,
    bezout_noncollision_certificate,
    brute_force_matrix,
    brute_force_zero_fiber,
    engine,
    factor_profile,
    mat_poly_eval,
    matrix_injectivity,
    minimal_polynomial,
    verify_witness,
)
from evainject.errors import (
    AlgebraError,
    ConstantPolynomialError,
    DimensionTooSmallError,
    GcdNotOneError,
    NotAWitnessError,
)

from oracles import all_polys, elements_built

F2 = PrimeField(2)
F3 = PrimeField(3)

U = UniPoly.from_ints
GOLDEN = U(QQ, [0, 2, 0, 0, 1])  # x^4 + 2x


def _recheck_matrix_witness(f, verdict):
    w = verdict.witness
    assert w.lhs != w.rhs
    assert mat_poly_eval(f, w.lhs) == mat_poly_eval(f, w.rhs) == w.image


def test_nilpotent_witness_clause():
    f = U(QQ, [1, 0, 1])
    v = matrix_injectivity(f, 2)
    assert v.status is Status.NOT_INJECTIVE
    assert v.reason == Reason.NILPOTENT_WITNESS
    assert v.witness.rhs == Matrix.zeros(QQ, 2)
    assert v.witness.image == Matrix.identity(QQ, 2)
    _recheck_matrix_witness(f, v)


def test_companion_witness_clause():
    f = U(QQ, [0, 1, 0, 1])
    v = matrix_injectivity(f, 2)
    assert v.status is Status.NOT_INJECTIVE
    assert v.reason == Reason.COMPANION_WITNESS
    assert v.witness.lhs == Matrix.from_rows(QQ, [[0, -1], [1, 0]])
    assert v.witness.image == Matrix.zeros(QQ, 2)
    _recheck_matrix_witness(f, v)


def test_golden_quartic_case_split():
    v2 = matrix_injectivity(GOLDEN, 2)
    assert v2.status is Status.UNDECIDED
    assert v2.reason == Reason.OPEN_CASE_BELOW_D

    v3 = matrix_injectivity(GOLDEN, 3)
    assert v3.status is Status.NOT_INJECTIVE
    assert v3.reason == Reason.COMPANION_WITNESS
    assert v3.witness.rhs == Matrix.zeros(QQ, 3)
    assert v3.witness.image == Matrix.zeros(QQ, 3)  # f(0) = 0
    _recheck_matrix_witness(GOLDEN, v3)


def test_affine_and_constant_matrix_cases():
    assert matrix_injectivity(U(QQ, [7, 2]), 2).status is Status.INJECTIVE
    with pytest.raises(ConstantPolynomialError):
        matrix_injectivity(U(QQ, [7]), 2)
    with pytest.raises(DimensionTooSmallError):
        matrix_injectivity(GOLDEN, 1)


def test_symbolic_tags_matrix_dispatch():
    # m >= 2: the nilpotent witness works over any extension of Q
    v = matrix_injectivity(U(QQ, [1, 0, 1]), 2, ACF)
    assert v.status is Status.NOT_INJECTIVE
    assert v.reason == Reason.NILPOTENT_WITNESS

    # d = 3 <= n = 3: companion witness over Q embeds
    v = matrix_injectivity(GOLDEN, 3, ACF)
    assert v.status is Status.NOT_INJECTIVE
    assert v.reason == Reason.COMPANION_WITNESS

    # n = 2 < d = 3: not injective over any real closed field, but the
    # factor of degree <= 2 exists only over that field, not over Q
    v = matrix_injectivity(GOLDEN, 2, RCF)
    assert v.status is Status.NECESSARY_CONDITION_FAILS
    assert v.reason == Reason.ROOTS_OUTSIDE_COMPUTABLE_FIELD
    v = matrix_injectivity(GOLDEN, 2, ACF)
    assert v.status is Status.NECESSARY_CONDITION_FAILS


def test_never_injective_for_degree_at_least_two():
    rng = random.Random(55)
    for spec in (F2, F3, QQ):
        for _ in range(25):
            deg = rng.randint(2, 4)
            if spec.is_finite:
                coeffs = [spec.element_from_index(rng.randrange(spec.order))
                          for _ in range(deg)] + [spec.one()]
            else:
                coeffs = [spec.element(rng.randint(-4, 4)) for _ in range(deg)] + [spec.one()]
            v = matrix_injectivity(UniPoly(spec, coeffs), rng.randint(2, 3))
            assert v.status is not Status.INJECTIVE


def test_companion_witness_with_rational_root_factor():
    # h = x - 1 has d = 1; the embedded 1 x 1 companion block is diag(1, 0)
    f = U(QQ, [0, -1, 1])  # x^2 - x
    v = matrix_injectivity(f, 2)
    assert v.reason == Reason.COMPANION_WITNESS
    assert v.witness.lhs == Matrix.from_rows(QQ, [[1, 0], [0, 0]])
    _recheck_matrix_witness(f, v)


def test_extension_field_matrix_dispatch():
    from evainject import ExtensionField

    f4 = ExtensionField.from_order(4)
    f = UniPoly(f4, [f4.element([1, 1]), f4.zero(), f4.one()])  # x^2 + (x+1)
    v = matrix_injectivity(f, 2)
    assert v.status is Status.NOT_INJECTIVE
    assert v.reason == Reason.NILPOTENT_WITNESS
    _recheck_matrix_witness(f, v)
    assert brute_force_matrix(f, 2).status is Status.NOT_INJECTIVE


def test_finite_open_case_with_zero_fiber_confirmation():
    # f = x^4 + x^2 + x = x(x^3 + x + 1) over F2: h irreducible of degree 3
    f = U(F2, [0, 1, 1, 0, 1])
    v = matrix_injectivity(f, 2)
    assert v.status is Status.UNDECIDED
    assert v.reason == Reason.OPEN_CASE_BELOW_D
    assert brute_force_zero_fiber(f, 2) == []


def test_open_case_instances_go_both_ways():
    # Undecided is the only honest verdict for n < d: complete enumeration
    # shows both outcomes occur.  Over F2, x^4+x^2+x (h = x^3+x+1, d = 3)
    # is injective on all 16 matrices of M_2; over F3, x^4+2x^2+x
    # (h = x^3-x+1, d = 3) collides on two nonzero matrices even though
    # nothing collides with 0.
    f = U(F2, [0, 1, 1, 0, 1])
    assert matrix_injectivity(f, 2).status is Status.UNDECIDED
    assert brute_force_matrix(f, 2).status is Status.INJECTIVE

    g = U(F3, [0, 1, 2, 0, 1])
    assert matrix_injectivity(g, 2).status is Status.UNDECIDED
    oracle = brute_force_matrix(g, 2)
    assert oracle.status is Status.NOT_INJECTIVE
    assert not oracle.witness.lhs.is_zero() and not oracle.witness.rhs.is_zero()
    assert brute_force_zero_fiber(g, 2) == []


def test_matrix_oracle_agreement_over_f3():
    for f in all_polys(F3, 3):
        if f.degree < 2:
            continue
        v = matrix_injectivity(f, 2)
        if v.status is Status.NOT_INJECTIVE:
            _recheck_matrix_witness(f, v)
            assert brute_force_matrix(f, 2).status is Status.NOT_INJECTIVE
        else:
            assert v.status is Status.UNDECIDED
            assert brute_force_zero_fiber(f, 2) == []


def test_matrix_oracle_agreement_over_f2():
    for f in all_polys(F2, 3):
        if f.degree < 2:
            continue
        v = matrix_injectivity(f, 2)
        oracle = brute_force_matrix(f, 2)
        if v.status is Status.NOT_INJECTIVE:
            _recheck_matrix_witness(f, v)
            assert oracle.status is Status.NOT_INJECTIVE
        else:
            assert v.status is Status.UNDECIDED
            assert brute_force_zero_fiber(f, 2) == []


def test_matrix_scans_box_only_fiber_members(monkeypatch):
    # the scans run on canonical values and matrices store them: neither a
    # zero fiber nor an injective complete scan builds a FieldElement
    f = U(F3, [0, 1, 0, 1])
    fiber, built = elements_built(monkeypatch, lambda: brute_force_zero_fiber(f, 2))
    assert len(fiber) == 6
    assert built == 0
    g = U(ExtensionField.from_order(4), [0, 1, 1, 0, 1])
    verdict, built = elements_built(monkeypatch, lambda: brute_force_matrix(g, 2))
    assert verdict.status is Status.INJECTIVE
    assert built == 0


@pytest.mark.parametrize("n", [0, -1])
def test_matrix_scans_reject_dimensions_below_one(n):
    # no matrix is scanned below n = 1, so no scan may answer there
    f = U(F3, [0, 0, 1])
    with pytest.raises(DimensionTooSmallError):
        brute_force_matrix(f, n)
    with pytest.raises(DimensionTooSmallError):
        brute_force_zero_fiber(f, n)
    with pytest.raises(DimensionTooSmallError):
        engine.search_matrix_collisions(U(QQ, [0, 0, 1]), n, 2)


def test_matrix_scans_accept_dimension_one():
    assert brute_force_matrix(U(F3, [0, 0, 1]), 1).status is Status.NOT_INJECTIVE
    assert brute_force_matrix(U(F3, [0, 1]), 1).status is Status.INJECTIVE
    assert brute_force_zero_fiber(U(F3, [0, 1, 1]), 1) == [Matrix.from_rows(F3, [[2]])]
    w = engine.search_matrix_collisions(U(QQ, [0, 0, 1]), 1, 2)
    assert (w.lhs, w.rhs) == (Matrix.from_rows(QQ, [[-1]]), Matrix.from_rows(QQ, [[1]]))


def test_verify_witness_rejects_sizes_before_evaluating(monkeypatch):
    def evaluated(f, a):
        raise AssertionError("evaluated a side of a mismatched pair")
    monkeypatch.setattr(engine, "mat_poly_eval", evaluated)
    f = U(QQ, [0, 0, 1])
    with pytest.raises(NotAWitnessError, match="witness sides have different shapes"):
        verify_witness(f, Matrix.identity(QQ, 2), Matrix.identity(QQ, 1))


def test_brute_force_matrix_examples():
    v = brute_force_matrix(U(F3, [0, 0, 1]), 2)
    assert v.status is Status.NOT_INJECTIVE
    _recheck_matrix_witness(U(F3, [0, 0, 1]), v)
    assert brute_force_matrix(U(PrimeField(5), [1, 1]), 2).status is Status.INJECTIVE


def test_degree_one_matrix_sufficiency():
    rng = random.Random(56)
    for spec, sizes in ((F2, (2, 3)), (F3, (2,))):
        for n in sizes:
            for _ in range(3):
                a = spec.element_from_index(rng.randrange(1, spec.order))
                b = spec.element_from_index(rng.randrange(spec.order))
                assert brute_force_matrix(UniPoly(spec, [b, a]), n).status is Status.INJECTIVE


def test_bezout_certificate_examples():
    a = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    cert = bezout_noncollision_certificate(GOLDEN, a)
    assert cert.m_a == U(QQ, [-1, 0, 1])
    assert (cert.u * cert.m_a + cert.v * cert.g) == U(QQ, [1])
    identity = Matrix.identity(QQ, 2)
    assert (mat_poly_eval(cert.u, a) * mat_poly_eval(cert.m_a, a)
            + mat_poly_eval(cert.v, a) * mat_poly_eval(cert.g, a)) == identity

    cert = bezout_noncollision_certificate(GOLDEN, Matrix.identity(QQ, 2))
    assert cert.m_a == U(QQ, [-1, 1])


def test_bezout_certificate_preconditions():
    with pytest.raises(AlgebraError):
        bezout_noncollision_certificate(GOLDEN, Matrix.zeros(QQ, 2))
    # d = 2 <= n: not the open case
    with pytest.raises(AlgebraError):
        bezout_noncollision_certificate(U(QQ, [0, 1, 0, 1]),
                                        Matrix.from_rows(QQ, [[0, 1], [1, 0]]))
    # singular nonzero A shares the factor x with g
    singular = Matrix.from_rows(QQ, [[1, 0], [0, 0]])
    with pytest.raises(GcdNotOneError):
        bezout_noncollision_certificate(GOLDEN, singular)


def test_zero_fiber_matches_certificate_claim():
    # over F2 with n < d, the zero fiber is empty and certificates exist
    # for every nonsingular A
    f = U(F2, [0, 1, 1, 0, 1])
    for a in _nonsingular_matrices_f2():
        cert = bezout_noncollision_certificate(f, a)
        identity = Matrix.identity(F2, 2)
        assert (mat_poly_eval(cert.u, a) * mat_poly_eval(cert.m_a, a)
                + mat_poly_eval(cert.v, a) * mat_poly_eval(cert.g, a)) == identity


def _nonsingular_matrices_f2():
    out = []
    for bits in range(16):
        rows = [[F2.element(bits >> 3 & 1), F2.element(bits >> 2 & 1)],
                [F2.element(bits >> 1 & 1), F2.element(bits & 1)]]
        a = Matrix(F2, rows)
        det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
        if not det.is_zero():
            out.append(a)
    return out


@pytest.mark.parametrize("coeffs, spec, n, reason", [
    ([1, 2], QQ, 2, Reason.DEGREE_ONE),
    ([1, 0, 1], QQ, 2, Reason.NILPOTENT_WITNESS),
    ([0, 1, 0, 1], QQ, 2, Reason.COMPANION_WITNESS),
    ([0, 2, 0, 0, 1], QQ, 2, Reason.OPEN_CASE_BELOW_D),
    ([0, 2, 0, 0, 1], ACF, 2, Reason.ROOTS_OUTSIDE_COMPUTABLE_FIELD),
])
def test_matrix_verdict_carries_its_profile(coeffs, spec, n, reason):
    f = U(QQ, coeffs)
    v = matrix_injectivity(f, n, spec)
    assert v.reason == reason
    assert v.evidence == factor_profile(f)
