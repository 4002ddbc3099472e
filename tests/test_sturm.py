import random
from fractions import Fraction

import pytest

from evainject import QQ, UniPoly, is_strictly_monotone, sturm_real_roots
from evainject.errors import AlgebraError, ConstantPolynomialError, ZeroPolynomialError

U = UniPoly.from_ints


def test_whole_line_examples():
    assert sturm_real_roots(U(QQ, [1, 0, 3])) == 0
    assert sturm_real_roots(U(QQ, [0, -1, 0, 1])) == 3
    assert sturm_real_roots(U(QQ, [-2, 0, 1])) == 2


def test_zero_polynomial_rejected():
    with pytest.raises(ZeroPolynomialError):
        sturm_real_roots(UniPoly.zero(QQ))


def test_reversed_interval_is_an_algebra_error():
    # a domain error like every other, not a bare ValueError
    with pytest.raises(AlgebraError, match="out of order"):
        sturm_real_roots(U(QQ, [0, -1, 0, 1]), (1, -1))


def test_intervals_with_root_endpoints():
    f = U(QQ, [0, -1, 0, 1])  # roots -1, 0, 1
    assert sturm_real_roots(f, (-2, 2)) == 3
    assert sturm_real_roots(f, (-1, 1)) == 3
    assert sturm_real_roots(f, (0, 1)) == 2
    assert sturm_real_roots(f, (Fraction(1, 2), 2)) == 1
    assert sturm_real_roots(f, (1, 1)) == 1
    assert sturm_real_roots(f, (2, 2)) == 0
    assert sturm_real_roots(f, (2, 5)) == 0


def test_repeated_roots_counted_once():
    f = U(QQ, [-1, 1]) ** 4 * U(QQ, [0, 1]) ** 2
    assert sturm_real_roots(f) == 2
    assert sturm_real_roots(f, (0, 1)) == 2


def test_random_linear_products_match_construction():
    rng = random.Random(31)
    for _ in range(120):
        k = rng.randint(1, 6)
        roots = set()
        f = UniPoly.constant(QQ, QQ.element(rng.choice([1, 2, -3])))
        for _ in range(k):
            r = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
            roots.add(r)
            f = f * U(QQ, [-r, 1])
        assert sturm_real_roots(f) == len(roots)
        lo, hi = Fraction(-3), Fraction(2)
        assert sturm_real_roots(f, (lo, hi)) == sum(1 for r in roots if lo <= r <= hi)


def test_no_real_roots_cases():
    assert sturm_real_roots(U(QQ, [1, 0, 1])) == 0
    assert sturm_real_roots(U(QQ, [1, 0, 2, 0, 1])) == 0  # (x^2+1)^2 shape


def test_monotonicity_cases():
    for coeffs in ([0, 1], [0, 1, 0, 1], [0, 1, 0, 2, 0, 1]):
        assert is_strictly_monotone(U(QQ, coeffs))
    for coeffs in ([0, 0, 1], [0, -1, 0, 1], [0, 2, 0, 0, 1]):
        assert not is_strictly_monotone(U(QQ, coeffs))


def test_monotonicity_decreasing_and_flat_inflection():
    assert is_strictly_monotone(U(QQ, [0, -1, 0, -1]))  # -x^3 - x
    assert is_strictly_monotone(U(QQ, [0, 0, 0, 1]))    # x^3: f' = 3x^2, even mult
    assert is_strictly_monotone(U(QQ, [1, 0, 0, 5]))    # 5x^3 + 1


def test_monotonicity_even_degree_never():
    assert not is_strictly_monotone(U(QQ, [0, 5, 0, 0, 0, 0, 1]))


def test_monotonicity_rejects_constants():
    with pytest.raises(ConstantPolynomialError):
        is_strictly_monotone(U(QQ, [3]))
