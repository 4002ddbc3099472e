import random
import threading
from fractions import Fraction

import pytest

from evainject import (
    ACF,
    QQ,
    RCF,
    Bounds,
    Matrix,
    MultiPoly,
    PrimeField,
    Reason,
    Status,
    UniPoly,
    mat_poly_eval,
    monotonicity_violation,
    multivariate_injectivity,
    rational_grid,
    search_matrix_collisions,
    search_rational_collisions,
    search_tuple_collisions,
    verify_witness,
)
from evainject import engine
from evainject.engine import _grid_size, _scan_size
from evainject.errors import ArityMismatchError, EnumerationCapExceededError

F2 = PrimeField(2)
F3 = PrimeField(3)

U = UniPoly.from_ints
GOLDEN = U(QQ, [0, 2, 0, 0, 1])


def test_pigeonhole_example():
    f = MultiPoly.from_ints(F3, 2, {(1, 0): 1, (0, 1): 1})
    v = multivariate_injectivity(f)
    assert v.status is Status.NOT_INJECTIVE
    assert v.reason == Reason.PIGEONHOLE
    assert v.witness.lhs == (F3.zero(), F3.one())
    assert v.witness.rhs == (F3.one(), F3.zero())
    assert v.witness.image == F3.one()


def test_pigeonhole_small_sweep():
    f = MultiPoly.from_ints(F2, 2, {(2, 0): 1, (0, 3): 1})
    v = multivariate_injectivity(f)
    assert v.status is Status.NOT_INJECTIVE
    assert f.eval(v.witness.lhs) == f.eval(v.witness.rhs)


def test_multivariate_over_q():
    f = MultiPoly.from_ints(QQ, 2, {(1, 1): 1})
    v = multivariate_injectivity(f)
    assert v.status is Status.NOT_INJECTIVE
    assert v.reason == Reason.SEARCH_COLLISION

    # collision-free on the search grid: x1 + 1000003 * x2
    g = MultiPoly.from_ints(QQ, 2, {(1, 0): 1, (0, 1): 1000003})
    v = multivariate_injectivity(g, bounds=Bounds(height=3))
    assert v.status is Status.UNDECIDED
    assert v.reason == Reason.SEARCH_EXHAUSTED


def test_multivariate_over_tags():
    f = MultiPoly.from_ints(QQ, 2, {(2, 0): 1, (0, 2): 1})
    v = multivariate_injectivity(f, RCF)
    assert v.status is Status.NOT_INJECTIVE
    assert v.reason == Reason.TOPOLOGICAL_ARGUMENT
    v = multivariate_injectivity(f, ACF)
    assert v.status is Status.NOT_INJECTIVE
    assert v.reason == Reason.INFINITE_ROOT_LOCUS


def test_multivariate_validation():
    with pytest.raises(ArityMismatchError):
        multivariate_injectivity(MultiPoly.from_ints(QQ, 1, {(1,): 1}))
    big = MultiPoly.from_ints(PrimeField(101), 3, {(1, 0, 0): 1})
    with pytest.raises(EnumerationCapExceededError):
        multivariate_injectivity(big)


def test_rational_grid_contents():
    grid = rational_grid(2)
    assert len(grid) == len(set(grid))
    assert Fraction(3, 2) in grid and Fraction(-3, 2) in grid
    assert Fraction(2) in grid and Fraction(-2) in grid
    assert all(abs(r) <= 2 and r.denominator <= 2 for r in grid)
    assert rational_grid(1) == [Fraction(-1), Fraction(0), Fraction(1)]


def test_scalar_search():
    w = search_rational_collisions(U(QQ, [0, 0, 1]), 1)
    assert {w.lhs.value, w.rhs.value} == {Fraction(-1), Fraction(1)}
    assert w.image == QQ.one()
    assert search_rational_collisions(GOLDEN, 20) is None
    assert search_rational_collisions(U(QQ, [0, 0, 0, 1]), 10) is None  # x^3 injective


def test_scalar_search_scans_at_most_cap_points(monkeypatch):
    cube, square = U(QQ, [0, 0, 0, 1]), U(QQ, [0, 0, 1])
    size = _grid_size(10)
    assert search_rational_collisions(cube, 10, cap=size) is None
    with pytest.raises(EnumerationCapExceededError,
                       match=f"^{size} grid points exceed the cap {size - 1}, "):
        search_rational_collisions(cube, 10, cap=size - 1)
    # a collision among the first cap points answers, however large the grid
    w = search_rational_collisions(square, 2000, cap=3000)
    assert (w.lhs.value, w.rhs.value) == (-1, 1)
    # past 2h^2 + 1 > cap the refusal never sieves the grid
    monkeypatch.setattr(engine, "_grid_size", None)
    with pytest.raises(EnumerationCapExceededError, match="^at least 2000000000001 grid"):
        search_rational_collisions(cube, 10 ** 6, cap=100)


def test_matrix_search_finds_quartic_collision():
    w = search_matrix_collisions(GOLDEN, 2, 2)
    assert w is not None
    assert mat_poly_eval(GOLDEN, w.lhs) == mat_poly_eval(GOLDEN, w.rhs) == w.image
    assert w.lhs != w.rhs
    # the collision family lives off the zero fiber: images are scalar
    # multiples of I with the two minimal polynomials sharing a value
    assert w.image.entries[0][1].is_zero()


def test_matrix_search_cap():
    with pytest.raises(EnumerationCapExceededError):
        search_matrix_collisions(GOLDEN, 2, 20)


def _within(seconds, call):
    """call()'s result or exception, asserting it arrives within seconds."""
    result = {}

    def run():
        try:
            result["value"] = call()
        except Exception as e:  # handed back to the test
            result["error"] = e
    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=seconds)
    assert not worker.is_alive(), f"no answer within {seconds} s"
    return result


def test_matrix_search_refuses_over_cap_before_building_its_grid():
    # the height-120 grid has about a million points; the cap check must
    # come from its size, not from boxing it first
    result = _within(1, lambda: search_matrix_collisions(U(QQ, [0, 0, 1]), 2, 120))
    assert isinstance(result.get("error"), EnumerationCapExceededError)
    assert f"{_grid_size(120) ** 4} candidate matrices" in str(result["error"])


def test_scan_size_names_a_huge_power_without_building_it():
    assert _scan_size(3, 5, 243, "points") == 243
    with pytest.raises(EnumerationCapExceededError, match="^243 points exceed the cap 242$"):
        _scan_size(3, 5, 242, "points")
    # printed in full up to 4,096 bits, as base^exponent past that
    with pytest.raises(EnumerationCapExceededError, match=f"^{2 ** 4095} points"):
        _scan_size(2, 4095, 10**6, "points")
    with pytest.raises(EnumerationCapExceededError, match=r"^2\^4096 points"):
        _scan_size(2, 4096, 10**6, "points")
    result = _within(1, lambda: _scan_size(2, 10**12, 10**6, "matrices", "; lower n"))
    assert str(result["error"]) == "2^1000000000000 matrices exceed the cap 1000000; lower n"


def test_grid_size_rule():
    for h in range(1, 31):
        assert _grid_size(h) == len(rational_grid(h))


def test_golden_pair_verifies():
    a = Matrix.from_rows(QQ, [["0", "1/2"], ["1", "-1"]])
    b = Matrix.from_rows(QQ, [["0", "-3/2"], ["1", "1"]])
    w = verify_witness(GOLDEN, a, b)
    assert w.image == Matrix.identity(QQ, 2).scale(QQ.element(Fraction(3, 4)))


def test_tuple_search_shrinks_to_cap():
    f = MultiPoly.from_ints(QQ, 2, {(2, 0): 1, (0, 2): 1})
    w, used = search_tuple_collisions(f, 20, cap=1000)
    assert w is not None
    assert used < 20
    assert f.eval(w.lhs) == f.eval(w.rhs)


def test_tuple_search_builds_its_grid_once(monkeypatch):
    import evainject.engine as engine

    calls = []
    monkeypatch.setattr(engine, "rational_grid",
                        lambda h: calls.append(h) or rational_grid(h))
    f = MultiPoly.from_ints(QQ, 2, {(2, 0): 1, (0, 2): 1})
    for height, cap in ((20, 1000), (3, 10 ** 6)):
        calls.clear()
        w, used = search_tuple_collisions(f, height, cap=cap)
        assert calls == [used]
        assert used == max(h for h in range(1, height + 1)
                           if h == 1 or len(rational_grid(h)) ** 2 <= cap)
        assert f.eval(w.lhs) == f.eval(w.rhs)


def test_tuple_search_height_follows_the_cap_promptly():
    # the height is worked out from grid sizes counted up from 1, so a
    # large requested height costs no more than the height the cap allows
    for f in (MultiPoly.from_ints(QQ, 2, {(1, 0): 1, (0, 1): 1000003}),
              MultiPoly.from_ints(QQ, 2, {(2, 0): 1, (0, 2): 1})):
        result = _within(1, lambda: search_tuple_collisions(f, 100, cap=10_000))
        w, used = result["value"]
        assert used < 100
        assert (w, used) == search_tuple_collisions(f, used, cap=10_000)


def test_monotonicity_violation_quartic():
    triple = monotonicity_violation(GOLDEN, 10)
    assert triple is not None
    u, v, w = triple
    assert u < v < w
    vals = [GOLDEN.eval(QQ.element(t)).value for t in (u, v, w)]
    assert (vals[1] - vals[0]) * (vals[2] - vals[1]) < 0


def test_monotonicity_violation_absent_for_monotone():
    assert monotonicity_violation(U(QQ, [0, 1, 0, 1]), 5) is None


def test_search_determinism():
    rng = random.Random(0)
    f = U(QQ, [rng.randint(-3, 3) for _ in range(4)] + [1])
    first = search_rational_collisions(f, 4)
    second = search_rational_collisions(f, 4)
    assert (first is None) == (second is None)
    if first is not None:
        assert (first.lhs, first.rhs) == (second.lhs, second.rhs)
