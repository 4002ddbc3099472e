"""Every collision scan reports exactly the pair a plain enumeration finds.

The engine documents one scan order (engine._first_collision); each caller
below must return the same (lhs, rhs) as tests/oracles.first_collision run
over a plain enumeration of that caller's points, not just some collision.
"""
import itertools
import random

from oracles import (
    field_elements,
    first_collision,
    grid_matrices,
    rational_points,
    zero_fiber,
)

from evainject import (
    QQ,
    Bounds,
    ExtensionField,
    MultiPoly,
    PrimeField,
    Status,
    UniPoly,
    brute_force_matrix,
    brute_force_scalar,
    brute_force_zero_fiber,
    multivariate_injectivity,
    search_matrix_collisions,
    search_rational_collisions,
    search_tuple_collisions,
)
from evainject.engine import permutation_verdict

F2, F3, F5, F7 = PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7)
F4, F8, F9 = (ExtensionField.from_order(q) for q in (4, 8, 9))
U = UniPoly.from_ints


def _pair(w):
    return None if w is None else (w.lhs, w.rhs)


def _random_polys(spec, count, degree, seed):
    rng = random.Random(seed)
    return [UniPoly(spec, [spec.element_from_index(rng.randrange(spec.order))
                           for _ in range(degree)] + [spec.one()])
            for _ in range(count)]


def _verdict_pair(v):
    return _pair(v.witness) if v.status is Status.NOT_INJECTIVE else None


def test_rational_search_matches_plain_grid_scan():
    for coeffs, height in (([0, 0, 1], 3), ([0, -1, 0, 1], 4), ([0, 2, 0, 0, 1], 3),
                           ([1, -3, 0, 1], 4), ([0, 1, 0, 1], 3)):
        f = U(QQ, coeffs)
        expected = first_collision(f, rational_points(QQ, height))
        assert _pair(search_rational_collisions(f, height)) == expected


def test_matrix_search_matches_plain_grid_scan():
    entries = rational_points(QQ, 1)
    for coeffs in ([0, 0, 1], [0, 1, 0, 1], [0, 2, 0, 0, 1], [1, 1, 1]):
        f = U(QQ, coeffs)
        expected = first_collision(f, grid_matrices(QQ, 2, entries))
        assert _pair(search_matrix_collisions(f, 2, 1)) == expected


def test_tuple_search_matches_plain_grid_scan():
    points = rational_points(QQ, 2)
    for terms in ({(1, 1): 1}, {(2, 0): 1, (0, 3): 1}, {(1, 0): 1, (0, 1): 2},
                  {(1, 0): 1, (0, 1): 1000003}):
        f = MultiPoly.from_ints(QQ, 2, terms)
        w, used = search_tuple_collisions(f, 2, cap=10_000)
        assert used == 2
        assert _pair(w) == first_collision(f, itertools.product(points, repeat=2))


def test_permutation_verdict_matches_plain_element_scan():
    # once with the cross-check scan, once with Hermite alone deciding
    for bounds in (Bounds(), Bounds(scalar_cap=2)):
        for spec in (F7, F9, F8):
            for f in _random_polys(spec, 6, 3, seed=spec.order):
                expected = first_collision(f, field_elements(spec))
                assert _verdict_pair(permutation_verdict(f, bounds)) == expected


def test_pigeonhole_scan_matches_plain_tuple_scan():
    for spec in (F3, F4, F5):
        rng = random.Random(spec.order)
        for _ in range(4):
            terms = {(rng.randrange(3), rng.randrange(3)): 1 + rng.randrange(spec.order - 1)
                     for _ in range(3)}
            terms[(1, 1)] = 1
            f = MultiPoly.from_ints(spec, 2, terms)
            points = itertools.product(field_elements(spec), repeat=2)
            assert _verdict_pair(multivariate_injectivity(f)) == first_collision(f, points)


def test_brute_force_scalar_matches_plain_element_scan():
    for spec in (F5, F7, F8, F9):
        for f in _random_polys(spec, 5, 4, seed=10 + spec.order):
            expected = first_collision(f, field_elements(spec))
            assert _verdict_pair(brute_force_scalar(f)) == expected


def test_brute_force_matrix_matches_plain_matrix_scan():
    # F4 entries are tuple values; the F2 n = 3 case scans 9-entry tuples
    cases = [(U(F2, [0, 0, 1]), 2), (U(F2, [0, 1]), 2), (U(F2, [1, 1, 0, 1]), 2),
             (U(F3, [0, 0, 1]), 2), (U(F3, [0, 1, 0, 1]), 2),
             (U(F4, [0, 0, 1]), 2), (U(F4, [1, 1, 1]), 2), (U(F4, [0, 1, 1, 1]), 2),
             (U(F4, [0, 1, 1, 0, 1]), 2), (U(F2, [0, 1, 1, 1]), 3)]
    for f, n in cases:
        expected = first_collision(f, grid_matrices(f.spec, n, field_elements(f.spec)))
        assert _verdict_pair(brute_force_matrix(f, n, bounds=Bounds())) == expected


def test_zero_fiber_matches_plain_matrix_scan():
    # f = x * h with h(0) != 0, so f(0) = 0 and the fiber is h's nonzero kernel
    cases = [(U(F2, [0, 1, 1, 1]), 2), (U(F2, [0, 1, 0, 1]), 2), (U(F2, [0, 1, 0, 1]), 3),
             (U(F2, [0, 1, 1, 0, 1]), 3), (U(F3, [0, 1, 0, 1]), 2), (U(F3, [0, 2, 0, 1]), 2),
             (U(F3, [0, 1, 1, 1]), 2), (U(F4, [0, 1, 0, 1]), 2), (U(F4, [0, 1, 1, 1]), 2),
             (U(F4, [0, 1, 1, 0, 1]), 2), (U(F5, [0, 1, 0, 1]), 2), (U(F5, [0, 4, 0, 1]), 2)]
    for f, n in cases:
        assert brute_force_zero_fiber(f, n) == zero_fiber(f, n)
