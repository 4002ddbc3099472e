"""Every collision scan reports exactly the pair a plain enumeration finds.

The engine documents one scan order (engine._first_collision); each caller
below must return the same (lhs, rhs) as tests/oracles.first_collision run
over a plain enumeration of that caller's points, not just some collision.
"""
import itertools
import json
import random
from fractions import Fraction

import pytest

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
    Matrix,
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
from evainject.cli import main, parse_field, parse_poly
from evainject.engine import permutation_verdict, simple_roots_condition

F2, F3, F5, F7 = PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7)
F4, F8, F9 = (ExtensionField.from_order(q) for q in (4, 8, 9))
F8_ALT = ExtensionField(2, [1, 0, 1, 1])  # x^3 + x^2 + 1, not the built-in modulus
U = UniPoly.from_ints
H = Fraction


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


def test_matrix_search_with_rational_entries_matches_plain_grid_scan():
    # heights 2 and 3 put fractions in the entries; the oracle compares every
    # pair, so each n = 2 case collides within the first thousand matrices
    cases = [([0, H(-3, 2), 1], 1, 2), ([0, H(-2, 3), 0, H(1, 2)], 1, 3),
             ([H(1, 3), 0, 0, H(1, 2)], 1, 3), ([H(5, 7)], 1, 2),
             ([0, H(-3, 2), 1], 2, 2), ([0, 0, H(1, 2)], 2, 2), ([0, 2, 0, 0, 1], 2, 2),
             ([0, -1, 0, H(1, 4)], 2, 2), ([H(5, 7)], 2, 3), ([0, -1, 0, H(1, 4)], 2, 3),
             ([0, H(-3, 2), 1], 2, 3)]
    for coeffs, n, height in cases:
        f = U(QQ, coeffs)
        expected = first_collision(f, grid_matrices(QQ, n, rational_points(QQ, height)))
        assert _pair(search_matrix_collisions(f, n, height)) == expected


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


def test_pigeonhole_scan_folds_large_exponents():
    # a^e = a^((e-1) mod (q-1) + 1) on F_q; exponents q-1, q, 2q-1 and ones
    # far above q check the fold against the boxed square-and-multiply
    for spec in (F3, F4, F5, F7, F8):
        q = spec.order
        rng = random.Random(q)
        choices = (0, 1, q - 1, q, 2 * q - 1, 10**8, 10**8 + 1)
        for _ in range(6):
            terms = {(rng.choice(choices), rng.choice(choices)): 1 + rng.randrange(q - 1)
                     for _ in range(3)}
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


def test_brute_force_matrix_over_f8_and_f9_matches_plain_matrix_scan():
    # both collide within the first few hundred matrices; the oracle compares every pair
    cases = [(U(F8_ALT, [0, 0, 1]), 2), (U(F8_ALT, [1, 0, 1, 1]), 2),
             (U(F9, [0, 0, 1]), 2), (U(F9, [2, 1, 1, 1]), 2)]
    for f, n in cases:
        expected = first_collision(f, grid_matrices(f.spec, n, field_elements(f.spec)))
        assert expected is not None
        assert _verdict_pair(brute_force_matrix(f, n)) == expected


def test_zero_fiber_over_f8_and_f9_matches_plain_matrix_scan():
    cases = [(U(F8_ALT, [0, 1, 1, 1]), 2), (U(F9, [0, 1, 0, 1]), 2)]
    for f, n in cases:
        assert brute_force_zero_fiber(f, n) == zero_fiber(f, n)


def test_one_by_one_matrix_scans_match_the_scalar_scans():
    # M_1(F) = F: the matrix scans report the scalar scans' pair as 1 x 1 matrices
    def one_by_one(pair):
        return None if pair is None else tuple(Matrix(x.spec, [[x]]) for x in pair)

    for spec in (F2, F5, F4, F8_ALT, F9):
        for f in _random_polys(spec, 5, 3, seed=20 + spec.order):
            assert (_verdict_pair(brute_force_matrix(f, 1))
                    == one_by_one(_verdict_pair(brute_force_scalar(f))))
            assert brute_force_zero_fiber(f, 1) == zero_fiber(f, 1)
    for coeffs, height in (([0, H(-3, 2), 1], 3), ([0, H(1, 2), 0, 1], 2), ([H(5, 7)], 2)):
        f = U(QQ, coeffs)
        assert (_pair(search_matrix_collisions(f, 1, height))
                == one_by_one(_pair(search_rational_collisions(f, height))))


def _report(capsys, argv):
    main(argv + ["--output", "json"])
    return json.loads(capsys.readouterr().out)


# Pinned outputs of the finite-field scalar scans: the witness of bruteforce
# without --n, of permcheck (with and without the cross-check scan) and of
# the F_q^2 pigeonhole scan, and the violating b of simpleroots.
FINITE_FIELD_SCAN_PINS = [
    (["bruteforce", "--poly", "x^4+3*x^2+5*x", "--field", "F7"], ("1", "4")),
    (["bruteforce", "--poly", "x^5+2*x^3+x+4", "--field", "F11"], ("3", "5")),
    (["bruteforce", "--poly", "x^3+x^2+1", "--field", "F9"], ("0", "2")),
    (["bruteforce", "--poly", "x^4+x^3+x", "--field", "F8"], ("0", "x+1")),
    (["bruteforce", "--poly", "x^6+x^2+x", "--field", "F16"], ("0", "x^2+x")),
    (["bruteforce", "--poly", "x^5+x^3+x", "--field", "F25"], ("1", "3")),
    (["permcheck", "--poly", "x^5+x^2+3*x", "--field", "F7"], ("0", "2")),
    (["permcheck", "--poly", "x^7+x^3+2*x", "--field", "F53"], ("4", "10")),
    (["permcheck", "--poly", "x^4+x^2+x", "--field", "F64"], ("x^2+x", "x^3")),
    (["analyze", "--poly", "x1^2+3*x2", "--vars", "2", "--field", "F7"],
     (["0", "5"], ["1", "0"])),
    (["analyze", "--poly", "x1^3+x1*x2^2+2*x2", "--vars", "2", "--field", "F11"],
     (["0", "6"], ["1", "0"])),
    (["analyze", "--poly", "x1^2+x2^2", "--vars", "2", "--field", "F4"],
     (["0", "1"], ["1", "0"])),
]


@pytest.mark.parametrize("argv, pair", FINITE_FIELD_SCAN_PINS,
                         ids=[" ".join(argv) for argv, _ in FINITE_FIELD_SCAN_PINS])
def test_finite_field_scalar_witnesses_are_pinned(capsys, argv, pair):
    witness = _report(capsys, argv)["verdict"]["witness"]
    assert (witness["lhs"], witness["rhs"]) == pair


SIMPLE_ROOTS_PINS = [
    ("x^3+2*x", "F7", "2", "5", 2),
    ("x^4+3*x^2+x", "F11", "1", "5", 2),
    ("x^3+x^2+x", "F8", "1", "1", 3),
    ("x^3+3*x", "F49", "x", "2*x", 2),
    ("x^6-3*x^2", "F5", "0", "0", 2),
    ("2*x^11+x", "F9", "x", "2*x", 2),
    ("x^3", "F3", "0", "0", 3),
    ("(x-2)^5+x^11", "F13", "12", "3", 3),
    ("(x-1)^3", "F25", "1", "0", 3),
    ("x^7+x^4", "F11", "0", "0", 4),
    ("(x-1/3)^3*(x^2+1)^2", "Q", "1/3", "0", 3),
]


@pytest.mark.parametrize("poly, field, b, lam, k", SIMPLE_ROOTS_PINS)
def test_simple_roots_violating_b_is_pinned(capsys, poly, field, b, lam, k):
    extra = _report(capsys, ["simpleroots", "--poly", poly, "--field", field])["extra"]
    assert (extra["b"], extra["lambda"], extra["multiplicity"]) == (b, lam, k)


@pytest.mark.parametrize("poly, field, b, lam, k", SIMPLE_ROOTS_PINS)
def test_simple_roots_find_b_without_listing_the_field(monkeypatch, poly, field, b, lam, k):
    # the first root of f' comes from gcd(f', x^q - x), so the same b is
    # found with the enumeration of F_q out of reach
    spec = parse_field(field)
    f = parse_poly(poly, spec)

    def refuse(self):
        raise AssertionError(f"the elements of {self} were listed")
    monkeypatch.setattr(PrimeField, "values", refuse)
    monkeypatch.setattr(ExtensionField, "values", refuse)
    report = simple_roots_condition(f)
    assert (str(report.violating_b), str(report.lam), report.multiplicity_k) == (b, lam, k)
