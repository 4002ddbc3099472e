"""The matrix scans' keys, which run on plain ints, against mat_poly_eval.

brute_force_matrix and brute_force_zero_fiber key A in M_n(F_q) by the
index tuple of f(A), computed on q x q addition and multiplication tables;
search_matrix_collisions keys a matrix of rational grid pairs by the
reduced integer matrix and denominator of f(A).  On seeded random matrices
each key must be the encoding of mat_poly_eval's result, so two matrices
get equal keys exactly when mat_poly_eval gives them equal images, and the
keys must call no spec hook once built.
"""
import math
import random
from fractions import Fraction

import pytest

from evainject import QQ, ExtensionField, Matrix, PrimeField, UniPoly, mat_poly_eval
from evainject.engine import _rational_matrix_image, _table_matrix_image

FINITE = [PrimeField(2), PrimeField(3), PrimeField(5), ExtensionField.from_order(4),
          ExtensionField(2, [1, 0, 1, 1]), ExtensionField.from_order(9)]


def _random_poly(rng, spec, draw):
    """Zero, a constant or degree 1-5, with coefficients from draw()."""
    degree = rng.choice([-1, 0, 1, 2, 3, 5])
    return UniPoly(spec, [spec.element(draw()) for _ in range(degree + 1)])


def _assert_keys_match_images(f, matrices, image, encode):
    keys, images = [], []
    for point, a in matrices:
        value = mat_poly_eval(f, a)
        assert image(point) == encode(value)
        keys.append(image(point))
        images.append(value)
    for i in range(len(keys)):
        for j in range(len(keys)):
            assert (keys[i] == keys[j]) == (images[i] == images[j])


@pytest.mark.parametrize("spec", FINITE, ids=str)
def test_table_key_is_the_index_tuple_of_mat_poly_eval(spec):
    values = list(spec.values())
    assert values[0] == spec.zero().value  # the oracles' first point is the zero matrix
    index = {v: i for i, v in enumerate(values)}
    rng = random.Random(spec.order)
    for n in (2, 3):
        for _ in range(6):
            f = _random_poly(rng, spec, lambda: values[rng.randrange(spec.order)])
            # few distinct entries, so some images coincide
            entries = rng.sample(range(spec.order), min(2, spec.order))
            points = [tuple(rng.choice(entries) for _ in range(n * n)) for _ in range(25)]
            matrices = [(p, Matrix._from_values(spec, n, [values[i] for i in p]))
                        for p in points]
            _assert_keys_match_images(f, matrices, _table_matrix_image(f, n, values),
                                      lambda m: tuple(index[v] for v in m.values))


def _reduced(m):
    """A rational matrix as (N, den): den the lcm of the entry denominators."""
    den = math.lcm(*(v.denominator for v in m.values))
    return tuple(int(v * den) for v in m.values), den


def test_rational_key_is_the_reduced_pair_of_mat_poly_eval():
    rng = random.Random(7)
    pairs = [(a, b) for b in range(1, 5) for a in range(-4, 5) if math.gcd(a, b) == 1]
    for n in (1, 2, 3):
        for _ in range(12):
            f = _random_poly(rng, QQ, lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 6)))
            entries = rng.sample(pairs, 3)
            points = [tuple(rng.choice(entries) for _ in range(n * n)) for _ in range(20)]
            matrices = [(p, Matrix._from_values(QQ, n, [Fraction(*e) for e in p]))
                        for p in points]
            _assert_keys_match_images(f, matrices, _rational_matrix_image(f, n), _reduced)


def _count_hook_calls(monkeypatch, cls, calls):
    for name in ("_add", "_mul"):
        hook = getattr(cls, name)

        def counted(self, a, b, hook=hook):
            calls.append(hook)
            return hook(self, a, b)
        monkeypatch.setattr(cls, name, counted)


@pytest.mark.parametrize("spec", [PrimeField(5), ExtensionField.from_order(4)], ids=str)
def test_keys_call_no_spec_hook_per_matrix(monkeypatch, spec):
    calls = []
    for cls in (type(spec), type(QQ)):
        _count_hook_calls(monkeypatch, cls, calls)
    image = _table_matrix_image(UniPoly.from_ints(spec, [1, 0, 1, 1]), 2, list(spec.values()))
    assert len(calls) == 2 * spec.order ** 2  # the two tables come from the hooks
    calls.clear()
    image((1, 2, 3, 0))
    f = UniPoly.from_ints(QQ, [Fraction(1, 3), 0, Fraction(-1, 2), 1])
    _rational_matrix_image(f, 2)(((1, 2), (-1, 3), (0, 1), (2, 1)))
    assert calls == []
