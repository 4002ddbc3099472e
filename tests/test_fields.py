import math
import random
from fractions import Fraction

import pytest
import sympy

from evainject import (
    ACF,
    QQ,
    RCF,
    AlgClosedTag,
    ExtensionField,
    FieldElement,
    PrimeField,
    Rationals,
    RealClosedTag,
    UniPoly,
    two_adic_valuation,
)
from evainject.errors import (
    DivisionByZeroError,
    InfiniteFieldError,
    InvalidFieldError,
    SpecMismatchError,
    SymbolicFieldError,
)
from evainject.fields import (
    BUILTIN_MODULI,
    _poly_add,
    _poly_mul,
    _poly_trim,
    _prime_divisors,
    is_prime,
    prime_power,
)
from oracles import iroot_prime_power

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)
F4 = ExtensionField(2, [1, 1, 1])
F9 = ExtensionField(3, [1, 0, 1])
ALL_CONCRETE = [F2, F3, F5, F7, F4, F9, QQ]


def test_construction_rejects_bad_fields():
    with pytest.raises(InvalidFieldError):
        PrimeField(6)
    with pytest.raises(InvalidFieldError):
        PrimeField(1)
    with pytest.raises(InvalidFieldError):
        ExtensionField(3, [2, 0, 1])  # x^2+2 = (x+1)(x+2) over F3
    with pytest.raises(InvalidFieldError):
        ExtensionField(2, [1, 1])  # degree 1
    with pytest.raises(InvalidFieldError):
        ExtensionField(2, [1, 1, 0, 2])  # not monic once reduced


def test_tags_carry_no_elements():
    for tag in (ACF, RCF):
        with pytest.raises(SymbolicFieldError):
            tag.element(1)
        with pytest.raises(SymbolicFieldError):
            tag.zero()
        with pytest.raises(InfiniteFieldError):
            list(tag.elements())


def test_prime_field_examples():
    assert F5.element(3) + F5.element(4) == F5.element(2)
    assert F5.element(3) * F5.element(4) == F5.element(2)
    assert F7.element(3).inv() == F7.element(5)


def test_rational_examples():
    assert QQ.element(Fraction(1, 2)) + QQ.element(Fraction(1, 3)) == QQ.element(Fraction(5, 6))
    assert QQ.element(Fraction(2, 3)) * QQ.element(Fraction(3, 4)) == QQ.element(Fraction(1, 2))
    assert QQ.element(Fraction(-2, 3)).inv() == QQ.element(Fraction(-3, 2))
    # canonical form has positive denominator and reduced terms
    e = QQ.element(Fraction(4, -6))
    assert e.value.numerator == -2 and e.value.denominator == 3


def test_extension_examples():
    x = F9.element([0, 1])
    assert x + F9.element([1, 2]) == F9.one()          # x + (2x+1) = 1
    assert x * x == F9.element(2)                      # x^2 = -1 = 2
    assert x.inv() == F9.element([0, 2])               # x * 2x = 2x^2 = 1
    assert x * x.inv() == F9.one()


def test_spec_mismatch_raises():
    with pytest.raises(SpecMismatchError):
        F5.element(1) + F7.element(1)
    with pytest.raises(SpecMismatchError):
        F5.element(1) * QQ.element(1)


def test_one_object_per_field():
    assert PrimeField(5) is F5
    assert ExtensionField(3, [1, 0, 1]) is F9
    assert ExtensionField(5, [7, 0, 6]) is ExtensionField(5, [2, 0, 1])  # reduced mod 5
    assert ExtensionField(2, [1, 1, 1, 0]) is F4  # trailing zero trimmed
    assert ExtensionField.from_order(4) is F4
    assert Rationals() is QQ and AlgClosedTag() is ACF and RealClosedTag() is RCF
    distinct = [F2, F3, F5, F7, F4, F9, ExtensionField(2, [1, 1, 0, 1]),
                ExtensionField(2, [1, 0, 1, 1]), QQ, ACF, RCF]
    assert len({id(s) for s in distinct}) == len(distinct)
    assert all(a != b for i, a in enumerate(distinct) for b in distinct[i + 1:])
    names = {spec: str(spec) for spec in distinct}
    assert names[PrimeField(7)] == "F7"
    assert names[ExtensionField(3, [4, 3, 1])] == str(F9)
    assert names[Rationals()] == "Q"


def test_finite_field_element_takes_only_ints():
    for bad in (Fraction(1, 2), 2.7, "2"):
        with pytest.raises(SpecMismatchError):
            F5.element(bad)
        with pytest.raises(SpecMismatchError):
            F9.element([bad, 0])
    with pytest.raises(SpecMismatchError):
        F9.element(Fraction(1, 2))
    with pytest.raises(SpecMismatchError):
        UniPoly.from_ints(F5, [Fraction(1, 2), 1])
    assert F5.element(-7) == F5.element(3)
    assert F9.element((4, 5)) == F9.element([1, 2])


def test_rationals_refuse_floats():
    for bad in (2.7, 0.5, float("nan")):
        with pytest.raises(SpecMismatchError):
            QQ.element(bad)
    with pytest.raises(SpecMismatchError):
        UniPoly.from_ints(QQ, [0.1, 1])
    assert QQ.element("-3/4") == QQ.element(Fraction(-3, 4))
    assert QQ.element(Fraction(6, 8)).value == Fraction(3, 4)
    assert QQ.element(2).value == 2


def test_zero_and_one_are_built_once():
    for spec in ALL_CONCRETE:
        assert spec.zero() is spec.zero() and spec.zero() == spec.element(0)
        assert spec.one() is spec.one() and spec.one() == spec.element(1)


def test_elements_mix_with_plain_numbers():
    for spec in (F7, F9, QQ):
        a = spec.element(2)
        assert a + 1 == 1 + a == spec.element(3)
        assert 3 - a == spec.one()
        assert (1 / a) * a == spec.one() and 1 / a == a.inv()
        assert a == 2 and a != 3
        assert not bool(spec.zero()) and bool(a)
        assert a ** -2 == a.inv() ** 2
        with pytest.raises(DivisionByZeroError):
            spec.zero() ** -1
    q = QQ.element(Fraction(2, 3))
    assert Fraction(1, 2) * q == q * Fraction(1, 2) == QQ.element(Fraction(1, 3))
    assert q == Fraction(2, 3)
    assert F7.element(4) != Fraction(4)  # a Fraction is no element of F7


def test_division_by_zero():
    for spec in ALL_CONCRETE:
        with pytest.raises(DivisionByZeroError):
            spec.zero().inv()


def test_enumeration_order_and_counts():
    assert [e.value for e in F2.elements()] == [0, 1]
    assert [e.value for e in F3.elements()] == [0, 1, 2]
    assert [str(e) for e in F4.elements()] == ["0", "1", "x", "x+1"]
    for spec in (F2, F3, F5, F4, F9):
        elems = list(spec.elements())
        assert len(elems) == spec.order
        assert len(set(elems)) == spec.order
        for i, e in enumerate(elems):
            assert spec.element_from_index(i) == e
    with pytest.raises(InfiniteFieldError):
        list(QQ.elements())


def test_canonical_form_idempotent():
    rng = random.Random(7)
    for _ in range(200):
        spec = rng.choice(ALL_CONCRETE)
        if spec.is_finite:
            e = spec.element_from_index(rng.randrange(spec.order))
        else:
            e = spec.element(Fraction(rng.randint(-99, 99), rng.randint(1, 99)))
        assert spec.element(e.value) == e


def test_field_axioms_randomized():
    rng = random.Random(20240501)
    for _ in range(500):
        spec = rng.choice(ALL_CONCRETE)
        if spec.is_finite:
            draw = lambda: spec.element_from_index(rng.randrange(spec.order))
        else:
            draw = lambda: spec.element(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        a, b, c = draw(), draw(), draw()
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == spec.zero()
        if not a.is_zero():
            assert a * a.inv() == spec.one()


def test_builtin_moduli_all_irreducible():
    # construction re-verifies irreducibility, so this sweep is the check;
    # every nonzero element then has an inverse
    for (p, k), mod in BUILTIN_MODULI.items():
        spec = ExtensionField(p, mod)
        assert spec.order == p ** k
        assert ExtensionField.from_order(p ** k) == spec
        one = spec.one().value
        for a in list(spec.values())[1:]:
            assert spec._mul(a, spec._inv(a)) == one


def test_two_adic_examples():
    assert two_adic_valuation(12) == 2
    assert two_adic_valuation(QQ.element(Fraction(3, 8))) == -3
    assert two_adic_valuation(0) == math.inf
    assert two_adic_valuation(Fraction(-40, 3)) == 3


def test_two_adic_odd_pair_structure():
    # For odd a, b: v2(a^2+b^2) = 1 exactly (squares of odds are 1 mod 8),
    # so v2((a+b)(a^2+b^2)) = 1 + v2(a+b) >= 2, with equality to 2 exactly
    # when a and b agree mod 4.  Pairs in different classes give more.
    rng = random.Random(99)
    for _ in range(1000):
        a = 2 * rng.randint(-500, 500) + 1
        b = 2 * rng.randint(-500, 500) + 1
        if a + b == 0:
            continue
        assert two_adic_valuation(a * a + b * b) == 1
        v = two_adic_valuation((a + b) * (a * a + b * b))
        assert v == 1 + two_adic_valuation(a + b)
        assert v >= 2
        assert (v == 2) == (a % 4 == b % 4)
    assert two_adic_valuation((3 + 5) * (3 * 3 + 5 * 5)) == 4  # 272 = 16 * 17


def test_two_adic_cube_identity():
    rng = random.Random(100)
    for _ in range(1000):
        u = rng.randint(1, 10 ** 6) * rng.choice([1, -1])
        v = two_adic_valuation(-2 * u ** 3)
        assert v == 1 + 3 * two_adic_valuation(u)
        assert v != 2


def test_extension_add_matches_the_int_list_kernel():
    for (p, k), modulus in BUILTIN_MODULI.items():
        if p ** k > 16:
            continue
        spec, base = ExtensionField(p, modulus), PrimeField(p)
        values = [e.value for e in spec.elements()]
        for a in values:
            for b in values:
                s = _poly_add(base, a, b)
                assert spec._add(a, b) == tuple(s) + (0,) * (k - len(s))


def test_extension_mul_matches_the_int_list_kernel():
    # _mul reduces its tuple product by the monic modulus in one pass; the
    # reference multiplies trimmed int lists over F_p and divides by the modulus
    for q in (4, 8, 9, 16, 25, 27):
        spec = ExtensionField.from_order(q)
        base = PrimeField(spec.p)
        values = list(spec.values())
        for a in values:
            for b in values:
                product = _poly_mul(base, _poly_trim(list(a), 0), _poly_trim(list(b), 0))
                assert spec._mul(a, b) == spec._canon(product)


def test_values_follow_the_index_order():
    for spec in (F2, F3, F4, ExtensionField.from_order(8), F9):
        assert list(spec.values()) == [spec.element_from_index(i).value
                                       for i in range(spec.order)]
        assert list(spec.elements()) == [FieldElement(spec, v) for v in spec.values()]
    with pytest.raises(InfiniteFieldError):
        QQ.values()


def _power_or_cap(fn, q):
    try:
        return fn(q)
    except InvalidFieldError:
        return "cap"


def test_prime_power_matches_the_integer_root_reference():
    # every q below 20,000, then powers of small and of near-cap bases
    # (2^31 - 19 and 2^31 - 1 are prime, 2^31 + 11 is the first prime past
    # the cap) with their neighbours, and random sizes up to 40 digits
    rng = random.Random(31)
    values = set(range(20_000))
    for base in list(range(2, 41)) + [46337, 65521, 2147483629, 2147483647, 2147483659]:
        for k in range(1, 6 if base > 40 else 200):
            if base ** k > 10 ** 40:
                break
            values.update((base ** k - 1, base ** k, base ** k + 1))
    values.update(rng.getrandbits(rng.randint(1, 130)) for _ in range(100))
    assert len(values) > 20_000
    for q in sorted(values):
        assert _power_or_cap(prime_power, q) == _power_or_cap(iroot_prime_power, q), q
    assert prime_power(2147483629 ** 400) == (2147483629, 400)
    with pytest.raises(InvalidFieldError, match="exceeds the 2\\^31 cap"):
        prime_power(int("9" * 4000))


def test_prime_divisors_match_sympy():
    # every n up to 5,000, then n just below 2^31: 2^31 - 1 and 2^31 - 19
    # (primes), their neighbours, and 46,337^2 (the largest prime square there)
    near = [2 ** 31 - 1 + d for d in range(-3, 1)] + [2 ** 31 - 19, 46337 ** 2, 2 ** 31 - 2]
    for n in list(range(1, 5001)) + near:
        assert list(_prime_divisors(n)) == sympy.primefactors(n), n


def test_is_prime_matches_a_sieve():
    limit = 10 ** 4
    sieve = [False, False] + [True] * (limit - 1)
    for k in range(2, math.isqrt(limit) + 1):
        if sieve[k]:
            sieve[k * k::k] = [False] * len(sieve[k * k::k])
    assert [is_prime(n) for n in range(limit + 1)] == sieve
    assert is_prime(2 ** 31 - 1) and not is_prime(2 ** 31 - 3)
    with pytest.raises(InvalidFieldError, match="characteristic 2147483648 exceeds the 2\\^31 cap"):
        is_prime(2 ** 31)
