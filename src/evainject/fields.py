"""Exact field arithmetic: prime fields F_p, small extensions F_{p^k}, and Q.

A FieldSpec names a field and owns arithmetic on canonical values; a
FieldElement is an immutable (spec, value) pair with operator overloads.
UniPoly, MultiPoly and Matrix store canonical values, not FieldElements,
and build one only where their API hands it out (coeffs, entries, eval).
There is one FieldSpec object per field: PrimeField(5) returns the same
object every time, as do ExtensionField with the same reduced modulus and
Rationals() (which is QQ), so field equality is identity.  A spec's
element() is the one way to build an element from plain values.
Canonical values are

  * an int in [0, p) for F_p,
  * a length-k tuple of ints in [0, p) for F_{p^k} (coefficients of the
    generator, ascending degree, reduced modulo the defining polynomial),
  * a reduced Fraction (positive denominator) for Q.

Equality of elements is equality of canonical values, so witnesses verify
bit-exactly.  There is no floating point anywhere in this package.

The dense F[x] kernel (the _poly_* functions) works on lists of canonical
values through a spec's hooks, one kernel for every field above:
arithmetic, long division and root orders, gcds and modular powers, the
formal derivative, the fold modulo x^q - x, distinct-degree splitting
(which also decides whether an extension modulus is irreducible) and the
printer of polynomials in x.

ACF and RCF are verdict-only tags for the algebraically closed and real
closed cases: they drive engine dispatch but never carry elements, and any
attempt to construct an element in them raises SymbolicFieldError.

Field grammar accepted by the CLI parser (cli.parse_field):
  "Q", "Fp" (such as "F7"), "Fq:modulus=<poly>" (such as
  "F9:modulus=x^2+1"), "ACF", "RCF", and "R" as an alias of "RCF".
Bare "Fq" with q = p^k, k >= 2 draws the modulus from a built-in table of
irreducible polynomials for q <= 64.
"""
from __future__ import annotations

import itertools
import math
import operator
import sys
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import (
    DivisionByZeroError,
    InfiniteFieldError,
    InvalidFieldError,
    SpecMismatchError,
    SymbolicFieldError,
    ValueTooLongError,
)

PRIME_CAP = 2 ** 31


def _prime_divisors(n: int) -> Iterator[int]:
    """The distinct primes dividing n >= 1, ascending, by trial division."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            yield d
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        yield n


def is_prime(n: int) -> bool:
    """Trial-division primality test, capped at desk scale (n < 2^31)."""
    if n >= PRIME_CAP:
        raise InvalidFieldError(f"characteristic {n} exceeds the 2^31 cap")
    return n > 1 and next(_prime_divisors(n)) == n


def prime_power(q: int) -> tuple[int, int] | None:
    """(p, k) with q = p^k and p prime, or None when q is no prime power.

    Only exponents k with log2(q)/k < 31 can give a base below the 2^31
    cap, and for those the rounded float root is exact when q is a k-th
    power (a float filter on k*log2(r), then r**k == q).  Exponents run from
    the largest down, so the first hit is the least base of q; with none,
    is_prime(q) decides, and raises InvalidFieldError at or above the cap.
    """
    if q < 2:
        return None
    bits = math.log2(q)
    for k in range(q.bit_length() - 1, 1, -1):
        if bits / k >= 31:
            break
        r = round(2 ** (bits / k))
        if abs(k * math.log2(r) - bits) < 1e-9 * bits and r ** k == q:
            return (r, k) if is_prime(r) else None
    return (q, 1) if is_prime(q) else None


# ---------------------------------------------------------------------------
# Dense F[x] arithmetic on lists of canonical values (ascending degree,
# trimmed) through a spec's _add/_neg/_mul/_inv hooks: one kernel for F_p
# (plain int lists), F_{p^k} and Q.  ExtensionField, factoring and root
# finding (polynomials/factor.py), UniPoly and MultiPoly's printing run on
# it; _poly_fold is the one reduction modulo x^q - x.
# ---------------------------------------------------------------------------

def _poly_trim(a: list, zero) -> list:
    while a and a[-1] == zero:
        a.pop()
    return a


def _poly_add(spec: FieldSpec, a: Sequence, b: Sequence) -> list:
    add, zero = spec._add, spec.zero().value
    out = list(a) + [zero] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = add(out[i], c)
    return _poly_trim(out, zero)


def _poly_mul(spec: FieldSpec, a: Sequence, b: Sequence) -> list:
    if not a or not b:
        return []
    add, mul, zero = spec._add, spec._mul, spec.zero().value
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x != zero:
            for j, y in enumerate(b):
                out[i + j] = add(out[i + j], mul(x, y))
    return out


def _poly_divmod(spec: FieldSpec, a: Sequence, b: Sequence) -> tuple[list, list]:
    """(q, r) with a = q*b + r and deg r < deg b, for a trimmed and b nonzero."""
    add, neg, mul, zero = spec._add, spec._neg, spec._mul, spec.zero().value
    inv = spec._inv(b[-1])
    db = len(b) - 1
    r = list(a)
    q = [zero] * max(len(r) - db, 0)
    while len(r) > db:
        c = mul(r.pop(), inv)   # the top term cancels exactly
        shift = len(r) - db
        q[shift] = c
        c = neg(c)
        for i in range(db):
            r[shift + i] = add(r[shift + i], mul(c, b[i]))
        _poly_trim(r, zero)
    return q, r


def _poly_root_order(spec: FieldSpec, a: Sequence, b) -> int:
    """The multiplicity of the value b as a root of the nonzero value list a:
    divide by the monic x - b until a remainder is nonzero, O(k deg a)."""
    x_minus_b = [spec._neg(b), spec.one().value]
    for k in itertools.count():
        a, r = _poly_divmod(spec, a, x_minus_b)
        if r:
            return k


def _poly_monic(spec: FieldSpec, a: Sequence) -> list:
    mul, inv = spec._mul, spec._inv(a[-1])
    return [mul(c, inv) for c in a]


def _poly_gcd(spec: FieldSpec, a: Sequence, b: Sequence) -> list:
    """Monic gcd of a and b, not both zero."""
    while b:
        a, b = b, _poly_divmod(spec, a, b)[1]
    return _poly_monic(spec, a)


def _poly_xgcd(spec: FieldSpec, a: Sequence, b: Sequence) -> tuple[list, list, list]:
    """(g, s, t) with s*a + t*b = g, g the monic gcd of a and b, not both zero."""
    neg, one = spec._neg, spec.one().value
    r0, r1, s0, s1, t0, t1 = list(a), list(b), [one], [], [], [one]
    while r1:
        q, r = _poly_divmod(spec, r0, r1)
        minus_q = [neg(c) for c in q]
        r0, r1 = r1, r
        s0, s1 = s1, _poly_add(spec, s0, _poly_mul(spec, minus_q, s1))
        t0, t1 = t1, _poly_add(spec, t0, _poly_mul(spec, minus_q, t1))
    mul, inv = spec._mul, spec._inv(r0[-1])
    return tuple([mul(c, inv) for c in v] for v in (r0, s0, t0))


def _poly_powmod(spec: FieldSpec, a: Sequence, e: int, mod: Sequence) -> list:
    """a^e modulo mod, for mod of degree >= 1."""
    return _power(_poly_divmod(spec, a, mod)[1], [spec.one().value], e,
                  lambda u, v: _poly_divmod(spec, _poly_mul(spec, u, v), mod)[1])


def _poly_derivative(spec: FieldSpec, a: Sequence) -> list:
    """Formal derivative; in characteristic p the terms i*c with p | i vanish."""
    add, mul, zero, one = spec._add, spec._mul, spec.zero().value, spec.one().value
    out, i = [], zero
    for c in a[1:]:
        i = add(i, one)     # the integer i as a field value
        out.append(mul(i, c))
    return _poly_trim(out, zero)


def _poly_fold(spec: FieldSpec, a: Sequence) -> list:
    """a modulo x^q - x over F_q, dense and trimmed: each exponent e >= q
    folds to (e-1) mod (q-1) + 1, which keeps every value of a on F_q."""
    q, zero, out = spec.order, spec.zero().value, list(a[:spec.order])
    for e in range(q, len(a)):
        if a[e] != zero:
            i = (e - 1) % (q - 1) + 1
            out[i] = spec._add(out[i], a[e])
    return _poly_trim(out, zero)


def _poly_distinct_degree(spec: FieldSpec, f: list) -> list[tuple[list, int]]:
    """Monic f over a finite field -> [(g, d)], g the product of the distinct
    irreducible factors of degree d of what earlier steps left of f.

    For a squarefree f the g multiply to f.  For any f of degree k, the
    result is [(f, k)] exactly when f is irreducible: a reducible f has an
    irreducible factor of degree at most k/2, and the step at that degree
    finds it.
    """
    q, zero, one = spec.order, spec.zero().value, spec.one().value
    minus_x = [zero, spec._neg(one)]
    out: list[tuple[list, int]] = []
    h = _poly_divmod(spec, [zero, one], f)[1]
    d = 1
    while len(f) - 1 >= 2 * d:
        h = _poly_powmod(spec, h, q, f)
        g = _poly_gcd(spec, f, _poly_add(spec, h, minus_x))
        if len(g) > 1:
            out.append((g, d))
            f = _poly_divmod(spec, f, g)[0]
            h = _poly_divmod(spec, h, f)[1]
        d += 1
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _term_str(spec: FieldSpec, c, body: str) -> str:
    """One printed term c*body for a canonical value c (body "" for the
    constant term); negative rationals keep their sign on the coefficient.
    A coefficient of F_{p^k} outside F_p prints as its generator polynomial
    in brackets, "[x+1]", which no variable x of the polynomial can be read
    into."""
    cs = spec._format(c)
    if isinstance(spec, ExtensionField) and any(c[1:]):
        cs = f"[{cs}]"
    if not body:
        return cs
    if cs == "1":
        return body
    if cs == "-1":
        return "-" + body
    return f"{cs}*{body}"


def _join_terms(parts: Iterable[str]) -> str:
    """Terms joined by "+", except before a term that carries its own sign."""
    parts = list(parts)
    out = parts[0]
    for p in parts[1:]:
        out += p if p.startswith("-") else "+" + p
    return out


def _poly_str(spec: FieldSpec, a: Sequence, descending: bool = True) -> str:
    """Trimmed ascending values a printed as a polynomial in x, in the
    grammar the CLI parses (cli.parse_poly)."""
    if not a:
        return "0"
    zero = spec.zero().value
    idx = range(len(a) - 1, -1, -1) if descending else range(len(a))
    return _join_terms(_term_str(spec, a[i], "" if i == 0 else ("x" if i == 1 else f"x^{i}"))
                       for i in idx if a[i] != zero)


# Irreducible defining polynomials for the bare "Fq" spellings with
# q = p^k <= 64 and k >= 2, ascending coefficients.
BUILTIN_MODULI: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1, 1),              # x^2+x+1
    (2, 3): (1, 1, 0, 1),           # x^3+x+1
    (2, 4): (1, 1, 0, 0, 1),        # x^4+x+1
    (2, 5): (1, 0, 1, 0, 0, 1),     # x^5+x^2+1
    (2, 6): (1, 1, 0, 0, 0, 0, 1),  # x^6+x+1
    (3, 2): (1, 0, 1),              # x^2+1
    (3, 3): (1, 2, 0, 1),           # x^3+2x+1
    (5, 2): (2, 0, 1),              # x^2+2
    (7, 2): (1, 0, 1),              # x^2+1
}


# The one object of each field, keyed by its class for Q, ACF and RCF and by
# (class, parameters) for F_p and F_{p^k}.  Never pruned.
_FIELDS: dict = {}


class FieldSpec:
    """Abstract description of a field; concrete subclasses own arithmetic.

    Constructing a field returns the object already built for it, so two
    specs are equal exactly when they are the same object.  element() is
    the one constructor of elements from ints (and Fractions over Q).
    """

    is_finite = False
    is_symbolic = False
    _zero = _one = None  # built on first use; the tags never build them

    def __new__(cls):
        """The one object of a field without parameters (Q, ACF, RCF)."""
        field = _FIELDS.get(cls)
        if field is None:
            field = _FIELDS.setdefault(cls, object.__new__(cls))
        return field

    @property
    def order(self) -> int:
        raise InfiniteFieldError(f"{self} is not a finite field")

    @property
    def characteristic(self) -> int:
        raise SymbolicFieldError(f"{self} has no fixed characteristic")

    def element(self, value) -> "FieldElement":
        raise NotImplementedError

    def zero(self) -> "FieldElement":
        if self._zero is None:
            self._zero = self.element(0)
        return self._zero

    def one(self) -> "FieldElement":
        if self._one is None:
            self._one = self.element(1)
        return self._one

    def values(self) -> Iterator:
        """Yield every canonical value once, in the canonical enumeration
        order: by index, as element_from_index numbers them; index 0 is
        zero."""
        raise InfiniteFieldError(f"cannot enumerate the elements of {self}")

    def elements(self) -> Iterator["FieldElement"]:
        """Yield every element once, in the order of values()."""
        return (FieldElement(self, v) for v in self.values())

    def element_from_index(self, i: int) -> "FieldElement":
        if not 0 <= i < self.order:
            raise IndexError(i)
        return FieldElement(self, self._value_from_index(i))

    # hooks implemented by concrete specs ----------------------------------
    def _value_from_index(self, i: int):
        raise NotImplementedError

    def _add(self, a, b):
        raise NotImplementedError

    def _neg(self, a):
        raise NotImplementedError

    def _mul(self, a, b):
        raise NotImplementedError

    def _inv(self, a):
        raise NotImplementedError

    def _sort_key(self, a):
        """A key ordering values; over F_q, the value's enumeration index."""
        raise NotImplementedError

    def _format(self, a) -> str:
        raise NotImplementedError


class PrimeField(FieldSpec):
    """F_p, elements stored as ints in [0, p)."""

    is_finite = True

    def __new__(cls, p: int):
        field = _FIELDS.get((cls, p))
        if field is None:
            if not is_prime(p):
                raise InvalidFieldError(f"{p} is not prime")
            field = object.__new__(cls)
            field.p = p
            field = _FIELDS.setdefault((cls, p), field)
        return field

    @property
    def order(self) -> int:
        return self.p

    @property
    def characteristic(self) -> int:
        return self.p

    def element(self, value) -> "FieldElement":
        if not isinstance(value, int):
            raise SpecMismatchError(
                f"elements of {self} are built from ints, not {value!r}")
        return FieldElement(self, value % self.p)

    def values(self) -> Iterator[int]:
        return iter(range(self.p))

    def _value_from_index(self, i: int) -> int:
        return i

    def _add(self, a, b):
        return (a + b) % self.p

    def _neg(self, a):
        return (-a) % self.p

    def _mul(self, a, b):
        return (a * b) % self.p

    def _inv(self, a):
        if a == 0:
            raise DivisionByZeroError(f"0 is not invertible in {self}")
        return pow(a, self.p - 2, self.p)

    def _sort_key(self, a):
        return a

    def _format(self, a) -> str:
        return str(a)

    def __repr__(self):
        return f"F{self.p}"


class ExtensionField(FieldSpec):
    """F_{p^k} = F_p[x]/(modulus), modulus monic irreducible of degree k >= 2.

    Elements are coefficient tuples of length k, ascending degree.  The
    enumeration order indexes an element by sum(c_i * p^i), so printing the
    canonical representation highest coefficient first lists elements in
    lexicographic order.
    """

    is_finite = True

    def __new__(cls, p: int, modulus: Sequence[int]):
        base = PrimeField(p)  # checks p once per process
        mod = tuple(_poly_trim([c % p for c in modulus], 0))
        key = (cls, p, mod)
        field = _FIELDS.get(key)
        if field is None:
            if len(mod) < 3:
                raise InvalidFieldError("extension modulus must have degree >= 2")
            if mod[-1] != 1:
                raise InvalidFieldError("extension modulus must be monic")
            if _poly_distinct_degree(base, list(mod)) != [(list(mod), len(mod) - 1)]:
                raise InvalidFieldError(
                    f"modulus {_poly_str(base, mod)} is reducible over F{p}")
            field = object.__new__(cls)
            field.p = p
            field.modulus = mod
            field.k = len(mod) - 1
            field = _FIELDS.setdefault(key, field)
        return field

    @property
    def order(self) -> int:
        return self.p ** self.k

    @property
    def characteristic(self) -> int:
        return self.p

    def _canon(self, coeffs: Sequence[int]) -> tuple[int, ...]:
        p = self.p
        reduced = _poly_divmod(PrimeField(p), _poly_trim([c % p for c in coeffs], 0),
                               self.modulus)[1]
        return tuple(reduced) + (0,) * (self.k - len(reduced))

    def element(self, value) -> "FieldElement":
        """From an int or a sequence of ints (generator coefficients, ascending)."""
        if isinstance(value, int):
            value = [value]
        elif not (isinstance(value, Sequence) and all(isinstance(c, int) for c in value)):
            raise SpecMismatchError(
                f"elements of {self} are built from ints or int sequences, not {value!r}")
        return FieldElement(self, self._canon(value))

    def values(self) -> Iterator[tuple[int, ...]]:
        # index sum(c_i * p^i) counts up with c_0 fastest; product varies
        # its last place fastest, so each tuple is read backwards
        return (digits[::-1] for digits in itertools.product(range(self.p), repeat=self.k))

    def _value_from_index(self, i: int) -> tuple[int, ...]:
        digits = []
        for _ in range(self.k):
            digits.append(i % self.p)
            i //= self.p
        return tuple(digits)

    def _add(self, a, b):
        return tuple([(x + y) % self.p for x, y in zip(a, b)])

    def _neg(self, a):
        return tuple([(-c) % self.p for c in a])

    def _mul(self, a, b):
        # schoolbook product, then x^k = -(m_0 + ... + m_(k-1) x^(k-1)) for
        # the monic modulus m, folded from the top degree down
        p, k, mod = self.p, self.k, self.modulus
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        for i in range(2 * k - 2, k - 1, -1):
            c = prod[i] % p
            if c:
                for j in range(k):
                    prod[i - k + j] -= c * mod[j]
        return tuple([c % p for c in prod[:k]])

    def _inv(self, a):
        if not any(a):
            raise DivisionByZeroError(f"0 is not invertible in {self}")
        return _power(a, self.one().value, self.order - 2, self._mul)  # a^(q-2)

    def _sort_key(self, a):
        return sum(c * self.p ** i for i, c in enumerate(a))

    def _format(self, a) -> str:
        return _poly_str(PrimeField(self.p), _poly_trim(list(a), 0))

    def __repr__(self):
        return f"F{self.order}:modulus={_poly_str(PrimeField(self.p), self.modulus)}"

    @classmethod
    def from_order(cls, q: int) -> "ExtensionField":
        """Look up a built-in modulus for q = p^k <= 64."""
        for (p, k), mod in BUILTIN_MODULI.items():
            if p ** k == q:
                return cls(p, mod)
        raise InvalidFieldError(
            f"no built-in modulus for F{q}; pass an explicit modulus")


class Rationals(FieldSpec):
    """Q with Fraction values (always reduced, positive denominator)."""

    @property
    def characteristic(self) -> int:
        return 0

    def element(self, value) -> "FieldElement":
        """From an int, a Fraction or a string such as "-3/4"; never a float."""
        if isinstance(value, float):
            raise SpecMismatchError(f"elements of Q are built exactly, not from {value!r}")
        return FieldElement(self, Fraction(value))

    def _add(self, a, b):
        return a + b

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        return a * b

    def _inv(self, a):
        if a == 0:
            raise DivisionByZeroError("0 is not invertible in Q")
        return 1 / a

    def _sort_key(self, a):
        return a

    def _format(self, a) -> str:
        """str(a); past Python's int-to-string digit limit, which this
        leaves as it is, a ValueTooLongError (exit 64 in the CLI)."""
        try:
            return str(a)
        except ValueError:
            raise ValueTooLongError(
                f"a rational value has more than {sys.get_int_max_str_digits()} digits, "
                "the int-to-string limit, and cannot be printed") from None

    def __repr__(self):
        return "Q"


class _SymbolicTag(FieldSpec):
    is_symbolic = True
    _name = "?"

    def element(self, value):
        raise SymbolicFieldError(
            f"{self._name} is a verdict-only tag and carries no elements")

    def __repr__(self):
        return self._name


class AlgClosedTag(_SymbolicTag):
    """Marks an algebraically closed base field.  Dispatch only."""
    _name = "ACF"


class RealClosedTag(_SymbolicTag):
    """Marks a real closed base field (the reals at the scalar level)."""
    _name = "RCF"

    @property
    def characteristic(self) -> int:
        return 0


QQ = Rationals()
ACF = AlgClosedTag()
RCF = RealClosedTag()


def _power(base, result, e: int, mul=operator.mul):
    """result * base^e by repeated squaring; result is the ring's one and
    mul its product (operator.mul, or a product on canonical values)."""
    while e > 0:
        if e & 1:
            result = mul(result, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return result


class FieldElement:
    """Immutable element of a concrete field, in canonical form."""

    __slots__ = ("spec", "value")

    def __init__(self, spec: FieldSpec, value):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.spec != self.spec:
                raise SpecMismatchError(
                    f"mixed fields: {self.spec} and {other.spec}")
            return other
        if isinstance(other, int):
            return self.spec.element(other)
        if isinstance(other, Fraction) and isinstance(self.spec, Rationals):
            return self.spec.element(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.spec, self.spec._add(self.value, o.value))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.spec, self.spec._neg(self.value))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.spec, self.spec._mul(self.value, o.value))

    __rmul__ = __mul__

    def inv(self) -> "FieldElement":
        return FieldElement(self.spec, self.spec._inv(self.value))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        return _power(self, self.spec.one(), e)

    def is_zero(self) -> bool:
        return self == self.spec.zero()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return other.spec == self.spec and other.value == self.value
        if isinstance(other, (int, Fraction)):
            o = self._coerce(other)
            return o is not None and o.value == self.value
        return NotImplemented

    def __hash__(self):
        return hash((self.spec, self.value))

    def sort_key(self):
        return self.spec._sort_key(self.value)

    def __str__(self):
        return self.spec._format(self.value)

    def __repr__(self):
        return f"<{self} in {self.spec}>"


def two_adic_valuation(r) -> int | float:
    """v_2 of a rational: v_2(num) - v_2(den), with math.inf for 0.

    Accepts a FieldElement over Q, a Fraction, or an int.
    """
    if isinstance(r, FieldElement):
        if not isinstance(r.spec, Rationals):
            raise SpecMismatchError("2-adic valuation is defined over Q")
        r = r.value
    r = Fraction(r)
    if r == 0:
        return math.inf
    num, den = abs(r.numerator), r.denominator
    v = 0
    while num % 2 == 0:
        num //= 2
        v += 1
    while den % 2 == 0:
        den //= 2
        v -= 1
    return v
