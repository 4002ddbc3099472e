"""Seeded input generators for the benchmark workloads.

A workload is an endless sequence of rounds.  Round i draws from its own
random stream, keyed by (workload, seed, i), so one seed always yields the
same inputs and a run that stops after any round has seen a prefix of the
same sequence.  Every round has a fixed composition (verbs, fields, degrees,
heights and sizes); only polynomials and operands are random.  That keeps the
cost of a round nearly the same across seeds, so medians over a run are
steady while the inputs still change with the seed.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import refcheck

WORKLOADS = ("decide-mix", "rational-search", "matrix-enum")


@dataclass(frozen=True)
class Field:
    """A field as the CLI spells it, plus the data the reference needs."""

    name: str
    p: int = 0              # characteristic of a finite field, 0 for Q/ACF/RCF
    modulus: tuple = ()     # ascending coefficients of the F_{p^k} modulus

    @property
    def finite(self) -> bool:
        return self.p > 0

    @property
    def order(self) -> int:
        return self.p ** (len(self.modulus) - 1 if self.modulus else 1)

    @property
    def symbolic(self) -> bool:
        return self.name in ("ACF", "RCF")


Q = Field("Q")
ACF = Field("ACF")
RCF = Field("RCF")

# The built-in moduli of the bare "Fq" spellings (q = p^k <= 64, k >= 2).
# They are part of the CLI contract: element strings in reports are written
# in the basis they define.
BUILTIN_MODULI = {
    4: (2, (1, 1, 1)),
    8: (2, (1, 1, 0, 1)),
    9: (3, (1, 0, 1)),
    16: (2, (1, 1, 0, 0, 1)),
    25: (5, (2, 0, 1)),
    27: (3, (1, 2, 0, 1)),
    32: (2, (1, 0, 1, 0, 0, 1)),
    49: (7, (1, 0, 1)),
    64: (2, (1, 1, 0, 0, 0, 0, 1)),
}

# Irreducible moduli spelled out on the command line ("Fq:modulus=...").
EXPLICIT_MODULI = [
    (2, (1, 0, 1, 1)),      # F8:  x^3+x^2+1
    (3, (2, 2, 1)),         # F9:  x^2+2*x+2
    (5, (2, 1, 1)),         # F25: x^2+x+2
    (2, (1, 0, 0, 1, 1)),   # F16: x^4+x^3+1
    (3, (1, 0, 2, 1)),      # F27: x^3+2*x^2+1
    (7, (3, 1, 1)),         # F49: x^2+x+3
]

SMALL_PRIMES = [p for p in range(2, 62) if all(p % d for d in range(2, p))]
LARGE_PRIMES = [p for p in range(101, 252) if all(p % d for d in range(2, p))]
PERMUTATION_PRIME = 53                    # p = 2 mod 3, so x^3 permutes F_p
PERMUTATION_ORDERS = [16, 27, 32]


def prime_field(p: int) -> Field:
    return Field(f"F{p}", p)


def builtin_field(q: int) -> Field:
    p, mod = BUILTIN_MODULI[q]
    return Field(f"F{q}", p, mod)


def explicit_field(p: int, mod: tuple) -> Field:
    return Field(f"F{p ** (len(mod) - 1)}:modulus={render(mod)}", p, mod)


@dataclass(frozen=True)
class Decision:
    """One decision: a CLI verb, or "zero_fiber" for the library oracle."""

    verb: str
    field: Field
    coeffs: tuple = ()      # univariate f, ascending (ints, or Fractions over Q)
    terms: tuple = ()       # bivariate f as ((e1, e2), coefficient) pairs
    n: int | None = None
    height: int | None = None
    lhs: str | None = None
    rhs: str | None = None

    @property
    def poly(self) -> str:
        return render_bivariate(self.terms) if self.terms else render(self.coeffs)

    def argv(self) -> list[str]:
        # "--opt=value" keeps argparse from reading "-x^2" as an option.
        argv = [self.verb, f"--poly={self.poly}", f"--field={self.field.name}",
                "--output", "json"]
        if self.terms:
            argv += ["--vars", "2"]
        if self.n is not None:
            argv += ["--n", str(self.n)]
        if self.height is not None:
            argv += ["--height", str(self.height)]
        if self.lhs is not None:
            argv += [f"--lhs={self.lhs}", f"--rhs={self.rhs}"]
        return argv


# ---------------------------------------------------------------------------
# Rendering in the CLI polynomial grammar
# ---------------------------------------------------------------------------

def _signed_terms(pairs) -> str:
    out = ""
    for coeff, mono in pairs:
        mag = abs(coeff)
        body = str(mag) if not mono else (mono if mag == 1 else f"{mag}*{mono}")
        if coeff < 0:
            out += "-" + body
        else:
            out += ("+" if out else "") + body
    return out or "0"


def render(coeffs, var: str = "x") -> str:
    """Ascending coefficients -> "x^4+2*x-3/4"."""
    pairs = []
    for i in range(len(coeffs) - 1, -1, -1):
        if coeffs[i] != 0:
            mono = "" if i == 0 else (var if i == 1 else f"{var}^{i}")
            pairs.append((coeffs[i], mono))
    return _signed_terms(pairs)


def render_bivariate(terms) -> str:
    pairs = []
    for exps, coeff in terms:
        factors = [f"x{j + 1}" if e == 1 else f"x{j + 1}^{e}"
                   for j, e in enumerate(exps) if e]
        pairs.append((coeff, "*".join(factors)))
    return _signed_terms(pairs)


# ---------------------------------------------------------------------------
# Plain polynomial helpers used only to shape inputs.  Inputs are made
# before and between timed decisions, so no sympy here: importing it would
# add to the process's time and memory.  The checker (refcheck.py) uses
# sympy after the timed phase.
# ---------------------------------------------------------------------------

def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def eval_mod(coeffs, x: int, p: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _divmod_mod(a, b, p):
    r = _trim(list(a))
    inv = pow(b[-1], p - 2, p)
    while len(r) >= len(b):
        c = r[-1] * inv % p
        shift = len(r) - len(b)
        for i, bi in enumerate(b):
            r[shift + i] = (r[shift + i] - c * bi) % p
        _trim(r)
    return r


def _mulmod(a, b, m, p):
    return _divmod_mod([c % p for c in poly_mul(a, b)] if a and b else [], m, p)


def _gcd_mod(a, b, p):
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _divmod_mod(a, b, p)
    return a


def min_factor_degree(h, p: int) -> int:
    """Least degree of an irreducible factor of h over F_p (distinct degree)."""
    h = _trim([c % p for c in h])
    xp = [0, 1]
    for d in range(1, len(h)):
        e, base, acc = p, xp, [1]
        while e:
            if e & 1:
                acc = _mulmod(acc, base, h, p)
            base = _mulmod(base, base, h, p)
            e >>= 1
        xp = acc
        diff = list(xp) + [0] * max(0, 2 - len(xp))
        diff[1] = (diff[1] - 1) % p
        if len(_gcd_mod(h, diff, p)) > 1:
            return d
    return len(h) - 1


# ---------------------------------------------------------------------------
# Random pieces
# ---------------------------------------------------------------------------

def rand_mod(rng, p: int, deg: int) -> tuple:
    return tuple([rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)])


def rand_int(rng, deg: int, bound: int = 5) -> tuple:
    cs = [rng.randint(-bound, bound) for _ in range(deg)]
    return tuple(cs + [rng.randint(1, 3)])


def rand_rational(rng, deg: int) -> tuple:
    cs = [Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3))) for _ in range(deg)]
    return tuple(cs + [Fraction(rng.randint(1, 4), rng.choice((1, 2)))])


def permutation_monomial(rng, q: int, p: int) -> tuple:
    """a*x^k + b with gcd(k, q - 1) = 1, a permutation of F_q, k the least
    such exponent.  The Hermite test then runs to the end, O(q^2 k) work:
    the costliest decision in the mix."""
    k = next(k for k in range(2, 8) if math.gcd(k, q - 1) == 1)
    return tuple([rng.randrange(p)] + [0] * (k - 1) + [rng.randrange(1, p)])


def rand_bivariate(rng, p: int, nterms: int) -> tuple:
    terms = {}
    while len(terms) < nterms:
        exps = (rng.randint(0, 3), rng.randint(0, 3))
        if exps == (0, 0):
            continue
        c = rng.randrange(1, p) if p else rng.choice([-3, -2, -1, 1, 2, 3])
        terms[exps] = c
    return tuple(sorted(terms.items(), key=lambda t: (-sum(t[0]), t[0])))


def irreducible_above(rng, p: int, degree: int) -> tuple:
    """A random monic irreducible h over F_p of the given degree with h(0) != 0."""
    while True:
        h = list(rand_mod(rng, p, degree))
        h[-1] = 1
        if h[0] != 0 and min_factor_degree(h, p) == degree:
            return tuple(h)


def colliding_pair(rng, f, p: int, nvars: int = 1):
    """Distinct points of F_p^nvars with equal values under f, or None."""
    fibers = {}
    for i in range(p ** nvars):
        pt = tuple((i // p ** j) % p for j in range(nvars))
        fibers.setdefault(f(pt), []).append(pt)
    shared = [pts for pts in fibers.values() if len(pts) >= 2]
    if not shared:
        return None
    return tuple(rng.sample(rng.choice(shared), 2))


def _fmt_point(pt):
    return str(pt[0]) if len(pt) == 1 else "[" + ",".join(f'"{v}"' for v in pt) + "]"


def _bivariate_mod(terms, p):
    return lambda pt: sum(c * pt[0] ** e1 * pt[1] ** e2 for (e1, e2), c in terms) % p


# ---------------------------------------------------------------------------
# Workload rounds
# ---------------------------------------------------------------------------

def _decide_mix(rng) -> list[Decision]:
    out = []
    add = out.append
    # Scalar analyze over F_p (p <= 61), two of them permutation monomials,
    # which run the Hermite test to the end.  Those are the costliest
    # decisions in the mix and set its tail, so their field is fixed.
    for _ in range(2):
        p = PERMUTATION_PRIME
        add(Decision("analyze", prime_field(p), permutation_monomial(rng, p, p)))
    for _ in range(6):
        p = rng.choice(SMALL_PRIMES)
        add(Decision("analyze", prime_field(p), rand_mod(rng, p, rng.randint(1, 8))))
    # Scalar analyze over F_p with p in 101..251.  Quadratics: the root count
    # rejects them at once, so the full O(q^2) Hermite loop never runs here.
    for _ in range(2):
        p = rng.choice(LARGE_PRIMES)
        add(Decision("analyze", prime_field(p), rand_mod(rng, p, 2)))
    # Scalar analyze over built-in and explicit-modulus F_{p^k}.
    for i in range(4):
        fld = builtin_field(rng.choice(PERMUTATION_ORDERS if i == 0 else sorted(BUILTIN_MODULI)))
        f = (permutation_monomial(rng, fld.order, fld.p) if i == 0
             else rand_mod(rng, fld.p, rng.randint(1, 7)))
        add(Decision("analyze", fld, f))
    for _ in range(2):
        fld = explicit_field(*rng.choice(EXPLICIT_MODULI))
        add(Decision("analyze", fld, rand_mod(rng, fld.p, rng.randint(2, 6))))
    # Bivariate analyze: pigeonhole scans over F_p, a tiny rational search.
    for _ in range(3):
        p = rng.choice(SMALL_PRIMES[:6])
        add(Decision("analyze", prime_field(p), terms=rand_bivariate(rng, p, 3)))
    add(Decision("analyze", Q, terms=rand_bivariate(rng, 0, 3), height=2))
    # Scalar analyze over Q, RCF and ACF at small heights.
    for _ in range(3):
        add(Decision("analyze", Q, rand_rational(rng, rng.randint(2, 8)),
                     height=rng.randint(3, 5)))
    add(Decision("analyze", RCF, (0, 1, 0, 1, 0, rng.randint(1, 3)), height=4))
    for _ in range(2):
        add(Decision("analyze", RCF, rand_int(rng, rng.randint(1, 9)),
                     height=rng.randint(3, 5)))
    for _ in range(2):
        add(Decision("analyze", ACF, rand_int(rng, rng.randint(2, 8)),
                     height=rng.randint(3, 5)))
    # Matrix decisions: f = c + x^m * h shaped to reach every case.
    for i, deg in enumerate((6, 0, 8, 5)):
        p = rng.choice(SMALL_PRIMES[:10])
        n = rng.choice((2, 3))
        c = rng.randrange(p)
        if i == 0:      # m >= 2: nilpotent witness
            f = (c, 0) + rand_mod(rng, p, deg - 2)
        elif i == 1:    # n < d: the open case
            f = (c,) + irreducible_above(rng, p, n + 1)
        else:
            f = rand_mod(rng, p, deg)
        add(Decision("matrix", prime_field(p), f, n=n))
    for i, deg in enumerate((9, 12, 16)):
        n = rng.choice((2, 3))
        if i == 0:      # f = c + x * (x - r) * g: a rational root of h, d = 1
            r = rng.randint(-3, 3) or 1
            h = poly_mul([-r, 1], rand_int(rng, deg - 2))
            f = (rng.randint(-4, 4),) + tuple(h)
        else:
            f = rand_int(rng, deg, bound=9)
        add(Decision("matrix", Q, f, n=n))
    add(Decision("matrix", ACF, rand_int(rng, rng.randint(2, 8)), n=2))
    add(Decision("matrix", RCF, rand_int(rng, rng.randint(2, 8)), n=3))
    # Permutation checks over F_p and built-in F_{p^k}.
    for fld in (prime_field(PERMUTATION_PRIME), builtin_field(rng.choice(PERMUTATION_ORDERS))):
        add(Decision("permcheck", fld, permutation_monomial(rng, fld.order, fld.p)))
    for fld in (prime_field(rng.choice(SMALL_PRIMES)),
                builtin_field(rng.choice(sorted(BUILTIN_MODULI)))):
        add(Decision("permcheck", fld, rand_mod(rng, fld.p, rng.randint(2, 9))))
    # Simple-roots checks.
    p = rng.choice(SMALL_PRIMES)
    add(Decision("simpleroots", prime_field(p), rand_mod(rng, p, rng.randint(2, 10))))
    p = rng.choice(SMALL_PRIMES[:4])    # f in x^p only: f' = 0, the degenerate case
    add(Decision("simpleroots", prime_field(p), tuple(
        c if i % p == 0 else 0 for i, c in enumerate(rand_mod(rng, p, 2 * p)))))
    fld = builtin_field(rng.choice(sorted(BUILTIN_MODULI)))
    add(Decision("simpleroots", fld, rand_mod(rng, fld.p, rng.randint(2, 8))))
    add(Decision("simpleroots", Q, rand_rational(rng, rng.randint(2, 8))))
    # verify: claimed pairs, true and false, scalar / tuple / matrix.
    p = rng.choice(SMALL_PRIMES[3:])
    pair = None
    while pair is None:
        f = rand_mod(rng, p, rng.randint(2, 6))
        pair = colliding_pair(rng, lambda pt: eval_mod(f, pt[0], p), p)
    a, b = pair
    add(Decision("verify", prime_field(p), f, lhs=_fmt_point(a), rhs=_fmt_point(b)))
    while True:
        a, b = rng.randrange(p), rng.randrange(p)
        if a != b and eval_mod(f, a, p) != eval_mod(f, b, p):
            break
    add(Decision("verify", prime_field(p), f, lhs=str(a), rhs=str(b)))
    r, s = Fraction(rng.randint(-6, 6), rng.randint(1, 3)), Fraction(rng.randint(13, 17), 2)
    add(Decision("verify", Q, _with_roots(rng, r, s, rng.randint(0, 3), bound=5),
                 lhs=str(r), rhs=str(s)))
    p = rng.choice(SMALL_PRIMES[:5])
    n = rng.choice((2, 3))
    f = (rng.randrange(p), 0) + rand_mod(rng, p, rng.randint(0, 4))
    nil = [["0"] * n for _ in range(n)]
    nil[0][n - 1] = "1"
    zero = [["0"] * n for _ in range(n)]
    fmt = lambda m: "[" + ",".join("[" + ",".join(f'"{e}"' for e in row) + "]" for row in m) + "]"
    add(Decision("verify", prime_field(p), f, lhs=fmt(nil), rhs=fmt(zero)))
    p = rng.choice(SMALL_PRIMES[:6])
    pair = None
    while pair is None:
        terms = rand_bivariate(rng, p, 3)
        pair = colliding_pair(rng, _bivariate_mod(terms, p), p, nvars=2)
    a, b = pair
    add(Decision("verify", prime_field(p), terms=terms, lhs=_fmt_point(a), rhs=_fmt_point(b)))
    return out


def _with_roots(rng, r, s, extra_degree: int, bound: int = 3) -> tuple:
    """(x - r)(x - s) * g + c: r and s collide, g a random integer polynomial."""
    g = [Fraction(c) for c in rand_int(rng, extra_degree, bound)]
    f = poly_mul(poly_mul([-r, 1], [-s, 1]), g)
    f[0] += rng.randint(-5, 5)
    return tuple(f)


def _monotone_quintic(rng) -> tuple:
    """c5*x^5 + c3*x^3 + c1*x + c0 with c5, c3, c1 > 0: f' > 0 on R, so no
    two points collide and the scan always covers the whole grid."""
    return (rng.randint(-5, 5), rng.randint(1, 5), 0, rng.randint(1, 5), 0, rng.randint(1, 3))


def _exhaustive(rng, deg: int, nonmonotone: bool = False) -> tuple:
    """A random integer polynomial without a collision on the height-20 grid,
    so that its analysis scans all of it (checked with the reference scan)."""
    while True:
        f = rand_int(rng, deg)
        if nonmonotone:
            f = (f[0], -rng.randint(1, 5)) + f[2:]
        if refcheck.first_collision(refcheck.rational_grid(20),
                                    refcheck.scaled_value(f, 20))[0] is None:
            return f


def _rational_search(rng) -> list[Decision]:
    # Three cost bands of fixed size, each wide enough that the median and
    # the tail percentile fall inside one band whatever the seed: early
    # stops (bivariate searches, mid-grid collisions) below, full scans of
    # the height-12 grid (1,033 points) around the median, and height-20
    # analyses (4,875 points) above it.
    out = []
    add = out.append
    for _ in range(9):
        add(Decision("search", Q, _monotone_quintic(rng), height=12))
    add(Decision("search", Q, (0, 2, 0, 0, 1), height=12))          # x^4+2*x
    for field in (Q, ACF):
        add(Decision("analyze", field, _exhaustive(rng, 4)))
        add(Decision("analyze", field, _monotone_quintic(rng)))
    add(Decision("analyze", RCF, _exhaustive(rng, 4)))
    # A quintic with f'(0) < 0 < f'(oo) is not monotone, so RCF scans.
    add(Decision("analyze", RCF, _exhaustive(rng, 5, nonmonotone=True)))
    for _ in range(2):
        add(Decision("analyze", Q, terms=rand_bivariate(rng, 0, 3), height=4))
    # Collisions placed mid-grid, so the reported pair checks scan order.
    for _ in range(2):
        r = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((2, 3)))
        s = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((2, 3)))
        if r == s:
            s = -s
        add(Decision("search", Q, _with_roots(rng, r, s, 2), height=10))
    return out


def _matrix_enum(rng) -> list[Decision]:
    # Every call stays well under a second: the host's speed drifts within
    # longer calls in ways the calibration loop cannot follow.  So n = 3 is
    # enumerated over F2 (512 matrices) and tuple-valued entries over F4;
    # the F3 n = 3 and F9 n = 2 spaces (19,683 and 6,561 matrices) are not.
    out = []
    add = out.append

    def x_times_h(p, deg_h):
        """f = x * h with h(0) != 0."""
        h = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(deg_h - 1)]
        return (0,) + tuple(h + [rng.randrange(1, p)])

    # Sizes are chosen so that the median falls among the F3 n=2 fibers and
    # the 90th percentile among the F4, F5 and F2 n=3 fibers, whose costs
    # barely depend on the seed.
    for _ in range(2):
        add(Decision("zero_fiber", prime_field(2), x_times_h(2, 2), n=3))
    for _ in range(2):
        add(Decision("zero_fiber", prime_field(5), x_times_h(5, 1), n=2))
    for deg_h in (1, 2, 1, 2):
        add(Decision("zero_fiber", builtin_field(4), x_times_h(2, deg_h), n=2))
    for _ in range(30):
        add(Decision("zero_fiber", prime_field(3), x_times_h(3, 2), n=2))
    for _ in range(10):
        add(Decision("zero_fiber", prime_field(2), x_times_h(2, 2), n=2))
    # Full scans through the CLI: n = 2 < d = deg h, so no matrix collides
    # with 0 and the scan runs until two nonzero matrices collide, or ends.
    for p in (2, 2, 2, 2, 3, 3):
        add(Decision("bruteforce", prime_field(p), (0,) + irreducible_above(rng, p, 3), n=2))
    for _ in range(2):
        add(Decision("bruteforce", builtin_field(4), x_times_h(2, 3), n=2))
    for i in range(4):
        h = rand_int(rng, i % 2 + 1, bound=3)
        if h[0] == 0:
            h = (1,) + h[1:]
        add(Decision("search", Q, (0,) + h, n=2, height=1))
    return out


_ROUNDS = {
    "decide-mix": _decide_mix,
    "rational-search": _rational_search,
    "matrix-enum": _matrix_enum,
}


def round_inputs(workload: str, seed: int, index: int) -> list[Decision]:
    """The decisions of round `index`, shuffled; a pure function of its arguments."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    decisions = _ROUNDS[workload](rng)
    rng.shuffle(decisions)
    return decisions
