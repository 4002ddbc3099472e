"""Independent correctness reference for the benchmark's decisions.

Expected outcomes are recomputed from the generated inputs with plain int
and Fraction arithmetic, plus sympy for factor degrees and real roots.
Nothing here calls evainject: its reports are only the claims under test.
The checks run after the timed phase.

check() returns the list of problems with one decision (empty when the
outcome is right) and the number of evaluations of f its documented scan
covers, which the harness turns into evals_per_s.
"""
from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

EXIT_BY_STATUS = {"Injective": 0, "NotInjective": 1,
                  "NecessaryConditionFails": 2, "Undecided": 2}
MATRIX_CAP = 1_000_000      # the CLI default cap on enumerated points


# ---------------------------------------------------------------------------
# Fields on plain values
# ---------------------------------------------------------------------------

class FiniteField:
    """F_q with elements as enumeration indices sum(c_i * p^i)."""

    def __init__(self, p: int, modulus: tuple = ()):
        self.p = p
        self.k = len(modulus) - 1 if modulus else 1
        self.q = p ** self.k
        self.modulus = tuple(modulus)
        if self.k == 1:
            self.add = lambda a, b: (a + b) % p
            self.mul = lambda a, b: (a * b) % p
        else:
            digits = [self._digits(i) for i in range(self.q)]
            add_t = [[self._index([(x + y) % p for x, y in zip(da, db)])
                      for db in digits] for da in digits]
            mul_t = [[self._index(self._mulmod(da, db)) for db in digits]
                     for da in digits]
            self.add = lambda a, b: add_t[a][b]
            self.mul = lambda a, b: mul_t[a][b]

    def _digits(self, i: int) -> list[int]:
        return [(i // self.p ** j) % self.p for j in range(self.k)]

    def _index(self, digits) -> int:
        return sum(c * self.p ** j for j, c in enumerate(digits))

    def _mulmod(self, a, b) -> list[int]:
        p, m, k = self.p, self.modulus, self.k
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
        for top in range(len(prod) - 1, k - 1, -1):
            c = prod[top]
            if c:
                for j in range(k + 1):
                    prod[top - k + j] = (prod[top - k + j] - c * m[j]) % p
        return prod[:k]

    def const(self, c) -> int:
        if isinstance(c, Fraction):
            return self.mul(c.numerator % self.p, pow(c.denominator, self.p - 2, self.p))
        return c % self.p

    def elements(self):
        return range(self.q)

    def parse(self, text: str) -> int:
        if self.k == 1:
            return int(text) % self.p
        digits = [0] * self.k
        if text.strip() != "0":
            for term in text.split("+"):
                coeff, _, mono = term.rpartition("*") if "*" in term else ("", "", term)
                if "x" not in mono:
                    coeff, mono = mono, ""
                exp = 0 if not mono else (int(mono.split("^")[1]) if "^" in mono else 1)
                digits[exp] = int(coeff) if coeff else 1
        return self._index(digits)


class Rationals:
    add = staticmethod(lambda a, b: a + b)
    mul = staticmethod(lambda a, b: a * b)

    @staticmethod
    def const(c) -> Fraction:
        return Fraction(c)

    @staticmethod
    def parse(text: str) -> Fraction:
        return Fraction(text)


_FIELDS: dict = {}


def ref_field(field):
    """Plain arithmetic for a generated Field (ACF and RCF compute over Q)."""
    if not field.finite:
        return Rationals
    key = (field.p, field.modulus)
    if key not in _FIELDS:
        _FIELDS[key] = FiniteField(field.p, field.modulus)
    return _FIELDS[key]


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def poly_eval(F, cs, a):
    acc = F.const(0)
    for c in reversed(cs):
        acc = F.add(F.mul(acc, a), c)
    return acc


def bivariate_eval(F, terms, pt):
    acc = F.const(0)
    for (e1, e2), c in terms:
        t = c
        for _ in range(e1):
            t = F.mul(t, pt[0])
        for _ in range(e2):
            t = F.mul(t, pt[1])
        acc = F.add(acc, t)
    return acc


def mat_mul(F, a, b):
    n = len(a)
    zero = F.const(0)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = zero
            for t in range(n):
                acc = F.add(acc, F.mul(a[i][t], b[t][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_eval(F, cs, a):
    """Horner at a matrix; the constant c becomes c * I."""
    n = len(a)
    zero = F.const(0)
    acc = tuple((zero,) * n for _ in range(n))
    for c in reversed(cs):
        acc = mat_mul(F, acc, a)
        acc = tuple(tuple(F.add(acc[i][j], c) if i == j else acc[i][j]
                          for j in range(n)) for i in range(n))
    return acc


def make_f(d):
    """(field, evaluator) for a decision; the evaluator takes parsed operands."""
    F = ref_field(d.field)
    if d.terms:
        terms = [(e, F.const(c)) for e, c in d.terms]
        return F, lambda pt: bivariate_eval(F, terms, pt)
    cs = [F.const(c) for c in d.coeffs]

    def f(v):
        return mat_eval(F, cs, v) if isinstance(v, tuple) and isinstance(v[0], tuple) \
            else poly_eval(F, cs, v)
    return F, f


def parse_operand(F, value):
    """JSON operand from a report (or CLI text) -> plain value."""
    if isinstance(value, str) and value.strip().startswith("["):
        value = json.loads(value)
    if isinstance(value, list):
        if value and isinstance(value[0], list):
            return tuple(tuple(F.parse(str(e)) for e in row) for row in value)
        return tuple(F.parse(str(e)) for e in value)
    return F.parse(str(value))


# ---------------------------------------------------------------------------
# Scans in the documented orders
# ---------------------------------------------------------------------------

_GRIDS: dict = {}


def rational_grid(h: int) -> list[Fraction]:
    """Reduced a/b, 1 <= b <= h, |a/b| <= h, ordered by (b, a)."""
    if h not in _GRIDS:
        _GRIDS[h] = [Fraction(a, b) for b in range(1, h + 1)
                     for a in range(-h * b, h * b + 1) if math.gcd(a, b) == 1]
    return _GRIDS[h]


def first_collision(points, value):
    """(lhs, rhs, points visited) of the first repeat in scan order."""
    seen = {}
    for i, x in enumerate(points):
        v = value(x)
        if v in seen:
            return seen[v], x, i + 1
        seen[v] = x
    return None, None, len(points)


def scaled_value(coeffs, height: int):
    """x -> M * f(x) as an int, for x on the rational grid of the given
    height, M clearing every denominator there: homogenized integer Horner.
    Equal keys mean equal values of f, so collisions are unchanged."""
    lcm = 1
    for c in coeffs:
        den = Fraction(c).denominator
        lcm = lcm * den // math.gcd(lcm, den)
    ints = [int(Fraction(c) * lcm) for c in reversed(coeffs)]
    lead, rest = ints[0], ints[1:]
    grid_lcm = math.lcm(*range(1, height + 1))
    factor = {b: (grid_lcm // b) ** len(rest) for b in range(1, height + 1)}

    def value(x: Fraction) -> int:
        a, b = x.numerator, x.denominator
        acc, bp = lead, 1
        for c in rest:
            bp *= b
            acc = acc * a + c * bp
        return acc * factor[b]
    return value


def tuple_height(h: int) -> int:
    """Height the bivariate rational search can afford under the point cap."""
    h = max(h, 1)
    while h > 1 and len(rational_grid(h)) ** 2 > MATRIX_CAP:
        h -= 1
    return h


# ---------------------------------------------------------------------------
# sympy-backed facts over Q and F_p
# ---------------------------------------------------------------------------

def _sympy_poly(coeffs, p: int = 0):
    import sympy
    x = sympy.Symbol("x")
    desc = [sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
            for c in reversed(coeffs)]
    if p:
        return sympy.Poly([int(c) % p for c in desc], x, modulus=p)
    return sympy.Poly(desc, x, domain="QQ")


def min_factor_degree(coeffs, p: int = 0) -> int:
    _, factors = _sympy_poly(coeffs, p).factor_list()
    return min(g.degree() for g, _ in factors)


def distinct_rational_roots(coeffs) -> list[Fraction]:
    _, factors = _sympy_poly(coeffs).factor_list()
    roots = []
    for g, _ in factors:
        if g.degree() == 1:
            a, b = g.all_coeffs()
            r = -b / a
            roots.append(Fraction(int(r.p), int(r.q)))
    return roots


def strictly_monotone(coeffs) -> bool:
    """f' keeps one sign on R: every real root of f' has even multiplicity."""
    deg = len(coeffs) - 1
    if deg == 1:
        return True
    if deg % 2 == 0:
        return False
    _, parts = _sympy_poly(derivative(coeffs)).sqf_list()
    return all(g.count_roots() == 0 for g, mult in parts if mult % 2 == 1)


def derivative(coeffs):
    return [i * c for i, c in enumerate(coeffs)][1:]


def _shifted_even_power(coeffs) -> bool:
    """f = lc * (x - b)^d + c with d even: the ACF repeated-root shortcut."""
    cs = [Fraction(c) for c in coeffs]
    d = len(cs) - 1
    if d % 2:
        return False
    lc = cs[-1]
    b = -cs[d - 1] / (d * lc)
    return all(cs[i] == lc * math.comb(d, i) * (-b) ** (d - i) for i in range(1, d))


# ---------------------------------------------------------------------------
# Expected outcomes
# ---------------------------------------------------------------------------

class Expect:
    """Allowed statuses, the exact witness when the scan order fixes it,
    and the points of f the decision's documented scan evaluates."""

    def __init__(self, statuses, witness=None, evals=0, extra=None):
        self.statuses = set(statuses)
        self.witness = witness
        self.evals = evals
        self.extra = extra or {}


def _image_is_full(F, f):
    return len({f(a) for a in F.elements()}) == F.q


def _expect_rational_scan(d, allowed_without_collision):
    height = 20 if d.height is None else d.height
    lhs, rhs, visited = first_collision(rational_grid(height), scaled_value(d.coeffs, height))
    if lhs is None:
        return Expect(allowed_without_collision, evals=visited)
    return Expect({"NotInjective"}, (lhs, rhs), visited)


def expect(d) -> Expect:
    F, f = make_f(d)
    fld = d.field
    deg = len(d.coeffs) - 1
    verb = d.verb
    if verb in ("analyze", "permcheck") and fld.finite and not d.terms:
        full = _image_is_full(F, f)
        if verb == "analyze" and deg == 1:
            return Expect({"Injective"})
        return Expect({"Injective" if full else "NotInjective"}, evals=fld.order,
                      extra={"permutation": full})
    if verb == "analyze" and d.terms:
        if fld.finite:
            pts = list(itertools.product(F.elements(), repeat=2))
            lhs, rhs, visited = first_collision(pts, f)
            return Expect({"NotInjective"}, (lhs, rhs), visited)
        h = tuple_height(20 if d.height is None else d.height)
        pts = list(itertools.product(rational_grid(h), repeat=2))
        lhs, rhs, visited = first_collision(pts, f)
        if lhs is None:
            return Expect({"Undecided"}, evals=visited)
        return Expect({"NotInjective"}, (lhs, rhs), visited)
    if verb == "analyze":
        if deg == 1:
            return Expect({"Injective"})
        if fld.name == "Q":
            return _expect_rational_scan(d, {"Undecided"})
        if fld.name == "RCF":
            if strictly_monotone(d.coeffs):
                return Expect({"Injective"})
            return _expect_rational_scan(d, {"NecessaryConditionFails"})
        # ACF: never injective; a root pair or a shifted even power gives a
        # witness before any scan, otherwise the grid scan decides.
        if len(distinct_rational_roots(d.coeffs)) >= 2 or _shifted_even_power(d.coeffs):
            return Expect({"NotInjective"})
        e = _expect_rational_scan(d, {"NecessaryConditionFails"})
        e.witness = None        # any verified pair is a correct answer here
        return e
    if verb == "search" and d.n is None:
        return _expect_rational_scan(d, {"Undecided"})
    if verb in ("search", "bruteforce"):
        values = (rational_grid(d.height or 20) if verb == "search"
                  else list(F.elements()))
        n = d.n
        mats = (tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n))
                for flat in itertools.product(values, repeat=n * n))
        lhs, rhs, visited = first_collision(list(mats), f)
        if lhs is None:
            return Expect({"Injective" if verb == "bruteforce" else "Undecided"},
                          evals=visited)
        return Expect({"NotInjective"}, (lhs, rhs), visited)
    if verb == "matrix":
        if deg == 1:
            return Expect({"Injective"})
        g = [c % fld.p if fld.finite else Fraction(c) for c in d.coeffs]
        g[0] = 0
        m = next(i for i, c in enumerate(g) if c != 0)
        h = g[m:]
        dmin = min_factor_degree(h, fld.p) if len(h) > 1 else None
        if m >= 2 or (dmin is not None and dmin <= d.n):
            statuses = {"NotInjective"}
        else:
            statuses = {"NecessaryConditionFails" if fld.symbolic else "Undecided"}
        return Expect(statuses, extra={"m": m, "d": dmin})
    if verb == "simpleroots":
        deriv = derivative(d.coeffs)
        if fld.finite:
            dcs = [F.const(c) for c in deriv]
            degenerate = all(c == 0 for c in dcs)
            holds = not degenerate and all(poly_eval(F, dcs, b) != 0 for b in F.elements())
        else:
            holds = not distinct_rational_roots(deriv)
        return Expect({"Undecided" if holds else "NecessaryConditionFails"},
                      extra={"holds": holds, "deriv": deriv})
    if verb == "verify":
        lhs, rhs = parse_operand(F, d.lhs), parse_operand(F, d.rhs)
        if lhs != rhs and f(lhs) == f(rhs):
            return Expect({"NotInjective"}, (lhs, rhs))
        return Expect({"Undecided"})
    if verb == "zero_fiber":
        n, q = d.n, fld.order
        cs = [F.const(c) for c in d.coeffs]
        target = mat_eval(F, cs, tuple((0,) * n for _ in range(n)))
        fiber = []
        for flat in itertools.product(F.elements(), repeat=n * n):
            if any(flat):
                a = tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n))
                if mat_eval(F, cs, a) == target:
                    fiber.append(a)
        return Expect(set(), extra={"fiber": fiber}, evals=q ** (n * n))
    raise ValueError(f"no reference for verb {verb!r}")


# ---------------------------------------------------------------------------
# Checking an outcome
# ---------------------------------------------------------------------------

def check_zero_fiber(d, matrices, exp: Expect) -> list[str]:
    """matrices: the oracle's result as rows of entry strings.  The fiber is
    a set, so the order of enumeration is not checked; a matrix listed twice
    is a failure."""
    F = ref_field(d.field)
    got = sorted(tuple(tuple(F.parse(e) for e in row) for row in m) for m in matrices)
    want = sorted(exp.extra["fiber"])
    if got != want:
        return [f"zero fiber has {len(got)} matrices, reference has {len(want)}"
                + ("" if len(got) != len(want) else " (different matrices)")]
    return []


def check_report(d, rc, report: dict, exp: Expect) -> list[str]:
    """Problems with one CLI outcome (exit code and parsed JSON report)."""
    F, f = make_f(d)
    v = report["verdict"]
    status = v["status"]
    problems = []
    if rc != EXIT_BY_STATUS.get(status):
        problems.append(f"exit code {rc} does not match status {status}")
    if status not in exp.statuses:
        problems.append(f"status {status}, expected {sorted(exp.statuses)}")
    w = v["witness"]
    if status == "NotInjective":
        if w is None:
            return problems + ["NotInjective without a witness"]
        lhs, rhs = parse_operand(F, w["lhs"]), parse_operand(F, w["rhs"])
        image = parse_operand(F, w["image"])
        if lhs == rhs:
            problems.append("witness sides are equal")
        elif f(lhs) != f(rhs):
            problems.append("witness sides have different images")
        elif f(lhs) != image:
            problems.append("witness image is not f(lhs)")
        if exp.witness is not None and (lhs, rhs) != exp.witness:
            problems.append("witness is not the first collision in scan order")
    extra = report.get("extra") or {}
    if d.verb == "matrix" and "m" in exp.extra:
        if extra.get("m") != exp.extra["m"] or extra.get("d") != exp.extra["d"]:
            problems.append(f"profile m={extra.get('m')} d={extra.get('d')}, reference "
                            f"m={exp.extra['m']} d={exp.extra['d']}")
    if d.verb == "permcheck":
        want = exp.extra["permutation"]
        if extra.get("hermite") != want or extra.get("exhaustive") not in (None, want):
            problems.append(f"permcheck extra {extra} disagrees with the image count")
    if d.verb == "simpleroots":
        if extra.get("holds") != exp.extra["holds"]:
            problems.append(f"simple roots holds={extra.get('holds')}, "
                            f"reference {exp.extra['holds']}")
        elif extra.get("b") is not None and any(exp.extra["deriv"]):
            b = F.parse(extra["b"])
            if poly_eval(F, [F.const(c) for c in exp.extra["deriv"]], b) != F.const(0):
                problems.append("violating b is not a root of f'")
    return problems


def check(d, outcome, validator) -> tuple[list[str], int]:
    """(problems, evals) for one outcome; outcome from the harness."""
    if outcome.error is not None:
        return [f"exception: {outcome.error}"], 0
    exp = expect(d)
    if d.verb == "zero_fiber":
        return check_zero_fiber(d, outcome.result, exp), exp.evals
    try:
        report = json.loads(outcome.result)
    except json.JSONDecodeError:
        return [f"exit {outcome.rc} without a JSON report"], 0
    problems = [f"schema: {e.message}" for e in validator.iter_errors(report)]
    if not problems:
        problems = check_report(d, outcome.rc, report, exp)
    return problems, exp.evals
