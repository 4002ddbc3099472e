"""Command-line front end: parse, dispatch to the engine, report.

Verbs
  analyze     scalar (or, with --vars m, multivariate) injectivity
  matrix      injectivity of A -> f(A) on M_n(F), requires --n
  permcheck   permutation-polynomial test over a finite field
  simpleroots the simple-roots necessary condition
  bruteforce  exhaustive oracle (scalar, or matrix with --n)
  search      bounded rational collision search (scalar, or matrix with --n)
  verify      check a claimed collision pair given as --lhs / --rhs

Exit codes: 0 Injective, 1 NotInjective, 2 Undecided or
NecessaryConditionFails, 64 usage or domain error (input nested too deeply
for the parsers included), 70 internal invariant failure or any other
uncaught exception, with its traceback on stderr.  Reports go to stdout as
text (default) or JSON conforming to the shipped report_schema.json;
diagnostics go to stderr.

Polynomial grammar: terms like "x^4+2*x+7" with explicit '*', rational
coefficients like "3/4", unary minus, whitespace ignored; variables are x
(univariate, degree at most MAX_UNIVARIATE_DEGREE) or x1..xm
(multivariate).  Matrix literals are row-major JSON arrays of coefficient
strings, e.g. [["0","1/2"],["1","-1"]]; over F_{p^k} an entry is a
polynomial in the generator x, e.g. "x+1".

Reports print polynomials in the same grammar.  Over F_{p^k}, a coefficient
outside the prime field F_p prints as its polynomial in the generator inside
square brackets, so x + a for the generator a of F4 prints as "x+[x]" and
(a+1)*x^2 as "[x+1]*x^2"; the parser reads no brackets.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction
from importlib import resources

from . import engine
from .engine import Bounds, PermutationCheck, SimpleRootsReport, Status, Witness
from .errors import (
    AlgebraError,
    DivisionByZeroError,
    InternalInvariantError,
    InvalidFieldError,
    ParseError,
)
from .fields import (
    ACF,
    QQ,
    RCF,
    ExtensionField,
    FieldElement,
    FieldSpec,
    PrimeField,
    Rationals,
    _power,
    prime_power,
)
from .matrices import Matrix
from .polynomials import FactorProfile, MultiPoly, UniPoly
from .polynomials.core import _sparse_add, _sparse_mul, _sparse_neg


# ---------------------------------------------------------------------------
# Tokenizer and polynomial parser
# ---------------------------------------------------------------------------

_OPS = set("+-*^()/")
# A univariate result becomes one dense coefficient list, so its degree is
# capped: x^(10^8) alone would take gigabytes of list slots.
MAX_UNIVARIATE_DEGREE = 10**7


def _parse_int(digits: str, text: str, at: int) -> int:
    """int(digits); past Python's int-string digit limit, a ParseError."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"integer with {len(digits)} digits is too long",
                         text, at) from None


# Python's int-to-string digit limit; 0, no limit, before Python 3.10.7
_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _printable(n: int) -> bool:
    """Whether str(n) stays within Python's int-to-string digit limit: at
    most 3 * limit bits always does, and past that |n| < 10^limit decides."""
    limit = _int_max_str_digits()
    return not limit or n.bit_length() <= 3 * limit or abs(n) < 10 ** limit


def _parse_json(text: str, what: str):
    """json.loads(text); a malformed, over-long or too deeply nested literal
    is a ParseError."""
    try:
        return json.loads(text)
    except ValueError as e:  # JSONDecodeError, or Python's int-string limit
        raise ParseError(f"bad {what} literal: {e}", text, 0) from None
    except RecursionError:
        raise ParseError(f"{what} literal nested too deeply", text, 0) from None


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("INT", text[i:j], i))
            i = j
        elif ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum()):
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
        elif ch in _OPS:
            tokens.append(("OP", ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", text, i)
    return tokens


class _PolyParser:
    """Recursive descent over: expr := term (+- term)*; term := unary (* unary)*;
    unary := - unary | atom [^ INT]; atom := rational | var | ( expr ).

    Every subexpression is a sparse {exponent tuple: canonical value} map
    with no zero values, combined by MultiPoly's sparse arithmetic
    (polynomials.core._sparse_*); parse() builds the one UniPoly (nvars
    None) or MultiPoly from the values at the end."""

    def __init__(self, text: str, spec: FieldSpec, nvars: int | None):
        self.text = text
        self.spec = spec
        self.nvars = nvars
        self.tokens = _tokenize(text)
        self.pos = 0
        self.origin = (0,) * (1 if nvars is None else nvars)
        self.zero = spec.zero().value

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None, len(self.text))

    def _next(self):
        tok = self._peek()
        self.pos += 1
        return tok

    def _expect_op(self, op: str):
        kind, val, at = self._next()
        if kind != "OP" or val != op:
            raise ParseError(f"expected {op!r}", self.text, at)

    def _constant(self, value) -> dict:
        return {self.origin: value} if value != self.zero else {}

    def _variable(self, name: str, at: int) -> dict:
        if self.nvars is None:
            if name != "x":
                raise ParseError(f"unknown variable {name!r}; univariate input uses x",
                                 self.text, at)
            idx = 1
        else:
            idx = 1 if name == "x" else (
                _parse_int(name[1:], self.text, at)
                if name.startswith("x") and name[1:].isdigit() else 0)
            if not 1 <= idx <= self.nvars:
                raise ParseError(f"unknown variable {name!r}; expected x1..x{self.nvars}",
                                 self.text, at)
        exps = list(self.origin)
        exps[idx - 1] = 1
        return {tuple(exps): self.spec.one().value}

    def parse(self):
        if not self.tokens:
            raise ParseError("empty polynomial", self.text, 0)
        terms = self._expr()
        kind, val, at = self._peek()
        if kind is not None:
            raise ParseError(f"unexpected token {val!r}", self.text, at)
        spec = self.spec
        if isinstance(spec, Rationals) and not all(
                _printable(c.numerator) and _printable(c.denominator) for c in terms.values()):
            raise ParseError(f"a coefficient has more than {_int_max_str_digits()} "
                             "digits, the int-to-string limit", self.text, 0)
        if self.nvars is None:
            degree = max((e[0] for e in terms), default=-1)
            if degree > MAX_UNIVARIATE_DEGREE:
                raise ParseError(f"degree {degree} exceeds the univariate cap "
                                 f"{MAX_UNIVARIATE_DEGREE}", self.text, 0)
            values = [self.zero] * (degree + 1)
            for e, c in terms.items():
                values[e[0]] = c
            return UniPoly._from_values(spec, values)
        return MultiPoly._from_values(spec, self.nvars, terms)

    def _expr(self):
        value = self._term()
        while True:
            kind, val, _ = self._peek()
            if kind == "OP" and val in "+-":
                self._next()
                rhs = self._term()
                value = _sparse_add(self.spec, value,
                                    rhs if val == "+" else _sparse_neg(self.spec, rhs))
            else:
                return value

    def _term(self):
        value = self._unary()
        while True:
            kind, val, _ = self._peek()
            if kind == "OP" and val == "*":
                self._next()
                value = _sparse_mul(self.spec, value, self._unary())
            else:
                return value

    def _unary(self):
        kind, val, _ = self._peek()
        if kind == "OP" and val == "-":
            self._next()
            return _sparse_neg(self.spec, self._unary())
        return self._power()

    def _power(self):
        base = self._atom()
        kind, val, _ = self._peek()
        if kind == "OP" and val == "^":
            self._next()
            kind, val, at = self._next()
            if kind != "INT":
                raise ParseError("exponent must be a nonnegative integer", self.text, at)
            e = _parse_int(val, self.text, at)
            if isinstance(self.spec, Rationals) and len(base) == 1:
                self._check_power(next(iter(base.values())), e, at)
            return _power(base, self._constant(self.spec.one().value), e,
                          functools.partial(_sparse_mul, self.spec))
        return base

    def _check_power(self, c: Fraction, e: int, at: int):
        """Refuse c^e, the one coefficient of a one-term base raised to e,
        when it is sure to pass the int-to-string limit, before building it:
        a part of c with b >= 2 bits is at least 2^(b-1), so its e-th power
        has more than limit digits once (b-1) * e >= 3.4 * limit."""
        limit = _int_max_str_digits()
        bits = max(c.numerator.bit_length(), c.denominator.bit_length()) - 1
        if limit and 10 * bits * e >= 34 * limit:
            raise ParseError(f"a coefficient of this power would have more than {limit} "
                             "digits, the int-to-string limit", self.text, at)

    def _atom(self):
        kind, val, at = self._next()
        if kind == "INT":
            num = _parse_int(val, self.text, at)
            kind2, val2, _ = self._peek()
            if kind2 == "OP" and val2 == "/":
                self._next()
                kind3, val3, at3 = self._next()
                if kind3 != "INT":
                    raise ParseError("denominator must be an integer", self.text, at3)
                return self._rational(num, _parse_int(val3, self.text, at3), at)
            return self._constant(self.spec.element(num).value)
        if kind == "NAME":
            return self._variable(val, at)
        if kind == "OP" and val == "(":
            value = self._expr()
            self._expect_op(")")
            return value
        raise ParseError(f"unexpected token {val!r}", self.text, at)

    def _rational(self, num: int, den: int, at: int):
        if isinstance(self.spec, Rationals):
            if den == 0:
                raise ParseError("zero denominator", self.text, at)
            return self._constant(Fraction(num, den))
        try:
            inv = self.spec._inv(self.spec.element(den).value)
        except DivisionByZeroError:
            raise ParseError(f"denominator {den} is not invertible in {self.spec}",
                             self.text, at) from None
        return self._constant(self.spec._mul(self.spec.element(num).value, inv))


def parse_poly(text: str, spec: FieldSpec, nvars: int | None = None):
    """Parse a polynomial over spec; nvars selects the multivariate ring.
    Nesting (parentheses, unary minus) deeper than the recursive descent
    can follow is a ParseError."""
    try:
        return _PolyParser(text, spec, nvars).parse()
    except RecursionError:
        raise ParseError("polynomial nested too deeply", text, 0) from None


def parse_field(text: str) -> FieldSpec:
    """Parse the field grammar: Q, Fp, Fq:modulus=<poly>, ACF, RCF, R."""
    s = text.strip()
    if s == "Q":
        return QQ
    if s == "ACF":
        return ACF
    if s in ("R", "RCF"):
        return RCF
    if s.startswith("F"):
        body = s[1:]
        mod_text = None
        if ":" in body:
            body, _, opt = body.partition(":")
            if not opt.startswith("modulus="):
                raise ParseError(f"unknown field option {opt!r}", text, 0)
            mod_text = opt[len("modulus="):]
        if not body.isdigit():
            raise ParseError(f"bad field size {body!r}", text, 0)
        q = _parse_int(body, text, 0)
        if q < 2:
            raise ParseError(f"field size must be at least 2, got {q}", text, 0)
        pk = prime_power(q)
        if pk is None:
            raise ParseError(f"{q} is not a prime power", text, 0)
        p, k = pk
        if mod_text is not None:
            if k == 1:
                raise ParseError("a prime field takes no modulus", text, 0)
            mod_poly = parse_poly(mod_text, PrimeField(p))
            if mod_poly.degree != k:
                raise ParseError(
                    f"modulus degree {mod_poly.degree} does not match F{q}", text, 0)
            return ExtensionField(p, mod_poly.values)
        if k == 1:
            return PrimeField(p)
        return ExtensionField.from_order(q)
    raise ParseError(f"unrecognized field {text!r}", text, 0)


def parse_element(text: str, spec: FieldSpec) -> FieldElement:
    """Parse one field element; extension elements are polynomials in x."""
    if isinstance(spec, ExtensionField):
        over_prime = parse_poly(text, PrimeField(spec.p))
        return spec.element(over_prime.values)
    poly = parse_poly(text, spec)
    if not poly.is_constant():
        raise ParseError(f"expected a field element, got {text!r}", text, 0)
    return poly.constant_term


def parse_matrix(text: str, spec: FieldSpec) -> Matrix:
    """Row-major JSON array of coefficient strings."""
    data = _parse_json(text, "matrix")
    if (not isinstance(data, list) or not data
            or not all(isinstance(row, list) for row in data)):
        raise ParseError("matrix literal must be a list of rows", text, 0)
    rows = [[parse_element(str(entry), spec) for entry in row] for row in data]
    return Matrix(spec, rows)


def parse_operand(text: str, spec: FieldSpec, nvars: int | None):
    """Scalar string, JSON tuple (multivariate point), or JSON matrix."""
    stripped = text.strip()
    if stripped.startswith("["):
        data = _parse_json(stripped, "operand")
        if data and isinstance(data[0], list):
            return parse_matrix(stripped, spec)
        return tuple(parse_element(str(entry), spec) for entry in data)
    return parse_element(stripped, spec)


# ---------------------------------------------------------------------------
# Report construction
# ---------------------------------------------------------------------------

def _value_to_json(value):
    if value is None:
        return None
    if isinstance(value, FieldElement):
        return str(value)
    if isinstance(value, tuple):
        return [str(e) for e in value]
    if isinstance(value, Matrix):
        n, fmt = value.n, value.spec._format
        return [[fmt(v) for v in value.values[i:i + n]] for i in range(0, n * n, n)]
    raise InternalInvariantError(f"unserializable value {value!r}")


def _witness_to_json(w: Witness | None):
    if w is None:
        return None
    if isinstance(w.lhs, Matrix):
        kind = "matrix"
    elif isinstance(w.lhs, tuple):
        kind = "tuple"
    else:
        kind = "scalar"
    return {"kind": kind, "lhs": _value_to_json(w.lhs), "rhs": _value_to_json(w.rhs),
            "image": _value_to_json(w.image)}


def _evidence_to_json(evidence):
    """The report's extra: the evidence a verdict was read from, if any."""
    if evidence is None:
        return None
    if isinstance(evidence, FactorProfile):
        return {"c": str(evidence.c), "m": evidence.m_mult, "h": str(evidence.h),
                "d": evidence.d,
                "chosen_q": None if evidence.chosen_q is None else str(evidence.chosen_q)}
    if isinstance(evidence, PermutationCheck):
        return {"hermite": evidence.hermite, "exhaustive": evidence.exhaustive}
    if isinstance(evidence, SimpleRootsReport):
        return {"holds": evidence.holds,
                "b": None if evidence.violating_b is None else str(evidence.violating_b),
                "lambda": None if evidence.lam is None else str(evidence.lam),
                "multiplicity": evidence.multiplicity_k,
                "char_p_degenerate": evidence.char_p_degenerate}
    raise InternalInvariantError(f"unserializable evidence {evidence!r}")


def build_report(command: str, verdict: engine.Verdict, *, poly, field: FieldSpec,
                 n: int | None, nvars: int | None, lhs=None, rhs=None,
                 bounds: Bounds, timing_ms: int) -> dict:
    return {
        "schema_version": "2",
        "command": command,
        "inputs": {
            "poly": str(poly),
            "field": str(field),
            "n": n,
            "vars": nvars,
            "lhs": _value_to_json(lhs),
            "rhs": _value_to_json(rhs),
        },
        "bounds": {
            "height": bounds.height,
            "scalar_cap": bounds.scalar_cap,
            "matrix_cap": bounds.matrix_cap,
        },
        "verdict": {
            "status": verdict.status.value,
            "reason": verdict.reason,
            "detail": verdict.detail,
            "witness": _witness_to_json(verdict.witness),
        },
        "theorem_clause": verdict.reason,
        "extra": _evidence_to_json(verdict.evidence),
        "timing_ms": timing_ms,
    }


def report_schema() -> dict:
    return json.loads(
        resources.files("evainject").joinpath("report_schema.json").read_text())


def _render_text(report: dict) -> str:
    lines = []
    v = report["verdict"]
    lines.append(f"verdict: {v['status']}")
    lines.append(f"reason: {v['reason']}")
    lines.append(f"detail: {v['detail']}")
    w = v["witness"]
    if w is not None:
        lines.append(f"witness lhs: {json.dumps(w['lhs'])}")
        lines.append(f"witness rhs: {json.dumps(w['rhs'])}")
        lines.append(f"witness image: {json.dumps(w['image'])}")
    inputs = report["inputs"]
    echoed = [f"poly: {inputs['poly']}", f"field: {inputs['field']}"]
    if inputs["n"] is not None:
        echoed.append(f"n: {inputs['n']}")
    if inputs["vars"] is not None:
        echoed.append(f"vars: {inputs['vars']}")
    lines.append("inputs: " + "  ".join(echoed))
    if report["extra"]:
        lines.append("extra: " + json.dumps(report["extra"], sort_keys=True))
    b = report["bounds"]
    lines.append(f"bounds: height={b['height']} scalar_cap={b['scalar_cap']} "
                 f"matrix_cap={b['matrix_cap']}")
    lines.append(f"time: {report['timing_ms']} ms")
    return "\n".join(lines)


_EXIT_BY_STATUS = {
    Status.INJECTIVE.value: 0,
    Status.NOT_INJECTIVE.value: 1,
    Status.NECESSARY_CONDITION_FAILS.value: 2,
    Status.UNDECIDED.value: 2,
}

EX_USAGE = 64
EX_INTERNAL = 70


# ---------------------------------------------------------------------------
# Argument handling and dispatch
# ---------------------------------------------------------------------------

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one argument parser of the process, built on first use; parsing
    leaves it unchanged, so every main call can share it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--poly", required=True, help="polynomial, e.g. \"x^4+2*x\"")
    common.add_argument("--field", required=True,
                        help="Q | Fp | Fq:modulus=<poly> | ACF | RCF | R")
    common.add_argument("--output", choices=("text", "json"), default="text")
    common.add_argument("--height", type=int, default=Bounds.height,
                        help="rational search bound on denominators and magnitude")
    common.add_argument("--scalar-cap", type=int, default=Bounds.scalar_cap,
                        dest="scalar_cap", help="largest q scanned exhaustively")
    common.add_argument("--matrix-cap", type=int, default=Bounds.matrix_cap,
                        dest="matrix_cap", help="largest enumeration size")

    parser = _Parser(prog="evainject",
                     description="injectivity of polynomial evaluation maps, "
                                 "with verified counterexamples")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("analyze", parents=[common],
                       help="scalar or multivariate injectivity over the base field")
    p.add_argument("--vars", type=int, default=None,
                   help="number of variables for the multivariate case")

    p = sub.add_parser("matrix", parents=[common],
                       help="injectivity of A -> f(A) on n x n matrices")
    p.add_argument("--n", type=int, required=True)

    sub.add_parser("permcheck", parents=[common],
                   help="permutation-polynomial check over a finite field")
    sub.add_parser("simpleroots", parents=[common],
                   help="simple-roots necessary condition")

    p = sub.add_parser("bruteforce", parents=[common],
                       help="exhaustive oracle over a finite field")
    p.add_argument("--n", type=int, default=None)

    p = sub.add_parser("search", parents=[common],
                       help="bounded rational collision search")
    p.add_argument("--n", type=int, default=None)

    p = sub.add_parser("verify", parents=[common],
                       help="verify a claimed collision pair")
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.add_argument("--vars", type=int, default=None)
    return parser


def _dispatch(args) -> dict:
    spec = parse_field(args.field)
    cspec = engine.coefficient_spec(spec)
    nvars = getattr(args, "vars", None)
    if nvars is not None and nvars < 1:
        raise _UsageError("--vars must be at least 1")
    for flag, value in (("--height", args.height), ("--scalar-cap", args.scalar_cap),
                        ("--matrix-cap", args.matrix_cap)):
        if value < 1:
            raise _UsageError(f"{flag} must be at least 1")
    poly = parse_poly(args.poly, cspec, nvars if nvars and nvars >= 2 else None)
    bounds = Bounds(height=args.height, scalar_cap=args.scalar_cap,
                    matrix_cap=args.matrix_cap)
    n = getattr(args, "n", None)
    lhs = rhs = None
    if args.verb == "verify":
        lhs = parse_operand(args.lhs, cspec, nvars)
        rhs = parse_operand(args.rhs, cspec, nvars)

    start = time.perf_counter()
    if args.verb == "analyze":
        if isinstance(poly, MultiPoly):
            verdict = engine.multivariate_injectivity(poly, spec, bounds)
        else:
            verdict = engine.scalar_injectivity(poly, spec, bounds)
    elif args.verb == "matrix":
        verdict = engine.matrix_injectivity(poly, n, spec)
    elif args.verb == "permcheck":
        verdict = engine.permutation_verdict(poly, bounds)
    elif args.verb == "simpleroots":
        verdict = engine.simple_roots_verdict(poly, spec)
    elif args.verb == "bruteforce":
        if n is None:
            verdict = engine.brute_force_scalar(poly, bounds)
        else:
            verdict = engine.brute_force_matrix(poly, n, spec, bounds)
    elif args.verb == "search":
        verdict = engine.search_verdict(poly, n, bounds)
    elif args.verb == "verify":
        verdict = engine.verify_verdict(poly, lhs, rhs)
    else:  # pragma: no cover
        raise _UsageError(f"unknown verb {args.verb}")
    timing_ms = int((time.perf_counter() - start) * 1000)

    return build_report(args.verb, verdict, poly=poly, field=spec, n=n,
                        nvars=nvars, lhs=lhs, rhs=rhs, bounds=bounds, timing_ms=timing_ms)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        report = _dispatch(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EX_USAGE
    except InternalInvariantError as e:
        print(f"internal invariant failure: {e}", file=sys.stderr)
        return EX_INTERNAL
    except (ParseError, InvalidFieldError) as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EX_USAGE
    except AlgebraError as e:
        print(f"error: {e}", file=sys.stderr)
        return EX_USAGE
    except Exception:  # a bug, not a verdict: never exit 1, which means NotInjective
        import traceback  # only a crash pays for this import at start-up
        print("internal error:", traceback.format_exc(), sep="\n", file=sys.stderr)
        return EX_INTERNAL
    if args.output == "json":
        print(json.dumps(report, sort_keys=True))
    else:
        print(_render_text(report))
    return _EXIT_BY_STATUS[report["verdict"]["status"]]


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
