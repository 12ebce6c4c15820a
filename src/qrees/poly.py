"""Sparse multivariate polynomials with exact coefficients.

A polynomial lives in a named coordinate ring: a tuple of variable names over
a FieldSpec.  Terms are stored as a dict from exponent tuples to nonzero
coefficients.  Instances are immutable by convention; every operation returns
a fresh polynomial.

The module also owns the one ring check (`check_ring`), the
order-at-infinity sentinel used by valuations, and the parser/formatter for
the textual polynomial syntax accepted by problem files and the CLI.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import total_ordering
from itertools import accumulate
from operator import add, itemgetter, mul

from .errors import PreconditionError, ProblemParseError
from .field import Element, FieldSpec


@total_ordering
class Infinity:
    """Sentinel that compares greater than every number (and equal to itself)."""

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Infinity)

    def __hash__(self) -> int:
        return hash("qrees-infinity")

    def __lt__(self, other: object) -> bool:
        return False

    def __repr__(self) -> str:
        return "INFINITY"


INFINITY = Infinity()

Exponents = tuple[int, ...]


def _display_key(exps: Exponents) -> tuple:
    """Leading-first grevlex as one ascending key: higher total degree first,
    then the exponents read from the last variable, smaller first (exponents
    never tie)."""
    return (-sum(exps), exps[::-1])


class Polynomial:
    """An element of field[variables], stored sparsely."""

    __slots__ = ("field", "variables", "terms", "_hash")

    def __init__(
        self,
        field: FieldSpec,
        variables: tuple[str, ...],
        terms: dict[Exponents, Element],
    ) -> None:
        self.field = field
        self.variables = variables
        # Fraction(0) and the int 0 of F_p are the only falsy coefficients
        self.terms = {e: c for e, c in terms.items() if c}
        self._hash: int | None = None

    @classmethod
    def _trusted(
        cls, field: FieldSpec, variables: tuple[str, ...], terms: dict[Exponents, Element]
    ) -> Polynomial:
        """Build without __init__'s zero filter, keeping `terms` itself.  The
        caller guarantees that every coefficient is nonzero and that every
        exponent tuple has one entry per variable."""
        poly = object.__new__(cls)
        poly.field = field
        poly.variables = variables
        poly.terms = terms
        poly._hash = None
        return poly

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(field: FieldSpec, variables: tuple[str, ...]) -> Polynomial:
        return Polynomial(field, variables, {})

    @staticmethod
    def constant(
        field: FieldSpec, variables: tuple[str, ...], value: int | Fraction
    ) -> Polynomial:
        c = field.coerce(value)
        return Polynomial(field, variables, {(0,) * len(variables): c})

    @staticmethod
    def variable(
        field: FieldSpec, variables: tuple[str, ...], name: str
    ) -> Polynomial:
        i = variable_index(name, field, variables)
        exps = tuple(1 if j == i else 0 for j in range(len(variables)))
        return Polynomial(field, variables, {exps: field.one()})

    # -- basic structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not any(map(any, self.terms))

    def constant_value(self) -> Element:
        if self.is_zero():
            return self.field.zero()
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        """Maximal term degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(map(sum, self.terms))

    def order(self) -> int | Infinity:
        """Minimal term degree (the order of vanishing at the origin)."""
        if not self.terms:
            return INFINITY
        return min(map(sum, self.terms))

    def degrees(self) -> Exponents:
        """Degree in each variable (the componentwise max of the exponents);
        all zero for the zero polynomial."""
        if not self.terms:
            return (0,) * len(self.variables)
        return tuple(map(max, zip(*self.terms)))

    def degree_in(self, var: str) -> int:
        i = variable_index(var, self.field, self.variables)
        if not self.terms:
            return -1
        return max(map(itemgetter(i), self.terms))

    def order_in_vars(self, vars: tuple[str, ...]) -> int | Infinity:
        """Minimal combined exponent of the given variables over all terms
        (0 for no variables; a repeated name counts each time)."""
        idx = [variable_index(v, self.field, self.variables) for v in vars]
        if not self.terms:
            return INFINITY
        # itemgetter returns a scalar for one index and needs at least one
        if len(idx) == 1:
            return min(map(itemgetter(idx[0]), self.terms))
        if not idx:
            return 0
        return min(map(sum, map(itemgetter(*idx), self.terms)))

    def support_vars(self) -> set[str]:
        out: set[str] = set()
        for e in self.terms:
            for i, k in enumerate(e):
                if k > 0:
                    out.add(self.variables[i])
        return out

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: Polynomial) -> Polynomial:
        check_ring(other, self.field, self.variables)
        f = self.field
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = f.add(terms.get(e, f.zero()), c)
        return Polynomial(f, self.variables, terms)

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self + (-other)

    def __neg__(self) -> Polynomial:
        f = self.field
        return Polynomial(
            f, self.variables, {e: f.neg(c) for e, c in self.terms.items()}
        )

    def __mul__(self, other: Polynomial) -> Polynomial:
        check_ring(other, self.field, self.variables)
        return Polynomial(self.field, self.variables, _times(self.field, self.terms, other.terms))

    def __pow__(self, n: int) -> Polynomial:
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(Polynomial.constant(self.field, self.variables, 1), self, n,
                      lambda a, b: a * b)

    def scale(self, c: int | Fraction) -> Polynomial:
        f = self.field
        cc = f.coerce(c)
        return Polynomial(
            f, self.variables, {e: f.mul(v, cc) for e, v in self.terms.items()}
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.field == other.field
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        # the support alone: equal polynomials share it, and hashing it never
        # hashes a coefficient
        if self._hash is None:
            self._hash = hash((self.variables, frozenset(self.terms)))
        return self._hash

    # -- ring moves ----------------------------------------------------------

    def restrict_zero(self, var: str) -> Polynomial:
        """Set var = 0 and drop it from the coordinate ring.

        Only terms free of var survive, and dropping index i is injective on
        them, so no two terms land on one exponent."""
        i = variable_index(var, self.field, self.variables)
        new_vars = self.variables[:i] + self.variables[i + 1 :]
        terms = {e[:i] + e[i + 1 :]: c for e, c in self.terms.items() if not e[i]}
        return Polynomial._trusted(self.field, new_vars, terms)

    def in_ring(self, variables: tuple[str, ...]) -> Polynomial:
        """Move to another ring by variable name; a dropped name that this
        polynomial involves raises PreconditionError."""
        position = {v: i for i, v in enumerate(variables)}
        terms: dict[Exponents, Element] = {}
        for e, c in self.terms.items():
            ne = [0] * len(variables)
            for i, k in enumerate(e):
                if k == 0:
                    continue
                v = self.variables[i]
                if v not in position:
                    raise PreconditionError(
                        f"{self} involves {v}, outside {ring_name(self.field, variables)}"
                    )
                ne[position[v]] = k
            terms[tuple(ne)] = c
        return Polynomial(self.field, variables, terms)

    def coefficient_in_var(self, var: str, k: int) -> Polynomial:
        """Coefficient of var^k, as a polynomial in the same ring without var."""
        i = variable_index(var, self.field, self.variables)
        terms = {
            e[:i] + (0,) + e[i + 1 :]: c
            for e, c in self.terms.items()
            if e[i] == k
        }
        return Polynomial._trusted(self.field, self.variables, terms)

    def substitute(self, mapping: dict[str, Polynomial]) -> Polynomial:
        """Replace the mapped variables by polynomials of the same ring, all at
        once (PreconditionError for a key outside the ring).  Every other
        variable keeps its exponent, so it costs no power and no product."""
        f, ring = self.field, self.variables
        degrees = self.degrees()
        # (i, row) per mapped variable in ring order; row[k - 1] is its image^k
        rows = []
        for i, img in sorted((variable_index(v, f, ring), img) for v, img in mapping.items()):
            check_ring(img, f, ring)
            rows.append((i, list(accumulate([img] * degrees[i], mul))))
        unit = {(0,) * len(ring): f.one()}  # the image of a term no mapping moves
        out: dict[Exponents, Element] = {}
        for e, c in self.terms.items():
            term, kept = None, list(e)
            for i, row in rows:
                if e[i]:
                    term = row[e[i] - 1] if term is None else term * row[e[i] - 1]
                    kept[i] = 0
            for te, tc in (unit if term is None else term.terms).items():
                te = tuple(map(add, te, kept))
                prod = f.mul(c, tc)
                out[te] = f.add(out[te], prod) if te in out else prod
        return Polynomial(f, ring, out)

    def evaluate(self, point: dict[str, Element]) -> Element:
        f = self.field
        vals = [f.coerce(point[v]) for v in self.variables]
        total = f.zero()
        for e, c in self.terms.items():
            acc = c
            for i, k in enumerate(e):
                if k:
                    acc = f.mul(acc, pow(vals[i], k) if f.characteristic == 0
                                else pow(int(vals[i]), k, f.characteristic))
            total = f.add(total, acc)
        return total

    def shift(self, shifts: dict[str, Polynomial | Element]) -> Polynomial:
        """Substitute v -> v + shifts[v]: returns g with g(v) = f(v + s).  Each
        s is a field constant or a polynomial over a subring of this ring; a
        variable outside this ring, shifted or in s, raises PreconditionError."""
        f, ring = self.field, self.variables
        mapping = {}
        for v, s in shifts.items():
            if v not in ring:
                raise PreconditionError(
                    f"cannot shift {v}: not a variable of {ring_name(f, ring)}"
                )
            if isinstance(s, Polynomial):
                outside = sorted(s.support_vars().difference(ring))
                if outside:
                    raise PreconditionError(
                        f"shift of {v} involves {outside[0]}, outside {ring_name(f, ring)}"
                    )
                s = s.in_ring(ring)
            else:
                s = Polynomial.constant(f, ring, s)
            mapping[v] = Polynomial.variable(f, ring, v) + s
        return self.substitute(mapping)

    def hasse_derivative(self, alpha: Exponents) -> Polynomial:
        """Divided-power derivative: x^b maps to C(b, alpha) x^(b - alpha).

        b -> b - alpha is injective, so no two terms land on one exponent, and
        a coefficient that vanishes modulo p is dropped here, so no
        coefficient of the result is zero."""
        if not any(alpha):
            return self
        p = self.field.characteristic
        moved = [(i, a) for i, a in enumerate(alpha) if a]
        terms: dict[Exponents, Element] = {}
        for e, c in self.terms.items():
            binom = 1
            for i, a in moved:
                b = e[i]
                if b < a:
                    break  # x^b is killed
                if b != a:
                    binom *= math.comb(b, a)
            else:
                if binom == 1:
                    coeff = c
                elif p:
                    coeff = c * binom % p
                else:
                    # the constructor, not c * binom: Fraction's operators
                    # go through a generic dispatch that costs more
                    coeff = Fraction(c.numerator * binom, c.denominator)
                if coeff:
                    exps = list(e)
                    for i, a in moved:
                        exps[i] -= a
                    terms[tuple(exps)] = coeff
        return Polynomial._trusted(self.field, self.variables, terms)

    # -- display -------------------------------------------------------------

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({format_polynomial(self)!r})"


def _times(f: FieldSpec, a: dict[Exponents, Element],
           b: dict[Exponents, Element]) -> dict[Exponents, Element]:
    """The terms of a product, each exponent where its first (a, b) pair
    puts it; sums that vanish stay, for the caller to drop.  The pairs
    multiply integers: the residues over F_p, reduced once per term, and
    over Q the numerators left by `_clear`, divided once per term."""
    p = f.characteristic
    (ia, da), (ib, db) = ((a, 1), (b, 1)) if p else (_clear(f, a), _clear(f, b))
    sums: dict[Exponents, int] = {}
    for e1, c1 in ia.items():
        for e2, c2 in ib.items():
            e = tuple(map(add, e1, e2))
            sums[e] = sums[e] + c1 * c2 if e in sums else c1 * c2
    if p:
        return {e: c % p for e, c in sums.items()}
    n = da * db
    return {e: Fraction(c, n) for e, c in sums.items()}


def _clear(f: FieldSpec, terms: dict[Exponents, Element]) -> tuple[dict[Exponents, int], int]:
    """(n*terms as ints, n): over Q n is the lcm of the denominators, over
    F_p n = 1 and the ints are the residues."""
    p = f.characteristic
    if p:
        return {e: c % p for e, c in terms.items()}, 1
    n = math.lcm(*[c.denominator for c in terms.values()])
    return {e: c.numerator * (n // c.denominator) for e, c in terms.items()}, n


def _power(one, base, n: int, times):
    """base^n by repeated squaring; `one` only for n = 0, so no product is
    taken by 1."""
    out = None
    while n:
        if n & 1:
            out = base if out is None else times(out, base)
        base = times(base, base) if n > 1 else base
        n >>= 1
    return one if out is None else out


def ring_name(field: FieldSpec, variables: tuple[str, ...]) -> str:
    name = "Q" if field.is_rational else f"F_{field.characteristic}"
    return f"{name}[{', '.join(variables)}]"


def check_ring(x, field: FieldSpec, variables: tuple[str, ...], what: str | None = None) -> None:
    """PreconditionError naming both rings unless x (a polynomial, ideal,
    closed set or algebra) lives in field[variables]; the message names x
    by `what`, or by x itself.  A check moves nothing: the one move between
    rings is `Polynomial.in_ring`."""
    if x.field != field or x.variables != variables:
        raise PreconditionError(
            f"{x if what is None else what} lives in {ring_name(x.field, x.variables)}, "
            f"not in {ring_name(field, variables)}"
        )


def variable_index(var: str, field: FieldSpec, variables: tuple[str, ...]) -> int:
    """The position of var in field[variables]; PreconditionError naming
    the ring when var is not one of its variables."""
    try:
        return variables.index(var)
    except ValueError:
        raise PreconditionError(
            f"{var} is not a variable of {ring_name(field, variables)}"
        ) from None


# "^k" for each k below 64 ("" for 0 and 1), read by format_polynomial in
# place of an f-string; 99.5% of the exponents a blowup chain prints are
# below 64
_POWER_SUFFIX = ("", "") + tuple(f"^{k}" for k in range(2, 64))


def format_polynomial(p: Polynomial) -> str:
    """The display syntax the parser reads back.  Terms run in descending
    grevlex order (`_display_key`), joined by " + ", or by " - " in place of
    a term's leading minus.  A coefficient that prints as "1" is left off a
    monomial, and over Q so is the 1 of "-1" ("-x"); over F_p a coefficient
    prints as stored, so an unreduced -1 stays "-1*x".  Factors are "v" or
    "v^k", joined by "*"; the zero polynomial is "0"."""
    terms = p.terms
    if not terms:
        return "0"
    minus_one = "-1" if p.field.characteristic == 0 else None
    names = p.variables
    out = ""
    for e in sorted(terms, key=_display_key) if len(terms) > 1 else terms:
        c = str(terms[e])
        mono = "*".join(
            [v + _POWER_SUFFIX[k] if k < 64 else f"{v}^{k}" for v, k in zip(names, e) if k]
        )
        if not mono:
            body = c
        elif c == "1":
            body = mono
        elif c == minus_one:
            body = "-" + mono
        else:
            body = f"{c}*{mono}"
        if not out:
            out = body
        elif body[0] == "-":
            out += " - " + body[1:]
        else:
            out += " + " + body
    return out


# the variable names the tokenizer reads; a chart may declare no others
VARIABLE_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
# a token, or (second group) any other character that is not whitespace
_TOKEN = re.compile(rf"(\d+|{VARIABLE_NAME.pattern}|[()^*/+-])|(\S)")


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    for tok, bad in _TOKEN.findall(text):
        if bad:
            raise ProblemParseError(f"unexpected character {bad!r} in polynomial")
        tokens.append(tok)
    return tokens


class _Parser:
    """Recursive descent into term dicts (exponents -> nonzero coefficient),
    in the term order Polynomial arithmetic would give."""

    def __init__(self, tokens: list[str], field: FieldSpec,
                 variables: tuple[str, ...]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.field = field
        self.variables = variables

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ProblemParseError("polynomial ended unexpectedly")
        self.pos += 1
        return tok

    def product(self, a: dict[Exponents, Element],
                b: dict[Exponents, Element]) -> dict[Exponents, Element]:
        return {e: c for e, c in _times(self.field, a, b).items() if c}

    def parse_expr(self) -> dict[Exponents, Element]:
        f = self.field
        out: dict[Exponents, Element] = {}
        op = self.take() if self.peek() in ("+", "-") else "+"
        while True:
            for e, c in self.parse_term(op == "-").items():
                c = f.add(out[e], c) if e in out else c
                if c:
                    out[e] = c
                else:
                    del out[e]
            if self.peek() not in ("+", "-"):
                return out
            op = self.take()

    def parse_term(self, negate: bool) -> dict[Exponents, Element]:
        f = self.field
        exps = [0] * len(self.variables)
        coeff, group = self.parse_factor(exps)
        while True:
            tok = self.peek()
            if tok == "/":
                self.take()
                den = self.take()
                if not den.isdigit() or int(den) == 0:
                    raise ProblemParseError("'/' must be followed by a nonzero integer")
                p = f.characteristic
                if p and int(den) % p == 0:
                    raise ProblemParseError(f"denominator {den} vanishes modulo {p}")
                coeff = Fraction(coeff, int(den))
                continue
            if tok == "*":
                self.take()
            elif tok is None or not (tok.isdigit() or tok.isidentifier() or tok == "("):
                break
            c, g = self.parse_factor(exps)
            coeff *= c
            if g is not None:
                group = g if group is None else self.product(group, g)
        coeff = f.coerce(-coeff if negate else coeff)
        if not coeff:
            return {}
        if group is None:
            return {tuple(exps): coeff}
        return {tuple(a + b for a, b in zip(e, exps)): f.mul(c, coeff) for e, c in group.items()}

    def parse_factor(self, exps: list[int]) -> tuple[int, dict[Exponents, Element] | None]:
        """One factor, its power included.  A variable power adds to `exps`;
        return the factor's integer coefficient and, for a group, its terms."""
        f = self.field
        tok = self.take()
        if tok == "-":
            c, group = self.parse_factor(exps)
            return -c, group
        if tok == "(":
            group = self.parse_expr()
            if self.take() != ")":
                raise ProblemParseError("missing ')' in polynomial")
            one = {(0,) * len(self.variables): f.one()}
            return 1, _power(one, group, self.parse_power(), self.product)
        if tok.isdigit():
            return pow(int(tok), self.parse_power(), f.characteristic or None), None
        if tok.isidentifier():
            if tok not in self.variables:
                raise ProblemParseError(f"unknown variable {tok!r}")
            exps[self.variables.index(tok)] += self.parse_power()
            return 1, None
        raise ProblemParseError(f"unexpected token {tok!r} in polynomial")

    def parse_power(self) -> int:
        if self.peek() != "^":
            return 1
        self.take()
        exp = self.take()
        if not exp.isdigit():
            raise ProblemParseError("'^' must be followed by an integer")
        return int(exp)


def parse_rational(text: str, what: str) -> Fraction:
    """Parse an integer, decimal or p/q; name the value in the error."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ProblemParseError(f"bad {what} {text!r}") from exc


def parse_polynomial(
    text: str, field: FieldSpec, variables: tuple[str, ...]
) -> Polynomial:
    """Parse integers, variables, + - * / ^, parentheses and juxtaposition.
    Unary minus applies to the factor after it, power included; `^` takes a
    nonnegative integer literal; `/` takes a nonzero integer literal
    (invertible modulo p over F_p) and divides the term read so far.  A
    monomial is read into one term, and one Polynomial is built per parse.
    Parentheses or unary minus signs nested past Python's recursion limit
    raise ProblemParseError."""
    parser = _Parser(_tokenize(text), field, variables)
    try:
        terms = parser.parse_expr()
    except RecursionError:
        raise ProblemParseError("polynomial nests too deeply") from None
    if parser.peek() is not None:
        raise ProblemParseError(f"trailing tokens in polynomial: {parser.peek()!r}")
    return Polynomial(field, variables, terms)
