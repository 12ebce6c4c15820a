"""Weighted Rees algebras: finitely many polynomial generators with positive
rational weights, supporting level ideals, joins, rescaling, and the order
filtration used everywhere else in the package."""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import PreconditionError, ProblemParseError
from .field import FieldSpec
from .ideal import ClosedSet, Ideal, _run_bases, shared_bases
from .poly import (
    INFINITY,
    Infinity,
    Polynomial,
    check_ring,
    format_polynomial,
    parse_polynomial,
    parse_rational,
    variable_index,
)

Weight = Fraction
Generator = tuple[Polynomial, Weight]


@dataclass(frozen=True)
class QReesAlgebra:
    """Generators (f_i, a_i) with f_i nonzero and a_i a positive rational.

    Zero polynomials are dropped on construction; an algebra with no
    generators is the zero algebra (order infinity everywhere).
    """

    field: FieldSpec
    variables: tuple[str, ...]
    generators: tuple[Generator, ...]

    def __post_init__(self) -> None:
        kept = []
        for f, a in self.generators:
            a = Fraction(a)
            if a <= 0:
                raise PreconditionError(f"generator weight must be positive, got {a}")
            check_ring(f, self.field, self.variables)
            if not f.is_zero():
                kept.append((f, a))
        object.__setattr__(self, "generators", tuple(kept))

    @classmethod
    def _trusted(
        cls, field: FieldSpec, variables: tuple[str, ...], generators: tuple[Generator, ...]
    ) -> QReesAlgebra:
        """Build without __post_init__'s checks.  The caller guarantees that
        every polynomial is nonzero and lives in `variables`, and that every
        weight is a positive Fraction."""
        alg = object.__new__(cls)
        object.__setattr__(alg, "field", field)
        object.__setattr__(alg, "variables", variables)
        object.__setattr__(alg, "generators", generators)
        return alg

    # -- basic structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.generators

    def weights(self) -> tuple[Fraction, ...]:
        return tuple(a for _, a in self.generators)

    def denominator(self) -> int:
        """lcm of the weight denominators (1 for the zero algebra)."""
        return math.lcm(*(a.denominator for a in self.weights()))

    def odot(self, other: QReesAlgebra) -> QReesAlgebra:
        """Join: the smallest algebra containing both generator sets."""
        check_ring(other, self.field, self.variables, "odot operand")
        return QReesAlgebra(self.field, self.variables, self.generators + other.generators)

    def scale(self, b) -> QReesAlgebra:
        """Divide all weights by b (the formal b-th root of the algebra)."""
        b = Fraction(b)
        if b <= 0:
            raise PreconditionError(f"scale factor must be positive, got {b}")
        return QReesAlgebra(
            self.field, self.variables, tuple((f, a / b) for f, a in self.generators)
        )

    # -- level ideals --------------------------------------------------------

    def level_ideal(self, a) -> Ideal:
        """Ideal generated by the degree-a part: the minimal products of
        generators whose weights sum to at least a (dropping any one factor
        lands below a), each multiset of generators once."""
        a = Fraction(a)
        if a < 0:
            raise PreconditionError(f"level must be nonnegative, got {a}")
        if a == 0:
            return Ideal.unit(self.field, self.variables)
        # Weights and level are compared as integers over d, the lcm of their
        # denominators.  Heaviest first (a stable sort), each multiset read
        # with nondecreasing indices: its last factor is its lightest, so the
        # products emitted when that factor reaches a are exactly the minimal
        # ones.
        d = math.lcm(a.denominator, self.denominator())
        level = a.numerator * (d // a.denominator)
        gens = sorted(
            ((f, w.numerator * (d // w.denominator)) for f, w in self.generators),
            key=lambda g: g[1],
            reverse=True,
        )
        products: list[Polynomial] = []
        stack = [(0, None, 0)]
        while stack:
            start, poly, total = stack.pop()
            for i in range(start, len(gens)):
                f, w = gens[i]
                product, weight = f if poly is None else poly * f, total + w
                if weight >= level:
                    products.append(product)
                else:
                    stack.append((i, product, weight))
        return Ideal(self.field, self.variables, products)

    # -- orders ---------------------------------------------------------------

    def min_order(self, order) -> Fraction | Infinity:
        """min over generators of order(f_i)/a_i; INFINITY for the zero
        algebra.  Generators are nonzero, so every order is an integer, and
        o/a is compared as the integer pair (o * den(a), num(a)); only the
        least becomes a Fraction."""
        best = None
        for f, a in self.generators:
            o = order(f)
            num, den = o * a.denominator, a.numerator
            if best is None or num * best[1] < best[0] * den:
                best = num, den
        return INFINITY if best is None else Fraction(*best)

    def ord_at_point(self, point) -> Fraction | Infinity:
        """Order of the algebra at a rational point, a coordinate tuple aligned
        with the ring variables: the order at the origin after shifting the
        point there (INFINITY for the zero algebra)."""
        return self.shift(point_shift(self.variables, point)).ord_at_origin()

    def ord_at_origin(self) -> Fraction | Infinity:
        return self.min_order(Polynomial.order)

    def shift(self, shifts: dict) -> QReesAlgebra:
        """Substitute v -> v + shifts[v] in every generator (Polynomial.shift)."""
        return QReesAlgebra(
            self.field, self.variables, tuple((f.shift(shifts), a) for f, a in self.generators)
        )

    def order_along(self, vars: tuple[str, ...]) -> Fraction | Infinity:
        """Order along the coordinate subspace V(vars): min ord_vars(f_i)/a_i;
        INFINITY for the zero algebra."""
        for v in vars:
            variable_index(v, self.field, self.variables)
        return self.min_order(lambda f: f.order_in_vars(vars))

    def order_ge_ideal(self, omega) -> Ideal:
        """Ideal cutting out the locus where the algebra has order >= omega:
        the Hasse derivatives D^alpha f_i with |alpha| < a_i * omega."""
        omega = Fraction(omega)
        if omega <= 0:
            return Ideal.zero(self.field, self.variables)
        return Ideal(self.field, self.variables, self._hasse_gens(0, omega))

    def _hasse_gens(self, low: Fraction, omega: Fraction) -> list[Polynomial]:
        """The D^alpha f_i with a_i * low <= |alpha| < a_i * omega (both
        rounded up), in the order of the generators, then |alpha|, then alpha
        descending: what order_ge_ideal(omega) adds to order_ge_ideal(low)."""
        return [
            d
            for f, a in self.generators
            for row in _hasse_rows(f, _ceil_times(a, omega))[_ceil_times(a, low) :]
            for d in row
        ]

    @cached_property
    def _saturation(self) -> QReesAlgebra:
        """The closure under Hasse derivatives behind saturation.diff_saturate,
        computed on first use and kept for the lifetime of this instance.

        D^alpha f enters at weight a - |alpha| while that stays positive, in
        the order of the generators, then |alpha|, then alpha descending
        (_hasse_rows).  A derivative equal to one already kept at the same
        weight is dropped.

        Kept derivatives are filed by weight, one lookup per |alpha|, under
        the integer pair (p - m*q, q) of a - m for a = p/q and m = |alpha|:
        the pair is in lowest terms, as gcd(p - m*q, q) = gcd(p, q) = 1, so
        equal weights give equal keys, and each distinct weight becomes a
        Fraction once.
        """
        gens: list[Generator] = []
        seen: dict[tuple[int, int], tuple[Fraction, set[Polynomial]]] = {}
        for f, a in self.generators:
            p, q = a.numerator, a.denominator
            for m, row in enumerate(_hasse_rows(f, _ceil_times(a, 1))):
                key = (p - m * q, q)
                if key not in seen:
                    seen[key] = Fraction(*key), set()
                w, kept = seen[key]
                for d in row:
                    if d not in kept:
                        kept.add(d)
                        gens.append((d, w))
        return QReesAlgebra._trusted(self.field, self.variables, tuple(gens))

    def sing_ideal(self) -> Ideal:
        return self.order_ge_ideal(Fraction(1))

    def max_order_stratum(self) -> tuple[Fraction, ClosedSet]:
        """Largest omega whose order-at-least-omega locus is nonempty, with it."""
        omega, ideal = self.max_order_within(Ideal.zero(self.field, self.variables))
        return omega, ClosedSet([ideal])

    @shared_bases()
    def max_order_within(self, inside: Ideal) -> tuple[Fraction, Ideal]:
        """Largest omega with {ord >= omega} meeting V(inside), and the ideal
        of that intersection, order_ge_ideal(omega) + inside; when no omega > 0
        is met, omega is 0 and the ideal is inside itself.

        Candidate orders are m/a_i for integers m >= 1, and only those up to
        B = min_i deg(f_i)/a_i are tested.  This skips no answer: if
        omega > deg(f_i)/a_i, order_ge_ideal(omega) holds every D^alpha f_i
        with |alpha| <= deg(f_i), among them D^e f_i for the exponent e of a
        top-degree term c_e x^e of f_i.  A term x^b survives D^e only when
        b >= e componentwise, and |b| <= |e| then forces b = e, so
        D^e f_i = C(e, e) c_e = c_e, a nonzero constant in every
        characteristic: the ideal is the unit ideal and omega is not met.  A
        constant generator gives B = 0, so nothing is tested.

        Candidates are kept as integer numerators k of k/L, L the lcm of the
        weight numerators: with a_i = p_i/q_i, m/a_i = m * q_i * (L/p_i) / L.
        They are deduplicated, sorted and cut at B and at ord_at_origin() as
        ints, and only a candidate the scan reaches becomes a Fraction.

        The candidate ideals are nested: order_ge_ideal(omega) takes the
        first ceil(a_i*omega) Hasse rows of each f_i, a prefix that grows with
        omega.  So "is unit" is monotone in omega, and the answer is the last
        candidate below the first unit one.  The scan runs upwards:

        - With `inside` vanishing at the origin, every candidate at or below
          ord_at_origin() is met, with no basis: there
          ceil(a_i*omega) <= ord_0(f_i), so every D^alpha f_i taken has
          |alpha| < ord_0(f_i) and vanishes at the origin too.  The largest
          of them is the running answer, and its stratum is built there.
        - Each candidate above builds its stratum once and takes the basis
          of the running answer's generators, or of the previous reduced
          basis, plus the rows this step adds (`_hasse_gens`).  Each basis
          goes through the `shared_bases` table under the candidate's own
          generator set, and the returned stratum keeps the basis it was
          found with.
        - The scan stops at the first unit basis.
        """
        if self.is_zero():
            raise PreconditionError("max order of the zero algebra is infinite")
        # m/a_i = k/L for k = m * step_i, and B = top/L
        lcm = math.lcm(*(a.numerator for a in self.weights()))
        steps = [(f, a.denominator * (lcm // a.numerator)) for f, a in self.generators]
        top = min(f.total_degree() * step for f, step in steps)
        candidates = sorted({k for _, step in steps for k in range(step, top + 1, step)})

        def stratum_at(omega: Fraction) -> Ideal:
            gens = self._hasse_gens(0, omega) + list(inside.generators)
            return Ideal(self.field, self.variables, gens)

        omega, stratum = Fraction(0), inside
        if inside._excludes_order(0):
            origin = self.ord_at_origin()
            certified = bisect.bisect_right(
                candidates, origin.numerator * lcm // origin.denominator
            )
            if certified:
                omega = Fraction(candidates[certified - 1], lcm)
                stratum = stratum_at(omega)
                candidates = candidates[certified:]
        basis = list(stratum.generators)
        for k in candidates:
            c = Fraction(k, lcm)
            ideal = stratum_at(c)
            basis = ideal._basis_from(basis + self._hasse_gens(omega, c))
            if basis[0].is_constant():
                break
            omega, stratum = c, ideal
        return omega, stratum

    # -- gradings ---------------------------------------------------------------

    def to_integer_grading(self) -> tuple[QReesAlgebra, int]:
        """Clear weight denominators: weights become a_i * N, N = lcm of them."""
        n = self.denominator()
        return self.scale(Fraction(1, n)), n

    def monotone_closure(self) -> QReesAlgebra:
        """For integer weights, add (f, m) for every 1 <= m < n below each (f, n)."""
        gens: list[Generator] = []
        for f, a in self.generators:
            if a.denominator != 1:
                raise PreconditionError("monotone closure needs integer weights")
            gens.append((f, a))
            for m in range(int(a) - 1, 0, -1):
                gens.append((f, Fraction(m)))
        return QReesAlgebra(self.field, self.variables, tuple(gens))

    def __repr__(self) -> str:
        if self.is_zero():
            return "QReesAlgebra(0)"
        inner = ", ".join(f"({format_polynomial(f)} : {a})" for f, a in self.generators)
        return f"QReesAlgebra({inner})"


def _ceil_times(a: Fraction | int, b: Fraction | int) -> int:
    """ceil(a * b) for Fractions or ints a and b, on their numerators and
    denominators: every ceiling on a weight goes through here."""
    return -(-a.numerator * b.numerator // (a.denominator * b.denominator))


def _hasse_rows(f: Polynomial, n: int) -> list[list[Polynomial]]:
    """The first n rows of nonzero Hasse derivatives of f: row m lists
    D^alpha f for |alpha| = m, alpha descending, for m < n, stopping after
    row sum(deg(f)).  Only alpha <= deg(f) componentwise is formed: any other
    D^alpha f is zero.

    Inside a `shared_bases` block the rows are kept in the block's table
    under f, and a later call builds only the rows not kept yet."""
    caps = f.degrees()
    n = min(n, sum(caps) + 1)
    table = _run_bases.get()
    rows = [] if table is None else table.setdefault(f, [])
    if len(rows) < n:
        alphas = _compositions(n, caps)
        for m in range(len(rows), n):
            rows.append([d for d in map(f.hasse_derivative, alphas[m]) if d.terms])
    return rows[:n]


def _compositions(n: int, caps: tuple[int, ...]) -> list[list[tuple[int, ...]]]:
    """Row m, for m < n, lists the exponent tuples alpha with |alpha| = m and
    alpha_i <= caps[i], lexicographically descending.

    The rows over caps[i:] are built for i from the last variable down to
    the first: row m over caps[i:] is each head min(m, caps[i]) >= h >= 0,
    descending, in front of row m - h over caps[i + 1:], so every row stays
    descending."""
    rows = [[()] if m == 0 else [] for m in range(n)]
    for cap in reversed(caps):
        rows = [
            [(h,) + tail for h in range(min(m, cap), -1, -1) for tail in rows[m - h]]
            for m in range(n)
        ]
    return rows


def format_algebra(alg: QReesAlgebra) -> str:
    if alg.is_zero():
        return "0"
    return "; ".join(f"{format_polynomial(f)} : {a}" for f, a in alg.generators)


def parse_generator_list(
    text: str, field: FieldSpec, variables: tuple[str, ...]
) -> QReesAlgebra:
    """Parse the display syntax 'POLY : WEIGHT; POLY : WEIGHT; ...' (the same
    form format_algebra emits).  '0' denotes the zero algebra."""
    text = text.strip()
    if text in ("", "0"):
        return QReesAlgebra(field, variables, ())
    pieces = [piece.strip() for piece in text.split(";")]
    gens = tuple(parse_generator(piece, field, variables) for piece in pieces if piece)
    return QReesAlgebra(field, variables, gens)


def parse_generator(text: str, field: FieldSpec, variables: tuple[str, ...]) -> Generator:
    """Parse one 'POLY : WEIGHT' piece, of a problem file's gen line or of a
    generator list; a bad piece raises ProblemParseError."""
    if ":" not in text:
        raise ProblemParseError(f"generator {text!r} lacks ': WEIGHT'")
    poly_text, weight_text = text.rsplit(":", 1)
    poly = parse_polynomial(poly_text.strip(), field, variables)
    weight = parse_rational(weight_text.strip(), "weight")
    if weight <= 0:
        raise ProblemParseError(f"weight must be positive, got {weight}")
    return poly, weight


def point_shift(variables: tuple[str, ...], point) -> dict:
    """The shifts v -> v + c, each c a Fraction, that bring a rational point
    (coordinates aligned with variables) to the origin, zero coordinates left
    out.  PreconditionError for a point that is not a sequence, has the
    wrong length or has a coordinate that is not rational."""
    if not isinstance(point, Sequence):
        raise PreconditionError(f"point {point!r} is not a sequence of coordinates")
    if len(point) != len(variables):
        raise PreconditionError("point has the wrong number of coordinates")
    try:
        coords = [Fraction(c) for c in point]
    except (TypeError, ValueError, ArithmeticError):
        raise PreconditionError(f"point {point!r} has a coordinate that is not rational") from None
    return {v: c for v, c in zip(variables, coords) if c}


def algebra_sample_points(variables: tuple[str, ...]) -> list[tuple]:
    """Small deterministic grid of rational points, for order comparisons."""
    grid = itertools.product((0, 1, -1, 2), repeat=len(variables))
    return [tuple(Fraction(v) for v in combo) for combo in grid]
