"""Weighted algebra operations, checked against enumeration oracles."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from qrees.algebra import (
    QReesAlgebra,
    _ceil_times,
    algebra_sample_points,
    format_algebra,
    parse_generator_list,
)
from qrees.errors import ProblemParseError
from qrees.field import QQ, FieldSpec
from qrees.ideal import Ideal
from qrees.poly import Infinity, Polynomial, format_polynomial, parse_polynomial
from qrees.problem import parse_problem

from kit import A, P, XY, XYZ, record_calls, rejected


def test_weights_become_fractions_and_zero_generators_drop() -> None:
    alg = A(("x", 1), ("0", 2))
    assert len(alg.generators) == 1
    assert isinstance(alg.generators[0][1], Fraction)


def test_nonpositive_weight_rejected() -> None:
    with rejected("generator weight must be positive, got 0"):
        A(("x", 0))
    with rejected("generator weight must be positive, got -1"):
        A(("x", -1))


def test_generator_outside_the_ring_rejected() -> None:
    with rejected("x + y lives in Q[x, y], not in Q[x]"):
        QReesAlgebra(QQ, ("x",), ((P("x + y"), 1),))


def test_generator_over_another_field_rejected() -> None:
    f = parse_polynomial("x + y", FieldSpec(3), XY)
    with rejected("x + y lives in F_3[x, y], not in Q[x, y]"):
        QReesAlgebra(QQ, XY, ((f, 1),))


def minimal_products(alg: QReesAlgebra, a: Fraction) -> list[str]:
    """The products over the multisets of generators whose weights reach a
    and lose a when any one factor is dropped, as sorted formatted text."""
    gens = alg.generators
    bound = math.ceil(a / min(w for _, w in gens))
    out = []
    for count in range(1, bound + 1):
        for combo in combinations_with_replacement(range(len(gens)), count):
            weights = [gens[i][1] for i in combo]
            if sum(weights) >= a > sum(weights) - min(weights):
                poly = Polynomial.constant(alg.field, alg.variables, alg.field.one())
                for i in combo:
                    poly = poly * gens[i][0]
                out.append(format_polynomial(poly))
    return sorted(out)


def test_level_ideal_emits_exactly_the_minimal_products() -> None:
    rng = random.Random(25)
    algebras = [A(("x", 1), ("y", 2))]
    for _ in range(40):
        gens = []
        for _ in range(rng.randint(1, 4)):
            var = rng.choice(XY)
            text = f"{var}^{rng.randint(1, 3)} + {rng.randint(-2, 2)}*{rng.choice(XY)}"
            gens.append((text, rng.choice(["1/2", "1", "3/2", "2", "3"])))
        if not A(*gens).is_zero():
            algebras.append(A(*gens))
    for alg in algebras:
        for a in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5, 2), Fraction(3)):
            got = sorted(format_polynomial(g) for g in alg.level_ideal(a).generators)
            assert got == minimal_products(alg, a), (format_algebra(alg), a)


def test_level_ideal_of_a_deep_level_is_one_power(monkeypatch) -> None:
    alg = A(("x", 1), variables=("x",))
    mixed = A(("x^2 + y", 1), ("y^3", Fraction(3, 2)), ("x*y", Fraction(1, 2)))
    products = record_calls(monkeypatch, Polynomial, "__mul__")
    assert alg.level_ideal(3000).generators == (P("x^3000", ("x",)),)
    # each product starts from its first factor: none is taken by 1
    assert len(products) == 2999
    products.clear()
    mixed.level_ideal(2)
    assert len(products) == 9
    assert not any(left.is_constant() for left, _ in products)


def test_level_ideal_at_zero_is_unit() -> None:
    assert A(("x", 1)).level_ideal(Fraction(0)).is_unit()


def test_level_ideal_of_the_zero_algebra_is_zero() -> None:
    assert QReesAlgebra(QQ, XY, ()).level_ideal(Fraction(1, 2)).generators == ()


def test_odot_unions_generators() -> None:
    joined = A(("x", 1)).odot(A(("y", 2)))
    assert len(joined.generators) == 2
    with rejected("odot operand lives in Q[x, y, z], not in Q[x, y]"):
        A(("x", 1)).odot(A(("z", 1), variables=XYZ))


@pytest.mark.parametrize("ring", [("y", "x"), XYZ], ids=["reordered", "larger"])
def test_generator_from_another_ring_is_not_moved(ring) -> None:
    # x lies in both rings, yet only Polynomial.in_ring moves it
    x = P("x", ring)
    with rejected(f"x lives in Q[{', '.join(ring)}], not in Q[x, y]"):
        QReesAlgebra(QQ, XY, ((x, 1),))
    assert QReesAlgebra(QQ, XY, ((x.in_ring(XY), 1),)) == A(("x", 1))


def test_scale_divides_weights() -> None:
    alg = A(("x^2", 2))
    halved = alg.scale(Fraction(1, 2))
    assert halved.generators[0][1] == Fraction(4)
    doubled = alg.scale(Fraction(2))
    assert doubled.generators[0][1] == Fraction(1)


def test_scale_law_on_orders() -> None:
    """ord(scale(A, b)) = b * ord(A) at every sample point."""
    alg = A(("x^2 + y^3", 2), ("x*y", 1))
    points = algebra_sample_points(XY)
    for b in (Fraction(1, 2), Fraction(2), Fraction(3, 2)):
        scaled = alg.scale(b)
        for pt in points:
            base = alg.ord_at_point(pt)
            lifted = scaled.ord_at_point(pt)
            if isinstance(base, Infinity):
                assert isinstance(lifted, Infinity)
            else:
                assert lifted == b * base


def test_scale_law_on_levels() -> None:
    alg = A(("x", 1), ("y^2", 2))
    b = Fraction(2)
    scaled = alg.scale(b)
    for num in range(1, 5):
        a = Fraction(num, 2)
        assert scaled.level_ideal(a).same_as(alg.level_ideal(a * b))


def test_ord_at_point_basics() -> None:
    alg = A(("x^2 + y^3", 2))
    assert alg.ord_at_point((0, 0)) == Fraction(1)
    assert alg.ord_at_point((1, -1)) == Fraction(1, 2)
    assert alg.ord_at_point((1, 1)) == Fraction(0)
    zero = QReesAlgebra(QQ, XY, ())
    assert isinstance(zero.ord_at_point((0, 0)), Infinity)


def test_ord_at_point_of_weight_one_cusp() -> None:
    alg = A(("x^2 + y^3", 1))
    assert alg.ord_at_point((0, 0)) == 2
    # (1, -1) is a smooth point of the cusp
    assert alg.ord_at_point((1, -1)) == 1
    # a point off the curve
    assert alg.ord_at_point((1, 1)) == 0


@pytest.mark.parametrize("gens", [(), (("x^2 + y^3", 2),)], ids=["zero", "cusp"])
def test_ord_at_point_rejects_wrong_length(gens) -> None:
    alg = A(*gens)
    for point in ((0,), (0, 0, 0)):
        with rejected("point has the wrong number of coordinates"):
            alg.ord_at_point(point)


@pytest.mark.parametrize(
    "point, message",
    [
        (("a", 0), "point ('a', 0) has a coordinate that is not rational"),
        (0, "point 0 is not a sequence of coordinates"),
    ],
    ids=["not-rational", "not-a-sequence"],
)
def test_ord_at_point_rejects_malformed_point(point, message: str) -> None:
    with rejected(message):
        A(("x^2 + y^3", 2)).ord_at_point(point)


def order_ge_oracle(alg: QReesAlgebra, omega: Fraction, pt: tuple) -> bool:
    o = alg.ord_at_point(pt)
    return isinstance(o, Infinity) or o >= omega


def test_order_ge_ideal_matches_pointwise_orders() -> None:
    """A rational point lies on V(order_ge_ideal(w)) exactly when the order of
    the algebra there is at least w."""
    algebras = [
        A(("x^2 + y^3", 2)),
        A(("x*y", 1), ("y^3", 2)),
        A(("x^2 - y^2", 2)),
    ]
    for alg in algebras:
        for num in (1, 2, 3):
            omega = Fraction(num, 2)
            cut = alg.order_ge_ideal(omega)
            for pt in algebra_sample_points(XY):
                onside = all(
                    g.evaluate(dict(zip(XY, pt))) == 0 for g in cut.generators
                )
                assert onside == order_ge_oracle(alg, omega, pt), (
                    format_algebra(alg),
                    omega,
                    pt,
                )


def test_order_ge_ideal_nonpositive_is_zero_ideal() -> None:
    assert A(("x", 1)).order_ge_ideal(Fraction(0)).is_zero_ideal()


def test_sing_ideal_of_cusp() -> None:
    alg = A(("x^2 + y^3", 2))
    sing = alg.sing_ideal()
    assert sing.contains(P("x"))
    assert sing.contains(P("y^2"))
    assert not sing.is_unit()


def test_sing_locus_nonempty_iff_somewhere_order_one() -> None:
    crossing = A(("x", 1), ("y", 1))
    # order 1 exactly at the origin
    assert not crossing.sing_ideal().is_unit()
    # a weight-1 generator is singular along its whole zero set
    hyperplane = A(("1 + x", 1))
    assert hyperplane.sing_ideal().same_as(Ideal(QQ, XY, (P("1 + x"),)))
    # raising the weight pushes the order below one everywhere
    mild = A(("1 + x", 2))
    assert mild.sing_ideal().is_unit()
    unit = A(("1", 1))
    assert unit.sing_ideal().is_unit()


def test_max_order_within_descends_candidates() -> None:
    alg = A(("x^2 + y^3", 2))
    inside = alg.sing_ideal()
    omega, stratum = alg.max_order_within(inside)
    assert omega == Fraction(1)
    assert stratum.contains(P("x"))
    # the stratum cuts out the origin set-theoretically (y^2, not y, appears)
    assert stratum.radical_contains(P("y"))


def test_max_order_within_zero_when_unit_algebra() -> None:
    alg = A(("1", 1))
    inside = Ideal(QQ, XY, (P("x"),))
    omega, stratum = alg.max_order_within(inside)
    assert omega == 0
    assert stratum.same_as(inside)


# the algebras of the bench's resolve-corpus: the five acceptance runs, four
# slower curves and surfaces, and E6
CORPUS_ALGEBRAS = [
    (XY, (("x^2 + y^3", 2),)),
    (XYZ, (("x^2 - y^2*z", 2),)),
    (XY, (("x^2 + y^5", 2),)),
    (XY, (("x^2*y^3", 2),)),
    (XYZ, (("x*y", 1), ("z", 1))),
    (XYZ, (("x^2 - y^2*z^3", 2),)),
    (XYZ, (("x^2 - y^3*z^2", 2),)),
    (XY, (("x^2 + y^7", 2),)),
    (XY, (("x^3 + y^5", 3),)),
    (XYZ, (("x^2 + y^3 + z^4", 2),)),
]
F3 = FieldSpec(3)
ORACLE_WEIGHTS = tuple(map(Fraction, ("1/2", "2/3", "1", "3/2", "2", "3")))
# numerators past 3, so that the lcm of the numerators differs from the lcm
# of the denominators and from every single numerator
WIDE_WEIGHTS = tuple(map(Fraction, ("5/3", "7/4", "2/5", "9/2", "1", "3/7")))


def reference_max_order_within(alg: QReesAlgebra, inside: Ideal) -> tuple[Fraction, Ideal]:
    """The scan with no degree bound: every candidate m/a_i, m = 1..deg(f_i),
    from the top down, each ideal's derivatives formed afresh over all
    exponents alpha <= deg(f_i), |alpha| < a_i * omega, in the order of the
    generators, then |alpha|, then alpha descending."""
    candidates = {
        Fraction(m) / a for f, a in alg.generators for m in range(1, f.total_degree() + 1)
    }
    for omega in sorted(candidates, reverse=True):
        gens = []
        for f, a in alg.generators:
            box = list(product(*(range(c + 1) for c in f.degrees())))
            for m in range(math.ceil(a * omega)):
                for alpha in sorted((al for al in box if sum(al) == m), reverse=True):
                    gens.append(f.hasse_derivative(alpha))
        stratum = Ideal(alg.field, alg.variables, gens + list(inside.generators))
        if not stratum.is_unit():
            return omega, stratum
    return Fraction(0), inside


def random_oracle_polynomial(rng: random.Random, field: FieldSpec, variables) -> Polynomial:
    coeffs = (1, -1, 2, Fraction(1, 2)) if field.is_rational else (1, 2)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        terms[tuple(rng.randint(0, 3) for _ in variables)] = field.coerce(rng.choice(coeffs))
    return Polynomial(field, variables, terms)


def oracle_cases() -> list[tuple[QReesAlgebra, Ideal]]:
    """The corpus inside its singular loci, 50 seeded algebras with
    ORACLE_WEIGHTS and 30 with WIDE_WEIGHTS, then each seeded algebra of
    positive order divided by that order, as analyze_chart scales a residual
    before it searches for maximal contact."""
    cases = []
    for variables, gens in CORPUS_ALGEBRAS:
        alg = A(*gens, variables=variables)
        cases.append((alg, alg.sing_ideal()))
    seeded = seeded_oracle_cases(ORACLE_WEIGHTS, 20101008, 50)
    seeded += seeded_oracle_cases(WIDE_WEIGHTS, 30, 30)
    for alg, inside in seeded:
        omega = alg.max_order_within(inside)[0]
        if omega:
            cases.append((alg.scale(1 / omega), inside))
    return cases + seeded


def seeded_oracle_cases(weights, seed: int, count: int) -> list[tuple[QReesAlgebra, Ideal]]:
    """count seeded algebras over Q and F_3 with weights drawn from weights,
    a constant generator in every tenth, and an inside that is zero, the
    singular locus or a random ideal."""
    cases = []
    rng = random.Random(seed)
    for i in range(count):
        field = (QQ, F3)[i % 2]
        variables = XYZ[: rng.randint(2, 3)]
        gens = [
            (random_oracle_polynomial(rng, field, variables), rng.choice(weights))
            for _ in range(rng.randint(1, 2))
        ]
        if i % 10 == 9:
            gens.append((Polynomial.constant(field, variables, 2), rng.choice(weights)))
        alg = QReesAlgebra(field, variables, tuple(gens))
        kind = i % 3
        if kind == 0:
            inside = Ideal.zero(field, variables)
        elif kind == 1:
            inside = alg.sing_ideal()
        else:
            inside = Ideal(field, variables, [random_oracle_polynomial(rng, field, variables)])
        cases.append((alg, inside))
    return cases


def test_max_order_within_matches_unbounded_scan() -> None:
    """Skipping candidates above min deg(f_i)/a_i, scanning the rest as
    integer numerators over the lcm of the weight numerators and building
    each derivative once changes neither omega nor the stratum's generators."""
    cases = oracle_cases()
    omegas = set()
    for alg, inside in cases:
        omega, stratum = alg.max_order_within(inside)
        ref_omega, ref_stratum = reference_max_order_within(alg, inside)
        assert omega == ref_omega, format_algebra(alg)
        assert stratum.generators == ref_stratum.generators, format_algebra(alg)
        assert stratum.basis() == ref_stratum.basis(), format_algebra(alg)
        omegas.add(omega)
    # the cases reach fractional orders, order one and order zero, not one
    # value alone, and weights whose numerators pass 9
    assert 0 in omegas and 1 in omegas and any(o.denominator > 1 for o in omegas)
    assert any(a.numerator > 9 for alg, _ in cases for a in alg.weights())


def test_orders_and_weights_stay_fractions() -> None:
    """==, hash and str cannot tell Fraction(2) from 2, so the type itself is
    checked: on integral orders too, and on the order 0 of a unit algebra."""
    cases = oracle_cases() + [(A(("1", 1)), Ideal.zero(QQ, XY))]
    orders = []
    for alg, inside in cases:
        orders += [alg.max_order_within(inside)[0], alg.max_order_stratum()[0]]
    assert all(type(o) is Fraction for o in orders)
    assert 0 in orders and 1 in orders


def test_ceil_times_is_the_ceiling_of_the_product() -> None:
    grid = [Fraction(n, d) for n in range(13) for d in range(1, 13)] + list(range(13))
    for a in grid:
        for b in grid:
            assert _ceil_times(a, b) == math.ceil(Fraction(a) * Fraction(b)), (a, b)


@pytest.mark.parametrize(
    "field, text, weight",
    [
        (QQ, "x^2 + y^3", 2),
        (QQ, "x^3 + 2*x*y^4 - 1/2*y", Fraction(3, 2)),
        (F3, "x^3", 1),  # d^3/dx^3 x^3 = 6 = 0, but D^3 x^3 = 1
        (F3, "x^3*y^3 + y", Fraction(2, 3)),
    ],
)
def test_order_ge_ideal_is_unit_above_degree_over_weight(field, text, weight) -> None:
    """Above deg(f)/a the ideal holds D^e f = c_e for a top-degree term c_e x^e
    of f: a nonzero constant, in every characteristic."""
    f = parse_polynomial(text, field, XY)
    alg = QReesAlgebra(field, XY, ((f, Fraction(weight)),))
    omega = Fraction(f.total_degree()) / Fraction(weight) + Fraction(1, 1000)
    assert any(g.is_constant() for g in alg.order_ge_ideal(omega).generators)


def test_to_integer_grading() -> None:
    alg = A(("x", Fraction(1, 2)), ("y", Fraction(3, 4)))
    integral, n = alg.to_integer_grading()
    assert n == 4
    weights = sorted(w for _, w in integral.generators)
    assert weights == [Fraction(2), Fraction(3)]
    # multiplying weights by n shrinks orders by the same factor
    assert 4 * integral.ord_at_point((0, 0)) == alg.ord_at_point((0, 0))


def test_monotone_closure_adds_lower_weights() -> None:
    alg = A(("x*y", 3))
    closed = alg.monotone_closure()
    assert len(closed.generators) == 3  # weights 3, 2, 1
    weights = sorted(w for _, w in closed.generators)
    assert weights == [Fraction(1), Fraction(2), Fraction(3)]


def test_monotone_closure_rejects_fractional_weights() -> None:
    with rejected("monotone closure needs integer weights"):
        A(("x", Fraction(1, 2))).monotone_closure()


def test_parse_generator_list() -> None:
    alg = parse_generator_list("x^2 + y^3 : 2; x*y : 1/2", QQ, XY)
    assert len(alg.generators) == 2
    assert alg.generators[1][1] == Fraction(1, 2)
    assert parse_generator_list("0", QQ, XY).is_zero()


@pytest.mark.parametrize("weight", ["abc", "1/0", ""])
def test_parse_generator_list_rejects_bad_weight(weight: str) -> None:
    with pytest.raises(ProblemParseError, match="bad weight"):
        parse_generator_list(f"x : {weight}", QQ, XY)


@pytest.mark.parametrize("weight", ["0", "-1/2"])
def test_generator_weight_must_be_positive_in_lists_and_files(weight: str) -> None:
    message = f"weight must be positive, got {weight}"
    with pytest.raises(ProblemParseError, match=f"^{message}$"):
        parse_generator_list(f"x^2 : 2; x : {weight}", QQ, XY)
    with pytest.raises(ProblemParseError, match=f"^line 3: {message}$"):
        parse_problem(f"field Q\nchart x y\ngen x : {weight}\n")


def test_format_round_trip() -> None:
    alg = A(("x^2 + y^3", 2), ("x*y", Fraction(3, 2)))
    text = format_algebra(alg)
    again = parse_generator_list(text, QQ, XY)
    assert [(f, w) for f, w in again.generators] == list(alg.generators)


def test_sample_points_cover_grid() -> None:
    pts = algebra_sample_points(XY)
    assert (0, 0) in pts
    assert len(pts) == 16
