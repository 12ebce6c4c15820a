"""Weighted algebra operations, checked against enumeration oracles."""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest

from qrees.algebra import (
    QReesAlgebra,
    algebra_sample_points,
    format_algebra,
    parse_generator_list,
)
from qrees.errors import PreconditionError, ProblemParseError
from qrees.field import QQ, FieldSpec
from qrees.ideal import Ideal
from qrees.poly import INFINITY, Infinity, Polynomial, parse_polynomial

XY = ("x", "y")
XYZ = ("x", "y", "z")


def P(text: str, variables: tuple[str, ...] = XY) -> Polynomial:
    return parse_polynomial(text, QQ, variables)


def A(*gens: tuple[str, object], variables: tuple[str, ...] = XY) -> QReesAlgebra:
    return QReesAlgebra(
        QQ,
        variables,
        tuple((P(t, variables), Fraction(w)) for t, w in gens),
    )


def brute_level_ideal(alg: QReesAlgebra, a: Fraction, max_factors: int) -> Ideal:
    """Every product of at most max_factors generators whose weights sum to at
    least a.  Exhaustive, no minimality pruning: the ideals must agree."""
    if a <= 0:
        return Ideal.unit(alg.field, alg.variables)
    gens = []
    n = len(alg.generators)
    for count in range(1, max_factors + 1):
        for combo in product(range(n), repeat=count):
            if list(combo) != sorted(combo):
                continue  # multisets once
            total = sum(alg.generators[i][1] for i in combo)
            if total >= a:
                poly = Polynomial.constant(alg.field, alg.variables, alg.field.one())
                for i in combo:
                    poly = poly * alg.generators[i][0]
                gens.append(poly)
    return Ideal(alg.field, alg.variables, tuple(gens))


def test_weights_become_fractions_and_zero_generators_drop() -> None:
    alg = A(("x", 1), ("0", 2))
    assert len(alg.generators) == 1
    assert isinstance(alg.generators[0][1], Fraction)


def test_nonpositive_weight_rejected() -> None:
    with pytest.raises(PreconditionError):
        A(("x", 0))
    with pytest.raises(PreconditionError):
        A(("x", -1))


def test_generator_outside_the_ring_rejected() -> None:
    with pytest.raises(PreconditionError, match=r"^x \+ y involves y, outside Q\[x\]$"):
        QReesAlgebra(QQ, ("x",), ((P("x + y"), 1),))


def test_generator_over_another_field_rejected() -> None:
    f = parse_polynomial("x + y", FieldSpec(3), XY)
    with pytest.raises(
        PreconditionError, match=r"^x \+ y lives in F_3\[x, y\], not in Q\[x, y\]$"
    ):
        QReesAlgebra(QQ, XY, ((f, 1),))


def test_level_ideal_matches_brute_force() -> None:
    algebras = [
        A(("x^2 + y^3", 2)),
        A(("x", 1), ("y", 2)),
        A(("x^2", 1), ("y^2", 1)),
        A(("x", Fraction(1, 2)), ("y^2 + x", Fraction(3, 2))),
        A(("x*y", 1), ("x + y", 3)),
    ]
    for alg in algebras:
        min_w = min(w for _, w in alg.generators)
        for num in range(0, 7):
            a = Fraction(num, 2)
            if a > 3:
                break
            bound = int(-(-a // min_w)) + 1 if a > 0 else 1
            expected = brute_level_ideal(alg, a, bound)
            assert alg.level_ideal(a).same_as(expected), (format_algebra(alg), a)


def test_level_ideal_at_zero_is_unit() -> None:
    assert A(("x", 1)).level_ideal(Fraction(0)).is_unit()


def test_odot_unions_generators() -> None:
    joined = A(("x", 1)).odot(A(("y", 2)))
    assert len(joined.generators) == 2
    with pytest.raises(PreconditionError):
        A(("x", 1)).odot(A(("z", 1), variables=XYZ))


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
    pairs = set((str(f.sorted_terms()), w) for f, w in closed.generators)
    assert len(closed.generators) == 3  # weights 3, 2, 1
    weights = sorted(w for _, w in closed.generators)
    assert weights == [Fraction(1), Fraction(2), Fraction(3)]


def test_monotone_closure_rejects_fractional_weights() -> None:
    with pytest.raises(PreconditionError):
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


def test_format_round_trip() -> None:
    alg = A(("x^2 + y^3", 2), ("x*y", Fraction(3, 2)))
    text = format_algebra(alg)
    again = parse_generator_list(text, QQ, XY)
    assert [(f, w) for f, w in again.generators] == list(alg.generators)


def test_sample_points_cover_grid() -> None:
    pts = algebra_sample_points(XY)
    assert (0, 0) in pts
    assert len(pts) == 16
