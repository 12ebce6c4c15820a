"""Blowup charts, controlled transforms, divisor bookkeeping, and contact."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from qrees.algebra import QReesAlgebra
from qrees.charts import (
    Chart,
    DivisorRecord,
    blowup_chart,
    coefficient_algebra,
    elimination_algebra,
    find_maximal_contact,
    non_monomial_part,
    transform_algebra,
    validate_center,
)
from qrees.errors import (
    ChartSplitRequired,
    PreconditionError,
    UnsupportedCharacteristic,
)
from qrees.field import QQ, FieldSpec
from qrees.poly import Infinity, Polynomial, parse_polynomial

from kit import A, P, XY, XYZ, center_oracle, record_calls, rejected


def test_blowup_chart_ids_and_divisors() -> None:
    parent = Chart(id="0", field=QQ, variables=XYZ)
    child = blowup_chart(parent, ("x", "y", "z"), "z", created=1)
    assert child.id == "0.1z"
    assert child.divisors == (DivisorRecord("z", 1),)
    grand = blowup_chart(child, ("x", "y"), "y", created=2)
    assert grand.id == "0.1z.2y"
    assert DivisorRecord("z", 1) in grand.divisors
    assert DivisorRecord("y", 2) in grand.divisors


def test_blowup_chart_replaces_reused_divisor_variable() -> None:
    parent = Chart(
        id="0", field=QQ, variables=XY, divisors=(DivisorRecord("x", 1),)
    )
    child = blowup_chart(parent, ("x", "y"), "x", created=2)
    assert child.divisors == (DivisorRecord("x", 2),)


def test_transform_cusp_in_each_chart() -> None:
    cusp = A(("x^2 + y^3", 2))
    in_x = transform_algebra(cusp, ("x", "y"), "x")
    assert in_x.generators[0][0] == P("1 + x*y^3")
    in_y = transform_algebra(cusp, ("x", "y"), "y")
    assert in_y.generators[0][0] == P("x^2 + y")


def test_transform_divides_by_ceiling_of_weight() -> None:
    alg = A(("x^3", Fraction(3, 2)))
    moved = transform_algebra(alg, ("x", "y"), "y")
    # substitution x -> x*y gives x^3 y^3; ceil(3/2) = 2 powers come off
    assert moved.generators[0][0] == P("x^3*y")


def test_transform_rejects_center_outside_singular_locus() -> None:
    smooth = A(("x + y^2", 1))
    # the origin is on V(x + y^2) so this center is fine
    transform_algebra(smooth, ("x", "y"), "x")
    # the cusp has order 2 at the origin; x + y has order exactly 1 there
    for inside in (A(("x^2 + y^3", 2)), A(("x + y", 1))):
        for chart_var in XY:
            transform_algebra(inside, ("x", "y"), chart_var)
    # 1 + x is a unit at the origin, so the origin is off {ord >= 1}
    off = A(("1 + x", 2), ("y", 1))
    for chart_var in XY:
        with rejected("blowup center is not inside the singular locus"):
            transform_algebra(off, ("x", "y"), chart_var)


def test_transform_rejects_indivisible_without_center() -> None:
    alg = A(("y", 1))
    with rejected("blowup center is not inside the singular locus"):
        transform_algebra(alg, ("x",), "x")


def test_transform_rejects_chart_variable_outside_center_or_ring() -> None:
    cusp = A(("x^2 + y^3", 2), variables=XYZ)
    # z is a chart variable but not a center variable: not a blowup chart
    with rejected("chart variable z must lie in the center"):
        transform_algebra(cusp, ("x", "y"), "z")
    # a center variable outside the ring cannot be the chart variable
    with rejected("chart variable z is not in the ring"):
        transform_algebra(A(("x^2 + y^3", 2)), ("x", "y", "z"), "z")


def test_transform_ignores_center_variables_outside_the_ring() -> None:
    # the ring is the line {z = 0} of a chart blown up along V(x, z)
    moved = transform_algebra(A(("x*y", 1)), ("x", "z"), "x")
    assert moved.generators[0][0] == P("y")


def test_validate_center() -> None:
    validate_center(XYZ, ("x", "z"), "x")
    with rejected("center variable w is not a chart variable"):
        validate_center(XYZ, ("x", "w"), "x")
    with rejected("blowup center needs at least one variable"):
        validate_center(XYZ, (), "x")
    with rejected("blowup center variables must be distinct"):
        validate_center(XYZ, ("x", "x"), "x")
    with rejected("chart variable z must lie in the center"):
        validate_center(XYZ, ("x", "y"), "z")


def test_order_along_one_variable() -> None:
    alg = A(("x^2*y", 2), ("x*y^3", 1))
    assert alg.order_along(("x",)) == Fraction(1)  # min(2/2, 1/1)
    assert alg.order_along(("y",)) == Fraction(1, 2)  # min(1/2, 3/1)
    zero = QReesAlgebra(QQ, XY, ())
    assert isinstance(zero.order_along(("x",)), Infinity)


def test_non_monomial_part_strips_sequentially() -> None:
    alg = A(("x^2*y^2", 2),)
    residual, ells = non_monomial_part(alg, ["x", "y"])
    assert ells == [Fraction(1), Fraction(1)]
    assert residual.generators[0][0] == P("1")


def test_non_monomial_part_umbrella_chart() -> None:
    """After the first umbrella blowup the y-chart algebra x^2 y... strips to a
    unit via ell = 1/2 on each divisor in turn."""
    alg = A(("y*z", 2), ("2*y*z", 1), ("y", 1), variables=XYZ)
    residual, ells = non_monomial_part(alg, ["y"])
    assert ells == [Fraction(1, 2)]
    assert residual.generators[2][0] == P("1", XYZ)


def test_non_monomial_part_rejects_a_repeated_divisor() -> None:
    with rejected("divisor variables must be distinct"):
        non_monomial_part(A(("x^2*y^2", 2)), ["x", "y", "x"])


def test_non_monomial_part_reads_each_ell_once(monkeypatch) -> None:
    calls = record_calls(monkeypatch, QReesAlgebra, "order_along")
    alg = A(("x^2*y^3*z", 2), ("x^3*y^2 + x^4*y^2*z", 3), variables=XYZ)
    residual, ells = non_monomial_part(alg, ["x", "y", "z"])
    assert [vars for _, vars in calls] == [("x",), ("y",), ("z",)]
    assert ells == [Fraction(1), Fraction(2, 3), Fraction(0)]
    assert [f for f, _ in residual.generators] == [P("y*z", XYZ), P("x*z + 1", XYZ)]


@pytest.mark.parametrize(
    "call",
    [
        lambda: Polynomial.variable(QQ, XY, "w"),
        lambda: P("x^2 + y").degree_in("w"),
        lambda: P("x^2 + y").order_in_vars(("x", "w")),
        lambda: P("0").order_in_vars(("w",)),
        lambda: A(("x^2 + y", 2)).order_along(("w",)),
        lambda: QReesAlgebra(QQ, XY, ()).order_along(("w",)),
        lambda: P("x^2 + y").restrict_zero("w"),
        lambda: P("x^2 + y").coefficient_in_var("w", 0),
        lambda: coefficient_algebra(A(("x^2 + y", 2)), "w"),
        lambda: elimination_algebra(A(("x^2 + y", 2)), "w"),
        lambda: non_monomial_part(A(("x^2 + y", 2)), ["x", "w"]),
        lambda: non_monomial_part(QReesAlgebra(QQ, XY, ()), ["w"]),
    ],
    ids=[
        "variable",
        "degree_in",
        "order_in_vars",
        "order_in_vars-zero",
        "order_along",
        "order_along-zero",
        "restrict_zero",
        "coefficient_in_var",
        "coefficient_algebra",
        "elimination_algebra",
        "non_monomial_part",
        "non_monomial_part-zero",
    ],
)
def test_unknown_variable_names_the_ring(call) -> None:
    with rejected("w is not a variable of Q[x, y]"):
        call()


def test_coefficient_algebra_restricts_saturation() -> None:
    alg = A(("x^2 + y^3", 2))
    coeff = coefficient_algebra(alg, "x")
    assert coeff.variables == ("y",)
    # x^2 + y^3 saturates to include 2x and 3y^2; restriction kills x terms
    weights = sorted(w for _, w in coeff.generators)
    assert weights == [Fraction(1), Fraction(2)]


def test_elimination_algebra_keeps_var_free_generators() -> None:
    alg = A(("x", 1), ("y^2", 2), ("x + y", 1))
    only_y = elimination_algebra(alg, "x")
    assert only_y.variables == ("y",)
    assert len(only_y.generators) == 1
    assert only_y.generators[0][1] == Fraction(2)


def test_find_maximal_contact_plain() -> None:
    alg = A(("x", 1), ("y^2", 2))
    choice = find_maximal_contact(alg)
    assert choice.var == "x"
    assert choice.shift is None


def test_find_maximal_contact_with_shift() -> None:
    alg = A(("2*x + y^2", 1),)
    choice = find_maximal_contact(alg)
    assert choice.var == "x"
    assert choice.shift == P("-1/2*y^2")


def test_find_maximal_contact_frozen_divisor() -> None:
    # a frozen variable with zero shift is acceptable
    alg = A(("x", 1),)
    choice = find_maximal_contact(alg, frozenset({"x"}))
    assert choice.var == "x"
    # but a frozen variable needing a shift is skipped
    shifted = A(("x + y^2", 1), ("y", 1))
    choice = find_maximal_contact(shifted, frozenset({"x"}))
    assert choice.var == "y"


def test_find_maximal_contact_no_candidate() -> None:
    with pytest.raises(ChartSplitRequired):
        find_maximal_contact(A(("x*y", 1),))
    with pytest.raises(ChartSplitRequired):
        find_maximal_contact(A(("x^2", 2),))


def test_find_maximal_contact_local_mode() -> None:
    # y*(1 + z) is not triangular over the chart but near the origin it cuts
    # out the hyperplane y = 0
    alg = A(("y + y*z", 1), variables=XYZ)
    with pytest.raises(ChartSplitRequired):
        find_maximal_contact(alg)
    choice = find_maximal_contact(alg, local=True)
    assert choice.var == "y"
    assert choice.shift is None
    # a coefficient vanishing at the origin does not qualify even locally
    degenerate = A(("y*z", 1), variables=XYZ)
    with pytest.raises(ChartSplitRequired):
        find_maximal_contact(degenerate, local=True)


def test_find_maximal_contact_positive_characteristic() -> None:
    F2 = FieldSpec(2)
    alg = QReesAlgebra(F2, XY, ((parse_polynomial("x", F2, XY), Fraction(1)),))
    with rejected("maximal contact requires characteristic zero", UnsupportedCharacteristic):
        find_maximal_contact(alg)


# -- the blowup step against its definitions -----------------------------------


def transform_oracle(alg, center_vars, chart_var) -> QReesAlgebra:
    """The definition: substitute v -> v * chart_var, then divide by
    chart_var^ceil(a) generator by generator.  Once the center lies in the
    singular locus every division is exact."""
    if not center_oracle(alg, center_vars):
        raise PreconditionError("blowup center is not inside the singular locus")
    ring = alg.variables
    c = Polynomial.variable(alg.field, ring, chart_var)
    mapping = {
        v: Polynomial.variable(alg.field, ring, v) * c
        for v in center_vars
        if v in ring and v != chart_var
    }
    gens = [
        (divide_by_power(f.substitute(mapping), chart_var, math.ceil(a)), a)
        for f, a in alg.generators
    ]
    return QReesAlgebra(alg.field, ring, tuple(gens))


def divide_by_power(p: Polynomial, var: str, k: int) -> Polynomial:
    """p / var^k, term by term; ValueError when some term has var to a
    lower power."""
    i = p.variables.index(var)
    terms = {}
    for e, c in p.terms.items():
        if e[i] < k:
            raise ValueError(f"{p} is not divisible by {var}^{k}")
        terms[e[:i] + (e[i] - k,) + e[i + 1 :]] = c
    return Polynomial(p.field, p.variables, terms)


def _outcome(call):
    try:
        return call()
    except PreconditionError as exc:
        return (type(exc), str(exc))


def _random_blowup(rng: random.Random):
    field = FieldSpec(rng.choice((0, 2, 3)))
    ring = ("x", "y", "z", "w")[: rng.choice((3, 4))]
    center = tuple(v for v in ring if rng.random() < 0.6) or (rng.choice(ring),)
    chart_var = rng.choice(center)
    coeffs = (1, -1, 2, Fraction(1, 2)) if field.characteristic == 0 else (1, 2)
    inside = rng.random() < 0.6
    gens = []
    for _ in range(rng.randint(1, 3)):
        a = rng.choice((Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)))
        terms = {}
        for _ in range(rng.randint(1, 4)):
            e = [rng.randint(0, 3) for _ in ring]
            # push most terms far enough into the center, so that both
            # verdicts and both transform outcomes turn up
            while inside and sum(e[ring.index(v)] for v in center) < math.ceil(a):
                e[ring.index(rng.choice(center))] += 1
            terms[tuple(e)] = field.coerce(rng.choice(coeffs))
        gens.append((Polynomial(field, ring, terms), a))
    alg = QReesAlgebra(field, ring, tuple(gens))
    return alg, center, chart_var


def test_blowup_step_matches_definitions() -> None:
    rng = random.Random(20101008)
    verdicts = set()
    for _ in range(200):
        alg, center, chart_var = _random_blowup(rng)
        verdict = center_oracle(alg, center)
        new = _outcome(lambda: transform_algebra(alg, center, chart_var))
        old = _outcome(lambda: transform_oracle(alg, center, chart_var))
        assert new == old, (alg, center, chart_var)
        verdicts.add((alg.field.characteristic, verdict, isinstance(new, tuple)))
    # every field saw both verdicts, and some transforms failed
    assert {(p, v) for p, v, _ in verdicts} == {(p, v) for p in (0, 2, 3) for v in (True, False)}
    assert any(failed for _, _, failed in verdicts)
