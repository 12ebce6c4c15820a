"""The resolution driver against hand-worked runs.

Every expected trace below was computed by hand, level by level: the orders,
the divisor counts, the terminators, and the centers.  When one of these
assertions fails the driver is wrong, not the test.
"""

from __future__ import annotations

import importlib
import math
import random
from fractions import Fraction

import pytest

from qrees.algebra import QReesAlgebra
from qrees.charts import Chart, DivisorRecord
import qrees
from qrees.errors import (
    ChartSplitRequired,
    InvariantNotDecreasing,
    NotTerminated,
    UnsupportedCharacteristic,
)
from qrees.field import QQ, FieldSpec
from qrees.ideal import Ideal, MonomialOrder
from qrees.invariant import InvariantValue, MonomialData, non_singular_value
from qrees.poly import Polynomial, parse_polynomial
from qrees.problem import parse_problem
from qrees.resolve import (
    Leaf,
    LevelState,
    analyze_chart,
    fc_at_point,
    max_locus_fc,
    resolve,
    root_chart,
)
from qrees.saturation import (
    diff_saturate,
    equivalence_check,
    is_integral_member,
    nu,
    nu_bar_estimate,
)

from kit import A, P, XY, XYZ, gb_calls, inverse, record_calls, rejected
from test_golden_traces import PROBLEMS, STEP_BUDGET, trace_text


def step_summary(trace: dict) -> list[tuple[int, str, str, str, tuple[str, ...]]]:
    out = []
    for s in trace["steps"]:
        levels = ";".join(f"{w},{n}" for w, n in s["fc"]["levels"])
        term = s["fc"]["terminator"]
        if isinstance(term, dict):
            m = term["monomial"]
            term = f"M(p={m['p']},s={m['s']},{tuple(m['indices'])})"
        out.append((s["step"], s["chart"], levels, term, tuple(s["center"])))
    return out


# -- ordering of the invariant ------------------------------------------------


def test_invariant_order_on_levels() -> None:
    point = InvariantValue(((Fraction(1), 0), (Fraction(3, 2), 0)), "Point")
    smaller = InvariantValue(((Fraction(1), 0), (Fraction(1), 1)), "Point")
    assert smaller < point
    assert point > smaller
    assert point == InvariantValue(((Fraction(1), 0), (Fraction(3, 2), 0)), "Point")


def test_invariant_order_terminators() -> None:
    levels = ((Fraction(1), 0),)
    ns = non_singular_value()
    pt = InvariantValue(levels, "Point")
    zc = InvariantValue(levels, "ZeroCoeff")
    mono = InvariantValue(levels, MonomialData(1, Fraction(1), (1,)))
    assert ns < pt < mono < zc
    # a longer level list with a bigger entry wins over any terminator
    deeper = InvariantValue(((Fraction(1), 0), (Fraction(2), 0)), "Point")
    assert deeper > pt


@pytest.mark.parametrize("terminator", ["Smooth", None, ["Point"]])
def test_invariant_rejects_an_unknown_terminator(terminator) -> None:
    with pytest.raises(ValueError, match="unknown terminator"):
        InvariantValue((), terminator).components()


def test_monomial_data_ordering() -> None:
    a = MonomialData(1, Fraction(1), (1,))
    b = MonomialData(2, Fraction(1), (1, 2))
    assert a.sort_key() > b.sort_key()  # fewer factors is bigger
    c = MonomialData(1, Fraction(3, 2), (2,))
    assert c.sort_key() > a.sort_key()  # more excess is bigger
    d = MonomialData(1, Fraction(1), (2,))
    assert a.sort_key() > d.sort_key()  # earlier creation is bigger
    # a prefix index tuple beats its extensions
    e = MonomialData(1, Fraction(1), (1, 2))
    assert a.sort_key() > e.sort_key()


def test_invariant_json_round_trip_strings() -> None:
    v = InvariantValue(
        ((Fraction(1), 0), (Fraction(0), 2)), MonomialData(2, Fraction(1), (1, 2))
    )
    doc = v.to_json()
    assert doc["levels"] == [["1", 0], ["0", 2]]
    assert doc["terminator"]["monomial"]["p"] == 2
    assert str(v) == "[(1, 0), (0, 2)] · Monomial(p=2, s=1, created=(1, 2))"
    for value in (
        v,
        non_singular_value(),
        InvariantValue(((Fraction(1), 0), (Fraction(3, 2), 0)), "Point"),
        InvariantValue(((Fraction(1), 0), (Fraction(1), 1)), "ZeroCoeff"),
        InvariantValue(((Fraction(0), 1),), MonomialData(1, Fraction(5, 2), ())),
    ):
        assert InvariantValue.from_json(value.to_json()) == value


# -- the hand-verified runs ---------------------------------------------------


def test_cusp_single_blowup() -> None:
    trace = resolve(QQ, XY, A(("x^2 + y^3", 2)))
    assert trace["status"] == "resolved"
    assert step_summary(trace) == [
        (0, "0", "1,0;3/2,0", "Point", ("x", "y")),
    ]
    assert [(l["chart"], l["sing"]) for l in trace["leaves"]] == [
        ("0.1x", "empty"),
        ("0.1y", "empty"),
    ]


def test_higher_cusp_two_blowups() -> None:
    trace = resolve(QQ, XY, A(("x^2 + y^5", 2)))
    assert step_summary(trace) == [
        (0, "0", "1,0;5/2,0", "Point", ("x", "y")),
        (1, "0.1y", "1,0;3/2,0", "Point", ("x", "y")),
    ]
    assert all(l["sing"] == "empty" for l in trace["leaves"])


def test_umbrella_five_blowups() -> None:
    trace = resolve(QQ, XYZ, A(("x^2 - y^2*z", 2), variables=XYZ))
    assert trace["status"] == "resolved"
    assert step_summary(trace) == [
        (0, "0", "1,0;3/2,0;1,0", "Point", ("x", "y", "z")),
        (1, "0.1z", "1,0;1,1;1,0", "Point", ("x", "y", "z")),
        (2, "0.1z.2z", "1,0;1,0;0,0", "Point", ("x", "y")),
        (3, "0.1z.2y", "1,0;0,2", "M(p=2,s=1,(1, 2))", ("x", "y", "z")),
        (4, "0.1y", "1,0;0,1", "M(p=2,s=1,(1,))", ("x", "y", "z")),
    ]
    assert all(l["sing"] == "empty" for l in trace["leaves"])


def test_crossing_pair_with_smooth_member() -> None:
    """x*y and z together: four waves of tied sibling charts, eleven blowups."""
    trace = resolve(
        QQ, XYZ, A(("x*y", 1), ("z", 1), variables=XYZ)
    )
    assert trace["status"] == "resolved"
    assert step_summary(trace) == [
        (0, "0", "1,0;2,0;1,0", "Point", ("x", "y", "z")),
        (1, "0.1x", "1,0;1,1;1,0", "Point", ("x", "y", "z")),
        (1, "0.1y", "1,0;1,1;1,0", "Point", ("x", "y", "z")),
        (2, "0.1x.2x", "1,0;1,0;0,0", "Point", ("y", "z")),
        (2, "0.1y.2y", "1,0;1,0;0,0", "Point", ("x", "z")),
        (3, "0.1x.2y", "1,0;0,2", "M(p=1,s=1,(1,))", ("x", "z")),
        (3, "0.1y.2x", "1,0;0,2", "M(p=1,s=1,(1,))", ("y", "z")),
        (4, "0.1x.2x.3y", "1,0;0,2", "M(p=1,s=1,(2,))", ("x", "z")),
        (4, "0.1y.2y.3x", "1,0;0,2", "M(p=1,s=1,(2,))", ("y", "z")),
        (5, "0.1x.2y.4x", "1,0;0,1", "M(p=1,s=1,(2,))", ("y", "z")),
        (5, "0.1y.2x.4y", "1,0;0,1", "M(p=1,s=1,(2,))", ("x", "z")),
    ]
    assert all(l["sing"] == "empty" for l in trace["leaves"])
    # the chart where the smooth member becomes a unit is immediately clean
    assert any(l["chart"] == "0.1z" for l in trace["leaves"])


def test_monomial_case_with_declared_divisors() -> None:
    divisors = (DivisorRecord("x", 1), DivisorRecord("y", 2))
    trace = resolve(QQ, XY, A(("x^2*y^3", 2)), divisors)
    assert trace["start_step"] == 2
    assert step_summary(trace) == [
        (2, "0", "0,2", "M(p=1,s=3/2,(2,))", ("y",)),
        (3, "0.3y", "0,1", "M(p=1,s=1,(1,))", ("x",)),
    ]
    assert [l["chart"] for l in trace["leaves"]] == ["0.3y.4x"]
    assert trace["leaves"][0]["sing"] == "empty"


def test_line_with_triple_point() -> None:
    alg = QReesAlgebra(QQ, ("x",), ((parse_polynomial("x^3", QQ, ("x",)), Fraction(1)),))
    trace = resolve(QQ, ("x",), alg)
    assert step_summary(trace) == [
        (0, "0", "3,0", "Point", ("x",)),
        (1, "0.1x", "2,0", "Point", ("x",)),
        (2, "0.1x.2x", "1,0", "Point", ("x",)),
    ]
    assert trace["leaves"][0]["sing"] == "empty"


# -- the point on a line ------------------------------------------------------
#
# Test-only oracle: the earlier reading of a line's deepest stratum, which took
# the square-free part of the generator (characteristic zero only) by Euclid's
# algorithm and then asked for degree one.


def _squarefree_univariate(g: Polynomial, u: str) -> Polynomial:
    """Reduce a univariate polynomial to its square-free part (char 0)."""
    deg = g.degree_in(u)
    if deg <= 1:
        return g
    derivative = g.hasse_derivative(tuple(1 if v == u else 0 for v in g.variables))
    gcd = _poly_gcd_univariate(g, derivative, u)
    if gcd.degree_in(u) == 0:
        return g
    quotient, rem = _poly_divmod_univariate(g, gcd, u)
    assert rem.is_zero()
    return quotient


def _poly_gcd_univariate(a: Polynomial, b: Polynomial, u: str) -> Polynomial:
    while not b.is_zero():
        _, r = _poly_divmod_univariate(a, b, u)
        a, b = b, r
    return a


def _poly_divmod_univariate(
    a: Polynomial, b: Polynomial, u: str
) -> tuple[Polynomial, Polynomial]:
    field = a.field
    ring = a.variables
    if b.is_zero():
        raise ZeroDivisionError("univariate division by zero")
    quotient = Polynomial.zero(field, ring)
    remainder = a
    db = b.degree_in(u)
    lead_b = b.coefficient_in_var(u, db).constant_value()
    while not remainder.is_zero() and remainder.degree_in(u) >= db:
        dr = remainder.degree_in(u)
        lead_r = remainder.coefficient_in_var(u, dr).constant_value()
        c = field.mul(lead_r, inverse(field, lead_b))
        mono = Polynomial(field, ring, {tuple(dr - db if v == u else 0 for v in ring): c})
        quotient = quotient + mono
        remainder = remainder - mono * b
    return quotient, remainder


def _oracle_point(g: Polynomial, u: str) -> Polynomial | None:
    """The root as a constant polynomial, or None for "not a rational point"."""
    field = g.field
    g = _squarefree_univariate(g, u)
    if g.degree_in(u) != 1:
        return None
    lead = g.coefficient_in_var(u, 1).constant_value()
    return g.coefficient_in_var(u, 0).scale(field.neg(inverse(field, lead)))


def _read_point(g: Polynomial, u: str) -> Polynomial | None:
    """The driver's reading of the stratum (g) on the line, through its
    reduced basis as in the driver."""
    driver = importlib.import_module("qrees.resolve")
    monic = Ideal(g.field, g.variables, [g]).basis()[0]
    try:
        return driver._line_point(monic, u)
    except ChartSplitRequired as exc:
        assert str(exc) == "the deepest stratum is not a single rational point"
        return None


def test_line_point_matches_squarefree_oracle() -> None:
    ring = ("u",)
    u = Polynomial.variable(QQ, ring, "u")
    roots = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)]
    irreducible = [None, None, P("u^2 + 1", ring), P("u^2 - 2", ring)]
    rng = random.Random(6)
    read = 0
    for _ in range(300):
        g = Polynomial.constant(QQ, ring, rng.choice([1, -1, 2, -3, Fraction(1, 2)]))
        for r in rng.sample(roots, rng.choice([0, 1, 1, 1, 2, 3])):
            g = g * (u - Polynomial.constant(QQ, ring, r)) ** rng.randint(1, 4)
        extra = rng.choice(irreducible)
        if extra is not None:
            g = g * extra
        expected = _oracle_point(g, "u")
        assert _read_point(g, "u") == expected, g
        read += expected is not None
    assert 50 < read < 250  # both verdicts are well exercised


def undivided_root_chart(field, variables, algebra):
    """root_chart with no divisors, where every entry point makes its checks."""
    return root_chart(field, variables, algebra, ())


def analyze_root(field, variables, algebra):
    """analyze_chart on the chart "0" with algebra as its whole tower."""
    return analyze_chart(Chart("0", field, variables), (LevelState(algebra),), 0)


@pytest.mark.parametrize("query", [resolve, fc_at_point, max_locus_fc, undivided_root_chart])
def test_entry_points_reject_positive_characteristic(query) -> None:
    # the driver reads lines and maximal contact as in characteristic zero,
    # so over F_3 even the line x^2 is refused before it is read
    F3 = FieldSpec(3)
    line = QReesAlgebra(F3, ("x",), ((parse_polynomial("x^2", F3, ("x",)), Fraction(1)),))
    with rejected("resolution is only implemented in characteristic zero", UnsupportedCharacteristic):
        query(F3, ("x",), line)


def test_hyperplane_gives_zero_coefficient_terminator() -> None:
    trace = resolve(QQ, XY, A(("x", 1)))
    assert step_summary(trace) == [
        (0, "0", "1,0", "ZeroCoeff", ("x",)),
    ]
    assert [l["chart"] for l in trace["leaves"]] == ["0.1x"]


def test_resolve_rejects_zero_algebra_and_char_p() -> None:
    with rejected("cannot resolve the zero algebra"):
        resolve(QQ, XY, QReesAlgebra(QQ, XY, ()))
    F2 = FieldSpec(2)
    alg = QReesAlgebra(F2, XY, ((parse_polynomial("x", F2, XY), Fraction(1)),))
    with rejected("resolution is only implemented in characteristic zero", UnsupportedCharacteristic):
        resolve(F2, XY, alg)


@pytest.mark.parametrize("query", [resolve, fc_at_point, max_locus_fc])
@pytest.mark.parametrize(
    "divisors, message",
    [
        ((DivisorRecord("z", 1),), "divisor variable z is not a chart variable"),
        ((DivisorRecord("x", 1), DivisorRecord("x", 2)), "divisor variable x declared twice"),
    ],
    ids=["unknown-variable", "declared-twice"],
)
def test_entry_points_reject_bad_divisors(query, divisors, message: str) -> None:
    with rejected(message):
        query(QQ, XY, A(("x^2 + y^3", 2)), divisors)


@pytest.mark.parametrize("point", [(0,), (0, 0, 0)], ids=["short", "long"])
def test_fc_at_point_rejects_point_of_wrong_length(point) -> None:
    with rejected("point has the wrong number of coordinates"):
        fc_at_point(QQ, XY, A(("x^2 + y^3", 2)), point=point)


def test_fc_at_point_rejects_point_that_is_not_rational() -> None:
    with rejected("point ('a', 0) has a coordinate that is not rational"):
        fc_at_point(QQ, XY, A(("x^2 + y^3", 2)), point=("a", 0))


@pytest.mark.parametrize("point", ["01", b"01"], ids=["str", "bytes"])
def test_fc_at_point_rejects_text_and_bytes_points(point) -> None:
    # read one character at a time, b"01" would be the point (48, 49)
    with rejected(f"point {point!r} is not a sequence of coordinates"):
        fc_at_point(QQ, XY, A(("x^2 + (y - 1)^3", 2)), point=point)


@pytest.mark.parametrize("query", [fc_at_point, max_locus_fc, analyze_root])
def test_queries_reject_zero_algebra_up_front(query) -> None:
    with rejected("the zero algebra has no finite invariant"):
        query(QQ, XY, QReesAlgebra(QQ, XY, ()))


@pytest.mark.parametrize(
    "query",
    [
        resolve,
        fc_at_point,
        # the shift z -> z + 1 cannot even be written on the algebra's ring
        lambda *args: fc_at_point(*args, point=(0, 0, 1)),
        max_locus_fc,
    ],
    ids=["resolve", "fc_at_point", "fc_at_point-shifted", "max_locus_fc"],
)
def test_entry_points_reject_algebra_on_another_ring(query) -> None:
    with rejected("algebra lives in Q[x, y], not in Q[x, y, z]"):
        query(QQ, XYZ, A(("x^2 + y^3", 2)))


@pytest.mark.parametrize("query", [resolve, fc_at_point, max_locus_fc])
def test_entry_points_reject_algebra_over_another_field(query) -> None:
    F3 = FieldSpec(3)
    over_f3 = QReesAlgebra(F3, XY, ((parse_polynomial("x^2 + y^3", F3, XY), Fraction(2)),))
    with rejected("algebra lives in F_3[x, y], not in Q[x, y]"):
        query(QQ, XY, over_f3)


def test_chart_split_names_chart_and_step() -> None:
    alg = A(("x^2 + y^3 + z^5", 2), variables=XYZ)
    with pytest.raises(ChartSplitRequired, match=r"^chart 0\.1z\.2y\.3z\.4y at step 4: "):
        resolve(QQ, XYZ, alg)


def test_shift_never_moves_a_divisor() -> None:
    # the singular point sits at y = 1, off the divisor y = 0; reaching it
    # needs y -> y + 1, which would drag the divisor along
    alg = A(("x^2 + (y - 1)^3", 2))
    with pytest.raises(ChartSplitRequired):
        resolve(QQ, XY, alg, (DivisorRecord("y", 1),))


def test_contact_shift_is_recorded_on_the_leaf() -> None:
    # maximal contact at the root is x - y^2: the analysis shifts x and
    # keeps the change on the leaf, leaving the chart it was given alone
    problem = parse_problem(PROBLEMS["shift-contact"])
    alg = problem.algebra()
    start, chart = root_chart(problem.field, problem.variables, alg, problem.divisors)
    leaf = analyze_chart(chart, (LevelState(alg),), start)
    assert leaf.chart is chart
    assert leaf.changes == (("x", "y^2 + x"),)


TWO_LOCI = (
    "field Q\nchart x y z\ngen x^2 : 2\ngen (y + z - 1)^2 : 2\n"
    "divisor y created 1\ndivisor z created 1\n"
)


def test_maximal_divisor_contact_on_two_loci() -> None:
    # the stratum x = 0, y + z = 1 meets each divisor, y = 0 at (0, 0, 1) and
    # z = 0 at (0, 1, 0), but not both: two one-divisor loci tie
    problem = parse_problem(TWO_LOCI)
    args = (problem.field, problem.variables, problem.algebra(), problem.divisors)
    message = "maximal divisor contact is attained on several distinct loci"
    with pytest.raises(ChartSplitRequired, match=f"^chart 0 at step 1: {message}$"):
        resolve(*args)
    with pytest.raises(ChartSplitRequired, match=f"^{message}$"):
        max_locus_fc(*args)
    value = fc_at_point(*args, point=(0, 0, 1))
    assert str(value) == "[(1, 1), (1, 0), (1, 0)] · Point"


LINE_OFF_DIVISOR = "field Q\nchart x\ngen (x - 1)^2 : 2\ndivisor x created 1\n"


def test_line_at_level_zero_keeps_its_divisor() -> None:
    # the chart is a line and its point x = 1 lies off the divisor x = 0;
    # recentering there would drag the divisor along
    problem = parse_problem(LINE_OFF_DIVISOR)
    args = (problem.field, problem.variables, problem.algebra(), problem.divisors)
    message = "the deepest point left the divisor's coordinate hyperplane"
    with pytest.raises(ChartSplitRequired, match=f"^chart 0 at step 1: {message}$"):
        resolve(*args)
    with pytest.raises(ChartSplitRequired, match=f"^{message}$"):
        max_locus_fc(*args)
    assert str(fc_at_point(*args, point=(1,))) == "[(1, 0)] · Point"


def test_resolve_nonsingular_input_is_immediate() -> None:
    trace = resolve(QQ, XY, A(("x", 2)))
    assert trace["steps"] == []
    assert trace["leaves"][0]["sing"] == "empty"


def test_negative_step_budget_rejected() -> None:
    with rejected("max_steps must be at least 0, got -1"):
        resolve(QQ, XY, A(("x^2 + y^3", 2)), max_steps=-1)


def test_max_steps_budget() -> None:
    with pytest.raises(NotTerminated) as info:
        resolve(QQ, XYZ, A(("x^2 - y^2*z", 2), variables=XYZ), max_steps=2)
    assert info.value.trace is not None
    assert info.value.trace["status"] == "not-terminated"


def test_invariant_not_decreasing_is_typed(monkeypatch) -> None:
    """Every chart after the root is made to repeat the root's invariant, so
    the second step's maximum equals the first: the driver raises the typed
    error with the trace of the first step."""
    driver = importlib.import_module("qrees.resolve")
    analyze = driver.analyze_chart
    roots = []

    def repeat_root(chart, tower, step):
        leaf = analyze(chart, tower, step)
        if not roots:
            roots.append(leaf)
            return leaf
        return Leaf(leaf.chart, leaf.tower, roots[0].value, leaf.center_vars, leaf.changes)

    monkeypatch.setattr(driver, "analyze_chart", repeat_root)
    with pytest.raises(InvariantNotDecreasing, match="failed to decrease") as info:
        resolve(QQ, XY, A(("x^2 + y^3", 2)))
    assert qrees.InvariantNotDecreasing is InvariantNotDecreasing
    assert info.value.exit_code == 7
    trace = info.value.trace
    assert trace["status"] == "not-decreasing"
    assert [s["chart"] for s in trace["steps"]] == ["0"]
    root_fc = roots[0].value.to_json()
    assert trace["leaves"] and all(lf["fc"] == root_fc for lf in trace["leaves"])


@pytest.mark.xfail(
    strict=True,
    raises=InvariantNotDecreasing,
    reason="ROADMAP item 2: the ceiling transform of a weight-3/2 generator "
    "keeps the maximum from dropping",
)
@pytest.mark.parametrize(
    "gens, variables",
    [((("x^4", "3/2"), ("y^3", 1)), XY), ((("-x*y^3*z^3", "3/2"), ("z^2", 1)), XYZ)],
    ids=["x4-y3", "xy3z3-z2"],
)
def test_two_generators_with_weight_3_2_resolve(gens, variables) -> None:
    # both fail to decrease at step 2; the integer-graded transform, (f : 3/2)
    # divided as (f^2 : 3), resolves them in 10 and 2 driver steps
    assert resolve(QQ, variables, A(*gens, variables=variables))["status"] == "resolved"


# -- pointwise invariants -------------------------------------------------------


def test_fc_at_point_umbrella_profile() -> None:
    alg = A(("x^2 - y^2*z", 2), variables=XYZ)
    pinch = fc_at_point(QQ, XYZ, alg, point=(0, 0, 0))
    crossing = fc_at_point(QQ, XYZ, alg, point=(0, 0, 1))
    smooth = fc_at_point(QQ, XYZ, alg, point=(1, 1, 1))
    assert str(pinch) == "[(1, 0), (3/2, 0), (1, 0)] · Point"
    assert str(crossing) == "[(1, 0), (1, 0)] · ZeroCoeff"
    assert smooth == non_singular_value()
    assert pinch > crossing > smooth


def test_fc_at_point_cusp() -> None:
    alg = A(("x^2 + y^3", 2))
    origin = fc_at_point(QQ, XY, alg)
    assert str(origin) == "[(1, 0), (3/2, 0)] · Point"
    assert fc_at_point(QQ, XY, alg, point=(1, -1)) == non_singular_value()


def test_fc_at_point_counts_divisors_through_point() -> None:
    divisors = (DivisorRecord("x", 1), DivisorRecord("y", 2))
    alg = A(("x^2*y^3", 2))
    at_origin = fc_at_point(QQ, XY, alg, divisors, point=(0, 0))
    doc = at_origin.to_json()
    assert doc["levels"] == [["0", 2]]
    # at (0, 1) only the x divisor passes through the point; stripping it
    # leaves a unit, so the level reads omega 0 with a single old divisor
    elsewhere = fc_at_point(QQ, XY, alg, divisors, point=(0, 1))
    doc = elsewhere.to_json()
    assert doc["levels"] == [["0", 1]]
    assert doc["terminator"]["monomial"]["indices"] == [1]
    assert at_origin > elsewhere


def test_max_locus_fc_umbrella() -> None:
    alg = A(("x^2 - y^2*z", 2), variables=XYZ)
    value, locus = max_locus_fc(QQ, XYZ, alg)
    assert str(value) == "[(1, 0), (3/2, 0), (1, 0)] · Point"
    assert len(locus.components) == 1
    assert len(locus.components[0].basis()) == 3  # the origin


def test_trace_records_substitutions_and_divisors() -> None:
    trace = resolve(QQ, XYZ, A(("x^2 - y^2*z", 2), variables=XYZ))
    step1 = [s for s in trace["steps"] if s["chart"] == "0.1z"][0]
    assert step1["parent"] == "0"
    assert ("x", "x*z") in [tuple(e) for e in step1["substitution"]]
    divisor_vars = [d["var"] for d in step1["divisors"]]
    assert divisor_vars == ["z"]
    assert step1["divisors"][0]["created"] == 1
    assert "ell" in step1["divisors"][0]


# -- one Groebner basis per distinct ideal and run --------------------------------


def basis_inputs(gb_calls: list) -> list:
    """The (order, generator set) of each recorded groebner_basis call."""
    return [(order, frozenset(gens)) for gens, order in gb_calls]


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_resolve_computes_each_basis_once(name: str, gb_calls: list) -> None:
    trace_text(PROBLEMS[name], STEP_BUDGET.get(name, 50))
    inputs = basis_inputs(gb_calls)
    assert inputs and len(set(inputs)) == len(inputs)


def test_resolve_runs_share_nothing(gb_calls: list) -> None:
    alg = A(("x^2 - y^2*z", 2), variables=XYZ)
    resolve(QQ, XYZ, alg)
    first = len(gb_calls)
    resolve(QQ, XYZ, alg)
    assert first and len(gb_calls) == 2 * first


@pytest.mark.parametrize(
    "text, variables, max_steps, error",
    [
        ("x^2 - y^2*z^3", XYZ, 1, NotTerminated),
        ("(y^2 - x^3)*(x - 1)", XY, 50, ChartSplitRequired),
    ],
)
def test_failed_resolve_leaves_no_shared_bases(
    text, variables, max_steps, error, gb_calls, hasse_inputs
) -> None:
    """A table left behind by the failed run would hand the second of two
    equal ideals the first one's basis, and the second of two equal
    algebras the first one's Hasse rows."""
    with pytest.raises(error):
        resolve(QQ, variables, A((text, 2), variables=variables), max_steps=max_steps)
    gb_calls.clear()
    hasse_inputs.clear()
    for _ in range(2):
        assert not Ideal(QQ, XY, [P("x^2 + y^3 - 1"), P("x*y")]).is_unit()
        A(("x^2 + y^3 - 1", 2)).sing_ideal()
    assert len(gb_calls) == 2
    assert hasse_inputs and len(hasse_inputs) == 2 * len(set(hasse_inputs))


def _query_nu() -> None:
    nu(A(("x^2 + y^3", 2)), P("x*y"), cap=2)


def _query_nu_bar() -> None:
    nu_bar_estimate(A(("x^2 + y^3", 2)), P("x*y"), n_max=2, cap=2)


def _query_equivalence() -> None:
    alg = A(("x^2 + y^3", 2))
    equivalence_check(alg, diff_saturate(alg), n_max=2, cap=2)


def _query_membership() -> None:
    f3 = FieldSpec(3)
    x2y2 = parse_polynomial("x^2 + y^2", f3, XY)
    alg = QReesAlgebra(f3, XY, ((x2y2, Fraction(2)),))
    is_integral_member(alg, parse_polynomial("x*y", f3, XY), 1, n_max=2, cap=2)


@pytest.mark.parametrize(
    "query", [_query_nu, _query_nu_bar, _query_membership, _query_equivalence]
)
def test_query_computes_each_basis_once(query, gb_calls: list) -> None:
    """A search over levels, over powers or over both inclusions meets equal
    level ideals and computes their basis once."""
    query()
    inputs = basis_inputs(gb_calls)
    assert inputs and len(set(inputs)) == len(inputs)


# -- one Hasse derivative per distinct (polynomial, alpha) and run ------------------


@pytest.fixture
def hasse_inputs(monkeypatch) -> list:
    """The (polynomial, alpha) of every Polynomial.hasse_derivative call, in order."""
    return record_calls(monkeypatch, Polynomial, "hasse_derivative")


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_resolve_takes_each_hasse_derivative_once(name: str, hasse_inputs: list) -> None:
    trace_text(PROBLEMS[name], STEP_BUDGET.get(name, 50))
    assert hasse_inputs
    assert len(set(hasse_inputs)) == len(hasse_inputs)


def test_resolve_runs_share_no_hasse_rows(hasse_inputs: list) -> None:
    alg = A(("x^2 - y^2*z", 2), variables=XYZ)
    resolve(QQ, XYZ, alg)
    first = len(hasse_inputs)
    resolve(QQ, XYZ, alg)
    assert first and len(hasse_inputs) == 2 * first


def test_max_order_within_shares_rows_for_the_call_only(hasse_inputs: list) -> None:
    """Outside a run, the candidates of one call share rows, and the next call
    builds them afresh."""
    alg = A(("x^2 + y^5", 1), ("y^6", 2))
    inside = Ideal.zero(QQ, XY)
    # the candidates 3 and 5/2 hold D^(2,0) of x^2 + y^5, the unit 1; 2 is met
    assert alg.max_order_within(inside)[0] == 2
    first = len(hasse_inputs)
    assert first and len(set(hasse_inputs)) == first
    alg.max_order_within(inside)
    assert len(hasse_inputs) == 2 * first


def test_max_order_within_builds_bases_only_above_the_order_at_the_origin(
    gb_calls: list, hasse_inputs: list
) -> None:
    """The candidates 1/2, 1, 3/2 and 2 lie at or below the order 2 at the
    origin, so they are met with no basis; 5/2 is the first and only
    candidate tested, its basis is the unit ideal, and the scan stops there
    without forming a row that 5/2 does not take."""
    alg = A(("x^2 + y^5", 1), ("y^6", 2))
    omega, stratum = alg.max_order_within(Ideal.zero(QQ, XY))
    taken = list(hasse_inputs)
    assert omega == 2
    assert stratum.generators == alg.order_ge_ideal(2).generators
    tested = frozenset(alg.order_ge_ideal(Fraction(5, 2)).generators)
    assert basis_inputs(gb_calls) == [(MonomialOrder.grevlex(XY), tested)]
    weights = dict(alg.generators)
    assert taken
    assert all(sum(alpha) < math.ceil(weights[f] * Fraction(5, 2)) for f, alpha in taken)


def test_max_order_within_builds_each_stratum_once(monkeypatch) -> None:
    """One Ideal for the certified order 2 and one for the tested 5/2, and
    no other Ideal: each stratum is built once, straight from its Hasse
    rows."""
    alg = A(("x^2 + y^5", 1), ("y^6", 2))
    inside = Ideal.zero(QQ, XY)
    built = record_calls(monkeypatch, Ideal, "__init__")
    omega, stratum = alg.max_order_within(inside)
    assert omega == 2
    assert [ideal.generators for ideal, *_ in built] == [stratum.generators, tuple(alg._hasse_gens(0, Fraction(5, 2)))]
