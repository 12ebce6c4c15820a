"""Acceptance gate: one test per criterion, one pass/fail line each under -v.

Criteria summary:
  1. characteristic-2 saturation/elimination/transform golden with locus
     comparisons, under one second
  2. cuspidal curve resolves in one blowup with the expected invariant
  3. redundant generator presentations produce byte-identical traces
  4. property suite over a corpus of at least ten algebras
  5. driver terminates on the named examples with strictly decreasing maxima
  6. triple point on a line: orders 3, 2, 1, then clean
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from itertools import product

from qrees.algebra import QReesAlgebra, algebra_sample_points, format_algebra
from qrees.charts import DivisorRecord, transform_algebra
from qrees.field import QQ, FieldSpec
from qrees.ideal import ClosedSet, Ideal
from qrees.invariant import InvariantValue
from qrees.poly import Infinity, Polynomial, parse_polynomial
from qrees.resolve import resolve
from qrees.saturation import diff_saturate, is_integral_member

from kit import A, P, XY, XYZ


def test_criterion_1_characteristic_two_kernel() -> None:
    started = time.time()
    F2 = FieldSpec(2)
    base = A(("x^2 + y^2*z", 2), variables=XYZ, field=F2)

    sat = diff_saturate(base)
    expected = {
        (P("x^2 + y^2*z", XYZ, F2), Fraction(2)),
        (P("y^2", XYZ, F2), Fraction(1)),
    }
    assert set(sat.generators) == expected

    eliminated = {
        (f, w) for f, w in sat.generators if "x" not in f.support_vars()
    }
    assert eliminated == {(P("y^2", XYZ, F2), Fraction(1))}

    transformed_j = transform_algebra(base, XYZ, "z")
    assert set(transformed_j.generators) == {
        (P("x^2 + y^2*z", XYZ, F2), Fraction(2))
    }
    aux = A(("y^2", 1), variables=XYZ, field=F2)
    transformed_a = transform_algebra(aux, XYZ, "z")
    assert set(transformed_a.generators) == {(P("y^2*z", XYZ, F2), Fraction(1))}

    sing_j = ClosedSet([transformed_j.sing_ideal()])
    sing_a = ClosedSet([transformed_a.sing_ideal()])
    v_xy = ClosedSet([Ideal(F2, XYZ, (P("x", XYZ, F2), P("y", XYZ, F2)))])
    v_y_or_z = ClosedSet(
        [Ideal(F2, XYZ, (P("y", XYZ, F2),)), Ideal(F2, XYZ, (P("z", XYZ, F2),))]
    )
    assert sing_j.same_as(v_xy)
    assert sing_a.same_as(v_y_or_z)
    assert sing_j.subset_of(sing_a) and not sing_a.subset_of(sing_j)

    assert time.time() - started < 1.0


def test_criterion_2_cusp_single_blowup() -> None:
    started = time.time()
    trace = resolve(QQ, XY, A(("x^2 + y^3", 2)))
    assert trace["status"] == "resolved"
    assert len(trace["steps"]) == 1
    step = trace["steps"][0]
    assert step["fc"]["levels"] == [["1", 0], ["3/2", 0]]
    assert step["fc"]["terminator"] == "Point"
    assert step["center"] == ["x", "y"]
    assert all(leaf["sing"] == "empty" for leaf in trace["leaves"])
    assert time.time() - started < 1.0


def test_criterion_3_presentation_independent_traces() -> None:
    for text, variables in (("x^2 + y^3", XY), ("x^2 - y^2*z", XYZ)):
        f = parse_polynomial(text, QQ, variables)
        lean = QReesAlgebra(QQ, variables, ((f, Fraction(2)),))
        fat = QReesAlgebra(QQ, variables, ((f, Fraction(2)), (f, Fraction(1))))
        left = json.dumps(resolve(QQ, variables, lean), indent=2)
        right = json.dumps(resolve(QQ, variables, fat), indent=2)
        assert left == right


CORPUS = [
    A(("x^2 + y^3", 2)),
    A(("x^2 - y^2", 2)),
    A(("x^2 + y^5", 2)),
    A(("x^3", 2)),
    A(("x", 1), ("y", 2)),
    A(("x^2", 1), ("y^2", 1)),
    A(("x*y", 1), ("x + y", 3)),
    A(("x", Fraction(1, 2)), ("y^2 + x", Fraction(3, 2))),
    A(("x^2*y^2", 2)),
    A(("x^2 - y^2*z", 2), variables=XYZ),
    A(("x*y", 1), ("z", 1), variables=XYZ),
    A(("x^3 + y^4", 3)),
    A(("x^2 + y^2*z", 2), variables=XYZ, field=FieldSpec(2)),
    A(("x^3 + y^3", 2), field=FieldSpec(2)),
]


def brute_level_ideal(alg: QReesAlgebra, a: Fraction) -> Ideal:
    if a <= 0:
        return Ideal.unit(alg.field, alg.variables)
    min_w = min(w for _, w in alg.generators)
    bound = int(-(-a // min_w)) + 1
    out = []
    n = len(alg.generators)
    for count in range(1, bound + 1):
        for combo in product(range(n), repeat=count):
            if list(combo) != sorted(combo):
                continue
            if sum(alg.generators[i][1] for i in combo) >= a:
                poly = Polynomial.constant(alg.field, alg.variables, alg.field.one())
                for i in combo:
                    poly = poly * alg.generators[i][0]
                out.append(poly)
    return Ideal(alg.field, alg.variables, tuple(out))


BLOWUP_CASES = [
    (A(("x^2 + y^3", 2)), XY, "y"),
    (A(("x^2 + y^3", 2)), XY, "x"),
    (A(("x^2 + y^5", 2)), XY, "y"),
    (A(("x^3 + y^4", 3)), XY, "x"),
    (A(("x^2 - y^2*z", 2), variables=XYZ), XYZ, "z"),
    (A(("x^2 - y^2*z", 2), variables=XYZ), XYZ, "y"),
    (A(("x^2 + y^2*z", 2), variables=XYZ, field=FieldSpec(2)), XYZ, "z"),
    (A(("x^2 + y^2*z", 2), variables=XYZ, field=FieldSpec(2)), XYZ, "x"),
]


def test_criterion_4_property_suite() -> None:
    started = time.time()
    assert len(CORPUS) >= 10

    # (a) saturation preserves the singular locus up to radical
    for alg in CORPUS:
        a = alg.sing_ideal()
        b = diff_saturate(alg).sing_ideal()
        for g in a.basis():
            assert b.radical_contains(g), format_algebra(alg)
        for g in b.basis():
            assert a.radical_contains(g), format_algebra(alg)

    # (b) saturation preserves orders at singular points and exposes order
    # zero at every other point
    singular_samples = 0
    for alg in CORPUS:
        sat = diff_saturate(alg)
        for pt in algebra_sample_points(alg.variables):
            base = alg.ord_at_point(pt)
            after = sat.ord_at_point(pt)
            if isinstance(base, Infinity):
                continue
            if base >= 1:
                singular_samples += 1
                assert after == base, (format_algebra(alg), pt)
            else:
                assert after == 0, (format_algebra(alg), pt)
    assert singular_samples >= 20

    # (c) rescaling the grading rescales every order
    for alg in CORPUS[:6]:
        for b in (Fraction(1, 2), Fraction(2), Fraction(3, 2)):
            scaled = alg.scale(b)
            for pt in algebra_sample_points(alg.variables)[:8]:
                base = alg.ord_at_point(pt)
                lifted = scaled.ord_at_point(pt)
                if isinstance(base, Infinity):
                    assert isinstance(lifted, Infinity)
                else:
                    assert lifted == b * base

    # (d) after a blowup, the transform of the saturation sits integrally
    # inside the saturation of the transform
    for alg, center, chart_var in BLOWUP_CASES:
        moved_sat = transform_algebra(diff_saturate(alg), center, chart_var)
        sat_moved = diff_saturate(transform_algebra(alg, center, chart_var))
        for g, b in moved_sat.generators:
            verdict = is_integral_member(sat_moved, g, b, 4, Fraction(32))
            assert verdict.holds(), (format_algebra(alg), chart_var, str(g))

    # (e) level ideals match exhaustive enumeration up to weight three
    for alg in CORPUS:
        for num in range(1, 7):
            a = Fraction(num, 2)
            if a > 3:
                break
            assert alg.level_ideal(a).same_as(brute_level_ideal(alg, a)), (
                format_algebra(alg),
                a,
            )

    # (f) divisor multiplicities agree with direct valuations
    for alg in CORPUS:
        for var in alg.variables:
            expected = min(
                (Fraction(f.order_in_vars((var,))) / a for f, a in alg.generators),
                default=None,
            )
            got = alg.order_along((var,))
            assert got == expected, (format_algebra(alg), var)

    assert time.time() - started < 60.0


TERMINATION_RUNS = [
    ("cusp", QQ, XY, A(("x^2 + y^3", 2)), ()),
    ("umbrella", QQ, XYZ, A(("x^2 - y^2*z", 2), variables=XYZ), ()),
    ("higher cusp", QQ, XY, A(("x^2 + y^5", 2)), ()),
    (
        "monomial",
        QQ,
        XY,
        A(("x^2*y^3", 2)),
        (DivisorRecord("x", 1), DivisorRecord("y", 2)),
    ),
    ("crossing pair", QQ, XYZ, A(("x*y", 1), ("z", 1), variables=XYZ), ()),
]


def test_criterion_5_termination_with_decreasing_maxima() -> None:
    for name, field, variables, alg, divisors in TERMINATION_RUNS:
        trace = resolve(field, variables, alg, divisors, max_steps=50)
        assert trace["status"] == "resolved", name
        by_step: dict[int, list[InvariantValue]] = {}
        for s in trace["steps"]:
            by_step.setdefault(s["step"], []).append(InvariantValue.from_json(s["fc"]))
        maxima = []
        for step in sorted(by_step):
            values = by_step[step]
            # every chart blown in one step carries the same maximal value
            assert all(v == values[0] for v in values), name
            maxima.append(values[0])
        assert all(a > b for a, b in zip(maxima, maxima[1:])), name
        assert all(leaf["sing"] == "empty" for leaf in trace["leaves"]), name


def test_criterion_6_triple_point_on_a_line() -> None:
    line = ("x",)
    alg = QReesAlgebra(
        QQ, line, ((parse_polynomial("x^3", QQ, line), Fraction(1)),)
    )
    trace = resolve(QQ, line, alg)
    orders = [Fraction(s["fc"]["levels"][0][0]) for s in trace["steps"]]
    assert orders == [Fraction(3), Fraction(2), Fraction(1)]
    assert trace["leaves"][0]["sing"] == "empty"
