"""Metamorphic checks: a resolution must not depend on the coordinates or on
the presentation of its algebra.

The invariant is intrinsic, so a change of coordinates that keeps every
declared divisor where it is leaves the resolution's shape alone: the status,
each step's invariant, center size and child count, and the number of
leaves.  So does an equivalent presentation of the algebra.  The inputs are
every trace golden of ``test_golden_traces.py`` and every ``classic.json``
input that resolves.  The rewrites:

- translating one chart variable that is not a declared divisor, by +1 and
  by -2, moves the singular points off the origin, so the driver has to
  recenter through its shifts;
- every other ordering of the chart variables, made by re-parsing the
  problem with its ``chart`` line permuted; divisors keep their names;
- scaling one chart variable by 2 and by -1/3, divisors included, since a
  scaled divisor stays on its hyperplane;
- replacing every ``(f : a)`` by ``(f^2 : 2a)``.

The presentation rewrite also runs on the inputs of ``sweep_inputs(2, 200)``
that it is known to move, as strict expected failures.  Four sweep inputs
take over 5 s each when squared and are left out of this module: seed 1
inputs 1 and 53, seed 2 inputs 30 and 42.

The pointwise check reads the root's first blowup: at sample points of its
center, ``fc_at_point`` must equal the step's invariant.
"""

from __future__ import annotations

import itertools
import json
import re
from fractions import Fraction

import pytest

from qrees.algebra import QReesAlgebra
from qrees.errors import NotTerminated
from qrees.poly import Polynomial
from qrees.problem import parse_problem
from qrees.resolve import fc_at_point, resolve
from test_golden_traces import GOLDEN, PROBLEMS, STEP_BUDGET, sweep_inputs

TRANSLATIONS = (Fraction(1), Fraction(-2))
SCALES = (Fraction(2), Fraction(-1, 3))
# the free coordinates of the sample points on a center
SAMPLES = (0, 1, -2)

INPUTS = {name: (text, STEP_BUDGET.get(name, 50)) for name, text in PROBLEMS.items()} | {
    row["name"]: (row["text"], 50)
    for row in json.loads((GOLDEN / "classic.json").read_text())
    if row.get("status") == "resolved"
}

ITEM_2 = (
    "ROADMAP item 2: the transform divides (f, a) by x^ceil(a), which for a "
    "fractional weight depends on the generators chosen"
)
ITEM_3 = (
    "ROADMAP item 3: resolves as (f : 3), but as (f^2 : 6) ends in "
    '"no triangular maximal contact"'
)
SQUARE_DEFECTS = {10: ITEM_2, 15: ITEM_2, 69: ITEM_2, 96: ITEM_2, 110: ITEM_3, 119: ITEM_2}

# inputs whose root recenters before its first blowup, so that the step's
# center lives in shifted coordinates
RECENTERED = {"shift-by-divisor", "shift-contact", "shift-line"}


def shape(trace: dict) -> tuple:
    """The status, each step's invariant, center size and child count, and
    the leaf count."""
    steps = [(s["fc"], len(s["center"]), len(s["children"])) for s in trace["steps"]]
    return trace["status"], steps, len(trace["leaves"])


def traced(problem, max_steps: int, algebra: QReesAlgebra | None = None) -> dict:
    """The trace of resolving algebra, the problem's own by default, on the
    problem's chart; a run cut by its step budget gives its partial trace."""
    algebra = problem.algebra() if algebra is None else algebra
    try:
        return resolve(
            problem.field, problem.variables, algebra, problem.divisors, max_steps=max_steps
        )
    except NotTerminated as exc:
        return exc.trace


def resolved_shape(problem, max_steps: int, algebra: QReesAlgebra | None = None) -> tuple:
    return shape(traced(problem, max_steps, algebra))


def rebuilt(algebra: QReesAlgebra, rewrite) -> QReesAlgebra:
    """The algebra of rewrite(f, a) over every generator (f, a)."""
    return QReesAlgebra(
        algebra.field, algebra.variables, tuple(rewrite(f, a) for f, a in algebra.generators)
    )


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_translation_does_not_move_the_resolution(name: str) -> None:
    text, max_steps = INPUTS[name]
    problem = parse_problem(text)
    expected = resolved_shape(problem, max_steps)
    divisors = {d.var for d in problem.divisors}
    moved = [
        (v, c)
        for v in problem.variables
        if v not in divisors
        for c in TRANSLATIONS
        if resolved_shape(problem, max_steps, problem.algebra().shift({v: c})) != expected
    ]
    assert not moved, moved


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_permutation_does_not_move_the_resolution(name: str) -> None:
    text, max_steps = INPUTS[name]
    problem = parse_problem(text)
    expected = resolved_shape(problem, max_steps)
    moved = []
    for order in itertools.permutations(problem.variables):
        if order == problem.variables:
            continue
        permuted = parse_problem(re.sub(r"^chart .*$", "chart " + " ".join(order), text, flags=re.M))
        if resolved_shape(permuted, max_steps) != expected:
            moved.append(order)
    assert not moved, moved


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_scaling_does_not_move_the_resolution(name: str) -> None:
    text, max_steps = INPUTS[name]
    problem = parse_problem(text)
    expected = resolved_shape(problem, max_steps)
    moved = []
    for v, c in itertools.product(problem.variables, SCALES):
        image = {v: Polynomial.variable(problem.field, problem.variables, v).scale(c)}
        scaled = rebuilt(problem.algebra(), lambda f, a: (f.substitute(image), a))
        if resolved_shape(problem, max_steps, scaled) != expected:
            moved.append((v, c))
    assert not moved, moved


SWEEP_2 = sweep_inputs(2, 200)
SQUARED = [pytest.param(text, steps, id=name) for name, (text, steps) in sorted(INPUTS.items())] + [
    pytest.param(
        SWEEP_2[i], 50, id=f"sweep-2-{i}", marks=pytest.mark.xfail(strict=True, reason=reason)
    )
    for i, reason in SQUARE_DEFECTS.items()
]


@pytest.mark.parametrize("text, max_steps", SQUARED)
def test_squaring_the_generators_does_not_move_the_resolution(text: str, max_steps: int) -> None:
    problem = parse_problem(text)
    squared = rebuilt(problem.algebra(), lambda f, a: (f * f, 2 * a))
    assert resolved_shape(problem, max_steps, squared) == resolved_shape(problem, max_steps)


MONOMIAL_CENTER = (
    "the divisor phase refines the stratum to V(x, y), but _monomial_center "
    "picks V(y) from the winners without that refinement: at (1, 0) and "
    "(-2, 0) only y passes, and fc_at_point reads [(0, 1)]"
)
POINTWISE = [
    pytest.param(
        name,
        marks=[pytest.mark.xfail(strict=True, reason=MONOMIAL_CENTER)] if name == "monomial" else [],
    )
    for name in sorted(set(INPUTS) - RECENTERED)
]


@pytest.mark.parametrize("name", POINTWISE)
def test_first_center_attains_the_step_invariant_pointwise(name: str) -> None:
    """At every point of the root's first center whose free coordinates come
    from SAMPLES, the invariant of a fresh run equals the step's."""
    text, max_steps = INPUTS[name]
    problem = parse_problem(text)
    first = traced(problem, max_steps)["steps"][0]
    assert not first["changes"]
    free = [v for v in problem.variables if v not in first["center"]]
    differ = []
    for values in itertools.product(SAMPLES, repeat=len(free)):
        at = dict(zip(free, values))
        point = tuple(at.get(v, 0) for v in problem.variables)
        value = fc_at_point(
            problem.field, problem.variables, problem.algebra(), problem.divisors, point=point
        )
        if value.to_json() != first["fc"]:
            differ.append((point, str(value)))
    assert not differ, differ
