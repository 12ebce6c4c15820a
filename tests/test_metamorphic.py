"""Metamorphic checks: a resolution must not depend on the coordinates.

The invariant is intrinsic, so a change of coordinates that keeps every
declared divisor where it is leaves the resolution's shape alone: the status,
each step's invariant, center size and child count, and the number of
leaves.  The inputs are every trace golden of ``test_golden_traces.py`` and
every ``classic.json`` input that resolves.  Translating one chart variable
that is not a declared divisor, by +1 and by -2, moves the singular points
off the origin, so the driver has to recenter through its shifts.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from qrees.errors import NotTerminated
from qrees.problem import parse_problem
from qrees.resolve import resolve
from test_golden_traces import GOLDEN, PROBLEMS, STEP_BUDGET

TRANSLATIONS = (Fraction(1), Fraction(-2))

INPUTS = {name: (text, STEP_BUDGET.get(name, 50)) for name, text in PROBLEMS.items()} | {
    row["name"]: (row["text"], 50)
    for row in json.loads((GOLDEN / "classic.json").read_text())
    if row.get("status") == "resolved"
}


def shape(trace: dict) -> tuple:
    """The status, each step's invariant, center size and child count, and
    the leaf count."""
    steps = [(s["fc"], len(s["center"]), len(s["children"])) for s in trace["steps"]]
    return trace["status"], steps, len(trace["leaves"])


def resolved_shape(problem, max_steps: int, shift: dict) -> tuple:
    """The shape of resolving the problem's algebra after the translation
    shift; a run cut by its step budget gives the shape of its partial
    trace."""
    algebra = problem.algebra().shift(shift)
    try:
        trace = resolve(
            problem.field, problem.variables, algebra, problem.divisors, max_steps=max_steps
        )
    except NotTerminated as exc:
        trace = exc.trace
    return shape(trace)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_translation_does_not_move_the_resolution(name: str) -> None:
    text, max_steps = INPUTS[name]
    problem = parse_problem(text)
    expected = resolved_shape(problem, max_steps, {})
    divisors = {d.var for d in problem.divisors}
    moved = [
        (v, c)
        for v in problem.variables
        if v not in divisors
        for c in TRANSLATIONS
        if resolved_shape(problem, max_steps, {v: c}) != expected
    ]
    assert not moved, moved
