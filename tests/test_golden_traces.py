"""Byte-for-byte guard on resolution traces.

Each file in ``tests/golden/`` holds ``json.dumps(trace)`` of one problem
below.  A performance or refactoring change must leave every trace identical.
The E6 surface ``x^2 + y^3 + z^4 : 2`` is deliberately absent: its run leaks
an internal error, and no golden should pin that.

Regenerate the files (only when a trace change is intended) with:

    PYTHONPATH=src python tests/test_golden_traces.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from qrees.problem import parse_problem
from qrees.resolve import resolve

GOLDEN = Path(__file__).resolve().parent / "golden"

PROBLEMS = {
    # the TERMINATION_RUNS of test_acceptance.py
    "cusp": "field Q\nchart x y\ngen x^2 + y^3 : 2\n",
    "umbrella": "field Q\nchart x y z\ngen x^2 - y^2*z : 2\n",
    "higher-cusp": "field Q\nchart x y\ngen x^2 + y^5 : 2\n",
    "monomial": (
        "field Q\nchart x y\ngen x^2*y^3 : 2\n"
        "divisor x created 1\ndivisor y created 2\n"
    ),
    "crossing-pair": "field Q\nchart x y z\ngen x*y : 1\ngen z : 1\n",
    # slower curves and surfaces
    "x2-y2z3": "field Q\nchart x y z\ngen x^2 - y^2*z^3 : 2\n",
    "x2-y3z2": "field Q\nchart x y z\ngen x^2 - y^3*z^2 : 2\n",
    "x2+y7": "field Q\nchart x y\ngen x^2 + y^7 : 2\n",
    "x3+y5": "field Q\nchart x y\ngen x^3 + y^5 : 3\n",
}


def trace_text(text: str) -> str:
    problem = parse_problem(text)
    trace = resolve(
        problem.field, problem.variables, problem.algebra(), problem.divisors, max_steps=50
    )
    return json.dumps(trace)


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_trace_matches_golden(name: str) -> None:
    expected = (GOLDEN / f"{name}.json").read_text()
    assert trace_text(PROBLEMS[name]) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, text in PROBLEMS.items():
        (GOLDEN / f"{name}.json").write_text(trace_text(text))
        print(f"wrote {name}.json")
