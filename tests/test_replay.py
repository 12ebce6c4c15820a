"""An independent replay of resolution traces: does a trace describe a
resolution of its problem?

The goldens pin traces byte for byte, but only a replay can say that what
they pin is right.  The replayer here uses sympy and the problem text alone
(``^`` becomes ``**``) and shares no code with qrees.  Starting from the
root's generators (f : a), it walks the step records in order:

- **shifts**: the step's ``changes``, in order; each image is already
  ``var + shift``;
- **center**: every derivative of order below ⌈a⌉ of every generator must
  vanish on V(center), so the center lies in the singular locus;
- **blowup**: in each child ``….{k}t``, v -> v*t for each center variable
  v other than t, then a weight p/q is regraded as (f^q : p) and f^q is
  divided by t^p, which must be exact.

Then every leaf marked ``sing: empty`` must be smooth: the derivatives
above generate the unit ideal (``sympy.groebner`` gives ``[1]``).  A leaf's
own shifts are not in the trace, and no shift changes whether the singular
locus is empty.  A replay stops at its first disagreement.

It runs on the golden traces (``repeated-root-line`` by its partial trace),
the resolved rows of ``classic.json``, every resolved input of the outcome
sweep at seeds 1 and 2, and one hand case.  The known disagreements are
strict xfails that name ROADMAP item 2: the driver divides a fractional
weight by x^⌈a⌉, more than the integer grading removes, and marks a
singular leaf smooth.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import pytest

from qrees.problem import parse_problem
from qrees.resolve import DEFAULT_MAX_STEPS, resolve

from test_golden_traces import GOLDEN, PROBLEMS, sweep_inputs

sympy = pytest.importorskip("sympy")
from sympy.polys.polyerrors import ExactQuotientFailed  # noqa: E402
from sympy.polys.rings import ring  # noqa: E402

# the resolved inputs of sweep_inputs(seed, 200) under max_steps=30
SWEEP_RESOLVED = {
    1: (
        3, 4, 14, 16, 25, 26, 27, 39, 48, 54, 64, 65, 67, 69, 85, 93, 100, 104,
        113, 114, 116, 120, 130, 138, 143, 164, 172, 175, 176, 181, 187,
    ),
    2: (
        3, 8, 9, 10, 14, 15, 17, 20, 21, 23, 28, 38, 49, 52, 54, 61, 65, 69, 75,
        76, 84, 86, 96, 99, 100, 110, 115, 119, 122, 127, 128, 134, 137, 151,
        154, 175, 177, 180, 182, 185, 186, 195, 197,
    ),
}
SWEEP_STEPS = 30

# item 2's wrong answers: a leaf marked smooth whose singular locus is not
# empty under the integer-graded transform
ITEM_2 = "ROADMAP item 2: the ceiling transform marks a singular leaf smooth"
KNOWN_WRONG = {
    "hand": "0.1y",
    "sweep-2-15": "0.1y.2x",
    "sweep-2-69": "0.1x",
    "sweep-2-96": "0.1x.2x.3y",
    "sweep-2-119": "0.1x",
}
HAND = "field Q\nchart x y\ngen x^2 : 2\ngen y^4 : 2\ngen y : 1/2\n"


# -- the replayer: sympy and the problem text only ----------------------------


def _parse(R, text: str):
    symbols = {s.name: s for s in R.symbols}
    return R(sympy.parse_expr(text.replace("^", "**"), local_dict=symbols))


def _generators(text: str):
    """The polynomial ring of the chart line and the (f, a) of the gen lines."""
    lines = text.splitlines()
    names = next(line.split()[1:] for line in lines if line.startswith("chart "))
    R, *_ = ring(",".join(names), sympy.QQ)
    gens = []
    for line in lines:
        if line.startswith("gen "):
            poly, weight = line[len("gen "):].rsplit(":", 1)
            gens.append((_parse(R, poly), Fraction(weight)))
    return R, gens


def _derivatives(f, below: int) -> set:
    """f and its partial derivatives of every order below `below`, less 0."""
    layer = {f} if f else set()
    found = set(layer)
    for _ in range(below - 1):
        layer = {d for g in layer for d in (g.diff(v) for v in g.ring.gens) if d}
        found |= layer
    return found


def _sing(gens) -> set:
    return set().union(*(_derivatives(f, math.ceil(a)) for f, a in gens))


def replay(text: str, trace: dict) -> str | None:
    """The first disagreement of the trace with its problem, or None."""
    R, root = _generators(text)
    charts = {"0": root}
    for record in trace["steps"]:
        cid = record["chart"]
        gens = charts.pop(cid)
        for var, image in record["changes"]:
            v = R(sympy.Symbol(var))
            gens = [(f.compose(v, _parse(R, image)), a) for f, a in gens]
        center = [R(sympy.Symbol(v)) for v in record["center"]]
        for d in _sing(gens):
            if d.compose([(v, R.zero) for v in center]):
                return f"chart {cid}: the center {record['center']} leaves the singular locus"
        for child in record["children"]:
            t = R(sympy.Symbol(child.rsplit(".", 1)[1].lstrip("0123456789")))
            moved = [(v, v * t) for v in center if v != t]
            blown = []
            for f, a in gens:
                g = (f.compose(moved) if moved else f) ** a.denominator
                try:
                    blown.append((g.exquo(t**a.numerator), Fraction(a.numerator)))
                except ExactQuotientFailed:
                    return f"chart {child}: {g} is not divisible by {t}^{a.numerator}"
            charts[child] = blown
    for leaf in trace["leaves"]:
        if leaf["sing"] == "empty":
            exprs = [d.as_expr() for d in _sing(charts[leaf["chart"]])]
            if not exprs or list(sympy.groebner(exprs, *R.symbols, order="grevlex")) != [1]:
                return f"leaf {leaf['chart']}: marked smooth, but singular"
    return None


# -- the cases ------------------------------------------------------------------


def _cases() -> list:
    """(id, problem text, golden trace file or None to resolve the text,
    step budget)."""
    cases = [(f"golden-{name}", text, name, None) for name, text in PROBLEMS.items()]
    for row in json.loads((GOLDEN / "classic.json").read_text()):
        if row.get("status") == "resolved":
            cases.append((f"classic-{row['name'].replace(' ', '-')}", row["text"], None, DEFAULT_MAX_STEPS))
    for seed, indices in SWEEP_RESOLVED.items():
        texts = sweep_inputs(seed, 200)
        cases += [(f"sweep-{seed}-{i}", texts[i], None, SWEEP_STEPS) for i in indices]
    cases.append(("hand", HAND, None, DEFAULT_MAX_STEPS))
    return [
        pytest.param(
            *case[1:],
            id=case[0],
            marks=pytest.mark.xfail(strict=True, reason=f"{ITEM_2} ({KNOWN_WRONG[case[0]]})")
            if case[0] in KNOWN_WRONG
            else (),
        )
        for case in cases
    ]


@pytest.mark.parametrize("text, golden, max_steps", _cases())
def test_trace_replays(text: str, golden: str | None, max_steps: int | None) -> None:
    if golden:
        trace = json.loads((GOLDEN / f"{golden}.json").read_text())
    else:
        problem = parse_problem(text)
        trace = resolve(problem.field, problem.variables, problem.algebra(), problem.divisors, max_steps)
        assert trace["status"] == "resolved"
    assert replay(text, trace) is None
