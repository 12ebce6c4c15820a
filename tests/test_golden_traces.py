"""Byte-for-byte guard on resolution traces and invariant queries.

Each file in ``tests/golden/`` holds ``json.dumps(trace)`` of one problem
below, or of the partial trace ``NotTerminated`` carries when the problem has a
step budget in ``STEP_BUDGET``.  A performance or refactoring change must leave
every trace identical.
The E6 surface ``x^2 + y^3 + z^4 : 2`` is deliberately absent here: its run
leaks an internal error, and no trace golden should pin that.
``classic.json`` pins the outcome of ``resolve`` on the simple surface
singularities A1-A8, D4-D9, E6, E7 and E8, on ``x^2 + y^2*z + z^3`` (whose
singular points are not all rational) and on the threefold A1-A6
singularities ``x^2 + y^2 + z^2 + w^k`` for k = 2-7, the only four-variable
resolve inputs with a golden: the status, the step count and the
SHA-256 of ``json.dumps(trace)``, or the error class and message.  It records
today's outcomes, leaks included, so that a change to any of them is seen and
re-recorded on purpose.  ``queries.json`` pins the
text of ``fc_at_point`` (at the origin and at ``(1, 0[, 0])``) and of
``max_locus_fc`` for every characteristic-zero algebra of the acceptance
corpus.
``cli.json`` pins stdout, stderr and the exit code of every ``qrees``
subcommand, in text and with ``--json``, on the ``tests/test_cli.py`` problem
files plus a unit and a zero algebra.
``sweep.json`` pins the outcome of ``resolve(..., max_steps=30)`` on inputs
0-99 of the ROADMAP outcome-sweep generator (``random.Random(1)``): the
SHA-256 of ``json.dumps(trace)`` and the step count, or the error class and
message.
``chains.json`` pins one or two blowup steps (the center verdict by its
definition, transform, divisorial content, differential saturation,
coefficient algebra) on fixed algebras over Q, F_2 and F_3, so the
positive-characteristic side of those kernels is covered too.

Regenerate the files (only when a trace change is intended) with:

    PYTHONPATH=src python tests/test_golden_traces.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from qrees.algebra import format_algebra, parse_generator_list
from qrees.cli import main
from qrees.charts import (
    coefficient_algebra,
    non_monomial_part,
    transform_algebra,
)
from qrees.errors import NotTerminated, QreesError
from qrees.field import FieldSpec
from qrees.problem import parse_problem
from qrees.resolve import fc_at_point, max_locus_fc, resolve
from qrees.saturation import diff_saturate
from kit import center_oracle
from test_acceptance import CORPUS
from test_cli import CHAR2, MONOMIAL, PAIR, UMBRELLA

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
    # coordinate changes: a contact shift x -> y^2 + x, a line shift, and a
    # shift next to a divisor
    "shift-contact": "field Q\nchart x y\ngen x^2 - 2*x*y^2 + y^4 + y^5 : 2\n",
    "shift-line": "field Q\nchart x\ngen x^2 - 2*x + 1 : 2\n",
    "shift-by-divisor": (
        "field Q\nchart x y\ngen (x+y)^2 + y^3 : 2\ndivisor y created 1\n"
    ),
    # chart 0.1y.4y ends on the line stratum y^2, a repeated root at y = 0
    "repeated-root-line": "field Q\nchart x y\ngen 2*x^2*y^4 : 3\n",
}

# step budgets below the default 50: blowing up chart 0.1y.4y at step 4 leaks
# the same PreconditionError as E6, so that run is pinned up to the step before
STEP_BUDGET = {"repeated-root-line": 4}


def classic_inputs() -> dict[str, str]:
    """The simple surface singularities in (x, y, z), each ``: 2``, the
    irrational-points form, and the threefold A series in (x, y, z, w)."""
    gens = {f"A{n}": f"x^2 + y^2 + z^{n + 1}" for n in range(1, 9)}
    gens |= {f"D{n}": f"x^2 + y^2*z - z^{n - 1}" for n in range(4, 10)}
    gens |= {
        "E6": "x^2 + y^3 + z^4",
        "E7": "x^2 + y^3 + y*z^3",
        "E8": "x^2 + y^3 + z^5",
        "irrational": "x^2 + y^2*z + z^3",
    }
    texts = {name: f"field Q\nchart x y z\ngen {g} : 2\n" for name, g in gens.items()}
    for n in range(1, 7):
        texts[f"threefold A{n}"] = f"field Q\nchart x y z w\ngen x^2 + y^2 + z^2 + w^{n + 1} : 2\n"
    return texts


def sweep_inputs(seed: int = 1, count: int = 100) -> list[str]:
    """The ROADMAP outcome-sweep generator: n in {2, 3} variables, 2-3 terms
    c*x^i*y^j[*z^k] with c in {1, -1, 2, 3} and exponents in 0..4, and a
    weight in {1, 3/2, 2, 3}, all drawn from one random.Random(seed)."""
    rng = random.Random(seed)
    texts = []
    for _ in range(count):
        xs = ("x", "y", "z")[: rng.choice([2, 3])]
        terms = []
        for _ in range(rng.choice([2, 3])):
            c = rng.choice([1, -1, 2, 3])
            terms.append(f"{c}*" + "*".join(f"{v}^{rng.randint(0, 4)}" for v in xs))
        weight = rng.choice(["1", "3/2", "2", "3"])
        texts.append(f"field Q\nchart {' '.join(xs)}\ngen {' + '.join(terms)} : {weight}\n")
    return texts


# (characteristic, ring, generators, center, chart variables blown up in turn,
# coefficient-algebra variable)
CHAINS = [
    (0, "x y z", "x^2 + y^3 + z^5 : 2", "x y z", "z y", "x"),
    (0, "x y z", "x^2 - y^2*z : 2", "x y z", "y z", "x"),
    (0, "x y z w", "x^3 + y^4 + z^4*w : 3; x*y*z : 2", "x y z", "z y", "w"),
    (0, "x y z", "x^2*y + 1/2*z^4 : 3/2; y*z^2 : 1/2", "x y z", "z x", "y"),
    # two centers outside the singular locus
    (0, "x y z", "x + y^2 : 2; z^2 : 1", "x y z", "x", "z"),
    (0, "x y z", "y^2 + z : 2", "x y", "x", "y"),
    (2, "x y z", "x^2 + y^3 + z^4 : 2", "x y z", "z y", "x"),
    (2, "x y z", "x^2*y + y^2*z + z^2*x : 2", "x y z", "y x", "z"),
    (2, "x y z w", "x^4 + y^4 + x*y*z*w : 3", "x y z w", "w x", "x"),
    (3, "x y z", "x^3 + y^3*z + z^5 : 2", "x y z", "z y", "x"),
    (3, "x y z w", "x^3 - y^2*z^2 + w^6 : 3; x*y*z : 2", "x y z w", "w y", "y"),
    # x^3 has no nonzero first or second Hasse derivative in F_3, yet the
    # center {y = z = 0} misses its singular locus
    (3, "x y z", "x^3 + y*z^2 : 3", "y z", "y", "x"),
]


CLI_FILES = {
    "umbrella": UMBRELLA,
    "pair": PAIR,
    "char2": CHAR2,
    "monomial": MONOMIAL,
    "unit": "field Q\nchart x y\ngen 1 : 1\n",
    "zero": "field Q\nchart x y\ngen 0 : 1\n",
}


def cli_commands(text: str) -> list[list[str]]:
    """Every subcommand, with options that suit the problem's ring; the
    equivalence check compares the first algebra with the last."""
    problem = parse_problem(text)
    n = len(problem.variables)
    other = list(problem.algebras)[-1]
    commands = [
        ["diff"],
        ["sing"],
        ["ord"],
        ["ord", "--point", ",".join(["0"] * n)],
        ["ord", "--point", ",".join(["1"] * n)],
        ["coeff", "--var", "x"],
        ["eliminate", "--var", "x"],
        ["blowup", "--center", "x,y", "--chart-var", "y"],
        ["transform", "--center", "x,y", "--chart-var", "y"],
        ["nonmonomial"],
        ["nu", "--element", "x^2"],
        ["nubar", "--element", "x^2"],
        ["member", "--element", "x^2", "--weight", "1"],
        ["equiv", "--other", other],
        ["resolve"],
    ]
    commands += [c + ["--json"] for c in commands]
    return commands + [
        ["resolve", "--dot"],
        ["resolve", "--dot", "--json"],
        ["resolve", "--max-steps", "1"],
    ]


def cli_text() -> str:
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in CLI_FILES.items():
            path = Path(tmp) / f"{name}.qr"
            path.write_text(text)
            for command in cli_commands(text):
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main([command[0], str(path), *command[1:]])
                out.append(
                    {
                        "argv": [command[0], name, *command[1:]],
                        "exit": code,
                        "stdout": stdout.getvalue(),
                        "stderr": stderr.getvalue(),
                    }
                )
    return json.dumps(out, indent=1)


def chains_text() -> str:
    out = []
    for p, ring, gens, center, chart_vars, restrict in CHAINS:
        field, xs = FieldSpec(p), tuple(ring.split())
        center = tuple(center.split())
        alg = parse_generator_list(gens, field, xs)
        divisors: list[str] = []
        steps = []
        for t in chart_vars.split():
            step = {"center_ok": center_oracle(alg, center)}
            try:
                alg = transform_algebra(alg, center, t)
            except QreesError as exc:
                step["transform"] = f"{type(exc).__name__}: {exc}"
                steps.append(step)
                break
            divisors = [d for d in divisors if d != t] + [t]
            rest, ells = non_monomial_part(alg, divisors)
            step["transform"] = format_algebra(alg)
            step["non_monomial"] = f"{format_algebra(rest)} | {[str(e) for e in ells]}"
            step["saturate"] = format_algebra(diff_saturate(rest))
            step["coefficient"] = format_algebra(coefficient_algebra(rest, restrict))
            steps.append(step)
        out.append({"field": p, "ring": ring, "algebra": gens, "steps": steps})
    return json.dumps(out, indent=1)


def trace_text(text: str, max_steps: int = 50) -> str:
    problem = parse_problem(text)
    try:
        trace = resolve(
            problem.field,
            problem.variables,
            problem.algebra(),
            problem.divisors,
            max_steps=max_steps,
        )
    except NotTerminated as exc:
        trace = exc.trace
    return json.dumps(trace)


def resolve_outcome(text: str, max_steps: int, *, status: bool = False) -> dict:
    """The step count and trace SHA-256 of resolving text, led by the trace's
    status when asked (``sweep.json`` predates that field), or the error class
    and message."""
    problem = parse_problem(text)
    try:
        trace = resolve(
            problem.field,
            problem.variables,
            problem.algebra(),
            problem.divisors,
            max_steps=max_steps,
        )
    except QreesError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    fields = {"status": trace["status"]} if status else {}
    return fields | {
        "steps": len(trace["steps"]),
        "sha256": hashlib.sha256(json.dumps(trace).encode()).hexdigest(),
    }


def sweep_text() -> str:
    out = [
        {"input": i, "text": text, **resolve_outcome(text, 30)}
        for i, text in enumerate(sweep_inputs())
    ]
    return json.dumps(out, indent=1)


def classic_text() -> str:
    out = [
        {"name": name, "text": text, **resolve_outcome(text, 50, status=True)}
        for name, text in classic_inputs().items()
    ]
    return json.dumps(out, indent=1)


def _outcome(query) -> str:
    try:
        return query()
    except QreesError as exc:
        return f"{type(exc).__name__}: {exc}"


def queries_text() -> str:
    out = []
    for alg in CORPUS:
        if alg.field.characteristic != 0:
            continue
        f, xs = alg.field, alg.variables
        unit = (Fraction(1),) + (Fraction(0),) * (len(xs) - 1)

        def maximum() -> str:
            value, locus = max_locus_fc(f, xs, alg)
            return f"{value} on {locus!r}"

        out.append(
            {
                "algebra": repr(alg),
                "origin": _outcome(lambda: str(fc_at_point(f, xs, alg))),
                "unit": _outcome(lambda: str(fc_at_point(f, xs, alg, point=unit))),
                "max": _outcome(maximum),
            }
        )
    return json.dumps(out, indent=1)


# every golden besides the traces, with the function that records it
GOLDENS = {
    "queries.json": queries_text,
    "chains.json": chains_text,
    "cli.json": cli_text,
    "sweep.json": sweep_text,
    "classic.json": classic_text,
}


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_trace_matches_golden(name: str) -> None:
    expected = (GOLDEN / f"{name}.json").read_text()
    assert trace_text(PROBLEMS[name], STEP_BUDGET.get(name, 50)) == expected


def test_queries_match_golden() -> None:
    assert queries_text() == (GOLDEN / "queries.json").read_text()


def test_chains_match_golden() -> None:
    assert chains_text() == (GOLDEN / "chains.json").read_text()


def test_cli_matches_golden() -> None:
    assert cli_text() == (GOLDEN / "cli.json").read_text()


def test_sweep_matches_golden() -> None:
    assert sweep_text() == (GOLDEN / "sweep.json").read_text()


def test_classic_matches_golden() -> None:
    assert classic_text() == (GOLDEN / "classic.json").read_text()


@pytest.mark.parametrize(
    "index, error",
    [
        (
            30,
            "ChartSplitRequired: chart 0.1y.2y.3x at step 3: "
            "no triangular maximal contact among the saturated generators",
        ),
        (
            42,
            "ChartSplitRequired: chart 0.1z.3z at step 3: "
            "monomial case without an admissible coordinate center",
        ),
    ],
    ids=["input-30", "input-42"],
)
def test_slow_seed_2_sweep_inputs_end_in_documented_errors(index: int, error: str) -> None:
    """Two seed-2 sweep inputs whose unit tests on hundreds of Hasse
    derivatives once ran for seconds in max_order_within."""
    assert resolve_outcome(sweep_inputs(seed=2, count=index + 1)[index], 30) == {"error": error}


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, text in PROBLEMS.items():
        (GOLDEN / f"{name}.json").write_text(trace_text(text, STEP_BUDGET.get(name, 50)))
        print(f"wrote {name}.json")
    for name, record in GOLDENS.items():
        (GOLDEN / name).write_text(record())
        print(f"wrote {name}")
