"""Inputs, operations and output checks of the three benchmark workloads.

A workload is a list of cases.  A case is one input record (a problem-file
text plus the parameters of its queries) and expands into one or more ops,
each a single call into the library.  Every op ends in an outcome string:

* the digest of its canonical output text,
* ``error:<Class>`` for a documented typed error (``ChartSplitRequired``,
  ``NotTerminated``, ``UnsupportedCharacteristic``), or
* ``leak:<Class>`` for anything else escaping the library: an internal
  ``PreconditionError``, an ``AssertionError``, a bare ``QreesError``.

The goldens in ``data/`` are the outcomes recorded at the commit that
introduced this benchmark.

The library is always reached through module attributes looked up at call
time (``qrees.saturation.nu``, not a name imported once), so that the tracer
in ``tracer.py`` sees every call the benchmark makes.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import qrees
import qrees.algebra
import qrees.charts
import qrees.poly
import qrees.problem
import qrees.saturation

DATA = Path(__file__).resolve().parent / "data"

WORKLOADS = ("resolve-corpus", "queries", "blowup-chains")

DOCUMENTED_ERRORS = (
    qrees.ChartSplitRequired,
    qrees.NotTerminated,
    qrees.UnsupportedCharacteristic,
)

# Master seed of the generated pools; a run's --seed picks cases from them.
POOL_SEED = 20101008

# -- resolve-corpus -------------------------------------------------------------

# The TERMINATION_RUNS of tests/test_acceptance.py, four slower curves and
# surfaces, and the E6 surface, which leaks PreconditionError at step 3.
RESOLVE_CORPUS = {
    "cusp": "field Q\nchart x y\ngen x^2 + y^3 : 2\n",
    "umbrella": "field Q\nchart x y z\ngen x^2 - y^2*z : 2\n",
    "higher-cusp": "field Q\nchart x y\ngen x^2 + y^5 : 2\n",
    "monomial": (
        "field Q\nchart x y\ngen x^2*y^3 : 2\n"
        "divisor x created 1\ndivisor y created 2\n"
    ),
    "crossing-pair": "field Q\nchart x y z\ngen x*y : 1\ngen z : 1\n",
    "x2-y2z3": "field Q\nchart x y z\ngen x^2 - y^2*z^3 : 2\n",
    "x2-y3z2": "field Q\nchart x y z\ngen x^2 - y^3*z^2 : 2\n",
    "x2+y7": "field Q\nchart x y\ngen x^2 + y^7 : 2\n",
    "x3+y5": "field Q\nchart x y\ngen x^3 + y^5 : 3\n",
    "e6": "field Q\nchart x y z\ngen x^2 + y^3 + z^4 : 2\n",
}

# -- generated pools --------------------------------------------------------------

QUERY_WEIGHTS = ("1", "3/2", "2", "3")
ELEMENT_WEIGHTS = ("1", "3/2", "2")
Q_COEFFS = ("1", "-1", "2", "-2", "3", "-3", "1/2", "-1/2")
F3_COEFFS = ("1", "2")
CHAIN_VARS = ("x", "y", "z", "w")
CHAIN_WEIGHTS = ("2", "3", "4")
CHAIN_STEPS = 6


def _polynomial(rng, names, terms, low, high, coeffs) -> str:
    """Sum of `terms` distinct monomials of degree low..high with coefficients
    drawn from `coeffs`; distinct monomials keep the sum nonzero."""
    monomials: list[str] = []
    while len(monomials) < terms:
        exps = [0] * len(names)
        for _ in range(rng.randint(low, high)):
            exps[rng.randrange(len(names))] += 1
        mono = "*".join(v if k == 1 else f"{v}^{k}" for v, k in zip(names, exps) if k)
        if mono not in monomials:
            monomials.append(mono)
    return " + ".join(f"{rng.choice(coeffs)}*{m}" for m in monomials)


def generate_query_case(rng: random.Random) -> dict:
    """2-3 variables, 1-2 generators of 1-3 terms of degree 2-4, weights in
    {1, 3/2, 2, 3}; a quarter over F_3.  Algebra E holds the element that
    nu and membership test."""
    names = ("x", "y", "z")[: rng.randint(2, 3)]
    prime = rng.random() < 0.25
    coeffs = F3_COEFFS if prime else Q_COEFFS
    lines = ["field F 3" if prime else "field Q", "chart " + " ".join(names), "algebra J"]
    weights = []
    for _ in range(rng.randint(1, 2)):
        weights.append(rng.choice(QUERY_WEIGHTS))
        lines.append(f"gen {_polynomial(rng, names, rng.randint(1, 3), 2, 4, coeffs)} : {weights[-1]}")
    lines.append("algebra E")
    lines.append(
        f"gen {_polynomial(rng, names, rng.randint(1, 3), 1, 4, coeffs)} : {rng.choice(ELEMENT_WEIGHTS)}"
    )
    # A level of at most twice the lightest weight keeps level ideals to
    # products of at most two generators.
    lightest = min(Fraction(w) for w in weights)
    level = rng.choice([w for w in QUERY_WEIGHTS if Fraction(w) <= 2 * lightest])
    return {"problem": "\n".join(lines) + "\n", "level": level, "drop": rng.choice(names)}


def generate_chain_case(rng: random.Random) -> dict:
    """4 variables, 1-2 generators of 2-5 terms of degree 3-8, weights in
    {2, 3, 4}, and a seeded chart variable and restriction variable per step."""
    lines = ["field Q", "chart " + " ".join(CHAIN_VARS)]
    for _ in range(rng.randint(1, 2)):
        poly = _polynomial(rng, CHAIN_VARS, rng.randint(2, 5), 3, 8, Q_COEFFS)
        lines.append(f"gen {poly} : {rng.choice(CHAIN_WEIGHTS)}")
    steps = [[rng.choice(CHAIN_VARS), rng.choice(CHAIN_VARS)] for _ in range(CHAIN_STEPS)]
    return {"problem": "\n".join(lines) + "\n", "steps": steps}


# -- canonical output text -----------------------------------------------------------


def _basis_text(polys) -> str:
    return "; ".join(qrees.poly.format_polynomial(g) for g in polys)


def _algebra_text(alg) -> str:
    return f"{','.join(alg.variables)} | {qrees.algebra.format_algebra(alg)}"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def outcome_of(call) -> str:
    """Run one op and name its outcome; `call` returns its output's digest."""
    try:
        return call()
    except DOCUMENTED_ERRORS as exc:
        return f"error:{type(exc).__name__}"
    except Exception as exc:  # anything else escaping the library is a leak
        return f"leak:{type(exc).__name__}"


# -- ops ------------------------------------------------------------------------------
#
# An op is a zero-argument callable returning the digest of its canonical
# output.  Chains are stateful: step k transforms the algebra step k-1 left,
# so a case's ops run in order and `ops_of` builds fresh closures each pass.


def _resolve_ops(problem, tally):
    def op():
        trace = qrees.resolve(
            problem.field, problem.variables, problem.algebra(), problem.divisors, max_steps=50
        )
        text = json.dumps(trace)
        tally["resolve.steps"] += len(trace["steps"])
        tally["resolve.charts"] += len(trace["steps"]) + len(trace["leaves"])
        return hashlib.sha256(text.encode()).hexdigest()

    return [op]


def _query_ops(prepared):
    problem, level, drop = prepared
    alg = problem.algebra("J")
    element, element_weight = problem.algebra("E").generators[0]
    sat = qrees.saturation

    def sing():
        return digest(_basis_text(alg.sing_ideal().basis()))

    def stratum():
        omega, closed = alg.max_order_stratum()
        return digest(f"{omega} | " + " || ".join(_basis_text(c.basis()) for c in closed.components))

    def level_basis():
        return digest(_basis_text(alg.level_ideal(level).basis()))

    def nu():
        return digest(str(sat.nu(alg, element, cap=2)))

    def member():
        v = sat.is_integral_member(alg, element, element_weight, n_max=2, cap=2)
        return digest(f"{v.status} {v.power} {v.level}")

    def eliminate():
        kept = sat.diff_saturate(alg).sing_ideal().eliminate((drop,))
        return digest(f"{','.join(kept.variables)} | {_basis_text(kept.generators)}")

    return [sing, stratum, level_basis, nu, member, eliminate]


# Outcome of a chain step taken where the order at the origin is below 1.
STOPPED = "stopped"


def _chain_ops(prepared):
    problem, steps = prepared
    state = {"alg": problem.algebra(), "divisors": []}
    charts = qrees.charts
    sat = qrees.saturation
    ops = []
    for chart_var, restrict_var in steps:

        def step(chart_var=chart_var, restrict_var=restrict_var):
            if state["alg"].ord_at_origin() < 1:
                return STOPPED
            alg = charts.transform_algebra(state["alg"], CHAIN_VARS, chart_var)
            divisors = [d for d in state["divisors"] if d != chart_var] + [chart_var]
            rest, ells = charts.non_monomial_part(alg, divisors)
            saturated = sat.diff_saturate(rest)
            coeff = charts.coefficient_algebra(rest, restrict_var)
            state["alg"], state["divisors"] = alg, divisors
            return digest(
                " || ".join(
                    (
                        _algebra_text(alg),
                        ",".join(str(e) for e in ells),
                        _algebra_text(saturated),
                        _algebra_text(coeff),
                    )
                )
            )

        ops.append(step)
    return ops


# -- loading ----------------------------------------------------------------------------


def load(workload: str, seed: int) -> list[dict]:
    """The case records of one run, with their goldens, chosen by `seed`.

    resolve-corpus is fixed; the seed only orders it.  A generated pool
    starts with its `fixed` costliest cases, by the time each took when it was
    recorded; they are in every run, so that which heavy case a seed happens
    to draw does not set the run's slowest case.  The rest is in strata of
    alike cases (see record.py), and a run takes one case from each.  It
    draws it from the half of the stratum that keeps the recorded cost of the
    cases drawn so far nearest to the stratum means summed so far, so seeds
    give different cases with the same total cost.
    """
    rng = random.Random(seed)
    with open(DATA / f"{workload}.json") as fh:
        data = json.load(fh)
    cases = data["cases"]
    if workload != "resolve-corpus":
        fixed, size = data["fixed"], data["stratum_size"]
        chosen, drawn, expected = cases[:fixed], 0.0, 0.0
        for start in range(fixed, len(cases), size):
            stratum = cases[start:start + size]
            expected += sum(c["recorded_ms"] for c in stratum) / size
            near = sorted(stratum, key=lambda c: abs(drawn + c["recorded_ms"] - expected))
            choice = rng.choice(near[: size // 2])
            drawn += choice["recorded_ms"]
            chosen.append(choice)
        cases = chosen
    rng.shuffle(cases)
    return cases


def prepare(workload: str, case: dict):
    """Parse a case record into what its ops need."""
    problem = qrees.problem.parse_problem(case["problem"])
    if workload == "resolve-corpus":
        return problem
    if workload == "queries":
        return problem, Fraction(case["level"]), case["drop"]
    # A chain runs while the order at the origin is at least 1, for at most
    # CHAIN_STEPS steps; the recorded case keeps only the steps it takes.
    return problem, case["steps"]


def ops_of(workload: str, prepared, tally) -> list:
    """Fresh op closures for one pass over a prepared case; resolve ops add
    their trace's step and chart counts to `tally`."""
    if workload == "resolve-corpus":
        return _resolve_ops(prepared, tally)
    if workload == "queries":
        return _query_ops(prepared)
    return _chain_ops(prepared)
