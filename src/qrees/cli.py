"""Command line front end.  Each subcommand wraps one library operation on a
problem file and returns its result both as a JSON payload and as text
lines; main prints one of them (--json picks the payload).  Errors exit with
the code carried by the exception."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebra import QReesAlgebra
from .charts import (
    blowup_chart,
    coefficient_algebra,
    elimination_algebra,
    non_monomial_part,
    transform_algebra,
    validate_center,
)
from .errors import ProblemParseError, QreesError
from .invariant import InvariantValue
from .poly import format_polynomial, parse_polynomial, parse_rational
from .problem import Problem, parse_problem
from .resolve import DEFAULT_MAX_STEPS, resolve, root_chart
from .saturation import (
    DEFAULT_CAP,
    DEFAULT_N_MAX,
    diff_saturate,
    equivalence_check,
    is_integral_member,
    nu,
    nu_bar_estimate,
)

# a result as a JSON payload (None: text only) and as text lines
Output = tuple[dict | None, list[str]]


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand.  Each cmd_* returns (payload, lines); this is the
    only place a result is printed: the payload as JSON under --json, else
    the lines, and nothing when there are none.  A None payload (resolve
    --dot) always prints its lines.

    Returns the exit status: 0, the exit_code of a QreesError, or 141 when
    the reader of stdout closed it early (as in `qrees ... | head -n 1`),
    the status a shell reports for a program that SIGPIPE ends; that case
    prints nothing to stderr."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, lines = args.handler(args)
    except QreesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    try:
        if args.json and payload is not None:
            print(json.dumps(payload, indent=2))
        elif lines:
            print("\n".join(lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # what is still buffered goes to devnull, so that the flush at
        # interpreter exit does not raise a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrees",
        description="Weighted Rees algebras on affine charts: saturation, "
        "singular loci, blowups, and resolution traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, handler) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="problem file (field/chart/algebra/gen/divisor lines)")
        p.add_argument("--algebra", help="name of the algebra to use (default: first)")
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        p.set_defaults(handler=handler)
        return p

    add("diff", "differential saturation of the algebra", cmd_diff)
    add("sing", "generators of the singular-locus ideal", cmd_sing)

    p = add("ord", "order of the algebra at a point, or its maximum", cmd_ord)
    p.add_argument("--point", help="comma-separated rational coordinates")

    p = add("coeff", "coefficient algebra on a coordinate hyperplane", cmd_coeff)
    p.add_argument("--var", required=True, help="variable to restrict to zero")

    p = add("eliminate", "saturate, then keep generators free of a variable", cmd_eliminate)
    p.add_argument("--var", required=True, help="variable to eliminate")

    p = add("blowup", "describe one chart of a blowup", cmd_blowup)
    p.add_argument("--center", required=True, help="comma-separated center variables")
    p.add_argument("--chart-var", required=True, help="which center variable's chart")

    p = add("transform", "controlled transform of the algebra in one chart", cmd_transform)
    p.add_argument("--center", required=True, help="comma-separated center variables")
    p.add_argument("--chart-var", required=True, help="which center variable's chart")

    add("nonmonomial", "divide out the declared divisors", cmd_nonmonomial)

    p = add("nu", "grid order of an element against the algebra", cmd_nu)
    p.add_argument("--element", required=True, help="polynomial to measure")
    p.add_argument("--cap", default=str(DEFAULT_CAP), help="search cap (default %(default)s)")

    p = add("nubar", "saturated-order lower bound via powers", cmd_nubar)
    p.add_argument("--element", required=True, help="polynomial to measure")
    p.add_argument("--nmax", type=int, default=DEFAULT_N_MAX, help="largest power tried (default %(default)s)")
    p.add_argument("--cap", default=str(DEFAULT_CAP), help="search cap (default %(default)s)")

    p = add("member", "integral membership of an element at a weight", cmd_member)
    p.add_argument("--element", required=True, help="polynomial to test")
    p.add_argument("--weight", required=True, help="weight to test at")
    p.add_argument("--nmax", type=int, default=DEFAULT_N_MAX, help="largest power tried (default %(default)s)")
    p.add_argument("--cap", default=str(DEFAULT_CAP), help="level cap (default %(default)s)")

    p = add("equiv", "bounded equivalence check between two named algebras", cmd_equiv)
    p.add_argument("--other", required=True, help="name of the second algebra")
    p.add_argument("--nmax", type=int, default=DEFAULT_N_MAX, help="largest power tried (default %(default)s)")
    p.add_argument("--cap", default=str(DEFAULT_CAP), help="level cap (default %(default)s)")

    p = add("resolve", "run the resolution driver and print the trace", cmd_resolve)
    p.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS, help="step budget (default %(default)s)")
    p.add_argument("--dot", action="store_true", help="emit the chart tree as DOT")

    return parser


def load(args) -> tuple[Problem, QReesAlgebra]:
    """The problem file and its named algebra; a file that cannot be opened
    or is not UTF-8 text is a ProblemParseError naming it."""
    try:
        with open(args.file, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ProblemParseError(f"cannot read {args.file}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ProblemParseError(f"cannot read {args.file}: {exc}") from None
    problem = parse_problem(text)
    return problem, problem.algebra(args.algebra)


def parse_element(problem: Problem, text: str):
    return parse_polynomial(text, problem.field, problem.variables)


def algebra_output(alg: QReesAlgebra) -> Output:
    """The generators as JSON rows [poly, weight] and as text lines
    'poly : weight'; the zero algebra reads 0."""
    rows = [[format_polynomial(f), str(a)] for f, a in alg.generators]
    return {"generators": rows}, [f"{f} : {a}" for f, a in rows] or ["0"]


def cmd_diff(args) -> Output:
    _, alg = load(args)
    return algebra_output(diff_saturate(alg))


def cmd_sing(args) -> Output:
    _, alg = load(args)
    gens = [format_polynomial(g) for g in alg.sing_ideal().basis()]
    return {"generators": gens}, gens or ["0"]


def cmd_ord(args) -> Output:
    problem, alg = load(args)
    if args.point is not None:
        point = parse_point(args.point, len(problem.variables))
        text = str(alg.ord_at_point(point))
        return {"order": text}, [text]
    omega, locus = alg.max_order_stratum()
    gens = [format_polynomial(g) for g in locus.components[0].basis()]
    return {"max_order": str(omega), "stratum": gens}, [f"max order {omega}", *gens]


def parse_point(text: str, expected: int) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != expected:
        raise ProblemParseError(
            f"point needs {expected} coordinates, got {len(parts)}"
        )
    return tuple(parse_rational(p, "coordinate") for p in parts)


def cmd_coeff(args) -> Output:
    _, alg = load(args)
    return algebra_output(coefficient_algebra(alg, args.var))


def cmd_eliminate(args) -> Output:
    _, alg = load(args)
    return algebra_output(elimination_algebra(diff_saturate(alg), args.var))


def cmd_blowup(args) -> Output:
    problem, alg = load(args)
    _, parent, _ = root_chart(problem.field, problem.variables, alg, problem.divisors)
    center = tuple(v.strip() for v in args.center.split(","))
    child = blowup_chart(parent, center, args.chart_var, created=1)
    payload = {
        "chart": child.id,
        "substitution": [[v, image] for v, image in child.substitution],
        "divisors": [{"var": d.var, "created": d.created} for d in child.divisors],
    }
    lines = [f"chart {child.id}"]
    lines += [f"  {v} -> {image}" for v, image in child.substitution]
    lines += [f"  divisor {d.var} created {d.created}" for d in child.divisors]
    return payload, lines


def cmd_transform(args) -> Output:
    problem, alg = load(args)
    center = tuple(v.strip() for v in args.center.split(","))
    validate_center(problem.variables, center, args.chart_var)
    return algebra_output(transform_algebra(alg, center, args.chart_var))


def cmd_nonmonomial(args) -> Output:
    problem, alg = load(args)
    residual, ells = non_monomial_part(alg, [d.var for d in problem.divisors])
    payload, rows = algebra_output(residual)
    ell_text = [str(e) for e in ells]
    payload["multiplicities"] = [
        {"var": d.var, "ell": t} for d, t in zip(problem.divisors, ell_text)
    ]
    lines = [f"ell({d.var}) = {t}" for d, t in zip(problem.divisors, ell_text)]
    # a zero residual adds no line, not the standalone algebra's 0
    return payload, lines + (rows if residual.generators else [])


def cmd_nu(args) -> Output:
    problem, alg = load(args)
    cap = parse_rational(args.cap, "cap")
    text = str(nu(alg, parse_element(problem, args.element), cap))
    return {"nu": text}, [text]


def cmd_nubar(args) -> Output:
    problem, alg = load(args)
    cap = parse_rational(args.cap, "cap")
    value = nu_bar_estimate(alg, parse_element(problem, args.element), args.nmax, cap)
    text = str(value)
    return {"nu_bar": text}, [text]


def cmd_member(args) -> Output:
    problem, alg = load(args)
    verdict = is_integral_member(
        alg,
        parse_element(problem, args.element),
        parse_rational(args.weight, "weight"),
        args.nmax,
        parse_rational(args.cap, "cap"),
    )
    payload = {
        "status": verdict.status,
        "power": verdict.power,
        "weight": str(verdict.level),
    }
    if verdict.status == "MemberWitness":
        return payload, [f"{verdict.status} (power {verdict.power})"]
    return payload, [verdict.status]


def cmd_equiv(args) -> Output:
    problem, alg = load(args)
    other = problem.algebra(args.other)
    cap = parse_rational(args.cap, "cap")
    verdict = equivalence_check(alg, other, args.nmax, cap)
    point = verdict.witness_point
    payload = {
        "status": verdict.status,
        "witness_point": None if point is None else [str(c) for c in point],
        "detail": verdict.detail,
    }
    if point is None:
        return payload, [verdict.status]
    coords = ", ".join(str(c) for c in point)
    return payload, [f"{verdict.status} at ({coords}): {verdict.detail}"]


def cmd_resolve(args) -> Output:
    problem, alg = load(args)
    trace = resolve(
        problem.field,
        problem.variables,
        alg,
        problem.divisors,
        max_steps=args.max_steps,
    )
    if args.dot:
        return None, render_dot(trace)
    return trace, render_text(trace)


def render_text(trace: dict) -> list[str]:
    lines = [f"status: {trace['status']}"]
    for record in trace["steps"]:
        fc = InvariantValue.from_json(record["fc"])
        center = ", ".join(record["center"])
        lines.append(
            f"step {record['step']}: blow up chart {record['chart']} "
            f"at V({center}); fc = {fc}"
        )
        for child in record["children"]:
            lines.append(f"  chart {child}")
    lines.append("final charts:")
    for leaf in trace["leaves"]:
        lines.append(f"  {leaf['chart']}: sing {leaf['sing']}")
    return lines


def render_dot(trace: dict) -> list[str]:
    lines = ["digraph charts {"]
    seen = set()
    for record in trace["steps"]:
        parent = record["chart"]
        seen.add(parent)
        for child in record["children"]:
            seen.add(child)
            label = child.rsplit(".", 1)[-1]
            lines.append(f'  "{parent}" -> "{child}" [label="{label}"];')
    for leaf in trace["leaves"]:
        if leaf["chart"] not in seen:
            lines.append(f'  "{leaf["chart"]}";')
    lines.append("}")
    return lines


if __name__ == "__main__":
    raise SystemExit(main())
