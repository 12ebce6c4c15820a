"""Command line front end.  Each subcommand wraps one library operation on a
problem file; --json switches the human-readable report for a stable JSON
document.  Errors exit with the code carried by the exception."""

from __future__ import annotations

import argparse
import json
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
from .ideal import Ideal
from .invariant import InvariantValue
from .poly import Infinity, format_polynomial, parse_polynomial, parse_rational
from .problem import Problem, parse_problem
from .resolve import resolve, root_chart
from .saturation import (
    diff_saturate,
    equivalence_check,
    is_integral_member,
    nu,
    nu_bar_estimate,
)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except QreesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


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
    p.add_argument("--cap", default="32", help="search cap (default 32)")

    p = add("nubar", "saturated-order lower bound via powers", cmd_nubar)
    p.add_argument("--element", required=True, help="polynomial to measure")
    p.add_argument("--nmax", type=int, default=4, help="largest power tried (default 4)")
    p.add_argument("--cap", default="32", help="search cap (default 32)")

    p = add("member", "integral membership of an element at a weight", cmd_member)
    p.add_argument("--element", required=True, help="polynomial to test")
    p.add_argument("--weight", required=True, help="weight to test at")
    p.add_argument("--nmax", type=int, default=4, help="largest power tried (default 4)")
    p.add_argument("--cap", default="32", help="level cap (default 32)")

    p = add("equiv", "bounded equivalence check between two named algebras", cmd_equiv)
    p.add_argument("--other", required=True, help="name of the second algebra")
    p.add_argument("--nmax", type=int, default=4, help="largest power tried (default 4)")
    p.add_argument("--cap", default="32", help="level cap (default 32)")

    p = add("resolve", "run the resolution driver and print the trace", cmd_resolve)
    p.add_argument("--max-steps", type=int, default=50, help="step budget (default 50)")
    p.add_argument("--dot", action="store_true", help="emit the chart tree as DOT")

    return parser


def load(args) -> tuple[Problem, QReesAlgebra]:
    with open(args.file, encoding="utf-8") as handle:
        problem = parse_problem(handle.read())
    return problem, problem.algebra(args.algebra)


def parse_element(problem: Problem, text: str):
    return parse_polynomial(text, problem.field, problem.variables)


def value_text(value) -> str:
    """An order or grid value as printed: INFINITY, CAP_REACHED or the number."""
    return "INFINITY" if isinstance(value, Infinity) else str(value)


def emit_algebra(alg: QReesAlgebra, as_json: bool) -> int:
    if as_json:
        payload = {
            "generators": [[format_polynomial(f), str(a)] for f, a in alg.generators]
        }
        print(json.dumps(payload, indent=2))
    else:
        if alg.is_zero():
            print("0")
        for f, a in alg.generators:
            print(f"{format_polynomial(f)} : {a}")
    return 0


def emit_ideal(ideal: Ideal, as_json: bool) -> int:
    gens = [format_polynomial(g) for g in ideal.basis()]
    if as_json:
        print(json.dumps({"generators": gens}, indent=2))
    else:
        if not gens:
            print("0")
        for g in gens:
            print(g)
    return 0


def cmd_diff(args) -> int:
    _, alg = load(args)
    return emit_algebra(diff_saturate(alg), args.json)


def cmd_sing(args) -> int:
    _, alg = load(args)
    return emit_ideal(alg.sing_ideal(), args.json)


def cmd_ord(args) -> int:
    problem, alg = load(args)
    if args.point is not None:
        point = parse_point(args.point, len(problem.variables))
        text = value_text(alg.ord_at_point(point))
        if args.json:
            print(json.dumps({"order": text}, indent=2))
        else:
            print(text)
        return 0
    omega, locus = alg.max_order_stratum()
    gens = [format_polynomial(g) for g in locus.components[0].basis()]
    if args.json:
        print(json.dumps({"max_order": str(omega), "stratum": gens}, indent=2))
    else:
        print(f"max order {omega}")
        for g in gens:
            print(g)
    return 0


def parse_point(text: str, expected: int) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != expected:
        raise ProblemParseError(
            f"point needs {expected} coordinates, got {len(parts)}"
        )
    return tuple(parse_rational(p, "coordinate") for p in parts)


def cmd_coeff(args) -> int:
    _, alg = load(args)
    return emit_algebra(coefficient_algebra(alg, args.var), args.json)


def cmd_eliminate(args) -> int:
    _, alg = load(args)
    return emit_algebra(elimination_algebra(diff_saturate(alg), args.var), args.json)


def cmd_blowup(args) -> int:
    problem, alg = load(args)
    _, parent, _ = root_chart(problem.field, problem.variables, alg, problem.divisors)
    center = tuple(v.strip() for v in args.center.split(","))
    child = blowup_chart(parent, center, args.chart_var, created=1)
    payload = {
        "chart": child.id,
        "substitution": [[v, image] for v, image in child.substitution],
        "divisors": [{"var": d.var, "created": d.created} for d in child.divisors],
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"chart {child.id}")
        for v, image in child.substitution:
            print(f"  {v} -> {image}")
        for d in child.divisors:
            print(f"  divisor {d.var} created {d.created}")
    return 0


def cmd_transform(args) -> int:
    problem, alg = load(args)
    center = tuple(v.strip() for v in args.center.split(","))
    validate_center(problem.variables, center, args.chart_var)
    return emit_algebra(transform_algebra(alg, center, args.chart_var), args.json)


def cmd_nonmonomial(args) -> int:
    problem, alg = load(args)
    residual, ells = non_monomial_part(alg, [d.var for d in problem.divisors])
    ell_text = [value_text(e) for e in ells]
    if args.json:
        payload = {
            "generators": [
                [format_polynomial(f), str(a)] for f, a in residual.generators
            ],
            "multiplicities": [
                {"var": d.var, "ell": t}
                for d, t in zip(problem.divisors, ell_text)
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        for d, t in zip(problem.divisors, ell_text):
            print(f"ell({d.var}) = {t}")
        for f, a in residual.generators:
            print(f"{format_polynomial(f)} : {a}")
    return 0


def cmd_nu(args) -> int:
    problem, alg = load(args)
    cap = parse_rational(args.cap, "cap")
    value = nu(alg, parse_element(problem, args.element), cap)
    text = value_text(value)
    if args.json:
        print(json.dumps({"nu": text}, indent=2))
    else:
        print(text)
    return 0


def cmd_nubar(args) -> int:
    problem, alg = load(args)
    cap = parse_rational(args.cap, "cap")
    value = nu_bar_estimate(alg, parse_element(problem, args.element), args.nmax, cap)
    text = value_text(value)
    if args.json:
        print(json.dumps({"nu_bar": text}, indent=2))
    else:
        print(text)
    return 0


def cmd_member(args) -> int:
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
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        if verdict.status == "MemberWitness":
            print(f"{verdict.status} (power {verdict.power})")
        else:
            print(verdict.status)
    return 0


def cmd_equiv(args) -> int:
    problem, alg = load(args)
    other = problem.algebra(args.other)
    cap = parse_rational(args.cap, "cap")
    verdict = equivalence_check(alg, other, args.nmax, cap)
    payload = {
        "status": verdict.status,
        "witness_point": None
        if verdict.witness_point is None
        else [str(c) for c in verdict.witness_point],
        "detail": verdict.detail,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        if verdict.witness_point is not None:
            coords = ", ".join(str(c) for c in verdict.witness_point)
            print(f"{verdict.status} at ({coords}): {verdict.detail}")
        else:
            print(verdict.status)
    return 0


def cmd_resolve(args) -> int:
    problem, alg = load(args)
    trace = resolve(
        problem.field,
        problem.variables,
        alg,
        problem.divisors,
        max_steps=args.max_steps,
    )
    if args.dot:
        print(render_dot(trace))
    elif args.json:
        print(json.dumps(trace, indent=2))
    else:
        print(render_text(trace))
    return 0


def render_text(trace: dict) -> str:
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
    return "\n".join(lines)


def render_dot(trace: dict) -> str:
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
    return "\n".join(lines)


if __name__ == "__main__":
    raise SystemExit(main())
