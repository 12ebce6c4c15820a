"""Parser for the plain-text problem files the command line tool consumes.

Format, one directive per line, '#' starts a comment:

    field Q             (or: field F 5)
    chart x y z
    algebra J
    gen x^2 - y^2*z : 2
    gen 2*x : 1
    algebra K
    gen y : 3/2
    divisor z created 1

An algebra line opens a named generator list; gen lines before any algebra
line go to a default algebra named J.  Divisors attach to the chart.
"""

from __future__ import annotations

from .algebra import Generator, QReesAlgebra, parse_generator
from .charts import DivisorRecord
from .errors import PreconditionError, ProblemParseError
from .field import FieldSpec
from .poly import VARIABLE_NAME


class Problem:
    __slots__ = ("field", "variables", "algebras", "divisors")

    def __init__(
        self,
        field: FieldSpec,
        variables: tuple[str, ...],
        algebras: dict[str, QReesAlgebra],
        divisors: tuple[DivisorRecord, ...],
    ) -> None:
        self.field = field
        self.variables = variables
        self.algebras = algebras
        self.divisors = divisors

    def algebra(self, name: str | None = None) -> QReesAlgebra:
        if not self.algebras:
            raise ProblemParseError("the problem file declares no generators")
        if name is None:
            return next(iter(self.algebras.values()))
        if name not in self.algebras:
            known = ", ".join(self.algebras)
            raise ProblemParseError(f"no algebra named {name} (have: {known})")
        return self.algebras[name]


def parse_problem(text: str) -> Problem:
    field: FieldSpec | None = None
    variables: tuple[str, ...] | None = None
    pending: dict[str, list[Generator]] = {}
    current: str | None = None
    divisors: list[DivisorRecord] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        head = words[0]

        if head == "field":
            if field is not None:
                raise ProblemParseError("field declared twice", lineno)
            if words[1:] == ["Q"]:
                field = FieldSpec(0)
            elif len(words) == 3 and words[1] == "F":
                try:
                    p = int(words[2])
                except ValueError as exc:
                    raise ProblemParseError(f"bad characteristic {words[2]!r}", lineno) from exc
                try:
                    field = FieldSpec(p)
                except PreconditionError as exc:
                    raise ProblemParseError(str(exc), lineno) from exc
            else:
                raise ProblemParseError(
                    "field must be 'field Q' or 'field F <prime>'", lineno
                )
        elif head == "chart":
            if variables is not None:
                raise ProblemParseError("chart declared twice", lineno)
            if len(words) < 2:
                raise ProblemParseError("chart needs at least one variable", lineno)
            names = tuple(words[1:])
            if len(set(names)) != len(names):
                raise ProblemParseError("chart variables must be distinct", lineno)
            for name in names:
                if not VARIABLE_NAME.fullmatch(name):
                    raise ProblemParseError(f"bad variable name {name!r}", lineno)
            variables = names
        elif head == "algebra":
            if len(words) != 2:
                raise ProblemParseError("algebra takes exactly one name", lineno)
            current = words[1]
            pending.setdefault(current, [])
        elif head == "gen":
            if field is None or variables is None:
                raise ProblemParseError("gen before field/chart declarations", lineno)
            try:
                gen = parse_generator(line[len("gen") :].strip(), field, variables)
            except ProblemParseError as exc:
                raise ProblemParseError(str(exc), lineno) from exc
            if current is None:
                current = "J"
            pending.setdefault(current, []).append(gen)
        elif head == "divisor":
            if variables is None:
                raise ProblemParseError("divisor before chart declaration", lineno)
            if len(words) != 4 or words[2] != "created":
                raise ProblemParseError(
                    "divisor needs the form 'divisor VAR created INT'", lineno
                )
            var = words[1]
            if var not in variables:
                raise ProblemParseError(f"divisor variable {var} not in chart", lineno)
            if any(d.var == var for d in divisors):
                raise ProblemParseError(f"divisor {var} declared twice", lineno)
            try:
                created = int(words[3])
            except ValueError as exc:
                raise ProblemParseError(f"bad creation index {words[3]!r}", lineno) from exc
            divisors.append(DivisorRecord(var, created))
        else:
            raise ProblemParseError(f"unknown directive {head!r}", lineno)

    if field is None:
        raise ProblemParseError("missing 'field' declaration")
    if variables is None:
        raise ProblemParseError("missing 'chart' declaration")

    algebras = {
        name: QReesAlgebra(field, variables, tuple(gens)) for name, gens in pending.items()
    }
    return Problem(field, variables, algebras, tuple(divisors))
