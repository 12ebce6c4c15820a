"""Problem file parsing."""

from __future__ import annotations

from fractions import Fraction

import pytest

from qrees.charts import DivisorRecord
from qrees.errors import ProblemParseError
from qrees.field import FieldSpec
from qrees.poly import parse_polynomial
from qrees.problem import parse_problem

from kit import rejected

GOOD = """\
# the pinch point with a named algebra
field Q
chart x y z
algebra J
gen x^2 - y^2*z : 2
algebra D
gen y^2 : 1
divisor z created 1
"""


def test_parse_full_problem() -> None:
    problem = parse_problem(GOOD)
    assert problem.field.characteristic == 0
    assert problem.variables == ("x", "y", "z")
    assert set(problem.algebras) == {"J", "D"}
    assert problem.divisors == (DivisorRecord("z", 1),)
    j = problem.algebra("J")
    assert j.generators[0][1] == Fraction(2)
    assert problem.algebra() is j  # default is the first declared


def test_parse_finite_field() -> None:
    problem = parse_problem("field F 5\nchart x y\ngen x^2 : 1\n")
    assert problem.field.characteristic == 5


def test_default_algebra_name() -> None:
    problem = parse_problem("field Q\nchart x y\ngen x : 1\n")
    assert "J" in problem.algebras


def test_fractional_weights() -> None:
    problem = parse_problem("field Q\nchart x y\ngen x : 3/2\n")
    assert problem.algebra().generators[0][1] == Fraction(3, 2)


def test_unknown_algebra_name_raises() -> None:
    problem = parse_problem(GOOD)
    with rejected("no algebra named missing (have: J, D)", ProblemParseError):
        problem.algebra("missing")
    problem = parse_problem("field Q\nchart x y\ngen x : 1\n")
    with rejected("no algebra named K (have: J)", ProblemParseError):
        problem.algebra("K")


def test_error_reports_line_number() -> None:
    bad = "field Q\nchart x y\ngen x + w : 1\n"
    with pytest.raises(ProblemParseError) as info:
        parse_problem(bad)
    assert "line 3" in str(info.value)


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "field F 4\nchart x y\ngen x^2 : 2\n",
            "line 1: characteristic must be 0 or a prime, got 4",
        ),
        (
            "field F 3\nchart x y\n\ngen x^2 + 1/3*y : 2\n",
            "line 4: denominator 3 vanishes modulo 3",
        ),
        ("field Q\nfield Q\n", "line 2: field declared twice"),
        ("field F x\n", "line 1: bad characteristic 'x'"),
        ("field R\n", "line 1: field must be 'field Q' or 'field F <prime>'"),
        ("field Q\nchart x\nchart y\n", "line 3: chart declared twice"),
        ("field Q\nchart\n", "line 2: chart needs at least one variable"),
        ("field Q\nchart x x\n", "line 2: chart variables must be distinct"),
        ("field Q\nchart 1x\n", "line 2: bad variable name '1x'"),
        # the tokenizer reads ASCII names only, so the chart must refuse others
        ("field Q\nchart α y\ngen α^2 + y^3 : 2\n", "line 2: bad variable name 'α'"),
        ("algebra J K\n", "line 1: algebra takes exactly one name"),
        ("divisor x created 1\n", "line 1: divisor before chart declaration"),
        (
            "field Q\nchart x y\ndivisor x\n",
            "line 3: divisor needs the form 'divisor VAR created INT'",
        ),
        ("field Q\nchart x y\ndivisor x created one\n", "line 3: bad creation index 'one'"),
        ("foo\n", "line 1: unknown directive 'foo'"),
        ("chart x y\n", "missing 'field' declaration"),
        ("field Q\n", "missing 'chart' declaration"),
        ("field Q\nchart x y\n", "the problem file declares no generators"),
    ],
    ids=[
        "non-prime-field",
        "denominator-divisible-by-p",
        "field-twice",
        "bad-characteristic",
        "bad-field",
        "chart-twice",
        "empty-chart",
        "repeated-chart-variable",
        "bad-variable-name",
        "non-ascii-variable-name",
        "algebra-two-names",
        "divisor-before-chart",
        "divisor-form",
        "bad-creation-index",
        "unknown-directive",
        "missing-field",
        "missing-chart",
        "no-generators",
    ],
)
def test_field_errors_report_line_number(text: str, message: str) -> None:
    with pytest.raises(ProblemParseError) as info:
        parse_problem(text).algebra()
    assert str(info.value) == message


def test_polynomial_denominator_must_be_invertible_mod_p() -> None:
    F3 = FieldSpec(3)
    with pytest.raises(ProblemParseError, match="^denominator 6 vanishes modulo 3$"):
        parse_polynomial("x/6", F3, ("x",))
    assert parse_polynomial("1/2*x", F3, ("x",)) == parse_polynomial("2*x", F3, ("x",))
    # the library's own field constructor keeps its precondition error
    with rejected("characteristic must be 0 or a prime, got 4"):
        FieldSpec(4)
    with rejected("denominator of 1/3 vanishes modulo 3"):
        F3.coerce(Fraction(1, 3))


def test_gen_before_chart_rejected() -> None:
    with pytest.raises(ProblemParseError):
        parse_problem("field Q\ngen x : 1\n")


def test_missing_field_rejected() -> None:
    with pytest.raises(ProblemParseError, match="^line 2: gen before field/chart declarations$"):
        parse_problem("chart x y\ngen x : 1\n")
    with pytest.raises(ProblemParseError, match="^missing 'field' declaration$"):
        parse_problem("chart x y\n")


def test_duplicate_divisor_rejected() -> None:
    text = "field Q\nchart x y\ngen x : 1\ndivisor x created 1\ndivisor x created 2\n"
    with pytest.raises(ProblemParseError):
        parse_problem(text)


def test_divisor_variable_must_exist() -> None:
    text = "field Q\nchart x y\ngen x : 1\ndivisor z created 1\n"
    with pytest.raises(ProblemParseError):
        parse_problem(text)


def test_comments_and_blank_lines_ignored() -> None:
    text = "# header\n\nfield Q\n  # indented comment\nchart x y\ngen x : 1\n"
    problem = parse_problem(text)
    assert problem.variables == ("x", "y")


def test_gen_line_without_a_weight_rejected() -> None:
    with rejected("line 3: generator 'x^2' lacks ': WEIGHT'", ProblemParseError):
        parse_problem("field Q\nchart x y\ngen x^2\n")


def test_bad_weight_rejected() -> None:
    with pytest.raises(ProblemParseError):
        parse_problem("field Q\nchart x y\ngen x : frac\n")
    with pytest.raises(ProblemParseError):
        parse_problem("field Q\nchart x y\ngen x : -1\n")
