"""End-to-end runs of the command line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qrees
from qrees.cli import main

UMBRELLA = """\
field Q
chart x y z
algebra J
gen x^2 - y^2*z : 2
"""

PAIR = """\
field Q
chart x y
algebra J
gen x^2 + y^3 : 2
algebra K
gen x^2 + y^3 : 2
gen x^2 + y^3 : 1
"""

CHAR2 = """\
field F 2
chart x y z
gen x^2 + y^2*z : 2
"""

MONOMIAL = """\
field Q
chart x y
gen x^2*y^3 : 2
divisor x created 1
divisor y created 2
"""


@pytest.fixture
def umbrella(tmp_path):
    path = tmp_path / "umbrella.qr"
    path.write_text(UMBRELLA)
    return str(path)


def run(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_sing_command(umbrella, capsys) -> None:
    code, out = run(capsys, "sing", umbrella)
    assert code == 0
    lines = out.strip().splitlines()
    assert "x" in lines
    assert "y^2" in lines


def test_diff_command_json(umbrella, capsys) -> None:
    code, out = run(capsys, "diff", umbrella, "--json")
    assert code == 0
    doc = json.loads(out)
    weights = sorted(w for _, w in doc["generators"])
    assert weights == ["1", "1", "1", "2"]


def test_ord_at_point(umbrella, capsys) -> None:
    code, out = run(capsys, "ord", umbrella, "--point", "0,0,0")
    assert (code, out.strip()) == (0, "1")
    code, out = run(capsys, "ord", umbrella, "--point", "1,1,1")
    assert (code, out.strip()) == (0, "1/2")


def test_ord_max_stratum(umbrella, capsys) -> None:
    code, out = run(capsys, "ord", umbrella, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["max_order"] == "1"


def test_coeff_command(umbrella, capsys) -> None:
    code, out = run(capsys, "coeff", umbrella, "--var", "x")
    assert code == 0
    assert "y^2" in out


def test_eliminate_saturates_first(tmp_path, capsys) -> None:
    path = tmp_path / "char2.qr"
    path.write_text(CHAR2)
    code, out = run(capsys, "eliminate", str(path), "--var", "x")
    assert code == 0
    assert out.strip() == "y^2 : 1"


def test_blowup_and_transform(umbrella, capsys) -> None:
    code, out = run(
        capsys, "blowup", umbrella, "--center", "x,y,z", "--chart-var", "z", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["chart"] == "0.1z"
    assert ["x", "x*z"] in doc["substitution"]
    assert doc["divisors"] == [{"var": "z", "created": 1}]

    code, out = run(
        capsys, "transform", umbrella, "--center", "x,y,z", "--chart-var", "z"
    )
    assert code == 0
    assert out.strip() == "-y^2*z + x^2 : 2"


@pytest.mark.parametrize(
    "center, chart_var, message",
    [
        ("x,w", "x", "center variable w is not a chart variable"),
        ("x,y", "z", "chart variable z must lie in the center"),
    ],
    ids=["center-outside-chart", "chart-var-outside-center"],
)
def test_transform_validates_center(umbrella, capsys, center, chart_var, message) -> None:
    code = main(["transform", umbrella, "--center", center, "--chart-var", chart_var])
    assert (code, capsys.readouterr().err.strip()) == (6, f"error: {message}")


@pytest.mark.parametrize("command", ["coeff", "eliminate"])
def test_unknown_variable_exits_6(umbrella, capsys, command) -> None:
    code = main([command, umbrella, "--var", "w"])
    assert (code, capsys.readouterr().err.strip()) == (
        6,
        "error: w is not a variable of Q[x, y, z]",
    )


def test_nonmonomial_command(tmp_path, capsys) -> None:
    path = tmp_path / "monomial.qr"
    path.write_text(MONOMIAL)
    code, out = run(capsys, "nonmonomial", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["multiplicities"] == [
        {"var": "x", "ell": "1"},
        {"var": "y", "ell": "3/2"},
    ]
    assert doc["generators"] == [["1", "2"]]


@pytest.mark.parametrize(
    "text, expected",
    [
        ("field Q\nchart x y\ngen (x + 1/2*y)^2 - 2x(y - 1) : 2\n", "x^2 - x*y + 1/4*y^2 + 2*x : 2"),
        ("field F 3\nchart x y\ngen -(x - y)^3 + 2^2*x/2 : 1\n", "2*x^3 + y^3 + 2*x : 1"),
        (
            "field Q\nchart x y z\ngen x^2*y^3*(z + 1) : 2\ngen x^3*y^2 + x^4*y^2*z : 3\n"
            "divisor x created 1\ndivisor y created 2\n",
            "ell(x) = 1\nell(y) = 2/3\ny*z + y : 2\nx*z + 1 : 3",
        ),
    ],
    ids=["parse-Q", "parse-F_3", "strip"],
)
def test_nonmonomial_text(tmp_path, capsys, text, expected) -> None:
    path = tmp_path / "gens.qr"
    path.write_text(text)
    assert run(capsys, "nonmonomial", str(path)) == (0, expected + "\n")


def test_nu_and_member(umbrella, capsys) -> None:
    code, out = run(capsys, "nu", umbrella, "--element", "x^2 - y^2*z")
    assert (code, out.strip()) == (0, "2")
    code, out = run(
        capsys, "member", umbrella, "--element", "x^2 - y^2*z", "--weight", "2"
    )
    assert code == 0
    assert out.strip() == "Member"


@pytest.mark.parametrize(
    "gen, argv, expected",
    [
        ("x", ("nu", "--element", "x", "--cap", "3000"), "1"),
        (
            "x",
            ("member", "--element", "x", "--weight", "2000", "--nmax", "1", "--cap", "3000"),
            "NonMemberAtCap",
        ),
        ("x^1100*y", ("ord", "--point", "0,1"), "1100"),
    ],
    ids=["nu", "member", "ord"],
)
def test_deep_levels_and_high_powers(tmp_path, capsys, gen, argv, expected) -> None:
    path = tmp_path / "deep.qr"
    path.write_text(f"field Q\nchart x y\ngen {gen} : 1\n")
    command, *options = argv
    code, out = run(capsys, command, str(path), *options)
    assert (code, out.strip()) == (0, expected)


DEEP = "(" * 400 + "x" + ")" * 400


@pytest.mark.parametrize(
    "gen, element, message",
    [
        ("x", DEEP, "error: polynomial nests too deeply"),
        (DEEP, "x", "error: line 3: polynomial nests too deeply"),
    ],
    ids=["element", "gen-line"],
)
def test_deep_nesting_exits_2(tmp_path, capsys, gen, element, message) -> None:
    path = tmp_path / "nested.qr"
    path.write_text(f"field Q\nchart x\ngen {gen} : 1\n")
    code = main(["nu", str(path), "--element", element])
    assert (code, capsys.readouterr().err.strip()) == (2, message)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("nu", "--element", "x", "--cap", "abc"), "bad cap 'abc'"),
        (("member", "--element", "x", "--weight", "1/0"), "bad weight '1/0'"),
        (("ord", "--point", "0,1/0,0"), "bad coordinate '1/0'"),
    ],
    ids=["cap", "weight", "point"],
)
def test_bad_rational_options_exit_2(umbrella, capsys, argv, message) -> None:
    command, *options = argv
    code = main([command, umbrella, *options])
    assert (code, capsys.readouterr().err.strip()) == (2, f"error: {message}")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("member", "--element", "x", "--weight", "1", "--nmax", "0"), "n_max must be at least 1, got 0"),
        (("member", "--element", "x", "--weight", "1", "--cap", "-1"), "cap must be at least 0, got -1"),
        (("nubar", "--element", "x", "--nmax", "0"), "n_max must be at least 1, got 0"),
        (("nu", "--element", "x", "--cap", "-1"), "cap must be at least 0, got -1"),
        (("equiv", "--other", "J", "--nmax", "0"), "n_max must be at least 1, got 0"),
        (("resolve", "--max-steps", "-1"), "max_steps must be at least 0, got -1"),
    ],
    ids=["member-nmax", "member-cap", "nubar-nmax", "nu-cap", "equiv-nmax", "resolve-steps"],
)
def test_search_bounds_exit_6(umbrella, capsys, argv, message) -> None:
    command, *options = argv
    code = main([command, umbrella, *options])
    assert (code, capsys.readouterr().err.strip()) == (6, f"error: {message}")


def test_equiv_command(tmp_path, capsys) -> None:
    path = tmp_path / "pair.qr"
    path.write_text(PAIR)
    code, out = run(capsys, "equiv", str(path), "--algebra", "J", "--other", "K")
    assert (code, out.strip()) == (0, "Equivalent")


def test_witness_inequivalence_and_short_point_text(tmp_path, capsys) -> None:
    path = tmp_path / "jk.qr"
    path.write_text("field Q\nchart x y\nalgebra J\ngen x : 1\nalgebra K\ngen x^2 : 1\n")
    code, out = run(
        capsys, "member", str(path), "--algebra", "K", "--element", "x", "--weight", "1/2"
    )
    assert (code, out.strip()) == (0, "MemberWitness (power 2)")
    code, out = run(capsys, "equiv", str(path), "--other", "K")
    assert (code, out.strip()) == (0, "Inequivalent at (0, 0): orders 1 and 2 disagree")
    code = main(["ord", str(path), "--point", "1"])
    assert (code, capsys.readouterr().err.strip()) == (
        2,
        "error: point needs 2 coordinates, got 1",
    )


def test_resolve_text_and_json(umbrella, capsys) -> None:
    code, out = run(capsys, "resolve", umbrella)
    assert code == 0
    assert "status: resolved" in out
    assert "step 0: blow up chart 0 at V(x, y, z)" in out

    code, out = run(capsys, "resolve", umbrella, "--json")
    doc = json.loads(out)
    assert doc["status"] == "resolved"
    assert len(doc["steps"]) == 5


def test_resolve_dot_output(umbrella, capsys) -> None:
    code, out = run(capsys, "resolve", umbrella, "--dot")
    assert code == 0
    assert out.startswith("digraph charts {")
    assert '"0" -> "0.1z"' in out


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "field Q\nchart x y z\ngen x^2 : 2\ngen (y + z - 1)^2 : 2\n"
            "divisor y created 1\ndivisor z created 1\n",
            "maximal divisor contact is attained on several distinct loci",
        ),
        (
            "field Q\nchart x\ngen (x - 1)^2 : 2\ndivisor x created 1\n",
            "the deepest point left the divisor's coordinate hyperplane",
        ),
    ],
    ids=["loci", "line"],
)
def test_chart_split_exits_4(tmp_path, capsys, text, message) -> None:
    path = tmp_path / "split.qr"
    path.write_text(text)
    code = main(["resolve", str(path)])
    assert (code, capsys.readouterr().err) == (4, f"error: chart 0 at step 1: {message}\n")


def test_parse_error_exit_code(tmp_path, capsys) -> None:
    path = tmp_path / "bad.qr"
    path.write_text("field Q\nchart x y\ngen x + w : 1\n")
    code = main(["sing", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 3" in err


@pytest.mark.parametrize(
    "make, reason",
    [
        (lambda path: None, "No such file or directory"),
        (lambda path: path.mkdir(), "Is a directory"),
        (
            lambda path: path.write_bytes(b"field Q\n\xff\n"),
            "'utf-8' codec can't decode byte 0xff in position 8: invalid start byte",
        ),
    ],
    ids=["missing", "directory", "not-utf8"],
)
def test_unreadable_file_exits_2(tmp_path, capsys, make, reason) -> None:
    path = tmp_path / "problem.qr"
    make(path)
    code = main(["sing", str(path)])
    assert (code, capsys.readouterr().err) == (2, f"error: cannot read {path}: {reason}\n")


@pytest.mark.parametrize(
    "text, line",
    [
        ("field F 4\nchart x y\ngen x^2 : 2\n", 1),
        ("field F 3\nchart x y\ngen x^2 + 1/3*y : 2\n", 3),
    ],
    ids=["non-prime-field", "denominator-divisible-by-p"],
)
def test_field_errors_exit_code(tmp_path, capsys, text: str, line: int) -> None:
    path = tmp_path / "bad.qr"
    path.write_text(text)
    code = main(["resolve", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: line {line}: ")


def test_element_denominator_divisible_by_p_exit_code(tmp_path, capsys) -> None:
    path = tmp_path / "char3.qr"
    path.write_text("field F 3\nchart x y\ngen x^2 + y^3 : 2\n")
    code = main(["nu", str(path), "--element", "1/3*x"])
    assert code == 2
    assert "denominator 3 vanishes modulo 3" in capsys.readouterr().err


def test_characteristic_error_exit_code(tmp_path, capsys) -> None:
    path = tmp_path / "char2.qr"
    path.write_text(CHAR2)
    code = main(["resolve", str(path)])
    assert code == 3
    # saturation itself is fine in characteristic two
    code = main(["diff", str(path)])
    assert code == 0


def test_unknown_algebra_exit_code(umbrella, capsys) -> None:
    code = main(["sing", umbrella, "--algebra", "K"])
    assert (code, capsys.readouterr().err) == (2, "error: no algebra named K (have: J)\n")


def test_closed_stdout_exits_quietly(umbrella) -> None:
    """A reader that closed the pipe ends the run with status 141 and an
    empty stderr, not a BrokenPipeError traceback."""
    path = [str(Path(qrees.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "qrees.cli", "resolve", umbrella, "--json"],
            stdout=write,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write)
    assert done.stderr == b""
    assert done.returncode == 141
