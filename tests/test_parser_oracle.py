"""Cross-check parse_polynomial against sympy on seeded random expressions.

Each expression is written twice, once in the qrees syntax (with `^`,
implicit multiplication and `/n`) and once for sympy (with `**` and explicit
`*`); sympy expands the second, and its rational coefficients are mapped
into the field as num * den^-1.  sympy is a test-only dependency.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from qrees.field import FieldSpec
from qrees.poly import Polynomial, parse_polynomial

from kit import XYZ, record_calls

sympy = pytest.importorskip("sympy")

SYMBOLS = sympy.symbols(XYZ)
SEED = 20101018
CASES = 100
MAX_DEPTH = 3


class _Writer:
    """Random expressions over XYZ as (qrees text, sympy text) pairs."""

    def __init__(self, rng: random.Random, p: int) -> None:
        self.rng = rng
        self.p = p

    def expr(self, depth: int) -> tuple[str, str]:
        rng = self.rng
        q, s = self.term(depth)
        if rng.random() < 0.3:
            q, s = "-" + q, "-" + s
        for _ in range(rng.randint(0, 2)):
            op = rng.choice((" + ", " - "))
            tq, ts = self.term(depth)
            q, s = q + op + tq, s + op + ts
        return q, s

    def term(self, depth: int) -> tuple[str, str]:
        rng = self.rng
        q, s = self.factor(depth)
        for _ in range(rng.randint(0, 2)):
            if rng.random() < 0.2:
                # a divisor the field can invert
                n = rng.choice([n for n in range(1, 10) if not self.p or n % self.p])
                q, s = f"{q}/{n}", f"({s})/{n}"
                continue
            fq, fs = self.factor(depth)
            if fq.startswith("-") or rng.random() < 0.5:
                sep = "*"
            elif fq.startswith("(") or (q[-1].isdigit() and fq[0].isalpha()):
                sep = ""  # 2x, x(y + 1), (x)(y)
            else:
                sep = " "  # x y, 2 3, x^2 y
            q, s = q + sep + fq, f"{s}*{fs}"
        return q, s

    def factor(self, depth: int) -> tuple[str, str]:
        rng = self.rng
        kind = rng.choice(("number", "variable", "variable", "group", "minus"))
        if kind == "minus":
            q, s = self.factor(depth)
            return "-" + q, f"(-{s})"
        if kind == "group" and depth < MAX_DEPTH:
            q, s = self.expr(depth + 1)
            q, s, top = f"({q})", f"({s})", 2
        elif kind == "number":
            q = s = str(rng.randint(0, 9))
            top = 3
        else:
            q = s = rng.choice(XYZ)
            top = 4
        if rng.random() < 0.4:
            k = rng.randint(0, top)
            q, s = f"{q}^{k}", f"({s})**{k}"
        return q, s


def _oracle_terms(text: str, field: FieldSpec) -> dict[tuple[int, ...], object]:
    expanded = sympy.expand(sympy.sympify(text, locals=dict(zip(XYZ, SYMBOLS))))
    p = field.characteristic
    out = {}
    for exps, c in sympy.Poly(expanded, *SYMBOLS, domain="QQ").terms():
        num, den = int(c.p), int(c.q)
        value = Fraction(num, den) if not p else num * pow(den, -1, p) % p
        if value:
            out[tuple(exps)] = value
    return out


@pytest.mark.parametrize("p", (0, 3, 5), ids=("Q", "F_3", "F_5"))
def test_parse_matches_sympy_expansion(p: int) -> None:
    field = FieldSpec(p)
    rng = random.Random(SEED + p)
    for _ in range(CASES):
        ours, theirs = _Writer(rng, p).expr(0)
        parsed = parse_polynomial(ours, field, XYZ)
        assert parsed.terms == _oracle_terms(theirs, field), (ours, theirs)


def test_parse_builds_one_polynomial(monkeypatch) -> None:
    made = record_calls(monkeypatch, Polynomial, "__init__")
    text = "3x^2*y - 2*z*w^2 + x*y*z*w/2 - 7 + (y)^3"
    f = parse_polynomial(text, FieldSpec(0), ("x", "y", "z", "w"))
    assert len(f.terms) == 5
    assert len(made) == 1
