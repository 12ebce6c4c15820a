"""Polynomial arithmetic against brute-force oracles."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from qrees.errors import ProblemParseError
from qrees.field import QQ, FieldSpec
from qrees.poly import (
    INFINITY,
    Infinity,
    Polynomial,
    format_polynomial,
    parse_polynomial,
)

from kit import P, XY, XYZ, record_calls, rejected


def test_parse_format_round_trip() -> None:
    for text in ("x^2 + y^3", "2*x*y - 7", "x^4 - 3*x^2*y + y^2 - 1", "0", "5"):
        p = P(text)
        again = parse_polynomial(format_polynomial(p), QQ, XY)
        assert again == p


def test_parse_rational_coefficients() -> None:
    p = P("1/2*x + 3/4")
    assert p.terms[(1, 0)] == Fraction(1, 2)
    assert p.terms[(0, 0)] == Fraction(3, 4)


def test_parse_rejects_unknown_variable() -> None:
    with pytest.raises(ProblemParseError):
        P("x + w")


def test_parse_parentheses_and_powers() -> None:
    p = P("(x + y)^2")
    q = P("x^2 + 2*x*y + y^2")
    assert p == q


@pytest.mark.parametrize(
    "text, message",
    [
        ("x $ y", "unexpected character '$' in polynomial"),
        ("x +", "polynomial ended unexpectedly"),
        ("x/0", "'/' must be followed by a nonzero integer"),
        ("(x^2^3)", "missing ')' in polynomial"),
        ("x + * y", "unexpected token '*' in polynomial"),
        ("x^y", "'^' must be followed by an integer"),
        ("x)", "trailing tokens in polynomial: ')'"),
        pytest.param(
            "(" * 400 + "x" + ")" * 400, "polynomial nests too deeply", id="deep-parentheses"
        ),
        pytest.param("-" * 1200 + "x", "polynomial nests too deeply", id="deep-unary-minus"),
    ],
)
def test_parse_errors_name_the_fault(text: str, message: str) -> None:
    with pytest.raises(ProblemParseError) as info:
        P(text)
    assert str(info.value) == message


def test_juxtaposition_multiplies() -> None:
    assert P("2x") == P("2*x")
    assert P("x(y + 1)") == P("x*(y + 1)")
    assert P("3x^2y") == P("3*x^2*y")


def test_parse_grammar() -> None:
    """The rules README's problem-file section states."""
    assert P("-x^2").terms == {(2, 0): -1}
    assert P("-2^2") == P("-4")
    assert P("2^3x") == P("8*x")
    assert P("x/2*y") == P("1/2*x*y")
    assert P("(x + y)/2 + x") == P("3/2*x + 1/2*y")
    assert P("x^0 + 0^0") == P("2")
    F3 = FieldSpec(3)
    assert P("3*x + y", field=F3) == P("y", field=F3)
    assert P("x/2", field=F3) == P("2*x", field=F3)


def test_arithmetic_matches_evaluation() -> None:
    """Ring operations commute with evaluation on a grid of points."""
    f = P("x^2 - 3*y + 1")
    g = P("x*y + 2")
    points = [
        {"x": Fraction(a), "y": Fraction(b)}
        for a, b in product((-2, -1, 0, 1, 2), repeat=2)
    ]
    for pt in points:
        assert (f + g).evaluate(pt) == f.evaluate(pt) + g.evaluate(pt)
        assert (f - g).evaluate(pt) == f.evaluate(pt) - g.evaluate(pt)
        assert (f * g).evaluate(pt) == f.evaluate(pt) * g.evaluate(pt)
        assert (f**3).evaluate(pt) == f.evaluate(pt) ** 3


def product_oracle(f: Polynomial, g: Polynomial) -> Polynomial:
    """The per-pair field.mul/field.add loop that `Polynomial.__mul__` ran
    before it multiplied integers: each exponent where its first pair puts
    it."""
    field = f.field
    terms = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            prod = field.mul(c1, c2)
            terms[e] = field.add(terms[e], prod) if e in terms else prod
    return Polynomial(field, f.variables, terms)


@pytest.mark.parametrize(
    "field, f, g",
    [
        (QQ, "x/2 - 2*y/3 + 5", "3*x/4 + y + 7/6"),
        (QQ, "x/2 + y/3", "x/2 - y/3"),
        (QQ, "x^2/6 - x*y/10 + 1/15", "5*x - y/4 + 3/7"),
        (QQ, "x - 1", "x^3 + x^2 + x + 1"),
        (QQ, "2*x*y", "3*y"),
        (FieldSpec(3), "x + 2*y + 1", "2*x + y + 2"),
        (FieldSpec(3), "x + y", "x - y"),
        (FieldSpec(3), "x^2 + x*y + y^2", "x - y"),
    ],
)
def test_product_matches_per_pair_oracle(field: FieldSpec, f: str, g: str) -> None:
    """Same terms, same order and same coefficient types, also where mixed
    denominators meet and where terms cancel."""
    a, b = P(f, XY, field), P(g, XY, field)
    got, want = list((a * b).terms.items()), list(product_oracle(a, b).terms.items())
    assert got == want
    assert [type(c) for _, c in got] == [type(c) for _, c in want]


def test_zero_polynomial_conventions() -> None:
    z = Polynomial.zero(QQ, XY)
    assert z.is_zero()
    assert z.total_degree() == -1
    assert isinstance(z.order(), Infinity)
    assert z + z == z
    assert z * P("x") == z


def test_negative_power_and_constant_value_of_a_variable_rejected() -> None:
    with rejected("negative power of a polynomial", ValueError):
        P("x") ** -1
    with rejected("x is not constant", ValueError):
        P("x").constant_value()


def test_order_is_minimal_term_degree() -> None:
    assert P("x^2 + y^3").order() == 2
    assert P("x*y + x^5").order() == 2
    assert P("7").order() == 0
    assert P("x^2*y + y^4", XY).order() == 3


def test_order_in_vars_counts_only_selected() -> None:
    p = P("x^2*y + y*z^3", XYZ)
    assert p.order_in_vars(("x",)) == 0  # the y*z^3 term has no x
    assert p.order_in_vars(("y",)) == 1
    assert p.order_in_vars(("x", "z")) == 2


def test_divisor_valuation() -> None:
    p = P("x^2*y^3 + x^3*y^2")
    assert p.order_in_vars(("x",)) == 2
    assert p.order_in_vars(("y",)) == 2
    assert isinstance(Polynomial.zero(QQ, XY).order_in_vars(("x",)), Infinity)


# Reference scans: the generator-expression bodies that the map/itemgetter
# scans of Polynomial replaced.
def scan_oracle(p: Polynomial) -> dict:
    terms = p.terms
    return {
        "is_constant": all(sum(e) == 0 for e in terms),
        "total_degree": max(sum(e) for e in terms) if terms else -1,
        "order": min(sum(e) for e in terms) if terms else INFINITY,
    }


def degree_in_oracle(p: Polynomial, var: str) -> int:
    i = p.variables.index(var)
    return max(e[i] for e in p.terms) if p.terms else -1


def order_in_vars_oracle(p: Polynomial, vars: tuple[str, ...]):
    idx = [p.variables.index(v) for v in vars]
    return min(sum(e[i] for i in idx) for e in p.terms) if p.terms else INFINITY


@pytest.mark.parametrize("field", [QQ, FieldSpec(3)])
def test_exponent_scans_match_oracle(field: FieldSpec) -> None:
    """On seeded polynomials in 1-4 variables, the zero polynomial and
    constants, every scan equals its generator-expression reference, and
    order_in_vars does so on every subset of the variables, on () and on a
    repeated name."""
    rng = random.Random(35 + field.characteristic)
    for k in range(1, 5):
        variables = ("x", "y", "z", "w")[:k]
        subsets = [s for r in range(k + 1) for s in combinations(variables, r)]
        polys = [Polynomial.zero(field, variables), Polynomial.constant(field, variables, 2)]
        for _ in range(40):
            terms = {
                tuple(rng.choice((0, 0, 1, 2, 5)) for _ in variables): field.coerce(rng.randint(1, 4))
                for _ in range(rng.randint(1, 6))
            }
            polys.append(Polynomial(field, variables, terms))
        for p in polys:
            got = {
                "is_constant": p.is_constant(),
                "total_degree": p.total_degree(),
                "order": p.order(),
            }
            assert got == scan_oracle(p), p.terms
            for v in variables:
                assert p.degree_in(v) == degree_in_oracle(p, v), (p.terms, v)
            for s in [*subsets, ("x", "x")]:
                assert p.order_in_vars(s) == order_in_vars_oracle(p, s), (p.terms, s)
        assert polys[0].order_in_vars(()) == INFINITY
        assert polys[1].order_in_vars(()) == 0
        ring = f"{'Q' if field.is_rational else 'F_3'}[{', '.join(variables)}]"
        for p in polys[:3]:
            with rejected(f"v is not a variable of {ring}"):
                p.order_in_vars(("x", "v"))
            with rejected(f"v is not a variable of {ring}"):
                p.degree_in("v")


def test_restrict_zero_drops_variable_from_ring() -> None:
    p = P("x^2 + x*y + y^3")
    r = p.restrict_zero("x")
    assert r.variables == ("y",)
    assert r == parse_polynomial("y^3", QQ, ("y",))


def test_in_ring_moves_by_name() -> None:
    p = parse_polynomial("y^2 + z", QQ, XYZ)
    q = p.in_ring(("y", "z"))
    assert q.variables == ("y", "z")
    assert q == parse_polynomial("y^2 + z", QQ, ("y", "z"))
    with rejected("x + y involves x, outside Q[y]"):
        P("x + y").in_ring(("y",))


@pytest.mark.parametrize(
    "other, ring",
    [
        (P("x", ("y", "x")), "Q[y, x]"),
        (P("x", XYZ), "Q[x, y, z]"),
        (P("x", XY, FieldSpec(3)), "F_3[x, y]"),
    ],
    ids=["reordered", "larger", "other-field"],
)
def test_arithmetic_across_rings_names_both_rings(other: Polynomial, ring: str) -> None:
    message = f"x lives in {ring}, not in Q[x, y]"
    f = P("x + y")
    with rejected(message):
        f + other
    with rejected(message):
        f * other
    with rejected(message):
        f.substitute({"y": other})


def test_substitute_matches_composition() -> None:
    f = P("x^2*y + y")
    # both variables mapped, then y left out while x's image holds it
    for image in ({"x": P("x*y"), "y": P("y + 1")}, {"x": P("x*y + y")}):
        g = f.substitute(image)
        for a, b in product((-1, 0, 1, 2), repeat=2):
            pt = {"x": Fraction(a), "y": Fraction(b)}
            inner = pt | {k: image[k].evaluate(pt) for k in image}
            assert g.evaluate(pt) == f.evaluate(inner)


def test_substitute_of_variable_outside_the_ring_rejected() -> None:
    with rejected("w is not a variable of Q[x, y, z]"):
        P("x", XYZ).substitute({"w": P("x", XYZ)})


def test_taylor_shift_oracle() -> None:
    """g = f shifted by c satisfies g(p) = f(p + c) pointwise."""
    f = P("x^3 - 2*x*y + y^2 + 5")
    shift = {"x": Fraction(2), "y": Fraction(-1)}
    g = f.shift(shift)
    for a, b in product((-2, 0, 1, 3), repeat=2):
        pt = {"x": Fraction(a), "y": Fraction(b)}
        moved = {"x": pt["x"] + shift["x"], "y": pt["y"] + shift["y"]}
        assert g.evaluate(pt) == f.evaluate(moved)


def test_shift_of_a_high_power() -> None:
    assert P("x^1100*y").shift({"y": 1}) == P("x^1100*y + x^1100")


def test_shifts_and_powers_take_no_product_by_one(monkeypatch) -> None:
    cube, mixed, line = P("x^3", ("x",)), P("x^2*y + y^2"), P("x + 1")
    products = record_calls(monkeypatch, Polynomial, "__mul__")
    # each power table: img^2, ..., img^d; each term: one product per extra factor
    assert cube.shift({"x": 1}) == P("x^3 + 3*x^2 + 3*x + 1", ("x",))
    assert len(products) == 2
    products.clear()
    assert mixed.shift({"x": 1, "y": 2}) == P("(x + 1)^2*(y + 2) + (y + 2)^2")
    assert len(products) == 3
    products.clear()
    # an unmoved variable keeps its exponent: only (y + 1)^2 is a product
    assert P("x^2*y*z^3 + x*y^2", XYZ).shift({"y": 1}) == P(
        "x^2*(y + 1)*z^3 + x*(y + 1)^2", XYZ
    )
    assert len(products) == 1
    products.clear()
    assert line ** 2 == P("x^2 + 2*x + 1")
    assert len(products) == 1
    products.clear()
    assert line ** 1 == line
    assert line ** 0 == P("1")
    assert not products


def test_shift_by_polynomial_outside_the_ring_rejected() -> None:
    with rejected("shift of x involves z, outside Q[x, y]"):
        P("x^2 + y").shift({"x": P("z", XYZ)})


def test_shift_of_variable_outside_the_ring_rejected() -> None:
    with rejected("cannot shift w: not a variable of Q[x, y]"):
        P("x^2 + y").shift({"w": 1})


def hasse_oracle(p: Polynomial, alpha: tuple[int, ...]) -> Polynomial:
    """Divided-power derivative computed term by term from the definition."""
    out = Polynomial.zero(p.field, p.variables)
    for e, c in p.terms.items():
        if any(b < a for b, a in zip(e, alpha)):
            continue
        coeff = c
        for b, a in zip(e, alpha):
            coeff = p.field.mul(coeff, p.field.coerce(math.comb(b, a)))
        mono = Polynomial(
            p.field, p.variables, {tuple(b - a for b, a in zip(e, alpha)): coeff}
        )
        out = out + mono
    return out


def test_hasse_derivative_matches_oracle() -> None:
    p = P("x^4 + 3*x^2*y^3 - y^5 + 2*x*y")
    for alpha in product(range(4), repeat=2):
        assert p.hasse_derivative(alpha) == hasse_oracle(p, alpha)


def test_hasse_derivative_char_two() -> None:
    """In characteristic 2 the plain second derivative of x^2 vanishes but the
    divided-power derivative does not."""
    F2 = FieldSpec(2)
    p = parse_polynomial("x^2", F2, ("x",))
    assert p.hasse_derivative((1,)).is_zero()  # 2x = 0
    assert p.hasse_derivative((2,)) == parse_polynomial("1", F2, ("x",))


def test_hasse_derivative_edge_cases() -> None:
    p = P("x^4 + 3*x^2*y^3 - y^5 + 2*x*y")
    assert p.hasse_derivative((0, 0)) == p
    # C(3, 1) = 3 vanishes in F_3, so x^3 leaves nothing behind
    F3 = FieldSpec(3)
    q = P("x^3 + x^2*y", field=F3)
    assert q.hasse_derivative((1, 0)) == P("2*x*y", field=F3)
    assert P("x^3", field=F3).hasse_derivative((1, 0)).is_zero()
    # a coefficient and a binomial that are units mod p multiply mod p
    assert P("2*x^2", field=F3).hasse_derivative((1, 0)) == P("x", field=F3)


def test_hasse_leibniz_on_products() -> None:
    # D^alpha(fg) = sum over beta + gamma = alpha of D^beta f * D^gamma g
    f = P("x^2 + y")
    g = P("x*y + 1")
    for alpha in ((1, 0), (1, 1), (2, 0), (2, 1)):
        lhs = (f * g).hasse_derivative(alpha)
        rhs = Polynomial.zero(QQ, XY)
        for b0 in range(alpha[0] + 1):
            for b1 in range(alpha[1] + 1):
                beta = (b0, b1)
                gamma = (alpha[0] - b0, alpha[1] - b1)
                rhs = rhs + f.hasse_derivative(beta) * g.hasse_derivative(gamma)
        assert lhs == rhs


def test_format_runs_in_classic_grevlex_order() -> None:
    # degree first; within a degree the smaller power of the last variable wins
    assert format_polynomial(P("1 + y + x + y^2 + x*y + x^2")) == "x^2 + x*y + y^2 + x + y + 1"


@pytest.mark.parametrize("field", [QQ, FieldSpec(2), FieldSpec(3), FieldSpec(5)])
def test_equal_polynomials_hash_equal(field: FieldSpec) -> None:
    p = P("x^2*y - 2*x + 3*y^3", XY, field)
    # the same terms, inserted in the opposite order and with unreduced
    # coefficients
    q = Polynomial(
        field,
        XY,
        {e: field.coerce(c + field.characteristic) for e, c in reversed(list(p.terms.items()))},
    )
    r = (P("x^2*y + 3*y^3 + 1", XY, field) - P("2*x + 1", XY, field)) * P("1", XY, field)
    for other in (q, r):
        assert other == p
        assert hash(other) == hash(p)
    assert len({p, q, r}) == 1


def test_coefficient_in_var() -> None:
    p = P("x^2*y + x*y^2 + y^3")
    c1 = p.coefficient_in_var("x", 1)
    assert c1 == P("y^2")
    c0 = p.coefficient_in_var("x", 0)
    assert c0 == P("y^3")
    assert p.coefficient_in_var("x", 2) == P("y")


def test_formatting_signs_and_separators() -> None:
    assert format_polynomial(P("x^2 - y")) == "x^2 - y"
    assert format_polynomial(Polynomial.zero(QQ, XY)) == "0"


def oracle_format(p: Polynomial) -> str:
    """The display syntax spelled out term by term: descending grevlex, a
    factor list and a body per term, the " - " separator read off the body."""
    if p.is_zero():
        return "0"
    parts: list[str] = []
    rational = p.field.characteristic == 0
    # ascending grevlex is (degree, the exponents negated and reversed)
    terms = sorted(p.terms.items(), key=lambda t: (sum(t[0]), [-k for k in t[0][::-1]]))
    for e, c in reversed(terms):
        factors = [
            v if k == 1 else f"{v}^{k}"
            for v, k in zip(p.variables, e)
            if k > 0
        ]
        mono = "*".join(factors)
        if not mono:
            body = str(c)
        elif c == 1:
            body = mono
        elif rational and c == -1:
            body = f"-{mono}"
        else:
            body = f"{str(c)}*{mono}"
        if not parts:
            parts.append(body)
        elif body.startswith("-"):
            parts.append(f" - {body[1:]}")
        else:
            parts.append(f" + {body}")
    return "".join(parts)


@pytest.mark.parametrize("field", [QQ, FieldSpec(2), FieldSpec(3), FieldSpec(5)])
def test_format_matches_oracle(field: FieldSpec) -> None:
    """Byte for byte on seeded polynomials in 0-4 variables: zero,
    constants, coefficients 1, -1, p - 1, other negatives and fractions, and
    two exponent sets: up to 12, and at and past the end of the formatter's
    suffix table (63, 64, 65, 146, 1100).  Over F_p the negatives are passed
    to the constructor unreduced, as a caller may."""
    p = field.characteristic
    if p:
        coeffs = [1, p - 1, -1, -2, 2, 3]
    else:
        coeffs = [Fraction(c) for c in (1, -1, 2, -3, 10)] + [Fraction(1, 2), Fraction(-7, 3)]
    rng = random.Random(417 + p)
    printed = 0
    for exponents in ((0, 0, 1, 2, 3, 10, 12), (0, 0, 1, 2, 63, 64, 65, 146, 1100)):
        for k in range(5):
            variables = ("x", "y", "z", "w")[:k]
            assert format_polynomial(Polynomial.zero(field, variables)) == "0"
            for c in coeffs:
                const = Polynomial(field, variables, {(0,) * k: c})
                assert format_polynomial(const) == oracle_format(const)
            for _ in range(60):
                terms = {
                    tuple(rng.choice(exponents) for _ in variables): rng.choice(coeffs)
                    for _ in range(rng.randint(1, 6))
                }
                poly = Polynomial(field, variables, terms)
                assert format_polynomial(poly) == oracle_format(poly), terms
                printed += len(poly.terms) > 1
    assert printed >= 200
