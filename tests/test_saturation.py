"""Differential saturation, grid orders, and bounded integral membership."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product

import pytest

from qrees.algebra import QReesAlgebra, _compositions, format_algebra
from qrees.charts import (
    coefficient_algebra,
    non_monomial_part,
    transform_algebra,
)
from qrees.field import QQ, FieldSpec
from qrees.poly import INFINITY, Infinity, Polynomial, parse_polynomial
from qrees.saturation import (
    CAP_REACHED,
    diff_saturate,
    equivalence_check,
    is_integral_member,
    nu,
    nu_bar_estimate,
)

from kit import A, P, XY, XYZ, rejected
from test_geometry import divide_by_power


def test_diff_saturate_cusp() -> None:
    sat = diff_saturate(A(("x^2 + y^3", 2)))
    pairs = {(tuple(sorted(f.terms.items())), w) for f, w in sat.generators}
    assert len(sat.generators) == 3
    weights = sorted(w for _, w in sat.generators)
    assert weights == [Fraction(1), Fraction(1), Fraction(2)]


def test_diff_saturate_weight_one_is_identity() -> None:
    alg = A(("x*y", 1), ("x + y^2", 1))
    assert diff_saturate(alg).generators == alg.generators


def test_diff_saturate_fractional_weight() -> None:
    # ceil(3/2) - 1 = 1, so first derivatives appear at weight 1/2
    sat = diff_saturate(A(("x^2", Fraction(3, 2))))
    weights = sorted(w for _, w in sat.generators)
    assert weights == [Fraction(1, 2), Fraction(3, 2)]


def test_diff_saturate_drops_zero_derivatives_and_duplicates() -> None:
    F2 = FieldSpec(2)
    f = parse_polynomial("x^2 + y^2*z", F2, XYZ)
    sat = diff_saturate(QReesAlgebra(F2, XYZ, ((f, Fraction(2)),)))
    # in characteristic 2 only the z-derivative survives: y^2 at weight 1
    assert len(sat.generators) == 2
    extra = [(f, w) for f, w in sat.generators if w == 1]
    assert len(extra) == 1
    assert extra[0][0] == parse_polynomial("y^2", F2, XYZ)


def oracle_compositions(k: int, total: int):
    """Every exponent tuple of length k summing to total, lexicographically
    descending, with no degree bound."""
    if k == 0:
        if total == 0:
            yield ()
        return
    if k == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in oracle_compositions(k - 1, total - head):
            yield (head,) + rest


@pytest.mark.parametrize(
    "caps", [(), (0,), (3,), (0, 0), (2, 0, 1), (1, 3, 0, 2), (2, 2, 2)], ids=str
)
def test_composition_table_matches_oracle(caps: tuple[int, ...]) -> None:
    """Row m of _compositions(n, caps) is the oracle's row m cut down to
    alpha <= caps, order kept, for every n up to three past sum(caps) + 1."""
    for n in range(sum(caps) + 5):
        rows = _compositions(n, caps)
        assert len(rows) == n
        for m, row in enumerate(rows):
            capped = [
                alpha
                for alpha in oracle_compositions(len(caps), m)
                if all(a <= c for a, c in zip(alpha, caps))
            ]
            assert row == capped, (n, m)


def oracle_diff_saturate(alg: QReesAlgebra) -> QReesAlgebra:
    """Form every D^alpha f with |alpha| < ceil(a), keep the nonzero ones not
    already kept at the same weight, and build through the validating
    constructor."""
    gens = []
    seen = set()
    for f, a in alg.generators:
        for m in range(math.ceil(a)):
            w = a - m
            for alpha in oracle_compositions(len(alg.variables), m):
                d = f.hasse_derivative(alpha)
                if d.is_zero() or (d, w) in seen:
                    continue
                seen.add((d, w))
                gens.append((d, w))
    return QReesAlgebra(alg.field, alg.variables, tuple(gens))


def oracle_coefficient_algebra(alg: QReesAlgebra, var: str) -> QReesAlgebra:
    sub = tuple(v for v in alg.variables if v != var)
    return QReesAlgebra(
        alg.field,
        sub,
        tuple((f.restrict_zero(var), a) for f, a in oracle_diff_saturate(alg).generators),
    )


F2 = FieldSpec(2)
F3 = FieldSpec(3)
SEEDED_WEIGHTS = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3), Fraction(4))


def random_polynomial(rng: random.Random, field: FieldSpec, variables) -> Polynomial:
    coeffs = (1, -1, 2, Fraction(1, 2)) if field.is_rational else range(1, field.characteristic)
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = tuple(rng.randint(0, 3) for _ in variables)
        terms[exps] = field.coerce(rng.choice(coeffs))
    return Polynomial(field, variables, terms)


def seeded_algebras() -> list[QReesAlgebra]:
    """200 algebras over Q, F_2 and F_3 in 3-4 variables, with repeated
    generators, scalar multiples and inputs like x + y whose derivatives
    coincide."""
    rng = random.Random(20101008)
    out = []
    for i in range(200):
        field = (QQ, F2, F3)[i % 3]
        variables = ("x", "y", "z", "w")[: rng.randint(3, 4)]
        gens = []
        for _ in range(rng.randint(1, 3)):
            gens.append((random_polynomial(rng, field, variables), rng.choice(SEEDED_WEIGHTS)))
        kind = i % 4
        if kind == 1:
            gens.append(rng.choice(gens))
        elif kind == 2:
            f, a = rng.choice(gens)
            # over F_2 the only nonzero multiple is f itself
            gens.append((f.scale(1 if field.characteristic == 2 else rng.choice((2, -1))), a))
        elif kind == 3:
            u, v = rng.sample(variables, 2)
            line = Polynomial.variable(field, variables, u) + Polynomial.variable(field, variables, v)
            gens.append((line, rng.choice(SEEDED_WEIGHTS[2:])))
        out.append(QReesAlgebra(field, variables, tuple(gens)))
    return out


SEEDED = seeded_algebras()


@pytest.mark.parametrize("index", range(0, len(SEEDED), 20))
def test_diff_saturate_matches_oracle(index: int) -> None:
    """Generator lists agree exactly, order and repeats included, with the
    saturation and the restriction built by forming every derivative."""
    for alg in SEEDED[index : index + 20]:
        assert diff_saturate(alg) == oracle_diff_saturate(alg), format_algebra(alg)
        for var in alg.variables:
            assert coefficient_algebra(alg, var) == oracle_coefficient_algebra(alg, var)


def test_saturation_weights_stay_fractions() -> None:
    """==, hash and str cannot tell Fraction(2) from 2, so the type itself is
    checked, on the integral weights a - |alpha| too."""
    weights = []
    for alg in SEEDED:
        weights += diff_saturate(alg).weights()
        for var in alg.variables:
            weights += coefficient_algebra(alg, var).weights()
    assert all(type(w) is Fraction for w in weights)
    assert 1 in weights and any(w.denominator > 1 for w in weights)


def test_diff_saturate_keeps_equal_derivatives_once_per_weight() -> None:
    """D_x and D_y of x + y are both 1: one copy at weight 1.  A repeated
    generator adds nothing; a scalar multiple is a different polynomial."""
    assert diff_saturate(A(("x + y", 2))).generators == ((P("x + y"), 2), (P("1"), 1))
    repeated = A(("x^2 + y^3", 2), ("x^2 + y^3", 2))
    assert diff_saturate(repeated).generators == diff_saturate(A(("x^2 + y^3", 2))).generators
    doubled = A(("x^2 + y^3", 2), ("2*x^2 + 2*y^3", 2))
    assert len(diff_saturate(doubled).generators) == 6


def test_diff_saturate_keeps_polynomials_with_one_support() -> None:
    """x + y and x + 2*y share their support, so they may share a hash, but
    they are different generators."""
    sat = diff_saturate(A(("x + y", 1), ("x + 2*y", 1)))
    assert [f for f, _ in sat.generators] == [P("x + y"), P("x + 2*y")]


def test_saturation_in_the_ring_without_variables() -> None:
    """coefficient_algebra of a one-variable algebra lives in the ring ();
    its constants are their own saturation and have order zero."""
    line = parse_polynomial("x + 2", QQ, ("x",))
    coeff = coefficient_algebra(QReesAlgebra(QQ, ("x",), ((line, Fraction(2)),)), "x")
    two, one = Polynomial.constant(QQ, (), 2), Polynomial.constant(QQ, (), 1)
    assert coeff.generators == ((two, 2), (one, 1))
    assert diff_saturate(coeff).generators == coeff.generators
    assert coeff.sing_ideal().is_unit()


def test_diff_saturate_memo_lives_on_the_instance() -> None:
    alg = A(("x^3 + x*y^2", 3), ("y^2", 2))
    before = (hash(alg), repr(alg))
    sat = diff_saturate(alg)
    assert diff_saturate(alg) is sat
    # the memo is not part of the value
    assert (hash(alg), repr(alg)) == before
    twin = A(("x^3 + x*y^2", 3), ("y^2", 2))
    assert twin == alg and hash(twin) == hash(alg)
    # equal algebras built anew start cold
    fresh = (
        twin,
        alg.scale(1),
        alg.odot(QReesAlgebra(QQ, XY, ())),
        alg.shift({}),
        QReesAlgebra(alg.field, alg.variables, alg.generators),
    )
    for other in fresh:
        assert other == alg
        assert diff_saturate(other) is not sat
        assert diff_saturate(other).generators == sat.generators


def test_coefficient_algebra_after_shift_matches_oracle() -> None:
    alg = A(("x^2 + y^3", 2), ("x*y - y^2", 2))
    # saturate alg first: its shifts must not see that result
    coefficient_algebra(alg, "x")
    for shift in ({"x": P("y")}, {"y": P("x^2")}, {"x": P("1")}):
        moved = alg.shift(shift)
        assert coefficient_algebra(moved, "x") == oracle_coefficient_algebra(moved, "x")
        assert diff_saturate(moved) == oracle_diff_saturate(moved)


def oracle_non_monomial_part(alg: QReesAlgebra, divisor_vars):
    """The sequential definition: strip one divisor after another, reading
    each ell off the algebra left by the divisions before it."""
    ells = []
    for var in divisor_vars:
        ell = alg.order_along((var,))
        ells.append(ell)
        if not isinstance(ell, Infinity) and ell > 0:
            alg = QReesAlgebra(
                alg.field,
                alg.variables,
                tuple(
                    (divide_by_power(f, var, math.ceil(a * ell)), a)
                    for f, a in alg.generators
                ),
            )
    return alg, ells


def test_non_monomial_part_matches_sequential_strip() -> None:
    rng = random.Random(19)
    stripped = 0
    for alg in SEEDED:
        divisors = rng.sample(alg.variables, rng.randint(0, len(alg.variables)))
        got, ells = non_monomial_part(alg, divisors)
        want, want_ells = oracle_non_monomial_part(alg, divisors)
        assert ells == want_ells, (format_algebra(alg), divisors)
        # term order included, so the printed algebras agree byte for byte
        assert [(list(f.terms.items()), a) for f, a in got.generators] == [
            (list(f.terms.items()), a) for f, a in want.generators
        ], (format_algebra(alg), divisors)
        stripped += sum(1 for e in ells if e > 0)
    assert stripped >= 50


def revalidated(alg: QReesAlgebra) -> QReesAlgebra:
    return QReesAlgebra(alg.field, alg.variables, alg.generators)


def assert_valid(alg: QReesAlgebra) -> None:
    """What the validating constructor would have made of the same pieces."""
    assert alg == revalidated(alg)
    assert all(type(a) is Fraction and a > 0 for _, a in alg.generators)


@pytest.mark.parametrize("index", range(0, len(SEEDED), 50))
def test_internal_constructions_are_valid(index: int) -> None:
    for alg in SEEDED[index : index + 50]:
        x = alg.variables[0]
        assert_valid(diff_saturate(alg))
        for var in alg.variables:
            assert_valid(coefficient_algebra(alg, var))
            assert_valid(non_monomial_part(alg, [var])[0])
        rest, _ = non_monomial_part(alg, alg.variables)
        assert_valid(rest)
        # x^ceil(a) times each generator is divisible after blowing up the origin
        lifted = QReesAlgebra(
            alg.field,
            alg.variables,
            tuple(
                (f * Polynomial.variable(alg.field, alg.variables, x) ** math.ceil(a), a)
                for f, a in alg.generators
            ),
        )
        assert_valid(transform_algebra(lifted, alg.variables, x))


def assert_zero_free(f: Polynomial) -> None:
    """No coefficient is zero: the filtering constructor keeps every term."""
    assert all(f.terms.values()), f.terms
    assert f == Polynomial(f.field, f.variables, dict(f.terms))


@pytest.mark.parametrize("index", range(0, len(SEEDED), 50))
def test_trusted_constructions_hold_no_zero(index: int) -> None:
    """Every polynomial built without the constructor's zero filter, over Q,
    F_2 and F_3, where binomials vanish modulo p: Hasse derivatives for every
    alpha <= deg, restrictions, coefficients in a variable, controlled
    transforms and divisorial strips."""
    for alg in SEEDED[index : index + 50]:
        ring = alg.variables
        for f, _ in alg.generators:
            degrees = f.degrees()
            for alpha in product(*(range(d + 1) for d in degrees)):
                assert_zero_free(f.hasse_derivative(alpha))
            for v, d in zip(ring, degrees):
                assert_zero_free(f.restrict_zero(v))
                for k in range(d + 1):
                    assert_zero_free(f.coefficient_in_var(v, k))
        x = Polynomial.variable(alg.field, ring, ring[0])
        lifted = QReesAlgebra(
            alg.field, ring, tuple((f * x ** math.ceil(a), a) for f, a in alg.generators)
        )
        for built in (transform_algebra(lifted, ring, ring[0]), non_monomial_part(lifted, ring)[0]):
            for f, _ in built.generators:
                assert_zero_free(f)


def nu_oracle(alg: QReesAlgebra, f: Polynomial, cap: Fraction) -> Fraction:
    """Scan the grid values from below instead of bisecting."""
    n = alg.denominator()
    best = Fraction(0)
    m = 1
    while Fraction(m, n) <= cap:
        if alg.level_ideal(Fraction(m, n)).contains(f):
            best = Fraction(m, n)
            m += 1
        else:
            break
    return best


def test_nu_matches_linear_scan() -> None:
    alg = A(("x", 1), ("y", 2))
    for text in ("x", "y", "x*y", "x^2*y", "x + y", "y^3"):
        f = P(text)
        assert nu(alg, f, Fraction(8)) == nu_oracle(alg, f, Fraction(8))


def test_nu_of_zero_is_infinite() -> None:
    alg = A(("x", 1))
    assert isinstance(nu(alg, Polynomial.zero(QQ, XY)), Infinity)


def test_nu_cap() -> None:
    # 1 is in every level of the unit algebra, so the search never closes
    alg = A(("1", 1))
    assert nu(alg, P("1"), Fraction(4)) == CAP_REACHED


def test_nu_fractional_grid() -> None:
    alg = A(("x", Fraction(1, 2)))
    # x^3 lies in level 3/2 but not level 2
    assert nu(alg, P("x^3"), Fraction(8)) == Fraction(3, 2)


def test_is_integral_member_direct() -> None:
    alg = A(("x^2", 1), ("y^2", 1))
    v = is_integral_member(alg, P("x^2"), Fraction(1))
    assert v.status == "Member"
    assert v.holds()


def test_is_integral_member_needs_square() -> None:
    """x*y is not in the level-1 ideal of (x^2, y^2 : 1) but its square is in
    level 2: the classic witness for integral closure."""
    alg = A(("x^2", 1), ("y^2", 1))
    assert not alg.level_ideal(Fraction(1)).contains(P("x*y"))
    v = is_integral_member(alg, P("x*y"), Fraction(1))
    assert v.status == "MemberWitness"
    assert v.power == 2
    assert v.holds()


def test_is_integral_member_rejects() -> None:
    alg = A(("x^2", 1))
    v = is_integral_member(alg, P("y"), Fraction(1))
    assert v.status == "NonMemberAtCap"
    assert not v.holds()
    # the first power's level already passes the cap: nothing is tested
    v = is_integral_member(A(("x^2 + y^3", 2)), P("x"), 5, cap=2)
    assert (v.status, v.power, v.level) == ("NonMemberAtCap", None, 5)


def test_is_integral_member_trivial_cases() -> None:
    alg = A(("x", 1))
    assert is_integral_member(alg, Polynomial.zero(QQ, XY), Fraction(1)).holds()
    assert is_integral_member(alg, P("y"), Fraction(0)).holds()
    with rejected("membership weight must be nonnegative"):
        is_integral_member(alg, P("y"), -1)


def test_equivalence_of_redundant_presentation() -> None:
    f = P("x^2 + y^3")
    a = QReesAlgebra(QQ, XY, ((f, Fraction(2)),))
    b = QReesAlgebra(QQ, XY, ((f, Fraction(2)), (f, Fraction(1))))
    verdict = equivalence_check(a, b)
    assert verdict.status == "Equivalent"


def test_equivalence_detects_order_mismatch() -> None:
    # the order at a rational point is the same invariant in every characteristic
    for field in (QQ, F2, F3):
        verdict = equivalence_check(A(("x", 1), field=field), A(("y", 1), field=field))
        assert verdict.status == "Inequivalent"
        assert verdict.witness_point == (0, 1)
        assert verdict.detail == "orders 1 and 0 disagree"


@pytest.mark.parametrize("field", [QQ, FieldSpec(7)], ids=["Q", "F_7"])
def test_equivalence_unknown_when_orders_agree_at_every_sample(field: FieldSpec) -> None:
    # neither x = 3 nor x = 5 is a sample point, so every order is 0 on both sides
    verdict = equivalence_check(A(("x - 3", 1), field=field), A(("x - 5", 1), field=field))
    assert (verdict.status, verdict.witness_point, verdict.detail) == ("Unknown", None, "")


def test_equivalence_zero_algebras() -> None:
    zero = QReesAlgebra(QQ, XY, ())
    assert equivalence_check(zero, zero).status == "Equivalent"
    assert equivalence_check(zero, A(("x", 1))).status == "Inequivalent"


def test_equivalence_scaled_weights_differ() -> None:
    # same polynomial, half the weight: orders differ at the origin
    a = A(("x^2", 2))
    b = A(("x^2", 1))
    assert equivalence_check(a, b).status == "Inequivalent"


def test_nu_bar_estimate_improves_on_nu() -> None:
    alg = A(("x^2", 1), ("y^2", 1))
    f = P("x*y")
    assert nu(alg, f, Fraction(8)) == Fraction(0)
    assert nu_bar_estimate(alg, f, n_max=2, cap=Fraction(4)) == Fraction(1)
    assert nu_bar_estimate(alg, Polynomial.zero(QQ, XY)) == INFINITY


@pytest.mark.parametrize(
    "query, message",
    [
        (lambda alg, f: nu(alg, f, cap=-1), "cap must be at least 0, got -1"),
        (lambda alg, f: nu(alg, Polynomial.zero(QQ, XY), cap=-1), "cap must be at least 0, got -1"),
        (lambda alg, f: nu_bar_estimate(alg, f, n_max=0), "n_max must be at least 1, got 0"),
        (lambda alg, f: nu_bar_estimate(alg, f, cap=-1), "cap must be at least 0, got -1"),
        (lambda alg, f: is_integral_member(alg, f, 1, n_max=0), "n_max must be at least 1, got 0"),
        (lambda alg, f: is_integral_member(alg, f, 1, cap=-1), "cap must be at least 0, got -1"),
        (lambda alg, f: is_integral_member(alg, Polynomial.zero(QQ, XY), 1, n_max=0), "n_max must be at least 1, got 0"),
        (lambda alg, f: equivalence_check(alg, alg, n_max=0), "n_max must be at least 1, got 0"),
        (lambda alg, f: equivalence_check(alg, alg, cap=-1), "cap must be at least 0, got -1"),
    ],
    ids=[
        "nu-cap",
        "nu-zero-cap",
        "nubar-nmax",
        "nubar-cap",
        "member-nmax",
        "member-cap",
        "member-zero-nmax",
        "equiv-nmax",
        "equiv-cap",
    ],
)
def test_search_bounds_checked_up_front(query, message) -> None:
    # before any shortcut: the zero element and equal algebras are checked too
    alg = A(("x^2", 1))
    with rejected(message):
        query(alg, P("x*y"))


@pytest.mark.parametrize(
    "query",
    [
        lambda alg, f: nu(alg, f),
        lambda alg, f: nu_bar_estimate(alg, f),
        lambda alg, f: is_integral_member(alg, f, 1),
    ],
    ids=["nu", "nu_bar_estimate", "is_integral_member"],
)
def test_element_outside_the_ring_rejected(query) -> None:
    alg = A(("x", 1), variables=("x",))
    with rejected("x + y lives in Q[x, y], not in Q[x]"):
        query(alg, P("x + y"))


@pytest.mark.parametrize("ring", [("y", "x"), XYZ], ids=["reordered", "larger"])
def test_nu_moves_no_element(ring) -> None:
    # x lies in both rings, yet only Polynomial.in_ring moves it
    x = P("x", ring)
    with rejected(f"x lives in Q[{', '.join(ring)}], not in Q[x, y]"):
        nu(A(("x", 1)), x)
    assert nu(A(("x", 1)), x.in_ring(XY)) == 1


def test_equivalence_check_across_rings_names_both_rings() -> None:
    f3 = FieldSpec(3)
    over_f3 = QReesAlgebra(f3, XY, ((parse_polynomial("x", f3, XY), Fraction(1)),))
    with rejected("right-hand algebra lives in F_3[x, y], not in Q[x, y]"):
        equivalence_check(A(("x", 1)), over_f3)
    with rejected("right-hand algebra lives in Q[x, y, z], not in Q[x, y]"):
        equivalence_check(A(("x", 1)), A(("x", 1), variables=XYZ))
