"""Groebner engine and ideal predicates."""

from __future__ import annotations

import contextlib
import heapq
import importlib
import random
from fractions import Fraction

import pytest

from qrees.field import QQ, FieldSpec
from qrees.ideal import (
    ClosedSet,
    Ideal,
    MonomialOrder,
    _unit,
    coordinate_ideal,
    groebner_basis,
    normal_form,
    shared_bases,
)
from qrees.poly import INFINITY, Polynomial, parse_polynomial

from kit import P, XY, XYZ, gb_calls, inverse, record_calls, rejected


def I(*texts: str, variables: tuple[str, ...] = XY) -> Ideal:
    return Ideal(QQ, variables, tuple(P(t, variables) for t in texts))


def test_groebner_of_principal_ideal_is_monic_generator() -> None:
    gb = groebner_basis(
        [P("2*x^2 + 2*y")], MonomialOrder.grevlex(XY)
    )
    assert gb == [P("x^2 + y")]


def test_groebner_classic_pair() -> None:
    """The standard textbook example: x^2 - y and x^3 - z have a grevlex basis
    that reveals y^3 - z^2 hiding in the ideal."""
    order = MonomialOrder.grevlex(XYZ)
    gb = groebner_basis(
        [P("x^2 - y", XYZ), P("x^3 - z", XYZ)], order
    )
    ideal = Ideal(QQ, XYZ, tuple(gb))
    assert ideal.contains(P("y^3 - z^2", XYZ))
    assert ideal.contains(P("x*y - z", XYZ))
    assert not ideal.contains(P("x - 1", XYZ))


def test_groebner_is_deterministic_under_permutation() -> None:
    gens = [P("x*y - 1"), P("y^2 - x")]
    a = groebner_basis(list(gens), MonomialOrder.grevlex(XY))
    b = groebner_basis(list(reversed(gens)), MonomialOrder.grevlex(XY))
    assert a == b


def test_normal_form_is_zero_exactly_on_members() -> None:
    order = MonomialOrder.grevlex(XY)
    basis = groebner_basis([P("x^2 + y^3")], order)
    member = P("(x^2 + y^3) * (x - y)")
    assert normal_form(member, basis, order).is_zero()
    assert not normal_form(P("x^2"), basis, order).is_zero()


def test_unit_and_zero_ideal_predicates() -> None:
    assert Ideal.unit(QQ, XY).is_unit()
    assert Ideal.zero(QQ, XY).is_zero_ideal()
    assert I("x", "1 - x").is_unit()
    assert not I("x", "y").is_unit()
    # groebner_basis answers exactly [1] in the input's ring: for a constant
    # generator (2, not 3, which vanishes in F_3), for a constant that only an
    # S-pair remainder reveals, and with a zero generator mixed in.
    for field in (QQ, FieldSpec(3)):
        for texts in (("2", "x"), ("x*y - 1", "x"), ("0", "x*y - 1", "x")):
            gens = [parse_polynomial(t, field, XY) for t in texts]
            gb = groebner_basis(gens, MonomialOrder.grevlex(XY))
            assert gb == [Polynomial.constant(field, XY, 1)], (field, texts)


def test_contains_respects_combinations() -> None:
    ideal = I("x^2 - y", "y^2")
    assert ideal.contains(P("x^2*y - y^2"))
    assert ideal.contains(P("x^4 - 2*x^2*y"))  # (x^2-y)^2 - y^2 + ... check below
    # (x^2 - y)^2 = x^4 - 2 x^2 y + y^2, so x^4 - 2 x^2 y = (x^2-y)^2 - y^2
    assert not ideal.contains(P("x"))


def test_radical_contains_detects_nilpotents() -> None:
    assert I("x^2").radical_contains(P("x"))
    assert I("(x + y)^3").radical_contains(P("x + y"))
    assert not I("x^2").radical_contains(P("y"))
    assert I("x^2*y^2").radical_contains(P("x*y"))


def test_radical_contains_over_finite_field() -> None:
    F2 = FieldSpec(2)
    gens = (parse_polynomial("x^2", F2, XY),)
    ideal = Ideal(F2, XY, gens)
    assert ideal.radical_contains(parse_polynomial("x", F2, XY))
    assert not ideal.radical_contains(parse_polynomial("y", F2, XY))


@pytest.mark.parametrize(
    "ring, fresh", [(("x", "t_"), "t__"), (("x", "t_", "t__"), "t___")], ids=["t_", "t__"]
)
def test_radical_contains_avoids_ring_variable_names(monkeypatch, ring, fresh) -> None:
    # the Rabinowitsch variable must not be one the ring already has
    units = record_calls(monkeypatch, Ideal, "is_unit")
    ideal = I("x^2", variables=ring)
    assert ideal.radical_contains(P("x", ring))
    assert not ideal.radical_contains(P("t_", ring))
    assert [u.variables for (u,) in units] == [ring + (fresh,)] * 2


def test_eliminate_drops_variable() -> None:
    # project the twisted pair onto (y, z): y^3 = z^2 survives
    ideal = Ideal(
        QQ, XYZ, (P("x^2 - y", XYZ), P("x^3 - z", XYZ))
    )
    projected = ideal.eliminate(("x",))
    assert projected.variables == ("y", "z")
    target = parse_polynomial("y^3 - z^2", QQ, ("y", "z"))
    assert projected.contains(target)
    for g in projected.basis():
        assert "x" not in g.support_vars()


def test_same_as_ignores_generator_presentation() -> None:
    a = I("x + y", "y^2")
    # x*y + y^2 = (x + y)*y lies in a, so c is a with other generators
    assert a.contains(P("x*y + y^2"))
    c = I("y^2", "2*x + 2*y", "x*y + y^2")
    assert a.same_as(c)
    assert not a.same_as(I("x", "y"))
    # b's last generator is c's plus x*y^2, which lies in (y^2)
    b = I("y^2", "2*x + 2*y", "x*y + y^2 + y^2*x")
    assert b.same_as(c)


def test_coordinate_ideal() -> None:
    ideal = coordinate_ideal(QQ, XYZ, ("x", "z"))
    assert ideal.contains(P("x", XYZ))
    assert ideal.contains(P("z", XYZ))
    assert not ideal.contains(P("y", XYZ))


def test_closed_set_subset_of_union() -> None:
    # V(xy) = V(x) union V(y)
    whole = ClosedSet([I("x*y")])
    split = ClosedSet([I("x"), I("y")])
    assert whole.subset_of(split)
    assert split.subset_of(whole)
    assert whole.same_as(split)


def test_closed_set_strict_containment() -> None:
    point = ClosedSet([I("x", "y")])
    line = ClosedSet([I("x")])
    assert point.subset_of(line)
    assert not line.subset_of(point)
    assert not point.same_as(line)


def test_closed_set_empty() -> None:
    assert ClosedSet([Ideal.unit(QQ, XY)]).is_empty()
    assert not ClosedSet([I("x")]).is_empty()


def test_closed_set_needs_a_component() -> None:
    with rejected("closed set needs at least one component"):
        ClosedSet([])


def test_elimination_order_blocks() -> None:
    order = MonomialOrder.eliminating(XYZ, ("x",))
    # any power of x beats anything in y, z alone
    assert order.key((1, 0, 0)) > order.key((0, 5, 5))
    lt = leading_term(P("x + y^4", XYZ), order)
    assert lt[0] == (1, 0, 0)
    # names outside the ring are dropped; none or all of the ring is grevlex
    assert MonomialOrder.eliminating(XYZ, ("x", "w")) == order
    for first in (("w",), XYZ):
        assert MonomialOrder.eliminating(XYZ, first) == MonomialOrder.grevlex(XYZ)


def test_closed_set_with_fat_components() -> None:
    """Radical-level comparisons ignore multiplicity in the defining ideals."""
    fat = ClosedSet([I("x^2", "y^3")])
    thin = ClosedSet([I("x", "y")])
    assert fat.same_as(thin)


# -- groebner_basis against the plain Buchberger algorithm ---------------------


# The Fraction reduction that groebner_basis and normal_form used before the
# integer core, kept as an independent oracle.


def leading_term(p: Polynomial, order: MonomialOrder):
    """(exponents, coefficient) of p's largest term under order."""
    if not p.terms:
        raise ValueError("zero polynomial has no leading term")
    e = max(p.terms, key=order.key)
    return e, p.terms[e]


def _sub_scaled(terms, coeff, shift, g: Polynomial, p: int) -> None:
    """terms -= coeff * x^shift * g in place over F_p (Q when p == 0);
    cancelled terms are removed."""
    for ge, gc in g.terms.items():
        e = tuple([a + b for a, b in zip(ge, shift)])
        v = terms.get(e, 0) - coeff * gc
        if p:
            v %= p
        if v:
            terms[e] = v
        else:
            terms.pop(e, None)


def fraction_normal_form(p: Polynomial, basis, order: MonomialOrder, leads=None) -> Polynomial:
    """Remainder of p under multivariate division by basis, over the field."""
    field = p.field
    if leads is None:
        leads = [leading_term(g, order) for g in basis]
    remainder = {}
    work = dict(p.terms)
    while work:
        e = max(work, key=order.key)
        c = work[e]
        for g, (ge, gc) in zip(basis, leads):
            if all(x <= y for x, y in zip(ge, e)):
                shift = tuple(x - y for x, y in zip(e, ge))
                _sub_scaled(work, field.mul(c, inverse(field, gc)), shift, g, field.characteristic)
                break
        else:
            remainder[e] = work.pop(e)
    return Polynomial(field, p.variables, remainder)


def _spoly(f: Polynomial, g: Polynomial, f_lead, g_lead) -> Polynomial:
    field = f.field
    (fe, fc), (ge, gc) = f_lead, g_lead
    lcm = tuple(max(x, y) for x, y in zip(fe, ge))
    terms = {}
    p = field.characteristic
    _sub_scaled(terms, field.neg(inverse(field, fc)), tuple(x - y for x, y in zip(lcm, fe)), f, p)
    _sub_scaled(terms, inverse(field, gc), tuple(x - y for x, y in zip(lcm, ge)), g, p)
    return Polynomial(field, f.variables, terms)



def buchberger_oracle(gens: list[Polynomial], order: MonomialOrder) -> list[Polynomial]:
    """Buchberger with only the coprime criterion, then interreduction that
    restarts until no element changes, as groebner_basis was before the
    Gebauer-Moeller criteria."""
    basis = [g for g in gens if not g.is_zero()]
    if not basis:
        return []
    if any(g.is_constant() for g in basis):
        return _unit(basis[0])
    leads = [leading_term(g, order) for g in basis]
    sugars = [g.total_degree() for g in basis]
    pairs: list = []

    def push_pairs(j: int) -> None:
        ge = leads[j][0]
        for i in range(j):
            fe = leads[i][0]
            lcm = tuple(max(a, b) for a, b in zip(fe, ge))
            if lcm == tuple(a + b for a, b in zip(fe, ge)):
                continue
            deg = sum(lcm)
            sugar = max(sugars[i] + deg - sum(fe), sugars[j] + deg - sum(ge))
            heapq.heappush(pairs, ((sugar, order.key(lcm), i, j), i, j))

    for j in range(len(basis)):
        push_pairs(j)
    while pairs:
        key, i, j = heapq.heappop(pairs)
        r = fraction_normal_form(_spoly(basis[i], basis[j], leads[i], leads[j]), basis, order, leads)
        if r.is_zero():
            continue
        if r.is_constant():
            return _unit(r)
        basis.append(r)
        leads.append(leading_term(r, order))
        sugars.append(key[0])
        push_pairs(len(basis) - 1)

    field = basis[0].field
    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            others = basis[:i] + basis[i + 1 :]
            if not others:
                continue
            r = fraction_normal_form(basis[i], others, order, leads[:i] + leads[i + 1 :])
            if r != basis[i]:
                changed = True
                if r.is_zero():
                    basis.pop(i)
                    leads.pop(i)
                else:
                    basis[i] = r
                    leads[i] = leading_term(r, order)
                break
    monic = [(order.key(e), g.scale(inverse(field, c))) for g, (e, c) in zip(basis, leads)]
    monic.sort(key=lambda t: t[0])
    return [g for _, g in monic]


def _random_generators(rng: random.Random):
    """1-3 random polynomials, each followed by a copy, a scalar multiple or
    its first Hasse derivatives (whose leads often divide its lead, as in
    order_ge_ideal)."""
    field = FieldSpec(rng.choice((0, 2, 3, 5)))
    ring = ("x", "y", "z", "w")[: rng.choice((3, 4))]
    if rng.random() < 0.5:
        order = MonomialOrder.grevlex(ring)
    else:
        order = MonomialOrder.eliminating(ring, ring[: rng.randint(1, len(ring) - 1)])
    coeffs = (1, -1, 2, 3, Fraction(1, 2)) if field.characteristic == 0 else range(1, field.characteristic)
    gens = []
    for _ in range(rng.randint(1, 3)):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            e = [0] * len(ring)
            for _ in range(rng.randint(1, 4)):
                e[rng.randrange(len(ring))] += 1
            terms[tuple(e)] = field.coerce(rng.choice(coeffs))
        f = Polynomial(field, ring, terms)
        gens.append(f)
        shape = rng.random()
        if shape < 0.2:
            gens.append(f)
        elif shape < 0.4:
            gens.append(f.scale(rng.choice(coeffs)))
        elif shape < 0.8:
            for k in range(len(ring)):
                gens.append(f.hasse_derivative(tuple(int(i == k) for i in range(len(ring)))))
    rng.shuffle(gens)
    return gens, order


def _oracle_cases() -> list:
    rng = random.Random(20101008)
    return [_random_generators(rng) for _ in range(200)]


def test_groebner_matches_buchberger_oracle() -> None:
    """Equal bases, and in the order of terms, which equality cannot see:
    every element lists its lead first, and in a basis of two or more
    elements each lists its terms in descending order."""
    seen = set()
    for gens, order in _oracle_cases():
        ours = groebner_basis(list(gens), order)
        assert ours == buchberger_oracle(list(gens), order), (gens, order)
        for g in ours:
            exps = list(g.terms)
            assert exps[0] == leading_term(g, order)[0], (gens, order, g)
            if len(ours) > 1:
                assert exps == sorted(exps, key=order.key, reverse=True), (gens, order, g)
        field = gens[0].field.characteristic
        seen.add((field, bool(order.first), len(ours) > 1))
    # every field and both orders gave bases of more than one element
    assert {(p, b) for p, b, many in seen if many} == {
        (p, b) for p in (0, 2, 3, 5) for b in (False, True)
    }


def test_groebner_pair_work_is_pinned(monkeypatch) -> None:
    """The oracle's cases form exactly 619 S-pairs.  An update that prunes
    fewer pairs gives the same bases, so only this count can see it."""
    spolys = record_calls(monkeypatch, importlib.import_module("qrees.ideal"), "_spoly")
    for gens, order in _oracle_cases():
        groebner_basis(list(gens), order)
    assert len(spolys) == 619


# -- the integer core ----------------------------------------------------------------


def test_groebner_coefficients_are_field_elements() -> None:
    """Fraction(2) == 2, so equality with a reference basis cannot see an int
    escaping the integer core over Q: the types are checked directly."""
    rng = random.Random(9)
    for _ in range(60):
        gens, order = _random_generators(rng)
        p = gens[0].field.characteristic
        for g in groebner_basis(list(gens), order):
            for c in g.terms.values():
                if p:
                    assert type(c) is int and 0 < c < p, (gens, order, g)
                else:
                    assert type(c) is Fraction, (gens, order, g)


def test_groebner_is_scale_invariant() -> None:
    """Multiplying the generators by nonzero scalars leaves the reduced basis
    unchanged, in both characteristics and both kinds of order."""
    rng = random.Random(17)
    seen = set()
    for _ in range(80):
        gens, order = _random_generators(rng)
        field = gens[0].field
        if field.characteristic:
            scalars = range(1, field.characteristic)
        else:
            scalars = (-1, Fraction(7, 3), Fraction(-1, 6), 10**20 + 1)
        scaled = [g.scale(rng.choice(scalars)) for g in gens]
        assert groebner_basis(scaled, order) == groebner_basis(list(gens), order), (gens, order)
        seen.add((field.characteristic, bool(order.first)))
    assert seen == {(p, b) for p in (0, 2, 3, 5) for b in (False, True)}


def _random_polynomial(rng: random.Random, field: FieldSpec, ring: tuple[str, ...]) -> Polynomial:
    coeffs = (1, -1, 2, -3, Fraction(5, 7)) if field.is_rational else range(1, field.characteristic)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e = tuple(rng.randint(0, 2) for _ in ring)
        terms[e] = field.coerce(rng.choice(coeffs))
    return Polynomial(field, ring, terms)


def test_contains_and_normal_form_match_fraction_division() -> None:
    """Ideal.contains agrees with Fraction division on seeded members and
    non-members, and normal_form returns the very remainder Fraction division
    gives, also by a basis that is not a Groebner basis."""
    rng = random.Random(23)
    answers = set()
    for _ in range(60):
        gens, _ = _random_generators(rng)
        field, ring = gens[0].field, gens[0].variables
        order = MonomialOrder.grevlex(ring)
        ideal = Ideal(field, ring, gens)
        basis = ideal.basis()
        member = Polynomial.zero(field, ring)
        for g in gens:
            member = member + _random_polynomial(rng, field, ring) * g
        for q in (member, _random_polynomial(rng, field, ring)):
            expected = q.is_zero() or fraction_normal_form(q, basis, order).is_zero()
            assert ideal.contains(q) == expected, (gens, q)
            assert normal_form(q, basis, order) == fraction_normal_form(q, basis, order)
            divisors = [g for g in gens if not g.is_zero()]
            assert normal_form(q, divisors, order) == fraction_normal_form(q, divisors, order)
            answers.add(expected)
        assert ideal.contains(member)
    assert answers == {True, False}


# -- ring checks ---------------------------------------------------------------------------

F3 = FieldSpec(3)


@pytest.mark.parametrize(
    "gens, ring, message",
    [
        ([P("x^2 - y")], XYZ, "x^2 - y lives in Q[x, y], not in Q[x, y, z]"),
        (
            [P("x^2 - y"), parse_polynomial("x", QQ, ("x",)), P("y^2")],
            XY,
            "x lives in Q[x], not in Q[x, y]",
        ),
        (
            [P("x^2 - y"), parse_polynomial("x + y", F3, XY)],
            XY,
            "x + y lives in F_3[x, y], not in Q[x, y]",
        ),
    ],
    ids=["ring-smaller-than-order", "mixed-rings", "mixed-fields"],
)
def test_groebner_basis_rejects_generators_from_another_ring(gens, ring, message) -> None:
    with rejected(message):
        groebner_basis(gens, MonomialOrder.grevlex(ring))


@pytest.mark.parametrize(
    "basis, ring, message",
    [
        # without the check the first reads this y as x and returns 1
        ([P("y", ("y", "x"))], XY, "y lives in Q[y, x], not in Q[x, y]"),
        ([P("y", XYZ)], XY, "y lives in Q[x, y, z], not in Q[x, y]"),
        ([parse_polynomial("y", F3, XY)], XY, "y lives in F_3[x, y], not in Q[x, y]"),
        ([P("y")], XYZ, "x + 1 lives in Q[x, y], not in Q[x, y, z]"),
    ],
    ids=["reordered-ring", "larger-ring", "another-field", "order-over-another-ring"],
)
def test_normal_form_rejects_operands_from_another_ring(basis, ring, message) -> None:
    with rejected(message):
        normal_form(P("x + 1"), basis, MonomialOrder.grevlex(ring))


def test_ideal_rejects_generators_over_another_field() -> None:
    gens = [parse_polynomial(t, F3, XY) for t in ("x", "y")]
    with rejected("x lives in F_3[x, y], not in Q[x, y]"):
        Ideal(QQ, XY, gens).basis()


def test_contains_rejects_element_over_another_field() -> None:
    with rejected("x + y lives in F_3[x, y], not in Q[x, y]"):
        I("x").contains(parse_polynomial("x + y", F3, XY))


def test_radical_contains_rejects_element_over_another_field() -> None:
    with rejected("x + y lives in F_3[x, y], not in Q[x, y]"):
        I("x").radical_contains(parse_polynomial("x + y", F3, XY))


def test_ideal_rejects_generator_outside_the_ring() -> None:
    with rejected("x + z lives in Q[x, y, z], not in Q[x, y]"):
        Ideal(QQ, XY, [P("x + z", XYZ)])


def test_contains_rejects_element_outside_the_ring() -> None:
    with rejected("z lives in Q[x, y, z], not in Q[x, y]"):
        I("x").contains(P("z", XYZ))


def test_radical_contains_rejects_element_outside_the_ring() -> None:
    with rejected("y*z lives in Q[x, y, z], not in Q[x, y]"):
        I("x").radical_contains(P("y*z", XYZ))


@pytest.mark.parametrize(
    "compare, operand",
    [
        (lambda: I("x").same_as(Ideal(F3, XY, [parse_polynomial("x", F3, XY)])), "Ideal(x)"),
        (lambda: ClosedSet([I("x"), Ideal(F3, XY, [parse_polynomial("y", F3, XY)])]), "Ideal(y)"),
        (
            lambda: ClosedSet([I("x")]).subset_of(ClosedSet([Ideal(F3, XY, [parse_polynomial("x", F3, XY)])])),
            "V(x)",
        ),
    ],
    ids=["ideal-same-as", "closed-set-components", "closed-set-subset-of"],
)
def test_comparisons_across_fields_name_both_rings(compare, operand: str) -> None:
    with rejected(f"{operand} lives in F_3[x, y], not in Q[x, y]"):
        compare()


@pytest.mark.parametrize("ring", [("y", "x"), XYZ], ids=["reordered", "larger"])
def test_polynomial_from_another_ring_is_not_moved(ring) -> None:
    # x lies in both rings, yet only Polynomial.in_ring moves it
    x = P("x", ring)
    message = f"x lives in Q[{', '.join(ring)}], not in Q[x, y]"
    with rejected(message):
        Ideal(QQ, XY, [x])
    with rejected(message):
        I("x").contains(x)
    assert I("x").contains(x.in_ring(XY))


def test_eliminate_rejects_unknown_variable() -> None:
    with rejected("cannot eliminate w: not a ring variable"):
        I("x").eliminate(("w",))


def test_comparisons_across_variables_name_both_rings() -> None:
    with rejected("Ideal(x) lives in Q[x, y, z], not in Q[x, y]"):
        I("x").same_as(I("x", variables=XYZ))
    with rejected("Ideal(x) lives in Q[x, y, z], not in Q[x, y]"):
        ClosedSet([I("x"), I("x", variables=XYZ)])


# -- unit and membership answers read from orders at the origin ---------------------


def _poly_of_order(rng: random.Random, field: FieldSpec, ring: tuple[str, ...], k: int) -> Polynomial:
    """A random polynomial whose order at the origin is exactly k."""
    coeffs = (1, -1, 2, Fraction(1, 2)) if field.is_rational else range(1, field.characteristic)
    terms = {}
    for j in range(rng.randint(1, 3)):
        e = [0] * len(ring)
        for _ in range(k + (j and rng.randint(1, 2))):
            e[rng.randrange(len(ring))] += 1
        terms[tuple(e)] = field.coerce(rng.choice(coeffs))
    return Polynomial(field, ring, terms)


def _origin_cases(rng: random.Random, field: FieldSpec):
    """(generators, probes) over field: the zero ideal, a constant generator,
    then seeded ideals whose least generator order d is 0 (a nonzero constant
    term) to 3.  The probes have order below, equal to and above d, and include
    members: the generator of order d and a multiple of it."""
    ring = XYZ
    x = Polynomial.variable(field, ring, "x")
    yield [], [_poly_of_order(rng, field, ring, k) for k in range(3)]
    constant = Polynomial.constant(field, ring, field.one())
    yield [_poly_of_order(rng, field, ring, 2), constant], [constant, x]
    for _ in range(12):
        d = rng.randint(0, 3)
        lowest = _poly_of_order(rng, field, ring, d)
        gens = [lowest] + [_poly_of_order(rng, field, ring, d + rng.randint(0, 2)) for _ in range(rng.randint(0, 2))]
        rng.shuffle(gens)
        probes = [_poly_of_order(rng, field, ring, k) for k in range(max(d - 2, 0), d + 2)]
        yield gens, probes + [lowest, lowest * x]


@pytest.mark.parametrize("field", [QQ, FieldSpec(2), F3], ids=["Q", "F_2", "F_3"])
def test_unit_and_membership_match_the_basis_and_skip_it_when_orders_decide(field, gb_calls: list) -> None:
    """is_unit and contains give the answer groebner_basis and normal_form
    give; when every generator has higher order at the origin than the probe
    (1, of order 0, for is_unit), they give it without a groebner_basis call."""
    rng = random.Random(1015 + field.characteristic)
    order = MonomialOrder.grevlex(XYZ)
    seen = set()
    for gens, probes in _origin_cases(rng, field):
        gb = groebner_basis(list(gens), order)
        least = min((g.order() for g in gens), default=INFINITY)
        queries = [(0, lambda: Ideal(field, XYZ, gens).is_unit(), len(gb) == 1 and gb[0].is_constant())]
        for p in probes:
            expected = normal_form(p, gb, order).is_zero()
            queries.append((p.order(), lambda p=p: Ideal(field, XYZ, gens).contains(p), expected))
        for k, ask, expected in queries:
            del gb_calls[:]
            assert ask() == expected, (gens, k)
            certified = k < least
            if certified:
                assert not gb_calls, (gens, k)
            seen.add((certified, expected))
    # the basis answered yes and no, and the orders alone answered no
    assert seen == {(False, True), (False, False), (True, False)}


# -- one basis per ideal ----------------------------------------------------------------


def test_zero_ideals_of_two_rings_share_one_basis(gb_calls: list) -> None:
    with shared_bases():
        assert Ideal.zero(QQ, XY).basis() == []
        assert Ideal.zero(QQ, ("x",)).basis() == []
    assert len(gb_calls) == 1


def test_elimination_basis_stays_out_of_the_run_table(gb_calls: list) -> None:
    gens = [P("x - y^2"), P("x*y - 1")]
    grevlex = groebner_basis(gens, MonomialOrder.grevlex(XY))
    assert groebner_basis(gens, MonomialOrder.eliminating(XY, ("x",))) != grevlex
    with shared_bases():
        Ideal(QQ, XY, gens).eliminate(("x",))
        assert Ideal(QQ, XY, gens).basis() == grevlex
    assert [order for _, order in gb_calls] == [
        MonomialOrder.eliminating(XY, ("x",)),
        MonomialOrder.grevlex(XY),
    ]


@pytest.mark.parametrize("shared", [False, True], ids=["alone", "in-block"])
def test_an_ideal_computes_its_basis_once(shared: bool, gb_calls: list) -> None:
    ideal = I("x^2 + y^3", "x*y")
    with shared_bases() if shared else contextlib.nullcontext():
        first = ideal.basis()
        assert ideal.basis() is first
    assert len(gb_calls) == 1
