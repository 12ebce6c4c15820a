"""Cross-check groebner_basis against sympy on seeded random small ideals.

Reduced Groebner bases are unique for a fixed order, so the bases must agree
as sets of monic polynomials.  Both grevlex and the elimination orders of
Ideal.eliminate are checked.  sympy is a test-only dependency.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import qrees.ideal
from qrees.field import FieldSpec
from qrees.ideal import MonomialOrder, groebner_basis
from qrees.poly import Polynomial

from kit import XYZ, record_calls

sympy = pytest.importorskip("sympy")
from sympy.polys.orderings import ProductOrder, grevlex  # noqa: E402

ORDER = MonomialOrder.grevlex(XYZ)
SYMBOLS = sympy.symbols(XYZ)
CHARACTERISTICS = (0, 3, 5)
SEED = 20101008

Terms = dict[tuple[int, ...], int]


def _random_terms(rng: random.Random, top: int = 3) -> Terms:
    terms: Terms = {}
    for _ in range(rng.randint(1, 3)):
        exps = tuple(rng.randint(0, top) for _ in XYZ)
        terms[exps] = terms.get(exps, 0) + rng.choice((-3, -2, -1, 1, 2, 3))
    return terms


# Ideals that are the unit ideal from the start, or only after some S-pair
# reduces to a nonzero constant.
SPECIAL: list[list[Terms]] = [
    [{(0, 0, 0): 3}, {(1, 0, 0): 1}],
    [{(1, 1, 0): 1, (0, 0, 0): -1}, {(1, 0, 0): 1}],
    [{(1, 0, 0): 1}, {(1, 0, 0): 1, (0, 0, 0): -1}],
    [{(2, 0, 0): 1, (0, 1, 0): -1}, {(0, 1, 0): 1, (0, 0, 0): 1}, {(1, 0, 0): 1}],
    [{(0, 1, 1): 2, (0, 0, 0): 1}, {(0, 0, 1): 1}],
    [{(1, 2, 0): 1}, {(0, 0, 0): -2, (0, 0, 2): 1}, {(0, 0, 0): 1}],
]


def _cases() -> list[tuple[int, list[Terms]]]:
    rng = random.Random(SEED)
    cases = []
    for p in CHARACTERISTICS:
        cases.extend((p, gens) for gens in SPECIAL)
        for _ in range(44):
            gens = [_random_terms(rng) for _ in range(rng.randint(1, 3))]
            cases.append((p, gens))
    return cases


def _monic(terms: dict, p: int, order: MonomialOrder) -> frozenset:
    lead = max(terms, key=order.key)
    if p:
        inv = pow(terms[lead] % p, -1, p)
        return frozenset((e, c * inv % p) for e, c in terms.items() if c % p)
    return frozenset((e, c / terms[lead]) for e, c in terms.items() if c)


def _polys(gens: list[Terms], p: int) -> list[Polynomial]:
    field = FieldSpec(p)
    return [
        Polynomial(field, XYZ, {e: field.coerce(c) for e, c in g.items()})
        for g in gens
    ]


def _ours(gens: list[Terms], p: int, order: MonomialOrder = ORDER) -> set:
    return {_monic(g.terms, p, order) for g in groebner_basis(_polys(gens, p), order)}


def _sympy(gens: list[Terms], p: int, order: MonomialOrder = ORDER) -> set:
    """sympy's basis in grevlex, or for an elimination order in the product
    of grevlex on the eliminated variables and grevlex on the rest, each
    read in ring order."""
    exprs = []
    for g in gens:
        expr = sum(c * sympy.prod(s**k for s, k in zip(SYMBOLS, e)) for e, c in g.items())
        if expr != 0:
            exprs.append(expr)
    if not exprs:
        return set()
    options = {"modulus": p} if p else {}
    if order.first:
        head = [i for i, v in enumerate(XYZ) if v in order.first]
        tail = [i for i, v in enumerate(XYZ) if v not in order.first]
        options["order"] = ProductOrder(
            (grevlex, lambda m: tuple(m[i] for i in head)),
            (grevlex, lambda m: tuple(m[i] for i in tail)),
        )
    else:
        options["order"] = "grevlex"
    basis = sympy.groebner(exprs, *SYMBOLS, **options)
    out = set()
    for g in basis.polys:
        terms = {
            tuple(m): (int(c) if p else Fraction(int(c.p), int(c.q)))
            for m, c in g.terms()
        }
        out.add(_monic(terms, p, order))
    return out


@pytest.mark.parametrize("p", CHARACTERISTICS)
def test_groebner_matches_sympy(p: int) -> None:
    cases = [gens for q, gens in _cases() if q == p]
    assert len(cases) == 50
    mismatches = [gens for gens in cases if _ours(gens, p) != _sympy(gens, p)]
    assert not mismatches, mismatches[:3]


@pytest.mark.parametrize("p", CHARACTERISTICS)
def test_repeated_generators_cost_nothing(p: int, monkeypatch) -> None:
    """Repeats are dropped before any pair is formed: the same basis from
    the same number of S-pairs."""
    spolys = record_calls(monkeypatch, qrees.ideal, "_spoly")
    for gens in [gens for q, gens in _cases() if q == p]:
        polys = _polys(gens, p)
        spolys.clear()
        once = groebner_basis(polys, ORDER)
        work = len(spolys)
        spolys.clear()
        assert groebner_basis(polys + polys[::-1] + polys, ORDER) == once, gens
        assert len(spolys) == work, gens


# the variables eliminated, prefixes of the ring and the other subsets
ELIMINATED = (("x",), ("x", "y"), ("y",), ("z",), ("x", "z"), ("y", "z"))


@pytest.mark.parametrize("p", CHARACTERISTICS)
def test_eliminating_groebner_matches_sympy(p: int) -> None:
    """The orders Ideal.eliminate builds, eliminating each set in
    ELIMINATED.  Exponents stay below 3: sympy takes up to a minute on some
    of the ideals above."""
    rng = random.Random(SEED + p)
    mismatches = []
    for n in range(48):
        gens = [_random_terms(rng, top=2) for _ in range(rng.randint(1, 3))]
        first = ELIMINATED[n % len(ELIMINATED)]
        order = MonomialOrder.eliminating(XYZ, first)
        assert order.first == frozenset(first)
        if _ours(gens, p, order) != _sympy(gens, p, order):
            mismatches.append((first, gens))
    assert not mismatches, mismatches[:3]
