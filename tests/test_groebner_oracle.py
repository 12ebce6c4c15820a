"""Cross-check groebner_basis against sympy on seeded random small ideals.

Reduced Groebner bases are unique for a fixed order, so the bases must agree
as sets of monic polynomials.  sympy is a test-only dependency.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from qrees.field import FieldSpec
from qrees.ideal import MonomialOrder, groebner_basis
from qrees.poly import Polynomial

sympy = pytest.importorskip("sympy")

XYZ = ("x", "y", "z")
ORDER = MonomialOrder.grevlex(XYZ)
SYMBOLS = sympy.symbols(XYZ)
CHARACTERISTICS = (0, 3, 5)
SEED = 20101008

Terms = dict[tuple[int, ...], int]


def _random_terms(rng: random.Random) -> Terms:
    terms: Terms = {}
    for _ in range(rng.randint(1, 3)):
        exps = tuple(rng.randint(0, 3) for _ in XYZ)
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


def _monic(terms: dict, p: int) -> frozenset:
    lead = max(terms, key=ORDER.key)
    if p:
        inv = pow(terms[lead] % p, -1, p)
        return frozenset((e, c * inv % p) for e, c in terms.items() if c % p)
    return frozenset((e, c / terms[lead]) for e, c in terms.items() if c)


def _ours(gens: list[Terms], p: int) -> set:
    field = FieldSpec(p)
    polys = [
        Polynomial(field, XYZ, {e: field.coerce(c) for e, c in g.items()})
        for g in gens
    ]
    return {_monic(g.terms, p) for g in groebner_basis(polys, ORDER)}


def _sympy(gens: list[Terms], p: int) -> set:
    exprs = []
    for g in gens:
        expr = sum(c * sympy.prod(s**k for s, k in zip(SYMBOLS, e)) for e, c in g.items())
        if expr != 0:
            exprs.append(expr)
    if not exprs:
        return set()
    options = {"modulus": p} if p else {}
    basis = sympy.groebner(exprs, *SYMBOLS, order="grevlex", **options)
    out = set()
    for g in basis.polys:
        terms = {
            tuple(m): (int(c) if p else Fraction(int(c.p), int(c.q)))
            for m, c in g.terms()
        }
        out.add(_monic(terms, p))
    return out


@pytest.mark.parametrize("p", CHARACTERISTICS)
def test_groebner_matches_sympy(p: int) -> None:
    cases = [gens for q, gens in _cases() if q == p]
    assert len(cases) == 50
    mismatches = [gens for gens in cases if _ours(gens, p) != _sympy(gens, p)]
    assert not mismatches, mismatches[:3]
