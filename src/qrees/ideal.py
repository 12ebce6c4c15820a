"""Polynomial ideals with Groebner-basis backed membership and elimination.

Everything here is exact arithmetic over the rationals or a prime field.
Reduced Groebner bases are unique for a fixed monomial order, which is what
makes ideal equality and the closed-set comparisons deterministic.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from operator import add, le, mul, sub

from .errors import PreconditionError
from .field import FieldSpec
from .poly import INFINITY, Exponents, Infinity, Polynomial, _clear, check_ring, format_polynomial


class MonomialOrder:
    """Graded reverse lex, or with `first` the elimination order for those
    variables: total degree then reverse lex on the variables of `first`, in
    ring order, then the same on the rest (Cox, Little and O'Shea, Ideals,
    Varieties, and Algorithms, section 3.1).  An empty `first` is grevlex.
    """

    __slots__ = ("variables", "first")

    def __init__(self, variables: tuple[str, ...], first: frozenset[str] = frozenset()) -> None:
        self.variables = variables
        self.first = first

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not MonomialOrder:
            return NotImplemented
        return self.variables == other.variables and self.first == other.first

    def __hash__(self) -> int:
        return hash((self.variables, self.first))

    @staticmethod
    def grevlex(variables: tuple[str, ...]) -> MonomialOrder:
        return MonomialOrder(variables)

    @staticmethod
    def eliminating(variables: tuple[str, ...], first: tuple[str, ...]) -> MonomialOrder:
        """The elimination order for the names of `first` in the ring;
        grevlex when that is none or all of them."""
        names = frozenset(first).intersection(variables)
        return MonomialOrder(variables, names if len(names) < len(variables) else frozenset())

    def key(self, exponents: Exponents):
        if not self.first:
            return (sum(exponents), tuple([-x for x in exponents[::-1]]))
        head = [x for v, x in zip(self.variables, exponents) if v in self.first]
        tail = [x for v, x in zip(self.variables, exponents) if v not in self.first]
        return (
            sum(head), tuple([-x for x in head[::-1]]),
            sum(tail), tuple([-x for x in tail[::-1]]),
        )


# -- the integer core ------------------------------------------------------------
#
# Groebner computations run on dicts from exponents to ints.  Over Q an element
# is kept as its primitive integer multiple with a positive leading
# coefficient; over F_p it is kept monic, with residues in [0, p).  A reducer
# is an element split as (lead, lead coefficient, tail), the one form in which
# groebner_basis holds each element.  Each groebner_basis or normal_form call
# reads order keys through its own `functools.cache` of `MonomialOrder.key`.

_Reducer = tuple[Exponents, int, list[tuple[Exponents, int]]]
_Keys = Callable[[Exponents], tuple]


def _reducer(terms: dict[Exponents, int], lead: Exponents, p: int) -> _Reducer:
    """`terms` split at `lead` as a reducer, scaled to its primitive multiple
    with a positive leading coefficient over Q, its monic multiple over F_p."""
    if p:
        inv = pow(terms[lead], -1, p)
        if inv != 1:
            terms = {e: c * inv % p for e, c in terms.items()}
    else:
        d = math.gcd(*terms.values())
        if terms[lead] < 0:
            d = -d
        if d != 1:
            terms = {e: c // d for e, c in terms.items()}
    return lead, terms[lead], [(e, c) for e, c in terms.items() if e != lead]


def _subtract(
    terms: dict[Exponents, int],
    b: int,
    shift: Exponents,
    tail: list[tuple[Exponents, int]],
    p: int,
) -> None:
    """terms <- terms - b * x^shift * tail in place, mod p when p > 0;
    cancelled terms are removed."""
    for te, tc in tail:
        t = tuple(map(add, te, shift))
        v = terms.get(t, 0) - b * tc
        if p:
            v %= p
        if v:
            terms[t] = v
        else:
            del terms[t]


def _reduce(
    work: dict[Exponents, int], reducers: list[_Reducer], keys: _Keys, p: int
) -> tuple[dict[Exponents, int], int]:
    """Remainder of `work` (consumed) under division by `reducers`, whose
    leading coefficients are positive over Q and 1 over F_p.

    Each step is terms <- a*terms - b*x^s*g, which cancels the largest term
    c*x^e against a reducer g with leading term lc(g)*x^(e - s), where
    a = lc(g)/d and b = c/d with d = gcd(c, lc(g)).  Every F_p reducer is
    monic (`_reducer`), so there d = 1, a = 1 and b = c: one path serves
    both fields, and only `_subtract`'s reduction mod p tells them apart.
    Returns the remainder, its terms in descending order, and the product m
    of the multipliers a: the remainder is m times the one division over the
    field gives.
    """
    remainder: dict[Exponents, int] = {}
    m = 1
    while work:
        e = max(work, key=keys)
        c = work.pop(e)
        for ge, gc, tail in reducers:
            if all(map(le, ge, e)):
                break
        else:
            remainder[e] = c
            continue
        d = math.gcd(c, gc)
        a = gc // d
        if a != 1:
            for t in work:
                work[t] *= a
            for t in remainder:
                remainder[t] *= a
            m *= a
        _subtract(work, c // d, tuple(map(sub, e, ge)), tail, p)
    return remainder, m


def _spoly(f: _Reducer, g: _Reducer, lcm: Exponents, p: int) -> dict[Exponents, int]:
    """a*x^u*f - b*x^v*g with the leading terms cancelled at lcm, the lcm of
    their leads, where (a, b) = (lc(g), lc(f)) / gcd(lc(f), lc(g)): a = b = 1
    over F_p, whose reducers are monic."""
    (fe, fc, ftail), (ge, gc, gtail) = f, g
    d = math.gcd(fc, gc)
    a, b = gc // d, fc // d
    u = tuple(map(sub, lcm, fe))
    terms = {tuple(map(add, e, u)): a * c for e, c in ftail}
    _subtract(terms, b, tuple(map(sub, lcm, ge)), gtail, p)
    return terms


def normal_form(p: Polynomial, basis: list[Polynomial], order: MonomialOrder) -> Polynomial:
    """Remainder of p under multivariate division by basis.

    The division runs on integer coefficients (see `_reduce`): over Q each
    basis element is taken as its primitive integer multiple and p with its
    denominators cleared, and the remainder is scaled back at the end, so it
    is exactly the one that division with Fraction coefficients gives.  Over
    F_p the basis is made monic and coefficients are residues in [0, p).
    """
    for q in (p, *basis):
        check_ring(q, p.field, order.variables)
    keys = functools.cache(order.key)
    char = p.field.characteristic
    reducers = []
    for g in basis:
        h = _clear(g.field, g.terms)[0]
        lead = max(h, key=keys)
        reducers.append(_reducer(h, lead, char))
    work, n = _clear(p.field, p.terms)
    remainder, m = _reduce(work, reducers, keys, char)
    if not char:
        n *= m
        remainder = {e: Fraction(c, n) for e, c in remainder.items()}
    return Polynomial(p.field, p.variables, remainder)


def _unit(p: Polynomial) -> list[Polynomial]:
    return [Polynomial.constant(p.field, p.variables, 1)]


def groebner_basis(gens: list[Polynomial], order: MonomialOrder) -> list[Polynomial]:
    """Reduced Groebner basis, monic generators sorted by ascending leading term.

    Every generator must live in the order's ring and over one field.  The
    output's coefficients are Fractions over Q and ints in [0, p) over F_p.
    Inside, elements are integer polynomials (see `_reduce`): over Q each
    generator and each S-pair remainder is kept primitive, and reduction is
    pseudo-division by gcd cofactors; over F_p each is kept monic.  Both
    produce nonzero multiples of the field computation's elements, so every
    decision below, which reads only leading monomials, is the same.  Only
    the final interreduction converts back to field elements.

    Repeated generators are dropped first, keeping each one's first
    occurrence.  A copy adds nothing to the ideal, and the reduced basis of
    an ideal is unique for the order, so the output cannot change; each copy
    would only cost one pair update and one S-pair that reduces to zero.

    An ideal that contains a unit returns ``[1]`` as soon as a nonzero constant
    shows up, among the generators or as an S-pair remainder.

    Pairs are pruned by the Gebauer-Moeller update, run each time an element h
    joins the basis (generators first, then nonzero S-pair remainders):

    - among the new pairs (g, h), a pair whose lcm is properly divided by the
      lcm of another new pair is dropped; of pairs with equal lcm one is kept,
      and none when any of them has coprime leads (Buchberger's criterion);
    - a queued pair (f, g) is dropped when LM(h) divides lcm(f, g) and neither
      lcm(f, h) nor lcm(g, h) equals lcm(f, g);
    - every element whose leading monomial LM(h) divides is retired: it forms
      no new pairs, but its queued pairs stay and it still reduces.

    Degrees settle what they can: lcm(f, h) = LM(f)*LM(h) exactly when its
    degree is the sum of theirs, LM(h) | LM(f) exactly when lcm(f, h) has the
    degree of LM(f), and only a lcm of lower degree can properly divide
    another.  Leads and their degrees are kept in flat lists.

    S-pairs are reduced against every element found so far.  Reducing against
    the active (non-retired) ones alone is also correct, but it lets
    coefficients swell: a three-generator ideal over Q in an elimination order
    took over 40 s that way instead of 0.03 s.  The active set is interreduced
    at the end.
    """
    for g in gens:
        check_ring(g, gens[0].field, order.variables)
    gens = [g for g in dict.fromkeys(gens) if g.terms]
    if not gens:
        return []
    for g in gens:
        if len(g.terms) == 1 and not any(next(iter(g.terms))):
            return _unit(g)

    char = gens[0].field.characteristic
    keys = functools.cache(order.key)
    reducers: list[_Reducer] = []
    leads: list[Exponents] = []
    degs: list[int] = []
    sugars: list[int] = []
    active: list[int] = []
    live: dict[tuple[int, int], Exponents] = {}
    pairs: list[tuple[tuple, int, int]] = []

    def update(h: dict[Exponents, int], he: Exponents, sugar: int) -> None:
        j, hdeg = len(reducers), sum(he)
        reducers.append(_reducer(h, he, char))
        leads.append(he)
        degs.append(hdeg)
        sugars.append(sugar)
        dead = [
            pair
            for pair, lcm in live.items()
            if all(map(le, he, lcm))
            and tuple(map(max, leads[pair[0]], he)) != lcm
            and tuple(map(max, leads[pair[1]], he)) != lcm
        ]
        for pair in dead:
            del live[pair]
        # one candidate per lcm, with its degree; None marks a coprime class
        chosen: dict[Exponents, tuple[int, int | None]] = {}
        kept = []
        for i in active:
            lcm = tuple(map(max, leads[i], he))
            deg = sum(lcm)
            # a coprime g and a non-coprime f of one lcm have LM(g) | LM(f), so
            # g joined first (joining later, it would have retired f)
            if lcm not in chosen:
                chosen[lcm] = deg, None if deg == degs[i] + hdeg else i
            if deg != degs[i]:
                kept.append(i)
        for lcm, (deg, i) in chosen.items():
            if i is None or any(low < deg and all(map(le, m, lcm)) for m, (low, _) in chosen.items()):
                continue
            live[i, j] = lcm
            pair_sugar = max(sugars[i] + deg - degs[i], sugar + deg - hdeg)
            heapq.heappush(pairs, ((pair_sugar, keys(lcm), i, j), i, j))
        active[:] = kept + [j]

    for g in gens:
        h = _clear(g.field, g.terms)[0]
        update(h, max(h, key=keys), g.total_degree())

    while pairs:
        key, i, j = heapq.heappop(pairs)
        lcm = live.pop((i, j), None)
        if lcm is None:
            continue
        r = _reduce(_spoly(reducers[i], reducers[j], lcm, char), reducers, keys, char)[0]
        if not r:
            continue
        # the remainder's terms come out in descending order
        lead = next(iter(r))
        if not any(lead):
            return _unit(gens[0])
        update(r, lead, key[0])

    return _interreduce([reducers[k] for k in active], keys, gens[0])


def _interreduce(reducers: list[_Reducer], keys: _Keys, like: Polynomial) -> list[Polynomial]:
    """Reduced basis from a Groebner basis of integer elements, sorted by
    leading term: walk the leads upwards, drop a lead that a kept smaller one
    divides, and tail-reduce a kept element against the kept smaller ones,
    already reduced.  A tail term lies below its lead, so no larger lead
    divides it.  Each kept element is made monic over the field of `like`;
    with two or more, each lists its terms in descending order."""
    char = like.field.characteristic
    keep: list[_Reducer] = []
    for r in sorted(reducers, key=lambda r: keys(r[0])):
        if not any(all(map(le, f[0], r[0])) for f in keep):
            keep.append(r)
    reduced: list[_Reducer] = []
    monic = []
    for lead, lc, tail in keep:
        terms = {lead: lc, **dict(tail)}
        if len(keep) > 1:
            terms = _reduce(terms, reduced, keys, char)[0]
            reduced.append(_reducer(terms, lead, char))
        if not char:  # over F_p the elements are monic already
            lc = terms[lead]  # the tail reduction may have scaled it
            terms = {e: Fraction(c, lc) for e, c in terms.items()}
        monic.append(Polynomial(like.field, like.variables, terms))
    return monic


_run_bases: ContextVar[dict | None] = ContextVar("qrees_run_bases", default=None)


@contextmanager
def shared_bases() -> Iterator[None]:
    """Inside the block, `Ideal.basis` computes each Groebner basis once and
    hands it to every ideal with the same generator set, and each
    polynomial's Hasse rows are built once (`algebra._hasse_rows`).

    The table keys bases by ``frozenset(generators)`` and rows by the
    polynomial itself, so the two never collide.  The key needs no ring:
    `Polynomial` equality includes the field and the variables, so the only
    generator set shared across rings is the empty one, whose basis is
    ``[]`` in every ring.  It needs no order either, because every basis in
    the table is grevlex (`Ideal.eliminate` keeps out of it).  The table
    lives in a context variable, so threads and async tasks each see their
    own.  `resolve`, `analyze_chart`, `QReesAlgebra.max_order_within` and
    the `saturation` queries (`nu`, `nu_bar_estimate`, `is_integral_member`,
    `equivalence_check`) each open a block; a nested entry reuses the outer
    table.  The outermost
    entry drops it on leaving, also when an exception leaves the block, so
    no basis outlives the call that entered it.
    """
    if _run_bases.get() is not None:
        yield
        return
    token = _run_bases.set({})
    try:
        yield
    finally:
        _run_bases.reset(token)


class Ideal:
    """An ideal of a polynomial ring, with its reduced grevlex Groebner basis
    computed on first use.

    Each instance keeps its basis.  Inside a `shared_bases` block, ideals
    with the same generator set also share it through the block's table: the
    reduced basis depends only on the ideal and the order, and equal
    generators lie in one ring, so a shared basis is the one the ideal would
    compute.
    """

    def __init__(self, field: FieldSpec, variables: tuple[str, ...], generators) -> None:
        self.field = field
        self.variables = tuple(variables)
        gens = []
        for g in generators:
            check_ring(g, field, self.variables)
            if not g.is_zero():
                gens.append(g)
        self.generators: tuple[Polynomial, ...] = tuple(gens)
        self._basis: list[Polynomial] | None = None

    @staticmethod
    def zero(field: FieldSpec, variables: tuple[str, ...]) -> Ideal:
        return Ideal(field, variables, [])

    @staticmethod
    def unit(field: FieldSpec, variables: tuple[str, ...]) -> Ideal:
        return Ideal(field, variables, [Polynomial.constant(field, variables, field.one())])

    def basis(self) -> list[Polynomial]:
        """The reduced grevlex Groebner basis.

        Looked up on this ideal, then in the table of the enclosing
        `shared_bases` block, if any, under ``frozenset(generators)``; only a
        miss in both computes it.  The key needs no ring (see
        `shared_bases`).
        """
        return self._basis_from(self.generators)

    def _basis_from(self, gens) -> list[Polynomial]:
        """`basis()`, computed on a miss from `gens`, any generators of this
        same ideal, such as the basis of a smaller ideal plus what this one
        adds.  The reduced basis depends only on the ideal, so the result
        and the table entry are the ones `basis()` gives."""
        if self._basis is None:
            table = _run_bases.get()
            key = frozenset(self.generators)
            found = None if table is None else table.get(key)
            if found is None:
                found = groebner_basis(list(gens), MonomialOrder.grevlex(self.variables))
                if table is not None:
                    table[key] = found
            self._basis = found
        return self._basis

    def is_zero_ideal(self) -> bool:
        return not self.generators

    def _excludes_order(self, order: int | Infinity) -> bool:
        """Whether no element of order `order` at the origin can lie here,
        read from the generators without a basis.

        With d the least generator order (INFINITY for the zero ideal), the
        ideal lies in m^d, and p is in m^d iff ord_0(p) >= d; so order < d
        excludes p, in every characteristic.
        """
        return order < min((g.order() for g in self.generators), default=INFINITY)

    def is_unit(self) -> bool:
        """Whether 1 lies here; False without a basis when every generator
        vanishes at the origin."""
        if self._excludes_order(0):
            return False
        b = self.basis()
        return len(b) == 1 and b[0].is_constant()

    def contains(self, p: Polynomial) -> bool:
        """Ideal membership; False without a basis when p has lower order at
        the origin than every generator."""
        check_ring(p, self.field, self.variables)
        if p.is_zero():
            return True
        if self._excludes_order(p.order()):
            return False
        return normal_form(p, self.basis(), MonomialOrder.grevlex(self.variables)).is_zero()

    def radical_contains(self, p: Polynomial) -> bool:
        """Rabinowitsch trick: p vanishes on V(I) iff 1 in I + (1 - t*p)."""
        if self.contains(p):
            return True
        fresh = "t_"
        while fresh in self.variables:
            fresh += "_"
        ring = self.variables + (fresh,)
        t = Polynomial.variable(self.field, ring, fresh)
        one = Polynomial.constant(self.field, ring, self.field.one())
        gens = [g.in_ring(ring) for g in self.generators]
        gens.append(one - t * p.in_ring(ring))
        return Ideal(self.field, ring, gens).is_unit()

    def eliminate(self, drop: tuple[str, ...]) -> Ideal:
        """Intersect with the subring omitting the given variables."""
        for v in drop:
            if v not in self.variables:
                raise PreconditionError(f"cannot eliminate {v}: not a ring variable")
        keep = tuple(v for v in self.variables if v not in drop)
        order = MonomialOrder.eliminating(self.variables, tuple(drop))
        kept = []
        # not through the run table, which holds grevlex bases only
        for g in groebner_basis(list(self.generators), order):
            if all(v not in drop for v in g.support_vars()):
                kept.append(g.in_ring(keep))
        return Ideal(self.field, keep, kept)

    def same_as(self, other: Ideal) -> bool:
        check_ring(other, self.field, self.variables)
        return self.basis() == other.basis()

    def __repr__(self) -> str:
        inner = ", ".join(format_polynomial(g) for g in self.generators) or "0"
        return f"Ideal({inner})"


class ClosedSet:
    """A closed subset of the chart, stored as a finite union of vanishing loci."""

    def __init__(self, components) -> None:
        self.components: tuple[Ideal, ...] = tuple(components)
        if not self.components:
            raise PreconditionError("closed set needs at least one component")
        first = self.components[0]
        for c in self.components:
            check_ring(c, first.field, first.variables)
        self.variables = first.variables
        self.field = first.field

    def is_empty(self) -> bool:
        return all(c.is_unit() for c in self.components)

    def subset_of(self, other: ClosedSet) -> bool:
        """Containment of varieties: products of the other side's generators must
        vanish on every component of this side."""
        check_ring(other, self.field, self.variables)
        if any(c.is_zero_ideal() for c in other.components):
            return True
        mine = [c for c in self.components if not c.is_unit()]
        theirs = [c for c in other.components if not c.is_unit()]
        if not mine:
            return True
        if not theirs:
            return False
        for comp in mine:
            if comp.is_zero_ideal():
                return False
            for pick in itertools.product(*(c.generators for c in theirs)):
                if not comp.radical_contains(functools.reduce(mul, pick)):
                    return False
        return True

    def same_as(self, other: ClosedSet) -> bool:
        return self.subset_of(other) and other.subset_of(self)

    def __repr__(self) -> str:
        return " ∪ ".join(f"V({', '.join(format_polynomial(g) for g in c.generators) or '0'})" for c in self.components)


def coordinate_ideal(field: FieldSpec, variables: tuple[str, ...], vanishing: tuple[str, ...]) -> Ideal:
    gens = [Polynomial.variable(field, variables, v) for v in vanishing]
    return Ideal(field, variables, gens)

