"""Polynomial ideals with Groebner-basis backed membership and elimination.

Everything here is exact arithmetic over the rationals or a prime field.
Reduced Groebner bases are unique for a fixed monomial order, which is what
makes ideal equality and the closed-set comparisons deterministic.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from .errors import PreconditionError
from .field import Element, FieldSpec
from .poly import Exponents, Polynomial, format_polynomial


@dataclass(frozen=True)
class MonomialOrder:
    """Block order: compare total degree then graded reverse lex inside each block.

    A single block is plain grevlex.  Two blocks give an elimination order for
    the variables of the first block.
    """

    variables: tuple[str, ...]
    blocks: tuple[tuple[int, ...], ...]

    @staticmethod
    def grevlex(variables: tuple[str, ...]) -> MonomialOrder:
        return MonomialOrder(variables, (tuple(range(len(variables))),))

    @staticmethod
    def eliminating(variables: tuple[str, ...], first: tuple[str, ...]) -> MonomialOrder:
        head = tuple(i for i, v in enumerate(variables) if v in first)
        tail = tuple(i for i, v in enumerate(variables) if v not in first)
        if not head or not tail:
            return MonomialOrder.grevlex(variables)
        return MonomialOrder(variables, (head, tail))

    def key(self, exponents: Exponents):
        parts = []
        for block in self.blocks:
            part = [exponents[i] for i in block]
            parts.append(sum(part))
            parts.append(tuple([-x for x in reversed(part)]))
        return tuple(parts)


def leading_term(p: Polynomial, order: MonomialOrder) -> tuple[Exponents, Element]:
    if not p.terms:
        raise ValueError("zero polynomial has no leading term")
    e = max(p.terms, key=order.key)
    return e, p.terms[e]


def _divides(a: Exponents, b: Exponents) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _exp_sub(a: Exponents, b: Exponents) -> Exponents:
    return tuple(x - y for x, y in zip(a, b))


def _exp_lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(max(x, y) for x, y in zip(a, b))


def _sub_scaled(
    terms: dict[Exponents, Element],
    coeff: Element,
    shift: Exponents,
    g: Polynomial,
    p: int,
) -> None:
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


def normal_form(
    p: Polynomial,
    basis: list[Polynomial],
    order: MonomialOrder,
    leads: list[tuple[Exponents, Element]] | None = None,
) -> Polynomial:
    """Remainder of p under multivariate division by basis.

    `leads` may carry the leading terms of the basis when the caller already
    has them.
    """
    field = p.field
    if leads is None:
        leads = [leading_term(g, order) for g in basis]
    char = field.characteristic
    # The max below rescans all of `work` on every step, so each exponent's
    # order key is computed once per call.
    keys: dict[Exponents, tuple] = {}

    def key(e: Exponents) -> tuple:
        k = keys.get(e)
        if k is None:
            k = keys[e] = order.key(e)
        return k

    remainder: dict[Exponents, Element] = {}
    work = dict(p.terms)
    while work:
        e = max(work, key=key)
        c = work[e]
        for g, (ge, gc) in zip(basis, leads):
            if _divides(ge, e):
                _sub_scaled(work, field.div(c, gc), _exp_sub(e, ge), g, char)
                break
        else:
            remainder[e] = work.pop(e)
    return Polynomial(field, p.variables, remainder)


def _spoly(
    f: Polynomial,
    g: Polynomial,
    f_lead: tuple[Exponents, Element],
    g_lead: tuple[Exponents, Element],
) -> Polynomial:
    field = f.field
    (fe, fc), (ge, gc) = f_lead, g_lead
    lcm = _exp_lcm(fe, ge)
    terms: dict[Exponents, Element] = {}
    _sub_scaled(terms, field.neg(field.inv(fc)), _exp_sub(lcm, fe), f, field.characteristic)
    _sub_scaled(terms, field.inv(gc), _exp_sub(lcm, ge), g, field.characteristic)
    return Polynomial(field, f.variables, terms)


def _unit(p: Polynomial) -> list[Polynomial]:
    return [Polynomial.constant(p.field, p.variables, 1)]


def groebner_basis(gens: list[Polynomial], order: MonomialOrder) -> list[Polynomial]:
    """Reduced Groebner basis, monic generators sorted by ascending leading term.

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

    S-pairs are reduced against every element found so far.  Reducing against
    the active (non-retired) ones alone is also correct, but it lets
    coefficients swell: a three-generator ideal over Q in an elimination order
    took over 40 s that way instead of 0.03 s.  The active set is interreduced
    at the end.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    for g in gens:
        if g.is_constant():
            return _unit(g)

    basis: list[Polynomial] = []
    leads: list[tuple[Exponents, Element]] = []
    sugars: list[int] = []
    active: list[int] = []
    live: dict[tuple[int, int], Exponents] = {}
    pairs: list[tuple[tuple, int, int]] = []

    def update(h: Polynomial, sugar: int) -> None:
        j = len(basis)
        basis.append(h)
        leads.append(leading_term(h, order))
        sugars.append(sugar)
        he = leads[j][0]
        for pair, lcm in list(live.items()):
            if (
                _divides(he, lcm)
                and _exp_lcm(leads[pair[0]][0], he) != lcm
                and _exp_lcm(leads[pair[1]][0], he) != lcm
            ):
                del live[pair]
        # one candidate per lcm; None marks a class holding a coprime pair
        chosen: dict[Exponents, int | None] = {}
        for i in active:
            fe = leads[i][0]
            lcm = _exp_lcm(fe, he)
            coprime = lcm == tuple([a + b for a, b in zip(fe, he)])
            if lcm not in chosen:
                chosen[lcm] = None if coprime else i
            elif coprime:
                chosen[lcm] = None
        for lcm, i in chosen.items():
            if i is None or any(m != lcm and _divides(m, lcm) for m in chosen):
                continue
            deg = sum(lcm)
            pair_sugar = max(sugars[i] + deg - sum(leads[i][0]), sugar + deg - sum(he))
            live[i, j] = lcm
            heapq.heappush(pairs, ((pair_sugar, order.key(lcm), i, j), i, j))
        active[:] = [i for i in active if not _divides(he, leads[i][0])]
        active.append(j)

    for g in gens:
        update(g, g.total_degree())

    while pairs:
        key, i, j = heapq.heappop(pairs)
        if live.pop((i, j), None) is None:
            continue
        s = _spoly(basis[i], basis[j], leads[i], leads[j])
        r = normal_form(s, basis, order, leads)
        if r.is_zero():
            continue
        if r.is_constant():
            return _unit(r)
        update(r, key[0])

    return _interreduce([basis[k] for k in active], [leads[k] for k in active], order)


def _interreduce(
    basis: list[Polynomial], leads: list[tuple[Exponents, Element]], order: MonomialOrder
) -> list[Polynomial]:
    """Reduced basis from a Groebner basis: keep a minimal set of leads (the
    earliest of equal leads), tail-reduce each element once against the
    others, make it monic and sort by leading term."""
    field = basis[0].field
    keep = [
        k
        for k, (e, _) in enumerate(leads)
        if not any(
            _divides(f, e) and (f != e or m < k)
            for m, (f, _) in enumerate(leads)
            if m != k
        )
    ]
    monic = []
    for k in keep:
        g = basis[k]
        others = [m for m in keep if m != k]
        if others:
            g = normal_form(g, [basis[m] for m in others], order, [leads[m] for m in others])
        e, c = leads[k]
        monic.append((order.key(e), g.scale(field.div(field.one(), c))))
    monic.sort(key=lambda t: t[0])
    return [g for _, g in monic]


class Ideal:
    """An ideal of a polynomial ring, with Groebner bases cached per order."""

    def __init__(self, field: FieldSpec, variables: tuple[str, ...], generators) -> None:
        self.field = field
        self.variables = tuple(variables)
        gens = []
        for g in generators:
            if g.variables != self.variables:
                g = g.in_ring(self.variables)
            if not g.is_zero():
                gens.append(g)
        self.generators: tuple[Polynomial, ...] = tuple(gens)
        self._bases: dict[MonomialOrder, list[Polynomial]] = {}

    @staticmethod
    def zero(field: FieldSpec, variables: tuple[str, ...]) -> Ideal:
        return Ideal(field, variables, [])

    @staticmethod
    def unit(field: FieldSpec, variables: tuple[str, ...]) -> Ideal:
        return Ideal(field, variables, [Polynomial.constant(field, variables, field.one())])

    def basis(self, order: MonomialOrder | None = None) -> list[Polynomial]:
        if order is None:
            order = MonomialOrder.grevlex(self.variables)
        if order not in self._bases:
            self._bases[order] = groebner_basis(list(self.generators), order)
        return self._bases[order]

    def is_zero_ideal(self) -> bool:
        return not self.generators

    def is_unit(self) -> bool:
        b = self.basis()
        return len(b) == 1 and b[0].is_constant()

    def contains(self, p: Polynomial) -> bool:
        if p.variables != self.variables:
            p = p.in_ring(self.variables)
        if p.is_zero():
            return True
        b = self.basis()
        if not b:
            return False
        return normal_form(p, b, MonomialOrder.grevlex(self.variables)).is_zero()

    def radical_contains(self, p: Polynomial) -> bool:
        """Rabinowitsch trick: p vanishes on V(I) iff 1 in I + (1 - t*p)."""
        if p.variables != self.variables:
            p = p.in_ring(self.variables)
        if p.is_zero():
            return True
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
        for g in self.basis(order):
            if all(v not in drop for v in g.support_vars()):
                kept.append(g.in_ring(keep))
        return Ideal(self.field, keep, kept)

    def same_as(self, other: Ideal) -> bool:
        if self.variables != other.variables:
            raise PreconditionError("ideal comparison across different rings")
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
        ring = self.components[0].variables
        for c in self.components:
            if c.variables != ring:
                raise PreconditionError("closed-set components in different rings")
        self.variables = ring
        self.field = self.components[0].field

    def is_empty(self) -> bool:
        return all(c.is_unit() for c in self.components)

    def subset_of(self, other: ClosedSet) -> bool:
        """Containment of varieties: products of the other side's generators must
        vanish on every component of this side."""
        if self.variables != other.variables:
            raise PreconditionError("closed-set comparison across different rings")
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
                prod = pick[0]
                for q in pick[1:]:
                    prod = prod * q
                if not comp.radical_contains(prod):
                    return False
        return True

    def same_as(self, other: ClosedSet) -> bool:
        return self.subset_of(other) and other.subset_of(self)

    def __repr__(self) -> str:
        return " ∪ ".join(f"V({', '.join(format_polynomial(g) for g in c.generators) or '0'})" for c in self.components)


def coordinate_ideal(field: FieldSpec, variables: tuple[str, ...], vanishing: tuple[str, ...]) -> Ideal:
    gens = [Polynomial.variable(field, variables, v) for v in vanishing]
    return Ideal(field, variables, gens)

