"""The lexicographic invariant attached to a point or chart during resolution:
a sequence of (order, divisor-count) levels closed off by a terminator.

Terminators, from weakest to strongest in the ordering:
  NonSingular < Point < Monomial(...) < levels < ZeroCoeff.
A level entry beats Point/Monomial/NonSingular and loses to ZeroCoeff, which
stands for an infinite order at the next level down.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering

NON_SINGULAR = "NonSingular"
POINT = "Point"
ZERO_COEFF = "ZeroCoeff"


@dataclass(frozen=True)
class MonomialData:
    """Combinatorial tail of the invariant in the monomial case: the chosen
    center uses p divisors with multiplicity total s; indices are the creation
    steps of those divisors (may be empty for a fallback center)."""

    p: int
    s: Fraction
    indices: tuple[int, ...]

    def sort_key(self):
        # fewer divisors is bigger; then larger multiplicity; then
        # lexicographically smaller creation indices.  The +1 sentinel makes a
        # shorter tuple that is a prefix of a longer one compare as bigger.
        return (-self.p, self.s, tuple(-i for i in self.indices) + (1,))


@total_ordering
@dataclass(frozen=True)
class InvariantValue:
    levels: tuple[tuple[Fraction, int], ...]
    terminator: object

    def components(self) -> tuple:
        parts: list[tuple] = []
        for omega, n in self.levels:
            parts.append((3, omega, n))
        t = self.terminator
        if t == NON_SINGULAR:
            parts.append((0,))
        elif t == POINT:
            parts.append((1,))
        elif t == ZERO_COEFF:
            parts.append((4,))
        elif isinstance(t, MonomialData):
            parts.append((2,) + t.sort_key())
        else:
            raise ValueError(f"unknown terminator {t!r}")
        return tuple(parts)

    def is_singular(self) -> bool:
        return self.terminator != NON_SINGULAR

    def __lt__(self, other: InvariantValue) -> bool:
        return self.components() < other.components()

    def __str__(self) -> str:
        body = ", ".join(f"({omega}, {n})" for omega, n in self.levels)
        t = self.terminator
        if isinstance(t, MonomialData):
            idx = ", ".join(str(i) for i in t.indices)
            tail = f"Monomial(p={t.p}, s={t.s}, created=({idx}))"
        else:
            tail = str(t)
        if body:
            return f"[{body}] · {tail}"
        return tail

    def to_json(self) -> dict:
        t = self.terminator
        if isinstance(t, MonomialData):
            term: object = {
                "monomial": {
                    "p": t.p,
                    "s": str(t.s),
                    "indices": list(t.indices),
                }
            }
        else:
            term = t
        return {
            "levels": [[str(omega), n] for omega, n in self.levels],
            "terminator": term,
        }

    @classmethod
    def from_json(cls, doc: dict) -> InvariantValue:
        """Inverse of to_json."""
        term = doc["terminator"]
        if isinstance(term, dict):
            m = term["monomial"]
            term = MonomialData(m["p"], Fraction(m["s"]), tuple(m["indices"]))
        return cls(tuple((Fraction(omega), n) for omega, n in doc["levels"]), term)


def non_singular_value() -> InvariantValue:
    return InvariantValue((), NON_SINGULAR)
