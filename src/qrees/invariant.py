"""The lexicographic invariant attached to a point or chart during resolution:
a sequence of (order, divisor-count) levels closed off by a terminator.

Terminators, from weakest to strongest in the ordering:
  NonSingular < Point < Monomial(...) < levels < ZeroCoeff.
A level entry beats Point/Monomial/NonSingular and loses to ZeroCoeff, which
stands for an infinite order at the next level down.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering

NON_SINGULAR = "NonSingular"
POINT = "Point"
ZERO_COEFF = "ZeroCoeff"
# the rank of each named terminator; a Monomial ranks 2 and a level 3
_RANK = {NON_SINGULAR: 0, POINT: 1, ZERO_COEFF: 4}


class MonomialData:
    """Combinatorial tail of the invariant in the monomial case: the chosen
    center uses p divisors with multiplicity total s; indices are the creation
    steps of those divisors (may be empty for a fallback center)."""

    __slots__ = ("p", "s", "indices")

    def __init__(self, p: int, s: Fraction, indices: tuple[int, ...]) -> None:
        self.p = p
        self.s = s
        self.indices = indices

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not MonomialData:
            return NotImplemented
        return self.p == other.p and self.s == other.s and self.indices == other.indices

    def __hash__(self) -> int:
        return hash((self.p, self.s, self.indices))

    def sort_key(self):
        # fewer divisors is bigger; then larger multiplicity; then
        # lexicographically smaller creation indices.  The +1 sentinel makes a
        # shorter tuple that is a prefix of a longer one compare as bigger.
        return (-self.p, self.s, tuple(-i for i in self.indices) + (1,))

    def __str__(self) -> str:
        created = ", ".join(str(i) for i in self.indices)
        return f"Monomial(p={self.p}, s={self.s}, created=({created}))"

    def to_json(self) -> dict:
        return {"monomial": {"p": self.p, "s": str(self.s), "indices": list(self.indices)}}


@total_ordering
class InvariantValue:
    __slots__ = ("levels", "terminator")

    def __init__(self, levels: tuple[tuple[Fraction, int], ...], terminator: object) -> None:
        self.levels = levels
        self.terminator = terminator

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not InvariantValue:
            return NotImplemented
        return self.levels == other.levels and self.terminator == other.terminator

    def __hash__(self) -> int:
        return hash((self.levels, self.terminator))

    def components(self) -> tuple:
        t = self.terminator
        if isinstance(t, MonomialData):
            tail = (2,) + t.sort_key()
        elif isinstance(t, str) and t in _RANK:
            tail = (_RANK[t],)
        else:
            raise ValueError(f"unknown terminator {t!r}")
        return tuple((3, omega, n) for omega, n in self.levels) + (tail,)

    def is_singular(self) -> bool:
        return self.terminator != NON_SINGULAR

    def __lt__(self, other: InvariantValue) -> bool:
        return self.components() < other.components()

    def __str__(self) -> str:
        body = ", ".join(f"({omega}, {n})" for omega, n in self.levels)
        return f"[{body}] · {self.terminator}" if body else str(self.terminator)

    def to_json(self) -> dict:
        t = self.terminator
        return {
            "levels": [[str(omega), n] for omega, n in self.levels],
            "terminator": t.to_json() if isinstance(t, MonomialData) else t,
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
