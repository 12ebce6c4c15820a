"""Coefficient fields: the rationals and prime fields F_p.

Elements are plain Python values (Fraction in characteristic zero, int in
characteristic p), and a FieldSpec bundles the operations on them.  Keeping
elements unboxed keeps polynomial arithmetic cheap and hashable.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PreconditionError

Element = Fraction | int


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class FieldSpec:
    """A coefficient field, either Q (characteristic 0) or F_p."""

    __slots__ = ("characteristic",)

    def __init__(self, characteristic: int = 0) -> None:
        if characteristic != 0 and not _is_prime(characteristic):
            raise PreconditionError(
                f"characteristic must be 0 or a prime, got {characteristic}"
            )
        self.characteristic = characteristic

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not FieldSpec:
            return NotImplemented
        return self.characteristic == other.characteristic

    def __hash__(self) -> int:
        return hash(self.characteristic)

    @property
    def is_rational(self) -> bool:
        return self.characteristic == 0

    def coerce(self, value: int | Fraction) -> Element:
        """Map an integer or rational into the field."""
        p = self.characteristic
        if p == 0:
            return Fraction(value)
        value = Fraction(value)
        den = value.denominator % p
        if den == 0:
            raise PreconditionError(
                f"denominator of {value} vanishes modulo {p}"
            )
        return value.numerator * pow(den, -1, p) % p

    def zero(self) -> Element:
        return Fraction(0) if self.characteristic == 0 else 0

    def one(self) -> Element:
        return Fraction(1) if self.characteristic == 0 else 1

    def add(self, a: Element, b: Element) -> Element:
        s = a + b
        return s if self.characteristic == 0 else s % self.characteristic

    def mul(self, a: Element, b: Element) -> Element:
        s = a * b
        return s if self.characteristic == 0 else s % self.characteristic

    def neg(self, a: Element) -> Element:
        return -a if self.characteristic == 0 else (-a) % self.characteristic


QQ = FieldSpec(0)
