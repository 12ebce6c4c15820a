"""Differential saturation and the order-saturation (integral closure) side:
valuative order of elements against an algebra, membership testing, and an
equivalence check between two algebras on a common integer grading."""

from __future__ import annotations

import math
from fractions import Fraction

from .algebra import QReesAlgebra, algebra_sample_points
from .errors import PreconditionError, check_bound
from .ideal import shared_bases
from .poly import INFINITY, Infinity, Polynomial, check_ring

CAP_REACHED = "CAP_REACHED"
# the default search bounds of the queries below and of their CLI options
DEFAULT_CAP = Fraction(32)
DEFAULT_N_MAX = 4


def diff_saturate(alg: QReesAlgebra) -> QReesAlgebra:
    """Close under Hasse derivatives: D^alpha f_i enters at weight a_i - |alpha|
    whenever that weight stays positive.  Hasse (divided-power) derivatives keep
    this correct in positive characteristic.

    The result is computed once per algebra instance and kept on it, so a
    second call on the same instance returns the same object.  The memo lives
    and dies with that instance and takes no part in its equality, hash or
    repr; a new instance, even an equal one, such as the result of shift,
    scale or odot, is saturated afresh.
    """
    return alg._saturation


@shared_bases()
def nu(alg: QReesAlgebra, f: Polynomial, cap=DEFAULT_CAP) -> Fraction | Infinity | str:
    """Largest grid value a = m/N with f in the level ideal at a.

    The zero element has infinite order.  If f still sits inside the level
    ideal at the cap, returns CAP_REACHED instead of a number.
    """
    cap = Fraction(cap)
    check_bound("cap", cap, 0)
    check_ring(f, alg.field, alg.variables)
    if f.is_zero():
        return INFINITY
    n = alg.denominator()
    hi = math.floor(cap * n)

    def member(m: int) -> bool:
        return alg.level_ideal(Fraction(m, n)).contains(f)

    if member(hi):
        return CAP_REACHED
    lo = 0
    # invariant: member(lo) holds (level 0 is the unit ideal), member(hi) fails
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if member(mid):
            lo = mid
        else:
            hi = mid
    return Fraction(lo, n)


@shared_bases()
def nu_bar_estimate(alg: QReesAlgebra, f: Polynomial, n_max: int = DEFAULT_N_MAX, cap=DEFAULT_CAP):
    """Lower bound for the saturated order: max over n <= n_max of nu(f^n)/n,
    or CAP_REACHED at the first n whose nu(f^n) reaches cap * n."""
    cap = Fraction(cap)
    check_bound("n_max", n_max, 1)
    check_bound("cap", cap, 0)
    check_ring(f, alg.field, alg.variables)
    if f.is_zero():
        return INFINITY
    best = Fraction(0)
    for n in range(1, n_max + 1):
        v = nu(alg, f**n, cap * n)
        if v == CAP_REACHED:
            return CAP_REACHED
        assert not isinstance(v, Infinity)
        best = max(best, v / n)
    return best


class MembershipVerdict:
    __slots__ = ("status", "power", "level")

    def __init__(
        self, status: str, power: int | None = None, level: Fraction | None = None
    ) -> None:
        self.status = status  # "Member" | "MemberWitness" | "NonMemberAtCap"
        self.power = power
        self.level = level

    def holds(self) -> bool:
        return self.status in ("Member", "MemberWitness")


@shared_bases()
def is_integral_member(
    alg: QReesAlgebra, f: Polynomial, a, n_max: int = DEFAULT_N_MAX, cap=DEFAULT_CAP
) -> MembershipVerdict:
    """Does f belong to the saturation at weight a?  Tests f^n against the
    level ideal at n*a for n up to n_max (or until n*a passes the cap)."""
    a = Fraction(a)
    cap = Fraction(cap)
    check_bound("n_max", n_max, 1)
    check_bound("cap", cap, 0)
    if a < 0:
        raise PreconditionError("membership weight must be nonnegative")
    check_ring(f, alg.field, alg.variables)
    if f.is_zero() or a == 0:
        return MembershipVerdict("Member", 1, a)
    for n in range(1, n_max + 1):
        if a * n > cap:
            break
        if alg.level_ideal(a * n).contains(f**n):
            if n == 1:
                return MembershipVerdict("Member", 1, a)
            return MembershipVerdict("MemberWitness", n, a)
    return MembershipVerdict("NonMemberAtCap", None, a)


class EquivalenceVerdict:
    __slots__ = ("status", "witness_point", "detail")

    def __init__(self, status: str, witness_point: tuple | None = None, detail: str = "") -> None:
        self.status = status  # "Equivalent" | "Inequivalent" | "Unknown"
        self.witness_point = witness_point
        self.detail = detail


@shared_bases()
def equivalence_check(
    left: QReesAlgebra, right: QReesAlgebra, n_max: int = DEFAULT_N_MAX, cap=DEFAULT_CAP
) -> EquivalenceVerdict:
    """Mutual integral containment on a common integer grading.

    Both inclusions verified gives Equivalent.  Otherwise a disagreement of
    orders at some small rational point certifies Inequivalent; failing both,
    the bounded search is inconclusive and the verdict is Unknown.
    """
    cap = Fraction(cap)
    check_bound("n_max", n_max, 1)
    check_bound("cap", cap, 0)
    check_ring(right, left.field, left.variables, "right-hand algebra")
    if left.is_zero() and right.is_zero():
        return EquivalenceVerdict("Equivalent")
    if left.is_zero() != right.is_zero():
        return EquivalenceVerdict("Inequivalent", None, "exactly one side is the zero algebra")

    n = math.lcm(left.denominator(), right.denominator())
    lg = left.scale(Fraction(1, n))
    rg = right.scale(Fraction(1, n))

    def contained(src: QReesAlgebra, dst: QReesAlgebra) -> bool:
        for f, a in src.generators:
            if not is_integral_member(dst, f, a, n_max, cap).holds():
                return False
        return True

    if contained(lg, rg) and contained(rg, lg):
        return EquivalenceVerdict("Equivalent")

    for point in algebra_sample_points(left.variables):
        lo = left.ord_at_point(point)
        ro = right.ord_at_point(point)
        if lo != ro:
            return EquivalenceVerdict("Inequivalent", point, f"orders {lo} and {ro} disagree")
    return EquivalenceVerdict("Unknown")
