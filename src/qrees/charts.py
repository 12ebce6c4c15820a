"""Affine charts, exceptional-divisor bookkeeping, blowups and transforms,
plus the chart-level constructions the resolution driver leans on:
dividing out divisorial content, coefficient and elimination algebras,
and the search for a triangular maximal-contact variable."""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter

from .algebra import QReesAlgebra, _ceil_times
from .errors import ChartSplitRequired, PreconditionError, UnsupportedCharacteristic
from .field import FieldSpec
from .poly import Infinity, Polynomial, variable_index
from .saturation import diff_saturate


class DivisorRecord:
    """An exceptional divisor visible in this chart as a coordinate hyperplane."""

    __slots__ = ("var", "created")

    def __init__(self, var: str, created: int) -> None:
        self.var = var
        self.created = created

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not DivisorRecord:
            return NotImplemented
        return self.var == other.var and self.created == other.created

    def __hash__(self) -> int:
        return hash((self.var, self.created))


class Chart:
    """One affine chart of the evolving ambient space.

    The substitution strings record how this chart maps to its parent, for
    the trace only.
    """

    __slots__ = ("id", "field", "variables", "parent", "substitution", "divisors")

    def __init__(
        self,
        id: str,
        field: FieldSpec,
        variables: tuple[str, ...],
        parent: str | None = None,
        substitution: tuple[tuple[str, str], ...] = (),
        divisors: tuple[DivisorRecord, ...] = (),
    ) -> None:
        self.id = id
        self.field = field
        self.variables = variables
        self.parent = parent
        self.substitution = substitution
        self.divisors = divisors


def validate_center(chart_vars: tuple[str, ...], center_vars: tuple[str, ...], chart_var: str) -> None:
    if not center_vars:
        raise PreconditionError("blowup center needs at least one variable")
    if len(set(center_vars)) != len(center_vars):
        raise PreconditionError("blowup center variables must be distinct")
    for v in center_vars:
        if v not in chart_vars:
            raise PreconditionError(f"center variable {v} is not a chart variable")
    if chart_var not in center_vars:
        raise PreconditionError(f"chart variable {chart_var} must lie in the center")


def blowup_chart(
    parent: Chart, center_vars: tuple[str, ...], chart_var: str, created: int
) -> Chart:
    """The chart_var-chart of blowing up V(center_vars): the other divisor
    records carried by strict transform, chart_var's old record replaced by
    the new exceptional one, appended last."""
    validate_center(parent.variables, center_vars, chart_var)
    subst = tuple(
        (v, f"{v}*{chart_var}")
        for v in parent.variables
        if v in center_vars and v != chart_var
    )
    return Chart(
        id=f"{parent.id}.{created}{chart_var}",
        field=parent.field,
        variables=parent.variables,
        parent=parent.id,
        substitution=subst,
        divisors=tuple(d for d in parent.divisors if d.var != chart_var)
        + (DivisorRecord(chart_var, created),),
    )


def transform_algebra(
    alg: QReesAlgebra, center_vars: tuple[str, ...], chart_var: str
) -> QReesAlgebra:
    """Controlled transform in the chart_var-chart: substitute the blowup map
    and divide each generator by chart_var^ceil(a_i).

    The ring may be a coordinate subspace of the chart, so center variables
    outside it are ignored; the chart variable must lie in both.  The
    blowup map v -> v * chart_var is monomial, so both steps are one rewrite
    of each exponent: chart_var's exponent becomes the term's degree in the
    center C (its variables in the ring) minus ceil(a_i).  The rewrite is
    injective, so no two terms merge.

    No exponent goes negative iff V(C) lies in the singular locus
    {ord >= 1}, in every characteristic, so the rewrite is the center check.
    {ord >= 1} is cut out by the Hasse derivatives D^alpha f with
    |alpha| < ceil(a).  If every term of f has C-degree at least ceil(a),
    each D^alpha f keeps a center variable in every term and vanishes on
    V(C).  If some term e0 has C-degree s < ceil(a), take alpha = e0|_C:
    D^alpha f restricted to C = 0 keeps the term e0 - alpha with coefficient
    C(e0, alpha) = 1 (no other term lands there), so it is nonzero even
    modulo p.
    """
    ring = alg.variables
    if chart_var not in ring:
        raise PreconditionError(f"chart variable {chart_var} is not in the ring")
    if chart_var not in center_vars:
        raise PreconditionError(f"chart variable {chart_var} must lie in the center")
    t = ring.index(chart_var)
    moved = [i for i, v in enumerate(ring) if v in center_vars and v != chart_var]
    gens = []
    for f, a in alg.generators:
        k = _ceil_times(a, 1)
        terms = {
            e[:t] + (e[t] + sum(e[i] for i in moved) - k,) + e[t + 1 :]: c
            for e, c in f.terms.items()
        }
        if min(map(itemgetter(t), terms)) < 0:
            raise PreconditionError("blowup center is not inside the singular locus")
        gens.append((Polynomial._trusted(alg.field, ring, terms), a))
    return QReesAlgebra._trusted(alg.field, ring, tuple(gens))


# -- divisorial content ------------------------------------------------------


def non_monomial_part(
    alg: QReesAlgebra, divisor_vars
) -> tuple[QReesAlgebra, list[Fraction | Infinity]]:
    """Divide out the full divisorial content along each listed divisor:
    the residual algebra, and ell(v) = order_along((v,)) for each listed v
    in list order.  The listed variables must be distinct variables of the
    ring.

    Every ell is read off alg itself, and each generator (f, a) is divided
    once, by v^ceil(a * ell(v)) for every listed v.  That is the same as
    stripping one divisor after another: dividing by a power of v moves no
    other variable's exponents, so no other ell changes.  Each division is
    exact: a * ell(v) <= ord_v(f), and ord_v(f) is an integer, so
    ceil(a * ell(v)) <= ord_v(f).  The zero algebra has no generators, so
    its INFINITY ells divide nothing.
    """
    idx = [variable_index(v, alg.field, alg.variables) for v in divisor_vars]
    if len(set(idx)) != len(idx):
        raise PreconditionError("divisor variables must be distinct")
    ells = [alg.order_along((v,)) for v in divisor_vars]
    gens = []
    for f, a in alg.generators:
        cut = [(i, _ceil_times(a, ell)) for i, ell in zip(idx, ells) if ell]
        if cut:
            terms = {}
            for e, c in f.terms.items():
                exps = list(e)
                for i, k in cut:
                    exps[i] -= k
                terms[tuple(exps)] = c
            f = Polynomial._trusted(alg.field, alg.variables, terms)
        gens.append((f, a))
    return QReesAlgebra._trusted(alg.field, alg.variables, tuple(gens)), ells


# -- descent constructions -----------------------------------------------------


def coefficient_algebra(alg: QReesAlgebra, var: str) -> QReesAlgebra:
    """Restriction of the differential saturation to the hypersurface V(var),
    living in the ring without var.  It restricts the saturation kept on alg,
    so a caller that saturated alg already pays for the restriction only."""
    i = variable_index(var, alg.field, alg.variables)
    sub = alg.variables[:i] + alg.variables[i + 1 :]
    gens = []
    for f, a in diff_saturate(alg).generators:
        g = f.restrict_zero(var)
        if g.terms:
            gens.append((g, a))
    return QReesAlgebra._trusted(alg.field, sub, tuple(gens))


def elimination_algebra(alg: QReesAlgebra, var: str) -> QReesAlgebra:
    """Generators not involving var, moved to the smaller ring."""
    i = variable_index(var, alg.field, alg.variables)
    sub = alg.variables[:i] + alg.variables[i + 1 :]
    gens = []
    for f, a in alg.generators:
        if var not in f.support_vars():
            gens.append((f.in_ring(sub), a))
    return QReesAlgebra(alg.field, sub, tuple(gens))


class ContactChoice:
    __slots__ = ("var", "shift")

    def __init__(self, var: str, shift: Polynomial | None) -> None:
        self.var = var
        self.shift = shift  # substitute var -> var + shift to straighten


def find_maximal_contact(
    alg: QReesAlgebra,
    frozen_vars: frozenset[str] = frozenset(),
    *,
    local: bool = False,
) -> ContactChoice:
    """Scan a differentially saturated algebra for a weight-1 generator of the
    form c*v + h with c a nonzero constant and h free of v.  Returns the first
    such v in generator order (then ring order), with the shift -h/c that
    recenters the contact hypersurface onto {v = 0}.

    A variable in frozen_vars (a divisor coordinate) is acceptable only when
    no shift is needed: recentering would move the divisor off its coordinate
    hyperplane and wreck the bookkeeping, so shifted candidates are skipped.

    With local=True (analysis at a single point rather than over a whole
    chart) a generator c(w)*v with no remainder also qualifies as long as the
    coefficient does not vanish at the origin: near the origin its zero set is
    exactly {v = 0}.  That reading is wrong globally, so chart-wide analysis
    must leave local unset.
    """
    if alg.field.characteristic != 0:
        raise UnsupportedCharacteristic(
            "maximal contact requires characteristic zero"
        )
    for f, a in alg.generators:
        if a != 1:
            continue
        for v in alg.variables:
            if f.degree_in(v) != 1:
                continue
            lead = f.coefficient_in_var(v, 1)
            rest = f.coefficient_in_var(v, 0)
            if not lead.is_constant():
                # order 0: lead has a constant term, so it is nonzero at the origin
                if local and rest.is_zero() and lead.order() == 0:
                    return ContactChoice(v, None)
                continue
            c = lead.constant_value()
            if rest.is_zero():
                return ContactChoice(v, None)
            if v in frozen_vars:
                # recentering would move the divisor off its coordinate
                continue
            shift = rest.scale(-1 / c)
            return ContactChoice(v, shift)
    raise ChartSplitRequired(
        "no triangular maximal contact among the saturated generators"
    )
