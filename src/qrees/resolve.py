"""The resolution driver: multi-level invariant computation over a tower of
maximal-contact restrictions, center selection, and the blowup loop.

Every chart carries a persistent tower of level states.  Level 0 is the chart
itself; level k+1 lives on {v = 0} in level k and records v, its contact
variable.  Each level stores only what a blowup cannot recompute: its algebra
in world coordinates, transformed along blowups, and bookkeeping for the
current run (the consecutive steps during which its order is constant).  A
line is always the bottom level and keeps no run.  The divisors a level sees
are derived on the way down from the chart's: level k+1 sees those of level k
created after level k's run began, less its own contact variable.  Every level
goes down through one descent step: the stored lower level is reused while a
run lasts and rebuilt from a fresh coefficient algebra the moment the order
above it moves.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .algebra import QReesAlgebra, point_shift
from .charts import (
    Chart,
    DivisorRecord,
    blowup_chart,
    coefficient_algebra,
    find_maximal_contact,
    non_monomial_part,
    transform_algebra,
)
from .errors import (
    ChartSplitRequired,
    InvariantNotDecreasing,
    NotTerminated,
    PreconditionError,
    UnsupportedCharacteristic,
    check_bound,
)
from .field import FieldSpec
from .ideal import ClosedSet, Ideal, coordinate_ideal, shared_bases
from .invariant import (
    POINT,
    ZERO_COEFF,
    InvariantValue,
    MonomialData,
    non_singular_value,
)
from .poly import Polynomial, check_ring, format_polynomial
from .saturation import diff_saturate

# the default step budget of `resolve` and of the CLI's --max-steps
DEFAULT_MAX_STEPS = 50


class LevelState:
    """One floor of a chart's tower; its world coordinates are its algebra's
    ring.  The divisors it sees are derived, not stored (`_divisors_below`).
    A level is born without a run; its first analysis opens one, except on a
    line, which has no level below and so no run to keep.  Its contact
    variable, the one whose zero set it is, is fixed at birth (level 0 has
    none), and every reader asks about this level: the descent onto it, the
    divisors it sees, and `blow_leaf` dropping it.  So a contact shift,
    which rewrites only the levels above, leaves it alone."""

    __slots__ = ("algebra", "run_value", "run_start", "contact_var")

    def __init__(
        self,
        algebra: QReesAlgebra,
        run_value: Fraction | None = None,
        run_start: int = 0,
        contact_var: str | None = None,
    ) -> None:
        self.algebra = algebra
        self.run_value = run_value  # order that opened the current run, if any
        self.run_start = run_start
        self.contact_var = contact_var  # the variable this level is the zero set of

    def with_algebra(self, algebra: QReesAlgebra) -> LevelState:
        """This level with its algebra moved by a shift or a blowup."""
        return LevelState(algebra, self.run_value, self.run_start, self.contact_var)


class Leaf:
    """A fully analyzed chart: its invariant, chosen center, and updated tower."""

    __slots__ = ("chart", "tower", "value", "center_vars")

    def __init__(
        self,
        chart: Chart,
        tower: tuple[LevelState, ...],
        value: InvariantValue,
        center_vars: tuple[str, ...],
    ) -> None:
        self.chart = chart
        self.tower = tower
        self.value = value
        self.center_vars = center_vars  # empty exactly when non-singular


def root_chart(
    field: FieldSpec,
    variables: tuple[str, ...],
    algebra: QReesAlgebra,
    divisors: tuple[DivisorRecord, ...],
) -> tuple[int, Chart, tuple[LevelState, ...]]:
    """The chart "0" before any blowup, with its one-level tower, starting at
    the newest divisor's creation step.  The algebra must live on the
    chart's field and variables, and every divisor must be a distinct chart
    variable."""
    check_ring(algebra, field, variables, "algebra")
    divisors = tuple(divisors)
    seen_vars = set()
    for d in divisors:
        if d.var not in variables:
            raise PreconditionError(f"divisor variable {d.var} is not a chart variable")
        if d.var in seen_vars:
            raise PreconditionError(f"divisor variable {d.var} declared twice")
        seen_vars.add(d.var)
    start = max([0] + [d.created for d in divisors])
    chart = Chart(id="0", field=field, variables=variables, divisors=divisors)
    return start, chart, (LevelState(algebra),)


# ---------------------------------------------------------------------------
# per-chart analysis


@shared_bases()
def analyze_chart(
    chart: Chart, tower: tuple[LevelState, ...], step: int, *, at_point: bool = False
) -> Leaf:
    """Compute the invariant of a chart (or of its origin, with at_point=True),
    refine the maximal stratum to a coordinate center, and update tower state.

    The walk goes down one level at a time.  A level whose order moved opens
    a new run and drops the levels below it; then one descent step takes it
    to the level below, the stored one or, when none is stored, one built
    from its coefficient algebra.  A line ends the walk and keeps no run.

    Equal ideals met during the analysis share one Groebner basis
    (`shared_bases`); inside `resolve`, they share it across every chart.
    """
    field = chart.field
    levels = list(tower)
    top = levels[0]

    if at_point:
        singular = top.algebra.ord_at_origin() >= 1
        incoming = coordinate_ideal(field, top.algebra.variables, top.algebra.variables)
    else:
        incoming = top.algebra.sing_ideal()
        singular = not incoming.is_unit()
    if not singular:
        return Leaf(chart, tuple(levels), non_singular_value(), ())

    out_levels: list[tuple[Fraction, int]] = []
    center_accum: list[str] = []
    changes: list[tuple[str, str]] = []
    # a shift rewrites levels 0..k, so every divisor of the chart is frozen
    frozen = frozenset(d.var for d in chart.divisors)
    divisors = chart.divisors  # those level k sees
    k = 0

    while True:
        world = levels[k]
        ring = world.algebra.variables

        if len(ring) == 1:
            # a line: plain order, no divisor bookkeeping, no run, and a point
            # (or the whole line) as the deepest stratum
            u = ring[0]
            omega, stratum = world.algebra.max_order_within(incoming)
            out_levels.append((omega, 0))
            terminator, bottom_vars = POINT, []
            basis = stratum.basis()
            if basis:  # otherwise the whole line is the stratum
                root = _line_point(basis[0], u)
                if not root.is_zero():
                    # the point sits at u = r with r nonzero: recenter, unless
                    # u carries a divisor on any level the shift rewrites
                    if u in frozen:
                        raise ChartSplitRequired(
                            "the deepest point left the divisor's coordinate hyperplane"
                        )
                    _apply_shift(levels, k, changes, u, root)
                bottom_vars = [u]
            break

        residual, ell_of = _strip_divisors(world.algebra, divisors)
        omega, stratum = residual.max_order_within(incoming)

        # a level is first analyzed in the call that builds it, so it has a
        # run exactly when it was built at an earlier step
        built_earlier = world.run_value is not None
        if world.run_value != omega:
            world = LevelState(world.algebra, omega, step, world.contact_var)
            levels[k] = world
            del levels[k + 1 :]

        old = [d for d in divisors if d.created <= world.run_start]
        winners, stratum = _divisor_phase(stratum, old)
        out_levels.append((omega, len(winners)))

        if omega == 0:
            terminator, bottom_vars = _monomial_center(world.algebra, divisors, winners, ell_of)
            break

        if k + 1 == len(levels):
            # no stored level below: build one
            scaled = residual.scale(Fraction(1) / omega)
            if built_earlier:
                scaled = scaled.odot(world.algebra)
            join = QReesAlgebra(
                field,
                ring,
                tuple(
                    (Polynomial.variable(field, ring, d.var), Fraction(1))
                    for d in winners
                ),
            )
            contact_input = scaled.odot(join)
            choice = find_maximal_contact(
                diff_saturate(contact_input), frozen, local=at_point
            )
            v = choice.var
            if choice.shift is not None:
                moved = {v: choice.shift}
                _apply_shift(levels, k, changes, v, choice.shift)
                stratum = Ideal(field, ring, [g.shift(moved) for g in stratum.generators])
                contact_input = contact_input.shift(moved)
            coeff = coefficient_algebra(contact_input, v)
            if coeff.is_zero():
                # infinite order below: the stratum itself is the center
                center_accum.append(v)
                terminator = ZERO_COEFF
                bottom_vars = _coordinate_stratum_vars(_push_down(stratum, v))
                break
            levels.append(LevelState(coeff, contact_var=v))

        # the one descent step; after a shift only world.run_start is current
        v = levels[k + 1].contact_var
        center_accum.append(v)
        incoming = _push_down(stratum, v)
        divisors = _divisors_below(divisors, world.run_start, v)
        k += 1

    # every exit adds at least one variable (the line's stratum holds the
    # nonzero incoming ideal when the line is level 0), and each level adds
    # variables of its own ring, which lacks the contact variables above it,
    # so the center needs neither deduplication nor an emptiness check
    vars_used = center_accum + bottom_vars
    if changes:
        chart = Chart(
            chart.id, chart.field, chart.variables, chart.parent, chart.substitution,
            chart.divisors, chart.changes + tuple(changes),
        )
    return Leaf(
        chart,
        tuple(levels),
        InvariantValue(tuple(out_levels), terminator),
        tuple(v for v in chart.variables if v in vars_used),
    )


def _divisors_below(
    divisors: tuple[DivisorRecord, ...], run_start: int, contact_var: str
) -> tuple[DivisorRecord, ...]:
    """The divisors the level below sees: those of this level created after
    its run began, less the contact variable that cuts the level below out.
    The filter commutes with a blowup's record swap (the new divisor always
    passes it), and a run change drops the levels below, so while the level
    below lives its set changes only by those swaps."""
    return tuple(d for d in divisors if d.created > run_start and d.var != contact_var)


def _coordinate_stratum_vars(down: Ideal) -> list[str]:
    """Read a coordinate subspace off the stratum's reduced basis.

    The zero ideal describes the whole space and contributes no variables.
    Anything that is not cut out by single variables cannot serve as a
    blowup center here."""
    found = []
    for g in down.basis():
        terms = list(g.terms.items())
        if len(terms) == 1 and g.total_degree() == 1:
            exponents = terms[0][0]
            found.append(down.variables[exponents.index(1)])
        else:
            raise ChartSplitRequired(
                "the residual stratum is not a coordinate subspace"
            )
    return found


def _strip_divisors(algebra: QReesAlgebra, divisors) -> tuple[QReesAlgebra, dict]:
    """Divide out the divisors made by blowups: (residual, multiplicity by var)."""
    strippable = [d for d in divisors if d.created >= 1]
    residual, ells = non_monomial_part(algebra, [d.var for d in strippable])
    return residual, {d.var: e for d, e in zip(strippable, ells)}


def _divisor_report(leaf: Leaf) -> list[dict]:
    """The trace's divisor entries: ell is the top algebra's order along
    each divisor created at step 1 or later (those `_strip_divisors`
    strips), None for one created at step 0."""
    alg = leaf.tower[0].algebra
    return [
        {
            "var": d.var,
            "created": d.created,
            "ell": str(alg.order_along((d.var,))) if d.created >= 1 else None,
        }
        for d in leaf.chart.divisors
    ]


def _push_down(stratum: Ideal, var: str) -> Ideal:
    sub = tuple(v for v in stratum.variables if v != var)
    return Ideal(stratum.field, sub, [g.restrict_zero(var) for g in stratum.generators])


def _divisor_phase(
    stratum: Ideal, old: list[DivisorRecord]
) -> tuple[tuple[DivisorRecord, ...], Ideal]:
    """Find the largest set of old divisors still meeting the stratum, and
    refine the stratum by their intersection.  Two such sets of one size
    always meet it on different loci: S1 != S2 on one locus L would put L
    inside V(stratum + S1 | S2), a larger set already found infeasible."""
    field, variables = stratum.field, stratum.variables
    for size in range(len(old), 0, -1):
        feasible = []
        for subset in combinations(old, size):
            gens = list(stratum.generators) + [
                Polynomial.variable(field, variables, d.var) for d in subset
            ]
            refined = Ideal(field, variables, gens)
            if not refined.is_unit():
                feasible.append((subset, refined))
        if not feasible:
            continue
        if len(feasible) > 1:
            raise ChartSplitRequired(
                "maximal divisor contact is attained on several distinct loci"
            )
        return feasible[0][0], feasible[0][1]
    return (), stratum


def _monomial_center(
    algebra: QReesAlgebra,
    divisors: tuple[DivisorRecord, ...],
    winners: tuple[DivisorRecord, ...],
    ell_of: dict,
) -> tuple[MonomialData, list[str]]:
    """Center selection when the residual order is zero: first try combinations
    of old divisors whose multiplicities reach one; failing that, fall back to
    coordinate subspaces on which the stored algebra itself has order >= 1."""
    for size in range(1, len(winners) + 1):
        found = []
        for subset in combinations(winners, size):
            total = sum(
                (ell_of.get(d.var, Fraction(0)) for d in subset), Fraction(0)
            )
            if total >= 1:
                indices = tuple(sorted(d.created for d in subset))
                found.append((-total, indices, [d.var for d in subset]))
        if found:
            # min keeps the first of equal keys: ties go to the first subset
            neg_total, indices, names = min(found, key=lambda t: t[:2])
            return MonomialData(size, -neg_total, indices), names

    # generalized fallback: any coordinate subspace works if every generator
    # of the (unstripped) stored algebra has enough order along it
    created_of = {d.var: d.created for d in divisors}
    for size in range(1, len(algebra.variables) + 1):
        found = []
        for subset in combinations(algebra.variables, size):
            s = algebra.order_along(subset)
            if s >= 1:
                indices = tuple(
                    sorted(created_of[v] for v in subset if v in created_of)
                )
                found.append((-s, indices, list(subset)))
        if found:
            # distinct subsets: the names break every tie
            neg_s, indices, names = min(found)
            return MonomialData(size, -neg_s, indices), names
    raise ChartSplitRequired(
        "monomial case without an admissible coordinate center"
    )


def _line_point(g: Polynomial, u: str) -> Polynomial:
    """The constant r with V(g) = {u = r}, for g monic in the line's ring.

    g = u^n + b*u^(n-1) + ... is a single rational point exactly when
    g == (u - r)^n with r = -b/n, read in characteristic zero, where every
    entry point runs.  Otherwise raise ChartSplitRequired."""
    field, ring = g.field, g.variables
    n = g.degree_in(u)
    if n >= 1:
        b = g.coefficient_in_var(u, n - 1).constant_value()
        root = Polynomial.constant(field, ring, -Fraction(b, n))
        if g == (Polynomial.variable(field, ring, u) - root) ** n:
            return root
    raise ChartSplitRequired("the deepest stratum is not a single rational point")


def _apply_shift(
    levels: list[LevelState],
    k: int,
    changes: list[tuple[str, str]],
    var: str,
    shift: Polynomial,
) -> None:
    """Triangular change of coordinates: rewrite the algebras of levels 0..k
    under var -> var + shift (the new coordinate is var - shift) and record
    the change.  A caller that keeps level k's stratum shifts it itself."""
    for j in range(k + 1):
        levels[j] = levels[j].with_algebra(levels[j].algebra.shift({var: shift}))
    image = Polynomial.variable(shift.field, shift.variables, var) + shift
    changes.append((var, format_polynomial(image)))


# ---------------------------------------------------------------------------
# blowups


def blow_leaf(leaf: Leaf, step: int) -> list[tuple[Chart, tuple[LevelState, ...]]]:
    """All charts of the blowup of this leaf's center, with transformed towers.

    Only the algebras change: `blowup_chart` carries the chart's divisors,
    from which every level's are derived."""
    assert leaf.center_vars, "only singular leaves are blown up"
    center = leaf.center_vars
    children = []
    for chart_var in center:
        child = blowup_chart(leaf.chart, center, chart_var, created=step + 1)
        new_levels: list[LevelState] = []
        for level in leaf.tower:
            if level.contact_var == chart_var:
                # this world's strict transform coincides with the exceptional
                # divisor in this chart: it and the levels below it vanish
                break
            new_levels.append(
                level.with_algebra(transform_algebra(level.algebra, center, chart_var))
            )
        children.append((child, tuple(new_levels)))
    return children


# ---------------------------------------------------------------------------
# driver


def _require_characteristic_zero(field: FieldSpec) -> None:
    """The one characteristic check of `resolve`, `fc_at_point` and
    `max_locus_fc`, made up front: the driver reads maximal contact and
    rational points as in characteristic zero."""
    if field.characteristic != 0:
        raise UnsupportedCharacteristic(
            "resolution is only implemented in characteristic zero"
        )


@shared_bases()
def resolve(
    field: FieldSpec,
    variables: tuple[str, ...],
    algebra: QReesAlgebra,
    divisors: tuple[DivisorRecord, ...] = (),
    max_steps: int = DEFAULT_MAX_STEPS,
) -> dict:
    """Blow up worst loci until no singular points remain; returns the trace.

    Each driver step blows up every leaf attaining the global maximum of the
    invariant (distinct leaves are distinct physical centers).  Successive
    maxima must strictly decrease; the loop stops when all leaves have empty
    singular locus or raises NotTerminated at the step budget, and raises
    InvariantNotDecreasing when a maximum fails to drop; both carry the
    partial trace.  Equal ideals share one Groebner basis for the whole run
    and no longer (`shared_bases`).
    """
    check_bound("max_steps", max_steps, 0)
    _require_characteristic_zero(field)
    if algebra.is_zero():
        raise PreconditionError("cannot resolve the zero algebra")
    start, root, tower = root_chart(field, variables, algebra, divisors)
    leaves: dict[str, Leaf] = {"0": _analyze_or_name(root, tower, start)}

    steps_json: list[dict] = []
    previous_max: InvariantValue | None = None
    step = start
    while True:
        singular = {cid: lf for cid, lf in leaves.items() if lf.value.is_singular()}
        if not singular:
            status = "resolved"
            break
        if step - start >= max_steps:
            raise NotTerminated(
                f"no resolution after {max_steps} steps",
                trace=_trace_dict(steps_json, leaves, "not-terminated", start),
            )
        current_max = max(lf.value for lf in singular.values())
        if previous_max is not None and not (current_max < previous_max):
            raise InvariantNotDecreasing(
                "invariant failed to decrease: "
                f"{previous_max} then {current_max} at step {step}",
                trace=_trace_dict(steps_json, leaves, "not-decreasing", start),
            )
        previous_max = current_max
        blown = sorted(cid for cid, lf in singular.items() if lf.value == current_max)
        for cid in blown:
            leaf = leaves.pop(cid)
            record = {
                "step": step,
                "chart": cid,
                "parent": leaf.chart.parent,
                "substitution": [[v, image] for v, image in leaf.chart.substitution],
                "changes": [[v, image] for v, image in leaf.chart.changes],
                "center": list(leaf.center_vars),
                "fc": leaf.value.to_json(),
                "divisors": _divisor_report(leaf),
                "children": [],
            }
            for child_chart, child_tower in blow_leaf(leaf, step):
                child_leaf = _analyze_or_name(child_chart, child_tower, step + 1)
                leaves[child_chart.id] = child_leaf
                record["children"].append(child_chart.id)
            steps_json.append(record)
        step += 1

    return _trace_dict(steps_json, leaves, status, start)


def _analyze_or_name(chart: Chart, tower: tuple[LevelState, ...], step: int) -> Leaf:
    """analyze_chart, with a ChartSplitRequired that names the chart and step."""
    try:
        return analyze_chart(chart, tower, step)
    except ChartSplitRequired as exc:
        raise ChartSplitRequired(f"chart {chart.id} at step {step}: {exc}") from exc


def _trace_dict(steps: list[dict], leaves: dict[str, Leaf], status: str, start: int) -> dict:
    leaf_list = []
    for cid in sorted(leaves):
        leaf = leaves[cid]
        leaf_list.append(
            {
                "chart": cid,
                "fc": leaf.value.to_json(),
                "sing": "empty" if not leaf.value.is_singular() else "nonempty",
            }
        )
    return {
        "status": status,
        "start_step": start,
        "steps": steps,
        "leaves": leaf_list,
    }


# ---------------------------------------------------------------------------
# standalone invariant queries


def fc_at_point(
    field: FieldSpec,
    variables: tuple[str, ...],
    algebra: QReesAlgebra,
    divisors: tuple[DivisorRecord, ...] = (),
    point=None,
) -> InvariantValue:
    """The invariant at one rational point, computed as a fresh run: every
    divisor through the point counts as pre-existing."""
    _require_characteristic_zero(field)
    if algebra.is_zero():
        raise PreconditionError("the zero algebra has no finite invariant")
    offset = {} if point is None else point_shift(variables, point)
    # divisors off the point are dropped; the rest, unknown names included,
    # go to root_chart for checking, and so does the ring before the shift
    kept = tuple(d for d in divisors if d.var not in offset)
    start, chart, (top,) = root_chart(field, variables, algebra, kept)
    tower = (top.with_algebra(algebra.shift(offset)),)
    return analyze_chart(chart, tower, start, at_point=True).value


def max_locus_fc(
    field: FieldSpec,
    variables: tuple[str, ...],
    algebra: QReesAlgebra,
    divisors: tuple[DivisorRecord, ...] = (),
) -> tuple[InvariantValue, ClosedSet]:
    """The maximal invariant over the chart together with its center locus."""
    _require_characteristic_zero(field)
    if algebra.is_zero():
        raise PreconditionError("the zero algebra has no finite invariant")
    start, chart, tower = root_chart(field, variables, algebra, divisors)
    leaf = analyze_chart(chart, tower, start)
    if not leaf.center_vars:
        return leaf.value, ClosedSet([Ideal.unit(field, variables)])
    return leaf.value, ClosedSet([coordinate_ideal(field, variables, leaf.center_vars)])
