"""Per-layer tracing by wrapping the library's public functions from outside.

Each traced function is replaced, at every module-level binding that holds it
(including re-imports such as ``qrees.resolve.transform_algebra``), by a
wrapper that counts the call and times it as a span.  Spans nest: a span's
self time is its duration minus the time of the traced spans it caused.
Spans are folded into per-name totals as they close rather than stored.
Nothing under ``src/`` changes; ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (metric prefix, owner, attribute).  The owner is a module name for functions
# and "module:Class" for methods.
TRACED = (
    ("ideal.groebner_basis", "qrees.ideal", "groebner_basis"),
    ("ideal.normal_form", "qrees.ideal", "normal_form"),
    ("ideal.radical_contains", "qrees.ideal:Ideal", "radical_contains"),
    ("ideal.eliminate", "qrees.ideal:Ideal", "eliminate"),
    ("algebra.max_order_within", "qrees.algebra:QReesAlgebra", "max_order_within"),
    ("algebra.level_ideal", "qrees.algebra:QReesAlgebra", "level_ideal"),
    ("algebra.order_ge_ideal", "qrees.algebra:QReesAlgebra", "order_ge_ideal"),
    ("saturation.diff_saturate", "qrees.saturation", "diff_saturate"),
    ("saturation.nu", "qrees.saturation", "nu"),
    ("saturation.is_integral_member", "qrees.saturation", "is_integral_member"),
    ("charts.transform_algebra", "qrees.charts", "transform_algebra"),
    ("charts.non_monomial_part", "qrees.charts", "non_monomial_part"),
    ("charts.coefficient_algebra", "qrees.charts", "coefficient_algebra"),
    ("charts.find_maximal_contact", "qrees.charts", "find_maximal_contact"),
    # qrees/__init__.py binds the name `resolve` to the resolution function, so
    # the submodule is only reachable through sys.modules.
    ("resolve.analyze_chart", "qrees.resolve", "analyze_chart"),
    ("resolve.blow_leaf", "qrees.resolve", "blow_leaf"),
    ("poly.substitute", "qrees.poly:Polynomial", "substitute"),
    ("poly.hasse_derivative", "qrees.poly:Polynomial", "hasse_derivative"),
    ("poly.mul", "qrees.poly:Polynomial", "__mul__"),
    ("problem.parse_problem", "qrees.problem", "parse_problem"),
)

MAX_ORDER = "algebra.max_order_within"


class Tracer:
    """Counts and span times of the traced functions while installed."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.self_seconds: defaultdict = defaultdict(float)
        self.tally: Counter = Counter()
        self._active: Counter = Counter()
        self._stack: list[list[float]] = [[0.0]]
        self._op_inputs: set = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- op boundaries ------------------------------------------------------------

    def begin_op(self) -> None:
        """Start a new op: Groebner inputs repeat only within one op."""
        self._op_inputs.clear()

    # -- result hooks, outside the timed span ---------------------------------------

    def _after_groebner(self, args, kwargs, result) -> None:
        gens, order = args
        key = (order, frozenset(gens))
        if key in self._op_inputs:
            self.tally["gb_repeat"] += 1
        self._op_inputs.add(key)
        if len(result) == 1 and result[0].is_constant():
            self.tally["gb_unit"] += 1
        self.tally["gb_out_len"] += len(result)
        if self._active[MAX_ORDER]:
            self.tally["gb_in_max_order"] += 1

    def _after_normal_form(self, args, kwargs, result) -> None:
        if result.is_zero():
            self.tally["nf_zero"] += 1

    def _after_level_ideal(self, args, kwargs, result) -> None:
        self.tally["level_products"] += len(result.generators)

    def _after_diff_saturate(self, args, kwargs, result) -> None:
        self.tally["sat_gens_out"] += len(result.generators)

    # -- wrapping -------------------------------------------------------------------

    def _wrap(self, name: str, fn):
        calls, seconds, self_seconds = self.calls, self.seconds, self.self_seconds
        active, stack = self._active, self._stack
        after = {
            "ideal.groebner_basis": self._after_groebner,
            "ideal.normal_form": self._after_normal_form,
            "algebra.level_ideal": self._after_level_ideal,
            "saturation.diff_saturate": self._after_diff_saturate,
        }.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            active[name] += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                active[name] -= 1
                if not active[name]:
                    # inclusive time counts the outermost of nested calls only
                    seconds[name] += elapsed
                self_seconds[name] += elapsed - frame[0]
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "qrees" or n.startswith("qrees."))
        ]
        for name, owner, attr in TRACED:
            module_name, _, class_name = owner.partition(":")
            module = sys.modules[module_name]
            if class_name:
                cls = getattr(module, class_name)
                original = cls.__dict__[attr]
                self._restore.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- metrics ---------------------------------------------------------------------

    def counts(self) -> dict[str, float]:
        """Per-layer counts and ratios of one pass; these repeat exactly."""

        def share(part, whole):
            return part / whole if whole else 0.0

        gb = self.calls["ideal.groebner_basis"]
        nf = self.calls["ideal.normal_form"]
        out = {f"{name}.calls": self.calls[name] for name, _, _ in TRACED if name != "problem.parse_problem"}
        out.update(
            {
                "ideal.groebner_basis.unit_frac": share(self.tally["gb_unit"], gb),
                "ideal.groebner_basis.repeat_frac": share(self.tally["gb_repeat"], gb),
                "ideal.groebner_basis.out_len": share(self.tally["gb_out_len"], gb),
                "ideal.normal_form.zero_frac": share(self.tally["nf_zero"], nf),
                "algebra.max_order_within.gb_per_call": share(
                    self.tally["gb_in_max_order"], self.calls[MAX_ORDER]
                ),
                "algebra.level_ideal.products": self.tally["level_products"],
                "saturation.diff_saturate.gens_out": self.tally["sat_gens_out"],
            }
        )
        return out

    def times(self) -> dict[str, float]:
        """Inclusive seconds of every traced function, plus the self seconds
        of the layers whose own work is interesting apart from their callees."""
        out = {f"{name}.s": self.seconds[name] for name, _, _ in TRACED if name != "problem.parse_problem"}
        for name in ("ideal.groebner_basis", MAX_ORDER, "resolve.analyze_chart"):
            out[f"{name}.self_s"] = self.self_seconds[name]
        return out
