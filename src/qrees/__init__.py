"""Weighted Rees algebras over affine charts: orders, saturation, blowups,
and a resolution driver that records its invariant trace."""

from __future__ import annotations

from .algebra import (
    QReesAlgebra,
    algebra_sample_points,
    format_algebra,
    parse_generator_list,
)
from .charts import (
    Chart,
    ContactChoice,
    DivisorRecord,
    blowup_chart,
    coefficient_algebra,
    elimination_algebra,
    find_maximal_contact,
    non_monomial_part,
    transform_algebra,
    validate_center,
)
from .errors import (
    ChartSplitRequired,
    InvariantNotDecreasing,
    NotTerminated,
    PreconditionError,
    ProblemParseError,
    QreesError,
    UnsupportedCharacteristic,
)
from .field import QQ, FieldSpec
from .ideal import ClosedSet, Ideal, MonomialOrder, coordinate_ideal, groebner_basis
from .invariant import InvariantValue, MonomialData, non_singular_value
from .poly import (
    INFINITY,
    Infinity,
    Polynomial,
    format_polynomial,
    parse_polynomial,
)
from .problem import Problem, parse_problem
from .resolve import fc_at_point, max_locus_fc, resolve
from .saturation import (
    CAP_REACHED,
    EquivalenceVerdict,
    MembershipVerdict,
    diff_saturate,
    equivalence_check,
    is_integral_member,
    nu,
    nu_bar_estimate,
)

__all__ = [
    "CAP_REACHED",
    "Chart",
    "ChartSplitRequired",
    "ClosedSet",
    "ContactChoice",
    "DivisorRecord",
    "EquivalenceVerdict",
    "FieldSpec",
    "INFINITY",
    "Ideal",
    "Infinity",
    "InvariantNotDecreasing",
    "InvariantValue",
    "MembershipVerdict",
    "MonomialData",
    "MonomialOrder",
    "NotTerminated",
    "Polynomial",
    "PreconditionError",
    "Problem",
    "ProblemParseError",
    "QQ",
    "QReesAlgebra",
    "QreesError",
    "UnsupportedCharacteristic",
    "algebra_sample_points",
    "blowup_chart",
    "coefficient_algebra",
    "coordinate_ideal",
    "diff_saturate",
    "elimination_algebra",
    "equivalence_check",
    "fc_at_point",
    "find_maximal_contact",
    "format_algebra",
    "format_polynomial",
    "groebner_basis",
    "is_integral_member",
    "max_locus_fc",
    "non_monomial_part",
    "non_singular_value",
    "nu",
    "nu_bar_estimate",
    "parse_generator_list",
    "parse_polynomial",
    "parse_problem",
    "resolve",
    "transform_algebra",
    "validate_center",
]

__version__ = "0.1.0"
