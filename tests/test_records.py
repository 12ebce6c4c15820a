"""The records' value semantics: equality and hashing by fields for the
records compared by value, and the constructors' defaults and checks."""

from __future__ import annotations

from fractions import Fraction

import pytest

from qrees.algebra import QReesAlgebra
from qrees.charts import Chart, DivisorRecord
from qrees.field import QQ, FieldSpec
from qrees.ideal import MonomialOrder
from qrees.invariant import InvariantValue, MonomialData
from qrees.resolve import LevelState
from qrees.saturation import EquivalenceVerdict, MembershipVerdict

from kit import A, P, XY, XYZ, rejected

# each record compared by value: its class, a builder of the fields of one
# instance, and for every field a different value
VALUE_RECORDS = {
    "FieldSpec": (FieldSpec, lambda: (5,), (3,)),
    "MonomialOrder": (MonomialOrder, lambda: (XYZ, frozenset({"x"})), (XY, frozenset())),
    # the zero algebra, so that its field and variables can change alone;
    # generators are compared in test_algebra_constructor_checks_and_trusted_skips_them
    "QReesAlgebra": (
        QReesAlgebra,
        lambda: (FieldSpec(0), XY, ()),
        (FieldSpec(3), ("y", "x"), ((P("x"), Fraction(2)),)),
    ),
    "DivisorRecord": (DivisorRecord, lambda: ("x", 1), ("y", 2)),
    "MonomialData": (MonomialData, lambda: (2, Fraction(3, 2), (1, 2)), (1, Fraction(1), (1,))),
    "InvariantValue": (
        InvariantValue,
        lambda: (((Fraction(2), 1),), MonomialData(1, Fraction(1), (1,))),
        (((Fraction(1), 1),), "Point"),
    ),
}


@pytest.mark.parametrize("name", sorted(VALUE_RECORDS))
def test_value_records_compare_and_hash_by_fields(name: str) -> None:
    cls, fields, others = VALUE_RECORDS[name]
    left, right = cls(*fields()), cls(*fields())
    assert left is not right
    assert left == right and not left != right
    assert hash(left) == hash(right)
    for i, other in enumerate(others):
        changed = list(fields())
        changed[i] = other
        assert left != cls(*changed), f"field {i} of {name} takes no part in equality"


@pytest.mark.parametrize("name", sorted(VALUE_RECORDS))
def test_value_records_equal_no_tuple_and_no_other_record(name: str) -> None:
    cls, fields, _ = VALUE_RECORDS[name]
    record = cls(*fields())
    assert record != fields() and fields() != record
    for other, (other_cls, other_fields, _) in VALUE_RECORDS.items():
        if other != name:
            assert record != other_cls(*other_fields())


def test_record_defaults() -> None:
    chart = Chart("0", QQ, XY)
    assert (chart.parent, chart.substitution, chart.divisors, chart.changes) == (None, (), (), ())
    level = LevelState(A(("x", 1)))
    assert (level.run_value, level.run_start, level.contact_var) == (None, 0, None)
    member = MembershipVerdict("Member")
    assert (member.power, member.level) == (None, None)
    verdict = EquivalenceVerdict("Unknown")
    assert (verdict.witness_point, verdict.detail) == (None, "")
    assert FieldSpec() == QQ and MonomialOrder(XY).first == frozenset()


def test_algebra_constructor_checks_and_trusted_skips_them() -> None:
    alg = QReesAlgebra(QQ, XY, ((P("x"), 2), (P("0"), 1), (P("y"), Fraction(1, 2))))
    assert alg.generators == ((P("x"), Fraction(2)), (P("y"), Fraction(1, 2)))
    assert all(type(a) is Fraction for _, a in alg.generators)
    twin = A(("x", 2), ("y", Fraction(1, 2)))
    assert twin == alg and hash(twin) == hash(alg)
    assert A(("x", 3), ("y", Fraction(1, 2))) != alg != A(("x", 2), ("x", Fraction(1, 2)))
    # the weight is checked before a zero generator is dropped
    with rejected("generator weight must be positive, got -1/2"):
        QReesAlgebra(QQ, XY, ((P("0"), Fraction(-1, 2)),))
    raw = ((P("0"), -1),)
    trusted = QReesAlgebra._trusted(QQ, XY, raw)
    assert trusted.generators is raw
