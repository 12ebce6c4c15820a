"""Helpers shared by the test modules: ring variables, polynomial and
algebra builders, field inverses for the oracles, the blowup-center oracle,
the check on a rejected input, a call recorder and the `gb_calls` fixture
built on it."""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from fractions import Fraction

import pytest

from qrees.algebra import QReesAlgebra
from qrees.errors import PreconditionError
from qrees.field import QQ, FieldSpec
from qrees.poly import Polynomial, parse_polynomial

XY = ("x", "y")
XYZ = ("x", "y", "z")


def P(text: str, variables: tuple[str, ...] = XY, field: FieldSpec = QQ) -> Polynomial:
    return parse_polynomial(text, field, variables)


def A(
    *gens: tuple[str, object], variables: tuple[str, ...] = XY, field: FieldSpec = QQ
) -> QReesAlgebra:
    """The algebra of (text, weight) generators."""
    return QReesAlgebra(
        field,
        variables,
        tuple((P(t, variables, field), Fraction(w)) for t, w in gens),
    )


def inverse(field: FieldSpec, c):
    """1/c in field, for the test oracles: a Fraction over Q, an int over F_p."""
    p = field.characteristic
    return pow(c, -1, p) if p else 1 / Fraction(c)


def center_oracle(alg: QReesAlgebra, center_vars) -> bool:
    """The definition: every generator of the singular ideal (Hasse
    derivatives below each weight) vanishes once the center is set to 0."""
    ring = alg.variables
    zeros = {v: Polynomial.zero(alg.field, ring) for v in center_vars if v in ring}
    if not zeros:
        return True
    return all(g.substitute(zeros).is_zero() for g in alg.sing_ideal().generators)


@contextmanager
def rejected(message: str, error: type[Exception] = PreconditionError):
    """The block must raise error with exactly message, which names the
    reason the input is rejected."""
    with pytest.raises(error) as info:
        yield
    assert str(info.value) == message


def record_calls(monkeypatch, owner, name: str) -> list:
    """Patch owner.name to append each call's positional arguments to the
    returned list, then return what the original returns."""
    original = getattr(owner, name)
    calls: list = []

    def recorded(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)
    return calls


@pytest.fixture
def gb_calls(monkeypatch) -> list:
    """The (generators, order) of every groebner_basis call, in order; a test
    module that imports this name can request it."""
    return record_calls(monkeypatch, importlib.import_module("qrees.ideal"), "groebner_basis")
