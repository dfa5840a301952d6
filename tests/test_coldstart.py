"""What `import hermquot` loads, and the plain value classes that keep it
small.  A CLI command is one process, so its cold start pays for every
module the package imports; none of the package's values needs
dataclasses, inspect or typing."""

import os
import pathlib
import subprocess
import sys

import pytest

from hermquot import autgrp, models, numsg, placecount
from hermquot.gfield import make_field

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # -S keeps site hooks out: a .pth file may import typing by itself
    code = ("import sys, hermquot.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    assert run.stdout.strip() == "[]"


def _hermitian():
    return models.build(make_field(2, 2), "Hermitian")


_FROZEN = {
    "AutGroupTable": lambda: autgrp.AutGroupTable(model=_hermitian(), elements=[], order=1),
    "CurveModel": _hermitian,
    "CoeffList": lambda: models.family_III_coeffs(
        make_field(2, 2), models.default_b(make_field(2, 2), "family_III")),
    "NumSemigroup": lambda: numsg.from_generators((2, 3)),
    "PlaceTally": lambda: placecount.affine_points(_hermitian()),
}


@pytest.mark.parametrize("name", sorted(_FROZEN))
def test_frozen_fields_refuse_assignment(name):
    value = _FROZEN[name]()
    assert type(value).__name__ == name
    for field in type(value).__slots__:
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        assert getattr(value, field) is before


def test_defaults_are_fresh_per_instance():
    m = _hermitian()
    a, b = (models.CurveModel(F=m.F, ctx=m.ctx, family=m.family) for _ in range(2))
    assert a.params == {} and a.params is not b.params
    assert (a.claimed_genus, a.claimed_semigroup_gens) == (0, None)
    s, t = (autgrp.AutGroupTable(model=m, elements=[], order=1) for _ in range(2))
    assert (s.generators, s.details) == ([], {})
    assert s.generators is not t.generators and s.details is not t.details
    assert (s.closed, s.exponent, s.center_order, s.commutator_order) == (True, None, None, None)


def test_missing_and_unknown_fields_are_refused():
    with pytest.raises(TypeError, match="needs conductor"):
        numsg.NumSemigroup(generators=(2, 3), gap_set=(1,), genus=1)
    with pytest.raises(TypeError, match="no field size"):
        numsg.NumSemigroup(generators=(2, 3), gap_set=(1,), genus=1, conductor=2, size=3)
