"""Isomorphism decisions: witness solver, membership classifier, brute oracle."""

import pytest

from hermquot import models
from hermquot.gfield import FieldCtx, ParameterError, make_field
from hermquot.isocls import (
    IsoWitness,
    _norm_preimage,
    class_inventory,
    family_I_classify,
    family_I_iso,
    family_II_iso,
    oracle_iso,
)

_CTX = {}


def ctx(p, h):
    if (p, h) not in _CTX:
        _CTX[(p, h)] = make_field(p, h)
    return _CTX[(p, h)]


def fam_I_params(c):
    return models.admissible_b(c, "family_I")


def test_self_witness_is_identity_scaling():
    c = ctx(2, 3)
    b = fam_I_params(c)[0]
    w = family_I_iso(c, b, b)
    assert isinstance(w, IsoWitness)
    assert w.c == 1 and w.delta == 1
    assert w.as_dict()["b"] == w.as_dict()["bbar"] == b


def test_family_I_h3_all_pairs_isomorphic():
    # F_8 \ F_2 is a single class: every parameter is cubic over F_2
    c = ctx(2, 3)
    bs = fam_I_params(c)
    for i, x in enumerate(bs):
        for y in bs[i:]:
            assert family_I_iso(c, x, y) is not None
            assert family_I_classify(c, x, y) == {"iso": True, "case": "both_cubic"}


def test_family_I_h5_cube_is_not_isomorphic():
    # b and b^3 sit in different fractional-linear orbits
    c = ctx(2, 5)
    b = fam_I_params(c)[0]
    assert family_I_iso(c, b, c.pow(b, 3)) is None
    assert not family_I_classify(c, b, c.pow(b, 3))["iso"]


def test_explicit_inverse_witness():
    # for b outside F_{p^2} and F_{p^3}, the pair (b^-p, -b) certifies b -> 1/b
    for p, h in [(2, 5), (3, 4)]:
        c = ctx(p, h)
        b = next(
            e
            for e in c.subfield_encodings(h)
            if e >= p and c.frob(e, 2) != e and c.frob(e, 3) != e
        )
        binv = c.inv(b)
        cc = c.pow(c.inv(b), p)
        dd = c.neg(b)
        for i in range(1, h):
            lhs = c.mul(dd, c.sub(binv, c.frob(binv, i)))
            rhs = c.mul(c.frob(cc, i - 1), c.sub(b, c.frob(b, i)))
            assert lhs == rhs
        assert family_I_iso(c, b, binv) is not None
        assert family_I_classify(c, b, binv) == {
            "iso": True,
            "case": "fractional_linear",
        }


def test_classifier_membership_cases():
    c = ctx(2, 6)
    elems = list(c.subfield_encodings(6))
    quads = [e for e in elems if e >= 2 and c.frob(e, 2) == e]
    cubs = [e for e in elems if e >= 2 and c.frob(e, 3) == e and c.frob(e, 2) != e]
    gen = next(e for e in elems if e >= 2 and c.frob(e, 2) != e and c.frob(e, 3) != e)
    assert family_I_classify(c, quads[0], quads[1]) == {
        "iso": True,
        "case": "both_quadratic",
    }
    assert family_I_classify(c, quads[0], gen) == {
        "iso": False,
        "case": "not_isomorphic",
    }
    assert family_I_classify(c, cubs[0], cubs[1]) == {
        "iso": True,
        "case": "both_cubic",
    }


def test_class_inventories_family_I():
    frozen = {
        (2, 3): (1, [6]),
        (2, 4): (3, [6, 6, 2]),
        (2, 5): (5, [6, 6, 6, 6, 6]),
        (3, 3): (1, [24]),
    }
    for (p, h), (count, sizes) in frozen.items():
        inv = class_inventory("family_I", ctx(p, h))
        assert inv["class_count"] == count
        assert inv["class_sizes"] == sizes
        assert inv["classifier_agreement"] is True
        assert sum(inv["class_sizes"]) == inv["count"]


def test_class_inventory_family_II():
    inv = class_inventory("family_II", ctx(3, 2))
    assert inv["count"] == 8
    assert inv["class_count"] == 4
    assert inv["class_sizes"] == [2, 2, 2, 2]
    with pytest.raises(ParameterError):
        class_inventory("family_III", ctx(2, 2))


def test_class_inventory_takes_either_spelling():
    c = ctx(2, 3)
    inv = class_inventory("I", c)
    assert inv == class_inventory("family_I", c)
    assert inv["family"] == "family_I"
    assert class_inventory("II", ctx(3, 2)) == class_inventory("family_II", ctx(3, 2))
    for family in ("III", "hermitian"):
        with pytest.raises(ParameterError):
            class_inventory(family, c)


def test_family_II_kappa():
    c = ctx(3, 2)
    bs = models.admissible_b(c, "family_II")
    b = bs[0]
    assert family_II_iso(c, b, b) == 1
    assert family_II_iso(c, b, c.scale(b, 2)) == 2
    inv = class_inventory("family_II", c)
    other = next(cl[0] for cl in inv["classes"] if b not in cl)
    assert family_II_iso(c, b, other) is None


def test_iso_is_an_equivalence_relation():
    c = ctx(2, 4)
    bs = fam_I_params(c)
    dec = {
        (x, y): family_I_iso(c, x, y) is not None for x in bs for y in bs
    }
    for x in bs:
        assert dec[(x, x)]
        for y in bs:
            assert dec[(x, y)] == dec[(y, x)]
            for z in bs:
                if dec[(x, y)] and dec[(y, z)]:
                    assert dec[(x, z)]


def test_oracle_identity():
    c = ctx(2, 3)
    m = models.family_I_model(c, fam_I_params(c)[0])
    assert oracle_iso(m, m, tier=1)


def test_oracle_agrees_with_solver_family_I():
    c = ctx(2, 3)
    bs = fam_I_params(c)
    for i, x in enumerate(bs):
        for y in bs[i:]:
            expected = family_I_iso(c, x, y) is not None
            got = oracle_iso(
                models.family_I_model(c, x), models.family_I_model(c, y), tier=1
            )
            assert got == expected


def test_oracle_tier2_agrees_with_kappa_test():
    c = ctx(3, 2)
    bs = models.admissible_b(c, "family_II")
    for i, x in enumerate(bs):
        for y in bs[i:]:
            expected = family_II_iso(c, x, y) is not None
            got = oracle_iso(
                models.family_II_model(c, x), models.family_II_model(c, y), tier=2
            )
            assert got == expected


def test_oracle_bounds_and_scope():
    c = ctx(2, 5)
    m = models.family_I_model(c, fam_I_params(c)[0])
    with pytest.raises(ParameterError):
        oracle_iso(m, m, tier=2)  # q = 32 over the tier-2 bound
    with pytest.raises(ParameterError):
        oracle_iso(m, m, tier=3)
    c2 = ctx(2, 2)
    m3 = models.family_III_model(c2, models.admissible_b(c2, "family_III")[0])
    with pytest.raises(ParameterError):
        oracle_iso(m3, m3, tier=1)  # mixed x*y terms are out of scope


def test_parameter_validation():
    c = ctx(2, 3)
    with pytest.raises(ParameterError):
        family_I_iso(c, 1, fam_I_params(c)[0])  # b inside F_p
    with pytest.raises(ParameterError):
        family_I_classify(c, 0, fam_I_params(c)[0])
    c2 = ctx(3, 2)
    with pytest.raises(ParameterError):
        family_II_iso(c2, 1, 1)  # 1^q + 1 != 0


@pytest.mark.parametrize("p, h", [(2, 2), (3, 2), (2, 3), (3, 3), (5, 2)])
def test_norm_table_stops_once_complete(monkeypatch, p, h):
    c = ctx(p, h)
    full = {}
    for s in c.subfield_encodings(2 * h):
        full.setdefault(c.pow(s, c.q + 1), s)
    assert len(full) == c.q
    calls = []
    pow_ = FieldCtx.pow
    monkeypatch.setattr(FieldCtx, "pow", lambda self, a, e: calls.append(a) or pow_(self, a, e))
    c._norm = None
    assert all(_norm_preimage(c, d) == s for d, s in full.items())
    # the ascending scan ends at the last least preimage
    assert calls[-1] == max(full.values()) and len(calls) < c.q**2
