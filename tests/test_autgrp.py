"""Automorphism layer: affine maps, closures, stabilizer tables, family groups."""

import pytest
from hypothesis import given, settings, strategies as st

from hermquot import models
from hermquot.autgrp import (
    AffineAlgMap,
    extract_stabilizer_params,
    family_I_group,
    family_II_group,
    family_III_group,
    group_closure,
    map_preserves,
    pgu_stabilizer,
    stabilizer_map,
    subgroup_types,
)
from hermquot.gfield import CheckError, ParameterError, make_field
from hermquot.polyring import BiPoly

_CTX = {}


def ctx(p, h):
    if (p, h) not in _CTX:
        _CTX[(p, h)] = make_field(p, h)
    return _CTX[(p, h)]


# affine map plumbing


def test_identity_and_composition():
    c = ctx(2, 2)
    names = ("x", "y")
    ident = AffineAlgMap.identity(c, names)
    assert ident.is_identity()
    m = stabilizer_map(c, 2, 3, 1, "plus", names)
    assert (m.compose(m.inverse())).is_identity()
    assert (m.inverse().compose(m)).is_identity()
    # compose(g) means "apply g first"
    g = stabilizer_map(c, 0, 1, 1, "plus", names)
    pt = (7, 11)
    via_maps = m.apply(*g.apply(*pt))
    assert m.compose(g).apply(*pt) == via_maps


def test_order_and_power():
    c = ctx(2, 2)
    central = stabilizer_map(c, 0, 1, 1, "plus")
    assert central.order() == 2
    assert central.compose(central).is_identity()
    assert central.compose(central).compose(central) == central
    c3 = ctx(3, 1)
    m = stabilizer_map(c3, 0, _central_b(c3), 1, "plus")
    assert m.order() == 3
    assert m.compose(m) == m.inverse()
    assert len(m.to_text()) > 0


def _central_b(c):
    # nonzero b with b^q + b = 0, the a = 0 stabilizer condition
    return next(
        e for e in c.subfield_encodings(2 * c.h) if e and c.add(c.frob(e, c.h), e) == 0
    )


def test_map_preserves_examples():
    c = ctx(2, 2)
    hm = models.hermitian_model(c)
    assert map_preserves(hm, stabilizer_map(c, 0, 1, 1, "plus", hm.variables))
    shift_x = AffineAlgMap(
        BiPoly(c, {(1, 0): 1, (0, 0): 1}, hm.variables),
        BiPoly(c, {(0, 1): 1}, hm.variables),
    )
    assert not map_preserves(hm, shift_x)

    c = ctx(2, 3)
    fam = models.family_I_model(c, models.admissible_b(c, "family_I")[0])
    lam = next(e for e in range(2, c.order) if c.pow(e, c.q + 1) == 1 and e > 1)
    mu = c.pow(lam, c.q + 1)
    scaling = AffineAlgMap(
        BiPoly(c, {(1, 0): lam}, fam.variables),
        BiPoly(c, {(0, 1): mu}, fam.variables),
    )
    assert map_preserves(fam, scaling)
    assert not map_preserves(
        fam,
        AffineAlgMap(
            BiPoly(c, {(1, 0): 1, (0, 0): 1}, fam.variables),
            BiPoly(c, {(0, 1): 1}, fam.variables),
        ),
    )


def test_map_preserves_rejects_nonconstant_leading_coefficient():
    # the family III plane model at (2,2) has Y-leading coefficient x^4 + 188
    c = ctx(2, 2)
    fam = models.family_III_model(c, models.admissible_b(c, "family_III")[0])
    with pytest.raises(ParameterError):
        map_preserves(fam, AffineAlgMap.identity(c, fam.variables))


def test_group_closure_small_cases():
    c = ctx(2, 2)
    ident = AffineAlgMap.identity(c)
    assert len(group_closure([ident])) == 1
    central = stabilizer_map(c, 0, 1, 1, "plus")
    assert len(group_closure([central])) == 2
    # two independent central translations span the full a = 0 part
    bs = [e for e in c.subfield_encodings(2 * c.h) if e and c.add(c.frob(e, c.h), e) == 0]
    gens = [stabilizer_map(c, 0, b, 1, "plus") for b in bs[:2]]
    grp = group_closure(gens)
    assert len(grp) == 4
    with pytest.raises(CheckError):
        group_closure([central], bound=1)


def test_extract_roundtrip():
    c = ctx(2, 2)
    elems = list(c.subfield_encodings(2 * c.h))
    a1 = next(e for e in elems if e > 1)
    b1 = next(
        e for e in elems if c.add(c.frob(e, c.h), e) == c.pow(a1, c.q + 1)
    )
    m1 = stabilizer_map(c, a1, b1, 1, "plus")
    m2 = stabilizer_map(c, 0, 1, 1, "plus")
    a, b, lam = extract_stabilizer_params(c, m1.compose(m2))
    rebuilt = stabilizer_map(c, a, b, lam, "plus")
    assert rebuilt == m1.compose(m2)
    # triangular, but y -> y + x^2 is not a stabilizer y-image
    with pytest.raises(CheckError):
        extract_stabilizer_params(c, AffineAlgMap.triangular(c, 1, 0, 1, {2: 1}))


@pytest.mark.parametrize(
    "x_terms, y_terms",
    [
        ({(2, 0): 1}, {(0, 1): 1}),
        ({(1, 0): 1, (0, 1): 1}, {(0, 1): 1}),
        ({(1, 0): 1}, {(0, 2): 1}),
        ({(0, 0): 1}, {(0, 1): 1}),
        ({(1, 0): 1}, {(1, 0): 1}),
        ({(1, 0): 1, (2, 0): 1}, {(0, 1): 1}),
        ({(1, 0): 1}, {(0, 1): 1, (0, 2): 1}),
        ({(1, 0): 1}, {(0, 1): 1, (1, 1): 1}),
    ],
    ids=["x->x^2", "x->x+y", "y->y^2", "lam=0", "mu=0", "x->x+x^2", "y->y+y^2",
         "y->y+xy"],
)
def test_construction_rejects_non_triangular_maps(x_terms, y_terms):
    c = ctx(2, 2)
    with pytest.raises(ParameterError):
        AffineAlgMap(BiPoly(c, x_terms), BiPoly(c, y_terms))


def test_triangular_constructor_rejects_zero_scalars():
    c = ctx(2, 2)
    with pytest.raises(ParameterError):
        AffineAlgMap.triangular(c, 0, 1, 1)
    with pytest.raises(ParameterError):
        AffineAlgMap.triangular(c, 1, 1, 0)


# the table fields (2,2), (3,2), (2,3) and the digit-path field (2,4)
_DIFF_FIELDS = [(2, 2), (3, 2), (2, 3), (2, 4)]


@st.composite
def _triangular_map(draw, c):
    elem = st.one_of(st.sampled_from([0, 1]), st.integers(0, c.order - 1))
    scalar = st.one_of(st.just(1), st.integers(1, c.order - 1))
    f = draw(st.dictionaries(st.integers(0, c.q), elem, max_size=4))
    return AffineAlgMap.triangular(
        c, draw(scalar), draw(elem), draw(scalar), f, ("x", "y")
    )


@given(key=st.sampled_from(_DIFF_FIELDS), data=st.data())
@settings(max_examples=150, deadline=None)
def test_triangular_map_matches_bipoly_oracle(key, data):
    """Closed-form compose, apply, inverse, key and to_text against the
    generic substitution and evaluation of the BiPoly images."""
    c = ctx(*key)
    m = data.draw(_triangular_map(c))
    g = data.draw(_triangular_map(c))
    mx, my, gx, gy = m.x_image, m.y_image, g.x_image, g.y_image
    mg = m.compose(g)
    assert mg.x_image == mx.substitute(gx, gy)
    assert mg.y_image == my.substitute(gx, gy)
    pt = data.draw(st.tuples(st.integers(0, c.order - 1), st.integers(0, c.order - 1)))
    assert m.apply(*pt) == (mx.evaluate(*pt), my.evaluate(*pt))
    assert m.compose(m.inverse()).is_identity()
    assert m.inverse().compose(m).is_identity()
    back = mg.compose(g.inverse())
    assert back.key() == m.key() and (back.x_image, back.y_image) == (mx, my)
    twin = AffineAlgMap(mx, my)
    assert twin.key() == m.key() and twin == m
    assert (m.key() == g.key()) == (mx == gx and my == gy)
    assert m.to_text() == "x -> %s, y -> %s" % (mx.to_text(), my.to_text())


# stabilizer tables


def test_stabilizer_table_q2():
    t = pgu_stabilizer(ctx(2, 1))
    assert t.order == 24
    assert t.center_order == 2
    assert t.details["unipotent_order"] == 8
    assert t.details["scalar_classes"] == 3
    assert t.details["noncentral_order_profile"] == {4: 6}
    assert t.exponent == 4


def test_stabilizer_table_q3():
    t = pgu_stabilizer(ctx(3, 1))
    assert t.order == 108
    assert t.center_order == 3
    assert t.details["unipotent_order"] == 27
    assert t.details["noncentral_order_profile"] == {3: 24}
    assert t.exponent == 3


def test_stabilizer_table_larger_q():
    frozen = {
        (2, 2): (320, 4, {4: 60}, 5),
        (2, 3): (4608, 8, {4: 504}, 9),
        (3, 2): (7290, 9, {3: 720}, 10),
    }
    for (p, h), (order, z, profile, scal) in frozen.items():
        t = pgu_stabilizer(ctx(p, h))
        q = p**h
        assert t.order == q**3 * (q + 1) == order
        assert t.center_order == z
        assert t.details["noncentral_order_profile"] == profile
        assert t.details["scalar_classes"] == scal


def test_subgroup_types():
    st = subgroup_types(ctx(2, 1))
    assert sorted(k for k in st if k != "notes") == ["cyclic4"]
    assert st["cyclic4"].order == 4
    assert st["notes"]

    st = subgroup_types(ctx(3, 1))
    assert sorted(k for k in st if k != "notes") == ["V"]
    assert st["V"].order == 9

    st = subgroup_types(ctx(2, 2))
    assert sorted(k for k in st if k != "notes") == ["U", "cyclic4"]
    assert st["U"].order == 4 and st["cyclic4"].order == 4
    assert st["notes"] == []

    st = subgroup_types(ctx(3, 2))
    assert sorted(k for k in st if k != "notes") == ["U", "V"]
    assert st["U"].order == 9 and st["V"].order == 9


# family groups


def test_family_I_group_2_3():
    c = ctx(2, 3)
    t = family_I_group(c, models.admissible_b(c, "family_I")[0])
    assert t.order == 1152
    assert t.closed
    assert len(t.elements) == 1152
    assert t.exponent == 36
    d = t.details
    assert d["V_order"] == 128
    assert d["Lambda_order"] == 9
    assert d["W_order"] == 1152
    assert d["V_normal"] and d["V_cap_Lambda_trivial"]
    assert d["fallback_used"] == 64
    disc = d["discrepancies"]
    assert len(disc) == 1
    assert disc[0]["check"] == "family_I_normal_subgroup_order"
    assert disc[0]["claimed"] == 2
    assert disc[0]["computed"] == 128


def test_family_I_group_2_2():
    c = ctx(2, 2)
    t = family_I_group(c, models.admissible_b(c, "family_I")[0])
    assert t.order == 80
    assert t.exponent == 10
    d = t.details
    assert d["V_order"] == 16 and d["Lambda_order"] == 5
    assert d["fallback_used"] == 14
    assert d["discrepancies"][0]["claimed"] == 1
    assert d["discrepancies"][0]["computed"] == 16


def test_family_I_group_3_3_counted():
    # too large to close under composition; orders are still verified
    c = ctx(3, 3)
    t = family_I_group(c, models.admissible_b(c, "family_I")[0])
    assert t.order == 122472
    assert not t.closed
    d = t.details
    assert d["V_order"] == 2187
    assert d["Lambda_order"] == 56
    assert d["discrepancies"][0]["claimed"] == 3
    assert d["discrepancies"][0]["computed"] == 2187


def test_family_II_group_3_2():
    c = ctx(3, 2)
    t = family_II_group(c, models.admissible_b(c, "family_II")[0])
    assert t.order == 54
    assert t.exponent == 6
    d = t.details
    assert d["Psi_order"] == 27
    assert d["Gamma_order"] == 3
    assert d["Delta_order"] == 3
    assert d["Omega_order"] == 9
    assert d["total_order"] == 54
    assert d["Psi_exponent"] == 3
    assert d["Psi_abelian"] is False
    assert d["commutator_equals_Gamma"]
    assert d["centralizer_profile"] == {27: 3, 9: 24}
    assert d["discrepancies"][0]["check"] == "family_II_elementary_abelian"


def _family_II_box(model):
    """(a, nu, c) of every map (xi, rho) -> (xi + a, rho + nu xi + c) with
    a, c in F_{q^2} and nu in F_p that the oracle accepts: a full scan of the
    parameter box, independent of the linearized conditions."""
    c = model.ctx
    box = c.subfield_encodings(2 * c.h)
    return {
        (a, nu, k)
        for a in box
        for nu in range(c.p)
        for k in box
        if map_preserves(
            model, AffineAlgMap.triangular(c, 1, a, 1, {1: nu, 0: k}, model.variables)
        )
    }


def test_family_II_solved_translations_match_box_scan():
    c = ctx(3, 2)
    t = family_II_group(c, models.admissible_b(c, "family_II")[0])
    # Psi is the lam = 1 part of the table
    psi = [g for g in t.elements if g.lam == 1]
    assert all(g.mu == 1 and set(g.f) <= {0, 1} for g in psi)
    solved = {(g.a, g.f.get(1, 0), g.f.get(0, 0)) for g in psi}
    assert len(solved) == len(psi) == 27
    assert solved == _family_II_box(t.model)


def test_family_II_rejected_solved_map_raises(monkeypatch):
    from hermquot import autgrp

    oracle = autgrp.map_preserves
    # an oracle that refuses every solved map with a nonzero nu
    monkeypatch.setattr(
        autgrp, "map_preserves", lambda model, m: 1 not in m.f and oracle(model, m)
    )
    c = ctx(3, 2)
    with pytest.raises(CheckError, match="solved translation"):
        family_II_group(c, models.admissible_b(c, "family_II")[0])


def test_family_III_group_q4():
    c = ctx(2, 2)
    for b in models.admissible_b(c, "family_III")[:2]:
        rep = family_III_group(c, b)
        assert rep["psi_order"] == 32
        assert rep["deck_order"] == 2
        assert rep["normalizer_order"] == 16
        assert rep["criterion_matches"]
        assert rep["quotient_order"] == 8
        assert rep["quotient_exponent"] == 4
        # one involution and six order-4 elements: the quaternion pattern
        assert rep["quotient_order_histogram"] == {1: 1, 2: 1, 4: 6}
        assert rep["discrepancies"] == []


def test_family_III_group_q8():
    c = ctx(2, 3)
    rep = family_III_group(c, models.admissible_b(c, "family_III")[0])
    assert rep["psi_order"] == 256
    assert rep["normalizer_order"] == 64
    assert rep["criterion_matches"]
    assert rep["quotient_order"] == 32
    assert rep["quotient_exponent"] == 4
    assert rep["quotient_order_histogram"] == {1: 1, 2: 7, 4: 24}


def test_family_group_rejects_bad_b():
    with pytest.raises(ParameterError):
        family_I_group(ctx(2, 3), 1)  # b must lie outside F_p
    with pytest.raises(ParameterError):
        family_II_group(ctx(3, 2), 0)
    with pytest.raises(ParameterError):
        family_III_group(ctx(2, 2), 0)


def test_every_table_element_preserves_its_model():
    c = ctx(3, 2)
    t = family_II_group(c, models.admissible_b(c, "family_II")[0])
    assert all(map_preserves(t.model, g) for g in t.elements)
    c = ctx(2, 2)
    t = family_I_group(c, models.admissible_b(c, "family_I")[0])
    assert all(map_preserves(t.model, g) for g in t.elements)
