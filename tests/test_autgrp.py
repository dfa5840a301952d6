"""Automorphism layer: affine maps, closures, stabilizer tables, family groups."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from hermquot import models
from hermquot.autgrp import (
    AffineAlgMap,
    _central,
    _exponent,
    _powers,
    _printed_family_I_blocks,
    _spanning_subset,
    _split_group,
    _translations,
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


_STAB = {}


def _stabilizer(p, h):
    # one build per field for the tests that only read the table
    if (p, h) not in _STAB:
        _STAB[(p, h)] = pgu_stabilizer(ctx(p, h))
    return _STAB[(p, h)]


def _mult_order(c, a):
    # the least k with a^k = 1, by repeated multiplication
    acc, k = a, 1
    while acc != 1:
        acc = c.mul(acc, a)
        k += 1
    return k


# affine map plumbing


def test_identity_and_composition():
    c = ctx(2, 2)
    ident = AffineAlgMap.identity(c)
    assert ident.is_identity()
    m = stabilizer_map(c, 2, 3, 1)
    assert (m.compose(m.inverse())).is_identity()
    assert (m.inverse().compose(m)).is_identity()
    # compose(g) means "apply g first"
    g = stabilizer_map(c, 0, 1, 1)
    pt = (7, 11)
    via_maps = m.apply(*g.apply(*pt))
    assert m.compose(g).apply(*pt) == via_maps


def test_order_and_power():
    c = ctx(2, 2)
    central = stabilizer_map(c, 0, 1, 1)
    assert central.order() == 2
    assert central.compose(central).is_identity()
    assert central.compose(central).compose(central) == central
    c3 = ctx(3, 1)
    m = stabilizer_map(c3, 0, _central_b(c3), 1)
    assert m.order() == 3
    assert m.compose(m) == m.inverse()
    assert len(m.to_text()) > 0


def test_power_walk_stops_at_its_bound():
    # a scalar map of order q + 1 = 4 at q = 3
    c = ctx(3, 1)
    lam = next(v for v in c.subfield_encodings(2)[1:] if _mult_order(c, v) == 4)
    s = stabilizer_map(c, 0, 0, lam)
    pw = _powers(s, 4)
    assert len(pw) == s.order(4) == 4
    assert pw[0].is_identity() and pw[1] == s
    assert all(pw[i] == s.compose(pw[i - 1]) for i in range(1, 4))
    for walk in (lambda: _powers(s, 3), lambda: s.order(3)):
        with pytest.raises(CheckError, match="exceeds bound 3"):
            walk()
    ident = AffineAlgMap.identity(c)
    assert _powers(ident, 1) == [ident] and ident.order(1) == 1


def _central_b(c):
    # nonzero b with b^q + b = 0, the a = 0 stabilizer condition
    return next(
        e for e in c.subfield_encodings(2 * c.h) if e and c.add(c.frob(e, c.h), e) == 0
    )


def test_map_preserves_examples():
    c = ctx(2, 2)
    hm = models.hermitian_model(c)
    assert map_preserves(hm, stabilizer_map(c, 0, 1, 1))
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
        map_preserves(fam, AffineAlgMap.identity(c))


def test_group_closure_small_cases():
    c = ctx(2, 2)
    ident = AffineAlgMap.identity(c)
    assert len(group_closure([ident])) == 1
    central = stabilizer_map(c, 0, 1, 1)
    assert len(group_closure([central])) == 2
    # two independent central translations span the full a = 0 part
    bs = [e for e in c.subfield_encodings(2 * c.h) if e and c.add(c.frob(e, c.h), e) == 0]
    gens = [stabilizer_map(c, 0, b, 1) for b in bs[:2]]
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
    m1 = stabilizer_map(c, a1, b1, 1)
    m2 = stabilizer_map(c, 0, 1, 1)
    a, b, lam = extract_stabilizer_params(c, m1.compose(m2))
    rebuilt = stabilizer_map(c, a, b, lam)
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
        c, draw(scalar), draw(elem), draw(scalar), f
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
    assert t.exponent == 12


def test_stabilizer_table_q3():
    t = pgu_stabilizer(ctx(3, 1))
    assert t.order == 108
    assert t.center_order == 3
    assert t.details["unipotent_order"] == 27
    assert t.details["noncentral_order_profile"] == {3: 24}
    assert t.exponent == 12


@pytest.mark.parametrize("p, h", [(2, 1), (3, 1), (2, 2)])
def test_stabilizer_generators_span_the_table(p, h):
    # U's generators and one scalar map generate all of U S
    t = pgu_stabilizer(ctx(p, h))
    assert t.generators[-1].lam != 1 and t.generators[-1].a == 0
    assert {m.key() for m in group_closure(t.generators)} == {m.key() for m in t.elements}


def test_stabilizer_table_larger_q():
    frozen = {
        (2, 2): (320, 4, {4: 60}, 5),
        (2, 3): (4608, 8, {4: 504}, 9),
        (3, 2): (7290, 9, {3: 720}, 10),
    }
    for (p, h), (order, z, profile, scal) in frozen.items():
        t = _stabilizer(p, h)
        q = p**h
        assert t.order == q**3 * (q + 1) == order
        assert t.center_order == z
        assert t.details["noncentral_order_profile"] == profile
        assert t.details["scalar_classes"] == scal


@pytest.mark.parametrize("p, h, z", [(2, 1, 2), (3, 1, 3), (2, 2, 4), (3, 2, 9), (2, 3, 8)])
def test_stabilizer_center_is_the_whole_table_scan(p, h, z):
    # center_order is read off U's center; the scan of all of U S agrees
    t = _stabilizer(p, h)
    assert t.center_order == len(_central(t.elements, t.generators)) == z


def test_stabilizer_table_is_the_mu_1_subgroup():
    # every (x, y) -> (lam x, lam^(q+1) y) preserves y^q + y = x^(q+1), but
    # the table keeps only lam^(q+1) = 1; the gap is pinned here, not patched
    for (p, h), missing in {(2, 1): 0, (3, 1): 4}.items():
        c = ctx(p, h)
        q = c.q
        t = pgu_stabilizer(c)
        model = models.hermitian_model(c)
        diagonal = [
            AffineAlgMap.triangular(c, lam, 0, c.pow(lam, q + 1), None)
            for lam in c.subfield_encodings(2 * h)[1:]
        ]
        assert len(diagonal) == q * q - 1
        assert all(map_preserves(model, m) for m in diagonal)
        keys = {m.key() for m in t.elements}
        assert sum(m.key() not in keys for m in diagonal) == missing


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


def test_subgroup_types_confirm_every_generator(monkeypatch):
    from hermquot import autgrp

    oracle = autgrp.map_preserves

    def refuse(variant):
        # an oracle that refuses every map on one Hermitian variant
        return lambda model, m: model.params["variant"] != variant and oracle(model, m)

    monkeypatch.setattr(autgrp, "map_preserves", refuse("plus"))
    with pytest.raises(CheckError, match="V generator"):
        subgroup_types(ctx(3, 2))
    monkeypatch.setattr(autgrp, "map_preserves", refuse("plus_one"))
    with pytest.raises(CheckError, match="cyclic4 generator"):
        subgroup_types(ctx(2, 2))


@pytest.mark.parametrize("key", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)])
def test_subgroup_types_match_the_closure_oracle(key):
    # the products of power walks are the closure of the generators
    for name, t in subgroup_types(ctx(*key)).items():
        if name != "notes":
            keys = [g.key() for g in t.elements]
            assert len(set(keys)) == len(keys) == t.order
            assert {g.key() for g in group_closure(t.generators)} == set(keys)


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
            model, AffineAlgMap.triangular(c, 1, a, 1, {1: nu, 0: k})
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


def test_family_II_group_conic():
    # at h = 1 the solve lets every nu through; the table keeps nu in F_p
    for p in (3, 5, 7):
        c = ctx(p, 1)
        t = family_II_group(c, models.admissible_b(c, "family_II")[0])
        assert t.details["Psi_order"] == p
        assert t.details["total_order"] == (p - 1) * p


def _family_II_compose_loops(psi):
    """The replaced route, kept as the oracle: the centralizer profile from
    two composes per ordered pair, and the closure of every g h g^-1 h^-1."""
    profile = {}
    for g in psi:
        n = sum(1 for hmap in psi if g.compose(hmap) == hmap.compose(g))
        profile[n] = profile.get(n, 0) + 1
    inv = {g.key(): g.inverse() for g in psi}
    comms = {}
    for g in psi:
        for hmap in psi:
            c = g.compose(hmap).compose(inv[g.key()]).compose(inv[hmap.key()])
            comms[c.key()] = c
    return profile, group_closure(list(comms.values()))


@pytest.mark.parametrize(
    "key, frozen",
    [((3, 2), (54, 6, 3, 3, {27: 3, 9: 24})),
     ((5, 2), (500, 20, 1, 5, {125: 5, 25: 120}))],  # past the old q <= 9 cap
)
def test_family_II_one_pass_matches_the_compose_loops(key, frozen):
    c = ctx(*key)
    t = family_II_group(c, models.admissible_b(c, "family_II")[0])
    d = t.details
    assert (t.order, t.exponent, t.center_order, t.commutator_order,
            d["centralizer_profile"]) == frozen
    psi = [g for g in t.elements if g.lam == 1]  # in the solver's order
    profile, comm = _family_II_compose_loops(psi)
    # the discrepancy note prints the profile, so its order counts too
    assert list(d["centralizer_profile"].items()) == list(profile.items())
    gamma = {g.key() for g in psi if g.a == 0 and 1 not in g.f}
    assert {g.key() for g in comm} == gamma
    assert t.commutator_order == len(comm) == d["Gamma_order"]


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


def test_family_III_normalizer_must_be_closed(monkeypatch):
    # a planted normalizer of the right size that swaps one of its maps for
    # a translation outside it is not closed, which the certificate finds
    from hermquot import autgrp

    c = ctx(2, 2)
    central = autgrp._central

    def swapped(elements, generators):
        norm = central(elements, generators)
        keys = {g.key() for g in norm}
        outside = next(g for g in elements if g.key() not in keys)
        return norm[:-1] + [outside]

    monkeypatch.setattr(autgrp, "_central", swapped)
    with pytest.raises(CheckError, match="not closed"):
        family_III_group(c, models.admissible_b(c, "family_III")[0])


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


# one confirmation path: every candidate goes to the oracle once, no product


@pytest.fixture
def oracle_tally(monkeypatch):
    """Counts the membership oracle's calls and acceptances inside autgrp."""
    from hermquot import autgrp

    oracle = autgrp.map_preserves
    tally = {"calls": 0, "accepted": 0}

    def counted(model, m):
        ok = oracle(model, m)
        tally["calls"] += 1
        tally["accepted"] += ok
        return ok

    monkeypatch.setattr(autgrp, "map_preserves", counted)
    return tally


def _build_table(family, c):
    # the table of one family at its first admissible b; the stabilizer has no b
    if family == "hermitian":
        return pgu_stabilizer(c)
    build = {"I": family_I_group, "II": family_II_group, "III": family_III_group}
    return build[family](c, models.admissible_b(c, "family_" + family)[0])


@pytest.mark.parametrize(
    "family, key, calls",
    [("I", (2, 2), 21), ("I", (2, 3), 137), ("I", (3, 2), 101), ("II", (3, 2), 29),
     ("III", (2, 2), 32), ("III", (2, 3), 256),
     ("hermitian", (2, 1), 11), ("hermitian", (3, 1), 31), ("hermitian", (2, 2), 69)],
)
def test_family_tables_confirm_each_candidate_once(oracle_tally, family, key, calls):
    # hermitian: q^3 translations and q + 1 scalar maps;
    # I: the solved translations and the diagonal maps, q^3/p^2 + (q+1)(p-1);
    # II: q^2/p translations and p - 1 diagonal maps; III: q^3/2 translations
    c = ctx(*key)
    p, q = c.p, c.q
    _build_table(family, c)
    formula = {"hermitian": q**3 + q + 1, "I": q**3 // p**2 + (q + 1) * (p - 1),
               "II": q * q // p + p - 1, "III": q**3 // 2}
    assert oracle_tally == {"calls": calls, "accepted": calls}
    assert calls == formula[family]


def _refusing(monkeypatch, refused):
    # an oracle that refuses every map for which refused(m) holds
    from hermquot import autgrp

    oracle = autgrp.map_preserves
    monkeypatch.setattr(
        autgrp, "map_preserves", lambda model, m: not refused(m) and oracle(model, m)
    )


def test_stabilizer_rejected_map_names_its_stage(monkeypatch):
    _refusing(monkeypatch, lambda m: m.lam != 1)
    with pytest.raises(CheckError, match="diagonal map"):
        pgu_stabilizer(ctx(3, 1))
    _refusing(monkeypatch, lambda m: m.lam == 1 and not m.is_identity())
    with pytest.raises(CheckError, match="solved translation"):
        pgu_stabilizer(ctx(3, 1))


def test_family_I_rejected_map_names_its_stage(monkeypatch):
    c = ctx(2, 2)
    b = models.admissible_b(c, "family_I")[0]
    _refusing(monkeypatch, lambda m: m.lam != 1)
    with pytest.raises(CheckError, match="diagonal map"):
        family_I_group(c, b)
    _refusing(monkeypatch, lambda m: m.a != 0)
    with pytest.raises(CheckError, match="solved translation"):
        family_I_group(c, b)


def test_family_III_rejected_map_names_its_stage(monkeypatch):
    c = ctx(2, 2)
    _refusing(monkeypatch, lambda m: m.a == 1)
    with pytest.raises(CheckError, match="solved translation"):
        family_III_group(c, models.admissible_b(c, "family_III")[0])


@pytest.mark.parametrize("key, fallbacks", [((2, 2), 14), ((2, 3), 64), ((2, 4), 254),
                                             ((3, 2), 80)])
def test_family_I_printed_claim_lookup_matches_the_oracle(key, fallbacks):
    # the old route stays as the oracle: the printed block for a passes
    # map_preserves exactly when each of its maps is a solved translation,
    # and V is the old assembly of the printed blocks, each replaced by the
    # solved maps for its a where it fails
    c = ctx(*key)
    b = models.admissible_b(c, "family_I")[0]
    model = models.family_I_model(c, b)
    solved = set(_translations(model))
    refused = 0
    assembled = set()
    for a, block in _printed_family_I_blocks(c, b):
        by_oracle = all(map_preserves(model, m) for m in block)
        assert by_oracle == (set(block) <= solved)
        refused += not by_oracle
        assembled |= set(block) if by_oracle else {m for m in solved if m.a == a}
    assert refused == fallbacks
    t = family_I_group(c, b)
    assert t.details["fallback_used"] == fallbacks
    # V is the lam = 1 part of the table in either mode
    assert assembled == {g for g in t.elements if g.lam == 1}


# every group claim is an exact check


def test_no_builder_calls_group_closure(monkeypatch):
    # every table is listed as products and certified by _spanning_subset;
    # verify's family tables are cached, so they are built here as well
    from hermquot import autgrp, verify

    def refuse(*args, **kwargs):
        raise AssertionError("a table builder called group_closure")

    monkeypatch.setattr(autgrp, "group_closure", refuse)
    for family, key in [("hermitian", (2, 1)), ("hermitian", (3, 1)), ("I", (2, 3)),
                        ("II", (3, 2)), ("III", (2, 2)), ("III", (2, 3))]:
        _build_table(family, ctx(*key))
    for key in [(2, 2), (3, 2), (2, 3)]:
        subgroup_types(ctx(*key))
    assert all(r["ok"] for r in verify.run_all())


def _lcm_of_orders(elements):
    # the old exponent, one power walk per element, stays as the oracle
    return math.lcm(*(g.order() for g in elements))


@pytest.mark.parametrize(
    "family, key",
    [("hermitian", (2, 1)), ("hermitian", (3, 1)), ("I", (2, 2)), ("I", (2, 3)),
     ("II", (3, 2)), ("types", (2, 2)), ("types", (3, 2)), ("types", (2, 3))],
)
def test_exponent_matches_the_lcm_of_element_orders(family, key):
    c = ctx(*key)
    if family == "types":
        tables = [t for name, t in subgroup_types(c).items() if name != "notes"]
    else:
        tables = [_build_table(family, c)]
    for t in tables:
        assert t.exponent == _exponent(t.elements) == _lcm_of_orders(t.elements)


def _group_list(what, key):
    # the stabilizer's U, family I's V and family II's Psi as the solver lists them
    c = ctx(*key)
    if what == "U":
        return _translations(models.hermitian_model(c))
    if what == "V":
        return _translations(models.family_I_model(c, models.admissible_b(c, "family_I")[0]))
    model = models.family_II_model(c, models.admissible_b(c, "family_II")[0])
    return [m for m in _translations(model) if m.f.get(1, 0) < c.p]


@pytest.mark.parametrize(
    "what, key",
    [("U", (2, 1)), ("U", (3, 1)), ("U", (2, 2)), ("V", (2, 2)), ("V", (2, 3)),
     ("V", (3, 2)), ("Psi", (3, 2))],
)
def test_spanning_subset_certifies_each_group(what, key):
    elements = _group_list(what, key)
    keys = {g.key() for g in elements}
    gens = _spanning_subset(elements)
    assert {g.key() for g in group_closure(gens)} == keys
    # one non-identity element dropped, one diagonal map added
    dropped = next(g for g in reversed(elements) if not g.is_identity())
    with pytest.raises(CheckError, match="not closed under composition"):
        _spanning_subset([g for g in elements if g != dropped])
    diagonal = AffineAlgMap.triangular(ctx(*key), 2, 0, 1)
    assert diagonal.key() not in keys
    with pytest.raises(CheckError, match="not closed under composition"):
        _spanning_subset(elements + [diagonal])
    # the precondition: distinct keys, the identity among them
    with pytest.raises(ParameterError):
        _spanning_subset(elements + [dropped])
    with pytest.raises(ParameterError):
        _spanning_subset([g for g in elements if not g.is_identity()])


def test_spanning_subset_extends_the_group_in_place(monkeypatch):
    # a new generator composes with the group found so far, then every
    # generator with each new element: at (2, 4) certifying V costs at most
    # |V| composes per generator
    V = _group_list("V", (2, 4))
    compose = AffineAlgMap.compose
    calls = []

    def counted(self, other):
        calls.append(1)
        return compose(self, other)

    monkeypatch.setattr(AffineAlgMap, "compose", counted)
    gens = _spanning_subset(V)
    assert len(V) == 1024 and len(gens) == 10
    assert len(calls) <= len(V) * len(gens)


@pytest.mark.parametrize(
    "family, key",
    [("hermitian", (2, 1)), ("hermitian", (3, 1)), ("hermitian", (2, 2)), ("I", (2, 2)),
     ("I", (2, 3)), ("I", (3, 2)), ("II", (3, 1)), ("II", (5, 1)), ("II", (3, 2))],
)
def test_split_tables_match_the_closure_oracle(family, key):
    # the breadth-first closure stays as the oracle: the products T D are
    # distinct and are the closure of T's generators and D's generators
    c = ctx(*key)
    t = _build_table(family, c)
    keys = [g.key() for g in t.elements]
    assert len(set(keys)) == len(keys) == t.order
    gens = list(t.generators)
    if family == "hermitian":
        # the stabilizer prints U's generators only; add a scalar map of order q + 1
        gens.append(next(m for m in t.elements
                         if m.a == 0 and not m.f and m.order() == c.q + 1))
    assert {g.key() for g in group_closure(gens)} == set(keys)


def test_split_group_refuses_an_overlap():
    # T also holding the non-identity tau = (-x, y) meets D beyond the
    # identity; the overlap is refused before _spanning_subset sees T
    c = ctx(3, 2)
    model = models.family_II_model(c, models.admissible_b(c, "family_II")[0])
    psi = _group_list("Psi", (3, 2))
    _, D = _split_group(model, psi, 2, 2)
    tau = AffineAlgMap.triangular(c, 2, 0, c.mul(2, 2))
    assert D == [AffineAlgMap.identity(c), tau]
    with pytest.raises(CheckError, match="overlap beyond the identity"):
        _split_group(model, psi + [tau], 2, 2)


def test_split_group_builds_D_of_order_n():
    # |D| = n exactly when n divides q^2 - 1 = 80: n = 3 gives zeta =
    # gamma^26 of order 40; n = 4 gives a D of order 4, but (zeta x,
    # zeta^2 y) with zeta outside F_3 does not preserve the curve
    c = ctx(3, 2)
    model = models.family_II_model(c, models.admissible_b(c, "family_II")[0])
    psi = _group_list("Psi", (3, 2))
    with pytest.raises(CheckError, match="diagonal group order 40 != 3"):
        _split_group(model, psi, 3, 2)
    with pytest.raises(CheckError, match="diagonal map fails"):
        _split_group(model, psi, 4, 2)


def _diagonal_scan(c, n, k):
    # the old route: a scan of F_{q^2}^* for every lam with lam^n = 1
    return {AffineAlgMap.triangular(c, lam, 0, c.pow(lam, k)).key()
            for lam in c.subfield_encodings(2 * c.h)[1:] if c.pow(lam, n) == 1}


@pytest.mark.parametrize(
    "family, key",
    [("hermitian", (2, 1)), ("hermitian", (3, 1)), ("hermitian", (5, 1)),
     ("hermitian", (2, 2)), ("hermitian", (3, 2)), ("I", (2, 2)), ("I", (2, 3)),
     ("I", (3, 2)), ("I", (2, 4)), ("I", (5, 2)), ("II", (3, 1)), ("II", (5, 1)),
     ("II", (3, 2))],
)
def test_split_tables_match_the_diagonal_scan(family, key):
    # D = <d> against the scans it replaced: its maps, family I's printed
    # lam_gen (the first lam in ascending order of multiplicative order n)
    # and family II's printed taus (lam = 2, ..., p - 1)
    c = ctx(*key)
    p, q = c.p, c.q
    n, k = {"hermitian": (q + 1, q + 1), "I": ((q + 1) * (p - 1), q + 1),
            "II": (p - 1, 2)}[family]
    t = _build_table(family, c)
    diagonal = {g.key() for g in t.elements if g.a == 0 and not g.f}
    assert diagonal == _diagonal_scan(c, n, k) and len(diagonal) == n
    if family == "I":
        first = next(lam for lam in c.subfield_encodings(2 * c.h)[1:]
                     if _mult_order(c, lam) == n)
        assert t.generators[-1].lam == first
    if family == "II":
        taus = [g for g in t.generators if g.lam != 1]
        assert taus == [AffineAlgMap.triangular(c, lam, 0, c.mul(lam, lam))
                        for lam in range(2, p)]


@pytest.mark.parametrize("key", [(2, 3), (2, 4), (5, 2)])
def test_family_I_generators_generate_V(key):
    # (2, 3) is closed, (2, 4) and (5, 2) counted: both modes print v_gens + [lam_gen]
    c = ctx(*key)
    b = models.admissible_b(c, "family_I")[0]
    t = family_I_group(c, b)
    V = _translations(models.family_I_model(c, b))
    assert {g.key() for g in group_closure(t.generators[:-1])} == {g.key() for g in V}
    lam_gen = t.generators[-1]
    assert lam_gen.lam != 1 and lam_gen.a == 0 and not lam_gen.f
    assert lam_gen.order() == t.details["Lambda_order"]


@pytest.mark.parametrize("key, calls", [((2, 1), 24), ((3, 1), 108), ((2, 2), 320)])
def test_stabilizer_checks_the_law_on_every_element(monkeypatch, key, calls):
    from hermquot import autgrp

    extract = autgrp.extract_stabilizer_params
    seen = []

    def counted(c, m):
        seen.append(m.key())
        return extract(c, m)

    monkeypatch.setattr(autgrp, "extract_stabilizer_params", counted)
    t = pgu_stabilizer(ctx(*key))
    assert len(seen) == calls == t.order
    assert set(seen) == {m.key() for m in t.elements}


def test_stabilizer_law_refusal_raises(monkeypatch):
    from hermquot import autgrp

    extract = autgrp.extract_stabilizer_params

    def refuse_one(c, m):
        # a planted refusal of one non-scalar, non-translation element
        if m.lam != 1 and m.a == 1:
            raise CheckError("planted refusal")
        return extract(c, m)

    monkeypatch.setattr(autgrp, "extract_stabilizer_params", refuse_one)
    with pytest.raises(CheckError, match="planted refusal"):
        pgu_stabilizer(ctx(3, 1))


def test_stabilizer_needs_a_scalar_map_normalizing_U(monkeypatch):
    from hermquot import autgrp

    c = ctx(3, 1)
    # a planted generator outside U: a diagonal map that preserves the curve
    # but commutes with every scalar map, so no conjugate of it lies in U
    lam = next(v for v in c.subfield_encodings(2)[1:] if c.pow(v, 4) != 1)
    foreign = AffineAlgMap.triangular(c, lam, 0, c.pow(lam, 4))
    spanning = autgrp._spanning_subset
    monkeypatch.setattr(autgrp, "_spanning_subset", lambda els: spanning(els) + [foreign])
    with pytest.raises(CheckError, match="does not normalize the solved translations"):
        pgu_stabilizer(c)


# the one translation solver against the laws stated for each family


def _law_maps(model, params):
    # maps (x, y) -> (x + a, y + sum_e f_e x^e) from (a, {e: f_e}) pairs
    c = model.ctx
    return [AffineAlgMap.triangular(c, 1, a, 1, f) for a, f in params]


@pytest.mark.parametrize("key", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2)])
def test_translations_follow_the_stabilizer_law(key):
    # b^q + b = a^(q+1), shear a^q, by a scan of every (a, b)
    c = ctx(*key)
    box = c.subfield_encodings(2 * c.h)
    law = [
        (a, {1: c.frob(a, c.h), 0: b})
        for a in box
        for b in box
        if c.add(c.frob(b, c.h), b) == c.pow(a, c.q + 1)
    ]
    model = models.hermitian_model(c)
    assert _translations(model) == _law_maps(model, law)
    assert len(law) == c.q**3


def _family_II_law(model):
    # T(a) = nu b and T(c) = nu^2 b/2 with nu in F_p, as sorted (a, nu, c)
    c = model.ctx
    box = c.subfield_encodings(2 * c.h)

    def T(t):
        acc = 0
        for i in range(c.h):
            acc = c.add(acc, c.frob(t, i))
        return acc

    b = model.params["b"]
    triples = sorted(
        (a, nu, k)
        for nu in range(c.p)
        for a in box
        if T(a) == c.scale(b, nu)
        for k in box
        if T(k) == c.div(c.scale(b, nu * nu % c.p), 2)
    )
    return _law_maps(model, [(a, {1: nu, 0: k}) for a, nu, k in triples])


def test_translations_follow_the_family_II_law():
    c = ctx(3, 2)
    for b in models.admissible_b(c, "family_II"):
        model = models.family_II_model(c, b)
        assert _translations(model) == _family_II_law(model)
    for p in (3, 5):
        c = ctx(p, 1)
        model = models.family_II_model(c, models.admissible_b(c, "family_II")[0])
        solved = _translations(model)
        assert len(solved) == c.q**2  # every nu in F_{q^2} at h = 1
        law = _family_II_law(model)
        assert [m for m in solved if m.f.get(1, 0) < p] == law
        assert len(law) == p


@pytest.mark.parametrize("h", [2, 3, 4])
def test_translations_follow_the_family_III_law(h):
    # f = a^(2q) x^2 + a^q x + c^2 + c with c^q + c = a^(q+1), as sets: the
    # law lists c and c + 1, which give the same map, and orders differently
    c = ctx(2, h)
    box = c.subfield_encodings(2 * h)
    by_trace = {}
    for k in box:
        by_trace.setdefault(c.add(c.frob(k, h), k), []).append(k)
    law = [
        (a, {2: c.frob(a, h + 1), 1: c.frob(a, h), 0: c.add(c.mul(k, k), k)})
        for a in box
        for k in by_trace.get(c.pow(a, c.q + 1), [])
    ]
    model = models.fpp_char2(c)
    solved = _translations(model)
    assert len(solved) == c.q**3 // 2
    assert set(solved) == set(_law_maps(model, law))


def test_translations_need_an_additive_y_part():
    c = ctx(2, 2)
    # Y-coefficients that depend on x
    plane = models.family_III_model(c, models.admissible_b(c, "family_III")[0])
    with pytest.raises(ParameterError):
        _translations(plane)
    # L(y) = y^2 has L'(0) = 0, so the cascade cannot divide
    F = BiPoly(c, {(0, 2): 1, (5, 0): 1}, ("x", "y"))
    with pytest.raises(ParameterError):
        _translations(models.CurveModel(F=F, ctx=c, family="Hermitian"))
