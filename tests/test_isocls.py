"""Isomorphism decisions: witness solver, membership classifier, brute oracle."""

from itertools import product

import pytest

from hermquot import cli, isocls, models
from hermquot.gfield import CheckError, FieldCtx, ParameterError, make_field
from hermquot.polyring import BiPoly
from hermquot.isocls import (
    _norm_preimage,
    class_inventory,
    family_I_classify,
    family_I_iso,
    family_II_iso,
    oracle_iso,
)

# a case id names its family by its CLI key, as in [I-key2]
_CLI_KEY = {tag: key for key, tag in cli.FAMILIES.items()}


def _cli_key_id(value):
    return _CLI_KEY.get(value) if isinstance(value, str) else None


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
    assert set(w) == {"c", "delta", "sigma", "b", "bbar"}
    assert w["c"] == 1 and w["delta"] == 1
    assert w["b"] == w["bbar"] == b


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
    # one cubic parameter makes no cubic pair: a fractional-linear image of
    # a cubic b stays in F_8, which holds neither gen nor a quadratic b
    for x, y in ((cubs[0], gen), (gen, cubs[0]), (quads[0], cubs[0])):
        assert family_I_classify(c, x, y) == {"iso": False, "case": "not_isomorphic"}


@pytest.mark.parametrize("p, h", [(2, 4), (3, 2), (5, 2)])
def test_no_singular_matrix_relates_two_parameters(p, h):
    # a singular [[al, bt], [ga, de]] sends b into F_p, or to a zero
    # denominator, and no family I parameter lies in F_p
    c = ctx(p, h)
    for b in fam_I_params(c):
        for al, bt, ga, de in product(range(p), repeat=4):
            if (al * de - bt * ga) % p == 0:
                den = c.add(c.scale(b, ga), de)
                assert den == 0 or c.div(c.add(c.scale(b, al), bt), den) < p


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


def test_inventory_bounds_admit_a_count_equal_to_them(monkeypatch):
    c = ctx(2, 4)
    n = len(fam_I_params(c))
    monkeypatch.setattr(isocls, "INVENTORY_BOUND", n)
    monkeypatch.setattr(isocls, "MATRIX_BOUND", n)
    assert class_inventory("family_I", c)["classifier_agreement"] is True
    monkeypatch.setattr(isocls, "MATRIX_BOUND", n - 1)
    assert class_inventory("family_I", c)["classifier_agreement"] is None
    monkeypatch.setattr(isocls, "INVENTORY_BOUND", n - 1)
    with pytest.raises(ParameterError, match="too large"):
        class_inventory("family_I", c)


def test_inventory_cross_check_sees_every_pair(monkeypatch):
    # a classifier that is wrong about one pair alone breaks the agreement
    c = ctx(2, 4)
    bs = fam_I_params(c)
    classify = isocls.family_I_classify
    for pair in ((bs[0], bs[2]), (bs[3], bs[-1])):
        def lying(ctx_, x, y, pair=pair):
            got = classify(ctx_, x, y)
            return {**got, "iso": not got["iso"]} if {x, y} == set(pair) else got
        monkeypatch.setattr(isocls, "family_I_classify", lying)
        assert class_inventory("family_I", c)["classifier_agreement"] is False


def test_class_inventory_family_II():
    inv = class_inventory("family_II", ctx(3, 2))
    assert inv["count"] == 8
    assert inv["class_count"] == 4
    assert inv["class_sizes"] == [2, 2, 2, 2]
    assert inv["family"] == "family_II"
    for family in ("family_III", "Hermitian"):
        with pytest.raises(ParameterError):
            class_inventory(family, ctx(2, 2))


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
    m3 = models.family_III_model(c2, models.default_b(c2, "family_III"))
    with pytest.raises(ParameterError):
        oracle_iso(m3, m3, tier=1)  # mixed x*y terms are out of scope


def test_oracle_reads_the_terms_of_both_models():
    # A's X^2 is no term of B, and 2 is no y-exponent: no monomial map
    # clears it, whichever model carries it
    c = ctx(3, 1)
    m = models.hermitian_model(c)
    X, _ = BiPoly.variables(c, m.variables)
    extra = _with_F(m, m.F + X * X)
    assert oracle_iso(m, m, tier=1)
    assert not oracle_iso(extra, m, tier=1)
    assert not oracle_iso(m, extra, tier=1)


def test_oracle_refuses_a_model_with_no_usable_anchor():
    # the anchor is B's grlex-largest term, a pure-X term whose exponent is
    # no power of p: Y^4 outranks X^3, X^4 is a power of 2, and a constant
    # is no X-term
    c = ctx(2, 2)
    m = models.hermitian_model(c)
    X, Y = BiPoly.variables(c, m.variables)
    for F in (Y**4 + Y + X**3, Y**2 + Y + X**4, BiPoly.const(c, 1, m.variables)):
        with pytest.raises(CheckError, match="no usable anchor"):
            oracle_iso(m, _with_F(m, F), tier=1)


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
    # and reads F_{q^2} lazily: a fresh context lists none of it
    fresh = FieldCtx(p, h, c.modulus)
    assert _norm_preimage(fresh, 1) == full[1] == 1 and 2 * h not in fresh._senc


# the nested-loop scan oracle_iso replaces, kept as its reference


def reference_oracle_iso(model_a, model_b, tier=1):
    # sigma, then c, then c1 and c2 for each (sigma, c); the preconditions
    # are oracle_iso's, so only admissible models come here
    ctx = model_a.ctx
    A, B = model_a.F, model_b.F
    y_keys = sorted({j for (_, j) in set(A.terms) | set(B.terms) if j})
    x_all = sorted(
        {i for (i, j) in set(A.terms) | set(B.terms) if j == 0 and i} | set(y_keys)
    )
    a_y = {j: A.coeff(0, j) for j in y_keys}
    b_y = {j: B.coeff(0, j) for j in y_keys}
    a_x = {i: A.coeff(i, 0) for i in x_all}
    b_x = {i: B.coeff(i, 0) for i in x_all}
    a_0, b_0 = A.coeff(0, 0), B.coeff(0, 0)
    ae, _ = max(B.terms, key=lambda k: (k[0] + k[1], k[0]))
    if b_x[ae] == 0 or a_x.get(ae, 0) == 0:
        return False
    field = list(ctx.subfield_encodings(2 * ctx.h))
    units = [e for e in field if e]
    for sigma in units:
        sx = {i: ctx.pow(sigma, i) for i in x_all}
        lam = ctx.div(ctx.mul(a_x[ae], sx[ae]), b_x[ae])
        for c in units:
            if any(
                ctx.mul(a_y[j], ctx.pow(c, j)) != ctx.mul(lam, b_y[j])
                for j in y_keys
            ):
                continue
            if tier == 1:
                if any(
                    ctx.mul(a_x[i], sx[i]) != ctx.mul(lam, b_x[i]) for i in x_all
                ):
                    continue
                if a_0 != ctx.mul(lam, b_0):
                    continue
                return True
            found_c1 = False
            for c1 in field:
                for i in x_all:
                    v = ctx.mul(a_x[i], sx[i])
                    if i in a_y:
                        v = ctx.add(v, ctx.mul(a_y[i], ctx.pow(c1, i)))
                    if v != ctx.mul(lam, b_x[i]):
                        break
                else:
                    found_c1 = True
                    break
            if not found_c1:
                continue
            for c2 in field:
                v = a_0
                for j in y_keys:
                    if a_y[j]:
                        v = ctx.add(v, ctx.mul(a_y[j], ctx.pow(c2, j)))
                if v == ctx.mul(lam, b_0):
                    return True
    return False


def _family_models(family, p, h):
    c = ctx(p, h)
    return [models.build(c, family, b) for b in models.admissible_b(c, family)]


@pytest.mark.parametrize(
    "family, p, h",
    [("family_I", 2, 2), ("family_I", 2, 3), ("family_I", 3, 2),
     ("family_II", 3, 1), ("family_II", 5, 1), ("family_II", 3, 2)],
    ids=_cli_key_id,
)
def test_oracle_matches_nested_scan_on_every_pair(family, p, h):
    ms = _family_models(family, p, h)
    for ma in ms:
        for mb in ms:
            for tier in (1, 2):
                assert oracle_iso(ma, mb, tier) == reference_oracle_iso(ma, mb, tier)


def _with_F(model, F):
    # the model with its polynomial replaced by F, every other field kept
    return models.CurveModel(
        F=F, ctx=model.ctx, family=model.family, params=model.params,
        claimed_genus=model.claimed_genus,
        claimed_semigroup_gens=model.claimed_semigroup_gens,
    )


def _image(model, sigma, c, c1, c2):
    # the model with A replaced by A(sigma x, c y + c1 x + c2)
    X, Y = BiPoly.variables(model.ctx, model.variables)
    fy = Y.cmul(c) + X.cmul(c1) + BiPoly.const(model.ctx, c2, model.variables)
    return _with_F(model, model.F.substitute(X.cmul(sigma), fy))


@pytest.mark.parametrize(
    "family, p, h",
    [("family_I", 2, 2), ("family_I", 2, 3), ("family_II", 5, 1), ("family_II", 3, 2)],
    ids=_cli_key_id,
)
def test_planted_triangular_images_need_tier_2(family, p, h):
    # a shift c1 != 0 puts x^j terms on B that no monomial image of A has,
    # so tier 1 refuses and tier 2 finds the planted map
    c = ctx(p, h)
    units = c.subfield_encodings(2 * h)[1:]
    m = _family_models(family, p, h)[0]
    for sigma, cy, c1, c2 in [(units[1], units[2], 1, 0), (1, 1, units[-1], units[3]),
                              (units[4], units[-2], units[5], units[1])]:
        planted = _image(m, sigma, cy, c1, c2)
        for a, b in [(m, planted), (planted, m)]:
            for oracle in (oracle_iso, reference_oracle_iso):
                assert oracle(a, b, 1) is False
                assert oracle(a, b, 2) is True


@pytest.mark.parametrize(
    "family, p, h", [("family_I", 2, 3), ("family_II", 3, 2)], ids=_cli_key_id
)
def test_constant_outside_the_shift_image_is_refused(family, p, h):
    # B = A + k.  (Y) and (X) leave only lam in F_p^*, and (C) asks for
    # L(c2) = lam k with L(c2) = sum_j A_j c2^j, an F_p-linear map that is
    # not onto here; so k outside Im L is refused at tier 2 and k inside
    # it is accepted
    c = ctx(p, h)
    m = _family_models(family, p, h)[0]
    field = c.subfield_encodings(2 * h)
    image = set()
    for c2 in field:
        v = 0
        for (_, j), a in m.F.terms.items():
            if j:
                v = c.add(v, c.mul(a, c.pow(c2, j)))
        image.add(v)
    assert len(image) < len(field)
    outside = next(k for k in field if k not in image)
    inside = max(image)
    for k, expected in [(outside, False), (inside, True)]:
        shifted = _with_F(m, m.F + BiPoly.const(c, k, m.variables))
        for oracle in (oracle_iso, reference_oracle_iso):
            assert oracle(m, shifted, 1) is False
            assert oracle(m, shifted, 2) is expected


def test_tier_1_family_II_pair_is_one_scan(monkeypatch):
    # the c-images are listed once, so sigma^i is taken only for a sigma
    # whose lam passes (Y); the nested scan made 6,960 pow calls here
    c = ctx(3, 2)
    bs = models.admissible_b(c, "family_II")
    other = next(b for b in bs if family_II_iso(c, bs[0], b) is None)
    ma, mb = models.family_II_model(c, bs[0]), models.family_II_model(c, other)
    calls = []
    pow_ = FieldCtx.pow
    monkeypatch.setattr(FieldCtx, "pow", lambda self, a, e: calls.append(a) or pow_(self, a, e))
    assert oracle_iso(ma, mb, tier=1) is False
    assert len(calls) <= 1000
