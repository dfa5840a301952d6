"""Model constructors: instantiation examples, covering-map oracles,
the family III recursion, and both appendix factorization checks."""

import pytest

from hermquot.gfield import (
    LinearizedSolver,
    ParameterError,
    make_field,
    find_omega,
)
from hermquot.autgrp import subgroup_types
from hermquot.polyring import BiPoly
from hermquot import autgrp, isocls, models, numsg


# --- Hermitian variants ---


def test_hermitian_q2_plus_text():
    ctx = make_field(2, 1)
    m = models.hermitian_model(ctx, "plus")
    assert m.F.to_text() == "x^3 + y^2 + y"
    assert m.claimed_genus == 1
    assert m.claimed_semigroup_gens == (2, 3)


def test_hermitian_q3_plus():
    ctx = make_field(3, 1)
    X, Y = BiPoly.variables(ctx, ("x", "y"))
    expect = Y**3 + Y - X**4
    assert models.hermitian_model(ctx, "plus").F == expect


def test_hermitian_char2_sign_collapse():
    ctx = make_field(2, 2)
    a = models.hermitian_model(ctx, "minus_omega")
    b = models.hermitian_model(ctx, "plus")
    assert a.F == b.F
    assert a.params["omega"] == 1


def test_hermitian_minus_omega_coefficient():
    ctx = make_field(3, 1)
    m = models.hermitian_model(ctx, "minus_omega")
    w = find_omega(ctx)
    assert m.F.coeff(ctx.q + 1, 0) == w
    # omega^(q-1) = -1 pins the variant
    assert ctx.pow(w, ctx.q - 1) == ctx.neg(1)


def test_hermitian_unknown_variant():
    with pytest.raises(ParameterError):
        models.hermitian_model(make_field(2, 1), "projective")


# --- intermediate order-p quotients ---


def test_center_instantiation_2_2():
    ctx = make_field(2, 2)
    assert models.subcover_center(ctx).F.to_text() == "x^5 + eta^2 + eta"


def test_noncenter_instantiation_3_1():
    ctx = make_field(3, 1)
    m = models.subcover_noncenter(ctx)
    X, Y = BiPoly.variables(ctx, ("xi", "eta"))
    assert m.F == Y**3 + Y - X * X


def test_fpp_instantiation_q4():
    ctx = make_field(2, 2)
    m = models.fpp_char2(ctx)
    assert m.F.to_text() == "x^5 + eta^2 + eta"
    assert m.claimed_genus == 2


def test_noncenter_rejects_char2():
    with pytest.raises(ParameterError):
        models.subcover_noncenter(make_field(2, 2))


def test_fpp_rejects_odd_char():
    with pytest.raises(ParameterError):
        models.fpp_char2(make_field(3, 1))


def test_center_covering_identity():
    # substituting eta = y^p - y into the center model recovers the
    # Hermitian equation y^q - y + omega x^(q+1) exactly
    for p, h in [(2, 2), (2, 3), (3, 1), (3, 2)]:
        ctx = make_field(p, h)
        center = models.subcover_center(ctx).F
        herm = models.hermitian_model(ctx, "minus_omega").F
        X, Y = BiPoly.variables(ctx, center.names)
        assert center.substitute(X, Y**p - Y) == herm


def test_noncenter_covering_identity():
    # xi = x^p - x, eta scaled to x^2 - 2y turns the model into -2 times
    # the canonical Hermitian equation
    for p, h in [(3, 1), (3, 2), (5, 1)]:
        ctx = make_field(p, h)
        nc = models.subcover_noncenter(ctx).F
        herm = models.hermitian_model(ctx, "plus").F
        X, Y = BiPoly.variables(ctx, nc.names)
        lhs = nc.substitute(X**p - X, X * X - Y.cmul(2))
        assert lhs == herm.cmul(ctx.neg(2))


def test_fpp_covering_identity():
    # eta = y^2 + y telescopes the additive part down to y^q + y
    for h in (2, 3):
        ctx = make_field(2, h)
        fpp = models.fpp_char2(ctx).F
        herm = models.hermitian_model(ctx, "plus").F
        X, Y = BiPoly.variables(ctx, fpp.names)
        assert fpp.substitute(X, Y * Y + Y) == herm


# --- family I ---


def test_family_I_instantiation_2_3():
    ctx = make_field(2, 3)
    bn = models.default_b(ctx, "family_I")
    m = models.family_I_model(ctx, bn)
    assert m.F.coeff(ctx.q + 1, 0) == 1  # omega = 1 in char 2
    assert m.F.coeff(0, 1) == ctx.sub(bn, ctx.frob(bn, 1))
    assert m.F.coeff(0, 2) == ctx.sub(bn, ctx.frob(bn, 2))
    assert len(m.F.terms) == 3
    assert m.claimed_genus == 4
    assert m.claimed_semigroup_gens == (2, 9)


def test_family_I_h2_rational():
    ctx = make_field(2, 2)
    m = models.family_I_model(ctx, models.default_b(ctx, "family_I"))
    assert m.claimed_genus == 0
    assert m.params.get("rational") is True
    assert m.claimed_semigroup_gens == (1, 5)


def test_family_I_rejects_prime_field_b():
    ctx = make_field(2, 3)
    with pytest.raises(ParameterError):
        models.family_I_model(ctx, 1)


def test_family_I_rejects_b_outside_Fq():
    ctx = make_field(2, 3)
    outside = next(
        n for n in range(ctx.order) if not ctx.in_subfield(n, ctx.h)
    )
    with pytest.raises(ParameterError):
        models.family_I_model(ctx, outside)


def test_family_I_smooth_in_rho():
    for p, h in [(2, 3), (3, 3)]:
        ctx = make_field(p, h)
        for b in models.admissible_b(ctx, "family_I"):
            d = models.family_I_model(ctx, b).F.partial_deriv(1)
            assert list(d.terms) == [(0, 0)] and d.terms[(0, 0)] != 0


def test_family_I_covering_identity():
    # substituting rho = (eta/u)^p - eta/u with u = b^p - b into the
    # family I equation recovers the order-p central quotient exactly
    for p, h in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        ctx = make_field(p, h)
        center = models.subcover_center(ctx).F
        for bn in models.admissible_b(ctx, "family_I"):
            fI = models.family_I_model(ctx, bn).F
            uinv = ctx.inv(ctx.sub(ctx.frob(bn, 1), bn))
            X, Y = BiPoly.variables(ctx, center.names)
            t = Y.cmul(uinv)
            assert fI.substitute(X, t**p - t) == center


# --- family II ---


def test_family_II_instantiation_3_2():
    ctx = make_field(3, 2)
    b = models.default_b(ctx, "family_II")
    m = models.family_II_model(ctx, b)
    X, Y = BiPoly.variables(ctx, ("xi", "rho"))
    T = X + X**3
    expect = T * T - (Y + Y**3).cmul(ctx.add(b, b))
    assert m.F == expect
    assert m.claimed_genus == 3
    assert m.claimed_semigroup_gens == (3, 4, 10)


def test_family_II_rejects_char2():
    with pytest.raises(ParameterError):
        models.family_II_model(make_field(2, 3), 1)


def test_family_II_rejects_zero_b():
    with pytest.raises(ParameterError):
        models.family_II_model(make_field(3, 2), 0)


def test_family_II_rejects_bad_b():
    ctx = make_field(3, 2)
    bad = next(
        n
        for n in range(1, ctx.order)
        if ctx.add(ctx.frob(n, ctx.h), n) != 0
    )
    with pytest.raises(ParameterError):
        models.family_II_model(ctx, bad)


def test_family_II_smooth_in_rho():
    ctx = make_field(3, 2)
    for b in models.admissible_b(ctx, "family_II"):
        d = models.family_II_model(ctx, b).F.partial_deriv(1)
        assert list(d.terms) == [(0, 0)]
        assert d.terms[(0, 0)] == ctx.neg(ctx.add(b, b))


def test_family_II_covered_numeric():
    # intermediate curve eta^q + eta + (1/2) T(x)^2 = 0, then
    # rho = (eta/b)^p - eta/b lands on the family II equation
    ctx = make_field(3, 2)
    p, q, h = ctx.p, ctx.q, ctx.h
    bn = models.default_b(ctx, "family_II")
    fII = models.family_II_model(ctx, bn).F
    bp = ctx.pow(bn, p)
    binv = ctx.inv(bn)
    half = ctx.inv(2)
    X, _ = BiPoly.variables(ctx)
    T = sum((X ** p ** (i - 1) for i in range(2, h + 1)), X)
    trace = LinearizedSolver(ctx, [1] + [0] * (h - 1) + [1], 2 * h)
    seen = 0
    for xn in ctx.subfield_encodings(2 * h):
        tv = T.evaluate(xn, 0)
        rhs = ctx.neg(ctx.mul(half, ctx.mul(tv, tv)))
        for en in trace.solve(rhs):
            rho = ctx.sub(ctx.div(ctx.pow(en, p), bp), ctx.mul(en, binv))
            assert fII.evaluate(xn, rho) == 0
            seen += 1
    # affine point count of the intermediate curve of genus q(q-1)/(2p)
    assert seen == q * q + q * q * (q - 1) // p


# --- family III ---


def test_family_III_coeffs_q4_frozen():
    ctx = make_field(2, 2)
    b = models.default_b(ctx, "family_III")
    cl = models.family_III_coeffs(ctx, b)
    cn = cl.c
    X, _ = BiPoly.variables(ctx, ("x", "kappa"))
    one_c = BiPoly.const(ctx, ctx.add(1, cn), ("x", "kappa"))
    g0_expect = BiPoly.const(ctx, cn, ("x", "kappa")) + one_c * X + one_c * X * X + X**3
    assert cl.coeffs[0] == g0_expect
    assert cl.coeffs[1] == (X + BiPoly.const(ctx, cn, ("x", "kappa"))) ** 4
    # the alternate closed form T(1+T)^2 + (X+c)^4 (1+T)
    T = X + X * X
    one = BiPoly.const(ctx, 1, ("x", "kappa"))
    alt = T * (one + T) ** 2 + ((X + BiPoly.const(ctx, cn, ("x", "kappa"))) ** 4) * (one + T)
    assert cl.coeffs[0] == alt


def test_family_III_model_shape():
    for h in (2, 3):
        ctx = make_field(2, h)
        q = ctx.q
        for b in models.admissible_b(ctx, "family_III"):
            m = models.family_III_model(ctx, b)
            assert m.F.degree(1) == q // 2
            assert m.F.coeff(q + 1, 0) == 1
            assert m.claimed_genus == q * (q - 2) // 8
            assert m.claimed_semigroup_gens is None


def test_family_III_rejects_odd_char_and_h1():
    with pytest.raises(ParameterError):
        models.family_III_coeffs(make_field(3, 2), 0)
    with pytest.raises(ParameterError):
        models.family_III_coeffs(make_field(2, 1), 0)


def test_family_III_rejects_bad_b():
    ctx = make_field(2, 2)
    with pytest.raises(ParameterError):
        models.family_III_coeffs(ctx, 0)  # 0^q + 0 + 1 != 0


def test_family_III_covered_numeric():
    # (x, eta) on the smooth quotient maps through xi = x^2 + x,
    # zeta = eta^2 + eta(xi+c), kappa = zeta/(xi+c)^2 onto the model
    for h in (2, 3):
        ctx = make_field(2, h)
        q = ctx.q
        for b in models.admissible_b(ctx, "family_III"):
            m = models.family_III_model(ctx, b)
            cn = m.params["c"]
            fiber = LinearizedSolver(ctx, [1] * h, 2 * h)
            seen = skipped = 0
            for xn in ctx.subfield_encodings(2 * h):
                rhs = ctx.pow(xn, q + 1)
                for en in fiber.solve(rhs):
                    xi = ctx.add(ctx.mul(xn, xn), xn)
                    den = ctx.add(xi, cn)
                    if den == 0:
                        skipped += 1  # pole of kappa, over xi = c
                        continue
                    zeta = ctx.add(ctx.mul(en, en), ctx.mul(en, den))
                    kappa = ctx.div(zeta, ctx.mul(den, den))
                    assert m.F.evaluate(xi, kappa) == 0
                    seen += 1
            # affine points of the degree-2 cover of genus q(q-2)/4
            assert seen + skipped == q * q + q * q * (q - 2) // 2
            assert skipped in (0, q)


# --- genus formulas ---


def test_genus_formula_frozen_values():
    assert models.genus_formula("family_I", 2, 3) == 4
    assert models.genus_formula("family_I", 3, 3) == 27
    assert models.genus_formula("family_I", 2, 2) == 0
    assert models.genus_formula("family_II", 3, 2) == 3
    assert models.genus_formula("family_II", 5, 2) == 10
    assert models.genus_formula("family_III", 2, 2) == 1
    assert models.genus_formula("family_III", 2, 3) == 6
    # q = 3^18 is the largest power of 3 under the size bound
    assert models.genus_formula("family_II", 3, 18) == 3**17 * (3**17 - 1) // 2


def test_genus_formula_errors():
    with pytest.raises(ParameterError):
        models.genus_formula("family_I", 2, 1)
    with pytest.raises(ParameterError):
        models.genus_formula("family_II", 2, 3)
    with pytest.raises(ParameterError):
        models.genus_formula("family_III", 3, 2)
    with pytest.raises(ParameterError):
        models.genus_formula("IV", 2, 3)
    for p, h in [(4, 2), (1, 3), (9, 2)]:
        with pytest.raises(ParameterError, match="not prime"):
            models.genus_formula("family_I", p, h)
    with pytest.raises(ParameterError, match="positive integer"):
        models.genus_formula("family_II", 3, 0)
    # the size bound comes first: no 47,000-digit power, no trial division
    for p, h in [(3, 100000), (1000000000000000003, 1)]:
        with pytest.raises(ParameterError, match="exceeds the bound"):
            models.genus_formula("family_II", p, h)


def test_family_genus_is_the_hilbert_genus_of_its_subgroup():
    # Z, the center of the Sylow p-subgroup of Stab(P_inf), is the maps
    # with a = 0.  Hilbert's different formula for H -> H/G at the one
    # ramified place: 2g(H) - 2 = p^2 (2g' - 2) + sum_{s != 1} i(s), with
    # i(s) = q + 2 for a central s and 2 for a non-central one.
    family = {"U": "family_I", "V": "family_II", "cyclic4": "family_III"}
    genus_V = {}
    for p, h in [(2, 2), (3, 2), (5, 2), (2, 3), (3, 3)]:
        q, n = p**h, p * p
        types = subgroup_types(make_field(p, h))
        for name, z_order in (("U", n), ("V", p), ("cyclic4", 2)):
            if name not in types:
                continue
            elems = types[name].elements
            assert all(e.lam == 1 and e.mu == 1 for e in elems)
            z = sum(e.a == 0 for e in elems)
            assert z == z_order, (name, p, h)
            rest = q * (q - 1) - 2 - (z - 1) * (q + 2) - (n - z) * 2
            assert rest % (2 * n) == 0
            g = rest // (2 * n) + 1
            assert g == models.genus_formula(family[name], p, h), (name, p, h)
            if name == "V":
                genus_V[(p, h)] = g
    assert genus_V == {(3, 2): 3, (5, 2): 10, (3, 3): 36}


# --- admissible b ---


def test_admissible_b_counts():
    assert len(models.admissible_b(make_field(2, 3), "family_I")) == 6
    assert len(models.admissible_b(make_field(2, 5), "family_I")) == 30
    assert len(models.admissible_b(make_field(3, 2), "family_II")) == 8
    assert len(models.admissible_b(make_field(2, 2), "family_III")) == 4
    assert len(models.admissible_b(make_field(2, 3), "family_III")) == 8


def test_public_elements_are_plain_ints():
    # the int encoding is the package's one element type, at every boundary
    from hermquot.isocls import family_I_iso, family_II_iso

    for p, h, fam in [(2, 3, "family_I"), (3, 2, "family_II"), (2, 2, "family_III")]:
        ctx = make_field(p, h)
        bs = models.admissible_b(ctx, fam)
        assert bs and all(type(b) is int for b in bs)
        assert type(models.build(ctx, fam).params["b"]) is int
    for p, h in [(2, 2), (3, 1), (3, 2)]:
        assert type(find_omega(make_field(p, h))) is int
    ctx = make_field(2, 3)
    b = models.default_b(ctx, "family_I")
    w = family_I_iso(ctx, b, b)
    for x in (w.c, w.delta, w.sigma, *w.direction):
        assert type(x) is int
    ctx = make_field(3, 2)
    b = models.default_b(ctx, "family_II")
    assert type(family_II_iso(ctx, b, b)) is int


def test_admissible_b_all_accepted():
    ctx = make_field(3, 2)
    for b in models.admissible_b(ctx, "family_II"):
        models.family_II_model(ctx, b)
    ctx = make_field(2, 3)
    for b in models.admissible_b(ctx, "family_III"):
        models.family_III_coeffs(ctx, b)
    # check_b tests b directly; admissible_b lists by enumeration and by
    # solving: over all of F_{q^2} the two must pick the same b
    for p, h in [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2)]:
        ctx = make_field(p, h)
        for fam in models.PARAMETRIZED:
            if fam == ("family_III" if p > 2 else "family_II"):
                with pytest.raises(ParameterError):
                    models.admissible_b(ctx, fam)
                with pytest.raises(ParameterError):
                    models.check_b(ctx, fam, 1)
                continue
            accepted = []
            for b in ctx.subfield_encodings(2 * h):
                try:
                    accepted.append(models.check_b(ctx, fam, b))
                except ParameterError:
                    pass
            assert accepted == models.admissible_b(ctx, fam)


# --- CurveModel plumbing ---


def test_curve_model_rejects_bad_tag():
    ctx = make_field(2, 1)
    X, _ = BiPoly.variables(ctx)
    with pytest.raises(ParameterError):
        models.CurveModel(F=X, ctx=ctx, family="quintic")


def test_curve_model_rejects_zero_poly():
    ctx = make_field(2, 1)
    with pytest.raises(ParameterError):
        models.CurveModel(F=BiPoly.zero(ctx), ctx=ctx, family="Hermitian")


def test_to_dict_shape():
    ctx = make_field(2, 3)
    b = models.default_b(ctx, "family_I")
    d = models.family_I_model(ctx, b).to_dict()
    assert d["family"] == "family_I"
    assert d["p"] == 2 and d["h"] == 3
    assert d["b"] == b
    assert d["claimed_genus"] == 4
    assert d["claimed_semigroup_gens"] == [2, 9]
    assert "rho" in d["poly"]


# --- the family registry ---

# a field where each tag's model exists
_TAG_FIELDS = {
    "Hermitian": (2, 2), "center_p": (2, 3), "noncenter_p": (3, 2), "Fpp_char2": (2, 3),
    "family_I": (2, 3), "family_II": (3, 2), "family_III": (2, 3),
}


def test_every_cli_family_is_built_by_the_registry():
    from hermquot import cli

    assert models.FAMILY_TAGS == tuple(models._BUILDERS)
    assert set(models.PARAMETRIZED) <= set(models.FAMILY_TAGS)
    assert sorted(cli.FAMILIES.values()) == sorted(models.FAMILY_TAGS)
    for tag in cli.FAMILIES.values():
        assert models.build(make_field(*_TAG_FIELDS[tag]), tag).family == tag


@pytest.mark.parametrize("tag", ["family_I", "family_II", "family_III"])
def test_default_b_is_the_first_admissible_b(tag):
    ctx = make_field(*_TAG_FIELDS[tag])
    first = models.admissible_b(ctx, tag)[0]
    assert models.default_b(ctx, tag) == first
    assert models.build(ctx, tag).params["b"] == first
    last = models.admissible_b(ctx, tag)[-1]
    assert models.default_b(ctx, tag, last) == last
    assert models.build(ctx, tag, last).params["b"] == last


def test_default_b_errors():
    with pytest.raises(ParameterError, match=r"^no admissible b for family_I at p=2, h=1$"):
        models.default_b(make_field(2, 1), "family_I")
    ctx = make_field(2, 2)
    assert models.default_b(ctx, "Hermitian") is None
    with pytest.raises(ParameterError, match="takes no parameter b"):
        models.default_b(ctx, "Hermitian", 5)
    with pytest.raises(ParameterError, match="takes no parameter b"):
        models.build(ctx, "center_p", 5)
    with pytest.raises(ParameterError, match="unknown family"):
        models.build(ctx, "family_IV")


# each library function that takes a family, called with a family tag t,
# the tag's field c and its default b
_BY_FAMILY = {
    "build": lambda c, t, b: models.build(c, t),
    "default_b": lambda c, t, b: models.default_b(c, t),
    "check_b": lambda c, t, b: models.check_b(c, t, b),
    "admissible_b": lambda c, t, b: models.admissible_b(c, t),
    "genus_formula": lambda c, t, b: models.genus_formula(t, c.p, c.h),
    "semigroup_gens": lambda c, t, b: models.semigroup_gens(t, c.p, c.h),
    "semigroup_at_infinity": lambda c, t, b: numsg.semigroup_at_infinity(t, c.p, c.h),
    "class_inventory": lambda c, t, b: isocls.class_inventory(t, c),
    "group": lambda c, t, b: autgrp.group(c, t, b),
}


@pytest.mark.parametrize("key", ["I", "II", "III"])
@pytest.mark.parametrize("name", sorted(_BY_FAMILY))
def test_a_short_family_key_is_refused(name, key):
    # the model tag is a family's one spelling: the CLI key is refused at
    # the field and b where the tag is accepted
    from hermquot import cli

    tag = cli.FAMILIES[key]
    c = make_field(*_TAG_FIELDS[tag])
    with pytest.raises(ParameterError):
        _BY_FAMILY[name](c, key, models.default_b(c, tag))


def _trace_loop(V, h):
    # the loop each builder used to write out, kept as the oracle
    T = BiPoly.zero(V.ctx, V.names)
    for i in range(h):
        T = T + V ** (V.ctx.p**i)
    return T


@pytest.mark.parametrize("key", [(2, 3), (3, 2)])
def test_trace_matches_the_loop(key):
    ctx = make_field(*key)
    X, Y = BiPoly.variables(ctx, ("x", "y"))
    for V in (X, Y, X + Y, X * Y + 1):
        for h in range(1, ctx.h + 1):
            assert models._trace(V, h) == _trace_loop(V, h)


# --- appendix lemma A ---


def test_lemma_a_p2():
    r = models.verify_lemma_a(2)
    assert r["ok"] and r["total_degree"] == 22
    assert r["quadratics"] == [
        "X*Y + 1",
        "X*Y + X + 1",
        "X*Y + X + Y",
        "X*Y + Y + 1",
    ]
    assert (r["n_axis_lines"], r["n_slant_lines"], r["n_quadratics"]) == (4, 2, 4)


def test_lemma_a_p3():
    r = models.verify_lemma_a(3)
    assert r["ok"] and r["total_degree"] == 66
    assert r["n_quadratics"] == 18
    assert 2 * 3 * 4 + (9 - 3) + 2 * r["n_quadratics"] == 66


def test_lemma_a_p5():
    r = models.verify_lemma_a(5)
    assert r["ok"] and r["total_degree"] == 280
    assert r["n_quadratics"] == 100


def test_lemma_a_leading_cancellation():
    # the two top products share the monomial X^(p^3+p^2) Y^(p^3+p^2),
    # which must cancel
    for p in (2, 3):
        ctx = make_field(p, 1)
        X, Y = BiPoly.variables(ctx)
        F = (Y - Y ** p**3) * (Y - Y**p) ** p * (X - X ** p**2) ** (p + 1) - (
            X - X ** p**3
        ) * (X - X**p) ** p * (Y - Y ** p**2) ** (p + 1)
        assert F.total_degree() < 2 * p**3 + 2 * p**2
        assert F.coeff(p**3 + p**2, p**3 + p**2) == 0


def test_lemma_a_rejects_large_prime():
    with pytest.raises(ParameterError):
        models.verify_lemma_a(7)


# --- appendix lemma B ---


def test_lemma_b_all_h_all_b():
    for h in (2, 3, 4):
        ctx = make_field(2, h)
        bs = models.admissible_b(ctx, "family_III")
        assert len(bs) == ctx.q
        for b in bs:
            r = models.verify_lemma_b(ctx, b)
            assert r["identity_ok"] and r["terminal_ok"]
            assert r["divisions"] == h


def test_lemma_b_y_top_coefficient():
    # coefficient of Y^q in the lemma polynomial is (X+c)^(2q), which is
    # what forces the terminal g_(h-1) = (X+c)^q
    ctx = make_field(2, 2)
    q, h = ctx.q, ctx.h
    b = models.default_b(ctx, "family_III")
    cl = models.family_III_coeffs(ctx, b)
    X, Y = BiPoly.variables(ctx, ("x", "kappa"))
    TY = Y + Y * Y
    A = X + X**q
    B = (X + BiPoly.const(ctx, cl.c, ("x", "kappa"))) ** q
    F = (
        Y * A * A
        + B * B * TY * TY
        + B * A * TY
        + X ** (2 * (q + 1))
        + X ** (q + 1) * (X + X * X)
    )
    top = {i: c for (i, j), c in F.terms.items() if j == q}
    assert top == {i: c for (i, _), c in (B * B).terms.items()}


def test_lemma_b_rejects_bad_input():
    with pytest.raises(ParameterError):
        models.verify_lemma_b(make_field(3, 2), 0)
    ctx = make_field(2, 2)
    with pytest.raises(ParameterError):
        models.verify_lemma_b(ctx, 0)
