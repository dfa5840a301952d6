"""Place counts: fiber tallies, singular detection, order-2 quotient counts."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from hermquot import models
from hermquot.autgrp import AffineAlgMap, family_III_deck
from hermquot.autgrp import stabilizer_map
from hermquot.gfield import (
    DEFAULT_SIZE_BOUND,
    TABLE_ORDER_BOUND,
    CheckError,
    FieldCtx,
    LinearizedSolver,
    ParameterError,
    _span,
    make_field,
)
from hermquot import placecount
from hermquot.placecount import (
    EXHAUSTIVE_BOUND,
    K2_BOUND,
    _scan_degree,
    affine_points,
    family_III_place_count,
    iter_fibers,
    maximality_check,
    quotient_places_order2,
    rational_places,
    singular_rational_points,
)
from hermquot.polyring import BiPoly, additive_split

_CTX = {}


def ctx(p, h):
    if (p, h) not in _CTX:
        _CTX[(p, h)] = make_field(p, h)
    return _CTX[(p, h)]


def test_hermitian_counts_are_q_cubed_plus_one():
    for p, h in [(2, 1), (3, 1), (2, 2), (2, 3)]:
        c = ctx(p, h)
        q = c.q
        tally = rational_places(models.hermitian_model(c))
        assert tally.k == 1
        assert tally.places_at_infinity == 1
        assert tally.affine_points == q**3
        assert tally.N == q**3 + 1
        assert tally.singular_rational_points == ()


def test_affine_count_matches_brute_force():
    # independent double-loop oracle on a field small enough to enumerate
    c = ctx(3, 1)
    m = models.hermitian_model(c)
    elems = list(c.subfield_encodings(2 * c.h))
    brute = sum(1 for x in elems for y in elems if m.F.evaluate(x, y) == 0)
    assert affine_points(m, 1).affine_points == brute == 27


def test_hermitian_k2_count():
    # maximal over F_{q^2} forces N_4 = q^4 + 1 - 2g q^2; frozen values
    assert affine_points(models.hermitian_model(ctx(2, 1)), 2).N == 9
    assert affine_points(models.hermitian_model(ctx(3, 1)), 2).N == 28


def test_k2_counts_sit_in_the_weil_window():
    # maximal over F_{q^2} forces the count over F_{q^4} to the bottom of
    # the Weil window: N_4 = q^4 + 1 - 2 g q^2
    cases = [
        (models.hermitian_model(ctx(2, 2)), 65),
        (models.build(ctx(2, 2), "family_I"), 257),
        (models.build(ctx(2, 3), "family_I"), 3585),
        (models.build(ctx(3, 2), "family_I"), 6562),
        (models.build(ctx(3, 2), "family_II"), 6076),
        (models.build(ctx(2, 5), "family_I"), 819201),
        (models.build(ctx(2, 5), "center_p"), 557057),
    ]
    for m, n4 in cases:
        q, g = m.ctx.q, m.claimed_genus
        assert rational_places(m).N == q**2 + 2 * g * q + 1
        assert affine_points(m, 2).N == q**4 + 1 - 2 * g * q**2 == n4, m.family


def test_family_I_counts():
    c = ctx(2, 3)
    for b in models.admissible_b(c, "family_I"):
        rep = maximality_check(models.family_I_model(c, b))
        assert rep["N"] == 129
        assert rep["expected"] == 129
        assert rep["maximal"]
        assert rep["path"] == "direct"
    c = ctx(3, 3)
    rep = maximality_check(models.family_I_model(c, models.default_b(c, "family_I")))
    assert rep["N"] == 2188 and rep["maximal"]


def test_family_II_counts():
    c = ctx(3, 2)
    for b in models.admissible_b(c, "family_II"):
        rep = maximality_check(models.family_II_model(c, b))
        assert rep["N"] == 136 and rep["maximal"]
    c = ctx(5, 2)
    rep = maximality_check(models.family_II_model(c, models.default_b(c, "family_II")))
    assert rep["N"] == 1126 and rep["maximal"]


@pytest.mark.parametrize("family,p,h,n", [
    # families I and II at every admissible b: 78, 120, 48, 120 and 26 of them
    ("family_I", 3, 4, 59050),
    ("family_I", 5, 3, 78126),
    ("family_II", 7, 2, 4460),
    ("family_II", 11, 2, 27952),
    ("family_II", 3, 3, 2674),
    pytest.param("Hermitian", 7, 2, 117650, id="hermitian-7-2-117650"),
    # T(x)^2 X-parts of three terms, summed in the log domain over F_{q^2}
    ("noncenter_p", 5, 2, 3626),
    ("noncenter_p", 3, 3, 7048),
    ("noncenter_p", 7, 2, 18866),
])
def test_large_field_counts_are_frozen(family, p, h, n):
    c = ctx(p, h)
    bs = models.admissible_b(c, family) if family in ("family_I", "family_II") else [None]
    for b in bs:
        rep = maximality_check(models.build(c, family, b))
        assert rep["N"] == n and rep["maximal"], b


@pytest.mark.parametrize("family,p,h,n", [
    ("family_I", 2, 4, 53248),
    pytest.param("center_p", 2, 4, 36864, id="center-2-4-36864"),
    ("family_II", 3, 2, 6075),
    pytest.param("center_p", 3, 2, 5103, id="center-3-2-5103"),
])
def test_k2_counts_are_frozen(family, p, h, n):
    # k = 2 walks whose fibers are sized by membership in a proper image
    assert affine_points(models.build(ctx(p, h), family), 2).affine_points == n


def test_family_III_counts():
    frozen = {4: (25, 32, 0, 16), 8: (161, 256, 0, 64)}
    for h in (2, 3):
        c = ctx(2, h)
        n, cov, fx, tw = frozen[c.q]
        for b in models.admissible_b(c, "family_III"):
            rep = family_III_place_count(c, b)
            assert rep["N"] == n
            assert rep["affine_cover"] == cov
            assert rep["fixed"] == fx
            assert rep["twisted"] == tw
            assert rep["closed_form"] == n
            assert rep["maximal"]


def test_family_III_model_routes_through_quotient():
    c = ctx(2, 2)
    m = models.family_III_model(c, models.default_b(c, "family_III"))
    rep = maximality_check(m)
    assert rep["path"] == "quotient"
    assert rep["N"] == 25 and rep["maximal"]


def test_family_III_plane_model_is_singular():
    c = ctx(2, 2)
    m = models.family_III_model(c, models.default_b(c, "family_III"))
    assert singular_rational_points(m)
    with pytest.raises(CheckError):
        rational_places(m)


def test_family_III_singular_points_match_a_scan_of_both_partials():
    # oracle: every (x, y) in F_{q^2} x F_{q^2}, in the fibers' order, where
    # F and both partials vanish
    c = ctx(2, 2)
    m = models.family_III_model(c, models.default_b(c, "family_III"))
    F, fx, fy = m.F, m.F.partial_deriv(0), m.F.partial_deriv(1)
    elems = c.subfield_encodings(2 * c.h)
    brute = [(x, y) for x in elems for y in elems
             if F.evaluate(x, y) == 0 and fx.evaluate(x, y) == 0 and fy.evaluate(x, y) == 0]
    assert singular_rational_points(m) == brute
    assert len(brute) == 1


def _parabola(c):
    # Y^2 - X is smooth, yet F_y = 2Y vanishes at its rational point (0, 0)
    X, Y = BiPoly.variables(c, ("x", "y"))
    return models.CurveModel(F=Y * Y - X, ctx=c, family="Hermitian")


def test_smooth_models_have_no_singular_points():
    cases = [
        *(_parabola(ctx(p, h)) for p, h in ((3, 1), (5, 1), (3, 2))),
        models.hermitian_model(ctx(2, 2)),
        models.subcover_center(ctx(2, 3)),
        models.subcover_noncenter(ctx(3, 2)),
        models.fpp_char2(ctx(2, 2)),
        models.family_I_model(ctx(2, 3), models.default_b(ctx(2, 3), "family_I")),
        models.family_II_model(ctx(3, 2), models.default_b(ctx(3, 2), "family_II")),
    ]
    for m in cases:
        assert singular_rational_points(m) == []


def test_quotient_by_central_involution_matches_center_subcover():
    # Hermitian q=4 mod (x, y+1) has the same count as the central subcover
    c = ctx(2, 2)
    hm = models.hermitian_model(c)
    deck = stabilizer_map(c, 0, 1, 1)
    rep = quotient_places_order2(hm, deck)
    assert rep == {"affine_cover": 64, "fixed": 0, "twisted": 0, "N": 33}
    assert rep["N"] == rational_places(models.subcover_center(c)).N


def test_quotient_of_center_subcover_matches_family_I():
    c = ctx(2, 3)
    cen = models.subcover_center(c)
    names = cen.variables
    for bn in models.admissible_b(c, "family_I")[:2]:
        u = c.add(c.mul(bn, bn), bn)
        deck = AffineAlgMap(
            BiPoly(c, {(1, 0): 1}, names),
            BiPoly(c, {(0, 1): 1, (0, 0): u}, names),
        )
        rep = quotient_places_order2(cen, deck)
        direct = rational_places(models.family_I_model(c, bn))
        assert rep["N"] == direct.N == 129
        assert rep["twisted"] == 0


# ------------------------------------- the twisted-point solve vs the full scan


def _quotient_by_scan(model, deck):
    """The scans the solve replaces: every F_{q^2}-point for A and the fixed
    points, then every fiber over F_{q^4} for the twisted points."""
    c = model.ctx
    a_count = 0
    fixed = 0
    for x, ys in iter_fibers(model, 1):
        for y in ys:
            a_count += 1
            if deck.apply(x, y) == (x, y):
                fixed += 1
    s = 2 * c.h
    twisted = 0
    for x, ys in iter_fibers(model, 2):
        fx = c.frob(x, s)
        x_rat = fx == x
        for y in ys:
            if x_rat and c.frob(y, s) == y:
                continue
            if deck.apply(x, y) == (fx, c.frob(y, s)):
                twisted += 1
    n = fixed + (a_count - fixed) // 2 + twisted // 2 + 1
    return {"affine_cover": a_count, "fixed": fixed, "twisted": twisted, "N": n}


def _scan_cases():
    for h in (2, 3):
        c = ctx(2, h)
        for b in models.admissible_b(c, "family_III"):
            yield f"III(2,{h}) b={b}", models.fpp_char2(c), family_III_deck(c, b)
    c = ctx(2, 2)
    yield "hermitian(2,2) (x, y+1)", models.hermitian_model(c), stabilizer_map(c, 0, 1, 1)
    c = ctx(2, 3)
    cen = models.subcover_center(c)
    for bn in models.admissible_b(c, "family_I")[:2]:
        u = c.add(c.mul(bn, bn), bn)
        yield f"center(2,3) b={bn}", cen, AffineAlgMap.triangular(c, 1, 0, 1, {0: u})
    # lam = -1: x^(q^2) + x = 0, and the q points over x = 0 are deck-fixed
    for p, h in [(3, 1), (3, 2), (5, 1)]:
        c = ctx(p, h)
        deck = AffineAlgMap.triangular(c, c.neg(1), 0, 1)
        yield f"hermitian({p},{h}) (-x, y)", models.hermitian_model(c), deck


def test_quotient_solve_matches_the_full_scan():
    seen = set()
    for label, model, deck in _scan_cases():
        rep = quotient_places_order2(model, deck)
        assert rep == _quotient_by_scan(model, deck), label
        seen.add((rep["fixed"] > 0, rep["twisted"] > 0))
        if deck.lam != 1:
            assert rep["fixed"] == model.ctx.q and rep["twisted"] == 0, label
    # both branches of the solve are reached
    assert seen == {(False, False), (False, True), (True, False)}


@pytest.mark.parametrize("h,twisted", [(4, 256), (5, 1024)])
def test_family_III_survey_past_q8(h, twisted):
    # past the oracle's reach: its scan lists q^4 = 2^16 fibers per b at
    # h = 4 and 2^20 at h = 5
    c = ctx(2, h)
    q = c.q
    bs = models.admissible_b(c, "family_III")
    for b in bs if h == 4 else bs[:1]:
        rep = family_III_place_count(c, b)
        assert rep["N"] == rep["closed_form"] == rep["expected"], b
        assert rep["maximal"] and rep["fixed"] == 0
        # the cover is maximal of genus q(q - 2)/4: q^2 + 2gq = q^3/2
        assert rep["affine_cover"] == q**3 // 2
        assert rep["twisted"] == twisted


def test_family_III_count_solves_at_most_q2_plus_one_fibers(monkeypatch):
    # one solve for the x-coset, then one per fiber over it; the full scan
    # made q^2 + q^4 = 4160 of them at q = 8
    calls = []
    real = LinearizedSolver.solve

    def counted(self, rhs):
        calls.append(rhs)
        return real(self, rhs)

    c = ctx(2, 3)
    b = models.default_b(c, "family_III")
    monkeypatch.setattr(LinearizedSolver, "solve", counted)
    rep = family_III_place_count(c, b)
    assert rep["N"] == 161
    assert len(calls) <= c.q**2 + 1


def test_quotient_rejects_identity_deck():
    c = ctx(2, 2)
    hm = models.hermitian_model(c)
    with pytest.raises(CheckError):
        quotient_places_order2(hm, AffineAlgMap.identity(c))


def test_quotient_rejects_higher_order_deck():
    # a noncentral stabilizer element has order 4 in characteristic 2
    c = ctx(2, 1)
    hm = models.hermitian_model(c)
    b = next(
        e
        for e in c.subfield_encodings(2 * c.h)
        if c.add(c.frob(e, c.h), e) == c.pow(1, c.q + 1)
    )
    deck = stabilizer_map(c, 1, b, 1)
    assert deck.order(8) == 4
    with pytest.raises(CheckError):
        quotient_places_order2(hm, deck)


def test_quotient_rejects_non_preserving_deck():
    c = ctx(2, 1)
    hm = models.hermitian_model(c)
    names = hm.variables
    bad = AffineAlgMap(
        BiPoly(c, {(1, 0): 1, (0, 0): 1}, names),
        BiPoly(c, {(0, 1): 1}, names),
    )
    with pytest.raises(CheckError):
        quotient_places_order2(hm, bad)


def test_scan_bounds():
    m = models.hermitian_model(ctx(2, 2))
    with pytest.raises(ParameterError):
        affine_points(m, 3)
    # family III fibers are not linearized in Y, so a k=2 scan at q=16
    # would need exhaustive evaluation over 2^16 elements
    c = ctx(2, 4)
    m3 = models.family_III_model(c, models.default_b(c, "family_III"))
    with pytest.raises(ParameterError):
        affine_points(m3, 2)


def test_make_field_cap_keeps_every_k1_scan_within_2_to_the_15():
    # k = 1 scans have no bound of their own: make_field's cap p^(4h) <=
    # DEFAULT_SIZE_BOUND = 2^30 keeps q^2 <= 2^15.  A larger cap breaks
    # this test and asks for a k = 1 bound back.
    p, primes = 1, []  # every prime p with p^4 under the cap, and the next
    while not primes or primes[-1] ** 4 <= DEFAULT_SIZE_BOUND:
        p += 1
        if all(p % d for d in range(2, math.isqrt(p) + 1)):
            primes.append(p)
    assert primes[-2:] == [181, 191]
    for p in primes:
        h = 1
        while p ** (4 * h) <= DEFAULT_SIZE_BOUND:
            assert p ** (2 * h) <= 2**15
            assert _scan_degree(FieldCtx(p, h, modulus=None), 1) == 2 * h
            h += 1
        # the first size past the cap is refused before any modulus search
        with pytest.raises(ParameterError, match="exceeds the bound"):
            make_field(p, h)


def test_k2_scan_bound_admits_a_field_of_exactly_K2_BOUND():
    # the check alone, with no count: q^4 = 2^24 is admitted, 3^16 is not
    assert 2**24 == K2_BOUND
    assert _scan_degree(ctx(2, 6), 2) == 24
    with pytest.raises(ParameterError):
        _scan_degree(ctx(3, 4), 2)


def test_exhaustive_fibers_admit_a_field_of_exactly_EXHAUSTIVE_BOUND():
    # family III is not linearized in Y, so its k = 2 fibers are listed by
    # evaluation: F_{2^12} at q = 8 is admitted, F_{2^16} at q = 16 is not
    assert 2**12 == EXHAUSTIVE_BOUND
    c = ctx(2, 3)
    x, ys = next(iter_fibers(models.family_III_model(c, models.default_b(c, "family_III")), 2))
    assert x == 0 and ys
    c = ctx(2, 4)
    with pytest.raises(ParameterError):
        next(iter_fibers(models.family_III_model(c, models.default_b(c, "family_III")), 2))


def test_quotient_tells_twisted_points_with_a_rational_y_from_fixed_ones():
    # F = Y^2 + Y + (X^2 + X)^3 at q = 2 with the deck (x + 1, y): every
    # point with Frob(Q) = deck(Q) has y rational and x not, so none is fixed
    c = ctx(2, 1)
    X, Y = BiPoly.variables(c, ("x", "y"))
    model = models.CurveModel(F=Y * Y + Y + (X * X + X) ** 3, ctx=c, family="Hermitian")
    deck = AffineAlgMap.triangular(c, 1, 1, 1)
    rep = quotient_places_order2(model, deck)
    assert rep == {"affine_cover": 8, "fixed": 0, "twisted": 8, "N": 9}
    assert rep == _quotient_by_scan(model, deck)
    s = 2 * c.h
    twisted = [(x, y) for x, ys in iter_fibers(model, 2) for y in ys
               if c.frob(x, s) != x and deck.apply(x, y) == (c.frob(x, s), c.frob(y, s))]
    assert len(twisted) == 8 and all(c.frob(y, s) == y for _, y in twisted)


def test_quotient_refuses_an_odd_count_of_moved_points(monkeypatch):
    # one affine point too many leaves A - f odd while I stays even
    c = ctx(2, 2)
    real = placecount._count_points

    def one_more(model, k):
        return real(model, k) + (k == 1)

    monkeypatch.setattr(placecount, "_count_points", one_more)
    with pytest.raises(CheckError, match="parity"):
        quotient_places_order2(models.hermitian_model(c), stabilizer_map(c, 0, 1, 1))


def test_family_III_place_count_rejects_bad_input():
    with pytest.raises(ParameterError):
        family_III_place_count(ctx(3, 2), 1)
    with pytest.raises(ParameterError):
        family_III_place_count(ctx(2, 2), 0)


# ---------------------------------------------------- the count walk vs fibers

# whole-field tables at (2,2) and (3,2); F_{q^2} tables at (2,4), (3,3) and
# (5,2), where only a k = 2 walk would leave them for the digit kernel
_WALK_FIELDS = [(2, 2), (3, 2), (2, 4), (3, 3), (5, 2)]


def _fiber_total(m, k):
    """The slow path the walk replaces: ascending x, sorted solution lists."""
    return sum(len(ys) for _, ys in iter_fibers(m, k))


def _walk_ks(c):
    # the oracle's k = 2 scan evaluates F at each of the q^4 x-values, so it
    # runs on the table fields; test_cli's golden count output at (2, 4),
    # captured from the oracle path, pins one digit-kernel k = 2 walk
    return (1, 2) if c.order <= TABLE_ORDER_BOUND else (1,)


def _fixed_models(c):
    out = [models.hermitian_model(c, v) for v in ("plus", "minus_omega", "plus")]
    out.append(models.subcover_center(c))
    out.append(models.subcover_noncenter(c) if c.p > 2 else models.fpp_char2(c))
    # no paper model has an X-linear or constant term; this one walks both
    herm = out[0]
    extra = BiPoly(c, {(1, 0): 2, (0, 0): c.p + 1}, herm.F.names)
    out.append(models.CurveModel(
        F=herm.F + extra, ctx=c, family=herm.family, params=herm.params,
        claimed_genus=herm.claimed_genus, claimed_semigroup_gens=herm.claimed_semigroup_gens,
    ))
    return out


@pytest.mark.parametrize("p,h", _WALK_FIELDS)
def test_count_walk_matches_fibers(p, h):
    c = ctx(p, h)
    for m in _fixed_models(c):
        for k in _walk_ks(c):
            assert affine_points(m, k).affine_points == _fiber_total(m, k), (m.family, k)


@pytest.mark.parametrize(
    "p,h,family",
    [(p, h, "family_I") for p, h in _WALK_FIELDS]
    + [(p, h, "family_II") for p, h in _WALK_FIELDS if p > 2],
)
@given(data=st.data())
@settings(max_examples=4, deadline=None)
def test_family_count_walk_matches_fibers(p, h, family, data):
    c = ctx(p, h)
    b = data.draw(st.sampled_from(models.admissible_b(c, family)))
    m = models.build(c, family, b)
    n1 = _fiber_total(m, 1)
    assert affine_points(m, 1).affine_points == n1
    if 2 in _walk_ks(c):
        assert affine_points(m, 2).affine_points == _fiber_total(m, 2)
    rep = maximality_check(m)
    assert rep["N"] == n1 + 1 and rep["maximal"]


def _prime_divisors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + ([n] if n > 1 else [])


@pytest.mark.parametrize("p,h", _WALK_FIELDS)
def test_walk_generator_has_exact_order(p, h):
    c = ctx(p, h)
    for m in (2 * h, 4 * h):
        n = p**m - 1
        g = c.subfield_generator(m)
        # through the digit kernel, with a factorization of its own
        assert c._pow_digits(g, n) == 1
        assert all(c._pow_digits(g, n // r) != 1 for r in _prime_divisors(n))
        if n < TABLE_ORDER_BOUND:
            # the walk visits every nonzero element of F_{p^m} once
            powers, x = [], 1
            for _ in range(n):
                powers.append(x)
                x = c.mul(x, g)
            assert x == 1
            assert sorted(powers) == list(c.subfield_encodings(m))[1:]


# ---------------------------------------------------- the period walk vs the full walk

def _full_walk_count(model, k):
    """The walk that one period replaces, kept as the oracle: all p^m - 1
    steps, each nonzero x = gamma^j sized once."""
    c = model.ctx
    m = 2 * k * c.h
    vec, xpart = additive_split(model.F)
    solver = LinearizedSolver(c, vec, m)
    n1 = c.p**m - 1
    const = xpart.terms.get((0, 0), 0)
    rhs = [const] * n1
    for (i, _), coef in xpart.terms.items():
        if i:
            rhs = list(map(c.add, rhs, c.mul_walk({i: coef}, m, n1)))
    return solver.count(const) + sum(map(solver.count, rhs))


def _with_xpart(model, xpart):
    """model's pure-Y terms with the pure-X part {i: coefficient}."""
    F = model.F
    terms = {e: v for e, v in F.terms.items() if e[0] == 0 < e[1]}
    terms.update(((i, 0), v) for i, v in xpart.items())
    return models.CurveModel(F=BiPoly(model.ctx, terms, F.names), ctx=model.ctx,
                             family=model.family)


def _period_cases(c, k):
    """(name, model, g): g = gcd(p^m - 1, every X-exponent), the number of
    nonzero x that share one right-hand side."""
    q, n1 = c.q, c.p ** (2 * k * c.h) - 1
    herm = models.hermitian_model(c)
    cases = [
        ("X-linear", _fixed_models(c)[-1], 1),
        # the first exponent alone would give q + 1
        ("X^(q+1) + X^(q+2)", _with_xpart(herm, {q + 1: 1, q + 2: 2}), 1),
        ("Hermitian", herm, q + 1),
        ("center_p", models.subcover_center(c), q + 1),
        ("family_I", models.build(c, "family_I"), q + 1),
        ("constant", _with_xpart(herm, {0: 2}), n1),
        # L(y) = y is onto F_{p^m}: its indicator marks every element
        ("onto", _onto(c), q + 1),
        # the constant is the lowest term: Q = 1 + (c_i/2) x^(e_i) is summed
        # over the residues mod n1/(q+1)
        ("constant + X^(q+1) + X^(2q+2)",
         _with_xpart(herm, {0: 2, q + 1: c.p - 1, 2 * q + 2: 1}), q + 1),
        # D = g = q + 1: nothing folds; N(1 - N), N = x^(q+1), vanishes at N = 1,
        # and at p = 2 it is N + N^2, summed by xor
        ("X^(q+1) + (p-1) X^(2q+2)", _with_xpart(herm, {q + 1: 1, 2 * q + 2: c.p - 1}), q + 1),
        # T(x)^2 = x^2 (1 + x^(p-1))^2 for T(x) = x + x^p: Q = (1 + x^(p-1))^2
        # vanishes where x^(p-1) = -1, and at p = 2 it is x^2 + x^4
        ("T(x)^2", _with_xpart(herm, _t_squared(c.p)), 2 if c.p > 2 else 1),
    ]
    if c.p > 2:
        cases.append(("family_II", models.build(c, "family_II"), 2))
    return cases


def _onto(c):
    """Y + X^(q+1) = 0, whose L(y) = y maps F_{p^m} onto itself."""
    herm = models.hermitian_model(c)
    F = BiPoly(c, {(0, 1): 1, (c.q + 1, 0): 1}, herm.F.names)
    return models.CurveModel(F=F, ctx=c, family=herm.family)


def _t_squared(p):
    """{e: c} of T(x)^2 = x^2 + 2 x^(p+1) + x^(2p), T(x) = x + x^p."""
    return {e: v % p for e, v in ((2, 1), (p + 1, 2), (2 * p, 1)) if v % p}


def _value_path(model):
    """True where a count at _walk_ks keeps the value path: an X-part
    coefficient outside the tabled field."""
    c = model.ctx
    tabled = c.deg if c.order <= TABLE_ORDER_BOUND else 2 * c.h
    coefs = additive_split(model.F)[1].terms.values()
    return not all(c.in_subfield(v, tabled) for v in coefs)


@pytest.mark.parametrize("p,h", _WALK_FIELDS)
def test_period_walk_matches_the_full_walk(p, h):
    c = ctx(p, h)
    exp = c._logs([1])[1]
    for k in _walk_ks(c):
        m = 2 * k * h
        n1 = p**m - 1
        for name, model, g in _period_cases(c, k):
            assert affine_points(model, k).affine_points == _full_walk_count(model, k), (name, k)
            # Im L's indicator against the frozenset count tests, slot by
            # slot over exp's range, its zero block included
            vec, xpart = additive_split(model.F)
            solver = LinearizedSolver(c, vec, m)
            image = frozenset(_span(c, solver._image_basis))
            want = bytes(x in image for x in exp)
            ind = solver.indicator()
            assert ind == want, (name, k)
            terms = {i: v for (i, _), v in xpart.terms.items()}
            idx = c.walk(terms, m, n1 // g)
            assert (idx is None) == _value_path(model), (name, k)
            if idx is not None:
                # each index reads the value the multiply walk forms
                values = list(c.mul_walk(terms, m, n1 // g))
                assert list(map(exp.__getitem__, idx)) == values, (name, k)
            # a dependent image basis fails as _span does
            basis = solver._image_basis
            if basis:
                dependent = basis + basis[-1:]
                with pytest.raises(CheckError) as want_err:
                    _span(c, dependent)
                solver._image_basis, solver._indicator = dependent, None
                with pytest.raises(CheckError) as err:
                    solver.indicator()
                assert str(err.value) == str(want_err.value), (name, k)


class _CountingReads:
    """An indicator that counts its reads."""

    def __init__(self, seq):
        self.seq, self.reads = seq, 0

    def __getitem__(self, i):
        self.reads += 1
        return self.seq[i]


@pytest.mark.parametrize("p,h", _WALK_FIELDS)
def test_count_sizes_one_fiber_per_step_of_the_period(p, h, monkeypatch):
    # x = 0, then one fiber per step: 1 + (p^m - 1)/g indicator reads,
    # exactly, and no count call; the value path makes as many count calls.
    # p = 2 X-parts of two or more terms are summed by Zech reads too, and
    # each count equals the fiber scan's at k = 1
    c = ctx(p, h)
    calls, handed = [], []
    real_count, real_indicator = LinearizedSolver.count, LinearizedSolver.indicator

    def indicator(self):
        handed.append(_CountingReads(real_indicator(self)))
        return handed[-1]

    monkeypatch.setattr(LinearizedSolver, "count", lambda self, r: calls.append(r) or real_count(self, r))
    monkeypatch.setattr(LinearizedSolver, "indicator", indicator)
    zech_summed = set()
    for k in _walk_ks(c):
        n1 = p ** (2 * k * h) - 1
        for name, m, g in _period_cases(c, k):
            calls.clear()
            handed.clear()
            n = affine_points(m, k).affine_points
            reads = sum(ind.reads for ind in handed)
            if _value_path(m):
                assert (len(calls), reads) == (1 + n1 // g, 0), (name, k)
            else:
                assert (len(calls), reads) == (0, 1 + n1 // g), (name, k)
            if p == 2 and len(additive_split(m.F)[1].terms) > 1 and not _value_path(m):
                zech_summed.add(name)
                if k == 1:
                    assert n == _fiber_total(m, 1), name
    # at (2, 4) the other X-parts of two or more terms have a coefficient
    # outside F_{q^2}, which keeps them on the value path
    assert zech_summed >= ({"T(x)^2", "X^(q+1) + (p-1) X^(2q+2)"} if p == 2 else set())


@pytest.mark.parametrize("p,h", _WALK_FIELDS)
def test_summed_walk_reads_its_zero_sums(p, h):
    # the X-parts whose residue sum Q vanishes, value by value: exp reads
    # of the walk's indices against the multiply walk, which sums its
    # terms by add, over all p^m - 1 steps
    c = ctx(p, h)
    exp = c._logs([1])[1]
    for k in _walk_ks(c):
        m = 2 * k * h
        n1 = p**m - 1
        for xpart in (_t_squared(p), {c.q + 1: 1, 2 * c.q + 2: p - 1}):
            want = list(c.mul_walk(xpart, m, n1))
            got = list(map(exp.__getitem__, c.walk(xpart, m, n1)))
            assert got == want, (xpart, k)
            assert 0 in got, (xpart, k)


@pytest.mark.parametrize("family,p,h,adds", [("family_II", 7, 2, 3), ("noncenter_p", 5, 2, 2)])
def test_warm_count_adds_only_to_build_the_solver(family, p, h, adds, monkeypatch):
    # with the tables warm the walk sums its three X-terms by Zech reads,
    # L's images of the basis of F_{q^2} and Im L are summed by Zech
    # reads, and each fiber is one indicator read, so they make 0 add
    # calls and no count call: every add left combines ker L's basis
    m = models.build(ctx(p, h), family)
    maximality_check(m)
    calls, build, counts = [], [], []
    real_add, real_init, real_count = FieldCtx.add, LinearizedSolver.__init__, LinearizedSolver.count

    def init(self, *args):
        before = len(calls)
        real_init(self, *args)
        build.append(len(calls) - before)

    monkeypatch.setattr(FieldCtx, "add", lambda self, a, b: calls.append(a) or real_add(self, a, b))
    monkeypatch.setattr(LinearizedSolver, "__init__", init)
    monkeypatch.setattr(LinearizedSolver, "count",
                        lambda self, r: counts.append(r) or real_count(self, r))
    assert maximality_check(m)["maximal"]
    assert build == [adds] and len(calls) == adds
    assert counts == []


@pytest.mark.parametrize("p,h", [(3, 2), (5, 2)])
def test_count_walk_rejects_a_generator_outside_the_subfield(p, h, monkeypatch):
    # (3, 2) tables the whole field, so the walk reads the tables and
    # refuses gamma before its first step; (5, 2) tables F_{q^2} only,
    # which gamma leaves, so the walk multiplies and fails its closing check
    c = ctx(p, h)
    m = models.hermitian_model(c)
    affine_points(m, 1)  # builds the tables with the real generator
    outside = c.subfield_generator(4 * c.h)  # generates F_{q^4}^*
    monkeypatch.setattr(FieldCtx, "subfield_generator", lambda self, m: outside)
    with pytest.raises(CheckError, match="gamma"):
        affine_points(m, 1)


@pytest.mark.parametrize("p,h", [(5, 2), (3, 3), (2, 4), (7, 2)])
def test_warm_count_reads_x_powers_off_the_tables(p, h, monkeypatch):
    # the walk over F_{q^2}^* makes no multiply per step; the muls left
    # build the fiber solver and its image
    c = ctx(p, h)
    m = models.hermitian_model(c)
    n = affine_points(m, 1).affine_points
    calls = []
    real = FieldCtx.mul
    monkeypatch.setattr(FieldCtx, "mul", lambda self, a, b: calls.append(a) or real(self, a, b))
    assert affine_points(m, 1).affine_points == n == c.q**3
    assert len(calls) < c.q**2 - 1
