"""Acceptance gate: the ten headline claims, one test and one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines
and per-check timings.  The heavy lifting lives in hermquot.verify; this
module pins the check list and the time budgets, and keeps the point scan
that the fixed-point criterion replaced as that criterion's oracle.
"""

import pytest

from hermquot import autgrp, placecount, verify
from hermquot.autgrp import AffineAlgMap
from hermquot.gfield import make_field
from hermquot.models import hermitian_model
from hermquot.polyring import p_power_exp

EXPECTED_IDS = [
    "hermitian_baseline",
    "family_I_q8",
    "family_I_q27",
    "family_II",
    "family_III",
    "automorphism_groups",
    "unique_fixed_point",
    "isomorphism_classes",
    "factorization_lemmas",
    "oracle_suites",
]


@pytest.fixture(scope="module")
def results():
    return {r["id"]: r for r in verify.run_all()}


def test_check_list_is_pinned():
    assert [cid for cid, _ in verify.CHECKS] == EXPECTED_IDS
    assert set(verify.BUDGETS) == set(EXPECTED_IDS)


@pytest.mark.parametrize("cid", EXPECTED_IDS)
def test_criterion(cid, results):
    r = results[cid]
    print(f"{'PASS' if r['ok'] else 'FAIL'}  {cid}  ({r['seconds']}s)")
    assert r["ok"], f"{cid} failed: {r['details']}"
    assert r["seconds"] <= verify.BUDGETS[cid], f"{cid} blew its time budget"


# the fixed-point criterion against the old route: element orders and a scan
# of the F_{q^2}-rational affine points


@pytest.fixture(scope="module")
def fixed_point_tables():
    return verify._fixed_point_tables()


def _affine_points(model):
    """Every F_{q^2}-rational affine point of model, by the fiber scan."""
    return [(x, y) for x, ys in placecount.iter_fibers(model, 1) for y in ys]


def test_fixed_point_criterion_matches_the_point_scan(fixed_point_tables):
    tested = 0
    for label, model, elements in fixed_point_tables:
        p = model.ctx.p
        nontrivial = [g for g in elements if not g.is_identity()]
        unipotent = [g for g in nontrivial if g.lam == 1 and g.mu == 1]
        p_power = [g for g in nontrivial if p_power_exp(g.order(), p) is not None]
        assert unipotent == p_power, label
        pts = _affine_points(model)
        for g in unipotent:
            assert g.a != 0 or set(g.f) == {0}, (label, g)
            assert all(g.apply(x, y) != (x, y) for x, y in pts), (label, g)
        tested += len(unipotent)
    assert tested == 494


def _check_planted(monkeypatch, model, *maps):
    monkeypatch.setattr(verify, "_fixed_point_tables", lambda: [("planted", model, list(maps))])
    return verify.check_unique_fixed_point()


def test_fixed_point_check_names_a_planted_violation(monkeypatch):
    c = make_field(3, 1)
    model = hermitian_model(c)
    ok, details = _check_planted(monkeypatch, model,
                                 AffineAlgMap.triangular(c, 1, 0, 1, {1: 1}))
    assert not ok
    assert details == {
        "groups_scanned": 1,
        "elements_tested": 1,
        "violations": [{"group": "planted", "map": "x -> x, y -> x + y"}],
    }
    # (x + 1, y) moves every point; (x, 2y) has order 2, so it is not tested
    ok, details = _check_planted(monkeypatch, model, AffineAlgMap.triangular(c, 1, 1, 1),
                                 AffineAlgMap.triangular(c, 1, 0, 2))
    assert ok and details["elements_tested"] == 1


def test_fixed_point_check_sees_points_the_rational_scan_misses(monkeypatch):
    # (x, y + x^2 - n) with n a non-square of F_9 fixes the points over
    # x = sqrt(n), none of which is F_9-rational
    c = make_field(3, 1)
    model = hermitian_model(c)
    F9 = c.subfield_encodings(2)
    squares = {c.mul(t, t) for t in F9}
    n = next(t for t in F9 if t not in squares)
    g = AffineAlgMap.triangular(c, 1, 0, 1, {2: 1, 0: c.neg(n)})
    assert all(g.apply(x, y) != (x, y) for x, y in _affine_points(model))
    ok, details = _check_planted(monkeypatch, model, g)
    assert not ok and len(details["violations"]) == 1


def test_fixed_point_check_composes_and_scans_nothing(monkeypatch, fixed_point_tables):
    def refuse(*args, **kwargs):
        raise AssertionError("the fixed-point check must decide from map parameters")

    monkeypatch.setattr(verify, "_fixed_point_tables", lambda: fixed_point_tables)
    for name in ("order", "apply", "compose"):
        monkeypatch.setattr(AffineAlgMap, name, refuse)
    monkeypatch.setattr(placecount, "iter_fibers", refuse)
    ok, details = verify.check_unique_fixed_point()
    assert ok
    assert details == {"groups_scanned": 10, "elements_tested": 494, "violations": []}


def test_automorphism_groups_reports_measured_family_III(monkeypatch):
    # a planted quotient order fails the check and shows in its details
    real = autgrp.family_III_group

    def planted(ctx, b):
        t = real(ctx, b)
        return autgrp.AutGroupTable(
            model=t.model, elements=t.elements, order=t.order, closed=t.closed,
            exponent=t.exponent, center_order=t.center_order,
            commutator_order=t.commutator_order, generators=t.generators,
            details={**t.details, "quotient_order": 7},
        )

    monkeypatch.setattr(verify, "_GROUPS", {})
    monkeypatch.setattr(autgrp, "family_III_group", planted)
    ok, details = verify.check_automorphism_groups()
    assert not ok
    assert details["family_III"] == {
        "q=4": {"quotient_order": 7, "quotient_exponent": 4},
        "q=8": {"quotient_order": 7, "quotient_exponent": 4},
    }
