"""The acceptance suite: ten end-to-end checks, each reproducing one family of
finite-checkable claims at desk-size parameters.

Every check returns {"id", "ok", "details"} and never raises on a failed
mathematical comparison; run_all adds wall-clock seconds per check.  The CLI
`verify` subcommand and the acceptance test module both drive run_all.
"""

from __future__ import annotations

import time

from . import models, numsg
from .autgrp import group, subgroup_types
from .gfield import (
    CheckError,
    LinearizedSolver,
    ParameterError,
    make_field,
)
from .isocls import class_inventory, family_I_classify, family_I_iso, family_II_iso, oracle_iso
from .placecount import family_III_place_count, maximality_check

_GROUPS: dict = {}


def _group(family: str, p: int, h: int, b=None):
    """autgrp.group, memoized on the resolved b, so the checks that read
    one table share it."""
    ctx = make_field(p, h)
    key = (family, p, h, models.default_b(ctx, family, b))
    if key not in _GROUPS:
        _GROUPS[key] = group(ctx, family, key[3])
    return _GROUPS[key]


def check_hermitian_baseline() -> dict:
    counts = {}
    ok = True
    for p, h in [(2, 1), (3, 1), (2, 2), (2, 3)]:
        ctx = make_field(p, h)
        q = ctx.q
        m = models.hermitian_model(ctx)
        rep = maximality_check(m)
        counts[f"q={q}"] = rep["N"]
        ok = ok and rep["N"] == q**3 + 1 and rep["maximal"]
        ok = ok and m.claimed_genus == q * (q - 1) // 2
    return {"id": "hermitian_baseline", "ok": ok, "details": {"counts": counts}}


def check_family_I_q8() -> dict:
    ctx = make_field(2, 3)
    q = ctx.q
    sg = numsg.semigroup_at_infinity("family_I", 2, 3)
    g = models.genus_formula("family_I", 2, 3)
    ok = g == 4 and sg.generators == (2, 9) and sg.genus == 4
    ns = []
    for b in models.admissible_b(ctx, "family_I"):
        rep = maximality_check(models.family_I_model(ctx, b))
        ns.append(rep["N"])
        ok = ok and rep["N"] == 129 and rep["maximal"]
        ok = ok and (rep["N"] - q * q - 1) % (2 * q) == 0
        ok = ok and (rep["N"] - q * q - 1) // (2 * q) == g
    return {
        "id": "family_I_q8",
        "ok": ok,
        "details": {"genus": g, "semigroup": list(sg.generators), "counts": ns},
    }


def check_family_I_q27() -> dict:
    ctx = make_field(3, 3)
    sg = numsg.semigroup_at_infinity("family_I", 3, 3)
    g = models.genus_formula("family_I", 3, 3)
    ok = g == 27 and sg.generators == (3, 28) and sg.genus == 27
    ns = []
    for b in models.admissible_b(ctx, "family_I")[:3]:
        rep = maximality_check(models.family_I_model(ctx, b))
        ns.append(rep["N"])
        ok = ok and rep["N"] == 2188 and rep["maximal"]
    return {
        "id": "family_I_q27",
        "ok": ok,
        "details": {"genus": g, "counts": ns},
    }


def check_family_II() -> dict:
    ctx = make_field(3, 2)
    sg = numsg.semigroup_at_infinity("family_II", 3, 2)
    g = models.genus_formula("family_II", 3, 2)
    lg = numsg.telescopic_largest_gap((3, 4, 10))
    q = ctx.q
    ok = g == 3 and sg.generators == (3, 4, 10) and sg.genus == 3
    ok = ok and numsg.is_telescopic((3, 4, 10)) and lg == 5
    # largest gap equals q^2/p^2 - q/p - 1
    ok = ok and lg == (q * q) // 9 - q // 3 - 1
    ns = []
    for b in models.admissible_b(ctx, "family_II"):
        rep = maximality_check(models.family_II_model(ctx, b))
        ns.append(rep["N"])
        ok = ok and rep["N"] == 136 and rep["maximal"]
    ctx5 = make_field(5, 2)
    rep5 = maximality_check(models.build(ctx5, "family_II"))
    ok = ok and rep5["N"] == 1126 and rep5["maximal"]
    ok = ok and models.genus_formula("family_II", 5, 2) == 10
    return {
        "id": "family_II",
        "ok": ok,
        "details": {
            "genus": g,
            "largest_gap": lg,
            "counts_q9": ns,
            "count_q25": rep5["N"],
        },
    }


def check_family_III() -> dict:
    ok = True
    per = {}
    for h in (2, 3):
        ctx = make_field(2, h)
        q = ctx.q
        g = models.genus_formula("family_III", 2, h)
        ok = ok and g == q * (q - 2) // 8
        ns = []
        for b in models.admissible_b(ctx, "family_III"):
            rep = family_III_place_count(ctx, b)
            ns.append(rep["N"])
            ok = ok and rep["N"] == q * q * (q + 2) // 4 + 1
            ok = ok and rep["N"] == q * q + 2 * g * q + 1
            ok = ok and rep["maximal"]
        per[f"q={q}"] = ns
    return {"id": "family_III", "ok": ok, "details": {"counts": per}}


def check_automorphism_groups() -> dict:
    details: dict = {}
    ok = True

    t1 = _group("family_I", 2, 3)
    d1 = t1.details
    ok = ok and d1["V_order"] == 128 and d1["Lambda_order"] == 9
    ok = ok and t1.order == 1152 and d1["V_normal"] and d1["V_cap_Lambda_trivial"]
    disc = d1["discrepancies"]
    ok = ok and len(disc) == 1 and disc[0]["computed"] == 128
    details["family_I"] = {
        "V": d1["V_order"],
        "Lambda": d1["Lambda_order"],
        "order": t1.order,
        "discrepancies": disc,
    }

    t2 = _group("family_II", 3, 2)
    d2 = t2.details
    ok = ok and d2["Psi_order"] == 27 and d2["total_order"] == 54
    ok = ok and d2["commutator_equals_Gamma"] and d2["Gamma_order"] == 3
    ok = ok and d2["centralizer_profile"] == {27: 3, 9: 24}
    details["family_II"] = {
        "Psi": d2["Psi_order"],
        "total": d2["total_order"],
        "Gamma": d2["Gamma_order"],
        "centralizer_profile": {str(k): v for k, v in d2["centralizer_profile"].items()},
        "discrepancies": d2["discrepancies"],
    }

    fam3 = {}
    for h in (2, 3):
        ctx = make_field(2, h)
        q = ctx.q
        bs = models.admissible_b(ctx, "family_III")
        details3 = [_group("family_III", 2, h, b).details for b in (bs if h == 2 else bs[:1])]
        for d3 in details3:
            ok = ok and d3["quotient_order"] == q * q // 2
            ok = ok and d3["quotient_exponent"] == 4
        # the first b's measured values
        fam3[f"q={q}"] = {
            "quotient_order": details3[0]["quotient_order"],
            "quotient_exponent": details3[0]["quotient_exponent"],
        }
    details["family_III"] = fam3
    return {"id": "automorphism_groups", "ok": ok, "details": details}


def _fixed_point_tables() -> list:
    """(label, model, elements) for each group table check_unique_fixed_point
    reads: families I-III, the order-p^2 subgroup types and the stabilizer."""
    tables = []
    t = _group("family_I", 2, 3)
    tables.append(("family_I(2,3)", t.model, t.elements))
    t = _group("family_II", 3, 2)
    tables.append(("family_II(3,2)", t.model, t.elements))
    for h in (2, 3):
        t = _group("family_III", 2, h)
        tables.append((f"family_III(q={2**h})", t.model, t.elements))
    for p, h in [(2, 2), (3, 2)]:
        st = subgroup_types(make_field(p, h))
        tables += [(f"{name}({p},{h})", t.model, t.elements)
                   for name, t in st.items() if name != "notes"]
    for p in (2, 3):
        t = _group("Hermitian", p, 1)
        tables.append((f"stabilizer(q={p})", t.model, t.elements))
    return tables


def check_unique_fixed_point() -> dict:
    """Nontrivial p-power-order elements must fix no point of the curve
    except the place at infinity, over the algebraic closure.

    Each element sigma = (lam x + a, mu y + f(x)) is decided from its
    parameters.  sigma != 1 has p-power order iff lam = mu = 1: if lam != 1
    the x-part has order ord(lam) > 1, prime to p; if lam = 1 != mu then
    sigma^n = (x, mu^n y + g(x)), where n in {1, p} is the order of the
    x-part, and mu^n != 1 again has order prime to p.  A map with lam = mu = 1 fixes (x0, y0) exactly when
    a = 0 and f(x0) = 0.  So it is fixed-point free if a != 0 or f is a
    nonzero constant; f keeps only its nonzero coefficients, so the test
    is a != 0 or set(f) == {0}.  Conversely, if a = 0 and f is not
    constant, f has a root x0, and since F has positive y-degree with a
    constant y-leading coefficient (the precondition map_preserves checks)
    the curve meets the line x = x0 in some (x0, y0), which sigma fixes."""
    tables = _fixed_point_tables()
    tested = 0
    violations = []
    for label, model, elements in tables:
        for g in elements:
            if g.lam != 1 or g.mu != 1 or g.is_identity():
                continue
            tested += 1
            if g.a == 0 and set(g.f) != {0}:
                violations.append({"group": label, "map": g.to_text(model.variables)})
    return {
        "id": "unique_fixed_point",
        "ok": not violations,
        "details": {
            "groups_scanned": len(tables),
            "elements_tested": tested,
            "violations": violations,
        },
    }


def check_isomorphism_classes() -> dict:
    ok = True
    inv23 = class_inventory("family_I", make_field(2, 3))
    ok = ok and inv23["class_sizes"] == [6] and inv23["classifier_agreement"]
    inv25 = class_inventory("family_I", make_field(2, 5))
    ok = ok and inv25["class_sizes"] == [6] * 5 and inv25["classifier_agreement"]
    inv2 = class_inventory("family_II", make_field(3, 2))
    ok = ok and inv2["class_sizes"] == [2] * 4

    # three-way agreement on every family I pair at q = 8
    ctx = make_field(2, 3)
    bs = models.admissible_b(ctx, "family_I")
    pairs = agree = 0
    for i, x in enumerate(bs):
        for y in bs[i:]:
            pairs += 1
            s = family_I_iso(ctx, x, y) is not None
            c = family_I_classify(ctx, x, y)["iso"]
            o = oracle_iso(
                models.family_I_model(ctx, x), models.family_I_model(ctx, y), tier=1
            )
            agree += s == c == o
    ok = ok and agree == pairs

    # oracle agreement for family II at q = 9
    ctx2 = make_field(3, 2)
    bs2 = models.admissible_b(ctx2, "family_II")
    pairs2 = agree2 = 0
    for i, x in enumerate(bs2):
        for y in bs2[i:]:
            pairs2 += 1
            s = family_II_iso(ctx2, x, y) is not None
            o = oracle_iso(
                models.family_II_model(ctx2, x), models.family_II_model(ctx2, y), tier=1
            )
            agree2 += s == o
    ok = ok and agree2 == pairs2

    # explicit witness for bbar = 1/b where b is neither quadratic nor cubic
    witness_ok = True
    for p, h in [(2, 5), (3, 4)]:
        fc = make_field(p, h)
        b = next(
            e
            for e in fc.subfield_encodings(h)
            if e >= p and fc.frob(e, 2) != e and fc.frob(e, 3) != e
        )
        binv = fc.inv(b)
        cc, dd = fc.pow(binv, p), fc.neg(b)
        for i in range(1, h):
            lhs = fc.mul(dd, fc.sub(binv, fc.frob(binv, i)))
            rhs = fc.mul(fc.frob(cc, i - 1), fc.sub(b, fc.frob(b, i)))
            witness_ok = witness_ok and lhs == rhs
        witness_ok = witness_ok and family_I_iso(fc, b, binv) is not None
    ok = ok and witness_ok
    return {
        "id": "isomorphism_classes",
        "ok": ok,
        "details": {
            "family_I_2_3": inv23["class_sizes"],
            "family_I_2_5": inv25["class_sizes"],
            "family_II_3_2": inv2["class_sizes"],
            "three_way_pairs": pairs,
            "three_way_agree": agree,
            "explicit_witness": witness_ok,
        },
    }


def check_factorization_lemmas() -> dict:
    ok = True
    degs = {}
    for p, want in [(2, 22), (3, 66)]:
        rep = models.verify_lemma_a(p)
        degs[f"p={p}"] = rep["total_degree"]
        ok = ok and rep["ok"] and rep["total_degree"] == want == 2 * p**3 + p**2 + p
    bcounts = {}
    for h in (2, 3, 4):
        ctx = make_field(2, h)
        bs = models.admissible_b(ctx, "family_III")
        bcounts[f"h={h}"] = len(bs)
        for b in bs:
            rep = models.verify_lemma_b(ctx, b)
            ok = ok and rep["terminal_ok"] and rep["identity_ok"]
            ok = ok and rep["divisions"] == h
    return {
        "id": "factorization_lemmas",
        "ok": ok,
        "details": {"degrees": degs, "b_tested": bcounts},
    }


def check_oracle_suites() -> dict:
    ok = True
    seqs = {
        (2, 9): 4,
        (3, 28): 27,
        (3, 4, 10): 3,
        (9, 12, 28): 36,
        (5, 6, 26): 10,
        (8, 33): 112,
    }
    genera = {}
    for gens, g in seqs.items():
        s = numsg.summary(gens)  # raises if formula and sieve disagree
        genera[",".join(map(str, gens))] = s["genus"]
        ok = ok and s["telescopic"] and s["genus"] == g and s["telescopic_genus"] == g

    solver_cases = [
        (2, 2, [1, 0, 1], 8),
        (2, 2, [1, 1], 4),
        (3, 1, [1, 0, 1], 4),
        (3, 2, [2, 1], 8),
        (2, 3, [1, 0, 0, 1], 12),
    ]
    probes = 0
    for p, h, coeffs, m in solver_cases:
        ctx = make_field(p, h)
        table: dict = {}
        for y in ctx.subfield_encodings(m):
            v = 0
            for i, cf in enumerate(coeffs):
                if cf:
                    v = ctx.add(v, ctx.mul(cf, ctx.frob(y, i)))
            table.setdefault(v, []).append(y)
        solver = LinearizedSolver(ctx, coeffs, m)
        for rhs in range(ctx.order):
            if solver.solve(rhs) != sorted(table.get(rhs, [])):
                ok = False
            probes += 1
    return {
        "id": "oracle_suites",
        "ok": ok,
        "details": {"telescopic_genera": genera, "solver_probes": probes},
    }


CHECKS = [
    ("hermitian_baseline", check_hermitian_baseline),
    ("family_I_q8", check_family_I_q8),
    ("family_I_q27", check_family_I_q27),
    ("family_II", check_family_II),
    ("family_III", check_family_III),
    ("automorphism_groups", check_automorphism_groups),
    ("unique_fixed_point", check_unique_fixed_point),
    ("isomorphism_classes", check_isomorphism_classes),
    ("factorization_lemmas", check_factorization_lemmas),
    ("oracle_suites", check_oracle_suites),
]

# single-process wall-clock budgets in seconds: about ten times each
# check's measured time (under 1 s for the one at 10 s), 5 s at least
BUDGETS = {
    "hermitian_baseline": 5,
    "family_I_q8": 5,
    "family_I_q27": 5,
    "family_II": 5,
    "family_III": 5,
    "automorphism_groups": 5,
    "unique_fixed_point": 5,
    "isomorphism_classes": 10,
    "factorization_lemmas": 5,
    "oracle_suites": 5,
}


def run_all(ids=None) -> list[dict]:
    """Run the selected checks (all by default) and time each one.

    A mathematical failure is reported in the result, never raised; anything
    else propagates as a bug.
    """
    known = {cid for cid, _ in CHECKS}
    if ids is not None:
        bad = set(ids) - known
        if bad:
            raise ParameterError(f"unknown check ids: {sorted(bad)}")
    out = []
    for cid, fn in CHECKS:
        if ids is not None and cid not in ids:
            continue
        t0 = time.perf_counter()
        try:
            res = fn()
        except (CheckError, ParameterError) as e:
            res = {"id": cid, "ok": False, "details": {"error": str(e)}}
        res["seconds"] = round(time.perf_counter() - t0, 3)
        out.append(res)
    return out
