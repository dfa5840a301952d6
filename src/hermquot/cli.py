"""Command line front end.

Every subcommand prints exactly one JSON document to stdout, with keys sorted,
so repeated runs of the same command are byte-identical.  Timings and
diagnostics go to stderr.  Exit codes: 0 on success, 1 when a mathematical
check fails (CheckError), 2 on invalid input (ParameterError or bad usage).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__, models, numsg
from . import verify as acceptance
from .autgrp import group, subgroup_types
from .gfield import CheckError, FieldCtx, ParameterError, make_field
from .isocls import (
    class_inventory,
    family_I_classify,
    family_I_iso,
    family_II_iso,
    oracle_iso,
)
from .placecount import (
    affine_points,
    family_III_place_count,
    maximality_report,
    rational_places,
)

# CLI family keys -> internal model tags
FAMILIES = {
    "hermitian": "Hermitian",
    "center": "center_p",
    "noncenter": "noncenter_p",
    "fpp": "Fpp_char2",
    "I": "family_I",
    "II": "family_II",
    "III": "family_III",
}


def _need_pq(ns: argparse.Namespace) -> None:
    """ParameterError unless argv gave --p, and --h where the command has
    one, each a positive integer."""
    flags = [f for f in ("p", "h") if hasattr(ns, f)]
    if any(getattr(ns, f) is None or getattr(ns, f) <= 0 for f in flags):
        raise ParameterError(f"{ns.command} needs " + " and ".join("--" + f for f in flags))


def _ctx(ns: argparse.Namespace) -> FieldCtx:
    _need_pq(ns)
    return make_field(ns.p, ns.h)


def cmd_field(ns: argparse.Namespace):
    ctx = _ctx(ns)
    return {
        "version": __version__,
        "p": ctx.p,
        "h": ctx.h,
        "q": ctx.q,
        "deg": ctx.deg,
        "order": ctx.order,
        "modulus": ctx.modulus,
    }, 0


def cmd_construct(ns: argparse.Namespace):
    ctx = _ctx(ns)
    payload = models.build(ctx, FAMILIES[ns.family], ns.b).to_dict()
    payload["version"] = __version__
    payload["modulus"] = ctx.modulus
    payload["q"] = ctx.q
    return payload, 0


def cmd_count(ns: argparse.Namespace):
    ctx = _ctx(ns)
    if ns.family == "III":
        if ns.k != 1:
            raise ParameterError("degree-2 counting is not wired to the quotient path")
        rep = dict(family_III_place_count(ctx, models.default_b(ctx, "family_III", ns.b)))
        rep.update(
            version=__version__,
            modulus=ctx.modulus,
            family="family_III",
            p=ctx.p,
            h=ctx.h,
            path="quotient",
        )
        return rep, 0
    model = models.build(ctx, FAMILIES[ns.family], ns.b)
    tally = rational_places(model)
    rep = maximality_report(model, tally.N, "direct")
    payload = {
        "version": __version__,
        "modulus": ctx.modulus,
        "family": model.family,
        "p": ctx.p,
        "h": ctx.h,
        "b": model.params.get("b"),
        "q": ctx.q,
        "N": tally.N,
        "affine": tally.affine_points,
        "infinity": tally.places_at_infinity,
        "expected": rep["expected"],
        "maximal": rep["maximal"],
        "genus_used": rep["genus_used"],
        "path": rep["path"],
    }
    if ns.k == 2:
        payload["affine_k2"] = affine_points(model, 2).affine_points
    return payload, 0


def cmd_genus(ns: argparse.Namespace):
    tag = FAMILIES[ns.family]
    if tag in models.PARAMETRIZED:
        _need_pq(ns)
        g = models.genus_formula(tag, ns.p, ns.h)
        q = ns.p**ns.h
        payload = {"family": tag, "p": ns.p, "h": ns.h, "q": q, "genus": g}
    else:
        ctx = _ctx(ns)
        model = models.build(ctx, tag)
        payload = {
            "family": model.family,
            "p": ctx.p,
            "h": ctx.h,
            "q": ctx.q,
            "genus": model.claimed_genus,
        }
    payload["version"] = __version__
    return payload, 0


def cmd_semigroup(ns: argparse.Namespace):
    if ns.gens:
        if ns.family is not None or ns.p is not None or ns.h is not None:
            raise ParameterError("--gens takes no --family, --p or --h")
        try:
            gens = tuple(int(t) for t in ns.gens.split(","))
        except ValueError:
            raise ParameterError(f"cannot parse generator list {ns.gens!r}")
        payload = {"family": "custom", "version": __version__}
    else:
        if ns.family is None:
            raise ParameterError("semigroup needs --family I/II/III or --gens")
        _need_pq(ns)
        gens = numsg.semigroup_at_infinity(FAMILIES[ns.family], ns.p, ns.h).generators
        payload = {
            "family": FAMILIES[ns.family],
            "p": ns.p,
            "h": ns.h,
            "version": __version__,
        }
    payload.update(numsg.summary(gens))
    return payload, 0


def _table_payload(table, extra=None) -> dict:
    payload = {
        "order": table.order,
        "closed": table.closed,
        "exponent": table.exponent,
        "center_order": table.center_order,
        "commutator_order": table.commutator_order,
        "generators": [g.to_text(table.model.variables) for g in table.generators],
        "details": table.details,
    }
    if extra:
        payload.update(extra)
    return payload


def cmd_aut(ns: argparse.Namespace):
    ctx = _ctx(ns)
    tag = FAMILIES[ns.family]
    if ns.subgroups and tag != "Hermitian":
        raise ParameterError("--subgroups needs --family hermitian")
    bn = models.default_b(ctx, tag, ns.b)
    base = {"version": __version__, "modulus": ctx.modulus, "p": ctx.p, "h": ctx.h}
    if ns.subgroups:
        st = subgroup_types(ctx)
        tables = {
            name: _table_payload(t)
            for name, t in st.items()
            if name != "notes"
        }
        return {**base, "family": tag, "subgroup_types": tables, "notes": st["notes"]}, 0
    table = group(ctx, tag, bn)
    if tag == "family_III":
        return {**base, "family": tag, **table.details}, 0
    return {**base, "family": tag, "b": bn, **_table_payload(table)}, 0


def cmd_iso(ns: argparse.Namespace):
    ctx = _ctx(ns)
    tag = FAMILIES[ns.family]
    base = {"version": __version__, "modulus": ctx.modulus, "p": ctx.p, "h": ctx.h}
    if ns.inventory:
        if ns.b is not None or ns.bbar is not None or ns.oracle:
            raise ParameterError("--inventory takes no --b, --bbar or --oracle")
        return {**base, **class_inventory(tag, ctx)}, 0
    if ns.b is None or ns.bbar is None:
        raise ParameterError("iso needs --b and --bbar (or --inventory)")
    payload = {**base, "family": tag, "b": ns.b, "bbar": ns.bbar}
    if tag == "family_I":
        w = family_I_iso(ctx, ns.b, ns.bbar)
        cl = family_I_classify(ctx, ns.b, ns.bbar)
        if (w is not None) != cl["iso"]:
            raise CheckError("isomorphism solver and classifier disagree")
        payload.update(iso=w is not None, case=cl["case"],
                       witness=w.as_dict() if w else None)
    else:
        kappa = family_II_iso(ctx, ns.b, ns.bbar)
        payload.update(iso=kappa is not None, kappa=kappa)
    if ns.oracle:
        got = oracle_iso(models.build(ctx, tag, ns.b), models.build(ctx, tag, ns.bbar),
                         tier=ns.oracle)
        if got != payload["iso"]:
            raise CheckError("isomorphism oracle disagrees with the solver")
        payload["oracle_tier"] = ns.oracle
        payload["oracle"] = got
    return payload, 0


def cmd_lemma_a(ns: argparse.Namespace):
    _need_pq(ns)
    rep = dict(models.verify_lemma_a(ns.p))
    rep["version"] = __version__
    return rep, 0


def cmd_lemma_b(ns: argparse.Namespace):
    ctx = _ctx(ns)
    if ns.b is not None:
        bs = [ns.b]
    else:
        bs = models.admissible_b(ctx, "family_III")
    results = [models.verify_lemma_b(ctx, bn) for bn in bs]
    return {"version": __version__, "modulus": ctx.modulus, "results": results}, 0


def cmd_verify(ns: argparse.Namespace):
    if ns.all and ns.check:
        raise ParameterError("--all takes no --check")
    if ns.all:
        ids = None
    elif ns.check:
        ids = list(ns.check)
    else:
        raise ParameterError("verify needs --all or --check ID")
    res = acceptance.run_all(ids)
    for r in res:
        print(f"# {r['id']}: {r.pop('seconds')}s", file=sys.stderr)
    all_ok = all(r["ok"] for r in res)
    return {"version": __version__, "results": res, "all_ok": all_ok}, 0 if all_ok else 1


_DISPATCH = {
    "field": cmd_field,
    "construct": cmd_construct,
    "count": cmd_count,
    "genus": cmd_genus,
    "semigroup": cmd_semigroup,
    "aut": cmd_aut,
    "iso": cmd_iso,
    "verify-lemma-a": cmd_lemma_a,
    "verify-lemma-b": cmd_lemma_b,
    "verify": cmd_verify,
}


def _add_pq(sp, need_h=True):
    sp.add_argument("--p", type=int, help="field characteristic, a prime")
    if need_h:
        sp.add_argument("--h", type=int, help="the curve lives over GF(p^(2h))")


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hermquot",
        description="subcovers of the Hermitian curve: construction and checking",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("field", help="describe the ambient field tower")
    _add_pq(sp)

    sp = sub.add_parser("construct", help="build a curve model and print it")
    _add_pq(sp)
    sp.add_argument("--family", required=True, choices=sorted(FAMILIES))
    sp.add_argument("--b", type=int, help="parameter encoding; default: first admissible")

    sp = sub.add_parser("count", help="count rational places and test maximality")
    _add_pq(sp)
    sp.add_argument("--family", required=True, choices=sorted(FAMILIES))
    sp.add_argument("--b", type=int)
    sp.add_argument("--k", type=int, default=1, choices=(1, 2),
                    help="also count degree-2 affine points with --k 2")

    sp = sub.add_parser("genus", help="genus from the quotient formulas")
    _add_pq(sp)
    sp.add_argument("--family", required=True, choices=sorted(FAMILIES))

    sp = sub.add_parser("semigroup", help="Weierstrass semigroup at infinity")
    _add_pq(sp)
    sp.add_argument("--family", choices=("I", "II", "III"))
    sp.add_argument("--gens", help="comma list, e.g. 3,4,10, instead of --family")

    sp = sub.add_parser("aut", help="automorphism group tables")
    _add_pq(sp)
    sp.add_argument("--family", required=True, choices=("hermitian", "I", "II", "III"))
    sp.add_argument("--b", type=int)
    sp.add_argument("--subgroups", action="store_true",
                    help="with --family hermitian: order-p^2 subgroup types")

    sp = sub.add_parser("iso", help="isomorphism testing inside a family")
    _add_pq(sp)
    sp.add_argument("--family", required=True, choices=("I", "II"))
    sp.add_argument("--b", type=int)
    sp.add_argument("--bbar", type=int)
    sp.add_argument("--oracle", type=int, default=0, choices=(0, 1, 2),
                    help="cross-check against the exhaustive oracle at this tier")
    sp.add_argument("--inventory", action="store_true",
                    help="partition all admissible b into isomorphism classes")

    sp = sub.add_parser("verify-lemma-a", help="plane factorization over the prime field")
    _add_pq(sp, need_h=False)

    sp = sub.add_parser("verify-lemma-b", help="iterated exact divisions in characteristic 2")
    _add_pq(sp)
    sp.add_argument("--b", type=int)

    sp = sub.add_parser("verify", help="run the acceptance checks")
    sp.add_argument("--all", action="store_true", help="run every check")
    sp.add_argument("--check", action="append", metavar="ID",
                    help="run one check by id; repeatable")

    return ap


def main(argv=None) -> int:
    ns = _parser().parse_args(argv)
    try:
        t0 = time.perf_counter()
        payload, code = _DISPATCH[ns.command](ns)
        print(f"# {ns.command}: {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    except ParameterError as e:
        print(f"parameter error: {e}", file=sys.stderr)
        return 2
    except CheckError as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 1
    print(json.dumps(payload, indent=2, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
