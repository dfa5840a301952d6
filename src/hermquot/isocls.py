"""Isomorphism decisions over F_{q^2} for the family I and II curves.

Three independent routes to the same answer:
  * a witness solver that searches the scaling pair (c, delta) satisfying
    delta*(bbar - bbar^(p^i)) = c^(p^(i-1))*(b - b^(p^i)) for all i and
    certifies the result by substitution into both models,
  * a classifier that decides by parameter membership: both parameters
    quadratic over F_p, both cubic, or related by a fractional-linear map
    with F_p coefficients,
  * a brute-force oracle scanning monomial (tier 1) or triangular (tier 2)
    coordinate maps.
The three must agree; tests and the acceptance gate compare them pairwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .gfield import CheckError, FieldCtx, ParameterError
from .models import admissible_b, check_b, family_I_model, family_II_model, family_key
from .polyring import BiPoly, p_power_exp

INVENTORY_BOUND = 4096
# full pairwise classifier cross-check only below this many parameters
MATRIX_BOUND = 64


def _norm_preimage(ctx: FieldCtx, d: int) -> int:
    """Some sigma in F_{q^2} with sigma^(q+1) = d; the norm is onto F_q.

    The table keeps the least preimage of each norm, so the ascending scan
    stops once all q values have one."""
    tab = ctx._norm
    if tab is None:
        tab = {}
        for s in ctx.subfield_encodings(2 * ctx.h):
            tab.setdefault(ctx.pow(s, ctx.q + 1), s)
            if len(tab) == ctx.q:
                break
        ctx._norm = tab
    sig = tab.get(d)
    if sig is None:
        raise CheckError("norm map misses a value of F_q; field tower broken")
    return sig


@dataclass(frozen=True)
class IsoWitness:
    """Certificate that (x, y) -> (sigma*x, c*y) carries the b-model onto
    delta times the bbar-model.  sigma^(q+1) = delta ties the two scalings."""

    c: int
    delta: int
    sigma: int
    direction: tuple[int, int]

    def as_dict(self) -> dict:
        return {
            "c": self.c,
            "delta": self.delta,
            "sigma": self.sigma,
            "b": self.direction[0],
            "bbar": self.direction[1],
        }


def _certify_family_I(ctx: FieldCtx, bn: int, be: int, c: int, delta: int, sigma: int):
    ma = family_I_model(ctx, bn)
    mb = family_I_model(ctx, be)
    X, Y = BiPoly.variables(ctx, ma.variables)
    image = ma.F.substitute(X.cmul(sigma), Y.cmul(c))
    if not (image - mb.F.cmul(delta)).is_zero():
        raise CheckError("isomorphism witness fails the substitution check")


def family_I_iso(ctx: FieldCtx, b, bbar) -> IsoWitness | None:
    """Search c in F_q^* for the full condition set; delta is pinned by the
    i = 1 condition, sigma by the norm equation.  None when no pair works."""
    bn = check_b(ctx, "I", b)
    be = check_b(ctx, "I", bbar)
    h = ctx.h
    diffs = [ctx.sub(bn, ctx.frob(bn, i)) for i in range(1, h)]
    diffs_bar = [ctx.sub(be, ctx.frob(be, i)) for i in range(1, h)]
    for c in ctx.subfield_encodings(h):
        if c == 0:
            continue
        delta = ctx.div(ctx.mul(c, diffs[0]), diffs_bar[0])
        ok = all(
            ctx.mul(delta, diffs_bar[i]) == ctx.mul(ctx.frob(c, i), diffs[i])
            for i in range(1, h - 1)
        )
        if not ok:
            continue
        sigma = _norm_preimage(ctx, delta)
        _certify_family_I(ctx, bn, be, c, delta, sigma)
        return IsoWitness(c=c, delta=delta, sigma=sigma, direction=(bn, be))
    return None


def family_I_classify(ctx: FieldCtx, b, bbar) -> dict:
    """Membership-based decision: quadratic pair, cubic pair, or a
    fractional-linear relation over F_p; anything else is not isomorphic."""
    bn = check_b(ctx, "I", b)
    be = check_b(ctx, "I", bbar)
    if ctx.frob(bn, 2) == bn and ctx.frob(be, 2) == be:
        return {"iso": True, "case": "both_quadratic"}
    if ctx.frob(bn, 3) == bn and ctx.frob(be, 3) == be:
        return {"iso": True, "case": "both_cubic"}
    p = ctx.p
    for al, bt, ga, de in product(range(p), repeat=4):
        if (al * de - bt * ga) % p == 0:
            continue
        den = ctx.add(ctx.scale(bn, ga), de)
        if den == 0:
            continue
        if ctx.div(ctx.add(ctx.scale(bn, al), bt), den) == be:
            return {"iso": True, "case": "fractional_linear"}
    return {"iso": False, "case": "not_isomorphic"}


def family_II_iso(ctx: FieldCtx, b, bbar) -> int | None:
    """kappa = bbar/b when it lands in F_p^*, certified by substitution."""
    bn = check_b(ctx, "II", b)
    be = check_b(ctx, "II", bbar)
    kappa = ctx.div(be, bn)
    if kappa == 0 or kappa >= ctx.p:
        return None
    ma = family_II_model(ctx, bn)
    mb = family_II_model(ctx, be)
    X, Y = BiPoly.variables(ctx, ma.variables)
    # kappa in F_p commutes with the trace polynomial: y -> kappa*y
    if not (ma.F.substitute(X, Y.cmul(kappa)) - mb.F).is_zero():
        raise CheckError("kappa witness fails the substitution check")
    return kappa


def class_inventory(family: str, ctx: FieldCtx) -> dict:
    """Partition all admissible parameters into isomorphism classes.

    Family I partitions with the witness solver and, at desk sizes,
    cross-checks every pair against the classifier; family II partitions by
    the kappa ratio test.  family is "I" or "II", with or without the
    "family_" prefix.
    """
    family = "family_" + family_key(family)
    if family == "family_I":
        bs = admissible_b(ctx, "family_I")
        decide = lambda x, y: family_I_iso(ctx, x, y) is not None
    elif family == "family_II":
        bs = admissible_b(ctx, "family_II")
        decide = lambda x, y: family_II_iso(ctx, x, y) is not None
    else:
        raise ParameterError(f"no isomorphism criterion for {family!r}")
    if len(bs) > INVENTORY_BOUND:
        raise ParameterError("parameter space too large to partition")

    classes: list[list[int]] = []
    for b in bs:
        for cl in classes:
            if decide(cl[0], b):
                cl.append(b)
                break
        else:
            classes.append([b])

    agreement = None
    if family == "family_I" and len(bs) <= MATRIX_BOUND:
        of = {}
        for idx, cl in enumerate(classes):
            for b in cl:
                of[b] = idx
        agreement = True
        for i, b in enumerate(bs):
            for bb in bs[i + 1 :]:
                if family_I_classify(ctx, b, bb)["iso"] != (of[b] == of[bb]):
                    agreement = False
    return {
        "family": family,
        "p": ctx.p,
        "h": ctx.h,
        "count": len(bs),
        "class_count": len(classes),
        "class_sizes": sorted((len(cl) for cl in classes), reverse=True),
        "classes": [sorted(cl) for cl in classes],
        "classifier_agreement": agreement,
    }


def oracle_iso(model_a, model_b, tier: int = 1) -> bool:
    """Exhaustive search for a coordinate map carrying model_a's polynomial
    to a nonzero scalar multiple of model_b's.

    Tier 1 scans monomial maps (x, y) -> (sigma*x, c*y); tier 2 adds the
    triangular ones (x, y) -> (sigma*x, c*y + c1*x + c2), feasible up to
    q = 9.  Models must carry their y-dependence in pure p-power monomials,
    which keeps the triangular expansion additive.
    """
    ctx = model_a.ctx
    if model_b.ctx is not ctx:
        raise ParameterError("models live over different fields")
    if tier not in (1, 2):
        raise ParameterError("tier must be 1 or 2")
    if tier == 2 and ctx.q > 9:
        raise ParameterError("tier 2 search is bounded to q <= 9")
    A, B = model_a.F, model_b.F
    for F in (A, B):
        for (i, j) in F.terms:
            if j and (i or p_power_exp(j, ctx.p) is None):
                raise ParameterError(
                    "oracle needs pure p-power y-monomials in both models"
                )

    y_keys = sorted({j for (_, j) in set(A.terms) | set(B.terms) if j})
    x_all = sorted(
        {i for (i, j) in set(A.terms) | set(B.terms) if j == 0 and i} | set(y_keys)
    )
    a_y = {j: A.coeff(0, j) for j in y_keys}
    b_y = {j: B.coeff(0, j) for j in y_keys}
    a_x = {i: A.coeff(i, 0) for i in x_all}
    b_x = {i: B.coeff(i, 0) for i in x_all}
    a_0, b_0 = A.coeff(0, 0), B.coeff(0, 0)

    # scale factor lam is pinned by the grlex-largest term of B, which for
    # every model here is a pure-X term whose exponent is not a p-power
    ae, je = max(B.terms, key=lambda k: (k[0] + k[1], k[0]))
    if je != 0 or ae == 0 or p_power_exp(ae, ctx.p) is not None:
        raise CheckError("no usable anchor term; oracle not applicable")
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
            # (c*y + c1*x + c2)^(p^k) splits into three monomials, so the
            # c1 and c2 constraints separate once sigma and c are fixed
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
