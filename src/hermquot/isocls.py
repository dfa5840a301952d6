"""Isomorphism decisions over F_{q^2} for the family I and II curves.

Three independent routes to the same answer:
  * a witness solver that searches the scaling pair (c, delta) satisfying
    delta*(bbar - bbar^(p^i)) = c^(p^(i-1))*(b - b^(p^i)) for all i and
    certifies the result by substitution into both models,
  * a classifier that decides by parameter membership: both parameters
    quadratic over F_p, both cubic, or related by a fractional-linear map
    with F_p coefficients,
  * a brute-force oracle over monomial (tier 1) or triangular (tier 2)
    coordinate maps (sigma x, c y + c1 x + c2).  Since every y-exponent is
    a power of p, the image of a model splits into three conditions, one
    on c, one on c1 and one on c2, once sigma pins the scale factor; each
    is decided against the values its coefficient can give, listed once,
    and tier 1 is tier 2 with the shifts c1 and c2 held at 0.
The three must agree; tests and the acceptance gate compare them pairwise.
"""

from __future__ import annotations

from functools import reduce
from itertools import product

from .gfield import CheckError, FieldCtx, ParameterError, _ascending_span
from .models import admissible_b, check_b, family_I_model, family_II_model
from .polyring import BiPoly, p_power_exp

INVENTORY_BOUND = 4096
# full pairwise classifier cross-check only below this many parameters
MATRIX_BOUND = 64


def _norm_preimage(ctx: FieldCtx, d: int) -> int:
    """Some sigma in F_{q^2} with sigma^(q+1) = d; the norm is onto F_q.

    The table keeps the least preimage of each norm, so the ascending scan
    stops once all q values have one.  It reads F_{q^2} lazily, as omega's
    scan does, and lists none of it past that point."""
    tab = ctx._norm
    if tab is None:
        tab = {}
        for s in _ascending_span(ctx, ctx.subfield_basis(2 * ctx.h)):
            tab.setdefault(ctx.pow(s, ctx.q + 1), s)
            if len(tab) == ctx.q:
                break
        ctx._norm = tab
    sig = tab.get(d)
    if sig is None:
        raise CheckError("norm map misses a value of F_q; field tower broken")
    return sig


def _certify_family_I(ctx: FieldCtx, bn: int, be: int, c: int, delta: int, sigma: int):
    ma = family_I_model(ctx, bn)
    mb = family_I_model(ctx, be)
    X, Y = BiPoly.variables(ctx, ma.variables)
    image = ma.F.substitute(X.cmul(sigma), Y.cmul(c))
    if not (image - mb.F.cmul(delta)).is_zero():
        raise CheckError("isomorphism witness fails the substitution check")


def family_I_iso(ctx: FieldCtx, b, bbar) -> dict | None:
    """The witness that the map (x, y) -> (sigma*x, c*y) carries the b-model
    onto delta times the bbar-model, as {"c", "delta", "sigma", "b", "bbar"}
    with b and bbar resolved; None when no pair works.

    Searches c in F_q^* for the full condition set; delta is pinned by the
    i = 1 condition, and sigma by the norm equation sigma^(q+1) = delta."""
    bn = check_b(ctx, "family_I", b)
    be = check_b(ctx, "family_I", bbar)
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
        return {"c": c, "delta": delta, "sigma": sigma, "b": bn, "bbar": be}
    return None


def family_I_classify(ctx: FieldCtx, b, bbar) -> dict:
    """Membership-based decision: quadratic pair, cubic pair, or a
    fractional-linear relation over F_p; anything else is not isomorphic."""
    bn = check_b(ctx, "family_I", b)
    be = check_b(ctx, "family_I", bbar)
    if ctx.frob(bn, 2) == bn and ctx.frob(be, 2) == be:
        return {"iso": True, "case": "both_quadratic"}
    if ctx.frob(bn, 3) == bn and ctx.frob(be, 3) == be:
        return {"iso": True, "case": "both_cubic"}
    # a singular matrix needs no skip: it sends bn into F_p or to a zero
    # denominator, and be lies outside F_p
    p = ctx.p
    for al, bt, ga, de in product(range(p), repeat=4):
        den = ctx.add(ctx.scale(bn, ga), de)
        if den == 0:
            continue
        if ctx.div(ctx.add(ctx.scale(bn, al), bt), den) == be:
            return {"iso": True, "case": "fractional_linear"}
    return {"iso": False, "case": "not_isomorphic"}


def family_II_iso(ctx: FieldCtx, b, bbar) -> int | None:
    """kappa = bbar/b when it lands in F_p^*, certified by substitution."""
    bn = check_b(ctx, "family_II", b)
    be = check_b(ctx, "family_II", bbar)
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
    the kappa ratio test.  family is the tag family_I or family_II.
    """
    if family == "family_I":
        decide = lambda x, y: family_I_iso(ctx, x, y) is not None
    elif family == "family_II":
        decide = lambda x, y: family_II_iso(ctx, x, y) is not None
    else:
        raise ParameterError(f"no isomorphism criterion for {family!r}")
    bs = admissible_b(ctx, family)
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
    """Exhaustive search for a coordinate map (x, y) -> (sigma*x, c*y +
    c1*x + c2) carrying model_a's polynomial A to a nonzero multiple lam*B
    of model_b's: monomial maps (c1 = c2 = 0) at tier 1, triangular ones at
    tier 2, feasible up to q = 9.

    Models must carry their y-dependence in pure p-power monomials, so y^j
    goes to c^j y^j + c1^j x^j + c2^j.  Once the anchor term pins lam for a
    sigma, the map exists iff three conditions hold, each on one coefficient:
    (Y) A_j c^j = lam B_j at each y^j, for some c != 0; (X) A_i sigma^i +
    A'_i c1^i = lam B_i at each x^i, A'_i being A's y^i coefficient or 0,
    for some c1; (C) A_0 + sum_j A_j c2^j = lam B_0, for some c2.  The values
    each coefficient can give are listed once, before the sigma scan; the
    shifts c1 and c2 range over {0} at tier 1 and over F_{q^2} at tier 2.
    """
    ctx = model_a.ctx
    if model_b.ctx is not ctx:
        raise ParameterError("models live over different fields")
    if tier not in (1, 2):
        raise ParameterError("tier must be 1 or 2")
    if tier == 2 and ctx.q > 9:
        raise ParameterError("tier 2 search is bounded to q <= 9")
    A, B = model_a.F, model_b.F
    terms = set(A.terms) | set(B.terms)
    if any(j and (i or p_power_exp(j, ctx.p) is None) for (i, j) in terms):
        raise ParameterError("oracle needs pure p-power y-monomials in both models")

    y_keys = sorted({j for (_, j) in terms if j})
    x_all = sorted({i for (i, j) in terms if j == 0 and i} | set(y_keys))
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

    field = ctx.subfield_encodings(2 * ctx.h)
    units = field[1:]

    def y_terms(c):
        # A_j c^j for each y-exponent j
        return {j: ctx.mul(a_y[j], ctx.pow(c, j)) for j in y_keys}

    y_images = {tuple(y_terms(c).values()) for c in units}
    x_shifts, c_shifts = set(), set()
    for s in field if tier == 2 else [0]:
        t = y_terms(s)
        x_shifts.add(tuple(t.get(i, 0) for i in x_all))
        c_shifts.add(reduce(ctx.add, t.values(), 0))

    anchor = ctx.div(a_x[ae], b_x[ae])
    for sigma in units:
        lam = ctx.mul(anchor, ctx.pow(sigma, ae))
        if (
            tuple(ctx.mul(lam, b_y[j]) for j in y_keys) in y_images
            and tuple(
                ctx.sub(ctx.mul(lam, b_x[i]), ctx.mul(a_x[i], ctx.pow(sigma, i)))
                for i in x_all
            ) in x_shifts
            and ctx.sub(ctx.mul(lam, b_0), a_0) in c_shifts
        ):
            return True
    return False
