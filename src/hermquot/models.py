"""Plane models of the Hermitian curve, its order-p quotients, and the
three families of order-p^2 quotients, together with the two appendix
factorization checks.

Every model is an affine plane equation F(X, Y) = 0 over F_{q^2} wrapped
with its claimed invariants (genus, Weierstrass generators at the place
at infinity).  The claims are inputs here; the counting and semigroup
modules are the ones that re-derive them.  A family is named by its tag
in FAMILY_TAGS and by nothing else; PARAMETRIZED lists the tags that
take a parameter b.  build is the one place that turns a tag into its
model, and default_b the one place that picks a family's b when none is
given.
"""

from __future__ import annotations

from .gfield import (
    DEFAULT_SIZE_BOUND,
    CheckError,
    FieldCtx,
    LinearizedSolver,
    ParameterError,
    _Record,
    _as_encoding,
    _checked_prime_power,
    find_omega,
    make_field,
)
from .polyring import BiPoly

# family tag -> builder of its model; the three families take a parameter
# b.  Each lambda looks its builder up by name when called, so a builder
# wrapped from outside the module is the one build calls.
_BUILDERS = {
    "Hermitian": lambda ctx, b: hermitian_model(ctx),
    "center_p": lambda ctx, b: subcover_center(ctx),
    "noncenter_p": lambda ctx, b: subcover_noncenter(ctx),
    "Fpp_char2": lambda ctx, b: fpp_char2(ctx),
    "family_I": lambda ctx, b: family_I_model(ctx, b),
    "family_II": lambda ctx, b: family_II_model(ctx, b),
    "family_III": lambda ctx, b: family_III_model(ctx, b),
}
FAMILY_TAGS = tuple(_BUILDERS)
PARAMETRIZED = ("family_I", "family_II", "family_III")


class CurveModel(_Record):
    """F(X, Y) = 0 over ctx with its family tag, parameters and claimed
    invariants; claimed_semigroup_gens is a tuple of ints or None."""

    __slots__ = ("F", "ctx", "family", "params", "claimed_genus", "claimed_semigroup_gens")
    _defaults = {"params": dict, "claimed_genus": 0, "claimed_semigroup_gens": None}

    def __init__(self, **fields):
        super().__init__(**fields)
        if self.family not in FAMILY_TAGS:
            raise ParameterError(f"unknown family tag {self.family!r}")
        if self.F.is_zero():
            raise ParameterError("zero model polynomial")

    @property
    def variables(self) -> tuple[str, str]:
        """The names of the two variables, as F writes them."""
        return self.F.names

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "p": self.ctx.p,
            "h": self.ctx.h,
            "b": self.params.get("b"),
            "poly": self.F.to_text(),
            "claimed_genus": self.claimed_genus,
            "claimed_semigroup_gens": (
                list(self.claimed_semigroup_gens)
                if self.claimed_semigroup_gens is not None
                else None
            ),
        }


def build(ctx: FieldCtx, family: str, b=None) -> CurveModel:
    """The model of a family tag.  Families I-III take default_b(ctx,
    family, b); the other tags take no b."""
    if family not in _BUILDERS:
        raise ParameterError(f"unknown family {family!r}")
    return _BUILDERS[family](ctx, default_b(ctx, family, b))


def default_b(ctx: FieldCtx, family: str, b=None) -> int | None:
    """b when given, else the family's first admissible b, so every command
    runs without the caller hunting for encodings by hand.  None for a tag
    that takes no b; ParameterError if such a tag is given a b, or if the
    family has no admissible b at (p, h)."""
    if family in _BUILDERS and family not in PARAMETRIZED:
        if b is not None:
            raise ParameterError(f"{family} takes no parameter b")
        return None
    if b is not None:
        return b
    bs = admissible_b(ctx, family)
    if not bs:
        raise ParameterError(f"no admissible b for {family} at p={ctx.p}, h={ctx.h}")
    return bs[0]


def _trace(V: BiPoly, h: int) -> BiPoly:
    """T(V) = V + V^p + ... + V^(p^(h-1)), the trace polynomial the
    equations share."""
    return sum((V ** V.ctx.p**i for i in range(1, h)), V)


def hermitian_model(ctx: FieldCtx, variant: str = "plus") -> CurveModel:
    """The Hermitian curve in one of its two sign conventions.

    plus:        Y^q + Y - X^(q+1)
    minus_omega: Y^q - Y + omega X^(q+1)

    At p = 2 they are one polynomial, as omega = 1 there.
    """
    q = ctx.q
    X, Y = BiPoly.variables(ctx, ("x", "y"))
    params: dict = {"variant": variant}
    if variant == "plus":
        F = Y**q + Y - X ** (q + 1)
    elif variant == "minus_omega":
        w = find_omega(ctx)
        params["omega"] = w
        F = Y**q - Y + (X ** (q + 1)).cmul(w)
    else:
        raise ParameterError(f"unknown Hermitian variant {variant!r}")
    return CurveModel(
        F=F,
        ctx=ctx,
        family="Hermitian",
        params=params,
        claimed_genus=q * (q - 1) // 2,
        claimed_semigroup_gens=(q, q + 1),
    )


def subcover_center(ctx: FieldCtx) -> CurveModel:
    """Quotient by an order-p subgroup of the center of the Sylow
    p-subgroup: sum_{i=1}^{h} Y^(q/p^i) + omega X^(q+1) = 0.

    Genus q(q-p)/(2p), pinned by point-count calibration.
    """
    q, p = ctx.q, ctx.p
    w = find_omega(ctx)
    X, Y = BiPoly.variables(ctx, ("x", "eta"))
    F = (X ** (q + 1)).cmul(w) + _trace(Y, ctx.h)
    return CurveModel(
        F=F,
        ctx=ctx,
        family="center_p",
        params={"omega": w},
        claimed_genus=q * (q - p) // (2 * p),
        claimed_semigroup_gens=None,
    )


def subcover_noncenter(ctx: FieldCtx) -> CurveModel:
    """Quotient by an order-p subgroup outside the center, p odd:
    Y^q + Y - (sum_{i=1}^{h} X^(q/p^i))^2 = 0.

    Genus q(q-1)/(2p), pinned by point-count calibration.
    """
    if ctx.p == 2:
        raise ParameterError("the non-central order-p quotient needs p > 2")
    q, p = ctx.q, ctx.p
    X, Y = BiPoly.variables(ctx, ("xi", "eta"))
    T = _trace(X, ctx.h)
    F = Y**q + Y - T * T
    return CurveModel(
        F=F,
        ctx=ctx,
        family="noncenter_p",
        params={},
        claimed_genus=q * (q - 1) // (2 * p),
        claimed_semigroup_gens=None,
    )


def fpp_char2(ctx: FieldCtx) -> CurveModel:
    """The characteristic-2 central quotient in the form used by the
    family III construction: X^(q+1) + sum_{i=0}^{h-1} Y^(2^i) = 0.

    Smooth everywhere (dF/dY = 1); genus q(q-2)/4.
    """
    if ctx.p != 2:
        raise ParameterError("this model is specific to p = 2")
    q = ctx.q
    X, Y = BiPoly.variables(ctx, ("x", "eta"))
    F = X ** (q + 1) + _trace(Y, ctx.h)
    return CurveModel(
        F=F,
        ctx=ctx,
        family="Fpp_char2",
        params={},
        claimed_genus=q * (q - 2) // 4,
        claimed_semigroup_gens=None,
    )


def family_I_model(ctx: FieldCtx, b) -> CurveModel:
    """sum_{i=1}^{h-1} (b - b^(p^i)) Y^(p^(i-1)) + omega X^(q+1) = 0
    for b in F_q \\ F_p.

    The quotient of the Hermitian curve by an order-p^2 subgroup inside
    the center of the Sylow p-subgroup.  h = 2 gives genus 0; the model
    is kept and flagged rational instead of rejected.
    """
    q, p, h = ctx.q, ctx.p, ctx.h
    bn = check_b(ctx, "family_I", b)
    w = find_omega(ctx)
    X, Y = BiPoly.variables(ctx, ("xi", "rho"))
    F = (X ** (q + 1)).cmul(w)
    for i in range(1, h):
        ci = ctx.sub(bn, ctx.frob(bn, i))
        F = F + (Y ** (p ** (i - 1))).cmul(ci)
    if ctx.sub(bn, ctx.frob(bn, h - 1)) == 0:
        raise CheckError("leading Y-coefficient b - b^(p^(h-1)) vanished")
    return _family_model(ctx, "family_I", F, {"b": bn, "omega": w})


def family_II_model(ctx: FieldCtx, b) -> CurveModel:
    """(sum_{i=1}^{h} X^(p^(i-1)))^2 - 2b sum_{i=1}^{h} Y^(p^(i-1)) = 0
    for p > 2 and b != 0 with b^q + b = 0.

    The quotient by an order-p^2 subgroup meeting the center of the
    Sylow p-subgroup in order p.
    """
    bn = check_b(ctx, "family_II", b)
    X, Y = BiPoly.variables(ctx, ("xi", "rho"))
    TX = _trace(X, ctx.h)
    F = TX * TX - _trace(Y, ctx.h).cmul(ctx.add(bn, bn))
    return _family_model(ctx, "family_II", F, {"b": bn})


def _family_model(ctx: FieldCtx, family: str, F: BiPoly, params: dict) -> CurveModel:
    """The family's plane model with the genus and the Weierstrass
    generators its rules state; a genus-0 model is flagged rational."""
    g = genus_formula(family, ctx.p, ctx.h)
    if g == 0:
        params["rational"] = True
    return CurveModel(
        F=F,
        ctx=ctx,
        family=family,
        params=params,
        claimed_genus=g,
        claimed_semigroup_gens=semigroup_gens(family, ctx.p, ctx.h),
    )


class CoeffList(_Record):
    """Y-coefficients of the family III model, from the recursion.

    coeffs[i] multiplies Y^(2^i); constant is the Y-free term X^(q+1).
    Construction guarantees every division was exact and the terminal
    coefficient matched (X + c)^q.
    """

    __slots__ = ("ctx", "b", "c", "constant", "coeffs")

    def assemble(self) -> BiPoly:
        """G(X, Y) = X^(q+1) + sum_i coeffs[i] Y^(2^i)."""
        _, Y = BiPoly.variables(self.ctx, self.constant.names)
        G = self.constant
        for i, gi in enumerate(self.coeffs):
            G = G + gi * Y ** (2**i)
        return G


def family_III_coeffs(ctx: FieldCtx, b) -> CoeffList:
    """Recursive Y-coefficients g_0, ..., g_{h-1} with c = b + b^2:

        g_0 = ((X + X^q)^2 + (X + c)^q (X + X^q)) / T
        g_i = (g_{i-1}^2 + (X + c)^(2q) + (X + c)^q (X^q + X)) / T

    where T = X + X^2 + ... + X^(q/2).  Every division must be exact
    and the last coefficient must come out as (X + c)^q; either failure
    means the recursion deviated and is reported as a check error.
    """
    q, h = ctx.q, ctx.h
    bn = check_b(ctx, "family_III", b)
    cn = ctx.add(bn, ctx.mul(bn, bn))
    if ctx.frob(cn, h) != cn:  # c = b + b^2 must land in F_q
        raise CheckError("c = b + b^2 left F_q")
    names = ("x", "kappa")
    X, _ = BiPoly.variables(ctx, names)
    T = _trace(X, h)
    A = X + X**q
    B = (X + BiPoly.const(ctx, cn, names)) ** q
    B2 = B * B
    g = (A * A + B * A).exact_div(T)
    coeffs = [g]
    for _ in range(1, h):
        g = (g * g + B2 + B * A).exact_div(T)
        coeffs.append(g)
    if coeffs[-1] != B:
        raise CheckError("terminal coefficient is not (X + c)^q")
    return CoeffList(
        ctx=ctx,
        b=bn,
        c=cn,
        constant=X ** (q + 1),
        coeffs=tuple(coeffs),
    )


def family_III_model(ctx: FieldCtx, b) -> CurveModel:
    """F = X^(q+1) + sum_{i=0}^{h-1} g_i(X) Y^(2^i), genus q(q-2)/8.

    The plane model may have singular affine points, so place counting
    goes through the quotient path rather than naive enumeration.  No
    Weierstrass generators are on record for this family.
    """
    cl = family_III_coeffs(ctx, b)
    F = cl.assemble()
    if F.degree(1) != ctx.q // 2:
        raise CheckError(f"Y-degree {F.degree(1)} != q/2")
    return _family_model(ctx, "family_III", F, {"b": cl.b, "c": cl.c})


def _family_domain(family: str, p: int, h: int) -> None:
    """ParameterError unless family is a tag in PARAMETRIZED that exists at
    (p, h): family_II needs p > 2, family_III needs p = 2 and h >= 2.
    family_I exists at every (p, h), with no admissible b at h = 1, where
    F_q = F_p."""
    if family not in PARAMETRIZED:
        raise ParameterError(f"unknown family {family!r}")
    if family == "family_II" and p == 2:
        raise ParameterError("family II needs p > 2")
    if family == "family_III" and (p != 2 or h < 2):
        raise ParameterError("family III needs p = 2 and h >= 2")


def check_b(ctx: FieldCtx, family: str, b) -> int:
    """The encoding of b when the family admits it, else ParameterError.

    I: b in F_q \\ F_p.  II: b != 0 with b^q + b = 0.
    III: b^q + b + 1 = 0.  The family must first exist at (p, h): II
    needs p > 2, III needs p = 2 and h >= 2.
    """
    _family_domain(family, ctx.p, ctx.h)
    bn = _as_encoding(ctx, b)
    bq = ctx.frob(bn, ctx.h)
    if family == "family_I":
        ok, rule = bq == bn and not ctx.in_subfield(bn, 1), "b in F_q outside F_p"
    elif family == "family_II":
        ok, rule = bn != 0 and ctx.add(bq, bn) == 0, "b != 0 with b^q + b = 0"
    else:
        ok, rule = ctx.add(ctx.add(bq, bn), 1) == 0, "b^q + b + 1 = 0"
    if not ok:
        raise ParameterError(f"b encoding {bn} fails {rule} ({family})")
    return bn


def admissible_b(ctx: FieldCtx, family: str) -> list[int]:
    """Every b the family accepts, ascending by encoding.

    Listed by enumeration and by solving, the second route to the
    check_b test.  I: F_q minus the prime field.  II: nonzero kernel of
    b^q + b.  III: solutions of b^q + b + 1 = 0.
    """
    _family_domain(family, ctx.p, ctx.h)
    h = ctx.h
    if family == "family_I":
        prime = set(ctx.subfield_encodings(1))
        return [x for x in ctx.subfield_encodings(h) if x not in prime]
    # b + b^q as a linearized map on F_{q^2}
    trace = LinearizedSolver(ctx, [1] + [0] * (h - 1) + [1], 2 * h)
    if family == "family_II":
        return [x for x in trace.solve(0) if x]
    return trace.solve(1)


def genus_formula(family: str, p: int, h: int) -> int:
    """Genus of the stated family at q = p^h.

    I:   q(q/p^2 - 1)/2        (h >= 2)
    II:  (q/p)(q/p - 1)/2      (p > 2)
    III: q(q - 2)/8            (p = 2, h >= 2)

    q must be at most DEFAULT_SIZE_BOUND and p prime, checked in that
    order so that a huge p or h is rejected at once.
    """
    q = _checked_prime_power(p, h, 1, DEFAULT_SIZE_BOUND)
    _family_domain(family, p, h)
    if family == "family_I":
        if h < 2:
            raise ParameterError("family I needs h >= 2")
        return q * (q // p**2 - 1) // 2
    if family == "family_II":
        return (q // p) * (q // p - 1) // 2
    return q * (q - 2) // 8


def semigroup_gens(family: str, p: int, h: int) -> tuple[int, ...] | None:
    """Weierstrass generators at the place at infinity, or None where none
    are stated (h = 1, family III).

    I:  (p^(h-2), q + 1)
    II: (q/p, q/p + q/p^2, q + 1)
    """
    _family_domain(family, p, h)
    if family == "family_III" or h < 2:
        return None
    q = p**h
    if family == "family_I":
        return (p ** (h - 2), q + 1)
    return (q // p, q // p + q // p**2, q + 1)


def _axis_and_line_factors(ctx: FieldCtx, p: int):
    X, Y = BiPoly.variables(ctx)
    axis = []
    for g in range(p):
        axis.append(X - g)
        axis.append(Y - g)
    slant = [X + Y.cmul(be) + ga for be in range(1, p) for ga in range(p)]
    quad = [
        X * Y + X.cmul(al) + Y.cmul(be) + ga
        for al in range(p)
        for be in range(p)
        for ga in range(p)
        if (al * be) % p != ga
    ]
    return axis, slant, quad


def verify_lemma_a(p: int) -> dict:
    """Check the asserted irreducible-factor inventory of

        F = (Y - Y^(p^3))(Y - Y^p)^p (X - X^(p^2))^(p+1)
          - (X - X^(p^3))(X - X^p)^p (Y - Y^(p^2))^(p+1)

    over F_p: the axis lines X - g and Y - g with multiplicity p+1, the
    slanted lines X + bY + g (b != 0) and the hyperbola-type quadratics
    XY + aX + bY + g (ab != g) with multiplicity 1.  The product must
    reproduce F up to a nonzero scalar, with total degree 2p^3+p^2+p.
    """
    if p not in (2, 3, 5):
        raise ParameterError("supported primes are 2, 3, 5")
    ctx = make_field(p, 1)
    X, Y = BiPoly.variables(ctx)
    F = (Y - Y ** p**3) * (Y - Y**p) ** p * (X - X ** p**2) ** (p + 1) - (
        X - X ** p**3
    ) * (X - X**p) ** p * (Y - Y ** p**2) ** (p + 1)
    axis, slant, quad = _axis_and_line_factors(ctx, p)
    prod = BiPoly.const(ctx, 1)
    for f in axis:
        prod = prod * f ** (p + 1)
    for f in slant + quad:
        prod = prod * f
    lead = max(prod.terms)  # any monomial works for the scalar
    fc = F.terms.get(lead, 0)
    if fc == 0:
        raise CheckError("factor product and F have different supports")
    scalar = ctx.div(fc, prod.terms[lead])
    if F != prod.cmul(scalar):
        raise CheckError("factor product does not reproduce F")
    expected = 2 * p**3 + p**2 + p
    if F.total_degree() != expected:
        raise CheckError(f"total degree {F.total_degree()} != {expected}")
    return {
        "p": p,
        "total_degree": expected,
        "n_axis_lines": len(axis),
        "n_slant_lines": len(slant),
        "n_quadratics": len(quad),
        "quadratics": sorted(f.to_text() for f in quad),
        "scalar": scalar,
        "ok": True,
    }


def verify_lemma_b(ctx: FieldCtx, b) -> dict:
    """Check F = G^2 + G T(X) for the family III coefficient recursion,

    F = Y (X+X^q)^2 + (X+c)^(2q) T(Y)^2 + (X+c)^q (X+X^q) T(Y)
        + X^(2(q+1)) + X^(q+1) T(X)

    with T(Z) = Z + Z^2 + ... + Z^(q/2) and c = b + b^2.
    """
    q, h = ctx.q, ctx.h
    cl = family_III_coeffs(ctx, b)
    names = ("x", "kappa")
    X, Y = BiPoly.variables(ctx, names)
    TX, TY = _trace(X, h), _trace(Y, h)
    A = X + X**q
    B = (X + BiPoly.const(ctx, cl.c, names)) ** q
    F = (
        Y * A * A
        + B * B * TY * TY
        + B * A * TY
        + X ** (2 * (q + 1))
        + X ** (q + 1) * TX
    )
    G = cl.assemble()
    if F != G * G + G * TX:
        raise CheckError("F != G^2 + G T(X)")
    return {
        "p": 2,
        "h": h,
        "q": q,
        "b": cl.b,
        "c": cl.c,
        "divisions": h,
        "terminal_ok": True,
        "identity_ok": True,
    }
