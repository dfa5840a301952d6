"""Explicit automorphisms as triangular coordinate maps.

Every map here is (x, y) -> (lam x + a, mu y + f(x)), stored as (lam, a, mu,
f) and composed, applied and inverted in closed form; BiPoly images are built
only for the pseudo-remainder oracle map_preserves, which decides membership
in the automorphism group, and for printing.  Every group table is built the
same way: a linearized system is solved for the candidate translations, and
the oracle confirms them (each one in families I-III, an evenly spaced sample
of the stabilizer's q^3(q+1) maps).  Family I's printed map formulas are only
candidates: when one fails the oracle we re-solve for the correction term by
linear algebra.
"""

import math
import random
from dataclasses import dataclass, field

from .gfield import (
    CheckError,
    FieldCtx,
    LinearizedSolver,
    ParameterError,
    _as_encoding,
    find_omega,
)
from .polyring import BiPoly
from .models import (
    CurveModel,
    family_I_model,
    family_II_model,
    family_III_model,
    fpp_char2,
    hermitian_model,
)

CLOSURE_BOUND = 100_000
ORDER_BOUND = 4096


def _shift(ctx: FieldCtx, f: dict, c: int, d: int) -> dict:
    """The coefficient map of f(c x + d), zeros possibly included."""
    if c == 1 and d == 0:
        return dict(f)
    out = {}
    for e, coef in f.items():
        for k in range(e + 1) if d else (e,):
            b = math.comb(e, k) % ctx.p
            if b:
                t = ctx.mul(coef, ctx.mul(ctx.pow(c, k), ctx.pow(d, e - k)))
                out[k] = ctx.add(out.get(k, 0), ctx.scale(t, b))
    return out


class AffineAlgMap:
    """(x, y) -> (lam x + a, mu y + f(x)) with lam mu != 0, f as {exponent: c}.

    Every map is invertible and fixes the place at infinity.  The
    constructor parses two BiPoly images and rejects any other shape;
    internal builders use AffineAlgMap.triangular."""

    __slots__ = ("ctx", "names", "lam", "a", "mu", "f", "_key")

    def __init__(self, x_image: BiPoly, y_image: BiPoly):
        if x_image.ctx is not y_image.ctx:
            raise ParameterError("map components from different fields")
        if x_image.names != y_image.names:
            raise ParameterError("map components use different variable names")
        xt, yt = dict(x_image.terms), dict(y_image.terms)
        lam, a, mu = xt.pop((1, 0), 0), xt.pop((0, 0), 0), yt.pop((0, 1), 0)
        if xt or any(j for _, j in yt):
            raise ParameterError("map is not of the form (lam x + a, mu y + f(x))")
        f = {i: c for (i, _), c in yt.items()}
        self._fill(x_image.ctx, lam, a, mu, f, x_image.names)

    def _fill(self, ctx, lam, a, mu, f, names):
        if not lam or not mu:
            raise ParameterError("triangular map needs lam * mu != 0")
        self.ctx, self.names = ctx, tuple(names)
        self.lam, self.a, self.mu = lam, a, mu
        self.f = {e: c for e, c in f.items() if c}
        self._key = None

    @classmethod
    def triangular(cls, ctx: FieldCtx, lam: int, a: int, mu: int, f=None,
                   names=("X", "Y")) -> "AffineAlgMap":
        """The map with these parameters, all given as encodings."""
        m = cls.__new__(cls)
        m._fill(ctx, lam, a, mu, f or {}, names)
        return m

    @classmethod
    def identity(cls, ctx: FieldCtx, names=("X", "Y")) -> "AffineAlgMap":
        return cls.triangular(ctx, 1, 0, 1, None, names)

    @property
    def x_image(self) -> BiPoly:
        return BiPoly.make(self.ctx, {(1, 0): self.lam, (0, 0): self.a}, self.names)

    @property
    def y_image(self) -> BiPoly:
        terms = {(e, 0): c for e, c in self.f.items()}
        return BiPoly.make(self.ctx, {**terms, (0, 1): self.mu}, self.names)

    def key(self):
        if self._key is None:
            self._key = (self.lam, self.a, self.mu, tuple(sorted(self.f.items())))
        return self._key

    def __eq__(self, other):
        return isinstance(other, AffineAlgMap) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def compose(self, other: "AffineAlgMap") -> "AffineAlgMap":
        """The map sending P to self(other(P))."""
        ctx = self.ctx
        f = _shift(ctx, self.f, other.lam, other.a)
        for e, c in other.f.items():
            f[e] = ctx.add(f.get(e, 0), ctx.mul(self.mu, c))
        lam = ctx.mul(self.lam, other.lam)
        a = ctx.add(ctx.mul(self.lam, other.a), self.a)
        return AffineAlgMap.triangular(ctx, lam, a, ctx.mul(self.mu, other.mu), f, self.names)

    def is_identity(self) -> bool:
        return self.lam == 1 and self.a == 0 and self.mu == 1 and not self.f

    def apply(self, xn: int, yn: int):
        ctx = self.ctx
        x = _as_encoding(ctx, xn)
        y = ctx.mul(self.mu, _as_encoding(ctx, yn))
        for e, c in self.f.items():
            y = ctx.add(y, ctx.mul(c, ctx.pow(x, e)))
        return (ctx.add(ctx.mul(self.lam, x), self.a), y)

    def order(self, bound: int = ORDER_BOUND) -> int:
        g = self
        n = 1
        while not g.is_identity():
            g = self.compose(g)
            n += 1
            if n > bound:
                raise CheckError("element order exceeds bound %d" % bound)
        return n

    def inverse(self) -> "AffineAlgMap":
        """(lam^-1 (x - a), mu^-1 (y - f(lam^-1 (x - a))))."""
        ctx = self.ctx
        li, mi = ctx.inv(self.lam), ctx.inv(self.mu)
        ai = ctx.neg(ctx.mul(li, self.a))
        f = {e: ctx.neg(ctx.mul(mi, c)) for e, c in _shift(ctx, self.f, li, ai).items()}
        return AffineAlgMap.triangular(ctx, li, ai, mi, f, self.names)

    def to_text(self) -> str:
        nx, ny = self.names
        return "%s -> %s, %s -> %s" % (
            nx, self.x_image.to_text(), ny, self.y_image.to_text()
        )

    def __repr__(self):
        return "AffineAlgMap(%s)" % self.to_text()


def map_preserves(model: CurveModel, m: AffineAlgMap) -> bool:
    """True iff F(m(x,y)) lies in the ideal (F), checked by pseudo-division
    in the second variable, with the degree preserved.

    Precondition, checked: the Y-leading coefficient of F is a nonzero
    constant, so the pseudo-remainder is a true remainder and zero means
    F divides F(m(x,y)).  That F is irreducible, so that (F) is the ideal of
    the curve, is taken from the paper and not checked here."""
    F = model.F
    dy = F.degree(1)
    if [i for i, j in F.terms if j == dy] != [0]:
        raise ParameterError("membership oracle needs a constant Y-leading coefficient")
    comp = F.substitute(m.x_image, m.y_image)
    if comp.total_degree() != F.total_degree():
        return False
    return comp.pseudo_rem(F, k=1).is_zero()


def group_closure(generators, bound: int = CLOSURE_BOUND):
    """Breadth-first closure under composition. Generators must have
    finite order; the result contains the identity."""
    if not generators:
        raise ParameterError("no generators")
    gens = list(generators)
    for g in gens:
        g.order()  # raises if not of finite order within bound
    ident = AffineAlgMap.identity(gens[0].ctx, gens[0].names)
    seen = {ident.key(): ident}
    frontier = [ident]
    while frontier:
        batch = []
        for f in frontier:
            for g in gens:
                h = g.compose(f)
                k = h.key()
                if k not in seen:
                    seen[k] = h
                    batch.append(h)
                    if len(seen) > bound:
                        raise CheckError("closure bound exceeded")
        frontier = batch
    return list(seen.values())


@dataclass
class AutGroupTable:
    """A set of verified automorphisms with its measured structure.

    closed=True means elements is literally the whole group; otherwise the
    table records a deduplicated generator inventory and order is the
    claimed product, with the evidence in details."""

    model: CurveModel
    elements: list
    order: int
    closed: bool = True
    exponent: int | None = None
    center_order: int | None = None
    commutator_order: int | None = None
    generators: list = field(default_factory=list)
    details: dict = field(default_factory=dict)


def _exponent(elements) -> int:
    e = 1
    for g in elements:
        e = math.lcm(e, g.order())
    return e


def _center_order(elements, generators) -> int:
    n = 0
    for g in elements:
        if all(g.compose(t) == t.compose(g) for t in generators):
            n += 1
    return n


def _commutator_closure(elements, bound: int = CLOSURE_BOUND):
    if len(elements) > 256:
        raise CheckError("commutator scan limited to 256 elements")
    inv = {g.key(): g.inverse() for g in elements}
    comms = {}
    for g in elements:
        for h in elements:
            c = g.compose(h).compose(inv[g.key()]).compose(inv[h.key()])
            comms[c.key()] = c
    return group_closure(list(comms.values()), bound)


def _spanning_subset(elements):
    """Greedy generating subset of a group given by its full element list."""
    ident = AffineAlgMap.identity(elements[0].ctx, elements[0].names)
    gens = []
    have = {ident.key()}
    for g in elements:
        if g.key() not in have:
            gens.append(g)
            have = {m.key() for m in group_closure(gens, bound=len(elements) + 1)}
    return gens


# --- the point stabilizer on the Hermitian curve ---


def _stab_condition_coeffs(ctx: FieldCtx, variant: str, a: int):
    # b-condition per model variant, as a linearized equation in b
    w = int(find_omega(ctx))
    aq1 = ctx.pow(a, ctx.q + 1)
    if variant == "plus":
        return [1] + [0] * (ctx.h - 1) + [1], aq1
    if variant == "plus_one":
        return [1] + [0] * (ctx.h - 1) + [1], ctx.neg(aq1)
    if variant == "minus_omega":
        return [ctx.neg(1)] + [0] * (ctx.h - 1) + [1], ctx.neg(ctx.mul(w, aq1))
    raise ParameterError("unknown variant %r" % variant)


def _y_shear(ctx: FieldCtx, variant: str) -> int:
    # coefficient in front of a^q lambda x in the y-image
    return int(find_omega(ctx)) if variant == "minus_omega" else 1


def stabilizer_map(ctx: FieldCtx, a, b, lam, variant="plus", names=("x", "y")) -> AffineAlgMap:
    an, bn, ln = _as_encoding(ctx, a), _as_encoding(ctx, b), _as_encoding(ctx, lam)
    shear = ctx.mul(_y_shear(ctx, variant), ctx.mul(ctx.frob(an, ctx.h), ln))
    return AffineAlgMap.triangular(ctx, ln, an, 1, {1: shear, 0: bn}, names)


def extract_stabilizer_params(ctx: FieldCtx, m: AffineAlgMap, variant="plus"):
    """Read (a, b, lambda) back off a composed map and check its y-image
    is exactly the stabilizer's."""
    lam, a, b = m.lam, m.a, m.f.get(0, 0)
    shear = ctx.mul(_y_shear(ctx, variant), ctx.mul(ctx.frob(a, ctx.h), lam))
    if m.mu != 1 or m.f != {e: c for e, c in ((1, shear), (0, b)) if c}:
        raise CheckError("composition left the stabilizer family")
    coeffs, rhs = _stab_condition_coeffs(ctx, variant, a)
    lhs = ctx.add(
        ctx.mul(coeffs[0], b), ctx.mul(coeffs[-1], ctx.frob(b, ctx.h))
    )
    if lhs != rhs:
        raise CheckError("extracted parameters violate the b-condition")
    return a, b, lam


def pgu_stabilizer(ctx: FieldCtx, variant: str = "plus") -> AutGroupTable:
    """All maps (x,y) -> (lambda x + a, shear a^q lambda x + y + b) fixing
    the point at infinity of the Hermitian model, built by enumeration."""
    q = ctx.q
    if q**3 * (q + 1) > CLOSURE_BOUND:
        raise ParameterError("stabilizer of size q^3(q+1) exceeds the bound")
    model = hermitian_model(ctx, variant)
    names = model.variables

    unipotent = []
    coeffs = _stab_condition_coeffs(ctx, variant, 0)[0]  # the same for every a
    solver = LinearizedSolver(ctx, coeffs, 2 * ctx.h)
    for a in ctx.subfield_encodings(2 * ctx.h):
        for b in solver.solve(_stab_condition_coeffs(ctx, variant, a)[1]):
            unipotent.append(stabilizer_map(ctx, a, b, 1, variant, names))
    if len(unipotent) != q**3:
        raise CheckError("unipotent parameter count %d != q^3" % len(unipotent))

    scalars = [
        stabilizer_map(ctx, 0, 0, lam, variant, names)
        for lam in range(1, ctx.order)
        if ctx.in_subfield(lam, 2 * ctx.h) and ctx.pow(lam, q + 1) == 1
    ]
    if len(scalars) != q + 1:
        raise CheckError("scalar class count %d != q+1" % len(scalars))

    elements = {}
    for s in scalars:
        for u in unipotent:
            m = u.compose(s)
            elements[m.key()] = m
    elements = list(elements.values())
    if len(elements) != q**3 * (q + 1):
        raise CheckError("stabilizer order mismatch")

    for m in elements[:: max(1, len(elements) // 64)]:
        if not map_preserves(model, m):
            raise CheckError("stabilizer map fails curve preservation")

    # a small generating set for the unipotent part, then the center
    gens = _spanning_subset(unipotent)

    central_keys = {
        g.key()
        for g in unipotent
        if all(g.compose(t) == t.compose(g) for t in gens)
    }
    center = len(central_keys)
    profile = {}
    for g in unipotent:
        if g.key() in central_keys:
            continue
        o = g.order()
        profile[o] = profile.get(o, 0) + 1

    # composition stays inside the family and parameters re-extract
    rng = random.Random(17)
    for _ in range(64):
        g, h = rng.choice(elements), rng.choice(elements)
        a, b, lam = extract_stabilizer_params(ctx, g.compose(h), variant)
        rebuilt = stabilizer_map(ctx, a, b, lam, variant, names)
        if rebuilt != g.compose(h):
            raise CheckError("parameter re-extraction mismatch")

    return AutGroupTable(
        model=model,
        elements=elements,
        order=len(elements),
        closed=True,
        exponent=_exponent(unipotent),
        center_order=center,
        generators=gens,
        details={
            "variant": variant,
            "unipotent_order": len(unipotent),
            "scalar_classes": len(scalars),
            "noncentral_order_profile": profile,
        },
    )


def subgroup_types(ctx: FieldCtx) -> dict:
    """The order-p^2 subgroups used to cut out the three families, each
    re-verified by closure on its Hermitian variant."""
    p, q, h = ctx.p, ctx.q, ctx.h
    out = {"notes": []}

    if h >= 2:
        model = hermitian_model(ctx, "minus_omega")
        names = model.variables
        b = next(
            e
            for e in ctx.subfield_encodings(h)
            if not ctx.in_subfield(e, 1)
        )
        g1 = stabilizer_map(ctx, 0, 1, 1, "minus_omega", names)
        g2 = stabilizer_map(ctx, 0, b, 1, "minus_omega", names)
        for g in (g1, g2):
            if not map_preserves(model, g):
                raise CheckError("U generator fails curve preservation")
        elems = group_closure([g1, g2])
        if len(elems) != p * p or _exponent(elems) != p:
            raise CheckError("U is not elementary abelian of order p^2")
        out["U"] = AutGroupTable(
            model=model, elements=elems, order=len(elems), exponent=p,
            generators=[g1, g2], details={"b": b, "central": True},
        )
    else:
        out["notes"].append("no U type at h=1: F_q has no element outside F_p")

    if p > 2:
        model = hermitian_model(ctx, "plus")
        names = model.variables
        half = ctx.inv(2)
        c = next(
            e
            for e in range(1, ctx.order)
            if ctx.in_subfield(e, 2 * h)
            and ctx.add(ctx.frob(e, h), e) == 0
        )
        g1 = stabilizer_map(ctx, 1, half, 1, "plus", names)
        g2 = stabilizer_map(ctx, 0, c, 1, "plus", names)
        elems = group_closure([g1, g2])
        if len(elems) != p * p or _exponent(elems) != p:
            raise CheckError("V is not elementary abelian of order p^2")
        out["V"] = AutGroupTable(
            model=model, elements=elems, order=len(elems), exponent=p,
            generators=[g1, g2], details={"c": c, "central": False},
        )
    else:
        model = hermitian_model(ctx, "plus_one")
        names = model.variables
        c = next(
            e
            for e in range(ctx.order)
            if ctx.in_subfield(e, 2 * h)
            and ctx.add(ctx.add(ctx.frob(e, h), e), 1) == 0
        )
        g = stabilizer_map(ctx, 1, c, 1, "plus_one", names)
        if g.order() != 4:
            raise CheckError("generator is not of order 4")
        sq = g.compose(g)
        if sq != stabilizer_map(ctx, 0, 1, 1, "plus_one", names):
            raise CheckError("square of the order-4 generator is wrong")
        elems = group_closure([g])
        out["cyclic4"] = AutGroupTable(
            model=model, elements=elems, order=len(elems), exponent=4,
            generators=[g], details={"c": c, "cyclic": True},
        )
    return out


# --- family I ---


def _family_I_linear_part(ctx: FieldCtx, b: int):
    # the additive polynomial L(t) = sum (b - b^(p^i)) t^(p^(i-1))
    return [ctx.sub(b, ctx.frob(b, i)) for i in range(1, ctx.h)]


def _printed_family_I_rho_terms(ctx: FieldCtx, b: int, a: int, w: int):
    # candidate xi-coefficients as printed: indices p^2, p, 1
    p = ctx.p
    u = ctx.sub(ctx.frob(b, 1), b)
    up1 = ctx.pow(u, p - 1)
    wp = ctx.frob(w, 1)
    aq = ctx.frob(a, ctx.h)
    c_p2 = ctx.mul(w, ctx.frob(aq, 2))
    c_p = ctx.neg(
        ctx.add(
            ctx.mul(wp, ctx.frob(a, 2)),
            ctx.mul(up1, ctx.mul(wp, ctx.frob(aq, 1))),
        )
    )
    c_1 = ctx.neg(ctx.mul(up1, ctx.mul(w, aq)))
    return {p * p: c_p2, p: c_p, 1: c_1}


def _family_I_correction(ctx: FieldCtx, b: int, a: int, w: int):
    """Solve L(u(xi)) = -omega (a xi^q + a^q xi) for u = sum w_k xi^(p^k)
    with k up to h, coefficient cascade, the overdetermined tail checked.
    Composition of additive polynomials is injective, so the solution is
    unique up to the constant, which is enumerated separately."""
    p, h = ctx.p, ctx.h
    cs = _family_I_linear_part(ctx, b)  # c_1 .. c_(h-1) at exponents p^0..p^(h-2)
    t = {0: ctx.neg(ctx.mul(w, ctx.frob(a, ctx.h))), h: ctx.neg(ctx.mul(w, a))}
    ws = []
    for m in range(h + 1):
        acc = t.get(m, 0)
        for j in range(1, min(m, h - 2) + 1):
            acc = ctx.sub(acc, ctx.mul(cs[j], ctx.frob(ws[m - j], j)))
        ws.append(ctx.div(acc, cs[0]))
    for m in range(h + 1, 2 * h - 1):
        acc = 0
        for j in range(h - 1):
            k = m - j
            if 0 <= k <= h:
                acc = ctx.add(acc, ctx.mul(cs[j], ctx.frob(ws[k], j)))
        if acc != t.get(m, 0):
            raise CheckError("correction cascade is inconsistent")
    return {p**k: wk for k, wk in enumerate(ws) if wk}


def family_I_group(ctx: FieldCtx, b) -> AutGroupTable:
    """The translation-type automorphisms of the family I model, one map
    per solution of the additive system, plus the diagonal complement."""
    model = family_I_model(ctx, b)
    bn = _as_encoding(ctx, b)
    p, q, h = ctx.p, ctx.q, ctx.h
    names = model.variables
    w = int(find_omega(ctx))
    cs = _family_I_linear_part(ctx, bn)
    u = ctx.sub(ctx.frob(bn, 1), bn)
    up1 = ctx.pow(u, p - 1)

    def lval(v):
        vp = ctx.sub(ctx.frob(v, 1), v)
        return ctx.sub(ctx.frob(vp, 1), ctx.mul(up1, vp))

    def build(a, rho_terms, const):
        return AffineAlgMap.triangular(ctx, 1, a, 1, {**rho_terms, 0: const}, names)

    printed_solver = LinearizedSolver(ctx, [ctx.neg(1)] + [0] * (h - 1) + [1], 2 * h)
    correction_solver = LinearizedSolver(ctx, cs, 2 * h)
    V = {}
    fallback_used = 0
    for a in ctx.subfield_encodings(2 * h):
        rhs = ctx.neg(ctx.mul(w, ctx.pow(a, q + 1))) if a else 0
        printed = _printed_family_I_rho_terms(ctx, bn, a, w) if a else {}
        consts = [lval(v) for v in printed_solver.solve(rhs)]
        block = [build(a, printed, K) for K in consts]
        if not all(map_preserves(model, m) for m in block):
            # printed formula is off for this a; re-solve from scratch
            fallback_used += 1
            rho_terms = _family_I_correction(ctx, bn, a, w) if a else {}
            consts = correction_solver.solve(rhs)
            block = [build(a, rho_terms, K) for K in consts]
            for m in block:
                if not map_preserves(model, m):
                    raise CheckError("translation candidate fails curve preservation")
        for m in block:
            V[m.key()] = m
    V = list(V.values())
    if len(V) != q**3 // p**2:
        raise CheckError("|V| = %d, expected q^3/p^2 = %d" % (len(V), q**3 // p**2))

    lam_gen = None
    Lam = []
    target = (q + 1) * (p - 1)
    for lam in range(1, ctx.order):
        if not ctx.in_subfield(lam, 2 * h):
            continue
        mu = ctx.pow(lam, q + 1)
        if mu != 0 and ctx.in_subfield(mu, 1):
            t = AffineAlgMap.triangular(ctx, lam, 0, mu, None, names)
            Lam.append(t)
            if lam_gen is None or t.order() > lam_gen.order():
                lam_gen = t
    if len(Lam) != target:
        raise CheckError("|Lambda| = %d, expected %d" % (len(Lam), target))
    for t in Lam:
        if not map_preserves(model, t):
            raise CheckError("diagonal map fails curve preservation")
    if lam_gen.order() != target:
        raise CheckError("diagonal complement is not cyclic")

    v_keys = {g.key(): g for g in V}
    lam_keys = {g.key() for g in Lam}
    ident_key = AffineAlgMap.identity(ctx, names).key()
    if set(v_keys) & lam_keys != {ident_key}:
        raise CheckError("V and Lambda overlap beyond the identity")

    # V is a subgroup and Lambda normalizes it
    rng = random.Random(5)
    sample = V if len(V) <= 256 else rng.sample(V, 128)
    for g in sample:
        for hmap in rng.sample(V, min(8, len(V))):
            if g.compose(hmap).key() not in v_keys:
                raise CheckError("V is not closed under composition")
    tinv = lam_gen.inverse()
    for g in V:
        if lam_gen.compose(g).compose(tinv).key() not in v_keys:
            raise CheckError("V is not normalized by the complement")

    order = len(V) * len(Lam)
    details = {
        "V_order": len(V),
        "Lambda_order": len(Lam),
        "W_order": order,
        "fallback_used": fallback_used,
        "V_normal": True,
        "V_cap_Lambda_trivial": True,
        "discrepancies": [
            {
                "check": "family_I_normal_subgroup_order",
                "claimed": p ** (h - 2),
                "computed": q**3 // p**2,
                "note": "the claimed order p^(h-2) does not match the "
                "constructed translation group; reporting the computed value",
            }
        ],
    }

    if order <= CLOSURE_BOUND and order <= 2048:
        v_gens = _spanning_subset(V)
        W = group_closure(v_gens + [lam_gen])
        if len(W) != order:
            raise CheckError("closure order %d != |V||Lambda| = %d" % (len(W), order))
        return AutGroupTable(
            model=model, elements=W, order=order, closed=True,
            exponent=_exponent(W), generators=v_gens + [lam_gen], details=details,
        )

    # counted mode: spot-check closure on random products
    for _ in range(64):
        g = rng.choice(V).compose(rng.choice(Lam))
        hmap = rng.choice(V).compose(rng.choice(Lam))
        if not map_preserves(model, g.compose(hmap)):
            raise CheckError("spot closure product fails curve preservation")
    details["mode"] = "counted"
    return AutGroupTable(
        model=model, elements=V + Lam, order=order, closed=False,
        generators=V[:3] + [lam_gen], details=details,
    )


# --- family II ---


def family_II_group(ctx: FieldCtx, b) -> AutGroupTable:
    """The translations (xi, rho) -> (xi + a, rho + nu xi + c), solved from
    their linearized conditions and each confirmed by the membership oracle,
    then the diagonal part."""
    model = family_II_model(ctx, b)
    bn = _as_encoding(ctx, b)
    p, q, h = ctx.p, ctx.q, ctx.h
    if q > 9:
        raise ParameterError("family II group tables are limited to q <= 9")
    names = model.variables

    # F = T(xi)^2 - 2b T(rho) with T additive and nu in F_p, so F(m) - F =
    # 2(T(a) - nu b) T(xi) + T(a)^2 - 2b T(c) has no rho and lower xi-degree
    # than F; it lies in (F) only if it vanishes: T(a) = nu b, T(c) = nu^2 b/2.
    solver = LinearizedSolver(ctx, [1] * h, 2 * h)
    half_b = ctx.div(bn, 2)
    triples = sorted(
        (a, nu, c)
        for nu in range(p)
        for a in solver.solve(ctx.scale(bn, nu))
        for c in solver.solve(ctx.scale(half_b, nu * nu % p))
    )
    psi = [AffineAlgMap.triangular(ctx, 1, a, 1, {1: nu, 0: c}, names)
           for a, nu, c in triples]
    if not all(map_preserves(model, m) for m in psi):
        raise CheckError("solved translation fails curve preservation")
    if len(psi) != q * q // p:
        raise CheckError("|Psi| = %d, expected q^2/p = %d" % (len(psi), q * q // p))

    gamma = {g.key(): g for (a, nu, _), g in zip(triples, psi) if a == nu == 0}
    delta = [g for (_, nu, c), g in zip(triples, psi) if nu == c == 0]
    omega_set = {g.key() for (_, nu, _), g in zip(triples, psi) if nu == 0}
    prod_keys = set()
    for g1 in gamma.values():
        for g2 in delta:
            prod_keys.add(g1.compose(g2).key())
    if prod_keys != omega_set:
        raise CheckError("Gamma Delta does not match the nu = 0 stratum")

    # centralizer profile inside Psi
    profile = {}
    for g in psi:
        n = sum(1 for hmap in psi if g.compose(hmap) == hmap.compose(g))
        profile[n] = profile.get(n, 0) + 1

    comm = _commutator_closure(psi)
    if {g.key() for g in comm} != set(gamma):
        raise CheckError("commutator subgroup differs from Gamma")

    taus = [
        AffineAlgMap.triangular(ctx, lam, 0, ctx.mul(lam, lam), None, names)
        for lam in range(1, p)
    ]
    for t in taus:
        if not map_preserves(model, t):
            raise CheckError("diagonal map fails curve preservation")

    full = group_closure(psi + taus)
    if len(full) != (p - 1) * q * q // p:
        raise CheckError("total order %d != (p-1) q^2/p" % len(full))

    exp_psi = _exponent(psi)
    abelian = profile == {len(psi): len(psi)}
    details = {
        "Psi_order": len(psi),
        "Gamma_order": len(gamma),
        "Delta_order": len(delta),
        "Omega_order": len(omega_set),
        "total_order": len(full),
        "Psi_exponent": exp_psi,
        "Psi_abelian": abelian,
        "commutator_equals_Gamma": True,
        "centralizer_profile": profile,
        "discrepancies": [],
    }
    if not abelian:
        details["discrepancies"].append(
            {
                "check": "family_II_elementary_abelian",
                "claimed": "elementary abelian of order q^2/p",
                "computed": "non-abelian of exponent %d with centralizer "
                "profile %r" % (exp_psi, profile),
                "note": "the abelian claim contradicts the centralizer "
                "orders measured here; reporting the measurement",
            }
        )

    return AutGroupTable(
        model=model, elements=full, order=len(full), closed=True,
        exponent=_exponent(full),
        center_order=_center_order(full, psi + taus),
        commutator_order=len(comm),
        generators=_spanning_subset(psi) + [t for t in taus if not t.is_identity()],
        details=details,
    )


# --- family III ---


def family_III_group(ctx: FieldCtx, b) -> dict:
    """Build the verified translation maps on the smooth plane model, find
    the normalizer of the degree-2 deck map, and measure the quotient."""
    p, q, h = ctx.p, ctx.q, ctx.h
    if p != 2:
        raise ParameterError("only defined in characteristic 2")
    if q > 16:
        raise ParameterError("q > 16 exceeds the enumeration budget")
    model = fpp_char2(ctx)
    bn = _as_encoding(ctx, b)
    if ctx.add(ctx.add(ctx.frob(bn, h), bn), 1) != 0:
        raise ParameterError("b must satisfy b^q + b + 1 = 0")
    names = model.variables

    def build(a, c):
        aq = ctx.frob(a, h)
        f = {2: ctx.mul(aq, aq), 1: aq, 0: ctx.add(ctx.mul(c, c), c)}
        return AffineAlgMap.triangular(ctx, 1, a, 1, f, names)

    solver = LinearizedSolver(ctx, [1] + [0] * (h - 1) + [1], 2 * h)
    big = {}
    a_of = {}
    for a in ctx.subfield_encodings(2 * h):
        rhs = ctx.neg(ctx.pow(a, q + 1)) if a else 0
        for c in solver.solve(rhs):
            m = build(a, c)
            if not map_preserves(model, m):
                raise CheckError("translation candidate fails curve preservation")
            big[m.key()] = m
            a_of[m.key()] = a
    big_list = list(big.values())
    if len(big_list) != q**3 // 2:
        raise CheckError("|Psi| = %d, expected q^3/2" % len(big_list))

    deck = build(1, bn)
    if deck.order() != 2:
        raise CheckError("deck map is not of order 2")
    if (deck.lam, deck.a) != (1, 1):
        raise CheckError("deck map does not shift x by 1")

    norm = [g for g in big_list if g.compose(deck) == deck.compose(g)]
    if len(norm) != q * q:
        raise CheckError("normalizer order %d != q^2" % len(norm))

    # stated membership criterion, checked as a set identity
    crit = {
        k
        for k, a in a_of.items()
        if ctx.in_subfield(a, h) or ctx.add(ctx.frob(a, h), a) == 1
    }
    if crit != {g.key() for g in norm}:
        raise CheckError("normalizer criterion set mismatch")

    # quotient by the deck involution via canonical coset representatives
    def coset_key(g):
        return min(g.key(), deck.compose(g).key())

    reps = {}
    for g in norm:
        reps.setdefault(coset_key(g), g)
    if len(reps) != q * q // 2:
        raise CheckError("quotient order %d != q^2/2" % len(reps))

    ident_coset = coset_key(AffineAlgMap.identity(ctx, names))

    def coset_order(g):
        acc = g
        n = 1
        while coset_key(acc) != ident_coset:
            acc = g.compose(acc)
            n += 1
            if n > 64:
                raise CheckError("coset order runaway")
        return n

    hist = {}
    exponent = 1
    for g in reps.values():
        n = coset_order(g)
        hist[n] = hist.get(n, 0) + 1
        exponent = math.lcm(exponent, n)
    if exponent != 4:
        raise CheckError("quotient exponent %d != 4" % exponent)

    return {
        "model": model,
        "b": bn,
        "psi_order": len(big_list),
        "normalizer_order": len(norm),
        "criterion_matches": True,
        "deck_order": 2,
        "quotient_order": len(reps),
        "quotient_exponent": exponent,
        "quotient_order_histogram": hist,
        "elements": big_list,
        "normalizer": norm,
        "deck": deck,
        "discrepancies": [],
    }
