"""Rational place tallies for the plane models.

Affine points over F_{q^(2k)} are counted fiberwise.  Every model except the
family III plane equation is F_p-linear in Y after the pure-X part moves to
the right-hand side, so each vertical fiber is one linearized system
L(y) = -xpart(x); the remaining case falls back to exhaustive evaluation,
capped at 4096 field elements.  The single place at infinity is added by
convention; every model here has exactly one, rational over F_{q^2}.

Counting needs only the size of each fiber, not its solutions.  A fiber
holds one coset of ker L when its right-hand side lies in Im L, and is
empty otherwise.  The x-values are walked multiplicatively: with gamma a
generator of F_{q^(2k)}^*, x runs through gamma^0, gamma^1, ...
FieldCtx.walk finds the whole pure-X part at each step on the field's log
tables, with no add or mul call, in every characteristic.  It factors out
the lowest term, c_1 x^(e_1), and sums the rest, Q(x) = 1 + sum (c_i/c_1)
x^(e_i - e_1), by Zech reads once per residue class of j mod
(q^(2k) - 1)/D, D = gcd over the e_i - e_1: 1,464 classes for family II at
(11, 2), in place of 7,320 steps.  Each value then sits at one exp index,
which is all the walk yields.

The count never forms those values.  LinearizedSolver.indicator holds
Im L as one byte per exp index, built once from the span's logs, and the
count reads the walk's indices through it: each fiber is one byte read,
and a period's count is one C-level sum of bytes times |ker L|.  The
x = 0 fiber is one more read, at the constant's slot.  The k = 2 walks
above 2^13 elements, which no table covers, keep the value path (as would
a coefficient outside the tables, which no paper model has), with Im L as
a frozenset and one LinearizedSolver.count call per step:
FieldCtx.mul_walk makes one multiply by gamma^i per term per step, sums
the terms by add, and checks that each term's walk closed on its c.

The walk covers one period: with n = q^(2k) - 1, the right-hand side at
x = gamma^j depends only on j mod n/g, g = gcd(n, i_1, ..., i_r) over the
X-exponents, so n/g steps stand for the n nonzero x and each of their
counts is taken g times.  g = q + 1 for the X^(q+1) models (Hermitian,
center_p, family I) and 2 for family II.  iter_fibers keeps the
ascending scan with sorted solutions for the callers that need the points
themselves, and is the reference the tests hold the walk to.

Models whose plane equation is singular at a rational point (family III) are
counted through their smooth degree-2 cover instead: rational places of the
quotient are the deck orbits fixed by the q^2-Frobenius, which splits into
deck-fixed rational points, swapped rational pairs, and conjugate pairs of
F_{q^4}-points where Frobenius acts as the deck map.  The count walk sizes
the cover's rational points.  The fixed and twisted points are both points
Q with Frob_{q^2}(Q) = deck(Q); their x solves the F_p-linear equation
x^(q^2) - lam x = a, so one solve over F_{q^4} lists at most q^2 values of
x, and only the fibers over those are listed.
"""

from __future__ import annotations

from itertools import repeat
from math import gcd
from operator import getitem

from .autgrp import AffineAlgMap, family_III_deck, map_preserves
from .gfield import CheckError, FieldCtx, LinearizedSolver, ParameterError, _Record
from .models import CurveModel, check_b, fpp_char2, genus_formula
from .polyring import additive_split

# q^4 <= 2^24 for k = 2 scans; make_field's cap already keeps the k = 1
# scans at q^2 <= 2^15
K2_BOUND = 1 << 24
EXHAUSTIVE_BOUND = 4096


class PlaceTally(_Record):
    """Affine F_{q^(2k)}-points of a plane model and its places at infinity,
    N their sum.  places_at_infinity is a class constant: every model here
    has one.  singular_rational_points is () where the model was found
    smooth, None where that was not checked."""

    __slots__ = ("k", "affine_points", "N", "singular_rational_points")
    _defaults = {"singular_rational_points": None}
    places_at_infinity = 1


def _scan_degree(ctx: FieldCtx, k: int) -> int:
    if k not in (1, 2):
        raise ParameterError("only k = 1 and k = 2 scans are supported")
    m = 2 * k * ctx.h
    if k == 2 and ctx.p**m > K2_BOUND:
        raise ParameterError(f"field size {ctx.p**m} exceeds the k=2 bound {K2_BOUND}")
    return m


def _fibers(model: CurveModel, m: int, xs):
    """Yield (x, sorted solution encodings in F_{p^m}) for each x in xs."""
    ctx = model.ctx
    prof = additive_split(model.F)
    if prof is not None:
        vec, xpart = prof
        solver = LinearizedSolver(ctx, vec, m)
        for x in xs:
            yield x, solver.solve(ctx.neg(xpart.evaluate(x, 0)))
        return
    if ctx.p**m > EXHAUSTIVE_BOUND:
        raise ParameterError(
            f"fibers are not linearized in Y and the field exceeds "
            f"{EXHAUSTIVE_BOUND} elements"
        )
    F = model.F
    ys = ctx.subfield_encodings(m)
    for x in xs:
        yield x, [y for y in ys if F.evaluate(x, y) == 0]


def iter_fibers(model: CurveModel, k: int):
    """Yield (x, sorted solution encodings) for every x in F_{q^(2k)}."""
    m = _scan_degree(model.ctx, k)
    return _fibers(model, m, model.ctx.subfield_encodings(m))


def _count_points(model: CurveModel, k: int) -> int:
    """Number of affine F_{q^(2k)}-points, without listing any fiber."""
    ctx = model.ctx
    m = _scan_degree(ctx, k)
    prof = additive_split(model.F)
    if prof is None:
        return sum(len(ys) for _, ys in iter_fibers(model, k))
    vec, xpart = prof
    solver = LinearizedSolver(ctx, vec, m)
    terms = {i: c for (i, _), c in xpart.terms.items()}
    # x = gamma^j runs over F_{p^m}^* because gamma has exact order n1,
    # which subfield_generator certifies.  Then the pure-X part depends
    # only on j mod n1/g, g = gcd(n1, e_1, ..., e_k) over its exponents
    # (the constant's 0 adds nothing): one period of n1/g steps, each
    # standing for g values of x.  With no X-term g = n1.
    n1 = ctx.p**m - 1
    g = gcd(n1, *terms)
    # L is F_p-linear, so y -> -y maps the solutions of L(y) = -r onto
    # those of L(y) = r: the count of r stands for the fiber's own -r
    const = terms.get(0, 0)
    image = solver.indicator()
    idx = ctx.walk(terms, m, n1 // g)
    if image is not None and idx is not None:
        # x = 0 reads the constant's slot, then one read per step;
        # operator.getitem is a C call per read, cheaper than a bound __getitem__
        zero = image[next(ctx.walk({0: const}, m, 1))]
        return solver.kernel_size * (zero + g * sum(map(getitem, repeat(image), idx)))
    rhs = ctx.mul_walk(terms, m, n1 // g)
    return solver.count(const) + g * sum(map(solver.count, rhs))  # x = 0, then x = gamma^j


def affine_points(model: CurveModel, k: int = 1) -> PlaceTally:
    """Affine F_{q^(2k)}-point tally of the plane model, singular or not."""
    n = _count_points(model, k)
    return PlaceTally(k=k, affine_points=n, N=n + 1)


def singular_rational_points(model: CurveModel) -> list[tuple[int, int]]:
    """Affine F_{q^2}-points where both partials vanish."""
    F = model.F
    fy = F.partial_deriv(1)
    if not fy.is_zero() and fy.total_degree() == 0:
        # dF/dY is a nonzero constant, no singular point anywhere
        return []
    fx = F.partial_deriv(0)
    bad = []
    for x, ys in iter_fibers(model, 1):
        for y in ys:
            if fx.evaluate(x, y) == 0 and fy.evaluate(x, y) == 0:
                bad.append((x, y))
    return bad


def rational_places(model: CurveModel) -> PlaceTally:
    """F_{q^2}-rational place count, affine points plus the place at infinity.

    Only valid when the affine model is smooth: a singular rational point
    carries an unknown number of places, so those models must go through
    quotient_places_order2 instead.
    """
    sing = singular_rational_points(model)
    if sing:
        raise CheckError(
            f"{model.family}: plane model is singular at {len(sing)} rational "
            f"point(s); count through the order-2 quotient instead"
        )
    n = _count_points(model, 1)
    return PlaceTally(
        k=1,
        affine_points=n,
        N=n + 1,
        singular_rational_points=(),
    )


def maximality_check(model: CurveModel) -> dict:
    """Compare the rational place count against q^2 + 2*g*q + 1.

    Family III models are routed through the quotient count of their smooth
    cover; everything else is counted directly on the plane model.
    """
    if model.family == "family_III":
        n = family_III_place_count(model.ctx, model.params["b"])["N"]
        return maximality_report(model, n, "quotient")
    return maximality_report(model, rational_places(model).N, "direct")


def maximality_report(model: CurveModel, n: int, path: str) -> dict:
    """maximality_check's report for a place count n already taken."""
    q = model.ctx.q
    g = model.claimed_genus
    expected = q * q + 2 * g * q + 1
    return {
        "family": model.family,
        "q": q,
        "N": n,
        "expected": expected,
        "maximal": n == expected,
        "genus_used": g,
        "path": path,
    }


def quotient_places_order2(model: CurveModel, deck: AffineAlgMap) -> dict:
    """Rational place count of the quotient of a smooth model by an involution.

    Places of the quotient rational over F_{q^2} come from three sources on
    the cover: deck-fixed rational points (one place each), deck orbits of
    rational point pairs, and conjugate pairs of F_{q^4}-points Q with
    Frob_{q^2}(Q) = deck(Q), which descend to rational places invisible over
    F_{q^2} upstairs.  The result is f + (A - f)/2 + I/2 + 1.

    A is the count walk's tally of the cover's affine F_{q^2}-points.  For
    the deck (lam x + a, mu y + f(x)), a point Q with Frob_{q^2}(Q) = deck(Q)
    has x^(q^2) - lam x = a and Frob_{q^4}(Q) = deck^2(Q) = Q, so its x is
    one of the at most q^2 solutions in F_{q^4} of that F_p-linear equation,
    and only the fibers over them are listed.  Such a Q is deck-fixed when
    it is rational and twisted otherwise.  F_{q^4} must pass the k = 2 size
    bound, checked before anything else.
    """
    ctx = model.ctx
    m = _scan_degree(ctx, 2)
    if deck.ctx is not ctx:
        raise ParameterError("deck map lives over a different field")
    if not map_preserves(model, deck):
        raise CheckError("deck map does not preserve the model")
    if deck.order(8) != 2:
        raise CheckError("deck map is not an involution")
    if singular_rational_points(model):
        raise CheckError("cover model must be smooth at rational points")

    a_count = _count_points(model, 1)
    s = 2 * ctx.h
    twist = LinearizedSolver(ctx, [ctx.neg(deck.lam)] + [0] * (s - 1) + [1], m)
    fixed = twisted = 0
    for x, ys in _fibers(model, m, twist.solve(deck.a)):
        fx = ctx.frob(x, s)
        for y in ys:
            fy = ctx.frob(y, s)
            if deck.apply(x, y) != (fx, fy):
                continue
            if fx == x and fy == y:
                fixed += 1
            else:
                twisted += 1
    if (a_count - fixed) % 2 or twisted % 2:
        raise CheckError("deck orbit parity broken; counts are inconsistent")
    n = fixed + (a_count - fixed) // 2 + twisted // 2 + 1
    return {
        "affine_cover": a_count,
        "fixed": fixed,
        "twisted": twisted,
        "N": n,
    }


def family_III_place_count(ctx: FieldCtx, b) -> dict:
    """Rational place count of the family III curve via its smooth cover.

    The plane model is singular, but the curve is the quotient of the
    characteristic-2 central quotient model by the involution
    (x, eta) -> (x + 1, eta + x^2 + x + b^2 + b).  The report is
    quotient_places_order2's, with q, b, the genus, the expected and
    closed-form counts and maximality added.
    """
    bn = check_b(ctx, "family_III", b)
    q = ctx.q
    rep = quotient_places_order2(fpp_char2(ctx), family_III_deck(ctx, bn))
    g = genus_formula("family_III", 2, ctx.h)
    expected = q * q + 2 * g * q + 1
    return {
        **rep,
        "q": q,
        "b": bn,
        "genus": g,
        "expected": expected,
        "closed_form": q * q * (q + 2) // 4 + 1,
        "maximal": rep["N"] == expected,
    }
