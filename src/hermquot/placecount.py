"""Rational place tallies for the plane models.

Affine points over F_{q^(2k)} are counted fiberwise.  Every model except the
family III plane equation is F_p-linear in Y after the pure-X part moves to
the right-hand side, so each vertical fiber is one linearized system
L(y) = -xpart(x); the remaining case falls back to exhaustive evaluation,
capped at 4096 field elements.  The single place at infinity is added by
convention; every model here has exactly one, rational over F_{q^2}.

Counting needs only the size of each fiber, which LinearizedSolver.count
gives without listing solutions: a fiber holds one coset of ker L when its
right-hand side lies in Im L, a set enumerated once per walk, and is empty
otherwise.  The x-values are walked multiplicatively: with gamma a
generator of F_{q^(2k)}^*, x runs through gamma^0, gamma^1, ..., and each
pure-X term c X^i is streamed by FieldCtx.walk, which reads c gamma^(i j)
off the field's log tables, one table read per term per step and no
multiply, and the right-hand sides are their running sums.  Where no table
covers F_{q^(2k)} (the k = 2 walks above 2^13 elements) walk keeps one
multiply by gamma^i per step and checks that the walk came back to c.  The
x = 0 fiber is the constant term.  iter_fibers keeps the ascending scan
with sorted solutions for the callers that need the points themselves,
and is the reference the tests hold the walk to.

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

from itertools import repeat, starmap

from .autgrp import AffineAlgMap, family_III_deck, map_preserves
from .gfield import CheckError, FieldCtx, LinearizedSolver, ParameterError, _Record
from .models import CurveModel, check_b, fpp_char2, genus_formula
from .polyring import additive_split

# q^2 <= 2^16 for k = 1 scans, q^4 <= 2^24 for k = 2
K1_BOUND = 1 << 16
K2_BOUND = 1 << 24
EXHAUSTIVE_BOUND = 4096


class PlaceTally(_Record):
    """Affine F_{q^(2k)}-points of a plane model and its places at infinity,
    N their sum.  singular_rational_points is () where the model was found
    smooth, None where that was not checked."""

    __slots__ = ("k", "affine_points", "places_at_infinity", "N", "singular_rational_points")
    _defaults = {"singular_rational_points": None}


def _scan_degree(ctx: FieldCtx, k: int) -> int:
    if k not in (1, 2):
        raise ParameterError("only k = 1 and k = 2 scans are supported")
    m = 2 * k * ctx.h
    size = ctx.p**m
    bound = K1_BOUND if k == 1 else K2_BOUND
    if size > bound:
        raise ParameterError(f"field size {size} exceeds the k={k} bound {bound}")
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
    const = xpart.terms.get((0, 0), 0)
    # one walk per pure-X term c X^i: c x^i as x runs through gamma^j
    walks = [ctx.walk(c, i, m) for (i, _), c in sorted(xpart.terms.items()) if i]
    # with no constant term the first walk starts the sums: no add of 0 + v
    rhs = walks.pop(0) if walks and not const else repeat(const, ctx.p**m - 1)
    for w in walks:
        # strict: a walk that ran to its end makes its closing check
        rhs = starmap(ctx.add, zip(rhs, w, strict=True))
    # L is F_p-linear, so y -> -y maps the solutions of L(y) = -r onto
    # those of L(y) = r: the count of r stands for the fiber's own -r
    return solver.count(const) + sum(map(solver.count, rhs))  # x = 0, then x = gamma^j


def affine_points(model: CurveModel, k: int = 1) -> PlaceTally:
    """Affine F_{q^(2k)}-point tally of the plane model, singular or not."""
    n = _count_points(model, k)
    return PlaceTally(k=k, affine_points=n, places_at_infinity=1, N=n + 1)


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
        places_at_infinity=1,
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
    (x, eta) -> (x + 1, eta + x^2 + x + b^2 + b).
    """
    bn = check_b(ctx, "family_III", b)
    q, h = ctx.q, ctx.h
    cover = fpp_char2(ctx)
    rep = quotient_places_order2(cover, family_III_deck(ctx, bn))
    g = genus_formula("family_III", 2, h)
    expected = q * q + 2 * g * q + 1
    return {
        "q": q,
        "b": bn,
        "N": rep["N"],
        "affine_cover": rep["affine_cover"],
        "fixed": rep["fixed"],
        "twisted": rep["twisted"],
        "genus": g,
        "expected": expected,
        "closed_form": q * q * (q + 2) // 4 + 1,
        "maximal": rep["N"] == expected,
    }
