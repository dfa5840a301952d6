"""Microbenchmarks for single layers, with operands drawn from the seed.

They run in their own process during a traced run only, so they never
touch the end-to-end numbers.  Each figure is the median over REPS timed
loops of the cost of one operation.
"""

from __future__ import annotations

import random
import statistics
import time

REPS = 5

# acceptance fields first, then the two count_large fields above 2^20
GFIELD_FIELDS = [(2, 3), (3, 2), (5, 2), (3, 3), (2, 7), (5, 3)]
GFIELD_OPS = ("mul", "add", "inv", "frob")
N_OPS = 600
N_INV = 20
N_CANDIDATES = 40


def gfield_names():
    return [f"gfield.bench.{op}_ns.p{p}h{h}"
            for p, h in GFIELD_FIELDS for op in GFIELD_OPS]


def _per_op(loop, n: int) -> float:
    """Median seconds per operation over REPS runs of loop()."""
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / n


def _gfield(seed: int, out: dict):
    from hermquot import gfield

    for p, h in GFIELD_FIELDS:
        ctx = gfield.make_field(p, h)
        rng = random.Random(f"{seed}:gfield:{p}:{h}")
        xs = [rng.randrange(1, ctx.order) for _ in range(N_OPS)]
        ys = [rng.randrange(1, ctx.order) for _ in range(N_OPS)]
        pairs = list(zip(xs, ys))
        mul, add, inv, frob = ctx.mul, ctx.add, ctx.inv, ctx.frob
        k = ctx.h
        frob(xs[0], k)  # build the Frobenius rows outside the timed loop

        def loop_mul():
            for a, b in pairs:
                mul(a, b)

        def loop_add():
            for a, b in pairs:
                add(a, b)

        def loop_inv():
            for a in xs[:N_INV]:
                inv(a)

        def loop_frob():
            for a in xs:
                frob(a, k)

        tag = f"p{p}h{h}"
        out[f"gfield.bench.mul_ns.{tag}"] = _per_op(loop_mul, N_OPS) * 1e9
        out[f"gfield.bench.add_ns.{tag}"] = _per_op(loop_add, N_OPS) * 1e9
        out[f"gfield.bench.inv_ns.{tag}"] = _per_op(loop_inv, N_INV) * 1e9
        out[f"gfield.bench.frob_ns.{tag}"] = _per_op(loop_frob, N_OPS) * 1e9


def _family_II_candidates(seed: int, n: int):
    """The family II model at (3, 2) and n box candidates
    (x, y) -> (x + a, y + nu x + c), as family_II_group scans them."""
    from hermquot import autgrp, gfield, models
    from hermquot.polyring import BiPoly

    ctx = gfield.make_field(3, 2)
    model = models.family_II_model(ctx, models.admissible_b(ctx, "family_II")[0])
    names = model.variables
    X, Y = BiPoly.variables(ctx, names)
    box = list(ctx.subfield_encodings(2 * ctx.h))
    rng = random.Random(f"{seed}:family_II")
    maps = []
    for _ in range(n):
        a, c, nu = rng.choice(box), rng.choice(box), rng.randrange(ctx.p)
        shear = X.cmul(nu) if nu else BiPoly.zero(ctx, names)
        maps.append(autgrp.AffineAlgMap(
            X + BiPoly.const(ctx, a, names),
            Y + shear + BiPoly.const(ctx, c, names)))
    points = [(rng.choice(box), rng.choice(box)) for _ in range(n)]
    return model, maps, points


def _poly_and_maps(seed: int, out: dict):
    from hermquot import autgrp

    model, maps, points = _family_II_candidates(seed, N_CANDIDATES)
    F = model.F
    composites = [F.substitute(m.x_image, m.y_image) for m in maps]
    pairs = list(zip(maps, maps[1:] + maps[:1]))

    def loop_substitute():
        for m in maps:
            F.substitute(m.x_image, m.y_image)

    def loop_pseudo_rem():
        for comp in composites:
            comp.pseudo_rem(F, k=1)

    def loop_evaluate():
        for x, y in points:
            F.evaluate(x, y)

    def loop_preserves():
        for m in maps:
            autgrp.map_preserves(model, m)

    def loop_compose():
        for f, g in pairs:
            f.compose(g)

    n = N_CANDIDATES
    out["polyring.bench.substitute_us"] = _per_op(loop_substitute, n) * 1e6
    out["polyring.bench.pseudo_rem_us"] = _per_op(loop_pseudo_rem, n) * 1e6
    out["polyring.bench.evaluate_us"] = _per_op(loop_evaluate, n) * 1e6
    out["autgrp.bench.map_preserves_us"] = _per_op(loop_preserves, n) * 1e6
    out["autgrp.bench.compose_us"] = _per_op(loop_compose, n) * 1e6


def run(seed: int) -> dict:
    out: dict = {}
    _gfield(seed, out)
    _poly_and_maps(seed, out)
    return out
