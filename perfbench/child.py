"""One pass of a workload in a fresh interpreter.

    python perfbench/child.py <task> --out RESULT.json [--seed N] [--trace]
                              [--only a,b] [--argv JSON]

Tasks: ``acceptance`` (verify.run_all, one check at a time), ``count``
(maximality_check on the count_large items), ``cli`` (one CLI command
in-process, for tracing only) and ``micro`` (microbenchmarks).  The driver
starts this with PYTHONPATH pointing at the checkout's ``src``.  Fields are
built before the timed pass, and the tracer, when asked for, is installed
after them, so the pass alone is measured.  The result goes to --out as one
JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import sys
import time

import workloads
from tracer import Tracer


def _plain(obj):
    """Details as the JSON report would carry them (int keys become str)."""
    return json.loads(json.dumps(obj, sort_keys=True))


def _make_fields(fields):
    from hermquot import gfield

    for p, h in fields:
        gfield.make_field(p, h)


def acceptance(args, tracer):
    from hermquot import verify

    _make_fields(workloads.ACCEPTANCE_FIELDS)
    only = set(args.only.split(",")) if args.only else None
    if tracer:
        tracer.install()
    ops = []
    t_run = time.perf_counter()
    for cid, _ in verify.CHECKS:
        if only is not None and cid not in only:
            continue
        t0 = time.perf_counter()
        res = verify.run_all([cid])[0]
        dt = time.perf_counter() - t0
        ops.append({"id": cid, "ok": res["ok"], "details": _plain(res["details"]),
                    "seconds": dt})
    return {"ops": ops, "run_s": time.perf_counter() - t_run}


def _count_model(family, ctx, b):
    from hermquot import models

    if family == "hermitian":
        return models.hermitian_model(ctx)
    if family == "center":
        return models.subcover_center(ctx)
    if family == "I":
        return models.family_I_model(ctx, b)
    return models.family_II_model(ctx, b)


def count(args, tracer):
    from hermquot import gfield, models, placecount

    _make_fields(workloads.count_fields())
    picks = []
    for idx, (family, p, h) in enumerate(workloads.COUNT_ITEMS):
        if args.only and str(idx) not in args.only.split(","):
            continue
        ctx = gfield.make_field(p, h)
        b = None
        if family in ("I", "II"):
            bs = models.admissible_b(ctx, "family_" + family)
            b = int(random.Random(f"{args.seed}:count:{idx}").choice(bs))
        picks.append((idx, family, ctx, b))
    if tracer:
        tracer.install()
    ops = []
    t_run = time.perf_counter()
    for idx, family, ctx, b in picks:
        t0 = time.perf_counter()
        rep = placecount.maximality_check(_count_model(family, ctx, b))
        dt = time.perf_counter() - t0
        ops.append({"id": idx, "p": ctx.p, "b": b, "N": rep["N"],
                    "maximal": rep["maximal"], "seconds": dt})
    return {"ops": ops, "run_s": time.perf_counter() - t_run}


def cli(args, tracer):
    import hermquot.cli

    argv = json.loads(args.argv)
    if tracer:
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = hermquot.cli.main(argv)
    return {"stdout": out.getvalue(), "exit": rc}


def microbench(args, tracer):
    import micro

    return {"metrics": micro.run(args.seed)}


TASKS = {"acceptance": acceptance, "count": count, "cli": cli, "micro": microbench}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("task", choices=sorted(TASKS))
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--only", default="")
    ap.add_argument("--argv", default="[]")
    args = ap.parse_args()
    tracer = Tracer() if args.trace else None
    result = TASKS[args.task](args, tracer)
    if tracer:
        tracer.uninstall()
        result["trace"] = tracer.snapshot()
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
