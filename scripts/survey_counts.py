#!/usr/bin/env python3
"""Survey rational place counts across all families at small parameters.

Prints one row per (family, p, h): the count N, the maximal-curve target
q^2 + 2gq + 1, and the genus the target used.  Families I and II take the
first admissible parameter; family III is counted through its order-2
quotient.  Pass a size cap (ambient field order) as the only argument to
trim the sweep, default 600000.
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from hermquot import models
from hermquot.gfield import make_field
from hermquot.placecount import family_III_place_count, maximality_check

SWEEP = [
    ("hermitian", 2, 1),
    ("hermitian", 3, 1),
    ("hermitian", 2, 2),
    ("hermitian", 5, 1),
    ("hermitian", 2, 3),
    ("center", 2, 2),
    ("center", 3, 1),
    ("noncenter", 3, 1),
    ("noncenter", 5, 1),
    ("I", 2, 2),
    ("I", 2, 3),
    ("I", 2, 4),
    ("I", 3, 3),
    ("II", 3, 2),
    ("II", 5, 2),
    ("III", 2, 2),
    ("III", 2, 3),
]

BUILDERS = {
    "hermitian": lambda ctx, b: models.hermitian_model(ctx),
    "center": lambda ctx, b: models.subcover_center(ctx),
    "noncenter": lambda ctx, b: models.subcover_noncenter(ctx),
    "I": models.family_I_model,
    "II": models.family_II_model,
    "III": models.family_III_model,
}


def main() -> int:
    cap = int(sys.argv[1]) if len(sys.argv) > 1 else 600000
    print(f"{'family':10} {'p':>2} {'h':>2} {'q':>3} {'b':>6} {'N':>7} "
          f"{'target':>7} {'genus':>5}  max  time")
    for fam, p, h in SWEEP:
        if p ** (4 * h) > cap:
            continue
        ctx = make_field(p, h)
        b = None
        if fam in ("I", "II", "III"):
            bs = models.admissible_b(ctx, f"family_{fam}")
            if not bs:
                continue
            b = int(bs[0])
        t0 = time.perf_counter()
        if fam == "III":
            rep = family_III_place_count(ctx, b)
            n, target, g = rep["N"], rep["expected"], rep["genus"]
            maximal = rep["maximal"]
        else:
            rep = maximality_check(BUILDERS[fam](ctx, b))
            n, target, g = rep["N"], rep["expected"], rep["genus_used"]
            maximal = rep["maximal"]
        dt = time.perf_counter() - t0
        print(f"{fam:10} {p:>2} {h:>2} {ctx.q:>3} {b if b is not None else '-':>6} "
              f"{n:>7} {target:>7} {g:>5}  {'yes' if maximal else 'NO ':3} {dt:6.3f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
