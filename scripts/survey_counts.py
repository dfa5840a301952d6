#!/usr/bin/env python3
"""Survey rational place counts across all families at small parameters.

Prints one row per (family, p, h): the count N, the maximal-curve target
q^2 + 2gq + 1, and the genus the target used.  Families I-III take
models.default_b, their first admissible b; maximality_check counts
family III through its order-2 quotient.  Pass a size cap (ambient field order) as the only
argument to trim the sweep, default 600000.
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from hermquot import models
from hermquot.cli import FAMILIES
from hermquot.gfield import make_field
from hermquot.placecount import maximality_check

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

def main() -> int:
    cap = int(sys.argv[1]) if len(sys.argv) > 1 else 600000
    print(f"{'family':10} {'p':>2} {'h':>2} {'q':>3} {'b':>6} {'N':>7} "
          f"{'target':>7} {'genus':>5}  max  time")
    for fam, p, h in SWEEP:
        if p ** (4 * h) > cap:
            continue
        ctx = make_field(p, h)
        t0 = time.perf_counter()
        model = models.build(ctx, FAMILIES[fam])
        rep = maximality_check(model)
        dt = time.perf_counter() - t0
        b = model.params.get("b")
        print(f"{fam:10} {p:>2} {h:>2} {ctx.q:>3} {b if b is not None else '-':>6} "
              f"{rep['N']:>7} {rep['expected']:>7} {rep['genus_used']:>5}  "
              f"{'yes' if rep['maximal'] else 'NO ':3} {dt:6.3f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
