#!/usr/bin/env python3
"""Isomorphism class census for the parametrized families.

For each (family, p, h) the sweep partitions every admissible b into
isomorphism classes and prints the class sizes.  Family I at p^h = p^2 and
p^3 collapses to a single class; from h = 4 on, several classes of size
2(h - phi-ish) shapes appear.  Family II classes are the F_p^* scaling
orbits, all of size p - 1... printed here to have the actual numbers.
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from hermquot.gfield import make_field
from hermquot.isocls import class_inventory

SWEEP = [
    ("family_I", 2, 3),
    ("family_I", 2, 4),
    ("family_I", 2, 5),
    ("family_I", 3, 3),
    ("family_II", 3, 2),
    ("family_II", 5, 2),
]


def main() -> int:
    for fam, p, h in SWEEP:
        ctx = make_field(p, h)
        t0 = time.perf_counter()
        inv = class_inventory(fam, ctx)
        dt = time.perf_counter() - t0
        agree = ""
        if inv.get("classifier_agreement") is not None:
            agree = "  classifier agrees" if inv["classifier_agreement"] else "  MISMATCH"
        print(f"{fam}(p={p}, h={h}): {inv['count']} parameters, "
              f"{inv['class_count']} classes, sizes {inv['class_sizes']} "
              f"[{dt:.2f}s]{agree}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
