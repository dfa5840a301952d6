#!/usr/bin/env python3
"""Isomorphism class census for the parametrized families.

For each (family, p, h) the sweep partitions every admissible b into
isomorphism classes and prints the class sizes.  Run with
`python scripts/iso_census.py`; it takes well under a second.  The census:

    family  (p, h)  class sizes
    I       (2, 3)  [6]
    I       (2, 4)  [6, 6, 2]
    I       (2, 5)  [6] x 5
    I       (3, 3)  [24]
    II      (3, 2)  [2] x 4
    II      (5, 2)  [4] x 6

Family I is one class at (2, 3) and (3, 3) and splits from h = 4 on, and
the family I partitions agree with the pairwise classifier.  At both p,
each family II class has p - 1 members.
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
