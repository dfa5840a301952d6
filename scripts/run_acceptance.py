#!/usr/bin/env python3
"""Run the acceptance checks and print one line per check.

Exit status 0 when everything passes, 1 otherwise.  Same engine as
`hermquot verify --all`, but with a human table instead of JSON.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from hermquot import verify


def main() -> int:
    ids = sys.argv[1:] or None
    results = verify.run_all(ids)
    width = max(len(r["id"]) for r in results)
    bad = 0
    for r in results:
        mark = "ok" if r["ok"] else "FAIL"
        print(f"{r['id']:<{width}}  {mark:4}  {r['seconds']:8.3f}s")
        if not r["ok"]:
            bad += 1
            print(f"    {r['details']}")
    print(f"{len(results) - bad}/{len(results)} checks passed")
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
