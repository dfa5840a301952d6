#!/usr/bin/env python3
"""Capture the reference outputs every benchmark run is compared with.

    python3 perfbench/capture_refs.py

Run from the root of a checkout whose outputs are trusted.  Writes
ref/acceptance.json (each check's ok and details, without seconds),
ref/count_large.json (the N of each count item) and ref/cli_cold.json
(each command's exact stdout and exit code).  Performance work must keep
these byte-identical, so they are captured once and not regenerated by a
change that claims a gain.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def _write(name, data):
    path = run.REF / f"{name}.json"
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(run.ROOT)}")


def main() -> int:
    run.check_checkout(need_refs=False)
    run.REF.mkdir(exist_ok=True)

    res, _ = run.child("acceptance")
    _write("acceptance", {op["id"]: {"ok": op["ok"], "details": op["details"]}
                          for op in res["ops"]})

    res, _ = run.child("count", seed=0)
    items = {}
    for op in res["ops"]:
        if not op["maximal"]:
            raise run.BenchError(f"count item {op['id']} is not maximal")
        family, p, h = workloads.COUNT_ITEMS[op["id"]]
        items[str(op["id"])] = {"item": f"{family}({p},{h})", "N": op["N"]}
    _write("count_large", items)

    cli = {}
    for argv in workloads.CLI_COMMANDS:
        ran = run.spawn([sys.executable, "-m", "hermquot", *argv])
        cli[workloads.cli_key(argv)] = {"exit": ran.code,
                                        "stdout": ran.stdout.decode()}
    _write("cli_cold", cli)
    return 0


if __name__ == "__main__":
    sys.exit(main())
