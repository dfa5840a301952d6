#!/usr/bin/env python3
"""Self-test of the benchmark on a tiny slice of each workload.

    python3 perfbench/selftest.py

Runs two light acceptance checks, one count item and two CLI commands, once
untraced and twice traced, and asserts that

* the metric names and units are the ones BENCHMARK.json declares;
* every output matches its reference (no failed operation);
* every deterministic count repeats exactly across the two traced runs;
* the tracer leaves no by-name binding of a traced function unwrapped.

Takes about half a minute.  Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import sys

import run
import tracer

SLICES = {
    "acceptance": ("hermitian_baseline", "family_I_q8"),
    "count_large": (5,),  # II(7,2)
    "cli_cold": (2, 5),  # count --family I, semigroup --gens
}
COUNT_SUFFIXES = (".calls", ".accepted", ".elements", ".fallback_used",
                  "placecount.affine_points")


def _spec():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), spec["workloads"]
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert e2e == dict(run.END_TO_END), "end_to_end differs from run.END_TO_END"
    assert layer == {n: (u, b) for n, u, b in run.PER_LAYER}, \
        "per_layer differs from run.PER_LAYER"
    return e2e, {n: u for n, (u, _) in layer.items()}


def _units(result):
    return {k: v["unit"] for k, v in result["metrics"].items()}


def _clean(result, workload, trace):
    assert result["correct"] and result["failed"] == 0, (workload, trace, result)
    assert result["attempted"] >= 1


def check_bindings():
    """After install() no hermquot module or class still holds an original."""
    sys.path.insert(0, str(run.SRC))
    import hermquot  # noqa: F401

    t = tracer.Tracer().install()
    originals = {id(orig) for _, _, orig in t._undo}
    try:
        for name, mod in list(sys.modules.items()):
            if name != "hermquot" and not name.startswith("hermquot."):
                continue
            spaces = [vars(mod)] + [vars(v) for v in vars(mod).values()
                                    if isinstance(v, type)
                                    and v.__module__.startswith("hermquot")]
            for space in spaces:
                for key, value in space.items():
                    assert id(value) not in originals, f"{name}.{key} left unwrapped"
    finally:
        t.uninstall()


def main() -> int:
    run.check_checkout()
    e2e, layer = _spec()
    check_bindings()
    for workload, only in SLICES.items():
        plain = run.measure(workload, 1, 0, False, only)["result"]
        _clean(plain, workload, 0)
        assert _units(plain) == e2e, (workload, sorted(_units(plain)))
        traced = [run.measure(workload, 1, 0, True, only)["result"] for _ in range(2)]
        for res in traced:
            _clean(res, workload, 1)
            assert _units(res) == layer, (workload, sorted(set(_units(res)) ^ set(layer)))
        first, second = (r["metrics"] for r in traced)
        for name in layer:
            if name.endswith(COUNT_SUFFIXES):
                assert first[name]["value"] == second[name]["value"], \
                    (workload, name, first[name]["value"], second[name]["value"])
        calls = sum(first[n]["value"] for n in layer if n.endswith(".calls"))
        assert calls > 0, f"{workload}: the traced run recorded no calls"
        print(f"{workload}: ok ({plain['attempted']} untraced operations, "
              f"{calls} traced calls)")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
