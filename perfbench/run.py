#!/usr/bin/env python3
"""hermquot benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see README.md in this
directory for the reasons and the layer map):

* ``acceptance``: verify.run_all() over the ten checks;
* ``count_large``: maximality_check on eight models whose ambient order is
  above 2^20;
* ``cli_cold``: the README quick-start commands, each its own
  ``python -m hermquot`` process, one client in a closed loop.

Every pass runs in a fresh interpreter, because make_field's lru_cache,
verify's group cache and the lazy FieldCtx caches would otherwise make a
second pass time cached work.  Passes repeat until --seconds have gone by
(at least one).  Each output is compared with the reference captured in
ref/; a mismatch counts as a failed operation.  The last stdout line is one
JSON object: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1 (a traced pass plus an untraced one, and microbenchmarks).
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import random
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import micro  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
REF = HERE / "ref"
WORK = HERE / ".work"
CHILD_TIMEOUT = 170.0
SETUP_PROBES = 7
INTERP_PROBES = 7

WORKLOADS = ("acceptance", "count_large", "cli_cold")

END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("run_s", "s"),
]


def _layer_spec():
    spec = []

    def add(name, unit, better="lower"):
        spec.append((name, unit, better))

    for fn in ("mul", "add", "pow", "frob", "solver_build", "solve"):
        add(f"gfield.{fn}.calls", "count")
        add(f"gfield.{fn}.self_s", "s")
    for name in micro.gfield_names():
        add(name, "ns")
    for fn in ("substitute", "pseudo_rem"):
        add(f"polyring.{fn}.calls", "count")
        add(f"polyring.{fn}.total_s", "s")
        add(f"polyring.{fn}.self_s", "s")
    for fn in ("mul", "add", "pow"):
        add(f"polyring.{fn}.calls", "count")
        add(f"polyring.{fn}.self_s", "s")
    add("polyring.evaluate.calls", "count")
    add("polyring.evaluate.total_s", "s")
    add("polyring.evaluate.self_s", "s")
    for name in ("substitute", "pseudo_rem", "evaluate"):
        add(f"polyring.bench.{name}_us", "us")
    add("autgrp.map_preserves.calls", "count")
    add("autgrp.map_preserves.accepted", "count", "higher")
    add("autgrp.map_preserves.accept_ratio", "ratio", "higher")
    add("autgrp.map_preserves.total_s", "s")
    for fn in ("compose", "apply", "order"):
        add(f"autgrp.{fn}.calls", "count")
        add(f"autgrp.{fn}.total_s", "s")
    add("autgrp.group_closure.calls", "count")
    add("autgrp.group_closure.elements", "count")
    add("autgrp.group_closure.total_s", "s")
    add("autgrp.family_II_group.total_s", "s")
    add("autgrp.family_I_group.fallback_used", "count")
    add("autgrp.bench.map_preserves_us", "us")
    add("autgrp.bench.compose_us", "us")
    for fn in ("maximality_check", "family_III_place_count"):
        add(f"placecount.{fn}.calls", "count")
        add(f"placecount.{fn}.total_s", "s")
    add("placecount.affine_points", "count")
    for fn in ("oracle_iso", "family_I_iso"):
        add(f"isocls.{fn}.calls", "count")
        add(f"isocls.{fn}.total_s", "s")
    add("isocls.class_inventory.total_s", "s")
    add("models.build.calls", "count")
    add("models.build.total_s", "s")
    add("models.admissible_b.total_s", "s")
    add("numsg.summary.total_s", "s")
    add("cli.p50_s", "s")
    add("cli.p90_s", "s")
    add("cli.interp_s", "s")
    add("cli.startup_s", "s")
    add("cli.dispatch_s", "s")
    for cid in workloads.HEAVY_CHECKS:
        add(f"check.{cid}_s", "s")
    add("count.char2_s", "s")
    add("count.odd_s", "s")
    add("trace.overhead_s", "s")
    add("fail_frac", "ratio")
    return spec


PER_LAYER = _layer_spec()


class BenchError(RuntimeError):
    """A child failed outright; the run ends without a result line."""


@dataclass
class Ran:
    code: int
    wall: float
    rss_mb: float
    stdout: bytes
    stderr: str


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv, timeout=CHILD_TIMEOUT) -> Ran:
    """Run one process to completion; wall time and peak RSS from wait4."""
    WORK.mkdir(exist_ok=True)
    out_path, err_path = WORK / "stdout", WORK / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except ChildProcessError:
            proc.wait()
            raise BenchError(f"{argv[1:3]} was killed after {timeout:.0f} s")
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Ran(proc.returncode, wall, usage.ru_maxrss / 1024.0,
               out_path.read_bytes(), err_path.read_text(errors="replace"))


def child(task, seed=0, trace=False, only=(), argv=None):
    """Run perfbench/child.py in a fresh interpreter; (result, Ran)."""
    out = WORK / f"{task}.json"
    if out.exists():
        out.unlink()
    cmd = [sys.executable, str(HERE / "child.py"), task, "--out", str(out),
           "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if only:
        cmd += ["--only", ",".join(map(str, only))]
    if argv is not None:
        cmd += ["--argv", json.dumps(argv)]
    ran = spawn(cmd)
    if ran.code != 0 or not out.exists():
        raise BenchError(f"child {task} exited {ran.code}:\n{ran.stderr[-2000:]}")
    return json.loads(out.read_text()), ran


def median_wall(argv, n) -> float:
    walls = []
    for _ in range(n):
        ran = spawn(argv)
        if ran.code != 0:
            raise BenchError(f"probe {argv[1:]} exited {ran.code}:\n{ran.stderr[-2000:]}")
        walls.append(ran.wall)
    return statistics.median(walls)


def setup_seconds(fields) -> float:
    """Fresh interpreter, `import hermquot`, make_field for every field."""
    code = ("import hermquot\n"
            f"for p, h in {list(fields)!r}:\n"
            "    hermquot.make_field(p, h)\n")
    return median_wall([sys.executable, "-c", code], SETUP_PROBES)


def interp_seconds() -> float:
    return median_wall([sys.executable, "-c", "pass"], INTERP_PROBES)


def nearest_rank(values, q: float) -> float:
    s = sorted(values)
    return s[max(1, math.ceil(q * len(s))) - 1]


def load_ref(name):
    return json.loads((REF / f"{name}.json").read_text())


class Tally:
    """Operations attempted and failed, with a note per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


def repeat(seconds, one_pass):
    """Run fresh passes until `seconds` have gone by; at least one."""
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(one_pass(len(passes)))
        if time.perf_counter() - t0 >= seconds:
            return passes


# --- workloads --------------------------------------------------------------


def acceptance(seed, seconds, trace, tally, only=()):
    ref = load_ref("acceptance")

    def one_pass(_):
        res, ran = child("acceptance", seed, only=only)
        for op in res["ops"]:
            want = ref[op["id"]]
            tally.check(op["ok"] == want["ok"] and op["details"] == want["details"],
                        f"check {op['id']} differs from the reference")
        return res, ran

    passes = repeat(seconds, one_pass)
    out = {
        "run_s": statistics.median(res["run_s"] for res, _ in passes),
        "peak_rss_mb": max(ran.rss_mb for _, ran in passes),
        "lines": [f"acceptance pass {i}: {res['run_s']:.3f} s; " + ", ".join(
            f"{op['id']} {op['seconds']:.3f}" for op in res["ops"])
            for i, (res, _) in enumerate(passes)],
    }
    if trace:
        traced, _ = child("acceptance", seed, trace=True, only=only)
        first = passes[0][0]["ops"]
        for op, plain in zip(traced["ops"], first):
            tally.check(op["id"] == plain["id"] and op["ok"] == plain["ok"]
                        and op["details"] == plain["details"],
                        f"traced check {op['id']} differs from the untraced one")
        layer = {}
        for cid in workloads.HEAVY_CHECKS:
            times = [op["seconds"] for res, _ in passes for op in res["ops"]
                     if op["id"] == cid]
            layer[f"check.{cid}_s"] = statistics.median(times) if times else 0.0
        layer["trace.overhead_s"] = traced["run_s"] - out["run_s"]
        out["trace"] = traced["trace"]
        out["layer"] = layer
    return out


def count_large(seed, seconds, trace, tally, only=()):
    ref = load_ref("count_large")

    def one_pass(_):
        res, ran = child("count", seed, only=only)
        for op in res["ops"]:
            want = ref[str(op["id"])]
            tally.check(op["N"] == want["N"] and op["maximal"] is True,
                        f"count item {op['id']} (b={op['b']}): N={op['N']}, "
                        f"want {want['N']}")
        return res, ran

    passes = repeat(seconds, one_pass)

    def part(char2: bool) -> float:
        return statistics.median(
            sum(op["seconds"] for op in res["ops"] if (op["p"] == 2) == char2)
            for res, _ in passes)

    out = {
        "run_s": statistics.median(res["run_s"] for res, _ in passes),
        "peak_rss_mb": max(ran.rss_mb for _, ran in passes),
        "lines": [f"count_large pass {i}: {res['run_s']:.3f} s; " + ", ".join(
            f"#{op['id']} {op['seconds']:.3f}" for op in res["ops"])
            for i, (res, _) in enumerate(passes)],
    }
    if trace:
        traced, _ = child("count", seed, trace=True, only=only)
        for op in traced["ops"]:
            want = ref[str(op["id"])]
            tally.check(op["N"] == want["N"] and op["maximal"] is True,
                        f"traced count item {op['id']}: N={op['N']}")
        out["trace"] = traced["trace"]
        out["layer"] = {
            "count.char2_s": part(True),
            "count.odd_s": part(False),
            "trace.overhead_s": traced["run_s"] - out["run_s"],
        }
    return out


_DISPATCH_LINE = re.compile(r"^# \S+: ([0-9.]+)s$", re.M)


def cli_cold(seed, seconds, trace, tally, only=()):
    ref = load_ref("cli_cold")
    commands = [workloads.CLI_COMMANDS[i] for i in only] if only \
        else workloads.CLI_COMMANDS
    walls, startups, dispatches = [], [], []
    peak = 0.0

    def one_pass(index):
        nonlocal peak
        order = list(commands)
        random.Random(f"{seed}:session:{index}").shuffle(order)
        t0 = time.perf_counter()
        for argv in order:
            ran = spawn([sys.executable, "-m", "hermquot", *argv])
            want = ref[workloads.cli_key(argv)]
            tally.check(ran.code == want["exit"]
                        and ran.stdout == want["stdout"].encode(),
                        f"`hermquot {workloads.cli_key(argv)}` output or exit "
                        f"code differs (exit {ran.code})")
            walls.append(ran.wall)
            peak = max(peak, ran.rss_mb)
            m = _DISPATCH_LINE.search(ran.stderr)
            if m:
                dispatches.append(float(m.group(1)))
                startups.append(ran.wall - float(m.group(1)))
        return time.perf_counter() - t0

    sessions = repeat(seconds, one_pass)
    out = {
        "run_s": statistics.median(sessions),
        "peak_rss_mb": peak,
        "lines": [f"cli_cold: {len(sessions)} sessions of {len(commands)} "
                  f"commands, median session {statistics.median(sessions):.3f} s",
                  f"command latency over {len(walls)} commands: p50 "
                  f"{nearest_rank(walls, 0.5):.4f} s, p90 {nearest_rank(walls, 0.9):.4f} s"],
    }
    if trace:
        snaps, traced_wall = [], 0.0
        for argv in commands:
            res, ran = child("cli", seed, trace=True, argv=argv)
            want = ref[workloads.cli_key(argv)]
            tally.check(res["exit"] == want["exit"] and res["stdout"] == want["stdout"],
                        f"traced `hermquot {workloads.cli_key(argv)}` differs")
            snaps.append(res["trace"])
            traced_wall += ran.wall
        out["trace"] = tracer.merge(snaps)
        out["layer"] = {
            "cli.p50_s": nearest_rank(walls, 0.5),
            "cli.p90_s": nearest_rank(walls, 0.9),
            "cli.startup_s": statistics.fmean(startups),
            "cli.dispatch_s": statistics.fmean(dispatches),
            "trace.overhead_s": traced_wall - out["run_s"],
        }
    return out


RUNNERS = {"acceptance": acceptance, "count_large": count_large, "cli_cold": cli_cold}


def layer_metrics(trace, bench, extra) -> dict:
    stats, counts = trace["stats"], trace["counts"]
    calls = stats.get("autgrp.map_preserves", [0])[0]
    extra = dict(extra)
    extra["autgrp.map_preserves.accept_ratio"] = (
        counts["autgrp.map_preserves.accepted"] / calls if calls else 0.0)
    field = {"calls": 0, "total_s": 1, "self_s": 2}
    values = {}
    for name, _, _ in PER_LAYER:
        if name in extra:
            values[name] = extra[name]
        elif name in bench:
            values[name] = bench[name]
        elif name in counts:
            values[name] = counts[name]
        elif name.startswith(("check.", "count.", "cli.")):
            values[name] = 0.0  # the layer this names is not on this workload
        else:
            prefix, _, kind = name.rpartition(".")
            values[name] = stats.get(prefix, [0, 0.0, 0.0])[field[kind]]
    return values


def measure(workload, seed, seconds, trace, only=()) -> dict:
    """One benchmark run; the dict printed as the last stdout line, plus
    the human-readable `lines` printed before it."""
    tally = Tally()
    setup = None if trace else setup_seconds(workloads.FIELDS[workload])
    out = RUNNERS[workload](seed, seconds, trace, tally, only)
    lines = list(out["lines"])
    if trace:
        bench, _ = child("micro", seed)
        extra = dict(out["layer"])
        extra["cli.interp_s"] = interp_seconds()
        extra["fail_frac"] = tally.failed / tally.attempted
        values = layer_metrics(out["trace"], bench["metrics"], extra)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        values = {
            "setup_s": setup,
            "peak_rss_mb": out["peak_rss_mb"],
            "run_s": out["run_s"],
        }
        units = dict(END_TO_END)
    lines += [f"FAILED: {note}" for note in tally.notes]
    return {
        "lines": lines,
        "result": {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        },
    }


def check_checkout(need_refs=True):
    wanted = [SRC / "hermquot" / "__init__.py"]
    if need_refs:
        wanted += [REF / f"{name}.json" for name in ("acceptance", "count_large",
                                                      "cli_cold")]
    missing = [p for p in wanted if not p.is_file()]
    if missing:
        raise BenchError("not a hermquot checkout, missing: "
                         + ", ".join(str(p.relative_to(ROOT)) for p in missing))
    # build step: byte-compile once so no pass pays for it
    if not compileall.compile_dir(str(SRC / "hermquot"), quiet=1):
        raise BenchError("src/hermquot does not compile")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="hermquot benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        check_checkout()
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    for line in report["lines"]:
        print(line)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
