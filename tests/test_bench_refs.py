"""Outputs against the benchmark's references in perfbench/ref.

The benchmark counts an output that differs from its reference as a failed
operation; these tests hold the same outputs to the same rules in the
suite: every verify.run_all() result's ok and JSON-round-tripped details,
N and maximality of each count_large item at its first admissible b, and
the exact stdout and exit code of each cli_cold command, run in-process.
perfbench/workloads.py is read with runpy, so nothing is written under
perfbench/.
"""

import contextlib
import io
import json
import pathlib
import runpy

import pytest

from hermquot import cli, models, placecount, verify
from hermquot.gfield import make_field

BENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = runpy.run_path(str(BENCH / "workloads.py"))
REF = {name: json.loads((BENCH / "ref" / f"{name}.json").read_text())
       for name in ("acceptance", "count_large", "cli_cold")}


def test_acceptance_matches_reference():
    ref = REF["acceptance"]
    results = verify.run_all()
    assert sorted(r["id"] for r in results) == sorted(ref)
    for r in results:
        details = json.loads(json.dumps(r["details"], sort_keys=True))
        assert (r["ok"], details) == (ref[r["id"]]["ok"], ref[r["id"]]["details"]), r["id"]


@pytest.mark.parametrize("idx", range(len(WORKLOADS["COUNT_ITEMS"])))
def test_count_large_matches_reference(idx):
    family, p, h = WORKLOADS["COUNT_ITEMS"][idx]
    rep = placecount.maximality_check(models.build(make_field(p, h), cli.FAMILIES[family]))
    assert rep["N"] == REF["count_large"][str(idx)]["N"]
    assert rep["maximal"] is True


@pytest.mark.parametrize("argv", WORKLOADS["CLI_COMMANDS"], ids=WORKLOADS["cli_key"])
def test_cli_cold_matches_reference(argv):
    want = REF["cli_cold"][WORKLOADS["cli_key"](argv)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    assert (code, out.getvalue()) == (want["exit"], want["stdout"])
