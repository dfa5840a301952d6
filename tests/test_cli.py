"""Exit codes, JSON shape, and determinism of the command line front end."""

import contextlib
import io
import json
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from hermquot import cli, models
from hermquot.gfield import make_field


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_field_payload(capsys):
    code, d = run_cli(capsys, "field", "--p", "2", "--h", "3")
    assert code == 0
    assert d["q"] == 8 and d["deg"] == 12 and d["order"] == 4096
    assert d["modulus"] == make_field(2, 3).modulus
    assert d["version"]


def test_aut_subgroups_payload(capsys):
    # every subgroup type is a table payload, and the notes stay a list
    code, d = run_cli(capsys, "aut", "--family", "hermitian", "--p", "2", "--h", "2",
                      "--subgroups")
    assert code == 0
    assert set(d) == {"modulus", "p", "h", "family", "subgroup_types", "notes", "version"}
    assert set(d["subgroup_types"]) == {"U", "cyclic4"}
    assert d["notes"] == []


def _cli(*argv):
    """(exit code, stderr, seconds) of an in-process run of argv."""
    err = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as e:  # argparse usage errors
            code = e.code
    return code, err.getvalue(), time.perf_counter() - t0


def test_field_huge_prime_is_rejected_at_once():
    # trial division of this prime used to run before the size bound
    code, err, dt = _cli("field", "--p", 1000000000000000003, "--h", 1)
    assert code == 2 and "exceeds the bound" in err
    assert dt < 1.0


def _assert_contract(code, err, dt):
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert dt < 5.0


_P = st.one_of(st.integers(-3, 200), st.integers(-10**40, 10**40))
_H = st.one_of(st.integers(-2, 9), st.integers(-10**40, 10**40))


@given(p=_P, h=_H)
@settings(max_examples=40, deadline=None)
def test_field_cli_fuzz(p, h):
    _assert_contract(*_cli("field", "--p", p, "--h", h))


@given(family=st.sampled_from(sorted(cli.FAMILIES)), p=_P, h=_H)
@settings(max_examples=40, deadline=None)
def test_genus_cli_fuzz(family, p, h):
    _assert_contract(*_cli("genus", "--family", family, "--p", p, "--h", h))


@given(gens=st.lists(st.one_of(st.integers(-2, 1100), st.integers(-10**40, 10**40)),
                     min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_semigroup_gens_cli_fuzz(gens):
    _assert_contract(*_cli("semigroup", "--gens", ",".join(map(str, gens))))


@given(family=st.sampled_from([k for k, tag in cli.FAMILIES.items()
                                if tag in models.PARAMETRIZED]), p=_P, h=_H)
@settings(max_examples=40, deadline=None)
def test_semigroup_family_cli_fuzz(family, p, h):
    _assert_contract(*_cli("semigroup", "--family", family, "--p", p, "--h", h))


@pytest.mark.parametrize(
    "argv",
    [
        ("semigroup", "--gens", "1000003,1000033"),  # a 10^12-entry gap sieve
        ("semigroup", "--family", "II", "--p", "3", "--h", "50"),
        ("genus", "--family", "II", "--p", "3", "--h", "100000"),  # a 47,000-digit genus
        ("genus", "--family", "II", "--p", "1000000000000000003", "--h", "1"),
        ("genus", "--family", "I", "--p", "4", "--h", "2"),  # p not prime
        ("semigroup", "--family", "I", "--p", "4", "--h", "3"),
        ("aut", "--family", "III", "--p", "2", "--h", "1"),  # family III needs h >= 2
        # encodings outside [0, p^(4h))
        ("construct", "--family", "I", "--p", "2", "--h", "3", "--b", "4096"),
        ("construct", "--family", "I", "--p", "2", "--h", "3", "--b", "-1"),
        ("iso", "--family", "II", "--p", "3", "--h", "2", "--b", "99", "--bbar", "-5"),
        ("verify-lemma-b", "--p", "2", "--h", "2", "--b", "70000"),
        # a family I group of order |V| = q^3/p^2 = 2^19, over the closure bound
        ("aut", "--family", "I", "--p", "2", "--h", "7"),
        ("aut", "--family", "II", "--p", "7", "--h", "2"),  # q = 49, over the q <= 27 cap
    ],
)
def test_out_of_range_argv_is_rejected_at_once(argv):
    code, err, dt = _cli(*argv)
    assert code == 2 and err.startswith("parameter error")
    if "--b" in argv:
        assert "outside [0, " in err
    assert dt < 1.0


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "--family", "hermitian", "--p", "2", "--h", "2", "--b", "5"),
        ("count", "--family", "hermitian", "--p", "2", "--h", "2", "--b", "5"),
        ("aut", "--family", "hermitian", "--p", "2", "--h", "2", "--b", "5"),
        ("aut", "--family", "hermitian", "--p", "2", "--h", "2", "--subgroups", "--b", "5"),
        ("aut", "--family", "I", "--p", "2", "--h", "3", "--subgroups"),
        ("iso", "--family", "I", "--p", "2", "--h", "3", "--inventory", "--b", "1186"),
        ("iso", "--family", "I", "--p", "2", "--h", "3", "--inventory", "--oracle", "2"),
        ("iso", "--family", "I", "--p", "2", "--h", "3", "--inventory", "--bbar", "1186"),
        ("verify", "--all", "--check", "nonsense"),
        ("semigroup", "--gens", "3,4", "--family", "I", "--p", "2", "--h", "3"),
        # a zero is a flag given, not a flag left out
        ("semigroup", "--gens", "3,4", "--p", "0"),
        ("semigroup", "--gens", "3,4", "--h", "0"),
    ],
)
def test_a_flag_the_command_would_drop_is_refused(argv):
    code, err, dt = _cli(*argv)
    assert code == 2 and err.startswith("parameter error")
    assert dt < 1.0


@pytest.mark.parametrize(
    "argv",
    [
        ("field",),
        ("field", "--p", "2"),
        ("genus", "--family", "II", "--h", "2"),
        ("semigroup", "--family", "I", "--p", "2"),
        ("verify-lemma-a",),
        ("field", "--p", "0", "--h", "1"),  # a flag must be a positive integer
    ],
)
def test_a_missing_field_flag_is_refused(argv):
    code, err, _ = _cli(*argv)
    assert code == 2 and err.startswith("parameter error:") and "needs --p" in err


def test_aut_family_II_at_q27(capsys):
    # order, exponent, center, commutator subgroup and centralizer profile
    # at the first admissible b, past the old q <= 9 cap; q = 25 is frozen
    # in test_autgrp
    code, d = run_cli(capsys, "aut", "--family", "II", "--p", "3", "--h", "3")
    assert code == 0
    values = (d["order"], d["exponent"], d["center_order"], d["commutator_order"],
              d["details"]["centralizer_profile"])
    assert values == (486, 6, 9, 9, {"243": 9, "81": 72, "27": 162})


def test_construct_defaults_to_first_admissible_b(capsys):
    ctx = make_field(2, 3)
    first = models.default_b(ctx, "family_I")
    code, d = run_cli(capsys, "construct", "--family", "I", "--p", "2", "--h", "3")
    assert code == 0 and d["b"] == first
    code, d2 = run_cli(
        capsys, "construct", "--family", "I", "--p", "2", "--h", "3", "--b", str(first)
    )
    assert code == 0 and d2 == d


def test_construct_family_II_char2_is_invalid_input(capsys):
    code, _ = run_cli(capsys, "construct", "--family", "II", "--p", "2", "--h", "3")
    assert code == 2


def test_unknown_family_is_usage_error():
    with pytest.raises(SystemExit) as e:
        cli.main(["construct", "--family", "IV", "--p", "2", "--h", "3"])
    assert e.value.code == 2


def test_count_hermitian(capsys):
    code, d = run_cli(capsys, "count", "--family", "hermitian", "--p", "3", "--h", "1")
    assert code == 0
    assert d["N"] == 28 and d["maximal"] and d["path"] == "direct"
    assert d["affine"] == 27 and d["infinity"] == 1


def test_count_family_III_goes_through_quotient(capsys):
    code, d = run_cli(capsys, "count", "--family", "III", "--p", "2", "--h", "2")
    assert code == 0
    assert d["N"] == 25 and d["path"] == "quotient" and d["maximal"]
    code, _ = run_cli(
        capsys, "count", "--family", "III", "--p", "2", "--h", "2", "--k", "2"
    )
    assert code == 2


def test_count_family_III_past_q8(capsys):
    code, d = run_cli(capsys, "count", "--family", "III", "--p", "2", "--h", "4")
    assert code == 0
    assert d["N"] == 1153 and d["maximal"] and d["path"] == "quotient"


def test_count_family_III_refuses_a_large_field_at_once():
    # F_{q^4} at q = 128 is over the k = 2 bound; refused before any fiber
    code, err, dt = _cli("count", "--family", "III", "--p", "2", "--h", "7")
    assert code == 2 and "exceeds the k=2 bound" in err
    assert dt < 2.0


def test_genus_formula_and_claimed(capsys):
    code, d = run_cli(capsys, "genus", "--family", "II", "--p", "5", "--h", "2")
    assert code == 0 and d["genus"] == 10
    code, d = run_cli(capsys, "genus", "--family", "hermitian", "--p", "2", "--h", "2")
    assert code == 0 and d["genus"] == 6


def test_semigroup_modes(capsys):
    code, d = run_cli(capsys, "semigroup", "--gens", "2,9")
    assert code == 0 and d["genus"] == 4 and d["largest_gap"] == 7
    code, d = run_cli(capsys, "semigroup", "--family", "II", "--p", "3", "--h", "2")
    assert code == 0
    assert d["generators"] == [3, 4, 10] and d["telescopic"] and d["genus"] == 3
    # no semigroup is attached to family III
    code, _ = run_cli(capsys, "semigroup", "--family", "III", "--p", "2", "--h", "2")
    assert code == 2
    code, _ = run_cli(capsys, "semigroup", "--gens", "2,x")
    assert code == 2


def test_iso_family_I_with_oracle(capsys):
    ctx = make_field(2, 3)
    bs = models.admissible_b(ctx, "family_I")
    code, d = run_cli(
        capsys, "iso", "--family", "I", "--p", "2", "--h", "3",
        "--b", str(bs[0]), "--bbar", str(bs[1]), "--oracle", "1",
    )
    assert code == 0
    assert d["iso"] is True and d["case"] == "both_cubic"
    assert d["oracle"] is True and d["oracle_tier"] == 1
    w = d["witness"]
    assert set(w) == {"c", "delta", "sigma", "b", "bbar"}


def test_iso_family_II_kappa(capsys):
    ctx = make_field(3, 2)
    b = models.default_b(ctx, "family_II")
    bbar = ctx.mul(b, 2)
    code, d = run_cli(
        capsys, "iso", "--family", "II", "--p", "3", "--h", "2",
        "--b", str(b), "--bbar", str(bbar),
    )
    assert code == 0 and d["iso"] is True and d["kappa"] == 2


def test_iso_inventory(capsys):
    code, d = run_cli(capsys, "iso", "--family", "I", "--p", "2", "--h", "4",
                      "--inventory")
    assert code == 0
    assert d["class_sizes"] == [6, 6, 2] and d["classifier_agreement"] is True


def test_iso_requires_b_pair_or_inventory(capsys):
    code, _ = run_cli(capsys, "iso", "--family", "I", "--p", "2", "--h", "3")
    assert code == 2
    for flag in ("--b", "--bbar"):
        code, err, _ = _cli("iso", "--family", "I", "--p", "2", "--h", "3", flag, "1186")
        assert code == 2 and "iso needs --b and --bbar" in err


def test_lemma_subcommands(capsys):
    code, d = run_cli(capsys, "verify-lemma-a", "--p", "3")
    assert code == 0 and d["ok"] and d["total_degree"] == 66
    code, d = run_cli(capsys, "verify-lemma-b", "--p", "2", "--h", "3")
    assert code == 0
    assert len(d["results"]) == 8
    assert all(r["terminal_ok"] and r["identity_ok"] for r in d["results"])
    code, _ = run_cli(capsys, "verify-lemma-b", "--p", "3", "--h", "2")
    assert code == 2


def test_verify_single_check(capsys):
    code, d = run_cli(capsys, "verify", "--check", "hermitian_baseline")
    assert code == 0 and d["all_ok"] is True
    assert [r["id"] for r in d["results"]] == ["hermitian_baseline"]
    assert "seconds" not in d["results"][0]


def test_verify_no_selection_is_refused():
    code, err, _ = _cli("verify")
    assert code == 2 and err.startswith("parameter error:")


def test_verify_unknown_id(capsys):
    code, _ = run_cli(capsys, "verify", "--check", "nonsense")
    assert code == 2


def test_verify_failure_exits_one(capsys, monkeypatch):
    fake = [{"id": "family_II", "ok": False, "details": {}, "seconds": 0.0}]
    monkeypatch.setattr(cli.acceptance, "run_all", lambda ids=None: fake)
    code, d = run_cli(capsys, "verify", "--all")
    assert code == 1 and d["all_ok"] is False
    assert d["results"][0]["id"] == "family_II"


def test_stdout_is_byte_identical_across_runs(capsys):
    argv = ["aut", "--family", "III", "--p", "2", "--h", "2"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


_GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["aut", "--family", "I", "--p", "2", "--h", "3"], "aut_family_I_p2_h3.json"),
        (["aut", "--family", "hermitian", "--p", "3", "--h", "1"],
         "aut_hermitian_p3_h1.json"),
        (["aut", "--family", "II", "--p", "3", "--h", "2"], "aut_family_II_p3_h2.json"),
        (["aut", "--family", "I", "--p", "2", "--h", "4"], "aut_family_I_p2_h4.json"),
        (["aut", "--family", "III", "--p", "2", "--h", "3"], "aut_family_III_p2_h3.json"),
    ],
    ids=["family_I_2_3", "hermitian_3_1", "family_II_3_2", "family_I_2_4", "family_III_2_3"],
)
def test_aut_stdout_matches_golden(capsys, argv, golden):
    # family I generators with xi^4 and xi^2 terms, the stabilizer's shear,
    # the family II generators, which depend on the order of Psi, and family
    # I in counted mode, whose generators span V as in closed mode
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == (_GOLDEN / golden).read_text()


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["count", "--family", "II", "--p", "5", "--h", "2"], "count_II_p5_h2.json"),
        (["count", "--family", "I", "--p", "3", "--h", "3"], "count_I_p3_h3.json"),
        (["count", "--family", "hermitian", "--p", "2", "--h", "4", "--k", "2"],
         "count_hermitian_p2_h4_k2.json"),
        (["count", "--family", "III", "--p", "2", "--h", "3"], "count_III_p2_h3.json"),
    ],
    ids=["family_II_5_2", "family_I_3_3", "hermitian_2_4_k2", "family_III_2_3"],
)
def test_count_stdout_matches_golden(capsys, argv, golden):
    # digit-kernel fields, the affine_k2 scan and family III's quotient report
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == (_GOLDEN / golden).read_text()


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["genus", "--family", "center", "--p", "3", "--h", "2"],
         "genus_center_p3_h2.json"),
        (["iso", "--family", "II", "--p", "3", "--h", "2", "--b", "99", "--bbar", "171"],
         "iso_II_p3_h2_iso.json"),
        (["iso", "--family", "I", "--p", "2", "--h", "4", "--b", "1842", "--bbar", "10266"],
         "iso_I_p2_h4_noniso.json"),
        (["verify", "--check", "hermitian_baseline", "--check", "unique_fixed_point"],
         "verify_baseline_fixed_point.json"),
    ],
    ids=["genus_center_3_2", "iso_II_3_2", "iso_I_2_4_noniso", "verify_two_checks"],
)
def test_report_stdout_matches_golden(capsys, argv, golden):
    # a genus read off a built model, an isomorphic family II pair, a family
    # I pair in different classes (witness null) and the verify envelope;
    # verify's seconds go to stderr
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == (_GOLDEN / golden).read_text()


@pytest.mark.parametrize(
    "family, p, h",
    [("hermitian", 2, 2), ("center", 2, 3), ("noncenter", 3, 2), ("fpp", 2, 3),
     ("II", 3, 2), ("III", 2, 3)],
)
def test_construct_stdout_matches_golden(capsys, family, p, h):
    # each builder's equation; construct --family I is pinned by the
    # benchmark references
    assert cli.main(["construct", "--family", family, "--p", str(p), "--h", str(h)]) == 0
    golden = _GOLDEN / f"construct_{family}_p{p}_h{h}.json"
    assert capsys.readouterr().out == golden.read_text()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hermquot", "field", "--p", "2", "--h", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    d = json.loads(proc.stdout)
    assert d["q"] == 2
    # timings stay on stderr so stdout parses clean
    assert proc.stderr.startswith("#")
