"""The scripts under scripts/ find the package from any working directory."""

import os
import pathlib
import subprocess
import sys

import pytest

_SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("name", ["run_acceptance.py", "survey_counts.py", "iso_census.py",
                                  "mutation_audit.py"])
def test_script_imports_from_another_directory(tmp_path, name):
    # run the module body (imports included) but not main()
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    code = "import runpy, sys; runpy.run_path(sys.argv[1], run_name='imported')"
    proc = subprocess.run(
        [sys.executable, "-c", code, str(_SCRIPTS / name)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
