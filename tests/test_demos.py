import glob
import os
import runpy
import subprocess
import sys

import pytest

import derived_brackets

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path):
    # the child imports the package from where this process found it
    src = os.path.dirname(os.path.dirname(os.path.abspath(derived_brackets.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, path], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_output_matches_its_pin(path, capsys):
    # tests/data/golden/demos/NAME.txt is the demo's stdout, byte for byte
    pin = os.path.join(ROOT, "tests", "data", "golden", "demos",
                       os.path.basename(path)[:-3] + ".txt")
    with open(pin, encoding="utf-8") as fh:
        expected = fh.read()
    runpy.run_path(path, run_name="__main__")
    assert capsys.readouterr().out == expected
