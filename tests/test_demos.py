"""Each script under demos/ runs to completion against the package in src/,
with a numpy RuntimeWarning raised as an error, and prints its table."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_the_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    # run in a scratch directory: a demo writes its plot to the working directory
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", path], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip()
