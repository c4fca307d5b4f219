"""Every demo runs to the end in its own interpreter, as a reader would run
it (``PYTHONPATH=src python3 demos/<demo>.py``); demo 04 also completes
its rearrangement."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "0*.py")))


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, demo], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    if os.path.basename(demo).startswith("04_"):
        assert any(line.startswith("completed: True") for line in proc.stdout.splitlines())
