"""``scripts/unreached.py`` prints the lines of ``unreached.txt``: the
functions in ``src/mvor`` that no command of ``scripts/output_digests.py``
enters. A change that gives such a function a caller, deletes it, or
leaves a new function uncalled rewrites that file in the same diff, where
the moved names show.

The script runs in its own interpreter, so that the functions ``mvor``
runs at import time are entered under its profiler."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "unreached.txt")


def test_unreached_functions_match_the_golden_file():
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "unreached.py")],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    with open(GOLDEN, encoding="utf-8") as f:
        golden = f.read().splitlines()
    assert lines == golden, (
        f"newly unreached {sorted(set(lines) - set(golden))}, "
        f"now reached or gone {sorted(set(golden) - set(lines))}"
    )
