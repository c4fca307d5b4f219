"""``scripts/output_digests.py`` passes its own checks (the identity
fallback is covered, the ``outside/`` database and poses equal those made
inside the dataset, the swap makes an executed buffer move) and prints the
lines of ``output_digests.txt``, so every byte of every machine-readable
output it writes is pinned. A change that moves an output on purpose
rewrites that file in the same diff, where the moved lines show."""

import contextlib
import importlib.util
import io
import os
import re

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "output_digests.txt")


@pytest.fixture(scope="module")
def script_run():
    """The script's exit code, stdout lines and stderr, and whether it left
    the working directory as it found it; run once for the module."""
    path = os.path.join(ROOT, "scripts", "output_digests.py")
    spec = importlib.util.spec_from_file_location("output_digests", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    cwd, out, err = os.getcwd(), io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = script.main()
    return rc, out.getvalue().splitlines(), err.getvalue(), os.getcwd() == cwd


def digests(lines) -> dict:
    """``{path: sha256}`` of ``sha256  path`` lines."""
    return {path: digest for digest, path in (line.split("  ", 1) for line in lines)}


def test_output_digests_main_exits_0(script_run):
    rc, lines, err, same_cwd = script_run
    assert rc == 0, err
    assert same_cwd
    assert lines and all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)


def test_output_digests_match_the_golden_file(script_run):
    """The digests depend on numpy's arithmetic, so the failure names its
    version: a numpy that moves lines is a re-baseline like any other."""
    _, lines, _, _ = script_run
    with open(GOLDEN, encoding="utf-8") as f:
        golden = f.read().splitlines()
    if lines != golden:
        got, want = digests(lines), digests(golden)
        moved = sorted(p for p in got.keys() & want.keys() if got[p] != want[p])
        pytest.fail(
            f"outputs differ from tests/output_digests.txt under numpy {np.__version__}: "
            f"moved {moved}, new {sorted(got.keys() - want.keys())}, "
            f"gone {sorted(want.keys() - got.keys())}"
        )
