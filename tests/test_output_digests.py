"""``scripts/output_digests.py`` passes its own checks: the identity
fallback is covered, the ``outside/`` database and poses equal those made
inside the dataset, and the swap makes an executed buffer move. Every
byte-identity claim about the outputs rests on that script."""

import importlib.util
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_output_digests_main_exits_0(capsys):
    path = os.path.join(ROOT, "scripts", "output_digests.py")
    spec = importlib.util.spec_from_file_location("output_digests", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    cwd = os.getcwd()
    assert script.main() == 0, capsys.readouterr().err
    assert os.getcwd() == cwd
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)
