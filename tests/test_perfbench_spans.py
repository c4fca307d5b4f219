"""The benchmark's tracer (``perfbench/spans.py``) names mvor functions by
module and attribute; every one of them must still exist, or
``perfbench/run.py --trace 1`` fails on install."""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spans():
    path = os.path.join(ROOT, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    spans = load_spans()
    targets = list(spans.DRIVERS.values())
    targets += [place for places in spans.LAYERS.values() for place in places]
    targets.append(("mvor.bench", "make_reobserver"))  # the REOBSERVE span's hook
    missing = []
    for module, attr in targets:
        importlib.import_module(module)
        try:
            owner, name = spans._resolve(module, attr)
            found = callable(getattr(owner, name))
        except AttributeError:
            found = False
        if not found:
            missing.append(f"{module}:{attr}")
    assert missing == []
