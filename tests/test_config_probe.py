"""``scripts/config_probe.py`` draws every setting inside the range its
field declares, within the probe's size caps, and a short run of it finds
no break of the CLI's error contract."""

import contextlib
import importlib.util
import io
import math
import os
import time

import numpy as np
import pytest

from mvor.sim.config import MAX_IMAGE_SIDE

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def probe():
    path = os.path.join(ROOT, "scripts", "config_probe.py")
    spec = importlib.util.spec_from_file_location("config_probe", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_setting_metadata_keeps_its_range(probe):
    fields = probe.settings()
    width = fields["sim.image_width"].metadata
    assert (width["low"], width["high"], width["open_range"]) == (1, MAX_IMAGE_SIDE, False)
    assert fields["sim.focal_px"].metadata["open_range"]
    assert fields["localization.matcher"].metadata["choices"] == ("feature_id", "descriptor_nn")


def test_draws_are_allowed_and_capped(probe):
    rng = np.random.default_rng(0)
    for name, f in probe.settings().items():
        allowed, _ = f.metadata["allowed"]
        for _ in range(200):
            value = probe.draw(rng, name, f)
            assert type(value) is type(f.default), name
            assert allowed(value), (name, value)
            assert isinstance(value, str) or value <= probe.CAPS.get(name, math.inf), name


def test_short_run_reports_nothing(probe):
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        rc = probe.main(["--count", "3"])
    assert time.perf_counter() - t0 < 10
    lines = out.getvalue().splitlines()
    assert rc == 0, lines
    assert len(lines) == 1 and lines[0].startswith("3 runs: ") and lines[0].endswith("; 0 reported")
