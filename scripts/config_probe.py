"""Generated-config probe of the CLI's error contract.

Usage: ``python3 scripts/config_probe.py [--count N] [--seed S]``
(defaults: 50 runs, seed 0). Runs, through ``mvor.cli.main`` in a
temporary directory and with the sources of the checkout that holds this
script, ``N`` commands drawn from ``rearrange``, ``bench-pose`` and
``bench-completion``. Each run's ``--config`` sets 1-6 settings drawn
from every ``serialize.setting`` field of ``BenchConfig`` and its
sections, each inside the range or among the choices its field declares
(the field's metadata, which its section checks when it is built):

- a choice is drawn uniformly; a number uniformly in its range, or
  log-uniformly when the range spans more than two decades, and again
  while the field's own check refuses it (the open end of a range);
- an unbounded end is replaced by four times the default's magnitude, and
  at least 4 away from the other end;
- every run keeps its sizes small, drawn or not: images up to 400 px a
  side (the default cameras shrink to 400 x 300 at the same field of
  view), up to 7 objects, 2,000 model points, 24 ring views, 2 scenes, 24
  library models and 512-wide point descriptors.

Warnings are turned into errors. A run is reported when it exits other
than 0 or 2, exits 2 without exactly one ``error:`` line on stderr,
raises or prints a traceback, warns, or takes over 20 s. Each reported run
prints one line (run number, command, config JSON, what went wrong); the
last line counts the runs by outcome. The exit code is 1 when any run was
reported, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import sys
import tempfile
import time
import traceback
import warnings

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from mvor import cli  # noqa: E402
from mvor.bench import BenchConfig  # noqa: E402

COMMANDS = ("rearrange", "bench-pose", "bench-completion")
MAX_SETTINGS = 6
MAX_SECONDS = 20.0
# the size caps every run keeps, by dotted setting name
CAPS = {
    "scenes": 2,
    "sim.image_width": 400,
    "sim.image_height": 400,
    "sim.object_count_min": 7,
    "sim.object_count_max": 7,
    "sim.model_points": 2000,
    "sim.ring_count": 24,
    "sim.library_size": 24,
    "sim.point_descriptor_dim": 512,
}
# every run's config before its drawn settings: the caps, kept by the
# defaults that exceed them
BASE = {
    "scenes": 1,
    "sim": {"image_width": 400, "image_height": 300, "focal_px": 287.5, "object_count_max": 7},
}


def settings(cls=BenchConfig, prefix: str = "") -> dict:
    """Dotted name -> dataclass field of every ``setting`` under ``cls``."""
    out = {}
    for f in dataclasses.fields(cls):
        name = prefix + f.name
        if "allowed" in f.metadata:
            out[name] = f
        elif f.default_factory is not dataclasses.MISSING:
            section = f.default_factory()
            if dataclasses.is_dataclass(section):
                out.update(settings(type(section), name + "."))
    return out


def bounds(name: str, f) -> tuple[float, float]:
    """The finite range a value of ``f`` is drawn from."""
    meta = f.metadata
    reach = max(4 * abs(f.default), 4)
    low, high = meta["low"], meta["high"]
    if math.isinf(low):
        low = (high if math.isfinite(high) else 0) - reach
    if math.isinf(high):
        high = max(low + 4, reach)
    return low, min(high, CAPS.get(name, math.inf))


def draw(rng: np.random.Generator, name: str, f):
    """A value of setting ``f`` that its field allows, within the caps."""
    meta = f.metadata
    if meta["choices"] is not None:
        return meta["choices"][rng.integers(len(meta["choices"]))]
    low, high = bounds(name, f)
    allowed, _ = meta["allowed"]
    log = low > 0 and high / low > 100
    while True:
        if log:
            value = math.exp(rng.uniform(math.log(low), math.log(high)))
        else:
            value = rng.uniform(low, high)
        if isinstance(f.default, int):
            value = min(max(round(value), math.ceil(low)), math.floor(high))
        if allowed(value):
            return value


def draw_config(rng: np.random.Generator, fields: dict) -> dict:
    """``BASE`` with 1-``MAX_SETTINGS`` drawn settings, as a config document."""
    doc = json.loads(json.dumps(BASE))
    names = sorted(fields)
    k = int(rng.integers(1, MAX_SETTINGS + 1))
    for i in rng.choice(len(names), size=k, replace=False):
        *sections, key = names[i].split(".")
        node = doc
        for section in sections:
            node = node.setdefault(section, {})
        node[key] = draw(rng, names[i], fields[names[i]])
    return doc


def run_one(command: str, doc: dict, tmp: str) -> tuple[str, str | None]:
    """Run ``command`` on the config ``doc`` in ``tmp``; (outcome, problem),
    problem None for a run that keeps the contract."""
    config = os.path.join(tmp, "config.json")
    with open(config, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    argv = [command, "--config", config, "--out", os.path.join(tmp, "out")]
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            rc = cli.main(argv)
    except (Exception, SystemExit):  # every escape is a finding
        lines = traceback.format_exc().strip().splitlines()
        return "raised", f"traceback: {lines[-1]}"
    seconds = time.perf_counter() - t0
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    if rc not in (0, 2):
        return f"exit {rc}", f"exit code {rc}"
    if rc == 2 and len(errors) != 1:
        return "exit 2", f"exit 2 with {len(errors)} error lines"
    if "Traceback" in err.getvalue():
        return f"exit {rc}", "printed a traceback"
    if seconds > MAX_SECONDS:
        return f"exit {rc}", f"took {seconds:.1f} s"
    return f"exit {rc}", None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    fields = settings()
    outcomes, reported = {}, 0
    for i in range(args.count):
        command = COMMANDS[rng.integers(len(COMMANDS))]
        doc = draw_config(rng, fields)
        with tempfile.TemporaryDirectory() as tmp:
            outcome, problem = run_one(command, doc, tmp)
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        if problem:
            reported += 1
            print(f"run {i}: {command} {json.dumps(doc)}: {problem}")
    counts = ", ".join(f"{n} {outcome}" for outcome, n in sorted(outcomes.items()))
    print(f"{args.count} runs: {counts}; {reported} reported")
    return 1 if reported else 0


if __name__ == "__main__":
    sys.exit(main())
