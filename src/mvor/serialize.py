"""Dataclass <-> dict plumbing for config and artifact files."""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import typing

import numpy as np

from .errors import ConfigParseError, IOFailure


def to_dict(obj):
    """Recursively convert a (possibly nested) dataclass to JSON-able types."""
    if dataclasses.is_dataclass(obj):
        return {f.name: to_dict(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, (list, tuple)):
        return [to_dict(v) for v in obj]
    return obj


# JSON types accepted for each scalar type hint; an int is a valid float
# and is stored unchanged, so a config echo keeps its bytes, and a JSON
# list is the form of a tuple
_JSON_KINDS = {bool: (bool,), int: (int,), float: (int, float), str: (str,), tuple: (list,)}


def from_dict(cls, data, path: str = "config"):
    """Build a dataclass from a dict, recursing into dataclass-typed fields.

    Unknown keys are an error: configs are echoed into results files, so a
    silently ignored typo would corrupt reproducibility. Each scalar value
    must have its field's type (a bool is not a number, and a float must be
    finite: Python's json reads NaN and Infinity), and a ``ConfigSection``
    checks its own settings as it is built; every failure raises
    ConfigParseError, whose text carries the ValueError's.
    """
    if not isinstance(data, dict):
        raise ConfigParseError(f"{path}: expected a mapping, got {type(data).__name__}")
    hints = _type_hints(cls)
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(fields))
    if unknown:
        raise ConfigParseError(f"{path}: unknown fields {unknown}")
    kwargs = {}
    for name, value in data.items():
        hint = hints.get(name)
        if dataclasses.is_dataclass(hint):
            kwargs[name] = from_dict(hint, value, f"{path}.{name}")
            continue
        kinds = _JSON_KINDS.get(hint)
        is_bool = isinstance(value, bool)
        if kinds and (not isinstance(value, kinds) or (is_bool and hint is not bool)):
            raise ConfigParseError(
                f"{path}.{name}: expected {hint.__name__}, got {type(value).__name__}"
            )
        if hint is float and not is_finite(value):
            raise ConfigParseError(f"{path}.{name}: {value!r} is not a finite number")
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigParseError(f"{path}: {e}") from e


# cached per class: an instance file builds one dataclass per placement
_type_hints = functools.cache(typing.get_type_hints)


def is_finite(value) -> bool:
    """Whether a JSON number is a finite float; NaN, the infinities and an
    int too large for a float are not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def config_sized_empty(shape: tuple, what: str, dtype=np.float64) -> np.ndarray:
    """``np.empty(shape, dtype)`` for an array whose shape config settings
    set; ``what`` names the array and those settings. A shape the machine
    cannot hold raises ConfigParseError, not numpy's ValueError or
    MemoryError."""
    try:
        return np.empty(shape, dtype)
    except (ValueError, MemoryError) as e:
        raise ConfigParseError(f"{what} cannot be allocated: {e}") from e


def setting(default, low=-math.inf, high=math.inf, *, open_range=False, choices=None):
    """A ``ConfigSection`` field's default and the values it allows: one of
    ``choices``, or those in [low, high], or in (low, high) when
    ``open_range``. The section checks them whenever it is built; the
    field's metadata keeps the check (``allowed``) and the range it was
    made from (``low``, ``high``, ``open_range``, ``choices``), which
    ``scripts/config_probe.py`` draws from."""
    if choices is not None:
        allowed, text = (lambda v: v in choices), f"not one of {list(choices)}"
    elif open_range:
        allowed, text = (lambda v: low < v < high), f"outside ({low}, {high})"
    else:
        allowed, text = (lambda v: low <= v <= high), f"outside [{low}, {high}]"
    return dataclasses.field(
        default=default,
        metadata={
            "allowed": (allowed, text),
            "low": low,
            "high": high,
            "open_range": open_range,
            "choices": choices,
        },
    )


@dataclasses.dataclass(frozen=True)
class ConfigSection:
    """Base of the config dataclasses, each declared
    ``@dataclass(frozen=True)``: one that exists is valid. Building one, in
    Python, by ``from_dict`` or by ``dataclasses.replace`` (the way to
    change a setting), raises ValueError for the first field whose
    ``setting`` does not allow its value (NaN lies outside every range),
    then for a rule across fields, in ``validate()``."""

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if "allowed" in f.metadata:
                allowed, text = f.metadata["allowed"]
                value = getattr(self, f.name)
                if not allowed(value):
                    raise ValueError(f"{f.name}={value!r} {text}")
        self.validate()

    def validate(self) -> None:
        """Rules across fields; a section with none keeps this."""


def load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ConfigParseError(f"{path}: invalid JSON ({e})") from e
    # ValueError: a path with a NUL byte
    except (OSError, ValueError) as e:
        raise IOFailure(f"cannot read {path}: {e}") from e


def write_text(text: str, path) -> None:
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as e:
        raise IOFailure(f"cannot write {path}: {e}") from e


def json_text(data) -> str:
    """The text ``dump_json`` writes for ``data``."""
    return json.dumps(data, indent=1) + "\n"


def dump_json(data, path) -> None:
    write_text(json_text(data), path)


def make_dirs(path) -> None:
    """Create directory ``path`` and its parents unless it exists; a path
    that cannot be a directory raises IOFailure."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:
        raise IOFailure(f"cannot create directory {path}: {e}") from e
