"""The one set of typed readers for JSON config values: each returns a value in
the type the program uses, or raises a ConfigError naming the dotted field.  A
missing field reads as None.  A JSON boolean is never read as a number.
load_json is the one reader of config and schema files."""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Mapping

from .errors import ConfigError


def _expect(ok: bool, value, what: str, expected: str):
    if not ok:
        raise ConfigError(f"{what}: expected {expected}, got {value!r}")
    return value


def whole(value, what: str) -> int:
    """value as an int, when it is a whole number in [0, 2**63)."""
    ok = isinstance(value, (int, float)) and not isinstance(value, bool) and 0 <= value < 2**63 and value == int(value)
    return int(_expect(ok, value, what, "a whole number in [0, 2**63)"))


def finite(value, what: str) -> float:
    """value as a float, when it is a finite number; an int beyond the float range is not."""
    ok = isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max
    return float(_expect(ok, value, what, "a finite number"))


def numbers(value, what: str) -> tuple[float, ...]:
    """value as a tuple of floats, when it is a list (or tuple) of finite numbers."""
    _expect(isinstance(value, (list, tuple)), value, what, "a list of numbers")
    return tuple(finite(v, f"{what}[{i}]") for i, v in enumerate(value))


def labels(value, what: str, empty: bool = False) -> tuple[str, ...]:
    """value as a tuple, when it is a list of distinct strings that is non-empty unless `empty`."""
    ok = isinstance(value, list) and all(isinstance(v, str) for v in value) and len(set(value)) == len(value)
    expected = "a list of distinct strings" if empty else "a non-empty list of distinct strings"
    return tuple(_expect(ok and (empty or value), value, what, expected))


def file_path(value, what: str, base_dir=None) -> str:
    """value, when it is a non-empty string, as a path; a relative one is taken from base_dir when given."""
    return str(Path(base_dir or "") / _expect(isinstance(value, str) and value, value, what, "a non-empty string"))


def text_map(value, what: str, keys=None) -> dict[str, str]:
    """value as a dict, when it is an object of strings whose every key is in `keys` when they are given."""
    ok = all(isinstance(v, str) for v in mapping(value, what, keys).values())
    return dict(_expect(ok, value, what, "an object of strings"))


def flag(value, what: str) -> bool:
    """value, when it is true or false."""
    return _expect(isinstance(value, bool), value, what, "true or false")


def mapping(value, what: str, keys=None) -> Mapping:
    """value, when it is an object, and one whose every key is in `keys` when they are given."""
    _expect(isinstance(value, Mapping), value, what, "an object")
    unknown = sorted(set(value) - set(keys)) if keys is not None else []
    if unknown:
        raise ConfigError(f"{what}: unknown keys {unknown}; expected only {list(keys)}")
    return value


def load_json(path):
    """The JSON value in the config or schema file at path."""
    try:
        return json.loads(Path(path).read_text(encoding="utf8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep to parse
        raise ConfigError(f"{path} is not UTF-8 JSON: {exc}") from None
