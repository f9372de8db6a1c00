"""Readers that turn JSON config values into sections, strings, numbers
and arrays.  Every config parser reads through them, so a missing key, a
value of the wrong type or a non-finite number is a ``ValueError`` that
names the key.  An absent key reads as ``default``; a present one, even
``null``, must hold a valid value."""

from __future__ import annotations

import sys

import numpy as np

#: default of a key that must be present
_REQUIRED = object()


def _absent(key: str, default):
    if default is _REQUIRED:
        raise ValueError(f"missing '{key}'")
    return default


def _finite(value) -> float | None:
    """``value`` as a finite float, or None if it is no finite number."""
    # bool is an int subclass, and a JSON true is no number
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return None
    # compared before conversion, so an int beyond the float range is no error
    return float(value) if abs(value) <= sys.float_info.max else None


def section(parent: dict, key: str, default=_REQUIRED) -> dict:
    """``parent[key]`` as a JSON object."""
    if key not in parent:
        return _absent(key, default)
    value = parent[key]
    if not isinstance(value, dict):
        raise ValueError(f"'{key}' must be a JSON object, got {value!r}")
    return value


def sections(parent: dict, key: str) -> list:
    """``parent[key]`` as a list of JSON objects."""
    value = parent[key] if key in parent else _absent(key, _REQUIRED)
    if not (isinstance(value, list) and all(isinstance(v, dict) for v in value)):
        raise ValueError(f"'{key}' must be a list of JSON objects, got {value!r}")
    return value


def text(parent: dict, key: str, default=_REQUIRED) -> str:
    """``parent[key]`` as a string."""
    if key not in parent:
        return _absent(key, default)
    value = parent[key]
    if not isinstance(value, str):
        raise ValueError(f"'{key}' must be a string, got {value!r}")
    return value


def number(parent: dict, key: str, default=_REQUIRED, kind=float):
    """``parent[key]`` as a finite number, converted by ``kind``; with
    ``kind=int`` the value must be integral."""
    if key not in parent:
        return _absent(key, default)
    raw = parent[key]
    if kind is int and isinstance(raw, int) and not isinstance(raw, bool):
        # returned as is, so an integer beyond 2**53 (a u64 seed) stays exact
        return raw
    value = _finite(raw)
    if value is None:
        raise ValueError(f"'{key}' must be a finite number, got {raw!r}")
    if kind is int:
        if not value.is_integer():
            raise ValueError(f"'{key}' must be an integer, got {raw!r}")
        return int(value)
    return value


def array(parent: dict, key: str, ndim: int = 1, default=_REQUIRED) -> np.ndarray:
    """``parent[key]`` as a float array of ``ndim`` dimensions with finite
    entries; an empty list reads as an empty array."""
    if key not in parent:
        return _absent(key, default)
    value = parent[key]
    if value == []:
        return np.empty((0,) * ndim)

    def nested(v, depth: int):
        if depth == 0:
            leaf = _finite(v)
        elif isinstance(v, list):
            leaf = [nested(item, depth - 1) for item in v]
            if depth > 1 and len({len(row) for row in leaf}) > 1:
                leaf = None
        else:
            leaf = None
        if leaf is None:
            raise ValueError(
                f"'{key}' must be a {ndim}-d array of finite numbers, got {value!r}"
            )
        return leaf

    return np.array(nested(value, ndim), dtype=float)
