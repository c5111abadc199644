"""Readers for decoded JSON input: every check of an input value's shape.

Graph documents, scenarios, decay tables, lexicons and ``--set`` overrides
all arrive as decoded JSON. Each reader here takes one value and the name of
the place it was read from, and returns the value, or raises
:class:`ValueError` naming that place, in one wording::

    epoch must be finite, got nan
    rooms[0] must be an object, got 5
    objects[0]: missing key 'pose'

A number is a finite int or float, never a boolean or a numeric string, and
reads as a float. A list may also be a tuple, since code builds poses from
tuples. This module imports nothing from the package.

:func:`node_entry` is the graph loader's common case: one combined test of
an object entry of exactly the shape ``serialize`` writes. It raises
nothing; an entry it does not take goes to the per-value readers, which
either read it or raise the error that names the bad value.
"""
from __future__ import annotations

import math
from typing import Callable

_FLOAT = frozenset((float,))


def number(value, where: str) -> float:
    """``float(value)`` when ``value`` is a finite int or float."""
    if type(value) not in (int, float):  # neither a bool nor a numeric string is a number
        raise ValueError(f"{where} must be a number, got {value!r}")
    try:
        result = float(value)
    except OverflowError:  # an integer too large for a float
        result = math.inf
    if not math.isfinite(result):
        raise ValueError(f"{where} must be finite, got {value!r}")
    return result


def text(value, where: str) -> str:
    """``value`` when it is a string."""
    if not isinstance(value, str):
        raise ValueError(f"{where} must be a string, got {value!r}")
    return value


def flag(value, where: str) -> bool:
    """``value`` when it is a boolean."""
    if not isinstance(value, bool):
        raise ValueError(f"{where} must be true or false, got {value!r}")
    return value


def obj(value, where: str) -> dict:
    """``value`` when it is a JSON object."""
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be an object, got {value!r}")
    return value


def array(value, where: str) -> list:
    """``value`` when it is a JSON array."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{where} must be a list, got {value!r}")
    return value


def floats(value, where: str, n: int) -> tuple[float, ...]:
    """``value`` as a tuple of floats when it is an array of ``n`` numbers."""
    if not isinstance(value, (list, tuple)) or len(value) != n:
        raise ValueError(f"{where} must be a list of {n} numbers, got {value!r}")
    # The common case, finite floats, in one pass each: a sum of floats is
    # finite only when every term is. Ints, overflowing sums and every error
    # take the per-component reader.
    if _FLOAT.issuperset(map(type, value)) and math.isfinite(sum(value)):
        return tuple(value)
    return tuple([number(v, f"{where}[{i}]") for i, v in enumerate(value)])


def node_entry(entry: dict) -> tuple | None:
    """``(id, label, q, t, extents, decay_rate, last_seen, attached,
    pose_provisional)`` of an object entry of exactly the shape ``serialize``
    writes, with ``q``, ``t`` and ``extents`` as tuples; otherwise ``None``.

    That shape is the eight keys, an id and label that are strings, two
    booleans, two floats and a ``pose`` of exactly ``q`` and ``t``, which
    with ``bbox`` are lists of 4, 3 and 3 floats, every number finite (a
    sum of floats is finite only when every term is). Ints, tuples, extra
    keys and every error take the per-value readers.
    """
    if type(entry) is not dict:
        return None
    try:
        pose = entry["pose"]
        if len(entry) != 8 or type(pose) is not dict or len(pose) != 2:
            return None
        q, t, extents = pose["q"], pose["t"], entry["bbox"]
        oid, label, rate, seen = entry["id"], entry["label"], entry["decay_rate"], entry["last_seen"]
        attached, provisional = entry["attached"], entry["pose_provisional"]
    except KeyError:
        return None
    if (
        type(oid) is type(label) is str
        and type(attached) is type(provisional) is bool
        and type(q) is type(t) is type(extents) is list
        and (len(q), len(t), len(extents)) == (4, 3, 3)
    ):
        numbers = (*q, *t, *extents, rate, seen)
        if _FLOAT.issuperset(map(type, numbers)) and math.isfinite(sum(numbers)):
            return (oid, label, tuple(q), tuple(t), tuple(extents), rate, seen, attached, provisional)
    return None


def texts(value, where: str, n: int | None = None) -> list[str]:
    """``value`` when it is an array of strings, of ``n`` strings if ``n`` is given."""
    if not isinstance(value, (list, tuple)) or n is not None and len(value) != n:
        count = "" if n is None else f"{n} "
        raise ValueError(f"{where} must be a list of {count}strings, got {value!r}")
    return [text(v, f"{where}[{i}]") for i, v in enumerate(value)]


def _named(where: str, exc: Exception) -> ValueError:
    """``exc``, a ``KeyError`` or ``ValueError``, as a ValueError naming ``where``."""
    what = f"missing key {exc}" if isinstance(exc, KeyError) else exc
    return ValueError(f"{where}: {what}")


def within(where: str, read: Callable, *args):
    """``read(*args)``; a missing key or bad value it meets is named ``where``."""
    try:
        return read(*args)
    except (KeyError, ValueError) as exc:
        raise _named(where, exc) from exc


def entries(value, key: str, read: Callable[[dict], object]) -> list:
    """``read(entry)`` for each object in the array ``value``; errors name ``key[i]``."""
    out = []
    for i, entry in enumerate(array(value, key)):
        if not isinstance(entry, dict):
            obj(entry, f"{key}[{i}]")  # raises, naming the entry
        try:
            out.append(read(entry))
        except (KeyError, ValueError) as exc:
            raise _named(f"{key}[{i}]", exc) from exc
    return out
