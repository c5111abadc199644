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

A refusal shows the refused value's ``repr`` whole only when it is short
(:func:`shown`): a longer one is cut, and its JSON type and length follow,
so that a wrong value as large as a whole graph's objects still gives a
one-line message. An integer literal too long for Python to read is decoded
by :func:`json_int` as a :class:`LongInt`, which every reader refuses like
any other bad value, naming its place.

:func:`object_entry` reads a row graph document's object entry: every
value's shape, in the order the keys are named, with one combined test for
the common case of finite floats. The node rules (a unit quaternion,
positive extents, a non-blank label and a decay rate of at least 0) are the
graph loader's.

:func:`column`, :func:`checked` and :func:`float_column` read a column
document's object columns: one type-and-length test per column, and the
per-value readers above only when that test fails, so a refusal gets the
wording a row entry's would.
"""
from __future__ import annotations

import math
from typing import Callable, Iterable

_FLOAT = frozenset((float,))
_ARRAY = (list, tuple)
# The longest repr of a refused value that a message shows whole.
_SHOWN = 80


class LongInt:
    """An integer literal of more digits than Python reads
    (``sys.get_int_max_str_digits()``), kept as its text. No reader takes it:
    a number reader refuses it as too large, like any integer too large for a
    float, and every other reader as the wrong type."""

    __slots__ = ("literal",)

    def __init__(self, literal: str) -> None:
        self.literal = literal

    def __repr__(self) -> str:
        return self.literal


def json_int(literal: str):
    """The value of a JSON integer literal: ``int(literal)``, or a
    :class:`LongInt` when it is too long to read; ``parse_int`` for
    ``json.JSONDecoder``."""
    try:
        return int(literal)
    except ValueError:
        return LongInt(literal)


# The JSON type of each kind of decoded value whose repr can run long.
_KINDS = {
    dict: "an object", list: "a list", tuple: "a list", str: "a string", int: "a number", LongInt: "a number",
}


def shown(value) -> str:
    """``repr(value)`` when it is at most ``_SHOWN`` characters; otherwise its
    first ``_SHOWN``, then the value's JSON type and the repr's length."""
    text = repr(value)
    if len(text) <= _SHOWN:
        return text
    kind = _KINDS.get(type(value), type(value).__name__)
    return f"{text[:_SHOWN]}... ({kind}, {len(text):,} characters)"


def number(value, where: str) -> float:
    """``float(value)`` when ``value`` is a finite int or float."""
    if type(value) not in (int, float):  # neither a bool nor a numeric string is a number
        # An integer too long to read is too large for a float as well.
        problem = "finite" if type(value) is LongInt else "a number"
        raise ValueError(f"{where} must be {problem}, got {shown(value)}")
    try:
        result = float(value)
    except OverflowError:  # an integer too large for a float
        result = math.inf
    if not math.isfinite(result):
        raise ValueError(f"{where} must be finite, got {shown(value)}")
    return result


def text(value, where: str) -> str:
    """``value`` when it is a string."""
    if not isinstance(value, str):
        raise ValueError(f"{where} must be a string, got {shown(value)}")
    return value


def flag(value, where: str) -> bool:
    """``value`` when it is a boolean."""
    if not isinstance(value, bool):
        raise ValueError(f"{where} must be true or false, got {shown(value)}")
    return value


def obj(value, where: str) -> dict:
    """``value`` when it is a JSON object."""
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be an object, got {shown(value)}")
    return value


def array(value, where: str) -> list:
    """``value`` when it is a JSON array."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{where} must be a list, got {shown(value)}")
    return value


def floats(value, where: str, n: int) -> tuple[float, ...]:
    """``value`` as a tuple of floats when it is an array of ``n`` numbers."""
    if not isinstance(value, (list, tuple)) or len(value) != n:
        raise ValueError(f"{where} must be a list of {n} numbers, got {shown(value)}")
    # The common case, finite floats, in one pass each: a sum of floats is
    # finite only when every term is. Ints, overflowing sums and every error
    # take the per-component reader.
    if _FLOAT.issuperset(map(type, value)) and math.isfinite(sum(value)):
        return tuple(value)
    return tuple([number(v, f"{where}[{i}]") for i, v in enumerate(value)])


def object_entry(entry: dict) -> tuple:
    """``(id, label, q, t, extents, decay_rate, last_seen, attached,
    pose_provisional)`` of a row graph document's object entry, with ``q``,
    ``t`` and ``extents`` as tuples of floats; raises the ``KeyError`` or
    ``ValueError`` of the first missing key or bad value.

    Keys are read in the order ``id``, ``label``, ``pose`` (its ``q``, then
    ``t``), ``bbox``, ``decay_rate``, ``last_seen``, ``attached`` and
    ``pose_provisional``; the last two default to true and false, and other
    keys are ignored. Finite floats in lists or tuples pass one combined test
    (a sum of floats is finite only when every term is); ints, overflowing
    sums and every error take :func:`floats` and :func:`number`.
    """
    oid = entry["id"]
    if type(oid) is not str:
        oid = text(oid, "id")
    label = entry["label"]
    if type(label) is not str:
        label = text(label, "label")
    pose = entry["pose"]
    if type(pose) is not dict:
        pose = obj(pose, "pose")
    q, t = pose["q"], pose["t"]
    extents, rate, seen = entry.get("bbox"), entry.get("decay_rate"), entry.get("last_seen")
    floats_ok = False
    if (
        type(q) in _ARRAY and type(t) in _ARRAY and type(extents) in _ARRAY
        and len(q) == 4 and len(t) == 3 and len(extents) == 3
    ):
        w, x, y, z = q
        tx, ty, tz = t
        ew, eh, ed = extents
        floats_ok = (
            type(w) is type(x) is type(y) is type(z) is type(tx) is type(ty) is type(tz)
            is type(ew) is type(eh) is type(ed) is type(rate) is type(seen) is float
            and math.isfinite(w + x + y + z + tx + ty + tz + ew + eh + ed + rate + seen)
        )
    if floats_ok:
        q, t, extents = (w, x, y, z), (tx, ty, tz), (ew, eh, ed)
    else:
        q = floats(q, "quaternion", 4)
        t = floats(t, "translation", 3)
        extents = floats(entry["bbox"], "bbox", 3)
        rate, seen = entry["decay_rate"], entry["last_seen"]
    attached = entry.get("attached", True)
    if type(attached) is not bool:
        flag(attached, "attached")
    provisional = entry.get("pose_provisional", False)
    if type(provisional) is not bool:
        flag(provisional, "pose_provisional")
    if not floats_ok:
        rate, seen = number(rate, "decay_rate"), number(seen, "last_seen")
    return (oid, label, q, t, extents, rate, seen, attached, provisional)


def column(columns: dict, key: str, n: int | None = None, width: int = 1) -> list:
    """``columns[key]``, an object column of a graph document, when it is a
    list of ``width`` values for each of ``n`` objects, or of any length when
    ``n`` is None; errors name ``objects.<key>``."""
    if key not in columns:
        raise ValueError(f"objects: missing key {key!r}")
    value = columns[key]
    if not isinstance(value, _ARRAY):
        raise ValueError(f"objects.{key} must be a list, got {shown(value)}")
    if n is not None and len(value) != n * width:
        each = "one value" if width == 1 else f"{width} values"
        raise ValueError(f"objects.{key} must hold {each} for each of the {n} objects, got {len(value)}")
    return value


def checked(values: list, kinds: frozenset, read: Callable, where: Callable[[int], str]) -> list:
    """``values`` when the type of each is in ``kinds``; otherwise the error
    ``read`` raises for the first value that is not, named ``where(i)``."""
    if not kinds.issuperset(map(type, values)):
        for i, value in enumerate(values):
            if type(value) not in kinds:
                try:
                    read(value)
                except ValueError as exc:
                    raise ValueError(f"{where(i)}: {exc}") from None
    return values


def float_column(values: list, name: str, width: int, where: Callable[[int], str]) -> Iterable:
    """The numbers of a column of ``width`` values per object, as floats:
    ``values`` itself when ``width`` is 1, else one tuple per object. Finite
    floats pass one combined test; ints, overflowing sums and every error
    take :func:`number` or :func:`floats` (as ``name``), one object at a
    time, and an error is named ``where(i)`` for object ``i``."""
    if _FLOAT.issuperset(map(type, values)) and math.isfinite(sum(values)):
        if width == 1:
            return values
        items = iter(values)
        return zip(*[items] * width)
    out = []
    for i in range(len(values) // width):
        try:
            if width == 1:
                out.append(number(values[i], name))
            else:
                out.append(floats(values[i * width:(i + 1) * width], name, width))
        except ValueError as exc:
            raise ValueError(f"{where(i)}: {exc}") from None
    return out


def texts(value, where: str, n: int | None = None) -> list[str]:
    """``value`` when it is an array of strings, of ``n`` strings if ``n`` is given."""
    if not isinstance(value, (list, tuple)) or n is not None and len(value) != n:
        count = "" if n is None else f"{n} "
        raise ValueError(f"{where} must be a list of {count}strings, got {shown(value)}")
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
