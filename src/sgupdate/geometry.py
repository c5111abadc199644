"""Rigid-body pose and bounding-box primitives.

Conventions used throughout the package:

* quaternions are ``(w, x, y, z)`` and must be unit norm,
* translations are meters in a fixed world frame (z up),
* sensor frames are x-forward / y-left / z-up.

Both :class:`Pose` and :class:`BBox3` are immutable, slotted value types;
they are safe to share between threads but the containers that hold them are
not.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .values import floats, obj

QUAT_NORM_TOL = 1e-9


class InvalidGeometry(ValueError):
    """A quaternion is not unit norm or a box extent is not positive."""


def quat_norm(q: Sequence[float]) -> float:
    """The Euclidean norm of quaternion ``q``."""
    w, x, y, z = q
    # Keep sum(): Python >= 3.12 adds floats with compensation, chained + would not.
    return math.sqrt(sum((w * w, x * x, y * y, z * z)))


def is_unit(q: Sequence[float]) -> bool:
    """Whether quaternion ``q`` of finite floats is unit norm within ``QUAT_NORM_TOL``."""
    return abs(quat_norm(q) - 1.0) <= QUAT_NORM_TOL


def is_positive(extents: Sequence[float]) -> bool:
    """Whether every box extent is strictly positive."""
    w, h, d = extents
    return w > 0.0 and h > 0.0 and d > 0.0


@dataclass(frozen=True, slots=True)
class Pose:
    """A rigid transform: rotation quaternion ``q`` plus translation ``t``."""

    q: tuple[float, float, float, float]
    t: tuple[float, float, float]

    def __post_init__(self) -> None:
        try:
            q = floats(self.q, "quaternion", 4)
            t = floats(self.t, "translation", 3)
        except ValueError as exc:
            raise InvalidGeometry(str(exc)) from None
        if not is_unit(q):
            raise InvalidGeometry(f"quaternion norm {quat_norm(q)!r} deviates from 1 beyond {QUAT_NORM_TOL}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "t", t)

    @classmethod
    def _unchecked(cls, q: tuple[float, ...], t: tuple[float, ...]) -> "Pose":
        """The pose of tuples of floats the caller has checked (``is_unit(q)``
        included); skips ``__post_init__``."""
        pose = object.__new__(cls)
        object.__setattr__(pose, "q", q)
        object.__setattr__(pose, "t", t)
        return pose

    @classmethod
    def identity(cls, t: Sequence[float] = (0.0, 0.0, 0.0)) -> "Pose":
        return cls((1.0, 0.0, 0.0, 0.0), tuple(t))  # type: ignore[arg-type]

    @classmethod
    def from_dict(cls, data: dict, where: str = "pose") -> "Pose":
        """The pose of a JSON object ``{"q": [...], "t": [...]}`` read at ``where``."""
        data = obj(data, where)
        return cls(data["q"], data["t"])

    def to_dict(self) -> dict:
        return {"q": list(self.q), "t": list(self.t)}


@dataclass(frozen=True, slots=True)
class BBox3:
    """Axis-aligned box extents ``(w, h, d)`` = size along x, z and y."""

    extents: tuple[float, float, float]

    def __post_init__(self) -> None:
        try:
            ext = floats(self.extents, "bbox", 3)
        except ValueError as exc:
            raise InvalidGeometry(str(exc)) from None
        if not is_positive(ext):
            raise InvalidGeometry(f"extents must be strictly positive, got {ext}")
        object.__setattr__(self, "extents", ext)

    @classmethod
    def _unchecked(cls, extents: tuple[float, ...]) -> "BBox3":
        """The box of a tuple of floats the caller has checked (``is_positive``
        included); skips ``__post_init__``."""
        box = object.__new__(cls)
        object.__setattr__(box, "extents", extents)
        return box

    @property
    def max_extent(self) -> float:
        return max(self.extents)

    @property
    def volume(self) -> float:
        w, h, d = self.extents
        return w * h * d

    def half_sizes_xyz(self) -> tuple[float, float, float]:
        """Half sizes reordered onto world axes (x, y, z)."""
        w, h, d = self.extents
        return (w / 2.0, d / 2.0, h / 2.0)


def normalize_quat(q: Sequence[float]) -> tuple[float, float, float, float]:
    """Return ``q`` scaled to unit norm (helper for building poses)."""
    norm = math.sqrt(sum(float(v) * float(v) for v in q))
    if norm == 0.0 or not math.isfinite(norm):
        raise InvalidGeometry("cannot normalize a zero/non-finite quaternion")
    return tuple(float(v) / norm for v in q)  # type: ignore[return-value]


def quat_mul(a: Sequence[float], b: Sequence[float]) -> tuple[float, float, float, float]:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def quat_conj(q: Sequence[float]) -> tuple[float, float, float, float]:
    w, x, y, z = q
    return (w, -x, -y, -z)


def quat_rotate(q: Sequence[float], v: Sequence[float]) -> tuple[float, float, float]:
    """Rotate vector ``v`` by quaternion ``q``."""
    _, x, y, z = quat_mul(quat_mul(q, (0.0, *v)), quat_conj(q))
    return (x, y, z)


def pose_distance(a: Pose, b: Pose) -> float:
    """Euclidean distance between two poses' translations; rotation is ignored.

    Translation-only is how the change-detection pipeline is tuned.
    """
    dx = a.t[0] - b.t[0]
    dy = a.t[1] - b.t[1]
    dz = a.t[2] - b.t[2]
    return math.sqrt(dx * dx + dy * dy + dz * dz)


def point_in_aabb(point: Sequence[float], center: Sequence[float], half_sizes: Sequence[float]) -> bool:
    """Inclusive containment test of a point in an axis-aligned box."""
    return all(abs(point[i] - center[i]) <= half_sizes[i] for i in range(3))


def poses_close(a: Pose, b: Pose, tol: float) -> bool:
    """Component-wise comparison of two poses (quaternion signs literal)."""
    return all(abs(x - y) <= tol for x, y in zip(a.q, b.q)) and all(
        abs(x - y) <= tol for x, y in zip(a.t, b.t)
    )
