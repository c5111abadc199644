import math

import pytest
from hypothesis import given, strategies as st

from sgupdate.geometry import (
    BBox3,
    InvalidGeometry,
    Pose,
    point_in_aabb,
    pose_distance,
    poses_close,
    quat_conj,
    quat_mul,
    quat_rotate,
)

SQ2 = math.sqrt(0.5)


def normalize_quat(q):
    """``q`` scaled to unit norm."""
    norm = math.sqrt(sum(float(v) * float(v) for v in q))
    if norm == 0.0 or not math.isfinite(norm):
        raise InvalidGeometry("cannot normalize a zero/non-finite quaternion")
    return tuple(float(v) / norm for v in q)


def unit_quats():
    comp = st.floats(-1.0, 1.0, allow_nan=False)
    return (
        st.tuples(comp, comp, comp, comp)
        .filter(lambda q: sum(v * v for v in q) > 1e-4)
        .map(normalize_quat)
    )


# -- Pose / BBox3 validation ------------------------------------------------


def test_pose_requires_unit_quaternion():
    with pytest.raises(InvalidGeometry):
        Pose((1.0, 1.0, 0.0, 0.0), (0.0, 0.0, 0.0))


def test_pose_rejects_nan_translation():
    with pytest.raises(InvalidGeometry):
        Pose((1.0, 0.0, 0.0, 0.0), (float("nan"), 0.0, 0.0))


def test_pose_roundtrips_via_dict():
    p = Pose((SQ2, 0.0, SQ2, 0.0), (1.0, -2.0, 3.5))
    assert Pose.from_dict(p.to_dict()) == p


def test_bbox_requires_positive_extents():
    for bad in [(0.0, 1.0, 1.0), (1.0, -0.1, 1.0)]:
        with pytest.raises(InvalidGeometry):
            BBox3(bad)


def test_bbox_half_sizes_reorder_onto_world_axes():
    # extents are (width_x, height_z, depth_y)
    assert BBox3((2.0, 4.0, 6.0)).half_sizes_xyz() == (1.0, 3.0, 2.0)


def test_bbox_scalars():
    b = BBox3((0.3, 0.1, 0.2))
    assert b.max_extent == pytest.approx(0.3)
    assert b.volume == pytest.approx(0.006)


# -- quaternion algebra ------------------------------------------------------


def test_quat_rotate_known_values():
    z90 = (SQ2, 0.0, 0.0, SQ2)
    assert quat_rotate(z90, (1.0, 0.0, 0.0)) == pytest.approx((0.0, 1.0, 0.0))
    assert quat_rotate(z90, (0.0, 1.0, 0.0)) == pytest.approx((-1.0, 0.0, 0.0))
    y90 = (SQ2, 0.0, SQ2, 0.0)
    assert quat_rotate(y90, (1.0, 0.0, 0.0)) == pytest.approx((0.0, 0.0, -1.0))


@given(unit_quats(), st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5)))
def test_quat_rotate_preserves_length(q, v):
    rotated = quat_rotate(q, v)
    assert math.sqrt(sum(x * x for x in rotated)) == pytest.approx(
        math.sqrt(sum(x * x for x in v)), abs=1e-9
    )


@given(unit_quats())
def test_quat_conj_inverts(q):
    w, x, y, z = quat_mul(q, quat_conj(q))
    assert (w, x, y, z) == pytest.approx((1.0, 0.0, 0.0, 0.0), abs=1e-9)


# -- pose distance -----------------------------------------------------------


def test_pose_distance_translation_only_by_default():
    a = Pose.identity((0.0, 0.0, 0.0))
    b = Pose((0.0, 0.0, 0.0, 1.0), (3.0, 4.0, 0.0))  # upside down, 5m away
    assert pose_distance(a, b) == pytest.approx(5.0)


def translations():
    coord = st.floats(-5, 5)
    return st.tuples(coord, coord, coord)


@given(unit_quats(), unit_quats(), unit_quats(), translations(), translations(), translations())
def test_pose_distance_is_a_metric_on_samples(qa, qb, qc, ta, tb, tc):
    a, b, c = Pose(qa, ta), Pose(qb, tb), Pose(qc, tc)
    d = pose_distance(a, b)
    assert d == pytest.approx(math.dist(ta, tb), abs=1e-9)  # rotation never counts
    assert pose_distance(a, Pose(qc, ta)) == 0.0
    assert d == pose_distance(b, a)
    assert pose_distance(a, c) <= d + pose_distance(b, c) + 1e-9


# -- small helpers -----------------------------------------------------------


def test_point_in_aabb_boundary_is_inclusive():
    assert point_in_aabb((1.0, 0.0, 0.0), (0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    assert not point_in_aabb((1.0 + 1e-9, 0.0, 0.0), (0.0, 0.0, 0.0), (1.0, 1.0, 1.0))


def test_poses_close_uses_literal_quaternion_signs():
    a = Pose((SQ2, 0.0, 0.0, SQ2), (0.0, 0.0, 0.0))
    b = Pose((-SQ2, 0.0, 0.0, -SQ2), (0.0, 0.0, 0.0))
    assert poses_close(a, a, 1e-12)
    assert not poses_close(a, b, 1e-6)  # same rotation, different bytes


def test_normalize_quat_rejects_zero():
    with pytest.raises(InvalidGeometry):
        normalize_quat((0.0, 0.0, 0.0, 0.0))
