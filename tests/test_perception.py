"""Detector-side pipeline: visibility, matching, association, gating."""
import itertools
import math
import random
import weakref

import pytest
from hypothesis import assume, given, settings, strategies as st

from sgupdate.geometry import BBox3, Pose, pose_distance, quat_rotate
from sgupdate.graph import SceneGraph, serialize
from sgupdate.perception import (
    AssociationResult,
    CameraModel,
    ConfirmationStore,
    Observation,
    associate,
    confirm,
    expected_visible,
    point_in_frustum,
    _class_keys,
    _decisions,
    default_synonyms,
    semantic_match,
)
from sgupdate.records import UpdateAction
from sgupdate.simworld import World

from conftest import (
    all_pairs_associate,
    by_index,
    frustum_oracle,
    make_room,
    put,
    two_room_graph,
    visible_oracle,
    yaw_pose,
)

CAM = CameraModel(fov_h=math.pi / 2, fov_v=math.pi / 2, min_range=0.5, max_range=5.0)


def obs(label, t, extents=(0.2, 0.2, 0.2)):
    return Observation(label=label, pose=Pose.identity(t), bbox=BBox3(extents))


# -- camera model ------------------------------------------------------------


def test_camera_model_validation():
    with pytest.raises(ValueError):
        CameraModel(fov_h=0.0, fov_v=1.0, min_range=0.1, max_range=1.0)
    with pytest.raises(ValueError):
        CameraModel(fov_h=1.0, fov_v=math.pi + 0.2, min_range=0.1, max_range=1.0)
    with pytest.raises(ValueError):
        CameraModel(fov_h=1.0, fov_v=1.0, min_range=1.0, max_range=0.5)


def test_frustum_basics_facing_plus_x():
    robot = Pose.identity((0.0, 0.0, 0.0))
    assert point_in_frustum(robot, CAM, (1.0, 0.0, 0.0))
    assert not point_in_frustum(robot, CAM, (-1.0, 0.0, 0.0))  # behind
    assert not point_in_frustum(robot, CAM, (0.0, 1.0, 0.0))  # exactly sideways
    assert not point_in_frustum(robot, CAM, (0.4, 0.0, 0.0))  # inside min range
    assert not point_in_frustum(robot, CAM, (5.5, 0.0, 0.0))  # beyond max range


def test_frustum_boundaries_are_strict():
    robot = Pose.identity((0.0, 0.0, 0.0))
    # horizontal: atan2(1,1) == fov_h/2 exactly
    assert not point_in_frustum(robot, CAM, (1.0, 1.0, 0.0))
    assert point_in_frustum(robot, CAM, (1.0, 0.999, 0.0))
    # vertical boundary likewise
    assert not point_in_frustum(robot, CAM, (1.0, 0.0, 1.0))
    assert point_in_frustum(robot, CAM, (1.0, 0.0, 0.999))
    # range boundaries: exactly min/max are out
    assert not point_in_frustum(robot, CAM, (0.5, 0.0, 0.0))
    assert not point_in_frustum(robot, CAM, (5.0, 0.0, 0.0))
    assert point_in_frustum(robot, CAM, (4.999, 0.0, 0.0))


def test_frustum_follows_robot_yaw():
    robot = yaw_pose((2.0, 0.35, 1.0), math.pi / 2)  # facing +y
    assert point_in_frustum(robot, CAM, (2.0, 2.0, 1.0))
    assert not point_in_frustum(robot, CAM, (2.0, -1.0, 1.0))  # now behind
    # the left axis now points along -x
    assert point_in_frustum(robot, CAM, (1.0, 2.0, 1.0))


def test_expected_visible_filters_and_sorts(house2):
    robot = Pose.identity((0.5, 2.0, 1.0))  # in the kitchen facing +x
    put(house2, "kitchen", "cup", (2.0, 2.0, 1.0))
    put(house2, "kitchen", "counter", (2.5, 2.5, 1.0), rate=0.0)  # immovable: skipped
    held = put(house2, "kitchen", "plate", (2.0, 1.5, 1.0))
    house2.detach(held)  # held: skipped
    put(house2, "kitchen", "apple", (0.6, 2.0, 1.0))  # inside min range: skipped
    put(house2, "living room", "vase", (9.0, 2.0, 1.0))  # out of range
    assert expected_visible(house2, robot, CAM) == ["cup-1"]


def test_a_wall_hides_the_next_room_from_the_camera_and_the_detector(house2):
    """The kitchen (x in [0, 4]) and the living room (x in [4, 10]) share the
    wall x = 4. Every camera faces +x along one line, and the vase behind the
    wall is in its frustum and range: only a camera in the living room sees
    it, as the estimate expects and as the ideal detector reports."""
    cup = put(house2, "kitchen", "cup", (3.8, 2.0, 1.0))
    vase = put(house2, "living room", "vase", (4.6, 2.0, 1.0))
    world = World(house2)

    def seen(x):
        robot = Pose.identity((x, 2.0, 1.0))
        assert point_in_frustum(robot, CAM, house2.objects[vase].pose.t)
        labels = [o.label for o in world.synthetic_detect(robot, CAM)]
        return expected_visible(house2, robot, CAM), labels

    assert seen(3.0) == ([cup], ["cup"])  # in the kitchen
    assert seen(4.0) == ([], [])  # on the wall: the smaller room, the kitchen, holds it
    assert seen(4.05) == ([vase], ["vase"])  # in the living room
    assert seen(-0.2) == ([], [])  # outside every room


# Multiples of a range boundary: on it, a few ulps and a few QUAT_NORM_TOL to
# either side, and a millionth and two millionths beyond it.
BOUNDARY_SCALES = (1.0, 1.0 - 1e-15, 1.0 + 1e-15, 1.0 - 2e-9, 1.0 + 1e-9, 1.0 + 2e-9, 1.0 + 1e-6, 1.0 + 2e-6)


@st.composite
def unit_vector(draw, n):
    v = draw(st.tuples(*[st.floats(-1.0, 1.0)] * n))
    norm = math.sqrt(sum(x * x for x in v))
    assume(norm > 1e-3)
    return tuple(x / norm for x in v)


@st.composite
def visibility_case(draw):
    """A camera whose quaternion norm is off by up to 1e-9, and a graph of
    points placed at random distances or at the range boundaries."""
    min_range = draw(st.floats(0.05, 2.0))
    cam = CameraModel(
        fov_h=draw(st.floats(0.1, 3.0)),
        fov_v=draw(st.floats(0.1, 3.0)),
        min_range=min_range,
        max_range=min_range + draw(st.floats(0.01, 10.0)),
    )
    q = draw(unit_vector(4))
    norm_scale = 1.0 + draw(st.floats(-0.999e-9, 0.999e-9))
    origin = draw(st.tuples(*[st.floats(-50.0, 50.0)] * 3))
    robot = Pose(tuple(c * norm_scale for c in q), origin)

    g = SceneGraph()
    g.add_room(make_room("hall", (0.0, 0.0, 0.0), (200.0, 200.0, 200.0)))
    for _ in range(draw(st.integers(1, 12))):
        if draw(st.booleans()):  # somewhere ahead of the camera, likely in view
            a, b = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
            norm = math.sqrt(1.0 + a * a + b * b)
            direction = quat_rotate(q, (1.0 / norm, a / norm, b / norm))
        else:
            direction = draw(unit_vector(3))
        boundary = draw(st.sampled_from(("min", "max", None)))
        if boundary is None:
            dist = draw(st.floats(0.0, 1.5)) * cam.max_range
        else:
            dist = (cam.min_range if boundary == "min" else cam.max_range) * draw(
                st.sampled_from(BOUNDARY_SCALES)
            )
        t = tuple(o + dist * d for o, d in zip(origin, direction))
        oid = put(g, "hall", "cup", t, rate=draw(st.sampled_from((0.0, 0.05))))
        if draw(st.integers(0, 4)) == 0:
            g.detach(oid)
    return g, robot, cam


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(visibility_case())
def test_expected_visible_matches_a_test_of_every_object(case):
    g, robot, cam = case
    assert expected_visible(g, robot, cam) == visible_oracle(g, robot, cam)


# Multiples of a half field of view or a range boundary: on it, and a few
# ulps, a few QUAT_NORM_TOL and a millionth to either side.
EDGE_SCALES = (1.0, 1.0 - 1e-15, 1.0 + 1e-15, 1.0 - 2e-9, 1.0 + 2e-9, 1.0 - 1e-6, 1.0 + 1e-6)


def sensor_offset(axis, angle, other, dist):
    """A camera-frame offset of length ``dist`` at ``angle`` from the forward
    axis towards camera axis ``axis`` (1 left, 2 up) and at ``other`` towards
    the remaining one, as ``atan2`` measures them while the offset lies ahead."""
    v = [math.cos(angle), 0.0, 0.0]
    v[axis] = math.sin(angle)
    v[3 - axis] = abs(math.cos(angle)) * math.tan(other)
    norm = math.sqrt(sum(c * c for c in v))
    return tuple(dist * c / norm for c in v)


@st.composite
def frustum_edge_case(draw):
    """A camera whose quaternion norm is off by up to 1e-9, with fields of
    view up to just below pi, in one room that also holds points on the
    frustum's planes: the back plane or a side, at the half field of view
    (or just ahead of and behind the camera) and at a drawn or boundary
    distance, each scaled by ``EDGE_SCALES``.
    """

    def field_of_view():
        if draw(st.integers(0, 3)) == 0:
            return draw(st.sampled_from((math.pi - 1e-6, math.nextafter(math.pi, 0.0))))
        return draw(st.floats(0.1, 3.1))

    def distance():
        boundary = draw(st.sampled_from(("min", "max", None)))
        if boundary is None:
            return draw(st.floats(0.0, 1.2)) * cam.max_range
        return (cam.min_range if boundary == "min" else cam.max_range) * draw(st.sampled_from(EDGE_SCALES))

    min_range = draw(st.floats(0.05, 2.0))
    cam = CameraModel(field_of_view(), field_of_view(), min_range, min_range + draw(st.floats(0.01, 10.0)))
    halves = {1: cam.fov_h / 2.0, 2: cam.fov_v / 2.0}
    q = draw(unit_vector(4))
    norm_scale = 1.0 + draw(st.floats(-0.999e-9, 0.999e-9))
    origin = draw(st.tuples(*[st.floats(-50.0, 50.0)] * 3))
    robot = Pose(tuple(c * norm_scale for c in q), origin)

    g = SceneGraph()
    side = 3.0 * cam.max_range  # every point lies within 1.2 * max_range of the camera
    g.add_room(make_room("hall", origin, (side, side, side)))
    for _ in range(draw(st.integers(1, 16))):
        plane = draw(st.sampled_from(("back", "left", "right", "up", "down")))
        scale, dist = draw(st.sampled_from(EDGE_SCALES)), distance()
        if plane == "back":  # ahead of the camera by 1 - scale of dist
            across = draw(unit_vector(2))
            v = (1.0 - scale, across[0], across[1])
            norm = math.sqrt(sum(c * c for c in v))
            offset = tuple(dist * c / norm for c in v)
        else:
            axis = 1 if plane in ("left", "right") else 2
            sign = 1.0 if plane in ("left", "up") else -1.0
            other = draw(st.floats(-0.999, 0.999)) * halves[3 - axis]
            offset = sensor_offset(axis, sign * halves[axis] * scale, other, dist)
        t = tuple(o + c for o, c in zip(origin, quat_rotate(q, offset)))
        put(g, "hall", "cup", t, rate=draw(st.sampled_from((0.0, 0.05, 0.05, 0.05))))
    return g, robot, cam


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(frustum_edge_case())
def test_points_on_the_frustum_planes_get_the_oracles_decision(case):
    g, robot, cam = case
    for node in g.objects.values():
        assert point_in_frustum(robot, cam, node.pose.t) == frustum_oracle(robot, cam, node.pose.t)
    assert expected_visible(g, robot, cam) == visible_oracle(g, robot, cam)


# -- the memo of frustum decisions --------------------------------------------

# Spots on KITCHEN_CAM's frustum: at the min range, at the max range (behind
# the wall), on a side plane and exactly sideways.
EDGE_SPOTS = ((1.0, 2.0, 1.0), (5.5, 2.0, 1.0), (2.5, 4.0, 1.0), (0.5, 3.0, 1.0))
KITCHEN_CAM = Pose.identity((0.5, 2.0, 1.0))  # facing +x across the wall at x = 4


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.data())
def test_a_memo_shared_by_a_graph_and_its_copy_gives_the_oracles_answer(data):
    """Between calls from one camera pose, the graph or its copy moves,
    detaches or adds an object, often to a spot another object held; the
    graph asked alternates, and a second pose sometimes takes the memo's one
    slot. Every answer is the test of every object's."""
    draw = data.draw
    spot = st.one_of(
        st.sampled_from(EDGE_SPOTS),
        st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 4.0), st.floats(0.0, 3.0)),
    )
    spots = draw(st.lists(spot, min_size=1, max_size=6))
    where = st.one_of(st.just(KITCHEN_CAM.t), st.tuples(st.floats(0.1, 9.9), st.just(2.0), st.just(1.0)))
    other = yaw_pose(draw(where), draw(st.floats(-math.pi, math.pi)))
    g = two_room_graph()
    for t in spots:
        put(g, "kitchen" if t[0] < 4.0 else "living room", "cup", t, rate=draw(st.sampled_from((0.0, 0.05))))
    graphs = (g, g.copy())
    for step in range(draw(st.integers(1, 12))):
        edited = draw(st.sampled_from(graphs))
        attached = sorted(oid for oid, node in edited.objects.items() if node.attached)
        op = draw(st.sampled_from(("move", "detach", "add", "none")))
        if op == "add" or op != "none" and not attached:
            put(edited, draw(st.sampled_from(("kitchen", "living room"))), "cup", draw(st.sampled_from(spots)))
        elif op == "move":
            oid = draw(st.sampled_from(attached))
            room = edited.rooms[edited.objects[oid].room].label
            target = draw(st.sampled_from(("kitchen", "living room")))
            edited.move_object(room, target, oid, Pose.identity(draw(st.sampled_from(spots))), now=float(step))
        elif op == "detach":
            edited.detach(draw(st.sampled_from(attached)))
        if draw(st.integers(0, 3)) == 0:
            expected_visible(edited, other, CAM)
        asked = graphs[step % 2]
        assert expected_visible(asked, KITCHEN_CAM, CAM) == visible_oracle(asked, KITCHEN_CAM, CAM), step


def hall_at_origin():
    """A camera at the origin facing +x, in a hall holding cups on the axes
    and on the frustum's planes, signed zeros included."""
    g = SceneGraph()
    g.add_room(make_room("hall", (0.0, 0.0, 0.0), (12.0, 12.0, 12.0)))
    spots = [
        (1.0, 0.0, 0.0), (1.0, -0.0, -0.0), (2.0, 2.0, 0.0), (2.0, 0.0, -2.0), (0.0, 1.0, 0.0),
        (-0.0, 1.0, 0.0), (0.5, 0.0, 0.0), (5.0, 0.0, 0.0), (4.999, 0.0, 0.0), (-1.0, 0.0, 0.0),
    ]
    for t in spots:
        put(g, "hall", "cup", t)
    return g


@pytest.mark.parametrize(
    "equal",
    [
        Pose((1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
        Pose((1.0, -0.0, -0.0, -0.0), (-0.0, -0.0, -0.0)),
    ],
    ids=["rebuilt", "signed zeros"],
)
def test_a_pose_equal_in_value_reads_the_warm_memo_and_gets_the_oracles_answer(equal):
    first = Pose((1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    g = hall_at_origin()
    _decisions.cache_clear()
    assert expected_visible(g, first, CAM) == visible_oracle(g, first, CAM)
    hits = _decisions.cache_info().hits
    got = expected_visible(g, equal, CAM)
    assert _decisions.cache_info().hits == hits + 1  # the warm memo answered
    assert got == visible_oracle(g, equal, CAM) == ["cup-1", "cup-2", "cup-9"]
    for oid, node in g.objects.items():
        assert point_in_frustum(equal, CAM, node.pose.t) == (oid in got), oid

    expected_visible(g, yaw_pose((0.0, 0.0, 0.0), 1.0), CAM)
    assert _decisions.cache_info().currsize == 1  # the second pose took the one slot
    graph = weakref.ref(g)
    del g
    assert graph() is None  # the memo keeps no graph alive


# -- label matching ----------------------------------------------------------


def test_semantic_match_normalizes_and_uses_synonyms():
    assert semantic_match("Cup", "  cup ")
    assert semantic_match("TV   Remote", "remote control")
    assert semantic_match("remote control", "tv remote")  # symmetric
    assert semantic_match("sofa", "couch")
    assert not semantic_match("cup", "mug")


def test_overlapping_synonym_groups_are_rejected():
    keys = _class_keys([frozenset({"sofa", "couch"}), frozenset({"tv", "television"})])
    assert keys == {"sofa": "couch", "couch": "couch", "tv": "television", "television": "television"}
    with pytest.raises(ValueError, match="'couch' appears in two groups"):
        _class_keys([frozenset({"sofa", "couch"}), frozenset({"couch", "settee"})])


def test_packaged_synonyms_load_and_match_as_a_group_scan():
    groups = default_synonyms()
    assert groups and _class_keys(groups)
    labels = sorted(set().union(*groups)) + ["cup", "mug"]
    for a, b in itertools.product(labels, repeat=2):
        in_one_group = a == b or any(a in g and b in g for g in groups)
        assert semantic_match(a, b) == in_one_group, (a, b)


# -- association -------------------------------------------------------------


def big_room_graph():
    g = SceneGraph()
    g.add_room(make_room("hall", (20.0, 20.0, 1.5), (40.0, 3.0, 40.0)))
    return g


def test_associate_partitions_everything(house2):
    c1 = put(house2, "kitchen", "cup", (1.0, 1.0, 1.0))
    c2 = put(house2, "kitchen", "cup", (3.0, 3.0, 1.0))
    b1 = put(house2, "kitchen", "banana", (1.0, 3.0, 1.0))
    observed = [
        obs("cup", (1.05, 1.0, 1.0)),  # static for c1
        obs("cup", (3.0, 2.5, 1.0)),  # moved for c2 (0.5 > eps)
        obs("book", (2.0, 2.0, 1.0)),  # unknown: addition candidate
    ]
    res = associate([c1, c2, b1], observed, house2, epsilon=0.25)
    assert res.static_pairs == [(c1, observed[0])]
    assert res.moved_pairs == [(c2, observed[1])]
    assert res.remove_candidates == [b1]
    assert res.add_candidates == [observed[2]]
    # nothing lost, nothing duplicated
    n = len(res.static_pairs) + len(res.moved_pairs) + len(res.remove_candidates)
    assert n == 3 and len(res.add_candidates) == 1


def test_associate_never_pairs_across_labels(house2):
    c = put(house2, "kitchen", "cup", (1.0, 1.0, 1.0))
    o = obs("banana", (1.0, 1.0, 1.0))  # geometrically perfect, semantically wrong
    res = associate([c], [o], house2, epsilon=0.25)
    assert res.remove_candidates == [c]
    assert res.add_candidates == [o]


def test_associate_pairs_synonyms(house2):
    r = put(house2, "kitchen", "tv remote", (1.0, 1.0, 1.0))
    res = associate([r], [obs("remote control", (1.02, 1.0, 1.0))], house2, epsilon=0.25)
    assert res.static_pairs and res.static_pairs[0][0] == r


def test_associate_is_order_invariant_for_distinct_distances(house2):
    ids = [
        put(house2, "kitchen", "cup", (1.0, 1.0, 1.0)),
        put(house2, "kitchen", "cup", (3.0, 1.0, 1.0)),
    ]
    observed = [obs("cup", (1.1, 1.0, 1.0)), obs("cup", (2.8, 1.0, 1.0))]
    a = associate(ids, observed, house2, epsilon=0.25)
    b = associate(ids, list(reversed(observed)), house2, epsilon=0.25)
    assert [(oid, o.pose) for oid, o in a.static_pairs] == [
        (oid, o.pose) for oid, o in b.static_pairs
    ]


def test_associate_greedy_takes_nearest_first_even_when_suboptimal(house2):
    # classic chain: greedy gives B->O1 then A->O2; a min-cost matching
    # would prefer A->O1, B->O2. This documents the intended behavior.
    a = put(house2, "kitchen", "cup", (1.0, 1.0, 1.0))
    b = put(house2, "kitchen", "cup", (1.6, 1.0, 1.0))
    o1, o2 = obs("cup", (1.5, 1.0, 1.0)), obs("cup", (2.3, 1.0, 1.0))
    res = associate([a, b], [o1, o2], house2, epsilon=0.25)
    assert res.static_pairs == [(b, o1)]
    assert res.moved_pairs == [(a, o2)]


def test_associate_static_test_is_strictly_less_than_epsilon(house2):
    near = put(house2, "kitchen", "cup", (1.0, 1.0, 1.0))
    far = put(house2, "kitchen", "banana", (1.0, 3.0, 1.0))
    observed = [obs("cup", (1.2499, 1.0, 1.0)), obs("banana", (1.25, 3.0, 1.0))]
    res = associate([near, far], observed, house2, epsilon=0.25)
    assert res.static_pairs == [(near, observed[0])]
    assert res.moved_pairs == [(far, observed[1])]  # displacement exactly epsilon


def test_associate_requires_positive_epsilon(house2):
    with pytest.raises(ValueError):
        associate([], [], house2, epsilon=0.0)


# Two synonym groups, labels in no group, and one spelling that normalizes.
FRAME_LABELS = ("tv remote", "remote control", "remote", "sofa", "couch", "cup", "mug", " Cup ")


@st.composite
def association_frame(draw):
    """A graph, expected ids and observations on a coarse grid: repeated
    labels and exactly equal distances are common."""
    g = big_room_graph()
    label = st.sampled_from(FRAME_LABELS)
    cell = st.tuples(st.integers(0, 3), st.integers(0, 3))
    ids = [put(g, "hall", draw(label), (2.0 + x, 2.0 + y, 1.0)) for x, y in draw(st.lists(cell, max_size=8))]
    expected = draw(st.permutations(ids))[: draw(st.integers(0, len(ids)))]
    observed = [obs(draw(label), (2.0 + x, 2.0 + y, 1.0)) for x, y in draw(st.lists(cell, max_size=8))]
    return g, expected, observed, draw(st.sampled_from((0.5, 1.0, 1.5)))


@st.composite
def crowded_association_frame(draw):
    """Two classes of 20 or more on each side at continuous coordinates, z
    varied, and observations planted on and one ulp either side of an
    expected object's ``x ± e``, where ``e`` is epsilon or just inside it.
    A planted observation may get a second expected object at a distance
    between ``e`` and epsilon: it takes the observation only if a window
    narrower than epsilon misses the first."""
    g = big_room_graph()
    epsilon = draw(st.sampled_from((0.1, 0.25, 0.7)))
    side = draw(st.sampled_from((1.0, 4.0)))  # crowded, or a few pairs near
    point = st.tuples(st.floats(2.0, 2.0 + side), st.floats(2.0, 2.0 + side), st.floats(0.2, 2.8))
    ids, observed = [], []
    for labels in (("tv remote", "remote control"), ("cup",)):
        label = st.sampled_from(labels)
        ids += [put(g, "hall", draw(label), draw(point)) for _ in range(draw(st.integers(20, 30)))]
        observed += [obs(draw(label), draw(point)) for _ in range(draw(st.integers(20, 30)))]
    observed = draw(st.permutations(observed))
    for _ in range(draw(st.integers(0, 8))):
        node = g.objects[draw(st.sampled_from(ids))]
        x, y, z = node.pose.t
        inside = draw(st.sampled_from((0.0, 1e-7, 1e-12)))
        edge = x + draw(st.sampled_from((-1.0, 1.0))) * epsilon * (1.0 - inside)
        ox = draw(st.sampled_from((edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf))))
        observed.insert(draw(st.integers(0, len(observed))), obs(node.label, (ox, y, z)))
        if draw(st.booleans()):
            ids.append(put(g, "hall", node.label, (ox, y + epsilon * (1.0 - inside / 2.0), z)))
    expected = draw(st.permutations(ids))[: len(ids) - draw(st.integers(0, 4))]
    return g, expected, observed, epsilon


def assert_equals_all_pairs(frame):
    g, expected, observed, epsilon = frame
    got = associate(expected, observed, g, epsilon)
    want = all_pairs_associate(expected, observed, g, epsilon)
    assert got == want
    assert by_index(got, observed) == by_index(want, observed)


@settings(max_examples=300, deadline=None)
@given(association_frame())
def test_associate_equals_the_all_pairs_oracle(frame):
    assert_equals_all_pairs(frame)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(crowded_association_frame())
def test_associate_equals_the_all_pairs_oracle_on_crowded_classes(frame):
    assert_equals_all_pairs(frame)


# -- greedy vs exhaustive matching oracle -------------------------------------
#
# Inside the margins a real tracker enforces (well-separated objects, noise
# well under the gate, displacement capped by frame rate), the greedy
# matching is provably the unique min-cost matching. The generator below
# samples exactly that regime; the oracle enumerates every maximal matching.

EPS = 0.25


def min_cost_matching(dist):
    """Exhaustive min-cost maximal matching. dist: {(i, j): d}."""
    rows = sorted({i for i, _ in dist})
    cols = sorted({j for _, j in dist})
    if not rows or not cols:
        return set()
    r = min(len(rows), len(cols))
    best_cost, best_pairs = None, set()
    for chosen_rows in itertools.combinations(rows, r):
        for chosen_cols in itertools.permutations(cols, r):
            pairs = set(zip(chosen_rows, chosen_cols))
            cost = sum(dist[p] for p in pairs)
            if best_cost is None or cost < best_cost - 1e-12:
                best_cost, best_pairs = cost, pairs
    return best_pairs


def sample_regime_instance(rng, graph, label):
    """One label group in the provable regime.

    Returns (expected ids, observations, expected category per id).
    """
    n = rng.randint(0, 4)
    base_x = rng.uniform(2.0, 30.0)
    base_y = rng.uniform(2.0, 30.0)
    ids, fates = [], {}
    slots = [(base_x + 1.6 * i, base_y + 1.6 * ((i * 7) % 3)) for i in range(n)]
    for x, y in slots:
        oid = put(graph, "hall", label, (x, y, 1.0))
        ids.append(oid)
    has_removed = False
    observations = []
    for oid in ids:
        x, y, _ = graph.objects[oid].pose.t
        fate = rng.choice(["static", "moved", "removed"])
        fates[oid] = fate
        if fate == "static":
            radius = rng.uniform(0.0, 0.44 * EPS)
            theta = rng.uniform(0.0, 2 * math.pi)
            observations.append(
                obs(label, (x + radius * math.cos(theta), y + radius * math.sin(theta), 1.0))
            )
        elif fate == "moved":
            radius = rng.uniform(1.06 * EPS, 1.5 * EPS)
            theta = rng.uniform(0.0, 2 * math.pi)
            observations.append(
                obs(label, (x + radius * math.cos(theta), y + radius * math.sin(theta), 1.0))
            )
        else:
            has_removed = True
    if not has_removed:
        for _ in range(rng.randint(0, 2)):
            # far from every same-label expected object
            ox = base_x + rng.choice([-1, 1]) * rng.uniform(2.5 * EPS + 6.0, 8.0)
            oy = base_y + rng.uniform(-1.0, 1.0)
            observations.append(obs(label, (ox, oy, 1.0)))
    rng.shuffle(observations)
    return ids, observations, fates


def check_instance_against_oracle(rng, n_groups=3):
    graph = big_room_graph()
    all_ids, all_obs, fates = [], [], {}
    for gi in range(rng.randint(1, n_groups)):
        ids, observations, f = sample_regime_instance(rng, graph, label=f"thing{gi}")
        all_ids += ids
        all_obs += observations
        fates.update(f)
    rng.shuffle(all_obs)
    res = associate(all_ids, all_obs, graph, epsilon=EPS)

    dist = {}
    for oid in all_ids:
        node = graph.objects[oid]
        for j, o in enumerate(all_obs):
            if node.label == o.label:
                dist[(oid, j)] = pose_distance(node.pose, o.pose)
    # per-label-group exhaustive matching (groups are independent)
    oracle_pairs = set()
    for label in {graph.objects[i].label for i in all_ids}:
        sub = {k: v for k, v in dist.items() if graph.objects[k[0]].label == label}
        oracle_pairs |= min_cost_matching(sub)

    greedy_pairs = {
        (oid, all_obs.index(o)) for oid, o in res.static_pairs + res.moved_pairs
    }
    assert greedy_pairs == oracle_pairs

    # categories follow the scripted fates
    static_ids = {oid for oid, _ in res.static_pairs}
    moved_ids = {oid for oid, _ in res.moved_pairs}
    for oid, fate in fates.items():
        if fate == "static":
            assert oid in static_ids
        elif fate == "moved":
            assert oid in moved_ids
        else:
            assert oid in res.remove_candidates


def test_greedy_equals_min_cost_oracle_in_regime():
    rng = random.Random(440)
    for _ in range(120):
        check_instance_against_oracle(rng)


# -- confirmation gating -----------------------------------------------------


def removal_result(oid):
    return AssociationResult(remove_candidates=[oid])


def test_removal_requires_k_consecutive_frames(house2):
    oid = put(house2, "kitchen", "cup", (1, 1, 1))
    store = ConfirmationStore()
    out0 = confirm(store, house2, removal_result(oid), frame=0, now=10.0, k=2)
    assert out0.records == []
    out1 = confirm(store, house2, removal_result(oid), frame=1, now=11.0, k=2)
    assert [r.action for r in out1.records] == [UpdateAction.REMOVED]
    rec = out1.records[0]
    assert rec.target_object == "cup" and rec.source_room == "kitchen"
    assert store.removal == {}  # counter consumed


def test_removal_counter_resets_after_frame_gap(house2):
    oid = put(house2, "kitchen", "cup", (1, 1, 1))
    store = ConfirmationStore()
    confirm(store, house2, removal_result(oid), frame=0, now=0.0, k=2)
    out = confirm(store, house2, removal_result(oid), frame=2, now=2.0, k=2)  # gap at 1
    assert out.records == []
    out = confirm(store, house2, removal_result(oid), frame=3, now=3.0, k=2)
    assert len(out.records) == 1


def test_contrary_evidence_clears_removal_counter(house2):
    oid = put(house2, "kitchen", "cup", (1.0, 1.0, 1.0))
    store = ConfirmationStore()
    confirm(store, house2, removal_result(oid), frame=0, now=0.0, k=2)
    seen = AssociationResult(static_pairs=[(oid, obs("cup", (1.02, 1.0, 1.0)))])
    out = confirm(store, house2, seen, frame=1, now=1.0, k=2)
    assert out.records == []
    assert out.touched == [oid]
    assert house2.objects[oid].last_seen == 0.0  # the caller executes the touch
    out = confirm(store, house2, removal_result(oid), frame=2, now=2.0, k=2)
    assert out.records == []  # count restarted at 1


def test_confirm_leaves_the_graph_unchanged(house2):
    still = put(house2, "kitchen", "cup", (1.0, 1.0, 1.0))
    moved = put(house2, "kitchen", "plate", (2.0, 1.0, 1.0))
    gone = put(house2, "kitchen", "bowl", (3.0, 1.0, 1.0))
    lamp = put(house2, "kitchen", "lamp", (1.0, 3.0, 1.0))
    before = serialize(house2)
    result = AssociationResult(
        static_pairs=[(lamp, obs("lamp", (1.0, 3.0, 1.0))), (still, obs("cup", (1.0, 1.0, 1.0)))],
        moved_pairs=[(moved, obs("plate", (8.0, 2.0, 1.0)))],
        remove_candidates=[gone],
        add_candidates=[obs("book", (2.0, 3.0, 1.0))],
    )
    out = confirm(ConfirmationStore(), house2, result, frame=0, now=5.0, k=1)
    assert [r.action for r in out.records] == [
        UpdateAction.MOVED, UpdateAction.REMOVED, UpdateAction.ADDED,
    ]
    assert out.touched == [still, lamp]  # sorted, for one touch
    assert serialize(house2) == before


def test_k_equals_one_confirms_immediately(house2):
    oid = put(house2, "kitchen", "cup", (1, 1, 1))
    out = confirm(ConfirmationStore(), house2, removal_result(oid), frame=0, now=0.0, k=1)
    assert len(out.records) == 1
    with pytest.raises(ValueError):
        confirm(ConfirmationStore(), house2, removal_result(oid), frame=0, now=0.0, k=0)


def test_addition_requires_consistent_consecutive_observations(house2):
    store = ConfirmationStore()
    first = AssociationResult(add_candidates=[obs("book", (1.0, 1.0, 1.0))])
    out = confirm(store, house2, first, frame=0, now=0.0, k=2)
    assert out.records == [] and len(store.additions) == 1
    again = AssociationResult(add_candidates=[obs("book", (1.05, 1.0, 1.0))])
    out = confirm(store, house2, again, frame=1, now=1.0, k=2)
    assert [r.action for r in out.records] == [UpdateAction.ADDED]
    rec = out.records[0]
    assert rec.target_object == "book" and rec.target_room == "kitchen"
    assert rec.pose is not None and rec.bbox is not None


def test_addition_with_wandering_pose_never_confirms(house2):
    store = ConfirmationStore()
    for frame, x in enumerate([1.0, 1.6, 2.2, 2.8]):  # hops > epsilon
        out = confirm(
            store,
            house2,
            AssociationResult(add_candidates=[obs("book", (x, 1.0, 1.0))]),
            frame=frame,
            now=float(frame),
            k=2,
        )
        assert out.records == []


def test_addition_tracker_dies_on_missed_frame(house2):
    store = ConfirmationStore()
    cand = AssociationResult(add_candidates=[obs("book", (1.0, 1.0, 1.0))])
    confirm(store, house2, cand, frame=0, now=0.0, k=2)
    confirm(store, house2, AssociationResult(), frame=1, now=1.0, k=2)
    assert store.additions == []
    out = confirm(store, house2, cand, frame=2, now=2.0, k=2)
    assert out.records == []  # starting over


def test_moved_pair_emits_immediately_and_clears_removal_counter(house2):
    oid = put(house2, "kitchen", "cup", (1.0, 1.0, 1.0))
    store = ConfirmationStore()
    confirm(store, house2, removal_result(oid), frame=0, now=0.0, k=2)
    moved = AssociationResult(moved_pairs=[(oid, obs("cup", (8.0, 2.0, 1.0)))])
    out = confirm(store, house2, moved, frame=1, now=1.0, k=2)
    assert len(out.records) == 1
    rec = out.records[0]
    assert rec.action is UpdateAction.MOVED
    assert (rec.source_room, rec.target_room) == ("kitchen", "living room")
    assert not rec.refines_geometry
    assert store.removal == {}


def test_moved_pair_same_room_provisional_is_geometry_refinement(house2):
    oid = put(house2, "kitchen", "cup", (2.0, 2.0, 1.5), pose_provisional=True)
    moved = AssociationResult(moved_pairs=[(oid, obs("cup", (1.0, 1.0, 1.0)))])
    out = confirm(ConfirmationStore(), house2, moved, frame=0, now=0.0, k=2)
    assert out.records[0].refines_geometry


def test_moved_provisional_across_rooms_is_a_real_move(house2):
    oid = put(house2, "kitchen", "cup", (2.0, 2.0, 1.5), pose_provisional=True)
    moved = AssociationResult(moved_pairs=[(oid, obs("cup", (8.0, 2.0, 1.0)))])
    out = confirm(ConfirmationStore(), house2, moved, frame=0, now=0.0, k=2)
    assert not out.records[0].refines_geometry


def test_observations_outside_every_room_are_skipped_not_applied(house2):
    oid = put(house2, "kitchen", "cup", (1.0, 1.0, 1.0))
    moved = AssociationResult(moved_pairs=[(oid, obs("cup", (99.0, 99.0, 99.0)))])
    out = confirm(ConfirmationStore(), house2, moved, frame=0, now=0.0, k=2)
    assert out.records == [] and len(out.skipped) == 1

    store = ConfirmationStore()
    floating = AssociationResult(add_candidates=[obs("book", (99.0, 99.0, 99.0))])
    confirm(store, house2, floating, frame=0, now=0.0, k=2)
    out = confirm(store, house2, floating, frame=1, now=1.0, k=2)
    assert out.records == [] and len(out.skipped) == 1
    assert len(store.additions) == 1  # evidence retained, not applied
