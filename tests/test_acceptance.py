"""Acceptance gate: one test per shipped guarantee, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
pass. Every criterion is self-contained (no imports from sibling test
modules) so this file alone certifies a build.
"""
import itertools
import json
import math
import random
import time
from contextlib import contextmanager
from importlib import resources

import pytest

from sgupdate.decay import half_probability_time, persistence_probability
from sgupdate.geometry import BBox3, Pose, pose_distance
from sgupdate.graph import (
    RoomNode,
    SceneGraph,
    check_invariants,
    deserialize,
    graphs_equal,
    graphs_equivalent,
    serialize,
)
from sgupdate.harness import replay_runlog, run_scenario
from sgupdate.perception import AssociationResult, ConfirmationStore, Observation, associate, confirm
from sgupdate.records import UpdateAction
from sgupdate.simworld import load_house

SCENARIO = resources.files("sgupdate.data").joinpath("scenario_house.json")


@contextmanager
def criterion(name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL  {name}  ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS  {name}  ({elapsed:.2f}s)")
    assert elapsed < budget_s, f"{name} exceeded its {budget_s}s budget ({elapsed:.2f}s)"


# ---------------------------------------------------------------------------
# 1. persistence decay matches the closed form


def test_acceptance_decay_model():
    with criterion("decay model matches closed form at 1e-9", budget_s=1.0):
        for rate in (0.01, 0.1, 1.0, 10.0):
            for elapsed in (0.0, 0.1, 0.5, 1.0, 5.0, 10.0, 100.0, 650.0 / rate):
                got = persistence_probability(rate, elapsed, 0.0)
                # algebraically equivalent form, computed along a different path
                e = math.exp(-rate * elapsed)
                want = 2.0 * e / (1.0 + e)
                assert abs(got - want) <= 1e-9, (rate, elapsed)
            # half-probability crossing sits at ln(3)/rate
            t_half = half_probability_time(rate)
            assert abs(t_half - math.log(3.0) / rate) <= 1e-12
            assert abs(persistence_probability(rate, t_half, 0.0) - 0.5) <= 1e-9
        # rate zero pins the probability at exactly 1, arbitrarily far out
        for elapsed in (0.0, 1.0, 1e6, 1e12):
            assert persistence_probability(0.0, elapsed, 0.0) == 1.0
        # far tail: the overflow guard keeps the value finite and tiny
        assert persistence_probability(10.0, 200.0, 0.0) == pytest.approx(
            2.0 * math.exp(-2000.0), abs=1e-9
        )


# ---------------------------------------------------------------------------
# 2. graph primitives survive a long randomized workout


def test_acceptance_graph_primitives_randomized():
    with criterion("graph invariants hold through 1000+ random primitives", budget_s=30.0):
        rng = random.Random(99)
        g = SceneGraph()
        g.add_room(RoomNode("kitchen", "kitchen", Pose.identity((2, 2, 1.5)), BBox3((4, 3, 4))))
        g.add_room(
            RoomNode("living room", "living room", Pose.identity((7, 2, 1.5)), BBox3((6, 3, 4)))
        )
        g.add_access("kitchen", "living room")
        rooms = ["kitchen", "living room"]
        spots = {"kitchen": (2.0, 2.0, 1.0), "living room": (7.0, 2.0, 1.0)}
        labels = ["cup", "plate", "vase", "book", "lamp"]
        detached = []
        ops = 0

        def random_pose(room):
            x, y, z = spots[room]
            return Pose.identity((x + rng.uniform(-1.5, 1.5), y + rng.uniform(-1.5, 1.5), z))

        for step in range(1500):
            attached = [oid for oid in sorted(g.objects) if g.objects[oid].attached]
            op = rng.choice(["add", "remove", "move", "touch", "detach", "reattach"])
            if op != "add" and not attached and not (op == "reattach" and detached):
                op = "add"
            if op == "add":
                room = rng.choice(rooms)
                g.add_object(
                    room, rng.choice(labels), random_pose(room), BBox3((0.2, 0.2, 0.2)),
                    rng.choice([0.0, 0.05, 0.2]), float(step),
                )
            elif op == "remove":
                oid = rng.choice(attached)
                g.remove_object(g.rooms[g.objects[oid].room].label, oid)
            elif op == "move":
                oid = rng.choice(attached)
                room = rng.choice(rooms)
                g.move_object(
                    g.rooms[g.objects[oid].room].label, room, oid, random_pose(room), float(step)
                )
            elif op == "touch":
                g.touch([rng.choice(attached)], float(step))
            elif op == "detach":
                oid = rng.choice(attached)
                g.detach(oid)
                detached.append(oid)
            elif op == "reattach":
                if not detached:
                    continue
                oid = detached.pop()
                room = rng.choice(rooms)
                g.reattach(oid, room, random_pose(room), float(step))
            ops += 1
            problems = check_invariants(g)
            assert problems == [], f"step {step}: {problems}"

            still_attached = [oid for oid in sorted(g.objects) if g.objects[oid].attached]
            if step % 250 == 0 and still_attached:
                # moving is the same thing as remove followed by add
                oid = rng.choice(still_attached)
                room = rng.choice(rooms)
                pose = random_pose(room)
                via_move, via_pair = g.copy(), g.copy()
                via_move.move_object(
                    via_move.rooms[via_move.objects[oid].room].label, room, oid, pose, 1e6
                )
                node = via_pair.remove_object(via_pair.rooms[via_pair.objects[oid].room].label, oid)
                via_pair.add_object(room, node.label, pose, node.bbox, node.decay_rate, 1e6)
                assert graphs_equivalent(via_move, via_pair)

        assert ops >= 1000
        assert serialize(deserialize(serialize(g))) == serialize(g)


# ---------------------------------------------------------------------------
# 3. greedy association equals an exhaustive min-cost oracle in its regime


EPS = 0.25


def _min_cost_matching(dist):
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


def _regime_instance(rng):
    """Random tracker-regime frame: separated objects, gated noise levels.

    Per label group there is never simultaneous disappearance and novelty,
    static noise stays under 0.45*eps, moved displacement lands in
    (1.05*eps, 1.5*eps], and objects sit >= 4*eps apart — the margins under
    which nearest-first matching is provably the unique min-cost matching.
    """
    g = SceneGraph()
    g.add_room(RoomNode("hall", "hall", Pose.identity((20, 20, 1.5)), BBox3((40, 3, 40))))
    ids, observations = [], []
    for gi in range(rng.randint(1, 3)):
        label = f"thing{gi}"
        n = rng.randint(0, 5)
        bx, by = rng.uniform(2, 28), rng.uniform(2, 28)
        group_ids = []
        for i in range(n):
            pose = Pose.identity((bx + 1.6 * i, by + 1.6 * ((i * 7) % 3), 1.0))
            group_ids.append(
                g.add_object("hall", label, pose, BBox3((0.2, 0.2, 0.2)), 0.05, 0.0)
            )
        has_removed = False
        n_obs = 0
        for oid in group_ids:
            x, y, _ = g.objects[oid].pose.t
            fate = rng.choice(["static", "moved", "removed"])
            if fate == "removed":
                has_removed = True
                continue
            lo, hi = (0.0, 0.44 * EPS) if fate == "static" else (1.06 * EPS, 1.5 * EPS)
            radius, theta = rng.uniform(lo, hi), rng.uniform(0, 2 * math.pi)
            observations.append(
                Observation(
                    label=label,
                    pose=Pose.identity(
                        (x + radius * math.cos(theta), y + radius * math.sin(theta), 1.0)
                    ),
                    bbox=BBox3((0.2, 0.2, 0.2)),
                )
            )
            n_obs += 1
        if not has_removed:
            for _ in range(rng.randint(0, min(2, 6 - n_obs))):
                ox = bx + rng.choice([-1, 1]) * rng.uniform(7.0, 9.0)
                observations.append(
                    Observation(
                        label=label,
                        pose=Pose.identity((ox, by + rng.uniform(-1, 1), 1.0)),
                        bbox=BBox3((0.2, 0.2, 0.2)),
                    )
                )
        ids += group_ids
    rng.shuffle(observations)
    return g, ids, observations


def test_acceptance_association_matches_oracle():
    with criterion("greedy association == min-cost oracle on 500 instances", budget_s=30.0):
        rng = random.Random(7301)
        checked = 0
        for _ in range(500):
            g, ids, observations = _regime_instance(rng)
            res = associate(ids, observations, g, epsilon=EPS)
            dist = {
                (oid, j): pose_distance(g.objects[oid].pose, o.pose)
                for oid in ids
                for j, o in enumerate(observations)
                if g.objects[oid].label == o.label
            }
            oracle = set()
            for label in {g.objects[i].label for i in ids}:
                sub = {k: v for k, v in dist.items() if g.objects[k[0]].label == label}
                oracle |= _min_cost_matching(sub)
            greedy = {
                (oid, observations.index(o))
                for oid, o in res.static_pairs + res.moved_pairs
            }
            assert greedy == oracle
            checked += 1
        assert checked == 500


# ---------------------------------------------------------------------------
# 4. the packaged episode converges to ground truth with a clean detector


def test_acceptance_ideal_episode():
    with criterion("ideal episode: graph == truth, all rates 100%", budget_s=5.0):
        result = run_scenario(SCENARIO)
        assert graphs_equal(result.graph, result.world.graph, ignore_last_seen=True)
        for name, row in result.metrics.rows.items():
            assert row.success_rate == 1.0, f"{name} row below 100%"
        action_failures = sum(row.failures["Action"] for row in result.metrics.rows.values())
        assert action_failures == 0
        # the audit log alone reconstructs the final graph, byte for byte
        assert serialize(replay_runlog(result.scenario.initial, result.log)) == serialize(
            result.graph
        )


# ---------------------------------------------------------------------------
# 5. the degraded episode lands on the exact published table, run after run


def test_acceptance_degraded_episode():
    with criterion("degraded episode: exact table, stable over 10 runs", budget_s=30.0):
        overrides = {"failures.min_detectable_extent": 0.16}
        dicts = []
        for _ in range(10):
            metrics = run_scenario(SCENARIO, overrides=dict(overrides)).metrics
            dicts.append(metrics.to_dict())
        assert all(d == dicts[0] for d in dicts[1:]), "metrics drifted between runs"
        rows = dicts[0]["rows"]
        assert rows["Add"]["success_rate"] == pytest.approx(1.0)
        assert rows["Remove"]["success_rate"] == pytest.approx(2 / 3)
        assert rows["Move"]["success_rate"] == pytest.approx(2 / 3)
        assert rows["Remove"]["failure_rates"]["RGB-D"] == pytest.approx(1 / 3)
        assert rows["Move"]["failure_rates"]["RGB-D"] == pytest.approx(1 / 3)
        for row in rows.values():
            assert row["failure_rates"]["Text"] == 0.0
            assert row["failure_rates"]["Action"] == 0.0


# ---------------------------------------------------------------------------
# 6. evidence gating: k consecutive frames, resets on gaps and contrary frames


def test_acceptance_confirmation_gating():
    with criterion("removal/addition gating needs k consecutive frames", budget_s=1.0):
        def fresh():
            g = SceneGraph()
            g.add_room(
                RoomNode("kitchen", "kitchen", Pose.identity((2, 2, 1.5)), BBox3((4, 3, 4)))
            )
            oid = g.add_object(
                "kitchen", "cup", Pose.identity((1, 1, 1)), BBox3((0.1, 0.1, 0.1)), 0.05, 0.0
            )
            return g, oid

        # k-1 consecutive misses stay silent; the k-th fires exactly once
        for k in (1, 2, 3):
            g, oid = fresh()
            store = ConfirmationStore()
            emitted = []
            for frame in range(k):
                out = confirm(
                    store, g, AssociationResult(remove_candidates=[oid]), frame, float(frame), k=k
                )
                emitted += out.records
                assert len(emitted) == (1 if frame == k - 1 else 0), (k, frame)
            assert emitted[0].action is UpdateAction.REMOVED

        # a skipped frame restarts the count
        g, oid = fresh()
        store = ConfirmationStore()
        assert confirm(store, g, AssociationResult(remove_candidates=[oid]), 0, 0.0, k=2).records == []
        assert confirm(store, g, AssociationResult(remove_candidates=[oid]), 2, 2.0, k=2).records == []
        assert len(confirm(store, g, AssociationResult(remove_candidates=[oid]), 3, 3.0, k=2).records) == 1

        # a frame that sees the object again also restarts the count
        g, oid = fresh()
        store = ConfirmationStore()
        seen = AssociationResult(
            static_pairs=[
                (oid, Observation("cup", Pose.identity((1.02, 1.0, 1.0)), BBox3((0.1, 0.1, 0.1))))
            ]
        )
        confirm(store, g, AssociationResult(remove_candidates=[oid]), 0, 0.0, k=2)
        confirm(store, g, seen, 1, 1.0, k=2)
        assert confirm(store, g, AssociationResult(remove_candidates=[oid]), 2, 2.0, k=2).records == []

        # additions need k consecutive frames with a stable pose
        g, _ = fresh()
        store = ConfirmationStore()
        stable = lambda x: AssociationResult(
            add_candidates=[Observation("book", Pose.identity((x, 1.0, 1.0)), BBox3((0.2, 0.1, 0.1)))]
        )
        assert confirm(store, g, stable(1.00), 0, 0.0, k=2).records == []
        out = confirm(store, g, stable(1.04), 1, 1.0, k=2)
        assert [r.action for r in out.records] == [UpdateAction.ADDED]
        # and wandering candidates never accumulate evidence
        store = ConfirmationStore()
        for frame, x in enumerate((1.0, 1.8, 2.6, 3.4)):
            assert confirm(store, g, stable(x), frame, float(frame), k=2).records == []


# ---------------------------------------------------------------------------
# 7. serialization: lossless round trips, canonical bytes


def _random_graph(rng):
    g = SceneGraph(epoch=rng.uniform(0, 100))
    n_rooms = rng.randint(1, 4)
    for i in range(n_rooms):
        g.add_room(
            RoomNode(
                f"room{i}",
                f"room {i}",
                Pose.identity((10.0 * i + 2.0, 2.0, 1.5)),
                BBox3((4.0, 3.0, 4.0)),
            )
        )
    for a in range(n_rooms):
        for b in range(a + 1, n_rooms):
            if rng.random() < 0.5:
                g.add_access(f"room{a}", f"room{b}")
    for _ in range(rng.randint(0, 12)):
        ri = rng.randrange(n_rooms)
        g.add_object(
            f"room {ri}",
            rng.choice(["cup", "plate", "vase", "tv remote", "alarm clock"]),
            Pose.identity(
                (10.0 * ri + rng.uniform(0.5, 3.5), rng.uniform(0.5, 3.5), rng.uniform(0.2, 2.5))
            ),
            BBox3((rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0))),
            rng.choice([0.0, 0.05, 0.2, 0.5]),
            rng.uniform(0.0, 50.0),
            pose_provisional=rng.random() < 0.2,
        )
    if rng.random() < 0.3 and g.objects:
        g.detach(rng.choice(sorted(g.objects)))
    return g


def test_acceptance_serialization_round_trip():
    with criterion("serialization round-trips 100 random graphs + fixture", budget_s=5.0):
        house = load_house()
        blob = serialize(house)
        assert graphs_equal(deserialize(blob), house)
        assert serialize(deserialize(blob)) == blob
        assert json.loads(blob)  # canonical form is plain JSON

        rng = random.Random(1234)
        for i in range(100):
            g = _random_graph(rng)
            blob = serialize(g)
            back = deserialize(blob)
            assert graphs_equal(back, g), f"graph {i} round-trip mismatch"
            assert serialize(back) == blob, f"graph {i} bytes not canonical"
