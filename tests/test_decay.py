import math
from dataclasses import FrozenInstanceError
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from sgupdate import decay
from sgupdate.decay import (
    ClockSkew,
    DecayTable,
    StaleReport,
    half_probability_time,
    lambda_for,
    persistence_probability,
    stale_targets,
)
from sgupdate.geometry import Pose
from sgupdate.graph import deserialize, serialize
from sgupdate.harness import run_scenario

from conftest import put, stale_sweep, two_room_graph


def test_zero_rate_pins_probability_at_one():
    for dt in (0.0, 1.0, 1e6, 1e12):
        assert persistence_probability(0.0, dt, 0.0) == 1.0


def test_zero_elapsed_time_gives_one():
    assert persistence_probability(3.7, 50.0, 50.0) == 1.0


def test_closed_form_values():
    # 2/(1+e^x) evaluated independently
    assert persistence_probability(1.0, 1.0, 0.0) == pytest.approx(2.0 / (1.0 + math.e))
    assert persistence_probability(0.5, 4.0, 0.0) == pytest.approx(2.0 / (1.0 + math.exp(2.0)))
    assert persistence_probability(2.0, 10.0, 7.0) == pytest.approx(2.0 / (1.0 + math.exp(6.0)))


def test_half_probability_crossing_is_ln3_over_rate():
    for rate in (0.01, 0.1, 1.0, 10.0):
        t_half = half_probability_time(rate)
        assert t_half == pytest.approx(math.log(3.0) / rate)
        assert persistence_probability(rate, t_half, 0.0) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        half_probability_time(0.0)


def test_overflow_guard_returns_tail_not_an_exception():
    p = persistence_probability(1.0, 800.0, 0.0)
    assert p == pytest.approx(2.0 * math.exp(-800.0))
    assert persistence_probability(10.0, 1e9, 0.0) == 0.0  # underflows cleanly


def test_clock_skew_and_negative_rate_are_rejected():
    with pytest.raises(ClockSkew):
        persistence_probability(1.0, 5.0, 6.0)
    with pytest.raises(ValueError):
        persistence_probability(-0.5, 1.0, 0.0)


@pytest.mark.parametrize("now", [math.nan, math.inf])
def test_non_finite_now_is_rejected(now):
    # nan < threshold is False, so a nan probability would read as never stale.
    for rate in (1.0, 0.0, 1e300):
        with pytest.raises(ValueError, match="now must be finite"):
            persistence_probability(rate, now, 0.0)
    with pytest.raises(ClockSkew):
        persistence_probability(1.0, -math.inf, 0.0)


@given(
    st.floats(1e-4, 5.0),
    st.floats(0.0, 60.0),
    st.floats(0.01, 60.0),
)
def test_probability_is_strictly_decreasing(rate, t0, gap):
    # ranges keep rate*(t0+gap) far from exp underflow, where the strict
    # ordering genuinely holds in floats
    p0 = persistence_probability(rate, t0, 0.0)
    p1 = persistence_probability(rate, t0 + gap, 0.0)
    assert 0.0 <= p1 < p0 <= 1.0


# -- decay table -------------------------------------------------------------


def test_table_converts_per_hour_to_per_second():
    table = DecayTable.from_dict(
        {"units": "1/hour", "default": 0.36, "anchors": {"Cup ": 7.2, "tv": 0.0}}
    )
    assert table.default_rate == pytest.approx(0.0001)
    assert table.anchors["cup"] == pytest.approx(0.002)
    assert table.anchors["tv"] == 0.0


def test_table_per_second_units_pass_through():
    table = DecayTable.from_dict({"units": "1/second", "default": 0.5, "anchors": {"a": 2.0}})
    assert table.default_rate == 0.5 and table.anchors["a"] == 2.0
    with pytest.raises(ValueError):
        DecayTable.from_dict({"units": "1/fortnight", "default": 1.0})


@pytest.mark.parametrize(
    "anchors, names",
    [
        ({"Mug": 1.0, "mug": 2.0}, "anchors['mug'] repeats the label 'mug'"),
        (
            {"tv remote": 1.0, " TV  remote": 2.0},
            "anchors[' TV  remote'] repeats the label 'tv remote'",
        ),
        ({"  ": 1.0}, "anchors['  '] must not be blank"),
        ({"": 1.0}, "anchors[''] must not be blank"),
    ],
    ids=["repeated", "repeated-once-normalized", "blank", "empty"],
)
def test_table_refuses_a_blank_or_repeated_anchor(anchors, names):
    with pytest.raises(ValueError) as err:
        DecayTable.from_dict({"default": 1.0, "anchors": anchors})
    assert str(err.value) == names


def test_packaged_default_table_has_useful_anchors():
    table = DecayTable.default()
    assert table.anchors["refrigerator"] == 0.0
    assert table.anchors["banana"] > table.anchors["cup"] > table.anchors["sofa"] > 0.0
    assert table.default_rate > 0.0


def test_lambda_for_looks_up_anchor_else_default():
    table = DecayTable(default_rate=0.1, anchors={"cup": 0.4})
    assert lambda_for("  CUP ", table) == 0.4
    assert lambda_for("unheard-of", table) == 0.1


# -- stale scan --------------------------------------------------------------


def test_stale_targets_orders_by_probability_and_skips_immovables():
    g = two_room_graph()
    put(g, "kitchen", "counter", (1, 1, 0.5), rate=0.0)  # immovable
    put(g, "kitchen", "cup", (1, 2, 1), rate=1.0, now=0.0)
    put(g, "kitchen", "plate", (2, 2, 1), rate=0.1, now=0.0)
    held = put(g, "kitchen", "fork", (2, 1, 1), rate=5.0, now=0.0)
    g.detach(held)

    report = stale_targets(g, now=10.0, threshold=0.6)
    assert isinstance(report, StaleReport)
    ids = [e.object_id for e in report.entries]
    assert ids == ["cup-1", "plate-1"]  # ascending probability; fork detached, counter immune
    probs = [e.probability for e in report.entries]
    assert probs == sorted(probs)
    assert all(p < 0.6 for p in probs)


def test_stale_targets_breaks_probability_ties_by_id_not_insertion_order():
    g = two_room_graph()
    tied = [put(g, "kitchen", label, (1, 1, 1), rate=1.0) for label in ("plate", "cup", "bowl")]
    tied += [put(g, "living room", "cup", (7, 1, 1), rate=1.0) for _ in range(10)]  # cup-2 .. cup-11
    fork = put(g, "kitchen", "fork", (2, 1, 1), rate=2.0)  # inserted last, least persistent

    entries = stale_targets(g, now=10.0, threshold=0.6).entries
    assert [e.object_id for e in entries] == [fork] + sorted(tied)
    assert [e.object_id for e in entries][1:5] == ["bowl-1", "cup-1", "cup-10", "cup-11"]
    assert len({e.probability for e in entries[1:]}) == 1


def test_stale_targets_threshold_must_be_in_open_interval(house2):
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            stale_targets(house2, now=1.0, threshold=bad)


@pytest.mark.parametrize("now", [math.nan, math.inf])
def test_stale_targets_rejects_a_non_finite_now(house2, now):
    with pytest.raises(ValueError, match="now must be finite"):
        stale_targets(house2, now=now, threshold=0.5)  # even with no object to test
    put(house2, "kitchen", "cup", (1, 1, 1), rate=2.0)
    with pytest.raises(ValueError, match="now must be finite"):
        stale_targets(house2, now=now, threshold=0.5)


def test_stale_report_serializes(house2):
    put(house2, "kitchen", "cup", (1, 1, 1), rate=2.0)
    d = stale_targets(house2, now=100.0, threshold=0.5).to_dict()
    assert d["threshold"] == 0.5 and d["now"] == 100.0
    assert d["entries"][0]["object_id"] == "cup-1"


# -- stale_targets against the oracle sweep ----------------------------------


def outcome(query, graph, now, threshold):
    """``query``'s report, or the type and message of the error it raised."""
    try:
        return query(graph, now, threshold)
    except ValueError as exc:  # ClockSkew included
        return type(exc), str(exc)


def assert_matches_sweep(graph, now, threshold):
    want = outcome(stale_sweep, graph, now, threshold)
    got = outcome(stale_targets, graph, now, threshold)
    # repr as well: == takes -0.0 for 0.0, and an entry keeps its node's own last_seen.
    assert got == want and repr(got) == repr(want)
    return want


THRESHOLDS = (0.5, 0.5, 0.5, 0.1, 0.9)
RATES = (0.0, 0.05, 0.5, 2.0)
STEP = st.tuples(
    st.sampled_from(
        ["add", "remove", "move", "touch", "detach", "reattach", "query", "query",
         "crossing", "back", "copy", "reload"]
    ),
    st.integers(0, 2**16),  # picks the object, room, rate, threshold
    st.sampled_from([0.0, 0.0, 0.25, 1.0, 3.0, 20.0]),  # how far the clock moves
    st.booleans(),  # a write dated after the clock, which a query at the clock must refuse
)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.lists(STEP, min_size=20, max_size=80))
def test_stale_targets_matches_the_sweep_after_every_step(steps):
    """After every primitive, copy, reload and query, ``stale_targets`` gives
    the sweep's report (ids, probabilities and order) or raises its error."""
    g = two_room_graph()
    rooms = ["kitchen", "living room"]
    spots = {"kitchen": (1.0, 1.0, 1.0), "living room": (7.0, 1.0, 1.0)}
    clock, threshold = 0.0, 0.5
    copies = []  # (copy, the time it was taken at): queried again later
    for op, pick, dt, ahead in steps:
        clock += dt
        written_at = clock + 2.0 if ahead else clock
        attached = sorted(oid for oid, n in g.objects.items() if n.attached)
        detached = sorted(oid for oid, n in g.objects.items() if not n.attached)
        room = rooms[pick % 2]
        if op == "add":
            rate = RATES[pick % len(RATES)]
            put(g, room, "cup" if pick % 3 else "plate", spots[room], rate=rate, now=written_at)
        elif op == "remove" and attached:
            oid = attached[pick % len(attached)]
            g.remove_object(g.rooms[g.objects[oid].room].label, oid)
        elif op == "move" and attached:
            oid = attached[pick % len(attached)]
            g.move_object(
                g.rooms[g.objects[oid].room].label, room, oid, Pose.identity(spots[room]), written_at
            )
        elif op == "touch" and g.objects:
            g.touch([sorted(g.objects)[pick % len(g.objects)]], written_at)
        elif op == "detach" and attached:
            g.detach(attached[pick % len(attached)])
        elif op == "reattach" and detached:
            g.reattach(detached[pick % len(detached)], room, Pose.identity(spots[room]), written_at)
        elif op == "query":
            threshold = THRESHOLDS[pick % len(THRESHOLDS)]
        elif op == "crossing":  # the next crossing time, give or take an ulp
            c = math.log(2.0 / threshold - 1.0)
            ahead = [
                n.last_seen + c / n.decay_rate
                for n in g.objects.values()
                if n.attached and n.decay_rate > 0.0 and n.last_seen + c / n.decay_rate > clock
            ]
            if ahead:
                at = min(ahead)
                clock = max(clock, math.nextafter(at, (-math.inf, at, math.inf)[pick % 3]))
        elif op == "back":  # a query earlier than the last one
            assert_matches_sweep(g, max(clock - dt - 1.0, 0.0), threshold)
        elif op == "copy":
            copies.append((g.copy(), clock))
            if pick % 2:  # carry on with the copy
                g = copies[-1][0]
        elif op == "reload":
            g = deserialize(serialize(g))
        assert_matches_sweep(g, clock, threshold)
    for copy, taken in copies:
        assert_matches_sweep(copy, taken, threshold)
        assert_matches_sweep(copy, clock, threshold)


def test_stale_groups_of_equal_probability_merge_by_id_and_keep_each_last_seen(house2):
    """Two (rate, last_seen) groups with one probability, one of them holding
    a -0.0 and a 0.0 last_seen, interleave by id; then one stale object of
    each kind is removed, detached, touched and moved between two queries."""
    slow = [put(house2, "kitchen", label, (1, 1, 1), rate=1.0, now=t) for label, t in
            (("apple", -0.0), ("cup", 0.0), ("fork", 0.0), ("jar", 0.0), ("pan", 0.0))]
    fast = [put(house2, "kitchen", label, (2, 1, 1), rate=2.0, now=5.0) for label in
            ("bowl", "dish", "lid", "mug", "pot")]
    report = stale_targets(house2, 10.0, 0.5)  # 1.0 * (10 - 0) == 2.0 * (10 - 5)
    assert [e.object_id for e in report.entries] == sorted(slow + fast)
    assert len({e.probability for e in report.entries}) == 1
    apple = report.entries[0]
    assert apple.object_id == "apple-1" and math.copysign(1.0, apple.last_seen) == -1.0
    assert math.copysign(1.0, report.entries[2].last_seen) == 1.0  # cup-1, in apple's group
    assert_matches_sweep(house2, 10.0, 0.5)

    house2.remove_object("kitchen", "cup-1")
    house2.detach("dish-1")
    house2.touch(["fork-1"], 10.0)
    house2.move_object("kitchen", "living room", "lid-1", Pose.identity((7, 1, 1)), 10.0)
    want = assert_matches_sweep(house2, 10.0, 0.5)
    assert [e.object_id for e in want.entries] == "apple-1 bowl-1 jar-1 mug-1 pan-1 pot-1".split()
    assert math.copysign(1.0, stale_targets(house2, 10.0, 0.5).entries[0].last_seen) == -1.0
    house2.touch(["apple-1"], 11.0)
    house2.remove_object("kitchen", "pot-1")
    assert_matches_sweep(house2, 12.0, 0.5)


def test_a_stale_report_keeps_what_the_graph_held_when_it_was_taken(house2):
    """A report's entries are those of the graph it was taken on, whatever
    the primitives write afterwards."""
    for label in ("cup", "plate", "vase", "book"):
        put(house2, "kitchen", label, (1, 1, 1), rate=1.0)
    put(house2, "living room", "fork", (7, 1, 1), rate=3.0)
    first = stale_targets(house2, 10.0, 0.5)
    want = stale_sweep(house2, 10.0, 0.5)
    house2.remove_object("kitchen", "cup-1")
    house2.touch(["plate-1"], 10.0)
    house2.detach("fork-1")
    second = stale_targets(house2, 10.0, 0.5)
    house2.detach("vase-1")
    house2.remove_object("kitchen", "book-1")
    third = stale_targets(house2, 10.5, 0.5)
    assert repr(first.entries) == repr(want.entries) and len(want.entries) == 5
    assert [e.object_id for e in second.entries] == ["book-1", "vase-1"]
    assert third.entries == ()


def test_a_write_that_dates_an_object_stale_enters_the_next_report(house2):
    """A primitive may date an object back to where earlier reports found
    others stale; the next report takes it in, and lets it go when it is
    next written."""
    put(house2, "kitchen", "cup", (1, 1, 1), rate=1.0)
    put(house2, "kitchen", "plate", (1, 1, 1), rate=1.0)
    bowl = put(house2, "living room", "bowl", (7, 1, 1), rate=1.0, now=9.5)
    assert len(assert_matches_sweep(house2, 10.0, 0.5).entries) == 2
    house2.touch([bowl], 0.0)  # as stale as cup and plate
    assert len(assert_matches_sweep(house2, 10.0, 0.5).entries) == 3
    house2.touch([bowl], 10.0)
    house2.move_object("kitchen", "living room", "plate-1", Pose.identity((7, 1, 1)), 0.0)
    want = assert_matches_sweep(house2, 10.0, 0.5)
    assert [e.object_id for e in want.entries] == ["cup-1", "plate-1"]
    house2.touch([bowl], 0.0)
    house2.detach("cup-1")
    assert [e.object_id for e in assert_matches_sweep(house2, 10.0, 0.5).entries] == [
        "bowl-1", "plate-1"
    ]


def test_a_report_equals_the_sweeps_report_it_stands_for(house2):
    """``stale_targets``' report and ``StaleReport(threshold, now, entries)``
    agree both ways on ==, hash, repr and to_dict."""
    put(house2, "kitchen", "cup", (1, 1, 1), rate=1.0, now=-0.0)
    put(house2, "kitchen", "plate", (1, 1, 1), rate=1.0, now=2.0)
    put(house2, "living room", "fork", (7, 1, 1), rate=2.0, now=6.0)
    put(house2, "living room", "sofa", (7, 1, 1), rate=0.0)
    swept = stale_sweep(house2, 10.0, 0.5)
    assert type(swept) is StaleReport and len(swept.entries) == 3

    def queried():
        return stale_targets(house2, 10.0, 0.5)  # a new report each call

    assert queried() == swept and swept == queried() and not queried() != swept
    assert hash(queried()) == hash(swept) and hash(swept) == hash(queried())
    assert repr(queried()) == repr(swept)
    assert repr(swept).startswith("StaleReport(threshold=0.5, now=10.0, entries=(StaleEntry(")
    assert queried().to_dict() == swept.to_dict()
    assert {queried(): 1}[swept] == 1
    assert queried() != stale_sweep(house2, 11.0, 0.5) and queried() != swept.to_dict()
    with pytest.raises(FrozenInstanceError):
        queried().now = 11.0


def test_stale_targets_raises_the_sweeps_clock_skew_for_a_later_write():
    g = two_room_graph()
    cup = put(g, "kitchen", "cup", (1, 1, 1), rate=1.0)
    put(g, "kitchen", "plate", (2, 1, 1), rate=1.0)
    assert [e.object_id for e in stale_targets(g, 5.0, 0.5).entries] == ["cup-1", "plate-1"]
    g.touch([cup], 9.0)
    g.touch(["plate-1"], 8.0)
    want = assert_matches_sweep(g, 6.0, 0.5)
    assert want == (ClockSkew, "now=6.0 precedes last_seen=9.0")  # the first in the graph's order
    assert [e.object_id for e in stale_targets(g, 12.0, 0.5).entries] == ["plate-1", "cup-1"]


def test_the_sweep_computes_a_probability_only_when_the_key_changes(house2, monkeypatch):
    """Keys A, B, A, then two objects of key C with an immovable object and a
    detached one of key C between them: a probability for each change of key
    among the attached dynamic objects, and none for the detached or the
    immovable one, which a query also skips when they are seen after it."""
    a, b, c = (1.0, 0.0), (2.0, 6.0), (0.5, 0.0)
    for label, (rate, seen) in (("apple", a), ("bowl", b), ("cup", a)):
        put(house2, "kitchen", label, (1, 1, 1), rate=rate, now=seen)
    put(house2, "kitchen", "easel", (2, 1, 1), rate=0.0)
    house2.detach(put(house2, "kitchen", "dish", (1, 1, 1), rate=c[0], now=c[1]))
    for label in ("fork", "glass"):
        put(house2, "living room", label, (7, 1, 1), rate=c[0], now=c[1])
    keys = []

    def counted(rate, now, last_seen):
        keys.append((rate, last_seen))
        return persistence_probability(rate, now, last_seen)

    monkeypatch.setattr(decay, "persistence_probability", counted)
    want = assert_matches_sweep(house2, 10.0, 0.99)
    assert keys == [a, b, a, c]
    assert [e.object_id for e in want.entries] == ["apple-1", "cup-1", "bowl-1", "fork-1", "glass-1"]
    house2.touch(["dish-1"], 13.0)
    house2.touch(["easel-1"], 14.0)
    house2.touch(["glass-1"], 12.0)
    house2.touch(["bowl-1"], 11.0)
    keys.clear()
    assert outcome(stale_targets, house2, 10.0, 0.5) == (ClockSkew, "now=10.0 precedes last_seen=11.0")
    assert keys == [a, (2.0, 11.0)]
    house2.touch(["bowl-1"], 6.0)
    assert assert_matches_sweep(house2, 10.0, 0.5) == (ClockSkew, "now=10.0 precedes last_seen=12.0")


def test_queries_at_every_threshold_and_an_earlier_now_match_the_sweep():
    """Queries at three thresholds, with time going forward and back, on the
    packaged run's final graph all give the sweep's answer."""
    scenario = resources.files("sgupdate.data").joinpath("scenario_house.json")
    graph = run_scenario(str(scenario)).graph
    assert len({(n.decay_rate, n.last_seen) for n in graph.objects.values() if n.decay_rate}) > 5
    queries = [
        (3636.0, 0.9), (19800.0, 0.5), (3630.0, 0.9), (60000.0, 0.1), (14480.0, 0.9),
        (19795.0, 0.5), (53020.0, 0.1), (30.0, 0.5), (4.0e6, 0.5), (212030.0, 0.1),
        (3642.0, 0.9), (1.1e7, 0.1), (79130.0, 0.5),
    ]
    sizes = set()
    for now, threshold in queries:
        want = assert_matches_sweep(graph, now, threshold)
        sizes.add(len(want.entries) if isinstance(want, StaleReport) else want[0])
    assert ClockSkew in sizes and len(sizes) > 5  # an error, and reports of many sizes
