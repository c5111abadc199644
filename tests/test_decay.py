import math

import pytest
from hypothesis import given, strategies as st

from sgupdate.decay import (
    ClockSkew,
    DecayTable,
    StaleReport,
    half_probability_time,
    lambda_for,
    persistence_probability,
    stale_targets,
)

from conftest import put, two_room_graph


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
