"""Way-time curves, the sensitivity factor, saturation detection."""

import pytest
from hypothesis import example, given, settings, strategies as st

from cacheways.errors import SchemaError
from cacheways.sensitivity import (
    WayTimeCurve,
    assemble_attributes,
    compute_alpha,
    detect_max_ways,
)
from oracles import alpha_reference
from support import raises_fault, way_time_curve as curve


# -- curve construction -------------------------------------------------------

def test_curve_requires_start_at_two():
    with pytest.raises(SchemaError):
        curve({3: 10.0, 4: 9.0})


def test_curve_rejects_empty():
    with pytest.raises(SchemaError):
        WayTimeCurve(())


def test_curve_rejects_nonpositive_time():
    with pytest.raises(SchemaError):
        curve({2: 0.0})


def test_curve_rejects_increase_beyond_tolerance():
    with pytest.raises(SchemaError):
        curve({2: 10.0, 3: 10.1})


def test_curve_tolerates_tiny_jitter():
    c = curve({2: 10.0, 3: 10.0 * (1 + 5e-7)})
    assert c.last_way == 3


def test_curve_rejects_duplicate_ways():
    with pytest.raises(SchemaError):
        WayTimeCurve(((2, 10.0), (2, 9.0)))


# -- interpolation ------------------------------------------------------------

def test_time_at_observed_points_exact():
    c = curve({2: 20.0, 4: 14.0, 8: 10.0})
    assert c.time_at(2) == 20.0
    assert c.time_at(4) == 14.0
    assert c.time_at(8) == 10.0


def test_time_at_interpolates_between_points():
    c = curve({2: 20.0, 4: 14.0})
    assert c.time_at(3) == pytest.approx(17.0)


def test_time_at_flat_beyond_last_point():
    c = curve({2: 20.0, 4: 14.0})
    assert c.time_at(11) == 14.0


def test_time_at_rejects_below_two():
    c = curve({2: 20.0})
    with raises_fault("time_at needs ways >= 2, got 1"):
        c.time_at(1)


@st.composite
def way_time_curves(draw, max_way=24):
    """Curves from w=2: a single point, or sparse or dense steps up to
    max_way, with non-increasing times."""
    ways = [2] + sorted(draw(st.sets(st.integers(3, max_way), max_size=8)))
    times = draw(st.lists(st.floats(1e-3, 1e9), min_size=len(ways), max_size=len(ways)))
    return WayTimeCurve(tuple(zip(ways, sorted(times, reverse=True))))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(way_time_curves())
@example(curve({2: 7.0}))
@example(curve({2: 9.0, 5: 6.0, 6: 5.0, 11: 1.0}))
def test_times_equals_time_at_at_every_width(c):
    # every width below, at and past the last point, the empty table included
    for w in range(1, c.last_way + 4):
        assert c.times(w) == [c.time_at(v) for v in range(2, w + 1)]


# -- alpha --------------------------------------------------------------------

def test_alpha_sparse_curve():
    # 6 units of improvement over 2 ways
    assert compute_alpha(curve({2: 20.0, 4: 14.0}), 4) == 3.0


def test_alpha_contiguous_curve():
    c = curve({2: 100.0, 3: 70.0, 4: 60.0, 5: 58.0})
    assert compute_alpha(c, 5) == pytest.approx(30.0 + 10.0 + 2.0)


def test_alpha_flat_curve_is_zero():
    assert compute_alpha(curve({2: 50.0}), 2) == 0.0


def test_alpha_ignores_points_past_max_ways():
    c = curve({2: 100.0, 3: 70.0, 4: 60.0})
    assert compute_alpha(c, 3) == 30.0


def test_alpha_requires_endpoint_observations():
    c = curve({2: 100.0, 4: 60.0})
    with raises_fault("curve must cover 2..3"):
        compute_alpha(c, 3)
    with raises_fault("curve must cover 2..5"):
        compute_alpha(c, 5)


def test_alpha_rejects_max_ways_below_two():
    with raises_fault("max_ways must be >= 2"):
        compute_alpha(curve({2: 10.0}), 1)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=False))
def test_alpha_matches_rational_reference(rng):
    n = rng.randint(1, 9)
    ways = [2]
    while len(ways) < n:
        ways.append(ways[-1] + rng.randint(1, 3))
    t = rng.uniform(1e6, 1e9)
    pts = []
    for w in ways:
        pts.append((w, t))
        t *= 1 - rng.uniform(0.0, 0.3)
    c = WayTimeCurve(tuple(pts))
    mw = detect_max_ways(c)
    got = compute_alpha(c, mw)
    want = alpha_reference(pts, mw)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0) or got == want == 0.0


# -- saturation ---------------------------------------------------------------

def test_max_ways_flat_curve_floors_at_two():
    assert detect_max_ways(curve({2: 50.0})) == 2
    assert detect_max_ways(curve({2: 50.0, 3: 50.0, 4: 50.0})) == 2


def test_max_ways_last_significant_step():
    c = curve({2: 200.0, 3: 112.0, 4: 102.0, 5: 100.0})
    # 2->3 44%, 3->4 8.9%, 4->5 2%: saturates at 4
    assert detect_max_ways(c, epsilon=0.05) == 4


def test_max_ways_sparse_steps_count_once():
    c = curve({2: 20.0, 4: 14.0})
    assert detect_max_ways(c, epsilon=0.05) == 4


def test_max_ways_epsilon_must_be_positive():
    with pytest.raises(SchemaError):
        detect_max_ways(curve({2: 10.0}), epsilon=0.0)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=False), st.floats(0.001, 0.5), st.floats(0.001, 0.5))
def test_max_ways_monotone_in_epsilon(rng, e1, e2):
    lo, hi = sorted((e1, e2))
    t = 1e8
    pts = []
    for w in range(2, rng.randint(3, 12)):
        pts.append((w, t))
        t *= 1 - rng.uniform(0.0, 0.4)
    c = WayTimeCurve(tuple(pts))
    assert detect_max_ways(c, lo) >= detect_max_ways(c, hi)


# -- attribute assembly -------------------------------------------------------

def test_assemble_derives_sensitivity_pair():
    assert assemble_attributes(curve({2: 20.0, 4: 14.0}), epsilon=0.05) == (3.0, 4)
