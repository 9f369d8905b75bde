"""Outcome metrics, checked against small hand-computed samples."""

import math
import types

import pytest
from hypothesis import example, given, settings, strategies as st

from cacheways import metrics
from cacheways.errors import CacheWaysError
from cacheways.metrics import (
    SLA_FACTOR,
    deficit_proxy,
    jain_fairness,
    sla_check,
    throughputs,
    weighted_speedup,
)

from oracles import brute_deficit
from support import raises_fault


def test_weighted_speedup_identity_is_exactly_one():
    times = {0: 123.456, 1: 789.0, 2: 0.25}
    assert weighted_speedup(times, dict(times)) == 1.0


def test_weighted_speedup_geometric_mean():
    base = {0: 200.0, 1: 400.0}
    cand = {0: 100.0, 1: 400.0}
    assert weighted_speedup(base, cand) == pytest.approx(math.sqrt(2.0), rel=1e-12)
    # slower candidate mirrors below 1
    assert weighted_speedup(cand, base) == pytest.approx(1 / math.sqrt(2.0), rel=1e-12)


def test_weighted_speedup_reciprocal_symmetry():
    a = {0: 130.0, 1: 77.0, 2: 911.0}
    b = {0: 125.0, 1: 80.0, 2: 950.0}
    assert weighted_speedup(a, b) * weighted_speedup(b, a) == pytest.approx(
        1.0, rel=1e-12
    )


def test_weighted_speedup_arity_errors():
    with raises_fault("speedup needs the same process set on both sides"):
        weighted_speedup({0: 1.0}, {1: 1.0})
    with raises_fault("speedup of an empty mix is undefined"):
        weighted_speedup({}, {})
    with raises_fault("pid 0: non-positive completion time"):
        weighted_speedup({0: 0.0}, {0: 1.0})
    with raises_fault("pid 0: non-positive completion time"):
        weighted_speedup({0: 1.0}, {0: -2.0})


def test_weighted_speedup_explicit_weights():
    base = {0: 100.0, 1: 200.0}
    cand = {0: 50.0, 1: 200.0}
    # ratios (2, 1); weighting by unmixed time: exp((100 ln2 + 0) / 300)
    got = weighted_speedup(base, cand, weights=base)
    assert got == pytest.approx(2.0 ** (1 / 3), rel=1e-12)
    # equal explicit weights reduce to the unweighted mean
    assert weighted_speedup(base, cand, weights={0: 3.0, 1: 3.0}) == pytest.approx(
        weighted_speedup(base, cand), rel=1e-12
    )
    assert weighted_speedup(base, dict(base), weights=base) == 1.0


def test_weighted_speedup_weight_errors():
    base = {0: 1.0, 1: 2.0}
    with raises_fault("weights must cover exactly the process set"):
        weighted_speedup(base, base, weights={0: 1.0})
    with raises_fault("pid 1: non-positive weight"):
        weighted_speedup(base, base, weights={0: 1.0, 1: 0.0})


def test_jain_equal_sample_is_exactly_one():
    assert jain_fairness([0.37, 0.37, 0.37]) == 1.0
    assert jain_fairness([5.0]) == 1.0


def test_jain_known_values():
    # (sum x)^2 / (n sum x^2): [1,3] -> 16/20 = 0.8
    assert jain_fairness([1.0, 3.0]) == pytest.approx(0.8, rel=1e-12)
    # [1,1,1,5] -> 64 / (4 * 28) = 4/7
    assert jain_fairness([1.0, 1.0, 1.0, 5.0]) == pytest.approx(4 / 7, rel=1e-12)


def test_jain_errors():
    with raises_fault("fairness of an empty sample is undefined"):
        jain_fairness([])
    with raises_fault("fairness needs positive values"):
        jain_fairness([1.0, 0.0])


def test_sla_boundary_inclusive():
    ok, ratios = sla_check({0: 115.0}, {0: 100.0})
    assert ok and ratios == {0: 1.15}
    ok, ratios = sla_check({0: 115.0 + 1e-9}, {0: 100.0})
    assert not ok
    assert SLA_FACTOR == 1.15


def test_sla_custom_factor_and_errors():
    ok, ratios = sla_check({0: 150.0, 1: 90.0}, {0: 100.0, 1: 100.0}, factor=1.5)
    assert ok and ratios == {0: 1.5, 1: 0.9}
    with raises_fault("SLA needs the same process set on both sides"):
        sla_check({0: 1.0}, {1: 1.0})
    with raises_fault("pid 0: non-positive unmixed time"):
        sla_check({0: 1.0}, {0: 0.0})


def test_deficit_proxy_hand_integration():
    timeline = [
        (0.0, {0: (2.0, 4, 2), 1: (1.0, 3, 3)}),
        (10.0, {0: (2.0, 4, 4)}),
    ]
    # first span: 10 * (2*(4-2) + 1*0) = 40; second span satisfied: 0
    assert deficit_proxy(timeline, 25.0) == 40.0


def test_deficit_proxy_clamps():
    assert deficit_proxy([], 100.0) == 0.0
    assert deficit_proxy([(0.0, {0: (1.0, 3, 1)})], 0.0) == 0.0
    # over-granted never counts negative
    assert deficit_proxy([(0.0, {0: (1.0, 2, 5)})], 10.0) == 0.0


def test_deficit_proxy_past_the_float_range_raises():
    # each factor is finite; their product is not
    with raises_fault("the unmet-demand integral leaves the float range"):
        deficit_proxy([(0.0, {0: (1e300, 11, 1)})], 1e300)


def deficit_outcome(integral, timeline, end_time):
    """The integral's value, bit for bit, or the error it raises."""
    try:
        return integral(timeline, end_time).hex()
    except (CacheWaysError, ValueError, OverflowError) as exc:
        return type(exc).__name__, str(exc)


ALPHAS = st.one_of(
    st.sampled_from([0.0, -0.0, -1e-12, -5e-324, 5e-324, 0.25, 1.0, 3.5, 1e300]),
    st.floats(min_value=-1e-6, max_value=100.0, allow_nan=False),
    st.sampled_from([math.inf, math.nan]),  # alpha * 0 is nan: the row stays
)
SNAPSHOTS = st.dictionaries(  # empty snapshots, satisfied and deficient rows
    st.integers(0, 5), st.tuples(ALPHAS, st.integers(0, 12), st.integers(0, 12)), max_size=5
)
TIMES = st.one_of(st.sampled_from([0.0, 1.0, 2.5, 2.5000000000000004, 1e9]), st.floats(0.0, 1e12))


@st.composite
def timelines(draw):
    """A width timeline, its times in order so that repeats make zero spans,
    and an end time: the last snapshot's, later, or not positive."""
    times = sorted(draw(st.lists(TIMES, max_size=8)))
    timeline = [(t, draw(SNAPSHOTS)) for t in times]
    last = times[-1] if times else 0.0
    end = draw(st.one_of(st.just(last), st.sampled_from([0.0, -1.0]), TIMES.map(lambda d: last + d)))
    return timeline, end


@settings(max_examples=400, deadline=None, derandomize=True)
@given(timelines())
@example(([(0.0, {0: (1e300, 11, 1)})], 1e300))  # the product leaves the float range
@example(([(0.0, {0: (1.7e308, 2, 1), 1: (1.7e308, 2, 1)})], 1.0))  # so does a level
@example(([(0.0, {0: (1e308, 2, 1), 1: (math.nan, 1, 1), 2: (1e308, 2, 1)})], 1.0))
def test_deficit_proxy_is_bit_equal_to_the_every_row_integral(case):
    # a satisfied row's nan term resets fsum's partial sums, so the last
    # example overflows only if that row is dropped
    timeline, end = case
    assert deficit_outcome(deficit_proxy, timeline, end) == deficit_outcome(brute_deficit, timeline, end)


def test_deficit_proxy_sums_only_the_rows_short_of_ways(monkeypatch):
    terms = []

    def fsum(values):
        values = list(values)
        terms.append(len(values))
        return math.fsum(values)

    monkeypatch.setattr(metrics, "math", types.SimpleNamespace(fsum=fsum, isfinite=math.isfinite))
    timeline = [
        (0.0, {0: (2.0, 4, 2), 1: (1.0, 3, 3), 2: (0.5, 1, 6)}),
        (10.0, {0: (2.0, 4, 4), 1: (1.0, 3, 3)}),
        (12.0, {0: (2.0, 4, 1), 1: (1.0, 5, 3), 2: (0.5, 2, 2)}),
    ]
    assert deficit_proxy(timeline, 20.0) == 10 * 4.0 + 8 * 8.0
    assert terms == [1, 0, 2]


def test_throughputs_orders_by_pid():
    comp = {2: 4.0, 0: 2.0}
    assert throughputs(comp, {0: 1.0, 2: 1.0}) == [0.5, 0.25]
    assert throughputs(comp, {0: 2.0, 2: 2.0}) == [1.0, 0.5]
