"""Outcome metrics, checked against small hand-computed samples."""

import math

import pytest

from cacheways.metrics import (
    SLA_FACTOR,
    deficit_proxy,
    jain_fairness,
    sla_check,
    throughputs,
    weighted_speedup,
)

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


def test_throughputs_orders_by_pid():
    comp = {2: 4.0, 0: 2.0}
    assert throughputs(comp, {0: 1.0, 2: 1.0}) == [0.5, 0.25]
    assert throughputs(comp, {0: 2.0, 2: 2.0}) == [1.0, 0.5]
