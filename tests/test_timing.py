"""Linear phase-timing model: features, fitting, prediction, accuracy."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cacheways.errors import CacheWaysError
from cacheways.timing import (
    RIDGE,
    TimingModel,
    TrainingSample,
    fit_timing,
    make_features,
    predict_phase_time,
    timing_accuracy,
)

from support import raises_fault


def test_features_are_cumulative_products():
    assert make_features((10, 20, 30)) == (10.0, 200.0, 6000.0)


def test_features_empty_for_depth_zero():
    assert make_features(()) == ()


def test_features_reject_negative_bounds():
    with raises_fault("negative trip count -1"):
        make_features((4, -1))


def test_fit_recovers_exact_generator():
    coefs = (3.5, 0.25, 0.01)
    samples = []
    for b1, b2 in ((10, 3), (20, 5), (7, 7), (100, 2), (50, 9), (13, 4)):
        t = coefs[0] + coefs[1] * b1 + coefs[2] * b1 * b2
        samples.append(TrainingSample((float(b1), float(b2)), t))
    model = fit_timing(samples)
    for got, want in zip(model.coefficients, coefs):
        assert got == pytest.approx(want, rel=1e-9)
    assert model.fit_residual == pytest.approx(0.0, abs=1e-6)


def test_fit_is_deterministic():
    samples = [
        TrainingSample((float(b),), 5.0 + 2.0 * b + random.Random(b).uniform(-1, 1))
        for b in range(1, 20)
    ]
    m1 = fit_timing(samples)
    m2 = fit_timing(list(samples))
    assert m1 == m2


def test_fit_residual_is_rms_of_training_error():
    # two points, three coefficients would be singular; use depth 1 and an
    # inconsistent third point so the residual is forced nonzero
    samples = [
        TrainingSample((1.0,), 10.0),
        TrainingSample((2.0,), 20.0),
        TrainingSample((3.0,), 33.0),
    ]
    model = fit_timing(samples)
    preds = [predict_phase_time(model, s.bounds) for s in samples]
    rms = (sum((p - s.observed_time) ** 2 for p, s in zip(preds, samples)) / 3) ** 0.5
    assert model.fit_residual == pytest.approx(rms, rel=1e-6)


def test_fit_rejects_rank_deficiency():
    samples = [TrainingSample((2.0, 3.0), 10.0), TrainingSample((2.0, 3.0), 10.0)]
    with raises_fault("design matrix rank-deficient for 3 coefficients"):
        fit_timing(samples)
    with raises_fault("no training samples"):
        fit_timing([])


def test_fit_rejects_a_feature_whose_sum_of_squares_leaves_the_float_range():
    # each square is finite, but the squares of u1 sum past the float range
    # and u3 is all zero; the sweep used to divide by a zero inner product
    samples = [
        TrainingSample((1.1694168355914049e+154, 1.0, 0.0), 283.9),
        TrainingSample((74.7, 0.0, 1.0), 711.9),
        TrainingSample((0.0, 7.615149903541562e+153, 62.4), 141.5),
        TrainingSample((1.2412457692364477e+154, 0.0, 4.426801626989733e+153), 819.7),
    ]
    with raises_fault("feature u1: its sum of squares over the samples leaves the float range"):
        fit_timing(samples)


@pytest.mark.parametrize("bounds", [
    [(float(u), 0.1) for u in (3, 7, 10, 13, 29, 41)],
    [(2.0, 3.0)] * 6,
    [(1.0, 2.0, 3.0), (4.0, 5.0, 6.0), (7.0, 8.0, 10.0)],
], ids=["constant-fractional-bound", "duplicate-rows", "fewer-samples-than-coefficients"])
def test_fit_rejects_numerically_singular_designs(bounds):
    samples = [TrainingSample(b, 1.0 + sum(b)) for b in bounds]
    with raises_fault("design matrix rank-deficient"):
        fit_timing(samples)


def test_fit_rejects_mixed_arity():
    with raises_fault("sample arity 2 != 1"):
        fit_timing([TrainingSample((1.0,), 1.0), TrainingSample((1.0, 2.0), 2.0)])


def test_predict_checks_arity():
    model = TimingModel((1.0, 2.0), 0.0)
    with raises_fault("got 2 bounds for a depth-1 model"):
        predict_phase_time(model, (1.0, 2.0))


def test_predict_clamps_below_zero():
    model = TimingModel((-100.0, 1.0), 0.0)
    assert predict_phase_time(model, (5.0,)) == 0.0


def test_accuracy_perfect_model_is_hundred():
    model = TimingModel((0.0, 2.0), 0.0)
    samples = [TrainingSample((float(b),), 2.0 * b) for b in (1, 5, 9)]
    assert timing_accuracy(model, samples) == 100.0


def test_accuracy_skips_zero_observations():
    model = TimingModel((0.0, 2.0), 0.0)
    samples = [TrainingSample((1.0,), 0.0), TrainingSample((2.0,), 4.0)]
    assert timing_accuracy(model, samples) == 100.0


def test_accuracy_undefined_when_all_zero():
    model = TimingModel((0.0, 1.0), 0.0)
    with raises_fault("every observed time is zero"):
        timing_accuracy(model, [TrainingSample((1.0,), 0.0)])


def test_accuracy_floors_each_score_at_zero():
    model = TimingModel((1000.0, 0.0), 0.0)
    samples = [TrainingSample((1.0,), 1.0), TrainingSample((2.0,), 1000.0)]
    # first sample is off by 999x (scores 0), second is exact
    assert timing_accuracy(model, samples) == 50.0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=False))
def test_fit_recovery_property(rng):
    depth = rng.randint(1, 3)
    coefs = [rng.uniform(0.1, 100.0) for _ in range(depth + 1)]
    samples = []
    for _ in range(depth + 4):
        bounds = tuple(float(rng.randint(1, 60)) for _ in range(depth))
        feats = make_features(bounds)
        t = coefs[0] + sum(c * u for c, u in zip(coefs[1:], feats))
        samples.append(TrainingSample(bounds, t))
    try:
        model = fit_timing(samples)
    except CacheWaysError as exc:
        assert "rank-deficient" in str(exc)
        return  # a degenerate draw, nothing to assert
    for got, want in zip(model.coefficients, coefs):
        assert got == pytest.approx(want, rel=1e-5, abs=1e-5)


def exact_solve(a, b):
    """Solve a c = b in Fractions by Gauss-Jordan elimination; None when a
    is singular."""
    n = len(a)
    m = [list(row) + [rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col] / m[col][col]
                m[r] = [x - f * p for x, p in zip(m[r], m[col])]
    return [m[i][n] / m[i][i] for i in range(n)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=False))
def test_fit_matches_exact_ridge_solution(rng):
    """The normal equations of the augmented system [X; sqrt(RIDGE) I] c = [y; 0]
    are (X^T X + RIDGE I) c = X^T y; with integer bounds X is exact, so the fit
    is singular exactly when X^T X is."""
    depth = rng.randint(0, 3)
    coefs = [rng.uniform(0.1, 100.0) for _ in range(depth + 1)]
    samples = []
    for _ in range(rng.randint(1, 45)):
        bounds = tuple(float(rng.randint(1, 60)) for _ in range(depth))
        t = coefs[0] + sum(c * u for c, u in zip(coefs[1:], make_features(bounds)))
        samples.append(TrainingSample(bounds, t * rng.uniform(0.99, 1.01)))
    x = [[Fraction(1)] + [Fraction(u) for u in make_features(s.bounds)] for s in samples]
    y = [Fraction(s.observed_time) for s in samples]
    cols = range(depth + 1)
    gram = [[sum(r[i] * r[j] for r in x) for j in cols] for i in cols]
    xty = [sum(r[i] * t for r, t in zip(x, y)) for i in cols]
    if exact_solve(gram, xty) is None:
        with raises_fault("design matrix rank-deficient"):
            fit_timing(samples)
        return
    ridge = [[g + (Fraction(RIDGE) if i == j else 0) for j, g in enumerate(row)] for i, row in enumerate(gram)]
    want = [float(c) for c in exact_solve(ridge, xty)]
    assert fit_timing(samples).coefficients == pytest.approx(want, rel=1e-9)
