"""Linear phase-timing model.

A depth-n nest's execution time is modeled as

    T = c0 + c1*u1 + ... + cn*un,    u_i = U_1 * U_2 * ... * U_i,

where U_i are the loop trip counts.  The features u_i are cumulative bound
products; the coefficients come from a least-squares fit over training runs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from operator import mul
from typing import Sequence

from .errors import AccuracyUndefined, ArityError, FitSingular

RIDGE = 1e-12  # stabilizer on the normal equations: minimizes |Xc - y|^2 + RIDGE |c|^2
EPS = sys.float_info.epsilon
# Full-rank designs converge in a few sweeps; a rank-deficient one can leave
# rounding noise in a null column that keeps rotating, below the rank cut.
MAX_SWEEPS = 30


def make_features(bounds: Sequence[float]) -> tuple[float, ...]:
    """Cumulative products of the trip counts: (U1, U1*U2, ...)."""
    feats = []
    acc = 1.0
    for b in bounds:
        if b < 0:
            raise ArityError("negative trip count %r" % (b,))
        acc *= b
        feats.append(acc)
    return tuple(feats)


@dataclass(frozen=True)
class TimingModel:
    coefficients: tuple[float, ...]  # c0..cn
    fit_residual: float

    @property
    def depth(self) -> int:
        return len(self.coefficients) - 1


@dataclass(frozen=True)
class TrainingSample:
    bounds: tuple[float, ...]
    observed_time: float


def fit_timing(samples: Sequence[TrainingSample]) -> TimingModel:
    """Least-squares fit of the coefficients over the samples.

    Deterministic for a fixed sample order.  Raises FitSingular when the
    design matrix is rank-deficient (too few or affinely dependent samples).
    """
    if not samples:
        raise FitSingular("no training samples")
    depth = len(samples[0].bounds)
    rows = []
    y = []
    for s in samples:
        if len(s.bounds) != depth:
            raise ArityError(
                "sample arity %d != %d" % (len(s.bounds), depth)
            )
        rows.append((1.0,) + make_features(s.bounds))
        y.append(float(s.observed_time))
    ncoef = depth + 1
    rank, coef = _ridge_svd(rows, y)
    if rank < ncoef:
        raise FitSingular(
            "design matrix rank-deficient for %d coefficients" % ncoef
        )
    resid = math.sqrt(sum((_dot(r, coef) - t) ** 2 for r, t in zip(rows, y)) / len(y))
    return TimingModel(tuple(coef), resid)


def _dot(a: Sequence[float], b: Sequence[float]) -> float:
    return sum(map(mul, a, b))


def _ridge_svd(rows: list[tuple[float, ...]], y: list[float]) -> tuple[int, list[float]]:
    """Rank of the M x N matrix X and the ridge solution c, from a one-sided
    (Hestenes) Jacobi SVD.

    Plane rotations V make the columns w_i of W = XV pairwise orthogonal.
    The singular values are then |w_i|; the rank counts those above
    max(sigma) * max(M, N) * eps, the usual numerical-rank cut, and
    c = sum_i v_i (w_i . y) / (|w_i|^2 + RIDGE).
    """
    m, n = len(rows), len(rows[0])
    w = [list(col) for col in zip(*rows)]
    v = [[float(i == j) for i in range(n)] for j in range(n)]
    for _ in range(MAX_SWEEPS):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                a, b, g = _dot(w[p], w[p]), _dot(w[q], w[q]), _dot(w[p], w[q])
                if abs(g) <= EPS * math.sqrt(a * b):
                    continue
                rotated = True
                zeta = (b - a) / (2.0 * g)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                c = 1.0 / math.hypot(1.0, t)
                s = c * t
                for cols in (w, v):
                    cp, cq = cols[p], cols[q]
                    cols[p] = [c * e - s * f for e, f in zip(cp, cq)]
                    cols[q] = [s * e + c * f for e, f in zip(cp, cq)]
        if not rotated:
            break
    norms2 = [_dot(col, col) for col in w]
    cut = math.sqrt(max(norms2)) * max(m, n) * EPS
    rank = min(m, sum(math.sqrt(x) > cut for x in norms2))
    coef = [0.0] * n
    for wi, vi, x in zip(w, v, norms2):
        k = _dot(wi, y) / (x + RIDGE)
        coef = [ci + k * e for ci, e in zip(coef, vi)]
    return rank, coef


def predict_phase_time(model: TimingModel, bounds: Sequence[float]) -> float:
    """Evaluate the model at the given trip counts; clamps below at 0."""
    if len(bounds) != model.depth:
        raise ArityError(
            "got %d bounds for a depth-%d model" % (len(bounds), model.depth)
        )
    feats = make_features(bounds)
    val = model.coefficients[0]
    for c, u in zip(model.coefficients[1:], feats):
        val += c * u
    return max(0.0, val)


def timing_accuracy(model: TimingModel, test_samples: Sequence[TrainingSample]) -> float:
    """Mean relative accuracy in percent: mean of max(0, 1 - |pred-obs|/obs),
    skipping samples with observed time 0."""
    scores = []
    for s in test_samples:
        if s.observed_time == 0:
            continue
        pred = predict_phase_time(model, s.bounds)
        scores.append(max(0.0, 1.0 - abs(pred - s.observed_time) / s.observed_time))
    if not scores:
        raise AccuracyUndefined("every observed time is zero")
    return 100.0 * sum(scores) / len(scores)
