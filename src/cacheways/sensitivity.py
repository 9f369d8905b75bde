"""Cache-sensitivity attributes: way-time curves, the sensitivity factor
alpha and saturation (max-ways) detection.

alpha sums the per-way execution-time improvement between observed points of
the way-time curve, up to the saturation point: a large alpha means the
process keeps speeding up as it gets more cache.  Curves may be sparse
(observed at a subset of way counts) as long as they start at w=2.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .errors import CacheWaysError, SchemaError

MONOTONE_TOL = 1e-6


@dataclass(frozen=True)
class WayTimeCurve:
    """Execution time (ns) by allocated way count, observed at w >= 2.

    Points are (ways, time) sorted by ways; times are monotone non-increasing
    within a 1e-6 relative tolerance.
    """

    points: tuple[tuple[int, float], ...]

    def __post_init__(self):
        if not self.points:
            raise SchemaError("way-time curve has no points")
        ways = [w for w, _ in self.points]
        if ways != sorted(set(ways)):
            raise SchemaError("curve way counts must be strictly increasing")
        if ways[0] != 2:
            raise SchemaError("curve must start at 2 ways, got %d" % ways[0])
        check_times(self.points)

    def time_at(self, ways: int) -> float:
        """Time at an arbitrary way count >= 2: exact at observed points,
        linear between them, flat beyond the last one."""
        if ways < 2:
            raise CacheWaysError("time_at needs ways >= 2, got %d" % ways)
        pts = self.points
        if ways <= pts[0][0]:
            return pts[0][1]
        if ways >= pts[-1][0]:
            return pts[-1][1]
        i = bisect_left(pts, (ways,))  # (w,) sorts before every (w, t)
        w1, t1 = pts[i]
        if w1 == ways:
            return t1
        w0, t0 = pts[i - 1]
        frac = (ways - w0) / (w1 - w0)
        return t0 + frac * (t1 - t0)

    def times(self, ways: int) -> list[float]:
        """[time_at(w) for w in 2..ways] in one straight walk over the
        points: each observed time is appended, a gap wider than one way is
        filled with time_at's own expression (so every value is bit-equal to
        it), the walk stops at the first point past `ways`, and one list
        product pads the flat tail."""
        if ways < 2:
            return []
        pts = self.points
        w0, t0 = pts[0]
        out = [t0]
        for w1, t1 in pts[1:]:
            if w1 - w0 > 1:
                span, dt = w1 - w0, t1 - t0
                for w in range(w0 + 1, w1 if w1 <= ways else ways + 1):
                    out.append(t0 + (w - w0) / span * dt)
            if w1 > ways:
                return out
            out.append(t1)
            w0, t0 = w1, t1
        return out + [t0] * (ways - w0)


def check_times(points) -> None:
    """The time rules of a way-time table, (ways, time) points in way order:
    every time is positive, and none exceeds the one before it by more than
    MONOTONE_TOL relative.  A parsed curve and `process_sensitivity`'s
    summed table both answer to them."""
    prev = None
    for w, t in points:
        if t <= 0:
            raise SchemaError("curve time must be positive at w=%d" % w)
        if prev is not None and t > prev * (1.0 + MONOTONE_TOL):
            raise SchemaError("curve time increases at w=%d" % w)
        prev = t


def alpha_sum(points, max_ways: int) -> float:
    """Sensitivity factor of a table of (ways, time) points in strictly
    increasing way order: sum of |t_i - t_prev| / (w_i - w_prev) over the
    points up to max_ways, which must include both 2 and max_ways."""
    if max_ways < 2:
        raise CacheWaysError("max_ways must be >= 2")
    rest = iter(points)
    w0, t0 = first = next(rest, (0, 0.0))  # an empty table covers nothing
    alpha = 0.0
    for w1, t1 in rest:
        if w1 > max_ways:
            break
        alpha += abs(t1 - t0) / (w1 - w0)
        w0, t0 = w1, t1
    # in way order, 2 and max_ways are observed iff they are the ends
    if first[0] != 2 or w0 != max_ways:
        raise CacheWaysError("curve must cover 2..%d (observed %s)"
                             % (max_ways, [w for w, _ in points if w <= max_ways]))
    return alpha


def saturation_ways(points, epsilon: float) -> int:
    """Saturation point of a table of (ways, time) points in way order: the
    way count past which no step improves time by at least `epsilon`
    relative, and at least 2."""
    if epsilon <= 0:
        raise SchemaError("epsilon must be positive")
    best = 2
    for (w0, t0), (w1, t1) in zip(points, points[1:]):
        if (t0 - t1) / t0 >= epsilon:
            best = w1
    return best


def assemble_attributes(curve: WayTimeCurve, epsilon: float) -> tuple[float, int]:
    """The sensitivity pair (alpha, max-ways) of a phase's way-time curve."""
    max_ways = saturation_ways(curve.points, epsilon)
    return alpha_sum(curve.points, max_ways), max_ways
