"""Cache-sensitivity attributes: way-time curves, the sensitivity factor
alpha, saturation (max-ways) detection, and the per-phase attribute bundle.

alpha sums the per-way execution-time improvement between observed points of
the way-time curve, up to the saturation point: a large alpha means the
process keeps speeding up as it gets more cache.  Curves may be sparse
(observed at a subset of way counts) as long as they start at w=2.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .errors import CurveIncomplete, SchemaError
from .loops import FootprintValue, ReuseClass

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
        prev = None
        for w, t in self.points:
            if t <= 0:
                raise SchemaError("curve time must be positive at w=%d" % w)
            if prev is not None and t > prev * (1.0 + MONOTONE_TOL):
                raise SchemaError("curve time increases at w=%d" % w)
            prev = t

    @property
    def last_way(self) -> int:
        return self.points[-1][0]

    def time_at(self, ways: int) -> float:
        """Time at an arbitrary way count >= 2: exact at observed points,
        linear between them, flat beyond the last one."""
        if ways < 2:
            raise CurveIncomplete("time_at needs ways >= 2, got %d" % ways)
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
        """[time_at(w) for w in 2..ways] in one walk over the points, with
        the same operations, so every value is bit-equal to time_at's."""
        pts = self.points
        out = [pts[0][1]] if ways >= 2 else []
        for (w0, t0), (w1, t1) in zip(pts, pts[1:]):
            span, dt = w1 - w0, t1 - t0
            out += [t0 + (w - w0) / span * dt for w in range(w0 + 1, min(w1, ways + 1))]
            if w1 > ways:
                return out
            out.append(t1)
        return out + [pts[-1][1]] * (ways - 1 - len(out))


def compute_alpha(curve: WayTimeCurve, max_ways: int) -> float:
    """Sensitivity factor: sum of |t_i - t_prev| / (w_i - w_prev) over the
    curve's observed points up to max_ways.  Zero for flat curves and for
    max_ways = 2 (empty sum).  Requires observations at both 2 and max_ways.
    """
    if max_ways < 2:
        raise CurveIncomplete("max_ways must be >= 2")
    pts = [(w, t) for w, t in curve.points if w <= max_ways]
    observed = {w for w, _ in pts}
    if 2 not in observed or max_ways not in observed:
        raise CurveIncomplete(
            "curve must cover 2..%d (observed %s)" % (max_ways, sorted(observed))
        )
    alpha = 0.0
    for (w0, t0), (w1, t1) in zip(pts, pts[1:]):
        alpha += abs(t1 - t0) / (w1 - w0)
    return alpha


def detect_max_ways(curve: WayTimeCurve, epsilon: float = 0.05) -> int:
    """Saturation point: the way count past which no step of the curve
    improves time by at least `epsilon` relative.  Floor of 2: an insensitive
    process still occupies two ways (below that the cache degenerates)."""
    if epsilon <= 0:
        raise SchemaError("epsilon must be positive")
    best = 2
    for (w0, t0), (w1, t1) in zip(curve.points, curve.points[1:]):
        if (t0 - t1) / t0 >= epsilon:
            best = w1
    return best


@dataclass(frozen=True)
class ProbeAttributes:
    """The per-phase payload: everything allocation needs to know about one
    outermost loop nest, its announced duration included."""

    phase_id: str
    footprint: FootprintValue
    reuse: ReuseClass
    alpha: float
    max_ways: int
    fixed_ns: float


def assemble_attributes(
    phase_id: str,
    footprint: FootprintValue,
    reuse: ReuseClass,
    curve: WayTimeCurve,
    fixed_ns: float,
    epsilon: float,
) -> ProbeAttributes:
    """Bundle the analysis outputs for one phase; the sensitivity pair
    (alpha, max-ways) is derived from the way-time curve here."""
    max_ways = detect_max_ways(curve, epsilon)
    alpha = compute_alpha(curve, max_ways)
    return ProbeAttributes(
        phase_id=phase_id,
        footprint=footprint,
        reuse=reuse,
        alpha=alpha,
        max_ways=max_ways,
        fixed_ns=fixed_ns,
    )
