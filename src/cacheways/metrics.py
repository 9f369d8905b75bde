"""Mix-level outcome metrics computed from simulation reports."""

from __future__ import annotations

import math

from .errors import CacheWaysError

SLA_FACTOR = 1.15


def weighted_speedup(
    baseline: dict[int, float],
    candidate: dict[int, float],
    weights: dict[int, float] | None = None,
) -> float:
    """Geometric mean over processes of baseline_time / candidate_time.

    Values above 1 mean the candidate finished the same work faster.  With
    `weights` (pid -> positive weight) the mean is weight-proportional;
    omitted, every process counts equally.  The identical-inputs case
    returns exactly 1.0.
    """
    if set(baseline) != set(candidate):
        raise CacheWaysError("speedup needs the same process set on both sides")
    if not baseline:
        raise CacheWaysError("speedup of an empty mix is undefined")
    if weights is not None and set(weights) != set(baseline):
        raise CacheWaysError("weights must cover exactly the process set")
    logs = []
    total = 0.0
    for pid in baseline:
        b, c = baseline[pid], candidate[pid]
        if b <= 0 or c <= 0:
            raise CacheWaysError("pid %d: non-positive completion time" % pid)
        w = 1.0 if weights is None else weights[pid]
        if w <= 0:
            raise CacheWaysError("pid %d: non-positive weight" % pid)
        total += w
        if b == c:
            logs.append(0.0)
        else:
            logs.append(w * (math.log(b) - math.log(c)))
    mean = math.fsum(logs) / total
    return 1.0 if mean == 0.0 else math.exp(mean)


def jain_fairness(values: list[float]) -> float:
    """Jain's index of a throughput-like sample, in (0, 1]; 1 is exact
    equality.  Computed as 1 / (1 + cv^2) with the population deviation."""
    if not values:
        raise CacheWaysError("fairness of an empty sample is undefined")
    if any(v <= 0 for v in values):
        raise CacheWaysError("fairness needs positive values")
    if all(v == values[0] for v in values):
        return 1.0
    n = len(values)
    mu = math.fsum(values) / n
    var = math.fsum((v - mu) ** 2 for v in values) / n
    return 1.0 / (1.0 + var / (mu * mu))


def sla_check(
    mixed: dict[int, float], unmixed: dict[int, float], factor: float = SLA_FACTOR
) -> tuple[bool, dict[int, float]]:
    """Per-process slowdown against the run-alone time.  Passes when every
    process stayed within `factor` of its unmixed completion."""
    if set(mixed) != set(unmixed):
        raise CacheWaysError("SLA needs the same process set on both sides")
    ratios = {}
    for pid in sorted(mixed):
        if unmixed[pid] <= 0:
            raise CacheWaysError("pid %d: non-positive unmixed time" % pid)
        ratios[pid] = mixed[pid] / unmixed[pid]
    return all(r <= factor for r in ratios.values()), ratios


def deficit_proxy(
    width_timeline: list[tuple[float, dict[int, tuple[float, int, int]]]],
    end_time: float,
) -> float:
    """Time-weighted unmet-demand measure: integrates
    sum_p alpha_p * max(0, required_p - granted_p) over the run.

    The timeline holds (timestamp, {pid: (alpha, required, granted)})
    snapshots; each snapshot is in force until the next one.  An integral
    past the float range is an error, not inf.
    """
    if end_time <= 0 or not width_timeline:
        return 0.0
    total = 0.0
    for i, (t0, snap) in enumerate(width_timeline):
        t1 = width_timeline[i + 1][0] if i + 1 < len(width_timeline) else end_time
        span = max(0.0, t1 - t0)
        if span == 0.0:
            continue
        level = math.fsum(
            alpha * max(0, req - granted) for alpha, req, granted in snap.values()
        )
        total += span * level
    if not math.isfinite(total):
        raise CacheWaysError("the unmet-demand integral leaves the float range")
    return total


def throughputs(completions: dict[int, float], work_ns: dict[int, float]):
    """Per-process rate sample for the fairness index: the inverse slowdown
    unmixed/mixed of each pid, in pid order."""
    return [work_ns[pid] / completions[pid] for pid in sorted(completions)]
