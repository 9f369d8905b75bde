"""Reference implementations the test suite checks the library against.

Everything here is written the slow, obvious way on purpose: walk every
iteration, keep explicit sets, count by hand with exact arithmetic.  None of
it shares code with the package beyond the input dataclasses, except the
sensitivity reference, which keeps the package's per-point curve arithmetic
so that its floats compare with ==, and the engine reference, which drives
the package's placement and policies so that only the engine loop differs.
"""

import math
from fractions import Fraction

from cacheways.apportion import SATURATION_EPSILON, STREAM_DEN, STREAM_NUM, ReuseClass, Scenario
from cacheways.errors import CacheWaysError
from cacheways.loops import (
    Affine,
    Bound,
    LoopLevel,
    LoopNest,
    MemoryAccess,
    Statement,
)
from cacheways.sensitivity import WayTimeCurve, alpha_sum, saturation_ways
from cacheways.simulate import (
    _POLICIES,
    SimReport,
    _Placement,
    mix_config,
    phase_speed,
    run_unmixed,
    validate_mix,
)


def iteration_trace(nest):
    """Flat access trace in execution order.

    Statements at depth k run, in list order, at the top of each iteration of
    loop k, before loop k+1 starts.  Yields (array, element_index, stmt_idx,
    acc_idx) per memory access.
    """
    out = []
    depth = len(nest.loops)

    def subscript_value(acc, env):
        v = acc.subscript.const
        for name, c in acc.subscript.coeffs:
            v += c * env[name]
        return v

    def level(k, env):
        for si, stmt in enumerate(nest.statements):
            if stmt.depth == k:
                for ai, acc in enumerate(stmt.accesses):
                    out.append((acc.array, subscript_value(acc, env), si, ai))
        if k < depth:
            lv = nest.loops[k]
            for v in range(lv.upper_bound.value):
                env[lv.index_name] = v
                level(k + 1, env)
                del env[lv.index_name]

    first = nest.loops[0]
    for v in range(first.upper_bound.value):
        level(1, {first.index_name: v})
    return out


def brute_footprint(nest, line_size=64):
    """(bytes, lines) by materializing every touched byte address.

    Arrays are disjoint, line-aligned address spaces; element k of element
    size es covers bytes [k*es, (k+1)*es).
    """
    by_array = {}
    elem_size = {
        (si, ai): acc.element_size
        for si, stmt in enumerate(nest.statements)
        for ai, acc in enumerate(stmt.accesses)
    }
    for array, idx, si, ai in iteration_trace(nest):
        es = elem_size[(si, ai)]
        by_array.setdefault(array, set()).update(
            range(idx * es, idx * es + es)
        )
    total_bytes = 0
    total_lines = 0
    for array in sorted(by_array):
        addrs = by_array[array]
        total_bytes += len(addrs)
        total_lines += len({a // line_size for a in addrs})
    return total_bytes, total_lines


def strict_gaps(trace):
    """Counts of accesses strictly between consecutive touches of each
    address: {(array, index): [gap, ...]}."""
    last_pos = {}
    gaps = {}
    for pos, (array, idx, _, _) in enumerate(trace):
        key = (array, idx)
        if key in last_pos:
            gaps.setdefault(key, []).append(pos - last_pos[key] - 1)
        last_pos[key] = pos
    return gaps


def alpha_reference(points, max_ways):
    """Sensitivity factor recomputed with exact rationals: the summed
    per-way improvement between observed points up to max_ways."""
    pts = sorted((w, t) for w, t in points if w <= max_ways)
    total = Fraction(0)
    for (w0, t0), (w1, t1) in zip(pts, pts[1:]):
        total += abs(Fraction(t1) - Fraction(t0)) / (w1 - w0)
    return float(total)


def process_sensitivity_reference(proc, config):
    """Process-level (alpha, max_ways), summing time_at per way count: the
    explicit pair wins, else the phase curves' pointwise sum over 2..W gives
    max-ways by saturation and alpha up to max-ways clamped into 2..W."""
    if proc.alpha is not None and proc.max_ways is not None:
        return proc.alpha, proc.max_ways
    points = tuple(
        (w, sum(ph.curve.time_at(w) for ph in proc.phases))
        for w in range(2, config.ways_per_socket + 1)
    )
    curve = WayTimeCurve(points)
    mw = proc.max_ways
    if mw is None:
        mw = saturation_ways(curve.points, SATURATION_EPSILON)
    alpha = proc.alpha
    if alpha is None:
        alpha = alpha_sum(curve.points, min(max(mw, 2), config.ways_per_socket))
    return alpha, mw


def brute_effective_ways(mask, claims):
    """Effective ways of a reuse phase holding `mask`: the floor of the exact
    sum of 1/claims[w] over every way w of the mask, and at least 1."""
    total = sum(Fraction(1, claims[w]) for w in range(len(claims)) if mask >> w & 1)
    return max(1, math.floor(total))


def brute_refresh(place, is_reuse):
    """A stand-in for `_Placement.refresh` that remembers nothing: recount
    each socket's reuse claims per way from every placed pid's mask and
    phase (`is_reuse(pid)`), and return the effective ways of every placed
    pid, a stream's being its mask's bit count.  Clears `dirty` and `moved`
    as refresh does, and leaves the placement's own claim counts alone."""
    reuse = {pid: is_reuse(pid) for pid in place.socket_of}
    ways = place.config.ways_per_socket
    claims = [[0] * ways for _ in place.pids]
    for pid, sid in place.socket_of.items():
        if reuse[pid]:
            for w in range(ways):
                claims[sid][w] += place.mask_of[pid] >> w & 1
    place.dirty.clear()
    place.moved.clear()
    return {
        pid: brute_effective_ways(place.mask_of[pid], claims[sid]) if reuse[pid]
        else bin(place.mask_of[pid]).count("1")
        for pid, sid in place.socket_of.items()
    }


class _SettledRun:
    """A process as the settle-every-run engine keeps it: its phase, the
    work left in it and its speed."""

    def __init__(self, spec, alpha, max_ways):
        self.spec, self.pid, self.alpha, self.max_ways = spec, spec.pid, alpha, max_ways
        self.phase_idx, self.work_rem, self.speed, self.reuse = 0, 0.0, 0.0, False

    @property
    def phase(self):
        return self.spec.phases[self.phase_idx]

    def enter(self, phase_idx):
        self.phase_idx = phase_idx
        self.work_rem = self.phase.work
        self.reuse = self.phase.reuse is ReuseClass.REUSE


def settle_every_run_mix(mix, policy, config=None):
    """`run_mix` as it ran before runs kept anchors, for mixes that run: at
    every event, take each active run's end from its work left, move to the
    earliest end, arrival or tick, settle every other run's work to that
    time, and, after any placement change, recompute every placed run's
    speed and every active row through `brute_refresh`.  Ends, ticks,
    admissions and snapshots follow run_mix's order, so the reports differ
    only where the work settled at every event rounds differently from the
    work settled at each re-anchor."""
    validate_mix(mix)
    cfg = mix_config(mix, config)
    place = _Placement(cfg)
    ctl = _POLICIES[policy.kind](place, policy)
    runs = {p.pid: _SettledRun(p, *ctl.sensitivity(p)) for p in mix.processes}
    pending = sorted(((p.start_ns, p.pid) for p in mix.processes), reverse=True)
    waiting, active, completions, timeline, rows = [], [], {}, [], {}
    now = 0.0
    while pending or waiting or active:
        ends = [now + r.work_rem / r.speed for r in active]
        tick = ctl.next_tick
        t = min(ends + ([pending[-1][0]] if pending else []) + ([tick] if tick is not None else []))
        ending = []
        for r, end in zip(active, ends):
            if end == t:
                ending.append(r)
            else:
                r.work_rem -= (t - now) * r.speed
        now, released = t, False
        for r in ending:
            if r.phase_idx + 1 < len(r.spec.phases):
                r.enter(r.phase_idx + 1)
                place.dirty.add(r.pid)
                ctl.phase_change(now, r)
            else:
                released = True
                active.remove(r)
                completions[r.pid] = now - r.spec.start_ns
                ctl.release(now, r, place.drop(r.pid))
        if ctl.next_tick == t:
            ctl.tick(now, runs)
        due = []
        while pending and pending[-1][0] <= now:
            due.append(pending.pop()[1])
        if due or (released and waiting):
            pids = sorted(due + waiting)
            room = sum(ctl.room(s) for s in range(cfg.sockets))
            batch, waiting = [runs[pid] for pid in pids[:room]], pids[room:]
            for r in batch:
                r.enter(0)
            if batch:
                ctl.admit(now, batch)
            active = sorted(active + batch, key=lambda r: r.pid)
        if place.dirty:
            for pid, eff in brute_refresh(place, lambda pid: runs[pid].reuse).items():
                runs[pid].speed = phase_speed(runs[pid].phase, eff)
            now_rows = {r.pid: ctl.row(r) for r in active}
            if list(now_rows.items()) != list(rows.items()):
                rows = now_rows
                timeline.append((now, dict(rows)))
    records, apportions, max_group, warnings = ctl.log()
    return SimReport(
        mix_name=mix.name, category=mix.category, policy=policy.kind,
        interval_ns=ctl.interval_ns, completions=completions,
        unmixed={p.pid: run_unmixed(p, cfg) for p in mix.processes},
        records=records, width_timeline=timeline, end_time=now,
        apportion_count=apportions, max_clos_group_size=max_group, warnings=warnings,
    )


def cache_fractions(active):
    """{pid: exact share of the socket} over (pid, bytes, reuse class)
    triples: each footprint, a stream's scaled by STREAM_NUM / STREAM_DEN,
    over their sum."""
    scale = Fraction(STREAM_NUM, STREAM_DEN)
    return exact_shares({
        pid: nbytes * (1 if reuse is ReuseClass.REUSE else scale)
        for pid, nbytes, reuse in active
    })


def exact_shares(masses):
    """{pid: mass / total} over a socket's {pid: mass} as Fractions; all-zero
    masses split evenly."""
    total = sum(masses.values())
    if total == 0:
        return {pid: Fraction(1, len(masses)) for pid in masses}
    return {pid: Fraction(m) / total for pid, m in masses.items()}


def half_up_ways(share, ways, max_ways):
    """A share's way demand: share x ways rounded half-up as an exact
    rational, then at least 1 and at most max_ways."""
    return min(max_ways, max(1, math.floor(share * ways + Fraction(1, 2))))


def scenario(masks, ways):
    """Occupancy of a socket whose occupied CLOS hold `masks`, by counting
    how many of them hold each way: overlapping if some way has two
    holders, else underutilized if some way has none, else full-disjoint."""
    holders = [sum(mask >> w & 1 for mask in masks) for w in range(ways)]
    if max(holders) > 1:
        return Scenario.OVERLAPPING
    if min(holders) == 0:
        return Scenario.UNDERUTILIZED
    return Scenario.FULL_DISJOINT


def brute_window(ways, width, hot, used):
    """The run of `width` of `ways` ways with the least (hot overlap, used
    overlap, start), every start scored, overlaps counted way by way."""
    def key(start):
        span = range(start, start + width)
        return (sum(hot >> w & 1 for w in span), sum(used >> w & 1 for w in span), start)

    start = min(range(ways - width + 1), key=key)
    return sum(1 << w for w in range(start, start + width))


def brute_deficit(width_timeline, end_time):
    """The unmet-demand integral as first written: every row of a snapshot
    enters its level, a satisfied one as alpha * 0."""
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


def brute_extend(ways, mask, used, add):
    """Grow the run `mask` of a `ways`-way socket into adjacent ways that
    `used` leaves free, one way at a time: up from its top way, then down
    from its bottom way, until `add` ways are added.  Returns (the new mask,
    the ways added)."""
    if add <= 0 or mask == 0:
        return mask, 0
    free = ~used & ((1 << ways) - 1)
    lo = (mask & -mask).bit_length() - 1
    hi = mask.bit_length() - 1
    added = 0
    while added < add and hi + 1 < ways and free >> (hi + 1) & 1:
        hi += 1
        mask |= 1 << hi
        added += 1
    while added < add and lo - 1 >= 0 and free >> (lo - 1) & 1:
        lo -= 1
        mask |= 1 << lo
        added += 1
    return mask, added


def brute_shrink(mask, remove):
    """Take the top way off `mask`, one at a time, `remove` times or until
    nothing is left.  Returns (the new mask, the ways removed)."""
    removed = 0
    while removed < remove and mask:
        mask &= ~(1 << mask.bit_length() - 1)
        removed += 1
    return mask, removed


def is_contiguous(mask):
    """True when the set bits of `mask` form one run (or there are none)."""
    return "0" not in bin(mask)[2:].strip("0")


def two_statement_nest(m, n):
    """The reuse-law family: an outer loop whose first statement re-reads,
    two iterations later, the element its second statement read, above an
    inner loop streaming over a second array.

        for i in [0, M):
            S1: read A[i]
            S2: read A[i+2]
            for j in [0, N):
                S3: read B[j]
    """
    return LoopNest(
        name="pair-m%d-n%d" % (m, n),
        loops=(
            LoopLevel("i", Bound(m)),
            LoopLevel("j", Bound(n)),
        ),
        statements=(
            Statement((MemoryAccess("A", 8, Affine(0, (("i", 1),))),), 1),
            Statement((MemoryAccess("A", 8, Affine(2, (("i", 1),))),), 1),
            Statement((MemoryAccess("B", 8, Affine(0, (("j", 1),))),), 2),
        ),
    )


def random_affine_nest(rng, name, max_depth=3, max_work=100_000):
    """A randomized affine nest within the enumeration oracle's reach.

    Bounds are drawn log-uniform so most nests are small; subscripts mix
    constants, single strided indices (negative strides included) and
    occasional multi-index forms that force the closed form inexact.
    """
    depth = rng.randint(1, max_depth)
    while True:
        bounds = [rng.choice([1, 2, 3, 5, 8, 13, 40, 100]) for _ in range(depth)]
        work = 1
        for b in bounds:
            work *= b
        if work <= max_work:
            break
    names = ["i", "j", "k"][:depth]
    loops = tuple(
        LoopLevel(nm, Bound(b)) for nm, b in zip(names, bounds)
    )
    stmts = []
    n_stmts = rng.randint(1, 3)
    stmt_depths = sorted(rng.randint(1, depth) for _ in range(n_stmts))
    for d in stmt_depths:
        accesses = []
        for _ in range(rng.randint(1, 3)):
            es = rng.choice([1, 2, 4, 8])
            array = rng.choice(["A", "B", "C"])
            style = rng.random()
            avail = names[:d]
            if style < 0.15:
                sub = Affine(rng.randint(0, 64), ())
            elif style < 0.75 or d == 1:
                idx = rng.choice(avail)
                stride = rng.choice([-3, -1, 1, 1, 2, 4, 7])
                sub = Affine(rng.randint(-8, 64), ((idx, stride),))
            else:
                pair = rng.sample(avail, min(2, len(avail)))
                sub = Affine(
                    rng.randint(0, 16),
                    tuple((nm, rng.choice([1, 2, 5])) for nm in pair),
                )
            accesses.append(
                MemoryAccess(array, es, sub, rng.choice(["read", "write"]))
            )
        stmts.append(Statement(tuple(accesses), d))
    return LoopNest(name=name, loops=loops, statements=tuple(stmts))
