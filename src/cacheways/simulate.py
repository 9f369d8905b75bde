"""Deterministic discrete-event co-execution of a process mix.

Execution is work-based: each phase carries abstract work units and a
way-time curve, and a process advances at speed work / t(effective ways).
When an allocation changes mid-phase the remaining work is preserved and the
remaining duration rescales with the new speed.  Simultaneous events settle in
(time, pid, kind) order.

One engine loop runs every policy and never asks which one it runs.  The
next event is the earliest phase end, arrival or policy tick; one pass
settles every active run's work and collects the runs whose phase ends
then.  A policy with a clock keeps it itself and names its next tick, which
settles after the phase events of its instant.

A policy only chooses which way mask each admitted process holds, on which
socket; the placement rejects any mask but one run of contiguous ways, as
CAT requires.  The engine keeps that placement and applies one contention
rule to every policy: a streaming phase sees its whole mask; a reuse phase
gets the exact integer floor of sum(1/k) over the ways of its mask, where k
is the number of reuse phases holding that way (itself included), and never
less than 1.  Claim counts are kept per socket and way, and each socket's
reuse phases are grouped by the mask they claim: a group's ways depend only
on its socket, its mask and the claim counts on the mask's span.  After each
event the rule is read once for each group whose mask meets a way whose
claim count changed, and for each new group; it is memoized for the whole
run on the mask and the claim counts on its span.  A group hands its runs
back only when its ways changed, and every run whose mask or phase changed
is handed back.  A run's speed is recomputed only when its phase, mask or
presence changed or its effective ways did.  The width timeline gains a
snapshot, a copy of the active rows kept in pid order, only when a row
changed or a process was admitted or completed.

A run pays only for what its policy reads: each policy derives the
(alpha, max_ways) pair itself, once per process, and `unpartitioned`, which
reads neither, derives nothing.

Four policies choose masks:
  * comcas        probe-guided: the Apportioner places arrivals in batches,
                  re-apportions at every phase change and recycles releases;
                  after each operation the placement reads back the CLOS
                  it moved,
  * unpartitioned every process holds the full socket mask,
  * maxways       every process statically holds a best-fit window of its
                  saturation way count,
  * reactive      equal split, then one way moved per fixed-interval tick
                  toward the neediest process (a counter-sampling stand-in);
                  the only policy with a clock.

Reports are bit-reproducible for identical inputs.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass, field, replace

from .apportion import (
    _REUSE,
    SATURATION_EPSILON,
    AllocationRecord,
    Apportioner,
    ReuseClass,
    SystemConfig,
    best_window,
)
from .errors import CacheWaysError
from .sensitivity import WayTimeCurve, alpha_sum, check_times, saturation_ways

CATEGORIES = ("light", "medium", "heavy")
DM_PENALTY = 1.25  # one way acts as a directly-mapped cache: it takes t(2) times this
INTERVAL_NS = 5e8  # the reactive controller period, unless a run names one


@dataclass(frozen=True)
class PhaseSpec:
    """One phase: its work, the two values the allocator is told (reuse
    class and footprint bytes), its way-time curve and, optionally, the
    duration it announces (by default its time at full width)."""

    phase_id: str
    work: float
    reuse: ReuseClass
    nbytes: int
    curve: WayTimeCurve
    fixed_ns: float | None = None


@dataclass(frozen=True)
class ProcessSpec:
    pid: int
    phases: tuple[PhaseSpec, ...]
    start_ns: float = 0.0
    alpha: float | None = None  # derived from curves when absent
    max_ways: int | None = None


@dataclass
class MixSpec:
    name: str
    category: str
    processes: tuple[ProcessSpec, ...]
    config_overrides: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Policy:
    kind: str  # comcas | unpartitioned | maxways | reactive
    interval_ns: float = INTERVAL_NS

    def __post_init__(self):
        if self.kind not in _POLICIES:
            raise CacheWaysError("unknown policy %r" % (self.kind,))
        if not (math.isfinite(self.interval_ns) and self.interval_ns > 0):
            raise CacheWaysError("policy interval must be positive and finite")


@dataclass
class SimReport:
    mix_name: str
    category: str
    policy: str
    interval_ns: float | None
    completions: dict[int, float]  # pid -> its end less its arrival (start_ns)
    unmixed: dict[int, float]
    records: list[AllocationRecord]
    width_timeline: list[tuple[float, dict[int, tuple[float, int, int]]]]
    end_time: float
    apportion_count: int
    max_clos_group_size: int
    warnings: list[str]


def validate_mix(mix: MixSpec) -> None:
    if mix.category not in CATEGORIES:
        raise CacheWaysError("mix %r: category %r" % (mix.name, mix.category))
    if not mix.processes:
        raise CacheWaysError("mix %r has no processes" % mix.name)
    seen = set()
    for proc in mix.processes:
        if proc.pid in seen:
            raise CacheWaysError("mix %r: duplicate pid %d" % (mix.name, proc.pid))
        seen.add(proc.pid)
        if not proc.phases:
            raise CacheWaysError("mix %r: pid %d has no phases" % (mix.name, proc.pid))
        if not math.isfinite(proc.start_ns):
            raise CacheWaysError("mix %r: pid %d start must be finite" % (mix.name, proc.pid))
        for ph in proc.phases:
            if not (math.isfinite(ph.work) and ph.work > 0):
                raise CacheWaysError(
                    "mix %r: pid %d phase %r work must be positive and finite"
                    % (mix.name, proc.pid, ph.phase_id)
                )


def mix_config(mix: MixSpec, base: SystemConfig | None = None) -> SystemConfig:
    cfg = base or SystemConfig()
    if mix.config_overrides:
        cfg = replace(cfg, **mix.config_overrides)
    return cfg


def process_sensitivity(proc: ProcessSpec, config: SystemConfig) -> tuple[float, int]:
    """Process-level (alpha, max_ways): explicit values win, otherwise they
    are derived from the pointwise sum of the process's phase curves over
    2..W, one straight walk per curve (`WayTimeCurve.times`), so a run pays
    for each phase's curve once.  The summed table answers to a curve's
    time rules (`check_times`) and is read as it is, with no curve built
    around it: its ways 2..W are in order by construction.  A derived alpha
    covers 2..max_ways with max_ways clamped into 2..W, so an explicit
    max-ways past the socket's ways, or below 2, still runs.  Only the
    policies that read the pair call this (see `_Policy.sensitivity`)."""
    if proc.alpha is not None and proc.max_ways is not None:
        return proc.alpha, proc.max_ways
    ways = config.ways_per_socket
    columns = zip(*[ph.curve.times(ways) for ph in proc.phases])
    points = list(enumerate(map(sum, columns), 2))
    check_times(points)
    mw = proc.max_ways
    if mw is None:
        mw = saturation_ways(points, SATURATION_EPSILON)
    alpha = proc.alpha
    if alpha is None:
        alpha = alpha_sum(points, min(max(mw, 2), ways))
    return alpha, mw


def phase_speed(phase: PhaseSpec, ways: int) -> float:
    """Execution speed (work units per ns) at a way count.  One way behaves
    like a directly-mapped cache: t(2) stretched by DM_PENALTY."""
    if ways < 1:
        raise CacheWaysError("phase %r: ways must be >= 1" % phase.phase_id)
    if ways == 1:
        t = phase.curve.time_at(2) * DM_PENALTY
    else:
        t = phase.curve.time_at(ways)
    return phase.work / t


def _check_run(mask: int, ways: int) -> None:
    """A way mask is one run of the ways below `ways`: CAT takes no empty
    mask and none with a gap."""
    if not mask or mask & mask + (mask & -mask) or mask >> ways:
        raise CacheWaysError("mask %#x is not one run of ways below way %d" % (mask, ways))


def effective_ways(mask: int, claims, reuse: bool) -> int:
    """Ways a phase effectively owns of its `mask`, one run of the ways of
    `claims` (the contention rule).  A streaming phase sees every way of it.
    A reuse phase gets the exact floor of sum(1 / claims[w]) over the ways w
    of its mask, and never less than 1; `claims[w]` counts the reuse phases
    on the socket holding way w, this one included."""
    _check_run(mask, len(claims))
    if not reuse:
        return mask.bit_count()
    lo = (mask & -mask).bit_length() - 1
    num, den = 0, 1  # the running sum of 1 / k is num / den
    for way, k in enumerate(claims[lo:mask.bit_length()], lo):
        if k < 1:
            raise CacheWaysError("way %d of mask %#x has no reuse claim" % (way, mask))
        num, den = num * k + den, den * k
    return max(1, num // den)


def run_unmixed(proc: ProcessSpec, config: SystemConfig | None = None) -> float:
    """Completion time of the process alone on an undivided socket (the SLA
    baseline): the sum of its phase times at full width."""
    cfg = config or SystemConfig()
    return sum(ph.curve.time_at(cfg.ways_per_socket) for ph in proc.phases)


# ---------------------------------------------------------------------------
# placement and policies
# ---------------------------------------------------------------------------

class _Placement:
    """Which socket and which way mask, one run of ways (see `put`), each
    admitted pid holds, each socket's pids in ascending order, and
    each socket's reuse claim count per way.  The `dirty` pids are those
    whose mask, phase or presence changed since the last `refresh`, which
    settles their claims.  Each socket's reuse holders are grouped by the
    mask they claim: a group's effective ways depend only on its socket,
    its mask and the claim counts over the mask's span, so each group
    keeps its ways from the last refresh and goes, with them, when it
    empties.  For the whole run the placement keeps the contention rule's
    result per mask and claim counts over the mask's span."""

    def __init__(self, config: SystemConfig):
        self.config = config
        self.socket_of: dict[int, int] = {}
        self.mask_of: dict[int, int] = {}
        self.pids = [[] for _ in range(config.sockets)]
        self.claims = [[0] * config.ways_per_socket for _ in range(config.sockets)]
        self.claimed: dict[int, int] = {}  # pid -> its mask counted in claims, or 0
        self.moved: dict[int, int] = {}  # socket -> ways whose claim count changed
        self.dirty: set[int] = set()
        # socket -> {claimed mask: [its ways at the last refresh (None: not yet), its pids]}
        self.groups: list[dict[int, list]] = [{} for _ in range(config.sockets)]
        self.memo: dict[tuple, int] = {}  # (mask, claims on its span) -> a reuse phase's ways

    def put(self, pid: int, sid: int, mask: int) -> None:
        """Give `pid` `mask`, one run of ways (else a CacheWaysError that
        changes nothing), on socket `sid`, dirtying the pid if that
        changes anything.  No policy moves a placed pid to another socket."""
        _check_run(mask, self.config.ways_per_socket)
        if pid not in self.socket_of:
            self.socket_of[pid] = sid
            insort(self.pids[sid], pid)
        elif self.mask_of[pid] == mask:
            return
        self.mask_of[pid] = mask
        self.dirty.add(pid)

    def drop(self, pid: int) -> int:
        """Retire `pid` and its claims; returns the socket it held."""
        sid = self.socket_of.pop(pid)
        del self.mask_of[pid]
        self.pids[sid].remove(pid)
        self._claim(sid, pid, 0)
        self.dirty.add(pid)
        return sid

    def _claim(self, sid: int, pid: int, mask: int) -> None:
        """Count `mask` (0: nothing) as `pid`'s claim in place of its last:
        the old run's slice of claim counts loses 1 and the new run's gains
        1, and the pid moves from the old mask's group to the new one's."""
        old, self.claimed[pid] = self.claimed.get(pid, 0), mask
        if old == mask:
            return
        claims, groups = self.claims[sid], self.groups[sid]
        if old:
            lo, hi = (old & -old).bit_length() - 1, old.bit_length()
            claims[lo:hi] = [k - 1 for k in claims[lo:hi]]
            group = groups[old]
            group[1].remove(pid)
            if not group[1]:
                del groups[old]
        if mask:
            lo, hi = (mask & -mask).bit_length() - 1, mask.bit_length()
            claims[lo:hi] = [k + 1 for k in claims[lo:hi]]
            if mask in groups:
                groups[mask][1].add(pid)
            else:
                groups[mask] = [None, {pid}]
        self.moved[sid] = self.moved.get(sid, 0) | old ^ mask

    def _rule(self, sid: int, mask: int) -> int:
        """A reuse phase's ways on `mask` of socket `sid`, from the run-long
        memo; claims off the mask's span cannot move them."""
        low = (mask & -mask).bit_length() - 1
        key = (mask, tuple(self.claims[sid][low:mask.bit_length()]))
        ways = self.memo.get(key)
        if ways is None:  # a rule that raises stores nothing
            ways = self.memo[key] = effective_ways(mask, self.claims[sid], True)
        return ways

    def refresh(self, is_reuse) -> dict[int, int]:
        """Settle the dirty pids' claims (`is_reuse(pid)`: does its phase
        reuse?) and return the effective ways of the placed pids that can
        have moved; a run's speed and row depend on nothing else.  Each
        group whose mask meets a way whose claim count changed reads the
        rule once, and hands back all its pids only if its ways changed.
        Every placed dirty pid is handed back: a stream with its mask's bit
        count, a reuse phase with its group's ways, read from the rule if
        the group is new."""
        out, joined = {}, []  # joined: (pid, socket, mask) of each placed dirty reuse pid
        for pid in self.dirty:
            sid = self.socket_of.get(pid)
            if sid is None:
                continue
            mask = self.mask_of[pid]
            if is_reuse(pid):
                self._claim(sid, pid, mask)
                joined.append((pid, sid, mask))
            else:
                self._claim(sid, pid, 0)
                out[pid] = mask.bit_count()
        self.dirty.clear()
        for sid, moved in self.moved.items():
            for mask, group in self.groups[sid].items():
                if mask & moved:
                    ways = self._rule(sid, mask)
                    if group[0] != ways:
                        group[0] = ways
                        for pid in group[1]:
                            out[pid] = ways
        self.moved.clear()
        for pid, sid, mask in joined:
            group = self.groups[sid][mask]
            if group[0] is None:  # a new group on ways whose claims did not move
                group[0] = self._rule(sid, mask)
            out[pid] = group[0]
        return out


class _Policy:
    """Places each arrival on the socket with the most room, the lowest id
    on ties, with the mask `mask(sid, run)` chooses, and never moves it.
    Subclasses choose the mask and may change masks at phase changes,
    releases and ticks.  A policy with a clock names the time of its next
    tick in `next_tick` (None: no tick due) and its period in
    `interval_ns`, which the report records.

    `sensitivity(proc)` gives the (alpha, max_ways) pair a run carries, once
    per process before the first event; a policy that reads neither returns
    (None, None) and so skips deriving it from the curves.  `room(sid)` is
    how many more runs a socket admits now, by default its free cores; an
    arrival beyond the room of every socket waits for a release.
    """

    next_tick = interval_ns = None

    def __init__(self, place: _Placement, policy: Policy):
        self.place = place
        self.ways = place.config.ways_per_socket

    def sensitivity(self, proc):
        return process_sensitivity(proc, self.place.config)

    def room(self, sid):
        return self.place.config.cores_per_socket - len(self.place.pids[sid])

    def admit(self, t, runs):
        for r in runs:
            sid = max(range(self.place.config.sockets), key=lambda s: (self.room(s), -s))
            self.place.put(r.pid, sid, self.mask(sid, r))

    def phase_change(self, t, run):
        pass

    def release(self, t, run, sid):
        """`run` has already left the placement; `sid` was its socket."""

    def tick(self, t, runs):
        """Called at `next_tick`, after the phase events of that instant;
        `runs` is the engine's pid -> `_Run` table."""

    def row(self, run):
        """The width-timeline entry of an admitted run."""
        return (run.alpha, run.max_ways, self.place.mask_of[run.pid].bit_count())

    def log(self):
        """(records, apportion count, largest CLOS group, warnings)."""
        return [], 0, 1, []


class _Unpartitioned(_Policy):
    def sensitivity(self, proc):
        return None, None

    def mask(self, sid, run):
        return (1 << self.ways) - 1

    def row(self, run):
        return (0.0, 0, self.ways)


class _MaxWays(_Policy):
    def mask(self, sid, run):
        """The window of max_ways ways overlapping the socket's taken ways
        least, the lowest such window on ties."""
        used = 0
        for pid in self.place.pids[sid]:
            used |= self.place.mask_of[pid]
        return best_window(self.ways, min(run.max_ways, self.ways), used, used)


class _Reactive(_Policy):
    """Fixed-interval controller: equal split at admission, then one way per
    tick from the least needy donor to the neediest deficient process.  Masks
    are repacked contiguously in pid order on every change; the need proxy
    alpha * (max_ways - width) stands in for a hardware miss counter.  A
    donor gives only a way it does not need (its alpha is 0 or its width is
    above its max-ways), so every tick that moves a way cuts the socket's
    total deficit by one.

    The clock is this policy's own and ticks on multiples of the interval.
    The proxy reads only the widths (the bit counts of the masks in the
    placement) and each process's alpha and max-ways, which change only at
    ticks, admissions and releases.  So a tick that moves no way stops the
    clock, and the next admission or release restarts it at the first
    multiple after its time, or at its time when the interval is finer than
    the float spacing there.  Hence every run ends.

    Every process holds at least 1 way, as CAT requires a nonempty mask.
    When a socket holds more processes than ways, each gets 1 way and the
    masks wrap round-robin in pid order (the i-th pid holds way i mod W), so
    processes sharing a way split it through the contention rule.  Widths
    then sum past W, no way is free and no donor has 2 ways, so a tick moves
    nothing until releases free a way or an admission re-splits the socket.
    """

    def __init__(self, place: _Placement, policy: Policy):
        super().__init__(place, policy)
        self.interval_ns = policy.interval_ns
        self.tick_no = None  # grid points passed; None while the clock is stopped
        self.started = 0.0  # the time of the last restart

    @property
    def next_tick(self):
        return None if self.tick_no is None else max(self.started, (self.tick_no + 1) * self.interval_ns)

    def _restart(self, t):
        """After an admission or release at `t`: stop the clock if nothing
        runs, else restart a stopped one at the first grid point after `t`."""
        if not self.place.socket_of:
            self.tick_no = None
        elif self.tick_no is None:
            # past the float range the interval is finer than the float spacing
            # at `t`: grid point 0 stands in, so the clock ticks at `t` itself
            q = t // self.interval_ns
            self.tick_no, self.started = int(q) if q < math.inf else 0, t
            if (self.tick_no + 1) * self.interval_ns <= t:  # the float quotient fell short
                self.tick_no += 1

    def mask(self, sid, run):
        return 1  # a placeholder: admit re-splits the socket before any refresh

    def admit(self, t, runs):
        super().admit(t, runs)
        for sid in sorted({self.place.socket_of[r.pid] for r in runs}):
            n = len(self.place.pids[sid])
            base, rem = divmod(self.ways, n)
            self._repack(sid, [max(1, base + (1 if i >= n - rem else 0)) for i in range(n)])
        self._restart(t)

    def _widths(self, sid):
        """The width of each pid's mask on the socket, in pid order."""
        mask_of = self.place.mask_of
        return [mask_of[pid].bit_count() for pid in self.place.pids[sid]]

    def _repack(self, sid, widths):
        """Lay the socket's pids out contiguously in pid order, with these
        widths, wrapping to way 0 when a mask would pass the last way."""
        start = 0
        for pid, w in zip(self.place.pids[sid], widths):
            if start + w > self.ways:
                start = 0
            self.place.put(pid, sid, ((1 << w) - 1) << start)
            start += w

    def release(self, t, run, sid):
        self._repack(sid, self._widths(sid))
        self._restart(t)

    def tick(self, t, runs):
        moved = False
        for sid in range(self.place.config.sockets):
            here = [runs[pid] for pid in self.place.pids[sid]]
            widths = self._widths(sid)
            need = [r.alpha * max(0, r.max_ways - w) for r, w in zip(here, widths)]
            if max(need, default=0) <= 0:
                continue
            if sum(widths) >= self.ways:  # no free way: a donor gives one
                donors = [
                    i for i, (r, w) in enumerate(zip(here, widths))
                    if w >= 2 and (r.alpha == 0 or w > r.max_ways)
                ]
                if not donors:
                    continue
                widths[min(donors, key=lambda i: (-widths[i], i))] -= 1
            widths[need.index(max(need))] += 1  # the neediest, the lowest pid on ties
            self._repack(sid, widths)
            moved = True
        self.tick_no = self.tick_no + 1 if moved else None


class _ComCas(_Policy):
    """The Apportioner places every arrival and owns its masks; after each
    operation every member of each CLOS it moved reads its mask back."""

    def __init__(self, place: _Placement, policy: Policy):
        super().__init__(place, policy)
        self.ap = Apportioner(place.config)

    def room(self, sid):
        return self.ap.sockets[sid].free_cores

    def admit(self, t, runs):
        self.ap.ipca_batch(t, [(r.pid, r.alpha, r.max_ways, *self._announce(r)) for r in runs])
        self._read_back()

    def phase_change(self, t, run):
        """Re-apportion the run at the phase `_announce` reads; most phase
        changes move no mask, and those read nothing back."""
        nbytes, reuse, ns = self._announce(run)  # a plain call: f(*args) costs twice as much
        ap = self.ap
        ap.pcca(t, run.pid, nbytes, reuse, ns)
        if ap.moved:
            self._read_back()

    def _announce(self, run):
        """(nbytes, reuse, predicted ns) of the run's phase.  A phase without
        fixed-ns announces its time at the run's full socket width."""
        ph = run.phase
        ns = ph.fixed_ns if ph.fixed_ns is not None else ph.curve.time_at(self.ways)
        return ph.nbytes, ph.reuse, ns

    def release(self, t, run, sid):
        self.ap.release_process(t, run.pid)
        self._read_back()

    def _read_back(self):
        """Give every member of each CLOS the last operation moved its mask."""
        for sid, clos in self.ap.moved:
            for pid in clos.members:
                self.place.put(pid, sid, clos.mask)

    def row(self, run):
        """Granted ways are the CLOS width, capped at the saturation point."""
        p = self.ap.procs[run.pid]
        width = self.place.mask_of[run.pid].bit_count()
        return (p.alpha, p.req_ways, width if width <= p.max_ways else p.max_ways)

    def log(self):
        ap = self.ap
        return ap.records, ap.apportion_count, ap.max_clos_group_size, ap.warnings


_POLICIES = {
    "comcas": _ComCas,
    "unpartitioned": _Unpartitioned,
    "maxways": _MaxWays,
    "reactive": _Reactive,
}


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------

@dataclass(eq=False, slots=True)
class _Run:
    spec: ProcessSpec
    pid: int
    alpha: float | None  # None: the policy reads no sensitivity
    max_ways: int | None
    phase_idx: int = 0
    work_rem: float = 0.0
    speed: float = 0.0
    reuse: bool = False  # does the current phase reuse its data? kept by `enter`

    @property
    def phase(self) -> PhaseSpec:
        return self.spec.phases[self.phase_idx]

    def enter(self, phase_idx: int) -> None:
        """Start phase `phase_idx` with all its work left."""
        self.phase_idx = phase_idx
        ph = self.spec.phases[phase_idx]
        self.work_rem = ph.work
        self.reuse = ph.reuse is _REUSE


def run_mix(
    mix: MixSpec, policy: Policy, config: SystemConfig | None = None
) -> SimReport:
    """Co-execute the mix under one policy; fully deterministic.  A phase
    whose one-way speed, or an event whose time, leaves the float range is
    a CacheWaysError naming the mix."""
    validate_mix(mix)
    cfg = mix_config(mix, config)
    place = _Placement(cfg)
    ctl = _POLICIES[policy.kind](place, policy)

    inf = math.inf
    runs: dict[int, _Run] = {}
    for proc in mix.processes:
        # once per phase, not in phase_speed: its slowest speed, on one way,
        # is work / (t(2) * DM_PENALTY), and a curve's first point is t(2)
        for ph in proc.phases:
            if not 0 < ph.work / (ph.curve.points[0][1] * DM_PENALTY) < inf:
                raise CacheWaysError("mix %r: pid %d phase %r: its speed on one way leaves the float range"
                                     % (mix.name, proc.pid, ph.phase_id))
        alpha, maxw = ctl.sensitivity(proc)
        runs[proc.pid] = _Run(spec=proc, pid=proc.pid, alpha=alpha, max_ways=maxw)

    # due last; nothing is pushed, so popping the end keeps the order
    pending = sorted(((proc.start_ns, proc.pid) for proc in mix.processes), reverse=True)
    waiting: list[int] = []
    active: list[_Run] = []  # in pid order
    completions: dict[int, float] = {}
    width_timeline: list[tuple[float, dict]] = []
    now = 0.0
    rows: dict[int, tuple] = {}  # active pid -> width-timeline row, in pid order

    while pending or waiting or active:
        # candidate times for the next event: the phase ends come first
        cands = [now + r.work_rem / r.speed for r in active]
        if pending:
            cands.append(pending[-1][0])
        tick = ctl.next_tick
        if tick is not None:
            cands.append(tick)
        if not cands:
            raise CacheWaysError(
                "mix %r: waiting processes can never be admitted" % mix.name
            )
        t = min(cands)
        if not t < inf:
            raise CacheWaysError("mix %r: the next event after t=%r ns leaves the float range" % (mix.name, now))

        # elapse work to t; the ending set is exact, not tolerance-based
        stalled, dt = t <= now, t - now
        ending = []
        for r, end in zip(active, cands):
            if end == t:
                ending.append(r)
            else:
                r.work_rem -= dt * r.speed
        now = t

        changed = False  # did the active set or a timeline row change?
        for r in ending:
            if r.phase_idx + 1 < len(r.spec.phases):
                r.enter(r.phase_idx + 1)
                place.dirty.add(r.pid)
                ctl.phase_change(now, r)
            else:
                active.remove(r)
                del rows[r.pid]
                completions[r.pid] = now - r.spec.start_ns  # a wait for room counts
                ctl.release(now, r, place.drop(r.pid))
                changed = True

        # a tick settles after the phase events of its instant
        if ctl.next_tick == t:
            ctl.tick(now, runs)

        # admissions due now, plus deferred ones once a slot opened
        due, admitted = [], False
        while pending and pending[-1][0] <= now:
            due.append(pending.pop()[1])
        if due or (changed and waiting):
            # in pid order up to capacity; the rest wait for a release
            pids = sorted(due + waiting)
            room = sum(ctl.room(s) for s in range(cfg.sockets))
            batch, waiting = [runs[pid] for pid in pids[:room]], pids[room:]
            if batch:
                for r in batch:
                    r.enter(0)
                ctl.admit(now, batch)
                for r in batch:  # into pid order
                    insort(active, r, key=lambda r: r.pid)
                changed = admitted = True

        # each iteration passes time, ends a phase, takes an arrival or moves
        # the policy's clock or a mask; anything else would repeat forever
        if stalled and not ending and not due and ctl.next_tick == tick and not place.dirty:
            raise CacheWaysError("mix %r: nothing moves at t=%r ns" % (mix.name, now))

        if place.dirty:
            # speeds and rows of the dirty pids and of those whose effective ways moved
            for pid, eff in place.refresh(lambda pid: runs[pid].reuse).items():
                r = runs[pid]
                r.speed = phase_speed(r.phase, eff)
                row = ctl.row(r)
                if rows.get(pid) != row:
                    rows[pid] = row
                    changed = True
            if admitted:  # the admitted pids' rows went in last
                rows = {r.pid: rows[r.pid] for r in active}
            # a new row or a new active set always makes a new snapshot
            if changed:
                width_timeline.append((now, dict(rows)))

    unmixed = {proc.pid: run_unmixed(proc, cfg) for proc in mix.processes}
    records, apportions, max_group, warnings = ctl.log()

    return SimReport(
        mix_name=mix.name,
        category=mix.category,
        policy=policy.kind,
        interval_ns=ctl.interval_ns,
        completions=completions,
        unmixed=unmixed,
        records=records,
        width_timeline=width_timeline,
        end_time=now,
        apportion_count=apportions,
        max_clos_group_size=max_group,
        warnings=warnings,
    )
