"""Fractional cache apportioning and the CLOS allocation engine.

Processes are admitted to sockets, grouped into Class-of-Service (CLOS)
partitions, and granted contiguous runs of cache ways sized by their share,
never stored, of the socket's integer footprint masses.  Initial placement
(ipca) runs once per process; a phase change re-apportions (pcca) when its
demand differs from its CLOS's width; releases recycle ways toward the most
unsatisfied CLOS.  These rules, the grouping and the socket steering are
fixed by design: none is a SystemConfig field.

A CLOS's demand is the largest req_ways among its members, derived at each
read.  An admission seats a process by the first of five outcomes that
applies: a fresh CLOS if the socket is uncrowded and the process reuses its
data; else joining a compatible CLOS (a free seat and the same demand); else
a fresh CLOS if the socket is uncrowded; else overflow into the lowest-alpha
CLOS with a free seat; else a fresh CLOS.

The engine is a single-owner state machine: one mutator at a time, driven
single-threaded by the simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .errors import CacheWaysError, SchemaError

# the stream/reuse threshold on a loop's reuse distance, and the relative
# time gain below which one more way counts as saturated
SRD_DELTA = 1000.0
SATURATION_EPSILON = 0.05
# a stream's footprint weighs the float 0.1 of a reuse footprint's, exactly:
# masses are integers, nbytes x den for reuse and nbytes x num for a stream
STREAM_NUM, STREAM_DEN = (0.1).as_integer_ratio()


@dataclass(frozen=True)
class SystemConfig:
    sockets: int = 2
    cores_per_socket: int = 14
    clos_per_socket: int = 16
    ways_per_socket: int = 11
    gfactor: int = 4

    def __post_init__(self):
        if self.ways_per_socket < 2:
            raise SchemaError("ways_per_socket must be >= 2")
        if self.gfactor < 1:
            raise SchemaError("gfactor must be >= 1")
        if self.sockets < 1 or self.cores_per_socket < 1 or self.clos_per_socket < 1:
            raise SchemaError("socket geometry must be positive")


class ReuseClass(Enum):
    """A phase's reuse class: the loop analysis derives it, the allocator
    weighs footprints by it and the contention rule reads it."""

    STREAM = "stream"
    REUSE = "reuse"


class Scenario(Enum):
    """A socket's occupancy, read from its CLOS masks: overlapping if two share
    a way, else underutilized if a way is free, else full-disjoint."""

    FULL_DISJOINT = "full-disjoint"
    OVERLAPPING = "overlapping"
    UNDERUTILIZED = "underutilized"


# the members read per phase change or operation: an Enum member read off
# its class costs about 0.1 us on Python 3.11, a module global under a
# tenth of that
_REUSE = ReuseClass.REUSE
_FULL_DISJOINT, _OVERLAPPING, _UNDERUTILIZED = Scenario.FULL_DISJOINT, Scenario.OVERLAPPING, Scenario.UNDERUTILIZED


def adjusted_footprint(nbytes: int, reuse: ReuseClass) -> int:
    """Footprint mass, an integer: reuse weighs nbytes x STREAM_DEN and a
    stream nbytes x STREAM_NUM."""
    return nbytes * (STREAM_DEN if reuse is _REUSE else STREAM_NUM)


def required_ways(mass: int, total: int, config: SystemConfig, max_ways: int) -> int:
    """Way demand: mass/total of the socket's ways rounded half-up, floored at
    1 and capped at max_ways.  Two exact halves ask for a way more than the
    socket has: 15 and 7 MiB of reuse on 11 ways are 7.5 + 3.5, so 8 + 4."""
    if not (0 <= mass <= total and total > 0):
        raise SchemaError("share %r/%r outside [0, 1]" % (mass, total))
    # conditionals, not min/max: this runs at every phase change
    rounded = (2 * mass * config.ways_per_socket + total) // (2 * total) or 1
    return rounded if rounded < max_ways else max_ways


def free_window(ways: int, width: int, used: int) -> int:
    """The lowest contiguous run of `width` of `ways` ways that overlaps
    nothing of `used`, or 0 when every run does."""
    run = (1 << width) - 1
    for start in range(ways - width + 1):
        if not run << start & used:
            return run << start
    return 0


def best_window(ways: int, width: int, hot: int, used: int) -> int:
    """The contiguous run of `width` of `ways` ways that overlaps `hot`
    least, then `used` least, then starts lowest.  A run that overlaps
    neither has the smallest key, so the first one (`free_window`) ends
    the search; only when there is none are all runs scored."""
    run = (1 << width) - 1
    return free_window(ways, width, hot | used) or run << min(
        range(ways - width + 1),
        key=lambda s: ((run << s & hot).bit_count(), (run << s & used).bit_count()),
    )


@dataclass
class ClosState:
    clos_id: int
    members: list[int] = field(default_factory=list)
    mask: int = 0


@dataclass
class SocketState:
    sid: int
    config: SystemConfig
    # the CLOS built so far, CLOS i at index i: the list starts empty and
    # grows by one only when every listed CLOS has members (`_place`)
    clos: list[ClosState] = field(default_factory=list)
    processes: list[int] = field(default_factory=list)
    occupied: list[ClosState] = field(default_factory=list)  # the CLOS with members
    mass: int = 0  # the residents' masses summed, kept by each admission, pcca and release
    scenario: Scenario = Scenario.UNDERUTILIZED  # the masks' occupancy at the last record

    @property
    def used_mask(self) -> int:
        m = 0
        for c in self.occupied:
            m |= c.mask
        return m

    @property
    def free_ways(self) -> int:
        return self.config.ways_per_socket - self.used_mask.bit_count()

    @property
    def free_cores(self) -> int:
        """Admission room: the cores, also bounded by the CLOS seats that the
        grouping cap allows (clos_per_socket x gfactor), less the residents."""
        cfg = self.config
        return min(cfg.cores_per_socket, cfg.clos_per_socket * cfg.gfactor) - len(self.processes)


@dataclass
class ProcessState:
    pid: int
    alpha: float
    max_ways: int
    mass: int  # adjusted_footprint of the current phase
    reuse: ReuseClass
    socket_id: int = -1
    clos_id: int = -1
    req_ways: int = 0
    predicted_end: float = 0.0


class AllocationRecord(NamedTuple):
    """One allocation decision.  The allocation log carries every field,
    one `record` line each, and no policy reads a record back: the CLOS an
    operation moved are `Apportioner.moved`, the deficit metric integrates
    the width timeline and the apportion count is
    `Apportioner.apportion_count`."""

    time_ns: float
    pid: int
    event: str  # ipca | pcca | release
    socket: int
    clos: int
    bitmask: int
    scenario: Scenario
    satisfied: bool
    req_ways: int
    granted_ways: int
    alpha: float
    changed: bool


def replay_events(events, config: SystemConfig | None = None) -> "Apportioner":
    """Drive a fresh Apportioner through an explicit event sequence and
    return it (records included).  Events are tuples, each an event-trace
    line's keyword and arguments:

        ("ipca",    time_ns, pid, alpha, max_ways, nbytes, reuse, predicted_ns)
        ("pcca",    time_ns, pid, nbytes, reuse, predicted_ns)
        ("release", time_ns, pid)

    Consecutive ipca events with the same timestamp are admitted as one
    simultaneous batch.
    """
    ap = Apportioner(config)
    seq = list(events)
    i = 0
    while i < len(seq):
        kind, t, *args = seq[i]
        i += 1
        if kind == "ipca":
            batch = [args]
            while i < len(seq) and seq[i][0] == "ipca" and seq[i][1] == t:
                batch.append(seq[i][2:])
                i += 1
            ap.ipca_batch(t, batch)
        elif kind == "pcca":
            ap.pcca(t, *args)
        elif kind == "release":
            ap.release_process(t, *args)
        else:
            raise CacheWaysError("unknown event kind %r" % (kind,))
    return ap


class Apportioner:
    """Single-owner allocation state machine (ipca / pcca / release)."""

    def __init__(self, config: SystemConfig | None = None):
        self.config = config or SystemConfig()
        self.sockets = [SocketState(i, self.config) for i in range(self.config.sockets)]
        self.procs: dict[int, ProcessState] = {}  # placed processes only
        self.records: list[AllocationRecord] = []
        self.warnings: list[str] = []
        self.apportion_count = 0
        self.max_clos_group_size = 0
        # (socket id, CLOS) of each CLOS whose mask the last operation
        # changed or that it gave a member: all a reader need refresh
        self.moved: list[tuple[int, ClosState]] = []

    # -- queries ------------------------------------------------------------

    def _unplaced(self, pid: int):
        raise CacheWaysError("pid %r is not placed" % (pid,))

    def _demand(self, clos: ClosState) -> int:
        """The largest req_ways of the CLOS's members (at least one)."""
        procs, members = self.procs, clos.members
        demand = procs[members[0]].req_ways
        for m in members:
            if procs[m].req_ways > demand:
                demand = procs[m].req_ways
        return demand

    def _clos_alpha(self, clos: ClosState) -> float:
        return max([self.procs[m].alpha for m in clos.members], default=0.0)

    def _required(self, sock: SocketState, p: ProcessState) -> int:
        """p's way demand from its share of the socket's running mass (an
        even split when every resident's mass is zero), read in O(1)."""
        if sock.mass:
            return required_ways(p.mass, sock.mass, self.config, p.max_ways)
        return required_ways(1, len(sock.processes), self.config, p.max_ways)

    # -- bitmask placement ----------------------------------------------------

    def generate_bitmask(self, sock: SocketState, clos_id: int, ways: int) -> int:
        """Deterministic contiguous placement: first fit over free ways; when
        overlap is unavoidable it lands on the lowest-alpha CLOS's region
        first.  Scored as (overlap outside that region, total overlap, start).
        A free window has the smallest score, so it is asked for first, and
        only a socket without one reads the other CLOS's alphas.
        """
        w_total = self.config.ways_per_socket
        if ways > w_total:
            raise CacheWaysError("%d ways > socket capacity %d" % (ways, w_total))
        if ways < 1:
            raise CacheWaysError("cannot place an empty bitmask")
        others = [c for c in sock.occupied if c.clos_id != clos_id and c.mask]
        used_all = 0
        for c in others:
            used_all |= c.mask
        window = free_window(w_total, ways, used_all)
        if window:
            return window
        lowest = min(others, key=lambda c: (self._clos_alpha(c), c.clos_id))
        return best_window(w_total, ways, used_all & ~lowest.mask, used_all)

    def _extend_in_place(self, sock: SocketState, clos: ClosState, add: int) -> int:
        """Grow a CLOS run into adjacent free ways, above its top end first,
        then below its bottom end.  Returns the number of ways added."""
        mask = clos.mask
        if add <= 0 or mask == 0:
            return 0
        taken = sock.used_mask | -1 << self.config.ways_per_socket  # no way past the socket is free
        lo, hi = (mask & -mask).bit_length() - 1, mask.bit_length()  # the run is ways lo..hi-1
        above = taken >> hi
        up = (above & -above).bit_length() - 1  # the free ways just above the run
        up = up if up < add else add
        down = lo - (taken & (1 << lo) - 1).bit_length()  # the free ways just below it
        down = down if down < add - up else add - up
        clos.mask = (1 << hi + up) - (1 << lo - down)
        return up + down

    def _shrink_from_right(self, clos: ClosState, remove: int) -> int:
        """Free `remove` ways, clamped into 0..width, from the top end of a
        CLOS run.  Returns the number of ways freed."""
        if remove <= 0:  # pcca passes a negative count when the CLOS demands more than it holds
            return 0
        width = clos.mask.bit_count()
        removed = remove if remove < width else width
        clos.mask &= (1 << clos.mask.bit_length() - removed) - 1
        return removed

    def _transfer_freed(self, sock: SocketState, freed: int) -> None:
        """Freed ways go to the most unsatisfied CLOS on the socket: maximal
        member alpha, then largest deficit, then lowest id.  Capped at its
        deficit; whatever cannot extend its run contiguously stays free."""
        if freed <= 0:
            return
        target = best = None
        for c in sock.occupied:
            deficit = self._demand(c) - c.mask.bit_count()
            if deficit > 0:
                key = (-self._clos_alpha(c), -deficit, c.clos_id)
                if best is None or key < best:
                    target, best = c, key
        if target is not None and self._extend_in_place(sock, target, min(freed, -best[1])):
            self.moved.append((sock.sid, target))

    # -- admission (ipca) -----------------------------------------------------

    def _pick_compatible(self, cands: list[ClosState], p: ProcessState) -> ClosState:
        def dt(clos: ClosState) -> float:
            return min(
                abs(p.predicted_end - self.procs[m].predicted_end)
                for m in clos.members
            )

        if p.reuse is ReuseClass.STREAM:
            # widest temporal separation: members ending far from p's end
            return min(cands, key=lambda c: (-dt(c), c.clos_id))
        # reuse: prefer low-alpha groups with large separation
        def ratio(clos: ClosState) -> float:
            d = dt(clos)
            if d == 0:
                return math.inf
            return self._clos_alpha(clos) / d

        return min(cands, key=lambda c: (ratio(c), c.clos_id))

    def _place(self, sock: SocketState, p: ProcessState) -> tuple[ClosState, bool]:
        """Seat p in one CLOS of its socket, by the first outcome that applies:

        1. a fresh CLOS, if the socket is uncrowded and p reuses its data;
        2. else join a compatible CLOS, one with a free seat and a demand
           equal to p's req_ways (`_pick_compatible` chooses among them);
        3. else a fresh CLOS, if the socket is uncrowded;
        4. else overflow into the lowest-alpha CLOS with a free seat, which
           grows in place when p raises its demand;
        5. else a fresh CLOS (the admission room left one empty).

        Uncrowded means that the empty CLOS, clos_per_socket less the
        occupied ones, are more than three quarters of clos_per_socket.  A
        fresh CLOS is the lowest-id empty one, appended to the socket's list
        when every listed CLOS has members; the admission room leaves an id
        for it.  It takes p's req_ways, or every free way if fewer.

        Returns the CLOS and whether the seat moved a mask: a fresh CLOS
        always does, an overflow only when it grew in place.
        """
        cfg = self.config
        empty = cfg.clos_per_socket - len(sock.occupied)  # listed or not yet built
        uncrowded = empty > 0.75 * cfg.clos_per_socket
        # an uncrowded socket seats a reuse arrival in a fresh CLOS unasked
        seated = [] if uncrowded and p.reuse is _REUSE else [
            c for c in sock.occupied if len(c.members) < cfg.gfactor
        ]
        compat = [c for c in seated if self._demand(c) == p.req_ways]
        moved = False
        if compat:
            clos = self._pick_compatible(compat, p)
            clos.members.append(p.pid)
        elif seated and not uncrowded:
            clos = min(seated, key=lambda c: (self._clos_alpha(c), c.clos_id))
            self.warnings.append(
                "pid %d overflows into CLOS %d on socket %d (no compatible CLOS)"
                % (p.pid, clos.clos_id, sock.sid)
            )
            raised = p.req_ways > self._demand(clos)
            clos.members.append(p.pid)
            if raised:
                moved = self._extend_in_place(sock, clos, p.req_ways - clos.mask.bit_count()) > 0
        else:
            if len(sock.occupied) == len(sock.clos):
                sock.clos.append(ClosState(len(sock.clos)))
            clos = next(c for c in sock.clos if not c.members)
            free = sock.free_ways
            width = min(p.req_ways, free) if free >= 1 else p.req_ways
            clos.members.append(p.pid)
            sock.occupied.append(clos)
            clos.mask = self.generate_bitmask(sock, clos.clos_id, width)
            moved = True
        p.clos_id = clos.clos_id
        self.moved.append((sock.sid, clos))
        self.max_clos_group_size = max(self.max_clos_group_size, len(clos.members))
        return clos, moved

    def ipca_batch(self, time_ns: float, arrivals) -> list[AllocationRecord]:
        """Admit a batch of processes arriving simultaneously; each arrival
        is (pid, alpha, max_ways, nbytes, reuse, predicted_ns).

        Sockets are chosen for the whole batch first (reserving each pick's
        max_ways provisionally, so one socket does not swallow every
        cache-sensitive arrival), before any state changes, so a rejected
        batch leaves none of its arrivals behind.  Then, socket by socket,
        the arrivals join the socket, each one's share is read over the full
        resident population, so the shares sum to exactly 1 when the
        machine starts empty, and each is seated in pid order.  A socket
        takes an arrival only while it has room (`SocketState.free_cores`),
        so every placement finds a CLOS seat.
        """
        self.moved = []
        arrivals = sorted(arrivals, key=lambda a: a[0])
        for i, (pid, *_) in enumerate(arrivals):
            if pid in self.procs or i and arrivals[i - 1][0] == pid:
                raise CacheWaysError("pid %r admitted twice" % (pid,))

        free0 = self.sockets[0].free_ways  # the only socket whose free ways steer a pick
        prov_cores = {s.sid: s.free_cores for s in self.sockets}
        chosen: list[ProcessState] = []
        for pid, alpha, max_ways, nbytes, reuse, predicted_ns in arrivals:
            if alpha > 1.0 and free0 > max_ways and prov_cores[0] > 0:  # a sensitive arrival fits on socket 0
                sid = 0
            else:
                sid = max(prov_cores, key=lambda s: (prov_cores[s], -s))
                if prov_cores[sid] <= 0:
                    raise CacheWaysError("no socket has a free core or CLOS seat")
            prov_cores[sid] -= 1
            if sid == 0:
                free0 = max(0, free0 - max_ways)
            chosen.append(ProcessState(
                pid=pid,
                alpha=alpha,
                max_ways=max_ways,
                mass=adjusted_footprint(nbytes, reuse),
                reuse=reuse,
                socket_id=sid,
                predicted_end=time_ns + predicted_ns,
            ))

        records = []
        for sock in self.sockets:
            new_here = [p for p in chosen if p.socket_id == sock.sid]
            for p in new_here:
                self.procs[p.pid] = p
                sock.processes.append(p.pid)
                sock.mass += p.mass
            for p in new_here:
                p.req_ways = self._required(sock, p)
                clos, moved = self._place(sock, p)
                records.append(self._record(time_ns, p, "ipca", sock, clos, True, self._demand(clos), moved))
        return records

    # -- phase change (pcca) ----------------------------------------------------

    def pcca(
        self,
        time_ns: float,
        pid: int,
        nbytes: int,
        reuse: ReuseClass,
        predicted_ns: float,
    ) -> AllocationRecord:
        """Re-apportion one process after a phase change, reading its own
        share only: the socket's running mass moves by the difference of p's
        masses, so no other resident's mass is read, and the CLOS's demand is
        read once.  A demand equal to the CLOS's width moves nothing; growth
        extends the CLOS run in place; shrink frees ways from the right end
        and hands them to the most unsatisfied CLOS.  `moved` holds each
        CLOS whose mask changed."""
        self.moved = moved = []
        p = self.procs.get(pid) or self._unplaced(pid)
        sock = self.sockets[p.socket_id]
        mass = adjusted_footprint(nbytes, reuse)
        sock.mass += mass - p.mass
        p.mass, p.reuse = mass, reuse
        p.predicted_end = time_ns + predicted_ns
        clos = sock.clos[p.clos_id]
        req = p.req_ways = self._required(sock, p)
        before = clos.mask
        cur = before.bit_count()
        demand = self._demand(clos)
        changed = False
        if req != cur:
            if req > cur:
                self._extend_in_place(sock, clos, demand - cur)
            else:
                self._transfer_freed(sock, self._shrink_from_right(clos, cur - max(demand, 1)))
            changed = clos.mask != before
            if changed:
                moved.append((sock.sid, clos))
        return self._record(time_ns, p, "pcca", sock, clos, changed, demand, changed)

    # -- release --------------------------------------------------------------

    def release_process(self, time_ns: float, pid: int) -> AllocationRecord:
        """Retire a process: membership shrinks, an emptied CLOS is reclaimed
        and its ways recycled via the most-unsatisfied rule.  `moved` holds
        the CLOS they grew, if any."""
        self.moved = []
        p = self.procs.get(pid) or self._unplaced(pid)
        sock = self.sockets[p.socket_id]
        clos = sock.clos[p.clos_id]
        before = clos.mask
        clos.members.remove(pid)
        sock.processes.remove(pid)
        sock.mass -= p.mass
        del self.procs[pid]
        if not clos.members:
            sock.occupied.remove(clos)
            clos.mask = 0
            self._transfer_freed(sock, before.bit_count())
        demand = self._demand(clos) if clos.members else 0
        changed = clos.mask != before
        return self._record(time_ns, p, "release", sock, clos, changed, demand, changed)

    # -- record keeping ---------------------------------------------------------

    def _scenario(self, sock: SocketState) -> Scenario:
        """The socket's occupancy after an operation, from its occupied CLOS."""
        used = shared = 0
        for c in sock.occupied:
            shared |= used & c.mask
            used |= c.mask
        if shared:
            return _OVERLAPPING
        full = used.bit_count() == self.config.ways_per_socket
        return _FULL_DISJOINT if full else _UNDERUTILIZED

    def _record(
        self,
        time_ns: float,
        p: ProcessState,
        event: str,
        sock: SocketState,
        clos: ClosState,
        changed: bool,
        demand: int,
        reread: bool,
    ) -> AllocationRecord:
        """Log one operation; `demand` is the CLOS's, as the caller read it
        (0 for a CLOS its release emptied, which is always satisfied).

        Two flags: `changed` is the record's own field and counts toward
        `apportion_count`; it holds when a phase change or release moved its
        CLOS's mask, and on every admission.  `reread` holds when the step
        logged moved any mask, and only then is the scenario re-read from
        the masks: every mask a step moves is on the socket of the record
        that follows it, so otherwise the socket's kept scenario still
        holds.  The flags differ only for an admission that joined a CLOS
        and moved no mask."""
        width = clos.mask.bit_count()
        if reread:
            sock.scenario = self._scenario(sock)
        rec = AllocationRecord._make((
            time_ns, p.pid, event, sock.sid, clos.clos_id, clos.mask, sock.scenario,
            width >= demand, p.req_ways,
            0 if event == "release" else width if width <= p.max_ways else p.max_ways,
            p.alpha, changed,
        ))
        self.records.append(rec)
        if changed and event != "release":
            self.apportion_count += 1
        return rec
