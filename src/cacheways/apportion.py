"""Fractional cache apportioning and the CLOS allocation engine.

Processes are admitted to sockets, grouped into Class-of-Service (CLOS)
partitions, and granted contiguous runs of cache ways sized by their share of
the socket's adjusted footprint mass.  Initial placement (ipca) runs once per
process; phase changes re-apportion (pcca) with hysteresis; releases recycle
ways toward the most unsatisfied CLOS.

Every process stores the fraction computed at its own last (re)apportioning
event.  Right after a simultaneous admission those stored fractions sum to 1;
as other processes change phases the stored values go stale, and their sum
drifting above or below 1 is exactly what the occupancy scenario classifies.

The engine is a single-owner state machine: one mutator at a time, driven
single-threaded by the simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .errors import AdmissionRejected, BitmaskOverflow, NotPlaced, SchemaError, TraceError
from .loops import ReuseClass


@dataclass(frozen=True)
class SystemConfig:
    sockets: int = 2
    cores_per_socket: int = 14
    clos_per_socket: int = 16
    ways_per_socket: int = 11
    line_size: int = 64
    gfactor: int = 4
    scaling_factor_stream: float = 0.1
    clos_occupancy_threshold: float = 0.75
    hysteresis_ways: int = 1
    alpha_socket_threshold: float = 1.0
    dm_penalty: float = 1.25
    srd_delta: float = 1000.0
    saturation_epsilon: float = 0.05

    def __post_init__(self):
        if self.ways_per_socket < 2:
            raise SchemaError("ways_per_socket must be >= 2")
        if self.gfactor < 1:
            raise SchemaError("gfactor must be >= 1")
        if not 0 < self.scaling_factor_stream < 1:
            raise SchemaError("scaling_factor_stream must be in (0, 1)")
        if not 0 < self.clos_occupancy_threshold < 1:
            raise SchemaError("clos_occupancy_threshold must be in (0, 1)")
        if self.sockets < 1 or self.cores_per_socket < 1 or self.clos_per_socket < 1:
            raise SchemaError("socket geometry must be positive")
        if self.line_size < 1:
            raise SchemaError("line_size must be >= 1")
        if self.hysteresis_ways < 0:
            raise SchemaError("hysteresis_ways must be >= 0")
        if self.alpha_socket_threshold < 0:
            raise SchemaError("alpha_socket_threshold must be >= 0")
        if self.dm_penalty < 1:
            raise SchemaError("dm_penalty must be >= 1: one way is never faster than two")
        if self.srd_delta <= 0:
            raise SchemaError("srd_delta must be positive")
        if self.saturation_epsilon <= 0:
            raise SchemaError("saturation_epsilon must be positive")


class Scenario(Enum):
    FULL_DISJOINT = "full-disjoint"
    OVERLAPPING = "overlapping"
    UNDERUTILIZED = "underutilized"


SCENARIO_TOL = 1e-9


def adjusted_footprint(nbytes: int, reuse: ReuseClass, config: SystemConfig) -> float:
    """Footprint mass entering the fraction: reuse counts in full, streaming
    is discounted by the configured scaling factor."""
    scale = 1.0 if reuse is ReuseClass.REUSE else config.scaling_factor_stream
    return nbytes * scale


def classify_scenario(fractions) -> Scenario:
    """Occupancy scenario from a collection of stored fractions."""
    total = math.fsum(fractions)
    if total > 1.0 + SCENARIO_TOL:
        return Scenario.OVERLAPPING
    if total < 1.0 - SCENARIO_TOL:
        return Scenario.UNDERUTILIZED
    return Scenario.FULL_DISJOINT


def required_ways(fraction: float, config: SystemConfig, max_ways: int) -> int:
    """Way demand: the fraction of the socket's ways, rounded half-up, floored
    at 1 and capped at the process's saturation point."""
    if not -1e-12 <= fraction <= 1 + 1e-12:
        raise SchemaError("fraction %r outside [0, 1]" % (fraction,))
    fraction = min(max(fraction, 0.0), 1.0)
    rounded = int(math.floor(fraction * config.ways_per_socket + 0.5))
    return min(max_ways, max(1, rounded))


def mask_width(mask: int) -> int:
    return mask.bit_count()


def format_mask(mask: int, ways: int) -> str:
    digits = (ways + 3) // 4
    return "0x%0*x" % (digits, mask)


@dataclass
class ClosState:
    clos_id: int
    members: list[int] = field(default_factory=list)
    mask: int = 0
    demand_ways: int = 0

    @property
    def width(self) -> int:
        return mask_width(self.mask)

    @property
    def satisfied(self) -> bool:
        return self.width >= self.demand_ways


@dataclass
class SocketState:
    sid: int
    config: SystemConfig
    clos: list[ClosState] = field(default_factory=list)
    processes: list[int] = field(default_factory=list)

    def __post_init__(self):
        if not self.clos:
            self.clos = [ClosState(i) for i in range(self.config.clos_per_socket)]

    @property
    def used_mask(self) -> int:
        m = 0
        for c in self.clos:
            if c.members:
                m |= c.mask
        return m

    @property
    def free_ways(self) -> int:
        return self.config.ways_per_socket - mask_width(self.used_mask)

    @property
    def free_cores(self) -> int:
        return self.config.cores_per_socket - len(self.processes)


@dataclass
class ProcessState:
    pid: int
    alpha: float
    max_ways: int
    mass: float  # adjusted_footprint of the current phase
    reuse: ReuseClass
    socket_id: int = -1
    clos_id: int = -1
    req_ways: int = 0
    fraction: float = 0.0
    predicted_end: float = 0.0


class AllocationRecord(NamedTuple):
    """One allocation decision.  The allocation-log CSV carries the first
    eight fields.  Of the rest only `changed` is read in the package: the
    simulator's comcas policy skips read-back after a pcca that moved no
    mask.  `req_ways`, `granted_ways` and `alpha` serve callers inspecting
    `Apportioner.records`; the deficit metric integrates the width timeline
    and the apportion count is `Apportioner.apportion_count`."""

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
            raise TraceError("unknown event kind %r" % (kind,))
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

    # -- queries ------------------------------------------------------------

    def _proc(self, pid: int) -> ProcessState:
        p = self.procs.get(pid)
        if p is None:
            raise NotPlaced("pid %r is not placed" % (pid,))
        return p

    def _clos_alpha(self, clos: ClosState) -> float:
        return max((self.procs[m].alpha for m in clos.members), default=0.0)

    def _fraction(self, sock: SocketState, p: ProcessState) -> float:
        """p's share of the socket's stored masses, summed in socket order:
        bit-equal to the reference `cache_fractions` in tests/oracles.py."""
        total = sum(self.procs[pid].mass for pid in sock.processes)
        return p.mass / total if total else 1.0 / len(sock.processes)

    def _scenario(self, sock: SocketState) -> Scenario:
        return classify_scenario(
            [self.procs[pid].fraction for pid in sock.processes]
        )

    # -- bitmask placement ----------------------------------------------------

    def generate_bitmask(self, sock: SocketState, clos_id: int, ways: int) -> int:
        """Deterministic contiguous placement: first fit over free ways; when
        overlap is unavoidable it lands on the lowest-alpha CLOS's region
        first.  Scored as (overlap outside that region, total overlap, start).
        """
        w_total = self.config.ways_per_socket
        if ways > w_total:
            raise BitmaskOverflow("%d ways > socket capacity %d" % (ways, w_total))
        if ways < 1:
            raise BitmaskOverflow("cannot place an empty bitmask")
        others = [
            c for c in sock.clos if c.clos_id != clos_id and c.members and c.mask
        ]
        used_all = 0
        for c in others:
            used_all |= c.mask
        lowest_mask = 0
        if others:
            lowest = min(others, key=lambda c: (self._clos_alpha(c), c.clos_id))
            lowest_mask = lowest.mask
        used_hot = used_all & ~lowest_mask
        best = None
        best_key = None
        for start in range(w_total - ways + 1):
            m = ((1 << ways) - 1) << start
            key = (mask_width(m & used_hot), mask_width(m & used_all), start)
            if best_key is None or key < best_key:
                best_key = key
                best = m
        return best

    def _extend_in_place(self, sock: SocketState, clos: ClosState, add: int) -> int:
        """Grow a CLOS run into adjacent free ways, right side first.  Returns
        the number of ways actually added."""
        if add <= 0 or clos.mask == 0:
            return 0
        free = ~sock.used_mask & ((1 << self.config.ways_per_socket) - 1)
        lo = (clos.mask & -clos.mask).bit_length() - 1
        hi = clos.mask.bit_length() - 1
        added = 0
        while added < add and hi + 1 < self.config.ways_per_socket and free >> (hi + 1) & 1:
            hi += 1
            clos.mask |= 1 << hi
            free &= ~(1 << hi)
            added += 1
        while added < add and lo - 1 >= 0 and free >> (lo - 1) & 1:
            lo -= 1
            clos.mask |= 1 << lo
            free &= ~(1 << lo)
            added += 1
        return added

    def _shrink_from_right(self, clos: ClosState, remove: int) -> int:
        removed = 0
        while removed < remove and clos.mask:
            hi = clos.mask.bit_length() - 1
            clos.mask &= ~(1 << hi)
            removed += 1
        return removed

    def _transfer_freed(self, sock: SocketState, freed: int) -> None:
        """Freed ways go to the most unsatisfied CLOS on the socket: maximal
        member alpha, then largest deficit, then lowest id.  Capped at its
        deficit; whatever cannot extend its run contiguously stays free."""
        if freed <= 0:
            return
        cands = [c for c in sock.clos if c.members and not c.satisfied]
        if not cands:
            return
        target = min(
            cands,
            key=lambda c: (
                -self._clos_alpha(c),
                -(c.demand_ways - c.width),
                c.clos_id,
            ),
        )
        give = min(freed, target.demand_ways - target.width)
        self._extend_in_place(sock, target, give)

    # -- admission (ipca) -----------------------------------------------------

    def _compatible_clos(self, sock: SocketState, p: ProcessState) -> list[ClosState]:
        return [
            c
            for c in sock.clos
            if c.members
            and len(c.members) < self.config.gfactor
            and c.demand_ways == p.req_ways
        ]

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

    def _select_clos(self, sock: SocketState, p: ProcessState):
        """Returns (clos, mode) with mode in fresh | join | overflow."""
        empty = [c for c in sock.clos if not c.members]
        compat = self._compatible_clos(sock, p)
        uncrowded = len(empty) > (
            self.config.clos_occupancy_threshold * self.config.clos_per_socket
        )
        if uncrowded:
            if p.reuse is ReuseClass.REUSE:
                return empty[0], "fresh"
            if compat:
                return self._pick_compatible(compat, p), "join"
            return empty[0], "fresh"
        if compat:
            return self._pick_compatible(compat, p), "join"
        # crowded and nothing compatible: squeeze into the least-alpha CLOS
        room = [c for c in sock.clos if c.members and len(c.members) < self.config.gfactor]
        if room:
            target = min(room, key=lambda c: (self._clos_alpha(c), c.clos_id))
            return target, "overflow"
        if empty:
            return empty[0], "fresh"
        raise AdmissionRejected(
            "socket %d: every CLOS is at the grouping cap" % sock.sid
        )

    def _place(self, sock: SocketState, p: ProcessState) -> ClosState:
        clos, mode = self._select_clos(sock, p)
        if mode == "fresh":
            clos.demand_ways = p.req_ways
            free = sock.free_ways
            width = min(p.req_ways, free) if free >= 1 else p.req_ways
            clos.members.append(p.pid)
            clos.mask = self.generate_bitmask(sock, clos.clos_id, width)
        elif mode == "join":
            clos.members.append(p.pid)
        else:  # overflow
            self.warnings.append(
                "pid %d overflows into CLOS %d on socket %d (no compatible CLOS)"
                % (p.pid, clos.clos_id, sock.sid)
            )
            clos.members.append(p.pid)
            new_demand = max(clos.demand_ways, p.req_ways)
            if new_demand > clos.demand_ways:
                clos.demand_ways = new_demand
                self._extend_in_place(sock, clos, new_demand - clos.width)
        p.clos_id = clos.clos_id
        self.max_clos_group_size = max(self.max_clos_group_size, len(clos.members))
        return clos

    def ipca_batch(self, time_ns: float, arrivals) -> list[AllocationRecord]:
        """Admit a batch of processes arriving simultaneously; each arrival
        is (pid, alpha, max_ways, nbytes, reuse, predicted_ns).

        Sockets are chosen for the whole batch first (reserving each pick's
        max_ways provisionally, so one socket does not swallow every
        cache-sensitive arrival); fractions are then computed per socket over
        the full resident population, which makes them sum to exactly 1 when
        the machine starts empty.  Placement runs in pid order.
        """
        arrivals = sorted(arrivals, key=lambda a: a[0])
        for pid, *_ in arrivals:
            if pid in self.procs:
                raise TraceError("pid %r admitted twice" % (pid,))

        prov_free = {s.sid: s.free_ways for s in self.sockets}
        prov_cores = {s.sid: s.free_cores for s in self.sockets}
        placed: dict[int, ProcessState] = {}
        for pid, alpha, max_ways, nbytes, reuse, predicted_ns in arrivals:
            if (
                alpha > self.config.alpha_socket_threshold
                and prov_free[0] > max_ways
                and prov_cores[0] > 0
            ):
                sid = 0
            else:
                sid = None
                for s in self.sockets:
                    if prov_cores[s.sid] > 0 and (
                        sid is None or prov_cores[s.sid] > prov_cores[sid]
                    ):
                        sid = s.sid
                if sid is None:
                    raise AdmissionRejected("no socket has a free core")
            prov_cores[sid] -= 1
            prov_free[sid] = max(0, prov_free[sid] - max_ways)
            p = ProcessState(
                pid=pid,
                alpha=alpha,
                max_ways=max_ways,
                mass=adjusted_footprint(nbytes, reuse, self.config),
                reuse=reuse,
                socket_id=sid,
                predicted_end=time_ns + predicted_ns,
            )
            self.procs[pid] = p
            self.sockets[sid].processes.append(pid)
            placed[pid] = p

        records = []
        for sock in self.sockets:
            new_here = [pid for pid in sock.processes if pid in placed]
            if not new_here:
                continue
            for pid in new_here:
                placed[pid].fraction = self._fraction(sock, placed[pid])
            for pid in new_here:
                p = placed[pid]
                p.req_ways = required_ways(p.fraction, self.config, p.max_ways)
                clos = self._place(sock, p)
                rec = self._record(
                    time_ns, p, "ipca", sock, clos, changed=True
                )
                records.append(rec)
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
        """Re-apportion one process after a phase change, recomputing its own
        fraction only.  Demand moves of less than hysteresis_ways are ignored;
        growth extends the CLOS run in place; shrink frees ways from the right
        end and hands them to the most unsatisfied CLOS.  Only that shrink
        moves another CLOS's ways, so an unchanged record moved no mask."""
        p = self._proc(pid)
        p.mass, p.reuse = adjusted_footprint(nbytes, reuse, self.config), reuse
        p.predicted_end = time_ns + predicted_ns
        sock = self.sockets[p.socket_id]
        clos = sock.clos[p.clos_id]
        p.fraction = self._fraction(sock, p)
        req = required_ways(p.fraction, self.config, p.max_ways)
        cur = clos.width
        before = clos.mask
        p.req_ways = req
        demand = clos.demand_ways = max(self.procs[m].req_ways for m in clos.members)
        if abs(req - cur) >= self.config.hysteresis_ways:
            if req > cur:
                self._extend_in_place(sock, clos, demand - clos.width)
            else:
                freed = self._shrink_from_right(clos, cur - max(demand, 1))
                self._transfer_freed(sock, freed)
        return self._record(
            time_ns, p, "pcca", sock, clos, changed=clos.mask != before
        )

    # -- release --------------------------------------------------------------

    def release_process(self, time_ns: float, pid: int) -> AllocationRecord:
        """Retire a process: membership shrinks, an emptied CLOS is reclaimed
        and its ways recycled via the most-unsatisfied rule."""
        p = self._proc(pid)
        sock = self.sockets[p.socket_id]
        clos = sock.clos[p.clos_id]
        before = clos.mask
        clos.members.remove(pid)
        sock.processes.remove(pid)
        del self.procs[pid]
        if not clos.members:
            freed = clos.width
            clos.mask = 0
            clos.demand_ways = 0
            self._transfer_freed(sock, freed)
        else:
            clos.demand_ways = max(self.procs[m].req_ways for m in clos.members)
        return self._record(
            time_ns, p, "release", sock, clos, changed=clos.mask != before
        )

    # -- record keeping ---------------------------------------------------------

    def _record(
        self,
        time_ns: float,
        p: ProcessState,
        event: str,
        sock: SocketState,
        clos: ClosState,
        changed: bool,
    ) -> AllocationRecord:
        rec = AllocationRecord(
            time_ns=time_ns,
            pid=p.pid,
            event=event,
            socket=sock.sid,
            clos=clos.clos_id,
            bitmask=clos.mask,
            scenario=self._scenario(sock),
            satisfied=clos.satisfied,
            req_ways=p.req_ways,
            granted_ways=0 if event == "release" else min(clos.width, p.max_ways),
            alpha=p.alpha,
            changed=changed,
        )
        self.records.append(rec)
        if changed and event in ("ipca", "pcca"):
            self.apportion_count += 1
        return rec
