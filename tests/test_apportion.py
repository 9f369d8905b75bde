"""Fractional apportioning and the CLOS allocation engine.

Record-exact walkthroughs of whole scenarios live in test_fixtures; this file
covers the pure helpers and targeted engine behaviors, plus the randomized
invariant sweep.
"""

import pytest
from hypothesis import given, settings, strategies as st

from cacheways import apportion
from cacheways.apportion import (
    Apportioner,
    Scenario,
    SystemConfig,
    adjusted_footprint,
    classify_scenario,
    format_mask,
    mask_width,
    required_ways,
)
from cacheways.errors import AdmissionRejected, BitmaskOverflow, NotPlaced, SchemaError, TraceError
from cacheways.loops import ReuseClass

from oracles import cache_fractions, is_contiguous
from support import clos_of

REUSE, STREAM = ReuseClass.REUSE, ReuseClass.STREAM

MIB = 1024 * 1024


def one_socket(**kw):
    kw.setdefault("sockets", 1)
    return SystemConfig(**kw)


# -- pure helpers -------------------------------------------------------------

def test_adjusted_footprint_discounts_streams():
    cfg = SystemConfig()
    assert adjusted_footprint(1000, REUSE, cfg) == 1000.0
    assert adjusted_footprint(1000, STREAM, cfg) == 100.0


def admitted_fractions(phases):
    """{pid: stored fraction} after one ipca_batch of (pid, bytes, reuse) on one socket."""
    ap = Apportioner(one_socket())
    ap.ipca_batch(0.0, [(pid, 0.0, 4, nbytes, reuse, 1.0) for pid, nbytes, reuse in phases])
    return {pid: p.fraction for pid, p in ap.procs.items()}


def test_cache_fractions_sum_to_one():
    phases = [(0, 3 * MIB, REUSE), (1, MIB, REUSE), (2, 4 * MIB, STREAM)]
    fr = admitted_fractions(phases)
    assert fr == cache_fractions(phases, one_socket())
    assert sum(fr.values()) == pytest.approx(1.0)
    assert fr[0] == pytest.approx(3 * MIB / (4 * MIB + 0.4 * MIB))


def test_cache_fractions_zero_mass_splits_evenly():
    phases = [(0, 0, REUSE), (1, 0, REUSE)]
    fr = admitted_fractions(phases)
    assert fr == cache_fractions(phases, one_socket()) == {0: 0.5, 1: 0.5}


def test_scenario_boundaries():
    assert classify_scenario([0.5, 0.5]) is Scenario.FULL_DISJOINT
    assert classify_scenario([0.5, 0.5 + 2e-9]) is Scenario.OVERLAPPING
    assert classify_scenario([0.5, 0.5 - 2e-9]) is Scenario.UNDERUTILIZED
    assert classify_scenario([1.0 + 5e-10]) is Scenario.FULL_DISJOINT


def test_required_ways_rounds_half_up():
    cfg = SystemConfig(ways_per_socket=10)
    assert required_ways(0.25, cfg, 99) == 3  # 2.5 rounds up
    assert required_ways(0.24, cfg, 99) == 2
    assert required_ways(0.06, cfg, 99) == 1
    assert required_ways(0.0, cfg, 99) == 1  # floor of one way
    assert required_ways(1.0, cfg, 99) == 10


def test_required_ways_caps_at_saturation():
    cfg = SystemConfig(ways_per_socket=10)
    assert required_ways(0.9, cfg, 4) == 4


def test_required_ways_rejects_bad_fraction():
    with pytest.raises(SchemaError):
        required_ways(1.5, SystemConfig(), 4)


def test_mask_helpers():
    assert mask_width(0b0111000) == 3
    assert format_mask(0b111, 11) == "0x007"
    assert format_mask(0, 11) == "0x000"


# -- bitmask placement --------------------------------------------------------

def test_bitmask_first_fit_from_low_end():
    ap = Apportioner(one_socket())
    sock = ap.sockets[0]
    assert ap.generate_bitmask(sock, 0, 3) == 0b111


def test_bitmask_avoids_occupied_runs():
    ap = Apportioner(one_socket())
    sock = ap.sockets[0]
    # occupy [0..3] with a member-bearing CLOS
    ap.ipca_batch(0.0, [(0, 0.0, 4, 4 * MIB, REUSE, 1.0)])
    mask = ap.generate_bitmask(sock, 5, 3)
    assert mask == 0b111 << 4


def test_bitmask_overlap_lands_on_lowest_alpha_region():
    cfg = one_socket(ways_per_socket=8)
    ap = Apportioner(cfg)
    # two residents: hungry [0..5] (alpha 9), meek [6,7] (alpha 0)
    ap.ipca_batch(
        0.0,
        [
            (0, 9.0, 6, 6 * MIB, REUSE, 1.0),
            (1, 0.0, 2, 2 * MIB, REUSE, 1.0),
        ],
    )
    sock = ap.sockets[0]
    assert sock.free_ways == 0
    # a forced 4-way placement overlaps the meek CLOS first, then as little
    # of the hungry one as possible: [4..7] (2 hot bits) loses to nothing
    # cheaper, since any other start costs more hot overlap
    mask = ap.generate_bitmask(sock, 9, 4)
    assert mask == 0b11110000


def test_bitmask_rejects_oversize():
    ap = Apportioner(one_socket())
    with pytest.raises(BitmaskOverflow):
        ap.generate_bitmask(ap.sockets[0], 0, 12)
    with pytest.raises(BitmaskOverflow):
        ap.generate_bitmask(ap.sockets[0], 0, 0)


# -- admission ----------------------------------------------------------------

def test_double_admission_rejected():
    ap = Apportioner(one_socket())
    ap.ipca_batch(0.0, [(7, 0.0, 2, MIB, REUSE, 1.0)])
    with pytest.raises(TraceError):
        ap.ipca_batch(1.0, [(7, 0.0, 2, MIB, REUSE, 1.0)])


def test_high_alpha_arrivals_prefer_socket_zero_until_reserved_out():
    cfg = SystemConfig(sockets=2, ways_per_socket=11)
    ap = Apportioner(cfg)
    arrivals = [
        (pid, 5.0, 4, 3 * MIB, REUSE, 1.0)
        for pid in range(4)
    ]
    recs = ap.ipca_batch(0.0, arrivals)
    sockets = {r.pid: r.socket for r in recs}
    # provisional reservations: 11 > 4 (p0), 7 > 4 (p1), 3 > 4 fails (p2),
    # then most-free-cores places p2/p3 on socket 1
    assert sockets == {0: 0, 1: 0, 2: 1, 3: 1}


def test_low_alpha_arrivals_balance_by_free_cores():
    ap = Apportioner(SystemConfig(sockets=2))
    recs = ap.ipca_batch(
        0.0, [(pid, 0.0, 2, MIB, REUSE, 1.0) for pid in range(4)]
    )
    assert {r.pid: r.socket for r in recs} == {0: 0, 1: 1, 2: 0, 3: 1}
    # batch records come out socket-major, pid order within each socket
    assert [r.pid for r in recs] == [0, 2, 1, 3]


def test_admission_fails_without_free_core():
    cfg = SystemConfig(sockets=1, cores_per_socket=1)
    ap = Apportioner(cfg)
    ap.ipca_batch(0.0, [(0, 0.0, 2, MIB, REUSE, 1.0)])
    with pytest.raises(AdmissionRejected):
        ap.ipca_batch(1.0, [(1, 0.0, 2, MIB, REUSE, 1.0)])


def test_gfactor_never_exceeded():
    cfg = one_socket(clos_per_socket=1, gfactor=2)
    ap = Apportioner(cfg)
    ap.ipca_batch(0.0, [(0, 0.0, 2, MIB, REUSE, 1.0)])
    ap.ipca_batch(1.0, [(1, 0.0, 2, MIB, REUSE, 1.0)])
    with pytest.raises(AdmissionRejected):
        ap.ipca_batch(2.0, [(2, 0.0, 2, MIB, REUSE, 1.0)])
    assert ap.max_clos_group_size == 2


def test_batch_fraction_sum_is_exactly_one_per_socket():
    ap = Apportioner(SystemConfig(sockets=2))
    import random

    rng = random.Random(7)
    arrivals = [
        (pid, 0.0, 3, rng.randint(1, 9) * MIB, REUSE, 1.0)
        for pid in range(8)
    ]
    ap.ipca_batch(0.0, arrivals)
    for sock in ap.sockets:
        total = sum(ap.procs[pid].fraction for pid in sock.processes)
        assert abs(total - 1.0) <= 1e-9


def test_pcca_computes_only_the_changing_fraction(monkeypatch):
    # a phase change re-weighs one process: one adjusted_footprint call,
    # over the masses the socket already holds, bit-equal to cache_fractions
    ap = Apportioner(one_socket())
    ap.ipca_batch(0.0, [(pid, 0.0, 4, (pid + 1) * MIB, REUSE, 1.0) for pid in range(4)])
    calls = []
    real = apportion.adjusted_footprint

    def counting(nbytes, reuse, config):
        calls.append(nbytes)
        return real(nbytes, reuse, config)

    monkeypatch.setattr(apportion, "adjusted_footprint", counting)
    ap.pcca(1.0, 2, 5 * MIB, STREAM, 1.0)
    assert calls == [5 * MIB]
    now = [(0, MIB, REUSE), (1, 2 * MIB, REUSE), (2, 5 * MIB, STREAM), (3, 4 * MIB, REUSE)]
    assert ap.procs[2].fraction == cache_fractions(now, ap.config)[2]


# -- queries ------------------------------------------------------------------

def test_granted_ways_caps_at_saturation():
    ap = Apportioner(one_socket())
    (rec,) = ap.ipca_batch(0.0, [(0, 0.0, 2, 8 * MIB, REUSE, 1.0)])
    assert clos_of(ap, 0).width >= 2
    assert rec.granted_ways == 2


def test_unplaced_pid_raises():
    ap = Apportioner(one_socket())
    with pytest.raises(NotPlaced):
        ap.pcca(0.0, 3, MIB, REUSE, 1.0)


# -- randomized invariants ----------------------------------------------------

def check_invariants(ap, first_socket):
    """Each CLOS has at most gfactor members and a contiguous in-range mask,
    non-empty when it has members; each placed process is listed by its
    socket and its CLOS, and never changes socket."""
    top = 1 << ap.config.ways_per_socket
    for sock in ap.sockets:
        for clos in sock.clos:
            assert is_contiguous(clos.mask) and clos.mask < top, "mask %#x" % clos.mask
            assert len(clos.members) <= ap.config.gfactor
            assert clos.mask or not clos.members
            for pid in clos.members:
                assert (ap.procs[pid].socket_id, ap.procs[pid].clos_id) == (sock.sid, clos.clos_id)
        for pid in sock.processes:
            assert ap.procs[pid].socket_id == sock.sid
    for pid, p in ap.procs.items():
        assert pid in clos_of(ap, pid).members
        assert first_socket.setdefault(pid, p.socket_id) == p.socket_id, "pid %d hopped sockets" % pid


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=False))
def test_engine_invariants_random_walk(rng):
    cfg = SystemConfig(sockets=rng.choice([1, 2]))
    ap = Apportioner(cfg)
    n = rng.randint(2, 8)
    arrivals = []
    for pid in range(n):
        mw = rng.randint(2, 5)
        arrivals.append(
            (
                pid,
                rng.choice([0.0, 0.5, 2.0, 8.0]),
                mw,
                rng.randint(1, 8) * MIB,
                rng.choice([REUSE, REUSE, STREAM]),
                rng.uniform(1e6, 1e9),
            )
        )
    ap.ipca_batch(0.0, arrivals)
    socket_of = {}
    check_invariants(ap, socket_of)
    for sock in ap.sockets:
        total = sum(ap.procs[pid].fraction for pid in sock.processes)
        if sock.processes:
            assert abs(total - 1.0) <= 1e-9

    alive = set(range(n))
    t = 0.0
    for _ in range(rng.randint(5, 40)):
        if not alive:
            break
        t += rng.uniform(1.0, 1e8)
        pid = rng.choice(sorted(alive))
        if rng.random() < 0.25:
            ap.release_process(t, pid)
            alive.discard(pid)
        else:
            ap.pcca(
                t,
                pid,
                rng.randint(1, 8) * MIB,
                rng.choice([REUSE, STREAM]),
                rng.uniform(1e6, 1e9),
            )
        check_invariants(ap, socket_of)

    events = [r.event for r in ap.records]
    assert events[: len(arrivals)] == ["ipca"] * len(arrivals)
    changed = sum(1 for r in ap.records if r.changed and r.event in ("ipca", "pcca"))
    assert ap.apportion_count == changed
