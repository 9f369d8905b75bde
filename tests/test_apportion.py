"""Fractional apportioning and the CLOS allocation engine.

Record-exact walkthroughs of whole scenarios live in test_fixtures; this file
covers the pure helpers and targeted engine behaviors, plus the randomized
invariant sweep.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cacheways import apportion
from cacheways.apportion import (
    Apportioner,
    ReuseClass,
    Scenario,
    SystemConfig,
    ClosState,
    SocketState,
    STREAM_DEN,
    STREAM_NUM,
    adjusted_footprint,
    best_window,
    free_window,
    required_ways,
)
from cacheways.errors import SchemaError

from oracles import (
    brute_extend,
    brute_shrink,
    brute_window,
    cache_fractions,
    exact_shares,
    half_up_ways,
    is_contiguous,
    scenario,
)
from support import checking_moved, clos_of, raises_fault

REUSE, STREAM = ReuseClass.REUSE, ReuseClass.STREAM

MIB = 1024 * 1024


def one_socket(**kw):
    kw.setdefault("sockets", 1)
    return SystemConfig(**kw)


# -- pure helpers -------------------------------------------------------------

def test_adjusted_footprint_discounts_streams():
    reuse, stream = adjusted_footprint(1000, REUSE), adjusted_footprint(1000, STREAM)
    assert type(reuse) is int and type(stream) is int
    # a stream weighs exactly the float 0.1 of a reuse phase of its size
    assert Fraction(stream, reuse) == Fraction(STREAM_NUM, STREAM_DEN) == Fraction(0.1)


def admitted_req_ways(phases):
    """{pid: req_ways} after one ipca_batch of (pid, bytes, reuse) on one
    11-way socket, every max-ways 11."""
    ap = Apportioner(one_socket())
    ap.ipca_batch(0.0, [(pid, 0.0, 11, nbytes, reuse, 1.0) for pid, nbytes, reuse in phases])
    return {pid: p.req_ways for pid, p in ap.procs.items()}


def test_cache_fractions_sum_to_one():
    phases = [(0, 3 * MIB, REUSE), (1, MIB, REUSE), (2, 4 * MIB, STREAM)]
    fr = cache_fractions(phases)
    assert sum(fr.values()) == 1
    assert admitted_req_ways(phases) == {pid: half_up_ways(fr[pid], 11, 11) for pid in fr}
    # the float 0.1 is a little above 1/10, so the stream weighs a little
    # over 0.4 MiB: pid0's 3/4.4 of 11 ways falls just short of 7.5, pid1's
    # 1/4.4 just short of 2.5, and both round down
    assert fr[0] * 11 < Fraction(15, 2) and fr[1] * 11 < Fraction(5, 2)
    assert admitted_req_ways(phases) == {0: 7, 1: 2, 2: 1}


def test_cache_fractions_zero_mass_splits_evenly():
    phases = [(0, 0, REUSE), (1, 0, REUSE)]
    fr = cache_fractions(phases)
    assert fr == {0: Fraction(1, 2), 1: Fraction(1, 2)}
    # 5.5 of 11 ways rounds half-up to 6
    assert admitted_req_ways(phases) == {0: 6, 1: 6}


def scenarios_of(*batches):
    """Each record's scenario after one ipca_batch per batch, at t = 0, 1, ..."""
    ap = Apportioner(one_socket())
    for t, batch in enumerate(batches):
        ap.ipca_batch(float(t), batch)
    return [r.scenario for r in ap.records]


def test_scenario_read_from_the_masks():
    # a full socket: one CLOS of all 11 ways
    assert scenarios_of([(0, 0.0, 11, MIB, REUSE, 1.0)]) == [Scenario.FULL_DISJOINT]
    # a free way (0xff), a full disjoint socket (0xff, 0x700), a shared way
    # (0xf lands on the lowest-alpha CLOS's region)
    assert scenarios_of(
        [(0, 1.0, 8, 8 * MIB, REUSE, 1.0)],
        [(1, 2.0, 8, 8 * MIB, REUSE, 1.0)],
        [(2, 0.0, 4, 16 * MIB, REUSE, 1.0)],
    ) == [Scenario.UNDERUTILIZED, Scenario.FULL_DISJOINT, Scenario.OVERLAPPING]


def test_two_disjoint_clos_with_free_ways_log_underutilized():
    # masks 0xf and 0xf0 leave 3 of 11 ways free, whatever the shares sum to
    ap = Apportioner(one_socket())
    recs = ap.ipca_batch(0.0, [(pid, 1.0, 4, 8 * MIB, REUSE, 1.0) for pid in (0, 1)])
    assert [r.bitmask for r in recs] == [0xF, 0xF0]
    assert [r.scenario for r in recs] == [Scenario.UNDERUTILIZED] * 2


def test_required_ways_rounds_half_up():
    cfg = SystemConfig(ways_per_socket=10)
    assert required_ways(1, 4, cfg, 99) == 3  # 2.5 rounds up
    assert required_ways(24, 100, cfg, 99) == 2
    assert required_ways(6, 100, cfg, 99) == 1
    assert required_ways(0, 5, cfg, 99) == 1  # floor of one way
    assert required_ways(7, 7, cfg, 99) == 10
    for ways in (10, 11, 20):
        cfg = SystemConfig(ways_per_socket=ways)
        for total in range(1, 45):
            for mass in range(total + 1):
                assert required_ways(mass, total, cfg, 99) == half_up_ways(
                    Fraction(mass, total), ways, 99
                ), (mass, total, ways)


def test_required_ways_caps_at_saturation():
    cfg = SystemConfig(ways_per_socket=10)
    assert required_ways(9, 10, cfg, 4) == 4


def test_required_ways_rejects_bad_fraction():
    for mass, total in ((3, 2), (-1, 2), (0, 0)):
        with pytest.raises(SchemaError):
            required_ways(mass, total, SystemConfig(), 4)


def test_exact_halves_round_up_past_the_socket():
    # 15 + 7 MiB of reuse on 11 ways are exactly 7.5 + 3.5 ways: half-up asks
    # for 8 + 4 of 11, so the second CLOS gets the 3 left and runs short
    ap = Apportioner(one_socket())
    recs = ap.ipca_batch(0.0, [(0, 0.0, 11, 15 * MIB, REUSE, 1.0),
                               (1, 0.0, 11, 7 * MIB, REUSE, 1.0)])
    assert [r.req_ways for r in recs] == [8, 4]
    assert [r.bitmask for r in recs] == [0x0FF, 0x700]
    assert [r.satisfied for r in recs] == [True, False]


def test_mask_helpers():
    # the one window rule: least overlap with `hot`, then with `used`, then
    # the lowest start
    assert best_window(11, 3, 0, 0) == 0b111
    assert best_window(6, 2, 0b110000, 0b110011) == 0b001100
    assert best_window(8, 4, 0b00111111, 0b11111111) == 0b11110000
    assert best_window(5, 2, 0b00100, 0b11111) == 0b00011
    assert best_window(4, 4, 0b1111, 0b1111) == 0b1111


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 20).flatmap(lambda ways: st.tuples(
    st.just(ways), st.integers(0, (1 << ways) - 1), st.integers(0, (1 << ways) - 1))))
def test_best_window_matches_a_scan_of_every_start(case):
    # hot within used, as both callers pass it; every width of the socket
    ways, used, keep = case
    hot = used & keep
    for width in range(1, ways + 1):
        want = brute_window(ways, width, hot, used)
        assert best_window(ways, width, hot, used) == want, (width, hot, used)
        free = brute_window(ways, width, 0, used)
        assert free_window(ways, width, used) == (0 if free & used else free), (width, used)


def runs_of(ways):
    """Every run of a `ways`-way socket."""
    return [((1 << width) - 1) << lo for width in range(1, ways + 1) for lo in range(ways - width + 1)]


@pytest.mark.parametrize("ways", range(2, 11))
def test_extend_in_place_matches_the_way_by_way_walk(ways):
    # every run, every set of ways other CLOS take outside it, every add
    # from -2 to ways + 1
    ap = Apportioner(one_socket(ways_per_socket=ways))
    full = (1 << ways) - 1
    for run in runs_of(ways):
        outside = full & ~run
        for others in range(full + 1):
            if others & ~outside:
                continue
            clos, other = ClosState(0), ClosState(1, mask=others)
            sock = SocketState(0, ap.config, occupied=[clos, other])
            for add in range(-2, ways + 2):
                clos.mask = run
                added = ap._extend_in_place(sock, clos, add)
                assert (clos.mask, added) == brute_extend(ways, run, run | others, add), (run, others, add)


@pytest.mark.parametrize("ways", range(2, 11))
def test_shrink_from_right_matches_the_way_by_way_walk(ways):
    # a negative count removes nothing, as pcca passes when another member
    # demands more than the run holds
    ap = Apportioner(one_socket(ways_per_socket=ways))
    for run in runs_of(ways):
        for remove in range(-2, ways + 2):
            clos = ClosState(0, mask=run)
            removed = ap._shrink_from_right(clos, remove)
            assert (clos.mask, removed) == brute_shrink(run, remove), (run, remove)


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


def unshortened_bitmask(ap, sock, clos_id, ways):
    """generate_bitmask's rule scored in full: the region of the other CLOS
    with the lowest (member alpha, id) is cold, the rest of the other CLOS's
    ways hot, and every start is scored."""
    others = [c for c in sock.occupied if c.clos_id != clos_id and c.mask]
    used = 0
    for c in others:
        used |= c.mask
    lowest = min(others, default=None,
                 key=lambda c: (max(ap.procs[m].alpha for m in c.members), c.clos_id))
    return brute_window(ap.config.ways_per_socket, ways, used & ~(lowest.mask if lowest else 0), used)


def test_bitmask_matches_the_unshortened_rule_over_op_streams(monkeypatch):
    # crowded sockets (2-4 CLOS of one seat each on 2-4 ways, and more
    # arrivals over a stream than ways) leave no free window at some
    # placements, so the scored branch runs as well as the first fit
    real, blocked = Apportioner.generate_bitmask, []

    def checked(self, sock, clos_id, ways):
        want = unshortened_bitmask(self, sock, clos_id, ways)
        used = 0
        for c in sock.occupied:
            used |= c.mask if c.clos_id != clos_id else 0
        blocked.append(brute_window(self.config.ways_per_socket, ways, 0, used) & used != 0)
        got = real(self, sock, clos_id, ways)
        assert got == want, (sock.sid, clos_id, ways, [(c.clos_id, c.mask) for c in sock.occupied])
        return got

    monkeypatch.setattr(Apportioner, "generate_bitmask", checked)
    for seed in range(60):
        rng = random.Random(seed)
        crowded = seed % 2 == 0
        op_stream(Apportioner(SystemConfig(
            sockets=rng.choice([1, 2]),
            cores_per_socket=rng.randint(2, 8),
            clos_per_socket=rng.randint(2, 4) if crowded else rng.randint(1, 16),
            ways_per_socket=rng.randint(2, 4) if crowded else rng.choice([4, 11]),
            gfactor=1 if crowded else rng.randint(1, 3),
        )), rng)
    assert 0 < blocked.count(True) < len(blocked), "both branches ran"


def test_bitmask_rejects_oversize():
    ap = Apportioner(one_socket())
    with raises_fault("12 ways > socket capacity 11"):
        ap.generate_bitmask(ap.sockets[0], 0, 12)
    with raises_fault("cannot place an empty bitmask"):
        ap.generate_bitmask(ap.sockets[0], 0, 0)


# -- admission ----------------------------------------------------------------

def test_double_admission_rejected():
    ap = Apportioner(one_socket())
    ap.ipca_batch(0.0, [(7, 0.0, 2, MIB, REUSE, 1.0)])
    with raises_fault("pid 7 admitted twice"):
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
    with raises_fault("no socket has a free core or CLOS seat"):
        ap.ipca_batch(1.0, [(1, 0.0, 2, MIB, REUSE, 1.0)])


def placement_state(ap):
    """Everything a batch admission may change, copied."""
    return (
        {pid: repr(p) for pid, p in ap.procs.items()},
        [
            (list(s.processes), s.mass, [(c.clos_id, list(c.members), c.mask) for c in s.occupied])
            for s in ap.sockets
        ],
        list(ap.records),
    )


@pytest.mark.parametrize("cores, resident", [(1, []), (2, [5])])
def test_a_rejected_batch_changes_nothing(cores, resident):
    ap = Apportioner(one_socket(cores_per_socket=cores))
    ap.ipca_batch(0.0, [(pid, 0.0, 2, MIB, REUSE, 1.0) for pid in resident])
    before = placement_state(ap)
    with raises_fault("no socket has a free core or CLOS seat"):
        ap.ipca_batch(1.0, [(pid, 0.0, 2, MIB, REUSE, 1.0) for pid in (0, 1)])
    assert placement_state(ap) == before
    with raises_fault("is not placed"):
        ap.release_process(2.0, 0)
    ap.ipca_batch(3.0, [(0, 0.0, 2, MIB, REUSE, 1.0)])  # the room is still there
    assert ap.procs[0].clos_id >= 0


def test_a_batch_naming_a_pid_twice_is_rejected_whole():
    ap = Apportioner(one_socket())
    ap.ipca_batch(0.0, [(5, 0.0, 2, MIB, REUSE, 1.0)])
    before = placement_state(ap)
    with raises_fault("pid 0 admitted twice"):
        ap.ipca_batch(1.0, [(0, 0.0, 2, MIB, REUSE, 1.0), (1, 0.0, 2, MIB, REUSE, 1.0),
                            (0, 0.0, 3, 2 * MIB, STREAM, 1.0)])
    assert placement_state(ap) == before


def test_gfactor_never_exceeded():
    cfg = one_socket(clos_per_socket=1, gfactor=2)
    ap = Apportioner(cfg)
    ap.ipca_batch(0.0, [(0, 0.0, 2, MIB, REUSE, 1.0)])
    ap.ipca_batch(1.0, [(1, 0.0, 2, MIB, REUSE, 1.0)])
    with raises_fault("no socket has a free core or CLOS seat"):
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
        fr = cache_fractions(
            [(pid, nbytes, reuse) for pid, _, _, nbytes, reuse, _ in arrivals
             if pid in sock.processes],
        )
        assert sum(fr.values()) == 1
        for pid in sock.processes:
            assert ap.procs[pid].req_ways == half_up_ways(fr[pid], 11, 3)


def test_pcca_computes_only_the_changing_fraction(monkeypatch):
    # a phase change re-weighs one process: one adjusted_footprint call,
    # over the masses the socket already holds, and the exact half-up of
    # its cache_fractions share
    ap = Apportioner(one_socket())
    ap.ipca_batch(0.0, [(pid, 0.0, 4, (pid + 1) * MIB, REUSE, 1.0) for pid in range(4)])
    calls = []
    real = apportion.adjusted_footprint

    def counting(nbytes, reuse):
        calls.append(nbytes)
        return real(nbytes, reuse)

    monkeypatch.setattr(apportion, "adjusted_footprint", counting)
    ap.pcca(1.0, 2, 5 * MIB, STREAM, 1.0)
    assert calls == [5 * MIB]
    now = [(0, MIB, REUSE), (1, 2 * MIB, REUSE), (2, 5 * MIB, STREAM), (3, 4 * MIB, REUSE)]
    assert ap.procs[2].req_ways == half_up_ways(cache_fractions(now)[2], 11, 4)


def test_pcca_reads_no_other_residents_mass():
    # the socket keeps its masses summed, so a phase change on a socket of
    # 14 residents reads the changing process's mass only, whether its CLOS
    # grows, shrinks and hands ways on, or stays
    ap = Apportioner(one_socket())
    ap.ipca_batch(0.0, [(pid, 0.0, 11, (pid % 5 + 1) * MIB, REUSE, 1.0) for pid in range(14)])
    reads = []

    class CountingMass(apportion.ProcessState):
        def __getattribute__(self, name):
            if name == "mass":
                reads.append(object.__getattribute__(self, "pid"))
            return object.__getattribute__(self, name)

    for pid in range(14):
        if pid != 13:
            ap.procs[pid].__class__ = CountingMass
    widths = []
    for t, nbytes, reuse in [(1.0, 40 * MIB, REUSE), (2.0, MIB, STREAM), (3.0, 0, REUSE), (4.0, 9 * MIB, REUSE)]:
        ap.pcca(t, 13, nbytes, reuse, 1.0)
        assert reads == [], "pcca read the mass of pids %s" % sorted(set(reads))
        check_invariants(ap, {})  # sums every resident's mass itself
        reads.clear()
        widths.append(clos_of(ap, 13).mask.bit_count())
    assert widths == [6, 1, 1, 2]  # pid 13's CLOS 3 has free ways beside it


# -- queries ------------------------------------------------------------------

def test_granted_ways_caps_at_saturation():
    ap = Apportioner(one_socket())
    (rec,) = ap.ipca_batch(0.0, [(0, 0.0, 2, 8 * MIB, REUSE, 1.0)])
    assert clos_of(ap, 0).mask.bit_count() >= 2
    assert rec.granted_ways == 2


def test_unplaced_pid_raises():
    ap = Apportioner(one_socket())
    with raises_fault("is not placed"):
        ap.pcca(0.0, 3, MIB, REUSE, 1.0)


# -- randomized invariants ----------------------------------------------------

def check_invariants(ap, first_socket):
    """Each CLOS has at most gfactor members and a contiguous in-range mask,
    non-empty when it has members; each placed process is listed by its
    socket and its CLOS, and never changes socket; each socket's running
    mass is the sum of its residents' masses; each socket lists its CLOS
    as ids 0..n-1 with n at most clos_per_socket, and its occupied CLOS are
    the listed ones with members; each socket's kept scenario, and so the
    last record's, is the one its masks show; and each process the last
    operation apportioned (its records are the ones at the last record's
    time: the callers advance the clock between operations) asks for the
    exact half-up of its share of its socket's masses."""
    ways = ap.config.ways_per_socket
    top = 1 << ways
    if ap.records:
        last = ap.records[-1]
        masks = [c.mask for c in ap.sockets[last.socket].clos if c.members]
        assert last.scenario is scenario(masks, ways)
        for rec in reversed(ap.records):
            if rec.time_ns != last.time_ns:
                break
            if rec.event != "release":
                p = ap.procs[rec.pid]
                shares = exact_shares({pid: ap.procs[pid].mass for pid in ap.sockets[rec.socket].processes})
                assert rec.req_ways == p.req_ways == half_up_ways(shares[rec.pid], ways, p.max_ways)
    for sock in ap.sockets:
        assert [c.clos_id for c in sock.clos] == list(range(len(sock.clos))), "socket %d" % sock.sid
        assert len(sock.clos) <= ap.config.clos_per_socket
        assert [c for c in sock.occupied if sock.clos[c.clos_id] is c] == sock.occupied
        assert sorted(c.clos_id for c in sock.occupied) == [c.clos_id for c in sock.clos if c.members]
        assert sock.scenario is scenario([c.mask for c in sock.occupied], ways), "socket %d" % sock.sid
        for clos in sock.clos:
            assert is_contiguous(clos.mask) and clos.mask < top, "mask %#x" % clos.mask
            assert len(clos.members) <= ap.config.gfactor
            assert clos.mask or not clos.members
            for pid in clos.members:
                assert (ap.procs[pid].socket_id, ap.procs[pid].clos_id) == (sock.sid, clos.clos_id)
        for pid in sock.processes:
            assert ap.procs[pid].socket_id == sock.sid
        assert sock.mass == sum(ap.procs[pid].mass for pid in sock.processes), "socket %d" % sock.sid
    for pid, p in ap.procs.items():
        assert pid in clos_of(ap, pid).members
        assert first_socket.setdefault(pid, p.socket_id) == p.socket_id, "pid %d hopped sockets" % pid


def test_clos_are_built_on_demand_and_reused_lowest_first():
    # one seat per CLOS and 4 CLOS: each arrival alone takes the lowest id
    # free, a released id goes out again first, and no fifth CLOS is built
    ap = Apportioner(one_socket(clos_per_socket=4, gfactor=1, cores_per_socket=4))
    sock, socket_of = ap.sockets[0], {}
    assert sock.clos == []
    for pid in range(4):
        (rec,) = ap.ipca_batch(float(pid), [(pid, 0.0, 2, MIB, REUSE, 1.0)])
        assert rec.clos == pid and len(sock.clos) == pid + 1
        check_invariants(ap, socket_of)
    ap.release_process(4.0, 2)
    ap.release_process(5.0, 1)
    check_invariants(ap, socket_of)
    assert [r.clos for r in ap.ipca_batch(6.0, [(pid, 0.0, 2, MIB, REUSE, 1.0) for pid in (4, 5)])] == [1, 2]
    check_invariants(ap, socket_of)
    with raises_fault("no socket has a free core or CLOS seat"):
        ap.ipca_batch(7.0, [(6, 0.0, 2, MIB, REUSE, 1.0)])
    assert [c.clos_id for c in sock.clos] == [0, 1, 2, 3]


# -- cost pins: each operation pays only for what it decides ----------------

def test_an_apportioner_builds_no_clos_before_an_admission(monkeypatch):
    built = []
    real = apportion.ClosState.__init__

    def counting(self, *args, **kw):
        built.append(args)
        real(self, *args, **kw)

    monkeypatch.setattr(apportion.ClosState, "__init__", counting)
    Apportioner(SystemConfig())
    assert built == []


def test_an_uncrowded_batch_with_free_windows_reads_no_alpha(monkeypatch):
    # four reuse arrivals of equal mass each want 3 of 11 ways; each finds a
    # free window, the last one the 2 ways left
    calls = []
    real = Apportioner._clos_alpha
    monkeypatch.setattr(Apportioner, "_clos_alpha", lambda self, c: calls.append(c.clos_id) or real(self, c))
    ap = Apportioner(one_socket())
    recs = ap.ipca_batch(0.0, [(pid, 1.0, 11, MIB, REUSE, 1.0) for pid in range(4)])
    assert [r.bitmask for r in recs] == [0x7, 0x38, 0x1C0, 0x600]
    assert calls == []


def test_an_operation_that_moves_no_mask_reads_no_scenario(monkeypatch):
    # a phase change to the same footprint, and a release that leaves its
    # CLOS a member, keep the socket's scenario; one that grows a mask
    # reads it again
    ap = Apportioner(one_socket(gfactor=2))
    ap.ipca_batch(0.0, [(pid, 0.0, 11, MIB, STREAM, 1.0) for pid in range(3)])
    assert clos_of(ap, 0) is clos_of(ap, 1)
    calls = []
    real = Apportioner._scenario
    monkeypatch.setattr(Apportioner, "_scenario", lambda self, sock: calls.append(sock.sid) or real(self, sock))
    quiet = [ap.pcca(1.0, 2, MIB, STREAM, 1.0), ap.release_process(2.0, 1)]
    assert [(r.changed, r.scenario) for r in quiet] == [(False, Scenario.UNDERUTILIZED)] * 2
    assert calls == []
    check_invariants(ap, {})
    assert ap.pcca(3.0, 2, 40 * MIB, REUSE, 1.0).changed and calls == [0]


def test_an_admission_that_moves_no_mask_reads_no_scenario(monkeypatch):
    # two stream arrivals of one demand: the first takes a fresh CLOS and
    # reads the scenario, the second joins that CLOS, moves no mask and
    # reads none, while its record still counts as changed
    ap = Apportioner(one_socket())
    calls = []
    real = Apportioner._scenario
    monkeypatch.setattr(Apportioner, "_scenario", lambda self, sock: calls.append(len(self.records)) or real(self, sock))
    recs = ap.ipca_batch(0.0, [(pid, 0.0, 11, MIB, STREAM, 1.0) for pid in range(2)])
    assert [(r.clos, r.changed, r.scenario) for r in recs] == [(0, True, Scenario.UNDERUTILIZED)] * 2
    assert calls == [0]
    assert ap.apportion_count == 2
    check_invariants(ap, {})


def test_choosing_sockets_reads_only_socket_0s_free_ways(monkeypatch):
    # only socket 0's free ways steer a pick, so a two-socket batch reads
    # no other socket's before it seats its first arrival
    reads, seated = [], []
    real_free, real_place = apportion.SocketState.free_ways, Apportioner._place
    monkeypatch.setattr(apportion.SocketState, "free_ways",
                        property(lambda sock: reads.append((sock.sid, len(seated))) or real_free.fget(sock)))
    monkeypatch.setattr(Apportioner, "_place", lambda self, sock, p: seated.append(p.pid) or real_place(self, sock, p))
    ap = Apportioner(SystemConfig())
    # alpha 2 asks for socket 0 while it has more than 3 free ways left
    ap.ipca_batch(0.0, [(pid, 2.0, 3, MIB, REUSE, 1.0) for pid in range(4)])
    assert [ap.procs[pid].socket_id for pid in range(4)] == [0, 0, 0, 1]
    assert [sid for sid, n in reads if n == 0] == [0]


def test_admissions_that_move_no_mask_keep_the_scenario(monkeypatch):
    # small groups on few CLOS, so that many arrivals join or overflow into
    # a CLOS without moving a mask; `check_invariants` compares each
    # socket's kept scenario with its masks after every operation
    quiet = []
    real = Apportioner._place

    def place(self, sock, p):
        clos, moved = real(self, sock, p)
        quiet.append(not moved)
        return clos, moved

    monkeypatch.setattr(Apportioner, "_place", place)
    for seed in range(60):
        rng = random.Random(seed)
        op_stream(Apportioner(SystemConfig(
            sockets=rng.choice([1, 2]),
            cores_per_socket=rng.randint(4, 12),
            clos_per_socket=rng.randint(1, 4),
            ways_per_socket=rng.choice([4, 11]),
            gfactor=rng.randint(2, 4),
        )), rng)
    assert sum(quiet) > 100 and len(quiet) - sum(quiet) > 100


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
        if sock.processes:
            fr = cache_fractions(
                [(a[0], a[3], a[4]) for a in arrivals if a[0] in sock.processes]
            )
            assert sum(fr.values()) == 1

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


def test_engine_invariants_over_small_reuse_pairs():
    # every pair of reuse phases of 1..30 bytes on one socket, so the exact
    # ties a float share rounds wrongly (15 + 7 on 11 ways) are among them
    for ways in (11, 20):
        cfg = one_socket(ways_per_socket=ways)
        for a in range(1, 31):
            for b in range(1, 31):
                ap = Apportioner(cfg)
                ap.ipca_batch(0.0, [(0, 0.0, ways, a, REUSE, 1.0), (1, 0.0, ways, b, REUSE, 1.0)])
                check_invariants(ap, {})


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=False))
def test_moved_names_each_clos_an_operation_changed(rng):
    cfg = SystemConfig(
        sockets=rng.choice([1, 2]),
        cores_per_socket=rng.randint(2, 8),
        clos_per_socket=rng.randint(1, 4),
        ways_per_socket=rng.choice([4, 11]),
        gfactor=rng.randint(1, 3),
    )
    op_stream(Apportioner(cfg), rng, checking_moved)


def op_stream(ap, rng, wrap=lambda method: method):
    """5-40 random admissions, phase changes and releases on `ap`, each
    Apportioner method passed through `wrap`, checking the invariants after
    every operation."""
    ipca, pcca, release = (
        wrap(getattr(Apportioner, op)) for op in ("ipca_batch", "pcca", "release_process")
    )
    t, next_pid, socket_of = 0.0, 0, {}
    for _ in range(rng.randint(5, 40)):
        t += rng.uniform(1.0, 1e8)
        room = sum(s.free_cores for s in ap.sockets)
        kind = rng.random()
        if room and (kind < 0.3 or not ap.procs):
            n = rng.randint(1, min(3, room))
            ipca(ap, t, [
                (next_pid + k, rng.choice([0.0, 0.5, 2.0, 8.0]), rng.randint(2, 5),
                 rng.randint(0, 8) * MIB, rng.choice([REUSE, STREAM]), rng.uniform(1e6, 1e9))
                for k in range(n)
            ])
            next_pid += n
        elif kind < 0.5:
            release(ap, t, rng.choice(sorted(ap.procs)))
        else:
            pcca(ap, t, rng.choice(sorted(ap.procs)), rng.randint(0, 8) * MIB,
                 rng.choice([REUSE, STREAM]), rng.uniform(1e6, 1e9))
        check_invariants(ap, socket_of)
