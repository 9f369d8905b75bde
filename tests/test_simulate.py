"""Engine-level tests: every completion time asserted here was traced by hand
with power-of-two phase times so the arithmetic is exact in floats."""

import copy
import glob
import os
import random
from dataclasses import replace
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from cacheways import simulate
from cacheways.apportion import ReuseClass, SystemConfig
from cacheways.errors import SchemaError
from cacheways.formats import read_mix
from cacheways.sensitivity import WayTimeCurve
from cacheways.simulate import (
    MixSpec,
    PhaseSpec,
    Policy,
    ProcessSpec,
    effective_ways,
    mix_config,
    phase_speed,
    process_sensitivity,
    run_mix,
    run_unmixed,
    validate_mix,
)
from oracles import (
    brute_effective_ways,
    brute_refresh,
    is_contiguous,
    process_sensitivity_reference,
    settle_every_run_mix,
)
from support import raises_fault, way_time_curve

MIB = 1 << 20


def phase(tag, nbytes, curve, work=1.0, reuse=ReuseClass.REUSE):
    return PhaseSpec(tag, work, reuse, nbytes, way_time_curve(curve), fixed_ns=0.0)


def mix_of(*procs, name="t", category="light", **overrides):
    return MixSpec(
        name=name, category=category, processes=tuple(procs),
        config_overrides=dict(overrides),
    )


# -- small pieces -----------------------------------------------------------

def test_phase_speed_one_way_pays_dm_penalty():
    ph = phase("p", MIB, {2: 400.0})
    assert simulate.DM_PENALTY == 1.25
    assert phase_speed(ph, 2) == 1.0 / 400.0
    assert phase_speed(ph, 1) == 1.0 / 500.0


def test_phase_speed_rejects_zero_ways():
    with raises_fault("ways must be >= 1"):
        phase_speed(phase("p", MIB, {2: 400.0}), 0)


def test_effective_ways_splits_reuse_only():
    # (mask, reuse claims per way, reuse?, expected effective ways)
    full11, full6 = (1 << 11) - 1, (1 << 6) - 1
    cases = [
        (full11, [1] * 11, True, 11),
        (full11, [2] * 11, True, 5),
        (full11, [3] * 11, True, 3),
        # streams see the full mask, and do not dilute the reuse share
        (full11, [1] * 11, False, 11),
        (full11, [0] * 11, False, 11),
        # never below one way
        (0x1, [3], True, 1),
        # exact floors where a float sum of 1/k lands just below the integer
        (full6, [3] * 6, True, 2),
        ((1 << 10) - 1, [5] * 10, True, 2),
        ((1 << 14) - 1, [7] * 14, True, 2),
        ((1 << 15) - 1, [3] * 15, True, 5),
        # a partial overlap: one way alone plus three shared by two -> 2.5
        (0xF0, [0, 0, 0, 0, 1, 2, 2, 2, 0, 0, 0], True, 2),
    ]
    for mask, claims, reuse, expected in cases:
        assert effective_ways(mask, claims, reuse) == expected, (mask, claims, reuse)


def test_effective_ways_requires_membership():
    # a reuse phase is itself a claimant of every way it holds
    with raises_fault("has no reuse claim"):
        effective_ways(0x3, [1, 0], True)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_effective_ways_matches_exact_sum(data):
    # a window, as every policy places, or any non-empty set of ways: one
    # with a gap is no CAT mask and is rejected
    ways = data.draw(st.integers(2, 20))
    if data.draw(st.booleans()):
        width = data.draw(st.integers(1, ways))
        mask = ((1 << width) - 1) << data.draw(st.integers(0, ways - width))
    else:
        mask = data.draw(st.integers(1, (1 << ways) - 1))
    claims = data.draw(st.lists(st.integers(1, 40), min_size=ways, max_size=ways))
    if is_contiguous(mask):
        assert effective_ways(mask, claims, True) == brute_effective_ways(mask, claims)
    else:
        with raises_fault("is not one run of ways"):
            effective_ways(mask, claims, True)


@pytest.mark.parametrize("reuse", [False, True])
def test_effective_ways_rejects_a_mask_past_its_claims(reuse):
    with raises_fault(r"mask 0x4 is not one run of ways below way 2"):
        effective_ways(0b100, [1, 1], reuse)


def test_run_unmixed_sums_full_width_times():
    p = ProcessSpec(
        pid=0,
        phases=(phase("a", MIB, {2: 100.0}), phase("b", MIB, {2: 2048.0, 11: 1024.0})),
    )
    assert run_unmixed(p) == 100.0 + 1024.0


def test_mix_config_overrides():
    m = mix_of(ProcessSpec(pid=0, phases=(phase("a", MIB, {2: 1.0}),)),
               ways_per_socket=12, sockets=1)
    cfg = mix_config(m)
    assert cfg.ways_per_socket == 12
    assert cfg.sockets == 1
    base = SystemConfig(gfactor=2)
    assert mix_config(mix_of(ProcessSpec(pid=0, phases=())), base).gfactor == 2


# -- validation ------------------------------------------------------------

def test_validate_mix_rejects_bad_category():
    m = mix_of(ProcessSpec(pid=0, phases=(phase("a", MIB, {2: 1.0}),)))
    m.category = "enormous"
    with raises_fault("category"):
        validate_mix(m)


def test_validate_mix_rejects_empty_and_duplicates():
    with raises_fault("no processes"):
        validate_mix(MixSpec(name="m", category="light", processes=()))
    p = ProcessSpec(pid=3, phases=(phase("a", MIB, {2: 1.0}),))
    with raises_fault("duplicate pid"):
        validate_mix(mix_of(p, p))
    with raises_fault("no phases"):
        validate_mix(mix_of(ProcessSpec(pid=0, phases=())))
    for work in (0.0, float("nan"), float("inf")):
        bad = ProcessSpec(pid=0, phases=(phase("a", MIB, {2: 1.0}, work=work),))
        with raises_fault("work"):
            validate_mix(mix_of(bad))
    late = ProcessSpec(pid=0, phases=(phase("a", MIB, {2: 1.0}),), start_ns=float("nan"))
    with raises_fault("start"):
        validate_mix(mix_of(late))


def test_policy_validation():
    with raises_fault("unknown policy 'roundrobin'"):
        Policy("roundrobin")
    for bad in (0.0, -5.0, float("nan"), float("inf")):
        with raises_fault("interval"):
            Policy("reactive", interval_ns=bad)
    assert Policy("reactive").interval_ns == 5e8


# -- process-level sensitivity ----------------------------------------------

def test_process_sensitivity_explicit_wins():
    p = ProcessSpec(
        pid=0, phases=(phase("a", MIB, {2: 1.0}),), alpha=7.5, max_ways=9
    )
    assert process_sensitivity(p, SystemConfig()) == (7.5, 9)


def test_process_sensitivity_derived_from_curve():
    p = ProcessSpec(
        pid=0,
        phases=(phase("a", MIB, {2: 200.0, 3: 112.0, 4: 102.0, 5: 100.0}),),
    )
    alpha, mw = process_sensitivity(p, SystemConfig())
    assert mw == 4
    assert alpha == pytest.approx(98.0, rel=1e-12)


def test_process_sensitivity_sums_phase_curves():
    p = ProcessSpec(
        pid=0,
        phases=(
            phase("a", MIB, {2: 100.0}),
            phase("b", MIB, {2: 100.0, 3: 50.0, 11: 50.0}),
        ),
    )
    alpha, mw = process_sensitivity(p, SystemConfig())
    assert mw == 3
    assert alpha == pytest.approx(50.0, rel=1e-12)


def test_process_sensitivity_partial_override():
    p = ProcessSpec(
        pid=0,
        phases=(phase("a", MIB, {2: 200.0, 3: 112.0, 4: 102.0, 5: 100.0}),),
        alpha=7.5,
    )
    assert process_sensitivity(p, SystemConfig()) == (7.5, 4)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=False))
def test_process_sensitivity_matches_reference(rnd):
    # sparse and dense phase curves shorter or longer than the socket, with
    # neither, either or both of alpha and max-ways given (max-ways also
    # outside 2..W); the one-pass column sums give the per-point sums' floats
    ways = rnd.randint(2, 16)
    phases = []
    for k in range(rnd.randint(1, 4)):
        t, pts = rnd.uniform(1e3, 1e9), {}
        for w in [2] + sorted(rnd.sample(range(3, 20), rnd.randint(0, 6))):
            pts[w] = t
            t *= 1 - rnd.uniform(0.0, 0.4)
        phases.append(phase("p%d" % k, MIB, pts))
    p = ProcessSpec(
        pid=0, phases=tuple(phases),
        alpha=rnd.choice((None, rnd.uniform(0.0, 10.0))),
        max_ways=rnd.choice((None, rnd.randint(1, ways + 3))),
    )
    cfg = SystemConfig(ways_per_socket=ways)
    assert process_sensitivity(p, cfg) == process_sensitivity_reference(p, cfg)


def test_process_sensitivity_checks_the_summed_times():
    # each phase's time rises from 2 to 3 ways by just under the tolerance,
    # so both curves parse, but their rounded sums rise by just over it: the
    # summed table fails the curve's own rule, at the same w and in the
    # same words
    p = ProcessSpec(pid=0, phases=(
        phase("a", MIB, {2: 7.873971570789526, 3: 7.873979444761096}),
        phase("b", MIB, {2: 3.2956212316547955, 3: 3.295624527276027}),
    ))
    with pytest.raises(SchemaError, match=r"^curve time increases at w=3$"):
        process_sensitivity(p, SystemConfig())
    with pytest.raises(SchemaError, match=r"^curve time increases at w=3$"):
        process_sensitivity_reference(p, SystemConfig())


@pytest.mark.parametrize("kind", ["comcas", "unpartitioned", "maxways", "reactive"])
def test_a_run_builds_no_curve_after_parsing(monkeypatch, kind):
    # sensitivity is read off the summed table itself, not a curve built
    # and validated around it
    procs = [
        ProcessSpec(pid=pid, phases=tuple(phase("p%d.%d" % (pid, k), MIB, {2: 256.0, 4: 128.0}) for k in range(4)))
        for pid in range(3)
    ]
    built = []
    real = WayTimeCurve.__post_init__

    def counting(self):
        built.append(self.points)
        real(self)

    monkeypatch.setattr(WayTimeCurve, "__post_init__", counting)
    run_mix(mix_of(*procs, sockets=1), Policy(kind))
    assert built == []


@pytest.mark.parametrize("kind, calls", [
    ("unpartitioned", 0), ("comcas", 3), ("maxways", 3), ("reactive", 3),
])
def test_only_policies_that_read_sensitivity_derive_it(monkeypatch, kind, calls):
    # unpartitioned reads neither alpha nor max-ways; the others derive the
    # pair once per process, before the first event
    seen = []
    real = simulate.process_sensitivity

    def counting(proc, config):
        seen.append(proc.pid)
        return real(proc, config)

    monkeypatch.setattr(simulate, "process_sensitivity", counting)
    procs = [
        ProcessSpec(pid=pid, phases=tuple(phase("p%d.%d" % (pid, k), MIB, {2: 256.0, 4: 128.0}) for k in range(4)))
        for pid in range(3)
    ]
    run_mix(mix_of(*procs, sockets=1), Policy(kind))
    assert sorted(seen) == list(range(calls))


# -- engine: unpartitioned ---------------------------------------------------

def two_proc_unpartitioned(reuse1=ReuseClass.REUSE):
    p0 = ProcessSpec(
        pid=0, phases=(phase("p0", MIB, {2: 256.0}),), alpha=0.0, max_ways=2
    )
    p1 = ProcessSpec(
        pid=1,
        phases=(phase("p1", MIB, {2: 1024.0, 5: 1024.0, 11: 512.0}, reuse=reuse1),),
        alpha=0.0,
        max_ways=2,
    )
    return mix_of(p0, p1, sockets=1)


def test_unpartitioned_reuse_pair_splits_then_rescales():
    # both reuse: 11 // 2 = 5 effective ways each; p0 ends at 256, after
    # which p1 owns the socket: remaining work 0.75 at t(11)=512 -> 640.
    rep = run_mix(two_proc_unpartitioned(), Policy("unpartitioned"))
    assert rep.completions == {0: 256.0, 1: 640.0}
    assert rep.end_time == 640.0
    assert rep.unmixed == {0: 256.0, 1: 512.0}
    assert rep.records == []


def test_unpartitioned_stream_sees_full_width():
    # p1 streams: it runs at t(11)=512 from the start and p0's reuse share
    # is undiluted (one reuse member).
    rep = run_mix(two_proc_unpartitioned(ReuseClass.STREAM), Policy("unpartitioned"))
    assert rep.completions == {0: 256.0, 1: 512.0}


def test_unpartitioned_staggered_start():
    p0 = ProcessSpec(pid=0, phases=(phase("a", MIB, {2: 512.0}),), alpha=0.0, max_ways=2)
    p1 = ProcessSpec(
        pid=1, phases=(phase("b", MIB, {2: 512.0}),), start_ns=100.0,
        alpha=0.0, max_ways=2,
    )
    rep = run_mix(mix_of(p0, p1, sockets=1), Policy("unpartitioned"))
    # flat curves: the split changes nothing; p1 finishes 512 after joining
    assert rep.completions == {0: 512.0, 1: 512.0}
    assert rep.end_time == 612.0


@pytest.mark.parametrize("kind", sorted(simulate._POLICIES))
def test_admission_queue_respects_core_capacity(kind):
    procs = [
        ProcessSpec(pid=i, phases=(phase("p%d" % i, MIB, {2: t}),),
                    alpha=0.0, max_ways=2)
        for i, t in ((0, 256.0), (1, 512.0), (2, 1024.0))
    ]
    rep = run_mix(mix_of(*procs, sockets=1, cores_per_socket=1), Policy(kind))
    # one core: the three run back to back; completions count from each
    # process's arrival at t=0, so the waits for the core count too
    assert rep.completions == {0: 256.0, 1: 768.0, 2: 1792.0}
    assert rep.end_time == 256.0 + 512.0 + 1024.0


# -- engine: comcas -----------------------------------------------------------

def comcas_mix():
    p0 = ProcessSpec(
        pid=0,
        phases=(
            phase("p0a", 2 * MIB, {2: 512.0}),
            phase("p0b", 8 * MIB, {2: 2048.0, 3: 1024.0, 11: 1024.0}),
        ),
        alpha=1.0,
        max_ways=4,
    )
    p1 = ProcessSpec(
        pid=1, phases=(phase("p1", 6 * MIB, {2: 2048.0}),), alpha=1.0, max_ways=8
    )
    return mix_of(p0, p1, sockets=1)


def test_comcas_phase_change_blocked_then_completes():
    # t=0: shares 0.25/0.75 -> pid0 [0..2], pid1 [3..10].
    # t=512: pid0 enters an 8MiB phase, wants 4 ways but both neighbours are
    # walls: the re-apportion is recorded unchanged and unsatisfied, and the
    # phase runs at 3 ways: t(3)=1024 -> done at 1536.  pid1 is untouched.
    rep = run_mix(comcas_mix(), Policy("comcas"))
    assert rep.completions == {0: 1536.0, 1: 2048.0}
    assert rep.end_time == 2048.0
    assert [r.event for r in rep.records] == [
        "ipca", "ipca", "pcca", "release", "release",
    ]
    pcca = rep.records[2]
    assert pcca.time_ns == 512.0
    assert pcca.changed is False
    assert pcca.satisfied is False
    assert pcca.bitmask == 0x007
    assert rep.apportion_count == 2
    assert rep.max_clos_group_size == 1
    assert rep.warnings == []


def test_comcas_release_records_tail():
    rep = run_mix(comcas_mix(), Policy("comcas"))
    rel0, rel1 = rep.records[3], rep.records[4]
    assert (rel0.pid, rel0.time_ns) == (0, 1536.0)
    assert (rel1.pid, rel1.time_ns) == (1, 2048.0)
    assert rel0.granted_ways == 0 and rel1.granted_ways == 0
    assert rel0.scenario.value == "underutilized"


# -- engine: maxways static ---------------------------------------------------

def test_maxways_static_overlap_contention():
    mk = lambda pid, mw, curve: ProcessSpec(
        pid=pid, phases=(phase("p%d" % pid, MIB, curve),), alpha=0.5, max_ways=mw
    )
    m = mix_of(
        mk(0, 4, {2: 512.0}),
        mk(1, 4, {2: 1024.0}),
        mk(2, 6, {2: 2048.0, 4: 1024.0, 6: 512.0, 11: 512.0}),
        sockets=1,
    )
    rep = run_mix(m, Policy("maxways"))
    # placements [0..3], [4..7], [5..10]: pid1 keeps 1 + 3/2 -> 2 effective
    # ways, pid2 3/2 + 3 -> 4; flat curves make pid0/pid1 insensitive and
    # pid2 lands on its observed t(4)=1024.
    assert rep.completions == {0: 512.0, 1: 1024.0, 2: 1024.0}
    assert rep.records == []


@pytest.mark.parametrize("ways, sharers", [(6, 3), (10, 5), (14, 7), (15, 3)])
def test_maxways_full_mask_sharers_match_unpartitioned(ways, sharers):
    # every process holds all the ways, so each gets exactly ways // sharers
    # of them under both policies; t(k) = 1024 at k = ways // sharers, and
    # one way fewer is slower
    k = ways // sharers
    curve = {2: 1024.0} if k == 2 else {2: 2048.0, k: 1024.0}
    procs = [
        ProcessSpec(pid=i, phases=(phase("p%d" % i, MIB, curve),), alpha=1.0, max_ways=ways)
        for i in range(sharers)
    ]
    m = mix_of(*procs, sockets=1, ways_per_socket=ways)
    expected = {i: 1024.0 for i in range(sharers)}
    assert run_mix(m, Policy("maxways")).completions == expected
    assert run_mix(m, Policy("unpartitioned")).completions == expected


# -- engine: reactive ---------------------------------------------------------

def reactive_mix():
    p0 = ProcessSpec(
        pid=0,
        phases=(phase("p0", MIB, {2: 1024.0, 5: 1024.0, 6: 512.0, 11: 512.0}),),
        alpha=1.0,
        max_ways=11,
    )
    p1 = ProcessSpec(
        pid=1, phases=(phase("p1", MIB, {2: 4096.0}),), alpha=0.0, max_ways=2
    )
    return mix_of(p0, p1, sockets=1)


def test_reactive_ticks_migrate_ways_one_at_a_time():
    # equal split gives 5/6 (the remainder goes to the later pid); each 100ns
    # tick moves one way from the insensitive donor to pid0: widths reach
    # 10/1 at t=500, where pid1 starts paying the one-way penalty
    # (t = 4096 * 1.25).  pid0 finishes at 562, pid1 at 4995.
    rep = run_mix(reactive_mix(), Policy("reactive", interval_ns=100.0))
    assert rep.completions == {0: 562.0, 1: 4995.0}
    widths_seen = [
        {pid: w for pid, (_, _, w) in snap.items()}
        for _, snap in rep.width_timeline
    ]
    assert {0: 5, 1: 6} in widths_seen
    assert {0: 10, 1: 1} in widths_seen


def test_reactive_release_keeps_widths():
    # after pid0 finishes, pid1 is alone but never re-split: it stays at
    # width 1 (no deficiency signal with alpha 0), so ticks change nothing
    # until its own release empties the final snapshot
    rep = run_mix(reactive_mix(), Policy("reactive", interval_ns=100.0))
    t_last, last = rep.width_timeline[-1]
    assert (t_last, last) == (4995.0, {})
    t_prev, prev = rep.width_timeline[-2]
    assert t_prev == 562.0
    assert prev == {1: (0.0, 2, 1)}


def test_reactive_floor_gives_every_process_one_way():
    # five processes on three ways: each holds one way, pids 0/3 and 1/4
    # share theirs, and all run at the one-way penalty t(2) * 1.25 = 500.
    # They all want more, but no way is free and no donor holds two.
    procs = [
        ProcessSpec(pid=i, phases=(phase("p%d" % i, MIB, {2: 400.0}),), alpha=1.0, max_ways=3)
        for i in range(5)
    ]
    m = mix_of(*procs, sockets=1, ways_per_socket=3)
    rep = run_mix(m, Policy("reactive", interval_ns=100.0))
    assert rep.completions == {i: 500.0 for i in range(5)}
    assert rep.width_timeline[0] == (0.0, {i: (1.0, 3, 1) for i in range(5)})


def idle_gap_mix(start_ns, with_blip=True):
    """pids 1 and 2 start together at `start_ns`; pid 9, when present, runs
    one 100 ns phase at t=0 and leaves the engine idle until then."""
    procs = [
        ProcessSpec(pid=1, phases=(phase("a", MIB, {2: 4e9, 10: 1e9}, work=1e9),), start_ns=start_ns),
        ProcessSpec(pid=2, phases=(phase("b", MIB, {2: 1e9}, work=1e9),), start_ns=start_ns),
    ]
    if with_blip:
        procs.append(ProcessSpec(pid=9, phases=(phase("z", MIB, {2: 100.0}, work=100.0),)))
    return mix_of(*procs, sockets=1)


def test_reactive_clock_resumes_after_idle_gap():
    # after the gap the next tick is the first 500 ms grid point after 5e9,
    # so time never runs backwards and every completion is positive
    rep = run_mix(idle_gap_mix(5e9), Policy("reactive"))
    assert all(done > 0 for done in rep.completions.values())
    times = [t for t, _ in rep.width_timeline]
    assert times == sorted(times)
    # shifting the starts by ten whole intervals shifts only the times
    late = run_mix(idle_gap_mix(5e9, with_blip=False), Policy("reactive"))
    early = run_mix(idle_gap_mix(0.0, with_blip=False), Policy("reactive"))
    assert early.completions[1] == pytest.approx(2.1445e9, rel=1e-4)
    assert early.completions[2] == 1e9
    for pid in (1, 2):
        assert late.completions[pid] == pytest.approx(early.completions[pid], rel=1e-9)
        assert rep.completions[pid] == late.completions[pid]


MIXDIR = os.path.join(os.path.dirname(__file__), os.pardir, "mixes")


def late_start_mix(curve0):
    """pid 0 from t=0 and pid 1, insensitive, from 12345.678 ns to its
    release at 1012345.678 ns; a grid of 1e-14 ns is far finer than the
    float spacing at either instant."""
    return mix_of(
        ProcessSpec(pid=0, phases=(phase("a", MIB, curve0),)),
        ProcessSpec(pid=1, phases=(phase("b", MIB, {2: 1e6}),), start_ns=12345.678),
        sockets=1,
    )


@pytest.mark.parametrize("mix", [
    *(pytest.param(read_mix(path), id=os.path.basename(path)[: -len(".mix")])
      for path in sorted(glob.glob(os.path.join(MIXDIR, "*", "*.mix")))),
    pytest.param(late_start_mix({2: 4e6, 10: 1e6}), id="late-start-sensitive"),
    pytest.param(late_start_mix({2: 4e6}), id="late-start-insensitive"),
])
def test_reactive_at_an_interval_finer_than_the_float_spacing_ends(monkeypatch, mix):
    # a restart ticks at its own time when the next grid point rounds to it
    # or below, and a tick that changed a mask is progress even though the
    # next grid point is the same float; so the run ends, and its clock
    # never runs backwards
    seen = []
    for name in ("admit", "release", "tick"):
        real = getattr(simulate._Reactive, name)
        monkeypatch.setattr(simulate._Reactive, name,
                            lambda self, t, *rest, _real=real: seen.append(t) or _real(self, t, *rest))
    rep = run_mix(mix, Policy("reactive", interval_ns=1e-14))
    assert seen == sorted(seen)
    times = [t for t, _ in rep.width_timeline]
    assert times == sorted(times)


def test_reactive_restarts_late_at_an_interval_past_the_float_range():
    # 1e20 ns holds more than the float range of 1e-294 ns grid points, so
    # the restart ticks at 1e20 itself, and each tick there moves a way
    # from the insensitive pid 1 to pid 0 until pid 1 holds one
    late = [ProcessSpec(pid=pid, phases=(phase("a", MIB, curve),), start_ns=1e20)
            for pid, curve in enumerate(({2: 4e10, 10: 1e10}, {2: 1e10}))]
    rep = run_mix(mix_of(*late, sockets=1), Policy("reactive", interval_ns=1e-294))
    widths = [(rows[0][2], rows[1][2]) for t, rows in rep.width_timeline if t == 1e20]
    assert widths == [(w, 11 - w) for w in range(5, 11)]
    assert sorted(rep.completions) == [0, 1]


def test_event_cost_follows_the_touched_socket(monkeypatch):
    # pid 1's fifty phase changes touch socket 1 only, so pid 0's one long
    # phase on socket 0 is evaluated once, at its admission
    calls = []
    real = simulate.phase_speed

    def counting(ph, ways):
        calls.append(ph.phase_id)
        return real(ph, ways)

    monkeypatch.setattr(simulate, "phase_speed", counting)
    long = ProcessSpec(pid=0, phases=(phase("long", MIB, {2: 2.0 ** 20}),))
    short = ProcessSpec(pid=1, phases=tuple(phase("s%d" % k, MIB, {2: 128.0}) for k in range(50)))
    rep = run_mix(mix_of(long, short, sockets=2, cores_per_socket=1), Policy("unpartitioned"))
    assert rep.completions == {1: 50 * 128.0, 0: 2.0 ** 20}
    assert calls.count("long") == 1


def test_phase_change_cost_follows_the_claimed_ways(monkeypatch):
    # pid 0 holds ways 0-3 and pid 1 ways 4-7 of one socket; pid 1's phases
    # flip between reuse and stream, which moves claims on its ways only.  So
    # refresh hands back pid 0 only at its admission, pid 1 at its admission
    # and at each of its 49 phase changes, and nothing at the two releases;
    # and the rule is evaluated once per (mask, claims) state: every reuse
    # phase of pid 1 sees the claims of the first
    calls, handed = [], []
    real_rule, real_refresh = simulate.effective_ways, simulate._Placement.refresh

    def counting(mask, claims, reuse):
        calls.append((mask, tuple(claims)))
        return real_rule(mask, claims, reuse)

    def watched(self, is_reuse):
        out = real_refresh(self, is_reuse)
        handed.append(sorted(out))
        return out

    monkeypatch.setattr(simulate, "effective_ways", counting)
    monkeypatch.setattr(simulate._Placement, "refresh", watched)
    long = ProcessSpec(pid=0, phases=(phase("long", MIB, {2: 2.0 ** 20}),), alpha=1.0, max_ways=4)
    flips = tuple(
        phase("s%d" % k, MIB, {2: 128.0}, reuse=(ReuseClass.REUSE, ReuseClass.STREAM)[k % 2])
        for k in range(50)
    )
    short = ProcessSpec(pid=1, phases=flips, alpha=1.0, max_ways=4)
    rep = run_mix(mix_of(long, short, sockets=1), Policy("maxways"))
    assert rep.completions == {1: 50 * 128.0, 0: 2.0 ** 20}
    assert handed == [[0, 1]] + [[1]] * 49 + [[], []]
    both = (1,) * 8 + (0,) * 3
    assert sorted(calls) == [(0x00F, both), (0x0F0, both)]


def test_a_flip_that_moves_no_group_ways_walks_no_resident(monkeypatch):
    # one unpartitioned socket: pids 0-11 reuse through one long phase and
    # pid 12's 50 short phases flip between stream and reuse.  Twelve or
    # thirteen reuse holders of the full 11-way mask each get max(1,
    # floor(11/n)) = 1 way, so the group's ways never change: each phase
    # change hands back pid 12 alone, and no refresh walks the socket's
    # pids.  One way takes t(2) x 1.25: pid 12's reuse phases 160 ns, its
    # stream phases 128, and a resident's work of 1.25 keeps its speed 2^-20
    handed = []
    real_init, real_refresh = simulate._Placement.__init__, simulate._Placement.refresh

    class Walked(list):
        walks = 0

        def __iter__(self):
            Walked.walks += 1
            return super().__iter__()

    def init(self, config):
        real_init(self, config)
        self.pids = [Walked() for _ in self.pids]

    def watched(self, is_reuse):
        out = real_refresh(self, is_reuse)
        handed.append(sorted(out))
        return out

    monkeypatch.setattr(simulate._Placement, "__init__", init)
    monkeypatch.setattr(simulate._Placement, "refresh", watched)
    residents = [ProcessSpec(pid=pid, phases=(phase("long%d" % pid, MIB, {2: 2.0 ** 20}, work=1.25),))
                 for pid in range(12)]
    flips = tuple(
        phase("f%d" % k, MIB, {2: 128.0}, reuse=(ReuseClass.STREAM, ReuseClass.REUSE)[k % 2])
        for k in range(50)
    )
    mix = mix_of(*residents, ProcessSpec(pid=12, phases=flips), sockets=1)
    rep = run_mix(mix, Policy("unpartitioned"))
    assert rep.completions == {12: 25 * 128.0 + 25 * 160.0, **{pid: 1.25 * 2.0 ** 20 for pid in range(12)}}
    assert handed == [list(range(13))] + [[12]] * 49 + [[], []]
    assert Walked.walks == 0


@pytest.mark.parametrize("kind", ("unpartitioned", "maxways"))
def test_an_event_reanchors_only_the_runs_it_changed(monkeypatch, kind):
    # n long streams start at 0 and pid n, 200 short phases that flip
    # between reuse and stream, at 1 ns.  A stream sees its whole mask, so
    # no phase change of pid n moves a stream's speed: after the n pushes
    # of the streams' ends at 0, only pid n re-anchors and pushes its end,
    # once per phase, however large n is
    pushed = []
    real = simulate.heappush

    def counting(heap, entry):
        pushed.append(entry[1])
        real(heap, entry)

    monkeypatch.setattr(simulate, "heappush", counting)
    for n in (1, 64):
        pushed.clear()
        streams = [
            ProcessSpec(pid=pid, phases=(phase("long%d" % pid, MIB, {2: 2.0 ** 20}, reuse=ReuseClass.STREAM),))
            for pid in range(n)
        ]
        flips = tuple(
            phase("f%d" % k, MIB, {2: 64.0}, reuse=(ReuseClass.REUSE, ReuseClass.STREAM)[k % 2])
            for k in range(200)
        )
        mix = mix_of(*streams, ProcessSpec(pid=n, phases=flips, start_ns=1.0), sockets=1, cores_per_socket=65)
        rep = run_mix(mix, Policy(kind))
        assert rep.completions == {n: 200 * 64.0, **{pid: 2.0 ** 20 for pid in range(n)}}
        assert sorted(pushed[:n]) == list(range(n))
        assert pushed[n:] == [n] * 200


def shrinking_mix():
    """Two 6 MiB processes around pid 1, whose footprint drops to 0.25 MiB
    at its first phase change and stays there at its second."""
    big = [ProcessSpec(pid=pid, phases=(phase("long%d" % pid, 6 * MIB, {2: 1024.0}),), alpha=1.0, max_ways=11)
           for pid in (0, 2)]
    short = ProcessSpec(pid=1, alpha=1.0, max_ways=11, phases=(
        phase("a", 6 * MIB, {2: 128.0}), phase("b", MIB // 4, {2: 128.0}), phase("c", MIB // 4, {2: 128.0}),
    ))
    return mix_of(big[0], short, big[1], sockets=1)


def test_comcas_phase_change_reads_back_only_the_clos_that_moved(monkeypatch):
    # t=0: three 6 MiB shares of one 11-way socket want 4 ways each: pid 0
    # holds 0x00f, pid 1 0x0f0 and pid 2 the 3 ways left, 0x700.  t=128:
    # pid 1 drops to 0.25 MiB and keeps 0x010; of its 3 freed ways pid 2's
    # CLOS grows by the one next to it, to 0x780, and pid 0 is not read
    # back.  t=288 (phase b ran 1.25 x 128 ns on one way): the same
    # footprint again moves nothing and reads nothing back.
    puts, seen = [], []
    real_put, real_change = simulate._Placement.put, simulate._ComCas.phase_change

    def counting_put(self, pid, sid, mask):
        puts.append(pid)
        real_put(self, pid, sid, mask)

    def watched_change(self, t, run):
        def masks():
            return {(s.sid, c.clos_id): (c.mask, c.members[:]) for s in self.ap.sockets for c in s.clos}

        before = masks()
        puts.clear()
        real_change(self, t, run)
        moved = sorted(pid for key, (mask, members) in masks().items() if mask != before[key][0] for pid in members)
        seen.append((t, self.ap.records[-1].changed, sorted(puts), moved))

    monkeypatch.setattr(simulate._Placement, "put", counting_put)
    monkeypatch.setattr(simulate._ComCas, "phase_change", watched_change)
    rep = run_mix(shrinking_mix(), Policy("comcas"))
    assert [r.bitmask for r in rep.records[3:5]] == [0x010, 0x010]
    assert seen == [(128.0, True, [1, 2], [1, 2]), (288.0, False, [], [])]


def test_a_comcas_phase_change_that_moves_no_mask_calls_no_read_back(monkeypatch):
    # the shrinking mix: pid 1's first phase change moves two CLOS and
    # reads them back once; its second moves nothing and reads nothing
    reads, seen = [], []
    real_read, real_change = simulate._ComCas._read_back, simulate._ComCas.phase_change

    def counting_read(self):
        reads.append(len(self.ap.moved))
        real_read(self)

    def watched_change(self, t, run):
        before = len(reads)
        real_change(self, t, run)
        seen.append((t, len(self.ap.moved), reads[before:]))

    monkeypatch.setattr(simulate._ComCas, "_read_back", counting_read)
    monkeypatch.setattr(simulate._ComCas, "phase_change", watched_change)
    run_mix(shrinking_mix(), Policy("comcas"))
    assert seen == [(128.0, 2, [2]), (288.0, 0, [])]


def test_comcas_admission_reads_back_only_the_clos_it_moved(monkeypatch):
    # t=0: stream pid 0 (max-ways 2) takes 0x003 and reuse pid 1 (max-ways
    # 3) 0x01c.  t=128: stream pid 2 also wants 2 ways and joins pid 0's
    # CLOS, so the arrival reads back pid 0 and pid 2, not pid 1
    puts, seen = [], []
    real_put, real_admit = simulate._Placement.put, simulate._ComCas.admit

    def counting_put(self, pid, sid, mask):
        puts.append(pid)
        real_put(self, pid, sid, mask)

    def watched_admit(self, t, runs):
        puts.clear()
        real_admit(self, t, runs)
        seen.append((t, sorted(puts)))

    monkeypatch.setattr(simulate._Placement, "put", counting_put)
    monkeypatch.setattr(simulate._ComCas, "admit", watched_admit)
    stream = ReuseClass.STREAM
    rep = run_mix(mix_of(
        ProcessSpec(pid=0, alpha=1.0, max_ways=2, phases=(phase("s0", 8 * MIB, {2: 1024.0}, reuse=stream),)),
        ProcessSpec(pid=1, alpha=1.0, max_ways=3, phases=(phase("r1", 2 * MIB, {2: 1024.0}),)),
        ProcessSpec(pid=2, alpha=1.0, max_ways=2, start_ns=128.0,
                    phases=(phase("s2", 8 * MIB, {2: 1024.0}, reuse=stream),)),
        sockets=1,
    ), Policy("comcas"))
    assert [(r.clos, r.bitmask) for r in rep.records[:3]] == [(0, 0x003), (1, 0x01c), (0, 0x003)]
    assert seen == [(0.0, [0, 1]), (128.0, [0, 2])]


def test_a_loop_iteration_that_moves_nothing_is_a_trace_error(monkeypatch):
    # a clock whose tick never advances and moves nothing would spin the
    # loop at one instant forever
    class Stuck(simulate._Unpartitioned):
        next_tick = 64.0

    monkeypatch.setitem(simulate._POLICIES, "unpartitioned", Stuck)
    proc = ProcessSpec(pid=0, phases=(phase("p", MIB, {2: 1024.0}),))
    with raises_fault("mix 'stuck': nothing moves at t=64.0 ns"):
        run_mix(mix_of(proc, name="stuck"), Policy("unpartitioned"))


@pytest.mark.parametrize("kind", sorted(simulate._POLICIES))
def test_a_one_way_speed_past_the_float_range_names_its_phase(kind):
    # t(2) * DM_PENALTY is inf, so the third process on two ways would run at speed 0
    procs = [ProcessSpec(pid=pid, phases=(phase("a", MIB, {2: 1.5e308}),)) for pid in range(3)]
    mix = mix_of(*procs, name="far", ways_per_socket=2, sockets=1)
    with raises_fault("mix 'far': pid 0 phase 'a': its speed on one way leaves the float range"):
        run_mix(mix, Policy(kind))


@pytest.mark.parametrize("kind", sorted(simulate._POLICIES))
def test_a_clock_past_the_float_range_ends_the_run(kind):
    # each phase is fast only past two ways, which a two-way socket never grants
    slow = phase("a", MIB, {2: 1e308, 3: 1.0})
    mix = mix_of(ProcessSpec(pid=0, phases=(slow, slow)), name="far", ways_per_socket=2, sockets=1)
    with raises_fault(r"mix 'far': the next event after t=1e\+308 ns leaves the float range"):
        run_mix(mix, Policy(kind))


def placement_state(place):
    return place.socket_of, place.pids, place.claims, place.groups, place.claimed, place.moved, place.dirty, place.mask_of


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_placement_claims_follow_every_change(data):
    # random puts, drops and reuse flips, refreshed at random points: the
    # claim counts always equal a recount, the kept groups are the claimed
    # masks regrouped, none of them empty, each with the exact rule's ways,
    # and every placed pid's last refreshed effective ways equal the exact
    # rule on the current claims.  Masks are windows, as every policy places
    # them, or any non-empty set of ways: a put with a gap is rejected and
    # leaves the placement as it was
    ways, sockets = data.draw(st.integers(2, 8)), data.draw(st.integers(1, 3))
    place = simulate._Placement(SystemConfig(sockets=sockets, ways_per_socket=ways))
    window = st.one_of(
        st.integers(1, ways).flatmap(lambda w: st.integers(0, ways - w).map(lambda s: ((1 << w) - 1) << s)),
        st.integers(1, (1 << ways) - 1),
    )
    reuse, known = {}, {}
    for step in data.draw(st.lists(st.sampled_from("pdfr"), max_size=40)) + ["r"]:
        placed = sorted(place.socket_of)
        if step == "p":
            pid = data.draw(st.integers(0, 9))
            sid = place.socket_of.get(pid) if pid in placed else data.draw(st.integers(0, sockets - 1))
            reuse.setdefault(pid, data.draw(st.booleans()))
            mask = data.draw(window)
            if is_contiguous(mask):
                place.put(pid, sid, mask)
            else:
                before = copy.deepcopy(placement_state(place))
                with raises_fault("is not one run of ways"):
                    place.put(pid, sid, mask)
                assert placement_state(place) == before
        elif step == "d" and placed:
            pid = data.draw(st.sampled_from(placed))
            place.drop(pid)
            known.pop(pid, None)
        elif step == "f" and placed:
            pid = data.draw(st.sampled_from(placed))
            reuse[pid] = not reuse[pid]
            place.dirty.add(pid)  # as the engine marks a phase change
        elif step == "r":
            refreshed = place.refresh(reuse.__getitem__)
            assert set(refreshed) <= set(place.socket_of)
            known.update(refreshed)
            for sid in range(sockets):
                holders = [place.mask_of[pid] for pid in place.pids[sid] if reuse[pid]]
                recount = [sum(m >> w & 1 for m in holders) for w in range(ways)]
                assert place.claims[sid] == recount
                regrouped = {}
                for pid in place.pids[sid]:
                    if place.claimed.get(pid):
                        regrouped.setdefault(place.claimed[pid], set()).add(pid)
                assert {mask: pids for mask, (_, pids) in place.groups[sid].items()} == regrouped
                for mask, (kept, _) in place.groups[sid].items():
                    assert kept == brute_effective_ways(mask, place.claims[sid]), (sid, mask)
            assert not any(place.claimed.get(pid) for pid in reuse if pid not in place.socket_of)
            for pid, sid in place.socket_of.items():
                mask = place.mask_of[pid]
                exact = brute_effective_ways(mask, place.claims[sid]) if reuse[pid] else bin(mask).count("1")
                assert known[pid] == exact, (pid, mask, reuse[pid])


@pytest.mark.parametrize("mask", [0b10000, 0b11000, 0b101, 0b1001, 0])
def test_a_put_past_the_socket_or_with_a_gap_changes_nothing(mask):
    # 0b10000 and 0b11000 reach past a 4-way socket, which the refresh
    # would read as claims past its last way; 0b101 and 0b1001 have gaps;
    # 0 is empty, which CAT does not take and no group could hold
    place = simulate._Placement(SystemConfig(sockets=1, ways_per_socket=4))
    place.put(0, 0, 0b0011)
    place.refresh(lambda pid: True)
    before = copy.deepcopy(placement_state(place))
    for pid in 0, 1:
        with raises_fault("mask %#x is not one run of ways below way 4" % mask):
            place.put(pid, 0, mask)
        assert placement_state(place) == before
    assert place.refresh(lambda pid: True) == {}


@pytest.mark.parametrize("neighbour", [False, True])
def test_a_group_narrowed_within_its_mask_reads_its_ways(neighbour):
    # pid 0, the only holder of 0b0111, narrows to 0b0011: the moved way,
    # 0b0100, does not meet the new mask, so only the dirty pid's own path
    # can give its new group ways.  With pid 1 already holding 0b0011, pid
    # 0 joins a group whose kept ways still hold
    place = simulate._Placement(SystemConfig(sockets=1, ways_per_socket=4))
    place.put(0, 0, 0b0111)
    if neighbour:
        place.put(1, 0, 0b0011)
    assert place.refresh(lambda pid: True) == ({0: 2, 1: 1} if neighbour else {0: 3})
    place.put(0, 0, 0b0011)
    assert place.refresh(lambda pid: True) == {0: 1 if neighbour else 2}
    assert {mask: (ways, pids) for mask, (ways, pids) in place.groups[0].items()} == {
        0b0011: (1, {0, 1}) if neighbour else (2, {0})
    }


# -- determinism --------------------------------------------------------------

@pytest.mark.parametrize("policy", [
    Policy("comcas"),
    Policy("unpartitioned"),
    Policy("maxways"),
    Policy("reactive", interval_ns=100.0),
])
def test_run_mix_deterministic(policy):
    m = comcas_mix() if policy.kind == "comcas" else reactive_mix()
    a = run_mix(m, policy)
    b = run_mix(m, policy)
    assert a.completions == b.completions
    assert a.end_time == b.end_time
    assert a.records == b.records
    assert a.width_timeline == b.width_timeline


# -- properties over random mixes ---------------------------------------------

def random_mix(rnd):
    """Geometries within and beyond core and way capacity, non-increasing
    curves, staggered starts, derived or explicit sensitivity."""
    ways = rnd.randint(2, 12)
    procs = []
    for pid in range(rnd.randint(1, 40)):
        phases = []
        for k in range(rnd.randint(1, 4)):
            t, curve = float(rnd.randint(64, 4096)), {}
            for w in range(2, ways + 1):
                curve[w] = t
                t = max(1.0, t - rnd.randint(0, 512))
            reuse = rnd.choice((ReuseClass.REUSE, ReuseClass.STREAM))
            nbytes = rnd.choice((MIB // 4, MIB, 8 * MIB, 32 * MIB))
            phases.append(phase("p%d.%d" % (pid, k), nbytes, curve, rnd.choice((0.5, 1.0, 3.0)), reuse))
        explicit = rnd.random() < 0.5
        procs.append(ProcessSpec(
            pid=pid,
            phases=tuple(phases),
            start_ns=float(rnd.choice((0, rnd.randint(0, 8000)))),
            alpha=rnd.uniform(0.0, 3.0) if explicit else None,
            max_ways=rnd.randint(1, ways) if explicit else None,
        ))
    return mix_of(
        *procs, sockets=rnd.randint(1, 3), cores_per_socket=rnd.randint(1, 14),
        ways_per_socket=ways,
    )


def churn_mix(rnd):
    """Many short phases on one tight socket: 2-4 ways, more processes than
    ways, 16-64 phases each that alternate reuse and stream, gfactor 1-4 and
    explicit max-ways windows that partly overlap."""
    ways = rnd.randint(2, 4)
    procs = []
    for pid in range(rnd.randint(ways + 1, 2 * ways + 2)):
        phases, first = [], rnd.random() < 0.5
        for k in range(rnd.randint(16, 64)):
            t, curve = float(rnd.randint(64, 1024)), {}
            for w in range(2, ways + 1):
                curve[w] = t
                t = max(1.0, t - rnd.randint(0, 256))
            reuse = ReuseClass.REUSE if (k % 2 == 0) == first else ReuseClass.STREAM
            nbytes = rnd.choice((MIB // 4, MIB, 8 * MIB))
            phases.append(phase("p%d.%d" % (pid, k), nbytes, curve, rnd.choice((0.5, 1.0)), reuse))
        procs.append(ProcessSpec(
            pid=pid,
            phases=tuple(phases),
            start_ns=float(rnd.choice((0, rnd.randint(0, 2000)))),
            alpha=rnd.uniform(0.0, 3.0),
            max_ways=rnd.randint(1, ways),
        ))
    return mix_of(
        *procs, sockets=1, cores_per_socket=rnd.randint(ways, 14),
        ways_per_socket=ways, gfactor=rnd.randint(1, 4),
    )


def many_socket_mix(rnd):
    """2-4 sockets of 2-4 cores, 4-8 ways and 1-4 CLOS with gfactor 1-2, so
    arrivals often wait for a seat; 4-16 processes of 4-24 short phases."""
    ways = rnd.randint(4, 8)
    procs = []
    for pid in range(rnd.randint(4, 16)):
        phases = []
        for k in range(rnd.randint(4, 24)):
            reuse = rnd.choice((ReuseClass.REUSE, ReuseClass.STREAM))
            nbytes = rnd.choice((MIB // 4, MIB, 4 * MIB, 16 * MIB))
            phases.append(phase("p%d.%d" % (pid, k), nbytes, {2: float(rnd.randint(64, 512))}, 1.0, reuse))
        procs.append(ProcessSpec(
            pid=pid, phases=tuple(phases), start_ns=float(rnd.randint(0, 1024)),
            alpha=rnd.uniform(0.0, 3.0), max_ways=rnd.randint(1, ways),
        ))
    return mix_of(
        *procs, sockets=rnd.randint(2, 4), cores_per_socket=rnd.randint(2, 4), ways_per_socket=ways,
        clos_per_socket=rnd.randint(1, 4), gfactor=rnd.randint(1, 2),
    )


class _CheckedComCas(simulate._ComCas):
    """comcas that checks after each allocator call that every placed pid
    holds the mask of its CLOS in the allocator."""

    def admit(self, t, runs):
        super().admit(t, runs)
        self._check()

    def phase_change(self, t, run):
        super().phase_change(t, run)
        self._check()

    def release(self, t, run, sid):
        super().release(t, run, sid)
        self._check()

    def _check(self):
        assert self.place.mask_of.keys() == self.ap.procs.keys()
        for pid, mask in self.place.mask_of.items():
            p = self.ap.procs[pid]
            assert mask == self.ap.sockets[p.socket_id].clos[p.clos_id].mask, pid


@settings(max_examples=90, deadline=None, derandomize=True)
@given(st.sampled_from((random_mix, churn_mix, many_socket_mix)), st.randoms(use_true_random=False))
def test_comcas_placement_always_equals_the_allocator(make_mix, rnd):
    m = make_mix(rnd)
    with patch.dict(simulate._POLICIES, comcas=_CheckedComCas):
        rep = run_mix(m, Policy("comcas"))
    assert sorted(rep.completions) == sorted(p.pid for p in m.processes)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=False))
def test_every_policy_completes_random_mixes(rnd):
    m = random_mix(rnd)
    interval = rnd.choice((50.0, 700.0, 5e8))
    policies = [Policy(k) for k in ("comcas", "unpartitioned", "maxways")]
    policies.append(Policy("reactive", interval_ns=interval))
    if rnd.random() < 0.5:
        # the mix again, three reactive intervals after the first copy ended
        # (no random mix runs past 1e6 ns)
        n, gap = len(m.processes), 1e6 + 3 * interval
        again = [replace(p, pid=p.pid + n, start_ns=p.start_ns + gap) for p in m.processes]
        m = replace(m, processes=m.processes + tuple(again))
    for pol in policies:
        rep = run_mix(m, pol)
        assert sorted(rep.completions) == [p.pid for p in m.processes]
        times = [t for t, _ in rep.width_timeline]
        assert times == sorted(times)
        for pid, done in rep.completions.items():
            assert done > 0, (pol.kind, pid)
            assert done >= rep.unmixed[pid] * (1 - 1e-9), (pol.kind, pid)
        assert run_mix(m, pol) == rep


SHIFT_POLICIES = {
    "comcas": Policy("comcas"),
    "unpartitioned": Policy("unpartitioned"),
    "maxways": Policy("maxways"),
    "reactive": Policy("reactive"),
    "reactive@50": Policy("reactive", interval_ns=50.0),
}


@pytest.mark.parametrize("label", sorted(SHIFT_POLICIES))
@pytest.mark.parametrize("make_mix", (random_mix, churn_mix))
def test_shifting_every_start_shifts_nothing_else(make_mix, label):
    # three whole intervals later, reactive's clock meets every arrival at
    # the same phase of its grid.  Only the completions and the end are
    # compared: two events a rounding apart can merge or split under the
    # shift, so the events and snapshots may reorder.  Over seeds 0-39 of
    # random_mix, churn_mix and many_socket_mix under these five policies,
    # one run of 600 does: many_socket_mix seed 25 under comcas.
    pol = SHIFT_POLICIES[label]
    shift = 3 * pol.interval_ns
    for seed in range(40):
        m = make_mix(random.Random(seed))
        late = replace(m, processes=tuple(replace(p, start_ns=p.start_ns + shift) for p in m.processes))
        early, moved = run_mix(m, pol), run_mix(late, pol)
        assert moved.completions.keys() == early.completions.keys(), seed
        for pid, done in early.completions.items():
            assert moved.completions[pid] == pytest.approx(done, rel=1e-9), (seed, pid)
        assert moved.end_time - shift == pytest.approx(early.end_time, rel=1e-9), seed


@pytest.mark.parametrize("label", sorted(SHIFT_POLICIES))
@pytest.mark.parametrize("make_mix", (random_mix, churn_mix, many_socket_mix))
def test_refresh_matches_a_brute_recount(monkeypatch, make_mix, label):
    # refresh re-derives only the runs whose effective ways can have moved;
    # recounting every claim and re-deriving every placed run at each event
    # gives the same report
    pol = SHIFT_POLICIES[label]
    mixes = [make_mix(random.Random(seed)) for seed in range(24)]
    fast = [repr(run_mix(m, pol)) for m in mixes]
    monkeypatch.setattr(simulate._Placement, "refresh", brute_refresh)
    for seed, (m, want) in enumerate(zip(mixes, fast)):
        assert repr(run_mix(m, pol)) == want, seed


# run_mix settles a run's work only when it re-anchors; the reference
# settles every run at every event, so their times differ by rounding
ENGINE_RTOL = 1e-9
# (generator, seed, policy) runs in which one engine puts two events a
# rounding apart and the other puts them on one instant, so the events that
# follow see other masks or ticks; the comment names the engine that splits
NEAR_TIES = {
    ("random_mix", 27, "comcas"),  # the reference: 3530.9999999999995 and 3531 ns
    ("many_socket_mix", 25, "comcas"),  # run_mix: 5935.299999999999 and 5935.3 ns
    ("many_socket_mix", 27, "comcas"),  # the reference: 2001.4999999999998 and 2001.5 ns
    ("many_socket_mix", 30, "reactive@50"),  # the reference: a phase end at 6749.999999999999, a tick at 6750
}


def _has_near_tie(rep, rtol):
    """Does the report hold two distinct event times within `rtol`?"""
    times = sorted({r.time_ns for r in rep.records} | {t for t, _ in rep.width_timeline})
    return any(b - a <= rtol * b for a, b in zip(times, times[1:]))


@pytest.mark.parametrize("make_mix", (random_mix, churn_mix, many_socket_mix))
def test_anchored_engine_matches_settling_every_run(make_mix):
    # completions and the end agree within ENGINE_RTOL; apart from the
    # listed near-ties, so do the record and snapshot times, and the records
    # apart from their times and the snapshot rows are equal.  In a listed
    # run one engine's report holds two event times within ENGINE_RTOL and
    # the reports really differ, so the list names every near-tie and
    # nothing else
    approx = lambda want: pytest.approx(want, rel=ENGINE_RTOL)
    for seed in range(40):
        m = make_mix(random.Random(seed))
        for label, pol in SHIFT_POLICIES.items():
            case = (make_mix.__name__, seed, label)
            fast, ref = run_mix(m, pol), settle_every_run_mix(m, pol)
            assert fast.completions.keys() == ref.completions.keys(), case
            for pid, done in ref.completions.items():
                assert fast.completions[pid] == approx(done), (case, pid)
            assert fast.end_time == approx(ref.end_time), case
            same = (
                [r[1:] for r in fast.records] == [r[1:] for r in ref.records]
                and [rows for _, rows in fast.width_timeline] == [rows for _, rows in ref.width_timeline]
                and [r.time_ns for r in fast.records] == approx([r.time_ns for r in ref.records])
                and [t for t, _ in fast.width_timeline] == approx([t for t, _ in ref.width_timeline])
            )
            if case in NEAR_TIES:
                assert _has_near_tie(fast, ENGINE_RTOL) or _has_near_tie(ref, ENGINE_RTOL), case
                assert not same, case
            else:
                assert same, case
