"""Replay hand-worked event fixtures and compare the allocation log
byte for byte against the expected logs.

Every expected file under tests/fixtures/ was first written out by hand from
the allocation rules before being run, as a CSV of each record's first eight
fields; the derivations live as comments in the matching .events file, which
also state each record's req-ways, granted-ways, alpha and changed.  The
`.expected.log` files are those CSVs converted to the allocation log's
`record` lines, all twelve fields each.
"""

import glob
import os

import pytest

from cacheways.apportion import Apportioner, replay_events
from cacheways.formats import read_events, write_alloc_log

from support import checking_moved, clos_of, raises_fault

FIXDIR = os.path.join(os.path.dirname(__file__), "fixtures")

# name -> number of leading events that replay cleanly before the raise
REJECTS = {"05-gfactor-cap": 2}


def fixture_names():
    names = [
        os.path.basename(p)[: -len(".events")]
        for p in glob.glob(os.path.join(FIXDIR, "*.events"))
    ]
    assert len(names) >= 10
    return sorted(names)


def replay_fixture(name):
    events, cfg = read_events(os.path.join(FIXDIR, "%s.events" % name))
    if name in REJECTS:
        events = events[: REJECTS[name]]
    return replay_events(events, cfg), cfg


@pytest.mark.parametrize("name", fixture_names())
def test_fixture_log_matches(name, tmp_path):
    ap, cfg = replay_fixture(name)
    out = tmp_path / ("%s.log" % name)
    write_alloc_log(ap.records, str(out), cfg)
    produced = out.read_text(encoding="utf-8")
    expected = open(
        os.path.join(FIXDIR, "%s.expected.log" % name), encoding="utf-8"
    ).read()
    assert produced == expected


@pytest.mark.parametrize("name", fixture_names())
def test_fixture_operations_name_the_clos_they_moved(name, monkeypatch):
    for op in ("ipca_batch", "pcca", "release_process"):
        monkeypatch.setattr(Apportioner, op, checking_moved(getattr(Apportioner, op)))
    replay_fixture(name)


def test_gfactor_cap_rejects_third_arrival():
    events, cfg = read_events(os.path.join(FIXDIR, "05-gfactor-cap.events"))
    with raises_fault("no socket has a free core or CLOS seat"):
        replay_events(events, cfg)


def test_stream_join_groups_two():
    ap, _ = replay_fixture("02-stream-join")
    assert ap.max_clos_group_size == 2
    assert clos_of(ap, 2).members == [0, 2]


def test_crowded_overflow_warns_once():
    ap, _ = replay_fixture("04-crowded-overflow")
    assert len(ap.warnings) == 1
    assert "overflows" in ap.warnings[0]


def test_hysteresis_record_not_changed():
    ap, _ = replay_fixture("06-hysteresis-hold")
    assert ap.records[-1].changed is False
    # a held re-apportion does not count as an allocation change
    assert ap.apportion_count == 2


def test_blocked_grow_then_transfer_state():
    ap, _ = replay_fixture("08-blocked-then-transfer")
    assert ap.records[3].changed is False
    assert ap.records[4].changed is True
    assert clos_of(ap, 1).mask == 0x01E
    assert clos_of(ap, 0).mask == 0x001


def test_release_recycle_extends_starved_group():
    ap, _ = replay_fixture("09-release-recycle")
    assert clos_of(ap, 1).mask == 0x7E0
    assert ap.records[-1].granted_ways == 0
    assert ap.records[-1].changed is True


def test_release_shared_keeps_mask():
    ap, _ = replay_fixture("10-release-shared")
    assert ap.records[-1].changed is False
    assert clos_of(ap, 1).mask == 0x007


def test_socket_steer_rosters():
    ap, _ = replay_fixture("11-socket-steer")
    assert ap.sockets[0].processes == [0, 2]
    assert ap.sockets[1].processes == [1, 3]


def test_forced_overlap_lands_on_lowest_alpha():
    ap, _ = replay_fixture("12-forced-overlap")
    assert clos_of(ap, 2).mask & clos_of(ap, 0).mask == 0x00F
    assert clos_of(ap, 2).mask & clos_of(ap, 1).mask == 0
