"""Replay hand-worked event fixtures and compare the allocation log
record-for-record against expected CSVs.

Every expected file under tests/fixtures/ was written out by hand from the
allocation rules before being run; the derivations live as comments in the
matching .events file.
"""

import glob
import os

import pytest

from cacheways.apportion import AdmissionRejected, replay_events
from cacheways.formats import read_events, write_alloc_log

from support import clos_of

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
    out = tmp_path / ("%s.csv" % name)
    write_alloc_log(ap.records, str(out), cfg)
    produced = out.read_text(encoding="utf-8")
    expected = open(
        os.path.join(FIXDIR, "%s.expected.csv" % name), encoding="utf-8"
    ).read()
    assert produced == expected


def test_gfactor_cap_rejects_third_arrival():
    events, cfg = read_events(os.path.join(FIXDIR, "05-gfactor-cap.events"))
    with pytest.raises(AdmissionRejected):
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
