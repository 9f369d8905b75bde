"""Golden digests of the simulator's reports.

One sha256 per (input, policy) over the repr of the whole SimReport, for the
bundled mixes, twenty seeded draws of test_simulate's random_mix and sixteen
seeded draws of churn_mix and a socket whose one CLOS seat makes arrivals
wait, under every policy and under reactive at a 50 ns interval as well.  The bundled mixes' phases last ~1e8 ns, so at 50 ns
their reactive runs end only because a tick that moves no way stops the
clock and a donor never gives a way it needs.
A change to the engine that claims to keep its outputs must keep every
digest.  A deliberate output change regenerates the table, which rewrites
it, lists on stderr each entry that moved, is new or is gone, and ends with
one tally line such as `44 moved, 0 new, 0 gone`:

    PYTHONPATH=src python tests/test_golden.py
"""

import glob
import hashlib
import json
import os
import random
import sys

from cacheways.errors import CacheWaysError
from cacheways.formats import read_mix
from cacheways.simulate import Policy, ProcessSpec, run_mix
from test_simulate import MIB, churn_mix, mix_of, phase, random_mix

HERE = os.path.dirname(os.path.abspath(__file__))
MIXDIR = os.path.join(HERE, os.pardir, "mixes")
TABLE = os.path.join(HERE, "golden_digests.json")

POLICIES = {
    "comcas": Policy("comcas"),
    "unpartitioned": Policy("unpartitioned"),
    "maxways": Policy("maxways"),
    "reactive": Policy("reactive"),
    "reactive@50": Policy("reactive", interval_ns=50.0),
}


def grouping_cap_mix():
    """Three arrivals at t=0 on one socket with one CLOS of one seat."""
    procs = [
        ProcessSpec(pid=pid, phases=(phase("p%d" % pid, MIB, {2: 100.0 * (pid + 1)}),))
        for pid in range(3)
    ]
    return mix_of(*procs, sockets=1, clos_per_socket=1, gfactor=1)


def inputs():
    """(name, mix) for every bundled mix, then random-0 .. random-19,
    churn-0 .. churn-15 and grouping-cap."""
    for path in sorted(glob.glob(os.path.join(MIXDIR, "*", "*.mix"))):
        rel = os.path.relpath(path, MIXDIR)
        yield rel[: -len(".mix")].replace(os.sep, "/"), read_mix(path)
    for seed in range(20):
        yield "random-%d" % seed, random_mix(random.Random(seed))
    for seed in range(16):
        yield "churn-%d" % seed, churn_mix(random.Random(seed))
    yield "grouping-cap", grouping_cap_mix()


def digest(mix, policy):
    try:
        text = repr(run_mix(mix, policy))
    except CacheWaysError as exc:  # a rejected run is an output too
        text = "raised " + repr(exc)
    return hashlib.sha256(text.encode()).hexdigest()


def table():
    return {
        name: {label: digest(mix, pol) for label, pol in POLICIES.items()}
        for name, mix in inputs()
    }


def test_reports_match_golden_digests():
    with open(TABLE) as fh:
        golden = json.load(fh)
    now = table()
    assert now.keys() == golden.keys()
    moved = [
        "%s %s" % (name, label)
        for name in golden
        for label in golden[name]
        if now[name].get(label) != golden[name][label]
    ]
    assert not moved, "reports moved for: " + ", ".join(moved)


def regenerate():
    """Rewrite the table; name each entry whose digest changed on stderr,
    then tally them."""
    with open(TABLE) as fh:
        old = json.load(fh)
    now = table()
    tally = {"moved": 0, "new": 0, "gone": 0}
    for name in sorted(old.keys() | now.keys()):
        was, new = old.get(name, {}), now.get(name, {})
        for label in sorted(was.keys() | new.keys()):
            if label not in was:
                kind = "new"
            elif label not in new:
                kind = "gone"
            elif was[label] != new[label]:
                kind = "moved"
            else:
                continue
            tally[kind] += 1
            print("%s %s: %s" % (name, label, kind), file=sys.stderr)
    print(", ".join("%d %s" % (n, kind) for kind, n in tally.items()), file=sys.stderr)
    with open(TABLE, "w") as fh:
        json.dump(now, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    regenerate()
