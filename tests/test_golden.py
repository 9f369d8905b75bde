"""Golden digests of the simulator's reports.

One sha256 per (input, policy) over the repr of the whole SimReport, for the
bundled mixes, twenty seeded draws of test_simulate's random_mix and sixteen
seeded draws of churn_mix, under every policy.  The random draws also run
reactive at a 50 ns interval.  The bundled mixes do not: their phases last
~1e8 ns, and on h1-squeeze every 50 ns tick moves a way (pids at their
max-ways donate one, fall short and win it back), so that run does not end
in reasonable time, and skipping the ticks that move no way would not help.
A change to the engine that claims to keep its outputs must keep every
digest; a deliberate output change regenerates the table and reports which
entries moved:

    PYTHONPATH=src python tests/test_golden.py > tests/golden_digests.json
"""

import glob
import hashlib
import json
import os
import random
import sys

from cacheways.errors import CacheWaysError
from cacheways.formats import read_mix
from cacheways.loops import ReuseClass
from cacheways.simulate import Policy, ProcessSpec, run_mix
from test_simulate import MIB, mix_of, phase, random_mix

HERE = os.path.dirname(os.path.abspath(__file__))
MIXDIR = os.path.join(HERE, os.pardir, "mixes")
TABLE = os.path.join(HERE, "golden_digests.json")

POLICIES = {
    "comcas": Policy("comcas"),
    "unpartitioned": Policy("unpartitioned"),
    "maxways": Policy("maxways"),
    "reactive": Policy("reactive"),
}
FINE = dict(POLICIES, **{"reactive@50": Policy("reactive", interval_ns=50.0)})


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


def inputs():
    """(name, mix, policies) for every bundled mix, then random-0 .. random-19
    and churn-0 .. churn-15."""
    for path in sorted(glob.glob(os.path.join(MIXDIR, "*", "*.mix"))):
        rel = os.path.relpath(path, MIXDIR)
        yield rel[: -len(".mix")].replace(os.sep, "/"), read_mix(path), POLICIES
    for seed in range(20):
        yield "random-%d" % seed, random_mix(random.Random(seed)), FINE
    for seed in range(16):
        yield "churn-%d" % seed, churn_mix(random.Random(seed)), FINE


def digest(mix, policy):
    try:
        text = repr(run_mix(mix, policy))
    except CacheWaysError as exc:  # a rejected run is an output too
        text = "raised " + repr(exc)
    return hashlib.sha256(text.encode()).hexdigest()


def table():
    return {
        name: {label: digest(mix, pol) for label, pol in policies.items()}
        for name, mix, policies in inputs()
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


if __name__ == "__main__":
    json.dump(table(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
