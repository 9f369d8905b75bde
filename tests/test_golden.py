"""Golden digests of the simulator's reports and of the CLI's outputs.

One sha256 per part of the view of each (input, policy) SimReport
(`report_view`), for the bundled mixes, twenty seeded draws of
test_simulate's random_mix and sixteen seeded draws of churn_mix and a
socket whose one CLOS seat makes arrivals wait, under every policy and
under reactive at a 50 ns interval as well.  The bundled mixes' phases
last ~1e8 ns, so at 50 ns their reactive runs end only because a tick that
moves no way stops the clock and a donor never gives a way it needs.

A second table holds one sha256 per CLI run, through `cli.main` in process,
over its exit code, stdout, stderr and each file it wrote (relative name and
bytes), with the temporary output directory and the mixes directory replaced
by placeholders.  The runs: for each bundled mix, `simulate --log --out`
under every policy, `compare --out`, and `compare --out` over maxways and
comcas at a 30 ms interval; then `sweep --out` over every mix, under every
policy and under reactive and comcas.

A third table holds one sha256 per seed 0-299 over the loop analysis of a
draw of oracles.random_affine_nest, mutated so that some bounds are 0 or
estimated, some subscripts are indirect and some constants shift: the repr of
`footprint_closed_form` at line sizes 16 and 64 and of `compute_srd`, or of
the error a call raised.

A change that claims to keep its outputs must keep every digest of the three
tables.  A deliberate output change regenerates them, which rewrites all
three and lists on stderr each entry that moved, is new or is gone, a moved
report entry with the parts of its view that moved.  It then counts the
moved report entries by the parts that moved, one line each, such as
`112 moved: times only`, and ends with one tally line over all three
tables, such as `135 moved, 0 new, 0 gone`:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import dataclasses
import glob
import hashlib
import io
import json
import os
import random
import sys
import tempfile

from cacheways import cli
from cacheways.errors import CacheWaysError
from cacheways.formats import read_mix
from cacheways.loops import Bound, compute_srd, footprint_closed_form
from cacheways.simulate import Policy, ProcessSpec, run_mix
from oracles import random_affine_nest
from test_simulate import MIB, churn_mix, mix_of, phase, random_mix

HERE = os.path.dirname(os.path.abspath(__file__))
MIXDIR = os.path.join(HERE, os.pardir, "mixes")
TABLE = os.path.join(HERE, "golden_digests.json")
CLI_TABLE = os.path.join(HERE, "golden_cli.json")
LOOPS_TABLE = os.path.join(HERE, "golden_loops.json")

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


# the parts of a report view that hold only times
TIMES = ("completions", "unmixed times", "end time", "record times", "snapshot times")


def report_view(rep):
    """The report split into parts, each of which a change can move alone:
    the times apart from the rest, the records and the snapshots each
    apart from their times, and every other field together."""
    return {
        "completions": rep.completions,
        "unmixed times": rep.unmixed,
        "end time": rep.end_time,
        "records": [r[1:] for r in rep.records],
        "record times": [r.time_ns for r in rep.records],
        "snapshot rows": [rows for _, rows in rep.width_timeline],
        "snapshot times": [t for t, _ in rep.width_timeline],
        "the rest": (
            rep.mix_name, rep.category, rep.policy, rep.interval_ns,
            rep.apportion_count, rep.max_clos_group_size, rep.warnings,
        ),
    }


def digest(mix, policy):
    """{part: sha256 of its repr} of the run's view; a rejected run is an
    output too, with one part."""
    try:
        view = report_view(run_mix(mix, policy))
    except CacheWaysError as exc:
        view = {"raised": exc}
    return {part: hashlib.sha256(repr(v).encode()).hexdigest() for part, v in view.items()}


def table():
    return {
        name: {label: digest(mix, pol) for label, pol in POLICIES.items()}
        for name, mix in inputs()
    }


def moved_parts(was, new):
    """The parts of a report entry whose digests differ, in view order."""
    return [part for part in {**new, **was} if was.get(part) != new.get(part)]


def cli_runs():
    """(name, label, argv) of every CLI run; `{out}` in an argument is the
    run's own empty output directory."""
    paths = sorted(glob.glob(os.path.join(MIXDIR, "*", "*.mix")))
    for path in paths:
        name = os.path.relpath(path, MIXDIR)[: -len(".mix")].replace(os.sep, "/")
        for pol in cli.POLICIES:
            yield name, "simulate " + pol, [
                "simulate", "--mix", path, "--policy", pol,
                "--log", "{out}/alloc.log", "--out", "{out}/report.csv",
            ]
        yield name, "compare", ["compare", "--mix", path, "--out", "{out}/cmp.csv"]
        yield name, "compare maxways,comcas@30", [
            "compare", "--mix", path, "--policies", "maxways,comcas",
            "--interval-ms", "30", "--out", "{out}/cmp.csv",
        ]
    yield "sweep", "all", ["sweep", "--mixes", MIXDIR, "--out", "{out}"]
    yield "sweep", "reactive,comcas", [
        "sweep", "--mixes", MIXDIR, "--policies", "reactive,comcas", "--out", "{out}",
    ]


def cli_digest(argv):
    """sha256 over the exit code, stdout, stderr and written files of one
    in-process `cli.main(argv)`."""
    with tempfile.TemporaryDirectory() as tmp:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main([a.replace("{out}", tmp) for a in argv])
            except SystemExit as exc:
                code = exc.code
        h = hashlib.sha256()
        for text in (repr(code), out.getvalue(), err.getvalue()):
            text = text.replace(tmp, "<out>").replace(MIXDIR, "<mixes>")
            h.update(repr(text).encode())
        for rel in sorted(
            os.path.relpath(os.path.join(d, f), tmp) for d, _, fs in os.walk(tmp) for f in fs
        ):
            with open(os.path.join(tmp, rel), "rb") as fh:
                h.update(repr((rel.replace(os.sep, "/"), fh.read())).encode())
    return h.hexdigest()


def cli_table():
    out: dict = {}
    for name, label, argv in cli_runs():
        out.setdefault(name, {})[label] = cli_digest(argv)
    return out


def mutated_nest(seed):
    """random_affine_nest's draw for `seed`, then, from the same generator,
    with a small probability each: a bound 0 or estimated, an access made
    indirect or a repeat of an earlier one, and a constant shifted."""
    rng = random.Random(seed)
    nest = random_affine_nest(rng, "random-%d" % seed)
    loops = []
    for lv in nest.loops:
        r = rng.random()
        if r < 0.08:
            lv = dataclasses.replace(lv, upper_bound=Bound(0))
        elif r < 0.16:
            lv = dataclasses.replace(lv, upper_bound=Bound(lv.upper_bound.value, estimated=True))
        loops.append(lv)
    stmts = []
    listed = []  # every access so far, in list order
    for stmt in nest.statements:
        accesses = []
        for acc in stmt.accesses:
            r = rng.random()
            if r < 0.06:
                acc = dataclasses.replace(acc, subscript=None)
            elif r < 0.3 and listed:
                # repeat an earlier reference, so same-iteration pairs occur
                acc = dataclasses.replace(rng.choice(listed), kind=acc.kind)
            if r < 0.45 and acc.subscript is not None and rng.random() < 0.5:
                sub = acc.subscript
                acc = dataclasses.replace(
                    acc, subscript=dataclasses.replace(sub, const=sub.const + rng.randint(-3, 3))
                )
            accesses.append(acc)
            listed.append(acc)
        stmts.append(dataclasses.replace(stmt, accesses=tuple(accesses)))
    return dataclasses.replace(nest, loops=tuple(loops), statements=tuple(stmts))


def loops_digest(nest):
    h = hashlib.sha256()
    for call in (
        lambda: footprint_closed_form(nest, 16),
        lambda: footprint_closed_form(nest, 64),
        lambda: compute_srd(nest),
    ):
        try:
            text = repr(call())
        except CacheWaysError as exc:  # an unanalyzable nest is an output too
            text = "raised " + repr(exc)
        h.update(repr(text).encode())
    return h.hexdigest()


def loops_table():
    return {
        "random-%d" % seed: {"analysis": loops_digest(mutated_nest(seed))}
        for seed in range(300)
    }


TABLES = ((TABLE, table), (CLI_TABLE, cli_table), (LOOPS_TABLE, loops_table))


def moved_entries(path, make):
    with open(path) as fh:
        golden = json.load(fh)
    now = make()
    assert now.keys() == golden.keys()
    out = []
    for name in golden:
        for label, want in golden[name].items():
            got = now[name].get(label)
            if got != want:
                parts = moved_parts(want, got or {}) if isinstance(want, dict) else []
                out.append("%s %s" % (name, label) + (" (%s)" % ", ".join(parts) if parts else ""))
    return out


def test_reports_match_golden_digests():
    moved = moved_entries(TABLE, table)
    assert not moved, "reports moved for: " + ", ".join(moved)


def test_cli_outputs_match_golden_digests():
    moved = moved_entries(CLI_TABLE, cli_table)
    assert not moved, "CLI outputs moved for: " + ", ".join(moved)


def test_loop_analysis_matches_golden_digests():
    moved = moved_entries(LOOPS_TABLE, loops_table)
    assert not moved, "loop analysis moved for: " + ", ".join(moved)


def regenerate():
    """Rewrite every table; name each entry whose digest changed on stderr,
    a report entry with its moved parts, then count the moved report
    entries by those parts and tally the entries over all tables."""
    tally = {"moved": 0, "new": 0, "gone": 0}
    by_parts: dict[str, int] = {}  # moved report entries by what moved
    for path, make in TABLES:
        try:
            with open(path) as fh:
                old = json.load(fh)
        except FileNotFoundError:
            old = {}
        now = make()
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
                note = ""
                if kind == "moved" and isinstance(was[label], dict):
                    parts = moved_parts(was[label], new[label])
                    what = "times only" if set(parts) <= set(TIMES) else ", ".join(parts)
                    by_parts[what] = by_parts.get(what, 0) + 1
                    note = " (%s)" % ", ".join(parts)
                print("%s %s: %s%s" % (name, label, kind, note), file=sys.stderr)
        with open(path, "w") as fh:
            json.dump(now, fh, indent=1, sort_keys=True)
            fh.write("\n")
    for what, n in sorted(by_parts.items(), key=lambda item: -item[1]):
        print("%d moved: %s" % (n, what), file=sys.stderr)
    print(", ".join("%d %s" % (n, kind) for kind, n in tally.items()), file=sys.stderr)


if __name__ == "__main__":
    regenerate()
