"""Text format round trips and failure diagnostics.

Round-trip laws use object equality: every float is rendered with %.17g, so a
write followed by a read must reproduce the value bit for bit.
"""

import glob
import os
import random
import re
from dataclasses import replace

import pytest

from cacheways.apportion import Apportioner, SystemConfig, replay_events
from cacheways.errors import SchemaError
from cacheways.formats import (
    fmt_float,
    read_alloc_log,
    read_config,
    read_curves,
    read_events,
    read_mix,
    read_nests,
    read_samples,
    write_alloc_log,
    write_attributes,
    write_events,
    write_model,
    write_table_csv,
)
from cacheways.loops import (
    Affine,
    ArrayDecl,
    Bound,
    FootprintValue,
    LoopLevel,
    LoopNest,
    MemoryAccess,
    ReuseClass,
    Statement,
)
from cacheways.sensitivity import ProbeAttributes
from cacheways.simulate import Policy, mix_config, process_sensitivity, run_mix
from cacheways.timing import TimingModel, TrainingSample

from oracles import random_affine_nest
from support import read_attributes, read_model, way_time_curve
from support import write_config, write_curves, write_mix, write_nests, write_samples


def test_fmt_float_round_trips_exactly():
    for x in (0.0, 1.0, 0.1, 1 / 3, 1234.5678901234567, 1e-300, 6.02e23):
        assert float(fmt_float(x)) == x


def write_text(tmp_path, name, body):
    p = tmp_path / name
    p.write_text(body, encoding="utf-8")
    return str(p)


# -- header and comments ------------------------------------------------------

def test_missing_format_version(tmp_path):
    p = write_text(tmp_path, "x.txt", "curve a\nend\n")
    with pytest.raises(SchemaError, match="format-version"):
        read_curves(p)


def test_wrong_format_version(tmp_path):
    p = write_text(tmp_path, "x.txt", "format-version 99\ncurve a\nend\n")
    with pytest.raises(SchemaError, match="format-version"):
        read_curves(p)


def test_empty_file(tmp_path):
    p = write_text(tmp_path, "x.txt", "# nothing but comments\n\n")
    with pytest.raises(SchemaError, match="empty"):
        read_curves(p)


def test_comments_and_blanks_ignored(tmp_path):
    body = (
        "format-version 1\n"
        "\n"
        "# a full-line comment\n"
        "curve a  # trailing comment\n"
        "point 2 100\n"
        "end\n"
    )
    curves = read_curves(write_text(tmp_path, "c.txt", body))
    assert curves["a"].points == ((2, 100.0),)


def test_error_messages_carry_path_and_line(tmp_path):
    p = write_text(
        tmp_path, "bad.txt", "format-version 1\ncurve a\nwobble 1 2\n"
    )
    with pytest.raises(SchemaError, match=r"bad\.txt:3: unknown keyword"):
        read_curves(p)


# -- loop nests ---------------------------------------------------------------

def hand_nest():
    return LoopNest(
        name="edge",
        loops=(
            LoopLevel("i", Bound(10)),
            LoopLevel("j", Bound(7, estimated=True)),
        ),
        statements=(
            Statement(
                (
                    MemoryAccess("A", 8, Affine(5, (("i", -2),)), "read"),
                    MemoryAccess("A", 8, Affine(0, ()), "write"),
                ),
                1,
            ),
            Statement(
                (
                    MemoryAccess("B", 4, Affine(1, (("i", 4), ("j", 1))), "read"),
                    MemoryAccess("C", 2, None, "read"),
                ),
                2,
            ),
        ),
        arrays=(ArrayDecl("C", 1000, 2),),
    )


def test_nests_round_trip_hand_case(tmp_path):
    path = str(tmp_path / "nests.txt")
    write_nests([hand_nest()], path)
    assert read_nests(path) == [hand_nest()]


def test_nests_round_trip_randomized(tmp_path):
    rng = random.Random(7)
    nests = [random_affine_nest(rng, "n%d" % k) for k in range(12)]
    path = str(tmp_path / "nests.txt")
    write_nests(nests, path)
    assert read_nests(path) == nests


def test_nests_errors(tmp_path):
    with pytest.raises(SchemaError, match="outside a nest"):
        read_nests(write_text(tmp_path, "a.txt", "format-version 1\nloop i 5\n"))
    with pytest.raises(SchemaError, match="not closed"):
        read_nests(write_text(tmp_path, "b.txt", "format-version 1\nnest x\nloop i 5\n"))
    with pytest.raises(SchemaError, match="access outside a stmt"):
        read_nests(
            write_text(
                tmp_path,
                "c.txt",
                "format-version 1\nnest x\nloop i 5\naccess A read 8 0 i 1\nend\n",
            )
        )
    with pytest.raises(SchemaError, match="no loops"):
        read_nests(write_text(tmp_path, "d.txt", "format-version 1\nnest x\nend\n"))


# -- curves -------------------------------------------------------------------

def test_curves_round_trip(tmp_path):
    curves = {
        "steep": way_time_curve({2: 1234.5678901234567, 3: 100.0, 7: 99.5}),
        "flat": way_time_curve({2: 0.1}),
    }
    path = str(tmp_path / "curves.txt")
    write_curves(curves, path)
    assert read_curves(path) == curves


def test_curves_errors(tmp_path):
    with pytest.raises(SchemaError, match="duplicate curve"):
        read_curves(
            write_text(
                tmp_path,
                "a.txt",
                "format-version 1\ncurve a\npoint 2 1\nend\ncurve a\npoint 2 1\nend\n",
            )
        )
    with pytest.raises(SchemaError, match="point outside"):
        read_curves(write_text(tmp_path, "b.txt", "format-version 1\npoint 2 1\n"))
    with pytest.raises(SchemaError, match="not closed"):
        read_curves(write_text(tmp_path, "c.txt", "format-version 1\ncurve a\npoint 2 1\n"))
    # structurally bad curve is reported at its 'end' line
    with pytest.raises(SchemaError, match=r":4: curve 'a'"):
        read_curves(
            write_text(
                tmp_path,
                "d.txt",
                "format-version 1\ncurve a\npoint 3 1\nend\n",
            )
        )


# -- attributes ---------------------------------------------------------------

def test_attributes_round_trip(tmp_path):
    attrs = {
        "ph0": ProbeAttributes(
            phase_id="ph0",
            footprint=FootprintValue(4096, 64, True),
            reuse=ReuseClass.REUSE,
            alpha=0.30000000000000004,
            max_ways=5,
            fixed_ns=1e8 / 3,
        ),
        "ph1": ProbeAttributes(
            phase_id="ph1",
            footprint=FootprintValue(123, 2, False),
            reuse=ReuseClass.STREAM,
            alpha=0.0,
            max_ways=2,
            fixed_ns=77.7,
        ),
    }
    path = str(tmp_path / "attrs.txt")
    write_attributes(list(attrs.values()), path)
    assert read_attributes(path) == attrs


def test_attributes_errors(tmp_path):
    # an unclosed block is the package grammar's error
    with pytest.raises(SchemaError, match="not closed"):
        read_attributes(write_text(tmp_path, "c.txt", "format-version 1\nattrs p\n"))


def test_support_read_attributes_rejects_missing_field_and_duplicate(tmp_path):
    # these checks live in the test-side reader only: no command reads an
    # attrs file back
    with pytest.raises(SchemaError, match="missing reuse"):
        read_attributes(
            write_text(
                tmp_path,
                "a.txt",
                "format-version 1\nattrs p\nfootprint 1 1 1\nalpha 0\nmax-ways 2\nend\n",
            )
        )
    with pytest.raises(SchemaError, match="duplicate attrs"):
        read_attributes(
            write_text(
                tmp_path,
                "b.txt",
                "format-version 1\n"
                "attrs p\nfootprint 1 1 1\nreuse stream\nalpha 0\nmax-ways 2\nfixed-ns 1\nend\n"
                "attrs p\nfootprint 1 1 1\nreuse stream\nalpha 0\nmax-ways 2\nfixed-ns 1\nend\n",
            )
        )


# -- timing samples and models --------------------------------------------------

def test_samples_round_trip(tmp_path):
    samples = [
        TrainingSample((10.0, 20.0), 123.456),
        TrainingSample((1.5, 2.5), 0.25),
    ]
    path = str(tmp_path / "samples.txt")
    write_samples(samples, path)
    assert read_samples(path) == samples


def test_samples_arity_mismatch(tmp_path):
    body = "format-version 1\nsample 1 2 99\nsample 1 99\n"
    with pytest.raises(SchemaError, match="arity"):
        read_samples(write_text(tmp_path, "s.txt", body))


def test_model_round_trip(tmp_path):
    model = TimingModel((3.5, 0.125, 2e-9), 1e-06)
    path = str(tmp_path / "model.txt")
    write_model(model, path)
    assert read_model(path) == model


def test_support_read_model_requires_both_lines(tmp_path):
    # a check of the test-side reader only: no command reads a model file back
    with pytest.raises(SchemaError, match="residual and coefficients"):
        read_model(write_text(tmp_path, "m.txt", "format-version 1\nresidual 0\n"))


# -- config ---------------------------------------------------------------------

def test_config_round_trip(tmp_path):
    cfg = SystemConfig(ways_per_socket=12, dm_penalty=1.5, sockets=1)
    path = str(tmp_path / "cfg.txt")
    write_config(cfg, path)
    assert read_config(path) == cfg
    # defaults are not written out
    text = open(path, encoding="utf-8").read()
    assert "gfactor" not in text


def test_config_errors(tmp_path):
    with pytest.raises(SchemaError, match="unknown config key"):
        read_config(write_text(tmp_path, "a.txt", "format-version 1\nconfig turbo 9\n"))
    with pytest.raises(SchemaError, match="bad value"):
        read_config(
            write_text(tmp_path, "b.txt", "format-version 1\nconfig sockets lots\n")
        )


# -- mixes -----------------------------------------------------------------------

MIX_TEXT = """format-version 1
mix demo medium
config ways_per_socket 12
config dm_penalty 1.5
process 0
start 250
alpha 3.5
max-ways 6
unmixed-ns 12345.5
phase warm 2 reuse 4194304
fixed-ns 1000
point 2 400
point 3 200
point 12 200
phase cruise 1 stream 20971520
point 2 100
process 1
phase only 1 reuse 1048576
point 2 50
end
"""


def test_mix_read_then_round_trip(tmp_path):
    src = write_text(tmp_path, "demo.mix", MIX_TEXT)
    m1 = read_mix(src)
    out = str(tmp_path / "again.mix")
    write_mix(m1, out)
    m2 = read_mix(out)
    assert m1 == m2


def test_mix_derives_phase_sensitivity(tmp_path):
    m = read_mix(write_text(tmp_path, "demo.mix", MIX_TEXT))
    assert m.name == "demo" and m.category == "medium"
    assert m.config_overrides == {"ways_per_socket": 12, "dm_penalty": 1.5}
    p0 = m.processes[0]
    assert (p0.start_ns, p0.alpha, p0.max_ways, p0.unmixed_ns) == (
        250.0, 3.5, 6, 12345.5,
    )
    warm, cruise = p0.phases
    # without the process override, the pair comes from the summed phase curves
    derived = replace(p0, alpha=None, max_ways=None)
    assert process_sensitivity(derived, mix_config(m)) == (200.0, 3)
    assert warm.fixed_ns == 1000.0
    assert cruise.fixed_ns is None  # resolved per run, see below
    assert cruise.reuse is ReuseClass.STREAM
    assert m.processes[1].phases[0].nbytes == 1048576


def test_mix_phase_without_fixed_ns_announces_full_width_time(tmp_path, monkeypatch):
    m = read_mix(write_text(tmp_path, "demo.mix", MIX_TEXT))
    announced = {}
    pcca = Apportioner.pcca

    def spy(self, t, pid, nbytes, reuse, predicted_ns):
        announced[pid, nbytes] = predicted_ns
        return pcca(self, t, pid, nbytes, reuse, predicted_ns)

    monkeypatch.setattr(Apportioner, "pcca", spy)
    run_mix(m, Policy("comcas"))
    # no fixed-ns: the cruise phase announces its curve's time at the run's 12 ways
    assert announced == {(0, 20971520): 100.0}


def test_mix_errors(tmp_path):
    with pytest.raises(SchemaError, match="not closed"):
        read_mix(write_text(tmp_path, "a.mix", "format-version 1\nmix m light\nprocess 0\nphase p 1 reuse 1\npoint 2 1\n"))
    with pytest.raises(SchemaError, match="content after 'end'"):
        read_mix(
            write_text(
                tmp_path,
                "b.mix",
                "format-version 1\nmix m light\nprocess 0\nphase p 1 reuse 1\npoint 2 1\nend\nprocess 1\n",
            )
        )
    with pytest.raises(SchemaError, match="no curve points"):
        read_mix(
            write_text(
                tmp_path,
                "c.mix",
                "format-version 1\nmix m light\nprocess 0\nphase p 1 reuse 1\nend\n",
            )
        )
    with pytest.raises(SchemaError, match="must precede"):
        read_mix(
            write_text(
                tmp_path,
                "d.mix",
                "format-version 1\nmix m light\nprocess 0\nconfig sockets 1\nphase p 1 reuse 1\npoint 2 1\nend\n",
            )
        )
    with pytest.raises(SchemaError, match="expected: mix"):
        read_mix(write_text(tmp_path, "e.mix", "format-version 1\nblend m light\n"))


FINITE_MIX = """format-version 1
mix m light
config dm_penalty 1.25
process 0
start 0
phase hot 100 reuse 1024
point 2 100
end
"""


@pytest.mark.parametrize("line, bad", [
    ("start 0", "start nan"),
    ("phase hot 100 reuse 1024", "phase hot inf reuse 1024"),
    ("point 2 100", "point 2 nan"),
    ("config dm_penalty 1.25", "config dm_penalty nan"),
], ids=["start", "work", "point", "config"])
def test_mix_rejects_non_finite_numbers(tmp_path, line, bad):
    lines = FINITE_MIX.splitlines()
    no = lines.index(line)
    lines[no] = bad
    path = write_text(tmp_path, "nf.mix", "\n".join(lines) + "\n")
    with pytest.raises(SchemaError, match=r"nf\.mix:%d: " % (no + 1)):
        read_mix(path)


# -- events ----------------------------------------------------------------------

EVENTS_TEXT = """format-version 1
config sockets 1
ipca 0 0 2.5 4 4194304 reuse 1000000
ipca 0 1 0 2 20971520 stream 500000
pcca 50.5 0 8388608 reuse 250000
release 100 1
"""


def test_events_round_trip(tmp_path):
    src = write_text(tmp_path, "t.events", EVENTS_TEXT)
    ev1, cfg1 = read_events(src)
    out = str(tmp_path / "again.events")
    write_events(ev1, out, cfg1)
    ev2, cfg2 = read_events(out)
    assert ev1 == ev2
    assert cfg1 == cfg2
    assert cfg1.sockets == 1


def test_events_read_as_line_tuples(tmp_path):
    ev, _ = read_events(write_text(tmp_path, "t.events", EVENTS_TEXT))
    expected = [
        ("ipca", 0.0, 0, 2.5, 4, 4194304, ReuseClass.REUSE, 1000000.0),
        ("ipca", 0.0, 1, 0.0, 2, 20971520, ReuseClass.STREAM, 500000.0),
        ("pcca", 50.5, 0, 8388608, ReuseClass.REUSE, 250000.0),
        ("release", 100.0, 1),
    ]
    assert ev == expected
    assert [list(map(type, e)) for e in ev] == [list(map(type, e)) for e in expected]


def test_events_errors(tmp_path):
    with pytest.raises(SchemaError, match="ipca takes"):
        read_events(write_text(tmp_path, "a.ev", "format-version 1\nipca 0 0\n"))
    with pytest.raises(SchemaError, match="stream|reuse"):
        read_events(
            write_text(
                tmp_path, "b.ev", "format-version 1\nipca 0 0 1 2 64 sideways 1\n"
            )
        )
    with pytest.raises(SchemaError, match="must precede"):
        read_events(
            write_text(
                tmp_path,
                "c.ev",
                "format-version 1\nrelease 0 0\nconfig sockets 1\n",
            )
        )
    with pytest.raises(SchemaError, match="unknown keyword"):
        read_events(write_text(tmp_path, "d.ev", "format-version 1\nfoo 1 2\n"))


# -- allocation log ----------------------------------------------------------------

def test_alloc_log_round_trip(tmp_path):
    src = write_text(
        tmp_path,
        "t.events",
        "format-version 1\nconfig sockets 1\n"
        "ipca 0 0 2.5 4 4194304 reuse 1000000\n"
        "ipca 0 1 0 2 4194304 reuse 1000000\n"
        "pcca 50.5 0 8388608 reuse 250000\n"
        "release 100 1\n",
    )
    ev, cfg = read_events(src)
    ap = replay_events(ev, cfg)
    path = str(tmp_path / "log.csv")
    write_alloc_log(ap.records, path, cfg)
    back = read_alloc_log(path)
    assert len(back) == len(ap.records)
    for orig, rt in zip(ap.records, back):
        assert (rt.time_ns, rt.pid, rt.event) == (orig.time_ns, orig.pid, orig.event)
        assert (rt.socket, rt.clos, rt.bitmask) == (
            orig.socket, orig.clos, orig.bitmask,
        )
        assert rt.scenario == orig.scenario
        assert rt.satisfied == orig.satisfied


def test_alloc_log_errors(tmp_path):
    with pytest.raises(SchemaError, match="header"):
        read_alloc_log(write_text(tmp_path, "a.csv", "time,pid\n"))
    head = "timestamp,pid,event,socket,clos,bitmask,scenario,satisfied\n"
    with pytest.raises(SchemaError, match="expected 8 columns"):
        read_alloc_log(write_text(tmp_path, "b.csv", head + "0,0,ipca\n"))
    with pytest.raises(SchemaError, match="unknown scenario"):
        read_alloc_log(
            write_text(
                tmp_path, "c.csv", head + "0,0,ipca,0,0,0x003,sideways,1\n"
            )
        )
    with pytest.raises(SchemaError, match=r"c?:\d+|invalid"):
        read_alloc_log(
            write_text(
                tmp_path, "d.csv", head + "0,zz,ipca,0,0,0x003,overlapping,1\n"
            )
        )
    for t in ("nan", "inf"):
        with pytest.raises(SchemaError, match=r"e\.csv:2: timestamp"):
            read_alloc_log(
                write_text(tmp_path, "e.csv", head + t + ",0,ipca,0,0,0x003,overlapping,1\n")
            )


def test_table_csv_renders_floats_round_trip(tmp_path):
    path = str(tmp_path / "t.csv")
    write_table_csv(path, ("a", "b"), [(0.1, "x"), (1 / 3, 7)])
    lines = open(path, encoding="utf-8").read().splitlines()
    assert lines[0] == "# format-version 1"
    assert lines[1] == "a,b"
    assert float(lines[2].split(",")[0]) == 0.1
    assert float(lines[3].split(",")[0]) == 1 / 3
    assert lines[3].split(",")[1] == "7"


# -- malformed lines -------------------------------------------------------------

V = "format-version 1\n"
MIX_HEAD = V + "mix m light\nprocess 0\n"

# (reader, file text); the error must name the line marked with '>'
MALFORMED = {
    "attrs-reuse": (read_attributes, V + "attrs p\nfootprint 1 1 1\n>reuse\nalpha 0\nmax-ways 2\nend"),
    "attrs-footprint": (read_attributes, V + "attrs p\n>footprint 1 2\nreuse stream\nalpha 0\nmax-ways 2\nend"),
    "attrs-alpha": (read_attributes, V + "attrs p\nfootprint 1 1 1\nreuse stream\n>alpha\nmax-ways 2\nend"),
    "attrs-max-ways": (read_attributes, V + "attrs p\nfootprint 1 1 1\nreuse stream\nalpha 0\n>max-ways\nend"),
    "mix-start": (read_mix, MIX_HEAD + ">start\nphase p 1 reuse 1\npoint 2 1\nend"),
    "mix-alpha": (read_mix, MIX_HEAD + ">alpha\nphase p 1 reuse 1\npoint 2 1\nend"),
    "mix-unmixed-ns": (read_mix, MIX_HEAD + ">unmixed-ns\nphase p 1 reuse 1\npoint 2 1\nend"),
    "mix-fixed-ns": (read_mix, MIX_HEAD + "phase p 1 reuse 1\n>fixed-ns\npoint 2 1\nend"),
    "mix-process": (read_mix, V + "mix m light\n>process\nphase p 1 reuse 1\npoint 2 1\nend"),
    "mix-point": (read_mix, MIX_HEAD + "phase p 1 reuse 1\n>point 2\nend"),
    "mix-version-only": (read_mix, ">format-version 1"),
    "mix-category": (read_mix, V + ">mix m bogus\nprocess 0\nphase p 1 reuse 1\npoint 2 1\nend"),
    "mix-repeated-pid": (read_mix, MIX_HEAD + "phase p 1 reuse 1\npoint 2 1\n>process 0\nphase q 1 reuse 1\npoint 2 1\nend"),
    "model-residual": (read_model, V + ">residual\ncoefficients 1"),
    "end-arguments": (read_curves, V + "curve a\npoint 2 1\n>end a"),
    "mix-config": (read_mix, V + "mix m light\n>config ways_per_socket 1\nprocess 0\nphase p 1 reuse 1\npoint 2 1\nend"),
    "config-file": (read_config, V + "config sockets 1\n>config ways_per_socket 1"),
    "events-config": (read_events, V + ">config sockets 0\nrelease 0 0"),
    "events-line-size": (read_events, V + ">config line_size 0\nipca 0 0 0 2 64 reuse 1"),
    "mix-phase-curve": (read_mix, MIX_HEAD + ">phase p 1 reuse 1\npoint 3 1\nend"),
    "mix-repeated-start": (read_mix, MIX_HEAD + "start 5\nphase p 1 reuse 1\n>start 9\npoint 2 1\nend"),
    "mix-repeated-alpha": (read_mix, MIX_HEAD + "alpha 1\n>alpha 2\nphase p 1 reuse 1\npoint 2 1\nend"),
    "mix-repeated-fixed-ns": (read_mix, MIX_HEAD + "phase p 1 reuse 1\nfixed-ns 1\npoint 2 1\n>fixed-ns 2\nend"),
    "attrs-repeated-footprint": (read_attributes, V + "attrs p\nfootprint 1 1 1\n>footprint 2 1 1\nreuse stream\nalpha 0\nmax-ways 2\nend"),
    "attrs-repeated-fixed-ns": (read_attributes, V + "attrs p\nfootprint 1 1 1\nreuse stream\nalpha 0\nmax-ways 2\nfixed-ns 1\n>fixed-ns 1\nend"),
    "model-repeated-coefficients": (read_model, V + "residual 0\ncoefficients 1\n>coefficients 2"),
    # out-of-range values the simulator cannot run
    "mix-max-ways-negative": (read_mix, MIX_HEAD + "alpha 1\n>max-ways -2\nphase p 1 reuse 1\npoint 2 1\nend"),
    "mix-max-ways-zero": (read_mix, MIX_HEAD + "alpha 1\n>max-ways 0\nphase p 1 reuse 1\npoint 2 1\nend"),
    "mix-phase-work-zero": (read_mix, MIX_HEAD + ">phase p 0 reuse 1\npoint 2 1\nend"),
    "mix-phase-bytes-negative": (read_mix, MIX_HEAD + ">phase p 1 reuse -5\npoint 2 1\nend"),
    "mix-unmixed-ns-zero": (read_mix, MIX_HEAD + ">unmixed-ns 0\nphase p 1 reuse 1\npoint 2 1\nend"),
    "events-ipca-max-ways-zero": (read_events, V + ">ipca 0 0 0 0 64 reuse 1"),
    "events-ipca-bytes-negative": (read_events, V + ">ipca 0 0 0 2 -1 reuse 1"),
    "events-pcca-bytes-negative": (read_events, V + "ipca 0 0 0 2 64 reuse 1\n>pcca 1 0 -1 reuse 1"),
    # a duration must be positive and alpha, a sum of absolute differences, >= 0
    "mix-fixed-ns-negative": (read_mix, MIX_HEAD + "phase p 1 reuse 1\n>fixed-ns -1000000000\npoint 2 1\nend"),
    "mix-fixed-ns-zero": (read_mix, MIX_HEAD + "phase p 1 reuse 1\n>fixed-ns 0\npoint 2 1\nend"),
    "attrs-fixed-ns-zero": (read_attributes, V + "attrs p\nfootprint 1 1 1\nreuse stream\nalpha 0\nmax-ways 2\n>fixed-ns 0\nend"),
    "mix-alpha-negative": (read_mix, MIX_HEAD + ">alpha -3\nmax-ways 3\nphase p 1 reuse 1\npoint 2 1\nend"),
    "attrs-alpha-negative": (read_attributes, V + "attrs p\nfootprint 1 1 1\nreuse stream\n>alpha -3\nmax-ways 2\nfixed-ns 1\nend"),
    "events-ipca-alpha-negative": (read_events, V + ">ipca 0 0 -3 2 64 reuse 1"),
}
# a SystemConfig value out of range is pinned to its config line
MALFORMED.update(
    ("mix-config-" + key, (read_mix, V + "mix m light\n>config %s %s\nprocess 0\nphase p 1 reuse 1\npoint 2 1\nend" % (key, val)))
    for key, val in (
        ("dm_penalty", "0.5"), ("hysteresis_ways", "-3"), ("cache_bytes", "0"),
        ("srd_delta", "-1"), ("alpha_socket_threshold", "-5"), ("saturation_epsilon", "0"),
    )
)


@pytest.mark.parametrize("reader, text", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_lines_name_file_and_line(tmp_path, reader, text):
    no = [ln[:1] for ln in text.split("\n")].index(">") + 1
    path = write_text(tmp_path, "bad.txt", text.replace(">", "") + "\n")
    with pytest.raises(SchemaError, match=r"bad\.txt:%d: " % no):
        reader(path)


def test_once_per_block_lines_repeat_across_blocks(tmp_path):
    text = MIX_HEAD + "start 5\nphase p 1 reuse 1\nfixed-ns 1\npoint 2 1\nphase q 1 reuse 1\nfixed-ns 2\npoint 2 1\nprocess 1\nstart 9\nphase r 1 reuse 1\npoint 2 1\nend\n"
    mix = read_mix(write_text(tmp_path, "ok.mix", text))
    assert [p.start_ns for p in mix.processes] == [5.0, 9.0]
    assert [ph.fixed_ns for ph in mix.processes[0].phases] == [1.0, 2.0]


def test_non_utf8_bytes_name_their_line(tmp_path):
    p = tmp_path / "c.txt"
    p.write_bytes(b"format-version 1\r\ncurve a\r\npoint 2 \xff\r\nend\r\n")
    with pytest.raises(SchemaError, match=r"c\.txt:3: not UTF-8"):
        read_curves(str(p))


# -- mutation fuzz ------------------------------------------------------------------

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FUZZ_TOKENS = (
    "nan", "inf", "-inf", "x", "-1", "0", "1", "2", "1.5", "end", "reuse",
    "stream", "estimated", "config", "point", "phase", "process", "mix",
)


def fuzz_inputs(tmp_path):
    """(reader, text) for every bundled mix and fixture trace, plus nests,
    curves, attrs, samples and a model written through the grammar."""
    out = [(read_mix, p) for p in sorted(glob.glob(os.path.join(ROOT, "mixes", "*", "*.mix")))]
    out += [(read_events, p) for p in sorted(glob.glob(os.path.join(ROOT, "tests", "fixtures", "*.events")))]
    rng = random.Random(5)
    curves = {
        "a": way_time_curve({2: 300.0, 3: 200.0, 5: 150.0}),
        "b": way_time_curve({2: 0.5}),
    }
    attrs = [
        ProbeAttributes("p", FootprintValue(4096, 64, True), ReuseClass.REUSE, 0.5, 4, 2.5e7),
        ProbeAttributes("q", FootprintValue(123, 2, False), ReuseClass.STREAM, 0.0, 2, 77.7),
    ]
    samples = [TrainingSample((10.0, 20.0), 123.456), TrainingSample((1.5, 2.5), 0.25)]
    for reader, writer, obj in (
        (read_nests, write_nests, [random_affine_nest(rng, "n%d" % k) for k in range(3)]),
        (read_curves, write_curves, curves),
        (read_attributes, write_attributes, attrs),
        (read_samples, write_samples, samples),
        (read_model, write_model, TimingModel((3.5, 0.125), 1e-6)),
    ):
        path = str(tmp_path / reader.__name__)
        writer(obj, path)
        out.append((reader, path))
    return [(reader, open(p, encoding="utf-8").read()) for reader, p in out]


def mutate(rng, text):
    """Drop, insert or replace one token, or delete or duplicate one line."""
    lines = text.split("\n")
    no = rng.choice([i for i, ln in enumerate(lines) if ln.split("#")[0].split()])
    toks = lines[no].split("#")[0].split()
    op = rng.randrange(5)
    if op == 0:
        del toks[rng.randrange(len(toks))]
    elif op == 1:
        toks.insert(rng.randrange(len(toks) + 1), rng.choice(FUZZ_TOKENS))
    elif op == 2:
        toks[rng.randrange(len(toks))] = rng.choice(FUZZ_TOKENS)
    if op == 3:
        del lines[no]
    elif op == 4:
        lines.insert(no, lines[no])
    else:
        lines[no] = " ".join(toks)
    return "\n".join(lines)


def test_mutants_parse_or_raise_schema_error_with_line(tmp_path):
    rng = random.Random(2024)
    inputs = fuzz_inputs(tmp_path)
    path = str(tmp_path / "mutant.txt")
    for k in range(500):
        reader, text = inputs[k % len(inputs)]
        mutant = mutate(rng, text)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(mutant)
        try:
            reader(path)
        except SchemaError as exc:
            assert re.match(re.escape(path) + r":\d+: ", str(exc)), (str(exc), mutant)
        except Exception as exc:
            pytest.fail("%s raised %r on mutant %d:\n%s" % (reader.__name__, exc, k, mutant))
