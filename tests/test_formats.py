"""Text format round trips and failure diagnostics.

Round-trip laws use object equality: every float is rendered with %.17g, so a
write followed by a read must reproduce the value bit for bit.
"""

import glob
import os
import random
import re
import sys
from dataclasses import replace

import pytest

from cacheways import formats
from cacheways.apportion import Apportioner, ReuseClass, Scenario, SystemConfig, replay_events
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
    write_mix,
    write_model,
    write_table_csv,
)
from cacheways.loops import (
    Affine,
    ArrayDecl,
    Bound,
    LoopLevel,
    LoopNest,
    MemoryAccess,
    Statement,
)
from cacheways.simulate import (
    MixSpec,
    PhaseSpec,
    Policy,
    ProcessSpec,
    mix_config,
    process_sensitivity,
    run_mix,
)
from cacheways.timing import TimingModel, TrainingSample

from oracles import random_affine_nest
from support import FIXED_RULES, read_model, way_time_curve
from support import write_config, write_curves, write_nests, write_samples


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
    # analyze's output is a one-process light mix that read_mix reads back
    phases = (
        PhaseSpec("ph0", 1e8 / 3, ReuseClass.REUSE, 4096,
                  way_time_curve({2: 0.30000000000000004, 5: 0.1}), 1e8 / 3),
        PhaseSpec("ph1", 77.7, ReuseClass.STREAM, 123, way_time_curve({2: 77.7}), 77.7),
    )
    path = str(tmp_path / "attrs.mix")
    write_attributes(phases, path)
    assert read_mix(path) == MixSpec("analyzed", "light", (ProcessSpec(0, phases),))


def test_attributes_errors(tmp_path):
    # an unclosed mix is the package grammar's error
    path = str(tmp_path / "attrs.mix")
    write_attributes([PhaseSpec("p", 1.0, ReuseClass.STREAM, 1, way_time_curve({2: 1.0}))], path)
    text = open(path, encoding="utf-8").read()
    with pytest.raises(SchemaError, match="not closed"):
        read_mix(write_text(tmp_path, "c.mix", text[: text.rindex("end")]))


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
    cfg = SystemConfig(ways_per_socket=12, clos_per_socket=8, sockets=1)
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
config clos_per_socket 8
process 0
start 250
alpha 3.5
max-ways 6
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
    assert m.config_overrides == {"ways_per_socket": 12, "clos_per_socket": 8}
    p0 = m.processes[0]
    assert (p0.start_ns, p0.alpha, p0.max_ways) == (250.0, 3.5, 6)
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
config gfactor 4
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
    ("config gfactor 4", "config gfactor nan"),
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
    path = str(tmp_path / "alloc.log")
    write_alloc_log(ap.records, path, cfg)
    back, back_cfg = read_alloc_log(path)
    assert (back, back_cfg) == (ap.records, cfg)
    assert [list(map(type, r)) for r in back] == [list(map(type, r)) for r in ap.records]
    assert open(path, encoding="utf-8").read().splitlines()[1:3] == [
        "config sockets 1",
        "record 0 0 ipca 0 0 0xf underutilized 1 4 4 2.5 1",
    ]


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

# (reader, file text); the error must name the line marked with '>', and
# begin with the row's entry in MESSAGES, if it has one
MALFORMED = {
    "mix-start": (read_mix, MIX_HEAD + ">start\nphase p 1 reuse 1\npoint 2 1\nend"),
    "mix-alpha": (read_mix, MIX_HEAD + ">alpha\nphase p 1 reuse 1\npoint 2 1\nend"),
    "mix-max-ways": (read_mix, MIX_HEAD + "alpha 1\n>max-ways\nphase p 1 reuse 1\npoint 2 1\nend"),
    "mix-unmixed-ns": (read_mix, MIX_HEAD + ">unmixed-ns 5\nphase p 1 reuse 1\npoint 2 1\nend"),
    "mix-fixed-ns": (read_mix, MIX_HEAD + "phase p 1 reuse 1\n>fixed-ns\npoint 2 1\nend"),
    "mix-process": (read_mix, V + "mix m light\n>process\nphase p 1 reuse 1\npoint 2 1\nend"),
    "mix-point": (read_mix, MIX_HEAD + "phase p 1 reuse 1\n>point 2\nend"),
    "mix-version-only": (read_mix, ">format-version 1"),
    "mix-category": (read_mix, V + ">mix m bogus\nprocess 0\nphase p 1 reuse 1\npoint 2 1\nend"),
    "mix-repeated-pid": (read_mix, MIX_HEAD + "phase p 1 reuse 1\npoint 2 1\n>process 0\nphase q 1 reuse 1\npoint 2 1\nend"),
    "model-residual": (read_model, V + ">residual\ncoefficients 1"),
    "samples-empty": (read_samples, ">" + V + "# no sample yet"),
    "samples-bound-negative": (read_samples, V + "sample 1 2 10\n>sample -5 2 100"),
    "samples-time-negative": (read_samples, V + ">sample 1 2 -1"),
    "end-arguments": (read_curves, V + "curve a\npoint 2 1\n>end a"),
    "mix-config": (read_mix, V + "mix m light\n>config ways_per_socket 1\nprocess 0\nphase p 1 reuse 1\npoint 2 1\nend"),
    "config-file": (read_config, V + "config sockets 1\n>config ways_per_socket 1"),
    "events-config": (read_events, V + ">config sockets 0\nrelease 0 0"),
    "events-line-size": (read_events, V + ">config line_size 0\nipca 0 0 0 2 64 reuse 1"),
    "mix-phase-curve": (read_mix, MIX_HEAD + ">phase p 1 reuse 1\npoint 3 1\nend"),
    "mix-repeated-start": (read_mix, MIX_HEAD + "start 5\nphase p 1 reuse 1\n>start 9\npoint 2 1\nend"),
    "mix-repeated-alpha": (read_mix, MIX_HEAD + "alpha 1\n>alpha 2\nphase p 1 reuse 1\npoint 2 1\nend"),
    "mix-repeated-alpha-after-phase": (read_mix, MIX_HEAD + "alpha 1\nphase p 1 reuse 1\npoint 2 1\n>alpha 2\nend"),
    "mix-repeated-fixed-ns": (read_mix, MIX_HEAD + "phase p 1 reuse 1\nfixed-ns 1\npoint 2 1\n>fixed-ns 2\nend"),
    "model-repeated-coefficients": (read_model, V + "residual 0\ncoefficients 1\n>coefficients 2"),
    # out-of-range values the simulator cannot run
    "mix-max-ways-negative": (read_mix, MIX_HEAD + "alpha 1\n>max-ways -2\nphase p 1 reuse 1\npoint 2 1\nend"),
    "mix-max-ways-zero": (read_mix, MIX_HEAD + "alpha 1\n>max-ways 0\nphase p 1 reuse 1\npoint 2 1\nend"),
    "mix-phase-work-zero": (read_mix, MIX_HEAD + ">phase p 0 reuse 1\npoint 2 1\nend"),
    "mix-phase-bytes-negative": (read_mix, MIX_HEAD + ">phase p 1 reuse -5\npoint 2 1\nend"),
    "events-ipca-max-ways-zero": (read_events, V + ">ipca 0 0 0 0 64 reuse 1"),
    "events-ipca-bytes-negative": (read_events, V + ">ipca 0 0 0 2 -1 reuse 1"),
    "events-pcca-bytes-negative": (read_events, V + "ipca 0 0 0 2 64 reuse 1\n>pcca 1 0 -1 reuse 1"),
    # a duration must be positive and alpha, a sum of absolute differences, >= 0
    "mix-fixed-ns-negative": (read_mix, MIX_HEAD + "phase p 1 reuse 1\n>fixed-ns -1000000000\npoint 2 1\nend"),
    "mix-fixed-ns-zero": (read_mix, MIX_HEAD + "phase p 1 reuse 1\n>fixed-ns 0\npoint 2 1\nend"),
    "mix-alpha-negative": (read_mix, MIX_HEAD + ">alpha -3\nmax-ways 3\nphase p 1 reuse 1\npoint 2 1\nend"),
    "events-ipca-alpha-negative": (read_events, V + ">ipca 0 0 -3 2 64 reuse 1"),
    # a start so far from 0 that even the shortest phase would not move the clock
    "mix-start-absorbed": (read_mix, MIX_HEAD + ">start 1e308\nphase p 1 reuse 1\npoint 2 1\nend"),
    "mix-start-absorbed-negative": (read_mix, MIX_HEAD + ">start -1e308\nphase p 1 reuse 1\npoint 2 1\nend"),
    "mix-start-absorbed-late-phase": (
        read_mix, MIX_HEAD + "phase p 1 reuse 1\npoint 2 1000\n>start 1e17\nphase q 1 reuse 1\npoint 2 8\nend"),
    # numbers whose speed, clock or float mass leave the float range
    "mix-phase-speed-zero": (read_mix, MIX_HEAD + ">phase p 1e-320 reuse 1000\npoint 2 1e300\nend"),
    "mix-phase-speed-inf": (read_mix, MIX_HEAD + ">phase p 1e308 reuse 1000\npoint 2 1e-300\nend"),
    "mix-phase-speed-inf-late-point": (read_mix, MIX_HEAD + ">phase p 1e300 reuse 1000\npoint 2 1\npoint 5 1e-10\nend"),
    "mix-clock-past-float-range": (
        read_mix, V + "mix m light\n>process 0\nphase p 1 reuse 1\npoint 2 1e308\nphase q 1 reuse 1\npoint 2 1e308\nend"),
    "mix-start-past-float-range": (read_mix, V + "mix m light\n>process 0\nstart 1e308\nphase p 1 reuse 1\npoint 2 1e308\nend"),
    "mix-phase-bytes-past-float-range": (read_mix, MIX_HEAD + ">phase p 1 reuse %d\npoint 2 1\nend" % 10**400),
    "events-ipca-bytes-past-float-range": (read_events, V + ">ipca 0 0 0 2 %d reuse 1" % 10**400),
    "events-pcca-bytes-past-float-range": (read_events, V + "ipca 0 0 0 2 64 reuse 1\n>pcca 1 0 %d reuse 1" % 10**400),
    "samples-product-past-float-range": (read_samples, V + "sample 1 2 10\n>sample 1e300 1e300 10"),
    "samples-product-nan": (read_samples, V + ">sample 1e300 1e300 0 10"),
    # finite products whose squares, which the fit takes, are not
    "samples-square-past-float-range": (read_samples, V + "sample 1 2 10\n>sample 1e200 1e100 10"),
    "samples-square-past-float-range-single": (read_samples, V + ">sample 1e160 10"),
}
# a key no field has is pinned to its config line; a rule fixed by design
# is no key, in a mix or a config file
MALFORMED.update(
    ("mix-config-" + key, (read_mix, V + "mix m light\n>config %s %s\nprocess 0\nphase p 1 reuse 1\npoint 2 1\nend" % (key, val)))
    for key, val in (("cache_bytes", "0"), *((key, "1") for key in FIXED_RULES))
)
MALFORMED.update(("config-file-" + key, (read_config, V + ">config %s 1" % key)) for key in FIXED_RULES)

# an allocation log's record with one field replaced
LOG_RECORD = "record 0 0 ipca 0 0 0x3 overlapping 1 2 2 0.5 1".split()
MALFORMED.update(
    ("log-" + name, (read_alloc_log, V + "config sockets 1\n>" + " ".join(LOG_RECORD[:i] + [tok] + LOG_RECORD[i + 1:])))
    for name, (i, tok) in {
        "time-nan": (1, "nan"), "time-inf": (1, "inf"), "pid": (2, "zz"), "event": (3, "admit"),
        "mask": (6, "0xg"), "mask-negative": (6, "-0x1"), "scenario": (7, "sideways"),
        "satisfied": (8, "2"), "alpha-negative": (11, "-1"), "changed": (12, "true"),
    }.items()
)
MALFORMED.update({
    "log-csv": (read_alloc_log, ">timestamp,pid,event,socket,clos,bitmask,scenario,satisfied\n0,0,ipca,0,0,0x003,overlapping,1"),
    "log-arity": (read_alloc_log, V + ">record 0 0 ipca 0 0 0x3 overlapping 1"),
    "log-keyword": (read_alloc_log, V + ">ipca 0 0 0 2 64 reuse 1"),
    "log-config": (read_alloc_log, V + ">config sockets 0\n" + " ".join(LOG_RECORD)),
    "log-config-after-record": (read_alloc_log, V + " ".join(LOG_RECORD) + "\n>config sockets 1"),
})


MESSAGES = {
    "mix-unmixed-ns": "unknown keyword 'unmixed-ns'",
    "mix-repeated-alpha-after-phase": "repeated alpha; first at line 4",
    "samples-bound-negative": "sample: bad value '-5', expected a finite number >= 0",
    "samples-time-negative": "sample: bad value '-1', expected a finite number >= 0",
    "log-time-nan": "record: bad value 'nan', expected a finite number",
    "log-event": "record: bad value 'admit', expected ipca|pcca|release",
    "log-mask": "record: bad value '0xg', expected a hex mask >= 0",
    "log-mask-negative": "record: bad value '-0x1', expected a hex mask >= 0",
    "log-scenario": "record: bad value 'sideways', expected full-disjoint|overlapping|underutilized",
    "log-satisfied": "record: bad value '2', expected 0|1",
    "log-changed": "record: bad value 'true', expected 0|1",
    "log-csv": "expected 'format-version 1'",
    "log-arity": "record takes t pid event",
    "log-keyword": "unknown keyword 'ipca'",
    "log-config-after-record": "config lines must precede records",
    "events-line-size": "unknown config key 'line_size'",
    "mix-phase-speed-zero": "phase 'p': work 1e-320 over 1e+300 ns at 2 ways is not a positive finite speed",
    "mix-phase-speed-inf": "phase 'p': work 1e+308 over 1e-300 ns at 2 ways is not a positive finite speed",
    "mix-phase-speed-inf-late-point": "phase 'p': work 1e+300 over 1e-10 ns at 5 ways is not a positive finite speed",
    "mix-clock-past-float-range": "process 0: its start plus its phases' shortest times leaves the float range",
    "mix-start-past-float-range": "process 0: its start plus its phases' shortest times leaves the float range",
    "mix-phase-bytes-past-float-range": "phase: bad value '%d', expected an integer >= 0 within the float range" % 10**400,
    "events-ipca-bytes-past-float-range": "ipca: bad value '%d', expected an integer >= 0 within the float range" % 10**400,
    "events-pcca-bytes-past-float-range": "pcca: bad value '%d', expected an integer >= 0 within the float range" % 10**400,
    "samples-product-past-float-range": "sample: a product of its trip counts leaves the float range",
    "samples-product-nan": "sample: a product of its trip counts leaves the float range",
    "samples-square-past-float-range": "sample: a product of its trip counts leaves the float range when squared",
    "samples-square-past-float-range-single": "sample: a product of its trip counts leaves the float range when squared",
}
MESSAGES.update(
    (kind + key, "unknown config key %r" % key) for key in FIXED_RULES for kind in ("mix-config-", "config-file-")
)


@pytest.mark.parametrize("name", MALFORMED, ids=MALFORMED.keys())
def test_malformed_lines_name_file_and_line(tmp_path, name):
    reader, text = MALFORMED[name]
    no = [ln[:1] for ln in text.split("\n")].index(">") + 1
    path = write_text(tmp_path, "bad.txt", text.replace(">", "") + "\n")
    with pytest.raises(SchemaError, match=r"bad\.txt:%d: %s" % (no, re.escape(MESSAGES.get(name, "")))):
        reader(path)


@pytest.mark.parametrize("text, no", [
    # a repeated field (line 5) is found after every line's own checks
    (MIX_HEAD + "start 5\nstart 6\nphase p 1 reuse 1\npoint 2 x\nend", 7),
    # so is a config key SystemConfig does not have (line 3)
    (V + "mix m light\nconfig turbo 9\nprocess 0\nphase p 1 reuse 1\npoint 2 x\nend", 6),
], ids=["repeated-field", "config-key"])
def test_line_faults_come_before_block_faults(tmp_path, text, no):
    path = write_text(tmp_path, "two.mix", text + "\n")
    with pytest.raises(SchemaError, match=r"two\.mix:%d: point: bad value 'x'" % no):
        read_mix(path)


def test_once_per_block_lines_repeat_across_blocks(tmp_path):
    text = MIX_HEAD + "start 5\nphase p 1 reuse 1\nfixed-ns 1\npoint 2 1\nphase q 1 reuse 1\nfixed-ns 2\npoint 2 1\nprocess 1\nstart 9\nphase r 1 reuse 1\npoint 2 1\nend\n"
    mix = read_mix(write_text(tmp_path, "ok.mix", text))
    assert [p.start_ns for p in mix.processes] == [5.0, 9.0]
    assert [ph.fixed_ns for ph in mix.processes[0].phases] == [1.0, 2.0]


def test_start_that_the_shortest_phase_moves_parses(tmp_path):
    # 1e17 + 8 rounds back to 1e17 (the spacing there is 16), 1e17 + 16 does not
    text = MIX_HEAD + "start 1e17\nphase p 1 reuse 1\npoint 2 1000\npoint 3 16\nend\n"
    mix = read_mix(write_text(tmp_path, "ok.mix", text))
    assert mix.processes[0].start_ns == 1e17


def test_values_at_the_edge_of_the_float_range_parse(tmp_path):
    # the largest byte count a float holds, a speed and a clock just inside the
    # range, and a trip-count product whose square, which the fit takes, is too
    top = int(sys.float_info.max)
    text = MIX_HEAD + "phase p 1 reuse %d\npoint 2 8e307\nphase q 1 reuse 1\npoint 2 8e307\n" % top
    text += "phase r 1e-300 reuse 1\npoint 2 1e20\nend\n"  # speed 1e-320, a subnormal
    mix = read_mix(write_text(tmp_path, "ok.mix", text))
    assert [ph.nbytes for ph in mix.processes[0].phases] == [top, 1, 1]
    assert read_samples(write_text(tmp_path, "ok.txt", V + "sample 1e77 1.3e77 10\n"))[0].bounds == (1e77, 1.3e77)


def test_non_utf8_bytes_name_their_line(tmp_path):
    p = tmp_path / "c.txt"
    p.write_bytes(b"format-version 1\r\ncurve a\r\npoint 2 \xff\r\nend\r\n")
    with pytest.raises(SchemaError, match=r"c\.txt:3: not UTF-8"):
        read_curves(str(p))


# -- the grammar --------------------------------------------------------------------

# a random value of each argument type, as the reader returns it
TYPE_VALUES = {
    "name": lambda rng: rng.choice(("a", "n0", "hot-loop", "x_1", "0x1")),
    "int": lambda rng: rng.randint(-10**12, 10**12),
    "float": lambda rng: rng.choice((0.0, -2.5, 1 / 3, 1e-300, -6.02e23, rng.uniform(-1e9, 1e9))),
    "bytes": lambda rng: rng.randint(0, 1 << 40),
    "ways": lambda rng: rng.randint(1, 64),
    "positive": lambda rng: rng.choice((5e-324, 1 / 3, rng.uniform(1e-9, 1e12))),
    "nonneg": lambda rng: rng.choice((0.0, 1 / 3, rng.uniform(0.0, 1e12))),
    "reuse": lambda rng: rng.choice(list(ReuseClass)),
    "estimated": lambda rng: "estimated",
    "mask": lambda rng: rng.choice((0, 1, rng.getrandbits(64))),
    "scenario": lambda rng: rng.choice(list(Scenario)),
    "event": lambda rng: rng.choice(("ipca", "pcca", "release")),
    "flag": lambda rng: rng.choice((False, True)),
}


def test_every_keyword_line_reads_back_value_equal(tmp_path):
    """For every keyword and every arity up to 16 that the grammar allows, a
    rendered line reads back through the one reader with equal values of
    the same types."""
    assert set(TYPE_VALUES) == set(formats._TYPES)
    rng = random.Random(20)
    path = str(tmp_path / "line.txt")
    arities = {}
    for kw in formats._KEYWORDS:
        for n in range(17):
            shape = formats._shape(kw, n)
            if shape is None:
                continue
            arities.setdefault(kw, []).append(n)
            for _ in range(4):
                vals = [TYPE_VALUES[t](rng) for t in shape[0]]
                write_text(tmp_path, "line.txt", V + formats._render(kw, *vals) + "\n")
                ((no, back_kw, back),) = formats._Reader(path, {kw}).lines
                assert (no, back_kw, back) == (2, kw, vals)
                assert list(map(type, back)) == list(map(type, vals))
    assert set(arities) == set(formats._KEYWORDS)
    assert arities["record"] == [12] and arities["loop"] == [2, 3]
    assert arities["access"] == [4, 6, 8, 10, 12, 14, 16]


# -- mutation fuzz ------------------------------------------------------------------

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FUZZ_TOKENS = (
    "nan", "inf", "-inf", "x", "-1", "0", "1", "2", "1.5", "end", "reuse",
    "stream", "estimated", "config", "point", "phase", "process", "mix",
)


def fuzz_inputs(tmp_path):
    """(reader, text) for every bundled mix and fixture trace, plus nests,
    curves, an analyzed mix, samples and a model written through the grammar."""
    out = [(read_mix, p) for p in sorted(glob.glob(os.path.join(ROOT, "mixes", "*", "*.mix")))]
    out += [(read_events, p) for p in sorted(glob.glob(os.path.join(ROOT, "tests", "fixtures", "*.events")))]
    rng = random.Random(5)
    curves = {
        "a": way_time_curve({2: 300.0, 3: 200.0, 5: 150.0}),
        "b": way_time_curve({2: 0.5}),
    }
    phases = [
        PhaseSpec("p", 2.5e7, ReuseClass.REUSE, 4096, curves["a"], 2.5e7),
        PhaseSpec("q", 77.7, ReuseClass.STREAM, 123, curves["b"], 77.7),
    ]
    samples = [TrainingSample((10.0, 20.0), 123.456), TrainingSample((1.5, 2.5), 0.25)]
    for reader, writer, obj in (
        (read_nests, write_nests, [random_affine_nest(rng, "n%d" % k) for k in range(3)]),
        (read_curves, write_curves, curves),
        (read_mix, write_attributes, phases),
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
