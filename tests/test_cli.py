"""End-to-end subcommand runs through cli.main with exit-code checks."""

import ast
import dataclasses
import glob
import os
import random
import subprocess
import sys

import pytest

from cacheways import cli, formats
from cacheways.apportion import Apportioner, ReuseClass, SystemConfig
from cacheways.errors import CacheWaysError
from cacheways.cli import main
from cacheways.loops import (
    Affine,
    ArrayDecl,
    Bound,
    LoopLevel,
    LoopNest,
    MemoryAccess,
    Statement,
)
from cacheways.simulate import MixSpec, PhaseSpec, Policy, ProcessSpec, mix_config, run_mix
from cacheways.timing import TrainingSample

from support import FIXED_RULES, child_env, read_model, way_time_curve
from support import write_config, write_curves, write_nests, write_samples

MIX_TEXT = """format-version 1
mix tiny light
config sockets 1
process 0
phase a 1 reuse 2097152
point 2 200
point 3 100
point 11 100
process 1
phase b 1 stream 20971520
point 2 400
end
"""


def unit_stride_nest(name, trips):
    return LoopNest(
        name=name,
        loops=(LoopLevel("i", Bound(trips)),),
        statements=(
            Statement((MemoryAccess("A", 8, Affine(0, (("i", 1),)), "read"),), 1),
        ),
    )


def indirect_nest(name, trips):
    return LoopNest(
        name=name,
        loops=(LoopLevel("i", Bound(trips)),),
        statements=(Statement((MemoryAccess("B", 4, None, "read"),), 1),),
        arrays=(ArrayDecl("B", 1000, 4),),
    )


@pytest.fixture
def analyze_inputs(tmp_path):
    nests = [unit_stride_nest("n0", 100), indirect_nest("n1", 50)]
    npath = str(tmp_path / "nests.txt")
    write_nests(nests, npath)
    curves = {
        "n0": way_time_curve({2: 400.0, 3: 200.0, 11: 200.0}),
        "n1": way_time_curve({2: 100.0}),
    }
    cpath = str(tmp_path / "curves.txt")
    write_curves(curves, cpath)
    return npath, cpath


# one phase per nest, in file order: work and fixed-ns are the curve's time
# at its last way, then the reuse class, the footprint bytes and the curve
ANALYZE_MIX = """format-version 1
mix analyzed light
process 0
phase n0 200 stream 800
fixed-ns 200
point 2 400
point 3 200
point 11 200
phase n1 100 reuse 4000
fixed-ns 100
point 2 100
end
"""


def test_analyze_writes_attributes(tmp_path, analyze_inputs, capsys):
    npath, cpath = analyze_inputs
    out = str(tmp_path / "app.mix")
    code = main(["analyze", "--nests", npath, "--curves", cpath, "--out", out])
    assert code == 0
    # n0 is one pass over A, no line revisited later: a stream
    assert capsys.readouterr().out.splitlines() == [
        "n0: 800 bytes / 13 lines, stream, alpha 200, max-ways 3",
        "n1: 4000 bytes / 63 lines (upper bound), reuse, alpha 0, max-ways 2",
        "wrote a mix of 2 phases to %s" % out,
    ]
    with open(out, encoding="utf-8") as fh:
        assert fh.read() == ANALYZE_MIX


def test_analyzed_mix_runs_as_the_same_phases_written_by_hand(tmp_path, analyze_inputs, capsys):
    npath, cpath = analyze_inputs
    out = str(tmp_path / "app.mix")
    assert main(["analyze", "--nests", npath, "--curves", cpath, "--out", out]) == 0
    n0 = way_time_curve({2: 400.0, 3: 200.0, 11: 200.0})
    n1 = way_time_curve({2: 100.0})
    by_hand = MixSpec("analyzed", "light", (ProcessSpec(0, (
        PhaseSpec("n0", 200.0, ReuseClass.STREAM, 800, n0, 200.0),
        PhaseSpec("n1", 100.0, ReuseClass.REUSE, 4000, n1, 100.0),
    )),))
    for policy in cli.POLICIES:
        assert main(["simulate", "--mix", out, "--policy", policy]) == 0
        analyzed = run_mix(formats.read_mix(out), Policy(policy))
        assert repr(analyzed) == repr(run_mix(by_hand, Policy(policy))), policy


def test_analyze_rejects_a_nests_file_without_nests(tmp_path, analyze_inputs, capsys):
    _, cpath = analyze_inputs
    npath = tmp_path / "empty.txt"
    npath.write_text("format-version 1\n# no nest yet\n", encoding="utf-8")
    out = tmp_path / "app.mix"
    assert main(["analyze", "--nests", str(npath), "--curves", cpath, "--out", str(out)]) == 2
    assert "empty.txt:1: no nest" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_requires_matching_curve(tmp_path, analyze_inputs, capsys):
    npath, _ = analyze_inputs
    cpath = str(tmp_path / "short.txt")
    write_curves({"n0": way_time_curve({2: 1.0})}, cpath)
    code = main(["analyze", "--nests", npath, "--curves", cpath, "--out", str(tmp_path / "o.txt")])
    assert code == 2
    assert "short.txt: no way-time curve named 'n1'" in capsys.readouterr().err


@pytest.mark.parametrize("body, message", [
    ("stmt 1\naccess A read 3 0 i 1\n", "nest 'a': element size 3 not in"),
    ("stmt 2\naccess A read 8 0 i 1\n", "nest 'a' statement 0 depth 2 outside 1..1"),
], ids=["element-size", "stmt-depth"])
def test_analyze_pins_nest_faults_to_their_line(tmp_path, analyze_inputs, capsys, body, message):
    _, cpath = analyze_inputs
    npath = tmp_path / "nests.txt"
    npath.write_text("format-version 1\n# one loop\nnest a\narray A 64 8\nloop i 8\n" + body + "end\n",
                     encoding="utf-8")
    out = tmp_path / "app.mix"
    assert main(["analyze", "--nests", str(npath), "--curves", cpath, "--out", str(out)]) == 2
    assert "nests.txt:3: " + message in capsys.readouterr().err
    assert not out.exists()


def test_missing_input_file_is_exit_2(tmp_path, capsys):
    code = main(
        [
            "analyze",
            "--nests", str(tmp_path / "absent.txt"),
            "--curves", str(tmp_path / "absent2.txt"),
            "--out", str(tmp_path / "o.txt"),
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_truncated_line_is_exit_2(tmp_path, capsys):
    mix = tmp_path / "bare.mix"
    mix.write_text(MIX_TEXT.replace("process 0\n", "process 0\nstart\n"), encoding="utf-8")
    assert main(["simulate", "--mix", str(mix)]) == 2
    assert "bare.mix:5: start takes" in capsys.readouterr().err


def test_simulate_max_ways_below_one_is_exit_2(tmp_path, capsys):
    mix = tmp_path / "narrow.mix"
    mix.write_text(MIX_TEXT.replace("process 0\n", "process 0\nalpha 1\nmax-ways -2\n"), encoding="utf-8")
    assert main(["simulate", "--mix", str(mix), "--policy", "maxways"]) == 2
    assert "narrow.mix:6: max-ways: bad value '-2'" in capsys.readouterr().err


@pytest.mark.parametrize("policy", ["comcas", "unpartitioned", "maxways", "reactive"])
@pytest.mark.parametrize("max_ways", [20, 1])
def test_simulate_max_ways_outside_the_socket_runs(tmp_path, capsys, max_ways, policy):
    # no alpha: it is derived up to max-ways clamped into 2..11, so the
    # process runs under every policy, as it does when alpha is given
    mix = mix_file(tmp_path, MIX_TEXT.replace("process 0\n", "process 0\nmax-ways %d\n" % max_ways))
    assert main(["simulate", "--mix", mix, "--policy", policy]) == 0
    assert "error:" not in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (("phase hot 100000000 reuse 3145728\n", "phase hot 100000000 reuse 3145728\nfixed-ns -1000000000\n"),
     "l1-pair.mix:7: fixed-ns: bad value '-1000000000'"),
    (("process 0\n", "process 0\nalpha -3\nmax-ways 3\n"), "l1-pair.mix:6: alpha: bad value '-3'"),
])
def test_simulate_negative_duration_or_alpha_is_exit_2(tmp_path, capsys, edit, message):
    mix = tmp_path / "l1-pair.mix"
    bundled = os.path.join(os.path.dirname(__file__), os.pardir, "mixes", "light", "l1-pair.mix")
    with open(bundled, encoding="utf-8") as fh:
        text = fh.read()
    mix.write_text(text.replace(*edit, 1), encoding="utf-8")
    assert main(["simulate", "--mix", str(mix), "--policy", "comcas"]) == 2
    assert message in capsys.readouterr().err


def test_simulate_bad_config_value_names_config_line(tmp_path, capsys):
    mix = tmp_path / "eps.mix"
    mix.write_text(MIX_TEXT.replace("config sockets 1\n", "config gfactor 0\n"), encoding="utf-8")
    assert main(["simulate", "--mix", str(mix)]) == 2
    assert "eps.mix:3: config gfactor" in capsys.readouterr().err


def test_fit_timing_recovers_exact_model(tmp_path, capsys):
    rng = random.Random(11)
    mk = lambda: [
        TrainingSample(
            (u1, u2),
            5.0 + 2.0 * u1 + 3.0 * (u1 * u2),
        )
        for u1, u2 in (
            (rng.randrange(1, 50), rng.randrange(1, 50)) for _ in range(25)
        )
    ]
    train, test = str(tmp_path / "train.txt"), str(tmp_path / "test.txt")
    write_samples(mk(), train)
    write_samples(mk(), test)
    out = str(tmp_path / "model.txt")
    code = main(["fit-timing", "--samples", train, "--out", out, "--test", test])
    assert code == 0
    text = capsys.readouterr().out
    assert "held-out accuracy: 100.00%" in text
    model = read_model(out)
    assert model.coefficients == pytest.approx((5.0, 2.0, 3.0), rel=1e-9)


@pytest.mark.parametrize("text, message", [
    ("sample 1 2 5\nsample 10 20 5 100\n", "test.txt:3: sample arity 3 != 2"),
    ("# no sample yet\n", "test.txt:1: no sample in the file"),
    ("sample 5 -2 100\n", "test.txt:2: sample: bad value '-2', expected a finite number >= 0"),
    ("sample 1e300 1e300 10\n", "test.txt:2: sample: a product of its trip counts leaves the float range"),
    ("sample 1e160 1 10\n", "test.txt:2: sample: a product of its trip counts leaves the float range when squared"),
], ids=["depth", "empty", "negative", "overflow", "square-overflow"])
def test_fit_timing_rejects_a_bad_test_file_before_writing(tmp_path, capsys, text, message):
    train, test = str(tmp_path / "train.txt"), tmp_path / "test.txt"
    write_samples([TrainingSample((u1, u2), 1.0 + u1 + u1 * u2) for u1, u2 in ((1, 2), (3, 1), (2, 5), (4, 4))], train)
    test.write_text("format-version 1\n" + text, encoding="utf-8")
    out = tmp_path / "model.txt"
    assert main(["fit-timing", "--samples", train, "--out", str(out), "--test", str(test)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_fit_timing_rejects_a_test_file_it_cannot_score_before_any_output(tmp_path, capsys):
    train, test = str(tmp_path / "train.txt"), tmp_path / "test.txt"
    write_samples([TrainingSample((u1, u2), 1.0 + u1 + u1 * u2) for u1, u2 in ((1, 2), (3, 1), (2, 5), (4, 4))], train)
    test.write_text("format-version 1\nsample 10 20 0\nsample 3 4 0\n", encoding="utf-8")
    out = tmp_path / "model.txt"
    assert main(["fit-timing", "--samples", train, "--out", str(out), "--test", str(test)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: every observed time is zero\n"
    assert captured.out == ""
    assert not out.exists()


def test_fit_timing_rejects_a_negative_training_sample_before_writing(tmp_path, capsys):
    train = tmp_path / "train.txt"
    train.write_text("format-version 1\nsample -5 100\n", encoding="utf-8")
    out = tmp_path / "model.txt"
    assert main(["fit-timing", "--samples", str(train), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "train.txt:2: sample: bad value '-5', expected a finite number >= 0" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_fit_timing_rejects_an_overflowing_training_sample_at_its_line(tmp_path, capsys):
    # u1*u2 of the last sample is inf; it used to read as a rank-deficient design
    train = tmp_path / "train.txt"
    train.write_text("format-version 1\nsample 1 2 10\nsample 3 1 20\nsample 2 5 30\nsample 4 4 50\n"
                     "sample 1e300 1e300 10\n", encoding="utf-8")
    out = tmp_path / "model.txt"
    assert main(["fit-timing", "--samples", str(train), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "train.txt:6: sample: a product of its trip counts leaves the float range" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_fit_timing_rejects_a_training_sample_whose_square_overflows_at_its_line(tmp_path, capsys):
    # u1*u2 of the last sample is 1e300; the fit squares it past the float range
    train = tmp_path / "train.txt"
    train.write_text("format-version 1\nsample 1 2 10\nsample 3 1 20\nsample 2 5 30\nsample 4 4 50\n"
                     "sample 1e200 1e100 10\n", encoding="utf-8")
    out = tmp_path / "model.txt"
    assert main(["fit-timing", "--samples", str(train), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "train.txt:6: sample: a product of its trip counts leaves the float range when squared" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_fit_timing_rejects_a_feature_whose_sum_of_squares_overflows(tmp_path, capsys):
    # every sample passes read_samples, but u1's squares sum past the float
    # range; the fit used to end in a ZeroDivisionError traceback
    train = tmp_path / "train.txt"
    train.write_text("format-version 1\n"
                     "sample 1.1694168355914049e+154 1 0 283.9\n"
                     "sample 74.7 0 1 711.9\n"
                     "sample 0 7.615149903541562e+153 62.4 141.5\n"
                     "sample 1.2412457692364477e+154 0 4.426801626989733e+153 819.7\n", encoding="utf-8")
    out = tmp_path / "model.txt"
    assert main(["fit-timing", "--samples", str(train), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: feature u1: its sum of squares over the samples leaves the float range\n"
    assert captured.out == ""
    assert not out.exists()


def mix_file(tmp_path, text=MIX_TEXT, name="tiny.mix"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_simulate_prints_report_and_log(tmp_path, capsys):
    log = str(tmp_path / "alloc.log")
    code = main(["simulate", "--mix", mix_file(tmp_path), "--log", log])
    assert code == 0
    text = capsys.readouterr().out
    assert "mix tiny (light) under comcas" in text
    assert "speedup vs running alone:" in text
    assert "apportionings:" in text
    records, cfg = formats.read_alloc_log(log)
    assert records and records[0].event == "ipca"
    assert cfg == SystemConfig(sockets=1)  # the mix's own config line


@pytest.mark.parametrize("policy", cli.POLICIES)
def test_simulate_log_reads_back_as_the_run(tmp_path, capsys, policy):
    log = str(tmp_path / "alloc.log")
    bundled = os.path.join(os.path.dirname(__file__), os.pardir, "mixes", "*", "*.mix")
    for path in sorted(glob.glob(bundled)):
        assert main(["simulate", "--mix", path, "--policy", policy, "--log", log]) == 0
        mix = formats.read_mix(path)
        cfg = mix_config(mix, SystemConfig())
        assert formats.read_alloc_log(log) == (run_mix(mix, Policy(policy), cfg).records, cfg), path


def test_simulate_is_deterministic(tmp_path, capsys):
    mix = mix_file(tmp_path)
    logs = []
    outs = []
    for k in range(2):
        log = str(tmp_path / ("l%d.log" % k))
        assert main(["simulate", "--mix", mix, "--log", log]) == 0
        outs.append(capsys.readouterr().out.replace("l%d.log" % k, "LOG"))
        logs.append(open(log, "rb").read())
    assert outs[0] == outs[1]
    assert logs[0] == logs[1]


@pytest.mark.parametrize("edit, message", [
    (("mix tiny light", "mix tiny enormous"), "tiny.mix:2: category 'enormous' is not one of"),
    (("process 1", "process 0"), "tiny.mix:9: repeated process 0; first at line 4"),
    (("process 0\n", "process 0\nstart 1e308\n"),
     "tiny.mix:5: start 1e+308: process 0's shortest phase (100 ns) would not move the clock"),
], ids=["category", "repeated-pid", "absorbed-start"])
def test_simulate_bad_mix_line_is_exit_2(tmp_path, capsys, edit, message):
    code = main(["simulate", "--mix", mix_file(tmp_path, MIX_TEXT.replace(*edit))])
    assert code == 2
    assert message in capsys.readouterr().err


def far_mix(*lines, config=(), procs=1):
    """Mix `far`: `procs` processes, each of these lines."""
    body = [line for pid in range(procs) for line in ("process %d" % pid, *lines)]
    return "\n".join(["format-version 1", "mix far light", *config, *body, "end", ""])


@pytest.mark.parametrize("text, code, message", [
    (far_mix("phase a 1e-320 reuse 1000", "point 2 1e300"), 2,
     "far.mix:4: phase 'a': work 1e-320 over 1e+300 ns at 2 ways is not a positive finite speed"),
    (far_mix("phase a 1e308 reuse 1000", "point 2 1e-300"), 2,
     "far.mix:4: phase 'a': work 1e+308 over 1e-300 ns at 2 ways is not a positive finite speed"),
    (far_mix("phase a 1 reuse 1000", "point 2 1.5e308",
             config=("config ways_per_socket 2", "config sockets 1"), procs=3), 3,
     "error: mix 'far': pid 0 phase 'a': its speed on one way leaves the float range"),
    (far_mix("phase x 1 reuse 1000", "point 2 1e308", "phase x 1 reuse 1000", "point 2 1e308"), 2,
     "far.mix:3: process 0: its start plus its phases' shortest times leaves the float range"),
    (far_mix("start 1e308", "phase x 1 reuse 1000", "point 2 1e308"), 2,
     "far.mix:3: process 0: its start plus its phases' shortest times leaves the float range"),
    (far_mix("phase a 100 reuse %d" % 10**400, "point 2 100"), 2,
     "far.mix:4: phase: bad value '1%s', expected an integer >= 0 within the float range" % ("0" * 400)),
], ids=["speed-zero", "speed-inf", "one-way-speed-zero", "clock-inf", "start-clock-inf", "bytes-past-float"])
def test_a_number_past_the_float_range_is_rejected_before_any_output(tmp_path, capsys, text, code, message):
    path = mix_file(tmp_path, text, "far.mix")
    out = tmp_path / "report.csv"
    for argv in (["compare"], *(["simulate", "--policy", p] for p in cli.POLICIES)):
        assert main([*argv, "--mix", path, "--out", str(out)]) == code, argv
        captured = capsys.readouterr()
        assert message in captured.err, argv
        assert captured.out == ""
        assert not out.exists()


def test_an_unmet_demand_integral_past_the_float_range_is_exit_3(tmp_path, capsys):
    # each phase's alpha is about 1e299 ns per way, so comcas's and
    # reactive's unmet-demand integral over a finite run passes the float range
    path = mix_file(tmp_path, far_mix("phase x 1 reuse 1000", "point 2 1e300", "point 11 1e290",
                                      procs=3), "far.mix")
    out, log = tmp_path / "out", tmp_path / "alloc.log"
    for argv, policy in (
        (["compare", "--mix", path], "comcas"),
        (["simulate", "--mix", path, "--policy", "comcas", "--log", str(log)], "comcas"),
        (["simulate", "--mix", path, "--policy", "reactive"], "reactive"),
        (["sweep", "--mixes", str(tmp_path)], "comcas"),
    ):
        assert main([*argv, "--out", str(out)]) == 3, argv
        captured = capsys.readouterr()
        assert captured.err == (
            "error: mix 'far' under %s: the unmet-demand integral leaves the float range\n" % policy
        ), argv
        assert captured.out == ""
        assert not out.exists() and not log.exists()
    # the policies that leave no demand unmet still report
    assert main(["simulate", "--mix", path, "--policy", "maxways"]) == 0
    assert "unmet-demand integral: 0\n" in capsys.readouterr().out


def test_simulate_admission_rejection_is_exit_3(tmp_path, capsys, monkeypatch):
    # no mix reaches a rejection now (an arrival waits for room), so the
    # allocator is made to raise one
    def reject(self, t, arrivals):
        raise CacheWaysError("no socket has a free core or CLOS seat")

    monkeypatch.setattr(Apportioner, "ipca_batch", reject)
    code = main(["simulate", "--mix", mix_file(tmp_path)])
    assert code == 3
    assert "error: no socket has a free core or CLOS seat" in capsys.readouterr().err


# one CLOS seat on the socket: the arrivals run one after another
GROUPING_CAP_MIX = MIX_TEXT.replace(
    "config sockets 1", "config sockets 1\nconfig clos_per_socket 1\nconfig gfactor 1",
).replace("end\n", "process 2\nphase c 1 reuse 2097152\npoint 2 300\nend\n")


@pytest.mark.parametrize("policy", ["comcas", "unpartitioned", "maxways", "reactive"])
def test_an_arrival_at_the_grouping_cap_waits(tmp_path, capsys, policy):
    code = main(["simulate", "--mix", mix_file(tmp_path, GROUPING_CAP_MIX), "--policy", policy])
    out = capsys.readouterr().out
    assert code == 0
    if policy == "comcas":  # one run at a time: 100 + 400 + 300 ns
        assert "finished at 800 ns" in out
        # a mixed time counts from arrival, so the waits show as slowdown
        assert "pid 1: 500 ns mixed, 400 ns alone, slowdown 1.2500" in out
        assert "pid 2: 800 ns mixed, 300 ns alone, slowdown 2.6667" in out
        assert "SLA (1.15x): FAIL" in out
    else:
        assert "pid 2: 300 ns mixed" in out
        assert "SLA (1.15x): pass" in out


@pytest.mark.parametrize("policy", ["comcas", "unpartitioned", "maxways", "reactive"])
def test_a_phase_of_1e308_ns_ends_under_every_policy(tmp_path, policy):
    # reactive's 500 ms clock would tick ~2e299 times if a tick that moves
    # no way did not stop it
    mix = mix_file(tmp_path, "format-version 1\nmix long light\nprocess 0\n"
                   "phase p 1 reuse 1048576\npoint 2 1e308\nend\n")
    proc = subprocess.run(
        [sys.executable, "-m", "cacheways.cli", "simulate", "--mix", mix, "--policy", policy],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_unknown_policy_choice_is_argparse_error(tmp_path):
    with pytest.raises(SystemExit) as ei:
        main(["simulate", "--mix", mix_file(tmp_path), "--policy", "magic"])
    assert ei.value.code == 2


def read_report_csv(path):
    lines = open(path, encoding="utf-8").read().splitlines()
    assert lines[0] == "# format-version 1"
    header = lines[1].split(",")
    return header, [ln.split(",") for ln in lines[2:]]


def test_compare_all_policies(tmp_path, capsys):
    out = str(tmp_path / "cmp.csv")
    code = main(["compare", "--mix", mix_file(tmp_path), "--out", out])
    assert code == 0
    header, rows = read_report_csv(out)
    assert header[:3] == ["mix", "category", "policy"]
    assert "speedup_vs_unpartitioned_tweighted" in header
    assert [r[2] for r in rows] == ["comcas", "unpartitioned", "maxways", "reactive"]
    unprt = rows[1]
    assert float(unprt[5]) == 1.0  # its own baseline
    assert float(rows[3][3]) == 5e8  # default 500 ms reactive period, in ns
    assert unprt[3] == ""
    text = capsys.readouterr().out
    assert "vs-unprt" in text


def test_compare_policy_subset_and_rejection(tmp_path, capsys):
    mix = mix_file(tmp_path)
    out = str(tmp_path / "cmp.csv")
    assert main(["compare", "--mix", mix, "--policies", "comcas,unpartitioned", "--out", out]) == 0
    _, rows = read_report_csv(out)
    assert len(rows) == 2
    capsys.readouterr()
    assert main(["compare", "--mix", mix, "--policies", "comcas,magic"]) == 2
    assert "unknown policy" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["compare", "sweep"])
def test_repeated_policy_is_exit_2(tmp_path, capsys, command):
    # a repeat would print its rows twice and count each mix twice per category
    target = ["--mix", mix_file(tmp_path)] if command == "compare" else ["--mixes", sweep_tree(tmp_path)]
    out = tmp_path / "out"
    argv = [command, *target, "--policies", "maxways,comcas, maxways", "--out", str(out)]
    assert main(argv) == 2
    assert "repeated policy 'maxways'" in capsys.readouterr().err
    assert not out.exists()


def test_compare_interval_flag_in_ms(tmp_path):
    out = str(tmp_path / "cmp.csv")
    assert main([
        "compare", "--mix", mix_file(tmp_path), "--policies", "reactive",
        "--interval-ms", "250", "--out", out,
    ]) == 0
    _, rows = read_report_csv(out)
    assert float(rows[0][3]) == 2.5e8


LONE_MIX = """format-version 1
mix solo light
config sockets 1
process 0
phase only 1 reuse 4194304
point 2 400
point 3 200
end
"""


def test_compare_lone_process_policies_agree(tmp_path):
    # nothing to contend with: every policy must land on the same time
    out = str(tmp_path / "cmp.csv")
    assert main(["compare", "--mix", mix_file(tmp_path, LONE_MIX), "--out", out]) == 0
    _, rows = read_report_csv(out)
    ends = [float(r[4]) for r in rows]
    assert all(abs(e - ends[0]) <= 1e-9 * ends[0] for e in ends)


def test_simulate_report_csv(tmp_path):
    out = str(tmp_path / "report.csv")
    assert main(["simulate", "--mix", mix_file(tmp_path), "--out", out]) == 0
    header, rows = read_report_csv(out)
    assert header[0:3] == ["mix", "category", "policy"]
    assert len(rows) == 1
    assert rows[0][:3] == ["tiny", "light", "comcas"]


JOIN_MIX = """format-version 1
mix joiner light
config sockets 1
config clos_per_socket 1
process 0
phase a 1 reuse 2097152
point 2 200
point 3 100
process 1
phase b 1 reuse 2097152
point 2 200
point 3 100
end
"""


ROUTE_MIX = """format-version 1
mix route light
config sockets 1
process 0
phase p0 100 stream 4194304
point 2 4000
point 16 1000
process 1
phase p0 100 reuse 2097152
point 2 2000
point 16 2000
process 2
phase p0 2000 stream 4194304
point 2 2000
point 16 1000
phase p1 100 reuse 1048576
point 2 4000
point 16 500
end
"""


def run_outputs(capsys, argv, files):
    """(exit code, stdout, stderr, bytes of each output file) of one command;
    the output files are removed, so the next run starts clean."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    written = []
    for f in files:
        written.append(f.read_bytes() if f.exists() else None)
        f.unlink(missing_ok=True)
    return code, out.out, out.err, written


def test_config_file_and_mix_config_line_give_equal_reports(tmp_path, capsys):
    cfg = tmp_path / "sys.cfg"
    cfg.write_text("format-version 1\nconfig ways_per_socket 16\n", encoding="utf-8")
    in_mix = mix_file(tmp_path, ROUTE_MIX.replace("config sockets 1\n", "config sockets 1\nconfig ways_per_socket 16\n"))
    plain = mix_file(tmp_path, ROUTE_MIX, name="plain.mix")
    files = [tmp_path / "alloc.log", tmp_path / "rep.csv"]
    for policy in ("comcas", "unpartitioned", "maxways", "reactive"):
        argv = ["simulate", "--policy", policy, "--log", str(files[0]), "--out", str(files[1])]
        via_mix = run_outputs(capsys, argv + ["--mix", in_mix], files)
        via_file = run_outputs(capsys, argv + ["--mix", plain, "--config", str(cfg)], files)
        assert via_mix[0] == 0
        assert via_mix == via_file, policy


@pytest.mark.parametrize("value", ["0", "-5", "nan", "inf", "1e303"])
def test_interval_must_be_finite_and_positive(tmp_path, capsys, value):
    with pytest.raises(SystemExit) as ei:
        main(["simulate", "--mix", mix_file(tmp_path), "--policy", "reactive", "--interval-ms", value])
    assert ei.value.code == 2
    assert "--interval-ms" in capsys.readouterr().err


def test_reactive_restarts_late_at_an_interval_past_the_float_range(tmp_path, capsys):
    # 1e20 ns over 1e-294 ns leaves the float range: the clock ticks at 1e20
    mix = mix_file(tmp_path, far_mix("start 1e20", "phase a 1 reuse 1000", "point 2 1e10",
                                     config=("config sockets 1",)), "late.mix")
    for argv in (["simulate", "--policy", "reactive"], ["compare"]):
        assert main([*argv, "--mix", mix, "--interval-ms", "1e-300"]) == 0, argv
        assert "error" not in capsys.readouterr().err


KNOBS_MIX = """format-version 1
mix knobs heavy
process 0
phase a 1 reuse 4194304
point 2 400
point 3 200
point 11 190
phase b 1 reuse 65536
point 2 400
point 3 200
point 11 190
process 1
phase c 1 reuse 4194304
point 2 400
point 3 200
point 11 190
phase d 1 stream 16777216
point 2 100
process 2
phase e 1 stream 8388608
point 2 300
process 3
phase f 1 stream 8388608
point 2 300
end
"""

# a non-default value for every SystemConfig field
NON_DEFAULT = {"sockets": 1, "cores_per_socket": 1, "clos_per_socket": 1, "ways_per_socket": 16, "gfactor": 1}


# every SystemConfig field, then the fixed rules that were once fields
CONFIG_KEYS = [f.name for f in dataclasses.fields(SystemConfig)] + list(FIXED_RULES)


@pytest.mark.parametrize("key", CONFIG_KEYS)
def test_no_setting_is_dead(tmp_path, capsys, key):
    # A setting nothing reads would leave the run's bytes unchanged; a
    # fixed rule is no setting, so a line naming it is refused, not ignored.
    mix = mix_file(tmp_path, KNOBS_MIX)
    cfg = tmp_path / "sys.cfg"
    files = [tmp_path / "alloc.log", tmp_path / "rep.csv"]
    simulate = ["simulate", "--mix", mix, "--policy", "comcas", "--log", str(files[0]), "--out", str(files[1])]

    def outputs(setting):
        cfg.write_text("format-version 1\n" + setting, encoding="utf-8")
        return run_outputs(capsys, simulate + ["--config", str(cfg)], files)

    default = outputs("")
    assert default[0] == 0
    if key in FIXED_RULES:
        changed = outputs("config %s 1\n" % key)
        assert changed[0] == 2
        assert "sys.cfg:2: unknown config key %r" % key in changed[2]
        return
    changed = outputs("config %s %r\n" % (key, NON_DEFAULT[key]))
    assert changed != default, "config %s changes nothing" % key
    assert changed[0] in (0, 2)


def test_config_file_reaches_engine(tmp_path, capsys):
    cfg = str(tmp_path / "sys.cfg")
    write_config(SystemConfig(clos_per_socket=1, gfactor=1), cfg)
    mix = mix_file(tmp_path, JOIN_MIX.replace("config clos_per_socket 1\n", ""))
    assert main(["simulate", "--mix", mix]) == 0
    shared = capsys.readouterr().out
    # one CLOS seat: pid 1 waits for pid 0 instead of taking a CLOS of its own
    assert main(["simulate", "--mix", mix, "--config", cfg]) == 0
    queued = capsys.readouterr().out
    assert "finished at 100 ns" in shared
    assert "finished at 200 ns" in queued


def sweep_tree(tmp_path):
    root = tmp_path / "mixes"
    (root / "light").mkdir(parents=True)
    (root / "heavy").mkdir()
    (root / "light" / "tiny.mix").write_text(MIX_TEXT, encoding="utf-8")
    heavy = MIX_TEXT.replace("mix tiny light", "mix beefy heavy")
    (root / "heavy" / "beefy.mix").write_text(heavy, encoding="utf-8")
    return str(root)


def test_sweep_aggregates_by_category(tmp_path, capsys):
    root = sweep_tree(tmp_path)
    out = str(tmp_path / "rep")
    assert main(["sweep", "--mixes", root, "--out", out]) == 0
    _, mix_rows = read_report_csv(os.path.join(out, "sweep-mixes.csv"))
    assert len(mix_rows) == 8  # 2 mixes x 4 policies, ordered by mix name
    assert [r[0] for r in mix_rows] == ["beefy"] * 4 + ["tiny"] * 4
    header, cat_rows = read_report_csv(os.path.join(out, "sweep-categories.csv"))
    assert header[0] == "category"
    assert [(r[0], r[1]) for r in cat_rows][:4] == [
        ("light", "comcas"), ("light", "unpartitioned"),
        ("light", "maxways"), ("light", "reactive"),
    ]
    assert len(cat_rows) == 8
    text = capsys.readouterr().out
    assert sum(1 for ln in text.splitlines() if ln.startswith(("light", "heavy"))) == 2


def test_sweep_mixes_is_a_path_not_a_pattern(tmp_path):
    root = sweep_tree(tmp_path / "run[1]")
    out = tmp_path / "rep"
    assert main(["sweep", "--mixes", root, "--out", str(out)]) == 0
    _, mix_rows = read_report_csv(str(out / "sweep-mixes.csv"))
    assert [r[0] for r in mix_rows] == ["beefy"] * 4 + ["tiny"] * 4


def test_sweep_rejects_two_files_of_one_mix_name(tmp_path, capsys):
    # their rows would interleave under one name and count as two mixes
    root = sweep_tree(tmp_path)
    twin = os.path.join(root, "heavy", "twin.mix")
    mix_file(tmp_path / "mixes" / "heavy", name="twin.mix")
    out = tmp_path / "rep"
    assert main(["sweep", "--mixes", root, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "mix 'tiny'" in err and twin in err and os.path.join(root, "light", "tiny.mix") in err
    assert not out.exists()


def sweep_outputs(capsys, root, out, *extra):
    """(exit code, stdout, stderr, both CSVs' bytes) of one sweep into `out`."""
    return run_outputs(capsys, ["sweep", "--mixes", str(root), "--out", str(out), *extra],
                       [out / "sweep-mixes.csv", out / "sweep-categories.csv"])


def test_sweep_config_file_reaches_every_mix(tmp_path, capsys):
    # the same setting as a --config file and as a line in every mix gives
    # the same bytes, and it moves every mix's rows
    setting = "config ways_per_socket 16\n"
    cfg = tmp_path / "sys.cfg"
    cfg.write_text("format-version 1\n" + setting, encoding="utf-8")
    plain, pinned = tmp_path / "plain", tmp_path / "pinned"
    names = ("alpha", "beta", "gamma")
    for root, extra in ((plain, ""), (pinned, setting)):
        root.mkdir()
        for name in names:
            text = ROUTE_MIX.replace("mix route light\n", "mix %s light\n%s" % (name, extra))
            (root / (name + ".mix")).write_text(text, encoding="utf-8")
    out = tmp_path / "rep"
    via_file = sweep_outputs(capsys, plain, out, "--config", str(cfg))
    assert via_file[0] == 0
    assert via_file == sweep_outputs(capsys, pinned, out)
    default = sweep_outputs(capsys, plain, out)

    def rows_of(run, name):
        return [ln for ln in run[3][0].decode().splitlines() if ln.startswith(name + ",")]

    for name in names:
        assert rows_of(via_file, name) != rows_of(default, name), name


@pytest.mark.parametrize("key", CONFIG_KEYS)
def test_mix_config_line_outranks_config_file(tmp_path, capsys, key):
    # the mix pins the default; a --config file naming the same key moves
    # nothing. Neither can name a fixed rule: each exits 2 at its line.
    cfg = tmp_path / "sys.cfg"
    if key in FIXED_RULES:
        cfg.write_text("format-version 1\nconfig %s 1\n" % key, encoding="utf-8")
        assert main(["simulate", "--mix", mix_file(tmp_path), "--config", str(cfg)]) == 2
        assert "sys.cfg:2: unknown config key %r" % key in capsys.readouterr().err
        mix = mix_file(tmp_path, MIX_TEXT.replace("config sockets 1\n", "config %s 1\n" % key))
        assert main(["simulate", "--mix", mix]) == 2
        assert "tiny.mix:3: unknown config key %r" % key in capsys.readouterr().err
        return
    cfg.write_text("format-version 1\nconfig %s %r\n" % (key, NON_DEFAULT[key]), encoding="utf-8")
    root = tmp_path / "mixes"
    root.mkdir()
    pin = "config %s %r\n" % (key, getattr(SystemConfig(), key))
    mix = mix_file(root, KNOBS_MIX.replace("mix knobs heavy\n", "mix knobs heavy\n" + pin), name="knobs.mix")
    files = [tmp_path / "alloc.log", tmp_path / "rep.csv"]
    simulate = ["simulate", "--mix", mix, "--log", str(files[0]), "--out", str(files[1])]
    alone = run_outputs(capsys, simulate, files)
    assert alone[0] == 0
    assert run_outputs(capsys, simulate + ["--config", str(cfg)], files) == alone
    out = tmp_path / "rep"
    alone = sweep_outputs(capsys, root, out)
    assert alone[0] == 0
    assert sweep_outputs(capsys, root, out, "--config", str(cfg)) == alone


# Runs `python -m cacheways.cli <args>` (or, with no args, only imports the
# CLI) and prints, last, the cacheways modules and the heavy optional ones
# it loaded.
LOADED_BY = """
import runpy, sys
try:
    if len(sys.argv) > 1:
        runpy.run_module("cacheways.cli", run_name="__main__", alter_sys=True)
    else:
        import cacheways.cli
finally:
    print(sorted(m for m in sys.modules if m.startswith("cacheways.")) + sorted(
        {"numpy", "concurrent.futures"} & set(sys.modules)))
"""

BACK_END = ("apportion", "errors", "formats", "metrics", "sensitivity", "simulate")

# command -> (arguments, the cacheways modules besides the CLI it loads): the
# front end (loops, timing) only where the command runs it, and never numpy
# or the process pool
MODULES_LOADED = {
    "import": ([], BACK_END),
    "help": (["--help"], BACK_END),
    "sweep": (["sweep", "--mixes", "{mixes}"], BACK_END),
    "compare": (["compare", "--mix", "{mix}"], BACK_END),
    "simulate": (["simulate", "--mix", "{mix}"], BACK_END),
    "analyze": (["analyze", "--nests", "{nests}", "--curves", "{curves}", "--out", "app.mix"],
                BACK_END + ("loops",)),
    "fit-timing": (["fit-timing", "--samples", "{samples}", "--out", "model.txt"], BACK_END + ("timing",)),
}


def sample_file(tmp_path):
    path = str(tmp_path / "samples.txt")
    write_samples([TrainingSample((float(u),), 3.0 + 2.0 * u) for u in range(1, 6)], path)
    return path


@pytest.mark.parametrize("command", MODULES_LOADED)
def test_each_command_loads_only_its_modules(tmp_path, analyze_inputs, command):
    argv, modules = MODULES_LOADED[command]
    nests, curves = analyze_inputs
    files = dict(mixes=sweep_tree(tmp_path), mix=mix_file(tmp_path), nests=nests, curves=curves,
                 samples=sample_file(tmp_path))
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_BY, *[arg.format(**files) for arg in argv]],
        capture_output=True, text=True, cwd=str(tmp_path), env=child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = ast.literal_eval(proc.stdout.splitlines()[-1])
    expected = ["cacheways." + m for m in modules] + (["cacheways.cli"] if command == "import" else [])
    assert loaded == sorted(expected)


def patched_by_perfbench():
    """(module, name) of each function perfbench's traced run (`cli_in_process`
    in perfbench/run.py) patches on `cli` or `formats`, read from its source."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "run.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    fn = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "cli_in_process")
    return sorted(
        (node.elts[0].id, node.elts[1].value)
        for node in ast.walk(fn)
        if isinstance(node, ast.Tuple) and len(node.elts) == 3
        and isinstance(node.elts[0], ast.Name) and node.elts[0].id in ("cli", "formats")
    )


# each name perfbench patches, and the command that must call it through its
# module, so that the patched wrapper sees the call
PATCH_POINTS = {
    "footprint_closed_form": "analyze",
    "indirect_default_footprint": "analyze",
    "compute_srd": "analyze",
    "assemble_attributes": "analyze",
    "fit_timing": "fit-timing",
    "run_mix": "simulate",
    "read_mix": "simulate",
    "read_nests": "analyze",
    "read_curves": "analyze",
    "read_samples": "fit-timing",
    "write_alloc_log": "simulate",
    "write_table_csv": "simulate",
    "write_attributes": "analyze",
    "write_model": "fit-timing",
}


@pytest.mark.parametrize("owner, name", [pytest.param(*p, id=p[1]) for p in patched_by_perfbench()])
def test_commands_call_perfbench_patch_points_through_the_module(
        tmp_path, analyze_inputs, monkeypatch, owner, name):
    module = {"cli": cli, "formats": formats}[owner]
    if module is cli and any(name in names for names in cli._FRONT_END.values()):
        monkeypatch.delitem(vars(cli), name, raising=False)  # unbound, as before any command ran
    real, calls = getattr(module, name), []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    nests, curves = analyze_inputs
    argv = {
        "analyze": ["analyze", "--nests", nests, "--curves", curves, "--out", str(tmp_path / "a.mix")],
        "fit-timing": ["fit-timing", "--samples", sample_file(tmp_path), "--out", str(tmp_path / "m.txt")],
        "simulate": ["simulate", "--mix", mix_file(tmp_path), "--log", str(tmp_path / "l.log"),
                     "--out", str(tmp_path / "r.csv")],
    }[PATCH_POINTS[name]]
    assert cli.main(argv) == 0
    assert calls, "%s ran without calling %s.%s" % (argv[0], owner, name)


def test_apportion_import_skips_analysis_modules(tmp_path):
    # the allocator takes a phase as (bytes, reuse), so it needs neither the
    # way-time curves nor the timing model; the simulator reads a phase's
    # duration from the mix, so it needs no timing model either
    for module, skipped in (
        ("cacheways.apportion", {"cacheways.sensitivity", "cacheways.timing"}),
        ("cacheways.simulate", {"cacheways.timing"}),
    ):
        code = "import sys, %s; print(sorted(%r & set(sys.modules)))" % (module, skipped)
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, cwd=str(tmp_path), env=child_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]", module


def test_sweep_empty_dir_is_exit_2(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    assert main(["sweep", "--mixes", str(empty)]) == 2
    assert "no .mix files" in capsys.readouterr().err
