"""End-to-end subcommand runs through cli.main with exit-code checks."""

import dataclasses
import os
import random
import shutil
import subprocess
import sys

import pytest

from cacheways import formats
from cacheways.apportion import SystemConfig
from cacheways.cli import _build_parser, main
from cacheways.loops import (
    Affine,
    ArrayDecl,
    Bound,
    LoopLevel,
    LoopNest,
    MemoryAccess,
    ReuseClass,
    Statement,
)
from cacheways.timing import TrainingSample

from support import child_env, read_attributes, read_model, way_time_curve
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


ANALYZE_ATTRS = """format-version 1
attrs n0
footprint 800 13 1
reuse stream
alpha 200
max-ways 3
fixed-ns 200
end
attrs n1
footprint 4000 63 0
reuse reuse
alpha 0
max-ways 2
fixed-ns 100
end
"""


def test_analyze_writes_attributes(tmp_path, analyze_inputs, capsys):
    npath, cpath = analyze_inputs
    out = str(tmp_path / "attrs.txt")
    code = main(["analyze", "--nests", npath, "--curves", cpath, "--out", out])
    assert code == 0
    text = capsys.readouterr().out
    assert "wrote 2 attribute blocks" in text
    attrs = read_attributes(out)
    a0 = attrs["n0"]
    assert (a0.footprint.bytes, a0.footprint.lines, a0.footprint.exact) == (800, 13, True)
    assert a0.reuse is ReuseClass.STREAM  # one pass over A, no line revisited later
    assert (a0.alpha, a0.max_ways) == (200.0, 3)
    assert a0.fixed_ns == 200.0
    assert attrs["n1"].footprint.exact is False
    with open(out, encoding="utf-8") as fh:
        assert fh.read() == ANALYZE_ATTRS


def test_analyze_requires_matching_curve(tmp_path, analyze_inputs, capsys):
    npath, _ = analyze_inputs
    cpath = str(tmp_path / "short.txt")
    write_curves({"n0": way_time_curve({2: 1.0})}, cpath)
    code = main(["analyze", "--nests", npath, "--curves", cpath, "--out", str(tmp_path / "o.txt")])
    assert code == 2
    assert "no way-time curve" in capsys.readouterr().err


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
    mix.write_text(MIX_TEXT.replace("config sockets 1\n", "config saturation_epsilon 0\n"), encoding="utf-8")
    assert main(["simulate", "--mix", str(mix)]) == 2
    assert "eps.mix:3: config saturation_epsilon" in capsys.readouterr().err


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


def mix_file(tmp_path, text=MIX_TEXT, name="tiny.mix"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_simulate_prints_report_and_log(tmp_path, capsys):
    log = str(tmp_path / "alloc.csv")
    code = main(["simulate", "--mix", mix_file(tmp_path), "--log", log])
    assert code == 0
    text = capsys.readouterr().out
    assert "mix tiny (light) under comcas" in text
    assert "speedup vs running alone:" in text
    assert "apportionings:" in text
    rows = formats.read_alloc_log(log)
    assert rows and rows[0].event == "ipca"


def test_simulate_is_deterministic(tmp_path, capsys):
    mix = mix_file(tmp_path)
    logs = []
    outs = []
    for k in range(2):
        log = str(tmp_path / ("l%d.csv" % k))
        assert main(["simulate", "--mix", mix, "--log", log]) == 0
        outs.append(capsys.readouterr().out.replace("l%d.csv" % k, "LOG"))
        logs.append(open(log, "rb").read())
    assert outs[0] == outs[1]
    assert logs[0] == logs[1]


@pytest.mark.parametrize("edit, message", [
    (("mix tiny light", "mix tiny enormous"), "tiny.mix:2: category 'enormous' is not one of"),
    (("process 1", "process 0"), "tiny.mix:9: repeated process 0; first at line 4"),
], ids=["category", "repeated-pid"])
def test_simulate_bad_mix_line_is_exit_2(tmp_path, capsys, edit, message):
    code = main(["simulate", "--mix", mix_file(tmp_path, MIX_TEXT.replace(*edit))])
    assert code == 2
    assert message in capsys.readouterr().err


def test_simulate_admission_rejection_is_exit_3(tmp_path, capsys):
    text = MIX_TEXT.replace(
        "config sockets 1",
        "config sockets 1\nconfig clos_per_socket 1\nconfig gfactor 1",
    ).replace("phase b 1 stream 20971520", "phase b 1 reuse 2097152")
    code = main(["simulate", "--mix", mix_file(tmp_path, text)])
    assert code == 3
    assert "error:" in capsys.readouterr().err


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


def test_gfactor_flag_outranks_mix_config(tmp_path, capsys):
    mix = mix_file(tmp_path, JOIN_MIX)
    assert main(["simulate", "--mix", mix]) == 0  # two twins share the CLOS
    capsys.readouterr()
    assert main(["simulate", "--mix", mix, "--gfactor", "1"]) == 3
    assert "error:" in capsys.readouterr().err


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
    files = [tmp_path / "log.csv", tmp_path / "rep.csv"]
    for policy in ("comcas", "unpartitioned", "maxways", "reactive"):
        argv = ["simulate", "--policy", policy, "--log", str(files[0]), "--out", str(files[1])]
        via_mix = run_outputs(capsys, argv + ["--mix", in_mix], files)
        via_file = run_outputs(capsys, argv + ["--mix", plain, "--config", str(cfg)], files)
        assert via_mix[0] == 0
        assert via_mix == via_file, policy


@pytest.mark.parametrize("value", ["0", "-5", "nan", "inf"])
def test_interval_must_be_finite_and_positive(tmp_path, capsys, value):
    with pytest.raises(SystemExit) as ei:
        main(["simulate", "--mix", mix_file(tmp_path), "--policy", "reactive", "--interval-ms", value])
    assert ei.value.code == 2
    assert "--interval-ms" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-3", "-1"])
def test_sweep_jobs_must_be_non_negative(tmp_path, capsys, value):
    with pytest.raises(SystemExit) as ei:
        main(["sweep", "--mixes", str(tmp_path), "--parallel", "--jobs", value])
    assert ei.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    # 0 still means one worker per CPU
    assert _build_parser().parse_args(["sweep", "--mixes", "m", "--jobs", "0"]).jobs == 0


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
NON_DEFAULT = {
    "sockets": 1, "cores_per_socket": 1, "clos_per_socket": 1, "ways_per_socket": 16,
    "line_size": 128, "gfactor": 1, "scaling_factor_stream": 0.5,
    "clos_occupancy_threshold": 0.99, "hysteresis_ways": 3, "alpha_socket_threshold": 1e9,
    "dm_penalty": 4.0, "srd_delta": 10.0, "saturation_epsilon": 0.3,
}


@pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(SystemConfig)])
def test_no_setting_is_dead(tmp_path, capsys, key):
    # A setting nothing reads would leave both commands' bytes unchanged.
    nest = LoopNest(
        name="rows",
        loops=(LoopLevel("i", Bound(4)), LoopLevel("j", Bound(100))),
        statements=(Statement((MemoryAccess("A", 8, Affine(0, (("j", 1),)), "read"),), 2),),
    )
    nests, curves = str(tmp_path / "nests.txt"), str(tmp_path / "curves.txt")
    write_nests([nest], nests)
    write_curves({"rows": way_time_curve({2: 400.0, 3: 300.0, 4: 250.0, 11: 240.0})}, curves)
    mix = mix_file(tmp_path, KNOBS_MIX)
    cfg = tmp_path / "sys.cfg"
    files = [tmp_path / "attrs.txt", tmp_path / "log.csv", tmp_path / "rep.csv"]
    commands = (
        ["analyze", "--nests", nests, "--curves", curves, "--out", str(files[0])],
        ["simulate", "--mix", mix, "--policy", "comcas", "--log", str(files[1]), "--out", str(files[2])],
    )

    def outputs(setting):
        cfg.write_text("format-version 1\n" + setting, encoding="utf-8")
        return [run_outputs(capsys, argv + ["--config", str(cfg)], files) for argv in commands]

    default = outputs("")
    assert [run[0] for run in default] == [0, 0]
    changed = outputs("config %s %r\n" % (key, NON_DEFAULT[key]))
    assert changed != default, "config %s changes nothing" % key
    assert all(run[0] in (0, 2) for run in changed)


def test_config_file_reaches_engine(tmp_path, capsys):
    cfg = str(tmp_path / "sys.cfg")
    write_config(SystemConfig(clos_per_socket=1, gfactor=1), cfg)
    mix = mix_file(tmp_path, JOIN_MIX.replace("config clos_per_socket 1\n", ""))
    assert main(["simulate", "--mix", mix]) == 0
    capsys.readouterr()
    assert main(["simulate", "--mix", mix, "--config", cfg]) == 3


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


def test_sweep_parallel_matches_sequential(tmp_path):
    root = sweep_tree(tmp_path)
    seq, par = str(tmp_path / "seq"), str(tmp_path / "par")
    assert main(["sweep", "--mixes", root, "--out", seq]) == 0
    assert main(["sweep", "--mixes", root, "--parallel", "--jobs", "2", "--out", par]) == 0
    for name in ("sweep-mixes.csv", "sweep-categories.csv"):
        a = open(os.path.join(seq, name), "rb").read()
        b = open(os.path.join(par, name), "rb").read()
        assert a == b


def test_cli_import_skips_numpy_and_process_pool(tmp_path):
    code = "import sys, cacheways.cli; print(sorted({'numpy', 'concurrent.futures'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=str(tmp_path), env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_apportion_import_skips_analysis_modules(tmp_path):
    # the allocator takes a phase as (bytes, reuse), so it needs neither the
    # sensitivity bundle nor the timing model; the simulator reads a phase's
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


def test_sweep_parallel_child_matches_serial_on_bundled_mixes(tmp_path):
    bundled = os.path.join(os.path.dirname(__file__), os.pardir, "mixes")
    root = tmp_path / "mixes"
    for rel in ("light/l1-pair.mix", "heavy/h1-squeeze.mix"):
        (root / os.path.dirname(rel)).mkdir(parents=True)
        shutil.copy(os.path.join(bundled, rel), str(root / rel))
    for out, extra in (("seq", []), ("par", ["--parallel", "--jobs", "2"])):
        proc = subprocess.run(
            [sys.executable, "-m", "cacheways.cli", "sweep", "--mixes", str(root), "--out", out, *extra],
            capture_output=True, cwd=str(tmp_path), env=child_env(), timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
    for name in ("sweep-mixes.csv", "sweep-categories.csv"):
        assert (tmp_path / "seq" / name).read_bytes() == (tmp_path / "par" / name).read_bytes()


def test_sweep_empty_dir_is_exit_2(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    assert main(["sweep", "--mixes", str(empty)]) == 2
    assert "no .mix files" in capsys.readouterr().err
