"""The cacheways benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload {cli,dense,churn} --seed N --seconds S --trace {0,1}

Run it from the repository root.  It imports the package from `src/` and
calls only public functions of `cacheways.cli`, `formats`, `loops`,
`sensitivity`, `timing`, `apportion`, `simulate` and `metrics`.  All load
comes from this one process: CLI commands run one at a time as child
processes, and policy runs happen in this process.

A run is one closed loop with one client.  Each step runs one CLI command
(the cycle is `sweep`, `compare`, `simulate`, `analyze`, `fit-timing`, on
generated inputs and the bundled `mixes/`, timed from process start to exit),
then a bare interpreter start as the yardstick for the CLI times, then one
engine cycle: `run_mix` under each policy, followed by the report metrics as
`compare` computes them, on every mix of the workload, then a fixed piece of
pure-Python work as the yardstick for the engine times.  The workload decides
how heavy the engine cycle is.  Spread evenly over the loop, fresh
interpreters import `cacheways.cli` and parse the run's inputs; the median is
`setup_s`.  Interleaving lets every metric sample the whole run, not one
stretch of it: the speed of a shared host drifts within seconds.

With `--trace 0` the last line is the end-to-end metrics; with `--trace 1`
the run also records spans around calls into each layer and the last line is
the per-layer metrics.  Either way the outputs are checked, and a failed
check sets `correct` to false.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import heapq
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUNDLED = ROOT / "mixes"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import inputs  # noqa: E402
from spans import Summary, Tracer, perf  # noqa: E402

try:
    from cacheways import cli, formats, metrics, simulate  # noqa: E402
    from cacheways.apportion import Apportioner  # noqa: E402
    from cacheways.errors import CacheWaysError  # noqa: E402
except ImportError as exc:
    sys.exit("perfbench: cannot import cacheways from %s: %s" % (SRC, exc))

# unpartitioned runs first: the other policies' speedups use it as the base
POLICIES = ("unpartitioned", "comcas", "maxways", "reactive")
# policies with an end-to-end throughput metric; reactive fails on dense today
GATED = ("comcas", "unpartitioned", "maxways")
CLI_KINDS = ("sweep", "compare", "simulate", "analyze", "fit_timing")
SETUP_RUNS = 7
MIN_CLI_CYCLES = 2  # so that the engine repeats every input, to compare reruns
IN_PROCESS_PASSES = 3
RUN_ALONE_RTOL = 1e-9
CHILD_TIMEOUT_S = 120


# whose peak RSS is `peak_rss_mb`: the largest CLI command on `cli`, where the
# commands do the work, and this process where the engine does
RSS_OF = {"cli": "children", "dense": "self", "churn": "self"}

END_TO_END = {
    "setup_s": "s",
    "cli_p50_over_start": "ratio",
    "cli_p90_over_start": "ratio",
    **{"events_per_yardstick." + p: "1/yardstick" for p in GATED},
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.import_ms": "ms",
    "cli.start_ms": "ms",
    "cli.ms_p50": "ms",
    "cli.ms_p90": "ms",
    **{"cli.%s_ms" % k: "ms" for k in CLI_KINDS},
    "formats.read_mix_us": "us",
    "formats.read_nests_us": "us",
    "formats.write_alloc_log_us": "us",
    "formats.write_table_csv_us": "us",
    "loops.footprint_us": "us",
    "loops.srd_us": "us",
    "sensitivity.attrs_us": "us",
    "timing.fit_us": "us",
    **{"simulate.events_per_s." + p: "1/s" for p in GATED},
    "simulate.yardstick_ms": "ms",
    **{"simulate.us_per_event." + p: "us" for p in POLICIES},
    "simulate.self_us_per_event.comcas": "us",
    "apportion.ipca_us": "us",
    "apportion.pcca_us": "us",
    "apportion.release_us": "us",
    "apportion.ipca_calls": "count",
    "apportion.pcca_calls": "count",
    "apportion.release_calls": "count",
    "apportion.share": "ratio",
    "metrics.report_us": "us",
    "simulate.events": "count",
    **{"simulate.timeline_rows." + p: "count" for p in POLICIES},
    "simulate.records": "count",
    "ops.failed": "count",
    "trace.overhead_pct": "%",
}

# what `setup_s` times in each fresh interpreter; prints the import time
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import cacheways.cli
from cacheways import formats
t1 = time.perf_counter()
read = {"mix": formats.read_mix, "nests": formats.read_nests,
        "curves": formats.read_curves, "samples": formats.read_samples}
for arg in sys.argv[1:]:
    kind, path = arg.split("=", 1)
    read[kind](path)
print(t1 - t0)
"""


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def planned_events(mix) -> int:
    """Phase events of a mix: every phase of every process ends once."""
    return sum(len(p.phases) for p in mix.processes)


def check_report(mix, report) -> list[str]:
    """Problems with one completed run: each pid finishes exactly once, at a
    finite time, and never faster than it runs alone."""
    where = "%s/%s" % (mix.name, report.policy)
    problems = []
    pids = sorted(p.pid for p in mix.processes)
    if sorted(report.completions) != pids:
        problems.append("%s: finished pids %s, expected %s" % (where, sorted(report.completions), pids))
    if not math.isfinite(report.end_time):
        problems.append("%s: end time %r" % (where, report.end_time))
    for pid, done in sorted(report.completions.items()):
        alone = report.unmixed.get(pid)
        if not math.isfinite(done):
            problems.append("%s: pid %d finished at %r" % (where, pid, done))
        elif alone is None or done < alone * (1.0 - RUN_ALONE_RTOL):
            problems.append("%s: pid %d took %r ns, less than its run-alone %r ns" % (where, pid, done, alone))
    return problems


def report_row(report, base) -> tuple:
    """The report metrics as `compare` computes them, from public functions."""
    mixed, alone = report.completions, report.unmixed
    ok, ratios = metrics.sla_check(mixed, alone)
    vs_base = (None, None)
    if base is not None:
        vs_base = (
            metrics.weighted_speedup(base.completions, mixed),
            metrics.weighted_speedup(base.completions, mixed, weights=alone),
        )
    return (
        report.mix_name,
        report.policy,
        report.end_time,
        *vs_base,
        metrics.weighted_speedup(alone, mixed),
        metrics.weighted_speedup(alone, mixed, weights=alone),
        metrics.jain_fairness(metrics.throughputs(mixed, alone)),
        ok,
        max(ratios.values()),
        metrics.deficit_proxy(report.width_timeline, report.end_time),
        report.apportion_count,
    )


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

@dataclass
class OpStats:
    times: list[float] = field(default_factory=list)
    events: list[int] = field(default_factory=list)


@dataclass
class Run:
    workload: str
    seed: int
    seconds: int
    traced: bool
    work: Path
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: dict[str, int] = field(default_factory=dict)
    cli_ms: dict[str, list[float]] = field(default_factory=lambda: {k: [] for k in CLI_KINDS})
    cli_digest: dict[str, str] = field(default_factory=dict)
    cli_rss_kb: int = 0
    start_ms: list[float] = field(default_factory=list)
    yardstick_s: list[float] = field(default_factory=list)
    # (traced, mix index, policy) -> per-operation host times and events
    ops: dict[tuple, OpStats] = field(default_factory=dict)
    first_rows: dict[tuple, str] = field(default_factory=dict)
    counts: dict[tuple, tuple[int, int]] = field(default_factory=dict)
    setup_s: list[float] = field(default_factory=list)
    import_s: list[float] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures[what] = self.failures.get(what, 0) + 1


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_once(run: Run, files: list[str]) -> None:
    """A fresh interpreter imports the CLI and parses every input."""
    t0 = perf()
    out = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, *files],
        cwd=run.work, env=_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, check=True,
    )
    run.setup_s.append(perf() - t0)
    run.import_s.append(float(out.stdout.split()[-1]))


def cli_jobs(paths: dict[str, str], out: Path) -> list[tuple[str, list[str], list[Path]]]:
    """The client's cycle: what a user types, one command of each kind."""
    sweep = out / "sweep"
    return [
        ("sweep", ["sweep", "--mixes", str(BUNDLED), "--out", str(sweep)],
         [sweep / "sweep-mixes.csv", sweep / "sweep-categories.csv"]),
        ("compare", ["compare", "--mix", paths["heavy"], "--out", str(out / "compare.csv")],
         [out / "compare.csv"]),
        ("simulate", ["simulate", "--mix", paths["heavy"], "--log", str(out / "alloc.csv"),
                      "--out", str(out / "simulate.csv")],
         [out / "alloc.csv", out / "simulate.csv"]),
        ("analyze", ["analyze", "--nests", paths["nests"], "--curves", paths["curves"],
                     "--out", str(out / "attrs.txt")],
         [out / "attrs.txt"]),
        ("fit_timing", ["fit-timing", "--samples", paths["train"], "--test", paths["test"],
                        "--out", str(out / "model.txt")],
         [out / "model.txt"]),
    ]


def _digest(stdout: bytes, outputs: list[Path]) -> str:
    h = hashlib.sha256(stdout)
    for path in outputs:
        h.update(path.read_bytes() if path.is_file() else b"<missing>")
    return h.hexdigest()


def _check_cli(run: Run, kind: str, code: int, digest: str) -> None:
    """Every call exits 0 and writes the same bytes as the first call."""
    problem = None
    if code != 0:
        problem = "cli %s exited %d" % (kind, code)
    elif run.cli_digest.setdefault(kind, digest) != digest:
        problem = "cli %s wrote different output than its first call" % kind
    if problem:
        run.problems.append(problem)
        run.fail(problem)


def _spawn(run: Run, args: list[str], stdout, stderr):
    """Wall time, exit code and resource usage of one child interpreter."""
    t0 = perf()
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=run.work, env=_env(), stdout=stdout, stderr=stderr,
    )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = perf() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def cli_command(run: Run, kind: str, argv: list[str], outputs: list[Path]) -> None:
    for path in outputs:
        path.unlink(missing_ok=True)
    log = run.work / "cli-stdout.txt"
    with open(log, "wb") as out, open(run.work / "cli-stderr.txt", "wb") as err:
        wall, code, usage = _spawn(run, ["-m", "cacheways.cli", *argv], out, err)
    run.attempted += 1
    run.cli_ms[kind].append(1e3 * wall)
    run.cli_rss_kb = max(run.cli_rss_kb, usage.ru_maxrss)
    _check_cli(run, kind, code, _digest(log.read_bytes(), outputs))


def interpreter_start(run: Run) -> None:
    """A bare interpreter start, the yardstick for the CLI times: the host's
    speed at starting processes drifts by a third within minutes, and the
    ratio of the two cancels most of that drift."""
    wall, code, _ = _spawn(run, ["-c", "pass"], subprocess.DEVNULL, subprocess.DEVNULL)
    if code != 0:
        raise RuntimeError("a bare interpreter exited %d" % code)
    run.start_ms.append(1e3 * wall)


def cli_in_process(run: Run, jobs, tracer: Tracer) -> None:
    """The same commands through `cli.main`, with spans around the layer
    functions the CLI calls; their outputs must match the child processes'."""
    for owner, attr, name in (
        (formats, "read_mix", "formats.read_mix"),
        (formats, "read_nests", "formats.read_nests"),
        (formats, "read_curves", "formats.read_curves"),
        (formats, "read_samples", "formats.read_samples"),
        (formats, "write_alloc_log", "formats.write_alloc_log"),
        (formats, "write_table_csv", "formats.write_table_csv"),
        (formats, "write_attributes", "formats.write_attributes"),
        (formats, "write_model", "formats.write_model"),
        (cli, "footprint_closed_form", "loops.footprint"),
        (cli, "indirect_default_footprint", "loops.footprint"),
        (cli, "compute_srd", "loops.srd"),
        (cli, "assemble_attributes", "sensitivity.attrs"),
        (cli, "fit_timing", "timing.fit"),
        (cli, "run_mix", "simulate.run_mix"),
    ):
        tracer.patch(owner, attr, name)
    try:
        for _ in range(IN_PROCESS_PASSES):
            for kind, argv, outputs in jobs:
                stdout = io.StringIO()
                idx = tracer.open("cli." + kind)
                try:
                    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                        code = cli.main(argv)
                finally:
                    tracer.close(idx)
                _check_cli(run, kind, code, _digest(stdout.getvalue().encode(), outputs))
    finally:
        tracer.restore()


@contextlib.contextmanager
def _span(tracer: Tracer | None, name: str):
    if tracer is None:
        yield
        return
    idx = tracer.open(name)
    try:
        yield
    finally:
        tracer.close(idx)


def engine_cycle(run: Run, mixes, paths: list[str], tracer: Tracer | None) -> list[str]:
    """Every mix under every policy; returns the rows, or the error of a
    failed run, in order."""
    rows = []
    for mi, (mix, path) in enumerate(zip(mixes, paths)):
        if tracer is not None:
            mix = formats.read_mix(path)  # patched: times the parse
        base = None
        for policy in POLICIES:
            run.attempted += 1
            events, report, problems = 0, None, []
            t0 = perf()
            try:
                with _span(tracer, "simulate.run_mix." + policy):
                    report = simulate.run_mix(mix, simulate.Policy(policy))
                with _span(tracer, "metrics.report"):
                    row = repr(report_row(report, base))
            except CacheWaysError as exc:
                row = "%s/%s failed: %s: %s" % (mix.name, policy, type(exc).__name__, exc)
                run.fail("%s on %s: %s: %s" % (policy, mix.name, type(exc).__name__, exc))
            else:
                events = planned_events(mix)
                problems = check_report(mix, report)
            wall = perf() - t0
            if policy == "unpartitioned":
                base = report
            key = (tracer is not None, mi, policy)
            stats = run.ops.setdefault(key, OpStats())
            stats.times.append(wall)
            stats.events.append(events)
            if run.first_rows.setdefault((mi, policy), row) != row:
                problems.append("%s/%s: rerun gave a different report" % (mix.name, policy))
            if problems:
                run.problems.extend(problems)
                if report is not None:
                    run.fail(problems[0])
            rows.append(row)
            if report is not None and (mi, policy) not in run.counts:
                run.counts[mi, policy] = (len(report.width_timeline), len(report.records))
    return rows


def yardstick(run: Run) -> None:
    """A fixed piece of pure-Python work, independent of the program: a small
    event loop over a heap and a dict, like the engine's own.  The host's
    speed swings by half within minutes; the ratio of the engine's time to
    this one cancels most of that."""
    t0 = perf()
    rng = random.Random(0)
    heap = [(rng.random(), i) for i in range(500)]
    heapq.heapify(heap)
    acc: dict[int, float] = {}
    for _ in range(20000):
        t, i = heapq.heappop(heap)
        acc[i] = acc.get(i, 0.0) + t
        heapq.heappush(heap, (t + rng.random(), i))
    run.yardstick_s.append(perf() - t0)


def traced_engine_cycle(run: Run, mixes, paths, tracer: Tracer) -> list[str]:
    tracer.patch(formats, "read_mix", "formats.read_mix")
    for attr, name in (("ipca_batch", "ipca"), ("pcca", "pcca"), ("release_process", "release")):
        tracer.patch(Apportioner, attr, "apportion." + name)
    try:
        return engine_cycle(run, mixes, paths, tracer)
    finally:
        tracer.restore()


def measured_loop(run: Run, jobs, mixes, paths, setup_files, tracer: Tracer | None) -> list[str]:
    """Whole CLI cycles until `--seconds` have passed, one engine cycle after
    each command, set-up samples spread evenly.  A traced run alternates
    untraced and traced engine cycles so that the two can be compared.
    Returns the first engine cycle's rows."""
    start = perf()
    cycles, steps, first = 0, 0, None
    while cycles < MIN_CLI_CYCLES or perf() < start + run.seconds:
        for kind, argv, outputs in jobs:
            if len(run.setup_s) < SETUP_RUNS and perf() >= start + len(run.setup_s) * run.seconds / SETUP_RUNS:
                setup_once(run, setup_files)
            cli_command(run, kind, argv, outputs)
            interpreter_start(run)
            if tracer is not None and steps % 2:
                rows = traced_engine_cycle(run, mixes, paths, tracer)
            else:
                rows = engine_cycle(run, mixes, paths, None)
            yardstick(run)
            first = first or rows
            steps += 1
        cycles += 1
    while len(run.setup_s) < SETUP_RUNS:
        setup_once(run, setup_files)
    return first


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def events_per_s(run: Run, traced: bool, policies) -> float:
    """Events over host seconds, summed over the (mix, policy) pairs.

    Every operation of a pair repeats the same deterministic computation, so
    its fastest repetition is the least disturbed measure of its cost; other
    load on the host only adds time (a shared 2-CPU host swings between two
    speeds about 1.7x apart within seconds, which moves a median by a third).
    A failed run counts its time and zero events."""
    events = secs = 0.0
    for (t, _, policy), stats in run.ops.items():
        if t == traced and policy in policies:
            events += statistics.fmean(stats.events)
            secs += min(stats.times)
    return events / secs


def cli_percentiles(run: Run) -> tuple[float, float]:
    walls = [ms for kind in CLI_KINDS for ms in run.cli_ms[kind]]
    return statistics.median(walls), statistics.quantiles(walls, n=10, method="inclusive")[8]


def end_to_end(run: Run) -> dict[str, float]:
    p50, p90 = cli_percentiles(run)
    start = statistics.median(run.start_ms)
    if RSS_OF[run.workload] == "children":
        rss_kb = run.cli_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(run.setup_s),
        "cli_p50_over_start": p50 / start,
        "cli_p90_over_start": p90 / start,
        **{
            "events_per_yardstick." + p: events_per_s(run, False, (p,)) * min(run.yardstick_s)
            for p in GATED
        },
        "peak_rss_mb": rss_kb / 1024.0,
    }


def per_layer(run: Run, mixes, spans: Summary) -> dict[str, float]:
    traced_events = {p: 0 for p in POLICIES}
    for (traced, mi, policy), stats in run.ops.items():
        if traced:
            traced_events[policy] += planned_events(mixes[mi]) * len(stats.times)
    comcas = "simulate.run_mix.comcas"
    comcas_runs = spans.count[comcas]
    apportion = ("apportion.ipca", "apportion.pcca", "apportion.release")
    p50, p90 = cli_percentiles(run)
    return {
        "cli.import_ms": 1e3 * statistics.median(run.import_s),
        "cli.start_ms": statistics.median(run.start_ms),
        "cli.ms_p50": p50,
        "cli.ms_p90": p90,
        **{"cli.%s_ms" % k: statistics.median(run.cli_ms[k]) for k in CLI_KINDS},
        "formats.read_mix_us": spans.mean_us("formats.read_mix"),
        "formats.read_nests_us": spans.mean_us("formats.read_nests"),
        "formats.write_alloc_log_us": spans.mean_us("formats.write_alloc_log"),
        "formats.write_table_csv_us": spans.mean_us("formats.write_table_csv"),
        "loops.footprint_us": spans.mean_us("loops.footprint"),
        "loops.srd_us": spans.mean_us("loops.srd"),
        "sensitivity.attrs_us": spans.mean_us("sensitivity.attrs"),
        "timing.fit_us": spans.mean_us("timing.fit"),
        **{"simulate.events_per_s." + p: events_per_s(run, False, (p,)) for p in GATED},
        "simulate.yardstick_ms": 1e3 * min(run.yardstick_s),
        **{
            "simulate.us_per_event." + p: 1e6 * spans.total["simulate.run_mix." + p] / traced_events[p]
            for p in POLICIES
        },
        "simulate.self_us_per_event.comcas": 1e6 * spans.self_time[comcas] / traced_events["comcas"],
        "apportion.ipca_us": spans.mean_us("apportion.ipca"),
        "apportion.pcca_us": spans.mean_us("apportion.pcca"),
        "apportion.release_us": spans.mean_us("apportion.release"),
        **{name + "_calls": spans.count[name] / comcas_runs for name in apportion},
        "apportion.share": sum(spans.total[name] for name in apportion) / spans.total[comcas],
        "metrics.report_us": spans.mean_us("metrics.report"),
        "simulate.events": sum(planned_events(m) for m in mixes),
        **{
            "simulate.timeline_rows." + p: sum(run.counts.get((mi, p), (0, 0))[0] for mi in range(len(mixes)))
            for p in POLICIES
        },
        "simulate.records": sum(run.counts.get((mi, "comcas"), (0, 0))[1] for mi in range(len(mixes))),
        "ops.failed": run.failed,
        "trace.overhead_pct": 100.0 * (events_per_s(run, False, POLICIES) / events_per_s(run, True, POLICIES) - 1.0),
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def execute(run: Run) -> dict:
    paths = inputs.write_inputs(str(run.work / "inputs"), run.seed, run.workload)
    if run.workload == "cli":
        engine_paths = sorted(str(p) for p in BUNDLED.rglob("*.mix")) + [paths["heavy"]]
    else:
        engine_paths = [paths["engine"]]
    mixes = [formats.read_mix(p) for p in engine_paths]
    files = ["mix=" + p for p in dict.fromkeys(engine_paths + [paths["heavy"]])] + [
        "nests=" + paths["nests"], "curves=" + paths["curves"],
        "samples=" + paths["train"], "samples=" + paths["test"],
    ]
    out = run.work / "out"
    out.mkdir()
    jobs = cli_jobs(paths, out)
    tracer = Tracer() if run.traced else None
    rows = measured_loop(run, jobs, mixes, engine_paths, files, tracer)
    if tracer is not None:
        cli_in_process(run, jobs, tracer)

    print("perfbench %s seed %d: %d operations attempted, %d failed"
          % (run.workload, run.seed, run.attempted, run.failed))
    for what, n in sorted(run.failures.items()):
        print("  failed %dx: %s" % (n, what))
    for problem in run.problems[:20]:
        print("  check: %s" % problem)
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    print("digest %s seed %d: %s" % (run.workload, run.seed, digest))
    if run.traced:
        values, units = per_layer(run, mixes, Summary(tracer.spans)), PER_LAYER
    else:
        values, units = end_to_end(run), END_TO_END
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(RSS_OF), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not BUNDLED.is_dir():
        print("perfbench: no bundled mixes at %s" % BUNDLED, file=sys.stderr)
        return 2
    work_root = ROOT / ".perfbench_work"
    work = work_root / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    work.mkdir(parents=True)
    try:
        result = execute(Run(args.workload, args.seed, args.seconds, bool(args.trace), work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
