"""Command-line front end.

Subcommands: analyze, fit-timing, simulate, compare, sweep.  Exit codes:
0 on success, 2 on malformed input (schema violations, unreadable files),
3 on any other library error.

Speedup columns always carry both interpretations of the mean: equal
per-process weights and unmixed-time weights.

A report row maps each column name to its value, in CSV order, and its
names are the CSV header; every printed or averaged value is read by name.
So a new report column is one entry in `_report_row`.

Each command loads only the modules it runs.  The loop analysis (`loops`)
and the timing model (`timing`) are the compiler front end: `analyze` loads
only the first, `fit-timing` only the second, and `simulate`, `compare` and
`sweep` neither.  Their functions become globals of this module on first use
(see `__getattr__`), so a caller may still patch `cli.compute_srd` and the
like on the module, and the commands call the patched function.

`analyze` reads no system config: it sizes footprints in CAT's 64-byte
lines (`loops.LINE_SIZE`).
"""

from __future__ import annotations

import argparse
import glob
import importlib
import math
import os
import sys

from . import formats
from .apportion import SATURATION_EPSILON, SystemConfig
from .errors import CacheWaysError, FootprintUnanalyzable, SchemaError
from .metrics import (
    SLA_FACTOR,
    deficit_proxy,
    jain_fairness,
    sla_check,
    throughputs,
    weighted_speedup,
)
from .sensitivity import assemble_attributes
from .simulate import _POLICIES, CATEGORIES, INTERVAL_NS, PhaseSpec, Policy, mix_config, run_mix

POLICIES = tuple(_POLICIES)

# the front end's functions, by module, bound as globals on first use
_FRONT_END = {
    "loops": ("classify_reuse", "compute_srd", "footprint_closed_form", "indirect_default_footprint"),
    "timing": ("fit_timing", "timing_accuracy"),
}


def _load(module: str) -> dict:
    """Import a front-end module and bind its functions as globals of this
    module; a name already bound, by a patch say, keeps its value."""
    mod = importlib.import_module("." + module, __package__)
    names = globals()
    for name in _FRONT_END[module]:
        names.setdefault(name, getattr(mod, name))
    return names


def __getattr__(name: str):
    """PEP 562: `cli.<front-end function>` loads its module on first use."""
    for module, names in _FRONT_END.items():
        if name in names:
            return _load(module)[name]
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def interval_ns(text: str) -> float:
    """A period given in ms, as a finite positive number of ns; on anything
    else argparse names the flag and exits 2."""
    val = float(text) * 1e6
    if not (math.isfinite(val) and val > 0):
        raise ValueError(text)
    return val


def _add_run_options(sub) -> None:
    sub.add_argument("--config", help="system config file; the mix's own config lines outrank it")
    sub.add_argument("--interval-ms", dest="interval_ns", type=interval_ns, default=INTERVAL_NS,
                     help="reactive controller period in ms")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cacheways",
        description="Compiler-guided cache way partitioning, simulated.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="loop nests + way-time curves -> a mix, one phase per nest")
    a.add_argument("--nests", required=True, help="loop nest description file")
    a.add_argument("--curves", required=True, help="way-time curve file, one curve per nest")
    a.add_argument("--out", required=True, help="mix file to write; simulate, compare and sweep run it")

    f = sub.add_parser("fit-timing", help="fit the linear phase-timing model")
    f.add_argument("--samples", required=True, help="training sample file")
    f.add_argument("--out", required=True, help="model file to write")
    f.add_argument("--test", help="held-out sample file to score")

    s = sub.add_parser("simulate", help="run one mix under one policy")
    s.add_argument("--mix", required=True)
    s.add_argument("--policy", choices=POLICIES, default="comcas")
    s.add_argument("--log", help="allocation log to write")
    s.add_argument("--out", help="one-row report CSV to write")
    _add_run_options(s)

    c = sub.add_parser("compare", help="run one mix under every policy")
    c.add_argument("--mix", required=True)
    c.add_argument("--policies", default=",".join(POLICIES), help="comma-separated subset")
    c.add_argument("--out", help="comparison CSV to write")
    _add_run_options(c)

    w = sub.add_parser("sweep", help="run every mix under a directory and aggregate by category")
    w.add_argument("--mixes", required=True, help="directory searched recursively for .mix files")
    w.add_argument("--policies", default=",".join(POLICIES), help="comma-separated subset")
    w.add_argument("--out", help="directory for the per-mix and per-category CSVs")
    _add_run_options(w)
    return p


def _read_config(path) -> SystemConfig:
    return formats.read_config(path) if path else SystemConfig()


def _cmd_analyze(args) -> int:
    _load("loops")
    nests = formats.read_nests(args.nests)
    curves = formats.read_curves(args.curves)
    phases = []
    for nest in nests:
        if nest.name not in curves:
            raise SchemaError("%s: no way-time curve named %r" % (args.curves, nest.name))
        try:
            fp = footprint_closed_form(nest)
        except FootprintUnanalyzable:
            fp = indirect_default_footprint(nest)
        srd = compute_srd(nest)
        reuse = classify_reuse(srd)
        curve = curves[nest.name]
        alpha, max_ways = assemble_attributes(curve, SATURATION_EPSILON)
        full = curve.points[-1][1]
        phases.append(PhaseSpec(nest.name, full, reuse, fp.bytes, curve, full))
        print(
            "%s: %d bytes / %d lines%s, %s, alpha %.6g, max-ways %d"
            % (
                nest.name,
                fp.bytes,
                fp.lines,
                "" if fp.exact else " (upper bound)",
                reuse.value,
                alpha,
                max_ways,
            )
        )
    formats.write_attributes(phases, args.out)
    print("wrote a mix of %d phases to %s" % (len(phases), args.out))
    return 0


def _cmd_fit_timing(args) -> int:
    _load("timing")
    samples = formats.read_samples(args.samples)
    # the held-out file is read, at the training depth, and scored before
    # anything is printed or written
    test = formats.read_samples(args.test, len(samples[0].bounds)) if args.test else None
    model = fit_timing(samples)
    accuracy = timing_accuracy(model, test) if test else None
    formats.write_model(model, args.out)
    coefs = " ".join("%.6g" % c for c in model.coefficients)
    print("coefficients: %s" % coefs)
    print("fit residual: %.6g" % model.fit_residual)
    if test:
        print("held-out accuracy: %.2f%%" % accuracy)
    print("wrote model to %s" % args.out)
    return 0


def _load_run(path: str, base: SystemConfig):
    """(mix, config) of one run.  Each setting is resolved once, later
    sources outranking earlier ones: defaults, the --config file (`base`),
    then the mix's own config lines."""
    mix = formats.read_mix(path)
    return mix, mix_config(mix, base)


def _report_row(report, base=None) -> dict:
    """Every CSV column of one run, by name, in CSV order: its run, then its
    speedups over `base` (the unpartitioned run) when given, then its metrics
    from the speedups over running alone to the apportion count."""
    mixed, unmixed = report.completions, report.unmixed
    ok, ratios = sla_check(mixed, unmixed)
    try:
        deficit = deficit_proxy(report.width_timeline, report.end_time)
    except CacheWaysError as exc:
        raise CacheWaysError("mix %r under %s: %s" % (report.mix_name, report.policy, exc)) from None
    row = {
        "mix": report.mix_name,
        "category": report.category,
        "policy": report.policy,
        "interval_ns": report.interval_ns if report.interval_ns is not None else "",
        "end_ns": report.end_time,
    }
    if base is not None:
        row["speedup_vs_unpartitioned"] = weighted_speedup(base.completions, mixed)
        row["speedup_vs_unpartitioned_tweighted"] = weighted_speedup(base.completions, mixed, weights=unmixed)
    row.update(
        speedup_vs_alone=weighted_speedup(unmixed, mixed),
        speedup_vs_alone_tweighted=weighted_speedup(unmixed, mixed, weights=unmixed),
        fairness=jain_fairness(throughputs(mixed, unmixed)),
        sla_ok=int(ok),
        worst_slowdown=max(ratios.values()),
        deficit=deficit,
        apportionings=report.apportion_count,
    )
    return row


def _write_rows(path, rows) -> None:
    """Rows of one shape as a CSV whose header is their column names."""
    formats.write_table_csv(path, tuple(rows[0]), [tuple(r.values()) for r in rows])


def _cmd_simulate(args) -> int:
    mix, cfg = _load_run(args.mix, _read_config(args.config))
    report = run_mix(mix, Policy(args.policy, args.interval_ns), cfg)
    row = _report_row(report)
    print("mix %s (%s) under %s" % (report.mix_name, report.category, report.policy))
    print("finished at %.6g ns" % report.end_time)
    for pid in sorted(report.completions):
        print(
            "  pid %d: %.6g ns mixed, %.6g ns alone, slowdown %.4f"
            % (
                pid,
                report.completions[pid],
                report.unmixed[pid],
                report.completions[pid] / report.unmixed[pid],
            )
        )
    print(
        "speedup vs running alone: %.4f equal-weight, %.4f time-weighted"
        % (row["speedup_vs_alone"], row["speedup_vs_alone_tweighted"])
    )
    print("fairness: %.4f" % row["fairness"])
    print("SLA (%.2fx): %s, worst slowdown %.4f"
          % (SLA_FACTOR, "pass" if row["sla_ok"] else "FAIL", row["worst_slowdown"]))
    print("unmet-demand integral: %.6g" % row["deficit"])
    if report.policy == "comcas":
        print("apportionings: %d, largest shared group: %d" % (report.apportion_count, report.max_clos_group_size))
    for msg in report.warnings:
        print("warning: %s" % msg, file=sys.stderr)
    if args.log:
        formats.write_alloc_log(report.records, args.log, cfg)
        print("wrote allocation log to %s" % args.log)
    if args.out:
        _write_rows(args.out, [row])
        print("wrote report to %s" % args.out)
    return 0


def _parse_policies(text: str) -> list[str]:
    policies = [p.strip() for p in text.split(",") if p.strip()]
    if not policies:
        raise SchemaError("empty policy list")
    for i, p in enumerate(policies):
        if p not in POLICIES:
            raise SchemaError("unknown policy %r" % p)
        if p in policies[:i]:
            raise SchemaError("repeated policy %r" % p)
    return policies


def _compare_rows(mix, policies, interval_ns, cfg):
    base = run_mix(mix, Policy("unpartitioned"), cfg)
    return [
        _report_row(base if kind == "unpartitioned" else run_mix(mix, Policy(kind, interval_ns), cfg), base)
        for kind in policies
    ]


def _cmd_compare(args) -> int:
    mix, cfg = _load_run(args.mix, _read_config(args.config))
    policies = _parse_policies(args.policies)
    rows = _compare_rows(mix, policies, args.interval_ns, cfg)
    widths = "%-14s %-10s %8s %8s %8s %6s %8s"
    print(widths % ("policy", "end(ms)", "vs-unprt", "vs-alone", "fair", "sla", "deficit"))
    for row in rows:
        print(
            widths
            % (
                row["policy"],
                "%.4g" % (row["end_ns"] / 1e6),
                "%.4f" % row["speedup_vs_unpartitioned"],
                "%.4f" % row["speedup_vs_alone"],
                "%.4f" % row["fairness"],
                "ok" if row["sla_ok"] else "FAIL",
                "%.3g" % row["deficit"],
            )
        )
    if args.out:
        _write_rows(args.out, rows)
        print("wrote %s" % args.out)
    return 0


def _aggregate_rows(rows, policies):
    """One row per (category, policy) that ran, averaging compare's columns."""
    groups: dict[tuple[str, str], list] = {}
    for r in rows:
        groups.setdefault((r["category"], r["policy"]), []).append(r)
    out = []
    for cat in CATEGORIES:
        for pol in policies:
            rs = groups.get((cat, pol))
            if not rs:
                continue
            mean = lambda col: math.fsum(r[col] for r in rs) / len(rs)
            out.append({
                "category": cat,
                "policy": pol,
                "mixes": len(rs),
                "mean_speedup_vs_unpartitioned": mean("speedup_vs_unpartitioned"),
                "mean_speedup_vs_alone": mean("speedup_vs_alone"),
                "mean_fairness": mean("fairness"),
                "sla_pass_rate": mean("sla_ok"),
                "mean_deficit": mean("deficit"),
            })
    return out


def _cmd_sweep(args) -> int:
    pattern = os.path.join(glob.escape(args.mixes), "**", "*.mix")
    paths = sorted(glob.glob(pattern, recursive=True))
    if not paths:
        raise SchemaError("no .mix files under %r" % args.mixes)
    policies = _parse_policies(args.policies)
    base = _read_config(args.config)
    rows, path_of = [], {}  # mix name -> the path that holds it
    for path in paths:
        mix, cfg = _load_run(path, base)
        if mix.name in path_of:
            raise SchemaError("%s: mix %r is also in %s" % (path, mix.name, path_of[mix.name]))
        path_of[mix.name] = path
        rows.extend(_compare_rows(mix, policies, args.interval_ns, cfg))
    # rows go by mix name, which need not follow the path order
    rows.sort(key=lambda r: (r["mix"], policies.index(r["policy"])))
    agg = _aggregate_rows(rows, policies)
    by_cat: dict[str, list] = {}
    for a in agg:
        by_cat.setdefault(a["category"], []).append(a)
    for cat, cat_rows in by_cat.items():
        cells = "  ".join("%s %.4f" % (a["policy"], a["mean_speedup_vs_unpartitioned"]) for a in cat_rows)
        print("%-8s (%d mixes)  %s" % (cat, cat_rows[0]["mixes"], cells))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        mixes_csv = os.path.join(args.out, "sweep-mixes.csv")
        cats_csv = os.path.join(args.out, "sweep-categories.csv")
        _write_rows(mixes_csv, rows)
        _write_rows(cats_csv, agg)
        print("wrote %s and %s" % (mixes_csv, cats_csv))
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "fit-timing": _cmd_fit_timing,
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SchemaError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except CacheWaysError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
