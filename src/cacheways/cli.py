"""Command-line front end.

Subcommands: analyze, fit-timing, simulate, compare, sweep.  Exit codes:
0 on success, 2 on malformed input (schema violations, unreadable files),
3 on any other library error.

Speedup columns always carry both interpretations of the mean: equal
per-process weights and unmixed-time weights.
"""

from __future__ import annotations

import argparse
import glob
import math
import os
import sys
from dataclasses import replace

from . import formats
from .apportion import SystemConfig
from .errors import CacheWaysError, FootprintUnanalyzable, SchemaError
from .loops import (
    classify_reuse,
    compute_srd,
    footprint_closed_form,
    indirect_default_footprint,
    validate_nest,
)
from .metrics import (
    SLA_FACTOR,
    deficit_proxy,
    jain_fairness,
    sla_check,
    throughputs,
    weighted_speedup,
)
from .sensitivity import assemble_attributes
from .simulate import _POLICIES, CATEGORIES, Policy, mix_config, run_mix
from .timing import fit_timing, timing_accuracy

POLICIES = tuple(_POLICIES)


def finite_positive(text: str) -> float:
    """A finite positive flag value; on anything else argparse names the
    flag and exits 2."""
    val = float(text)
    if not (math.isfinite(val) and val > 0):
        raise ValueError(text)
    return val


def non_negative(text: str) -> int:
    """A whole number >= 0; on anything else argparse names the flag and
    exits 2."""
    val = int(text)
    if val < 0:
        raise ValueError(text)
    return val


def _add_run_options(sub) -> None:
    sub.add_argument("--config", help="system config file; the mix's own config lines outrank it")
    sub.add_argument("--gfactor", type=int, help="override the per-CLOS group size limit")
    sub.add_argument("--scale-stream", type=float, help="override the streaming footprint scale factor")
    sub.add_argument("--interval-ms", type=finite_positive, default=500.0, help="reactive controller period in ms")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cacheways",
        description="Compiler-guided cache way partitioning, simulated.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="loop nests + way-time curves -> probe attributes")
    a.add_argument("--nests", required=True, help="loop nest description file")
    a.add_argument("--curves", required=True, help="way-time curve file, one curve per nest")
    a.add_argument("--out", required=True, help="attributes file to write")
    a.add_argument("--config", help="system config file; analyze reads line_size, srd_delta and saturation_epsilon")

    f = sub.add_parser("fit-timing", help="fit the linear phase-timing model")
    f.add_argument("--samples", required=True, help="training sample file")
    f.add_argument("--out", required=True, help="model file to write")
    f.add_argument("--test", help="held-out sample file to score")

    s = sub.add_parser("simulate", help="run one mix under one policy")
    s.add_argument("--mix", required=True)
    s.add_argument("--policy", choices=POLICIES, default="comcas")
    s.add_argument("--log", help="allocation log CSV to write")
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
    w.add_argument("--parallel", action="store_true", help="run mixes in parallel worker processes")
    w.add_argument("--jobs", type=non_negative, default=0, help="worker count for --parallel (0: cpu count)")
    w.add_argument("--out", help="directory for the per-mix and per-category CSVs")
    _add_run_options(w)
    return p


def _read_config(path) -> SystemConfig:
    return formats.read_config(path) if path else SystemConfig()


def _cmd_analyze(args) -> int:
    cfg = _read_config(args.config)
    nests = formats.read_nests(args.nests)
    curves = formats.read_curves(args.curves)
    bundle = []
    for nest in nests:
        validate_nest(nest)
        if nest.name not in curves:
            raise SchemaError("no way-time curve named %r" % nest.name)
        try:
            fp = footprint_closed_form(nest, cfg.line_size)
        except FootprintUnanalyzable:
            fp = indirect_default_footprint(nest, cfg.line_size)
        srd = compute_srd(nest)
        reuse = classify_reuse(srd, cfg.srd_delta)
        curve = curves[nest.name]
        attrs = assemble_attributes(
            nest.name,
            fp,
            reuse,
            curve,
            fixed_ns=curve.time_at(curve.last_way),
            epsilon=cfg.saturation_epsilon,
        )
        bundle.append(attrs)
        print(
            "%s: %d bytes / %d lines%s, %s, alpha %.6g, max-ways %d"
            % (
                nest.name,
                fp.bytes,
                fp.lines,
                "" if fp.exact else " (upper bound)",
                reuse.value,
                attrs.alpha,
                attrs.max_ways,
            )
        )
    formats.write_attributes(bundle, args.out)
    print("wrote %d attribute blocks to %s" % (len(bundle), args.out))
    return 0


def _cmd_fit_timing(args) -> int:
    samples = formats.read_samples(args.samples)
    model = fit_timing(samples)
    formats.write_model(model, args.out)
    coefs = " ".join("%.6g" % c for c in model.coefficients)
    print("coefficients: %s" % coefs)
    print("fit residual: %.6g" % model.fit_residual)
    if args.test:
        test = formats.read_samples(args.test)
        print("held-out accuracy: %.2f%%" % timing_accuracy(model, test))
    print("wrote model to %s" % args.out)
    return 0


def _flag_overrides(args) -> dict:
    out = {}
    if args.gfactor is not None:
        out["gfactor"] = args.gfactor
    if args.scale_stream is not None:
        out["scaling_factor_stream"] = args.scale_stream
    return out


def _load_run(path: str, config_path, flags: dict):
    """(mix, config) of one run.  Each setting is resolved once, later
    sources outranking earlier ones: defaults, the --config file, the mix's
    own config lines, then explicit flags."""
    mix = formats.read_mix(path)
    if flags:
        mix = replace(mix, config_overrides={**mix.config_overrides, **flags})
    return mix, mix_config(mix, _read_config(config_path))


def _report_row(report, *vs_base):
    """One CSV row of a report: its run, then `vs_base` (compare's speedups
    over unpartitioned, if any), then its metrics from the speedups over
    running alone to the apportion count."""
    mixed, unmixed = report.completions, report.unmixed
    ok, ratios = sla_check(mixed, unmixed)
    return (
        report.mix_name,
        report.category,
        report.policy,
        report.interval_ns if report.interval_ns is not None else "",
        report.end_time,
        *vs_base,
        weighted_speedup(unmixed, mixed),
        weighted_speedup(unmixed, mixed, weights=unmixed),
        jain_fairness(throughputs(mixed, unmixed)),
        int(ok),
        max(ratios.values()),
        deficit_proxy(report.width_timeline, report.end_time),
        report.apportion_count,
    )


REPORT_HEADER = (
    "mix",
    "category",
    "policy",
    "interval_ns",
    "end_ns",
    "speedup_vs_alone",
    "speedup_vs_alone_tweighted",
    "fairness",
    "sla_ok",
    "worst_slowdown",
    "deficit",
    "apportionings",
)


def _cmd_simulate(args) -> int:
    mix, cfg = _load_run(args.mix, args.config, _flag_overrides(args))
    report = run_mix(mix, Policy(args.policy, args.interval_ms * 1e6), cfg)
    row = _report_row(report)
    ws, ws_tw, jain, ok, worst, deficit = row[5:11]
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
        % (ws, ws_tw)
    )
    print("fairness: %.4f" % jain)
    print("SLA (%.2fx): %s, worst slowdown %.4f" % (SLA_FACTOR, "pass" if ok else "FAIL", worst))
    print("unmet-demand integral: %.6g" % deficit)
    if report.policy == "comcas":
        print("apportionings: %d, largest shared group: %d" % (report.apportion_count, report.max_clos_group_size))
    for msg in report.warnings:
        print("warning: %s" % msg, file=sys.stderr)
    if args.log:
        formats.write_alloc_log(report.records, args.log, cfg)
        print("wrote allocation log to %s" % args.log)
    if args.out:
        formats.write_table_csv(args.out, REPORT_HEADER, [row])
        print("wrote report to %s" % args.out)
    return 0


COMPARE_HEADER = (
    "mix",
    "category",
    "policy",
    "interval_ns",
    "end_ns",
    "speedup_vs_unpartitioned",
    "speedup_vs_unpartitioned_tweighted",
    "speedup_vs_alone",
    "speedup_vs_alone_tweighted",
    "fairness",
    "sla_ok",
    "worst_slowdown",
    "deficit",
    "apportionings",
)

AGGREGATE_HEADER = (
    "category",
    "policy",
    "mixes",
    "mean_speedup_vs_unpartitioned",
    "mean_speedup_vs_alone",
    "mean_fairness",
    "sla_pass_rate",
    "mean_deficit",
)


def _parse_policies(text: str) -> list[str]:
    policies = [p.strip() for p in text.split(",") if p.strip()]
    if not policies:
        raise SchemaError("empty policy list")
    for p in policies:
        if p not in POLICIES:
            raise SchemaError("unknown policy %r" % p)
    return policies


def _compare_rows(mix, policies, interval_ns, cfg):
    base = run_mix(mix, Policy("unpartitioned"), cfg)
    rows = []
    for kind in policies:
        report = (
            base if kind == "unpartitioned" else run_mix(mix, Policy(kind, interval_ns), cfg)
        )
        ws_base = weighted_speedup(base.completions, report.completions)
        ws_base_tw = weighted_speedup(
            base.completions, report.completions, weights=report.unmixed
        )
        rows.append(_report_row(report, ws_base, ws_base_tw))
    return rows


def _cmd_compare(args) -> int:
    mix, cfg = _load_run(args.mix, args.config, _flag_overrides(args))
    policies = _parse_policies(args.policies)
    rows = _compare_rows(mix, policies, args.interval_ms * 1e6, cfg)
    widths = "%-14s %-10s %8s %8s %8s %6s %8s"
    print(widths % ("policy", "end(ms)", "vs-unprt", "vs-alone", "fair", "sla", "deficit"))
    for row in rows:
        print(
            widths
            % (
                row[2],
                "%.4g" % (row[4] / 1e6),
                "%.4f" % row[5],
                "%.4f" % row[7],
                "%.4f" % row[9],
                "ok" if row[10] else "FAIL",
                "%.3g" % row[12],
            )
        )
    if args.out:
        formats.write_table_csv(args.out, COMPARE_HEADER, rows)
        print("wrote %s" % args.out)
    return 0


def _sweep_worker(job):
    """One mix end to end; module-level so worker processes can import it."""
    path, policies, interval_ns, config_path, flag_items = job
    mix, cfg = _load_run(path, config_path, dict(flag_items))
    return _compare_rows(mix, list(policies), interval_ns, cfg)


def _aggregate_rows(rows, policies):
    groups: dict[tuple[str, str], list] = {}
    for r in rows:
        groups.setdefault((r[1], r[2]), []).append(r)
    out = []
    for cat in CATEGORIES:
        for pol in policies:
            rs = groups.get((cat, pol))
            if not rs:
                continue
            n = len(rs)
            mean = lambda idx: math.fsum(r[idx] for r in rs) / n
            out.append((cat, pol, n, mean(5), mean(7), mean(9), mean(10), mean(12)))
    return out


def _cmd_sweep(args) -> int:
    paths = sorted(glob.glob(os.path.join(args.mixes, "**", "*.mix"), recursive=True))
    if not paths:
        raise SchemaError("no .mix files under %r" % args.mixes)
    policies = _parse_policies(args.policies)
    interval_ns = args.interval_ms * 1e6
    flag_items = tuple(sorted(_flag_overrides(args).items()))
    jobs = [(p, tuple(policies), interval_ns, args.config, flag_items) for p in paths]
    if args.parallel:
        import concurrent.futures  # deferred: only --parallel pays for it

        workers = args.jobs or os.cpu_count() or 1
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            per_mix = list(pool.map(_sweep_worker, jobs))
    else:
        per_mix = [_sweep_worker(job) for job in jobs]
    rows = [row for mix_rows in per_mix for row in mix_rows]
    # merged output is ordered by mix name regardless of worker completion order
    rows.sort(key=lambda r: (r[0], policies.index(r[2])))
    agg = _aggregate_rows(rows, policies)
    by_cat: dict[str, list] = {}
    for a in agg:
        by_cat.setdefault(a[0], []).append(a)
    for cat, cat_rows in by_cat.items():
        cells = "  ".join("%s %.4f" % (a[1], a[3]) for a in cat_rows)
        print("%-8s (%d mixes)  %s" % (cat, cat_rows[0][2], cells))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        mixes_csv = os.path.join(args.out, "sweep-mixes.csv")
        cats_csv = os.path.join(args.out, "sweep-categories.csv")
        formats.write_table_csv(mixes_csv, COMPARE_HEADER, rows)
        formats.write_table_csv(cats_csv, AGGREGATE_HEADER, agg)
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
