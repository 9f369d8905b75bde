"""Top-level acceptance battery.

One test per shipped guarantee, each printing a single
``[criterion NN] PASS/FAIL`` line with the measured numbers, so the whole
contract is auditable from one ``pytest -s tests/test_acceptance.py`` run.
Runtime-budgeted criteria assert their own wall-clock limits.
"""

import glob
import math
import os
import random
import subprocess
import sys
import time

from cacheways.apportion import Apportioner, ReuseClass, SystemConfig
from cacheways.errors import CacheWaysError
from cacheways.formats import read_mix
from cacheways.loops import (
    compute_srd,
    footprint_closed_form,
    footprint_enumerate,
)
from cacheways.metrics import (
    jain_fairness,
    sla_check,
    throughputs,
    weighted_speedup,
)
from cacheways.sensitivity import alpha_sum, saturation_ways
from cacheways.simulate import Policy, run_mix
from cacheways.timing import TrainingSample, fit_timing, make_features, timing_accuracy

from oracles import (
    alpha_reference,
    cache_fractions,
    iteration_trace,
    random_affine_nest,
    strict_gaps,
    two_statement_nest,
)
from support import child_env, way_time_curve
from test_apportion import check_invariants
from test_fixtures import fixture_names, replay_fixture

MIXDIR = os.path.join(os.path.dirname(__file__), os.pardir, "mixes")


def report(num, ok, detail):
    print("\n[criterion %02d] %s %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "[criterion %02d] %s" % (num, detail)


def bundled_mixes(category="*"):
    paths = sorted(glob.glob(os.path.join(MIXDIR, category, "*.mix")))
    assert paths, "no bundled mixes under %s" % MIXDIR
    return paths


# -- 1: closed-form footprint vs exhaustive enumeration -------------------------

def test_c01_footprint_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(101)
    exact_n = inexact_n = 0
    bad = []
    for k in range(200):
        nest = random_affine_nest(rng, "n%d" % k)
        closed = footprint_closed_form(nest, 64)
        oracle = footprint_enumerate(nest, 64)
        if closed.exact:
            exact_n += 1
            if (closed.bytes, closed.lines) != (oracle.bytes, oracle.lines):
                bad.append((nest.name, closed, oracle))
        else:
            inexact_n += 1
            if closed.bytes < oracle.bytes or closed.lines < oracle.lines:
                bad.append((nest.name, closed, oracle))
    elapsed = time.monotonic() - t0
    ok = not bad and exact_n + inexact_n == 200 and elapsed < 30.0
    report(
        1,
        ok,
        "footprint: %d exact equal, %d inexact >= oracle, %.2fs (budget 30s)%s"
        % (exact_n, inexact_n, elapsed, "" if not bad else "; first bad: %r" % (bad[0],)),
    )


# -- 2: reuse-distance law on the two-statement family ---------------------------

def srd_of_pair(nest):
    res = compute_srd(nest)
    pairs = [p for p in res.pairs if p.array == "A"]
    assert len(pairs) == 1
    return pairs[0].srd


def test_c02_srd_law():
    t0 = time.monotonic()
    bad = []
    for m in range(3, 101):
        for n in range(1, 101):
            got = srd_of_pair(two_statement_nest(m, n))
            if got != 2 * n:
                bad.append((m, n, got))
    # trace-walk confirmation on every small shape plus the far corners
    subset = [(m, n) for m in range(3, 21) for n in range(1, 21)]
    subset += [(3, 1), (3, 100), (100, 1), (100, 100), (57, 43)]
    for m, n in subset:
        nest = two_statement_nest(m, n)
        gaps = strict_gaps(iteration_trace(nest))
        between = {g for key, gl in gaps.items() if key[0] == "A" for g in gl}
        # the walk counts the two split touches of A the symbolic law omits
        if between != {2 * n + 2} or srd_of_pair(nest) + 2 not in between:
            bad.append((m, n, sorted(between)))
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 10.0
    report(
        2,
        ok,
        "srd == 2N on 9800 (M,N) shapes, trace-checked on %d, %.2fs (budget 10s)%s"
        % (len(subset), elapsed, "" if not bad else "; first bad: %r" % (bad[0],)),
    )


# -- 3: linear timing-model recovery ---------------------------------------------

def test_c03_timing_recovery():
    rng = random.Random(33)
    worst_rel = 0.0
    worst_acc = 100.0
    for g in range(20):
        depth = rng.randint(1, 3)
        coefs = [rng.uniform(0.5, 100.0) for _ in range(depth + 1)]

        def observe(bounds, noise):
            feats = make_features(bounds)
            t = coefs[0] + math.fsum(c * u for c, u in zip(coefs[1:], feats))
            return t * (1.0 + noise)

        def draw(n, noisy):
            # trip counts within a decade band per level: a wider spread puts
            # four decades between the largest and smallest response, and an
            # absolute least-squares fit under multiplicative noise then gives
            # up relative accuracy at the tiny points
            out = []
            for _ in range(n):
                bounds = tuple(float(rng.randrange(10, 100)) for _ in range(depth))
                eps = rng.uniform(-0.01, 0.01) if noisy else 0.0
                out.append(TrainingSample(bounds, observe(bounds, eps)))
            return out

        clean = fit_timing(draw(40, noisy=False))
        for got, want in zip(clean.coefficients, coefs):
            worst_rel = max(worst_rel, abs(got - want) / abs(want))
        noisy = fit_timing(draw(40, noisy=True))
        worst_acc = min(worst_acc, timing_accuracy(noisy, draw(20, noisy=True)))
    ok = worst_rel <= 1e-6 and worst_acc >= 95.0
    report(
        3,
        ok,
        "20 generators: worst coefficient error %.3g (limit 1e-6), "
        "worst held-out accuracy %.2f%% (floor 95%%)" % (worst_rel, worst_acc),
    )


# -- 4: sensitivity factor and saturation point -----------------------------------

def random_monotone_curve(rng):
    ways = [2] + sorted(rng.sample(range(3, 12), rng.randint(2, 6)))
    t = rng.uniform(100.0, 10000.0)
    pts = {}
    for w in ways:
        pts[w] = t
        t = t if rng.random() < 0.2 else t * rng.uniform(0.5, 0.999)
    return way_time_curve(pts)


def test_c04_alpha_and_max_ways():
    rng = random.Random(77)
    eps_grid = (0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5)
    worst = 0.0
    bad = []
    for _ in range(50):
        curve = random_monotone_curve(rng)
        mw = saturation_ways(curve.points, 0.05)
        got = alpha_sum(curve.points, mw)
        want = alpha_reference(curve.points, mw)
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
        seq = [saturation_ways(curve.points, e) for e in eps_grid]
        if any(a < b for a, b in zip(seq, seq[1:])):
            bad.append((curve.points, seq))
    for flat_t in (1.0, 250.0, 9e8):
        flat = way_time_curve({2: flat_t, 5: flat_t, 11: flat_t})
        if saturation_ways(flat.points, 0.05) != 2 or alpha_sum(flat.points, 2) != 0.0:
            bad.append(("flat", flat_t))
    ok = worst <= 1e-12 and not bad
    report(
        4,
        ok,
        "alpha matches rational re-evaluation to %.3g (limit 1e-12) on 50 curves; "
        "max-ways non-increasing over epsilon grid; flat curves -> 2%s"
        % (worst, "" if not bad else "; first bad: %r" % (bad[0],)),
    )


# -- 5: allocation-state invariants under random event streams ---------------------

BYTES_CHOICES = (
    64, 4096, 65536, 1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20, 32 << 20,
)


def drive_stream(seed, n_events):
    rng = random.Random(seed)
    cfg = SystemConfig()
    ap = Apportioner(cfg)
    core_cap = cfg.sockets * cfg.cores_per_socket
    first_socket = {}
    live = set()
    next_pid = 0
    done = 0
    t = 0.0
    share_sum_checked = False

    def arrival():
        nonlocal next_pid
        pid = next_pid
        next_pid += 1
        alpha = round(rng.uniform(0.0, 8.0), 3)
        mw = rng.randint(1, cfg.ways_per_socket)
        nbytes = rng.choice(BYTES_CHOICES)
        reuse = ReuseClass.REUSE if rng.random() < 0.6 else ReuseClass.STREAM
        rng.uniform(1e3, 1e9)  # an unused draw, kept so the seeded stream is unchanged
        return (pid, alpha, mw, nbytes, reuse, rng.uniform(1e3, 1e9))

    while done < n_events:
        if done == 0:
            op = "batch"
        elif not live:
            op = "ipca"
        elif len(live) >= core_cap:
            op = "pcca" if rng.random() < 0.5 else "release"
        else:
            r = rng.random()
            op = "ipca" if r < 0.5 else ("pcca" if r < 0.8 else "release")
        if op in ("ipca", "batch"):
            k = rng.randint(2, 6) if op == "batch" else rng.choice((1, 1, 1, 2, 3))
            k = max(1, min(k, core_cap - len(live)))
            batch = [arrival() for _ in range(k)]
            try:
                ap.ipca_batch(t, batch)
            except CacheWaysError as exc:  # only a full machine refuses a batch
                assert str(exc) == "no socket has a free core or CLOS seat"
            live = set(ap.procs)  # check_invariants records each first socket
            done += k
            if op == "batch":
                for sock in ap.sockets:
                    if sock.processes:
                        s = sum(cache_fractions(
                            [(a[0], a[3], a[4]) for a in batch if a[0] in sock.processes], cfg
                        ).values())
                        assert s == 1, "t=0 shares sum to %r" % s
                share_sum_checked = True
        elif op == "pcca":
            pid = rng.choice(sorted(live))
            nbytes = rng.choice(BYTES_CHOICES)
            reuse = ReuseClass.REUSE if rng.random() < 0.6 else ReuseClass.STREAM
            ap.pcca(t, pid, nbytes, reuse, rng.uniform(1e3, 1e9))
            done += 1
        else:
            pid = rng.choice(sorted(live))
            ap.release_process(t, pid)
            live.discard(pid)
            done += 1
        check_invariants(ap, first_socket)
        t += rng.uniform(1.0, 1000.0)
    assert share_sum_checked
    return done, len(ap.records)


def test_c05_allocation_invariants():
    total_events = total_records = 0
    for seed in (5, 6, 7):
        done, nrec = drive_stream(seed, 1000)
        total_events += done
        total_records += nrec
    report(
        5,
        total_events >= 3000,
        "invariants held at every one of %d events (%d records) across 3 streams"
        % (total_events, total_records),
    )


# -- 6: hand-simulated allocation fixtures ------------------------------------------

def test_c06_hand_traced_fixtures(tmp_path):
    from cacheways.formats import write_alloc_log

    names = fixture_names()
    bad = []
    for name in names:
        ap, cfg = replay_fixture(name)
        out = tmp_path / ("%s.log" % name)
        write_alloc_log(ap.records, str(out), cfg)
        expected = open(
            os.path.join(os.path.dirname(__file__), "fixtures", "%s.expected.log" % name),
            encoding="utf-8",
        ).read()
        if out.read_text(encoding="utf-8") != expected:
            bad.append(name)
    ok = len(names) >= 10 and not bad
    report(
        6,
        ok,
        "%d hand-worked scenarios match record-for-record%s"
        % (len(names), "" if not bad else "; mismatched: %s" % ", ".join(bad)),
    )


# -- 7: policy ordering on the capacity-stressing mixes -------------------------------

def speedups_vs_unpartitioned(mix):
    base = run_mix(mix, Policy("unpartitioned"))
    out = {}
    for kind, policy in (
        ("comcas", Policy("comcas")),
        ("maxways", Policy("maxways")),
        ("reactive", Policy("reactive", 5e8)),
    ):
        rep = run_mix(mix, policy)
        out[kind] = weighted_speedup(base.completions, rep.completions)
    return out


def test_c07_heavy_mix_ordering():
    t0 = time.monotonic()
    rows = []
    bad = []
    heavy = bundled_mixes("heavy")
    for path in heavy:
        mix = read_mix(path)
        ws = speedups_vs_unpartitioned(mix)
        rows.append("%s cc=%.4f mw=%.4f rc=%.4f" % (mix.name, ws["comcas"], ws["maxways"], ws["reactive"]))
        if not (
            ws["comcas"] >= 1.05
            and ws["comcas"] > ws["maxways"]
            and ws["comcas"] > ws["reactive"]
        ):
            bad.append(rows[-1])
    elapsed = time.monotonic() - t0
    ok = len(heavy) >= 5 and not bad and elapsed < 60.0
    report(
        7,
        ok,
        "guided >= 1.05x and strictly ahead on all %d heavy mixes, %.2fs (budget 60s): %s"
        % (len(heavy), elapsed, "; ".join(rows)),
    )


# -- 8: reaction lag of the counter-driven policy --------------------------------------

def test_c08_detection_lag():
    mix = read_mix(os.path.join(MIXDIR, "medium", "m3-flicker.mix"))
    cc = run_mix(mix, Policy("comcas"))
    rc = run_mix(mix, Policy("reactive", 5e8))
    ratio = rc.end_time / cc.end_time
    report(
        8,
        ratio >= 1.10,
        "10ms-phase mix: counter-driven finishes %.1f%% later than guided (need >= 10%%)"
        % (100.0 * (ratio - 1.0)),
    )


# -- 9: per-process slowdown bound and fairness on every bundled mix ---------------------

def test_c09_sla_and_fairness():
    worst_ratio = 0.0
    worst_jain = 1.0
    bad = []
    paths = bundled_mixes()
    for path in paths:
        mix = read_mix(path)
        rep = run_mix(mix, Policy("comcas"))
        ok_sla, ratios = sla_check(rep.completions, rep.unmixed)
        jain = jain_fairness(throughputs(rep.completions, rep.unmixed))
        worst_ratio = max(worst_ratio, max(ratios.values()))
        worst_jain = min(worst_jain, jain)
        if not ok_sla or jain < 0.95:
            bad.append("%s sla=%.4f jain=%.4f" % (mix.name, max(ratios.values()), jain))
    ok = not bad
    report(
        9,
        ok,
        "guided on all %d bundled mixes: worst slowdown %.4fx (cap 1.15x), "
        "worst fairness %.4f (floor 0.95)%s"
        % (len(paths), worst_ratio, worst_jain, "" if ok else "; failing: " + "; ".join(bad)),
    )


# -- 10: bit-for-bit repeatability of the CLI -------------------------------------------

def test_c10_determinism(tmp_path):
    mixpath = os.path.abspath(os.path.join(MIXDIR, "heavy", "h3-triple.mix"))
    env = child_env()  # the child runs in a scratch directory
    outputs = []
    logs = []
    for k in range(2):
        workdir = tmp_path / ("run%d" % k)
        workdir.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "cacheways.cli", "simulate", "--mix", mixpath, "--log", "alloc.log"],
            capture_output=True,
            cwd=str(workdir),
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
        logs.append((workdir / "alloc.log").read_bytes())
    ok = outputs[0] == outputs[1] and logs[0] == logs[1]
    report(
        10,
        ok,
        "two CLI runs: stdout %d bytes identical, allocation log %d bytes identical"
        % (len(outputs[0]), len(logs[0])),
    )
