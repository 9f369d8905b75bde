"""Seeded benchmark inputs, written as text.

Every file is written here, line by line, and not through the package's own
writers, so a change to the program cannot change what it is fed.  The same
seed gives the same bytes.  All generated processes fit the default machine
(2 sockets x 14 cores x 11 ways), and every curve starts at 2 ways and never
rises, so every file parses.
"""

from __future__ import annotations

import os
import random

WAYS = 11  # default ways per socket
MIB = 1024 * 1024

# dense: every core of the default machine busy from t=0
DENSE_PROCESSES = 28
DENSE_PHASES = 8
# churn: 4 processes per socket, each with hundreds of short phases
CHURN_PROCESSES = 8
CHURN_PHASES = 256
# the heavy mix the CLI commands compare and simulate
CLI_PROCESSES = 10
CLI_PHASES = 12
CLI_NESTS = 8
TRAIN_SAMPLES = 40
TEST_SAMPLES = 20


def _curve_points(rng: random.Random, t_full: float, reuse: bool) -> list[str]:
    """A reuse phase slows down linearly below its saturation width; a
    streaming phase is flat, so a single point at 2 ways describes it."""
    if not reuse:
        return ["point 2 %d" % round(t_full)]
    sat = rng.randint(3, 9)
    steep = rng.uniform(0.3, 1.5)
    lines = []
    for w in range(2, sat + 1):
        lines.append("point %d %d" % (w, round(t_full * (1 + steep * (sat - w) / sat))))
    if sat < WAYS:
        lines.append("point %d %d" % (WAYS, round(t_full)))
    return lines


def _process(rng, pid, start_ns, phases, work_range, reuse_of) -> list[str]:
    out = ["process %d" % pid]
    if start_ns:
        out.append("start %d" % start_ns)
    for k in range(phases):
        reuse = reuse_of(pid, k)
        work = rng.randint(*work_range)
        if reuse:
            nbytes = rng.randint(1, 12) * MIB // 2
        else:
            nbytes = rng.randint(16, 64) * MIB
        out.append("phase p%d %d %s %d" % (k, work, "reuse" if reuse else "stream", nbytes))
        out += _curve_points(rng, work, reuse)
    return out


def _mix(name: str, procs: list[list[str]]) -> str:
    lines = ["format-version 1", "mix %s heavy" % name]
    for p in procs:
        lines += p
    lines.append("end")
    return "\n".join(lines) + "\n"


def dense_mix(seed: int) -> str:
    """28 processes, all at t=0, two reuse phases out of every three."""
    rng = random.Random("dense-%d" % seed)
    procs = [
        _process(rng, pid, 0, DENSE_PHASES, (60_000_000, 140_000_000),
                 lambda pid, k: (pid + k) % 3 != 0)
        for pid in range(DENSE_PROCESSES)
    ]
    return _mix("dense-%d" % seed, procs)


def churn_mix(seed: int) -> str:
    """8 processes arriving 40-60 ms apart, alternating reuse and stream
    phases of 5-15 ms each."""
    rng = random.Random("churn-%d" % seed)
    procs = []
    start = 0
    for pid in range(CHURN_PROCESSES):
        procs.append(
            _process(rng, pid, start, CHURN_PHASES, (5_000_000, 15_000_000),
                     lambda pid, k: (pid + k) % 2 == 0)
        )
        start += rng.randint(40_000_000, 60_000_000)
    return _mix("churn-%d" % seed, procs)


def cli_mix(seed: int) -> str:
    """10 processes arriving 30 ms apart, three reuse phases out of every
    five.  The phase classes are fixed so that the engine's cost per event
    varies little from seed to seed."""
    rng = random.Random("cli-%d" % seed)
    procs = [
        _process(rng, pid, pid * 30_000_000, CLI_PHASES, (50_000_000, 150_000_000),
                 lambda pid, k: (pid + k) % 5 < 3)
        for pid in range(CLI_PROCESSES)
    ]
    return _mix("cli-%d" % seed, procs)


def _nest(rng: random.Random, name: str) -> tuple[list[str], list[str]]:
    """One loop nest and its way-time curve."""
    depth = rng.randint(1, 3)
    trips = [rng.randint(8, 256) for _ in range(depth)]
    idx = ["i", "j", "k"][:depth]
    lines = ["nest %s" % name]
    indirect = rng.random() < 0.25
    if indirect:
        for arr, es in (("A", 8), ("B", 4), ("C", 8)):
            lines.append("array %s %d %d" % (arr, rng.randint(1000, 100000), es))
    for name_, trip in zip(idx, trips):
        est = " estimated" if rng.random() < 0.1 else ""
        lines.append("loop %s %d%s" % (name_, trip, est))
    # row-major subscript over every loop, then a reuse of A carried by the
    # innermost loop, then a write at the innermost level
    row = []
    stride = 1
    for name_, trip in reversed(list(zip(idx, trips))):
        row = [name_, str(stride)] + row
        stride *= trip
    lines.append("stmt %d" % depth)
    lines.append("access A read 8 0 " + " ".join(row))
    lines.append("access A read 8 %d %s" % (rng.randint(1, 4), " ".join(row)))
    if depth > 1:
        lines.append("access C read 8 0 %s 1" % idx[0])
    if indirect:
        lines.append("access-indirect B read 4")
    lines.append("access C write 8 0 " + " ".join(row))
    lines.append("end")
    curve = ["curve %s" % name] + _curve_points(rng, rng.randint(1000, 100000), rng.random() < 0.7)
    curve.append("end")
    return lines, curve


def nests_and_curves(seed: int) -> tuple[str, str]:
    rng = random.Random("nests-%d" % seed)
    nests, curves = ["format-version 1"], ["format-version 1"]
    for n in range(CLI_NESTS):
        nest, curve = _nest(rng, "n%d" % n)
        nests += nest
        curves += curve
    return "\n".join(nests) + "\n", "\n".join(curves) + "\n"


def samples(seed: int) -> tuple[str, str]:
    """Training and held-out samples of a depth-2 timing law with 1% noise."""
    rng = random.Random("samples-%d" % seed)
    c0, c1, c2 = rng.uniform(100, 1000), rng.uniform(1, 10), rng.uniform(0.1, 2)

    def text(n):
        lines = ["format-version 1"]
        for _ in range(n):
            u1, u2 = rng.randint(1, 200), rng.randint(1, 200)
            t = (c0 + c1 * u1 + c2 * u1 * u2) * rng.uniform(0.99, 1.01)
            lines.append("sample %d %d %r" % (u1, u2, t))
        return "\n".join(lines) + "\n"

    return text(TRAIN_SAMPLES), text(TEST_SAMPLES)


def write_inputs(directory: str, seed: int, workload: str) -> dict[str, str]:
    """Write the CLI inputs, plus the workload's own mix for dense and
    churn; return the paths by role."""
    os.makedirs(directory, exist_ok=True)
    nests, curves = nests_and_curves(seed)
    train, test = samples(seed)
    texts = {
        "heavy": ("heavy.mix", cli_mix(seed)),
        "nests": ("nests.txt", nests),
        "curves": ("curves.txt", curves),
        "train": ("train.txt", train),
        "test": ("test.txt", test),
    }
    if workload == "dense":
        texts["engine"] = ("dense.mix", dense_mix(seed))
    elif workload == "churn":
        texts["engine"] = ("churn.mix", churn_mix(seed))
    paths = {}
    for role, (name, text) in texts.items():
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths[role] = path
    return paths
