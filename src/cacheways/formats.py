"""Readers and writers for the on-disk text formats.

Every structured file follows one line grammar.  Blank lines and `#`
comments are skipped, the first meaningful line must be `format-version 1`,
and every other line is one keyword followed by whitespace-separated
arguments.  `_KEYWORDS` is the whole grammar: for each keyword, the types of
its arguments (a name, an int, a finite float, a range-checked byte count,
way count, positive or non-negative float, `stream|reuse`, the literal
`estimated`, a hex mask, an occupancy scenario, an allocation event, a 0/1
flag, possibly a repeated tail) and a usage string for errors.

One reader, `_Reader`, checks each line's keyword, arity, types, ranges and
finiteness against that table and hands back typed lines with their line
numbers.  It knows no keyword by name but the version line.  A rule the
table cannot state lives in the one function that assembles its block:
`read_mix` rejects a field set twice in one process or phase, a phase whose
speed at a curve point and a process whose earliest end leave the float
range, `read_samples` a sample whose trip-count products or their squares
do, `_config` types each config value by its key, `_leading_config` splits
off the config lines that open an event trace or allocation log, and nests
and curves share one `opener <name> ... end` block splitter.  Any malformed
line, a truncated one included, raises SchemaError naming the file and line.

There is one reader or writer per file a command reads or writes, plus the
event-trace functions and `read_alloc_log`, which serve the allocation
fixtures.  Writers render through the same table (ints with %d, reuse
classes and scenarios by name, masks with %#x, flags as 0/1, floats with
%.17g), so what they write reads back value-exact.  The allocation log is
the run's non-default config lines, then one `record` line per
AllocationRecord with all its fields.  Only the comparison and sweep
reports are CSV (`write_table_csv`): nothing reads them back.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import sys
from functools import partial
from operator import attrgetter
from typing import TYPE_CHECKING

from .apportion import AllocationRecord, ReuseClass, Scenario, SystemConfig
from .errors import SchemaError
from .sensitivity import WayTimeCurve
from .simulate import CATEGORIES, MixSpec, PhaseSpec, ProcessSpec

if TYPE_CHECKING:  # annotations only; read_nests and read_samples import what they build
    from .loops import LoopNest
    from .timing import TimingModel, TrainingSample

FORMAT_VERSION = 1


def fmt_float(x: float) -> str:
    return "%.17g" % x


# ---------------------------------------------------------------------------
# the grammar
# ---------------------------------------------------------------------------

def _finite(tok: str) -> float:
    val = float(tok)
    if not math.isfinite(val):
        raise ValueError(tok)
    return val


def _checked(conv, ok, tok: str):
    """conv(tok), rejected unless ok(value)."""
    val = conv(tok)
    if not ok(val):
        raise ValueError(tok)
    return val


def _flag(tok: str) -> bool:
    if tok not in ("0", "1"):
        raise ValueError(tok)
    return tok == "1"


# type: (converter raising ValueError on a bad token, renderer, description)
_TYPES = {
    "name": (str, str, "a name"),
    "int": (int, "%d".__mod__, "an integer"),
    "float": (_finite, fmt_float, "a finite number"),
    "bytes": (partial(_checked, int, lambda v: 0 <= v <= sys.float_info.max), "%d".__mod__,
              "an integer >= 0 within the float range"),
    "ways": (partial(_checked, int, lambda v: v >= 1), "%d".__mod__, "an integer >= 1"),
    "positive": (partial(_checked, _finite, lambda v: v > 0), fmt_float, "a finite number > 0"),
    "nonneg": (partial(_checked, _finite, lambda v: v >= 0), fmt_float, "a finite number >= 0"),
    "reuse": (ReuseClass, attrgetter("value"), "stream|reuse"),
    "estimated": (partial(_checked, str, "estimated".__eq__), str, "'estimated'"),
    "mask": (partial(_checked, partial(int, base=16), lambda v: v >= 0), "%#x".__mod__, "a hex mask >= 0"),
    "scenario": (Scenario, attrgetter("value"), "|".join(s.value for s in Scenario)),
    "event": (partial(_checked, str, ("ipca", "pcca", "release").__contains__), str, "ipca|pcca|release"),
    "flag": (_flag, "%d".__mod__, "0|1"),
}

# keyword: (argument types, usage).  "[t]" is an optional last argument and
# "(t ...)..." a group repeated to the end of the line.  `_config` types a
# config value by its key's SystemConfig field.
_KEYWORDS = {
    "nest": ("name", "name"),
    "array": ("name int int", "name extent element-size"),
    "loop": ("name int [estimated]", "index-name bound [estimated]"),
    "stmt": ("int", "depth"),
    "access": (
        "name name int int (name int)...",
        "array kind element-size const (index coeff)...",
    ),
    "access-indirect": ("name name int", "array kind element-size"),
    "curve": ("name", "name"),
    "point": ("int float", "ways time"),
    "alpha": ("nonneg", "value"),
    "max-ways": ("ways", "ways"),
    "fixed-ns": ("positive", "ns"),
    "sample": ("nonneg nonneg (nonneg)...", "bounds... observed-time"),
    "residual": ("float", "value"),
    "coefficients": ("(float)...", "c0 [c1 ...]"),
    "config": ("name name", "key value"),
    "mix": ("name name", "name category"),
    "process": ("int", "pid"),
    "start": ("float", "ns"),
    "phase": ("name positive reuse bytes", "id work stream|reuse footprint-bytes"),
    "ipca": (
        "float int nonneg ways bytes reuse float",
        "t pid alpha max-ways bytes stream|reuse predicted",
    ),
    "pcca": ("float int bytes reuse float", "t pid bytes stream|reuse predicted"),
    "release": ("float int", "t pid"),
    # one AllocationRecord, its fields in order
    "record": (
        "float int event int int mask scenario flag int int nonneg flag",
        "t pid event socket clos mask scenario satisfied req-ways granted-ways alpha changed",
    ),
    "end": ("", "no arguments"),
}

_CONFIG_TYPES = {f.name: f.type for f in dataclasses.fields(SystemConfig)}

_SHAPES: dict = {}


def _shape(kw: str, n: int):
    """(types, converters, renderers) of a `kw` line with n arguments, or
    None when the grammar does not allow n.  Cached per (kw, n), since the
    reader asks once per line."""
    key = (kw, n)
    if key not in _SHAPES:
        spec = _KEYWORDS[kw][0]
        fixed, _, tail = spec.replace("[", "(").partition("(")
        fixed, tail = fixed.split(), tail.strip(".)]").split()
        extra = n - len(fixed)
        reps = extra // len(tail) if tail and extra > 0 else 0
        if extra == reps * len(tail) and (reps <= 1 or "[" not in spec):
            types = fixed + tail * reps
            _SHAPES[key] = (
                types, [_TYPES[t][0] for t in types], [_TYPES[t][1] for t in types]
            )
        else:
            _SHAPES[key] = None
    return _SHAPES[key]


def _fail(path: str, no: int, msg: str):
    raise SchemaError("%s:%d: %s" % (path, no, msg))


def _value(path: str, no: int, label: str, typ: str, tok: str):
    """One token converted to `typ`, or a SchemaError at path:no."""
    try:
        return _TYPES[typ][0](tok)
    except ValueError:
        _fail(path, no, "%s: bad value %r, expected %s" % (label, tok, _TYPES[typ][2]))


def _text(path: str) -> str:
    """The file's text with every line ending made \\n; bytes that are not
    UTF-8 are a SchemaError at their line."""
    with open(path, "rb") as fh:
        data = fh.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        _fail(path, data.count(b"\n", 0, exc.start) + 1, "not UTF-8 text")


class _Reader:
    """The typed lines of one file after its version line, each a tuple
    (line number, keyword, converted arguments).  Only `keywords` may
    appear, and `first`, when given, must open the file."""

    def __init__(self, path: str, keywords, first: str | None = None):
        self.path = path
        self.lines: list[tuple] = []
        lines, last = self.lines, 0
        for no, raw in enumerate(_text(path).split("\n"), start=1):
            toks = raw.split("#", 1)[0].split()
            if not toks:
                continue
            if not last:
                if toks != ["format-version", str(FORMAT_VERSION)]:
                    self.fail(no, "expected 'format-version %d'" % FORMAT_VERSION)
                last = no
                continue
            last = no
            kw, args = toks[0], toks[1:]
            if first and not lines:
                if kw != first:
                    self.fail(no, "expected: %s %s" % (first, _KEYWORDS[first][1]))
            elif kw not in keywords:
                self.fail(no, "unknown keyword %r" % kw)
            shape = _SHAPES.get((kw, len(args))) or _shape(kw, len(args))
            if shape is None:
                self.fail(no, "%s takes %s" % (kw, _KEYWORDS[kw][1]))
            try:
                vals = [conv(tok) for conv, tok in zip(shape[1], args)]
            except ValueError:
                for typ, tok in zip(shape[0], args):
                    _value(path, no, kw, typ, tok)
            lines.append((no, kw, vals))
        if not last:
            raise SchemaError("%s: empty file" % path)
        self.last = last  # number of the last meaningful line
        if first and not lines:
            self.fail(last, "expected: %s %s" % (first, _KEYWORDS[first][1]))

    def fail(self, no: int, msg: str):
        _fail(self.path, no, msg)

    def build(self, no: int, what: str, make, *args, **kwargs):
        """make(...), with any SchemaError it raises pinned to line `no`
        and prefixed with `what`, if not empty."""
        try:
            return make(*args, **kwargs)
        except SchemaError as exc:
            self.fail(no, "%s: %s" % (what, exc) if what else str(exc))


def _blocks(rd: _Reader, opener: str):
    """Split the lines into `opener <name> ... end` blocks; yields (name,
    opener line number, body lines, end line number) for each."""
    head = None
    for line in rd.lines:
        no, kw, args = line
        if kw == opener:
            if head is not None:
                rd.fail(no, "previous %s not closed with 'end'" % opener)
            head, body = (args[0], no), []
        elif head is None:
            rd.fail(no, "%s outside a %s block" % (kw, opener))
        elif kw == "end":
            yield (*head, body, no)
            head = None
        else:
            body.append(line)
    if head is not None:
        rd.fail(head[1], "%s %r not closed with 'end'" % (opener, head[0]))


def _render(kw: str, *args) -> str:
    """One `kw` line, each argument rendered by its type in the grammar."""
    shape = _shape(kw, len(args))
    if shape is None:
        raise SchemaError("cannot write %r with %d values" % (kw, len(args)))
    return " ".join([kw, *[render(a) for render, a in zip(shape[2], args)]])


def _config_lines(settings) -> list[str]:
    """`config key value` lines, each value rendered by its field's type."""
    return [
        "config %s %s" % (key, _TYPES[_CONFIG_TYPES[key]][1](val))
        for key, val in settings
    ]


def _non_default(config: SystemConfig) -> list[tuple]:
    """(key, value) of each field that differs from the default, in field order."""
    default = SystemConfig()
    return [
        (key, getattr(config, key))
        for key in _CONFIG_TYPES
        if getattr(config, key) != getattr(default, key)
    ]


def _config(rd: _Reader, lines) -> tuple[SystemConfig, dict]:
    """(config, overrides) from `config` lines, each value typed by its
    key's SystemConfig field.  A repeated key keeps its last value; a value
    SystemConfig rejects is pinned to its line."""
    overrides, where = {}, {}
    for no, _, (key, tok) in lines:
        if key not in _CONFIG_TYPES:
            rd.fail(no, "unknown config key %r" % key)
        overrides[key] = _value(rd.path, no, "config " + key, _CONFIG_TYPES[key], tok)
        where[key] = no
    for key, val in overrides.items():
        rd.build(where[key], "config " + key, SystemConfig, **{key: val})
    return SystemConfig(**overrides), overrides


def _leading_config(rd: _Reader, what: str) -> tuple[SystemConfig, list]:
    """(config, the lines after it) of a file whose `config` lines open it;
    a config line after any `what` line is an error at its line."""
    n = 0
    while n < len(rd.lines) and rd.lines[n][1] == "config":
        n += 1
    cfg, _ = _config(rd, rd.lines[:n])
    for no, kw, _ in rd.lines[n:]:
        if kw == "config":
            rd.fail(no, "config lines must precede %s" % what)
    return cfg, rd.lines[n:]


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("format-version %d\n" % FORMAT_VERSION)
        for line in lines:
            fh.write(line + "\n")


# ---------------------------------------------------------------------------
# loop nests
# ---------------------------------------------------------------------------

def read_nests(path: str) -> list[LoopNest]:
    """The nests, each one `validate_nest` admits."""
    # imported here, not at the top, so that a command that reads no nest
    # never loads the loop analysis
    from .loops import Affine, ArrayDecl, Bound, LoopLevel, LoopNest, MemoryAccess, Statement, validate_nest

    rd = _Reader(path, {"nest", "array", "loop", "stmt", "access", "access-indirect", "end"})
    nests: list[LoopNest] = []
    for name, opener, body, end in _blocks(rd, "nest"):
        loops, stmts, arrays = [], [], []
        for no, kw, args in body:
            if kw == "array":
                arrays.append(ArrayDecl(*args))
            elif kw == "loop":
                index, bound, *est = args
                bound = rd.build(no, "loop " + index, Bound, bound, bool(est))
                loops.append(LoopLevel(index, bound))
            elif kw == "stmt":
                stmts.append(([], args[0]))
            elif not stmts:
                rd.fail(no, "%s outside a stmt" % kw)
            else:  # access, whose subscript follows the size, or access-indirect
                array, kind, size, *sub = args
                sub = Affine(sub[0], tuple(zip(sub[1::2], sub[2::2]))) if sub else None
                stmts[-1][0].append(MemoryAccess(array, size, sub, kind))
        if not loops:
            rd.fail(end, "nest %r has no loops" % name)
        statements = tuple(Statement(tuple(accs), depth) for accs, depth in stmts)
        nest = LoopNest(name, tuple(loops), statements, tuple(arrays))
        rd.build(opener, "", validate_nest, nest)
        nests.append(nest)
    if not nests:
        rd.fail(rd.last, "no nest in the file")
    return nests


# ---------------------------------------------------------------------------
# way-time curves
# ---------------------------------------------------------------------------

def read_curves(path: str) -> dict[str, WayTimeCurve]:
    rd = _Reader(path, {"curve", "point", "end"})
    curves: dict[str, WayTimeCurve] = {}
    for name, no, body, end in _blocks(rd, "curve"):
        if name in curves:
            rd.fail(no, "duplicate curve %r" % name)
        points = tuple(sorted((w, t) for _, _, (w, t) in body))
        curves[name] = rd.build(end, "curve %r" % name, WayTimeCurve, points)
    return curves


# ---------------------------------------------------------------------------
# timing samples and models
# ---------------------------------------------------------------------------

def read_samples(path: str, depth: int | None = None) -> list[TrainingSample]:
    """The samples, all of one depth: `depth` when given, else the first's."""
    from .timing import TrainingSample, make_features  # as in read_nests: only fit-timing loads the model

    rd = _Reader(path, {"sample"})
    samples: list[TrainingSample] = []
    for no, _, (*bounds, observed) in rd.lines:
        depth = depth or len(bounds)
        if len(bounds) != depth:
            rd.fail(no, "sample arity %d != %d" % (len(bounds), depth))
        # the fit squares each product, so its square must stay in the float range too
        if not all(math.isfinite(u * u) for u in make_features(bounds)):
            rd.fail(no, "sample: a product of its trip counts leaves the float range when squared")
        samples.append(TrainingSample(tuple(bounds), observed))
    if not samples:
        rd.fail(rd.last, "no sample in the file")
    return samples


def write_model(model: TimingModel, path: str) -> None:
    out = [_render("residual", model.fit_residual)]
    out.append(_render("coefficients", *model.coefficients))
    _write_lines(path, out)


# ---------------------------------------------------------------------------
# config overrides
# ---------------------------------------------------------------------------

def read_config(path: str) -> SystemConfig:
    rd = _Reader(path, {"config"})
    return _config(rd, rd.lines)[0]


# ---------------------------------------------------------------------------
# process mixes
# ---------------------------------------------------------------------------

_MIX_KEYWORDS = frozenset((
    "config", "process", "start", "alpha", "max-ways", "phase", "fixed-ns", "point", "end",
))


def read_mix(path: str) -> MixSpec:
    """Parse one mix.  A phase without fixed-ns keeps fixed_ns None: the
    simulator predicts its full-width time under the run's configuration.
    """
    rd = _Reader(path, _MIX_KEYWORDS, first="mix")
    lines = iter(rd.lines)
    no, _, (name, category) = next(lines)
    if category not in CATEGORIES:
        rd.fail(no, "category %r is not one of %s" % (category, ", ".join(CATEGORIES)))
    settings = []
    # a process or phase is (line number, args, fields, children); fields
    # maps each keyword that sets one field to its (line number, value)
    procs: list[tuple] = []
    proc_line: dict[int, int] = {}  # pid -> its process line
    proc = phase = None
    closed = False
    for line in lines:
        no, kw, args = line
        if closed:
            rd.fail(no, "content after 'end'")
        if kw == "point" and phase is not None:
            phase[3].append((args[0], args[1]))
        elif kw == "config":
            if procs:
                rd.fail(no, "config lines must precede processes")
            settings.append(line)
        elif kw == "process":
            if args[0] in proc_line:
                rd.fail(no, "repeated process %d; first at line %d" % (args[0], proc_line[args[0]]))
            proc_line[args[0]] = no
            proc, phase = (no, args, {}, []), None
            procs.append(proc)
        elif proc is None:
            rd.fail(no, "%s outside a process" % kw)
        elif kw == "phase":
            phase = (no, args, {}, [])
            proc[3].append(phase)
        elif kw in ("point", "fixed-ns") and phase is None:
            rd.fail(no, "%s outside a phase" % kw)
        elif kw == "end":
            closed = True
        else:
            fields = phase[2] if kw == "fixed-ns" else proc[2]
            if kw in fields:
                rd.fail(no, "repeated %s; first at line %d" % (kw, fields[kw][0]))
            if phase is not None and kw in ("alpha", "max-ways"):
                rd.fail(no, "%s must precede the process's phases" % kw)
            fields[kw] = (no, args[0])
    if not closed:
        rd.fail(rd.last, "mix not closed with 'end'")
    _, overrides = _config(rd, settings)
    return MixSpec(name, category, tuple(_process(rd, p) for p in procs), overrides)


def _process(rd: _Reader, proc: tuple) -> ProcessSpec:
    no, (pid,), fields, phases = proc
    if not phases:
        rd.fail(no, "process %d has no phases" % pid)
    specs = tuple(rd.build(ph[0], "phase %r" % ph[1][0], _phase, ph) for ph in phases)
    vals = {kw: val for kw, (_, val) in fields.items()}
    start = vals.get("start", 0.0)
    # no phase runs faster than its curve's smallest time; a start that
    # absorbs even that would end the process at the instant it started,
    # and a start plus all of them past the float range ends it at inf
    times = [min(t for _, t in ph.curve.points) for ph in specs]
    shortest = min(times)
    if start + shortest == start:  # only a start line can: every time is > 0
        rd.fail(fields["start"][0], "start %s: process %d's shortest phase (%s ns) would not move the clock"
                % (fmt_float(start), pid, fmt_float(shortest)))
    if sum(times, start) == math.inf:
        rd.fail(no, "process %d: its start plus its phases' shortest times leaves the float range" % pid)
    return ProcessSpec(
        pid=pid,
        phases=specs,
        start_ns=start,
        alpha=vals.get("alpha"),
        max_ways=vals.get("max-ways"),
    )


def _phase(phase: tuple) -> PhaseSpec:
    _, (phase_id, work, reuse, nbytes), fields, points = phase
    if not points:
        raise SchemaError("no curve points")
    curve = WayTimeCurve(tuple(sorted(points)))
    for ways, t in curve.points:
        if not 0 < work / t < math.inf:
            raise SchemaError("work %r over %r ns at %d ways is not a positive finite speed" % (work, t, ways))
    _, fixed_ns = fields.get("fixed-ns", (None, None))
    return PhaseSpec(phase_id, work, reuse, nbytes, curve, fixed_ns)


def write_mix(mix: MixSpec, path: str) -> None:
    out = [_render("mix", mix.name, mix.category)]
    out += _config_lines(sorted(mix.config_overrides.items()))
    for proc in mix.processes:
        out.append(_render("process", proc.pid))
        fields = (("start", proc.start_ns or None), ("alpha", proc.alpha), ("max-ways", proc.max_ways))
        out += [_render(kw, val) for kw, val in fields if val is not None]
        for ph in proc.phases:
            out.append(_render("phase", ph.phase_id, ph.work, ph.reuse, ph.nbytes))
            if ph.fixed_ns is not None:
                out.append(_render("fixed-ns", ph.fixed_ns))
            out += [_render("point", w, t) for w, t in ph.curve.points]
    out.append("end")
    _write_lines(path, out)


def write_attributes(phases, path: str) -> None:
    """`analyze`'s output: the phases, in order, as the one process of a
    mix.  It names no config, alpha or max-ways, so the run that reads it
    derives them under its own config."""
    write_mix(MixSpec("analyzed", "light", (ProcessSpec(0, tuple(phases)),)), path)


# ---------------------------------------------------------------------------
# allocation event traces
# ---------------------------------------------------------------------------

def write_events(events, path: str, config: SystemConfig | None = None) -> None:
    out = [] if config is None else _config_lines(_non_default(config))
    for ev in events:
        if ev[0] not in ("ipca", "pcca", "release"):
            raise SchemaError("unknown event kind %r" % (ev[0],))
        out.append(_render(*ev))
    _write_lines(path, out)


def read_events(path: str) -> tuple[list[tuple], SystemConfig]:
    """Returns (events, config) ready for `replay_events`; each event is its
    line's keyword followed by the typed arguments."""
    rd = _Reader(path, {"config", "ipca", "pcca", "release"})
    cfg, lines = _leading_config(rd, "events")
    return [(kw, *args) for _, kw, args in lines], cfg


# ---------------------------------------------------------------------------
# allocation logs
# ---------------------------------------------------------------------------

def write_alloc_log(records, path: str, config: SystemConfig) -> None:
    """The run's non-default config lines, then one `record` line per
    AllocationRecord."""
    out = _config_lines(_non_default(config))
    out += [_render("record", *r) for r in records]
    _write_lines(path, out)


def read_alloc_log(path: str) -> tuple[list[AllocationRecord], SystemConfig]:
    """Returns (records, config), equal to what `write_alloc_log` was given."""
    rd = _Reader(path, {"config", "record"})
    cfg, lines = _leading_config(rd, "records")
    return [AllocationRecord._make(args) for _, _, args in lines], cfg


def write_table_csv(path: str, header, rows) -> None:
    """Generic CSV writer for comparison and sweep outputs; floats are
    rendered with the round-trip format.  A leading comment line pins the
    schema version so regressions can diff the files byte for byte."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# format-version 1\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow(
                [fmt_float(v) if isinstance(v, float) else v for v in row]
            )
