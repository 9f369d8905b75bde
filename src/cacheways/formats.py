"""Readers and writers for the on-disk text formats.

Every structured file follows one line grammar.  Blank lines and `#`
comments are skipped, the first meaningful line must be `format-version 1`,
and every other line is one keyword followed by whitespace-separated
arguments.  `_KEYWORDS` is the whole grammar: for each keyword, the types of
its arguments (a name, an int, a finite float, a range-checked byte count,
way count, positive or non-negative float, `stream|reuse`, the literal
`estimated`, possibly a repeated tail) and a usage string for errors.

One reader, `_Reader`, checks every keyword, arity, type, range and
finiteness against that table and hands back typed lines with their line
numbers; nests, curves and attrs share one `opener <name> ... end` block
splitter.  Any malformed line, a truncated one included, raises SchemaError
naming the file and line.  The `read_*` functions only assemble objects from typed lines.

There is one reader or writer per file a command reads or writes, plus the
event-trace functions and `read_alloc_log`, which serve the allocation
fixtures.  Writers render through the same table (ints with %d, reuse classes
by name, floats with %.17g), so what they write reads back value-exact.  The
allocation log is plain CSV with a fixed column set.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
from functools import partial
from operator import attrgetter

from .apportion import AllocationRecord, Scenario, SystemConfig, format_mask
from .errors import SchemaError
from .loops import (
    Affine,
    ArrayDecl,
    Bound,
    LoopLevel,
    LoopNest,
    MemoryAccess,
    ReuseClass,
    Statement,
)
from .sensitivity import WayTimeCurve
from .simulate import CATEGORIES, MixSpec, PhaseSpec, ProcessSpec
from .timing import TimingModel, TrainingSample

FORMAT_VERSION = 1

ALLOC_LOG_COLUMNS = (
    "timestamp", "pid", "event", "socket", "clos", "bitmask", "scenario", "satisfied",
)
_ALLOC_LOG_TYPES = ("float", "int", "name", "int", "int", "mask", "name", "int")


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


def _estimated(tok: str) -> str:
    if tok != "estimated":
        raise ValueError(tok)
    return tok


# type: (converter raising ValueError on a bad token, renderer, description)
_TYPES = {
    "name": (str, str, "a name"),
    "int": (int, "%d".__mod__, "an integer"),
    "float": (_finite, fmt_float, "a finite number"),
    "bytes": (partial(_checked, int, lambda v: v >= 0), "%d".__mod__, "an integer >= 0"),
    "ways": (partial(_checked, int, lambda v: v >= 1), "%d".__mod__, "an integer >= 1"),
    "positive": (partial(_checked, _finite, lambda v: v > 0), fmt_float, "a finite number > 0"),
    "nonneg": (partial(_checked, _finite, lambda v: v >= 0), fmt_float, "a finite number >= 0"),
    "reuse": (ReuseClass, attrgetter("value"), "stream|reuse"),
    "estimated": (_estimated, str, "'estimated'"),
    "mask": (partial(int, base=16), None, "a hex mask"),
}

# keyword: (argument types, usage).  "[t]" is an optional last argument and
# "(t ...)..." a group repeated to the end of the line.  A config value has
# the type of its key's SystemConfig field.
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
    "attrs": ("name", "phase-id"),
    "footprint": ("int int int", "bytes lines exact"),
    "reuse": ("reuse", "stream|reuse"),
    "alpha": ("nonneg", "value"),
    "max-ways": ("ways", "ways"),
    "fixed-ns": ("positive", "ns"),
    "sample": ("float float (float)...", "bounds... observed-time"),
    "residual": ("float", "value"),
    "coefficients": ("(float)...", "c0 [c1 ...]"),
    "config": ("name name", "key value"),
    "mix": ("name name", "name category"),
    "process": ("int", "pid"),
    "start": ("float", "ns"),
    "unmixed-ns": ("positive", "ns"),
    "phase": ("name positive reuse bytes", "id work stream|reuse footprint-bytes"),
    "ipca": (
        "float int nonneg ways bytes reuse float",
        "t pid alpha max-ways bytes stream|reuse predicted",
    ),
    "pcca": ("float int bytes reuse float", "t pid bytes stream|reuse predicted"),
    "release": ("float int", "t pid"),
    "end": ("", "no arguments"),
}

# keyword: the block keywords that open a fresh scope for it.  Each keyword
# listed appears at most once per scope; with no block keyword, once per file.
_ONCE_PER = {
    "start": ("process",),
    "unmixed-ns": ("process",),
    "alpha": ("process", "attrs"),
    "max-ways": ("process", "attrs"),
    "fixed-ns": ("phase", "attrs"),
    "footprint": ("attrs",),
    "reuse": ("attrs",),
    "residual": (),
    "coefficients": (),
}
_SCOPES = {
    opener: [kw for kw, per in _ONCE_PER.items() if opener in per]
    for opener in {o for per in _ONCE_PER.values() for o in per}
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
        seen: dict[str, int] = {}  # line of each _ONCE_PER keyword in its scope
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
            if kw in _ONCE_PER:
                if kw in seen:
                    self.fail(no, "repeated %s; first at line %d" % (kw, seen[kw]))
                seen[kw] = no
            elif kw in _SCOPES:
                for once in _SCOPES[kw]:
                    seen.pop(once, None)
            elif kw == "config":
                vals[1] = self._setting(no, *vals)
            lines.append((no, kw, vals))
        if not last:
            raise SchemaError("%s: empty file" % path)
        self.last = last  # number of the last meaningful line
        if first and not lines:
            self.fail(last, "expected: %s %s" % (first, _KEYWORDS[first][1]))

    def _setting(self, no: int, key: str, tok: str):
        """A config value, typed by its key's SystemConfig field."""
        if key not in _CONFIG_TYPES:
            self.fail(no, "unknown config key %r" % key)
        return _value(self.path, no, "config " + key, _CONFIG_TYPES[key], tok)

    def fail(self, no: int, msg: str):
        _fail(self.path, no, msg)

    def build(self, no: int, what: str, make, *args, **kwargs):
        """make(...), with any SchemaError it raises pinned to line `no`."""
        try:
            return make(*args, **kwargs)
        except SchemaError as exc:
            self.fail(no, "%s: %s" % (what, exc))


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
    """(config, overrides) from `config` lines.  A repeated key keeps its
    last value; a value SystemConfig rejects is pinned to its line."""
    overrides, where = {}, {}
    for no, _, (key, val) in lines:
        overrides[key], where[key] = val, no
    for key, val in overrides.items():
        rd.build(where[key], "config " + key, SystemConfig, **{key: val})
    return SystemConfig(**overrides), overrides


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("format-version %d\n" % FORMAT_VERSION)
        for line in lines:
            fh.write(line + "\n")


# ---------------------------------------------------------------------------
# loop nests
# ---------------------------------------------------------------------------

def read_nests(path: str) -> list[LoopNest]:
    rd = _Reader(path, {"nest", "array", "loop", "stmt", "access", "access-indirect", "end"})
    nests: list[LoopNest] = []
    for name, _, body, end in _blocks(rd, "nest"):
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
            elif kw == "access":
                array, kind, size, const, *pairs = args
                sub = Affine(const, tuple(zip(pairs[::2], pairs[1::2])))
                stmts[-1][0].append(MemoryAccess(array, size, sub, kind))
            else:
                array, kind, size = args
                stmts[-1][0].append(MemoryAccess(array, size, None, kind))
        if not loops:
            rd.fail(end, "nest %r has no loops" % name)
        statements = tuple(Statement(tuple(accs), depth) for accs, depth in stmts)
        nests.append(LoopNest(name, tuple(loops), statements, tuple(arrays)))
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
# probe attributes
# ---------------------------------------------------------------------------

def write_attributes(attrs, path: str) -> None:
    """`attrs` is an iterable of ProbeAttributes."""
    out = []
    for a in attrs:
        fp = a.footprint
        out.append(_render("attrs", a.phase_id))
        out.append(_render("footprint", fp.bytes, fp.lines, fp.exact))
        out.append(_render("reuse", a.reuse))
        out.append(_render("alpha", a.alpha))
        out.append(_render("max-ways", a.max_ways))
        out.append(_render("fixed-ns", a.fixed_ns))
        out.append("end")
    _write_lines(path, out)


# ---------------------------------------------------------------------------
# timing samples and models
# ---------------------------------------------------------------------------

def read_samples(path: str) -> list[TrainingSample]:
    rd = _Reader(path, {"sample"})
    samples: list[TrainingSample] = []
    for no, _, (*bounds, observed) in rd.lines:
        depth = len(samples[0].bounds) if samples else len(bounds)
        if len(bounds) != depth:
            rd.fail(no, "sample arity %d != %d" % (len(bounds), depth))
        samples.append(TrainingSample(tuple(bounds), observed))
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
    "config", "process", "start", "alpha", "max-ways", "unmixed-ns",
    "phase", "fixed-ns", "point", "end",
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
    # a process or phase is (line number, args, fields, children)
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
        elif kw == "fixed-ns":
            phase[2][kw] = args[0]
        elif kw == "end":
            closed = True
        elif phase is not None and kw in ("alpha", "max-ways"):
            rd.fail(no, "%s must precede the process's phases" % kw)
        else:
            proc[2][kw] = args[0]
    if not closed:
        rd.fail(rd.last, "mix not closed with 'end'")
    _, overrides = _config(rd, settings)
    return MixSpec(name, category, tuple(_process(rd, p) for p in procs), overrides)


def _process(rd: _Reader, proc: tuple) -> ProcessSpec:
    no, (pid,), fields, phases = proc
    if not phases:
        rd.fail(no, "process %d has no phases" % pid)
    return ProcessSpec(
        pid=pid,
        phases=tuple(rd.build(ph[0], "phase %r" % ph[1][0], _phase, ph) for ph in phases),
        start_ns=fields.get("start", 0.0),
        alpha=fields.get("alpha"),
        max_ways=fields.get("max-ways"),
        unmixed_ns=fields.get("unmixed-ns"),
    )


def _phase(phase: tuple) -> PhaseSpec:
    _, (phase_id, work, reuse, nbytes), fields, points = phase
    if not points:
        raise SchemaError("no curve points")
    curve = WayTimeCurve(tuple(sorted(points)))
    return PhaseSpec(phase_id, work, reuse, nbytes, curve, fields.get("fixed-ns"))


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
    settings = []
    for line in rd.lines:
        if line[1] != "config":
            break
        settings.append(line)
    cfg, _ = _config(rd, settings)
    events: list[tuple] = []
    for no, kw, args in rd.lines[len(settings):]:
        if kw == "config":
            rd.fail(no, "config lines must precede events")
        events.append((kw, *args))
    return events, cfg


# ---------------------------------------------------------------------------
# allocation log CSV
# ---------------------------------------------------------------------------

def write_alloc_log(records, path: str, config: SystemConfig) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(ALLOC_LOG_COLUMNS)
        for r in records:
            mask = format_mask(r.bitmask, config.ways_per_socket)
            w.writerow([fmt_float(r.time_ns), r.pid, r.event, r.socket, r.clos, mask,
                        r.scenario.value, int(r.satisfied)])


def read_alloc_log(path: str) -> list[AllocationRecord]:
    """Parse the CSV columns back; the fields the CSV does not carry
    (req_ways, granted_ways, alpha, changed) come back zeroed."""
    scen = {s.value: s for s in Scenario}
    out = []
    reader = csv.reader(io.StringIO(_text(path), newline=""))
    try:
        rows = list(reader)
    except csv.Error as exc:
        _fail(path, reader.line_num, str(exc))
    if not rows or tuple(rows[0]) != ALLOC_LOG_COLUMNS:
        raise SchemaError("%s: bad allocation log header" % path)
    for no, row in enumerate(rows[1:], start=2):
        if len(row) != len(ALLOC_LOG_COLUMNS):
            _fail(path, no, "expected %d columns" % len(ALLOC_LOG_COLUMNS))
        if row[6] not in scen:
            _fail(path, no, "unknown scenario %r" % row[6])
        *head, scenario, satisfied = [
            _value(path, no, col, typ, tok)
            for col, typ, tok in zip(ALLOC_LOG_COLUMNS, _ALLOC_LOG_TYPES, row)
        ]
        out.append(AllocationRecord(
            *head, scen[scenario], bool(satisfied),
            req_ways=0, granted_ways=0, alpha=0.0, changed=False,
        ))
    return out


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
