"""Readers and writers for the on-disk text formats.

Every structured file is line oriented: blank lines and `#` comments are
skipped, the first meaningful line must be `format-version 1`, and tokens are
whitespace separated.  Floats are written with %.17g so a write/read round
trip is value-exact.  The allocation log is plain CSV with a fixed column
set.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from dataclasses import dataclass

from .apportion import AllocationRecord, Scenario, SystemConfig, format_mask
from .errors import SchemaError
from .loops import (
    Affine,
    ArrayDecl,
    Bound,
    FootprintValue,
    LoopLevel,
    LoopNest,
    MemoryAccess,
    ReuseClass,
    Statement,
)
from .sensitivity import (
    ProbeAttributes,
    WayTimeCurve,
    compute_alpha,
    detect_max_ways,
)
from .simulate import MixSpec, PhaseSpec, ProcessSpec
from .timing import TimingModel, TrainingSample

FORMAT_VERSION = 1

ALLOC_LOG_COLUMNS = (
    "timestamp",
    "pid",
    "event",
    "socket",
    "clos",
    "bitmask",
    "scenario",
    "satisfied",
)


def fmt_float(x: float) -> str:
    return "%.17g" % x


@dataclass
class _Line:
    no: int
    tokens: list[str]


class _Reader:
    def __init__(self, path: str):
        self.path = path
        self.lines: list[_Line] = []
        with open(path, "r", encoding="utf-8") as fh:
            for no, raw in enumerate(fh, start=1):
                text = raw.split("#", 1)[0].strip()
                if not text:
                    continue
                self.lines.append(_Line(no, text.split()))
        if not self.lines:
            raise SchemaError("%s: empty file" % path)
        first = self.lines[0]
        if first.tokens != ["format-version", str(FORMAT_VERSION)]:
            raise SchemaError(
                "%s:%d: expected 'format-version %d'"
                % (path, first.no, FORMAT_VERSION)
            )
        self.lines = self.lines[1:]

    def fail(self, line: _Line, msg: str):
        raise SchemaError("%s:%d: %s" % (self.path, line.no, msg))

    def ints(self, line: _Line, toks: list[str]) -> list[int]:
        try:
            return [int(t) for t in toks]
        except ValueError:
            self.fail(line, "expected integers, got %r" % (toks,))

    def floats(self, line: _Line, toks: list[str]) -> list[float]:
        vals = []
        for t in toks:
            try:
                v = float(t)
            except ValueError:
                v = math.nan
            if not math.isfinite(v):
                self.fail(line, "expected finite numbers, got %r" % (toks,))
            vals.append(v)
        return vals


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("format-version %d\n" % FORMAT_VERSION)
        for line in lines:
            fh.write(line + "\n")


def _reuse_token(line, rd: _Reader | None, tok: str) -> ReuseClass:
    if tok == "stream":
        return ReuseClass.STREAM
    if tok == "reuse":
        return ReuseClass.REUSE
    if rd is not None:
        rd.fail(line, "reuse class must be stream|reuse, got %r" % tok)
    raise SchemaError("reuse class must be stream|reuse, got %r" % tok)


# ---------------------------------------------------------------------------
# loop nests
# ---------------------------------------------------------------------------

def write_nests(nests, path: str) -> None:
    out = []
    for nest in nests:
        out.append("nest %s" % nest.name)
        for a in nest.arrays:
            out.append("array %s %d %d" % (a.name, a.extent, a.element_size))
        for lv in nest.loops:
            est = " estimated" if lv.upper_bound.estimated else ""
            out.append("loop %s %d%s" % (lv.index_name, lv.upper_bound.value, est))
        for stmt in nest.statements:
            out.append("stmt %d" % stmt.depth)
            for acc in stmt.accesses:
                if acc.indirect:
                    out.append(
                        "access-indirect %s %s %d"
                        % (acc.array, acc.kind, acc.element_size)
                    )
                else:
                    parts = [
                        "access",
                        acc.array,
                        acc.kind,
                        str(acc.element_size),
                        str(acc.subscript.const),
                    ]
                    for name, c in acc.subscript.coeffs:
                        parts += [name, str(c)]
                    out.append(" ".join(parts))
        out.append("end")
    _write_lines(path, out)


def read_nests(path: str) -> list[LoopNest]:
    rd = _Reader(path)
    nests: list[LoopNest] = []
    name = None
    loops: list[LoopLevel] = []
    stmts: list[Statement] = []
    arrays: list[ArrayDecl] = []
    cur_accs: list[MemoryAccess] | None = None
    cur_depth = 0

    def flush_stmt():
        nonlocal cur_accs
        if cur_accs is not None:
            stmts.append(Statement(tuple(cur_accs), cur_depth))
            cur_accs = None

    for line in rd.lines:
        kw, args = line.tokens[0], line.tokens[1:]
        if kw == "nest":
            if name is not None:
                rd.fail(line, "previous nest not closed with 'end'")
            if len(args) != 1:
                rd.fail(line, "nest takes one name")
            name = args[0]
        elif name is None:
            rd.fail(line, "%r outside a nest" % kw)
        elif kw == "array":
            if len(args) != 3:
                rd.fail(line, "array takes name extent element-size")
            extent, es = rd.ints(line, args[1:])
            arrays.append(ArrayDecl(args[0], extent, es))
        elif kw == "loop":
            est = False
            if args and args[-1] == "estimated":
                est = True
                args = args[:-1]
            if len(args) != 2:
                rd.fail(line, "loop takes index-name bound [estimated]")
            (bound,) = rd.ints(line, args[1:])
            loops.append(LoopLevel(args[0], Bound(bound, est)))
        elif kw == "stmt":
            flush_stmt()
            if len(args) != 1:
                rd.fail(line, "stmt takes a depth")
            (cur_depth,) = rd.ints(line, args)
            cur_accs = []
        elif kw in ("access", "access-indirect"):
            if cur_accs is None:
                rd.fail(line, "access outside a stmt")
            if kw == "access-indirect":
                if len(args) != 3:
                    rd.fail(line, "access-indirect takes array kind element-size")
                (es,) = rd.ints(line, args[2:])
                cur_accs.append(MemoryAccess(args[0], es, None, args[1]))
            else:
                if len(args) < 4 or len(args) % 2 != 0:
                    rd.fail(
                        line,
                        "access takes array kind element-size const (index coeff)...",
                    )
                es, const = rd.ints(line, args[2:4])
                coeffs = []
                rest = args[4:]
                for i in range(0, len(rest), 2):
                    (c,) = rd.ints(line, [rest[i + 1]])
                    coeffs.append((rest[i], c))
                cur_accs.append(
                    MemoryAccess(args[0], es, Affine(const, tuple(coeffs)), args[1])
                )
        elif kw == "end":
            flush_stmt()
            if not loops:
                rd.fail(line, "nest %r has no loops" % name)
            nests.append(
                LoopNest(name, tuple(loops), tuple(stmts), tuple(arrays))
            )
            name, loops, stmts, arrays = None, [], [], []
        else:
            rd.fail(line, "unknown keyword %r" % kw)
    if name is not None:
        raise SchemaError("%s: nest %r not closed with 'end'" % (path, name))
    return nests


# ---------------------------------------------------------------------------
# way-time curves
# ---------------------------------------------------------------------------

def write_curves(curves: dict[str, WayTimeCurve], path: str) -> None:
    out = []
    for name in sorted(curves):
        out.append("curve %s" % name)
        for w, t in curves[name].points:
            out.append("point %d %s" % (w, fmt_float(t)))
        out.append("end")
    _write_lines(path, out)


def read_curves(path: str) -> dict[str, WayTimeCurve]:
    rd = _Reader(path)
    curves: dict[str, WayTimeCurve] = {}
    name = None
    pts: list[tuple[int, float]] = []
    for line in rd.lines:
        kw, args = line.tokens[0], line.tokens[1:]
        if kw == "curve":
            if name is not None:
                rd.fail(line, "previous curve not closed")
            if len(args) != 1:
                rd.fail(line, "curve takes one name")
            name = args[0]
            if name in curves:
                rd.fail(line, "duplicate curve %r" % name)
        elif kw == "point":
            if name is None:
                rd.fail(line, "point outside a curve")
            if len(args) != 2:
                rd.fail(line, "point takes ways time")
            (w,) = rd.ints(line, args[:1])
            (t,) = rd.floats(line, args[1:])
            pts.append((w, t))
        elif kw == "end":
            if name is None:
                rd.fail(line, "end outside a curve")
            try:
                curves[name] = WayTimeCurve(tuple(sorted(pts)))
            except SchemaError as exc:
                rd.fail(line, "curve %r: %s" % (name, exc))
            name, pts = None, []
        else:
            rd.fail(line, "unknown keyword %r" % kw)
    if name is not None:
        raise SchemaError("%s: curve %r not closed" % (path, name))
    return curves


# ---------------------------------------------------------------------------
# probe attributes
# ---------------------------------------------------------------------------

def write_attributes(attrs, path: str) -> None:
    """`attrs` is an iterable of ProbeAttributes or a phase_id-keyed dict."""
    items = list(attrs.values()) if isinstance(attrs, dict) else list(attrs)
    out = []
    for a in items:
        out.append("attrs %s" % a.phase_id)
        out.append("footprint %d %d %d" % (a.footprint.bytes, a.footprint.lines, int(a.footprint.exact)))
        out.append("reuse %s" % a.reuse.value)
        out.append("alpha %s" % fmt_float(a.alpha))
        out.append("max-ways %d" % a.max_ways)
        if a.fixed_ns is not None:
            out.append("fixed-ns %s" % fmt_float(a.fixed_ns))
        if a.timing is not None:
            coefs = " ".join(fmt_float(c) for c in a.timing.coefficients)
            out.append("timing %s %s" % (fmt_float(a.timing.fit_residual), coefs))
        out.append("end")
    _write_lines(path, out)


def read_attributes(path: str) -> dict[str, ProbeAttributes]:
    rd = _Reader(path)
    result: dict[str, ProbeAttributes] = {}
    cur: dict | None = None

    def close(line):
        pid = cur["phase_id"]
        for key in ("footprint", "reuse", "alpha", "max_ways"):
            if key not in cur:
                rd.fail(line, "attrs %r missing %s" % (pid, key.replace("_", "-")))
        result[pid] = ProbeAttributes(
            phase_id=pid,
            footprint=cur["footprint"],
            reuse=cur["reuse"],
            alpha=cur["alpha"],
            max_ways=cur["max_ways"],
            timing=cur.get("timing"),
            fixed_ns=cur.get("fixed_ns"),
        )

    for line in rd.lines:
        kw, args = line.tokens[0], line.tokens[1:]
        if kw == "attrs":
            if cur is not None:
                rd.fail(line, "previous attrs not closed")
            if len(args) != 1:
                rd.fail(line, "attrs takes one phase id")
            if args[0] in result:
                rd.fail(line, "duplicate attrs %r" % args[0])
            cur = {"phase_id": args[0]}
        elif cur is None:
            rd.fail(line, "%r outside an attrs block" % kw)
        elif kw == "footprint":
            b, l, ex = rd.ints(line, args)
            cur["footprint"] = FootprintValue(b, l, bool(ex))
        elif kw == "reuse":
            cur["reuse"] = _reuse_token(line, rd, args[0])
        elif kw == "alpha":
            (cur["alpha"],) = rd.floats(line, args)
        elif kw == "max-ways":
            (cur["max_ways"],) = rd.ints(line, args)
        elif kw == "fixed-ns":
            (cur["fixed_ns"],) = rd.floats(line, args)
        elif kw == "timing":
            vals = rd.floats(line, args)
            if len(vals) < 2:
                rd.fail(line, "timing takes residual c0 [c1 ...]")
            cur["timing"] = TimingModel(tuple(vals[1:]), vals[0])
        elif kw == "end":
            close(line)
            cur = None
        else:
            rd.fail(line, "unknown keyword %r" % kw)
    if cur is not None:
        raise SchemaError("%s: attrs %r not closed" % (path, cur["phase_id"]))
    return result


# ---------------------------------------------------------------------------
# timing samples and models
# ---------------------------------------------------------------------------

def write_samples(samples, path: str) -> None:
    out = []
    for s in samples:
        toks = [fmt_float(b) for b in s.bounds] + [fmt_float(s.observed_time)]
        out.append("sample " + " ".join(toks))
    _write_lines(path, out)


def read_samples(path: str) -> list[TrainingSample]:
    rd = _Reader(path)
    samples = []
    depth = None
    for line in rd.lines:
        kw, args = line.tokens[0], line.tokens[1:]
        if kw != "sample":
            rd.fail(line, "unknown keyword %r" % kw)
        if len(args) < 2:
            rd.fail(line, "sample takes bounds... observed-time")
        vals = rd.floats(line, args)
        if depth is None:
            depth = len(vals) - 1
        elif len(vals) - 1 != depth:
            rd.fail(line, "sample arity %d != %d" % (len(vals) - 1, depth))
        samples.append(TrainingSample(tuple(vals[:-1]), vals[-1]))
    return samples


def write_model(model: TimingModel, path: str) -> None:
    out = ["residual %s" % fmt_float(model.fit_residual)]
    out.append("coefficients " + " ".join(fmt_float(c) for c in model.coefficients))
    _write_lines(path, out)


def read_model(path: str) -> TimingModel:
    rd = _Reader(path)
    residual = None
    coefs = None
    for line in rd.lines:
        kw, args = line.tokens[0], line.tokens[1:]
        if kw == "residual":
            (residual,) = rd.floats(line, args)
        elif kw == "coefficients":
            coefs = tuple(rd.floats(line, args))
        else:
            rd.fail(line, "unknown keyword %r" % kw)
    if residual is None or not coefs:
        raise SchemaError("%s: model needs residual and coefficients" % path)
    return TimingModel(coefs, residual)


# ---------------------------------------------------------------------------
# config overrides
# ---------------------------------------------------------------------------

_CONFIG_FIELDS = {f.name: f.type for f in dataclasses.fields(SystemConfig)}


def _config_value(rd: _Reader, line: _Line, key: str, raw: str):
    if key not in _CONFIG_FIELDS:
        rd.fail(line, "unknown config key %r" % key)
    kind = _CONFIG_FIELDS[key]
    try:
        val = int(raw) if kind == "int" else float(raw)
    except ValueError:
        val = math.nan
    if not math.isfinite(val):
        rd.fail(line, "config %s: bad value %r" % (key, raw))
    return val


def read_config(path: str) -> SystemConfig:
    rd = _Reader(path)
    overrides = {}
    for line in rd.lines:
        kw, args = line.tokens[0], line.tokens[1:]
        if kw != "config" or len(args) != 2:
            rd.fail(line, "expected: config <key> <value>")
        overrides[args[0]] = _config_value(rd, line, args[0], args[1])
    return SystemConfig(**overrides)


def write_config(config: SystemConfig, path: str) -> None:
    out = []
    default = SystemConfig()
    for f in dataclasses.fields(SystemConfig):
        val = getattr(config, f.name)
        if val == getattr(default, f.name):
            continue
        rep = str(val) if f.type == "int" else fmt_float(val)
        out.append("config %s %s" % (f.name, rep))
    _write_lines(path, out)


# ---------------------------------------------------------------------------
# process mixes
# ---------------------------------------------------------------------------

def write_mix(mix: MixSpec, path: str) -> None:
    out = ["mix %s %s" % (mix.name, mix.category)]
    for key in sorted(mix.config_overrides):
        val = mix.config_overrides[key]
        rep = str(val) if isinstance(val, int) else fmt_float(val)
        out.append("config %s %s" % (key, rep))
    for proc in mix.processes:
        out.append("process %d" % proc.pid)
        if proc.start_ns:
            out.append("start %s" % fmt_float(proc.start_ns))
        if proc.alpha is not None:
            out.append("alpha %s" % fmt_float(proc.alpha))
        if proc.max_ways is not None:
            out.append("max-ways %d" % proc.max_ways)
        if proc.unmixed_ns is not None:
            out.append("unmixed-ns %s" % fmt_float(proc.unmixed_ns))
        for ph in proc.phases:
            out.append(
                "phase %s %s %s %d"
                % (
                    ph.phase_id,
                    fmt_float(ph.work),
                    ph.attrs.reuse.value,
                    ph.attrs.footprint.bytes,
                )
            )
            if ph.attrs.fixed_ns is not None:
                out.append("fixed-ns %s" % fmt_float(ph.attrs.fixed_ns))
            for w, t in ph.curve.points:
                out.append("point %d %s" % (w, fmt_float(t)))
    out.append("end")
    _write_lines(path, out)


def read_mix(path: str) -> MixSpec:
    """Parse one mix.  Phase-level alpha and max-ways are derived from the
    phase's own curve; a phase without fixed-ns predicts its full-width time.
    """
    rd = _Reader(path)
    header = rd.lines[0]
    if header.tokens[0] != "mix" or len(header.tokens) != 3:
        rd.fail(header, "expected: mix <name> <category>")
    name, category = header.tokens[1], header.tokens[2]

    overrides: dict = {}
    procs: list[ProcessSpec] = []
    proc: dict | None = None
    phase: dict | None = None
    phases: list[dict] = []
    closed = False

    def build_phase(ph: dict, cfg: SystemConfig) -> PhaseSpec:
        try:
            curve = WayTimeCurve(tuple(sorted(ph["points"])))
        except SchemaError as exc:
            raise SchemaError(
                "%s: phase %r: %s" % (path, ph["phase_id"], exc)
            ) from exc
        max_ways = detect_max_ways(curve, cfg.saturation_epsilon)
        alpha = compute_alpha(curve, max_ways)
        fixed = ph.get("fixed_ns")
        if fixed is None:
            fixed = curve.time_at(cfg.ways_per_socket)
        nbytes = ph["bytes"]
        lines = (nbytes + cfg.line_size - 1) // cfg.line_size
        attrs = ProbeAttributes(
            phase_id=ph["phase_id"],
            footprint=FootprintValue(nbytes, lines, True),
            reuse=ph["reuse"],
            alpha=alpha,
            max_ways=max_ways,
            fixed_ns=fixed,
        )
        return PhaseSpec(ph["phase_id"], attrs, ph["work"], curve)

    def flush_phase(line):
        nonlocal phase
        if phase is not None:
            if not phase["points"]:
                rd.fail(line, "phase %r has no curve points" % phase["phase_id"])
            phases.append(phase)
            phase = None

    def flush_proc(line, cfg):
        nonlocal proc
        if proc is not None:
            flush_phase(line)
            if not phases:
                rd.fail(line, "process %d has no phases" % proc["pid"])
            procs.append(
                ProcessSpec(
                    pid=proc["pid"],
                    phases=tuple(build_phase(ph, cfg) for ph in phases),
                    start_ns=proc.get("start", 0.0),
                    alpha=proc.get("alpha"),
                    max_ways=proc.get("max_ways"),
                    unmixed_ns=proc.get("unmixed_ns"),
                )
            )
            proc = None
            phases.clear()

    cfg: SystemConfig | None = None  # frozen at the first process line
    for line in rd.lines[1:]:
        kw, args = line.tokens[0], line.tokens[1:]
        if closed:
            rd.fail(line, "content after 'end'")
        if kw == "config":
            if proc is not None or procs:
                rd.fail(line, "config lines must precede processes")
            if len(args) != 2:
                rd.fail(line, "config takes key value")
            overrides[args[0]] = _config_value(rd, line, args[0], args[1])
        elif kw == "process":
            if cfg is None:
                cfg = SystemConfig(**overrides)
            flush_proc(line, cfg)
            (pid,) = rd.ints(line, args)
            proc = {"pid": pid}
        elif proc is None:
            rd.fail(line, "%r outside a process" % kw)
        elif kw == "start":
            (proc["start"],) = rd.floats(line, args)
        elif kw == "alpha" and phase is None:
            (proc["alpha"],) = rd.floats(line, args)
        elif kw == "max-ways" and phase is None:
            (proc["max_ways"],) = rd.ints(line, args)
        elif kw == "unmixed-ns":
            (proc["unmixed_ns"],) = rd.floats(line, args)
        elif kw == "phase":
            flush_phase(line)
            if len(args) != 4:
                rd.fail(line, "phase takes id work stream|reuse footprint-bytes")
            (work,) = rd.floats(line, args[1:2])
            (nbytes,) = rd.ints(line, args[3:])
            phase = {
                "phase_id": args[0],
                "work": work,
                "reuse": _reuse_token(line, rd, args[2]),
                "bytes": nbytes,
                "points": [],
            }
        elif kw == "fixed-ns":
            if phase is None:
                rd.fail(line, "fixed-ns outside a phase")
            (phase["fixed_ns"],) = rd.floats(line, args)
        elif kw == "point":
            if phase is None:
                rd.fail(line, "point outside a phase")
            (w,) = rd.ints(line, args[:1])
            (t,) = rd.floats(line, args[1:])
            phase["points"].append((w, t))
        elif kw == "end":
            if cfg is None:
                cfg = SystemConfig(**overrides)
            flush_proc(line, cfg)
            closed = True
        else:
            rd.fail(line, "unknown keyword %r" % kw)
    if not closed:
        raise SchemaError("%s: mix not closed with 'end'" % path)
    return MixSpec(name, category, tuple(procs), overrides)


# ---------------------------------------------------------------------------
# allocation event traces
# ---------------------------------------------------------------------------

def write_events(events, path: str, config: SystemConfig | None = None) -> None:
    out = []
    if config is not None:
        default = SystemConfig()
        for f in dataclasses.fields(SystemConfig):
            val = getattr(config, f.name)
            if val != getattr(default, f.name):
                rep = str(val) if f.type == "int" else fmt_float(val)
                out.append("config %s %s" % (f.name, rep))
    for ev in events:
        kind = ev[0]
        if kind == "ipca":
            _, t, pid, alpha, max_ways, attrs, pred = ev
            out.append(
                "ipca %s %d %s %d %d %s %s"
                % (
                    fmt_float(t),
                    pid,
                    fmt_float(alpha),
                    max_ways,
                    attrs.footprint.bytes,
                    attrs.reuse.value,
                    fmt_float(pred),
                )
            )
        elif kind == "pcca":
            _, t, pid, attrs, pred = ev
            out.append(
                "pcca %s %d %d %s %s"
                % (
                    fmt_float(t),
                    pid,
                    attrs.footprint.bytes,
                    attrs.reuse.value,
                    fmt_float(pred),
                )
            )
        elif kind == "release":
            _, t, pid = ev
            out.append("release %s %d" % (fmt_float(t), pid))
        else:
            raise SchemaError("unknown event kind %r" % (kind,))
    _write_lines(path, out)


def read_events(path: str) -> tuple[list[tuple], SystemConfig]:
    """Returns (events, config) ready for `replay_events`."""
    rd = _Reader(path)
    overrides: dict = {}
    events: list[tuple] = []
    admitted: dict[int, tuple[float, int]] = {}  # pid -> (alpha, max_ways)
    counter = 0

    def mk_attrs(pid, nbytes, reuse, cfg_line):
        nonlocal counter
        counter += 1
        alpha, max_ways = admitted.get(pid, (0.0, 2))
        lines = (nbytes + 63) // 64
        return ProbeAttributes(
            phase_id="pid%d-ev%d" % (pid, counter),
            footprint=FootprintValue(nbytes, lines, True),
            reuse=reuse,
            alpha=alpha,
            max_ways=max_ways,
            fixed_ns=0.0,
        )

    for line in rd.lines:
        kw, args = line.tokens[0], line.tokens[1:]
        if kw == "config":
            if events:
                rd.fail(line, "config lines must precede events")
            if len(args) != 2:
                rd.fail(line, "config takes key value")
            overrides[args[0]] = _config_value(rd, line, args[0], args[1])
        elif kw == "ipca":
            if len(args) != 7:
                rd.fail(
                    line,
                    "ipca takes t pid alpha max-ways bytes stream|reuse predicted",
                )
            (t,) = rd.floats(line, args[:1])
            (pid,) = rd.ints(line, args[1:2])
            (alpha,) = rd.floats(line, args[2:3])
            (max_ways,) = rd.ints(line, args[3:4])
            (nbytes,) = rd.ints(line, args[4:5])
            reuse = _reuse_token(line, rd, args[5])
            (pred,) = rd.floats(line, args[6:])
            admitted[pid] = (alpha, max_ways)
            events.append(
                ("ipca", t, pid, alpha, max_ways, mk_attrs(pid, nbytes, reuse, line), pred)
            )
        elif kw == "pcca":
            if len(args) != 5:
                rd.fail(line, "pcca takes t pid bytes stream|reuse predicted")
            (t,) = rd.floats(line, args[:1])
            (pid,) = rd.ints(line, args[1:2])
            (nbytes,) = rd.ints(line, args[2:3])
            reuse = _reuse_token(line, rd, args[3])
            (pred,) = rd.floats(line, args[4:])
            events.append(("pcca", t, pid, mk_attrs(pid, nbytes, reuse, line), pred))
        elif kw == "release":
            if len(args) != 2:
                rd.fail(line, "release takes t pid")
            (t,) = rd.floats(line, args[:1])
            (pid,) = rd.ints(line, args[1:2])
            events.append(("release", t, pid))
        else:
            rd.fail(line, "unknown keyword %r" % kw)
    return events, SystemConfig(**overrides)


# ---------------------------------------------------------------------------
# allocation log CSV
# ---------------------------------------------------------------------------

def write_alloc_log(records, path: str, config: SystemConfig) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(ALLOC_LOG_COLUMNS)
        for r in records:
            w.writerow(
                [
                    fmt_float(r.time_ns),
                    r.pid,
                    r.event,
                    r.socket,
                    r.clos,
                    format_mask(r.bitmask, config.ways_per_socket),
                    r.scenario.value,
                    int(r.satisfied),
                ]
            )


def read_alloc_log(path: str) -> list[AllocationRecord]:
    """Parse the CSV columns back; the metric-only fields come back zeroed."""
    scen = {s.value: s for s in Scenario}
    out = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != ALLOC_LOG_COLUMNS:
        raise SchemaError("%s: bad allocation log header" % path)
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(ALLOC_LOG_COLUMNS):
            raise SchemaError("%s:%d: expected %d columns" % (path, i, len(ALLOC_LOG_COLUMNS)))
        t, pid, event, socket, clos, mask, scenario, satisfied = row
        if scenario not in scen:
            raise SchemaError("%s:%d: unknown scenario %r" % (path, i, scenario))
        try:
            out.append(
                AllocationRecord(
                    time_ns=float(t),
                    pid=int(pid),
                    event=event,
                    socket=int(socket),
                    clos=int(clos),
                    bitmask=int(mask, 16),
                    scenario=scen[scenario],
                    satisfied=bool(int(satisfied)),
                    req_ways=0,
                    granted_ways=0,
                    alpha=0.0,
                    changed=False,
                )
            )
        except ValueError as exc:
            raise SchemaError("%s:%d: %s" % (path, i, exc)) from exc
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
