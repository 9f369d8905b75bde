"""Small builders shared across test modules, plus writers for the command
inputs and readers for the command outputs, built on the package's grammar
so that a round trip checks the grammar the commands use."""

import os

import cacheways
from cacheways.formats import _blocks, _config_lines, _non_default, _Reader, _render, _write_lines
from cacheways.loops import FootprintValue
from cacheways.sensitivity import ProbeAttributes, WayTimeCurve
from cacheways.timing import TimingModel


def child_env():
    """Environment for a child interpreter that imports the package under
    test from any working directory: a relative PYTHONPATH would not find it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cacheways.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def way_time_curve(times):
    """A WayTimeCurve from a {ways: time} dict."""
    return WayTimeCurve(tuple(sorted((int(w), float(t)) for w, t in times.items())))


def clos_of(ap, pid):
    """The ClosState holding placed process `pid` in Apportioner `ap`."""
    p = ap.procs[pid]
    return ap.sockets[p.socket_id].clos[p.clos_id]


def write_nests(nests, path):
    out = []
    for nest in nests:
        out.append(_render("nest", nest.name))
        out += [_render("array", a.name, a.extent, a.element_size) for a in nest.arrays]
        for lv in nest.loops:
            est = ("estimated",) if lv.upper_bound.estimated else ()
            out.append(_render("loop", lv.index_name, lv.upper_bound.value, *est))
        for stmt in nest.statements:
            out.append(_render("stmt", stmt.depth))
            for a in stmt.accesses:
                if a.indirect:
                    out.append(_render("access-indirect", a.array, a.kind, a.element_size))
                else:
                    pairs = [x for pair in a.subscript.coeffs for x in pair]
                    out.append(_render("access", a.array, a.kind, a.element_size,
                                       a.subscript.const, *pairs))
        out.append("end")
    _write_lines(path, out)


def write_curves(curves, path):
    out = []
    for name in sorted(curves):
        out.append(_render("curve", name))
        out += [_render("point", w, t) for w, t in curves[name].points]
        out.append("end")
    _write_lines(path, out)


def write_samples(samples, path):
    _write_lines(path, [_render("sample", *s.bounds, s.observed_time) for s in samples])


def write_config(config, path):
    """The fields that differ from the defaults, in field order."""
    _write_lines(path, _config_lines(_non_default(config)))


def write_mix(mix, path):
    out = [_render("mix", mix.name, mix.category)]
    out += _config_lines(sorted(mix.config_overrides.items()))
    for proc in mix.processes:
        out.append(_render("process", proc.pid))
        fields = (("start", proc.start_ns or None), ("alpha", proc.alpha),
                  ("max-ways", proc.max_ways), ("unmixed-ns", proc.unmixed_ns))
        out += [_render(kw, val) for kw, val in fields if val is not None]
        for ph in proc.phases:
            out.append(_render("phase", ph.phase_id, ph.work, ph.reuse, ph.nbytes))
            if ph.fixed_ns is not None:
                out.append(_render("fixed-ns", ph.fixed_ns))
            out += [_render("point", w, t) for w, t in ph.curve.points]
    out.append("end")
    _write_lines(path, out)


def read_attributes(path):
    """{phase_id: ProbeAttributes} from an attrs file `analyze` wrote."""
    fields = ("footprint", "reuse", "alpha", "max-ways", "fixed-ns")
    rd = _Reader(path, {"attrs", "end", *fields})
    result = {}
    for phase_id, no, body, end in _blocks(rd, "attrs"):
        if phase_id in result:
            rd.fail(no, "duplicate attrs %r" % phase_id)
        got = {kw: args for _, kw, args in body}
        for kw in fields:
            if kw not in got:
                rd.fail(end, "attrs %r missing %s" % (phase_id, kw))
        nbytes, lines, exact = got["footprint"]
        result[phase_id] = ProbeAttributes(
            phase_id, FootprintValue(nbytes, lines, bool(exact)), got["reuse"][0],
            got["alpha"][0], got["max-ways"][0], got["fixed-ns"][0],
        )
    return result


def read_model(path):
    """The TimingModel from a model file `fit-timing` wrote."""
    rd = _Reader(path, {"residual", "coefficients"})
    got = {kw: args for _, kw, args in rd.lines}
    if "residual" not in got or not got.get("coefficients"):
        rd.fail(rd.last, "model needs residual and coefficients")
    return TimingModel(tuple(got["coefficients"]), got["residual"][0])
