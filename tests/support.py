"""Small builders shared across test modules, plus writers for the command
inputs and readers for the command outputs, built on the package's grammar
so that a round trip checks the grammar the commands use."""

import contextlib
import os

import pytest

import cacheways
from cacheways.errors import CacheWaysError, SchemaError
from cacheways.formats import _config_lines, _non_default, _Reader, _render, _write_lines
from cacheways.sensitivity import WayTimeCurve
from cacheways.timing import TimingModel

# the names of rules fixed by design, which a config line may not set
FIXED_RULES = ("scaling_factor_stream", "clos_occupancy_threshold", "hysteresis_ways",
               "alpha_socket_threshold", "srd_delta", "saturation_epsilon", "line_size", "dm_penalty")


def child_env():
    """Environment for a child interpreter that imports the package under
    test from any working directory: a relative PYTHONPATH would not find it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cacheways.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@contextlib.contextmanager
def raises_fault(match):
    """pytest.raises(CacheWaysError, match=match) for a fault the CLI exits
    3 on: the error must not be a SchemaError, which exits 2."""
    with pytest.raises(CacheWaysError, match=match) as info:
        yield info
    assert not isinstance(info.value, SchemaError), info.value


def way_time_curve(times):
    """A WayTimeCurve from a {ways: time} dict."""
    return WayTimeCurve(tuple(sorted((int(w), float(t)) for w, t in times.items())))


def clos_of(ap, pid):
    """The ClosState holding placed process `pid` in Apportioner `ap`."""
    p = ap.procs[pid]
    return ap.sockets[p.socket_id].clos[p.clos_id]


def checking_moved(method):
    """Apportioner `method` (ipca_batch, pcca or release_process), checking
    after each call that `moved` names exactly the occupied CLOS whose mask
    changed or that gained a member, against a snapshot taken before it."""

    def checked(ap, *args):
        before = {(s.sid, c.clos_id): (c.mask, set(c.members)) for s in ap.sockets for c in s.occupied}
        out = method(ap, *args)
        changed = set()
        for s in ap.sockets:
            for c in s.occupied:
                mask, members = before.get((s.sid, c.clos_id), (None, set()))
                if c.mask != mask or not members.issuperset(c.members):
                    changed.add((s.sid, c.clos_id))
        assert {(sid, c.clos_id) for sid, c in ap.moved} == changed, (method.__name__, args)
        return out

    return checked


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


def read_model(path):
    """The TimingModel from a model file `fit-timing` wrote."""
    rd = _Reader(path, {"residual", "coefficients"})
    got, first = {}, {}
    for no, kw, args in rd.lines:
        if kw in first:
            rd.fail(no, "repeated %s; first at line %d" % (kw, first[kw]))
        got[kw], first[kw] = args, no
    if "residual" not in got or not got.get("coefficients"):
        rd.fail(rd.last, "model needs residual and coefficients")
    return TimingModel(tuple(got["coefficients"]), got["residual"][0])
