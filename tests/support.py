"""Small builders shared across test modules."""

import os

import cacheways
from cacheways.loops import FootprintValue, ReuseClass
from cacheways.sensitivity import ProbeAttributes


def mk_attrs(nbytes, reuse="reuse", alpha=0.0, max_ways=2, phase="p", predicted=0.0):
    kind = ReuseClass.REUSE if reuse == "reuse" else ReuseClass.STREAM
    return ProbeAttributes(
        phase_id=phase,
        footprint=FootprintValue(nbytes, (nbytes + 63) // 64, True),
        reuse=kind,
        alpha=alpha,
        max_ways=max_ways,
        fixed_ns=predicted,
    )


def child_env():
    """Environment for a child interpreter that imports the package under
    test from any working directory: a relative PYTHONPATH would not find it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cacheways.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env
