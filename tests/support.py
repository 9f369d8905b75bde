"""Small builders shared across test modules."""

import os

import cacheways


def child_env():
    """Environment for a child interpreter that imports the package under
    test from any working directory: a relative PYTHONPATH would not find it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cacheways.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env
