"""Every public function, class and method of `src/cacheways` has a caller
outside the tests: in `src/` outside its own body, in `demos/`, or in
`perfbench/` (its `test_*.py` excluded); every exception class is caught
there by name; each subcommand takes exactly the options listed in
`OPTIONS`; and `SystemConfig` has exactly the fields listed in
`SETTINGS`."""

import argparse
import ast
import dataclasses
import glob
import os

from cacheways.apportion import SystemConfig
from cacheways.cli import _build_parser

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Only the allocation fixtures call these today; ROADMAP item 10 may give them
# a caller through a `simulate --trace` file.
EXEMPT = {"read_events", "write_events", "replay_events", "read_alloc_log"}


def trees(*patterns):
    for path in sorted(p for pat in patterns for p in glob.glob(os.path.join(ROOT, pat))):
        if not os.path.basename(path).startswith("test_"):
            with open(path, encoding="utf-8") as fh:
                yield path, ast.parse(fh.read(), path)


def test_every_public_name_has_a_caller_outside_the_tests():
    refs = {}  # identifier -> [(path, line)] of each name, attribute, import or string
    for path, tree in trees("src/cacheways/*.py", "demos/*.py", "perfbench/*.py"):
        for node in ast.walk(tree):
            for name in (getattr(node, "id", None), getattr(node, "attr", None),
                         isinstance(node, ast.alias) and node.name, getattr(node, "value", None)):
                if isinstance(name, str):
                    refs.setdefault(name, []).append((path, node.lineno))
    uncalled = set()
    for path, tree in trees("src/cacheways/*.py"):
        for top in tree.body:
            for node in [top, *(top.body if isinstance(top, ast.ClassDef) else ())]:
                if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
                        and all(p == path and node.lineno <= line <= node.end_lineno
                                for p, line in refs.get(node.name, []))):
                    uncalled.add(node.name)
    assert not uncalled - EXEMPT, "only the tests call %s" % sorted(uncalled - EXEMPT)
    assert not EXEMPT - uncalled, "exempt names with a caller: %s" % sorted(EXEMPT - uncalled)


def test_every_error_class_is_caught_outside_the_tests():
    # a class exists only where some caller tells it apart from the others
    (defined,) = [{node.name for node in tree.body if isinstance(node, ast.ClassDef)}
                  for _, tree in trees("src/cacheways/errors.py")]
    caught = set()
    for _, tree in trees("src/cacheways/*.py", "demos/*.py", "perfbench/*.py"):
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught.update(getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node.type))
    assert defined <= caught, "no caller catches %s" % sorted(defined - caught)


# each command's option strings; a new flag is a deliberate change to this table
OPTIONS = {
    "analyze": {"-h", "--help", "--nests", "--curves", "--out"},
    "fit-timing": {"-h", "--help", "--samples", "--out", "--test"},
    "simulate": {"-h", "--help", "--mix", "--policy", "--log", "--out", "--config", "--interval-ms"},
    "compare": {"-h", "--help", "--mix", "--policies", "--out", "--config", "--interval-ms"},
    "sweep": {"-h", "--help", "--mixes", "--policies", "--out", "--config", "--interval-ms"},
}


def test_each_command_takes_exactly_its_options():
    (commands,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    found = {name: {s for a in sub._actions for s in a.option_strings} for name, sub in commands.choices.items()}
    assert found == OPTIONS


# the SystemConfig fields, the machine's geometry; a new setting is a
# deliberate change to this table
SETTINGS = {"sockets", "cores_per_socket", "clos_per_socket", "ways_per_socket", "gfactor"}


def test_system_config_has_exactly_its_settings():
    assert {f.name for f in dataclasses.fields(SystemConfig)} == SETTINGS
