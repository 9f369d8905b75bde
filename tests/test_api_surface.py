"""Every public function, class and method of `src/cacheways` has a caller
outside the tests: in `src/` outside its own body, in `demos/`, or in
`perfbench/` (its `test_*.py` excluded)."""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Only the allocation fixtures call these today; ROADMAP item 5 may give them
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
