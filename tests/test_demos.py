"""Every demo runs to completion in a fresh interpreter."""

import glob
import os
import subprocess
import sys

import pytest

from support import child_env

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir, "demos", "*.py")))


def test_all_four_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=[os.path.basename(d) for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    proc = subprocess.run(
        [sys.executable, demo], capture_output=True, text=True, cwd=str(tmp_path),
        env=child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
