"""Every demo script runs to completion as a process of its own."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(path.name for path in (ROOT / "demos").glob("*.py"))
# the density demo averages X = 1e8 by default; X = 1e6 keeps the run short
ARGS = {"03_one_level_density.py": ["1000000"]}


def test_every_demo_is_listed():
    assert DEMOS and set(ARGS) <= set(DEMOS)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo), *ARGS.get(demo, [])],
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
