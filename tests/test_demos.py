"""Every demo script runs to completion as a process of its own."""

from pathlib import Path

import pytest

from test_tooling import _fresh_python

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(path.name for path in (ROOT / "demos").glob("*.py"))
# the density demo averages X = 1e8 by default; X = 1e6 keeps the run short
ARGS = {"03_one_level_density.py": ["1000000"]}


def test_every_demo_is_listed():
    assert DEMOS and set(ARGS) <= set(DEMOS)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    assert _fresh_python(str(ROOT / "demos" / demo), *ARGS.get(demo, []))
