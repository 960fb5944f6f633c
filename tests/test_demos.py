"""The narrative demos run to completion against the current API."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_four_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo, subprocess_env):
    proc = subprocess.run([sys.executable, str(demo)], env=subprocess_env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
