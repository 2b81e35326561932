"""Each script in demos/ runs to its end as a user would run it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import odrelease

DEMOS = sorted(Path(__file__).resolve().parents[1].joinpath("demos").glob("*.py"))


def test_the_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(tmp_path, demo):
    env = dict(os.environ, PYTHONPATH=str(Path(odrelease.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
