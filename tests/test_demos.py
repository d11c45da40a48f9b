"""Every script in demos/ runs to completion."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import poromoist
from tests.conftest import REPO_ROOT


DEMOS = sorted(path.name for path in (REPO_ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    src = Path(poromoist.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(REPO_ROOT / "demos" / name)],
                          capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
