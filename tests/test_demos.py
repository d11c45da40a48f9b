"""The demos that drive the State/RunResult API run to completion."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import poromoist
from tests.conftest import REPO_ROOT


@pytest.mark.parametrize("name", ["01_certified_run.py", "04_homotopy_rescue.py"])
def test_demo_runs(name, tmp_path):
    src = Path(poromoist.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(REPO_ROOT / "demos" / name)],
                          capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
