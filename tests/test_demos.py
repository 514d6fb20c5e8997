"""Smoke test of the narrative demos: each runs to completion on the package in src/.

The demos import the public API by name, so a renamed or deleted export
breaks them; nothing else runs them.  The pilot is only imported, since its
full run takes minutes.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # cwd is tmp_path because demo 02 writes its figure there when matplotlib exists
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


def test_pilot_imports():
    path = ROOT / "demos" / "pilot_thresholds.py"
    spec = importlib.util.spec_from_file_location("pilot_thresholds", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
