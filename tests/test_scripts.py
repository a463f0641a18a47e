"""Smoke tests for the scripts under scripts/."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_run_cylinder_twist_demo():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_cylinder.py"),
         "--torus-order", "4", "--twists", "0,1/4", "--windows", "1",
         "--twist-demo"],
        env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert "twisted sigma == coboundary of the twist: True" in out.stdout
    assert "solver verdict: vanishing-at-scale" in out.stdout
    assert "repaired lifting equivariant in window: True" in out.stdout
