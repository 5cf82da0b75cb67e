"""Each demo prints exactly the output recorded in tests/golden/demos."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_every_demo_has_a_golden_output():
    assert [d.stem for d in DEMOS] == sorted(g.stem for g in (ROOT / "tests" / "golden" / "demos").glob("*.out"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_output_is_golden(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (ROOT / "tests" / "golden" / "demos" / f"{demo.stem}.out").read_bytes()
