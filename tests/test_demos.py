"""The demos run to completion, and demo 03's claim lines stay fixed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

#: the verify_claims lines demo 03 prints for prop2-r4(6); its solve timing
#: is left out
DEMO03_CLAIMS = [
    "  regular: PASS ",
    "  star-freeness-claim: PASS [claimed K_{1,4}-free]",
    "  edge-connectivity: PASS [computed 4, claimed = 4]",
    "  terminals-nbhd2: PASS [max |N(v) n W| = 2, claimed exactly 2 at the maximum]",
    "  witness-deficiency: PASS [expected -2]",
]


def _run_demo(path: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(path)], env=env, capture_output=True, text=True, timeout=60
    )


def test_there_are_four_demos():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path):
    out = _run_demo(path)
    assert out.returncode == 0, out.stderr


def test_demo03_prints_the_claim_lines():
    out = _run_demo(ROOT / "demos" / "03_sharpness_families.py")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    start = lines.index("prop2-r4(6): 60 vertices, |W| = 14") + 1
    assert lines[start:start + 5] == DEMO03_CLAIMS
