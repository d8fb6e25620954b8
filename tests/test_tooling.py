"""Checks on the source tree itself."""

import ast
import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "varpois"


def test_no_assert_statements_in_the_package():
    """Invariants raise named exceptions: python -O strips assert."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert sorted(SRC.glob("*.py")), f"no sources under {SRC}"
    assert found == []


@pytest.mark.parametrize("workload",
                         ["lenard", "jacobi-cohomology", "difflinalg"])
def test_benchmark_smoke_verdicts(workload):
    """One smoke round of each benchmark workload: every verdict checks."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
         workload, "--size", "smoke", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
