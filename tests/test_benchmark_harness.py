"""Smoke test of the benchmark harness: a tiny pass of each workload, untraced
and traced, runs through the public API and passes its own checks."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "benchmarks", "run.py")


def _strict_constant(name):
    raise ValueError(f"result line holds {name}, which is not JSON")


@pytest.mark.parametrize("workload", ["boost-4", "bakery-50-seq", "bakery-50-thresh"])
def test_tiny_pass(workload):
    for trace in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", workload, "--seed", "1", "--seconds", "1",
             "--tiny", "--trace", trace],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, (trace, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1], parse_constant=_strict_constant)
        assert result["correct"] is True, (trace, proc.stderr[-2000:])
        assert result["failed"] == 0, (trace, proc.stderr[-2000:])
