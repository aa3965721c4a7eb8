"""Smoke test of the benchmark harness: a tiny pass of each workload, untraced
and traced, runs through the public API, passes its own checks and reports
every metric that BENCHMARK.json declares."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "benchmarks", "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    _DECLARED = json.load(_fh)
# the metrics a result must hold: end-to-end untraced, per-layer traced
METRICS = {
    trace: {m["name"] for m in _DECLARED[kind]}
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer"))
}


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
        # a wrapped name that no longer exists drops its metrics silently
        missing = METRICS[trace] - set(result["metrics"])
        assert not missing, (trace, sorted(missing))
