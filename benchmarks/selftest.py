"""Self-test of the benchmark harness.

    python3 benchmarks/selftest.py

Runs every workload at tiny size, untraced and traced, twice each, and
checks that:

* ``BENCHMARK.json`` names exactly the workloads and metrics the harness
  emits, with the same units;
* every end-to-end and per-layer metric is emitted with its unit, the runs
  are correct, and quality and the exact counts repeat across runs;
* traced self times add up to no more than the traced wall time;
* a renamed internal is reported missing while the pass still completes;
* without the program's sources the command fails without printing a result.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SEED = 7

failures: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        failures.append(what)


def run(workload: str, trace: int, cwd: str = ROOT, script: str = RUN):
    cmd = [sys.executable, script, "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    missing = [w for line in lines if line.startswith("missing:") for w in line.split()[1:]]
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, result, missing


def check_metrics(tag: str, result, missing, spec) -> None:
    if result is None:
        expect(False, f"{tag}: printed a result")
        return
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{tag}: correct, {result['attempted']} attempted, {result['failed']} failed")
    expect(not missing, f"{tag}: no metric missing {missing}")
    metrics = result["metrics"]
    for m in spec:
        got = metrics.get(m["name"])
        expect(got is not None and got["unit"] == m["unit"] and math.isfinite(got["value"]),
               f"{tag}: {m['name']} [{m['unit']}] = {got and got['value']}")
    extra = set(metrics) - {m["name"] for m in spec}
    expect(not extra, f"{tag}: no metric outside BENCHMARK.json {sorted(extra)}")


def check_spec(bench) -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import tracing
    import workloads

    expect(sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS),
           "BENCHMARK.json workloads match the harness")
    expect([(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]]
           == list(workloads.END_TO_END),
           "BENCHMARK.json end_to_end metrics, units and directions match the harness")
    expect([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
           == list(tracing.PER_LAYER),
           "BENCHMARK.json per_layer metrics, units and directions match the harness")


def check_renamed_internal() -> None:
    """A traced pass with the validation internals renamed away."""
    import tracing
    import workloads as W

    saved = tracing.SPANS
    tracing.SPANS = tuple(
        (s, mod, ("dataset_ce_renamed", "dataset_binary_ce_renamed")) if s == "training.validate"
        else (s, mod, attrs)
        for s, mod, attrs in saved
    )
    work = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_tmp"))
    tracer = tracing.Tracer()
    try:
        w = W.WORKLOADS["boost-4"]
        out = W.Outcome()
        path = W.write_input(w, SEED, True, work)
        p = W.Pass(w, SEED, 0.5, True, path, out, tracer.phase_span)
        tracer.install()
        try:
            p.run()
        finally:
            tracer.uninstall()
        metrics, missing = tracer.metrics(p, 1.0, 1.0, p.metrics)
    finally:
        tracing.SPANS = saved
        shutil.rmtree(work, ignore_errors=True)
    expect(out.failed == 0 and "training.validate_s" in missing
           and "training.validate_s" not in metrics and "model.forward_s" in metrics,
           "renamed internal: pass completes, training.validate_s reported missing")


def check_bare_directory(bench) -> None:
    """Only BENCHMARK.json and the benchmark's own files: must fail, no result."""
    bare = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_tmp"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for p in bench["paths"]:
            shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p),
                            ignore=shutil.ignore_patterns("__pycache__"))
        script = os.path.join(bare, os.path.relpath(RUN, ROOT))
        proc, result, _ = run(bench["workloads"][0]["name"], 0, cwd=bare, script=script)
        expect(proc.returncode != 0 and result is None,
               f"bare directory: exit {proc.returncode}, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    check_spec(bench)
    for w in bench["workloads"]:
        name = w["name"]
        plain = [run(name, 0) for _ in range(2)]
        for k, (_, result, missing) in enumerate(plain):
            check_metrics(f"{name} untraced #{k}", result, missing, bench["end_to_end"])
        quality = [{q: r["metrics"][q]["value"] for q in ("test_ce", "test_f1_loss")}
                   for _, r, _ in plain if r]
        expect(len(quality) == 2 and quality[0] == quality[1],
               f"{name}: quality bit-identical across runs {quality}")

        traced = [run(name, 1) for _ in range(2)]
        for k, (_, result, missing) in enumerate(traced):
            check_metrics(f"{name} traced #{k}", result, missing, bench["per_layer"])
        counts = [{c: r["metrics"][c]["value"] for c in
                   ("model.assort_encodes_per_basket", "tensor.ops_per_step")}
                  for _, r, _ in traced if r]
        expect(len(counts) == 2 and counts[0] == counts[1],
               f"{name}: exact counts repeat across traced runs {counts}")
        for _, r, _ in traced:
            share = r and r["metrics"]["trace.layer_share"]["value"]
            expect(share is not None and 0 < share <= 1,
                   f"{name}: traced self times within wall time (layer share {share})")
    check_renamed_internal()
    check_bare_directory(bench)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
