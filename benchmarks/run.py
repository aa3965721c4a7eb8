"""choicenet benchmark: one workload per process, metrics as JSON.

    python3 benchmarks/run.py --workload boost-4 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones. With ``--trace 1`` the process runs the same
pass twice, untraced and then traced, each with half of ``--seconds`` and a
third of the latency samples. It reports the per-layer metrics (see
``tracing.py``) together with the tracing overhead. Metrics that could not be
measured are named on a ``missing:`` line before the JSON.

BLAS runs one thread. ``--seconds`` is the CPU time spent in timed calls
(see ``workloads.py``); the training whose model is served does a fixed
amount of work, so quality is bit-identical for one seed. Exit codes: 0
with a result, 1 when the pass had to stop, 2 on bad arguments or when the
program's sources are not there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_tmp")
DIGEST_DIR = os.path.join(WORK_DIR, "quality")

def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs and one epoch, for the self-test")
    return p.parse_args(argv)


def _import_program():
    """Import choicenet from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "choicenet", "__init__.py")):
        print(f"error: no choicenet sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    # one BLAS thread: the timed calls are measured in CPU time of the
    # process, which then equals their wall time on an idle core
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import choicenet

    if os.path.dirname(os.path.abspath(choicenet.__file__)) != os.path.join(SRC, "choicenet"):
        print(f"error: choicenet imported from {choicenet.__file__}", file=sys.stderr)
        sys.exit(2)


def _check_repeatable(out, args, metrics) -> None:
    """Quality must be bit-identical across runs of the same program and
    benchmark sources, workload and seed: the first run records it, later
    runs compare."""
    h = hashlib.sha256(f"{args.workload} {args.seed} {args.tiny}".encode())
    for pkg in (os.path.join(SRC, "choicenet"), HERE):
        for name in sorted(os.listdir(pkg)):
            if name.endswith(".py"):
                with open(os.path.join(pkg, name), "rb") as fh:
                    h.update(name.encode() + fh.read())
    path = os.path.join(DIGEST_DIR, h.hexdigest() + ".json")
    now = {k: repr(metrics.get(k)) for k in ("test_ce", "test_f1_loss")}
    if os.path.exists(path):
        with open(path) as fh:
            before = json.load(fh)
        out.check(before == now, f"quality {now} differs from an earlier run at this seed {before}")
    else:
        os.makedirs(DIGEST_DIR, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(now, fh)


def _cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    import workloads as W
    import tracing

    if args.workload not in W.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(W.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    w = W.WORKLOADS[args.workload]
    out = W.Outcome()
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK_DIR)
    status = 0
    try:
        path = W.write_input(w, args.seed, args.tiny, work)
        seconds = args.seconds / 2 if args.trace else args.seconds
        # a traced run reports no latency p99, so fewer calls will do
        min_latency = W.MIN_LATENCY_SAMPLES // 3 if args.trace else W.MIN_LATENCY_SAMPLES
        plain = W.Pass(w, args.seed, seconds, args.tiny, path, out, min_latency=min_latency)
        plain.run()
        _check_repeatable(out, args, plain.metrics)
        metrics = {k: plain.metrics[k] for k, _, _ in W.END_TO_END if k in plain.metrics}
        missing = []
        if args.trace:
            print("untraced:", json.dumps(metrics))
            tracer = tracing.Tracer()
            traced = W.Pass(w, args.seed, seconds, args.tiny, path, out, tracer.phase_span,
                            min_latency)
            tracer.install()
            t0, c0 = time.perf_counter(), _cpu_s()
            try:
                traced.run()
            finally:
                tracer.uninstall()
            wall, cpu = time.perf_counter() - t0, _cpu_s() - c0
            for key in ("test_ce", "test_f1_loss"):
                out.check(traced.metrics.get(key) == plain.metrics.get(key),
                          f"{key} differs between the untraced and traced pass")
            metrics, missing = tracer.metrics(traced, wall, cpu, plain.metrics)
            missing += tracer.missing
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = rss_kb / 1024.0
            metrics["success_rate"] = 1.0 - out.failed / max(out.attempted, 1)
            missing = [k for k, _, _ in W.END_TO_END if k not in metrics]
    except W.Abort as exc:
        print(f"error: {exc}; the pass stopped", file=sys.stderr)
        metrics, missing, status = {}, [], 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = {n: u for n, u, _ in (tracing.PER_LAYER if args.trace else W.END_TO_END)}
    if missing:
        print("missing:", " ".join(missing))
    result = {
        "correct": out.failed == 0 and status == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
