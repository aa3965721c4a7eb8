"""Per-layer tracing for the benchmark's traced run.

The tracer wraps the public functions of choicenet's modules from outside the
package, by replacing module and class attributes for the duration of one
pass, and keeps aggregated spans in memory: calls, total time and self time
(a span's duration minus the time its child spans cover). A wrapped name that
no longer exists is skipped and reported as missing, so a refactor of the
program's internals never breaks the benchmark.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time

import numpy as np

from workloads import END_TO_END

# (span, module, attributes): each attribute is a module function or a
# "Class.method"; several attributes feed one span
TENSOR_OPS = (
    ("matmul", "matmul"), ("masked_softmax", "masked_softmax"), ("layer_norm", "layer_norm"),
    ("add_bias", "add_bias"), ("relu", "relu"), ("dropout", "dropout"), ("log", "log"),
    ("sigmoid", "sigmoid"), ("add", "__add__"), ("mul", "__mul__"), ("scale", "scale"),
    ("shift", "shift"), ("transpose", "transpose_last"), ("reshape", "reshape"), ("sum", "sum"),
)
SPANS = (
    ("data.load", "data", ("load_csv", "load_basket_transactions")),
    ("data.expand", "data", ("multi_to_sequential",)),
    ("data.pad", "data", ("pad_batch", "pad_multi_batch")),
    ("model.forward", "model", ("forward", "forward_utilities")),
    ("model.assort_encoder", "model", ("_assortment_encoder",)),
    ("model.cand_encoder", "model", ("_candidates_encoder",)),
    ("model.decoder", "model", ("_decoder",)),
    ("model.attention", "model", ("attention",)),
    *((f"tensor.{op}", "tensor", (f"Tensor.{attr}",)) for op, attr in TENSOR_OPS),
    ("tensor.concat", "tensor", ("concat",)),
    ("tensor.backward", "tensor", ("Tensor.backward",)),
    ("training.train", "training", ("train",)),
    ("training.loss", "training", ("ce_loss", "independent_ce_loss")),
    ("training.adam", "training", ("Adam.step",)),
    ("training.zero_grad", "training", ("Adam.zero_grad",)),
    # called outside train, these are the evaluation `choicenet eval` runs
    # and count as inference.evaluate (see Tracer._wrap)
    ("training.validate", "training", ("dataset_ce", "dataset_binary_ce")),
    ("inference.evaluate", "inference", ("evaluate",)),
    ("inference.generate", "inference", ("generate_basket",)),
    ("inference.tune_threshold", "inference", ("tune_threshold",)),
)
OP_SPANS = frozenset(f"tensor.{op}" for op, _ in TENSOR_OPS) | {"tensor.concat"}

# per-layer metrics as (name, unit, better); "_s" metrics are self times
SELF_TIMES = (
    "data.load", "data.expand", "data.pad", "model.forward", "model.assort_encoder",
    "model.cand_encoder", "model.decoder", "model.attention",
    *sorted(OP_SPANS), "tensor.backward", "training.loss", "training.adam",
    "training.zero_grad", "training.validate", "inference.evaluate", "inference.generate",
    "inference.tune_threshold",
)
CALL_COUNTS = (
    "data.expand", "data.pad", "model.forward", "model.attention", *sorted(OP_SPANS),
    "tensor.backward",
)
# end-to-end metrics whose traced-minus-untraced value is reported (a traced
# pass has too few latency samples for a p99)
OVERHEAD_OF = tuple(m for m in END_TO_END if m[0] in (
    "setup_s", "train_samples_per_s", "eval_obs_per_s", "baskets_per_s", "predict_ms_p50"))
PER_LAYER = (
    *((f"{s}_s", "s", "lower") for s in SELF_TIMES),
    *((f"{s}.calls", "count", "lower") for s in CALL_COUNTS),
    ("data.pad.fill", "ratio", "higher"),
    ("model.forward.rows", "count", "lower"),
    ("model.assort_encodes_per_basket", "count", "lower"),
    ("tensor.ops_per_step", "count", "lower"),
    ("training.step_ms_p50", "ms", "lower"),
    ("training.step_ms_p99", "ms", "lower"),
    ("training.clamped_labels", "count", "lower"),
    ("inference.forwards_per_obs", "count", "lower"),
    ("inference.forwards_per_basket", "count", "lower"),
    ("proc.cpu_per_wall", "ratio", "higher"),
    ("trace.layer_share", "ratio", "higher"),
    *((f"trace.overhead.{m}", unit, better) for m, unit, better in OVERHEAD_OF),
)


class Tracer:
    """Aggregated nested spans plus the counters the per-layer metrics need."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # span -> [calls, total_s, self_s]
        self.stack: list[list] = []  # open spans: [name, start, child_s]
        self.active: dict[str, int] = {}  # open span name -> depth
        self.phase: str | None = None
        self.phase_calls: dict[tuple[str, str], int] = {}
        self.pad_valid = self.pad_total = 0
        self.forward_rows = 0
        self.ops = 0
        self.steps: list[tuple[float, int]] = []  # (ms, tensor ops) per train step
        self._step: tuple[float, int] | None = None
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def enter(self, name: str) -> None:
        self.stack.append([name, time.perf_counter(), 0.0])
        self.active[name] = self.active.get(name, 0) + 1
        if self.phase is not None:
            key = (self.phase, name)
            self.phase_calls[key] = self.phase_calls.get(key, 0) + 1

    def exit(self) -> None:
        name, start, child = self.stack.pop()
        dur = time.perf_counter() - start
        self.active[name] -= 1
        s = self.stats.setdefault(name, [0, 0.0, 0.0])
        s[0] += 1
        s[1] += dur
        s[2] += dur - child
        if self.stack:
            self.stack[-1][2] += dur

    @contextlib.contextmanager
    def phase_span(self, phase: str):
        self.phase = phase
        self.enter(f"phase.{phase}")
        try:
            yield
        finally:
            self.exit()
            self.phase = None

    # -- hooks run before or after a wrapped call ----------------------------

    def _before(self, span: str, args) -> None:
        if span in OP_SPANS:
            self.ops += 1
        elif span == "model.forward":
            batch = args[0]
            self.forward_rows += int(getattr(batch, "size", 0))
            if self.stack and self.stack[-1][0] == "training.train" and self._step is None:
                self._step = (time.perf_counter(), self.ops)

    def _after(self, span: str, result) -> None:
        if span == "data.pad":
            for mask in (getattr(result, "cand_mask", None), getattr(result, "assort_mask", None)):
                if mask is not None:
                    self.pad_valid += int(mask.sum())
                    self.pad_total += int(mask.size)
        elif span == "training.adam" and self._step is not None:
            start, ops = self._step
            self.steps.append((1000.0 * (time.perf_counter() - start), self.ops - ops))
            self._step = None

    def _wrap(self, span: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = span
            if span == "training.validate" and not self.active.get("training.train"):
                name = "inference.evaluate"  # the batched CE that `choicenet eval` runs
            self._before(name, args)
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            self._after(name, result)
            return result

        return traced

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every name in SPANS that exists; record the ones that do not."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "choicenet"]
        for span, mod_name, attrs in SPANS:
            mod = sys.modules.get(f"choicenet.{mod_name}")
            for attr in attrs:
                owner, _, leaf = attr.rpartition(".")
                holder = getattr(mod, owner, None) if owner else mod
                original = getattr(holder, leaf, None) if holder is not None else None
                if original is None:
                    self.missing.append(f"choicenet.{mod_name}.{attr}")
                    continue
                wrapped = self._wrap(span, original)
                if owner:
                    self._set(holder, leaf, wrapped)
                    continue
                # module functions may be imported by name into other modules
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is original:
                            self._set(m, name, wrapped)

    def _set(self, obj, name: str, value) -> None:
        self._undo.append((obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def uninstall(self) -> None:
        for obj, name, original in reversed(self._undo):
            setattr(obj, name, original)
        self._undo.clear()

    def absent(self, span: str) -> bool:
        """True when none of the span's attributes could be wrapped."""
        for s, mod_name, attrs in SPANS:
            if s == span:
                return all(f"choicenet.{mod_name}.{a}" in self.missing for a in attrs)
        return True

    # -- metrics --------------------------------------------------------------

    def metrics(self, run, wall_s: float, cpu_s: float, untraced: dict) -> tuple[dict, list]:
        """Per-layer metrics of a traced pass ``run`` (a ``workloads.Pass``),
        and the names of the metrics that could not be measured."""
        out: dict[str, float] = {}
        missing: list[str] = []

        def put(name, value, *needs):
            if any(self.absent(s) for s in needs) or value is None:
                missing.append(name)
            else:
                out[name] = value

        def st(span, k):
            return self.stats.get(span, [0, 0.0, 0.0])[k]

        for s in SELF_TIMES:
            put(f"{s}_s", st(s, 2), s)
        for s in CALL_COUNTS:
            put(f"{s}.calls", st(s, 0), s)
        put("data.pad.fill", self.pad_valid / self.pad_total if self.pad_total else None, "data.pad")
        put("model.forward.rows", self.forward_rows, "model.forward")
        baskets = run.generated
        encodes = self.phase_calls.get(("generate", "model.assort_encoder"), 0)
        put("model.assort_encodes_per_basket", encodes / baskets, "model.assort_encoder")
        ms = [m for m, _ in self.steps]
        ops = [n for _, n in self.steps]
        put("tensor.ops_per_step", statistics.median(ops) if ops else None, "training.adam")
        put("training.step_ms_p50", statistics.median(ms) if ms else None, "training.adam")
        put("training.step_ms_p99", float(np.percentile(ms, 99)) if ms else None, "training.adam")
        put("training.clamped_labels", getattr(run.report, "clamped_labels", None))
        put("inference.forwards_per_obs",
            self.phase_calls.get(("evaluate", "model.forward"), 0) / run.evaluated, "model.forward")
        forwards = self.phase_calls.get(("generate", "model.forward"), 0)
        put("inference.forwards_per_basket", forwards / baskets, "model.forward")
        put("proc.cpu_per_wall", cpu_s / wall_s)
        layer_self = sum(v[2] for k, v in self.stats.items() if not k.startswith("phase."))
        put("trace.layer_share", layer_self / wall_s)
        for m, _, _ in OVERHEAD_OF:
            if m in run.metrics and m in untraced:
                put(f"trace.overhead.{m}", run.metrics[m] - untraced[m])
            else:
                missing.append(f"trace.overhead.{m}")
        return out, missing
