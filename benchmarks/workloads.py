"""Workloads of the choicenet benchmark and the pass that runs them.

A pass ingests the workload's file, trains the model whose quality is scored,
and spends ``--seconds`` in all on timed calls through the public API that
``choicenet.cli`` uses (``data``, ``model``, ``training``, ``inference``, and
``cli._test_metric`` for evaluation): one process, one caller, a closed
loop. The timed calls are five streams (set-up, training, evaluate, generate,
predict). The first set-up and the first training are the ones the served
model comes from; after them the streams are interleaved round-robin by time
share (further trainings run one epoch), so every metric samples the whole
window.

Every timed call is measured in CPU time of this process (``CLOCK``), not
wall time. The program runs one caller and one BLAS thread and does no
blocking I/O, so on a core of its own the two are equal; on a shared host
the wall clock also counts the time the process waits for a CPU that the
host gave to someone else. ``proc.cpu_per_wall`` in the traced run shows the
ratio of the two.

The machine this was tuned on is a shared 2-vCPU VM whose speed changes by
up to a quarter, from second to second and from minute to minute, with the
load on the host; the two vCPUs change apart. Two things keep the figures
steady. Between timed calls, ``Steer`` keeps the calling thread on whichever
CPU currently runs a fixed pure-Python loop fastest. And a rate or a median
latency is taken at the slow end of the run: each stream's samples, in time
order, are split into ``WINDOWS`` equal windows, and the figure is the
``SLOW`` quantile of the windows' medians (``_slow_end``). The host's slower
spells recur in nearly every run while its fast ones come and go, so this
figure repeats better than the median of all samples. A p99 is the median
over the windows of each window's p99, so a stall that recurs every few
hundred calls shows in it and a slow spell does not.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

from choicenet import cli
from choicenet import data as D
from choicenet import inference as I
from choicenet import model as M
from choicenet import training as T

import bakery_gen

# the clock of every timed call: CPU time of the process, all threads
CLOCK = time.process_time
WINDOWS = 10
SLOW = 0.8  # a latency is read at this quantile of the window medians, a rate at 1 - SLOW
# single-query calls per run: 300 per window, so 3 lie beyond each window's
# p99 and 30 beyond the run's
MIN_LATENCY_SAMPLES = 3000
# trainings per run, the served one included; by time share alone the
# bakery workloads, whose served training is long, would make only three
MIN_TRAININGS = 5
EVAL_CHUNK = 20  # baskets per timed evaluate call on thresh
# share of --seconds spent in each stream; thresh has no predict stream
# because its single query, predict_threshold, is also its basket generator
SHARES = {"setup": 0.05, "train": 0.35, "evaluate": 0.15, "generate": 0.15, "predict": 0.3}
BASKET_SIZE = 3  # of generated bakery baskets
WARMUP = 3  # untimed calls per serving stream
PROBE_EVERY = 0.5  # seconds between CPU speed probes
# threshold grid for tune_threshold: the bakery base rate is about 2.2 / 50,
# so the default grid (0.1 .. 0.9) would leave most baskets empty
THRESH_GRID = (0.01, 0.03, 0.05, 0.1, 0.2, 0.3, 0.5)

# (name, unit, better): the end-to-end metrics, reported on every workload
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("train_samples_per_s", "1/s", "higher"),
    ("eval_obs_per_s", "1/s", "higher"),
    ("baskets_per_s", "1/s", "higher"),
    ("predict_ms_p50", "ms", "lower"),
    ("predict_ms_p99", "ms", "lower"),
    ("test_ce", "nats", "lower"),
    ("test_f1_loss", "ratio", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("success_rate", "ratio", "higher"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    source: str  # "boost" (CSV via load_csv) or "bakery" (transactions)
    objective: str  # "ce" or "binary_ce"
    n_samples: int  # observations (boost) or baskets (bakery) in the file
    hidden_dim: int
    n_heads: int
    lr: float
    epochs: int  # of the training whose model is served and scored
    weight_decay: float = 0.0
    batch_size: int = 256
    dropout: float = 0.1


WORKLOADS = {
    w.name: w
    for w in (
        # the test_07 shape: tiny tensors, so per-op overhead dominates
        Workload("boost-4", "boost", "ce", 6000, 8, 2, 0.01, 10, weight_decay=5e-4),
        # 50x50 attention, Cmax = 50, k forwards per generated basket
        Workload("bakery-50-seq", "bakery", "ce", 400, 32, 4, 0.02, 4),
        # same data and size through the threshold head: one forward per basket;
        # small batches, as its model learns only the base rate in fewer steps
        Workload("bakery-50-thresh", "bakery", "binary_ce", 400, 32, 4, 0.01, 25, batch_size=32),
    )
}

TINY = {"boost": 600, "bakery": 100}


class Abort(RuntimeError):
    """A failure after which the pass cannot go on (set-up or training)."""


class Outcome:
    """Counts public calls attempted and failures (failed calls + failed checks)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return True, fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            print(f"call {getattr(fn, '__name__', fn)} failed:", file=sys.stderr)
            traceback.print_exc()
            return False, None

    def must(self, fn, *args, **kwargs):
        ok, result = self.call(fn, *args, **kwargs)
        if not ok:
            raise Abort(f"{getattr(fn, '__name__', fn)} failed")
        return result

    def check(self, cond: bool, what: str) -> bool:
        if not cond:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return cond


def write_input(w: Workload, seed: int, tiny: bool, work_dir: str) -> str:
    n = TINY[w.source] if tiny else w.n_samples
    if w.source == "boost":
        path = os.path.join(work_dir, "boost.csv")
        ds = D.generate_boosted_synthetic(n, boost_kind=D.CANDIDATE_BOOST, seed=seed)
        D.save_csv(ds, path)
    else:
        path = os.path.join(work_dir, "bakery.txt")
        bakery_gen.write_transactions(path, bakery_gen.generate_baskets(n, seed))
    return path


def _is_distribution(items, probs, C) -> bool:
    p = np.asarray(probs, dtype=np.float64)
    return (
        len(items) == len(C) == p.shape[0]
        and set(items) == set(C)
        and bool(np.all(p >= 0.0))
        and abs(float(p.sum()) - 1.0) <= 1e-9
    )


class Steer:
    """Keeps the calling thread on the allowed CPU that currently runs a fixed
    pure-Python loop fastest, probing at most every ``PROBE_EVERY`` seconds.

    The calling thread runs the Python code and, with one BLAS thread, every
    BLAS call too, so pinning it pins all of the timed work."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.last = -np.inf

    @staticmethod
    def _loop_s() -> float:
        best = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            acc = 0
            for i in range(5000):
                acc += i * i
            best = min(best, time.perf_counter() - t0)
        return best

    def __call__(self) -> None:
        if len(self.cpus) < 2 or time.perf_counter() - self.last < PROBE_EVERY:
            return
        speed = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = self._loop_s()
        os.sched_setaffinity(0, {min(speed, key=speed.get)})
        self.last = time.perf_counter()

    def release(self) -> None:
        os.sched_setaffinity(0, self.cpus)


def _windows(samples: list[float]) -> list[list[float]]:
    """``samples``, in time order, split into ``WINDOWS`` equal windows."""
    n = min(WINDOWS, len(samples))
    return [samples[i * len(samples) // n : (i + 1) * len(samples) // n] for i in range(n)]


def _slow_end(samples: list[float], q: float) -> float:
    """The ``q`` quantile of the medians of ``samples``' windows."""
    return float(np.quantile([statistics.median(w) for w in _windows(samples)], q))


class Stream:
    """One kind of timed call, cycled over its jobs. Keeps each call's time
    and work units and the results of the first pass over the jobs; ``done``
    counts the work units of every call made, warm-up calls too."""

    def __init__(self, name, jobs, call, check=None, min_calls=3, units=lambda job: 1):
        self.name, self.jobs, self.call, self.check = name, jobs, call, check
        self.min_calls, self.units = max(min_calls, 3), units
        self.calls, self.busy, self.done = 0, 0.0, 0
        self.times: list[float] = []
        self.rates: list[float] = []
        self.first: list = []

    def step(self, out: Outcome, phase, timed: bool = True) -> None:
        job = self.jobs[self.calls % len(self.jobs)]
        with phase(self.name):
            t0 = CLOCK()
            ok, res = out.call(self.call, job)
            dt = CLOCK() - t0
        self.done += self.units(job)
        if ok and self.check is not None:
            self.check(job, res)
        if timed:
            self.record(job, dt, res if ok else None)

    def record(self, job, dt: float, result=None) -> None:
        if self.calls < len(self.jobs):
            self.first.append(result)
        self.calls += 1
        self.busy += dt
        self.times.append(dt)
        self.rates.append(self.units(job) / dt)

    def rate(self) -> float:
        return _slow_end(self.rates, 1.0 - SLOW)

    def p50(self) -> float:
        return _slow_end(self.times, SLOW)

    def p99(self) -> float:
        return statistics.median(float(np.percentile(w, 99)) for w in _windows(self.times))


class Pass:
    """One pass of a workload; ``metrics`` holds its end-to-end metrics.

    ``phase(name)``, if given, returns a context manager entered around each
    phase and each timed call (the tracer's phase span)."""

    def __init__(self, w: Workload, seed: int, seconds: float, tiny: bool, path: str,
                 out: Outcome, phase=None, min_latency: int = MIN_LATENCY_SAMPLES):
        self.w, self.seed, self.seconds, self.tiny = w, seed, seconds, tiny
        self.path, self.out = path, out
        self.phase = phase or (lambda name: contextlib.nullcontext())
        self.thresh = w.objective == "binary_ce"
        self.metrics: dict[str, float] = {}
        self.epochs = 1 if tiny else w.epochs
        self.min_latency = min(300, min_latency) if tiny else min_latency
        self.mu = 0.5
        self.steer = Steer()

    # -- set-up: ingest, split, reduce val/test, init --------------------------

    def _setup_once(self, _job=None):
        w, seed = self.w, self.seed
        if w.source == "boost":
            ds = D.load_csv(self.path)
        else:
            ds = D.load_basket_transactions(self.path)
        train, val, test = D.split(ds, seed=seed + 1)
        test_seq = test
        if ds.kind == D.MULTI:
            # the fixed val/test expansions of cli._reduce_splits
            test_seq = D.multi_to_sequential(test, np.random.default_rng(seed + 102))
            if w.objective == "ce":
                val = D.multi_to_sequential(val, np.random.default_rng(seed + 101))
        mc = M.TCNetConfig(
            input_dim=D.effective_feature_dim(train), hidden_dim=w.hidden_dim,
            n_heads=w.n_heads, dropout_rate=w.dropout, seed=seed,
        )
        M.init_params(mc, np.random.default_rng(seed))
        return ds, (train, val, test), test_seq, mc

    def setup(self):
        self.steer()
        t0 = CLOCK()
        self.ds, self.splits, self.test_seq, self.mc = self.out.must(self._setup_once)
        self.setup_s = CLOCK() - t0
        train_ds = self.splits[0]
        if train_ds.kind == D.MULTI and not self.thresh:
            self.rows_per_epoch = sum(len(o.basket) for o in train_ds.observations)
        else:
            self.rows_per_epoch = len(train_ds)

    # -- training ---------------------------------------------------------------

    def _train(self, epochs: int):
        w = self.w
        tc = T.TrainConfig(
            initial_lr=w.lr, epochs=epochs, batch_size=w.batch_size,
            seed=self.seed, weight_decay=w.weight_decay,
        )
        return T.train(self.mc, self.splits, tc, objective=w.objective)

    def train(self):
        """The training whose model is served and scored; its time is the
        first sample of the train stream."""
        self.steer()
        t0 = CLOCK()
        self.params, self.report = self.out.must(self._train, self.epochs)
        self.train_s = CLOCK() - t0
        self.out.check(bool(np.isfinite(self.report.val_losses).all()), "non-finite validation loss")

    # -- quality ----------------------------------------------------------------

    def _check_ce(self, ce):
        if self.tiny:
            return  # one epoch on tiny inputs learns too little to test quality
        uniform = T.uniform_ce([len(o.candidates) for o in self.test_seq.observations])
        self.out.check(bool(np.isfinite(ce)) and ce < uniform,
                       f"test_ce {ce} not finite or not below uniform {uniform}")

    def _check_f1(self, f1, observed):
        """The baskets must beat predicting all of S, which in turn beats
        empty baskets (loss 1) whenever the actual baskets are not empty."""
        if self.tiny:
            return
        everything = I.f1_loss([frozenset(S) for S, _ in observed], [b for _, b in observed])
        self.out.check(f1 < everything,
                       f"test_f1_loss {f1} does not beat predicting all of S ({everything})")

    def prepare(self):
        """Untimed work the thresh streams need: mu, tuned on validation, and
        the threshold model's sequential CE on the expanded test rows."""
        if not self.thresh:
            return
        ok, res = self.out.call(cli._test_metric, self.params, self.mc, self.test_seq, "sequential", None)
        if ok:
            self.metrics["test_ce"] = res["ce"]
        ok, tuned = self.out.call(I.tune_threshold, self.params, self.mc, self.splits[1], THRESH_GRID)
        if ok:
            self.mu = tuned[0]

    # -- timed streams ----------------------------------------------------------

    def _streams(self) -> list[Stream]:
        w, out, catalog = self.w, self.out, self.ds.catalog
        params, mc = self.params, self.mc
        test = self.splits[2].observations

        streams = [
            Stream("setup", [None], self._setup_once),
            Stream("train", [1], self._train, min_calls=MIN_TRAININGS,
                   units=lambda epochs: self.rows_per_epoch * epochs),
        ]
        streams[0].record(None, self.setup_s)
        streams[1].record(self.epochs, self.train_s)
        seen: dict[int, object] = {}

        def same_as_before(ds, res):
            before = seen.setdefault(id(ds), res)
            out.check(res == before, "evaluation gave another result for the same data")

        # the test metric of `choicenet train` and `eval`: today the
        # thresholded F1 of inference.evaluate for multi (one forward per
        # basket, so chunks change no work), the batched dataset_ce else
        if self.thresh:
            obs = self.splits[2].observations
            eval_jobs = [D.ChoiceDataset(catalog, obs[i : i + EVAL_CHUNK], D.MULTI)
                         for i in range(0, len(obs), EVAL_CHUNK)]
            task, key = "multi", "f1_loss"
        else:
            eval_jobs, task, key = [self.test_seq], "sequential", "ce"
        streams.append(Stream(
            "evaluate", eval_jobs, lambda ds: cli._test_metric(params, mc, ds, task, self.mu)[key],
            same_as_before, min_calls=len(eval_jobs), units=len,
        ))
        if self.thresh:
            streams.append(Stream(
                "generate", [o.assortment for o in test],
                lambda S: I.predict_threshold(params, mc, catalog, S, self.mu),
                lambda S, basket: out.check(basket <= S, "threshold basket not a subset of S"),
                min_calls=self.min_latency,
            ))
            return streams
        # every generate call does equal work: size 2 from the boost
        # assortments that have two items, size 3 on bakery
        size = 2 if w.source == "boost" else BASKET_SIZE
        gen_jobs = [(o.assortment, size) for o in test if len(o.assortment) >= size]
        streams.append(Stream(
            "generate", gen_jobs,
            lambda job: I.generate_basket(params, mc, catalog, job[0], stop=("fixed_size", job[1])),
            lambda job, pred: out.check(
                pred.basket <= job[0] and len(pred.basket) == job[1],
                f"generated basket {sorted(pred.basket)} is not {job[1]} items of S",
            ),
            min_calls=len(test) if w.source == "bakery" else 3,
        ))
        rows = self.test_seq.observations
        streams.append(Stream(
            "predict", [(o.candidates, o.assortment) for o in rows],
            lambda job: I.predict_sequential(params, mc, catalog, job[0], job[1]),
            lambda job, res: out.check(
                _is_distribution(res[0], res[1], job[0]), "probability vector malformed"
            ),
            min_calls=max(self.min_latency, len(rows) if w.source == "boost" else 0),
        ))
        return streams

    def serve(self):
        """Round-robin the streams by time share until ``--seconds`` of calls
        are done and every stream has its minimum number of calls."""
        streams = self._streams()
        for s in streams[2:]:
            for _ in range(WARMUP):
                s.step(self.out, self.phase, timed=False)
        share = {s.name: SHARES[s.name] for s in streams}
        if self.thresh:
            share["generate"] += SHARES["predict"]
        while True:
            busy = sum(s.busy for s in streams)
            short = [s for s in streams if s.calls < s.min_calls]
            if busy >= self.seconds and not short:
                break
            pool = short if busy >= self.seconds else streams
            self.steer()
            min(pool, key=lambda s: s.busy / share[s.name]).step(self.out, self.phase)
        self.steer.release()
        self._score(*streams)

    def _score(self, setup, train, ev, gen, pred=None):
        m = self.metrics
        m["setup_s"] = setup.p50()
        m["train_samples_per_s"] = train.rate()
        m["eval_obs_per_s"] = ev.rate()
        m["baskets_per_s"] = gen.rate()
        single = pred or gen
        m["predict_ms_p50"] = 1000.0 * single.p50()
        m["predict_ms_p99"] = 1000.0 * single.p99()
        self.generated, self.evaluated = gen.done, ev.done

        # quality from the first pass over each stream's jobs
        n = [len(ds) for ds in ev.jobs]
        if all(r is not None for r in ev.first):
            key = "test_f1_loss" if self.thresh else "test_ce"
            m[key] = sum(r * k for r, k in zip(ev.first, n)) / sum(n)
        test = self.splits[2].observations
        if self.thresh:
            observed = [(o.assortment, o.basket) for o in test]
        elif self.w.source == "bakery":
            preds = [p.basket if p is not None else frozenset() for p in gen.first]
            observed = [(o.assortment, o.basket) for o in test]
            m["test_f1_loss"] = I.f1_loss(preds, [b for _, b in observed])
        else:
            # one-item baskets: the F1 loss of the top choice is 1 - accuracy
            preds = [frozenset() if r is None else frozenset([r[0][int(np.argmax(r[1]))]])
                     for r in pred.first]
            observed = [(o.assortment, frozenset([o.choice])) for o in self.test_seq.observations]
            m["test_f1_loss"] = I.f1_loss(preds, [b for _, b in observed])
        if "test_ce" in m and not self.thresh:
            self._check_ce(m["test_ce"])
        if "test_f1_loss" in m:
            self._check_f1(m["test_f1_loss"], observed)

    def run(self):
        for name in ("setup", "train", "prepare"):
            with self.phase(name):
                getattr(self, name)()
        self.serve()
