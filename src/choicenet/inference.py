"""Prediction, evaluation metrics, and attention-score export."""

from __future__ import annotations

import copy
import csv
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from .data import (
    MULTI,
    SEQUENTIAL,
    SINGLE,
    ChoiceDataset,
    ChoiceObservation,
    ItemCatalog,
    PaddedBatch,
    pad_batch,
)
from . import model as M
from . import training as T
from .tensor import no_grad


def _obs_batch(catalog: ItemCatalog, C, S, context=None) -> PaddedBatch:
    obs = ChoiceObservation(
        kind=SEQUENTIAL,
        assortment=frozenset(S),
        candidates=frozenset(C),
        context=context,
    )
    return pad_batch(catalog, [obs])


# the most assortment encodings the memo keeps for the current model
MEMO_ENTRIES = 32


class _Snapshot:
    """A model's assortment-side parameters and config as they were when it
    was taken, and the encodings made from them, by (sorted items, padded
    features with the context), least recently used first."""

    def __init__(self, params, config):
        self.config = copy.copy(config)
        self.names = [k for k in params if k.startswith("assort.") or k.endswith(".cross.Wkv")]
        self.arrays = self._arrays(params)
        self.entries: OrderedDict[tuple, M.AssortmentCache] = OrderedDict()

    def _arrays(self, params) -> list[bytes]:
        return [params[k].data.tobytes() for k in self.names]

    def holds(self, params, config) -> bool:
        return config == self.config and self._arrays(params) == self.arrays


_snapshot: _Snapshot | None = None
_entries_lock = threading.Lock()


def _assortment_encoding(params, config, batch: PaddedBatch) -> M.AssortmentCache:
    """The encoding of the one (assortment, context) entry of ``batch``, from
    the memo when it holds an entry encoded from the same sorted items and
    the same padded features by the same config and assortment-side
    parameter bytes, else encoded here and kept. Any other config or
    parameter bytes (an optimizer step, an in-place write, another model)
    replace the snapshot, and with it every entry; at most ``MEMO_ENTRIES``
    entries are kept."""
    global _snapshot
    snap = _snapshot
    if snap is None or not snap.holds(params, config):
        snap = _snapshot = _Snapshot(params, config)
    key = (tuple(batch.assort_items[0]), batch.assort_features.tobytes())
    with _entries_lock:
        entry = snap.entries.get(key)
        if entry is not None:
            snap.entries.move_to_end(key)
            return entry
    entry = M.encode_assortment(batch, params, config)
    with _entries_lock:
        snap.entries[key] = entry
        if len(snap.entries) > MEMO_ENTRIES:
            snap.entries.popitem(last=False)
    return entry


def _candidate_probs(params, config, catalog: ItemCatalog, C, S, context=None):
    """(sorted candidate items, P(i | C, S)), scored against the memo's
    encoding of (S, context)."""
    batch = _obs_batch(catalog, C, S, context)
    cache = _assortment_encoding(params, config, batch)
    with no_grad():
        probs = M.forward(batch, params, config, cache=cache).probs[0]
    return sorted(C), probs[: len(C)]


def predict_sequential(params, config, catalog: ItemCatalog, C, S, context=None):
    """P(i | C, S) for each candidate; returns (sorted candidate items, probs)."""
    C, S = frozenset(C), frozenset(S)
    if not C:
        raise ValueError("empty candidate set")
    if not C <= S:
        raise ValueError("candidates must be a subset of the assortment")
    return _candidate_probs(params, config, catalog, C, S, context)


def assortment_utilities(params, config, catalog: ItemCatalog, S, context=None):
    """Raw decoder utilities u_i^S (C = S), for the threshold head."""
    S = sorted(frozenset(S))
    batch = _obs_batch(catalog, S, S, context)
    cache = _assortment_encoding(params, config, batch)
    with no_grad():
        u = M.forward_utilities(batch, params, config, cache=cache).data[0]
    return S, u[: len(S)]


def predict_threshold(params, config, catalog: ItemCatalog, S, mu: float, context=None):
    """Items whose sigmoid utility exceeds the threshold mu."""
    if not 0.0 < mu < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    items, u = assortment_utilities(params, config, catalog, S, context)
    sig = 1.0 / (1.0 + np.exp(-u))
    return frozenset(i for i, s in zip(items, sig) if s > mu)


@dataclass
class MultiPrediction:
    basket: frozenset[int]
    trace: list[tuple[int, float]] = field(default_factory=list)
    method: str = "greedy"


def generate_basket(
    params,
    config,
    catalog: ItemCatalog,
    S,
    method: str = "greedy",
    stop: tuple = ("fixed_size", 1),
    rng: np.random.Generator | None = None,
    context=None,
) -> MultiPrediction:
    """Iteratively choose from a shrinking candidate set starting at C = S.

    ``stop`` is ("fixed_size", k) or ("stop_item", item_index). Greedy ties
    break toward the lowest item index. Each step scores its candidate set
    against the memo's encoding of S, so S is encoded at most once.
    """
    S = frozenset(S)
    kind, arg = stop
    if kind == "fixed_size":
        if not 1 <= arg <= len(S):
            raise ValueError(f"fixed size {arg} invalid for |S|={len(S)}")
    elif kind == "stop_item":
        if arg not in S:
            raise ValueError("stop item must be offered in the assortment")
    else:
        raise ValueError(f"unknown stop rule {kind!r}")
    if method == "sample" and rng is None:
        raise ValueError("sampling requires an rng")

    chosen: list[tuple[int, float]] = []
    C = set(S)
    while C:
        items, probs = _candidate_probs(params, config, catalog, C, S, context)
        if method == "greedy":
            pick = items[int(np.argmax(probs))]  # argmax returns first max: lowest index
        elif method == "sample":
            pick = items[rng.choice(len(items), p=probs / probs.sum())]
        else:
            raise ValueError(f"unknown method {method!r}")
        p = probs[items.index(pick)]
        if kind == "stop_item" and pick == arg:
            break
        chosen.append((pick, float(p)))
        C.remove(pick)
        if kind == "fixed_size" and len(chosen) >= arg:
            break
        if kind == "stop_item" and C == {arg}:
            # only the stop item remains
            break
    return MultiPrediction(frozenset(i for i, _ in chosen), chosen, method)


def sample_baskets(
    params,
    config,
    catalog: ItemCatalog,
    S,
    n_samples: int,
    size: int,
    rng: np.random.Generator,
    context=None,
) -> list[frozenset]:
    """Monte Carlo draw of ``n_samples`` fixed-size baskets from one assortment.

    Matches ``generate_basket(method="sample")`` in distribution, but shares
    a single forward pass across all samples in the same candidate state, so
    large sample counts are cheap.
    """
    S = frozenset(S)
    if not 1 <= size <= len(S):
        raise ValueError(f"fixed size {size} invalid for |S|={len(S)}")
    states = [frozenset(S)] * n_samples
    baskets = [set() for _ in range(n_samples)]
    scored: dict[frozenset, tuple[list[int], np.ndarray]] = {}
    for _ in range(size):
        groups: dict[frozenset, list[int]] = {}
        for idx, C in enumerate(states):
            groups.setdefault(C, []).append(idx)
        for C, members in groups.items():
            if C not in scored:
                scored[C] = _candidate_probs(params, config, catalog, C, S, context)
            items, probs = scored[C]
            cum = np.cumsum(probs / probs.sum())
            picks = np.searchsorted(cum, rng.random(len(members)))
            for idx, k in zip(members, picks):
                item = items[int(k)]
                baskets[idx].add(item)
                states[idx] = states[idx] - {item}
    return [frozenset(b) for b in baskets]


def f1_loss(predicted: list[frozenset], actual: list[frozenset]) -> float:
    """1 - mean Dice overlap; empty-vs-empty pairs count as perfect (0 loss)."""
    if not actual:
        raise ValueError("f1_loss needs at least one sample")
    if len(predicted) != len(actual):
        raise ValueError("prediction/label counts differ")
    total = 0.0
    for bp, bt in zip(predicted, actual):
        if not bp and not bt:
            total += 1.0
            continue
        total += 2.0 * len(bp & bt) / (len(bp) + len(bt))
    return 1.0 - total / len(actual)


def _membership_probs(params, config, ds: ChoiceDataset):
    """Each basket's distinct row and the distinct rows' sigmoid utilities
    over their sorted assortment items (``training.dataset_utilities``): each
    distinct (assortment, context) of ``ds`` is scored once."""
    if ds.kind != MULTI:
        raise ValueError(f"task multi but dataset kind {ds.kind}")
    return T.dataset_utilities(ds, params, T.network_utilities(config), 256, T.basket_probs)


def _threshold_f1(membership, ds: ChoiceDataset, mu: float) -> float:
    """F1 loss of ``predict_threshold``'s baskets (items with sigmoid > mu),
    from ``_membership_probs``: each basket predicts its distinct row's
    items above ``mu``."""
    if not 0.0 < mu < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    index, probs = membership
    above = probs > mu
    preds = [frozenset(compress(items, above[k])) for items, k in zip(ds._rows.cand_items, index)]
    return f1_loss(preds, [obs.basket for obs in ds.observations])


def evaluate(params, config, ds: ChoiceDataset, task: str, mu: float = 0.5) -> dict:
    """CE for single/sequential tasks, F1 loss (thresholded) for multi. Each
    distinct row of ``ds`` is forwarded once, in batches of 256 distinct
    rows (``training.dataset_utilities``); each row keeps its own choice or
    basket."""
    if task in (SINGLE, SEQUENTIAL):
        if ds.kind != task:
            raise ValueError(f"task {task} but dataset kind {ds.kind}")
        nll = T.choice_nll(ds, params, T.network_utilities(config))
        return {"ce": float(np.mean(nll)), "per_sample": nll.tolist()}
    if task == MULTI:
        membership = _membership_probs(params, config, ds)
        return {"f1_loss": _threshold_f1(membership, ds, mu), "threshold": mu}
    raise ValueError(f"unknown task {task!r}")


def tune_threshold(params, config, val_ds: ChoiceDataset, grid=(0.1, 0.3, 0.5, 0.7, 0.9)):
    """Pick the threshold minimizing validation F1 loss; the utilities are
    computed once for the whole grid, each distinct (assortment, context) of
    ``val_ds`` scored once."""
    membership = _membership_probs(params, config, val_ds)
    best_mu, best_loss = None, np.inf
    for mu in grid:
        loss = _threshold_f1(membership, val_ds, mu)
        if loss < best_loss:
            best_mu, best_loss = mu, loss
    return best_mu, best_loss


# ---------------------------------------------------------------------------
# Attention export
# ---------------------------------------------------------------------------


def capture_attention(params, config, catalog: ItemCatalog, C, S, context=None):
    batch = _obs_batch(catalog, C, S, context)
    with no_grad():
        return M.forward(batch, params, config, capture_attention=True).records


def _full_matrix(record: M.AttentionRecord, catalog: ItemCatalog) -> np.ndarray:
    """Scores laid out on the full catalog grid; rows for absent items are 0."""
    n = catalog.item_count
    out = np.zeros((n, n))
    rows = record.row_items[0]
    cols = record.col_items[0]
    scores = record.scores[0]
    for r, item_r in enumerate(rows):
        for c, item_c in enumerate(cols):
            out[item_r, item_c] = scores[r, c]
    return out


def export_attention(
    params, config, catalog: ItemCatalog, C, S, out_dir, svg: bool = True, context=None
) -> list[str]:
    """One CSV (and optional SVG heatmap) per attention record."""
    records = capture_attention(params, config, catalog, C, S, context)
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for rec in records:
        matrix = _full_matrix(rec, catalog)
        stem = f"{rec.kind}_layer{rec.layer}_head{rec.head}"
        path = os.path.join(out_dir, stem + ".csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([""] + catalog.names)
            for i, name in enumerate(catalog.names):
                writer.writerow([name] + [f"{v:.10g}" for v in matrix[i]])
        written.append(path)
        if svg:
            svg_path = os.path.join(out_dir, stem + ".svg")
            _write_heatmap_svg(svg_path, matrix, catalog.names)
            written.append(svg_path)
    return written


CELL = 32  # px


def _write_heatmap_svg(path, matrix: np.ndarray, names: list[str]) -> None:
    n = len(names)
    margin = 90
    size = margin + n * CELL
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'font-family="monospace" font-size="10">'
    ]
    for i in range(n):
        for j in range(n):
            v = matrix[i, j]
            shade = int(round(255 * (1.0 - v)))
            parts.append(
                f'<rect x="{margin + j * CELL}" y="{margin + i * CELL}" '
                f'width="{CELL}" height="{CELL}" fill="rgb({shade},{shade},{shade})" '
                f'stroke="#888"/>'
            )
    for i, name in enumerate(names):
        y = margin + i * CELL + CELL // 2 + 3
        parts.append(f'<text x="2" y="{y}">{name[:10]}</text>')
        x = margin + i * CELL + CELL // 2
        parts.append(
            f'<text x="{x}" y="{margin - 6}" transform="rotate(-60 {x} {margin - 6})">'
            f"{name[:10]}</text>"
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))


def export_latent_features(params, config, catalog: ItemCatalog, S, out_path) -> None:
    """Assortment-encoder latent rows for the given assortment, as CSV."""
    items = sorted(frozenset(S))
    latents = _assortment_encoding(params, config, _obs_batch(catalog, S, S)).latents.data[0]
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["item"] + [f"z_{k}" for k in range(latents.shape[1])])
        for pos, item in enumerate(items):
            writer.writerow([catalog.names[item]] + [f"{v:.10g}" for v in latents[pos]])
