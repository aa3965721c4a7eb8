"""Prediction, evaluation metrics, and attention-score export."""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

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
    pad_multi_batch,
)
from . import model as M
from .tensor import Tensor, no_grad
from .training import LOG_FLOOR


def _obs_batch(catalog: ItemCatalog, C, S, context=None) -> PaddedBatch:
    obs = ChoiceObservation(
        kind=SEQUENTIAL,
        assortment=frozenset(S),
        candidates=frozenset(C),
        choice=min(C),
        context=context,
    )
    return pad_batch(catalog, [obs])


def predict_sequential(params, config, catalog: ItemCatalog, C, S, context=None):
    """P(i | C, S) for each candidate; returns (sorted candidate items, probs)."""
    C, S = frozenset(C), frozenset(S)
    if not C:
        raise ValueError("empty candidate set")
    if not C <= S:
        raise ValueError("candidates must be a subset of the assortment")
    batch = _obs_batch(catalog, C, S, context)
    with no_grad():
        probs = M.forward(batch, params, config).probs[0]
    return sorted(C), probs[: len(C)]


def predict_single(params, config, catalog: ItemCatalog, S, context=None):
    """Single-choice prediction via the C = S reduction."""
    return predict_sequential(params, config, catalog, S, S, context)


def assortment_utilities(params, config, catalog: ItemCatalog, S, context=None):
    """Raw decoder utilities u_i^S (C = S), for the threshold head."""
    S = sorted(frozenset(S))
    obs = ChoiceObservation(
        kind=MULTI, assortment=frozenset(S), basket=frozenset([S[0]]), context=context
    )
    batch = pad_multi_batch(catalog, [obs])
    with no_grad():
        u = M.forward_utilities(batch, params, config).data[0]
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
    break toward the lowest item index.
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
        items, probs = predict_sequential(params, config, catalog, C, S, context)
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

    Matches ``generate_basket(method="sample")`` in distribution, but shares a
    single forward pass across all samples in the same candidate state, so
    large sample counts are cheap.
    """
    S = frozenset(S)
    if not 1 <= size <= len(S):
        raise ValueError(f"fixed size {size} invalid for |S|={len(S)}")
    states = [frozenset(S)] * n_samples
    baskets = [set() for _ in range(n_samples)]
    cache: dict[frozenset, tuple[list[int], np.ndarray]] = {}
    for _ in range(size):
        groups: dict[frozenset, list[int]] = {}
        for idx, C in enumerate(states):
            groups.setdefault(C, []).append(idx)
        for C, members in groups.items():
            if C not in cache:
                cache[C] = predict_sequential(params, config, catalog, C, S, context)
            items, probs = cache[C]
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


def evaluate(params, config, ds: ChoiceDataset, task: str, mu: float = 0.5) -> dict:
    """CE for single/sequential tasks, F1 loss (thresholded) for multi."""
    if task in (SINGLE, SEQUENTIAL):
        if ds.kind != task:
            raise ValueError(f"task {task} but dataset kind {ds.kind}")
        from .data import single_to_sequential

        seq = single_to_sequential(ds) if ds.kind == SINGLE else ds
        per_sample = []
        for obs in seq.observations:
            items, probs = predict_sequential(
                params, config, ds.catalog, obs.candidates, obs.assortment, obs.context
            )
            p = probs[items.index(obs.choice)]
            per_sample.append(-np.log(max(p, LOG_FLOOR)))
        return {"ce": float(np.mean(per_sample)), "per_sample": per_sample}
    if task == MULTI:
        if ds.kind != MULTI:
            raise ValueError(f"task multi but dataset kind {ds.kind}")
        preds = [
            predict_threshold(params, config, ds.catalog, obs.assortment, mu, obs.context)
            for obs in ds.observations
        ]
        actual = [obs.basket for obs in ds.observations]
        return {"f1_loss": f1_loss(preds, actual), "threshold": mu}
    raise ValueError(f"unknown task {task!r}")


def tune_threshold(params, config, val_ds: ChoiceDataset, grid=(0.1, 0.3, 0.5, 0.7, 0.9)):
    """Pick the threshold minimizing validation F1 loss."""
    best_mu, best_loss = None, np.inf
    for mu in grid:
        loss = evaluate(params, config, val_ds, MULTI, mu=mu)["f1_loss"]
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
    batch = _obs_batch(catalog, S, S)
    ctx = M._Ctx(params, config, False, None, False, batch)
    with no_grad():
        latents = M._assortment_encoder(
            ctx, Tensor(batch.assort_features), batch.assort_mask, batch.assort_items
        ).data[0]
    items = batch.assort_items[0]
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["item"] + [f"z_{k}" for k in range(latents.shape[1])])
        for pos, item in enumerate(items):
            writer.writerow([catalog.names[item]] + [f"{v:.10g}" for v in latents[pos]])
