"""Item-wise baseline choice models trained under the same pipeline.

Both baselines score each item from its own feature row only (no assortment
interaction) and softmax over the candidates:

* linear MNL:  u_i = w . x_i + b
* deep MNL:    u_i = W2 relu(W1 x_i + b1) + b2  (two-layer per-item MLP)
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, no_grad
from . import data as D
from .training import Adam, LossStats, TrainConfig, TrainReport, ce_loss, LOG_FLOOR, DivergedError


MNL = "mnl"
DEEP_MNL = "deep_mnl"


@dataclass
class BaselineConfig:
    kind: str
    input_dim: int
    hidden_dim: int = 32
    seed: int = 0


def init_baseline(config: BaselineConfig, rng: np.random.Generator | None = None):
    from .training import xavier_init

    if rng is None:
        rng = np.random.default_rng(config.seed)
    d, dv = config.input_dim, config.hidden_dim
    if config.kind == MNL:
        return {
            "w": xavier_init((d, 1), rng),
            "b": Tensor(np.zeros(1), requires_grad=True),
        }
    if config.kind == DEEP_MNL:
        return {
            "W1": xavier_init((d, dv), rng),
            "b1": Tensor(np.zeros(dv), requires_grad=True),
            "W2": xavier_init((dv, 1), rng),
            "b2": Tensor(np.zeros(1), requires_grad=True),
        }
    raise ValueError(f"unknown baseline kind {config.kind!r}")


def baseline_forward(batch: D.PaddedBatch, params, config: BaselineConfig) -> Tensor:
    """Probabilities over candidate positions (masked softmax of item scores)."""
    x = Tensor(batch.cand_features)
    if config.kind == MNL:
        u = x.matmul(params["w"]).add_bias(params["b"])
    else:
        h = x.matmul(params["W1"]).add_bias(params["b1"]).relu()
        u = h.matmul(params["W2"]).add_bias(params["b2"])
    u = u.reshape(*batch.cand_features.shape[:-1])
    return u.masked_softmax(batch.cand_mask)


def baseline_dataset_ce(ds: D.ChoiceDataset, params, config, batch_size: int = 256) -> float:
    total, count = 0.0, 0
    for batch in D.make_batches(ds, batch_size, shuffle=False):
        with no_grad():
            probs = baseline_forward(batch, params, config).data
        picked = probs[np.arange(batch.size), batch.labels]
        total += -np.log(np.maximum(picked, LOG_FLOOR)).sum()
        count += batch.size
    return total / count


def train_baseline(
    config: BaselineConfig,
    splits: tuple[D.ChoiceDataset, D.ChoiceDataset, D.ChoiceDataset],
    train_config: TrainConfig,
):
    """Same protocol as the main trainer: shuffled epochs, decayed Adam,
    best-validation selection."""
    t0 = time.time()
    train_ds, val_ds, _ = splits
    rng = np.random.default_rng(train_config.seed)
    if train_ds.kind == D.SINGLE:
        train_ds = D.single_to_sequential(train_ds)
    if val_ds.kind == D.SINGLE:
        val_ds = D.single_to_sequential(val_ds)

    params = init_baseline(config)
    opt = Adam(params, lr=train_config.initial_lr, weight_decay=train_config.weight_decay)
    report = TrainReport()
    stats = LossStats()
    best_val, best_params = np.inf, None

    epochs = train_config.epochs
    if len(train_ds) > train_config.desk_scale_limit:
        epochs = min(epochs, 50)

    for epoch in range(epochs):
        opt.lr = train_config.lr_at(epoch)
        epoch_loss, n_batches = 0.0, 0
        for batch in D.make_batches(train_ds, train_config.batch_size, rng, shuffle=True):
            opt.zero_grad()
            probs = baseline_forward(batch, params, config)
            loss = ce_loss(probs, batch.labels, stats)
            loss.backward()
            opt.step()
            epoch_loss += loss.item()
            n_batches += 1
        report.train_losses.append(epoch_loss / n_batches)
        val = baseline_dataset_ce(val_ds, params, config, train_config.batch_size)
        if not np.isfinite(val):
            raise DivergedError(f"baseline validation diverged at epoch {epoch}")
        report.val_losses.append(val)
        if val < best_val:
            best_val = val
            report.best_epoch = epoch
            best_params = {k: Tensor(p.data.copy(), requires_grad=True) for k, p in params.items()}
    report.clamped_labels = stats.clamped_labels
    report.wall_clock = time.time() - t0
    return best_params, report
