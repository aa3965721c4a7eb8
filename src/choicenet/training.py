"""Losses, optimizer, and the training/grid-search loops."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor, no_grad
from . import data as D
from . import model as M

LOG_FLOOR = 1e-12


class DivergedError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


@dataclass
class LossStats:
    clamped_labels: int = 0


def ce_loss(probs: Tensor, labels: np.ndarray, stats: LossStats | None = None) -> Tensor:
    """Mean negative log-probability of the labeled candidate positions.

    ``labels`` holds the candidate-axis position of the choice per row.
    Probabilities below the floor are clamped inside the log.
    """
    B, C = probs.shape
    onehot = np.zeros((B, C))
    onehot[np.arange(B), labels] = 1.0
    picked = probs.data[np.arange(B), labels]
    if stats is not None:
        stats.clamped_labels += int((picked < LOG_FLOOR).sum())
    logp = probs.log(floor=LOG_FLOOR) * Tensor(onehot)
    return logp.sum().scale(-1.0 / B)


def independent_ce_loss(
    utilities: Tensor, chosen_mask: np.ndarray, valid_mask: np.ndarray
) -> Tensor:
    """Mean binary cross-entropy of sigmoid(u_i) against basket membership,
    over valid (unpadded) assortment positions."""
    y = np.asarray(chosen_mask, dtype=np.float64)
    v = np.asarray(valid_mask, dtype=np.float64)
    n_valid = v.sum()
    s = utilities.sigmoid()
    pos = s.log(floor=LOG_FLOOR) * Tensor(y * v)
    neg = (s.scale(-1.0).shift(1.0)).log(floor=LOG_FLOOR) * Tensor((1.0 - y) * v)
    return (pos + neg).sum().scale(-1.0 / n_valid)


def uniform_ce(batch_candidate_counts) -> float:
    return float(np.mean([np.log(c) for c in batch_candidate_counts]))


# ---------------------------------------------------------------------------
# Initialization and optimizer
# ---------------------------------------------------------------------------


def xavier_init(shape: tuple, rng: np.random.Generator) -> Tensor:
    """Uniform Xavier on [-sqrt(6/(fan_in+fan_out)), +...] for 2-D shapes."""
    if len(shape) != 2:
        raise ValueError(f"xavier_init expects a 2-D shape, got {shape}")
    bound = np.sqrt(6.0 / (shape[0] + shape[1]))
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


class Adam:
    """Standard Adam with bias correction over a named parameter dict."""

    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self) -> None:
        self.t += 1
        for k, p in self.params.items():
            g = p.grad
            if not np.all(np.isfinite(g)):
                raise DivergedError(f"non-finite gradient in parameter {k!r}")
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            self.m[k] = self.beta1 * self.m[k] + (1 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1 - self.beta2) * g * g
            m_hat = self.m[k] / (1 - self.beta1 ** self.t)
            v_hat = self.v[k] / (1 - self.beta2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainConfig:
    initial_lr: float = 0.001
    lr_decay: float = 0.95
    decay_every: int = 10
    epochs: int = 100
    batch_size: int = 256
    seed: int = 0
    weight_decay: float = 0.0
    # expanded-sample threshold past which epochs are halved to 50
    desk_scale_limit: int = 50_000
    # grids for grid_search
    lr_grid: tuple = (0.001, 0.0005, 0.0001)
    hidden_grid: tuple = (32, 128, 256)
    heads_grid: tuple = (4, 8, 16, 32)
    threshold_grid: tuple = (0.1, 0.3, 0.5, 0.7, 0.9)

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        for grid in (self.lr_grid, self.hidden_grid, self.heads_grid, self.threshold_grid):
            if not grid:
                raise ValueError("grids must be nonempty")

    def lr_at(self, epoch: int) -> float:
        return self.initial_lr * self.lr_decay ** (epoch // self.decay_every)


@dataclass
class TrainReport:
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    best_epoch: int = -1
    test_metrics: dict = field(default_factory=dict)
    wall_clock: float = 0.0
    clamped_labels: int = 0

    def to_text(self) -> str:
        lines = ["epoch\ttrain_loss\tval_loss"]
        for e, (tr, va) in enumerate(zip(self.train_losses, self.val_losses)):
            lines.append(f"{e}\t{tr:.6f}\t{va:.6f}")
        lines.append(f"best_epoch\t{self.best_epoch}")
        for k, v in self.test_metrics.items():
            lines.append(f"test_{k}\t{v}")
        lines.append(f"wall_clock_s\t{self.wall_clock:.2f}")
        return "\n".join(lines) + "\n"


def _epoch_train_data(train: D.ChoiceDataset, rng: np.random.Generator) -> D.ChoiceDataset:
    # multi baskets get a fresh random ordering each epoch
    if train.kind == D.MULTI:
        return D.multi_to_sequential(train, rng)
    return train


def dataset_ce(
    ds: D.ChoiceDataset, params, config: M.TCNetConfig, batch_size: int = 256
) -> float:
    total, count = 0.0, 0
    for batch in D.make_batches(ds, batch_size, shuffle=False):
        with no_grad():
            res = M.forward(batch, params, config, training=False)
        picked = res.probs[np.arange(batch.size), batch.labels]
        total += -np.log(np.maximum(picked, LOG_FLOOR)).sum()
        count += batch.size
    return total / count


def dataset_binary_ce(
    ds: D.ChoiceDataset, params, config: M.TCNetConfig, batch_size: int = 256
) -> float:
    total, count = 0.0, 0
    for batch in D.make_batches(ds, batch_size, shuffle=False):
        with no_grad():
            u = M.forward_utilities(batch, params, config).data
        s = 1.0 / (1.0 + np.exp(-u))
        y = batch.label_mask.astype(float)
        v = batch.assort_mask
        bce = -(y * np.log(np.maximum(s, LOG_FLOOR)) + (1 - y) * np.log(np.maximum(1 - s, LOG_FLOOR)))
        total += bce[v].sum()
        count += int(v.sum())
    return total / count


def train(
    model_config: M.TCNetConfig,
    splits: tuple[D.ChoiceDataset, D.ChoiceDataset, D.ChoiceDataset],
    train_config: TrainConfig,
    objective: str = "ce",
) -> tuple[dict[str, Tensor], TrainReport]:
    """Run the full training protocol and return the best-validation params.

    ``objective`` is "ce" (sequential CE over candidates) or "binary_ce"
    (independent per-item CE for the threshold/multi head).
    """
    t0 = time.time()
    train_ds, val_ds, _ = splits
    rng = np.random.default_rng(train_config.seed)

    if train_ds.kind == D.SINGLE:
        train_ds = D.single_to_sequential(train_ds)
    if val_ds.kind == D.SINGLE:
        val_ds = D.single_to_sequential(val_ds)
    # validation expansion fixed once per run for stable metrics
    if val_ds.kind == D.MULTI and objective == "ce":
        val_ds = D.multi_to_sequential(val_ds, np.random.default_rng(train_config.seed + 1))

    epochs = train_config.epochs
    approx_expanded = len(train_ds)
    if train_ds.kind == D.MULTI and objective == "ce":
        mean_basket = np.mean([len(o.basket) for o in train_ds.observations])
        approx_expanded = int(len(train_ds) * mean_basket)
    if approx_expanded > train_config.desk_scale_limit:
        epochs = min(epochs, 50)

    params = M.init_params(model_config, np.random.default_rng(model_config.seed))
    opt = Adam(params, lr=train_config.initial_lr, weight_decay=train_config.weight_decay)
    stats = LossStats()
    report = TrainReport()
    best_val = np.inf
    best_params = None

    for epoch in range(epochs):
        opt.lr = train_config.lr_at(epoch)
        if objective == "ce":
            epoch_ds = _epoch_train_data(train_ds, rng)
        else:
            epoch_ds = train_ds
        epoch_loss, n_batches = 0.0, 0
        for batch in D.make_batches(epoch_ds, train_config.batch_size, rng, shuffle=True):
            opt.zero_grad()
            if objective == "ce":
                res = M.forward(batch, params, model_config, training=True, rng=rng)
                loss = ce_loss(res.loss_input, batch.labels, stats)
            else:
                u = M.forward_utilities(batch, params, model_config, training=True, rng=rng)
                loss = independent_ce_loss(u, batch.label_mask, batch.assort_mask)
            loss.backward()
            opt.step()
            epoch_loss += loss.item()
            n_batches += 1
        report.train_losses.append(epoch_loss / n_batches)

        if objective == "ce":
            val = dataset_ce(val_ds, params, model_config, train_config.batch_size)
        else:
            val = dataset_binary_ce(val_ds, params, model_config, train_config.batch_size)
        if not np.isfinite(val):
            raise DivergedError(f"validation loss diverged at epoch {epoch}")
        report.val_losses.append(val)
        if val < best_val:
            best_val = val
            report.best_epoch = epoch
            best_params = {k: Tensor(p.data.copy(), requires_grad=True) for k, p in params.items()}

    report.clamped_labels = stats.clamped_labels
    report.wall_clock = time.time() - t0
    return best_params, report


def grid_search(
    model_config: M.TCNetConfig,
    splits,
    train_config: TrainConfig,
    hidden_grid=None,
    heads_grid=None,
    lr_grid=None,
    objective: str = "ce",
):
    """Train every grid cell; return (best model config, best train config,
    best params, best report) by validation objective."""
    hidden_grid = hidden_grid or train_config.hidden_grid
    heads_grid = heads_grid or train_config.heads_grid
    lr_grid = lr_grid or train_config.lr_grid
    best = None
    failures = []
    for dv in hidden_grid:
        for h in heads_grid:
            for lr in lr_grid:
                mc = M.TCNetConfig(
                    **{
                        **model_config.__dict__,
                        "hidden_dim": dv,
                        "n_heads": h,
                    }
                )
                tc = TrainConfig(**{**train_config.__dict__, "initial_lr": lr})
                try:
                    params, report = train(mc, splits, tc, objective=objective)
                except DivergedError as exc:
                    failures.append((dv, h, lr, str(exc)))
                    continue
                val = report.val_losses[report.best_epoch]
                if best is None or val < best[0]:
                    best = (val, mc, tc, params, report)
    if best is None:
        raise DivergedError(f"all grid cells diverged: {failures}")
    return best[1], best[2], best[3], best[4]
