"""Losses, optimizer, the one training loop with grid search over it, and
the one batched evaluator."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .tensor import NonFiniteError, Tensor, no_grad
from . import data as D
from . import model as M

LOG_FLOOR = 1e-12
LR_DECAY = 0.95  # learning-rate factor every ``TrainConfig.decay_every`` epochs
# expanded-sample count past which epochs are capped at 50
DESK_SCALE_LIMIT = 50_000
# grid_search's default grids
LR_GRID = (0.001, 0.0005, 0.0001)
HIDDEN_GRID = (32, 128, 256)
HEADS_GRID = (4, 8, 16, 32)


class DivergedError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


@dataclass
class LossStats:
    clamped_labels: int = 0


def ce_loss(probs: Tensor, counts: np.ndarray, stats: LossStats | None = None) -> Tensor:
    """Mean negative log-probability of the chosen candidate positions:
    -sum(W * log p) / B.

    ``probs`` has one row per distinct row of a batch, and ``counts``
    (W, the same shape) holds how many of the batch's B rows of each
    distinct row chose each candidate position; B is its sum. A batch with
    no repeated row has a one-hot W. Probabilities below the floor are
    clamped inside the log, and ``stats`` counts each clamped choice once
    for every row that made it.
    """
    if stats is not None:
        stats.clamped_labels += int(counts[probs.data < LOG_FLOOR].sum())
    logp = probs.log(floor=LOG_FLOOR) * Tensor(counts)
    return logp.sum().scale(-1.0 / counts.sum())


def independent_ce_loss(
    utilities: Tensor, chosen_counts: np.ndarray, valid_counts: np.ndarray
) -> Tensor:
    """Mean binary cross-entropy of sigmoid(u_i) against basket membership,
    over valid (unpadded) assortment positions.

    ``utilities`` has one row per distinct row of a batch; for each,
    ``chosen_counts`` sums its rows' basket masks and ``valid_counts`` their
    valid masks. Each position's positive term is weighted by the rows that
    hold it in their basket, its negative term by the other valid rows, and
    the mean is over every row's valid positions. With no repeated row the
    counts are the masks themselves."""
    y = np.asarray(chosen_counts, dtype=np.float64)
    v = np.asarray(valid_counts, dtype=np.float64)
    s = utilities.sigmoid()
    pos = s.log(floor=LOG_FLOOR) * Tensor(y)
    neg = (s.scale(-1.0).shift(1.0)).log(floor=LOG_FLOOR) * Tensor(v - y)
    return (pos + neg).sum().scale(-1.0 / v.sum())


def objective_loss(
    objective: str, u: Tensor, mask, rows, chosen, stats: LossStats | None = None
) -> Tensor:
    """The loss of ``objective`` (``ce_loss`` or ``independent_ce_loss``)
    on the utilities ``u`` and candidate mask ``mask`` of D distinct rows,
    with their row counts ``rows`` and count matrix ``chosen`` (as in a
    ``data.CountedBatch``); the mean is over the rows they stand for."""
    if objective == "ce":
        return ce_loss(u.masked_softmax(mask), chosen, stats)
    return independent_ce_loss(u, chosen, rows[:, None] * mask)


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
    """Standard Adam with bias correction over a named parameter dict.

    The moments are two flat vectors holding every parameter in dict order,
    so a step runs each elementwise update once over all parameters."""

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
        self._slices, size = [], 0  # each parameter's slice of the flat vectors
        for p in params.values():
            self._slices.append(slice(size, size + p.data.size))
            size += p.data.size
        self.m = np.zeros(size)
        self.v = np.zeros(size)

    def step(self) -> None:
        params = list(self.params.values())
        g = np.concatenate([p.grad.ravel() for p in params])
        if not np.isfinite(g).all():
            bad = [k for k, p in self.params.items() if not np.isfinite(p.grad).all()]
            shown = ", ".join(map(repr, bad[:3])) + (", ..." if len(bad) > 3 else "")
            raise DivergedError(
                f"non-finite gradient in {len(bad)} of {len(params)} parameters ({shown})"
            )
        self.t += 1
        if self.weight_decay:
            w = np.concatenate([p.data.ravel() for p in params])
            w *= self.weight_decay
            g += w
            del w
        # the textbook expressions, operation for operation, computed in
        # place: g becomes lr * m_hat and g2 the denominator, so a step holds
        # two vectors besides the moments (backward() has freed the graph)
        g2 = (1 - self.beta2) * g
        g2 *= g
        g *= 1 - self.beta1
        self.m *= self.beta1
        self.m += g
        self.v *= self.beta2
        self.v += g2
        np.divide(self.m, 1 - self.beta1 ** self.t, out=g)
        np.divide(self.v, 1 - self.beta2 ** self.t, out=g2)
        np.sqrt(g2, out=g2)
        g2 += self.eps
        g *= self.lr
        g /= g2
        for p, sl in zip(params, self._slices):
            p.data -= g[sl].reshape(p.data.shape)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainConfig:
    initial_lr: float = 0.001
    decay_every: int = 10
    epochs: int = 100
    batch_size: int = 256
    seed: int = 0
    weight_decay: float = 0.0

    def __post_init__(self):
        # 0 is allowed: it trains nothing, which tests use to check the loop
        if not self.initial_lr >= 0:
            raise ValueError(f"initial_lr must be >= 0, got {self.initial_lr}")
        if not self.weight_decay >= 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.decay_every < 1:
            raise ValueError(f"decay_every must be >= 1, got {self.decay_every}")

    def lr_at(self, epoch: int) -> float:
        return self.initial_lr * LR_DECAY ** (epoch // self.decay_every)


@dataclass
class TrainReport:
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    best_epoch: int = -1
    test_metrics: dict = field(default_factory=dict)
    wall_clock: float = 0.0
    clamped_labels: int = 0
    epochs_requested: int = 0  # before the cap past DESK_SCALE_LIMIT

    @property
    def epochs_run(self) -> int:
        return len(self.train_losses)

    def to_text(self) -> str:
        lines = ["epoch\ttrain_loss\tval_loss"]
        for e, (tr, va) in enumerate(zip(self.train_losses, self.val_losses)):
            lines.append(f"{e}\t{tr:.6f}\t{va:.6f}")
        lines.append(f"best_epoch\t{self.best_epoch}")
        for k, v in self.test_metrics.items():
            lines.append(f"test_{k}\t{v}")
        lines.append(f"wall_clock_s\t{self.wall_clock:.2f}")
        capped = self.epochs_requested > self.epochs_run
        lines.append(
            f"epochs_run\t{self.epochs_run}"
            + (f" of {self.epochs_requested} requested (capped past "
               f"{DESK_SCALE_LIMIT} samples an epoch)" if capped else "")
        )
        lines.append(f"clamped_labels\t{self.clamped_labels}")
        return "\n".join(lines) + "\n"


def network_utilities(config: M.TCNetConfig):
    """The network as a model's utilities function
    ``(batch, params, training, rng) -> B x Cmax Tensor``."""

    def utilities(batch, params, training=False, rng=None):
        return M.forward_utilities(batch, params, config, training, rng)

    return utilities


def dataset_utilities(ds: D.ChoiceDataset, params, utilities, batch_size: int, score):
    """Score each distinct row of ``ds`` once, without recording a graph.

    Rows with the same ``key`` in the dataset's row index (the same sorted
    candidates and the same (assortment, context) entry) read the same
    inputs. The first row of each key, in order of first appearance, is
    forwarded, ``batch_size`` of them per forward, and ``score(batch, u)``
    turns each forward's B x Cmax utilities into per-position scores, such
    as the softmax over the batch's candidates. A dataset without repeated
    rows is forwarded in order, ``batch_size`` rows at a time.

    Returns ``(index, scores)``: each row's distinct row, and the distinct
    rows' scores, one row each over the dataset's widest candidate set, 0 at
    every padded position."""
    rows = ds._rows
    index, firsts = rows.distinct
    scores = np.zeros((len(firsts), rows.cand.shape[1]))
    for start in range(0, len(firsts), batch_size):
        batch = rows.take(firsts[start : start + batch_size]).batch()
        with no_grad():
            s = score(batch, utilities(batch, params, False, None))
        scores[start : start + batch.size, : s.shape[1]] = np.where(batch.cand_mask, s, 0.0)
    return index, scores


def choice_probs(batch: D.PaddedBatch, utilities: Tensor) -> np.ndarray:
    """P(i | C, S) per row: the softmax of ``utilities`` over the candidates."""
    return utilities.masked_softmax(batch.cand_mask).data


def basket_probs(batch: D.PaddedBatch, utilities: Tensor) -> np.ndarray:
    """The sigmoid of each utility: P(i in basket | S) for the threshold head."""
    return 1.0 / (1.0 + np.exp(-utilities.data))


def choice_nll(ds: D.ChoiceDataset, params, utilities, batch_size: int = 256) -> np.ndarray:
    """-log P(choice | C, S) per row of ``ds``, its distinct row's
    ``choice_probs`` at its choice, floored at ``LOG_FLOOR``."""
    labels = ds._rows.labels
    if labels is None:
        raise D.DataError(f"ce needs a choice in every row; the dataset is {ds.kind}")
    index, probs = dataset_utilities(ds, params, utilities, batch_size, choice_probs)
    return -np.log(np.maximum(probs[index, labels], LOG_FLOOR))


def dataset_loss(
    ds: D.ChoiceDataset, params, utilities, objective: str = "ce", batch_size: int = 256
) -> float:
    """Mean loss of a model over ``ds``, per observation for "ce", per valid
    assortment position for "binary_ce": the training step's loss
    (``objective_loss``) with the whole dataset as one counted batch, each
    distinct row scored once (``dataset_utilities``)."""
    rows = ds._rows
    if (rows.labels if objective == "ce" else rows.baskets) is None:
        what = "a choice" if objective == "ce" else "a basket"
        raise D.DataError(f"{objective} needs {what} in every row; the dataset is {ds.kind}")
    index, u = dataset_utilities(ds, params, utilities, batch_size, lambda batch, u: u.data)
    last = np.empty(len(u), dtype=np.intp)
    last[index] = np.arange(len(index))  # a row of each distinct row, for its mask
    mask = rows.cand[last] != ds.catalog.item_count
    chosen = rows.chosen(slice(None), index, u.shape)
    with no_grad():
        return objective_loss(objective, Tensor(u), mask, np.bincount(index), chosen).item()


def dataset_ce(
    ds: D.ChoiceDataset, params, config: M.TCNetConfig, batch_size: int = 256
) -> float:
    """The network's mean sequential CE over ``ds``."""
    return dataset_loss(ds, params, network_utilities(config), "ce", batch_size)


def fit(
    params: dict[str, Tensor],
    utilities,
    splits: tuple[D.ChoiceDataset, D.ChoiceDataset, D.ChoiceDataset],
    train_config: TrainConfig,
    objective: str = "ce",
) -> tuple[dict[str, Tensor], TrainReport]:
    """The training protocol for any model, given as its initial ``params``
    (updated in place) and its ``utilities(batch, params, training, rng)``:
    shuffled epochs, decayed Adam, best-validation selection. Returns a copy
    of the best-validation params and the report.

    ``objective`` is "ce" (sequential CE over candidates) or "binary_ce"
    (independent per-item CE for the threshold/multi head).

    The splits are trained as given. Under "ce" a basket train set is
    expanded in a fresh random order every epoch, and a basket validation
    set must come expanded once (``data.reduce_split``); "binary_ce" needs
    basket train and validation sets.

    Each step forwards and back-propagates a shuffled batch's distinct rows
    (``data.make_batches``), once each, and weights the loss by how many of
    the batch's rows each stands for and what they chose; the mean is still
    over the batch's rows. Rows that share a forward share its dropout
    masks. A non-finite value in a step or a validation pass raises
    ``DivergedError`` naming the op or parameter, the epoch and the batch.
    Past ``DESK_SCALE_LIMIT`` samples an epoch, at most 50 epochs run; the
    report records the epochs run and requested.
    """
    if objective not in ("ce", "binary_ce"):
        raise ValueError(f"unknown objective {objective!r}")
    t0 = time.time()
    train_ds, val_ds, _ = splits
    if objective == "ce" and val_ds.kind == D.MULTI:
        raise D.DataError(
            "ce validates on sequential rows: expand the basket validation set "
            "once with data.reduce_split"
        )
    if objective == "binary_ce" and not train_ds.kind == val_ds.kind == D.MULTI:
        raise D.DataError(
            f"binary_ce needs basket train and validation sets, got {train_ds.kind} "
            f"and {val_ds.kind}"
        )
    rng = np.random.default_rng(train_config.seed)

    expand = train_ds.kind == D.MULTI and objective == "ce"
    epochs = train_config.epochs
    approx_expanded = len(train_ds)
    if expand:
        mean_basket = np.mean([len(o.basket) for o in train_ds.observations])
        approx_expanded = int(len(train_ds) * mean_basket)
    if approx_expanded > DESK_SCALE_LIMIT:
        epochs = min(epochs, 50)

    opt = Adam(params, lr=train_config.initial_lr, weight_decay=train_config.weight_decay)
    stats = LossStats()
    report = TrainReport(epochs_requested=train_config.epochs)
    best_val = np.inf
    best_params = None

    for epoch in range(epochs):
        opt.lr = train_config.lr_at(epoch)
        epoch_ds = D.multi_to_sequential(train_ds, rng) if expand else train_ds
        epoch_loss = 0.0
        batches = D.make_batches(epoch_ds, train_config.batch_size, rng, shuffle=True)
        for b, counted in enumerate(batches):
            batch = counted.batch
            try:
                opt.zero_grad()
                u = utilities(batch, params, True, rng)
                loss = objective_loss(
                    objective, u, batch.cand_mask, counted.rows, counted.chosen, stats
                )
                loss.backward()
                opt.step()
            except (NonFiniteError, DivergedError) as exc:
                raise DivergedError(f"{exc} at epoch {epoch}, batch {b}") from exc
            epoch_loss += loss.item()
        report.train_losses.append(epoch_loss / (b + 1))

        try:
            val = dataset_loss(val_ds, params, utilities, objective, train_config.batch_size)
        except NonFiniteError as exc:
            raise DivergedError(f"{exc} in validation at epoch {epoch}") from exc
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


def train(
    model_config: M.TCNetConfig,
    splits: tuple[D.ChoiceDataset, D.ChoiceDataset, D.ChoiceDataset],
    train_config: TrainConfig,
    objective: str = "ce",
) -> tuple[dict[str, Tensor], TrainReport]:
    """Train the network from its seeded initialization with ``fit`` and
    return the best-validation params."""
    params = M.init_params(model_config, np.random.default_rng(model_config.seed))
    return fit(params, network_utilities(model_config), splits, train_config, objective)


def grid_search(
    model_config: M.TCNetConfig,
    splits,
    train_config: TrainConfig,
    hidden_grid=HIDDEN_GRID,
    heads_grid=HEADS_GRID,
    lr_grid=LR_GRID,
    objective: str = "ce",
):
    """Train every grid cell; return (best model config, best train config,
    best params, best report) by validation objective."""
    if not (hidden_grid and heads_grid and lr_grid):
        raise ValueError("hidden_grid, heads_grid and lr_grid must be nonempty")
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
