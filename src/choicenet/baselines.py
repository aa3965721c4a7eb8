"""Item-wise baseline choice models, trained by ``training.fit`` like the
network.

Both baselines score each item from its own feature row only (no assortment
interaction); the softmax over the candidates gives P(i | C, S):

* linear MNL:  u_i = w . x_i + b
* deep MNL:    u_i = W2 relu(W1 x_i + b1) + b2  (two-layer per-item MLP)

Train one with ``fit(init_baseline(config), baseline_utilities, splits,
train_config)`` and score it with ``dataset_loss(ds, params,
baseline_utilities)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor
from . import data as D
from .training import xavier_init


MNL = "mnl"
DEEP_MNL = "deep_mnl"


@dataclass
class BaselineConfig:
    kind: str
    input_dim: int
    hidden_dim: int = 32
    seed: int = 0


def init_baseline(config: BaselineConfig, rng: np.random.Generator | None = None):
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


def baseline_utilities(batch: D.PaddedBatch, params, training=False, rng=None) -> Tensor:
    """Per-item utilities over candidate positions (B x Cmax); the parameter
    names tell MNL from deep MNL, and neither uses ``training`` or ``rng``."""
    x = Tensor(batch.cand_features)
    if "w" in params:
        u = x.matmul(params["w"]).add_bias(params["b"])
    else:
        h = x.matmul(params["W1"]).add_bias(params["b1"]).relu()
        u = h.matmul(params["W2"]).add_bias(params["b2"])
    return u.reshape(*batch.cand_features.shape[:-1])
