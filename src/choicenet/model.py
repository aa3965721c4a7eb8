"""Transformer-based choice network.

Two encoders over padded item-feature batches: the assortment encoder embeds
assortment interactions into latent rows, the candidates encoder additionally
cross-attends over those latents; a shared per-item decoder maps latents to
scalar utilities whose masked softmax over the candidates gives P(i | C, S).

The assortment side (latents and the cross-attention K/V) depends on S and
the context only, so every forward computes it once per distinct
(assortment, context) pair of its batch, in training too, and gathers it to
the rows; ``encode_assortment`` keeps it so that ``forward`` can score any
number of candidate sets against it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from .tensor import (
    ONE_PLUS_RELU,
    SOFTMAX,
    ShapeError,
    Tensor,
    attention_heads,
    concat,
    no_grad,
    take,
)
from .data import PaddedBatch


@dataclass
class TCNetConfig:
    input_dim: int
    hidden_dim: int = 32
    n_layers: int = 1
    n_heads: int = 4
    dropout_rate: float = 0.1
    use_embedding: bool = True
    use_layer_norm: bool = True
    use_residual: bool = True
    attention_activation: str = SOFTMAX
    scale_scores: bool = True
    seed: int = 0
    # hidden widths of extra decoder layers; empty = single linear map
    decoder_dims: tuple = ()
    # per-sublayer overrides (None = fall back to the global setting); these
    # exist so exact constructions with mixed activations can be expressed
    assort_attn_activation: str | None = None
    assort_attn_residual: bool | None = None
    cand_attn_activation: str | None = None
    cand_attn_residual: bool | None = None
    cross_activation: str | None = None
    cross_residual: bool | None = None

    def __post_init__(self):
        for size in ("hidden_dim", "n_heads", "n_layers"):
            if getattr(self, size) < 1:
                raise ValueError(f"{size} must be >= 1, got {getattr(self, size)}")
        if self.hidden_dim % self.n_heads:
            raise ValueError("hidden_dim must be divisible by n_heads")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")
        if not self.use_embedding and self.input_dim != self.hidden_dim:
            raise ValueError("without the embedding sublayer input_dim must equal hidden_dim")

    def activation_for(self, sublayer: str) -> str:
        override = getattr(self, f"{sublayer}_activation")
        return override if override is not None else self.attention_activation

    def residual_for(self, sublayer: str) -> bool:
        override = getattr(self, f"{sublayer}_residual")
        return override if override is not None else self.use_residual

    def to_json(self) -> str:
        d = asdict(self)
        d["decoder_dims"] = list(self.decoder_dims)
        return json.dumps(d, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "TCNetConfig":
        d = json.loads(text)
        d["decoder_dims"] = tuple(d.get("decoder_dims", ()))
        return cls(**d)


@dataclass
class AttentionRecord:
    layer: int
    head: int
    kind: str  # assortment_self | candidates_self | cross
    scores: np.ndarray  # B x rows x cols, rows normalized over unmasked cols
    row_items: list[list[int]]
    col_items: list[list[int]]


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


def parameter_shapes(config: TCNetConfig) -> dict[str, tuple]:
    """Name -> shape map for every trainable tensor. Counts depend only on
    (input_dim, hidden_dim, n_layers, decoder_dims), never on the catalog
    size or the head count: an attention sublayer holds ``Wq`` (every head's
    queries side by side) and ``Wkv`` (every head's keys, then values)."""
    d, dv = config.input_dim, config.hidden_dim
    shapes: dict[str, tuple] = {}

    def add_ln(prefix):
        if config.use_layer_norm:
            shapes[f"{prefix}.ln_g"] = (dv,)
            shapes[f"{prefix}.ln_b"] = (dv,)

    def add_attn(prefix):
        shapes[f"{prefix}.Wq"] = (dv, dv)
        shapes[f"{prefix}.Wkv"] = (dv, 2 * dv)
        add_ln(prefix)

    def add_ffn(prefix):
        shapes[f"{prefix}.W1"] = (dv, dv)
        shapes[f"{prefix}.b1"] = (dv,)
        shapes[f"{prefix}.W2"] = (dv, dv)
        shapes[f"{prefix}.b2"] = (dv,)
        add_ln(prefix)

    for enc in ("assort", "cand"):
        if config.use_embedding:
            shapes[f"{enc}.embed.W1"] = (d, dv)
            shapes[f"{enc}.embed.b1"] = (dv,)
            shapes[f"{enc}.embed.W2"] = (dv, dv)
            shapes[f"{enc}.embed.b2"] = (dv,)
        for layer in range(config.n_layers):
            add_attn(f"{enc}.{layer}.attn")
            if enc == "cand":
                add_attn(f"cand.{layer}.cross")
            add_ffn(f"{enc}.{layer}.ffn")

    dims = [dv, *config.decoder_dims, 1]
    for i, (din, dout) in enumerate(zip(dims[:-1], dims[1:])):
        shapes[f"dec.{i}.W"] = (din, dout)
        shapes[f"dec.{i}.b"] = (dout,)
    return shapes


def count_params(params: dict[str, Tensor]) -> int:
    return sum(int(np.prod(t.shape)) for t in params.values())


def parameter_count_formula(config: TCNetConfig) -> int:
    """Closed-form trainable parameter count.

    With embedding and layer norm on and a single linear decoder:

        2 * (d*dv + dv + dv^2 + dv)            embeddings (both encoders)
      + L * 3 * (3*dv^2 + 2*dv)                self-attn x2 + cross-attn
      + L * 2 * (2*dv^2 + 2*dv + 2*dv)         FFNs (both encoders)
      + extra 2*dv per normalized sublayer
      + dv + 1                                 decoder
    """
    d, dv, L = config.input_dim, config.hidden_dim, config.n_layers
    total = 0
    if config.use_embedding:
        total += 2 * (d * dv + dv + dv * dv + dv)
    attn = 3 * dv * dv
    ffn = 2 * dv * dv + 2 * dv
    ln = 2 * dv if config.use_layer_norm else 0
    total += L * (2 * (attn + ln) + (attn + ln))  # assort self, cand self, cross
    total += L * 2 * (ffn + ln)
    dims = [dv, *config.decoder_dims, 1]
    total += sum(a * b + b for a, b in zip(dims[:-1], dims[1:]))
    return total


def init_params(config: TCNetConfig, rng: np.random.Generator | None = None) -> dict[str, Tensor]:
    from .training import xavier_init

    if rng is None:
        rng = np.random.default_rng(config.seed)
    params: dict[str, Tensor] = {}
    for name, shape in parameter_shapes(config).items():
        prefix, leaf = name.rsplit(".", 1)
        if leaf == "Wq":  # each head's Xavier query, key and value matrix in turn
            dv, h = shape[0], config.n_heads
            b = np.sqrt(6.0 / (dv + dv // h))
            w = rng.uniform(-b, b, size=(h, 3, dv, dv // h))
            w = w.transpose(1, 2, 0, 3).reshape(3, dv, dv)  # queries, keys, values
            params[name] = Tensor(w[0], requires_grad=True)
            params[f"{prefix}.Wkv"] = Tensor(np.hstack(w[1:]), requires_grad=True)
        elif leaf == "Wkv":
            continue  # drawn with the sublayer's Wq
        elif leaf.startswith("b") or leaf == "ln_b":
            params[name] = Tensor(np.zeros(shape), requires_grad=True)
        elif leaf == "ln_g":
            params[name] = Tensor(np.ones(shape), requires_grad=True)
        else:
            params[name] = xavier_init(shape, rng)
    return params


def zero_params(config: TCNetConfig) -> dict[str, Tensor]:
    return {
        name: Tensor(np.zeros(shape), requires_grad=True)
        for name, shape in parameter_shapes(config).items()
    }


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------


@dataclass
class ForwardResult:
    probs: np.ndarray  # B x Cmax, padded positions exactly 0
    utilities: Tensor  # B x Cmax (pre-softmax decoder outputs)
    loss_input: Tensor  # probs as a tensor, for loss construction
    records: list[AttentionRecord] = field(default_factory=list)


class _Ctx:
    def __init__(self, params, config, training, rng, capture, batch):
        self.params = params
        self.config = config
        self.training = training
        self.rng = rng
        self.capture = capture
        self.records: list[AttentionRecord] = []
        self.batch = batch

    def p(self, name: str) -> Tensor:
        return self.params[name]

    def drop(self, x: Tensor) -> Tensor:
        if self.training and self.config.dropout_rate > 0:
            return x.dropout(self.config.dropout_rate, True, self.rng)
        return x


def _maybe_norm(ctx: _Ctx, x: Tensor, prefix: str) -> Tensor:
    if ctx.config.use_layer_norm:
        return x.layer_norm(ctx.p(f"{prefix}.ln_g"), ctx.p(f"{prefix}.ln_b"))
    return x


def _embedding(ctx: _Ctx, x: Tensor, enc: str) -> Tensor:
    h = x.matmul(ctx.p(f"{enc}.embed.W1")).add_bias(ctx.p(f"{enc}.embed.b1")).relu()
    return ctx.drop(h.matmul(ctx.p(f"{enc}.embed.W2")).add_bias(ctx.p(f"{enc}.embed.b2")))


def _score_scale(scale: bool, scale_dim: int) -> float:
    return 1.0 / np.sqrt(scale_dim) if scale else 1.0


def _row_normalized(weights: np.ndarray, activation: str) -> np.ndarray:
    """Attention weights with every row summing to 1 over its unmasked keys
    (an all-zero row stays 0), as attention capture reports them."""
    if activation == SOFTMAX:
        return weights
    rowsum = weights.sum(axis=-1, keepdims=True)
    return np.divide(weights, rowsum, out=np.zeros_like(weights), where=rowsum > 0)


def attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    key_mask: np.ndarray,
    activation: str,
    scale: bool,
    scale_dim: int,
) -> tuple[Tensor, np.ndarray]:
    """Single-head phi(Q K^T) V with masked keys excluded, through the same
    op as the model's sublayers; returns output and the row-normalized score
    matrix (for capture)."""
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"attention dims {q.shape} vs {k.shape}")
    out, weights = attention_heads(
        q, concat([k, v]), key_mask, 1, activation, _score_scale(scale, scale_dim)
    )
    return out, _row_normalized(weights, activation)[:, 0]


def _kv(ctx: _Ctx, prefix: str, x_kv: Tensor) -> Tensor:
    """Every head's keys, then every head's values, of the sublayer
    ``prefix`` over ``x_kv``."""
    return x_kv.matmul(ctx.p(f"{prefix}.Wkv"))


def _attn_sublayer(
    ctx: _Ctx,
    prefix: str,
    x_q: Tensor,
    kv: Tensor,
    key_mask: np.ndarray,
    sublayer: str,
    layer: int,
    kind: str,
    row_items,
    col_items,
) -> Tensor:
    cfg = ctx.config
    activation = cfg.activation_for(sublayer)
    q = x_q.matmul(ctx.p(f"{prefix}.Wq"))
    out, weights = attention_heads(
        q, kv, key_mask, cfg.n_heads, activation, _score_scale(cfg.scale_scores, cfg.hidden_dim)
    )
    if ctx.capture:
        norms = _row_normalized(weights, activation)
        for head in range(cfg.n_heads):
            ctx.records.append(
                AttentionRecord(layer, head, kind, norms[:, head], row_items, col_items)
            )
    out = ctx.drop(out)
    if cfg.residual_for(sublayer):
        out = out + x_q
    return _maybe_norm(ctx, out, prefix)


def _ffn_sublayer(ctx: _Ctx, prefix: str, x: Tensor) -> Tensor:
    h = x.matmul(ctx.p(f"{prefix}.W1")).add_bias(ctx.p(f"{prefix}.b1")).relu()
    out = ctx.drop(h.matmul(ctx.p(f"{prefix}.W2")).add_bias(ctx.p(f"{prefix}.b2")))
    if ctx.config.use_residual:
        out = out + x
    return _maybe_norm(ctx, out, prefix)


def _assortment_encoder(ctx: _Ctx, xs: Tensor, mask_s, items) -> Tensor:
    h = _embedding(ctx, xs, "assort") if ctx.config.use_embedding else xs
    for layer in range(ctx.config.n_layers):
        prefix = f"assort.{layer}.attn"
        h = _attn_sublayer(
            ctx, prefix, h, _kv(ctx, prefix, h), mask_s, "assort_attn", layer,
            "assortment_self", items, items,
        )
        h = _ffn_sublayer(ctx, f"assort.{layer}.ffn", h)
    return h


@dataclass
class AssortmentCache:
    """The assortment side of a batch, one entry per distinct (assortment,
    context) pair of its rows: the assortment latents and each cross
    sublayer's K/V (every head's keys, then every head's values). In a
    forward that records a graph the gradient of every row that uses an
    entry flows back into it. ``items`` and ``features`` are the entries it
    was encoded from, so that a batch of other entries is refused."""

    latents: Tensor  # G x Smax x dv
    kv: dict[str, Tensor]  # cross-sublayer prefix -> G x Smax x 2dv
    items: list[list[int]]  # G, each entry's items
    features: np.ndarray  # G x Smax x d, padded, with the context


def _encode(ctx: _Ctx) -> AssortmentCache:
    """The assortment encoder and the cross K/V over the batch's entries. In
    training, assortment-side dropout thus draws one mask per entry, which
    the rows sharing it share."""
    b = ctx.batch
    latents = _assortment_encoder(ctx, Tensor(b.assort_features), b.assort_mask, b.assort_items)
    kv = {
        f"cand.{layer}.cross": _kv(ctx, f"cand.{layer}.cross", latents)
        for layer in range(ctx.config.n_layers)
    }
    return AssortmentCache(latents, kv, b.assort_items, b.assort_features)


def _candidates_encoder(ctx: _Ctx, xc: Tensor, mask_c, cache: AssortmentCache) -> Tensor:
    b = ctx.batch
    # a single entry broadcasts to every row; otherwise each row takes its
    # entry's K/V, and the backward adds each row's gradient into the entry
    shared = len(b.assort_mask) == 1
    mask_s = b.assort_mask if shared else b.assort_mask[b.assort_index]
    assort_items = [b.assort_items[g] for g in b.assort_index]
    h = _embedding(ctx, xc, "cand") if ctx.config.use_embedding else xc
    for layer in range(ctx.config.n_layers):
        prefix = f"cand.{layer}.attn"
        h = _attn_sublayer(
            ctx, prefix, h, _kv(ctx, prefix, h), mask_c, "cand_attn", layer,
            "candidates_self", b.cand_items, b.cand_items,
        )
        prefix = f"cand.{layer}.cross"
        kv = cache.kv[prefix] if shared else take(cache.kv[prefix], b.assort_index)
        h = _attn_sublayer(
            ctx, prefix, h, kv, mask_s, "cross", layer, "cross", b.cand_items, assort_items,
        )
        h = _ffn_sublayer(ctx, f"cand.{layer}.ffn", h)
    return h


def _decoder(ctx: _Ctx, x: Tensor) -> Tensor:
    n_layers = len(ctx.config.decoder_dims) + 1
    h = x
    for i in range(n_layers):
        h = h.matmul(ctx.p(f"dec.{i}.W")).add_bias(ctx.p(f"dec.{i}.b"))
        if i < n_layers - 1:
            h = h.relu()
    return h.reshape(*x.shape[:-1])


def _utilities(ctx: _Ctx, cache: AssortmentCache | None) -> Tensor:
    """The one forward body: both encoders (the assortment one unless
    ``cache`` holds its output) and the decoder, B x Cmax."""
    b = ctx.batch
    if not b.cand_mask.any(axis=-1).all():
        raise ValueError("observation with zero candidates")
    if cache is None:
        cache = _encode(ctx)
    elif cache.items != b.assort_items or not np.array_equal(cache.features, b.assort_features):
        raise ShapeError("cache encoded from other assortments or contexts than the batch's")
    xc = _candidates_encoder(ctx, Tensor(b.cand_features), b.cand_mask, cache)
    return _decoder(ctx, xc)


def encode_assortment(
    batch: PaddedBatch, params: dict[str, Tensor], config: TCNetConfig
) -> AssortmentCache:
    """The assortment side of ``batch`` for inference, once per distinct
    (assortment, context) pair and without a graph. ``forward`` and
    ``forward_utilities`` score against it the candidates of any batch with
    the same entries, such as every batch whose rows all share the one
    assortment and context of a one-entry cache; a batch with other entries
    raises ``ShapeError``."""
    with no_grad():
        return _encode(_Ctx(params, config, False, None, False, batch))


def forward(
    batch: PaddedBatch,
    params: dict[str, Tensor],
    config: TCNetConfig,
    training: bool = False,
    rng: np.random.Generator | None = None,
    capture_attention: bool = False,
    cache: AssortmentCache | None = None,
) -> ForwardResult:
    """Full pass: probabilities over unmasked candidate positions per row.
    Without ``cache`` the assortment side is encoded here."""
    ctx = _Ctx(params, config, training, rng, capture_attention, batch)
    utilities = _utilities(ctx, cache)
    probs = utilities.masked_softmax(batch.cand_mask)
    return ForwardResult(probs.data, utilities, probs, ctx.records)


def forward_utilities(
    batch: PaddedBatch,
    params: dict[str, Tensor],
    config: TCNetConfig,
    training: bool = False,
    rng: np.random.Generator | None = None,
    cache: AssortmentCache | None = None,
) -> Tensor:
    """Decoder utilities u_i^S, B x Cmax with padded positions not masked: the
    softmax over ``cand_mask`` gives ``forward``'s probabilities; on a batch
    of multi observations (candidates = assortment) their sigmoids are the
    threshold head's membership probabilities."""
    return _utilities(_Ctx(params, config, training, rng, False, batch), cache)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(path, params: dict[str, Tensor], config: TCNetConfig) -> None:
    arrays = {f"param:{k}": v.data for k, v in params.items()}
    arrays["config_json"] = np.frombuffer(config.to_json().encode(), dtype=np.uint8)
    np.savez(path, **arrays)


def load_checkpoint(path) -> tuple[dict[str, Tensor], TCNetConfig]:
    with np.load(path) as blob:
        config = TCNetConfig.from_json(bytes(blob["config_json"]).decode())
        params = {
            k.split(":", 1)[1]: Tensor(blob[k], requires_grad=True)
            for k in blob.files
            if k.startswith("param:")
        }
    expected = parameter_shapes(config)
    mismatches = {
        "missing": [k for k in expected if k not in params],
        "unexpected": [k for k in params if k not in expected],
        "wrong shape": [k for k in expected if k in params and params[k].shape != expected[k]],
    }
    if any(mismatches.values()):
        found = "; ".join(f"{kind} {_first(names)}" for kind, names in mismatches.items() if names)
        raise ValueError(f"checkpoint parameters do not match config: {found}")
    return params, config


def _first(names: list[str], k: int = 4) -> str:
    more = f" and {len(names) - k} more" if len(names) > k else ""
    return ", ".join(names[:k]) + more
