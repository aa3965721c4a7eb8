"""Transformer-based choice network.

Two encoders over padded item-feature batches: the assortment encoder embeds
assortment interactions into latent rows, the candidates encoder additionally
cross-attends over those latents; a shared per-item decoder maps latents to
scalar utilities whose masked softmax over the candidates gives P(i | C, S).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from .tensor import Tensor, ShapeError, concat
from .data import PaddedBatch

SOFTMAX = "softmax"
ONE_PLUS_RELU = "one_plus_relu"


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
        if self.hidden_dim % self.n_heads:
            raise ValueError("hidden_dim must be divisible by n_heads")
        if self.n_layers < 1:
            raise ValueError("n_layers must be >= 1")
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
    (input_dim, hidden_dim, n_layers, n_heads, decoder_dims), never on the
    catalog size."""
    d, dv, h = config.input_dim, config.hidden_dim, config.n_heads
    dh = dv // h
    shapes: dict[str, tuple] = {}

    def add_ln(prefix):
        if config.use_layer_norm:
            shapes[f"{prefix}.ln_g"] = (dv,)
            shapes[f"{prefix}.ln_b"] = (dv,)

    def add_attn(prefix):
        for k in range(h):
            shapes[f"{prefix}.Wq.{k}"] = (dv, dh)
            shapes[f"{prefix}.Wk.{k}"] = (dv, dh)
            shapes[f"{prefix}.Wv.{k}"] = (dv, dh)
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
        leaf = name.rsplit(".", 1)[-1]
        if leaf.startswith("b") or leaf == "ln_b":
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


def attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    key_mask: np.ndarray,
    activation: str,
    scale: bool,
    scale_dim: int,
) -> tuple[Tensor, np.ndarray]:
    """phi(Q K^T) V with masked keys excluded; returns output and the
    row-normalized score matrix (for capture)."""
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"attention dims {q.shape} vs {k.shape}")
    scores = q.matmul(k.transpose_last())
    c = 1.0 / np.sqrt(scale_dim) if scale else 1.0
    km_rows = np.asarray(key_mask, dtype=bool)[..., None, :]
    if activation == SOFTMAX:
        weights = scores.masked_softmax(km_rows, scale=c)
        norm = weights.data
    elif activation == ONE_PLUS_RELU:
        if scale:
            scores = scores.scale(c)
        km_rows = np.broadcast_to(km_rows, scores.shape)
        weights = scores.one_plus_relu() * Tensor(km_rows.astype(np.float64))
        rowsum = weights.data.sum(axis=-1, keepdims=True)
        norm = np.divide(weights.data, rowsum, out=np.zeros_like(weights.data), where=rowsum > 0)
    else:
        raise ValueError(f"unknown attention activation {activation!r}")
    return weights.matmul(v), norm


def _multi_head_attention(
    ctx: _Ctx,
    prefix: str,
    x_q: Tensor,
    x_kv: Tensor,
    key_mask: np.ndarray,
    activation: str,
) -> tuple[Tensor, list[np.ndarray]]:
    cfg = ctx.config
    outs, norms = [], []
    for k in range(cfg.n_heads):
        q = x_q.matmul(ctx.p(f"{prefix}.Wq.{k}"))
        kk = x_kv.matmul(ctx.p(f"{prefix}.Wk.{k}"))
        vv = x_kv.matmul(ctx.p(f"{prefix}.Wv.{k}"))
        out, norm = attention(q, kk, vv, key_mask, activation, cfg.scale_scores, cfg.hidden_dim)
        outs.append(out)
        norms.append(norm)
    merged = outs[0] if cfg.n_heads == 1 else concat(outs, axis=-1)
    return merged, norms


def _attn_sublayer(
    ctx: _Ctx,
    prefix: str,
    x_q: Tensor,
    x_kv: Tensor,
    key_mask: np.ndarray,
    sublayer: str,
    layer: int,
    kind: str,
    row_items,
    col_items,
) -> Tensor:
    out, norms = _multi_head_attention(
        ctx, prefix, x_q, x_kv, key_mask, ctx.config.activation_for(sublayer)
    )
    if ctx.capture:
        for head, norm in enumerate(norms):
            ctx.records.append(AttentionRecord(layer, head, kind, norm, row_items, col_items))
    out = ctx.drop(out)
    if ctx.config.residual_for(sublayer):
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
        h = _attn_sublayer(
            ctx, f"assort.{layer}.attn", h, h, mask_s, "assort_attn", layer,
            "assortment_self", items, items,
        )
        h = _ffn_sublayer(ctx, f"assort.{layer}.ffn", h)
    return h

def _candidates_encoder(ctx: _Ctx, xc: Tensor, mask_c, xs_latent: Tensor, mask_s) -> Tensor:
    b = ctx.batch
    h = _embedding(ctx, xc, "cand") if ctx.config.use_embedding else xc
    for layer in range(ctx.config.n_layers):
        h = _attn_sublayer(
            ctx, f"cand.{layer}.attn", h, h, mask_c, "cand_attn", layer,
            "candidates_self", b.cand_items, b.cand_items,
        )
        h = _attn_sublayer(
            ctx, f"cand.{layer}.cross", h, xs_latent, mask_s, "cross", layer,
            "cross", b.cand_items, b.assort_items,
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


def forward(
    batch: PaddedBatch,
    params: dict[str, Tensor],
    config: TCNetConfig,
    training: bool = False,
    rng: np.random.Generator | None = None,
    capture_attention: bool = False,
) -> ForwardResult:
    """Full pass: probabilities over unmasked candidate positions per row."""
    if not batch.cand_mask.any(axis=-1).all():
        raise ValueError("observation with zero candidates")
    ctx = _Ctx(params, config, training, rng, capture_attention, batch)
    xs = Tensor(batch.assort_features)
    xc = Tensor(batch.cand_features)
    xs_latent = _assortment_encoder(ctx, xs, batch.assort_mask, batch.assort_items)
    xc_latent = _candidates_encoder(ctx, xc, batch.cand_mask, xs_latent, batch.assort_mask)
    utilities = _decoder(ctx, xc_latent)
    probs = utilities.masked_softmax(batch.cand_mask)
    return ForwardResult(probs.data, utilities, probs, ctx.records)


def forward_utilities(
    batch: PaddedBatch,
    params: dict[str, Tensor],
    config: TCNetConfig,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Decoder utilities u_i^S for the binary (threshold) head; the batch must
    have candidates equal to the assortment (see ``pad_multi_batch``)."""
    ctx = _Ctx(params, config, training, rng, False, batch)
    xs = Tensor(batch.assort_features)
    xc = Tensor(batch.cand_features)
    xs_latent = _assortment_encoder(ctx, xs, batch.assort_mask, batch.assort_items)
    xc_latent = _candidates_encoder(ctx, xc, batch.cand_mask, xs_latent, batch.assort_mask)
    return _decoder(ctx, xc_latent)


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
    if set(params) != set(expected):
        raise ValueError("checkpoint parameters do not match config")
    return params, config
