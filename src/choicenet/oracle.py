"""Exact ground-truth machinery for desk-scale verification.

Contains the tabular sequential choice model (an exhaustive contextualized
utility table), the permutation-sum basket probability, subset Mobius
inversion of utilities into interaction terms, and the constructive network
builder that reproduces any tabular model exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .tensor import Tensor, no_grad
from .data import ItemCatalog, PaddedBatch
from . import model as M

MAX_TABULAR_N = 6
MAX_BASKET_FACTORIAL = 8


def subsets(mask: int):
    """All submasks of ``mask`` (including 0 and mask itself)."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def mask_of(items) -> int:
    m = 0
    for i in items:
        m |= 1 << i
    return m


def items_of(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


@dataclass
class TabularSequentialModel:
    """Exhaustive utility table u(i, C, S) for all i in C, C subset of S."""

    n: int
    utilities: dict[tuple[int, int, int], float]  # (item, C_mask, S_mask) -> u

    def __post_init__(self):
        if self.n > MAX_TABULAR_N:
            raise ValueError(f"n={self.n} exceeds tabular limit {MAX_TABULAR_N}")

    @classmethod
    def random(cls, n: int, rng: np.random.Generator, low: float = -2.0, high: float = 2.0):
        utilities = {}
        for s_mask in range(1, 1 << n):
            for c_mask in subsets(s_mask):
                if c_mask == 0:
                    continue
                for i in items_of(c_mask):
                    utilities[(i, c_mask, s_mask)] = float(rng.uniform(low, high))
        return cls(n, utilities)

    def utility(self, i: int, C, S) -> float:
        c_mask = C if isinstance(C, int) else mask_of(C)
        s_mask = S if isinstance(S, int) else mask_of(S)
        key = (i, c_mask, s_mask)
        if key not in self.utilities:
            raise KeyError(f"no utility for item {i}, C={c_mask:b}, S={s_mask:b}")
        return self.utilities[key]

    def triples(self):
        return sorted(self.utilities)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(f"{self.n}\n")
            for (i, c, s), u in sorted(self.utilities.items()):
                fh.write(f"{i} {c} {s} {u!r}\n")

    @classmethod
    def load(cls, path) -> "TabularSequentialModel":
        with open(path) as fh:
            n = int(fh.readline())
            utilities = {}
            for line in fh:
                if not line.strip():
                    continue
                i, c, s, u = line.split()
                utilities[(int(i), int(c), int(s))] = float(u)
        return cls(n, utilities)


def tabular_probability(model: TabularSequentialModel, i: int, C, S) -> float:
    """P(i | C, S) by softmax of the utility row over the candidates."""
    c_mask = C if isinstance(C, int) else mask_of(C)
    s_mask = S if isinstance(S, int) else mask_of(S)
    if c_mask & ~s_mask:
        raise ValueError("candidates must be a subset of the assortment")
    if not (c_mask >> i) & 1:
        return 0.0
    cand = items_of(c_mask)
    u = np.array([model.utility(j, c_mask, s_mask) for j in cand])
    e = np.exp(u - u.max())
    return float(e[cand.index(i)] / e.sum())


def tabular_entropy(model: TabularSequentialModel, C, S) -> float:
    cand = items_of(C if isinstance(C, int) else mask_of(C))
    p = np.array([tabular_probability(model, i, C, S) for i in cand])
    return float(-(p * np.log(p)).sum())


def exact_basket_probability(model: TabularSequentialModel, B, S) -> float:
    """P(B | S) as the sum over orderings of sequential-probability products,
    with candidates shrinking as items are drawn (fixed basket size |B|)."""
    b_mask = B if isinstance(B, int) else mask_of(B)
    s_mask = S if isinstance(S, int) else mask_of(S)
    if b_mask & ~s_mask:
        raise ValueError("basket must be a subset of the assortment")
    basket = items_of(b_mask)
    if len(basket) > MAX_BASKET_FACTORIAL:
        raise ValueError(f"basket of {len(basket)} items exceeds factorial guard")
    total = 0.0
    for perm in permutations(basket):
        c_mask = s_mask
        prod = 1.0
        for item in perm:
            prod *= tabular_probability(model, item, c_mask, s_mask)
            c_mask &= ~(1 << item)
        total += prod
    return total


def batsell_decompose(item_utilities: dict[int, float], i: int) -> dict[int, float]:
    """Interaction terms v_i^{S'} from cumulative utilities via Mobius
    inversion on the subset lattice.

    ``item_utilities`` maps S_mask (with i in S) to u_i^S; the result maps
    S'_mask (subsets excluding i) to v such that u_i^S = sum over S' of v.
    """
    v: dict[int, float] = {}
    for s_mask in item_utilities:
        if not (s_mask >> i) & 1:
            raise ValueError(f"utility table for item {i} has S without i")
    universe = 0
    for s_mask in item_utilities:
        universe |= s_mask
    universe &= ~(1 << i)
    for sp in subsets(universe):
        acc = 0.0
        for t in subsets(sp):
            sign = -1.0 if (bin(sp ^ t).count("1") % 2) else 1.0
            key = t | (1 << i)
            if key not in item_utilities:
                raise ValueError(f"missing utility entry for S={key:b}")
            acc += sign * item_utilities[key]
        v[sp] = acc
    return v


def batsell_reconstruct(v: dict[int, float], s_mask: int, i: int) -> float:
    """u_i^S = sum of v_i^{S'} over S' subsets of S minus i."""
    rest = s_mask & ~(1 << i)
    return sum(v[sp] for sp in subsets(rest))


# ---------------------------------------------------------------------------
# Constructive network (exact representation of a tabular model)
# ---------------------------------------------------------------------------


def constructive_config(n: int, n_bumps: int) -> M.TCNetConfig:
    return M.TCNetConfig(
        input_dim=n,
        hidden_dim=n,
        n_layers=1,
        n_heads=1,
        dropout_rate=0.0,
        use_embedding=False,
        use_layer_norm=False,
        use_residual=True,  # FFN sublayers: muted weights + residual
        scale_scores=False,
        decoder_dims=(3 * n_bumps,),
        assort_attn_activation=M.ONE_PLUS_RELU,
        assort_attn_residual=False,
        cand_attn_activation=M.ONE_PLUS_RELU,
        cand_attn_residual=True,
        cross_activation=M.SOFTMAX,
        cross_residual=True,
    )


def build_constructive_tcnet(
    model: TabularSequentialModel,
) -> tuple[dict[str, Tensor], M.TCNetConfig]:
    """Emit exact weights whose forward pass reproduces the tabular model.

    Attention sublayers reduce to set sums: the candidates-encoder output row
    for item i is e_i + 1_C + 1_S, encoding membership with values
    {3: focal item, 2: other candidate, 1: already chosen, 0: absent}. The
    decoder is a sum of hat functions keyed on the base-4 integer encoding of
    that vector, with the table utilities as coefficients.
    """
    n = model.n
    triples = model.triples()
    K = len(triples)
    config = constructive_config(n, K)
    params = M.zero_params(config)

    eye = np.eye(n)
    for prefix in ("assort.0.attn", "cand.0.attn", "cand.0.cross"):
        params[f"{prefix}.Wv.0"] = Tensor(eye.copy(), requires_grad=True)
        # Wq and Wk stay zero: scores are identically 0

    w = 4.0 ** np.arange(1, n + 1)
    codes = np.empty(K)
    W1 = np.zeros((n, 3 * K))
    b1 = np.zeros(3 * K)
    W2 = np.zeros((3 * K, 1))
    for k, (i, c_mask, s_mask) in enumerate(triples):
        enc = eye[i] + _indicator(c_mask, n) + _indicator(s_mask, n)
        c = float(w @ enc)
        codes[k] = c
        for j, (shiftv, coefv) in enumerate(((-1.0, 1.0), (1.0, 1.0), (0.0, -2.0))):
            col = 3 * k + j
            W1[:, col] = w
            b1[col] = -c + shiftv
            W2[col, 0] = coefv * model.utilities[(i, c_mask, s_mask)]
    if len(np.unique(codes)) != K:
        raise ValueError("encoding collision: (i, C, S) codes are not distinct")
    params["dec.0.W"] = Tensor(W1, requires_grad=True)
    params["dec.0.b"] = Tensor(b1, requires_grad=True)
    params["dec.1.W"] = Tensor(W2, requires_grad=True)
    params["dec.1.b"] = Tensor(np.zeros(1), requires_grad=True)
    return params, config


def _indicator(mask: int, n: int) -> np.ndarray:
    out = np.zeros(n)
    for i in items_of(mask):
        out[i] = 1.0
    return out


def _single_batch(n: int, c_mask: int, s_mask: int) -> PaddedBatch:
    cand = list(items_of(c_mask))
    assort = list(items_of(s_mask))
    eye = np.eye(n)
    return PaddedBatch(
        cand_features=eye[cand][None, :, :],
        assort_features=eye[assort][None, :, :],
        cand_mask=np.ones((1, len(cand)), dtype=bool),
        assort_mask=np.ones((1, len(assort)), dtype=bool),
        labels=None,
        label_mask=None,
        cand_items=[cand],
        assort_items=[assort],
    )


def verify_representation(
    params: dict[str, Tensor], config: M.TCNetConfig, model: TabularSequentialModel
) -> float:
    """Max |network - table| over every valid (i, C, S) triple."""
    max_err = 0.0
    for s_mask in range(1, 1 << model.n):
        for c_mask in subsets(s_mask):
            if c_mask == 0:
                continue
            batch = _single_batch(model.n, c_mask, s_mask)
            with no_grad():
                probs = M.forward(batch, params, config).probs[0]
            cand = items_of(c_mask)
            for pos, i in enumerate(cand):
                err = abs(probs[pos] - tabular_probability(model, i, c_mask, s_mask))
                max_err = max(max_err, err)
    return max_err


def oracle_catalog(n: int) -> ItemCatalog:
    return ItemCatalog.one_hot([f"item_{i}" for i in range(n)])
