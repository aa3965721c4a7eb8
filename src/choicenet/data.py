"""Choice datasets: ingestion, reductions, synthetic generators, batching.

Three observation kinds are supported:

* single:     a choice ``i`` from an assortment ``S``
* sequential: a choice ``i`` from candidates ``C`` within assortment ``S``
* multi:      a basket ``B`` chosen from ``S``

The network scores sequential rows. A single choice is padded as the row
(i, C = S, S). A basket is expanded into sequential rows by
``multi_to_sequential``: for training anew every epoch, for validation and
testing once, in the fixed order of ``reduce_split``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SINGLE = "single"
SEQUENTIAL = "sequential"
MULTI = "multi"

STOP_ITEM_NAME = "__stop__"


class DataError(ValueError):
    pass


@dataclass
class ItemCatalog:
    """Item universe with per-item feature rows (one-hot when featureless)."""

    names: list[str]
    features: np.ndarray  # n x d

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.shape[0] != len(self.names):
            raise DataError("feature rows must match item count")
        finite = np.isfinite(self.features).all(axis=1)
        if not finite.all():
            raise DataError(f"item {self.names[finite.argmin()]!r} has non-finite features")
        self._index = {name: i for i, name in enumerate(self.names)}
        # the feature rows and a zero row at index n, the padding index
        self._padded_features = np.vstack([self.features, np.zeros(self.features.shape[1])])

    @classmethod
    def one_hot(cls, names: list[str]) -> "ItemCatalog":
        return cls(list(names), np.eye(len(names)))

    @property
    def item_count(self) -> int:
        return len(self.names)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise DataError(f"unknown item {name!r}") from None

    def with_stop_item(self) -> "ItemCatalog":
        """Append a dedicated stop item with its own one-hot feature column."""
        n, d = self.features.shape
        feats = np.zeros((n + 1, d + 1))
        feats[:n, :d] = self.features
        feats[n, d] = 1.0
        return ItemCatalog(self.names + [STOP_ITEM_NAME], feats)

    @property
    def stop_index(self) -> int | None:
        return self._index.get(STOP_ITEM_NAME)


@dataclass(frozen=True)
class ChoiceObservation:
    kind: str
    assortment: frozenset[int]
    candidates: frozenset[int] | None = None
    choice: int | None = None
    basket: frozenset[int] | None = None
    context: tuple[float, ...] | None = None

    def validate(self, n_items: int) -> None:
        if not self.assortment:
            raise DataError("empty assortment")
        for i in self.assortment:
            if not 0 <= i < n_items:
                raise DataError(f"item index {i} outside catalog")
        if self.context is not None and not all(map(math.isfinite, self.context)):
            raise DataError(f"context {self.context} is not finite")
        if self.kind == SINGLE:
            if self.candidates is not None or self.basket is not None:
                raise DataError("a single observation takes no candidates or basket")
            if self.choice not in self.assortment:
                raise DataError(f"choice {self.choice} not in assortment")
        elif self.kind == SEQUENTIAL:
            if self.basket is not None:
                raise DataError("a sequential observation takes no basket")
            if self.candidates is None or not self.candidates <= self.assortment:
                raise DataError("candidates must be a subset of the assortment")
            if self.choice not in self.candidates:
                raise DataError(f"choice {self.choice} not in candidates")
        elif self.kind == MULTI:
            if self.candidates is not None or self.choice is not None:
                raise DataError("a multi observation takes no candidates or choice")
            if not self.basket:
                raise DataError("multi observation needs a nonempty basket")
            if not self.basket <= self.assortment:
                raise DataError("basket must be a subset of the assortment")
        else:
            raise DataError(f"unknown kind {self.kind!r}")


def _context_length(observations: list[ChoiceObservation], what: str) -> int:
    """The context length all ``observations`` share (0 without contexts);
    raises DataError naming the first ``what`` whose length differs."""
    lengths = [len(o.context or ()) for o in observations]
    k = lengths[0]
    if lengths.count(k) != len(lengths):
        b = next(b for b, kb in enumerate(lengths) if kb != k)
        raise DataError(
            f"{what} {b} has a context of length {lengths[b]}, {what} 0 one of length {k}"
        )
    return k


@dataclass(frozen=True)
class ChoiceDataset:
    """Validated observations of one kind over ``catalog``.

    A dataset is immutable: its fields cannot be assigned and
    ``observations`` is stored as a tuple. Batching pads every row once, on
    first use, into a row index (``_rows``) that ``make_batches`` gathers
    each batch from; immutability keeps that index current."""

    catalog: ItemCatalog
    observations: tuple[ChoiceObservation, ...]
    kind: str

    def __post_init__(self):
        object.__setattr__(self, "observations", tuple(self.observations))
        if self.observations:
            _context_length(self.observations, "observation")
        for k, obs in enumerate(self.observations):
            if obs.kind != self.kind:
                raise DataError(f"observation {k} has kind {obs.kind}, dataset is {self.kind}")
            try:
                obs.validate(self.catalog.item_count)
            except DataError as exc:
                raise DataError(f"observation {k}: {exc}") from None

    @classmethod
    def _of_valid(cls, catalog: ItemCatalog, observations, kind: str) -> "ChoiceDataset":
        """A dataset of observations that are valid over ``catalog`` by
        construction, without validating them again: observations taken from
        a validated dataset, or built from one by a reduction, or validated
        one by one as they were read. They must be of ``kind`` and share one
        context length."""
        ds = cls.__new__(cls)
        ds.__dict__.update(catalog=catalog, observations=tuple(observations), kind=kind)
        return ds

    @cached_property
    def _rows(self) -> "_Rows":
        if not self.observations:
            raise DataError("cannot batch an empty dataset")
        return _Rows.of(self.catalog, self.observations)

    def __len__(self) -> int:
        return len(self.observations)


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

CSV_COLUMNS = ("obs_id", "kind", "assortment", "candidates", "choice", "basket")


def _parse_set(cell: str, catalog: ItemCatalog) -> frozenset[int]:
    return frozenset(catalog.index_of(tok.strip()) for tok in cell.split(";") if tok.strip())


def load_csv(path, item_features_path=None) -> ChoiceDataset:
    """Load a dataset from the documented CSV schema.

    Columns: ``obs_id, kind, assortment, candidates, choice, basket`` plus
    optional context feature columns ``f_0..f_{k-1}``. Set-valued cells are
    semicolon-separated item names. Item features come from a separate CSV
    (``name, f_0, ...``); without one the catalog is one-hot.
    """
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise DataError(f"{path}: no data rows")
    header = rows[0].keys()
    missing = [c for c in ("obs_id", "kind", "assortment") if c not in header]
    if missing:
        raise DataError(f"{path}: missing columns {missing}")
    feat_cols = sorted(
        (c for c in header if c.startswith("f_")), key=lambda c: int(c.split("_")[1])
    )

    names: list[str] = []
    seen = set()
    for row in rows:
        for cell in (row.get("assortment", ""), row.get("candidates", ""), row.get("basket", "")):
            for tok in (cell or "").split(";"):
                tok = tok.strip()
                if tok and tok not in seen:
                    seen.add(tok)
                    names.append(tok)

    if item_features_path is not None:
        catalog = _load_item_features(item_features_path, names)
    else:
        catalog = ItemCatalog.one_hot(names)

    kind = rows[0]["kind"].strip()
    observations = []
    for lineno, row in enumerate(rows, start=2):
        try:
            assortment = _parse_set(row["assortment"], catalog)
            candidates = _parse_set(row["candidates"], catalog) if row.get("candidates") else None
            basket = _parse_set(row["basket"], catalog) if row.get("basket") else None
            choice = catalog.index_of(row["choice"].strip()) if row.get("choice") else None
            context = (
                tuple(float(row[c]) for c in feat_cols) if feat_cols else None
            )
            obs = ChoiceObservation(
                kind=row["kind"].strip(),
                assortment=assortment,
                candidates=candidates,
                choice=choice,
                basket=basket,
                context=context,
            )
            obs.validate(catalog.item_count)
            if obs.kind != kind:
                raise DataError(f"kind {obs.kind}, the first row's is {kind}")
        except (DataError, KeyError, ValueError) as exc:
            raise DataError(f"{path}, line {lineno}: {exc}") from None
        observations.append(obs)
    # every row is validated above, every context has len(feat_cols) values
    return ChoiceDataset._of_valid(catalog, observations, kind)


def _load_item_features(path, names: list[str]) -> ItemCatalog:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    feats_by_name = {}
    for row in rows:
        name = row["name"].strip()
        vals = [float(v) for k, v in row.items() if k != "name"]
        feats_by_name[name] = vals
    missing = [n for n in names if n not in feats_by_name]
    if missing:
        raise DataError(f"{path}: no features for items {missing[:5]}")
    features = np.array([feats_by_name[n] for n in names])
    try:
        return ItemCatalog(names, features)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def save_csv(ds: ChoiceDataset, path) -> None:
    feat_dim = len(ds.observations[0].context) if ds.observations[0].context else 0
    cols = list(CSV_COLUMNS) + [f"f_{i}" for i in range(feat_dim)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for k, obs in enumerate(ds.observations):
            names = ds.catalog.names
            row = [
                k,
                obs.kind,
                ";".join(names[i] for i in sorted(obs.assortment)),
                ";".join(names[i] for i in sorted(obs.candidates)) if obs.candidates else "",
                names[obs.choice] if obs.choice is not None else "",
                ";".join(names[i] for i in sorted(obs.basket)) if obs.basket else "",
            ]
            if obs.context:
                row.extend(obs.context)
            writer.writerow(row)


def load_basket_transactions(path) -> ChoiceDataset:
    """Load the public bakery-style transaction format: one line per basket.

    Each line lists integer item ids, optionally preceded by a transaction id
    (detected when the first column is a unique running id). The assortment of
    every observation is the full catalog.
    """
    baskets_raw: list[list[int]] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            toks = [t for t in line.replace(",", " ").split() if t]
            baskets_raw.append([int(t) for t in toks])
    if not baskets_raw:
        raise DataError(f"{path}: empty transaction file")

    first_cols = [b[0] for b in baskets_raw if b]
    has_tid = len(set(first_cols)) == len(first_cols) and len(baskets_raw) > 1
    baskets = [b[1:] if has_tid else b for b in baskets_raw]
    baskets = [b for b in baskets if b]

    max_id = max(max(b) for b in baskets)
    min_id = min(min(b) for b in baskets)
    offset = min_id  # ids may be 0- or 1-based
    n = max_id - offset + 1
    catalog = ItemCatalog.one_hot([f"item_{i}" for i in range(n)])
    full = frozenset(range(n))
    observations = [
        ChoiceObservation(kind=MULTI, assortment=full, basket=frozenset(i - offset for i in b))
        for b in baskets
    ]
    return ChoiceDataset(catalog, observations, MULTI)


# ---------------------------------------------------------------------------
# Splits and reductions
# ---------------------------------------------------------------------------


def split(
    ds: ChoiceDataset, ratios: tuple[float, float, float] = (0.6, 0.2, 0.2), seed: int = 0
) -> tuple[ChoiceDataset, ChoiceDataset, ChoiceDataset]:
    """Disjoint train/val/test partition, deterministic under ``seed``."""
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise DataError(f"ratios {ratios} must sum to 1")
    if not ds.observations:
        raise DataError("cannot split an empty dataset")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ds.observations))
    n = len(order)
    n_train = int(n * ratios[0])
    n_val = int(n * ratios[1])
    parts = (order[:n_train], order[n_train : n_train + n_val], order[n_train + n_val :])
    return tuple(
        ChoiceDataset._of_valid(ds.catalog, [ds.observations[i] for i in idx], ds.kind)
        for idx in parts
    )


def multi_to_sequential(
    ds: ChoiceDataset, rng: np.random.Generator, append_stop: bool = False
) -> ChoiceDataset:
    """Expand each basket into sequential samples with a uniform random order.

    The k-th sample's candidates are the assortment minus the k-1 previously
    drawn basket items. With ``append_stop`` the catalog must carry the stop
    item (see ``ItemCatalog.with_stop_item``) and a final stop-choice sample
    is emitted per basket.
    """
    if ds.kind != MULTI:
        raise DataError(f"expected a multi-choice dataset, got {ds.kind}")
    stop = ds.catalog.stop_index
    if append_stop and stop is None:
        raise DataError("append_stop requires a catalog with the stop item")

    observations = []
    for obs in ds.observations:
        assortment = obs.assortment | {stop} if append_stop else obs.assortment
        basket = sorted(obs.basket)
        order = rng.permutation(len(basket))
        drawn: set[int] = set()
        for k in order:
            item = basket[k]
            candidates = frozenset(assortment - drawn)
            observations.append(
                ChoiceObservation(
                    kind=SEQUENTIAL,
                    assortment=frozenset(assortment),
                    candidates=candidates,
                    choice=item,
                    context=obs.context,
                )
            )
            drawn.add(item)
        if append_stop:
            observations.append(
                ChoiceObservation(
                    kind=SEQUENTIAL,
                    assortment=frozenset(assortment),
                    candidates=frozenset(assortment - drawn),
                    choice=stop,
                    context=obs.context,
                )
            )
    return ChoiceDataset._of_valid(ds.catalog, observations, SEQUENTIAL)


def reduce_split(part: ChoiceDataset, task: str, seed: int, k: int) -> ChoiceDataset:
    """Split ``k`` (0 train, 1 val, 2 test) of a run at ``seed`` as ``task``
    trains and scores it. For the single and sequential tasks a basket val or
    test split is expanded once, in the order drawn at ``seed + 100 + k``; a
    basket train split is expanded anew every epoch by ``training.fit``.
    Every other split comes back as it is. The multi task needs baskets."""
    if task == MULTI:
        if part.kind != MULTI:
            raise DataError(f"task {task} needs basket data, got {part.kind} data")
        return part
    if part.kind != MULTI or k == 0:
        return part
    return multi_to_sequential(part, np.random.default_rng(seed + 100 + k))


# ---------------------------------------------------------------------------
# Boosted-utility synthetic generators
# ---------------------------------------------------------------------------

BOOST_ITEMS = ["A", "A'", "B", "L"]
_A, _AP, _B, _L = 0, 1, 2, 3

CANDIDATE_BOOST = "candidate"
CHOSEN_BOOST = "chosen"


def boosted_utility(item: int, C: frozenset, S: frozenset, boost_kind: str, boost_value: float):
    """True utility: 1 for everything except A, which is boosted when A' sits
    in the triggering set (candidates, or chosen-so-far)."""
    if item != _A:
        return 1.0
    if boost_kind == CANDIDATE_BOOST:
        return boost_value if _AP in C else 1.0
    if boost_kind == CHOSEN_BOOST:
        return boost_value if _AP in (S - C) else 1.0
    raise DataError(f"unknown boost kind {boost_kind!r}")


def _boost_choice_probs(C: frozenset, S: frozenset, boost_kind: str, boost_value: float):
    items = sorted(C)
    u = np.array([boosted_utility(i, C, S, boost_kind, boost_value) for i in items])
    e = np.exp(u - u.max())
    return items, e / e.sum()


def _sample_boost_sets(rng: np.random.Generator):
    S = {_L} | {i for i in (_A, _AP, _B) if rng.random() < 0.5}
    C = {_L} | {i for i in S - {_L} if rng.random() < 0.5}
    return frozenset(S), frozenset(C)


def generate_boosted_synthetic(
    n_samples: int,
    boost_kind: str = CANDIDATE_BOOST,
    boost_value: float = 100.0,
    seed: int = 0,
) -> ChoiceDataset:
    """Sequential dataset over items {A, A', B, L} with a boosted utility for A.

    Assortments include A, A', B each with probability 0.5 and always L;
    candidates thin the assortment at 0.5 with L always kept; the choice is
    drawn from the softmax of the true utilities.
    """
    if boost_value <= 0:
        raise DataError("boost_value must be positive")
    rng = np.random.default_rng(seed)
    catalog = ItemCatalog.one_hot(BOOST_ITEMS)
    observations = []
    for _ in range(n_samples):
        S, C = _sample_boost_sets(rng)
        items, probs = _boost_choice_probs(C, S, boost_kind, boost_value)
        choice = items[rng.choice(len(items), p=probs)]
        observations.append(
            ChoiceObservation(kind=SEQUENTIAL, assortment=S, candidates=C, choice=choice)
        )
    return ChoiceDataset(catalog, observations, SEQUENTIAL)


def boosted_conditional_entropy(boost_kind: str, boost_value: float = 100.0) -> float:
    """Exact expected entropy of the true choice distribution, i.e. the CE a
    perfect model attains, averaged over the (S, C) sampling scheme."""
    total = 0.0
    for bits_s in range(8):
        S = frozenset({_L} | {i for i in (_A, _AP, _B) if bits_s >> i & 1})
        p_s = 0.5 ** 3  # A, A', B each independently present or not
        inner = sorted(S - {_L})
        for bits_c in range(1 << len(inner)):
            C = frozenset({_L} | {it for k, it in enumerate(inner) if bits_c >> k & 1})
            p_c = 0.5 ** len(inner)
            _, probs = _boost_choice_probs(C, S, boost_kind, boost_value)
            ent = -np.sum(probs * np.log(probs))
            total += p_s * p_c * ent
    return float(total)


# Multi-choice variant: utilities depend on S only, baskets are generated by
# the sequential model until L ("leave") is drawn; L never enters the basket.
MULTI_BOOST_UTILITIES = {_AP: 2.5, _B: -2.5, _L: 0.0}
MULTI_BOOST_A = {True: 5.0, False: -2.5}


def _multi_boost_utility(item: int, S: frozenset, boost_value: float = 5.0) -> float:
    if item == _A:
        return boost_value if _AP in S else MULTI_BOOST_A[False]
    return MULTI_BOOST_UTILITIES[item]


def generate_boosted_multi(
    n_samples: int, seed: int = 0, boost_value: float = 5.0
) -> ChoiceDataset:
    """Multi-choice variant of the boosted synthetic: membership is near 0/1.

    Baskets are drawn by sequentially sampling from softmax utilities over the
    remaining candidates until L is drawn; empty baskets are resampled.
    """
    rng = np.random.default_rng(seed)
    catalog = ItemCatalog.one_hot(BOOST_ITEMS)
    observations = []
    while len(observations) < n_samples:
        S = frozenset({_L} | {i for i in (_A, _AP, _B) if rng.random() < 0.5})
        basket: set[int] = set()
        C = set(S)
        while True:
            items = sorted(C)
            u = np.array([_multi_boost_utility(i, S, boost_value) for i in items])
            e = np.exp(u - u.max())
            choice = items[rng.choice(len(items), p=e / e.sum())]
            if choice == _L:
                break
            basket.add(choice)
            C.remove(choice)
            if not C - {_L}:
                break
        if basket:
            observations.append(
                ChoiceObservation(kind=MULTI, assortment=S, basket=frozenset(basket))
            )
    return ChoiceDataset(catalog, observations, MULTI)


# ---------------------------------------------------------------------------
# Batching
# ---------------------------------------------------------------------------


@dataclass
class PaddedBatch:
    """A batch of B observations, each row's candidates padded to the batch's
    largest candidate set, and the G distinct (assortment, context) pairs of
    its rows, numbered in order of first appearance, each padded to the
    largest assortment.

    The candidate side (``cand_features``, ``cand_mask``, ``cand_items``)
    has B rows; the assortment side (``assort_features``, ``assort_mask``,
    ``assort_items``) has G entries, and ``assort_index`` gives each row's
    entry. Padded positions carry zero features and False masks. The item
    lists are shared with the row index the batch was gathered from
    (``make_batches``), so they are read, never changed.
    """

    cand_features: np.ndarray  # B x Cmax x d
    assort_features: np.ndarray  # G x Smax x d
    cand_mask: np.ndarray  # B x Cmax bool
    assort_mask: np.ndarray  # G x Smax bool
    cand_items: list[list[int]]  # B
    assort_items: list[list[int]]  # G
    assort_index: np.ndarray  # B int, each row's entry

    @property
    def size(self) -> int:
        return self.cand_features.shape[0]


def renumber(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct values of the int array ``values`` in order of
    first appearance, by sorting: each value's number, and the position of
    each number's first value."""
    _, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(len(order))
    return number[inverse], first[order]


def effective_feature_dim(ds: ChoiceDataset) -> int:
    ctx = ds.observations[0].context
    return ds.catalog.feature_dim + (len(ctx) if ctx else 0)


def _contexts(observations: list[ChoiceObservation]) -> np.ndarray | None:
    """The B x k context matrix of ``observations``, or None when k is 0."""
    if not _context_length(observations, "batch row"):
        return None
    return np.array([o.context for o in observations], dtype=np.float64)


def _index_matrix(sets: list[list[int]], n: int) -> np.ndarray:
    """``sets`` of sorted items as rows, each padded with ``n`` to the largest."""
    pad = [n] * max(map(len, sets))
    return np.array([s + pad[len(s):] for s in sets], dtype=np.intp)


def _number_rows(cand_sets, observations):
    """Each row's entry, its (assortment, context) pair, and its key, its
    (candidates, entry) pair, each numbered in order of first appearance;
    and the first row of each entry and of each key."""
    entries: dict = {}
    keys: dict = {}
    entry, key, firsts, distinct = [], [], [], []
    for b, (c, o) in enumerate(zip(cand_sets, observations)):
        e = entries.setdefault((o.assortment, o.context), len(entries))
        if e == len(firsts):
            firsts.append(b)
        k = keys.setdefault((frozenset(c), e), len(keys))
        if k == len(distinct):
            distinct.append(b)
        entry.append(e)
        key.append(k)
    return entry, key, firsts, distinct


def _features(
    catalog: ItemCatalog, idx: np.ndarray, contexts: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Features and mask of the padded item rows ``idx``: the padding index
    n selects the zero row of ``catalog._padded_features``, and each row's
    context is laid over its unpadded positions."""
    mask = idx != catalog.item_count
    feats = catalog._padded_features.take(idx, axis=0)
    if contexts is not None:
        ctx = np.where(mask[..., None], contexts[:, None, :], 0.0)
        feats = np.concatenate([feats, ctx], axis=-1)
    return feats, mask


@dataclass
class _Rows:
    """Rows of observations padded for batching, and their entries: the row
    index of a dataset, or of the observations of one ``pad_batch`` call.

    Each row has its sorted candidate items (``cand_items``, and as a row of
    ``cand`` padded with the item count n), its context, its label position
    (``labels``) and its basket mask over ``cand`` (``baskets``); each of
    the two is None unless every row has one. ``entry`` numbers
    the rows' distinct (assortment, context) pairs in order of first
    appearance, ``firsts`` holds each entry's first row, and ``assort_items``
    and ``assort`` each entry's sorted items. ``key`` numbers the distinct
    (candidates, entry) pairs in the same way; ``distinct`` renumbers the
    keys once and finds each one's first row. ``take`` selects rows, and
    ``batch`` pads all rows into a PaddedBatch."""

    catalog: ItemCatalog
    cand_items: list[list[int]]
    cand: np.ndarray  # R x width int
    contexts: np.ndarray | None  # R x k
    labels: np.ndarray | None  # R int
    baskets: np.ndarray | None  # R x width bool
    entry: np.ndarray  # R int
    firsts: list[int] | np.ndarray  # E
    assort_items: list[list[int]]  # E
    assort: np.ndarray  # E x width int
    key: np.ndarray  # R int

    @classmethod
    def of(cls, catalog: ItemCatalog, observations) -> "_Rows":
        n = catalog.item_count
        contexts = _contexts(observations)
        cand_sets = [o.assortment if o.candidates is None else o.candidates for o in observations]
        entry, key, firsts, distinct = _number_rows(cand_sets, observations)
        # rows with one key read the same inputs: each key's candidates are
        # sorted and padded once
        distinct_items = [sorted(cand_sets[b]) for b in distinct]
        cand_items = [distinct_items[k] for k in key]
        key = np.array(key)
        cand = _index_matrix(distinct_items, n).take(key, axis=0)
        assort_items = [sorted(observations[b].assortment) for b in firsts]
        labels = baskets = None
        if all(o.choice is not None for o in observations):
            labels = np.array([c.index(o.choice) for c, o in zip(cand_items, observations)])
        if all(o.basket is not None for o in observations):
            baskets = np.zeros(cand.shape, dtype=bool)
            members = [i in o.basket for c, o in zip(cand_items, observations) for i in c]
            baskets[cand != n] = members
        return cls(
            catalog, cand_items, cand, contexts, labels, baskets,
            np.array(entry), firsts, assort_items, _index_matrix(assort_items, n), key,
        )

    @cached_property
    def _cand_len(self) -> np.ndarray:
        return np.fromiter(map(len, self.cand_items), dtype=np.intp, count=len(self.cand_items))

    @cached_property
    def _assort_len(self) -> np.ndarray:
        return np.fromiter(map(len, self.assort_items), dtype=np.intp, count=len(self.assort_items))

    @cached_property
    def distinct(self) -> tuple[np.ndarray, np.ndarray]:
        """``renumber(key)``: each row's distinct row, numbered in order of
        first appearance, and each distinct row's first row."""
        return renumber(self.key)

    def take(self, rows: np.ndarray) -> "_Rows":
        """The rows at positions ``rows``, in that order: each side cut to its
        widest row, the entries renumbered in order of first appearance."""
        width = self._cand_len[rows].max()
        entry, firsts = renumber(self.entry[rows])
        entries = self.entry[rows[firsts]]
        return _Rows(
            self.catalog,
            [self.cand_items[r] for r in rows],
            self.cand[rows, :width],
            None if self.contexts is None else self.contexts[rows],
            None if self.labels is None else self.labels[rows],
            None if self.baskets is None else self.baskets[rows, :width],
            entry,
            firsts,
            [self.assort_items[e] for e in entries],
            self.assort[entries, : self._assort_len[entries].max()],
            self.key[rows],
        )

    def batch(self) -> PaddedBatch:
        """Every row, in order, as one PaddedBatch."""
        fc, mc = _features(self.catalog, self.cand, self.contexts)
        entry_contexts = None if self.contexts is None else self.contexts[self.firsts]
        fs, ms = _features(self.catalog, self.assort, entry_contexts)
        return PaddedBatch(fc, fs, mc, ms, self.cand_items, self.assort_items, self.entry)

    def chosen(self, rows, index: np.ndarray, shape: tuple) -> np.ndarray | None:
        """The ``shape`` count matrix W of the rows ``rows`` selects, each
        numbered ``index``: W[index[r], pos] counts the rows r that chose
        position ``pos``, by their label when every row has a choice, else
        by their basket members when every row has a basket (else None)."""
        if self.labels is not None:
            cells = index * shape[1] + self.labels[rows]
        elif self.baskets is not None:
            r, pos = np.nonzero(self.baskets[rows, : shape[1]])
            cells = index[r] * shape[1] + pos
        else:
            return None
        return np.bincount(cells, minlength=shape[0] * shape[1]).reshape(shape).astype(np.float64)


def pad_batch(catalog: ItemCatalog, observations: list[ChoiceObservation]) -> PaddedBatch:
    """The batch of ``observations``; an observation without candidates (a
    multi basket) offers its whole assortment as candidates. The rows are
    padded as the rows of a dataset are (``make_batches``), all at once."""
    return _Rows.of(catalog, observations).batch()


@dataclass
class CountedBatch:
    """A batch of rows as its D distinct rows and their counts.

    ``batch`` holds the first row of each distinct row of the batch (the
    same sorted candidates and the same (assortment, context) entry: one
    ``key`` of the row index), in order of first appearance, and equals
    ``pad_batch`` of those rows. ``rows`` counts the batch's rows of each
    distinct row, and ``chosen[d, pos]`` how many of them chose candidate
    position ``pos``: their label when every row has a choice, each basket
    member when every row has a basket (None otherwise)."""

    batch: PaddedBatch  # D rows
    rows: np.ndarray  # D int
    chosen: np.ndarray | None  # D x Cmax float

    @property
    def size(self) -> int:
        """The number of rows the batch stands for."""
        return int(self.rows.sum())


def make_batches(
    ds: ChoiceDataset,
    batch_size: int,
    rng: np.random.Generator | None = None,
    shuffle: bool = True,
):
    """Yield the CountedBatches of ``ds``, ``batch_size`` rows each, shuffled
    when ``shuffle``. Every row of ``ds`` is padded once, on the first
    batching of ``ds``; each batch gathers its distinct rows from those,
    numbered by ``renumber`` of its rows' keys, and counts their labels or
    basket members."""
    rows = ds._rows
    order = np.arange(len(ds.observations))
    if shuffle:
        if rng is None:
            raise DataError("shuffling requires an rng")
        order = rng.permutation(order)
    for start in range(0, len(order), batch_size):
        taken = order[start : start + batch_size]
        index, firsts = renumber(rows.key[taken])
        distinct = rows.take(taken[firsts])
        chosen = rows.chosen(taken, index, distinct.cand.shape)
        yield CountedBatch(distinct.batch(), np.bincount(index), chosen)
