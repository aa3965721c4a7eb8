"""Seeded stand-in for the paper's bakery basket file.

The paper's multi-choice headline uses the public "Extended BAKERY" receipts:
50 items (pastries and coffee drinks), one receipt per line as integer item
ids after a leading receipt id, and small baskets dominated by a few popular
items. That file needs a download, so the benchmark writes a file of the same
format and shape from its workload seed instead:

* 50 items with ids 0..49. Item popularity follows a Zipf law with exponent
  ``ZIPF_S`` over ranks; a seeded permutation assigns ranks to ids, so id order
  carries no signal.
* Basket size is ``1 + Poisson(SIZE_LAMBDA)`` capped at ``MAX_BASKET``
  (mean about 2.2 items), drawn without replacement by popularity.
* ``N_PAIRS`` disjoint companion pairs (the coffee-and-pastry pattern of the
  real receipts): after an item with a companion is drawn, the companion is
  the next draw with probability ``PAIR_PROB``. This gives the assortment
  attention an interaction to learn beyond popularity.
* Ids 0 and 49 always occur at least once, because
  ``data.load_basket_transactions`` sizes the catalog from the id range.

Lines read ``<receipt id>, <item>, <item>, ...``, which is the format that
``data.load_basket_transactions`` detects (unique leading running id).
"""

from __future__ import annotations

import numpy as np

N_ITEMS = 50
ZIPF_S = 0.9
SIZE_LAMBDA = 1.2
MAX_BASKET = 8
N_PAIRS = 10
PAIR_PROB = 0.6


def generate_baskets(n_baskets: int, seed: int) -> list[list[int]]:
    """Return ``n_baskets`` baskets of distinct item ids in draw order."""
    rng = np.random.default_rng(seed)
    rank_of_id = rng.permutation(N_ITEMS)
    popularity = 1.0 / (rank_of_id + 1.0) ** ZIPF_S
    pairs = rng.permutation(N_ITEMS)[: 2 * N_PAIRS].reshape(N_PAIRS, 2)
    companion = {}
    for a, b in pairs:
        companion[int(a)] = int(b)
        companion[int(b)] = int(a)

    baskets = []
    for _ in range(n_baskets):
        size = min(1 + rng.poisson(SIZE_LAMBDA), MAX_BASKET)
        basket: list[int] = []
        weights = popularity.copy()
        while len(basket) < size:
            last = basket[-1] if basket else None
            partner = companion.get(last)
            if partner is not None and partner not in basket and rng.random() < PAIR_PROB:
                item = partner
            else:
                item = int(rng.choice(N_ITEMS, p=weights / weights.sum()))
            basket.append(item)
            weights[item] = 0.0
        baskets.append(basket)

    for extreme in (0, N_ITEMS - 1):
        if not any(extreme in b for b in baskets):
            baskets[0].append(extreme)
    return baskets


def write_transactions(path, baskets: list[list[int]]) -> None:
    with open(path, "w") as fh:
        for tid, basket in enumerate(baskets, start=1):
            fh.write(", ".join(str(v) for v in [tid, *basket]) + "\n")
