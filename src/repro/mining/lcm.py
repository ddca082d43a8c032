"""LCM: Linear-time Closed itemset Miner (Uno et al., FIMI 2003).

The paper's default offline group-discovery algorithm (§II-A, [16]).  LCM
enumerates every frequent **closed** itemset exactly once using
*prefix-preserving closure extension* (ppc-extension): from a closed itemset
``P`` it extends with an item ``i`` greater than the core index, closes the
result, and recurses only when the closure did not introduce any item below
``i`` — which makes the enumeration a tree (no duplicate detection table
needed) and the total work linear in the number of closed itemsets.

Each enumerated itemset carries the token-count vector of its supporting
transactions (:meth:`TransactionDB.token_counts`).  That one vector answers
both questions a node asks: its closure is the tokens counted in every
transaction, and the support of each extension ``P + i`` is the count of
``i``.  Infrequent and already-present extensions are therefore filtered in
one vector step; only the survivors pay a tid-list intersection and one
gather + ``bincount`` for the child's own vector.

Closed itemsets are exactly the group descriptions VEXUS wants: two
different itemsets with identical member sets collapse to the single maximal
description of that member set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.mining.itemsets import FrequentItemset, TransactionDB


@dataclass
class LCMStats:
    """Counters describing one LCM run (used by benchmarks)."""

    closed_found: int = 0
    extensions_tried: int = 0
    ppc_rejections: int = 0
    support_rejections: int = 0


@dataclass
class LCMConfig:
    """Bounds for an LCM run.

    ``max_items`` caps description length (groups with ten-token
    descriptions are unreadable in the UI); ``max_results`` is a safety
    valve against pathological universes.
    """

    min_support: int = 2
    max_items: Optional[int] = None
    max_results: Optional[int] = None
    stats: LCMStats = field(default_factory=LCMStats)

    def __post_init__(self) -> None:
        if self.min_support < 1:
            raise ValueError("min_support must be >= 1")
        if self.max_items is not None and self.max_items < 1:
            raise ValueError("max_items must be >= 1 when set")


def mine_closed(db: TransactionDB, config: Optional[LCMConfig] = None) -> list[FrequentItemset]:
    """All frequent closed itemsets of ``db`` (deterministic order).

    Returns itemsets sorted by (size, items).  The empty closed set (the
    closure of the full database) is included when the database itself is
    frequent — it is the root group "all users".

    The search is a depth-first ppc-extension walk.  A stack entry is
    ``(itemset, tids, counts, core)``: the closed itemset, its sorted
    supporting tids, their token-count vector, and the core item that
    produced it.  Because ``itemset`` is the closure of ``tids``, a token is
    in it exactly when its count equals ``len(tids)``, and an extension's
    support is its count — no per-transaction work is needed to pick the
    extensions worth intersecting.
    """
    config = config or LCMConfig()
    min_support = config.min_support
    results: list[FrequentItemset] = []
    if db.n_transactions < min_support:
        return results

    frequent = np.asarray(db.frequent_tokens(min_support), dtype=np.int64)
    all_tids = np.arange(db.n_transactions, dtype=np.int64)
    root_counts = db.token_counts(all_tids)
    root = np.flatnonzero(root_counts == len(all_tids))
    stack: list[tuple[np.ndarray, np.ndarray, np.ndarray, int]] = [
        (root, all_tids, root_counts, -1)
    ]

    while stack:
        itemset, tids, counts, core = stack.pop()
        if config.max_items is not None and len(itemset) > config.max_items:
            # The closure exceeded the cap: the itemset is still closed, but
            # its description is too long for the UI — skip it and its subtree.
            continue
        results.append(
            FrequentItemset(tuple(int(item) for item in itemset), len(tids), tids)
        )
        config.stats.closed_found += 1
        if config.max_results is not None and len(results) >= config.max_results:
            break
        if config.max_items is not None and len(itemset) >= config.max_items:
            # Every ppc child has more items than its parent, so a node at
            # the cap has no child to report: leave its extensions untried.
            continue

        # Extensions: frequent items above the core that are not in the
        # itemset (a token is in the closure iff every tid contains it).
        candidates = frequent[np.searchsorted(frequent, core, side="right") :]
        candidates = candidates[counts[candidates] < len(tids)]
        supported = candidates[counts[candidates] >= min_support]
        config.stats.extensions_tried += len(candidates)
        config.stats.support_rejections += len(candidates) - len(supported)
        for item in supported.tolist():
            new_tids = np.intersect1d(tids, db.tids_of(item), assume_unique=True)
            child_counts = db.token_counts(new_tids)
            closure = np.flatnonzero(child_counts == len(new_tids))
            # ppc-extension check: the closure may add no item below the
            # extension item.  It contains the parent itemset, so equal
            # prefix lengths mean equal prefixes.
            if np.count_nonzero(closure < item) != np.count_nonzero(itemset < item):
                config.stats.ppc_rejections += 1
                continue
            stack.append((closure, new_tids, child_counts, item))

    results.sort(key=lambda itemset: (len(itemset.items), itemset.items))
    return results
