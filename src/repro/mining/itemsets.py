"""Transaction database and itemset primitives shared by all miners.

Group discovery in VEXUS (§II-A) runs frequent-itemset miners over user
transactions: each user is one transaction whose items are demographic
tokens (``gender=female``) and action tokens (``item:The Hobbit``).  A
frequent (closed) itemset *is* a user group — the itemset is the group's
description and its supporting transactions are the members.

:class:`TransactionDB` stores the transactions as two CSR tables on numpy
arrays — per-transaction token rows and per-token sorted tid-lists; every
miner in this package works off it.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from repro.data.vocab import Vocab


@dataclass(frozen=True)
class FrequentItemset:
    """A mined itemset: token codes, support and supporting transactions."""

    items: tuple[int, ...]
    support: int
    tids: np.ndarray  # sorted transaction ids

    def labels(self, vocab: Vocab) -> tuple[str, ...]:
        """Human-readable item labels (group description)."""
        return tuple(vocab.label(item) for item in self.items)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrequentItemset):
            return NotImplemented
        return self.items == other.items and self.support == other.support

    def __hash__(self) -> int:
        return hash((self.items, self.support))


class TransactionDB:
    """Transaction database held in both orientations as CSR tables.

    ``transactions`` is a list of (possibly unsorted) token-code iterables;
    duplicate tokens within one transaction are collapsed.

    The horizontal table (``indptr``, ``indices``) stores each
    transaction's sorted token codes contiguously: transaction ``tid`` is
    ``indices[indptr[tid]:indptr[tid + 1]]``.  The vertical table stores
    each token's sorted tid-list the same way.  Both are built once, in
    O(nnz) memory — there is no dense transactions x tokens matrix, so a
    278,858-user BookCrossing population stays cheap.  Closures and
    extension supports are read off one ``bincount`` over the gathered
    rows (:meth:`token_counts`).
    """

    def __init__(
        self,
        transactions: Sequence[Iterable[int]],
        vocab: Vocab | None = None,
    ) -> None:
        self.vocab = vocab
        rows = [list(transaction) for transaction in transactions]
        self.n_transactions = len(rows)
        lengths = np.fromiter((len(row) for row in rows), dtype=np.int64, count=len(rows))
        tokens = np.fromiter(
            chain.from_iterable(rows), dtype=np.int64, count=int(lengths.sum())
        )
        if len(tokens) and int(tokens.min()) < 0:
            raise ValueError("negative token code in transaction")
        owners = np.repeat(np.arange(self.n_transactions, dtype=np.int64), lengths)
        # Sort entries by (tid, token) and drop repeats within a transaction.
        order = np.lexsort((tokens, owners))
        tokens, owners = tokens[order], owners[order]
        keep = np.ones(len(tokens), dtype=bool)
        keep[1:] = (tokens[1:] != tokens[:-1]) | (owners[1:] != owners[:-1])
        tokens, owners = tokens[keep], owners[keep]
        self.n_tokens = int(tokens.max()) + 1 if len(tokens) else 0
        self.indptr = np.zeros(self.n_transactions + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(owners, minlength=self.n_transactions), out=self.indptr[1:]
        )
        self.indices = tokens
        # Vertical table: a stable sort by token keeps each tid-list sorted.
        by_token = np.argsort(tokens, kind="stable")
        self._tid_indptr = np.zeros(self.n_tokens + 1, dtype=np.int64)
        np.cumsum(np.bincount(tokens, minlength=self.n_tokens), out=self._tid_indptr[1:])
        self._tid_indices = owners[by_token]

    def transaction(self, tid: int) -> np.ndarray:
        """Sorted token codes of one transaction (a view into the table)."""
        return self.indices[self.indptr[tid] : self.indptr[tid + 1]]

    def tids_of(self, token: int) -> np.ndarray:
        """Sorted tids containing ``token`` (empty if out of range)."""
        if 0 <= token < self.n_tokens:
            return self._tid_indices[self._tid_indptr[token] : self._tid_indptr[token + 1]]
        return np.empty(0, dtype=np.int64)

    def support(self, token: int) -> int:
        """Number of transactions containing a single token."""
        return len(self.tids_of(token))

    def tids_of_itemset(self, items: Iterable[int]) -> np.ndarray:
        """Sorted tids containing *every* item (intersection of tid-lists).

        Intersects the rarest lists first so the working set shrinks fast.
        """
        item_list = sorted(set(items), key=self.support)
        if not item_list:
            return np.arange(self.n_transactions, dtype=np.int64)
        tids = self.tids_of(item_list[0])
        for item in item_list[1:]:
            if len(tids) == 0:
                break
            tids = np.intersect1d(tids, self.tids_of(item), assume_unique=True)
        return tids

    def support_of_itemset(self, items: Iterable[int]) -> int:
        """Number of transactions containing every item."""
        return len(self.tids_of_itemset(items))

    def token_counts(self, tids: np.ndarray) -> np.ndarray:
        """How many of the transactions ``tids`` contain each token.

        Gathers the rows of ``tids`` from the horizontal table and counts
        their tokens with one ``bincount``; the result has length
        ``n_tokens``.
        """
        tids = np.asarray(tids, dtype=np.int64)
        starts = self.indptr[tids]
        lengths = self.indptr[tids + 1] - starts
        # Entry positions of every gathered row, laid end to end.
        offsets = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
        positions = offsets + np.arange(len(offsets), dtype=np.int64)
        return np.bincount(self.indices[positions], minlength=self.n_tokens)

    def closure(self, tids: np.ndarray) -> np.ndarray:
        """Tokens present in *all* of the given transactions (sorted).

        This is the closure operator of formal concept analysis: the unique
        maximal itemset shared by ``tids``.  Empty ``tids`` closes to every
        token (convention: returns all tokens, the top of the lattice).
        """
        if len(tids) == 0:
            return np.arange(self.n_tokens, dtype=np.int64)
        return np.flatnonzero(self.token_counts(tids) == len(tids))

    def frequent_tokens(self, min_support: int) -> list[int]:
        """Tokens with support >= ``min_support``, ascending code order."""
        supports = np.diff(self._tid_indptr)
        return [int(token) for token in np.flatnonzero(supports >= min_support)]

    def __len__(self) -> int:
        return self.n_transactions

    def __repr__(self) -> str:
        return (
            f"TransactionDB({self.n_transactions} transactions, "
            f"{self.n_tokens} tokens)"
        )


def brute_force_closed(
    db: TransactionDB, min_support: int
) -> list[FrequentItemset]:
    """Reference oracle: all frequent closed itemsets by exhaustive closure.

    Exponential — only usable on tiny databases; exists so property tests
    can check LCM's output exactly.
    """
    seen: dict[tuple[int, ...], FrequentItemset] = {}
    tokens = db.frequent_tokens(min_support)
    for size in range(0, len(tokens) + 1):
        for candidate in combinations(tokens, size):
            tids = db.tids_of_itemset(candidate)
            if len(tids) < min_support:
                continue
            closed = tuple(int(token) for token in db.closure(tids))
            if closed not in seen:
                seen[closed] = FrequentItemset(closed, len(tids), tids)
    return sorted(seen.values(), key=lambda itemset: (len(itemset.items), itemset.items))
