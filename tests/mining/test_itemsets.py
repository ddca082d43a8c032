"""Unit tests for the vertical transaction database."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mining.itemsets import FrequentItemset, TransactionDB, brute_force_closed


@pytest.fixture
def db():
    return TransactionDB([[0, 1], [0, 1, 2], [2], [0, 2], []])


class TestTransactionDB:
    def test_shape(self, db):
        assert len(db) == 5
        assert db.n_tokens == 3

    def test_support(self, db):
        assert db.support(0) == 3
        assert db.support(1) == 2
        assert db.support(2) == 3
        assert db.support(99) == 0

    def test_tids_sorted(self, db):
        assert db.tids_of(0).tolist() == [0, 1, 3]

    def test_duplicate_tokens_collapsed(self):
        db = TransactionDB([[1, 1, 1]])
        assert db.support(1) == 1

    def test_negative_token_rejected(self):
        with pytest.raises(ValueError):
            TransactionDB([[-1]])

    def test_itemset_tids_intersection(self, db):
        assert db.tids_of_itemset([0, 1]).tolist() == [0, 1]
        assert db.tids_of_itemset([0, 2]).tolist() == [1, 3]
        assert db.tids_of_itemset([0, 1, 2]).tolist() == [1]

    def test_empty_itemset_is_all_transactions(self, db):
        assert db.tids_of_itemset([]).tolist() == [0, 1, 2, 3, 4]

    def test_closure(self, db):
        # Transactions containing {1}: 0 and 1; both also contain 0.
        assert db.closure(db.tids_of_itemset([1])).tolist() == [0, 1]

    def test_closure_of_empty_tids_is_everything(self, db):
        assert db.closure(np.empty(0, dtype=np.int64)).tolist() == [0, 1, 2]

    def test_frequent_tokens(self, db):
        assert db.frequent_tokens(3) == [0, 2]
        assert db.frequent_tokens(1) == [0, 1, 2]


class TestClosureOracle:
    """``closure`` against a plain set intersection, independent of LCM.

    The LCM property tests compare ``mine_closed`` with
    ``brute_force_closed``, and both call ``db.closure``; this oracle is
    what keeps a wrong closure from passing on both sides.
    """

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=9), max_size=7),
            min_size=1,
            max_size=16,
        ),
        st.data(),
    )
    def test_closure_is_set_intersection(self, transactions, data):
        db = TransactionDB(transactions)
        tids = sorted(
            data.draw(
                st.sets(st.integers(min_value=0, max_value=len(transactions) - 1))
            )
        )
        if tids:
            expected = set.intersection(*(set(transactions[tid]) for tid in tids))
        else:
            # Empty tids close to every token: the top of the lattice.
            expected = set(range(db.n_tokens))
        got = db.closure(np.asarray(tids, dtype=np.int64))
        assert got.tolist() == sorted(expected)
        for tid in tids:
            assert db.transaction(tid).tolist() == sorted(set(transactions[tid]))


class TestBruteForce:
    def test_known_closed_sets(self, db):
        closed = brute_force_closed(db, 2)
        as_pairs = {(itemset.items, itemset.support) for itemset in closed}
        assert ((), 5) in as_pairs  # closure of everything is empty here
        assert ((0,), 3) in as_pairs
        assert ((2,), 3) in as_pairs
        assert ((0, 1), 2) in as_pairs
        assert ((0, 2), 2) in as_pairs
        # {1} is not closed: every transaction with 1 also has 0.
        assert all(itemset.items != (1,) for itemset in closed)


class TestFrequentItemset:
    def test_labels(self):
        from repro.data.vocab import Vocab

        vocab = Vocab(["a", "b"])
        itemset = FrequentItemset((0, 1), 3, np.array([0, 1, 2]))
        assert itemset.labels(vocab) == ("a", "b")

    def test_equality_ignores_tids(self):
        left = FrequentItemset((0,), 2, np.array([0, 1]))
        right = FrequentItemset((0,), 2, np.array([5, 6]))
        assert left == right
        assert hash(left) == hash(right)
