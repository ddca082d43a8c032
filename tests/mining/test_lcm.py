"""LCM correctness: exact agreement with the brute-force closed-set oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mining.itemsets import TransactionDB, brute_force_closed
from repro.mining.lcm import LCMConfig, LCMStats, mine_closed

transactions_strategy = st.lists(
    st.lists(st.integers(min_value=0, max_value=7), max_size=6),
    min_size=1,
    max_size=14,
)


class TestLCMKnownCases:
    def test_single_transaction(self):
        db = TransactionDB([[0, 1, 2]])
        closed = mine_closed(db, LCMConfig(min_support=1))
        assert [(c.items, c.support) for c in closed] == [((0, 1, 2), 1)]

    def test_classic_example(self):
        # A standard textbook database.
        db = TransactionDB(
            [[0, 1, 4], [1, 2], [0, 1, 3], [0, 2], [0, 1, 2, 4], [2]]
        )
        closed = mine_closed(db, LCMConfig(min_support=2))
        reference = brute_force_closed(db, 2)
        assert [(c.items, c.support) for c in closed] == [
            (r.items, r.support) for r in reference
        ]

    def test_min_support_filters_everything(self):
        db = TransactionDB([[0], [1]])
        assert mine_closed(db, LCMConfig(min_support=3)) == []

    def test_tids_are_correct(self):
        db = TransactionDB([[0, 1], [0], [0, 1]])
        closed = mine_closed(db, LCMConfig(min_support=1))
        by_items = {c.items: c for c in closed}
        assert by_items[(0, 1)].tids.tolist() == [0, 2]
        assert by_items[(0,)].tids.tolist() == [0, 1, 2]

    def test_max_items_caps_descriptions(self):
        db = TransactionDB([[0, 1, 2, 3], [0, 1, 2, 3], [0, 1]])
        closed = mine_closed(db, LCMConfig(min_support=1, max_items=2))
        assert all(len(c.items) <= 2 for c in closed)

    def test_max_results_stops_early(self):
        db = TransactionDB([[i] for i in range(6)] * 2)
        closed = mine_closed(db, LCMConfig(min_support=1, max_results=3))
        assert len(closed) == 3

    def test_stats_counters_populated(self):
        stats = LCMStats()
        db = TransactionDB([[0, 1], [0, 1, 2], [2], [0, 2]])
        mine_closed(db, LCMConfig(min_support=1, stats=stats))
        assert stats.closed_found > 0
        assert stats.extensions_tried >= stats.closed_found - 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LCMConfig(min_support=0)
        with pytest.raises(ValueError):
            LCMConfig(max_items=0)

    def test_empty_database(self):
        db = TransactionDB([])
        assert mine_closed(db, LCMConfig(min_support=1)) == []

    def test_deterministic_order(self):
        db = TransactionDB([[2, 5], [2, 5, 1], [1], [2]])
        first = mine_closed(db, LCMConfig(min_support=1))
        second = mine_closed(db, LCMConfig(min_support=1))
        assert [c.items for c in first] == [c.items for c in second]


class TestLCMProperties:
    @settings(max_examples=60, deadline=None)
    @given(transactions_strategy, st.integers(min_value=1, max_value=4))
    def test_matches_brute_force(self, transactions, min_support):
        db = TransactionDB(transactions)
        got = mine_closed(db, LCMConfig(min_support=min_support))
        expected = brute_force_closed(db, min_support)
        assert [(c.items, c.support) for c in got] == [
            (c.items, c.support) for c in expected
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        transactions_strategy,
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
    )
    def test_max_items_keeps_every_short_closed_set(
        self, transactions, min_support, max_items
    ):
        # A ppc child always has more items than its parent, so skipping
        # an over-long subtree never drops a short closed set.
        db = TransactionDB(transactions)
        got = mine_closed(db, LCMConfig(min_support=min_support, max_items=max_items))
        expected = [
            c for c in brute_force_closed(db, min_support) if len(c.items) <= max_items
        ]
        assert [(c.items, c.support) for c in got] == [
            (c.items, c.support) for c in expected
        ]

    @settings(max_examples=60, deadline=None)
    @given(transactions_strategy, st.integers(min_value=1, max_value=4))
    def test_stats_account_for_every_extension(self, transactions, min_support):
        # Uncapped, every tried extension is rejected for support, rejected
        # by the ppc check, or becomes a closed node (all but the root).
        stats = LCMStats()
        db = TransactionDB(transactions)
        closed = mine_closed(db, LCMConfig(min_support=min_support, stats=stats))
        assert stats.closed_found == len(closed)
        if closed:
            assert stats.extensions_tried == (
                stats.support_rejections + stats.ppc_rejections + stats.closed_found - 1
            )

    @settings(max_examples=40, deadline=None)
    @given(transactions_strategy)
    def test_all_outputs_are_closed(self, transactions):
        db = TransactionDB(transactions)
        for itemset in mine_closed(db, LCMConfig(min_support=1)):
            closure = db.closure(db.tids_of_itemset(itemset.items))
            assert tuple(int(t) for t in closure) == itemset.items

    @settings(max_examples=40, deadline=None)
    @given(transactions_strategy)
    def test_supports_are_exact(self, transactions):
        db = TransactionDB(transactions)
        for itemset in mine_closed(db, LCMConfig(min_support=1)):
            assert itemset.support == db.support_of_itemset(itemset.items)
            assert len(itemset.tids) == itemset.support
            assert np.array_equal(itemset.tids, db.tids_of_itemset(itemset.items))
