"""The session pool cache must be invisible in every output.

Three families of properties:

- **transparency** — for hypothesis-generated pools / weights / feedback /
  overlap patterns, the four engine/cache combinations (reference oracle,
  plain celf, celf + cold cache, celf + warm cache) return identical
  displays, and no sequence of hits changes a single score;
- **invalidation** — mutating the store or re-running discovery changes the
  content fingerprints and *must* miss (stale ``_PoolStats`` reuse is the
  scariest failure mode a cache like this can have);
- **bounds** — capacity eviction keeps long sessions in bounded memory.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.feedback import FeedbackVector
from repro.core.group import Group
from repro.core.poolcache import (
    PoolStatsCache,
    group_fingerprint,
    pool_fingerprint,
    relevant_fingerprint,
)
from repro.core.selection import SelectionConfig, select_k

UNIVERSE = 60
ATTRIBUTES = ("gender", "age", "city", "favorite_genre")
TOKENS = tuple(
    f"{attribute}=v{value}" for attribute in ATTRIBUTES for value in range(3)
) + ("item:The Hobbit", "item:Dune")


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

members_sets = st.sets(st.integers(0, UNIVERSE - 1), min_size=0, max_size=20)
descriptions = st.lists(st.sampled_from(TOKENS), min_size=1, max_size=3)


@st.composite
def pools(draw, min_groups=2, max_groups=14):
    """Random candidate pools, biased toward heavy member overlap."""
    count = draw(st.integers(min_groups, max_groups))
    # A shared base set makes neighboring groups overlap the way inverted
    # index neighborhoods do.
    base = sorted(draw(members_sets))
    groups = []
    for gid in range(count):
        own = draw(members_sets)
        if draw(st.booleans()):
            own = own | set(base)
        members = np.array(sorted(own), dtype=np.int64)
        groups.append(Group(gid, tuple(draw(descriptions)), members))
    return groups


@st.composite
def relevants(draw):
    return np.array(sorted(draw(members_sets)), dtype=np.int64)


@st.composite
def feedback_vectors(draw):
    """None, or a vector trained on a few random groups."""
    rounds = draw(st.integers(0, 3))
    if rounds == 0:
        return None
    feedback = FeedbackVector()
    for _ in range(rounds):
        members = np.array(sorted(draw(members_sets)), dtype=np.int64)
        tokens = draw(descriptions)
        if len(members) or tokens:
            feedback.learn_group(members, tokens)
    return feedback


weight_values = st.sampled_from([0.0, 0.25, 0.5, 1.0])


@st.composite
def objective_weights(draw):
    return {
        "diversity_weight": draw(weight_values),
        "coverage_weight": draw(weight_values),
        "feedback_weight": draw(weight_values),
        "description_diversity_weight": draw(weight_values),
    }


def untimed(engine="celf", **kwargs):
    return SelectionConfig(time_budget_ms=None, engine=engine, **kwargs)


def assert_same_display(result, baseline):
    assert result.gids() == baseline.gids()
    assert result.score == pytest.approx(baseline.score, abs=1e-9)
    assert result.diversity == pytest.approx(baseline.diversity, abs=1e-9)
    assert result.coverage == pytest.approx(baseline.coverage, abs=1e-9)
    assert result.affinity == pytest.approx(baseline.affinity, abs=1e-9)


# ---------------------------------------------------------------------------
# transparency
# ---------------------------------------------------------------------------


class TestFourWayParity:
    @settings(deadline=None)
    @given(pools(), relevants(), feedback_vectors(), objective_weights(), st.integers(1, 6))
    def test_all_engine_cache_combinations_agree(
        self, pool, relevant, feedback, weights, k
    ):
        reference = select_k(
            pool, relevant, feedback, untimed("reference", k=k, **weights)
        )
        config = untimed("celf", k=k, **weights)
        plain = select_k(pool, relevant, feedback, config)
        cache = PoolStatsCache()
        cold = select_k(pool, relevant, feedback, config, cache=cache)
        warm = select_k(pool, relevant, feedback, config, cache=cache)
        assert_same_display(plain, reference)
        assert_same_display(cold, reference)
        assert_same_display(warm, reference)
        assert cold.cache_state == "miss"
        assert warm.cache_state == "hit"

    @settings(deadline=None)
    @given(pools(), relevants(), st.integers(1, 5))
    def test_cache_hits_never_change_scores(self, pool, relevant, k):
        # Feedback evolves between calls, so the structure layer is reused
        # while the weight layers recompute — still score-identical.
        config = untimed(k=k)
        cache = PoolStatsCache()
        feedback = FeedbackVector()
        feedback.learn_group(pool[0].members, pool[0].description)
        first_fresh = select_k(pool, relevant, feedback, config)
        first_cached = select_k(pool, relevant, feedback, config, cache=cache)
        assert_same_display(first_cached, first_fresh)
        feedback.learn_group(pool[-1].members, pool[-1].description)
        second_fresh = select_k(pool, relevant, feedback, config)
        second_cached = select_k(pool, relevant, feedback, config, cache=cache)
        # Usually a "warm" structure reuse; a degenerate learn that leaves
        # the vector content-identical may legitimately be a full "hit".
        # Either way the display must match a fresh computation exactly.
        assert second_cached.cache_state != "off"
        assert_same_display(second_cached, second_fresh)

    @settings(deadline=None)
    @given(pools(min_groups=3), relevants(), st.randoms(use_true_random=False))
    def test_permuted_pools_reuse_and_agree(self, pool, relevant, rnd):
        # Profile re-ranking permutes pools without changing content; the
        # permuted structure must score exactly like a fresh build.
        config = untimed(k=3)
        cache = PoolStatsCache()
        select_k(pool, relevant, config=config, cache=cache)
        shuffled = list(pool)
        rnd.shuffle(shuffled)
        cached = select_k(shuffled, relevant, config=config, cache=cache)
        fresh = select_k(shuffled, relevant, config=config)
        assert_same_display(cached, fresh)
        if shuffled != pool:
            assert cache.structure_misses == 1  # served by permutation, not rebuild

    @settings(deadline=None)
    @given(pools(), relevants(), feedback_vectors())
    def test_overlapping_pools_patch_jaccard_pairs_exactly(
        self, pool, relevant, feedback
    ):
        # A subset pool (simulating a neighboring click) is a different
        # structure with its own Jaccard columns; scores must not drift.
        config = untimed(k=3)
        cache = PoolStatsCache()
        select_k(pool, relevant, feedback, config, cache=cache)
        subset = pool[: max(2, len(pool) // 2)]
        cached = select_k(subset, relevant, feedback, config, cache=cache)
        fresh = select_k(subset, relevant, feedback, config)
        assert_same_display(cached, fresh)


class TestResultMemo:
    def make_pool(self, seed=3, count=16):
        rng = np.random.default_rng(seed)
        return [
            Group(
                gid,
                (TOKENS[int(rng.integers(len(TOKENS)))],),
                np.unique(rng.choice(UNIVERSE, size=int(rng.integers(3, 20)))),
            )
            for gid in range(count)
        ]

    def test_hit_returns_equal_display_and_marks_state(self):
        pool = self.make_pool()
        cache = PoolStatsCache()
        config = untimed(k=4)
        relevant = np.arange(UNIVERSE)
        first = select_k(pool, relevant, config=config, cache=cache)
        second = select_k(pool, relevant, config=config, cache=cache)
        assert second.cache_state == "hit"
        assert second.gids() == first.gids()
        assert second.score == first.score
        assert cache.result_hits == 1

    def test_hit_result_is_isolated_from_caller_mutation(self):
        pool = self.make_pool()
        cache = PoolStatsCache()
        config = untimed(k=4)
        relevant = np.arange(UNIVERSE)
        first = select_k(pool, relevant, config=config, cache=cache)
        expected = first.gids()
        first.groups.clear()  # caller mangles its copy
        second = select_k(pool, relevant, config=config, cache=cache)
        assert second.gids() == expected

    def test_config_change_misses(self):
        pool = self.make_pool()
        cache = PoolStatsCache()
        relevant = np.arange(UNIVERSE)
        select_k(pool, relevant, config=untimed(k=4), cache=cache)
        other = select_k(pool, relevant, config=untimed(k=5), cache=cache)
        assert other.cache_state != "hit"

    def test_feedback_content_restoration_hits(self):
        # The HISTORY gesture: snapshot, mutate, restore — the restored
        # vector is content-equal, so the re-click is a result hit even
        # though the object mutated in between.
        pool = self.make_pool()
        cache = PoolStatsCache()
        relevant = np.arange(UNIVERSE)
        config = untimed(k=4)
        feedback = FeedbackVector()
        feedback.learn_group(pool[0].members, pool[0].description)
        snapshot = feedback.snapshot()
        select_k(pool, relevant, feedback, config, cache=cache)
        feedback.learn_group(pool[1].members, pool[1].description)
        select_k(pool, relevant, feedback, config, cache=cache)
        feedback.restore(snapshot)
        replay = select_k(pool, relevant, feedback, config, cache=cache)
        assert replay.cache_state == "hit"

    def test_unkeyable_prior_skips_memo_but_still_reuses_structure(self):
        pool = self.make_pool()
        cache = PoolStatsCache()
        relevant = np.arange(UNIVERSE)
        config = untimed(k=4)

        def prior(group):
            return 0.01 * (group.gid % 3)

        first = select_k(pool, relevant, config=config, cache=cache, prior=prior)
        second = select_k(pool, relevant, config=config, cache=cache, prior=prior)
        fresh = select_k(pool, relevant, config=config, prior=prior)
        assert first.cache_state == "miss"
        assert second.cache_state == "warm"  # structure reused, no memo
        assert second.gids() == fresh.gids()

    def test_prior_key_enables_memo_and_key_change_misses(self):
        pool = self.make_pool()
        cache = PoolStatsCache()
        relevant = np.arange(UNIVERSE)
        config = untimed(k=4)

        def prior_a(group):
            return 0.01 * (group.gid % 3)

        def prior_b(group):
            return 0.02 * (group.gid % 5)

        select_k(pool, relevant, config=config, cache=cache, prior=prior_a, prior_key="a")
        hit = select_k(pool, relevant, config=config, cache=cache, prior=prior_a, prior_key="a")
        assert hit.cache_state == "hit"
        miss = select_k(pool, relevant, config=config, cache=cache, prior=prior_b, prior_key="b")
        assert miss.cache_state != "hit"
        assert miss.gids() == select_k(pool, relevant, config=config, prior=prior_b).gids()


# ---------------------------------------------------------------------------
# invalidation — the scariest failure mode is stale reuse
# ---------------------------------------------------------------------------


class TestInvalidation:
    def make_pool(self, seed=7, count=12):
        rng = np.random.default_rng(seed)
        return [
            Group(
                gid,
                (TOKENS[int(rng.integers(len(TOKENS)))],),
                np.unique(rng.choice(UNIVERSE, size=int(rng.integers(3, 20)))),
            )
            for gid in range(count)
        ]

    def test_in_place_member_mutation_fingerprint_misses(self):
        pool = self.make_pool()
        cache = PoolStatsCache()
        relevant = np.arange(UNIVERSE)
        config = untimed(k=4)
        before = group_fingerprint(pool[0])
        select_k(pool, relevant, config=config, cache=cache)
        # Mutate the store in place: same gid, same size, different users.
        pool[0].members[:] = (pool[0].members + 1) % UNIVERSE
        pool[0].members.sort()
        assert group_fingerprint(pool[0]) != before
        mutated = select_k(pool, relevant, config=config, cache=cache)
        fresh = select_k(pool, relevant, config=config)
        assert mutated.cache_state == "miss"
        assert mutated.gids() == fresh.gids()
        assert mutated.score == pytest.approx(fresh.score, abs=1e-9)

    def test_rediscovered_space_fingerprint_misses(self):
        # Re-running discovery yields new Group objects under the same
        # gids; content differs, so every layer must rebuild.
        pool = self.make_pool(seed=7)
        rediscovered = self.make_pool(seed=8)
        assert [g.gid for g in pool] == [g.gid for g in rediscovered]
        cache = PoolStatsCache()
        relevant = np.arange(UNIVERSE)
        config = untimed(k=4)
        select_k(pool, relevant, config=config, cache=cache)
        result = select_k(rediscovered, relevant, config=config, cache=cache)
        fresh = select_k(rediscovered, relevant, config=config)
        assert result.cache_state == "miss"
        assert result.gids() == fresh.gids()
        assert result.score == pytest.approx(fresh.score, abs=1e-9)

    def test_relevant_change_misses(self):
        pool = self.make_pool()
        cache = PoolStatsCache()
        config = untimed(k=4)
        select_k(pool, np.arange(UNIVERSE), config=config, cache=cache)
        result = select_k(pool, np.arange(0, UNIVERSE, 2), config=config, cache=cache)
        assert result.cache_state == "miss"
        fresh = select_k(pool, np.arange(0, UNIVERSE, 2), config=config)
        assert result.gids() == fresh.gids()

    def test_stale_space_matrix_is_never_trusted(self):
        # A session-level space matrix that no longer matches the groups
        # (mutated store) must be rejected by row validation, not sliced.
        from repro.core.similarity import membership_matrix

        pool = self.make_pool()
        matrix = membership_matrix([g.members for g in pool], UNIVERSE)
        pool[2].members[:] = (pool[2].members + 3) % UNIVERSE
        pool[2].members.sort()
        cache = PoolStatsCache(space_matrix=matrix)
        config = untimed(k=4)
        cached = select_k(pool, np.arange(UNIVERSE), config=config, cache=cache)
        fresh = select_k(pool, np.arange(UNIVERSE), config=config)
        assert cached.gids() == fresh.gids()
        assert cached.score == pytest.approx(fresh.score, abs=1e-9)

    def test_fingerprint_helpers_are_content_sensitive(self):
        members = np.arange(10, dtype=np.int64)
        group = Group(0, ("age=v1",), members.copy())
        same = Group(0, ("age=v1",), members.copy())
        different = Group(0, ("age=v1",), members + 1)
        assert group_fingerprint(group) == group_fingerprint(same)
        assert group_fingerprint(group) != group_fingerprint(different)
        assert pool_fingerprint([group]) == pool_fingerprint([same])
        assert relevant_fingerprint(members) == relevant_fingerprint(members.copy())
        assert relevant_fingerprint(members) != relevant_fingerprint(members[:-1])


# ---------------------------------------------------------------------------
# bounds — long sessions must hold bounded memory
# ---------------------------------------------------------------------------


class TestEviction:
    def make_pools(self, count, seed=11, groups=8):
        rng = np.random.default_rng(seed)
        result = []
        for _ in range(count):
            result.append(
                [
                    Group(
                        gid,
                        (TOKENS[int(rng.integers(len(TOKENS)))],),
                        np.unique(rng.choice(UNIVERSE, size=int(rng.integers(3, 15)))),
                    )
                    for gid in range(groups)
                ]
            )
        return result

    def test_capacity_bounds_structure_count(self):
        capacity = 3
        cache = PoolStatsCache(capacity=capacity, result_capacity=4)
        config = untimed(k=3)
        relevant = np.arange(UNIVERSE)
        distinct = self.make_pools(capacity + 4)
        for pool in distinct:
            select_k(pool, relevant, config=config, cache=cache)
        assert len(cache) <= capacity
        assert cache.evictions >= 4
        assert len(cache._results) <= 4

    def test_lru_evicts_oldest_and_reselect_rebuilds_correctly(self):
        cache = PoolStatsCache(capacity=2, result_capacity=2)
        config = untimed(k=3)
        relevant = np.arange(UNIVERSE)
        first, second, third = self.make_pools(3)
        select_k(first, relevant, config=config, cache=cache)
        select_k(second, relevant, config=config, cache=cache)
        select_k(third, relevant, config=config, cache=cache)  # evicts `first`
        result = select_k(first, relevant, config=config, cache=cache)
        assert result.cache_state == "miss"  # evicted, honestly rebuilt
        fresh = select_k(first, relevant, config=config)
        assert result.gids() == fresh.gids()

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            PoolStatsCache(capacity=0)
        with pytest.raises(ValueError):
            PoolStatsCache(result_capacity=-1)

    def test_clear_resets_everything(self):
        cache = PoolStatsCache()
        config = untimed(k=3)
        (pool,) = self.make_pools(1)
        select_k(pool, np.arange(UNIVERSE), config=config, cache=cache)
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0
        assert len(cache._results) == 0


# ---------------------------------------------------------------------------
# session integration
# ---------------------------------------------------------------------------


class TestSessionIntegration:
    @pytest.fixture(scope="class")
    def space(self):
        from repro.core.discovery import DiscoveryConfig, discover_groups
        from repro.data.generators.dbauthors import (
            DBAuthorsConfig,
            generate_dbauthors,
        )

        data = generate_dbauthors(DBAuthorsConfig(n_authors=150, seed=47))
        return discover_groups(
            data.dataset,
            DiscoveryConfig(method="lcm", min_support=0.1, max_description=2),
        )

    def test_cached_session_matches_uncached_session(self, space):
        from repro.core.session import ExplorationSession, SessionConfig

        def walk(cache_pools):
            session = ExplorationSession(
                space,
                config=SessionConfig(
                    k=5, time_budget_ms=None, cache_pools=cache_pools
                ),
            )
            shown = session.start()
            gids = [tuple(g.gid for g in shown)]
            for _ in range(4):
                shown = session.click(shown[0].gid)
                gids.append(tuple(g.gid for g in shown))
            return gids, session

        cached_gids, cached_session = walk(True)
        uncached_gids, uncached_session = walk(False)
        assert cached_gids == uncached_gids
        assert cached_session.pool_cache is not None
        assert uncached_session.pool_cache is None

    def test_backtrack_reclick_is_a_result_hit(self, space):
        from repro.core.session import ExplorationSession, SessionConfig

        session = ExplorationSession(
            space,
            config=SessionConfig(
                k=5, time_budget_ms=None, use_profile=False
            ),
        )
        shown = session.start()
        first = shown[0].gid
        session.click(first)
        session.backtrack(0)
        session.click(first)
        assert session.last_selection is not None
        assert session.last_selection.cache_state == "hit"

    def test_drill_down_touches_cache_and_returns_members(self, space):
        from repro.core.session import ExplorationSession, SessionConfig

        session = ExplorationSession(space, config=SessionConfig(k=5))
        shown = session.start()
        members = session.drill_down(shown[0].gid)
        assert np.array_equal(members, space[shown[0].gid].members)
        # The returned array is a copy — STATS cannot corrupt the store.
        if len(members):
            members[0] = -1
            assert space[shown[0].gid].members[0] != -1
