"""Cross-session result sharing: who may be served, and what is never shared.

A session whose click repeats inputs another session on the same runtime
already converged on (pool, relevant set, feedback content, prior key,
config, store epoch) is answered from the shared result layer of
:class:`~repro.core.runtime.SharedSelectionCache` without running
selection.  The contracts checked here:

- a second session replaying an untimed walk is served every step as a
  ``"hit"``, with displays bitwise-equal to a solo session that has no
  shared layer at all;
- only deterministic results are published: a budget-aborted click and
  a governed click never reach the shared layer;
- the epoch rule: a session pinned to a new store epoch is never served
  an entry published under an older one, even for an identical key.
"""

import numpy as np
import pytest

from repro.core.discovery import DiscoveryConfig, discover_groups
from repro.core.group import Group, GroupDelta
from repro.core.poolcache import PoolStatsCache
from repro.core.runtime import GroupSpaceRuntime, SharedSelectionCache
from repro.core.selection import SelectionConfig, select_k
from repro.core.session import SessionConfig
from repro.data.generators.dbauthors import DBAuthorsConfig, generate_dbauthors


@pytest.fixture(scope="module")
def space():
    data = generate_dbauthors(DBAuthorsConfig(n_authors=160, seed=31))
    return discover_groups(
        data.dataset,
        DiscoveryConfig(method="lcm", min_support=0.08, max_description=3),
    )


def untimed_config() -> SessionConfig:
    return SessionConfig(k=5, time_budget_ms=None, use_profile=False)


def walk(session, clicks: int = 3) -> tuple[list[list[int]], list[str]]:
    """Click the first unvisited slot; (displays, per-step cache states)."""
    shown = session.start()
    displays = [[group.gid for group in shown]]
    states = [session.last_selection.cache_state]
    visited: set[int] = set()
    for _ in range(clicks):
        gid = next(
            (group.gid for group in shown if group.gid not in visited),
            shown[0].gid,
        )
        visited.add(gid)
        shown = session.click(gid)
        displays.append([group.gid for group in shown])
        states.append(session.last_selection.cache_state)
    return displays, states


def make_pool(seed: int = 5, count: int = 24) -> list[Group]:
    rng = np.random.default_rng(seed)
    return [
        Group(
            gid,
            (f"a=v{gid % 4}",),
            np.unique(rng.choice(80, size=int(rng.integers(4, 20)))),
        )
        for gid in range(count)
    ]


class TestSharedHits:
    def test_second_session_is_served_the_first_sessions_results(self, space):
        solo = GroupSpaceRuntime(space, share_cache=False).create_session(
            untimed_config()
        )
        expected, _ = walk(solo)
        runtime = GroupSpaceRuntime(space)
        first_displays, first_states = walk(runtime.create_session(untimed_config()))
        assert "hit" not in first_states
        second = runtime.create_session(untimed_config())
        displays, states = walk(second)
        assert states == ["hit"] * len(states)
        assert first_displays == displays == expected
        stats = second.pool_cache.stats()
        assert stats["shared_result_hits"] == stats["result_hits"] == len(states)

    def test_result_capacity_zero_turns_sharing_off(self):
        shared = SharedSelectionCache()
        pool = make_pool()
        relevant = np.arange(80)
        config = SelectionConfig(k=4, time_budget_ms=None)
        select_k(pool, relevant, config=config, cache=PoolStatsCache(shared=shared))
        assert shared.stats()["result_entries"] == 1
        off = PoolStatsCache(result_capacity=0, shared=shared)
        result = select_k(pool, relevant, config=config, cache=off)
        assert result.cache_state != "hit"


class TestNeverShared:
    def test_budget_aborted_click_is_not_published(self):
        shared = SharedSelectionCache()
        pool = make_pool()
        relevant = np.arange(80)
        config = SelectionConfig(k=4, time_budget_ms=5.0)
        ticks = iter(range(10_000))

        def clock() -> float:
            # Every read advances 4 ms: the 5 ms deadline expires during
            # the greedy phase, long before the swaps could converge.
            return next(ticks) * 0.004

        cache = PoolStatsCache(shared=shared)
        aborted = select_k(pool, relevant, config=config, clock=clock, cache=cache)
        assert aborted.phases_completed < 3
        assert shared.stats()["result_entries"] == 0
        # The session's own memo still holds it; another session does not
        # see it and recomputes under its own (real) clock.
        assert cache.stats()["result_misses"] == 1 and len(cache._results) == 1
        other = select_k(
            pool, relevant, config=config, cache=PoolStatsCache(shared=shared)
        )
        assert other.cache_state != "hit"

    def test_governed_click_is_not_published(self):
        shared = SharedSelectionCache()
        pool = make_pool()
        relevant = np.arange(80)
        config = SelectionConfig(k=4, time_budget_ms=None, governor=True)
        governed = select_k(
            pool, relevant, config=config, cache=PoolStatsCache(shared=shared)
        )
        assert governed.phases_completed == 3
        assert shared.stats()["result_entries"] == 0
        other = select_k(
            pool, relevant, config=config, cache=PoolStatsCache(shared=shared)
        )
        assert other.cache_state != "hit"


class TestEpochRule:
    def test_new_epoch_session_never_served_old_epoch_entries(self, space):
        runtime = GroupSpaceRuntime(space)
        pinned = runtime.create_session(untimed_config())
        old_displays, _ = walk(pinned)
        shared = runtime.shared
        old_keys = {key for epoch, key in shared._results if epoch == 0}
        assert old_keys
        # Add one singleton group: no existing group's content or gid
        # moves, so the new epoch's sessions compute the very same memo
        # keys the old epoch published.
        runtime.apply_deltas(GroupDelta.build(added=[(("synthetic:one",), np.array([0]))]))
        assert runtime.epoch == 1

        lookups: list[tuple] = []
        original = shared.lookup_result

        def recording(key, epoch, version):
            found = original(key, epoch, version)
            lookups.append((key, epoch, found))
            return found

        shared.lookup_result = recording
        fresh = runtime.create_session(untimed_config())
        displays, states = walk(fresh)
        assert "hit" not in states
        repeated = [entry for entry in lookups if entry[0] in old_keys]
        assert repeated, "the walk never repeated an old-epoch key"
        assert all(epoch == 1 and found is None for _, epoch, found in repeated)
        solo = GroupSpaceRuntime(runtime.space, share_cache=False).create_session(
            untimed_config()
        )
        assert displays == walk(solo)[0]
        # The session still pinned to epoch 0 keeps being served its epoch.
        twin = runtime.create_session(untimed_config())
        twin.rebind_epoch(pinned.epoch)
        twin_displays, twin_states = walk(twin)
        assert twin_displays == old_displays
        assert twin_states == ["hit"] * len(twin_states)
