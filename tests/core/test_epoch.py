"""Epoched online store mutation: the no-stop-the-world contract.

Four claims, matching the ``GroupSpaceRuntime.apply_deltas`` docstring:

- **epoch lineage** — every applied delta publishes a new
  :class:`~repro.core.runtime.StoreEpoch` whose ``parent_digest`` chains
  to its predecessor; ``resolve_digest`` finds retained generations and
  refuses evicted ones.
- **reader isolation** — sessions pin the epoch they were opened under:
  a mutation landing mid-session changes neither their displays nor
  their click trajectory (bitwise parity with a quiesced twin), while
  sessions opened *after* the swap see the mutated space.
- **index parity** — the delta-maintained similarity index is bitwise
  identical (serving prefix) to a full rebuild on the mutated space,
  fuzzed over random add/remove/churn mixes.
- **surgical invalidation** — the shared selection cache drops exactly the
  entries whose content fingerprints went stale; unrelated entries stay
  warm and the full-flush version counter does not move.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.discovery import DiscoveryConfig, discover_groups
from repro.core.group import GroupDelta
from repro.core.runtime import GroupSpaceRuntime, SessionManager
from repro.core.session import SessionConfig
from repro.core.store import load_epoch_lineage
from repro.data.generators.dbauthors import DBAuthorsConfig, generate_dbauthors
from repro.index.inverted import SimilarityIndex


@pytest.fixture(scope="module")
def space():
    data = generate_dbauthors(DBAuthorsConfig(n_authors=120, seed=9))
    return discover_groups(
        data.dataset,
        DiscoveryConfig(method="lcm", min_support=0.1, max_description=3),
    )


def untimed_config() -> SessionConfig:
    return SessionConfig(k=5, time_budget_ms=None, use_profile=False)


def churn_delta(space, seed: int, fraction: float = 0.02) -> GroupDelta:
    """Deterministic mixed delta: churn some groups, add one, remove one."""
    rng = np.random.default_rng(seed)
    n_users = space.dataset.n_users
    count = max(1, int(len(space) * fraction))
    gids = sorted(int(g) for g in rng.choice(len(space), count + 1, replace=False))
    removed = [gids.pop()]
    changed = []
    for gid in gids:
        members = space[gid].members
        if len(members) > 1 and rng.random() < 0.5:
            churned = np.delete(members, int(rng.integers(len(members))))
        else:
            churned = np.union1d(members, rng.integers(0, n_users, size=2))
        changed.append((gid, churned))
    added = [
        ((f"synthetic:{seed}",), np.sort(rng.choice(n_users, 6, replace=False)))
    ]
    return GroupDelta.build(added=added, removed=removed, changed=changed)


class TestEpochLineage:
    def test_reports_chain_digests(self, space):
        runtime = GroupSpaceRuntime(space, share_cache=False)
        genesis = runtime.current_epoch()
        first = runtime.apply_deltas(churn_delta(space, 1))
        second = runtime.apply_deltas(churn_delta(runtime.space, 2))
        assert (first["epoch"], second["epoch"]) == (1, 2)
        assert first["parent_digest"] == genesis.digest()
        assert second["parent_digest"] == first["digest"]
        assert first["added"] == 1 and first["removed"] == 1
        assert first["n_groups"] == len(space)  # one in, one out

    def test_empty_delta_publishes_nothing(self, space):
        runtime = GroupSpaceRuntime(space, share_cache=False)
        report = runtime.apply_deltas(GroupDelta.build())
        assert report["epoch"] == 0
        assert runtime.epoch == 0
        assert runtime.current_epoch().space is space

    def test_resolve_digest_honours_retention(self, space):
        runtime = GroupSpaceRuntime(space, share_cache=False, retain_epochs=2)
        genesis_digest = runtime.membership_digest()
        reports = [
            runtime.apply_deltas(churn_delta(runtime.space, seed))
            for seed in (3, 4)
        ]
        # Two retained epochs: the newest two; genesis fell off.
        assert runtime.resolve_digest(genesis_digest) is None
        for report in reports:
            resolved = runtime.resolve_digest(report["digest"])
            assert resolved is not None and resolved.number == report["epoch"]


class TestReaderIsolation:
    N_CLICKS = 3

    def _walk(self, manager, session_id, shown, mutate=None):
        from repro.core.runtime import scripted_click_gid

        displays = [[group.gid for group in shown]]
        visited: set[int] = set()
        for step in range(self.N_CLICKS):
            if mutate is not None:
                mutate(step)
            shown = manager.click(
                session_id, scripted_click_gid(shown, visited)
            )
            displays.append([group.gid for group in shown])
        return displays

    def test_pinned_session_is_parity_identical_to_quiesced(self, space):
        base_index = SimilarityIndex(space.memberships(), space.dataset.n_users)
        quiet = SessionManager(
            GroupSpaceRuntime(space, index=base_index),
            default_config=untimed_config(),
        )
        session_id, shown = quiet.open_session()
        expected = self._walk(quiet, session_id, shown)

        runtime = GroupSpaceRuntime(space, index=base_index)
        manager = SessionManager(runtime, default_config=untimed_config())
        session_id, shown = manager.open_session()

        def mutate(step):
            runtime.apply_deltas(churn_delta(runtime.space, 100 + step))

        assert self._walk(manager, session_id, shown, mutate) == expected
        assert runtime.epoch == self.N_CLICKS

    def test_sessions_opened_after_swap_see_the_new_space(self, space):
        runtime = GroupSpaceRuntime(space, share_cache=False)
        pinned = runtime.create_session(untimed_config())
        pinned.start()
        members = np.arange(8, dtype=np.int64)
        runtime.apply_deltas(
            GroupDelta.build(added=[(("fresh:group",), members)])
        )
        assert len(pinned.space) == len(space)  # old epoch, no new group
        fresh = runtime.create_session(untimed_config())
        assert len(fresh.space) == len(space) + 1
        assert fresh.space[len(space)].description == ("fresh:group",)


class TestIndexParity:
    def test_verify_oracle_accepts_delta_maintenance(self, space):
        runtime = GroupSpaceRuntime(space, share_cache=False)
        for seed in range(5):
            runtime.apply_deltas(churn_delta(runtime.space, seed), verify=True)
        oracle = SimilarityIndex(
            runtime.space.memberships(),
            space.dataset.n_users,
            materialize_fraction=runtime.index.materialize_fraction,
        )
        assert runtime.index.parity_with(oracle)

    @settings(deadline=None, max_examples=20)
    @given(seeds=st.lists(st.integers(0, 10_000), min_size=1, max_size=4))
    def test_fuzzed_delta_chains_match_full_rebuild(self, space, seeds):
        runtime = GroupSpaceRuntime(space, share_cache=False)
        for seed in seeds:
            fraction = 0.01 + (seed % 7) / 20.0  # 1% .. 31% churn steps
            runtime.apply_deltas(
                churn_delta(runtime.space, seed, fraction=fraction)
            )
        oracle = SimilarityIndex(
            runtime.space.memberships(),
            space.dataset.n_users,
            materialize_fraction=runtime.index.materialize_fraction,
        )
        assert runtime.index.parity_with(oracle)


class TestSurgicalInvalidation:
    def test_only_stale_fingerprints_dropped_and_version_unmoved(self, space):
        runtime = GroupSpaceRuntime(space)
        session = runtime.create_session(untimed_config())
        shown = session.start()
        session.click(shown[0].gid)
        shared = runtime.shared

        def entries() -> int:
            stats = shared.stats()
            return stats["structures"] + stats["result_entries"]

        # Churn one group that sits in exactly one of the two served
        # pools (start and click): that pool's entries go stale, the
        # other pool's entries must survive.
        pools = [{fingerprint[0] for fingerprint in key[0]} for key in shared._structures]
        assert len(pools) == 2
        gid = min((pools[1] - pools[0]) or (pools[0] - pools[1]))
        delta = GroupDelta.build(changed=[(gid, space[gid].members[:-1])])
        before_entries = entries()
        before_version = shared.version
        assert shared.stats()["result_entries"] == 2
        report = runtime.apply_deltas(delta)
        assert shared.version == before_version  # no full flush
        assert 0 < report["cache_entries_dropped"] < before_entries
        assert entries() == before_entries - report["cache_entries_dropped"]
        assert entries() > 0  # unrelated entries stay warm

    def test_removed_group_fingerprints_are_dropped(self, space):
        runtime = GroupSpaceRuntime(space)
        session = runtime.create_session(untimed_config())
        shown = session.start()
        session.click(shown[0].gid)
        # Remove the displayed groups themselves: their fingerprints are
        # in every freshly published structure and result.
        delta = GroupDelta.build(removed=[group.gid for group in shown])
        report = runtime.apply_deltas(delta)
        assert report["cache_entries_dropped"] > 0


class TestDurableEpochs:
    def test_resume_rebinds_to_the_checkpointed_epoch(self, space, tmp_path):
        base_index = SimilarityIndex(space.memberships(), space.dataset.n_users)
        runtime = GroupSpaceRuntime(space, index=base_index)
        manager = SessionManager(
            runtime,
            default_config=untimed_config(),
            state_dir=tmp_path,
        )
        session_id, shown = manager.open_session()
        shown = manager.click(session_id, shown[0].gid)
        expected = [group.gid for group in shown]
        token = manager.resume_token(session_id)
        manager.close(session_id)
        # The store moves on: two epochs land after the checkpoint.
        manager.apply_deltas(churn_delta(runtime.space, 7))
        manager.apply_deltas(churn_delta(runtime.space, 8))
        resumed_id, restored = manager.open_session(resume=token)
        assert [group.gid for group in restored] == expected
        # The revived session is pinned to the retained genesis epoch.
        assert manager.session(resumed_id).epoch.number == 0

    def test_resume_refused_once_the_pinned_epoch_ages_out(
        self, space, tmp_path
    ):
        runtime = GroupSpaceRuntime(space, share_cache=False, retain_epochs=2)
        manager = SessionManager(
            runtime, default_config=untimed_config(), state_dir=tmp_path
        )
        session_id, shown = manager.open_session()
        manager.click(session_id, shown[0].gid)
        token = manager.resume_token(session_id)
        manager.close(session_id)
        for seed in range(3):  # push genesis out of the retention window
            manager.apply_deltas(churn_delta(runtime.space, 20 + seed))
        with pytest.raises(ValueError, match="epoch"):
            manager.open_session(resume=token)

    def test_epoch_lineage_is_appended_to_the_state_dir(self, space, tmp_path):
        runtime = GroupSpaceRuntime(space, share_cache=False)
        manager = SessionManager(
            runtime, default_config=untimed_config(), state_dir=tmp_path
        )
        first = manager.apply_deltas(churn_delta(runtime.space, 11))
        second = manager.apply_deltas(churn_delta(runtime.space, 12))
        lineage = load_epoch_lineage(tmp_path)
        assert [record["epoch"] for record in lineage] == [1, 2]
        assert lineage[0]["digest"] == first["digest"]
        assert lineage[1]["parent_digest"] == second["parent_digest"]
