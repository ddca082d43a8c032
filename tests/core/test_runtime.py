"""The multi-session serving runtime: concurrency, parity, isolation.

Three contracts, matching §II's multi-user setting:

- **display parity** — N sessions driven concurrently through one
  :class:`~repro.core.runtime.GroupSpaceRuntime` (shared index +
  cross-session cache) must show *exactly* what a sequential solo
  session over a private stack shows.  Cross-session caching is a pure
  performance layer.
- **no feedback leakage** — one session's clicks must never alter
  another session's CONTEXT: the feedback layer is private per session
  by construction, shared results are keyed on feedback content, and the
  threaded stress asserts it.
- **version invalidation** — :class:`SharedSelectionCache` entries are
  stamped with the runtime version; a store mutation bumps it, after
  which stale reads miss and in-flight publications that observed the
  old version are refused (the hypothesis case drives the interleaving).
"""

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.discovery import DiscoveryConfig, discover_groups
from repro.core.poolcache import PoolStatsCache, _PoolStructure
from repro.core.runtime import (
    GroupSpaceRuntime,
    SessionLimitError,
    SessionManager,
    SharedSelectionCache,
    UnknownSessionError,
    scripted_click_gid,
)
from repro.core.session import SessionConfig
from repro.data.generators.dbauthors import DBAuthorsConfig, generate_dbauthors

pytestmark = pytest.mark.concurrency


@pytest.fixture(scope="module")
def space():
    data = generate_dbauthors(DBAuthorsConfig(n_authors=260, seed=23))
    return discover_groups(
        data.dataset,
        DiscoveryConfig(method="lcm", min_support=0.06, max_description=3),
    )


def untimed_config() -> SessionConfig:
    # Untimed + no profile: every selection converges deterministically,
    # so displays are comparable across arms and thread schedules.
    return SessionConfig(k=5, time_budget_ms=None, use_profile=False)


def replay_trajectory(open_session, click, clicks: int):
    """Deterministic walk: always click the first unvisited display slot.

    Returns (per-step displayed gids, clicked gids).
    """
    shown = open_session()
    displays: list[list[int]] = []
    clicked: list[int] = []
    visited: set[int] = set()
    for _ in range(clicks):
        gid = scripted_click_gid(shown, visited)
        shown = click(gid)
        displays.append([group.gid for group in shown])
        clicked.append(gid)
    return displays, clicked


def solo_replay(space, clicks: int):
    """The oracle arm: one private session, no cross-session layer."""
    runtime = GroupSpaceRuntime(space, share_cache=False)
    session = runtime.create_session(untimed_config())
    displays, clicked = replay_trajectory(
        session.start, session.click, clicks
    )
    return displays, clicked, session.feedback.snapshot()


class TestThreadedServingParity:
    N_SESSIONS = 6
    N_CLICKS = 4

    def test_concurrent_sessions_match_sequential_solo_runs(self, space):
        expected_displays, _, expected_feedback = solo_replay(
            space, self.N_CLICKS
        )
        runtime = GroupSpaceRuntime(space)
        manager = SessionManager(runtime, default_config=untimed_config())

        def drive(_worker):
            session_box = {}

            def opener():
                session_id, shown = manager.open_session()
                session_box["id"] = session_id
                return shown

            displays, clicked = replay_trajectory(
                opener,
                lambda gid: manager.click(session_box["id"], gid),
                self.N_CLICKS,
            )
            session = manager.session(session_box["id"])
            return displays, session.feedback.snapshot()

        with ThreadPoolExecutor(max_workers=self.N_SESSIONS) as pool:
            outcomes = list(pool.map(drive, range(self.N_SESSIONS)))

        for displays, feedback in outcomes:
            # Parity: the shared runtime is invisible in what users see.
            assert displays == expected_displays
            # Isolation: every session learned exactly its own walk's
            # feedback — nothing leaked in from the 5 concurrent twins.
            assert feedback == expected_feedback

    def test_cross_session_cache_actually_carries_state(self, space):
        runtime = GroupSpaceRuntime(space)
        manager = SessionManager(runtime, default_config=untimed_config())

        def drive(_worker):
            session_id, shown = manager.open_session()
            visited: set[int] = set()
            for _ in range(self.N_CLICKS):
                shown = manager.click(
                    session_id, scripted_click_gid(shown, visited)
                )
            return manager.close(session_id)

        drive(0)  # session 1 pays the cross-session cold start
        with ThreadPoolExecutor(max_workers=4) as pool:
            summaries = list(pool.map(drive, range(4)))
        # Later sessions replay session 1's walk exactly, so they are
        # served the results session 1 converged on.
        assert all(
            summary["cache"]["shared_result_hits"] > 0
            for summary in summaries
        )
        assert runtime.shared is not None
        assert runtime.shared.stats()["result_hits"] > 0

    def test_same_session_clicks_serialize_without_corruption(self, space):
        runtime = GroupSpaceRuntime(space)
        manager = SessionManager(runtime, default_config=untimed_config())
        session_id, shown = manager.open_session()
        gids = [group.gid for group in shown]

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(lambda gid: manager.click(session_id, gid), gids))
        session = manager.session(session_id)
        # One history step per click, whatever the interleaving, and the
        # display always has the session's k entries.
        assert len(session.history) == 1 + len(gids)
        assert 1 <= len(session.displayed()) <= 5


class TestSessionManagerLifecycle:
    def test_open_click_close(self, space):
        runtime = GroupSpaceRuntime(space)
        manager = SessionManager(runtime, default_config=untimed_config())
        session_id, shown = manager.open_session()
        assert shown and len(manager) == 1
        manager.click(session_id, shown[0].gid)
        summary = manager.close(session_id)
        assert summary["clicks"] == 1
        assert len(manager) == 0
        with pytest.raises(KeyError):
            manager.click(session_id, shown[0].gid)

    def test_max_sessions_admission_control(self, space):
        runtime = GroupSpaceRuntime(space)
        manager = SessionManager(
            runtime, default_config=untimed_config(), max_sessions=1
        )
        session_id, _ = manager.open_session()
        with pytest.raises(RuntimeError, match="session limit"):
            manager.open_session()
        # The typed subclass is what the service maps to a 429.
        with pytest.raises(SessionLimitError):
            manager.open_session()
        manager.close(session_id)
        manager.open_session()  # capacity freed

    def test_unknown_session_error_carries_the_id(self, space):
        manager = SessionManager(
            GroupSpaceRuntime(space), default_config=untimed_config()
        )
        for interaction in (
            lambda: manager.click("s0404", 0),
            lambda: manager.backtrack("s0404", 0),
            lambda: manager.close("s0404"),
            lambda: manager.displayed("s0404"),
            lambda: manager.drill_down("s0404", 0),
            lambda: manager.session_stats("s0404"),
        ):
            with pytest.raises(UnknownSessionError) as excinfo:
                interaction()
            # Not a bare KeyError traceback: the message names the id.
            assert "s0404" in str(excinfo.value)
            assert isinstance(excinfo.value, KeyError)  # compat contract

    def test_closed_session_raises_unknown_session(self, space):
        manager = SessionManager(
            GroupSpaceRuntime(space), default_config=untimed_config()
        )
        session_id, shown = manager.open_session()
        manager.close(session_id)
        with pytest.raises(UnknownSessionError, match=session_id):
            manager.click(session_id, shown[0].gid)
        with pytest.raises(UnknownSessionError, match=session_id):
            manager.close(session_id)

    def test_stats_request_that_lost_a_race_to_close_is_refused(
        self, space, monkeypatch
    ):
        manager = SessionManager(
            GroupSpaceRuntime(space), default_config=untimed_config()
        )
        session_id, _ = manager.open_session()
        # The stats request resolved the session just before a racing
        # close retired it.
        managed = manager._managed(session_id)
        manager.close(session_id)
        monkeypatch.setattr(manager, "_managed", lambda _sid: managed)
        last_active = managed.last_active
        with pytest.raises(UnknownSessionError, match=session_id):
            manager.session_stats(session_id)
        assert managed.last_active == last_active


class TestDurableManager:
    def test_close_resume_round_trip(self, space, tmp_path):
        manager = SessionManager(
            GroupSpaceRuntime(space),
            default_config=untimed_config(),
            state_dir=tmp_path,
        )
        session_id, shown = manager.open_session()
        after_click = manager.click(session_id, shown[0].gid)
        summary = manager.close(session_id)
        assert summary["resume_token"] is not None
        resumed_id, restored = manager.open_session(
            resume=summary["resume_token"]
        )
        assert [g.gid for g in restored] == [g.gid for g in after_click]
        session = manager.session(resumed_id)
        assert len(session.history) == 2
        assert manager.sessions_resumed == 1
        # The click counter carries over: stats after a resume read as if
        # the process had never stopped.
        assert manager.session_stats(resumed_id)["clicks"] == 1

    def test_checkpoint_every_interaction_survives_abandonment(
        self, space, tmp_path
    ):
        manager = SessionManager(
            GroupSpaceRuntime(space),
            default_config=untimed_config(),
            state_dir=tmp_path,
        )
        session_id, shown = manager.open_session()
        token = manager.resume_token(session_id)
        after_click = manager.click(session_id, shown[0].gid)
        # No close — the process "dies".  A new manager on the same
        # state dir restores up to the last checkpointed interaction.
        revived = SessionManager(
            GroupSpaceRuntime(space),
            default_config=untimed_config(),
            state_dir=tmp_path,
        )
        _, restored = revived.open_session(resume=token)
        assert [g.gid for g in restored] == [g.gid for g in after_click]

    def test_resume_guards(self, space, tmp_path):
        durable = SessionManager(
            GroupSpaceRuntime(space),
            default_config=untimed_config(),
            state_dir=tmp_path,
        )
        with pytest.raises(UnknownSessionError):
            durable.open_session(resume="never-issued")
        session_id, _ = durable.open_session()
        with pytest.raises(ValueError, match="already live"):
            durable.open_session(resume=durable.resume_token(session_id))
        ephemeral = SessionManager(
            GroupSpaceRuntime(space), default_config=untimed_config()
        )
        with pytest.raises(ValueError, match="state_dir"):
            ephemeral.open_session(resume="anything")
        ephemeral_id, _ = ephemeral.open_session()
        assert ephemeral.resume_token(ephemeral_id) is None

    def test_traversal_resume_tokens_never_touch_paths(self, space, tmp_path):
        manager = SessionManager(
            GroupSpaceRuntime(space),
            default_config=untimed_config(),
            state_dir=tmp_path / "state",
        )
        for token in (
            "../../../../tmp/evil",
            "/etc/passwd",
            "a/b",
            "..",
            "",
            "x" * 200,
            "tok\x00en",
        ):
            with pytest.raises(UnknownSessionError):
                manager.open_session(resume=token)

    def test_checkpoints_replace_atomically(self, space, tmp_path):
        manager = SessionManager(
            GroupSpaceRuntime(space),
            default_config=untimed_config(),
            state_dir=tmp_path,
        )
        session_id, shown = manager.open_session()
        manager.click(session_id, shown[0].gid)
        token = manager.resume_token(session_id)
        # The staging file never survives a completed checkpoint.
        assert not (tmp_path / token / "session.json.tmp").exists()
        assert (tmp_path / token / "session.json").exists()

    def test_reads_keep_the_session_alive(self, space, tmp_path):
        manager = SessionManager(
            GroupSpaceRuntime(space),
            default_config=untimed_config(),
            state_dir=tmp_path,
        )
        session_id, _ = manager.open_session()
        manager._managed(session_id).last_active -= 1000.0
        manager.displayed(session_id)  # a polling analyst is not idle
        assert manager.evict_idle(500.0) == []
        manager._managed(session_id).last_active -= 1000.0
        manager.session_stats(session_id)
        assert manager.evict_idle(500.0) == []

    def test_evict_idle_persists_and_frees_slots(self, space, tmp_path):
        manager = SessionManager(
            GroupSpaceRuntime(space),
            default_config=untimed_config(),
            max_sessions=1,
            state_dir=tmp_path,
        )
        session_id, shown = manager.open_session()
        after_click = manager.click(session_id, shown[0].gid)
        token = manager.resume_token(session_id)
        assert manager.evict_idle(3600.0) == []  # nobody is idle yet
        summaries = manager.evict_idle(0.0)
        assert [s["session_id"] for s in summaries] == [session_id]
        assert len(manager) == 0 and manager.sessions_evicted == 1
        with pytest.raises(UnknownSessionError):
            manager.displayed(session_id)
        # The freed slot admits a new session, and the token restores
        # the evicted one's exact display.
        resumed_id, restored = manager.open_session(resume=token)
        assert [g.gid for g in restored] == [g.gid for g in after_click]

    def test_session_and_runtime_disagreement_rejected(self, space):
        runtime = GroupSpaceRuntime(space)
        other = generate_dbauthors(DBAuthorsConfig(n_authors=120, seed=5))
        other_space = discover_groups(
            other.dataset,
            DiscoveryConfig(method="lcm", min_support=0.1, max_description=2),
        )
        from repro.core.session import ExplorationSession

        with pytest.raises(ValueError, match="disagree"):
            ExplorationSession(other_space, runtime=runtime)


class TestRuntimeVersioning:
    def test_bump_version_empties_shared_state(self, space):
        runtime = GroupSpaceRuntime(space)
        session = runtime.create_session(untimed_config())
        shown = session.start()
        session.click(shown[0].gid)
        shared = runtime.shared
        stats = shared.stats()
        assert stats["structures"] > 0 and stats["result_entries"] > 0
        before = runtime.version
        runtime.bump_version()
        assert runtime.version == before + 1
        stats = shared.stats()
        assert stats["structures"] == 0
        assert stats["result_entries"] == 0

    def test_new_sessions_after_bump_still_match_solo(self, space):
        expected_displays, _, _ = solo_replay(space, 3)
        runtime = GroupSpaceRuntime(space)
        session = runtime.create_session(untimed_config())
        replay_trajectory(session.start, session.click, 3)
        runtime.bump_version()
        fresh = runtime.create_session(untimed_config())
        displays, _ = replay_trajectory(fresh.start, fresh.click, 3)
        assert displays == expected_displays


def make_structure(seed: int) -> _PoolStructure:
    from repro.core.group import Group

    rng = np.random.default_rng(seed)
    pool = [
        Group(gid, (f"a=v{gid % 3}",), np.unique(rng.choice(60, size=8)))
        for gid in range(4)
    ]
    return _PoolStructure(pool, np.arange(30, dtype=np.int64))


class TestSharedPairCacheVersioning:
    """Hypothesis: version stamps make stale reuse impossible."""

    @settings(deadline=None, max_examples=30)
    @given(
        entries=st.dictionaries(
            st.tuples(st.integers(0, 50), st.integers(0, 50)),
            st.floats(0.0, 1.0, allow_nan=False),
            min_size=1,
            max_size=12,
        ),
        bumps_before_publish=st.integers(0, 2),
        bumps_before_read=st.integers(0, 2),
    )
    def test_result_layer_version_stamps(
        self, entries, bumps_before_publish, bumps_before_read
    ):
        shared = SharedSelectionCache()
        observed = shared.version
        for _ in range(bumps_before_publish):
            shared.bump_version()
        published = [
            shared.publish_result(key, 0, value, observed)
            for key, value in entries.items()
        ]
        # A publication that observed an older version must be refused.
        assert published == [bumps_before_publish == 0] * len(entries)
        for _ in range(bumps_before_read):
            shared.bump_version()
        found = {
            key: shared.lookup_result(key, 0, shared.version) for key in entries
        }
        if bumps_before_publish == 0 and bumps_before_read == 0:
            assert found == entries
        else:
            assert set(found.values()) == {None}
        # Reads stamped with a stale version never return anything.
        assert all(
            shared.lookup_result(key, 0, observed - 1) is None for key in entries
        )

    @settings(deadline=None, max_examples=15)
    @given(seed=st.integers(0, 50), bump=st.booleans())
    def test_structure_layer_version_stamps(self, seed, bump):
        shared = SharedSelectionCache()
        structure = make_structure(seed)
        observed = shared.version
        assert shared.publish_structure(structure.key, structure, observed)
        if bump:
            shared.bump_version()
            assert (
                shared.lookup_structure(structure.key, shared.version) is None
            )
            # Republication under the old stamp is refused too.
            assert not shared.publish_structure(
                structure.key, structure, observed
            )
        else:
            served = shared.lookup_structure(structure.key, shared.version)
            assert served is not None
            # Independent snapshot: shared immutable arrays, private dicts.
            assert served is not structure
            assert served.members_matrix is structure.members_matrix
            assert served.sim_columns == structure.sim_columns
            assert served.sim_columns is not structure.sim_columns

    def test_mid_bump_reader_never_served_uncleared_entries(self):
        """Regression: the historical bump race, frozen at its window.

        A bump that moved the version but has not swept the layers yet
        must not let a reader observing the *new* version be served an
        entry published under the old one.  Publication stamps close
        that window: this test freezes the bump halfway (version moved,
        entries untouched) and the old entries must already be
        invisible.
        """
        shared = SharedSelectionCache()
        entries = {("pool", 1): "display-1", ("pool", 2): "display-2"}
        for key, value in entries.items():
            assert shared.publish_result(key, 0, value, shared.version)
        with shared._lock:
            shared._version += 1  # bump'd, entries not yet swept
        assert all(
            shared.lookup_result(key, 0, shared.version) is None for key in entries
        )
        assert shared.stats()["result_entries"] == len(entries)

    def test_concurrent_bumps_never_serve_cross_version_values(self):
        """Black-box interleave: values encode their publication version.

        Publishers store ``float(version)`` under the version they
        observed; a reader that ever receives a value different from
        the version it read under has been served another generation's
        entry — exactly the race the stamps exist to prevent.
        """
        import threading

        shared = SharedSelectionCache()
        stop = threading.Event()
        torn: list[tuple] = []
        keys = [("pool", i) for i in range(8)]

        def publisher():
            while not stop.is_set():
                version = shared.version
                for key in keys:
                    shared.publish_result(key, 0, float(version), version)

        def bumper():
            while not stop.is_set():
                shared.bump_version()

        def reader():
            while not stop.is_set():
                version = shared.version
                for key in keys:
                    value = shared.lookup_result(key, 0, version)
                    if value is not None and value != float(version):
                        torn.append((key, value, version))

        threads = [
            threading.Thread(target=target)
            for target in (publisher, bumper, reader, reader)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.4)
        stop.set()
        for thread in threads:
            thread.join()
        assert torn == []

    def test_snapshot_columns_do_not_alias_sessions(self):
        shared = SharedSelectionCache()
        structure = make_structure(7)
        structure.sim_column(0)
        shared.publish_structure(structure.key, structure, shared.version)
        first = shared.lookup_structure(structure.key, shared.version)
        second = shared.lookup_structure(structure.key, shared.version)
        first.sim_column(1)
        # One session materializing more columns never mutates another's.
        assert 1 not in second.sim_columns

    def test_session_cache_observes_version_per_structure(self):
        shared = SharedSelectionCache()
        cache = PoolStatsCache(shared=shared)
        structure = make_structure(3)
        served, state = cache.structure_for(structure.pool, structure.relevant)
        assert state == "miss"
        assert served.shared_version == shared.version
        shared.bump_version()
        twin = PoolStatsCache(shared=shared)
        again, state = twin.structure_for(structure.pool, structure.relevant)
        # The pre-bump publication is gone; the fresh build observes the
        # new version and repopulates the shared layer.
        assert state == "miss"
        assert again.shared_version == shared.version
        assert shared.stats()["structures"] == 1
