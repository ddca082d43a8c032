"""SpaceRegistry lifecycle: lazy builds, routing, budget, durability.

The acceptance bar for the hosting subsystem, in-process: a cold space
builds in the background without blocking anything, session ids route to
exactly their home space, the ``max_ready`` budget evicts LRU spaces
*durably* (an evicted space's sessions resume bitwise-identical after a
lazy rebuild), per-space idle TTLs expire only their own sessions, and a
session checkpoint stamped for one space can never be grafted onto
another.
"""

import threading
import time

import pytest

from repro.core.runtime import GroupSpaceRuntime, UnknownSessionError
from repro.core.session import ExplorationSession
from repro.core.store import load_session_state, save_session_state
from repro.core.session import SessionConfig
from repro.spaces import (
    SpaceBuildError,
    SpaceBuildingError,
    SpaceDescriptor,
    SpaceNotFoundError,
    SpaceRegistry,
)


def untimed_config() -> SessionConfig:
    return SessionConfig(k=5, time_budget_ms=None, use_profile=False)


def builder_descriptor(name, space, index, **knobs) -> SpaceDescriptor:
    return SpaceDescriptor(
        name=name,
        builder=lambda: GroupSpaceRuntime(space, index=index, name=name),
        **knobs,
    )


class TestResolution:
    def test_cold_space_reports_building_and_then_serves(self, two_space_registry):
        registry = two_space_registry
        with pytest.raises(SpaceBuildingError) as excinfo:
            registry.manager("alpha")
        assert excinfo.value.name == "alpha"
        assert excinfo.value.retry_after_s > 0
        manager = registry.manager("alpha", wait=True)
        assert registry.manager("alpha") is manager  # now ready, no wait
        assert registry.describe()["alpha"]["state"] == "ready"
        assert registry.describe()["beta"]["state"] == "cold"

    def test_unknown_space_raises_typed(self, two_space_registry):
        with pytest.raises(SpaceNotFoundError, match="nope"):
            two_space_registry.manager("nope")

    def test_default_space_is_first_registered(self, two_space_registry):
        assert two_space_registry.default_space == "alpha"

    def test_builds_do_not_block_a_hot_space(self, space_a, index_a, space_b, index_b):
        """A click on a ready space proceeds while another space builds."""
        gate = threading.Event()

        def slow_build():
            gate.wait(timeout=10.0)
            return GroupSpaceRuntime(space_b, index=index_b, name="slow")

        registry = SpaceRegistry(
            [
                builder_descriptor("fast", space_a, index_a),
                SpaceDescriptor(name="slow", builder=slow_build),
            ],
            default_config=untimed_config(),
        )
        manager = registry.manager("fast", wait=True)
        with pytest.raises(SpaceBuildingError):
            registry.manager("slow")
        # The slow build is parked on a worker; serving threads carry on.
        session_id, shown = manager.open_session()
        assert manager.click(session_id, shown[0].gid)
        with pytest.raises(SpaceBuildingError):
            registry.manager("slow")
        gate.set()
        assert registry.manager("slow", wait=True).runtime.name == "slow"
        registry.shutdown()

    def test_failed_build_is_sticky_then_retryable(self, space_a, index_a):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("store went missing")
            return GroupSpaceRuntime(space_a, index=index_a, name="flaky")

        registry = SpaceRegistry(
            [SpaceDescriptor(name="flaky", builder=flaky)],
            default_config=untimed_config(),
        )
        with pytest.raises(SpaceBuildError, match="store went missing"):
            registry.manager("flaky", wait=True)
        # Sticky: no silent rebuild loop, same typed failure again.
        with pytest.raises(SpaceBuildError):
            registry.manager("flaky")
        assert registry.describe()["flaky"]["error"] is not None
        registry.reset("flaky")
        assert registry.manager("flaky", wait=True).runtime.name == "flaky"
        assert len(attempts) == 2
        registry.shutdown()


class TestRouting:
    def test_session_ids_route_to_their_space(self, two_space_registry):
        registry = two_space_registry
        manager_a = registry.manager("alpha", wait=True)
        manager_b = registry.manager("beta", wait=True)
        id_a, _ = manager_a.open_session()
        id_b, _ = manager_b.open_session()
        assert id_a.startswith("alpha-") and id_b.startswith("beta-")
        assert registry.route(id_a) is manager_a
        assert registry.route(id_b) is manager_b
        assert registry.session_ids() == sorted([id_a, id_b])
        with pytest.raises(UnknownSessionError):
            registry.route("gamma-s0001")


class TestBudgetEviction:
    def make_registry(self, tmp_path, space_a, index_a, space_b, index_b):
        return SpaceRegistry(
            [
                builder_descriptor("alpha", space_a, index_a),
                builder_descriptor("beta", space_b, index_b),
            ],
            max_ready=1,
            state_dir=tmp_path / "state",
            default_config=untimed_config(),
        )

    def test_lru_space_is_evicted_and_resumes_identically(
        self, tmp_path, space_a, index_a, space_b, index_b
    ):
        """The acceptance criterion: evict -> lazy rebuild -> bitwise resume."""
        registry = self.make_registry(tmp_path, space_a, index_a, space_b, index_b)
        manager_a = registry.manager("alpha", wait=True)
        session_id, shown = manager_a.open_session()
        shown = manager_a.click(session_id, shown[0].gid)
        shown = manager_a.click(session_id, shown[0].gid)
        token = manager_a.resume_token(session_id)
        expected = [group.gid for group in shown]

        # Building beta breaches the budget; alpha (LRU) is evicted and
        # its live session durably checkpointed.
        registry.manager("beta", wait=True)
        states = {name: row["state"] for name, row in registry.describe().items()}
        assert states == {"alpha": "cold", "beta": "ready"}
        with pytest.raises(UnknownSessionError):
            registry.route(session_id)

        # Re-attach: lazy rebuild, then resume by token — the display is
        # exactly what the evicted session was showing (and beta, now
        # LRU, is evicted in turn: the budget holds).
        revived = registry.manager("alpha", wait=True)
        resumed_id, restored = revived.open_session(resume=token)
        assert [group.gid for group in restored] == expected
        assert revived.sessions_resumed == 1
        states = {name: row["state"] for name, row in registry.describe().items()}
        assert states == {"alpha": "ready", "beta": "cold"}
        assert registry.stats()["spaces_evicted"] == 2
        registry.shutdown()

    def test_resumed_walk_equals_uninterrupted_walk(
        self, tmp_path, space_a, index_a, space_b, index_b
    ):
        # Oracle: the same deterministic walk in one never-evicted session.
        solo = GroupSpaceRuntime(space_a, index=index_a, share_cache=False)
        session = solo.create_session(untimed_config())
        shown = session.start()
        oracle = []
        for _ in range(4):
            shown = session.click(shown[0].gid)
            oracle.append([group.gid for group in shown])

        registry = self.make_registry(tmp_path, space_a, index_a, space_b, index_b)
        manager = registry.manager("alpha", wait=True)
        session_id, shown = manager.open_session()
        walked = []
        for _ in range(2):
            shown = manager.click(session_id, shown[0].gid)
            walked.append([group.gid for group in shown])
        token = manager.resume_token(session_id)
        registry.manager("beta", wait=True)  # evicts alpha mid-walk

        revived = registry.manager("alpha", wait=True)
        resumed_id, shown = revived.open_session(resume=token)
        for _ in range(2):
            shown = revived.click(resumed_id, shown[0].gid)
            walked.append([group.gid for group in shown])
        assert walked == oracle
        registry.shutdown()

    def test_without_state_dir_live_sessions_pin_their_space(
        self, space_a, index_a, space_b, index_b
    ):
        registry = SpaceRegistry(
            [
                builder_descriptor("alpha", space_a, index_a),
                builder_descriptor("beta", space_b, index_b),
            ],
            max_ready=1,
            default_config=untimed_config(),
        )
        manager_a = registry.manager("alpha", wait=True)
        session_id, shown = manager_a.open_session()
        registry.manager("beta", wait=True)
        # No persistence: evicting alpha would destroy its live session,
        # so the budget is allowed to overflow instead — and the pinned
        # space keeps serving (admission was reopened after standing
        # down, clicks never broke).
        states = {name: row["state"] for name, row in registry.describe().items()}
        assert states == {"alpha": "ready", "beta": "ready"}
        assert manager_a.click(session_id, shown[0].gid)
        assert manager_a.open_session()
        registry.shutdown()

    def test_explicit_evict_refuses_to_destroy_unpersistable_sessions(
        self, space_a, index_a
    ):
        registry = SpaceRegistry(
            [builder_descriptor("alpha", space_a, index_a)],
            default_config=untimed_config(),
        )
        manager = registry.manager("alpha", wait=True)
        session_id, shown = manager.open_session()
        # Live session + no state_dir: eviction is refused outright
        # rather than silently destroying state it cannot checkpoint.
        assert registry.evict("alpha") is False
        assert registry.describe()["alpha"]["state"] == "ready"
        assert manager.click(session_id, shown[0].gid)
        # Session-less spaces evict fine without persistence.
        manager.close(session_id)
        assert registry.evict("alpha") is True
        assert registry.describe()["alpha"]["state"] == "cold"
        registry.shutdown()

    def test_retiring_manager_refuses_new_opens(self, space_a, index_a):
        from repro.core.runtime import SessionLimitError, SessionManager

        manager = SessionManager(
            GroupSpaceRuntime(space_a, index=index_a),
            default_config=untimed_config(),
        )
        assert manager.close_admission() == 0
        with pytest.raises(SessionLimitError, match="retiring"):
            manager.open_session()
        manager.reopen_admission()
        assert manager.open_session()


class TestCrossSpaceIsolation:
    def test_checkpoint_of_one_space_never_loads_into_another(
        self, space_a, index_a, tmp_path
    ):
        """Same content, different space names: the graft is refused."""
        runtime_one = GroupSpaceRuntime(space_a, index=index_a, name="one")
        runtime_two = GroupSpaceRuntime(space_a, index=index_a, name="two")
        session = runtime_one.create_session(untimed_config())
        shown = session.start()
        session.click(shown[0].gid)
        save_session_state(session, tmp_path / "snap")

        grafted = runtime_two.create_session(untimed_config())
        with pytest.raises(ValueError, match="belongs to space 'one'"):
            load_session_state(grafted, tmp_path / "snap")
        # The same space (and, for compatibility, an anonymous runtime)
        # still restores fine.
        restored = runtime_one.create_session(untimed_config())
        load_session_state(restored, tmp_path / "snap")
        anonymous = GroupSpaceRuntime(space_a, index=index_a).create_session(
            untimed_config()
        )
        load_session_state(anonymous, tmp_path / "snap")

    def test_evicted_tokens_stay_space_scoped(self, two_space_registry):
        registry = two_space_registry
        manager_a = registry.manager("alpha", wait=True)
        manager_b = registry.manager("beta", wait=True)
        id_a, shown = manager_a.open_session()
        manager_a.click(id_a, shown[0].gid)
        token = manager_a.close(id_a)["resume_token"]
        # The token belongs to alpha's state directory; beta has never
        # heard of it.
        with pytest.raises(UnknownSessionError):
            manager_b.open_session(resume=token)
        resumed_id, _ = manager_a.open_session(resume=token)
        assert resumed_id.startswith("alpha-")


class TestIdleSweep:
    def test_per_space_ttls_expire_only_their_own_sessions(
        self, space_a, index_a, space_b, index_b, tmp_path
    ):
        registry = SpaceRegistry(
            [
                builder_descriptor(
                    "batch", space_a, index_a, idle_ttl_s=0.05
                ),
                builder_descriptor("hot", space_b, index_b),
            ],
            state_dir=tmp_path / "state",
            default_config=untimed_config(),
            idle_ttl_s=None,  # no global default: "hot" is exempt
        )
        batch = registry.manager("batch", wait=True)
        hot = registry.manager("hot", wait=True)
        batch_id, _ = batch.open_session()
        hot_id, _ = hot.open_session()
        time.sleep(0.08)
        assert registry.sweep_idle() == 1
        with pytest.raises(UnknownSessionError):
            batch.displayed(batch_id)
        assert hot.displayed(hot_id)  # pinned space: untouched
        registry.shutdown()

    def test_global_default_applies_where_space_is_silent(
        self, space_a, index_a, space_b, index_b, tmp_path
    ):
        registry = SpaceRegistry(
            [
                builder_descriptor("a", space_a, index_a, idle_ttl_s=30.0),
                builder_descriptor("b", space_b, index_b),
            ],
            state_dir=tmp_path / "state",
            default_config=untimed_config(),
            idle_ttl_s=0.05,
        )
        manager_a = registry.manager("a", wait=True)
        manager_b = registry.manager("b", wait=True)
        id_a, _ = manager_a.open_session()
        id_b, _ = manager_b.open_session()
        time.sleep(0.08)
        # b expires under the 0.05 s global default; a's own 30 s wins.
        assert registry.sweep_idle() == 1
        assert manager_a.displayed(id_a)
        with pytest.raises(UnknownSessionError):
            manager_b.displayed(id_b)
        assert registry.min_ttl_s() == 0.05
        registry.shutdown()

    def test_falsy_space_ttl_does_not_fall_back_to_the_global(
        self, space_a, index_a, tmp_path
    ):
        """Regression: the sweep used truthiness, not ``is not None``.

        A falsy per-space TTL (0.0 — descriptor validation normally
        refuses it, so it is forced in post hoc, the way a bad manifest
        merge or a future "sweep immediately" sentinel would) silently
        fell through to the registry default: here a 300 s global that
        would never evict inside the test.  The ``is not None`` check
        honours the space's own setting — the session is evicted on the
        very first sweep.
        """
        descriptor = builder_descriptor("batch", space_a, index_a)
        object.__setattr__(descriptor, "idle_ttl_s", 0.0)
        registry = SpaceRegistry(
            [descriptor],
            state_dir=tmp_path / "state",
            default_config=untimed_config(),
            idle_ttl_s=300.0,
        )
        manager = registry.manager("batch", wait=True)
        session_id, _ = manager.open_session()
        time.sleep(0.01)
        assert registry.sweep_idle() == 1
        with pytest.raises(UnknownSessionError):
            manager.displayed(session_id)
        assert registry.min_ttl_s() == 0.0
        registry.shutdown()

    def test_ttls_without_state_dir_are_rejected(self, space_a, index_a):
        with pytest.raises(ValueError, match="state_dir"):
            SpaceRegistry(
                [builder_descriptor("a", space_a, index_a)],
                idle_ttl_s=1.0,
            )
        with pytest.raises(ValueError, match="state_dir"):
            SpaceRegistry(
                [builder_descriptor("a", space_a, index_a, idle_ttl_s=1.0)]
            )


class TestDurabilityKeyword:
    def test_durability_is_validated_never_stored(self, tmp_path):
        with pytest.raises(ValueError, match="needs a registry state_dir"):
            SpaceRegistry(durability="journal")
        with pytest.raises(ValueError, match="snapshot durability was removed"):
            SpaceRegistry(durability="snapshot", state_dir=tmp_path)
        with pytest.raises(ValueError, match="durability must be"):
            SpaceRegistry(durability="fsync")
        in_memory = SpaceRegistry(durability="snapshot")
        journaled = SpaceRegistry(durability="journal", state_dir=tmp_path)
        try:
            assert in_memory.stats()["durability"] is None
            assert journaled.stats()["durability"] == "journal"
        finally:
            in_memory.shutdown()
            journaled.shutdown()
