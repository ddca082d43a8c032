"""The replicated serving tier, end to end (``-m replication``).

Real spawned worker processes behind the sticky router, driven over real
sockets with the stock client.  Spawn start-up costs ~1–2 s per worker
(fresh CPython + NumPy import), so each test class shares one pool and
walks it through phases rather than booting a pool per assertion:

- **routing** — fresh opens round-robin across workers; every verb of a
  session's walk lands on the worker tagged in its id;
- **parity** — scripted walks through any worker match the
  single-process oracle bitwise (the zero-copy attach changes nothing
  observable);
- **mutation** — one ``POST /spaces/<name>/mutate`` moves the parent
  epoch, publishes a new arena, and rebinds every worker, while
  sessions opened pre-mutation keep serving their pinned epoch;
- **takeover** — SIGKILL a worker: its resume tokens restore on another
  replica from the shared state directory, field-identical, and
  ``/healthz`` reports the death;
- **drain** — stopping the pool checkpoints every live session, and a
  second pool over the same state directory resumes them bitwise.
"""

import os
import signal
import time

import pytest

from repro.core.discovery import DiscoveryConfig, discover_groups
from repro.core.runtime import GroupSpaceRuntime, scripted_click_gid
from repro.core.session import SessionConfig
from repro.data.generators.dbauthors import DBAuthorsConfig, generate_dbauthors
from repro.replication import list_segments, serve_replicated
from repro.service import ExplorationClient

pytestmark = pytest.mark.replication

CLICKS = 3
TAG = f"pooltest{os.getpid()}"


@pytest.fixture(scope="module")
def space():
    data = generate_dbauthors(DBAuthorsConfig(n_authors=220, seed=29))
    return discover_groups(
        data.dataset,
        DiscoveryConfig(method="lcm", min_support=0.07, max_description=3),
    )


def untimed_config() -> SessionConfig:
    return SessionConfig(k=5, time_budget_ms=None, use_profile=False)


def solo_oracle(space, clicks):
    runtime = GroupSpaceRuntime(space, share_cache=False)
    session = runtime.create_session(untimed_config())
    shown = session.start()
    displays, clicked, visited = [], [], set()
    for _ in range(clicks):
        gid = scripted_click_gid(shown, visited)
        clicked.append(gid)
        shown = session.click(gid)
        displays.append([group.gid for group in shown])
    return displays, clicked


def client_walk(client, opened, clicks, shown=None):
    shown = opened.display if shown is None else shown
    displays, visited = [], set()
    for _ in range(clicks):
        shown = client.click(
            opened.session_id, scripted_click_gid(shown, visited)
        )
        displays.append([group.gid for group in shown])
    return displays


@pytest.fixture(scope="module")
def pool_service(space, tmp_path_factory):
    service = serve_replicated(
        space.dataset,
        space,
        workers=2,
        tag=TAG,
        state_dir=tmp_path_factory.mktemp("pool-state"),
        space_name="pooled",
        default_config=untimed_config(),
    )
    yield service
    service.stop()


class TestServingTier:
    def test_pool_end_to_end(self, pool_service, space):
        oracle, _clicked = solo_oracle(space, CLICKS)
        service = pool_service
        with ExplorationClient(service.host, service.port) as client:
            # -- routing: fresh opens land on both workers ------------
            opened = [client.open() for _ in range(4)]
            tags = sorted({o.session_id.split("-")[0] for o in opened})
            assert tags == ["w0", "w1"]
            listed = client.sessions()
            assert sorted(o.session_id for o in opened) == listed

            # -- health: one row per live replica ---------------------
            health = client.health()
            assert health["status"] == "ok"
            rows = client.replicas()
            assert [row["index"] for row in rows] == [0, 1]
            assert all(row["alive"] for row in rows)
            spaces = client.spaces()
            assert spaces["default"] == "pooled"
            assert len(spaces["replicas"]) == 2

            # -- parity: every worker replays the oracle bitwise ------
            for o in opened:
                assert client_walk(client, o, CLICKS) == oracle

            # -- mutation: epoch moves everywhere, pins hold ----------
            report = client.mutate(
                "pooled",
                add=[(["pool", "test"], [0, 1, 2, 3, 4])],
                remove=[1],
            )
            assert sorted(report["rebound_workers"]) == [0, 1]
            for row in client.replicas():
                assert row["spaces"]["pooled"]["epoch"] == report["epoch"]
            # A session opened pre-mutation keeps serving its pinned
            # epoch: clicking a gid from the old display still works.
            assert client.click(opened[0].session_id, oracle[-1][0])

            # -- takeover: SIGKILL w0, resume its walk elsewhere ------
            victim = next(
                o for o in opened if o.session_id.startswith("w0-")
            )
            survivor = next(
                o for o in opened if o.session_id.startswith("w1-")
            )
            pid = next(
                row["pid"] for row in client.replicas() if row["index"] == 0
            )
            os.kill(pid, signal.SIGKILL)
            time.sleep(0.2)
            resumed = client.open(resume=victim.resume_token)
            assert resumed.session_id.startswith("w1-")
            # Field-identical: the restored display is the dead
            # session's last display (the oracle's final click).
            assert [g.gid for g in resumed.display] == oracle[-1]
            health = client.health()
            assert health["status"] == "degraded"
            assert (
                next(
                    row
                    for row in health["replicas"]
                    if row["index"] == 0
                )["alive"]
                is False
            )
            # The survivor's walk on w1 is untouched by w0's death.
            assert client.click(survivor.session_id, oracle[-1][1])


class TestDrainAndRestart:
    def test_drained_sessions_resume_bitwise_identical(
        self, space, tmp_path
    ):
        oracle, clicked = solo_oracle(space, CLICKS + 2)
        tag = f"{TAG}drain"
        first = serve_replicated(
            space.dataset,
            space,
            workers=2,
            tag=tag,
            state_dir=tmp_path,
            space_name="pooled",
            default_config=untimed_config(),
        )
        try:
            with ExplorationClient(first.host, first.port) as client:
                opened = [client.open() for _ in range(2)]
                for o in opened:
                    assert client_walk(client, o, CLICKS) == oracle[:CLICKS]
        finally:
            first.stop()  # drains: every worker checkpoints its sessions
        assert list_segments(tag) == []

        second = serve_replicated(
            space.dataset,
            space,
            workers=2,
            tag=tag,
            state_dir=tmp_path,
            space_name="pooled",
            default_config=untimed_config(),
        )
        try:
            with ExplorationClient(second.host, second.port) as client:
                for o in opened:
                    resumed = client.open(resume=o.resume_token)
                    # Restored exactly where the drain checkpointed it…
                    assert [
                        g.gid for g in resumed.display
                    ] == oracle[CLICKS - 1]
                    # …and the continuation matches the oracle's tail:
                    # same walking policy from the same visited state.
                    visited = set(clicked[:CLICKS])
                    shown = resumed.display
                    tail = []
                    for _ in range(2):
                        shown = client.click(
                            resumed.session_id,
                            scripted_click_gid(shown, visited),
                        )
                        tail.append([g.gid for g in shown])
                    assert tail == oracle[CLICKS:]
        finally:
            second.stop()
