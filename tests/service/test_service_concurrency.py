"""Concurrency stress through the network path (``-m concurrency``).

The in-process threaded suite (``tests/core/test_runtime.py``) already
proves the manager's contracts; these tests re-prove them with real HTTP
clients on real sockets — N clients × M interleaved clicks against one
server — because the service adds its own layers (one handler thread per
connection, JSON round trips, per-interaction journal appends) that could
break them independently:

- per-session serialization: concurrent clicks on one session never
  corrupt its history;
- feedback isolation: concurrent sessions each learn exactly their own
  walk;
- shared warmth: cross-session structure hits still happen when every
  session arrives over the wire;
- durable checkpointing under contention: the persisted state of every
  session is loadable and current after a threaded run.

The durable tests journal every interaction (one fsync'd
digest-chained record each) with an aggressive compaction cadence, so
rotation happens *during* contention.

``REPRO_TEST_MUTATION=1`` additionally arms the background-mutator
stress: a thread publishes store epochs as fast as it can while the N
clients click, and every client must still see bitwise the displays of
a quiesced solo run — epoch pinning makes online mutation invisible to
open sessions, journal appends included.

``REPRO_TEST_WORKERS=N`` (N >= 2) arms the replicated variant: the same
contended-parity claim re-proven against a real N-worker pool (spawned
replicas attached zero-copy to the shared-memory arena, sticky router
in front) — displays compared only, since sessions live in worker
processes the test cannot reach into.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.discovery import DiscoveryConfig, discover_groups
from repro.core.journal import read_journal
from repro.core.runtime import (
    GroupSpaceRuntime,
    SessionManager,
    scripted_click_gid,
)
from repro.core.session import ExplorationSession, SessionConfig
from repro.core.store import load_session_state
from repro.data.generators.dbauthors import DBAuthorsConfig, generate_dbauthors
from repro.service import ExplorationClient, ExplorationService

pytestmark = pytest.mark.concurrency

N_CLIENTS = 6
N_CLICKS = 4
MUTATION = os.environ.get("REPRO_TEST_MUTATION", "") == "1"
WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "0") or 0)


@pytest.fixture(scope="module")
def space():
    data = generate_dbauthors(DBAuthorsConfig(n_authors=260, seed=23))
    return discover_groups(
        data.dataset,
        DiscoveryConfig(method="lcm", min_support=0.06, max_description=3),
    )


def untimed_config() -> SessionConfig:
    return SessionConfig(k=5, time_budget_ms=None, use_profile=False)


def solo_replay(space, clicks: int):
    runtime = GroupSpaceRuntime(space, share_cache=False)
    session = runtime.create_session(untimed_config())
    shown = session.start()
    displays = []
    visited: set[int] = set()
    for _ in range(clicks):
        shown = session.click(scripted_click_gid(shown, visited))
        displays.append([group.gid for group in shown])
    return displays, session.feedback.snapshot()


def http_replay(service, clicks: int):
    """One remote analyst: own connection, scripted walk, then close."""
    with ExplorationClient(service.host, service.port) as client:
        opened = client.open()
        shown = opened.display
        displays = []
        visited: set[int] = set()
        for _ in range(clicks):
            shown = client.click(
                opened.session_id, scripted_click_gid(shown, visited)
            )
            displays.append([group.gid for group in shown])
        feedback = service.manager.session(opened.session_id).feedback.snapshot()
        summary = client.close(opened.session_id)
        return displays, feedback, summary


class TestContendedClients:
    def test_n_clients_match_solo_and_stay_isolated(self, space):
        expected_displays, expected_feedback = solo_replay(space, N_CLICKS)
        manager = SessionManager(
            GroupSpaceRuntime(space), default_config=untimed_config()
        )
        with ExplorationService(manager).start() as service:
            with ThreadPoolExecutor(max_workers=N_CLIENTS) as pool:
                outcomes = list(
                    pool.map(
                        lambda _: http_replay(service, N_CLICKS),
                        range(N_CLIENTS),
                    )
                )
        for displays, feedback, _summary in outcomes:
            # Parity: the wire + thread contention is invisible.
            assert displays == expected_displays
            # Isolation: no other client's clicks leaked into CONTEXT.
            assert feedback == expected_feedback

    def test_cross_session_warmth_flows_through_http(self, space):
        manager = SessionManager(
            GroupSpaceRuntime(space), default_config=untimed_config()
        )
        with ExplorationService(manager).start() as service:
            http_replay(service, N_CLICKS)  # session 1 pays the cold start
            with ThreadPoolExecutor(max_workers=4) as pool:
                outcomes = list(
                    pool.map(
                        lambda _: http_replay(service, N_CLICKS), range(4)
                    )
                )
            # Every later client replays session 1's walk, so it is served
            # the results session 1 converged on.
            assert all(
                summary["cache"]["shared_result_hits"] > 0
                for _displays, _feedback, summary in outcomes
            )
            assert manager.runtime.shared.stats()["result_hits"] > 0

    def test_same_session_concurrent_clicks_serialize(self, space):
        manager = SessionManager(
            GroupSpaceRuntime(space), default_config=untimed_config()
        )
        with ExplorationService(manager).start() as service:
            with ExplorationClient(service.host, service.port) as opener:
                opened = opener.open()
                gids = [group.gid for group in opened.display]

            def click(gid: int):
                # A separate connection per thread: genuinely parallel
                # requests racing into one session.
                with ExplorationClient(service.host, service.port) as client:
                    return client.click(opened.session_id, gid)

            with ThreadPoolExecutor(max_workers=len(gids)) as pool:
                displays = list(pool.map(click, gids))
            session = manager.session(opened.session_id)
            # One history step per click, whatever the interleaving.
            assert len(session.history) == 1 + len(gids)
            assert all(1 <= len(display) <= 5 for display in displays)


def one_group_churn(runtime, seed: int):
    """A minimal membership churn against the runtime's current epoch."""
    import numpy as np

    from repro.core.group import GroupDelta

    rng = np.random.default_rng(seed)
    space = runtime.space
    gid = int(rng.integers(len(space)))
    members = space[gid].members
    if len(members) > 1:
        churned = np.delete(members, int(rng.integers(len(members))))
    else:
        churned = np.union1d(
            members, [int(rng.integers(space.dataset.n_users))]
        )
    return GroupDelta.build(changed=[(gid, churned)])


@pytest.mark.skipif(
    not MUTATION,
    reason="set REPRO_TEST_MUTATION=1 to run the background-mutator stress",
)
class TestMutationUnderContention:
    def test_pinned_sessions_see_quiesced_displays_mid_mutation(
        self, space, tmp_path
    ):
        """Clicks raced by a store mutator match a quiesced run bitwise.

        Every session opens under the genesis epoch, then a background
        thread publishes churn epochs as fast as it can while N HTTP
        clients walk their sessions concurrently.  Epoch pinning means
        the mutator must be *invisible*: every display equals the solo
        quiesced replay, and feedback stays per-session.  The sessions
        are durable, so per-click journal appends race the epoch swaps
        too.
        """
        expected_displays, expected_feedback = solo_replay(space, N_CLICKS)
        manager = SessionManager(
            GroupSpaceRuntime(space),
            default_config=untimed_config(),
            state_dir=tmp_path,
            compact_every=2,
        )
        with ExplorationService(manager).start() as service:
            clients = [
                ExplorationClient(service.host, service.port)
                for _ in range(N_CLIENTS)
            ]
            try:
                opened = [client.open() for client in clients]
                stop = threading.Event()

                def mutator():
                    seed = 0
                    while not stop.is_set():
                        seed += 1
                        manager.apply_deltas(
                            one_group_churn(manager.runtime, seed)
                        )

                churner = threading.Thread(target=mutator)
                churner.start()
                try:

                    def walk(pair):
                        client, session = pair
                        shown = session.display
                        displays = []
                        visited: set[int] = set()
                        for _ in range(N_CLICKS):
                            shown = client.click(
                                session.session_id,
                                scripted_click_gid(shown, visited),
                            )
                            displays.append([group.gid for group in shown])
                        feedback = manager.session(
                            session.session_id
                        ).feedback.snapshot()
                        return displays, feedback

                    with ThreadPoolExecutor(max_workers=N_CLIENTS) as pool:
                        outcomes = list(
                            pool.map(walk, zip(clients, opened))
                        )
                finally:
                    stop.set()
                    churner.join()
            finally:
                for client in clients:
                    client.close_connection()
        assert manager.runtime.epoch > 0  # the mutator really published
        assert not manager.degraded
        for displays, feedback in outcomes:
            assert displays == expected_displays
            assert feedback == expected_feedback


class TestDurableUnderContention:
    def test_checkpoints_stay_consistent_under_threads(self, space, tmp_path):
        manager = SessionManager(
            GroupSpaceRuntime(space),
            default_config=untimed_config(),
            state_dir=tmp_path,
            # Compact every other record so snapshot rotation races the
            # contended clicks, not just the closes.
            compact_every=2,
        )
        with ExplorationService(manager).start() as service:
            with ThreadPoolExecutor(max_workers=N_CLIENTS) as pool:
                outcomes = list(
                    pool.map(
                        lambda _: http_replay(service, N_CLICKS),
                        range(N_CLIENTS),
                    )
                )
        assert not manager.degraded
        for displays, _feedback, summary in outcomes:
            # Every closed session's persisted state is loadable and
            # reflects its full walk — no checkpoint was torn or lost.
            restored = ExplorationSession(space, config=untimed_config())
            load_session_state(restored, tmp_path / summary["resume_token"])
            assert restored.displayed_gids() == displays[-1]
            assert len(restored.history) == 1 + N_CLICKS
            # The close compacted: a fresh genesis-only journal and a
            # snapshot stamped with everything it covers.
            records, torn = read_journal(
                tmp_path / summary["resume_token"] / "journal.log"
            )
            assert torn == 0
            assert [r["kind"] for r in records] == ["genesis"]


@pytest.mark.replication
@pytest.mark.skipif(
    WORKERS < 2,
    reason="set REPRO_TEST_WORKERS>=2 to run the replicated-pool stress",
)
class TestReplicatedContention:
    def test_contended_clients_match_solo_across_workers(
        self, space, tmp_path
    ):
        """N clients through a real worker pool still replay the oracle.

        The strongest cross-process parity claim: every walk is bitwise
        the quiesced solo run even though the clients are spread over
        ``WORKERS`` spawned replicas serving zero-copy arena views, with
        per-click journal appends into a shared state directory.  Only
        displays are compared — the sessions' feedback vectors live in
        the worker processes.
        """
        from repro.replication import serve_replicated

        expected_displays, _expected_feedback = solo_replay(space, N_CLICKS)
        service = serve_replicated(
            space.dataset,
            space,
            workers=WORKERS,
            tag=f"conc{os.getpid()}",
            state_dir=tmp_path,
            space_name="conc",
            default_config=untimed_config(),
        )
        try:

            def walk(_client_index: int):
                with ExplorationClient(service.host, service.port) as client:
                    opened = client.open()
                    shown = opened.display
                    displays = []
                    visited: set[int] = set()
                    for _ in range(N_CLICKS):
                        shown = client.click(
                            opened.session_id,
                            scripted_click_gid(shown, visited),
                        )
                        displays.append([group.gid for group in shown])
                    client.close(opened.session_id)
                    return opened.session_id, displays

            with ThreadPoolExecutor(max_workers=N_CLIENTS) as executor:
                outcomes = list(executor.map(walk, range(N_CLIENTS)))
        finally:
            service.stop()
        # Contention genuinely spanned replicas…
        assert len({sid.split("-")[0] for sid, _ in outcomes}) == WORKERS
        # …and the wire + process + arena layers are invisible.
        for _sid, displays in outcomes:
            assert displays == expected_displays
