"""Cross-space replicated serving: parity, isolation, takeover, warm boot.

The composed tier (``cli serve --http --workers N --spaces ...``) runs
one worker fleet over a whole space registry: per-``(space, worker)``
session ids, per-space arenas, per-space mutation.  This suite pins the
claims the composition adds on top of ``test_pool.py``'s single-space
ones (``-m replication``):

- **parity per space** — walks routed through any worker match each
  space's single-process oracle bitwise;
- **zero cross-space leakage** — a background mutator hammering space A
  changes nothing about concurrent walks on space B (bitwise), and A
  sessions opened pre-mutation keep their pinned epoch;
- **per-space epochs** — ``/spaces`` shows A advanced while B stayed;
- **takeover by (space, worker)** — SIGKILL one worker: a space-B
  resume token (bare — the space is recovered from the id) restores on
  a surviving replica while space-A sessions there keep serving;
- **warm boot** — a second pool over the same ``--arena-cache`` dir
  attaches the mmap-restored segments instead of re-running discovery.

Environment knob (CI matrix): ``REPRO_TEST_WORKERS`` (fleet size,
default 2).
"""

import os
import signal
import threading
import time

import pytest

from repro.core.discovery import DiscoveryConfig, discover_groups
from repro.core.runtime import GroupSpaceRuntime, scripted_click_gid
from repro.core.session import SessionConfig
from repro.data.generators.dbauthors import DBAuthorsConfig, generate_dbauthors
from repro.replication import serve_replicated_spaces
from repro.service import ExplorationClient
from repro.spaces.descriptor import SpaceDescriptor

pytestmark = pytest.mark.replication

CLICKS = 3
TAG = f"spacestest{os.getpid()}"
WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))

_GENERATORS = {
    "authors": {"kind": "dbauthors", "n_authors": 200, "seed": 5},
    "books": {"kind": "dbauthors", "n_authors": 170, "seed": 11},
}
_DISCOVERY = {"method": "lcm", "min_support": 0.08, "max_description": 3}


def _descriptors():
    return [
        SpaceDescriptor(
            name=name, generator=dict(spec), discovery=dict(_DISCOVERY)
        )
        for name, spec in _GENERATORS.items()
    ]


def untimed_config() -> SessionConfig:
    return SessionConfig(k=5, time_budget_ms=None, use_profile=False)


@pytest.fixture(scope="module")
def oracles():
    """Per-space single-process scripted walks (the parity baseline)."""
    result = {}
    for name, spec in _GENERATORS.items():
        data = generate_dbauthors(
            DBAuthorsConfig(n_authors=spec["n_authors"], seed=spec["seed"])
        )
        space = discover_groups(
            data.dataset,
            DiscoveryConfig(
                method=_DISCOVERY["method"],
                min_support=_DISCOVERY["min_support"],
                max_description=_DISCOVERY["max_description"],
            ),
        )
        runtime = GroupSpaceRuntime(space, share_cache=False)
        session = runtime.create_session(untimed_config())
        shown = session.start()
        displays, clicked, visited = [], [], set()
        for _ in range(CLICKS + 2):
            gid = scripted_click_gid(shown, visited)
            clicked.append(gid)
            shown = session.click(gid)
            displays.append([group.gid for group in shown])
        result[name] = {
            "start": [group.gid for group in runtime.create_session(
                untimed_config()
            ).start()],
            "displays": displays,
            "clicked": clicked,
        }
    return result


@pytest.fixture(scope="module")
def spaces_service(tmp_path_factory):
    service = serve_replicated_spaces(
        _descriptors(),
        workers=WORKERS,
        tag=TAG,
        state_dir=tmp_path_factory.mktemp("spaces-state"),
        default_config=untimed_config(),
    )
    yield service
    service.stop()


def client_walk(client, opened, clicks, shown=None):
    shown = opened.display if shown is None else shown
    displays, visited = [], set()
    for _ in range(clicks):
        shown = client.click(
            opened.session_id, scripted_click_gid(shown, visited)
        )
        displays.append([group.gid for group in shown])
    return displays


def test_cross_space_parity_isolation_takeover(spaces_service, oracles):
    service = spaces_service
    pool = service.pool
    with ExplorationClient(service.host, service.port) as client:
        # -- composed routing: ids carry (worker, space) --------------
        opened = {
            name: [
                client.open_when_ready(space=name, timeout_s=180.0)
                for _ in range(2 * WORKERS)
            ]
            for name in _GENERATORS
        }
        for name, sessions in opened.items():
            assert all(f"-{name}-" in o.session_id for o in sessions)
            tags = sorted({o.session_id.split("-")[0] for o in sessions})
            assert tags == [f"w{i}" for i in range(WORKERS)]
        # The default space is the manifest's first entry.
        bare = client.open()
        assert "-authors-" in bare.session_id
        client.close(bare.session_id)

        # -- parity: every space, every worker, bitwise ----------------
        walked = {
            name: [
                client_walk(client, o, CLICKS) for o in sessions
            ]
            for name, sessions in opened.items()
        }
        for name, walks in walked.items():
            for walk in walks:
                assert walk == oracles[name]["displays"][:CLICKS]

        # -- isolation: mutate A while walking B ----------------------
        pinned_a = opened["authors"][0]
        errors = []

        def mutator():
            try:
                for round_ in range(2):
                    client_b = ExplorationClient(service.host, service.port)
                    try:
                        client_b.mutate(
                            "authors",
                            add=[
                                (
                                    [f"mut={round_}", "spaces"],
                                    list(range(5 + round_)),
                                )
                            ],
                        )
                    finally:
                        client_b.close_connection()
                    time.sleep(0.05)
            except Exception as error:  # noqa: BLE001 — surfaced below
                errors.append(error)

        fresh_b = client.open(space="books")
        thread = threading.Thread(target=mutator)
        thread.start()
        walked_b = client_walk(client, fresh_b, CLICKS)
        thread.join(timeout=60)
        assert not thread.is_alive() and not errors, errors
        # B never saw A's mutations: bitwise oracle parity end to end.
        assert [g.gid for g in fresh_b.display] == oracles["books"]["start"]
        assert walked_b == oracles["books"]["displays"][:CLICKS]

        # A sessions opened pre-mutation keep their pinned epoch: the
        # continuation matches the never-mutated oracle exactly.
        visited = set(oracles["authors"]["clicked"][:CLICKS])
        shown = client.displayed(pinned_a.session_id)
        tail = []
        for _ in range(2):
            shown = client.click(
                pinned_a.session_id, scripted_click_gid(shown, visited)
            )
            tail.append([g.gid for g in shown])
        assert tail == oracles["authors"]["displays"][CLICKS:]

        # -- per-space epochs: A advanced, B did not ------------------
        payload = client.spaces()
        by_name = payload["spaces"]
        assert by_name["authors"]["epoch"] == 2
        assert by_name["books"]["epoch"] == 0
        assert len(by_name["authors"]["segments"]) >= 1
        assert payload["default"] == "authors"
        for row in client.replicas():
            if row["alive"]:
                assert row["spaces"]["authors"]["epoch"] == 2
                assert row["spaces"]["books"]["epoch"] == 0

        if WORKERS < 2:
            return

        # -- takeover: SIGKILL a worker serving space B ---------------
        victim = next(
            o for o in opened["books"] if o.session_id.startswith("w0-")
        )
        survivor_a = next(
            o for o in opened["authors"] if o.session_id.startswith("w1-")
        )
        pid = next(
            row["pid"] for row in client.replicas() if row["index"] == 0
        )
        os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        while (
            pool.replicas[0].process.is_alive()
            and time.monotonic() < deadline
        ):
            time.sleep(0.1)
        # The bare token carries (worker, space): the router recovers
        # the space from the id and fails the resume over to w1.
        resumed = client.open(resume=victim.resume_token)
        assert resumed.session_id.startswith("w1-books-")
        assert resumed.space == "books"
        assert [g.gid for g in resumed.display] == (
            oracles["books"]["displays"][CLICKS - 1]
        )
        # Space A keeps serving on the survivor throughout.
        visited = set(oracles["authors"]["clicked"][:CLICKS])
        shown = client.displayed(survivor_a.session_id)
        assert client.click(
            survivor_a.session_id, scripted_click_gid(shown, visited)
        )
        assert client.health()["status"] == "degraded"


def test_arena_cache_warm_boot(tmp_path, oracles):
    tag = f"{TAG}warm"
    cache = tmp_path / "cache"
    state = tmp_path / "state"
    first = serve_replicated_spaces(
        _descriptors(),
        workers=1,
        tag=tag,
        state_dir=state,
        arena_cache=cache,
        default_config=untimed_config(),
    )
    try:
        with ExplorationClient(first.host, first.port) as client:
            for name in _GENERATORS:
                opened = client.open_when_ready(space=name, timeout_s=180.0)
                assert [g.gid for g in opened.display] == (
                    oracles[name]["start"]
                )
        assert first.pool.arena_cache_hits == []
        saved = sorted(p.name for p in cache.glob("*.arena"))
        assert saved == sorted(
            f"{tag}_{name}.arena" for name in _GENERATORS
        )
    finally:
        first.stop()

    second = serve_replicated_spaces(
        _descriptors(),
        workers=1,
        tag=tag,
        state_dir=state,
        arena_cache=cache,
        default_config=untimed_config(),
    )
    try:
        with ExplorationClient(second.host, second.port) as client:
            for name in _GENERATORS:
                opened = client.open_when_ready(space=name, timeout_s=180.0)
                # The mmap-restored arena serves the same space bitwise.
                assert [g.gid for g in opened.display] == (
                    oracles[name]["start"]
                )
                assert client_walk(client, opened, CLICKS) == (
                    oracles[name]["displays"][:CLICKS]
                )
        assert sorted(second.pool.arena_cache_hits) == sorted(_GENERATORS)
    finally:
        second.stop()
