"""Replicated serving: N worker processes, M concurrent analysts.

Boots a worker pool over one group space — a one-space registry fleet,
the same pool that serves a whole manifest: each worker is a separate
process attached zero-copy to the shared-memory arena holding the
space's immutable artifacts, and session ids read
``w<worker>-<space>-s0001`` — then walks the whole story: concurrent
analysts spread across workers by the sticky router; a live store
mutation published mid-run (every worker rebinds to the new epoch
while open sessions stay pinned to theirs); replica health through
``/healthz`` (per-space epochs under each replica's ``spaces``); and a
graceful stop that drains every session durably.

Run:  python examples/replicated_serving.py

Against a long-running deployment::

    python -m repro serve --http --workers 4 \
        --actions data/actions.csv --store store/ \
        --state-dir store/sessions --idle-ttl 900 --port 8765

    >>> from repro.service import ExplorationClient
    >>> client = ExplorationClient("127.0.0.1", 8765)
    >>> print(client.replicas())   # one row per worker process
"""

import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

WORKERS = 2
ANALYSTS = 4
CLICKS = 3


def analyst_walk(address):
    """One remote analyst: open, click a few times, report the trail."""
    from repro.core.runtime import scripted_click_gid
    from repro.service import ExplorationClient

    host, port = address
    with ExplorationClient(host, port) as client:
        opened = client.open()
        shown = opened.display
        visited: set[int] = set()
        trail = []
        for _ in range(CLICKS):
            shown = client.click(
                opened.session_id, scripted_click_gid(shown, visited)
            )
            trail.append([group.gid for group in shown])
        return opened.session_id, trail


def main() -> None:
    from repro.core.discovery import DiscoveryConfig, discover_groups
    from repro.core.session import SessionConfig
    from repro.data.generators.dbauthors import (
        DBAuthorsConfig,
        generate_dbauthors,
    )
    from repro.replication import serve_replicated
    from repro.service import ExplorationClient

    data = generate_dbauthors(DBAuthorsConfig(n_authors=300, seed=7))
    space = discover_groups(
        data.dataset,
        DiscoveryConfig(method="lcm", min_support=0.06, max_description=3),
    )
    workdir = Path(tempfile.mkdtemp(prefix="vexus-replicated-"))
    service = serve_replicated(
        data.dataset,
        space,
        workers=WORKERS,
        tag="example",
        state_dir=workdir / "sessions",
        space_name="dm-authors",
        default_config=SessionConfig(k=5, time_budget_ms=100.0),
    )
    # serve_replicated returns once every worker has mapped the space,
    # so the first open below never sees a 202 "building" reply.
    print(
        f"{WORKERS} workers serving {len(space)} groups on {service.url} "
        f"(arena segments: {service.pool.stats()['segments']['dm-authors']})"
    )
    try:
        # ---------------------------- M analysts, concurrently, mid-mutation
        with ThreadPoolExecutor(max_workers=ANALYSTS + 1) as executor:
            walks = [
                executor.submit(analyst_walk, (service.host, service.port))
                for _ in range(ANALYSTS)
            ]
            # One store mutation lands while the analysts are clicking:
            # drop one member from the first group (a guaranteed content
            # change — the rebind is digest-addressed, so a no-op delta
            # would be skipped).  The router publishes a new arena epoch
            # and every worker rebinds — the walks above stay pinned to
            # the epoch they opened under.
            shrunk = [int(user) for user in space[0].members[:-1]]
            with ExplorationClient(service.host, service.port) as admin:
                report = admin.mutate(
                    "dm-authors", update=[(space[0].gid, shrunk)]
                )
            print(
                f"mutation mid-run: epoch {report['epoch']}, "
                f"workers rebound {report['rebound_workers']}"
            )
            outcomes = [walk.result() for walk in walks]

        workers_used = {sid.split("-")[0] for sid, _ in outcomes}
        print(f"{ANALYSTS} analysts spread over workers {sorted(workers_used)}")
        for sid, trail in outcomes:
            print(f"  [{sid}] walked {[step for step in trail]}")
        assert len(workers_used) == WORKERS

        # ------------------------------------------------- replica health
        with ExplorationClient(service.host, service.port) as probe:
            for row in probe.replicas():
                epoch = row["spaces"]["dm-authors"]["epoch"]
                print(
                    f"  worker {row['index']}: pid {row['pid']} "
                    f"port {row['port']} epoch {epoch} "
                    f"{'alive' if row['alive'] else 'dead'}"
                )
                assert epoch == report["epoch"]
    finally:
        service.stop()  # drains every live session durably, unlinks arenas
    print("done")


if __name__ == "__main__":
    main()
