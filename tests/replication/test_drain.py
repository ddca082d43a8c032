"""``cli serve`` graceful drain: SIGTERM never loses a walk.

A real ``repro.cli serve --http`` subprocess is terminated mid-session
with ``SIGTERM``; the handler checkpoints every live session before the
process exits 0.  A second server lifetime over the same state
directory must resume the walk *bitwise-identical* — restored display
equal to the last pre-drain display, and the continuation equal to an
uninterrupted oracle.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.runtime import GroupSpaceRuntime, scripted_click_gid
from repro.core.session import SessionConfig
from repro.data.etl import load_dataset
from repro.service import ExplorationClient

pytestmark = pytest.mark.replication

REPO_ROOT = Path(__file__).resolve().parents[2]
CLICKS = 3


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    from repro.cli import main

    data_dir = tmp_path_factory.mktemp("drain-data")
    store_dir = tmp_path_factory.mktemp("drain-store")
    assert main(
        [
            "generate", "dbauthors", "--out", str(data_dir),
            "--users", "200", "--seed", "47",
        ]
    ) == 0
    assert main(
        [
            "discover",
            "--actions", str(data_dir / "actions.csv"),
            "--demographics", str(data_dir / "demographics.csv"),
            "--name", "drain-db",
            "--min-support", "0.08",
            "--store", str(store_dir),
        ]
    ) == 0
    return data_dir, store_dir


@pytest.fixture(scope="module")
def oracle(store):
    data_dir, store_dir = store
    dataset = load_dataset(
        data_dir / "actions.csv",
        demographics_path=data_dir / "demographics.csv",
        name="drain-db",
    ).dataset
    runtime = GroupSpaceRuntime.from_store(
        dataset, store_dir, share_cache=False
    )
    session = runtime.create_session(
        SessionConfig(k=5, time_budget_ms=None, use_profile=False)
    )
    shown = session.start()
    displays, clicked, visited = [], [], set()
    for _ in range(CLICKS + 2):
        gid = scripted_click_gid(shown, visited)
        clicked.append(gid)
        shown = session.click(gid)
        displays.append([group.gid for group in shown])
    return displays, clicked


def start_server(store, state_dir, extra=()):
    data_dir, store_dir = store
    argv = [
        sys.executable, "-m", "repro.cli", "serve", "--http",
        "--store", str(store_dir),
        "--actions", str(data_dir / "actions.csv"),
        "--demographics", str(data_dir / "demographics.csv"),
        "--name", "drain-db",
        "--state-dir", str(state_dir),
        "--budget-ms", "100000",
        "--port", "0",
        "--compact-every", "2",
    ]
    argv += list(extra)
    process = subprocess.Popen(
        argv,
        cwd=REPO_ROOT,
        env=dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="0"),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    line = process.stdout.readline().strip()  # "serving on http://h:p"
    assert line.startswith("serving on http://"), line
    host, port = line.rsplit("/", 1)[-1].split(":")
    return process, host, int(port)


def sigterm_and_collect(process) -> str:
    process.send_signal(signal.SIGTERM)
    output = process.communicate(timeout=30)[0]
    assert process.returncode == 0, output
    return output


def test_sigterm_drains_and_resumes_bitwise(store, oracle, tmp_path):
    displays, clicked = oracle
    state_dir = tmp_path / "state"
    state_dir.mkdir()
    config = {"k": 5, "time_budget_ms": None, "use_profile": False}

    process, host, port = start_server(store, state_dir)
    try:
        with ExplorationClient(host, port) as client:
            opened = client.open(config=config)
            shown = opened.display
            visited: set[int] = set()
            walked = []
            for _ in range(CLICKS):
                shown = client.click(
                    opened.session_id, scripted_click_gid(shown, visited)
                )
                walked.append([group.gid for group in shown])
            assert walked == displays[:CLICKS]
    finally:
        output = sigterm_and_collect(process)
    # The drain is announced, and it covered the live session.
    assert "drained 1 live sessions" in output
    assert "service stopped" in output

    process, host, port = start_server(store, state_dir)
    try:
        with ExplorationClient(host, port) as client:
            resumed = client.open(resume=opened.resume_token, config=config)
            # Bitwise: restored exactly at the drained checkpoint…
            assert [
                group.gid for group in resumed.display
            ] == displays[CLICKS - 1]
            # …and the continuation walks the oracle's tail.
            visited = set(clicked[:CLICKS])
            shown = resumed.display
            tail = []
            for _ in range(2):
                shown = client.click(
                    resumed.session_id, scripted_click_gid(shown, visited)
                )
                tail.append([group.gid for group in shown])
            assert tail == displays[CLICKS:]
    finally:
        output = sigterm_and_collect(process)
    assert "drained 1 live sessions" in output


def test_replicated_serve_accepts_idle_ttl(store, tmp_path):
    """``--workers`` composes with ``--idle-ttl``: workers sweep durably."""
    state_dir = tmp_path / "state"
    state_dir.mkdir()
    process, host, port = start_server(
        store, state_dir, extra=["--workers", "1", "--idle-ttl", "60"]
    )
    try:
        with ExplorationClient(host, port) as client:
            opened = client.open(
                config={"k": 5, "time_budget_ms": None, "use_profile": False}
            )
            assert opened.session_id.startswith("w0-drain-db-")
    finally:
        output = sigterm_and_collect(process)
    assert "service stopped" in output
