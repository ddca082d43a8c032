"""Orphaned shared-memory segments die at the next startup (``-m recovery``).

POSIX shared memory outlives its creator: a SIGKILLed serving parent
(no atexit, no resource tracker — arenas deliberately disown it) leaves
``/dev/shm/repro_arena_<tag>_*`` behind.  A crash-looping deployment
must not accumulate dead arenas until the kernel refuses new ones, so
a replicated pool sweeps every segment under its tag before the first
publish.  This matrix kills a real publisher process with ``SIGKILL``,
observes the leak, and asserts the next pool lifetime removes it.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.discovery import DiscoveryConfig, discover_groups
from repro.data.generators.dbauthors import DBAuthorsConfig, generate_dbauthors
from repro.replication import list_segments, serve_replicated, sweep_orphans

pytestmark = pytest.mark.recovery

REPO_ROOT = Path(__file__).resolve().parents[2]

_PUBLISHER = """
import os, signal, sys
from repro.core.discovery import DiscoveryConfig, discover_groups
from repro.data.generators.dbauthors import DBAuthorsConfig, generate_dbauthors
from repro.index.inverted import SimilarityIndex
from repro.replication import publish_arena

tag = sys.argv[1]
# A different seed than the restart's space: the leaked segment must
# not be content-identical to the one the next lifetime publishes, or
# the two names collide and the sweep assertion proves nothing.
data = generate_dbauthors(DBAuthorsConfig(n_authors=120, seed=54))
space = discover_groups(
    data.dataset,
    DiscoveryConfig(method="lcm", min_support=0.09, max_description=3),
)
index = SimilarityIndex(
    [group.members for group in space],
    space.dataset.n_users,
    materialize_fraction=0.10,
)
published = publish_arena(space, index, tag)
print(published.name, flush=True)
os.kill(os.getpid(), signal.SIGKILL)  # abrupt death: no cleanup runs
"""


@pytest.fixture
def tag():
    value = f"orphan{os.getpid()}"
    yield value
    sweep_orphans(value)


def test_sigkilled_publisher_leaks_and_restart_sweeps(tag, tmp_path):
    process = subprocess.run(
        [sys.executable, "-c", _PUBLISHER, tag],
        cwd=REPO_ROOT,
        env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True,
        text=True,
        timeout=120,
    )
    # The publisher really died abruptly, after really publishing.
    assert process.returncode == -signal.SIGKILL, process.stderr
    leaked = process.stdout.strip()
    assert leaked.startswith(f"repro_arena_{tag}_")
    assert leaked in list_segments(tag), "SIGKILL must leak the segment"

    # Next lifetime over the same tag: the startup sweep removes the
    # orphan before publishing its own arena, and serving still works.
    data = generate_dbauthors(DBAuthorsConfig(n_authors=120, seed=53))
    space = discover_groups(
        data.dataset,
        DiscoveryConfig(method="lcm", min_support=0.09, max_description=3),
    )
    service = serve_replicated(
        data.dataset,
        space,
        workers=1,
        tag=tag,
        state_dir=tmp_path,
        space_name="orphan",
    )
    pool = service.pool
    try:
        assert leaked in pool.swept_orphans
        remaining = list_segments(tag)
        assert leaked not in remaining
        # Exactly the pool's own live arena remains under the tag.
        assert len(remaining) == 1
        assert pool.replicas[0].alive
    finally:
        service.stop()
    assert list_segments(tag) == []


def test_sweep_is_scoped_to_its_tag(tag):
    other = f"{tag}other"
    process = subprocess.run(
        [sys.executable, "-c", _PUBLISHER, other],
        cwd=REPO_ROOT,
        env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert process.returncode == -signal.SIGKILL, process.stderr
    leaked = process.stdout.strip()
    try:
        # A different deployment's sweep must not touch this tag.
        assert sweep_orphans(tag) == []
        assert leaked in list_segments(other)
    finally:
        removed = sweep_orphans(other)
        assert leaked in removed
