"""The serving import stays lean.

A server never clusters users (BIRCH's agglomerative phase) and never
builds the networkx group graph, so importing the service, the space
registry and the replication layer must not load ``scipy.cluster`` or
``networkx``.  Run in a fresh interpreter: the test session itself may
have imported both already.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

PROBE = """
import sys
import repro.service.server, repro.spaces, repro.replication
heavy = sorted(
    name for name in sys.modules
    if name == "networkx" or name.startswith(("networkx.", "scipy.cluster"))
)
print(",".join(heavy))
"""


def test_serving_import_skips_offline_only_modules():
    environment = dict(os.environ)
    source = str(REPO_ROOT / "src")
    existing = environment.get("PYTHONPATH")
    environment["PYTHONPATH"] = source + (os.pathsep + existing if existing else "")
    completed = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        env=environment,
        cwd=REPO_ROOT,
        timeout=120,
        check=True,
    )
    assert completed.stdout.strip() == ""
