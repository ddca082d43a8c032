"""The router's HTTP plumbing matches the worker's (``-m replication``).

Regressions from when the router carried its own copy of the handler
plumbing:

- **Nagle stall** — the router wrote status line + headers and the body
  in separate small writes without ``TCP_NODELAY``, so on a keep-alive
  connection every reply waited out the client's delayed ACK: ~44 ms
  per ``displayed`` round trip through the router against ~0.5 ms
  straight to the worker (2-core Linux host, localhost sockets);
- **silent drop** — a non-integer ``Content-Length`` made the router
  close the connection without a reply, where a worker answers a typed
  ``400 bad_request``.
"""

import http.client
import json
import os
import statistics
import time

import pytest

from repro.core.discovery import DiscoveryConfig, discover_groups
from repro.core.session import SessionConfig
from repro.data.generators.dbauthors import DBAuthorsConfig, generate_dbauthors
from repro.replication import serve_replicated

pytestmark = pytest.mark.replication

TAG = f"routertest{os.getpid()}"

#: Far above the fixed router's ~1.5 ms and far below the ~44 ms stall.
DISPLAYED_P50_LIMIT_MS = 10.0


@pytest.fixture(scope="module")
def router():
    data = generate_dbauthors(DBAuthorsConfig(n_authors=150, seed=31))
    space = discover_groups(
        data.dataset,
        DiscoveryConfig(method="lcm", min_support=0.08, max_description=3),
    )
    service = serve_replicated(
        data.dataset,
        space,
        workers=1,
        tag=TAG,
        space_name="hop",
        default_config=SessionConfig(
            k=5, time_budget_ms=None, use_profile=False
        ),
    )
    yield service
    service.stop()


def _exchange(connection, method, path, body=None):
    headers = {"Content-Type": "application/json"} if body is not None else {}
    connection.request(method, path, body=body, headers=headers)
    response = connection.getresponse()
    return response.status, json.loads(response.read().decode("utf-8"))


def test_keepalive_displayed_through_router_is_not_stalled(router):
    connection = http.client.HTTPConnection(router.host, router.port, timeout=10)
    try:
        status, opened = _exchange(connection, "POST", "/v1/sessions", b"{}")
        assert status == 200
        path = f"/v1/sessions/{opened['session_id']}/displayed"
        samples = []
        for _ in range(30):
            started = time.perf_counter()
            status, payload = _exchange(connection, "GET", path)
            samples.append((time.perf_counter() - started) * 1000.0)
            assert status == 200
            assert payload["display"] == opened["display"]
    finally:
        connection.close()
    p50 = statistics.median(samples)
    assert p50 < DISPLAYED_P50_LIMIT_MS, (
        f"keep-alive displayed p50 {p50:.1f} ms through the router"
    )


def _bad_content_length(host, port):
    connection = http.client.HTTPConnection(host, port, timeout=10)
    try:
        connection.putrequest("POST", "/v1/sessions")
        connection.putheader("Content-Type", "application/json")
        connection.putheader("Content-Length", "abc")
        connection.endheaders()
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()


def test_non_integer_content_length_is_a_typed_400(router):
    worker_port = router.pool.replicas[0].port
    for port in (worker_port, router.port):
        status, payload = _bad_content_length(router.host, port)
        assert status == 400
        assert payload["error"]["type"] == "bad_request"
        assert "Content-Length" in payload["error"]["message"]
