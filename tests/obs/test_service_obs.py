"""Observability through the single-process HTTP service (`-m obs`).

Real sockets, stock client: ``/metrics`` serves a parseable Prometheus
exposition with the right content type, every interaction lands in the
activity feed under the client's trace id, ``/healthz`` and ``/metrics``
report sweep failures from the same counter, and space eviction resets
the feed so a rebuilt space starts clean.
"""

import http.client

import pytest

from repro.core.discovery import DiscoveryConfig, discover_groups
from repro.core.runtime import GroupSpaceRuntime, scripted_click_gid
from repro.core.session import SessionConfig
from repro.data.generators.dbauthors import DBAuthorsConfig, generate_dbauthors
from repro.obs import parse_prometheus_text, read_slowlog
from repro.service import ExplorationClient, ExplorationService, ServiceError
from repro.spaces import SpaceDescriptor, SpaceRegistry

pytestmark = pytest.mark.obs


@pytest.fixture(scope="module")
def space():
    data = generate_dbauthors(DBAuthorsConfig(n_authors=220, seed=29))
    return discover_groups(
        data.dataset,
        DiscoveryConfig(method="lcm", min_support=0.07, max_description=3),
    )


def untimed_config() -> SessionConfig:
    return SessionConfig(k=5, time_budget_ms=None, use_profile=False)


def _manager(space, name=None):
    runtime = GroupSpaceRuntime(space, name=name)
    from repro.core.runtime import SessionManager

    return SessionManager(runtime, default_config=untimed_config())


def _walk(client, clicks=2):
    opened = client.open()
    shown, visited = opened.display, set()
    for _ in range(clicks):
        shown = client.click(
            opened.session_id, scripted_click_gid(shown, visited)
        )
    return opened


class TestSingleProcessMetrics:
    def test_metrics_exposition_and_content_type(self, space, tmp_path):
        slowlog = tmp_path / "slow.jsonl"
        service = ExplorationService(
            _manager(space), slow_click_ms=0.0
        ).start()
        service.obs.slowlog_path = str(slowlog)
        try:
            with ExplorationClient(service.host, service.port) as client:
                client.trace_id = "svc-trace-9"
                opened = _walk(client)
                client.close(opened.session_id)

                # Raw request: assert the exposition content type.
                connection = http.client.HTTPConnection(
                    service.host, service.port, timeout=5.0
                )
                try:
                    connection.request("GET", "/metrics")
                    response = connection.getresponse()
                    assert response.status == 200
                    content_type = response.getheader("Content-Type", "")
                    assert content_type.startswith("text/plain")
                    assert "version=0.0.4" in content_type
                    text = response.read().decode("utf-8")
                finally:
                    connection.close()

                parsed = parse_prometheus_text(text)
                interactions = {
                    labels["kind"]: value
                    for labels, value in parsed["repro_interactions_total"]
                }
                assert interactions["open"] == 1.0
                assert interactions["click"] == 2.0
                assert interactions["close"] == 1.0
                assert "repro_click_ms_bucket" in parsed
                assert "repro_http_requests_total" in parsed

                # Activity feed: the same walk, oldest first, under the
                # client's trace id.
                events = client.activity("default")
                kinds = [event["kind"] for event in events]
                assert kinds == ["open", "click", "click", "close"]
                assert all(
                    event["trace_id"] == "svc-trace-9" for event in events
                )

                # Slow log (threshold 0): worker-side stage spans under
                # the client-minted trace id.
                records = read_slowlog(slowlog)
                assert any(
                    row["trace_id"] == "svc-trace-9"
                    and "/click" in row["path"]
                    for row in records
                )
                click_row = next(
                    row for row in records if "/click" in row["path"]
                )
                stages = {row["stage"] for row in click_row["stages"]}
                assert "selection" in stages
                assert "route" in stages
        finally:
            service.stop()

    def test_metrics_off_is_a_404_kill_switch(self, space):
        service = ExplorationService(_manager(space), metrics=False).start()
        try:
            with ExplorationClient(service.host, service.port) as client:
                opened = _walk(client, clicks=1)
                with pytest.raises(ServiceError) as excinfo:
                    client.metrics()
                assert excinfo.value.status == 404
                with pytest.raises(ServiceError) as excinfo:
                    client.activity("default")
                assert excinfo.value.status == 404
                # The walk itself is unaffected.
                assert client.stats(opened.session_id)["clicks"] == 1
        finally:
            service.stop()

    def test_healthz_and_metrics_share_the_sweep_counter(self, space):
        service = ExplorationService(_manager(space)).start()
        try:
            service._count_sweep_failure()
            service._count_sweep_failure()
            assert service.sweep_failures() == 2
            with ExplorationClient(service.host, service.port) as client:
                health = client.health()
                assert health["sweep_failures"] == 2
                parsed = parse_prometheus_text(client.metrics())
                assert parsed["repro_sweep_failures_total"] == [({}, 2.0)]
        finally:
            service.stop()

    def test_shared_cache_stats_exported_per_space(self, space):
        service = ExplorationService(_manager(space)).start()
        try:
            with ExplorationClient(service.host, service.port) as client:
                _walk(client)
                parsed = parse_prometheus_text(client.metrics())
                series = parsed.get("repro_shared_cache", [])
                stats = {
                    labels["stat"]: value for labels, value in series
                }
                assert "structures" in stats and "result_entries" in stats
                # The walk populated the cross-session cache.
                assert stats["structures"] > 0 or stats["result_entries"] > 0
        finally:
            service.stop()


class TestRegistryEvictionReset:
    def test_space_eviction_clears_the_activity_feed(self, space, tmp_path):
        registry = SpaceRegistry(
            [
                SpaceDescriptor(
                    name="alpha",
                    builder=lambda: GroupSpaceRuntime(space, name="alpha"),
                )
            ],
            state_dir=tmp_path / "state",
            default_config=untimed_config(),
        )
        service = ExplorationService(registry=registry).start()
        try:
            with ExplorationClient(service.host, service.port) as client:
                opened = client.open_when_ready(space="alpha")
                client.close(opened.session_id)
                feed = client.activity("alpha")
                assert {event["kind"] for event in feed} >= {"open", "close"}

                assert registry.evict("alpha")
                feed = client.activity("alpha")
                # The ring was reset: the space-level evict marker is
                # the only survivor — no ghost events from the retired
                # manager's sessions.
                assert [event["kind"] for event in feed] == ["evict"]
                assert feed[0]["detail"] == {"space_evicted": True}

                # A rebuilt space starts a fresh feed.
                reopened = client.open_when_ready(space="alpha")
                kinds = [
                    event["kind"] for event in client.activity("alpha")
                ]
                assert kinds == ["evict", "open"]
                client.close(reopened.session_id)
        finally:
            service.stop()
            registry.shutdown(wait=True)
