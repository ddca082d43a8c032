"""Observability for the serving tier: metrics, events, traces.

One :class:`Observability` object per serving process bundles the three
pillars this package provides and is threaded (optionally) through the
stack — :class:`~repro.core.runtime.SessionManager`,
:class:`~repro.spaces.registry.SpaceRegistry`,
:class:`~repro.service.server.ExplorationService`, and the replication
workers:

- a :class:`~repro.obs.metrics.MetricsRegistry` (Prometheus text at
  ``GET /metrics``; JSON dumps over ``/internal/metrics`` for fleet
  aggregation with ``worker`` labels);
- an :class:`~repro.obs.events.EventBus` with the metrics sink and the
  per-space :class:`~repro.obs.events.ActivityRing` attached (served at
  ``GET /spaces/<name>/activity``), plus an optional JSONL sink;
- trace propagation (:mod:`repro.obs.trace`): request-scoped
  :class:`~repro.obs.trace.Trace` activation, per-stage
  :func:`~repro.obs.trace.span` timings, and a structured slow-request
  log for requests that exceed ``slow_click_ms``.

Everything degrades to zero: pass ``obs=None`` (the default everywhere)
and the runtime publishes nothing; :func:`~repro.obs.trace.span` calls
sprinkled through the core cost one contextvar read when no trace is
active.  The perf harness's ``observability`` section holds the
instrumented click p50 within 1.05x of the uninstrumented one.

See ``docs/OBSERVABILITY.md`` for the metric names, label schema, event
types and the trace header contract.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from collections import deque
from pathlib import Path
from typing import Optional

from repro.obs.events import (
    EVENT_KINDS,
    ActivityRing,
    Event,
    EventBus,
    JsonlSink,
    MetricsSink,
    Sink,
)
from repro.obs.metrics import (
    DEFAULT_MS_BUCKETS,
    MetricsRegistry,
    label_dump,
    merge_dumps,
    parse_prometheus_text,
    render_dump,
)
from repro.obs.trace import (
    TRACE_HEADER,
    Trace,
    activate,
    current_trace,
    deactivate,
    mint_trace_id,
    span,
    traced,
)

__all__ = [
    "ActivityRing",
    "DEFAULT_MS_BUCKETS",
    "EVENT_KINDS",
    "Event",
    "EventBus",
    "JsonlSink",
    "MetricsRegistry",
    "MetricsSink",
    "Observability",
    "Sink",
    "TRACE_HEADER",
    "Trace",
    "current_trace",
    "label_dump",
    "merge_dumps",
    "mint_trace_id",
    "parse_prometheus_text",
    "render_dump",
    "span",
    "traced",
]

_slow_logger = logging.getLogger("repro.obs.slow")


class _RequestSpan:
    """Context manager for one instrumented HTTP request.

    Activates a :class:`Trace` so core-level :func:`span` calls record
    into it, times the request, updates the HTTP metrics, and emits a
    structured slow-request record when the total exceeds the owning
    :class:`Observability`'s ``slow_click_ms``.
    """

    __slots__ = ("obs", "path", "trace", "_token", "status")

    def __init__(self, obs: "Observability", path: str, trace_id: str) -> None:
        self.obs = obs
        self.path = path
        self.trace = Trace(trace_id)
        self.status = 200

    def set_status(self, status: int) -> None:
        self.status = status

    def __enter__(self) -> "_RequestSpan":
        self._token = activate(self.trace)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        deactivate(self._token)
        obs = self.obs
        total_ms = self.trace.total_ms()
        status = 500 if exc_type is not None else self.status
        obs.http_requests.labels(status=str(status)).inc()
        obs.http_request_ms.observe(total_ms)
        if obs.slow_click_ms is not None and total_ms >= obs.slow_click_ms:
            obs.record_slow_request(
                self.path, status, total_ms, self.trace
            )


class Observability:
    """Per-process observability bundle (registry + bus + slow-request log)."""

    def __init__(
        self,
        slow_click_ms: Optional[float] = None,
        slowlog_path: Optional[str] = None,
        events_jsonl_path: Optional[str] = None,
        activity_per_space: int = 256,
        registry: Optional[MetricsRegistry] = None,
        slow_keep: int = 128,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.bus = EventBus()
        self.activity = self.bus.subscribe(ActivityRing(activity_per_space))
        self.bus.subscribe(MetricsSink(self.registry))
        if events_jsonl_path is not None:
            self.bus.subscribe(JsonlSink(events_jsonl_path))
        self.slow_click_ms = slow_click_ms
        self.slowlog_path = slowlog_path
        self._slowlog_lock = threading.Lock()
        self.slow_records: "deque[dict]" = deque(maxlen=max(slow_keep, 1))

        registry = self.registry
        self.http_requests = registry.counter(
            "repro_http_requests_total", "HTTP requests served, by status"
        )
        self.http_request_ms = registry.histogram(
            "repro_http_request_ms", "HTTP request service time (milliseconds)"
        )
        self.slow_requests = registry.counter(
            "repro_slow_requests_total",
            "Requests that exceeded the slow-click threshold",
        )
        self.event_drops = registry.counter(
            "repro_events_dropped_total",
            "Events dropped by the bus (full queue or raising sink)",
        )
        self.event_published = registry.counter(
            "repro_events_published_total",
            "Events accepted by the bus for fan-out",
        )
        self.sweep_failures = registry.counter(
            "repro_sweep_failures_total",
            "Idle-sweep passes that raised unexpectedly",
        )
        self.respawn_failures = registry.counter(
            "repro_respawn_failures_total",
            "Worker respawn attempts that failed, by worker",
        )
        self.journal_append_ms = registry.histogram(
            "repro_journal_append_ms",
            "Durable journal append latency (milliseconds)",
        )
        registry.register_collector(self._collect_bus)

    # -- events ----------------------------------------------------------

    def publish(
        self,
        kind: str,
        space: str = "",
        session_id: str = "",
        detail: Optional[dict] = None,
        elapsed_ms: Optional[float] = None,
    ) -> None:
        """Publish one interaction event (trace id taken from the context)."""
        trace = current_trace()
        self.bus.publish(
            Event(
                kind=kind,
                space=space,
                session_id=session_id,
                detail=detail or {},
                elapsed_ms=elapsed_ms,
                trace_id=trace.trace_id if trace is not None else None,
            )
        )

    def _collect_bus(self) -> None:
        drops = self.bus.drops
        current = self.event_drops.labels().get()
        if drops > current:
            self.event_drops.labels().inc(drops - current)
        published = self.bus.published
        current = self.event_published.labels().get()
        if published > current:
            self.event_published.labels().inc(published - current)

    def register_shared_cache(self, space: str, cache) -> None:
        """Mirror a ``SharedSelectionCache``'s stats onto the registry.

        Registered as an export-time collector, so the gauge family
        ``repro_shared_cache{space,stat}`` reads the live cache stats
        exactly when something scrapes — no polling thread, and
        ``/healthz`` and ``/metrics`` report from the same
        ``cache.stats()`` source.
        """
        family = self.registry.gauge(
            "repro_shared_cache",
            "SharedSelectionCache stats, by space and stat",
        )
        stats_keys = (
            "result_entries", "result_hits", "result_misses",
            "structures", "structure_hits", "structure_misses",
            "stale_rejections",
        )

        def _collect() -> None:
            stats = cache.stats()
            for stat in stats_keys:
                if stat in stats:
                    family.labels(space=space, stat=stat).set(
                        float(stats[stat])
                    )

        self.registry.register_collector(_collect)

    # -- requests / traces ------------------------------------------------

    def request(self, path: str, trace_id: Optional[str]) -> _RequestSpan:
        return _RequestSpan(self, path, trace_id or mint_trace_id())

    def record_slow_request(
        self, path: str, status: int, total_ms: float, trace: Trace
    ) -> None:
        self.slow_requests.inc()
        record = {
            "trace_id": trace.trace_id,
            "path": path,
            "status": status,
            "total_ms": round(total_ms, 3),
            "stages": trace.stage_report(),
            "ts": round(time.time(), 3),
        }
        self.slow_records.append(record)
        line = json.dumps(record, sort_keys=True)
        _slow_logger.warning("slow request %s", line)
        if self.slowlog_path is not None:
            try:
                with self._slowlog_lock:
                    with open(self.slowlog_path, "a", encoding="utf-8") as fh:
                        fh.write(line + "\n")
            except OSError:
                pass  # the slow log is best-effort, never a failure source

    # -- export ------------------------------------------------------------

    def render_metrics(self) -> str:
        return self.registry.render()

    def dump_metrics(self) -> dict:
        return self.registry.dump()

    def close(self) -> None:
        self.bus.close()


def read_slowlog(path) -> list[dict]:
    """Parse a slow-request JSONL file (helper for tests and tooling)."""
    records = []
    text = Path(path).read_text(encoding="utf-8")
    for line in text.splitlines():
        line = line.strip()
        if line:
            records.append(json.loads(line))
    return records
