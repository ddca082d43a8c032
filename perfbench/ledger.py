"""Per-layer metrics from the server's spans and the client's round trips.

A span's *self time* is its duration minus the durations of its direct
children (children run nested in the same thread, so they never
overlap).  A click's time is split into one self time per layer:

    service    client round trip minus the server-side layer calls under
               the request (wire, HTTP parse, JSON, dispatch)
    spaces     registry routing (``route``/``manager``)
    runtime    ``SessionManager`` around the session (locks, journal
               bookkeeping, event publish)
    session    ``ExplorationSession.click`` outside its children
    selection  ``select_k`` outside the pool-cache lookup
    poolcache  ``PoolStatsCache.structure_for``
    index      ``SimilarityIndex.neighbors``
    journal    ``SessionJournal.append``/``compact``

The ledger sums the layers' per-click medians and reports the share of
the click median they leave uncovered (negative when they over-cover:
medians do not add).
"""

from __future__ import annotations

import math
from collections import defaultdict

CLICK_LAYERS = (
    "service",
    "spaces",
    "runtime",
    "session",
    "selection",
    "poolcache",
    "index",
    "journal",
)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (0 for an empty sample)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def p50(values) -> float:
    return percentile(values, 50.0)


def flatten(threads: list[list]) -> list[dict]:
    """Spans of every thread with duration and self time in milliseconds."""
    spans = []
    for records in threads:
        child_ms = [0.0] * len(records)
        for name, start, end, parent, request, detail in records:
            if parent is not None:
                child_ms[parent] += (end - start) * 1000.0
        for position, (name, start, end, parent, request, detail) in enumerate(
            records
        ):
            duration = (end - start) * 1000.0
            spans.append(
                {
                    "name": name,
                    "layer": name.split(".", 1)[0],
                    "ms": duration,
                    "self_ms": duration - child_ms[position],
                    "top": parent is not None
                    and records[parent][0] == "service.request",
                    "request": request,
                    "detail": detail,
                }
            )
    return spans


def analyze(threads: list[list], clicks: dict[str, float], wall_s: float) -> dict:
    """Per-layer metrics of one traced window.

    ``clicks`` maps each click's request id to its client round trip in
    milliseconds; ``wall_s`` is the traced window's length.
    """
    spans = flatten(threads)
    by_name = defaultdict(list)
    by_request = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
        if span["request"] is not None:
            by_request[span["request"]].append(span)

    per_click = {layer: [] for layer in CLICK_LAYERS}
    route_ms, runtime_self, session_self = [], [], []
    for request_id, round_trip in clicks.items():
        request_spans = by_request.get(request_id, [])
        layers = defaultdict(float)
        for span in request_spans:
            if span["layer"] != "service":
                layers[span["layer"]] += span["self_ms"]
        server_ms = sum(span["ms"] for span in request_spans if span["top"])
        layers["service"] = round_trip - server_ms
        for layer in CLICK_LAYERS:
            per_click[layer].append(layers[layer])
        routed = [span["ms"] for span in request_spans if span["layer"] == "spaces"]
        if routed:
            route_ms.append(sum(routed))
        runtime_self += [
            span["self_ms"] for span in request_spans if span["name"] == "runtime.click"
        ]
        session_self += [
            span["self_ms"] for span in request_spans if span["name"] == "session.click"
        ]

    def durations(name: str) -> list[float]:
        return [span["ms"] for span in by_name[name]]

    selections = by_name["selection.select_k"]
    evaluations = sum(span["detail"] or 0 for span in selections)
    click_p50 = p50(clicks.values())
    covered = sum(p50(values) for values in per_click.values())
    layer_table = {layer: p50(values) for layer, values in per_click.items()}
    return {
        "metrics": {
            "service.self_ms_p50": layer_table["service"],
            "spaces.route_ms_p50": p50(route_ms),
            "spaces.mutate_self_ms_p50": p50(
                span["self_ms"] for span in by_name["spaces.mutate"]
            ),
            "runtime.click_self_ms_p50": p50(runtime_self),
            "runtime.open_ms_p50": p50(durations("runtime.open")),
            "session.click_self_ms_p50": p50(session_self),
            "selection.select_ms_p50": p50(durations("selection.select_k")),
            "selection.busy_share": sum(durations("selection.select_k"))
            / 1000.0
            / wall_s,
            "selection.calls": len(selections),
            "selection.evaluations": evaluations,
            "selection.evaluations_per_call": evaluations / max(len(selections), 1),
            "poolcache.structure_for_ms_p50": p50(
                durations("poolcache.structure_for")
            ),
            "index.neighbors_ms_p50": p50(durations("index.neighbors")),
            "index.neighbors_calls": len(by_name["index.neighbors"]),
            "index.apply_delta_ms_p50": p50(durations("index.apply_delta")),
            "journal.append_ms_p50": p50(durations("journal.append")),
            "journal.appends": len(by_name["journal.append"]),
            "journal.compact_ms_p50": p50(durations("journal.compact")),
            "journal.compactions": len(by_name["journal.compact"]),
            "mutation.apply_ms_p50": p50(durations("mutation.apply")),
            "mutation.epochs": len(by_name["mutation.apply"]),
            "ledger.unattributed_share": (click_p50 - covered) / click_p50
            if click_p50
            else 0.0,
        },
        "ledger": {
            "click_p50_ms": click_p50,
            "clicks": len(clicks),
            "layer_self_ms_p50": layer_table,
        },
    }
