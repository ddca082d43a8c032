"""Lock-striped, stdlib-only metrics registry with Prometheus text output.

The serving tier (PRs 4-9) accumulated its operational numbers ad hoc:
``sweep_failures`` on the HTTP front, ``respawn_failures`` dicts on the
replica fleets, journal ``append_ms`` lists, shared-cache ``stats()``
dicts — each surfaced through a different corner of ``/healthz``.  This
module is the single store they migrate onto: one
:class:`MetricsRegistry` per process, three instrument kinds, labeled
series, and two export surfaces —

- :meth:`MetricsRegistry.render` — the Prometheus text exposition format
  (version 0.0.4), served verbatim at ``GET /metrics``;
- :meth:`MetricsRegistry.dump` / :func:`merge_dumps` — a JSON-safe
  structural snapshot, shipped from each worker process over the
  existing ``/internal/`` control surface so the parent router can serve
  one fleet-wide ``/metrics`` with ``worker`` labels.

Concurrency is lock-striped: updates take one of ``stripes`` locks chosen
by series-key hash, so concurrent clicks on different series never
contend on a global lock.
A series handle resolves its stripe once at creation; the per-update
cost is one lock acquire + a float add.  Registries are cheap enough to
create per worker and throw away on respawn — which is exactly how the
fleet aggregation avoids stale series: the parent scrapes live workers
on demand instead of accumulating push state that would outlive a
SIGKILL'd replica.

Everything here is stdlib-only by design (the registry must import
inside bare worker processes before numpy is touched, and must never
add a dependency to the serving path).
"""

from __future__ import annotations

import bisect
import threading
from typing import Callable, Iterable, Optional, Sequence

#: Default histogram buckets (milliseconds): sub-ms cache hits through
#: the paper's 100 ms click budget and out to multi-second builds.
DEFAULT_MS_BUCKETS = (
    0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0,
)

_RESERVED_LABELS = frozenset({"le"})


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    """Prometheus-friendly number: integers without a trailing ``.0``."""
    if value == float("inf"):
        return "+Inf"
    as_int = int(value)
    if value == as_int:
        return str(as_int)
    return repr(value)


def _label_suffix(labels: tuple[tuple[str, str], ...], extra: str = "") -> str:
    parts = [
        f'{name}="{_escape_label_value(value)}"' for name, value in labels
    ]
    if extra:
        parts.append(extra)
    if not parts:
        return ""
    return "{" + ",".join(parts) + "}"


class _Series:
    """One labeled time series: a float cell behind its stripe lock."""

    __slots__ = ("labels", "_lock", "value")

    def __init__(self, labels: tuple[tuple[str, str], ...], lock) -> None:
        self.labels = labels
        self._lock = lock
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def get(self) -> float:
        with self._lock:
            return self.value


class _HistogramSeries:
    """One labeled histogram: cumulative-ready bucket counts + sum."""

    __slots__ = ("labels", "_lock", "_bounds", "counts", "sum", "count")

    def __init__(
        self,
        labels: tuple[tuple[str, str], ...],
        bounds: Sequence[float],
        lock,
    ) -> None:
        self.labels = labels
        self._lock = lock
        self._bounds = bounds
        self.counts = [0] * len(bounds)  # per-bucket (non-cumulative)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        slot = bisect.bisect_left(self._bounds, value)
        with self._lock:
            if slot < len(self.counts):
                self.counts[slot] += 1
            self.sum += value
            self.count += 1

    def snapshot(self) -> tuple[list[int], float, int]:
        with self._lock:
            return list(self.counts), self.sum, self.count


class _Family:
    """One named metric family holding its labeled series."""

    __slots__ = ("name", "kind", "help", "buckets", "_series", "_registry")

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        kind: str,
        help_text: str,
        buckets: Optional[tuple[float, ...]] = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.buckets = buckets
        self._series: dict[tuple[tuple[str, str], ...], object] = {}
        self._registry = registry

    def labels(self, **labels: str):
        """The series for this label set, created on first use."""
        for label in labels:
            if label in _RESERVED_LABELS:
                raise ValueError(f"label name {label!r} is reserved")
        key = tuple(sorted((k, str(v)) for k, v in labels.items()))
        series = self._series.get(key)
        if series is not None:
            return series
        registry = self._registry
        with registry._families_lock:
            series = self._series.get(key)
            if series is None:
                lock = registry._stripe_for((self.name, key))
                if self.kind == "histogram":
                    series = _HistogramSeries(key, self.buckets, lock)
                else:
                    series = _Series(key, lock)
                self._series[key] = series
        return series

    # Label-less convenience: family acts as its own default series.
    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    def get(self, **labels: str) -> float:
        return self.labels(**labels).get()

    def series(self) -> list:
        with self._registry._families_lock:
            return list(self._series.values())


class MetricsRegistry:
    """Thread-safe metric store with striped update locks.

    ``collectors`` registered via :meth:`register_collector` run at
    export time (both :meth:`render` and :meth:`dump`) — the hook that
    lets gauge families mirror live structures
    (:class:`~repro.core.runtime.SharedSelectionCache` stats, registry
    occupancy) without polling threads: the stats are pulled exactly
    when something scrapes.
    """

    def __init__(self, stripes: int = 16) -> None:
        if stripes < 1:
            raise ValueError("stripes must be >= 1")
        self._stripes = [threading.Lock() for _ in range(stripes)]
        self._families_lock = threading.Lock()
        self._families: dict[str, _Family] = {}
        self._collectors: list[Callable[[], None]] = []

    def _stripe_for(self, key) -> threading.Lock:
        return self._stripes[hash(key) % len(self._stripes)]

    def _family(
        self,
        name: str,
        kind: str,
        help_text: str,
        buckets: Optional[tuple[float, ...]] = None,
    ) -> _Family:
        with self._families_lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(self, name, kind, help_text, buckets)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind}"
                )
            return family

    def counter(self, name: str, help_text: str = "") -> _Family:
        return self._family(name, "counter", help_text)

    def gauge(self, name: str, help_text: str = "") -> _Family:
        return self._family(name, "gauge", help_text)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] = DEFAULT_MS_BUCKETS,
    ) -> _Family:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        family = self._family(name, "histogram", help_text, bounds)
        if family.buckets != bounds:
            raise ValueError(
                f"histogram {name!r} already registered with different buckets"
            )
        return family

    def register_collector(self, collector: Callable[[], None]) -> None:
        """Run ``collector()`` before every export (sets gauges from live state)."""
        with self._families_lock:
            self._collectors.append(collector)

    def _collect(self) -> None:
        with self._families_lock:
            collectors = list(self._collectors)
        for collector in collectors:
            try:
                collector()
            except Exception:
                pass  # a broken collector must never break the scrape

    def get(self, name: str, **labels: str) -> float:
        """Current value of one counter/gauge series (0.0 when absent)."""
        with self._families_lock:
            family = self._families.get(name)
        if family is None or family.kind == "histogram":
            return 0.0
        key = tuple(sorted((k, str(v)) for k, v in labels.items()))
        series = family._series.get(key)
        return series.get() if series is not None else 0.0

    # -- export ----------------------------------------------------------

    def dump(self) -> dict:
        """JSON-safe structural snapshot (what workers ship to the parent)."""
        self._collect()
        with self._families_lock:
            families = list(self._families.values())
        metrics = []
        for family in families:
            rows = []
            for series in family.series():
                labels = dict(series.labels)
                if family.kind == "histogram":
                    counts, total, count = series.snapshot()
                    rows.append(
                        {
                            "labels": labels,
                            "buckets": counts,
                            "sum": total,
                            "count": count,
                        }
                    )
                else:
                    rows.append({"labels": labels, "value": series.get()})
            entry = {
                "name": family.name,
                "type": family.kind,
                "help": family.help,
                "series": rows,
            }
            if family.buckets is not None:
                entry["bounds"] = list(family.buckets)
            metrics.append(entry)
        return {"metrics": metrics}

    def render(self, extra_labels: Optional[dict[str, str]] = None) -> str:
        """This registry in the Prometheus text exposition format."""
        return render_dump(self.dump(), extra_labels)


def _merged_labels(
    labels: dict[str, str], extra: Optional[dict[str, str]]
) -> tuple[tuple[str, str], ...]:
    if extra:
        merged = dict(labels)
        merged.update(extra)
        labels = merged
    return tuple(sorted(labels.items()))


def render_dump(
    dump: dict, extra_labels: Optional[dict[str, str]] = None
) -> str:
    """One structural snapshot as Prometheus text (trailing newline included)."""
    lines: list[str] = []
    for metric in dump.get("metrics", ()):
        name = metric["name"]
        help_text = metric.get("help") or ""
        if help_text:
            lines.append(f"# HELP {name} {_escape_help(help_text)}")
        lines.append(f"# TYPE {name} {metric['type']}")
        if metric["type"] == "histogram":
            bounds = metric.get("bounds", [])
            for row in metric["series"]:
                labels = _merged_labels(row.get("labels", {}), extra_labels)
                cumulative = 0
                for bound, count in zip(bounds, row["buckets"]):
                    cumulative += count
                    suffix = _label_suffix(
                        labels, f'le="{_format_value(float(bound))}"'
                    )
                    lines.append(f"{name}_bucket{suffix} {cumulative}")
                inf_suffix = _label_suffix(labels, 'le="+Inf"')
                lines.append(f"{name}_bucket{inf_suffix} {row['count']}")
                plain = _label_suffix(labels)
                lines.append(
                    f"{name}_sum{plain} {_format_value(float(row['sum']))}"
                )
                lines.append(f"{name}_count{plain} {row['count']}")
        else:
            for row in metric["series"]:
                labels = _merged_labels(row.get("labels", {}), extra_labels)
                suffix = _label_suffix(labels)
                lines.append(
                    f"{name}{suffix} {_format_value(float(row['value']))}"
                )
    return "\n".join(lines) + "\n" if lines else ""


def label_dump(dump: dict, labels: dict[str, str]) -> dict:
    """A copy of ``dump`` with ``labels`` folded into every series.

    This is how the parent router tags each worker's scrape with
    ``worker="w<i>"`` before handing the fleet to :func:`merge_dumps` —
    the extra label keeps per-worker series distinct, so the merge
    unifies families without summing across workers.
    """
    out: list[dict] = []
    for metric in dump.get("metrics", ()):
        entry = dict(metric)
        entry["series"] = [
            {**row, "labels": {**row.get("labels", {}), **labels}}
            for row in metric.get("series", ())
        ]
        out.append(entry)
    return {"metrics": out}


def merge_dumps(dumps: Iterable[dict]) -> dict:
    """Sum a fleet of structural snapshots into one.

    Series with identical ``(name, labels)`` are summed — counters and
    gauges add their values, histograms add per-bucket counts, sums and
    counts.  This is exactly the merge a Prometheus server performs with
    ``sum by``-style aggregation, and the property the oracle test
    asserts: merging per-worker histograms equals observing every value
    into a single registry.  Histograms with mismatched bucket bounds
    raise — silently mixing bounds would fabricate latencies.
    """
    merged: dict[str, dict] = {}
    order: list[str] = []
    for dump in dumps:
        for metric in dump.get("metrics", ()):
            name = metric["name"]
            entry = merged.get(name)
            if entry is None:
                entry = {
                    "name": name,
                    "type": metric["type"],
                    "help": metric.get("help", ""),
                    "series": [],
                    "_by_labels": {},
                }
                if "bounds" in metric:
                    entry["bounds"] = list(metric["bounds"])
                merged[name] = entry
                order.append(name)
            elif entry["type"] != metric["type"]:
                raise ValueError(
                    f"metric {name!r} merged with conflicting types "
                    f"{entry['type']!r} and {metric['type']!r}"
                )
            if metric["type"] == "histogram" and entry.get("bounds") != list(
                metric.get("bounds", [])
            ):
                raise ValueError(
                    f"histogram {name!r} merged with mismatched buckets"
                )
            by_labels = entry["_by_labels"]
            for row in metric["series"]:
                key = tuple(sorted(row.get("labels", {}).items()))
                existing = by_labels.get(key)
                if metric["type"] == "histogram":
                    if existing is None:
                        existing = {
                            "labels": dict(key),
                            "buckets": [0] * len(entry.get("bounds", [])),
                            "sum": 0.0,
                            "count": 0,
                        }
                        by_labels[key] = existing
                        entry["series"].append(existing)
                    existing["buckets"] = [
                        a + b
                        for a, b in zip(existing["buckets"], row["buckets"])
                    ]
                    existing["sum"] += row["sum"]
                    existing["count"] += row["count"]
                else:
                    if existing is None:
                        existing = {"labels": dict(key), "value": 0.0}
                        by_labels[key] = existing
                        entry["series"].append(existing)
                    existing["value"] += row["value"]
    metrics = []
    for name in order:
        entry = merged[name]
        entry.pop("_by_labels")
        metrics.append(entry)
    return {"metrics": metrics}


def parse_prometheus_text(text: str) -> dict[str, list[tuple[dict, float]]]:
    """Minimal Prometheus text parser for tests and the CI smoke.

    Returns ``{metric_name: [(labels, value), ...]}``, validating the
    line grammar strictly enough that a malformed exposition fails loud:
    every non-comment line must be ``name{labels} value`` or
    ``name value`` with a float-parseable value, and every ``# TYPE``
    must name one of the three supported kinds.
    """
    samples: dict[str, list[tuple[dict, float]]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                raise ValueError(f"malformed comment line: {line!r}")
            if parts[1] == "TYPE" and parts[3 if len(parts) > 3 else 2] not in (
                "counter", "gauge", "histogram", "summary", "untyped",
            ):
                raise ValueError(f"unknown metric type in: {line!r}")
            continue
        if "{" in line:
            name, _, rest = line.partition("{")
            label_blob, _, value_text = rest.rpartition("}")
            labels: dict[str, str] = {}
            if label_blob:
                for pair in _split_label_pairs(label_blob):
                    key, _, raw = pair.partition("=")
                    if not raw.startswith('"') or not raw.endswith('"'):
                        raise ValueError(f"malformed label in: {line!r}")
                    labels[key] = (
                        raw[1:-1]
                        .replace('\\"', '"')
                        .replace("\\n", "\n")
                        .replace("\\\\", "\\")
                    )
        else:
            name, _, value_text = line.partition(" ")
            labels = {}
        value_text = value_text.strip()
        if value_text == "+Inf":
            value = float("inf")
        else:
            value = float(value_text)  # raises on malformed values
        if not name or not name[0].isalpha() and name[0] != "_":
            raise ValueError(f"malformed metric name in: {line!r}")
        samples.setdefault(name, []).append((labels, value))
    return samples


def _split_label_pairs(blob: str) -> list[str]:
    """Split ``a="x",b="y"`` on commas outside quoted values."""
    pairs: list[str] = []
    current: list[str] = []
    in_quotes = False
    escaped = False
    for char in blob:
        if escaped:
            current.append(char)
            escaped = False
            continue
        if char == "\\":
            current.append(char)
            escaped = True
            continue
        if char == '"':
            in_quotes = not in_quotes
            current.append(char)
            continue
        if char == "," and not in_quotes:
            pairs.append("".join(current))
            current = []
            continue
        current.append(char)
    if current:
        pairs.append("".join(current))
    return pairs
