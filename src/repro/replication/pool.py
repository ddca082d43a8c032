"""The parent tier: build spaces, publish arenas, spawn replicas, route.

:class:`MultiSpaceWorkerPool` is the one replica fleet.  The parent
hosts the authoritative :class:`~repro.spaces.registry.SpaceRegistry`
(mutations apply here first): each named space materializes lazily on
the registry's build workers (202 + Retry-After while building, exactly
as the single-process registry front does), and the build's last step
serializes the runtime's artifacts into a shared-memory arena
(:mod:`repro.replication.arena`) under a per-space tag.  N
``spawn``-started worker processes map those arenas — each one a
registry of arena-attached runtimes behind the stock HTTP service,
minting session ids ``w<i>-<space>-s0001`` so sticky routing,
journal-tail takeover and durable eviction all route by ``(space,
worker)``.  A single-space deployment is a one-descriptor fleet:
:func:`serve_replicated` builds it and waits for the space, so its
opens never see a 202.  :class:`ReplicatedService` is the HTTP router
in front of the pool:

- *sticky routing*: session ids and resume tokens start with the minting
  worker's tag, so every verb of a walk lands on the replica holding its
  in-memory state;
- *takeover*: a resume whose home worker is dead routes to any live
  replica — all workers share one state directory, so the PR 6 journal
  tail replays there and the walk continues field-identical;
- *mutation*: ``POST /spaces/<name>/mutate`` applies the delta on the
  parent's runtime of that space, publishes the new epoch's arena, and
  broadcasts ``rebind`` to every worker (each invalidates its own stale
  fingerprints); segments aged out of the space's retention window are
  unlinked (mapped copies in pinned workers stay valid), and every
  other space keeps serving untouched;
- *health*: ``/healthz`` and ``/spaces`` aggregate per-replica liveness,
  per-space epochs, and session counts.

A worker that stops answering is marked dead, the request that noticed
gets a typed 503 with ``Retry-After`` (the stock client retries), and a
replacement is respawned onto the current arenas with bounded backoff
in the background.  Consecutive respawn failures are surfaced per
replica on ``/healthz`` and scale the 503's ``Retry-After`` so a load
balancer can tell a blip from a crash loop.
"""

from __future__ import annotations

import base64
import http.client
import json
import multiprocessing
import pickle
import re
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Optional

from repro.obs import (
    TRACE_HEADER,
    Observability,
    current_trace,
    label_dump,
    merge_dumps,
    render_dump,
)
from repro.replication.arena import (
    PublishedArena,
    attach_arena,
    load_arena_cache,
    publish_arena,
    save_arena_cache,
    sweep_orphans,
)
from repro.replication.worker import _worker_entry
from repro.service.server import JsonHandler, _BadRequest, _Server, parse_mutation
from repro.spaces.descriptor import SpaceDescriptor
from repro.spaces.registry import SpaceRegistry

#: Space names shaped like a worker tag would make ``w1-eval-s0001``
#: unparseable (worker 1 of space ``eval``, or some worker of space
#: ``w1-eval``?) — pools refuse such manifests loudly at construction.
_AMBIGUOUS_SPACE = re.compile(r"^w\d+-")

#: Seconds a freshly spawned worker gets to come up (imports NumPy and
#: SciPy from scratch under the spawn start method, then maps the arena).
_BOOT_TIMEOUT_S = 60.0

#: Per-request forwarding timeout.  Generous: a budgeted click is capped
#: near the paper's 100 ms, but resumes replay journal tails.
_FORWARD_TIMEOUT_S = 30.0

#: In-thread retry schedule for replacing a dead replica.  Spawning can
#: fail transiently (fd pressure, a port race, the OS reaping slowly);
#: retrying with backoff inside the respawn thread means one SIGKILL
#: never strands a replica slot behind a single failed attempt.  After
#: the schedule is exhausted the thread gives up and the next route that
#: needs the replica re-arms it.
_RESPAWN_BACKOFF_S = (0.1, 0.4, 1.6)


def compile_reference_pattern(
    space_names: Optional[list[str]] = None,
) -> "re.Pattern[str]":
    """The anchored sticky-routing pattern for session ids / tokens.

    Session ids are ``w<index>-<space>-s0001`` (``w<index>-s0001`` when
    no space names are given); resume tokens append ``-<hex12>``.  The
    pattern anchors the full shape — worker tag, then one of the *known*
    space names escaped literally, then the session counter — instead of
    grabbing any leading ``w<digits>-``, so a reference that merely
    *starts* like a worker tag is never misrouted.  Known names are
    alternated longest-first so a space whose name extends another's
    (``eval`` / ``eval-extra``) resolves to the longest literal match.
    """
    if space_names:
        names = sorted(space_names, key=len, reverse=True)
        alternatives = "|".join(re.escape(name) for name in names)
        return re.compile(rf"^w(\d+)-({alternatives})-s\d{{4,}}(?:-|$)")
    return re.compile(r"^w(\d+)-s\d{4,}(?:-|$)")


def _parse_reference(
    reference: str, pattern: "re.Pattern[str]", n_workers: int
) -> tuple[Optional[int], Optional[str]]:
    """``(worker index, space name)`` of a reference, or ``(None, None)``."""
    match = pattern.match(reference or "")
    if match is None:
        return None, None
    index = int(match.group(1))
    if not 0 <= index < n_workers:
        return None, None
    space = match.group(2) if pattern.groups >= 2 else None
    return index, space


class WorkerUnavailable(RuntimeError):
    """The replica that owns this request is (currently) gone.

    Carries the typed-503 surface: ``retry_after_s`` scales with the
    replica's consecutive respawn failures, and ``error_type`` flips to
    ``replica_respawn_failing`` once the bounded backoff schedule has
    been burned through without a successful replacement.
    """

    def __init__(
        self,
        message: str,
        retry_after_s: float = 1.0,
        error_type: str = "replica_unavailable",
    ) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s
        self.error_type = error_type


@dataclass
class _Replica:
    index: int
    process: multiprocessing.process.BaseProcess
    port: int
    pid: int
    spaces: dict = field(default_factory=dict)
    alive: bool = True
    restarts: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)


def _post(
    host: str,
    port: int,
    path: str,
    body: dict,
    timeout: float = _FORWARD_TIMEOUT_S,
) -> dict:
    payload = json.dumps(body).encode("utf-8")
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        connection.request(
            "POST",
            path,
            body=payload,
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        data = json.loads(response.read().decode("utf-8") or "{}")
        if response.status >= 400:
            raise RuntimeError(
                f"worker answered {response.status} on {path}: {data}"
            )
        return data
    finally:
        connection.close()


class MultiSpaceWorkerPool:
    """A replica fleet fronting a space registry (one space or many).

    The parent hosts the authoritative :class:`SpaceRegistry`: spaces
    materialize lazily on its build workers (serving threads see the
    registry's usual 202-building / 404 / sticky-500 ladder through the
    router), and the build's last step publishes the runtime's artifacts
    as a shared-memory arena under the per-space tag
    ``{pool_tag}_{space}`` and broadcasts an ``attach_space`` to every
    live worker.  Workers host their *own* registries of arena-attached
    runtimes — each space's manager mints ids ``w<i>-<space>-s0001`` —
    so one fleet serves every space without N×M rebuild cost, and a
    mutation republishes and rebinds only the space it names.

    With ``arena_cache`` set, every published payload is also serialized
    to ``<dir>/<space_tag>.arena``; the next cold boot mmap-loads the
    file back into a segment and skips discovery + index construction
    entirely (builder-backed spaces are exempt — they have no standalone
    dataset recipe to bounds-check a cached arena against).
    """

    def __init__(
        self,
        descriptors,
        *,
        workers: int = 2,
        tag: Optional[str] = None,
        state_dir: Optional[str | Path] = None,
        compact_every: int = 64,
        default_config=None,
        max_sessions: Optional[int] = None,
        host: str = "127.0.0.1",
        retain_segments: int = 4,
        idle_ttl_s: Optional[float] = None,
        build_workers: int = 2,
        arena_cache: Optional[str | Path] = None,
        sweep: bool = True,
        metrics: bool = True,
        slow_click_ms: Optional[float] = None,
        slowlog_dir: Optional[str | Path] = None,
    ) -> None:
        descriptors = list(descriptors)
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if not descriptors:
            raise ValueError("a replicated registry needs at least one space")
        if retain_segments < 1:
            raise ValueError("retain_segments must be >= 1")
        ambiguous = [
            descriptor.name
            for descriptor in descriptors
            if _AMBIGUOUS_SPACE.match(descriptor.name)
        ]
        if ambiguous:
            raise ValueError(
                f"space names {ambiguous} match the worker-tag shape "
                "'w<index>-': composed session ids could not be routed "
                "unambiguously — rename them"
            )
        if state_dir is None and (
            idle_ttl_s is not None
            or any(d.idle_ttl_s is not None for d in descriptors)
        ):
            raise ValueError(
                "idle TTLs need a state_dir: workers sweep durably"
            )
        self.host = host
        #: The deployment identity: segment names carry it, and the
        #: startup sweep removes whatever a crashed predecessor with the
        #: same tag leaked.
        self.tag = tag if tag is not None else "spaces"
        self.n_workers = workers
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self.compact_every = compact_every
        self.default_config = default_config
        self.max_sessions = max_sessions
        self.idle_ttl_s = idle_ttl_s
        self.retain_segments = retain_segments
        self.arena_cache = (
            Path(arena_cache) if arena_cache is not None else None
        )
        #: Observability knobs, threaded verbatim into every worker spec:
        #: ``metrics=False`` boots workers with no obs bundle at all, and
        #: ``slowlog_dir`` gives each worker its own
        #: ``slowlog-w<i>.jsonl`` under the shared directory.
        self.metrics = bool(metrics)
        self.slow_click_ms = slow_click_ms
        self.slowlog_dir = str(slowlog_dir) if slowlog_dir is not None else None
        #: Space names whose boot was served from the arena snapshot
        #: cache instead of a cold build (perf harness reads this).
        self.arena_cache_hits: list[str] = []
        #: Segments a SIGKILLed predecessor leaked; swept before the
        #: first publish so a crash loop never accumulates dead arenas.
        self.swept_orphans: list[str] = sweep_orphans(self.tag) if sweep else []
        #: Every live segment, oldest first, keyed ``(space, digest)``.
        self._published: "OrderedDict[tuple[str, str], PublishedArena]" = (
            OrderedDict()
        )
        self._current: dict[str, dict] = {}
        self._datasets: dict[str, object] = {}
        self._policies: dict[str, dict] = {}
        self._cacheable: dict[str, SpaceDescriptor] = {}
        self._cache_attachments: list = []
        self.replicas: list[_Replica] = []
        self._ctx = multiprocessing.get_context("spawn")
        self._mutate_lock = threading.Lock()
        self._stopped = False
        self._route_counter = 0
        self._route_lock = threading.Lock()
        self._respawn_lock = threading.Lock()
        self._respawning: set[int] = set()
        #: Cumulative failed respawn attempts per replica slot (never
        #: reset — ``/healthz`` surfaces it as a crash-loop odometer).
        self._respawn_failures: dict[int, int] = {}
        #: Consecutive failures since the last successful respawn; zeroed
        #: on success, drives the typed 503's ``Retry-After``.
        self._respawn_streak: dict[int, int] = {}
        for descriptor in descriptors:
            self._policies[descriptor.name] = {
                "idle_ttl_s": descriptor.idle_ttl_s,
                "max_sessions": descriptor.max_sessions,
            }
            if descriptor.builder is None:
                self._cacheable[descriptor.name] = descriptor
        # The parent registry is the mutation authority, never a serving
        # path: no state_dir (workers own durability on the shared one),
        # no TTLs, no session budget — just lazily built runtimes.
        self.registry = SpaceRegistry(
            [self._wrap(descriptor) for descriptor in descriptors],
            build_workers=build_workers,
        )
        self._reference_re = compile_reference_pattern(
            [descriptor.name for descriptor in descriptors]
        )
        self.replicas = [self._spawn(index) for index in range(workers)]

    def space_tag(self, name: str) -> str:
        """The arena namespace of one space (swept under the pool tag)."""
        return f"{self.tag}_{name}"

    # -- materialization -------------------------------------------------

    def _wrap(self, descriptor: SpaceDescriptor) -> SpaceDescriptor:
        # Serving policy (TTLs, session budgets) stays off the parent
        # wrapper: it applies on the workers, which hold the sessions.
        return SpaceDescriptor(
            name=descriptor.name,
            builder=partial(self._materialize_space, descriptor),
        )

    def _materialize_space(self, descriptor: SpaceDescriptor):
        """Build (or cache-load) one space; runs on a registry builder.

        The warm path mmap-loads the arena snapshot file back into a
        fresh segment, rebuilds only the dataset (cheap relative to
        discovery + index construction) and maps the runtime from the
        arena; the cold path materializes the descriptor and publishes
        its artifacts.  Either way the arena is recorded as the space's
        current segment and broadcast to every live worker before the
        registry flips the space to ready.
        """
        from repro.core.runtime import GroupSpaceRuntime

        name = descriptor.name
        space_tag = self.space_tag(name)
        runtime = None
        if self.arena_cache is not None and name in self._cacheable:
            published = load_arena_cache(space_tag, self.arena_cache)
            if published is not None:
                dataset = descriptor.build_dataset()
                attached = attach_arena(space_tag, published.digest)
                runtime = GroupSpaceRuntime.from_arena(
                    dataset, attached, share_cache=False, name=name
                )
                self._cache_attachments.append(attached)
                self.arena_cache_hits.append(name)
        if runtime is None:
            runtime = descriptor.materialize()
            dataset = runtime.space.dataset
            published = publish_arena(
                runtime.space, runtime.index, space_tag, epoch=runtime.epoch
            )
            if self.arena_cache is not None and name in self._cacheable:
                save_arena_cache(published, space_tag, self.arena_cache)
        with self._mutate_lock:
            self._record(name, published)
            self._datasets[name] = dataset
        self._broadcast_space(name)
        return runtime

    def _record(self, name: str, published: PublishedArena) -> None:
        """Make ``published`` the space's current arena (mutate lock held).

        Segments of the space beyond the retention window are unlinked,
        oldest first; workers pinned to them keep their mappings.
        """
        self._published[(name, published.digest)] = published
        self._current[name] = {
            "digest": published.digest,
            "epoch": int(published.epoch),
        }
        owned = [key for key in self._published if key[0] == name]
        for key in owned[: max(0, len(owned) - self.retain_segments)]:
            aged = self._published.pop(key)
            aged.unlink()
            aged.close()

    def _segments(self, name: str) -> list[str]:
        return [digest for space, digest in self._published if space == name]

    def _attach_payload(self, name: str) -> dict:
        current = self._current[name]
        policy = self._policies[name]
        return {
            "name": name,
            "space_tag": self.space_tag(name),
            "digest": current["digest"],
            "epoch": current["epoch"],
            "dataset_b64": base64.b64encode(
                pickle.dumps(self._datasets[name])
            ).decode("ascii"),
            "idle_ttl_s": policy["idle_ttl_s"],
            "max_sessions": policy["max_sessions"],
        }

    def _broadcast_space(self, name: str) -> None:
        """Tell every live worker to adopt a newly materialized space."""
        payload = self._attach_payload(name)
        for replica in self.alive_replicas():
            try:
                outcome = _post(
                    self.host,
                    replica.port,
                    "/internal/attach_space",
                    payload,
                )
            except (OSError, RuntimeError, ValueError):
                self.lose(replica)
                continue
            replica.spaces[name] = {
                "digest": str(outcome.get("digest", payload["digest"])),
                "epoch": int(outcome.get("epoch", payload["epoch"])),
            }

    # -- worker lifecycle ------------------------------------------------

    def _spec(self, worker_index: int) -> dict:
        spaces = []
        for name in self.registry.names():
            current = self._current.get(name)
            if current is None:
                continue  # cold/building: workers adopt it via broadcast
            policy = self._policies[name]
            spaces.append(
                {
                    "name": name,
                    "space_tag": self.space_tag(name),
                    "digest": current["digest"],
                    "epoch": current["epoch"],
                    "dataset": self._datasets[name],
                    "idle_ttl_s": policy["idle_ttl_s"],
                    "max_sessions": policy["max_sessions"],
                }
            )
        return {
            "tag": self.tag,
            "worker_index": worker_index,
            "host": self.host,
            "state_dir": (
                str(self.state_dir) if self.state_dir is not None else None
            ),
            "compact_every": self.compact_every,
            "default_config": self.default_config,
            "max_sessions": self.max_sessions,
            "idle_ttl_s": self.idle_ttl_s,
            "metrics": self.metrics,
            "slow_click_ms": self.slow_click_ms,
            "slowlog_dir": self.slowlog_dir,
            "spaces": spaces,
        }

    def _spawn(self, worker_index: int) -> _Replica:
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_entry,
            args=(self._spec(worker_index), child_conn),
            name=f"repro-worker-{self.tag}-{worker_index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        if not parent_conn.poll(_BOOT_TIMEOUT_S):
            process.terminate()
            raise RuntimeError(
                f"worker {worker_index} did not come up within "
                f"{_BOOT_TIMEOUT_S:.0f}s"
            )
        ready = parent_conn.recv()
        parent_conn.close()
        if not ready.get("ok"):
            process.join(timeout=5.0)
            raise RuntimeError(
                f"worker {worker_index} failed to boot: {ready.get('error')}"
            )
        return _Replica(
            index=worker_index,
            process=process,
            port=int(ready["port"]),
            pid=int(ready["pid"]),
            spaces={
                name: dict(info)
                for name, info in (ready.get("spaces") or {}).items()
            },
        )

    def lose(self, replica: _Replica) -> None:
        """Mark a replica that stopped answering dead; arm its respawn."""
        replica.alive = False
        self._respawn_async(replica.index)

    def respawn(self, worker_index: int) -> _Replica:
        """Replace a dead replica in place (idempotent per index)."""
        replica = self.replicas[worker_index]
        with replica.lock:
            current = self.replicas[worker_index]
            if self._stopped:
                return current
            if current.alive and current.process.is_alive():
                return current
            if current.process.is_alive():
                current.process.terminate()
            current.process.join(timeout=5.0)
            with self._mutate_lock:
                # Snapshot digest/epoch under the mutation lock so the
                # replacement can never attach an arena that a racing
                # mutate is about to supersede without a rebind.
                fresh = self._spawn(worker_index)
            fresh.restarts = current.restarts + 1
            self.replicas[worker_index] = fresh
            return fresh

    def _respawn_async(self, worker_index: int) -> None:
        """Arm one background respawn for the slot (dedup'd while live)."""
        with self._respawn_lock:
            if self._stopped or worker_index in self._respawning:
                return
            self._respawning.add(worker_index)
        threading.Thread(
            target=lambda: self._quiet_respawn(worker_index),
            name=f"repro-respawn-{self.tag}-{worker_index}",
            daemon=True,
        ).start()

    def _quiet_respawn(self, worker_index: int) -> None:
        """Respawn with bounded backoff; count every failed attempt.

        Each failure bumps the replica's cumulative ``respawn_failures``
        (surfaced on ``/healthz``) and its consecutive streak (scales
        the 503 ``Retry-After`` routes answer while the slot is down).
        When the schedule runs dry the thread exits — the guard set is
        cleared, so the next route that lands on the dead slot arms a
        fresh round instead of silently never retrying.
        """
        try:
            for delay in (*_RESPAWN_BACKOFF_S, None):
                if self._stopped:
                    return
                try:
                    self.respawn(worker_index)
                except Exception:
                    self._respawn_failures[worker_index] = (
                        self._respawn_failures.get(worker_index, 0) + 1
                    )
                    self._respawn_streak[worker_index] = (
                        self._respawn_streak.get(worker_index, 0) + 1
                    )
                    if delay is None:
                        return
                    time.sleep(delay)
                else:
                    self._respawn_streak[worker_index] = 0
                    return
        finally:
            with self._respawn_lock:
                self._respawning.discard(worker_index)

    # -- routing ---------------------------------------------------------

    def worker_of(self, reference: str) -> Optional[int]:
        """The worker index a session id / resume token is stuck to."""
        index, _ = _parse_reference(
            reference, self._reference_re, len(self.replicas)
        )
        return index

    def reference_space(self, reference: str) -> Optional[str]:
        """The space a session id / resume token belongs to."""
        _, space = _parse_reference(
            reference, self._reference_re, len(self.replicas)
        )
        return space

    def alive_replicas(self) -> list[_Replica]:
        return [replica for replica in self.replicas if replica.alive]

    def pick_fresh(self) -> _Replica:
        """Round-robin over live replicas for a fresh ``open``."""
        candidates = self.alive_replicas()
        if not candidates:
            raise WorkerUnavailable("no live replicas")
        with self._route_lock:
            self._route_counter += 1
            return candidates[self._route_counter % len(candidates)]

    def pick_for(self, reference: str, takeover: bool = False) -> _Replica:
        """The replica owning ``reference`` (a session id or token).

        ``takeover=True`` (resume-by-token routing) falls back to any
        live replica when the home worker is dead: the shared state
        directory holds the snapshot + journal tail, so any replica can
        finish the walk.  Mid-session verbs never take over — the
        session's in-memory state died with its worker, and the client's
        recovery path is a resume.
        """
        index = self.worker_of(reference)
        if index is None:
            raise KeyError(f"reference {reference!r} carries no worker tag")
        replica = self.replicas[index]
        if replica.alive and replica.process.is_alive():
            return replica
        # Always re-arm: the in-flight guard dedups, and a slot whose
        # backoff schedule ran dry gets a fresh round from the next
        # request that needs it instead of staying down forever.
        self.lose(replica)
        if takeover:
            candidates = self.alive_replicas()
            if candidates:
                return candidates[0]
        raise self._unavailable(index)

    def _unavailable(self, index: int) -> WorkerUnavailable:
        streak = self._respawn_streak.get(index, 0)
        if streak >= len(_RESPAWN_BACKOFF_S):
            return WorkerUnavailable(
                f"worker {index} is down and its last {streak} respawn "
                "attempts failed",
                retry_after_s=min(1.0 + streak, 15.0),
                error_type="replica_respawn_failing",
            )
        return WorkerUnavailable(
            f"worker {index} is down; its replacement is starting"
        )

    def open_space(self, space, resume) -> str:
        """Resolve the space an ``open`` targets before it is forwarded.

        Raises the registry's typed ladder (202-building queues the lazy
        build exactly like the single-process front) *before* the
        forward.  A resume token's space is recovered from the token
        itself, and a space-less fresh open pins the registry default, so
        the router can pin the resolved name in the forwarded body and
        worker-side default-space drift can never misroute.
        """
        if space is not None and not isinstance(space, str):
            raise _BadRequest("space must be a string")
        if space is None and resume is not None:
            space = self.reference_space(resume)
        if space is None:
            space = self.registry.default_space
        self.registry.manager(space, wait=False)
        return space

    # -- mutation --------------------------------------------------------

    def mutate(self, name: str, delta, verify: bool = False) -> dict:
        """Apply a delta to one space: parent epoch, arena, rebinds.

        The parent runtime applies (and optionally parity-verifies) the
        delta, the new epoch is published as a content-addressed arena
        segment, and every live worker is told to rebind by digest —
        computing its own stale-fingerprint set from ``changed_old``
        (the old-gid view of the delta) because fingerprints are
        process-local.  Only the named space advances; the router's
        ``POST /spaces/<name>/mutate`` maps straight here.
        """
        runtime = self.registry.runtime(name, wait=False)
        space_tag = self.space_tag(name)
        with self._mutate_lock:
            changed_old = sorted(
                {int(gid) for gid in delta.removed}
                | {int(gid) for gid, _ in delta.changed}
            )
            report = dict(runtime.apply_deltas(delta, verify=verify))
            published = publish_arena(
                runtime.space, runtime.index, space_tag, epoch=report["epoch"]
            )
            self._record(name, published)
            if self.arena_cache is not None and name in self._cacheable:
                save_arena_cache(published, space_tag, self.arena_cache)
            rebound = []
            for replica in self.alive_replicas():
                try:
                    outcome = _post(
                        self.host,
                        replica.port,
                        "/internal/rebind",
                        {
                            "space": name,
                            "digest": published.digest,
                            "epoch": report["epoch"],
                            "changed_old": changed_old,
                        },
                    )
                except (OSError, RuntimeError, ValueError):
                    # The respawn thread waits out this lock, then boots
                    # the replacement straight onto the new epoch.
                    self.lose(replica)
                    continue
                replica.spaces[name] = {
                    "digest": published.digest,
                    "epoch": int(outcome.get("epoch", report["epoch"])),
                }
                rebound.append(replica.index)
            report["space"] = name
            report["arena"] = published.name
            report["rebound_workers"] = rebound
        return report

    # -- introspection ---------------------------------------------------

    def replica_health(self) -> list[dict]:
        """One row per replica: liveness probe + worker-side counters."""
        rows = []
        for replica in self.replicas:
            row = {
                "index": replica.index,
                "pid": replica.pid,
                "port": replica.port,
                "alive": replica.alive and replica.process.is_alive(),
                "restarts": replica.restarts,
                "respawn_failures": self._respawn_failures.get(
                    replica.index, 0
                ),
                "spaces": {
                    name: dict(info) for name, info in replica.spaces.items()
                },
            }
            if row["alive"]:
                try:
                    ping = _post(
                        self.host,
                        replica.port,
                        "/internal/ping",
                        {},
                        timeout=2.0,
                    )
                except (OSError, RuntimeError, ValueError):
                    row["alive"] = False
                    self.lose(replica)
                else:
                    row.update(
                        sessions=ping.get("sessions"),
                        degraded=ping.get("degraded"),
                    )
                    if isinstance(ping.get("spaces"), dict):
                        row["spaces"] = ping["spaces"]
            rows.append(row)
        return rows

    def stats(self) -> dict:
        replicas = self.replica_health()
        return {
            "mode": "replicated-spaces",
            "tag": self.tag,
            "workers": self.n_workers,
            "alive": sum(1 for row in replicas if row["alive"]),
            "registry": self.registry.stats(),
            "spaces": {
                name: dict(current)
                for name, current in self._current.items()
            },
            "segments": {
                name: self._segments(name) for name in self._current
            },
            "swept_orphans": self.swept_orphans,
            "arena_cache": (
                str(self.arena_cache) if self.arena_cache is not None else None
            ),
            "arena_cache_hits": list(self.arena_cache_hits),
            "replicas": replicas,
        }

    def spaces_payload(self) -> dict:
        described = self.registry.describe()
        for name, row in described.items():
            current = self._current.get(name)
            if current is not None:
                row["epoch"] = current["epoch"]
                row["digest"] = current["digest"]
                row["segments"] = self._segments(name)
        return {
            "spaces": described,
            "default": self.registry.default_space,
            "replicas": self.replica_health(),
        }

    # -- shutdown --------------------------------------------------------

    def stop(self, drain: bool = True) -> None:
        """Drain every worker, reap the processes, unlink the segments."""
        if self._stopped:
            return
        self._stopped = True
        for replica in self.replicas:
            if not (replica.alive and replica.process.is_alive()):
                continue
            if drain:
                try:
                    _post(
                        self.host,
                        replica.port,
                        "/internal/drain",
                        {},
                        timeout=10.0,
                    )
                except (OSError, RuntimeError, ValueError):
                    pass
        deadline = time.monotonic() + 15.0
        for replica in self.replicas:
            replica.process.join(
                timeout=max(0.1, deadline - time.monotonic())
            )
            if replica.process.is_alive():
                replica.process.terminate()
                replica.process.join(timeout=5.0)
            if replica.process.is_alive():
                replica.process.kill()
                replica.process.join(timeout=5.0)
            replica.alive = False
        # Wait out in-flight builds first so a racing builder cannot
        # publish a segment after the sweep below already ran.
        self.registry.shutdown(wait=True)
        for published in self._published.values():
            published.unlink()
            published.close()
        self._published.clear()
        for attached in self._cache_attachments:
            attached.close()
        self._cache_attachments.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


class _RouterHandler(JsonHandler):
    """Forward the wire protocol to the sticky replica, verbatim."""

    _ERRORS = JsonHandler._ERRORS + (
        # The stock client's 503 retry loop handles this: the
        # replacement replica (or a takeover resume) answers next.
        (WorkerUnavailable, 503, None),
        (KeyError, 404, "unknown_session"),
        (ValueError, 409, "conflict"),
    )

    def _forward(self, replica: _Replica, body: bytes) -> None:
        """Proxy this request to ``replica`` and relay the raw answer."""
        forward_headers = {"Content-Type": "application/json"}
        # Trace propagation across the replication hop: the client's
        # X-Repro-Trace travels verbatim; when the router minted the id
        # itself (no incoming header, obs on), the active trace carries
        # it — either way the worker's slow log records the same id the
        # client can correlate on.
        trace = current_trace()
        trace_id = self.headers.get(TRACE_HEADER) or (
            trace.trace_id if trace is not None else None
        )
        if trace_id:
            forward_headers[TRACE_HEADER] = trace_id
        pool = self.service.pool
        connection = http.client.HTTPConnection(
            pool.host, replica.port, timeout=_FORWARD_TIMEOUT_S
        )
        try:
            connection.request(
                self.command,
                self.path,
                body=body or None,
                headers=forward_headers,
            )
            response = connection.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            pool.lose(replica)
            raise WorkerUnavailable(
                f"worker {replica.index} dropped the connection"
            )
        finally:
            connection.close()
        retry_after = response.getheader("Retry-After")
        self._send(
            response.status,
            data,
            response.getheader("Content-Type", "application/json"),
            {"Retry-After": retry_after} if retry_after else None,
        )

    def _route(self, method: str) -> bool:
        pool = self.service.pool
        path = self.path.split("?", 1)[0].rstrip("/")
        segments = [segment for segment in path.split("/") if segment]
        if path == "/healthz" and method == "GET":
            self._reply(200, self.service.health())
            return True
        if path == "/spaces" and method == "GET":
            self._reply(200, pool.spaces_payload())
            return True
        if path == "/metrics" and method == "GET":
            text = self.service.metrics_text()
            if text is None:
                self._fail(
                    404, "not_found", "metrics are disabled on this router"
                )
            else:
                self._reply_text(200, text)
            return True
        if (
            len(segments) == 3
            and segments[0] == "spaces"
            and segments[2] == "activity"
            and method == "GET"
        ):
            payload = self.service.activity_payload(
                segments[1], self._query_int("limit")
            )
            if payload is None:
                self._fail(
                    404, "not_found", "metrics are disabled on this router"
                )
            else:
                self._reply(200, payload)
            return True
        if (
            len(segments) == 3
            and segments[0] == "spaces"
            and segments[2] == "mutate"
            and method == "POST"
        ):
            delta, verify = parse_mutation(self._body())
            self._reply(200, pool.mutate(segments[1], delta, verify=verify))
            return True
        if len(segments) < 2 or segments[0] != "v1" or segments[1] != "sessions":
            return False
        if len(segments) > 2:
            self._forward(pool.pick_for(segments[2]), self._raw_body)
        elif method == "GET":
            self._reply(200, {"sessions": self.service.session_ids()})
        else:
            self._open()
        return True

    def _open(self) -> None:
        pool = self.service.pool
        body = self._body()
        resume = body.get("resume")
        if resume is not None and not isinstance(resume, str):
            raise _BadRequest("resume must be a token string")
        raw = self._raw_body
        space = pool.open_space(body.get("space"), resume)
        if body.get("space") != space:
            body["space"] = space
            raw = json.dumps(body).encode("utf-8")
        if resume is not None and pool.worker_of(resume) is not None:
            replica = pool.pick_for(resume, takeover=True)
        else:
            replica = pool.pick_fresh()
        self._forward(replica, raw)


class ReplicatedService:
    """The HTTP router over a worker pool.

    Speaks the same wire protocol as
    :class:`~repro.service.server.ExplorationService`, so the stock
    :class:`~repro.service.client.ExplorationClient` works unchanged —
    the replication tier is invisible to clients except in ``/healthz``'s
    ``replicas`` section and the worker tags inside session ids.
    """

    def __init__(
        self,
        pool: MultiSpaceWorkerPool,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics: bool = True,
        slow_click_ms: Optional[float] = None,
    ) -> None:
        self.pool = pool
        #: The router's own observability bundle: request/trace metrics
        #: for the routing hop itself, plus the fleet aggregation below.
        #: ``metrics=False`` turns the router dark (``/metrics`` 404s)
        #: regardless of what the workers were booted with.
        self.obs = Observability(slow_click_ms=slow_click_ms) if metrics else None
        if self.obs is not None:
            self.obs.registry.register_collector(self._collect_respawns)
        self._httpd = _Server((host, port), partial(_RouterHandler, self))
        self.host, self.port = self._httpd.server_address[:2]
        self._serve_thread: Optional[threading.Thread] = None
        self._started_at = time.monotonic()

    def _collect_respawns(self) -> None:
        """Mirror the pool's respawn-failure odometer onto the registry.

        The pool's ``_respawn_failures`` dict stays the single source of
        truth (``/healthz`` reads it directly); this export-time collector
        reflects it into ``repro_respawn_failures_total{worker=}`` so
        ``/metrics`` reports the same numbers without double accounting.
        """
        for index, count in list(self.pool._respawn_failures.items()):
            self.obs.respawn_failures.labels(worker=f"w{index}").set(
                float(count)
            )

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ReplicatedService":
        if self._serve_thread is not None:
            raise RuntimeError("router already started")
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"repro-router:{self.port}",
            daemon=True,
        )
        self._serve_thread.start()
        return self

    def stop(self, stop_pool: bool = True) -> None:
        self._httpd.shutdown()
        self._httpd.close_connections()
        self._httpd.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
            self._serve_thread = None
        if stop_pool:
            self.pool.stop()
        if self.obs is not None:
            self.obs.close()

    def __enter__(self) -> "ReplicatedService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- aggregation -----------------------------------------------------

    def session_ids(self) -> list[str]:
        ids: list[str] = []
        for replica in self.pool.alive_replicas():
            try:
                connection = http.client.HTTPConnection(
                    self.pool.host, replica.port, timeout=5.0
                )
                try:
                    connection.request("GET", "/v1/sessions")
                    response = connection.getresponse()
                    payload = json.loads(response.read().decode("utf-8"))
                    ids.extend(payload.get("sessions", []))
                finally:
                    connection.close()
            except (OSError, ValueError, http.client.HTTPException):
                self.pool.lose(replica)
        return sorted(ids)

    def health(self) -> dict:
        pool_stats = self.pool.stats()
        alive = pool_stats["alive"]
        degraded = alive < self.pool.n_workers or any(
            row.get("degraded") for row in pool_stats["replicas"]
        )
        return {
            "status": "degraded" if degraded else "ok",
            "degraded": degraded,
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "pool": pool_stats,
            "replicas": pool_stats["replicas"],
        }

    def metrics_text(self) -> Optional[str]:
        """The merged fleet exposition (``None`` when metrics are off).

        Scrape-on-demand: each live worker's registry is dumped over
        ``/internal/metrics`` at request time, labeled ``worker="w<i>"``
        and merged with the router's own series.  A replica that stops
        answering is marked dead and respawned exactly like any other
        probe — and because the merged view is rebuilt from live dumps
        on every scrape, a SIGKILLed worker's series vanish immediately
        and its replacement restarts them from zero (no stale series).
        """
        if self.obs is None:
            return None
        dumps = [self.obs.dump_metrics()]
        for replica in self.pool.alive_replicas():
            try:
                reply = _post(
                    self.pool.host,
                    replica.port,
                    "/internal/metrics",
                    {},
                    timeout=2.0,
                )
            except (OSError, RuntimeError, ValueError):
                self.pool.lose(replica)
                continue
            dump = reply.get("metrics")
            if dump:
                dumps.append(
                    label_dump(dump, {"worker": f"w{replica.index}"})
                )
        return render_dump(merge_dumps(dumps))

    def activity_payload(
        self, space: str, limit: Optional[int] = None
    ) -> Optional[dict]:
        """The fleet-wide activity feed of one space, oldest first."""
        if self.obs is None:
            return None
        events: list[dict] = []
        for replica in self.pool.alive_replicas():
            try:
                reply = _post(
                    self.pool.host,
                    replica.port,
                    "/internal/activity",
                    {"space": space, "limit": limit},
                    timeout=2.0,
                )
            except (OSError, RuntimeError, ValueError):
                self.pool.lose(replica)
                continue
            events.extend(reply.get("events") or [])
        events.sort(key=lambda event: event.get("ts") or 0.0)
        if limit is not None and limit >= 0:
            events = events[-limit:] if limit else []
        return {"space": space, "events": events}


def serve_replicated(
    dataset,
    space,
    index=None,
    *,
    space_name: Optional[str] = None,
    tag: Optional[str] = None,
    **kwargs,
) -> ReplicatedService:
    """Replicate one group space: a one-descriptor registry fleet.

    The parent builds the runtime from ``space`` (reusing a prebuilt
    similarity ``index`` when given) and publishes it before this
    returns, so every worker has attached the space and opens never see
    a 202.  ``dataset`` is the space's own dataset (``space.dataset``);
    the space carries it to the workers.  The space is routed as
    ``space_name`` (default ``"default"``) and the arena namespace
    defaults to that name; every other keyword goes to
    :func:`serve_replicated_spaces`.
    """
    from repro.core.runtime import GroupSpaceRuntime

    name = space_name or "default"
    descriptor = SpaceDescriptor(
        name=name,
        builder=lambda: GroupSpaceRuntime(
            space, index=index, share_cache=False, name=name
        ),
    )
    service = serve_replicated_spaces(
        [descriptor], tag=tag if tag is not None else name, **kwargs
    )
    try:
        service.pool.registry.manager(name, wait=True)
    except BaseException:
        service.stop()
        raise
    return service


def serve_replicated_spaces(
    descriptors,
    *,
    workers: int = 2,
    host: str = "127.0.0.1",
    port: int = 0,
    metrics: bool = True,
    slow_click_ms: Optional[float] = None,
    **pool_kwargs,
) -> ReplicatedService:
    """Build the pool, start the router in front of it, return it running."""
    pool = MultiSpaceWorkerPool(
        descriptors,
        workers=workers,
        host=host,
        metrics=metrics,
        slow_click_ms=slow_click_ms,
        **pool_kwargs,
    )
    try:
        return ReplicatedService(
            pool,
            host=host,
            port=port,
            metrics=metrics,
            slow_click_ms=slow_click_ms,
        ).start()
    except BaseException:
        pool.stop()
        raise


__all__ = [
    "MultiSpaceWorkerPool",
    "ReplicatedService",
    "WorkerUnavailable",
    "compile_reference_pattern",
    "serve_replicated",
    "serve_replicated_spaces",
]
