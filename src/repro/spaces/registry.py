"""The multi-space hosting registry: many group spaces, one process.

After PR 4 a server process was hard-wired to exactly one
:class:`~repro.core.runtime.GroupSpaceRuntime`; VEXUS itself is a shared
tool — many analysts on *different* populations through one deployment.
:class:`SpaceRegistry` is the subsystem in between: it owns named
:class:`~repro.spaces.descriptor.SpaceDescriptor` entries and turns them
into serving state on demand.

- **Lazy background builds** — resolving a cold space queues its
  materialization (dataset load / discovery / index build, the
  expensive offline phase) on a private worker pool and raises
  :class:`SpaceBuildingError` immediately; the HTTP front maps that to
  ``202 {"state": "building"}`` with a retry hint, so a cold attach
  never blocks the serving threads of a hot space.
- **Space budget with durable LRU eviction** — ``max_ready`` bounds how
  many runtimes stay resident.  Over budget, the least-recently-routed
  idle space is evicted: its live sessions are first checkpointed
  through the PR 4 ``state_dir`` machinery (``evict_idle(0)``), so every
  resume token survives eviction exactly as it survives a crash, then
  the runtime and its caches are dropped.  A later open rebuilds the
  space lazily and ``open(resume=...)`` restores the sessions.
- **Routing + isolation** — each space's
  :class:`~repro.core.runtime.SessionManager` mints ids under the
  ``<space>-`` prefix (unique across the process, so
  :meth:`route` resolves any live session id to its manager), keeps its
  state under ``state_dir/<space>/``, and serves a runtime *named* for
  the space — session checkpoints are stamped with that name and the
  space's membership digest, so a reloaded or re-pointed store can
  never serve another space's sessions.
- **Per-space idle sweeping** — :meth:`sweep_idle` applies each
  descriptor's ``idle_ttl_s`` (falling back to the registry default), so
  one hot demo space can stay resident while short-TTL batch spaces are
  persisted and freed.
"""

from __future__ import annotations

import re
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional

from repro.core.runtime import GroupSpaceRuntime, SessionManager, UnknownSessionError
from repro.spaces.descriptor import SpaceDescriptor

if TYPE_CHECKING:
    from repro.core.session import SessionConfig

#: A space name that *looks like* a worker tag.  Under a non-empty
#: ``id_tag`` (the replication tier's ``w<index>-``), ids would read
#: ``w0-w1-eval-s0001`` — and any id or resume token minted by a
#: differently-deployed registry over the same manifest becomes
#: indistinguishable from a tagged id of another space.  Refused loudly
#: at registration instead of misrouting resumes at 2 a.m.
_WORKER_TAG_LIKE = re.compile(r"^w\d+-")


class SpaceNotFoundError(KeyError):
    """A space name no descriptor was registered under (HTTP: 404)."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.name = name

    def __str__(self) -> str:
        return f"unknown space {self.name!r}"


class SpaceBuildingError(RuntimeError):
    """The space is materializing in the background (HTTP: 202 + retry).

    Not a failure: the request was accepted, the build is running (or
    queued) on the registry's worker pool, and ``retry_after_s`` is the
    registry's estimate — from the last completed build — of when an
    identical request will be served.
    """

    def __init__(self, name: str, retry_after_s: float) -> None:
        super().__init__(
            f"space {name!r} is building; retry in ~{retry_after_s:.1f}s"
        )
        self.name = name
        self.retry_after_s = retry_after_s


class SpaceBuildError(RuntimeError):
    """A space's materialization failed (HTTP: 500, surfaced on /spaces).

    The failure is sticky — every later resolve re-raises it with the
    original cause — until :meth:`SpaceRegistry.reset` (or an explicit
    evict) returns the space to cold for a retry, so a misconfigured
    manifest entry fails loudly instead of rebuilding in a loop.
    """

    def __init__(self, name: str, cause: str) -> None:
        super().__init__(f"space {name!r} failed to build: {cause}")
        self.name = name
        self.cause = cause


#: ``SpaceRegistry(durability=)`` values that contradict ``state_dir``,
#: keyed ``(durability, has state_dir)``.
_DURABILITY_REFUSALS = {
    ("journal", False): "durability='journal' needs a registry state_dir",
    ("snapshot", True): (
        "snapshot durability was removed; the journal is the only durable mode"
    ),
}


class _SpaceEntry:
    """One registered space: descriptor + lifecycle state.

    ``state`` moves ``cold -> building -> ready | failed``; eviction and
    :meth:`SpaceRegistry.reset` return it to ``cold``.  ``last_routed``
    (monotonic) orders LRU eviction; it is touched by every successful
    manager resolution, so "idle" means "no request routed here", not
    "no build finished here".
    """

    __slots__ = (
        "descriptor",
        "state",
        "manager",
        "error",
        "future",
        "last_routed",
        "builds",
        "evictions",
        "build_ms",
    )

    def __init__(self, descriptor: SpaceDescriptor) -> None:
        self.descriptor = descriptor
        self.state = "cold"
        self.manager: Optional[SessionManager] = None
        self.error: Optional[str] = None
        self.future: Optional[Future] = None
        self.last_routed = time.monotonic()
        self.builds = 0
        self.evictions = 0
        self.build_ms: Optional[float] = None


class SpaceRegistry:
    """Named space descriptors -> lazily built, budgeted serving state."""

    def __init__(
        self,
        descriptors: Iterable[SpaceDescriptor] = (),
        max_ready: Optional[int] = None,
        state_dir: Optional[str | Path] = None,
        default_config: Optional["SessionConfig"] = None,
        max_sessions: Optional[int] = None,
        idle_ttl_s: Optional[float] = None,
        build_workers: int = 2,
        durability: Optional[str] = None,
        compact_every: int = 64,
        id_tag: str = "",
        obs=None,
    ) -> None:
        if max_ready is not None and max_ready < 1:
            raise ValueError("max_ready must be >= 1")
        if idle_ttl_s is not None and idle_ttl_s <= 0:
            raise ValueError("idle_ttl_s must be > 0")
        if build_workers < 1:
            raise ValueError("build_workers must be >= 1")
        # ``durability`` stays for callers that still pass it (the
        # service benchmark's server); it is validated, never stored: a
        # registry with a state_dir journals, one without keeps sessions
        # in memory.
        if durability not in (None, "snapshot", "journal"):
            raise ValueError(
                f"durability must be 'snapshot' or 'journal', got {durability!r}"
            )
        refusal = _DURABILITY_REFUSALS.get((durability, state_dir is not None))
        if refusal is not None:
            raise ValueError(refusal)
        self.max_ready = max_ready
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self.default_config = default_config
        self.max_sessions = max_sessions
        #: Registry-wide idle TTL; a descriptor's own ``idle_ttl_s``
        #: overrides it per space (see :meth:`sweep_idle`).
        self.idle_ttl_s = idle_ttl_s
        #: With a ``state_dir`` every space's manager journals each
        #: session (O(1) durable clicks) with compact-then-evict
        #: semantics — budget/idle eviction folds each session's journal
        #: into its snapshot before the space's runtime is dropped.
        self.compact_every = compact_every
        #: Deployment tag minted in front of every space's session-id
        #: prefix (ids become ``{id_tag}{space}-s0001``).  The
        #: replication tier sets ``w<index>-`` here so ids and resume
        #: tokens carry the worker that owns their in-memory state.
        self.id_tag = id_tag
        self._entries: dict[str, _SpaceEntry] = {}
        self._order: list[str] = []  # registration order; [0] is default
        self._lock = threading.Lock()
        self._executor = ThreadPoolExecutor(
            max_workers=build_workers, thread_name_prefix="repro-space-build"
        )
        #: Retry hint handed to SpaceBuildingError: the last completed
        #: build's wall time (seconds), before any build completes a
        #: conservative default.
        self._build_hint_s = 1.0
        self.spaces_evicted = 0
        #: Optional :class:`repro.obs.Observability` bundle, shared by
        #: every space's manager this registry builds.
        self.obs = obs
        for descriptor in descriptors:
            self.register(descriptor)
        if self._ttls_configured() and self.state_dir is None:
            raise ValueError(
                "idle TTLs need a registry state_dir: sweeping without "
                "persistence would silently destroy live sessions"
            )

    def attach_obs(self, obs) -> None:
        """Wire an observability bundle into the registry and its spaces.

        Managers already built pick it up immediately; spaces built
        later inherit it at construction.  The service front calls this
        when it owns the bundle (``ExplorationService(registry=...,
        obs=...)``).
        """
        self.obs = obs
        if obs is None:
            return
        with self._lock:
            managers = [
                entry.manager
                for entry in self._entries.values()
                if entry.manager is not None
            ]
        for manager in managers:
            manager.attach_obs(obs)

    def _note_space_eviction(self, name: str) -> None:
        """Reset + mark a retired space's observable state.

        The activity ring is cleared first (a rebuilt space must not
        inherit a ghost feed), then a space-level ``evict`` event is
        published as the feed's only survivor — the marker a live
        dashboard sees when a whole space was retired, as opposed to
        the per-session ``evict`` events the manager publishes while
        checkpointing.
        """
        obs = self.obs
        if obs is not None:
            obs.activity.clear_space(name)
            obs.publish("evict", space=name, detail={"space_evicted": True})

    def _ttls_configured(self) -> bool:
        return self.idle_ttl_s is not None or any(
            entry.descriptor.idle_ttl_s is not None
            for entry in self._entries.values()
        )

    # -- registration ----------------------------------------------------

    def register(self, descriptor: SpaceDescriptor, exist_ok: bool = False) -> None:
        """Add a space; ``exist_ok`` tolerates re-registration by name."""
        if self.id_tag and _WORKER_TAG_LIKE.match(descriptor.name):
            raise ValueError(
                f"space name {descriptor.name!r} is ambiguous under id tag "
                f"{self.id_tag!r}: it matches the worker-tag shape "
                f"'w<index>-', so session ids and resume tokens could not "
                f"be routed unambiguously — rename the space"
            )
        if descriptor.idle_ttl_s is not None and self.state_dir is None:
            raise ValueError(
                f"space {descriptor.name!r} sets idle_ttl_s but the "
                "registry has no state_dir to persist evicted sessions to"
            )
        with self._lock:
            if descriptor.name in self._entries:
                if exist_ok:
                    return
                raise ValueError(f"space {descriptor.name!r} already registered")
            self._entries[descriptor.name] = _SpaceEntry(descriptor)
            self._order.append(descriptor.name)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def names(self) -> list[str]:
        with self._lock:
            return list(self._order)

    @property
    def default_space(self) -> str:
        """The first registered space: where space-less opens route."""
        with self._lock:
            if not self._order:
                raise SpaceNotFoundError("<default>")
            return self._order[0]

    # -- resolution ------------------------------------------------------

    def _entry(self, name: str) -> _SpaceEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise SpaceNotFoundError(name) from None

    def manager(self, name: str, wait: bool = False) -> SessionManager:
        """The serving manager of ``name``, building it first if needed.

        Ready spaces return immediately (and refresh their LRU stamp).
        Cold spaces queue a background build; with ``wait=False`` (the
        serving path) :class:`SpaceBuildingError` is raised at once so no
        serving thread ever blocks on index construction, with
        ``wait=True`` (CLI warm-up, experiments, tests) the call joins
        the build.  A failed space re-raises its sticky
        :class:`SpaceBuildError`.
        """
        with self._lock:
            entry = self._entry(name)
            if entry.state == "ready":
                entry.last_routed = time.monotonic()
                return entry.manager
            if entry.state == "failed":
                raise SpaceBuildError(name, entry.error)
            if entry.state == "cold":
                entry.state = "building"
                entry.builds += 1
                entry.future = self._executor.submit(self._build, name)
            future = entry.future
            hint = self._build_hint_s
        if not wait:
            raise SpaceBuildingError(name, round(hint, 3))
        future.result()  # surfaces SpaceBuildError on failure
        return self.manager(name, wait=False)

    def runtime(self, name: str, wait: bool = True) -> GroupSpaceRuntime:
        """The (built) runtime of ``name`` — the experiments' entry point."""
        return self.manager(name, wait=wait).runtime

    def peek(self, name: str) -> str:
        """The space's lifecycle state without side effects.

        Unlike :meth:`manager`, peeking a cold space does *not* queue a
        build — the replication tier's ``rebind`` uses this to update an
        evicted space's arena record without resurrecting its runtime.
        """
        with self._lock:
            return self._entry(name).state

    def route(self, session_id: str) -> SessionManager:
        """The manager serving a live session id, whatever its space.

        Session ids are unique across spaces by construction (each
        manager mints under its ``<space>-`` prefix), so at most one
        ready manager answers.  Ids of evicted or never-opened sessions
        raise :class:`~repro.core.runtime.UnknownSessionError` — the
        client's cue to re-open with its resume token, which triggers
        the lazy rebuild.
        """
        with self._lock:
            candidates = [
                (name, entry.manager)
                for name, entry in self._entries.items()
                if entry.state == "ready"
            ]
        for name, manager in candidates:
            if manager.has_session(session_id):
                with self._lock:
                    entry = self._entries.get(name)
                    if entry is not None:
                        entry.last_routed = time.monotonic()
                return manager
        raise UnknownSessionError(session_id)

    def mutate(self, name: str, delta, verify: bool = False) -> dict:
        """Apply a :class:`~repro.core.group.GroupDelta` to a ready space.

        Publishes a new store epoch on the space's runtime — sessions
        pinned to older retained epochs keep serving until they drain —
        and returns the epoch report.  Only ready spaces mutate (there
        is no index to delta-maintain yet on a cold one): cold/building
        spaces raise :class:`SpaceBuildingError` and failed spaces
        re-raise their sticky :class:`SpaceBuildError`, exactly like the
        serving path.  A mutation is not a routing event, so it does not
        refresh the LRU stamp.
        """
        with self._lock:
            entry = self._entry(name)
            if entry.state == "failed":
                raise SpaceBuildError(name, entry.error)
            if entry.state != "ready":
                raise SpaceBuildingError(name, round(self._build_hint_s, 3))
            manager = entry.manager
        return manager.apply_deltas(delta, verify=verify)

    # -- building --------------------------------------------------------

    def _build(self, name: str) -> None:
        """Worker-pool body: materialize one space, then enforce the budget."""
        with self._lock:
            descriptor = self._entry(name).descriptor
        started = time.monotonic()
        try:
            runtime = descriptor.materialize()
            manager = SessionManager(
                runtime,
                default_config=self.default_config,
                max_sessions=(
                    descriptor.max_sessions
                    if descriptor.max_sessions is not None
                    else self.max_sessions
                ),
                state_dir=(
                    self.state_dir / name if self.state_dir is not None else None
                ),
                id_prefix=f"{self.id_tag}{name}-",
                compact_every=self.compact_every,
                obs=self.obs,
            )
        except Exception as error:  # noqa: BLE001 — recorded, re-raised typed
            cause = f"{type(error).__name__}: {error}"
            with self._lock:
                entry = self._entry(name)
                entry.state = "failed"
                entry.error = cause
                entry.future = None
            raise SpaceBuildError(name, cause) from error
        elapsed = time.monotonic() - started
        with self._lock:
            entry = self._entry(name)
            entry.manager = manager
            entry.state = "ready"
            entry.error = None
            entry.future = None
            entry.last_routed = time.monotonic()
            entry.build_ms = round(elapsed * 1000.0, 3)
            # Builds dominated by index construction scale with the
            # space; the freshest completed build is the best available
            # retry hint for the next cold attach.
            self._build_hint_s = max(elapsed, 0.05)
        self._enforce_budget(protect=name)

    def _retire_entry(self, name: str, entry: _SpaceEntry) -> Optional[SessionManager]:
        """Try to take ``entry`` out of service (caller holds the lock).

        Closes the manager's admission first, so the live-session count
        is exact and no concurrent ``open`` can slip a session onto a
        manager the router is about to forget.  Without a ``state_dir``
        a space holding live sessions is *not* retirable — eviction must
        never destroy a session it cannot checkpoint — so admission is
        reopened and ``None`` returned.  On success the entry is cold
        and the (deregistered) manager is returned for checkpointing.
        """
        manager = entry.manager
        live = manager.close_admission()
        if self.state_dir is None and live > 0:
            manager.reopen_admission()
            return None
        entry.state = "cold"
        entry.manager = None
        entry.evictions += 1
        self.spaces_evicted += 1
        return manager

    def _enforce_budget(self, protect: Optional[str] = None) -> None:
        """Evict LRU idle spaces until at most ``max_ready`` stay resident.

        ``protect`` (the space that just finished building) is never the
        victim — evicting it would turn every cold attach into a
        build/evict livelock.  Without a ``state_dir``, spaces holding
        live sessions are skipped too (the budget is best-effort then):
        eviction must never silently destroy a session it cannot
        checkpoint.
        """
        if self.max_ready is None:
            return
        while True:
            with self._lock:
                ready = [
                    (name, entry)
                    for name, entry in self._entries.items()
                    if entry.state == "ready"
                ]
                if len(ready) <= self.max_ready:
                    return
                candidates = sorted(
                    (pair for pair in ready if pair[0] != protect),
                    key=lambda pair: pair[1].last_routed,
                )
                manager = None
                for name, entry in candidates:
                    manager = self._retire_entry(name, entry)
                    if manager is not None:
                        break
                if manager is None:
                    return  # every candidate is pinned by live sessions
            # Persist outside the registry lock: checkpointing takes each
            # session's own lock, so an in-flight click completes (and
            # checkpoints) before its session's final persist.
            manager.evict_idle(0.0)
            self._note_space_eviction(name)

    def evict(self, name: str) -> bool:
        """Persist + drop one space's serving state (False when refused).

        The durable analogue of a space-level restart: live sessions are
        checkpointed (given a ``state_dir``) and their resume tokens keep
        working across the next lazy build.  Without a ``state_dir`` a
        space holding live sessions refuses eviction — destroying
        unpersistable sessions is never an implicit side effect.  Also
        clears a sticky ``failed`` state so the next resolve retries the
        build.
        """
        with self._lock:
            entry = self._entry(name)
            if entry.state == "failed":
                entry.state = "cold"
                entry.error = None
                return False
            if entry.state != "ready":
                return False
            manager = self._retire_entry(name, entry)
            if manager is None:
                return False
        manager.evict_idle(0.0)
        self._note_space_eviction(name)
        return True

    reset = evict  # a failed space is retried through the same verb

    # -- sweeping --------------------------------------------------------

    def sweep_idle(self) -> int:
        """Apply per-space idle TTLs to every ready space's sessions.

        Each space sweeps under its descriptor's ``idle_ttl_s``, falling
        back to the registry default; spaces with neither are exempt
        (one hot demo space can stay pinned while batch spaces expire).
        Returns the number of sessions evicted.  Only durable managers
        are swept — enforced at configuration time, re-checked here.
        """
        with self._lock:
            targets = [
                (
                    entry.manager,
                    entry.descriptor.idle_ttl_s
                    if entry.descriptor.idle_ttl_s is not None
                    else self.idle_ttl_s,
                )
                for entry in self._entries.values()
                if entry.state == "ready"
            ]
        evicted = 0
        for manager, ttl in targets:
            if ttl is None or manager.state_dir is None:
                continue
            evicted += len(manager.evict_idle(ttl))
        return evicted

    def min_ttl_s(self) -> Optional[float]:
        """The shortest configured idle TTL (sizes the sweeper interval)."""
        with self._lock:
            ttls = [
                entry.descriptor.idle_ttl_s
                if entry.descriptor.idle_ttl_s is not None
                else self.idle_ttl_s
                for entry in self._entries.values()
            ]
        ttls = [ttl for ttl in ttls if ttl is not None]
        return min(ttls) if ttls else None

    # -- introspection ---------------------------------------------------

    def any_degraded(self) -> bool:
        """Whether any ready space's durable layer is failing.

        The process-level health signal ``/healthz`` surfaces: a load
        balancer should stop routing *writes* here while any hosted
        space cannot persist them (per-space detail is on ``/spaces``).
        """
        with self._lock:
            managers = [
                entry.manager
                for entry in self._entries.values()
                if entry.state == "ready" and entry.manager is not None
            ]
        return any(manager.degraded for manager in managers)

    def session_ids(self) -> list[str]:
        """Live session ids across every ready space (sorted)."""
        with self._lock:
            managers = [
                entry.manager
                for entry in self._entries.values()
                if entry.state == "ready"
            ]
        ids: list[str] = []
        for manager in managers:
            ids.extend(manager.session_ids())
        return sorted(ids)

    def describe(self) -> dict[str, dict]:
        """Per-space state + stats: the ``/spaces`` and healthz payload."""
        with self._lock:
            snapshot = [
                (name, self._entries[name]) for name in self._order
            ]
        described: dict[str, dict] = {}
        for name, entry in snapshot:
            row = entry.descriptor.describe()
            row.update(
                {
                    "state": entry.state,
                    "builds": entry.builds,
                    "evictions": entry.evictions,
                    "build_ms": entry.build_ms,
                    "error": entry.error,
                }
            )
            manager = entry.manager
            if manager is not None:
                row["live_sessions"] = len(manager)
                row["groups"] = len(manager.runtime.space)
                row["degraded"] = manager.degraded
                row["stats"] = manager.stats()
            described[name] = row
        return described

    def stats(self) -> dict[str, object]:
        with self._lock:
            states = [entry.state for entry in self._entries.values()]
        return {
            "spaces": len(states),
            "ready": states.count("ready"),
            "building": states.count("building"),
            "failed": states.count("failed"),
            "max_ready": self.max_ready,
            "spaces_evicted": self.spaces_evicted,
            "durable": self.state_dir is not None,
            "durability": "journal" if self.state_dir is not None else None,
            "degraded_spaces": self._degraded_count(),
        }

    def _degraded_count(self) -> int:
        with self._lock:
            managers = [
                entry.manager
                for entry in self._entries.values()
                if entry.manager is not None
            ]
        return sum(1 for manager in managers if manager.degraded)

    def drain(self) -> dict[str, int]:
        """Checkpoint + retire every live session in every ready space.

        The graceful-shutdown primitive behind ``cli serve``'s
        ``SIGTERM`` handler (and worker recycling in the replication
        tier): each ready manager compacts and deregisters all of its
        sessions, so every walk resumes
        bitwise-identical after a restart.  Needs a ``state_dir``;
        without one there is nowhere to checkpoint and this is a no-op.
        Returns per-space drained-session counts.
        """
        if self.state_dir is None:
            return {}
        with self._lock:
            ready = [
                (name, entry.manager)
                for name, entry in self._entries.items()
                if entry.state == "ready" and entry.manager is not None
            ]
        return {
            name: len(manager.evict_idle(0.0)) for name, manager in ready
        }

    def shutdown(self, wait: bool = True) -> None:
        """Stop the build workers (pending builds finish when ``wait``)."""
        self._executor.shutdown(wait=wait)

    def __repr__(self) -> str:
        counters = self.stats()
        return (
            f"SpaceRegistry({counters['spaces']} spaces, "
            f"{counters['ready']} ready, max_ready={self.max_ready})"
        )
