"""One replica process: attach the arenas, serve, obey the parent.

A worker is the existing serving stack —
:class:`~repro.spaces.registry.SpaceRegistry` of
:class:`~repro.core.runtime.GroupSpaceRuntime` managers behind an
:class:`~repro.service.server.ExplorationService` — booted over
artifacts *mapped* from the parent's shared-memory arenas instead of
built locally.  The registry's ``id_tag`` is the worker tag, so every
space's ids compose as ``w<index>-<space>-s0001``.  A control object
mounted on the service's ``POST /internal/<verb>`` namespace obeys the
parent:

- ``ping`` — liveness + per-space epoch/digest + session counters for
  ``/healthz``;
- ``rebind`` — the parent published a new epoch's arena for one space:
  attach it (digest-verified), invalidate the stale pool fingerprints
  (computed here, against *this* process's current space — fingerprints
  are process-local), and adopt the new epoch.  Sessions pinned to older
  epochs keep serving them; the attachments are retained so their mapped
  arrays stay valid even after the parent unlinks the segment names;
- ``attach_space`` — the parent finished materializing a space this
  worker was booted without: register it and map its runtime from the
  named arena;
- ``drain`` — checkpoint every live session and exit cleanly (the same
  path the ``SIGTERM``/``SIGINT`` handlers take), so worker recycling
  never loses a walk.

:func:`_worker_entry` is a module-level entry point because the pool
spawns workers with the ``spawn`` start method (no fork(): a forked
CPython inherits the parent's locks, sockets and signal state, all
wrong here).
"""

from __future__ import annotations

import base64
import os
import pickle
import signal
import sys
import threading
import traceback
from functools import partial
from typing import Optional

from repro.replication.arena import AttachedArena, attach_arena


def _build_obs(spec: dict, worker_index: int):
    """The worker-process observability bundle, from parent spec fields.

    ``metrics: False`` in the spec disables instrumentation wholesale
    (the worker then serves 404 on ``/metrics`` and reports no dumps to
    the parent).  The bundle is rebuilt from scratch on every boot —
    including a respawn after SIGKILL — which is what keeps a takeover
    worker's series starting from zero instead of inheriting ghosts.
    """
    from repro.obs import Observability

    if not spec.get("metrics", True):
        return None
    slowlog_dir = spec.get("slowlog_dir")
    slowlog_path = (
        os.path.join(slowlog_dir, f"slowlog-w{worker_index}.jsonl")
        if slowlog_dir
        else None
    )
    return Observability(
        slow_click_ms=spec.get("slow_click_ms"),
        slowlog_path=slowlog_path,
    )


class SpaceWorkerControl:
    """The parent-facing command surface of one registry worker.

    Tracks, per space, the arena record the parent last announced
    (``space_tag``/digest/epoch/dataset); the registry's descriptors use
    :meth:`_attach_runtime` as their builder so a space (re)build inside
    this process is always an arena mapping, never a discovery run.
    """

    def __init__(
        self, registry, tag: str, worker_index: int, obs=None
    ) -> None:
        self.registry = registry
        self.tag = tag
        self.worker_index = worker_index
        self.obs = obs
        self.drain_event = threading.Event()
        #: Attachments by (space, digest).  Never dropped while the
        #: process lives: a session pinned to an old epoch reads arrays
        #: mapped from the old segment, and unmapping them under it would
        #: be a crash, not a cleanup.  The set is bounded by the parent's
        #: retention window times the worker's lifetime between recycles.
        self.attachments: dict[tuple[str, str], AttachedArena] = {}
        self._records: dict[str, dict] = {}
        self._lock = threading.Lock()
        self._rebind_lock = threading.Lock()

    # -- boot / adoption -------------------------------------------------

    def adopt_space(
        self,
        *,
        name: str,
        space_tag: str,
        digest: str,
        epoch: int,
        dataset,
        idle_ttl_s: Optional[float] = None,
        max_sessions: Optional[int] = None,
    ) -> dict:
        """Register a space and eagerly map its runtime from the arena."""
        from repro.spaces.descriptor import SpaceDescriptor

        with self._lock:
            known = name in self._records
            self._records[name] = {
                "space_tag": space_tag,
                "digest": digest,
                "epoch": int(epoch),
                "dataset": dataset,
            }
        if not known:
            self.registry.register(
                SpaceDescriptor(
                    name=name,
                    builder=partial(self._attach_runtime, name),
                    idle_ttl_s=idle_ttl_s,
                    max_sessions=max_sessions,
                ),
                exist_ok=True,
            )
        # Attach eagerly: mapping the arena is near-instant, and a ready
        # manager means the forwarded open that triggered the parent's
        # build never sees a worker-side 202.
        manager = self.registry.manager(name, wait=True)
        runtime = manager.runtime
        return {
            "ok": True,
            "space": name,
            "epoch": runtime.epoch,
            "digest": runtime.membership_digest(),
        }

    def _attach_runtime(self, name: str):
        from repro.core.runtime import GroupSpaceRuntime

        with self._lock:
            record = dict(self._records[name])
        attached = attach_arena(record["space_tag"], record["digest"])
        runtime = GroupSpaceRuntime.from_arena(
            record["dataset"], attached, name=name
        )
        self.attachments[(name, record["digest"])] = attached
        return runtime

    # -- parent verbs ----------------------------------------------------

    def describe(self) -> dict:
        spaces = {}
        for name in self.registry.names():
            with self._lock:
                record = self._records.get(name) or {}
            spaces[name] = {
                "state": self.registry.peek(name),
                "digest": record.get("digest"),
                "epoch": record.get("epoch"),
            }
        return {
            "ok": True,
            "pid": os.getpid(),
            "worker": self.worker_index,
            "sessions": len(self.registry.session_ids()),
            "degraded": self.registry.any_degraded(),
            "spaces": spaces,
        }

    def handle(self, verb: str, body: dict) -> dict:
        if verb == "ping":
            return self.describe()
        if verb == "rebind":
            return self.rebind(body)
        if verb == "attach_space":
            return self.attach_space(body)
        if verb == "metrics":
            dump = None if self.obs is None else self.obs.dump_metrics()
            return {"ok": True, "metrics": dump}
        if verb == "activity":
            return self.activity(body)
        if verb == "drain":
            return self.drain()
        raise KeyError(f"unknown internal verb {verb!r}")

    def activity(self, body: dict) -> dict:
        space = body.get("space")
        if not isinstance(space, str):
            space = ""
        limit = body.get("limit")
        if not isinstance(limit, int):
            limit = None
        events = [] if self.obs is None else self.obs.activity.recent(space, limit)
        return {"ok": True, "space": space, "events": events}

    def attach_space(self, body: dict) -> dict:
        name = body.get("name")
        if not isinstance(name, str) or not name:
            raise ValueError("attach_space needs a space name")
        space_tag = body.get("space_tag")
        if not isinstance(space_tag, str) or not space_tag:
            raise ValueError("attach_space needs the space's arena tag")
        digest = body.get("digest")
        if not isinstance(digest, str) or not digest:
            raise ValueError("attach_space needs the arena digest")
        blob = body.get("dataset_b64")
        if not isinstance(blob, str):
            raise ValueError("attach_space needs the dataset")
        dataset = pickle.loads(base64.b64decode(blob))
        report = self.adopt_space(
            name=name,
            space_tag=space_tag,
            digest=digest,
            epoch=int(body.get("epoch", 0)),
            dataset=dataset,
            idle_ttl_s=body.get("idle_ttl_s"),
            max_sessions=body.get("max_sessions"),
        )
        report.update(self.describe())
        return report

    def rebind(self, body: dict) -> dict:
        name = body.get("space")
        if not isinstance(name, str) or not name:
            raise ValueError("rebind needs the space name")
        digest = body.get("digest")
        if not isinstance(digest, str) or not digest:
            raise ValueError("rebind needs the new epoch's digest")
        epoch = body.get("epoch")
        if not isinstance(epoch, int):
            raise ValueError("rebind needs the new epoch number")
        changed_old = body.get("changed_old") or []
        with self._lock:
            record = self._records.get(name)
            if record is None:
                raise KeyError(
                    f"worker {self.worker_index} never adopted space {name!r}"
                )
            record["digest"] = digest
            record["epoch"] = int(epoch)
            space_tag = record["space_tag"]
        with self._rebind_lock:
            # peek, not manager(): rebinding must never resurrect a
            # space this worker dropped — the record update above is
            # enough for the next lazy build to map the new epoch.
            if self.registry.peek(name) != "ready":
                report = {
                    "space": name,
                    "epoch": int(epoch),
                    "digest": digest,
                    "cold": True,
                }
            else:
                runtime = self.registry.runtime(name, wait=True)
                if runtime.membership_digest() == digest:
                    report = {
                        "space": name,
                        "epoch": runtime.epoch,
                        "digest": digest,
                        "noop": True,
                    }
                else:
                    try:
                        attached = attach_arena(space_tag, digest)
                    except FileNotFoundError as error:
                        raise ValueError(
                            f"rebind to an unpublished arena segment: {error}"
                        )
                    report = dict(
                        runtime.adopt_epoch(
                            attached.group_space(runtime.space.dataset),
                            attached.similarity_index(),
                            stale_gids=[int(gid) for gid in changed_old],
                            digest=digest,
                            epoch_number=epoch,
                        )
                    )
                    report["space"] = name
                    self.attachments[(name, digest)] = attached
        report.update(self.describe())
        return report

    def drain(self) -> dict:
        summary = {"draining": True, **self.describe()}
        self.drain_event.set()
        return summary


def _worker_entry(spec: dict, ready_conn) -> None:
    """Boot one replica from a parent-built spec, serve until drained.

    ``spec`` carries only picklable boot material: every space the
    parent has already materialized (dataset + arena address + serving
    policy) is adopted before the ready message goes out; spaces that
    finish building later arrive via ``attach_space``.  ``ready_conn``
    receives exactly one message: ``{"ok": True, "port", "pid",
    "spaces"}`` once the HTTP front is listening, or ``{"ok": False,
    "error"}`` when boot failed (digest mismatch, missing segment) — the
    parent decides what to do about it.
    """
    from repro.service.server import ExplorationService
    from repro.spaces.registry import SpaceRegistry

    worker_index = int(spec["worker_index"])
    try:
        registry = SpaceRegistry(
            state_dir=spec.get("state_dir"),
            default_config=spec.get("default_config"),
            max_sessions=spec.get("max_sessions"),
            idle_ttl_s=spec.get("idle_ttl_s"),
            build_workers=1,
            compact_every=spec.get("compact_every", 64),
            id_tag=f"w{worker_index}-",
        )
        obs = _build_obs(spec, worker_index)
        control = SpaceWorkerControl(
            registry, spec["tag"], worker_index, obs=obs
        )
        for entry in spec.get("spaces", ()):
            control.adopt_space(
                name=entry["name"],
                space_tag=entry["space_tag"],
                digest=entry["digest"],
                epoch=int(entry["epoch"]),
                dataset=entry["dataset"],
                idle_ttl_s=entry.get("idle_ttl_s"),
                max_sessions=entry.get("max_sessions"),
            )
        service = ExplorationService(
            registry=registry,
            host=spec.get("host", "127.0.0.1"),
            port=int(spec.get("port", 0)),
            control=control,
            obs=obs,
            metrics=obs is not None,
        ).start()
    except BaseException as error:  # noqa: BLE001 — report boot failures
        ready_conn.send(
            {"ok": False, "error": f"{type(error).__name__}: {error}"}
        )
        ready_conn.close()
        sys.exit(1)

    def _on_signal(signum, frame) -> None:
        control.drain_event.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)

    ready_conn.send(
        {
            "ok": True,
            "port": service.port,
            "pid": os.getpid(),
            "worker": worker_index,
            "spaces": {
                name: {
                    "digest": info.get("digest"),
                    "epoch": info.get("epoch"),
                }
                for name, info in control.describe()["spaces"].items()
            },
        }
    )
    ready_conn.close()

    control.drain_event.wait()
    # Compact every live session's journal so a recycled worker's walks
    # resume bitwise-identical from the shared state directory, then
    # stop.  The arena attachments are closed last: mappings with views
    # still live stay mapped (exit reclaims them), but the close keeps
    # interpreter shutdown free of finalizer noise.
    try:
        registry.drain()
    except Exception:
        traceback.print_exc(file=sys.stderr)
    service.stop()
    registry.shutdown(wait=False)
    for attached in list(control.attachments.values()):
        attached.close()
