"""JSON-over-HTTP front over a :class:`~repro.core.runtime.SessionManager`.

§II deploys VEXUS as an interactive multi-analyst service: browsers talk
to one shared group space over the network.  This module is that front,
built entirely on the stdlib so the serving story needs nothing the
selection engine doesn't already need:

- a :class:`http.server.ThreadingHTTPServer` (one thread per connection,
  HTTP/1.1 keep-alive, so a client's click loop pays one TCP handshake,
  not one per click);
- a wire protocol that mirrors the in-process API one-to-one, so the
  HTTP layer can be proven *transparent*: the same scripted trace shows
  bitwise-identical displays through either path;
- durable sessions: with a state-dir-backed manager every mutation is
  journaled, ``close`` returns a resume token, an idle sweeper evicts
  (and persists) abandoned sessions, and ``open`` with ``resume``
  restores a session after a crash or restart.

Wire protocol (all bodies JSON; errors are
``{"error": {"type", "message"}}``)::

    POST /v1/sessions                    {config?, seed_gids?, resume?, space?}
                                         -> {session_id, resume_token, display,
                                             space?}
    POST /v1/sessions/<id>/click         {gid}      -> {display}
    POST /v1/sessions/<id>/backtrack     {step_id}  -> {display}
    POST /v1/sessions/<id>/drill_down    {gid}      -> {members}
    GET  /v1/sessions/<id>/displayed                -> {display}
    GET  /v1/sessions/<id>/stats                    -> per-session counters
    POST /v1/sessions/<id>/close                    -> final summary
    GET  /v1/sessions                               -> {sessions}
    GET  /spaces                                    -> {spaces, default}
                                                       (multi-space servers)
    POST /spaces/<name>/mutate           {add?, remove?, update?, verify?}
                                                    -> epoch report
    GET  /healthz                                   -> service + runtime +
                                                       shared-cache stats

A service fronts either one :class:`~repro.core.runtime.SessionManager`
(the single-space deployment, unchanged) or a
:class:`~repro.spaces.SpaceRegistry` hosting many named spaces.  With a
registry, ``open`` routes by its ``space`` field (default: the
manifest's first space), later session verbs route by the session id
(ids are unique across spaces by construction), and an ``open`` against
a cold space queues a background build and answers ``202 {"state":
"building"}`` with a ``Retry-After`` hint — clicks on hot spaces are
never blocked by another space's index construction.

**Online store mutation.**  ``POST /spaces/<name>/mutate`` applies a
group delta (``add`` new groups, ``remove`` gids, ``update`` a group's
members) to a *ready* space and publishes a new store epoch.  Mutation
is epoch-drained, never stop-the-world: sessions opened before the
mutation stay pinned to their epoch's space + index until they drain
(their displays are unaffected — concurrent clicks are parity-identical
to a quiesced run), sessions opened after it serve the new epoch, and
shared caches invalidate per content fingerprint, so entries for
untouched groups stay warm across the mutation.  Journal and checkpoint
records are stamped with the session's pinned epoch (number + digest);
resume re-binds onto a retained epoch by digest, and a resume whose
digest no longer matches any retained epoch is refused with a 409.
``verify: true`` additionally rebuilds the index from scratch and
refuses to publish unless the delta-maintained index is bitwise
identical (the parity oracle — for tests and paranoid operators).  The
reply is the epoch report: new epoch number, digest, parent digest,
per-kind delta counts, dropped cache entries, and apply latency.

Status mapping: 202 space building (retry), 400 malformed request, 404
unknown session / resume token / space / route, 405 wrong method, 409
conflicting state (stale space digest, already-live resume token,
corrupted journal), 429 admission control (``max_sessions``), 503
durability degraded (typed ``durability_degraded`` with a
``Retry-After``; the interaction was rolled back server-side, never
half-applied), 500 anything else (including sticky space build
failures, typed ``space_build_failed``).  ``/healthz`` and ``/spaces``
carry a ``degraded`` flag while a space's durable layer is failing.
"""

from __future__ import annotations

import json
import math
import threading
import time
from functools import partial
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs

from repro.core.group import Group, GroupDelta
from repro.core.journal import DurabilityError
from repro.core.runtime import (
    SessionLimitError,
    SessionManager,
    StaleEpochError,
    UnknownSessionError,
)
from repro.core.session import SessionConfig
from repro.obs import TRACE_HEADER, Observability, span
from repro.spaces.registry import (
    SpaceBuildError,
    SpaceBuildingError,
    SpaceNotFoundError,
    SpaceRegistry,
)

#: Session-level configuration knobs a remote ``open`` may set.  The
#: nested ``selection`` config stays server-side: the service owns its
#: latency budget policy; clients choose *what* to explore, not how much
#: CPU a click may burn.
_CONFIG_FIELDS = frozenset(
    {
        "k",
        "time_budget_ms",
        "similarity_floor",
        "max_pool",
        "reward",
        "use_profile",
        "weighted_similarity",
        "engine",
        "governor",
        "cache_pools",
        "cache_capacity",
    }
)


class _BadRequest(Exception):
    """Client-side protocol violation; always mapped to a 400."""


def _display_payload(groups: list[Group]) -> list[dict]:
    """The GROUPVIZ slice of the wire format.

    Everything the in-process display exposes per group — gid, the
    describing attribute values, the member count — so the conformance
    suite can compare the two paths field for field.
    """
    return [
        {
            "gid": group.gid,
            "description": list(group.description),
            "size": group.size,
        }
        for group in groups
    ]


def _member_list(value, where: str) -> list[int]:
    if not isinstance(value, list) or not value:
        raise _BadRequest(f"{where} must be a non-empty list of user ids")
    members = []
    for user in value:
        if isinstance(user, bool) or not isinstance(user, int):
            raise _BadRequest(f"{where} entries must be integers")
        members.append(user)
    return members


def parse_mutation(body: dict) -> tuple[GroupDelta, bool]:
    """Validate a ``POST /spaces/<name>/mutate`` body into a delta.

    Shared by the single-process handler above and the replication
    router (which forwards the parsed delta to its worker pool), so both
    fronts reject malformed mutations with identical 400s.  Returns
    ``(delta, verify)``; every violation raises the handler-mapped
    :class:`_BadRequest`.
    """
    unknown = set(body) - {"add", "remove", "update", "verify"}
    if unknown:
        raise _BadRequest(f"unknown mutate fields {sorted(unknown)}")
    verify = body.get("verify", False)
    if not isinstance(verify, bool):
        raise _BadRequest("verify must be a boolean")
    added = []
    for i, item in enumerate(body.get("add") or []):
        if not isinstance(item, dict) or set(item) - {"description", "members"}:
            raise _BadRequest(
                "add entries must be {description, members} objects"
            )
        description = item.get("description")
        if not isinstance(description, list) or not all(
            isinstance(term, str) for term in description
        ):
            raise _BadRequest(
                f"add[{i}].description must be a list of strings"
            )
        added.append(
            (description, _member_list(item.get("members"), f"add[{i}].members"))
        )
    removed = []
    for gid in body.get("remove") or []:
        if isinstance(gid, bool) or not isinstance(gid, int):
            raise _BadRequest("remove entries must be integer gids")
        removed.append(gid)
    changed = []
    for i, item in enumerate(body.get("update") or []):
        if not isinstance(item, dict) or set(item) - {"gid", "members"}:
            raise _BadRequest(
                "update entries must be {gid, members} objects"
            )
        gid = item.get("gid")
        if isinstance(gid, bool) or not isinstance(gid, int):
            raise _BadRequest(f"update[{i}].gid must be an integer")
        changed.append(
            (gid, _member_list(item.get("members"), f"update[{i}].members"))
        )
    try:
        delta = GroupDelta.build(added=added, removed=removed, changed=changed)
    except ValueError as error:
        # Shape-level rejection (duplicate targets, negative members):
        # the request itself is malformed, not a state conflict.
        raise _BadRequest(str(error))
    if delta.is_empty():
        raise _BadRequest("mutation delta is empty")
    return delta, verify


def _int_field(body: dict, name: str) -> int:
    if name not in body:
        raise _BadRequest(f"missing field {name!r}")
    value = body[name]
    # bool is an int subclass; "gid": true must not address group 1.
    if isinstance(value, bool) or not isinstance(value, int):
        raise _BadRequest(f"field {name!r} must be an integer")
    return value


class _Server(ThreadingHTTPServer):
    """Connection-tracking threaded server.

    Keep-alive means connection threads outlive individual requests;
    tracking the sockets lets :meth:`ExplorationService.stop` tear down
    live connections (the crash-recovery suite kills a server
    mid-session and must not leave client threads blocked on a half-open
    socket).
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._connections: set = set()
        self._connections_lock = threading.Lock()

    def track(self, connection) -> None:
        with self._connections_lock:
            self._connections.add(connection)

    def untrack(self, connection) -> None:
        with self._connections_lock:
            self._connections.discard(connection)

    def close_connections(self) -> None:
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.close()
            except OSError:
                pass


def _retry_after(error: Exception) -> Optional[dict[str, str]]:
    """The ``Retry-After`` header of a refusal that carries a hint."""
    hint = getattr(error, "retry_after_s", None)
    if hint is None:
        return None
    return {"Retry-After": str(max(1, math.ceil(hint)))}


class JsonHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 JSON plumbing shared by every front in this repository.

    The service handler below and the replication router
    (:mod:`repro.replication.pool`) both answer the same wire protocol;
    everything about *how* a request is read and answered lives here so
    the two can never drift apart: keep-alive with an idle timeout,
    TCP_NODELAY, the eager body drain, JSON body parsing, reply
    framing, request-span status stamping, and the typed error ladder.
    Subclasses provide ``_route(method) -> bool`` and their ``_ERRORS``
    table.
    """

    protocol_version = "HTTP/1.1"  # keep-alive: one connection per client
    #: Idle keep-alive connections are reaped after this many seconds so
    #: departed clients do not pin handler threads forever; the typed
    #: client transparently reconnects.
    timeout = 30.0
    #: TCP_NODELAY: replies go out in several small writes (status line,
    #: headers, JSON body); with Nagle on, the last write can sit behind
    #: the peer's delayed ACK and a sub-millisecond localhost round trip
    #: balloons to ~40 ms — wiping out the click budget the selection
    #: engine fights for.
    disable_nagle_algorithm = True
    #: Buffered replies: status line, headers and body leave in one
    #: write when ``http.server`` flushes after the verb returns — after
    #: the request span closed, so a client that has seen a reply can
    #: already find its request in ``/metrics`` and the slow log.
    wbufsize = 1 << 16

    #: ``(exception type, status, error type)`` in match order: the first
    #: ``isinstance`` hit answers, an exception carrying ``retry_after_s``
    #: also sets ``Retry-After``, and an ``error type`` of ``None`` reads
    #: the exception's own ``error_type``.  Unmatched exceptions are a
    #: 500 ``internal_error``; a building space is a 202, not an error.
    _ERRORS: tuple = (
        (_BadRequest, 400, "bad_request"),
        (SpaceNotFoundError, 404, "unknown_space"),
        (SpaceBuildError, 500, "space_build_failed"),
    )

    def __init__(self, service, *args, **kwargs) -> None:
        self.service = service
        super().__init__(*args, **kwargs)

    def setup(self) -> None:
        super().setup()
        self.server.track(self.connection)

    def finish(self) -> None:
        super().finish()
        self.server.untrack(self.connection)

    def log_message(self, format: str, *args) -> None:
        """Silent by default; the service counts instead of printing."""

    def handle_expect_100(self) -> bool:
        # The interim 100 must reach the client now, not with the reply.
        accepted = super().handle_expect_100()
        self.wfile.flush()
        return accepted

    # -- plumbing --------------------------------------------------------

    #: Set by :meth:`_dispatch` while an instrumented request is live so
    #: :meth:`_reply` can stamp the final status on the request span.
    _request_span = None

    def _reply(
        self,
        status: int,
        payload: dict,
        headers: Optional[dict[str, str]] = None,
    ) -> None:
        self._send(status, json.dumps(payload).encode("utf-8"),
                   "application/json", headers)

    def _reply_text(
        self,
        status: int,
        text: str,
        content_type: str = "text/plain; version=0.0.4; charset=utf-8",
    ) -> None:
        """A raw-text reply: the Prometheus ``/metrics`` exposition."""
        self._send(status, text.encode("utf-8"), content_type, None)

    def _send(
        self,
        status: int,
        encoded: bytes,
        content_type: str,
        headers: Optional[dict[str, str]],
    ) -> None:
        if self._request_span is not None:
            self._request_span.set_status(status)
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(encoded)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(encoded)

    def _fail(
        self,
        status: int,
        error_type: str,
        message: str,
        headers: Optional[dict[str, str]] = None,
    ) -> None:
        self._reply(
            status,
            {"error": {"type": error_type, "message": message}},
            headers=headers,
        )

    def _drain_body(self) -> None:
        """Read the request body unconditionally, before any routing.

        Keep-alive correctness: if a handler replies without consuming
        the body (unmatched route, bodyless verbs like ``close``), the
        leftover bytes would be parsed as the *next* request line on the
        same connection, desynchronizing every later exchange.
        """
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            # The body cannot be framed, so neither can the next request
            # on this connection: answer, then hang up.
            self.close_connection = True
            raise _BadRequest("Content-Length must be an integer")
        self._raw_body = self.rfile.read(length) if length > 0 else b""

    def _body(self) -> dict:
        if not self._raw_body:
            return {}
        try:
            body = json.loads(self._raw_body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _BadRequest(f"request body is not valid JSON ({error})")
        if not isinstance(body, dict):
            raise _BadRequest("request body must be a JSON object")
        return body

    def _query_int(self, name: str) -> Optional[int]:
        """An optional integer query parameter (``None`` when absent)."""
        parts = self.path.split("?", 1)
        if len(parts) < 2:
            return None
        values = parse_qs(parts[1]).get(name)
        if not values:
            return None
        try:
            return int(values[-1])
        except ValueError:
            raise _BadRequest(f"query parameter {name!r} must be an integer")

    # -- dispatch --------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        obs = self.service.obs
        if obs is None:
            self._handle(method)
            return
        # Activate a trace for the request's duration: span() calls deep
        # in the core record into it, the HTTP counters update on exit,
        # and a request over the slow threshold lands in the slow log
        # under the client's (or router's) X-Repro-Trace id.
        with obs.request(
            self.path, self.headers.get(TRACE_HEADER)
        ) as request_span:
            self._request_span = request_span
            try:
                self._handle(method)
            finally:
                self._request_span = None

    def _handle(self, method: str) -> None:
        try:
            self._drain_body()
            with span("route"):
                handled = self._route(method)
        except (BrokenPipeError, ConnectionResetError):
            raise  # client went away mid-reply; nothing to serialize
        except Exception as error:  # noqa: BLE001 — a front must not die
            self._refuse(error)
        else:
            if not handled:
                self._fail(404, "not_found", f"no route for {method} {self.path}")

    def _refuse(self, error: Exception) -> None:
        """Answer a raised exception with its typed reply."""
        if isinstance(error, SpaceBuildingError):
            # Not a failure: the build was accepted and is running in the
            # background.  202 + Retry-After is the "come back shortly"
            # protocol shape; the typed client raises SpaceBuilding with
            # the hint so callers can poll without parsing.
            self._reply(
                202,
                {
                    "state": "building",
                    "space": error.name,
                    "retry_after_s": error.retry_after_s,
                },
                headers=_retry_after(error),
            )
            return
        for kind, status, error_type in self._ERRORS:
            if isinstance(error, kind):
                self._fail(
                    status,
                    error_type or error.error_type,
                    str(error),
                    headers=_retry_after(error),
                )
                return
        self._fail(500, "internal_error", f"{type(error).__name__}: {error}")

    def _route(self, method: str) -> bool:
        raise NotImplementedError


class _Handler(JsonHandler):
    """One request: route, call the manager, serialize the outcome."""

    _ERRORS = JsonHandler._ERRORS + (
        (UnknownSessionError, 404, "unknown_session"),
        (SessionLimitError, 429, "too_many_sessions"),
        # The durable write failed and the interaction was rolled back
        # server-side (503 genuinely means "not applied"); the
        # Retry-After hint carries the manager's healing cadence.
        (DurabilityError, 503, "durability_degraded"),
        # The resume's pinned store generation aged out of every
        # retention window (runtime epochs, or arena segments after a
        # worker respawn).  Typed apart from the generic conflict: the
        # client's only recovery is a fresh session, not a retry.
        (StaleEpochError, 409, "stale_epoch"),
        # Server-side state disagreement: stale space digest on resume,
        # an already-live resume token, resume without a state dir — the
        # request was well-formed but cannot be honoured.
        (ValueError, 409, "conflict"),
        # Well-typed but unsatisfiable references (a gid outside the
        # space, an unknown history step).
        ((KeyError, IndexError), 400, "bad_reference"),
    )

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self.service.count_request()
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self.service.count_request()
        self._dispatch("POST")

    def _fail(
        self,
        status: int,
        error_type: str,
        message: str,
        headers: Optional[dict[str, str]] = None,
    ) -> None:
        self.service.count_error()
        super()._fail(status, error_type, message, headers)

    #: Method each session verb answers to; a known verb with the wrong
    #: method is a 405, not a 404 (the route exists, the method is wrong).
    _SESSION_VERBS = {
        "click": "POST",
        "backtrack": "POST",
        "drill_down": "POST",
        "close": "POST",
        "displayed": "GET",
        "stats": "GET",
    }

    def _route(self, method: str) -> bool:
        """Dispatch one request; False when no route matches."""
        path = self.path.split("?", 1)[0].rstrip("/")
        if path == "/healthz":
            if method != "GET":
                self._fail(405, "method_not_allowed", "use GET /healthz")
                return True
            self._reply(200, self.service.health())
            return True
        if path == "/metrics":
            if method != "GET":
                self._fail(405, "method_not_allowed", "use GET /metrics")
                return True
            text = self.service.metrics_text()
            if text is None:
                self._fail(
                    404, "not_found", "metrics are disabled on this server"
                )
                return True
            self._reply_text(200, text)
            return True
        if path == "/spaces":
            if method != "GET":
                self._fail(405, "method_not_allowed", "use GET /spaces")
                return True
            registry = self.service.registry
            if registry is None:
                self._fail(
                    404,
                    "not_found",
                    "this server hosts a single space; see /healthz",
                )
                return True
            self._reply(
                200,
                {
                    "spaces": registry.describe(),
                    "default": registry.default_space,
                },
            )
            return True
        segments = [segment for segment in path.split("/") if segment]
        if len(segments) == 2 and segments[0] == "internal":
            control = self.service.control
            if control is None:
                return False  # not a replication worker: plain 404
            if method != "POST":
                self._fail(
                    405, "method_not_allowed", "use POST /internal/<verb>"
                )
                return True
            self._reply(200, control.handle(segments[1], self._body()))
            return True
        if (
            len(segments) == 3
            and segments[0] == "spaces"
            and segments[2] == "activity"
        ):
            if method != "GET":
                self._fail(
                    405,
                    "method_not_allowed",
                    "use GET /spaces/<name>/activity",
                )
                return True
            obs = self.service.obs
            if obs is None:
                self._fail(
                    404,
                    "not_found",
                    "the activity feed is disabled on this server",
                )
                return True
            # Registry mode keys rings by space name; a single-space
            # server publishes under its manager's own label, so any
            # requested name serves that one feed.
            ring_key = (
                segments[1]
                if self.service.registry is not None
                else self.service.manager.space_label
            )
            self._reply(
                200,
                {
                    "space": segments[1],
                    "events": obs.activity.recent(
                        ring_key, self._query_int("limit")
                    ),
                },
            )
            return True
        if (
            len(segments) == 3
            and segments[0] == "spaces"
            and segments[2] == "mutate"
        ):
            if method != "POST":
                self._fail(
                    405,
                    "method_not_allowed",
                    "use POST /spaces/<name>/mutate",
                )
                return True
            self._mutate(segments[1], self._body())
            return True
        if len(segments) < 2 or segments[0] != "v1" or segments[1] != "sessions":
            return False
        if len(segments) == 2:
            # Only GET and POST ever reach _route (no other do_* exists),
            # and the collection answers to both.
            if method == "POST":
                self._open(self._body())
            else:
                self._reply(200, {"sessions": self.service.session_ids()})
            return True
        session_id = segments[2]
        verb = segments[3] if len(segments) == 4 else None
        required = self._SESSION_VERBS.get(verb) if verb is not None else None
        if required is None:
            return False
        if method != required:
            self._fail(
                405,
                "method_not_allowed",
                f"use {required} /v1/sessions/<id>/{verb}",
            )
            return True
        # Routed by session id: with a registry, ids are unique across
        # spaces (each space's manager mints under its own prefix), so
        # the resolved manager is the session's home space.
        manager = self.service.resolve(session_id)
        if verb == "click":
            shown = manager.click(
                session_id, self._gid(self._int_gid(self._body()), manager)
            )
            self._reply(200, {"display": _display_payload(shown)})
        elif verb == "backtrack":
            shown = manager.backtrack(
                session_id, _int_field(self._body(), "step_id")
            )
            self._reply(200, {"display": _display_payload(shown)})
        elif verb == "drill_down":
            members = manager.drill_down(
                session_id, self._gid(self._int_gid(self._body()), manager)
            )
            self._reply(200, {"members": [int(user) for user in members]})
        elif verb == "close":
            self._reply(200, manager.close(session_id))
        elif verb == "displayed":
            shown = manager.displayed(session_id)
            self._reply(200, {"display": _display_payload(shown)})
        else:  # stats
            self._reply(200, manager.session_stats(session_id))
        return True

    def _int_gid(self, body: dict) -> int:
        return _int_field(body, "gid")

    def _gid(self, gid: int, manager: SessionManager) -> int:
        space = manager.runtime.space
        if not 0 <= gid < len(space):
            raise _BadRequest(f"gid {gid} outside the group space (0..{len(space) - 1})")
        return gid

    def _open(self, body: dict) -> None:
        unknown = set(body) - {"config", "seed_gids", "resume", "space"}
        if unknown:
            raise _BadRequest(f"unknown open fields {sorted(unknown)}")
        space_name = body.get("space")
        if space_name is not None and not isinstance(space_name, str):
            raise _BadRequest("space must be a space name string")
        manager, space_name = self.service.manager_for(space_name)
        config = None
        if body.get("config") is not None:
            knobs = body["config"]
            if not isinstance(knobs, dict):
                raise _BadRequest("config must be a JSON object")
            bad = set(knobs) - _CONFIG_FIELDS
            if bad:
                raise _BadRequest(f"unknown config fields {sorted(bad)}")
            try:
                config = SessionConfig(**knobs)
            except (TypeError, ValueError) as error:
                raise _BadRequest(f"invalid config: {error}")
        seed_gids = body.get("seed_gids")
        if seed_gids is not None:
            if not isinstance(seed_gids, list):
                raise _BadRequest("seed_gids must be a list of gids")
            checked = []
            for gid in seed_gids:
                if isinstance(gid, bool) or not isinstance(gid, int):
                    raise _BadRequest("seed_gids entries must be integers")
                checked.append(self._gid(gid, manager))
            seed_gids = checked
        resume = body.get("resume")
        if resume is not None and not isinstance(resume, str):
            raise _BadRequest("resume must be a token string")
        session_id, shown = manager.open_session(
            config=config, seed_gids=seed_gids, resume=resume
        )
        reply = {
            "session_id": session_id,
            "resume_token": manager.resume_token(session_id),
            "display": _display_payload(shown),
        }
        if space_name is not None:
            reply["space"] = space_name
        self._reply(200, reply)

    def _mutate(self, space_name: str, body: dict) -> None:
        delta, verify = parse_mutation(body)
        self._reply(200, self.service.mutate(space_name, delta, verify=verify))


class ExplorationService:
    """A running HTTP front over one session manager or a space registry.

    Binds at construction time (``port=0`` picks an ephemeral port — the
    bound port is ``self.port`` immediately, so test clients never race
    the listener), serves from a background thread after :meth:`start`,
    and optionally runs an idle-eviction sweeper that persists and
    retires sessions nobody has touched for ``idle_ttl_s`` seconds.

    Exactly one of ``manager`` (the single-space deployment) or
    ``registry`` (multi-space hosting: routing, lazy builds, per-space
    TTLs) fronts the protocol.  In registry mode idle TTLs are
    configured *on the registry* (globally and per space in the
    manifest); the service only drives the sweep loop.

    Usable as a context manager::

        with ExplorationService(manager).start() as service:
            client = ExplorationClient(service.host, service.port)
    """

    def __init__(
        self,
        manager: Optional[SessionManager] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        idle_ttl_s: Optional[float] = None,
        sweep_interval_s: Optional[float] = None,
        registry: Optional[SpaceRegistry] = None,
        control: Optional[object] = None,
        obs: Optional[Observability] = None,
        metrics: bool = True,
        slow_click_ms: Optional[float] = None,
    ) -> None:
        if (manager is None) == (registry is None):
            raise ValueError("pass exactly one of manager= or registry=")
        if registry is not None and idle_ttl_s is not None:
            raise ValueError(
                "with a registry, configure idle TTLs on the registry "
                "(global idle_ttl_s / per-space manifest entries)"
            )
        if idle_ttl_s is not None and idle_ttl_s <= 0:
            raise ValueError("idle_ttl_s must be > 0")
        if (
            manager is not None
            and idle_ttl_s is not None
            and manager.state_dir is None
        ):
            raise ValueError(
                "idle eviction needs a durable manager (state_dir): evicting "
                "without persistence would silently destroy live sessions"
            )
        self.manager = manager
        self.registry = registry
        #: Observability bundle: metrics registry + event bus + traces.
        #: ``metrics=False`` is the kill switch — ``self.obs`` stays
        #: ``None``, ``/metrics`` and the activity feed 404, and no
        #: interaction publishes anything.  Pass ``obs=`` to share a
        #: bundle the caller owns (replication workers do); otherwise
        #: the service constructs and owns one.
        self._owns_obs = False
        if not metrics:
            obs = None
        elif obs is None:
            obs = Observability(slow_click_ms=slow_click_ms)
            self._owns_obs = True
        self.obs = obs
        if obs is not None:
            if manager is not None:
                manager.attach_obs(obs)
            else:
                registry.attach_obs(obs)
        #: Replication hook: a worker process mounts its parent-facing
        #: command surface here (``POST /internal/<verb>`` → ``control
        #: .handle(verb, body)``).  ``None`` — every deployment except a
        #: replication worker — keeps the namespace a plain 404, so the
        #: verbs are unreachable on public-facing services.
        self.control = control
        self.idle_ttl_s = idle_ttl_s
        # Registry mode always runs the sweeper: TTLs (and whole spaces)
        # may be registered after the service started, so the decision
        # cannot be frozen at construction time — the loop re-reads the
        # registry's TTLs every tick and idles cheaply when none exist.
        self._sweep_wanted = registry is not None or idle_ttl_s is not None
        self.sweep_interval_s = sweep_interval_s
        self._httpd = _Server((host, port), partial(_Handler, self))
        self.host, self.port = self._httpd.server_address[:2]
        self._serve_thread: Optional[threading.Thread] = None
        self._sweep_thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._stats_lock = threading.Lock()
        self._requests = 0
        self._errors = 0
        self._sweep_failures = 0
        self._started_at = time.monotonic()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "ExplorationService":
        if self._stopping.is_set():
            # stop() closed the listening socket for good; a thread
            # spawned now would die instantly and every client connect
            # would be refused with nothing surfaced to the caller.
            raise RuntimeError("service was stopped; construct a new one")
        if self._serve_thread is not None:
            raise RuntimeError("service already started")
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"repro-service:{self.port}",
            daemon=True,
        )
        self._serve_thread.start()
        if self._sweep_wanted:
            self._sweep_thread = threading.Thread(
                target=self._sweep_loop,
                name=f"repro-service-sweeper:{self.port}",
                daemon=True,
            )
            self._sweep_thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, drop live connections, join the threads.

        Deliberately does *not* close live sessions: a durable manager
        has already checkpointed every interaction, so stopping here is
        exactly the crash the resume path recovers from; callers wanting
        a graceful drain close sessions through the protocol first.
        """
        self._stopping.set()
        self._httpd.shutdown()
        self._httpd.close_connections()
        self._httpd.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
            self._serve_thread = None
        if self._sweep_thread is not None:
            self._sweep_thread.join(timeout=5.0)
            self._sweep_thread = None
        if self._owns_obs and self.obs is not None:
            self.obs.close()

    def __enter__(self) -> "ExplorationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _sweep_interval(self) -> float:
        """Seconds until the next sweep, re-derived from the live TTLs.

        A quarter of the shortest configured TTL keeps eviction timely;
        a registry with no TTLs (yet) is polled lazily once a second so
        a TTL registered later starts being honoured without a restart.
        """
        if self.sweep_interval_s is not None:
            return self.sweep_interval_s
        ttl = (
            self.registry.min_ttl_s()
            if self.registry is not None
            else self.idle_ttl_s
        )
        return max(ttl / 4.0, 0.05) if ttl is not None else 1.0

    def _sweep_loop(self) -> None:
        while not self._stopping.wait(self._sweep_interval()):
            try:
                if self.registry is not None:
                    self.registry.sweep_idle()
                else:
                    self.manager.evict_idle(self.idle_ttl_s)
            except Exception:  # noqa: BLE001 — one bad sweep (full disk,
                # a racing open) must not silently end eviction for the
                # rest of the service's life; failures are surfaced on
                # /healthz instead.
                self._count_sweep_failure()

    # -- routing ---------------------------------------------------------

    def manager_for(
        self, space: Optional[str]
    ) -> tuple[SessionManager, Optional[str]]:
        """The manager an ``open`` targets, plus the resolved space name.

        Registry mode routes by name (default: the manifest's first
        space) and may raise the building / not-found space errors; a
        single-space service refuses the ``space`` field outright — a
        client that believes it is talking to a multi-space deployment
        must hear so, not silently land on whatever space this is.
        """
        if self.registry is None:
            if space is not None:
                raise _BadRequest(
                    "this server hosts a single space; drop the space field"
                )
            return self.manager, None
        name = space if space is not None else self.registry.default_space
        return self.registry.manager(name), name

    def resolve(self, session_id: str) -> SessionManager:
        """The manager serving ``session_id`` (routed in registry mode)."""
        if self.registry is None:
            return self.manager
        return self.registry.route(session_id)

    def session_ids(self) -> list[str]:
        if self.registry is None:
            return self.manager.session_ids()
        return self.registry.session_ids()

    def mutate(self, space: str, delta, verify: bool = False) -> dict:
        """Apply a group delta to ``space`` as a new store epoch.

        Registry mode routes by name; a single-space service refuses the
        spaces namespace outright (same contract as ``GET /spaces`` — the
        path names a space this server cannot resolve).
        """
        if self.registry is None:
            raise SpaceNotFoundError(space)
        return self.registry.mutate(space, delta, verify=verify)

    # -- counters --------------------------------------------------------

    def count_request(self) -> None:
        with self._stats_lock:
            self._requests += 1

    def count_error(self) -> None:
        with self._stats_lock:
            self._errors += 1

    def _count_sweep_failure(self) -> None:
        """One source of truth: the registry counter when obs is on."""
        if self.obs is not None:
            self.obs.sweep_failures.inc()
        else:
            with self._stats_lock:
                self._sweep_failures += 1

    def sweep_failures(self) -> int:
        if self.obs is not None:
            return int(self.obs.sweep_failures.labels().get())
        with self._stats_lock:
            return self._sweep_failures

    # -- observability ----------------------------------------------------

    def metrics_text(self) -> Optional[str]:
        """The Prometheus exposition (``None`` when metrics are off)."""
        if self.obs is None:
            return None
        return self.obs.render_metrics()

    def health(self) -> dict:
        """The ``/healthz`` payload: service, runtime and cache stats.

        Single-space mode keeps the PR 4 shape (``manager``); registry
        mode reports the registry's aggregate counters plus a per-space
        section (state, live sessions, runtime + shared-cache stats) so
        one probe sees every hosted space.
        """
        with self._stats_lock:
            requests, errors = self._requests, self._errors
        sweep_failures = self.sweep_failures()
        degraded = (
            self.registry.any_degraded()
            if self.registry is not None
            else self.manager.degraded
        )
        payload = {
            "status": "degraded" if degraded else "ok",
            "degraded": degraded,
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "requests": requests,
            "errors": errors,
            "idle_ttl_s": self.idle_ttl_s,
            "sweep_failures": sweep_failures,
        }
        if self.registry is not None:
            payload["registry"] = self.registry.stats()
            payload["spaces"] = self.registry.describe()
        else:
            payload["manager"] = self.manager.stats()
        return payload

    def __repr__(self) -> str:
        if self.registry is not None:
            return f"ExplorationService({self.url}, {self.registry!r})"
        return f"ExplorationService({self.url}, {len(self.manager)} live sessions)"
