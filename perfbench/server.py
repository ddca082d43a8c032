"""Server process of the exploration-service benchmark.

Builds one workload's serving topology from the public entry points
(``ExplorationService`` over a ``SpaceRegistry``),
prints ``ready <port>`` on stdout and then obeys line commands on stdin:

    trace on        install the span tracer (wraps the layer entry points)
    trace off       restore the original functions
    dump <path>     write the recorded spans to <path> as JSON
    rss             answer ``ok <kB>``: this process's peak RSS (VmHWM)
    stop            (or end of input) stop serving and exit

Each command is answered with ``ok``.  Run from the repository root::

    python3 perfbench/server.py --workload herd-backtrack --state-dir .perfbench/s
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, "src")

from workloads import SESSION_CONFIG, WORKLOADS  # noqa: E402

from repro.core import journal as journal_module  # noqa: E402
from repro.core import poolcache, runtime, session  # noqa: E402
from repro.core.session import SessionConfig  # noqa: E402
from repro.experiments.common import bookcrossing_space, dbauthors_space  # noqa: E402
from repro.index import inverted  # noqa: E402
from repro.obs import Observability  # noqa: E402
from repro.service.server import ExplorationService  # noqa: E402
from repro.spaces import SpaceDescriptor, SpaceRegistry  # noqa: E402

SPACE_BUILDERS = {"dbauthors": dbauthors_space, "books": bookcrossing_space}


class Tracer:
    """In-memory spans around the layer entry points of one process.

    A span is ``[name, start, end, parent, request_id, detail]``; ``parent``
    is the index of the enclosing span in the same thread's list, and
    ``request_id`` is the ``X-Repro-Trace`` id of the HTTP request the
    span ran under.  Spans stay in memory until :meth:`dump`.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: list[list] = []
        self._threads_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans = []
            local.stack = []
            local.request = None
            with self._threads_lock:
                self._threads.append(local.spans)
        return local

    def begin(self, name: str, request_id=None) -> tuple:
        local = self._state()
        if request_id is not None:
            local.request = request_id
        parent = local.stack[-1] if local.stack else None
        record = [name, time.perf_counter(), 0.0, parent, local.request, None]
        local.stack.append(len(local.spans))
        local.spans.append(record)
        return local, record

    @staticmethod
    def end(handle: tuple, detail=None) -> None:
        local, record = handle
        record[2] = time.perf_counter()
        record[5] = detail
        local.stack.pop()

    def wrap(self, owner, attribute: str, name: str, detail=None) -> None:
        """Replace ``owner.attribute`` by a span-recording wrapper.

        ``detail`` maps the call's result to a JSON value kept on the span
        (the selection engine's evaluation count, a cache lookup state).
        """
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            handle = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.end(handle, "error")
                raise
            tracer.end(handle, detail(result) if detail is not None else None)
            return result

        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original))

    def wrap_request(self) -> None:
        """Root span of every HTTP request, keyed by its trace header."""
        original = Observability.request
        tracer = self

        class RootSpan:
            def __init__(self, inner, trace_id) -> None:
                self.inner = inner
                self.trace_id = trace_id

            def __enter__(self):
                self.handle = tracer.begin("service.request", self.trace_id)
                return self.inner.__enter__()

            def __exit__(self, *exc_info):
                try:
                    return self.inner.__exit__(*exc_info)
                finally:
                    tracer.end(self.handle)

        @functools.wraps(original)
        def request(obs, path, trace_id):
            return RootSpan(original(obs, path, trace_id), trace_id)

        Observability.request = request
        self._patches.append((Observability, "request", original))

    def install(self) -> None:
        if self._patches:
            return
        self.wrap_request()
        registry = SpaceRegistry
        self.wrap(registry, "route", "spaces.route")
        self.wrap(registry, "manager", "spaces.manager")
        self.wrap(registry, "mutate", "spaces.mutate")
        manager = runtime.SessionManager
        self.wrap(manager, "open_session", "runtime.open")
        self.wrap(manager, "click", "runtime.click")
        self.wrap(manager, "backtrack", "runtime.backtrack")
        self.wrap(manager, "apply_deltas", "runtime.apply_deltas")
        self.wrap(runtime.GroupSpaceRuntime, "apply_deltas", "mutation.apply")
        self.wrap(session.ExplorationSession, "start", "session.start")
        self.wrap(session.ExplorationSession, "click", "session.click")

        def evaluations(result):
            return result.evaluations

        # The session imported select_k by name; patch the name it calls.
        self.wrap(session, "select_k", "selection.select_k", evaluations)
        self.wrap(
            poolcache.PoolStatsCache,
            "structure_for",
            "poolcache.structure_for",
            lambda result: result[1],
        )
        self.wrap(inverted.SimilarityIndex, "neighbors", "index.neighbors")
        self.wrap(inverted.SimilarityIndex, "apply_delta", "index.apply_delta")
        self.wrap(journal_module.SessionJournal, "append", "journal.append")
        self.wrap(journal_module.SessionJournal, "compact", "journal.compact")

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def dump(self, path: str) -> None:
        with self._threads_lock:
            threads = [list(spans) for spans in self._threads]
        Path(path).write_text(json.dumps(threads), encoding="utf-8")


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def build_service(workload: str, state_dir: Path) -> ExplorationService:
    """The workload's serving topology, warmed until it can answer opens."""
    spec = WORKLOADS[workload]
    durable = spec["durability"] == "journal"

    def builder(name: str):
        return lambda: runtime.GroupSpaceRuntime(SPACE_BUILDERS[name]())

    registry = SpaceRegistry(
        [SpaceDescriptor(name=name, builder=builder(name)) for name in spec["spaces"]],
        state_dir=state_dir if durable else None,
        default_config=SessionConfig(**SESSION_CONFIG),
        durability=spec["durability"],
        build_workers=1,
    )
    for name in spec["spaces"]:
        registry.manager(name, wait=True)
    return ExplorationService(registry=registry)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--state-dir", required=True)
    args = parser.parse_args()
    state_dir = Path(args.state_dir)
    state_dir.mkdir(parents=True, exist_ok=True)
    service = build_service(args.workload, state_dir).start()
    tracer = Tracer()
    print(f"ready {service.port}", flush=True)
    try:
        for line in sys.stdin:
            command = line.split()
            if command == ["stop"]:
                break
            if command == ["trace", "on"]:
                tracer.install()
            elif command == ["trace", "off"]:
                tracer.uninstall()
            elif command[0] == "dump" and len(command) == 2:
                tracer.dump(command[1])
            elif command == ["rss"]:
                print(f"ok {peak_rss_kb()}", flush=True)
                continue
            else:
                print(f"error unknown command {line.strip()!r}", flush=True)
                continue
            print("ok", flush=True)
    finally:
        tracer.uninstall()
        service.stop()
        service.registry.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
