"""Command-line interface: the VEXUS demo, headless.

Six subcommands mirror the life cycle of the paper's system::

    python -m repro generate bookcrossing --out data/      synthesize CSVs
    python -m repro discover --actions ... --store st/     offline phase
    python -m repro explore --actions ... --store st/      the VEXUS loop
    python -m repro serve --actions ... --store st/        multi-session runtime
    python -m repro scenario pc|discussion                 §III scenarios
    python -m repro experiments --only C8,C12              paper claims

``explore`` is an interactive REPL over :class:`ExplorationSession`; pass
``--script "click 1; memo; quit"`` to drive it non-interactively (that is
also how the test suite exercises it).  Both ``explore`` and ``serve``
load the offline artifacts into one
:class:`~repro.core.runtime.GroupSpaceRuntime`; ``serve`` then replays N
concurrent scripted sessions through a
:class:`~repro.core.runtime.SessionManager` and reports per-session click
latency plus the cross-session cache's warm-hit counters — the headless
stand-in for many analysts hitting one VEXUS deployment.

``serve --http`` turns the replay into an actual network service: a
JSON-over-HTTP front (:mod:`repro.service`) over the same manager, with
durable sessions when ``--state-dir`` is given (every interaction is
journaled; ``open`` with a resume token restores a session across
server restarts) and an idle sweeper (``--idle-ttl``) that persists and
evicts abandoned sessions::

    python -m repro serve --actions ... --store st/ --http --port 8765 \
        --state-dir st/sessions --idle-ttl 900

Drive it with :class:`repro.service.ExplorationClient` — see
``examples/remote_exploration.py`` for a complete client walk-through.

``serve --http --spaces manifest.json`` hosts *many* group spaces from
one process (:mod:`repro.spaces`): opens route by space name, cold
spaces build lazily in the background (clients see ``202 building``
until ready), ``--max-ready`` bounds resident runtimes with durable LRU
eviction, and idle TTLs apply per space — see
``examples/multi_space.py``::

    python -m repro serve --http --spaces manifest.json \
        --state-dir st/sessions --max-ready 4 --idle-ttl 900
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from repro.core.discovery import DiscoveryConfig, discover_groups
from repro.core.runtime import (
    GroupSpaceRuntime,
    SessionManager,
    scripted_click_gid,
)
from repro.core.session import ExplorationSession, SessionConfig
from repro.core.store import save_group_space, save_index
from repro.data.etl import load_dataset
from repro.data.generators.bookcrossing import BookCrossingConfig, generate_bookcrossing
from repro.data.generators.dbauthors import DBAuthorsConfig, generate_dbauthors
from repro.index.inverted import SimilarityIndex
from repro.viz.render import render_histogram
from repro.viz.stats import StatsView


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help()
        return 2
    return args.handler(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="VEXUS reproduction (ICDE 2018)"
    )
    commands = parser.add_subparsers(title="commands")

    generate = commands.add_parser("generate", help="synthesize a dataset to CSV")
    generate.add_argument("dataset", choices=["bookcrossing", "dbauthors"])
    generate.add_argument("--out", required=True, help="output directory")
    generate.add_argument("--users", type=int, default=1500)
    generate.add_argument("--items", type=int, default=800)
    generate.add_argument("--ratings", type=int, default=12000)
    generate.add_argument("--seed", type=int, default=7)
    generate.set_defaults(handler=cmd_generate)

    discover = commands.add_parser("discover", help="offline group discovery + index")
    _add_data_arguments(discover)
    discover.add_argument(
        "--method", default="lcm",
        choices=["lcm", "apriori", "momri", "stream", "birch"],
    )
    discover.add_argument("--min-support", type=float, default=0.03)
    discover.add_argument("--max-description", type=int, default=3)
    discover.add_argument("--min-item-support", type=int, default=10)
    discover.add_argument("--store", required=True, help="artifact directory")
    discover.add_argument(
        "--materialize", type=float, default=0.10,
        help="inverted-index materialization fraction (paper: 0.10)",
    )
    discover.set_defaults(handler=cmd_discover)

    explore = commands.add_parser("explore", help="interactive exploration loop")
    _add_data_arguments(explore)
    explore.add_argument("--store", required=True, help="artifacts from `discover`")
    explore.add_argument("--k", type=int, default=5)
    explore.add_argument("--budget-ms", type=float, default=100.0)
    explore.add_argument(
        "--governor", action="store_true",
        help="escalate within the click budget when the greedy converges early",
    )
    explore.add_argument(
        "--no-cache", action="store_true",
        help="disable the session pool cache (cold statistics every click)",
    )
    explore.add_argument(
        "--script", default=None,
        help="semicolon-separated commands to run instead of stdin",
    )
    explore.set_defaults(handler=cmd_explore)

    serve = commands.add_parser(
        "serve",
        help="replay N concurrent sessions against one runtime, or "
        "(--http) expose it as a JSON-over-HTTP service (one store, or "
        "many group spaces via --spaces manifest.json)",
    )
    _add_data_arguments(serve, required=False)
    serve.add_argument(
        "--store", default=None,
        help="artifacts from `discover` (single-space mode)",
    )
    serve.add_argument(
        "--spaces", default=None, metavar="MANIFEST",
        help="multi-space hosting (needs --http): serve every space in "
        "this JSON manifest from one process — lazy background builds, "
        "routing, per-space idle TTLs (see repro.spaces.load_manifest)",
    )
    serve.add_argument(
        "--max-ready", type=int, default=None,
        help="space budget (needs --spaces): at most this many built "
        "runtimes stay resident; past it the least-recently-routed "
        "space is evicted — with --state-dir its live sessions are "
        "checkpointed first, without it only session-less spaces are "
        "evicted (the budget is best-effort)",
    )
    serve.add_argument("--sessions", type=int, default=4)
    serve.add_argument("--clicks", type=int, default=5)
    serve.add_argument(
        "--threads", type=int, default=4,
        help="worker threads driving the sessions concurrently",
    )
    serve.add_argument("--k", type=int, default=5)
    serve.add_argument("--budget-ms", type=float, default=100.0)
    serve.add_argument(
        "--no-shared-cache", action="store_true",
        help="per-session caches only (the pre-runtime baseline)",
    )
    serve.add_argument(
        "--mutate-every", type=int, default=None, metavar="N",
        help="replay mode: after every N clicks (counted across all "
        "workers) apply a small membership churn to the live store as a "
        "new epoch — demonstrates that online mutation never stalls "
        "concurrent clicks (sessions keep serving their pinned epoch)",
    )
    serve.add_argument(
        "--http", action="store_true",
        help="serve the exploration protocol over HTTP instead of replaying",
    )
    serve.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="replicated serving (needs --http, plus --store or "
        "--spaces): spawn N worker processes that map each space's "
        "artifacts zero-copy from shared memory, behind a sticky "
        "session router — one GIL per worker instead of one for the "
        "whole service; with --spaces every worker hosts the full "
        "registry and ids compose as w<i>-<space>-s0001",
    )
    serve.add_argument(
        "--arena-cache", default=None, metavar="DIR",
        help="arena snapshot cache (needs --workers + --spaces): "
        "serialize each space's published arena payload to DIR and "
        "mmap-load it on the next boot, skipping discovery + index "
        "construction for unchanged manifests",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="listen port (0 = ephemeral; the bound port is printed)",
    )
    serve.add_argument(
        "--max-sessions", type=int, default=None,
        help="admission control: refuse opens past this many live sessions",
    )
    serve.add_argument(
        "--state-dir", default=None,
        help="durable sessions: append every interaction to a "
        "digest-chained per-session journal here (one fsync per click, "
        "compacted to a snapshot every --compact-every records) and "
        "accept resume tokens across restarts",
    )
    serve.add_argument(
        "--idle-ttl", type=float, default=None,
        help="seconds of inactivity before a session is persisted and "
        "evicted (needs --state-dir)",
    )
    serve.add_argument(
        "--metrics", choices=("on", "off"), default="on",
        help="observability (needs --http): 'on' serves the Prometheus "
        "exposition at GET /metrics and the per-space activity feed at "
        "GET /spaces/<name>/activity (with --workers the router merges "
        "every worker's series under worker labels); 'off' disables all "
        "instrumentation — both endpoints 404 and interactions publish "
        "nothing",
    )
    serve.add_argument(
        "--slow-click-ms", type=float, default=None, metavar="MS",
        help="slow-request threshold (needs --http --metrics on): any "
        "request slower than MS is logged with its per-stage span "
        "timings (route, pool_build, selection, cache_lookup, "
        "journal_fsync, arena_attach) under its X-Repro-Trace id",
    )
    serve.add_argument(
        "--compact-every", type=int, default=64,
        help="journal records between compactions (needs --state-dir)",
    )
    serve.set_defaults(handler=cmd_serve)

    scenario = commands.add_parser("scenario", help="run a §III scenario")
    scenario.add_argument("name", choices=["pc", "discussion"])
    scenario.add_argument("--repeats", type=int, default=3)
    scenario.set_defaults(handler=cmd_scenario)

    experiments = commands.add_parser("experiments", help="regenerate paper claims")
    experiments.add_argument(
        "--only", default=None,
        help="comma-separated experiment ids (e.g. C8,C12); default: fast set",
    )
    experiments.set_defaults(handler=cmd_experiments)
    return parser


def _add_data_arguments(
    command: argparse.ArgumentParser, required: bool = True
) -> None:
    command.add_argument("--actions", required=required, help="actions CSV path")
    command.add_argument("--demographics", default=None, help="demographics CSV path")
    command.add_argument("--name", default="dataset", help="dataset name")


def _load(args: argparse.Namespace):
    result = load_dataset(args.actions, args.demographics, name=args.name)
    return result.dataset


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_generate(args: argparse.Namespace) -> int:
    if args.dataset == "bookcrossing":
        data = generate_bookcrossing(
            BookCrossingConfig(
                n_users=args.users, n_items=args.items,
                n_ratings=args.ratings, seed=args.seed,
            )
        )
        dataset = data.dataset
    else:
        data = generate_dbauthors(
            DBAuthorsConfig(n_authors=args.users, seed=args.seed)
        )
        dataset = data.dataset
    dataset.to_csv(args.out)
    print(f"wrote {dataset.n_actions} actions / {dataset.n_users} users to {args.out}")
    return 0


def cmd_discover(args: argparse.Namespace) -> int:
    dataset = _load(args)
    print(f"loaded {dataset}")
    space = discover_groups(
        dataset,
        DiscoveryConfig(
            method=args.method,
            min_support=args.min_support,
            max_description=args.max_description,
            min_item_support=args.min_item_support,
        ),
    )
    print(f"discovered {space}")
    index = SimilarityIndex(space.memberships(), dataset.n_users, args.materialize)
    print(f"built {index}")
    save_group_space(space, args.store)
    save_index(index, args.store)
    print(f"stored artifacts under {args.store}")
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    dataset = _load(args)
    runtime = GroupSpaceRuntime.from_store(dataset, args.store)
    session = runtime.create_session(
        SessionConfig(
            k=args.k,
            time_budget_ms=args.budget_ms,
            governor=args.governor,
            cache_pools=not args.no_cache,
        ),
    )
    repl = ExplorationREPL(session, print)
    repl.show(session.start())
    if args.script is not None:
        for command in args.script.split(";"):
            if not repl.execute(command.strip()):
                break
        return 0
    print("commands: click <n> | back <step> | memo [g <n>|u <name>] | "
          "context | forget <token> | stats <n> [attr] | history | quit")
    for line in sys.stdin:
        if not repl.execute(line.strip()):
            break
    return 0


class ExplorationREPL:
    """Parses the explore subcommand's commands against one session."""

    def __init__(self, session: ExplorationSession, emit: Callable[[str], None]):
        self.session = session
        self.emit = emit

    def show(self, groups) -> None:
        self.emit("GROUPVIZ:")
        for position, group in enumerate(groups, start=1):
            self.emit(
                f"  [{position}] #{group.gid} {group.label} (n={group.size})"
            )

    def execute(self, line: str) -> bool:
        """Run one command; returns False when the session should end."""
        if not line:
            return True
        verb, _, rest = line.partition(" ")
        handler = getattr(self, f"_cmd_{verb}", None)
        if handler is None:
            self.emit(f"unknown command: {verb!r}")
            return True
        return handler(rest.strip())

    def _displayed_by_position(self, text: str):
        try:
            position = int(text)
        except ValueError:
            self.emit(f"expected a display position, got {text!r}")
            return None
        shown = self.session.displayed()
        if not 1 <= position <= len(shown):
            self.emit(f"position {position} not on screen (1..{len(shown)})")
            return None
        return shown[position - 1]

    def _cmd_click(self, rest: str) -> bool:
        group = self._displayed_by_position(rest)
        if group is not None:
            self.show(self.session.click(group.gid))
            quality = self.session.last_selection
            if quality is not None:
                self.emit(
                    f"  (diversity={quality.diversity:.2f} "
                    f"coverage={quality.coverage:.2f} "
                    f"{quality.elapsed_ms:.0f} ms)"
                )
        return True

    def _cmd_back(self, rest: str) -> bool:
        try:
            step_id = int(rest)
        except ValueError:
            self.emit(f"expected a step id, got {rest!r}")
            return True
        try:
            self.show(self.session.backtrack(step_id))
        except KeyError as error:
            self.emit(str(error))
        return True

    def _cmd_memo(self, rest: str) -> bool:
        if not rest:
            memo = self.session.memo
            self.emit(f"MEMO: {len(memo.groups)} groups, {len(memo.users)} users")
            for gid in memo.collected_groups():
                self.emit(f"  group #{gid}: {self.session.space[gid].label}")
            for user in memo.collected_users():
                self.emit(f"  user {self.session.space.dataset.users.label(user)}")
            return True
        kind, _, target = rest.partition(" ")
        if kind == "g":
            group = self._displayed_by_position(target)
            if group is not None:
                self.session.bookmark_group(group.gid)
                self.emit(f"bookmarked group #{group.gid}")
        elif kind == "u":
            users = self.session.space.dataset.users
            if target in users:
                self.session.bookmark_user(users.code(target))
                self.emit(f"bookmarked user {target}")
            else:
                self.emit(f"unknown user {target!r}")
        else:
            self.emit("usage: memo [g <position> | u <user label>]")
        return True

    def _cmd_context(self, rest: str) -> bool:
        entries = self.session.context.entries(10)
        if not entries:
            self.emit("CONTEXT: (no feedback yet)")
        else:
            chips = " ".join(f"[{e.label}:{e.score:.2f}]" for e in entries)
            self.emit(f"CONTEXT: {chips}")
        return True

    def _cmd_forget(self, rest: str) -> bool:
        if self.session.context.forget_token(rest) or (
            self.session.context.forget_user_label(rest)
        ):
            self.emit(f"unlearned {rest!r}")
        else:
            self.emit(f"nothing learned about {rest!r}")
        return True

    def _cmd_stats(self, rest: str) -> bool:
        target, _, attribute = rest.partition(" ")
        group = self._displayed_by_position(target)
        if group is None:
            return True
        stats = StatsView(self.session.space.dataset, group.members)
        attributes = (
            [attribute.strip()]
            if attribute.strip()
            else self.session.space.dataset.attributes[:3]
        )
        for name in attributes:
            self.emit(f"[{name}]")
            self.emit(render_histogram(stats.histogram(name)))
        return True

    def _cmd_history(self, rest: str) -> bool:
        chain = " -> ".join(
            "start" if step.clicked_gid is None else f"#{step.clicked_gid}"
            for step in self.session.history.path()
        )
        self.emit(f"HISTORY: {chain}")
        return True

    def _cmd_quit(self, rest: str) -> bool:
        self.emit("bye")
        return False


def cmd_serve(args: argparse.Namespace) -> int:
    """Headless multi-session serving demo over stored artifacts.

    Opens ``--sessions`` scripted sessions against one runtime and drives
    them from ``--threads`` workers; each session deterministically walks
    its display (always the first not-yet-clicked group).  Reports
    per-session click latency and the cross-session cache counters, so
    the cold-start amortization and warm-hit behaviour are visible from
    the command line without any benchmark harness.

    With ``--http`` the same runtime + manager are instead exposed as a
    network service (see :mod:`repro.service`) until interrupted; with
    ``--http --spaces manifest.json`` the service hosts *every* space in
    the manifest from this one process (:mod:`repro.spaces`): opens route
    by space name, cold spaces build in the background (202 until
    ready), ``--max-ready`` bounds resident runtimes with durable LRU
    eviction, and idle TTLs apply per space.
    """
    from concurrent.futures import ThreadPoolExecutor

    if args.sessions < 1 or args.clicks < 1 or args.threads < 1:
        print("sessions, clicks and threads must all be >= 1", file=sys.stderr)
        return 2
    if args.idle_ttl is not None and args.state_dir is None:
        print("--idle-ttl needs --state-dir", file=sys.stderr)
        return 2
    if args.compact_every < 1:
        print("--compact-every must be >= 1", file=sys.stderr)
        return 2
    if args.mutate_every is not None:
        if args.mutate_every < 1:
            print("--mutate-every must be >= 1", file=sys.stderr)
            return 2
        if args.http:
            print("--mutate-every drives the replay benchmark; over HTTP "
                  "use POST /spaces/<name>/mutate instead", file=sys.stderr)
            return 2
    if args.spaces is not None:
        if not args.http:
            print("--spaces needs --http (the replay mode is single-space)",
                  file=sys.stderr)
            return 2
        if args.store is not None or args.actions is not None:
            print("--spaces and --store/--actions are mutually exclusive; "
                  "the manifest names every space's data", file=sys.stderr)
            return 2
    elif args.store is None or args.actions is None:
        print("serve needs --store and --actions (or --http --spaces)",
              file=sys.stderr)
        return 2
    if args.workers is not None:
        if args.workers < 1:
            print("--workers must be >= 1", file=sys.stderr)
            return 2
        if not args.http:
            print("--workers needs --http", file=sys.stderr)
            return 2
        if args.max_ready is not None:
            print("--max-ready does not compose with --workers (the "
                  "replicated registry keeps every built space "
                  "resident)", file=sys.stderr)
            return 2
        return _serve_pool_spaces(args)
    if args.arena_cache is not None:
        print("--arena-cache needs --workers (the cache snapshots "
              "published arena segments)", file=sys.stderr)
        return 2
    if args.spaces is not None:
        return _serve_spaces(args)
    if args.max_ready is not None:
        print("--max-ready needs --spaces", file=sys.stderr)
        return 2
    dataset = _load(args)
    started = time.perf_counter()
    runtime = GroupSpaceRuntime.from_store(
        dataset, args.store, share_cache=not args.no_shared_cache
    )
    build_ms = (time.perf_counter() - started) * 1000.0
    manager = SessionManager(
        runtime,
        default_config=SessionConfig(
            k=args.k, time_budget_ms=args.budget_ms, use_profile=False
        ),
        max_sessions=args.max_sessions,
        state_dir=args.state_dir,
        compact_every=args.compact_every,
    )
    if args.http:
        return _serve_http(args, manager, build_ms)
    print(
        f"runtime ready in {build_ms:.0f} ms: {len(runtime.space)} groups, "
        f"{'shared' if runtime.shared is not None else 'per-session'} cache"
    )

    import threading

    from repro.core.group import GroupDelta

    mutate_lock = threading.Lock()
    clicks_seen = 0
    mutation_reports: list[dict] = []

    def maybe_mutate() -> None:
        """Churn one group every N clicks — a new epoch mid-benchmark.

        The worker that crosses the boundary applies the delta itself, so
        mutation genuinely interleaves with the other workers' clicks;
        their sessions keep serving their pinned epoch untouched.
        """
        nonlocal clicks_seen
        if args.mutate_every is None:
            return
        with mutate_lock:
            clicks_seen += 1
            if clicks_seen % args.mutate_every:
                return
            step = clicks_seen // args.mutate_every
        space = runtime.space
        gid = (step * 7919) % len(space)
        members = space[gid].members
        if len(members) > 1:
            churned = members[:-1]
        else:
            churned = np.union1d(
                members, [step % space.dataset.n_users]
            )
        report = manager.apply_deltas(
            GroupDelta.build(changed=[(gid, churned)])
        )
        with mutate_lock:
            mutation_reports.append(report)

    def drive(_worker: int) -> tuple[str, list[float]]:
        session_id, shown = manager.open_session()
        latencies: list[float] = []
        visited: set[int] = set()
        for _ in range(args.clicks):
            gid = scripted_click_gid(shown, visited)
            clicked = time.perf_counter()
            shown = manager.click(session_id, gid)
            latencies.append((time.perf_counter() - clicked) * 1000.0)
            maybe_mutate()
        return session_id, latencies

    with ThreadPoolExecutor(max_workers=args.threads) as executor:
        outcomes = list(executor.map(drive, range(args.sessions)))
    for session_id, latencies in outcomes:
        summary = manager.close(session_id)
        cache = summary["cache"] or {}
        print(
            f"  {session_id}: {len(latencies)} clicks, "
            f"p50 {statistics.median(latencies):.1f} ms, "
            f"max {max(latencies):.1f} ms, "
            f"{cache.get('shared_structure_hits', 0)} cross-session "
            f"structure / {cache.get('shared_result_hits', 0)} result hits"
        )
    every_click = [value for _, latencies in outcomes for value in latencies]
    print(
        f"all sessions: p50 {statistics.median(every_click):.1f} ms over "
        f"{len(every_click)} clicks"
    )
    if runtime.shared is not None:
        shared = runtime.shared.stats()
        print(
            f"shared cache: {shared['structures']} structures "
            f"({shared['structure_hits']} hits), "
            f"{shared['result_entries']} results "
            f"({shared['result_hits']} hits)"
        )
    if mutation_reports:
        apply_times = [report["apply_ms"] for report in mutation_reports]
        print(
            f"mutations: {len(mutation_reports)} epochs applied "
            f"mid-benchmark (now at epoch "
            f"{mutation_reports[-1]['epoch']}), "
            f"apply p50 {statistics.median(apply_times):.1f} ms — "
            f"zero clicks stalled (sessions serve their pinned epoch)"
        )
    return 0


def _install_drain_handlers() -> "object":
    """Arm SIGTERM/SIGINT to request a graceful drain.

    Returns the event the serving loop waits on.  Both signals set it
    instead of killing the process, so every serve mode walks the same
    shutdown path: stop accepting, checkpoint live sessions, exit 0 —
    a recycled worker (systemd restart, rolling deploy) never loses a
    walk.
    """
    import signal
    import threading

    stop = threading.Event()

    def _on_signal(signum: int, frame: object) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    return stop


def _serve_pool_spaces(args: argparse.Namespace) -> int:
    """Replicated serving: a space registry behind N workers.

    The parent registry materializes each space (clients see the
    familiar 202 + Retry-After while a manifest space builds lazily),
    publishes each build as a shared-memory arena, and every worker
    process serves *all* spaces from those arenas under composed
    ``w<i>-<space>-s0001`` session ids.  ``--store`` serves one space
    named ``--name`` and loads it before announcing the port, so its
    first open never waits on a build.  ``--arena-cache`` additionally
    snapshots each published payload to disk so the next boot of the
    same spaces mmap-loads instead of re-running discovery.
    """
    from repro.replication import serve_replicated_spaces
    from repro.spaces import SpaceDescriptor, load_manifest

    if args.spaces is not None:
        descriptors = load_manifest(args.spaces)
        tag = Path(args.spaces).stem
    else:
        try:
            descriptors = [
                SpaceDescriptor(
                    name=args.name,
                    dataset=args.name,
                    store=args.store,
                    actions=args.actions,
                    demographics=args.demographics,
                )
            ]
        except ValueError as error:
            print(f"--name names the served space: {error}", file=sys.stderr)
            return 2
        tag = args.name
    started = time.perf_counter()
    service = serve_replicated_spaces(
        descriptors,
        workers=args.workers,
        host=args.host,
        port=args.port,
        tag=tag,
        state_dir=args.state_dir,
        compact_every=args.compact_every,
        default_config=SessionConfig(
            k=args.k, time_budget_ms=args.budget_ms, use_profile=False
        ),
        max_sessions=args.max_sessions,
        idle_ttl_s=args.idle_ttl,
        arena_cache=args.arena_cache,
        metrics=args.metrics == "on",
        slow_click_ms=args.slow_click_ms,
    )
    pool = service.pool
    try:
        if args.spaces is None:
            runtime = pool.registry.runtime(args.name, wait=True)
            built = (
                f"{len(runtime.space)} groups loaded in "
                f"{(time.perf_counter() - started) * 1000.0:.0f} ms"
            )
        else:
            built = "spaces build lazily on first open"
    except BaseException:
        service.stop()
        raise
    durable = (
        f"durable (journal, state in {pool.state_dir})"
        if pool.state_dir is not None
        else "in-memory sessions"
    )
    cache = (
        f", arena cache in {pool.arena_cache}"
        if pool.arena_cache is not None
        else ""
    )
    print(f"serving on {service.url}", flush=True)
    print(
        f"hosting {len(pool.registry.names())} spaces "
        f"({', '.join(pool.registry.names())}; default "
        f"{pool.registry.default_space}) on {args.workers} workers, "
        f"{durable}{cache}; {built}, published to shared memory",
        flush=True,
    )
    stop = _install_drain_handlers()
    try:
        stop.wait()
    except KeyboardInterrupt:
        pass
    finally:
        # pool.stop() drains each worker over /internal/drain — every
        # worker checkpoints its live sessions before exiting.
        service.stop()
    print("service stopped")
    return 0


def _serve_spaces(args: argparse.Namespace) -> int:
    """Multi-space hosting: every manifest space from one process."""
    from repro.service.server import ExplorationService
    from repro.spaces import SpaceRegistry, load_manifest

    descriptors = load_manifest(args.spaces)
    registry = SpaceRegistry(
        descriptors,
        max_ready=args.max_ready,
        state_dir=args.state_dir,
        default_config=SessionConfig(
            k=args.k, time_budget_ms=args.budget_ms, use_profile=False
        ),
        max_sessions=args.max_sessions,
        idle_ttl_s=args.idle_ttl,
        compact_every=args.compact_every,
    )
    service = ExplorationService(
        registry=registry,
        host=args.host,
        port=args.port,
        metrics=args.metrics == "on",
        slow_click_ms=args.slow_click_ms,
    ).start()
    durable = (
        f"durable (journal, state in {registry.state_dir})"
        if registry.state_dir is not None
        else "in-memory sessions"
    )
    print(f"serving on {service.url}", flush=True)
    print(
        f"hosting {len(registry)} spaces "
        f"({', '.join(registry.names())}; default {registry.default_space}), "
        f"{durable}; spaces build lazily on first open",
        flush=True,
    )
    stop = _install_drain_handlers()
    try:
        stop.wait()
    except KeyboardInterrupt:
        pass
    finally:
        service.stop()
        drained = registry.drain()
        if drained:
            print(
                f"drained {sum(drained.values())} live sessions across "
                f"{len(drained)} spaces",
                flush=True,
            )
        registry.shutdown(wait=False)
    print("service stopped")
    return 0


def _serve_http(
    args: argparse.Namespace, manager: SessionManager, build_ms: float
) -> int:
    """Run the HTTP front until interrupted (SIGINT exits cleanly)."""
    from repro.service.server import ExplorationService

    service = ExplorationService(
        manager,
        host=args.host,
        port=args.port,
        idle_ttl_s=args.idle_ttl,
        metrics=args.metrics == "on",
        slow_click_ms=args.slow_click_ms,
    ).start()
    durable = (
        f"durable (journal, state in {manager.state_dir})"
        if manager.state_dir is not None
        else "in-memory sessions"
    )
    # One parseable line per fact: scripts (and the crash-recovery suite)
    # read the bound port from the first line.
    print(f"serving on {service.url}", flush=True)
    print(
        f"runtime ready in {build_ms:.0f} ms: "
        f"{len(manager.runtime.space)} groups, {durable}",
        flush=True,
    )
    stop = _install_drain_handlers()
    try:
        stop.wait()
    except KeyboardInterrupt:
        pass
    finally:
        service.stop()
        if manager.state_dir is not None:
            drained = manager.evict_idle(0.0)
            print(
                f"drained {len(drained)} live sessions to "
                f"{manager.state_dir}",
                flush=True,
            )
    print("service stopped")
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    if args.name == "pc":
        from repro.experiments.pc_formation import run_pc_formation

        print(run_pc_formation(repeats=args.repeats).formatted())
    else:
        from repro.experiments.satisfaction import run_satisfaction

        print(run_satisfaction(repeats=args.repeats).formatted())
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    from repro import experiments as exp

    drivers = {
        "F1": exp.run_pipeline,
        "C6": exp.run_group_space,
        "C8": exp.run_stats_drilldown,
        "C10": exp.run_etl_scale,
        "C11": exp.run_projection_quality,
        "C12": exp.run_simpson_guard,
        "C13": exp.run_miner_comparison,
        "C2": exp.run_greedy_quality,
        "C3": exp.run_index_materialization,
        "C9": exp.run_crossfilter_perf,
    }
    fast_default = ["C8", "C12", "C10"]
    wanted = (
        [name.strip().upper() for name in args.only.split(",")]
        if args.only
        else fast_default
    )
    unknown = [name for name in wanted if name not in drivers]
    if unknown:
        print(f"unknown experiments: {unknown}; available: {sorted(drivers)}")
        return 2
    for name in wanted:
        print(drivers[name]().formatted())
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
