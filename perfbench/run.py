"""Exploration-service benchmark: analyst load over the HTTP protocol.

Launches the workload's server (``perfbench/server.py``) as a separate
process, drives it from closed-loop analyst threads (and, on
``mutate-under-read``, an open-loop writer) through the typed client
``repro.service.client.ExplorationClient``, checks every output, and
prints one JSON result as its last line.  Run from the repository root::

    python3 perfbench/run.py --workload herd-backtrack --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs an
untraced half and a traced half and reports the per-layer metrics.  A
detailed artifact (host, seed, per-op counts, ledger) is written to
``.perfbench/results/``.  Exit status is 0 only when every output
checked out and no operation failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import queue
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from judge import judge_mutations, judge_sessions  # noqa: E402
from ledger import analyze, p50, percentile  # noqa: E402

#: Server launches per untraced run; ``setup_s`` is their median.
SETUP_LAUNCHES = 3
#: Unmeasured load before the first window, so lazy set-up has finished.
WARMUP_S = 1.0
#: The paper's continuity budget for one click.
BUDGET_MS = 100.0
READY_TIMEOUT_S = 120.0
#: A gid no space has: the planted failed operation clicks it.
PLANTED_BAD_GID = 10**6

#: End to end are only the metrics whose run-to-run spread stayed within
#: their bounds in the noisy periods of a shared 2-vCPU host; the tail,
#: backtrack and throughput figures spread up to 36% there and are
#: reported with the per-layer metrics instead.
END_TO_END_UNITS = {
    "click_p50_ms": "ms",
    "open_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "service.self_ms_p50": "ms",
    "spaces.route_ms_p50": "ms",
    "spaces.mutate_self_ms_p50": "ms",
    "runtime.click_self_ms_p50": "ms",
    "runtime.open_ms_p50": "ms",
    "session.click_self_ms_p50": "ms",
    "selection.select_ms_p50": "ms",
    "selection.busy_share": "share",
    "selection.calls": "count",
    "selection.evaluations": "count",
    "selection.evaluations_per_call": "count",
    "poolcache.structure_for_ms_p50": "ms",
    "poolcache.structure_hit_ratio": "share",
    "poolcache.result_hit_ratio": "share",
    "poolcache.pair_hit_ratio": "share",
    "poolcache.invalidated": "count",
    "index.neighbors_ms_p50": "ms",
    "index.neighbors_calls": "count",
    "index.apply_delta_ms_p50": "ms",
    "journal.append_ms_p50": "ms",
    "journal.appends": "count",
    "journal.compact_ms_p50": "ms",
    "journal.compactions": "count",
    "mutation.apply_ms_p50": "ms",
    "mutation.epochs": "count",
    "ledger.unattributed_share": "share",
    "trace.overhead_ms": "ms",
    "writer.late_ms_p95": "ms",
    "mutate_p50_ms": "ms",
    "click_p90_ms": "ms",
    "click_p95_ms": "ms",
    "backtrack_p50_ms": "ms",
    "clicks_per_s": "1/s",
    "budget_share": "share",
    "failed_share": "share",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (server died, no reply)."""


class OpFailed(Exception):
    """A protocol operation failed; the session it belonged to is abandoned."""


@dataclass
class Op:
    phase: str
    kind: str
    start: float
    end: float
    ok: bool
    request_id: str
    due: float | None = None


@dataclass
class SessionRecord:
    """One session as the client saw it: the oracle replays ``actions``."""

    space: str
    seed_gids: list[int] | None
    opened: list[int] = field(default_factory=list)
    actions: list[tuple] = field(default_factory=list)
    complete: bool = False
    phase: str = ""
    cache: dict = field(default_factory=dict)
    #: When the open was sent and when its reply arrived.
    opened_between: tuple = (0.0, 0.0)

    def key(self) -> tuple:
        return (
            self.space,
            tuple(self.seed_gids or ()),
            tuple((kind, arg) for kind, arg, _ in self.actions),
        )


# -- the server process ----------------------------------------------------


class ServerProcess:
    """``perfbench/server.py`` in a child process, driven over stdin."""

    def __init__(self, workload: str, workdir: Path, tag: str) -> None:
        self.log_path = workdir / f"server-{tag}.log"
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable,
                str(HERE / "server.py"),
                "--workload",
                workload,
                "--state-dir",
                str(workdir / f"state-{tag}"),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        self._lines: "queue.Queue[str | None]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            ready = self._next_line(READY_TIMEOUT_S).split()
            if len(ready) != 2 or ready[0] != "ready":
                raise BenchError(f"unexpected server greeting {ready!r}")
            self.port = int(ready[1])
            self.probe_open()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - self.started

    def probe_open(self) -> None:
        """The first successful open of the fresh server ends its set-up."""
        from repro.service.client import ExplorationClient, ServiceError

        try:
            with ExplorationClient("127.0.0.1", self.port) as client:
                opened = client.open(config=wl.SESSION_CONFIG)
                client.close(opened.session_id)
        except (ServiceError, OSError) as error:
            raise BenchError(f"first open failed: {error}") from error

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line.strip())
        self._lines.put(None)

    def _next_line(self, timeout: float) -> str:
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise BenchError("server did not answer in time") from None
        if line is None:
            self.proc.wait(timeout=30)
            self._log.flush()
            tail = self.log_path.read_text(encoding="utf-8")[-2000:]
            raise BenchError(f"server exited ({self.proc.returncode}):\n{tail}")
        return line

    def command(self, text: str) -> list[str]:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        reply = self._next_line(60.0).split()
        if not reply or reply[0] != "ok":
            raise BenchError(f"server refused {text!r}: {reply!r}")
        return reply[1:]

    def stop(self) -> None:
        try:
            self.proc.stdin.write("stop\n")
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=5)
        self.proc.stdout.close()
        self._log.close()


# -- load ------------------------------------------------------------------


class Load:
    """Analyst threads (closed loop) and the writer (open loop) of one run."""

    def __init__(self, args, port: int, spaces: dict, plant: str) -> None:
        from repro.service.client import ExplorationClient

        self.workload = args.workload
        self.seed = args.seed
        self.spec = wl.WORKLOADS[args.workload]
        self.spaces = spaces
        self.default_space = self.spec["spaces"][0]
        self.paths = wl.herd_paths(args.seed, self.spec["spaces"])
        self.plant = plant
        self.ops: list[Op] = []
        self.sessions: list[SessionRecord] = []
        self.mutations: list[dict] = []
        self.errors: list[str] = []
        self.clients = [
            ExplorationClient("127.0.0.1", port)
            for _ in range(self.spec["analysts"] + 1)
        ]
        self._numbers = [0] * self.spec["analysts"]
        self._requests = Counter()
        self._writer_rng = wl.session_rng(args.seed, "writer", 0, 0)
        self._mirror = spaces[self.default_space]

    def close(self) -> None:
        for client in self.clients:
            client.close_connection()

    def _timed(self, client, worker: str, phase: str, kind: str, call, due=None):
        from repro.service.client import ServiceError

        self._requests[worker] += 1
        request_id = f"{phase}-{worker}-{self._requests[worker]}"
        client.trace_id = request_id
        start = time.perf_counter()
        try:
            result = call()
            ok = True
        except (ServiceError, OSError) as error:
            result, ok = error, False
        self.ops.append(Op(phase, kind, start, time.perf_counter(), ok, request_id, due))
        if not ok:
            raise OpFailed(f"{kind}: {result}")
        return result

    def _plan(self, analyst: int, view: wl.View) -> wl.SessionPlan:
        number = self._numbers[analyst]
        self._numbers[analyst] += 1
        if self.workload == "herd-backtrack":
            return wl.herd_session(self.seed, analyst, number, self.paths, view)
        return wl.persona_session(
            self.seed,
            self.workload,
            analyst,
            number,
            len(self.spaces[self.default_space]),
            view,
        )

    def _session(self, analyst: int, phase: str, deadline: float) -> None:
        client = self.clients[analyst]
        worker = f"a{analyst}"
        view = wl.View()
        plan = self._plan(analyst, view)

        def timed(kind, call):
            return self._timed(client, worker, phase, kind, call)

        sent = time.perf_counter()
        opened = timed(
            "open",
            lambda: client.open(
                config=wl.SESSION_CONFIG, seed_gids=plan.seed_gids, space=plan.space
            ),
        )
        record = SessionRecord(
            space=plan.space or self.default_space,
            seed_gids=plan.seed_gids,
            opened=[group.gid for group in opened.display],
            phase=phase,
            opened_between=(sent, time.perf_counter()),
        )
        self.sessions.append(record)
        view.display = opened.display
        sid = opened.session_id
        clicks = 0
        try:
            for kind, arg in plan.actions:
                if time.perf_counter() >= deadline:
                    break
                if self.plant == "failed-op" and phase != "warmup":
                    self.plant = ""
                    timed("click", lambda: client.click(sid, PLANTED_BAD_GID))
                if kind == "click":
                    shown = timed("click", lambda: client.click(sid, arg))
                    view.display, view.steps = shown, view.steps + 1
                    clicks += 1
                    result = [group.gid for group in shown]
                elif kind == "backtrack":
                    shown = timed("backtrack", lambda: client.backtrack(sid, arg))
                    view.display = shown
                    result = [group.gid for group in shown]
                else:
                    result = timed("drill", lambda: client.drill_down(sid, arg))
                record.actions.append((kind, arg, result))
            stats = timed("stats", lambda: client.stats(sid))
            record.cache = stats.get("cache", {})
            if stats.get("clicks") != clicks:
                self.errors.append(
                    f"session {sid}: server counted {stats.get('clicks')} "
                    f"clicks, client sent {clicks}"
                )
        finally:
            timed("close", lambda: client.close(sid))
        record.complete = True

    def _analyst(self, analyst: int, phase: str, deadline: float) -> None:
        try:
            while time.perf_counter() < deadline:
                try:
                    self._session(analyst, phase, deadline)
                except OpFailed:
                    continue
        except Exception as error:  # noqa: BLE001 — reported, fails the run
            self.errors.append(f"analyst {analyst}: {type(error).__name__}: {error}")

    def send_delta(self, phase: str, due: float, verify: bool = False) -> dict:
        """Post one balanced churn delta and advance the client's mirror."""
        from repro.core.group import GroupDelta, apply_group_delta

        body = wl.churn_delta(self._writer_rng, self._mirror)
        client = self.clients[-1]
        sent = time.perf_counter()
        reply = self._timed(
            client,
            "w",
            phase,
            "mutate",
            lambda: client.mutate(self.default_space, verify=verify, **body),
            due=due,
        )
        done = time.perf_counter()
        self._mirror = apply_group_delta(
            self._mirror,
            GroupDelta.build(
                added=body["add"], removed=body["remove"], changed=body["update"]
            ),
        )[0]
        reply.update(
            phase=phase,
            mirror_groups=len(self._mirror),
            body=body,
            sent=sent,
            done=done,
        )
        self.mutations.append(reply)
        return reply

    def _writer(self, phase: str, deadline: float) -> None:
        try:
            due = time.perf_counter() + wl.WRITER_INTERVAL_S / 2
            while due < deadline:
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                try:
                    self.send_delta(phase, due)
                except OpFailed:
                    pass
                due += wl.WRITER_INTERVAL_S
        except Exception as error:  # noqa: BLE001 — reported, fails the run
            self.errors.append(f"writer: {type(error).__name__}: {error}")

    def window(self, phase: str, seconds: float) -> tuple[float, float]:
        """Run every load thread for ``seconds``; returns the window bounds."""
        start = time.perf_counter()
        deadline = start + seconds
        threads = [
            threading.Thread(target=self._analyst, args=(analyst, phase, deadline))
            for analyst in range(self.spec["analysts"])
        ]
        if self.spec["writer"]:
            threads.append(threading.Thread(target=self._writer, args=(phase, deadline)))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 60.0)
            if thread.is_alive():
                raise BenchError(f"load thread stuck in phase {phase}")
        return start, deadline

    def health(self) -> dict:
        return self.clients[-1].health()


def pair_counts(payload) -> tuple[int, int]:
    """Summed shared-cache pair hits and misses anywhere in ``/healthz``."""
    hits = misses = 0
    if isinstance(payload, dict):
        if "pair_hits" in payload:
            return int(payload["pair_hits"]), int(payload["pair_misses"])
        for value in payload.values():
            more = pair_counts(value)
            hits, misses = hits + more[0], misses + more[1]
    return hits, misses


# -- metrics ---------------------------------------------------------------


def window_ops(ops: list[Op], phase: str, kind: str) -> list[Op]:
    return [op for op in ops if op.phase == phase and op.kind == kind]


def ms(op: Op) -> float:
    return (op.end - op.start) * 1000.0


def window_metrics(ops: list[Op], phase: str, bounds: tuple) -> dict:
    clicks = [ms(op) for op in window_ops(ops, phase, "click") if op.ok]
    completed = [
        op for op in window_ops(ops, phase, "click") if op.ok and op.end <= bounds[1]
    ]
    return {
        "click_p50_ms": p50(clicks),
        "click_p90_ms": percentile(clicks, 90.0),
        "click_p95_ms": percentile(clicks, 95.0),
        "open_p50_ms": p50(ms(op) for op in window_ops(ops, phase, "open") if op.ok),
        "backtrack_p50_ms": p50(
            ms(op) for op in window_ops(ops, phase, "backtrack") if op.ok
        ),
        "clicks_per_s": len(completed) / (bounds[1] - bounds[0]),
    }


def cache_ratios(sessions: list[SessionRecord]) -> dict:
    totals = Counter()
    for record in sessions:
        if record.phase != "warmup":
            totals.update({k: v for k, v in record.cache.items() if isinstance(v, int)})
    structure_hits = (
        totals["structure_hits"]
        + totals["structure_permuted"]
        + totals["shared_structure_hits"]
    )
    structure_all = structure_hits + totals["structure_misses"]
    result_all = totals["result_hits"] + totals["result_misses"]
    return {
        "poolcache.structure_hit_ratio": structure_hits / max(structure_all, 1),
        "poolcache.result_hit_ratio": totals["result_hits"] / max(result_all, 1),
    }


def op_table(ops: list[Op]) -> dict:
    table: dict = {}
    for op in ops:
        row = table.setdefault(op.phase, {}).setdefault(
            op.kind, {"attempted": 0, "succeeded": 0, "failed": 0}
        )
        row["attempted"] += 1
        row["succeeded" if op.ok else "failed"] += 1
    return table


def host_block() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


# -- one run ----------------------------------------------------------------


def build_spaces(workload: str, root: Path) -> tuple[dict, Path]:
    """The oracle's copy of the workload's spaces, built in this process.

    Built from the same generators the server uses and cached under
    ``.perfbench/cache`` keyed by the program's source, so later runs of
    the same checkout skip generation and discovery.
    """
    from repro.experiments.common import bookcrossing_space, dbauthors_space

    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode("utf-8"))
        digest.update(path.read_bytes())
    cache = root / ".perfbench" / "cache" / f"spaces-{digest.hexdigest()[:20]}.pickle"
    if cache.is_file():
        spaces = pickle.loads(cache.read_bytes())
    else:
        spaces = {"dbauthors": dbauthors_space(), "books": bookcrossing_space()}
        cache.parent.mkdir(parents=True, exist_ok=True)
        partial = cache.with_suffix(f".{os.getpid()}.tmp")
        partial.write_bytes(pickle.dumps(spaces, protocol=pickle.HIGHEST_PROTOCOL))
        partial.replace(cache)
    return {name: spaces[name] for name in wl.WORKLOADS[workload]["spaces"]}, cache


def run(args, workdir: Path) -> dict:
    spec = wl.WORKLOADS[args.workload]
    began = time.perf_counter()
    spaces, cache_path = build_spaces(args.workload, Path.cwd())
    timing = {"oracle_build": time.perf_counter() - began}
    launches = SETUP_LAUNCHES if args.trace == 0 else 1
    setup_s = []
    server = None
    for launch in range(launches):
        server = ServerProcess(args.workload, workdir, str(launch))
        setup_s.append(server.setup_s)
        if launch < launches - 1:
            server.stop()
    timing["setup"] = time.perf_counter() - began - timing["oracle_build"]
    result: dict = {"setup_s_samples": setup_s, "timing_s": timing}
    metrics: dict = {}
    try:
        load = Load(args, server.port, spaces, args.plant)
        load.window("warmup", WARMUP_S)
        if args.trace == 0:
            bounds = load.window("measure", args.seconds)
            metrics = window_metrics(load.ops, "measure", bounds)
            result["samples_ms"] = {
                kind: [round(ms(op), 3) for op in window_ops(load.ops, "measure", kind)]
                for kind in ("click", "open", "backtrack")
            }
            metrics["setup_s"] = statistics.median(setup_s)
        else:
            half = args.seconds / 2.0
            health_before = load.health()
            untraced = load.window("untraced", half)
            server.command("trace on")
            traced = load.window("traced", half)
            server.command("trace off")
            health_after = load.health()
            spans_path = workdir / "spans.json"
            server.command(f"dump {spans_path}")
            clicks = {
                op.request_id: ms(op)
                for op in window_ops(load.ops, "traced", "click")
                if op.ok
            }
            layered = analyze(
                json.loads(spans_path.read_text(encoding="utf-8")),
                clicks,
                traced[1] - traced[0],
            )
            metrics = layered["metrics"]
            result["ledger"] = layered["ledger"]
            untraced_clicks = window_ops(load.ops, "untraced", "click")
            traced_p50 = window_metrics(load.ops, "traced", traced)["click_p50_ms"]
            plain = window_metrics(load.ops, "untraced", untraced)
            metrics["trace.overhead_ms"] = traced_p50 - plain["click_p50_ms"]
            for name in ("click_p90_ms", "click_p95_ms", "backtrack_p50_ms", "clicks_per_s"):
                metrics[name] = plain[name]
            metrics["budget_share"] = sum(
                1 for op in untraced_clicks if op.ok and ms(op) <= BUDGET_MS
            ) / max(len(untraced_clicks), 1)
            writes = [
                op for op in window_ops(load.ops, "untraced", "mutate") if op.ok
            ]
            metrics["mutate_p50_ms"] = p50((op.end - op.due) * 1000.0 for op in writes)
            metrics["writer.late_ms_p95"] = percentile(
                ((op.start - op.due) * 1000.0 for op in writes), 95.0
            )
            metrics.update(cache_ratios(load.sessions))
            hits_before, misses_before = pair_counts(health_before)
            hits_after, misses_after = pair_counts(health_after)
            hits = hits_after - hits_before
            metrics["poolcache.pair_hit_ratio"] = hits / max(
                hits + misses_after - misses_before, 1
            )
            metrics["poolcache.invalidated"] = sum(
                reply["cache_entries_dropped"]
                for reply in load.mutations
                if reply["phase"] != "warmup"
            )
        if spec["writer"]:
            load.send_delta("verify", time.perf_counter(), verify=True)
        if args.trace == 0:
            metrics["peak_rss_mb"] = int(server.command("rss")[0]) / 1024.0
    except OpFailed:
        pass  # counted in the op table; the run fails below
    finally:
        server.stop()
    load.close()
    timing["load"] = time.perf_counter() - began - sum(timing.values())
    if args.trace == 1:
        failed = sum(1 for op in load.ops if not op.ok)
        metrics["failed_share"] = failed / max(len(load.ops), 1)
    judged = {
        "sessions": judge_sessions(
            load.sessions,
            load.mutations,
            load.default_space if spec["writer"] else None,
            cache_path,
            workdir,
            args.plant,
        ),
        "mutations": judge_mutations(load.mutations, args.plant),
    }
    timing["judge"] = time.perf_counter() - began - sum(timing.values())
    result.update(
        {
            "metrics": metrics,
            "judge": judged,
            "errors": load.errors,
            "ops": op_table(load.ops),
            "attempted": len(load.ops),
            "failed": sum(1 for op in load.ops if not op.ok),
            "verified": any(reply["phase"] == "verify" for reply in load.mutations)
            or not spec["writer"],
        }
    )
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--plant",
        choices=("", "wrong-display", "failed-op"),
        default="",
        help="self-test only: corrupt one output or fail one operation",
    )
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            "perfbench: src/repro not found; run from the repository root",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(root / "src"))
    workdir = root / ".perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args, workdir)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = END_TO_END_UNITS if args.trace == 0 else PER_LAYER_UNITS
    metrics = result["metrics"]
    missing = sorted(set(units) - set(metrics))
    correct = (
        all(part["mismatch_count"] == 0 for part in result["judge"].values())
        and not result["errors"]
        and result["failed"] == 0
        and result["verified"]
        and not missing
    )
    artifact = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_block(),
        "correct": correct,
        "missing_metrics": missing,
        **result,
    }
    results_dir = root / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(artifact, indent=2), encoding="utf-8")
    for phase, kinds in result["ops"].items():
        for kind, row in kinds.items():
            print(f"ops {phase:9s} {kind:9s} {row}")
    print(f"judge {json.dumps(result['judge'])}")
    for error in result["errors"]:
        print(f"error {error}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    metric: {"value": metrics[metric], "unit": unit}
                    for metric, unit in units.items()
                    if metric in metrics
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
