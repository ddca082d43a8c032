"""Machine-readable selection-engine perf harness.

Runs the characteristic operations of experiments C1 (interactive click),
C2 (greedy re-selection of a large dbauthors neighborhood) and C7
(greedy re-selection of bookcrossing discussion-group neighborhoods) with
both selection engines and writes ``BENCH_selection.json`` next to this
script, so the selection-engine perf trajectory is tracked from one PR to
the next:

- ``evaluations`` / ``evals_per_100ms`` — objective evaluations the
  greedy affords inside the paper's 100 ms budget (the quality a budget
  buys is bounded by this number);
- ``click_p50_ms`` — median end-to-end click latency (C1's recurring
  interaction);
- ``phase3_rate`` — share of budgeted runs whose swap search converged
  (phases_completed == 3) before the budget expired;
- ``parity`` — untimed runs of the reference oracle, the plain celf
  engine, and the celf engine with a cold and a warm
  :class:`~repro.core.poolcache.PoolStatsCache` all return identical
  displays (the four engine/cache combinations);
- ``cache`` — warm-vs-cold click latency from a session replay of the
  HISTORY backtrack/re-click gesture, plus select-level cold / warm
  (statistics reused, feedback changed) / memo (identical call) medians;
- ``governor`` — escalation-tier distribution and objective uplift of the
  adaptive budget governor on the C2 pools;
- ``serving`` — the multi-session workload: M sessions replayed against
  one :class:`~repro.core.runtime.GroupSpaceRuntime` under thread
  contention vs the per-session-cache baseline — cold-start
  amortization, cross-session warm-hit rate, p50/p95 click latency, and
  the gated second-and-later-session cold-click speedup;
- ``service`` — the network front: the dbauthors replay driven through
  the JSON-over-HTTP server (:mod:`repro.service`) vs the identical
  replay through the in-process :class:`SessionManager` — the gated
  per-click round-trip overhead, N concurrent HTTP clients' untimed
  display parity against a solo in-process run, and a durable
  crash/resume round trip through the wire protocol;
- ``spaces`` — multi-space hosting (:mod:`repro.spaces`): the same HTTP
  replay routed through a two-space registry vs a dedicated
  single-space server (gated routed-click overhead), the cold-attach
  cost of a space built lazily in the background vs a warm routed open,
  untimed routed display parity, and a space-eviction → lazy-rebuild →
  resume-by-token round trip;
- ``journal`` — the durable session journal: append cost early vs
  late in a 200-click session (gated flatness) and a resume-by-token
  recovery round trip;
- ``cold_build`` — per served space (dbauthors, books): median
  discovery and index-build time of an uncached in-process build, and
  whether the build reproduces the pinned membership digest (parity);
- ``index_build`` — batched-lexsort prefix ranking vs the retained
  per-group-loop ranking on the largest generated group space;
- ``host`` — the machine the numbers came from: cores, Python, NumPy
  and platform.

A malformed existing output file (anything but a JSON object) aborts with
exit code 2 before any measurement — the trajectory must never be
clobbered by overwriting evidence that something else corrupted it.

Usage::

    PYTHONPATH=src python benchmarks/run_perf.py [--out PATH] [--quick | --smoke]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.agents.scenarios import discussion_group_target
from repro.core.feedback import FeedbackVector
from repro.core.poolcache import PoolStatsCache
from repro.core.runtime import (
    GroupSpaceRuntime,
    SessionManager,
    scripted_click_gid,
)
from repro.core.selection import SelectionConfig, select_k
from repro.core.session import ExplorationSession, SessionConfig
from repro.experiments.common import bookcrossing_space, dbauthors_space
from repro.index.inverted import (
    SimilarityIndex,
    _rank_prefix_loop,
    _rank_prefix_vectorized,
)

ENGINES = ("reference", "celf")
BUDGET_MS = 100.0
DEFAULT_OUT = Path(__file__).parent / "BENCH_selection.json"

#: Gate on the session-replay cache speedup (full runs only): the second
#: click on an already-visited pool must be at least this much faster.
WARM_COLD_GATE = 2.0

#: Gate on the multi-session serving workload (full runs only): with 8
#: concurrent sessions over one runtime, second-and-later sessions' cold
#: click p50 must beat the per-session-cache baseline by at least this
#: factor (cross-session structure and result hits).
SERVING_GATE = 2.0

#: Gate on the network front (full runs): the HTTP round trip may add at
#: most this many milliseconds to the in-process click p50 on the
#: dbauthors replay — the wire protocol must stay invisible next to the
#: paper's 100 ms continuity budget.  Smoke runs on shared CI boxes get
#: a looser bar (scheduling noise easily exceeds the localhost RTT).
SERVICE_OVERHEAD_GATE_MS = 5.0
SERVICE_OVERHEAD_SMOKE_GATE_MS = 25.0

#: Gate on multi-space hosting (full runs): routing a click through the
#: space registry may add at most this many milliseconds to the p50 of
#: the identical replay against a dedicated single-space server — the
#: router is one dict resolution per request and must stay invisible.
#: Smoke runs on shared CI boxes get the service section's looser bar.
SPACES_OVERHEAD_GATE_MS = 2.0
SPACES_OVERHEAD_SMOKE_GATE_MS = 25.0
#: Walks per arm the spaces gate pools (after one warmup walk).
SPACES_PAIRED_WALKS = 3

#: Membership digests (``space_digest``) of the two served group spaces.
#: The cold_build section's builds must reproduce them exactly (parity):
#: a discovery change that reorders gids would strand every durable
#: session, arena cache and epoch lineage stamped with the old digest.
PINNED_SPACE_DIGESTS = {
    "dbauthors": "24fb90c3a571dd9a67a56ef0faac5f2c1ed622fd494010fbfc6e5f2349414841",
    "books": "9a2783aa81abd459875b6ef96e4d1fcf603f54de401962ebf44cb8a132965f03",
}

#: Gate on the session journal: the p50 append cost late in a long
#: session may be at most this multiple of the cost around click 10 —
#: the O(1)-per-click claim.  Smoke runs on shared CI boxes get a loose
#: bar — single-digit-ms fsyncs are noisy there.
JOURNAL_FLATNESS_GATE = 3.0
JOURNAL_FLATNESS_SMOKE_GATE = 8.0

#: Gate on online store mutation (full runs): applying a 1%-churn
#: group delta as a new epoch (delta-maintained similarity index,
#: per-fingerprint cache invalidation) must beat rebuilding the index
#: from scratch by at least this factor, with bitwise serving-prefix
#: parity against the full rebuild on every step.  Smoke runs only
#: require parity (single measured steps on shared CI boxes are noise).
MUTATION_SPEEDUP_GATE = 5.0

#: Gates on the replicated serving tier.  *Attach*: mapping a space's
#: artifacts from the shared-memory arena (digest-verified NumPy views)
#: must beat rebuilding the similarity index cold by at least this
#: factor — the zero-copy claim; the smoke bar is loose because the
#: rebuild baseline is tiny there.  *Throughput*: N workers must lift
#: contended click throughput at 8+ concurrent sessions by at least
#: this factor over the single-process front.  The full throughput bar
#: only applies when the box has enough cores to host the workers
#: (``cpu_count >= workers + 2``) — on a starved runner the pool
#: timeshares one core and measures scheduling, not the architecture;
#: smoke runs assert the pool is not catastrophically slower.
REPLICATION_ATTACH_GATE = 10.0
REPLICATION_ATTACH_SMOKE_GATE = 3.0
REPLICATION_THROUGHPUT_GATE = 2.0
REPLICATION_THROUGHPUT_SMOKE_GATE = 0.2

#: Gates on the composed multi-space replicated tier.  *Overhead*: a
#: click routed through the registry-composed pool (worker tag + space
#: prefix parsing, per-space forwarding) must cost at most this much
#: over the single-space replicated click p50 — composition is routing
#: arithmetic, not another serving layer.  *Warm boot*: restoring a
#: space's arena from the on-disk snapshot cache must beat the cold
#: discovery + index build + publish path by at least this factor (the
#: whole point of ``--arena-cache``); smoke bars are loose because both
#: arms are tiny there.  Like the throughput gate above, the overhead
#: bar only applies when the box can actually host the fleet
#: (``cpu_count >= workers + 2``) — on a starved runner both pools
#: timeshare one core and the p50 delta measures scheduler jitter, not
#: routing arithmetic; the harness still measures and reports.  The
#: same bar gates the *router hop* — the routed click p50 over the same
#: walk sent straight to one worker's port — on every host: one hop's
#: latency is not a throughput claim, so it gets no core waiver.
REPLICATION_SPACES_OVERHEAD_GATE_MS = 2.0
REPLICATION_SPACES_OVERHEAD_SMOKE_GATE_MS = 5.0
ARENA_CACHE_WARM_GATE = 3.0
ARENA_CACHE_WARM_SMOKE_GATE = 1.2

#: Gate on the observability tax (full runs): with the full pipeline
#: armed in its production-default shape (metrics registry, event bus,
#: per-request trace spans), the HTTP click p50 may cost at most this
#: multiple of the identical replay against a ``metrics=False`` server
#: — instrumentation must be invisible next to selection itself.  The
#: arms are interleaved session-by-session so machine drift hits both
#: equally.  Sub-floor absolute deltas pass regardless of the ratio:
#: at millisecond click costs a few hundred microseconds of scheduler
#: jitter can exceed 5% without meaning anything.  Smoke runs on
#: shared CI boxes get a loose ratio for the same reason journal does.
OBSERVABILITY_CLICK_RATIO_GATE = 1.05
OBSERVABILITY_CLICK_RATIO_SMOKE_GATE = 2.0
OBSERVABILITY_OVERHEAD_FLOOR_MS = 0.25


def c2_pools(n_parents: int) -> list[tuple]:
    """C2's unit: the 200-candidate neighborhoods of large dbauthors groups."""
    space = dbauthors_space()
    index = SimilarityIndex(space.memberships(), space.dataset.n_users, 0.10)
    pools = []
    for parent in space.largest(n_parents):
        pool = [space[n.group] for n in index.neighbors(parent.gid, 200)]
        if len(pool) >= 5:
            pools.append((parent, pool))
    return pools


def c7_pools(n_genres: int) -> list[tuple]:
    """C7's unit: neighborhoods of bookcrossing discussion-group targets."""
    if n_genres <= 0:
        return []
    space = bookcrossing_space()
    index = SimilarityIndex(space.memberships(), space.dataset.n_users, 0.10)
    pools = []
    for genre in ("fiction", "romance", "mystery", "scifi", "history")[:n_genres]:
        target = discussion_group_target(space, genre)
        if target is None:
            continue
        parent = space[target]
        pool = [space[n.group] for n in index.neighbors(parent.gid, 200)]
        if len(pool) >= 5:
            pools.append((parent, pool))
    return pools


def measure_pools(pools: list[tuple], engine: str, repeats: int) -> dict:
    """Budgeted select_k over every pool; medians of the numbers that matter."""
    evaluations: list[int] = []
    elapsed: list[float] = []
    rates: list[float] = []
    converged = 0
    runs = 0
    for parent, pool in pools:
        config = SelectionConfig(k=5, time_budget_ms=BUDGET_MS, engine=engine)
        for _ in range(repeats):
            result = select_k(pool, parent.members, config=config)
            evaluations.append(result.evaluations)
            elapsed.append(result.elapsed_ms)
            rates.append(
                result.evaluations / max(result.elapsed_ms, 1e-9) * 100.0
            )
            converged += 1 if result.phases_completed == 3 else 0
            runs += 1
    if not runs:
        return {"runs": 0}
    return {
        "runs": runs,
        "evaluations_median": int(statistics.median(evaluations)),
        "elapsed_p50_ms": round(statistics.median(elapsed), 3),
        "evals_per_100ms_median": round(statistics.median(rates), 1),
        "phase3_rate": round(converged / runs, 3) if runs else 0.0,
    }


def check_parity(pools: list[tuple]) -> bool:
    """All four engine/cache combinations must produce identical displays.

    Untimed runs of: the reference oracle, the plain celf engine, celf
    with a cold cache (first use), and celf with a warm cache (same call
    repeated — structure, feedback layer and result memo all hot).
    """
    for parent, pool in pools:
        outputs = []
        config_reference = SelectionConfig(
            k=5, time_budget_ms=None, engine="reference"
        )
        outputs.append(select_k(pool, parent.members, config=config_reference))
        config_celf = SelectionConfig(k=5, time_budget_ms=None, engine="celf")
        outputs.append(select_k(pool, parent.members, config=config_celf))
        cache = PoolStatsCache()
        outputs.append(
            select_k(pool, parent.members, config=config_celf, cache=cache)
        )
        outputs.append(
            select_k(pool, parent.members, config=config_celf, cache=cache)
        )
        baseline = outputs[0]
        for other in outputs[1:]:
            if other.gids() != baseline.gids():
                return False
            if abs(other.score - baseline.score) > 1e-9:
                return False
    return True


def measure_clicks(engine: str, clicks: int) -> dict:
    """C1's recurring interaction: p50 wall time of a session click."""
    space = dbauthors_space()
    session = ExplorationSession(
        space, config=SessionConfig(k=5, time_budget_ms=BUDGET_MS, engine=engine)
    )
    session.start()
    timings: list[float] = []
    evaluations: list[int] = []
    for _ in range(clicks):
        gid = session.displayed_gids()[0]
        started = time.perf_counter()
        session.click(gid)
        timings.append((time.perf_counter() - started) * 1000.0)
        if session.last_selection is not None:
            evaluations.append(session.last_selection.evaluations)
    return {
        "clicks": clicks,
        "click_p50_ms": round(statistics.median(timings), 3),
        "click_evaluations_median": int(statistics.median(evaluations)),
    }


def measure_cache(pools: list[tuple], rounds: int, repeats: int) -> dict:
    """Warm-vs-cold cache behaviour, at the click and the select level.

    The click measurement replays the paper's HISTORY gesture in one
    cached session: click a group (cold — its pool has never been seen),
    advance, backtrack, and re-click the same group (warm — pool, restored
    feedback and result all fingerprint-hit).  The select measurement
    isolates the three cache states on the C2 pools: cold build, warm
    reuse under *changed* feedback (structure reused, weights recomputed),
    and a fully memoized identical call.
    """
    space = dbauthors_space()
    session = ExplorationSession(
        space,
        config=SessionConfig(
            k=5, time_budget_ms=BUDGET_MS, engine="celf", use_profile=False
        ),
    )
    shown = session.start()
    cold_clicks: list[float] = []
    warm_clicks: list[float] = []
    for _ in range(rounds):
        step = session.current_step()
        base_step = step.step_id if step is not None else 0
        first = shown[0].gid
        started = time.perf_counter()
        after_first = session.click(first)
        cold_clicks.append((time.perf_counter() - started) * 1000.0)
        second = next(
            (group.gid for group in after_first if group.gid != first), first
        )
        started = time.perf_counter()
        session.click(second)
        cold_clicks.append((time.perf_counter() - started) * 1000.0)
        session.backtrack(base_step)
        started = time.perf_counter()
        replayed = session.click(first)
        warm_clicks.append((time.perf_counter() - started) * 1000.0)
        # Advance to an unvisited display for the next round's cold clicks.
        shown = [group for group in replayed if group.gid != first] or replayed

    select_cold: list[float] = []
    select_warm: list[float] = []
    select_memo: list[float] = []
    config = SelectionConfig(k=5, time_budget_ms=BUDGET_MS, engine="celf")
    for parent, pool in pools:
        for _ in range(repeats):
            cache = PoolStatsCache()
            feedback = FeedbackVector()
            started = time.perf_counter()
            select_k(pool, parent.members, feedback, config, cache=cache)
            select_cold.append((time.perf_counter() - started) * 1000.0)
            feedback.learn_group(parent.members, parent.description)
            started = time.perf_counter()
            select_k(pool, parent.members, feedback, config, cache=cache)
            select_warm.append((time.perf_counter() - started) * 1000.0)
            started = time.perf_counter()
            select_k(pool, parent.members, feedback, config, cache=cache)
            select_memo.append((time.perf_counter() - started) * 1000.0)

    cold_p50 = statistics.median(cold_clicks)
    warm_p50 = statistics.median(warm_clicks)
    pool_cache = session.pool_cache
    return {
        "engine": "celf",
        "rounds": rounds,
        "cold_click_p50_ms": round(cold_p50, 3),
        "warm_click_p50_ms": round(warm_p50, 3),
        "warm_cold_click_ratio": round(cold_p50 / max(warm_p50, 1e-9), 2),
        "select_cold_p50_ms": round(statistics.median(select_cold), 3),
        "select_warm_p50_ms": round(statistics.median(select_warm), 3),
        "select_memo_p50_ms": round(statistics.median(select_memo), 3),
        "select_warm_ratio": round(
            statistics.median(select_cold)
            / max(statistics.median(select_warm), 1e-9),
            2,
        ),
        "session_cache": pool_cache.stats() if pool_cache is not None else {},
    }


def measure_governor(pools: list[tuple], repeats: int) -> dict:
    """Escalation-tier distribution and objective uplift on the C2 pools."""
    tiers: list[int] = []
    uplifts: list[float] = []
    elapsed: list[float] = []
    base_config = SelectionConfig(k=5, time_budget_ms=BUDGET_MS, engine="celf")
    governed_config = SelectionConfig(
        k=5, time_budget_ms=BUDGET_MS, engine="celf", governor=True
    )
    for parent, pool in pools:
        for _ in range(repeats):
            base = select_k(pool, parent.members, config=base_config)
            governed = select_k(pool, parent.members, config=governed_config)
            tiers.append(governed.governor_tier)
            uplifts.append(governed.score - base.score)
            elapsed.append(governed.elapsed_ms)
    if not tiers:
        return {"runs": 0}
    return {
        "runs": len(tiers),
        "mean_tier": round(statistics.mean(tiers), 2),
        "tier_counts": {
            str(tier): tiers.count(tier) for tier in sorted(set(tiers))
        },
        "mean_score_uplift": round(statistics.mean(uplifts), 6),
        "elapsed_p50_ms": round(statistics.median(elapsed), 3),
        "budget_ms": BUDGET_MS,
    }


def _replay_session(manager: SessionManager, clicks: int) -> list[float]:
    """One scripted session: always click the first unvisited display slot.

    Deterministic, so every session walks the same trajectory — the
    heavy-overlap pattern of many analysts exploring the same space.
    Returns per-click wall latencies in ms.
    """
    session_id, shown = manager.open_session()
    latencies: list[float] = []
    visited: set[int] = set()
    for _ in range(clicks):
        gid = scripted_click_gid(shown, visited)
        started = time.perf_counter()
        shown = manager.click(session_id, gid)
        latencies.append((time.perf_counter() - started) * 1000.0)
    manager.close(session_id)
    return latencies


def _percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(int(len(ordered) * share), len(ordered) - 1)]


def measure_serving(n_sessions: int, clicks: int, threads: int) -> dict:
    """The multi-session workload: M sessions against one runtime.

    Both arms replay the identical deterministic trajectory from a thread
    pool: the *baseline* arm is the per-session-cache stack (every
    session has a private :class:`PoolStatsCache`, nothing crosses
    sessions), the *shared* arm goes through one
    :class:`GroupSpaceRuntime` + :class:`SessionManager`.  Session 1 runs
    alone first (it pays the cross-session cold start); sessions 2..M
    then run concurrently — their clicks are session-cold (first visit
    of every pool within the session) and their p50 is the gated
    ``later_cold_click_speedup``.  Cold-start amortization is reported
    separately: per-session setup of the old stack (every session builds
    its own SimilarityIndex) vs one runtime build serving all sessions.
    """
    space = dbauthors_space()
    config = SessionConfig(
        k=5, time_budget_ms=BUDGET_MS, engine="celf", use_profile=False
    )

    # Cold-start amortization: the pre-runtime stack built one index per
    # session; the runtime builds once and every open_session is ~free.
    started = time.perf_counter()
    runtime = GroupSpaceRuntime(space)
    runtime_build_ms = (time.perf_counter() - started) * 1000.0
    started = time.perf_counter()
    ExplorationSession(space, config=config)  # builds a private index
    per_session_setup_ms = (time.perf_counter() - started) * 1000.0
    started = time.perf_counter()
    runtime.create_session(config)
    runtime_session_setup_ms = (time.perf_counter() - started) * 1000.0

    arms: dict[str, dict] = {}
    for arm, share in (("baseline", False), ("shared", True)):
        arm_runtime = (
            runtime
            if share
            # The baseline arm reuses the already-built index so the
            # comparison isolates the cache layers, not index builds.
            else GroupSpaceRuntime(space, index=runtime.index, share_cache=False)
        )
        manager = SessionManager(arm_runtime, default_config=config)
        first = _replay_session(manager, clicks)  # session 1, alone
        with ThreadPoolExecutor(max_workers=threads) as executor:
            later = list(
                executor.map(
                    lambda _: _replay_session(manager, clicks),
                    range(n_sessions - 1),
                )
            )
        later_clicks = [value for latencies in later for value in latencies]
        every_click = first + later_clicks
        arms[arm] = {
            "sessions": n_sessions,
            "clicks_per_session": clicks,
            "threads": threads,
            "first_session_click_p50_ms": round(statistics.median(first), 3),
            "later_sessions_cold_click_p50_ms": round(
                statistics.median(later_clicks), 3
            ),
            "click_p50_ms": round(statistics.median(every_click), 3),
            "click_p95_ms": round(_percentile(every_click, 0.95), 3),
        }

    shared_stats = runtime.shared.stats() if runtime.shared is not None else {}

    def hit_rate(layer: str) -> float:
        hits = shared_stats.get(f"{layer}_hits", 0)
        return hits / max(hits + shared_stats.get(f"{layer}_misses", 0), 1)

    # Display parity under concurrency: untimed runs must show every
    # threaded shared-runtime session exactly what a sequential private
    # session shows (the budgeted arms above measure latency only).
    untimed = SessionConfig(
        k=5, time_budget_ms=None, engine="celf", use_profile=False
    )
    parity_clicks = min(clicks, 3)

    def displays(manager: SessionManager) -> list[list[int]]:
        session_id, shown = manager.open_session()
        trace = []
        visited: set[int] = set()
        for _ in range(parity_clicks):
            gid = scripted_click_gid(shown, visited)
            shown = manager.click(session_id, gid)
            trace.append([group.gid for group in shown])
        manager.close(session_id)
        return trace

    solo_manager = SessionManager(
        GroupSpaceRuntime(space, index=runtime.index, share_cache=False),
        default_config=untimed,
    )
    expected = displays(solo_manager)
    parity_manager = SessionManager(
        GroupSpaceRuntime(space, index=runtime.index), default_config=untimed
    )
    with ThreadPoolExecutor(max_workers=threads) as executor:
        traces = list(
            executor.map(lambda _: displays(parity_manager), range(4))
        )
    parity = all(trace == expected for trace in traces)

    return {
        "sessions": n_sessions,
        "clicks_per_session": clicks,
        "threads": threads,
        "budget_ms": BUDGET_MS,
        "runtime_build_ms": round(runtime_build_ms, 3),
        "per_session_setup_ms": round(per_session_setup_ms, 3),
        "runtime_session_setup_ms": round(runtime_session_setup_ms, 3),
        "setup_amortization": round(
            per_session_setup_ms / max(runtime_session_setup_ms, 1e-9), 1
        ),
        "baseline": arms["baseline"],
        "shared": arms["shared"],
        "later_cold_click_speedup": round(
            arms["baseline"]["later_sessions_cold_click_p50_ms"]
            / max(arms["shared"]["later_sessions_cold_click_p50_ms"], 1e-9),
            2,
        ),
        # A result hit short-circuits the structure lookup, so the two
        # layers' rates are reported separately.
        "cross_session_structure_hit_rate": round(hit_rate("structure"), 3),
        "cross_session_result_hit_rate": round(hit_rate("result"), 3),
        "shared_cache": shared_stats,
        "parity": parity,
    }


def _replay_http(client, clicks: int, config=None) -> tuple[list[float], list[list[int]]]:
    """One scripted session through the wire: latencies + per-step gids.

    The same deterministic walking policy as :func:`_replay_session`
    (via :func:`scripted_click_gid` — ``DisplayedGroup`` rows duck-type
    the ``gid`` attribute it reads), so the HTTP and in-process arms
    replay the identical workload by construction.
    """
    opened = client.open(config=config)
    shown = opened.display
    latencies: list[float] = []
    displays: list[list[int]] = []
    visited: set[int] = set()
    for _ in range(clicks):
        gid = scripted_click_gid(shown, visited)
        started = time.perf_counter()
        shown = client.click(opened.session_id, gid)
        latencies.append((time.perf_counter() - started) * 1000.0)
        displays.append([group.gid for group in shown])
    client.close(opened.session_id)
    return latencies, displays


def _paired_walk(clients, clicks: int) -> tuple[tuple, tuple]:
    """The scripted walk on two servers at once, alternating click by click.

    The arm that clicks first flips every step, so scheduling drift hits
    both arms alike.  Returns per-arm click latencies (ms) and per-arm
    displayed gids.
    """
    opened = [client.open() for client in clients]
    shown = [o.display for o in opened]
    seen: tuple[set, set] = (set(), set())
    samples: tuple[list, list] = ([], [])
    displays: tuple[list, list] = ([], [])
    for step in range(clicks):
        for arm in ((0, 1) if step % 2 == 0 else (1, 0)):
            gid = scripted_click_gid(shown[arm], seen[arm])
            started = time.perf_counter()
            shown[arm] = clients[arm].click(opened[arm].session_id, gid)
            samples[arm].append((time.perf_counter() - started) * 1000.0)
            displays[arm].append([group.gid for group in shown[arm]])
    for client, session in zip(clients, opened):
        client.close(session.session_id)
    return samples, displays


def measure_service(n_clients: int, clicks: int) -> dict:
    """The network front vs the in-process manager on the same replay.

    Three questions, one report: what does a click cost over the wire
    (gated overhead vs the identical in-process replay, both arms on
    fresh shared runtimes over the same prebuilt index); do N concurrent
    HTTP clients see bitwise the displays a solo in-process session sees
    (untimed — the protocol must be transparent, not just fast); and
    does a session survive an abrupt server stop + restart on the same
    state directory via its resume token.
    """
    from repro.service.client import ExplorationClient
    from repro.service.server import ExplorationService

    space = dbauthors_space()
    config = SessionConfig(
        k=5, time_budget_ms=BUDGET_MS, engine="celf", use_profile=False
    )
    base_runtime = GroupSpaceRuntime(space)

    inproc_manager = SessionManager(
        GroupSpaceRuntime(space, index=base_runtime.index),
        default_config=config,
    )
    inproc = _replay_session(inproc_manager, clicks)

    http_manager = SessionManager(
        GroupSpaceRuntime(space, index=base_runtime.index),
        default_config=config,
    )
    with ExplorationService(http_manager).start() as service:
        client = ExplorationClient(service.host, service.port)
        http, _ = _replay_http(client, clicks)
        client.close_connection()

    inproc_p50 = statistics.median(inproc)
    http_p50 = statistics.median(http)

    # Contended parity: N concurrent HTTP clients vs one solo in-process
    # session over a private stack, untimed so selection is deterministic.
    untimed = SessionConfig(
        k=5, time_budget_ms=None, engine="celf", use_profile=False
    )
    parity_clicks = min(clicks, 3)
    solo_manager = SessionManager(
        GroupSpaceRuntime(space, index=base_runtime.index, share_cache=False),
        default_config=untimed,
    )
    expected: list[list[int]] = []
    session_id, shown = solo_manager.open_session()
    visited: set[int] = set()
    for _ in range(parity_clicks):
        gid = scripted_click_gid(shown, visited)
        shown = solo_manager.click(session_id, gid)
        expected.append([group.gid for group in shown])
    parity_manager = SessionManager(
        GroupSpaceRuntime(space, index=base_runtime.index),
        default_config=untimed,
    )
    with ExplorationService(parity_manager).start() as service:

        def contended_displays(_client_index: int) -> list[list[int]]:
            with ExplorationClient(service.host, service.port) as client:
                _, displays = _replay_http(client, parity_clicks)
                return displays

        with ThreadPoolExecutor(max_workers=n_clients) as executor:
            traces = list(executor.map(contended_displays, range(n_clients)))
    parity = all(trace == expected for trace in traces)

    # Durable resume: click, stop the server without closing (the crash),
    # restart over the same state directory, resume by token.
    resume_ok = False
    with tempfile.TemporaryDirectory(prefix="bench-service-state-") as state:
        crash_manager = SessionManager(
            GroupSpaceRuntime(space, index=base_runtime.index),
            default_config=untimed,
            state_dir=state,
        )
        service = ExplorationService(crash_manager).start()
        client = ExplorationClient(service.host, service.port)
        opened = client.open()
        shown = client.click(opened.session_id, opened.display[0].gid)
        service.stop()  # abrupt: no close, in-memory registry lost
        revived_manager = SessionManager(
            GroupSpaceRuntime(space, index=base_runtime.index),
            default_config=untimed,
            state_dir=state,
        )
        with ExplorationService(revived_manager).start() as service:
            with ExplorationClient(service.host, service.port) as client:
                restored = client.open(resume=opened.resume_token)
                resume_ok = [group.gid for group in restored.display] == [
                    group.gid for group in shown
                ]

    return {
        "clients": n_clients,
        "clicks_per_session": clicks,
        "budget_ms": BUDGET_MS,
        "inproc_click_p50_ms": round(inproc_p50, 3),
        "http_click_p50_ms": round(http_p50, 3),
        "http_overhead_p50_ms": round(http_p50 - inproc_p50, 3),
        "contended_parity_clients": n_clients,
        "parity": parity,
        "resume_roundtrip": resume_ok,
    }


def measure_observability(n_clients: int, clicks: int, rounds: int) -> dict:
    """The observability tax: instrumented vs dark HTTP click replay.

    Two servers over the same prebuilt index, both replaying the
    identical untimed scripted walk: one with the production-default
    pipeline armed (metrics registry, event bus, per-request trace
    spans — exactly what ``--metrics on`` serves), one with
    ``metrics=False`` (the kill switch: no registry, no bus, spans
    inert).  Sessions alternate between the arms so machine drift taxes
    both equally; the gated number is the instrumented/dark click p50
    ratio.  Both arms must show bitwise-identical displays — turning
    instrumentation on may never change what the user sees.  A
    contended phase (``n_clients`` concurrent walks against the
    instrumented server) then scrapes ``/metrics`` and asserts the
    non-blocking event bus dropped nothing.
    """
    from repro.obs import parse_prometheus_text
    from repro.service.client import ExplorationClient
    from repro.service.server import ExplorationService

    space = dbauthors_space()
    untimed = SessionConfig(
        k=5, time_budget_ms=None, engine="celf", use_profile=False
    )
    base_runtime = GroupSpaceRuntime(space)

    def service_for(metrics: bool) -> "ExplorationService":
        manager = SessionManager(
            GroupSpaceRuntime(space, index=base_runtime.index),
            default_config=untimed,
        )
        return ExplorationService(manager, metrics=metrics).start()

    latencies: dict[bool, list[float]] = {True: [], False: []}
    displays: dict[bool, list] = {True: [], False: []}
    instrumented = service_for(True)
    dark = service_for(False)
    try:
        arms = {
            True: ExplorationClient(instrumented.host, instrumented.port),
            False: ExplorationClient(dark.host, dark.port),
        }
        try:
            for _round in range(rounds):
                for armed in (True, False):
                    ms, shown = _replay_http(arms[armed], clicks)
                    latencies[armed].extend(ms)
                    displays[armed].append(shown)
        finally:
            for client in arms.values():
                client.close_connection()

        # Contended phase: concurrent walks, then the drop audit.
        def contended_walk(_client_index: int) -> None:
            with ExplorationClient(
                instrumented.host, instrumented.port
            ) as client:
                _replay_http(client, clicks)

        with ThreadPoolExecutor(max_workers=n_clients) as executor:
            list(executor.map(contended_walk, range(n_clients)))
        with ExplorationClient(instrumented.host, instrumented.port) as client:
            parsed = parse_prometheus_text(client.metrics())
    finally:
        instrumented.stop()
        dark.stop()

    dropped = sum(
        value
        for _labels, value in parsed.get("repro_events_dropped_total", [])
    )
    published = sum(
        value
        for _labels, value in parsed.get("repro_events_published_total", [])
    )
    instrumented_p50 = statistics.median(latencies[True])
    dark_p50 = statistics.median(latencies[False])
    return {
        "clicks_per_session": clicks,
        "rounds": rounds,
        "contended_clients": n_clients,
        "instrumented_click_p50_ms": round(instrumented_p50, 3),
        "dark_click_p50_ms": round(dark_p50, 3),
        "click_ratio": round(instrumented_p50 / max(dark_p50, 1e-9), 3),
        "overhead_p50_ms": round(instrumented_p50 - dark_p50, 3),
        "events_published": published,
        "events_dropped": dropped,
        "parity": displays[True] == displays[False],
    }


def measure_spaces(clicks: int) -> dict:
    """Multi-space hosting vs a dedicated single-space server.

    Four questions, one report: what does the router cost per click
    (gated overhead — the identical budgeted replay over the same
    prebuilt index through a two-space registry and through a plain
    single-space server, both live, alternating click by click and
    pooled over several walks); what does a *cold* attach cost (an open
    against a space that only exists as a descriptor: build queued in
    the background, polled to ready) next to a warm routed open; are
    routed displays bitwise the single-space displays (untimed); and
    does a space-level eviction round-trip — checkpoint, drop the
    runtime, lazy rebuild, resume by token — restore the exact display.
    """
    from repro.core.discovery import DiscoveryConfig, discover_groups
    from repro.data.generators.dbauthors import (
        DBAuthorsConfig,
        generate_dbauthors,
    )
    from repro.service.client import ExplorationClient, SpaceBuilding
    from repro.service.server import ExplorationService
    from repro.spaces import SpaceDescriptor, SpaceRegistry

    space = dbauthors_space()
    config = SessionConfig(
        k=5, time_budget_ms=BUDGET_MS, engine="celf", use_profile=False
    )
    base_runtime = GroupSpaceRuntime(space)

    def primary_descriptor() -> SpaceDescriptor:
        return SpaceDescriptor(
            name="primary",
            builder=lambda: GroupSpaceRuntime(
                space, index=base_runtime.index, name="primary"
            ),
        )

    def cold_descriptor() -> SpaceDescriptor:
        # A space that exists only as a recipe: generation + discovery +
        # index build all happen on the registry's worker, which is what
        # a cold attach actually costs.
        def build() -> GroupSpaceRuntime:
            data = generate_dbauthors(DBAuthorsConfig(n_authors=260, seed=13))
            built = discover_groups(
                data.dataset,
                DiscoveryConfig(method="lcm", min_support=0.06, max_description=3),
            )
            return GroupSpaceRuntime(built, name="coldspace")

        return SpaceDescriptor(name="coldspace", builder=build)

    # Routed vs single-space click latency: identical replay, same index.
    # Both servers stay up and the arms alternate click by click, so
    # scheduling drift hits both alike; the walks pool their samples.
    single_manager = SessionManager(
        GroupSpaceRuntime(space, index=base_runtime.index),
        default_config=config,
    )
    registry = SpaceRegistry(
        [primary_descriptor(), cold_descriptor()], default_config=config
    )
    with ExplorationService(single_manager).start() as single_service, \
            ExplorationService(registry=registry).start() as service:
        with ExplorationClient(single_service.host, single_service.port) as \
                single_client, \
                ExplorationClient(service.host, service.port) as client:
            client.open_when_ready(space="primary", timeout_s=60.0)
            clients = (single_client, client)  # routed default: primary
            _paired_walk(clients, clicks)  # warmup: both arms hit warm caches
            single: list[float] = []
            routed: list[float] = []
            for _ in range(SPACES_PAIRED_WALKS):
                (single_samples, routed_samples), _ = _paired_walk(
                    clients, clicks
                )
                single.extend(single_samples)
                routed.extend(routed_samples)
            warm_opens: list[float] = []
            for _ in range(3):
                started = time.perf_counter()
                opened = client.open(space="primary")
                warm_opens.append((time.perf_counter() - started) * 1000.0)
                client.close(opened.session_id)
            # Cold attach: first open answers 202 and queues the build;
            # the clock runs until an open is actually served.
            started = time.perf_counter()
            try:
                client.open(space="coldspace")
                first_answer = "ready"  # degenerate: build won the race
            except SpaceBuilding:
                first_answer = "building"
            client.open_when_ready(space="coldspace", timeout_s=120.0)
            cold_attach_ms = (time.perf_counter() - started) * 1000.0
    registry.shutdown()

    single_p50 = statistics.median(single)
    routed_p50 = statistics.median(routed)

    # Untimed routed parity: the registry path must show bitwise the
    # displays the dedicated server shows (latency arms above are
    # budgeted, so only this comparison is deterministic).
    untimed = SessionConfig(
        k=5, time_budget_ms=None, engine="celf", use_profile=False
    )
    parity_clicks = min(clicks, 3)
    solo_manager = SessionManager(
        GroupSpaceRuntime(space, index=base_runtime.index, share_cache=False),
        default_config=untimed,
    )
    with ExplorationService(solo_manager).start() as service:
        with ExplorationClient(service.host, service.port) as client:
            _, expected = _replay_http(client, parity_clicks)
    parity_registry = SpaceRegistry(
        [primary_descriptor()], default_config=untimed
    )
    with ExplorationService(registry=parity_registry).start() as service:
        with ExplorationClient(service.host, service.port) as client:
            client.open_when_ready(space="primary", timeout_s=60.0)
            _, routed_displays = _replay_http(client, parity_clicks)
    parity_registry.shutdown()
    parity = routed_displays == expected

    # Eviction round trip: click, evict the space (checkpoints live
    # sessions, drops the runtime), lazily rebuild, resume by token.
    resume_ok = False
    with tempfile.TemporaryDirectory(prefix="bench-spaces-state-") as state:
        evict_registry = SpaceRegistry(
            [primary_descriptor()],
            default_config=untimed,
            state_dir=state,
        )
        with ExplorationService(registry=evict_registry).start() as service:
            with ExplorationClient(service.host, service.port) as client:
                opened = client.open_when_ready(space="primary", timeout_s=60.0)
                shown = client.click(opened.session_id, opened.display[0].gid)
                evict_registry.evict("primary")
                restored = client.open_when_ready(
                    space="primary", resume=opened.resume_token, timeout_s=60.0
                )
                resume_ok = [group.gid for group in restored.display] == [
                    group.gid for group in shown
                ]
        evict_registry.shutdown()

    return {
        "clicks_per_session": clicks,
        "paired_walks": SPACES_PAIRED_WALKS,
        "budget_ms": BUDGET_MS,
        "single_space_click_p50_ms": round(single_p50, 3),
        "routed_click_p50_ms": round(routed_p50, 3),
        "routed_overhead_p50_ms": round(routed_p50 - single_p50, 3),
        "warm_route_open_p50_ms": round(statistics.median(warm_opens), 3),
        "cold_attach_ms": round(cold_attach_ms, 3),
        "cold_attach_first_answer": first_answer,
        "parity": parity,
        "evict_resume_roundtrip": resume_ok,
    }


def measure_cold_build(names: tuple[str, ...], repeats: int) -> dict:
    """What a cold start spends building each served group space.

    Per space: the median over ``repeats`` in-process builds of discovery
    (closed-itemset mining + group construction, an uncached
    :func:`discover_groups`) and of the index build (a fresh
    :class:`GroupSpaceRuntime`); data generation is excluded.  Every
    build must reproduce the pinned membership digest — durable sessions,
    arena caches and epoch lineage are stamped with it.
    """
    from repro.core.discovery import discover_groups
    from repro.core.store import space_digest
    from repro.experiments.common import (
        bookcrossing_data,
        bookcrossing_discovery,
        dbauthors_data,
        dbauthors_discovery,
    )

    recipes = {
        "dbauthors": (dbauthors_data, dbauthors_discovery),
        "books": (bookcrossing_data, bookcrossing_discovery),
    }
    report: dict = {}
    for name in names:
        data, discovery = recipes[name]
        dataset, config = data().dataset, discovery()
        discovery_ms: list[float] = []
        index_build_ms: list[float] = []
        digests: set[str] = set()
        for _ in range(repeats):
            started = time.perf_counter()
            space = discover_groups(dataset, config)
            discovered = time.perf_counter()
            GroupSpaceRuntime(space)
            built = time.perf_counter()
            discovery_ms.append((discovered - started) * 1000.0)
            index_build_ms.append((built - discovered) * 1000.0)
            digests.add(space_digest(space.memberships()))
        report[name] = {
            "groups": len(space),
            "discovery_ms": round(statistics.median(discovery_ms), 1),
            "index_build_ms": round(statistics.median(index_build_ms), 1),
            "digest_pinned": digests == {PINNED_SPACE_DIGESTS[name]},
        }
    return report


def measure_index_build(smoke: bool) -> dict:
    """Batched vs per-group-loop prefix ranking on the largest space.

    Times only the ranking stage (the shared membership self-product is
    identical in both paths) on the biggest group space this run
    generates, and checks the two rankings are identical entry for entry.
    """
    candidates = [dbauthors_space()]
    if not smoke:
        candidates.append(bookcrossing_space())
    space = max(candidates, key=len)
    index = SimilarityIndex(space.memberships(), space.dataset.n_users, 0.10)
    overlaps = (index.membership_csr() @ index.membership_csr().T).tocsr()
    sizes = [len(members) for members in space.memberships()]
    budget = index._budget()

    def best_of(ranker, repeats: int = 3) -> tuple[float, tuple]:
        best = float("inf")
        outcome = None
        for _ in range(repeats):
            started = time.perf_counter()
            outcome = ranker(overlaps, sizes, budget)
            best = min(best, (time.perf_counter() - started) * 1000.0)
        return best, outcome

    vectorized_ms, vectorized = best_of(_rank_prefix_vectorized)
    loop_ms, loop = best_of(_rank_prefix_loop)
    parity = all(
        (a == b).all() for a, b in zip(vectorized, loop)
    )
    return {
        "space": space.dataset.name,
        "groups": len(space),
        "prefix_entries": index.memory_entries(),
        "rank_vectorized_ms": round(vectorized_ms, 3),
        "rank_loop_ms": round(loop_ms, 3),
        "build_speedup": round(loop_ms / max(vectorized_ms, 1e-9), 2),
        "parity": bool(parity),
    }


def measure_journal(clicks: int, compact_every: int = 64) -> dict:
    """Session journal: O(1) appends and exact recovery.

    Two claims, one report.  *Flatness*: the fsync'd digest-chained
    append is constant-cost per click — the p50 of appends late in a
    long session must match the p50 around click 10, however long the
    history has grown.  *Recovery*: a second manager over the same
    state directory resumes by token (snapshot + verified journal-tail
    replay) and must show exactly the display the first manager last
    acknowledged.  The click latencies are reported alongside, early
    and late, so a click cost that grows with the session shows.
    """
    space = dbauthors_space()
    config = SessionConfig(
        k=5, time_budget_ms=BUDGET_MS, engine="celf", use_profile=False
    )
    index = GroupSpaceRuntime(space).index
    # Late window: >= 50 clicks in on a full run, the back half in smoke.
    tail_from = min(50, clicks // 2)
    with tempfile.TemporaryDirectory(prefix="bench-journal-state-") as state:
        manager = SessionManager(
            GroupSpaceRuntime(space, index=index),
            default_config=config,
            state_dir=state,
            compact_every=compact_every,
        )
        session_id, shown = manager.open_session()
        click_ms: list[float] = []
        visited: set[int] = set()
        for _ in range(clicks):
            gid = scripted_click_gid(shown, visited)
            started = time.perf_counter()
            shown = manager.click(session_id, gid)
            click_ms.append((time.perf_counter() - started) * 1000.0)
        append_ms = list(manager.session_journal(session_id).append_ms)
        token = manager.resume_token(session_id)
        revived = SessionManager(
            GroupSpaceRuntime(space, index=index),
            default_config=config,
            state_dir=state,
            compact_every=compact_every,
        )
        _, restored = revived.open_session(resume=token)
        recovery_ok = [group.gid for group in restored] == [
            group.gid for group in shown
        ]
        manager.close(session_id)

    # Click 10 vs the session's final stretch; p50s so a compaction
    # landing inside either window cannot skew the flatness claim.
    early_window = append_ms[9:19] if len(append_ms) >= 25 else append_ms[: max(len(append_ms) // 2, 1)]
    late_window = append_ms[-10:]
    append_early = statistics.median(early_window)
    append_late = statistics.median(late_window)
    return {
        "clicks": clicks,
        "budget_ms": BUDGET_MS,
        "compact_every": compact_every,
        "appends": len(append_ms),
        "append_p50_early_ms": round(append_early, 4),
        "append_p50_late_ms": round(append_late, 4),
        "append_flatness": round(append_late / max(append_early, 1e-9), 2),
        "journal_click_p50_ms": round(statistics.median(click_ms), 3),
        "late_from_click": tail_from + 1,
        "journal_late_click_p50_ms": round(
            statistics.median(click_ms[tail_from:]), 3
        ),
        "recovery_roundtrip": recovery_ok,
    }


def measure_mutation(steps: int, clicks: int) -> dict:
    """Online store mutation: delta-epoch apply vs full index rebuild.

    Two claims.  *Speedup*: applying a realistic churn step (1% of
    groups change membership) as a new :class:`StoreEpoch` — compacting
    the space, delta-maintaining the similarity index, invalidating
    shared-cache entries per content fingerprint — must beat rebuilding
    the :class:`SimilarityIndex` from scratch, with bitwise
    serving-prefix parity against the full rebuild on *every* step.
    *Click parity*: a session clicking while mutations land between its
    clicks must see exactly the displays of the identical session on a
    quiesced store — epoch pinning means mutation is invisible to open
    sessions, not merely non-blocking.

    The first (untimed) step is a warmup: it pays one-time costs
    (lazy imports, allocator growth) that would otherwise pollute the
    first measured delta timing.
    """
    import numpy as np

    from repro.core.group import GroupDelta

    space = dbauthors_space()
    runtime = GroupSpaceRuntime(space)
    n_users = space.dataset.n_users
    rng = np.random.default_rng(17)

    def churn_step(current) -> GroupDelta:
        """Member-churn 1% of the current epoch's groups (at least one)."""
        count = max(1, len(current) // 100)
        gids = rng.choice(len(current), size=count, replace=False)
        changed = []
        for gid in sorted(int(g) for g in gids):
            members = current[gid].members
            if len(members) > 1 and rng.random() < 0.5:
                churned = np.delete(members, int(rng.integers(len(members))))
            else:
                churned = np.union1d(
                    members, rng.integers(0, n_users, size=2)
                )
            changed.append((gid, churned))
        return GroupDelta.build(changed=changed)

    runtime.apply_deltas(churn_step(runtime.space))  # warmup (untimed)
    delta_ms: list[float] = []
    rebuild_ms: list[float] = []
    index_parity = True
    for _ in range(steps):
        report = runtime.apply_deltas(churn_step(runtime.space))
        delta_ms.append(float(report["apply_ms"]))
        started = time.perf_counter()
        oracle = SimilarityIndex(
            runtime.space.memberships(),
            n_users,
            materialize_fraction=runtime.index.materialize_fraction,
        )
        rebuild_ms.append((time.perf_counter() - started) * 1000.0)
        index_parity = index_parity and runtime.index.parity_with(oracle)

    # Click parity: identical scripted sessions, quiesced vs mutated
    # mid-flight.  The runtime is rebuilt for each arm so the mutated
    # arm's epochs cannot leak into the quiesced baseline.
    config = SessionConfig(k=5, time_budget_ms=None, use_profile=False)
    base_index = SimilarityIndex(
        space.memberships(),
        n_users,
        materialize_fraction=runtime.index.materialize_fraction,
    )

    def replay(mutate: bool) -> list[list[int]]:
        # apply_delta never mutates an index in place (each epoch gets a
        # new one), so both arms can share the pristine base index.
        arm = GroupSpaceRuntime(space, index=base_index)
        manager = SessionManager(arm, default_config=config)
        session_id, shown = manager.open_session()
        displays = [[group.gid for group in shown]]
        visited: set[int] = set()
        for _ in range(clicks):
            if mutate:
                arm.apply_deltas(churn_step(arm.space))
            shown = manager.click(
                session_id, scripted_click_gid(shown, visited)
            )
            displays.append([group.gid for group in shown])
        return displays

    click_parity = replay(mutate=False) == replay(mutate=True)
    speedup = statistics.median(rebuild_ms) / max(
        statistics.median(delta_ms), 1e-9
    )
    return {
        "steps": steps,
        "groups": len(space),
        "churn_fraction": 0.01,
        "delta_apply_p50_ms": round(statistics.median(delta_ms), 2),
        "full_rebuild_p50_ms": round(statistics.median(rebuild_ms), 2),
        "speedup": round(speedup, 2),
        "index_parity": index_parity,
        "click_parity": click_parity,
    }


def measure_replication(workers: int, sessions: int, clicks: int) -> dict:
    """The multi-process serving tier vs the single-process front.

    Four claims from the shared-nothing replication design.  *Attach*: a
    worker coming up over the shared-memory arena (digest-verified
    zero-copy views) must be much cheaper than the cold per-process
    index rebuild it replaces — gated speedup.  *Throughput*: N workers
    behind the sticky router must lift contended click throughput over
    one GIL (gated on boxes with enough cores; measured either way).
    *Parity* (untimed): every scripted walk through either front shows
    bitwise the displays of a solo in-process session.  *Takeover*
    (untimed): SIGKILL a worker mid-walk, resume its token — the shared
    state directory restores the session field-identical on a surviving
    replica.
    """
    import signal

    from repro.replication import (
        attach_arena,
        publish_arena,
        serve_replicated,
        sweep_orphans,
    )
    from repro.service.client import ExplorationClient
    from repro.service.server import ExplorationService

    space = dbauthors_space()
    config = SessionConfig(k=5, time_budget_ms=None, use_profile=False)
    tag = f"benchrepl{os.getpid()}"

    # -- attach vs cold rebuild ------------------------------------------
    memberships = [group.members for group in space]
    started = time.perf_counter()
    index = SimilarityIndex(
        memberships, space.dataset.n_users, materialize_fraction=0.10
    )
    rebuild_ms = (time.perf_counter() - started) * 1000.0

    sweep_orphans(tag)
    try:
        published = publish_arena(space, index, tag)
        attach_samples = []
        for _ in range(3):
            started = time.perf_counter()
            attached = attach_arena(tag, published.digest)
            GroupSpaceRuntime.from_arena(space.dataset, attached)
            attach_samples.append((time.perf_counter() - started) * 1000.0)
        attach_ms = statistics.median(attach_samples)

        # -- oracle for the untimed parity claims ------------------------
        oracle_session = GroupSpaceRuntime(
            space, share_cache=False
        ).create_session(config)
        shown = oracle_session.start()
        oracle: list[list[int]] = []
        visited: set[int] = set()
        for _ in range(clicks):
            shown = oracle_session.click(scripted_click_gid(shown, visited))
            oracle.append([group.gid for group in shown])

        def contended(host: str, port: int) -> tuple[float, list]:
            def walk(_client_index: int):
                with ExplorationClient(host, port) as client:
                    opened = client.open()
                    shown = opened.display
                    displays: list[list[int]] = []
                    seen: set[int] = set()
                    for _ in range(clicks):
                        shown = client.click(
                            opened.session_id,
                            scripted_click_gid(shown, seen),
                        )
                        displays.append([group.gid for group in shown])
                    return opened.session_id, displays

            started = time.perf_counter()
            with ThreadPoolExecutor(max_workers=sessions) as executor:
                outcomes = list(executor.map(walk, range(sessions)))
            return time.perf_counter() - started, outcomes

        with tempfile.TemporaryDirectory(
            prefix="bench-replication-state-"
        ) as state:
            # -- single-process contended baseline -----------------------
            # Same durability posture as the pool arm (per-click
            # journal appends into a state dir) so the comparison isolates
            # the serving architecture, not the persistence cost.
            single_state = Path(state) / "single"
            single_state.mkdir()
            manager = SessionManager(
                GroupSpaceRuntime(space, index=index),
                default_config=config,
                state_dir=single_state,
            )
            with ExplorationService(manager).start() as service:
                contended(service.host, service.port)  # warmup
                single_s, single_outcomes = contended(
                    service.host, service.port
                )

            # -- the worker pool -----------------------------------------
            pool_state = Path(state) / "pool"
            pool_state.mkdir()
            pool_front = serve_replicated(
                space.dataset,
                space,
                index,
                workers=workers,
                tag=tag,
                state_dir=pool_state,
                space_name="bench",
                default_config=config,
            )
            try:
                contended(pool_front.host, pool_front.port)  # warmup
                pool_s, pool_outcomes = contended(
                    pool_front.host, pool_front.port
                )
                worker_spread = len(
                    {sid.split("-")[0] for sid, _ in pool_outcomes}
                )

                # -- kill-one-worker takeover (untimed) ------------------
                with ExplorationClient(
                    pool_front.host, pool_front.port
                ) as client:
                    opened = client.open()
                    shown = opened.display
                    seen: set[int] = set()
                    last: list[int] = []
                    for _ in range(2):
                        shown = client.click(
                            opened.session_id,
                            scripted_click_gid(shown, seen),
                        )
                        last = [group.gid for group in shown]
                    victim = int(opened.session_id.split("-")[0][1:])
                    pid = next(
                        row["pid"]
                        for row in client.replicas()
                        if row["index"] == victim
                    )
                    os.kill(pid, signal.SIGKILL)
                    time.sleep(0.2)
                    resumed = client.open(resume=opened.resume_token)
                    takeover = (
                        not resumed.session_id.startswith(f"w{victim}-")
                        and [group.gid for group in resumed.display] == last
                    )
            finally:
                pool_front.stop()
    finally:
        sweep_orphans(tag)

    total_clicks = sessions * clicks
    single_tput = total_clicks / max(single_s, 1e-9)
    pool_tput = total_clicks / max(pool_s, 1e-9)
    parity = all(
        displays == oracle for _, displays in single_outcomes
    ) and all(displays == oracle for _, displays in pool_outcomes)
    return {
        "workers": workers,
        "sessions": sessions,
        "clicks_per_session": clicks,
        "cpu_count": os.cpu_count() or 1,
        "rebuild_ms": round(rebuild_ms, 1),
        "attach_ms": round(attach_ms, 2),
        "attach_speedup": round(rebuild_ms / max(attach_ms, 1e-9), 1),
        "arena_bytes": published.size,
        "single_clicks_per_s": round(single_tput, 1),
        "pool_clicks_per_s": round(pool_tput, 1),
        "contended_speedup": round(pool_tput / max(single_tput, 1e-9), 2),
        "worker_spread": worker_spread,
        "parity": parity,
        "takeover_roundtrip": takeover,
    }


def measure_replication_spaces(workers: int, clicks: int) -> dict:
    """The two-space replicated tier vs a one-space fleet and one worker.

    Three claims.  *Routed overhead*: a click through a two-space pool
    (composed ``w<i>-<space>-s0001`` ids, per-space forwarding) must sit
    within a small constant of the one-space fleet's click p50 over the
    *same* space and fleet size — gated.  *Router hop*: the same walk
    through the router must sit within the same constant of the walk
    sent straight to one worker's port — gated on every host, since one
    hop's latency is not a throughput claim.  *Warm boot*: re-creating a
    space's arena from
    the ``--arena-cache`` snapshot (mmap + verified attach + zero-copy
    runtime) must beat the cold path it replaces (discovery + index
    build + publish) by a gated factor; dataset synthesis is excluded
    from both arms since both perform it identically.  *Parity*
    (untimed): the composed walk shows bitwise the solo session's
    displays.
    """
    from repro.core.discovery import discover_groups
    from repro.experiments.common import dbauthors_discovery
    from repro.replication import (
        attach_arena,
        load_arena_cache,
        publish_arena,
        save_arena_cache,
        serve_replicated,
        serve_replicated_spaces,
        sweep_orphans,
    )
    from repro.service.client import ExplorationClient
    from repro.spaces.descriptor import SpaceDescriptor

    config = SessionConfig(k=5, time_budget_ms=None, use_profile=False)
    tag = f"benchspaces{os.getpid()}"
    space = dbauthors_space()
    index = SimilarityIndex(
        [group.members for group in space], space.dataset.n_users, 0.10
    )

    # -- oracle walk ------------------------------------------------------
    oracle_session = GroupSpaceRuntime(space, share_cache=False).create_session(
        config
    )
    shown = oracle_session.start()
    oracle: list[list[int]] = []
    visited: set[int] = set()
    for _ in range(clicks):
        shown = oracle_session.click(scripted_click_gid(shown, visited))
        oracle.append([group.gid for group in shown])

    def timed_walk(host: str, port: int, space_name=None):
        with ExplorationClient(host, port) as client:
            opened = client.open_when_ready(space=space_name, timeout_s=300.0)
            shown = opened.display
            seen: set[int] = set()
            samples, displays = [], []
            for _ in range(clicks):
                gid = scripted_click_gid(shown, seen)
                started = time.perf_counter()
                shown = client.click(opened.session_id, gid)
                samples.append((time.perf_counter() - started) * 1000.0)
                displays.append([group.gid for group in shown])
            return statistics.median(samples), displays

    def paired_walk(service):
        """The scripted walk through the router and straight to w0."""
        ports = (service.port, service.pool.replicas[0].port)
        with ExplorationClient(service.host, ports[0]) as routed, \
                ExplorationClient(service.host, ports[1]) as direct:
            return _paired_walk((routed, direct), clicks)

    sweep_orphans(tag)
    sweep_orphans(f"{tag}m")
    sweep_orphans(f"{tag}h")
    try:
        with tempfile.TemporaryDirectory(prefix="bench-spaces-") as scratch:
            # -- single-space replicated baseline ------------------------
            single = serve_replicated(
                space.dataset,
                space,
                index,
                workers=workers,
                tag=tag,
                state_dir=Path(scratch) / "single",
                space_name="bench",
                default_config=config,
            )
            try:
                timed_walk(single.host, single.port)  # warmup
                single_p50, single_displays = timed_walk(
                    single.host, single.port
                )
            finally:
                single.stop()

            # -- the composed registry pool, same space + a sibling ------
            composed = serve_replicated_spaces(
                [
                    SpaceDescriptor(
                        name="bench",
                        generator={"kind": "dbauthors", "seed": 11},
                        discovery={
                            "method": "lcm",
                            "min_support": 0.04,
                            "max_description": 3,
                        },
                    ),
                    SpaceDescriptor(
                        name="sibling",
                        generator={
                            "kind": "dbauthors",
                            "n_authors": 300,
                            "seed": 7,
                        },
                        discovery={
                            "method": "lcm",
                            "min_support": 0.08,
                            "max_description": 3,
                        },
                    ),
                ],
                workers=workers,
                tag=f"{tag}m",
                state_dir=Path(scratch) / "spaces",
                default_config=config,
            )
            try:
                timed_walk(composed.host, composed.port, "bench")  # warmup
                spaces_p50, spaces_displays = timed_walk(
                    composed.host, composed.port, "bench"
                )
            finally:
                composed.stop()

            # -- the router hop: routed vs straight to the worker --------
            # In-memory sessions: a per-click journal fsync jitters by
            # more than the hop costs.  One worker, so both arms walk the
            # same replica, click by click in alternating order so drift
            # hits both arms alike; three walks pool the samples.
            hop = serve_replicated(
                space.dataset,
                space,
                index,
                workers=1,
                tag=f"{tag}h",
                space_name="bench",
                default_config=config,
            )
            try:
                paired_walk(hop)  # warmup: both arms then hit warm caches
                hop_samples: tuple[list, list] = ([], [])
                for _ in range(3):
                    samples, hop_displays = paired_walk(hop)
                    for arm, values in zip(hop_samples, samples):
                        arm.extend(values)
                routed_p50, direct_p50 = (
                    statistics.median(arm) for arm in hop_samples
                )
            finally:
                hop.stop()

        # -- arena-cache warm boot vs cold publish -----------------------
        with tempfile.TemporaryDirectory(prefix="bench-arena-cache-") as cache:
            started = time.perf_counter()
            cold_space = discover_groups(space.dataset, dbauthors_discovery())
            cold_index = SimilarityIndex(
                [group.members for group in cold_space],
                cold_space.dataset.n_users,
                0.10,
            )
            published = publish_arena(cold_space, cold_index, tag)
            cold_ms = (time.perf_counter() - started) * 1000.0
            save_arena_cache(published, tag, cache)
            published.unlink()
            published.close()

            started = time.perf_counter()
            loaded = load_arena_cache(tag, cache)
            attached = attach_arena(tag, loaded.digest)
            warm_runtime = GroupSpaceRuntime.from_arena(
                space.dataset, attached
            )
            warm_ms = (time.perf_counter() - started) * 1000.0
            warm_start = [
                group.gid
                for group in warm_runtime.create_session(config).start()
            ]
            solo_start = [
                group.gid
                for group in GroupSpaceRuntime(
                    space, share_cache=False
                ).create_session(config).start()
            ]
            loaded.unlink()
            loaded.close()
    finally:
        sweep_orphans(tag)
        sweep_orphans(f"{tag}m")
        sweep_orphans(f"{tag}h")

    return {
        "workers": workers,
        "clicks": clicks,
        "cpu_count": os.cpu_count() or 1,
        "single_replicated_click_p50_ms": round(single_p50, 3),
        "spaces_replicated_click_p50_ms": round(spaces_p50, 3),
        "routed_overhead_p50_ms": round(spaces_p50 - single_p50, 3),
        "routed_worker_click_p50_ms": round(routed_p50, 3),
        "direct_worker_click_p50_ms": round(direct_p50, 3),
        "router_hop_p50_ms": round(routed_p50 - direct_p50, 3),
        "cold_publish_ms": round(cold_ms, 1),
        "warm_boot_ms": round(warm_ms, 1),
        "warm_boot_speedup": round(cold_ms / max(warm_ms, 1e-9), 1),
        "parity": (
            single_displays == oracle
            and spaces_displays == oracle
            and hop_displays == (oracle, oracle)
            and warm_start == solo_start
        ),
    }


def host_block() -> dict:
    """The machine a report was measured on."""
    import numpy

    return {
        "cores": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def run(
    n_parents: int,
    n_genres: int,
    repeats: int,
    clicks: int,
    cache_rounds: int,
    serving_sessions: int = 8,
    serving_clicks: int = 4,
    serving_threads: int = 8,
    service_clients: int = 8,
    service_clicks: int = 4,
    journal_clicks: int = 200,
    smoke: bool = False,
) -> dict:
    pools = {"C2": c2_pools(n_parents), "C7": c7_pools(n_genres)}
    report: dict = {
        "benchmark": "selection-engine",
        "host": host_block(),
        "budget_ms": BUDGET_MS,
        "pools": {
            name: {
                "count": len(entries),
                "pool_sizes": [len(pool) for _, pool in entries],
            }
            for name, entries in pools.items()
        },
        "engines": {},
        "speedup": {},
        "parity": {},
    }
    for engine in ENGINES:
        engine_report: dict = {}
        for name, entries in pools.items():
            if entries:
                engine_report[name] = measure_pools(entries, engine, repeats)
        engine_report["C1"] = measure_clicks(engine, clicks)
        report["engines"][engine] = engine_report
    for name, entries in pools.items():
        if not entries:
            continue
        reference = report["engines"]["reference"][name]
        optimized = report["engines"]["celf"][name]
        report["speedup"][f"{name}_evals_per_100ms"] = round(
            optimized["evals_per_100ms_median"]
            / max(reference["evals_per_100ms_median"], 1e-9),
            2,
        )
        report["parity"][name] = check_parity(entries)
    reference_click = report["engines"]["reference"]["C1"]["click_p50_ms"]
    optimized_click = report["engines"]["celf"]["C1"]["click_p50_ms"]
    report["speedup"]["click_p50"] = round(
        reference_click / max(optimized_click, 1e-9), 2
    )
    report["cache"] = measure_cache(pools["C2"], cache_rounds, repeats)
    report["governor"] = measure_governor(pools["C2"], repeats)
    report["serving"] = measure_serving(
        serving_sessions, serving_clicks, serving_threads
    )
    report["parity"]["serving"] = report["serving"]["parity"]
    report["service"] = measure_service(service_clients, service_clicks)
    report["parity"]["service"] = (
        report["service"]["parity"] and report["service"]["resume_roundtrip"]
    )
    report["observability"] = measure_observability(
        n_clients=service_clients,
        clicks=service_clicks,
        rounds=3 if smoke else 6,
    )
    report["parity"]["observability"] = (
        report["observability"]["parity"]
        and report["observability"]["events_dropped"] == 0.0
    )
    report["spaces"] = measure_spaces(service_clicks)
    report["parity"]["spaces"] = (
        report["spaces"]["parity"]
        and report["spaces"]["evict_resume_roundtrip"]
    )
    report["journal"] = measure_journal(journal_clicks)
    report["parity"]["journal"] = report["journal"]["recovery_roundtrip"]
    report["cold_build"] = measure_cold_build(
        ("dbauthors",) if smoke else ("dbauthors", "books"),
        repeats=1 if smoke else 3,
    )
    report["parity"]["cold_build"] = all(
        entry["digest_pinned"] for entry in report["cold_build"].values()
    )
    report["index_build"] = measure_index_build(smoke)
    report["parity"]["index_build"] = report["index_build"]["parity"]
    report["mutation"] = measure_mutation(
        steps=1 if smoke else 5, clicks=2 if smoke else 3
    )
    report["parity"]["mutation"] = (
        report["mutation"]["index_parity"] and report["mutation"]["click_parity"]
    )
    report["replication"] = measure_replication(
        workers=2 if smoke else 4,
        sessions=4 if smoke else 8,
        clicks=2 if smoke else 4,
    )
    report["parity"]["replication"] = (
        report["replication"]["parity"]
        and report["replication"]["takeover_roundtrip"]
    )
    report["replication_spaces"] = measure_replication_spaces(
        workers=2, clicks=4 if smoke else 24
    )
    report["parity"]["replication_spaces"] = report["replication_spaces"][
        "parity"
    ]
    return report


def load_prior(path: Path) -> tuple:
    """(prior report or None, error string or None) for the existing output.

    A present-but-malformed file is an error: the caller exits nonzero
    instead of overwriting evidence of corruption (or crashing with a
    traceback mid-benchmark).
    """
    if not path.exists():
        return None, None
    try:
        prior = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError, OSError) as error:
        return None, f"{type(error).__name__}: {error}"
    if not isinstance(prior, dict):
        return None, f"expected a JSON object, found {type(prior).__name__}"
    return prior, None


def print_deltas(prior: dict, report: dict) -> None:
    """Trajectory vs the previous run of this harness (best effort)."""
    try:
        previous_click = prior["engines"]["celf"]["C1"]["click_p50_ms"]
        current_click = report["engines"]["celf"]["C1"]["click_p50_ms"]
        print(
            f"click p50 trajectory: {previous_click} ms -> {current_click} ms"
        )
    except (KeyError, TypeError):
        pass
    try:
        previous_ratio = prior["cache"]["warm_cold_click_ratio"]
        current_ratio = report["cache"]["warm_cold_click_ratio"]
        print(
            "warm/cold click ratio trajectory: "
            f"{previous_ratio}x -> {current_ratio}x"
        )
    except (KeyError, TypeError):
        pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument(
        "--quick", action="store_true", help="fewer pools/repeats (quick run)"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "minimal end-to-end pass (CI / pytest self-test): one dbauthors "
            "pool, no bookcrossing space, relaxed gates"
        ),
    )
    args = parser.parse_args()
    prior, prior_error = load_prior(args.out)
    if prior_error is not None:
        print(
            f"error: existing {args.out} is not valid benchmark JSON "
            f"({prior_error}); move it aside before re-running",
            file=sys.stderr,
        )
        return 2
    if args.smoke:
        report = run(
            n_parents=1, n_genres=0, repeats=1, clicks=3, cache_rounds=2,
            serving_sessions=3, serving_clicks=2, serving_threads=2,
            service_clients=3, service_clicks=2, journal_clicks=40,
            smoke=True,
        )
    elif args.quick:
        report = run(
            n_parents=2, n_genres=1, repeats=2, clicks=5, cache_rounds=3,
            serving_sessions=4, serving_clicks=3, serving_threads=4,
            service_clients=4, service_clicks=3, journal_clicks=80,
        )
    else:
        report = run(n_parents=6, n_genres=3, repeats=5, clicks=11, cache_rounds=6)
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report, indent=2))
    if prior is not None:
        print_deltas(prior, report)
    ok = all(report["parity"].values())
    for name in ("C2", "C7"):
        speedup = report["speedup"].get(f"{name}_evals_per_100ms")
        if speedup is None:
            continue
        print(f"{name}: {speedup:.1f}x objective evaluations per 100 ms")
        ok = ok and speedup >= 5.0
    ratio = report["cache"]["warm_cold_click_ratio"]
    gate = 1.0 if args.smoke else WARM_COLD_GATE
    print(
        f"cache: warm click {ratio:.1f}x faster than cold "
        f"(gate {gate:.1f}x, {'smoke' if args.smoke else 'full'})"
    )
    ok = ok and ratio >= gate
    serving_speedup = report["serving"]["later_cold_click_speedup"]
    # Smoke runs only require the shared runtime to not be slower (tiny
    # workloads on noisy CI boxes); full runs hold the 2x bar.
    serving_gate = 0.8 if args.smoke else SERVING_GATE
    print(
        f"serving: later sessions {serving_speedup:.1f}x faster over the "
        f"shared runtime (gate {serving_gate:.1f}x), cross-session hit rate "
        f"{report['serving']['cross_session_structure_hit_rate']:.0%} "
        f"structures / {report['serving']['cross_session_result_hit_rate']:.0%} "
        f"results"
    )
    ok = ok and serving_speedup >= serving_gate
    service_overhead = report["service"]["http_overhead_p50_ms"]
    overhead_gate = (
        SERVICE_OVERHEAD_SMOKE_GATE_MS if args.smoke else SERVICE_OVERHEAD_GATE_MS
    )
    print(
        f"service: HTTP adds {service_overhead:+.2f} ms to the in-process "
        f"click p50 (gate {overhead_gate:.0f} ms), "
        f"{report['service']['contended_parity_clients']}-client parity "
        f"{'ok' if report['service']['parity'] else 'BROKEN'}, crash resume "
        f"{'ok' if report['service']['resume_roundtrip'] else 'BROKEN'}"
    )
    ok = ok and service_overhead <= overhead_gate
    observability = report["observability"]
    obs_ratio = observability["click_ratio"]
    obs_gate = (
        OBSERVABILITY_CLICK_RATIO_SMOKE_GATE
        if args.smoke
        else OBSERVABILITY_CLICK_RATIO_GATE
    )
    print(
        f"observability: instrumented click p50 {obs_ratio:.2f}x the dark "
        f"server ({observability['overhead_p50_ms']:+.3f} ms, gate "
        f"{obs_gate:.2f}x or under "
        f"{OBSERVABILITY_OVERHEAD_FLOOR_MS:.2f} ms), "
        f"{observability['events_published']:.0f} events published / "
        f"{observability['events_dropped']:.0f} dropped, display parity "
        f"{'ok' if observability['parity'] else 'BROKEN'}"
    )
    ok = ok and (
        obs_ratio <= obs_gate
        or observability["overhead_p50_ms"] <= OBSERVABILITY_OVERHEAD_FLOOR_MS
    )
    ok = ok and observability["events_dropped"] == 0.0
    spaces_overhead = report["spaces"]["routed_overhead_p50_ms"]
    spaces_gate = (
        SPACES_OVERHEAD_SMOKE_GATE_MS if args.smoke else SPACES_OVERHEAD_GATE_MS
    )
    print(
        f"spaces: routing adds {spaces_overhead:+.2f} ms to the "
        f"single-space click p50 (gate {spaces_gate:.0f} ms), cold attach "
        f"{report['spaces']['cold_attach_ms']:.0f} ms vs warm routed open "
        f"{report['spaces']['warm_route_open_p50_ms']:.1f} ms, routed parity "
        f"{'ok' if report['spaces']['parity'] else 'BROKEN'}, evict+resume "
        f"{'ok' if report['spaces']['evict_resume_roundtrip'] else 'BROKEN'}"
    )
    ok = ok and spaces_overhead <= spaces_gate
    journal_flatness = report["journal"]["append_flatness"]
    flatness_gate = (
        JOURNAL_FLATNESS_SMOKE_GATE if args.smoke else JOURNAL_FLATNESS_GATE
    )
    print(
        f"journal: append p50 {report['journal']['append_p50_late_ms']:.3f} ms "
        f"at click {report['journal']['appends']} vs "
        f"{report['journal']['append_p50_early_ms']:.3f} ms at click 10 "
        f"({journal_flatness:.2f}x, gate {flatness_gate:.1f}x); journaled "
        f"click p50 {report['journal']['journal_late_click_p50_ms']:.1f} ms "
        f"from click {report['journal']['late_from_click']}, crash resume "
        f"{'ok' if report['journal']['recovery_roundtrip'] else 'BROKEN'}"
    )
    ok = ok and journal_flatness <= flatness_gate
    for name, entry in report["cold_build"].items():
        print(
            f"cold build: {name} discovery {entry['discovery_ms']:.0f} ms + "
            f"index build {entry['index_build_ms']:.0f} ms "
            f"({entry['groups']} groups), pinned digest "
            f"{'ok' if entry['digest_pinned'] else 'BROKEN'}"
        )
    build_speedup = report["index_build"]["build_speedup"]
    print(
        f"index build: batched ranking {build_speedup:.1f}x the per-group "
        f"loop on {report['index_build']['space']} "
        f"({report['index_build']['groups']} groups)"
    )
    if not args.smoke:
        ok = ok and build_speedup >= 1.0
    mutation = report["mutation"]
    print(
        f"mutation: delta epoch apply {mutation['delta_apply_p50_ms']:.1f} ms "
        f"vs full rebuild {mutation['full_rebuild_p50_ms']:.1f} ms on a "
        f"{mutation['churn_fraction']:.0%}-churn step over "
        f"{mutation['groups']} groups — {mutation['speedup']:.1f}x "
        f"(gate {MUTATION_SPEEDUP_GATE:.1f}x, full runs), index parity "
        f"{'ok' if mutation['index_parity'] else 'BROKEN'}, mid-mutation "
        f"click parity {'ok' if mutation['click_parity'] else 'BROKEN'}"
    )
    if not args.smoke:
        ok = ok and mutation["speedup"] >= MUTATION_SPEEDUP_GATE
    replication = report["replication"]
    attach_gate = (
        REPLICATION_ATTACH_SMOKE_GATE if args.smoke else REPLICATION_ATTACH_GATE
    )
    print(
        f"replication: arena attach {replication['attach_ms']:.1f} ms vs "
        f"cold rebuild {replication['rebuild_ms']:.0f} ms — "
        f"{replication['attach_speedup']:.1f}x (gate {attach_gate:.1f}x), "
        f"{replication['workers']}-worker contended throughput "
        f"{replication['pool_clicks_per_s']:.0f} clicks/s vs single-process "
        f"{replication['single_clicks_per_s']:.0f} — "
        f"{replication['contended_speedup']:.2f}x across "
        f"{replication['worker_spread']} workers, cross-worker parity "
        f"{'ok' if replication['parity'] else 'BROKEN'}, kill-one takeover "
        f"{'ok' if replication['takeover_roundtrip'] else 'BROKEN'}"
    )
    ok = ok and replication["attach_speedup"] >= attach_gate
    if args.smoke:
        ok = ok and (
            replication["contended_speedup"]
            >= REPLICATION_THROUGHPUT_SMOKE_GATE
        )
    elif replication["cpu_count"] >= replication["workers"] + 2:
        ok = ok and (
            replication["contended_speedup"] >= REPLICATION_THROUGHPUT_GATE
        )
    else:
        print(
            f"replication: throughput gate waived — "
            f"{replication['cpu_count']} cores cannot host "
            f"{replication['workers']} workers + router + clients"
        )
    spaces_repl = report["replication_spaces"]
    spaces_repl_gate = (
        REPLICATION_SPACES_OVERHEAD_SMOKE_GATE_MS
        if args.smoke
        else REPLICATION_SPACES_OVERHEAD_GATE_MS
    )
    warm_gate = (
        ARENA_CACHE_WARM_SMOKE_GATE if args.smoke else ARENA_CACHE_WARM_GATE
    )
    print(
        f"replication spaces: composed routing adds "
        f"{spaces_repl['routed_overhead_p50_ms']:+.2f} ms to the "
        f"single-space replicated click p50 "
        f"{spaces_repl['single_replicated_click_p50_ms']:.2f} ms "
        f"(gate {spaces_repl_gate:.0f} ms); arena-cache warm boot "
        f"{spaces_repl['warm_boot_ms']:.0f} ms vs cold publish "
        f"{spaces_repl['cold_publish_ms']:.0f} ms — "
        f"{spaces_repl['warm_boot_speedup']:.1f}x (gate {warm_gate:.1f}x), "
        f"composed parity {'ok' if spaces_repl['parity'] else 'BROKEN'}"
    )
    if spaces_repl["cpu_count"] >= spaces_repl["workers"] + 2:
        ok = ok and (
            spaces_repl["routed_overhead_p50_ms"] <= spaces_repl_gate
        )
    else:
        print(
            f"replication spaces: routed-overhead gate waived — "
            f"{spaces_repl['cpu_count']} cores cannot host "
            f"{spaces_repl['workers']} workers + router + clients"
        )
    print(
        f"replication spaces: the router hop adds "
        f"{spaces_repl['router_hop_p50_ms']:+.2f} ms to the click p50 "
        f"{spaces_repl['direct_worker_click_p50_ms']:.2f} ms sent straight "
        f"to one worker (gate {spaces_repl_gate:.0f} ms, no core waiver)"
    )
    ok = ok and spaces_repl["router_hop_p50_ms"] <= spaces_repl_gate
    ok = ok and spaces_repl["warm_boot_speedup"] >= warm_gate
    print(f"parity: {report['parity']}  ->  {'OK' if ok else 'REGRESSION'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
