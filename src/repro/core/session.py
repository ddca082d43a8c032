"""The VEXUS exploration loop.

§II wires five modules around an explorer: GROUPVIZ shows k groups, a click
is implicit positive feedback (CONTEXT), the next k similar-but-diverse
groups are computed within the latency budget, HISTORY records each step
with backtracking, MEMO collects the analysis goal.  This module owns that
loop; visualization (:mod:`repro.viz`) and simulated explorers
(:mod:`repro.agents`) plug into it from outside.

Interaction costs, matching §II-B: ``click`` = one materialized index
lookup + the time-budgeted greedy (the only non-O(1) part, bounded by its
budget); ``backtrack``, ``bookmark`` and CONTEXT edits are O(1) in the
group space size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.context import ContextView
from repro.core.feedback import FeedbackVector
from repro.core.group import Group, GroupSpace
from repro.core.history import History, Step
from repro.core.memo import Memo
from repro.core.poolcache import PoolStatsCache
from repro.core.profile import ExplorerProfile
from repro.core.runtime import GroupSpaceRuntime
from repro.core.selection import SelectionConfig, SelectionResult, select_k
from repro.index.inverted import SimilarityIndex
from repro.obs.trace import span


@dataclass
class SessionConfig:
    """Session-level knobs (defaults follow the paper's choices)."""

    k: int = 5  # ≤ 7 (Miller's law, §II-A)
    time_budget_ms: Optional[float] = 100.0  # continuity-preserving latency
    similarity_floor: float = 0.01  # lower bound on similarity (§II-B)
    max_pool: int = 200
    materialize_fraction: float = 0.10
    reward: float = 1.0
    use_profile: bool = True
    #: §II-B: "To incorporate feedback in the greedy optimizer behind the
    #: group visualizer, we consider a weighted similarity function."  When
    #: on, the candidate pool is re-ranked by feedback-weighted Jaccard to
    #: the clicked group before selection.
    weighted_similarity: bool = False
    #: Selection engine behind every click: the vectorized lazy-greedy
    #: engine ("celf", default) or the brute-force parity oracle
    #: ("reference") — see :mod:`repro.core.selection`.
    engine: str = "celf"
    #: Adaptive budget governor: spend converged-early budget slack on
    #: escalation tiers (restart fills, wider pools, deeper swaps) within
    #: the same deadline — see :mod:`repro.core.selection`.
    governor: bool = False
    #: Reuse pool statistics across this session's clicks via a
    #: :class:`repro.core.poolcache.PoolStatsCache` (transparent: cached
    #: and uncached sessions show identical displays).
    cache_pools: bool = True
    #: Structure entries the session cache retains (LRU-bounded).
    cache_capacity: int = 32
    #: Explicit selection config; built from the session-level knobs above
    #: in ``__post_init__`` when left ``None`` (and guaranteed non-None
    #: afterwards).
    selection: Optional[SelectionConfig] = None

    def __post_init__(self) -> None:
        # The paper keeps k <= 7 (limited options, P1); the hard ceiling here
        # is looser so experiment C7 can sweep past the knee and show *why*
        # 7 is the right default.
        if self.k < 1 or self.k > 15:
            raise ValueError("k must be in 1..15 (P1 wants <= 7)")
        if self.cache_capacity < 1:
            raise ValueError("cache_capacity must be >= 1")
        if self.selection is None:
            self.selection = SelectionConfig(
                k=self.k,
                time_budget_ms=self.time_budget_ms,
                max_candidates=self.max_pool,
                engine=self.engine,
                governor=self.governor,
            )
        else:
            if self.selection.engine != self.engine:
                # An explicit SelectionConfig is authoritative; a
                # *non-default* SessionConfig.engine disagreeing with it is
                # a caller error (e.g. a parity experiment that would
                # silently measure one engine against itself).
                if self.engine != "celf":
                    raise ValueError(
                        f"engine={self.engine!r} conflicts with "
                        f"selection.engine={self.selection.engine!r}; set one"
                    )
                self.engine = self.selection.engine
            if self.governor and not self.selection.governor:
                # Same authority rule for the governor: an explicit
                # selection config that disables it must not be silently
                # overridden by the session-level convenience flag.
                raise ValueError(
                    "governor=True conflicts with selection.governor=False; "
                    "set one"
                )
            self.governor = self.selection.governor


class ExplorationSession:
    """One explorer's interactive walk over a group space.

    Every session is served by a
    :class:`~repro.core.runtime.GroupSpaceRuntime` that owns the shared
    artifacts (similarity index, pooled membership CSR, cross-session
    cache).  Passing ``runtime`` explicitly — or creating the session via
    :meth:`GroupSpaceRuntime.create_session` / a
    :class:`~repro.core.runtime.SessionManager` — shares those artifacts
    with every other session on the runtime; the legacy
    ``ExplorationSession(space, index, config)`` form keeps working by
    wrapping its arguments in a private runtime (no cross-session layer,
    identical behaviour to the pre-runtime stack).
    """

    def __init__(
        self,
        space: Optional[GroupSpace] = None,
        index: Optional[SimilarityIndex] = None,
        config: Optional[SessionConfig] = None,
        runtime: Optional[GroupSpaceRuntime] = None,
    ) -> None:
        self.config = config or SessionConfig()
        if runtime is None:
            if space is None:
                raise ValueError("ExplorationSession needs a space or a runtime")
            runtime = GroupSpaceRuntime(
                space,
                index=index,
                materialize_fraction=self.config.materialize_fraction,
                share_cache=False,
            )
        else:
            current = runtime.current_epoch()
            if space is not None and space is not current.space:
                raise ValueError(
                    "space and runtime disagree; pass one or the other"
                )
            if index is not None and index is not current.index:
                raise ValueError(
                    "index and runtime disagree; the runtime owns the index"
                )
        self.runtime = runtime
        # One atomic epoch read: reading ``runtime.space`` and
        # ``runtime.index`` as two separate property accesses could
        # straddle an ``apply_deltas`` swap and pair a new space with an
        # old index.  The session pins this epoch for its whole life —
        # in-flight clicks keep reading a consistent generation while
        # mutations publish new epochs around it.
        self.epoch = runtime.current_epoch()
        self.space = self.epoch.space
        self.index = self.epoch.index
        self.feedback = FeedbackVector()
        self.history = History()
        self.memo = Memo()
        self.profile = ExplorerProfile()
        self.context = ContextView(self.feedback, self.space.dataset)
        self._displayed: list[Group] = []
        self.last_selection: Optional[SelectionResult] = None
        # Session-scoped reuse of pool statistics across clicks: keyed on
        # content fingerprints (transparent), seeded with the runtime's
        # membership matrix so cold pools slice rows instead of
        # rebuilding, and wired to the runtime's cross-session layer
        # (when it has one) so other sessions' precomputation and
        # converged results are consulted before computing.  The
        # feedback and governor layers stay private to this session.
        self.pool_cache: Optional[PoolStatsCache] = (
            runtime.session_cache(
                capacity=self.config.cache_capacity, epoch=self.epoch
            )
            if self.config.cache_pools
            else None
        )

    def rebind_epoch(self, epoch) -> None:
        """Re-pin a *fresh* session onto a retained older epoch.

        The resume hook: a checkpoint saved under epoch N must replay
        against epoch N's space and index even when the runtime has
        since moved on.  Only a session with no history may rebind —
        state already accumulated against one generation cannot be
        reinterpreted against another.
        """
        if len(self.history) or self._displayed or len(self.feedback):
            raise ValueError("rebind_epoch requires a fresh session")
        self.epoch = epoch
        self.space = epoch.space
        self.index = epoch.index
        self.context = ContextView(self.feedback, self.space.dataset)
        if self.pool_cache is not None:
            self.pool_cache = self.runtime.session_cache(
                capacity=self.config.cache_capacity, epoch=epoch
            )

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------

    def start(self, seed_gids: Optional[list[int]] = None) -> list[Group]:
        """Show the initial k groups.

        With no seeds, the pool is the largest groups (a summary of the
        dataset); with seeds (e.g. last year's PC in Scenario 1) the pool is
        the seeds plus their index neighborhoods.
        """
        with span("pool_build"):
            if seed_gids is None:
                pool = self.space.largest(self.config.max_pool)
            else:
                pool_ids: list[int] = []
                for gid in seed_gids:
                    if gid not in pool_ids:
                        pool_ids.append(gid)
                    for neighbor in self.index.neighbors(
                        gid, self.config.max_pool
                    ):
                        if neighbor.group not in pool_ids:
                            pool_ids.append(neighbor.group)
                pool = [
                    self.space[gid] for gid in pool_ids[: self.config.max_pool]
                ]
        relevant = np.arange(self.space.dataset.n_users, dtype=np.int64)
        result = select_k(
            pool, relevant, self.feedback, self.config.selection,
            cache=self.pool_cache,
        )
        self._displayed = result.groups
        self.last_selection = result
        self.history.record(None, result.gids(), self.feedback.snapshot())
        return list(self._displayed)

    def click(self, gid: int) -> list[Group]:
        """Select a displayed group; learn feedback; show the next k.

        The next candidates come from the clicked group's inverted index
        prefix, filtered by the similarity lower bound, profile-reranked,
        then greedily optimized for diversity + coverage of the clicked
        group's members within the time budget (§II-B).
        """
        group = self.space[gid]
        self.feedback.learn_group(
            group.members, group.description, reward=self.config.reward
        )
        self.profile.observe(group)

        with span("pool_build"):
            neighbors = self.index.neighbors(gid, self.config.max_pool)
            pool = [
                self.space[neighbor.group]
                for neighbor in neighbors
                if neighbor.similarity >= self.config.similarity_floor
            ]
            if self.config.weighted_similarity and len(self.feedback):
                pool = self._rerank_weighted(group, pool)
            prior = None
            prior_key = None
            if self.config.use_profile and self.profile.steps_observed > 1:
                pool = self.profile.rank(pool)
                prior = self.profile.interest
                prior_key = self._profile_key()
            if not pool:
                # Dead end in the graph: stay on the clicked group's display.
                pool = [group]
        result = select_k(
            pool, group.members, self.feedback, self.config.selection,
            prior=prior, cache=self.pool_cache, prior_key=prior_key,
        )
        self._displayed = result.groups
        self.last_selection = result
        self.history.record(gid, result.gids(), self.feedback.snapshot())
        return list(self._displayed)

    def _profile_key(self) -> tuple:
        """Hashable content identity of the profile-interest prior.

        Lets the pool cache key its feedback/result layers on what the
        prior would actually *score* rather than skipping memoization
        whenever a prior callable is present.
        """
        return (
            self.profile.steps_observed,
            tuple(sorted(self.profile.token_weight.items())),
        )

    def _rerank_weighted(self, clicked: Group, pool: list[Group]) -> list[Group]:
        """Re-rank the pool by feedback-weighted Jaccard to the clicked group.

        Users the explorer rewarded count more in the overlap, so groups in
        line with the feedback float up (§II-B's weighted similarity).
        """
        from repro.core.similarity import weighted_jaccard

        weights = self.feedback.user_weights(self.space.dataset.n_users, floor=1e-6)
        scored = sorted(
            enumerate(pool),
            key=lambda pair: (
                -weighted_jaccard(clicked.members, pair[1].members, weights),
                pair[0],
            ),
        )
        return [group for _, group in scored]

    def backtrack(self, step_id: int) -> list[Group]:
        """Jump to any HISTORY step, restoring its exact display + feedback."""
        step = self.history.backtrack(step_id)
        self.feedback.restore(step.feedback_snapshot)
        self._displayed = [self.space[gid] for gid in step.shown_gids]
        return list(self._displayed)

    # ------------------------------------------------------------------
    # O(1) side interactions
    # ------------------------------------------------------------------

    def displayed(self) -> list[Group]:
        return list(self._displayed)

    def displayed_gids(self) -> list[int]:
        return [group.gid for group in self._displayed]

    def bookmark_group(self, gid: int, note: str = "") -> None:
        self.memo.bookmark_group(gid, note)

    def bookmark_user(self, user: int, note: str = "") -> None:
        self.memo.bookmark_user(user, note)

    def drill_down(self, gid: int) -> np.ndarray:
        """Member user indices of a group (the STATS/Focus-view input).

        Drilling down signals the explorer is studying the current
        neighborhood, so the session keeps its pool statistics hot in the
        cache — the likely next click then reuses them.
        """
        if self.pool_cache is not None:
            self.pool_cache.touch_last()
        return self.space[gid].members.copy()

    def current_step(self) -> Optional[Step]:
        return self.history.current

    def __repr__(self) -> str:
        return (
            f"ExplorationSession({len(self.space)} groups, "
            f"{len(self.history)} steps, showing {len(self._displayed)})"
        )
