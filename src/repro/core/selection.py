"""Anytime greedy selection of k diverse, covering groups.

§II-B: *"We consider diversity and coverage as quality objectives ... We
use a best-effort greedy approach ... to return a local diverse and
covering set of k groups with a lower-bound on similarity ... we set a time
limit for the greedy process.  The higher this limit, the more optimized
the set of groups."*

The selector is *anytime*: any budget returns k groups (P1), and more
budget monotonically refines them (P2/P3):

1. **floor fill** — the top-k pool entries (pool order is the inverted
   index's similarity order), so even a ~0 budget shows something sensible;
2. **greedy phase** — repeatedly add the candidate with the best marginal
   gain on the blended objective;
3. **swap phase** — local search exchanging a selected group for an
   outsider while the clock allows.

Objectives (all in [0, 1]):

- ``diversity(S)`` = 1 − mean pairwise Jaccard of member sets;
- ``coverage(S)``  = feedback-weighted fraction of the *relevant* users
  (the clicked group's members) appearing in at least one selected group;
- ``affinity(S)``  = mean feedback weight of the selected groups (the
  §II-B weighted-similarity bias).

Two engines implement the same phases on the same objective:

**``engine="celf"`` (default)** — the vectorized incremental engine.  The
quality a fixed budget buys is bounded by how many objective evaluations
the greedy can afford, so the hot path never rebuilds state per trial:

- the pool×pool Jaccard matrix is pooled through one sparse membership
  matrix (:func:`repro.core.similarity.membership_matrix`, the same
  product the inverted index builds from) and materialized lazily one
  column per selected group, so pairwise diversity becomes running row
  sums instead of per-pair set intersections;
- a pool×relevant CSR coverage matrix makes the marginal coverage of
  every candidate one sparse mat-vec against the uncovered-weight vector,
  instead of a boolean mask rebuild per trial;
- the greedy phase is CELF-style lazy evaluation (Leskovec et al. 2007):
  candidates are ranked by a stale upper bound — exact non-coverage terms
  plus the last known coverage marginal, admissible because weighted
  coverage is monotone submodular so marginals only shrink as the
  selection grows — and only heap-top candidates are re-evaluated until
  the best exact score dominates the next bound;
- the swap phase is delta-scored: one vectorized pass scores every
  (position, candidate) exchange from maintained running sums (pair-sum,
  per-position cover counts, feedback sum, attribute-union masks) rather
  than re-scoring each trial set from scratch.

**``engine="reference"``** — the retained brute-force implementation
(per-pair Jaccard cache, full mask rebuild per score call).  It is the
parity oracle: on untimed runs both engines return the same groups and
scores (``tests/test_selection_parity.py``), and C2-style experiments can
quantify how many more evaluations the vectorized engine affords per
unit budget.

Two orthogonal accelerators sit on top of the engines:

**Session-scoped pool cache** — pass a
:class:`repro.core.poolcache.PoolStatsCache` as ``select_k(...,
cache=...)`` and the feedback-independent per-pool precomputation
(membership CSR slices, coverage incidence, lazily materialized Jaccard
columns), the feedback-dependent weight arrays, and — for a fully
identical call — the complete result are memoized under content
fingerprints and reused across clicks.  The cache is transparent: cached
and uncached runs return identical displays and scores (the four-way
parity suite covers reference / celf / cached-cold / cached-warm).

**Adaptive budget governor** (``SelectionConfig.governor``, celf only) —
when the greedy + swap phases converge with at least
``governor_slack_fraction`` of the deadline to spare, the engine
escalates through up to three tiers *within the same deadline*, keeping
the incumbent display unless a tier strictly improves the objective:

- **tier 1 — multi-restart floor fills**: the swap local search is
  re-run from up to ``governor_restarts`` alternative floor-fill windows
  of the pool, escaping the greedy's basin;
- **tier 2 — wider candidate pool**: the full greedy + swap pipeline is
  re-run over ``governor_pool_factor`` × ``max_candidates`` candidates
  when the caller's pool was truncated;
- **tier 3 — deeper swap neighborhood**: the best ``governor_swap_depth``
  two-exchange branches (a plateau/downhill swap followed by re-converged
  local search) are explored from the incumbent.

``SelectionResult.governor_tier`` records the highest tier a call
entered and ``tier_scores`` the (monotonically non-decreasing) best
objective after each tier.  ``engine="reference"`` refuses governor
settings outright — the oracle must never silently diverge from what it
is an oracle for.

With a cache attached, tier outcomes are persisted per (pool, config) in
the cache's governor layer: a *budgeted* governed re-click on the same
pool resumes escalation at the last tier reached instead of re-running
tiers that already converged there (``SelectionResult.governor_resumed_tier``
records the resume).  Untimed runs never resume — they are the
deterministic parity oracles.

When the session cache is wired to a
:class:`repro.core.runtime.SharedSelectionCache` (multi-session
serving), the structure layer is additionally warmed by *other* sessions
over the same group space, and results are shared across sessions pinned
to the same store epoch: a call whose swap phase converged with the
governor off never hit its deadline, so it equals the untimed result for
its memo key and is published for any session that repeats the inputs.
Budget-aborted and governed results stay private; so do the feedback and
governor layers.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Hashable, Optional

import numpy as np

from repro.core.feedback import FeedbackVector
from repro.core.group import Group
from repro.obs.trace import traced
from repro.core.poolcache import (
    PoolStatsCache,
    _attribute_of,
    _PoolStructure,
    pool_fingerprint,
    relevant_fingerprint,
)
from repro.core.similarity import jaccard

#: Engines selectable via :attr:`SelectionConfig.engine`.
ENGINES = ("celf", "reference")

#: Minimum improvement for a swap to be applied (both engines).
_SWAP_EPSILON = 1e-12

#: Slack on the CELF prune: stale bounds come from a sparse mat-vec while
#: exact re-evaluations sum the same weights with numpy's pairwise
#: accumulation, so mathematically-equal values can differ by a few ulps.
#: Pruning only when a bound is clearly below the best exact score keeps
#: the lazy greedy's argmax identical to the reference scan.
_BOUND_SLACK = 1e-12


@dataclass
class SelectionConfig:
    """Knobs of the greedy selector.

    Defaults follow the paper: ``k = 5`` (≤ 7 per Miller's law), a 100 ms
    budget (continuity-preserving latency), and equal diversity/coverage
    weight with a milder feedback bias.  The governor knobs control the
    slack-escalation tiers documented in the module docstring; they only
    apply to the celf engine.
    """

    k: int = 5
    time_budget_ms: Optional[float] = 100.0
    diversity_weight: float = 0.5
    coverage_weight: float = 0.5
    feedback_weight: float = 0.25
    #: §II-B: "Optimizing diversity provides various analysis directions" —
    #: member-level Jaccard alone would call five slices of the same
    #: attribute maximally diverse; this term rewards displays whose
    #: descriptions span *different attributes* (different directions).
    description_diversity_weight: float = 0.3
    max_candidates: int = 200
    #: ``"celf"`` = vectorized lazy-greedy engine (default);
    #: ``"reference"`` = retained brute-force engine (parity oracle).
    engine: str = "celf"
    #: Escalate within the deadline when greedy + swaps converge early.
    governor: bool = False
    #: Highest escalation tier the governor may enter (1..3).
    governor_max_tier: int = 3
    #: Minimum fraction of the budget that must remain for escalation.
    governor_slack_fraction: float = 0.2
    #: Alternative floor-fill windows restarted in tier 1.
    governor_restarts: int = 3
    #: ``max_candidates`` multiplier for the tier-2 widened pool.
    governor_pool_factor: float = 2.0
    #: Two-exchange branches explored in tier 3.
    governor_swap_depth: int = 4

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.time_budget_ms is not None and self.time_budget_ms < 0:
            raise ValueError("time budget must be >= 0")
        if min(self.diversity_weight, self.coverage_weight, self.feedback_weight) < 0:
            raise ValueError("objective weights must be >= 0")
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}")
        if self.governor and self.engine == "reference":
            raise ValueError(
                'the budget governor escalates only the "celf" engine; '
                'engine="reference" is the parity oracle and ignoring the '
                "governor would silently diverge — disable the governor or "
                "switch engines"
            )
        if not 1 <= self.governor_max_tier <= 3:
            raise ValueError("governor_max_tier must be in 1..3")
        if not 0.0 <= self.governor_slack_fraction < 1.0:
            raise ValueError("governor_slack_fraction must be in [0, 1)")
        if self.governor_restarts < 1:
            raise ValueError("governor_restarts must be >= 1")
        if self.governor_pool_factor < 1.0:
            raise ValueError("governor_pool_factor must be >= 1")
        if self.governor_swap_depth < 1:
            raise ValueError("governor_swap_depth must be >= 1")


def _config_key(config: SelectionConfig) -> tuple:
    """Hashable identity of every result-affecting config field."""
    return dataclasses.astuple(config)


@dataclass
class SelectionResult:
    """Selected groups plus the quality numbers benchmarks report."""

    groups: list[Group]
    diversity: float
    coverage: float
    affinity: float
    score: float
    elapsed_ms: float
    evaluations: int
    pool_size: int
    phases_completed: int  # 1 = floor fill, 2 = greedy, 3 = swaps converged
    engine: str = "celf"
    #: Highest governor tier that actually explored an alternative
    #: (0 = none; a no-op tier block does not count).
    governor_tier: int = 0
    #: Best objective after the base run and after each attempted tier
    #: block (monotonically non-decreasing); empty when the governor
    #: never escalated.
    tier_scores: list[float] = field(default_factory=list)
    #: Tier the escalation *resumed* from thanks to the pool cache's
    #: governor layer (0 = cold start from tier 1).  Only budgeted,
    #: cached, governed re-clicks ever resume; the skipped lower tiers
    #: already converged on this pool on an earlier click.
    governor_resumed_tier: int = 0
    #: ``"off"`` (no cache), ``"miss"`` (built fresh), ``"warm"``
    #: (pool statistics reused), ``"hit"`` (memoized result returned).
    cache_state: str = "off"

    def gids(self) -> list[int]:
        return [group.gid for group in self.groups]


class _PoolStatistics:
    """Per-pool precomputation shared by both engines.

    A thin binding of one :class:`repro.core.poolcache._PoolStructure`
    (the feedback-independent membership/coverage/attribute state, built
    fresh or served by a :class:`~repro.core.poolcache.PoolStatsCache`)
    to the feedback-dependent weight arrays of one call.  ``relevant`` is
    treated as a *set* of users (duplicates are dropped).  Holding the
    shared quantities here guarantees the engines score the *same*
    objective — parity tests compare their outputs directly.
    """

    def __init__(
        self,
        pool: Sequence[Group],
        relevant: np.ndarray,
        feedback: Optional[FeedbackVector],
        prior: Optional[Callable[[Group], float]] = None,
        *,
        structure: Optional[_PoolStructure] = None,
        cache: Optional[PoolStatsCache] = None,
        prior_key: Optional[Hashable] = None,
    ) -> None:
        if structure is None:
            structure = _PoolStructure(list(pool), relevant)
        self.structure = structure
        self.pool = structure.pool
        self.relevant = structure.relevant
        self.n_relevant = structure.n_relevant
        self.n_columns = structure.n_columns
        self.members_matrix = structure.members_matrix
        self.cover = structure.cover
        self.positions = structure.positions
        self.group_attributes = structure.group_attributes

        def compute() -> tuple:
            return _feedback_layer(structure, feedback, prior, cache)

        if cache is not None:
            layer = cache.feedback_layer_for(
                structure, feedback, prior, prior_key, compute
            )
        else:
            layer = compute()
        self.weights, self.total_weight, self.group_feedback = layer


def _feedback_layer(
    structure: _PoolStructure,
    feedback: Optional[FeedbackVector],
    prior: Optional[Callable[[Group], float]],
    cache: Optional[PoolStatsCache] = None,
) -> tuple:
    """(coverage weights, total weight, per-candidate §II-B group weight).

    The member part is one sparse mat-vec of the membership matrix against
    the dense user-weight vector; only the (few) description tokens stay
    per-group.  With a cache, the dense vectors are memoized by feedback
    *content* so a restored snapshot reuses them.
    """
    n_relevant = structure.n_relevant
    if feedback is not None and n_relevant:
        size = int(structure.relevant.max()) + 1
        dense = (
            cache.dense_user_weights(feedback, size)
            if cache is not None
            else feedback.user_weights(size, floor=0.0)
        )
        weights = dense[structure.relevant] + 1.0 / n_relevant
    else:
        weights = np.full(n_relevant, 1.0 / max(n_relevant, 1))
    total_weight = float(weights.sum()) if n_relevant else 1.0

    count = len(structure.pool)
    values = np.zeros(count, dtype=np.float64)
    if feedback is not None and count:
        user_weights = (
            cache.dense_user_weights(feedback, structure.n_columns)
            if cache is not None
            else feedback.user_weights(structure.n_columns, floor=0.0)
        )
        values += np.asarray(
            structure.members_matrix @ user_weights, dtype=np.float64
        )
        values += np.array(
            [
                sum(feedback.token_score(token) for token in group.description)
                for group in structure.pool
            ],
            dtype=np.float64,
        )
    if prior is not None and count:
        values += np.array(
            [prior(group) for group in structure.pool], dtype=np.float64
        )
    return weights, total_weight, values


class _ReferenceEvaluator:
    """Brute-force objective evaluation: the retained parity oracle."""

    def __init__(self, stats: _PoolStatistics, config: SelectionConfig) -> None:
        self.stats = stats
        self.pool = stats.pool
        self.config = config
        self._jaccard_cache: dict[tuple[int, int], float] = {}
        self.evaluations = 0

    def pairwise(self, left: int, right: int) -> float:
        key = (left, right) if left < right else (right, left)
        cached = self._jaccard_cache.get(key)
        if cached is None:
            cached = jaccard(self.pool[left].members, self.pool[right].members)
            self._jaccard_cache[key] = cached
        return cached

    def diversity(self, selected: list[int]) -> float:
        if len(selected) < 2:
            return 1.0
        total = 0.0
        pairs = 0
        for i in range(len(selected)):
            for j in range(i + 1, len(selected)):
                total += self.pairwise(selected[i], selected[j])
                pairs += 1
        return 1.0 - total / pairs

    def coverage(self, selected: list[int]) -> float:
        stats = self.stats
        if stats.n_relevant == 0:
            return 1.0
        if not selected:
            return 0.0
        mask = np.zeros(stats.n_relevant, dtype=bool)
        for index in selected:
            mask[stats.positions[index]] = True
        return float(stats.weights[mask].sum() / stats.total_weight)

    def affinity(self, selected: list[int]) -> float:
        if not selected:
            return 0.0
        return float(
            np.mean([self.stats.group_feedback[index] for index in selected])
        )

    def description_diversity(self, selected: list[int]) -> float:
        """Share of distinct analysis directions across the display.

        1.0 when every description opens a different attribute set; low when
        the display is five slices of the same attribute.
        """
        if not selected:
            return 0.0
        attributes = self.stats.group_attributes
        total = sum(max(len(attributes[index]), 1) for index in selected)
        distinct = len(
            frozenset().union(*(attributes[index] for index in selected))
        )
        return max(distinct, 1) / total

    def score(self, selected: list[int]) -> float:
        self.evaluations += 1
        return (
            self.config.diversity_weight * self.diversity(selected)
            + self.config.coverage_weight * self.coverage(selected)
            + self.config.feedback_weight * self.affinity(selected)
            + self.config.description_diversity_weight
            * self.description_diversity(selected)
        )


class _VectorEngine:
    """Incremental vectorized state for the CELF engine.

    All per-candidate quantities live in pooled arrays; adding, removing
    or swapping a selected group updates running sums in O(pool) instead
    of rebuilding state per scored trial:

    - the pool×pool Jaccard matrix is materialized lazily, one *column*
      per group that actually enters the selection (one sparse mat-vec,
      cached on the shared :class:`~repro.core.poolcache._PoolStructure`
      so later calls on the same pool start with the columns already
      filled);
    - ``cover`` — CSR pool×relevant incidence, so every candidate's
      marginal coverage is one mat-vec against ``uncovered_weights``;
    - ``attrs`` — pool×attribute boolean description matrix, so the
      distinct-direction count is a row-wise OR + popcount;
    - running scalars/vectors: pairwise-similarity sum, per-candidate
      similarity-to-selection, per-position cover counts, covered weight,
      feedback sum and attribute-union mask.
    """

    def __init__(self, stats: _PoolStatistics, config: SelectionConfig) -> None:
        self.stats = stats
        self.config = config
        self.structure = stats.structure
        self.npool = len(stats.pool)
        self.cover = stats.cover
        self.feedback = stats.group_feedback
        self.attrs = self.structure.attrs
        self.attr_count = self.structure.attr_count
        self.evaluations = 0
        self.reset()

    def sim_column(self, index: int) -> np.ndarray:
        """Jaccard of every pool entry to ``pool[index]`` (structure-cached)."""
        return self.structure.sim_column(index)

    # -- mutable selection state ---------------------------------------

    def reset(self) -> None:
        self.selected: list[int] = []
        self.selected_mask = np.zeros(self.npool, dtype=bool)
        self.pair_sum = 0.0  # Σ_{i<j ∈ S} sim[i, j]
        self.sim_to_selected = np.zeros(self.npool, dtype=np.float64)
        self.cover_counts = np.zeros(self.stats.n_relevant, dtype=np.int64)
        self.covered_weight = 0.0
        self.uncovered_weights = self.stats.weights.astype(np.float64, copy=True)
        self.feedback_sum = 0.0
        self.attr_union = np.zeros(self.attrs.shape[1], dtype=bool)
        self.attr_total = 0

    def clone(self) -> "_VectorEngine":
        """An independent copy of the mutable selection state.

        Shares the immutable pooled arrays (structure, cover, feedback)
        so the governor's branch exploration costs only the running-sum
        copies; the clone's ``evaluations`` counter starts at zero so
        branch work is accounted separately.
        """
        twin = object.__new__(_VectorEngine)
        twin.stats = self.stats
        twin.config = self.config
        twin.structure = self.structure
        twin.npool = self.npool
        twin.cover = self.cover
        twin.feedback = self.feedback
        twin.attrs = self.attrs
        twin.attr_count = self.attr_count
        twin.evaluations = 0
        twin.selected = list(self.selected)
        twin.selected_mask = self.selected_mask.copy()
        twin.pair_sum = self.pair_sum
        twin.sim_to_selected = self.sim_to_selected.copy()
        twin.cover_counts = self.cover_counts.copy()
        twin.covered_weight = self.covered_weight
        twin.uncovered_weights = self.uncovered_weights.copy()
        twin.feedback_sum = self.feedback_sum
        twin.attr_union = self.attr_union.copy()
        twin.attr_total = self.attr_total
        return twin

    def add(self, index: int) -> None:
        """Grow the selection by one group, updating every running sum."""
        self.pair_sum += float(self.sim_to_selected[index])
        self.sim_to_selected += self.sim_column(index)
        positions = self.stats.positions[index]
        if len(positions):
            self.cover_counts[positions] += 1
            newly = positions[self.cover_counts[positions] == 1]
            self.covered_weight += float(self.stats.weights[newly].sum())
            self.uncovered_weights[positions] = 0.0
        self.feedback_sum += float(self.feedback[index])
        self.attr_union |= self.attrs[index]
        self.attr_total += int(self.attr_count[index])
        self.selected.append(index)
        self.selected_mask[index] = True

    def swap(self, position: int, incoming: int) -> None:
        """Replace ``selected[position]`` with ``incoming`` in place."""
        outgoing = self.selected[position]
        outgoing_column = self.sim_column(outgoing)
        incoming_column = self.sim_column(incoming)
        self.pair_sum += float(
            (self.sim_to_selected[incoming] - outgoing_column[incoming])
            - (self.sim_to_selected[outgoing] - 1.0)
        )
        self.sim_to_selected += incoming_column - outgoing_column
        out_positions = self.stats.positions[outgoing]
        if len(out_positions):
            self.cover_counts[out_positions] -= 1
            freed = out_positions[self.cover_counts[out_positions] == 0]
            self.covered_weight -= float(self.stats.weights[freed].sum())
            self.uncovered_weights[freed] = self.stats.weights[freed]
        in_positions = self.stats.positions[incoming]
        if len(in_positions):
            self.cover_counts[in_positions] += 1
            newly = in_positions[self.cover_counts[in_positions] == 1]
            self.covered_weight += float(self.stats.weights[newly].sum())
            self.uncovered_weights[in_positions] = 0.0
        self.feedback_sum += float(self.feedback[incoming] - self.feedback[outgoing])
        self.attr_total += int(self.attr_count[incoming] - self.attr_count[outgoing])
        self.selected[position] = incoming
        self.selected_mask[outgoing] = False
        self.selected_mask[incoming] = True
        union = np.zeros_like(self.attr_union)
        for member in self.selected:
            union |= self.attrs[member]
        self.attr_union = union

    # -- scoring -------------------------------------------------------

    def objective_terms(self) -> tuple[float, float, float, float]:
        """(diversity, coverage, affinity, description diversity) of S."""
        count = len(self.selected)
        if count < 2:
            diversity = 1.0
        else:
            diversity = 1.0 - self.pair_sum / (count * (count - 1) / 2)
        if self.stats.n_relevant == 0:
            coverage = 1.0
        elif not count:
            coverage = 0.0
        else:
            coverage = self.covered_weight / self.stats.total_weight
        affinity = self.feedback_sum / count if count else 0.0
        if not count:
            description = 0.0
        else:
            description = max(int(self.attr_union.sum()), 1) / self.attr_total
        return diversity, coverage, affinity, description

    def score(self) -> float:
        diversity, coverage, affinity, description = self.objective_terms()
        config = self.config
        return (
            config.diversity_weight * diversity
            + config.coverage_weight * coverage
            + config.feedback_weight * affinity
            + config.description_diversity_weight * description
        )

    def base_add_scores(self) -> np.ndarray:
        """Non-coverage part of score(S + {c}) for every candidate c.

        Exact and O(pool): diversity from running row sums, affinity from
        the feedback sum, description diversity from the attribute union.
        Coverage is handled separately (lazily) by the CELF loop.
        """
        grown = len(self.selected) + 1
        if grown >= 2:
            pairs = grown * (grown - 1) / 2
            diversity = 1.0 - (self.pair_sum + self.sim_to_selected) / pairs
        else:
            diversity = np.ones(self.npool, dtype=np.float64)
        affinity = (self.feedback_sum + self.feedback) / grown
        distinct = (self.attrs | self.attr_union).sum(axis=1)
        description = np.maximum(distinct, 1) / (self.attr_total + self.attr_count)
        config = self.config
        return (
            config.diversity_weight * diversity
            + config.feedback_weight * affinity
            + config.description_diversity_weight * description
        )

    def coverage_marginals(self) -> np.ndarray:
        """Exact marginal covered weight of every candidate (one mat-vec)."""
        if self.cover is None:
            return np.zeros(self.npool, dtype=np.float64)
        return np.asarray(self.cover @ self.uncovered_weights, dtype=np.float64)

    def coverage_marginal(self, index: int) -> float:
        """Exact marginal covered weight of one candidate."""
        positions = self.stats.positions[index]
        if not len(positions):
            return 0.0
        return float(self.uncovered_weights[positions].sum())

    def swap_scores(self, position: int) -> np.ndarray:
        """score((S − {selected[position]}) ∪ {c}) for every candidate c.

        One vectorized delta pass; entries for already-selected candidates
        are meaningless (callers skip them via ``selected_mask``).
        """
        stats = self.stats
        config = self.config
        count = len(self.selected)
        outgoing = self.selected[position]
        if count >= 2:
            pairs = count * (count - 1) / 2
            pair_sum_without = self.pair_sum - (self.sim_to_selected[outgoing] - 1.0)
            sim_without = self.sim_to_selected - self.sim_column(outgoing)
            diversity = 1.0 - (pair_sum_without + sim_without) / pairs
        else:
            diversity = np.ones(self.npool, dtype=np.float64)
        if stats.n_relevant == 0:
            coverage = np.ones(self.npool, dtype=np.float64)
        else:
            out_positions = stats.positions[outgoing]
            solo = out_positions[self.cover_counts[out_positions] == 1]
            covered_without = self.covered_weight - float(
                stats.weights[solo].sum()
            )
            open_weights = self.uncovered_weights
            if len(solo):
                open_weights = open_weights.copy()
                open_weights[solo] = stats.weights[solo]
            marginals = (
                np.asarray(self.cover @ open_weights, dtype=np.float64)
                if self.cover is not None
                else np.zeros(self.npool, dtype=np.float64)
            )
            coverage = (covered_without + marginals) / stats.total_weight
        affinity = (self.feedback_sum - self.feedback[outgoing] + self.feedback) / count
        union_without = np.zeros_like(self.attr_union)
        for member in self.selected:
            if member != outgoing:
                union_without |= self.attrs[member]
        total_without = self.attr_total - int(self.attr_count[outgoing])
        distinct = (self.attrs | union_without).sum(axis=1)
        description = np.maximum(distinct, 1) / (total_without + self.attr_count)
        self.evaluations += self.npool - count
        return (
            config.diversity_weight * diversity
            + config.coverage_weight * coverage
            + config.feedback_weight * affinity
            + config.description_diversity_weight * description
        )


@traced("selection")
def select_k(
    pool: Sequence[Group],
    relevant: np.ndarray,
    feedback: Optional[FeedbackVector] = None,
    config: Optional[SelectionConfig] = None,
    clock: Callable[[], float] = time.perf_counter,
    prior: Optional[Callable[[Group], float]] = None,
    cache: Optional[PoolStatsCache] = None,
    prior_key: Optional[Hashable] = None,
) -> SelectionResult:
    """Pick ≤ k groups from ``pool`` optimizing the blended objective.

    ``pool`` should arrive in descending parent-similarity order (the
    inverted index's materialized prefix) — the zero-budget fallback takes
    its head.  ``relevant`` is the user set coverage is measured against
    (the clicked group's members, or every user at session start).
    ``prior`` (optional) adds an explorer-profile interest bonus per group
    to the affinity term — the "anticipate follow-up steps" hook of §I.

    ``config.engine`` selects the implementation: the vectorized CELF
    engine (default) or the brute-force reference oracle; both run the
    same floor-fill / greedy / swap phases on the same objective.

    ``cache`` (optional) is a session-scoped
    :class:`~repro.core.poolcache.PoolStatsCache`; repeated or
    permuted pools then reuse their precomputed statistics, and a call
    identical in every fingerprinted input returns its memoized result
    (this session's, or a converged one shared by another session).
    ``prior_key`` is the caller's hashable identity for ``prior`` — when
    a prior is supplied without a key, the feedback layer and result memo
    are skipped (never guessed) and only structural reuse applies.
    """
    config = config or SelectionConfig()
    started = clock()
    budget_seconds = (
        None if config.time_budget_ms is None else config.time_budget_ms / 1000.0
    )

    def out_of_time() -> bool:
        return budget_seconds is not None and (clock() - started) >= budget_seconds

    full_pool = list(pool)
    pool_list = full_pool[: config.max_candidates]

    fingerprints = None
    relevant_key = None
    memo_key = None
    if cache is not None:
        fingerprints = pool_fingerprint(pool_list)
        relevant_key = relevant_fingerprint(relevant)
        memo_fingerprints = fingerprints
        if (
            config.engine == "celf"
            and config.governor
            and len(full_pool) > len(pool_list)
        ):
            # Governor tier 2 may select from the widened pool, so the
            # memo must be keyed on everything the call could have seen —
            # a same-prefix pool with a different tail is a different call.
            wide_limit = int(
                round(config.max_candidates * config.governor_pool_factor)
            )
            memo_fingerprints = pool_fingerprint(full_pool[:wide_limit])
        memo_key = cache.result_key(
            memo_fingerprints, relevant_key, feedback, prior, prior_key,
            _config_key(config),
        )
        if memo_key is not None:
            memoized = cache.lookup_result(memo_key)
            if memoized is not None:
                return dataclasses.replace(
                    memoized,
                    groups=list(memoized.groups),
                    tier_scores=list(memoized.tier_scores),
                    elapsed_ms=(clock() - started) * 1000.0,
                    cache_state="hit",
                )

    stats, cache_state = _build_statistics(
        pool_list, relevant, feedback, prior, cache, prior_key,
        fingerprints, relevant_key,
    )
    if config.engine == "reference":
        result = _select_reference(stats, config, clock, started, out_of_time)
    else:
        extended_factory = None
        if config.governor and len(full_pool) > len(pool_list):

            def extended_factory() -> _PoolStatistics:
                wide = full_pool[
                    : int(round(config.max_candidates * config.governor_pool_factor))
                ]
                wide_stats, _ = _build_statistics(
                    wide, relevant, feedback, prior, cache, prior_key, None, None
                )
                return wide_stats

        result = _select_celf(
            stats, config, clock, started, out_of_time, budget_seconds,
            extended_factory, cache,
        )
    result.cache_state = cache_state
    if cache is not None:
        # Multi-session serving: push the columns this call materialized
        # into the runtime's shared layer so concurrent sessions start
        # from them (no-op for purely session-scoped caches).  Keyed on
        # the *clicked* pool explicitly — a governor tier-2 escalation
        # serves a widened pool afterwards, which must not shadow it.
        cache.republish_structure(stats.structure.key)
        if (
            config.engine == "celf"
            and config.governor
            and len(full_pool) > len(pool_list)
        ):
            # The widened tier-2 pool (when one was built) shares its
            # columns too; republish_structure no-ops if tier 2 never ran.
            cache.republish_structure()
    if memo_key is not None:
        cache.store_result(
            memo_key,
            dataclasses.replace(
                result,
                groups=list(result.groups),
                tier_scores=list(result.tier_scores),
            ),
            # Converged without the governor: deterministic in its key,
            # so other sessions may be served it.
            share=result.phases_completed == 3 and not config.governor,
        )
    return result


def _build_statistics(
    pool_list: list[Group],
    relevant: np.ndarray,
    feedback: Optional[FeedbackVector],
    prior: Optional[Callable[[Group], float]],
    cache: Optional[PoolStatsCache],
    prior_key: Optional[Hashable],
    fingerprints,
    relevant_key,
) -> tuple[_PoolStatistics, str]:
    """Pool statistics via the cache when present; (stats, cache state)."""
    if cache is None:
        return _PoolStatistics(pool_list, relevant, feedback, prior), "off"
    structure, state = cache.structure_for(
        pool_list, relevant, fingerprints, relevant_key
    )
    stats = _PoolStatistics(
        pool_list,
        relevant,
        feedback,
        prior,
        structure=structure,
        cache=cache,
        prior_key=prior_key,
    )
    return stats, state


# ---------------------------------------------------------------------------
# CELF engine (default)
# ---------------------------------------------------------------------------


def _select_celf(
    stats: _PoolStatistics,
    config: SelectionConfig,
    clock: Callable[[], float],
    started: float,
    out_of_time: Callable[[], bool],
    budget_seconds: Optional[float] = None,
    extended_factory: Optional[Callable[[], _PoolStatistics]] = None,
    cache: Optional[PoolStatsCache] = None,
) -> SelectionResult:
    pool = stats.pool
    k = min(config.k, len(pool))
    engine = _VectorEngine(stats, config)

    # Governor resume: under a *finite* budget, a cached re-click on this
    # pool starts escalation at the tier the last governed click reached
    # instead of re-exploring tiers that already converged here.  Untimed
    # runs (the parity oracles) never resume, so determinism is preserved
    # exactly where the test suite relies on it.
    governor_key = None
    resume_tier = 0
    if (
        cache is not None
        and config.governor
        and budget_seconds is not None
    ):
        # Keyed on the structure's *stable* content digest (not the
        # process-local fingerprint key) so persisted sessions resume
        # escalation across restarts — see store.save_session_state.
        governor_key = (stats.structure.stable_key, _config_key(config))
        resume_tier = cache.governor_resume_tier(*governor_key)

    # Phase 1: floor fill — the top-k by index similarity.
    selected = list(range(k))
    phases = 1

    # Phase 2: CELF lazy greedy, clock-checked per re-evaluation.
    if k and not out_of_time():
        greedy, aborted = _celf_greedy(engine, k, out_of_time)
        if len(greedy) == k:
            selected = greedy
            phases = 2
        elif greedy:
            # Partial greedy: keep it, fill remaining slots by pool order.
            filler = [
                index
                for index in range(len(pool))
                if not engine.selected_mask[index]
            ]
            for index in filler[: k - len(greedy)]:
                engine.add(index)
            selected = list(engine.selected)
            phases = 2

    # Sync the engine onto `selected` when the greedy never ran/landed.
    if engine.selected != selected:
        engine.reset()
        for index in selected:
            engine.add(index)

    # Phase 3: delta-scored swap search until no improvement or budget out.
    winner = engine
    tier = 0
    tier_scores: list[float] = []
    extra_engines: list[_VectorEngine] = []
    if phases == 2 and k and not out_of_time():
        current_score = engine.score()
        engine.evaluations += 1
        current_score, converged = _swap_phase(engine, k, current_score, out_of_time)
        selected = list(engine.selected)
        # A pass that found no swap *and* did not run out of time means the
        # local search converged — the best the greedy can do on this pool.
        if converged:
            phases = 3
            if config.governor and _has_slack(
                config, clock, started, budget_seconds
            ):
                winner, tier, tier_scores, extra_engines = _governor_escalate(
                    engine, current_score, k, config, out_of_time,
                    extended_factory, start_tier=max(1, resume_tier),
                )
                selected = list(winner.selected)
                if governor_key is not None:
                    if resume_tier >= 2:
                        cache.note_governor_resume()
                    if tier > 0:
                        cache.record_governor_tier(*governor_key, tier)

    diversity, coverage, affinity, description = winner.objective_terms()
    score = (
        config.diversity_weight * diversity
        + config.coverage_weight * coverage
        + config.feedback_weight * affinity
        + config.description_diversity_weight * description
    )
    return SelectionResult(
        groups=[winner.stats.pool[index] for index in selected],
        diversity=diversity,
        coverage=coverage,
        affinity=affinity,
        score=score,
        elapsed_ms=(clock() - started) * 1000.0,
        evaluations=engine.evaluations
        + sum(other.evaluations for other in extra_engines),
        pool_size=len(pool),
        phases_completed=phases,
        engine="celf",
        governor_tier=tier,
        tier_scores=tier_scores,
        governor_resumed_tier=(
            resume_tier if resume_tier >= 2 and tier_scores else 0
        ),
    )


def _swap_phase(
    engine: _VectorEngine,
    k: int,
    current_score: float,
    out_of_time: Callable[[], bool],
) -> tuple[float, bool]:
    """Delta-scored swap local search; (final score, converged?).

    ``converged`` is True only when a full pass found no improving swap
    *and* the budget still had room — the same criterion both engines'
    phase 3 always used.
    """
    improved = True
    while improved and not out_of_time():
        improved = False
        for position in range(k):
            if out_of_time():
                break
            trial_scores = engine.swap_scores(position)
            best_swap = None
            best_swap_score = current_score
            # Same chained-epsilon scan as the reference engine, over
            # the vectorized trial scores.
            for candidate in range(engine.npool):
                if engine.selected_mask[candidate]:
                    continue
                trial = float(trial_scores[candidate])
                if trial > best_swap_score + _SWAP_EPSILON:
                    best_swap_score = trial
                    best_swap = candidate
            if best_swap is not None:
                engine.swap(position, best_swap)
                current_score = best_swap_score
                improved = True
    return current_score, (not improved and not out_of_time())


def _has_slack(
    config: SelectionConfig,
    clock: Callable[[], float],
    started: float,
    budget_seconds: Optional[float],
) -> bool:
    """Enough of the deadline left to make escalation worthwhile?"""
    if budget_seconds is None:
        return True
    remaining = budget_seconds - (clock() - started)
    return remaining >= config.governor_slack_fraction * budget_seconds


def _governor_escalate(
    engine: _VectorEngine,
    current_score: float,
    k: int,
    config: SelectionConfig,
    out_of_time: Callable[[], bool],
    extended_factory: Optional[Callable[[], _PoolStatistics]],
    start_tier: int = 1,
) -> tuple[_VectorEngine, int, list[float], list[_VectorEngine]]:
    """Spend converged-early slack on progressively deeper optimization.

    Returns ``(winning engine, highest tier that explored an alternative,
    best score after the base run and each attempted tier, extra engines
    whose evaluations to account)``.
    The incumbent is replaced only on strict objective improvement, so
    the per-tier best scores are monotonically non-decreasing and every
    tier is individually deadline-checked.

    ``start_tier`` (from the pool cache's governor layer) skips tiers
    below it: a budgeted re-click on a pool whose earlier escalation
    already reached tier t resumes at t instead of re-running converged
    lower tiers; skipped blocks contribute no ``tier_scores`` entry.
    """
    best_engine = engine
    best_score = current_score
    tier_scores = [best_score]
    tier = 0
    extra: list[_VectorEngine] = []

    # Tier 1: restart the local search from alternative floor-fill windows.
    # `tier` records only tiers that actually explored an alternative —
    # a no-op block (no window, no widening, no branch) does not count.
    if start_tier <= 1 and config.governor_max_tier >= 1 and not out_of_time():
        for restart in range(1, config.governor_restarts + 1):
            start = restart * k
            if start + k > engine.npool:
                break
            if out_of_time():
                break
            tier = 1
            trial_engine = _VectorEngine(engine.stats, config)
            for index in range(start, start + k):
                trial_engine.add(index)
            extra.append(trial_engine)
            trial_score = trial_engine.score()
            trial_engine.evaluations += 1
            trial_score, _ = _swap_phase(trial_engine, k, trial_score, out_of_time)
            if trial_score > best_score + _SWAP_EPSILON:
                best_score = trial_score
                best_engine = trial_engine
        tier_scores.append(best_score)

    # Tier 2: rerun greedy + swaps over a widened candidate pool.
    if start_tier <= 2 and config.governor_max_tier >= 2 and not out_of_time():
        wide_stats = extended_factory() if extended_factory is not None else None
        if wide_stats is not None and len(wide_stats.pool) > engine.npool:
            tier = 2
            wide_engine = _VectorEngine(wide_stats, config)
            extra.append(wide_engine)
            greedy, _ = _celf_greedy(wide_engine, k, out_of_time)
            if len(greedy) == k:
                wide_score = wide_engine.score()
                wide_engine.evaluations += 1
                wide_score, _ = _swap_phase(wide_engine, k, wide_score, out_of_time)
                if wide_score > best_score + _SWAP_EPSILON:
                    best_score = wide_score
                    best_engine = wide_engine
        tier_scores.append(best_score)

    # Tier 3: two-exchange branches — a plateau/downhill swap followed by a
    # re-converged local search can escape basins single swaps cannot.
    # Every branch departs from the *same* incumbent the seeds were ranked
    # for: rebinding mid-loop would apply a seed whose candidate is already
    # selected in the newer engine and corrupt its running sums.
    if config.governor_max_tier >= 3 and not out_of_time():
        seed_engine = best_engine
        for position, candidate in _swap_branches(seed_engine, k, config):
            if out_of_time():
                break
            tier = 3
            branch_engine = seed_engine.clone()
            extra.append(branch_engine)
            branch_engine.swap(position, candidate)
            branch_score = branch_engine.score()
            branch_engine.evaluations += 1
            branch_score, _ = _swap_phase(branch_engine, k, branch_score, out_of_time)
            if branch_score > best_score + _SWAP_EPSILON:
                best_score = branch_score
                best_engine = branch_engine
        tier_scores.append(best_score)

    return best_engine, tier, tier_scores, extra


def _swap_branches(
    engine: _VectorEngine,
    k: int,
    config: SelectionConfig,
) -> list[tuple[int, int]]:
    """The most promising (position, candidate) two-exchange seeds.

    The converged incumbent has no *improving* single swap left, so the
    near-best non-improving exchanges are ranked and the global top
    ``governor_swap_depth`` returned (score desc, then position/candidate
    asc for determinism).
    """
    ranked: list[tuple[float, int, int]] = []
    count = len(engine.selected)
    if count < k or k == 0:
        return []
    for position in range(k):
        trial_scores = engine.swap_scores(position)
        for candidate in range(engine.npool):
            if engine.selected_mask[candidate]:
                continue
            ranked.append((float(trial_scores[candidate]), position, candidate))
    ranked.sort(key=lambda entry: (-entry[0], entry[1], entry[2]))
    return [
        (position, candidate)
        for _, position, candidate in ranked[: config.governor_swap_depth]
    ]


def _celf_greedy(
    engine: _VectorEngine,
    k: int,
    out_of_time: Callable[[], bool],
) -> tuple[list[int], bool]:
    """Lazy-greedy fill of k slots; returns (chosen indices, aborted?).

    Upper bound per candidate = exact non-coverage terms (cheap, vectorized
    each slot) + the stale coverage marginal from the last time the
    candidate was evaluated.  Weighted coverage is monotone submodular, so
    stale marginals are admissible bounds; a candidate is accepted once its
    freshly evaluated score dominates every remaining bound.  Tie-breaking
    matches the reference scan: lowest pool index among exact maxima.
    """
    config = engine.config
    stats = engine.stats
    # Exact marginals for the empty selection: one mat-vec covers the pool.
    stale_marginals = engine.coverage_marginals()
    engine.evaluations += engine.npool
    greedy: list[int] = []
    aborted = False
    for _slot in range(k):
        base = engine.base_add_scores()
        if stats.n_relevant == 0:
            bounds = base + config.coverage_weight * 1.0
        else:
            # Same expression shape as the exact score below, so a fresh
            # bound equals the exact value it will be compared against.
            bounds = (
                base
                + config.coverage_weight
                * (engine.covered_weight + stale_marginals)
                / stats.total_weight
            )
        order = np.argsort(-bounds, kind="stable")
        best_index = -1
        best_score = -np.inf
        for candidate in order:
            candidate = int(candidate)
            if engine.selected_mask[candidate]:
                continue
            if bounds[candidate] < best_score - _BOUND_SLACK:
                break  # no remaining bound can beat the best exact score
            if out_of_time():
                aborted = True
                break
            if stats.n_relevant == 0:
                exact = float(bounds[candidate])
            else:
                marginal = engine.coverage_marginal(candidate)
                stale_marginals[candidate] = marginal
                exact = float(
                    base[candidate]
                    + config.coverage_weight
                    * (engine.covered_weight + marginal)
                    / stats.total_weight
                )
            engine.evaluations += 1
            if exact > best_score or (exact == best_score and candidate < best_index):
                best_score = exact
                best_index = candidate
        if aborted and best_index < 0:
            break
        if best_index >= 0:
            engine.add(best_index)
            greedy.append(best_index)
        if aborted:
            break
    return greedy, aborted


# ---------------------------------------------------------------------------
# Reference engine (parity oracle)
# ---------------------------------------------------------------------------


def _select_reference(
    stats: _PoolStatistics,
    config: SelectionConfig,
    clock: Callable[[], float],
    started: float,
    out_of_time: Callable[[], bool],
) -> SelectionResult:
    pool = stats.pool
    k = min(config.k, len(pool))
    evaluator = _ReferenceEvaluator(stats, config)

    # Phase 1: floor fill — the top-k by index similarity.
    selected = list(range(k))
    phases = 1

    # Phase 2: greedy rebuild, candidate-by-candidate, clock-checked.
    if k and not out_of_time():
        greedy: list[int] = []
        in_greedy = np.zeros(len(pool), dtype=bool)
        aborted = False
        for _slot in range(k):
            best_index = -1
            best_score = -np.inf
            for candidate in range(len(pool)):
                if in_greedy[candidate]:
                    continue
                if out_of_time():
                    aborted = True
                    break
                candidate_score = evaluator.score(greedy + [candidate])
                if candidate_score > best_score:
                    best_score = candidate_score
                    best_index = candidate
            if aborted and best_index < 0:
                break
            if best_index >= 0:
                greedy.append(best_index)
                in_greedy[best_index] = True
            if aborted:
                break
        if len(greedy) == k:
            selected = greedy
            phases = 2
        elif greedy:
            # Partial greedy: keep it, fill remaining slots by pool order.
            filler = [
                index for index in range(len(pool)) if not in_greedy[index]
            ]
            selected = greedy + filler[: k - len(greedy)]
            phases = 2

    # Phase 3: swap local search until no improvement or budget exhausted.
    if phases == 2 and k and not out_of_time():
        in_selected = np.zeros(len(pool), dtype=bool)
        in_selected[selected] = True
        current_score = evaluator.score(selected)
        improved = True
        while improved and not out_of_time():
            improved = False
            for position in range(k):
                if out_of_time():
                    break
                best_swap = None
                best_swap_score = current_score
                for candidate in range(len(pool)):
                    if in_selected[candidate]:
                        continue
                    if out_of_time():
                        break
                    trial = list(selected)
                    trial[position] = candidate
                    trial_score = evaluator.score(trial)
                    if trial_score > best_swap_score + _SWAP_EPSILON:
                        best_swap_score = trial_score
                        best_swap = candidate
                if best_swap is not None:
                    in_selected[selected[position]] = False
                    in_selected[best_swap] = True
                    selected[position] = best_swap
                    current_score = best_swap_score
                    improved = True
        # A pass that found no swap *and* did not run out of time means the
        # local search converged — the best the greedy can do on this pool.
        if not improved and not out_of_time():
            phases = 3

    groups = [pool[index] for index in selected]
    diversity = evaluator.diversity(selected)
    coverage = evaluator.coverage(selected)
    affinity = evaluator.affinity(selected)
    score = (
        config.diversity_weight * diversity
        + config.coverage_weight * coverage
        + config.feedback_weight * affinity
        + config.description_diversity_weight
        * evaluator.description_diversity(selected)
    )
    return SelectionResult(
        groups=groups,
        diversity=diversity,
        coverage=coverage,
        affinity=affinity,
        score=score,
        elapsed_ms=(clock() - started) * 1000.0,
        evaluations=evaluator.evaluations,
        pool_size=len(pool),
        phases_completed=phases,
        engine="reference",
    )
