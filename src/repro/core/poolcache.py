"""Session-scoped memoization of per-pool selection precomputation.

The greedy selector (:mod:`repro.core.selection`) derives everything it
scores from one pooled sparse membership matrix: the pool×relevant
coverage incidence, per-candidate coverage positions, lazily materialized
pool×pool Jaccard columns, and the description-attribute incidence.  A
single click affords rebuilding all of it (~45% of a converged budgeted
``select_k``), but a *session* is a walk over heavily overlapping
neighborhoods — the original VEXUS system precomputes exactly these
shared statistics so every click after the first pays only for what
changed.

:class:`PoolStatsCache` is that reuse layer, owned by one
:class:`~repro.core.session.ExplorationSession` (or one benchmark loop)
and keyed on *content fingerprints* so stale reuse is impossible by
construction:

- **structure layer** — :class:`_PoolStructure` holds every
  feedback-independent precomputation for one ``(pool, relevant)`` pair.
  Keyed on the ordered tuple of per-group fingerprints (gid, size, member
  hash) plus the relevant-set fingerprint: mutating a group's members or
  re-running discovery changes the fingerprint and misses.  A pool that
  *permutes* a cached pool (profile re-ranking reorders, it does not
  recompute) is served by row-permuting the donor's CSR slices instead of
  rebuilding.  When the owning session hands over the similarity index's
  membership matrix, cold builds slice rows out of it (validated against
  the pool's member arrays) rather than re-concatenating per click.
  Each structure memoizes the Jaccard columns it materializes (one
  sparse mat-vec per column through
  :func:`repro.core.similarity.jaccard_column`).
- **feedback layer** — the feedback-dependent arrays (coverage weights,
  per-candidate §II-B group weights) keyed on the feedback vector's
  *content* key (:meth:`repro.core.feedback.FeedbackVector.state_key`),
  so a backtrack that restores a snapshot hits even though the vector
  object mutated in between.
- **result layer** — full ``select_k`` results keyed on (pool, relevant,
  feedback content, prior key, config).  A hit returns the identical
  display and scores; it is what makes the paper's backtrack/re-click
  HISTORY gesture effectively free.

- **governor layer** — where the adaptive budget governor's escalation
  stopped on each (pool, config), so a budgeted re-click *resumes* at the
  recorded tier instead of restarting from tier 1 (see
  :mod:`repro.core.selection`).

When the owning session belongs to a
:class:`~repro.core.runtime.GroupSpaceRuntime`, the structure and result
layers additionally consult the runtime's cross-session
:class:`~repro.core.runtime.SharedSelectionCache` before computing, so
one session's precomputation warms every other session over the same
group space, and a click another session already converged on (same
pool, relevant set, feedback content, prior and config, same store
epoch) is answered without running selection.  Only converged,
ungoverned results are shared — they are deterministic in their key.
The feedback and governor layers stay private per session by
construction — they encode one explorer's CONTEXT.

Every layer is LRU/size-bounded so long sessions stay in bounded memory,
and every layer is *transparent*: cached and uncached runs return the
same groups and scores (property-tested in
``tests/core/test_poolcache.py``).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from collections.abc import Callable, Sequence
from typing import Any, Hashable, Optional

import numpy as np
from scipy import sparse

from repro.core.feedback import FeedbackVector
from repro.core.group import Group
from repro.core.similarity import jaccard_column, membership_matrix
from repro.obs.trace import traced

#: (gid, member count, member-content hash) — identifies one group's
#: membership by value, not by object identity.
GroupFingerprint = tuple[int, int, int]


def group_fingerprint(group: Group) -> GroupFingerprint:
    """Content fingerprint of one group's member set."""
    members = np.ascontiguousarray(group.members)
    return (group.gid, len(members), hash(members.tobytes()))


def pool_fingerprint(pool: Sequence[Group]) -> tuple[GroupFingerprint, ...]:
    """Ordered fingerprint of a candidate pool (pool order is floor-fill order)."""
    return tuple(group_fingerprint(group) for group in pool)


def relevant_fingerprint(relevant: np.ndarray) -> tuple[int, int]:
    """Content fingerprint of the relevant-user array."""
    array = np.ascontiguousarray(np.asarray(relevant, dtype=np.int64))
    return (len(array), hash(array.tobytes()))


def _attribute_of(token: str) -> str:
    """The analysis direction a description token belongs to.

    ``gender=female`` -> ``gender``; ``item:The Hobbit`` -> ``item``.
    """
    if token.startswith("item:"):
        return "item"
    attribute, separator, _ = token.partition("=")
    return attribute if separator else token


class _PoolStructure:
    """Feedback-independent precomputation for one (pool, relevant) pair.

    Everything both selection engines read that does not depend on the
    feedback vector or the prior: the pooled membership CSR, the
    pool×relevant coverage incidence and per-candidate positions, the
    description-attribute incidence, and the lazily materialized Jaccard
    columns.  Instances are immutable apart from ``sim_columns`` growing,
    which only ever *adds* values that any fresh computation would produce
    bitwise-identically — so sharing one structure across many
    ``select_k`` calls cannot change any score.
    """

    __slots__ = (
        "pool",
        "fingerprints",
        "key",
        "_stable_key",
        "relevant",
        "n_relevant",
        "n_columns",
        "members_matrix",
        "member_sizes",
        "cover",
        "positions",
        "group_attributes",
        "attrs",
        "attr_count",
        "sim_columns",
        "shared_version",
        "published_columns",
    )

    def __init__(
        self,
        pool: Sequence[Group],
        relevant: np.ndarray,
        fingerprints: Optional[tuple[GroupFingerprint, ...]] = None,
        relevant_key: Optional[tuple[int, int]] = None,
        space_matrix: Optional[sparse.csr_matrix] = None,
    ) -> None:
        self.pool = list(pool)
        self.fingerprints = (
            pool_fingerprint(self.pool) if fingerprints is None else fingerprints
        )
        relevant_key = (
            relevant_fingerprint(relevant) if relevant_key is None else relevant_key
        )
        self.key = (self.fingerprints, relevant_key)
        self._stable_key: Optional[str] = None
        self.relevant = np.unique(np.asarray(relevant, dtype=np.int64))
        self.n_relevant = len(self.relevant)
        memberships = [group.members for group in self.pool]
        matrix = self._slice_space_matrix(space_matrix, memberships)
        if matrix is None:
            n_columns = max(
                (int(members.max()) + 1 for members in memberships if len(members)),
                default=0,
            )
            if self.n_relevant:
                n_columns = max(n_columns, int(self.relevant.max()) + 1)
            matrix = membership_matrix(memberships, n_columns)
        self.members_matrix = matrix
        self.n_columns = matrix.shape[1]
        self.member_sizes = np.array(
            [len(members) for members in memberships], dtype=np.float64
        )
        self._build_cover()
        self.group_attributes = [
            frozenset(_attribute_of(token) for token in group.description)
            for group in self.pool
        ]
        self._build_attrs()
        self.sim_columns: dict[int, np.ndarray] = {}
        # The shared-cache version observed when this structure was
        # served — its republication is stamped with it, so a store
        # mutation mid-click invalidates rather than races.
        self.shared_version = 0
        # Columns already visible to the shared layer; when the live
        # count grows past this, the owning cache republishes a snapshot
        # so other sessions inherit the materialized columns.
        self.published_columns = 0

    def _slice_space_matrix(
        self,
        space_matrix: Optional[sparse.csr_matrix],
        memberships: list[np.ndarray],
    ) -> Optional[sparse.csr_matrix]:
        """Pool rows sliced out of the session's space-level membership CSR.

        Only trusted after validating the sliced column indices against the
        pool's actual member arrays — a mutated store silently diverging
        from the index is exactly the staleness this cache must never
        serve.  Any mismatch falls back to a direct build.
        """
        if space_matrix is None or not self.pool:
            return None
        n_rows, width = space_matrix.shape
        gids = [group.gid for group in self.pool]
        if min(gids) < 0 or max(gids) >= n_rows:
            return None
        if self.n_relevant and int(self.relevant.max()) >= width:
            return None
        sliced = space_matrix[gids]
        expected = (
            np.concatenate(memberships)
            if memberships
            else np.empty(0, dtype=np.int64)
        )
        if sliced.nnz != len(expected) or not np.array_equal(
            sliced.indices, expected
        ):
            return None
        return sliced

    def _build_cover(self) -> None:
        if self.n_relevant and self.pool:
            cover = self.members_matrix[:, self.relevant].tocsr()
            cover.data = cover.data.astype(np.float64)
            self.cover: Optional[sparse.csr_matrix] = cover
            indptr = cover.indptr
            indices = cover.indices
            self.positions = [
                indices[indptr[i] : indptr[i + 1]].astype(np.int64)
                for i in range(len(self.pool))
            ]
        else:
            self.cover = None
            self.positions = [np.empty(0, dtype=np.int64) for _ in self.pool]

    def _build_attrs(self) -> None:
        vocabulary = sorted(
            {attr for attrs in self.group_attributes for attr in attrs}
        )
        attr_index = {attr: i for i, attr in enumerate(vocabulary)}
        npool = len(self.pool)
        self.attrs = np.zeros((npool, max(len(vocabulary), 1)), dtype=bool)
        for index, attrs in enumerate(self.group_attributes):
            for attr in attrs:
                self.attrs[index, attr_index[attr]] = True
        self.attr_count = np.maximum(
            np.array(
                [len(attrs) for attrs in self.group_attributes], dtype=np.int64
            ),
            1,
        )

    # -- durable identity ------------------------------------------------

    @property
    def stable_key(self) -> str:
        """Cross-process content identity of this (pool, relevant) pair.

        ``key`` hashes member bytes with the process-salted builtin
        ``hash`` — the right trade-off for the per-click hot path, but
        meaningless in another process.  Durable state (the governor-tier
        layer persisted by :func:`repro.core.store.save_session_state`)
        instead keys on this sha256 digest of the *ordered* pool (gid,
        size, member bytes) plus the deduplicated relevant set, so a
        session restored after a restart lands on the same keys a fresh
        build of the same content produces.  Computed lazily and cached:
        warm clicks that never touch the governor or persistence pay
        nothing.
        """
        if self._stable_key is None:
            digest = hashlib.sha256()
            for group in self.pool:
                members = np.ascontiguousarray(group.members, dtype=np.int64)
                digest.update(np.int64(group.gid).tobytes())
                digest.update(np.int64(len(members)).tobytes())
                digest.update(members.tobytes())
            digest.update(b"|relevant|")
            digest.update(self.relevant.tobytes())
            self._stable_key = digest.hexdigest()
        return self._stable_key

    # -- Jaccard columns ------------------------------------------------

    def sim_column(self, index: int) -> np.ndarray:
        """Jaccard of every pool entry to ``pool[index]``, lazily cached."""
        column = self.sim_columns.get(index)
        if column is None:
            column = jaccard_column(
                self.members_matrix, self.member_sizes, self.pool[index].members
            )
            self.sim_columns[index] = column
        return column

    def snapshot(self) -> "_PoolStructure":
        """An independent view of this structure for another session.

        Shares every immutable array (membership CSR, coverage incidence,
        attribute matrices) but owns fresh mutable state: a copied
        ``sim_columns`` dict.  This is what
        :class:`~repro.core.runtime.SharedSelectionCache` stores and
        returns, so no two sessions ever mutate the same dict
        concurrently.
        """
        twin = object.__new__(_PoolStructure)
        twin.pool = self.pool
        twin.fingerprints = self.fingerprints
        twin.key = self.key
        twin._stable_key = self._stable_key
        twin.relevant = self.relevant
        twin.n_relevant = self.n_relevant
        twin.n_columns = self.n_columns
        twin.members_matrix = self.members_matrix
        twin.member_sizes = self.member_sizes
        twin.cover = self.cover
        twin.positions = self.positions
        twin.group_attributes = self.group_attributes
        twin.attrs = self.attrs
        twin.attr_count = self.attr_count
        twin.sim_columns = dict(self.sim_columns)
        twin.shared_version = 0
        twin.published_columns = len(twin.sim_columns)
        return twin

    # -- permutation reuse ----------------------------------------------

    def permuted(
        self,
        pool: Sequence[Group],
        fingerprints: tuple[GroupFingerprint, ...],
        relevant_key: tuple[int, int],
    ) -> Optional["_PoolStructure"]:
        """This structure re-ordered to serve ``pool`` (same groups, new order).

        Profile re-ranking permutes the candidate pool without changing its
        content; row-permuting the existing CSR slices (and re-keying the
        materialized Jaccard columns) is far cheaper than a rebuild.
        Returns ``None`` when ``pool`` is not a permutation of this
        structure's groups.
        """
        if len(pool) != len(self.pool):
            return None
        old_position = {
            fingerprint: position
            for position, fingerprint in enumerate(self.fingerprints)
        }
        try:
            perm = [old_position[fingerprint] for fingerprint in fingerprints]
        except KeyError:
            return None
        permutation = np.asarray(perm, dtype=np.int64)
        twin = object.__new__(_PoolStructure)
        twin.pool = list(pool)
        twin.fingerprints = fingerprints
        twin.key = (fingerprints, relevant_key)
        twin._stable_key = None  # pool order is part of the identity
        twin.relevant = self.relevant
        twin.n_relevant = self.n_relevant
        twin.n_columns = self.n_columns
        twin.members_matrix = self.members_matrix[permutation]
        twin.member_sizes = self.member_sizes[permutation]
        twin.cover = self.cover[permutation] if self.cover is not None else None
        twin.positions = [self.positions[i] for i in perm]
        twin.group_attributes = [self.group_attributes[i] for i in perm]
        twin.attrs = self.attrs[permutation]
        twin.attr_count = self.attr_count[permutation]
        new_position = {old: new for new, old in enumerate(perm)}
        twin.sim_columns = {
            new_position[old]: column[permutation]
            for old, column in self.sim_columns.items()
            if old in new_position
        }
        twin.shared_version = self.shared_version
        twin.published_columns = 0
        return twin


class PoolStatsCache:
    """Bounded, fingerprint-keyed reuse of per-pool selection state.

    One instance per exploration session (or benchmark loop).  All layers
    are transparent caches: a hit returns exactly what a fresh computation
    would, a content change anywhere (store mutation, re-discovery,
    feedback drift) changes the fingerprint and misses.  ``capacity`` /
    ``result_capacity`` bound the structure and result layers with LRU
    eviction, so long sessions hold bounded memory; ``result_capacity=0``
    turns the result layer off, shared results included.
    """

    def __init__(
        self,
        capacity: int = 32,
        result_capacity: int = 64,
        space_matrix: Optional[sparse.csr_matrix] = None,
        shared: Optional[Any] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if result_capacity < 0:
            raise ValueError("result_capacity must be >= 0")
        self.capacity = capacity
        self.result_capacity = result_capacity
        self.space_matrix = space_matrix
        #: Cross-session layer (a
        #: :class:`repro.core.runtime.SharedSelectionCache`) consulted for
        #: structures and converged results before computing.  The
        #: feedback and governor layers stay private to this session cache.
        self.shared = shared
        #: Store epoch the owning session is pinned to: shared results are
        #: only exchanged with sessions on the same epoch.  Set by
        #: :meth:`repro.core.runtime.GroupSpaceRuntime.session_cache`.
        self.epoch = 0
        # Shared-cache version observed by the last result lookup, i.e.
        # before the selection it guards started; -1 never matches.
        self._result_version = -1
        self._structures: "OrderedDict[tuple, _PoolStructure]" = OrderedDict()
        self._by_set: dict[tuple, tuple] = {}
        self._feedback_layers: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._results: "OrderedDict[tuple, Any]" = OrderedDict()
        self._dense_weights: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        self._governor_tiers: "OrderedDict[tuple, int]" = OrderedDict()
        self.last_structure_key: Optional[tuple] = None
        self.structure_hits = 0
        self.structure_permuted = 0
        self.structure_misses = 0
        self.shared_structure_hits = 0
        self.feedback_hits = 0
        self.feedback_misses = 0
        self.result_hits = 0
        self.result_misses = 0
        self.shared_result_hits = 0
        self.governor_resumes = 0
        self.evictions = 0

    # -- structure layer -------------------------------------------------

    @traced("cache_lookup")
    def structure_for(
        self,
        pool: Sequence[Group],
        relevant: np.ndarray,
        fingerprints: Optional[tuple[GroupFingerprint, ...]] = None,
        relevant_key: Optional[tuple[int, int]] = None,
    ) -> tuple[_PoolStructure, str]:
        """The structure for ``(pool, relevant)`` plus how it was obtained.

        Returns ``(structure, state)`` with state ``"warm"`` (exact,
        permuted or cross-session reuse) or ``"miss"`` (fresh build, now
        cached — and published to the shared layer when one is attached).
        """
        if fingerprints is None:
            fingerprints = pool_fingerprint(pool)
        if relevant_key is None:
            relevant_key = relevant_fingerprint(relevant)
        key = (fingerprints, relevant_key)
        shared = self.shared
        shared_version = shared.version if shared is not None else 0
        structure = self._structures.get(key)
        if structure is not None:
            self._structures.move_to_end(key)
            self.structure_hits += 1
            structure.shared_version = shared_version
            self.last_structure_key = key
            return structure, "warm"
        set_key = (frozenset(fingerprints), relevant_key)
        donor_key = self._by_set.get(set_key)
        state = "miss"
        if donor_key is not None and donor_key in self._structures:
            donor = self._structures[donor_key]
            structure = donor.permuted(pool, fingerprints, relevant_key)
            if structure is not None:
                self.structure_permuted += 1
                state = "warm"
        if structure is None and shared is not None:
            # Cross-session reuse: another session over the same runtime
            # already built this (pool, relevant) structure.  The lookup
            # returns an independent snapshot, so this session's column
            # materialization never touches the donor's dicts.
            structure = shared.lookup_structure(key, shared_version)
            if structure is not None:
                self.shared_structure_hits += 1
                state = "warm"
        if structure is None:
            structure = _PoolStructure(
                pool,
                relevant,
                fingerprints=fingerprints,
                relevant_key=relevant_key,
                space_matrix=self.space_matrix,
            )
            self.structure_misses += 1
            if shared is not None and shared.publish_structure(
                key, structure, shared_version
            ):
                structure.published_columns = len(structure.sim_columns)
        structure.shared_version = shared_version
        self._structures[key] = structure
        self._by_set[set_key] = key
        self.last_structure_key = key
        while len(self._structures) > self.capacity:
            evicted_key, evicted = self._structures.popitem(last=False)
            evicted_set = (frozenset(evicted.fingerprints), evicted_key[1])
            if self._by_set.get(evicted_set) == evicted_key:
                del self._by_set[evicted_set]
            self.evictions += 1
        return structure, state

    def touch_last(self) -> None:
        """Mark the most recently served pool as hot again (LRU refresh).

        Drill-down and STATS reads signal the explorer is studying the
        current neighborhood; keeping its statistics resident makes the
        likely next click warm.
        """
        key = self.last_structure_key
        if key is not None and key in self._structures:
            self._structures.move_to_end(key)

    def republish_structure(self, key: Optional[tuple] = None) -> None:
        """Refresh the shared copy of a pool with its live columns.

        A structure is first published at build time, before any Jaccard
        column exists; the selection engines then materialize columns for
        every group that enters the display.  Called at the end of
        ``select_k`` with the clicked pool's structure key (falling back
        to the most recently served structure), this pushes an updated
        snapshot so *other* sessions inherit the materialized columns
        instead of recomputing them.  No-op without a
        shared layer or when nothing new was materialized.
        """
        shared = self.shared
        if key is None:
            key = self.last_structure_key
        if shared is None or key is None:
            return
        structure = self._structures.get(key)
        if structure is None:
            return
        if len(structure.sim_columns) <= structure.published_columns:
            return
        if shared.publish_structure(key, structure, structure.shared_version):
            structure.published_columns = len(structure.sim_columns)

    # -- feedback layer --------------------------------------------------

    def feedback_layer_for(
        self,
        structure: _PoolStructure,
        feedback: Optional[FeedbackVector],
        prior: Optional[Callable[[Group], float]],
        prior_key: Optional[Hashable],
        compute: Callable[[], tuple],
    ) -> tuple:
        """Cached (weights, total_weight, group_feedback) for one structure.

        Keyed on the feedback vector's content key plus the caller-supplied
        prior key; an unkeyable prior (``prior`` given without
        ``prior_key``) is computed fresh every time rather than guessed at.
        """
        if prior is not None and prior_key is None:
            return compute()
        feedback_key = feedback.state_key() if feedback is not None else None
        key = (structure.key, feedback_key, prior_key)
        layer = self._feedback_layers.get(key)
        if layer is not None:
            self._feedback_layers.move_to_end(key)
            self.feedback_hits += 1
            return layer
        layer = compute()
        self.feedback_misses += 1
        self._feedback_layers[key] = layer
        while len(self._feedback_layers) > max(2 * self.capacity, 4):
            self._feedback_layers.popitem(last=False)
        return layer

    def dense_user_weights(
        self,
        feedback: FeedbackVector,
        size: int,
    ) -> np.ndarray:
        """Memoized ``feedback.user_weights(size, floor=0.0)`` by content key."""
        key = (feedback.state_key(), size)
        weights = self._dense_weights.get(key)
        if weights is None:
            weights = feedback.user_weights(size, floor=0.0)
            self._dense_weights[key] = weights
            while len(self._dense_weights) > 8:
                self._dense_weights.popitem(last=False)
        else:
            self._dense_weights.move_to_end(key)
        return weights

    # -- result layer ----------------------------------------------------

    def result_key(
        self,
        fingerprints: tuple[GroupFingerprint, ...],
        relevant_key: tuple[int, int],
        feedback: Optional[FeedbackVector],
        prior: Optional[Callable[[Group], float]],
        prior_key: Optional[Hashable],
        config_key: Hashable,
    ) -> Optional[tuple]:
        """Memo key for a full ``select_k`` call; ``None`` when unkeyable."""
        if prior is not None and prior_key is None:
            return None
        feedback_key = feedback.state_key() if feedback is not None else None
        return (fingerprints, relevant_key, feedback_key, prior_key, config_key)

    def lookup_result(self, key: tuple) -> Optional[Any]:
        """The memoized result for ``key``: this session's, else a shared one."""
        result = self._results.get(key)
        if result is not None:
            self._results.move_to_end(key)
            self.result_hits += 1
            return result
        shared = self.shared
        if shared is not None and self.result_capacity:
            self._result_version = shared.version
            result = shared.lookup_result(key, self.epoch, self._result_version)
            if result is not None:
                self.shared_result_hits += 1
                self.result_hits += 1
                self.store_result(key, result)
                return result
        self.result_misses += 1
        return None

    def store_result(self, key: tuple, result: Any, share: bool = False) -> None:
        """Memoize ``result``; ``share`` also offers it to other sessions.

        Only a result that is deterministic in ``key`` may be shared (the
        selection engine passes ``share`` for converged, ungoverned
        runs).  It is stamped with the shared version observed by the
        preceding :meth:`lookup_result`, so a mutation that landed while
        it was computed gets it refused.
        """
        if self.result_capacity == 0:
            return
        self._results[key] = result
        while len(self._results) > self.result_capacity:
            self._results.popitem(last=False)
        if share and self.shared is not None:
            self.shared.publish_result(
                key, self.epoch, result, self._result_version
            )

    # -- governor layer --------------------------------------------------

    def governor_resume_tier(self, structure_key: tuple, config_key: Hashable) -> int:
        """Highest escalation tier the last governed click on this pool
        reached (0 when the pool has not been governed yet).

        Keyed on the structure's content fingerprints plus the selection
        config, so a mutated pool or different governor knobs start cold.
        The budgeted escalation path uses this to *resume* at the
        recorded tier instead of re-exploring tiers that already
        converged on this pool — a scheduling hint only, never a result.
        """
        key = (structure_key, config_key)
        tier = self._governor_tiers.get(key)
        if tier is None:
            return 0
        self._governor_tiers.move_to_end(key)
        return tier

    def note_governor_resume(self) -> None:
        """Count one escalation that actually resumed past tier 1.

        Called by the selection engine *after* escalation ran with a
        recorded start tier — a mere lookup is not a resume (the click
        may exhaust its budget before ever escalating).
        """
        self.governor_resumes += 1

    def record_governor_tier(
        self, structure_key: tuple, config_key: Hashable, tier: int
    ) -> None:
        """Record where this pool's escalation stopped (LRU-bounded)."""
        key = (structure_key, config_key)
        self._governor_tiers[key] = tier
        self._governor_tiers.move_to_end(key)
        while len(self._governor_tiers) > max(2 * self.capacity, 4):
            self._governor_tiers.popitem(last=False)

    def export_governor_tiers(self) -> list[tuple[Any, Any, int]]:
        """Governor layer as ``(structure_key, config_key, tier)`` rows.

        The selection engine keys this layer on
        :attr:`_PoolStructure.stable_key` (a content digest) plus the
        selection-config tuple — both process-independent — so the rows
        survive serialization and a later :meth:`import_governor_tiers`
        in another process resumes escalation exactly where this one
        stopped.  Rows are emitted in LRU order (oldest first) so a
        bounded re-import keeps the same retention behaviour.
        """
        return [
            (structure_key, config_key, tier)
            for (structure_key, config_key), tier in self._governor_tiers.items()
        ]

    def import_governor_tiers(
        self, rows: Sequence[tuple[Any, Any, int]]
    ) -> None:
        """Restore rows exported by :meth:`export_governor_tiers`."""
        for structure_key, config_key, tier in rows:
            self.record_governor_tier(structure_key, config_key, int(tier))

    # -- targeted invalidation -------------------------------------------

    def invalidate_fingerprints(
        self, stale: "frozenset[GroupFingerprint] | set[GroupFingerprint]"
    ) -> int:
        """Drop every entry touching one of these group fingerprints.

        The per-fingerprint counterpart of :meth:`clear` for store
        mutations: only entries whose *content* actually changed
        (removed or member-churned groups) are evicted; everything else
        stays warm.  The governor layer is untouched — it keys on
        process-independent content digests, so stale rows simply never
        hit again.  Returns the number of entries dropped.
        """
        if not stale:
            return 0
        dropped = 0
        for key in [
            key
            for key in self._structures
            if any(fingerprint in stale for fingerprint in key[0])
        ]:
            evicted = self._structures.pop(key)
            set_key = (frozenset(evicted.fingerprints), key[1])
            if self._by_set.get(set_key) == key:
                del self._by_set[set_key]
            if self.last_structure_key == key:
                self.last_structure_key = None
            dropped += 1
        # Feedback layers key on ``structure.key`` = (fingerprints,
        # relevant_key); results key directly on the fingerprint tuple.
        for key in [
            key
            for key in self._feedback_layers
            if any(fingerprint in stale for fingerprint in key[0][0])
        ]:
            del self._feedback_layers[key]
            dropped += 1
        for key in [
            key
            for key in self._results
            if any(fingerprint in stale for fingerprint in key[0])
        ]:
            del self._results[key]
            dropped += 1
        return dropped

    # -- introspection ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._structures)

    def stats(self) -> dict[str, int]:
        """Counter snapshot (what the perf harness reports)."""
        return {
            "structures": len(self._structures),
            "structure_hits": self.structure_hits,
            "structure_permuted": self.structure_permuted,
            "structure_misses": self.structure_misses,
            "shared_structure_hits": self.shared_structure_hits,
            "feedback_hits": self.feedback_hits,
            "feedback_misses": self.feedback_misses,
            "result_hits": self.result_hits,
            "result_misses": self.result_misses,
            "shared_result_hits": self.shared_result_hits,
            "governor_resumes": self.governor_resumes,
            "evictions": self.evictions,
        }

    def clear(self) -> None:
        self._structures.clear()
        self._by_set.clear()
        self._feedback_layers.clear()
        self._results.clear()
        self._dense_weights.clear()
        self._governor_tiers.clear()
        self.last_structure_key = None

    def __repr__(self) -> str:
        counters = self.stats()
        return (
            f"PoolStatsCache({counters['structures']}/{self.capacity} pools, "
            f"{counters['structure_hits']} hits, "
            f"{counters['structure_misses']} misses, "
            f"{counters['result_hits']} result hits)"
        )
