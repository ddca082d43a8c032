"""Multi-session serving runtime for one group space.

VEXUS is a multi-user system: §II describes *analysts* — plural —
exploring the same offline-discovered group space side by side (the demo
scenarios of §III put several explorers on the same DBLP / BookCrossing
populations).  Before this module, every
:class:`~repro.core.session.ExplorationSession` built its own
:class:`~repro.index.inverted.SimilarityIndex` and its own
:class:`~repro.core.poolcache.PoolStatsCache`, so each new analyst paid
the full cold-start cost and nothing one session precomputed ever helped
another.

Three pieces turn the per-session stack into a serving runtime:

- :class:`SharedSelectionCache` — the concurrency-safe cross-session
  layer.  It holds per-(pool, relevant) structure snapshots and the
  converged ``select_k`` results sessions share, so a click whose inputs
  another session already converged on skips selection entirely.  Every
  read and write is stamped with the cache *version*: keys are content
  fingerprints (so stale data misses by construction even without
  versioning), and a store mutation bumps the version, which atomically
  empties the cache and rejects any in-flight publication that observed
  the old version.
- :class:`GroupSpaceRuntime` — owns, per group space, the immutable
  shared artifacts every session reads: the similarity index (built once
  with the batched lexsort ranking), the pooled group×user membership
  CSR, and the shared selection cache.  Sessions are created *from* the
  runtime and receive session caches wired to the shared layer; their
  feedback and governor layers stay private (they encode one explorer's
  CONTEXT, which must never leak between analysts — the threaded suite
  in ``tests/core/test_runtime.py`` asserts exactly this isolation plus
  display parity with sequential solo sessions).
- :class:`SessionManager` — the thread-safe service API: ``open_session``
  / ``click`` / ``close`` for N concurrent sessions against one runtime.
  Clicks on the same session serialize on a per-session lock; clicks on
  different sessions run concurrently and share warmth through the
  runtime.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from scipy import sparse

from repro.core.group import Group, GroupSpace
from repro.core.journal import (
    DurabilityError,
    JournalBrokenError,
    SessionJournal,
)
from repro.core.poolcache import PoolStatsCache, _PoolStructure
from repro.index.inverted import SimilarityIndex

if TYPE_CHECKING:  # circular at runtime: session constructs a runtime
    from repro.core.session import ExplorationSession, SessionConfig


#: Resume tokens are used as state-directory names, and the service
#: accepts them from the network — anything outside this alphabet (path
#: separators, ``..``, NUL) must never reach the filesystem layer.
_TOKEN_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_"
)


def _valid_token(token: str) -> bool:
    return 0 < len(token) <= 128 and set(token) <= _TOKEN_CHARS


class UnknownSessionError(KeyError):
    """A session id that is not live on this manager.

    Subclasses ``KeyError`` so pre-existing callers that caught the bare
    registry miss keep working; the message carries the offending id
    (``KeyError`` alone prints just the key, which reads like an internal
    crash when it surfaces through a service boundary).  The HTTP front
    maps this to a 404.
    """

    def __init__(self, session_id: str) -> None:
        super().__init__(session_id)
        self.session_id = session_id

    def __str__(self) -> str:
        return f"unknown or already-closed session {self.session_id!r}"


class SessionLimitError(RuntimeError):
    """Admission control: ``max_sessions`` live sessions already exist.

    The HTTP front maps this to a 429 so overloaded deployments shed new
    analysts instead of degrading every live session.
    """


class StaleEpochError(ValueError):
    """A resume pinned to an epoch no process retains anymore.

    The session was checkpointed against a store generation (membership
    digest) that has since aged out of every retention window — the
    runtime's ``retain_epochs`` ring, or, in the replicated tier, the
    pool's ``retain_segments`` arena window after a worker respawn.
    Subclasses ``ValueError`` so pre-existing 409 mappings keep firing,
    but the HTTP fronts type it ``stale_epoch`` (vs the generic
    ``conflict``) so clients can tell "your walk's store generation is
    gone, start a fresh session" from other state disagreements.
    """


#: Converged selection results the cross-session layer retains (LRU).
#: An entry is a few group references and floats, but its key holds the
#: computing session's feedback content; the bound caps how much of that
#: the layer keeps alive after the sessions have moved on.
SHARED_RESULT_CAPACITY = 256


class SharedSelectionCache:
    """Version-stamped cross-session selection cache.

    Two layers, both keyed on *content fingerprints* (gid + member hash),
    both transparent — a hit returns exactly what a fresh computation
    would produce:

    - **structures**: (pool fingerprints, relevant fingerprint) →
      feedback-independent :class:`_PoolStructure` snapshot.  Lookups
      return an independent snapshot per caller so no two sessions share
      mutable dicts.
    - **results**: a ``select_k`` memo key (pool, relevant, feedback
      content, prior key, config) → the :class:`SelectionResult` one
      session converged on.  Only results whose swap phase converged with
      the governor off are published: such a run never hit its deadline,
      so it is exactly the untimed result for that key, whichever session
      asks.  Entries are also keyed on the store epoch they were computed
      under and served only to sessions pinned to that epoch.

    Every operation carries the version the caller observed *before* it
    started computing, and every stored entry is stamped with the version
    it was published under.  :meth:`bump_version` (the full-flush
    mutation signal) increments the version and empties both layers, and
    any read or publication stamped with an older version is refused — a
    session that raced the mutation can neither read nor write stale
    state.  A lookup also requires the entry's own publication stamp to
    match the caller's version, so entries a bump has not swept yet are
    invisible the instant the version moves.

    Epoched store mutation (:meth:`GroupSpaceRuntime.apply_deltas`) does
    *not* bump the version: entries are content-addressed, so only the
    fingerprints whose content actually changed go stale —
    :meth:`invalidate_fingerprints` drops exactly those, leaving the rest
    warm for both old-epoch readers still draining and new-epoch
    sessions.
    """

    def __init__(self, structure_capacity: int = 64) -> None:
        if structure_capacity < 0:
            raise ValueError("structure_capacity must be >= 0")
        self.structure_capacity = structure_capacity
        self._structures: "OrderedDict[tuple, tuple[int, _PoolStructure]]" = (
            OrderedDict()
        )
        self._results: "OrderedDict[tuple, tuple[int, object]]" = OrderedDict()
        # One lock guards both layers, the version and the counters; every
        # critical section is short.
        self._lock = threading.Lock()
        self._version = 0
        self.structure_hits = 0
        self.structure_misses = 0
        self.result_hits = 0
        self.result_misses = 0
        self.stale_rejections = 0

    def _stale(self, version: int) -> bool:
        """Count and report a caller stamped with an old version (locked)."""
        if version != self._version:
            self.stale_rejections += 1
            return True
        return False

    # -- versioning ------------------------------------------------------

    @property
    def version(self) -> int:
        return self._version

    def bump_version(self) -> int:
        """Invalidate everything: a full-flush mutation makes all entries
        stale.  Returns the new version."""
        with self._lock:
            self._version += 1
            self._structures.clear()
            self._results.clear()
            return self._version

    def invalidate_fingerprints(self, stale: frozenset | set) -> int:
        """Drop exactly the entries whose content went stale (epoch apply).

        ``stale`` is a set of group fingerprints whose member content
        changed or disappeared in a mutation.  Structure snapshots and
        results whose pool references one are removed; everything else
        stays warm and the version does *not* move — unchanged content is
        still exactly what a fresh computation would produce.  Returns
        the number of entries dropped.
        """
        if not stale:
            return 0
        with self._lock:
            doomed = [
                key
                for key in self._structures
                if any(fingerprint in stale for fingerprint in key[0])
            ]
            for key in doomed:
                del self._structures[key]
            # Result keys are (epoch, memo key); the memo key leads with
            # the pool's fingerprint tuple.
            dropped = [
                key
                for key in self._results
                if any(fingerprint in stale for fingerprint in key[1][0])
            ]
            for key in dropped:
                del self._results[key]
        return len(doomed) + len(dropped)

    # -- structure layer -------------------------------------------------

    def lookup_structure(
        self, key: tuple, version: int
    ) -> Optional[_PoolStructure]:
        """An independent snapshot of a published structure, or ``None``.

        The returned snapshot shares only immutable arrays with the
        stored one; its mutable dicts are fresh, so the caller may
        materialize columns without synchronization.
        """
        with self._lock:
            if self._stale(version):
                return None
            stored = self._structures.get(key)
            if stored is None or stored[0] != version:
                self.structure_misses += 1
                return None
            self._structures.move_to_end(key)
            self.structure_hits += 1
            return stored[1].snapshot()

    def publish_structure(
        self, key: tuple, structure: _PoolStructure, version: int
    ) -> bool:
        """Store a snapshot of ``structure`` for other sessions (LRU-bounded)."""
        if self.structure_capacity == 0:
            return False
        snapshot = structure.snapshot()
        with self._lock:
            if self._stale(version):
                return False
            self._structures[key] = (version, snapshot)
            self._structures.move_to_end(key)
            while len(self._structures) > self.structure_capacity:
                self._structures.popitem(last=False)
        return True

    # -- result layer ----------------------------------------------------

    def lookup_result(self, key: tuple, epoch: int, version: int):
        """The result published for ``key`` under ``epoch``, or ``None``."""
        with self._lock:
            if self._stale(version):
                return None
            stored = self._results.get((epoch, key))
            if stored is None or stored[0] != version:
                self.result_misses += 1
                return None
            self._results.move_to_end((epoch, key))
            self.result_hits += 1
            return stored[1]

    def publish_result(
        self, key: tuple, epoch: int, result, version: int
    ) -> bool:
        """Share a converged result computed under ``epoch`` (LRU-bounded).

        The caller guarantees ``result`` is deterministic for ``key``
        (converged, governor off); it must not be mutated afterwards.
        """
        with self._lock:
            if self._stale(version):
                return False
            self._results[(epoch, key)] = (version, result)
            self._results.move_to_end((epoch, key))
            while len(self._results) > SHARED_RESULT_CAPACITY:
                self._results.popitem(last=False)
        return True

    # -- introspection ---------------------------------------------------

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "version": self._version,
                "structures": len(self._structures),
                "structure_hits": self.structure_hits,
                "structure_misses": self.structure_misses,
                "result_entries": len(self._results),
                "result_hits": self.result_hits,
                "result_misses": self.result_misses,
                "stale_rejections": self.stale_rejections,
            }

    def __repr__(self) -> str:
        return (
            f"SharedSelectionCache(v{self._version}, "
            f"{len(self._structures)}/{self.structure_capacity} structures, "
            f"{len(self._results)} results)"
        )


class StoreEpoch:
    """One immutable generation of a group space's serving artifacts.

    A mutation (:meth:`GroupSpaceRuntime.apply_deltas`) never edits the
    live space or index in place — it builds a *new* epoch (space, index,
    membership digest) and atomically swaps it in.  Sessions pin the
    epoch they were opened (or resumed) under, so in-flight clicks and
    untimed parity oracles keep reading a consistent generation until
    they drain; durable checkpoints and journal records stamp the pinned
    epoch's number and digest so recovery replays against the right
    space generation.
    """

    __slots__ = ("number", "space", "index", "parent_digest", "_digest", "_lock")

    def __init__(
        self,
        number: int,
        space: GroupSpace,
        index: SimilarityIndex,
        parent_digest: Optional[str] = None,
        digest: Optional[str] = None,
    ) -> None:
        self.number = number
        self.space = space
        self.index = index
        self.parent_digest = parent_digest
        self._digest = digest
        self._lock = threading.Lock()

    def digest(self) -> str:
        """The epoch's sha256 membership digest, computed once."""
        from repro.core.store import space_digest

        with self._lock:
            if self._digest is None:
                self._digest = space_digest(self.space.memberships())
            return self._digest

    def __repr__(self) -> str:
        return f"StoreEpoch(#{self.number}, {len(self.space)} groups)"


class GroupSpaceRuntime:
    """Shared serving artifacts for all sessions over one group space.

    Owns what §II computes offline once and serves to every analyst: the
    group space, the partially materialized similarity index (built with
    the batched lexsort ranking, so construction scales to very large
    spaces), the pooled membership CSR behind it, and the cross-session
    :class:`SharedSelectionCache`.  The space/index pair lives in a
    :class:`StoreEpoch`; :meth:`apply_deltas` swaps in a delta-maintained
    new epoch without ever stalling readers, while the legacy
    :meth:`bump_version` full flush remains for wholesale re-discovery.

    ``share_cache=False`` produces a private runtime (the implicit one a
    standalone :class:`~repro.core.session.ExplorationSession` builds for
    itself): same ownership structure, no cross-session layer.
    """

    def __init__(
        self,
        space: GroupSpace,
        index: Optional[SimilarityIndex] = None,
        materialize_fraction: float = 0.10,
        shared: Optional[SharedSelectionCache] = None,
        share_cache: bool = True,
        name: Optional[str] = None,
        retain_epochs: int = 4,
    ) -> None:
        #: Routing identity when this runtime is hosted by a
        #: :class:`repro.spaces.SpaceRegistry`; session checkpoints are
        #: stamped with it so state saved under one space name can never
        #: be resumed onto another space (``None`` for anonymous
        #: single-space runtimes — the pre-registry deployments).
        self.name = name
        index = index or SimilarityIndex(
            space.memberships(),
            space.dataset.n_users,
            materialize_fraction=materialize_fraction,
        )
        if index.n_groups != len(space):
            raise ValueError(
                f"index covers {index.n_groups} groups, "
                f"space has {len(space)}"
            )
        if retain_epochs < 1:
            raise ValueError("retain_epochs must be >= 1")
        self.retain_epochs = retain_epochs
        self._epoch = StoreEpoch(0, space, index)
        #: Recent epochs by number (newest last), the current one always
        #: included: an evicted session checkpointed under an older epoch
        #: can resume — and replay its journal — against the exact
        #: generation it was exploring, as long as it is retained.
        self._retained: "OrderedDict[int, StoreEpoch]" = OrderedDict(
            [(0, self._epoch)]
        )
        self._mutate_lock = threading.Lock()
        self.shared: Optional[SharedSelectionCache] = (
            shared
            if shared is not None
            else SharedSelectionCache()
            if share_cache
            else None
        )
        self._private_version = 0
        self._sessions_opened = 0
        self._opened_lock = threading.Lock()

    # -- epochs ----------------------------------------------------------

    @property
    def space(self) -> GroupSpace:
        """The current epoch's group space (pin via :meth:`current_epoch`)."""
        return self._epoch.space

    @property
    def index(self) -> SimilarityIndex:
        """The current epoch's similarity index."""
        return self._epoch.index

    @property
    def epoch(self) -> int:
        """The current epoch number (0 until the first mutation)."""
        return self._epoch.number

    def current_epoch(self) -> StoreEpoch:
        """The live epoch as one atomic object.

        Sessions read this exactly once at construction so their space,
        index and digest are guaranteed to belong to the same generation
        even when a mutation lands mid-open.
        """
        return self._epoch

    def resolve_digest(self, digest: str) -> Optional[StoreEpoch]:
        """The retained epoch with this membership digest, if any.

        The recovery hook: a checkpoint or journal stamped with an older
        epoch's digest replays against that exact generation instead of
        being refused, as long as the epoch is still retained (newest
        epochs are consulted first; beyond ``retain_epochs`` the caller
        gets ``None`` and refuses with an epoch-aware error).
        """
        with self._mutate_lock:
            epochs = list(self._retained.values())
        for epoch in reversed(epochs):
            if epoch.digest() == digest:
                return epoch
        return None

    def apply_deltas(self, delta, verify: bool = False) -> dict[str, object]:
        """Apply a :class:`~repro.core.group.GroupDelta` as a new epoch.

        Builds the mutated space (gids compacted), delta-maintains the
        similarity index (only rows touching changed groups recompute —
        ``verify=True`` additionally builds the full-rebuild oracle and
        asserts bitwise prefix parity), invalidates the shared cache
        *per content fingerprint* (no version bump: unchanged entries
        stay warm), and atomically publishes the new
        :class:`StoreEpoch`.  Readers are never blocked: sessions opened
        before the swap keep serving their pinned epoch until they
        drain.  Concurrent mutations serialize on one lock.  Returns a
        mutation report (epoch number, digest, counts, timing).
        """
        from repro.core.group import apply_group_delta
        from repro.core.poolcache import group_fingerprint

        started = time.perf_counter()
        with self._mutate_lock:
            old = self._epoch
            if delta.is_empty():
                return {
                    "epoch": old.number,
                    "digest": old.digest(),
                    "parent_digest": old.parent_digest,
                    "n_groups": len(old.space),
                    "added": 0,
                    "removed": 0,
                    "changed": 0,
                    "cache_entries_dropped": 0,
                    "apply_ms": (time.perf_counter() - started) * 1000.0,
                }
            new_space, old_to_new, changed_old, changed_new = apply_group_delta(
                old.space, delta
            )
            new_index = old.index.apply_delta(
                new_space.memberships(), changed_new, changed_old, old_to_new
            )
            if verify:
                oracle = SimilarityIndex(
                    new_space.memberships(),
                    new_space.dataset.n_users,
                    materialize_fraction=old.index.materialize_fraction,
                )
                if not new_index.parity_with(oracle):
                    raise RuntimeError(
                        "delta-maintained index diverged from the "
                        "full-rebuild oracle; refusing to publish the epoch"
                    )
            # Only the fingerprints whose *content* went stale: removed
            # and churned groups.  Shifted-but-identical groups keep
            # their entries (their old fingerprints still describe the
            # old-epoch readers' reality, and their new fingerprints
            # simply miss and repopulate).
            stale = frozenset(
                group_fingerprint(old.space[int(gid)]) for gid in changed_old
            )
            dropped = (
                self.shared.invalidate_fingerprints(stale)
                if self.shared is not None
                else 0
            )
            epoch = StoreEpoch(
                old.number + 1, new_space, new_index, parent_digest=old.digest()
            )
            self._epoch = epoch
            self._retained[epoch.number] = epoch
            while len(self._retained) > self.retain_epochs:
                self._retained.popitem(last=False)
        return {
            "epoch": epoch.number,
            "digest": epoch.digest(),
            "parent_digest": epoch.parent_digest,
            "n_groups": len(new_space),
            "added": len(delta.added),
            "removed": len(delta.removed),
            "changed": len(delta.changed),
            "cache_entries_dropped": dropped,
            "apply_ms": (time.perf_counter() - started) * 1000.0,
        }

    def adopt_epoch(
        self,
        space: GroupSpace,
        index: SimilarityIndex,
        stale_gids=(),
        digest: Optional[str] = None,
        epoch_number: Optional[int] = None,
    ) -> dict[str, object]:
        """Publish an externally built (space, index) pair as a new epoch.

        The replica-side half of :meth:`apply_deltas`: when the mutation
        was applied elsewhere (the replication parent) and this runtime
        receives the finished artifacts — typically attached zero-copy
        from a shared-memory arena — it swaps them in with the same
        contract: readers never block, pinned sessions keep their old
        epoch, and only the shared-cache entries whose content went
        stale are dropped.  ``stale_gids`` name the *current* (old)
        epoch's groups whose membership changed or vanished; their
        fingerprints are computed against this process's own space (pool
        fingerprints are process-local, so the publisher cannot compute
        them for us).  ``digest`` seeds the new epoch's digest when the
        publisher already knows it (arena attach verified it, so it is
        authoritative).
        """
        from repro.core.poolcache import group_fingerprint

        started = time.perf_counter()
        with self._mutate_lock:
            old = self._epoch
            stale = frozenset(
                group_fingerprint(old.space[int(gid)])
                for gid in stale_gids
                if 0 <= int(gid) < len(old.space)
            )
            dropped = (
                self.shared.invalidate_fingerprints(stale)
                if self.shared is not None and stale
                else 0
            )
            number = (
                epoch_number if epoch_number is not None else old.number + 1
            )
            epoch = StoreEpoch(
                number,
                space,
                index,
                parent_digest=old.digest(),
                digest=digest,
            )
            self._epoch = epoch
            self._retained[epoch.number] = epoch
            while len(self._retained) > self.retain_epochs:
                self._retained.popitem(last=False)
        return {
            "epoch": epoch.number,
            "digest": epoch.digest(),
            "parent_digest": epoch.parent_digest,
            "n_groups": len(space),
            "cache_entries_dropped": dropped,
            "apply_ms": (time.perf_counter() - started) * 1000.0,
        }

    # -- versioning ------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotone generation counter of the underlying group space."""
        if self.shared is not None:
            return self.shared.version
        return self._private_version

    def bump_version(self) -> int:
        """Signal a wholesale store mutation: all shared artifacts stale.

        The legacy full-flush path (re-discovery replacing the space
        outright); incremental group add/remove/member-churn should go
        through :meth:`apply_deltas`, which invalidates per fingerprint
        instead.
        """
        self._private_version += 1
        if self.shared is not None:
            return self.shared.bump_version()
        return self._private_version

    def membership_digest(self) -> str:
        """The current epoch's sha256 membership digest (computed once).

        Durable session checkpoints stamp every payload with their
        session's *pinned* epoch digest; hashing the whole space on
        every click would put an O(total members) pass on the serving
        hot path, so each :class:`StoreEpoch` computes it lazily and
        exactly once.
        """
        return self._epoch.digest()

    # -- shared artifacts ------------------------------------------------

    def membership_csr(self) -> sparse.csr_matrix:
        """The pooled group×user membership matrix (one per epoch)."""
        return self.index.membership_csr()

    def session_cache(
        self,
        capacity: int = 32,
        result_capacity: int = 64,
        epoch: Optional[StoreEpoch] = None,
    ) -> PoolStatsCache:
        """A per-session pool cache wired to this runtime's shared layer.

        ``epoch`` is the generation the session is pinned to (defaults
        to the current one): its membership CSR seeds the cache — a
        session resumed onto a retained older epoch must slice *that*
        generation's rows — and its number scopes the shared results the
        cache may be served.
        """
        epoch = epoch if epoch is not None else self._epoch
        cache = PoolStatsCache(
            capacity=capacity,
            result_capacity=result_capacity,
            space_matrix=epoch.index.membership_csr(),
            shared=self.shared,
        )
        cache.epoch = epoch.number
        return cache

    def create_session(
        self, config: Optional["SessionConfig"] = None
    ) -> "ExplorationSession":
        """A new exploration session served by this runtime's artifacts."""
        from repro.core.session import ExplorationSession

        with self._opened_lock:
            self._sessions_opened += 1
        return ExplorationSession(config=config, runtime=self)

    @classmethod
    def from_store(
        cls,
        dataset,
        directory: str | Path,
        shared: Optional[SharedSelectionCache] = None,
        share_cache: bool = True,
        name: Optional[str] = None,
    ) -> "GroupSpaceRuntime":
        """Build a runtime from offline artifacts written by ``discover``.

        Loads the group space and the persisted index (validated against
        the live space's membership digest — a stale store raises here,
        never serves).
        """
        from repro.core.store import load_group_space, load_index

        space = load_group_space(dataset, directory)
        index = load_index(space, directory)
        return cls(
            space, index=index, shared=shared, share_cache=share_cache, name=name
        )

    @classmethod
    def from_arena(
        cls,
        dataset,
        attached,
        shared: Optional[SharedSelectionCache] = None,
        share_cache: bool = True,
        name: Optional[str] = None,
        retain_epochs: int = 4,
    ) -> "GroupSpaceRuntime":
        """Build a runtime over artifacts attached from a shared arena.

        ``attached`` duck-types the
        :class:`repro.replication.arena.AttachedArena` surface —
        ``group_space(dataset)``, ``similarity_index()``, ``digest`` and
        ``epoch`` — so this module never imports the replication tier.
        The space and index are zero-copy views over the arena's shared
        buffer (the attach already digest-verified them); the genesis
        epoch adopts the arena's digest and epoch number, so resume
        stamps and lineage records agree with the publisher's.
        """
        runtime = cls(
            attached.group_space(dataset),
            index=attached.similarity_index(),
            shared=shared,
            share_cache=share_cache,
            name=name,
            retain_epochs=retain_epochs,
        )
        # The constructor minted epoch 0 with a lazy digest; re-key it
        # to the publisher's numbering so both sides of the replication
        # boundary stamp checkpoints identically.
        genesis = StoreEpoch(
            attached.epoch,
            runtime.space,
            runtime.index,
            digest=attached.digest,
        )
        runtime._epoch = genesis
        runtime._retained = OrderedDict([(genesis.number, genesis)])
        return runtime

    def stats(self) -> dict[str, object]:
        return {
            "name": self.name,
            "groups": len(self.space),
            "users": self.space.dataset.n_users,
            "index_entries": self.index.memory_entries(),
            "version": self.version,
            "epoch": self.epoch,
            "retained_epochs": len(self._retained),
            "sessions_opened": self._sessions_opened,
            "shared": self.shared.stats() if self.shared is not None else None,
        }

    def __repr__(self) -> str:
        shared = "shared" if self.shared is not None else "private"
        return (
            f"GroupSpaceRuntime({len(self.space)} groups, {shared}, "
            f"v{self.version}, {self._sessions_opened} sessions opened)"
        )


def scripted_click_gid(shown: list[Group], visited: set[int]) -> int:
    """The deterministic demo/benchmark walking policy, in one place.

    Click the first displayed group this session has not clicked yet,
    falling back to the first slot when everything on screen was already
    visited; ``visited`` is updated in place.  ``cli serve`` and the
    perf harness's serving section both replay sessions with exactly
    this policy, so they measure the same workload by construction.
    """
    gid = next(
        (group.gid for group in shown if group.gid not in visited),
        shown[0].gid,
    )
    visited.add(gid)
    return gid


class _ManagedSession:
    """One live session plus the lock serializing its interactions.

    ``session`` is ``None`` only during :meth:`SessionManager.open_session`,
    while the slot is reserved under the registry lock but the session is
    still being constructed; the instance lock is held for that whole
    window, so no interaction can observe the placeholder.

    ``token`` is the session's *durable* identity: the name its persisted
    state lives under in the manager's state directory, stable across
    close / idle eviction / process restart (the live ``session_id`` is
    only a handle into this process's registry).  ``last_active`` is the
    monotonic instant of the last interaction, read by the idle sweeper.

    ``journal`` is the session's append-only interaction log (durable
    managers only).  ``retired`` flips — under the instance lock — when
    close/eviction has persisted the final state and deregistered the
    session: an interaction that was blocked on the lock while that
    happened must observe it and refuse, instead of mutating an orphan
    whose changes could never be persisted again.
    """

    __slots__ = (
        "session",
        "lock",
        "clicks",
        "token",
        "last_active",
        "journal",
        "retired",
    )

    def __init__(
        self, session: Optional["ExplorationSession"], token: str = ""
    ) -> None:
        self.session = session
        self.lock = threading.Lock()
        self.clicks = 0
        self.token = token
        self.last_active = time.monotonic()
        self.journal: Optional[SessionJournal] = None
        self.retired = False


class _SessionRollback:
    """Pre-interaction state, captured so a failed durable write can
    restore the session exactly (the 503 contract: "not applied").

    Captures the small mutable layers an interaction touches — history
    cursor/length, feedback snapshot, profile, display.  Governor tiers
    are deliberately left alone on restore: they are a performance memo
    keyed on content, so a stale extra row is harmless while feedback or
    history drift would be corruption.
    """

    __slots__ = (
        "steps",
        "cursor",
        "feedback",
        "displayed",
        "token_weight",
        "visited_gids",
        "steps_observed",
    )

    def __init__(self, session: "ExplorationSession") -> None:
        self.steps = len(session.history)
        current = session.history.current
        self.cursor = current.step_id if current is not None else None
        self.feedback = session.feedback.snapshot()
        self.displayed = list(session._displayed)
        self.token_weight = dict(session.profile.token_weight)
        self.visited_gids = list(session.profile.visited_gids)
        self.steps_observed = session.profile.steps_observed

    def restore(self, session: "ExplorationSession") -> None:
        while len(session.history) > self.steps:
            session.history.discard_last()
        if self.cursor is not None:
            session.history.backtrack(self.cursor)
        session.feedback.restore(self.feedback)
        session.profile.token_weight = dict(self.token_weight)
        session.profile.visited_gids = list(self.visited_gids)
        session.profile.steps_observed = self.steps_observed
        session._displayed = list(self.displayed)


class SessionManager:
    """Thread-safe ``open_session`` / ``click`` / ``close`` service API.

    N concurrent sessions against one :class:`GroupSpaceRuntime`: the
    registry is guarded by one lock, each session's interactions by its
    own, so clicks on *different* sessions proceed concurrently while
    clicks on the *same* session (e.g. a double-submitting client)
    serialize instead of corrupting feedback/history state.  Cross-session
    warmth flows exclusively through the runtime's shared cache — the
    manager never lets one session touch another's state.

    Without a ``state_dir`` sessions live in memory only.  With one the
    manager is *durable*, and the session's
    :class:`~repro.core.journal.SessionJournal` is how: every session
    gets a resume token, and every interaction appends one fsync'd,
    digest-chained record to its journal — O(1) per click, so a crashed
    process loses at most the interaction in flight.  Every
    ``compact_every`` interactions, and on open, resume, close and idle
    eviction, the journal is folded into a snapshot (``session.json``)
    and rotated.  ``open_session(resume=<token>)`` loads the snapshot,
    replays the verified journal tail and restores the session —
    feedback, history tree, memo, profile and governor-tier state
    intact, digest-validated against the live space — onto this runtime.

    A failed durable write raises a typed
    :class:`~repro.core.journal.DurabilityError` (HTTP: 503).  A failed
    append rolls the in-memory interaction back; a failed open, close
    or eviction checkpoint leaves the session where it was — the state
    the client saw acknowledged is exactly the state on disk, never
    silently more or less.  The manager then flips ``degraded``
    (surfaced in :meth:`stats`, ``/healthz`` and ``/spaces``) and
    refuses further mutations until :meth:`heal` manages a clean
    checkpoint of every live session.
    """

    def __init__(
        self,
        runtime: GroupSpaceRuntime,
        default_config: Optional["SessionConfig"] = None,
        max_sessions: Optional[int] = None,
        state_dir: Optional[str | Path] = None,
        id_prefix: str = "",
        compact_every: int = 64,
        obs=None,
    ) -> None:
        if max_sessions is not None and max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if compact_every < 1:
            raise ValueError("compact_every must be >= 1")
        # Prefixes flow into session ids and from there into resume
        # tokens (which name state directories), so they live under the
        # same alphabet rule as the tokens themselves.
        if id_prefix and (
            len(id_prefix) > 80 or not set(id_prefix) <= _TOKEN_CHARS
        ):
            raise ValueError(
                "id_prefix must be <= 80 chars of [A-Za-z0-9_-]"
            )
        #: Prepended to every minted session id: a
        #: :class:`repro.spaces.SpaceRegistry` gives each space's manager
        #: a distinct prefix so ids (and therefore resume tokens) are
        #: unique across every space one process serves — the property
        #: the multi-space router's session routing rests on.
        self.id_prefix = id_prefix
        self.runtime = runtime
        self.default_config = default_config
        self.max_sessions = max_sessions
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self.compact_every = compact_every
        #: Sticky durability-failure flag: set when a journal append (or
        #: a final checkpoint) fails; mutations refuse with
        #: :class:`DurabilityError` until :meth:`heal` succeeds.  Reads
        #: keep working — a degraded space is read-only, not down.
        self.degraded = False
        self.degraded_reason: Optional[str] = None
        self.compaction_failures = 0
        self._sessions: dict[str, _ManagedSession] = {}
        self._lock = threading.Lock()
        self._counter = 0
        self._admission_closed = False
        self.sessions_closed = 0
        self.sessions_evicted = 0
        self.sessions_resumed = 0
        #: Space label on every event/metric this manager publishes.
        self.space_label = runtime.name or ""
        #: Optional :class:`repro.obs.Observability` bundle; ``None``
        #: (the default) means zero instrumentation on every code path.
        self.obs = None
        if obs is not None:
            self.attach_obs(obs)

    # -- observability ---------------------------------------------------

    def attach_obs(self, obs) -> None:
        """Wire an observability bundle into this manager.

        Interactions publish typed events (open/click/drill_down/
        backtrack/close/evict/mutate), journal appends feed the latency
        histogram, and the runtime's shared pair cache exports its stats
        as export-time gauges.  Idempotent per bundle is not required —
        attach once, at construction or when a registry builds the
        space.
        """
        if obs is self.obs:
            return
        self.obs = obs
        if obs is None:
            return
        shared = getattr(self.runtime, "shared", None)
        if shared is not None:
            obs.register_shared_cache(self.space_label, shared)

    def _publish(
        self,
        kind: str,
        session_id: str = "",
        detail: Optional[dict] = None,
        elapsed_ms: Optional[float] = None,
    ) -> None:
        obs = self.obs
        if obs is not None:
            obs.publish(
                kind,
                space=self.space_label,
                session_id=session_id,
                detail=detail,
                elapsed_ms=elapsed_ms,
            )

    # -- lifecycle -------------------------------------------------------

    def open_session(
        self,
        config: Optional["SessionConfig"] = None,
        seed_gids: Optional[list[int]] = None,
        resume: Optional[str] = None,
    ) -> tuple[str, list[Group]]:
        """Open a session and show its initial display.

        Returns ``(session_id, initial groups)``; the id addresses every
        later :meth:`click` / :meth:`close`.  Raises
        :class:`SessionLimitError` when ``max_sessions`` live sessions
        already exist (the caller's admission-control signal) — checked
        *before* any session state is constructed, so rejected requests
        stay cheap under exactly the overload admission control exists
        for.

        With ``resume`` (a token a previous :meth:`open_session` /
        :meth:`close` handed out), the session is restored from the state
        directory instead of started fresh: the returned display is the
        one the persisted session was showing, and its history, feedback,
        memo, profile and governor-tier state carry on as if the
        process had never stopped.  Unless ``config`` overrides it, the
        persisted session's own configuration is restored too.  Raises
        :class:`UnknownSessionError` for a token with no persisted state
        and ``ValueError`` when the state was saved against a different
        group space (digest mismatch) or the token is already live.
        """
        self._check_durability()
        if resume is not None:
            if self.state_dir is None:
                raise ValueError("resume needs a manager with a state_dir")
            if seed_gids is not None:
                raise ValueError("resume restores a display; drop seed_gids")
            # Tokens name state directories and arrive over the network:
            # reject anything that is not a token the manager could have
            # minted before it can touch a path (no `..`, no separators).
            if not _valid_token(resume):
                raise UnknownSessionError(resume)
            if not (self.state_dir / resume / "session.json").exists():
                raise UnknownSessionError(resume)
        managed = _ManagedSession(None)
        managed.lock.acquire()  # interactions block until start() finishes
        with self._lock:
            if self._admission_closed:
                # The space registry is retiring this manager: a session
                # admitted now would register on a manager no router can
                # reach (and, without persistence, die silently).  429 is
                # transient — the next open lands on the rebuilt space.
                managed.lock.release()
                raise SessionLimitError(
                    "manager is retiring; retry to reach its replacement"
                )
            if (
                self.max_sessions is not None
                and len(self._sessions) >= self.max_sessions
            ):
                managed.lock.release()
                raise SessionLimitError(
                    f"session limit reached ({self.max_sessions} live sessions)"
                )
            if resume is not None and any(
                existing.token == resume for existing in self._sessions.values()
            ):
                # Checked under the registration lock: two concurrent
                # resumes of one token must not both win and then fight
                # over the same checkpoint file.
                managed.lock.release()
                raise ValueError(
                    f"resume token {resume!r} is already live on this manager"
                )
            self._counter += 1
            session_id = f"{self.id_prefix}s{self._counter:04d}"
            if resume is not None:
                managed.token = resume
            elif self.state_dir is not None:
                managed.token = f"{session_id}-{uuid.uuid4().hex[:12]}"
            else:
                managed.token = session_id
            self._sessions[session_id] = managed
        try:
            if resume is not None:
                from repro.core.store import (
                    load_session_config,
                    load_session_state,
                )

                directory = self.state_dir / resume
                if config is None:
                    config = load_session_config(directory)
                session = self.runtime.create_session(
                    config if config is not None else self.default_config
                )
                managed.session = session
                load_session_state(session, directory)
                # Recovery = last compacted snapshot (just loaded) +
                # replay of the verified journal tail; then compact,
                # folding the tail in and starting a fresh journal.
                managed.journal = SessionJournal(directory)
                managed.journal.recover(session)
                try:
                    managed.journal.compact(session)
                except OSError as error:
                    raise self._durability_failed(
                        f"post-recovery compaction failed: {error}"
                    ) from error
                shown = session.displayed()
                # Every click records exactly one step with a clicked
                # gid, so the restored counter matches what an
                # uninterrupted session would report in stats/close.
                managed.clicks = sum(
                    1
                    for step in session.history
                    if step.clicked_gid is not None
                )
                with self._lock:
                    self.sessions_resumed += 1
            else:
                session = self.runtime.create_session(
                    config if config is not None else self.default_config
                )
                managed.session = session
                shown = session.start(seed_gids=seed_gids)
                try:
                    self._persist(managed)
                except OSError as error:
                    raise self._durability_failed(
                        f"initial checkpoint failed: {error}"
                    ) from error
        except BaseException:
            with self._lock:
                self._sessions.pop(session_id, None)
            raise
        finally:
            managed.lock.release()
        self._publish(
            "open", session_id, detail={"resumed": resume is not None}
        )
        return session_id, shown

    def _persist(self, managed: _ManagedSession) -> None:
        """Compact the session's journal (no-op without a state_dir).

        Compaction — snapshot plus journal rotation — is also how a
        fresh session's journal is created.  Callers hold
        ``managed.lock``, so checkpoints of one session are serialized
        with its interactions and with close/eviction.
        """
        if self.state_dir is None or managed.session is None:
            return
        if managed.journal is None:
            managed.journal = SessionJournal(self.state_dir / managed.token)
        managed.journal.compact(managed.session)

    def _check_durability(self) -> None:
        """Refuse mutations on a degraded manager."""
        if self.degraded:
            raise DurabilityError(
                "space is durability-degraded "
                f"({self.degraded_reason}); mutations are refused until healed"
            )

    def _durability_failed(self, reason: str) -> DurabilityError:
        """Flip the sticky degraded flag; returns the error to raise."""
        with self._lock:
            self.degraded = True
            self.degraded_reason = reason
        return DurabilityError(f"durable write failed: {reason}")

    def heal(self) -> bool:
        """Try to durably re-checkpoint every live session.

        The operator's (or a probe's) way back from ``degraded`` once
        the disk recovered: every live session is compacted onto a fresh
        journal; only when all succeed does the degraded flag clear.
        Returns whether the manager is healthy afterwards.
        """
        if not self.degraded:
            return True
        with self._lock:
            live = list(self._sessions.values())
        for managed in live:
            with managed.lock:
                if managed.retired or managed.session is None:
                    continue
                try:
                    self._persist(managed)
                except OSError:
                    return False
        with self._lock:
            self.degraded = False
            self.degraded_reason = None
        return True

    def apply_deltas(self, delta, verify: bool = False) -> dict[str, object]:
        """Apply a group delta to the served space as a new epoch.

        The manager-level mutation endpoint: delegates to
        :meth:`GroupSpaceRuntime.apply_deltas` (sessions already open
        keep serving their pinned epoch — no session lock is taken, no
        click stalls), then best-effort appends the mutation report to
        the state directory's epoch lineage so an operator can audit
        which generations this deployment served.
        """
        report = self.runtime.apply_deltas(delta, verify=verify)
        if self.state_dir is not None:
            from repro.core.store import append_epoch_record

            try:
                append_epoch_record(self.state_dir, report)
            except OSError:
                # Lineage is advisory: the mutation itself is in-memory
                # state, not durable state, so a failed audit append
                # must not degrade or roll back the epoch swap.
                pass
        self._publish(
            "mutate",
            detail={
                "epoch": report.get("epoch"),
                "added": report.get("added"),
                "removed": report.get("removed"),
                "changed": report.get("changed"),
            },
            elapsed_ms=report.get("apply_ms"),
        )
        return report

    @staticmethod
    def _summary(
        session_id: str, managed: _ManagedSession, durable: bool
    ) -> dict[str, object]:
        session = managed.session
        return {
            "session_id": session_id,
            "resume_token": managed.token if durable else None,
            "clicks": managed.clicks,
            "steps": len(session.history) if session is not None else 0,
            "cache": (
                session.pool_cache.stats()
                if session is not None and session.pool_cache is not None
                else {}
            ),
        }

    def close(self, session_id: str) -> dict[str, object]:
        """Retire a session; returns its final summary.

        The final state is persisted *before* the session leaves the
        registry, so a failed checkpoint (full disk) leaves the session
        live and the error typed instead of silently dropping state; on
        success later calls raise :class:`UnknownSessionError`, the
        session's private caches die with it (everything it published to
        the shared layer keeps warming other sessions), and on a durable
        manager the summary's ``resume_token`` reopens it later — close
        is an eviction, not an erasure.
        """
        managed = self._managed(session_id)
        with managed.lock:
            if managed.retired:
                raise UnknownSessionError(session_id)
            self._check_durability()
            try:
                self._persist(managed)
            except OSError as error:
                raise self._durability_failed(
                    f"final checkpoint failed: {error}"
                ) from error
            managed.retired = True
            with self._lock:
                self._sessions.pop(session_id, None)
                self.sessions_closed += 1
            summary = self._summary(
                session_id, managed, self.state_dir is not None
            )
        self._publish("close", session_id, detail={"clicks": managed.clicks})
        return summary

    def evict_idle(self, idle_seconds: float) -> list[dict[str, object]]:
        """Persist + drop every session idle for ``idle_seconds`` or more.

        The durable twin of admission control: long-gone analysts stop
        holding live-session slots (and their private caches), yet their
        resume tokens still restore them exactly where they left off.
        Returns the evicted sessions' summaries.  Each session's journal
        is compacted *before* it is deregistered, under its own lock —
        an interaction that held the lock completes and is included in
        the final checkpoint; one that was waiting observes the
        retirement and gets :class:`UnknownSessionError` instead of
        mutating an orphan.  A session whose final checkpoint fails
        stays live for the next sweep (and degrades the manager) rather
        than being dropped with unpersisted state.
        """
        if idle_seconds < 0:
            raise ValueError("idle_seconds must be >= 0")
        now = time.monotonic()
        with self._lock:
            expired = [
                (session_id, managed)
                for session_id, managed in self._sessions.items()
                if now - managed.last_active >= idle_seconds
            ]
        summaries: list[dict[str, object]] = []
        for session_id, managed in expired:
            with managed.lock:
                if managed.retired:
                    continue
                try:
                    self._persist(managed)
                except OSError as error:
                    self._durability_failed(
                        f"eviction checkpoint failed: {error}"
                    )
                    continue
                managed.retired = True
                with self._lock:
                    self._sessions.pop(session_id, None)
                    self.sessions_evicted += 1
                summaries.append(
                    self._summary(
                        session_id, managed, self.state_dir is not None
                    )
                )
            self._publish(
                "evict", session_id, detail={"clicks": managed.clicks}
            )
        return summaries

    # -- interactions ----------------------------------------------------

    def _managed(self, session_id: str) -> _ManagedSession:
        with self._lock:
            try:
                return self._sessions[session_id]
            except KeyError:
                raise UnknownSessionError(session_id) from None

    @staticmethod
    def _check_live(managed: _ManagedSession, session_id: str) -> None:
        """Caller holds ``managed.lock``: refuse interactions that lost a
        race against close/eviction (the session's final state is already
        persisted; mutating the orphan would silently diverge from it)."""
        if managed.retired:
            raise UnknownSessionError(session_id)

    def _governor_rows(self, managed: _ManagedSession) -> list[tuple]:
        cache = managed.session.pool_cache
        return cache.export_governor_tiers() if cache is not None else []

    def _journal_append(
        self,
        managed: _ManagedSession,
        rollback: _SessionRollback,
        kind: str,
        payload: dict,
    ) -> None:
        """Append one interaction record, rolling back in-memory state on
        failure so the resulting :class:`DurabilityError` means exactly
        "not applied" (a client retry cannot double-apply)."""
        # Stamp the session's pinned epoch so recovery can tell which
        # space generation the interaction ran against (replay ignores
        # the field; the genesis meta digest is the authority).
        payload.setdefault("epoch", managed.session.epoch.number)
        try:
            managed.journal.append(kind, payload)
        except OSError as error:
            rollback.restore(managed.session)
            raise self._durability_failed(
                f"journal append failed: {error}"
            ) from error
        obs = self.obs
        if obs is not None and managed.journal.append_ms:
            obs.journal_append_ms.observe(managed.journal.append_ms[-1])

    def _maybe_compact(self, managed: _ManagedSession) -> None:
        """Fold the journal into a snapshot every ``compact_every``
        interactions.  A failed compaction is counted, not fatal: every
        acknowledged interaction is already durable in the journal, the
        snapshot is just catching up — the next compaction retries."""
        journal = managed.journal
        if journal is None or journal.records_since_compaction < self.compact_every:
            return
        try:
            journal.compact(managed.session)
        except OSError:
            with self._lock:
                self.compaction_failures += 1

    def click(self, session_id: str, gid: int) -> list[Group]:
        """One explorer click, serialized per session."""
        if self.obs is None:
            return self._click(session_id, gid)
        started = time.perf_counter()
        shown = self._click(session_id, gid)
        self._publish(
            "click",
            session_id,
            detail={"gid": gid},
            elapsed_ms=(time.perf_counter() - started) * 1000.0,
        )
        return shown

    def _click(self, session_id: str, gid: int) -> list[Group]:
        managed = self._managed(session_id)
        with managed.lock:
            self._check_live(managed, session_id)
            if managed.journal is not None:
                self._check_durability()
                rollback = _SessionRollback(managed.session)
                pre_rows = set(self._governor_rows(managed))
                shown = managed.session.click(gid)
                record = {
                    "gid": gid,
                    "shown": [group.gid for group in shown],
                }
                new_rows = [
                    row
                    for row in self._governor_rows(managed)
                    if row not in pre_rows
                ]
                if new_rows:
                    record["governor"] = [
                        [structure_key, list(config_key), tier]
                        for structure_key, config_key, tier in new_rows
                    ]
                self._journal_append(managed, rollback, "click", record)
                managed.clicks += 1
                managed.last_active = time.monotonic()
                self._maybe_compact(managed)
                return shown
            shown = managed.session.click(gid)
            managed.clicks += 1
            managed.last_active = time.monotonic()
            return shown

    def backtrack(self, session_id: str, step_id: int) -> list[Group]:
        if self.obs is None:
            return self._backtrack(session_id, step_id)
        started = time.perf_counter()
        shown = self._backtrack(session_id, step_id)
        self._publish(
            "backtrack",
            session_id,
            detail={"step_id": step_id},
            elapsed_ms=(time.perf_counter() - started) * 1000.0,
        )
        return shown

    def _backtrack(self, session_id: str, step_id: int) -> list[Group]:
        managed = self._managed(session_id)
        with managed.lock:
            self._check_live(managed, session_id)
            if managed.journal is not None:
                self._check_durability()
                rollback = _SessionRollback(managed.session)
                shown = managed.session.backtrack(step_id)
                self._journal_append(
                    managed, rollback, "backtrack", {"step_id": step_id}
                )
                managed.last_active = time.monotonic()
                self._maybe_compact(managed)
                return shown
            shown = managed.session.backtrack(step_id)
            managed.last_active = time.monotonic()
            return shown

    def displayed(self, session_id: str) -> list[Group]:
        managed = self._managed(session_id)
        with managed.lock:
            self._check_live(managed, session_id)
            # Reads count as activity too: an analyst polling the display
            # (or STATS below) is present and must not be evicted as idle.
            managed.last_active = time.monotonic()
            return managed.session.displayed()

    def drill_down(self, session_id: str, gid: int):
        """Member user indices of one group (the STATS/Focus-view read)."""
        if self.obs is None:
            return self._drill_down(session_id, gid)
        members = self._drill_down(session_id, gid)
        self._publish("drill_down", session_id, detail={"gid": gid})
        return members

    def _drill_down(self, session_id: str, gid: int):
        managed = self._managed(session_id)
        with managed.lock:
            self._check_live(managed, session_id)
            managed.last_active = time.monotonic()
            members = managed.session.drill_down(gid)
            if managed.journal is not None and not self.degraded:
                # Best-effort event-stream record (a replication feed
                # wants the full interaction sequence): drill-down
                # mutates nothing durable, so it is written unsynced and
                # a failure is ignored — the next synced append either
                # flushes it or surfaces the disk problem on a mutation.
                try:
                    managed.journal.append(
                        "drill_down", {"gid": gid}, sync=False
                    )
                except (OSError, JournalBrokenError):
                    pass
            return members

    def session_stats(self, session_id: str) -> dict[str, object]:
        """One live session's service-visible counters."""
        managed = self._managed(session_id)
        with managed.lock:
            self._check_live(managed, session_id)
            managed.last_active = time.monotonic()
            session = managed.session
            return {
                "session_id": session_id,
                "resume_token": (
                    managed.token if self.state_dir is not None else None
                ),
                "clicks": managed.clicks,
                "steps": len(session.history),
                "displayed": session.displayed_gids(),
                "feedback_entries": len(session.feedback),
                "memo": len(session.memo),
                "cache": (
                    session.pool_cache.stats()
                    if session.pool_cache is not None
                    else {}
                ),
            }

    def resume_token(self, session_id: str) -> Optional[str]:
        """The durable token of a live session (``None`` when not durable)."""
        if self.state_dir is None:
            return None
        return self._managed(session_id).token

    def session_journal(self, session_id: str) -> Optional[SessionJournal]:
        """A live session's journal (``None`` without a state_dir)."""
        return self._managed(session_id).journal

    def session(self, session_id: str) -> "ExplorationSession":
        """Direct access to a live session (single-threaded callers only)."""
        return self._managed(session_id).session

    def close_admission(self) -> int:
        """Atomically stop admitting sessions; returns the live count.

        The space registry's eviction primitive: once this returns, no
        ``open_session`` can add a session (opens raise
        :class:`SessionLimitError`), so the returned count is exact — an
        eviction that then checkpoints (or, counted zero, drops) the
        manager cannot race a concurrent open into silent session loss.
        """
        with self._lock:
            self._admission_closed = True
            return len(self._sessions)

    def reopen_admission(self) -> None:
        """Undo :meth:`close_admission` (an eviction that stood down)."""
        with self._lock:
            self._admission_closed = False

    # -- introspection ---------------------------------------------------

    def has_session(self, session_id: str) -> bool:
        """Whether ``session_id`` is live on this manager (no side effects).

        The multi-space router resolves a session id to its manager with
        this; unlike :meth:`_managed` it neither raises nor touches
        activity timestamps, so probing N managers stays cheap.
        """
        with self._lock:
            return session_id in self._sessions

    def session_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._sessions)

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def stats(self) -> dict[str, object]:
        with self._lock:
            live = len(self._sessions)
            clicks = sum(managed.clicks for managed in self._sessions.values())
        return {
            "live_sessions": live,
            "sessions_closed": self.sessions_closed,
            "sessions_evicted": self.sessions_evicted,
            "sessions_resumed": self.sessions_resumed,
            "durable": self.state_dir is not None,
            "durability": "journal" if self.state_dir is not None else None,
            "degraded": self.degraded,
            "degraded_reason": self.degraded_reason,
            "compaction_failures": self.compaction_failures,
            "clicks_in_flight_sessions": clicks,
            "runtime": self.runtime.stats(),
        }

    def __repr__(self) -> str:
        return (
            f"SessionManager({len(self)} live sessions over "
            f"{len(self.runtime.space)} groups)"
        )
