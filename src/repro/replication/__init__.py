"""Shared-nothing worker replication over zero-copy shared-memory arenas.

The serving tier from this package multiplies the single-process stack
across N ``spawn``-started workers without multiplying its memory or
startup cost: each ``(space, epoch)``'s immutable artifacts (membership
CSR, the similarity index's flat prefix/reserve arrays) are serialized
once into a content-addressed ``multiprocessing.shared_memory`` segment
(:mod:`~repro.replication.arena`) and mapped read-only by every replica
(:mod:`~repro.replication.worker`).  One pool,
:class:`MultiSpaceWorkerPool` (:mod:`~repro.replication.pool`), fronts a
space registry — one space or many — and its sticky router pins each
session's walk to the worker holding its in-memory state (session ids
are ``w<i>-<space>-s0001``) and fails resumes over to any live replica
via the shared journal directory.  :func:`serve_replicated` is the
one-space case; published payloads can additionally be snapshotted to
disk (``arena_cache``) and mmap-loaded on the next boot.
"""

from repro.replication.arena import (
    ARENA_PREFIX,
    ArenaDigestMismatch,
    AttachedArena,
    PublishedArena,
    arena_cache_path,
    arena_name,
    attach_arena,
    list_segments,
    load_arena_cache,
    publish_arena,
    save_arena_cache,
    sweep_orphans,
    unlink_arena,
)
from repro.replication.pool import (
    MultiSpaceWorkerPool,
    ReplicatedService,
    WorkerUnavailable,
    compile_reference_pattern,
    serve_replicated,
    serve_replicated_spaces,
)
from repro.replication.worker import SpaceWorkerControl

__all__ = [
    "ARENA_PREFIX",
    "ArenaDigestMismatch",
    "AttachedArena",
    "MultiSpaceWorkerPool",
    "PublishedArena",
    "ReplicatedService",
    "SpaceWorkerControl",
    "WorkerUnavailable",
    "arena_cache_path",
    "arena_name",
    "attach_arena",
    "compile_reference_pattern",
    "list_segments",
    "load_arena_cache",
    "publish_arena",
    "save_arena_cache",
    "serve_replicated",
    "serve_replicated_spaces",
    "sweep_orphans",
    "unlink_arena",
]
