"""Persistence for offline pre-processing artifacts.

The paper's pipeline (Fig. 1) runs group discovery and index construction
*offline*; a real deployment computes them once and serves many exploration
sessions.  This module persists both artifacts — the group space and the
partially materialized similarity index — plus a session's state (feedback,
history, memo), using portable formats only (JSON + ``.npz``; no pickle).

Layout of a store directory::

    <dir>/space.json      descriptions, gids, dataset name
    <dir>/members.npz     member arrays (flattened + offsets)
    <dir>/index.json      materialization fraction, prefix ranking
    <dir>/session.json    feedback snapshot, history tree, memo
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from collections.abc import Sequence
from pathlib import Path
from typing import Optional

import numpy as np

from repro.core import faults
from repro.core.group import Group, GroupSpace
from repro.core.selection import SelectionConfig
from repro.core.session import ExplorationSession, SessionConfig
from repro.data.dataset import UserDataset
from repro.index.inverted import SimilarityIndex

_FORMAT_VERSION = 1


def fsync_directory(directory: str | Path) -> None:
    """fsync a directory so a rename inside it survives power loss.

    ``os.replace`` makes a write *atomic* but not *durable*: the new
    directory entry lives in the directory's own metadata, which the
    kernel may hold dirty long after the file's data is on disk.  Every
    durable rename in this codebase (session checkpoints, journal
    rotation) pairs with this call.
    """
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def durable_replace_bytes(final: Path, data: bytes) -> None:
    """Atomically and *durably* replace ``final``'s contents with ``data``.

    write staging -> fsync staging -> rename over final -> fsync the
    directory: the full sequence, so after a crash at any instant the
    file holds either the complete old contents or the complete new ones
    (write-then-rename alone leaves both a torn-staging and a
    lost-rename window).  The journal append path reuses the same
    primitives via :mod:`repro.core.faults`, which also owns the
    ``store.pre_replace`` crash point injected between the staging fsync
    and the rename.
    """
    staging = final.with_name(final.name + ".tmp")
    fd = os.open(staging, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        faults.write(fd, data)
        faults.fsync(fd)
    finally:
        os.close(fd)
    faults.crash_point("store.pre_replace")
    os.replace(staging, final)
    fsync_directory(final.parent)


def space_digest(memberships: Sequence[np.ndarray]) -> str:
    """Stable content digest of a group space's member arrays.

    Hashes every group's length + member indices in gid order with
    sha256, so the digest is identical across processes and hash seeds
    (unlike :func:`repro.core.poolcache.group_fingerprint`, which is
    process-local by design).  ``save_index`` stamps the index with the
    digest of the space it was built on; ``load_index`` recomputes it
    from the live space, so an on-disk index that went stale through
    store mutation raises instead of silently serving wrong neighbors.
    """
    digest = hashlib.sha256()
    for members in memberships:
        array = np.ascontiguousarray(np.asarray(members, dtype=np.int64))
        digest.update(np.int64(len(array)).tobytes())
        digest.update(array.tobytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# group space
# ---------------------------------------------------------------------------


def save_group_space(space: GroupSpace, directory: str | Path) -> None:
    """Write a group space under ``directory`` (created if needed)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    memberships = space.memberships()
    offsets = np.zeros(len(memberships) + 1, dtype=np.int64)
    np.cumsum([len(members) for members in memberships], out=offsets[1:])
    flat = (
        np.concatenate(memberships)
        if memberships
        else np.empty(0, dtype=np.int64)
    )
    np.savez_compressed(directory / "members.npz", offsets=offsets, members=flat)
    manifest = {
        "version": _FORMAT_VERSION,
        "dataset": space.dataset.name,
        "n_groups": len(space),
        "descriptions": [list(group.description) for group in space],
    }
    (directory / "space.json").write_text(
        json.dumps(manifest), encoding="utf-8"
    )


def load_group_space(dataset: UserDataset, directory: str | Path) -> GroupSpace:
    """Rebuild a group space saved by :func:`save_group_space`.

    ``dataset`` must be the same population the space was discovered on
    (checked by name); member indices are not revalidated beyond bounds.
    """
    directory = Path(directory)
    manifest = json.loads((directory / "space.json").read_text(encoding="utf-8"))
    if manifest["version"] != _FORMAT_VERSION:
        raise ValueError(f"unsupported store version {manifest['version']}")
    if manifest["dataset"] != dataset.name:
        raise ValueError(
            f"store was built on dataset {manifest['dataset']!r}, "
            f"got {dataset.name!r}"
        )
    arrays = np.load(directory / "members.npz")
    offsets = arrays["offsets"]
    flat = arrays["members"]
    if len(flat) and flat.max() >= dataset.n_users:
        raise ValueError("stored member index out of range for this dataset")
    groups = [
        Group(
            gid,
            tuple(description),
            flat[offsets[gid] : offsets[gid + 1]],
        )
        for gid, description in enumerate(manifest["descriptions"])
    ]
    return GroupSpace(dataset, groups)


# ---------------------------------------------------------------------------
# similarity index
# ---------------------------------------------------------------------------


def save_index(index: SimilarityIndex, directory: str | Path) -> None:
    """Persist the materialized prefix of a similarity index.

    The payload is stamped with the content digest of the memberships the
    index was built on, so :func:`load_index` can refuse to pair it with
    a group space that has since been mutated or re-discovered.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    prefix = [
        [[neighbor.group, neighbor.similarity] for neighbor in index.materialized_neighbors(gid)]
        for gid in range(index.n_groups)
    ]
    r_indptr = index._reserve_indptr
    reserve = [
        [
            [int(gid), float(sim)]
            for gid, sim in zip(
                index._reserve_ids[r_indptr[g] : r_indptr[g + 1]].tolist(),
                index._reserve_sims[r_indptr[g] : r_indptr[g + 1]].tolist(),
            )
        ]
        for g in range(index.n_groups)
    ]
    payload = {
        "version": _FORMAT_VERSION,
        "n_groups": index.n_groups,
        "n_users": index.n_users,
        "materialize_fraction": index.materialize_fraction,
        "prefix": prefix,
        "prefix_complete": [bool(flag) for flag in index._prefix_complete],
        "reserve": reserve,
        "tail_complete": [bool(flag) for flag in index._tail_complete],
        "space_digest": space_digest(index._memberships),
    }
    (directory / "index.json").write_text(json.dumps(payload), encoding="utf-8")


def load_index(space: GroupSpace, directory: str | Path) -> SimilarityIndex:
    """Rebuild an index saved by :func:`save_index` without recomputing.

    The memberships come from ``space``; the stored prefix replaces the
    construction pass (useful when the O(|G|^2) build is the bottleneck).
    The stored space digest is re-validated against the *live* space
    before any reuse: an index saved for a since-mutated store raises
    here instead of silently serving wrong neighbors.
    """
    directory = Path(directory)
    payload = json.loads((directory / "index.json").read_text(encoding="utf-8"))
    if payload["version"] != _FORMAT_VERSION:
        raise ValueError(f"unsupported store version {payload['version']}")
    if payload["n_groups"] != len(space):
        raise ValueError(
            f"index stores {payload['n_groups']} groups, space has {len(space)}"
        )
    live_digest = space_digest(space.memberships())
    stored_digest = payload.get("space_digest")
    if stored_digest is not None and stored_digest != live_digest:
        raise ValueError(
            "stored index is stale: it was built on a group space whose "
            f"membership digest was {stored_digest[:12]}..., but the live "
            f"space digests to {live_digest[:12]}...; re-run discovery / "
            "index construction instead of serving wrong neighbors"
        )
    index = SimilarityIndex.__new__(SimilarityIndex)
    index.n_groups = payload["n_groups"]
    index.n_users = payload["n_users"]
    index.materialize_fraction = payload["materialize_fraction"]
    index._memberships = [
        np.asarray(members, dtype=np.int64) for members in space.memberships()
    ]
    index._sizes = np.array([len(members) for members in index._memberships])
    counts = np.array(
        [len(entry) for entry in payload["prefix"]], dtype=np.int64
    )
    indptr = np.zeros(index.n_groups + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    flat = [pair for entry in payload["prefix"] for pair in entry]
    index._prefix_ids = np.array(
        [pair[0] for pair in flat], dtype=np.int64
    )
    index._prefix_sims = np.array(
        [pair[1] for pair in flat], dtype=np.float64
    )
    index._prefix_indptr = indptr
    index._prefix_complete = np.array(
        payload["prefix_complete"], dtype=bool
    )
    # Maintenance reserve (absent in older payloads: loads empty, which
    # delta maintenance tolerates — it just recomputes more rows).
    reserve = payload.get("reserve")
    if reserve is None:
        reserve = [[] for _ in range(index.n_groups)]
    r_counts = np.array([len(entry) for entry in reserve], dtype=np.int64)
    r_indptr = np.zeros(index.n_groups + 1, dtype=np.int64)
    np.cumsum(r_counts, out=r_indptr[1:])
    r_flat = [pair for entry in reserve for pair in entry]
    index._reserve_ids = np.array(
        [pair[0] for pair in r_flat], dtype=np.int64
    )
    index._reserve_sims = np.array(
        [pair[1] for pair in r_flat], dtype=np.float64
    )
    index._reserve_indptr = r_indptr
    tail = payload.get("tail_complete")
    index._tail_complete = (
        np.array(tail, dtype=bool)
        if tail is not None
        else index._prefix_complete.copy()
    )
    index._exact_cache = {}
    index._matrix = None  # lazily rebuilt on the first exact lookup
    return index


# ---------------------------------------------------------------------------
# session state
# ---------------------------------------------------------------------------


def _encode_config(config: SessionConfig) -> dict:
    """JSON form of a session's configuration (selection nested)."""
    fields = {
        field.name: getattr(config, field.name)
        for field in dataclasses.fields(SessionConfig)
        if field.name != "selection"
    }
    fields["selection"] = dataclasses.asdict(config.selection)
    return fields


def _decode_config(payload: Optional[dict]) -> Optional[SessionConfig]:
    if payload is None:
        return None
    fields = dict(payload)
    selection = fields.pop("selection", None)
    return SessionConfig(
        **fields,
        selection=SelectionConfig(**selection) if selection is not None else None,
    )


def load_session_config(directory: str | Path) -> Optional[SessionConfig]:
    """The configuration a persisted session ran under, if recorded.

    Lets :meth:`repro.core.runtime.SessionManager.open_session` resume a
    session with exactly the knobs it was exploring with — a restored
    analyst must not silently land on a different k / engine / governor.
    Returns ``None`` for legacy payloads that predate config stamping.
    """
    directory = Path(directory)
    payload = json.loads((directory / "session.json").read_text(encoding="utf-8"))
    if payload["version"] != _FORMAT_VERSION:
        raise ValueError(f"unsupported store version {payload['version']}")
    return _decode_config(payload.get("config"))


def _retuple(value):
    """Recursively turn JSON arrays back into the tuples they were.

    Governor keys are nested tuples of scalars (structure digest,
    selection-config astuple); JSON flattens tuples to lists, and dict
    keys must be hashable again on the way back in.
    """
    if isinstance(value, list):
        return tuple(_retuple(item) for item in value)
    return value


def save_session_state(
    session: ExplorationSession,
    directory: str | Path,
    journal_seq: Optional[int] = None,
) -> None:
    """Persist everything needed to resume an exploration session.

    The payload is stamped with the dataset name and the content digest
    of the group space the session was exploring, so
    :func:`load_session_state` can refuse to graft a session onto a
    space that has since been mutated or re-discovered (same contract as
    :func:`load_index`).  Alongside the display/feedback/history/memo
    state it records the session's configuration, the explorer profile,
    and the pool cache's governor-tier layer (keyed on stable content
    digests), so a resumed session's next governed click escalates from
    where the persisted one stopped.

    ``journal_seq`` (the journal's compaction) stamps the snapshot with the
    last interaction sequence number it covers; recovery replays only
    journal records *after* it, which is what makes replay idempotent
    when a crash lands between the snapshot replace and the journal
    rotation.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "version": _FORMAT_VERSION,
        "dataset": session.space.dataset.name,
        # Multi-space routing stamp: which named space (if any) this
        # session belongs to.  The digest below catches content drift;
        # the name additionally catches two *different* spaces that
        # happen to share content (or a manifest rename), so state saved
        # under one space name can never resume under another.
        "space": session.runtime.name,
        # The session's *pinned* epoch digest (cached on the epoch: this
        # runs on every journal compaction and must not re-hash the whole
        # space each time).  A session opened before a mutation
        # keeps checkpointing its own generation's digest, so resume
        # lands back on that exact retained epoch, not whatever the
        # runtime currently serves.
        "space_digest": session.epoch.digest(),
        "epoch": session.epoch.number,
        "config": _encode_config(session.config),
        "profile": {
            "token_weight": dict(session.profile.token_weight),
            "visited_gids": list(session.profile.visited_gids),
            "steps_observed": session.profile.steps_observed,
        },
        "governor_tiers": (
            [
                [structure_key, list(config_key), tier]
                for structure_key, config_key, tier in (
                    session.pool_cache.export_governor_tiers()
                )
            ]
            if session.pool_cache is not None
            else []
        ),
        "displayed": session.displayed_gids(),
        "feedback": [
            [kind, key, value]
            for (kind, key), value in session.feedback.snapshot().items()
        ],
        "history": [
            {
                "step_id": step.step_id,
                "parent_id": step.parent_id,
                "clicked_gid": step.clicked_gid,
                "shown_gids": list(step.shown_gids),
                "feedback": [
                    [kind, key, value]
                    for (kind, key), value in step.feedback_snapshot.items()
                ],
            }
            for step in session.history
        ],
        "cursor": (
            session.history.current.step_id
            if session.history.current is not None
            else None
        ),
        "memo_groups": {str(gid): note for gid, note in session.memo.groups.items()},
        "memo_users": {str(user): note for user, note in session.memo.users.items()},
    }
    if journal_seq is not None:
        payload["journal_seq"] = int(journal_seq)
    # Durable atomic replace: this runs as the journal's compaction
    # checkpoint, and the crash the whole mechanism exists for can land
    # mid-write.
    # A truncated session.json would turn "lost the click in flight"
    # into "lost the session"; staging + fsync + rename + directory
    # fsync keeps the previous checkpoint intact until the new one is
    # durably complete (and lets a concurrent resume read a consistent
    # file, never a torn one).
    durable_replace_bytes(
        directory / "session.json", json.dumps(payload).encode("utf-8")
    )


def load_session_journal_seq(directory: str | Path) -> int:
    """The journal sequence number a persisted snapshot covers.

    ``0`` for snapshots that predate the journal (or were written by
    :func:`save_session_state` without a ``journal_seq``): every journal
    record replays on top of them.
    """
    directory = Path(directory)
    payload = json.loads((directory / "session.json").read_text(encoding="utf-8"))
    return int(payload.get("journal_seq") or 0)


def load_session_state(
    session: ExplorationSession, directory: str | Path
) -> ExplorationSession:
    """Restore a session saved by :func:`save_session_state` in place.

    ``session`` must be freshly constructed over the same space; its
    history/feedback/memo/profile (and the governor-tier layer of its
    pool cache) are replaced by the stored state.  The stored space
    digest is re-validated against the live space first — session state
    saved for a since-mutated store raises here instead of silently
    restoring a display of groups that no longer exist (mirroring
    :func:`load_index`; legacy payloads without a digest load as before).
    """
    directory = Path(directory)
    payload = json.loads((directory / "session.json").read_text(encoding="utf-8"))
    if payload["version"] != _FORMAT_VERSION:
        raise ValueError(f"unsupported store version {payload['version']}")
    if len(session.history) > 0:
        raise ValueError("load_session_state needs a fresh session")
    stored_dataset = payload.get("dataset")
    if stored_dataset is not None and stored_dataset != session.space.dataset.name:
        raise ValueError(
            f"session state was saved on dataset {stored_dataset!r}, "
            f"got {session.space.dataset.name!r}"
        )
    stored_space = payload.get("space")
    live_space = session.runtime.name
    if (
        stored_space is not None
        and live_space is not None
        and stored_space != live_space
    ):
        # Both sides are named: a cross-space graft is refused even when
        # the content digests happen to agree (two manifest entries over
        # one store, or a renamed space).  One-sided names stay loadable
        # so pre-registry payloads and anonymous runtimes keep working.
        raise ValueError(
            f"session state belongs to space {stored_space!r}; it cannot "
            f"be resumed onto space {live_space!r}"
        )
    stored_digest = payload.get("space_digest")
    if stored_digest is not None:
        live_digest = session.epoch.digest()
        if stored_digest != live_digest:
            # Not the current generation — but the runtime retains
            # recent epochs precisely so a session checkpointed before a
            # mutation can resume against the generation it was actually
            # exploring.  The digest is the authority (epoch numbers are
            # informative only: they restart at 0 on process restart).
            resolved = session.runtime.resolve_digest(stored_digest)
            if resolved is None:
                from repro.core.runtime import StaleEpochError

                stored_epoch = payload.get("epoch")
                stamp = (
                    f" (saved at epoch {stored_epoch})"
                    if stored_epoch is not None
                    else ""
                )
                raise StaleEpochError(
                    "stored session state is stale: it was saved on a group "
                    f"space whose membership digest was {stored_digest[:12]}..."
                    f"{stamp}, but the live space digests to "
                    f"{live_digest[:12]}... and no retained epoch matches; "
                    "the session cannot be resumed onto a mutated store"
                )
            session.rebind_epoch(resolved)

    def decode(entries):
        return {
            (kind, key if kind == "token" else int(key)): float(value)
            for kind, key, value in entries
        }

    for step in payload["history"]:
        # Rebuild the tree in recorded order: set the cursor to each step's
        # parent before recording so branching is preserved.
        if step["parent_id"] is not None:
            session.history.backtrack(step["parent_id"])
        session.history.record(
            step["clicked_gid"], step["shown_gids"], decode(step["feedback"])
        )
    if payload["cursor"] is not None:
        session.history.backtrack(payload["cursor"])
    session.feedback.restore(decode(payload["feedback"]))
    for gid, note in payload["memo_groups"].items():
        session.memo.bookmark_group(int(gid), note)
    for user, note in payload["memo_users"].items():
        session.memo.bookmark_user(int(user), note)
    profile = payload.get("profile")
    if profile is not None:
        session.profile.token_weight = {
            token: float(weight)
            for token, weight in profile["token_weight"].items()
        }
        session.profile.visited_gids = [int(gid) for gid in profile["visited_gids"]]
        session.profile.steps_observed = int(profile["steps_observed"])
    if session.pool_cache is not None:
        session.pool_cache.import_governor_tiers(
            [
                (structure_key, _retuple(config_key), int(tier))
                for structure_key, config_key, tier in payload.get(
                    "governor_tiers", []
                )
            ]
        )
    session._displayed = [session.space[gid] for gid in payload["displayed"]]
    return session


def append_epoch_record(directory: str | Path, report: dict) -> None:
    """Append one mutation report to the state directory's epoch lineage.

    ``epochs.json`` is an *advisory* audit trail (one JSON object per
    line: epoch number, digest, parent digest, delta counts) — epochs
    themselves are in-memory serving state, so this file is never read
    on the recovery path and a failed append must not fail a mutation.
    Appends are O(1); no rewrite of prior lineage.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    line = json.dumps(
        {
            key: report[key]
            for key in (
                "epoch",
                "digest",
                "parent_digest",
                "n_groups",
                "added",
                "removed",
                "changed",
            )
            if key in report
        }
    )
    with open(directory / "epochs.json", "a", encoding="utf-8") as handle:
        handle.write(line + "\n")


def load_epoch_lineage(directory: str | Path) -> list[dict]:
    """The recorded epoch lineage, oldest first (empty when none).

    Torn tail lines (a crash mid-append) are skipped, matching the
    file's advisory contract.
    """
    path = Path(directory) / "epochs.json"
    if not path.exists():
        return []
    records: list[dict] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    return records
