"""Append-only per-session interaction journal with digest-chained records.

Rewriting the whole JSON snapshot on every click costs O(session length)
per interaction, which for the long analyst walks of §II makes the
durable cost of click 200 ~40x that of click 5.  This module is the
event-sourced store that every durable session uses instead (the idiom
of the avrae producer/consumer split): one small fsync'd record per
interaction, snapshots demoted to periodic *compaction*.

Record frame (all integers big-endian)::

    +----------+---------------------+------------------+
    | length:4 | body: JSON, <length>| digest: sha256:32|
    +----------+---------------------+------------------+

    digest = sha256(prev_digest || length || body)

The digest chain starts from 32 zero bytes at the top of each file, so a
journal is self-verifying from its first byte: any truncation leaves an
*incomplete* final frame (a torn tail, discarded cleanly on recovery —
the write in flight when the power died), while any complete frame whose
digest does not close the chain is *corruption* and refused loudly with
:class:`JournalCorruptionError` — never replayed into a silently wrong
session.

Records carry interaction *results*, not inputs: selection under a time
budget is non-deterministic, so a click record stores the clicked gid,
the resulting display, and the governor rows the click published.
Replay applies the deterministic mutations (feedback learning, profile
observation, history recording) and installs the recorded results —
which is exactly what makes a replayed session bitwise-identical to the
uninterrupted one, the property the crash-point matrix in
``tests/recovery/`` asserts.

File lifecycle per session directory::

    session.json   last compacted snapshot (stamped with journal_seq)
    journal.log    genesis record + every interaction since the snapshot

:meth:`SessionJournal.compact` writes the snapshot *first*, then rotates
``journal.log`` to a fresh genesis-only file; a crash between the two
leaves stale records the snapshot already covers, which recovery skips
by sequence number (idempotent replay).
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import time
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.core import faults
from repro.obs.trace import span

if TYPE_CHECKING:  # circular at runtime: sessions are replayed, not imported
    from repro.core.session import ExplorationSession

JOURNAL_NAME = "journal.log"
_JOURNAL_VERSION = 1
_CHAIN_SEED = b"\x00" * 32
_LENGTH = struct.Struct(">I")
_DIGEST_BYTES = 32
#: Sanity ceiling on one record body.  Real records are a few hundred
#: bytes; a length prefix beyond this is a corrupted length field (a
#: bit flip in the high bytes), reported as corruption rather than
#: letting a bogus length masquerade as a gigantic torn tail.
MAX_RECORD_BYTES = 8 * 1024 * 1024


class DurabilityError(RuntimeError):
    """A durable write failed; the interaction was rolled back, not lost.

    The manager raises this when a journal append (or a final
    compaction) fails: the in-memory session is restored to its
    pre-interaction state first, so the error genuinely means "not
    applied" and a client retry cannot double-apply.  The HTTP front
    maps it to ``503`` with a ``Retry-After`` of ``retry_after_s``.
    """

    def __init__(self, message: str, retry_after_s: float = 5.0) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class JournalCorruptionError(ValueError):
    """A complete journal record failed digest-chain verification.

    Distinct from a torn tail (an incomplete final frame, the normal
    residue of a crash mid-append, discarded silently): a *complete*
    frame whose digest does not close the chain means bit rot or
    tampering, and replaying past it could resurrect a wrong session.
    Subclasses ``ValueError`` so the service front maps it to the same
    409 as every other stale/conflicting-state refusal.
    """

    def __init__(self, path: str | Path, offset: int, reason: str) -> None:
        super().__init__(
            f"journal {path} corrupted at byte {offset}: {reason}"
        )
        self.path = str(path)
        self.offset = offset
        self.reason = reason


class JournalBrokenError(RuntimeError):
    """Appends refused: a previous append failed mid-write.

    After a failed write/fsync the on-disk tail no longer provably
    matches the in-memory chain, so appending more records could fork
    the chain; the journal stays broken until a compaction rotates in
    a fresh file.
    """


def _encode_frame(prev_digest: bytes, body: bytes) -> tuple[bytes, bytes]:
    """One framed record and the digest that extends the chain."""
    prefix = _LENGTH.pack(len(body))
    digest = hashlib.sha256(prev_digest + prefix + body).digest()
    return prefix + body + digest, digest


def read_journal(path: str | Path) -> tuple[list[dict], int]:
    """Every verified record of a journal file, plus torn tail bytes.

    Walks the digest chain from the zero seed.  An incomplete final
    frame (fewer bytes than its length prefix promises) is a torn tail:
    the verified prefix is returned and the torn byte count reported.
    A *complete* frame that fails verification — wrong digest,
    implausible length, undecodable body — raises
    :class:`JournalCorruptionError`; truncation alone can never trigger
    it, because the digest sits at the end of its own frame.
    """
    path = Path(path)
    data = path.read_bytes()
    records: list[dict] = []
    prev = _CHAIN_SEED
    offset = 0
    while offset < len(data):
        if offset + _LENGTH.size > len(data):
            break  # torn: not even a full length prefix
        (length,) = _LENGTH.unpack_from(data, offset)
        if length > MAX_RECORD_BYTES:
            raise JournalCorruptionError(
                path, offset, f"record length {length} exceeds sanity bound"
            )
        end = offset + _LENGTH.size + length + _DIGEST_BYTES
        if end > len(data):
            break  # torn: the final frame never finished writing
        body = data[offset + _LENGTH.size : end - _DIGEST_BYTES]
        stored = data[end - _DIGEST_BYTES : end]
        expected = hashlib.sha256(
            prev + data[offset : offset + _LENGTH.size] + body
        ).digest()
        if stored != expected:
            raise JournalCorruptionError(
                path, offset, "digest chain mismatch (bit rot or tampering)"
            )
        try:
            record = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            # The digest closed, so the writer itself produced garbage —
            # still refused; a "verified" record must also be readable.
            raise JournalCorruptionError(
                path, offset, f"undecodable record body ({error})"
            )
        records.append(record)
        prev = stored
        offset = end
    return records, len(data) - offset


def _session_meta(session: "ExplorationSession") -> dict:
    """The genesis stamp: which space's session this journal belongs to.

    The digest (and the informative epoch number) come from the
    session's *pinned* epoch, not whatever the runtime currently serves:
    a session that kept clicking through a store mutation journals
    against the generation it is actually exploring, and recovery
    resolves that digest among the runtime's retained epochs.
    """
    return {
        "space": session.runtime.name,
        "dataset": session.space.dataset.name,
        "space_digest": session.epoch.digest(),
        "epoch": session.epoch.number,
    }


def _check_meta(
    genesis: dict, session: "ExplorationSession", path: Path
) -> None:
    """Refuse to replay a journal onto the wrong space (mirrors the
    snapshot loader's dataset/space/digest checks)."""
    if genesis.get("journal_version") != _JOURNAL_VERSION:
        raise ValueError(
            f"unsupported journal version {genesis.get('journal_version')}"
        )
    dataset = genesis.get("dataset")
    if dataset is not None and dataset != session.space.dataset.name:
        raise ValueError(
            f"journal {path} was written on dataset {dataset!r}, "
            f"got {session.space.dataset.name!r}"
        )
    space = genesis.get("space")
    live = session.runtime.name
    if space is not None and live is not None and space != live:
        raise ValueError(
            f"journal {path} belongs to space {space!r}; it cannot "
            f"replay onto space {live!r}"
        )
    digest = genesis.get("space_digest")
    if digest is not None and digest != session.epoch.digest():
        # Sessions pin one epoch for life, so a journal's genesis digest
        # always matches the snapshot digest the session was restored
        # from — by the time recovery reaches here the snapshot loader
        # has already rebound the session onto the matching retained
        # epoch.  A mismatch therefore means the generation is truly
        # gone (evicted beyond retention, or a process restart dropped
        # the in-memory epochs).
        epoch = genesis.get("epoch")
        stamp = f" (journaled at epoch {epoch})" if epoch is not None else ""
        raise ValueError(
            f"journal {path} is stale: it was written on a group space "
            f"whose membership digest was {digest[:12]}...{stamp}, but no "
            "retained epoch matches; the session cannot replay onto a "
            "mutated store"
        )


def replay_record(session: "ExplorationSession", record: dict) -> None:
    """Apply one verified interaction record to a restored session.

    Clicks re-run the deterministic half of
    :meth:`~repro.core.session.ExplorationSession.click` (feedback
    learning, profile observation, history recording) and install the
    *recorded* display and governor rows instead of re-running
    selection — the budgeted greedy is not deterministic, the journal
    is.  Backtracks restore from the recorded step exactly as the live
    verb does; drill-downs carry no durable state.
    """
    kind = record.get("kind")
    if kind == "click":
        space = session.space
        group = space[int(record["gid"])]
        session.feedback.learn_group(
            group.members, group.description, reward=session.config.reward
        )
        session.profile.observe(group)
        shown = [int(gid) for gid in record["shown"]]
        session.history.record(group.gid, shown, session.feedback.snapshot())
        session._displayed = [space[gid] for gid in shown]
        rows = record.get("governor")
        if rows and session.pool_cache is not None:
            from repro.core.store import _retuple

            session.pool_cache.import_governor_tiers(
                [
                    (structure_key, _retuple(config_key), int(tier))
                    for structure_key, config_key, tier in rows
                ]
            )
    elif kind == "backtrack":
        step = session.history.backtrack(int(record["step_id"]))
        session.feedback.restore(step.feedback_snapshot)
        session._displayed = [session.space[gid] for gid in step.shown_gids]
    elif kind == "drill_down":
        pass  # a read; recorded for the event stream, nothing to restore
    else:
        raise ValueError(f"unknown journal record kind {kind!r}")


class SessionJournal:
    """One session's append-only interaction log in its state directory.

    Construction binds to ``<directory>/journal.log`` without touching
    the disk.  :meth:`compact` writes the snapshot and rotates in a
    fresh genesis-only journal (also how a journal is *created*);
    :meth:`append` adds one fsync'd record in O(record size) — the O(1)
    durable click; :meth:`recover` replays the verified tail over a
    snapshot-restored session.  Callers serialize access per session
    (the manager's per-session lock), as with every other session layer.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.path = self.directory / JOURNAL_NAME
        self._fd: Optional[int] = None
        self._tail_digest = _CHAIN_SEED
        #: Sequence number of the last interaction record (monotone per
        #: session, 0 = freshly opened; genesis records carry no seq).
        self.seq = 0
        #: ``seq`` as of the last compacted snapshot.
        self.snapshot_seq = 0
        self.records_since_compaction = 0
        self.broken = False
        #: Wall-clock cost of each append (the perf harness's O(1)
        #: flatness gate reads this; bounded sessions keep it small).
        self.append_ms: list[float] = []

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    # -- writing ---------------------------------------------------------

    def append(self, kind: str, payload: dict, sync: bool = True) -> int:
        """Append one interaction record; returns its sequence number.

        The frame reaches the kernel in one write and is fsync'd before
        returning (``sync=False`` skips the fsync — used for
        drill-downs, which carry no durable state; ordering within the
        file descriptor still holds, and the next synced append flushes
        them too).  On any OS failure the journal marks itself broken:
        the on-disk tail is no longer provably the in-memory chain, so
        further appends are refused until :meth:`compact` rotates in a
        fresh file.
        """
        if self.broken:
            raise JournalBrokenError(
                f"journal {self.path} is broken after a failed append; "
                "compact to rotate in a fresh file"
            )
        if self._fd is None:
            raise JournalBrokenError(
                f"journal {self.path} is not open; compact() creates it"
            )
        started = time.perf_counter()
        seq = self.seq + 1
        body = json.dumps(
            {"kind": kind, "seq": seq, **payload}, separators=(",", ":")
        ).encode("utf-8")
        frame, digest = _encode_frame(self._tail_digest, body)
        try:
            if faults.check("journal.mid_append"):
                # A genuinely torn record: half the frame reaches the
                # kernel, then the process dies.
                os.write(self._fd, frame[: max(1, len(frame) // 2)])
                faults.crash("journal.mid_append")
            faults.write(self._fd, frame)
            faults.crash_point("journal.pre_fsync")
            if sync:
                with span("journal_fsync"):
                    faults.fsync(self._fd)
            faults.crash_point("journal.post_append")
        except OSError:
            self.broken = True
            raise
        self._tail_digest = digest
        self.seq = seq
        self.records_since_compaction += 1
        self.append_ms.append((time.perf_counter() - started) * 1000.0)
        return seq

    def compact(self, session: "ExplorationSession") -> None:
        """Snapshot the session durably, then rotate the journal.

        The ordering is the crash-safety argument: the snapshot (stamped
        with the seq it covers) is durably replaced *first*, then the
        journal is swapped for a genesis-only file.  A crash between the
        two leaves the old journal full of records the snapshot already
        covers; recovery skips them by seq.  Also the repair path for a
        broken journal — the fresh file restarts the chain.
        """
        from repro.core.store import save_session_state

        save_session_state(session, self.directory, journal_seq=self.seq)
        self.snapshot_seq = self.seq
        self._rotate(_session_meta(session))

    def _rotate(self, meta: dict) -> None:
        """Swap in a fresh journal holding only a genesis record."""
        from repro.core.store import fsync_directory

        body = json.dumps(
            {
                "kind": "genesis",
                "journal_version": _JOURNAL_VERSION,
                "snapshot_seq": self.snapshot_seq,
                **meta,
            },
            separators=(",", ":"),
        ).encode("utf-8")
        frame, digest = _encode_frame(_CHAIN_SEED, body)
        staging = self.directory / (JOURNAL_NAME + ".new")
        fd = os.open(staging, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            faults.write(fd, frame)
            faults.fsync(fd)
            os.replace(staging, self.path)
        except BaseException:
            os.close(fd)
            try:
                os.unlink(staging)
            except OSError:
                pass
            raise
        # The rename landed: ``fd`` now addresses the live journal file
        # (the inode survives its own rename), so the swap is committed
        # before the directory fsync can still fail.
        old = self._fd
        self._fd = fd
        self._tail_digest = digest
        self.records_since_compaction = 0
        self.broken = False
        if old is not None:
            os.close(old)
        fsync_directory(self.directory)

    # -- recovery --------------------------------------------------------

    def recover(self, session: "ExplorationSession") -> int:
        """Replay the verified journal tail over a snapshot-restored session.

        ``session`` must already hold the compacted snapshot
        (:func:`repro.core.store.load_session_state`).  Records the
        snapshot already covers (``seq <=`` its ``journal_seq`` stamp)
        are skipped, the rest replay in order; returns how many did.
        The caller then :meth:`compact`\\ s to fold the tail in and start
        a fresh journal.  A torn tail is discarded silently (the write
        in flight when the process died — at most one un-acknowledged
        interaction); a broken digest chain or sequence gap raises.
        """
        from repro.core.store import load_session_journal_seq

        base_seq = load_session_journal_seq(self.directory)
        self.seq = base_seq
        self.snapshot_seq = base_seq
        if not self.path.exists():
            return 0  # legacy snapshot-only state: nothing to replay
        records, _torn = read_journal(self.path)
        if not records:
            return 0  # fully torn first frame: discard, snapshot stands
        genesis = records[0]
        if genesis.get("kind") != "genesis":
            raise JournalCorruptionError(
                self.path, 0, "first record is not a genesis record"
            )
        _check_meta(genesis, session, self.path)
        expected = int(genesis.get("snapshot_seq") or 0)
        replayed = 0
        for record in records[1:]:
            seq = int(record.get("seq", -1))
            if seq != expected + 1:
                raise JournalCorruptionError(
                    self.path,
                    0,
                    f"sequence gap: expected {expected + 1}, found {seq}",
                )
            expected = seq
            if seq <= base_seq:
                continue  # the compacted snapshot already covers it
            replay_record(session, record)
            self.seq = seq
            replayed += 1
        return replayed

    def __repr__(self) -> str:
        state = "broken" if self.broken else "open" if self._fd else "unbound"
        return (
            f"SessionJournal({self.path}, seq={self.seq}, "
            f"snapshot_seq={self.snapshot_seq}, {state})"
        )
