"""The append-only session journal: framing, chaining, recovery, degradation.

Four contracts, matching the journal module's crash-safety story:

- **framing** — every record round-trips through the length-prefixed,
  digest-chained frame format; a torn tail (truncation anywhere) is
  discarded silently, a *modified* complete frame is refused loudly.
- **replay parity** — a session resumed from snapshot + journal tail is
  indistinguishable from the uninterrupted one (displays, feedback,
  history — the same round-trip the snapshot store promises, at O(1)
  durable cost per click).
- **crash points** — simulated in-process deaths at every instrumented
  instant of the append path leave a recoverable journal: before the
  frame is complete the interaction is gone, after it the interaction
  survives; nothing in between.
- **graceful degradation** — a failing disk rolls the in-flight
  interaction back (typed :class:`DurabilityError`, sticky ``degraded``
  flag), and :meth:`heal` restores service once the disk recovers.

The end-to-end variant — SIGKILL'd subprocesses at the same crash
points — lives in ``tests/recovery/``.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import faults
from repro.core.discovery import DiscoveryConfig, discover_groups
from repro.core.journal import (
    DurabilityError,
    JournalBrokenError,
    JournalCorruptionError,
    SessionJournal,
    _CHAIN_SEED,
    _encode_frame,
    read_journal,
)
from repro.core.runtime import (
    GroupSpaceRuntime,
    SessionManager,
    scripted_click_gid,
)
from repro.core.session import SessionConfig
from repro.core.store import load_session_state, save_session_state
from repro.data.generators.dbauthors import DBAuthorsConfig, generate_dbauthors
from repro.service import ExplorationClient, ExplorationService
from repro.service.client import ServiceDegraded


@pytest.fixture(scope="module")
def space():
    data = generate_dbauthors(DBAuthorsConfig(n_authors=200, seed=37))
    return discover_groups(
        data.dataset,
        DiscoveryConfig(method="lcm", min_support=0.08, max_description=3),
    )


@pytest.fixture(autouse=True)
def no_leftover_faults():
    faults.clear()
    yield
    faults.clear()


def untimed_config() -> SessionConfig:
    # Untimed + no profile: selection is deterministic, so a replayed
    # session is comparable bit-for-bit with the uninterrupted one.
    return SessionConfig(k=4, time_budget_ms=None, use_profile=False)


def journaled_manager(space, state_dir, compact_every: int = 100):
    runtime = GroupSpaceRuntime(space)
    return SessionManager(
        runtime,
        default_config=untimed_config(),
        state_dir=state_dir,
        compact_every=compact_every,
    )


def fresh_journal(tmp_path) -> SessionJournal:
    """A journal bound to ``tmp_path`` with a synthetic genesis record."""
    journal = SessionJournal(tmp_path)
    journal._rotate({"space": None, "dataset": "synthetic", "space_digest": "d"})
    return journal


def session_fingerprint(session) -> tuple:
    """Everything resume must restore exactly."""
    current = session.history.current
    return (
        session.displayed_gids(),
        session.feedback.snapshot(),
        len(session.history),
        current.step_id if current is not None else None,
        [
            (step.clicked_gid, step.shown_gids, step.parent_id)
            for step in session.history
        ],
    )


# ---------------------------------------------------------------------------
# frame format
# ---------------------------------------------------------------------------


class TestFrameFormat:
    def test_append_read_roundtrip(self, tmp_path):
        journal = fresh_journal(tmp_path)
        assert journal.append("click", {"gid": 7, "shown": [1, 2]}) == 1
        assert journal.append("drill_down", {"gid": 1}, sync=False) == 2
        assert journal.append("backtrack", {"step_id": 0}) == 3
        records, torn = read_journal(journal.path)
        assert torn == 0
        assert [record["kind"] for record in records] == [
            "genesis", "click", "drill_down", "backtrack",
        ]
        assert [record["seq"] for record in records[1:]] == [1, 2, 3]
        assert records[1]["shown"] == [1, 2]
        journal.close()

    def test_truncation_at_every_offset_never_misreads(self, tmp_path):
        # The exhaustive sweep: cutting the file at *any* byte yields a
        # verified prefix of the original records — never an exception,
        # never a record that was not appended.  (The hypothesis variant
        # below does the same over randomized record sequences.)
        journal = fresh_journal(tmp_path)
        for seq in range(4):
            journal.append("click", {"gid": seq, "shown": [seq, seq + 1]})
        journal.close()
        blob = journal.path.read_bytes()
        full, torn = read_journal(journal.path)
        assert torn == 0 and len(full) == 5
        victim = tmp_path / "truncated.log"
        for cut in range(len(blob) + 1):
            victim.write_bytes(blob[:cut])
            records, torn_bytes = read_journal(victim)
            assert records == full[: len(records)]
            # Every byte is accounted for: verified prefix + torn tail.
            consumed = cut - torn_bytes
            assert 0 <= torn_bytes and 0 <= consumed <= cut
        # And the empty file is just "no records", not an error.
        victim.write_bytes(b"")
        assert read_journal(victim) == ([], 0)

    def test_bit_flip_in_body_is_refused(self, tmp_path):
        journal = fresh_journal(tmp_path)
        journal.append("click", {"gid": 3, "shown": [3]})
        journal.append("click", {"gid": 4, "shown": [4]})
        journal.close()
        blob = bytearray(journal.path.read_bytes())
        # Flip one bit inside the *second* frame's body (past the first
        # frame and the 4-byte length prefix of the second).
        records, _ = read_journal(journal.path)
        first_frame_end = len(blob) - sum(
            4 + len(json.dumps(r, separators=(",", ":")).encode()) + 32
            for r in records[1:]
        )
        blob[first_frame_end + 4 + 2] ^= 0x01
        journal.path.write_bytes(bytes(blob))
        with pytest.raises(JournalCorruptionError, match="digest chain"):
            read_journal(journal.path)

    def test_implausible_length_is_refused(self, tmp_path):
        journal = fresh_journal(tmp_path)
        journal.append("click", {"gid": 1, "shown": [1]})
        journal.close()
        blob = bytearray(journal.path.read_bytes())
        blob[0:4] = (0xFFFFFFFF).to_bytes(4, "big")
        journal.path.write_bytes(bytes(blob))
        with pytest.raises(JournalCorruptionError, match="sanity bound"):
            read_journal(journal.path)

    def test_failed_fsync_breaks_journal_until_rotation(self, tmp_path):
        journal = fresh_journal(tmp_path)
        journal.append("click", {"gid": 1, "shown": [1]})
        faults.install(faults.FaultPlan(fsync_errors=1))
        with pytest.raises(OSError):
            journal.append("click", {"gid": 2, "shown": [2]})
        assert journal.broken
        with pytest.raises(JournalBrokenError, match="broken"):
            journal.append("click", {"gid": 3, "shown": [3]})
        faults.clear()
        # Rotation is the repair: a fresh file restarts the chain.
        journal._rotate({"space": None, "dataset": "synthetic", "space_digest": "d"})
        assert not journal.broken
        journal.append("click", {"gid": 3, "shown": [3]})
        records, torn = read_journal(journal.path)
        assert torn == 0
        assert [record["kind"] for record in records] == ["genesis", "click"]
        journal.close()


# ---------------------------------------------------------------------------
# hypothesis: truncation + tampering over arbitrary record sequences
# ---------------------------------------------------------------------------


def _build_blob(gids: list[int]) -> tuple[bytes, list[dict]]:
    records = [{"kind": "genesis", "journal_version": 1, "snapshot_seq": 0}]
    records += [
        {"kind": "click", "seq": seq, "gid": gid, "shown": [gid]}
        for seq, gid in enumerate(gids, start=1)
    ]
    blob = b""
    prev = _CHAIN_SEED
    for record in records:
        body = json.dumps(record, separators=(",", ":")).encode("utf-8")
        frame, prev = _encode_frame(prev, body)
        blob += frame
    return blob, records


def _read_blob(blob: bytes):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "journal.log"
        path.write_bytes(blob)
        return read_journal(path)


class TestJournalProperties:
    @settings(max_examples=120, deadline=None)
    @given(
        gids=st.lists(st.integers(0, 10_000), max_size=6),
        offset=st.integers(min_value=0, max_value=1 << 16),
    )
    def test_any_truncation_yields_exactly_a_verified_prefix(self, gids, offset):
        blob, records = _build_blob(gids)
        cut = offset % (len(blob) + 1)
        got, torn = _read_blob(blob[:cut])
        # The verified prefix is exact — same records, same order — and
        # the torn residue never raises: truncation is a crash, not rot.
        assert got == records[: len(got)]
        assert torn >= 0
        if cut == len(blob):
            assert got == records and torn == 0

    @settings(max_examples=120, deadline=None)
    @given(
        gids=st.lists(st.integers(0, 10_000), min_size=1, max_size=6),
        position=st.integers(min_value=0, max_value=1 << 16),
        mask=st.integers(min_value=1, max_value=255),
    )
    def test_any_byte_flip_is_refused_or_shortens_the_prefix(
        self, gids, position, mask
    ):
        blob, records = _build_blob(gids)
        index = position % len(blob)
        tampered = bytearray(blob)
        tampered[index] ^= mask
        # A flipped byte either breaks the digest chain (refused loudly)
        # or forges a length that makes the tail look torn (a shorter
        # verified prefix) — it can never survive as a full read.
        try:
            got, _torn = _read_blob(bytes(tampered))
        except JournalCorruptionError:
            return
        assert got == records[: len(got)]
        assert len(got) < len(records)


# ---------------------------------------------------------------------------
# manager integration: journal durability end to end (in-process)
# ---------------------------------------------------------------------------


class TestJournalDurability:
    N_CLICKS = 5

    def drive(self, manager, session_id, clicks):
        from repro.core.runtime import scripted_click_gid

        shown = manager.displayed(session_id)
        visited = set()
        for _ in range(clicks):
            shown = manager.click(
                session_id, scripted_click_gid(shown, visited)
            )
        return shown

    def test_resume_replays_journal_tail_exactly(self, space, tmp_path):
        manager = journaled_manager(space, tmp_path)
        session_id, _ = manager.open_session()
        token = manager.resume_token(session_id)
        self.drive(manager, session_id, self.N_CLICKS)
        manager.backtrack(session_id, 2)
        expected = session_fingerprint(manager.session(session_id))
        journal = manager.session_journal(session_id)
        # No compaction ran since open: every interaction lives only in
        # the journal — resume genuinely exercises replay.
        assert journal.seq == self.N_CLICKS + 1
        assert journal.snapshot_seq == 0

        # "Crash": a second manager over the same state dir, no close.
        second = journaled_manager(space, tmp_path)
        resumed_id, shown = second.open_session(resume=token)
        resumed = second.session(resumed_id)
        assert session_fingerprint(resumed) == expected
        assert [group.gid for group in shown] == expected[0]
        # The resumed session keeps exploring (and journaling).
        assert second.click(resumed_id, shown[0].gid)

    def test_journal_and_snapshot_modes_agree(self, space, tmp_path):
        # A journaled-then-resumed session equals the uninterrupted one
        # after a plain snapshot save/load round trip.
        manager = journaled_manager(space, tmp_path / "journal", compact_every=3)
        session_id, _ = manager.open_session()
        token = manager.resume_token(session_id)
        self.drive(manager, session_id, self.N_CLICKS)
        manager.close(session_id)
        fresh = journaled_manager(space, tmp_path / "journal")
        resumed_id, _ = fresh.open_session(resume=token)
        journaled = session_fingerprint(fresh.session(resumed_id))

        runtime = GroupSpaceRuntime(space)
        in_memory = SessionManager(runtime, default_config=untimed_config())
        walk_id, _ = in_memory.open_session()
        self.drive(in_memory, walk_id, self.N_CLICKS)
        save_session_state(in_memory.session(walk_id), tmp_path / "snapshot")
        restored = runtime.create_session(untimed_config())
        load_session_state(restored, tmp_path / "snapshot")
        assert journaled == session_fingerprint(restored)

    def test_click_appends_one_record_and_leaves_the_snapshot(
        self, space, tmp_path
    ):
        manager = SessionManager(
            GroupSpaceRuntime(space),
            default_config=untimed_config(),
            state_dir=tmp_path,
        )
        session_id, shown = manager.open_session()
        directory = tmp_path / manager.resume_token(session_id)
        snapshot = (directory / "session.json").read_bytes()
        before, _ = read_journal(directory / "journal.log")
        manager.click(session_id, shown[0].gid)
        after, torn = read_journal(directory / "journal.log")
        assert torn == 0
        assert len(after) == len(before) + 1
        assert after[-1]["kind"] == "click"
        assert (directory / "session.json").read_bytes() == snapshot

    def test_snapshot_only_state_resumes_and_starts_a_journal(
        self, space, tmp_path
    ):
        # What an older deployment left on disk: session.json written by
        # save_session_state, no journal.log beside it.
        runtime = GroupSpaceRuntime(space)
        session = runtime.create_session(untimed_config())
        shown = session.start()
        visited: set[int] = set()
        for _ in range(3):
            shown = session.click(scripted_click_gid(shown, visited))
        token = "legacy-0001"
        directory = tmp_path / token
        save_session_state(session, directory)
        assert not (directory / "journal.log").exists()
        expected = session_fingerprint(session)

        manager = journaled_manager(space, tmp_path)
        resumed_id, restored = manager.open_session(resume=token)
        assert session_fingerprint(manager.session(resumed_id)) == expected
        assert [group.gid for group in restored] == expected[0]
        manager.click(resumed_id, restored[0].gid)
        records, torn = read_journal(directory / "journal.log")
        assert torn == 0
        assert [record["kind"] for record in records] == ["genesis", "click"]

    def test_failed_final_checkpoint_keeps_the_session_live(
        self, space, tmp_path
    ):
        manager = journaled_manager(space, tmp_path)
        session_id, _ = manager.open_session()
        faults.install(faults.FaultPlan(fsync_errors=1))
        with pytest.raises(DurabilityError, match="final checkpoint failed"):
            manager.close(session_id)
        faults.clear()
        assert manager.has_session(session_id)
        assert manager.displayed(session_id)
        assert manager.degraded
        assert manager.heal()
        assert not manager.degraded
        assert manager.close(session_id)["resume_token"]

    def test_failed_final_checkpoint_is_a_typed_503_over_http(
        self, space, tmp_path
    ):
        manager = journaled_manager(space, tmp_path)
        with ExplorationService(manager).start() as service:
            with ExplorationClient(
                service.host, service.port, degraded_retries=0
            ) as client:
                opened = client.open()
                faults.install(faults.FaultPlan(fsync_errors=1))
                with pytest.raises(ServiceDegraded) as excinfo:
                    client.close(opened.session_id)
                faults.clear()
                assert excinfo.value.status == 503
                assert excinfo.value.error_type == "durability_degraded"
                assert client.displayed(opened.session_id)

    def test_compaction_folds_tail_and_rotates(self, space, tmp_path):
        manager = journaled_manager(space, tmp_path, compact_every=3)
        session_id, _ = manager.open_session()
        token = manager.resume_token(session_id)
        self.drive(manager, session_id, 7)
        journal = manager.session_journal(session_id)
        assert journal.snapshot_seq > 0  # at least two compactions ran
        assert journal.records_since_compaction < 3
        records, torn = read_journal(journal.path)
        assert torn == 0
        assert records[0]["kind"] == "genesis"
        assert records[0]["snapshot_seq"] == journal.snapshot_seq
        # Stale-record skipping: resume still lands on the exact state.
        expected = session_fingerprint(manager.session(session_id))
        second = journaled_manager(space, tmp_path)
        resumed_id, _ = second.open_session(resume=token)
        assert session_fingerprint(second.session(resumed_id)) == expected

    def test_failed_append_rolls_back_degrades_and_heals(self, space, tmp_path):
        manager = journaled_manager(space, tmp_path)
        session_id, shown = manager.open_session()
        shown = manager.click(session_id, shown[0].gid)
        before = session_fingerprint(manager.session(session_id))
        clicks_before = manager.session_stats(session_id)["clicks"]

        faults.install(faults.FaultPlan(fsync_errors=1))
        target = shown[-1].gid
        with pytest.raises(DurabilityError, match="journal append failed"):
            manager.click(session_id, target)
        faults.clear()

        # Rolled back: the session is exactly what the client last saw
        # acknowledged, and the click counter never moved.
        assert session_fingerprint(manager.session(session_id)) == before
        assert manager.session_stats(session_id)["clicks"] == clicks_before
        # Sticky degradation: mutations refuse until healed, reads work.
        assert manager.degraded
        assert manager.stats()["degraded"]
        with pytest.raises(DurabilityError, match="degraded"):
            manager.click(session_id, target)
        with pytest.raises(DurabilityError):
            manager.open_session()
        assert manager.displayed(session_id)  # reads stay up

        assert manager.heal()
        assert not manager.degraded
        after = manager.click(session_id, target)
        assert [group.gid for group in after]
        # The recovered journal still resumes cleanly.
        token = manager.resume_token(session_id)
        expected = session_fingerprint(manager.session(session_id))
        second = journaled_manager(space, tmp_path)
        resumed_id, _ = second.open_session(resume=token)
        assert session_fingerprint(second.session(resumed_id)) == expected

    @pytest.mark.parametrize(
        "point,survives",
        [
            ("journal.mid_append", False),
            ("journal.pre_fsync", True),  # written = visible (process died,
            ("journal.post_append", True),  # not the kernel)
        ],
    )
    def test_crash_points_leave_a_recoverable_journal(
        self, space, tmp_path, point, survives
    ):
        state_dir = tmp_path / point.replace(".", "_")
        manager = journaled_manager(space, state_dir)
        session_id, _ = manager.open_session()
        token = manager.resume_token(session_id)
        self.drive(manager, session_id, 2)
        before = session_fingerprint(manager.session(session_id))
        shown = manager.displayed(session_id)
        visited = {step.clicked_gid for step in manager.session(session_id).history}

        from repro.core.runtime import scripted_click_gid

        gid = scripted_click_gid(shown, visited)
        faults.install(faults.FaultPlan(crash_point=point, crash_mode="raise"))
        with pytest.raises(faults.SimulatedCrash):
            manager.click(session_id, gid)
        faults.clear()
        after = session_fingerprint(manager.session(session_id))

        second = journaled_manager(space, state_dir)
        resumed_id, _ = second.open_session(resume=token)
        resumed = session_fingerprint(second.session(resumed_id))
        # All or nothing: a complete frame replays the interaction, a
        # torn one discards it — never a half-applied session.
        assert resumed == (after if survives else before)
