"""Subprocess driver for the crash-point recovery matrix.

One invocation = one process lifetime of an analyst's journaled session:
open (or resume, if a token file from a previous lifetime exists), walk
the deterministic scripted trajectory up to ``--clicks`` total clicks,
close, and write a state fingerprint to ``--out``.

The matrix in ``test_crash_matrix.py`` runs this twice per crash point:
once with ``REPRO_FAULTS=crash=<point>@<n>`` armed (the process
SIGKILLs itself mid-durability-write), then once clean over the same
state directory (resume + replay + finish the walk).  The second run's
fingerprint must be byte-identical to an uninterrupted oracle run —
the journal's whole crash-safety claim in one equality.

Exits non-zero (with the exception on stderr) when recovery refuses the
journal — which the corruption case asserts on.
"""

import argparse
import json
import sys
from pathlib import Path

from repro.core.runtime import (
    GroupSpaceRuntime,
    SessionManager,
    scripted_click_gid,
)
from repro.core.session import SessionConfig
from repro.data.etl import load_dataset


def fingerprint(session) -> dict:
    cursor = session.history.current
    return {
        "displayed": session.displayed_gids(),
        "feedback": {
            repr(key): value
            for key, value in sorted(
                session.feedback.snapshot().items(), key=lambda item: repr(item[0])
            )
        },
        "steps": [
            {
                "step_id": step.step_id,
                "parent_id": step.parent_id,
                "clicked_gid": step.clicked_gid,
                "shown_gids": list(step.shown_gids),
            }
            for step in session.history
        ],
        "cursor": cursor.step_id if cursor is not None else None,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--actions", required=True)
    parser.add_argument("--demographics", required=True)
    parser.add_argument("--name", required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--state-dir", required=True)
    parser.add_argument("--token-file", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--clicks", type=int, required=True)
    parser.add_argument("--compact-every", type=int, default=3)
    args = parser.parse_args()

    dataset = load_dataset(
        args.actions, args.demographics, name=args.name
    ).dataset
    runtime = GroupSpaceRuntime.from_store(dataset, args.store)
    manager = SessionManager(
        runtime,
        default_config=SessionConfig(
            k=5, time_budget_ms=None, use_profile=False
        ),
        state_dir=args.state_dir,
        compact_every=args.compact_every,
    )

    token_file = Path(args.token_file)
    session_id = None
    if token_file.exists():
        token = token_file.read_text().strip()
        state = Path(args.state_dir) / token / "session.json"
        if state.exists():
            # The previous lifetime's acknowledged state, snapshot +
            # replayed journal tail.  Corruption refusals propagate.
            session_id, shown = manager.open_session(resume=token)
    if session_id is None:
        # First lifetime — or the previous one died before its very
        # first checkpoint landed (nothing was ever acknowledged).
        session_id, shown = manager.open_session()
        token_file.write_text(manager.resume_token(session_id))

    session = manager.session(session_id)
    visited = {
        step.clicked_gid
        for step in session.history
        if step.clicked_gid is not None
    }
    clicks_done = sum(
        1 for step in session.history if step.clicked_gid is not None
    )
    while clicks_done < args.clicks:
        gid = scripted_click_gid(shown, visited)
        shown = manager.click(session_id, gid)  # ← armed crashes fire here
        clicks_done += 1

    result = fingerprint(manager.session(session_id))
    manager.close(session_id)
    Path(args.out).write_text(json.dumps(result, sort_keys=True, indent=0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
