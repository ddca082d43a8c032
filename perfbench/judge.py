"""The benchmark's judge: are the served outputs right?

Sessions are judged by replay.  Each distinct action list a run sent is
replayed on a private in-process ``SessionManager`` — a
``share_cache=False`` runtime per space, no state directory, one caller —
and every served display and drill-down member list must equal the
replay's.  On a mutated space the oracle applies the writer's deltas in
order, and a session is replayed on the epoch it was opened under: the
epoch is known from which deltas had been acknowledged before the open
was sent and which had been sent before its reply came back; when a
delta was in flight during the open, either neighbouring epoch may
match.  The replays are split over worker processes, each started as::

    python3 perfbench/judge.py --cache <spaces.pickle> --jobs <in.json> --out <out.json>

Mutations are also judged by their epoch reports (:func:`judge_mutations`).
"""

from __future__ import annotations

import argparse
import json
import pickle
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

#: Processes the session replays are split over.
JUDGE_WORKERS = 2


def replay(spaces: dict, jobs: dict) -> list:
    """Per job: ``[epoch, opened display, [result per action]]`` per candidate.

    ``jobs`` holds the mutated space's name, the writer's delta bodies in
    order, and the sessions as ``[candidate epochs, space, seed gids,
    actions]``.
    """
    from repro.core.group import GroupDelta
    from repro.core.runtime import GroupSpaceRuntime, SessionManager
    from repro.core.session import SessionConfig

    managers = {
        name: SessionManager(
            GroupSpaceRuntime(space, share_cache=False),
            default_config=SessionConfig(**wl.SESSION_CONFIG),
        )
        for name, space in spaces.items()
    }
    by_epoch = defaultdict(list)
    for position, (epochs, _, _, _) in enumerate(jobs["sessions"]):
        for epoch in epochs:
            by_epoch[epoch].append(position)
    replays: list = [[] for _ in jobs["sessions"]]
    deltas = jobs["deltas"]
    for epoch in range(len(deltas) + 1):
        for position in by_epoch.get(epoch, ()):
            _, space, seed_gids, actions = jobs["sessions"][position]
            manager = managers[space]
            sid, shown = manager.open_session(seed_gids=list(seed_gids) or None)
            results = []
            for kind, arg in actions:
                if kind == "click":
                    results.append([g.gid for g in manager.click(sid, arg)])
                elif kind == "backtrack":
                    results.append([g.gid for g in manager.backtrack(sid, arg)])
                else:
                    results.append([int(u) for u in manager.drill_down(sid, arg)])
            manager.close(sid)
            replays[position].append([epoch, [g.gid for g in shown], results])
        if epoch < len(deltas):
            body = deltas[epoch]
            managers[jobs["mutated"]].apply_deltas(
                GroupDelta.build(
                    added=body["add"], removed=body["remove"], changed=body["update"]
                )
            )
    return replays


def candidate_epochs(opened_between: tuple, mutations: list[dict]) -> tuple:
    """Epochs a session opened in ``[start, end]`` may be pinned to."""
    start, end = opened_between
    low = sum(1 for reply in mutations if reply["done"] < start)
    high = sum(1 for reply in mutations if reply["sent"] < end)
    return tuple(range(low, high + 1))


def judge_sessions(
    sessions: list,
    mutations: list[dict],
    mutated: str | None,
    cache_path: Path,
    workdir: Path,
    plant: str,
) -> dict:
    """Compare every complete session with the replay of its action list."""
    complete = [record for record in sessions if record.complete]
    if plant == "wrong-display" and complete:
        target = next((r for r in complete if r.actions), complete[0])
        if target.actions:
            kind, arg, result = target.actions[-1]
            target.actions[-1] = (kind, arg, list(reversed(result)) + [-1])
        else:
            target.opened = target.opened[1:]

    def key(record) -> tuple:
        epochs = (
            candidate_epochs(record.opened_between, mutations)
            if record.space == mutated
            else (0,)
        )
        return (epochs, *record.key())

    keys = list(dict.fromkeys(key(record) for record in complete))
    chunks = [keys[worker::JUDGE_WORKERS] for worker in range(JUDGE_WORKERS)]
    deltas = [reply["body"] for reply in mutations]
    workers = []
    for number, chunk in enumerate(chunks):
        jobs = workdir / f"judge-{number}-in.json"
        out = workdir / f"judge-{number}-out.json"
        jobs.write_text(
            json.dumps({"mutated": mutated, "deltas": deltas, "sessions": chunk}),
            encoding="utf-8",
        )
        command = [sys.executable, str(HERE / "judge.py"), "--cache", str(cache_path)]
        command += ["--jobs", str(jobs), "--out", str(out)]
        workers.append((out, subprocess.Popen(command)))
    replays = {}
    failures = []
    for (out, worker), chunk in zip(workers, chunks):
        try:
            code = worker.wait(timeout=150)
        except subprocess.TimeoutExpired:
            worker.kill()
            code = worker.wait()
        if code != 0:
            failures.append(f"judge worker exited {code}")
            continue
        replays.update(zip(chunk, json.loads(out.read_text(encoding="utf-8"))))
    mismatches = []
    for record in complete:
        served = [record.opened, [result for _, _, result in record.actions]]
        candidates = replays.get(key(record), [])
        if not any([opened, results] == served for _, opened, results in candidates):
            mismatches.append(f"{record.space} {record.seed_gids} ({record.phase})")
    return {
        "sessions": len(complete),
        "distinct_replays": len(keys),
        "epoch_ambiguous": sum(1 for k in keys if len(k[0]) > 1),
        "actions": sum(len(record.actions) for record in complete),
        "mismatches": (failures + mismatches)[:5],
        "mismatch_count": len(failures) + len(mismatches),
    }


def judge_mutations(mutations: list[dict], plant: str) -> dict:
    """Each delta publishes the next epoch, sized as the client's mirror says.

    The writer applies its own deltas to a client-side copy of the space
    with ``apply_group_delta``; the served group count must match it.
    The last delta of a run is sent with ``verify=True``, so the server
    also checks its delta-maintained index against a full rebuild.
    """
    problems = []
    for number, reply in enumerate(mutations, start=1):
        groups = reply["n_groups"] + (1 if plant == "wrong-display" else 0)
        if reply["epoch"] != number:
            problems.append(f"delta {number} published epoch {reply['epoch']}")
        if groups != reply["mirror_groups"]:
            problems.append(
                f"delta {number}: {groups} groups served, "
                f"{reply['mirror_groups']} expected"
            )
    return {
        "deltas": len(mutations),
        "problems": problems[:5],
        "mismatch_count": len(problems),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="replay worker of the judge")
    parser.add_argument("--cache", required=True)
    parser.add_argument("--jobs", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    sys.path.insert(0, "src")
    spaces = pickle.loads(Path(args.cache).read_bytes())
    jobs = json.loads(Path(args.jobs).read_text(encoding="utf-8"))
    Path(args.out).write_text(json.dumps(replay(spaces, jobs)), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
