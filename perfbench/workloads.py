"""Workload definitions of the exploration-service benchmark.

Everything a run sends is derived from the ``--seed`` argument: analyst
personas, the scripted herd paths and the writer's group deltas.  The
program under test only receives the generated requests.

A session is a generator that yields actions and reads the effect of the
previous one from a :class:`View` the load loop keeps current:

    ("click", gid)        POST /v1/sessions/<id>/click
    ("backtrack", step)   POST /v1/sessions/<id>/backtrack
    ("drill", gid)        POST /v1/sessions/<id>/drill_down
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

#: Every session's configuration: a fixed amount of work per click
#: (no time budget, so the displays are deterministic and checkable, and
#: a slower click shows as latency rather than as lost quality).
SESSION_CONFIG = {"time_budget_ms": None, "engine": "celf", "use_profile": False}

#: Serving topology and load shape per workload.
WORKLOADS = {
    "herd-backtrack": {
        "spaces": ["dbauthors", "books"],
        "durability": "snapshot",
        "analysts": 2,
        "writer": False,
    },
    "mutate-under-read": {
        "spaces": ["dbauthors"],
        "durability": "journal",
        "analysts": 1,
        "writer": True,
    },
}

#: The writer's open-loop schedule: one delta per interval.
WRITER_INTERVAL_S = 4.0
#: Share of the space's groups one delta touches (adds + removes + churn).
CHURN_FRACTION = 0.01


@dataclass
class View:
    """What the analyst sees: the current display and the history size."""

    display: list = field(default_factory=list)
    steps: int = 1


@dataclass
class SessionPlan:
    """How one session opens and the generator that drives it."""

    space: str | None
    seed_gids: list[int] | None
    actions: object  # generator of actions, reading a View


def session_rng(seed: int, workload: str, analyst: int, number: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{analyst}:{number}")


# -- analyst personas ----------------------------------------------------


def random_clicker(rng: random.Random, view: View):
    for _ in range(rng.randint(4, 8)):
        yield ("click", rng.choice(view.display).gid)


def deep_diver(rng: random.Random, view: View):
    """Narrow down: always click the smallest group not visited yet."""
    visited: set[int] = set()
    for _ in range(rng.randint(5, 9)):
        fresh = [group for group in view.display if group.gid not in visited]
        gid = min(fresh or view.display, key=lambda group: (group.size, group.gid)).gid
        visited.add(gid)
        yield ("click", gid)


def drill_inspector(rng: random.Random, view: View):
    """Inspect two displayed groups' members, then click one of them."""
    for _ in range(rng.randint(3, 6)):
        inspected = rng.sample(view.display, min(2, len(view.display)))
        for group in inspected:
            yield ("drill", group.gid)
        yield ("click", rng.choice(inspected).gid)


def backtracker(rng: random.Random, view: View):
    """Click around, branching off an earlier step before every click."""
    for round_number in range(rng.randint(5, 9)):
        if round_number:
            yield ("backtrack", rng.randrange(view.steps))
        yield ("click", rng.choice(view.display).gid)


PERSONAS = {
    "random-clicker": random_clicker,
    "deep-diver": deep_diver,
    "drill-inspector": drill_inspector,
    "backtracker": backtracker,
}


def persona_session(
    seed: int, workload: str, analyst: int, number: int, n_groups: int, view: View
) -> SessionPlan:
    """A persona session opened on a random seed group.

    Each analyst cycles through the personas, so every run has the same
    mix; the seed picks the groups and the choices within each walk.
    """
    rng = session_rng(seed, workload, analyst, number)
    persona = sorted(PERSONAS)[(analyst + number) % len(PERSONAS)]
    return SessionPlan(
        space=None,
        seed_gids=[rng.randrange(n_groups)],
        actions=PERSONAS[persona](rng, view),
    )


# -- herd-backtrack ------------------------------------------------------

HERD_PATHS = 8
HERD_PATH_LENGTH = 4
HERD_GESTURES = 3


def herd_paths(seed: int, spaces: list[str]) -> dict[str, list[dict]]:
    """The few scripted walks every herd session repeats, per space.

    A walk is the slots to click from the opening display on, then the
    history steps to return to; after each return the walk's own slot
    is clicked again.
    """
    rng = random.Random(f"{seed}:herd-paths")
    return {
        space: [
            {
                "slots": [rng.randrange(5) for _ in range(HERD_PATH_LENGTH)],
                "returns": [
                    rng.randrange(HERD_PATH_LENGTH) for _ in range(HERD_GESTURES)
                ],
            }
            for _ in range(HERD_PATHS)
        ]
        for space in spaces
    }


def herd_walk(path: dict, view: View):
    """Walk a scripted path, then repeat backtrack + re-click gestures."""
    slots = path["slots"]
    for slot in slots:
        yield ("click", view.display[slot % len(view.display)].gid)
    for step in path["returns"]:
        yield ("backtrack", step)
        yield ("click", view.display[slots[step] % len(view.display)].gid)


def herd_session(
    seed: int,
    analyst: int,
    number: int,
    paths: dict[str, list[dict]],
    view: View,
) -> SessionPlan:
    rng = session_rng(seed, "herd-backtrack", analyst, number)
    spaces = sorted(paths)
    space = spaces[(analyst + number) % len(spaces)]
    return SessionPlan(
        space=space,
        seed_gids=None,
        actions=herd_walk(rng.choice(paths[space]), view),
    )


# -- mutate-under-read writer --------------------------------------------


def churn_delta(rng: random.Random, space) -> dict:
    """A balanced delta over ``space``: as many adds as removes, plus churn.

    Returns the wire form of ``POST /spaces/<name>/mutate`` (gids in the
    current epoch's numbering).
    """
    n_groups = len(space)
    per_kind = max(1, round(n_groups * CHURN_FRACTION / 3))
    gids = rng.sample(range(n_groups), 3 * per_kind)
    removed = gids[:per_kind]
    churned = gids[per_kind : 2 * per_kind]
    donors = gids[2 * per_kind :]
    n_users = space.dataset.n_users
    update = []
    for gid in churned:
        members = space[gid].members.tolist()
        if len(members) > 1:
            members.pop(rng.randrange(len(members)))
        members.append(rng.randrange(n_users))
        update.append((gid, sorted(set(members))))
    add = []
    for gid in donors:
        members = space[gid].members.tolist()
        keep = rng.sample(members, max(1, len(members) // 2))
        add.append((list(space[gid].description) + ["bench=added"], sorted(keep)))
    return {"add": add, "remove": removed, "update": update}
