"""The two served group spaces are pinned bit for bit.

Session checkpoints, arena caches and epoch lineage are all stamped with
the membership digest of the space they were built on, so a discovery
change that reorders gids or alters a member set makes every existing
durable session refuse to resume.  These pins catch that at test time:
the membership digest (``space_digest``) and a sha256 over every
``(gid, description)`` pair of ``dbauthors_space()`` and
``bookcrossing_space()``.
"""

import hashlib
import json

import pytest

from repro.core.store import space_digest
from repro.experiments.common import bookcrossing_space, dbauthors_space

#: name -> (builder, group count, membership digest, description digest)
PINNED = {
    "dbauthors": (
        dbauthors_space,
        2052,
        "24fb90c3a571dd9a67a56ef0faac5f2c1ed622fd494010fbfc6e5f2349414841",
        "e566e6de944fcda01711524d0dca26231d4d971a43cf365a430f251d76ee1be8",
    ),
    "books": (
        bookcrossing_space,
        761,
        "9a2783aa81abd459875b6ef96e4d1fcf603f54de401962ebf44cb8a132965f03",
        "61321a7a667fefdfb269a1b175570fb83c42f05cf6a5559e234b70aa6c9d51a6",
    ),
}


def description_digest(space) -> str:
    """sha256 over every group's gid and description, in gid order."""
    digest = hashlib.sha256()
    for group in space:
        digest.update(json.dumps([group.gid, list(group.description)]).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_space_is_pinned(name):
    builder, n_groups, memberships, descriptions = PINNED[name]
    space = builder()
    assert len(space) == n_groups
    assert space_digest(space.memberships()) == memberships
    assert description_digest(space) == descriptions
