"""Shared fixtures for experiment drivers.

Every benchmark regenerates one paper claim; they all need the same two
synthetic datasets and their group spaces.  Builders here are cached per
process so ``pytest benchmarks/`` pays setup once.

``REPRO_SCALE=full`` switches the BookCrossing generator to the paper's
quoted scale (1M ratings) for the experiments that can use it (C10).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from functools import lru_cache

from repro.core.discovery import DiscoveryConfig, discover_groups
from repro.core.group import GroupSpace
from repro.core.runtime import GroupSpaceRuntime
from repro.spaces import SpaceDescriptor, SpaceRegistry, valid_space_name
from repro.data.generators.bookcrossing import (
    BookCrossingConfig,
    BookCrossingData,
    generate_bookcrossing,
    paper_scale_config,
)
from repro.data.generators.dbauthors import (
    DBAuthorsConfig,
    DBAuthorsData,
    generate_dbauthors,
)

#: The satisfaction scenario's documented mining resolution (see DESIGN.md):
#: fine enough that niche genre communities have intermediate groups.
BOOKCROSSING_MIN_SUPPORT = 0.015


def full_scale() -> bool:
    return os.environ.get("REPRO_SCALE", "").lower() == "full"


# The cached implementations take every parameter explicitly so the
# public wrappers below normalize default arguments onto one cache key —
# ``dbauthors_space()`` and ``dbauthors_space(11, 0.04)`` must return the
# *same object*, or runtimes and drivers would each get a private copy
# and identity checks (``runtime.space is space``) would fail.


@lru_cache(maxsize=4)
def _dbauthors_data(seed: int) -> DBAuthorsData:
    return generate_dbauthors(DBAuthorsConfig(seed=seed))


def dbauthors_data(seed: int = 11) -> DBAuthorsData:
    return _dbauthors_data(seed)


def dbauthors_discovery(min_support: float = 0.04) -> DiscoveryConfig:
    """The discovery recipe of :func:`dbauthors_space`."""
    return DiscoveryConfig(method="lcm", min_support=min_support, max_description=3)


@lru_cache(maxsize=4)
def _dbauthors_space(seed: int, min_support: float) -> GroupSpace:
    return discover_groups(dbauthors_data(seed).dataset, dbauthors_discovery(min_support))


def dbauthors_space(seed: int = 11, min_support: float = 0.04) -> GroupSpace:
    return _dbauthors_space(seed, min_support)


@lru_cache(maxsize=4)
def _bookcrossing_data(
    n_users: int, n_items: int, n_ratings: int, seed: int
) -> BookCrossingData:
    return generate_bookcrossing(
        BookCrossingConfig(
            n_users=n_users, n_items=n_items, n_ratings=n_ratings, seed=seed
        )
    )


def bookcrossing_data(
    n_users: int = 1500, n_items: int = 800, n_ratings: int = 12000, seed: int = 7
) -> BookCrossingData:
    return _bookcrossing_data(n_users, n_items, n_ratings, seed)


def bookcrossing_discovery(
    min_support: float = BOOKCROSSING_MIN_SUPPORT,
) -> DiscoveryConfig:
    """The discovery recipe of :func:`bookcrossing_space`."""
    return DiscoveryConfig(
        method="lcm",
        min_support=min_support,
        max_description=3,
        min_item_support=15,
    )


@lru_cache(maxsize=4)
def _bookcrossing_space(
    n_users: int,
    n_items: int,
    n_ratings: int,
    seed: int,
    min_support: float,
) -> GroupSpace:
    return discover_groups(
        bookcrossing_data(n_users, n_items, n_ratings, seed).dataset,
        bookcrossing_discovery(min_support),
    )


def bookcrossing_space(
    n_users: int = 1500,
    n_items: int = 800,
    n_ratings: int = 12000,
    seed: int = 7,
    min_support: float = BOOKCROSSING_MIN_SUPPORT,
) -> GroupSpace:
    return _bookcrossing_space(n_users, n_items, n_ratings, seed, min_support)


def paper_scale_bookcrossing() -> BookCrossingData:
    """The full 278,858-user / 1M-rating population (C10 under REPRO_SCALE)."""
    return generate_bookcrossing(paper_scale_config())


@lru_cache(maxsize=1)
def experiment_registry() -> SpaceRegistry:
    """The process-wide space registry every experiment runtime lives in.

    Drivers resolve their serving runtimes through it — the same hosting
    subsystem the multi-space server uses.  ``max_ready=8`` keeps the
    memory bound the two retired ``lru_cache(maxsize=4)`` helpers used
    to provide (a parameter sweep does not retain every index it ever
    built; experiment sessions hold no manager slots, so their spaces
    stay evictable).  Each parameterization registers under a
    deterministic token-safe name, and the registry's entry cache
    preserves the one-runtime-per-space identity the old caches
    provided (``runtime.space is dbauthors_space(...)`` still holds:
    builders go through the cached space builders above).
    """
    return SpaceRegistry(build_workers=2, max_ready=8)


def _fraction_token(value: float) -> str:
    """A float knob as a registry-name-safe token (0.04 -> '0040')."""
    return f"{int(round(value * 1000)):04d}"


def _registry_name(stem: str) -> str:
    """``stem`` as a valid space name, digest-compressed when too long.

    Parameter stems stay readable while they fit the 48-char space-name
    limit; paper-scale parameterizations (six-digit user/rating counts)
    overflow it, so the tail is replaced by a sha256 digest of the full
    stem — still deterministic per parameter set, always valid.
    """
    if valid_space_name(stem):
        return stem
    digest = hashlib.sha256(stem.encode("utf-8")).hexdigest()[:16]
    return f"{stem[:31]}-{digest}"


def _resolved_runtime(name: str, builder) -> GroupSpaceRuntime:
    registry = experiment_registry()
    registry.register(
        SpaceDescriptor(name=name, builder=builder), exist_ok=True
    )
    return registry.runtime(name)


def dbauthors_runtime(
    seed: int = 11,
    min_support: float = 0.04,
    materialize_fraction: float = 0.10,
) -> GroupSpaceRuntime:
    """One serving runtime per dbauthors space, shared across drivers.

    Every experiment session created from it reuses the same similarity
    index and cross-session cache — the multi-user serving story the
    drivers now measure instead of rebuilding per-session indexes.
    Resolved through :func:`experiment_registry`, so identical
    parameters return the identical runtime object.
    """
    name = _registry_name(
        f"dbauthors-s{seed}-ms{_fraction_token(min_support)}"
        f"-mf{_fraction_token(materialize_fraction)}"
    )
    return _resolved_runtime(
        name,
        lambda: GroupSpaceRuntime(
            dbauthors_space(seed, min_support),
            materialize_fraction=materialize_fraction,
        ),
    )


def bookcrossing_runtime(
    n_users: int = 1500,
    n_items: int = 800,
    n_ratings: int = 12000,
    seed: int = 7,
    min_support: float = BOOKCROSSING_MIN_SUPPORT,
    materialize_fraction: float = 0.10,
) -> GroupSpaceRuntime:
    """One serving runtime per bookcrossing space (see ``dbauthors_runtime``)."""
    name = _registry_name(
        f"bookcrossing-u{n_users}-i{n_items}-r{n_ratings}-s{seed}"
        f"-ms{_fraction_token(min_support)}"
        f"-mf{_fraction_token(materialize_fraction)}"
    )
    return _resolved_runtime(
        name,
        lambda: GroupSpaceRuntime(
            bookcrossing_space(n_users, n_items, n_ratings, seed, min_support),
            materialize_fraction=materialize_fraction,
        ),
    )


@dataclass
class ExperimentReport:
    """Uniform experiment output: identifier, claim, measured rows."""

    experiment: str
    paper_claim: str
    rows: list[dict[str, object]] = field(default_factory=list)
    notes: str = ""

    def formatted(self) -> str:
        lines = [f"[{self.experiment}] paper: {self.paper_claim}"]
        if self.notes:
            lines.append(f"  note: {self.notes}")
        if self.rows:
            keys = list(self.rows[0])
            widths = {
                key: max(len(str(key)), *(len(_fmt(row.get(key))) for row in self.rows))
                for key in keys
            }
            header = "  " + " | ".join(f"{key:<{widths[key]}}" for key in keys)
            lines.append(header)
            lines.append("  " + "-+-".join("-" * widths[key] for key in keys))
            for row in self.rows:
                lines.append(
                    "  "
                    + " | ".join(f"{_fmt(row.get(key)):<{widths[key]}}" for key in keys)
                )
        return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
