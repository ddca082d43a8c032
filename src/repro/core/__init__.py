"""VEXUS core: groups, the exploration loop, and everything §II describes.

Public entry points:

- :func:`~repro.core.discovery.discover_groups` — offline phase
  (dataset -> group space via LCM / Apriori / α-MOMRI / stream / BIRCH);
- :class:`~repro.core.session.ExplorationSession` — online phase
  (start / click / backtrack / bookmark, with feedback learning).
"""

from repro.core.context import ContextEntry, ContextView
from repro.core.discovery import (
    DiscoveryConfig,
    discover_groups,
    group_space_with_descriptions_only,
)
from repro.core.features import FeatureSpace, user_feature_matrix
from repro.core.feedback import FeedbackVector
from repro.core.graph import build_group_graph, navigation_summary
from repro.core.group import (
    Group,
    GroupSpace,
    powerset_group_count,
    theoretical_group_count,
)
from repro.core.history import History, Step
from repro.core.memo import Memo
from repro.core.profile import ExplorerProfile
from repro.core.runtime import (
    GroupSpaceRuntime,
    SessionManager,
    SharedSelectionCache,
)
from repro.core.selection import SelectionConfig, SelectionResult, select_k
from repro.core.session import ExplorationSession, SessionConfig
from repro.core.store import (
    load_group_space,
    load_index,
    load_session_state,
    save_group_space,
    save_index,
    save_session_state,
)
from repro.core.similarity import (
    jaccard,
    jaccard_distance,
    mean_pairwise_jaccard,
    overlap_size,
    weighted_jaccard,
)
from repro.core.tasks import (
    Constraint,
    ExplorationTask,
    MembersOf,
    MinCount,
    MinDistinct,
    MinShare,
    MultiTargetTask,
    SingleTargetTask,
    committee_task,
)

__all__ = [
    "Constraint",
    "ContextEntry",
    "ContextView",
    "DiscoveryConfig",
    "ExplorationSession",
    "ExplorationTask",
    "ExplorerProfile",
    "FeatureSpace",
    "FeedbackVector",
    "Group",
    "GroupSpace",
    "GroupSpaceRuntime",
    "History",
    "Memo",
    "MembersOf",
    "MinCount",
    "MinDistinct",
    "MinShare",
    "MultiTargetTask",
    "SelectionConfig",
    "SelectionResult",
    "SessionConfig",
    "SessionManager",
    "SharedSelectionCache",
    "SingleTargetTask",
    "Step",
    "build_group_graph",
    "committee_task",
    "discover_groups",
    "group_space_with_descriptions_only",
    "jaccard",
    "jaccard_distance",
    "load_group_space",
    "load_index",
    "load_session_state",
    "mean_pairwise_jaccard",
    "navigation_summary",
    "overlap_size",
    "powerset_group_count",
    "save_group_space",
    "save_index",
    "save_session_state",
    "select_k",
    "theoretical_group_count",
    "user_feature_matrix",
    "weighted_jaccard",
]
