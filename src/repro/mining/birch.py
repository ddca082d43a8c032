"""BIRCH clustering (Zhang, Ramakrishnan & Livny, SIGMOD 1996).

The second stream-capable group-discovery backend VEXUS names (§II-A,
[18]).  Users are featurised into vectors (demographics one-hot + activity
statistics); BIRCH absorbs them one at a time into a CF-tree of bounded
size, then a global agglomerative phase clusters the leaf subclusters.
Each final cluster becomes a user group (described post-hoc by its dominant
demographics, see :mod:`repro.core.discovery`).

Implemented from the paper: clustering features ``CF = (N, LS, SS)`` with
the additivity theorem, threshold-driven absorption, node splits by
farthest-pair seeding, and the optional global clustering phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


@dataclass
class ClusteringFeature:
    """``(N, LS, SS)`` summary of a subcluster; additive under merge."""

    n: int
    linear_sum: np.ndarray
    squared_sum: float

    @classmethod
    def of_point(cls, point: np.ndarray) -> "ClusteringFeature":
        return cls(1, point.astype(np.float64).copy(), float(point @ point))

    @classmethod
    def empty(cls, dimensions: int) -> "ClusteringFeature":
        return cls(0, np.zeros(dimensions), 0.0)

    @property
    def centroid(self) -> np.ndarray:
        if self.n == 0:
            return self.linear_sum
        return self.linear_sum / self.n

    @property
    def radius(self) -> float:
        """RMS distance of member points to the centroid (paper eq. for R)."""
        if self.n == 0:
            return 0.0
        centroid = self.centroid
        variance = self.squared_sum / self.n - float(centroid @ centroid)
        return float(np.sqrt(max(variance, 0.0)))

    def merged_with(self, other: "ClusteringFeature") -> "ClusteringFeature":
        """CF additivity: the summary of the union of both point sets."""
        return ClusteringFeature(
            self.n + other.n,
            self.linear_sum + other.linear_sum,
            self.squared_sum + other.squared_sum,
        )

    def add(self, other: "ClusteringFeature") -> None:
        self.n += other.n
        self.linear_sum += other.linear_sum
        self.squared_sum += other.squared_sum

    def distance_to(self, other: "ClusteringFeature") -> float:
        """Euclidean centroid distance (paper's D0 metric)."""
        difference = self.centroid - other.centroid
        return float(np.sqrt(difference @ difference))


@dataclass
class _Entry:
    """One CF entry in a node: a subcluster summary, maybe with a child."""

    feature: ClusteringFeature
    child: Optional["_Node"] = None


@dataclass
class _Node:
    is_leaf: bool
    entries: list[_Entry] = field(default_factory=list)


@dataclass
class _Split:
    left: _Entry
    right: _Entry


class Birch:
    """CF-tree clustering with an agglomerative global phase.

    Parameters follow the paper: ``threshold`` caps subcluster radius,
    ``branching_factor`` caps entries per node, ``n_clusters`` (optional)
    turns on the global phase that merges leaf subclusters into exactly
    that many clusters.
    """

    def __init__(
        self,
        threshold: float = 0.5,
        branching_factor: int = 50,
        n_clusters: Optional[int] = None,
    ) -> None:
        if threshold < 0:
            raise ValueError("threshold must be >= 0")
        if branching_factor < 2:
            raise ValueError("branching_factor must be >= 2")
        self.threshold = threshold
        self.branching_factor = branching_factor
        self.n_clusters = n_clusters
        self._root: Optional[_Node] = None
        self._dimensions: Optional[int] = None
        self._subcluster_labels: Optional[np.ndarray] = None

    # ------------------------------------------------------------------

    def partial_fit(self, point: np.ndarray) -> None:
        """Absorb one point into the CF-tree."""
        point = np.asarray(point, dtype=np.float64)
        if self._dimensions is None:
            self._dimensions = len(point)
            self._root = _Node(is_leaf=True)
        elif len(point) != self._dimensions:
            raise ValueError(
                f"point has {len(point)} dimensions, tree has {self._dimensions}"
            )
        self._subcluster_labels = None  # global phase is now stale
        assert self._root is not None
        split = self._insert(self._root, ClusteringFeature.of_point(point))
        if split is not None:
            new_root = _Node(is_leaf=False, entries=[split.left, split.right])
            self._root = new_root

    def fit(self, points: np.ndarray) -> "Birch":
        for point in np.asarray(points, dtype=np.float64):
            self.partial_fit(point)
        return self

    # ------------------------------------------------------------------

    def _insert(self, node: _Node, feature: ClusteringFeature) -> Optional[_Split]:
        if node.is_leaf:
            return self._insert_into_leaf(node, feature)
        closest = min(node.entries, key=lambda entry: entry.feature.distance_to(feature))
        assert closest.child is not None
        child_split = self._insert(closest.child, feature)
        if child_split is None:
            closest.feature.add(feature)
            return None
        node.entries.remove(closest)
        node.entries.extend([child_split.left, child_split.right])
        if len(node.entries) <= self.branching_factor:
            return None
        return self._split(node)

    def _insert_into_leaf(
        self, node: _Node, feature: ClusteringFeature
    ) -> Optional[_Split]:
        if node.entries:
            closest = min(
                node.entries, key=lambda entry: entry.feature.distance_to(feature)
            )
            merged = closest.feature.merged_with(feature)
            if merged.radius <= self.threshold:
                closest.feature = merged
                return None
        node.entries.append(_Entry(feature))
        if len(node.entries) <= self.branching_factor:
            return None
        return self._split(node)

    def _split(self, node: _Node) -> _Split:
        """Farthest-pair seeding, then assign entries to the nearer seed."""
        features = node.entries
        n = len(features)
        best_pair = (0, 1)
        best_distance = -1.0
        for i in range(n):
            for j in range(i + 1, n):
                distance = features[i].feature.distance_to(features[j].feature)
                if distance > best_distance:
                    best_distance = distance
                    best_pair = (i, j)
        left_node = _Node(is_leaf=node.is_leaf)
        right_node = _Node(is_leaf=node.is_leaf)
        seed_left = features[best_pair[0]].feature
        seed_right = features[best_pair[1]].feature
        for entry in features:
            if entry.feature.distance_to(seed_left) <= entry.feature.distance_to(
                seed_right
            ):
                left_node.entries.append(entry)
            else:
                right_node.entries.append(entry)
        return _Split(
            _Entry(self._summarise(left_node), left_node),
            _Entry(self._summarise(right_node), right_node),
        )

    def _summarise(self, node: _Node) -> ClusteringFeature:
        assert self._dimensions is not None
        total = ClusteringFeature.empty(self._dimensions)
        for entry in node.entries:
            total.add(entry.feature)
        return total

    # ------------------------------------------------------------------

    def subclusters(self) -> list[ClusteringFeature]:
        """All leaf subcluster summaries, left-to-right."""
        found: list[ClusteringFeature] = []

        def walk(node: Optional[_Node]) -> None:
            if node is None:
                return
            if node.is_leaf:
                found.extend(entry.feature for entry in node.entries)
                return
            for entry in node.entries:
                walk(entry.child)

        walk(self._root)
        return found

    def subcluster_centroids(self) -> np.ndarray:
        subclusters = self.subclusters()
        if not subclusters:
            return np.empty((0, self._dimensions or 0))
        return np.vstack([feature.centroid for feature in subclusters])

    def _global_labels(self) -> np.ndarray:
        """Label each leaf subcluster via agglomerative global clustering."""
        if self._subcluster_labels is not None:
            return self._subcluster_labels
        centroids = self.subcluster_centroids()
        if len(centroids) == 0:
            self._subcluster_labels = np.empty(0, dtype=np.int64)
        elif self.n_clusters is None or len(centroids) <= self.n_clusters:
            self._subcluster_labels = np.arange(len(centroids), dtype=np.int64)
        else:
            # Imported here: the serving process never clusters, and
            # scipy.cluster is a heavy import.
            from scipy.cluster.hierarchy import fcluster, linkage

            tree = linkage(centroids, method="ward")
            labels = fcluster(tree, t=self.n_clusters, criterion="maxclust")
            self._subcluster_labels = labels.astype(np.int64) - 1
        return self._subcluster_labels

    def predict(self, points: np.ndarray) -> np.ndarray:
        """Cluster label per point: nearest subcluster's global label."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        centroids = self.subcluster_centroids()
        if len(centroids) == 0:
            raise RuntimeError("predict() before fit(): the tree is empty")
        labels = self._global_labels()
        distances = (
            (points**2).sum(axis=1, keepdims=True)
            - 2 * points @ centroids.T
            + (centroids**2).sum(axis=1)
        )
        return labels[np.argmin(distances, axis=1)]
