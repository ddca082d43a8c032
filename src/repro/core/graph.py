"""The group graph G.

§II: *"Groups form a disconnected undirected graph G where an edge exists
between two groups if they are not disjoint.  Group exploration is a
navigation in that graph."*

Edges carry the Jaccard similarity of the member sets; construction uses
one sparse membership product, the same trick as the inverted index, so it
stays feasible for thousands of groups.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
from scipy import sparse

from repro.core.group import GroupSpace

if TYPE_CHECKING:
    import networkx as nx


def build_group_graph(space: GroupSpace) -> nx.Graph:
    """Exact overlap graph over the group space.

    Nodes are gids (with ``size`` and ``label`` attributes); an edge with
    weight = Jaccard similarity joins every non-disjoint pair.
    """
    import networkx as nx  # only the offline experiments build G

    graph = nx.Graph()
    memberships = space.memberships()
    sizes = np.array([len(members) for members in memberships], dtype=np.float64)
    for group in space:
        graph.add_node(group.gid, size=group.size, label=group.label)
    if len(space) < 2:
        return graph

    n_users = max(space.dataset.n_users, 1)
    rows = np.concatenate(
        [np.full(len(members), gid) for gid, members in enumerate(memberships)]
    )
    columns = np.concatenate(memberships) if memberships else np.empty(0, dtype=np.int64)
    matrix = sparse.csr_matrix(
        (np.ones(len(rows), dtype=np.int64), (rows, columns)),
        shape=(len(space), n_users),
    )
    overlaps = sparse.triu(matrix @ matrix.T, k=1).tocoo()
    for left, right, intersection in zip(overlaps.row, overlaps.col, overlaps.data):
        union = sizes[left] + sizes[right] - intersection
        graph.add_edge(
            int(left), int(right), weight=float(intersection / union) if union else 0.0
        )
    return graph


def navigation_summary(graph: nx.Graph) -> dict[str, float]:
    """Connectivity stats benchmarks report (C6): how walkable is G?"""
    import networkx as nx

    if graph.number_of_nodes() == 0:
        return {
            "nodes": 0,
            "edges": 0,
            "components": 0,
            "largest_component": 0,
            "mean_degree": 0.0,
        }
    components = list(nx.connected_components(graph))
    return {
        "nodes": graph.number_of_nodes(),
        "edges": graph.number_of_edges(),
        "components": len(components),
        "largest_component": max(len(component) for component in components),
        "mean_degree": 2.0 * graph.number_of_edges() / graph.number_of_nodes(),
    }
