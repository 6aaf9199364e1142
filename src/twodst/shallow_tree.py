"""Depth-bounded prefix tree over vertex sequences.

The tree enumerates all sequences of at most D+1 distinct usable vertices
(those on some root-to-terminal walk) that start at the root, listed twice
as two isomorphic subtrees hanging from a shared root node. Adjacency in
the input graph is not required: the tree indexes candidate embeddings,
and the LP decides which tree edges map to which graph paths. Each node
carries a label (a graph vertex); the set of nodes labeled t is terminal
t's group.

Node ids are breadth-first: the root is 0, children are generated in
ascending label order with the first copy before the second. Every
non-root node's single incoming tree edge gets id (node id - 1), so tree
edge ids are topologically sorted and the edge-to-child map is trivial.
The edges of each depth form one contiguous id range (`edge_levels`),
which lets top-down passes run one numpy step per level.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import InfeasibleInstanceError, ModelInconsistencyError, SizeLimitError
from .graph import DstInstance, reachable_set

DEFAULT_MAX_NODES = 200_000


class ShallowTree:
    """Immutable tree; see module docstring for the id conventions."""

    __slots__ = (
        "depth", "labels", "depths", "parents", "copies", "children", "groups",
        "edge_parents", "edge_levels",
    )

    def __init__(self, depth, labels, depths, parents, copies, children, groups):
        self.depth = depth
        self.labels = tuple(labels)
        self.depths = tuple(depths)
        self.parents = tuple(parents)
        self.copies = tuple(copies)
        self.children = tuple(tuple(c) for c in children)
        self.groups = {t: frozenset(g) for t, g in groups.items()}
        # parent tree edge of every tree edge, -1 at the root
        self.edge_parents = np.asarray(self.parents[1:], dtype=np.intp) - 1
        # (first, end) tree-edge ids of each edge depth 1..D
        starts = np.searchsorted(self.depths[1:], np.arange(1, depth + 2)).tolist()
        self.edge_levels = tuple(zip(starts[:-1], starts[1:]))

    @property
    def num_nodes(self) -> int:
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        return len(self.labels) - 1

    # tree edge id conventions: edge e connects parents[e+1] -> e+1
    def edge_child(self, tree_edge: int) -> int:
        return tree_edge + 1

    def edge_parent_node(self, tree_edge: int) -> int:
        return self.parents[tree_edge + 1]

    def parent_edge(self, tree_edge: int) -> Optional[int]:
        """The tree edge ending at this edge's parent node, if any."""
        p = self.edge_parent_node(tree_edge)
        return None if p == 0 else p - 1

    def edge_depth(self, tree_edge: int) -> int:
        return self.depths[tree_edge + 1]

    def root_edges(self) -> list[int]:
        return [c - 1 for c in self.children[0]]

    def edge_endpoints_labels(self, tree_edge: int):
        """Graph vertices labeling the edge's parent and child nodes."""
        child = tree_edge + 1
        return self.labels[self.parents[child]], self.labels[child]

    def group_in_edges(self, terminal) -> list[int]:
        """Tree edges whose child node is labeled with the terminal."""
        return sorted(node - 1 for node in self.groups[terminal])

    def path_to_root(self, node: int) -> list[int]:
        """Node ids from the given node up to and including the root."""
        walk = [node]
        while node != 0:
            node = self.parents[node]
            walk.append(node)
        return walk

    def __repr__(self) -> str:
        return f"ShallowTree(depth={self.depth}, nodes={self.num_nodes})"


def projected_node_count(num_usable: int, depth: int) -> int:
    """Closed-form size of the tree over n' usable vertices (root included):
    1 + 2 * sum_i P(n'-1, i) for i = 1..D."""
    pool = num_usable - 1
    return 1 + 2 * sum(math.perm(pool, i) for i in range(1, depth + 1))


def usable_vertices(instance: DstInstance) -> frozenset:
    """Vertices lying on some root-to-terminal directed walk."""
    g = instance.graph
    forward = reachable_set(g, instance.root, "forward")
    backward = set()
    for t in instance.terminals:
        backward |= reachable_set(g, t, "backward")
    return frozenset(forward & backward)


def build_shallow_tree(
    instance: DstInstance, depth: int, max_nodes: int = DEFAULT_MAX_NODES
) -> ShallowTree:
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    keep = usable_vertices(instance)
    if instance.root not in keep:
        raise InfeasibleInstanceError("root cannot reach any terminal")
    lost = instance.terminals - keep
    if lost:
        raise InfeasibleInstanceError(
            f"terminals unreachable from root: {sorted(lost, key=str)}"
        )

    projected = projected_node_count(len(keep), depth)
    if projected > max_nodes:
        raise SizeLimitError("tree would be too large", projected, max_nodes)

    pool = sorted(keep - {instance.root})
    labels = [instance.root]
    depths = [0]
    parents = [-1]
    copies = [0]
    children: list[list[int]] = [[]]
    # ancestor label sets let children be computed without rewalking paths;
    # index-aligned with node ids
    banned: list[frozenset] = [frozenset([instance.root])]

    queue = [(0, 1), (0, 2)]  # (parent node, copy index): copy 1 first
    head = 0
    while head < len(queue):
        parent, copy = queue[head]
        head += 1
        if depths[parent] == depth:
            continue
        for v in pool:
            if v in banned[parent]:
                continue
            node = len(labels)
            labels.append(v)
            depths.append(depths[parent] + 1)
            parents.append(parent)
            copies.append(copy)
            children.append([])
            banned.append(banned[parent] | {v})
            children[parent].append(node)
            queue.append((node, copy))

    groups: dict = {t: set() for t in instance.terminals}
    for node, label in enumerate(labels):
        if label in groups:
            groups[label].add(node)
    if len(labels) != projected:
        raise ModelInconsistencyError(
            f"tree has {len(labels)} nodes but the closed form projects {projected}"
        )

    return ShallowTree(depth, labels, depths, parents, copies, children, groups)

