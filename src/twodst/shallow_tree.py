"""Depth-bounded prefix tree over the vertex sequences that reach a terminal.

The tree enumerates the sequences of at most D+1 distinct usable vertices
(those on some root-to-terminal walk) that start at the root, listed twice
as two isomorphic subtrees hanging from a shared root node. It keeps a
sequence only if it ends at a terminal, or is shorter than D+1 and misses
a terminal that could then follow it. Adjacency in the input graph is not
required: the tree indexes candidate embeddings, and the LP decides which
tree edges map to which graph paths. Each node carries a label (a graph
vertex); the set of nodes labeled t is terminal t's group.

Dropping the other sequences loses nothing. Over the full prefix tree,
the `lp_model` relaxation gives their nodes (which lie in no group) a gst
conservation row for every terminal, so from the leaves up fh = 0 into
them in every feasible point. Zeroing their xh, f and ft keeps every row
satisfied and x unchanged and leaves a feasible point over this tree,
while a point over this tree padded with zeros is feasible over the full
one: the two relaxations have the same value.

Node ids are breadth-first: the root is 0, a node's child nodes are made
in ascending label order with the first copy before the second, so the
first copy's depth-1 nodes come before the second's, and a node's copy is
that of its depth-1 ancestor. Every non-root node's single incoming tree
edge gets id (node id - 1), so tree edge ids are topologically sorted and
the edge-to-child map is trivial. The edges of
each depth form one contiguous id range (`edge_levels`), which lets
top-down passes run one numpy step per level.

`max_nodes` caps the tree while it grows: the builder raises
`SizeLimitError` once a parent's children take the node count past the
cap, so it holds at most the cap plus one parent's children.
"""

from __future__ import annotations

import numpy as np

from .errors import InfeasibleInstanceError, SizeLimitError
from .graph import DstInstance, reachable_set

DEFAULT_MAX_NODES = 200_000


class ShallowTree:
    """Immutable tree; see module docstring for the id conventions."""

    __slots__ = (
        "depth", "labels", "depths", "parents", "groups", "edge_parents", "edge_levels",
    )

    def __init__(self, depth, labels, depths, parents, groups):
        self.depth = depth
        self.labels = tuple(labels)
        self.depths = tuple(depths)
        self.parents = tuple(parents)
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

    def edge_endpoints_labels(self, tree_edge: int):
        """Graph vertices labeling the edge's parent and child nodes."""
        child = tree_edge + 1
        return self.labels[self.parents[child]], self.labels[child]

    def group_in_edges(self, terminal) -> list[int]:
        """Tree edges whose child node is labeled with the terminal."""
        return sorted(node - 1 for node in self.groups[terminal])

    def __repr__(self) -> str:
        return f"ShallowTree(depth={self.depth}, nodes={self.num_nodes})"


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

    pool = sorted(keep - {instance.root})
    labels = [instance.root]
    depths = [0]
    parents = [-1]
    # ancestor label sets give a node's child labels without rewalking paths;
    # index-aligned with node ids
    banned: list[frozenset] = [frozenset([instance.root])]

    level = [0, 0]  # the root once per copy, copy 1 first
    for k in range(1, depth + 1):
        below = []
        for parent in level:
            # a non-terminal child needs a terminal that can still follow it
            open_end = k < depth and not instance.terminals <= banned[parent]
            for v in pool:
                if v in banned[parent] or not (open_end or v in instance.terminals):
                    continue
                below.append(len(labels))
                labels.append(v)
                depths.append(k)
                parents.append(parent)
                banned.append(banned[parent] | {v})
            if len(labels) > max_nodes:
                raise SizeLimitError("tree would be too large", len(labels), max_nodes)
        level = below

    groups = {t: {node for node, label in enumerate(labels) if label == t}
              for t in instance.terminals}
    return ShallowTree(depth, labels, depths, parents, groups)

