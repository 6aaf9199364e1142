"""Depth-bounded prefix tree over the vertex sequences a graph walk can
take to a terminal.

The tree enumerates sequences of at most D+1 distinct vertices that start
at the root, listed twice as two isomorphic subtrees hanging from a shared
root node. It keeps a sequence only if each of its vertices is reachable
in the graph from the one before, and it ends at a terminal, or is shorter
than D+1 and some terminal reachable from its last vertex is not on it yet
(that terminal can then follow it). So a tree edge from label u to label
v exists only where some graph path takes u to v, and the LP decides
which of those paths realize it. Each node carries a label (a graph
vertex); the set of nodes labeled t is terminal t's group.

Dropping the other sequences loses nothing. Take the full prefix tree,
every sequence of distinct vertices on root-to-terminal walks, and the
`lp_model` relaxation over it. Two kinds of subtree are not built here,
and in every feasible point of that relaxation fh is 0 on all their edges:

* Under a tree edge ê from u to a v that u cannot reach. Let R be the
  vertices reachable from u. v is not in R, so every vertex of R has one
  of ê's graph-flow conservation rows (out(u) = xh_ê, in(u) = 0, and
  in(w) = out(w) for the others). Their sum reads xh_ê = out(R) - in(R),
  the flow on edges leaving R less the flow on edges entering it. No edge
  leaves R, so xh_ê <= 0, and xh_ê = 0. Then fh <= xh gives fh_ê = 0 for
  every terminal t, and t's tree flow below ê is 0 too. A node outside
  t's group passes on exactly what enters it. Below a node of t's group
  no node is labeled t (the labels on a path are distinct), so every node
  there has a gst conservation row of t, and from the leaves up fh_t = 0
  into them.
* Under a node from which every way down to a terminal's node crosses a
  tree edge of the first kind, such as a node with no terminal below it.
  Every node there, but those under edges of the first kind, is labeled
  by no terminal, so it has a gst conservation row of every terminal;
  with fh = 0 on the edges of the first kind, from the leaves up fh = 0
  into them.

Zeroing such a subtree's xh, f and ft keeps every row satisfied and x
unchanged: its pair rows read 0 <= 0, its graph-flow conservation rows
hold zeros only, the cap rows only lose terms, and no gst row changes. What
is left is a feasible point over this tree of the same cost, while a
point over this tree padded with zeros is feasible over the full one: the
two relaxations have the same value.

Node ids are breadth-first: the root is 0, a node's child nodes are made
in ascending label order with the first copy before the second, so the
first copy's depth-1 nodes come before the second's, and a node's copy is
that of its depth-1 ancestor. Every non-root node's single incoming tree
edge gets id (node id - 1), so tree edge ids are topologically sorted and
the edge-to-child map is trivial. The edges of
each depth form one contiguous id range (`edge_levels`), which lets
top-down passes run one numpy step per level. The builder stops at the
first empty level (a path of distinct labels ends by depth n - 1), so
`edge_levels` lists the levels built, which may be fewer than D; `depth`
stays D, which also sets the rounding's parameters.

`max_nodes` caps the tree while it grows: the builder raises
`SizeLimitError` once a parent's children take the node count past the
cap, so it holds at most the cap plus one parent's children.

The builder searches the graph (`graph.search`) forward from the root,
and back from each terminal t within the root's set (R^-(t), `behind`),
which gives the usable vertices and the terminals each reaches. Only a
label with children above depth D (at depth D only terminals follow) needs
the usable vertices it reaches: one search per distinct label (`ahead`),
at D <= 2 the root alone. `lp_model`'s rule (c) reads the sets it keeps.
"""

from __future__ import annotations

import numpy as np

from .errors import InfeasibleInstanceError, SizeLimitError
from .graph import DstInstance, search

DEFAULT_MAX_NODES = 200_000


class ShallowTree:
    """Immutable tree; see module docstring for the id conventions."""

    __slots__ = ("depth", "labels", "depths", "parents", "groups", "behind", "ahead",
                 "edge_parents", "edge_levels")

    def __init__(self, depth, labels, depths, parents, groups, behind, ahead):
        self.depth = depth
        self.labels = tuple(labels)
        self.depths = tuple(depths)
        self.parents = tuple(parents)
        self.groups = {t: frozenset(g) for t, g in groups.items()}
        self.behind = behind  # terminal t -> the usable vertices that reach t
        self.ahead = ahead  # label u -> the usable vertices u reaches, where searched
        # parent tree edge of every tree edge, -1 at the root
        self.edge_parents = np.asarray(self.parents[1:], dtype=np.intp) - 1
        # (first, end) tree-edge ids of each edge depth built, 1 up to the
        # deepest node's (breadth-first, so the last node's)
        starts = np.searchsorted(self.depths[1:], np.arange(1, self.depths[-1] + 2)).tolist()
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


def build_shallow_tree(
    instance: DstInstance, depth: int, max_nodes: int = DEFAULT_MAX_NODES
) -> ShallowTree:
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    g, root, terminals = instance.graph, instance.root, instance.terminals
    reached, _ = search(g, root)
    if not reached & terminals:
        raise InfeasibleInstanceError("root cannot reach any terminal")
    lost = terminals - reached
    if lost:
        raise InfeasibleInstanceError(
            f"terminals unreachable from root: {sorted(lost, key=str)}"
        )
    # R^-(t) of each terminal, within the root's set; together, the usable vertices
    behind = {t: search(g, t, backward=True, inside=reached)[0] for t in terminals}
    keep = frozenset().union(*behind.values())
    ahead = {root: keep}  # R(u), within the usable vertices, of each label searched from
    reaches: dict = {v: set() for v in keep}  # the terminals each usable vertex reaches
    for t, back in behind.items():
        for v in back:
            reaches[v].add(t)

    labels, depths, parents = [root], [0], [-1]
    # ancestor label sets give a node's child labels without rewalking paths;
    # index-aligned with node ids
    banned: list[frozenset] = [frozenset([root])]
    follow: dict = {}  # (u, last level) -> the child labels u may have, ascending

    level = [0, 0]  # the root once per copy, copy 1 first
    for k in range(1, depth + 1):
        if not level:
            break
        last = k == depth
        below = []
        for parent in level:
            u, on_path = labels[parent], banned[parent]
            if (u, last) not in follow:
                if not last and u not in ahead:
                    ahead[u] = search(g, u, inside=keep)[0]
                follow[u, last] = sorted(reaches[u] if last else ahead[u] - {root})
            for v in follow[u, last]:
                # a non-terminal child needs a terminal it reaches that can
                # still follow it
                if v in on_path or (v not in terminals and reaches[v] <= on_path):
                    continue
                below.append(len(labels))
                labels.append(v)
                depths.append(k)
                parents.append(parent)
                banned.append(on_path | {v})
            if len(labels) > max_nodes:
                raise SizeLimitError("tree would be too large", len(labels), max_nodes)
        level = below

    groups: dict = {t: set() for t in terminals}
    for node, label in enumerate(labels):
        if label in groups:
            groups[label].add(node)
    return ShallowTree(depth, labels, depths, parents, groups, behind, ahead)
