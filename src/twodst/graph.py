"""Directed multigraph with explicit edge identities, plus unit-capacity max
flow and one graph search.

Edge-disjointness is per edge instance, so edges are identified by dense
integer ids (0..m-1) rather than by vertex pairs; parallel and antiparallel
edges are legal and distinct. Graphs are immutable after construction and
safe to share across threads. `max_flow_unit` is the one flow routine: it
answers the integral question the solver's guarantee rests on, how many
edge-disjoint paths join two vertices, and certifies it: a cut or a flow.
`search` is the one reachability routine: it costs the edges at the
vertices it reaches, so the builders run it only where they need a set.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Optional, Sequence

Vertex = Hashable


class DirectedMultigraph:
    """Immutable directed multigraph with finite non-negative edge costs.

    Vertices are arbitrary hashable, mutually comparable ids (all str or all
    int in practice). Edge ids are assigned densely in construction order.
    """

    __slots__ = ("vertices", "tails", "heads", "costs", "_out", "_in")

    def __init__(self, vertices: Iterable[Vertex], edges: Sequence[tuple[Vertex, Vertex, float]]):
        vset = set(vertices)
        tails, heads, costs = [], [], []
        for tail, head, cost in edges:
            if tail not in vset or head not in vset:
                raise ValueError(f"edge ({tail!r}, {head!r}) references unknown vertex")
            if tail == head:
                raise ValueError(f"self-loop at {tail!r} is not allowed")
            if not 0 <= cost < math.inf:
                raise ValueError(
                    f"cost {cost} on edge ({tail!r}, {head!r}) is not finite and non-negative"
                )
            tails.append(tail)
            heads.append(head)
            costs.append(float(cost))
        self.vertices: frozenset = frozenset(vset)
        self.tails: tuple = tuple(tails)
        self.heads: tuple = tuple(heads)
        self.costs: tuple[float, ...] = tuple(costs)
        out: dict = {v: [] for v in vset}
        inc: dict = {v: [] for v in vset}
        for e in range(len(tails)):
            out[tails[e]].append(e)
            inc[heads[e]].append(e)
        self._out = {v: tuple(es) for v, es in out.items()}
        self._in = {v: tuple(es) for v, es in inc.items()}

    @property
    def num_edges(self) -> int:
        return len(self.tails)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    def out_edges(self, v: Vertex) -> tuple:
        return self._out[v]

    def in_edges(self, v: Vertex) -> tuple:
        return self._in[v]

    def edge(self, e: int) -> tuple[Vertex, Vertex, float]:
        return self.tails[e], self.heads[e], self.costs[e]

    def total_cost(self, edge_ids: Iterable[int]) -> float:
        return sum(self.costs[e] for e in edge_ids)

    def reversed(self) -> "DirectedMultigraph":
        """Graph with every edge flipped; edge ids are preserved."""
        return DirectedMultigraph(
            self.vertices,
            [(self.heads[e], self.tails[e], self.costs[e]) for e in range(self.num_edges)],
        )

    def __repr__(self) -> str:
        return f"DirectedMultigraph(n={self.num_vertices}, m={self.num_edges})"


@dataclass(frozen=True)
class DstInstance:
    """Rooted connectivity problem statement: graph, root, terminal set."""

    graph: DirectedMultigraph
    root: Vertex
    terminals: frozenset

    def __post_init__(self):
        object.__setattr__(self, "terminals", frozenset(self.terminals))
        if self.root not in self.graph.vertices:
            raise ValueError(f"root {self.root!r} not in graph")
        if not self.terminals:
            raise ValueError("at least one terminal is required")
        if self.root in self.terminals:
            raise ValueError("root must not be a terminal")
        missing = self.terminals - self.graph.vertices
        if missing:
            raise ValueError(f"terminals not in graph: {sorted(missing)}")

    @property
    def num_terminals(self) -> int:
        return len(self.terminals)

    def sorted_terminals(self) -> list:
        return sorted(self.terminals)


@dataclass(frozen=True)
class EdgePath:
    """A walk given as a sequence of edge ids with matching endpoints."""

    graph: DirectedMultigraph = field(compare=False, repr=False)
    edges: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))
        if not self.edges:
            raise ValueError("a path needs at least one edge")
        for a, b in zip(self.edges, self.edges[1:]):
            if self.graph.heads[a] != self.graph.tails[b]:
                raise ValueError(f"edges {a} and {b} do not share an endpoint")

    @property
    def source(self) -> Vertex:
        return self.graph.tails[self.edges[0]]

    @property
    def target(self) -> Vertex:
        return self.graph.heads[self.edges[-1]]


def _check_vertex(graph: DirectedMultigraph, v: Vertex, role: str) -> None:
    if v not in graph.vertices:
        raise ValueError(f"{role} {v!r} not in graph")


def max_flow_unit(
    graph: DirectedMultigraph,
    source: Vertex,
    sink: Vertex,
    restrict_to: Optional[Iterable[int]] = None,
    limit: Optional[int] = None,
) -> tuple[int, frozenset]:
    """Maximum number of edge-disjoint source-sink paths, with a certificate.

    Every edge has unit capacity. `restrict_to` limits the search to a
    subset of edge ids (useful for checking candidate solutions without
    re-indexing edges). Augmenting paths are found by BFS with edges scanned
    in ascending id order, so the result is deterministic. A value below
    `limit` is exact and comes with the minimum cut nearest the source.
    With `limit` the search stops once the flow reaches it, for callers
    that only ask "at least `limit`?"; the certificate is then the edges
    the flow uses, which carry exactly `limit` edge-disjoint paths.
    """
    _check_vertex(graph, source, "source")
    _check_vertex(graph, sink, "sink")
    if source == sink:
        raise ValueError("source and sink must differ")
    allowed = set(range(graph.num_edges)) if restrict_to is None else set(restrict_to)

    used: set = set()  # the edges carrying a unit of flow
    value = 0
    while True:
        if value == limit:
            return value, frozenset(used)
        parent: dict = {source: None}  # vertex -> (edge id, previous vertex)
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for e in graph.out_edges(u):
                if e in allowed and e not in used and graph.heads[e] not in parent:
                    parent[graph.heads[e]] = (e, u)
                    queue.append(graph.heads[e])
            for e in graph.in_edges(u):
                if e in used and graph.tails[e] not in parent:
                    parent[graph.tails[e]] = (e, u)
                    queue.append(graph.tails[e])
        if sink not in parent:
            reachable = frozenset(parent)
            cut = frozenset(
                e
                for e in allowed
                if graph.tails[e] in reachable and graph.heads[e] not in reachable
            )
            return value, cut
        v = sink
        while v != source:
            e, v = parent[v]
            used ^= {e}  # a forward step adds e, a backward step frees it
        value += 1


def search(graph: DirectedMultigraph, start: Vertex, backward: bool = False,
           inside: Optional[frozenset] = None) -> tuple[frozenset, list]:
    """The vertices reached from `start` along directed edges (against them
    when `backward`) without leaving the vertex set `inside` (no bound when
    None), `start` included, and the ids of the edges scanned into `inside`
    from a reached vertex, each once, in no set order. So the work is the
    edges at the reached vertices, however large the graph."""
    _check_vertex(graph, start, "start")
    edges_at, ends = (graph._in, graph.tails) if backward else (graph._out, graph.heads)
    inside = graph.vertices if inside is None else inside
    seen = {start}
    stack = [start]
    scanned = []
    while stack:
        for e in edges_at[stack.pop()]:
            w = ends[e]
            if w in inside:
                scanned.append(e)
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return frozenset(seen), scanned
