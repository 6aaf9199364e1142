"""Reductions between problem variants.

* pairwise 2-edge-connectivity on a terminal set via two rooted solves
  (out-rooted plus in-rooted on the reversed graph), union of results;
* vertex connectivity via vertex splitting (each v becomes (v, "in") ->
  (v, "out") with a zero-cost internal edge), which turns
  internally-vertex-disjoint paths into edge-disjoint ones; the split graph
  keeps the original edge ids below m and numbers its internal edges from m;
* pairwise 2-vertex-connectivity via a two-vertex root gadget plus a
  cheapest pair of internally-vertex-disjoint paths each way between the
  gadget vertices, found by two successive shortest paths on the split graph.

A `solver` argument is any callable DstInstance -> SolutionSubgraph that
raises InfeasibleInstanceError when no feasible subgraph exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Iterable, Optional

from .errors import InfeasibleInstanceError, ModelInconsistencyError
from .graph import DirectedMultigraph, DstInstance, max_flow_unit
from .solution import SolutionSubgraph

Solver = Callable[[DstInstance], SolutionSubgraph]


@dataclass(frozen=True)
class DssInstance:
    """Pairwise variant: every ordered terminal pair needs two disjoint paths."""

    graph: DirectedMultigraph
    terminals: frozenset

    def __post_init__(self):
        object.__setattr__(self, "terminals", frozenset(self.terminals))
        if len(self.terminals) < 2:
            raise ValueError("pairwise connectivity needs at least 2 terminals")
        missing = self.terminals - self.graph.vertices
        if missing:
            raise ValueError(f"terminals not in graph: {sorted(missing, key=str)}")

    def sorted_terminals(self) -> list:
        return sorted(self.terminals)


def vertex_split(graph: DirectedMultigraph) -> DirectedMultigraph:
    """Split every vertex v into (v, "in") -> (v, "out") with a free edge.

    With m = graph.num_edges, edge e < m keeps its id and cost and runs
    (tail, "out") -> (head, "in"); the internal edge (v, "in") -> (v, "out")
    of the i-th vertex in `str` order has id m + i and cost 0. So k
    edge-disjoint (s, "out") -> (t, "in") paths in the split graph
    correspond to k internally-vertex-disjoint s -> t paths.
    """
    vertices = [(v, side) for v in graph.vertices for side in ("in", "out")]
    edges = [
        ((graph.tails[e], "out"), (graph.heads[e], "in"), graph.costs[e])
        for e in range(graph.num_edges)
    ]
    edges += [((v, "in"), (v, "out"), 0.0) for v in sorted(graph.vertices, key=str)]
    return DirectedMultigraph(vertices, edges)


def _short_pair(graph: DirectedMultigraph, pairs: Iterable, restrict_to=None) -> Optional[tuple]:
    """The first (s, t, value) of `pairs` with fewer than two edge-disjoint
    s -> t paths in `graph` (within `restrict_to`), or None."""
    for s, t in pairs:
        value, _ = max_flow_unit(graph, s, t, restrict_to=restrict_to, limit=2)
        if value < 2:
            return s, t, value
    return None


def rooted_pair(instance: DssInstance) -> tuple[DstInstance, DstInstance]:
    """The out-rooted instance on G and the in-rooted one on the reversed
    graph, both rooted at the smallest terminal."""
    terminals = instance.sorted_terminals()
    root, others = terminals[0], frozenset(terminals[1:])
    return (DstInstance(instance.graph, root, others),
            DstInstance(instance.graph.reversed(), root, others))


def dss_via_dst(instance: DssInstance, solver: Solver) -> SolutionSubgraph:
    """Pairwise 2-edge-connectivity from two rooted solves.

    Solves the two instances of `rooted_pair` and returns the union. Edge
    ids survive reversal unchanged, so the union is a plain set union.
    """
    g = instance.graph
    terminals = instance.sorted_terminals()
    out_sol, in_sol = (solver(rooted) for rooted in rooted_pair(instance))

    union = out_sol.edges | in_sol.edges
    short = _short_pair(g, permutations(terminals, 2), union)
    if short:
        s, t, value = short
        raise ModelInconsistencyError(
            f"union solution carries only {value} disjoint paths from {s!r} to {t!r}"
        )
    return SolutionSubgraph.from_edges(
        g,
        union,
        meta={
            "out_rooted_cost": out_sol.cost,
            "in_rooted_cost": in_sol.cost,
            "root": terminals[0],
        },
    )


def solve_vertex_2dst(instance: DstInstance, solver: Solver) -> SolutionSubgraph:
    """Vertex-connectivity via the split graph; result in original edges."""
    g = instance.graph
    m = g.num_edges
    split = vertex_split(g)
    root = (instance.root, "out")
    pairs = [(root, (t, "in")) for t in sorted(instance.terminals)]

    short = _short_pair(split, pairs)
    if short:
        _, (t, _), value = short
        raise InfeasibleInstanceError(
            f"no two internally-vertex-disjoint paths from "
            f"{instance.root!r} to {t!r} (split flow {value})"
        )

    split_sol = solver(DstInstance(split, root, frozenset(t for _, t in pairs)))
    short = _short_pair(split, pairs, split_sol.edges | set(range(m, split.num_edges)))
    if short:
        _, (t, _), value = short
        raise ModelInconsistencyError(
            f"split solution carries only {value} disjoint paths to {t!r}"
        )
    original = frozenset(e for e in split_sol.edges if e < m)
    return SolutionSubgraph.from_edges(g, original, meta={"split_cost": split_sol.cost})


def _fresh_vertex(vertices):
    vs = set(vertices)
    if vs and all(isinstance(v, int) for v in vs):
        return max(vs) + 1
    name = "__root__"
    while name in vs:
        name += "_"
    return name


def _disjoint_pair_cost(graph: DirectedMultigraph, source, target):
    """Cheapest union of two internally-vertex-disjoint source -> target
    paths: (cost, frozenset of edge ids), or (None, None) if no pair exists.

    Two successive shortest paths (Suurballe 1974; Suurballe & Tarjan 1984)
    from (source, "out") to (target, "in") in the residual split graph, where
    an unused edge runs forward at +cost and a used one backward at -cost.
    Each round is Bellman-Ford, relaxing only on strict improvement, and
    flips the edges along the path it finds. The second round measures
    costs against the first round's distances (reduced costs, clamped at 0),
    which moves no shortest path but keeps rounding from turning a zero-cost
    residual cycle (a used edge and its parallel copy) into a predecessor loop.
    """
    split = vertex_split(graph)
    start, goal = (source, "out"), (target, "in")
    arcs = [split.edge(e) for e in range(split.num_edges)]
    used = [False] * len(arcs)
    potential = dict.fromkeys(split.vertices, 0.0)
    for _ in range(2):
        dist, via = {start: 0.0}, {}
        changed = True
        while changed:
            changed = False
            for e, (tail, head, cost) in enumerate(arcs):
                if used[e]:
                    tail, head, cost = head, tail, -cost
                if tail in dist:
                    d = dist[tail] + max(0.0, cost + potential[tail] - potential[head])
                    if d < dist.get(head, math.inf):
                        dist[head], via[head] = d, e
                        changed = True
        if goal not in dist:
            return None, None
        v = goal
        while v != start:
            e = via[v]
            used[e] = not used[e]
            v = split.tails[e] if used[e] else split.heads[e]
        potential = dist
    edges = frozenset(e for e in range(graph.num_edges) if used[e])
    return graph.total_cost(edges), edges


def dss_vertex_via_dst(instance: DssInstance, solver: Solver) -> SolutionSubgraph:
    """Pairwise 2-vertex-connectivity on the terminal set.

    Picks a two-vertex gadget R from the terminals, buys a cheapest pair
    of internally-vertex-disjoint paths in both directions between them,
    attaches an auxiliary root joined to R by free edges, and solves the
    vertex version of the rooted problem in both orientations on the
    remaining terminals. The union of all parts is returned after a
    pairwise split-flow check.
    """
    g = instance.graph
    terminals = instance.sorted_terminals()
    r1, r2 = terminals[0], terminals[1]
    rest = frozenset(terminals[2:])

    chosen: set[int] = set()
    for s, t in ((r1, r2), (r2, r1)):
        _, edge_set = _disjoint_pair_cost(g, s, t)
        if edge_set is None:
            raise InfeasibleInstanceError(
                f"no two internally-vertex-disjoint paths from {s!r} to {t!r}"
            )
        chosen |= edge_set
    flow_cost = g.total_cost(chosen)

    sub_costs = []
    if rest:
        aux = _fresh_vertex(g.vertices)
        for forward in (True, False):
            base = g if forward else g.reversed()
            aux_edges = [(base.tails[e], base.heads[e], base.costs[e]) for e in range(base.num_edges)]
            aux_edges.append((aux, r1, 0.0))
            aux_edges.append((aux, r2, 0.0))
            aug = DirectedMultigraph(set(base.vertices) | {aux}, aux_edges)
            sol = solve_vertex_2dst(DstInstance(aug, aux, rest), solver)
            # ids 0..m-1 are the original edges; the two aux edges come after
            chosen |= {e for e in sol.edges if e < g.num_edges}
            sub_costs.append(sol.cost)

    split = vertex_split(g)
    pairs = [((s, "out"), (t, "in")) for s, t in permutations(terminals, 2)]
    short = _short_pair(split, pairs, chosen | set(range(g.num_edges, split.num_edges)))
    if short:
        (s, _), (t, _), value = short
        raise ModelInconsistencyError(
            f"union carries only {value} vertex-disjoint paths from {s!r} to {t!r}"
        )
    return SolutionSubgraph.from_edges(
        g,
        chosen,
        meta={"gadget_pair_cost": flow_cost, "sub_costs": sub_costs, "gadget": [r1, r2]},
    )
