"""Independent checks on solver outputs.

Nothing here calls the solver's own verification: connectivity is
re-derived with scipy's max flow (parallel edges summed into one
capacity), and optima come from a compact flow MILP solved by scipy's
`milp`.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import maximum_flow

TOL = 1e-6


def _vertex_index(graph) -> dict:
    return {v: i for i, v in enumerate(sorted(graph.vertices, key=str))}


def _capacities(num_nodes, tails, heads) -> csr_matrix:
    data = np.ones(len(tails), dtype=np.int32)
    caps = csr_matrix((data, (tails, heads)), shape=(num_nodes, num_nodes), dtype=np.int32)
    caps.sum_duplicates()
    return caps


def edge_capacities(graph, edges):
    """Unit capacity per chosen edge, parallel edges summed."""
    index = _vertex_index(graph)
    edges = sorted(edges)
    tails = [index[graph.tails[e]] for e in edges]
    heads = [index[graph.heads[e]] for e in edges]
    return _capacities(len(index), tails, heads), index


def split_capacities(graph, edges):
    """Vertex-split capacities: v becomes 2i -> 2i+1 with capacity 1, and an
    edge u -> w runs from u's out copy 2i+1 to w's in copy 2j."""
    index = _vertex_index(graph)
    edges = sorted(edges)
    tails = [2 * index[graph.tails[e]] + 1 for e in edges]
    heads = [2 * index[graph.heads[e]] for e in edges]
    tails += [2 * i for i in range(len(index))]
    heads += [2 * i + 1 for i in range(len(index))]
    return _capacities(2 * len(index), tails, heads), index


def flow_value(caps, source: int, sink: int) -> int:
    return int(maximum_flow(caps, source, sink).flow_value)


def rooted_feasible(instance, edges) -> bool:
    """Two edge-disjoint root paths to every terminal."""
    caps, index = edge_capacities(instance.graph, edges)
    root = index[instance.root]
    return all(flow_value(caps, root, index[t]) >= 2 for t in instance.terminals)


def pairwise_feasible(instance, edges) -> bool:
    """Two edge-disjoint paths between every ordered terminal pair."""
    caps, index = edge_capacities(instance.graph, edges)
    ts = sorted(instance.terminals, key=str)
    return all(flow_value(caps, index[s], index[t]) >= 2 for s in ts for t in ts if s != t)


def pairwise_vertex_feasible(instance, edges) -> bool:
    """Two internally vertex-disjoint paths between every ordered terminal pair."""
    caps, index = split_capacities(instance.graph, edges)
    ts = sorted(instance.terminals, key=str)
    return all(
        flow_value(caps, 2 * index[s] + 1, 2 * index[t]) >= 2
        for s in ts
        for t in ts
        if s != t
    )


def milp_opt(instance) -> float:
    """Exact optimum: binary x_e, and per terminal a flow of value 2 from the
    root with g_(t,e) <= x_e. For integral x the max flow is integral, so
    continuous g suffices."""
    g = instance.graph
    m = g.num_edges
    terminals = sorted(instance.terminals, key=str)
    vertices = sorted(g.vertices, key=str)
    num_vars = m * (1 + len(terminals))
    rows, cols, vals, lo, hi = [], [], [], [], []
    r = 0
    for k, t in enumerate(terminals):
        base = m * (k + 1)
        for e in range(m):
            rows += [r, r]
            cols += [base + e, e]
            vals += [1.0, -1.0]
            lo.append(-np.inf)
            hi.append(0.0)
            r += 1
        for v in vertices:
            for e in g.out_edges(v):
                rows.append(r)
                cols.append(base + e)
                vals.append(1.0)
            for e in g.in_edges(v):
                rows.append(r)
                cols.append(base + e)
                vals.append(-1.0)
            rhs = 2.0 if v == instance.root else (-2.0 if v == t else 0.0)
            lo.append(rhs)
            hi.append(rhs)
            r += 1
    a = coo_matrix((vals, (rows, cols)), shape=(r, num_vars)).tocsr()
    cost = np.zeros(num_vars)
    cost[:m] = g.costs
    integrality = np.zeros(num_vars)
    integrality[:m] = 1
    res = milp(cost, constraints=LinearConstraint(a, lo, hi),
               integrality=integrality, bounds=Bounds(0.0, 1.0))
    if res.status != 0:
        raise RuntimeError(f"oracle MILP failed: {res.message}")
    return float(res.fun)


def digest(edges, cost: float) -> str:
    """Determinism key of one solution: its sorted edge ids and exact cost."""
    doc = json.dumps([sorted(int(e) for e in edges), repr(float(cost))])
    return hashlib.sha256(doc.encode()).hexdigest()[:16]
