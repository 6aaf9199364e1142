"""Slow, independent reference implementations used to check the fast code.

`reachable_set` is a plain breadth-first search over an edge subset, as a
reference for `graph.search` and for what a cut or a lost edge leaves
reachable. `reference_reverse_delete` re-runs every terminal's flow for
every edge it tries, as a reference for `verify.reverse_delete`. The other
graph oracles are exhaustive enumeration: keep
instances tiny (m <= 12 or so) when calling them from tests. `reference_disjoint_pair_cost` tries
every pair of simple paths, as a reference for the two shortest paths of
`reductions._disjoint_pair_cost`. `unpruned_tree` builds the full prefix
tree from `enumerate_label_sequences`, nodes with no terminal below
included, as a reference for the pruned `build_shallow_tree`: the
relaxation over either tree has the same value. `reference_rows` builds
the full relaxation one row at a time, over every column of `full_index`, and
`reference_model` makes it an `LpModel` (`model_from_rows`, the
row-at-a-time constructor the tests use). `reference_live` marks its live
columns one at a time, as a reference for `VarIndex.columns`; and
`reference_live_rows` cuts the rows down to those columns, renumbered as
the live model's, and drops the rows the box 0 <= x <= 1 implies
(`box_implied`), as a reference for the model that `build_lp` emits.
`group_flow_lp` is a linprog max flow, as a reference for the tree-flow
DP `_group_flow_dp`. `reference_highs_rows` stacks the rows into
column-wise arrays (>= rows negated, = rows last) with scipy's sparse
`vstack`, and `reference_colwise_linprog` solves them, as a reference for
the row-wise handoff of `lp_solver._split_rows`; `reference_linprog` is
scipy's own `linprog` on the row-wise arrays, as a reference for
`lp_solver`'s direct HiGHS call. `equalities_last` puts rows in the
model's order, HiGHS's: `reference_rows` and `live_lp_text` apply it.
`reference_elastic_total` solves the model's elastic LP
(`reference_elastic_rows`, one slack per row) with scipy's `linprog`, as
a reference for the total of the infeasibility certificate that HiGHS's
feasibility relaxation gives. `reference_round` is the rounding loop one
iteration and one draw at a time, as a reference for the blocked
`round_solution`: it reads the same random stream (one generator per run,
one row of uniforms per iteration) with none of `rounding`'s sampling
code, so the two must agree byte for byte.

The probes of the paper's lemmas on an LP point live here too, since only
the tests run them: `GoodEdgeAnalysis` and `residual_group_flow` (the
tree flow that survives the loss of a graph edge once the tree edges that
lean on it are cut), `flow_slack_violation` (per-terminal slack never
exceeds total slack) and `survival_estimate` (a Monte Carlo estimate of
how often one rounding iteration survives an edge loss, drawn through
`rounding.IterationSampler`, so trial j is rounding iteration j of the
same seed). They read the raw LP values, not the clamped ones marking
uses.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from itertools import combinations
from typing import NamedTuple, Optional

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csc_matrix, csr_matrix, hstack, vstack

from twodst.graph import DirectedMultigraph, max_flow_unit
from twodst.lp_model import EQ, GE, LE, LpModel, LpRow, VarIndex
from twodst.rounding import IterationSampler, decompose_flow
from twodst.shallow_tree import ShallowTree
from twodst.solution import SolutionSubgraph


def enumerate_simple_paths(graph: DirectedMultigraph, source, target) -> list[tuple[int, ...]]:
    """All simple directed paths source -> target, as edge id tuples."""
    paths: list[tuple[int, ...]] = []

    def extend(v, used_vertices, edge_seq):
        if v == target:
            paths.append(tuple(edge_seq))
            return
        for e in graph.out_edges(v):
            w = graph.heads[e]
            if w in used_vertices:
                continue
            used_vertices.add(w)
            edge_seq.append(e)
            extend(w, used_vertices, edge_seq)
            edge_seq.pop()
            used_vertices.remove(w)

    extend(source, {source}, [])
    return paths


def reachable_set(graph: DirectedMultigraph, source, restrict_to=None) -> frozenset:
    """Vertices reachable from `source` along directed edges, over the
    edge ids `restrict_to` only when given (the vertices that reach it:
    `reachable_set(graph.reversed(), source)`)."""
    allowed = None if restrict_to is None else set(restrict_to)
    seen = {source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for e in graph.out_edges(u):
            if allowed is not None and e not in allowed:
                continue
            w = graph.heads[e]
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return frozenset(seen)


def reference_disjoint_pair_cost(graph: DirectedMultigraph, source, target):
    """Cheapest union of two internally-vertex-disjoint source -> target
    paths, by trying every pair of simple paths: (cost, frozenset of edge
    ids), or (None, None) if no pair exists. A reference for
    `reductions._disjoint_pair_cost`."""
    paths = [
        (p, frozenset(graph.heads[e] for e in p[:-1]))
        for p in enumerate_simple_paths(graph, source, target)
    ]
    best_cost, best_set = None, None
    for (p1, inner1), (p2, inner2) in combinations(paths, 2):
        if inner1 & inner2 or set(p1) & set(p2):
            continue
        union = frozenset(p1) | frozenset(p2)
        cost = graph.total_cost(union)
        if best_cost is None or cost < best_cost:
            best_cost, best_set = cost, union
    return best_cost, best_set


def path_packing_number(graph: DirectedMultigraph, source, target, allowed=None) -> int:
    """Max number of pairwise edge-disjoint source -> target paths, over the
    edge ids `allowed` only when given.

    Any family of edge-disjoint walks shortcuts to the same number of
    edge-disjoint simple paths, so enumerating simple paths is enough.
    Recursive branch and bound over the path list with a seen-state cache.
    """
    if source == target:
        raise ValueError("source and sink must differ")
    paths = [p for p in enumerate_simple_paths(graph, source, target)
             if allowed is None or set(p) <= set(allowed)]
    masks = [sum(1 << e for e in p) for p in paths]
    best = 0
    cache: set[tuple[int, int]] = set()

    def search(i: int, used: int, count: int):
        nonlocal best
        if count > best:
            best = count
        if i == len(masks) or count + (len(masks) - i) <= best:
            return
        key = (i, used)
        if key in cache:
            return
        cache.add(key)
        for j in range(i, len(masks)):
            if masks[j] & used == 0:
                search(j + 1, used | masks[j], count + 1)

    search(0, 0, 0)
    return best


def has_two_disjoint_paths(graph: DirectedMultigraph, source, target, allowed=None) -> bool:
    """True iff two edge-disjoint source -> target paths exist.

    If two disjoint simple paths P1, P2 exist then enumerating P1 over all
    simple paths will find one whose removal still leaves target reachable
    (via P2), so this is exact, not a heuristic.
    """
    if allowed is None:
        allowed = frozenset(range(graph.num_edges))
    else:
        allowed = frozenset(allowed)

    def reaches(avoid: frozenset) -> bool:
        usable = allowed - avoid
        seen = {source}
        stack = [source]
        while stack:
            u = stack.pop()
            if u == target:
                return True
            for e in graph.out_edges(u):
                if e in usable and graph.heads[e] not in seen:
                    seen.add(graph.heads[e])
                    stack.append(graph.heads[e])
        return target in seen

    for p in enumerate_simple_paths(graph, source, target):
        if all(e in allowed for e in p) and reaches(frozenset(p)):
            return True
    return False


def min_cut_size(graph: DirectedMultigraph, source, target, allowed=None) -> int:
    """Smallest number of allowed edges whose removal disconnects target."""
    if allowed is None:
        allowed = sorted(range(graph.num_edges))
    else:
        allowed = sorted(allowed)

    def reaches(removed: frozenset) -> bool:
        seen = {source}
        stack = [source]
        while stack:
            u = stack.pop()
            for e in graph.out_edges(u):
                if e in allowed and e not in removed and graph.heads[e] not in seen:
                    seen.add(graph.heads[e])
                    stack.append(graph.heads[e])
        return target in seen

    if not reaches(frozenset()):
        return 0
    for k in range(1, len(allowed) + 1):
        for combo in combinations(allowed, k):
            if not reaches(frozenset(combo)):
                return k
    return len(allowed)


def is_feasible_subset(graph: DirectedMultigraph, edge_ids, root, terminals) -> bool:
    """Does the edge subset carry two disjoint root -> t paths for every t."""
    edge_ids = frozenset(edge_ids)
    return all(has_two_disjoint_paths(graph, root, t, allowed=edge_ids) for t in terminals)


def brute_force_2dst(graph: DirectedMultigraph, root, terminals):
    """Optimal feasible edge subset by full enumeration. Exponential in m.

    Returns (cost, frozenset of edge ids) or (None, None) if infeasible.
    """
    m = graph.num_edges
    best_cost = None
    best_set = None
    for mask in range(1 << m):
        subset = frozenset(e for e in range(m) if mask >> e & 1)
        cost = graph.total_cost(subset)
        if best_cost is not None and cost >= best_cost:
            continue
        if is_feasible_subset(graph, subset, root, terminals):
            best_cost = cost
            best_set = subset
    return best_cost, best_set


def reference_reverse_delete(instance, edges) -> frozenset:
    """Reverse-delete from scratch: try the edges by descending (cost, id)
    and drop each one whose loss leaves a flow of two to every terminal,
    checked by one `max_flow_unit` per terminal per trial. A reference for
    `verify.reverse_delete`, which re-runs only the terminals whose kept
    paths hold the edge."""
    g = instance.graph
    kept = set(edges)
    for e in sorted(kept, key=lambda e: (-g.costs[e], -e)):
        trial = kept - {e}
        if all(max_flow_unit(g, instance.root, t, restrict_to=trial, limit=2)[0] >= 2
               for t in instance.sorted_terminals()):
            kept = trial
    return frozenset(kept)


def enumerate_label_sequences(vertices, root, depth) -> list[tuple]:
    """All distinct-vertex sequences starting at root, length <= depth+1.

    Includes the length-1 sequence (root,). Reference for tree sizes.
    """
    pool = sorted(set(vertices) - {root})
    out: list[tuple] = []

    def extend(seq):
        out.append(tuple(seq))
        if len(seq) == depth + 1:
            return
        for v in pool:
            if v not in seq:
                seq.append(v)
                extend(seq)
                seq.pop()

    extend([root])
    return out


def unpruned_tree(instance, depth) -> ShallowTree:
    """The full prefix tree over the usable vertices: every sequence of
    `enumerate_label_sequences`, terminal below or not, twice, with
    breadth-first ids (by length, then copy, then labels). Reference for
    the pruned `build_shallow_tree`, whose relaxation must have the same
    value."""
    g = instance.graph
    forward = reachable_set(g, instance.root)
    back = g.reversed()
    behind = {t: reachable_set(back, t) & forward for t in instance.terminals}
    usable = frozenset().union(*behind.values())
    seqs = enumerate_label_sequences(usable, instance.root, depth)[1:]
    order = sorted((len(s), copy, s) for s in seqs for copy in (1, 2))
    node_of = {(copy, (instance.root,)): 0 for copy in (1, 2)}
    labels, depths, parents = [instance.root], [0], [-1]
    for length, copy, seq in order:
        node_of[(copy, seq)] = len(labels)
        labels.append(seq[-1])
        depths.append(length - 1)
        parents.append(node_of[(copy, seq[:-1])])
    groups = {t: {n for n, label in enumerate(labels) if label == t} for t in instance.terminals}
    # a label at depth D may have non-terminal children here, so every
    # usable vertex gets its set
    ahead = {u: reachable_set(g, u) & usable for u in usable}
    return ShallowTree(depth, labels, depths, parents, groups, behind, ahead)


def children(tree) -> list[list[int]]:
    """Each node's child node ids, ascending: the order the builder makes them in."""
    kids: list[list[int]] = [[] for _ in range(tree.num_nodes)]
    for node, parent in enumerate(tree.parents[1:], 1):
        kids[parent].append(node)
    return kids


def full_index(instance, tree) -> VarIndex:
    """A `VarIndex` that lists every column of the instance's full relaxation."""
    return every_column(instance.graph.num_edges, tree.num_edges, instance.terminals)


def every_column(num_edges, num_tree_edges, terminals) -> VarIndex:
    """A `VarIndex` that lists every column of the layout."""
    h, te, m = len(terminals), num_tree_edges, num_edges
    return VarIndex(terminals, np.ones((h, te), dtype=bool), np.arange(te * m), m)


def model_from_rows(var_index, objective, rows, beta=None) -> LpModel:
    """An `LpModel` over the index's columns from `LpRow`s whose cols are
    model columns."""
    rows = list(rows)
    families = tuple(dict.fromkeys(r.family for r in rows))
    code = {f: k for k, f in enumerate(families)}
    lengths = [len(r.cols) for r in rows]
    return LpModel(
        var_index,
        np.asarray(objective, dtype=float),
        np.concatenate(([0], np.cumsum(lengths, dtype=np.int64))),
        np.array([j for r in rows for j in r.cols], dtype=np.int64),
        np.array([c for r in rows for c in r.coefs], dtype=float),
        np.array([-math.inf if r.sense == LE else r.rhs for r in rows], dtype=float),
        np.array([math.inf if r.sense == GE else r.rhs for r in rows], dtype=float),
        np.array([code[r.family] for r in rows], dtype=np.int32),
        families,
        beta,
    )


def reference_model(instance, tree, beta) -> LpModel:
    """The full relaxation, every column live, from `reference_rows`."""
    idx = full_index(instance, tree)
    objective = np.zeros(len(idx.columns))
    objective[: instance.graph.num_edges] = instance.graph.costs
    return model_from_rows(idx, objective, reference_rows(instance, tree, beta), float(beta))


def equalities_last(rows) -> list:
    """The rows with every = row after the others, each part in its own
    order: the row order of `lp_model`, which is HiGHS's."""
    return sorted(rows, key=lambda row: row.sense == EQ)


def reference_rows(instance, tree, beta) -> list[LpRow]:
    """The relaxation's rows, emitted one at a time family by family, then
    put in model order (`equalities_last`), over the full column numbers.

    Reference for the vectorised `build_lp`: same families, same row
    order, same term order within each row; rows with no terms are skipped.
    """
    g = instance.graph
    m = g.num_edges
    te = tree.num_edges
    idx = full_index(instance, tree)
    kids = children(tree)
    rows: list[LpRow] = []

    def emit(cols, coefs, sense, rhs, family):
        if cols:
            rows.append(LpRow(tuple(cols), tuple(coefs), sense, float(rhs), family))

    def conservation(var, head_col, family):
        for ehat in range(te):
            u, v = tree.edge_endpoints_labels(ehat)
            cols = [var(ehat, e) for e in g.out_edges(u)] + [head_col(ehat)]
            emit(cols, [1.0] * (len(cols) - 1) + [-1.0], EQ, 0.0, family)
            cols = [var(ehat, e) for e in g.in_edges(u)]
            emit(cols, [1.0] * len(cols), EQ, 0.0, family)
            for w in sorted(g.vertices, key=str):
                if w == u or w == v:
                    continue
                cols = [var(ehat, e) for e in g.in_edges(w)]
                coefs = [1.0] * len(cols)
                cols += [var(ehat, e) for e in g.out_edges(w)]
                coefs += [-1.0] * (len(cols) - len(coefs))
                emit(cols, coefs, EQ, 0.0, family)

    for t in idx.terminals:
        group = tree.groups[t]
        for ehat in range(te):
            emit([idx.fhat(t, ehat), idx.xhat(ehat)], [1.0, -1.0], LE, 0.0, "gst")
        for node in range(1, tree.num_nodes):
            if node in group:
                continue
            cols = [idx.fhat(t, node - 1)] + [idx.fhat(t, c - 1) for c in kids[node]]
            emit(cols, [1.0] + [-1.0] * (len(cols) - 1), EQ, 0.0, "gst")
        in_edges = tree.group_in_edges(t)
        emit([idx.fhat(t, ehat) for ehat in in_edges], [1.0] * len(in_edges), GE, 2.0, "gst")

    for ehat in range(te):
        for e in range(m):
            emit([idx.f(ehat, e), idx.x(e)], [1.0, -1.0], LE, 0.0, "cong")
    conservation(idx.f, idx.xhat, "cong")
    for e in range(m):
        cols = [idx.f(ehat, e) for ehat in range(te)] + [idx.x(e)]
        emit(cols, [1.0] * te + [-float(beta)], LE, 0.0, "cong")

    for t in idx.terminals:
        for ehat in range(te):
            for e in range(m):
                emit([idx.ft(t, ehat, e), idx.f(ehat, e)], [1.0, -1.0], LE, 0.0, "div")
        conservation(lambda ehat, e: idx.ft(t, ehat, e), lambda ehat: idx.fhat(t, ehat), "div")
        for e in range(m):
            cols = [idx.ft(t, ehat, e) for ehat in range(te)] + [idx.x(e)]
            emit(cols, [1.0] * te + [-1.0], LE, 0.0, "div")
    return equalities_last(rows)


def box_implied(coefs, sense, rhs) -> bool:
    """Does every point of the box 0 <= x <= 1 satisfy the row? Its
    activity over the box ranges from the sum of its negative coefficients
    to the sum of its positive ones."""
    low = sum(c for c in coefs if c < 0)
    high = sum(c for c in coefs if c > 0)
    if sense == LE:
        return high <= rhs
    if sense == GE:
        return low >= rhs
    return low == high == rhs


def reference_live_rows(instance, tree, beta) -> list[LpRow]:
    """`reference_rows` without the dead terms, and without the rows left
    with no term (those must be rows that 0 satisfies) or implied by the
    box. A live column is numbered by its rank among the live columns."""
    live = reference_live(instance, tree)
    rank = np.cumsum(live) - 1
    rows = []
    for row in reference_rows(instance, tree, beta):
        kept = [(int(rank[j]), c) for j, c in zip(row.cols, row.coefs) if live[j]]
        if not kept:
            assert row.rhs == 0.0 and row.sense in (LE, EQ), row
            continue
        cols, coefs = zip(*kept)
        if not box_implied(coefs, row.sense, row.rhs):
            rows.append(LpRow(cols, coefs, row.sense, row.rhs, row.family))
    return rows


def live_lp_text(text: str, dead: set) -> str:
    """An `export_lp` text without the dead variables, in the model's row
    order: the dead terms and bounds are dropped, and so are the rows left
    with no term and the rows the box 0 <= x <= 1 implies (`box_implied`);
    the = rows move after the others (`equalities_last`), the row labels
    of each family are renumbered in the new order and both header counts
    updated. The objective stays (it holds x columns only, which are never
    dead)."""
    lines = text.splitlines()
    head = lines.index("Subject To") + 1
    end = lines.index("Bounds")
    bounds = [l for l in lines[end + 1:-1] if l.split(" ")[3] not in dead]
    kept_rows = []
    for line in lines[head:end]:
        label, _, rest = line.partition(": ")
        family = label.strip().rsplit("_", 1)[0]
        tokens = rest.split(" ")
        lhs, relation = tokens[:-2], tokens[-2:]
        if lhs[0] not in ("+", "-"):
            lhs = ["+"] + lhs
        terms = [lhs[i:i + 3] for i in range(0, len(lhs), 3)]
        kept = [t for t in terms if t[2] not in dead]
        coefs = [float(sign + value) for sign, value, _ in kept]
        sense = {"=": EQ}.get(relation[0], relation[0])
        if not kept or box_implied(coefs, sense, float(relation[1])):
            continue
        if kept[0][0] == "+":
            kept[0] = kept[0][1:]
        kept_rows.append((sense, family, " ".join(" ".join(t) for t in kept + [relation])))
    rows, counters = [], {}
    for _, family, body in sorted(kept_rows, key=lambda row: row[0] == EQ):  # `equalities_last`
        k = counters.get(family, 0)
        counters[family] = k + 1
        rows.append(f" {family}_{k}: {body}")
    counts = {"\\ variables:": len(bounds), "\\ rows:": len(rows)}
    header = [next((f"{k} {n}" for k, n in counts.items() if l.startswith(k)), l)
              for l in lines[:head]]
    return "\n".join(header + rows + ["Bounds"] + bounds + ["End"]) + "\n"


def scan_failures(instance, solution) -> list[tuple]:
    """All (edge, terminal) pairs whose removal disconnects the terminal.

    Forensics helper: quadratic, but exact and exhaustive.
    """
    g = instance.graph
    out = []
    for t in sorted(instance.terminals):
        for e in sorted(solution.edges):
            if t not in reachable_set(g, instance.root, restrict_to=solution.edges - {e}):
                out.append((e, t))
    return out


def group_flow_lp(tree, capacities, group) -> float:
    """Max root-to-group flow in the tree under per-edge capacities, by LP.

    Columns: the flow on each tree edge, capped by its capacity, then one
    uncapped arc from each group node to a super-sink. Rows: conservation
    at every non-root node (row v-1 for node v). Maximizes the sink intake.
    The capacities are scaled by 1e6 and the value scaled back: HiGHS
    accepts rows violated by up to 1e-7, so unscaled capacities near that
    size could leak flow past a zero-capacity edge.
    """
    scale = 1e6
    te = tree.num_edges
    sinks = sorted(group)
    a_eq = np.zeros((te, te + len(sinks)))
    for v in range(1, tree.num_nodes):
        a_eq[v - 1, v - 1] = 1.0
        if tree.parents[v] > 0:
            a_eq[tree.parents[v] - 1, v - 1] = -1.0
    for j, v in enumerate(sinks):
        a_eq[v - 1, te + j] = -1.0
    result = linprog(
        np.concatenate([np.zeros(te), -np.ones(len(sinks))]),
        A_eq=a_eq,
        b_eq=np.zeros(te),
        bounds=[(0.0, scale * float(c)) for c in capacities] + [(0.0, None)] * len(sinks),
        method="highs",
    )
    assert result.status == 0, result.message
    return -float(result.fun) / scale


# ------------------------------------------------------ probes of the lemmas

def _group_flow_dp(tree, capacities, group: frozenset) -> float:
    """Max root-to-group flow in the tree under per-edge capacities.

    Bottom-up: a group node absorbs unboundedly; any other node forwards
    at most sum over children of min(edge capacity, child's intake).
    """
    kids = children(tree)
    intake = [0.0] * tree.num_nodes
    for node in range(tree.num_nodes - 1, -1, -1):
        if node in group:
            intake[node] = math.inf
            continue
        total = 0.0
        for child in kids[node]:
            total += min(capacities[child - 1], intake[child])
        intake[node] = total
    return intake[0]


def _bad_and_reduced(tree, lp, beta: float, e: int):
    """The tree edges that lean on graph edge e (xh - f < f / (2 beta)),
    and every tree edge's capacity once they are cut: 0 on a bad edge,
    xh - f on the others."""
    idx = lp.model.var_index
    edges = np.arange(tree.num_edges)
    xh, fe = lp.at(idx.xhat(edges)), lp.at(idx.f(edges, e))
    bad = xh - fe < fe / (2.0 * beta)
    return frozenset(np.flatnonzero(bad).tolist()), np.where(bad, 0.0, xh - fe).tolist()


@dataclass(frozen=True)
class GoodEdgeAnalysis:
    """Effect of one graph edge on the tree solution.

    A tree edge is bad for e when buying e contributes nearly all of its
    value: xh - f < f / (2 beta). Residual flows are computed with bad
    edges removed and capacities reduced to xh - f.
    """

    graph_edge: int
    beta: float
    bad_edges: frozenset
    reduced_capacities: tuple[float, ...]
    residual_flow: dict  # terminal -> surviving root-to-group flow
    mu: dict  # terminal -> total tree flow into the group

    @classmethod
    def from_lp(cls, tree, lp, beta: float, e: int) -> "GoodEdgeAnalysis":
        bad, caps = _bad_and_reduced(tree, lp, beta, e)
        idx = lp.model.var_index
        residual = {}
        mu = {}
        for t in sorted(tree.groups, key=str):
            residual[t] = _group_flow_dp(tree, caps, tree.groups[t])
            mu[t] = sum(float(lp.at(idx.fhat(t, eh))) for eh in tree.group_in_edges(t))
        return cls(e, float(beta), bad, tuple(caps), residual, mu)


def residual_group_flow(tree, lp, beta: float, e: int, t) -> float:
    """Root-to-group flow surviving the loss of graph edge e.

    Removes the tree edges that lean on e and reduces the rest by their
    use of e; the analysis promises the result stays >= 1/2.
    """
    _, caps = _bad_and_reduced(tree, lp, beta, e)
    return _group_flow_dp(tree, caps, tree.groups[t])


def flow_slack_violation(tree, lp) -> float:
    """Max over (t, tree edge, graph edge) of (fh - ft) - (xh - f): the
    per-terminal slack on a tree edge never exceeds the total slack, and a
    positive value flags a violation."""
    idx = lp.model.var_index
    m = idx.num_edges
    te = idx.num_tree_edges
    if te == 0 or m == 0:
        return 0.0
    edges = np.arange(te)
    pairs = (edges[:, None], np.arange(m))  # (tree edge, graph edge)
    slack = lp.at(idx.xhat(edges))[:, None] - lp.at(idx.f(*pairs))
    return max(
        float(np.max(lp.at(idx.fhat(t, edges))[:, None] - lp.at(idx.ft(t, *pairs)) - slack))
        for t in idx.terminals
    )


class SurvivalEstimate(NamedTuple):
    probability: float
    radius: float  # three-sigma binomial confidence radius
    successes: int
    trials: int


def survival_estimate(instance, tree, lp, seed: int, e: int, t, trials: int,
                      samples: Optional[int] = None) -> SurvivalEstimate:
    """Empirical probability that one rounding iteration connects the
    root to terminal t without using graph edge e; the trials are drawn
    as rounding draws its iterations from `default_rng(seed)`, so trial j
    is rounding iteration j of the same seed."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    sampler = IterationSampler(instance, tree, lp, samples)
    g = instance.graph
    successes = 0
    for block in sampler.draw_blocks(np.random.default_rng(seed), trials):
        ends = np.searchsorted(block.row, np.arange(block.size), side="right")
        for path_ids in np.split(block.paths, ends[:-1]):
            edges = {edge for p in np.unique(path_ids).tolist() for edge in sampler.paths[p].edges}
            if t in reachable_set(g, instance.root, restrict_to=edges - {e}):
                successes += 1
    p = successes / trials
    radius = 3.0 * math.sqrt(max(p * (1.0 - p), 1e-12) / trials)
    return SurvivalEstimate(p, radius, successes, trials)


def _reference_colwise(n, a_ub, b_ub, a_eq, b_eq):
    """HiGHS's column-wise arrays of the blocks, as `lp_solver` built them
    with scipy's sparse stacking before it gathered them itself."""
    blocks = [(a, b) for a, b in ((a_ub, b_ub), (a_eq, b_eq)) if a is not None]
    blocks = blocks or [(csr_matrix((0, n)), np.zeros(0))]
    a = vstack([a for a, _ in blocks], format="csc")
    upper = np.concatenate([np.asarray(b, dtype=float) for _, b in blocks])
    lower = upper.copy()
    lower[: 0 if a_ub is None else len(b_ub)] = -np.inf
    return (a.indptr.astype(np.int32), a.indices.astype(np.int32), a.data, lower, upper)


def _reference_senses(model: LpModel):
    """Each row's sense and rhs, read off its range."""
    rows = list(model.rows)
    return np.array([r.sense for r in rows]), np.array([r.rhs for r in rows], dtype=float)


def _reference_signed_rows(model: LpModel, rows, sign):
    """The given rows of the model (repeats allowed), each times its sign."""
    sub = model.matrix()[rows]
    sub.data *= np.repeat(sign, np.diff(model.indptr)[rows])
    return sub, sign * _reference_senses(model)[1][rows]


def reference_highs_rows(model: LpModel):
    """(start, index, value, row_lower, row_upper) of the model as scipy's
    `linprog` hands it to HiGHS column-wise: the <= rows (>= rows negated),
    then the = rows, stacked by scipy into one CSC matrix. A reference for
    the row-wise `lp_solver._split_rows`: the two are one LP."""
    sense = _reference_senses(model)[0]
    eq = sense == EQ
    ub = np.flatnonzero(~eq)
    a_ub, b_ub = _reference_signed_rows(model, ub, np.where(sense[ub] == GE, -1.0, 1.0))
    a_eq, b_eq = _reference_signed_rows(model, np.flatnonzero(eq), np.ones(int(eq.sum())))
    return _reference_colwise(model.num_vars, a_ub if len(ub) else None, b_ub,
                              a_eq if len(b_eq) else None, b_eq)


def reference_elastic_rows(model: LpModel):
    """The same arrays for the model's elastic LP: every row as <= rows (a
    >= row negated, an = row once as is and once negated), each with -1
    times its own slack column after the model's columns, stacked by
    scipy."""
    k = model.num_rows
    sense = _reference_senses(model)[0]
    rows = np.repeat(np.arange(k), np.where(sense == EQ, 2, 1))
    second = np.zeros(len(rows), dtype=bool)
    second[1:] = rows[1:] == rows[:-1]
    sign = np.where(second | (sense[rows] == GE), -1.0, 1.0)
    signed, b_ub = _reference_signed_rows(model, rows, sign)
    slack = csr_matrix((-np.ones(len(rows)), (np.arange(len(rows)), rows)),
                       shape=(len(rows), k))
    a_ub = hstack([signed, slack], format="csr")
    return _reference_colwise(model.num_vars + k, a_ub, b_ub, None, None)


def reference_elastic_total(model: LpModel) -> float:
    """The least total slack of the model's elastic LP
    (`reference_elastic_rows`), with the model's columns in [0, 1] and the
    slacks >= 0, by scipy's `linprog`: a reference for the total of
    `lp_solver`'s infeasibility certificate."""
    n, k = model.num_vars, model.num_rows
    start, index, value, _, b_ub = reference_elastic_rows(model)
    a_ub = csc_matrix((value, index, start), shape=(len(b_ub), n + k))
    result = linprog(np.concatenate([np.zeros(n), np.ones(k)]), A_ub=a_ub, b_ub=b_ub,
                     bounds=[(0.0, 1.0)] * n + [(0.0, None)] * k, method="highs")
    assert result.status == 0, result.message
    return float(result.fun)


def reference_linprog(c, rows, max_iterations=None):
    """`scipy.optimize.linprog(method="highs")` on `lp_solver._highs_model`'s
    arguments, the row-wise `rows` of `lp_solver._split_rows`, with the
    options `lp_solver` sets: a reference for its direct HiGHS call, which
    must give the same x, fun and nit bit for bit."""
    start, index, value, row_lower, row_upper = rows
    a = csr_matrix((value, index, start), shape=(len(row_upper), len(c)))
    return _scipy_highs(c, a, row_lower, row_upper, max_iterations)


def reference_colwise_linprog(c, rows, max_iterations=None):
    """`reference_linprog` on column-wise `rows`, as `reference_highs_rows`
    gives them."""
    start, index, value, row_lower, row_upper = rows
    a = csc_matrix((value, index, start), shape=(len(row_upper), len(c)))
    return _scipy_highs(c, a, row_lower, row_upper, max_iterations)


def _scipy_highs(c, a, row_lower, row_upper, max_iterations):
    """scipy's `linprog` on the rows of the sparse `a`, each a range
    [row_lower, row_upper]: (-inf, b], [b, inf) or [b, b], the = rows
    last. The other rows go to scipy as its A_ub, a [b, inf) row negated,
    and the = rows as its A_eq; scipy hands HiGHS them column-wise."""
    is_eq = row_lower == row_upper
    k = int(np.count_nonzero(~is_eq))
    assert not is_eq[:k].any(), "the = rows come last"
    ge = row_upper == np.inf
    a = csr_matrix(a, copy=True)
    a.data *= np.repeat(np.where(ge, -1.0, 1.0), np.diff(a.indptr))
    ub = {"A_ub": a[:k], "b_ub": np.where(ge, -row_lower, row_upper)[:k]} if k else {}
    eq = {"A_eq": a[k:], "b_eq": row_upper[k:]} if k < len(row_upper) else {}
    options = {
        "presolve": True,
        "primal_feasibility_tolerance": 1e-9,
        "dual_feasibility_tolerance": 1e-9,
    }
    if max_iterations is not None:
        options["maxiter"] = max_iterations
    return linprog(c, **ub, **eq, bounds=(0.0, 1.0), method="highs", options=options)


def drop_family(model: LpModel, family: str) -> LpModel:
    """Same model without one constraint family, by a row mask."""
    keep = model.family != model.families.index(family)
    lengths = np.diff(model.indptr)[keep]
    entries = np.repeat(keep, np.diff(model.indptr))
    return replace(
        model,
        indptr=np.concatenate(([0], np.cumsum(lengths))),
        indices=model.indices[entries],
        data=model.data[entries],
        row_lower=model.row_lower[keep],
        row_upper=model.row_upper[keep],
        family=model.family[keep],
    )


def labels_below(tree, node) -> set:
    """Labels of the node and of every node in its subtree (ids are
    breadth-first, so a node's subtree lies above its id)."""
    inside = {node}
    for v in range(node + 1, tree.num_nodes):
        if tree.parents[v] in inside:
            inside.add(v)
    return {tree.labels[v] for v in inside}


def useless_pairs(instance, tree) -> set[tuple[int, int]]:
    """(tree edge, graph edge) pairs whose flow columns rule (c) drops: for
    tree edge labels (u, v) and e = (a, b), a is not reachable from u, v is
    not reachable from b, or b = u."""
    g = instance.graph
    back = g.reversed()
    out = set()
    for ehat in range(tree.num_edges):
        u, v = tree.edge_endpoints_labels(ehat)
        from_u = reachable_set(g, u)
        to_v = reachable_set(back, v)
        for e in range(g.num_edges):
            a, b = g.tails[e], g.heads[e]
            if a not in from_u or b not in to_v or b == u:
                out.add((ehat, e))
    return out


def reference_live(instance, tree) -> np.ndarray:
    """The live-column mask, one column at a time, by rules (a) and (c)."""
    g = instance.graph
    idx = full_index(instance, tree)
    useless = useless_pairs(instance, tree)
    live = np.zeros(len(idx.columns), dtype=bool)
    for e in range(g.num_edges):
        live[idx.x(e)] = True
    for ehat in range(tree.num_edges):
        below = labels_below(tree, ehat + 1)
        useful = [e for e in range(g.num_edges) if (ehat, e) not in useless]
        live[idx.xhat(ehat)] = True
        for e in useful:
            live[idx.f(ehat, e)] = True
        for t in idx.terminals:
            if t in below:
                live[idx.fhat(t, ehat)] = True
                for e in useful:
                    live[idx.ft(t, ehat, e)] = True
    return live


def parent_edge(tree, ehat):
    """The tree edge ending at the tree edge's parent node, or None at the
    root."""
    parent = tree.parents[ehat + 1]
    return None if parent == 0 else parent - 1


def path_to_root(tree, node) -> list:
    """Node ids from the given node up to and including the root."""
    walk = [node]
    while node != 0:
        node = tree.parents[node]
        walk.append(node)
    return walk


def copy_of(tree, node) -> int:
    """The copy (1 or 2) of a non-root node: the root's children are copy
    1's depth-1 nodes, then copy 2's, and a node shares its depth-1
    ancestor's copy."""
    first = path_to_root(tree, node)[-2]
    roots = children(tree)[0]
    return 1 if roots.index(first) < len(roots) // 2 else 2


def reference_clamp(tree, xhat) -> np.ndarray:
    """Cap each tree-edge value by its clamped parent's, one edge at a time."""
    out = np.array(xhat, dtype=float)
    for ehat in range(len(out)):
        parent = parent_edge(tree, ehat)
        if parent is not None and out[parent] < out[ehat]:
            out[ehat] = out[parent]
    return out


def reference_mark(tree, xhat, draws) -> frozenset:
    """GKR marking one tree edge at a time, top down: edge e is marked
    when draws[e] falls below its conditional probability."""
    marked = np.zeros(tree.num_edges, dtype=bool)
    for ehat in range(tree.num_edges):
        parent = parent_edge(tree, ehat)
        if parent is None:
            threshold = xhat[ehat]
        elif marked[parent]:
            if xhat[parent] <= 0.0:
                threshold = 0.0
            elif xhat[ehat] >= xhat[parent]:
                threshold = 1.0
            else:
                threshold = xhat[ehat] / xhat[parent]
        else:
            continue
        if draws[ehat] < threshold:
            marked[ehat] = True
    return frozenset(int(i) for i in np.nonzero(marked)[0])


def reference_gkr_round(tree, xhat, rng) -> frozenset:
    """`reference_mark` over one uniform per tree edge."""
    return reference_mark(tree, xhat, rng.random(tree.num_edges))


def edge_marginal(dist, e) -> float:
    """Probability that a path drawn from the distribution uses edge e."""
    return sum(w for p, w in zip(dist.paths, dist.weights) if e in p.edges)


def reference_pick(dist, draw):
    """The path whose running weight sum first exceeds the draw; the last
    path if the draw lies above the final sum."""
    acc = 0.0
    for path, w in zip(dist.paths, dist.weights):
        acc += w
        if draw < acc:
            return path
    return dist.paths[-1]


def reference_sample_path(dist, rng):
    """`reference_pick` of one uniform."""
    return reference_pick(dist, rng.random())


class ReferenceSampler:
    """One rounding iteration from one row of uniforms, a scalar at a time.

    The row has `width` = te + M * L entries (te tree edges, M markable
    ones, L samples): entry e marks tree edge e, and the k-th markable
    edge in ascending order reads its L samples from te + k * L on.
    """

    def __init__(self, instance, tree, lp, samples=None):
        self.instance = instance
        self.tree = tree
        self.lp = lp
        idx = lp.model.var_index
        self.raw_xhat = np.array([float(lp.at(idx.xhat(eh))) for eh in range(tree.num_edges)])
        self.clamped = reference_clamp(tree, self.raw_xhat)
        self.clamped[self.clamped <= 1e-9] = 0.0
        # L = ceil((4 beta + 2) ln D), at least 1
        beta = lp.model.beta
        self.samples = samples or max(1, math.ceil((4.0 * beta + 2.0) * math.log(tree.depth)))
        markable = [eh for eh in range(tree.num_edges) if self.clamped[eh] > 0.0]
        self.column = {eh: tree.num_edges + k * self.samples for k, eh in enumerate(markable)}
        self.width = tree.num_edges + len(markable) * self.samples
        self._distributions = {}

    def distribution(self, ehat):
        if ehat not in self._distributions:
            idx, m = self.lp.model.var_index, self.instance.graph.num_edges
            flow = [float(self.lp.at(idx.f(ehat, e))) for e in range(m)]
            self._distributions[ehat] = decompose_flow(
                self.instance.graph, self.tree, ehat, flow, self.raw_xhat[ehat]
            )
        return self._distributions[ehat]

    def iteration(self, row) -> list:
        """(tree edge, sample index, path) triples of one row, in draw order."""
        draws = []
        for ehat in sorted(reference_mark(self.tree, self.clamped, row)):
            dist = self.distribution(ehat)
            for ell in range(1, self.samples + 1):
                draws.append((ehat, ell, reference_pick(dist, row[self.column[ehat] + ell - 1])))
        return draws

    def sample_draws(self, rng) -> list:
        """One iteration from the next `width` uniforms of the generator."""
        return self.iteration(rng.random(self.width))


def reference_round(instance, tree, lp, seed, iterations, samples=None) -> SolutionSubgraph:
    """The rounding loop in draw order, one generator for the run and one
    row per iteration: each edge's provenance is the first draw whose path
    contains it."""
    sampler = ReferenceSampler(instance, tree, lp, samples)
    rng = np.random.default_rng(seed)
    edges: set = set()
    provenance: dict = {}
    for j in range(1, iterations + 1):
        for ehat, ell, path in sampler.sample_draws(rng):
            for e in path.edges:
                if e not in edges:
                    edges.add(e)
                    provenance[e] = (j, ehat, ell)
    meta = {
        "seed": seed,
        "iterations": iterations,
        "samples": sampler.samples,
        "beta": lp.model.beta,
        "lp_objective": lp.objective,
    }
    return SolutionSubgraph.from_edges(instance.graph, edges, provenance, meta)
