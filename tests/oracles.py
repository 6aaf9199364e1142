"""Slow, independent reference implementations used to check the fast code.

The graph oracles are exhaustive enumeration: keep instances tiny (m <= 12
or so) when calling them from tests. `reference_disjoint_pair_cost` tries
every pair of simple paths, as a reference for the two shortest paths of
`reductions._disjoint_pair_cost`. `reference_rows` builds the full
relaxation one row at a time; `reference_live` marks its live columns one
at a time, as a reference for `LpModel.live`; and `reference_live_rows`
cuts the rows down to those columns, as a reference for the live model
that `build_lp` emits. `group_flow_lp` is a linprog max flow, as a
reference for the tree-flow DP in `verify`. `reference_round` is the
rounding loop one draw at a time, as a reference for the batched
`round_solution`: same random stream, so the two must agree byte for byte.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import combinations

import numpy as np
from scipy.optimize import linprog

from twodst.graph import DirectedMultigraph, reachable_set
from twodst.lp_model import EQ, GE, LE, LpModel, LpRow, VarIndex
from twodst.rounding import SUPPORT_TOL, decompose_flow, default_samples
from twodst.solution import SolutionSubgraph
from twodst.verify import feasibility_report, reverse_delete


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


def path_packing_number(graph: DirectedMultigraph, source, target) -> int:
    """Max number of pairwise edge-disjoint source -> target paths.

    Any family of edge-disjoint walks shortcuts to the same number of
    edge-disjoint simple paths, so enumerating simple paths is enough.
    Recursive branch and bound over the path list with a seen-state cache.
    """
    if source == target:
        raise ValueError("source and sink must differ")
    paths = enumerate_simple_paths(graph, source, target)
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


def reference_rows(instance, tree, beta) -> list[LpRow]:
    """The relaxation's rows, emitted one at a time in model order.

    Reference for the vectorised `build_lp`: same families, same row
    order, same term order within each row; rows with no terms are skipped.
    """
    g = instance.graph
    m = g.num_edges
    te = tree.num_edges
    idx = VarIndex(m, te, instance.terminals)
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
            cols = [idx.fhat(t, node - 1)] + [idx.fhat(t, c - 1) for c in tree.children[node]]
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
    return rows


def reference_live_rows(instance, tree, beta) -> list[LpRow]:
    """`reference_rows` without the dead terms, and without the rows left
    with no term; those must be rows that 0 satisfies."""
    live = reference_live(instance, tree)
    rows = []
    for row in reference_rows(instance, tree, beta):
        kept = [(j, c) for j, c in zip(row.cols, row.coefs) if live[j]]
        if kept:
            cols, coefs = zip(*kept)
            rows.append(LpRow(cols, coefs, row.sense, row.rhs, row.family))
        else:
            assert row.rhs == 0.0 and row.sense in (LE, EQ), row
    return rows


def live_lp_text(text: str, dead: set) -> str:
    """An `export_lp` text without the terms of the dead variables: rows
    left with no term are dropped, the row labels of each family renumbered
    and the row count in the header updated. Objective and bounds stay."""
    lines = text.splitlines()
    head = lines.index("Subject To") + 1
    end = lines.index("Bounds")
    rows, counters = [], {}
    for line in lines[head:end]:
        label, _, rest = line.partition(": ")
        family = label.strip().rsplit("_", 1)[0]
        tokens = rest.split(" ")
        lhs, relation = tokens[:-2], tokens[-2:]
        if lhs[0] not in ("+", "-"):
            lhs = ["+"] + lhs
        terms = [lhs[i:i + 3] for i in range(0, len(lhs), 3)]
        kept = [t for t in terms if t[2] not in dead]
        if not kept:
            continue
        if kept[0][0] == "+":
            kept[0] = kept[0][1:]
        k = counters.get(family, 0)
        counters[family] = k + 1
        rows.append(f" {family}_{k}: " + " ".join(" ".join(t) for t in kept + [relation]))
    header = [f"\\ rows: {len(rows)}" if l.startswith("\\ rows:") else l for l in lines[:head]]
    return "\n".join(header + rows + lines[end:]) + "\n"


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
        sense=model.sense[keep],
        rhs=model.rhs[keep],
        family=model.family[keep],
    )


def labels_below(tree, node) -> set:
    """Labels of the node and of every node in its subtree."""
    out = {tree.labels[node]}
    for child in tree.children[node]:
        out |= labels_below(tree, child)
    return out


def useless_pairs(instance, tree) -> set[tuple[int, int]]:
    """(tree edge, graph edge) pairs whose flow columns rule (c) drops: for
    tree edge labels (u, v) and e = (a, b), a is not reachable from u, v is
    not reachable from b, or b = u."""
    g = instance.graph
    out = set()
    for ehat in range(tree.num_edges):
        u, v = tree.edge_endpoints_labels(ehat)
        from_u = reachable_set(g, u, "forward")
        to_v = reachable_set(g, v, "backward")
        for e in range(g.num_edges):
            a, b = g.tails[e], g.heads[e]
            if a not in from_u or b not in to_v or b == u:
                out.add((ehat, e))
    return out


def reference_live(instance, tree) -> np.ndarray:
    """The live-column mask, one column at a time, by rules (a)-(c)."""
    g = instance.graph
    idx = VarIndex(g.num_edges, tree.num_edges, instance.terminals)
    useless = useless_pairs(instance, tree)
    live = np.zeros(idx.total, dtype=bool)
    for e in range(g.num_edges):
        live[idx.x(e)] = True
    for ehat in range(tree.num_edges):
        below = labels_below(tree, tree.edge_child(ehat))
        useful = [e for e in range(g.num_edges) if (ehat, e) not in useless]
        if below & instance.terminals:
            live[idx.xhat(ehat)] = True
            for e in useful:
                live[idx.f(ehat, e)] = True
        for t in idx.terminals:
            if t in below:
                live[idx.fhat(t, ehat)] = True
                for e in useful:
                    live[idx.ft(t, ehat, e)] = True
    return live


def reference_clamp(tree, xhat) -> np.ndarray:
    """Cap each tree-edge value by its clamped parent's, one edge at a time."""
    out = np.array(xhat, dtype=float)
    for ehat in range(len(out)):
        parent = tree.parent_edge(ehat)
        if parent is not None and out[parent] < out[ehat]:
            out[ehat] = out[parent]
    return out


def reference_gkr_round(tree, xhat, rng) -> frozenset:
    """GKR marking one tree edge at a time, top down."""
    draws = rng.random(tree.num_edges)
    marked = np.zeros(tree.num_edges, dtype=bool)
    for ehat in range(tree.num_edges):
        parent = tree.parent_edge(ehat)
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


def reference_sample_path(dist, rng):
    """One path by a running sum of the weights; the last path if the draw
    lies above the final sum."""
    draw = rng.random()
    acc = 0.0
    for path, w in zip(dist.paths, dist.weights):
        acc += w
        if draw < acc:
            return path
    return dist.paths[-1]


class ReferenceSampler:
    """One rounding iteration, one scalar draw per sampled path."""

    def __init__(self, instance, tree, lp, samples=None):
        self.instance = instance
        self.tree = tree
        self.lp = lp
        self.raw_xhat = np.array([lp.xhat(eh) for eh in range(tree.num_edges)])
        self.clamped = reference_clamp(tree, self.raw_xhat)
        self.clamped[self.clamped <= SUPPORT_TOL] = 0.0
        self.samples = samples or default_samples(lp.model.beta, tree.depth)
        self._distributions = {}

    def distribution(self, ehat):
        if ehat not in self._distributions:
            flow = [self.lp.f(ehat, e) for e in range(self.instance.graph.num_edges)]
            self._distributions[ehat] = decompose_flow(
                self.instance.graph, self.tree, ehat, flow, self.raw_xhat[ehat]
            )
        return self._distributions[ehat]

    def sample_draws(self, rng) -> list:
        """(tree edge, sample index, path) triples in draw order."""
        draws = []
        for ehat in sorted(reference_gkr_round(self.tree, self.clamped, rng)):
            dist = self.distribution(ehat)
            for ell in range(1, self.samples + 1):
                draws.append((ehat, ell, reference_sample_path(dist, rng)))
        return draws


def reference_round(
    instance, tree, lp, seed, iterations, samples=None, prune=False
) -> SolutionSubgraph:
    """The rounding loop in draw order: each edge's provenance is the first
    draw whose path contains it."""
    sampler = ReferenceSampler(instance, tree, lp, samples)
    edges: set = set()
    provenance: dict = {}
    for j in range(1, iterations + 1):
        rng = np.random.default_rng((seed, j))
        for ehat, ell, path in sampler.sample_draws(rng):
            for e in path.edges:
                if e not in edges:
                    edges.add(e)
                    provenance[e] = (j, ehat, ell)
    if prune:
        edges = set(reverse_delete(instance, edges))
        provenance = {e: p for e, p in provenance.items() if e in edges}
    meta = {
        "seed": seed,
        "iterations": iterations,
        "samples": sampler.samples,
        "beta": lp.model.beta,
        "lp_objective": lp.objective,
        "feasible": feasibility_report(instance, edges).feasible,
        "pruned": prune,
    }
    return SolutionSubgraph.from_edges(instance.graph, edges, provenance, meta)
