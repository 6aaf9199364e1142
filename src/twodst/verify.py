"""Feasibility certification and LP-solution diagnostics.

Feasibility of a candidate subgraph is an exact integral check: two
edge-disjoint root-terminal paths exist iff the unit-capacity max flow
(`graph.max_flow_unit`) is at least 2. A failing subgraph gets a witness:
the terminal, the first edge (in ascending id order) whose loss cuts it off,
and a minimum cut. The diagnostics inspect a fractional LP solution
directly: per-edge "bad" tree edges, the residual group flow that survives
after removing them (a bottom-up pass over the tree, `_group_flow_dp`, not a
max-flow call), the per-edge slack comparison between the tree flow and its
graph realization, and a Monte Carlo survival probe of the rounding step.
Diagnostics read the raw LP values, not the clamped ones used for marking.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .graph import DstInstance, max_flow_unit, reachable_set
from .lp_model import LpSolution
from .rounding import IterationSampler
from .shallow_tree import ShallowTree


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    flows: dict  # terminal -> integral flow value
    witness_edge: Optional[int] = None
    witness_terminal: Optional[object] = None
    witness_cut: Optional[frozenset] = None

    def to_json(self) -> str:
        doc: dict = {
            "feasible": self.feasible,
            "flows": {str(t): v for t, v in sorted(self.flows.items(), key=lambda kv: str(kv[0]))},
        }
        if not self.feasible:
            doc["witness"] = {
                "edge": self.witness_edge,
                "terminal": str(self.witness_terminal),
                "cut": sorted(self.witness_cut or ()),
            }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def feasibility_report(instance: DstInstance, edge_ids) -> FeasibilityReport:
    """Integral verdict for an edge set: flow >= 2 to every terminal."""
    g = instance.graph
    edge_ids = frozenset(edge_ids)
    bad = [e for e in edge_ids if not (0 <= e < g.num_edges)]
    if bad:
        raise ValueError(f"edge ids outside the graph: {sorted(bad)[:3]}")
    flows: dict = {}
    witness = None
    for t in sorted(instance.terminals):
        value, cut = max_flow_unit(g, instance.root, t, restrict_to=edge_ids)
        flows[t] = value
        if value >= 2 or witness is not None:
            continue
        if value == 0:
            witness = (None, t, cut)
        else:
            for e in sorted(edge_ids):
                rest = edge_ids - {e}
                if t not in reachable_set(g, instance.root, restrict_to=rest):
                    _, cut_e = max_flow_unit(g, instance.root, t, restrict_to=rest)
                    witness = (e, t, cut_e)
                    break
    if witness is None:
        return FeasibilityReport(all(v >= 2 for v in flows.values()), flows)
    return FeasibilityReport(False, flows, witness[0], witness[1], witness[2])


def reverse_delete(instance: DstInstance, edges) -> frozenset:
    """Drop the costliest edges whose removal keeps every terminal
    2-connected from the root; one descending pass is enough because an
    edge that is needed never becomes droppable as the graph shrinks."""
    g = instance.graph
    terminals = instance.sorted_terminals()
    kept = set(edges)
    order = sorted(kept, key=lambda e: (-g.costs[e], -e))
    for e in order:
        trial = kept - {e}
        if all(
            max_flow_unit(g, instance.root, t, restrict_to=trial, limit=2)[0] >= 2
            for t in terminals
        ):
            kept = trial
    return frozenset(kept)


def _group_flow_dp(tree: ShallowTree, capacities, group: frozenset) -> float:
    """Max root-to-group flow in the tree under per-edge capacities.

    Bottom-up: a group node absorbs unboundedly; any other node forwards
    at most sum over children of min(edge capacity, child's intake).
    """
    intake = [0.0] * tree.num_nodes
    for node in range(tree.num_nodes - 1, -1, -1):
        if node in group:
            intake[node] = math.inf
            continue
        total = 0.0
        for child in tree.children[node]:
            cap = capacities[child - 1]
            total += min(cap, intake[child])
        intake[node] = total
    return intake[0]


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
    def from_lp(cls, tree: ShallowTree, lp: LpSolution, beta: float, e: int) -> "GoodEdgeAnalysis":
        bad, caps = _bad_and_reduced(tree, lp, beta, e)
        residual = {}
        mu = {}
        for t in sorted(tree.groups, key=str):
            residual[t] = _group_flow_dp(tree, caps, tree.groups[t])
            mu[t] = sum(lp.fhat(t, eh) for eh in tree.group_in_edges(t))
        return cls(e, float(beta), bad, tuple(caps), residual, mu)


def _bad_and_reduced(tree: ShallowTree, lp: LpSolution, beta: float, e: int):
    idx = lp.model.var_index
    edges = np.arange(tree.num_edges)
    xh, fe = lp.at(idx.xhat(edges)), lp.at(idx.f(edges, e))
    bad = xh - fe < fe / (2.0 * beta)
    return frozenset(np.flatnonzero(bad).tolist()), np.where(bad, 0.0, xh - fe).tolist()


def residual_group_flow(tree: ShallowTree, lp: LpSolution, beta: float, e: int, t) -> float:
    """Root-to-group flow surviving the loss of graph edge e.

    Removes the tree edges that lean on e and reduces the rest by their
    use of e; the analysis promises the result stays >= 1/2.
    """
    _, caps = _bad_and_reduced(tree, lp, beta, e)
    return _group_flow_dp(tree, caps, tree.groups[t])


def flow_slack_violation(tree: ShallowTree, lp: LpSolution) -> float:
    """Max over (t, tree edge, graph edge) of
    (fh - ft) - (xh - f): the per-terminal slack on a tree edge never
    exceeds the total slack, and a positive value flags a violation."""
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


def survival_estimate(
    instance: DstInstance,
    tree: ShallowTree,
    lp: LpSolution,
    seed: int,
    e: int,
    t,
    trials: int,
    samples: Optional[int] = None,
) -> SurvivalEstimate:
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
            edges = sampler.edges_of(path_ids) - {e}
            if t in reachable_set(g, instance.root, restrict_to=edges):
                successes += 1
    p = successes / trials
    radius = 3.0 * math.sqrt(max(p * (1.0 - p), 1e-12) / trials)
    return SurvivalEstimate(p, radius, successes, trials)
