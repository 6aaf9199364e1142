"""Randomized rounding of the tree relaxation into a subgraph.

One iteration marks a random subtree (each tree edge survives with
probability proportional to its value over its parent's), then realizes
every marked tree edge by sampling paths from the flow decomposition of
its graph flow. Iterations are unioned; enough of them make the result
feasible with high probability.

Marking uses monotonically clamped tree values so parent ratios stay in
[0,1]; decompositions and diagnostics use the raw LP values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ModelInconsistencyError
from .graph import DstInstance, EdgePath
from .lp_model import OPTIMAL, LpSolution
from .shallow_tree import ShallowTree
from .solution import SolutionSubgraph

SUPPORT_TOL = 1e-9
STRIP_TOL = 1e-12


@dataclass(frozen=True)
class RoundingConfig:
    seed: int
    iterations: Optional[int] = None  # override for the outer loop count J
    samples: Optional[int] = None  # override for the per-tree-edge count L
    prune_result: bool = False

    def __post_init__(self):
        if self.iterations is not None and self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.samples is not None and self.samples < 1:
            raise ValueError("samples must be >= 1")


def default_iterations(depth: int, num_vertices: int, multiplier: float = 1.0) -> int:
    """Outer loop count: ceil(multiplier * 20 * D * ln n), floored at 1."""
    return max(1, math.ceil(multiplier * 20.0 * depth * math.log(num_vertices)))


def default_samples(beta: float, depth: int) -> int:
    """Paths per marked tree edge: ceil((4 beta + 2) ln D), floored at 1
    (depth 1 would otherwise give zero samples)."""
    return max(1, math.ceil((4.0 * beta + 2.0) * math.log(depth)))


def monotone_clamp(tree: ShallowTree, xhat) -> np.ndarray:
    """Cap each tree-edge value by its (clamped) parent's, top down.

    Any unit of group flow through an edge also crosses its parent edge,
    so the clamp never cuts into the flow the analysis needs.
    """
    out = np.array(xhat, dtype=float)
    for ehat in range(len(out)):
        parent = tree.parent_edge(ehat)
        if parent is not None and out[parent] < out[ehat]:
            out[ehat] = out[parent]
    return out


def gkr_round(tree: ShallowTree, xhat, rng) -> frozenset:
    """Sample a marked subtree: root edges keep their own probability,
    deeper edges survive with probability xhat / parent's xhat given the
    parent was marked. Returns the marked tree-edge ids."""
    draws = rng.random(tree.num_edges)
    marked = np.zeros(tree.num_edges, dtype=bool)
    for ehat in range(tree.num_edges):
        parent = tree.parent_edge(ehat)
        if parent is None:
            threshold = xhat[ehat]
        elif marked[parent]:
            threshold = 0.0 if xhat[parent] <= 0.0 else min(1.0, xhat[ehat] / xhat[parent])
        else:
            continue
        if draws[ehat] < threshold:
            marked[ehat] = True
    return frozenset(int(i) for i in np.nonzero(marked)[0])


@dataclass(frozen=True)
class PathDistribution:
    """Weighted source-target paths extracted from one tree edge's flow."""

    tree_edge: int
    paths: tuple[EdgePath, ...]
    weights: tuple[float, ...]
    discarded: float  # circulation mass left behind, in flow units

    def __post_init__(self):
        if not self.paths:
            raise ValueError("a distribution needs at least one path")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {sum(self.weights)}, not 1")
        src = self.paths[0].source
        dst = self.paths[0].target
        for p in self.paths:
            if p.source != src or p.target != dst:
                raise ValueError("support paths must share endpoints")

    @property
    def is_cycle_free(self) -> bool:
        return self.discarded <= 1e-7

    def edge_marginal(self, e: int) -> float:
        return sum(w for p, w in zip(self.paths, self.weights) if e in p.edges)


def decompose_flow(
    graph, tree: ShallowTree, tree_edge: int, flow, xhat_value: float
) -> PathDistribution:
    """Greedy shortest-path stripping of a source-target flow.

    Repeatedly takes the BFS-shortest source-target path in the positive
    support (ties broken toward smaller edge ids), subtracts its
    bottleneck, and stops when the remaining source outflow is below
    1e-9. Weights are normalized by the stripped total, which must match
    the tree-edge value; flow stuck on cycles is discarded.
    """
    source, target = tree.edge_endpoints_labels(tree_edge)
    residual = [0.0] * graph.num_edges
    for e, value in _flow_items(flow, graph.num_edges):
        if value < -1e-9:
            raise ValueError(f"negative flow {value} on edge {e}")
        residual[e] = max(0.0, value)

    strips: list[tuple[tuple[int, ...], float]] = []
    while True:
        outflow = sum(residual[e] for e in graph.out_edges(source))
        if outflow < 1e-9:
            break
        path = _shortest_support_path(graph, residual, source, target)
        if path is None:
            raise ModelInconsistencyError(
                f"tree edge {tree_edge}: {outflow:.3e} outflow at {source!r} "
                f"cannot reach {target!r} in the flow support"
            )
        bottleneck = min(residual[e] for e in path)
        for e in path:
            residual[e] -= bottleneck
        strips.append((path, bottleneck))

    total = sum(w for _, w in strips)
    if abs(total - xhat_value) > 1e-6:
        raise ModelInconsistencyError(
            f"tree edge {tree_edge}: stripped {total:.9f} but value is {xhat_value:.9f}"
        )
    discarded = sum(residual)
    return PathDistribution(
        tree_edge,
        tuple(EdgePath(graph, p) for p, _ in strips),
        tuple(w / total for _, w in strips),
        discarded,
    )


def _flow_items(flow, num_edges):
    if isinstance(flow, dict):
        return sorted(flow.items())
    return ((e, flow[e]) for e in range(num_edges))


def _shortest_support_path(graph, residual, source, target):
    """Lexicographically-smallest shortest path in the positive support."""
    dist = {target: 0}
    frontier = [target]
    while frontier:
        nxt = []
        for v in frontier:
            for e in graph.in_edges(v):
                u = graph.tails[e]
                if residual[e] > STRIP_TOL and u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    if source not in dist:
        return None
    path = []
    v = source
    while v != target:
        step = None
        for e in graph.out_edges(v):
            if residual[e] > STRIP_TOL and dist.get(graph.heads[e]) == dist[v] - 1:
                if step is None or e < step:
                    step = e
        path.append(step)
        v = graph.heads[step]
    return tuple(path)


def sample_path(dist: PathDistribution, rng) -> EdgePath:
    draw = rng.random()
    acc = 0.0
    for path, w in zip(dist.paths, dist.weights):
        acc += w
        if draw < acc:
            return path
    return dist.paths[-1]


class IterationSampler:
    """Shared machinery for one rounding iteration.

    Holds the clamped marking values and a lazy cache of per-tree-edge
    path distributions, so repeated iterations (rounding, Monte Carlo
    probes) don't re-decompose flows.
    """

    def __init__(self, instance: DstInstance, tree: ShallowTree, lp: LpSolution, config: RoundingConfig):
        self.instance = instance
        self.tree = tree
        self.lp = lp
        self.config = config
        self.raw_xhat = np.array([lp.xhat(eh) for eh in range(tree.num_edges)])
        self.clamped = monotone_clamp(tree, self.raw_xhat)
        self.clamped[self.clamped <= SUPPORT_TOL] = 0.0
        beta = lp.model.beta
        if config.samples is not None:
            self.samples = config.samples
        elif beta is not None:
            self.samples = default_samples(beta, tree.depth)
        else:
            raise ValueError("samples not set and the model carries no beta")
        self._distributions: dict[int, PathDistribution] = {}

    def distribution(self, ehat: int) -> PathDistribution:
        if ehat not in self._distributions:
            flow = [self.lp.f(ehat, e) for e in range(self.instance.graph.num_edges)]
            self._distributions[ehat] = decompose_flow(
                self.instance.graph, self.tree, ehat, flow, self.raw_xhat[ehat]
            )
        return self._distributions[ehat]

    def sample_draws(self, rng) -> list[tuple[int, int, EdgePath]]:
        """One iteration: mark, then sample L paths per marked tree edge.
        Returns (tree edge, sample index, path) triples in draw order."""
        marked = gkr_round(self.tree, self.clamped, rng)
        draws = []
        for ehat in sorted(marked):
            dist = self.distribution(ehat)
            for ell in range(1, self.samples + 1):
                draws.append((ehat, ell, sample_path(dist, rng)))
        return draws

    def sample_edges(self, rng) -> frozenset:
        return frozenset(e for _, _, p in self.sample_draws(rng) for e in p.edges)


def round_solution(
    instance: DstInstance,
    tree: ShallowTree,
    lp: LpSolution,
    config: RoundingConfig,
) -> SolutionSubgraph:
    """Union of J independent rounding iterations, verified and annotated."""
    from .verify import feasibility_report, reverse_delete

    if lp.status != OPTIMAL:
        raise ValueError(f"need an optimal LP solution, got status {lp.status!r}")
    sampler = IterationSampler(instance, tree, lp, config)
    iterations = config.iterations or default_iterations(
        tree.depth, instance.graph.num_vertices
    )

    edges: set[int] = set()
    provenance: dict[int, tuple] = {}
    for j in range(1, iterations + 1):
        rng = np.random.default_rng((config.seed, j))
        for ehat, ell, path in sampler.sample_draws(rng):
            for e in path.edges:
                if e not in edges:
                    edges.add(e)
                    provenance[e] = (j, ehat, ell)

    pruned = False
    if config.prune_result:
        edges = set(reverse_delete(instance, edges))
        provenance = {e: p for e, p in provenance.items() if e in edges}
        pruned = True

    report = feasibility_report(instance, edges)
    meta = {
        "seed": config.seed,
        "iterations": iterations,
        "samples": sampler.samples,
        "beta": lp.model.beta,
        "lp_objective": lp.objective,
        "feasible": report.feasible,
        "pruned": pruned,
    }
    return SolutionSubgraph.from_edges(instance.graph, edges, provenance, meta)
