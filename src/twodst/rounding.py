"""Randomized rounding of the tree relaxation: a sampler and nothing more.

One iteration marks a random subtree (each tree edge survives with
probability proportional to its value over its parent's), then realizes
every marked tree edge by sampling paths from the flow decomposition of
its graph flow. `round_solution` unions J iterations and records where
each edge came from; pruning the union and the feasibility verdict belong
to the caller (`pipeline.run_pipeline`).

Marking uses monotonically clamped tree values so parent ratios stay in
[0,1]; decompositions and diagnostics use the raw LP values. A tree edge
can be marked exactly when its clamped value is positive, so
`IterationSampler` decomposes those edges, and only those, once when it is
built.

Random stream: iteration j of a run with seed s draws from
`default_rng((s, j))`, first `tree.num_edges` uniforms for marking (one
per tree edge, in id order), then L uniforms per marked tree edge, in
ascending tree-edge order. A path is the first one whose running weight
sum exceeds its uniform, or the last path. Each iteration is drawn as one
batch (`IterationSampler.draw`): one threshold compare and one AND per
tree level for marking, and one lookup in a table of cumulative weights
for all L paths of every marked edge. The batch consumes the same
uniforms as one draw at a time, so a seed fixes the solution byte for
byte.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ModelInconsistencyError
from .graph import DstInstance, EdgePath
from .lp_model import OPTIMAL, LpSolution
from .shallow_tree import ShallowTree
from .solution import SolutionSubgraph

log = logging.getLogger(__name__)

SUPPORT_TOL = 1e-9
STRIP_TOL = 1e-12


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
    parents = tree.edge_parents
    for lo, hi in tree.edge_levels[1:]:
        out[lo:hi] = np.minimum(out[lo:hi], out[parents[lo:hi]])
    return out


def _marking_thresholds(tree: ShallowTree, xhat) -> np.ndarray:
    """Probability that each tree edge is marked once its parent edge is:
    a root edge's own value, else its value over its parent's capped at 1,
    and 0 under a parent of value <= 0. The cap is applied before dividing,
    so a tiny (subnormal) parent cannot overflow the ratio."""
    thr = np.array(xhat, dtype=float)
    roots = tree.edge_levels[0][1]
    child = thr[roots:]
    parent = thr[tree.edge_parents[roots:]]
    ratio = np.where(parent > 0.0, 1.0, 0.0)
    np.divide(child, parent, out=ratio, where=(parent > 0.0) & (child < parent))
    thr[roots:] = ratio
    return thr


def _mark(tree: ShallowTree, thresholds: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Marked tree-edge ids, ascending: an edge is marked when its draw falls
    below its threshold and its parent edge is marked, level by level."""
    marked = draws < thresholds
    parents = tree.edge_parents
    for lo, hi in tree.edge_levels[1:]:
        marked[lo:hi] &= marked[parents[lo:hi]]
    return np.flatnonzero(marked)


def gkr_round(tree: ShallowTree, xhat, rng) -> frozenset:
    """Sample a marked subtree: root edges keep their own probability,
    deeper edges survive with probability xhat / parent's xhat given the
    parent was marked. Returns the marked tree-edge ids."""
    draws = rng.random(tree.num_edges)
    return frozenset(_mark(tree, _marking_thresholds(tree, xhat), draws).tolist())


@dataclass(frozen=True)
class PathDistribution:
    """Weighted source-target paths extracted from one tree edge's flow."""

    tree_edge: int
    paths: tuple[EdgePath, ...]
    weights: tuple[float, ...]
    discarded: float  # circulation mass left behind, in flow units
    # running sums of the weights, added in order (np.cumsum is sequential)
    cdf: np.ndarray = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "cdf", np.cumsum(self.weights))

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
    for e in range(graph.num_edges):
        if flow[e] < -1e-9:
            raise ValueError(f"negative flow {flow[e]} on edge {e}")
        residual[e] = max(0.0, flow[e])

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


def _pick(cdf: np.ndarray, counts: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Per row of `draws`, the index of the first cumulative weight above
    each draw, or the row's last path when the draw lies above them all.

    cdf: (rows, width), each row padded with +inf past its `counts` paths;
    draws: (rows, k). Cumulative weights never decrease, so the index is
    the number of weights at or below the draw.
    """
    above = (draws[:, :, None] >= cdf[:, None, :]).sum(axis=2)
    return np.minimum(above, counts[:, None] - 1)


def sample_path(dist: PathDistribution, rng) -> EdgePath:
    """One path, drawn with probability its weight (one uniform)."""
    draw = np.array([[rng.random()]])
    return dist.paths[int(_pick(dist.cdf[None, :], np.array([len(dist.paths)]), draw)[0, 0])]


class IterationSampler:
    """Shared machinery for rounding iterations.

    Holds the marking thresholds of the clamped tree values and the path
    distribution of every markable tree edge (`distributions`, decomposed
    once here, in ascending edge order), so repeated iterations (rounding,
    Monte Carlo probes) never re-decompose a flow. The paths of all
    distributions get global ids (`paths`), and their cumulative weights
    one row each of a padded table, so one iteration's draws are a single
    lookup.

    Random stream of one iteration: `tree.num_edges` uniforms for marking,
    then `samples` uniforms per marked tree edge, in ascending edge order.
    `samples` defaults to `default_samples` of the model's beta.
    """

    def __init__(
        self, instance: DstInstance, tree: ShallowTree, lp: LpSolution,
        samples: Optional[int] = None,
    ):
        self.tree = tree
        idx = lp.model.var_index
        self.raw_xhat = lp.at(idx.xhat(np.arange(tree.num_edges)))
        self.clamped = monotone_clamp(tree, self.raw_xhat)
        self.clamped[self.clamped <= SUPPORT_TOL] = 0.0
        self._thresholds = _marking_thresholds(tree, self.clamped)
        beta = lp.model.beta
        if samples is not None:
            self.samples = samples
        elif beta is not None:
            self.samples = default_samples(beta, tree.depth)
        else:
            raise ValueError("samples not set and the model carries no beta")

        g = instance.graph
        edges = np.arange(g.num_edges)
        markable = np.flatnonzero(self.clamped > 0.0)
        self.distributions: dict[int, PathDistribution] = {}
        for ehat in markable.tolist():
            flow = lp.at(idx.f(ehat, edges)).tolist()
            self.distributions[ehat] = decompose_flow(g, tree, ehat, flow, self.raw_xhat[ehat])
        dists = list(self.distributions.values())
        self.paths: list[EdgePath] = [p for d in dists for p in d.paths]  # global id -> path
        self._row = np.full(tree.num_edges, -1)  # table row of each markable edge
        self._row[markable] = np.arange(len(dists))
        self._counts = np.array([len(d.paths) for d in dists], dtype=int)  # paths per row
        self._starts = np.cumsum(self._counts) - self._counts  # global id of each row's first path
        self._cdf = np.full((len(dists), self._counts.max(initial=0)), np.inf)
        for row, dist in enumerate(dists):
            self._cdf[row, : len(dist.paths)] = dist.cdf

    def draw(self, rng) -> tuple[np.ndarray, np.ndarray]:
        """One iteration: the marked tree edges, ascending, and the global
        ids of the paths drawn for them, `samples` per edge in draw order."""
        marked = _mark(self.tree, self._thresholds, rng.random(self.tree.num_edges))
        rows = self._row[marked]
        draws = rng.random(len(marked) * self.samples).reshape(len(marked), self.samples)
        picks = _pick(self._cdf[rows], self._counts[rows], draws)
        return marked, (self._starts[rows][:, None] + picks).ravel()

    def sample_draws(self, rng) -> list[tuple[int, int, EdgePath]]:
        """One iteration as (tree edge, sample index, path) triples in draw order."""
        marked, path_ids = self.draw(rng)
        ehats = marked.tolist()
        return [
            (ehats[i // self.samples], i % self.samples + 1, self.paths[p])
            for i, p in enumerate(path_ids.tolist())
        ]

    def sample_edges(self, rng) -> frozenset:
        """Graph edges realised by one iteration."""
        _, path_ids = self.draw(rng)
        return frozenset(e for p in np.unique(path_ids).tolist() for e in self.paths[p].edges)


def round_solution(
    instance: DstInstance,
    tree: ShallowTree,
    lp: LpSolution,
    seed: int,
    iterations: int,
    samples: Optional[int] = None,
) -> SolutionSubgraph:
    """Union of `iterations` (J) independent rounding iterations, with its
    provenance and the run's parameters in `meta`; `samples` (L) is passed
    on to `IterationSampler`. The union is neither pruned nor verified.

    An edge's provenance is the (iteration, tree edge, sample index) of the
    first draw whose path contains it. Within an iteration only the first
    draw of each path not seen before can add edges, so the union walks
    those in draw order.
    """
    if lp.status != OPTIMAL:
        raise ValueError(f"need an optimal LP solution, got status {lp.status!r}")
    sampler = IterationSampler(instance, tree, lp, samples)

    edges: set[int] = set()
    provenance: dict[int, tuple] = {}
    seen: set[int] = set()
    drawn = 0
    last_new = 0
    samples = sampler.samples
    for j in range(1, iterations + 1):
        marked, path_ids = sampler.draw(np.random.default_rng((seed, j)))
        drawn += len(path_ids)
        ids, first = np.unique(path_ids, return_index=True)
        order = np.argsort(first)
        for p, i in zip(ids[order].tolist(), first[order].tolist()):
            if p in seen:
                continue
            seen.add(p)
            for e in sampler.paths[p].edges:
                if e not in edges:
                    edges.add(e)
                    provenance[e] = (j, int(marked[i // samples]), i % samples + 1)
                    last_new = j
    log.info(
        "rounding: %d iterations, %d paths drawn, %d distinct paths realised, "
        "last new edge in iteration %d",
        iterations, drawn, len(seen), last_new,
    )
    meta = {
        "seed": seed,
        "iterations": iterations,
        "samples": samples,
        "beta": lp.model.beta,
        "lp_objective": lp.objective,
    }
    return SolutionSubgraph.from_edges(instance.graph, edges, provenance, meta)
