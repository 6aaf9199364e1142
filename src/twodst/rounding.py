"""Randomized rounding of the tree relaxation: a sampler and nothing more.

One iteration marks a random subtree (each tree edge survives with
probability proportional to its value over its parent's), then realizes
every marked tree edge by sampling paths from the flow decomposition of
its graph flow. `round_solution` unions J iterations and records where
each edge came from; pruning the union and the feasibility verdict belong
to the caller (`pipeline.run_pipeline`).

Marking uses monotonically clamped tree values so parent ratios stay in
[0,1]; decompositions use the raw LP values. A tree edge can be marked
exactly when its clamped value is positive, so `IterationSampler`
decomposes those edges, and only those, once when it is built, each from
its live f columns (`LpSolution.graph_flow`), where its flow lives: no
array of rounding is sized tree edges x graph edges.

Random stream: a run with seed s draws from one `default_rng(s)`, one
row of W uniforms per iteration, W = `tree.num_edges` + M * L, where M
is the number of markable tree edges and L the samples per marked edge
(the tree holds only edges with a terminal below them, so W counts those).
Row j (counting from 1, as provenance does) is iteration j. Column
e < `tree.num_edges` marks tree edge e; the k-th markable edge, in
ascending order, owns the L columns from `tree.num_edges` + k * L, and
an unmarked edge leaves its columns unused. A path is the first one
whose running weight sum exceeds its uniform, or the last path.
Iteration j thus depends on neither J nor the rows after it: the union
of J iterations is a prefix of the union of J + 1. Once every path of
every distribution has been drawn, `round_solution` draws no more rows:
a later draw repeats a path, so it adds no edge, and it changes no
provenance (the first draw that holds an edge), so the union of J rows is
already final.

A row is marked by one threshold compare and one AND per tree level, and
the L paths of every marked tree edge are one lookup in a table of
cumulative weights (`IterationSampler.draw_rows`). Each drawn row is drawn
in full, so a seed fixes the solution byte for byte.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterator, Optional

import numpy as np

from .errors import ModelInconsistencyError
from .graph import DstInstance, EdgePath
from .lp_model import OPTIMAL, LpSolution
from .shallow_tree import ShallowTree
from .solution import SolutionSubgraph

log = logging.getLogger(__name__)

SUPPORT_TOL = 1e-9
STRIP_TOL = 1e-12


def default_iterations(depth: int, num_vertices: int) -> int:
    """Outer loop count J: ceil(40 * D * ln n), floored at 1."""
    return max(1, math.ceil(40.0 * depth * math.log(num_vertices)))


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
    """Which tree edges one row of `draws` marks: an edge is marked when its
    draw falls below its threshold and its parent edge is marked, level by
    level."""
    marked = draws < thresholds
    parents = tree.edge_parents
    for lo, hi in tree.edge_levels[1:]:
        marked[lo:hi] &= marked[parents[lo:hi]]
    return marked


def gkr_round(tree: ShallowTree, xhat, rng) -> frozenset:
    """Sample a marked subtree: root edges keep their own probability,
    deeper edges survive with probability xhat / parent's xhat given the
    parent was marked. Returns the marked tree-edge ids."""
    draws = rng.random(tree.num_edges)
    return frozenset(np.flatnonzero(_mark(tree, _marking_thresholds(tree, xhat), draws)).tolist())


@dataclass(frozen=True)
class PathDistribution:
    """Weighted source-target paths extracted from one tree edge's flow."""

    tree_edge: int
    paths: tuple[EdgePath, ...]
    weights: tuple[float, ...]
    discarded: float  # circulation mass left behind, in flow units
    # running sums of the weights, added in order
    cdf: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.paths:
            raise ValueError("a distribution needs at least one path")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        cdf = list(accumulate(self.weights))
        if abs(cdf[-1] - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {cdf[-1]}, not 1")
        src = self.paths[0].source
        dst = self.paths[0].target
        for p in self.paths:
            if p.source != src or p.target != dst:
                raise ValueError("support paths must share endpoints")
        object.__setattr__(self, "cdf", np.array(cdf))


def decompose_flow(
    graph, tree: ShallowTree, tree_edge: int, flow, xhat_value: float
) -> PathDistribution:
    """Greedy shortest-path stripping of a source-target flow, given as
    {graph edge: value} (`LpSolution.graph_flow`; a missing edge carries 0).

    Repeatedly takes the BFS-shortest source-target path in the positive
    support, searched over the support's own edges only (ties broken
    toward smaller edge ids), subtracts its
    bottleneck, and stops when the remaining source outflow is below
    1e-9. Weights are normalized by the stripped total, which must match
    the tree-edge value; flow stuck on cycles is discarded.
    """
    source, target = tree.edge_endpoints_labels(tree_edge)
    residual = dict(flow)
    # only a flow with an entry below 0 is checked and clamped (and one
    # that starts with a NaN, which min cannot order)
    if not min(residual.values(), default=0.0) >= 0.0:
        for e, v in residual.items():
            if v < -1e-9:
                raise ValueError(f"negative flow {v} on edge {e}")
            residual[e] = max(v, 0.0)

    # the support's out- and in-edges of each vertex, edge ids ascending:
    # every entry is now >= 0 (or NaN), and strips only lower values, so an
    # edge at 0 never carries a path
    tails, heads = graph.tails, graph.heads
    support_out: dict = {}
    support_in: dict = {}
    for e in sorted(e for e, v in residual.items() if v != 0.0):
        support_out.setdefault(tails[e], []).append(e)
        support_in.setdefault(heads[e], []).append(e)
    out = support_out.get(source, ())
    strips: list[tuple[tuple[int, ...], float]] = []
    while True:
        outflow = sum(residual[e] for e in out)
        if outflow < 1e-9:
            break
        path = _shortest_support_path(graph, residual, support_out, support_in, source, target)
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
    discarded = sum(residual.values())
    return PathDistribution(
        tree_edge,
        tuple(EdgePath(graph, p) for p, _ in strips),
        tuple(w / total for _, w in strips),
        discarded,
    )


def _shortest_support_path(graph, residual, support_out, support_in, source, target):
    """Lexicographically-smallest shortest path in the positive support,
    given each vertex's support out- and in-edges in ascending id.

    The backward search stops after the level that reaches the source: the
    walk from the source reads only the distances below its own."""
    tails, heads = graph.tails, graph.heads
    dist = {target: 0}
    frontier = [target]
    while frontier and source not in dist:
        nxt = []
        for v in frontier:
            d = dist[v] + 1
            for e in support_in.get(v, ()):
                u = tails[e]
                if residual[e] > STRIP_TOL and u not in dist:
                    dist[u] = d
                    nxt.append(u)
        frontier = nxt
    if source not in dist:
        return None
    path = []
    v = source
    while v != target:
        # the support lists edge ids ascending, so the first step is the smallest
        d = dist[v] - 1
        step = next(e for e in support_out[v]
                    if residual[e] > STRIP_TOL and dist.get(heads[e]) == d)
        path.append(step)
        v = heads[step]
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


class IterationSampler:
    """Shared machinery for rounding iterations.

    Holds the marking thresholds of the clamped tree values and the path
    distribution of every markable tree edge (`distributions`, decomposed
    once here from the edge's live f columns, in ascending edge order), so
    repeated iterations (rounding, Monte Carlo probes) never re-decompose a
    flow. The paths of all distributions get global ids (`paths`), and
    their cumulative weights one row each of a padded table, so the draws
    of an iteration's marked edges are a single lookup.

    Random stream: `width` uniforms per iteration, laid out as in the
    module docstring; `draw_rows` is the one draw, and `sample_draws`
    reads its first row. `samples` defaults to
    `default_samples` of the model's beta.
    """

    def __init__(
        self, instance: DstInstance, tree: ShallowTree, lp: LpSolution,
        samples: Optional[int] = None,
    ):
        self.tree = tree
        self.raw_xhat = lp.at(lp.model.var_index.xhat(np.arange(tree.num_edges)))
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

        markable = np.flatnonzero(self.clamped > 0.0)
        self.distributions: dict[int, PathDistribution] = {
            ehat: decompose_flow(instance.graph, tree, ehat, lp.graph_flow(ehat),
                                 self.raw_xhat[ehat])
            for ehat in markable.tolist()
        }
        dists = list(self.distributions.values())
        self.paths: list[EdgePath] = [p for d in dists for p in d.paths]  # global id -> path
        self._row = np.full(tree.num_edges, -1)  # table row of each markable edge
        self._row[markable] = np.arange(len(dists))
        self._counts = np.array([len(d.paths) for d in dists], dtype=int)  # paths per row
        self._starts = np.cumsum(self._counts) - self._counts  # global id of each row's first path
        self._cdf = np.full((len(dists), self._counts.max(initial=0)), np.inf)
        for row, dist in enumerate(dists):
            self._cdf[row, : len(dist.paths)] = dist.cdf
        self.width = tree.num_edges + self.samples * len(dists)

    def draw_rows(self, rng, iterations: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """`iterations` rows of the stream, one per iteration, drawn as they
        are read: each row's marked tree edges, ascending, and the
        (marked, samples) global ids of the paths drawn for them."""
        te = self.tree.num_edges
        ells = np.arange(self.samples)
        for _ in range(iterations):
            uniforms = rng.random(self.width)
            ehat = np.flatnonzero(_mark(self.tree, self._thresholds, uniforms[:te]))
            table = self._row[ehat]
            draws = uniforms[te + self.samples * table[:, None] + ells]
            yield ehat, self._starts[table][:, None] + _pick(
                self._cdf[table], self._counts[table], draws)

    def sample_draws(self, rng) -> list[tuple[int, int, EdgePath]]:
        """One iteration as (tree edge, sample index, path) triples in draw
        order: the marked tree edges ascending, `samples` paths each."""
        ehat, paths = next(self.draw_rows(rng, 1))
        ehats = ehat.tolist()
        return [
            (ehats[i // self.samples], i % self.samples + 1, self.paths[p])
            for i, p in enumerate(paths.ravel().tolist())
        ]


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
    first draw whose path contains it. Within a row only the first draw
    of each path not seen before can add edges, so the union walks those
    in draw order.

    The loop stops at the row that completes the union (`seen.all()`),
    whatever J is, as the module docstring argues; `meta` still reports J.
    With nothing markable there is no path and the first row ends it.
    """
    if lp.status != OPTIMAL:
        raise ValueError(f"need an optimal LP solution, got status {lp.status!r}")
    sampler = IterationSampler(instance, tree, lp, samples)

    edges: set[int] = set()
    provenance: dict[int, tuple] = {}
    seen = np.zeros(len(sampler.paths), dtype=bool)
    rows_drawn = 0
    last_new = 0
    samples = sampler.samples
    rows = sampler.draw_rows(np.random.default_rng(seed), iterations)
    for j, (ehat, paths) in enumerate(rows, 1):
        rows_drawn = j
        # each path's first draw, as its index in the row's draw order
        ids, first = np.unique(paths, return_index=True)
        new = ~seen[ids]
        seen[ids] = True
        ids, first = ids[new], first[new]
        order = np.argsort(first)
        for p, i in zip(ids[order].tolist(), first[order].tolist()):
            for e in sampler.paths[p].edges:
                if e not in edges:
                    edges.add(e)
                    provenance[e] = (j, int(ehat[i // samples]), i % samples + 1)
                    last_new = j
        if seen.all():  # every later draw repeats a path: the union is final
            break
    log.info(
        "rounding: %d of %d iterations drawn, %d distinct paths realised, "
        "last new edge in iteration %d",
        rows_drawn, iterations, int(seen.sum()), last_new,
    )
    meta = {
        "seed": seed,
        "iterations": iterations,
        "samples": samples,
        "beta": lp.model.beta,
        "lp_objective": lp.objective,
    }
    return SolutionSubgraph.from_edges(instance.graph, edges, provenance, meta)
