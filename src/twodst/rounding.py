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
decomposes those edges, and only those, once when it is built.

Random stream: a run with seed s draws from one `default_rng(s)`. The
run is a J x W matrix of uniforms, W = `tree.num_edges` + M * L, where M
is the number of markable tree edges and L the samples per marked edge
(the tree holds only edges with a terminal below them, so W counts those).
Row j (counting from 1, as provenance does) is iteration j. Column
e < `tree.num_edges` marks tree edge e; the k-th markable edge, in
ascending order, owns the L columns from `tree.num_edges` + k * L, and
an unmarked edge leaves its columns unused. A path is the first one
whose running weight sum exceeds its uniform, or the last path.
Iteration j thus depends on neither J nor how the rows are grouped: the
union of J iterations is a prefix of the union of J + 1. Once every path
of every distribution has been drawn, `round_solution` draws no more rows:
a later draw repeats a path, so it adds no edge, and it changes no
provenance (the first draw that holds an edge), so the union of J rows is
already final.

The rows are drawn in blocks of 1, 2, 4, ... rows, capped by a bound in
bytes (`BLOCK_BYTES`), not by J (`IterationSampler.draw_blocks`), so the
stop lands within twice the rows it needs. A block is marked by one
threshold compare and one AND per tree level over its rows. A marked
(row, tree edge) pair whose distribution has one path takes that path L
times without reading its uniforms; the L paths of every other marked
pair are one lookup in a table of cumulative weights. Either way each
drawn row is drawn in full, and generator output does not depend on how
it is split into calls, so a seed fixes the solution byte for byte.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .errors import ModelInconsistencyError
from .graph import DstInstance, EdgePath
from .lp_model import OPTIMAL, LpSolution
from .shallow_tree import ShallowTree
from .solution import SolutionSubgraph

log = logging.getLogger(__name__)

SUPPORT_TOL = 1e-9
STRIP_TOL = 1e-12
# transient bytes of one block of iterations; a block holds at least one row
BLOCK_BYTES = 1 << 21


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
    """Per row of `draws` (rows, tree edges), which tree edges are marked: an
    edge is marked when its draw falls below its threshold and its parent
    edge is marked, level by level."""
    marked = draws < thresholds
    parents = tree.edge_parents
    for lo, hi in tree.edge_levels[1:]:
        marked[:, lo:hi] &= marked[:, parents[lo:hi]]
    return marked


def gkr_round(tree: ShallowTree, xhat, rng) -> frozenset:
    """Sample a marked subtree: root edges keep their own probability,
    deeper edges survive with probability xhat / parent's xhat given the
    parent was marked. Returns the marked tree-edge ids."""
    draws = rng.random((1, tree.num_edges))
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
    """Greedy shortest-path stripping of a source-target flow.

    Repeatedly takes the BFS-shortest source-target path in the positive
    support (ties broken toward smaller edge ids), subtracts its
    bottleneck, and stops when the remaining source outflow is below
    1e-9. Weights are normalized by the stripped total, which must match
    the tree-edge value; flow stuck on cycles is discarded.
    """
    source, target = tree.edge_endpoints_labels(tree_edge)
    flow = np.asarray(flow, dtype=float)
    residual = flow.tolist()
    # only a flow with an entry below 0 is checked and clamped (and one
    # that starts with a NaN, which min cannot order)
    if not min(residual, default=0.0) >= 0.0:
        negative = np.flatnonzero(flow < -1e-9)
        if len(negative):
            raise ValueError(f"negative flow {flow[negative[0]]} on edge {negative[0]}")
        residual = np.maximum(flow, 0.0).tolist()

    out = graph.out_edges(source)
    strips: list[tuple[tuple[int, ...], float]] = []
    while True:
        outflow = sum(residual[e] for e in out)
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
    """Lexicographically-smallest shortest path in the positive support.

    The backward search stops after the level that reaches the source: the
    walk from the source reads only the distances below its own."""
    in_edges, tails, heads = graph.in_edges, graph.tails, graph.heads
    dist = {target: 0}
    frontier = [target]
    while frontier and source not in dist:
        nxt = []
        for v in frontier:
            d = dist[v] + 1
            for e in in_edges(v):
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
        # out_edges lists edge ids ascending, so the first step is the smallest
        d = dist[v] - 1
        step = next(e for e in graph.out_edges(v)
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


class Block(NamedTuple):
    """Consecutive iterations drawn together. One entry per marked
    (iteration, tree edge) pair, in draw order: by row, then by tree edge."""

    first: int  # iteration index of the block's first row, from 0
    size: int  # rows (iterations) in the block
    row: np.ndarray  # row of each pair within the block, ascending
    ehat: np.ndarray  # marked tree edge of each pair
    paths: np.ndarray  # (pairs, samples): global ids of the paths drawn
    multi: np.ndarray  # whether each pair's distribution has two or more paths


class IterationSampler:
    """Shared machinery for rounding iterations.

    Holds the marking thresholds of the clamped tree values and the path
    distribution of every markable tree edge (`distributions`, decomposed
    once here, in ascending edge order), so repeated iterations (rounding,
    Monte Carlo probes) never re-decompose a flow. The paths of all
    distributions get global ids (`paths`), and their cumulative weights
    one row each of a padded table, so the draws of a block's pairs with
    two or more paths are a single lookup.

    Random stream: `width` uniforms per iteration, laid out as in the
    module docstring; `draw_blocks` is the one draw, and `sample_draws`
    reads its first row. `samples` defaults to
    `default_samples` of the model's beta.
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
        markable = np.flatnonzero(self.clamped > 0.0)
        flows = lp.at(idx.f(markable[:, None], np.arange(g.num_edges)))  # a row per markable edge
        self.distributions: dict[int, PathDistribution] = {
            ehat: decompose_flow(g, tree, ehat, flow, self.raw_xhat[ehat])
            for ehat, flow in zip(markable.tolist(), flows)
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
        # first uniform column of each markable edge's samples
        self._col = np.full(tree.num_edges, -1)
        self._col[markable] = tree.num_edges + self.samples * np.arange(len(dists))
        self.width = tree.num_edges + self.samples * len(dists)

    def block_rows(self) -> int:
        """Most rows in one block: `BLOCK_BYTES` over a bound on a row's
        transient bytes. A row draws `width` uniforms and at most `width`
        path samples; each sample passes through about seven 8-byte arrays
        (columns, draws, counts, picks, path ids, the union's sort) and
        the pick's compare, one byte per path of the widest distribution."""
        return max(1, BLOCK_BYTES // (self.width * (64 + self._cdf.shape[1])))

    def draw_blocks(self, rng, iterations: int) -> Iterator[Block]:
        """`iterations` rows of the stream, drawn and evaluated in blocks
        of 1, 2, 4, ... rows, capped at `block_rows()`: a caller that stops
        early has drawn at most about twice the rows it read."""
        te = self.tree.num_edges
        ells = np.arange(self.samples)
        cap, first, size = self.block_rows(), 0, 1
        while first < iterations:
            size = min(size, cap, iterations - first)
            uniforms = rng.random((size, self.width))
            row, ehat = np.nonzero(_mark(self.tree, self._thresholds, uniforms[:, :te]))
            table = self._row[ehat]
            multi = self._counts[table] > 1
            paths = np.repeat(self._starts[table][:, None], self.samples, axis=1)
            at = np.flatnonzero(multi)
            draws = uniforms[row[at, None], self._col[ehat[at]][:, None] + ells]
            paths[at] += _pick(self._cdf[table[at]], self._counts[table[at]], draws)
            yield Block(first, size, row, ehat, paths, multi)
            first, size = first + size, 2 * size

    def sample_draws(self, rng) -> list[tuple[int, int, EdgePath]]:
        """One iteration as (tree edge, sample index, path) triples in draw
        order: the marked tree edges ascending, `samples` paths each."""
        block = next(self.draw_blocks(rng, 1))
        ehats = block.ehat.tolist()
        return [
            (ehats[i // self.samples], i % self.samples + 1, self.paths[p])
            for i, p in enumerate(block.paths.ravel().tolist())
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
    first draw whose path contains it. Within a block only the first draw
    of each path not seen before can add edges, so the union walks those
    in draw order. All L draws of a pair whose distribution has one path
    are that path, so such a pair counts once, by its first draw (sample
    index 1); the other pairs count draw by draw. No path belongs to both
    kinds of distribution, so each kind finds its paths' first draws alone.

    The loop stops once every path has been drawn (`seen.all()`), whatever
    J is: a later draw repeats a path, so it adds no edge, and it cannot
    change a provenance, which is the first draw that holds the edge. The
    union and its provenance are therefore final, and `meta` still reports
    J. With nothing markable there is no path and the first block ends it.
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
    ells = np.arange(samples)
    for block in sampler.draw_blocks(np.random.default_rng(seed), iterations):
        rows_drawn += block.size
        single, multi = np.flatnonzero(~block.multi), np.flatnonzero(block.multi)
        # each candidate draw: its path and its index in the block's draw order
        path_ids = np.concatenate([block.paths[single, 0], block.paths[multi].ravel()])
        draw_at = np.concatenate([single * samples, (multi[:, None] * samples + ells).ravel()])
        ids, first = np.unique(path_ids, return_index=True)
        new = ~seen[ids]
        seen[ids] = True
        ids, first = ids[new], draw_at[first[new]]
        order = np.argsort(first)
        for p, i in zip(ids[order].tolist(), first[order].tolist()):
            pair = i // samples
            j = block.first + int(block.row[pair]) + 1
            for e in sampler.paths[p].edges:
                if e not in edges:
                    edges.add(e)
                    provenance[e] = (j, int(block.ehat[pair]), i % samples + 1)
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
