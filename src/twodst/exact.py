"""Exact optimum by branch and bound, and random test instances.

The search branches on the inclusion of each positive-cost edge in
descending cost order, pruning by incumbent cost and by feasibility of
the remaining pool. Intended as a ground-truth oracle on small graphs,
so the edge count is capped rather than allowed to explode.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import ExactTimeoutError, SizeLimitError
from .graph import DirectedMultigraph, DstInstance, max_flow_unit
from .verify import reverse_delete

DEFAULT_MAX_EDGES = 22
COST_EPS = 1e-12


@dataclass(frozen=True)
class ExactConfig:
    max_edges: int = DEFAULT_MAX_EDGES
    time_budget: Optional[float] = None  # seconds, checked periodically

    def __post_init__(self):
        if self.max_edges < 1:
            raise ValueError(f"max_edges must be >= 1, got {self.max_edges}")
        if self.time_budget is not None and not (0 < self.time_budget < math.inf):
            raise ValueError(f"time_budget must be positive and finite, got {self.time_budget}")


class ExactResult(NamedTuple):
    feasible: bool
    cost: Optional[float]
    edges: Optional[frozenset]


def exact_2dst(instance: DstInstance, config: ExactConfig = ExactConfig()) -> ExactResult:
    """Minimum-cost edge set giving two edge-disjoint root paths per terminal."""
    g = instance.graph
    if g.num_edges > config.max_edges:
        raise SizeLimitError(
            "instance too large for exhaustive search", g.num_edges, config.max_edges
        )
    start = time.monotonic()
    terminals = instance.sorted_terminals()

    def feasible(edge_ids) -> bool:
        return all(
            max_flow_unit(g, instance.root, t, restrict_to=edge_ids, limit=2)[0] >= 2
            for t in terminals
        )

    all_edges = frozenset(range(g.num_edges))
    if not feasible(all_edges):
        return ExactResult(False, None, None)

    # zero-cost edges are free to keep, so fix them in and search over the rest
    base = frozenset(e for e in range(g.num_edges) if g.costs[e] <= 0.0)
    order = sorted(all_edges - base, key=lambda e: (-g.costs[e], -e))

    kept = reverse_delete(instance, all_edges)
    best_cost = g.total_cost(kept)
    best_set = kept

    # depth-first over (next position, included edges, their cost), with an
    # explicit stack so the depth is not bounded by Python's recursion limit;
    # the exclude branch is pushed last, so it is searched first
    stack = [(0, frozenset(), 0.0)]
    nodes = 0
    while stack:
        i, included, cost_so_far = stack.pop()
        if config.time_budget is not None and nodes % 256 == 0:
            if time.monotonic() - start > config.time_budget:
                raise ExactTimeoutError(
                    f"exact search exceeded {config.time_budget}s after {nodes} nodes"
                )
        nodes += 1
        if cost_so_far >= best_cost - COST_EPS:
            continue
        current = base | included
        if feasible(current):
            best_cost = cost_so_far
            best_set = current
            continue  # supersets only cost more
        # the undecided edges are built only here, so memory stays linear
        # in the edge count
        if i == len(order) or not feasible(current.union(order[i:])):
            continue
        e = order[i]
        stack.append((i + 1, included | {e}, cost_so_far + g.costs[e]))
        stack.append((i + 1, included, cost_so_far))

    # drop the free edges the optimum does not need: on an optimum no edge
    # costing more than COST_EPS can go, so reverse-delete only drops those;
    # the running sums only prune, and the cost reported is the edges' own
    edges = reverse_delete(instance, best_set)
    return ExactResult(True, g.total_cost(edges), edges)


def random_instance(
    n: int,
    m: int,
    h: int,
    cost_range: tuple[float, float] = (1.0, 10.0),
    seed: int = 0,
    guarantee_feasible: bool = True,
) -> DstInstance:
    """Random multigraph instance with root "v0" and h random terminals.

    With guarantee_feasible, every terminal gets two planted edge-disjoint
    branches from the root (direct edges or two-hop detours, parallel
    copies allowed), which needs an edge budget of m >= 2 h. Remaining
    edges are uniform random non-loops; costs are uniform in cost_range.
    """
    if n < 2:
        raise ValueError(f"need at least 2 vertices, got {n}")
    if not 1 <= h <= n - 1:
        raise ValueError(f"need 1 <= h <= n - 1 terminals, got {h}")
    if guarantee_feasible and m < 2 * h:
        raise ValueError(f"planting 2 branches per terminal needs m >= {2 * h}, got {m}")
    lo, hi = cost_range
    if not 0 <= lo <= hi:
        raise ValueError(f"bad cost range {cost_range}")

    rng = np.random.default_rng(seed)
    vertices = [f"v{i}" for i in range(n)]
    root = vertices[0]
    picked = rng.choice(np.arange(1, n), size=h, replace=False)
    terminals = sorted(vertices[i] for i in picked)

    pairs: list[tuple[str, str]] = []
    if guarantee_feasible:
        branches_left = 2 * h
        for t in terminals:
            for _ in range(2):
                branches_left -= 1
                budget = m - len(pairs)
                others = [v for v in vertices if v not in (root, t)]
                detour = (
                    others
                    and budget >= 2 + branches_left
                    and rng.random() < 0.5
                )
                if detour:
                    w = others[int(rng.integers(len(others)))]
                    pairs.append((root, w))
                    pairs.append((w, t))
                else:
                    pairs.append((root, t))
    while len(pairs) < m:
        tail, head = rng.integers(0, n, size=2)
        if tail == head:
            continue
        pairs.append((vertices[tail], vertices[head]))

    perm = rng.permutation(len(pairs))
    costs = rng.uniform(lo, hi, size=len(pairs))
    edges = [(pairs[i][0], pairs[i][1], float(c)) for i, c in zip(perm, costs)]
    return DstInstance(DirectedMultigraph(vertices, edges), root, frozenset(terminals))
