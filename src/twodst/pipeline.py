"""End-to-end solve: preflight, tree, LP, rounding, pruning, verification.

The LP stage always solves the live relaxation with HiGHS (`lp_solver.solve`),
so `PipelineResult.lp_objective` is HiGHS's optimum of that relaxation, the
value the CLI reports as the lower bound.

The congestion parameter beta starts at its analytic value and doubles on
LP infeasibility, at most BETA_RETRIES times, and the final value is
reported so runs stay attributable. Once the preflight has passed, the LP
is feasible at every beta >= h, the number of terminals. Take x = 1 on
every graph edge and, for each terminal t, two edge-disjoint simple
root -> t paths P1 and P2. The tree has a depth-1 edge root -> t in each
copy, since t is reachable from the root. Set xh = fh_t = 1 on the two,
and f = ft_t = 1 along P1 on the first and along P2 on the second; every
other column is 0. Each tree edge's graph flow is then a unit root -> t
path that never re-enters the root, t's group row gets 2 and its other
gst rows hold zeros only, and no bounded column exceeds the one bounding
it (fh <= xh, f <= x, ft <= f). A graph edge lies on at most one of a
terminal's two paths, so it carries at most one unit per terminal: at
most h <= beta of tree-edge flow (cong) and at most 1 = x_e of each
terminal's (div). Every column used is live: fh_t by rule (a), as t's
node is the tree edge's own child, and f and ft by rule (c), as a path
edge (a, b) has a reachable from the root, t reachable from b, and b not
the root (see `lp_model`). So the retry serves only a start below h:
a `beta_multiplier` below 1, or an analytic value ceil(2 D h^(1/D))
below h, which first happens at h = 17 (h = 18 at depth 2, never at
depth 1). Below h, feasibility rests on the height reduction (Zelikovsky,
Algorithmica 18, 1997), and the retry doubles beta toward h.

The support {e : x_e > 0} of a feasible LP point is a feasible edge set.
Padded with zeros on the dead columns, the point satisfies the full
relaxation; for a terminal t, fh_t sends at least 2 from the root into
t's group, is conserved elsewhere and leaves no t-node (rule (a)), and
each ft_(t,ê,·) carries fh_(t,ê) from ê's upper label to its lower one,
so their sum over ê is a root -> t flow of value >= 2, at most x_e <= 1 on
e (div cap) and 0 off the support. Its paths via edges with x_e <= 1e-9
carry under one unit and max flow is integral, so {e : x_e > 1e-9} has
two edge-disjoint paths too; every rounding union lies in it (f <= x).

Rounding only samples (`rounding.round_solution`). With `prune` the
pipeline reverse-deletes the union and keeps the provenance of the kept
edges; it then runs the solve's one max-flow verification and records
`feasible` and `pruned` in the solution meta.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from typing import Mapping, Optional

from .errors import InfeasibleInstanceError, SolverError
from .graph import DstInstance, max_flow_unit
from .lp_model import INFEASIBLE, OPTIMAL, build_lp, congestion_parameter
from .lp_solver import solve
from .rounding import default_iterations, round_solution
from .shallow_tree import build_shallow_tree
from .solution import SolutionSubgraph
from .verify import FeasibilityReport, feasibility_report, reverse_delete

log = logging.getLogger(__name__)

# times the congestion parameter may double after an infeasible LP
BETA_RETRIES = 4


@dataclass(frozen=True)
class PipelineConfig:
    """Every run setting with its one default and its one check; iterations
    and samples of None mean the analytic J (`rounding.default_iterations`)
    and L."""

    depth: int = 2
    seed: int = 0
    beta_multiplier: float = 1.0
    iterations: Optional[int] = None
    samples: Optional[int] = None
    prune: bool = False

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.iterations is not None and self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.samples is not None and self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not (0 < self.beta_multiplier < math.inf):
            raise ValueError("beta_multiplier must be positive and finite")


@dataclass(frozen=True)
class PipelineResult:
    solution: SolutionSubgraph
    report: FeasibilityReport
    lp_objective: float
    beta: int
    timings: Mapping[str, float]

    @property
    def feasible(self) -> bool:
        return self.report.feasible

    @property
    def ratio_vs_lp(self) -> Optional[float]:
        if self.lp_objective > 0:
            return self.solution.cost / self.lp_objective
        return None


def run_pipeline(instance: DstInstance, config: PipelineConfig) -> PipelineResult:
    g = instance.graph
    timings: dict[str, float] = {}
    clock = time.perf_counter

    t0 = clock()
    for t in sorted(instance.terminals):
        value, _ = max_flow_unit(g, instance.root, t, limit=2)
        if value < 2:
            raise InfeasibleInstanceError(
                f"terminal {t!r} admits only {value} disjoint paths from the root"
            )
    timings["preflight"] = clock() - t0

    t0 = clock()
    tree = build_shallow_tree(instance, config.depth)
    timings["tree"] = clock() - t0
    log.info("tree built: %d nodes, %d edges", tree.num_nodes, tree.num_edges)

    t0 = clock()
    beta = congestion_parameter(config.depth, instance.num_terminals, config.beta_multiplier)
    attempts = 0
    while True:
        model = build_lp(instance, tree, beta)
        lp = solve(model)
        if lp.status == OPTIMAL:
            break
        if lp.status == INFEASIBLE and attempts < BETA_RETRIES:
            attempts += 1
            beta *= 2
            log.info("LP infeasible, retrying with congestion parameter %d", beta)
            continue
        detail = ""
        if lp.certificate is not None:
            detail = f"; irreducible rows in families {sorted(lp.certificate.families())}"
        raise SolverError(f"LP finished with status {lp.status!r}{detail}")
    timings["lp"] = clock() - t0
    log.info(
        "LP solved: objective %.6f, congestion parameter %d, %s HiGHS iterations, "
        "solved shape (rows, columns, nonzeros) %s",
        lp.objective, beta, lp.iterations, (model.num_rows, model.num_vars, model.nonzeros()),
    )

    t0 = clock()
    iterations = config.iterations
    if iterations is None:
        iterations = default_iterations(config.depth, g.num_vertices)
    union = round_solution(instance, tree, lp, config.seed, iterations, config.samples)
    edges, provenance = union.edges, union.provenance
    if config.prune:
        edges = reverse_delete(instance, edges)
        provenance = {e: p for e, p in provenance.items() if e in edges}
    timings["round"] = clock() - t0

    t0 = clock()
    report = feasibility_report(instance, edges)
    timings["verify"] = clock() - t0
    meta = {**union.meta, "feasible": report.feasible, "pruned": config.prune}
    solution = SolutionSubgraph.from_edges(g, edges, provenance, meta)
    log.info("rounded cost %.6f, feasible=%s", solution.cost, report.feasible)

    return PipelineResult(
        solution=solution,
        report=report,
        lp_objective=lp.objective,
        beta=beta,
        timings=timings,
    )


def make_pipeline_solver(config: PipelineConfig):
    """Adapt the pipeline to the reduction solver contract.

    Infeasible instances raise through the preflight check; a rounding
    miss (possible, the loop count only gives high probability) returns
    the infeasible subgraph and is caught by the reduction's own checks.
    """

    def run(instance: DstInstance) -> SolutionSubgraph:
        return run_pipeline(instance, config).solution

    return run
