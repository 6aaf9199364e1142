"""End-to-end solve: preflight, tree, LP, rounding, verification.

The LP stage always solves the live relaxation with HiGHS (`lp_solver.solve`),
so `PipelineResult.lp_objective` is HiGHS's optimum of that relaxation, the
value the CLI reports as the lower bound.

The congestion parameter starts at its analytic value and doubles on LP
infeasibility, at most BETA_RETRIES times; that keeps the pipeline
alive on instances where the initial bound is numerically too tight,
and the final value is reported so runs stay attributable.
"""

from __future__ import annotations

import logging
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
from .verify import FeasibilityReport, feasibility_report

log = logging.getLogger(__name__)

# times the congestion parameter may double after an infeasible LP
BETA_RETRIES = 4


@dataclass(frozen=True)
class PipelineConfig:
    """Every run setting with its one default and its one check; iterations
    and samples of None mean the analytic J and L."""

    depth: int = 2
    seed: int = 0
    beta_multiplier: float = 1.0
    iterations: Optional[int] = None
    samples: Optional[int] = None
    iteration_multiplier: float = 2.0
    prune: bool = False

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        if self.iterations is not None and self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.samples is not None and self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.beta_multiplier <= 0:
            raise ValueError("beta_multiplier must be positive")
        if self.iteration_multiplier <= 0:
            raise ValueError("iteration_multiplier must be positive")


@dataclass(frozen=True)
class PipelineResult:
    solution: SolutionSubgraph
    report: FeasibilityReport
    lp_objective: float
    beta: int
    tree_nodes: int
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
        value, _ = max_flow_unit(g, instance.root, t)
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
        lp.objective, beta, lp.iterations, lp.solved_shape,
    )

    t0 = clock()
    iterations = config.iterations
    if iterations is None:
        iterations = default_iterations(config.depth, g.num_vertices, config.iteration_multiplier)
    solution = round_solution(
        instance, tree, lp, config.seed, iterations, config.samples, config.prune
    )
    timings["round"] = clock() - t0

    t0 = clock()
    report = feasibility_report(instance, solution.edges)
    timings["verify"] = clock() - t0
    log.info("rounded cost %.6f, feasible=%s", solution.cost, report.feasible)

    return PipelineResult(
        solution=solution,
        report=report,
        lp_objective=lp.objective,
        beta=beta,
        tree_nodes=tree.num_nodes,
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
