"""Approximation toolkit for 2-connected directed Steiner problems.

The pipeline solves a depth-bounded tree relaxation by LP and rounds it
into a subgraph carrying two edge-disjoint root-terminal paths per
terminal; reductions cover the pairwise and vertex-connectivity
variants, and a branch-and-bound oracle gives exact optima on small
instances.
"""

from .errors import (
    ExactTimeoutError,
    InfeasibleInstanceError,
    ModelInconsistencyError,
    SizeLimitError,
    SolverError,
    TwoDstError,
)
from .exact import ExactConfig, ExactResult, exact_2dst, random_instance
from .graph import DirectedMultigraph, DstInstance, EdgePath, max_flow_unit
from .io import dump_instance_json, dump_instance_text, load_instance, parse_instance, save_instance
from .lp_model import LpModel, LpSolution, build_lp, congestion_parameter, export_lp
from .lp_solver import solve
from .pipeline import PipelineConfig, PipelineResult, make_pipeline_solver, run_pipeline
from .reductions import (
    DssInstance,
    dss_via_dst,
    dss_vertex_via_dst,
    solve_vertex_2dst,
    vertex_split,
)
from .rounding import gkr_round, round_solution
from .shallow_tree import ShallowTree, build_shallow_tree
from .solution import SolutionSubgraph
from .verify import FeasibilityReport, feasibility_report

__version__ = "0.1.0"

__all__ = [
    "DirectedMultigraph",
    "DssInstance",
    "DstInstance",
    "EdgePath",
    "ExactConfig",
    "ExactResult",
    "ExactTimeoutError",
    "FeasibilityReport",
    "InfeasibleInstanceError",
    "LpModel",
    "LpSolution",
    "ModelInconsistencyError",
    "PipelineConfig",
    "PipelineResult",
    "ShallowTree",
    "SizeLimitError",
    "SolutionSubgraph",
    "SolverError",
    "TwoDstError",
    "build_lp",
    "build_shallow_tree",
    "congestion_parameter",
    "dss_via_dst",
    "dss_vertex_via_dst",
    "dump_instance_json",
    "dump_instance_text",
    "exact_2dst",
    "export_lp",
    "feasibility_report",
    "gkr_round",
    "load_instance",
    "make_pipeline_solver",
    "max_flow_unit",
    "parse_instance",
    "random_instance",
    "round_solution",
    "run_pipeline",
    "save_instance",
    "solve",
    "solve_vertex_2dst",
    "vertex_split",
]
