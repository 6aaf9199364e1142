"""Runner behind perfbench/run.py: set-up, closed-loop passes, checks, metrics.

A pass solves every item of the workload once, one operation at a time.
Operation time counts only calls into the solver (file load, solve, exact
solve); the independent checks run after each operation, outside it.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import twodst.exact as t_exact
import twodst.graph as t_graph
import twodst.io as t_io
import twodst.lp_solver as t_lp_solver
import twodst.pipeline as t_pipeline
import twodst.reductions as t_reductions
import twodst.rounding as t_rounding
import twodst.verify as t_verify
from twodst.exact import ExactConfig
from twodst.pipeline import PipelineConfig

import checks
from spans import Tracer
from workloads import DEPTH, Item, build_items

SETUP_REPEATS = 3

END_TO_END = {
    "wall_s": "s",
    "solve_s.p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ratio_vs_lp.gmean": "ratio",
    "ratio_vs_opt.gmean": "ratio",
}

# per-layer time metrics: span name and whether the span's own (self) time
# or its whole duration is summed
SPAN_TIMES = {
    "lp_solver.highs.s": ("lp_solver.highs", "self"),
    "lp_solver.split.s": ("lp_solver.split", "self"),
    "lp_solver.solve.s": ("lp_solver.solve", "self"),
    "lp_solver.cert.s": ("lp_solver.cert", "self"),
    "lp_model.build.s": ("lp_model.build", "self"),
    "lp_model.replay.s": ("lp_model.replay", "self"),
    "rounding.round.s": ("rounding.round", "self"),
    "rounding.mark.s": ("rounding.mark", "self"),
    "rounding.decompose.s": ("rounding.decompose", "self"),
    "rounding.sample.s": ("rounding.sample", "self"),
    "graph.max_flow.s": ("graph.max_flow", "self"),
    "verify.report.s": ("verify.report", "self"),
    "exact.solve.s": ("exact.solve", "self"),
    "shallow_tree.build.s": ("shallow_tree.build", "self"),
    "reductions.dss.s": ("reductions.dss", "total"),
    "reductions.dss_vertex.s": ("reductions.dss_vertex", "total"),
    "reductions.disjoint_pair.s": ("reductions.disjoint_pair", "self"),
    "io.load.s": ("io.load", "self"),
}
STAGES = ("preflight", "tree", "lp", "round", "verify")
COUNTS = (
    "lp_solver.highs.iterations",
    "lp_model.vars",
    "lp_model.rows",
    "lp_model.nnz",
    "lp_model.nnz.gst",
    "lp_model.nnz.cong",
    "lp_model.nnz.div",
    "rounding.iterations",
    "rounding.paths_sampled",
    "rounding.union_edges",
    "shallow_tree.nodes",
)
# counts that must repeat exactly across runs of the same code
DETERMINISTIC_COUNTS = ("lp_model.nnz", "lp_solver.highs.iterations", "rounding.union_edges")

PER_LAYER = {name: "s" for name in SPAN_TIMES}
PER_LAYER.update({name: "count" for name in COUNTS})
PER_LAYER.update({
    "lp_solver.attempts": "count",
    "graph.max_flow.calls": "count",
    "rounding.new_edge_ratio": "ratio",
    "rounding.first_feasible_iter": "count",
    "reductions.self.s": "s",
})
PER_LAYER.update({f"pipeline.stage.{s}.s": "s" for s in STAGES})
PER_LAYER["trace.overhead_s"] = "s"


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


@dataclass
class Outcome:
    item: Item
    wall: float  # load + solve + exact, seconds
    solve: float  # the pipeline or reduction call alone
    instance: object = None
    result: object = None  # PipelineResult, or SolutionSubgraph for reductions
    exact: object = None
    error: Optional[str] = None


def run_op(item: Item, config: PipelineConfig, solver) -> Outcome:
    """One operation, calling the solver through module attributes so that
    the traced run sees the wrapped versions."""
    clock = time.perf_counter
    t0 = clock()
    try:
        inst = t_io.load_instance(item.path) if item.path else item.instance
        t1 = clock()
        if item.kind == "rooted":
            result = t_pipeline.run_pipeline(inst, config)
        elif item.kind == "dss":
            result = t_reductions.dss_via_dst(inst, solver)
        else:
            result = t_reductions.dss_vertex_via_dst(inst, solver)
        t2 = clock()
        exact = t_exact.exact_2dst(inst, ExactConfig()) if item.exact else None
        t3 = clock()
    except Exception:  # an operation that raises is counted, the run goes on
        return Outcome(item, clock() - t0, clock() - t0, error=traceback.format_exc())
    return Outcome(item, t3 - t0, t2 - t1, inst, result, exact)


class Checker:
    """Checks every outcome independently and keeps the per-item digests."""

    def __init__(self):
        self.digests: dict[str, str] = {}
        self.opt: dict[str, float] = {}
        self.ratio_lp: dict[str, float] = {}
        self.ratio_opt: dict[str, float] = {}

    def problems(self, out: Outcome) -> list[str]:
        if out.error is not None:
            return [out.error]
        item, inst = out.item, out.instance
        found = []
        if item.kind == "rooted":
            res = out.result
            edges, cost = res.solution.edges, res.solution.cost
            found += self._rooted(item, inst, res, out.exact)
        else:
            edges, cost = out.result.edges, out.result.cost
            verify = (checks.pairwise_feasible if item.kind == "dss"
                      else checks.pairwise_vertex_feasible)
            if not verify(inst, edges):
                found.append("independent max flow rejects the pairwise solution")
        d = checks.digest(edges, cost)
        if self.digests.setdefault(item.name, d) != d:
            found.append(f"solution digest changed between passes: {d}")
        return found

    def _rooted(self, item: Item, inst, res, exact) -> list[str]:
        found = []
        cost, lp = res.solution.cost, res.lp_objective
        if not res.report.feasible:
            found.append("pipeline returned an unverified solution")
        if checks.rooted_feasible(inst, res.solution.edges) != res.report.feasible:
            found.append("independent max flow disagrees with feasibility_report")
        if item.name not in self.opt:
            self.opt[item.name] = checks.milp_opt(inst)
        opt = self.opt[item.name]
        if exact is not None:
            if exact.feasible and abs(exact.cost - opt) <= checks.TOL:
                opt = exact.cost
            else:
                found.append(f"exact_2dst gives {exact.cost}, the oracle MILP {opt}")
        if lp > cost + checks.TOL:
            found.append(f"LP {lp} above the rounded cost {cost}")
        if lp > opt + checks.TOL:
            found.append(f"LP {lp} above OPT {opt}")
        if cost < opt - checks.TOL:
            found.append(f"cost {cost} below OPT {opt}")
        if item.known_lp is not None and abs(lp - item.known_lp) > checks.TOL:
            found.append(f"LP {lp}, expected {item.known_lp}")
        if item.known_opt is not None and abs(opt - item.known_opt) > checks.TOL:
            found.append(f"OPT {opt}, expected {item.known_opt}")
        self.ratio_lp[item.name] = cost / lp
        self.ratio_opt[item.name] = cost / opt
        return found


def gmean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def first_feasible_iteration(instance, solution) -> Optional[int]:
    """Smallest rounding iteration whose union is already feasible; the union
    only grows, so feasibility is monotone and bisection finds it."""
    born = {e: prov[0] for e, prov in solution.provenance.items()}
    rounds = sorted(set(born.values()))
    if not rounds or not checks.rooted_feasible(instance, born):
        return None
    lo, hi = 0, len(rounds) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if checks.rooted_feasible(instance, [e for e, j in born.items() if j <= rounds[mid]]):
            hi = mid
        else:
            lo = mid + 1
    return rounds[lo]


def _count_model(counts, args, model) -> None:
    counts["lp_model.vars"] += model.num_vars
    counts["lp_model.rows"] += len(model.rows)
    for row in model.rows:
        counts["lp_model.nnz"] += len(row.cols)
        counts[f"lp_model.nnz.{row.family}"] += len(row.cols)


def _count_highs(counts, args, result) -> None:
    counts["lp_solver.highs.iterations"] += result.nit


def _count_tree(counts, args, tree) -> None:
    counts["shallow_tree.nodes"] += tree.num_nodes


def _count_draws(counts, args, draws) -> None:
    counts["rounding.paths_sampled"] += len(draws)
    counts["rounding.sampled_path_edges"] += sum(len(p.edges) for _, _, p in draws)


def _count_rounding(counts, args, solution) -> None:
    counts["rounding.iterations"] += solution.meta["iterations"]
    counts["rounding.union_edges"] += len(solution.edges)
    first = first_feasible_iteration(args[0], solution)
    if first is not None:
        counts["rounding.first_feasible.sum"] += first
        counts["rounding.first_feasible.calls"] += 1


def _count_stages(counts, args, result) -> None:
    for stage, spent in result.timings.items():
        counts[f"pipeline.stage.{stage}.s"] += spent


def trace_targets():
    """Calls wrapped in the traced run: (owner, attribute, span, count hook)."""
    max_flow = "graph.max_flow"
    return [
        (t_io, "load_instance", "io.load", None),
        (t_pipeline, "run_pipeline", "pipeline.run", _count_stages),
        (t_pipeline, "max_flow_unit", max_flow, None),
        (t_pipeline, "build_shallow_tree", "shallow_tree.build", _count_tree),
        (t_pipeline, "build_lp", "lp_model.build", _count_model),
        (t_pipeline, "solve", "lp_solver.solve", None),
        (t_lp_solver, "_split_rows", "lp_solver.split", None),
        (t_lp_solver, "linprog", "lp_solver.highs", _count_highs),
        (t_lp_solver, "replay_constraints", "lp_model.replay", None),
        (t_lp_solver, "_infeasibility_certificate", "lp_solver.cert", None),
        (t_pipeline, "round_solution", "rounding.round", _count_rounding),
        (t_rounding, "gkr_round", "rounding.mark", None),
        (t_rounding, "decompose_flow", "rounding.decompose", None),
        (t_rounding.IterationSampler, "sample_draws", "rounding.sample", _count_draws),
        (t_pipeline, "feasibility_report", "verify.report", None),
        (t_verify, "feasibility_report", "verify.report", None),
        (t_verify, "max_flow_unit", max_flow, None),
        (t_graph, "max_flow_unit", max_flow, None),
        (t_exact, "max_flow_unit", max_flow, None),
        (t_exact, "exact_2dst", "exact.solve", None),
        (t_reductions, "max_flow_unit", max_flow, None),
        (t_reductions, "dss_via_dst", "reductions.dss", None),
        (t_reductions, "dss_vertex_via_dst", "reductions.dss_vertex", None),
        (t_reductions, "_disjoint_pair_cost", "reductions.disjoint_pair", None),
    ]


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    total, own, calls = tracer.totals()
    counts = tracer.counts
    out = {}
    for metric, (span, kind) in SPAN_TIMES.items():
        out[metric] = (own if kind == "self" else total).get(span, 0.0) / passes
    for metric in COUNTS:
        out[metric] = counts.get(metric, 0.0) / passes
    for stage in STAGES:
        key = f"pipeline.stage.{stage}.s"
        out[key] = counts.get(key, 0.0) / passes
    out["lp_solver.attempts"] = calls.get("lp_solver.solve", 0) / passes
    out["graph.max_flow.calls"] = calls.get("graph.max_flow", 0) / passes
    sampled = counts.get("rounding.sampled_path_edges", 0.0)
    out["rounding.new_edge_ratio"] = counts["rounding.union_edges"] / sampled if sampled else 0.0
    rounds = counts.get("rounding.first_feasible.calls", 0.0)
    out["rounding.first_feasible_iter"] = (
        counts["rounding.first_feasible.sum"] / rounds if rounds else 0.0
    )
    out["reductions.self.s"] = (
        tracer.outside({"reductions.dss", "reductions.dss_vertex"}, "pipeline.run") / passes
    )
    return out


class Run:
    def __init__(self, workload: str, seed: int, out_dir: Path):
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.config = PipelineConfig(depth=DEPTH, seed=seed)
        self.solver = t_pipeline.make_pipeline_solver(self.config)
        self.checker = Checker()
        self.attempted = 0
        self.failed = 0
        self.items: list[Item] = []
        self.tracer: Optional[Tracer] = None

    def fail(self, what: str) -> None:
        self.failed += 1
        log(f"FAILED {what}")

    def setup(self) -> float:
        """Generate the inputs, write and read the files, one warm-up solve."""
        t0 = time.perf_counter()
        data_dir = self.out_dir / "data" / f"{self.workload}-seed{self.seed}"
        self.items = build_items(self.workload, self.seed, data_dir)
        warm = run_op(self.items[0], self.config, self.solver)
        spent = time.perf_counter() - t0
        if warm.error is not None:
            self.fail(f"warm-up {self.items[0].name}: {warm.error}")
        return spent

    def one(self, item: Item) -> Outcome:
        if self.tracer is not None:
            self.tracer.op = self.attempted
        out = run_op(item, self.config, self.solver)
        self.attempted += 1
        for problem in self.checker.problems(out):
            self.fail(f"{item.name}: {problem}")
        return out

    def passes(self, until: float, whole_passes: bool, on_pass=None):
        """Closed loop over the items until `until`, at least one whole pass.
        Returns each whole pass's operation time and every outcome."""
        walls, outcomes = [], []
        while not walls or time.perf_counter() < until:
            spent = 0.0
            for item in self.items:
                if walls and not whole_passes and time.perf_counter() >= until:
                    return walls, outcomes
                out = self.one(item)
                outcomes.append(out)
                spent += out.wall
            walls.append(spent)
            if on_pass is not None:
                on_pass()
        return walls, outcomes


def code_hash(roots) -> str:
    h = hashlib.sha256()
    for root in roots:
        for path in sorted(Path(root).rglob("*.py")):
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def check_record(path: Path, code: str, digests: dict, counts: dict) -> list[str]:
    """Compare with the record an earlier run of the same code and seed left,
    then store the union of both."""
    record = {"code": code, "digests": {}, "counts": {}}
    if path.is_file():
        earlier = json.loads(path.read_text())
        if earlier.get("code") == code:
            record = earlier
    problems = []
    for kind, new in (("digests", digests), ("counts", counts)):
        for key, value in new.items():
            old = record[kind].setdefault(key, value)
            if old != value:
                problems.append(f"{kind[:-1]} {key} is {value}, an earlier run gave {old}")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
    tmp.replace(path)
    return problems


def execute(workload: str, seed: int, seconds: float, trace: bool,
            import_s: float, out_dir: Path, code_roots) -> dict:
    run = Run(workload, seed, out_dir)
    setups = [run.setup() for _ in range(SETUP_REPEATS)]
    setup_s = import_s + statistics.median(setups)
    start = time.perf_counter()
    log(f"{workload} seed={seed}: {len(run.items)} operations per pass, "
        f"set-up {setup_s:.3f} s (import {import_s:.3f} s, median of {setups})")

    counts: dict = {}
    if not trace:
        walls, outcomes = run.passes(start + seconds, whole_passes=False)
        solves = [o.solve for o in outcomes]
        per_item: dict[str, list[float]] = {}
        for o in outcomes:
            per_item.setdefault(o.item.name, []).append(o.wall)
        metrics = {
            # one pass, each item at the median of its operation times
            "wall_s": sum(statistics.median(ts) for ts in per_item.values()),
            "solve_s.p50": statistics.median(solves),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ratio_vs_lp.gmean": gmean(run.checker.ratio_lp.values()),
            "ratio_vs_opt.gmean": gmean(run.checker.ratio_opt.values()),
        }
        units = END_TO_END
        log(f"  {len(walls)} whole passes, {len(outcomes)} operations")
        log(f"  solve_s.p50 over {len(solves)} operations")
    else:
        walls, _ = run.passes(start + seconds / 2, whole_passes=True)
        tracer = run.tracer = Tracer()
        cumulative = [dict.fromkeys(DETERMINISTIC_COUNTS, 0.0)]

        def snapshot():
            cumulative.append({k: tracer.counts.get(k, 0.0) for k in DETERMINISTIC_COUNTS})

        with tracer.installed(trace_targets()):
            traced_walls, _ = run.passes(start + seconds, whole_passes=True, on_pass=snapshot)
        per_pass = [{k: b[k] - a[k] for k in a} for a, b in zip(cumulative, cumulative[1:])]
        for later in per_pass[1:]:
            if later != per_pass[0]:
                run.fail(f"traced pass counts {later} differ from the first pass {per_pass[0]}")
        metrics = layer_metrics(tracer, len(traced_walls))
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        counts = {k: metrics[k] for k in DETERMINISTIC_COUNTS}
        units = PER_LAYER
        spans_dir = out_dir / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_dir / f"{workload}-seed{seed}.jsonl")
        _, own, _ = tracer.totals()
        top = sorted(own.items(), key=lambda kv: -kv[1])[:6]
        log(f"  {len(walls)} untraced and {len(traced_walls)} traced passes, "
            f"{len(tracer.spans)} spans")
        log("  largest self times per pass: " + ", ".join(
            f"{name} {spent / len(traced_walls):.3f}" for name, spent in top))

    digests = dict(run.checker.digests)
    for problem in check_record(out_dir / "determinism" / f"{workload}-seed{seed}.json",
                                code_hash(code_roots), digests, counts):
        run.fail(problem)

    for name, value in metrics.items():
        log(f"  {name:34s} {value:.6g} {units[name]}")
    log(f"  fail_rate {run.failed}/{run.attempted}")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
