"""Command-line interface.

Subcommands: solve, exact, verify, reduce, lp-export, bench. Exit codes:
0 success (and, for solve/verify, the result is verified feasible),
1 generic error, 2 infeasible instance, 3 a size cap was hit,
4 the command finished but the result did not verify.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import logging
import sys
from dataclasses import fields
from pathlib import Path

from .errors import InfeasibleInstanceError, SizeLimitError, TwoDstError
from .exact import ExactConfig, exact_2dst
from .graph import DstInstance
from .io import load_instance, save_instance
from .lp_model import build_lp, congestion_parameter, export_lp
from .pipeline import PipelineConfig, make_pipeline_solver, run_pipeline
from .reductions import (DssInstance, dss_via_dst, dss_vertex_via_dst, rooted_pair,
                         solve_vertex_2dst)
from .shallow_tree import build_shallow_tree
from .solution import SolutionSubgraph
from .verify import feasibility_report

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_SIZE_CAP = 3
EXIT_NOT_VERIFIED = 4

BENCH_SCHEMA_VERSION = "1"
BENCH_COLUMNS = [
    "schema_version",
    "instance",
    "n",
    "m",
    "h",
    "depth",
    "seed",
    "lp_value",
    "cost",
    "exact_opt",
    "ratio_vs_lp",
    "ratio_vs_opt",
    "feasible",
    "t_preflight",
    "t_tree",
    "t_lp",
    "t_round",
    "t_verify",
    "error",
]

# flag / config-file key -> (PipelineConfig field, type)
_KEYS = {
    "depth": ("depth", int),
    "seed": ("seed", int),
    "beta_mult": ("beta_multiplier", float),
    "iters": ("iterations", int),
    "samples": ("samples", int),
    "prune": ("prune", bool),
}
_JSON_TYPE = {bool: "boolean", int: "integer", float: "number within float range"}


def _file_value(key: str, value, kind: type):
    """A config-file value of the key's type: a JSON bool for a bool key,
    an integer for an int key, any number a float holds for a float key; a
    bool passes only as a bool."""
    accepted = (int, float) if kind is float else kind
    if isinstance(value, accepted) and isinstance(value, bool) == (kind is bool):
        try:
            return kind(value)
        except OverflowError:  # an integer past the float range
            pass
    raise ValueError(f"config file key {key!r} needs a JSON {_JSON_TYPE[kind]}, got {value!r}")


def _pipeline_config(args) -> PipelineConfig:
    """Effective run configuration: flags override the config file,
    which overrides the PipelineConfig defaults."""
    doc = {}
    if getattr(args, "config", None):
        doc = json.loads(Path(args.config).read_text())
        if not isinstance(doc, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(doc) - set(_KEYS)
        if unknown:
            raise ValueError(f"unknown config file keys: {sorted(unknown)}")

    chosen = {}
    for key, (name, kind) in _KEYS.items():
        value = getattr(args, key, None)
        if value is None and key in doc:
            value = _file_value(key, doc[key], kind)
        if value is not None:
            chosen[name] = value
    return PipelineConfig(**chosen)


def _load_rooted(path) -> DstInstance:
    instance = load_instance(path)
    if not isinstance(instance, DstInstance):
        raise ValueError(f"{path}: this command needs a rooted instance")
    return instance


def _fmt(value) -> str:
    return "" if value is None else f"{value:.9g}"


# ----------------------------------------------------------------- solve

def cmd_solve(args) -> int:
    instance = _load_rooted(args.instance)
    config = _pipeline_config(args)
    result = run_pipeline(instance, config)
    if args.out:
        result.solution.save(args.out, graph=instance.graph)
    g = instance.graph
    print(f"instance: {args.instance} (n={g.num_vertices} m={g.num_edges} h={instance.num_terminals})")
    print(
        f"depth={config.depth} seed={config.seed} beta={result.beta} "
        f"iterations={result.solution.meta['iterations']} samples={result.solution.meta['samples']}"
    )
    print(f"lp objective (lower bound): {_fmt(result.lp_objective)}")
    ratio = f" (ratio vs lp {result.ratio_vs_lp:.4f})" if result.ratio_vs_lp else ""
    print(f"cost: {_fmt(result.solution.cost)}{ratio}")
    print(f"feasible: {'yes' if result.feasible else 'no'}")
    print("stage seconds: " + " ".join(f"{k}={v:.3f}" for k, v in result.timings.items()))
    if args.out:
        print(f"solution written to {args.out}")
    return EXIT_OK if result.feasible else EXIT_NOT_VERIFIED


# ----------------------------------------------------------------- exact

def cmd_exact(args) -> int:
    instance = _load_rooted(args.instance)
    config = ExactConfig(max_edges=args.max_edges, time_budget=args.time_budget)
    result = exact_2dst(instance, config)
    if not result.feasible:
        print("infeasible: no subgraph carries two disjoint paths to every terminal")
        return EXIT_INFEASIBLE
    print(f"cost: {_fmt(result.cost)}")
    print("edges: " + " ".join(str(e) for e in sorted(result.edges)))
    if args.out:
        sol = SolutionSubgraph.from_edges(instance.graph, result.edges, meta={"exact": True})
        sol.save(args.out, graph=instance.graph)
        print(f"solution written to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------- verify

def cmd_verify(args) -> int:
    instance = _load_rooted(args.instance)
    doc = json.loads(Path(args.solution).read_text())
    edges = doc.get("edges") if isinstance(doc, dict) else doc
    if not isinstance(edges, list):
        raise ValueError("solution edges must be a JSON list of integers")
    for k, e in enumerate(edges):
        if not isinstance(e, int) or isinstance(e, bool):
            raise ValueError(f"solution edge {k} is {e!r}, not an integer")
    report = feasibility_report(instance, edges)
    sys.stdout.write(report.to_json())
    return EXIT_OK if report.feasible else EXIT_NOT_VERIFIED


# ---------------------------------------------------------------- reduce

def cmd_reduce(args) -> int:
    instance = load_instance(args.instance)
    solver = make_pipeline_solver(_pipeline_config(args))
    out = Path(args.out) if args.out else Path(args.instance).with_suffix(".merged.json")

    if args.mode == "vertex":
        if not isinstance(instance, DstInstance):
            raise ValueError("vertex mode needs a rooted instance")
        sol = solve_vertex_2dst(instance, solver)
        sol.save(out, graph=instance.graph)
        print(f"vertex-connectivity solution written to {out} (cost {_fmt(sol.cost)})")
        return EXIT_OK

    if not isinstance(instance, DssInstance):
        raise ValueError(f"{args.mode} mode needs an unrooted pairwise instance")

    if args.mode == "dss":
        side_out = out.parent / (out.stem + ".out_rooted.json")
        side_in = out.parent / (out.stem + ".in_rooted.json")
        for rooted, side in zip(rooted_pair(instance), (side_out, side_in)):
            save_instance(rooted, side)
        sol = dss_via_dst(instance, solver)
        sol.save(out, graph=instance.graph)
        print(f"rooted instances written to {side_out} and {side_in}")
        print(f"merged solution written to {out} (cost {_fmt(sol.cost)})")
        return EXIT_OK

    sol = dss_vertex_via_dst(instance, solver)
    sol.save(out, graph=instance.graph)
    print(f"merged solution written to {out} (cost {_fmt(sol.cost)})")
    return EXIT_OK


# -------------------------------------------------------------- lp-export

def cmd_lp_export(args) -> int:
    instance = _load_rooted(args.instance)
    config = _pipeline_config(args)
    tree = build_shallow_tree(instance, config.depth)
    beta = congestion_parameter(config.depth, instance.num_terminals, config.beta_multiplier)
    model = build_lp(instance, tree, beta)
    text = export_lp(model)
    if args.out:
        Path(args.out).write_text(text)
        print(f"LP written to {args.out} ({model.num_vars} variables, {model.num_rows} rows)")
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ----------------------------------------------------------------- bench

def cmd_bench(args) -> int:
    suite = Path(args.suite)
    if not suite.is_dir():
        raise ValueError(f"{suite} is not a directory")
    files = sorted(p for p in suite.iterdir() if p.suffix in (".json", ".txt"))
    config = _pipeline_config(args)

    rows = []
    for path in files:
        row = {c: "" for c in BENCH_COLUMNS}
        row["schema_version"] = BENCH_SCHEMA_VERSION
        row["instance"] = path.name
        row["depth"] = config.depth
        row["seed"] = config.seed
        try:
            instance = load_instance(path)
            if not isinstance(instance, DstInstance):
                raise ValueError("bench needs rooted instances")
            g = instance.graph
            row["n"] = g.num_vertices
            row["m"] = g.num_edges
            row["h"] = instance.num_terminals
            result = run_pipeline(instance, config)
            row["lp_value"] = _fmt(result.lp_objective)
            row["cost"] = _fmt(result.solution.cost)
            if result.ratio_vs_lp is not None:
                row["ratio_vs_lp"] = f"{result.ratio_vs_lp:.6f}"
            row["feasible"] = "yes" if result.feasible else "no"
            for stage, spent in result.timings.items():
                row[f"t_{stage}"] = f"{spent:.6f}"
            if g.num_edges <= args.exact_cap:
                exact = exact_2dst(instance, ExactConfig(max_edges=args.exact_cap))
                if exact.feasible:
                    row["exact_opt"] = _fmt(exact.cost)
                    if exact.cost > 0:
                        row["ratio_vs_opt"] = f"{result.solution.cost / exact.cost:.6f}"
        except Exception as exc:  # a broken instance must not sink the suite
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)

    sink = open(args.out, "w", newline="") if args.out else contextlib.nullcontext(sys.stdout)
    with sink as fh:
        writer = csv.DictWriter(fh, fieldnames=BENCH_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    if args.out:
        print(f"{len(rows)} rows written to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------- parser

def _add_pipeline_flags(sub, keys=tuple(_KEYS)) -> None:
    """The flags of the given `_KEYS` keys, and --config."""
    defaults = {f.name: f.default for f in fields(PipelineConfig)}
    flags = {
        "depth": {"type": int, "help": f"tree depth D (default {defaults['depth']})"},
        "seed": {"type": int, "help": f"rounding seed (default {defaults['seed']})"},
        "beta_mult": {"type": float, "help": "multiplier on the congestion parameter "
                      f"(default {defaults['beta_multiplier']})"},
        "iters": {"type": int, "help": "override rounding iteration count"},
        "samples": {"type": int, "help": "override per-tree-edge sample count"},
        "prune": {"action": "store_true", "help": "reverse-delete the result"},
    }
    for key in keys:
        sub.add_argument("--" + key.replace("_", "-"), dest=key, default=None, **flags[key])
    sub.add_argument("--config", default=None, help="JSON file holding defaults for these flags")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twodst",
        description="Solve, verify, and benchmark 2-connected directed Steiner instances.",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="run the LP-rounding pipeline on a rooted instance")
    s.add_argument("instance")
    _add_pipeline_flags(s)
    s.add_argument("--out", default=None, help="write the solution JSON here")
    s.set_defaults(func=cmd_solve)

    s = sub.add_parser("exact", help="exhaustive optimum on a small rooted instance")
    s.add_argument("instance")
    s.add_argument("--max-edges", type=int, default=ExactConfig().max_edges)
    s.add_argument("--time-budget", type=float, default=None)
    s.add_argument("--out", default=None, help="write the optimal solution JSON here")
    s.set_defaults(func=cmd_exact)

    s = sub.add_parser("verify", help="check a solution file against an instance")
    s.add_argument("instance")
    s.add_argument("solution")
    s.set_defaults(func=cmd_verify)

    s = sub.add_parser("reduce", help="solve a problem variant by reduction")
    s.add_argument("instance")
    s.add_argument("--mode", choices=["dss", "dss-vertex", "vertex"], default="dss")
    _add_pipeline_flags(s)
    s.add_argument("--out", default=None, help="merged solution path (side files derive from it)")
    s.set_defaults(func=cmd_reduce)

    s = sub.add_parser("lp-export", help="write the live relaxation in LP text format")
    s.add_argument("instance")
    _add_pipeline_flags(s, ("depth", "beta_mult"))
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_lp_export)

    s = sub.add_parser("bench", help="run the pipeline over a directory of instances")
    s.add_argument("suite")
    _add_pipeline_flags(s)
    s.add_argument("--exact-cap", dest="exact_cap", type=int, default=ExactConfig().max_edges)
    s.add_argument("--out", default=None, help="CSV path (default: stdout)")
    s.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    level = logging.WARNING - 10 * min(args.verbose, 2)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except InfeasibleInstanceError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except SizeLimitError as exc:
        print(f"size cap exceeded: {exc}", file=sys.stderr)
        return EXIT_SIZE_CAP
    except (TwoDstError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
