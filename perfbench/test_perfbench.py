"""Tests of the benchmark itself; run with `python -m pytest perfbench`."""

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from twodst import dump_instance_json, exact_2dst, feasibility_report  # noqa: E402

import bench  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def _snapshot(items):
    out = []
    for item in items:
        data = item.path.read_bytes() if item.path else None
        out.append((item.name, item.kind, dump_instance_json(item.instance), data))
    return out


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generators_are_deterministic_by_seed(workload, tmp_path):
    first = _snapshot(workloads.build_items(workload, 3, tmp_path / "a"))
    again = _snapshot(workloads.build_items(workload, 3, tmp_path / "b"))
    other = _snapshot(workloads.build_items(workload, 4, tmp_path / "c"))
    assert first == again
    assert first != other


def test_multicover_base_is_the_unperturbed_instance():
    base = workloads.multicover_instance()
    g = base.graph
    assert (g.num_vertices, g.num_edges, base.num_terminals) == (15, 35, 7)
    assert checks.milp_opt(base) == pytest.approx(4.0)


def test_independent_verifier_rejects_a_verified_solution_minus_one_edge():
    for _, inst in workloads.small_rooted_instances(0)[:6]:
        best = exact_2dst(inst)
        assert feasibility_report(inst, best.edges).feasible
        assert checks.rooted_feasible(inst, best.edges)
        # exact optima are minimal: every edge is needed
        for e in best.edges:
            assert not checks.rooted_feasible(inst, best.edges - {e})


@pytest.mark.parametrize("verify", [checks.pairwise_feasible, checks.pairwise_vertex_feasible])
def test_pairwise_verifiers_need_the_whole_ring(verify):
    ring = workloads.ring_with_chords(5, 0, 2, np.random.default_rng(0))
    edges = frozenset(range(ring.graph.num_edges))
    assert verify(ring, edges)
    for e in edges:
        assert not verify(ring, edges - {e})


def test_vertex_verifier_rejects_paths_through_one_vertex():
    from twodst import DirectedMultigraph
    from twodst.reductions import DssInstance

    # s -> w -> t twice over parallel edges: edge-disjoint, not vertex-disjoint
    g = DirectedMultigraph(
        ["s", "w", "t"],
        [("s", "w", 1.0), ("s", "w", 1.0), ("w", "t", 1.0), ("w", "t", 1.0),
         ("t", "w", 1.0), ("t", "w", 1.0), ("w", "s", 1.0), ("w", "s", 1.0)],
    )
    inst = DssInstance(g, frozenset(["s", "t"]))
    edges = frozenset(range(g.num_edges))
    assert checks.pairwise_feasible(inst, edges)
    assert not checks.pairwise_vertex_feasible(inst, edges)


def test_self_times_subtract_nested_spans():
    def leaf():
        time.sleep(0.02)

    def middle():
        ns.leaf()
        time.sleep(0.01)

    ns = types.SimpleNamespace(leaf=leaf, middle=middle)
    tracer = Tracer()
    with tracer.installed([(ns, "middle", "outer", None), (ns, "leaf", "inner", None)]):
        ns.middle()
    assert ns.middle is middle and ns.leaf is leaf
    total, own, calls = tracer.totals()
    assert calls == {"outer": 1, "inner": 1}
    assert own["inner"] == pytest.approx(total["inner"])
    assert own["outer"] == pytest.approx(total["outer"] - total["inner"])
    assert tracer.outside({"outer"}, "inner") == pytest.approx(own["outer"])


def test_determinism_record_flags_a_changed_digest(tmp_path):
    path = tmp_path / "record.json"
    assert bench.check_record(path, "code", {"a": "1"}, {"n": 5.0}) == []
    assert bench.check_record(path, "code", {"a": "1"}, {}) == []
    assert len(bench.check_record(path, "code", {"a": "2"}, {"n": 6.0})) == 2
    assert bench.check_record(path, "other code", {"a": "2"}, {}) == []


def test_printed_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "small-suite",
             "--seed", "0", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in spec[key]}


def test_refuses_to_run_without_solver_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "planted-mid",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
