"""Command-line behavior: exit codes, files, determinism."""

import csv
import json

import pytest

from twodst.cli import (
    BENCH_COLUMNS,
    EXIT_ERROR,
    EXIT_INFEASIBLE,
    EXIT_NOT_VERIFIED,
    EXIT_OK,
    EXIT_SIZE_CAP,
    _pipeline_config,
    build_parser,
    main,
)
from twodst.graph import DirectedMultigraph, DstInstance, max_flow_unit
from twodst.io import load_instance, save_instance
from twodst.lp_model import build_lp, congestion_parameter, solution_to_json
from twodst.lp_solver import solve
from twodst.pipeline import PipelineConfig
from twodst.reductions import DssInstance
from twodst.shallow_tree import ShallowTreeConfig, build_shallow_tree


def _diamond_instance():
    return DstInstance(
        DirectedMultigraph(
            ["r", "a", "b", "t"],
            [("r", "a", 1.0), ("a", "t", 1.0), ("r", "b", 1.0), ("b", "t", 1.0)],
        ),
        "r",
        frozenset(["t"]),
    )


@pytest.fixture
def diamond_file(tmp_path):
    path = tmp_path / "diamond.json"
    save_instance(_diamond_instance(), path)
    return path


@pytest.fixture
def infeasible_file(tmp_path):
    inst = DstInstance(
        DirectedMultigraph(["r", "t"], [("r", "t", 1.0)]), "r", frozenset(["t"])
    )
    path = tmp_path / "single.json"
    save_instance(inst, path)
    return path


# ------------------------------------------------------------------ solve

def test_solve_diamond(diamond_file, tmp_path, capsys):
    out = tmp_path / "sol.json"
    code = main(["solve", str(diamond_file), "--depth", "2", "--seed", "7", "--out", str(out)])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "lp objective (lower bound): 4" in text
    assert "feasible: yes" in text
    doc = json.loads(out.read_text())
    assert doc["cost"] >= 4.0 - 1e-6
    assert sorted(doc["edges"]) == [0, 1, 2, 3]
    # the reported lower bound never exceeds the reported cost
    assert doc["meta"]["lp_objective"] <= doc["cost"] + 1e-9


def test_solve_is_deterministic(diamond_file, tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["solve", str(diamond_file), "--depth", "2", "--seed", "3", "--out", str(a)]) == EXIT_OK
    assert main(["solve", str(diamond_file), "--depth", "2", "--seed", "3", "--out", str(b)]) == EXIT_OK
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_solve_infeasible_writes_nothing(infeasible_file, tmp_path, capsys):
    out = tmp_path / "sol.json"
    code = main(["solve", str(infeasible_file), "--depth", "2", "--out", str(out)])
    assert code == EXIT_INFEASIBLE
    assert not out.exists()
    assert "infeasible" in capsys.readouterr().err


def test_solve_size_cap(tmp_path, capsys):
    vertices = ["r", "t"] + [f"m{i}" for i in range(8)]
    edges = []
    for i in range(8):
        edges.append(("r", f"m{i}", 1.0))
        edges.append((f"m{i}", "t", 1.0))
    inst = DstInstance(DirectedMultigraph(vertices, edges), "r", frozenset(["t"]))
    path = tmp_path / "wide.json"
    save_instance(inst, path)
    code = main(["solve", str(path), "--depth", "8"])
    assert code == EXIT_SIZE_CAP
    assert "size cap" in capsys.readouterr().err


def test_solve_missing_file(tmp_path, capsys):
    code = main(["solve", str(tmp_path / "nope.json")])
    assert code == EXIT_ERROR
    capsys.readouterr()


def test_solve_rejects_unrooted(tmp_path, capsys):
    g = DirectedMultigraph(["a", "b"], [("a", "b", 1.0), ("b", "a", 1.0)])
    path = tmp_path / "pair.json"
    save_instance(DssInstance(g, frozenset(["a", "b"])), path)
    assert main(["solve", str(path)]) == EXIT_ERROR
    assert "rooted" in capsys.readouterr().err


def test_config_file_and_flag_precedence(diamond_file, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"depth": 2, "seed": 5, "iter_mult": 1.0}))
    code = main(["solve", str(diamond_file), "--config", str(config), "--seed", "11"])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "seed=11" in text  # flag beats file
    assert "depth=2" in text  # file beats built-in default
    assert "iterations=56" in text  # iter_mult 1.0 from file: 20 * 2 * ln 4 -> 56
    # no flags and no file: the PipelineConfig defaults, at the CLI's depth 2
    assert _pipeline_config(build_parser().parse_args(["solve", "x.json"])) == PipelineConfig(
        depth=2
    )


def test_config_file_unknown_key(diamond_file, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"depht": 2}))
    assert main(["solve", str(diamond_file), "--config", str(config)]) == EXIT_ERROR
    assert "unknown config" in capsys.readouterr().err


def test_solve_adopts_external_lp(diamond_file, tmp_path, capsys):
    inst = _diamond_instance()
    tree = build_shallow_tree(inst, ShallowTreeConfig(depth=2))
    model = build_lp(inst, tree, congestion_parameter(2, 1))
    lp = solve(model)
    values_file = tmp_path / "lp_values.json"
    values_file.write_text(solution_to_json(lp))
    out = tmp_path / "sol.json"
    code = main(
        [
            "solve", str(diamond_file), "--depth", "2", "--seed", "7",
            "--lp-solution", str(values_file), "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    assert "feasible: yes" in capsys.readouterr().out
    assert sorted(json.loads(out.read_text())["edges"]) == [0, 1, 2, 3]


# ------------------------------------------------------------------ exact

def test_exact_diamond(diamond_file, capsys):
    assert main(["exact", str(diamond_file)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "cost: 4" in text
    assert "edges: 0 1 2 3" in text


def test_exact_infeasible(infeasible_file, capsys):
    assert main(["exact", str(infeasible_file)]) == EXIT_INFEASIBLE
    capsys.readouterr()


def test_exact_size_cap(diamond_file, capsys):
    assert main(["exact", str(diamond_file), "--max-edges", "3"]) == EXIT_SIZE_CAP
    capsys.readouterr()


# ----------------------------------------------------------------- verify

def test_verify_good_solution(diamond_file, tmp_path, capsys):
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps({"edges": [0, 1, 2, 3]}))
    assert main(["verify", str(diamond_file), str(sol)]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["feasible"] is True


def test_verify_bad_solution(diamond_file, tmp_path, capsys):
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps({"edges": [0, 2, 3]}))
    assert main(["verify", str(diamond_file), str(sol)]) == EXIT_NOT_VERIFIED
    doc = json.loads(capsys.readouterr().out)
    assert doc["feasible"] is False
    assert doc["witness"]["edge"] == 2


# ----------------------------------------------------------------- reduce

def test_reduce_dss_cycle(tmp_path, capsys):
    edges = []
    for a, b in [("r", "a"), ("a", "t"), ("t", "b"), ("b", "r")]:
        edges.append((a, b, 1.0))
        edges.append((b, a, 1.0))
    g = DirectedMultigraph(["r", "a", "t", "b"], edges)
    inst_path = tmp_path / "cycle.json"
    save_instance(DssInstance(g, frozenset(["r", "t"])), inst_path)
    merged = tmp_path / "merged.json"
    code = main(["reduce", str(inst_path), "--mode", "dss", "--depth", "2", "--out", str(merged)])
    assert code == EXIT_OK
    capsys.readouterr()

    out_rooted = load_instance(tmp_path / "merged.out_rooted.json")
    in_rooted = load_instance(tmp_path / "merged.in_rooted.json")
    assert isinstance(out_rooted, DstInstance) and out_rooted.root == "r"
    assert isinstance(in_rooted, DstInstance) and in_rooted.root == "r"
    # the in-rooted instance is on the reversed graph
    assert sorted(zip(in_rooted.graph.tails, in_rooted.graph.heads)) == sorted(
        zip(g.heads, g.tails)
    )

    sol_edges = json.loads(merged.read_text())["edges"]
    for s, t in [("r", "t"), ("t", "r")]:
        assert max_flow_unit(g, s, t, restrict_to=sol_edges)[0] >= 2


def test_reduce_vertex_mode(diamond_file, tmp_path, capsys):
    out = tmp_path / "vsol.json"
    code = main(["reduce", str(diamond_file), "--mode", "vertex", "--depth", "2", "--out", str(out)])
    assert code == EXIT_OK
    capsys.readouterr()
    assert sorted(json.loads(out.read_text())["edges"]) == [0, 1, 2, 3]


def test_reduce_mode_mismatch(diamond_file, capsys):
    assert main(["reduce", str(diamond_file), "--mode", "dss"]) == EXIT_ERROR
    assert "unrooted" in capsys.readouterr().err


# -------------------------------------------------------------- lp-export

def test_lp_export(diamond_file, tmp_path, capsys):
    out = tmp_path / "model.lp"
    assert main(["lp-export", str(diamond_file), "--depth", "1", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    text = out.read_text()
    assert text.startswith("\\ variables:")
    assert "Minimize" in text and "Bounds" in text and text.rstrip().endswith("End")


def test_lp_export_stdout(diamond_file, capsys):
    assert main(["lp-export", str(diamond_file), "--depth", "1"]) == EXIT_OK
    assert "Subject To" in capsys.readouterr().out


# ------------------------------------------------------------------ bench

def test_bench_suite(tmp_path, capsys):
    suite = tmp_path / "suite"
    suite.mkdir()
    save_instance(_diamond_instance(), suite / "diamond.json")
    save_instance(_diamond_instance(), suite / "diamond.txt", fmt="text")
    single = DstInstance(
        DirectedMultigraph(["r", "t"], [("r", "t", 1.0)]), "r", frozenset(["t"])
    )
    save_instance(single, suite / "single.json")
    (suite / "broken.json").write_text("{not json")
    out = tmp_path / "bench.csv"
    code = main(["bench", str(suite), "--depth", "2", "--seed", "1", "--out", str(out)])
    assert code == EXIT_OK
    capsys.readouterr()

    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["instance"] for r in rows] == [
        "broken.json", "diamond.json", "diamond.txt", "single.json",
    ]
    assert all(r["schema_version"] == "1" for r in rows)
    for row in rows:
        if row["instance"].startswith("diamond"):
            assert row["feasible"] == "yes"
            assert row["exact_opt"] == "4"
            assert float(row["ratio_vs_lp"]) >= 1 - 1e-6
            assert float(row["ratio_vs_opt"]) >= 1 - 1e-6
            assert row["error"] == ""
        else:
            assert row["error"] != ""


def test_bench_exact_cap_skips_column(tmp_path, capsys):
    suite = tmp_path / "suite"
    suite.mkdir()
    save_instance(_diamond_instance(), suite / "diamond.json")
    out = tmp_path / "bench.csv"
    code = main(["bench", str(suite), "--exact-cap", "3", "--out", str(out)])
    assert code == EXIT_OK
    capsys.readouterr()
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["exact_opt"] == ""
    assert rows[0]["ratio_vs_opt"] == ""
    assert rows[0]["feasible"] == "yes"


def test_bench_empty_directory(tmp_path, capsys):
    suite = tmp_path / "empty"
    suite.mkdir()
    assert main(["bench", str(suite)]) == EXIT_OK
    text = capsys.readouterr().out
    assert text.strip() == ",".join(BENCH_COLUMNS)


def test_bench_not_a_directory(tmp_path, capsys):
    assert main(["bench", str(tmp_path / "missing")]) == EXIT_ERROR
    capsys.readouterr()
