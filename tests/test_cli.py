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
from twodst.pipeline import PipelineConfig
from twodst.reductions import DssInstance


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


def test_solve_rejects_malformed_instance(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vertices": ["r", "t"], "edges": [], "root": "r", "terminals": 5}))
    assert main(["solve", str(path)]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: 'terminals' must be a JSON list")


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
    # no flags and no file: the PipelineConfig defaults
    assert _pipeline_config(build_parser().parse_args(["solve", "x.json"])) == PipelineConfig()


def test_config_file_unknown_key(diamond_file, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"depht": 2}))
    assert main(["solve", str(diamond_file), "--config", str(config)]) == EXIT_ERROR
    assert "unknown config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [("prune", "no"), ("prune", 1), ("seed", 1.7), ("depth", True), ("iters", "56"),
     ("samples", None), ("beta_mult", False), ("iter_mult", "2")],
)
def test_config_file_wrong_type(diamond_file, tmp_path, capsys, key, value):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({key: value}))
    assert main(["solve", str(diamond_file), "--config", str(config)]) == EXIT_ERROR
    assert f"error: config file key '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field", ["depth", "iterations", "samples", "beta_multiplier", "iteration_multiplier"]
)
def test_pipeline_config_rejects(field):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        PipelineConfig(**{field: 0})


@pytest.mark.parametrize("how", ["flag", "file"])
def test_solve_rejects_zero_iterations(diamond_file, tmp_path, capsys, how):
    # an explicit 0 is an error, not a request for the default count
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"iters": 0}))
    extra = ["--iters", "0"] if how == "flag" else ["--config", str(config)]
    assert main(["solve", str(diamond_file), *extra]) == EXIT_ERROR
    assert "error: iterations must be >= 1" in capsys.readouterr().err


def test_config_file_not_an_object(diamond_file, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(["seed"]))
    assert main(["solve", str(diamond_file), "--config", str(config)]) == EXIT_ERROR
    assert "error: config file must hold a JSON object" in capsys.readouterr().err


def test_config_file_typed_values(tmp_path):
    # integers pass for the float keys, and a bool for prune
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"beta_mult": 2, "iter_mult": 1, "prune": True, "seed": 3}))
    args = build_parser().parse_args(["solve", "x.json", "--config", str(config)])
    assert _pipeline_config(args) == PipelineConfig(
        depth=2, seed=3, beta_multiplier=2.0, iteration_multiplier=1.0, prune=True
    )


def test_solve_has_no_lp_solution_flag(diamond_file, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["solve", str(diamond_file), "--lp-solution", "f.json"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --lp-solution" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "edges, bad", [(["0", 1, 2, 3], "edge 0 is '0'"), ([0, 1, 2, 3.5], "edge 3 is 3.5"),
                   ([0, True, 2, 3], "edge 1 is True"), ({"edges": {"0": 1}}, "JSON list"),
                   ({"solution": [0, 1, 2, 3]}, "JSON list")],
)
def test_verify_malformed_solution(diamond_file, tmp_path, capsys, edges, bad):
    # `edges` is the whole solution file: a bare list or an object
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps(edges))
    assert main(["verify", str(diamond_file), str(sol)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and bad in err


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
