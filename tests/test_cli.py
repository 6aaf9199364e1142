"""Command-line behavior: exit codes, files, determinism."""

import csv
import itertools
import json
import math

import pytest

import twodst.cli as cli
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
from twodst.exact import random_instance
from twodst.graph import DirectedMultigraph, DstInstance, max_flow_unit
from twodst.io import load_instance, save_instance
from twodst.pipeline import PipelineConfig
from twodst.reductions import DssInstance, vertex_split


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


def test_solve_tiny_beta_multiplier_reaches_a_feasible_beta(multicover, tmp_path, capsys):
    # the multiplier alone gives beta 0; the floor starts the LP at beta 1
    path = tmp_path / "mc.json"
    save_instance(multicover, path)
    code = main(["solve", str(path), "--beta-mult", "1e-12", "--out", str(tmp_path / "sol.json")])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "depth=2 seed=0 beta=1 " in text
    assert "feasible: yes" in text


def test_solve_infeasible_writes_nothing(infeasible_file, tmp_path, capsys):
    out = tmp_path / "sol.json"
    code = main(["solve", str(infeasible_file), "--depth", "2", "--out", str(out)])
    assert code == EXIT_INFEASIBLE
    assert not out.exists()
    assert "infeasible" in capsys.readouterr().err


def _middles(count):
    """r -> m_i -> t for each of `count` middle vertices, which also reach
    each other, so every label sequence r, m.., t is one a graph path
    realizes."""
    middles = [f"m{i}" for i in range(count)]
    edges = [(a, b, 1.0) for a in middles for b in middles if a != b]
    for m in middles:
        edges += [("r", m, 1.0), (m, "t", 1.0)]
    return ["r", "t"] + middles, edges


def test_solve_size_cap(tmp_path, capsys):
    # at depth 8 the tree would have 277,123 nodes, over the default cap
    vertices, edges = _middles(8)
    inst = DstInstance(DirectedMultigraph(vertices, edges), "r", frozenset(["t"]))
    path = tmp_path / "wide.json"
    save_instance(inst, path)
    code = main(["solve", str(path), "--depth", "8"])
    assert code == EXIT_SIZE_CAP
    assert "size cap" in capsys.readouterr().err


def test_solve_size_cap_on_the_model(tmp_path, capsys):
    # depth 4 over 12 vertices gives 3,282 tree edges; with the 810
    # parallel r -> t edges the terms pass the default nonzero cap while
    # the rows are emitted
    vertices, edges = _middles(10)
    edges += [("r", "t", 1.0)] * 810
    inst = DstInstance(DirectedMultigraph(vertices, edges), "r", frozenset(["t"]))
    path = tmp_path / "parallel.json"
    save_instance(inst, path)
    code = main(["solve", str(path), "--depth", "4"])
    assert code == EXIT_SIZE_CAP
    assert "model would be too large (projected 2487370 > cap 2000000)" in capsys.readouterr().err


def test_solve_missing_file(tmp_path, capsys):
    code = main(["solve", str(tmp_path / "nope.json")])
    assert code == EXIT_ERROR
    capsys.readouterr()


def test_solve_rejects_malformed_instance(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vertices": ["r", "t"], "edges": [], "root": "r", "terminals": 5}))
    assert main(["solve", str(path)]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: 'terminals' must be a JSON list")


@pytest.mark.parametrize("command", ["solve", "exact"])
def test_rejects_cost_too_large_for_a_float(tmp_path, capsys, command):
    path = tmp_path / "huge.json"
    edges = [{"tail": "r", "head": "t", "cost": 1}, {"tail": "r", "head": "t", "cost": 10**400}]
    path.write_text(json.dumps({"vertices": ["r", "t"], "edges": edges, "root": "r", "terminals": ["t"]}))
    assert main([command, str(path)]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: edge 1 cost is too large for a float")


def test_solve_rejects_unrooted(tmp_path, capsys):
    g = DirectedMultigraph(["a", "b"], [("a", "b", 1.0), ("b", "a", 1.0)])
    path = tmp_path / "pair.json"
    save_instance(DssInstance(g, frozenset(["a", "b"])), path)
    assert main(["solve", str(path)]) == EXIT_ERROR
    assert "rooted" in capsys.readouterr().err


def test_config_file_and_flag_precedence(diamond_file, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"depth": 2, "seed": 5, "iters": 56}))
    code = main(["solve", str(diamond_file), "--config", str(config), "--seed", "11"])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "seed=11" in text  # flag beats file
    assert "depth=2" in text  # file beats built-in default
    assert "iterations=56" in text  # from the file, not the default 40 * 2 * ln 4 -> 111
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
     ("samples", None), ("beta_mult", False), ("beta_mult", 10**400)],
    ids=lambda value: "int401" if value == 10**400 else None,
)
def test_config_file_wrong_type(diamond_file, tmp_path, capsys, key, value):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({key: value}))
    assert main(["solve", str(diamond_file), "--config", str(config)]) == EXIT_ERROR
    assert f"error: config file key '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field", ["depth", "iterations", "samples", "beta_multiplier"]
)
def test_pipeline_config_rejects(field):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        PipelineConfig(**{field: 0})


def test_pipeline_config_rejects_negative_seed():
    with pytest.raises(ValueError, match="^seed must be >= 0"):
        PipelineConfig(seed=-1)


def test_solve_rejects_negative_seed(diamond_file, capsys, monkeypatch):
    # rejected while the config is built, before preflight, tree or LP
    def no_work(*args):
        raise AssertionError("the pipeline ran")

    monkeypatch.setattr(cli, "run_pipeline", no_work)
    assert main(["solve", str(diamond_file), "--seed", "-1"]) == EXIT_ERROR
    assert "error: seed must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("how", ["flag", "file"])
def test_solve_rejects_zero_iterations(diamond_file, tmp_path, capsys, how):
    # an explicit 0 is an error, not a request for the default count
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"iters": 0}))
    extra = ["--iters", "0"] if how == "flag" else ["--config", str(config)]
    assert main(["solve", str(diamond_file), *extra]) == EXIT_ERROR
    assert "error: iterations must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_pipeline_config_rejects_non_finite_beta_multiplier(value):
    with pytest.raises(ValueError, match="^beta_multiplier must be positive and finite"):
        PipelineConfig(beta_multiplier=value)


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("how", ["flag", "file"])
def test_solve_rejects_non_finite_beta_multiplier(diamond_file, tmp_path, capsys, monkeypatch,
                                                  value, how):
    # json.loads accepts Infinity and NaN; both are rejected while the config
    # is built, before preflight, tree or LP
    def no_work(*args):
        raise AssertionError("the pipeline ran")

    monkeypatch.setattr(cli, "run_pipeline", no_work)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"beta_mult": float(value)}))
    extra = ["--beta-mult", value] if how == "flag" else ["--config", str(config)]
    assert main(["solve", str(diamond_file), *extra]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: beta_multiplier must be positive and finite")
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_exact_rejects_non_finite_time_budget(diamond_file, capsys, value):
    assert main(["exact", str(diamond_file), "--time-budget", value]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: time_budget must be positive and finite")
    assert "Traceback" not in err


def test_config_file_not_an_object(diamond_file, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(["seed"]))
    assert main(["solve", str(diamond_file), "--config", str(config)]) == EXIT_ERROR
    assert "error: config file must hold a JSON object" in capsys.readouterr().err


def test_config_file_typed_values(tmp_path):
    # integers pass for the float keys, and a bool for prune
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"beta_mult": 2, "prune": True, "seed": 3}))
    args = build_parser().parse_args(["solve", "x.json", "--config", str(config)])
    assert _pipeline_config(args) == PipelineConfig(
        depth=2, seed=3, beta_multiplier=2.0, prune=True
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


def test_exact_search_deeper_than_the_recursion_limit(tmp_path, capsys):
    edges = [("r", "t", 10.0)] * 1200 + [("r", "t", 1.0)] * 2
    path = tmp_path / "parallel.json"
    save_instance(DstInstance(DirectedMultigraph(["r", "t"], edges), "r", frozenset(["t"])), path)
    assert main(["exact", str(path), "--max-edges", "2000"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "cost: 2\n" in text
    assert "edges: 1200 1201\n" in text


def test_exact_out_is_accepted_by_verify(tmp_path, capsys):
    path, out = tmp_path / "inst.json", tmp_path / "opt.json"
    save_instance(random_instance(6, 14, 2, seed=3), path)
    assert main(["exact", str(path), "--out", str(out)]) == EXIT_OK
    printed = capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert f"cost: {doc['cost']:.9g}\n" in printed
    assert f"edges: {' '.join(map(str, doc['edges']))}\n" in printed
    assert doc["meta"] == {"exact": True}
    assert main(["verify", str(path), str(out)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["feasible"] is True


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


def test_reduce_dss_vertex_mode(tmp_path, capsys):
    # a bidirected K4 with three terminals: the gadget pair x, y and one more
    arcs = [("x", "y"), ("x", "z"), ("x", "w"), ("y", "z"), ("y", "w"), ("z", "w")]
    g = DirectedMultigraph(["w", "x", "y", "z"],
                           [e for a, b in arcs for e in ((a, b, 1.0), (b, a, 1.0))])
    inst_path, merged = tmp_path / "k4.json", tmp_path / "merged.json"
    save_instance(DssInstance(g, frozenset(["x", "y", "w"])), inst_path)
    code = main(["reduce", str(inst_path), "--mode", "dss-vertex", "--depth", "2",
                 "--out", str(merged)])
    assert code == EXIT_OK
    assert f"merged solution written to {merged}" in capsys.readouterr().out

    split = vertex_split(g)
    keep = set(json.loads(merged.read_text())["edges"]) | set(range(g.num_edges, split.num_edges))
    for s, t in itertools.permutations(["w", "x", "y"], 2):
        assert max_flow_unit(split, (s, "out"), (t, "in"), restrict_to=keep)[0] >= 2


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


@pytest.mark.parametrize("flag", [["--seed", "1"], ["--iters", "5"], ["--samples", "2"],
                                  ["--prune"]], ids=lambda flag: flag[0][2:])
def test_lp_export_refuses_flags_it_does_not_read(diamond_file, capsys, flag):
    # the export reads only the depth and the congestion multiplier
    with pytest.raises(SystemExit) as exit_:
        main(["lp-export", str(diamond_file), "--depth", "1", *flag])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


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
