"""The live columns: agreement with a loop oracle, exactness of the live
model against the full one, and a solver that sees only the model's columns."""

import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    full_index,
    reference_elastic_total,
    reference_live,
    reference_model,
    unpruned_tree,
    useless_pairs,
)
from twodst import graph, lp_model, lp_solver, pipeline, shallow_tree
from twodst.errors import ModelInconsistencyError
from twodst.exact import random_instance
from twodst.lp_model import (
    INFEASIBLE,
    OPTIMAL,
    VarIndex,
    build_lp,
    congestion_parameter,
)
from twodst.lp_solver import solve
from twodst.pipeline import PipelineConfig, run_pipeline
from twodst.shallow_tree import build_shallow_tree


def _model(inst, depth, beta=None):
    tree = build_shallow_tree(inst, depth)
    if beta is None:
        beta = congestion_parameter(depth, inst.num_terminals)
    return tree, build_lp(inst, tree, beta)


def _check(inst, depth, beta=None):
    tree, model = _model(inst, depth, beta)
    assert np.array_equal(model.var_index.columns, np.flatnonzero(reference_live(inst, tree)))
    # the tree holds an edge only where a graph path realizes it
    _, pairs = lp_model.live_columns(inst.graph, tree, lp_model._ends(inst, tree), math.inf)
    assert np.array_equal(np.unique(pairs // inst.graph.num_edges), np.arange(tree.num_edges))

    reduced, full = solve(model), solve(reference_model(inst, tree, model.beta))
    assert reduced.status == full.status
    if full.status == OPTIMAL:
        assert reduced.objective == pytest.approx(full.objective, abs=1e-7)
        assert reduced.max_violation <= 1e-8
        # rule (c) columns carry no flow in the all-live optimum
        idx = full.model.var_index
        for ehat, e in useless_pairs(inst, tree):
            assert full.at(idx.f(ehat, e)) <= 1e-9
            for t in inst.terminals:
                assert full.at(idx.ft(t, ehat, e)) <= 1e-9
    else:
        # row positions differ between the models: compare the amounts
        got, want = reduced.certificate, full.certificate
        assert got.total_relaxation == pytest.approx(want.total_relaxation, abs=1e-7)
        assert got.total_relaxation == pytest.approx(reference_elastic_total(model), abs=1e-7)
        assert got.families().keys() == want.families().keys()
        for family, amount in want.families().items():
            assert got.families()[family] == pytest.approx(amount, abs=1e-7)
    return model, reduced


@pytest.mark.parametrize(
    "fixture, depth, dead", [("parallel_pair", 1, False), ("diamond", 2, True)]
)
def test_fixtures(request, fixture, depth, dead):
    inst = request.getfixturevalue(fixture)
    model, sol = _check(inst, depth)
    assert sol.status == OPTIMAL
    full = full_index(inst, build_shallow_tree(inst, depth))
    assert (model.num_vars < len(full.columns)) == dead


@pytest.mark.parametrize("fixture", ["diamond", "parallel_pair", "multicover"])
@pytest.mark.parametrize("depth", [1, 2])
def test_lp_value_equals_the_full_models(request, fixture, depth):
    # the live model drops dead columns and the rows the box implies; the
    # full reference model has every column and every row
    inst = request.getfixturevalue(fixture)
    tree, model = _model(inst, depth)
    live, full = solve(model), solve(reference_model(inst, tree, model.beta))
    assert live.status == full.status == OPTIMAL
    assert live.objective == pytest.approx(full.objective, abs=1e-9)


def _pipeline_lp_equals_the_unpruned_trees(inst, depth):
    # the relaxation over the full prefix tree, nodes with no terminal below
    # included, every column and every row, at the pipeline's beta
    result = run_pipeline(inst, PipelineConfig(depth=depth, seed=0))
    full = solve(reference_model(inst, unpruned_tree(inst, depth), result.beta))
    assert full.status == OPTIMAL
    assert result.lp_objective == pytest.approx(full.objective, abs=1e-7)


@pytest.mark.parametrize(
    "fixture, depth",
    [("parallel_pair", 1), ("diamond", 2), ("diamond", 3), ("multicover", 1), ("multicover", 2)],
)
def test_pipeline_lp_equals_the_unpruned_trees_on_fixtures(request, fixture, depth):
    _pipeline_lp_equals_the_unpruned_trees(request.getfixturevalue(fixture), depth)


@settings(max_examples=20)
@given(
    n=st.integers(min_value=3, max_value=6),
    extra=st.integers(min_value=0, max_value=5),
    h=st.integers(min_value=1, max_value=3),
    depth=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=10**6),
)
@example(n=6, extra=3, h=1, depth=3, seed=7)  # h < D - 1
def test_pipeline_lp_equals_the_unpruned_trees(n, extra, h, depth, seed):
    h = min(h, n - 1)
    _pipeline_lp_equals_the_unpruned_trees(random_instance(n, 2 * h + extra, h, seed=seed), depth)


def _lp_equals_the_unpruned_trees(inst, depth, beta):
    # a tight congestion cap makes the value depend on which tree edges the
    # terminals can share, so a tree that holds too little shows here even
    # where the analytic beta hides it
    pruned = solve(_model(inst, depth, beta)[1])
    full = solve(reference_model(inst, unpruned_tree(inst, depth), beta))
    assert pruned.status == full.status
    if full.status == OPTIMAL:
        assert pruned.objective == pytest.approx(full.objective, abs=1e-7)


@pytest.mark.parametrize("beta", [1.0, 2.0])
@pytest.mark.parametrize(
    "fixture, depth",
    [("parallel_pair", 1), ("diamond", 2), ("diamond", 3), ("multicover", 1), ("multicover", 2)],
)
def test_lp_equals_the_unpruned_trees_on_fixtures_under_small_beta(request, fixture, depth,
                                                                    beta):
    _lp_equals_the_unpruned_trees(request.getfixturevalue(fixture), depth, beta)


@settings(max_examples=30)
@given(
    n=st.integers(min_value=3, max_value=6),
    extra=st.integers(min_value=0, max_value=5),
    h=st.integers(min_value=1, max_value=3),
    depth=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=10**6),
    beta=st.sampled_from([0.5, 1.0, 2.0]),
)
# LP 36.464609 over the unpruned tree; a tree that holds a child only where
# its label is adjacent to its parent's, not merely reachable, gives 43.560603
@example(n=6, extra=3, h=2, depth=2, seed=10, beta=1.0)
def test_lp_equals_the_unpruned_trees_under_small_beta(n, extra, h, depth, seed, beta):
    h = min(h, n - 1)
    _lp_equals_the_unpruned_trees(random_instance(n, 2 * h + extra, h, seed=seed), depth, beta)


def test_infeasible_chain(chain):
    _, sol = _check(chain, 2, beta=100.0)
    assert sol.status == INFEASIBLE


@settings(max_examples=25)
@given(
    n=st.integers(min_value=3, max_value=7),
    extra=st.integers(min_value=0, max_value=6),
    h=st.integers(min_value=1, max_value=2),
    depth=st.integers(min_value=1, max_value=2),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_random_instances(n, extra, h, depth, seed):
    _check(random_instance(n, 2 * h + extra, h, seed=seed), depth)


@settings(max_examples=15)
@given(
    n=st.integers(min_value=3, max_value=6),
    extra=st.integers(min_value=0, max_value=5),
    h=st.integers(min_value=1, max_value=2),
    depth=st.integers(min_value=1, max_value=2),
    seed=st.integers(min_value=0, max_value=10**6),
    beta=st.sampled_from([0.25, 0.5, 1.0]),
)
def test_random_instances_under_small_beta(n, extra, h, depth, seed, beta):
    # a congestion cap this tight makes many of these LPs infeasible, so the
    # certificates of the live and the full model get compared
    _check(random_instance(n, 2 * h + extra, h, seed=seed), depth, beta)


def test_heavy_tail_instance_solves():
    # the full LP of this instance ran for minutes in HiGHS; the live
    # columns solve in about a thousand iterations
    _, model = _model(random_instance(12, 40, 3, seed=25), 2)
    sol = solve(model, max_iterations=20_000)
    assert sol.status == OPTIMAL
    assert sol.max_violation <= 1e-8


def _blocks(*rows):
    """`build_lp`'s row collector over full columns 2 (fh_t_0, dead) and 3
    (f_0_0, live, model column 2) of a one-edge, one-tree-edge,
    one-terminal layout, with one row per (cols, lower, upper)."""
    index = VarIndex(("t",), np.zeros((1, 1), dtype=bool), np.array([0]), 1)
    blocks = lp_model._RowBlocks(index, lp_model.DEFAULT_MAX_NONZEROS)
    for cols, lower, upper in rows:
        blocks.add([len(cols)], cols, np.ones(len(cols)), lower, upper, 0)
    return blocks


def test_emitted_term_on_a_dead_column_raises():
    dead = r"1 term\(s\) on dead columns and 0 row\(s\)"
    with pytest.raises(ModelInconsistencyError, match=dead):
        _blocks(([3], 0.25, math.inf), ([3, 2], -math.inf, 0.0)).arrays()


def test_emitted_row_with_no_term_raises():
    # a row with no term is never one of the model's, even where 0 satisfies it
    empty = r"0 term\(s\) on dead columns and 1 row\(s\) with no term"
    with pytest.raises(ModelInconsistencyError, match=empty):
        _blocks(([3], 0.25, math.inf), ([], -math.inf, 0.0)).arrays()


def test_dead_keys_read_zero_and_highs_gets_the_model_columns(diamond, monkeypatch):
    tree, model = _model(diamond, 2)
    calls = []

    def capture(c, rows, *args):
        calls.append((c, rows))
        return real(c, rows, *args)

    real = lp_solver._highs_model
    monkeypatch.setattr(lp_solver, "_highs_model", capture)
    sol = solve(model)
    [(c, (start, index, *_))] = calls
    assert len(c) == model.num_vars and int(index.max()) == model.num_vars - 1
    assert len(start) - 1 == model.num_rows  # row-wise
    assert len(sol.values) == model.num_vars

    idx = model.var_index
    assert np.array_equal(sol.at(idx.columns), sol.values)
    dead = np.setdiff1d(full_index(diamond, tree).columns, idx.columns)
    assert len(dead) and np.all(sol.at(dead) == 0.0)
    # the tree holds no edge without a terminal below it, so every xh is a
    # model column
    assert np.all(idx.positions(idx.xhat(np.arange(tree.num_edges))) >= 0)
    # a pair that rule (c) drops: its f and ft keys are dead and read 0
    ehat, e = min(useless_pairs(diamond, tree))
    assert idx.positions(idx.f(ehat, e)) < 0 and idx.positions(idx.ft("t", ehat, e)) < 0
    assert sol.at(np.array([idx.f(ehat, e), idx.ft("t", ehat, e)])).tolist() == [0.0, 0.0]
    assert sol.at(idx.x(np.arange(4))).tolist() == sol.values[:4].tolist()
    # a tree edge's graph flow is its live f columns, ascending, with the
    # values `at` reads; every other f key is dead
    m = diamond.graph.num_edges
    for ehat in range(tree.num_edges):
        flow = sol.graph_flow(ehat)
        live = np.flatnonzero(idx.positions(idx.f(ehat, np.arange(m))) >= 0).tolist()
        assert list(flow) == live
        assert list(flow.values()) == sol.at(idx.f(ehat, np.array(live, dtype=int))).tolist()


def test_pipeline_logs_solver_run(diamond, caplog):
    with caplog.at_level(logging.INFO, logger="twodst.pipeline"):
        run_pipeline(diamond, PipelineConfig(depth=2, seed=0))
    solved = [r.getMessage() for r in caplog.records if r.getMessage().startswith("LP solved")]
    assert len(solved) == 1
    assert "HiGHS iterations" in solved[0] and "solved shape" in solved[0]


def test_a_solve_searches_once_per_terminal_and_label_pair(multicover, monkeypatch):
    # beta starts at 1 here and is doubled once: two models over one tree.
    # At depth 1 the tree searches forward from the root and back from each
    # of the 7 terminals, and each model once per label pair (root, t)
    searches, ends, models = [], [], []

    def counted(real, calls):
        return lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs)

    for module, name, calls in ((shallow_tree, "search", searches),
                                (lp_model, "search", searches), (lp_model, "_ends", ends),
                                (pipeline, "build_lp", models)):
        monkeypatch.setattr(module, name, counted(getattr(module, name), calls))
    result = run_pipeline(multicover, PipelineConfig(depth=1, beta_multiplier=0.05))
    assert result.beta == 2 and len(models) == 2
    h = multicover.num_terminals
    assert len(searches) == 1 + h + len(models) * h == 22
    assert len(ends) == len(models)


def test_a_depth_one_label_reaches_less_than_the_root(monkeypatch):
    # at depth 3 the pair (u, v) searches back from v within R(u) = {u, v,
    # t}, which leaves out a -> v and r -> a; within the root's set it
    # would keep them
    g = graph.DirectedMultigraph(
        ["r", "u", "a", "v", "t"],
        [("r", "u", 1.0), ("r", "a", 1.0), ("u", "v", 1.0), ("a", "v", 1.0), ("v", "t", 1.0),
         ("r", "t", 1.0)],
    )
    inst = graph.DstInstance(g, "r", frozenset(["t"]))
    searches = []
    real = shallow_tree.search
    monkeypatch.setattr(shallow_tree, "search",
                        lambda *args, **kwargs: searches.append(args[1]) or real(*args, **kwargs))
    model, _ = _check(inst, 3)
    assert len(model.var_index.columns) == 134
    # the root, the terminal, then each depth-1 label once
    assert sorted(searches) == ["a", "r", "t", "t", "u", "v"]
    tree = build_shallow_tree(inst, 3)
    assert tree.ahead["u"] == {"u", "v", "t"} < tree.ahead["r"]
