"""The live-column mask: agreement with a loop oracle, and exactness of
the live model against the full one."""

import dataclasses
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_live, reference_rows, useless_pairs
from twodst import lp_model
from twodst.errors import ModelInconsistencyError
from twodst.exact import random_instance
from twodst.lp_model import (
    GE,
    INFEASIBLE,
    LE,
    OPTIMAL,
    LpModel,
    LpRow,
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


def _full(inst, tree, model):
    """The full model, every column live, from the row-at-a-time builder."""
    rows = reference_rows(inst, tree, model.beta)
    return LpModel.from_rows(model.var_index, model.objective, rows, model.beta)


def _check(inst, depth, beta=None):
    tree, model = _model(inst, depth, beta)
    assert np.array_equal(model.live, reference_live(inst, tree))

    reduced, full = solve(model), solve(_full(inst, tree, model))
    assert reduced.status == full.status
    # HiGHS gets every row of the live model, over the live columns
    assert reduced.solved_shape == (model.num_rows, int(model.live.sum()), model.nonzeros())
    assert full.solved_shape[1] == model.num_vars
    # dead columns come back as exact zeros
    assert np.all(reduced.values[~model.live] == 0.0)
    if full.status == OPTIMAL:
        assert reduced.objective == pytest.approx(full.objective, abs=1e-7)
        assert reduced.max_violation <= 1e-8
        # rule (c) columns carry no flow in the all-live optimum
        for ehat, e in useless_pairs(inst, tree):
            assert full.f(ehat, e) <= 1e-9
            for t in inst.terminals:
                assert full.ft(t, ehat, e) <= 1e-9
    else:
        # row positions differ between the models: compare the amounts
        got, want = reduced.certificate, full.certificate
        assert got.total_relaxation == pytest.approx(want.total_relaxation, abs=1e-7)
        assert got.families().keys() == want.families().keys()
        for family, amount in want.families().items():
            assert got.families()[family] == pytest.approx(amount, abs=1e-7)
    return model, reduced


@pytest.mark.parametrize(
    "fixture, depth, dead", [("parallel_pair", 1, False), ("diamond", 2, True)]
)
def test_fixtures(request, fixture, depth, dead):
    model, sol = _check(request.getfixturevalue(fixture), depth)
    assert sol.status == OPTIMAL
    assert (not model.live.all()) == dead


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
    """`build_lp`'s row collector over columns 0 (dead) and 1 (live)."""
    blocks = lp_model._RowBlocks(np.array([False, True]))
    for col, sense, rhs in rows:
        blocks.add([1], [col], [1.0], sense, rhs, 0)
    return blocks


def test_rows_of_dead_columns_are_dropped_when_zero_satisfies_them():
    arrays = _blocks((0, LE, 0.5), (1, GE, 0.25)).arrays()
    assert arrays["indptr"].tolist() == [0, 1]
    assert arrays["indices"].tolist() == [1]
    assert (arrays["sense"].tolist(), arrays["rhs"].tolist()) == ([GE], [0.25])


def test_rows_of_dead_columns_must_be_satisfied_by_zero():
    with pytest.raises(ModelInconsistencyError, match="only dead columns"):
        _blocks((0, GE, 0.5), (1, GE, 0.25)).arrays()


def test_row_with_dead_column_is_rejected():
    # build_lp cuts dead terms itself (test_row_that_zero_breaks_keeps_a_live_column);
    # a model whose row still holds a dead column is refused at construction
    rows = [LpRow((0,), (1.0,), LE, 0.5, "test"), LpRow((1,), (1.0,), GE, 0.25, "test")]
    model = LpModel.from_rows(VarIndex(2, 0, ()), np.ones(2), rows)
    assert model.live.all()
    with pytest.raises(ModelInconsistencyError, match="row 0 holds dead column x_0"):
        dataclasses.replace(model, live=np.array([False, True]))


def test_pipeline_logs_solver_run(diamond, caplog):
    with caplog.at_level(logging.INFO, logger="twodst.pipeline"):
        run_pipeline(diamond, PipelineConfig(depth=2, seed=0))
    solved = [r.getMessage() for r in caplog.records if r.getMessage().startswith("LP solved")]
    assert len(solved) == 1
    assert "HiGHS iterations" in solved[0] and "solved shape" in solved[0]
