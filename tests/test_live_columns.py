"""The live-column mask: agreement with a loop oracle, and exactness of
solving over the live columns only."""

import dataclasses
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_live, useless_pairs
from twodst.errors import ModelInconsistencyError
from twodst.exact import random_instance
from twodst.lp_model import (
    GE,
    INFEASIBLE,
    LE,
    OPTIMAL,
    FlatVarIndex,
    LpModel,
    LpRow,
    build_lp,
    congestion_parameter,
)
from twodst.lp_solver import SolverConfig, solve
from twodst.pipeline import PipelineConfig, run_pipeline
from twodst.shallow_tree import ShallowTreeConfig, build_shallow_tree


def _model(inst, depth, beta=None):
    tree = build_shallow_tree(inst, ShallowTreeConfig(depth=depth))
    if beta is None:
        beta = congestion_parameter(depth, inst.num_terminals)
    return tree, build_lp(inst, tree, beta)


def _all_live(model):
    return dataclasses.replace(model, live=np.ones(model.num_vars, dtype=bool))


def _check(inst, depth, beta=None):
    tree, model = _model(inst, depth, beta)
    assert np.array_equal(model.live, reference_live(inst, tree))

    reduced, full = solve(model), solve(_all_live(model))
    assert reduced.status == full.status
    assert reduced.solved_shape[1] == int(model.live.sum())
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
        assert reduced.certificate == full.certificate
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


def test_heavy_tail_instance_solves():
    # the full LP of this instance ran for minutes in HiGHS; the live
    # columns solve in about a thousand iterations
    _, model = _model(random_instance(12, 40, 3, seed=25), 2)
    sol = solve(model, SolverConfig(max_iterations=20_000))
    assert sol.status == OPTIMAL
    assert sol.max_violation <= 1e-8


def _flat_model(rows, live):
    index = FlatVarIndex([f"v_{j}" for j in range(len(live))])
    model = LpModel.from_rows(
        index, np.ones(index.total), [LpRow(c, co, s, r, "test") for c, co, s, r in rows]
    )
    assert model.live.all()
    return dataclasses.replace(model, live=np.array(live))


def test_rows_of_dead_columns_are_dropped_when_zero_satisfies_them():
    model = _flat_model([((0,), (1.0,), LE, 0.5), ((1,), (1.0,), GE, 0.25)], [False, True])
    sol = solve(model)
    assert sol.status == OPTIMAL
    assert sol.solved_shape == (1, 1, 1)
    assert list(sol.values) == pytest.approx([0.0, 0.25], abs=1e-9)


def test_rows_of_dead_columns_must_be_satisfied_by_zero():
    model = _flat_model([((0,), (1.0,), GE, 0.5), ((1,), (1.0,), GE, 0.25)], [False, True])
    with pytest.raises(ModelInconsistencyError):
        solve(model)


def test_pipeline_logs_solver_run(diamond, caplog):
    with caplog.at_level(logging.INFO, logger="twodst.pipeline"):
        run_pipeline(diamond, PipelineConfig(depth=2, seed=0))
    solved = [r.getMessage() for r in caplog.records if r.getMessage().startswith("LP solved")]
    assert len(solved) == 1
    assert "HiGHS iterations" in solved[0] and "solved shape" in solved[0]
