import numpy as np
import pytest

from twodst.lp_model import (
    EQ,
    GE,
    LE,
    LpModel,
    LpRow,
    VarIndex,
    build_lp,
    congestion_parameter,
)
from twodst.lp_solver import solve
from twodst.shallow_tree import build_shallow_tree


def tiny_model(rows):
    index = VarIndex(1 + max(i for r in rows for i in r[0]), 0, ())
    objective = np.ones(index.total)
    return LpModel.from_rows(
        index, objective, [LpRow(tuple(c), tuple(co), s, r, "test") for c, co, s, r in rows]
    )


class TestBasics:
    def test_minimizes_against_lower_bound(self):
        model = tiny_model([((0,), (1.0,), GE, 0.5)])
        sol = solve(model)
        assert sol.status == "optimal"
        assert sol.values[0] == pytest.approx(0.5, abs=1e-9)
        assert sol.objective == pytest.approx(0.5, abs=1e-9)

    def test_equality_row(self):
        model = tiny_model([((0, 1), (1.0, 1.0), EQ, 1.2), ((0,), (1.0,), LE, 0.4)])
        sol = solve(model)
        assert sol.values[0] + sol.values[1] == pytest.approx(1.2, abs=1e-9)

    def test_bounds_are_enforced(self):
        # the only row pushes the variable up; bound [0,1] must cap it
        model = tiny_model([((0,), (1.0,), GE, 0.9)])
        sol = solve(model)
        assert sol.values[0] <= 1.0 + 1e-12

    def test_bad_config_rejected(self):
        model = tiny_model([((0,), (1.0,), GE, 0.9)])
        with pytest.raises(ValueError, match="max_iterations must be >= 1"):
            solve(model, max_iterations=0)


class TestOnRealModels:
    @pytest.fixture
    def diamond_model(self, diamond):
        tree = build_shallow_tree(diamond, 2)
        return build_lp(diamond, tree, beta=congestion_parameter(2, 1))

    def test_diamond_objective_bracket(self, diamond_model):
        sol = solve(diamond_model)
        assert sol.status == "optimal"
        assert 2.0 - 1e-6 <= sol.objective <= 4.0 + 1e-6

    def test_replay_violation_recorded(self, diamond_model):
        sol = solve(diamond_model)
        assert sol.max_violation <= 1e-8

    def test_bit_for_bit_reproducible(self, diamond_model):
        a = solve(diamond_model)
        b = solve(diamond_model)
        assert np.array_equal(a.values, b.values)
        assert a.objective == b.objective

    def test_iteration_limit_is_explicit(self, diamond_model):
        sol = solve(diamond_model, max_iterations=1)
        assert sol.status == "limit"
        assert np.isnan(sol.objective)


class TestInfeasibility:
    @pytest.fixture
    def infeasible_model(self, chain):
        tree = build_shallow_tree(chain, 2)
        return build_lp(chain, tree, beta=100.0)

    def test_status_and_certificate(self, infeasible_model):
        sol = solve(infeasible_model)
        assert sol.status == "infeasible"
        assert sol.certificate is not None
        assert sol.certificate.total_relaxation > 1e-6
        assert len(sol.certificate.rows) >= 1

    def test_certificate_names_families(self, infeasible_model):
        sol = solve(infeasible_model)
        families = sol.certificate.families()
        assert set(families) <= {"gst", "cong", "div"}
        assert all(amount > 0 for amount in families.values())

    def test_relaxing_certificate_rows_restores_feasibility(self, infeasible_model):
        sol = solve(infeasible_model)
        amounts = {pos: amount for pos, _, amount in sol.certificate.rows}
        slack = 1e-6
        repaired = []
        for pos, row in enumerate(infeasible_model.rows):
            if pos not in amounts:
                repaired.append(row)
                continue
            give = amounts[pos] + slack
            if row.sense == LE:
                repaired.append(LpRow(row.cols, row.coefs, LE, row.rhs + give, row.family))
            elif row.sense == GE:
                repaired.append(LpRow(row.cols, row.coefs, GE, row.rhs - give, row.family))
            else:
                repaired.append(LpRow(row.cols, row.coefs, LE, row.rhs + give, row.family))
                repaired.append(LpRow(row.cols, row.coefs, GE, row.rhs - give, row.family))
        relaxed = LpModel.from_rows(
            infeasible_model.var_index,
            infeasible_model.objective,
            repaired,
            infeasible_model.beta,
        )
        assert solve(relaxed).status == "optimal"

    def test_trivial_contradiction(self):
        model = tiny_model([((0,), (1.0,), GE, 0.8), ((0,), (1.0,), LE, 0.2)])
        sol = solve(model)
        assert sol.status == "infeasible"
        assert sol.certificate.total_relaxation == pytest.approx(0.6, abs=1e-6)

