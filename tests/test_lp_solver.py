import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

from oracles import (
    equalities_last,
    every_column,
    model_from_rows,
    reference_colwise_linprog,
    reference_elastic_total,
    reference_highs_rows,
    reference_linprog,
)
from twodst import lp_solver, pipeline
from twodst.errors import SolverError
from twodst.exact import random_instance
from twodst.graph import DirectedMultigraph, DstInstance, max_flow_unit
from twodst.lp_model import (
    EQ,
    GE,
    LE,
    LpRow,
    build_lp,
    congestion_parameter,
)
from twodst.lp_solver import solve
from twodst.pipeline import PipelineConfig, run_pipeline
from twodst.shallow_tree import build_shallow_tree


def tiny_model(rows):
    index = every_column(1 + max(i for r in rows for i in r[0]), 0, ())
    objective = np.ones(len(index.columns))
    return model_from_rows(
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


class TestBackendResultsThatAreRefused:
    """`solve` raises on what HiGHS reports rather than passing it on."""

    @pytest.fixture
    def diamond_model(self, diamond):
        return build_lp(diamond, build_shallow_tree(diamond, 2), beta=congestion_parameter(2, 1))

    def test_optimal_point_that_fails_the_replay_raises(self, diamond_model, monkeypatch):
        real = lp_solver.linprog

        def perturbed(*args):
            result = real(*args)
            x = result.x.copy()
            x[0] -= 1e-3  # x_0 short of an f <= x row it bounds
            return result._replace(x=x)

        monkeypatch.setattr(lp_solver, "linprog", perturbed)
        with pytest.raises(SolverError, match="reported optimal but replay finds violation"):
            solve(diamond_model)

    def test_optimal_point_with_a_nan_coordinate_raises(self, diamond_model, monkeypatch):
        real = lp_solver.linprog

        def with_nan(*args):
            result = real(*args)
            x = result.x.copy()
            x[-1] = np.nan
            return result._replace(x=x)

        monkeypatch.setattr(lp_solver, "linprog", with_nan)
        with pytest.raises(SolverError, match="replay finds violation inf"):
            solve(diamond_model)

    @pytest.mark.parametrize("objective", [lambda fun: fun + 1e-6, lambda fun: np.nan,
                                           lambda fun: np.inf], ids=["off", "nan", "inf"])
    def test_objective_that_is_not_the_points_raises(self, diamond_model, monkeypatch,
                                                     objective):
        real = lp_solver.linprog

        def misreported(*args):
            result = real(*args)
            return result._replace(fun=objective(result.fun))

        monkeypatch.setattr(lp_solver, "linprog", misreported)
        with pytest.raises(SolverError, match="reported objective .* but the point's is"):
            solve(diamond_model)

    def test_unknown_backend_status_raises(self, diamond_model, monkeypatch):
        def unbounded(*args):
            return lp_solver.HighsResult(None, None, None, 0, "Unbounded")

        monkeypatch.setattr(lp_solver, "linprog", unbounded)
        with pytest.raises(SolverError, match="backend failure: Unbounded"):
            solve(diamond_model)


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
        assert sol.certificate.total_relaxation == pytest.approx(
            reference_elastic_total(infeasible_model), abs=1e-7)

    def test_relaxation_cut_short_raises(self, infeasible_model):
        # 5 iterations find the model infeasible but do not finish its
        # feasibility relaxation: no certificate, and no partial one
        with pytest.raises(SolverError, match="feasibility relaxation failed: .*kWarning"):
            solve(infeasible_model, max_iterations=5)

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
        relaxed = model_from_rows(
            infeasible_model.var_index,
            infeasible_model.objective,
            repaired,
            infeasible_model.beta,
        )
        assert solve(relaxed).status == "optimal"

    def test_certificate_names_the_one_row_to_relax(self):
        # x0 + x1 <= 2 on the box, so row 0 must give 0.5; the other rows,
        # on other columns, all hold at once, and row 3 is row 0's mirror
        model = tiny_model([((0, 1), (1.0, 1.0), GE, 2.5), ((2,), (1.0,), GE, 0.5),
                            ((3,), (1.0,), LE, 0.5), ((2, 3), (1.0, 1.0), EQ, 1.0)])
        sol = solve(model)
        assert sol.status == "infeasible"
        [(pos, family, amount)] = sol.certificate.rows
        assert (pos, family) == (0, "test")
        assert amount == pytest.approx(0.5, abs=1e-9)
        assert sol.certificate.total_relaxation == pytest.approx(0.5, abs=1e-9)

    def test_trivial_contradiction(self):
        model = tiny_model([((0,), (1.0,), GE, 0.8), ((0,), (1.0,), LE, 0.2)])
        sol = solve(model)
        assert sol.status == "infeasible"
        assert sol.certificate.total_relaxation == pytest.approx(0.6, abs=1e-6)
        assert sol.certificate.total_relaxation == pytest.approx(
            reference_elastic_total(model), abs=1e-7)

    @settings(max_examples=30)
    @given(
        n=st.integers(min_value=3, max_value=6),
        extra=st.integers(min_value=0, max_value=5),
        h=st.integers(min_value=1, max_value=2),
        depth=st.integers(min_value=1, max_value=2),
        seed=st.integers(min_value=0, max_value=10**6),
        beta=st.sampled_from([0.25, 0.5]),
    )
    def test_total_is_the_elastic_optimum_on_random_models(self, n, extra, h, depth, seed,
                                                            beta):
        h = min(h, n - 1)
        inst = random_instance(n, 2 * h + extra, h, seed=seed)
        model = build_lp(inst, build_shallow_tree(inst, depth), beta)
        sol = solve(model)
        assume(sol.status == "infeasible")  # a cap below 1 leaves most of these infeasible
        assert sol.certificate.total_relaxation == pytest.approx(
            reference_elastic_total(model), abs=1e-7)


class TestBetaRetries:
    """The pipeline doubles beta after an infeasible LP, at most
    `pipeline.BETA_RETRIES` times."""

    @pytest.fixture
    def binary_tree(self):
        """A complete binary tree three levels below r, every arc doubled at
        cost 1 (15 vertices, 28 edges), with the 8 leaves as terminals. OPT
        is the whole graph. At depth 1 the 16 units of tree flow leave r
        over its 4 edges, so the LP needs beta >= 4."""
        name = ["r"] + [f"v{k}" for k in range(1, 15)]  # node k's children: 2k+1, 2k+2
        arcs = [(name[k], name[c], 1.0) for k in range(7) for c in (2 * k + 1, 2 * k + 2)]
        graph = DirectedMultigraph(name, [arc for arc in arcs for _ in range(2)])
        return DstInstance(graph, "r", frozenset(name[7:]))

    def test_infeasible_beta_doubles(self, binary_tree):
        # beta starts at ceil(0.1 * 2 * 1 * 8) = 2, whose LP is infeasible
        assert congestion_parameter(1, 8, 0.1) == 2
        result = run_pipeline(binary_tree, PipelineConfig(depth=1, beta_multiplier=0.1))
        assert result.beta == 4
        assert result.lp_objective == pytest.approx(28.0)
        assert result.solution.cost == 28.0
        assert result.feasible

    def test_no_retries_left_raises(self, binary_tree, monkeypatch):
        monkeypatch.setattr(pipeline, "BETA_RETRIES", 0)
        with pytest.raises(SolverError, match="irreducible rows in families"):
            run_pipeline(binary_tree, PipelineConfig(depth=1, beta_multiplier=0.1))


class TestFeasibleAtCapH:
    """At beta = h the LP is feasible on every instance the preflight
    accepts: two edge-disjoint root -> t paths per terminal t, each on a
    depth-1 tree edge root -> t of its own copy, make a point of it (see
    `pipeline`)."""

    @settings(max_examples=40)
    @given(
        n=st.integers(min_value=3, max_value=7),
        extra=st.integers(min_value=0, max_value=8),
        h=st.integers(min_value=1, max_value=3),
        depth=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=10**6),
        planted=st.booleans(),
    )
    def test_random_instances(self, n, extra, h, depth, seed, planted):
        h = min(h, n - 1)
        inst = random_instance(n, 2 * h + extra, h, seed=seed, guarantee_feasible=planted)
        assume(all(max_flow_unit(inst.graph, inst.root, t, limit=2)[0] == 2
                   for t in inst.terminals))
        assert solve(build_lp(inst, build_shallow_tree(inst, depth), h)).status == "optimal"

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_multicover(self, multicover, depth):
        model = build_lp(multicover, build_shallow_tree(multicover, depth),
                         multicover.num_terminals)
        assert solve(model).status == "optimal"


# scipy's linprog status codes, as `lp_solver.linprog` reports them
SCIPY_STATUS = {0: "optimal", 1: "limit", 2: "infeasible"}

# the solves `TestDirectHighsCall` and `TestHighsArrays` pin: instance,
# depth, beta (None for the analytic one), iteration limit and the status
# solve reports
SOLVES = [
    ("diamond", 1, None, None, "optimal"),
    ("diamond", 2, None, None, "optimal"),
    ("parallel_pair", 1, None, None, "optimal"),
    ("parallel_pair", 2, None, None, "optimal"),
    ("multicover", 1, None, None, "optimal"),
    ("multicover", 2, None, None, "optimal"),
    ("planted", 2, None, None, "optimal"),
    ("multicover", 2, None, 1, "limit"),
    # the certificate is HiGHS's feasibility relaxation, not a second linprog
    ("chain", 2, 100.0, None, "infeasible"),
]


def _solve_model(request, fixture, depth, beta):
    if fixture == "planted":
        inst = random_instance(12, 40, 3, seed=6)
    else:
        inst = request.getfixturevalue(fixture)
    tree = build_shallow_tree(inst, depth)
    if beta is None:
        beta = congestion_parameter(depth, inst.num_terminals)
    return build_lp(inst, tree, beta)


def _assert_same_arrays(got, want):
    """Equal bit for bit: dtype, shape and bytes, so sign bits of zeros too."""
    assert len(got) == len(want) == 5
    for g, w in zip(got, want):
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()


def _assert_same_answer(got, want):
    """`lp_solver.linprog`'s result is scipy's `linprog` result, bit for bit."""
    assert (got.status, got.nit) == (SCIPY_STATUS[want.status], want.nit)
    if want.x is None:
        assert got.x is None and got.fun is None
    else:
        assert got.x.tobytes() == np.asarray(want.x).tobytes()
        assert got.fun == want.fun


def _as_colwise(rows, n):
    """`_split_rows`' row-wise arrays as column-wise ones, each [b, inf)
    row negated to (-inf, -b], by scipy's sparse conversion."""
    start, index, value, lower, upper = rows
    ge = upper == np.inf
    value = value * np.repeat(np.where(ge, -1.0, 1.0), np.diff(start))
    a = csr_matrix((value, index, start), shape=(len(upper), n)).tocsc()
    return (a.indptr.astype(np.int32), a.indices.astype(np.int32), a.data,
            np.where(ge, -upper, lower), np.where(ge, -lower, upper))


class TestDirectHighsCall:
    """`lp_solver.linprog` calls HiGHS through scipy's private bindings; it
    must give what `scipy.optimize.linprog(method="highs")` gives, bit for
    bit, on every call `solve` makes."""

    @pytest.mark.parametrize("fixture, depth, beta, max_iterations, status", SOLVES)
    def test_direct_call_matches_linprog(self, request, monkeypatch, fixture, depth, beta,
                                         max_iterations, status):
        model = _solve_model(request, fixture, depth, beta)
        calls = []
        real_setup, real_run = lp_solver._highs_model, lp_solver.linprog

        def setup(*args):
            calls.append(args)
            return real_setup(*args)

        def run(highs):
            calls.append(real_run(highs))
            return calls[-1]

        monkeypatch.setattr(lp_solver, "_highs_model", setup)
        monkeypatch.setattr(lp_solver, "linprog", run)
        assert solve(model, max_iterations=max_iterations).status == status
        [args, got] = calls
        _assert_same_answer(got, reference_linprog(*args))

    def test_missing_binding_fails_at_import_naming_it(self):
        src = str(Path(lp_solver.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        # a name of the module, and a method of the HiGHS class
        for name, attribute in [("MatrixFormat", "core.MatrixFormat"),
                                ("feasibilityRelaxation", "core._Highs.feasibilityRelaxation")]:
            code = (
                "import scipy.optimize._highspy._core as core\n"
                f"del {attribute}\n"
                "import twodst.lp_solver\n"
            )
            run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                 env=env, timeout=120)
            assert run.returncode != 0
            assert "ImportError" in run.stderr and f"'{name}'" in run.stderr


class TestHighsArrays:
    """`_split_rows` hands HiGHS the model's CSR row-wise, a >= row as the
    range [b, inf); it must be the LP of the column-wise arrays scipy's
    `linprog` builds (`reference_highs_rows`: >= rows negated, = rows last,
    stacked by scipy), and HiGHS must give the same x, fun and nit on both,
    bit for bit. A solve gathers and passes the model once, also when it
    certifies an infeasible one."""

    @pytest.mark.parametrize("fixture, depth, beta, max_iterations, status", SOLVES)
    def test_split_rows_matches_sparse_stacking(self, request, monkeypatch, fixture, depth,
                                                beta, max_iterations, status):
        model = _solve_model(request, fixture, depth, beta)
        # the gst rows are >= rows, so their ranges are checked too
        assert (model.row_upper == np.inf).any()
        models, passed = [], []
        real = lp_solver._split_rows

        def capture(m):
            models.append(m)
            return real(m)

        class Highs(lp_solver._highs._Highs):
            def passModel(self, *args):
                passed.append(args[:2])
                return super().passModel(*args)

        monkeypatch.setattr(lp_solver, "_split_rows", capture)
        monkeypatch.setattr(lp_solver._highs, "_Highs", Highs)
        assert solve(model, max_iterations=max_iterations).status == status
        # the certificate relaxes the HiGHS object that found the model infeasible
        assert models == [model]
        assert passed == [(model.num_vars, model.num_rows)]
        monkeypatch.undo()
        rows, colwise = real(model), reference_highs_rows(model)
        _assert_same_arrays(_as_colwise(rows, model.num_vars), colwise)
        _assert_same_answer(lp_solver.linprog(lp_solver._highs_model(model.objective, rows,
                                                                     max_iterations)),
                            reference_colwise_linprog(model.objective, colwise, max_iterations))

    @given(st.data())
    def test_split_rows_matches_sparse_stacking_on_any_rows(self, data):
        n = data.draw(st.integers(1, 6))
        rows = []
        for _ in range(data.draw(st.integers(0, 8))):
            cols = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
            coefs = data.draw(st.lists(st.floats(allow_nan=False), min_size=len(cols),
                                       max_size=len(cols)))
            sense = data.draw(st.sampled_from([LE, GE, EQ]))
            rhs = data.draw(st.sampled_from([0.0, -0.0, 1.0, -1.5, 2.0]))
            rows.append(LpRow(tuple(cols), tuple(coefs), sense, rhs, "test"))
        model = model_from_rows(every_column(n, 0, ()), np.ones(n), equalities_last(rows))
        start, index, value, lower, upper = got = lp_solver._split_rows(model)
        # the model's CSR as it is, in the dtypes HiGHS stores
        assert (start.dtype, index.dtype, value.dtype) == (np.int32, np.int32, np.float64)
        assert start.tolist() == model.indptr.tolist()
        assert index.tolist() == model.indices.tolist()
        assert value.tobytes() == model.data.tobytes()
        _assert_same_arrays(_as_colwise(got, n), reference_highs_rows(model))


class TestRejectedModel:
    """A model HiGHS will not take is a fault, not an infeasible LP."""

    @pytest.fixture
    def model(self):
        return tiny_model([((0,), (1.0,), GE, 0.5)])

    @pytest.mark.parametrize("break_rows", [
        lambda start, index, value, lower, upper: (start, index + 5, value, lower, upper),
        lambda start, index, value, lower, upper: (start, index - 1, value, lower, upper),
        lambda start, index, value, lower, upper: (start, index, value * np.inf, lower, upper),
    ], ids=["index-out-of-range", "negative-index", "infinite-coefficient"])
    def test_rejection_raises_naming_it(self, model, break_rows):
        rows = break_rows(*lp_solver._split_rows(model))
        with pytest.raises(SolverError, match="HiGHS rejected the model"):
            lp_solver._highs_model(model.objective, rows, None)

    @pytest.mark.parametrize("break_rows", [
        lambda start, index, value, lower, upper: (start[:-1], index, value, lower, upper),
        lambda start, index, value, lower, upper: (start, index[:0], value, lower, upper),
        lambda start, index, value, lower, upper: (start, index, value, lower[:0], upper),
    ], ids=["short-starts", "short-indices", "short-row-bounds"])
    def test_lengths_that_do_not_fit_are_refused_before_highs(self, model, break_rows):
        # HiGHS reads the arrays by pointer and would not notice a short one
        rows = break_rows(*lp_solver._split_rows(model))
        with pytest.raises(SolverError, match="malformed rows for HiGHS"):
            lp_solver._highs_model(model.objective, rows, None)

    def test_solve_raises_instead_of_certifying(self, model, monkeypatch):
        real = lp_solver._split_rows

        def malformed(m):
            start, index, value, lower, upper = real(m)
            return start, index + m.num_vars + m.num_rows, value, lower, upper

        def no_certificate(*args):
            raise AssertionError("a rejected model is not infeasible")

        monkeypatch.setattr(lp_solver, "_split_rows", malformed)
        monkeypatch.setattr(lp_solver, "_infeasibility_certificate", no_certificate)
        with pytest.raises(SolverError, match="passModel returned kError"):
            solve(model)
