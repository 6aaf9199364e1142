from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

from oracles import drop_family, reference_rows
from twodst.errors import SizeLimitError
from twodst.exact import random_instance
from twodst.lp_model import (
    EQ,
    GE,
    LE,
    VarIndex,
    build_lp,
    congestion_parameter,
    export_lp,
    parse_lp,
    projected_nonzeros,
    replay_constraints,
    solution_to_json,
    solution_values_from_json,
)
from twodst.lp_solver import _split_rows, solve
from twodst.shallow_tree import ShallowTreeConfig, build_shallow_tree

DATA = Path(__file__).parent / "data"


class TestCongestionParameter:
    def test_depth_two_four_terminals(self):
        assert congestion_parameter(2, 4) == 8

    def test_smallest_case(self):
        assert congestion_parameter(1, 1) == 2

    def test_cube_root_case(self):
        # 8^(1/3) is 2 up to float noise; must not round up to 13
        assert congestion_parameter(3, 8) == 12

    def test_multiplier_scales(self):
        assert congestion_parameter(2, 4, multiplier=1.5) == 12

    def test_fractional_result_rounds_up(self):
        assert congestion_parameter(2, 2) == 6  # 4*sqrt(2) = 5.66

    @pytest.mark.parametrize("args", [(0, 1, 1.0), (1, 0, 1.0), (1, 1, 0.0), (1, 1, -2.0)])
    def test_bad_arguments(self, args):
        with pytest.raises(ValueError):
            congestion_parameter(*args)


class TestVarIndex:
    def test_counts_for_parallel_pair(self, parallel_pair):
        tree = build_shallow_tree(parallel_pair, ShallowTreeConfig(depth=1))
        idx = VarIndex(parallel_pair.graph.num_edges, tree.num_edges, parallel_pair.terminals)
        # m + |tree edges| + h*|tree| + |tree|*m + h*|tree|*m
        assert idx.total == 2 + 2 + 2 + 4 + 4 == 14

    def test_bijection(self, parallel_pair):
        tree = build_shallow_tree(parallel_pair, ShallowTreeConfig(depth=1))
        idx = VarIndex(2, tree.num_edges, parallel_pair.terminals)
        names = idx.names()
        assert len(names) == len(set(names)) == idx.total

    def test_block_layout(self):
        idx = VarIndex(3, 2, ["t1", "t2"])
        assert idx.x(2) == 2
        assert idx.xhat(0) == 3
        assert idx.fhat("t1", 0) == 5
        assert idx.fhat("t2", 1) == 8
        assert idx.f(1, 2) == 9 + 5
        assert idx.ft("t2", 1, 2) == idx.total - 1

    def test_names_scheme(self):
        idx = VarIndex(2, 2, ["t"])
        assert idx.name(idx.x(1)) == "x_1"
        assert idx.name(idx.xhat(0)) == "xh_0"
        assert idx.name(idx.fhat("t", 1)) == "fh_t_1"
        assert idx.name(idx.f(1, 0)) == "f_1_0"
        assert idx.name(idx.ft("t", 0, 1)) == "ft_t_0_1"


class TestBuildLp:
    def test_variable_count_formula(self, parallel_pair):
        tree = build_shallow_tree(parallel_pair, ShallowTreeConfig(depth=1))
        model = build_lp(parallel_pair, tree, beta=congestion_parameter(1, 1))
        assert model.num_vars == 14

    def test_one_lower_bound_row_per_terminal(self, diamond):
        tree = build_shallow_tree(diamond, ShallowTreeConfig(depth=2))
        model = build_lp(diamond, tree, beta=4)
        ge_rows = [r for r in model.family_rows("gst") if r.sense == GE]
        assert len(ge_rows) == diamond.num_terminals
        assert all(r.rhs == 2.0 for r in ge_rows)

    def test_families_are_tagged(self, diamond):
        tree = build_shallow_tree(diamond, ShallowTreeConfig(depth=2))
        model = build_lp(diamond, tree, beta=4)
        assert {r.family for r in model.rows} == {"gst", "cong", "div"}

    def test_projection_matches_built_size(self, diamond):
        tree = build_shallow_tree(diamond, ShallowTreeConfig(depth=2))
        model = build_lp(diamond, tree, beta=4)
        assert model.nonzeros() == projected_nonzeros(diamond, tree)

    def test_objective_is_edge_costs(self, diamond):
        tree = build_shallow_tree(diamond, ShallowTreeConfig(depth=2))
        model = build_lp(diamond, tree, beta=4)
        assert list(model.objective[:4]) == [1.0, 1.0, 1.0, 1.0]
        assert not model.objective[4:].any()

    def test_size_cap(self, diamond):
        tree = build_shallow_tree(diamond, ShallowTreeConfig(depth=2))
        with pytest.raises(SizeLimitError) as err:
            build_lp(diamond, tree, beta=4, max_nonzeros=100)
        assert err.value.projected > 100

    def test_integral_embedding_is_feasible(self, diamond_embedding):
        _, _, model, values = diamond_embedding
        assert replay_constraints(model, values) <= 1e-9

    def test_replay_rejects_wrong_length(self, diamond_embedding):
        _, _, model, _ = diamond_embedding
        with pytest.raises(ValueError):
            replay_constraints(model, np.zeros(3))

    def test_zero_point_violates_group_rows(self, diamond_embedding):
        _, _, model, _ = diamond_embedding
        assert replay_constraints(model, np.zeros(model.num_vars)) == pytest.approx(2.0)

    def test_diamond_lp_bracketed_by_opt(self, diamond_embedding):
        _, _, model, _ = diamond_embedding
        sol = solve(model)
        assert sol.status == "optimal"
        assert sol.objective <= 4.0 + 1e-6
        assert sol.objective >= 2.0 - 1e-6

    def test_dropping_divergence_family_relaxes(self, diamond_embedding):
        _, _, model, _ = diamond_embedding
        full = solve(model)
        relaxed = solve(drop_family(model, "div"))
        assert relaxed.objective <= full.objective + 1e-9


class TestExport:
    @pytest.fixture
    def model(self, parallel_pair):
        tree = build_shallow_tree(parallel_pair, ShallowTreeConfig(depth=1))
        return build_lp(parallel_pair, tree, beta=2)

    def test_byte_identical(self, model):
        assert export_lp(model) == export_lp(model)

    def test_header_counts(self, model):
        lines = export_lp(model).splitlines()
        assert lines[0] == f"\\ variables: {model.num_vars}"
        assert lines[1] == f"\\ rows: {len(model.rows)}" == f"\\ rows: {model.num_rows}"

    def test_round_trip_objective(self, model):
        reimported = parse_lp(export_lp(model))
        assert reimported.num_vars == model.num_vars
        assert len(reimported.rows) == len(model.rows)
        original = solve(model)
        again = solve(reimported)
        assert again.objective == pytest.approx(original.objective, abs=1e-7)

    def test_round_trip_preserves_families(self, model):
        reimported = parse_lp(export_lp(model))
        assert {r.family for r in reimported.rows} == {r.family for r in model.rows}

    def test_parse_keeps_many_row_families(self):
        rows = "\n".join(f" row{i}: 1.0 x_0 <= 1.0" for i in range(300))
        text = f"Minimize\n obj: 1.0 x_0\nSubject To\n{rows}\nBounds\n 0 <= x_0 <= 1\nEnd\n"
        model = parse_lp(text)
        assert [r.family for r in model.rows] == [f"row{i}" for i in range(300)]

    @pytest.mark.parametrize(
        "fixture, depth, beta, golden",
        [("parallel_pair", 1, 2, "parallel_pair_d1_beta2.lp"), ("diamond", 2, 4, "diamond_d2_beta4.lp")],
    )
    def test_matches_golden_text(self, request, fixture, depth, beta, golden):
        inst = request.getfixturevalue(fixture)
        tree = build_shallow_tree(inst, ShallowTreeConfig(depth=depth))
        text = export_lp(build_lp(inst, tree, beta=beta))
        assert text == (DATA / golden).read_text()

    def test_bounds_cover_all_variables(self, model):
        text = export_lp(model)
        bounds = [l for l in text.splitlines() if l.startswith(" 0 <= ")]
        assert len(bounds) == model.num_vars


class TestSolutionDump:
    def test_round_trip(self, diamond_embedding):
        _, _, model, _ = diamond_embedding
        sol = solve(model)
        dumped = solution_to_json(sol)
        values = solution_values_from_json(model, dumped)
        assert np.array_equal(values, sol.values)

    def test_missing_variable_rejected(self, diamond_embedding):
        _, _, model, _ = diamond_embedding
        with pytest.raises(ValueError, match="lacks"):
            solution_values_from_json(model, '{"values": {"x_0": 1.0}}')

    def test_unknown_variable_rejected(self, diamond_embedding):
        _, _, model, _ = diamond_embedding
        sol = solve(model)
        import json

        doc = json.loads(solution_to_json(sol))
        doc["values"]["bogus_var"] = 1.0
        with pytest.raises(ValueError, match="unknown"):
            solution_values_from_json(model, json.dumps(doc))


def _reference_blocks(rows, num_vars):
    """Inequality and equality blocks from a row walk (GE rows negated)."""
    blocks = {}
    for eq in (False, True):
        picked = [r for r in rows if (r.sense == EQ) == eq]
        sign = [1.0 if eq or r.sense == LE else -1.0 for r in picked]
        data = [s * c for r, s in zip(picked, sign) for c in r.coefs]
        rws = [k for k, r in enumerate(picked) for _ in r.cols]
        cols = [j for r in picked for j in r.cols]
        a = csr_matrix((data, (rws, cols)), shape=(len(picked), num_vars))
        blocks[eq] = (a, np.array([s * r.rhs for r, s in zip(picked, sign)]))
    return blocks


def _replay_by_rows(rows, values):
    worst = max(float(np.max(-values, initial=0.0)), float(np.max(values - 1.0, initial=0.0)))
    for r in rows:
        lhs = float(sum(c * values[j] for j, c in zip(r.cols, r.coefs)))
        v = lhs - r.rhs if r.sense == LE else r.rhs - lhs if r.sense == GE else abs(lhs - r.rhs)
        worst = max(worst, v)
    return worst


def _check_against_reference(inst, depth, beta, seed):
    tree = build_shallow_tree(inst, ShallowTreeConfig(depth=depth))
    model = build_lp(inst, tree, beta)
    ref = reference_rows(inst, tree, beta)

    def canonical(row):
        pairs = sorted(zip(row.cols, row.coefs))
        return [j for j, _ in pairs], [c for _, c in pairs], row.sense, row.rhs, row.family

    assert [canonical(r) for r in model.rows] == [canonical(r) for r in ref]
    for r in model.rows:
        assert all(type(j) is int for j in r.cols) and all(type(c) is float for c in r.coefs)
        assert type(r.rhs) is float

    a_ub, b_ub, a_eq, b_eq = _split_rows(model)
    blocks = _reference_blocks(ref, model.num_vars)
    for got, b_got, (want, b_want) in ((a_ub, b_ub, blocks[False]), (a_eq, b_eq, blocks[True])):
        got, want = got.tocsc(), want.tocsc()
        assert got.shape == want.shape
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr))
        assert np.array_equal(b_got, b_want)

    rng = np.random.default_rng(seed)
    for _ in range(3):
        point = rng.random(model.num_vars)
        assert replay_constraints(model, point) == pytest.approx(
            _replay_by_rows(ref, point), abs=1e-12
        )


class TestAgainstReferenceBuilder:
    @pytest.mark.parametrize("fixture, depth, beta", [("parallel_pair", 1, 2), ("diamond", 2, 4)])
    def test_fixtures(self, request, fixture, depth, beta):
        _check_against_reference(request.getfixturevalue(fixture), depth, beta, seed=0)

    @settings(max_examples=25)
    @given(
        n=st.integers(min_value=3, max_value=6),
        extra=st.integers(min_value=0, max_value=6),
        h=st.integers(min_value=1, max_value=2),
        depth=st.integers(min_value=1, max_value=2),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_random_instances(self, n, extra, h, depth, seed):
        inst = random_instance(n, 2 * h + extra, h, seed=seed)
        beta = congestion_parameter(depth, h)
        _check_against_reference(inst, depth, beta, seed)
