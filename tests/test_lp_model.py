import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    box_implied,
    drop_family,
    every_column,
    full_index,
    live_lp_text,
    reference_live,
    reference_live_rows,
    reference_model,
    reference_rows,
)
from twodst import lp_model
from twodst.errors import ModelInconsistencyError, SizeLimitError
from twodst.exact import random_instance
from twodst.graph import DirectedMultigraph, DstInstance
from twodst.lp_model import (
    GE,
    LE,
    build_lp,
    congestion_parameter,
    export_lp,
    live_columns,
    replay_constraints,
)
from twodst.lp_solver import _split_rows, solve
from twodst.shallow_tree import build_shallow_tree

DATA = Path(__file__).parent / "data"


def _out_tree(levels, leaves):
    """The binary out-tree on 2^levels - 1 vertices, rooted at v1 (v_i's
    children are v_2i and v_2i+1), with its first `leaves` leaves as
    terminals."""
    n = 2 ** levels - 1
    names = [f"v{i}" for i in range(1, n + 1)]
    graph = DirectedMultigraph(names, [(f"v{i // 2}", f"v{i}", 1.0) for i in range(2, n + 1)])
    first = 2 ** (levels - 1)
    return DstInstance(graph, "v1", frozenset(f"v{i}" for i in range(first, first + leaves)))


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

    def test_tiny_multiplier_floors_at_one(self):
        # ceil(1e-12 * 8 - 1e-9) is 0, and doubling 0 never makes a feasible LP
        assert congestion_parameter(2, 4, 1e-12) == 1

    @pytest.mark.parametrize(
        "args",
        [(0, 1, 1.0), (1, 0, 1.0), (1, 1, 0.0), (1, 1, -2.0), (1, 1, math.inf), (1, 1, math.nan)],
    )
    def test_bad_arguments(self, args):
        with pytest.raises(ValueError):
            congestion_parameter(*args)


class TestVarIndex:
    def test_counts_for_parallel_pair(self, parallel_pair):
        tree = build_shallow_tree(parallel_pair, 1)
        idx = full_index(parallel_pair, tree)
        # m + |tree edges| + h*|tree| + |tree|*m + h*|tree|*m
        assert len(idx.columns) == 2 + 2 + 2 + 4 + 4 == 14

    def test_bijection(self, parallel_pair):
        tree = build_shallow_tree(parallel_pair, 1)
        idx = full_index(parallel_pair, tree)
        names = [idx.name(j) for j in idx.columns.tolist()]
        assert len(names) == len(set(names)) == 14

    def test_block_layout(self):
        idx = every_column(3, 2, ["t1", "t2"])
        assert idx.x(2) == 2
        assert idx.xhat(0) == 3
        assert idx.fhat("t1", 0) == 5
        assert idx.fhat("t2", 1) == 8
        assert idx.f(1, 2) == 9 + 5
        assert idx.ft("t2", 1, 2) == len(idx.columns) - 1

    def test_live_columns_ascend_block_by_block(self, diamond):
        tree = build_shallow_tree(diamond, 2)
        idx = build_lp(diamond, tree, beta=4).var_index
        assert np.array_equal(idx.columns, np.flatnonzero(reference_live(diamond, tree)))
        assert idx.positions(idx.columns).tolist() == list(range(len(idx.columns)))
        dead = np.setdiff1d(np.arange(idx.columns[-1] + 2), idx.columns)
        assert len(dead) and (idx.positions(dead) == -1).all()

    def test_names_scheme(self):
        idx = every_column(2, 2, ["t"])
        assert idx.name(idx.x(1)) == "x_1"
        assert idx.name(idx.xhat(0)) == "xh_0"
        assert idx.name(idx.fhat("t", 1)) == "fh_t_1"
        assert idx.name(idx.f(1, 0)) == "f_1_0"
        assert idx.name(idx.ft("t", 0, 1)) == "ft_t_0_1"


class TestBuildLp:
    def test_variable_count_formula(self, parallel_pair):
        tree = build_shallow_tree(parallel_pair, 1)
        model = build_lp(parallel_pair, tree, beta=congestion_parameter(1, 1))
        assert model.num_vars == 14

    def test_one_lower_bound_row_per_terminal(self, diamond):
        tree = build_shallow_tree(diamond, 2)
        model = build_lp(diamond, tree, beta=4)
        ge_rows = [r for r in model.rows if r.family == "gst" and r.sense == GE]
        assert len(ge_rows) == diamond.num_terminals
        assert all(r.rhs == 2.0 for r in ge_rows)

    def test_families_are_tagged(self, diamond):
        tree = build_shallow_tree(diamond, 2)
        model = build_lp(diamond, tree, beta=4)
        assert {r.family for r in model.rows} == {"gst", "cong", "div"}

    def test_built_size_between_flow_pairs_and_full_model(self, parallel_pair, diamond,
                                                          multicover):
        for inst, depth in ((parallel_pair, 1), (diamond, 2), (multicover, 2)):
            tree = build_shallow_tree(inst, depth)
            model = build_lp(inst, tree, beta=4)
            live_fh, pairs = live_columns(tree, lp_model._ends(inst, tree), math.inf)
            full = reference_model(inst, tree, 4)
            # each live fh, f and ft column sits in its own two-term pair row,
            # so `live_columns`' count never refuses a model that fits
            ft = np.count_nonzero(live_fh[:, pairs // inst.graph.num_edges])
            columns = np.count_nonzero(live_fh) + len(pairs) + ft
            assert 2 * columns <= model.nonzeros() <= full.nonzeros()

    def test_row_that_zero_breaks_keeps_a_live_column(self, diamond, monkeypatch):
        tree = build_shallow_tree(diamond, 2)
        real = lp_model.live_columns

        def no_fhat(*args):
            live_fh, pairs = real(*args)
            return np.zeros_like(live_fh), pairs

        # the >= 2 group row is emitted over the group's in-edges, whose fh
        # this rule calls dead
        monkeypatch.setattr(lp_model, "live_columns", no_fhat)
        dead = r"emitted [1-9]\d* term\(s\) on dead columns"
        with pytest.raises(ModelInconsistencyError, match=dead):
            build_lp(diamond, tree, beta=4)

    def test_objective_is_edge_costs(self, diamond):
        tree = build_shallow_tree(diamond, 2)
        model = build_lp(diamond, tree, beta=4)
        assert list(model.objective[:4]) == [1.0, 1.0, 1.0, 1.0]
        assert not model.objective[4:].any()

    def test_size_cap(self, diamond):
        tree = build_shallow_tree(diamond, 2)
        live = build_lp(diamond, tree, beta=4).nonzeros()
        assert 100 < live
        with pytest.raises(SizeLimitError) as err:
            build_lp(diamond, tree, beta=4, max_nonzeros=100)
        assert 100 < err.value.projected <= live

    @pytest.mark.parametrize("fixture, depth",
                             [("parallel_pair", 1), ("diamond", 2), ("chain", 2), ("multicover", 1)])
    def test_cap_at_the_size_builds_the_same_model(self, request, fixture, depth):
        inst = request.getfixturevalue(fixture)
        tree = build_shallow_tree(inst, depth)
        model = build_lp(inst, tree, beta=4)
        nnz = model.nonzeros()
        same = build_lp(inst, tree, beta=4, max_nonzeros=nnz)
        for name in ("indptr", "indices", "data", "row_lower", "row_upper", "family",
                     "objective"):
            assert np.array_equal(getattr(same, name), getattr(model, name)), name
        with pytest.raises(SizeLimitError) as err:
            build_lp(inst, tree, beta=4, max_nonzeros=nnz - 1)
        assert err.value.projected == nnz  # the last block passes the cap

    def test_cap_trips_while_the_rows_are_emitted(self, monkeypatch):
        inst = random_instance(8, 24, 3, seed=3)
        tree = build_shallow_tree(inst, 2)
        nnz = build_lp(inst, tree, beta=4).nonzeros()

        def fail(self):
            raise AssertionError("the rows were assembled before the cap tripped")

        monkeypatch.setattr(lp_model._RowBlocks, "arrays", fail)
        with pytest.raises(SizeLimitError) as err:
            build_lp(inst, tree, beta=4, max_nonzeros=nnz - 1)
        assert err.value.projected == nnz
        # a cap of 5,000 of 9,958, over the live columns' 4,196 pair-row
        # terms, stops at an early block
        cap = 5_000
        with pytest.raises(SizeLimitError) as err:
            build_lp(inst, tree, beta=4, max_nonzeros=cap)
        assert cap < err.value.projected < nnz

    def test_live_column_count_trips_before_the_lists_are_repeated(self, monkeypatch):
        # the complete digraph K16 at depth 3: 1,178 tree edges over 225
        # label pairs and 240 graph edges; counting the live columns per
        # label pair refuses the model before any pair's list is repeated
        # per tree edge (about 0.1 MB; counting after the lists are repeated
        # peaks at 5.3 MB)
        names = [f"v{i}" for i in range(16)]
        graph = DirectedMultigraph(names, [(a, b, 1.0) for a in names for b in names if a != b])
        inst = DstInstance(graph, names[0], frozenset(names[1:3]))
        tree = build_shallow_tree(inst, 3)

        def fail(*args):
            raise AssertionError("graph-flow rows built before the cap tripped")

        monkeypatch.setattr(lp_model, "_graph_conservation", fail)
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError) as err:
                build_lp(inst, tree, beta=4, max_nonzeros=100_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 100_000 < err.value.projected
        assert peak < 1_000_000

    def test_tree_edges_times_terminals_is_capped_first(self, monkeypatch):
        # the binary out-tree on 4,095 vertices with its 2,048 leaves as
        # terminals, at depth 1: 4,096 tree edges x 2,048 terminals is over
        # the cap, and the build stops before any array exists (a vertex x
        # vertex reach matrix would take 16.8 MB, the fh masks 8.4 MB)
        inst = _out_tree(12, 2_048)
        tree = build_shallow_tree(inst, 1)

        def fail(*args):
            raise AssertionError("graph ends computed before the te * h cap")

        monkeypatch.setattr(lp_model, "_ends", fail)
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError) as err:
                build_lp(inst, tree, beta=4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert err.value.projected == tree.num_edges * 2_048 == 8_388_608
        assert peak < 100_000

    def test_a_large_sparse_graph_builds_without_vertex_square_arrays(self):
        # the binary out-tree on 8,191 vertices with two leaves as terminals,
        # at depth 2: rule (c) reads the reachable sets of the usable
        # vertices only (a vertex x vertex reach matrix would take 67 MB)
        inst = _out_tree(13, 2)
        tree = build_shallow_tree(inst, 2)
        tracemalloc.start()
        try:
            model = build_lp(inst, tree, beta=4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (tree.num_edges, model.nonzeros()) == (70, 5_457)
        assert peak < 4_000_000

    @pytest.mark.parametrize("k, depth, nonzeros, lp",
                             [(3, 3, 2_471, 3.5), (4, 2, 10_275, 3.75), (5, 2, 41_819, 3.875),
                              (6, 2, 168_651, 3.9375)])
    def test_multicover_fits_the_default_cap(self, f2_multicover, k, depth, nonzeros, lp):
        # the full relaxations of the first two have 6.66M and 19.3M
        # nonzeros, over the cap; the tree holds no edge that no graph path
        # realizes (F2^5 at depth 2 has 1,116 tree edges, against 3,906 over
        # every label sequence that reaches a terminal), and F2^6 at depth 2
        # is 12x under the cap
        inst = f2_multicover(k)
        tree = build_shallow_tree(inst, depth)
        model = build_lp(inst, tree, beta=congestion_parameter(depth, inst.num_terminals))
        assert model.nonzeros() == nonzeros < lp_model.DEFAULT_MAX_NONZEROS
        sol = solve(model)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(lp, abs=1e-7)

    def test_builder_memory_follows_the_model(self, f2_multicover):
        # at depth 2, F2^5 has 1,116 tree edges x 527 graph edges and F2^6
        # 4,284 x 2,079; the builder's peak must follow the model, so no
        # array may be padded to every tree edge x slot (F2^5: about 70 MB)
        # and no mask may be sized tree edges x graph edges (F2^6: 44 MB)
        for k, nonzeros in ((5, 41_819), (6, 168_651)):
            inst = f2_multicover(k)
            tree = build_shallow_tree(inst, 2)
            beta = congestion_parameter(2, inst.num_terminals)
            tracemalloc.start()
            try:
                model = build_lp(inst, tree, beta)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert model.nonzeros() == nonzeros
            arrays = [getattr(model, name) for name in ("indptr", "indices", "data", "row_lower",
                                                        "row_upper", "family", "objective")]
            assert peak <= 2.5 * sum(a.nbytes for a in [*arrays, model.var_index.columns]), k

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_replay_reads_a_non_finite_coordinate_as_infinite(self, diamond_embedding, bad):
        _, _, model, values = diamond_embedding
        point = values.copy()
        point[-1] = bad
        assert replay_constraints(model, point) == math.inf

    def test_replay_of_a_feasible_point_is_positive_zero(self, diamond_embedding):
        # bounds and rows are measured alike (`row_violations`), which never
        # gives -0.0, even at a point with 0.0 and -0.0 coordinates
        _, _, model, values = diamond_embedding
        point = np.where(values == 0.0, -0.0, values)
        assert math.copysign(1.0, replay_constraints(model, point)) == 1.0
        assert math.copysign(1.0, replay_constraints(model, values)) == 1.0

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
        tree = build_shallow_tree(parallel_pair, 1)
        return build_lp(parallel_pair, tree, beta=2)

    def test_byte_identical(self, model):
        assert export_lp(model) == export_lp(model)

    def test_header_counts(self, model):
        lines = export_lp(model).splitlines()
        assert lines[0] == f"\\ variables: {model.num_vars}"
        assert lines[1] == f"\\ rows: {len(model.rows)}" == f"\\ rows: {model.num_rows}"

    @pytest.mark.parametrize(
        "fixture, depth, beta, golden",
        [("parallel_pair", 1, 2, "parallel_pair_d1_beta2.lp"), ("diamond", 2, 4, "diamond_d2_beta4.lp")],
    )
    def test_matches_golden_text(self, request, fixture, depth, beta, golden):
        # the goldens hold the full model, family by family; the export is
        # its live part, the = rows last
        inst = request.getfixturevalue(fixture)
        tree = build_shallow_tree(inst, depth)
        model = build_lp(inst, tree, beta=beta)
        name = full_index(inst, tree).name
        dead = {name(j) for j in np.flatnonzero(~reference_live(inst, tree))}
        expected = live_lp_text((DATA / golden).read_text(), dead)
        assert export_lp(model) == expected

    def test_parallel_pair_has_no_dead_columns(self, model):
        assert model.num_vars == 14

    def test_live_text_filter(self):
        text = (
            "\\ variables: 3\n\\ rows: 5\nMinimize\n obj: 1.0 a\nSubject To\n"
            " gst_0: 1.0 a - 1.0 b <= 0.0\n gst_1: 1.0 b - 1.0 c = 0.0\n"
            " gst_2: 1.0 b = 0.0\n gst_3: 1.0 c <= 0.0\n cong_0: 1.0 c + 2.0 a >= 2.0\n"
            "Bounds\n 0 <= a <= 1\n 0 <= b <= 1\n 0 <= c <= 1\nEnd\n"
        )
        # the = row moves after the others, and gst's labels follow it
        assert live_lp_text(text, {"b"}) == (
            "\\ variables: 2\n\\ rows: 4\nMinimize\n obj: 1.0 a\nSubject To\n"
            " gst_0: 1.0 a <= 0.0\n gst_1: 1.0 c <= 0.0\n cong_0: 1.0 c + 2.0 a >= 2.0\n"
            " gst_2: - 1.0 c = 0.0\n"
            "Bounds\n 0 <= a <= 1\n 0 <= c <= 1\nEnd\n"
        )

    def test_bounds_cover_all_variables(self, model):
        text = export_lp(model)
        bounds = [l for l in text.splitlines() if l.startswith(" 0 <= ")]
        assert len(bounds) == model.num_vars


def _replay_by_rows(rows, values):
    worst = max(float(np.max(-values, initial=0.0)), float(np.max(values - 1.0, initial=0.0)))
    for r in rows:
        lhs = float(sum(c * values[j] for j, c in zip(r.cols, r.coefs)))
        v = lhs - r.rhs if r.sense == LE else r.rhs - lhs if r.sense == GE else abs(lhs - r.rhs)
        worst = max(worst, v)
    return worst


def _implied_rows(model):
    """Rows of the model that every point of the box 0 <= x <= 1 satisfies."""
    return [r for r in model.rows if box_implied(r.coefs, r.sense, r.rhs)]


def _check_against_reference(inst, depth, beta, seed):
    tree = build_shallow_tree(inst, depth)
    model = build_lp(inst, tree, beta)
    full = reference_rows(inst, tree, beta)
    ref = reference_live_rows(inst, tree, beta)
    assert _implied_rows(model) == []

    # same rows, same order (the = rows last), same terms in the same order
    eq = model.row_lower == model.row_upper
    assert np.array_equal(np.sort(eq), eq)
    assert list(model.rows) == ref
    for r in model.rows:
        assert all(type(j) is int for j in r.cols) and all(type(c) is float for c in r.coefs)
        assert type(r.rhs) is float

    # HiGHS reads the reference rows as they are, each as a range
    start, index, value, lower, upper = _split_rows(model)
    assert start.tolist() == np.cumsum([0] + [len(r.cols) for r in ref]).tolist()
    assert index.tolist() == [j for r in ref for j in r.cols]
    assert value.tolist() == [c for r in ref for c in r.coefs]
    assert lower.tolist() == [-math.inf if r.sense == LE else r.rhs for r in ref]
    assert upper.tolist() == [math.inf if r.sense == GE else r.rhs for r in ref]

    rng = np.random.default_rng(seed)
    for _ in range(3):
        point = rng.random(model.num_vars)
        assert replay_constraints(model, point) == pytest.approx(
            _replay_by_rows(ref, point), abs=1e-12
        )
        # where the dead columns are 0, the live rows replay the full model
        full_point = np.zeros(len(full_index(inst, tree).columns))
        full_point[model.var_index.columns] = point
        assert replay_constraints(model, point) == pytest.approx(
            _replay_by_rows(full, full_point), abs=1e-12
        )


@pytest.mark.parametrize(
    "fixture, depth, beta",
    [("parallel_pair", 1, 2), ("diamond", 2, 4), ("chain", 2, 100), ("multicover", 2, 6)],
)
def test_no_row_is_implied_by_the_box(request, fixture, depth, beta):
    # every row of the full relaxation that some point of the box violates
    # is built, with its live terms; no other row is
    inst = request.getfixturevalue(fixture)
    tree = build_shallow_tree(inst, depth)
    model = build_lp(inst, tree, beta)
    assert _implied_rows(model) == []
    full = reference_model(inst, tree, beta)
    live = reference_live(inst, tree)
    binding = [r for r in full.rows
               if any(live[j] for j in r.cols) and not box_implied(
                   [c for j, c in zip(r.cols, r.coefs) if live[j]], r.sense, r.rhs)]
    assert model.num_rows == len(binding)


def _check_emits_only_kept_terms(inst, depth):
    emitted = np.zeros(len(lp_model.FAMILIES), dtype=np.int64)
    real = lp_model._RowBlocks.add

    def counting(self, lengths, cols, coefs, sense, rhs, family):
        emitted[family] += len(cols)
        real(self, lengths, cols, coefs, sense, rhs, family)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp_model._RowBlocks, "add", counting)
        model = build_lp(inst, build_shallow_tree(inst, depth),
                         congestion_parameter(depth, inst.num_terminals))
    kept = np.bincount(np.repeat(model.family, np.diff(model.indptr)),
                       minlength=len(lp_model.FAMILIES))
    assert emitted.tolist() == kept.tolist()
    assert int(emitted.sum()) == model.nonzeros()


@pytest.mark.parametrize(
    "fixture, depth",
    [("parallel_pair", 1), ("diamond", 2), ("chain", 2), ("multicover", 1), ("multicover", 2)],
)
def test_builder_emits_exactly_the_kept_terms(request, fixture, depth):
    # every family, the gst node rows included, is emitted over live
    # columns only, so nothing is cut after the builder
    _check_emits_only_kept_terms(request.getfixturevalue(fixture), depth)


@settings(max_examples=25)
@given(
    n=st.integers(min_value=3, max_value=6),
    extra=st.integers(min_value=0, max_value=6),
    h=st.integers(min_value=1, max_value=2),
    depth=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_builder_emits_exactly_the_kept_terms_on_random_instances(n, extra, h, depth, seed):
    _check_emits_only_kept_terms(random_instance(n, 2 * h + extra, h, seed=seed), depth)


class TestAgainstReferenceBuilder:
    @pytest.mark.parametrize("fixture, depth, beta", [("parallel_pair", 1, 2), ("diamond", 2, 4)])
    def test_fixtures(self, request, fixture, depth, beta):
        _check_against_reference(request.getfixturevalue(fixture), depth, beta, seed=0)

    @pytest.mark.parametrize("depth", [1, 2])
    def test_interleaved_in_and_out_edges_with_parallel_copies(self, depth):
        # at a and b the in-edges and out-edges alternate by id, and each
        # comes with a parallel copy, so a row's terms are in(w) then out(w)
        # in edge-list order only if the builder does not sort by edge id
        edges = [("r", "a", 1.0), ("a", "b", 2.0), ("r", "a", 3.0), ("a", "t", 1.0),
                 ("b", "a", 1.0), ("a", "b", 2.0), ("r", "b", 1.0), ("a", "t", 4.0),
                 ("b", "t", 1.0), ("r", "b", 2.0), ("b", "t", 3.0), ("t", "a", 1.0)]
        inst = DstInstance(DirectedMultigraph(["r", "a", "b", "t"], edges), "r",
                           frozenset(["t", "b"]))
        _check_against_reference(inst, depth, congestion_parameter(depth, 2), seed=depth)

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
