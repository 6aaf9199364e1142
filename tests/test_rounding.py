"""Marking statistics, flow decomposition, and the full rounding loop."""

import logging
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
import oracles
from oracles import (
    ReferenceSampler,
    reference_clamp,
    reference_gkr_round,
    reference_round,
    reference_sample_path,
)

import twodst.rounding as rounding
from twodst.errors import ModelInconsistencyError
from twodst.exact import random_instance
from twodst.graph import DirectedMultigraph, DstInstance, EdgePath, max_flow_unit
from twodst.lp_model import OPTIMAL, LpSolution, build_lp, congestion_parameter
from twodst.lp_solver import solve
from twodst.pipeline import PipelineConfig, run_pipeline
from twodst.rounding import (
    IterationSampler,
    PathDistribution,
    _marking_thresholds,
    decompose_flow,
    default_iterations,
    default_samples,
    gkr_round,
    monotone_clamp,
    round_solution,
    sample_path,
)
from twodst.shallow_tree import build_shallow_tree
from twodst.verify import reverse_delete

DATA = Path(__file__).parent / "data"


def _instance(vertices, edges, root, terminals):
    return DstInstance(DirectedMultigraph(vertices, edges), root, frozenset(terminals))


@pytest.fixture(scope="module")
def pair_tree():
    """Depth-1 tree over two parallel r -> t edges: two root tree edges."""
    inst = _instance(["r", "t"], [("r", "t", 1.0), ("r", "t", 1.0)], "r", ["t"])
    return build_shallow_tree(inst, 1)


@pytest.fixture(scope="module")
def chain_tree():
    """Depth-2 tree over r -> a -> t: 8 tree edges, edge 4 hangs off edge 0."""
    inst = _instance(
        ["r", "a", "t"], [("r", "a", 1.0), ("a", "t", 1.0)], "r", ["t"]
    )
    tree = build_shallow_tree(inst, 2)
    assert tree.parent_edge(4) == 0
    return tree


@pytest.fixture(scope="module")
def solved_diamond():
    inst = _instance(
        ["r", "a", "b", "t"],
        [("r", "a", 1.0), ("a", "t", 1.0), ("r", "b", 1.0), ("b", "t", 1.0)],
        "r",
        ["t"],
    )
    tree = build_shallow_tree(inst, 2)
    model = build_lp(inst, tree, congestion_parameter(2, 1))
    lp = solve(model)
    assert lp.status == "optimal"
    return inst, tree, lp


# ---------------------------------------------------------------- marking

def test_root_edges_marked_independently(pair_tree):
    xhat = np.array([0.5, 0.5])
    rng = np.random.default_rng(7)
    trials = 100_000
    hits = np.zeros(2)
    joint = 0
    for _ in range(trials):
        marked = gkr_round(pair_tree, xhat, rng)
        for e in marked:
            hits[e] += 1
        if len(marked) == 2:
            joint += 1
    assert abs(hits[0] / trials - 0.5) < 0.01
    assert abs(hits[1] / trials - 0.5) < 0.01
    assert abs(joint / trials - 0.25) < 0.01


def test_child_marking_rate_is_product(chain_tree):
    xhat = np.zeros(chain_tree.num_edges)
    xhat[0] = 1.0
    xhat[4] = 0.3
    rng = np.random.default_rng(11)
    trials = 50_000
    hits = sum(1 for _ in range(trials) if 4 in gkr_round(chain_tree, xhat, rng))
    assert abs(hits / trials - 0.3) < 0.01


def test_all_ones_marks_everything(chain_tree):
    xhat = np.ones(chain_tree.num_edges)
    rng = np.random.default_rng(3)
    for _ in range(10):
        assert gkr_round(chain_tree, xhat, rng) == frozenset(range(chain_tree.num_edges))


def test_zero_parent_blocks_child(chain_tree):
    xhat = np.zeros(chain_tree.num_edges)
    xhat[4] = 0.5
    rng = np.random.default_rng(5)
    for _ in range(1000):
        assert 4 not in gkr_round(chain_tree, xhat, rng)


def test_ratio_above_one_saturates(chain_tree):
    # unclamped input: child value exceeds the parent's, conditional
    # probability caps at 1, so the child is marked exactly when the
    # parent is
    xhat = np.zeros(chain_tree.num_edges)
    xhat[0] = 0.5
    xhat[4] = 0.9
    rng = np.random.default_rng(13)
    for _ in range(500):
        marked = gkr_round(chain_tree, xhat, rng)
        assert (4 in marked) == (0 in marked)


# ---------------------------------------------------------------- clamping

def test_clamp_chain_example(chain_tree):
    xhat = np.zeros(chain_tree.num_edges)
    xhat[0] = 0.5
    xhat[4] = 0.9
    out = monotone_clamp(chain_tree, xhat)
    assert out[4] == 0.5
    assert out[0] == 0.5


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=8, max_size=8))
def test_clamp_properties(chain_tree, values):
    out = monotone_clamp(chain_tree, np.array(values))
    for ehat in range(chain_tree.num_edges):
        parent = chain_tree.parent_edge(ehat)
        assert out[ehat] <= values[ehat]
        if parent is not None:
            assert out[ehat] <= out[parent]
    again = monotone_clamp(chain_tree, out)
    assert np.array_equal(again, out)


def test_clamp_keeps_group_flow_bound(solved_diamond):
    # the clamp must not cut below any single terminal's flow on an edge
    _, tree, lp = solved_diamond
    raw = np.array([lp.xhat(eh) for eh in range(tree.num_edges)])
    clamped = monotone_clamp(tree, raw)
    for t in tree.groups:
        for ehat in range(tree.num_edges):
            assert clamped[ehat] >= lp.fhat(t, ehat) - 1e-7


# ------------------------------------------------------------ decomposition

def test_decompose_parallel_split(pair_tree):
    g = DirectedMultigraph(["r", "t"], [("r", "t", 1.0), ("r", "t", 1.0)])
    dist = decompose_flow(g, pair_tree, 0, [0.3, 0.7], 1.0)
    assert [p.edges for p in dist.paths] == [(0,), (1,)]
    assert dist.weights == pytest.approx((0.3, 0.7))
    assert dist.is_cycle_free
    assert dist.edge_marginal(0) == pytest.approx(0.3)
    assert dist.edge_marginal(1) == pytest.approx(0.7)


def test_decompose_discards_disjoint_cycle():
    g = DirectedMultigraph(
        ["r", "t", "a", "b"],
        [("r", "t", 1.0), ("a", "b", 1.0), ("b", "a", 1.0)],
    )
    inst = DstInstance(g, "r", frozenset(["t"]))
    tree = build_shallow_tree(inst, 1)
    dist = decompose_flow(g, tree, 0, {0: 0.5, 1: 0.2, 2: 0.2}, 0.5)
    assert [p.edges for p in dist.paths] == [(0,)]
    assert dist.weights == (1.0,)
    assert dist.discarded == pytest.approx(0.4)
    assert not dist.is_cycle_free
    assert dist.edge_marginal(1) == 0.0


def test_decompose_flow_stuck_raises(solved_diamond):
    inst, tree, _ = solved_diamond
    flow = [0.5, 0.0, 0.0, 0.0]  # leaves r but never reaches t
    with pytest.raises(ModelInconsistencyError):
        decompose_flow(inst.graph, tree, 2, flow, 0.5)


def test_decompose_total_mismatch_raises(pair_tree):
    g = DirectedMultigraph(["r", "t"], [("r", "t", 1.0), ("r", "t", 1.0)])
    with pytest.raises(ModelInconsistencyError):
        decompose_flow(g, pair_tree, 0, [0.3, 0.0], 0.5)


def test_decompose_negative_flow_rejected(pair_tree):
    g = DirectedMultigraph(["r", "t"], [("r", "t", 1.0), ("r", "t", 1.0)])
    with pytest.raises(ValueError):
        decompose_flow(g, pair_tree, 0, [-0.2, 0.2], 0.0)


def test_decompose_solved_lp_matches_values(solved_diamond):
    inst, tree, lp = solved_diamond
    for ehat in range(tree.num_edges):
        value = lp.xhat(ehat)
        if value <= 1e-9:
            continue
        flow = [lp.f(ehat, e) for e in range(inst.graph.num_edges)]
        dist = decompose_flow(inst.graph, tree, ehat, flow, value)
        src, dst = tree.edge_endpoints_labels(ehat)
        assert dist.paths[0].source == src
        assert dist.paths[0].target == dst
        assert sum(dist.weights) == pytest.approx(1.0)
        for e in range(inst.graph.num_edges):
            # marginals never exceed the flow share of the edge
            assert dist.edge_marginal(e) <= flow[e] / value + 1e-6


def test_distribution_validation(pair_tree):
    g = DirectedMultigraph(["r", "t"], [("r", "t", 1.0), ("r", "t", 1.0)])
    p0 = EdgePath(g, (0,))
    p1 = EdgePath(g, (1,))
    with pytest.raises(ValueError):
        PathDistribution(0, (), (), 0.0)
    with pytest.raises(ValueError):
        PathDistribution(0, (p0, p1), (0.5, -0.5), 0.0)
    with pytest.raises(ValueError):
        PathDistribution(0, (p0, p1), (0.6, 0.6), 0.0)
    g2 = DirectedMultigraph(["r", "t", "u"], [("r", "t", 1.0), ("r", "u", 1.0)])
    with pytest.raises(ValueError):
        PathDistribution(
            0, (EdgePath(g2, (0,)), EdgePath(g2, (1,))), (0.5, 0.5), 0.0
        )


def test_sample_path_frequencies(pair_tree):
    g = DirectedMultigraph(["r", "t"], [("r", "t", 1.0), ("r", "t", 1.0)])
    dist = decompose_flow(g, pair_tree, 0, [0.3, 0.7], 1.0)
    rng = np.random.default_rng(3)
    trials = 20_000
    first = sum(1 for _ in range(trials) if sample_path(dist, rng).edges == (0,))
    assert abs(first / trials - 0.3) < 0.02


# ------------------------------------------------------------ loop counts

def test_default_iterations_examples():
    assert default_iterations(2, 10) == 93
    assert default_iterations(1, 3) == 22
    assert default_iterations(2, 10, 2.0) == 185
    assert default_iterations(1, 1) == 1  # ln 1 = 0 floors at one pass


def test_default_samples_examples():
    assert default_samples(8, 2) == 24
    assert default_samples(4, 2) == 13
    assert default_samples(12, 3) == math.ceil(50 * math.log(3))
    assert default_samples(100, 1) == 1


# --------------------------------------------------------------- sampler

def test_sampler_edges_within_flow_support(solved_diamond):
    inst, tree, lp = solved_diamond
    sampler = IterationSampler(inst, tree, lp)
    support = {
        e
        for e in range(inst.graph.num_edges)
        if any(lp.f(eh, e) > 1e-12 for eh in range(tree.num_edges))
    }
    for j in range(1, 6):
        edges = sampler.sample_edges(np.random.default_rng((2, j)))
        assert edges <= support


def test_sampler_is_deterministic(solved_diamond):
    inst, tree, lp = solved_diamond
    sampler = IterationSampler(inst, tree, lp)
    a = sampler.sample_edges(np.random.default_rng((9, 1)))
    b = sampler.sample_edges(np.random.default_rng((9, 1)))
    assert a == b


def test_sampler_draw_shape(solved_diamond):
    inst, tree, lp = solved_diamond
    sampler = IterationSampler(inst, tree, lp, samples=3)
    draws = sampler.sample_draws(np.random.default_rng((4, 1)))
    marked = sorted({ehat for ehat, _, _ in draws})
    for ehat in marked:
        ells = [ell for eh, ell, _ in draws if eh == ehat]
        assert ells == [1, 2, 3]
    for ehat, _, path in draws:
        src, dst = tree.edge_endpoints_labels(ehat)
        assert path.source == src and path.target == dst


# ----------------------------------------------------------- full rounding

def test_round_requires_optimal(solved_diamond):
    _, tree, lp = solved_diamond
    inst = solved_diamond[0]
    stuck = LpSolution(lp.model, np.zeros(lp.model.num_vars), float("nan"), "limit")
    with pytest.raises(ValueError):
        round_solution(inst, tree, stuck, 1, 1)


def test_round_diamond(solved_diamond):
    inst, tree, lp = solved_diamond
    sol = round_solution(inst, tree, lp, 11, default_iterations(2, 4))
    assert sol.meta["feasible"] is True
    assert sol.cost == pytest.approx(4.0)
    assert set(sol.provenance) == set(sol.edges)
    assert sol.meta["iterations"] == default_iterations(2, 4)
    assert sol.meta["samples"] == default_samples(4, 2)
    assert sol.meta["beta"] == 4
    for j, ehat, ell in sol.provenance.values():
        assert j >= 1
        assert 0 <= ehat < tree.num_edges
        assert 1 <= ell <= sol.meta["samples"]


def test_round_is_deterministic(solved_diamond):
    inst, tree, lp = solved_diamond
    a = round_solution(inst, tree, lp, 21, default_iterations(2, 4))
    b = round_solution(inst, tree, lp, 21, default_iterations(2, 4))
    assert a.edges == b.edges
    assert a.provenance == b.provenance
    assert a.meta == b.meta


def test_round_iteration_override(solved_diamond):
    inst, tree, lp = solved_diamond
    sol = round_solution(inst, tree, lp, 5, 3, samples=2)
    assert sol.meta["iterations"] == 3
    assert sol.meta["samples"] == 2
    assert max(j for j, _, _ in sol.provenance.values()) <= 3


def test_round_with_pruning(solved_diamond):
    inst, tree, lp = solved_diamond
    plain = round_solution(inst, tree, lp, 11, default_iterations(2, 4))
    pruned = round_solution(inst, tree, lp, 11, default_iterations(2, 4), prune=True)
    assert pruned.meta["pruned"] is True
    assert pruned.meta["feasible"] is True
    assert pruned.cost <= plain.cost
    assert pruned.edges <= plain.edges


def test_reverse_delete_drops_redundant_edge():
    inst = _instance(
        ["r", "a", "b", "t"],
        [
            ("r", "a", 1.0),
            ("a", "t", 1.0),
            ("r", "b", 1.0),
            ("b", "t", 1.0),
            ("r", "t", 5.0),
        ],
        "r",
        ["t"],
    )
    kept = reverse_delete(inst, {0, 1, 2, 3, 4})
    assert kept == frozenset({0, 1, 2, 3})
    flow, _ = max_flow_unit(inst.graph, "r", "t", restrict_to=kept)
    assert flow >= 2


# ------------------------------------------- batched draws vs the reference

def _solved(instance, depth):
    tree = build_shallow_tree(instance, depth)
    lp = solve(build_lp(instance, tree, congestion_parameter(depth, instance.num_terminals)))
    return tree, lp


class FixedDraws:
    """Stands in for a Generator: hands out preset uniform arrays in order."""

    def __init__(self, *batches):
        self.batches = list(batches)

    def random(self, size=None):
        values = self.batches.pop(0)
        return float(values) if size is None else np.full(size, values)


@pytest.fixture(scope="module")
def depth3_tree():
    """Depth-3 tree over r, a, b, t: 30 tree edges on three levels."""
    inst = _instance(
        ["r", "a", "b", "t"],
        [("r", "a", 1.0), ("a", "b", 1.0), ("b", "t", 1.0), ("r", "t", 1.0)],
        "r",
        ["t"],
    )
    return build_shallow_tree(inst, 3)


@pytest.mark.parametrize("name, seed", [("diamond", 11), ("multicover", 1)])
def test_pipeline_matches_golden(request, name, seed):
    # the goldens were written by the one-draw-at-a-time rounding loop
    inst = request.getfixturevalue(name)
    result = run_pipeline(inst, PipelineConfig(depth=2, seed=seed))
    golden = (DATA / f"{name}_seed{seed}.solution.json").read_text()
    assert result.solution.to_json(inst.graph) == golden


@pytest.mark.parametrize(
    "name, depth, config",
    [
        ("diamond", 2, {"seed": 11}),
        ("diamond", 2, {"seed": 3, "iterations": 4, "samples": 2, "prune": True}),
        ("parallel_pair", 1, {"seed": 5}),
        ("multicover", 2, {"seed": 1}),
        ("multicover", 2, {"seed": 8, "iterations": 6, "samples": 3, "prune": True}),
    ],
)
def test_round_matches_reference(request, name, depth, config):
    inst = request.getfixturevalue(name)
    tree, lp = _solved(inst, depth)
    config = {"iterations": default_iterations(depth, inst.graph.num_vertices), **config}
    got = round_solution(inst, tree, lp, **config).to_json(inst.graph)
    assert got == reference_round(inst, tree, lp, **config).to_json(inst.graph)


def _multicover_paths(g, ehat):
    """The four root -> set -> point paths into point p(ehat mod 7)."""
    into = [e for e in range(g.num_edges) if g.heads[e] == f"p{ehat % 7}"]
    return [(next(iter(g.in_edges(g.tails[e]))), e) for e in into]


def _crossing_paths(g, ehat):
    """All four r -> t paths of the crossing fixture; they share edges."""
    return [(0, 1), (2, 3, 1), (2, 4), (5,)]


@pytest.fixture
def crossing():
    g = DirectedMultigraph(
        ["r", "a", "b", "t"],
        [("r", "a", 1.0), ("a", "t", 1.0), ("r", "b", 1.0), ("b", "a", 1.0),
         ("b", "t", 1.0), ("r", "t", 1.0)],
    )
    return DstInstance(g, "r", frozenset(["t"]))


@pytest.mark.parametrize(
    "name, candidates", [("multicover", _multicover_paths), ("crossing", _crossing_paths)]
)
def test_round_matches_reference_on_overlapping_paths(request, monkeypatch, name, candidates):
    # decompositions replaced by 1-4 paths that share edges within and
    # across tree edges: the union's draw order then decides provenance,
    # and on multicover later table rows are narrower than earlier ones
    inst = request.getfixturevalue(name)
    g = inst.graph
    tree, lp = _solved(inst, 2)

    def fake(graph, tree, ehat, flow, value):
        paths = candidates(g, ehat)
        paths = (paths[ehat % 4 :] + paths[: ehat % 4])[: 1 + ehat % 4]
        weights = np.arange(1.0, len(paths) + 1)
        return PathDistribution(
            ehat, tuple(EdgePath(g, p) for p in paths), tuple(weights / weights.sum()), 0.0
        )

    monkeypatch.setattr(rounding, "decompose_flow", fake)
    monkeypatch.setattr(oracles, "decompose_flow", fake)
    for seed, iterations in ((2, 40), (9, 5)):
        got = round_solution(inst, tree, lp, seed, iterations).to_json(g)
        assert got == reference_round(inst, tree, lp, seed, iterations).to_json(g)


@settings(max_examples=30)
@given(
    n=st.integers(min_value=4, max_value=7),
    extra=st.integers(min_value=0, max_value=6),
    h=st.integers(min_value=1, max_value=2),
    depth=st.integers(min_value=1, max_value=2),
    seed=st.integers(min_value=0, max_value=10**6),
    iterations=st.integers(min_value=1, max_value=6),
)
def test_round_matches_reference_on_random_instances(n, extra, h, depth, seed, iterations):
    inst = random_instance(n, 2 * h + extra, h, seed=seed)
    tree, lp = _solved(inst, depth)
    assume(lp.status == OPTIMAL)
    got = round_solution(inst, tree, lp, seed, iterations).to_json(inst.graph)
    assert got == reference_round(inst, tree, lp, seed, iterations).to_json(inst.graph)


@given(
    values=st.lists(
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=2.0)),
        min_size=30,
        max_size=30,
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_gkr_round_matches_reference(depth3_tree, values, seed):
    # unclamped input: zero parents, children above their parents, values > 1
    xhat = np.array(values)
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(5):
        assert gkr_round(depth3_tree, xhat, a) == reference_gkr_round(depth3_tree, xhat, b)
    assert np.array_equal(monotone_clamp(depth3_tree, xhat), reference_clamp(depth3_tree, xhat))


def test_subnormal_parent_caps_the_ratio(depth3_tree):
    # 0.5 over a subnormal parent would overflow the ratio; it is capped at 1
    tiny = np.nextafter(0.0, 1.0)
    roots = depth3_tree.edge_levels[0][1]
    xhat = np.full(depth3_tree.num_edges, 0.5)
    xhat[:roots] = tiny
    xhat[-1] = 0.0
    want = np.ones(depth3_tree.num_edges)
    want[:roots] = tiny
    want[-1] = 0.0
    assert np.array_equal(_marking_thresholds(depth3_tree, xhat), want)


@pytest.mark.parametrize("name, depth", [("diamond", 2), ("multicover", 2)])
def test_sample_draws_match_reference(request, name, depth):
    inst = request.getfixturevalue(name)
    tree, lp = _solved(inst, depth)
    sampler = IterationSampler(inst, tree, lp)
    reference = ReferenceSampler(inst, tree, lp)
    for j in range(1, 9):
        got = sampler.sample_draws(np.random.default_rng((4, j)))
        want = reference.sample_draws(np.random.default_rng((4, j)))
        assert [(e, ell, p.edges) for e, ell, p in got] == [
            (e, ell, p.edges) for e, ell, p in want
        ]


def test_draw_above_short_weight_sum_takes_last_path(parallel_pair, monkeypatch):
    # weights sum to 1 - 5e-10, inside the validation tolerance; a draw
    # above the final cumulative weight falls through to the last path
    g = parallel_pair.graph
    short = PathDistribution(0, (EdgePath(g, (0,)), EdgePath(g, (1,))), (0.5, 0.5 - 5e-10), 0.0)
    high = 1.0 - 1e-10
    assert high > short.cdf[-1]
    assert sample_path(short, FixedDraws(high)).edges == (1,)
    assert reference_sample_path(short, FixedDraws(high)).edges == (1,)

    tree, lp = _solved(parallel_pair, 1)
    monkeypatch.setattr(
        rounding, "decompose_flow", lambda graph, tree, ehat, flow, value: short
    )
    sampler = IterationSampler(parallel_pair, tree, lp, samples=3)
    draws = sampler.sample_draws(FixedDraws(0.0, high))  # mark every edge, then draw high
    assert len(draws) == 3 * tree.num_edges
    assert all(p.edges == (1,) for _, _, p in draws)


def test_decomposition_is_lazy_and_once_per_edge(solved_diamond, monkeypatch):
    inst, tree, lp = solved_diamond
    calls = Counter()
    real = rounding.decompose_flow

    def counting(graph, tree, ehat, flow, value):
        calls[ehat] += 1
        return real(graph, tree, ehat, flow, value)

    monkeypatch.setattr(rounding, "decompose_flow", counting)
    sampler = IterationSampler(inst, tree, lp)
    assert not calls
    marked = set()
    for j in range(1, 21):
        marked |= {ehat for ehat, _, _ in sampler.sample_draws(np.random.default_rng((6, j)))}
    assert marked
    assert calls == Counter({ehat: 1 for ehat in marked})


def test_round_logs_summary(solved_diamond, caplog):
    inst, tree, lp = solved_diamond
    with caplog.at_level(logging.INFO, logger="twodst.rounding"):
        sol = round_solution(inst, tree, lp, 7, 12)
    (record,) = [r for r in caplog.records if r.name == "twodst.rounding"]
    numbers = [int(x) for x in re.findall(r"\d+", record.getMessage())]
    sampler = IterationSampler(inst, tree, lp)
    draws = [sampler.sample_draws(np.random.default_rng((7, j))) for j in range(1, 13)]
    distinct = {(ehat, p.edges) for batch in draws for ehat, _, p in batch}
    last_new = max(j for j, _, _ in sol.provenance.values())
    assert numbers == [12, sum(map(len, draws)), len(distinct), last_new]
