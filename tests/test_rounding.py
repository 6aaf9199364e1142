"""Marking statistics, flow decomposition, and the full rounding loop."""

import logging
import math
import re
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
import oracles
from oracles import (
    ReferenceSampler,
    parent_edge,
    reference_clamp,
    reference_gkr_round,
    reference_round,
    reference_sample_path,
)

import twodst.pipeline as pipeline
import twodst.rounding as rounding
import twodst.verify as verify
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
)
from twodst.shallow_tree import build_shallow_tree
from twodst.solution import SolutionSubgraph
from twodst.verify import feasibility_report, reverse_delete

DATA = Path(__file__).parent / "data"


def _instance(vertices, edges, root, terminals):
    return DstInstance(DirectedMultigraph(vertices, edges), root, frozenset(terminals))


def _edges(draws) -> set:
    """Graph edges on the paths of one iteration's draws."""
    return {e for _, _, path in draws for e in path.edges}


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
    assert tree.edge_parents[4] == 0
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
        parent = parent_edge(chain_tree, ehat)
        assert out[ehat] <= values[ehat]
        if parent is not None:
            assert out[ehat] <= out[parent]
    again = monotone_clamp(chain_tree, out)
    assert np.array_equal(again, out)


def test_clamp_keeps_group_flow_bound(solved_diamond):
    # the clamp must not cut below any single terminal's flow on an edge
    _, tree, lp = solved_diamond
    idx = lp.model.var_index
    clamped = monotone_clamp(tree, lp.at(idx.xhat(np.arange(tree.num_edges))))
    for t in tree.groups:
        for ehat in range(tree.num_edges):
            assert clamped[ehat] >= lp.at(idx.fhat(t, ehat)) - 1e-7


# ------------------------------------------------------------ decomposition

def test_decompose_parallel_split(pair_tree):
    g = DirectedMultigraph(["r", "t"], [("r", "t", 1.0), ("r", "t", 1.0)])
    dist = decompose_flow(g, pair_tree, 0, [0.3, 0.7], 1.0)
    assert [p.edges for p in dist.paths] == [(0,), (1,)]
    assert dist.weights == pytest.approx((0.3, 0.7))
    assert dist.discarded == 0.0


def test_decompose_discards_disjoint_cycle():
    g = DirectedMultigraph(
        ["r", "t", "a", "b"],
        [("r", "t", 1.0), ("a", "b", 1.0), ("b", "a", 1.0)],
    )
    inst = DstInstance(g, "r", frozenset(["t"]))
    tree = build_shallow_tree(inst, 1)
    dist = decompose_flow(g, tree, 0, [0.5, 0.2, 0.2], 0.5)
    assert [p.edges for p in dist.paths] == [(0,)]
    assert dist.weights == (1.0,)
    assert dist.discarded == pytest.approx(0.4)


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
    idx = lp.model.var_index
    for ehat in range(tree.num_edges):
        value = float(lp.at(idx.xhat(ehat)))
        if value <= 1e-9:
            continue
        flow = lp.at(idx.f(ehat, np.arange(inst.graph.num_edges))).tolist()
        dist = decompose_flow(inst.graph, tree, ehat, flow, value)
        src, dst = tree.edge_endpoints_labels(ehat)
        assert dist.paths[0].source == src
        assert dist.paths[0].target == dst
        assert sum(dist.weights) == pytest.approx(1.0)
        for e in range(inst.graph.num_edges):
            # marginals never exceed the flow share of the edge
            assert oracles.edge_marginal(dist, e) <= flow[e] / value + 1e-6


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
    first = sum(1 for _ in range(trials) if reference_sample_path(dist, rng).edges == (0,))
    assert abs(first / trials - 0.3) < 0.02


# ------------------------------------------------------------ loop counts

def test_default_iterations_examples():
    assert default_iterations(2, 10) == 185
    assert default_iterations(1, 3) == 44
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
    idx = lp.model.var_index
    flows = lp.at(idx.f(np.arange(tree.num_edges)[:, None], np.arange(inst.graph.num_edges)))
    support = set(np.flatnonzero((flows > 1e-12).any(axis=0)).tolist())
    for j in range(1, 6):
        edges = _edges(sampler.sample_draws(np.random.default_rng((2, j))))
        assert edges <= support


def test_sampler_is_deterministic(solved_diamond):
    inst, tree, lp = solved_diamond
    sampler = IterationSampler(inst, tree, lp)
    a = _edges(sampler.sample_draws(np.random.default_rng((9, 1))))
    b = _edges(sampler.sample_draws(np.random.default_rng((9, 1))))
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
    # rounding only samples: the verdict and pruning belong to the pipeline
    assert set(sol.meta) == {"seed", "iterations", "samples", "beta", "lp_objective"}
    assert feasibility_report(inst, sol.edges).feasible
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


def _pruned_reference(inst, depth, seed, iterations, samples=None):
    """`reference_round` followed by `reverse_delete`, annotated as the
    pipeline annotates a pruned solution."""
    tree, lp = _solved(inst, depth)
    union = reference_round(inst, tree, lp, seed, iterations, samples)
    kept = reverse_delete(inst, union.edges)
    meta = {**union.meta, "feasible": feasibility_report(inst, kept).feasible, "pruned": True}
    provenance = {e: p for e, p in union.provenance.items() if e in kept}
    return SolutionSubgraph.from_edges(inst.graph, kept, provenance, meta)


def test_round_with_pruning(solved_diamond):
    inst = solved_diamond[0]
    config = PipelineConfig(depth=2, seed=11, iterations=default_iterations(2, 4))
    plain = run_pipeline(inst, config).solution
    pruned = run_pipeline(inst, replace(config, prune=True)).solution
    assert pruned.meta["pruned"] is True
    assert pruned.meta["feasible"] is True
    assert pruned.cost <= plain.cost
    assert pruned.edges <= plain.edges
    want = _pruned_reference(inst, 2, 11, default_iterations(2, 4))
    assert pruned.to_json(inst.graph) == want.to_json(inst.graph)


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
    """Stands in for a Generator: hands out preset uniforms in order, each
    batch broadcast to the requested size, so one row of per-column values
    fills every row of a 2-D block."""

    def __init__(self, *batches):
        self.batches = list(batches)

    def random(self, size=None):
        values = self.batches.pop(0)
        return float(values) if size is None else np.broadcast_to(values, size).copy()


@pytest.fixture(scope="module")
def depth3_tree():
    """Depth-3 tree over r, a, b, t: 18 tree edges on three levels."""
    inst = _instance(
        ["r", "a", "b", "t"],
        [("r", "a", 1.0), ("a", "b", 1.0), ("b", "t", 1.0), ("r", "t", 1.0)],
        "r",
        ["t"],
    )
    return build_shallow_tree(inst, 3)


@pytest.mark.parametrize("name, seed", [("diamond", 11), ("multicover", 1)])
def test_pipeline_matches_golden(request, name, seed):
    # the goldens hold the output of the one-draw-at-a-time reference loop
    # (`oracles.reference_round`); the diamond's LP is integral, so its
    # solution does not depend on the uniforms
    inst = request.getfixturevalue(name)
    result = run_pipeline(inst, PipelineConfig(depth=2, seed=seed))
    golden = (DATA / f"{name}_seed{seed}.solution.json").read_text()
    assert result.solution.to_json(inst.graph) == golden


@pytest.mark.parametrize(
    "name, depth, config",
    [
        ("diamond", 2, {"seed": 11}),
        ("diamond", 2, {"seed": 3, "iterations": 4, "samples": 2}),
        ("parallel_pair", 1, {"seed": 5}),
        ("multicover", 2, {"seed": 1}),
        ("multicover", 2, {"seed": 8, "iterations": 6, "samples": 3}),
        ("multicover", 2, {"seed": 4, "iterations": 1}),
        # at depth 1 each point's flow splits over two sets: two paths per
        # distribution, so the path columns decide the draws
        ("multicover", 1, {"seed": 2, "samples": 3}),
    ],
)
def test_round_matches_reference(request, name, depth, config):
    inst = request.getfixturevalue(name)
    tree, lp = _solved(inst, depth)
    config = {"iterations": default_iterations(depth, inst.graph.num_vertices), **config}
    got = round_solution(inst, tree, lp, **config).to_json(inst.graph)
    assert got == reference_round(inst, tree, lp, **config).to_json(inst.graph)


@pytest.mark.parametrize(
    "name, seed, iterations, samples", [("diamond", 3, 4, 2), ("multicover", 8, 6, 3)]
)
def test_pipeline_prune_matches_reference(request, name, seed, iterations, samples):
    inst = request.getfixturevalue(name)
    config = PipelineConfig(
        depth=2, seed=seed, iterations=iterations, samples=samples, prune=True
    )
    got = run_pipeline(inst, config).solution.to_json(inst.graph)
    want = _pruned_reference(inst, 2, seed, iterations, samples)
    assert got == want.to_json(inst.graph)


def test_pipeline_verifies_once(multicover, monkeypatch):
    calls = []
    real = verify.feasibility_report

    def counting(instance, edge_ids):
        calls.append(frozenset(edge_ids))
        return real(instance, edge_ids)

    monkeypatch.setattr(pipeline, "feasibility_report", counting)
    monkeypatch.setattr(verify, "feasibility_report", counting)
    result = run_pipeline(multicover, PipelineConfig(depth=2, seed=1, prune=True))
    assert calls == [result.solution.edges]


def _multicover_paths(g, ehat):
    """The four root -> set -> point paths into point p(ehat mod 7)."""
    into = [e for e in range(g.num_edges) if g.heads[e] == f"p{ehat % 7}"]
    return [(next(iter(g.in_edges(g.tails[e]))), e) for e in into]


def _crossing_paths(g, ehat):
    """All four r -> t paths of the crossing fixture; they share edges."""
    return [(0, 1), (2, 3, 1), (2, 4), (5,)]


def _rotated_candidates(g, candidates):
    """A stand-in for `decompose_flow`: tree edge ehat gets 1 + ehat % 4 of
    its candidate paths, rotated by ehat % 4, with weights 1, 2, ..."""

    def fake(graph, tree, ehat, flow, value):
        paths = candidates(g, ehat)
        paths = (paths[ehat % 4 :] + paths[: ehat % 4])[: 1 + ehat % 4]
        weights = np.arange(1.0, len(paths) + 1)
        return PathDistribution(
            ehat, tuple(EdgePath(g, p) for p in paths), tuple(weights / weights.sum()), 0.0
        )

    return fake


def _never_drawn_last_path(fake):
    """`fake`, with the last path of each distribution that has two or more
    at weight 1e-12: that path is never drawn, so a run never holds every
    path and draws all J rows."""

    def wrapped(graph, tree, ehat, flow, value):
        dist = fake(graph, tree, ehat, flow, value)
        if len(dist.paths) == 1:
            return dist
        head = np.array(dist.weights[:-1])
        weights = tuple(head / head.sum() * (1.0 - 1e-12)) + (1e-12,)
        return PathDistribution(ehat, dist.paths, weights, 0.0)

    return wrapped


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
    fake = _rotated_candidates(g, candidates)
    monkeypatch.setattr(rounding, "decompose_flow", fake)
    monkeypatch.setattr(oracles, "decompose_flow", fake)
    for seed, iterations in ((2, 40), (9, 5)):
        got = round_solution(inst, tree, lp, seed, iterations).to_json(g)
        assert got == reference_round(inst, tree, lp, seed, iterations).to_json(g)


@pytest.mark.parametrize("block_bytes", [rounding.BLOCK_BYTES, 1])
@pytest.mark.parametrize(
    "name, candidates", [("multicover", _multicover_paths), ("crossing", _crossing_paths)]
)
def test_draw_blocks_paths_are_pick_over_every_pair(request, monkeypatch, name, candidates,
                                                    block_bytes):
    # draw_blocks looks up only the pairs with two or more paths; every pair
    # must still get what _pick over its own uniforms gives
    inst = request.getfixturevalue(name)
    tree, lp = _solved(inst, 2)
    monkeypatch.setattr(rounding, "decompose_flow", _rotated_candidates(inst.graph, candidates))
    monkeypatch.setattr(rounding, "BLOCK_BYTES", block_bytes)
    sampler = IterationSampler(inst, tree, lp)
    counts = sorted({len(d.paths) for d in sampler.distributions.values()})
    assert counts[0] == 1 and counts[-1] > 1
    seed, iterations = 4, 30
    uniforms = np.random.default_rng(seed).random((iterations, sampler.width))
    ells = np.arange(sampler.samples)
    pairs = 0
    for block in sampler.draw_blocks(np.random.default_rng(seed), iterations):
        table = sampler._row[block.ehat]
        draws = uniforms[block.first + block.row[:, None], sampler._col[block.ehat][:, None] + ells]
        picks = rounding._pick(sampler._cdf[table], sampler._counts[table], draws)
        assert np.array_equal(block.paths, sampler._starts[table][:, None] + picks)
        assert np.array_equal(block.multi, sampler._counts[table] > 1)
        pairs += len(block.row)
    assert pairs > 0


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


def _noisy(inst, noise):
    """The instance with each edge cost scaled by 1 + its noise."""
    g = inst.graph
    edges = [(g.tails[e], g.heads[e], g.costs[e] * (1.0 + noise[e])) for e in range(g.num_edges)]
    return DstInstance(DirectedMultigraph(g.vertices, edges), inst.root, inst.terminals)


@settings(max_examples=12)
@given(
    noise=st.lists(st.floats(min_value=0.0, max_value=0.1), min_size=35, max_size=35),
    depth=st.integers(min_value=1, max_value=2),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    iterations=st.integers(min_value=1, max_value=12),
)
def test_round_matches_reference_on_noisy_multicover(multicover, noise, depth, seed, iterations):
    # cost noise on F_2^3 keeps the LP fractional, so marking reads its
    # uniforms; at depth 1 a point's flow splits over sets, so the path
    # columns do too
    inst = _noisy(multicover, noise)
    tree, lp = _solved(inst, depth)
    assume(lp.status == OPTIMAL)
    want = reference_round(inst, tree, lp, seed, iterations, 3).to_json(inst.graph)
    assert round_solution(inst, tree, lp, seed, iterations, 3).to_json(inst.graph) == want
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rounding, "BLOCK_BYTES", 1)
        assert round_solution(inst, tree, lp, seed, iterations, 3).to_json(inst.graph) == want


@pytest.mark.parametrize("name", ["multicover", "crossing"])
def test_one_row_blocks_match_the_default_blocks(request, monkeypatch, name):
    # the run spans several default blocks, then J blocks of one row; the
    # output must not depend on the block size. A path that is never drawn
    # keeps the run from stopping before its last row
    inst = request.getfixturevalue(name)
    tree, lp = _solved(inst, 2)
    candidates = {"multicover": _multicover_paths, "crossing": _crossing_paths}[name]
    fake = _never_drawn_last_path(_rotated_candidates(inst.graph, candidates))
    monkeypatch.setattr(rounding, "decompose_flow", fake)
    monkeypatch.setattr(oracles, "decompose_flow", fake)
    sampler = IterationSampler(inst, tree, lp)
    assert sampler.block_rows() > 1
    iterations = 2 * sampler.block_rows() + 1
    default = round_solution(inst, tree, lp, 5, iterations).to_json(inst.graph)
    monkeypatch.setattr(rounding, "BLOCK_BYTES", 1)
    assert sampler.block_rows() == 1
    assert [b.size for b in sampler.draw_blocks(np.random.default_rng(5), 3)] == [1, 1, 1]
    assert round_solution(inst, tree, lp, 5, iterations).to_json(inst.graph) == default
    assert default == reference_round(inst, tree, lp, 5, iterations).to_json(inst.graph)


def test_block_rows_are_bounded_in_bytes(multicover, monkeypatch):
    # blocks grow 1, 2, 4, ... rows up to the cap in bytes, and the last
    # block holds what is left
    tree, lp = _solved(multicover, 2)
    sampler = IterationSampler(multicover, tree, lp)
    row_bytes = sampler.width * (64 + sampler._cdf.shape[1])
    monkeypatch.setattr(rounding, "BLOCK_BYTES", 5 * row_bytes + 1)
    assert sampler.block_rows() == 5
    blocks = list(sampler.draw_blocks(np.random.default_rng(2), 20))
    assert [(b.first, b.size) for b in blocks] == [(0, 1), (1, 2), (3, 4), (7, 5), (12, 5),
                                                   (17, 3)]
    for b in blocks:
        assert np.all(np.diff(b.row) >= 0) and np.all(b.row < b.size)
        assert b.paths.shape == (len(b.ehat), sampler.samples)


def _count_rows(monkeypatch) -> list:
    """Sizes of the blocks `draw_blocks` yields from now on, as it yields them."""
    sizes = []
    real = IterationSampler.draw_blocks

    def counting(self, rng, iterations):
        for block in real(self, rng, iterations):
            sizes.append(block.size)
            yield block

    monkeypatch.setattr(IterationSampler, "draw_blocks", counting)
    return sizes


def _round_peak(instance, tree, lp, iterations):
    """tracemalloc's peak over one `round_solution` call, in bytes."""
    tracemalloc.start()
    try:
        round_solution(instance, tree, lp, 1, iterations)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_transient_memory_is_capped_by_the_block_not_by_j(multicover, monkeypatch):
    # a path that is never drawn keeps the run from stopping early, so
    # every one of the J rows is drawn
    tree, lp = _solved(multicover, 2)
    fake = _never_drawn_last_path(_rotated_candidates(multicover.graph, _multicover_paths))
    monkeypatch.setattr(rounding, "decompose_flow", fake)
    sizes = _count_rows(monkeypatch)
    assert _round_peak(multicover, tree, lp, 2000) <= rounding.BLOCK_BYTES
    assert sum(sizes) == 2000
    monkeypatch.setattr(rounding, "BLOCK_BYTES", 1 << 16)
    short = _round_peak(multicover, tree, lp, 20)
    assert _round_peak(multicover, tree, lp, 2000) <= 1.5 * short


def test_nothing_markable_gives_an_empty_union(multicover):
    # an all-zero point marks nothing: the union is empty and no path is drawn
    tree, lp = _solved(multicover, 2)
    zero = LpSolution(lp.model, np.zeros(lp.model.num_vars), 0.0, OPTIMAL)
    sampler = IterationSampler(multicover, tree, zero)
    assert sampler.distributions == {} and sampler.width == tree.num_edges
    sol = round_solution(multicover, tree, zero, 3, 25)
    assert sol.edges == frozenset() and sol.provenance == {}
    assert sol.to_json(multicover.graph) == reference_round(
        multicover, tree, zero, 3, 25
    ).to_json(multicover.graph)


@pytest.mark.parametrize(
    "name, iterations", [("multicover", 1), ("multicover", 7), ("crossing", 3)]
)
def test_shorter_run_is_a_prefix(request, name, iterations):
    # iteration j reads row j whatever J is: every edge born by iteration J
    # keeps its provenance in a run of J + 5 iterations
    inst = request.getfixturevalue(name)
    tree, lp = _solved(inst, 2)
    short = round_solution(inst, tree, lp, 13, iterations)
    long = round_solution(inst, tree, lp, 13, iterations + 5)
    assert short.provenance
    assert short.provenance == {e: p for e, p in long.provenance.items() if p[0] <= iterations}


@pytest.mark.parametrize(
    "name, depth, seed, samples",
    [("multicover", 2, 1, None), ("noisy_multicover", 1, 6, 3), ("crossing", 2, 2, None)],
)
def test_long_run_matches_reference(request, name, depth, seed, samples):
    # far more iterations than it takes to draw every path: the run that
    # stops at the full union must still give the reference's bytes for J
    noisy = name.startswith("noisy_")
    inst = request.getfixturevalue(name.removeprefix("noisy_"))
    if noisy:
        inst = _noisy(inst, np.random.default_rng(3).uniform(0.0, 0.1, 35))
    tree, lp = _solved(inst, depth)
    if noisy:  # distributions with two paths: the path columns decide the draws
        dists = IterationSampler(inst, tree, lp, samples).distributions.values()
        assert max(len(d.paths) for d in dists) > 1
    got = round_solution(inst, tree, lp, seed, 5_000, samples)
    assert got.meta["iterations"] == 5_000
    want = reference_round(inst, tree, lp, seed, 5_000, samples)
    assert got.to_json(inst.graph) == want.to_json(inst.graph)


def test_integral_lp_stops_after_the_first_rows(solved_diamond, monkeypatch):
    # every markable edge of an integral point is marked in row 1, so
    # every path is drawn there and the run stops within the first blocks
    inst, tree, lp = solved_diamond
    sizes = _count_rows(monkeypatch)
    sol = round_solution(inst, tree, lp, 11, 10_000)
    assert sum(sizes) <= 2
    assert sol.meta["iterations"] == 10_000
    assert sol.edges == frozenset(range(inst.graph.num_edges))


def test_a_path_never_drawn_keeps_every_row(crossing, monkeypatch):
    g = crossing.graph
    tree, lp = _solved(crossing, 2)
    fake = _never_drawn_last_path(_rotated_candidates(g, _crossing_paths))
    monkeypatch.setattr(rounding, "decompose_flow", fake)
    monkeypatch.setattr(oracles, "decompose_flow", fake)
    sizes = _count_rows(monkeypatch)
    got = round_solution(crossing, tree, lp, 4, 300)
    assert sum(sizes) == 300
    assert got.to_json(g) == reference_round(crossing, tree, lp, 4, 300).to_json(g)


@given(data=st.data(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_gkr_round_matches_reference(depth3_tree, data, seed):
    # unclamped input: zero parents, children above their parents, values > 1
    size = depth3_tree.num_edges
    xhat = np.array(data.draw(st.lists(
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=2.0)),
        min_size=size,
        max_size=size,
    )))
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


@pytest.mark.parametrize(
    "name, depth, samples",
    [("diamond", 2, None), ("multicover", 2, None), ("multicover", 1, 3)],
    ids=["diamond-2", "multicover-2", "multicover-1-3"],
)
def test_sample_draws_match_reference(request, name, depth, samples):
    inst = request.getfixturevalue(name)
    tree, lp = _solved(inst, depth)
    sampler = IterationSampler(inst, tree, lp, samples)
    reference = ReferenceSampler(inst, tree, lp, samples)
    assert sampler.width == reference.width
    got_rng, want_rng = np.random.default_rng(4), np.random.default_rng(4)
    for _ in range(8):  # consecutive rows of one stream
        got = sampler.sample_draws(got_rng)
        want = reference.sample_draws(want_rng)
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
    assert reference_sample_path(short, FixedDraws(high)).edges == (1,)

    tree, lp = _solved(parallel_pair, 1)
    monkeypatch.setattr(
        rounding, "decompose_flow", lambda graph, tree, ehat, flow, value: short
    )
    sampler = IterationSampler(parallel_pair, tree, lp, samples=3)
    te = tree.num_edges
    row = np.r_[np.zeros(te), np.full(sampler.width - te, high)]  # mark every edge, draw high
    draws = sampler.sample_draws(FixedDraws(row))
    assert len(draws) == 3 * tree.num_edges
    assert all(p.edges == (1,) for _, _, p in draws)


@pytest.mark.parametrize("name", ["diamond", "multicover"])
def test_decomposition_once_per_markable_edge(request, name, monkeypatch):
    # every edge with a positive clamped value, and no other, is decomposed
    # once when the sampler is built; draws never decompose
    inst = request.getfixturevalue(name)
    tree, lp = _solved(inst, 2)
    calls = Counter()
    real = rounding.decompose_flow

    def counting(graph, tree, ehat, flow, value):
        calls[ehat] += 1
        return real(graph, tree, ehat, flow, value)

    monkeypatch.setattr(rounding, "decompose_flow", counting)
    sampler = IterationSampler(inst, tree, lp)
    raw = lp.at(lp.model.var_index.xhat(np.arange(tree.num_edges)))
    markable = np.flatnonzero(reference_clamp(tree, raw) > rounding.SUPPORT_TOL).tolist()
    assert markable
    assert calls == Counter({ehat: 1 for ehat in markable})
    assert list(sampler.distributions) == markable
    marked = set()
    for j in range(1, 21):
        marked |= {ehat for ehat, _, _ in sampler.sample_draws(np.random.default_rng((6, j)))}
    assert marked <= set(markable)
    assert calls == Counter({ehat: 1 for ehat in markable})


def test_round_logs_summary(solved_diamond, caplog):
    inst, tree, lp = solved_diamond
    with caplog.at_level(logging.INFO, logger="twodst.rounding"):
        sol = round_solution(inst, tree, lp, 7, 12)
    (record,) = [r for r in caplog.records if r.name == "twodst.rounding"]
    numbers = [int(x) for x in re.findall(r"\d+", record.getMessage())]
    sampler = IterationSampler(inst, tree, lp)
    rng = np.random.default_rng(7)
    draws = [sampler.sample_draws(rng) for _ in range(12)]  # one row per iteration
    distinct = {(ehat, p.edges) for batch in draws for ehat, _, p in batch}
    assert len(distinct) == len(sampler.paths)
    # the rows drawn end with the first block by whose end every path was drawn
    full = min(j for j in range(1, 13)
               if len({(e, p.edges) for batch in draws[:j] for e, _, p in batch}) == len(distinct))
    ends = np.cumsum([b.size for b in sampler.draw_blocks(np.random.default_rng(7), 12)])
    rows = int(ends[np.searchsorted(ends, full)])
    last_new = max(j for j, _, _ in sol.provenance.values())
    assert numbers == [rows, 12, len(distinct), last_new]
    assert rows < 12
