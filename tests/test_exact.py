"""Exhaustive-search oracle and the random instance generator."""

import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_2dst

import twodst.exact as exact
from twodst.errors import ExactTimeoutError, SizeLimitError
from twodst.exact import ExactConfig, ExactResult, exact_2dst, random_instance
from twodst.graph import DirectedMultigraph, DstInstance, max_flow_unit
from twodst.verify import feasibility_report


def _instance(vertices, edges, root, terminals):
    return DstInstance(DirectedMultigraph(vertices, edges), root, frozenset(terminals))


def test_diamond_optimum(diamond):
    result = exact_2dst(diamond)
    assert result == ExactResult(True, 4.0, frozenset({0, 1, 2, 3}))


def test_decoy_edge_is_skipped():
    inst = _instance(
        ["r", "t"],
        [("r", "t", 1.0), ("r", "t", 1.0), ("r", "t", 5.0)],
        "r",
        ["t"],
    )
    result = exact_2dst(inst)
    assert result.cost == pytest.approx(2.0)
    assert result.edges == frozenset({0, 1})


def test_single_edge_infeasible():
    inst = _instance(["r", "t"], [("r", "t", 1.0)], "r", ["t"])
    assert exact_2dst(inst) == ExactResult(False, None, None)


def test_zero_cost_edges():
    # a free but useless edge is stripped from the reported optimum
    inst = _instance(
        ["r", "a", "b", "t"],
        [
            ("r", "a", 1.0),
            ("a", "t", 1.0),
            ("r", "b", 1.0),
            ("b", "t", 1.0),
            ("a", "b", 0.0),
        ],
        "r",
        ["t"],
    )
    result = exact_2dst(inst)
    assert result.cost == pytest.approx(4.0)
    assert result.edges == frozenset({0, 1, 2, 3})
    # a free necessary edge is kept
    inst2 = _instance(
        ["r", "a", "b", "t"],
        [("r", "a", 0.0), ("a", "t", 1.0), ("r", "b", 1.0), ("b", "t", 1.0)],
        "r",
        ["t"],
    )
    result2 = exact_2dst(inst2)
    assert result2.cost == pytest.approx(3.0)
    assert 0 in result2.edges


def test_size_cap():
    inst = _instance(
        ["r", "a", "b", "t"],
        [("r", "a", 1.0), ("a", "t", 1.0), ("r", "b", 1.0), ("b", "t", 1.0)],
        "r",
        ["t"],
    )
    with pytest.raises(SizeLimitError) as info:
        exact_2dst(inst, ExactConfig(max_edges=3))
    assert info.value.projected == 4
    assert info.value.cap == 3


def test_time_budget(diamond):
    with pytest.raises(ExactTimeoutError):
        exact_2dst(diamond, ExactConfig(time_budget=1e-12))


def test_config_validation():
    with pytest.raises(ValueError):
        ExactConfig(max_edges=0)
    with pytest.raises(ValueError):
        ExactConfig(time_budget=0.0)
    # NaN compares false with everything, so it would silently turn the
    # budget off
    for budget in (math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            ExactConfig(time_budget=budget)


@st.composite
def small_instance(draw):
    n = draw(st.integers(3, 5))
    vertices = [f"v{i}" for i in range(n)]
    m = draw(st.integers(2, 10))
    edges = []
    for _ in range(m):
        tail = draw(st.integers(0, n - 1))
        head = draw(st.integers(0, n - 1))
        if tail == head:
            head = (head + 1) % n
        cost = draw(st.sampled_from([1.0, 2.0, 3.0]))
        edges.append((vertices[tail], vertices[head], cost))
    h = draw(st.integers(1, 2))
    terminals = vertices[1 : 1 + h]
    return _instance(vertices, edges, "v0", terminals)


@settings(max_examples=40)
@given(small_instance())
def test_matches_brute_force(inst):
    result = exact_2dst(inst)
    oracle_cost, _ = brute_force_2dst(inst.graph, inst.root, inst.terminals)
    if oracle_cost is None:
        assert not result.feasible
    else:
        assert result.feasible
        assert result.cost == pytest.approx(oracle_cost)
        assert inst.graph.total_cost(result.edges) == pytest.approx(result.cost)
        assert feasibility_report(inst, result.edges).feasible


@settings(max_examples=25)
@given(small_instance())
def test_optimum_is_minimal(inst):
    result = exact_2dst(inst)
    if not result.feasible:
        return
    for e in result.edges:
        if inst.graph.costs[e] > 0:
            assert not feasibility_report(inst, result.edges - {e}).feasible


def test_determinism(diamond):
    assert exact_2dst(diamond) == exact_2dst(diamond)


def test_cost_is_the_cost_of_the_edges_returned():
    # the search adds costs in descending order, which here sums to
    # 45.9867250648239, one ulp off the edges' own total
    inst = random_instance(7, 11, 3, seed=321219873)
    result = exact_2dst(inst)
    assert result.edges == frozenset({0, 1, 3, 6, 8, 9, 10})
    assert result.cost == inst.graph.total_cost(result.edges) == 45.986725064823894


def test_search_deeper_than_the_recursion_limit():
    # the search excludes the 1,200 costly edges one level at a time before
    # it reaches the two cheap ones
    inst = _instance(["r", "t"], [("r", "t", 10.0)] * 1200 + [("r", "t", 1.0)] * 2, "r", ["t"])
    result = exact_2dst(inst, ExactConfig(max_edges=2000))
    assert result == ExactResult(True, 2.0, frozenset({1200, 1201}))


def test_memory_is_linear_in_the_edge_count():
    # each search node checks the pool of its undecided edges; with one
    # pool kept per search depth the peak here was 12.1 MB, quadratic in
    # the edge count, against about 0.25 MB when each is built as it is
    # checked
    inst = _instance(["r", "t"], [("r", "t", 10.0)] * 600 + [("r", "t", 1.0)] * 2, "r", ["t"])
    tracemalloc.start()
    try:
        result = exact_2dst(inst, ExactConfig(max_edges=1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == ExactResult(True, 2.0, frozenset({600, 601}))
    assert peak < 2_000_000


def test_each_set_is_tested_once(monkeypatch):
    # a node's included plus undecided edges are its parent's, and an
    # exclude child's included set is its parent's, so neither is tested
    # again; testing both sets at every node took 3,313 flows here
    calls = 0
    real = exact.max_flow_unit

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(exact, "max_flow_unit", counting)
    for seed in range(12):
        exact_2dst(random_instance(7, 12, 2, seed=seed))
    assert calls == 1_705


@pytest.mark.parametrize("seed, edges", [(6, {2, 3, 4, 10}), (7, {0, 2, 6, 12})])
def test_tied_optimum_is_the_first_in_search_order(seed, edges):
    # unit costs tie many optima; the exclude branch is searched before the
    # include branch, and the first optimum found is the one returned
    inst = random_instance(6, 14, 2, cost_range=(1.0, 1.0), seed=seed)
    assert exact_2dst(inst) == ExactResult(True, 4.0, frozenset(edges))


# ------------------------------------------------------------- generator

def test_random_instance_shape():
    inst = random_instance(6, 14, 2, seed=5)
    assert inst.graph.num_vertices == 6
    assert inst.graph.num_edges == 14
    assert inst.root == "v0"
    assert len(inst.terminals) == 2
    assert all(t != "v0" for t in inst.terminals)


@pytest.mark.parametrize("seed", range(8))
def test_random_instance_planted_feasible(seed):
    inst = random_instance(7, 16, 3, seed=seed)
    for t in inst.terminals:
        flow, _ = max_flow_unit(inst.graph, inst.root, t)
        assert flow >= 2


def test_random_instance_costs_in_range():
    inst = random_instance(5, 12, 2, cost_range=(2.0, 3.0), seed=1)
    assert all(2.0 <= c <= 3.0 for c in inst.graph.costs)


def test_random_instance_deterministic():
    a = random_instance(6, 13, 2, seed=42)
    b = random_instance(6, 13, 2, seed=42)
    assert a.graph.tails == b.graph.tails
    assert a.graph.heads == b.graph.heads
    assert a.graph.costs == b.graph.costs
    assert a.terminals == b.terminals


def test_random_instance_seeds_differ():
    a = random_instance(6, 13, 2, seed=1)
    b = random_instance(6, 13, 2, seed=2)
    assert (a.graph.tails, a.graph.costs) != (b.graph.tails, b.graph.costs)


def test_random_instance_validation():
    with pytest.raises(ValueError):
        random_instance(5, 3, 2)  # m < 2 h with planting on
    with pytest.raises(ValueError):
        random_instance(3, 10, 3)  # h > n - 1
    with pytest.raises(ValueError):
        random_instance(1, 0, 1)
    inst = random_instance(4, 3, 2, guarantee_feasible=False, seed=0)
    assert inst.graph.num_edges == 3
