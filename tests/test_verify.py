"""Feasibility certification and LP diagnostics."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import group_flow_lp, is_feasible_subset, scan_failures
from twodst.exact import random_instance
from twodst.graph import DirectedMultigraph, DstInstance, reachable_set
from twodst.lp_model import LpSolution, build_lp, congestion_parameter
from twodst.lp_solver import solve
from twodst.shallow_tree import build_shallow_tree
from twodst.solution import SolutionSubgraph
from twodst import verify
from twodst.verify import (
    GoodEdgeAnalysis,
    _group_flow_dp,
    feasibility_report,
    flow_slack_violation,
    residual_group_flow,
    reverse_delete,
    survival_estimate,
)


def _instance(vertices, edges, root, terminals):
    return DstInstance(DirectedMultigraph(vertices, edges), root, frozenset(terminals))


def _solve_depth2(inst):
    tree = build_shallow_tree(inst, 2)
    beta = congestion_parameter(2, inst.num_terminals)
    lp = solve(build_lp(inst, tree, beta))
    assert lp.status == "optimal"
    return tree, beta, lp


@pytest.fixture(scope="module")
def diamond_solved():
    inst = _instance(
        ["r", "a", "b", "t"],
        [("r", "a", 1.0), ("a", "t", 1.0), ("r", "b", 1.0), ("b", "t", 1.0)],
        "r",
        ["t"],
    )
    return (inst, *_solve_depth2(inst))


@pytest.fixture(scope="module")
def theta_solved():
    """Diamond plus a direct r -> t edge too expensive for the LP to touch."""
    inst = _instance(
        ["r", "a", "b", "t"],
        [
            ("r", "a", 1.0),
            ("a", "t", 1.0),
            ("r", "b", 1.0),
            ("b", "t", 1.0),
            ("r", "t", 100.0),
        ],
        "r",
        ["t"],
    )
    return (inst, *_solve_depth2(inst))


# ------------------------------------------------------------- feasibility

def test_diamond_full_set_is_feasible(diamond):
    report = feasibility_report(diamond, {0, 1, 2, 3})
    assert report.feasible
    assert report.flows == {"t": 2}
    assert report.witness_edge is None
    assert report.witness_terminal is None


def test_diamond_missing_branch_edge(diamond):
    report = feasibility_report(diamond, {0, 2, 3})
    assert not report.feasible
    assert report.flows == {"t": 1}
    # ascending scan: dropping edge 2 is the first removal that cuts t off
    assert report.witness_edge == 2
    assert report.witness_terminal == "t"
    assert "t" not in reachable_set(diamond.graph, "r", restrict_to={0, 3})


def test_empty_set_witness(diamond):
    report = feasibility_report(diamond, set())
    assert not report.feasible
    assert report.flows == {"t": 0}
    assert report.witness_edge is None
    assert report.witness_terminal == "t"


def test_feasibility_report_rejects_unknown_edges(diamond):
    with pytest.raises(ValueError):
        feasibility_report(diamond, {0, 99})


def test_parallel_pair_feasible(parallel_pair):
    assert feasibility_report(parallel_pair, {0, 1}).feasible


def test_report_json_shape(diamond):
    ok = json.loads(feasibility_report(diamond, {0, 1, 2, 3}).to_json())
    assert ok["feasible"] is True
    assert "witness" not in ok
    bad = json.loads(feasibility_report(diamond, {0, 2, 3}).to_json())
    assert bad["feasible"] is False
    assert bad["witness"]["edge"] == 2
    assert bad["witness"]["terminal"] == "t"


def test_verify_matches_report(diamond):
    sol = SolutionSubgraph.from_edges(diamond.graph, {0, 1, 2, 3})
    assert feasibility_report(diamond, sol.edges).feasible


def test_reverse_delete_checks_terminals_in_sorted_order(monkeypatch):
    # int hashes are fixed, so this frozenset iterates out of sorted order
    terminals = (33, 2, 65, 4, 97, 6)
    edges = []
    for t in terminals:
        edges += [(0, t, 1.0), (0, t, 1.0), (0, t, 3.0)]
    inst = _instance([0, *terminals], edges, 0, terminals)
    assert list(inst.terminals) != inst.sorted_terminals()

    seen = []  # (trial edge set, terminal) per max-flow call
    real = verify.max_flow_unit

    def recording(graph, source, sink, restrict_to=None):
        seen.append((frozenset(restrict_to), sink))
        return real(graph, source, sink, restrict_to=restrict_to)

    monkeypatch.setattr(verify, "max_flow_unit", recording)
    kept = reverse_delete(inst, range(len(edges)))
    assert inst.graph.total_cost(kept) == 2.0 * len(terminals)

    trials: dict = {}
    for trial, t in seen:
        trials.setdefault(trial, []).append(t)
    assert len(trials) == len(edges)
    for order in trials.values():
        assert order == inst.sorted_terminals()[: len(order)]


def test_scan_failures(diamond):
    full = SolutionSubgraph.from_edges(diamond.graph, {0, 1, 2, 3})
    assert scan_failures(diamond, full) == []
    partial = SolutionSubgraph.from_edges(diamond.graph, {0, 2, 3})
    assert scan_failures(diamond, partial) == [(2, "t"), (3, "t")]


@st.composite
def instance_and_subset(draw):
    n = draw(st.integers(3, 5))
    vertices = [f"v{i}" for i in range(n)]
    m = draw(st.integers(1, 12))
    edges = []
    for _ in range(m):
        tail = draw(st.integers(0, n - 1))
        head = draw(st.integers(0, n - 1))
        if tail == head:
            head = (head + 1) % n
        edges.append((vertices[tail], vertices[head], 1.0))
    g = DirectedMultigraph(vertices, edges)
    subset = frozenset(e for e in range(m) if draw(st.booleans()))
    return DstInstance(g, "v0", frozenset(["v1"])), subset


@given(instance_and_subset())
def test_feasibility_matches_oracle(pair):
    inst, subset = pair
    report = feasibility_report(inst, subset)
    assert report.feasible == is_feasible_subset(
        inst.graph, subset, inst.root, inst.terminals
    )
    if not report.feasible:
        assert report.witness_terminal in inst.terminals


# -------------------------------------------------------------- group flow

def test_group_flow_dp_simple(diamond_solved):
    _, tree, _, _ = diamond_solved
    caps = [0.0] * tree.num_edges
    for ehat in tree.root_edges():
        caps[ehat] = 0.75
    # only root edges whose child is already in the group contribute
    flow = _group_flow_dp(tree, caps, tree.groups["t"])
    direct = [e for e in tree.root_edges() if e + 1 in tree.groups["t"]]
    assert flow == pytest.approx(0.75 * len(direct))


@pytest.fixture(scope="module")
def group_flow_trees(diamond_solved):
    """The 18-edge diamond tree (D=2) and a three-level tree (D=3)."""
    _, diamond_tree, _, _ = diamond_solved
    assert diamond_tree.num_edges == 18
    deep = build_shallow_tree(random_instance(6, 14, 2, seed=1), 3)
    assert deep.depth == 3 and deep.num_edges == 170
    return diamond_tree, deep


@given(st.data())
def test_group_flow_dp_matches_maxflow(group_flow_trees, data):
    for tree in group_flow_trees:
        caps = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1.0),
                min_size=tree.num_edges,
                max_size=tree.num_edges,
            )
        )
        for group in tree.groups.values():
            assert _group_flow_dp(tree, caps, group) == pytest.approx(
                group_flow_lp(tree, caps, group), abs=1e-9
            )


# ------------------------------------------------------------- diagnostics

def test_residual_group_flow_solved(diamond_solved):
    inst, tree, beta, lp = diamond_solved
    for e in range(inst.graph.num_edges):
        for t in sorted(inst.terminals):
            assert residual_group_flow(tree, lp, beta, e, t) >= 0.5 - 1e-6


def test_residual_group_flow_unused_edge(theta_solved):
    inst, tree, beta, lp = theta_solved
    assert lp.x(4) <= 1e-7  # the expensive shortcut stays out of the LP
    assert residual_group_flow(tree, lp, beta, 4, "t") >= 2.0 - 1e-6
    for e in range(inst.graph.num_edges):
        assert residual_group_flow(tree, lp, beta, e, "t") >= 0.5 - 1e-6


def test_bad_edges_shrink_with_beta(diamond_solved):
    inst, tree, beta, lp = diamond_solved
    for e in range(inst.graph.num_edges):
        loose = GoodEdgeAnalysis.from_lp(tree, lp, beta, e)
        tight = GoodEdgeAnalysis.from_lp(tree, lp, 2 * beta, e)
        assert tight.bad_edges <= loose.bad_edges
        assert loose.graph_edge == e
        assert loose.mu["t"] >= 2.0 - 1e-6
        for ehat in loose.bad_edges:
            assert loose.reduced_capacities[ehat] == 0.0


def test_flow_slack_violation_solved(diamond_solved):
    _, tree, _, lp = diamond_solved
    assert flow_slack_violation(tree, lp) <= 1e-7


def test_flow_slack_violation_zero_point(diamond_solved):
    _, tree, _, lp = diamond_solved
    zero = LpSolution(lp.model, np.zeros(lp.model.num_vars), 0.0, "optimal")
    assert flow_slack_violation(tree, zero) <= 0.0


def test_flow_slack_violation_hand_built(diamond_embedding):
    _, tree, model, values = diamond_embedding
    point = LpSolution(model, values, 4.0, "optimal")
    assert flow_slack_violation(tree, point) <= 0.0


# ---------------------------------------------------------------- survival

def test_survival_rejects_zero_trials(diamond_solved):
    inst, tree, _, lp = diamond_solved
    with pytest.raises(ValueError):
        survival_estimate(inst, tree, lp, 1, 0, "t", 0)


def test_survival_diamond(diamond_solved):
    inst, tree, _, lp = diamond_solved
    est = survival_estimate(inst, tree, lp, 6, 0, "t", 200)
    assert est.trials == 200
    assert 0.0 <= est.probability <= 1.0
    assert est.successes == pytest.approx(est.probability * 200)
    # one rounding pass should connect t around edge 0 far more often than
    # the 1/(5 D) floor the analysis guarantees
    assert est.probability >= 1.0 / (5 * tree.depth) - est.radius
    assert est.radius > 0.0


def test_survival_depends_on_seed(diamond_solved):
    inst, tree, _, lp = diamond_solved
    a = survival_estimate(inst, tree, lp, 6, 0, "t", 50)
    b = survival_estimate(inst, tree, lp, 6, 0, "t", 50)
    assert a == b
