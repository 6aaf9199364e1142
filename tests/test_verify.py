"""Feasibility certification (`twodst.verify`), and the probes of the
paper's lemmas on LP points (`oracles`), checked against `group_flow_lp`
and `ReferenceSampler`."""

import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    GoodEdgeAnalysis,
    ReferenceSampler,
    _bad_and_reduced,
    _group_flow_dp,
    children,
    flow_slack_violation,
    group_flow_lp,
    is_feasible_subset,
    reachable_set,
    reference_reverse_delete,
    residual_group_flow,
    scan_failures,
    survival_estimate,
)
from twodst.exact import random_instance
from twodst.graph import DirectedMultigraph, DstInstance
from twodst.lp_model import LpSolution, build_lp, congestion_parameter
from twodst.lp_solver import solve
from twodst.shallow_tree import build_shallow_tree
from twodst.solution import SolutionSubgraph
from twodst import verify
from twodst.verify import feasibility_report, reverse_delete


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
    # the minimum cut of the one unit of flow r -> b -> t, nearest the root,
    # and its one edge: losing edge 2 cuts t off
    assert report.witness_edge == 2
    assert report.witness_terminal == "t"
    assert "t" not in reachable_set(diamond.graph, "r", restrict_to={0, 3})
    assert report.witness_cut == frozenset([2])


def test_witness_edge_is_the_cut_nearest_the_root():
    # losing either edge of the path r -> a -> t cuts t off; the witness is
    # r -> a, edge 1, the cut nearest the root, though edge 0 has the lower id
    inst = _instance(["r", "a", "t"], [("a", "t", 1.0), ("r", "a", 1.0)], "r", ["t"])
    report = feasibility_report(inst, {0, 1})
    assert (report.witness_edge, report.witness_cut) == (1, frozenset([1]))


def test_a_failing_report_runs_one_flow_per_terminal(f2_multicover, monkeypatch):
    # one set of F_2^3 and its four points: the first terminal has a flow of
    # one and the others at most one, and the witness comes from the cut
    inst = f2_multicover(3)
    g = inst.graph
    first_set = {e for e in range(g.num_edges) if "s0" in (g.tails[e], g.heads[e])}
    calls = []
    real = verify.max_flow_unit

    def counting(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(verify, "max_flow_unit", counting)
    report = feasibility_report(inst, first_set)
    assert not report.feasible and report.flows[report.witness_terminal] == 1
    assert calls == inst.sorted_terminals()


def test_empty_set_witness(diamond):
    report = feasibility_report(diamond, set())
    assert not report.feasible
    assert report.flows == {"t": 0}
    assert report.witness_edge is None
    assert report.witness_terminal == "t"
    assert report.witness_cut == frozenset()


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
    # root 0 reaches hub 1 by three parallel edges, the first the dearest;
    # each terminal hangs off the hub by two free edges and a dear one, and
    # off the root by a dearer one that its first path takes
    edges = [(0, 1, 2.0), (0, 1, 1.0), (0, 1, 1.0)]
    for t in terminals:
        edges += [(1, t, 0.0), (1, t, 0.0), (0, t, 5.0), (1, t, 4.0)]
    inst = _instance([0, 1, *terminals], edges, 0, terminals)
    assert list(inst.terminals) != inst.sorted_terminals()

    seen = []  # (edge set, terminal, value, certificate) per max-flow call
    real = verify.max_flow_unit

    def recording(graph, source, sink, restrict_to=None, limit=None):
        assert limit == 2  # reverse-delete only asks "at least two paths?"
        value, certificate = real(graph, source, sink, restrict_to=restrict_to, limit=limit)
        seen.append((frozenset(restrict_to), sink, value, certificate))
        return value, certificate

    monkeypatch.setattr(verify, "max_flow_unit", recording)
    everything = frozenset(range(len(edges)))
    kept = reverse_delete(inst, everything)
    assert kept == frozenset([1, 2]) | {e for e in everything if edges[e][2] == 0.0}

    # the first pass: every terminal over the input, in sorted order
    h = len(terminals)
    assert [(s, t) for s, t, _, _ in seen[:h]] == [(everything, t) for t in inst.sorted_terminals()]
    paths = {t: certificate for _, t, _, certificate in seen[:h]}
    # then each trial re-checks, in sorted order, the terminals whose paths
    # hold the edge, up to the first one left short
    calls = iter(seen[h:])
    current, trials = set(everything), []
    for e in sorted(everything, key=lambda e: (-edges[e][2], -e)):
        current.discard(e)
        rerun = {}
        for t in [t for t in inst.sorted_terminals() if e in paths[t]]:
            trial, sink, value, certificate = next(calls)
            assert (trial, sink) == (current, t)
            if value < 2:
                current.add(e)
                trials.append((len(rerun) + 1, False))
                break
            rerun[t] = certificate
        else:
            paths.update(rerun)
            trials.append((len(rerun), True))
    assert next(calls, None) is None and current == kept
    # trials with no re-check, one, every terminal's, and one rejected
    assert {(0, True), (1, True), (h, True), (1, False)} <= set(trials)


def _check_support(inst, depth, beta) -> bool:
    """Whether the LP at `beta` is optimal; if it is, its support
    {e : x_e > 1e-9} must hold two edge-disjoint paths per terminal."""
    tree = build_shallow_tree(inst, depth)
    lp = solve(build_lp(inst, tree, beta))
    if lp.status != "optimal":
        return False
    x = lp.at(lp.model.var_index.x(np.arange(inst.graph.num_edges)))
    support = frozenset(np.flatnonzero(x > 1e-9).tolist())
    assert feasibility_report(inst, support).feasible, (depth, beta, sorted(support))
    return True


@settings(max_examples=40)
@given(
    n=st.integers(min_value=4, max_value=8),
    extra=st.integers(min_value=0, max_value=6),
    h=st.integers(min_value=1, max_value=3),
    depth=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_lp_support_is_a_feasible_edge_set(n, extra, h, depth, seed):
    # the argument is in the `pipeline` docstring: the ft copies compose a
    # root -> t flow of value 2 under x; it holds at every feasible point,
    # so at beta = 1 too whenever that LP is feasible
    inst = random_instance(n, 2 * h + extra, h, seed=seed)
    assert _check_support(inst, depth, congestion_parameter(depth, h))
    _check_support(inst, depth, 1)


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_lp_support_is_a_feasible_edge_set_on_f2(multicover, depth):
    # every set at 1/2: the support is all of F2^3's edges
    assert _check_support(multicover, depth, congestion_parameter(depth, 7))
    _check_support(multicover, depth, 1)


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
    terminals = ["v1", "v2"][: draw(st.integers(1, 2))]
    return DstInstance(g, "v0", frozenset(terminals)), subset


@given(instance_and_subset())
def test_feasibility_matches_oracle(pair):
    inst, subset = pair
    g = inst.graph
    report = feasibility_report(inst, subset)
    assert report.feasible == is_feasible_subset(g, subset, inst.root, inst.terminals)
    if not report.feasible:
        t = report.witness_terminal
        assert t == next(u for u in inst.sorted_terminals() if report.flows[u] < 2)
        # a minimum cut of t's flow, inside the set, that leaves t unreachable
        cut = report.witness_cut
        assert len(cut) == report.flows[t] and cut <= subset
        assert t not in reachable_set(g, inst.root, restrict_to=subset - cut)
        if report.flows[t] == 0:
            assert report.witness_edge is None and cut == frozenset()
            return
        # with one unit, the cut's one edge cuts t off, and it is the one
        # nearest the root: losing it leaves no more reachable than losing
        # any other such edge
        edge = report.witness_edge
        assert cut == {edge}
        failures = [e for e, u in scan_failures(inst, SimpleNamespace(edges=subset)) if u == t]
        assert edge in failures
        left = reachable_set(g, inst.root, restrict_to=subset - {edge})
        assert all(left <= reachable_set(g, inst.root, restrict_to=subset - {e}) for e in failures)


@st.composite
def pruning_instance(draw):
    """A rooted instance on 2-5 vertices with one to three terminals and
    costs 0-3 (zero-cost edges and ties), parallel edges likely, and an edge
    set to prune, which need not be feasible: two disjoint root paths are
    planted per terminal half the time, then edges are drawn at random."""
    n = draw(st.integers(2, 5))
    terminals = list(range(1, n))[: draw(st.integers(1, min(3, n - 1)))]
    cost = st.integers(0, 3).map(float)
    edges = []
    if draw(st.booleans()):
        for t in terminals:
            edges += [(0, t, draw(cost)), (0, t, draw(cost))]
    for _ in range(draw(st.integers(0, 10))):
        tail, head = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        edges.append((tail, head if head != tail else (head + 1) % n, draw(cost)))
    inst = _instance(range(n), edges, 0, terminals)
    return inst, frozenset(e for e in range(len(edges)) if draw(st.booleans()) or draw(st.booleans()))


@given(pruning_instance())
def test_reverse_delete_keeps_the_from_scratch_set(pair):
    inst, edges = pair
    assert reverse_delete(inst, edges) == reference_reverse_delete(inst, edges)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_reverse_delete_keeps_the_from_scratch_set_on_f2(f2_multicover, k):
    inst = f2_multicover(k)
    everything = range(inst.graph.num_edges)
    kept = reverse_delete(inst, everything)
    assert kept == reference_reverse_delete(inst, everything)
    assert feasibility_report(inst, kept).feasible


def test_reverse_delete_reruns_only_the_flows_holding_the_edge(f2_multicover, monkeypatch):
    # F_2^6: 2,079 edges, 63 terminals; re-running every terminal for every
    # edge tried (`reference_reverse_delete`) takes 126,683 flows
    inst = f2_multicover(6)
    calls = []
    real = verify.max_flow_unit

    def counting(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(verify, "max_flow_unit", counting)
    kept = reverse_delete(inst, range(inst.graph.num_edges))
    assert (inst.graph.total_cost(kept), len(kept)) == (10.0, 136)
    assert len(calls) < 1000


# -------------------------------------------------------------- group flow

def test_group_flow_dp_simple(diamond_solved):
    _, tree, _, _ = diamond_solved
    caps = [0.0] * tree.num_edges
    root_edges = [node - 1 for node in children(tree)[0]]
    for ehat in root_edges:
        caps[ehat] = 0.75
    # only root edges whose child is already in the group contribute
    flow = _group_flow_dp(tree, caps, tree.groups["t"])
    direct = [e for e in root_edges if e + 1 in tree.groups["t"]]
    assert flow == pytest.approx(0.75 * len(direct))


@pytest.fixture(scope="module")
def group_flow_trees(diamond_solved):
    """The 10-edge diamond tree (D=2) and a three-level tree (D=3)."""
    _, diamond_tree, _, _ = diamond_solved
    assert diamond_tree.num_edges == 10
    deep = build_shallow_tree(random_instance(6, 14, 2, seed=1), 3)
    assert deep.depth == 3 and deep.num_edges == 98
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
    assert lp.at(lp.model.var_index.x(4)) <= 1e-7  # the expensive shortcut stays out of the LP
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


def test_lp_diagnostics_match_key_by_key_loops(multicover):
    # a random point over the model's columns; dead keys read 0
    tree = build_shallow_tree(multicover, 1)
    model = build_lp(multicover, tree, congestion_parameter(1, multicover.num_terminals))
    lp = LpSolution(model, np.random.default_rng(3).random(model.num_vars), 0.0, "optimal")
    m, beta = multicover.graph.num_edges, 2.0
    idx = model.var_index

    def at(key):
        return float(lp.at(key))

    slack = max(
        (at(idx.fhat(t, eh)) - at(idx.ft(t, eh, e))) - (at(idx.xhat(eh)) - at(idx.f(eh, e)))
        for t in sorted(multicover.terminals)
        for eh in range(tree.num_edges)
        for e in range(m)
    )
    assert flow_slack_violation(tree, lp) == slack
    for e in range(m):
        room = [at(idx.xhat(eh)) - at(idx.f(eh, e)) for eh in range(tree.num_edges)]
        bad = [eh for eh in range(tree.num_edges) if room[eh] < at(idx.f(eh, e)) / (2.0 * beta)]
        caps = [0.0 if eh in bad else room[eh] for eh in range(tree.num_edges)]
        assert _bad_and_reduced(tree, lp, beta, e) == (frozenset(bad), caps)


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


@pytest.mark.parametrize("seed", [1, 2**21])
def test_survival_trial_is_rounding_iteration(multicover, seed):
    # trial j reads row j of the seed's one stream, as rounding iteration j
    # does
    tree, _, lp = _solve_depth2(multicover)
    reference = ReferenceSampler(multicover, tree, lp)
    rng = np.random.default_rng(seed)
    want = 0
    for _ in range(40):
        edges = {e for _, _, p in reference.sample_draws(rng) for e in p.edges} - {0}
        want += "p0" in reachable_set(multicover.graph, "r", restrict_to=edges)
    est = survival_estimate(multicover, tree, lp, seed, 0, "p0", 40)
    assert 0 < est.successes < 40
    assert est.successes == want


def test_survival_depends_on_seed(diamond_solved):
    inst, tree, _, lp = diamond_solved
    a = survival_estimate(inst, tree, lp, 6, 0, "t", 50)
    b = survival_estimate(inst, tree, lp, 6, 0, "t", 50)
    assert a == b
