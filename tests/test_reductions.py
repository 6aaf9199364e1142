"""Pairwise and vertex-connectivity reductions."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import reference_disjoint_pair_cost
from twodst import reductions
from twodst.errors import InfeasibleInstanceError, ModelInconsistencyError
from twodst.exact import ExactConfig, exact_2dst
from twodst.graph import DirectedMultigraph, DstInstance, max_flow_unit
from twodst.reductions import (
    DssInstance,
    _disjoint_pair_cost,
    _fresh_vertex,
    dss_via_dst,
    dss_vertex_via_dst,
    solve_vertex_2dst,
    vertex_split,
)
from twodst.solution import SolutionSubgraph


def exact_solver(max_edges=32):
    """Ground-truth rooted solver for reduction tests."""

    def run(inst):
        result = exact_2dst(inst, ExactConfig(max_edges=max_edges))
        if not result.feasible:
            raise InfeasibleInstanceError("no feasible subgraph exists")
        return SolutionSubgraph.from_edges(inst.graph, result.edges)

    return run


def short_solver():
    """The exact solver's optimum less its lowest edge id: a rooted solver
    that returns too few edges."""
    exact = exact_solver()

    def run(inst):
        sol = exact(inst)
        return SolutionSubgraph.from_edges(inst.graph, sol.edges - {min(sol.edges)})

    return run


def _bidirected(vertices, arcs, cost=1.0):
    edges = []
    for a, b in arcs:
        edges.append((a, b, cost))
        edges.append((b, a, cost))
    return DirectedMultigraph(vertices, edges)


def test_dss_instance_validation():
    g = _bidirected(["a", "b"], [("a", "b")])
    with pytest.raises(ValueError):
        DssInstance(g, frozenset(["a"]))
    with pytest.raises(ValueError):
        DssInstance(g, frozenset(["a", "z"]))
    assert DssInstance(g, frozenset(["b", "a"])).sorted_terminals() == ["a", "b"]


# ------------------------------------------------------------ vertex split

def test_vertex_split_counts():
    g = DirectedMultigraph(
        ["r", "a", "b", "t"],
        [
            ("r", "a", 1.0),
            ("a", "t", 2.0),
            ("r", "b", 3.0),
            ("b", "t", 4.0),
            ("a", "b", 5.0),
        ],
    )
    split = vertex_split(g)
    assert split.num_vertices == 8
    assert split.num_edges == 9
    for e in range(g.num_edges):
        assert split.tails[e] == (g.tails[e], "out")
        assert split.heads[e] == (g.heads[e], "in")
        assert split.costs[e] == g.costs[e]
    # the internal edge of the i-th vertex in str order has id m + i
    for i, v in enumerate(sorted(g.vertices, key=str)):
        se = g.num_edges + i
        assert split.costs[se] == 0.0
        assert split.tails[se] == (v, "in")
        assert split.heads[se] == (v, "out")


def test_split_flow_diamond(diamond):
    split = vertex_split(diamond.graph)
    flow, _ = max_flow_unit(split, ("r", "out"), ("t", "in"))
    assert flow == 2


def test_split_flow_shared_midpoint():
    # two edge-disjoint paths exist, but both run through vertex a
    g = DirectedMultigraph(
        ["r", "a", "t"],
        [("r", "a", 1.0), ("a", "t", 1.0), ("r", "a", 1.0), ("a", "t", 1.0)],
    )
    assert max_flow_unit(g, "r", "t")[0] == 2
    split = vertex_split(g)
    flow, _ = max_flow_unit(split, ("r", "out"), ("t", "in"))
    assert flow == 1


@st.composite
def small_graph_and_subset(draw):
    n = draw(st.integers(2, 5))
    vertices = [f"v{i}" for i in range(n)]
    m = draw(st.integers(1, 10))
    edges = []
    for _ in range(m):
        tail = draw(st.integers(0, n - 1))
        head = draw(st.integers(0, n - 1))
        if tail == head:
            head = (head + 1) % n
        edges.append((vertices[tail], vertices[head], 1.0))
    g = DirectedMultigraph(vertices, edges)
    subset = frozenset(e for e in range(m) if draw(st.booleans()))
    return g, subset


@given(small_graph_and_subset())
def test_split_round_trip(pair):
    g, subset = pair
    m = g.num_edges
    split = vertex_split(g)
    internal = range(m, m + g.num_vertices)
    assert split.num_edges == m + g.num_vertices
    # original edges keep their ids, so a split set maps back by ids below m
    mapped = set(subset) | set(internal)
    assert frozenset(e for e in mapped if e < m) == subset
    for e in subset:
        assert split.edge(e) == ((g.tails[e], "out"), (g.heads[e], "in"), g.costs[e])
    for se in internal:
        (v, side), (w, other), cost = split.edge(se)
        assert (side, other, cost) == ("in", "out", 0.0) and v == w
    assert {split.tails[se][0] for se in internal} == g.vertices


@settings(max_examples=30)
@given(small_graph_and_subset())
def test_split_flow_never_exceeds_edge_flow(pair):
    g, _ = pair
    split = vertex_split(g)
    s, t = sorted(g.vertices)[0], sorted(g.vertices)[-1]
    edge_flow, _ = max_flow_unit(g, s, t)
    vertex_flow, _ = max_flow_unit(split, (s, "out"), (t, "in"))
    assert vertex_flow <= edge_flow


# ------------------------------------------------------ gadget pair search

@st.composite
def pair_search_case(draw):
    """n <= 7 vertices and at most 12 edges: two planted source -> target
    routes with random gaps, random extra edges, some free edges, parallel
    copies at the same cost, and targets that may be unreachable."""
    n = draw(st.integers(2, 7))
    order = draw(st.permutations(range(n)))
    source, target, inner = order[0], order[-1], order[1:-1]
    cut = draw(st.integers(0, len(inner)))
    pairs = []
    for route in (inner[:cut], inner[cut:]):
        hops = [source, *route, target]
        pairs += [hop for hop in zip(hops, hops[1:]) if draw(st.integers(0, 5))]
    vertex_pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    pairs += draw(st.lists(vertex_pair.map(tuple), max_size=12 - len(pairs)))
    cost = st.one_of(st.just(0.0), st.sampled_from([0.1, 0.7, 1.0]), st.floats(0.0, 10.0))
    edges = []
    for tail, head in pairs[:12]:
        c = draw(cost)
        edges.append((tail, head, c))
        if len(edges) < 12 and draw(st.integers(0, 3)) == 0:
            edges.append((tail, head, c))
    return DirectedMultigraph(range(n), edges), source, target


def _carries_vertex_disjoint_pair(g, edges, source, target):
    split = vertex_split(g)
    keep = set(edges) | set(range(g.num_edges, split.num_edges))
    flow, _ = max_flow_unit(split, (source, "out"), (target, "in"), restrict_to=keep)
    return flow >= 2


# the cheapest path s -> a -> b -> t blocks every second path, so the
# second search must undo its a -> b edge
TRAP = (
    DirectedMultigraph(
        "sabt",
        [("s", "a", 1.0), ("a", "b", 1.0), ("b", "t", 1.0), ("a", "t", 3.0), ("s", "b", 3.0)],
    ),
    "s",
    "t",
)
# the first path takes one of the two a -> b copies; the residual cycle
# through both copies costs 0, which plain +-cost sums round below 0 at
# these costs, so the second search would follow a loop of predecessors
PARALLEL_COPY = (
    DirectedMultigraph(
        "sabt",
        [
            ("s", "a", 0.1),
            ("a", "b", 0.46891485609179917),
            ("a", "b", 0.46891485609179917),
            ("b", "t", 0.1),
            ("s", "b", 1.67906353774072),
            ("a", "t", 5.0),
        ],
    ),
    "s",
    "t",
)


@settings(max_examples=200)
@example(TRAP)
@example(PARALLEL_COPY)
@given(pair_search_case())
def test_disjoint_pair_matches_enumeration(case):
    g, source, target = case
    want_cost, _ = reference_disjoint_pair_cost(g, source, target)
    cost, edges = _disjoint_pair_cost(g, source, target)
    assert (cost is None) == (want_cost is None)
    if cost is None:
        assert edges is None
        return
    assert cost == pytest.approx(want_cost, rel=0, abs=1e-9)
    assert cost == g.total_cost(edges)
    assert _carries_vertex_disjoint_pair(g, edges, source, target)


def test_disjoint_pair_on_dense_graph():
    # bidirected K12 with unit costs: 132 edges, far too many simple paths
    # to pair up, while the cheapest pair is the direct edge plus two hops
    vs = range(12)
    g = DirectedMultigraph(vs, [(a, b, 1.0) for a in vs for b in vs if a != b])
    cost, edges = _disjoint_pair_cost(g, 0, 11)
    assert cost == 3.0
    assert len(edges) == 3
    assert _carries_vertex_disjoint_pair(g, edges, 0, 11)


# -------------------------------------------------------- pairwise variant

def test_dss_union_on_bidirected_cycle():
    g = _bidirected(["r", "a", "t", "b"], [("r", "a"), ("a", "t"), ("t", "b"), ("b", "r")])
    inst = DssInstance(g, frozenset(["r", "t"]))
    sol = dss_via_dst(inst, exact_solver())
    for s in ("r", "t"):
        for t in ("r", "t"):
            if s != t:
                assert max_flow_unit(g, s, t, restrict_to=sol.edges)[0] >= 2
    assert sol.meta["root"] == "r"
    assert sol.cost <= sol.meta["out_rooted_cost"] + sol.meta["in_rooted_cost"]


def test_dss_union_short_of_two_paths_raises():
    g = _bidirected(["r", "a", "t", "b"], [("r", "a"), ("a", "t"), ("t", "b"), ("b", "r")])
    inst = DssInstance(g, frozenset(["r", "t"]))
    with pytest.raises(ModelInconsistencyError, match="union solution carries only 1 disjoint"):
        dss_via_dst(inst, short_solver())


def test_dss_infeasible_propagates():
    g = DirectedMultigraph(["a", "b"], [("a", "b", 1.0)])
    inst = DssInstance(g, frozenset(["a", "b"]))
    with pytest.raises(InfeasibleInstanceError):
        dss_via_dst(inst, exact_solver())


# ---------------------------------------------------- vertex connectivity

def test_vertex_2dst_diamond(diamond):
    sol = solve_vertex_2dst(diamond, exact_solver())
    assert sol.edges == frozenset({0, 1, 2, 3})
    assert sol.cost == pytest.approx(4.0)
    assert sol.meta["split_cost"] == pytest.approx(4.0)


def test_vertex_2dst_split_solution_short_of_two_paths_raises(diamond):
    with pytest.raises(ModelInconsistencyError, match="split solution carries only 1 disjoint"):
        solve_vertex_2dst(diamond, short_solver())


def test_vertex_2dst_shared_midpoint_infeasible():
    g = DirectedMultigraph(
        ["r", "a", "t"],
        [("r", "a", 1.0), ("a", "t", 1.0), ("r", "a", 1.0), ("a", "t", 1.0)],
    )
    inst = DstInstance(g, "r", frozenset(["t"]))
    with pytest.raises(InfeasibleInstanceError):
        solve_vertex_2dst(inst, exact_solver())


def test_vertex_2dst_avoids_cut_vertex():
    # a cheap route through a shared vertex c plus an expensive clean
    # bypass: the vertex version must pay for the bypass
    g = DirectedMultigraph(
        ["r", "c", "t", "u"],
        [
            ("r", "c", 1.0),
            ("c", "t", 1.0),
            ("r", "c", 1.0),
            ("c", "t", 1.0),
            ("r", "u", 5.0),
            ("u", "t", 5.0),
        ],
    )
    inst = DstInstance(g, "r", frozenset(["t"]))
    sol = solve_vertex_2dst(inst, exact_solver())
    assert {4, 5} <= sol.edges
    assert all(e < g.num_edges for e in sol.edges)
    split = vertex_split(g)
    flow, _ = max_flow_unit(
        split,
        ("r", "out"),
        ("t", "in"),
        restrict_to=set(sol.edges) | set(range(g.num_edges, split.num_edges)),
    )
    assert flow >= 2


# ------------------------------------------------- pairwise vertex variant

def test_dss_vertex_triangle():
    g = _bidirected(["x", "y", "z"], [("x", "y"), ("y", "z"), ("x", "z")])
    inst = DssInstance(g, frozenset(["x", "y"]))
    sol = dss_vertex_via_dst(inst, exact_solver())
    assert sol.meta["gadget"] == ["x", "y"]
    assert sol.meta["sub_costs"] == []
    assert sol.edges <= frozenset(range(g.num_edges))
    assert sol.cost == pytest.approx(6.0)


def test_dss_vertex_with_extra_terminal():
    g = _bidirected(
        ["w", "x", "y", "z"],
        [("x", "y"), ("x", "z"), ("x", "w"), ("y", "z"), ("y", "w"), ("z", "w")],
    )
    inst = DssInstance(g, frozenset(["x", "y", "w"]))
    sol = dss_vertex_via_dst(inst, exact_solver())
    assert len(sol.meta["sub_costs"]) == 2
    assert sol.edges <= frozenset(range(g.num_edges))
    split = vertex_split(g)
    keep = set(sol.edges) | set(range(g.num_edges, split.num_edges))
    for s in ("w", "x", "y"):
        for t in ("w", "x", "y"):
            if s != t:
                flow, _ = max_flow_unit(split, (s, "out"), (t, "in"), restrict_to=keep)
                assert flow >= 2


def test_dss_vertex_union_short_of_two_paths_raises(monkeypatch):
    # a gadget "pair" that is a single path in each direction
    g = _bidirected(["x", "y", "z"], [("x", "y"), ("y", "z"), ("x", "z")])

    def one_path(graph, s, t):
        e = next(e for e in graph.out_edges(s) if graph.heads[e] == t)
        return graph.costs[e], frozenset([e])

    monkeypatch.setattr(reductions, "_disjoint_pair_cost", one_path)
    inst = DssInstance(g, frozenset(["x", "y"]))
    with pytest.raises(ModelInconsistencyError, match="union carries only 1 vertex-disjoint"):
        dss_vertex_via_dst(inst, exact_solver())


def test_dss_vertex_infeasible():
    # every x -> y route crosses z, so no two vertex-disjoint paths exist
    g = _bidirected(["x", "z", "y"], [("x", "z"), ("z", "y")])
    inst = DssInstance(g, frozenset(["x", "y"]))
    with pytest.raises(InfeasibleInstanceError):
        dss_vertex_via_dst(inst, exact_solver())


def test_fresh_vertex():
    assert _fresh_vertex([0, 3, 7]) == 8
    assert _fresh_vertex(["a", "b"]) == "__root__"
    assert _fresh_vertex(["a", "__root__"]) == "__root___"
