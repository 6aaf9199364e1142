import pytest
from hypothesis import given
from hypothesis import strategies as st

from twodst.graph import (
    DirectedMultigraph,
    DstInstance,
    EdgePath,
    max_flow_unit,
    reachable_set,
)

from oracles import has_two_disjoint_paths, min_cut_size, path_packing_number


def small_digraphs(max_n=5, max_m=10):
    """Hypothesis strategy: (graph, source, sink) with integer vertices."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=2, max_value=max_n))
        pairs = st.tuples(
            st.integers(min_value=0, max_value=n - 1),
            st.integers(min_value=0, max_value=n - 1),
        ).filter(lambda p: p[0] != p[1])
        raw = draw(st.lists(pairs, min_size=0, max_size=max_m))
        g = DirectedMultigraph(range(n), [(a, b, 1.0) for a, b in raw])
        return g, 0, n - 1

    return build()


class TestConstruction:
    def test_edge_ids_are_dense_and_ordered(self):
        g = DirectedMultigraph(["r", "t"], [("r", "t", 2.0), ("r", "t", 3.0)])
        assert g.num_edges == 2
        assert g.edge(0) == ("r", "t", 2.0)
        assert g.edge(1) == ("r", "t", 3.0)
        assert g.out_edges("r") == (0, 1)
        assert g.in_edges("t") == (0, 1)

    def test_parallel_and_antiparallel_edges_are_distinct(self):
        g = DirectedMultigraph([0, 1], [(0, 1, 1.0), (0, 1, 1.0), (1, 0, 1.0)])
        assert g.num_edges == 3
        assert g.out_edges(0) == (0, 1)
        assert g.out_edges(1) == (2,)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            DirectedMultigraph([0, 1], [(0, 0, 1.0)])

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            DirectedMultigraph([0, 1], [(0, 1, -0.5)])

    @pytest.mark.parametrize("cost", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_cost_rejected(self, cost):
        with pytest.raises(ValueError, match="not finite and non-negative"):
            DirectedMultigraph([0, 1], [(0, 1, cost)])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ValueError):
            DirectedMultigraph([0, 1], [(0, 2, 1.0)])

    def test_reversed_preserves_ids(self):
        g = DirectedMultigraph([0, 1, 2], [(0, 1, 1.0), (1, 2, 5.0)])
        rg = g.reversed()
        assert rg.edge(0) == (1, 0, 1.0)
        assert rg.edge(1) == (2, 1, 5.0)

    def test_total_cost(self):
        g = DirectedMultigraph([0, 1], [(0, 1, 1.5), (0, 1, 2.5)])
        assert g.total_cost([0, 1]) == pytest.approx(4.0)


class TestInstanceValidation:
    def test_root_must_exist(self, diamond):
        with pytest.raises(ValueError):
            DstInstance(diamond.graph, "z", frozenset(["t"]))

    def test_terminals_must_exist(self, diamond):
        with pytest.raises(ValueError):
            DstInstance(diamond.graph, "r", frozenset(["z"]))

    def test_root_cannot_be_terminal(self, diamond):
        with pytest.raises(ValueError):
            DstInstance(diamond.graph, "r", frozenset(["r", "t"]))

    def test_empty_terminals_rejected(self, diamond):
        with pytest.raises(ValueError):
            DstInstance(diamond.graph, "r", frozenset())

    def test_sorted_terminals(self):
        g = DirectedMultigraph(
            ["r", "b", "a"], [("r", "a", 1.0), ("r", "b", 1.0)]
        )
        inst = DstInstance(g, "r", frozenset(["b", "a"]))
        assert inst.sorted_terminals() == ["a", "b"]


class TestEdgePath:
    def test_endpoints_and_cost(self, diamond):
        p = EdgePath(diamond.graph, (0, 1))
        assert p.source == "r"
        assert p.target == "t"
        assert p.cost() == pytest.approx(2.0)

    def test_mismatched_edges_rejected(self, diamond):
        with pytest.raises(ValueError):
            EdgePath(diamond.graph, (0, 3))

    def test_empty_path_rejected(self, diamond):
        with pytest.raises(ValueError):
            EdgePath(diamond.graph, ())


class TestUnitFlow:
    def test_diamond_has_two_disjoint_paths(self, diamond):
        value, cut = max_flow_unit(diamond.graph, "r", "t")
        assert value == 2
        assert len(cut) == 2

    def test_forbidding_an_edge_drops_to_one(self, diamond):
        value, _ = max_flow_unit(diamond.graph, "r", "t", restrict_to=[0, 2, 3])
        assert value == 1

    def test_single_edge_value_and_cut(self):
        g = DirectedMultigraph(["r", "t"], [("r", "t", 1.0)])
        value, cut = max_flow_unit(g, "r", "t")
        assert value == 1
        assert cut == frozenset([0])

    def test_parallel_edges_count_separately(self, parallel_pair):
        value, cut = max_flow_unit(parallel_pair.graph, "r", "t")
        assert value == 2
        assert cut == frozenset([0, 1])

    def test_restrict_to_subset(self, diamond):
        value, _ = max_flow_unit(diamond.graph, "r", "t", restrict_to=[0, 1])
        assert value == 1
        value, _ = max_flow_unit(diamond.graph, "r", "t", restrict_to=[0, 3])
        assert value == 0

    def test_disconnected_gives_zero_and_empty_cut(self):
        g = DirectedMultigraph([0, 1, 2], [(1, 2, 1.0)])
        value, cut = max_flow_unit(g, 0, 2)
        assert value == 0
        assert cut == frozenset()

    def test_shared_middle_edge_is_a_bottleneck(self):
        # two branches funnel through one edge, so only one disjoint path
        g = DirectedMultigraph(
            ["r", "a", "b", "c", "t"],
            [
                ("r", "a", 1.0),
                ("r", "b", 1.0),
                ("a", "c", 1.0),
                ("b", "c", 1.0),
                ("c", "t", 1.0),
            ],
        )
        value, cut = max_flow_unit(g, "r", "t")
        assert value == 1
        assert cut == frozenset([4])

    def test_same_source_sink_rejected(self, diamond):
        with pytest.raises(ValueError):
            max_flow_unit(diamond.graph, "r", "r")

    @given(small_digraphs())
    def test_matches_path_packing_oracle(self, gst):
        g, s, t = gst
        value, cut = max_flow_unit(g, s, t)
        assert value == path_packing_number(g, s, t)
        assert len(cut) == value or (value == 0 and len(cut) == 0)

    @given(small_digraphs())
    def test_cut_size_matches_min_cut_oracle(self, gst):
        g, s, t = gst
        value, _ = max_flow_unit(g, s, t)
        assert value == min_cut_size(g, s, t)

    @given(small_digraphs())
    def test_cut_actually_disconnects(self, gst):
        g, s, t = gst
        _, cut = max_flow_unit(g, s, t)
        remaining = set(range(g.num_edges)) - cut
        assert t not in reachable_set(g, s, restrict_to=remaining)

    @given(small_digraphs())
    def test_two_disjoint_agreement(self, gst):
        g, s, t = gst
        value, _ = max_flow_unit(g, s, t)
        assert (value >= 2) == has_two_disjoint_paths(g, s, t)

    @given(small_digraphs())
    def test_removing_an_edge_never_helps(self, gst):
        g, s, t = gst
        if g.num_edges == 0:
            return
        value, _ = max_flow_unit(g, s, t)
        for e in range(g.num_edges):
            dropped, _ = max_flow_unit(g, s, t, restrict_to=set(range(g.num_edges)) - {e})
            assert dropped <= value
            assert dropped >= value - 1


class TestReachability:
    def test_forward(self, diamond):
        assert reachable_set(diamond.graph, "r") == frozenset(["r", "a", "b", "t"])
        assert reachable_set(diamond.graph, "a") == frozenset(["a", "t"])

    def test_backward(self, diamond):
        assert reachable_set(diamond.graph, "t", "backward") == frozenset(
            ["r", "a", "b", "t"]
        )
        assert reachable_set(diamond.graph, "a", "backward") == frozenset(["r", "a"])

    def test_restricted(self, diamond):
        assert reachable_set(diamond.graph, "r", restrict_to=[0]) == frozenset(
            ["r", "a"]
        )

    def test_bad_direction_rejected(self, diamond):
        with pytest.raises(ValueError):
            reachable_set(diamond.graph, "r", "sideways")
