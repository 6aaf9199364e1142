from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

import twodst.shallow_tree as shallow_tree
from twodst.errors import InfeasibleInstanceError, ModelInconsistencyError, SizeLimitError
from twodst.graph import DirectedMultigraph, DstInstance
from twodst.shallow_tree import (
    build_shallow_tree,
    projected_node_count,
    usable_vertices,
)

from oracles import enumerate_label_sequences


def complete_instance(n, terminals):
    """All-pairs digraph on v0..v{n-1}, root v0, unit costs."""
    names = [f"v{i}" for i in range(n)]
    edges = [(a, b, 1.0) for a in names for b in names if a != b]
    return DstInstance(DirectedMultigraph(names, edges), "v0", frozenset(terminals))


class TestFrozenSizes:
    def test_four_vertices_depth_two(self, diamond):
        tree = build_shallow_tree(diamond, 2)
        assert (tree.num_nodes, tree.num_edges) == (19, 18)
        assert {t: len(nodes) for t, nodes in tree.groups.items()} == {"t": 6}

    def test_pruning_is_a_noop_when_all_vertices_usable(self, diamond):
        assert usable_vertices(diamond) == diamond.graph.vertices
        pruned = build_shallow_tree(diamond, 2)
        assert set(pruned.labels) == diamond.graph.vertices
        assert pruned.num_nodes == projected_node_count(diamond.graph.num_vertices, 2)

    def test_two_vertices_depth_one(self, parallel_pair):
        tree = build_shallow_tree(parallel_pair, 1)
        assert (tree.num_nodes, tree.num_edges) == (3, 2)
        assert tree.groups == {"t": frozenset([1, 2])}

    def test_depth_one_groups_are_root_children(self):
        inst = complete_instance(5, ["v3", "v4"])
        tree = build_shallow_tree(inst, 1)
        root_children = set(tree.children[0])
        for t in inst.terminals:
            assert len(tree.groups[t]) == 2
            assert tree.groups[t] <= root_children


class TestStructure:
    @pytest.fixture
    def tree(self, diamond):
        return build_shallow_tree(diamond, 2)

    def test_root_record(self, tree):
        assert tree.labels[0] == "r"
        assert tree.depths[0] == 0
        assert tree.parents[0] == -1
        assert tree.copies[0] == 0

    def test_sequence_property(self, tree):
        for node in range(tree.num_nodes):
            path_labels = [tree.labels[v] for v in tree.path_to_root(node)]
            assert len(path_labels) == len(set(path_labels))
            assert path_labels[-1] == "r"

    def test_depth_bounded(self, tree):
        assert max(tree.depths) == tree.depth == 2

    def test_parent_edge_consistency(self, tree):
        for e in range(tree.num_edges):
            rho = tree.parent_edge(e)
            if rho is None:
                assert tree.edge_parent_node(e) == 0
            else:
                assert rho < e
                assert tree.edge_child(rho) == tree.edge_parent_node(e)
                assert tree.edge_depth(rho) == tree.edge_depth(e) - 1

    def test_root_edges_are_depth_one(self, tree):
        for e in tree.root_edges():
            assert tree.edge_depth(e) == 1
            assert tree.parent_edge(e) is None

    def test_copies_are_isomorphic(self, tree):
        per_copy = {1: [], 2: []}
        for node in range(1, tree.num_nodes):
            path = tree.path_to_root(node)
            per_copy[tree.copies[node]].append(tuple(tree.labels[v] for v in path[:-1]))
        assert Counter(per_copy[1]) == Counter(per_copy[2])
        assert len(per_copy[1]) == len(per_copy[2]) == (tree.num_nodes - 1) // 2

    def test_breadth_first_ids(self, tree):
        assert list(tree.depths) == sorted(tree.depths)
        for node in range(1, tree.num_nodes):
            assert tree.parents[node] < node

    def test_group_in_edges_end_at_group(self, tree):
        for e in tree.group_in_edges("t"):
            assert tree.labels[tree.edge_child(e)] == "t"

    def test_edge_endpoints_labels(self, tree):
        e = tree.root_edges()[0]
        parent_label, child_label = tree.edge_endpoints_labels(e)
        assert parent_label == "r"


class TestAgainstEnumeration:
    @given(
        n=st.integers(min_value=2, max_value=6),
        depth=st.integers(min_value=1, max_value=3),
    )
    def test_node_count_matches_sequence_count(self, n, depth):
        inst = complete_instance(n, [f"v{n-1}"])
        tree = build_shallow_tree(inst, depth)
        seqs = enumerate_label_sequences([f"v{i}" for i in range(n)], "v0", depth)
        expected = 1 + 2 * (len(seqs) - 1)
        assert tree.num_nodes == expected
        assert projected_node_count(n, depth) == expected

    @given(
        n=st.integers(min_value=2, max_value=5),
        depth=st.integers(min_value=1, max_value=3),
    )
    def test_group_sizes_match_sequence_count(self, n, depth):
        t = f"v{n-1}"
        inst = complete_instance(n, [t])
        tree = build_shallow_tree(inst, depth)
        seqs = enumerate_label_sequences([f"v{i}" for i in range(n)], "v0", depth)
        ending_at_t = sum(1 for s in seqs if len(s) > 1 and s[-1] == t)
        assert len(tree.groups[t]) == 2 * ending_at_t


class TestPruning:
    def test_vertex_off_all_terminal_walks_is_dropped(self):
        g = DirectedMultigraph(
            ["r", "a", "t", "z"],
            [("r", "a", 1.0), ("a", "t", 1.0), ("r", "t", 1.0), ("r", "z", 1.0)],
        )
        inst = DstInstance(g, "r", frozenset(["t"]))
        assert usable_vertices(inst) == frozenset(["r", "a", "t"])
        tree = build_shallow_tree(inst, 2)
        assert "z" not in set(tree.labels)

    def test_unreachable_terminal_is_an_error(self):
        g = DirectedMultigraph(["r", "t", "u"], [("r", "t", 1.0), ("u", "t", 1.0)])
        inst = DstInstance(g, "r", frozenset(["t", "u"]))
        with pytest.raises(InfeasibleInstanceError):
            build_shallow_tree(inst, 2)

    def test_root_without_outgoing_walks_is_an_error(self):
        g = DirectedMultigraph(["r", "t"], [("t", "r", 1.0)])
        inst = DstInstance(g, "r", frozenset(["t"]))
        with pytest.raises(InfeasibleInstanceError):
            build_shallow_tree(inst, 1)


class TestLimitsAndDump:
    def test_size_cap(self, diamond):
        with pytest.raises(SizeLimitError) as err:
            build_shallow_tree(diamond, 2, max_nodes=18)
        assert err.value.projected == 19
        assert err.value.cap == 18

    def test_node_count_disagreeing_with_projection_raises(self, diamond, monkeypatch):
        monkeypatch.setattr(shallow_tree, "projected_node_count", lambda n, depth: 20)
        with pytest.raises(ModelInconsistencyError, match="19 nodes .* projects 20"):
            build_shallow_tree(diamond, 2)

    def test_depth_zero_rejected(self, diamond):
        with pytest.raises(ValueError, match="depth must be >= 1"):
            build_shallow_tree(diamond, 0)

    def test_large_depth_is_allowed(self, parallel_pair):
        # depth above log2(h) is fine; sequences just stay short
        tree = build_shallow_tree(parallel_pair, 5)
        assert tree.num_nodes == 3
