import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twodst.errors import InfeasibleInstanceError, SizeLimitError
from twodst.exact import random_instance
from twodst.graph import DirectedMultigraph, DstInstance
from twodst.shallow_tree import build_shallow_tree

from oracles import (
    copy_of,
    enumerate_label_sequences,
    parent_edge,
    path_to_root,
    reachable_set,
    unpruned_tree,
)


def usable(inst) -> frozenset:
    """Vertices on some root-to-terminal walk."""
    g = inst.graph
    return frozenset(v for v in reachable_set(g, inst.root) if reachable_set(g, v) & inst.terminals)


def complete_instance(n, terminals):
    """All-pairs digraph on v0..v{n-1}, root v0, unit costs."""
    names = [f"v{i}" for i in range(n)]
    edges = [(a, b, 1.0) for a in names for b in names if a != b]
    return DstInstance(DirectedMultigraph(names, edges), "v0", frozenset(terminals))


class TestFrozenSizes:
    def test_four_vertices_depth_two(self, diamond):
        # per copy: a, b, t at depth 1, then a-t and b-t; r-a-b, r-t-a and
        # the like can reach no terminal and are not built
        tree = build_shallow_tree(diamond, 2)
        assert (tree.num_nodes, tree.num_edges) == (11, 10)
        assert {t: len(nodes) for t, nodes in tree.groups.items()} == {"t": 6}

    def test_pruning_is_a_noop_when_all_vertices_usable(self, diamond):
        assert usable(diamond) == diamond.graph.vertices
        pruned = build_shallow_tree(diamond, 2)
        assert set(pruned.labels) == diamond.graph.vertices

    def test_two_vertices_depth_one(self, parallel_pair):
        tree = build_shallow_tree(parallel_pair, 1)
        assert (tree.num_nodes, tree.num_edges) == (3, 2)
        assert tree.groups == {"t": frozenset([1, 2])}

    def test_depth_one_groups_are_root_children(self):
        inst = complete_instance(5, ["v3", "v4"])
        tree = build_shallow_tree(inst, 1)
        root_children = {node for node, parent in enumerate(tree.parents) if parent == 0}
        for t in inst.terminals:
            assert len(tree.groups[t]) == 2
            assert tree.groups[t] <= root_children

    def test_multicover_keeps_the_edges_a_graph_path_realizes(self, multicover):
        # per copy: 7 sets and 7 points at depth 1, each set's 4 points at
        # depth 2; a point reaches nothing and a set no other set, so the
        # 392-edge tree over every label sequence shrinks to 84 edges, and
        # with no 3-hop path in the graph depth 3 builds the same tree
        tree = build_shallow_tree(multicover, 2)
        assert tree.num_edges == 84
        deeper = build_shallow_tree(multicover, 3)
        assert (deeper.labels, deeper.depths, deeper.parents, deeper.groups) == (
            tree.labels, tree.depths, tree.parents, tree.groups)

    def test_a_huge_depth_stops_at_the_last_level_built(self, diamond):
        # no path of distinct labels in the diamond has three edges, so the
        # builder stops after level 2 and lists only the levels it built
        tree = build_shallow_tree(diamond, 3)
        deep = build_shallow_tree(diamond, 10**6)
        assert (deep.labels, deep.parents, deep.groups) == (tree.labels, tree.parents, tree.groups)
        assert deep.depth == 10**6
        assert len(deep.edge_levels) == max(deep.depths) == 2
        assert deep.edge_levels == tree.edge_levels


class TestStructure:
    @pytest.fixture
    def tree(self, diamond):
        return build_shallow_tree(diamond, 2)

    def test_root_record(self, tree):
        assert tree.labels[0] == "r"
        assert tree.depths[0] == 0
        assert tree.parents[0] == -1

    def test_sequence_property(self, tree):
        for node in range(tree.num_nodes):
            path_labels = [tree.labels[v] for v in path_to_root(tree, node)]
            assert len(path_labels) == len(set(path_labels))
            assert path_labels[-1] == "r"

    def test_depth_bounded(self, tree):
        assert max(tree.depths) == tree.depth == 2

    def test_parent_edge_consistency(self, tree):
        # tree edge e runs from node parents[e + 1] to node e + 1
        for e in range(tree.num_edges):
            rho = parent_edge(tree, e)
            assert tree.edge_parents[e] == (-1 if rho is None else rho)
            if rho is None:
                assert tree.parents[e + 1] == 0
            else:
                assert rho < e
                assert rho + 1 == tree.parents[e + 1]
                assert tree.depths[rho + 1] == tree.depths[e + 1] - 1

    def test_root_edges_are_depth_one(self, tree):
        for node in range(1, tree.num_nodes):
            if tree.parents[node] == 0:
                assert tree.depths[node] == 1
                assert parent_edge(tree, node - 1) is None

    def test_copies_are_isomorphic(self, tree):
        per_copy = {1: [], 2: []}
        for node in range(1, tree.num_nodes):
            path = path_to_root(tree, node)
            per_copy[copy_of(tree, node)].append(tuple(tree.labels[v] for v in path[:-1]))
        assert Counter(per_copy[1]) == Counter(per_copy[2])
        assert len(per_copy[1]) == len(per_copy[2]) == (tree.num_nodes - 1) // 2

    def test_breadth_first_ids(self, tree):
        assert list(tree.depths) == sorted(tree.depths)
        for node in range(1, tree.num_nodes):
            assert tree.parents[node] < node

    def test_group_in_edges_end_at_group(self, tree):
        for e in tree.group_in_edges("t"):
            assert tree.labels[e + 1] == "t"

    def test_edge_endpoints_labels(self, tree):
        e = tree.parents.index(0) - 1  # the root's first child
        parent_label, child_label = tree.edge_endpoints_labels(e)
        assert parent_label == "r"


class TestAgainstEnumeration:
    @given(
        n=st.integers(min_value=2, max_value=6),
        depth=st.integers(min_value=1, max_value=4),
        data=st.data(),
    )
    def test_node_count_matches_sequence_count(self, n, depth, data):
        h = data.draw(st.integers(min_value=1, max_value=n - 1))
        terminals = {f"v{i}" for i in range(n - h, n)}
        inst = complete_instance(n, terminals)
        tree = build_shallow_tree(inst, depth)
        seqs = enumerate_label_sequences([f"v{i}" for i in range(n)], "v0", depth)
        # built: sequences that end at a terminal, or are short enough to
        # append one that is not on them yet
        built = [s for s in seqs[1:]
                 if s[-1] in terminals or (len(s) <= depth and not terminals <= set(s))]
        expected = 1 + 2 * len(built)
        assert tree.num_nodes == expected

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


def _realizable(tree, graph) -> list[bool]:
    """Per node, whether a graph path takes each label on its root path
    to the next."""
    ok = [True] * tree.num_nodes
    for node in range(1, tree.num_nodes):
        parent = tree.parents[node]
        ok[node] = ok[parent] and tree.labels[node] in reachable_set(graph, tree.labels[parent])
    return ok


def _terminal_below(tree, terminals, among=None) -> list[bool]:
    """Per node, whether a terminal-labelled node lies in its subtree,
    counting only the nodes of the mask `among` (every node by default)."""
    among = among or [True] * tree.num_nodes
    below = [ok and label in terminals for ok, label in zip(among, tree.labels)]
    for node in range(tree.num_nodes - 1, 0, -1):
        below[tree.parents[node]] |= below[node]
    return below


def _check_kept_sets(inst, tree):
    """The tree keeps R^-(t) of each terminal and R(u) of the root and of
    each label with a node above depth D - 1, within the usable vertices."""
    g, keep = inst.graph, usable(inst)
    back = g.reversed()
    assert tree.behind == {t: reachable_set(back, t) & keep for t in inst.terminals}
    above = {label for label, d in zip(tree.labels, tree.depths) if d < tree.depth - 1}
    assert tree.ahead == {u: reachable_set(g, u) & keep for u in above | {inst.root}}


class TestOnlyWhatReachesATerminal:
    @settings(max_examples=60)
    @given(
        n=st.integers(min_value=3, max_value=7),
        extra=st.integers(min_value=0, max_value=6),
        depth=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10**6),
        data=st.data(),
    )
    def test_a_terminal_below_every_edge(self, n, extra, depth, seed, data):
        h = data.draw(st.integers(min_value=1, max_value=n - 1))
        inst = random_instance(n, 2 * h + extra, h, seed=seed)
        tree = build_shallow_tree(inst, depth)
        assert all(_terminal_below(tree, inst.terminals))
        assert all(_realizable(tree, inst.graph))
        _check_kept_sets(inst, tree)

    @settings(max_examples=30)
    @given(
        n=st.integers(min_value=3, max_value=6),
        extra=st.integers(min_value=0, max_value=5),
        depth=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=10**6),
        data=st.data(),
    )
    def test_the_full_tree_less_the_nodes_with_no_terminal_below(self, n, extra, depth, seed,
                                                                  data):
        # the full tree less the nodes under a step no graph path realizes,
        # and then less the nodes with no terminal below among the rest; same
        # breadth-first order, so the ids of what is built keep their
        # relative order
        h = data.draw(st.integers(min_value=1, max_value=n - 1))
        inst = random_instance(n, 2 * h + extra, h, seed=seed)
        full, tree = unpruned_tree(inst, depth), build_shallow_tree(inst, depth)
        below = _terminal_below(full, inst.terminals, _realizable(full, inst.graph))

        def sequences(t, nodes):
            return [(copy_of(t, v), tuple(t.labels[w] for w in reversed(path_to_root(t, v))))
                    for v in nodes]

        kept = [v for v in range(1, full.num_nodes) if below[v]]
        assert sequences(tree, range(1, tree.num_nodes)) == sequences(full, kept)
        p = len(usable(inst)) - 1
        assert full.num_nodes == 1 + 2 * sum(math.perm(p, k) for k in range(1, depth + 1))


class TestPruning:
    def test_vertex_off_all_terminal_walks_is_dropped(self):
        g = DirectedMultigraph(
            ["r", "a", "t", "z"],
            [("r", "a", 1.0), ("a", "t", 1.0), ("r", "t", 1.0), ("r", "z", 1.0)],
        )
        inst = DstInstance(g, "r", frozenset(["t"]))
        assert usable(inst) == frozenset(["r", "a", "t"])
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
            build_shallow_tree(diamond, 2, max_nodes=10)
        assert err.value.projected == 11
        assert err.value.cap == 10

    @pytest.mark.parametrize("n, terminals, depth", [(4, ["v3"], 2), (5, ["v3", "v4"], 3),
                                                     (6, ["v5"], 4)])
    def test_cap_at_the_size_builds_the_same_tree(self, n, terminals, depth):
        inst = complete_instance(n, terminals)
        tree = build_shallow_tree(inst, depth)
        same = build_shallow_tree(inst, depth, max_nodes=tree.num_nodes)
        assert (same.labels, same.depths, same.parents, same.groups) == (
            tree.labels, tree.depths, tree.parents, tree.groups)
        cap = tree.num_nodes - 1
        with pytest.raises(SizeLimitError) as err:
            build_shallow_tree(inst, depth, max_nodes=cap)
        assert err.value.projected == tree.num_nodes  # the last parent's children pass the cap

    @pytest.mark.parametrize("cap", [1, 5, 40, 300])
    def test_cap_trips_while_the_tree_grows(self, cap):
        # the full tree has 1 + 2 * (6 + 25 + 80 + 60) = 343 nodes; the
        # builder stops at the first parent whose children pass the cap
        inst = complete_instance(7, ["v6"])
        assert build_shallow_tree(inst, 4).num_nodes == 343
        with pytest.raises(SizeLimitError) as err:
            build_shallow_tree(inst, 4, max_nodes=cap)
        assert cap < err.value.projected <= cap + 6

    def test_depth_zero_rejected(self, diamond):
        with pytest.raises(ValueError, match="depth must be >= 1"):
            build_shallow_tree(diamond, 0)

    def test_large_depth_is_allowed(self, parallel_pair):
        # depth above log2(h) is fine; sequences just stay short
        tree = build_shallow_tree(parallel_pair, 5)
        assert tree.num_nodes == 3
