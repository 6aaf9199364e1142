import json

import pytest

from twodst.graph import DstInstance
from twodst.io import (
    dump_instance_json,
    dump_instance_text,
    load_instance,
    parse_instance,
    parse_instance_json,
    parse_instance_text,
    save_instance,
)
from twodst.reductions import DssInstance


class TestJson:
    def test_round_trip_rooted(self, diamond):
        back = parse_instance_json(dump_instance_json(diamond))
        assert isinstance(back, DstInstance)
        assert back.root == "r"
        assert back.terminals == frozenset(["t"])
        assert back.graph.num_edges == diamond.graph.num_edges
        for e in range(diamond.graph.num_edges):
            assert back.graph.edge(e) == diamond.graph.edge(e)

    def test_round_trip_pairwise(self, diamond):
        inst = DssInstance(diamond.graph, frozenset(["a", "t"]))
        back = parse_instance_json(dump_instance_json(inst))
        assert isinstance(back, DssInstance)
        assert back.terminals == frozenset(["a", "t"])

    def test_edge_ids_by_position(self):
        text = """{"vertices": ["r", "t"],
                   "edges": [{"tail": "r", "head": "t", "cost": 5},
                             {"tail": "r", "head": "t", "cost": 7}],
                   "root": "r", "terminals": ["t"]}"""
        inst = parse_instance_json(text)
        assert inst.graph.edge(0) == ("r", "t", 5.0)
        assert inst.graph.edge(1) == ("r", "t", 7.0)

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError, match="edges"):
            parse_instance_json('{"vertices": [], "terminals": []}')

    def test_malformed_edge_rejected(self):
        with pytest.raises(ValueError, match="edge 0"):
            parse_instance_json(
                '{"vertices": ["a", "b"], "edges": [{"tail": "a"}], '
                '"root": "a", "terminals": ["b"]}'
            )

    def test_not_json_rejected(self):
        with pytest.raises(ValueError, match="JSON"):
            parse_instance_json("{nope")

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"terminals": 5}, "'terminals' must be a JSON list"),
            ({"terminals": "t"}, "'terminals' must be a JSON list"),
            ({"vertices": {"r": 1, "t": 2}}, "'vertices' must be a JSON list"),
            ({"terminals": [["t"]]}, "strings or integers"),
            ({"root": 1.5}, "strings or integers"),
            ({"vertices": ["r", "t", True]}, "strings or integers"),
            ({"vertices": ["r", "t", 3]}, "all strings or all integers"),
            ({"edges": [{"tail": "r", "head": "t", "cost": True}]}, "edge 0 cost must be a number"),
            ({"edges": [{"tail": "r", "head": "t", "cost": "1"}]}, "edge 0 cost must be a number"),
        ],
    )
    def test_malformed_values_rejected(self, change, message):
        doc = {"vertices": ["r", "t"], "edges": [{"tail": "r", "head": "t", "cost": 1}],
               "root": "r", "terminals": ["t"], **change}
        with pytest.raises(ValueError, match=message):
            parse_instance_json(json.dumps(doc))

    def test_integer_vertex_ids(self):
        inst = parse_instance_json(
            '{"vertices": [0, 1], "edges": [{"tail": 0, "head": 1, "cost": 2}], '
            '"root": 0, "terminals": [1]}'
        )
        assert inst.graph.edge(0) == (0, 1, 2.0)

    @pytest.mark.parametrize("cost", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_cost_rejected(self, cost):
        text = ('{"vertices": ["r", "t"], "edges": [{"tail": "r", "head": "t", "cost": %s}], '
                '"root": "r", "terminals": ["t"]}' % cost)
        with pytest.raises(ValueError, match="not finite"):
            parse_instance_json(text)


class TestText:
    def test_parse_rooted(self):
        text = "\n".join(
            [
                "c a tiny instance",
                "p 2dst 4 4",
                "e r a 1.0",
                "e a t 1.0",
                "e r b 1.0",
                "e b t 1.0",
                "r r",
                "t t",
                "",
            ]
        )
        inst = parse_instance_text(text)
        assert isinstance(inst, DstInstance)
        assert inst.graph.num_vertices == 4
        assert inst.graph.edge(1) == ("a", "t", 1.0)

    def test_round_trip(self, diamond):
        back = parse_instance_text(dump_instance_text(diamond))
        assert back.root == diamond.root
        assert back.terminals == diamond.terminals
        for e in range(diamond.graph.num_edges):
            assert back.graph.edge(e) == diamond.graph.edge(e)

    def test_costs_survive_text_round_trip(self):
        from twodst.graph import DirectedMultigraph

        g = DirectedMultigraph(["r", "t"], [("r", "t", 0.1), ("r", "t", 1 / 3)])
        inst = DstInstance(g, "r", frozenset(["t"]))
        back = parse_instance_text(dump_instance_text(inst))
        assert back.graph.costs == g.costs

    @pytest.mark.parametrize("cost", ["nan", "inf", "-inf"])
    def test_non_finite_cost_rejected(self, cost):
        with pytest.raises(ValueError, match="not finite"):
            parse_instance_text(f"p 2dst 2 1\ne r t {cost}\nr r\nt t\n")

    def test_pairwise_header(self, diamond):
        inst = DssInstance(diamond.graph, frozenset(["a", "t"]))
        text = dump_instance_text(inst)
        assert text.splitlines()[0] == "p 2dss 4 4"
        back = parse_instance_text(text)
        assert isinstance(back, DssInstance)

    def test_vertex_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="declares 3 vertices"):
            parse_instance_text("p 2dst 3 1\ne r t 1.0\nr r\nt t\n")

    def test_edge_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="declares 2 edges"):
            parse_instance_text("p 2dst 2 2\ne r t 1.0\nr r\nt t\n")

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError, match="p line"):
            parse_instance_text("e r t 1.0\nr r\nt t\n")

    def test_duplicate_root_rejected(self):
        with pytest.raises(ValueError, match="duplicate r"):
            parse_instance_text("p 2dst 2 1\ne r t 1.0\nr r\nr r\nt t\n")

    def test_rootless_2dst_rejected(self):
        with pytest.raises(ValueError, match="r line"):
            parse_instance_text("p 2dst 2 1\ne a b 1.0\nt a\nt b\n")

    def test_rooted_2dss_rejected(self):
        with pytest.raises(ValueError, match="must not"):
            parse_instance_text("p 2dss 2 1\ne a b 1.0\nr a\nt a\nt b\n")

    def test_unknown_tag_reports_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_instance_text("p 2dst 2 1\nq nonsense\ne r t 1.0\nr r\nt t\n")


class TestDispatchAndFiles:
    def test_sniffs_json(self, diamond):
        assert isinstance(parse_instance(dump_instance_json(diamond)), DstInstance)

    def test_sniffs_text(self, diamond):
        assert isinstance(parse_instance(dump_instance_text(diamond)), DstInstance)

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_save_and_load(self, diamond, tmp_path, fmt):
        path = tmp_path / f"inst.{fmt}"
        save_instance(diamond, path, fmt=fmt)
        back = load_instance(path)
        assert back.root == "r"
        assert back.graph.num_edges == 4

    def test_unknown_format_rejected(self, diamond, tmp_path):
        with pytest.raises(ValueError):
            save_instance(diamond, tmp_path / "x", fmt="xml")
