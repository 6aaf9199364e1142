"""Feasibility certification, witnesses and reverse-delete.

Feasibility of a candidate subgraph is an exact integral check: two
edge-disjoint root-terminal paths exist iff the unit-capacity max flow
(`graph.max_flow_unit`) is at least 2. A failing subgraph gets a witness:
the first terminal (sorted) with a flow below 2, its flow's minimum cut
nearest the root, and that cut's one edge when the flow is 1. Pruning
(`reverse_delete`) keeps each terminal's flow and re-runs only the flows
that hold the edge it tries. The module reads graphs and edge sets only;
the probes of the paper's lemmas on a fractional LP point live with the
tests (`tests/oracles.py`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .graph import DstInstance, max_flow_unit


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    flows: dict  # terminal -> integral flow value
    witness_edge: Optional[int] = None
    witness_terminal: Optional[object] = None
    witness_cut: Optional[frozenset] = None

    def to_json(self) -> str:
        doc: dict = {
            "feasible": self.feasible,
            "flows": {str(t): v for t, v in sorted(self.flows.items(), key=lambda kv: str(kv[0]))},
        }
        if not self.feasible:
            doc["witness"] = {
                "edge": self.witness_edge,
                "terminal": str(self.witness_terminal),
                "cut": sorted(self.witness_cut or ()),
            }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def feasibility_report(instance: DstInstance, edge_ids) -> FeasibilityReport:
    """Integral verdict for an edge set, one flow per terminal: flow >= 2 to
    each. A witness edge is its flow's one-edge cut, nearest the root."""
    g = instance.graph
    edge_ids = frozenset(edge_ids)
    bad = [e for e in edge_ids if not (0 <= e < g.num_edges)]
    if bad:
        raise ValueError(f"edge ids outside the graph: {sorted(bad)[:3]}")
    flows: dict = {}
    witness = None
    for t in sorted(instance.terminals):
        value, cut = max_flow_unit(g, instance.root, t, restrict_to=edge_ids)
        flows[t] = value
        if value < 2 and witness is None:
            # a minimum cut has as many edges as the flow: one, or none
            witness = (min(cut, default=None), t, cut)
    if witness is None:
        return FeasibilityReport(True, flows)
    return FeasibilityReport(False, flows, *witness)


def reverse_delete(instance: DstInstance, edges) -> frozenset:
    """Drop the costliest edges whose removal keeps every terminal
    2-connected from the root; one descending pass is enough because an
    edge that is needed never becomes droppable as the graph shrinks.

    Each terminal keeps the edges of a flow of two in the kept set. A set
    that carries two edge-disjoint paths still carries them after losing an
    edge not on them, so a deletion re-runs only the terminals whose paths
    hold the edge, and decides as a check of every terminal would. An input
    short for some terminal comes back whole, as every subset is short too."""
    g = instance.graph
    kept = set(edges)
    paths: dict = {}  # terminal, in sorted order -> the edges of a flow of two
    for t in instance.sorted_terminals():
        value, paths[t] = max_flow_unit(g, instance.root, t, restrict_to=kept, limit=2)
        if value < 2:
            return frozenset(kept)
    for e in sorted(kept, key=lambda e: (-g.costs[e], -e)):
        kept.discard(e)
        rerun: dict = {}
        for t, held in paths.items():
            if e in held:
                value, rerun[t] = max_flow_unit(g, instance.root, t, restrict_to=kept, limit=2)
                if value < 2:
                    kept.add(e)
                    break
        else:
            paths.update(rerun)
    return frozenset(kept)
