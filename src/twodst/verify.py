"""Feasibility certification, witnesses and reverse-delete.

Feasibility of a candidate subgraph is an exact integral check: two
edge-disjoint root-terminal paths exist iff the unit-capacity max flow
(`graph.max_flow_unit`) is at least 2. A failing subgraph gets a witness:
the first terminal (sorted) with a flow below 2, the first edge (by id)
whose loss cuts it off when its flow is 1, and the minimum cut of its flow.
`reverse_delete` prunes an edge set with the same max-flow test. The
module reads graphs and edge sets only; the probes of the paper's lemmas
on a fractional LP point live with the tests (`tests/oracles.py`).
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
    """Integral verdict for an edge set: flow >= 2 to every terminal."""
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
        if value >= 2 or witness is not None:
            continue
        # with a flow of 1 some edge cuts t off: the first one in id order
        edge = None if value == 0 else next(
            e for e in sorted(edge_ids)
            if max_flow_unit(g, instance.root, t, restrict_to=edge_ids - {e}, limit=1)[0] == 0)
        witness = (edge, t, cut)
    if witness is None:
        return FeasibilityReport(True, flows)
    return FeasibilityReport(False, flows, *witness)


def reverse_delete(instance: DstInstance, edges) -> frozenset:
    """Drop the costliest edges whose removal keeps every terminal
    2-connected from the root; one descending pass is enough because an
    edge that is needed never becomes droppable as the graph shrinks."""
    g = instance.graph
    terminals = instance.sorted_terminals()
    kept = set(edges)
    order = sorted(kept, key=lambda e: (-g.costs[e], -e))
    for e in order:
        trial = kept - {e}
        if all(
            max_flow_unit(g, instance.root, t, restrict_to=trial, limit=2)[0] >= 2
            for t in terminals
        ):
            kept = trial
    return frozenset(kept)
