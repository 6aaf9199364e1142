"""Feasibility certification, witnesses and reverse-delete.

Feasibility of a candidate subgraph is an exact integral check: two
edge-disjoint root-terminal paths exist iff the unit-capacity max flow
(`graph.max_flow_unit`) is at least 2. A failing subgraph gets a witness:
the terminal, the first edge (in ascending id order) whose loss cuts it off,
and a minimum cut. `reverse_delete` prunes an edge set with the same
max-flow test. The module reads graphs and edge sets only; the probes of
the paper's lemmas on a fractional LP point live with the tests
(`tests/oracles.py`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .graph import DstInstance, max_flow_unit, reachable_set


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
        if value == 0:
            witness = (None, t, cut)
        else:
            for e in sorted(edge_ids):
                rest = edge_ids - {e}
                if t not in reachable_set(g, instance.root, restrict_to=rest):
                    _, cut_e = max_flow_unit(g, instance.root, t, restrict_to=rest)
                    witness = (e, t, cut_e)
                    break
    if witness is None:
        return FeasibilityReport(all(v >= 2 for v in flows.values()), flows)
    return FeasibilityReport(False, flows, witness[0], witness[1], witness[2])


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
