"""Solution container shared by the rounding, exact, and reduction paths."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .graph import DirectedMultigraph


@dataclass(frozen=True)
class SolutionSubgraph:
    """An edge subset of the input graph, with bookkeeping.

    `provenance` records, for edges produced by randomized rounding, the
    (iteration, tree edge, sample index) triple that first added the edge.
    Solutions from the exact solver or from reductions leave it empty.
    `meta` carries free-form run details (objective bounds, sub-costs).
    """

    edges: frozenset
    cost: float
    provenance: Mapping[int, tuple] = field(default_factory=dict)
    meta: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "edges", frozenset(self.edges))

    @classmethod
    def from_edges(cls, graph: DirectedMultigraph, edges, provenance=None, meta=None) -> "SolutionSubgraph":
        edges = frozenset(edges)
        return cls(
            edges=edges,
            cost=graph.total_cost(edges),
            provenance=dict(provenance or {}),
            meta=dict(meta or {}),
        )

    def to_json(self, graph: DirectedMultigraph) -> str:
        """Deterministic JSON dump with the `edge_list` expansion of `graph`;
        byte-identical for equal solutions."""
        doc: dict = {
            "cost": self.cost,
            "edges": sorted(self.edges),
            "edge_list": [
                {"id": e, "tail": graph.tails[e], "head": graph.heads[e], "cost": graph.costs[e]}
                for e in sorted(self.edges)
            ],
        }
        if self.provenance:
            doc["provenance"] = {
                str(e): list(self.provenance[e]) for e in sorted(self.provenance)
            }
        if self.meta:
            doc["meta"] = {k: self.meta[k] for k in sorted(self.meta)}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def save(self, path, graph: DirectedMultigraph) -> None:
        Path(path).write_text(self.to_json(graph))
