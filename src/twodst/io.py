"""Instance file formats.

Two interchangeable formats:

* JSON: {"vertices": [...], "edges": [{"tail","head","cost"}, ...],
  "root": ..., "terminals": [...]}. Edge ids are assigned by array
  position. Omitting "root" makes it a pairwise (rootless) instance.
* line-oriented text: header ``p 2dst n m`` (or ``p 2dss n m`` for the
  rootless variant), then ``e tail head cost`` per edge, ``r root`` for
  the rooted variant, and one ``t terminal`` line per terminal. Blank
  lines and ``c ...`` comment lines are ignored. Vertex names are
  whitespace-free tokens; n must match the number of distinct names
  (isolated vertices are not representable).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .graph import DirectedMultigraph, DstInstance
from .reductions import DssInstance

Instance = Union[DstInstance, DssInstance]


def parse_instance_json(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("top-level JSON value must be an object")
    for key in ("vertices", "edges", "terminals"):
        if key not in doc:
            raise ValueError(f"missing required key {key!r}")
        if not isinstance(doc[key], list):
            raise ValueError(f"{key!r} must be a JSON list")
    edges = []
    for k, rec in enumerate(doc["edges"]):
        if not isinstance(rec, dict) or not {"tail", "head", "cost"} <= set(rec):
            raise ValueError(f"edge {k} must be an object with tail/head/cost")
        cost = rec["cost"]
        if not isinstance(cost, (int, float)) or isinstance(cost, bool):
            raise ValueError(f"edge {k} cost must be a number, got {cost!r}")
        edges.append((rec["tail"], rec["head"], float(cost)))
    root = doc.get("root")
    ids = doc["vertices"] + doc["terminals"] + [v for t, h, _ in edges for v in (t, h)]
    if root is not None:
        ids.append(root)
    # vertex ids are hashed and sorted together, so they share one type
    kinds = {type(v) for v in ids}
    if not kinds <= {str, int}:
        raise ValueError("vertex ids must be strings or integers")
    if len(kinds) > 1:
        raise ValueError("vertex ids must be all strings or all integers")
    graph = DirectedMultigraph(doc["vertices"], edges)
    terminals = frozenset(doc["terminals"])
    if root is not None:
        return DstInstance(graph, root, terminals)
    return DssInstance(graph, terminals)


def dump_instance_json(instance: Instance) -> str:
    g = instance.graph
    doc: dict = {
        "vertices": sorted(g.vertices),
        "edges": [
            {"tail": g.tails[e], "head": g.heads[e], "cost": g.costs[e]}
            for e in range(g.num_edges)
        ],
    }
    if isinstance(instance, DstInstance):
        doc["root"] = instance.root
    doc["terminals"] = sorted(instance.terminals)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse_instance_text(text: str) -> Instance:
    problem = None
    declared_n = declared_m = None
    edges: list[tuple[str, str, float]] = []
    root = None
    terminals: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tokens = line.split()
        tag = tokens[0]
        try:
            if tag == "p":
                if problem is not None:
                    raise ValueError("duplicate p line")
                if len(tokens) != 4 or tokens[1] not in ("2dst", "2dss"):
                    raise ValueError("expected `p 2dst n m` or `p 2dss n m`")
                problem = tokens[1]
                declared_n, declared_m = int(tokens[2]), int(tokens[3])
            elif tag == "e":
                if len(tokens) != 4:
                    raise ValueError("expected `e tail head cost`")
                edges.append((tokens[1], tokens[2], float(tokens[3])))
            elif tag == "r":
                if len(tokens) != 2:
                    raise ValueError("expected `r root`")
                if root is not None:
                    raise ValueError("duplicate r line")
                root = tokens[1]
            elif tag == "t":
                if len(tokens) != 2:
                    raise ValueError("expected `t terminal`")
                terminals.append(tokens[1])
            else:
                raise ValueError(f"unknown line tag {tag!r}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if problem is None:
        raise ValueError("missing p line")
    names = set()
    for tail, head, _ in edges:
        names.add(tail)
        names.add(head)
    if root is not None:
        names.add(root)
    names.update(terminals)
    if len(names) != declared_n:
        raise ValueError(
            f"header declares {declared_n} vertices but {len(names)} are named"
        )
    if len(edges) != declared_m:
        raise ValueError(f"header declares {declared_m} edges but {len(edges)} given")
    graph = DirectedMultigraph(names, edges)
    if problem == "2dst":
        if root is None:
            raise ValueError("2dst file needs an r line")
        return DstInstance(graph, root, frozenset(terminals))
    if root is not None:
        raise ValueError("2dss file must not have an r line")
    return DssInstance(graph, frozenset(terminals))


def dump_instance_text(instance: Instance) -> str:
    g = instance.graph
    kind = "2dst" if isinstance(instance, DstInstance) else "2dss"
    lines = [f"p {kind} {g.num_vertices} {g.num_edges}"]
    for e in range(g.num_edges):
        lines.append(f"e {g.tails[e]} {g.heads[e]} {g.costs[e]!r}")
    if isinstance(instance, DstInstance):
        lines.append(f"r {instance.root}")
    for t in sorted(instance.terminals, key=str):
        lines.append(f"t {t}")
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> Instance:
    """Dispatch on content: JSON if the first meaningful char is '{'."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_instance_json(text)
    return parse_instance_text(text)


def load_instance(path) -> Instance:
    return parse_instance(Path(path).read_text())


def save_instance(instance: Instance, path, fmt: str = "json") -> None:
    if fmt == "json":
        out = dump_instance_json(instance)
    elif fmt == "text":
        out = dump_instance_text(instance)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    Path(path).write_text(out)
