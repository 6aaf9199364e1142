"""Linear relaxation of the embedded connectivity problem.

Variables, for a graph with edges e and a shallow tree with edges ê and
terminal set S:

* x_e        -- edge bought in the graph
* xh_ê       -- tree edge used by the embedding
* fh_(t,ê)   -- per-terminal flow on the tree, value >= 2 into t's group
* f_(ê,e)    -- graph flow realizing tree edge ê as a path between its
                endpoint labels, of value xh_ê
* ft_(t,ê,e) -- per-terminal share of f_(ê,e), of value fh_(t,ê); at most
                x_e may be used per graph edge across all tree edges, so
                the per-terminal paths are edge disjoint

Constraint families are tagged gst (tree flow), cong (graph flow with
congestion cap beta * x_e), and div (per-terminal copies capped by x_e).
All variables live in [0,1].

The model is stored as one CSR matrix (`indptr`, `indices`, `data`) with
per-row `sense`, `rhs` and family-code arrays, assembled with numpy one
family block at a time. The flow-conservation rows of every tree edge are
built once over graph-edge ids and then offset into the f columns (cong)
and into each terminal's ft columns (div). `LpModel.rows` rebuilds Python
row tuples from the arrays for export and inspection.

`LpModel.live` marks the columns the solver hands to HiGHS; the others
are fixed to 0, which loses no optimum. A column is dead by one of three
rules (write "below ê" for the subtree under ê's child node, and (u, v)
for ê's endpoint labels):

(a) fh_(t,ê) and ft_(t,ê,·) when no node labelled t lies below ê. Every
    node below ê then has a gst conservation row, so fh_(t,ê) = 0 in every
    feasible point, ft_(t,ê,·) is a circulation, and zeroing it keeps
    every row satisfied.
(b) xh_ê and f_(ê,·) when no terminal-labelled node lies below ê. By (a)
    no fh or ft column of ê stays, so zeroing them keeps every row
    satisfied and leaves x unchanged.
(c) f_(ê,e) and ft_(·,ê,e) for e = (a, b) when a is not reachable from u,
    v is not reachable from b, or b = u. Cutting the conservation rows
    around the vertices u cannot reach (or that cannot reach v) shows the
    edges crossing the cut carry 0 in every feasible point and the rest
    carry a circulation on dead edges only; edges into u carry 0 by the
    in(u) row. Zeroing them keeps every row satisfied. Edges leaving v stay
    live: v has no conservation row, so cycles through v may carry ft flow.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix

from .errors import ModelInconsistencyError, SizeLimitError
from .graph import DstInstance, reachable_set
from .shallow_tree import ShallowTree

DEFAULT_MAX_NONZEROS = 2_000_000

LE, EQ, GE = "<=", "=", ">="
_SENSE_DTYPE = "<U2"
FAMILIES = ("gst", "cong", "div")

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
LIMIT = "limit"


def congestion_parameter(depth: int, num_terminals: int, multiplier: float = 1.0) -> int:
    """Per-graph-edge cap on total tree-edge flow: ceil(mult * 2 * D * h^(1/D)).

    The tiny downward nudge keeps exact powers (e.g. 8^(1/3)) from being
    pushed to the next integer by float noise.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if num_terminals < 1:
        raise ValueError(f"terminal count must be >= 1, got {num_terminals}")
    if multiplier <= 0:
        raise ValueError(f"multiplier must be positive, got {multiplier}")
    value = multiplier * 2.0 * depth * num_terminals ** (1.0 / depth)
    return math.ceil(value - 1e-9)


class VarIndex:
    """Bijection between structured variable keys and dense indices.

    Layout: x block, then xh, then fh (terminal-major), then f (tree-edge
    major), then ft (terminal-major, then tree-edge). Terminals are taken
    in sorted order, so indices are stable for a fixed instance + tree.
    """

    def __init__(self, num_edges: int, num_tree_edges: int, terminals: Sequence):
        self.num_edges = num_edges
        self.num_tree_edges = num_tree_edges
        self.terminals = tuple(sorted(terminals))
        self._tpos = {t: k for k, t in enumerate(self.terminals)}
        m, te, h = num_edges, num_tree_edges, len(self.terminals)
        self._xhat0 = m
        self._fhat0 = m + te
        self._f0 = m + te + h * te
        self._ft0 = self._f0 + te * m
        self.total = self._ft0 + h * te * m

    def x(self, e: int) -> int:
        return e

    def xhat(self, tree_edge: int) -> int:
        return self._xhat0 + tree_edge

    def fhat(self, terminal, tree_edge: int) -> int:
        return self._fhat0 + self._tpos[terminal] * self.num_tree_edges + tree_edge

    def f(self, tree_edge: int, e: int) -> int:
        return self._f0 + tree_edge * self.num_edges + e

    def ft(self, terminal, tree_edge: int, e: int) -> int:
        return (
            self._ft0
            + self._tpos[terminal] * self.num_tree_edges * self.num_edges
            + tree_edge * self.num_edges
            + e
        )

    def name(self, index: int) -> str:
        m, te = self.num_edges, self.num_tree_edges
        if index < self._xhat0:
            return f"x_{index}"
        if index < self._fhat0:
            return f"xh_{index - self._xhat0}"
        if index < self._f0:
            k, ehat = divmod(index - self._fhat0, te)
            return f"fh_{self.terminals[k]}_{ehat}"
        if index < self._ft0:
            ehat, e = divmod(index - self._f0, m)
            return f"f_{ehat}_{e}"
        k, rest = divmod(index - self._ft0, te * m)
        ehat, e = divmod(rest, m)
        return f"ft_{self.terminals[k]}_{ehat}_{e}"

    def names(self) -> list[str]:
        return [self.name(i) for i in range(self.total)]


class FlatVarIndex:
    """Name-only index for models re-imported from an export."""

    def __init__(self, names: Sequence[str]):
        self._names = tuple(names)
        self.total = len(self._names)

    def name(self, index: int) -> str:
        return self._names[index]

    def names(self) -> list[str]:
        return list(self._names)


class LpRow(NamedTuple):
    cols: tuple[int, ...]
    coefs: tuple[float, ...]
    sense: str
    rhs: float
    family: str


@dataclass(frozen=True, eq=False)
class LpModel:
    """Constraint rows as one CSR matrix plus per-row sense, rhs and family.

    Row r has the terms `indices[indptr[r]:indptr[r+1]]` with coefficients
    `data[...]`, in the order the builder emitted them (not sorted), so the
    text export is stable. `sense` holds LE/EQ/GE strings and `family`
    indexes into `families`. `live` is the boolean column mask of the
    columns that may be nonzero (see the module docstring).
    """

    var_index: object
    objective: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    sense: np.ndarray
    rhs: np.ndarray
    family: np.ndarray
    families: tuple[str, ...]
    beta: Optional[float]
    live: np.ndarray

    @classmethod
    def from_rows(cls, var_index, objective, rows: Iterable[LpRow], beta=None) -> "LpModel":
        rows = list(rows)
        families = tuple(dict.fromkeys(r.family for r in rows))
        code = {f: k for k, f in enumerate(families)}
        lengths = [len(r.cols) for r in rows]
        return cls(
            var_index,
            np.asarray(objective, dtype=float),
            np.concatenate(([0], np.cumsum(lengths, dtype=np.int64))),
            np.array([j for r in rows for j in r.cols], dtype=np.int64),
            np.array([c for r in rows for c in r.coefs], dtype=float),
            np.array([r.sense for r in rows], dtype=_SENSE_DTYPE),
            np.array([r.rhs for r in rows], dtype=float),
            np.array([code[r.family] for r in rows], dtype=np.int32),
            families,
            beta,
            np.ones(var_index.total, dtype=bool),
        )

    @property
    def num_vars(self) -> int:
        return self.var_index.total

    @property
    def num_rows(self) -> int:
        return len(self.rhs)

    def nonzeros(self) -> int:
        return int(self.indptr[-1])

    def matrix(self) -> csr_matrix:
        return csr_matrix(
            (self.data, self.indices, self.indptr), shape=(self.num_rows, self.num_vars)
        )

    @property
    def rows(self) -> "RowView":
        return RowView(self)

    def family_rows(self, family: str) -> list[LpRow]:
        return [r for r in self.rows if r.family == family]


class RowView:
    """Read-only view of a model's rows as `LpRow`s of Python ints and floats.

    `len` reads the arrays; iteration builds one row at a time.
    """

    def __init__(self, model: LpModel):
        self._model = model

    def __len__(self) -> int:
        return self._model.num_rows

    def __iter__(self):
        m = self._model
        cols, coefs = tuple(m.indices.tolist()), tuple(m.data.tolist())
        ptr = m.indptr.tolist()
        return (
            LpRow(cols[a:b], coefs[a:b], sense, rhs, m.families[f])
            for a, b, sense, rhs, f in zip(
                ptr, ptr[1:], m.sense.tolist(), m.rhs.tolist(), m.family.tolist()
            )
        )


@dataclass(frozen=True)
class LpSolution:
    model: LpModel
    values: np.ndarray
    objective: float
    status: str
    max_violation: float = 0.0
    certificate: Optional[object] = None
    iterations: Optional[int] = None  # HiGHS iterations (nit)
    solved_shape: Optional[tuple[int, int, int]] = None  # rows, columns, nonzeros given to HiGHS

    # structured accessors; only valid when the model carries a VarIndex
    def x(self, e: int) -> float:
        return float(self.values[self.model.var_index.x(e)])

    def xhat(self, tree_edge: int) -> float:
        return float(self.values[self.model.var_index.xhat(tree_edge)])

    def fhat(self, terminal, tree_edge: int) -> float:
        return float(self.values[self.model.var_index.fhat(terminal, tree_edge)])

    def f(self, tree_edge: int, e: int) -> float:
        return float(self.values[self.model.var_index.f(tree_edge, e)])

    def ft(self, terminal, tree_edge: int, e: int) -> float:
        return float(self.values[self.model.var_index.ft(terminal, tree_edge, e)])


def projected_nonzeros(instance: DstInstance, tree: ShallowTree) -> int:
    """Exact nonzero count of the model, from degree sums alone."""
    g = instance.graph
    m = g.num_edges
    te = tree.num_edges
    h = instance.num_terminals
    deg = {v: len(g.in_edges(v)) + len(g.out_edges(v)) for v in g.vertices}
    total_deg = 2 * m

    count = 2 * h * te  # fh <= xh
    for t in tree.groups:
        group = tree.groups[t]
        for node in range(1, tree.num_nodes):
            if node not in group:
                count += 1 + len(tree.children[node])  # conservation row
        count += len(group)  # the >= 2 row
    count += 2 * te * m  # f <= x
    per_edge = 0
    for ehat in range(te):
        u, v = tree.edge_endpoints_labels(ehat)
        per_edge += len(g.out_edges(u)) + 1  # source out = xh
        per_edge += len(g.in_edges(u))  # source in = 0 (skipped if empty)
        per_edge += total_deg - deg[u] - deg[v]  # conservation elsewhere
    count += per_edge
    count += m * (te + 1)  # congestion cap
    count += 2 * h * te * m  # ft <= f
    count += h * per_edge  # per-terminal flow rows (fh column counts like xh)
    count += h * m * (te + 1)  # divergence cap
    return count


class _RowBlocks:
    """Rows collected block by block: per-row term counts, flat terms, and
    one sense, rhs and family per block. Rows with no terms are dropped."""

    def __init__(self):
        keys = ("lengths", "indices", "data", "sense", "rhs", "family")
        self.parts: dict[str, list] = {k: [] for k in keys}

    def add(self, lengths, cols, coefs, sense: str, rhs: float, family: int) -> None:
        lengths = np.asarray(lengths, dtype=np.int64)
        lengths = lengths[lengths > 0]
        self.parts["lengths"].append(lengths)
        self.parts["indices"].append(np.asarray(cols, dtype=np.int64))
        self.parts["data"].append(np.asarray(coefs, dtype=float))
        self.parts["sense"].append(np.full(len(lengths), sense, dtype=_SENSE_DTYPE))
        self.parts["rhs"].append(np.full(len(lengths), rhs, dtype=float))
        self.parts["family"].append(np.full(len(lengths), family, dtype=np.int32))

    def add_pairs(self, first, second, coefs, family: int) -> None:
        """One `first[i] * coefs[0] + second[i] * coefs[1] <= 0` row per i."""
        cols = np.stack([first, second], axis=1).ravel()
        self.add(np.full(len(first), 2), cols, np.tile(coefs, len(first)), LE, 0.0, family)

    def arrays(self):
        out = {k: np.concatenate(v) for k, v in self.parts.items()}
        out["indptr"] = np.concatenate(([0], np.cumsum(out.pop("lengths"))))
        return out


def _tree_conservation(tree: ShallowTree):
    """Per non-root node: in-edge minus child edges, over tree edge ids."""
    lengths, cols, coefs = [], [], []
    for node in range(1, tree.num_nodes):
        kids = [c - 1 for c in tree.children[node]]
        lengths.append(1 + len(kids))
        cols += [node - 1] + kids
        coefs += [1.0] + [-1.0] * len(kids)
    return np.array(lengths, dtype=np.int64), np.array(cols, dtype=np.int64), np.array(coefs)


def _graph_conservation(g, tree: ShallowTree):
    """Rows realizing each tree edge (u, v) as a unit u -> v graph flow.

    Per tree edge in order: out(u) minus the tree edge's own value, in(u),
    then in(w) minus out(w) for every other w except v, by str(w). Columns
    are local: `ehat * m + e` for graph edge e, `te * m + ehat` for the
    tree edge's value. Tree edges with the same endpoint labels share one
    template over graph edge ids, where column m stands for the value.
    """
    m, te = g.num_edges, tree.num_edges
    order = sorted(g.vertices, key=str)
    templates: dict = {}
    lengths, cols, coefs = [], [], []
    for ehat in range(te):
        ends = tree.edge_endpoints_labels(ehat)
        if ends not in templates:
            u, v = ends
            rows = [(list(g.out_edges(u)) + [m], [1.0] * len(g.out_edges(u)) + [-1.0]),
                    (list(g.in_edges(u)), [1.0] * len(g.in_edges(u)))]
            for w in order:
                if w != u and w != v:
                    ins, outs = g.in_edges(w), g.out_edges(w)
                    rows.append((list(ins) + list(outs), [1.0] * len(ins) + [-1.0] * len(outs)))
            rows = [r for r in rows if r[0]]
            templates[ends] = (
                [len(c) for c, _ in rows],
                np.array([j for c, _ in rows for j in c], dtype=np.int64),
                [a for _, c in rows for a in c],
            )
        t_lengths, t_cols, t_coefs = templates[ends]
        lengths += t_lengths
        cols.append(np.where(t_cols == m, te * m + ehat, ehat * m + t_cols))
        coefs += t_coefs
    return np.array(lengths, dtype=np.int64), np.concatenate(cols), np.array(coefs)


def live_columns(instance: DstInstance, tree: ShallowTree, idx: VarIndex) -> np.ndarray:
    """Mask of the columns rules (a)-(c) of the module docstring keep."""
    g = instance.graph
    te = tree.num_edges
    # below[node, k]: a node labelled terminal k lies in the node's subtree
    below = np.zeros((tree.num_nodes, len(idx.terminals)), dtype=bool)
    for k, t in enumerate(idx.terminals):
        below[list(tree.groups[t]), k] = True
    parents, depths = np.asarray(tree.parents), np.asarray(tree.depths)
    for depth in range(tree.depth, 0, -1):
        nodes = np.flatnonzero(depths == depth)
        np.logical_or.at(below, parents[nodes], below[nodes])
    fhat = below[1:].T  # (terminal, tree edge); tree edge ê ends at node ê + 1
    xhat = fhat.any(axis=0)

    # (c): one graph-edge mask per pair of endpoint labels
    masks: dict = {}
    per_edge = []
    for ehat in range(te):
        ends = tree.edge_endpoints_labels(ehat)
        if ends not in masks:
            u, v = ends
            from_u = reachable_set(g, u, "forward")
            to_v = reachable_set(g, v, "backward")
            masks[ends] = np.array(
                [a in from_u and b in to_v and b != u for a, b in zip(g.tails, g.heads)],
                dtype=bool,
            )
        per_edge.append(masks[ends])
    useful = np.array(per_edge, dtype=bool).reshape(te, g.num_edges)

    return np.concatenate([
        np.ones(g.num_edges, dtype=bool),
        xhat,
        fhat.ravel(),
        (xhat[:, None] & useful).ravel(),
        (fhat[:, :, None] & useful[None]).ravel(),
    ])


def build_lp(
    instance: DstInstance,
    tree: ShallowTree,
    beta: float,
    max_nonzeros: int = DEFAULT_MAX_NONZEROS,
) -> LpModel:
    g = instance.graph
    m = g.num_edges
    te = tree.num_edges
    idx = VarIndex(m, te, instance.terminals)

    projected = projected_nonzeros(instance, tree)
    if projected > max_nonzeros:
        raise SizeLimitError("model would be too large", projected, max_nonzeros)

    gst, cong, div = range(len(FAMILIES))
    blocks = _RowBlocks()
    edges = np.arange(m)
    tree_edges = np.arange(te)
    pairs = np.arange(te * m)  # (tree edge, graph edge) pairs, tree-edge major
    xhat = idx.xhat(0) + tree_edges

    # tree flow per terminal
    node_lengths, node_cols, node_coefs = _tree_conservation(tree)
    for t in idx.terminals:
        fhat = idx.fhat(t, 0) + tree_edges
        blocks.add_pairs(fhat, xhat, [1.0, -1.0], gst)
        keep = np.ones(te, dtype=bool)  # group nodes have no conservation row
        keep[[node - 1 for node in tree.groups[t]]] = False
        entries = np.repeat(keep, node_lengths)
        blocks.add(node_lengths[keep], fhat[node_cols[entries]], node_coefs[entries], EQ, 0.0, gst)
        group = fhat[tree.group_in_edges(t)]
        blocks.add([len(group)], group, np.ones(len(group)), GE, 2.0, gst)

    # graph flow realizing each tree edge, then the per-terminal copies;
    # a cap row per graph edge holds that edge's flow over all tree edges
    flow_lengths, flow_local, flow_coefs = _graph_conservation(g, tree)
    own_value = flow_local >= te * m

    def realize(flow0, bound_by, value0, cap_coef, family):
        flow = flow0 + pairs
        blocks.add_pairs(flow, bound_by, [1.0, -1.0], family)
        cols = np.where(own_value, value0 + flow_local - te * m, flow0 + flow_local)
        blocks.add(flow_lengths, cols, flow_coefs, EQ, 0.0, family)
        cap = np.empty((m, te + 1), dtype=np.int64)
        cap[:, :te] = flow.reshape(te, m).T
        cap[:, te] = edges
        coefs = np.tile([1.0] * te + [cap_coef], m)
        blocks.add(np.full(m, te + 1), cap.ravel(), coefs, LE, 0.0, family)

    realize(idx.f(0, 0), pairs % m, idx.xhat(0), -float(beta), cong)
    for t in idx.terminals:
        realize(idx.ft(t, 0, 0), idx.f(0, 0) + pairs, idx.fhat(t, 0), -1.0, div)

    arrays = blocks.arrays()
    objective = np.zeros(idx.total)
    objective[:m] = g.costs
    model = LpModel(var_index=idx, objective=objective, families=FAMILIES,
                    beta=float(beta), live=live_columns(instance, tree, idx), **arrays)
    built = model.nonzeros()
    if built != projected:
        raise ModelInconsistencyError(
            f"nonzero projection {projected} disagrees with built count {built}"
        )
    return model


def replay_constraints(model: LpModel, values: np.ndarray) -> float:
    """Max violation of any row or bound at the given point.

    Independent of the solver: multiplies the stored matrix by the point.
    """
    if len(values) != model.num_vars:
        raise ValueError(
            f"expected {model.num_vars} values, got {len(values)}"
        )
    worst = max(
        float(np.max(-values, initial=0.0)),
        float(np.max(values - 1.0, initial=0.0)),
    )
    residual = model.matrix() @ values - model.rhs
    violation = np.where(
        model.sense == LE, residual, np.where(model.sense == GE, -residual, np.abs(residual))
    )
    return max(worst, float(np.max(violation, initial=0.0)))


def _format_terms(cols, coefs, name_of) -> str:
    parts = []
    for j, c in zip(cols, coefs):
        sign = "-" if c < 0 else "+"
        parts.append(f"{sign} {abs(c)!r} {name_of(j)}")
    joined = " ".join(parts)
    return joined[2:] if joined.startswith("+ ") else joined


def export_lp(model: LpModel) -> str:
    """Plain-text interchange form; byte-identical for identical models."""
    name_of = model.var_index.name
    counters: dict[str, int] = {}
    lines = [
        f"\\ variables: {model.num_vars}",
        f"\\ rows: {model.num_rows}",
        "Minimize",
        " obj: " + (_format_terms(*_objective_terms(model), name_of) or "0"),
        "Subject To",
    ]
    for row in model.rows:
        k = counters.get(row.family, 0)
        counters[row.family] = k + 1
        sense = row.sense if row.sense != EQ else "="
        lines.append(
            f" {row.family}_{k}: {_format_terms(row.cols, row.coefs, name_of)} "
            f"{sense} {row.rhs!r}"
        )
    lines.append("Bounds")
    for j in range(model.num_vars):
        lines.append(f" 0 <= {name_of(j)} <= 1")
    lines.append("End")
    return "\n".join(lines) + "\n"


def _objective_terms(model: LpModel):
    cols = [j for j in range(model.num_vars) if model.objective[j] != 0.0]
    return cols, [float(model.objective[j]) for j in cols]


_TERM_RE = re.compile(r"([+-])?\s*([0-9.eE+-]+)\s+([A-Za-z_][\w]*)")


def _parse_terms(expr: str) -> dict[str, float]:
    out: dict[str, float] = {}
    pos = 0
    expr = expr.strip()
    while pos < len(expr):
        match = _TERM_RE.match(expr, pos)
        if not match:
            raise ValueError(f"cannot parse term at: {expr[pos:pos+30]!r}")
        sign, coef, name = match.groups()
        value = float(coef) * (-1.0 if sign == "-" else 1.0)
        out[name] = out.get(name, 0.0) + value
        pos = match.end()
        while pos < len(expr) and expr[pos] == " ":
            pos += 1
    return out


def parse_lp(text: str) -> LpModel:
    """Re-import the subset of the LP interchange format that export_lp
    writes: one row per line, named rows, [0,1] bounds."""
    section = None
    objective_terms: dict[str, float] = {}
    raw_rows: list[tuple[str, dict, str, float]] = []
    names: list[str] = []
    seen: set[str] = set()

    def note_names(terms):
        for n in terms:
            if n not in seen:
                seen.add(n)
                names.append(n)

    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("\\"):
            continue
        lowered = line.lower()
        if lowered in ("minimize", "subject to", "bounds", "end"):
            section = lowered
            continue
        if section == "minimize":
            _, _, expr = line.partition(":")
            objective_terms.update(_parse_terms(expr))
            note_names(objective_terms)
        elif section == "subject to":
            label, _, rest = line.partition(":")
            for sense in (LE, GE, "="):
                lhs, found, rhs = rest.partition(f" {sense} ")
                if found:
                    terms = _parse_terms(lhs)
                    note_names(terms)
                    family = label.strip().rsplit("_", 1)[0]
                    raw_rows.append((family, terms, sense, float(rhs)))
                    break
            else:
                raise ValueError(f"row without relation: {line!r}")
        elif section == "bounds":
            match = re.match(r"0\s*<=\s*([\w]+)\s*<=\s*1$", line)
            if not match:
                raise ValueError(f"unsupported bound line: {line!r}")
            note_names({match.group(1): 0.0})

    index = FlatVarIndex(names)
    pos = {n: j for j, n in enumerate(names)}
    objective = np.zeros(index.total)
    for n, c in objective_terms.items():
        objective[pos[n]] = c
    rows = (
        LpRow(
            tuple(pos[n] for n in terms),
            tuple(terms[n] for n in terms),
            EQ if sense == "=" else sense,
            rhs,
            family,
        )
        for family, terms, sense, rhs in raw_rows
    )
    return LpModel.from_rows(index, objective, rows)


def solution_to_json(solution: LpSolution) -> str:
    doc = {
        "objective": solution.objective,
        "status": solution.status,
        "values": {
            solution.model.var_index.name(j): float(solution.values[j])
            for j in range(solution.model.num_vars)
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def solution_values_from_json(model: LpModel, text: str) -> np.ndarray:
    """Escape hatch: accept an externally produced solution dump."""
    doc = json.loads(text)
    given = doc["values"] if "values" in doc else doc
    values = np.zeros(model.num_vars)
    missing = []
    for j in range(model.num_vars):
        name = model.var_index.name(j)
        if name in given:
            values[j] = float(given[name])
        else:
            missing.append(name)
    if missing:
        raise ValueError(f"solution dump lacks {len(missing)} variables, e.g. {missing[0]}")
    extras = set(given) - {model.var_index.name(j) for j in range(model.num_vars)}
    if extras:
        raise ValueError(f"solution dump has unknown variables, e.g. {sorted(extras)[0]}")
    return values
