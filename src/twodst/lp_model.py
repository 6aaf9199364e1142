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

`build_lp` builds only the live part of the relaxation. It computes the
live-column mask first (rules (a)-(c) below), then emits only live terms:
the model holds the full relaxation's rows restricted to the live columns,
in the same row order and term order, and the rows left with no term are
not built. Each of those has rhs 0 with sense <= or =, so 0 satisfies it;
the builder checks this rather than assuming it, and it is the only code
that decides which rows survive the mask. The flow-conservation rows
of a tree edge (u, v) are built over the graph edges rule (c) keeps for
(u, v), only for tree edges whose xh (cong) or fh (div) column is live, and
offset into the f columns (cong) and each terminal's ft columns (div).
`VarIndex` still numbers every column of the full relaxation, so solution
vectors, rounding and the LP text export see the full variable set.

The model is stored as one CSR matrix (`indptr`, `indices`, `data`) with
per-row `sense`, `rhs` and family-code arrays. `LpModel.rows` rebuilds
Python row tuples from the arrays for export and inspection. Two counts
check its size: `projected_nonzeros` counts the full relaxation from degree
sums and caps `max_nonzeros` before anything is allocated, and
`live_nonzeros` counts the live model from the column mask and the degree
sums, separately from the builder; the built count must equal it exactly.

`LpModel.live` marks the live columns. A dead column sits in no row (the
`LpModel` constructor checks this) and is fixed to 0, which loses no
optimum: at a point whose dead columns are 0, each row of the full
relaxation is a row of the live model or a row that 0 satisfies. A column
is dead by one of three rules (write "below ê" for the subtree under ê's
child node, and (u, v) for ê's endpoint labels):

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

import math
from collections import Counter
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
    columns that may be nonzero (see the module docstring). No row holds a
    dead column: construction checks this and raises
    `ModelInconsistencyError` otherwise.
    """

    var_index: VarIndex
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

    def __post_init__(self):
        held = self.live[self.indices]
        if not held.all():
            term = int(np.argmin(held))
            row = int(np.searchsorted(self.indptr, term, side="right")) - 1
            raise ModelInconsistencyError(
                f"row {row} holds dead column {self.var_index.name(int(self.indices[term]))}"
            )

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
    """Exact nonzero count of the full model, from degree sums alone."""
    g = instance.graph
    m = g.num_edges
    te = tree.num_edges
    h = instance.num_terminals
    node_row = [1 + len(kids) for kids in tree.children]  # a node's conservation row

    count = 2 * h * te  # fh <= xh
    for group in tree.groups.values():
        count += sum(node_row[1:]) - sum(node_row[node] for node in group)
        count += len(group)  # the >= 2 row
    count += 2 * te * m  # f <= x
    # per tree edge (u, v): every graph edge sits in its tail's and its
    # head's row, out(u) also holds the value, and v has no row
    heads = Counter(tree.labels[1:])
    per_edge = te * (1 + 2 * m) - sum(
        k * (len(g.in_edges(v)) + len(g.out_edges(v))) for v, k in heads.items()
    )
    count += per_edge
    count += m * (te + 1)  # congestion cap
    count += 2 * h * te * m  # ft <= f
    count += h * per_edge  # per-terminal flow rows (fh column counts like xh)
    count += h * m * (te + 1)  # divergence cap
    return count


def live_nonzeros(instance: DstInstance, tree: ShallowTree, live: np.ndarray) -> int:
    """Exact nonzero count of the live model, from the column mask and the
    degree sums, independent of how `build_lp` emits the rows.

    A live flow column sits in the conservation rows of its edge's tail and
    head, except at v, which has no row; the tree edge's value closes the
    out(u) row. Every f <= x and cap row keeps its x column.
    """
    g = instance.graph
    m, te, h = g.num_edges, tree.num_edges, instance.num_terminals
    terminals = sorted(instance.terminals)
    _, xhat, fhat, flow, ft = np.split(live, np.cumsum([m, te, h * te, te * m]))
    fhat, flow, ft = fhat.reshape(h, te), flow.reshape(te, m), ft.reshape(h, te, m)
    nxh, nfh, nf, nft = (int(np.count_nonzero(a)) for a in (xhat, fhat, flow, ft))

    count = h * nxh + nfh  # fh <= xh
    parent_node = np.asarray(tree.parents[1:])
    for k, t in enumerate(terminals):
        has_row = np.ones(tree.num_nodes, dtype=np.int64)  # node conservation rows
        has_row[0] = 0
        has_row[list(tree.groups[t])] = 0
        # fh_(t, ê) sits in the rows of ê's child node and of its parent node
        count += (fhat[k] * (has_row[1:] + has_row[parent_node])).sum()
        count += fhat[k, tree.group_in_edges(t)].sum()  # the >= 2 row

    ends = _ends(g, tree)
    at_v = (ends.tails == ends.v[:, None]).astype(np.int64) + (ends.heads == ends.v[:, None])
    weight = 2 - at_v  # (tree edge, graph edge)
    count += te * m + nf + nxh + weight[flow].sum() + m + nf  # cong
    count += h * nf + nft + nfh + (ft.sum(axis=0) * weight).sum() + h * m + nft  # div
    return int(count)


class _RowBlocks:
    """Rows collected block by block, each block with one sense, rhs and
    family, then cut down to the live columns.

    Dead terms are left out, and so are the rows left with no term. A row
    that loses every term to the mask must be one that 0 satisfies; rows
    given with no term at all are dropped, as in the full model."""

    def __init__(self, live: np.ndarray):
        self.live = live
        self.lengths: list = []
        self.cols: list = []
        self.coefs: list = []
        self.blocks: list = []  # (sense, rhs, family) of each block

    def add(self, lengths, cols, coefs, sense: str, rhs: float, family: int) -> None:
        self.lengths.append(np.asarray(lengths, dtype=np.int64))
        self.cols.append(np.asarray(cols, dtype=np.int64))
        self.coefs.append(np.asarray(coefs, dtype=float))
        self.blocks.append((sense, rhs, family))

    def add_pairs(self, first, second, coefs, family: int) -> None:
        """One `first[i] * coefs[0] + second[i] * coefs[1] <= 0` row per i."""
        cols = np.stack([first, second], axis=1).ravel()
        self.add(np.full(len(first), 2), cols, np.tile(coefs, len(first)), LE, 0.0, family)

    def arrays(self):
        lengths, cols = np.concatenate(self.lengths), np.concatenate(self.cols)
        counts = [len(block) for block in self.lengths]
        senses, rhss, families = zip(*self.blocks)
        sense = np.repeat(np.array(senses, dtype=_SENSE_DTYPE), counts)
        rhs = np.repeat(np.array(rhss, dtype=float), counts)
        family = np.repeat(np.array(families, dtype=np.int32), counts)
        keep = self.live[cols]
        row_end = np.cumsum(lengths)
        kept = np.diff(np.concatenate(([0], np.cumsum(keep)))[row_end], prepend=0)
        emptied = np.flatnonzero((kept == 0) & (lengths > 0))
        s, r = sense[emptied], rhs[emptied]
        broken = emptied[np.where(s == LE, r < 0.0, np.where(s == GE, r > 0.0, r != 0.0))]
        if len(broken):
            raise ModelInconsistencyError(
                f"{len(broken)} row(s) that 0 violates have only dead columns, e.g. a "
                f"{FAMILIES[family[broken[0]]]} row {sense[broken[0]]} {rhs[broken[0]]}"
            )
        rows = kept > 0
        return {
            "indptr": np.concatenate(([0], np.cumsum(kept[rows]))),
            "indices": cols[keep],
            "data": np.concatenate(self.coefs)[keep],
            "sense": sense[rows],
            "rhs": rhs[rows],
            "family": family[rows],
        }


def _tree_conservation(tree: ShallowTree):
    """Per non-root node: in-edge minus child edges, over tree edge ids;
    child edges in id order, as `tree.children` lists them."""
    edges = np.arange(tree.num_edges)
    parents = np.asarray(tree.parents[1:], dtype=np.int64)  # of each edge's child node
    inner = parents > 0  # the root node has no row
    row = np.concatenate([edges + 1, parents[inner]])
    cols = np.concatenate([edges, edges[inner]])
    coefs = np.concatenate([np.ones(len(edges)), -np.ones(int(inner.sum()))])
    order = np.lexsort((cols, coefs < 0, row))
    return np.bincount(row, minlength=tree.num_nodes)[1:], cols[order], coefs[order]


class _Ends(NamedTuple):
    """Positions, among the vertices sorted by str, of every graph edge's
    tail and head and of every tree edge's endpoint labels (u, v)."""

    order: list
    tails: np.ndarray
    heads: np.ndarray
    u: np.ndarray
    v: np.ndarray


def _ends(g, tree: ShallowTree) -> _Ends:
    order = sorted(g.vertices, key=str)
    pos = {w: k for k, w in enumerate(order)}
    labels = np.array([pos[w] for w in tree.labels], dtype=np.int64)
    return _Ends(
        order,
        np.array([pos[a] for a in g.tails], dtype=np.int64),
        np.array([pos[b] for b in g.heads], dtype=np.int64),
        labels[np.asarray(tree.parents[1:], dtype=np.int64)],
        labels[1:],
    )


class LiveColumns(NamedTuple):
    """The live columns by rules (a)-(c) of the module docstring, per block."""

    fhat: np.ndarray  # (terminal, tree edge)
    xhat: np.ndarray  # (tree edge,)
    useful: np.ndarray  # (tree edge, graph edge): rule (c) keeps the pair

    @property
    def flow(self) -> np.ndarray:
        """Live f columns, (tree edge, graph edge)."""
        return self.xhat[:, None] & self.useful

    def mask(self) -> np.ndarray:
        """The mask over all columns, in `VarIndex` order."""
        return np.concatenate([
            np.ones(self.useful.shape[1], dtype=bool),
            self.xhat,
            self.fhat.ravel(),
            self.flow.ravel(),
            (self.fhat[:, :, None] & self.useful[None]).ravel(),
        ])


def live_columns(instance: DstInstance, tree: ShallowTree, idx: VarIndex) -> LiveColumns:
    """The columns rules (a)-(c) of the module docstring keep."""
    g = instance.graph
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

    # (c): reach[i, j] when vertex j is reachable from vertex i, one forward
    # search per vertex; column j holds the vertices that reach j
    ends = _ends(g, tree)
    pos = {w: k for k, w in enumerate(ends.order)}
    reach = np.zeros((len(pos), len(pos)), dtype=bool)
    for k, w in enumerate(ends.order):
        reach[k, [pos[x] for x in reachable_set(g, w, "forward")]] = True
    u, v = ends.u[:, None], ends.v[:, None]
    useful = reach[u, ends.tails] & reach[ends.heads, v] & (ends.heads != u)
    return LiveColumns(fhat, xhat, useful)


class _FlowRows(NamedTuple):
    lengths: np.ndarray
    cols: np.ndarray  # local: ehat * m + e, or te * m + ehat for the value
    coefs: np.ndarray
    row_edge: np.ndarray  # the tree edge of each row


def _graph_conservation(g, tree: ShallowTree, useful: np.ndarray, carried: np.ndarray) -> _FlowRows:
    """Rows realizing each tree edge in `carried` as a unit u -> v graph flow
    over its useful graph edges.

    Per tree edge in order: out(u) minus the tree edge's own value, in(u),
    then in(w) minus out(w) for every other w except v, by str(w), each over
    the useful edges in edge-list order; rows left with no term are not
    built. Columns are local: `ehat * m + e` for graph edge e, `te * m +
    ehat` for the tree edge's value.
    """
    te, m = useful.shape
    ends = _ends(g, tree)
    # one slot per (vertex, incident edge): in(w), then out(w), w in order
    edge = np.array([e for w in ends.order for e in g.in_edges(w) + g.out_edges(w)],
                    dtype=np.int64)
    vertex = np.repeat(np.arange(len(ends.order)),
                       [len(g.in_edges(w)) + len(g.out_edges(w)) for w in ends.order])
    out = ends.tails[edge] == vertex
    k = len(carried)
    u, v = ends.u[carried, None], ends.v[carried, None]
    at_u = vertex == u
    # per tree edge, one row per rank: out(u), in(u), then 2 + w's position;
    # the value is one more slot, last in the out(u) row
    take = np.hstack([useful[carried][:, edge] & (vertex != v), np.ones((k, 1), dtype=bool)])
    rank = np.hstack([np.where(at_u, np.where(out, 0, 1), vertex + 2), np.zeros((k, 1), dtype=int)])
    coefs = np.hstack([np.where(out & ~at_u, -1.0, 1.0), np.full((k, 1), -1.0)])
    cols = np.hstack([carried[:, None] * m + edge, te * m + carried[:, None]])
    slots = take.shape[1]
    order = np.argsort(rank * slots + np.arange(slots), axis=1)
    take, rank, coefs, cols = (np.take_along_axis(a, order, axis=1)
                               for a in (take, rank, coefs, cols))
    row = (np.arange(k)[:, None] * (len(ends.order) + 2) + rank)[take]
    starts = np.flatnonzero(np.diff(row, prepend=-1))
    return _FlowRows(
        np.diff(np.append(starts, len(row))),
        cols[take],
        coefs[take],
        carried[row[starts] // (len(ends.order) + 2)],
    )


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

    live = live_columns(instance, tree, idx)
    mask = live.mask()
    gst, cong, div = range(len(FAMILIES))
    blocks = _RowBlocks(mask)
    tree_edges = np.arange(te)
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

    # graph flow realizing each tree edge, then the per-terminal copies; a
    # cap row per graph edge holds that edge's flow over all tree edges.
    # The f <= x rows keep their x column for every (tree edge, graph edge)
    # pair; past them only live pairs are visited, as every other row of a
    # dead pair holds dead columns only.
    flow = live.flow
    pairs = np.flatnonzero(flow)  # tree-edge major
    by_edge = np.flatnonzero(flow.T)  # the same pairs, graph-edge major
    cap_lengths = flow.sum(axis=0) + 1
    is_x = np.zeros(len(pairs) + m, dtype=bool)
    is_x[np.cumsum(cap_lengths) - 1] = True  # x_e closes edge e's cap row
    cap = np.empty(len(is_x), dtype=np.int64)
    cap[~is_x] = (by_edge % te) * m + by_edge // te
    cap[is_x] = np.arange(m)
    conservation = _graph_conservation(g, tree, live.useful, np.flatnonzero(live.xhat))
    own_value = conservation.cols >= te * m

    def realize(flow0, pair_rows, bound_by, value0, cap_coef, family, carried):
        blocks.add_pairs(flow0 + pair_rows, bound_by, [1.0, -1.0], family)
        rows = carried[conservation.row_edge]
        entries = np.repeat(rows, conservation.lengths)
        cols = np.where(own_value, value0 + conservation.cols - te * m, flow0 + conservation.cols)
        blocks.add(conservation.lengths[rows], cols[entries], conservation.coefs[entries],
                   EQ, 0.0, family)
        blocks.add(cap_lengths, np.where(is_x, cap, flow0 + cap), np.where(is_x, cap_coef, 1.0),
                   LE, 0.0, family)

    every = np.arange(te * m)
    realize(idx.f(0, 0), every, every % m, idx.xhat(0), -float(beta), cong, live.xhat)
    for k, t in enumerate(idx.terminals):
        realize(idx.ft(t, 0, 0), pairs, idx.f(0, 0) + pairs, idx.fhat(t, 0), -1.0, div,
                live.fhat[k])

    arrays = blocks.arrays()
    objective = np.zeros(idx.total)
    objective[:m] = g.costs
    model = LpModel(var_index=idx, objective=objective, families=FAMILIES,
                    beta=float(beta), live=mask, **arrays)
    built, expected = model.nonzeros(), live_nonzeros(instance, tree, mask)
    if built != expected:
        raise ModelInconsistencyError(
            f"live nonzero count {expected} disagrees with built count {built}"
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

