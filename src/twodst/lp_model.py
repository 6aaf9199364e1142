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
live columns first (rules (a) and (c) below), then emits only live terms:
the model holds the full relaxation's rows restricted to the live columns,
in the same row order and term order, less two kinds of row.

* Rows with no live term. By rule (a), t's gst row at a tree node with no
  t below holds dead fh_t columns only (0 = 0), so t gets node n's row only
  where t lies below n, outside t's group, and only with live fh_t terms
  (a dead one is a column fixed at 0). Graph-flow rows cover live pairs only.
* Rows that the box 0 <= x <= 1 implies: a row is built only where some
  point of the box violates it. Restricted to the live columns, those are
  the pair rows `fh <= xh`, `f <= x` and `ft <= f` whose bounded column
  (fh, f, ft) is dead, which read `-xh <= 0`, `-x <= 0` or `-f <= 0`, and
  the cap rows with no live flow term, which read `-beta * x_e <= 0` (cong)
  or `-x_e <= 0` (div). The builder emits these pair rows only for live
  bounded columns and these cap rows only for graph edges with a live f
  (cong) or a live ft of the terminal (div), so it never builds them.

Dropping a row that every point of the box satisfies leaves the feasible
set, and so every optimum and the LP value, as they are (the classic
presolve step of Andersen & Andersen, "Presolving in linear programming",
Math. Program. 71, 1995); only the vertex a solver returns among several
optima may move. The bounds stay on every column, so a replay of a point
against the rows and the bounds still covers the dropped rows.

`VarIndex` numbers the columns of the full relaxation by key arithmetic
only, and lists the live ones as ascending full numbers (`columns`): model
column j is full column `columns[j]`. The model, its objective, solution
vectors and the LP text export cover only those columns, and nothing of
the full relaxation's length is allocated; `LpSolution` reads 0.0 for a
dead key.

The model is stored as HiGHS's row-wise LP: one CSR matrix (`indptr`,
`indices`, `data`) over the model columns, with per-row `row_lower`,
`row_upper` and family-code arrays. Each row is the range of its activity,
(-inf, b] for a <= row, [b, inf) for a >= row and [b, b] for an = row.
`LpModel.rows` rebuilds Python row tuples, with their sense and rhs, from
the arrays for export and inspection. `max_nonzeros` caps the model where
its sizes are made: first tree edges x terminals, the span of the fh masks
and of the per-terminal passes; then `live_columns` counts the live
columns as it lists them, and `_RowBlocks` the terms as the builder emits
them, so the build stops at the first label pair, or the first block of
rows, that takes its count past the cap. No array of the builder is sized
tree edges x graph edges, and rule (c) searches each label pair's edges
within the sets the tree keeps, so nothing is kept per graph vertex.

Rows are in HiGHS's order: the builder emits them family by family in
blocks of one range, and `_RowBlocks.arrays` puts the = blocks (lower ==
upper) after all the others, stably. scipy's `linprog(method="highs")`
stacks its A_ub over A_eq in the same way, and HiGHS reads the model's
arrays as they are (see `lp_solver`). HiGHS's point and iteration count depend on the row order:
in build order, the point moved on all 14 planted-mid benchmark instances
at seed 1, and the iterations by -20% to +91%.

A dead column is fixed to 0, which loses no optimum: at a point whose dead
columns are 0, each row of the full relaxation is a row of the live model,
a row that 0 satisfies or a row that the box implies. Every xh column is
live, since the tree holds only edges with a terminal below them (see
`shallow_tree`). Every tree edge also has at least one live f column: the
tree holds an edge from u to v only where v is reachable from u, and the
first edge of a u -> v path is kept by rule (c) below. Another column is
dead by one of two rules (write "below ê" for the subtree under ê's child
node, and (u, v) for ê's endpoint labels):

(a) fh_(t,ê) and ft_(t,ê,·) when no node labelled t lies below ê. Every
    node below ê then has a gst conservation row, so fh_(t,ê) = 0 in every
    feasible point, ft_(t,ê,·) is a circulation, and zeroing it keeps
    every row satisfied.
(c) f_(ê,e) and ft_(·,ê,e) for e = (a, b) when a is not reachable from u,
    v is not reachable from b, or b = u. Cutting the conservation rows
    around the vertices u cannot reach (or that cannot reach v) shows the
    edges crossing the cut carry 0 in every feasible point and the rest
    carry a circulation on dead edges only; edges into u carry 0 by the
    full relaxation's in(u) row. Zeroing them keeps every row satisfied.
    Edges leaving v stay live: v has no conservation row, so cycles through
    v may carry ft flow.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix

from .errors import ModelInconsistencyError, SizeLimitError
from .graph import DirectedMultigraph, DstInstance, search
from .shallow_tree import ShallowTree

DEFAULT_MAX_NONZEROS = 2_000_000

LE, EQ, GE = "<=", "=", ">="
FAMILIES = ("gst", "cong", "div")

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
LIMIT = "limit"


def congestion_parameter(depth: int, num_terminals: int, multiplier: float = 1.0) -> int:
    """Per-graph-edge cap on total tree-edge flow: ceil(mult * 2 * D * h^(1/D)),
    floored at 1 (a tiny multiplier would otherwise give 0, which doubling
    never raises).

    The tiny downward nudge keeps exact powers (e.g. 8^(1/3)) from being
    pushed to the next integer by float noise.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if num_terminals < 1:
        raise ValueError(f"terminal count must be >= 1, got {num_terminals}")
    if not (0 < multiplier < math.inf):
        raise ValueError(f"multiplier must be positive and finite, got {multiplier}")
    value = multiplier * 2.0 * depth * num_terminals ** (1.0 / depth)
    return max(1, math.ceil(value - 1e-9))


class VarIndex:
    """Full numbers of the relaxation's columns, and the model's columns
    among them.

    Full layout, kept as key arithmetic only: x block, then xh, then fh
    (terminal-major), then f (tree-edge major), then ft (terminal-major,
    then tree-edge). Terminals are taken in sorted order, so numbers are
    stable for a fixed instance + tree. `columns` lists the live columns
    (`live_columns`) as ascending full numbers, block by block; model
    column j is full column `columns[j]`. The x and xh blocks are all live.
    """

    def __init__(self, terminals: Sequence, live_fh: np.ndarray, pairs: np.ndarray, m: int):
        self.terminals = tuple(sorted(terminals))
        self._tpos = {t: k for k, t in enumerate(self.terminals)}
        h, te = live_fh.shape
        self.num_edges = m
        self.num_tree_edges = te
        self._xhat0 = m
        self._fhat0 = m + te
        self._f0 = m + te + h * te
        self._ft0 = self._f0 + te * m
        self.columns = np.concatenate([
            np.arange(m + te),
            self._fhat0 + np.flatnonzero(live_fh),
            self._f0 + pairs,
            *(self.ft(t, 0, 0) + pairs[live_fh[k, pairs // m]]
              for k, t in enumerate(self.terminals)),
        ])

    def x(self, e):
        return e

    def xhat(self, tree_edge):
        return self._xhat0 + tree_edge

    def fhat(self, terminal, tree_edge):
        return self._fhat0 + self._tpos[terminal] * self.num_tree_edges + tree_edge

    def f(self, tree_edge, e):
        return self._f0 + tree_edge * self.num_edges + e

    def ft(self, terminal, tree_edge, e):
        return (
            self._ft0
            + self._tpos[terminal] * self.num_tree_edges * self.num_edges
            + tree_edge * self.num_edges
            + e
        )

    def positions(self, keys) -> np.ndarray:
        """Model column of each full number in `keys`, -1 for a dead one."""
        pos = np.searchsorted(self.columns, keys)
        return np.where(np.take(self.columns, pos, mode="clip") == keys, pos, -1)

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
    """Constraint rows as one CSR matrix plus per-row range and family.

    The columns are the model's columns (`var_index.columns`). Row r has
    the terms `indices[indptr[r]:indptr[r+1]]` with coefficients
    `data[...]`, in the order the builder emitted them (not sorted), so the
    text export is stable; the rows are in HiGHS's order (module
    docstring). Row r reads `row_lower[r] <= activity <= row_upper[r]`, and
    `family` indexes into `families`.
    """

    var_index: VarIndex
    objective: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray
    family: np.ndarray
    families: tuple[str, ...]
    beta: Optional[float]

    @property
    def num_vars(self) -> int:
        return len(self.var_index.columns)

    @property
    def num_rows(self) -> int:
        return len(self.row_upper)

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

    `len` reads the arrays; iteration builds one row at a time, with the
    sense and rhs of its range: LE, b for (-inf, b], GE, b for [b, inf) and
    EQ, b for [b, b].
    """

    def __init__(self, model: LpModel):
        self._model = model

    def __len__(self) -> int:
        return self._model.num_rows

    def __iter__(self):
        m = self._model
        cols, coefs = tuple(m.indices.tolist()), tuple(m.data.tolist())
        ptr = m.indptr.tolist()
        for a, b, lower, upper, f in zip(ptr, ptr[1:], m.row_lower.tolist(),
                                         m.row_upper.tolist(), m.family.tolist()):
            sense = LE if lower == -math.inf else GE if upper == math.inf else EQ
            yield LpRow(cols[a:b], coefs[a:b], sense, lower if sense == GE else upper,
                        m.families[f])


@dataclass(frozen=True)
class LpSolution:
    model: LpModel
    values: np.ndarray  # one per model column
    objective: float
    status: str
    max_violation: float = 0.0
    certificate: Optional[object] = None
    iterations: Optional[int] = None  # HiGHS iterations (nit)

    def at(self, keys) -> np.ndarray:
        """Values at full column numbers (see `VarIndex`); 0.0 for a dead one."""
        pos = self.model.var_index.positions(keys)
        return np.where(pos >= 0, self.values[pos], 0.0)

    def graph_flow(self, tree_edge: int) -> dict[int, float]:
        """{e: f_(ê,e)} over ê's live f columns, ascending: one run of columns."""
        idx, first = self.model.var_index, self.model.var_index.f(tree_edge, 0)
        lo, hi = np.searchsorted(idx.columns, [first, first + idx.num_edges])
        return dict(zip((idx.columns[lo:hi] - first).tolist(), self.values[lo:hi].tolist()))


class _RowBlocks:
    """Rows collected block by block over full column numbers, each block
    with one range [lower, upper] and family, then renumbered to the
    model's columns.

    The builder emits only live terms and only rows that hold one, so the
    model keeps every term and row it is given; a term on a dead column or
    a row with no term is a builder fault and raises. A block that takes
    the term count past `max_nonzeros` raises before it is kept."""

    def __init__(self, var_index: VarIndex, max_nonzeros: int):
        self.var_index = var_index
        self.max_nonzeros = max_nonzeros
        self.nonzeros = 0
        self.blocks: list = []  # (lower, upper, family, lengths, cols, coefs) of each block

    def add(self, lengths, cols, coefs, lower: float, upper: float, family: int) -> None:
        self.nonzeros += len(cols)
        if self.nonzeros > self.max_nonzeros:
            raise SizeLimitError("model would be too large", self.nonzeros, self.max_nonzeros)
        self.blocks.append((lower, upper, family, np.asarray(lengths, dtype=np.int64),
                            np.asarray(cols, dtype=np.int64), np.asarray(coefs, dtype=float)))

    def add_pairs(self, first, second, coefs, family: int) -> None:
        """One `first[i] * coefs[0] + second[i] * coefs[1] <= 0` row per i."""
        cols = np.stack([first, second], axis=1).ravel()
        self.add(np.full(len(first), 2), cols, np.tile(coefs, len(first)), -math.inf, 0.0, family)

    def arrays(self):
        # the = blocks after all the others: HiGHS's row order (module docstring)
        lowers, uppers, families, block_lengths, cols, coefs = zip(
            *sorted(self.blocks, key=lambda block: block[0] == block[1]))
        lengths = np.concatenate(block_lengths)
        pos = self.var_index.positions(np.concatenate(cols))
        dead, empty = np.count_nonzero(pos < 0), np.count_nonzero(lengths == 0)
        if dead or empty:
            raise ModelInconsistencyError(
                f"builder emitted {dead} term(s) on dead columns and {empty} row(s) with no term"
            )
        counts = [len(block) for block in block_lengths]
        return {
            "indptr": np.concatenate(([0], np.cumsum(lengths))),
            "indices": pos,
            "data": np.concatenate(coefs),
            "row_lower": np.repeat(np.array(lowers, dtype=float), counts),
            "row_upper": np.repeat(np.array(uppers, dtype=float), counts),
            "family": np.repeat(np.array(families, dtype=np.int32), counts),
        }


def _tree_conservation(tree: ShallowTree):
    """Per non-root node, named by its in-edge: in-edge minus child edges,
    over tree edge ids; child edges in ascending id order."""
    edges = np.arange(tree.num_edges)
    parents = tree.edge_parents
    inner = parents >= 0  # the root node has no row
    row = np.concatenate([edges, parents[inner]])
    cols = np.concatenate([edges, edges[inner]])
    coefs = np.concatenate([np.ones(len(edges)), -np.ones(int(inner.sum()))])
    order = np.lexsort((cols, coefs < 0, row))
    return row[order], cols[order], coefs[order]


class _Ends(NamedTuple):
    """The graph's vertices sorted by str, and the positions among them of
    every graph edge's tail and head and of every tree edge's endpoint
    labels (u, v)."""

    vertices: list
    tails: np.ndarray
    heads: np.ndarray
    u: np.ndarray
    v: np.ndarray


def _ends(instance: DstInstance, tree: ShallowTree) -> _Ends:
    g = instance.graph
    vertices = sorted(g.vertices, key=str)
    pos = {w: k for k, w in enumerate(vertices)}
    labels = np.array([pos[w] for w in tree.labels], dtype=np.int64)
    return _Ends(
        vertices,
        np.array([pos[a] for a in g.tails], dtype=np.int64),
        np.array([pos[b] for b in g.heads], dtype=np.int64),
        labels[np.asarray(tree.parents[1:], dtype=np.int64)],
        labels[1:],
    )


def live_columns(graph: DirectedMultigraph, tree: ShallowTree, ends: _Ends, max_nonzeros: int):
    """The live fh of rule (a) as a (terminal, tree edge) mask, and the live
    f of rule (c) as ascending pairs `ehat * m + e`; ft is live where both are.

    Rule (c) reads only a tree edge's label pair (u, v), so each label
    pair's kept graph edges are listed once, then repeated for its tree
    edges. A kept edge (a, b) has a in R(u), b in R^-(v) (the vertices u
    reaches, and that reach v) and b != u, so the kept edges are those with
    both ends in I = R(u) & R^-(v), less those into u. I is what a search
    from u reaches within R^-(v), as every vertex on a path from u to I
    reaches v; likewise it is what a search back from v reaches within
    R(u). Either search scans exactly the edges within I, so a pair costs
    the edges it scans. The tree holds R^-(v) when v is a terminal, so the
    pair searches from u; otherwise v lies above depth D and u above D - 1,
    so the tree holds R(u), and the pair searches back from v.

    Every live fh, f and ft column has its own two-term pair row (fh <= xh,
    f <= x, ft <= f), so twice their number is at most the model's
    nonzeros. That count grows as each list is made and raises
    `SizeLimitError` past `max_nonzeros`, before any list is repeated."""
    terminals = sorted(tree.groups)
    # below[node, k]: a node labelled terminal k lies in the node's subtree
    below = np.zeros((tree.num_nodes, len(terminals)), dtype=bool)
    for k, t in enumerate(terminals):
        below[list(tree.groups[t]), k] = True
    # tree edge ê runs from node edge_parents[ê] + 1 to node ê + 1
    for lo, hi in reversed(tree.edge_levels):
        np.logical_or.at(below, tree.edge_parents[lo:hi] + 1, below[lo + 1:hi + 1])
    live_fh = below[1:].T  # (terminal, tree edge)

    n, m, te = len(ends.vertices), len(ends.tails), len(ends.u)
    label_pairs = np.unique(ends.u * n + ends.v)
    pair_of = np.searchsorted(label_pairs, ends.u * n + ends.v)
    # a label pair's f and ft columns per kept edge: its tree edges and their live fh
    weights = np.bincount(pair_of, 1 + np.count_nonzero(live_fh, axis=0)).astype(np.int64)
    count, kept, heads = 2 * int(np.count_nonzero(live_fh)), [], graph.heads
    for u, v, weight in zip((label_pairs // n).tolist(), (label_pairs % n).tolist(),
                            weights.tolist()):
        u, v = ends.vertices[u], ends.vertices[v]
        if v in tree.behind:
            _, scanned = search(graph, u, inside=tree.behind[v])
        else:
            _, scanned = search(graph, v, backward=True, inside=tree.ahead[u])
        edges = sorted([e for e in scanned if heads[e] != u])
        count += 2 * weight * len(edges)
        if count > max_nonzeros:
            raise SizeLimitError("model would be too large", count, max_nonzeros)
        kept.append(edges)
    lengths = np.array([len(edges) for edges in kept])[pair_of]
    flat = itertools.chain.from_iterable(kept[p] for p in pair_of.tolist())
    return live_fh, np.repeat(np.arange(te) * m, lengths) + np.fromiter(flat, np.int64)


class _FlowRows(NamedTuple):
    lengths: np.ndarray
    cols: np.ndarray  # local: ehat * m + e, or te * m + ehat for the value
    coefs: np.ndarray
    row_edge: np.ndarray  # the tree edge of each row


def _graph_conservation(ends: _Ends, pairs: np.ndarray) -> _FlowRows:
    """Rows realizing each tree edge as a unit u -> v graph flow over its
    useful graph edges, given as the useful pairs `ehat * m + e`.

    Per tree edge in order: out(u) minus the tree edge's own value, then
    in(w) minus out(w) for every other w except v, by str(w), each over
    the useful edges in edge-list order, those into w before those out of
    w; rows left with no term are not built. Columns are local: `ehat * m
    + e` for graph edge e, `te * m + ehat` for the tree edge's value.
    Built from the useful pairs only: each pair is a term of its edge's
    head row and of its tail row, less those in v's row. A term is keyed
    by its row and its place in the row: e into w, m + e out of w, 2m for
    the value. One sort of the keys puts the terms in order, and each
    term's column and coefficient are read back off its key.
    """
    te, m = len(ends.u), len(ends.tails)
    ehat, e = np.divmod(pairs, m)
    w = np.concatenate([ends.heads[e], ends.tails[e]])
    ehat, place = np.tile(ehat, 2), np.concatenate([e, m + e])
    # per tree edge, row 0 is out(u) and row 1 + w's position is w's (no
    # edge into u is useful)
    rank = np.where(w == ends.u[ehat], 0, w + 1)
    per_edge, span = len(ends.vertices) + 1, 2 * m + 1
    terms = ((ehat * per_edge + rank) * span + place)[w != ends.v[ehat]]
    key = np.sort(np.concatenate([terms, np.arange(te) * per_edge * span + 2 * m]))
    row, place = np.divmod(key, span)
    ehat, rank = np.divmod(row, per_edge)
    value = place == 2 * m
    cols = np.where(value, te * m + ehat, ehat * m + place % m)
    # +1 into w and out of u (row 0); -1 out of any other w, and the value
    coefs = np.where((place < m) | ((rank == 0) & ~value), 1.0, -1.0)
    starts = np.flatnonzero(np.diff(row, prepend=-1))
    return _FlowRows(np.diff(np.append(starts, len(row))), cols, coefs, ehat[starts])


def build_lp(
    instance: DstInstance,
    tree: ShallowTree,
    beta: float,
    max_nonzeros: int = DEFAULT_MAX_NONZEROS,
) -> LpModel:
    g = instance.graph
    m = g.num_edges
    te = tree.num_edges
    # `live_columns`' fh masks and the per-terminal rows below span every
    # tree edge once per terminal, so te * h is capped first (h <= m)
    if te * instance.num_terminals > max_nonzeros:
        raise SizeLimitError("model would be too large", te * instance.num_terminals, max_nonzeros)
    ends = _ends(instance, tree)
    live_fh, pairs = live_columns(g, tree, ends, max_nonzeros)

    idx = VarIndex(instance.terminals, live_fh, pairs, m)
    gst, cong, div = range(len(FAMILIES))
    blocks = _RowBlocks(idx, max_nonzeros)
    tree_edges = np.arange(te)
    xhat = idx.xhat(0) + tree_edges

    # tree flow per terminal
    node_row, node_cols, node_coefs = _tree_conservation(tree)
    for k, t in enumerate(idx.terminals):
        fhat, live, group = idx.fhat(t, 0) + tree_edges, live_fh[k], tree.group_in_edges(t)
        blocks.add_pairs(fhat[live], xhat[live], [1.0, -1.0], gst)
        has_row = live.copy()  # node rows where t lies below, outside t's group
        has_row[group] = False
        entries = has_row[node_row] & live[node_cols]  # over the live fh only
        blocks.add(np.bincount(node_row[entries], minlength=te)[has_row],
                   fhat[node_cols[entries]], node_coefs[entries], 0.0, 0.0, gst)
        blocks.add([len(group)], fhat[group], np.ones(len(group)), 2.0, math.inf, gst)

    # graph flow realizing each tree edge, then the per-terminal copies; a
    # cap row per graph edge holds that edge's flow over all tree edges.
    # Only live pairs are visited: every other row of a dead pair holds dead
    # columns only, or is a pair or cap row that the box implies.
    by_edge = np.sort(pairs % m * te + pairs // m)  # the live pairs as e * te + ehat
    pair_tree_edge, by_edge_tree_edge = pairs // m, by_edge % te
    conservation = _graph_conservation(ends, pairs)
    own_value = conservation.cols >= te * m

    def realize(flow0, bound_by, value0, cap_coef, family, carried):
        own = pairs[carried[pair_tree_edge]]
        blocks.add_pairs(flow0 + own, bound_by(own), [1.0, -1.0], family)
        rows = carried[conservation.row_edge]
        entries = np.repeat(rows, conservation.lengths)
        cols = np.where(own_value, value0 + conservation.cols - te * m, flow0 + conservation.cols)
        blocks.add(conservation.lengths[rows], cols[entries], conservation.coefs[entries],
                   0.0, 0.0, family)
        # one cap row per graph edge with a carried pair: its flow terms,
        # then x_e; a cap row with no flow term reads -coef * x_e <= 0 and is
        # not built
        held = by_edge[carried[by_edge_tree_edge]]
        edges, counts = np.unique(held // te, return_counts=True)
        ends = np.cumsum(counts)
        blocks.add(counts + 1, np.insert(flow0 + held % te * m + held // te, ends, edges),
                   np.insert(np.ones(len(held)), ends, cap_coef), -math.inf, 0.0, family)

    realize(idx.f(0, 0), lambda own: own % m, idx.xhat(0), -float(beta), cong,
            np.ones(te, dtype=bool))
    for k, t in enumerate(idx.terminals):
        realize(idx.ft(t, 0, 0), lambda own: idx.f(0, 0) + own, idx.fhat(t, 0), -1.0, div,
                live_fh[k])

    arrays = blocks.arrays()
    objective = np.zeros(len(idx.columns))
    objective[:m] = g.costs  # the x block leads and is all live
    return LpModel(var_index=idx, objective=objective, families=FAMILIES,
                   beta=float(beta), **arrays)


def replay_constraints(model: LpModel, values: np.ndarray) -> float:
    """Max violation of any row or bound at the given point; infinite when
    a coordinate is not finite.

    Independent of the solver: multiplies the stored matrix by the point,
    and measures each column's bounds as the range [0, 1], as the rows are
    measured (`row_violations`).
    """
    if len(values) != model.num_vars:
        raise ValueError(
            f"expected {model.num_vars} values, got {len(values)}"
        )
    if not np.isfinite(values).all():
        return math.inf
    bounds = row_violations(values, 0.0, 1.0)
    rows = row_violations(model.matrix() @ values, model.row_lower, model.row_upper)
    return float(max(np.max(bounds, initial=0.0), np.max(rows, initial=0.0)))


def row_violations(activity, lower, upper) -> np.ndarray:
    """Each row activity's distance from its range [lower, upper]."""
    return np.maximum(lower - activity, 0.0) + np.maximum(activity - upper, 0.0)


def _format_terms(cols, coefs, name_of) -> str:
    parts = []
    for j, c in zip(cols, coefs):
        sign = "-" if c < 0 else "+"
        parts.append(f"{sign} {abs(c)!r} {name_of(j)}")
    joined = " ".join(parts)
    return joined[2:] if joined.startswith("+ ") else joined


def export_lp(model: LpModel) -> str:
    """Plain-text interchange form over the model's columns, named by key;
    byte-identical for identical models."""
    idx = model.var_index
    name_of = [idx.name(j) for j in idx.columns.tolist()].__getitem__
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
        lines.append(
            f" {row.family}_{k}: {_format_terms(row.cols, row.coefs, name_of)} "
            f"{row.sense} {row.rhs!r}"
        )
    lines.append("Bounds")
    for j in range(model.num_vars):
        lines.append(f" 0 <= {name_of(j)} <= 1")
    lines.append("End")
    return "\n".join(lines) + "\n"


def _objective_terms(model: LpModel):
    cols = np.flatnonzero(model.objective).tolist()
    return cols, model.objective[cols].tolist()
