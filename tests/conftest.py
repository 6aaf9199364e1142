import itertools
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from twodst.graph import DirectedMultigraph, DstInstance
from twodst.lp_model import build_lp, congestion_parameter
from twodst.shallow_tree import build_shallow_tree

# Hypothesis imports libcst while it explains a failure, and libcst warns
# about mypy_extensions on import; under `-W error` that warning turned a
# failing example into a pytest INTERNALERROR. Importing it here, with the
# warning ignored, keeps the normal failure report.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass

settings.register_profile(
    "default",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def diamond():
    """r -> {a, b} -> t, unit costs. The cheapest 2-connected solution is
    all four edges, cost 4."""
    g = DirectedMultigraph(
        ["r", "a", "b", "t"],
        [("r", "a", 1.0), ("a", "t", 1.0), ("r", "b", 1.0), ("b", "t", 1.0)],
    )
    return DstInstance(g, "r", frozenset(["t"]))


@pytest.fixture
def chain():
    """r -> a -> t: only one path, so two disjoint ones are impossible."""
    g = DirectedMultigraph(["r", "a", "t"], [("r", "a", 1.0), ("a", "t", 1.0)])
    return DstInstance(g, "r", frozenset(["t"]))


@pytest.fixture
def parallel_pair():
    """Two parallel r -> t edges of cost 1 each."""
    g = DirectedMultigraph(["r", "t"], [("r", "t", 1.0), ("r", "t", 1.0)])
    return DstInstance(g, "r", frozenset(["t"]))


@pytest.fixture
def multicover():
    """Set 2-multicover over F_2^3: the root buys one unit-cost set per
    nonzero a, the set {p != 0 : a.p = 1}, and each set reaches its four
    point terminals for free. The LP is 3.5 (every set at 1/2), OPT is 4,
    so rounding works on a fractional point."""
    points = [p for p in itertools.product((0, 1), repeat=3) if any(p)]
    sets = [f"s{i}" for i in range(len(points))]
    terms = [f"p{j}" for j in range(len(points))]
    edges = []
    for i, a in enumerate(points):
        edges.append(("r", sets[i], 1.0))
        for j, p in enumerate(points):
            if sum(x * y for x, y in zip(a, p)) % 2 == 1:
                edges.append((sets[i], terms[j], 0.0))
    return DstInstance(DirectedMultigraph(["r"] + sets + terms, edges), "r", frozenset(terms))


def _child_labeled(tree, node, label):
    for c in tree.children[node]:
        if tree.labels[c] == label:
            return c
    raise KeyError(label)


@pytest.fixture
def diamond_embedding(diamond):
    """Depth-2 model for the diamond plus a hand-built integral point.

    The point buys all four edges and routes copy 1 through a and copy 2
    through b: a feasible certificate the model must accept.
    """
    tree = build_shallow_tree(diamond, 2)
    beta = congestion_parameter(2, 1)
    model = build_lp(diamond, tree, beta)
    idx = model.var_index

    n_a1 = next(
        c for c in tree.children[0] if tree.labels[c] == "a" and tree.copies[c] == 1
    )
    n_b2 = next(
        c for c in tree.children[0] if tree.labels[c] == "b" and tree.copies[c] == 2
    )
    n_t1 = _child_labeled(tree, n_a1, "t")
    n_t2 = _child_labeled(tree, n_b2, "t")

    values = np.zeros(model.num_vars)
    for e in range(diamond.graph.num_edges):
        values[idx.x(e)] = 1.0
    # (tree edge, graph edge) pairs of the embedding; diamond edge order is
    # 0: r->a, 1: a->t, 2: r->b, 3: b->t
    for node, e in ((n_a1, 0), (n_t1, 1), (n_b2, 2), (n_t2, 3)):
        ehat = node - 1
        values[idx.xhat(ehat)] = 1.0
        values[idx.fhat("t", ehat)] = 1.0
        values[idx.f(ehat, e)] = 1.0
        values[idx.ft("t", ehat, e)] = 1.0
    return diamond, tree, model, values
