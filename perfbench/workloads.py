"""Seeded inputs for the benchmark workloads.

Every generator is a pure function of the seed it is given, so the same
`--seed` always yields the same instances. Why each workload exists:

planted-mid      planted random instances from `random_instance`. Their LPs
                 are integral, so rounding and verification are trivial and
                 HiGHS is most of the solve: the workload for solver-side
                 changes.
multicover-frac  set 2-multicover over F_2^3 (n=15, m=35, h=7) with cost
                 noise on the root->set arcs and permuted labels. The LPs stay
                 fractional (3.5 on the unperturbed instance, where OPT is 4),
                 Python model assembly, CSR conversion and replay outweigh
                 HiGHS, and rounding does real work.
small-suite      the `twodst bench` shape: small rooted instances read from
                 disk and solved by the pipeline and by `exact_2dst`, plus
                 bidirected rings with chords run through the pairwise
                 reductions. Solves are short, so fixed per-call cost
                 (rounding loop, max-flow checks, branch and bound,
                 reduction bookkeeping) carries the weight.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from twodst.exact import random_instance
from twodst.graph import DirectedMultigraph, DstInstance
from twodst.io import save_instance
from twodst.reductions import DssInstance

DEPTH = 2

# planted-mid samples each pass from a fixed pool per shape: the first
# seeds s = 0, 1, ... for which random_instance(n, m, h, seed=s) has every
# vertex on a root-terminal walk. The shallow tree is then never pruned, so
# all LPs of a shape have one size. Runs with different --seed share part of
# their instances, which keeps the spread between runs down to what the
# solver does. A few seeds hit a heavy tail in HiGHS, where the LP is solved
# only after minutes, which no run can absorb; they are left out by name,
# with what was measured, so the tail stays on record.
PLANTED_SHAPES = {  # (n, m, h): (instances per pass, pool size)
    (12, 40, 3): (12, 20),
    (12, 44, 4): (2, 3),
}
PLANTED_HEAVY_TAIL = {
    (12, 40, 3, 25): "one HiGHS solve still running after 400 s",
    (12, 44, 4, 58): "one HiGHS solve still running after 300 s",
}

MULTICOVER_VARIANTS = 6
MULTICOVER_NOISE = 0.05

# small-suite shapes follow scripts/gen_suite.py (n in 6..9, h in 1..3,
# m = 2h + 2..8) on a fixed schedule, so that runs differ in the graphs and
# not in how many large shapes they happened to draw
SMALL_SHAPES = [(n, h) for n in range(6, 10) for h in range(1, 4)]
SMALL_ROOTED = 24
RING_SIZES = (6, 7, 8)
RING_CHORDS = 2
# two terminals per ring: with a third, dss_vertex_via_dst solves rooted
# problems on vertex-split graphs whose LPs make HiGHS half of the pass, and
# the workload would stop isolating per-call cost
RING_TERMINALS = 2


@dataclass(frozen=True)
class Item:
    """One operation of a workload pass.

    kind is "rooted" (pipeline, plus exact_2dst when `exact` is set),
    "dss" or "dss_vertex" (pairwise reductions). Items with a `path` are
    read from disk by the operation itself.
    """

    name: str
    kind: str
    instance: object
    path: Optional[Path] = None
    exact: bool = False
    known_lp: Optional[float] = None
    known_opt: Optional[float] = None


def fully_usable(instance: DstInstance) -> bool:
    """Every vertex is reachable from the root and reaches some terminal."""
    g = instance.graph

    def closure(starts, step):
        seen, stack = set(starts), list(starts)
        while stack:
            for w in step(stack.pop()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    forward = closure([instance.root], lambda v: (g.heads[e] for e in g.out_edges(v)))
    backward = closure(instance.terminals, lambda v: (g.tails[e] for e in g.in_edges(v)))
    return len(forward & backward) == g.num_vertices


def planted_pool(shape) -> list[int]:
    n, m, h = shape
    _, size = PLANTED_SHAPES[shape]
    pool: list[int] = []
    for s in itertools.count():
        if len(pool) == size:
            return pool
        if (n, m, h, s) in PLANTED_HEAVY_TAIL:
            continue
        if fully_usable(random_instance(n, m, h, seed=s)):
            pool.append(s)


def planted_instances(seed: int) -> list[tuple[str, DstInstance]]:
    rng = np.random.default_rng((seed, 0x706C))
    out = []
    for shape, (count, _) in PLANTED_SHAPES.items():
        n, m, h = shape
        for s in sorted(rng.choice(planted_pool(shape), size=count, replace=False)):
            out.append((f"planted_n{n}_m{m}_h{h}_s{s}", random_instance(n, m, h, seed=int(s))))
    return out


def f2_points(k: int = 3) -> list[tuple[int, ...]]:
    return [p for p in itertools.product((0, 1), repeat=k) if any(p)]


def multicover_instance(rng=None, noise: float = MULTICOVER_NOISE) -> DstInstance:
    """Set 2-multicover over F_2^3 as a rooted instance.

    The root "v0" has an arc to one set vertex per nonzero a in F_2^3, the
    set {p != 0 : a.p = 1}; each set vertex has free arcs to its four point
    terminals. Two edge-disjoint paths to a point means two distinct sets
    covering it. With unit set costs the LP is 3.5 (every set at 1/2) and
    OPT is 4. Given an rng, set costs get multiplicative noise in
    [1 - noise, 1 + noise] and vertex names and edge order are permuted.
    """
    points = f2_points()
    names = [f"v{i}" for i in range(1, 2 * len(points) + 1)]
    if rng is not None:
        names = [names[i] for i in rng.permutation(len(names))]
    sets, terms = names[: len(points)], names[len(points) :]
    edges = []
    for i, a in enumerate(points):
        cost = 1.0 if rng is None else float(1.0 + rng.uniform(-noise, noise))
        edges.append(("v0", sets[i], cost))
        for j, p in enumerate(points):
            if sum(x * y for x, y in zip(a, p)) % 2 == 1:
                edges.append((sets[i], terms[j], 0.0))
    if rng is not None:
        edges = [edges[i] for i in rng.permutation(len(edges))]
    return DstInstance(DirectedMultigraph(["v0"] + names, edges), "v0", frozenset(terms))


def multicover_instances(seed: int) -> list[tuple[str, DstInstance]]:
    out = [("multicover_base", multicover_instance())]
    for k in range(1, MULTICOVER_VARIANTS):
        rng = np.random.default_rng((seed, 0x6D63, k))
        out.append((f"multicover_v{k}", multicover_instance(rng)))
    return out


def small_rooted_instances(seed: int) -> list[tuple[str, DstInstance]]:
    out = []
    for k in range(SMALL_ROOTED):
        n, h = SMALL_SHAPES[k % len(SMALL_SHAPES)]
        m = 2 * h + 2 + k % 7
        rng = np.random.default_rng((seed, 0x7373, k))
        inst = random_instance(n, m, h, seed=int(rng.integers(2**31)))
        out.append((f"rand_{k:02d}_n{n}_m{m}_h{h}", inst))
    return out


def ring_with_chords(n: int, chords: int, terminals: int, rng) -> DssInstance:
    """Bidirected n-ring plus bidirected chords, costs uniform in [1, 10].

    Every ordered vertex pair has two internally vertex-disjoint paths
    around the ring, so both pairwise variants are feasible.
    """
    vs = [f"u{i}" for i in range(n)]
    edges = []
    for i in range(n):
        j = (i + 1) % n
        edges.append((vs[i], vs[j], float(rng.uniform(1, 10))))
        edges.append((vs[j], vs[i], float(rng.uniform(1, 10))))
    for _ in range(chords):
        a, b = rng.choice(n, size=2, replace=False)
        edges.append((vs[a], vs[b], float(rng.uniform(1, 10))))
        edges.append((vs[b], vs[a], float(rng.uniform(1, 10))))
    picked = rng.choice(n, size=terminals, replace=False)
    return DssInstance(DirectedMultigraph(vs, edges), frozenset(vs[i] for i in picked))


def ring_instances(seed: int) -> list[tuple[str, DssInstance]]:
    out = []
    for n in RING_SIZES:
        rng = np.random.default_rng((seed, 0x7267, n))
        out.append((f"ring_n{n}", ring_with_chords(n, RING_CHORDS, RING_TERMINALS, rng)))
    return out


def build_items(workload: str, seed: int, data_dir: Path) -> list[Item]:
    """Generate a workload's pass; small-suite files are written to data_dir."""
    if workload == "planted-mid":
        return [Item(name, "rooted", inst) for name, inst in planted_instances(seed)]
    if workload == "multicover-frac":
        items = []
        for name, inst in multicover_instances(seed):
            base = name == "multicover_base"
            items.append(
                Item(name, "rooted", inst,
                     known_lp=3.5 if base else None, known_opt=4.0 if base else None)
            )
        return items
    if workload == "small-suite":
        data_dir.mkdir(parents=True, exist_ok=True)
        items = []
        for name, inst in small_rooted_instances(seed):
            path = data_dir / f"{name}.json"
            save_instance(inst, path)
            items.append(Item(name, "rooted", inst, path=path, exact=True))
        for name, inst in ring_instances(seed):
            path = data_dir / f"{name}.txt"
            save_instance(inst, path, fmt="text")
            items.append(Item(f"{name}_dss", "dss", inst, path=path))
            items.append(Item(f"{name}_dss_vertex", "dss_vertex", inst, path=path))
        return items
    raise ValueError(f"unknown workload {workload!r}")
