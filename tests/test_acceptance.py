"""Acceptance gate: end-to-end quantitative checks at stated tolerances.

Each test prints one `[acceptance] name: PASS|FAIL` line. Together they
pin the guarantees the package is built around: the relaxation never
exceeds the exact optimum, the rounding pipeline produces verified
solutions with high probability, marking and path-sampling frequencies
match their target marginals, residual flow and slack bounds hold on
every solved relaxation, per-iteration cost stays within its budget,
the benchmark harness records optimality ratios, the reductions produce
verifiable outputs, and the feasibility verifier agrees with exhaustive
path enumeration.
"""

import csv
import itertools

import numpy as np
import pytest

from oracles import (
    flow_slack_violation,
    group_flow_lp,
    is_feasible_subset,
    reference_sample_path,
    residual_group_flow,
)
from twodst.cli import EXIT_OK, main
from twodst.errors import InfeasibleInstanceError
from twodst.exact import ExactConfig, exact_2dst, random_instance
from twodst.graph import DirectedMultigraph, DstInstance, max_flow_unit
from twodst.lp_model import build_lp, congestion_parameter
from twodst.lp_solver import solve
from twodst.pipeline import PipelineConfig, run_pipeline
from twodst.reductions import DssInstance, dss_via_dst, solve_vertex_2dst
from twodst.rounding import IterationSampler, decompose_flow, gkr_round
from twodst.shallow_tree import build_shallow_tree
from twodst.solution import SolutionSubgraph
from twodst.verify import feasibility_report
from twodst.io import save_instance

DEPTH = 2
MARK_ROUNDS = 20_000
PATH_SAMPLES = 20_000
COST_TRIALS = 2_000


def _report(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"[acceptance] {name}: {tag}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _solve_depth2(instance):
    tree = build_shallow_tree(instance, DEPTH)
    model = build_lp(instance, tree, congestion_parameter(DEPTH, instance.num_terminals))
    lp = solve(model)
    assert lp.status == "optimal", f"relaxation not solved: {lp.status}"
    return tree, lp


def _integer_costs(instance):
    g = instance.graph
    edges = [(g.tails[e], g.heads[e], float(round(g.costs[e]))) for e in range(g.num_edges)]
    return DstInstance(
        DirectedMultigraph(list(g.vertices), edges), instance.root, instance.terminals
    )


@pytest.fixture(scope="module")
def fifty_runs():
    """50 random planted instances, each with its relaxation and exact optimum."""
    runs = []
    for k in range(50):
        n = 4 + k % 4
        h = 1 + k % 3
        m = 2 * h + 4 + (3 * k) % 9
        inst = random_instance(n, m, h, seed=k)
        tree, lp = _solve_depth2(inst)
        res = exact_2dst(inst, ExactConfig())
        assert res.feasible
        runs.append((inst, tree, lp, res.cost))
    return runs


@pytest.fixture(scope="module")
def solved5():
    """Five solved instances reused by the statistical checks.

    Mix of integral and fractional optima; the last one has a genuinely
    half-integral optimum (two graph edges at 0.5).
    """
    diamond = DstInstance(
        DirectedMultigraph(
            ["r", "a", "b", "t"],
            [("r", "a", 1.0), ("a", "t", 1.0), ("r", "b", 1.0), ("b", "t", 1.0)],
        ),
        "r",
        frozenset(["t"]),
    )
    instances = [
        diamond,
        random_instance(5, 8, 1, seed=11),
        random_instance(6, 10, 2, seed=23),
        random_instance(7, 14, 3, seed=71),
        _integer_costs(random_instance(6, 16, 3, cost_range=(1.0, 3.0), seed=1156)),
    ]
    return [(inst,) + _solve_depth2(inst) for inst in instances]


@pytest.fixture(scope="module")
def marking_stats(solved5):
    """Per instance: marking counts per tree edge and group-connection counts."""
    stats = []
    for i, (inst, tree, lp) in enumerate(solved5):
        sampler = IterationSampler(inst, tree, lp, samples=1)
        group_paths = {}
        for t, group in tree.groups.items():
            reqs = []
            for node in group:
                chain = []
                cur = node
                while cur != 0:
                    chain.append(cur - 1)
                    cur = tree.parents[cur]
                reqs.append(tuple(chain))
            group_paths[t] = reqs
        counts = np.zeros(tree.num_edges)
        connected = {t: 0 for t in tree.groups}
        rng = np.random.default_rng((831, i))
        for _ in range(MARK_ROUNDS):
            marked = gkr_round(tree, sampler.clamped, rng)
            for e in marked:
                counts[e] += 1
            for t, reqs in group_paths.items():
                if any(all(e in marked for e in req) for req in reqs):
                    connected[t] += 1
        stats.append((inst, tree, lp, sampler, counts, connected))
    return stats


def test_relaxation_ordering(fifty_runs):
    worst = max(lp.objective - opt for _, _, lp, opt in fifty_runs)
    _report(
        "relaxation-ordering",
        worst <= 1e-6,
        f"50 instances, worst objective excess {worst:.2e}",
    )


def test_rounding_feasibility():
    ok = 0
    total = 0
    for k in range(20):
        n = 5 + k % 4
        h = 1 + k % 3
        m = 2 * h + 4 + (2 * k) % 7
        inst = random_instance(n, m, h, seed=500 + k)
        for seed in range(5):
            total += 1
            result = run_pipeline(inst, PipelineConfig(depth=DEPTH, seed=seed))
            if result.feasible:
                ok += 1
    rate = ok / total
    _report("rounding-feasibility", rate >= 0.90, f"{ok}/{total} runs verified feasible")


def test_marking_marginals(marking_stats):
    worst = 0.0
    for _, tree, _, sampler, counts, _ in marking_stats:
        freq = counts / MARK_ROUNDS
        worst = max(worst, float(np.max(np.abs(freq - sampler.clamped))))
    _report(
        "marking-marginals",
        worst <= 0.02,
        f"{MARK_ROUNDS} rounds x {len(marking_stats)} instances, worst deviation {worst:.4f}",
    )


def test_group_connectivity(marking_stats):
    worst = float("inf")
    checked = 0
    for _, tree, _, sampler, _, connected in marking_stats:
        for t, group in tree.groups.items():
            mu = group_flow_lp(tree, sampler.clamped, group)
            rate = connected[t] / MARK_ROUNDS
            worst = min(worst, rate - (mu / (2.0 * tree.depth) - 0.02))
            checked += 1
    _report(
        "group-connectivity",
        worst >= 0.0,
        f"{checked} groups, worst margin over target rate {worst:+.4f}",
    )


def test_path_marginals(marking_stats):
    worst_over = 0.0
    worst_two_sided = 0.0
    checked = 0
    for i, (inst, tree, lp, sampler, _, _) in enumerate(marking_stats):
        m = inst.graph.num_edges
        for ehat in range(tree.num_edges):
            xh = sampler.raw_xhat[ehat]
            if xh < 0.05:
                continue
            # decomposed directly: edges whose clamped value is 0 count too
            dist = decompose_flow(inst.graph, tree, ehat, lp.graph_flow(ehat), xh)
            rng = np.random.default_rng((905, i, ehat))
            counts = np.zeros(m)
            for _ in range(PATH_SAMPLES):
                for e in reference_sample_path(dist, rng).edges:
                    counts[e] += 1
            freq = counts / PATH_SAMPLES
            target = lp.at(lp.model.var_index.f(ehat, np.arange(m))) / xh
            worst_over = max(worst_over, float(np.max(freq - target)))
            if dist.discarded <= 1e-7:  # no circulation left behind
                worst_two_sided = max(worst_two_sided, float(np.max(np.abs(freq - target))))
            checked += 1
    _report(
        "path-marginals",
        worst_over <= 0.02 and worst_two_sided <= 0.02,
        f"{checked} tree edges, worst overshoot {worst_over:.4f}, "
        f"worst cycle-free deviation {worst_two_sided:.4f}",
    )


def test_residual_group_flow(fifty_runs, solved5):
    solved = [(inst, tree, lp) for inst, tree, lp, _ in fifty_runs]
    solved += [(inst, tree, lp) for inst, tree, lp in solved5]
    lowest = float("inf")
    pairs = 0
    for inst, tree, lp in solved:
        beta = lp.model.beta
        for e in range(inst.graph.num_edges):
            for t in sorted(inst.terminals):
                lowest = min(lowest, residual_group_flow(tree, lp, beta, e, t))
                pairs += 1
    _report(
        "residual-group-flow",
        lowest >= 0.5 - 1e-6,
        f"{pairs} edge/terminal pairs over {len(solved)} instances, minimum {lowest:.6f}",
    )


def test_flow_slack(fifty_runs, solved5):
    lps = [(tree, lp) for _, tree, lp, _ in fifty_runs]
    lps += [(tree, lp) for _, tree, lp in solved5]
    worst = max(flow_slack_violation(tree, lp) for tree, lp in lps)
    _report(
        "flow-slack",
        worst <= 1e-7,
        f"{len(lps)} solved relaxations, worst violation {worst:.2e}",
    )


def test_iteration_cost(solved5):
    worst_ratio = 0.0
    for i, (inst, tree, lp) in enumerate(solved5):
        sampler = IterationSampler(inst, tree, lp)
        budget = sampler.samples * lp.model.beta * lp.objective
        rng = np.random.default_rng((1213, i))
        total = 0.0
        for _ in range(COST_TRIALS):
            draws = sampler.sample_draws(rng)
            total += inst.graph.total_cost({e for _, _, path in draws for e in path.edges})
        mean = total / COST_TRIALS
        worst_ratio = max(worst_ratio, mean / budget)
    _report(
        "iteration-cost",
        worst_ratio <= 1.1,
        f"{COST_TRIALS} trials x {len(solved5)} instances, "
        f"worst mean/budget ratio {worst_ratio:.3f}",
    )


def test_bench_ratios(tmp_path, capsys):
    suite = tmp_path / "suite"
    suite.mkdir()
    shapes = [(5, 10, 2, 101), (6, 12, 2, 102), (7, 14, 3, 103),
              (4, 8, 1, 104), (6, 10, 1, 105), (7, 12, 3, 106)]
    for n, m, h, seed in shapes:
        save_instance(random_instance(n, m, h, seed=seed), suite / f"i{seed}.json")
    out = tmp_path / "bench.csv"
    code = main(["bench", str(suite), "--depth", str(DEPTH), "--seed", "0",
                 "--exact-cap", "22", "--out", str(out)])
    capsys.readouterr()
    assert code == EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(shapes)
    ratios = []
    for row in rows:
        assert row["error"] == "", row["error"]
        assert row["feasible"] == "yes"
        assert row["ratio_vs_opt"] != "", "exact ratio missing"
        ratios.append(float(row["ratio_vs_opt"]))
    ok = all(1 - 1e-6 <= r <= 50.0 for r in ratios)
    _report("bench-ratios", ok, f"{len(ratios)} instances, max cost/opt {max(ratios):.3f}")


def _exact_backed(instance):
    result = exact_2dst(instance, ExactConfig(max_edges=48))
    if not result.feasible:
        raise InfeasibleInstanceError("no feasible subgraph exists")
    return SolutionSubgraph.from_edges(instance.graph, result.edges)


def _random_dss(attempt):
    rng = np.random.default_rng((777, attempt))
    n = int(rng.integers(4, 6))
    names = [f"u{i}" for i in range(n)]
    edges = []
    for a, b in itertools.combinations(names, 2):
        if rng.random() < 0.75:
            edges.append((a, b, float(rng.uniform(1, 5))))
            edges.append((b, a, float(rng.uniform(1, 5))))
    g = DirectedMultigraph(names, edges)
    k = int(rng.integers(2, 4))
    terms = frozenset(str(x) for x in rng.choice(names, size=k, replace=False))
    for s, t in itertools.permutations(sorted(terms), 2):
        if max_flow_unit(g, s, t)[0] < 2:
            return None
    return DssInstance(g, terms)


def _shared_vertex_instances():
    """Rooted instances with edge flow 2 where every path pair shares a vertex."""
    specs = [
        (["r", "c", "t"],
         [("r", "c", 1.0), ("r", "c", 1.0), ("c", "t", 1.0), ("c", "t", 1.0)]),
        (["r", "a", "b", "c", "t"],
         [("r", "a", 1.0), ("a", "c", 1.0), ("r", "c", 2.0),
          ("c", "b", 1.0), ("b", "t", 1.0), ("c", "t", 2.0)]),
        (["r", "a", "b", "t"],
         [("r", "a", 1.0), ("r", "a", 1.0), ("a", "b", 1.0), ("a", "b", 1.0),
          ("b", "t", 1.0), ("b", "t", 1.0)]),
        (["r", "u", "v", "c", "w", "x", "t"],
         [("r", "u", 1.0), ("u", "c", 1.0), ("r", "v", 1.0), ("v", "c", 1.0),
          ("c", "w", 1.0), ("w", "t", 1.0), ("c", "x", 1.0), ("x", "t", 1.0)]),
        (["r", "a", "b", "c", "t"],
         [("r", "a", 1.0), ("a", "c", 1.0), ("r", "b", 1.0), ("b", "c", 1.0),
          ("c", "t", 1.0), ("c", "t", 1.0)]),
    ]
    return [
        DstInstance(DirectedMultigraph(vs, es), "r", frozenset(["t"]))
        for vs, es in specs
    ]


def test_reductions():
    instances = []
    attempt = 0
    while len(instances) < 10:
        cand = _random_dss(attempt)
        attempt += 1
        if cand is not None:
            instances.append(cand)
    for dss in instances:
        sol = dss_via_dst(dss, _exact_backed)
        for s, t in itertools.permutations(dss.sorted_terminals(), 2):
            flow, _ = max_flow_unit(dss.graph, s, t, restrict_to=sol.edges)
            assert flow >= 2, f"pair {s}->{t} not doubly connected"

    rejected = 0
    for inst in _shared_vertex_instances():
        for t in inst.terminals:
            assert max_flow_unit(inst.graph, inst.root, t)[0] >= 2
        with pytest.raises(InfeasibleInstanceError):
            solve_vertex_2dst(inst, _exact_backed)
        rejected += 1
    _report(
        "reductions",
        True,
        f"{len(instances)} pairwise-verified unions, "
        f"{rejected} shared-vertex instances rejected",
    )


def test_verifier_agreement():
    trials = 200
    disagreements = 0
    feasible_seen = 0
    for k in range(trials):
        rng = np.random.default_rng((4242, k))
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 11))
        names = [f"v{i}" for i in range(n)]
        edges = []
        while len(edges) < m:
            tail, head = rng.integers(0, n, size=2)
            if tail != head:
                edges.append((names[tail], names[head], 1.0))
        g = DirectedMultigraph(names, edges)
        k_t = int(rng.integers(1, min(2, n - 1) + 1))
        terms = frozenset(str(x) for x in rng.choice(names[1:], size=k_t, replace=False))
        inst = DstInstance(g, names[0], terms)
        got = feasibility_report(inst, SolutionSubgraph.from_edges(g, range(m)).edges).feasible
        want = is_feasible_subset(g, range(m), names[0], terms)
        feasible_seen += want
        disagreements += got != want
    _report(
        "verifier-agreement",
        disagreements == 0,
        f"{trials} random multigraphs ({feasible_seen} feasible), "
        f"{disagreements} disagreements",
    )
