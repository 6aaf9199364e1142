"""Generate a directory of random planted-feasible benchmark instances.

Every instance gets two edge-disjoint root-to-terminal branches planted
per terminal, so the rooted problem is always solvable. Shapes are drawn
uniformly from the requested ranges with a deterministic per-index seed,
so the same arguments always reproduce the same suite. Each instance is
one JSON file that `twodst solve` and `twodst bench` read.

    python3 scripts/gen_suite.py out_dir --count 20 --n 6 9 --h-max 3
"""

import argparse
from pathlib import Path

import numpy as np

from twodst.exact import random_instance
from twodst.io import save_instance


def build_parser():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("out", type=Path, help="output directory (created if missing)")
    p.add_argument("--count", type=int, default=20, help="number of instances")
    p.add_argument("--n", type=int, nargs=2, default=(5, 8), metavar=("LO", "HI"),
                   help="vertex count range, inclusive")
    p.add_argument("--h-max", type=int, default=3, help="max terminals per instance")
    p.add_argument("--extra-edges", type=int, nargs=2, default=(2, 8),
                   metavar=("LO", "HI"), help="random edges beyond the planted 2h")
    p.add_argument("--cost", type=float, nargs=2, default=(1.0, 10.0),
                   metavar=("LO", "HI"), help="uniform edge cost range")
    p.add_argument("--seed", type=int, default=0, help="suite seed")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    width = len(str(args.count - 1))
    for k in range(args.count):
        rng = np.random.default_rng((args.seed, k))
        n = int(rng.integers(args.n[0], args.n[1] + 1))
        h = int(rng.integers(1, min(args.h_max, n - 1) + 1))
        m = 2 * h + int(rng.integers(args.extra_edges[0], args.extra_edges[1] + 1))
        inst = random_instance(
            n, m, h, cost_range=tuple(args.cost), seed=args.seed * 100_003 + k
        )
        path = args.out / f"rand_{k:0{width}d}_n{n}_m{m}_h{h}.json"
        save_instance(inst, path)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
