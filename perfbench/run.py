"""Benchmark of the twodst solver: one workload per process, closed loop.

    python3 perfbench/run.py --workload planted-mid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the solver is imported from its `src/`.
The run sets up three times (imports, instance generation and file I/O,
one warm-up solve) and reports the median set-up, then solves the
workload's instances one at a time, pass after pass, for --seconds, and
checks every result independently. With --trace 1 the first half of the
time runs untraced and the second half traced, and the per-layer metrics
are printed instead of the end-to-end ones; the spans are written to
.perfbench_out/spans/.

Detail goes to stderr. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. The exit status is 0 only
when every check passed.
"""

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("planted-mid", "multicover-frac", "small-suite")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "twodst" / "__init__.py").is_file():
        print(f"perfbench: no solver sources at {SRC}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import bench  # imports numpy, scipy and the solver: part of set-up

    import_s = time.perf_counter() - started
    result = bench.execute(args.workload, args.seed, args.seconds, bool(args.trace),
                           import_s, OUT, (SRC / "twodst", HERE))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
