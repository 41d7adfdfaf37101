#!/usr/bin/env python3
"""Run the synthetic closure benchmark and print accuracy plus timing.

The clean suite must solve perfectly; noise tasks must contribute zero
hits. Example:

    python scripts/run_benchmark.py --planted 100 --noise 20 --seed 1007
"""

import argparse
import time

from symgrid import evaluate
from symgrid.solver import render_report
from symgrid.taskgen import generate_suite


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--planted", type=int, default=100)
    parser.add_argument("--noise", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1007)
    parser.add_argument("--passes", type=int, default=1, choices=(1, 2))
    parser.add_argument("--budget", type=int, default=2000)
    parser.add_argument("--report", action="store_true", help="print per-task lines")
    args = parser.parse_args()

    gen_start = time.perf_counter()
    suite = generate_suite(args.seed, args.planted, args.noise)
    gen_elapsed = time.perf_counter() - gen_start
    items = [(tid, task) for tid, task, _ in suite]

    start = time.perf_counter()
    report = evaluate(items, passes=args.passes, budget=args.budget)
    elapsed = time.perf_counter() - start

    if args.report:
        print(render_report(report))
    print(
        f"generated {len(items)} tasks in {gen_elapsed:.1f}s "
        f"({args.planted} planted + {args.noise} noise, seed {args.seed})"
    )
    print(
        f"solved {report.correct}/{report.scored} "
        f"(accuracy {report.accuracy:.4f}) in {elapsed:.1f}s"
    )


if __name__ == "__main__":
    main()
