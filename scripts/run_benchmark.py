#!/usr/bin/env python3
"""Run the synthetic closure benchmark and print accuracy plus timing.

The clean suite must solve perfectly; noise tasks must contribute zero
hits. The script exits 1, naming the offending task ids, when a planted
task is missed or a noise task is solved. Example:

    python scripts/run_benchmark.py --planted 100 --noise 20 --seed 1007
"""

import argparse
import sys
import time

from symgrid import evaluate
from symgrid.solver import render_report
from symgrid.taskgen import generate_suite


def main() -> int:
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
    planted = {tid: pattern is not None for tid, _, pattern in suite}

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

    missed = sorted(
        {i.task_id for i in report.items if planted[i.task_id] and not i.correct}
    )
    solved_noise = sorted(
        {i.task_id for i in report.items if not planted[i.task_id] and i.correct}
    )
    if missed:
        print(f"FAIL: planted tasks missed: {' '.join(missed)}", file=sys.stderr)
    if solved_noise:
        print(f"FAIL: noise tasks solved: {' '.join(solved_noise)}", file=sys.stderr)
    return 1 if missed or solved_noise else 0


if __name__ == "__main__":
    sys.exit(main())
