#!/usr/bin/env python3
"""Check that the tracer sees every call: compare its counts with cProfile.

    python3 perfbench/check_tracer.py --workload closure_suite

Runs one whole-workload pass under cProfile without the tracer, then one
with the tracer, and requires each traced call count to equal the number
of calls cProfile saw to the wrapped function.  A binding site the tracer
missed shows up as a shortfall.  Exits 1 on a mismatch.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys

from run import SRC, Run, _quiet_symgrid_logs, _setup


def _profiled_calls(stats: pstats.Stats, fn) -> int:
    code = fn.__code__
    where = (code.co_filename, code.co_firstlineno, code.co_name)
    return stats.stats[where][1] if where in stats.stats else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="closure_suite")
    parser.add_argument("--seed", type=int, default=1007)
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    from symgrid import backend, grid, induction, patterns, perception, search
    from tracing import Tracer

    # traced count -> the functions whose calls it counts
    counted = {
        "perception.segment.calls": [perception.segment],
        "patterns.apply.calls": [patterns.apply_pattern],
        "patterns.parse.calls": [patterns.parse_pattern],
        "grid.constructions": [grid.Grid.__post_init__],
        "grid.pixel_distance.calls": [grid.pixel_distance],
        "search.enumerate.calls": [search.enumerate_candidates],
        "induction.match_objects.calls": [induction.match_objects],
        "backend.calls": [backend.RemoteBackend.propose, backend.RemoteBackend.sample],
    }

    _quiet_symgrid_logs()
    wl, _, _ = _setup(args.workload, args.seed, 1)
    run = Run(wl, args.seed)

    profile = cProfile.Profile()
    profile.enable()
    run.whole_pass()
    profile.disable()
    stats = pstats.Stats(profile)

    tracer = Tracer({id(task): tid for tid, task in wl.tasks})
    tracer.install()
    try:
        run.whole_pass()
    finally:
        tracer.remove()
    traced = tracer.metrics()

    ok = run.failed == 0
    for key, functions in counted.items():
        profiled = sum(_profiled_calls(stats, fn) for fn in functions)
        same = profiled == traced[key]
        ok = ok and same
        print(f"{key:32s} traced {traced[key]:8d}  cProfile {profiled:8d}  {'ok' if same else 'MISMATCH'}")
    print(
        f"perception.segment: {traced['perception.segment.calls']} calls on "
        f"{traced['perception.segment.distinct']} distinct grids; patterns.apply: "
        f"{traced['patterns.apply.calls']} calls on {traced['patterns.apply.distinct']} "
        f"distinct (pattern, grid) pairs"
    )
    print("tracer check:", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
