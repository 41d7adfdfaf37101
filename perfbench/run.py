#!/usr/bin/env python3
"""symgrid benchmark: one workload per process, single-threaded, closed loop.

    python3 perfbench/run.py --workload closure_suite --seed 1 --seconds 25 --trace 0

Run from the repository root; the program is imported from ``src/``.

``--trace 0`` prints the end-to-end metrics: set-up time (median of three
builds of the workload's inputs), ``tasks_per_s`` (the upper quartile
over passes of one ``evaluate`` call on the whole workload), the p50 and p90
over tasks of each task's best latency of ``evaluate([task])`` (at least
three samples a task and 100 in all), the failed-task share and the peak
resident memory.  Before timing it answers every task once through
``induce`` and ``solve_task`` to check the answers and print their digest.

Fast passes rather than the median pass: the machines this runs on slow
down by up to 1.6x, in spells of a fraction of a second to minutes, when
other tenants load them, and a median over a run follows whatever share
of the run such spells cover.  Each task's fastest call, and the pass
rate only a quarter of passes beat, vary less between runs that were
slowed for different spans.

``--trace 1`` alternates whole-workload passes without and with
``tracing.Tracer`` installed, prints the per-layer metrics of the traced
passes and the tracing overhead, and writes the spans to ``perfbench/out``.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when a
correctness gate fails and 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import logging
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUPS = 3
MIN_LATENCY_SAMPLES = 100
MIN_PASSES = 3


def _median(values):
    return statistics.median(values) if values else 0.0


def _upper_quartile(values):
    return statistics.quantiles(values, n=4)[2] if len(values) >= 2 else _median(values)


class Run:
    """State of one benchmark process: the workload and its tallies."""

    def __init__(self, workload, seed: int) -> None:
        self.wl = workload
        self.order = list(workload.tasks)
        random.Random(seed).shuffle(self.order)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _evaluate_kwargs(self):
        from symgrid.backend import RemoteBackend, RemotePatternProposer

        if self.wl.transcript is None:
            return {"passes": self.wl.passes}
        backend = RemoteBackend(transcript_path=str(self.wl.transcript))
        return {
            "passes": self.wl.passes,
            "backend": backend,
            "proposer": RemotePatternProposer(backend),
        }

    def _score(self, report, task_ids) -> None:
        solved = {tid: True for tid in task_ids}
        for item in report.items:
            solved[item.task_id] = solved.get(item.task_id, True) and bool(item.correct)
        for tid in task_ids:
            self.attempted += 1
            if solved[tid] != self.wl.expect[tid]:
                self.failed += 1
                self.problems.append(f"{tid}: solved={solved[tid]}")

    def whole_pass(self) -> float:
        """One evaluate call over every task; returns tasks per second."""
        gc.collect()
        from symgrid import evaluate

        kwargs = self._evaluate_kwargs()
        start = time.perf_counter()
        try:
            report = evaluate(self.order, **kwargs)
        except Exception as e:  # every task of the pass counts as failed
            self.attempted += len(self.order)
            self.failed += len(self.order)
            self.problems.append(f"evaluate raised {e!r}")
            return 0.0
        elapsed = time.perf_counter() - start
        self._score(report, [tid for tid, _ in self.order])
        return len(self.order) / elapsed

    def task_pass(self, latencies: dict[str, list[float]]) -> None:
        """evaluate([task]) for each task in turn; appends each latency in
        ms to ``latencies[task_id]``."""
        from symgrid import evaluate

        kwargs = self._evaluate_kwargs()
        gc.collect()
        for entry in self.order:
            start = time.perf_counter()
            try:
                report = evaluate([entry], **kwargs)
            except Exception as e:
                self.attempted += 1
                self.failed += 1
                self.problems.append(f"{entry[0]}: evaluate raised {e!r}")
                continue
            latencies.setdefault(entry[0], []).append((time.perf_counter() - start) * 1000.0)
            self._score(report, [entry[0]])

    def verify(self) -> str:
        """Answer every task once, untimed; returns the answer digest.

        The digest is a sha256 over every attempt's markdown in canonical
        task order.  Replayed runs must also see no replay miss and no
        degraded trace.
        """
        from symgrid import BackendError, encode_markdown, grids_equal, induce, solve_task
        from symgrid.backend import RemoteBackend, RemotePatternProposer
        from symgrid.search import SearchProposer

        backend = None
        proposer = SearchProposer()
        misses = 0
        if self.wl.transcript is not None:
            backend = RemoteBackend(transcript_path=str(self.wl.transcript))
            proposer = RemotePatternProposer(backend)
            for name in ("propose", "sample"):
                method = getattr(backend, name)

                def counted(*args, _method=method):
                    nonlocal misses
                    try:
                        return _method(*args)
                    except BackendError:
                        misses += 1
                        raise

                setattr(backend, name, counted)

        digest = hashlib.sha256()
        degraded = 0
        for tid, task in self.wl.tasks:
            try:
                rs = induce(task, proposer)
                preds = solve_task(task, rs, backend, passes=self.wl.passes)
            except Exception as e:
                self.problems.append(f"{tid}: answering raised {e!r}")
                continue
            solved = True
            for idx, ((_, expected), pred) in enumerate(zip(task.test, preds)):
                for attempt in pred.attempts:
                    digest.update(f"{tid} {idx}\n{encode_markdown(attempt)}\n".encode())
                solved = solved and any(grids_equal(a, expected) for a in pred.attempts)
                degraded += pred.trace.degraded
            if solved != self.wl.expect[tid]:
                self.problems.append(f"{tid}: answered solved={solved}")
        if misses or degraded:
            self.problems.append(f"replay misses {misses}, degraded traces {degraded}")
        return digest.hexdigest()


def _input_digest(wl) -> str:
    from symgrid import serialize_task

    h = hashlib.sha256()
    for tid, task in wl.tasks:
        h.update(tid.encode() + b"\n" + serialize_task(task) + b"\n")
    if wl.transcript is not None:
        h.update(wl.transcript.read_bytes())
    return h.hexdigest()


def _setup(name: str, seed: int, builds: int):
    """Build the workload ``builds`` times; return it and the build times.

    Every build must produce the same inputs.
    """
    from workloads import BUILDERS

    OUT.mkdir(exist_ok=True)
    times, digests, workload = [], set(), None
    for _ in range(builds):
        start = time.perf_counter()
        wl = BUILDERS[name](seed, OUT)
        times.append(time.perf_counter() - start)
        digests.add(_input_digest(wl))
        if workload is None:
            workload = wl
        del wl
    return workload, times, len(digests) == 1


def _quiet_symgrid_logs() -> dict[str, int]:
    """Count symgrid's log records per logger instead of printing them,
    so terminal speed stays out of the timings."""
    counts: dict[str, int] = {}

    class Counting(logging.Handler):
        def emit(self, record: logging.LogRecord) -> None:
            counts[record.name] = counts.get(record.name, 0) + 1

    logger = logging.getLogger("symgrid")
    logger.addHandler(Counting())
    logger.propagate = False
    return counts


def measure(name: str, seed: int, seconds: float):
    log_counts = _quiet_symgrid_logs()
    wl, setup_times, same_inputs = _setup(name, seed, SETUPS)
    run = Run(wl, seed)
    if not same_inputs:
        run.problems.append("set-up builds differ")
    digest = run.verify()

    # Whole-workload and per-task passes take turns and share the time;
    # both go on until each has MIN_PASSES passes and the per-task ones
    # have enough samples.
    rates, latencies = [], {}
    task_passes = 0
    whole_s = task_s = 0.0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if not rates or whole_s <= task_s:
            rates.append(run.whole_pass())
            whole_s += time.perf_counter() - t0
        else:
            run.task_pass(latencies)
            task_passes += 1
            task_s += time.perf_counter() - t0
        samples = sum(len(v) for v in latencies.values())
        done = (
            time.perf_counter() - start >= seconds
            and min(len(rates), task_passes) >= MIN_PASSES
            and samples >= MIN_LATENCY_SAMPLES
        )
        if run.failed or done:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    best = sorted(min(v) for v in latencies.values())
    deciles = statistics.quantiles(best, n=10) if len(best) >= 2 else [0.0] * 9
    metrics = {
        "tasks_per_s": (_upper_quartile(rates), "1/s"),
        "task_p50_ms": (_median(best), "ms"),
        "task_p90_ms": (deciles[8], "ms"),
        "setup_s": (_median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    share = run.failed / run.attempted if run.attempted else 1.0
    print(
        f"workload {name} seed {seed}: {len(wl.tasks)} tasks, "
        f"{sum(wl.expect.values())} to be solved, evaluate passes={wl.passes}"
    )
    print(f"  setup_s          {metrics['setup_s'][0]:.4f} s  (median of {SETUPS} builds)")
    print(f"  tasks_per_s      {metrics['tasks_per_s'][0]:.4f} 1/s  (upper quartile of {len(rates)} whole-workload passes)")
    print(f"    passes         {' '.join(f'{r:.2f}' for r in rates)}")
    print(f"    median pass    {_median(rates):.4f} 1/s")
    sampled = f"over {len(best)} tasks' best of {task_passes} passes, {samples} samples"
    print(f"  task_p50_ms      {metrics['task_p50_ms'][0]:.4f} ms  ({sampled})")
    print(f"  task_p90_ms      {metrics['task_p90_ms'][0]:.4f} ms  ({sampled})")
    print(f"  failed_task_share {share:.4f}  ({run.failed}/{run.attempted} tasks)")
    print(f"  peak_rss_mb      {peak_rss_mb:.4f} MB")
    print(f"  answer_digest    sha256:{digest}")
    print(f"  symgrid warnings {sum(log_counts.values())}")
    return run, metrics


def measure_traced(name: str, seed: int, seconds: float):
    from tracing import Tracer

    log_counts = _quiet_symgrid_logs()
    wl, _, _ = _setup(name, seed, 1)
    run = Run(wl, seed)
    task_names = {id(task): tid for tid, task in wl.tasks}

    # Untraced and traced passes alternate, so both see the same mix of
    # machine load.
    untraced, traced, per_pass, tracers = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(run.whole_pass())
        tracer = Tracer(task_names)
        dropped_before = log_counts.get("symgrid.induction", 0)
        tracer.install()
        try:
            traced.append(run.whole_pass())
        finally:
            tracer.remove()
        layer = tracer.metrics()
        layer["backend.dropped_lines"] = log_counts.get("symgrid.induction", 0) - dropped_before
        if layer["backend.degraded"]:
            run.problems.append(f"{layer['backend.degraded']} degraded traces")
        per_pass.append(layer)
        tracers.append(tracer)

    spans_path = OUT / f"spans_{name}_seed{seed}.jsonl"
    spans_path.unlink(missing_ok=True)
    for index, tracer in enumerate(tracers):
        tracer.write_spans(spans_path, index)

    metrics = {}
    units = {"_s": "s", ".s": "s", "_share": "ratio", "_ratio": "ratio"}
    for key in per_pass[0]:
        unit = next((u for suffix, u in units.items() if key.endswith(suffix)), "count")
        metrics[key] = (_median([p[key] for p in per_pass]), unit)
    metrics["taskgen.generate_s"] = (wl.generate_s, "s")
    metrics["trace.tasks_per_s"] = (_upper_quartile(traced), "1/s")
    metrics["trace.overhead_tasks_per_s"] = (
        _upper_quartile(traced) - _upper_quartile(untraced),
        "1/s",
    )
    print(
        f"workload {name} seed {seed}: {len(untraced)} untraced and {len(traced)} "
        f"traced whole-workload passes; spans in {spans_path.relative_to(HERE.parent)}"
    )
    for key, (value, unit) in metrics.items():
        print(f"  {key:34s} {value:.6g} {unit}")
    return run, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "symgrid" / "__init__.py").is_file():
        print(f"perfbench: symgrid sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import BUILDERS

    if args.workload not in BUILDERS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(BUILDERS)}")

    measure_fn = measure_traced if args.trace else measure
    run, metrics = measure_fn(args.workload, args.seed, args.seconds)
    correct = not run.problems and run.failed == 0
    for problem in run.problems[:20]:
        print(f"  FAILED {problem}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
