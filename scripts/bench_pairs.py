#!/usr/bin/env python3
"""Benchmark two checkouts in alternating pairs and write a BENCH_*.json.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload closure_suite \\
        --pairs 10 --first-seed 901 --out BENCH_9.json --claim task_p90_ms

Each pair runs ``perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout, one process at a time, with T the
``run_seconds`` of ``BENCHMARK.json`` and the seed rising by one per
pair. The parent runs first in the first pair and the order alternates
after that. For every end-to-end metric in ``BENCHMARK.json`` the output
records each side's runs and their q1, median and q3
(``statistics.quantiles(method='inclusive')``), the pairs the change won
and lost (ties count for neither), whether the change's median is within
the metric's regression bound, and whether a gain would be claimed: the
change wins at least nine tenths of the pairs and the gap between the
medians exceeds the parent's interquartile range.

A run that exits non-zero, prints no JSON summary or reports
``correct: false`` or a failed task stops the script with exit code 1, naming its pair,
seed and side, and nothing is written. A pair in which either run
printed no ``answer_digest`` counts as a digest mismatch.

An existing ``--out`` file is updated: the workload's entry is replaced
and the other workloads are kept. ``--claim METRIC`` records the verdict
for METRIC on this workload as the file's claim.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(directory: Path, *args: str) -> str | None:
    result = subprocess.run(
        ["git", "-C", str(directory), *args], capture_output=True, text=True
    )
    return result.stdout.strip() if result.returncode == 0 else None


def _revision(directory: Path) -> dict:
    return {
        "commit": _git(directory, "rev-parse", "HEAD"),
        "src_tree": _git(directory, "rev-parse", "HEAD:src"),
        "clean": _git(directory, "status", "--porcelain", "--", "src", "perfbench") == "",
    }


def _run(directory: Path, workload: str, seed: int, seconds: float, label: str) -> dict:
    """One benchmark run; stops the script, naming ``label``, unless the
    run exits 0 and reports ``correct: true`` with no failed task."""
    cmd = [
        sys.executable,
        "perfbench/run.py",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        "0",
    ]
    result = subprocess.run(cmd, cwd=directory, capture_output=True, text=True)
    lines = result.stdout.strip().splitlines()
    where = f"{label} ({directory})"
    if result.returncode != 0:
        raise SystemExit(
            f"{where}: {' '.join(cmd)} exited {result.returncode}\n"
            f"{result.stdout}{result.stderr}"
        )
    if not lines:
        raise SystemExit(f"{where}: no output from {' '.join(cmd)}\n{result.stderr}")
    try:
        summary = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise SystemExit(f"{where}: last line is not a JSON summary: {lines[-1]!r}") from None
    if summary.get("correct") is not True or summary.get("failed") != 0:
        raise SystemExit(
            f"{where}: the run reports correct: {summary.get('correct')}, "
            f"failed: {summary.get('failed')}\n{result.stdout}"
        )
    digest = next(
        (line.split()[-1] for line in lines if line.strip().startswith("answer_digest")),
        None,
    )
    return {
        "metrics": {k: v["value"] for k, v in summary["metrics"].items()},
        "failed": summary["failed"],
        "correct": summary["correct"],
        "digest": digest,
    }


def _quartiles(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {
        "q1": round(q1, 4),
        "median": round(median, 4),
        "q3": round(q3, 4),
        "runs": [round(r, 4) for r in runs],
    }


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Wins, the regression bound and the gain verdict for one metric."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    ps, cs = _quartiles(parent), _quartiles(change)
    gain = sign * (statistics.median(change) - statistics.median(parent))
    parent_iqr = ps["q3"] - ps["q1"]
    worse_by = -gain / statistics.median(parent) if statistics.median(parent) else 0.0
    return {
        "better": better,
        "change_wins": wins,
        "change_losses": losses,
        "parent": ps,
        "change": cs,
        "median_ratio_change_over_parent": round(
            statistics.median(change) / statistics.median(parent), 4
        )
        if statistics.median(parent)
        else None,
        "bound": bound,
        "within_bound": worse_by <= bound,
        "gain_met": wins >= math.ceil(0.9 * len(parent)) and gain > parent_iqr,
        "parent_iqr": round(parent_iqr, 4),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--claim", metavar="METRIC")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    if args.claim is not None and args.claim not in metrics:
        parser.error(f"unknown metric {args.claim!r}; choose from {sorted(metrics)}")

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    seeds = [args.first_seed + i for i in range(args.pairs)]
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            label = f"pair {i + 1} seed {seed} {side}"
            run = _run(sides[side], args.workload, seed, seconds, label)
            runs[side].append(run)
            shown = " ".join(f"{k}={v:.4g}" for k, v in run["metrics"].items())
            print(f"pair {i + 1} seed {seed} {side}: {shown}", flush=True)

    entry = {
        "seeds": seeds,
        "metrics": {
            name: compare(
                [r["metrics"][name] for r in runs["parent"]],
                [r["metrics"][name] for r in runs["change"]],
                m["better"],
                m["bound"],
            )
            for name, m in metrics.items()
        },
        "failed": {side: [r["failed"] for r in runs[side]] for side in runs},
        "correct": {side: [r["correct"] for r in runs[side]] for side in runs},
        # A run that printed no digest proves nothing, so it counts as a mismatch.
        "answer_digests_equal": all(
            p["digest"] is not None and p["digest"] == c["digest"]
            for p, c in zip(runs["parent"], runs["change"])
        ),
    }

    out = json.loads(args.out.read_text()) if args.out.exists() else {}
    out.setdefault(
        "command",
        f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0",
    )
    out.setdefault(
        "hardware",
        f"{platform.machine()} {platform.system()}, {os.cpu_count()} CPUs, "
        f"Python {platform.python_version()}, one benchmark process at a time",
    )
    out["pairs"] = (
        f"{args.pairs} per workload; the parent ran first in odd pairs and the "
        "change first in even pairs"
    )
    out["quartiles"] = (
        f"statistics.quantiles(method='inclusive') over the {args.pairs} runs of each side"
    )
    out["parent"] = _revision(sides["parent"])
    out["change"] = _revision(sides["change"])
    out.setdefault("workloads", {})[args.workload] = entry
    if args.claim is not None:
        verdict = entry["metrics"][args.claim]
        out["claim"] = {
            "workload": args.workload,
            "metric": args.claim,
            "met": verdict["gain_met"],
            "why": (
                f"the change won {verdict['change_wins']} of {args.pairs} pairs; the median "
                f"gap is {abs(verdict['change']['median'] - verdict['parent']['median']):.4g} "
                f"against a parent interquartile range of {verdict['parent_iqr']:.4g}"
            ),
        }
    args.out.write_text(json.dumps(out, indent=2) + "\n")
    for name, verdict in entry["metrics"].items():
        print(
            f"{args.workload} {name}: parent {verdict['parent']['median']} change "
            f"{verdict['change']['median']} wins {verdict['change_wins']}/{args.pairs} "
            f"within_bound={verdict['within_bound']} gain_met={verdict['gain_met']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
