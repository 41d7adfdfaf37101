#!/usr/bin/env python3
"""Check that two checkouts give byte-identical outputs on the bench suite.

    python3 scripts/compare_outputs.py PARENT_DIR CHANGE_DIR [--planted 100] [--noise 20]

Each checkout runs its own ``scripts/gen_tasks.py`` and its own
``src/symgrid``, one process at a time. Compared byte for byte, in order:

1. the seed-1007 suite that ``gen_tasks.py`` writes (task files and
   ``MANIFEST.tsv``);
2. ``symgrid eval SUITE --passes 1`` and ``--passes 2``: stdout,
   ``eval_summary.json`` and stderr;
3. ``symgrid solve TASK --passes 2`` stdout for every task;
4. ``symgrid induce TASK --threshold T`` stdout (rule set and hints) for
   every task at thresholds 1.0, 0.67, 0.5, 0.34 and 0.0, at connectivity
   4 and at ``--connectivity 8``, and with ``--budget B`` for B in 1 and 3
   at thresholds 1.0 and 0.5 (the default budget of 2000 never binds on
   the suite, so these catch a change in where the budget cuts);
5. ``symgrid perceive TASK --connectivity C`` stdout (objects, bboxes and
   cavity counts of every grid) for every task at connectivity 4 and 8;
6. ``symgrid induce TASK --threshold T`` stdout at thresholds 1.0, 0.5
   and 0.0 for every planted task with one cell of one train output
   repainted another color (an RNG of fixed seed picks the pair, cell
   and color). No pattern is then exact on every pair, so ``induce``
   goes on to verify the candidates it held back, which it never does
   on the unperturbed suite;
7. ``symgrid eval SUITE --config CFG --transcript T --passes 2``, the
   suite answered by a replayed remote proposer and sampler (CFG holds
   ``{"proposer": "remote"}``): stdout, ``eval_summary.json`` and stderr,
   which carries the malformed-line warnings. T is written once, by
   ``perfbench/workloads.write_transcript`` under the parent's
   ``src/symgrid`` with RNG seed 5, and both checkouts replay it. The
   sample requests carry the hints, so a changed hint is a replay miss
   here, after step 4 has named it;
8. the suites ``gen_tasks.py`` writes for seeds 1, 2 and 3. The task
   generator keeps a draw only if ``induce`` passes its closure check,
   so these catch a change in ``induce`` that the seed-1007 suite misses.

Steps 2 to 7 read the parent's suite, so both sides answer the same files.
Steps 3 to 6 call the CLI's ``main`` in one worker process per checkout
and suite rather than one process per command. The exit code is 0 when
everything matches and 1 at the first difference, which is named on
stderr.
``--planted`` and ``--noise`` size every suite as in ``run_benchmark.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

SEED = 1007
GENERATOR_SEEDS = (1, 2, 3)
THRESHOLDS = ("1.0", "0.67", "0.5", "0.34", "0.0")
BUDGETS = ("1", "3")
BUDGET_THRESHOLDS = ("1.0", "0.5")
REPLAY_SEED = 5  # the RNG seed of the replay transcript's sampled grids
PERTURB_SEED = 0  # the RNG seed that picks each perturbed task's cell and color
PERTURBED_THRESHOLDS = ("1.0", "0.5", "0.0")
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _env(checkout: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(checkout / "src"))


def _run(checkout: Path, argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
    result = subprocess.run(
        [sys.executable, *argv], cwd=cwd, env=_env(checkout), capture_output=True, text=True
    )
    if result.returncode != 0:
        raise SystemExit(
            f"{checkout}: {' '.join(argv)} exited {result.returncode}\n{result.stderr}"
        )
    return result


def _first_difference(a: str, b: str) -> str:
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(lines_a, lines_b), 1):
        if x != y:
            return f"line {i}: parent {x!r}, change {y!r}"
    if len(lines_a) != len(lines_b):
        return f"parent has {len(lines_a)} lines, change {len(lines_b)}"
    return "line endings differ"


def _compare(what: str, parent: str | bytes, change: str | bytes) -> None:
    if parent == change:
        return
    if isinstance(parent, bytes):
        parent = parent.decode("utf-8", "replace")
        change = change.decode("utf-8", "replace")
    print(f"first difference: {what}: {_first_difference(parent, change)}", file=sys.stderr)
    raise SystemExit(1)


def _suite(
    checkout: Path, out: Path, planted: int, noise: int, seed: int = SEED
) -> dict[str, bytes]:
    _run(
        checkout,
        [str(checkout / "scripts" / "gen_tasks.py"), str(out), "--planted", str(planted),
         "--noise", str(noise), "--seed", str(seed)],
        cwd=out.parent,
    )
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def _compare_suites(seed: int, parent: dict[str, bytes], change: dict[str, bytes]) -> None:
    what = f"seed-{seed} suite"
    _compare(f"{what} file names", "\n".join(parent), "\n".join(change))
    for name, data in parent.items():
        _compare(f"{what} file {name}", data, change[name])


def _eval(checkout: Path, argv: list[str], work: Path) -> tuple[str, bytes, str]:
    """stdout, ``eval_summary.json`` and stderr of ``symgrid eval`` + ``argv``."""
    result = _run(checkout, ["-m", "symgrid.cli", "eval", *argv], cwd=work)
    summary = work / "eval_summary.json"
    data = summary.read_bytes()
    summary.unlink()
    return result.stdout, data, result.stderr


def _compare_evals(what: str, argv: list[str], parent: Path, change: Path, work: Path) -> None:
    """Compare ``symgrid eval`` + ``argv`` between the checkouts."""
    p_run, c_run = (_eval(checkout, argv, work) for checkout in (parent, change))
    for part, p_part, c_part in zip(("stdout", "eval_summary.json", "stderr"), p_run, c_run):
        _compare(f"{what} {part}", p_part, c_part)


def _perturb(suite: Path, out: Path) -> None:
    """Write each planted task of ``suite`` to ``out``, with one cell of one
    train output repainted another color."""
    rng = random.Random(PERTURB_SEED)
    out.mkdir()
    for path in sorted(suite.glob("plant_*.json")):
        doc = json.loads(path.read_bytes())
        rows = doc["train"][rng.randrange(len(doc["train"]))]["output"]
        r = rng.randrange(len(rows))
        c = rng.randrange(len(rows[r]))
        rows[r][c] = (rows[r][c] + rng.randint(1, 9)) % 10
        (out / path.name).write_text(json.dumps(doc, separators=(",", ":")))


def _cli_outputs(checkout: Path, suite: Path, work: Path, perturbed: bool) -> list[dict]:
    argv = [__file__, "--worker", str(checkout), str(suite)]
    if perturbed:
        argv.append("--perturbed")
    return [json.loads(line) for line in _run(checkout, argv, cwd=work).stdout.splitlines()]


def _compare_cli(parent: Path, change: Path, suite: Path, work: Path, perturbed: bool) -> None:
    """Compare the exit code and stdout of every worker command between the
    checkouts."""
    p_runs, c_runs = (
        _cli_outputs(checkout, suite, work, perturbed) for checkout in (parent, change)
    )
    listed = "perturbed induce" if perturbed else "solve/induce/perceive"
    _compare(f"{listed} command list", str([r["argv"] for r in p_runs]),
             str([r["argv"] for r in c_runs]))
    prefix = "perturbed " if perturbed else ""
    for p_run, c_run in zip(p_runs, c_runs):
        argv = p_run["argv"]
        command = prefix + " ".join([argv[0], Path(argv[1]).name, *argv[2:]])
        _compare(f"{command} exit code", str(p_run["code"]), str(c_run["code"]))
        _compare(f"{command} stdout", p_run["stdout"], c_run["stdout"])


def _imported_from(checkout: Path) -> bool:
    """Whether ``symgrid`` imports from ``checkout``; says so on stderr if not."""
    import symgrid

    expected = (checkout / "src" / "symgrid").resolve()
    if Path(symgrid.__file__).resolve().parent == expected:
        return True
    print(f"imported symgrid from {symgrid.__file__}, not {expected}", file=sys.stderr)
    return False


def _transcript_worker(checkout: Path, path: Path, planted: int, noise: int) -> int:
    """Write the replay transcript of the seed-``SEED`` suite to ``path``."""
    if not _imported_from(checkout):
        return 2
    sys.path.append(str(PERFBENCH))
    from symgrid.taskgen import generate_suite
    from workloads import write_transcript

    write_transcript(random.Random(REPLAY_SEED), generate_suite(SEED, planted, noise), path)
    return 0


def _worker(checkout: Path, suite: Path, perturbed: bool) -> int:
    """Print one JSON line per solve/induce/perceive command (induce at
    ``PERTURBED_THRESHOLDS`` only, on a perturbed suite), run through ``main``."""
    if not _imported_from(checkout):
        return 2
    from symgrid.cli import main

    commands = []
    for task in sorted(suite.glob("*.json")):
        if perturbed:
            commands.extend(["induce", str(task), "--threshold", t] for t in PERTURBED_THRESHOLDS)
            continue
        commands.append(["solve", str(task), "--passes", "2"])
        commands.extend(["induce", str(task), "--threshold", t] for t in THRESHOLDS)
        commands.extend(
            ["induce", str(task), "--connectivity", "8", "--threshold", t] for t in THRESHOLDS
        )
        commands.extend(
            ["induce", str(task), "--budget", b, "--threshold", t]
            for b in BUDGETS
            for t in BUDGET_THRESHOLDS
        )
        commands.extend(["perceive", str(task), "--connectivity", c] for c in ("4", "8"))
    lines = []
    for argv in commands:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(argv)
        lines.append(json.dumps({"argv": argv, "code": code, "stdout": buffer.getvalue()}))
    print("\n".join(lines))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--planted", type=int, default=100)
    parser.add_argument("--noise", type=int, default=20)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--perturbed", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--transcript-worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:  # PARENT is the checkout, CHANGE the suite directory
        return _worker(args.parent.resolve(), args.change.resolve(), args.perturbed)
    if args.transcript_worker:  # PARENT is the checkout, CHANGE the transcript
        return _transcript_worker(
            args.parent.resolve(), args.change.resolve(), args.planted, args.noise
        )

    parent, change = args.parent.resolve(), args.change.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        work = root / "work"
        work.mkdir()
        suites = {}
        for side, checkout in (("parent", parent), ("change", change)):
            suites[side] = _suite(checkout, root / f"suite_{side}", args.planted, args.noise)
        _compare_suites(SEED, suites["parent"], suites["change"])
        suite = root / "suite_parent"

        for passes in (1, 2):
            argv = [str(suite), "--passes", str(passes)]
            _compare_evals(f"eval --passes {passes}", argv, parent, change, work)

        _compare_cli(parent, change, suite, work, perturbed=False)
        _perturb(suite, root / "perturbed")
        _compare_cli(parent, change, root / "perturbed", work, perturbed=True)

        transcript, config = root / "replay.jsonl", root / "remote.json"
        _run(
            parent,
            [__file__, "--transcript-worker", str(parent), str(transcript),
             "--planted", str(args.planted), "--noise", str(args.noise)],
            cwd=work,
        )
        config.write_text(json.dumps({"proposer": "remote"}))
        _compare_evals(
            "eval --passes 2 with a replayed remote proposer",
            [str(suite), "--config", str(config), "--transcript", str(transcript), "--passes", "2"],
            parent,
            change,
            work,
        )

        for seed in GENERATOR_SEEDS:
            parent_suite, change_suite = (
                _suite(checkout, root / f"seed{seed}_{side}", args.planted, args.noise, seed)
                for side, checkout in (("parent", parent), ("change", change))
            )
            _compare_suites(seed, parent_suite, change_suite)

    tasks = len(suites["parent"]) - 1  # MANIFEST.tsv
    planted = sum(name.startswith("plant_") for name in suites["parent"])
    print(
        f"identical: {tasks}-task suite, eval --passes 1 and 2 (stdout, "
        f"eval_summary.json and stderr), solve --passes 2 on {tasks} tasks, induce on "
        f"{tasks} tasks at thresholds {', '.join(THRESHOLDS)} at connectivity 4 and 8, "
        f"and at budgets {' and '.join(BUDGETS)} at thresholds "
        f"{' and '.join(BUDGET_THRESHOLDS)}, "
        f"perceive on {tasks} tasks at connectivity 4 and 8, induce on {planted} perturbed "
        f"tasks at thresholds {', '.join(PERTURBED_THRESHOLDS)}, eval --passes 2 with a "
        f"replayed remote proposer (stdout, eval_summary.json and stderr), and the suites of "
        f"generator seeds {', '.join(map(str, GENERATOR_SEEDS))}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
