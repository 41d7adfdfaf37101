"""Command-line surface: perceive, induce, solve, eval.

All commands are deterministic given (config, inputs, transcript) and
never mutate input files. Exit code 0 covers success and degraded runs
(e.g. an unreachable backend); nonzero is reserved for bad input or an
internal fault.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from .backend import RemoteBackend, RemotePatternProposer
from .config import Config, load_config
from .errors import SymgridError
from .grid import Task, encode_markdown, parse_task
from .patterns import format_pattern
from .perception import segment
from .search import SearchProposer
from .solver import (
    evaluate,
    induce_with_fallback,
    render_report,
    report_summary,
    solve_task,
)

TOKEN_ENV = "SYMGRID_BACKEND_TOKEN"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symgrid",
        description="Grid-puzzle reasoning engine: perception, rule induction, solving.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, target in (
        ("perceive", "report objects, cavities, and background per grid", "task"),
        ("induce", "print the induced rule set and hints", "task"),
        ("solve", "print predicted test outputs as markdown grids", "task"),
        ("eval", "score a directory of tasks with expected outputs", "directory"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("path", help=f"path to the {target}")
        cmd.add_argument("--config", help="JSON config file")
        cmd.add_argument("--connectivity", type=int, choices=(4, 8))
        cmd.add_argument("--threshold", type=float, dest="confidence_threshold")
        cmd.add_argument("--budget", type=int, dest="search_budget")
        cmd.add_argument("--passes", type=int, choices=(1, 2))
        cmd.add_argument("--samples", type=int)
        cmd.add_argument("--backend-url", dest="backend_url")
        cmd.add_argument("--transcript", dest="transcript_path")
    return parser


def _config_from_args(args: argparse.Namespace) -> Config:
    overrides = {f.name: getattr(args, f.name, None) for f in fields(Config)}
    return load_config(args.config, overrides)


def _make_backend(cfg: Config) -> RemoteBackend | None:
    if cfg.backend_url is None and cfg.transcript_path is None:
        return None
    return RemoteBackend(
        url=cfg.backend_url,
        timeout=cfg.timeout,
        token=os.environ.get(TOKEN_ENV),
        transcript_path=cfg.transcript_path,
    )


def _make_proposer(cfg: Config, backend: RemoteBackend | None):
    if cfg.proposer == "remote":
        if backend is None:
            raise SymgridError("proposer 'remote' needs a backend URL or transcript")
        return RemotePatternProposer(backend)
    return SearchProposer()


def _load_task(path: str) -> Task:
    try:
        data = Path(path).read_bytes()
    except OSError as e:
        raise SymgridError(f"cannot read {path}: {e}") from e
    try:
        return parse_task(data)
    except SymgridError as e:
        raise SymgridError(f"{path}: {e}") from e


def cmd_perceive(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    task = _load_task(args.path)
    grids = []
    for i, (gin, gout) in enumerate(task.train):
        grids.append((f"train[{i}].input", gin))
        grids.append((f"train[{i}].output", gout))
    for i, (gin, _) in enumerate(task.test):
        grids.append((f"test[{i}].input", gin))
    for label, g in grids:
        p = segment(g, cfg.connectivity)
        print(f"{label}: background={p.background} objects={len(p.objects)}")
        for obj in p.objects:
            print(
                f"  object {obj.id}: color={obj.color} size={obj.size} "
                f"bbox={obj.bbox} cavities={obj.cavity_count}"
            )
    return 0


def cmd_induce(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    task = _load_task(args.path)
    backend = _make_backend(cfg)
    proposer = _make_proposer(cfg, backend)
    rs, _ = induce_with_fallback(
        task, proposer, cfg.confidence_threshold, cfg.search_budget, cfg.connectivity
    )
    if not rs.patterns:
        print("no surviving patterns")
        return 0
    for sp in rs.patterns:
        print(format_pattern(sp.pattern))
    for hint in rs.hints:
        print(f"hint: {hint}")
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    task = _load_task(args.path)
    backend = _make_backend(cfg)
    proposer = _make_proposer(cfg, backend)
    rs, failure = induce_with_fallback(
        task, proposer, cfg.confidence_threshold, cfg.search_budget, cfg.connectivity
    )
    predictions = solve_task(
        task, rs, backend, cfg.passes, cfg.samples, cfg.connectivity
    )
    for i, pred in enumerate(predictions):
        if failure is not None:
            pred.trace.degraded = True
            pred.trace.notes.append(failure)
        for a, attempt in enumerate(pred.attempts, start=1):
            print(f"# test {i} attempt {a}")
            print(encode_markdown(attempt))
        t = pred.trace
        print(
            f"# trace test={i} patterns={len(rs.patterns)} "
            f"candidates={t.candidate_count} ties={t.ties_resolved} "
            f"dims_excluded={t.dims_excluded} "
            f"identity_fallback={'yes' if t.identity_fallback else 'no'} "
            f"degraded={'yes' if t.degraded else 'no'} "
            f"fallback={t.fallback_source or '-'} "
            f"skipped={len(t.skipped_patterns)}"
        )
        if t.degraded:
            print("warning: backend degraded, solved without it", file=sys.stderr)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    root = Path(args.path)
    if not root.is_dir():
        raise SymgridError(f"{args.path}: not a directory")
    # When DIR is the current directory, the summary of a previous run
    # sits among the tasks; it is this command's output, not a task.
    summary_path = Path.cwd() / "eval_summary.json"
    items: list[tuple[str, Task]] = []
    unreadable = 0
    for path in sorted(root.glob("*.json")):
        if path.resolve() == summary_path.resolve():
            continue
        try:
            items.append((path.stem, parse_task(path.read_bytes())))
        except (OSError, SymgridError) as e:
            unreadable += 1
            print(f"warning: skipping {path.name}: {e}", file=sys.stderr)
    backend = _make_backend(cfg)
    proposer = _make_proposer(cfg, backend)
    report = evaluate(
        items,
        threshold=cfg.confidence_threshold,
        budget=cfg.search_budget,
        passes=cfg.passes,
        samples=cfg.samples,
        connectivity=cfg.connectivity,
        backend=backend,
        proposer=proposer,
    )
    for item in report.items:
        if item.degraded:
            print(
                f"warning: task {item.task_id} test {item.test_index} ran without "
                f"its backend: {'; '.join(item.degraded)}",
                file=sys.stderr,
            )
    print(render_report(report))
    if unreadable:
        print(f"unreadable files: {unreadable}")
    summary = report_summary(report)
    summary["unreadable_files"] = unreadable
    try:
        summary_path.write_text(json.dumps(summary, indent=2) + "\n")
    except OSError as e:
        raise SymgridError(f"cannot write summary: {e}") from e
    print(f"summary written to {summary_path}")
    return 0


_COMMANDS = {
    "perceive": cmd_perceive,
    "induce": cmd_induce,
    "solve": cmd_solve,
    "eval": cmd_eval,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SymgridError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
