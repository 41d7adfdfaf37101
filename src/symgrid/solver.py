"""Test-output production: rule execution, per-pixel voting, fallback.

Attempt 1 votes per pixel over every candidate grid (rule executions
weighted by confidence, remote samples at weight 1). Candidates of
disagreeing dimensions are settled by a dimension pre-vote. When the rule
set yields nothing, the test input itself is emitted (identity fallback)
and flagged in the trace. Attempt 2, in 2-pass runs, comes from a
fallback source: the backend alone when attempt 1 was degenerate, else
the top-confidence single rule when its output differs from attempt 1.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

from .errors import BackendError, MarkdownError, PatternApplicationError
from .grid import Grid, Task, decode_markdown, encode_markdown, grids_equal
from .induction import RuleSet, induce
from .patterns import Scene, apply_pattern, format_pattern
from .search import SearchProposer

log = logging.getLogger(__name__)

VALID_SOURCES = ("rule_exec", "remote_sample")


@dataclass(frozen=True)
class Candidate:
    """One proposed answer grid with its provenance and vote weight."""

    grid: Grid
    source: str
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.source not in VALID_SOURCES:
            raise ValueError(f"unknown candidate source {self.source!r}")
        if not (math.isfinite(self.weight) and self.weight > 0):
            raise ValueError(
                f"candidate weight must be positive and finite, got {self.weight}"
            )


@dataclass
class SolveTrace:
    """What happened while answering one test input."""

    candidate_count: int = 0
    ties_resolved: int = 0
    dims_excluded: int = 0
    skipped_patterns: list[str] = field(default_factory=list)
    fired_kinds: list[str] = field(default_factory=list)
    identity_fallback: bool = False
    degraded: bool = False
    fallback_source: str | None = None
    notes: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Prediction:
    """Up to two attempt grids, pairwise distinct, plus the trace."""

    attempts: tuple[Grid, ...]
    trace: SolveTrace

    def __post_init__(self) -> None:
        if not 1 <= len(self.attempts) <= 2:
            raise ValueError("a prediction carries 1 or 2 attempts")
        if len(self.attempts) == 2 and grids_equal(self.attempts[0], self.attempts[1]):
            raise ValueError("attempts must be distinct")


def apply_ruleset(
    rs: RuleSet, test_input: Grid, trace: SolveTrace | None = None
) -> list[Candidate]:
    """Run every surviving pattern on the test input, in rule-set order.

    Each successful application becomes a candidate weighted by the
    pattern's confidence; failures are skipped with a trace note. The
    test input is perceived once, at the connectivity the rules were
    induced at, and every rule shares that segmentation of it.
    """
    scene = Scene(test_input, rs.connectivity)
    candidates: list[Candidate] = []
    for sp in rs.patterns:
        try:
            result = apply_pattern(sp.pattern, scene)
        except PatternApplicationError as e:
            if trace is not None:
                trace.skipped_patterns.append(f"{format_pattern(sp.pattern)}: {e}")
            continue
        candidates.append(Candidate(grid=result, source="rule_exec", weight=sp.confidence))
        if trace is not None:
            trace.fired_kinds.append(sp.pattern.kind)
    return candidates


def _vote(cands: list[Candidate]) -> tuple[Grid, int, int]:
    """Weighted per-pixel majority; returns (grid, ties, dims_excluded).

    The dims with the greatest total weight win, and candidates of other
    dims are excluded; a tie, of dims or of a cell's colors, goes to the
    earliest candidate holding a tied value.
    """
    if not cands:
        raise ValueError("no candidates to vote on")
    # A finite float is a dyadic rational: scaled by the common denominator,
    # every weight is an exact integer, so sums and comparisons are exact.
    ratios = [c.weight.as_integer_ratio() for c in cands]
    scale = math.lcm(*(d for _, d in ratios))
    weights = [n * (scale // d) for n, d in ratios]

    dim_weight: dict[tuple[int, int], int] = {}
    for cand, w in zip(cands, weights):
        dim_weight[cand.grid.dims] = dim_weight.get(cand.grid.dims, 0) + w
    best = max(dim_weight.values())
    tied_dims = {d for d, w in dim_weight.items() if w == best}
    win = next(c.grid.dims for c in cands if c.grid.dims in tied_dims)
    keep = [i for i, c in enumerate(cands) if c.grid.dims == win]
    n = len(keep)
    if n == 1:
        # A lone voter wins every cell outright.
        return cands[keep[0]].grid, 0, len(cands) - 1
    grids = [cands[i].grid.rows for i in keep]
    voter_weights = [weights[i] for i in keep]

    ties = 0
    rows = []
    for r in range(win[0]):
        voter_rows = [g[r] for g in grids]
        first_row = voter_rows[0]
        if voter_rows.count(first_row) == n:
            # Every voter agrees on the whole row.
            rows.append(first_row)
            continue
        row = []
        for cell in zip(*voter_rows):
            first = cell[0]
            if cell.count(first) == n:
                row.append(first)
                continue
            # Keys keep the order of first appearance, so the first key at
            # the top weight belongs to the earliest voter holding a tied color.
            tally: dict[int, int] = {}
            for color, weight in zip(cell, voter_weights):
                tally[color] = tally.get(color, 0) + weight
            top = max(tally.values())
            tops = [color for color, wt in tally.items() if wt == top]
            if len(tops) > 1:
                ties += 1
            row.append(tops[0])
        rows.append(tuple(row))
    # Every cell is a color taken from a candidate of the winning dims.
    return Grid._trusted(tuple(rows)), ties, len(cands) - n


def _backend_sample(
    backend, train_md: list[dict], test_md: str, hints: list[str], n: int
) -> list[Grid]:
    raw = backend.sample(train_md, test_md, hints, n)
    grids = []
    for text in raw:
        try:
            grids.append(decode_markdown(text))
        except MarkdownError as e:
            log.warning("dropping malformed sample grid: %s", e)
    return grids


def induce_with_fallback(
    task: Task,
    proposer,
    threshold: float = 1.0,
    budget: int = 2000,
    connectivity: int = 4,
) -> tuple[RuleSet, str | None]:
    """``induce``, under the one backend-failure policy of every command.

    When the proposer's backend fails, a warning goes to this module's
    logger and the whole task is induced again with the search proposer.
    Returns the rule set and a note on the failure for the task's traces,
    or None when the proposer did not fail.
    """
    try:
        return induce(task, proposer, threshold, budget, connectivity), None
    except BackendError as e:
        log.warning("warning: backend unavailable for induction (%s)", e)
        rs = induce(task, SearchProposer(), threshold, budget, connectivity)
        return rs, f"backend induction failed: {e}"


def solve_task(
    task: Task,
    rs: RuleSet,
    backend=None,
    passes: int = 2,
    samples: int = 5,
) -> list[Prediction]:
    """Produce one Prediction per test input.

    Backend transport failures degrade to no-backend behavior with a
    trace warning; the task is never aborted.
    """
    if passes not in (1, 2):
        raise ValueError(f"passes must be 1 or 2, got {passes}")
    # The backend gets the grids as markdown: each one is encoded once.
    train_md = None
    if backend is not None:
        train_md = [
            {"input": encode_markdown(gin), "output": encode_markdown(gout)}
            for gin, gout in task.train
        ]
    predictions = []
    for test_input, _expected in task.test:
        trace = SolveTrace()
        candidates = apply_ruleset(rs, test_input, trace=trace)

        backend_ok = backend is not None
        test_md = None if backend is None else encode_markdown(test_input)
        if backend_ok and samples > 0:
            try:
                for g in _backend_sample(backend, train_md, test_md, list(rs.hints), samples):
                    candidates.append(Candidate(grid=g, source="remote_sample", weight=1.0))
            except BackendError as e:
                trace.degraded = True
                backend_ok = False
                trace.notes.append(f"backend sampling failed: {e}")

        trace.candidate_count = len(candidates)
        if candidates:
            attempt1, ties, excluded = _vote(candidates)
            trace.ties_resolved = ties
            trace.dims_excluded = excluded
        else:
            attempt1 = test_input
            trace.identity_fallback = True

        attempts = [attempt1]
        if passes == 2:
            attempt2 = None
            degenerate = trace.identity_fallback or not rs.patterns
            if degenerate and backend_ok:
                try:
                    fallback = _backend_sample(backend, train_md, test_md, [], 1)
                    if fallback:
                        attempt2 = fallback[0]
                        trace.fallback_source = "remote"
                except BackendError as e:
                    trace.degraded = True
                    trace.notes.append(f"backend fallback failed: {e}")
            if attempt2 is None:
                # The first rule that applied: apply_ruleset's first candidate.
                top = next((c.grid for c in candidates if c.source == "rule_exec"), None)
                if top is not None and not grids_equal(top, attempt1):
                    attempt2 = top
                    trace.fallback_source = "top_rule"
            if attempt2 is not None and not grids_equal(attempt2, attempt1):
                attempts.append(attempt2)
        predictions.append(Prediction(attempts=tuple(attempts), trace=trace))
    return predictions


# ---------------------------------------------------------------------------
# Dataset evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ItemResult:
    task_id: str
    test_index: int
    correct: bool | None  # None = skipped (no expected output)
    attempts_used: int
    fired_kinds: tuple[str, ...]
    # Why the item ran without its backend, empty when it did not: the
    # induction fallback's failure, then the prediction trace's notes.
    degraded: tuple[str, ...] = ()


@dataclass(frozen=True)
class EvalReport:
    items: tuple[ItemResult, ...]
    scored: int
    correct: int
    skipped: int
    candidate_total: int
    kind_hits: tuple[tuple[str, int], ...]

    @property
    def accuracy(self) -> float:
        return self.correct / self.scored if self.scored else 0.0


def evaluate(
    items: list[tuple[str, Task]],
    *,
    threshold: float = 1.0,
    budget: int = 2000,
    passes: int = 1,
    samples: int = 5,
    connectivity: int = 4,
    backend=None,
    proposer=None,
) -> EvalReport:
    """Score tasks by exact match: a test item is correct iff any attempt
    equals its expected grid. Items without expected outputs are skipped
    and counted. Every item is scored, also when task ids repeat; results
    are reported by task id, and items that share one stay in input
    order. A backend failure while inducing a task degrades it as in
    ``induce_with_fallback``; each item records in ``degraded`` why it ran
    without its backend. Deterministic given config and backend
    transcripts."""
    if proposer is None:
        proposer = SearchProposer()

    # Tasks run in input order: a replayed backend answers identical
    # requests first in, first out.
    in_order: list[ItemResult] = []
    candidate_total = 0
    for task_id, task in items:
        rs, failure = induce_with_fallback(task, proposer, threshold, budget, connectivity)
        preds = solve_task(task, rs, backend, passes, samples)
        induction = () if failure is None else (failure,)
        for idx, ((_, expected), pred) in enumerate(zip(task.test, preds)):
            candidate_total += pred.trace.candidate_count
            if expected is None:
                correct: bool | None = None
            else:
                correct = any(grids_equal(a, expected) for a in pred.attempts)
            in_order.append(
                ItemResult(
                    task_id=task_id,
                    test_index=idx,
                    correct=correct,
                    attempts_used=len(pred.attempts),
                    fired_kinds=tuple(dict.fromkeys(pred.trace.fired_kinds)),
                    degraded=induction + tuple(pred.trace.notes),
                )
            )

    # A stable sort: items that share a task id keep their input order.
    all_items = sorted(in_order, key=lambda i: i.task_id)
    kind_counts: dict[str, int] = {}
    for item in all_items:
        if item.correct:
            for kind in item.fired_kinds:
                kind_counts[kind] = kind_counts.get(kind, 0) + 1

    scored = sum(1 for i in all_items if i.correct is not None)
    correct = sum(1 for i in all_items if i.correct)
    skipped = sum(1 for i in all_items if i.correct is None)
    return EvalReport(
        items=tuple(all_items),
        scored=scored,
        correct=correct,
        skipped=skipped,
        candidate_total=candidate_total,
        kind_hits=tuple(sorted(kind_counts.items())),
    )


def render_report(report: EvalReport) -> str:
    """Line-oriented report: one line per test item plus the aggregate."""
    lines = []
    for item in report.items:
        flag = "skip" if item.correct is None else ("ok" if item.correct else "miss")
        kinds = ",".join(item.fired_kinds) or "-"
        lines.append(
            f"task {item.task_id} test {item.test_index}: {flag} "
            f"attempts={item.attempts_used} kinds={kinds}"
        )
    lines.append(
        f"accuracy: {report.correct}/{report.scored} = {report.accuracy:.4f} "
        f"(skipped {report.skipped})"
    )
    if report.kind_hits:
        lines.append(
            "kind hits: " + " ".join(f"{k}={n}" for k, n in report.kind_hits)
        )
    lines.append(f"candidates: {report.candidate_total}")
    return "\n".join(lines)


def report_summary(report: EvalReport) -> dict:
    """Machine-readable summary document for the report. An item that ran
    without its backend also lists why, under ``degraded``."""
    return {
        "accuracy": report.accuracy,
        "correct": report.correct,
        "scored": report.scored,
        "skipped": report.skipped,
        "candidate_total": report.candidate_total,
        "kind_hits": {k: n for k, n in report.kind_hits},
        "items": [
            {
                "task_id": i.task_id,
                "test_index": i.test_index,
                "correct": i.correct,
                "attempts_used": i.attempts_used,
                "kinds_fired": list(i.fired_kinds),
                **({"degraded": list(i.degraded)} if i.degraded else {}),
            }
            for i in report.items
        ],
    }
