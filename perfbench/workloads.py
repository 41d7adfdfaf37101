"""The benchmark's three workloads, built from public symgrid names only.

Each builder returns a ``Workload``: the tasks in their canonical order,
the outcome each task must have, and how ``evaluate`` is to be called on
them.  Building one is the benchmark's set-up; nothing here is timed as
part of a task.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

from symgrid import (
    Grid,
    Selector,
    SymgridError,
    Task,
    UnitPattern,
    apply_pattern,
    encode_markdown,
    enumerate_candidates,
    format_pattern,
    grids_equal,
    make_pattern,
)
from symgrid.induction import synthesize_hint
from symgrid.taskgen import generate_suite

# The ROADMAP's north-star suite.  Its task set stays the same on every
# benchmark seed: per-task cost is bimodal (dense isometry tasks take
# 10-30x longer than the rest), so on a suite drawn afresh from each seed
# the median task latency moved by more than half between seeds.
SUITE_SEED = 1007
SUITE_PLANTED = 100
SUITE_NOISE = 20
# large_scenes uses one fixed set of scenes for the same reason.
SCENES_SEED = 2024
SCENES_TASKS = 20
LARGE_PAIRS = 2
BUDGET = 2000
REPLAY_SAMPLES = 5


@dataclass
class Workload:
    """Tasks in canonical order plus the settings ``evaluate`` runs with.

    ``expect[task_id]`` is True when the task must be solved and False
    when it must not be.  ``transcript`` is set for the replay workload:
    every pass builds a fresh replaying backend from it.  ``generate_s``
    is the part of the build spent generating tasks.
    """

    tasks: list[tuple[str, Task]]
    expect: dict[str, bool]
    generate_s: float
    passes: int = 1
    transcript: Path | None = None


def closure_suite(seed: int, out_dir: Path) -> Workload:
    """The fixed suite: 100 planted tasks (all solvable), 20 noise tasks."""
    start = time.perf_counter()
    suite = generate_suite(SUITE_SEED, SUITE_PLANTED, SUITE_NOISE)
    return Workload(
        tasks=[(tid, task) for tid, task, _ in suite],
        expect={tid: planted is not None for tid, _, planted in suite},
        generate_s=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# large_scenes
# ---------------------------------------------------------------------------

# One planted pattern per task, cycled so every scene set has the same mix
# of whole-grid and object-level kinds.
LARGE_KINDS = (
    "reflect_h",
    "rotate90",
    "recolor",
    "translate",
    "delete_object",
    "cavity_fill",
    "draw_bbox_border",
    "gravity_shift",
    "rotate180",
    "reflect_v",
)

Cells = set[tuple[int, int]]


def _blob(rng: random.Random, n_cells: int) -> Cells:
    cells = {(0, 0)}
    while len(cells) < n_cells:
        r, c = rng.choice(sorted(cells))
        dr, dc = rng.choice(((-1, 0), (1, 0), (0, -1), (0, 1)))
        cells.add((r + dr, c + dc))
    top = min(r for r, _ in cells)
    left = min(c for _, c in cells)
    return {(r - top, c - left) for r, c in cells}


def _ring(rng: random.Random) -> Cells:
    """Rectangular frame of thickness one, so it has one cavity."""
    h, w = rng.randint(3, 6), rng.randint(3, 6)
    return {
        (r, c) for r in range(h) for c in range(w) if r in (0, h - 1) or c in (0, w - 1)
    }


def _scene(
    rng: random.Random, palette: list[int], gap: int, margin: tuple[int, int, int, int]
) -> Grid | None:
    """A 20-30 side canvas with 6-12 separated blobs and rings.

    Colors cycle through the palette so each palette color is present.
    ``margin`` (top, left, bottom, right) keeps objects clear of the edges
    a planted move would push them over.  Returns None when the objects do
    not fit, so the caller draws again.
    """
    h, w = rng.randint(20, 30), rng.randint(20, 30)
    n = rng.randint(6, 12)
    top, left, bottom, right = margin
    canvas = [[0] * w for _ in range(h)]
    blocked: Cells = set()
    for i in range(n):
        cells = _ring(rng) if i % 3 == 0 else _blob(rng, rng.randint(3, 10))
        color = palette[i % len(palette)]
        bh = max(r for r, _ in cells) + 1
        bw = max(c for _, c in cells) + 1
        for _ in range(40):
            r0 = rng.randint(top, h - bottom - bh)
            c0 = rng.randint(left, w - right - bw)
            placed = {(r + r0, c + c0) for r, c in cells}
            if not placed & blocked:
                break
        else:
            return None
        for r, c in placed:
            canvas[r][c] = color
        blocked |= {
            (r + dr, c + dc)
            for r, c in placed
            for dr in range(-gap, gap + 1)
            for dc in range(-gap, gap + 1)
        }
    return Grid(tuple(tuple(row) for row in canvas))


def _planted(rng: random.Random, kind: str, palette: list[int]) -> UnitPattern:
    ink = rng.choice([c for c in range(1, 10) if c not in palette])
    if kind == "recolor":
        return make_pattern("recolor", src=palette[0], dst=ink)
    if kind == "translate":
        dx, dy = rng.choice([(d, e) for d in (-2, -1, 0, 1, 2) for e in (-2, -1, 0, 1, 2) if (d, e) != (0, 0)])
        return make_pattern("translate", dx=dx, dy=dy, selector=Selector("color", palette[0]))
    if kind == "delete_object":
        return make_pattern("delete_object", selector=Selector("color", palette[0]))
    if kind == "cavity_fill":
        return make_pattern("cavity_fill", color=ink)
    if kind == "draw_bbox_border":
        return make_pattern("draw_bbox_border", color=ink, selector=Selector("size_rank", 0))
    if kind == "gravity_shift":
        return make_pattern("gravity_shift", dir=rng.choice(("up", "down", "left", "right")))
    return make_pattern(kind)


def _fixes_answer(task: Task, planted: UnitPattern) -> bool:
    """The closure rule of ``symgrid.taskgen``, plus planted-pattern recall.

    The search must find the planted pattern exact on every train pair,
    and every pattern it finds exact on all of them must reproduce each
    test output or fail to apply there.  Then the train pairs fix the test
    answer and the solver must solve the task.
    """
    common: dict[str, UnitPattern] | None = None
    for pair in task.train:
        exact = {
            format_pattern(fp.pattern): fp.pattern
            for fp in enumerate_candidates(pair, BUDGET)
            if fp.exact
        }
        common = exact if common is None else {k: p for k, p in common.items() if k in exact}
    assert common is not None
    if format_pattern(planted) not in common:
        return False
    for pattern in common.values():
        for test_input, expected in task.test:
            try:
                result = apply_pattern(pattern, test_input)
            except SymgridError:
                continue
            if not grids_equal(result, expected):
                return False
    return True


def _large_task(rng: random.Random, kind: str) -> Task:
    for _ in range(200):
        palette = rng.sample(range(1, 10), 4)
        pattern = _planted(rng, kind, palette)
        margin = (0, 0, 0, 0)
        gap = 1
        if kind == "translate":
            dx, dy = pattern["dx"], pattern["dy"]
            margin = (max(0, -dy), max(0, -dx), max(0, dy), max(0, dx))
            gap = abs(dx) + abs(dy) + 1
        pairs = []
        while len(pairs) < LARGE_PAIRS + 1:
            g = _scene(rng, palette, gap, margin)
            if g is None:
                continue
            try:
                out = apply_pattern(pattern, g)
            except SymgridError:
                break
            if grids_equal(out, g):
                break
            pairs.append((g, out))
        if len(pairs) < LARGE_PAIRS + 1:
            continue
        task = Task(train=tuple(pairs[:-1]), test=(pairs[-1],))
        if _fixes_answer(task, pattern):
            return task
    raise RuntimeError(f"no large scene task for {kind!r}")


def large_scenes(seed: int, out_dir: Path) -> Workload:
    """20 tasks on 20-30 side canvases, one planted pattern each."""
    start = time.perf_counter()
    rng = random.Random(SCENES_SEED)
    tasks = []
    for i in range(SCENES_TASKS):
        kind = LARGE_KINDS[i % len(LARGE_KINDS)]
        tasks.append((f"scene_{i:02d}_{kind}", _large_task(rng, kind)))
    return Workload(
        tasks=tasks,
        expect={tid: True for tid, _ in tasks},
        generate_s=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# backend_replay
# ---------------------------------------------------------------------------

# Lines every propose response carries besides the planted one.  Two are
# valid patterns; two are dropped by the parser with a warning, one as
# unparseable and one as breaking the parameter contract (scale factors
# start at 2).
DISTRACTORS = (
    "rotate180()@all",
    "delete_object()@color=3",
    "scale_up(factor=1)@all",
    "not a pattern line",
)


def _noisy(g: Grid, start: int, copy: int, changed: int) -> str:
    """``g`` with ``changed`` cells recolored, as markdown.

    Copy ``k`` recolors the ``changed`` cells that follow cell
    ``start + k * changed`` in row-major order, to color ``v + 1 + k``.
    Copies sharing one ``start`` change different cells to different
    colors, so no wrong color gathers more than one sample's vote in a
    cell.
    """
    rows = [list(row) for row in g.rows]
    w = g.width
    n = g.height * w
    for j in range(changed):
        r, c = divmod((start + copy * changed + j) % n, w)
        rows[r][c] = (rows[r][c] + 1 + copy) % 10
    return encode_markdown(Grid(tuple(tuple(row) for row in rows)))


def _other_dims(rng: random.Random, g: Grid) -> str:
    h = g.height + 1 if g.height < 30 else g.height - 1
    return encode_markdown(
        Grid(tuple(tuple(rng.randrange(10) for _ in range(g.width)) for _ in range(h)))
    )


def write_transcript(
    rng: random.Random,
    suite: list[tuple[str, Task, UnitPattern | None]],
    path: Path,
) -> None:
    """Record what a remote proposer and sampler would answer on the suite.

    Propose: the planted line (planted tasks only) plus the distractors.
    Sample: four copies of the expected answer with two cells changed
    each, plus one grid of other dimensions, so the per-pixel vote
    recovers the answer and the dimension pre-vote has work.  Noise tasks
    induce no rule, so their second pass asks again with ``hints: []``
    for one grid, the answer with one cell changed.
    """
    lines = []

    def record(request: dict, response: dict) -> None:
        lines.append(json.dumps({"request": request, "response": response}))

    for _, task, planted in suite:
        train_md = [
            {"input": encode_markdown(gin), "output": encode_markdown(gout)}
            for gin, gout in task.train
        ]
        patterns = [format_pattern(planted)] if planted is not None else []
        patterns.extend(DISTRACTORS)
        for pair in train_md:
            record(
                {"mode": "propose", "input": pair["input"], "output": pair["output"], "budget": BUDGET},
                {"patterns": patterns},
            )
        hints = [synthesize_hint(planted)] if planted is not None else []
        for test_input, expected in task.test:
            assert expected is not None
            start = rng.randrange(expected.height * expected.width)
            grids = [_noisy(expected, start, k, 2) for k in range(4)]
            grids.append(_other_dims(rng, expected))
            base = {"mode": "sample", "train": train_md, "test_input": encode_markdown(test_input)}
            record({**base, "hints": hints, "samples": REPLAY_SAMPLES}, {"grids": grids})
            if planted is None:
                record({**base, "hints": [], "samples": 1}, {"grids": [_noisy(expected, start, 0, 1)]})
    path.write_text("\n".join(lines) + "\n")


def backend_replay(seed: int, out_dir: Path) -> Workload:
    """The fixed suite answered through a replayed remote backend.

    Every task must be solved: the replayed samples carry the answer even
    for the noise tasks, which no rule explains.
    """
    start = time.perf_counter()
    suite = generate_suite(SUITE_SEED, SUITE_PLANTED, SUITE_NOISE)
    generate_s = time.perf_counter() - start
    path = out_dir / f"transcript_seed{seed}.jsonl"
    write_transcript(random.Random(seed), suite, path)
    return Workload(
        tasks=[(tid, task) for tid, task, _ in suite],
        expect={tid: True for tid, _, _ in suite},
        generate_s=generate_s,
        passes=2,
        transcript=path,
    )


BUILDERS = {
    "closure_suite": closure_suite,
    "large_scenes": large_scenes,
    "backend_replay": backend_replay,
}
