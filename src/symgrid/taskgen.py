"""Synthetic tasks within taxonomy closure, plus guaranteed-noise tasks.

A planted task fixes one unit pattern and draws its train and test
pairs. Each kind's planter returns that pattern, a kind-specific input
sampler and the kind's competitors: canonically earlier patterns that
could coincide with it (e.g. a rotation-symmetric grid makes two
rotations indistinguishable). One sampling loop derives each output by
applying the pattern and rejects degenerate draws: identity
applications, and outputs a competitor reproduces. Those rejections
keep the planted pattern the unique cheapest explanation, which is what
a closure benchmark needs.

Noise tasks are out of closure by construction: every output has both
dimensions one larger than its input (killing the dimension-derived
kinds: same-dims kinds, rotations, scaling, tiling, halving) and uses a
disjoint color range (killing content-preserving crops and selections),
so no unit pattern can even partially explain a pair.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import SymgridError
from .grid import Grid, Task, grids_equal
from .induction import induce
from .patterns import (
    AXES,
    DIRECTIONS,
    KIND_ORDER,
    _DELTAS,
    Scene,
    Selector,
    UnitPattern,
    apply_pattern,
    make_pattern,
)
from .perception import segment
from .search import SearchProposer

Cells = set[tuple[int, int]]

_ISOMETRY_KINDS = ("reflect_h", "reflect_v", "rotate90", "rotate180", "rotate270")


@dataclass(frozen=True)
class PlantedTask:
    task: Task
    pattern: UnitPattern


# ---------------------------------------------------------------------------
# Scene building blocks
# ---------------------------------------------------------------------------


def _dense_grid(rng: random.Random, min_side=3, max_side=8, palette=None) -> Grid:
    """Random rectangle with at least two distinct colors present."""
    h = rng.randint(min_side, max_side)
    w = rng.randint(min_side, max_side)
    if palette is None:
        palette = rng.sample(range(10), rng.randint(3, 5))
    while True:
        rows = [[rng.choice(palette) for _ in range(w)] for _ in range(h)]
        if len({v for row in rows for v in row}) >= 2:
            return Grid.from_rows(rows)


def _blob(rng: random.Random, n_cells: int) -> Cells:
    """Random connected polyomino, normalized to origin."""
    cells = {(0, 0)}
    while len(cells) < n_cells:
        r, c = rng.choice(sorted(cells))
        dr, dc = rng.choice(((-1, 0), (1, 0), (0, -1), (0, 1)))
        cells.add((r + dr, c + dc))
    top = min(r for r, _ in cells)
    left = min(c for _, c in cells)
    return {(r - top, c - left) for r, c in cells}


def _rect_ring(rng: random.Random) -> Cells:
    """Rectangular frame of thickness one; has exactly one cavity."""
    h = rng.randint(3, 5)
    w = rng.randint(3, 5)
    return {
        (r, c)
        for r in range(h)
        for c in range(w)
        if r in (0, h - 1) or c in (0, w - 1)
    }


def _rect(rng: random.Random) -> Cells:
    h = rng.randint(1, 3)
    w = rng.randint(1, 3)
    return {(r, c) for r in range(h) for c in range(w)}


def _inflate(cells: Cells, gap: int) -> Cells:
    return {
        (r + dr, c + dc)
        for r, c in cells
        for dr in range(-gap, gap + 1)
        for dc in range(-gap, gap + 1)
    }


def _place(
    rng: random.Random,
    h: int,
    w: int,
    pieces: list[tuple[Cells, int]],
    gap: int = 1,
    region: tuple[int, int, int, int] | None = None,
) -> Grid | None:
    """Drop shapes onto a background-0 canvas with pairwise separation.

    Returns None when a piece cannot be placed, so callers can resample.
    """
    r0, c0, r1, c1 = region if region else (0, 0, h - 1, w - 1)
    canvas = [[0] * w for _ in range(h)]
    blocked: Cells = set()
    for cells, color in pieces:
        bh = max(r for r, _ in cells) + 1
        bw = max(c for _, c in cells) + 1
        if r1 - r0 + 1 < bh or c1 - c0 + 1 < bw:
            return None
        placed = False
        for _ in range(40):
            top = rng.randint(r0, r1 - bh + 1)
            left = rng.randint(c0, c1 - bw + 1)
            abs_cells = {(r + top, c + left) for r, c in cells}
            if abs_cells & blocked:
                continue
            for r, c in abs_cells:
                canvas[r][c] = color
            blocked |= _inflate(abs_cells, gap)
            placed = True
            break
        if not placed:
            return None
    return Grid.from_rows(canvas)


def _move_region(h: int, w: int, dx: int, dy: int) -> tuple[int, int, int, int]:
    """The part of an h x w canvas a shape stays on when moved by dx
    columns and dy rows, as a ``_place`` region."""
    return (max(0, -dy), max(0, -dx), h - 1 - max(0, dy), w - 1 - max(0, dx))


def _colors(rng: random.Random, n: int, exclude: set[int] = frozenset()) -> list[int]:
    pool = [c for c in range(1, 10) if c not in exclude]
    return rng.sample(pool, n)


# ---------------------------------------------------------------------------
# Coincidence rejection
# ---------------------------------------------------------------------------


def _same_dims_competitors(exclude_kind: str) -> list[UnitPattern]:
    pats = [make_pattern(k) for k in _ISOMETRY_KINDS if k != exclude_kind]
    if exclude_kind != "symmetry_complete":
        pats.append(make_pattern("symmetry_complete", axis="h"))
        pats.append(make_pattern("symmetry_complete", axis="v"))
    return pats


# ---------------------------------------------------------------------------
# Per-kind planters: (pattern, input sampler, competitors). A sampler
# returns None for a draw it rejects itself; _sample_pair does the rest.
# ---------------------------------------------------------------------------


def _plant_isometry(rng, kind):
    pattern = make_pattern(kind)
    competitors = _same_dims_competitors(kind)

    def sample(rng):
        return _dense_grid(rng)

    return pattern, sample, competitors


def _plant_crop(rng, kind):
    pattern = make_pattern("crop_to_content")

    def sample(rng):
        h = rng.randint(6, 12)
        w = rng.randint(6, 12)
        shapes = [(_blob(rng, rng.randint(2, 5)), color) for color in _colors(rng, 2)]
        pad = rng.randint(1, 2)
        return _place(rng, h, w, shapes, region=(pad, pad, h - 1 - pad, w - 1 - pad))

    return pattern, sample, ()


def _plant_symmetry(rng, kind):
    axis = rng.choice(AXES)
    pattern = make_pattern("symmetry_complete", axis=axis)
    competitors = [make_pattern(k) for k in _ISOMETRY_KINDS]
    competitors.append(
        make_pattern("symmetry_complete", axis="v" if axis == "h" else "h")
    )

    def sample(rng):
        h = rng.randint(4, 9)
        w = rng.randint(4, 9)
        palette = _colors(rng, 3)
        rows = [[0] * w for _ in range(h)]
        filled = 0
        for r in range(h):
            for c in range(w // 2 if axis == "h" else w):
                if axis == "v" and r >= h // 2:
                    continue
                if rng.random() < 0.5:
                    rows[r][c] = rng.choice(palette)
                    filled += 1
        if filled < 2:
            return None
        return Grid.from_rows(rows)

    return pattern, sample, competitors


def _plant_scale_up(rng, kind):
    factor = rng.choice((2, 3))
    pattern = make_pattern("scale_up", factor=factor)

    def sample(rng):
        return _dense_grid(rng, 2, min(8, 30 // factor))

    return pattern, sample, ()


def _plant_scale_down(rng, kind):
    factor = rng.choice((2, 3))
    pattern = make_pattern("scale_down", factor=factor)
    blow = make_pattern("scale_up", factor=factor)

    def sample(rng):
        base = _dense_grid(rng, 2, min(8, 30 // factor))
        return apply_pattern(blow, base)

    return pattern, sample, ()


def _plant_tile(rng, kind):
    shapes = [(1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (2, 3), (3, 2)]
    rows, cols = rng.choice(shapes)
    pattern = make_pattern("tile_grid", rows=rows, cols=cols)

    def sample(rng):
        return _dense_grid(rng, 2, min(8, 30 // max(rows, cols), 30 // rows, 30 // cols))

    return pattern, sample, ()


def _plant_overlay(rng, kind):
    axis = rng.choice(AXES)
    pattern = make_pattern("overlay_pairs", axis=axis)
    competitors = [
        make_pattern("crop_to_content"),
        make_pattern("select_largest"),
        make_pattern("select_smallest"),
    ]

    def sample(rng):
        h = rng.randint(3, 8)
        w = rng.randint(3, 7)
        palette = _colors(rng, 3)

        def half():
            return [
                [rng.choice(palette) if rng.random() < 0.4 else 0 for _ in range(w)]
                for _ in range(h)
            ]

        a, b = half(), half()
        if axis == "h":
            rows = [ra + rb for ra, rb in zip(a, b)]
        else:
            rows = a + b
        return Grid.from_rows(rows)

    return pattern, sample, competitors


def _plant_select(rng, kind):
    pattern = make_pattern(kind)

    def sample(rng):
        n = rng.randint(2, 4)
        sizes = rng.sample(range(2, 9), n)
        colors = _colors(rng, n)
        shapes = [(_blob(rng, s), c) for s, c in zip(sizes, colors)]
        g = _place(rng, rng.randint(8, 14), rng.randint(8, 14), shapes)
        if g is None:
            return None
        if len({o.size for o in segment(g).objects}) != n:
            return None
        return g

    return pattern, sample, ()


def _plant_count(rng, kind):
    n = rng.randint(2, 6)
    scene_colors = _colors(rng, min(n, 3))
    target = rng.choice([c for c in range(1, 10) if c not in scene_colors])
    pattern = make_pattern("count_encode", color=target)

    def sample(rng):
        shapes = [
            (_blob(rng, rng.randint(2, 4)), rng.choice(scene_colors))
            for _ in range(n)
        ]
        g = _place(rng, rng.randint(8, 14), rng.randint(8, 14), shapes)
        if g is None or len(segment(g).objects) != n:
            return None
        return g

    return pattern, sample, ()


def _plant_recolor(rng, kind):
    src, other = _colors(rng, 2)
    dst = rng.choice([c for c in range(1, 10) if c != src])
    pattern = make_pattern("recolor", src=src, dst=dst)
    competitors = _same_dims_competitors("recolor")

    def sample(rng):
        shapes = [
            (_blob(rng, rng.randint(2, 5)), src),
            (_blob(rng, rng.randint(2, 5)), other),
        ]
        return _place(rng, rng.randint(7, 12), rng.randint(7, 12), shapes)

    return pattern, sample, competitors


def _plant_palette_swap(rng, kind):
    a, b, c = _colors(rng, 3)
    mapping = tuple(sorted(((a, b), (b, a))))
    pattern = make_pattern("palette_swap", map=mapping)
    competitors = _same_dims_competitors("palette_swap")

    def sample(rng):
        g = _dense_grid(rng, 3, 8, palette=[a, b, c])
        present = {v for row in g.rows for v in row}
        if a not in present or b not in present:
            return None
        return g

    return pattern, sample, competitors


def _plant_translate(rng, kind):
    dx = rng.randint(-3, 3)
    dy = rng.randint(-3, 3)
    if (dx, dy) == (0, 0):
        dx = 1
    by_color = rng.random() < 0.4
    moving, static = _colors(rng, 2)
    selector = Selector("color", moving) if by_color else Selector("all")
    pattern = make_pattern("translate", dx=dx, dy=dy, selector=selector)
    competitors = _same_dims_competitors("translate")

    def sample(rng):
        h = rng.randint(9, 14)
        w = rng.randint(9, 14)
        gap = abs(dx) + abs(dy) + 1
        shapes = [(_blob(rng, rng.randint(2, 4)), moving)]
        if by_color:
            shapes.append((_blob(rng, rng.randint(2, 4)), static))
        elif rng.random() < 0.5:
            shapes.append((_blob(rng, rng.randint(2, 4)), moving))
        g = _place(rng, h, w, shapes, gap=gap, region=_move_region(h, w, dx, dy))
        if g is None:
            return None
        n_in = len(segment(g).objects)
        out = apply_pattern(pattern, g)
        if len(segment(out).objects) != n_in:
            return None  # a move merged or clipped something
        return g

    return pattern, sample, competitors


def _plant_delete(rng, kind):
    pattern = make_pattern("delete_object", selector=Selector("size_rank", 0))
    color = _colors(rng, 1)[0]
    competitors = _same_dims_competitors("delete_object")

    def sample(rng):
        n = rng.randint(2, 3)
        sizes = rng.sample(range(2, 8), n)
        shapes = [(_blob(rng, s), color) for s in sizes]
        g = _place(rng, rng.randint(8, 13), rng.randint(8, 13), shapes)
        if g is None:
            return None
        objs = segment(g).objects
        if len(objs) != n or len({o.size for o in objs}) != n:
            return None
        return g

    return pattern, sample, competitors


def _plant_duplicate(rng, kind):
    dx = rng.choice((-5, -4, 4, 5))
    dy = rng.randint(-2, 2)
    pattern = make_pattern("duplicate_object", dx=dx, dy=dy)
    color = _colors(rng, 1)[0]
    competitors = _same_dims_competitors("duplicate_object")

    def sample(rng):
        h = rng.randint(10, 14)
        w = rng.randint(10, 14)
        shape = _blob(rng, rng.randint(2, 4))
        g = _place(rng, h, w, [(shape, color)], region=_move_region(h, w, dx, dy))
        if g is None:
            return None
        out = apply_pattern(pattern, g)
        objs = segment(out).objects
        if len(objs) != 2 or objs[0].shape != objs[1].shape:
            return None  # copy clipped, or merged with the original
        return g

    return pattern, sample, competitors


def _plant_cavity(rng, kind):
    fill = rng.randint(1, 9)
    pattern = make_pattern("cavity_fill", color=fill)
    competitors = _same_dims_competitors("cavity_fill")
    competitors.append(make_pattern("draw_bbox_border", color=fill))

    ring_colors = _colors(rng, 2, exclude={fill})

    def sample(rng):
        # Two differently colored rings keep the 'all' selector distinct
        # from every color selector on each train scene.
        shapes: list[tuple[Cells, int]] = [
            (_rect_ring(rng), ring_colors[0]),
            (_rect_ring(rng), ring_colors[1]),
        ]
        if rng.random() < 0.5:
            shapes.append((_blob(rng, rng.randint(2, 4)), ring_colors[1]))
        return _place(rng, rng.randint(11, 14), rng.randint(11, 14), shapes)

    return pattern, sample, competitors


def _plant_gravity(rng, kind):
    direction = rng.choice(DIRECTIONS)
    pattern = make_pattern("gravity_shift", dir=direction)
    # A uniform slide is a translation, which outranks gravity. Sides are
    # at most 13, so a translation by 13 or more clears the canvas, which
    # a slide never does.
    dr, dc = _DELTAS[direction]
    competitors = _same_dims_competitors("gravity_shift") + [
        make_pattern("translate", dx=dc * d, dy=dr * d) for d in range(1, 13)
    ]

    def sample(rng):
        n = rng.randint(2, 3)
        colors = _colors(rng, n)
        shapes = [(_blob(rng, rng.randint(2, 4)), c) for c in colors]
        return _place(rng, rng.randint(8, 13), rng.randint(8, 13), shapes, gap=2)

    return pattern, sample, competitors


def _plant_border(rng, kind):
    ink = rng.randint(1, 9)
    scene_colors = _colors(rng, 2, exclude={ink})
    pattern = make_pattern("draw_bbox_border", color=ink)
    competitors = _same_dims_competitors("draw_bbox_border")
    competitors.append(make_pattern("connect_objects", color=ink))

    def sample(rng):
        # Two differently colored blobs on every scene so the planted
        # 'all' selector never collapses into a color or rank selector.
        shapes = [(_blob(rng, rng.randint(3, 6)), c) for c in scene_colors]
        return _place(rng, rng.randint(10, 13), rng.randint(10, 13), shapes, gap=2)

    return pattern, sample, competitors


def _plant_connect(rng, kind):
    ink = rng.randint(1, 9)
    pattern = make_pattern("connect_objects", color=ink)
    scene_colors = _colors(rng, 2, exclude={ink})
    competitors = _same_dims_competitors("connect_objects")
    competitors.append(make_pattern("draw_bbox_border", color=ink))

    def sample(rng):
        h = rng.randint(8, 12)
        w = rng.randint(10, 14)
        a = _rect(rng)
        b = _rect(rng)
        ah = max(r for r, _ in a) + 1
        bh = max(r for r, _ in b) + 1
        aw = max(c for _, c in a) + 1
        top = rng.randint(0, h - max(ah, bh))
        left_b = aw + rng.randint(2, 4)
        bw = max(c for _, c in b) + 1
        if left_b + bw > w:
            return None
        rows = [[0] * w for _ in range(h)]
        for r, c in a:
            rows[top + r][c] = scene_colors[0]
        for r, c in b:
            rows[top + r][left_b + c] = scene_colors[1]
        return Grid.from_rows(rows)

    return pattern, sample, competitors


_PLANTERS = {
    "reflect_h": _plant_isometry,
    "reflect_v": _plant_isometry,
    "rotate90": _plant_isometry,
    "rotate180": _plant_isometry,
    "rotate270": _plant_isometry,
    "crop_to_content": _plant_crop,
    "symmetry_complete": _plant_symmetry,
    "scale_up": _plant_scale_up,
    "scale_down": _plant_scale_down,
    "tile_grid": _plant_tile,
    "overlay_pairs": _plant_overlay,
    "select_largest": _plant_select,
    "select_smallest": _plant_select,
    "count_encode": _plant_count,
    "recolor": _plant_recolor,
    "palette_swap": _plant_palette_swap,
    "translate": _plant_translate,
    "delete_object": _plant_delete,
    "duplicate_object": _plant_duplicate,
    "cavity_fill": _plant_cavity,
    "gravity_shift": _plant_gravity,
    "draw_bbox_border": _plant_border,
    "connect_objects": _plant_connect,
}


def _in_closure(task: Task, budget: int = 2000) -> bool:
    """Closure membership: exactly-one-rule solvability.

    Every pattern that is exact on all train pairs (an exact rule of
    ``induce`` at threshold 1.0) must also reproduce the expected output
    on every test input (or fail to apply there, in which case it yields
    no candidate). Otherwise the train pairs do not determine the test
    answer and the task is ambiguous.
    """
    rs = induce(task, SearchProposer(), budget=budget)
    for sp in rs.patterns:
        if not sp.exact:
            continue
        for test_input, expected in task.test:
            assert expected is not None
            try:
                result = apply_pattern(sp.pattern, test_input)
            except SymgridError:
                continue
            if not grids_equal(result, expected):
                return False
    return True


def _sample_pair(rng, pattern, sampler, competitors) -> tuple[Grid, Grid] | None:
    """Up to 60 draws for one (input, output) pair, or None.

    A draw is rejected when the sampler gives None, the pattern does not
    apply or leaves the input unchanged, or a competitor reproduces the
    output.
    """
    for _ in range(60):
        g = sampler(rng)
        if g is None:
            continue
        scene = Scene(g)
        try:
            out = apply_pattern(pattern, scene)
        except SymgridError:
            continue
        if grids_equal(out, g):
            continue
        for rival in competitors:
            try:
                if grids_equal(apply_pattern(rival, scene), out):
                    break
            except SymgridError:
                continue
        else:
            return g, out
    return None


def generate_planted_task(
    rng: random.Random,
    kind: str | None = None,
    train_pairs: int = 3,
    n_test: int = 1,
) -> PlantedTask:
    """One task whose every pair is explained by a single planted pattern."""
    for _ in range(100):
        k = kind if kind is not None else rng.choice(KIND_ORDER)
        pattern, sampler, competitors = _PLANTERS[k](rng, k)
        pairs = []
        for _ in range(train_pairs + n_test):
            pair = _sample_pair(rng, pattern, sampler, competitors)
            if pair is None:
                break
            pairs.append(pair)
        if len(pairs) < train_pairs + n_test:
            continue
        task = Task(train=tuple(pairs[:train_pairs]), test=tuple(pairs[train_pairs:]))
        if not _in_closure(task):
            continue
        return PlantedTask(task=task, pattern=pattern)
    raise RuntimeError(f"could not generate a planted task for kind {kind!r}")


def generate_noise_task(rng: random.Random, train_pairs: int = 3) -> Task:
    """A task no unit pattern can explain, even partially.

    Outputs are one row and one column larger than their inputs (for
    h >= 3, h+1 is never a multiple or divisor of h, never a transpose,
    and never a half), and drawn from the 5..9 color range while inputs
    stay in 0..4, so crop/select/scale outputs can never contain the
    required colors. Every candidate list is therefore empty and the
    solver falls back to the identity, which never matches either.
    """

    def pair():
        h = rng.randint(3, 8)
        w = rng.randint(3, 8)
        gin = Grid.from_rows(
            [[rng.randint(0, 4) for _ in range(w)] for _ in range(h)]
        )
        while True:
            rows = [[rng.randint(5, 9) for _ in range(w + 1)] for _ in range(h + 1)]
            if len({v for row in rows for v in row}) >= 2:
                return gin, Grid.from_rows(rows)

    train = tuple(pair() for _ in range(train_pairs))
    test = (pair(),)
    return Task(train=train, test=test)


def generate_suite(
    seed: int,
    n_planted: int,
    n_noise: int = 0,
    kinds: tuple[str, ...] | None = None,
) -> list[tuple[str, Task, UnitPattern | None]]:
    """Deterministic benchmark suite: (task_id, task, planted_or_None)."""
    rng = random.Random(seed)
    out: list[tuple[str, Task, UnitPattern | None]] = []
    pool = kinds if kinds is not None else KIND_ORDER
    for i in range(n_planted):
        kind = pool[i % len(pool)]
        planted = generate_planted_task(rng, kind=kind)
        out.append((f"plant_{i:04d}_{kind}", planted.task, planted.pattern))
    for i in range(n_noise):
        out.append((f"noise_{i:04d}", generate_noise_task(rng), None))
    return out
