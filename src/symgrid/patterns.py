"""The 23-operation transformation taxonomy with executable semantics.

Fifteen kinds act on the whole grid; eight act on segmented objects.
Their result is the scene re-rendered onto a background-filled canvas,
objects painted in ascending id order (higher id painted last) so
overlaps are deterministic. Since a grid's objects and its background
partition it, the input grid already is that canvas with every object
painted, so the object kinds copy it and paint only what changes: erased
masks in the background color, then moved, copied or added cells.
Out-of-bounds pixels after a move are clipped, never wrapped. Patterns
apply to a grid or to a ``Scene``, a grid with its connectivity whose
segmentation is computed once and shared by every pattern applied to it.

Each kind is one record of the ``_KINDS`` table at the end of this
module: its parameter signature, whether it takes an object selector,
its forward semantics, its hint template, which colors its result may
hold more cells of than the input, which colors the cells it changes
may hold, and the dims of its result as a function of its parameter
values and the input's dims (None for the four kinds whose result dims
depend on the grid's content). ``KIND_ORDER``, ``GROWS``,
``RESULT_DIMS``, ``may_change``, validation, serialization,
``apply_pattern`` and ``synthesize_hint`` all read that table. Each
parameter type named in a signature (``int``, ``positive``, ``color``,
``factor``, ``axis``, ``direction``, ``colormap``) is one record of the
``_TAGS`` table: one check function that gives both the verdict and the
error message, the parser of its serialized form, and the words a hint
renders it as.

Selectors pick the objects a pattern applies to: ``all``, ``color=c``,
``size_rank=k`` (k-th largest; size desc, id asc), ``cavities=n``.
Whole-grid kinds always carry selector ``all``.

Serialized form, one pattern per line: ``kind(param=value,...)@selector``.
It is what leaves the library (CLI output, traces) and what the backend
proposes, and the tie-break of ``canonical_key``'s order. Candidates are deduplicated on
``pattern_key``, a plain value ``(kind, parameter values in signature
order, (selector kind, selector value))``: two valid patterns have equal
keys exactly when their serializations are equal, and ``build_pattern``
turns a key back into a validated UnitPattern.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable

from .errors import BoundsError, PatternApplicationError, PatternContractError
from .grid import MAX_SIDE, Coord, Grid
from .perception import (
    GridObject,
    Perception,
    background_color,
    lazy,
    segment,
)

DIRECTIONS = ("up", "down", "left", "right")
AXES = ("h", "v")

@dataclass(frozen=True)
class Selector:
    """Which objects a pattern applies to. ``value`` is None for 'all'."""

    kind: str  # all | color | size_rank | cavities
    value: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "all":
            if self.value is not None:
                raise PatternContractError("selector 'all' takes no value")
        elif self.kind == "color":
            if not _is_int(self.value) or not 0 <= self.value <= 9:
                raise PatternContractError(f"selector color={self.value!r} out of range")
        elif self.kind in ("size_rank", "cavities"):
            if not _is_int(self.value) or self.value < 0:
                raise PatternContractError(
                    f"selector {self.kind}={self.value!r} must be a non-negative int"
                )
        else:
            raise PatternContractError(f"unknown selector kind {self.kind!r}")

    def resolve(self, perception: Perception) -> list[GridObject]:
        """Deterministic object selection, ascending id order."""
        objs = perception.objects
        if self.kind == "all":
            return list(objs)
        if self.kind == "color":
            return [o for o in objs if o.color == self.value]
        if self.kind == "cavities":
            return [o for o in objs if o.cavity_count == self.value]
        ranked = perception.by_size
        assert self.value is not None
        if self.value >= len(ranked):
            return []
        return [ranked[self.value]]

    def describe(self) -> str:
        if self.kind == "all":
            return "all the objects"
        if self.kind == "color":
            return f"the color-{self.value} objects"
        if self.kind == "size_rank":
            if self.value == 0:
                return "the largest object"
            return f"the rank-{self.value} object by size"
        return f"the objects with {self.value} cavities"


SELECT_ALL = Selector("all")


def _is_int(value: object) -> bool:
    # bool is an int subclass, but True is no color, count or offset.
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class UnitPattern:
    """One atomic transformation: a kind, bound parameters, and a selector."""

    kind: str
    params: tuple[tuple[str, object], ...]
    selector: Selector = SELECT_ALL

    def __post_init__(self) -> None:
        # One pass over the parameters checks each name and value; on a
        # failure the names are compared first, as they always were.
        spec = _KINDS.get(self.kind)
        if spec is None:
            raise PatternContractError(f"unknown pattern kind {self.kind!r}")
        checks = spec.checks
        valid = len(self.params) == len(checks)
        for (name, value), (want, error) in zip(self.params, checks):
            valid = valid and name == want and error(value) is None
        if not valid:
            got = tuple(name for name, _ in self.params)
            if got != spec.names:
                raise PatternContractError(
                    f"{self.kind}: expected parameters {spec.names}, got {got}"
                )
            for (name, value), (_, error) in zip(self.params, checks):
                message = error(value)
                if message is not None:
                    raise PatternContractError(f"{self.kind}: parameter {name} {message}")
        if (
            not spec.takes_selector
            and self.selector is not SELECT_ALL
            and self.selector != SELECT_ALL
        ):
            raise PatternContractError(
                f"{self.kind} is a whole-grid kind; selector must be 'all'"
            )

    def __getitem__(self, name: str) -> object:
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)


def make_pattern(kind: str, selector: Selector = SELECT_ALL, **params: object) -> UnitPattern:
    """Build a UnitPattern with parameters in canonical signature order."""
    spec = _KINDS.get(kind)
    if spec is None:
        raise PatternContractError(f"unknown pattern kind {kind!r}")
    names = spec.names
    if params.keys() != set(names):
        missing = [name for name in names if name not in params]
        extra = [name for name in params if name not in names]
        raise PatternContractError(
            f"{kind}: missing={missing} unexpected={extra}"
        )
    ordered = tuple([(name, params[name]) for name in names])
    return UnitPattern(kind=kind, params=ordered, selector=selector)


# A candidate by value: (kind, parameter values in signature order,
# (selector kind, selector value)). Plain tuples, so hashing and equality
# never run Python code.
PatternKey = tuple[str, tuple[object, ...], tuple[str, int | None]]
KEY_ALL = ("all", None)  # the selector part of a key for selector 'all'


def pattern_key(p: UnitPattern) -> PatternKey:
    """``p`` by value; equal keys exactly when ``format_pattern`` is equal."""
    sel = p.selector
    return (p.kind, tuple([value for _, value in p.params]), (sel.kind, sel.value))


def build_pattern(key: PatternKey) -> UnitPattern:
    """The UnitPattern a key names, validated like any other; raises
    PatternContractError when the key names none."""
    kind, values, sel = key
    spec = _KINDS.get(kind)
    if spec is None:
        raise PatternContractError(f"unknown pattern kind {kind!r}")
    if len(values) != len(spec.names):
        raise PatternContractError(
            f"{kind}: expected values for {spec.names}, got {len(values)}"
        )
    selector = SELECT_ALL if sel == KEY_ALL else Selector(*sel)
    return UnitPattern(kind, tuple(zip(spec.names, values)), selector)


def _format_value(value: object) -> str:
    if isinstance(value, tuple):  # a color map
        return ";".join(f"{a}:{b}" for a, b in value)
    return str(value)


def format_pattern(p: UnitPattern) -> str:
    """Canonical one-line serialization ``kind(param=value,...)@selector``."""
    inner = ",".join(f"{name}={_format_value(value)}" for name, value in p.params)
    sel = p.selector
    suffix = sel.kind if sel.kind == "all" else f"{sel.kind}={sel.value}"
    return f"{p.kind}({inner})@{suffix}"


_INT_RE = re.compile(r"-?\d+")  # every integer's spelling: selector, parameters, color maps
_LINE_RE = re.compile(rf"^([a-z_0-9]+)\(([^()]*)\)@([a-z_]+)(?:=({_INT_RE.pattern}))?$")


def parse_pattern(line: str) -> UnitPattern:
    """Parse the canonical serialization; strict, raises PatternContractError."""
    m = _LINE_RE.match(line.strip())
    if not m:
        raise PatternContractError(f"unparseable pattern line: {line!r}")
    kind, inner, sel_kind, sel_value = m.groups()
    selector = Selector(sel_kind, int(sel_value) if sel_value is not None else None)
    spec = _KINDS.get(kind)
    parsers = {} if spec is None else {name: _TAGS[tag].parse for name, tag in spec.signature}
    params: dict[str, object] = {}
    if inner:
        for item in inner.split(","):
            if "=" not in item:
                raise PatternContractError(f"bad parameter {item!r} in {line!r}")
            name, raw = item.split("=", 1)
            if name in params:
                raise PatternContractError(f"repeated parameter {name!r} in {line!r}")
            try:
                params[name] = parsers.get(name, _parse_int)(raw)
            except ValueError:
                raise PatternContractError(f"bad value {raw!r} in {line!r}") from None
    return make_pattern(kind, selector=selector, **params)


def canonical_key(p: UnitPattern) -> tuple[int, str]:
    """Total order over patterns: kind order, then serialized form."""
    return (_KIND_INDEX[p.kind], format_pattern(p))


# ---------------------------------------------------------------------------
# Scenes
# ---------------------------------------------------------------------------


class Scene:
    """A grid plus the connectivity it is perceived under.

    One Scene per grid lets every pattern applied to that grid share one
    segmentation: ``perception`` is computed on first use and kept.
    ``background`` reuses the perception when one exists and otherwise
    counts colors, so the whole-grid kinds that only need the background
    never segment. A Scene lives as long as its caller keeps it, not in
    any process-wide table. Scenes compare and hash by
    ``(grid, connectivity)``, like the grids they wrap.
    """

    def __init__(self, grid: Grid, connectivity: int = 4) -> None:
        if connectivity not in (4, 8):
            raise ValueError(f"connectivity must be 4 or 8, got {connectivity}")
        self.grid = grid
        self.connectivity = connectivity

    @lazy
    def perception(self) -> Perception:
        return segment(self.grid, self.connectivity)

    @lazy
    def background(self) -> int:
        perception = self.__dict__.get("perception")
        return background_color(self.grid) if perception is None else perception.background

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scene):
            return NotImplemented
        return self.connectivity == other.connectivity and self.grid == other.grid

    def __hash__(self) -> int:
        return hash((self.grid, self.connectivity))


def as_scene(g: Grid | Scene) -> Scene:
    """``g`` itself when it is a Scene, else a fresh Scene over ``g`` at
    connectivity 4."""
    return g if isinstance(g, Scene) else Scene(g)


# ---------------------------------------------------------------------------
# Forward semantics: one ``(pattern, scene) -> Grid`` function per kind
# ---------------------------------------------------------------------------

_Layer = tuple[set[Coord] | frozenset[Coord], int]


def _reflect_h(p: UnitPattern, s: Scene) -> Grid:
    return Grid._trusted(tuple(row[::-1] for row in s.grid.rows))


def _reflect_v(p: UnitPattern, s: Scene) -> Grid:
    return Grid._trusted(s.grid.rows[::-1])


def _rotate90(p: UnitPattern, s: Scene) -> Grid:
    # Clockwise: column c, read bottom-up, becomes row c.
    return Grid._trusted(tuple(zip(*reversed(s.grid.rows))))


def _rotate180(p: UnitPattern, s: Scene) -> Grid:
    return Grid._trusted(tuple(row[::-1] for row in reversed(s.grid.rows)))


def _rotate270(p: UnitPattern, s: Scene) -> Grid:
    # Clockwise by 270: column c, read top-down, becomes row w - 1 - c.
    return Grid._trusted(tuple(zip(*s.grid.rows))[::-1])


def _crop_to_content(p: UnitPattern, s: Scene) -> Grid:
    """The box from the first to the last row, then column, that is not
    all background."""
    g, bg = s.grid, s.background
    blank = (bg,) * g.width
    filled = [r for r, row in enumerate(g.rows) if row != blank]
    if not filled:
        raise PatternApplicationError("crop_to_content: grid has no content")
    band = g.rows[filled[0] : filled[-1] + 1]
    blank = (bg,) * len(band)
    used = [c for c, column in enumerate(zip(*band)) if column != blank]
    return Grid._trusted(tuple(row[used[0] : used[-1] + 1] for row in band))


def _symmetry_complete(p: UnitPattern, s: Scene) -> Grid:
    """Fill each background cell from its mirror across the axis."""
    rows, bg = s.grid.rows, s.background
    mirror = [row[::-1] for row in rows] if p["axis"] == "h" else rows[::-1]
    return Grid._trusted(
        tuple(
            tuple(v if v != bg else m for v, m in zip(row, mrow))
            for row, mrow in zip(rows, mirror)
        )
    )


def _scale_up(p: UnitPattern, s: Scene) -> Grid:
    """k >= 2 block replication."""
    g, factor = s.grid, p["factor"]
    h, w = g.height, g.width
    if h * factor > MAX_SIDE or w * factor > MAX_SIDE:
        raise BoundsError(
            f"scale_up({factor}) would make {h * factor}x{w * factor}"
        )
    rows = []
    for row in g.rows:
        wide = tuple(v for v in row for _ in range(factor))
        rows.extend([wide] * factor)
    return Grid._trusted(tuple(rows))


def _scale_down(p: UnitPattern, s: Scene) -> Grid:
    """Inverse of scale_up; the grid must be an exact k-blowup.

    A band of ``factor`` rows is uniform blocks when each row equals the
    band's first and each of that row's ``row[j::factor]`` slices equals
    its ``row[::factor]``; only a failing band is scanned block by block,
    to name its first non-uniform block.
    """
    g, factor = s.grid, p["factor"]
    h, w = g.height, g.width
    if h % factor or w % factor:
        raise PatternApplicationError(
            f"scale_down({factor}): dimensions {h}x{w} not divisible"
        )
    rows = []
    for br in range(h // factor):
        band = g.rows[br * factor : (br + 1) * factor]
        top = band[0]
        out_row = top[::factor]
        if any(row != top for row in band) or any(
            top[j::factor] != out_row for j in range(1, factor)
        ):
            blocks = (
                {v for row in band for v in row[bc * factor : (bc + 1) * factor]}
                for bc in range(w // factor)
            )
            bc = next(bc for bc, block in enumerate(blocks) if len(block) != 1)
            raise PatternApplicationError(
                f"scale_down({factor}): block ({br},{bc}) is not uniform"
            )
        rows.append(out_row)
    return Grid._trusted(tuple(rows))


def _tile_grid(p: UnitPattern, s: Scene) -> Grid:
    g, rows, cols = s.grid, p["rows"], p["cols"]
    h, w = g.height, g.width
    if h * rows > MAX_SIDE or w * cols > MAX_SIDE:
        raise BoundsError(f"tile_grid({rows},{cols}) would make {h * rows}x{w * cols}")
    tiled_rows = tuple(row * cols for row in g.rows)
    return Grid._trusted(tiled_rows * rows)


def _overlay_pairs(p: UnitPattern, s: Scene) -> Grid:
    """Split into two halves; the first half's non-background cells win."""
    g, axis, bg = s.grid, p["axis"], s.background
    h, w = g.height, g.width
    if axis == "h":
        if w % 2:
            raise PatternApplicationError("overlay_pairs(h): width is odd")
        half = w // 2
        first = [row[:half] for row in g.rows]
        second = [row[half:] for row in g.rows]
    else:
        if h % 2:
            raise PatternApplicationError("overlay_pairs(v): height is odd")
        half = h // 2
        first = [row for row in g.rows[:half]]
        second = [row for row in g.rows[half:]]
    rows = tuple(
        tuple(a if a != bg else b for a, b in zip(ra, rb))
        for ra, rb in zip(first, second)
    )
    return Grid._trusted(rows)


def _select_extreme(perception: Perception, largest: bool) -> Grid:
    """Crop of the largest (smallest) object; ties go to the lowest id."""
    if not perception.objects:
        raise PatternApplicationError("select: grid has no objects")
    sign = -1 if largest else 1
    obj = min(perception.objects, key=lambda o: (sign * o.size, o.id))
    top, left, bottom, right = obj.bbox
    rows = tuple(
        tuple(
            obj.color if (r, c) in obj.mask else perception.background
            for c in range(left, right + 1)
        )
        for r in range(top, bottom + 1)
    )
    return Grid._trusted(rows)


def _count_encode(p: UnitPattern, s: Scene) -> Grid:
    """1xN row of the color, N = number of selected objects."""
    n = len(p.selector.resolve(s.perception))
    if n == 0:
        raise PatternApplicationError("count_encode: no objects selected")
    if n > MAX_SIDE:
        raise BoundsError(f"count_encode: {n} objects exceed row capacity")
    return Grid._trusted(((p["color"],) * n,))


def _recolor(p: UnitPattern, s: Scene) -> Grid:
    src, dst = p["src"], p["dst"]
    return Grid._trusted(
        tuple(tuple(dst if v == src else v for v in row) for row in s.grid.rows)
    )


def _palette_swap(p: UnitPattern, s: Scene) -> Grid:
    """Simultaneous color remap."""
    table = list(range(10))
    for src, dst in p["map"]:
        table[src] = dst
    return Grid._trusted(tuple(tuple(table[v] for v in row) for row in s.grid.rows))


def _paint(canvas: list[list[int]], cells: frozenset[Coord] | set[Coord], color: int) -> None:
    h, w = len(canvas), len(canvas[0])
    for r, c in cells:
        if 0 <= r < h and 0 <= c < w:
            canvas[r][c] = color


def _repaint(g: Grid, layers: list[_Layer]) -> Grid:
    """A copy of ``g`` with ``layers`` painted over it in order.

    ``segment`` puts every non-background cell in exactly one object, so
    ``g`` is already every object of its perception painted in id order
    onto a background canvas; the object kinds paint only what changes.
    """
    canvas = [list(row) for row in g.rows]
    for cells, color in layers:
        _paint(canvas, cells, color)
    return Grid._trusted(tuple(tuple(row) for row in canvas))


def _shift(mask: frozenset[Coord], dr: int, dc: int) -> set[Coord]:
    return {(r + dr, c + dc) for r, c in mask}


def _translate(p: UnitPattern, s: Scene) -> Grid:
    """Move the selected objects by (dx columns, dy rows).

    The selected masks are erased, then every object from the first
    selected id on is painted again in id order, the selected ones
    shifted, so a higher id still wins an overlap.
    """
    perception = s.perception
    selected = p.selector.resolve(perception)
    if not selected:
        return _repaint(s.grid, [])
    bg, first = perception.background, selected[0].id
    selected_ids = {o.id for o in selected}
    dx, dy = p["dx"], p["dy"]
    layers: list[_Layer] = [(o.mask, bg) for o in selected]
    layers.extend(
        (_shift(o.mask, dy, dx) if o.id in selected_ids else o.mask, o.color)
        for o in perception.objects
        if o.id >= first
    )
    return _repaint(s.grid, layers)


def _delete_object(p: UnitPattern, s: Scene) -> Grid:
    perception = s.perception
    bg = perception.background
    return _repaint(s.grid, [(o.mask, bg) for o in p.selector.resolve(perception)])


def _duplicate_object(p: UnitPattern, s: Scene) -> Grid:
    """Paint a copy of each selected object shifted by (dx, dy)."""
    perception = s.perception
    dx, dy = p["dx"], p["dy"]
    copies = [(_shift(o.mask, dy, dx), o.color) for o in p.selector.resolve(perception)]
    return _repaint(s.grid, copies)


def _cavity_fill(p: UnitPattern, s: Scene) -> Grid:
    perception = s.perception
    color = p["color"]
    fills = [
        (region, color)
        for o in p.selector.resolve(perception)
        if o.cavity_count  # a stored 0 saves the labelling pass
        for region in o.cavities
    ]
    return _repaint(s.grid, fills)


def _gravity_order(objs: list[GridObject], direction: str) -> list[GridObject]:
    # Objects closest to the target wall settle first.
    if direction == "down":
        return sorted(objs, key=lambda o: (-o.bbox[2], o.id))
    if direction == "up":
        return sorted(objs, key=lambda o: (o.bbox[0], o.id))
    if direction == "left":
        return sorted(objs, key=lambda o: (o.bbox[1], o.id))
    return sorted(objs, key=lambda o: (-o.bbox[3], o.id))


_DELTAS = {"up": (-1, 0), "down": (1, 0), "left": (0, -1), "right": (0, 1)}


def _gravity_shift(p: UnitPattern, s: Scene) -> Grid:
    """Slide the selected objects one at a time until blocked.

    An object falls by the shortest free run, over its cells, along the
    direction: a cell is free unless an unselected object or an already
    placed one holds it. A selected object that has not moved yet blocks
    nothing, and its own cells may lie inside another cell's run, so
    every cell's run is scanned, not only the leading ones.
    """
    g, perception = s.grid, s.perception
    selected = p.selector.resolve(perception)
    direction = p["dir"]
    h, w = g.height, g.width
    dr, dc = _DELTAS[direction]
    selected_ids = {o.id for o in selected}
    free = [[True] * w for _ in range(h)]
    for obj in perception.objects:
        if obj.id not in selected_ids:
            for r, c in obj.mask:
                free[r][c] = False
    placed: dict[int, set[Coord]] = {}
    for obj in _gravity_order(selected, direction):
        fall = max(h, w)
        for r, c in obj.mask:
            run, r, c = 0, r + dr, c + dc
            while run < fall and 0 <= r < h and 0 <= c < w and free[r][c]:
                run, r, c = run + 1, r + dr, c + dc
            fall = run  # the scan stops at ``fall``, so ``run <= fall``
        final = _shift(obj.mask, dr * fall, dc * fall)
        for r, c in final:
            free[r][c] = False
        placed[obj.id] = final
    bg = perception.background
    layers: list[_Layer] = [(obj.mask, bg) for obj in selected]
    layers.extend((placed[obj.id], obj.color) for obj in selected)
    return _repaint(g, layers)


def _bbox_border(obj: GridObject) -> set[Coord]:
    top, left, bottom, right = obj.bbox
    cells: set[Coord] = set()
    for c in range(left, right + 1):
        cells.add((top, c))
        cells.add((bottom, c))
    for r in range(top, bottom + 1):
        cells.add((r, left))
        cells.add((r, right))
    return cells


def _draw_bbox_border(p: UnitPattern, s: Scene) -> Grid:
    perception = s.perception
    color = p["color"]
    borders = [(_bbox_border(o), color) for o in p.selector.resolve(perception)]
    return _repaint(s.grid, borders)


def _connect_objects(p: UnitPattern, s: Scene) -> Grid:
    """Fill the straight all-background gaps between cells of two
    different selected objects."""
    g, perception = s.grid, s.perception
    bg = perception.background
    h, w = g.height, g.width
    owner: dict[Coord, int] = {}
    for obj in p.selector.resolve(perception):
        for cell in obj.mask:
            owner[cell] = obj.id
    fills: set[Coord] = set()
    lines = [[(r, c) for c in range(w)] for r in range(h)]
    lines += [[(r, c) for r in range(h)] for c in range(w)]
    for line in lines:
        held = [i for i, cell in enumerate(line) if cell in owner]
        for a, b in zip(held, held[1:]):
            if b - a > 1 and owner[line[a]] != owner[line[b]]:
                gap = line[a + 1 : b]
                if all(g.rows[r][c] == bg for r, c in gap):
                    fills.update(gap)
    return _repaint(g, [(fills, p["color"])])


# ---------------------------------------------------------------------------
# The taxonomy table
# ---------------------------------------------------------------------------


def _colormap_error(value: object) -> str | None:
    if not (
        isinstance(value, tuple)
        and value
        and all(
            isinstance(p, tuple) and len(p) == 2 and all(_is_int(v) and 0 <= v <= 9 for v in p)
            for p in value
        )
    ):
        return "must be a tuple of color pairs"
    if len({s for s, _ in value}) != len(value):
        return "maps a source color twice"
    if tuple(sorted(value)) != value:
        return "pairs must be sorted by source"
    return None


def _parse_int(raw: str) -> int:
    if not _INT_RE.fullmatch(raw):
        raise ValueError(raw)
    return int(raw)


def _parse_colormap(raw: str) -> tuple:
    # A pair of the wrong length is kept, so the check rejects it with a
    # PatternContractError like any other bad value.
    try:
        return tuple(sorted(tuple(map(_parse_int, pair.split(":"))) for pair in raw.split(";")))
    except ValueError:
        raise PatternContractError(f"bad color map {raw!r}") from None


@dataclass(frozen=True)
class _Tag:
    """Everything this module knows about one parameter type."""

    error: Callable[[object], str | None]  # None if valid, else the message tail
    parse: Callable[[str], object] = _parse_int  # serialized form back to a value
    words: Callable[[object], str] = str  # the value as a hint renders it


_TAGS: dict[str, _Tag] = {
    "int": _Tag(lambda v: None if _is_int(v) else f"must be an integer, got {v!r}"),
    "positive": _Tag(lambda v: None if _is_int(v) and v >= 1 else "must be a positive integer"),
    "color": _Tag(
        lambda v: None if _is_int(v) and 0 <= v <= 9 else f"must be a color 0..9, got {v!r}"
    ),
    "factor": _Tag(lambda v: None if _is_int(v) and v >= 2 else "must be an integer >= 2"),
    "axis": _Tag(
        lambda v: None if v in AXES else f"must be one of {AXES}",
        str,
        lambda v: "left-right" if v == "h" else "top-bottom",
    ),
    "direction": _Tag(
        lambda v: None if v in DIRECTIONS else f"must be one of {DIRECTIONS}",
        str,
        lambda v: f"{v}ward",  # upward, downward, leftward, rightward
    ),
    "colormap": _Tag(
        _colormap_error,
        _parse_colormap,
        lambda v: ", ".join(f"{a} to {b}" for a, b in v),
    ),
}


@dataclass(frozen=True)
class _Kind:
    """Everything this module knows about one kind."""

    name: str
    signature: tuple[tuple[str, str], ...]  # (param, ``_TAGS`` key), serialization order
    takes_selector: bool  # object kinds; the others take only selector 'all'
    apply: Callable[[UnitPattern, Scene], Grid]
    hint: str  # str.format template over {sel} and the rendered params
    # The colors the result may hold more cells of than the input: "any";
    # "background", for kinds that erase objects and paint them again, so
    # an object color only loses cells where objects overlap; or "none",
    # for kinds that only move cells, so the result keeps the color counts.
    grows: str = "any"
    # The colors a cell the result changes may hold in the input and in
    # the result, as (held, wanted): each a tuple of names, or None for
    # any color. "bg" names the background, "sel" the color of a
    # ``color=c`` selector (a side naming it says nothing under another
    # selector) and any other name a color parameter. A pair whose
    # differing cells hold or want a color outside these cannot be exact
    # (``induction.TrainPair.verdict``). None when the kind gives no such fact.
    changes: tuple[tuple[str, ...] | None, tuple[str, ...] | None] | None = None
    # The result's (height, width) from the parameter values, in signature
    # order, and the input's height and width, wherever the kind applies
    # without raising (by default the input's own); None when it depends
    # on the grid's content. A result of other dims than a pair's output
    # can be neither exact nor partial there (``grid.pixel_distance``).
    dims: Callable[[tuple, int, int], tuple[int, int]] | None = lambda v, h, w: (h, w)
    # Derived from ``signature`` (and ``changes``):
    names: tuple[str, ...] = field(init=False)
    checks: tuple[tuple[str, Callable[[object], str | None]], ...] = field(init=False)
    # ``changes`` with each name as the index of its parameter value in a
    # key, or ``_BG`` or ``_SEL``.
    change_slots: tuple[tuple[int, ...] | None, ...] | None = field(init=False)

    def __post_init__(self) -> None:
        names = tuple(name for name, _ in self.signature)
        checks = tuple((name, _TAGS[tag].error) for name, tag in self.signature)
        slots = None
        if self.changes is not None:
            index = {"bg": _BG, "sel": _SEL, **{name: i for i, name in enumerate(names)}}
            slots = tuple(
                None if side is None else tuple(index[name] for name in side)
                for side in self.changes
            )
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "checks", checks)
        object.__setattr__(self, "change_slots", slots)


_BG, _SEL = -1, -2  # ``_Kind.change_slots`` for "bg" and "sel"


def _transposed(values: tuple, h: int, w: int) -> tuple[int, int]:
    return (w, h)


_AXIS = (("axis", "axis"),)
_FACTOR = (("factor", "factor"),)
_COLOR = (("color", "color"),)
_OFFSET = (("dx", "int"), ("dy", "int"))

# Canonical, cheapest-first kind order: whole-grid kinds, then object kinds.
_KINDS: dict[str, _Kind] = {k.name: k for k in (
    _Kind("reflect_h", (), False, _reflect_h, "reflect the grid left-right", grows="none"),
    _Kind("reflect_v", (), False, _reflect_v, "reflect the grid top-bottom", grows="none"),
    _Kind("rotate90", (), False, _rotate90, "rotate the grid 90 degrees clockwise", grows="none",
          dims=_transposed),
    _Kind("rotate180", (), False, _rotate180, "rotate the grid 180 degrees", grows="none"),
    _Kind("rotate270", (), False, _rotate270, "rotate the grid 270 degrees clockwise",
          grows="none", dims=_transposed),
    _Kind("crop_to_content", (), False, _crop_to_content, "crop the grid to its content",
          dims=None),
    _Kind("symmetry_complete", _AXIS, False, _symmetry_complete,
          "complete the grid symmetrically {axis}", changes=(("bg",), None)),
    _Kind("scale_up", _FACTOR, False, _scale_up, "scale the grid up by factor {factor}",
          dims=lambda v, h, w: (h * v[0], w * v[0])),
    _Kind("scale_down", _FACTOR, False, _scale_down, "scale the grid down by factor {factor}",
          dims=lambda v, h, w: (h // v[0], w // v[0])),
    _Kind("tile_grid", (("rows", "positive"), ("cols", "positive")), False, _tile_grid,
          "tile the grid {rows} times down and {cols} times across",
          dims=lambda v, h, w: (h * v[0], w * v[1])),
    _Kind("overlay_pairs", _AXIS, False, _overlay_pairs,
          "overlay the two halves of the grid split {axis}",
          dims=lambda v, h, w: (h, w // 2) if v[0] == "h" else (h // 2, w)),
    _Kind("select_largest", (), False, lambda p, s: _select_extreme(s.perception, True),
          "keep only the largest object, cropped to its box", dims=None),
    _Kind("select_smallest", (), False, lambda p, s: _select_extreme(s.perception, False),
          "keep only the smallest object, cropped to its box", dims=None),
    _Kind("count_encode", _COLOR, True, _count_encode,
          "emit one color-{color} cell per object among {sel}", dims=None),
    _Kind("recolor", (("src", "color"), ("dst", "color")), False, _recolor,
          "replace color {src} with color {dst}", changes=(("src",), ("dst",))),
    _Kind("palette_swap", (("map", "colormap"),), False, _palette_swap, "remap colors: {map}"),
    _Kind("translate", _OFFSET, True, _translate, "move {sel} by {dx} columns and {dy} rows"),
    _Kind("delete_object", (), True, _delete_object, "delete {sel}", changes=(None, ("bg",))),
    _Kind("duplicate_object", _OFFSET, True, _duplicate_object,
          "duplicate {sel} offset by {dx} columns and {dy} rows"),
    _Kind("cavity_fill", _COLOR, True, _cavity_fill,
          "fill the cavities of {sel} with color {color}", changes=(None, ("color",))),
    _Kind("gravity_shift", (("dir", "direction"),), True, _gravity_shift,
          "slide {sel} {dir} until blocked", grows="background",
          changes=(("bg", "sel"), ("bg", "sel"))),
    _Kind("draw_bbox_border", _COLOR, True, _draw_bbox_border,
          "draw the bounding box of {sel} in color {color}", changes=(None, ("color",))),
    _Kind("connect_objects", _COLOR, True, _connect_objects,
          "connect aligned pairs of {sel} with color {color}", changes=(("bg",), ("color",))),
)}

KIND_ORDER = tuple(_KINDS)
GROWS = {name: k.grows for name, k in _KINDS.items()}  # see ``_Kind.grows``
RESULT_DIMS = {name: k.dims for name, k in _KINDS.items()}  # see ``_Kind.dims``
# The kinds that only rearrange the grid's cells, the reflections and rotations.
ISOMETRIES = tuple(name for name, k in _KINDS.items() if k.grows == "none")
_KIND_INDEX = {name: i for i, name in enumerate(KIND_ORDER)}


def may_change(key: PatternKey, held: set[int], wanted: set[int], scene: Scene) -> bool:
    """Whether ``key``'s result on ``scene`` may turn cells of the colors
    ``held`` into cells of the colors ``wanted``, by ``_Kind.changes``:
    False when a side of the record leaves out one of them; True when the
    kind gives no such fact or the key has the wrong number of values for
    it. The background is read only for a side naming it that has room
    for every color. An object kind reads it off the scene's perception,
    which applying the key would compute anyway, rather than counting the
    grid's colors once more."""
    kind, values, (sel_kind, sel_value) = key
    spec = _KINDS.get(kind)
    if spec is None or spec.change_slots is None or len(values) != len(spec.names):
        return True
    for colors, slots in zip((held, wanted), spec.change_slots):
        if slots is None or (_SEL in slots and sel_kind != "color"):
            continue  # any color ("sel" under another selector names none)
        if len(colors) > len(slots):
            return False
        if _BG in slots:
            bg = scene.perception.background if spec.takes_selector else scene.background
        allowed = [values[i] if i >= 0 else sel_value if i == _SEL else bg for i in slots]
        if not colors.issubset(allowed):
            return False
    return True


def synthesize_hint(p: UnitPattern) -> str:
    """Deterministic template rendering of one pattern as a sentence."""
    kind = _KINDS[p.kind]
    words = {
        name: _TAGS[tag].words(value)
        for (name, tag), (_, value) in zip(kind.signature, p.params)
    }
    return kind.hint.format(sel=p.selector.describe(), **words)


def apply_pattern(p: UnitPattern, g: Grid | Scene) -> Grid:
    """Apply one unit pattern; always returns a valid grid or raises.

    Whole-grid kinds transform the full grid. Object kinds segment the
    grid, transform the selected objects, and paint what changed over a
    copy of the input grid; the result is the same as re-rendering every
    object onto a background canvas in ascending id order.

    A bare grid is perceived at connectivity 4. ``g`` may be a Scene
    instead, which brings its own connectivity; callers that apply many
    patterns to one grid pass one Scene, so the grid is segmented at most
    once. The input grid is trusted to be valid (every ``Grid(...)`` is
    checked when built); the result is derived from it without checking
    it again, which is sound because each kind only rearranges its cells
    or paints validated parameter colors within the 30x30 bound.
    """
    return _KINDS[p.kind].apply(p, as_scene(g))
