"""The 23-operation transformation taxonomy with executable semantics.

Fifteen kinds act on the whole grid; eight act on segmented objects and
re-render the scene onto a background-filled canvas, painting objects in
ascending id order (higher id painted last) so overlaps are deterministic.
Out-of-bounds pixels after a move are clipped, never wrapped. Patterns
apply to a grid or to a ``Scene``, a grid with its connectivity whose
segmentation is computed once and shared by every pattern applied to it.

Kinds and parameter signatures:

    reflect_h()                     mirror left-right
    reflect_v()                     mirror top-bottom
    rotate90() rotate180() rotate270()   clockwise rotations
    crop_to_content()               tight crop of non-background cells
    symmetry_complete(axis=h|v)     fill background cells from the mirror
    scale_up(factor=k)              k>=2 block replication
    scale_down(factor=k)            inverse; grid must be an exact k-blowup
    tile_grid(rows=r,cols=c)        repeat the grid r x c times
    overlay_pairs(axis=h|v)         split into two halves, first wins per cell
    select_largest() select_smallest()   crop of the extreme-size object
    count_encode(color=c)           1xN row of c, N = selected object count
    recolor(src=a,dst=b)            every cell a becomes b
    palette_swap(map=a:b;c:d)       simultaneous color remap
    translate(dx=?,dy=?)            move selected objects (cols, rows)
    delete_object()                 remove selected objects
    duplicate_object(dx=?,dy=?)     paint a shifted copy of selected objects
    cavity_fill(color=c)            fill enclosed holes of selected objects
    gravity_shift(dir=up|down|left|right)   slide until blocked
    draw_bbox_border(color=c)       paint the bbox outline of selected objects
    connect_objects(color=c)        fill straight gaps between selected pairs

Selectors pick the objects a pattern applies to: ``all``, ``color=c``,
``size_rank=k`` (k-th largest; size desc, id asc), ``cavities=n``.
Whole-grid kinds always carry selector ``all``.

Serialized form, one pattern per line: ``kind(param=value,...)@selector``.
The serialized string is the canonical key used for deduplication.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import BoundsError, PatternApplicationError, PatternContractError
from .grid import MAX_SIDE, Coord, Grid
from .perception import (
    GridObject,
    Perception,
    background_color,
    cavity_regions,
    segment,
)

DIRECTIONS = ("up", "down", "left", "right")
AXES = ("h", "v")

# Canonical, cheapest-first kind order: whole-grid kinds, then object kinds.
KIND_ORDER = (
    "reflect_h",
    "reflect_v",
    "rotate90",
    "rotate180",
    "rotate270",
    "crop_to_content",
    "symmetry_complete",
    "scale_up",
    "scale_down",
    "tile_grid",
    "overlay_pairs",
    "select_largest",
    "select_smallest",
    "count_encode",
    "recolor",
    "palette_swap",
    "translate",
    "delete_object",
    "duplicate_object",
    "cavity_fill",
    "gravity_shift",
    "draw_bbox_border",
    "connect_objects",
)

_KIND_INDEX = {k: i for i, k in enumerate(KIND_ORDER)}

# param name -> validator tag, per kind, in canonical serialization order
_SIGNATURES: dict[str, tuple[tuple[str, str], ...]] = {
    "reflect_h": (),
    "reflect_v": (),
    "rotate90": (),
    "rotate180": (),
    "rotate270": (),
    "crop_to_content": (),
    "symmetry_complete": (("axis", "axis"),),
    "scale_up": (("factor", "factor"),),
    "scale_down": (("factor", "factor"),),
    "tile_grid": (("rows", "positive"), ("cols", "positive")),
    "overlay_pairs": (("axis", "axis"),),
    "select_largest": (),
    "select_smallest": (),
    "count_encode": (("color", "color"),),
    "recolor": (("src", "color"), ("dst", "color")),
    "palette_swap": (("map", "colormap"),),
    "translate": (("dx", "int"), ("dy", "int")),
    "delete_object": (),
    "duplicate_object": (("dx", "int"), ("dy", "int")),
    "cavity_fill": (("color", "color"),),
    "gravity_shift": (("dir", "direction"),),
    "draw_bbox_border": (("color", "color"),),
    "connect_objects": (("color", "color"),),
}

OBJECT_KINDS = frozenset(
    {
        "translate",
        "delete_object",
        "duplicate_object",
        "cavity_fill",
        "gravity_shift",
        "draw_bbox_border",
        "connect_objects",
        "count_encode",
    }
)

assert len(_SIGNATURES) == 23


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
        ranked = sorted(objs, key=lambda o: (-o.size, o.id))
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


def _validate_param(kind: str, name: str, tag: str, value: object) -> None:
    where = f"{kind}: parameter {name}"
    if tag == "int":
        if not _is_int(value):
            raise PatternContractError(f"{where} must be an integer, got {value!r}")
    elif tag == "positive":
        if not _is_int(value) or value < 1:
            raise PatternContractError(f"{where} must be a positive integer")
    elif tag == "color":
        if not _is_int(value) or not 0 <= value <= 9:
            raise PatternContractError(f"{where} must be a color 0..9, got {value!r}")
    elif tag == "factor":
        if not _is_int(value) or value < 2:
            raise PatternContractError(f"{where} must be an integer >= 2")
    elif tag == "axis":
        if value not in AXES:
            raise PatternContractError(f"{where} must be one of {AXES}")
    elif tag == "direction":
        if value not in DIRECTIONS:
            raise PatternContractError(f"{where} must be one of {DIRECTIONS}")
    elif tag == "colormap":
        if (
            not isinstance(value, tuple)
            or not value
            or not all(
                isinstance(p, tuple)
                and len(p) == 2
                and all(_is_int(v) and 0 <= v <= 9 for v in p)
                for p in value
            )
        ):
            raise PatternContractError(f"{where} must be a tuple of color pairs")
        srcs = [s for s, _ in value]
        if len(set(srcs)) != len(srcs):
            raise PatternContractError(f"{where} maps a source color twice")
        if tuple(sorted(value)) != value:
            raise PatternContractError(f"{where} pairs must be sorted by source")
    else:  # pragma: no cover - signature table is static
        raise AssertionError(tag)


@dataclass(frozen=True)
class UnitPattern:
    """One atomic transformation: a kind, bound parameters, and a selector."""

    kind: str
    params: tuple[tuple[str, object], ...]
    selector: Selector = SELECT_ALL

    def __post_init__(self) -> None:
        sig = _SIGNATURES.get(self.kind)
        if sig is None:
            raise PatternContractError(f"unknown pattern kind {self.kind!r}")
        expected = tuple(name for name, _ in sig)
        got = tuple(name for name, _ in self.params)
        if got != expected:
            raise PatternContractError(
                f"{self.kind}: expected parameters {expected}, got {got}"
            )
        for (name, tag), (_, value) in zip(sig, self.params):
            _validate_param(self.kind, name, tag, value)
        if self.kind not in OBJECT_KINDS and self.selector != SELECT_ALL:
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
    sig = _SIGNATURES.get(kind)
    if sig is None:
        raise PatternContractError(f"unknown pattern kind {kind!r}")
    missing = [name for name, _ in sig if name not in params]
    extra = [name for name in params if name not in {n for n, _ in sig}]
    if missing or extra:
        raise PatternContractError(
            f"{kind}: missing={missing} unexpected={extra}"
        )
    ordered = tuple((name, params[name]) for name, _ in sig)
    return UnitPattern(kind=kind, params=ordered, selector=selector)


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


_LINE_RE = re.compile(r"^([a-z_0-9]+)\(([^()]*)\)@([a-z_]+)(?:=(-?\d+))?$")


def parse_pattern(line: str) -> UnitPattern:
    """Parse the canonical serialization; strict, raises PatternContractError."""
    m = _LINE_RE.match(line.strip())
    if not m:
        raise PatternContractError(f"unparseable pattern line: {line!r}")
    kind, inner, sel_kind, sel_value = m.groups()
    selector = Selector(sel_kind, int(sel_value) if sel_value is not None else None)
    params: dict[str, object] = {}
    if inner:
        for item in inner.split(","):
            if "=" not in item:
                raise PatternContractError(f"bad parameter {item!r} in {line!r}")
            name, raw = item.split("=", 1)
            sig = dict(_SIGNATURES.get(kind, ()))
            tag = sig.get(name)
            if tag == "colormap":
                try:
                    pairs = tuple(
                        tuple(int(x) for x in pair.split(":")) for pair in raw.split(";")
                    )
                except ValueError:
                    raise PatternContractError(f"bad color map {raw!r}") from None
                params[name] = tuple(sorted((a, b) for a, b in pairs))
            elif tag in ("axis", "direction"):
                params[name] = raw
            else:
                try:
                    params[name] = int(raw)
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

    __slots__ = ("grid", "connectivity", "_perception", "_background")

    def __init__(self, grid: Grid, connectivity: int = 4) -> None:
        if connectivity not in (4, 8):
            raise ValueError(f"connectivity must be 4 or 8, got {connectivity}")
        self.grid = grid
        self.connectivity = connectivity
        self._perception: Perception | None = None
        self._background: int | None = None

    @property
    def perception(self) -> Perception:
        if self._perception is None:
            self._perception = segment(self.grid, self.connectivity)
        return self._perception

    @property
    def background(self) -> int:
        if self._background is None:
            if self._perception is not None:
                self._background = self._perception.background
            else:
                self._background = background_color(self.grid)
        return self._background

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scene):
            return NotImplemented
        return self.connectivity == other.connectivity and self.grid == other.grid

    def __hash__(self) -> int:
        return hash((self.grid, self.connectivity))


def as_scene(g: Grid | Scene, connectivity: int = 4) -> Scene:
    """``g`` itself when it is a Scene, else a fresh Scene over ``g``."""
    return g if isinstance(g, Scene) else Scene(g, connectivity)


# ---------------------------------------------------------------------------
# Forward semantics
# ---------------------------------------------------------------------------


def _rotate90(g: Grid) -> Grid:
    h, w = g.height, g.width
    return Grid._trusted(
        tuple(tuple(g.rows[h - 1 - c][r] for c in range(h)) for r in range(w))
    )


def _reflect_h(g: Grid) -> Grid:
    return Grid._trusted(tuple(tuple(reversed(row)) for row in g.rows))


def _reflect_v(g: Grid) -> Grid:
    return Grid._trusted(tuple(reversed(g.rows)))


def _scale_up(g: Grid, factor: int) -> Grid:
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


def _scale_down(g: Grid, factor: int) -> Grid:
    h, w = g.height, g.width
    if h % factor or w % factor:
        raise PatternApplicationError(
            f"scale_down({factor}): dimensions {h}x{w} not divisible"
        )
    rows = []
    for br in range(h // factor):
        out_row = []
        for bc in range(w // factor):
            block = {
                g.rows[br * factor + i][bc * factor + j]
                for i in range(factor)
                for j in range(factor)
            }
            if len(block) != 1:
                raise PatternApplicationError(
                    f"scale_down({factor}): block ({br},{bc}) is not uniform"
                )
            out_row.append(block.pop())
        rows.append(tuple(out_row))
    return Grid._trusted(tuple(rows))


def _tile_grid(g: Grid, rows: int, cols: int) -> Grid:
    h, w = g.height, g.width
    if h * rows > MAX_SIDE or w * cols > MAX_SIDE:
        raise BoundsError(f"tile_grid({rows},{cols}) would make {h * rows}x{w * cols}")
    tiled_rows = tuple(row * cols for row in g.rows)
    return Grid._trusted(tiled_rows * rows)


def _crop_to_content(g: Grid, bg: int) -> Grid:
    cells = [(r, c) for r in range(g.height) for c in range(g.width) if g.rows[r][c] != bg]
    if not cells:
        raise PatternApplicationError("crop_to_content: grid has no content")
    top = min(r for r, _ in cells)
    bottom = max(r for r, _ in cells)
    left = min(c for _, c in cells)
    right = max(c for _, c in cells)
    return Grid._trusted(tuple(row[left : right + 1] for row in g.rows[top : bottom + 1]))


def _symmetry_complete(g: Grid, axis: str, bg: int) -> Grid:
    mirror = _reflect_h(g) if axis == "h" else _reflect_v(g)
    rows = tuple(
        tuple(
            v if v != bg else mirror.rows[r][c]
            for c, v in enumerate(row)
        )
        for r, row in enumerate(g.rows)
    )
    return Grid._trusted(rows)


def _overlay_pairs(g: Grid, axis: str, bg: int) -> Grid:
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


def _palette_swap(g: Grid, mapping: tuple[tuple[int, int], ...]) -> Grid:
    table = list(range(10))
    for src, dst in mapping:
        table[src] = dst
    return Grid._trusted(tuple(tuple(table[v] for v in row) for row in g.rows))


def _select_extreme(g: Grid, perception: Perception, largest: bool) -> Grid:
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


def _count_encode(selected: list[GridObject], color: int) -> Grid:
    n = len(selected)
    if n == 0:
        raise PatternApplicationError("count_encode: no objects selected")
    if n > MAX_SIDE:
        raise BoundsError(f"count_encode: {n} objects exceed row capacity")
    return Grid._trusted(((color,) * n,))


def _paint(canvas: list[list[int]], cells: frozenset[Coord] | set[Coord], color: int) -> None:
    h, w = len(canvas), len(canvas[0])
    for r, c in cells:
        if 0 <= r < h and 0 <= c < w:
            canvas[r][c] = color


def _render(
    dims: tuple[int, int], bg: int, layers: list[tuple[set[Coord] | frozenset[Coord], int]]
) -> Grid:
    h, w = dims
    canvas = [[bg] * w for _ in range(h)]
    for cells, color in layers:
        _paint(canvas, cells, color)
    return Grid._trusted(tuple(tuple(row) for row in canvas))


def _shift(mask: frozenset[Coord], dr: int, dc: int) -> set[Coord]:
    return {(r + dr, c + dc) for r, c in mask}


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


def _gravity_shift(
    g: Grid, perception: Perception, selected: list[GridObject], direction: str
) -> Grid:
    h, w = g.height, g.width
    dr, dc = _DELTAS[direction]
    selected_ids = {o.id for o in selected}
    occupied: set[Coord] = set()
    for obj in perception.objects:
        if obj.id not in selected_ids:
            occupied |= obj.mask
    placed: dict[int, set[Coord]] = {}
    for obj in _gravity_order(selected, direction):
        steps = 0
        while True:
            trial = _shift(obj.mask, dr * (steps + 1), dc * (steps + 1))
            if any(not (0 <= r < h and 0 <= c < w) for r, c in trial):
                break
            if trial & occupied:
                break
            steps += 1
        final = _shift(obj.mask, dr * steps, dc * steps)
        placed[obj.id] = final
        occupied |= final
    layers = []
    for obj in perception.objects:
        cells = placed.get(obj.id, obj.mask)
        layers.append((cells, obj.color))
    return _render((h, w), perception.background, layers)


def _connect_cells(
    g: Grid, bg: int, selected: list[GridObject]
) -> set[Coord]:
    """Straight all-background gaps between cells of two different selected objects."""
    h, w = g.height, g.width
    owner: dict[Coord, int] = {}
    for obj in selected:
        for cell in obj.mask:
            owner[cell] = obj.id
    fills: set[Coord] = set()
    for r in range(h):
        cols = [c for c in range(w) if (r, c) in owner]
        for a, b in zip(cols, cols[1:]):
            if owner[(r, a)] != owner[(r, b)] and b - a > 1:
                gap = [(r, c) for c in range(a + 1, b)]
                if all(g.rows[gr][gc] == bg for gr, gc in gap):
                    fills.update(gap)
    for c in range(w):
        rows_ = [r for r in range(h) if (r, c) in owner]
        for a, b in zip(rows_, rows_[1:]):
            if owner[(a, c)] != owner[(b, c)] and b - a > 1:
                gap = [(r, c) for r in range(a + 1, b)]
                if all(g.rows[gr][gc] == bg for gr, gc in gap):
                    fills.update(gap)
    return fills


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


def apply_pattern(p: UnitPattern, g: Grid | Scene, connectivity: int = 4) -> Grid:
    """Apply one unit pattern; always returns a valid grid or raises.

    Whole-grid kinds transform the full grid. Object kinds segment the
    grid, transform the selected objects, and re-render every object onto
    a background canvas in ascending id order.

    ``g`` may be a Scene instead of a grid; the Scene's own connectivity
    then applies and ``connectivity`` is ignored. Callers that apply many
    patterns to one grid pass one Scene, so the grid is segmented at most
    once. The input grid is trusted to be valid (every ``Grid(...)`` is
    checked when built); the result is derived from it without checking
    it again, which is sound because each kind only rearranges its cells
    or paints validated parameter colors within the 30x30 bound.
    """
    scene = as_scene(g, connectivity)
    g = scene.grid
    kind = p.kind

    if kind == "reflect_h":
        return _reflect_h(g)
    if kind == "reflect_v":
        return _reflect_v(g)
    if kind == "rotate90":
        return _rotate90(g)
    if kind == "rotate180":
        return _rotate90(_rotate90(g))
    if kind == "rotate270":
        return _rotate90(_rotate90(_rotate90(g)))
    if kind == "scale_up":
        return _scale_up(g, p["factor"])
    if kind == "scale_down":
        return _scale_down(g, p["factor"])
    if kind == "tile_grid":
        return _tile_grid(g, p["rows"], p["cols"])
    if kind == "recolor":
        src, dst = p["src"], p["dst"]
        return Grid._trusted(
            tuple(tuple(dst if v == src else v for v in row) for row in g.rows)
        )
    if kind == "palette_swap":
        return _palette_swap(g, p["map"])

    if kind == "crop_to_content":
        return _crop_to_content(g, scene.background)
    if kind == "symmetry_complete":
        return _symmetry_complete(g, p["axis"], scene.background)
    if kind == "overlay_pairs":
        return _overlay_pairs(g, p["axis"], scene.background)

    perception = scene.perception
    bg = perception.background

    if kind == "select_largest":
        return _select_extreme(g, perception, largest=True)
    if kind == "select_smallest":
        return _select_extreme(g, perception, largest=False)

    selected = p.selector.resolve(perception)

    if kind == "count_encode":
        return _count_encode(selected, p["color"])
    if kind == "gravity_shift":
        return _gravity_shift(g, perception, selected, p["dir"])

    selected_ids = {o.id for o in selected}
    dims = (g.height, g.width)

    if kind == "translate":
        dx, dy = p["dx"], p["dy"]
        layers = []
        for obj in perception.objects:
            cells = _shift(obj.mask, dy, dx) if obj.id in selected_ids else obj.mask
            layers.append((cells, obj.color))
        return _render(dims, bg, layers)

    if kind == "delete_object":
        layers = [
            (obj.mask, obj.color)
            for obj in perception.objects
            if obj.id not in selected_ids
        ]
        return _render(dims, bg, layers)

    if kind == "duplicate_object":
        dx, dy = p["dx"], p["dy"]
        layers = [(obj.mask, obj.color) for obj in perception.objects]
        for obj in perception.objects:
            if obj.id in selected_ids:
                layers.append((_shift(obj.mask, dy, dx), obj.color))
        return _render(dims, bg, layers)

    if kind == "cavity_fill":
        layers = [(obj.mask, obj.color) for obj in perception.objects]
        for obj in perception.objects:
            if obj.id in selected_ids:
                for region in cavity_regions(obj.mask, obj.bbox):
                    layers.append((region, p["color"]))
        return _render(dims, bg, layers)

    if kind == "draw_bbox_border":
        layers = [(obj.mask, obj.color) for obj in perception.objects]
        for obj in perception.objects:
            if obj.id in selected_ids:
                layers.append((_bbox_border(obj), p["color"]))
        return _render(dims, bg, layers)

    if kind == "connect_objects":
        layers = [(obj.mask, obj.color) for obj in perception.objects]
        layers.append((_connect_cells(g, bg, selected), p["color"]))
        return _render(dims, bg, layers)

    raise PatternContractError(f"unknown pattern kind {kind!r}")  # pragma: no cover
