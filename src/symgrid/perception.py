"""Scene decomposition: objects, cavities, and the background profile.

Segmentation is a color-aware flood fill: same-colored, edge-adjacent
(4-connectivity by default), non-background cells form one object.
Objects are numbered in row-major first-encounter order, so the
decomposition is deterministic and runs in time linear in the cell count.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grid import Coord, Grid

NEIGHBORS_4 = ((-1, 0), (1, 0), (0, -1), (0, 1))


class lazy:
    """A feature computed on first access and stored in the instance's
    ``__dict__``, where later lookups find it before this descriptor.

    ``functools.cached_property`` does the same, but on Python 3.11 it
    takes a lock shared by every instance on each first access; the
    library is single-threaded, so that lock guards nothing. The store
    goes around a frozen dataclass's ``__setattr__``, as
    ``cached_property``'s does, and leaves its equality and hash alone.
    """

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True)
class GridObject:
    """One connected component: monochrome pixel set plus derived features.

    ``segment`` stores a multi-cell object's ``id``, ``color``, ``size``
    and flat cell indices; ``mask`` and ``bbox`` are built together on the
    first read of either, and ``cavity_count`` on its first read. An object
    built through ``__init__`` holds every field and reads ``size`` off its
    mask."""

    id: int
    color: int
    mask: frozenset[Coord]
    bbox: tuple[int, int, int, int]  # (top, left, bottom, right), inclusive
    cavity_count: int

    @classmethod
    def _trusted(cls, **fields) -> GridObject:
        """Build an object without the dataclass ``__init__``.

        ``GridObject`` checks nothing, so this is the same object: one
        ``__dict__`` fill instead of a frozen ``__setattr__`` per field.
        For ``segment``, which builds thousands of them.
        """
        obj = object.__new__(cls)
        obj.__dict__.update(fields)
        return obj

    @lazy
    def size(self) -> int:
        return len(self.mask)

    @lazy
    def shape(self) -> frozenset[Coord]:
        """Mask normalized to its bounding-box origin, computed on first use."""
        top, left, _, _ = self.bbox
        return frozenset((r - top, c - left) for r, c in self.mask)

    @lazy
    def cavities(self) -> tuple[frozenset[Coord], ...]:
        """The enclosed regions, as ``cavity_regions`` gives them, on first use."""
        return tuple(cavity_regions(self.mask, self.bbox))


def _geometry(obj: GridObject) -> None:
    """Store ``mask`` and ``bbox`` built from the cells ``segment`` kept:
    indices into its padded flat grid of row length ``w``."""
    members, w = obj.__dict__.pop("_cells")
    origin = w + 1  # padded index of cell (0, 0)
    cols = [i % w for i in members]
    # ``members[0]`` is the object's first cell in row-major order.
    top, bottom = members[0] // w - 1, max(members) // w - 1
    obj.__dict__["bbox"] = (top, min(cols) - 1, bottom, max(cols) - 1)
    obj.__dict__["mask"] = frozenset([divmod(i - origin, w) for i in members])


def mask(obj: GridObject) -> frozenset[Coord]:
    _geometry(obj)
    return obj.mask


def bbox(obj: GridObject) -> tuple[int, int, int, int]:
    _geometry(obj)
    return obj.bbox


def cavity_count(obj: GridObject) -> int:
    top, left, bottom, right = obj.bbox
    height, width = bottom - top + 1, right - left + 1
    if height <= 2 or width <= 2 or obj.size == height * width:
        return 0  # every bbox cell off the mask lies on the bbox border
    return len(obj.cavities)


# Fields ``segment`` leaves to their first read. Not in the class body,
# where a descriptor would become the field's default in ``__init__``.
GridObject.mask = lazy(mask)
GridObject.bbox = lazy(bbox)
GridObject.cavity_count = lazy(cavity_count)
del mask, bbox, cavity_count


# The shape of every one-cell object, shared by all of them.
UNIT_SHAPE: frozenset[Coord] = frozenset({(0, 0)})


@dataclass(frozen=True)
class Perception:
    """A grid's decomposition: figure objects over a background color."""

    objects: tuple[GridObject, ...]
    background: int

    @lazy
    def by_size(self) -> tuple[GridObject, ...]:
        """The size order: largest first, ties to the lower id.

        ``size_rank=k`` selects ``by_size[k]``. Computed on first use.
        """
        return tuple(sorted(self.objects, key=lambda o: (-o.size, o.id)))

    @lazy
    def size_ranks(self) -> dict[int, int]:
        """Object id -> its position in ``by_size``."""
        return {o.id: rank for rank, o in enumerate(self.by_size)}


def background_color(g: Grid) -> int:
    """Most frequent color; ties broken by the lowest color value."""
    counts = [0] * 10
    for row in g.rows:
        for v in row:
            counts[v] += 1
    best = 0
    for color in range(1, 10):
        if counts[color] > counts[best]:
            best = color
    return best


def cavity_regions(
    mask: frozenset[Coord], bbox: tuple[int, int, int, int]
) -> list[frozenset[Coord]]:
    """Connected regions of non-mask cells inside bbox that avoid its border.

    One labelling pass (Rosenfeld & Pfaltz, J. ACM 1966): each 4-connected
    component of the complement inside the bbox is flooded once from its
    row-major first cell and kept when none of its cells lies on the bbox
    border. Regions come in row-major order of their first cell.
    """
    top, left, bottom, right = bbox
    seen = set(mask)
    regions: list[frozenset[Coord]] = []
    for r in range(top, bottom + 1):
        for c in range(left, right + 1):
            if (r, c) in seen:
                continue
            seen.add((r, c))
            cells = [(r, c)]
            enclosed = True
            for cr, cc in cells:  # the loop also visits cells appended below
                if cr == top or cr == bottom or cc == left or cc == right:
                    enclosed = False
                for dr, dc in NEIGHBORS_4:
                    nr, nc = cr + dr, cc + dc
                    if top <= nr <= bottom and left <= nc <= right and (nr, nc) not in seen:
                        seen.add((nr, nc))
                        cells.append((nr, nc))
            if enclosed:
                regions.append(frozenset(cells))
    return regions


def segment(g: Grid, connectivity: int = 4) -> Perception:
    """Decompose a grid into monochrome connected components.

    Background-colored cells never form objects; every non-background
    cell belongs to exactly one object. Objects are numbered 0,1,... in
    row-major first-encounter order.

    The fill runs over flat indices into a copy of the grid padded with a
    -1 border, so every neighbor index is in range, and a reached cell is
    overwritten with -1 so it never matches again. A multi-cell object
    keeps its cell indices and size; its mask and bbox are built from
    them on first read, where the cell order does not matter (the mask is
    a set, the bbox a min/max). A one-cell object, the most common kind,
    is built directly from its cell, with the shared ``UNIT_SHAPE`` as its
    shape.
    """
    if connectivity not in (4, 8):
        raise ValueError(f"connectivity must be 4 or 8, got {connectivity}")
    bg = background_color(g)
    w = g.width + 2  # padded row length
    cells = [-1] * (w + 1)
    for row in g.rows:
        cells += row
        cells += (-1, -1)
    cells += [-1] * (w - 1)
    if connectivity == 4:
        offsets = (-w, w, -1, 1)
    else:
        offsets = (-w - 1, -w, -w + 1, -1, 1, w - 1, w, w + 1)
    origin = w + 1  # padded index of cell (0, 0)
    objects: list[GridObject] = []
    trusted = GridObject._trusted
    for start in range(origin, len(cells) - w):
        color = cells[start]
        if color < 0 or color == bg:
            continue
        cells[start] = -1
        members = [start]
        for i in members:  # the loop also visits cells appended below
            for d in offsets:
                j = i + d
                if cells[j] == color:
                    cells[j] = -1
                    members.append(j)
        if len(members) == 1:
            r, c = divmod(start - origin, w)
            mask = frozenset(((r, c),))
            obj = trusted(
                id=len(objects), color=color, mask=mask, bbox=(r, c, r, c), cavity_count=0, size=1
            )
            obj.__dict__["shape"] = UNIT_SHAPE
        else:
            obj = trusted(id=len(objects), color=color, size=len(members), _cells=(members, w))
        objects.append(obj)
    return Perception(objects=tuple(objects), background=bg)
