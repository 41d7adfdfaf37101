"""Scene decomposition: objects, cavities, and the background profile.

Segmentation is a color-aware breadth-first flood fill: same-colored,
edge-adjacent (4-connectivity by default), non-background cells form one
object. Objects are numbered in row-major first-encounter order, so the
decomposition is deterministic and runs in time linear in the cell count.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .grid import Coord, Grid

NEIGHBORS_4 = ((-1, 0), (1, 0), (0, -1), (0, 1))
NEIGHBORS_8 = NEIGHBORS_4 + ((-1, -1), (-1, 1), (1, -1), (1, 1))


@dataclass(frozen=True)
class GridObject:
    """One connected component: monochrome pixel set plus derived features."""

    id: int
    color: int
    mask: frozenset[Coord]
    bbox: tuple[int, int, int, int]  # (top, left, bottom, right), inclusive
    cavity_count: int

    @property
    def size(self) -> int:
        return len(self.mask)

    @property
    def shape(self) -> frozenset[Coord]:
        """Mask normalized to its bounding-box origin."""
        top, left, _, _ = self.bbox
        return frozenset((r - top, c - left) for r, c in self.mask)


@dataclass(frozen=True)
class Perception:
    """A grid's decomposition: figure objects over a background color."""

    objects: tuple[GridObject, ...]
    background: int


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


def _bbox_of(cells: list[Coord]) -> tuple[int, int, int, int]:
    rs = [r for r, _ in cells]
    cs = [c for _, c in cells]
    return (min(rs), min(cs), max(rs), max(cs))


def cavity_regions(
    mask: frozenset[Coord], bbox: tuple[int, int, int, int]
) -> list[frozenset[Coord]]:
    """Connected regions of non-mask cells inside bbox that avoid its border.

    Flood fill starts from every border cell of the bounding box that is
    not part of the mask (4-connectivity over the complement); complement
    cells never reached are grouped into the returned cavity regions.
    """
    top, left, bottom, right = bbox
    outside: set[Coord] = set()
    queue: deque[Coord] = deque()
    for r in range(top, bottom + 1):
        for c in (left, right):
            if (r, c) not in mask and (r, c) not in outside:
                outside.add((r, c))
                queue.append((r, c))
    for c in range(left, right + 1):
        for r in (top, bottom):
            if (r, c) not in mask and (r, c) not in outside:
                outside.add((r, c))
                queue.append((r, c))
    while queue:
        r, c = queue.popleft()
        for dr, dc in NEIGHBORS_4:
            nr, nc = r + dr, c + dc
            if top <= nr <= bottom and left <= nc <= right:
                if (nr, nc) not in mask and (nr, nc) not in outside:
                    outside.add((nr, nc))
                    queue.append((nr, nc))

    regions: list[frozenset[Coord]] = []
    seen: set[Coord] = set()
    for r in range(top, bottom + 1):
        for c in range(left, right + 1):
            if (r, c) in mask or (r, c) in outside or (r, c) in seen:
                continue
            cells = [(r, c)]
            seen.add((r, c))
            queue.append((r, c))
            while queue:
                cr, cc = queue.popleft()
                for dr, dc in NEIGHBORS_4:
                    nr, nc = cr + dr, cc + dc
                    if top <= nr <= bottom and left <= nc <= right:
                        if (
                            (nr, nc) not in mask
                            and (nr, nc) not in outside
                            and (nr, nc) not in seen
                        ):
                            seen.add((nr, nc))
                            cells.append((nr, nc))
                            queue.append((nr, nc))
            regions.append(frozenset(cells))
    return regions


def detect_cavities(obj: GridObject, dims: tuple[int, int]) -> int:
    """Number of enclosed complement regions inside the object's bbox."""
    h, w = dims
    for r, c in obj.mask:
        if not (0 <= r < h and 0 <= c < w):
            raise ValueError(f"mask cell ({r},{c}) outside grid {h}x{w}")
    return len(cavity_regions(obj.mask, obj.bbox))


def segment(g: Grid, connectivity: int = 4) -> Perception:
    """Decompose a grid into monochrome connected components.

    Background-colored cells never form objects; every non-background
    cell belongs to exactly one object. Objects are numbered 0,1,... in
    row-major first-encounter order.
    """
    if connectivity not in (4, 8):
        raise ValueError(f"connectivity must be 4 or 8, got {connectivity}")
    offsets = NEIGHBORS_4 if connectivity == 4 else NEIGHBORS_8
    bg = background_color(g)
    h, w = g.height, g.width
    visited = [[False] * w for _ in range(h)]
    objects: list[GridObject] = []
    queue: deque[Coord] = deque()
    for r in range(h):
        for c in range(w):
            if visited[r][c] or g.rows[r][c] == bg:
                continue
            color = g.rows[r][c]
            cells: list[Coord] = [(r, c)]
            visited[r][c] = True
            queue.append((r, c))
            while queue:
                cr, cc = queue.popleft()
                for dr, dc in offsets:
                    nr, nc = cr + dr, cc + dc
                    if 0 <= nr < h and 0 <= nc < w and not visited[nr][nc]:
                        if g.rows[nr][nc] == color:
                            visited[nr][nc] = True
                            cells.append((nr, nc))
                            queue.append((nr, nc))
            mask = frozenset(cells)
            bbox = _bbox_of(cells)
            objects.append(
                GridObject(
                    id=len(objects),
                    color=color,
                    mask=mask,
                    bbox=bbox,
                    cavity_count=len(cavity_regions(mask, bbox)),
                )
            )
    return Perception(objects=tuple(objects), background=bg)
