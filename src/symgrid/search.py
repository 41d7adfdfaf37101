"""Bounded symbolic search over the taxonomy: the default proposer.

Candidates are generated cheapest-first (whole-grid kinds, then object
kinds with parameters read off the scene diff), lazily and without being
applied: ``induction.collect_candidates`` deduplicates them on their
canonical serialization and stops at the budget, and
``induction.detect_unit_patterns`` verifies each one once against the
pair. Generation order is deterministic, so repeated runs
return identical lists.
"""

from __future__ import annotations

from typing import Iterator

from .grid import Grid
from .induction import (
    Pair,
    ScoredPattern,
    collect_candidates,
    detect_unit_patterns,
    match_objects,
)
from .patterns import (
    DIRECTIONS,
    Scene,
    Selector,
    UnitPattern,
    as_scene,
    make_pattern,
)
from .perception import segment


def enumerate_candidates(
    pair: Pair, budget: int, connectivity: int = 4
) -> list[ScoredPattern]:
    """The search's consistent candidates for one pair: up to ``budget``
    distinct ones are collected, then verified by ``detect_unit_patterns``."""
    gin, gout = pair
    pair = (as_scene(gin, connectivity), gout)
    candidates = collect_candidates(pair, SearchProposer(), budget, connectivity)
    return detect_unit_patterns(pair, candidates, connectivity)


class SearchProposer:
    """The default proposer: the search's candidates, unverified."""

    def propose(self, scene: Scene, output: Grid, budget: int) -> Iterator[UnitPattern]:
        return _proposals(scene, output)


def _ordered_unique(items):
    seen = set()
    out = []
    for item in items:
        if item not in seen:
            seen.add(item)
            out.append(item)
    return out


def _uniform_color(g: Grid) -> int | None:
    colors = {v for row in g.rows for v in row}
    return colors.pop() if len(colors) == 1 else None


def _proposals(scene: Scene, gout: Grid) -> Iterator[UnitPattern]:
    """Yield parameterized patterns in the canonical cheapest-first order.

    Parameters are read off the pair (the Scene's grid is its input):
    dimension ratios drive the scaling kinds, the cell diff drives the
    color kinds, and the object matching drives moves, deletions, and
    duplications. Identity parameterizations (translate(0,0),
    recolor(c,c), ...) are never generated.
    """
    gin = scene.grid
    hi, wi = gin.dims
    ho, wo = gout.dims
    same_dims = gin.dims == gout.dims
    transposed = (wi, hi) == (ho, wo)

    if same_dims:
        yield make_pattern("reflect_h")
        yield make_pattern("reflect_v")
    if transposed:
        yield make_pattern("rotate90")
    if same_dims:
        yield make_pattern("rotate180")
    if transposed:
        yield make_pattern("rotate270")
    if ho <= hi and wo <= wi:
        yield make_pattern("crop_to_content")
    if same_dims:
        yield make_pattern("symmetry_complete", axis="h")
        yield make_pattern("symmetry_complete", axis="v")
    if ho % hi == 0 and wo % wi == 0:
        f = ho // hi
        if f >= 2 and f == wo // wi:
            yield make_pattern("scale_up", factor=f)
    if hi % ho == 0 and wi % wo == 0:
        f = hi // ho
        if f >= 2 and f == wi // wo:
            yield make_pattern("scale_down", factor=f)
    if ho % hi == 0 and wo % wi == 0:
        r, c = ho // hi, wo // wi
        if (r, c) != (1, 1):
            yield make_pattern("tile_grid", rows=r, cols=c)
    if wi % 2 == 0 and (ho, wo) == (hi, wi // 2):
        yield make_pattern("overlay_pairs", axis="h")
    if hi % 2 == 0 and (ho, wo) == (hi // 2, wi):
        yield make_pattern("overlay_pairs", axis="v")
    if ho <= hi and wo <= wi:
        yield make_pattern("select_largest")
        yield make_pattern("select_smallest")

    pin = scene.perception

    target = _uniform_color(gout)
    if ho == 1 and target is not None:
        if len(pin.objects) == wo:
            yield make_pattern("count_encode", color=target)
        for color in sorted({o.color for o in pin.objects}):
            if sum(1 for o in pin.objects if o.color == color) == wo:
                yield make_pattern(
                    "count_encode", color=target, selector=Selector("color", color)
                )

    if not same_dims:
        return

    changed = [
        (r, c, gin.rows[r][c], gout.rows[r][c])
        for r in range(hi)
        for c in range(wi)
        if gin.rows[r][c] != gout.rows[r][c]
    ]
    color_moves = _ordered_unique((a, b) for _, _, a, b in changed)
    new_colors = _ordered_unique(b for _, _, _, b in changed)

    for src, dst in color_moves:
        yield make_pattern("recolor", src=src, dst=dst)

    if changed:
        mapping: dict[int, int] = {}
        functional = True
        for row_in, row_out in zip(gin.rows, gout.rows):
            for a, b in zip(row_in, row_out):
                if mapping.setdefault(a, b) != b:
                    functional = False
                    break
            if not functional:
                break
        if functional:
            pairs = tuple(sorted((a, b) for a, b in mapping.items() if a != b))
            if pairs:
                yield make_pattern("palette_swap", map=pairs)

    pout = segment(gout, scene.connectivity)
    rank = pin.size_ranks
    tags = match_objects(pin, pout)
    in_by_id = {o.id: o for o in pin.objects}
    out_by_id = {o.id: o for o in pout.objects}
    retained = [
        (in_by_id[t.input_id], out_by_id[t.output_id])
        for t in tags
        if t.tag == "retained"
    ]
    removed = [in_by_id[t.input_id] for t in tags if t.tag == "removed"]
    added = [out_by_id[t.output_id] for t in tags if t.tag == "added"]

    moved = []
    for a, b in retained:
        delta = (b.bbox[0] - a.bbox[0], b.bbox[1] - a.bbox[1])
        if delta != (0, 0):
            moved.append((a, delta))
    deltas = _ordered_unique(delta for _, delta in moved)
    for dr, dc in deltas:
        yield make_pattern("translate", dx=dc, dy=dr)
        for color in sorted(
            {a.color for a, delta in moved if delta == (dr, dc)}
        ):
            yield make_pattern(
                "translate", dx=dc, dy=dr, selector=Selector("color", color)
            )
    for a, (dr, dc) in moved:
        yield make_pattern(
            "translate",
            dx=dc,
            dy=dr,
            selector=Selector("size_rank", rank[a.id]),
        )

    if removed:
        yield make_pattern("delete_object")
        for color in sorted({o.color for o in removed}):
            yield make_pattern("delete_object", selector=Selector("color", color))
        for obj in removed:
            yield make_pattern(
                "delete_object", selector=Selector("size_rank", rank[obj.id])
            )
        for count in sorted({o.cavity_count for o in removed}):
            yield make_pattern("delete_object", selector=Selector("cavities", count))

    for out_obj in added:
        for in_obj in pin.objects:
            if in_obj.shape == out_obj.shape and in_obj.color == out_obj.color:
                dy = out_obj.bbox[0] - in_obj.bbox[0]
                dx = out_obj.bbox[1] - in_obj.bbox[1]
                if (dx, dy) == (0, 0):
                    continue
                yield make_pattern("duplicate_object", dx=dx, dy=dy)
                yield make_pattern(
                    "duplicate_object",
                    dx=dx,
                    dy=dy,
                    selector=Selector("color", in_obj.color),
                )
                yield make_pattern(
                    "duplicate_object",
                    dx=dx,
                    dy=dy,
                    selector=Selector("size_rank", rank[in_obj.id]),
                )

    holed = [o for o in pin.objects if o.cavity_count > 0]
    if holed and changed:
        holed_colors = sorted({o.color for o in holed})
        holed_counts = sorted({o.cavity_count for o in holed})
        for color in new_colors:
            yield make_pattern("cavity_fill", color=color)
            for oc in holed_colors:
                yield make_pattern(
                    "cavity_fill", color=color, selector=Selector("color", oc)
                )
            for count in holed_counts:
                yield make_pattern(
                    "cavity_fill", color=color, selector=Selector("cavities", count)
                )

    if pin.objects and changed:
        object_colors = sorted({o.color for o in pin.objects})
        for direction in DIRECTIONS:
            yield make_pattern("gravity_shift", dir=direction)
            for color in object_colors:
                yield make_pattern(
                    "gravity_shift", dir=direction, selector=Selector("color", color)
                )

        for color in new_colors:
            yield make_pattern("draw_bbox_border", color=color)
            for oc in object_colors:
                yield make_pattern(
                    "draw_bbox_border", color=color, selector=Selector("color", oc)
                )
            yield make_pattern(
                "draw_bbox_border", color=color, selector=Selector("size_rank", 0)
            )

        if len(pin.objects) >= 2:
            multi_colors = sorted(
                c
                for c in object_colors
                if sum(1 for o in pin.objects if o.color == c) >= 2
            )
            for color in new_colors:
                yield make_pattern("connect_objects", color=color)
                for oc in multi_colors:
                    yield make_pattern(
                        "connect_objects", color=color, selector=Selector("color", oc)
                    )
