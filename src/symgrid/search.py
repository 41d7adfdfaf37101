"""Bounded symbolic search over the taxonomy: the default proposer.

Candidates are generated cheapest-first (whole-grid kinds, then object
kinds with parameters read off the scene diff), lazily and without being
applied or built: the search yields value keys ``(kind, parameter values
in signature order, (selector kind, selector value))``, the
``patterns.pattern_key`` form. ``induction.collect_candidates``
numbers them once each and stops at the budget;
``induction.detect_unit_patterns`` builds (and so validates) a
UnitPattern only for a key it verifies, then applies it once to the
pair. Generation order is deterministic, so repeated runs return
identical lists.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator

from .grid import Grid
from .induction import (
    CandidateTable,
    ScoredPattern,
    TrainPair,
    collect_candidates,
    detect_unit_patterns,
    match_objects,
)
from .patterns import AXES, DIRECTIONS, ISOMETRIES, KEY_ALL as ALL, RESULT_DIMS, PatternKey, Scene
from .perception import segment


def enumerate_candidates(pair: tuple[Grid, Grid], budget: int) -> list[ScoredPattern]:
    """The search's consistent candidates for one (input, output) grid
    pair, perceived at connectivity 4: up to ``budget`` distinct ones are
    collected, then verified by ``detect_unit_patterns``."""
    gin, gout = pair
    pair = TrainPair(Scene(gin), gout)
    table = CandidateTable()
    ids = collect_candidates(pair, SearchProposer(), budget, table)
    found = detect_unit_patterns(pair, table, ids)
    return [ScoredPattern(table.pattern(c), 1, 1.0, exact) for c, exact in found.items()]


class SearchProposer:
    """The default proposer: the search's candidates as value keys, unverified."""

    def propose(self, pair: TrainPair, budget: int) -> Iterator[PatternKey]:
        return _proposals(pair)


def _uniform_color(g: Grid) -> int | None:
    colors = {v for row in g.rows for v in row}
    return colors.pop() if len(colors) == 1 else None


def _proposals(pair: TrainPair) -> Iterator[PatternKey]:
    """Yield pattern keys in the canonical cheapest-first order.

    Parameters are read off the pair: the reflections, rotations and
    symmetry completions are proposed where their result dims
    (``patterns.RESULT_DIMS``) are the output's, dimension ratios drive
    the scaling kinds, its differing cells drive the color kinds, and
    the object matching drives moves, deletions, and duplications. Identity
    parameterizations (translate(0,0), recolor(c,c), ...) are never
    generated. The input is segmented only where its objects are read:
    the count branch and same-dims pairs.

    The same-dims branch (the color kinds and every object kind, whose
    results all keep the input's dims) comes last. It is skipped, and the
    output never segmented, where the pair's ``same_dims_reachable`` is
    False: ``induce`` found too few pairs keeping their dims for any of
    its keys to reach the threshold. What is yielded before it is the
    same either way.
    """
    scene, gout = pair.scene, pair.output
    gin = scene.grid
    hi, wi = gin.dims
    ho, wo = gout.dims
    out = (ho, wo)
    same_dims = (hi, wi) == out

    for kind in ISOMETRIES:
        if RESULT_DIMS[kind]((), hi, wi) == out:
            yield (kind, (), ALL)
    if ho <= hi and wo <= wi:
        yield ("crop_to_content", (), ALL)
    for axis in AXES:
        if RESULT_DIMS["symmetry_complete"]((axis,), hi, wi) == out:
            yield ("symmetry_complete", (axis,), ALL)
    if ho % hi == 0 and wo % wi == 0:
        f = ho // hi
        if f >= 2 and f == wo // wi:
            yield ("scale_up", (f,), ALL)
    if hi % ho == 0 and wi % wo == 0:
        f = hi // ho
        if f >= 2 and f == wi // wo:
            yield ("scale_down", (f,), ALL)
    if ho % hi == 0 and wo % wi == 0:
        r, c = ho // hi, wo // wi
        if (r, c) != (1, 1):
            yield ("tile_grid", (r, c), ALL)
    if wi % 2 == 0 and (ho, wo) == (hi, wi // 2):
        yield ("overlay_pairs", ("h",), ALL)
    if hi % 2 == 0 and (ho, wo) == (hi // 2, wi):
        yield ("overlay_pairs", ("v",), ALL)
    if ho <= hi and wo <= wi:
        yield ("select_largest", (), ALL)
        yield ("select_smallest", (), ALL)

    target = _uniform_color(gout) if ho == 1 else None
    if target is not None:
        pin = scene.perception
        if len(pin.objects) == wo:
            yield ("count_encode", (target,), ALL)
        for color in sorted({o.color for o in pin.objects}):
            if sum(1 for o in pin.objects if o.color == color) == wo:
                yield ("count_encode", (target,), ("color", color))

    if not same_dims or not pair.same_dims_reachable:
        return
    pin = scene.perception

    # (input color, output color) of each differing cell, first seen first.
    color_moves = dict.fromkeys(zip(pair.held, pair.wanted))
    new_colors = dict.fromkeys(pair.wanted)

    for src, dst in color_moves:
        yield ("recolor", (src, dst), ALL)

    if color_moves:
        pairs = set(zip(chain.from_iterable(gin.rows), chain.from_iterable(gout.rows)))
        if len({a for a, _ in pairs}) == len(pairs):  # each input color maps once
            swaps = tuple(sorted((a, b) for a, b in pairs if a != b))
            yield ("palette_swap", (swaps,), ALL)

    pout = segment(gout, scene.connectivity)
    rank = pin.size_ranks
    retained, removed, added = match_objects(pin, pout)

    moved = []
    for a, b in retained:
        delta = (b.bbox[0] - a.bbox[0], b.bbox[1] - a.bbox[1])
        if delta != (0, 0):
            moved.append((a, delta))
    deltas = dict.fromkeys(delta for _, delta in moved)
    for dr, dc in deltas:
        yield ("translate", (dc, dr), ALL)
        for color in sorted(
            {a.color for a, delta in moved if delta == (dr, dc)}
        ):
            yield ("translate", (dc, dr), ("color", color))
    for a, (dr, dc) in moved:
        yield ("translate", (dc, dr), ("size_rank", rank[a.id]))

    if removed:
        yield ("delete_object", (), ALL)
        for color in sorted({o.color for o in removed}):
            yield ("delete_object", (), ("color", color))
        for obj in removed:
            yield ("delete_object", (), ("size_rank", rank[obj.id]))
        for count in sorted({o.cavity_count for o in removed}):
            yield ("delete_object", (), ("cavities", count))

    for out_obj in added:
        for in_obj in pin.objects:
            if in_obj.shape == out_obj.shape and in_obj.color == out_obj.color:
                dy = out_obj.bbox[0] - in_obj.bbox[0]
                dx = out_obj.bbox[1] - in_obj.bbox[1]
                if (dx, dy) == (0, 0):
                    continue
                yield ("duplicate_object", (dx, dy), ALL)
                yield ("duplicate_object", (dx, dy), ("color", in_obj.color))
                yield ("duplicate_object", (dx, dy), ("size_rank", rank[in_obj.id]))

    holed = [o for o in pin.objects if o.cavity_count > 0]
    if holed and color_moves:
        holed_colors = sorted({o.color for o in holed})
        holed_counts = sorted({o.cavity_count for o in holed})
        for color in new_colors:
            yield ("cavity_fill", (color,), ALL)
            for oc in holed_colors:
                yield ("cavity_fill", (color,), ("color", oc))
            for count in holed_counts:
                yield ("cavity_fill", (color,), ("cavities", count))

    if pin.objects and color_moves:
        object_colors = sorted({o.color for o in pin.objects})
        for direction in DIRECTIONS:
            yield ("gravity_shift", (direction,), ALL)
            for color in object_colors:
                yield ("gravity_shift", (direction,), ("color", color))

        for color in new_colors:
            yield ("draw_bbox_border", (color,), ALL)
            for oc in object_colors:
                yield ("draw_bbox_border", (color,), ("color", oc))
            yield ("draw_bbox_border", (color,), ("size_rank", 0))

        if len(pin.objects) >= 2:
            multi_colors = sorted(
                c
                for c in object_colors
                if sum(1 for o in pin.objects if o.color == c) >= 2
            )
            for color in new_colors:
                yield ("connect_objects", (color,), ALL)
                for oc in multi_colors:
                    yield ("connect_objects", (color,), ("color", oc))
