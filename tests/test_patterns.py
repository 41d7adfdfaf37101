"""Taxonomy semantics, group laws, serialization, error contracts."""

import itertools
import random
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from symgrid import (
    BoundsError,
    Grid,
    KIND_ORDER,
    PatternApplicationError,
    PatternContractError,
    Scene,
    Selector,
    Task,
    apply_pattern,
    background_color,
    build_pattern,
    format_pattern,
    grids_equal,
    induce,
    make_pattern,
    parse_pattern,
    pattern_key,
    segment,
)
from symgrid.patterns import (
    AXES,
    DIRECTIONS,
    GROWS,
    KEY_ALL,
    RESULT_DIMS,
    _KINDS,
    may_change,
)
from conftest import grids, random_grid


def apply(kind, g, selector=Selector("all"), **params):
    return apply_pattern(make_pattern(kind, selector=selector, **params), g)


class TestTaxonomy:
    def test_exactly_23_kinds(self):
        assert len(KIND_ORDER) == 23
        assert len(set(KIND_ORDER)) == 23


class TestWholeGridKinds:
    def test_rotate90(self):
        g = Grid.from_rows([[1, 2], [3, 4]])
        assert apply("rotate90", g) == Grid.from_rows([[3, 1], [4, 2]])

    def test_rotate90_non_square(self):
        g = Grid.from_rows([[1, 2, 3]])
        assert apply("rotate90", g) == Grid.from_rows([[1], [2], [3]])

    def test_reflect_h(self):
        g = Grid.from_rows([[1, 2], [3, 4]])
        assert apply("reflect_h", g) == Grid.from_rows([[2, 1], [4, 3]])

    def test_reflect_v(self):
        g = Grid.from_rows([[1, 2], [3, 4]])
        assert apply("reflect_v", g) == Grid.from_rows([[3, 4], [1, 2]])

    def test_scale_up(self):
        g = Grid.from_rows([[1, 2]])
        assert apply("scale_up", g, factor=2) == Grid.from_rows(
            [[1, 1, 2, 2], [1, 1, 2, 2]]
        )

    def test_scale_up_bounds(self):
        g = Grid.from_rows([[0] * 16] * 16)
        with pytest.raises(BoundsError):
            apply("scale_up", g, factor=2)

    def test_scale_down_exact_blowup(self):
        base = Grid.from_rows([[1, 2], [3, 4]])
        blown = apply("scale_up", base, factor=3)
        assert apply("scale_down", blown, factor=3) == base

    def test_scale_down_rejects_non_replication(self):
        g = Grid.from_rows([[1, 2], [3, 4]])
        with pytest.raises(PatternApplicationError, match="not uniform"):
            apply("scale_down", g, factor=2)

    def test_tile_grid(self):
        g = Grid.from_rows([[1, 2]])
        assert apply("tile_grid", g, rows=2, cols=2) == Grid.from_rows(
            [[1, 2, 1, 2], [1, 2, 1, 2]]
        )

    def test_tile_bounds(self):
        g = Grid.from_rows([[0] * 16])
        with pytest.raises(BoundsError):
            apply("tile_grid", g, rows=1, cols=2)

    def test_recolor(self):
        g = Grid.from_rows([[1, 2], [1, 0]])
        assert apply("recolor", g, src=1, dst=5) == Grid.from_rows([[5, 2], [5, 0]])

    def test_palette_swap_is_simultaneous(self):
        g = Grid.from_rows([[1, 2], [2, 1]])
        swapped = apply("palette_swap", g, map=((1, 2), (2, 1)))
        assert swapped == Grid.from_rows([[2, 1], [1, 2]])

    def test_crop_to_content(self):
        g = Grid.from_rows(
            [
                [0, 0, 0, 0],
                [0, 5, 5, 0],
                [0, 0, 5, 0],
                [0, 0, 0, 0],
            ]
        )
        assert apply("crop_to_content", g) == Grid.from_rows([[5, 5], [0, 5]])

    def test_crop_empty_errors(self):
        with pytest.raises(PatternApplicationError, match="no content"):
            apply("crop_to_content", Grid.from_rows([[0, 0], [0, 0]]))

    def test_symmetry_complete(self):
        g = Grid.from_rows([[1, 2, 0, 0]])
        assert apply("symmetry_complete", g, axis="h") == Grid.from_rows([[1, 2, 2, 1]])

    def test_overlay_pairs(self):
        g = Grid.from_rows([[1, 0, 0, 2]])
        assert apply("overlay_pairs", g, axis="h") == Grid.from_rows([[1, 2]])

    def test_overlay_odd_width_errors(self):
        with pytest.raises(PatternApplicationError, match="odd"):
            apply("overlay_pairs", Grid.from_rows([[1, 0, 2]]), axis="h")

    def test_select_largest(self):
        g = Grid.from_rows(
            [
                [1, 1, 0, 0],
                [1, 1, 0, 2],
                [0, 0, 0, 0],
            ]
        )
        assert apply("select_largest", g) == Grid.from_rows([[1, 1], [1, 1]])
        assert apply("select_smallest", g) == Grid.from_rows([[2]])


class TestObjectKinds:
    def test_translate_clips(self):
        g = Grid.from_rows([[0, 0], [0, 3]])
        moved = apply("translate", g, dx=1, dy=0)
        assert moved == Grid.from_rows([[0, 0], [0, 0]])

    def test_translate_selector(self):
        g = Grid.from_rows(
            [
                [1, 0, 2],
                [0, 0, 0],
            ]
        )
        moved = apply("translate", g, dx=0, dy=1, selector=Selector("color", 2))
        assert moved == Grid.from_rows([[1, 0, 0], [0, 0, 2]])

    def test_cavity_fill_ring(self):
        # One ring of 2s over background 0; the enclosed center becomes 4.
        g = Grid.from_rows(
            [
                [0, 0, 0, 0, 0],
                [0, 2, 2, 2, 0],
                [0, 2, 0, 2, 0],
                [0, 2, 2, 2, 0],
                [0, 0, 0, 0, 0],
            ]
        )
        filled = apply("cavity_fill", g, color=4)
        expected = g.to_lists()
        expected[2][2] = 4
        assert filled == Grid.from_rows(expected)
        # Cross-checked against the perception module: the painted cells
        # are exactly the enclosed regions it reports.
        obj = segment(g).objects[0]
        assert obj.cavity_count == 1

    def test_delete_object_by_rank(self):
        g = Grid.from_rows(
            [
                [5, 5, 0],
                [0, 0, 0],
                [0, 0, 5],
            ]
        )
        out = apply("delete_object", g, selector=Selector("size_rank", 0))
        assert out == Grid.from_rows([[0, 0, 0], [0, 0, 0], [0, 0, 5]])

    def test_duplicate_object(self):
        g = Grid.from_rows([[7, 0, 0, 0]])
        out = apply("duplicate_object", g, dx=2, dy=0)
        assert out == Grid.from_rows([[7, 0, 7, 0]])

    def test_gravity_shift_down_stacks(self):
        g = Grid.from_rows(
            [
                [1, 0],
                [0, 0],
                [2, 0],
                [0, 0],
            ]
        )
        out = apply("gravity_shift", g, dir="down")
        assert out == Grid.from_rows([[0, 0], [0, 0], [1, 0], [2, 0]])

    def test_gravity_unselected_objects_block(self):
        g = Grid.from_rows(
            [
                [1, 0],
                [0, 0],
                [2, 0],
                [0, 0],
            ]
        )
        out = apply("gravity_shift", g, dir="down", selector=Selector("color", 1))
        assert out == Grid.from_rows([[0, 0], [1, 0], [2, 0], [0, 0]])

    def test_draw_bbox_border(self):
        g = Grid.from_rows(
            [
                [0, 0, 0, 0],
                [0, 6, 0, 0],
                [0, 6, 6, 0],
                [0, 0, 0, 0],
            ]
        )
        out = apply("draw_bbox_border", g, color=3)
        assert out == Grid.from_rows(
            [
                [0, 0, 0, 0],
                [0, 3, 3, 0],
                [0, 3, 3, 0],
                [0, 0, 0, 0],
            ]
        )

    def test_connect_objects(self):
        g = Grid.from_rows([[2, 0, 0, 0, 2]])
        out = apply("connect_objects", g, color=5)
        assert out == Grid.from_rows([[2, 5, 5, 5, 2]])

    def test_connect_skips_obstructed_gap(self):
        g = Grid.from_rows([[2, 0, 7, 0, 2]])
        out = apply("connect_objects", g, color=5, selector=Selector("color", 2))
        assert out == g

    def test_count_encode(self):
        g = Grid.from_rows(
            [
                [1, 0, 1],
                [0, 0, 0],
                [1, 0, 0],
            ]
        )
        assert apply("count_encode", g, color=8) == Grid.from_rows([[8, 8, 8]])

    def test_count_encode_empty_selection_errors(self):
        g = Grid.from_rows([[0, 0], [0, 0]])
        with pytest.raises(PatternApplicationError):
            apply("count_encode", g, color=8)

    def test_paint_order_higher_id_wins(self):
        # Two objects translated onto the same cell: the higher id paints last.
        g = Grid.from_rows([[1, 0, 2]])
        out = apply("translate", g, dx=0, dy=0)  # no-op re-render is stable
        assert out == g
        collided = apply_pattern(
            make_pattern("duplicate_object", dx=-1, dy=0, selector=Selector("all")),
            Grid.from_rows([[1, 0, 2]]),
        )
        # Copies paint after originals in id order: the copy of object 1
        # (color 2) lands on the middle cell after the copy of object 0.
        assert collided == Grid.from_rows([[1, 2, 2]])


def _render_params(rng, kind):
    if kind in ("translate", "duplicate_object"):
        return {"dx": rng.randint(-4, 4), "dy": rng.randint(-4, 4)}
    if kind == "gravity_shift":
        return {"dir": rng.choice(DIRECTIONS)}
    if kind == "delete_object":
        return {}
    return {"color": rng.randrange(10)}


def _scene_grid(rng):
    h, w = rng.randint(1, 30), rng.randint(1, 30)
    if rng.random() < 0.25:
        return random_grid(rng, max_side=30, colors=rng.randint(2, 10))
    density = rng.choice([0.05, 0.2, 0.4, 0.6])
    palette = rng.sample(range(1, 10), rng.randint(1, 3))
    return Grid.from_rows(
        [
            [rng.choice(palette) if rng.random() < density else 0 for _ in range(w)]
            for _ in range(h)
        ]
    )


class TestRepaint:
    """The seven object kinds that draw a grid paint only what changes over
    the input grid; ``oracles.render_reference`` re-renders every object
    onto a background canvas, as they did before."""

    def test_matches_render_reference_on_random_scenes(self):
        from oracles import RENDER_KINDS, render_reference

        rng = random.Random(1409)
        for i in range(160):
            scene = Scene(_scene_grid(rng), (4, 8)[i % 2])
            objects = scene.perception.objects
            selectors = [
                Selector("all"),
                Selector("color", rng.choice([o.color for o in objects] or [0])),
                Selector("size_rank", rng.randint(0, len(objects))),
                Selector("cavities", rng.randint(0, 2)),
            ]
            for kind in RENDER_KINDS:
                for selector in selectors:
                    p = make_pattern(kind, selector=selector, **_render_params(rng, kind))
                    assert apply_pattern(p, scene) == render_reference(p, scene), (
                        format_pattern(p),
                        scene.grid,
                    )

    def test_every_rendering_object_kind_is_covered(self):
        from oracles import RENDER_KINDS

        object_kinds = {k for k in KIND_ORDER if _KINDS[k].takes_selector}
        assert set(RENDER_KINDS) == object_kinds - {"count_encode"}

    def test_upside_down_u_over_a_dot_falls_around_it(self):
        from oracles import render_reference

        # The dot settles on the floor first; the U's legs then carry it
        # down until the dot sits inside its arch.
        g = Grid.from_rows(
            [
                [0, 1, 1, 1, 0],
                [0, 1, 0, 1, 0],
                [0, 0, 0, 0, 0],
                [0, 0, 2, 0, 0],
                [0, 0, 0, 0, 0],
            ]
        )
        p = make_pattern("gravity_shift", dir="down")
        for connectivity in (4, 8):
            scene = Scene(g, connectivity)
            out = apply_pattern(p, scene)
            assert out == render_reference(p, scene)
            assert out == Grid.from_rows(
                [
                    [0, 0, 0, 0, 0],
                    [0, 0, 0, 0, 0],
                    [0, 0, 0, 0, 0],
                    [0, 1, 1, 1, 0],
                    [0, 1, 2, 1, 0],
                ]
            )

    def test_translate_moves_a_lower_id_under_a_higher_id(self):
        from oracles import render_reference

        # Object 0 (color 1) moves right onto object 1 (color 2), which is
        # painted after it and keeps the shared cell.
        g = Grid.from_rows([[1, 1, 2, 0], [0, 0, 0, 0]])
        p = make_pattern("translate", dx=1, dy=0, selector=Selector("color", 1))
        scene = Scene(g)
        out = apply_pattern(p, scene)
        assert out == render_reference(p, scene)
        assert out == Grid.from_rows([[0, 1, 2, 0], [0, 0, 0, 0]])


def _result_or_message(fn, p, scene):
    """``fn(p, scene)``'s grid, or the message of its PatternApplicationError."""
    try:
        return fn(p, scene)
    except PatternApplicationError as e:
        return f"error: {e}"


class TestRowKernels:
    """``scale_down`` and ``crop_to_content`` work on whole rows and
    columns; ``oracles.cell_scale_down`` and ``oracles.cell_crop_to_content``
    are the per-cell versions they replaced. Both must give the same grid
    or the same error message."""

    def _blowup(self, rng, factor):
        h = rng.randint(1, 30 // factor)
        w = rng.randint(1, 30 // factor)
        base = Grid.from_rows([[rng.randrange(3) for _ in range(w)] for _ in range(h)])
        rows = [list(row) for row in apply("scale_up", base, factor=factor).rows]
        if rng.random() < 0.5:
            # One changed cell makes exactly one block not uniform.
            r, c = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
            rows[r][c] = (rows[r][c] + 1) % 10
        return Grid.from_rows(rows)

    def test_scale_down_matches_cell_reference_on_random_grids(self):
        from oracles import cell_scale_down

        rng = random.Random(2401)
        outcomes = Counter()
        for i in range(600):
            factor = rng.choice((2, 3, 4, 5))
            if i % 4 == 0:
                g = random_grid(rng, colors=2)
            elif i % 4 == 1:
                # Each row repeated factor times: only the slice compares
                # within a row can find the block that is not uniform.
                h, w = rng.randint(1, 30 // factor), factor * rng.randint(1, 30 // factor)
                rows = [[rng.randrange(2) for _ in range(w)] for _ in range(h)]
                g = Grid.from_rows([row for row in rows for _ in range(factor)])
            else:
                g = self._blowup(rng, factor)
            p = make_pattern("scale_down", factor=factor)
            scene = Scene(g)
            got = _result_or_message(apply_pattern, p, scene)
            assert got == _result_or_message(cell_scale_down, p, scene), (factor, g)
            # "error: scale_down(k): dimensions ..." or "... block (br,bc) ..."
            outcomes["grid" if isinstance(got, Grid) else got.split()[2]] += 1
        assert outcomes["grid"] > 100
        assert outcomes["dimensions"] > 50
        assert outcomes["block"] > 100

    def test_crop_to_content_matches_cell_reference_on_random_grids(self):
        from oracles import cell_crop_to_content

        rng = random.Random(2402)
        p = make_pattern("crop_to_content")
        empties = 0
        for _ in range(600):
            h, w = rng.randint(1, 30), rng.randint(1, 30)
            bg = rng.randrange(10)
            rows = [[bg] * w for _ in range(h)]
            for _ in range(rng.choice((0, 1, 2, 5, h * w))):
                rows[rng.randrange(h)][rng.randrange(w)] = rng.randrange(10)
            scene = Scene(Grid.from_rows(rows))
            got = _result_or_message(apply_pattern, p, scene)
            assert got == _result_or_message(cell_crop_to_content, p, scene), scene.grid
            empties += isinstance(got, str)
        assert empties > 50

    def test_scale_down_names_the_first_non_uniform_block(self):
        from oracles import cell_scale_down

        rows = [[1] * 6 for _ in range(6)]
        rows[3][5] = 2  # block (1,2)
        rows[5][2] = 2  # block (2,1), later in row-major order
        p = make_pattern("scale_down", factor=2)
        scene = Scene(Grid.from_rows(rows))
        message = "scale_down(2): block (1,2) is not uniform"
        with pytest.raises(PatternApplicationError) as fast:
            apply_pattern(p, scene)
        with pytest.raises(PatternApplicationError) as cell:
            cell_scale_down(p, scene)
        assert str(fast.value) == str(cell.value) == message

    def test_scale_down_rejects_a_size_not_divisible_by_the_factor(self):
        from oracles import cell_scale_down

        p = make_pattern("scale_down", factor=3)
        scene = Scene(Grid.from_rows([[4] * 6] * 4))
        message = "scale_down(3): dimensions 4x6 not divisible"
        assert _result_or_message(apply_pattern, p, scene) == f"error: {message}"
        assert _result_or_message(cell_scale_down, p, scene) == f"error: {message}"

    def test_grid_with_no_content_and_one_cell_grid(self):
        from oracles import cell_crop_to_content, cell_scale_down

        crop = make_pattern("crop_to_content")
        blank = Scene(Grid.from_rows([[7] * 5] * 3))
        assert _result_or_message(apply_pattern, crop, blank) == (
            "error: crop_to_content: grid has no content"
        )
        assert _result_or_message(cell_crop_to_content, crop, blank) == (
            "error: crop_to_content: grid has no content"
        )
        one = Scene(Grid.from_rows([[6]]))
        down = make_pattern("scale_down", factor=2)
        for p, fn in ((crop, cell_crop_to_content), (down, cell_scale_down)):
            assert _result_or_message(apply_pattern, p, one) == _result_or_message(fn, p, one)
        assert _result_or_message(apply_pattern, crop, one) == (
            "error: crop_to_content: grid has no content"
        )


class TestGroupLaws:
    @given(grids(max_side=8))
    @settings(max_examples=60)
    def test_rotate90_four_times(self, g):
        out = g
        for _ in range(4):
            out = apply("rotate90", out)
        assert grids_equal(out, g)

    @given(grids(max_side=8))
    @settings(max_examples=60)
    def test_reflect_twice(self, g):
        assert grids_equal(apply("reflect_h", apply("reflect_h", g)), g)
        assert grids_equal(apply("reflect_v", apply("reflect_v", g)), g)

    @given(grids(max_side=8))
    @settings(max_examples=60)
    def test_rotate180_is_two_rotate90(self, g):
        twice = apply("rotate90", apply("rotate90", g))
        assert grids_equal(apply("rotate180", g), twice)
        assert grids_equal(apply("rotate270", g), apply("rotate90", twice))

    @given(grids(max_side=8))
    @settings(max_examples=60)
    def test_recolor_idempotent(self, g):
        once = apply("recolor", g, src=3, dst=7)
        twice = apply("recolor", once, src=3, dst=7)
        assert grids_equal(once, twice)

    def test_translate_inverse_without_clipping(self):
        rng = random.Random(9)
        for _ in range(100):
            inner = random_grid(rng, max_side=6, colors=4)
            rows = [[0] * (inner.width + 4) for _ in range(2)]
            rows += [[0, 0] + list(r) + [0, 0] for r in inner.rows]
            rows += [[0] * (inner.width + 4) for _ in range(2)]
            g = Grid.from_rows(rows)
            dx = rng.choice([-2, -1, 1, 2])
            dy = rng.choice([-2, -1, 1, 2])
            there = apply("translate", g, dx=dx, dy=dy)
            back = apply("translate", there, dx=-dx, dy=-dy)
            assert grids_equal(back, g)


class TestClosure:
    @given(grids(max_side=8, colors=5))
    @settings(max_examples=80)
    def test_apply_returns_valid_grid_or_raises(self, g):
        rng = random.Random(g.height * 31 + g.width)
        candidates = [
            make_pattern("rotate90"),
            make_pattern("reflect_h"),
            make_pattern("crop_to_content"),
            make_pattern("scale_up", factor=2),
            make_pattern("scale_down", factor=2),
            make_pattern("tile_grid", rows=2, cols=2),
            make_pattern("overlay_pairs", axis=rng.choice("hv")),
            make_pattern("symmetry_complete", axis=rng.choice("hv")),
            make_pattern("translate", dx=rng.randint(-3, 3), dy=rng.randint(-3, 3)),
            make_pattern("gravity_shift", dir=rng.choice(("up", "down", "left", "right"))),
            make_pattern("cavity_fill", color=rng.randint(0, 9)),
            make_pattern("select_largest"),
            make_pattern("count_encode", color=rng.randint(0, 9)),
        ]
        for p in candidates:
            try:
                out = apply_pattern(p, g)
            except (PatternApplicationError, BoundsError):
                continue
            assert isinstance(out, Grid)
            assert 1 <= out.height <= 30 and 1 <= out.width <= 30


_COLOR = st.integers(0, 9)
_OFFSET = st.integers(-4, 4)
_COLOR_MAP = st.dictionaries(_COLOR, _COLOR, min_size=1, max_size=4).map(
    lambda m: tuple(sorted(m.items()))
)
# Valid parameter values for every kind, by parameter name.
_PARAMS = {
    "reflect_h": {},
    "reflect_v": {},
    "rotate90": {},
    "rotate180": {},
    "rotate270": {},
    "crop_to_content": {},
    "symmetry_complete": {"axis": st.sampled_from(AXES)},
    "scale_up": {"factor": st.integers(2, 4)},
    "scale_down": {"factor": st.integers(2, 4)},
    "tile_grid": {"rows": st.integers(1, 3), "cols": st.integers(1, 3)},
    "overlay_pairs": {"axis": st.sampled_from(AXES)},
    "select_largest": {},
    "select_smallest": {},
    "count_encode": {"color": _COLOR},
    "recolor": {"src": _COLOR, "dst": _COLOR},
    "palette_swap": {"map": _COLOR_MAP},
    "translate": {"dx": _OFFSET, "dy": _OFFSET},
    "delete_object": {},
    "duplicate_object": {"dx": _OFFSET, "dy": _OFFSET},
    "cavity_fill": {"color": _COLOR},
    "gravity_shift": {"dir": st.sampled_from(DIRECTIONS)},
    "draw_bbox_border": {"color": _COLOR},
    "connect_objects": {"color": _COLOR},
}
_SELECTOR = st.one_of(
    st.just(Selector("all")),
    st.builds(Selector, st.just("color"), _COLOR),
    st.builds(Selector, st.just("size_rank"), st.integers(0, 3)),
    st.builds(Selector, st.just("cavities"), st.integers(0, 2)),
)


@st.composite
def pattern_lists(draw):
    """One pattern of every kind, in a drawn order."""
    out = []
    for kind in draw(st.permutations(KIND_ORDER)):
        params = {name: draw(value) for name, value in _PARAMS[kind].items()}
        selector = draw(_SELECTOR) if _KINDS[kind].takes_selector else Selector("all")
        out.append(make_pattern(kind, selector=selector, **params))
    return out


@st.composite
def valid_patterns(draw, kinds=st.sampled_from(KIND_ORDER)):
    kind = draw(kinds)
    params = {name: draw(value) for name, value in _PARAMS[kind].items()}
    selector = draw(_SELECTOR) if _KINDS[kind].takes_selector else Selector("all")
    return make_pattern(kind, selector=selector, **params)


def _outcome(p, g):
    try:
        return apply_pattern(p, g)
    except Exception as e:  # the exception type is the outcome compared
        return type(e)


class TestScene:
    def test_params_table_covers_the_taxonomy(self):
        assert set(_PARAMS) == set(KIND_ORDER)

    @given(grids(max_side=10), st.sampled_from((4, 8)), pattern_lists())
    @settings(max_examples=150, deadline=None)
    def test_shared_scene_matches_bare_grid(self, g, connectivity, patterns):
        # Differential: a Scene shared by all 23 kinds (so the perception
        # and background one kind computed are reused by the next) against
        # a fresh Scene per pattern, and at connectivity 4 against the bare
        # grid. Totality: a valid grid or an inapplicable pattern.
        scene = Scene(g, connectivity)
        for p in patterns:
            shared = _outcome(p, scene)
            assert shared == _outcome(p, Scene(g, connectivity)), format_pattern(p)
            if connectivity == 4:
                assert shared == _outcome(p, g), format_pattern(p)
            if isinstance(shared, Grid):
                assert Grid(shared.rows) == shared
                hash(shared)
            else:
                assert issubclass(shared, PatternApplicationError)
        assert scene.perception == segment(g, connectivity)
        assert scene.background == background_color(g)

    def test_background_never_segments(self, segment_calls):
        g = Grid.from_rows([[0, 5, 0], [0, 5, 0]])
        scene = Scene(g)
        assert scene.background == 0
        for kind, params in (
            ("crop_to_content", {}),
            ("symmetry_complete", {"axis": "h"}),
            ("overlay_pairs", {"axis": "v"}),
        ):
            apply_pattern(make_pattern(kind, **params), scene)
        assert segment_calls == []
        assert scene.perception.background == 0
        assert segment_calls == [(g, 4)]

    def test_scene_is_a_value(self):
        g = Grid.from_rows([[1, 0], [0, 1]])
        same = Grid.from_rows([[1, 0], [0, 1]])
        assert Scene(g) == Scene(same) and hash(Scene(g)) == hash(Scene(same))
        assert Scene(g, 4) != Scene(g, 8)
        assert Scene(g) != g
        assert len({Scene(g), Scene(same), Scene(g, 8)}) == 2

    def test_connectivity_checked_for_every_kind(self):
        # A connectivity reaches ``apply_pattern`` only inside a Scene,
        # which refuses any value but 4 and 8 before a kind can run.
        g = Grid.from_rows([[1, 0]])
        with pytest.raises(ValueError, match="connectivity"):
            Scene(g, 6)
        for kind in ("reflect_h", "crop_to_content", "delete_object"):
            for connectivity in (4, 8):
                assert isinstance(apply_pattern(make_pattern(kind), Scene(g, connectivity)), Grid)


def _counts(g):
    return Counter(v for row in g.rows for v in row)


class TestColorCountFact:
    """``GROWS`` says which colors a kind's result may hold more cells of
    than the input; verification's color-count bound relies on it."""

    def test_flagged_kinds(self):
        flagged = {kind: grows for kind, grows in GROWS.items() if grows != "any"}
        assert flagged == {
            "reflect_h": "none",
            "reflect_v": "none",
            "rotate90": "none",
            "rotate180": "none",
            "rotate270": "none",
            "gravity_shift": "background",
        }
        assert set(GROWS) == set(KIND_ORDER)

    @given(
        grids(max_side=10, colors=4),
        st.sampled_from((4, 8)),
        valid_patterns(st.sampled_from(sorted(k for k, v in GROWS.items() if v != "any"))),
    )
    @settings(max_examples=400, deadline=None)
    def test_flagged_kinds_never_add_cells(self, g, connectivity, p):
        # Either the call raises, or no color that may not grow has more
        # cells than in the input; "none" kinds keep every count.
        scene = Scene(g, connectivity)
        try:
            out = apply_pattern(p, scene)
        except (PatternApplicationError, PatternContractError):
            return
        before, after = _counts(g), _counts(out)
        if GROWS[p.kind] == "none":
            assert after == before
        else:
            after[scene.background] = before[scene.background]
            assert after <= before

    def test_gravity_overlap_loses_a_cell(self):
        # The L (color 1, id 0) falls one row onto the bar (color 2, id 1),
        # which cannot fall past the dot (color 3) and is painted last, so
        # gravity_shift is not a "none" kind: color 1 loses a cell to the
        # background.
        g = Grid.from_rows(
            [[1, 1, 0, 0, 0], [2, 1, 0, 0, 0], [2, 1, 0, 0, 0], [3, 0, 0, 0, 0]]
        )
        for connectivity in (4, 8):
            out = apply_pattern(make_pattern("gravity_shift", dir="down"), Scene(g, connectivity))
            assert out == Grid.from_rows(
                [[0, 0, 0, 0, 0], [2, 1, 0, 0, 0], [2, 1, 0, 0, 0], [3, 1, 0, 0, 0]]
            )
            assert _counts(out) == _counts(g) - Counter({1: 1}) + Counter({0: 1})


# The kinds verification holds back by a pair's differing colors
# (``induction.TrainPair.verdict``): those with a ``changes`` record or a
# ``GROWS`` class.
_FACT_KINDS = sorted(
    kind for kind, spec in _KINDS.items() if spec.changes is not None or spec.grows != "any"
)


def _changed(before, after):
    """The (input color, result color) of each cell that differs."""
    return [
        (a, b)
        for ra, rb in zip(before.rows, after.rows)
        for a, b in zip(ra, rb)
        if a != b
    ]


class TestChangedColorsFact:
    """``_Kind.changes`` bounds the colors of the cells a kind's result
    changes; a kind with it or with a ``GROWS`` class never raises, so
    a candidate verification holds back by them is never inapplicable."""

    def test_recorded_kinds(self):
        recorded = {kind: spec.changes for kind, spec in _KINDS.items() if spec.changes}
        assert recorded == {
            "symmetry_complete": (("bg",), None),
            "recolor": (("src",), ("dst",)),
            "delete_object": (None, ("bg",)),
            "cavity_fill": (None, ("color",)),
            "gravity_shift": (("bg", "sel"), ("bg", "sel")),
            "draw_bbox_border": (None, ("color",)),
            "connect_objects": (("bg",), ("color",)),
        }

    def test_resolution(self):
        g = Grid.from_rows([[0, 0, 1], [0, 2, 2], [0, 0, 0]])  # background 0
        scene = Scene(g)
        recolor = pattern_key(make_pattern("recolor", src=2, dst=5))
        assert may_change(recolor, {2}, {5}, scene)
        assert not may_change(recolor, {2, 1}, {5}, scene)
        assert not may_change(recolor, {2}, {0}, scene)
        gravity = pattern_key(make_pattern("gravity_shift", Selector("color", 2), dir="up"))
        assert may_change(gravity, {0, 2}, {2, 0}, scene)
        assert not may_change(gravity, {0, 1}, {2}, scene)
        assert not may_change(gravity, {0, 1, 2}, {2}, scene)
        # "sel" says nothing under a selector other than color=c.
        gravity = pattern_key(make_pattern("gravity_shift", Selector("size_rank", 0), dir="up"))
        assert may_change(gravity, {1, 3, 5}, {4, 6}, scene)
        connect = pattern_key(make_pattern("connect_objects", color=7))
        assert may_change(connect, {0}, {7}, scene)
        assert not may_change(connect, {1}, {7}, scene)
        assert not may_change(connect, {0}, {7, 0}, scene)
        delete = pattern_key(make_pattern("delete_object", Selector("color", 1)))
        assert may_change(delete, {1, 2}, {0}, scene)
        assert not may_change(delete, {1}, {3}, scene)
        # No fact: a kind without a record, a key of the wrong length for a
        # recorded kind, or of no kind.
        for key in (
            pattern_key(make_pattern("translate", dx=1, dy=0)),
            pattern_key(make_pattern("rotate90")),
            ("recolor", (1,), ("all", None)),
            ("no_such_kind", (), ("all", None)),
        ):
            assert may_change(key, {1, 2, 3}, {4, 5, 6}, scene)

    def test_background_read_only_when_needed(self):
        # delete_object wants one color, the background: two wanted colors
        # settle it without reading the background, one does not. An
        # object kind reads it off the perception, a whole-grid kind
        # counts the colors.
        scene = Scene(Grid.from_rows([[0, 1], [1, 0]]))
        delete = pattern_key(make_pattern("delete_object"))
        assert not may_change(delete, {1}, {0, 2}, scene)
        assert "background" not in vars(scene) and "perception" not in vars(scene)
        assert may_change(delete, {1}, {0}, scene)
        assert "perception" in vars(scene) and scene.background == 0
        scene = Scene(Grid.from_rows([[0, 1], [1, 0]]))
        symmetry = pattern_key(make_pattern("symmetry_complete", axis="h"))
        assert may_change(symmetry, {0}, {1}, scene)
        assert vars(scene).get("background") == 0 and "perception" not in vars(scene)

    @given(
        grids(max_side=8, colors=4),
        st.sampled_from((4, 8)),
        valid_patterns(st.sampled_from(_FACT_KINDS)),
    )
    @settings(max_examples=400, deadline=None)
    def test_changed_cells_keep_to_the_record(self, g, connectivity, p):
        # No exception is caught: a kind that may raise must not carry
        # either fact.
        scene = Scene(g, connectivity)
        out = apply_pattern(p, scene)
        if out.dims != g.dims:
            return
        changed = _changed(g, out)
        held, wanted = {a for a, _ in changed}, {b for _, b in changed}
        assert may_change(pattern_key(p), held, wanted, scene)

    def test_degenerate_scenes_never_raise(self):
        # The shapes and contents that make the other kinds raise: one
        # cell, one row, an odd side, no content, no object of a color.
        scenes = [
            [[0]],
            [[3]],
            [[1, 0, 1, 0, 1]],
            [[0], [2], [0]],
            [[0, 0, 0], [0, 0, 0]],
            [[1, 1], [2, 2], [1, 1]],
        ]
        values = {"color": (0, 1, 5), "direction": DIRECTIONS, "axis": AXES}
        selectors = [
            Selector("all"),
            Selector("color", 1),
            Selector("color", 7),
            Selector("size_rank", 0),
            Selector("size_rank", 4),
            Selector("cavities", 1),
        ]
        for rows in scenes:
            for connectivity in (4, 8):
                scene = Scene(Grid.from_rows(rows), connectivity)
                for kind in _FACT_KINDS:
                    spec = _KINDS[kind]
                    tags = [tag for _, tag in spec.signature]
                    for params in itertools.product(*(values[tag] for tag in tags)):
                        for sel in selectors if spec.takes_selector else selectors[:1]:
                            p = make_pattern(kind, sel, **dict(zip(spec.names, params)))
                            assert isinstance(apply_pattern(p, scene), Grid)


# A random valid value of each parameter type, and a random selector.
_RANDOM_VALUE = {
    "int": lambda rng: rng.randint(-5, 5),
    "positive": lambda rng: rng.randint(1, 4),
    "color": lambda rng: rng.randrange(10),
    "factor": lambda rng: rng.randint(2, 5),
    "axis": lambda rng: rng.choice(AXES),
    "direction": lambda rng: rng.choice(DIRECTIONS),
    "colormap": lambda rng: tuple(
        sorted({rng.randrange(10): rng.randrange(10) for _ in range(rng.randint(1, 4))}.items())
    ),
}


def _random_selector(rng):
    kind = rng.choice(("all", "color", "size_rank", "cavities"))
    return KEY_ALL if kind == "all" else (kind, rng.randrange(10 if kind == "color" else 3))


class TestResultDimsFact:
    """``RESULT_DIMS`` gives a kind's result dims from its parameter values
    and the input's dims; verification drops, unapplied, a candidate whose
    result dims are not the pair output's."""

    def test_content_kinds_have_none(self):
        assert set(RESULT_DIMS) == set(KIND_ORDER)
        assert {kind for kind, dims in RESULT_DIMS.items() if dims is None} == {
            "crop_to_content",
            "select_largest",
            "select_smallest",
            "count_encode",
        }

    @pytest.mark.parametrize("kind", [k for k in KIND_ORDER if RESULT_DIMS[k] is not None])
    def test_dims_match_application(self, kind):
        # Random grids of sides 1-30 and random valid parameters: wherever
        # the application does not raise, its dims are the predicted ones.
        # Half the grids have sides of at most 6, so that the kinds that
        # grow the grid fit in 30x30, and half the scale_down inputs are
        # blow-ups, so that it applies.
        rng = random.Random(f"dims {kind}")
        spec = _KINDS[kind]
        applied = 0
        for _ in range(150):
            values = tuple(_RANDOM_VALUE[tag](rng) for _, tag in spec.signature)
            sel = _random_selector(rng) if spec.takes_selector else KEY_ALL
            p = build_pattern((kind, values, sel))
            g = _scene_grid(rng) if rng.random() < 0.5 else random_grid(rng, max_side=6)
            if kind == "scale_down" and rng.random() < 0.5:
                f = values[0]
                small = random_grid(rng, max_side=30 // f, colors=rng.randint(1, 10))
                g = apply("scale_up", small, factor=f)
            try:
                out = apply_pattern(p, Scene(g, rng.choice((4, 8))))
            except (PatternApplicationError, PatternContractError):
                continue
            assert RESULT_DIMS[kind](values, g.height, g.width) == out.dims, format_pattern(p)
            applied += 1
        assert applied >= 20

    def test_invalid_key_still_raises_on_a_shape_changing_pair(self):
        # scale_up(1) breaks the parameter contract. Its predicted dims
        # (the input's) are not the output's, but the key is built before
        # the dims are compared, so induce raises as before.
        class KeyProposer:
            def propose(self, pair, budget):
                return [("scale_up", (1,), KEY_ALL)]

        gin = Grid.from_rows([[1, 2], [3, 4]])
        task = Task(train=((gin, Grid.from_rows([[1, 2, 3]])),), test=((gin, None),))
        with pytest.raises(PatternContractError, match="factor"):
            induce(task, KeyProposer())


class TestSerialization:
    def test_format_examples(self):
        assert format_pattern(make_pattern("rotate90")) == "rotate90()@all"
        assert (
            format_pattern(
                make_pattern("cavity_fill", color=2, selector=Selector("color", 4))
            )
            == "cavity_fill(color=2)@color=4"
        )
        assert (
            format_pattern(make_pattern("palette_swap", map=((1, 2), (2, 1))))
            == "palette_swap(map=1:2;2:1)@all"
        )

    def test_parse_inverse_of_format(self):
        lines = [
            "rotate270()@all",
            "translate(dx=-3,dy=2)@size_rank=1",
            "gravity_shift(dir=down)@cavities=0",
            "recolor(src=0,dst=9)@all",
            "palette_swap(map=0:1;1:0)@all",
            "tile_grid(rows=2,cols=3)@all",
            "overlay_pairs(axis=v)@all",
            "count_encode(color=7)@color=3",
        ]
        for line in lines:
            assert format_pattern(parse_pattern(line)) == line

    def test_parse_rejects_garbage(self):
        for bad in [
            "",
            "rotate90",
            "rotate90()@",
            "nope()@all",
            "translate(dx=a,dy=0)@all",
            "rotate90()@all extra",
            "translate(dx=1,dy=2,dx=3)@all",
            "translate(dx=+1,dy=0)@all",
            "translate(dx= 1,dy=0)@all",
            "translate(dx=1_0,dy=0)@all",
            "palette_swap(map=0: 1;1:0)@all",
        ]:
            with pytest.raises(PatternContractError):
                parse_pattern(bad)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("translate(dx=x,dy=1)@all", "bad value 'x' in 'translate(dx=x,dy=1)@all'"),
            ("palette_swap(map=1-2)@all", "bad color map '1-2'"),
            ("palette_swap(map=)@all", "bad color map ''"),
            ("translate(dx=1,dz=1)@all", "translate: missing=['dy'] unexpected=['dz']"),
            ("translate(dx=1,dz=x)@all", "bad value 'x' in 'translate(dx=1,dz=x)@all'"),
            ("spin(a=1)@all", "unknown pattern kind 'spin'"),
            ("spin(a=x)@all", "bad value 'x' in 'spin(a=x)@all'"),
            (
                "translate(dx=1,dy=2,dx=3)@all",
                "repeated parameter 'dx' in 'translate(dx=1,dy=2,dx=3)@all'",
            ),
            ("translate(dx=+1,dy=0)@all", "bad value '+1' in 'translate(dx=+1,dy=0)@all'"),
            ("translate(dx= 1,dy=0)@all", "bad value ' 1' in 'translate(dx= 1,dy=0)@all'"),
            ("translate(dx=1_0,dy=0)@all", "bad value '1_0' in 'translate(dx=1_0,dy=0)@all'"),
            ("palette_swap(map=0:+1)@all", "bad color map '0:+1'"),
            ("palette_swap(map=0:1_0;1:0)@all", "bad color map '0:1_0;1:0'"),
            (
                "symmetry_complete(axis=q)@all",
                "symmetry_complete: parameter axis must be one of ('h', 'v')",
            ),
        ],
    )
    def test_parse_error_messages(self, line, message):
        with pytest.raises(PatternContractError) as exc:
            parse_pattern(line)
        assert str(exc.value) == message

    @pytest.mark.parametrize("raw", ["5", "1:2:3", "1:2;3"])
    def test_parse_colormap_of_wrong_arity_is_a_contract_error(self, raw):
        # A remote proposer's line is dropped on a PatternContractError;
        # any other exception would end the run.
        with pytest.raises(PatternContractError, match="must be a tuple of color pairs"):
            parse_pattern(f"palette_swap(map={raw})@all")


class TestValueKeys:
    """``pattern_key`` names a pattern by value; ``build_pattern`` builds
    (and validates) the pattern a key names."""

    @given(valid_patterns(), st.data())
    @settings(max_examples=300)
    def test_keys_equal_exactly_when_serializations_equal(self, a, data):
        # A rebuilt copy is always equal; a second draw of the same kind
        # often shares all but one value.
        copy = parse_pattern(format_pattern(a))
        b = data.draw(
            st.one_of(st.just(copy), valid_patterns(st.just(a.kind)), valid_patterns())
        )
        same_key = pattern_key(a) == pattern_key(b)
        assert same_key == (format_pattern(a) == format_pattern(b))
        if same_key:
            assert hash(pattern_key(a)) == hash(pattern_key(b))

    @given(valid_patterns())
    @settings(max_examples=200)
    def test_build_inverts_key(self, p):
        key = pattern_key(p)
        built = build_pattern(key)
        assert built == p and pattern_key(built) == key

    @pytest.mark.parametrize(
        "key, message",
        [
            (("spin", (), ("all", None)), "unknown pattern kind 'spin'"),
            (("recolor", (1,), ("all", None)), "recolor: expected values for ('src', 'dst'), got 1"),
            (("rotate90", (1,), ("all", None)), "rotate90: expected values for (), got 1"),
            (("recolor", (1, 10), ("all", None)), "recolor: parameter dst must be a color 0..9, got 10"),
            (("recolor", (1, True), ("all", None)), "recolor: parameter dst must be a color 0..9, got True"),
            (("reflect_h", (), ("color", 3)), "reflect_h is a whole-grid kind; selector must be 'all'"),
            (("translate", (1, 0), ("color", 12)), "selector color=12 out of range"),
            (("translate", (1, 0), ("all", 0)), "selector 'all' takes no value"),
        ],
    )
    def test_build_rejects_keys_that_name_no_pattern(self, key, message):
        with pytest.raises(PatternContractError) as exc:
            build_pattern(key)
        assert str(exc.value) == message


class TestContracts:
    def test_unknown_kind(self):
        with pytest.raises(PatternContractError, match="unknown"):
            make_pattern("shuffle")

    def test_missing_parameter(self):
        with pytest.raises(PatternContractError, match="missing"):
            make_pattern("translate", dx=1)

    def test_out_of_range_color(self):
        with pytest.raises(PatternContractError):
            make_pattern("recolor", src=1, dst=11)

    def test_bool_is_not_a_color(self):
        with pytest.raises(PatternContractError):
            make_pattern("recolor", src=1, dst=True)
        with pytest.raises(PatternContractError):
            make_pattern("palette_swap", map=((0, True),))

    def test_scale_factor_minimum(self):
        with pytest.raises(PatternContractError):
            make_pattern("scale_up", factor=1)

    @pytest.mark.parametrize("kind", KIND_ORDER)
    @given(data=st.data())
    @settings(max_examples=5)
    def test_whole_grid_kind_rejects_selector(self, kind, data):
        params = data.draw(st.fixed_dictionaries(_PARAMS[kind]))
        selector = data.draw(_SELECTOR.filter(lambda s: s.kind != "all"))
        if _KINDS[kind].takes_selector:
            assert make_pattern(kind, selector=selector, **params).selector == selector
        else:
            with pytest.raises(PatternContractError, match="whole-grid"):
                make_pattern(kind, selector=selector, **params)

    def test_selector_validation(self):
        with pytest.raises(PatternContractError):
            Selector("color", 12)
        with pytest.raises(PatternContractError):
            Selector("size_rank", -1)
        with pytest.raises(PatternContractError):
            Selector("everything")
        with pytest.raises(PatternContractError):
            Selector("color", True)
        with pytest.raises(PatternContractError):
            Selector("size_rank", False)


# Values on both sides of each parameter's bounds, by parameter name:
# bools, ints just out of range, unknown words, and color maps that are
# unsorted, map a source twice, are empty, hold a bad color or are a list.
_MAP_EDGES = (
    ((1, 2), (3, 4)), ((3, 4), (1, 2)), ((1, 2), (1, 3)), (), ((0, 10),),
    ((True, 1),), ((1, 2, 3),), [(1, 2)],
)
_EDGES = {
    "axis": ("h", "v", "x", 0),
    "factor": (1, 2, 3, True),
    "rows": (0, 1, 2, True),
    "cols": (0, 1, 2, True),
    "color": (-1, 0, 9, 10, True),
    "src": (-1, 0, 9, 10, True),
    "dst": (-1, 0, 9, 10, False),
    "map": _MAP_EDGES,
    "dx": (0, -4, True, 1.0, None),
    "dy": (0, 4, False, "1"),
    "dir": ("up", "left", "sideways", None),
}
_ANY_VALUE = st.sampled_from(
    (None, True, -1, 0, 2, 10, 1.0, "h", "down", "x", ((1, 2),), ((2, 1), (1, 2)))
)


@st.composite
def raw_pattern_inputs(draw, kind):
    """Named parameters for ``kind`` in drawn order, and a selector: each
    name may be missing, an extra name may be added, and each value is
    valid, on an edge of its bounds or of another parameter's type."""
    valid = _PARAMS[kind]
    params = {}
    for name in draw(st.permutations(list(valid))):
        if draw(st.integers(0, 7)) == 0:
            continue  # missing
        edge = st.sampled_from(_EDGES[name])
        params[name] = draw(st.one_of(valid[name], edge, _ANY_VALUE))
    for name in draw(st.lists(st.sampled_from(sorted(_EDGES) + ["zzz"]), max_size=1)):
        params.setdefault(name, draw(_ANY_VALUE))
    return params, draw(_SELECTOR)


def _validation_outcome(build):
    try:
        return "built", build()
    except PatternContractError as e:
        return "rejected", str(e)


class TestOnePassValidation:
    """``make_pattern`` and ``UnitPattern(...)`` validate in one pass; the
    reference is the validator they replaced, kept in ``oracles``. Every
    input must give an equal pattern or the same error message."""

    @pytest.mark.parametrize("kind", KIND_ORDER)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_make_pattern_matches_reference(self, kind, data):
        from oracles import reference_pattern

        params, selector = data.draw(raw_pattern_inputs(kind))

        def build():
            p = make_pattern(kind, selector=selector, **params)
            return p.kind, p.params, p.selector

        want = _validation_outcome(lambda: reference_pattern(kind, selector, **params))
        assert _validation_outcome(build) == want

    @pytest.mark.parametrize("kind", KIND_ORDER)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_unit_pattern_matches_reference(self, kind, data):
        from oracles import reference_pattern_check
        from symgrid import UnitPattern

        named, selector = data.draw(raw_pattern_inputs(kind))
        params = tuple(named.items())

        def build():
            p = UnitPattern(kind, params, selector)
            return p.kind, p.params, p.selector

        def reference():
            reference_pattern_check(kind, params, selector)
            return kind, params, selector

        assert _validation_outcome(build) == _validation_outcome(reference)

    @pytest.mark.parametrize(
        "kind, params, selector",
        [
            ("recolor", {"src": True, "dst": 1}, Selector("all")),
            ("recolor", {"src": 1, "dst": 10}, Selector("all")),
            ("recolor", {"src": 1}, Selector("all")),
            ("recolor", {"src": 1, "dst": 2, "zzz": 3}, Selector("all")),
            ("palette_swap", {"map": ((2, 1), (1, 2))}, Selector("all")),
            ("palette_swap", {"map": ((1, 2), (1, 3))}, Selector("all")),
            ("palette_swap", {"map": ()}, Selector("all")),
            ("reflect_h", {}, Selector("color", 3)),
            ("tile_grid", {"rows": 0, "cols": 2}, Selector("all")),
            ("gravity_shift", {"dir": "sideways"}, Selector("all")),
            ("translate", {"dx": 1.0, "dy": 0}, Selector("all")),
            ("spin", {}, Selector("all")),
        ],
    )
    def test_named_invalid_inputs(self, kind, params, selector):
        from oracles import reference_pattern

        verdict, message = _validation_outcome(
            lambda: reference_pattern(kind, selector, **params)
        )
        assert verdict == "rejected"
        with pytest.raises(PatternContractError) as exc:
            make_pattern(kind, selector=selector, **params)
        assert str(exc.value) == message


class TestSizeRankSelector:
    """``Selector("size_rank", k)`` picks the k-th object of a sort by
    (size descending, id ascending), for every k, ties included."""

    @given(grids(max_side=10, colors=3), st.sampled_from((4, 8)))
    @settings(max_examples=80, deadline=None)
    def test_matches_sorted_reference(self, g, connectivity):
        objs = segment(g, connectivity).objects
        ranked = sorted(objs, key=lambda o: (-o.size, o.id))
        perception = Scene(g, connectivity).perception
        for k in range(len(objs) + 2):
            want = [ranked[k]] if k < len(ranked) else []
            assert Selector("size_rank", k).resolve(perception) == want

    def test_ties_go_to_the_lower_id(self):
        # Three single cells (ids 0, 1 and 3) and a three-cell bar (id 2).
        g = Grid.from_rows([[1, 0, 2, 0], [0, 0, 3, 0], [4, 0, 3, 0], [0, 0, 3, 0]])
        perception = segment(g)
        sizes = [(o.id, o.size) for o in perception.objects]
        assert sizes == [(0, 1), (1, 1), (2, 3), (3, 1)]
        picks = [Selector("size_rank", k).resolve(perception) for k in range(5)]
        assert [[o.id for o in pick] for pick in picks] == [[2], [0], [1], [3], []]
