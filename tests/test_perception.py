"""Segmentation, cavity detection, background profiling."""

import random
from dataclasses import FrozenInstanceError

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from symgrid import (
    Grid,
    Scene,
    apply_pattern,
    background_color,
    make_pattern,
    segment,
)
from symgrid import perception
from symgrid.patterns import Selector
from symgrid.perception import UNIT_SHAPE, cavity_regions
from conftest import grids, random_grid
from oracles import (
    background_oracle,
    cavity_oracle,
    segmentation_oracle,
    two_flood_cavity_regions,
)


class TestBackground:
    def test_strict_majority(self):
        assert background_color(Grid.from_rows([[0, 0], [0, 1]])) == 0

    def test_tie_lowest_wins(self):
        assert background_color(Grid.from_rows([[1, 2], [2, 1]])) == 1

    def test_against_histogram_oracle(self):
        rng = random.Random(5)
        for _ in range(1000):
            g = random_grid(rng, max_side=12)
            assert background_color(g) == background_oracle(g.rows)


class TestSegment:
    def test_all_background(self):
        p = segment(Grid.from_rows([[4, 4], [4, 4]]))
        assert p.background == 4
        assert p.objects == ()

    def test_single_bar(self):
        g = Grid.from_rows([[0, 1, 0], [0, 1, 0], [0, 1, 0]])
        p = segment(g)
        assert p.background == 0
        assert len(p.objects) == 1
        obj = p.objects[0]
        assert obj.color == 1
        assert obj.mask == frozenset({(0, 1), (1, 1), (2, 1)})
        assert obj.bbox == (0, 1, 2, 1)
        assert obj.cavity_count == 0

    def test_scan_order_ids(self):
        g = Grid.from_rows([[1, 0, 2], [0, 0, 0], [3, 0, 0]])
        p = segment(g)
        assert [(o.id, o.color) for o in p.objects] == [(0, 1), (1, 2), (2, 3)]

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_matches_union_find_oracle(self, connectivity):
        rng = random.Random(17)
        for _ in range(500):
            g = random_grid(rng, max_side=10, colors=4)
            p = segment(g, connectivity)
            got = {(o.color, o.mask) for o in p.objects}
            want = segmentation_oracle(g.rows, p.background, connectivity)
            assert got == want

    def test_diagonal_cells_split_under_4_joined_under_8(self):
        g = Grid.from_rows([[1, 0], [0, 1]])
        assert len(segment(g, 4).objects) == 2
        assert len(segment(g, 8).objects) == 1

    @given(grids(max_side=10, colors=5))
    @settings(max_examples=80)
    def test_partition_and_monochrome(self, g):
        p = segment(g)
        covered = set()
        for obj in p.objects:
            assert not (obj.mask & covered), "masks overlap"
            covered |= obj.mask
            assert {g.rows[r][c] for r, c in obj.mask} == {obj.color}
            top = min(r for r, _ in obj.mask)
            left = min(c for _, c in obj.mask)
            bottom = max(r for r, _ in obj.mask)
            right = max(c for _, c in obj.mask)
            assert obj.bbox == (top, left, bottom, right)
        non_bg = {
            (r, c)
            for r in range(g.height)
            for c in range(g.width)
            if g.rows[r][c] != p.background
        }
        assert covered == non_bg

    @given(grids(max_side=8, colors=4))
    @settings(max_examples=40)
    def test_deterministic(self, g):
        assert segment(g) == segment(g)

    def test_bad_connectivity(self):
        with pytest.raises(ValueError):
            segment(Grid.from_rows([[0]]), connectivity=6)


def _object_of(g: Grid, color: int):
    p = segment(g)
    matches = [o for o in p.objects if o.color == color]
    assert len(matches) == 1
    return p, matches[0]


class TestCavities:
    def test_solid_square(self):
        g = Grid.from_rows([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
        # Make 1 the figure by embedding in a 0 background.
        g = Grid.from_rows(
            [[0] * 5] + [[0] + list(row) + [0] for row in g.rows] + [[0] * 5]
        )
        _, obj = _object_of(g, 1)
        assert obj.cavity_count == 0

    def test_ring_has_one(self):
        g = Grid.from_rows(
            [
                [0, 0, 0, 0, 0],
                [0, 2, 2, 2, 0],
                [0, 2, 0, 2, 0],
                [0, 2, 2, 2, 0],
                [0, 0, 0, 0, 0],
            ]
        )
        _, obj = _object_of(g, 2)
        assert obj.cavity_count == 1

    def test_frame_with_two_pockets(self):
        # A 5x5 frame with a divider wall: two separated interior pockets.
        frame = [
            [3, 3, 3, 3, 3],
            [3, 0, 3, 0, 3],
            [3, 0, 3, 0, 3],
            [3, 0, 3, 0, 3],
            [3, 3, 3, 3, 3],
        ]
        g = Grid.from_rows(
            [[0] * 7] + [[0] + row + [0] for row in frame] + [[0] * 7]
        )
        _, obj = _object_of(g, 3)
        assert obj.cavity_count == 2
        assert obj.cavity_count == cavity_oracle(obj.mask, obj.bbox)

    def test_pocket_open_to_bbox_border_is_not_a_cavity(self):
        # U shape: the channel reaches the bbox bottom edge, so it escapes.
        g = Grid.from_rows(
            [
                [0, 0, 0, 0, 0],
                [0, 4, 4, 4, 0],
                [0, 4, 0, 4, 0],
                [0, 4, 0, 4, 0],
                [0, 0, 0, 0, 0],
            ]
        )
        _, obj = _object_of(g, 4)
        assert obj.bbox == (1, 1, 3, 3)
        assert obj.cavity_count == 0

    def test_against_region_labeling_oracle_random_masks(self):
        rng = random.Random(23)
        for _ in range(500):
            g = random_grid(rng, max_side=9, colors=3)
            p = segment(g)
            for obj in p.objects:
                assert obj.cavity_count == cavity_oracle(obj.mask, obj.bbox)

    def test_adding_a_hole_raises_count_by_one(self):
        solid = Grid.from_rows(
            [
                [0, 0, 0, 0, 0, 0],
                [0, 5, 5, 5, 5, 0],
                [0, 5, 5, 5, 5, 0],
                [0, 5, 5, 5, 5, 0],
                [0, 0, 0, 0, 0, 0],
            ]
        )
        _, obj = _object_of(solid, 5)
        base = obj.cavity_count
        rows = solid.to_lists()
        rows[2][2] = 0
        _, holed = _object_of(Grid.from_rows(rows), 5)
        assert holed.cavity_count == base + 1

    def test_cavity_regions_cells(self):
        g = Grid.from_rows(
            [
                [2, 2, 2],
                [2, 0, 2],
                [2, 2, 2],
            ]
        )
        _, obj = _object_of(
            Grid.from_rows([[0] * 5] + [[0] + list(r) + [0] for r in g.rows] + [[0] * 5]),
            2,
        )
        regions = cavity_regions(obj.mask, obj.bbox)
        assert regions == [frozenset({(2, 2)})]

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_one_pass_labelling_matches_the_two_flood_reference(self, data):
        # Random bboxes and masks of random density, with mask cells also
        # one row and column past the bbox: the regions and their order
        # must equal the reference's. Dense masks enclose several holes.
        top = data.draw(st.integers(0, 3))
        left = data.draw(st.integers(0, 3))
        bottom = top + data.draw(st.integers(0, 9))
        right = left + data.draw(st.integers(0, 9))
        density = data.draw(st.integers(0, 10))
        cells = [(r, c) for r in range(top, bottom + 2) for c in range(left, right + 2)]
        draws = data.draw(st.lists(st.integers(0, 9), min_size=len(cells), max_size=len(cells)))
        mask = frozenset(cell for cell, v in zip(cells, draws) if v < density)
        bbox = (top, left, bottom, right)
        assert cavity_regions(mask, bbox) == two_flood_cavity_regions(mask, bbox)


class TestFlatIndexSegment:
    """``segment`` is a flat-index flood fill that skips the cavity flood
    when no bbox cell off the mask can be interior; ``oracles.bfs_segment``
    is the breadth-first fill it replaced. Whole perceptions (ids, masks,
    bboxes, cavity counts, background) must be equal."""

    @given(
        st.one_of(
            grids(max_side=30, colors=2),
            grids(max_side=30, colors=3),
            grids(max_side=30, colors=10),
        ),
        st.sampled_from((4, 8)),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_bfs_reference(self, g, connectivity):
        from oracles import bfs_segment

        assert segment(g, connectivity) == bfs_segment(g, connectivity)

    @pytest.mark.parametrize("connectivity", (4, 8))
    def test_matches_bfs_reference_on_the_bench_suite(self, connectivity):
        from oracles import bfs_segment
        from symgrid.taskgen import generate_suite

        for _, task, _ in generate_suite(1007, 100, 20):
            for pair in task.train + task.test:
                for g in pair:
                    if g is not None:
                        assert segment(g, connectivity) == bfs_segment(g, connectivity)

    @pytest.mark.parametrize(
        "rows, cavities",
        [
            ([[1, 1, 1], [1, 0, 1], [1, 1, 1]], 1),  # the smallest ring
            ([[1, 1], [1, 1]], 0),  # fills its bbox
            ([[1, 1, 1], [1, 0, 1]], 0),  # height 2: no interior row
            ([[1, 1, 1, 1], [1, 0, 0, 1], [1, 1, 1, 1]], 1),
            ([[1, 1, 1, 1, 1], [1, 0, 1, 0, 1], [1, 1, 1, 1, 1]], 2),
        ],
    )
    def test_cavity_shortcut_edges(self, rows, cavities):
        from oracles import bfs_segment

        blank = [0] * (len(rows[0]) + 2)
        g = Grid.from_rows([blank, *([0, *r, 0] for r in rows), blank])  # bg 0
        p = segment(g)
        assert [o.cavity_count for o in p.objects if o.color == 1] == [cavities]
        assert p == bfs_segment(g)


def _holed_grid(rng: random.Random) -> Grid:
    """A grid of rectangle rings, some split into several holes by inner
    walls, some broken open, over sparse noise: objects whose cavity
    count is rarely ruled out by their bbox alone."""
    h, w = rng.randint(4, 16), rng.randint(4, 16)
    noise = [0] * 9 + [1, 2, 3]
    rows = [[rng.choice(noise) for _ in range(w)] for _ in range(h)]
    for _ in range(rng.randint(1, 4)):
        top, left = rng.randrange(h - 2), rng.randrange(w - 2)
        bottom, right = rng.randint(top + 2, h - 1), rng.randint(left + 2, w - 1)
        color = rng.randint(1, 3)
        for r in range(top, bottom + 1):
            for c in range(left, right + 1):
                if r in (top, bottom) or c in (left, right):
                    rows[r][c] = color
        if right - left >= 4 and rng.random() < 0.5:  # an inner wall
            wall = rng.randint(left + 2, right - 2)
            for r in range(top, bottom + 1):
                rows[r][wall] = color
        if rng.random() < 0.3:  # a gap in the ring
            rows[top][rng.randint(left, right)] = 0
    return Grid.from_rows(rows)


class TestCavitiesOnDemand:
    """``segment`` stores ``cavity_count`` only where the bbox rules a
    cavity out; every other object labels its ``cavities`` on first read,
    once. Counts and regions must equal the references that labelled
    every object up front: ``oracles.bfs_segment`` and
    ``oracles.two_flood_cavity_regions``."""

    @pytest.mark.parametrize("connectivity", (4, 8))
    def test_counts_and_regions_match_references(self, connectivity):
        from oracles import bfs_segment

        rng = random.Random(4001 + connectivity)
        holed = 0
        for i in range(400):
            g = _holed_grid(rng) if i % 4 else random_grid(rng, max_side=12, colors=3)
            p = segment(g, connectivity)
            ref = bfs_segment(g, connectivity)
            for obj, ref_obj in zip(p.objects, ref.objects, strict=True):
                assert obj.cavities == tuple(two_flood_cavity_regions(obj.mask, obj.bbox))
                assert obj.cavity_count == len(obj.cavities) == ref_obj.cavity_count
                holed += obj.cavity_count > 0
            assert p == ref
        assert holed > 200  # the rings did enclose holes

    @pytest.mark.parametrize("connectivity", (4, 8))
    def test_segment_labels_no_cavity(self, monkeypatch, connectivity):
        calls = []
        regions = perception.cavity_regions

        def counting(mask, bbox):
            calls.append(bbox)
            return regions(mask, bbox)

        monkeypatch.setattr(perception, "cavity_regions", counting)
        rng = random.Random(4011)
        perceptions = [segment(_holed_grid(rng), connectivity) for _ in range(100)]
        assert calls == []
        counts = [o.cavity_count for p in perceptions for o in p.objects]
        labelled = len(calls)
        assert any(counts) and 0 < labelled < len(counts)
        # A second read labels nothing again.
        assert [o.cavity_count for p in perceptions for o in p.objects] == counts
        assert len(calls) == labelled

    def test_cavity_fill_labels_each_object_at_most_once(self, monkeypatch):
        calls = []
        regions = perception.cavity_regions

        def counting(mask, bbox):
            calls.append((mask, bbox))
            return regions(mask, bbox)

        monkeypatch.setattr(perception, "cavity_regions", counting)
        rng = random.Random(4021)
        fills = [
            make_pattern("cavity_fill", color=c, selector=sel)
            for c in (4, 5)
            for sel in (Selector("all"), Selector("color", 1), Selector("cavities", 1))
        ]
        filled = 0
        for _ in range(60):
            scene = Scene(_holed_grid(rng))
            first = [apply_pattern(f, scene) for f in fills]
            again = [apply_pattern(f, scene) for f in fills]
            assert first == again
            filled += first[0] != scene.grid
            objects = scene.perception.objects
            assert len(calls) <= len(objects)
            assert len(set(calls)) == len(calls)  # no object labelled twice
            calls.clear()
        assert filled > 30


def _check_trusted_objects(g, connectivity):
    """``segment``'s objects, built by ``GridObject._trusted``, against
    ``oracles.bfs_segment``'s, built by the dataclass ``__init__``: equal,
    hashed alike, frozen, with lazy features equal to values recomputed
    from the masks and sizes."""
    from oracles import bfs_segment

    p, q = segment(g, connectivity), bfs_segment(g, connectivity)
    assert p.objects == q.objects
    assert hash(p) == hash(q)
    for o, ref in zip(p.objects, q.objects):
        assert hash(o) == hash(ref)
        for name in ("id", "color", "mask", "bbox", "cavity_count", "shape"):
            with pytest.raises(FrozenInstanceError):
                setattr(o, name, None)
        top, left = min(r for r, _ in o.mask), min(c for _, c in o.mask)
        assert o.shape == frozenset((r - top, c - left) for r, c in o.mask) == ref.shape
        if o.size == 1:
            assert o.shape is UNIT_SHAPE
    by_size = sorted(p.objects, key=lambda o: (-len(o.mask), o.id))
    assert list(p.by_size) == by_size
    assert p.size_ranks == {o.id: rank for rank, o in enumerate(by_size)}
    assert p.by_size is p.by_size and p.size_ranks is p.size_ranks  # computed once
    with pytest.raises(FrozenInstanceError):
        p.by_size = ()


class TestTrustedObjects:
    """``segment`` builds objects without the dataclass ``__init__`` (one
    cell objects directly from the cell) and computes ``shape``,
    ``by_size`` and ``size_ranks`` through the lock-free ``lazy``
    descriptor; nothing about the objects may differ from the reference."""

    @given(
        st.one_of(grids(max_side=12, colors=2), grids(max_side=12, colors=10)),
        st.sampled_from((4, 8)),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_bfs_reference(self, g, connectivity):
        _check_trusted_objects(g, connectivity)

    @pytest.mark.parametrize("connectivity", (4, 8))
    def test_matches_bfs_reference_on_the_bench_suite(self, connectivity):
        from symgrid.taskgen import generate_suite

        for _, task, _ in generate_suite(1007, 100, 20):
            for pair in task.train + task.test:
                for g in pair:
                    if g is not None:
                        _check_trusted_objects(g, connectivity)

    def test_features_stay_out_of_equality(self):
        g = Grid.from_rows([[0, 1, 0], [2, 2, 0], [0, 0, 3]])
        a, b = segment(g), segment(g)
        # Computed on one side only.
        assert a.size_ranks == {1: 0, 0: 1, 2: 2}
        assert [o.shape for o in a.objects] == [UNIT_SHAPE, {(0, 0), (0, 1)}, UNIT_SHAPE]
        assert a == b and hash(a) == hash(b)
        assert [o.shape for o in a.objects] == [o.shape for o in b.objects]


def _noise_grid(rng: random.Random) -> Grid:
    """Sparse cells of nine colors on background 0: mostly one-cell
    objects, with the odd pair or bar where cells touch."""
    h, w = rng.randint(1, 16), rng.randint(1, 16)
    return Grid.from_rows(
        [[rng.randint(1, 9) if rng.random() < 0.15 else 0 for _ in range(w)] for _ in range(h)]
    )


def _deferred_inputs(seed: int):
    """Rings with inner walls and gaps, one-cell noise, and dense 30x30
    grids of ten colors."""
    rng = random.Random(seed)
    for i in range(200):
        if i % 10 == 9:
            yield random_grid(rng, max_side=30, min_side=30, colors=10)
        else:
            yield (_holed_grid, _noise_grid)[i % 2](rng)


_OBJECT_FIELDS = ("id", "color", "mask", "bbox", "size", "cavity_count", "shape", "cavities")


def _reference_fields(obj) -> dict:
    """Every feature of an ``oracles.bfs_segment`` object, recomputed from
    its mask and bbox where ``GridObject`` would derive it."""
    top, left, _, _ = obj.bbox
    return {
        "id": obj.id,
        "color": obj.color,
        "mask": obj.mask,
        "bbox": obj.bbox,
        "size": len(obj.mask),
        "cavity_count": obj.cavity_count,
        "shape": frozenset((r - top, c - left) for r, c in obj.mask),
        "cavities": tuple(two_flood_cavity_regions(obj.mask, obj.bbox)),
    }


def _needs_labelling(obj) -> bool:
    """Whether the bbox leaves room for a cavity: both sides above 2 and
    some bbox cell off the mask."""
    top, left, bottom, right = obj.bbox
    height, width = bottom - top + 1, right - left + 1
    return height > 2 and width > 2 and len(obj.mask) < height * width


class TestDeferredGeometry:
    """``segment`` keeps a multi-cell object's id, color, size and cell
    indices and builds ``mask`` and ``bbox`` together on the first read of
    either; ``cavity_count`` applies the bbox rule on its first read. Read
    in any order, every feature must equal ``oracles.bfs_segment``'s,
    which builds every object whole through ``__init__``."""

    @pytest.fixture()
    def builds(self, monkeypatch):
        calls = []
        geometry = perception._geometry

        def counting(obj):
            calls.append(obj.id)
            geometry(obj)

        monkeypatch.setattr(perception, "_geometry", counting)
        return calls

    @pytest.mark.parametrize("connectivity", (4, 8))
    def test_fields_match_reference_in_any_read_order(self, connectivity):
        from oracles import bfs_segment

        rng = random.Random(4101 + connectivity)
        multi = holed = 0
        for g in _deferred_inputs(4111 + connectivity):
            ref = bfs_segment(g, connectivity)
            wanted = [_reference_fields(o) for o in ref.objects]
            for _ in range(3):
                p = segment(g, connectivity)
                assert len(p.objects) == len(wanted)
                for obj, want in zip(p.objects, wanted):
                    order = rng.sample(_OBJECT_FIELDS, len(_OBJECT_FIELDS))
                    for name in order:
                        assert getattr(obj, name) == want[name], (name, order)
                assert p == ref and hash(p) == hash(ref)
            multi += sum(o.size > 1 for o in p.objects)
            holed += sum(o.cavity_count > 0 for o in p.objects)
        assert multi > 2000 and holed > 50

    @pytest.mark.parametrize("connectivity", (4, 8))
    def test_id_color_size_and_size_order_build_no_geometry(self, builds, connectivity):
        from oracles import bfs_segment

        for g in _deferred_inputs(4121 + connectivity):
            p, ref = segment(g, connectivity), bfs_segment(g, connectivity)
            assert [(o.id, o.color, o.size) for o in p.objects] == [
                (o.id, o.color, len(o.mask)) for o in ref.objects
            ]
            assert [o.id for o in p.by_size] == [o.id for o in ref.by_size]
            assert p.size_ranks == ref.size_ranks
        assert builds == []

    @pytest.mark.parametrize("connectivity", (4, 8))
    def test_geometry_built_once_per_object(self, builds, monkeypatch, connectivity):
        from oracles import bfs_segment

        labelled = []
        regions = perception.cavity_regions

        def counting(mask, bbox):
            labelled.append(bbox)
            return regions(mask, bbox)

        monkeypatch.setattr(perception, "cavity_regions", counting)
        total = 0
        for i, g in enumerate(_deferred_inputs(4131 + connectivity)):
            p, ref = segment(g, connectivity), bfs_segment(g, connectivity)
            multi = [o.id for o in p.objects if o.size > 1]
            first, second = ("mask", "bbox") if i % 2 else ("bbox", "mask")
            for obj in p.objects:
                getattr(obj, first)
            assert builds == multi  # one-cell objects hold their geometry
            for obj, want in zip(p.objects, ref.objects):
                assert getattr(obj, second) == getattr(want, second)
                assert obj.shape == obj.shape and obj.cavity_count == want.cavity_count
            assert builds == multi
            # Only a bbox that leaves room for a cavity is labelled.
            assert labelled == [o.bbox for o in ref.objects if _needs_labelling(o)]
            total += len(builds)
            builds.clear()
            labelled.clear()
        assert total > 2000
