"""Object matching, per-pair detection, cross-pair intersection, hints."""

import itertools
import random
from collections import Counter
from operator import itemgetter

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, example, given, settings

from symgrid import (
    KIND_ORDER,
    Grid,
    Scene,
    ScoredPattern,
    SearchProposer,
    Selector,
    Task,
    TrainPair,
    UnitPattern,
    apply_pattern,
    build_pattern,
    evaluate,
    format_pattern,
    grids_equal,
    induce,
    make_pattern,
    parse_pattern,
    pattern_key,
    pixel_distance,
    segment,
)
from symgrid import PatternApplicationError, background_color, induction
from symgrid.grid import MAX_PAIRS
from symgrid.patterns import AXES, DIRECTIONS, GROWS, KEY_ALL, RESULT_DIMS, _KINDS
from symgrid.induction import (
    CandidateTable,
    collect_candidates,
    detect_unit_patterns,
    intersect_patterns,
    match_objects,
    synthesize_hint,
)
from symgrid.taskgen import generate_noise_task, generate_planted_task, generate_suite
from conftest import (
    _rebind,
    collect_keys,
    detect,
    grids,
    intersect,
    random_grid,
    replay_lines,
    scored,
    train_pairs,
)


def scene(rows):
    return segment(Grid.from_rows(rows))


class TestMatchObjects:
    def test_identical_scenes_all_retained(self):
        g = Grid.from_rows([[1, 0, 2], [0, 0, 0], [3, 0, 0]])
        assert _tag_triples(match_objects(segment(g), segment(g))) == [
            ("retained", 0, 0),
            ("retained", 1, 1),
            ("retained", 2, 2),
        ]

    def test_deleted_object_tagged_removed(self):
        pin = scene([[1, 0, 2], [0, 0, 0]])
        pout = scene([[1, 0, 0], [0, 0, 0]])
        retained, removed, added = match_objects(pin, pout)
        assert len(retained) == 1
        assert [o.id for o in removed] == [1]
        assert added == []

    def test_translation_matched_by_shape(self):
        pin = scene([[4, 4, 0, 0], [0, 0, 0, 0]])
        pout = scene([[0, 0, 4, 4], [0, 0, 0, 0]])
        assert match_objects(pin, pout) == ([(pin.objects[0], pout.objects[0])], [], [])

    def test_recolored_object_matched_by_shape(self):
        pin = scene([[4, 4], [0, 0]])
        pout = scene([[6, 6], [0, 0]])
        assert match_objects(pin, pout) == ([(pin.objects[0], pout.objects[0])], [], [])

    def test_added_object(self):
        pin = scene([[1, 0, 0], [0, 0, 0]])
        pout = scene([[1, 0, 0], [0, 0, 7]])
        assert _tag_triples(match_objects(pin, pout)) == [("retained", 0, 0), ("added", None, 1)]

    def test_planted_edit_harness(self):
        # 100 random scenes with one planted edit: delete, add, or move.
        from symgrid.taskgen import _blob, _place

        rng = random.Random(13)
        for _ in range(100):
            n = rng.randint(2, 4)
            colors = rng.sample(range(1, 10), n)
            shapes = [(_blob(rng, rng.randint(2, 4)), c) for c in colors]
            g = _place(rng, 12, 12, shapes, gap=2)
            if g is None:
                continue
            pin = segment(g)
            edit = rng.choice(["delete", "add", "move"])
            if edit == "delete":
                victim = rng.choice(pin.objects)
                out = apply_pattern(
                    make_pattern(
                        "delete_object", selector=Selector("color", victim.color)
                    ),
                    g,
                )
                _, removed, added = match_objects(pin, segment(out))
                assert [o.id for o in removed] == [victim.id]
                assert not added
            elif edit == "move":
                victim = rng.choice(pin.objects)
                out = apply_pattern(
                    make_pattern(
                        "translate", dx=1, dy=0, selector=Selector("color", victim.color)
                    ),
                    g,
                )
                if len(segment(out).objects) != len(pin.objects):
                    continue  # the move merged or clipped; not a clean edit
                _, removed, added = match_objects(pin, segment(out))
                assert not removed and not added
            else:
                rows = g.to_lists()
                free = [
                    (r, c)
                    for r in range(1, g.height - 1)
                    for c in range(1, g.width - 1)
                    if all(
                        rows[r + dr][c + dc] == 0
                        for dr in (-1, 0, 1)
                        for dc in (-1, 0, 1)
                    )
                ]
                if not free:
                    continue
                r, c = rng.choice(free)
                new_color = rng.choice([x for x in range(1, 10) if x not in colors])
                rows[r][c] = new_color
                _, removed, added = match_objects(pin, segment(Grid.from_rows(rows)))
                assert len(added) == 1
                assert not removed


def _tag_triples(matched):
    """``match_objects``' three lists as ``(tag, input_id, output_id)``
    triples, in the order ``oracles.scan_match_objects`` lists them."""
    retained, removed, added = matched
    return (
        [("retained", a.id, b.id) for a, b in retained]
        + [("removed", o.id, None) for o in removed]
        + [("added", None, o.id) for o in added]
    )


class TestMatchObjectsIndex:
    """``match_objects`` looks each input object's feature up in a queue of
    output objects; ``oracles.scan_match_objects`` is the pairwise scan it
    replaced."""

    def test_suite_same_dims_pairs_match_scan(self):
        from oracles import scan_match_objects

        pairs = [
            (gin, gout)
            for _, task, _ in generate_suite(seed=1007, n_planted=100, n_noise=20)
            for gin, gout in task.train
            if gin.dims == gout.dims
        ]
        assert len(pairs) == 174
        for gin, gout in pairs:
            for connectivity in (4, 8):
                pin, pout = segment(gin, connectivity), segment(gout, connectivity)
                found = _tag_triples(match_objects(pin, pout))
                assert found == scan_match_objects(pin, pout)

    def test_random_perceptions_match_scan(self):
        from conftest import random_grid
        from oracles import scan_match_objects

        rng = random.Random(1409)
        for i in range(300):
            gin = random_grid(rng, max_side=12, colors=rng.randint(2, 4))
            if i % 3:
                # An edited copy: some objects keep their mask or shape.
                rows = gin.to_lists()
                for _ in range(rng.randint(0, 6)):
                    r, c = rng.randrange(gin.height), rng.randrange(gin.width)
                    rows[r][c] = rng.randrange(4)
                gout = Grid.from_rows(rows)
            else:
                gout = random_grid(rng, max_side=12, colors=rng.randint(2, 4))
            connectivity = (4, 8)[i % 2]
            pin, pout = segment(gin, connectivity), segment(gout, connectivity)
            assert _tag_triples(match_objects(pin, pout)) == scan_match_objects(pin, pout)


class _ListProposer:
    """Proposer stub yielding a fixed list of pattern lines."""

    def __init__(self, items):
        self.items = items

    def propose(self, pair, budget):
        return list(self.items)


class TestDetectUnitPatterns:
    def test_planted_reflection_detected(self):
        g = Grid.from_rows([[1, 2, 3], [4, 5, 6]])
        pair = (g, apply_pattern(make_pattern("reflect_h"), g))
        found = detect(pair, SearchProposer(), budget=2000)
        keys = {format_pattern(sp.pattern): sp.exact for sp in found}
        assert keys.get("reflect_h()@all") is True
        assert all(sp.support == 1 for sp in found)

    def test_malformed_lines_dropped_with_warning(self, caplog):
        g = Grid.from_rows([[1, 2], [3, 4]])
        pair = (g, apply_pattern(make_pattern("rotate90"), g))
        proposer = _ListProposer(["garbage(((", "rotate90()@all"])
        with caplog.at_level("WARNING"):
            found = detect(pair, proposer, budget=10)
        assert [format_pattern(sp.pattern) for sp in found] == ["rotate90()@all"]
        assert any("malformed" in rec.message for rec in caplog.records)

    def test_no_fabricated_exacts(self):
        rng = random.Random(3)
        from conftest import random_grid

        for _ in range(50):
            gin = random_grid(rng, max_side=7, colors=4)
            gout = random_grid(rng, max_side=7, colors=4)
            for sp in detect((gin, gout), SearchProposer(), 500):
                if sp.exact:
                    assert grids_equal(apply_pattern(sp.pattern, gin), gout)

    def test_deduplication(self):
        g = Grid.from_rows([[1, 2], [3, 4]])
        pair = (g, apply_pattern(make_pattern("rotate90"), g))
        proposer = _ListProposer(["rotate90()@all", "rotate90()@all"])
        found = detect(pair, proposer, budget=10)
        assert len(found) == 1

    def test_budget_caps_every_proposer(self, apply_calls):
        g = Grid.from_rows([[1, 2], [3, 4]])
        pair = (g, apply_pattern(make_pattern("rotate90"), g))
        lines = [
            "rotate90()@all",
            "reflect_h()@all",
            "reflect_v()@all",
            "rotate180()@all",
            "rotate270()@all",
        ]
        found = detect(pair, _ListProposer(lines), budget=2)
        assert [key for key, _ in apply_calls] == lines[:2]
        assert {format_pattern(sp.pattern) for sp in found} <= set(lines[:2])

    def test_inconsistent_proposals_dropped(self):
        g = Grid.from_rows([[1, 2], [3, 4]])
        pair = (g, apply_pattern(make_pattern("rotate90"), g))
        proposer = _ListProposer(["recolor(src=1,dst=2)@all"])  # neither exact nor closer
        assert detect(pair, proposer, budget=10) == []


class TestParseMemo:
    """``induce`` parses each distinct pattern line once per call, through
    the line memo of the task's CandidateTable, dropped when it returns."""

    @staticmethod
    def _task():
        pairs = _pool_task()[:3]  # rotate90 explains all three
        return Task(train=pairs, test=((pairs[0][0], None),))

    def test_malformed_line_warns_at_every_occurrence(self, caplog):
        proposer = _ListProposer(["not a pattern line", "rotate90()@all"])
        with caplog.at_level("WARNING", logger="symgrid.induction"):
            rs = induce(self._task(), proposer)
        assert [format_pattern(sp.pattern) for sp in rs.patterns] == ["rotate90()@all"]
        assert [r.getMessage() for r in caplog.records] == [
            "dropping malformed pattern line 'not a pattern line': "
            "unparseable pattern line: 'not a pattern line'"
        ] * 3

    def test_each_distinct_line_parsed_once_per_call(self, monkeypatch):
        parsed = []
        original = induction.parse_pattern

        def counting(line):
            parsed.append(line)
            return original(line)

        monkeypatch.setattr(induction, "parse_pattern", counting)
        lines = ["rotate90()@all", "reflect_h()@all", "scale_up(factor=1)@all"]
        proposer = _ListProposer(lines + lines[:1])
        task = self._task()
        first = induce(task, proposer)
        assert parsed == lines
        # Nothing is kept across calls: the same task parses them again.
        assert induce(task, proposer) == first
        assert parsed == lines * 2

    def test_rule_sets_equal_without_the_memo(self, monkeypatch):
        suite = [
            (task, _ListProposer(replay_lines(planted)))
            for _, task, planted in generate_suite(seed=1007, n_planted=100)
        ]
        with_memo = [induce(task, proposer) for task, proposer in suite]
        collect = induction.collect_candidates

        def without_memo(pair, proposer, budget, table):
            table.lines.clear()
            return collect(pair, proposer, budget, table)

        monkeypatch.setattr(induction, "collect_candidates", without_memo)
        assert [induce(task, proposer) for task, proposer in suite] == with_memo
        assert all(rs.patterns for rs in with_memo)


def _bound_skips(line, gin, gout):
    """Whether the color-count bound rules ``line`` out on (gin, gout),
    computed here as a floor from ``GROWS`` and Counters: the output's
    cells beyond the input's count, summed over the colors the kind never
    grows, reach the input's distance."""
    grows = GROWS[parse_pattern(line).kind]
    baseline = pixel_distance(gin, gout)
    if grows == "any" or baseline == 0:
        return False
    counts_in = Counter(v for row in gin.rows for v in row)
    counts_out = Counter(v for row in gout.rows for v in row)
    colors = set(counts_out)
    if grows == "background":
        colors.discard(background_color(gin))
    return sum(max(0, counts_out[c] - counts_in[c]) for c in colors) >= baseline


def _dims_skips(line, gin, gout):
    """Whether the result-dims fact rules ``line`` out on (gin, gout): its
    kind has a ``RESULT_DIMS`` function, and the dims it gives for gin are
    not gout's."""
    kind, values, _ = pattern_key(parse_pattern(line))
    dims = RESULT_DIMS[kind]
    return dims is not None and dims(values, *gin.dims) != gout.dims


def _runs(line, gin):
    """Whether ``line`` applies to ``gin`` without error."""
    try:
        apply_pattern(parse_pattern(line), gin)
    except PatternApplicationError:
        return False
    return True


_BOUNDED_LINES = [
    "reflect_h()@all",
    "reflect_v()@all",
    "rotate90()@all",
    "rotate180()@all",
    "rotate270()@all",
    *(f"gravity_shift(dir={d})@all" for d in ("up", "down", "left", "right")),
    "gravity_shift(dir=down)@color=1",
]


class TestColorCountBound:
    """``detect_unit_patterns`` drops, unapplied, the candidates of kinds
    that never add cells of a color once the color counts rule them out;
    its verdicts equal the unbounded reference verifier's."""

    def test_suite_matches_unbounded_reference(self, apply_calls):
        from oracles import reference_detect_unit_patterns

        proposer = SearchProposer()
        skipped = 0
        for _, task, _ in generate_suite(seed=1007, n_planted=100, n_noise=20):
            for gin, gout in task.train:
                pair = TrainPair(Scene(gin), gout)
                table = CandidateTable()
                ids = collect_candidates(pair, proposer, 2000, table)
                candidates = dict.fromkeys(table.keys[c] for c in ids)
                apply_calls.clear()
                reference = reference_detect_unit_patterns(pair, candidates)
                everything = Counter(apply_calls)
                apply_calls.clear()
                assert scored(table, detect_unit_patterns(pair, table, ids)) == reference
                applied = Counter(apply_calls)
                bound = Counter(a for a in everything if _bound_skips(*a, gout))
                assert applied == everything - bound
                skipped += sum(bound.values())
        assert skipped > 0

    def test_equal_grids_keep_reflect_h_exact(self, apply_calls):
        # The input's own distance is 0, so the bound never applies: every
        # candidate may still be exact.
        g = Grid.from_rows([[1, 2, 1], [3, 0, 3]])
        found = detect((g, g), _ListProposer(["reflect_h()@all", "rotate180()@all"]), 10)
        assert [(format_pattern(sp.pattern), sp.exact) for sp in found] == [
            ("reflect_h()@all", True)
        ]
        assert [line for line, _ in apply_calls] == ["reflect_h()@all", "rotate180()@all"]

    @given(grids(max_side=6, colors=3), st.data(), st.sampled_from((4, 8)))
    @settings(max_examples=300, deadline=None)
    def test_random_pairs_match_unbounded_reference(self, gin, data, connectivity):
        # The output is the input with a few cells recolored, so the
        # input's distance is small and the bound is often near firing.
        from oracles import reference_detect_unit_patterns

        rows = [list(row) for row in gin.rows]
        cell = st.tuples(
            st.integers(0, gin.height - 1), st.integers(0, gin.width - 1), st.integers(0, 3)
        )
        for r, c, v in data.draw(st.lists(cell, max_size=4)):
            rows[r][c] = v
        gout = Grid.from_rows(rows)
        candidates = {pattern_key(parse_pattern(line)): None for line in _BOUNDED_LINES}
        pair = TrainPair(Scene(gin, connectivity), gout)
        table = CandidateTable()
        ids = [table.number(key) for key in candidates]
        assert scored(table, detect_unit_patterns(pair, table, ids)) == (
            reference_detect_unit_patterns(pair, candidates)
        )

    def test_bound_skips_without_applying(self, apply_calls):
        # The output has one color-2 cell the input lacks, and one cell
        # differs: no rearrangement of the input can match or come closer.
        gin = Grid.from_rows([[1, 0], [0, 0]])
        gout = Grid.from_rows([[2, 0], [0, 0]])
        proposer = _ListProposer(["reflect_h()@all", "recolor(src=1,dst=2)@all"])
        found = detect((gin, gout), proposer, 10)
        assert [format_pattern(sp.pattern) for sp in found] == ["recolor(src=1,dst=2)@all"]
        assert [line for line, _ in apply_calls] == ["recolor(src=1,dst=2)@all"]

    def test_gravity_overlap_stays_partial(self):
        # The L (color 1) falls one row onto the bar (color 2), which cannot
        # fall and is painted over it, so one color-1 cell is lost. Against
        # an all-background output that loss is a partial match. Counting
        # the background too, the floor (the output's 7 extra background
        # cells) would reach the input's distance of 7 and drop it.
        from oracles import reference_detect_unit_patterns

        gin = Grid.from_rows(
            [[1, 1, 0, 0, 0], [2, 1, 0, 0, 0], [2, 1, 0, 0, 0], [3, 0, 0, 0, 0]]
        )
        gout = Grid.from_rows([[0] * 5] * 4)
        lines = ["gravity_shift(dir=down)@all", "reflect_h()@all"]
        for connectivity in (4, 8):
            pair = TrainPair(Scene(gin, connectivity), gout)
            found = detect((gin, gout), _ListProposer(lines), 10, connectivity)
            assert found == reference_detect_unit_patterns(
                pair, {pattern_key(parse_pattern(line)): None for line in lines}
            )
            assert [(format_pattern(sp.pattern), sp.exact) for sp in found] == [
                ("gravity_shift(dir=down)@all", False)
            ]


def _fact_keys(colors=4):
    """Every key, over colors below ``colors``, of the kinds to which
    ``TrainPair.verdict`` can give a verdict other than apply: those with a
    ``changes`` record or a ``GROWS`` class."""
    values = {"color": range(colors), "direction": DIRECTIONS, "axis": AXES}
    selectors = [KEY_ALL]
    selectors += [("color", c) for c in range(colors)]
    selectors += [("size_rank", r) for r in range(2)] + [("cavities", n) for n in range(2)]
    keys = []
    for kind, spec in _KINDS.items():
        if spec.changes is None and spec.grows == "any":
            continue
        for params in itertools.product(*(values[tag] for _, tag in spec.signature)):
            for sel in selectors if spec.takes_selector else [KEY_ALL]:
                keys.append((kind, params, sel))
    return keys


_FACT_KEYS = _fact_keys()


@st.composite
def _fact_scenes(draw):
    """A train pair for the exactness facts: the output is the input
    itself, the input with a few cells recolored, or a fact kind's
    result on the input (so exact keys are common), at connectivity 4 or
    8. Three colors on small grids make tied backgrounds common."""
    gin = draw(grids(max_side=6, colors=3))
    connectivity = draw(st.sampled_from((4, 8)))
    scene = Scene(gin, connectivity)
    how = draw(st.sampled_from(("same", "edit", "apply")))
    if how == "same":
        gout = gin
    elif how == "edit":
        rows = [list(row) for row in gin.rows]
        cell = st.tuples(
            st.integers(0, gin.height - 1), st.integers(0, gin.width - 1), st.integers(0, 3)
        )
        for r, c, v in draw(st.lists(cell, min_size=1, max_size=4)):
            rows[r][c] = v
        gout = Grid.from_rows(rows)
    else:
        gout = apply_pattern(build_pattern(draw(st.sampled_from(_FACT_KEYS))), scene)
    return scene, gout


# One line of each fact kind, for ``_bound_skips``, which reads only the kind.
_KIND_LINES = {key[0]: format_pattern(build_pattern(key)) for key in reversed(_FACT_KEYS)}

# One cell turns 1 into the background and one 1 into 2: no color is both
# held and wanted, but the background is wanted, so gravity_shift, which
# may grow the background, is held rather than dropped.
_WANTED_BACKGROUND = (
    Scene(Grid.from_rows([[1, 1, 0], [0, 0, 0], [0, 0, 0]])),
    Grid.from_rows([[0, 2, 0], [0, 0, 0], [0, 0, 0]]),
)


class TestExactnessFacts:
    """``TrainPair.verdict`` never marks a key that is exact: a key whose
    verdict on a pair is not apply, applied there, does not give the
    output."""

    @given(_fact_scenes())
    # A tied background (three 0s, three 1s: 0 wins) under a recolor
    # that moves the tie, and an input equal to its output.
    @example(
        (Scene(Grid.from_rows([[0, 1, 1], [1, 0, 0]])), Grid.from_rows([[0, 2, 2], [2, 0, 0]]))
    )
    @example((Scene(Grid.from_rows([[0, 1], [1, 0]]), 8), Grid.from_rows([[0, 1], [1, 0]])))
    # gravity_shift(dir=down)@all paints the bar over the L that fell onto
    # it: exact, with a background cell gained (tests/test_patterns.py,
    # TestColorCountFact).
    @example(
        (
            Scene(Grid.from_rows(
                [[1, 1, 0, 0, 0], [2, 1, 0, 0, 0], [2, 1, 0, 0, 0], [3, 0, 0, 0, 0]]
            )),
            Grid.from_rows([[0, 0, 0, 0, 0], [2, 1, 0, 0, 0], [2, 1, 0, 0, 0], [3, 1, 0, 0, 0]]),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_marked_keys_are_never_exact(self, pair):
        scene, gout = pair
        diff = TrainPair(scene, gout)
        for key in _FACT_KEYS:
            if diff.verdict(key) is not induction._APPLY:
                assert apply_pattern(build_pattern(key), scene) != gout, key
        if scene.grid == gout:
            assert all(diff.verdict(key) is induction._APPLY for key in _FACT_KEYS)

    @given(_fact_scenes())
    @example(_WANTED_BACKGROUND)
    # A rotation of a non-square grid: no cell to compare, so every verdict
    # is apply.
    @example((Scene(Grid.from_rows([[1, 2, 0]])), Grid.from_rows([[1], [2], [0]])))
    @settings(max_examples=300, deadline=None)
    def test_drop_is_the_color_count_floor(self, pair):
        # A key is dropped exactly when the floor, recomputed from Counters,
        # reaches the input's distance; equal grids and pairs of other shapes
        # leave every key to apply.
        scene, gout = pair
        gin = scene.grid
        skips = {kind: _bound_skips(line, gin, gout) for kind, line in _KIND_LINES.items()}
        diff = TrainPair(scene, gout)
        for key in _FACT_KEYS:
            verdict = diff.verdict(key)
            assert (verdict is induction._DROP) == skips[key[0]], key
            if gin == gout or gin.dims != gout.dims:
                assert verdict is induction._APPLY, key
        other = TrainPair(scene, Grid.from_rows([(*row, 0) for row in gout.rows]))
        assert all(other.verdict(key) is induction._APPLY for key in _FACT_KEYS)

    def test_wanted_background_holds_gravity(self):
        diff = TrainPair(*_WANTED_BACKGROUND)
        gravity = [key for key in _FACT_KEYS if key[0] == "gravity_shift"]
        assert {diff.verdict(key) for key in gravity} == {induction._HOLD}
        assert diff.by_class("none") is induction._DROP

    def test_suite_marked_keys_are_never_exact(self):
        # Every search candidate on every train pair of the suite.
        proposer = SearchProposer()
        marked = Counter()
        for _, task, _ in generate_suite(seed=1007, n_planted=100, n_noise=20):
            for gin, gout in task.train:
                for connectivity in (4, 8):
                    pair = TrainPair(Scene(gin, connectivity), gout)
                    for key in collect_keys(pair, proposer, 2000):
                        if pair.verdict(key) is not induction._APPLY:
                            marked[key[0]] += 1
                            assert apply_pattern(build_pattern(key), pair.scene) != gout, key
        # Each fact marks something: the kinds that grow no color, the
        # gravity kind, and every ``changes`` record the search proposes.
        assert {"reflect_h", "rotate180", "gravity_shift", "recolor", "draw_bbox_border",
                "connect_objects", "symmetry_complete", "cavity_fill"} <= set(marked)

    def test_ruled_out_keys_are_left_to_detect(self):
        # One cell turns 1 into 2: no color is both held and wanted, so the
        # color counts rule reflect_h out (dropped unapplied, with a verdict
        # of its own); recolor(1, 3) is only held back.
        gin = Grid.from_rows([[1, 0], [0, 0]])
        gout = Grid.from_rows([[2, 0], [0, 0]])
        diff = TrainPair(Scene(gin), gout)
        keys = [
            pattern_key(parse_pattern(line))
            for line in ("reflect_h()@all", "recolor(src=1,dst=3)@all", "recolor(src=1,dst=2)@all")
        ]
        assert [diff.verdict(key) for key in keys] == [
            induction._DROP, induction._HOLD, induction._APPLY
        ]
        assert diff.by_class("none") is diff.by_class("background") is induction._DROP
        assert diff.by_class("any") is induction._APPLY
        assert [key for key in keys if diff.verdict(key) is induction._HOLD] == keys[1:2]
        same = TrainPair(Scene(gin), gin)
        assert all(same.verdict(key) is induction._APPLY for key in keys)

    def test_diff_matches_pixel_distance(self):
        for _, task, _ in generate_suite(seed=1007, n_planted=20, n_noise=5):
            for gin, gout in task.train:
                diff = TrainPair(Scene(gin), gout)
                assert diff.distance == pixel_distance(gin, gout)
                if gin.dims == gout.dims:
                    cells = [
                        (a, b)
                        for ra, rb in zip(gin.rows, gout.rows)
                        for a, b in zip(ra, rb)
                        if a != b
                    ]
                    assert diff.held == [a for a, _ in cells]
                    assert diff.wanted == [b for _, b in cells]
                else:
                    assert diff.held is None and diff.wanted is None


def _sp(pattern, exact=True):
    return ScoredPattern(pattern=pattern, support=1, confidence=1.0, exact=exact)


# The candidates of the random verdict tables below. On the ``_pool_task``
# pairs each one matches an output, misses it, or cannot apply, so the
# contradiction checks take every branch.
_TABLE_LINES = (
    "rotate90()@all",
    "reflect_h()@all",
    "rotate180()@all",
    "recolor(src=1,dst=0)@all",
    "tile_grid(rows=2,cols=1)@all",
    "scale_down(factor=2)@all",
)


class TestIntersect:
    def test_unanimous_pattern(self):
        g1 = Grid.from_rows([[1, 2], [3, 4]])
        g2 = Grid.from_rows([[5, 6], [7, 8]])
        g3 = Grid.from_rows([[2, 0], [0, 9]])
        rot = make_pattern("rotate90")
        pairs = [(g, apply_pattern(rot, g)) for g in (g1, g2, g3)]
        per_pair = [[_sp(rot)] for _ in pairs]
        rs = intersect(per_pair, train_pairs(pairs))
        assert [format_pattern(sp.pattern) for sp in rs.patterns] == ["rotate90()@all"]
        assert rs.patterns[0].confidence == 1.0
        assert rs.patterns[0].support == 3

    def test_threshold_arithmetic(self):
        g1 = Grid.from_rows([[1, 2], [3, 4]])
        g2 = Grid.from_rows([[5, 6], [7, 8]])
        g3 = Grid.from_rows([[2, 0], [0, 9]])
        rot = make_pattern("rotate90")
        pairs = [(g, apply_pattern(rot, g)) for g in (g1, g2, g3)]
        # Present in 2 of 3 pair lists.
        per_pair = [[_sp(rot)], [_sp(rot)], []]
        rs_strict = intersect(per_pair, train_pairs(pairs), threshold=1.0)
        assert rs_strict.patterns == ()
        rs_loose = intersect(per_pair, train_pairs(pairs), threshold=0.6)
        assert len(rs_loose.patterns) == 1
        assert rs_loose.patterns[0].support == 2
        assert abs(rs_loose.patterns[0].confidence - 2 / 3) < 1e-12

    def test_spurious_pattern_excluded_at_every_threshold(self):
        # Exact on pair 1, applies-but-wrong on pair 2.
        g1 = Grid.from_rows([[1, 2], [3, 4]])
        rot = make_pattern("rotate90")
        pair1 = (g1, apply_pattern(rot, g1))
        g2 = Grid.from_rows([[5, 6], [7, 8]])
        pair2 = (g2, Grid.from_rows([[0, 0], [0, 0]]))
        per_pair = [[_sp(rot)], []]
        for threshold in (0.0, 0.25, 0.5, 0.75, 1.0):
            rs = intersect(per_pair, train_pairs([pair1, pair2]), threshold=threshold)
            assert all(
                format_pattern(sp.pattern) != "rotate90()@all" for sp in rs.patterns
            )

    def test_inapplicable_elsewhere_is_not_contradicted(self):
        # scale_down applies to pair 1 and errors on pair 2: no contradiction,
        # support stays 1, so it survives only below unanimity.
        base = Grid.from_rows([[1, 2], [3, 4]])
        blown = apply_pattern(make_pattern("scale_up", factor=2), base)
        down = make_pattern("scale_down", factor=2)
        pair1 = (blown, base)
        odd = Grid.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        pair2 = (odd, odd)
        per_pair = [[_sp(down)], []]
        rs = intersect(per_pair, train_pairs([pair1, pair2]), threshold=0.5)
        assert [format_pattern(sp.pattern) for sp in rs.patterns] == [
            "scale_down(factor=2)@all"
        ]

    def test_partials_pruned_when_exact_exists(self):
        g = Grid.from_rows([[1, 2, 3], [4, 5, 6]])
        rot = make_pattern("rotate90")
        pairs = [(g, apply_pattern(rot, g))]
        partial = make_pattern("rotate270")
        per_pair = [[_sp(rot, exact=True), _sp(partial, exact=False)]]
        rs = intersect(per_pair, train_pairs(pairs))
        assert [format_pattern(sp.pattern) for sp in rs.patterns] == ["rotate90()@all"]

    def test_partials_survive_without_exacts(self):
        g = Grid.from_rows([[1, 2, 3], [4, 5, 6]])
        rot = make_pattern("rotate90")
        pairs = [(g, apply_pattern(rot, g))]
        partial = make_pattern("rotate270")
        per_pair = [[_sp(partial, exact=False)]]
        rs = intersect(per_pair, train_pairs(pairs))
        assert [sp.exact for sp in rs.patterns] == [False]

    def test_empty_input_is_a_contract_error(self):
        with pytest.raises(ValueError):
            intersect_patterns(CandidateTable(), {}, [])

    @pytest.mark.parametrize("threshold", [float("nan"), 1.5])
    def test_unreachable_threshold_keeps_nothing(self, threshold):
        # No support reaches such a threshold, so ``induce`` verifies
        # nothing and a direct call keeps nothing either; a float test of
        # the confidence kept rotate90 at NaN with support 1 of 2.
        g1 = Grid.from_rows([[1, 2], [3, 4]])
        g2 = Grid.from_rows([[5, 6], [7, 8]])
        rot = make_pattern("rotate90")
        pairs = tuple((g, apply_pattern(rot, g)) for g in (g1, g2))
        rs = intersect([[_sp(rot)], []], train_pairs(pairs), threshold=threshold)
        assert rs.patterns == ()
        task = Task(train=pairs, test=((g1, None),))
        assert induce(task, SearchProposer(), threshold) == rs

    @given(
        n_pairs=st.integers(1, 4),
        rows=st.lists(
            st.tuples(
                st.sampled_from(_TABLE_LINES),
                st.dictionaries(st.integers(0, 3), st.booleans(), min_size=1),
                st.sets(st.integers(0, 3)),
            ),
            max_size=6,
            unique_by=itemgetter(0),
        ),
        threshold=st.sampled_from([0.0, 1 / 3, 0.5, 2 / 3 - 1e-12, 2 / 3, 2 / 3 + 1e-12, 1.0]),
    )
    # Support 2 of 3 passes 2/3 + 1e-12 only through the test's 1e-9 slack.
    @example(n_pairs=3, rows=[("rotate90()@all", {0: True, 1: True}, set())], threshold=2 / 3 + 1e-12)
    @settings(max_examples=200, deadline=None)
    def test_record_matches_per_pair_oracle(self, n_pairs, rows, threshold):
        # A random verdict table: each row a candidate, its exact or
        # partial flag on some pairs, and the pairs where verification
        # missed it (pair indices from n_pairs on are dropped). The
        # per-candidate record (``missed`` by number) and the oracle's
        # per-pair lists (``missed`` by key) each get fresh TrainPairs.
        from oracles import dict_intersect_patterns

        grid_pairs = _pool_task()[:n_pairs]
        table = CandidateTable()
        flags = {}
        per_pair = [[] for _ in grid_pairs]
        ours, theirs = train_pairs(grid_pairs), train_pairs(grid_pairs)
        for line, drawn, missed in rows:
            by_pair = {k: exact for k, exact in drawn.items() if k < n_pairs}
            if not by_pair:
                continue
            pattern = parse_pattern(line)
            cid = table.number(pattern_key(pattern), pattern)
            flags[cid] = by_pair
            for k, exact in by_pair.items():
                per_pair[k].append(_sp(pattern, exact))
            for k in missed & set(range(n_pairs)):
                ours[k].missed.add(cid)
                theirs[k].missed.add(pattern_key(pattern))
        expected = dict_intersect_patterns(per_pair, theirs, threshold)
        assert intersect_patterns(table, flags, ours, threshold) == expected

    def test_monotone_in_threshold(self):
        rng = random.Random(19)
        pt = generate_planted_task(rng, kind="recolor")
        proposer = SearchProposer()
        per_pair = [
            detect(pair, proposer, 2000) for pair in pt.task.train
        ]
        pairs = list(pt.task.train)
        previous = None
        for threshold in (0.0, 0.34, 0.67, 1.0):
            rs = intersect(per_pair, train_pairs(pairs), threshold=threshold)
            keys = {format_pattern(sp.pattern) for sp in rs.patterns}
            if previous is not None:
                assert keys <= previous
            previous = keys

    def test_permutation_stability(self):
        rng = random.Random(29)
        pt = generate_planted_task(rng, kind="cavity_fill")
        proposer = SearchProposer()
        per_pair = [
            detect(pair, proposer, 2000) for pair in pt.task.train
        ]
        pairs = list(pt.task.train)
        rs = intersect(per_pair, train_pairs(pairs))
        order = [2, 0, 1]
        rs_shuffled = intersect(
            [per_pair[i] for i in order], train_pairs([pairs[i] for i in order])
        )
        assert rs == rs_shuffled

    def test_duplicates_within_a_pair_count_once(self):
        g = Grid.from_rows([[1, 2], [3, 4]])
        rot = make_pattern("rotate90")
        pairs = [(g, apply_pattern(rot, g))] * 2
        per_pair = [[_sp(rot), _sp(rot)], [_sp(rot)]]
        rs = intersect(per_pair, train_pairs(pairs))
        assert rs.patterns[0].support == 2


class TestVerifyOnce:
    """``induce`` shares one Scene per train input between detection and
    intersection, and verifies each candidate on each pair once."""

    def test_each_train_grid_segmented_at_most_once(self, segment_calls):
        rng = random.Random(1223)
        for kind in KIND_ORDER:
            task = generate_planted_task(rng, kind=kind).task
            train_grids = Counter(g for pair in task.train for g in pair)
            for connectivity in (4, 8):
                segment_calls.clear()
                induce(task, SearchProposer(), connectivity=connectivity)
                assert {c for _, c in segment_calls} <= {connectivity}
                assert Counter(g for g, _ in segment_calls) <= train_grids, kind

    def test_each_candidate_applied_once_per_train_input(self, apply_calls):
        rng = random.Random(1229)
        for kind in KIND_ORDER:
            task = generate_planted_task(rng, kind=kind).task
            inputs = Counter(gin for gin, _ in task.train)
            for connectivity in (4, 8):
                apply_calls.clear()
                induce(task, SearchProposer(), connectivity=connectivity)
                for (key, g), n in Counter(apply_calls).items():
                    assert n <= inputs[g], (kind, key)

    def test_later_pairs_apply_only_keys_kept_on_every_earlier_pair(self, apply_calls):
        # "Earlier" is earlier in verification order: smallest input first,
        # ties in pair order. A key applied there was kept on every pair
        # verified before and is proposed on every pair verified after: at
        # threshold 1.0 a key that some pair's list lacks can never reach
        # full support.
        rng = random.Random(1231)
        proposer = SearchProposer()
        pruned = 0
        reordered = 0
        for kind in KIND_ORDER:
            task = generate_planted_task(rng, kind=kind).task
            apply_calls.clear()
            kept = [
                {pattern_key(sp.pattern) for sp in detect(p, proposer, 2000)}
                for p in task.train
            ]
            unpruned = len(apply_calls)
            pairs = train_pairs(task.train)
            proposed = [set(collect_keys(p, proposer, 2000)) for p in pairs]
            order = sorted(range(len(task.train)), key=lambda k: _cells(task.train[k][0]))
            reordered += order != sorted(order)
            position = {}
            for i, k in enumerate(order):
                position.setdefault(task.train[k][0], i)
            apply_calls.clear()
            induce(task, proposer, threshold=1.0)
            for line, g in apply_calls:
                key = pattern_key(parse_pattern(line))
                i = position[g]
                assert all(key in kept[j] for j in order[:i]), (kind, key, order)
                assert all(key in proposed[j] for j in order[i + 1 :]), (kind, key, order)
            pruned += unpruned - len(apply_calls)
        assert pruned > 0
        assert reordered > 0

    def test_noise_task_applied_on_smallest_input_only(self, apply_calls):
        # The search proposes nothing for a noise pair, so the lines come
        # from a stub; none of them explains a noise pair even partially,
        # so each dies on the first pair verified: the smallest input. A
        # noise output is one row and one column larger than its input, so
        # the result-dims fact drops the other lines there unapplied: only
        # the kinds whose result dims depend on content are applied.
        proposer = _ListProposer(
            [
                "reflect_h()@all",
                "rotate90()@all",
                "crop_to_content()@all",
                "recolor(src=1,dst=5)@all",
                "scale_up(factor=2)@all",
                "tile_grid(rows=2,cols=1)@all",
                "select_largest()@all",
            ]
        )
        rng = random.Random(1237)
        not_first = 0
        for _ in range(5):
            task = generate_noise_task(rng)
            inputs = [gin for gin, _ in task.train]
            smallest = min(inputs, key=_cells)
            not_first += smallest != inputs[0]
            apply_calls.clear()
            rs = induce(task, proposer)
            assert rs.patterns == ()
            assert [line for line, _ in apply_calls] == [
                "crop_to_content()@all",
                "select_largest()@all",
            ]
            assert {g for _, g in apply_calls} == {smallest}
        assert not_first > 0


def _cells(g):
    return g.height * g.width


class TestLateBuilding:
    """Candidates travel as value keys; a UnitPattern is built only for a
    key that is verified."""

    def test_evaluate_builds_no_more_patterns_than_it_verifies(
        self, monkeypatch, apply_calls
    ):
        items = [
            (name, task)
            for name, task, _ in generate_suite(seed=1007, n_planted=100, n_noise=20)
        ]
        built = 0
        verified = 0
        post_init = UnitPattern.__post_init__
        detect_original = induction.detect_unit_patterns

        def counting_post_init(self):
            nonlocal built
            built += 1
            post_init(self)

        def counting_detect(pair, table, ids):
            nonlocal verified
            before = len(apply_calls)
            out = detect_original(pair, table, ids)
            verified += len(apply_calls) - before
            return out

        monkeypatch.setattr(UnitPattern, "__post_init__", counting_post_init)
        monkeypatch.setattr(induction, "detect_unit_patterns", counting_detect)
        evaluate(items)
        assert 0 < built <= verified


def _unpruned(task, proposer, threshold, budget):
    """The reference ``induce``: every pair verifies every candidate."""
    pairs = list(task.train)
    per_pair = [detect(p, proposer, budget) for p in pairs]
    return intersect(per_pair, train_pairs(pairs), threshold)


class _PerPairProposer:
    """Proposer stub yielding a fixed line list per pair input grid."""

    def __init__(self, lines_by_input):
        self.lines_by_input = lines_by_input

    def propose(self, pair, budget):
        return list(self.lines_by_input[pair.scene.grid])


def _pool_task():
    ins = [
        Grid.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]]),
        Grid.from_rows([[1, 1, 2], [0, 3, 0], [4, 0, 0]]),
        Grid.from_rows([[0, 2, 2], [0, 0, 3], [6, 0, 1]]),
        Grid.from_rows([[1, 2, 0], [0, 0, 3], [5, 0, 0]]),
    ]
    kinds = ["rotate90", "rotate90", "rotate90", "reflect_h"]
    return tuple((g, apply_pattern(make_pattern(k), g)) for g, k in zip(ins, kinds))


# Each line's verdict on the four _pool_task pairs: E exact, P partial,
# - not kept (applies but no closer, inapplicable, or malformed).
_POOL = {
    "rotate90()@all": "EEE-",
    "reflect_h()@all": "PPPE",
    "reflect_v()@all": "PPP-",
    "rotate180()@all": "---P",
    "recolor(src=1,dst=0)@all": "-P-P",
    "translate(dx=1,dy=0)@all": "--PP",
    "tile_grid(rows=2,cols=1)@all": "----",  # applies, wrong dims
    "scale_down(factor=2)@all": "----",  # inapplicable on 3x3
    "garbage(((": "----",  # malformed
}


class TestPruning:
    """``induce`` applies on pair k only the candidates whose support so far
    plus the later pairs that propose them can still reach the threshold;
    its rule set equals the unpruned reference."""

    @pytest.fixture(scope="class")
    def suite(self):
        return generate_suite(seed=1007, n_planted=100, n_noise=20)

    @pytest.fixture(scope="class")
    def suite_detections(self, suite):
        proposer = SearchProposer()
        return [
            (task, [detect(p, proposer, 2000) for p in task.train])
            for _, task, _ in suite
        ]

    # Every application inside induce: verification plus the intersection's
    # contradiction checks (none at 1.0). Before the candidates that a
    # pair's diff shows cannot be exact were held back it took 1,335, 2,806
    # and 7,845; before the color-count bound and the held-back partials,
    # 2,047, 4,218 and 9,730; verifying in pair order took 2,085 and 4,287
    # at 1.0 and 0.5; the unpruned verifier needs 4,189 and 7,424
    # verifications there. Before ``TrainPair.missed``, 3,554 at 0.0: the
    # contradiction check applied draw_bbox_border(color=8)@size_rank=0
    # again on a pair where verification had applied it and dropped it.
    @pytest.mark.parametrize("threshold, applies", [(1.0, 967), (0.5, 1588), (0.0, 3553)])
    def test_suite_apply_counts(self, suite, apply_calls, threshold, applies):
        apply_calls.clear()
        proposer = SearchProposer()
        for _, task, _ in suite:
            induce(task, proposer, threshold, 2000)
        assert len(apply_calls) == applies

    # Segmentations and pixel distances inside induce: each train grid is
    # segmented at most once, and a pair whose shapes match reads its
    # distance off its differing cells, while one whose shapes differ
    # computes it only when first verified. The search's same-dims branch,
    # which segments both grids of a pair, is skipped on the square pairs
    # of the four rotation tasks whose other pairs change dims, where too
    # few pairs keep their dims for its keys to reach the threshold: 6
    # pairs at 1.0 and 2 at 0.5. Before that: 397 and 410 segmentations.
    @pytest.mark.parametrize(
        "threshold, segments, distances", [(1.0, 385, 733), (0.5, 406, 1344), (0.0, 423, 3287)]
    )
    def test_suite_segment_and_distance_counts(
        self, suite, monkeypatch, segment_calls, threshold, segments, distances
    ):
        distance_calls = 0

        def counting(a, b):
            nonlocal distance_calls
            distance_calls += 1
            return pixel_distance(a, b)

        _rebind(monkeypatch, pixel_distance, counting)
        segment_calls.clear()
        proposer = SearchProposer()
        for _, task, _ in suite:
            induce(task, proposer, threshold, 2000)
        assert (len(segment_calls), distance_calls) == (segments, distances)

    # The replayed backend's lines (perfbench's backend_replay) at 1.0.
    # The result-dims fact drops the distractors rotate180 and
    # delete_object@color=3 unapplied on the shape-changing pairs, so that
    # delete_object no longer segments their inputs. Before it: 448
    # applications, 174 segmentations and 294 distances, for 100 rules.
    def test_replay_line_counts(self, suite, monkeypatch, apply_calls, segment_calls):
        distance_calls = 0

        def counting(a, b):
            nonlocal distance_calls
            distance_calls += 1
            return pixel_distance(a, b)

        _rebind(monkeypatch, pixel_distance, counting)
        apply_calls.clear()
        segment_calls.clear()
        rules = 0
        for _, task, planted in suite:
            rules += len(induce(task, _ListProposer(replay_lines(planted)), 1.0).patterns)
        counts = (len(apply_calls), len(segment_calls), distance_calls, rules)
        assert counts == (324, 124, 170, 100)

    # Each key's verdict is read once per pair it reaches in the first
    # round, and ``may_change`` only for keys whose class leaves them to
    # apply: a key checked twice, or a changed fact, shows as a count.
    @pytest.mark.parametrize(
        "threshold, may_change_calls, verdicts",
        [
            (1.0, 1089, {"drop": 331, "hold": 368, "apply": 765}),
            (0.5, 2215, {"drop": 714, "hold": 958, "apply": 1321}),
            (0.0, 6475, {"drop": 1187, "hold": 3341, "apply": 3210}),
        ],
    )
    def test_suite_verdict_counts(self, suite, monkeypatch, threshold, may_change_calls, verdicts):
        calls = Counter()
        may_change, verdict = induction.may_change, TrainPair.verdict

        def counting_may_change(*args):
            calls["may_change"] += 1
            return may_change(*args)

        def counting_verdict(self, key):
            answer = verdict(self, key)
            calls[answer] += 1
            return answer

        monkeypatch.setattr(induction, "may_change", counting_may_change)
        monkeypatch.setattr(TrainPair, "verdict", counting_verdict)
        proposer = SearchProposer()
        for _, task, _ in suite:
            induce(task, proposer, threshold, 2000)
        assert calls == Counter(verdicts, may_change=may_change_calls)

    def test_verification_runs_through_detect_unit_patterns(self, monkeypatch, apply_calls):
        # Every application happens inside detect_unit_patterns, on keys
        # it was given, or in the intersection's contradiction checks,
        # which run only below threshold 1.0 and apply a key only where
        # verification did not see it run; no key is applied twice to one
        # input. Every key here is verified on every pair, so the checks
        # apply nothing (before ``TrainPair.missed`` they applied the keys
        # verification had dropped again at 0.0).
        pairs = _pool_task()
        task = Task(train=pairs, test=((pairs[0][0], None),))
        proposer = _PerPairProposer({g: list(_POOL) for g, _ in pairs})
        verified = []
        checked = []
        detect_original = induction.detect_unit_patterns
        intersect_original = induction.intersect_patterns

        def recording_detect(pair, table, ids):
            before = len(apply_calls)
            out = detect_original(pair, table, ids)
            keys = {format_pattern(build_pattern(table.keys[c])) for c in ids}
            for line, g in apply_calls[before:]:
                assert line in keys and g == pair.scene.grid
            verified.extend(apply_calls[before:])
            return out

        def recording_intersect(*args):
            before = len(apply_calls)
            out = intersect_original(*args)
            checked.extend(apply_calls[before:])
            return out

        monkeypatch.setattr(induction, "detect_unit_patterns", recording_detect)
        monkeypatch.setattr(induction, "intersect_patterns", recording_intersect)
        for threshold in (1.0, 0.0):
            verified.clear()
            checked.clear()
            apply_calls.clear()
            induce(task, proposer, threshold=threshold, budget=len(_POOL))
            assert Counter(apply_calls) == Counter(verified) + Counter(checked)
            assert verified and max(Counter(apply_calls).values()) == 1
            assert not checked

    def test_key_missing_on_a_later_pair_is_never_applied(self, apply_calls):
        # rotate90 is exact on all three pairs but proposed on pairs 0 and 1
        # only, so its support is at most 2 of 3. (0.67 exceeds 2/3 and
        # would need all three pairs.)
        pairs = _pool_task()[:3]
        task = Task(train=pairs, test=((pairs[0][0], None),))
        lines = [["rotate90()@all"], ["rotate90()@all"], ["reflect_v()@all"]]
        proposer = _PerPairProposer({g: ls for (g, _), ls in zip(pairs, lines)})
        expected = _unpruned(task, proposer, 1.0, 2000)
        apply_calls.clear()
        assert induce(task, proposer, 1.0) == expected
        assert "rotate90()@all" not in {key for key, _ in apply_calls}
        apply_calls.clear()
        rs = induce(task, proposer, 2 / 3)
        # Verified on pairs 0 and 1, then checked on pair 2 by intersection.
        assert [g for key, g in apply_calls if key == "rotate90()@all"] == [
            g for g, _ in pairs
        ]
        assert [(format_pattern(sp.pattern), sp.support) for sp in rs.patterns] == [
            ("rotate90()@all", 2)
        ]

    @pytest.mark.parametrize("threshold", [1.0, 0.67, 0.5, 0.34, 0.0])
    def test_suite_matches_unpruned(self, suite_detections, threshold):
        proposer = SearchProposer()
        for task, per_pair in suite_detections:
            reference = intersect(per_pair, train_pairs(task.train), threshold)
            assert induce(task, proposer, threshold, 2000) == reference

    @pytest.mark.parametrize("threshold", [1.0, 0.5, 0.0])
    def test_suite_pair_permutations_match_unpruned(self, suite_detections, threshold):
        # The reachability bound holds in any verification order, so which
        # pair holds the smallest input never changes the rule set.
        proposer = SearchProposer()
        for task, per_pair in suite_detections:
            for order in itertools.permutations(range(len(task.train))):
                pairs = tuple(task.train[k] for k in order)
                reference = intersect(
                    [per_pair[k] for k in order], train_pairs(pairs), threshold
                )
                permuted = Task(train=pairs, test=task.test)
                assert induce(permuted, proposer, threshold, 2000) == reference, order

    def test_pool_verdicts(self):
        pairs = _pool_task()
        for line, verdicts in _POOL.items():
            for pair, verdict in zip(pairs, verdicts):
                proposer = _PerPairProposer({pair[0]: [line]})
                found = detect(pair, proposer, 1)
                assert ("-" if not found else "EP"[not found[0].exact]) == verdict, line

    @given(
        n_pairs=st.integers(1, 4),
        lists=st.lists(
            st.lists(st.sampled_from(list(_POOL)), max_size=8), min_size=4, max_size=4
        ),
        threshold=st.sampled_from([1.0, 0.67, 0.5, 0.34, 0.0]),
        budget=st.integers(1, 4),
    )
    # Pair 1 skips reflect_v (not kept on pair 0) yet spends its budget
    # of 1 on it, so rotate90 is never verified there and no rule survives.
    @example(
        n_pairs=2,
        lists=[["rotate90()@all"], ["reflect_v()@all", "rotate90()@all"], [], []],
        threshold=1.0,
        budget=1,
    )
    # rotate90, the only exact key, is proposed on pair 0 alone: its bound
    # of 1 pair in 2 just reaches 0.5, so it is verified there.
    @example(
        n_pairs=2,
        lists=[["rotate90()@all"], ["reflect_v()@all"], [], []],
        threshold=0.5,
        budget=1,
    )
    @settings(max_examples=300, deadline=None)
    def test_fake_proposer_matches_unpruned(self, n_pairs, lists, threshold, budget):
        pairs = _pool_task()[:n_pairs]
        task = Task(train=pairs, test=((pairs[0][0], None),))
        proposer = _PerPairProposer({g: lines for (g, _), lines in zip(pairs, lists)})
        expected = _unpruned(task, proposer, threshold, budget)
        assert induce(task, proposer, threshold, budget) == expected


# Lines of the kinds the diff test covers, and two it does not.
_FACT_LINES = [
    "recolor(src=1,dst=2)@all",
    "recolor(src=2,dst=0)@all",
    "delete_object()@color=1",
    "delete_object()@all",
    "cavity_fill(color=2)@all",
    "gravity_shift(dir=down)@color=1",
    "gravity_shift(dir=up)@all",
    "draw_bbox_border(color=2)@size_rank=0",
    "connect_objects(color=2)@all",
    "symmetry_complete(axis=h)@all",
    "reflect_h()@all",
    "rotate180()@all",
    "translate(dx=1,dy=0)@all",
    "crop_to_content()@all",
]


class TestPairScaling:
    """``induce``'s work per train pair stays flat up to the pair cap of
    ``parse_task``, in counts rather than time. Each dense 6x6 pair recolors
    one color of its own, so every pair has an exact rule that the others
    contradict, and at threshold 0.0 the intersection checks them all."""

    def test_counts_per_pair_stay_flat_up_to_the_cap(self, apply_calls, segment_calls):
        rng = random.Random(15)
        pairs = []
        for _ in range(MAX_PAIRS):
            gin = random_grid(rng, max_side=6, min_side=6)
            src, dst = rng.sample(range(10), 2)
            out = [[dst if v == src else v for v in row] for row in gin.rows]
            pairs.append((gin, Grid.from_rows(out)))
        per_pair = {}
        for n in (4, MAX_PAIRS):
            apply_calls.clear()
            segment_calls.clear()
            task = Task(train=tuple(pairs[:n]), test=((pairs[0][0], None),))
            induce(task, SearchProposer(), 0.0, 2000)
            assert len(segment_calls) == 2 * n
            per_pair[n] = len(apply_calls) / n
        # 38.75 applications per pair at 4 pairs and 40.7 at 32. A
        # contradiction check that applied each rule on every pair, not
        # stopping at its first miss, took 119.25 per pair at 32.
        assert per_pair[MAX_PAIRS] <= 1.1 * per_pair[4], per_pair


def _count_marked(monkeypatch):
    """Count, by kind, the keys ``TrainPair.verdict`` holds back as not exact
    while the test runs."""
    marked = Counter()
    original = TrainPair.verdict

    def counting(self, key):
        verdict = original(self, key)
        if verdict is induction._HOLD:
            marked[key[0]] += 1
        return verdict

    monkeypatch.setattr(TrainPair, "verdict", counting)
    return marked


def _perturbed_planted_suite():
    """The seed-1007 suite's planted tasks, each with one cell of one train
    output repainted another color (a fixed RNG picks pair, cell and
    color), so no pattern is exact on every pair."""
    rng = random.Random(0)
    tasks = []
    for _, task, _ in generate_suite(seed=1007, n_planted=100):
        train = list(task.train)
        k = rng.randrange(len(train))
        gin, gout = train[k]
        rows = [list(row) for row in gout.rows]
        r, c = rng.randrange(gout.height), rng.randrange(gout.width)
        rows[r][c] = (rows[r][c] + rng.randint(1, 9)) % 10
        train[k] = (gin, Grid.from_rows(rows))
        tasks.append(Task(train=tuple(train), test=task.test))
    return tasks


class TestExactFirst:
    """``induce`` holds back on later pairs a candidate kept as partial and
    verifies it there only when no exact rule survives. Its rule sets equal
    ``oracles.reference_induce``'s; it applies a subset of what the
    reference applies and, when no exact rule survives, exactly that
    minus the verifications the color-count bound and the result-dims
    fact skip and the contradiction checks that verification answered:
    the reference applies a pattern again on a pair where it applied it
    without error and dropped it, ``induce`` does not."""

    @pytest.fixture()
    def run(self, monkeypatch, apply_calls):
        """Run ``induce`` and the reference on one task; returns both rule
        sets and the multisets of applications."""
        import oracles

        verified = []
        reference_detect = oracles.reference_detect_unit_patterns

        def recording(pair, candidates):
            before = len(apply_calls)
            out = reference_detect(pair, candidates)
            verified.extend(apply_calls[before:])
            return out

        monkeypatch.setattr(oracles, "reference_detect_unit_patterns", recording)

        def run(task, proposer, threshold, budget=2000):
            verified.clear()
            apply_calls.clear()
            reference = oracles.reference_induce(task, proposer, threshold, budget)
            everything = Counter(apply_calls)
            apply_calls.clear()
            rs = induce(task, proposer, threshold, budget)
            return rs, reference, Counter(apply_calls), everything, Counter(verified)

        return run

    @staticmethod
    def _check(task, rs, reference, applied, everything, verified):
        assert rs == reference
        assert applied <= everything
        outputs = dict(task.train)
        assert len(outputs) == len(task.train)  # an application names its input only
        skipped = Counter(
            {
                a: n
                for a, n in verified.items()
                if _bound_skips(*a, outputs[a[1]]) or _dims_skips(*a, outputs[a[1]])
            }
        )
        answered = Counter(
            a for a in everything - verified if verified[a] and a not in skipped and _runs(*a)
        )
        if not any(sp.exact for sp in rs.patterns):
            assert everything - applied == skipped + answered
        return everything - applied - skipped - answered

    @pytest.mark.parametrize("threshold", [1.0, 0.67, 0.5, 0.34, 0.0])
    def test_suite_matches_reference(self, run, monkeypatch, threshold):
        # Both hold-backs run: candidates kept as partial, and candidates
        # the pair's diff marks as not exact.
        marked = _count_marked(monkeypatch)
        proposer = SearchProposer()
        held_back = 0
        for _, task, _ in generate_suite(seed=1007, n_planted=100, n_noise=20):
            held_back += sum(self._check(task, *run(task, proposer, threshold)).values())
        assert held_back > 0
        assert marked

    def test_partial_on_smallest_pair_with_an_exact_rule(self, run):
        # reflect_h is partial on pair 0, the first verified (the inputs tie
        # at 3x3), and is never applied again: rotate90 is exact on all.
        pairs = _pool_task()[:3]
        task = Task(train=pairs, test=((pairs[0][0], None),))
        proposer = _PerPairProposer({g: ["reflect_h()@all", "rotate90()@all"] for g, _ in pairs})
        rs, reference, applied, everything, verified = run(task, proposer, 1.0)
        self._check(task, rs, reference, applied, everything, verified)
        assert [(format_pattern(sp.pattern), sp.exact) for sp in rs.patterns] == [
            ("rotate90()@all", True)
        ]
        assert applied == Counter(
            [("reflect_h()@all", pairs[0][0])] + [("rotate90()@all", g) for g, _ in pairs]
        )

    def test_partial_on_smallest_pair_without_an_exact_rule(self, run):
        # No exact rule survives, so the held-back verifications of reflect_h
        # and reflect_v on pairs 1 and 2 run after all: both are partial
        # rules with full support.
        pairs = _pool_task()[:3]
        task = Task(train=pairs, test=((pairs[0][0], None),))
        lines = ["reflect_h()@all", "reflect_v()@all"]
        proposer = _PerPairProposer({g: lines for g, _ in pairs})
        rs, reference, applied, everything, verified = run(task, proposer, 1.0)
        self._check(task, rs, reference, applied, everything, verified)
        assert [(format_pattern(sp.pattern), sp.exact, sp.support) for sp in rs.patterns] == [
            ("reflect_h()@all", False, 3),
            ("reflect_v()@all", False, 3),
        ]
        assert applied == Counter((line, g) for g, _ in pairs for line in lines)

    def test_held_back_verification_keeps_the_reachability_bound(self, run):
        # translate is partial on the first pair, so it is held back; once
        # no exact rule survives it is verified on the second pair, where
        # it is not kept, and can then no longer reach 1.0 on the third.
        pool = _pool_task()
        pairs = (pool[3], pool[0], pool[2])
        task = Task(train=pairs, test=((pairs[0][0], None),))
        proposer = _PerPairProposer({g: ["translate(dx=1,dy=0)@all"] for g, _ in pairs})
        rs, reference, applied, everything, verified = run(task, proposer, 1.0)
        self._check(task, rs, reference, applied, everything, verified)
        assert rs.patterns == ()
        assert applied == Counter(("translate(dx=1,dy=0)@all", g) for g, _ in pairs[:2])

    @given(
        n_pairs=st.integers(1, 4),
        lists=st.lists(
            st.lists(st.sampled_from(list(_POOL)), max_size=8), min_size=4, max_size=4
        ),
        threshold=st.sampled_from([1.0, 0.67, 0.5, 0.34, 0.0]),
        budget=st.integers(1, 4),
    )
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_fake_proposer_matches_reference(self, run, n_pairs, lists, threshold, budget):
        pairs = _pool_task()[:n_pairs]
        task = Task(train=pairs, test=((pairs[0][0], None),))
        proposer = _PerPairProposer({g: lines for (g, _), lines in zip(pairs, lists)})
        self._check(task, *run(task, proposer, threshold, budget))

    @given(
        data=st.data(),
        planted=st.sampled_from(_FACT_LINES),
        threshold=st.sampled_from([1.0, 0.67, 0.5, 0.34, 0.0]),
    )
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_fact_pool_tasks_match_reference(self, run, data, planted, threshold):
        # Pool tasks whose pairs mostly follow one pattern of a kind the
        # diff test covers, some pairs with a cell recolored, and whose
        # per-pair lists draw on the same pool, so the test marks keys
        # on some pairs and not on others.
        pairs = []
        for _ in range(data.draw(st.integers(1, 4))):
            gin = data.draw(grids(max_side=5, colors=3))
            try:
                gout = apply_pattern(parse_pattern(planted), gin)
            except PatternApplicationError:
                gout = gin  # crop_to_content on a grid without content
            rows = [list(row) for row in gout.rows]
            if data.draw(st.booleans()):
                r, c = data.draw(st.integers(0, len(rows) - 1)), data.draw(st.integers(0, 9))
                rows[r][c % len(rows[r])] = data.draw(st.integers(0, 3))
            pairs.append((gin, Grid.from_rows(rows)))
        if len({gin for gin, _ in pairs}) != len(pairs):
            return  # the stub proposer looks lists up by input grid
        lists = [data.draw(st.lists(st.sampled_from(_FACT_LINES), max_size=8)) for _ in pairs]
        task = Task(train=tuple(pairs), test=((pairs[0][0], None),))
        proposer = _PerPairProposer({g: ls for (g, _), ls in zip(pairs, lists)})
        self._check(task, *run(task, proposer, threshold))

    # With 3 train pairs, ``_verify``'s integer bound must agree with the
    # float test ``m / 3 + 1e-9 >= threshold`` where it changes: 1/3 and
    # 2/3 need 1 and 2 pairs, a hair above them or below, as 1.0 needs 3.
    BOUNDARIES = [
        0.0,
        1 / 3 - 1e-12,
        1 / 3,
        1 / 3 + 1e-12,
        2 / 3 - 1e-12,
        2 / 3,
        2 / 3 + 1e-12,
        1.0 - 1e-12,
        1.0,
        1.0 + 1e-12,
    ]

    @pytest.mark.parametrize("threshold", [0.5, 0.0])
    def test_perturbed_suite_verifies_each_candidate_once(self, run, threshold):
        # No exact rule survives on any of these tasks, so every held-back
        # candidate is verified in the second round; none may be applied
        # to a train input more often than that input occurs.
        proposer = SearchProposer()
        for task in _perturbed_planted_suite():
            rs, reference, applied, _, _ = run(task, proposer, threshold)
            assert rs == reference
            assert not any(sp.exact for sp in rs.patterns)
            occurs = Counter(gin for gin, _ in task.train)
            assert all(n <= occurs[g] for (_, g), n in applied.items()), applied

    @pytest.mark.parametrize("threshold", BOUNDARIES)
    def test_threshold_boundaries_on_the_suite(self, run, threshold):
        proposer = SearchProposer()
        for _, task, _ in generate_suite(seed=1007, n_planted=100, n_noise=20):
            assert len(task.train) == 3
            self._check(task, *run(task, proposer, threshold))

    @pytest.mark.parametrize("threshold", BOUNDARIES)
    def test_threshold_boundaries_on_pool_lists(self, run, threshold):
        # Random subsets of the pool per pair give keys every support 0..3.
        rng = random.Random(67)
        pairs = _pool_task()[:3]
        task = Task(train=pairs, test=((pairs[0][0], None),))
        supports = Counter()
        for _ in range(40):
            lists = [rng.sample(list(_POOL), rng.randint(0, len(_POOL))) for _ in pairs]
            proposer = _PerPairProposer({g: ls for (g, _), ls in zip(pairs, lists)})
            rs, *rest = run(task, proposer, threshold)
            self._check(task, rs, *rest)
            supports.update(sp.support for sp in rs.patterns)
        # Every support the threshold admits shows up in some rule set.
        assert set(supports) == {m for m in (1, 2, 3) if m / 3 + 1e-9 >= threshold}

    @pytest.mark.parametrize("threshold", [1.5, 1.0 + 1e-8, float("nan")])
    def test_unreachable_thresholds(self, run, threshold):
        # No support reaches these (Config refuses them; induce does not):
        # nothing is verified and no rule survives, as in the reference.
        pairs = _pool_task()[:3]
        task = Task(train=pairs, test=((pairs[0][0], None),))
        proposer = _PerPairProposer({g: list(_POOL) for g, _ in pairs})
        rs, reference, applied, everything, verified = run(task, proposer, threshold)
        assert rs == reference
        assert rs.patterns == () and applied == everything == Counter()


class _MixedLineProposer:
    """Per pair: the search's keys as pattern lines, each followed by a
    repeat, some by the same key as another line (a leading space) and
    some by a malformed line, and then the replay transcript's distractor
    lines, which every pair repeats."""

    def propose(self, pair, budget):
        keys = SearchProposer().propose(pair, budget)
        lines = [format_pattern(build_pattern(key)) for key in keys]
        for i, line in enumerate(lines):
            yield line
            yield lines[i // 2]  # a repeat, of this very line while i < 2
            if i % 4 == 1:
                yield " " + line
            if i % 3 == 0:  # after a repeat: a budget cut at a repeat skips it
                yield "not a pattern line"
        yield from replay_lines(None)


class _OpenPair(TrainPair):
    """A TrainPair whose ``same_dims_reachable`` stays True, as every pair
    was before ``induce`` set it: the search's same-dims branch is open."""

    same_dims_reachable = property(lambda self: True, lambda self, value: None)


# The tasks of each suite whose train pairs mix kept and changed dims.
_MIXED_DIMS_TASKS = {1: 4, 2: 4, 3: 1, 1007: 4}


class TestCandidateTable:
    """``induce`` numbers each candidate once per task and verifies and
    intersects by number. The per-pair dict pipeline it replaced,
    ``oracles.dict_induce``, gives equal rule sets, the same applications
    in the same order and as many malformed-line warnings.

    On a task whose train pairs mix kept and changed dims, ``induce`` is
    also run with the search's same-dims branch held open (``_OpenPair``),
    at two unreachable thresholds besides: the rule sets and the ordered
    applications are the same, and only the warnings of the line proposer,
    which follow the search's keys, may be fewer with the branch closed."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 1007])
    def test_matches_dict_pipeline(self, seed, apply_calls, caplog, monkeypatch):
        from oracles import dict_induce

        caplog.set_level("WARNING", logger="symgrid.induction")
        suite = generate_suite(seed=seed, n_planted=100, n_noise=20)
        totals = Counter()
        mixed = set()
        for proposer in (SearchProposer(), _MixedLineProposer()):
            for task_id, task, _ in suite:
                mixes = len({gin.dims == gout.dims for gin, gout in task.train}) == 2
                thresholds = (1.0, 0.67, 0.5, 0.34, 0.0)
                if mixes:
                    mixed.add(task_id)
                    thresholds += (1.5, float("nan"))
                for threshold in thresholds:
                    rules = {}
                    for budget in (1, 3, 2000):
                        runs = []
                        for run in (dict_induce, induce):
                            apply_calls.clear()
                            caplog.clear()
                            rs = run(task, proposer, threshold, budget)
                            runs.append((rs, list(apply_calls), len(caplog.records)))
                        assert runs[1] == runs[0], (task, threshold, budget)
                        rs, applied, warned = runs[1]
                        if mixes:
                            apply_calls.clear()
                            caplog.clear()
                            with monkeypatch.context() as m:
                                m.setattr(induction, "TrainPair", _OpenPair)
                                opened = induce(task, proposer, threshold, budget)
                            assert (opened, apply_calls) == (rs, applied), (task, threshold)
                            assert len(caplog.records) >= warned
                            totals["gated"] += len(caplog.records) > warned
                        rules[budget] = rs
                        totals["applied"] += len(applied)
                        totals["warned"] += warned
                    totals["cut"] += rules[1] != rules[2000]
                    totals["rules"] += len(rules[2000].patterns)
        assert all(totals[k] for k in ("applied", "warned", "cut", "rules", "gated")), totals
        assert len(mixed) == _MIXED_DIMS_TASKS[seed]


class TestRank:
    def test_planted_pattern_is_rank_one(self):
        rng = random.Random(101)
        for kind in ("rotate90", "recolor", "cavity_fill", "translate", "delete_object"):
            pt = generate_planted_task(rng, kind=kind)
            rs = induce(pt.task, SearchProposer())
            assert rs.patterns, kind
            assert format_pattern(rs.patterns[0].pattern) == format_pattern(pt.pattern)


class TestHints:
    def test_rotate_hint(self):
        assert synthesize_hint(make_pattern("rotate90")) == (
            "rotate the grid 90 degrees clockwise"
        )

    def test_cavity_fill_hint(self):
        p = make_pattern("cavity_fill", color=2, selector=Selector("color", 4))
        assert synthesize_hint(p) == (
            "fill the cavities of the color-4 objects with color 2"
        )

    def test_empty_ruleset_empty_hints(self):
        rs = induce(generate_noise_task(random.Random(0)), SearchProposer())
        assert rs.patterns == ()
        assert rs.hints == ()

    def test_every_kind_has_a_template(self):
        from symgrid import KIND_ORDER

        color4, largest = Selector("color", 4), Selector("size_rank", 0)
        samples = {
            "reflect_h": ({}, "reflect the grid left-right"),
            "reflect_v": ({}, "reflect the grid top-bottom"),
            "rotate90": ({}, "rotate the grid 90 degrees clockwise"),
            "rotate180": ({}, "rotate the grid 180 degrees"),
            "rotate270": ({}, "rotate the grid 270 degrees clockwise"),
            "crop_to_content": ({}, "crop the grid to its content"),
            "symmetry_complete": (
                dict(axis="h"), "complete the grid symmetrically left-right"
            ),
            "scale_up": (dict(factor=2), "scale the grid up by factor 2"),
            "scale_down": (dict(factor=3), "scale the grid down by factor 3"),
            "tile_grid": (
                dict(rows=2, cols=1), "tile the grid 2 times down and 1 times across"
            ),
            "overlay_pairs": (
                dict(axis="v"), "overlay the two halves of the grid split top-bottom"
            ),
            "select_largest": ({}, "keep only the largest object, cropped to its box"),
            "select_smallest": ({}, "keep only the smallest object, cropped to its box"),
            "count_encode": (
                dict(color=1, selector=color4),
                "emit one color-1 cell per object among the color-4 objects",
            ),
            "recolor": (dict(src=1, dst=2), "replace color 1 with color 2"),
            "palette_swap": (
                dict(map=((1, 2), (2, 1))), "remap colors: 1 to 2, 2 to 1"
            ),
            "translate": (
                dict(dx=1, dy=-2, selector=largest),
                "move the largest object by 1 columns and -2 rows",
            ),
            "delete_object": (
                dict(selector=Selector("size_rank", 2)),
                "delete the rank-2 object by size",
            ),
            "duplicate_object": (
                dict(dx=0, dy=3, selector=Selector("cavities", 1)),
                "duplicate the objects with 1 cavities offset by 0 columns and 3 rows",
            ),
            "cavity_fill": (
                dict(color=3, selector=color4),
                "fill the cavities of the color-4 objects with color 3",
            ),
            "gravity_shift": (
                dict(dir="left", selector=largest),
                "slide the largest object leftward until blocked",
            ),
            "draw_bbox_border": (
                dict(color=3, selector=color4),
                "draw the bounding box of the color-4 objects in color 3",
            ),
            "connect_objects": (
                dict(color=5, selector=largest),
                "connect aligned pairs of the largest object with color 5",
            ),
        }
        assert tuple(samples) == KIND_ORDER
        for kind, (params, sentence) in samples.items():
            assert synthesize_hint(make_pattern(kind, **params)) == sentence, kind
        for direction in ("up", "down", "right"):
            p = make_pattern("gravity_shift", dir=direction)
            assert synthesize_hint(p) == (
                f"slide all the objects {direction}ward until blocked"
            )

    def test_hints_aligned_with_patterns(self):
        rng = random.Random(7)
        pt = generate_planted_task(rng, kind="rotate180")
        rs = induce(pt.task, SearchProposer())
        assert len(rs.hints) == len(rs.patterns)
        assert rs.hints == tuple(synthesize_hint(sp.pattern) for sp in rs.patterns)
