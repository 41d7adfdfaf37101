"""Change tagging, per-pair detection, cross-pair intersection, hints."""

import random
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from symgrid import (
    KIND_ORDER,
    Grid,
    ScoredPattern,
    SearchProposer,
    Selector,
    Task,
    UnitPattern,
    apply_pattern,
    collect_candidates,
    detect_unit_patterns,
    evaluate,
    format_pattern,
    grids_equal,
    induce,
    intersect_patterns,
    make_pattern,
    match_objects,
    parse_pattern,
    pattern_key,
    segment,
)
from symgrid import induction
from symgrid.induction import synthesize_hint
from symgrid.taskgen import generate_noise_task, generate_planted_task, generate_suite
from conftest import detect


def scene(rows):
    return segment(Grid.from_rows(rows))


class TestMatchObjects:
    def test_identical_scenes_all_retained(self):
        g = Grid.from_rows([[1, 0, 2], [0, 0, 0], [3, 0, 0]])
        tags = match_objects(segment(g), segment(g))
        assert [(t.tag, t.input_id, t.output_id) for t in tags] == [
            ("retained", 0, 0),
            ("retained", 1, 1),
            ("retained", 2, 2),
        ]

    def test_deleted_object_tagged_removed(self):
        pin = scene([[1, 0, 2], [0, 0, 0]])
        pout = scene([[1, 0, 0], [0, 0, 0]])
        tags = match_objects(pin, pout)
        by_tag = {}
        for t in tags:
            by_tag.setdefault(t.tag, []).append(t)
        assert len(by_tag["retained"]) == 1
        assert len(by_tag["removed"]) == 1
        assert by_tag["removed"][0].input_id == 1
        assert "added" not in by_tag

    def test_translation_matched_by_shape(self):
        pin = scene([[4, 4, 0, 0], [0, 0, 0, 0]])
        pout = scene([[0, 0, 4, 4], [0, 0, 0, 0]])
        tags = match_objects(pin, pout)
        assert [t.tag for t in tags] == ["retained"]

    def test_recolored_object_matched_by_shape(self):
        pin = scene([[4, 4], [0, 0]])
        pout = scene([[6, 6], [0, 0]])
        tags = match_objects(pin, pout)
        assert [t.tag for t in tags] == ["retained"]

    def test_added_object(self):
        pin = scene([[1, 0, 0], [0, 0, 0]])
        pout = scene([[1, 0, 0], [0, 0, 7]])
        tags = match_objects(pin, pout)
        assert sorted(t.tag for t in tags) == ["added", "retained"]

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
                tags = match_objects(pin, segment(out))
                removed = [t for t in tags if t.tag == "removed"]
                assert [t.input_id for t in removed] == [victim.id]
                assert not [t for t in tags if t.tag == "added"]
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
                tags = match_objects(pin, segment(out))
                assert all(t.tag == "retained" for t in tags)
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
                tags = match_objects(pin, segment(Grid.from_rows(rows)))
                added = [t for t in tags if t.tag == "added"]
                assert len(added) == 1
                assert not [t for t in tags if t.tag == "removed"]


class TestChangeTagInvariants:
    def test_ref_rules(self):
        from symgrid import ChangeTag

        with pytest.raises(ValueError):
            ChangeTag("added", input_id=1, output_id=2)
        with pytest.raises(ValueError):
            ChangeTag("removed", output_id=2, input_id=None)
        with pytest.raises(ValueError):
            ChangeTag("retained", input_id=1)


class _ListProposer:
    """Proposer stub yielding a fixed list of pattern lines."""

    def __init__(self, items):
        self.items = items

    def propose(self, scene, output, budget):
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


def _sp(pattern, exact=True):
    return ScoredPattern(pattern=pattern, support=1, confidence=1.0, exact=exact)


class TestIntersect:
    def test_unanimous_pattern(self):
        g1 = Grid.from_rows([[1, 2], [3, 4]])
        g2 = Grid.from_rows([[5, 6], [7, 8]])
        g3 = Grid.from_rows([[2, 0], [0, 9]])
        rot = make_pattern("rotate90")
        pairs = [(g, apply_pattern(rot, g)) for g in (g1, g2, g3)]
        per_pair = [[_sp(rot)] for _ in pairs]
        rs = intersect_patterns(per_pair, pairs)
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
        rs_strict = intersect_patterns(per_pair, pairs, threshold=1.0)
        assert rs_strict.patterns == ()
        rs_loose = intersect_patterns(per_pair, pairs, threshold=0.6)
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
            rs = intersect_patterns(per_pair, [pair1, pair2], threshold=threshold)
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
        rs = intersect_patterns(per_pair, [pair1, pair2], threshold=0.5)
        assert [format_pattern(sp.pattern) for sp in rs.patterns] == [
            "scale_down(factor=2)@all"
        ]

    def test_partials_pruned_when_exact_exists(self):
        g = Grid.from_rows([[1, 2, 3], [4, 5, 6]])
        rot = make_pattern("rotate90")
        pairs = [(g, apply_pattern(rot, g))]
        partial = make_pattern("rotate270")
        per_pair = [[_sp(rot, exact=True), _sp(partial, exact=False)]]
        rs = intersect_patterns(per_pair, pairs)
        assert [format_pattern(sp.pattern) for sp in rs.patterns] == ["rotate90()@all"]

    def test_partials_survive_without_exacts(self):
        g = Grid.from_rows([[1, 2, 3], [4, 5, 6]])
        rot = make_pattern("rotate90")
        pairs = [(g, apply_pattern(rot, g))]
        partial = make_pattern("rotate270")
        per_pair = [[_sp(partial, exact=False)]]
        rs = intersect_patterns(per_pair, pairs)
        assert [sp.exact for sp in rs.patterns] == [False]

    def test_empty_input_is_a_contract_error(self):
        with pytest.raises(ValueError):
            intersect_patterns([], [])

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
            rs = intersect_patterns(per_pair, pairs, threshold=threshold)
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
        rs = intersect_patterns(per_pair, pairs)
        order = [2, 0, 1]
        rs_shuffled = intersect_patterns(
            [per_pair[i] for i in order], [pairs[i] for i in order]
        )
        assert rs == rs_shuffled

    def test_duplicates_within_a_pair_count_once(self):
        g = Grid.from_rows([[1, 2], [3, 4]])
        rot = make_pattern("rotate90")
        pairs = [(g, apply_pattern(rot, g))] * 2
        per_pair = [[_sp(rot), _sp(rot)], [_sp(rot)]]
        rs = intersect_patterns(per_pair, pairs)
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
        # ...and proposed on every later pair: at threshold 1.0 a key that
        # some pair's list lacks can never reach full support.
        rng = random.Random(1231)
        proposer = SearchProposer()
        pruned = 0
        for kind in KIND_ORDER:
            task = generate_planted_task(rng, kind=kind).task
            apply_calls.clear()
            kept = [
                {pattern_key(sp.pattern) for sp in detect(p, proposer, 2000)}
                for p in task.train
            ]
            unpruned = len(apply_calls)
            proposed = [set(collect_candidates(p, proposer, 2000)) for p in task.train]
            first_pair = {}
            for k, (gin, _) in enumerate(task.train):
                first_pair.setdefault(gin, k)
            apply_calls.clear()
            induce(task, proposer, threshold=1.0)
            for line, g in apply_calls:
                key = pattern_key(parse_pattern(line))
                k = first_pair[g]
                assert all(key in kept[j] for j in range(k)), (kind, key, k)
                assert all(key in p for p in proposed[k + 1 :]), (kind, key, k)
            pruned += unpruned - len(apply_calls)
        assert pruned > 0

    def test_noise_task_applied_on_pair_zero_only(self, apply_calls):
        # The search proposes nothing for a noise pair, so the lines come
        # from a stub; none of them explains a noise pair even partially.
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
        for _ in range(5):
            task = generate_noise_task(rng)
            apply_calls.clear()
            rs = induce(task, proposer)
            assert rs.patterns == ()
            assert len(apply_calls) == len(proposer.items)
            assert {g for _, g in apply_calls} == {task.train[0][0]}


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

        def counting_detect(pair, candidates, connectivity=4):
            nonlocal verified
            before = len(apply_calls)
            out = detect_original(pair, candidates, connectivity)
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
    return intersect_patterns(per_pair, pairs, threshold)


class _PerPairProposer:
    """Proposer stub yielding a fixed line list per pair input grid."""

    def __init__(self, lines_by_input):
        self.lines_by_input = lines_by_input

    def propose(self, scene, output, budget):
        return list(self.lines_by_input[scene.grid])


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
    # contradiction checks (none at 1.0, 3 at 0.5, 15 at 0.0). The unpruned
    # verifier needs 4,189 and 7,424 verifications at 1.0 and 0.5.
    @pytest.mark.parametrize("threshold, applies", [(1.0, 2085), (0.5, 4287), (0.0, 9730)])
    def test_suite_apply_counts(self, suite, apply_calls, threshold, applies):
        apply_calls.clear()
        proposer = SearchProposer()
        for _, task, _ in suite:
            induce(task, proposer, threshold, 2000)
        assert len(apply_calls) == applies

    def test_verification_runs_through_detect_unit_patterns(self, monkeypatch, apply_calls):
        pairs = _pool_task()
        task = Task(train=pairs, test=((pairs[0][0], None),))
        proposer = _PerPairProposer({g: list(_POOL) for g, _ in pairs})
        verified = []

        def recording(pair, candidates, connectivity=4):
            verified.append(list(candidates))
            return detect_unit_patterns(pair, candidates, connectivity)

        monkeypatch.setattr(induction, "detect_unit_patterns", recording)
        apply_calls.clear()
        induce(task, proposer, threshold=0.0, budget=len(_POOL))
        assert len(verified) == len(pairs)
        keys = [key for keys in verified for key in keys]
        # Intersection's contradiction checks come after every verification.
        applied = [pattern_key(parse_pattern(line)) for line, _ in apply_calls[: len(keys)]]
        assert applied == keys

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
            reference = intersect_patterns(per_pair, list(task.train), threshold)
            assert induce(task, proposer, threshold, 2000) == reference

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
