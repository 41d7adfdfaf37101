"""Voting, rule execution, fallback logic, dataset evaluation."""

import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from symgrid import (
    Candidate,
    Grid,
    KIND_ORDER,
    RuleSet,
    Scene,
    ScoredPattern,
    SearchProposer,
    Task,
    apply_pattern,
    apply_ruleset,
    encode_markdown,
    evaluate,
    format_pattern,
    grids_equal,
    induce,
    make_pattern,
    solve_task,
)
from symgrid import BackendError, solver
from symgrid.backend import RemoteBackend
from symgrid.induction import synthesize_hint
from symgrid.solver import (
    SolveTrace,
    _vote,
    induce_with_fallback,
    render_report,
    report_summary,
)
from symgrid.taskgen import (
    generate_noise_task,
    generate_planted_task,
    generate_suite,
)
from conftest import grids, random_grid
from oracles import fraction_vote, vote_oracle


def _ruleset(*entries):
    patterns = tuple(
        ScoredPattern(pattern=p, support=s, confidence=c, exact=e)
        for p, s, c, e in entries
    )
    return RuleSet(
        patterns=patterns,
        hints=tuple(synthesize_hint(sp.pattern) for sp in patterns),
        connectivity=4,
    )


# Non-dyadic weights, an int, the smallest subnormal and a huge float: sums
# of these in floating point would round, so exactness shows.
_VOTE_WEIGHTS = (1.0, 1 / 3, 2 / 3, 0.5, 0.25, 0.1, 0.7, 3, 5e-324, 1e300)


@st.composite
def near_copy_candidates(draw):
    """2-7 copies of one grid, each with 0-3 cells repainted, as a sampled
    backend returns them: most rows are unanimous, and the rest hold one
    or two disputed cells, tied or not. Now and then a candidate of other
    dims joins, to be excluded or to win the dims vote."""
    h, w = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    base = [[draw(st.integers(0, 3)) for _ in range(w)] for _ in range(h)]
    cands = []
    for _ in range(draw(st.integers(2, 7))):
        rows = [row[:] for row in base]
        for _ in range(draw(st.integers(0, 3))):
            rows[draw(st.integers(0, h - 1))][draw(st.integers(0, w - 1))] = draw(
                st.integers(0, 3)
            )
        weight = draw(st.sampled_from(_VOTE_WEIGHTS))
        cands.append(Candidate(Grid.from_rows(rows), "rule_exec", weight))
    if draw(st.booleans()):
        other = [[draw(st.integers(0, 3))] * (w + 1) for _ in range(h)]
        at = draw(st.integers(0, len(cands)))
        weight = draw(st.sampled_from(_VOTE_WEIGHTS))
        cands.insert(at, Candidate(Grid.from_rows(other), "rule_exec", weight))
    return cands


@st.composite
def vote_candidates(draw):
    """1-8 candidates over up to three dimension pairs. Each candidate
    copies a per-dims base grid and repaints some cells from three
    colors, so unanimous cells and two- and three-way ties are common."""
    dims_pool = draw(
        st.lists(
            st.tuples(st.integers(1, 4), st.integers(1, 4)),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    bases = {
        (h, w): [[draw(st.integers(0, 2)) for _ in range(w)] for _ in range(h)]
        for h, w in dims_pool
    }
    cands = []
    for _ in range(draw(st.integers(1, 8))):
        h, w = draw(st.sampled_from(dims_pool))
        rows = [
            [
                bases[h, w][r][c] if draw(st.booleans()) else draw(st.integers(0, 2))
                for c in range(w)
            ]
            for r in range(h)
        ]
        weight = draw(st.sampled_from(_VOTE_WEIGHTS))
        cands.append(Candidate(Grid.from_rows(rows), "rule_exec", weight))
    return cands


class TestVote:
    def test_unanimity(self):
        g = Grid.from_rows([[1, 2], [3, 4]])
        cands = [Candidate(g, "rule_exec", 1.0) for _ in range(3)]
        assert _vote(cands)[0] == g

    def test_strict_majority(self):
        cands = [
            Candidate(Grid.from_rows([[1]]), "rule_exec", 1.0),
            Candidate(Grid.from_rows([[1]]), "rule_exec", 1.0),
            Candidate(Grid.from_rows([[2]]), "rule_exec", 1.0),
        ]
        assert _vote(cands)[0] == Grid.from_rows([[1]])

    def test_tie_goes_to_earliest_candidate(self):
        cands = [
            Candidate(Grid.from_rows([[2]]), "rule_exec", 1.0),
            Candidate(Grid.from_rows([[1]]), "rule_exec", 1.0),
        ]
        assert _vote(cands)[0] == Grid.from_rows([[2]])

    def test_weights_shift_the_majority(self):
        cands = [
            Candidate(Grid.from_rows([[1]]), "rule_exec", 0.4),
            Candidate(Grid.from_rows([[2]]), "remote_sample", 1.0),
        ]
        assert _vote(cands)[0] == Grid.from_rows([[2]])

    def test_mixed_dimensions_pre_vote(self):
        big = Grid.from_rows([[1, 1], [1, 1]])
        small = Grid.from_rows([[2]])
        cands = [
            Candidate(small, "rule_exec", 1.0),
            Candidate(big, "rule_exec", 0.8),
            Candidate(big, "rule_exec", 0.8),
        ]
        assert _vote(cands)[0] == big

    def test_mixed_dimension_tie_prefers_earliest(self):
        a = Grid.from_rows([[1]])
        b = Grid.from_rows([[2, 2]])
        cands = [
            Candidate(a, "rule_exec", 1.0),
            Candidate(b, "rule_exec", 1.0),
        ]
        assert _vote(cands)[0] == a

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError, match="no candidates"):
            _vote([])

    def test_against_histogram_oracle(self):
        rng = random.Random(41)
        for _ in range(200):
            n = rng.randint(1, 6)
            dims_pool = [(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(2)]
            cands = []
            for _ in range(n):
                h, w = rng.choice(dims_pool)
                rows = [[rng.randrange(4) for _ in range(w)] for _ in range(h)]
                weight = rng.choice([0.25, 0.5, 1.0, 2.0])
                cands.append(Candidate(Grid.from_rows(rows), "rule_exec", weight))
            want = vote_oracle([(c.grid.to_lists(), c.weight) for c in cands])
            assert _vote(cands)[0].to_lists() == want

    def test_weight_scale_invariance(self):
        rng = random.Random(43)
        for _ in range(50):
            n = rng.randint(1, 5)
            cands = [
                Candidate(
                    random_grid(rng, max_side=3, colors=3),
                    "rule_exec",
                    rng.choice([0.5, 1.0, 1.5]),
                )
                for _ in range(n)
            ]
            scaled = [
                Candidate(c.grid, c.source, c.weight * 4.0) for c in cands
            ]
            assert _vote(cands)[0] == _vote(scaled)[0]

    @given(vote_candidates())
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_vote(self, cands):
        assert _vote(cands) == fraction_vote(cands)

    @given(near_copy_candidates())
    @settings(max_examples=300, deadline=None)
    def test_near_copies_match_fraction_vote(self, cands):
        # Unanimous rows are taken whole; the disputed ones cell by cell.
        assert _vote(cands) == fraction_vote(cands)

    def test_three_way_tie_counted(self):
        cands = [
            Candidate(Grid.from_rows([[c, 5]]), "rule_exec", 1 / 3) for c in (3, 1, 2)
        ]
        assert _vote(cands) == (Grid.from_rows([[3, 5]]), 1, 0)

    def test_sums_are_exact(self):
        # In floats 1e300 + 5e-324 == 1e300, which would make this a tie.
        cands = [
            Candidate(Grid.from_rows([[1]]), "rule_exec", 1e300),
            Candidate(Grid.from_rows([[2]]), "rule_exec", 1e300),
            Candidate(Grid.from_rows([[2]]), "rule_exec", 5e-324),
            Candidate(Grid.from_rows([[1, 1]]), "rule_exec", 1e300),
        ]
        assert _vote(cands) == (Grid.from_rows([[2]]), 0, 1)

    def test_lone_candidate_returned_as_is(self):
        rng = random.Random(47)
        for _ in range(50):
            cand = Candidate(
                random_grid(rng, max_side=5, colors=4), "rule_exec", rng.choice([0.25, 1.0, 3.0])
            )
            assert _vote([cand]) == fraction_vote([cand]) == (cand.grid, 0, 0)
            assert _vote([cand])[0] is cand.grid
            assert cand.grid.to_lists() == vote_oracle([(cand.grid.to_lists(), cand.weight)])

    def test_lone_candidate_left_by_the_dims_pre_vote(self):
        lone = Grid.from_rows([[1, 2, 3], [4, 5, 6]])
        cands = [
            Candidate(Grid.from_rows([[7]]), "rule_exec", 0.5),
            Candidate(lone, "rule_exec", 2.0),
            Candidate(Grid.from_rows([[8]]), "remote_sample", 1.0),
            Candidate(Grid.from_rows([[9, 9], [9, 9]]), "remote_sample", 1.0),
        ]
        grid, ties, excluded = _vote(cands)
        assert grid is lone and (ties, excluded) == (0, 3)
        assert (grid, ties, excluded) == fraction_vote(cands)
        assert grid.to_lists() == vote_oracle([(c.grid.to_lists(), c.weight) for c in cands])

    def test_lone_survivors_match_the_references(self):
        # Random candidate lists in which one grid alone holds the winning
        # dims, by weight or by a tie settled in its favour.
        rng = random.Random(59)
        seen = 0
        for _ in range(400):
            cands = [
                Candidate(
                    random_grid(rng, max_side=3, colors=3),
                    "rule_exec",
                    rng.choice([0.25, 0.5, 1.0, 2.0]),
                )
                for _ in range(rng.randint(1, 5))
            ]
            want = fraction_vote(cands)
            if want[2] != len(cands) - 1:
                continue
            seen += 1
            grid, ties, excluded = _vote(cands)
            assert (grid, ties, excluded) == want
            assert any(grid is c.grid for c in cands)
            assert grid.to_lists() == vote_oracle(
                [(c.grid.to_lists(), c.weight) for c in cands]
            )
        assert seen >= 100

    def test_candidate_contract(self):
        g = Grid.from_rows([[1]])
        for weight in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                Candidate(g, "rule_exec", weight)
        with pytest.raises(ValueError):
            Candidate(g, "mystery", 1.0)


class TestApplyRuleset:
    def test_single_rotation(self):
        rs = _ruleset((make_pattern("rotate90"), 3, 1.0, True))
        g = Grid.from_rows([[1, 2], [3, 4]])
        cands = apply_ruleset(rs, g)
        assert len(cands) == 1
        assert cands[0].grid == apply_pattern(make_pattern("rotate90"), g)
        assert cands[0].weight == 1.0
        assert cands[0].source == "rule_exec"

    def test_empty_ruleset(self):
        rs = RuleSet(patterns=(), hints=(), connectivity=4)
        assert apply_ruleset(rs, Grid.from_rows([[1]])) == []

    def test_bounds_failure_skipped_with_trace_note(self):
        # A 16x16 input makes scale_up(2) exceed the 30-cell side limit.
        rs = _ruleset(
            (make_pattern("scale_up", factor=2), 3, 1.0, True),
            (make_pattern("reflect_h"), 3, 1.0, True),
        )
        g = Grid.from_rows([[(r + c) % 10 for c in range(16)] for r in range(16)])
        trace = SolveTrace()
        cands = apply_ruleset(rs, g, trace=trace)
        assert len(cands) == 1
        assert cands[0].grid == apply_pattern(make_pattern("reflect_h"), g)
        assert len(trace.skipped_patterns) == 1
        assert "scale_up" in trace.skipped_patterns[0]


class TestSolveTask:
    def test_planted_rotation(self):
        rng = random.Random(53)
        pt = generate_planted_task(rng, kind="rotate90")
        rs = induce(pt.task, SearchProposer())
        preds = solve_task(pt.task, rs, passes=1)
        test_input, expected = pt.task.test[0]
        assert grids_equal(preds[0].attempts[0], expected)
        assert preds[0].trace.candidate_count >= 1

    def test_identity_fallback_on_empty_ruleset(self):
        rng = random.Random(59)
        task = generate_noise_task(rng)
        rs = induce(task, SearchProposer())
        assert rs.patterns == ()
        preds = solve_task(task, rs, passes=1)
        test_input, _ = task.test[0]
        assert preds[0].attempts == (test_input,)
        assert preds[0].trace.identity_fallback

    def test_empty_ruleset_two_passes_no_backend_single_attempt(self):
        rng = random.Random(61)
        task = generate_noise_task(rng)
        rs = induce(task, SearchProposer())
        preds = solve_task(task, rs, passes=2)
        assert len(preds[0].attempts) == 1

    def test_majority_supported_pattern_below_unanimity(self):
        # Hand-built 3-pair fixture: scale_down(2) explains pairs 1 and 2
        # and cannot apply to pair 3 (odd dimensions), so with threshold
        # 0.5 it survives at confidence 2/3 and drives the prediction.
        base1 = Grid.from_rows([[1, 2], [3, 4]])
        base2 = Grid.from_rows([[5, 6], [7, 8]])
        up = make_pattern("scale_up", factor=2)
        odd = Grid.from_rows([[1, 0, 2], [0, 0, 0], [3, 0, 4]])
        task = Task(
            train=(
                (apply_pattern(up, base1), base1),
                (apply_pattern(up, base2), base2),
                (odd, odd),
            ),
            test=((apply_pattern(up, Grid.from_rows([[9, 1], [2, 0]])), None),),
        )
        rs = induce(task, SearchProposer(), threshold=0.5)
        keys = [str(sp.confidence) for sp in rs.patterns]
        assert any(
            sp.pattern.kind == "scale_down" and abs(sp.confidence - 2 / 3) < 1e-9
            for sp in rs.patterns
        ), keys
        preds = solve_task(task, rs, passes=1)
        # Hand-computed: the only candidate is scale_down on the test input.
        assert preds[0].attempts[0] == Grid.from_rows([[9, 1], [2, 0]])

    def test_second_attempt_is_top_rule_when_vote_differs(self):
        # Two rules agree against the top rule at the only cell, so the
        # vote disagrees with the top rule and both attempts are emitted.
        rs = _ruleset(
            (make_pattern("recolor", src=1, dst=2), 3, 1.0, True),
            (make_pattern("recolor", src=1, dst=3), 3, 1.0, True),
            (make_pattern("palette_swap", map=((1, 3),)), 3, 1.0, True),
        )
        task = Task(
            train=((Grid.from_rows([[1]]), Grid.from_rows([[2]])),),
            test=((Grid.from_rows([[1]]), None),),
        )
        preds = solve_task(task, rs, passes=2)
        assert preds[0].attempts == (
            Grid.from_rows([[3]]),
            Grid.from_rows([[2]]),
        )
        assert preds[0].trace.fallback_source == "top_rule"

    def test_single_attempt_when_top_rule_equals_vote(self):
        rs = _ruleset((make_pattern("rotate90"), 3, 1.0, True))
        task = Task(
            train=((Grid.from_rows([[1, 2]]), Grid.from_rows([[1], [2]])),),
            test=((Grid.from_rows([[3, 4]]), None),),
        )
        preds = solve_task(task, rs, passes=2)
        assert len(preds[0].attempts) == 1

    def test_passes_validated(self):
        task = Task(
            train=((Grid.from_rows([[1]]), Grid.from_rows([[1]])),),
            test=((Grid.from_rows([[1]]), None),),
        )
        with pytest.raises(ValueError):
            solve_task(task, RuleSet((), (), 4), passes=3)

    def test_deterministic(self):
        rng = random.Random(67)
        pt = generate_planted_task(rng, kind="gravity_shift")
        rs = induce(pt.task, SearchProposer())
        a = solve_task(pt.task, rs, passes=2)
        b = solve_task(pt.task, rs, passes=2)
        assert [p.attempts for p in a] == [p.attempts for p in b]


class TestEvaluate:
    def test_planted_dataset_is_fully_solved(self):
        suite = generate_suite(seed=11, n_planted=10)
        items = [(tid, task) for tid, task, _ in suite]
        report = evaluate(items, passes=1)
        assert report.scored == 10
        assert report.correct == 10
        assert report.accuracy == 1.0

    def test_wrong_expected_output_scores_zero(self):
        rng = random.Random(71)
        pt = generate_planted_task(rng, kind="rotate90")
        (tin, texp) = pt.task.test[0]
        sabotaged_rows = texp.to_lists()
        sabotaged_rows[0][0] = (sabotaged_rows[0][0] + 1) % 10
        bad_task = Task(
            train=pt.task.train, test=((tin, Grid.from_rows(sabotaged_rows)),)
        )
        report = evaluate([("bad", bad_task)], passes=1)
        assert report.correct == 0
        assert report.accuracy == 0.0

    def test_missing_expected_counts_as_skipped(self):
        rng = random.Random(73)
        pt = generate_planted_task(rng, kind="reflect_h")
        stripped = Task(train=pt.task.train, test=((pt.task.test[0][0], None),))
        report = evaluate([("blind", stripped)], passes=1)
        assert report.skipped == 1
        assert report.scored == 0
        assert report.accuracy == 0.0

    def test_duplicate_task_ids_each_scored(self):
        rng = random.Random(79)
        planted = generate_planted_task(rng, kind="rotate90").task
        noise = generate_noise_task(rng)
        for items in ([("a", planted), ("a", noise)], [("a", noise), ("a", planted)]):
            report = evaluate(items, passes=1)
            assert (report.correct, report.scored) == (1, 2)
            assert [i.correct for i in report.items] == [t is planted for _, t in items]

    def test_report_rendering(self):
        suite = generate_suite(seed=17, n_planted=2, n_noise=1)
        items = [(tid, task) for tid, task, _ in suite]
        report = evaluate(items, passes=1)
        text = render_report(report)
        assert "accuracy: 2/3" in text
        summary = report_summary(report)
        assert summary["correct"] == 2
        assert len(summary["items"]) == 3


def _two_test_task(rng, kind):
    """A planted task of ``kind`` with a second test pair, taken from
    another planted task of that kind."""
    task = generate_planted_task(rng, kind=kind).task
    other = generate_planted_task(rng, kind=kind).task
    return Task(train=task.train, test=task.test + other.test)


class TestPerceptionCount:
    def test_each_test_input_segmented_at_most_once(self, segment_calls):
        rng = random.Random(1217)
        tasks = [_two_test_task(rng, k) for k in KIND_ORDER]
        for task in tasks:
            rs = induce(task, SearchProposer())
            segment_calls.clear()
            solve_task(task, rs, passes=2)
            grids = Counter(g for g, _ in segment_calls)
            assert grids <= Counter(g for g, _ in task.test)

    def test_rules_share_one_segmentation(self, segment_calls):
        # Three rules that need the perception and one that needs only the
        # background, all on one test input.
        rs = _ruleset(
            (make_pattern("delete_object"), 1, 1.0, True),
            (make_pattern("gravity_shift", dir="down"), 1, 1.0, True),
            (make_pattern("cavity_fill", color=4), 1, 1.0, True),
            (make_pattern("crop_to_content"), 1, 1.0, True),
        )
        g = Grid.from_rows([[0, 3, 0], [0, 0, 0], [5, 0, 0]])
        task = Task(train=((g, g),), test=((g, None),))
        solve_task(task, rs, passes=2)
        assert segment_calls == [(g, 4)]


class TestApplyCount:
    def test_each_rule_applied_once_per_test_input(self, apply_calls):
        rng = random.Random(1249)
        for kind in KIND_ORDER:
            task = _two_test_task(rng, kind)
            rs = induce(task, SearchProposer())
            apply_calls.clear()
            solve_task(task, rs, passes=2)
            expected = Counter(
                (format_pattern(sp.pattern), g)
                for g, _ in task.test
                for sp in rs.patterns
            )
            assert Counter(apply_calls) == expected, kind

    def test_second_attempt_reuses_the_first_rule_that_applied(self, apply_calls):
        # scale_up(2) cannot apply to a 16x16 input; the next rule is the
        # top rule, and the other two outvote it.
        rs = _ruleset(
            (make_pattern("scale_up", factor=2), 3, 1.0, True),
            (make_pattern("recolor", src=1, dst=2), 3, 1.0, True),
            (make_pattern("recolor", src=1, dst=3), 3, 1.0, True),
            (make_pattern("palette_swap", map=((1, 3),)), 3, 1.0, True),
        )
        g = Grid.from_rows([[1] * 16 for _ in range(16)])
        task = Task(train=((g, g),), test=((g, None),))
        preds = solve_task(task, rs, passes=2)
        assert preds[0].attempts == (
            Grid.from_rows([[3] * 16 for _ in range(16)]),
            Grid.from_rows([[2] * 16 for _ in range(16)]),
        )
        assert preds[0].trace.fallback_source == "top_rule"
        assert sorted(key for key, _ in apply_calls) == sorted(
            format_pattern(sp.pattern) for sp in rs.patterns
        )


# Per pair: the two cells of one color that touch only at a corner, and
# the lone cell of another color.
_CORNER_LAYOUTS = (
    (((0, 0), (1, 1)), (3, 3)),
    (((1, 2), (2, 3)), (3, 0)),
    (((2, 0), (3, 1)), (0, 3)),
    (((2, 2), (3, 1)), (0, 0)),
)


def _corner_task(colors):
    """Three 4x4 train pairs and one test pair. Each input holds two cells
    that touch only at a corner, one object at connectivity 8 and two at
    4, and a lone cell; the output deletes the corner pair. ``colors``
    gives each pair's (corner pair, lone cell) colors."""
    pairs = []
    for (corner, lone), (cells, (r, c)) in zip(colors, _CORNER_LAYOUTS):
        gin = [[0] * 4 for _ in range(4)]
        gout = [[0] * 4 for _ in range(4)]
        for cr, cc in cells:
            gin[cr][cc] = corner
        gin[r][c] = gout[r][c] = lone
        pairs.append((Grid.from_rows(gin), Grid.from_rows(gout)))
    return Task(train=tuple(pairs[:3]), test=(pairs[3],))


class _FailingProposer:
    def propose(self, pair, budget):
        raise BackendError("backend down")


class TestInducedConnectivity:
    """A rule set runs on the test input at the connectivity its rules were
    verified at, which only ``induce`` is given."""

    def test_solve_answers_at_the_induced_connectivity(self):
        # The colors vary per pair, so only the size rules survive, and at
        # connectivity 4 the largest object is one cell of the corner pair.
        task = _corner_task(((1, 2), (2, 1), (1, 3), (3, 1)))
        rs = induce(task, SearchProposer(), connectivity=8)
        assert [format_pattern(sp.pattern) for sp in rs.patterns] == [
            "delete_object()@size_rank=0",
            "draw_bbox_border(color=0)@size_rank=0",
        ]
        preds = solve_task(task, rs, passes=1)
        assert preds[0].attempts[0] == task.test[0][1]

    def test_apply_ruleset_perceives_a_grid_at_the_rules_connectivity(self):
        task = _corner_task(((1, 2),) * 4)
        rs = induce(task, SearchProposer(), connectivity=8)
        assert len(rs.patterns) == 6
        bare = task.test[0][0]
        cands = apply_ruleset(rs, bare)
        assert [c.grid for c in cands] == [
            apply_pattern(sp.pattern, Scene(bare, 8)) for sp in rs.patterns
        ]

    @pytest.mark.parametrize("connectivity", (4, 8))
    def test_rule_set_carries_the_connectivity_given_to_induce(self, connectivity):
        task = _corner_task(((1, 2),) * 4)
        rs = induce(task, SearchProposer(), connectivity=connectivity)
        assert rs.connectivity == connectivity
        # The search fallback after a failed backend induces at it too.
        rs, note = induce_with_fallback(task, _FailingProposer(), connectivity=connectivity)
        assert note == "backend induction failed: backend down"
        assert rs.connectivity == connectivity


class TestMarkdownCount:
    def test_each_grid_encoded_once_per_task(self, tmp_path, monkeypatch):
        # Two noise test inputs: no rules, empty samples, then the remote
        # fallback, so each test input reaches the backend twice.
        rng = random.Random(1301)
        noise = generate_noise_task(rng)
        task = Task(train=noise.train, test=noise.test + generate_noise_task(rng).test)
        train_md = [
            {"input": encode_markdown(a), "output": encode_markdown(b)}
            for a, b in task.train
        ]
        lines = []
        for test_input, expected in task.test:
            request = {
                "mode": "sample",
                "train": train_md,
                "test_input": encode_markdown(test_input),
                "hints": [],
            }
            lines.append({"request": {**request, "samples": 2}, "response": {"grids": []}})
            lines.append(
                {
                    "request": {**request, "samples": 1},
                    "response": {"grids": [encode_markdown(expected)]},
                }
            )
        transcript = tmp_path / "t.jsonl"
        transcript.write_text("".join(json.dumps(line) + "\n" for line in lines))
        backend = RemoteBackend(transcript_path=str(transcript))
        rs = induce(task, SearchProposer())
        assert rs.patterns == ()

        encoded = []
        original = solver.encode_markdown

        def counting(g):
            encoded.append(g)
            return original(g)

        monkeypatch.setattr(solver, "encode_markdown", counting)
        preds = solve_task(task, rs, backend=backend, passes=2, samples=2)
        assert [p.trace.fallback_source for p in preds] == ["remote", "remote"]
        assert not any(p.trace.degraded for p in preds)
        assert len(encoded) == 2 * len(task.train) + len(task.test)


class _StubSampler:
    """A backend whose ``sample`` answers each test input (as markdown)
    with ``replies[input]``, or raises it when it is an exception."""

    def __init__(self, replies):
        self.replies = replies

    def sample(self, train, test_input, hints, n):
        reply = self.replies[test_input]
        if isinstance(reply, Exception):
            raise reply
        return reply


def _near_miss(g):
    """``g`` with its first cell recolored."""
    rows = [list(row) for row in g.rows]
    rows[0][0] = (rows[0][0] + 1) % 10
    return Grid.from_rows(rows)


def _replies(gin, expected):
    """Sample replies to the test input ``gin``, by name, as markdown: k
    agreeing wrong grids, grids of other dimensions, malformed grids, no
    grid, and a failed call."""
    wrong = gin if gin != expected else _near_miss(gin)
    replies = {}
    for k in (1, 2, 5):
        replies[f"{k}_wrong_inputs"] = [encode_markdown(wrong)] * k
        replies[f"{k}_near_misses"] = [encode_markdown(_near_miss(expected))] * k
    other = Grid.from_rows([[1, 1]] if expected.dims == (1, 1) else [[1]])
    replies["other_dims"] = [encode_markdown(other)] * 5
    replies["malformed"] = ["|x|", "", "no table", "|1|2|\n|3|"]
    replies["empty"] = []
    replies["error"] = BackendError("response missing 'grids' list")
    return replies


_REPLY_NAMES = sorted(_replies(Grid.from_rows([[0]]), Grid.from_rows([[1]])))


def _correct(task, rs, backend):
    """Per test item of ``task``, whether ``solve_task`` at passes=2 gets it."""
    preds = solve_task(task, rs, backend=backend, passes=2)
    return [
        any(grids_equal(a, expected) for a in pred.attempts)
        for pred, (_, expected) in zip(preds, task.test)
    ]


class TestNoHarm:
    """The paper's no-harm claim on the backend path: at passes=2, no
    sample reply turns an item that is correct without the backend into
    an incorrect one. Attempt 2 falls back to the top rule, which agreeing
    wrong samples cannot outvote. (At passes=1 they can: two agreeing
    wrong samples outweigh a lone rule of confidence 1.0.)"""

    @pytest.fixture(scope="class")
    def solved(self):
        """Each suite task, its rule set and its items' verdicts without
        the backend."""
        out = []
        for _, task, _ in generate_suite(seed=1007, n_planted=100, n_noise=20):
            rs = induce(task, SearchProposer())
            out.append((task, rs, _correct(task, rs, None)))
        return out

    @pytest.mark.parametrize("reply", _REPLY_NAMES)
    def test_suite_replies_do_no_harm(self, solved, reply):
        kept = 0
        for task, rs, alone in solved:
            replies = {
                encode_markdown(gin): _replies(gin, expected)[reply]
                for gin, expected in task.test
            }
            with_backend = _correct(task, rs, _StubSampler(replies))
            assert all(b for a, b in zip(alone, with_backend) if a)
            kept += sum(alone)
        assert kept == 100  # the planted tasks, each with one test item

    @given(data=st.data())
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    def test_drawn_replies_do_no_harm(self, solved, data):
        task, rs, alone = data.draw(st.sampled_from([s for s in solved if any(s[2])]))
        replies = {}
        for gin, expected in task.test:
            grid = st.one_of(
                grids(max_side=8),
                st.just(gin),
                st.just(_near_miss(expected)),
                st.just(Grid.from_rows([row[::-1] for row in expected.rows])),
            )
            text = st.one_of(
                grid.map(encode_markdown), st.text("|0123456789\n x", max_size=20)
            )
            replies[encode_markdown(gin)] = data.draw(st.lists(text, max_size=8))
        with_backend = _correct(task, rs, _StubSampler(replies))
        assert all(b for a, b in zip(alone, with_backend) if a)
