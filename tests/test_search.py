"""Candidate enumeration: planted recovery, canonicalization, soundness."""

import hashlib
import random
from collections import Counter

import pytest

from symgrid import (
    Grid,
    KIND_ORDER,
    Scene,
    SearchProposer,
    Task,
    TrainPair,
    apply_pattern,
    build_pattern,
    enumerate_candidates,
    format_pattern,
    grids_equal,
    induce,
    make_pattern,
    pattern_key,
    search,
)
from symgrid.taskgen import generate_planted_task, generate_suite

from conftest import detect


class TestEnumerate:
    def test_planted_rotation_recovered_exact(self):
        g = Grid.from_rows([[1, 2, 3], [4, 5, 6]])
        pair = (g, apply_pattern(make_pattern("rotate90"), g))
        cands = enumerate_candidates(pair, budget=2000)
        keys = {format_pattern(fp.pattern): fp.exact for fp in cands}
        assert keys.get("rotate90()@all") is True

    def test_identical_pair_has_no_identity_parameterizations(self):
        g = Grid.from_rows([[0, 1], [2, 3]])
        cands = enumerate_candidates((g, g), budget=2000)
        for fp in cands:
            key = format_pattern(fp.pattern)
            assert "translate(dx=0,dy=0)" not in key
            assert "tile_grid(rows=1,cols=1)" not in key
            # Whatever is returned must act as the identity here.
            assert grids_equal(apply_pattern(fp.pattern, g), g)

    def test_budget_is_respected(self):
        rng = random.Random(2)
        pt = generate_planted_task(rng, kind="recolor")
        pair = pt.task.train[0]
        few = enumerate_candidates(pair, budget=3)
        assert len(few) <= 3

    def test_budget_must_be_positive(self):
        g = Grid.from_rows([[1]])
        with pytest.raises(ValueError):
            enumerate_candidates((g, g), budget=0)

    def test_exact_flag_soundness(self):
        # Every exact-flagged candidate must reproduce the output; every
        # partial must strictly reduce the pixel distance.
        rng = random.Random(31)
        from conftest import random_grid
        from symgrid import pixel_distance

        for _ in range(80):
            gin = random_grid(rng, max_side=8, colors=4)
            gout = random_grid(rng, max_side=8, colors=4)
            baseline = pixel_distance(gin, gout)
            for fp in enumerate_candidates((gin, gout), budget=500):
                result = apply_pattern(fp.pattern, gin)
                if fp.exact:
                    assert grids_equal(result, gout)
                else:
                    assert pixel_distance(result, gout) < baseline

    def test_deterministic_order(self):
        rng = random.Random(4)
        pt = generate_planted_task(rng, kind="translate")
        pair = pt.task.train[0]
        a = [format_pattern(fp.pattern) for fp in enumerate_candidates(pair, 2000)]
        b = [format_pattern(fp.pattern) for fp in enumerate_candidates(pair, 2000)]
        assert a == b

    @pytest.mark.parametrize("kind", KIND_ORDER)
    def test_planted_kind_recovered(self, kind):
        rng = random.Random(hash(kind) % 10000)
        pt = generate_planted_task(rng, kind=kind)
        want = format_pattern(pt.pattern)
        for pair in pt.task.train:
            cands = enumerate_candidates(pair, budget=2000)
            flags = {
                format_pattern(fp.pattern): fp.exact
                for fp in cands
            }
            assert flags.get(want) is True, f"{want} not recovered on a pair"

    def test_plant_and_recover_rate(self):
        # 200 planted pairs; the planted pattern must come back flagged
        # exact in at least 95% of them.
        rng = random.Random(77)
        hits = 0
        n = 200
        for i in range(n):
            pt = generate_planted_task(rng, kind=KIND_ORDER[i % len(KIND_ORDER)])
            want = format_pattern(pt.pattern)
            cands = enumerate_candidates(pt.task.train[0], budget=2000)
            if any(format_pattern(fp.pattern) == want and fp.exact for fp in cands):
                hits += 1
        assert hits >= 0.95 * n


class TestPerceptionCount:
    def test_each_pair_grid_segmented_at_most_once(self, segment_calls):
        rng = random.Random(1213)
        for kind in KIND_ORDER:
            task = generate_planted_task(rng, kind=kind).task
            for connectivity in (4, 8):
                for pair in task.train:
                    segment_calls.clear()
                    detect(pair, SearchProposer(), 2000, connectivity)
                    assert {c for _, c in segment_calls} <= {connectivity}
                    grids = Counter(g for g, _ in segment_calls)
                    assert grids <= Counter(pair), kind

    def test_input_not_segmented_unless_its_objects_are_read(self, segment_calls):
        # A pair that changes dims, with an output taller than one row,
        # gets only whole-grid kinds proposed: no branch reads its objects.
        g = Grid.from_rows([[1, 0], [0, 2]])
        out = apply_pattern(make_pattern("scale_up", factor=2), g)
        segment_calls.clear()
        keys = list(SearchProposer().propose(TrainPair(Scene(g), out), 2000))
        assert ("scale_up", (2,), ("all", None)) in keys
        assert segment_calls == []

    def test_same_dims_branch_skipped_when_too_few_pairs_keep_dims(
        self, monkeypatch, segment_calls
    ):
        # rotate90 on two 2x3 inputs and one 3x3 input: only the square
        # pair keeps its dims, so at 1.0 (3 of 3 pairs needed) and 0.5
        # (2 of 3) no key of the same-dims branch can become a rule, and
        # the search skips it there; at 0.0 it runs as on any pair.
        matches = []
        match_objects = search.match_objects

        def counting(pin, pout):
            matches.append((pin, pout))
            return match_objects(pin, pout)

        monkeypatch.setattr(search, "match_objects", counting)
        rotate = make_pattern("rotate90")
        inputs = [
            Grid.from_rows([[1, 2, 0], [0, 3, 0]]),
            Grid.from_rows([[0, 4, 4], [5, 0, 0]]),
            Grid.from_rows([[1, 0, 0], [1, 0, 2], [1, 1, 0]]),
        ]
        train = tuple((g, apply_pattern(rotate, g)) for g in inputs)
        square_out = train[2][1]
        task = Task(train=train, test=((inputs[0], None),))
        for threshold, branch in ((1.0, False), (0.5, False), (0.0, True)):
            segment_calls.clear()
            matches.clear()
            rules = induce(task, SearchProposer(), threshold)
            assert format_pattern(rules.patterns[0].pattern) == "rotate90()@all"
            assert ((square_out, 4) in segment_calls) is branch, threshold
            assert len(matches) == branch, threshold
        # A pair built outside ``induce`` keeps the branch open.
        segment_calls.clear()
        matches.clear()
        enumerate_candidates(train[2], 2000)
        assert (square_out, 4) in segment_calls
        assert len(matches) == 1


class TestValueKeys:
    def test_every_key_on_the_bench_suite_builds(self):
        # Keys are built only when verified, so a key that named no valid
        # pattern could hide; on the bench suite every key builds, and in
        # the canonical form ``pattern_key`` gives. The digest pins the
        # whole key stream, in order, at both connectivities: a change to
        # the proposal scans that adds, drops or reorders a key changes it.
        suite = generate_suite(seed=1007, n_planted=100, n_noise=20)
        proposer = SearchProposer()
        digest = hashlib.sha256()
        keys = 0
        for connectivity in (4, 8):
            for _, task, _ in suite:
                for gin, gout in task.train:
                    pair = TrainPair(Scene(gin, connectivity), gout)
                    for key in proposer.propose(pair, 2000):
                        assert pattern_key(build_pattern(key)) == key
                        digest.update(repr(key).encode("utf-8") + b"\n")
                        keys += 1
        assert keys == 19104
        assert digest.hexdigest() == (
            "47db52465fcebfade47b301ac5ee2a626eff8b7ff020ec1397fd8d40d60c757c"
        )
