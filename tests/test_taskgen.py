"""Generator guarantees: closure membership, noise unsolvability, determinism."""

import hashlib
import random

import pytest

from symgrid import (
    KIND_ORDER,
    Grid,
    SearchProposer,
    Selector,
    SymgridError,
    Task,
    apply_pattern,
    enumerate_candidates,
    format_pattern,
    grids_equal,
    induce,
    make_pattern,
    serialize_task,
)
from symgrid import taskgen
from symgrid.taskgen import (
    generate_noise_task,
    generate_planted_task,
    generate_suite,
)


class TestPlanted:
    @pytest.mark.parametrize("kind", KIND_ORDER)
    def test_pattern_explains_every_pair(self, kind):
        rng = random.Random(sum(map(ord, kind)))
        pt = generate_planted_task(rng, kind=kind)
        for gin, gout in pt.task.train + pt.task.test:
            assert gout is not None
            assert grids_equal(apply_pattern(pt.pattern, gin), gout)
            assert not grids_equal(gin, gout), "planted pair must not be identity"

    def test_planters_follow_the_taxonomy(self):
        # A kind missing here would only show as a KeyError inside generate_suite.
        assert tuple(taskgen._PLANTERS) == KIND_ORDER

    def test_requested_kind_respected(self):
        rng = random.Random(1)
        pt = generate_planted_task(rng, kind="tile_grid")
        assert pt.pattern.kind == "tile_grid"

    def test_deterministic_given_seed(self):
        a = generate_planted_task(random.Random(5), kind="translate")
        b = generate_planted_task(random.Random(5), kind="translate")
        assert a == b


class TestNoise:
    def test_noise_induces_nothing(self):
        rng = random.Random(2)
        proposer = SearchProposer()
        for _ in range(10):
            task = generate_noise_task(rng)
            rs = induce(task, proposer)
            assert rs.patterns == ()

    def test_noise_expected_differs_from_input(self):
        rng = random.Random(3)
        for _ in range(10):
            task = generate_noise_task(rng)
            for gin, gout in task.test:
                assert gout is not None
                assert not grids_equal(gin, gout)

    def test_output_dims_break_every_ratio(self):
        rng = random.Random(4)
        for _ in range(20):
            task = generate_noise_task(rng)
            for gin, gout in task.train:
                assert gout.dims == (gin.height + 1, gin.width + 1)


class TestSuite:
    def test_suite_shape_and_determinism(self):
        a = generate_suite(seed=9, n_planted=8, n_noise=3)
        b = generate_suite(seed=9, n_planted=8, n_noise=3)
        assert a == b
        ids = [tid for tid, _, _ in a]
        assert len(ids) == len(set(ids)) == 11
        assert sum(1 for _, _, p in a if p is None) == 3

    def test_bench_suite_is_pinned(self):
        # The benchmark's task set: any change to a planter, a sampler or
        # a rejection rule that alters one draw changes this digest.
        digest = hashlib.sha256()
        for tid, task, planted in generate_suite(1007, 100, 20):
            digest.update(tid.encode("utf-8"))
            digest.update(serialize_task(task))
            digest.update((format_pattern(planted) if planted else "-").encode("utf-8"))
        assert digest.hexdigest() == (
            "cecea7f2b36d4f350429538d127d1e0372911654f43616574664063b15a7e2e0"
        )

    def test_suite_covers_kinds_round_robin(self):
        suite = generate_suite(seed=10, n_planted=23)
        kinds = [p.kind for _, _, p in suite if p is not None]
        assert sorted(kinds) == sorted(KIND_ORDER)


def _in_closure_reference(task, budget=2000):
    """Closure membership by its per-pair definition: each train pair gets
    its own unpruned search, and the patterns exact on every pair must
    reproduce every test output they apply to."""
    per_pair = [
        {
            format_pattern(sp.pattern): sp.pattern
            for sp in enumerate_candidates(pair, budget)
            if sp.exact
        }
        for pair in task.train
    ]
    common = set(per_pair[0]).intersection(*per_pair[1:])
    for key in sorted(common):
        for test_input, expected in task.test:
            try:
                result = apply_pattern(per_pair[0][key], test_input)
            except SymgridError:
                continue
            if not grids_equal(result, expected):
                return False
    return True


class TestClosure:
    def test_matches_per_pair_reference_on_suite_draws(self, monkeypatch):
        # Every draw the generator checks, kept or rejected, plus the noise.
        drawn = []
        original = taskgen._in_closure

        def recording(task, budget=2000):
            drawn.append(task)
            return original(task, budget)

        monkeypatch.setattr(taskgen, "_in_closure", recording)
        suite = generate_suite(seed=1007, n_planted=100, n_noise=20)
        tasks = drawn + [task for _, task, planted in suite if planted is None]
        verdicts = [original(task) for task in tasks]
        assert verdicts == [_in_closure_reference(task) for task in tasks]
        assert set(verdicts) == {True, False}

    def test_ambiguous_selector_rejected(self):
        # Train inputs hold only color-1 objects, so translate@all and
        # translate@color=1 are both exact on every pair; the test input
        # adds a color-3 object that only one of them moves.
        planted = make_pattern("translate", dx=1, dy=0, selector=Selector("color", 1))
        inputs = [
            Grid.from_rows([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]),
            Grid.from_rows([[0, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 0]]),
            Grid.from_rows([[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]),
        ]
        test_input = Grid.from_rows([[1, 0, 0, 0], [0, 0, 0, 0], [0, 3, 0, 0]])
        task = Task(
            train=tuple((g, apply_pattern(planted, g)) for g in inputs),
            test=((test_input, apply_pattern(planted, test_input)),),
        )
        assert _in_closure_reference(task) is False
        assert taskgen._in_closure(task) is False
