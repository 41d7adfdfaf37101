"""Generator guarantees: closure membership, noise unsolvability, determinism."""

import random

import pytest

from symgrid import (
    KIND_ORDER,
    SearchProposer,
    apply_pattern,
    grids_equal,
    induce,
)
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

    def test_suite_covers_kinds_round_robin(self):
        suite = generate_suite(seed=10, n_planted=23)
        kinds = [p.kind for _, _, p in suite if p is not None]
        assert sorted(kinds) == sorted(KIND_ORDER)
