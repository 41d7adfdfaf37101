import random
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest

from symgrid import (
    Grid,
    Scene,
    ScoredPattern,
    TrainPair,
    format_pattern,
    pattern_key,
    patterns,
    perception,
)
from symgrid.induction import (
    CandidateTable,
    collect_candidates,
    detect_unit_patterns,
    intersect_patterns,
)


@st.composite
def grids(draw, max_side=12, colors=10):
    h = draw(st.integers(min_value=1, max_value=max_side))
    w = draw(st.integers(min_value=1, max_value=max_side))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, colors - 1), min_size=w, max_size=w),
            min_size=h,
            max_size=h,
        )
    )
    return Grid.from_rows(rows)


def random_grid(rng: random.Random, max_side=30, colors=10, min_side=1) -> Grid:
    h = rng.randint(min_side, max_side)
    w = rng.randint(min_side, max_side)
    return Grid.from_rows(
        [[rng.randrange(colors) for _ in range(w)] for _ in range(h)]
    )


# The benchmark's replay transcript (perfbench/workloads.py) gives every
# propose reply these lines besides a planted task's own line.
sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import DISTRACTORS  # noqa: E402


def replay_lines(planted):
    """A replayed propose reply for a task planted with ``planted`` (None
    for a noise task)."""
    return ([format_pattern(planted)] if planted is not None else []) + list(
        DISTRACTORS
    )


def scored(table, found):
    """``detect_unit_patterns``' verdicts on candidates of ``table`` as
    ScoredPatterns of support 1, in verification order."""
    return [ScoredPattern(table.pattern(c), 1, 1.0, exact) for c, exact in found.items()]


def detect(pair, proposer, budget, connectivity=4):
    """One pair's verified candidates: ``collect_candidates`` then
    ``detect_unit_patterns``, sharing one TrainPair over the grid pair and
    one fresh CandidateTable."""
    gin, gout = pair
    pair = TrainPair(Scene(gin, connectivity), gout)
    table = CandidateTable()
    ids = collect_candidates(pair, proposer, budget, table)
    return scored(table, detect_unit_patterns(pair, table, ids))


def collect_keys(pair, proposer, budget):
    """The value keys of one TrainPair's candidates, as ``collect_candidates``
    numbers them in a fresh CandidateTable."""
    table = CandidateTable()
    return [table.keys[c] for c in collect_candidates(pair, proposer, budget, table)]


def intersect(per_pair, pairs, threshold=1.0):
    """``intersect_patterns`` over per-pair ScoredPattern lists: each
    distinct pattern is numbered once in a fresh CandidateTable, and a
    pair's first flag for it is its verdict there, in the candidate's
    record of verdicts by pair index."""
    table = CandidateTable()
    flags = {}
    for k, detections in enumerate(per_pair):
        for sp in detections:
            cid = table.number(pattern_key(sp.pattern), sp.pattern)
            flags.setdefault(cid, {}).setdefault(k, sp.exact)
    return intersect_patterns(table, flags, pairs, threshold)


def train_pairs(pairs, connectivity=4):
    """A TrainPair over each (input grid, output grid) pair."""
    return [TrainPair(Scene(gin, connectivity), gout) for gin, gout in pairs]


def _rebind(monkeypatch, original, replacement):
    """Point every symgrid module attribute bound to ``original`` at
    ``replacement`` for the duration of the test."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "symgrid" or name.startswith("symgrid.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)


@pytest.fixture()
def segment_calls(monkeypatch):
    """Count segmentations: every binding of ``segment`` records
    ``(grid, connectivity)`` before delegating. Returns the list of
    records."""
    original = perception.segment
    calls = []

    def counting(g, connectivity=4):
        calls.append((g, connectivity))
        return original(g, connectivity)

    _rebind(monkeypatch, original, counting)
    return calls


@pytest.fixture()
def apply_calls(monkeypatch):
    """Count pattern applications: every binding of ``apply_pattern``
    records ``(format_pattern(p), grid)`` before delegating, with a Scene
    argument recorded as its grid. Returns the list of records."""
    original = patterns.apply_pattern
    calls = []

    def counting(p, g):
        calls.append((format_pattern(p), g.grid if isinstance(g, Scene) else g))
        return original(p, g)

    _rebind(monkeypatch, original, counting)
    return calls
