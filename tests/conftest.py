import random
import sys

import hypothesis.strategies as st
import pytest

from symgrid import Grid, perception


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


@pytest.fixture()
def segment_calls(monkeypatch):
    """Count segmentations: every symgrid module attribute bound to
    ``segment`` is replaced by a wrapper that records ``(grid,
    connectivity)`` before delegating. Returns the list of records."""
    original = perception.segment
    calls = []

    def counting(g, connectivity=4):
        calls.append((g, connectivity))
        return original(g, connectivity)

    for name, module in list(sys.modules.items()):
        if module is None or not (name == "symgrid" or name.startswith("symgrid.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counting)
    return calls
