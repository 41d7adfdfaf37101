"""Fuzz guard: the entry points that read outside input refuse bad input
with a SymgridError and nothing else.

``parse_task``, ``parse_pattern``, ``load_config`` and ``decode_markdown``
each get a few hundred generated inputs, derandomized so that every run
tries the same ones. Half of each strategy is near-valid input (a task
with odd cells, a pattern line with a wrong value, a config with a wrong
type, a table with one bad cell), where the parsers' checks sit.
"""

import json
import string

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from symgrid import KIND_ORDER, SymgridError, decode_markdown, parse_pattern, parse_task
from symgrid.config import load_config

FUZZ = settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _refused_cleanly(parse, value):
    """Call ``parse``; a SymgridError is a clean refusal, any other
    exception fails the test."""
    try:
        parse(value)
    except SymgridError:
        pass


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=20,
)
_CELL = st.one_of(st.integers(-1, 11), _SCALARS)
_ROW = st.lists(_CELL, max_size=4)
_GRID = st.integers(1, 3).flatmap(
    lambda w: st.lists(st.lists(st.integers(0, 9), min_size=w, max_size=w), min_size=1, max_size=3)
)
_GRIDISH = st.one_of(_GRID, _GRID, st.lists(st.one_of(_ROW, _CELL), max_size=4), _JSON)
_PAIR = st.fixed_dictionaries(
    {"input": _GRIDISH, "output": _GRIDISH}, optional={"extra": _JSON}
)
_VALID_PAIR = st.fixed_dictionaries({"input": _GRID, "output": _GRID})
_ITEMS = st.one_of(
    st.lists(_VALID_PAIR, min_size=1, max_size=3),
    st.lists(st.one_of(_VALID_PAIR, _PAIR, _SCALARS), min_size=1, max_size=3),
    _JSON,
)
_TASK = st.fixed_dictionaries({"train": _ITEMS, "test": _ITEMS}, optional={"extra": _JSON})


def _documents(values):
    """JSON text of ``values`` (NaN and Infinity included, as
    ``json.dumps`` writes them), sometimes cut short or as bytes that
    are not all UTF-8."""
    whole = values.map(json.dumps)
    return st.one_of(
        whole,
        whole,
        whole,
        st.tuples(values.map(json.dumps), st.integers(0, 40)).map(lambda t: t[0][: t[1]]),
        st.binary(max_size=40),
        values.map(lambda v: json.dumps(v).encode() + b"\xff"),
    )


@given(_documents(st.one_of(_TASK, _JSON)))
@FUZZ
def test_parse_task(doc):
    _refused_cleanly(parse_task, doc)


_NAME = st.one_of(st.sampled_from(KIND_ORDER), st.text(string.ascii_lowercase + "_9", max_size=8))
_VALUE = st.one_of(
    st.integers(-12, 40).map(str),
    st.sampled_from(["h", "v", "up", "down", "left", "right", "", "x", "1:2;3:4", "1:2:3", "1;"]),
    st.text("0123456789:;-hvx", max_size=6),
)
_PARAM = st.tuples(st.sampled_from(["color", "src", "dst", "dx", "dy", "dir", "axis",
                                    "factor", "rows", "cols", "map", "q"]), _VALUE)
_SELECTOR = st.one_of(
    st.just("all"),
    st.tuples(st.sampled_from(["color", "size_rank", "cavities", "all", "zz"]),
              st.integers(-3, 12)).map(lambda t: f"{t[0]}={t[1]}"),
)
_LINE = st.builds(
    lambda kind, params, sel: f"{kind}({','.join(f'{n}={v}' for n, v in params)})@{sel}",
    _NAME,
    st.lists(_PARAM, max_size=3),
    _SELECTOR,
)


@given(st.one_of(_LINE, st.text(max_size=30), st.text("()@=,;:_-az019 ", max_size=30)))
@FUZZ
def test_parse_pattern(line):
    _refused_cleanly(parse_pattern, line)


_CONFIG_VALUE = st.one_of(
    _SCALARS,
    st.sampled_from([0, 1, 2, 4, 8, 2000, 0.5, 1.0, "search", "remote", "http://127.0.0.1:1/"]),
)
_CONFIG = st.dictionaries(
    st.sampled_from(["connectivity", "confidence_threshold", "search_budget", "passes",
                     "samples", "backend_url", "transcript_path", "timeout", "proposer",
                     "jobs", "seed"]),
    _CONFIG_VALUE,
    max_size=4,
)


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "config.json"


@given(doc=_documents(st.one_of(_CONFIG, _JSON)))
@FUZZ
def test_load_config(config_path, doc):
    if isinstance(doc, str):
        config_path.write_text(doc, encoding="utf-8")
    else:
        config_path.write_bytes(doc)
    _refused_cleanly(lambda path: load_config(str(path), {}), config_path)


_TABLE = st.lists(
    st.lists(st.sampled_from("0123456789"), min_size=1, max_size=4).map(
        lambda cells: "|" + "|".join(cells) + "|"
    ),
    min_size=1,
    max_size=4,
).map("\n".join)


@st.composite
def _tables(draw):
    """A table, valid or ragged, with one character sometimes replaced."""
    text = draw(_TABLE)
    if draw(st.booleans()):
        i = draw(st.integers(0, len(text) - 1))
        text = text[:i] + draw(st.sampled_from("x|\n ²٣-")) + text[i + 1 :]
    return text + draw(st.sampled_from(["", "\n", "\n\n", " "]))


@given(st.one_of(_tables(), st.text("|0123456789\n x", max_size=40), st.text(max_size=20)))
@FUZZ
def test_decode_markdown(text):
    _refused_cleanly(decode_markdown, text)
