"""Fuzz guard: the entry points that read outside input refuse bad input
with a SymgridError and nothing else.

``parse_task``, ``parse_pattern``, ``load_config`` and ``decode_markdown``
each get a few hundred generated inputs, derandomized so that every run
tries the same ones. Half of each strategy is near-valid input (a task
with odd cells, a pattern line with a wrong value, a config with a wrong
type, a table with one bad cell), where the parsers' checks sit.
Replayed backend replies go the same way through ``induce_with_fallback``
and ``solve_task``, where a refused reply must also leave its note.
"""

import json
import string

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from symgrid import (
    KIND_ORDER,
    BackendError,
    Grid,
    SymgridError,
    decode_markdown,
    encode_markdown,
    parse_pattern,
    parse_task,
    solve_task,
)
from symgrid.backend import RemoteBackend, RemotePatternProposer
from symgrid.config import load_config
from symgrid.solver import induce_with_fallback

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


@pytest.fixture(scope="module")
def replay_tasks(tmp_path_factory):
    """Suite tasks (planted and noise) with their replayed propose lines,
    and a transcript path."""
    from conftest import replay_lines
    from symgrid.taskgen import generate_suite

    suite = generate_suite(seed=1007, n_planted=12, n_noise=4)
    tasks = [(task, replay_lines(planted)) for _, task, planted in suite]
    return tasks, tmp_path_factory.mktemp("replay") / "t.jsonl"


_ABSENT = object()  # a reply without the field


def _field(items):
    """A reply field: most often a list of ``items``, else any JSON value
    or absent."""
    good = st.lists(items, max_size=6)
    return st.one_of(good, good, good, _JSON, st.just(_ABSENT))


_GRID_TEXT = st.one_of(
    _tables(), _GRID.map(Grid.from_rows).map(encode_markdown), st.text(max_size=8)
)
_EXTRA = st.dictionaries(st.sampled_from(["note", "grid", "pattern"]), _JSON, max_size=1)


def _replay(path, entries):
    """A replaying backend answering each (request, (field, value, extra))
    of ``entries``: ``extra`` with ``value`` under ``field`` unless absent."""
    lines = [
        {"request": q, "response": extra if value is _ABSENT else {**extra, field: value}}
        for q, (field, value, extra) in entries
    ]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    return RemoteBackend(transcript_path=str(path))


def _refused(value):
    """Whether the backend refuses a reply holding ``value``: anything but
    a list of strings (the lists drawn here stay below the sample cap)."""
    return not (isinstance(value, list) and all(isinstance(v, str) for v in value))


@given(data=st.data())
@FUZZ
def test_replayed_replies(replay_tasks, data):
    # Replayed propose replies through ``induce_with_fallback``, then
    # replayed sample and fallback replies through ``solve_task``: only a
    # SymgridError may escape, and a reply the backend refuses degrades
    # the run with its note.
    tasks, path = replay_tasks
    task, lines = data.draw(st.sampled_from(tasks))
    train_md = [{"input": encode_markdown(a), "output": encode_markdown(b)} for a, b in task.train]
    proposals = st.one_of(st.just(lines), _field(st.one_of(st.sampled_from(lines), _LINE)))
    entries = [
        ({"mode": "propose", **pair, "budget": 2000}, ("patterns", data.draw(proposals), e))
        for pair, e in zip(train_md, [data.draw(_EXTRA) for _ in train_md])
    ]
    try:
        rs, note = induce_with_fallback(task, RemotePatternProposer(_replay(path, entries)))
        if any(_refused(value) for _, (_, value, _) in entries):
            assert note.startswith("backend induction failed: ")
        else:
            assert note is None
        entries, grids = [], []
        for gin, _ in task.test:
            request = {"mode": "sample", "train": train_md, "test_input": encode_markdown(gin)}
            sample, fallback = data.draw(_field(_GRID_TEXT)), data.draw(_field(_GRID_TEXT))
            entries.append(({**request, "hints": list(rs.hints), "samples": 2},
                            ("grids", sample, data.draw(_EXTRA))))
            entries.append(({**request, "hints": [], "samples": 1},
                            ("grids", fallback, data.draw(_EXTRA))))
            grids.append((sample, fallback))
        preds = solve_task(task, rs, _replay(path, entries), passes=2, samples=2)
        for pred, (sample, fallback) in zip(preds, grids):
            notes = [note.split(":")[0] for note in pred.trace.notes]
            assert pred.trace.degraded == bool(notes)
            if _refused(sample):
                assert notes == ["backend sampling failed"]
            elif notes:
                assert notes == ["backend fallback failed"] and _refused(fallback)
    except SymgridError as e:
        # A refused reply degrades the run; it never ends it.
        assert not isinstance(e, BackendError), e
