"""Grid values, task format, markdown codec, exact comparison."""

import json
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from symgrid import (
    Grid,
    GridValidationError,
    MarkdownError,
    Task,
    TaskFormatError,
    decode_markdown,
    encode_markdown,
    grids_equal,
    parse_task,
    pixel_distance,
    serialize_task,
)
from symgrid.grid import MAX_PAIRS
from conftest import grids, random_grid
from oracles import genexpr_pixel_distance, str_encode_markdown


class TestGridInvariants:
    def test_valid(self):
        g = Grid.from_rows([[0, 9], [5, 3]])
        assert g.dims == (2, 2)
        assert g.rows[1][0] == 5

    def test_out_of_range_cell(self):
        with pytest.raises(GridValidationError, match=r"\(0,1\)"):
            Grid.from_rows([[0, 10]])

    def test_ragged(self):
        with pytest.raises(GridValidationError, match="row 1"):
            Grid.from_rows([[0, 1], [2]])

    def test_empty(self):
        with pytest.raises(GridValidationError):
            Grid.from_rows([])

    def test_too_large(self):
        with pytest.raises(GridValidationError, match="31"):
            Grid.from_rows([[0] * 31])

    def test_list_containers_rejected(self):
        # Lists would pass the other checks and make the grid unhashable.
        for rows in ([[1, 2]], ([1, 2],)):
            with pytest.raises(GridValidationError, match="Grid.from_rows"):
                Grid(rows)

    def test_immutable_and_hashable(self):
        g = Grid.from_rows([[1]])
        assert hash(g) == hash(Grid.from_rows([[1]]))
        with pytest.raises(AttributeError):
            g.rows = ((2,),)


class TestParseTask:
    def test_minimal_legal_task(self):
        doc = b'{"train":[{"input":[[0]],"output":[[1]]}],"test":[{"input":[[0]]}]}'
        task = parse_task(doc)
        assert len(task.train) == 1
        assert len(task.test) == 1
        assert task.train[0][0].dims == (1, 1)
        assert task.test[0][1] is None

    def test_cell_out_of_range_names_coordinates(self):
        doc = b'{"train":[{"input":[[0]],"output":[[10]]}],"test":[{"input":[[0]]}]}'
        with pytest.raises(GridValidationError) as exc:
            parse_task(doc)
        assert str(exc.value) == "train[0].output: cell (0,0): cell value 10 out of range 0..9"

    def test_bad_cell_or_side_names_path_then_grid_fault(self):
        # The path prefixes Grid's own message, which names the cell.
        doc = b'{"train":[{"input":[[0,1],[2,true]],"output":[[1]]}],"test":[{"input":[[0]]}]}'
        with pytest.raises(GridValidationError) as exc:
            parse_task(doc)
        assert str(exc.value) == "train[0].input: cell (1,1): cell value True is not an integer"
        doc = b'{"train":[{"input":[[0]],"output":[[1]]}],"test":[{"input":[' + b"[0]," * 30 + b"[0]]}]}"
        with pytest.raises(GridValidationError, match=r"^test\[0\]\.input: height 31 exceeds 30$"):
            parse_task(doc)

    @pytest.mark.parametrize("key", ["train", "test"])
    def test_pair_cap(self, key):
        pair = {"input": [[0]], "output": [[1]]}
        doc = {"train": [pair], "test": [pair]}
        doc[key] = [pair] * MAX_PAIRS
        assert len(getattr(parse_task(json.dumps(doc)), key)) == MAX_PAIRS
        doc[key] = [pair] * (MAX_PAIRS + 1)
        with pytest.raises(TaskFormatError) as exc:
            parse_task(json.dumps(doc))
        assert str(exc.value) == f"{key}: {MAX_PAIRS + 1} pairs exceed the cap of {MAX_PAIRS}"

    def test_malformed_names_path(self):
        doc = b'{"train":[{"input":[[0]]}],"test":[{"input":[[0]]}]}'
        with pytest.raises(TaskFormatError, match=r"train\[0\]"):
            parse_task(doc)

    def test_invalid_json(self):
        with pytest.raises(TaskFormatError, match="invalid JSON"):
            parse_task(b"{nope")

    def test_empty_train(self):
        with pytest.raises(TaskFormatError, match="train"):
            parse_task(b'{"train":[],"test":[{"input":[[0]]}]}')

    def test_test_output_accepted(self):
        doc = b'{"train":[{"input":[[0]],"output":[[1]]}],"test":[{"input":[[0]],"output":[[2]]}]}'
        task = parse_task(doc)
        assert task.test[0][1] == Grid.from_rows([[2]])

    def test_round_trip_random_tasks(self):
        # Oracle: generate -> serialize -> parse must reproduce the value,
        # and a second serialize must be byte-identical (idempotence).
        rng = random.Random(7)
        for _ in range(100):
            train = tuple(
                (random_grid(rng, 6), random_grid(rng, 6))
                for _ in range(rng.randint(1, 4))
            )
            test = tuple(
                (random_grid(rng, 6), random_grid(rng, 6) if rng.random() < 0.5 else None)
                for _ in range(rng.randint(1, 2))
            )
            task = Task(train=train, test=test)
            data = serialize_task(task)
            again = parse_task(data)
            assert again == task
            assert serialize_task(again) == data

    def test_serialized_form_is_public_schema(self):
        task = parse_task(
            b'{"train":[{"input":[[0]],"output":[[1]]}],"test":[{"input":[[2]]}]}'
        )
        doc = json.loads(serialize_task(task))
        assert doc == {
            "train": [{"input": [[0]], "output": [[1]]}],
            "test": [{"input": [[2]]}],
        }


class TestMarkdown:
    def test_single_cell(self):
        assert encode_markdown(Grid.from_rows([[3]])) == "|3|"
        assert decode_markdown("|5|") == Grid.from_rows([[5]])

    def test_two_by_two(self):
        assert encode_markdown(Grid.from_rows([[0, 1], [2, 3]])) == "|0|1|\n|2|3|"

    def test_ragged_rejected(self):
        with pytest.raises(MarkdownError, match="row 1"):
            decode_markdown("|0|1|\n|2|")

    def test_non_digit_rejected_with_position(self):
        # str.isdigit() holds for the superscript two and the Arabic-Indic three.
        for text in ("|0|x|", "|0|\u00b2|", "|0|\u0663|"):
            with pytest.raises(MarkdownError, match="row 0 column 1"):
                decode_markdown(text)

    def test_trailing_newline_tolerated(self):
        assert decode_markdown("|1|\n") == Grid.from_rows([[1]])

    def test_round_trip_500_random(self):
        rng = random.Random(3)
        for _ in range(500):
            g = random_grid(rng)
            assert decode_markdown(encode_markdown(g)) == g

    @given(st.text(max_size=200))
    def test_decode_never_crashes(self, text):
        try:
            result = decode_markdown(text)
        except (MarkdownError, GridValidationError):
            return
        assert isinstance(result, Grid)

    @given(grids())
    @settings(max_examples=60)
    def test_round_trip_property(self, g):
        assert decode_markdown(encode_markdown(g)) == g


_DIGITS = {str(v): v for v in range(10)}


def _reference_decode(text):
    """decode_markdown as a per-cell lookup followed by the validating
    ``Grid(...)``: the reference for the one-pass decoder."""
    if not isinstance(text, str):
        raise MarkdownError("expected text")
    if text.endswith("\n"):
        text = text[:-1]
    if not text:
        raise MarkdownError("empty table")
    rows = []
    width = None
    for r, line in enumerate(text.split("\n")):
        if len(line) < 3 or line[0] != "|" or line[-1] != "|":
            raise MarkdownError(f"row {r}: not delimited by '|'")
        cells = line[1:-1].split("|")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise MarkdownError(
                f"row {r}: width {len(cells)} differs from width {width}"
            )
        parsed = []
        for c, cell in enumerate(cells):
            value = _DIGITS.get(cell)
            if value is None:
                raise MarkdownError(f"row {r} column {c}: bad cell {cell!r}")
            parsed.append(value)
        rows.append(tuple(parsed))
    try:
        return Grid(tuple(rows))
    except GridValidationError as e:
        raise MarkdownError(str(e)) from None


@st.composite
def markdown_tables(draw):
    """The table of a grid up to 32x32 (so possibly too large) with at
    most one fault: a bad cell (multi-digit or empty among them), a
    ragged row, height or width forced to 31, or a trailing newline; or
    both sides forced to exactly 30 or 31."""
    h = draw(st.integers(1, 32))
    w = draw(st.integers(1, 32))
    rng = draw(st.randoms(use_true_random=False))
    rows = [[str(rng.randrange(10)) for _ in range(w)] for _ in range(h)]
    fault = draw(
        st.sampled_from(
            ["none", "cell", "ragged", "height", "width", "newline", "side30", "side31"]
        )
    )
    if fault == "cell":
        bad = draw(st.sampled_from(["x", "\u00b2", "\u0663", "", "12", " 1", "-"]))
        rows[draw(st.integers(0, h - 1))][draw(st.integers(0, w - 1))] = bad
    elif fault in ("side30", "side31"):
        side = int(fault[4:])
        rows = [(row * side)[:side] for row in (rows * side)[:side]]
    elif fault == "ragged":
        row = rows[draw(st.integers(0, h - 1))]
        if w > 1 and draw(st.booleans()):
            row.pop()
        else:
            row.append("0")
    elif fault == "height":
        rows = (rows * 31)[:31]
    elif fault == "width":
        rows = [(row * 31)[:31] for row in rows]
    text = "\n".join("|" + "|".join(row) + "|" for row in rows)
    return text + "\n" if fault == "newline" else text


# Table characters plus look-alikes: str.isdigit() holds for the
# superscript two, the Arabic-Indic three and the fullwidth one.
_TABLE_ALPHABET = "|0123456789x\u00b2\u0663\uff11\n\r -"


@st.composite
def near_miss_tables(draw):
    """A well-formed table with height and width each 1-31 (30 and 31
    drawn often) missed in one place: a character replaced, inserted or
    deleted, a cell moved from one row to another (so the table keeps its
    length), or every row of an even length (its last `|` cut, a digit
    appended, or its first cell doubled); or left whole. Then none, one
    or two trailing newlines."""
    side = st.one_of(st.integers(1, 31), st.sampled_from([30, 31]))
    h, w = draw(side), draw(side)
    rng = draw(st.randoms(use_true_random=False))
    lines = [
        "|" + "|".join(str(rng.randrange(10)) for _ in range(w)) + "|"
        for _ in range(h)
    ]
    text = "\n".join(lines)
    miss = draw(
        st.sampled_from(["none", "replace", "insert", "delete", "move", "even"])
    )
    if miss == "move" and h > 1 and w > 1:
        src, dst = draw(st.permutations(range(h)))[:2]
        lines[dst] += lines[src][-2:]
        lines[src] = lines[src][:-2]
        text = "\n".join(lines)
    elif miss == "even":
        even = draw(st.sampled_from(["cut", "append", "double"]))
        if even == "cut":
            lines = [line[:-1] for line in lines]
        elif even == "append":
            lines = [line + "0" for line in lines]
        else:
            lines = [line[:2] + line[1:] for line in lines]
        text = "\n".join(lines)
    elif miss in ("replace", "insert", "delete"):
        i = draw(st.integers(0, len(text) - (miss != "insert")))
        if miss == "delete":
            text = text[:i] + text[i + 1 :]
        else:
            ch = draw(st.sampled_from(_TABLE_ALPHABET))
            text = text[:i] + ch + text[i + (miss == "replace") :]
    return text + draw(st.sampled_from(["", "\n", "\n\n"]))


def _decode_outcome(decode, text):
    # Only MarkdownError is caught: an AssertionError from _markdown_fault
    # (a refused table with no fault to name) fails the test.
    try:
        return decode(text)
    except MarkdownError as e:
        return str(e)


class TestDecodeAgainstReference:
    @given(st.one_of(markdown_tables(), near_miss_tables()))
    @settings(max_examples=700, deadline=None)
    def test_generated_tables(self, text):
        got = _decode_outcome(decode_markdown, text)
        assert got == _decode_outcome(_reference_decode, text)
        if isinstance(got, Grid):
            assert Grid(got.rows) == got

    @given(st.text(alphabet=_TABLE_ALPHABET, max_size=80))
    @settings(max_examples=300)
    def test_text_over_table_alphabet(self, text):
        assert _decode_outcome(decode_markdown, text) == _decode_outcome(
            _reference_decode, text
        )


class TestEncodeAgainstReference:
    @given(grids(max_side=30))
    @settings(max_examples=200, deadline=None)
    def test_generated_grids(self, g):
        assert encode_markdown(g) == str_encode_markdown(g)

    @pytest.mark.parametrize("h, w", [(1, 1), (1, 30), (30, 1), (30, 30)])
    def test_extreme_sides_over_all_colors(self, h, w):
        # Ten shifts of the color sequence, so even the 1x1 grid takes
        # every color.
        for shift in range(10):
            g = Grid.from_rows(
                [[(r * w + c + shift) % 10 for c in range(w)] for r in range(h)]
            )
            text = encode_markdown(g)
            assert text == str_encode_markdown(g)
            assert decode_markdown(text) == g


class TestGridsEqual:
    def test_equal(self):
        assert grids_equal(Grid.from_rows([[1]]), Grid.from_rows([[1]]))

    def test_dimension_mismatch(self):
        assert not grids_equal(Grid.from_rows([[1]]), Grid.from_rows([[1, 1]]))

    def test_every_single_cell_flip_detected(self):
        # Exhaustive flip oracle on a 5x5 grid.
        rng = random.Random(11)
        base = random_grid(rng, max_side=5, min_side=5)
        for r in range(5):
            for c in range(5):
                rows = base.to_lists()
                rows[r][c] = (rows[r][c] + 1) % 10
                assert not grids_equal(base, Grid.from_rows(rows))

    @given(grids(max_side=6), grids(max_side=6), grids(max_side=6))
    @settings(max_examples=40)
    def test_equivalence_relation(self, a, b, c):
        assert grids_equal(a, a)
        assert grids_equal(a, b) == grids_equal(b, a)
        if grids_equal(a, b) and grids_equal(b, c):
            assert grids_equal(a, c)


class TestPixelDistance:
    def test_same_dims_counts_cells(self):
        a = Grid.from_rows([[1, 2], [3, 4]])
        b = Grid.from_rows([[1, 0], [0, 4]])
        assert pixel_distance(a, b) == 2

    def test_dims_mismatch_worse_than_any_same_shape(self):
        a = Grid.from_rows([[1]])
        b = Grid.from_rows([[1, 2], [3, 4]])
        assert pixel_distance(a, b) == 5

    @given(grids(max_side=8, colors=3), st.data())
    @settings(max_examples=200)
    def test_matches_reference(self, a, data):
        # A few cells of ``a`` changed (so most rows stay equal), and an
        # unrelated grid that mostly differs in shape.
        rows = [list(row) for row in a.rows]
        cell = st.tuples(
            st.integers(0, a.height - 1), st.integers(0, a.width - 1), st.integers(0, 9)
        )
        for r, c, v in data.draw(st.lists(cell, max_size=6)):
            rows[r][c] = v
        for b in (Grid.from_rows(rows), data.draw(grids(max_side=8, colors=3))):
            assert pixel_distance(a, b) == genexpr_pixel_distance(a, b)
            assert pixel_distance(b, a) == genexpr_pixel_distance(b, a)
