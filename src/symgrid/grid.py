"""Grid values, the task file format, and the markdown grid codec.

A grid is a rectangular matrix of color indices 0..9, at most 30x30,
stored row-major with (row, column) addressing and row 0 at the top.
Grids are immutable and hashable, so they can be shared freely and used
as dictionary keys during voting and deduplication.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass

from .errors import GridValidationError, MarkdownError, TaskFormatError

MAX_SIDE = 30
NUM_COLORS = 10
# Train or test pairs one task file may hold. Induction's cost grows with
# the train pairs (about 1 s and 2 MB per dense 30x30 pair at threshold
# 0.0); ARC-style tasks have at most about 10.
MAX_PAIRS = 32

Coord = tuple[int, int]


@dataclass(frozen=True)
class Grid:
    """Immutable rectangular grid of colors 0..9."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        # Grids are hashed by voting, dedup and Scenes, so list rows would
        # pass every other check here and fail much later.
        if type(self.rows) is not tuple or any(
            type(row) is not tuple for row in self.rows
        ):
            raise GridValidationError(
                "grid rows must be a tuple of tuples; build from lists with Grid.from_rows"
            )
        if not self.rows:
            raise GridValidationError("grid has no rows")
        h = len(self.rows)
        w = len(self.rows[0])
        if w == 0:
            raise GridValidationError("grid row 0 is empty")
        if h > MAX_SIDE:
            raise GridValidationError(f"height {h} exceeds {MAX_SIDE}")
        if w > MAX_SIDE:
            raise GridValidationError(f"width {w} exceeds {MAX_SIDE}")
        for r, row in enumerate(self.rows):
            if len(row) != w:
                raise GridValidationError(
                    f"row {r} has width {len(row)}, expected {w}"
                )
            for c, v in enumerate(row):
                if type(v) is not int:
                    raise GridValidationError(f"cell ({r},{c}): cell value {v!r} is not an integer")
                if not 0 <= v < NUM_COLORS:
                    raise GridValidationError(f"cell ({r},{c}): cell value {v} out of range 0..9")

    @classmethod
    def from_rows(cls, rows: list[list[int]]) -> "Grid":
        return cls(tuple(tuple(row) for row in rows))

    @classmethod
    def _trusted(cls, rows: tuple[tuple[int, ...], ...]) -> "Grid":
        """Wrap rows without the checks of ``__post_init__``.

        Only for grids the library derives from grids that were already
        validated: the caller guarantees a non-empty, rectangular tuple
        of int tuples with sides at most 30 and cells 0..9. Anything
        arriving from outside goes through ``Grid(...)`` instead, except
        ``decode_markdown``, which performs that complete check itself
        while it parses.
        """
        g = object.__new__(cls)
        object.__setattr__(g, "rows", rows)
        return g

    @property
    def height(self) -> int:
        return len(self.rows)

    @property
    def width(self) -> int:
        return len(self.rows[0])

    @property
    def dims(self) -> tuple[int, int]:
        return (len(self.rows), len(self.rows[0]))

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.rows]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Grid({self.to_lists()!r})"


@dataclass(frozen=True)
class Task:
    """A few-shot puzzle: train input/output pairs plus test inputs.

    Test expected outputs are optional; they are present in scored
    datasets and absent in blind ones.
    """

    train: tuple[tuple[Grid, Grid], ...]
    test: tuple[tuple[Grid, Grid | None], ...]

    def __post_init__(self) -> None:
        if not self.train:
            raise TaskFormatError("task has no train pairs")
        if not self.test:
            raise TaskFormatError("task has no test inputs")


def grids_equal(a: Grid, b: Grid) -> bool:
    """Exact comparison: identical dimensions and identical cells."""
    return a.rows == b.rows


def pixel_distance(a: Grid, b: Grid) -> int:
    """Differing-cell count when shapes match; a shape mismatch scores
    b's area + 1, strictly worse than any same-shape disagreement."""
    if a.dims != b.dims:
        return b.height * b.width + 1
    # Equal rows are skipped whole; map(ne) counts the rest without a
    # per-cell Python frame (True counts as 1).
    return sum(
        [sum(map(operator.ne, ra, rb)) for ra, rb in zip(a.rows, b.rows) if ra != rb]
    )


def _grid_from_json(node: object, path: str) -> Grid:
    if not isinstance(node, list) or not node:
        raise TaskFormatError(f"{path}: expected a non-empty array of rows")
    for r, row in enumerate(node):
        if not isinstance(row, list) or not row:
            raise TaskFormatError(f"{path}[{r}]: expected a non-empty array of cells")
        # Row 0 is a list by now, so every later row is measured against it.
        if len(row) != len(node[0]):
            raise TaskFormatError(
                f"{path}[{r}]: row width {len(row)} differs from {len(node[0])}"
            )
    # Grid checks each cell and the 30x30 bound; its message gains the path.
    try:
        return Grid(tuple(map(tuple, node)))
    except GridValidationError as e:
        raise GridValidationError(f"{path}: {e}") from None


def parse_task(data: bytes | str) -> Task:
    """Parse a task document in the public JSON schema.

    Raises TaskFormatError for structural problems (the message names the
    offending path), including more than MAX_PAIRS train or test pairs, and
    GridValidationError for a bad cell or a side over 30 (the message names
    the grid's path, then the coordinates).
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise TaskFormatError(f"not valid UTF-8: {e}") from None
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as e:
        raise TaskFormatError(f"invalid JSON: {e}") from None
    except RecursionError:
        raise TaskFormatError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise TaskFormatError("top level: expected an object")
    for key in ("train", "test"):
        if key not in doc:
            raise TaskFormatError(f"top level: missing key {key!r}")
        if not isinstance(doc[key], list) or not doc[key]:
            raise TaskFormatError(f"{key}: expected a non-empty array")
        if len(doc[key]) > MAX_PAIRS:
            raise TaskFormatError(
                f"{key}: {len(doc[key])} pairs exceed the cap of {MAX_PAIRS}"
            )

    train = []
    for i, item in enumerate(doc["train"]):
        if not isinstance(item, dict):
            raise TaskFormatError(f"train[{i}]: expected an object")
        for key in ("input", "output"):
            if key not in item:
                raise TaskFormatError(f"train[{i}]: missing key {key!r}")
        train.append(
            (
                _grid_from_json(item["input"], f"train[{i}].input"),
                _grid_from_json(item["output"], f"train[{i}].output"),
            )
        )

    test = []
    for i, item in enumerate(doc["test"]):
        if not isinstance(item, dict):
            raise TaskFormatError(f"test[{i}]: expected an object")
        if "input" not in item:
            raise TaskFormatError(f"test[{i}]: missing key 'input'")
        expected = None
        if item.get("output") is not None:
            expected = _grid_from_json(item["output"], f"test[{i}].output")
        test.append((_grid_from_json(item["input"], f"test[{i}].input"), expected))

    return Task(train=tuple(train), test=tuple(test))


def serialize_task(task: Task) -> bytes:
    """Inverse of parse_task; emits compact UTF-8 JSON, order preserved."""
    doc: dict[str, list[dict[str, object]]] = {"train": [], "test": []}
    for gin, gout in task.train:
        doc["train"].append({"input": gin.to_lists(), "output": gout.to_lists()})
    for gin, expected in task.test:
        item: dict[str, object] = {"input": gin.to_lists()}
        if expected is not None:
            item["output"] = expected.to_lists()
        doc["test"].append(item)
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


def encode_markdown(g: Grid) -> str:
    """Render a grid as a markdown-style table, one row per line.

    Cells are single digits separated by `|`, with leading and trailing
    `|` per row and no header. Deterministic; `\\n` joins rows. The rows,
    joined as bytes and translated to digits, fill the odd bytes of one buffer.
    """
    cells = b"\n".join(map(bytes, g.rows)).translate(_DIGIT_CHARS)
    table = bytearray(b"|" * (2 * len(cells) + 1))
    table[1::2] = cells
    return table.decode()


# The ten ASCII digits only: str.isdigit() is also true for "\u00b2" and "\u0663".
_DIGITS = tuple(str(v) for v in range(NUM_COLORS))
_DIGIT_CHARS = bytes.maketrans(bytes(range(NUM_COLORS)), b"0123456789")
_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(NUM_COLORS)))


def decode_markdown(text: str) -> Grid:
    """Strict inverse of encode_markdown.

    Accepts the exact encoded form plus at most one trailing newline.
    Ragged rows raise MarkdownError (shape); a cell other than one of the
    ASCII digits 0-9 raises MarkdownError naming row and column.

    A valid table is ASCII, its even bytes are `|`, its odd bytes digits
    or the `\\n` ending a line, and its lines, at most 30, have one odd
    length from 3 to 61. It is checked and decoded on the whole buffer;
    any other text is refused, with the error ``_markdown_fault`` names.
    """
    if not isinstance(text, str):
        raise MarkdownError("expected text")
    text = text.removesuffix("\n")
    if not text:
        raise MarkdownError("empty table")
    if text.isascii():
        table = text.encode()
        cells = table[1::2]
        rows = cells.translate(_DIGIT_VALUES).split(b"\n")
        # One `|` more than odd bytes, none of which is `|`, puts one at every
        # even byte. These include Grid.__post_init__'s checks, so it is skipped.
        if (
            len(rows) <= MAX_SIDE
            and 0 < len(rows[0]) <= MAX_SIDE
            and len(set(map(len, rows))) == 1
            and not cells.translate(None, b"0123456789\n")
            and table.count(b"|") == len(cells) + 1
        ):
            return Grid._trusted(tuple(map(tuple, rows)))
    raise _markdown_fault(text.split("\n"))


def _markdown_fault(lines: list[str]) -> MarkdownError:
    """The error for the lines of a table ``decode_markdown`` refused:
    the first fault, reading row by row and cell by cell, then the
    height and width in Grid.__post_init__'s order."""
    width = None
    for r, line in enumerate(lines):
        if len(line) < 3 or line[0] != "|" or line[-1] != "|":
            return MarkdownError(f"row {r}: not delimited by '|'")
        cells = line[1:-1].split("|")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            return MarkdownError(f"row {r}: width {len(cells)} differs from width {width}")
        for c, cell in enumerate(cells):
            if cell not in _DIGITS:
                return MarkdownError(f"row {r} column {c}: bad cell {cell!r}")
    if len(lines) > MAX_SIDE:
        return MarkdownError(f"height {len(lines)} exceeds {MAX_SIDE}")
    if width > MAX_SIDE:
        return MarkdownError(f"width {width} exceeds {MAX_SIDE}")
    raise AssertionError(f"a well-formed table was refused: {lines!r}")
